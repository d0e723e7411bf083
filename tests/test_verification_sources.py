"""credential.verification_sources is the only place datacred builds a Resolver; fail here
if another appears.

A second construction could pick its own backends or registry source, and whether a
credential reads as revoked would then depend on which command or agent checked it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "datacred"


class ResolverCalls(ast.NodeVisitor):
    """The enclosing function of every call to a name or attribute `Resolver`."""

    def __init__(self):
        self.scope, self.found = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        callee = node.func
        if getattr(callee, "id", getattr(callee, "attr", None)) == "Resolver":
            self.found.append(".".join(self.scope) or "<module>")
        self.generic_visit(node)


def constructions(path: Path) -> list[str]:
    calls = ResolverCalls()
    calls.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return calls.found


def test_only_verification_sources_constructs_a_resolver():
    constructors = [
        (path.relative_to(PACKAGE).as_posix(), scope)
        for path in sorted(PACKAGE.rglob("*.py"))
        for scope in constructions(path)
    ]
    assert constructors == [("credential.py", "verification_sources")]

