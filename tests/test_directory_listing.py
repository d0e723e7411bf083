"""fingerprint.build_manifest is datacred's only directory walk; fail here if another appears.

A second walk could apply a different rule for links, special files or
unlistable directories, and a tree's binding would then depend on the caller.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "datacred"
LISTING = {"rglob", "glob", "iterdir", "walk", "scandir", "listdir"}


def listings(path: Path):
    """Every directory-listing name a module calls, imports or reaches through an attribute."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in LISTING:
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module in ("os", "glob", "pathlib"):
            yield from (alias.name for alias in node.names if alias.name in LISTING)
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if alias.name == "glob")


def test_only_fingerprint_lists_directories():
    listers = {
        (path.relative_to(PACKAGE).as_posix(), name)
        for path in PACKAGE.rglob("*.py")
        for name in listings(path)
    }
    assert listers == {("fingerprint.py", "scandir")}
