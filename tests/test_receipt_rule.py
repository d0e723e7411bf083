"""credential.py decides whether a credential is acceptable; fail here if the agent copies it.

The dataset agent checks a received credential through credential.check_receipt,
the verifier's own checks. A signature or schema check written into the agent
could drift from the verifier's rule, as the date check once did.
"""

import ast
from pathlib import Path

SERVICE = Path(__file__).resolve().parents[1] / "src" / "datacred" / "agent" / "service.py"
RULE_NAMES = {"check_proof", "SchemaMismatch"}


def names_used(path: Path) -> set[str]:
    """Every name a module imports, reads or takes as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_agent_service_leaves_the_acceptance_rule_to_credential():
    used = names_used(SERVICE)
    assert "check_receipt" in used
    assert used & RULE_NAMES == set()


def test_the_guard_sees_each_way_to_reach_a_rule(tmp_path):
    module = tmp_path / "service.py"
    module.write_text(
        "from ..proofs import check_proof as check\n"
        "from .. import errors\n"
        "def f():\n"
        "    from ..credential import check_receipt\n"
        "    raise errors.SchemaMismatch()\n",
        encoding="utf-8",
    )
    assert names_used(module) & (RULE_NAMES | {"check_receipt"}) == {
        "check_proof", "SchemaMismatch", "check_receipt"
    }
