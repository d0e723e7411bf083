"""resolver.request_json is datacred's only HTTP client; fail here if another appears."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "datacred"
HTTP_CLIENTS = ("requests", "urllib3", "http.client", "urllib.request")


def imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_the_resolver_imports_an_http_client():
    importers = {
        (path.relative_to(PACKAGE).as_posix(), name)
        for path in PACKAGE.rglob("*.py")
        for name in imports(path)
        if any(name == client or name.startswith(client + ".") for client in HTTP_CLIENTS)
    }
    assert importers == {("resolver.py", "requests")}
