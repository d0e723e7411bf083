"""jsonfile is datacred's only module that writes files; fail here if another starts to.

jsonfile owns the write rules: documents are replaced through a temp file and
a rename, logs are appended to after cutting a torn tail. A write elsewhere
could skip either rule and leave a file no reader expects.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "datacred"
WRITE_METHODS = {"write_text", "write_bytes"}
OS_WRITES = {"replace", "rename", "truncate"}


def writing_mode(node: ast.Call) -> bool:
    """An open() call, builtin or method, whose mode writes, appends, creates or updates."""
    if isinstance(node.func, ast.Name):
        positional = node.args[1:2]  # open(file, mode)
    else:
        positional = node.args[:1]  # Path.open(mode)
    modes = positional + [k.value for k in node.keywords if k.arg == "mode"]
    return any(
        isinstance(mode, ast.Constant) and isinstance(mode.value, str)
        and set(mode.value) & set("wax+")
        for mode in modes
    )


def writes(path: Path):
    """Every file-writing call or import a module makes."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from (f"os.{a.name}" for a in node.names if a.name in OS_WRITES)
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in WRITE_METHODS:
            yield func.attr
        elif (isinstance(func, ast.Attribute) and func.attr in OS_WRITES
              and isinstance(func.value, ast.Name) and func.value.id == "os"):
            yield f"os.{func.attr}"
        elif ((isinstance(func, ast.Name) and func.id == "open")
              or (isinstance(func, ast.Attribute) and func.attr == "open")) and writing_mode(node):
            yield "open"


def test_only_jsonfile_writes_files():
    writers = {
        (path.relative_to(PACKAGE).as_posix(), name)
        for path in PACKAGE.rglob("*.py")
        for name in writes(path)
    }
    assert writers == {
        ("jsonfile.py", "write_text"),
        ("jsonfile.py", "os.replace"),
        ("jsonfile.py", "open"),
    }


def test_the_guard_sees_each_kind_of_write(tmp_path):
    module = tmp_path / "writer.py"
    module.write_text(
        "import os\n"
        "from os import rename\n"
        "p.write_bytes(b'')\n"
        "os.truncate(p, 0)\n"
        "open(p, 'r+b')\n"
        "open(p, mode='x')\n"
        "p.open('a')\n"
        "open(p, 'rb')\n"
        "p.open()\n"
        "'a:b'.replace(':', '/')\n"
        "Wallet.open(path, passphrase)\n",
        encoding="utf-8",
    )
    assert sorted(writes(module)) == ["open", "open", "open", "os.rename", "os.truncate",
                                      "write_bytes"]
