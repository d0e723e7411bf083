"""jsonfile is datacred's only module that writes files; fail here if another starts to.

jsonfile owns the write rules: documents are replaced through a temp file and
a rename, logs are appended to after cutting a torn tail. A write elsewhere
could skip either rule and leave a file no reader expects.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "datacred"
WRITE_METHODS = {"write_text", "write_bytes"}
OS_WRITES = {"replace", "rename", "truncate", "write"}
READ_ONLY_FLAGS = {"O_RDONLY", "O_BINARY"}


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


def read_only_flags(expr: ast.expr, constants: dict) -> bool:
    """Whether os.open flags provably name nothing beyond O_RDONLY (and O_BINARY, which
    only turns off newline mapping). Module constants are followed; anything else writes."""
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
        return read_only_flags(expr.left, constants) and read_only_flags(expr.right, constants)
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) and expr.value.id == "os":
        return expr.attr in READ_ONLY_FLAGS
    if isinstance(expr, ast.Name):
        return expr.id in constants and read_only_flags(constants[expr.id], constants)
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) and expr.func.id == "getattr":
        return all(read_only_flags(arg, constants) for arg in expr.args[1:])  # (os, "O_X", 0)
    return isinstance(expr, ast.Constant) and (expr.value == 0 or expr.value in READ_ONLY_FLAGS)


def writes(path: Path):
    """Every file-writing call or import a module makes."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    constants = {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    }
    for node in ast.walk(tree):
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
        elif (isinstance(func, ast.Attribute) and func.attr == "open"
              and isinstance(func.value, ast.Name) and func.value.id == "os"):
            flags = node.args[1:2] + [k.value for k in node.keywords if k.arg == "flags"]
            if not all(read_only_flags(expr, constants) for expr in flags):
                yield "os.open"  # os.open(path, flags) that may write, create, append or truncate
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


def test_the_guard_sees_each_writing_os_open(tmp_path):
    module = tmp_path / "fd_writer.py"
    module.write_text(
        "import os\n"
        "APPEND = os.O_APPEND | os.O_CREAT\n"
        "READ = os.O_RDONLY | getattr(os, 'O_BINARY', 0)\n"
        "os.open(p, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)\n"
        "os.open(p, flags=os.O_RDWR)\n"
        "os.open(p, APPEND)\n"
        "os.open(p, flags)\n"
        "os.open(p, 1)\n"
        "os.open(p, os.O_RDONLY | getattr(os, 'O_WRONLY', 0))\n"
        "os.write(fd, b'')\n"
        "os.open(p, os.O_RDONLY)\n"
        "os.open(p, READ)\n"
        "os.open(p, flags=0)\n",
        encoding="utf-8",
    )
    assert list(writes(module)) == ["os.open"] * 6 + ["os.write"]


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
