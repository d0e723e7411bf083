"""How datacred stores JSON files: wallets, agent state and config, DID
documents, registries, credentials and offline bundles.

A document write goes to a ``.tmp`` sibling, renamed over the target or
removed if the write fails, so no reader or crash sees a torn file. A read
yields a JSON object or an error naming the file: FetchFailed when it cannot
be read, else DocumentInvalid. Following RFC 7493 (I-JSON), a read refuses an
object that repeats a member name, so a forged ``credentialSubject`` cannot sit
ahead of the signed one; ``NaN``, ``Infinity`` and ``-Infinity``, which are not
JSON; and a string holding a lone surrogate, which no signature can cover.

Logs (the wallet, and an agent's issuance and registry logs) are JSON-lines
files that grow by appending one line. A crash mid-append can leave a last
line with no newline; that torn tail is not part of the log: ``read_lines``
leaves it out and the next ``append_line`` cuts it off. No write is fsynced.

Untrusted JSON has one shape rule, which every ``from_json`` applies through
``member``, ``string_list`` and ``json_object``: a member that is present has its
type, and a type matches exactly, so ``true`` is no integer, a string no list
and ``null`` no absent member. A signed document's ``from_json`` also refuses,
through ``known_members``, a member it does not read: a signature is checked on
what ``to_json`` writes back, so a member left out would pass unchecked. A
refusal raises the error the caller passes, called with ``missing field 'name'``,
``fields must be <kinds>: 'name' is <kind>``, ``must be an object, not <kind>``
or ``unknown member 'name'``: every document's parser passes DocumentInvalid.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import DocumentInvalid, FetchFailed


def read_bytes(path: str | Path) -> bytes:
    """The bytes stored at path."""
    try:
        with open(path, "rb") as file:
            return file.read()
    except OSError as exc:
        raise FetchFailed(f"{path}: {exc.strerror or exc}") from exc


def _unique_members(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        repeated = next(name for name, _ in pairs if name in seen or seen.add(name))
        raise DocumentInvalid(f"member {repeated!r} is repeated")
    return obj


def _no_constant(name: str):
    raise DocumentInvalid(f"{name} is not a JSON number")


def parse_json(data: bytes, name) -> dict:
    """The JSON object data holds, or DocumentInvalid naming the I-JSON rule it breaks or
    why the decoder cannot read it (not UTF-8 text, not JSON, or nested too deep); name
    says where the bytes came from."""
    try:
        obj = json.loads(data, object_pairs_hook=_unique_members, parse_constant=_no_constant)
        if b"\\" in data or not data.isascii():  # else no string holds a lone surrogate
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:  # the string is left out, as canonicalize leaves it out
        raise DocumentInvalid(f"{name}: a string holds a lone surrogate") from None
    except (DocumentInvalid, ValueError, RecursionError) as exc:  # a broken rule, or not JSON
        raise DocumentInvalid(f"{name}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DocumentInvalid(f"{name}: expected a JSON object, got {type(obj).__name__}")
    return obj


REQUIRED = object()  # the default of a member that must be present, and what get finds absent
TEXT, OBJECT, LIST = (str,), (dict,), (list,)
ANY = (str, int, float, bool, list, dict, type(None))  # any JSON value
VALUE = ANY[:-1]  # any JSON value but null
_STRING = {str}
_KINDS = {str: ("a string", "strings"), int: ("an integer", "integers"),
          float: ("a number", "numbers"), bool: ("a boolean", "booleans"),
          list: ("a list", "lists"), dict: ("an object", "objects"), type(None): ("null", "null")}


def _kind(value) -> str:
    return _KINDS[type(value)][0] if type(value) in _KINDS else type(value).__name__


def member(obj: dict, name: str, kinds: tuple, error, default=REQUIRED):
    """obj[name], whose type must be exactly one of kinds; default when the member is
    absent, unless it is REQUIRED. Any other value raises error(message)."""
    value = obj.get(name, REQUIRED)
    if type(value) in kinds:
        return value
    if value is REQUIRED:
        if default is REQUIRED:
            raise error(f"missing field {name!r}")
        return default
    expected = " or ".join(_KINDS[kind][1] for kind in kinds)
    raise error(f"fields must be {expected}: {name!r} is {_kind(value)}")


def refusal(error: type, prefix: str):
    """The error argument that raises error(prefix + message), naming the document."""
    return lambda message: error(prefix + message)


def parsed(parse, value, name):
    """parse(value), a DocumentInvalid it raises prefixed with name, where value came from."""
    try:
        return parse(value)
    except DocumentInvalid as exc:
        raise DocumentInvalid(f"{name}: {exc}") from exc


def json_object(value, error) -> dict:
    """value, which must be a JSON object; else error("must be an object, not <kind>")."""
    if type(value) is dict:
        return value
    raise error(f"must be an object, not {_kind(value)}")


def known_members(obj: dict, names: frozenset, error) -> None:
    """Refuse obj by error("unknown member 'name'") if it holds a member not in names."""
    if not names.issuperset(obj):
        unknown = next(name for name in obj if name not in names)
        raise error(f"unknown member {unknown!r}")


def string_list(obj: dict, name: str, error, default=REQUIRED) -> list[str]:
    """member(obj, name, LIST, error, default), whose items must all be strings."""
    value = member(obj, name, LIST, error, default)
    if value is not default and not set(map(type, value)) <= _STRING:
        item = next(item for item in value if type(item) is not str)
        raise error(f"fields must be lists of strings: {name!r} holds {_kind(item)}")
    return value


def read_json(path: str | Path) -> dict:
    """The JSON object stored at path."""
    return parse_json(read_bytes(path), path)


def _replace(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj: dict) -> None:
    """Replace the file at path with obj, creating its directory if needed."""
    _replace(Path(path), json.dumps(obj, indent=2) + "\n")


def read_lines(path: str | Path) -> tuple[list[bytes], int]:
    """The complete lines of a log, without their newlines, and the offset where they end."""
    data = read_bytes(path)
    end = data.rfind(b"\n") + 1
    return data[:end].split(b"\n")[:-1], end


def write_lines(path: str | Path, lines: list[bytes]) -> int:
    """Replace the log at path with lines, as write_json replaces a document; its length."""
    data = b"".join(line + b"\n" for line in lines)
    _replace(Path(path), data.decode("utf-8"))
    return len(data)


def append_line(path: str | Path, line: bytes, at: int) -> int:
    """Cut the log at path to its first ``at`` bytes, then append line; the new length.

    ``at`` is where the log's complete lines end, so a torn tail is dropped.
    The file is created when absent (``at`` is then 0). A file shorter than
    ``at`` was rewritten by another writer: DocumentInvalid, and nothing is written.
    """
    with open(path, "ab") as file:
        size = os.fstat(file.fileno()).st_size
        if size < at:
            raise DocumentInvalid(f"{path}: changed by another writer ({size} bytes, not {at})")
        if size > at:
            file.truncate(at)
        file.write(line + b"\n")
    return at + len(line) + 1
