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

Every document is declared once, as a table of ``Field``s that ``json_document``
compiles into the class's ``from_json`` and ``to_json``; ``to_json`` writes the members
in table order and leaves out only those whose field says when; a closed dataclass with a
``_json`` field returns, read-only, the JSON it was read or signed as (``kept``), if any.

Untrusted JSON has one shape rule, which ``from_json`` applies: the document is a JSON
object, a member that is present has its type, and a type matches exactly, so ``true``
is no integer, a string no list and ``null`` no absent member. A closed document (every
signed one, and an admin body) also refuses a member it does not read, so the JSON read
is exactly what its fields write back and a signature on it covers every field. An
open document (a DID document and its keys, a fingerprint, a keypair, a connection
record, the agent config) ignores such a member. A refusal raises the document's error,
called with ``missing field 'name'``, ``fields must be <kinds>: 'name' is <kind>``,
``must be an object, not <kind>`` or ``unknown member 'name'``. A check across
fields (a credential's subject id, a DID document's controllers) lives in ``build``,
which makes the object from the fields read.
"""

from __future__ import annotations

import json
import os
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple

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


def _strings(value: list, name: str, error) -> list:
    if not set(map(type, value)) <= _STRING:
        item = next(item for item in value if type(item) is not str)
        raise error(f"fields must be lists of strings: {name!r} holds {_kind(item)}")
    return value


def string_list(obj: dict, name: str, error, default=REQUIRED) -> list[str]:
    """member(obj, name, LIST, error, default), whose items must all be strings."""
    value = member(obj, name, LIST, error, default)
    return value if value is default else _strings(value, name, error)


STRINGS = (list,)  # the kinds of a list of strings: a LIST told apart by identity
NEVER = object()  # the omit of a field that to_json always writes


class Field(NamedTuple):
    """A member of a JSON document and the attribute (and constructor keyword) holding it;
    parse turns the member into the attribute, emit back. A STRINGS list is copied."""

    name: str
    attribute: str
    kinds: tuple = TEXT
    optional: bool = False  # when absent, the constructor's default
    omit: object = NEVER  # to_json leaves the member out when the attribute equals this
    parse: Callable | None = None
    emit: Callable | None = None


def _parse(field: Field, error) -> Callable | None:
    if field.kinds is not STRINGS:
        return field.parse
    name, then = field.name, field.parse or list
    return lambda value: then(_strings(value, name, error))


def json_reader(error, *fields: Field, build: Callable = dict, closed: bool = True,
                first: str | None = None) -> Callable:
    """The parse of a document of these fields, read in order (first's field before the
    others), into build(**attributes); error(message) refuses it. A closed document
    refuses a member it does not read."""
    names = frozenset(field.name for field in fields)
    readers = tuple((f.name, f.attribute, f.kinds, f.optional, _parse(f, error))
                    for f in sorted(fields, key=lambda field: field.name != first))

    def from_json(obj):
        if type(obj) is not dict:
            json_object(obj, error)
        values = {}
        for name, attribute, kinds, optional, parse in readers:
            value = obj.get(name, REQUIRED)
            if type(value) not in kinds:
                if value is REQUIRED and optional:
                    continue
                member(obj, name, kinds, error)  # raises: missing, or mistyped
            values[attribute] = value if parse is None else parse(value)
        if closed and not names.issuperset(obj):
            known_members(obj, names, error)
        return build(**values)

    return from_json


def json_writer(fields: tuple) -> Callable:
    """The to_json of a document of these fields: its members in order, each left out
    when its attribute equals the field's omit."""
    writers = tuple((f.name, f.attribute, f.omit, list if f.kinds is STRINGS else f.emit)
                    for f in fields)

    def to_json(self) -> dict:
        out = {}
        for name, attribute, omit, emit in writers:
            value = getattr(self, attribute)
            if omit is NEVER or value != omit:
                out[name] = value if emit is None else emit(value)
        return out

    return to_json


def kept(document, obj: dict):
    """document, keeping obj, the JSON its fields write, for to_json: not in a replaced copy."""
    object.__setattr__(document, "_json", obj)
    return document


def json_document(error, *fields: Field, build: Callable | None = None, **options):
    """Class decorator: the class's from_json, json_reader's (making the object by build,
    else by the class), its to_json, json_writer's or a ``_json`` field's, and json_fields."""

    def compile(cls):
        read = json_reader(error, *fields, build=build or cls, **options)
        write = json_writer(fields)
        cls.json_fields = fields
        if "_json" in getattr(cls, "__dataclass_fields__", ()):
            cls.from_json = staticmethod(lambda obj: kept(read(obj), obj))
            cls.to_json = lambda self: write(self) if self._json is None else self._json
        else:
            cls.from_json, cls.to_json = staticmethod(read), write
        return cls

    return compile


def each(cls: type, into: Callable = list) -> dict:
    """The parse and emit of a list of cls's documents, parsed into an ``into``."""
    return {"parse": lambda items: into(map(cls.from_json, items)),
            "emit": lambda documents: [document.to_json() for document in documents]}


def type_list(kind: str, error) -> Callable:
    """The parse of a STRINGS ``type`` field, which must name kind."""

    def parse(types: list) -> list:
        if kind not in types:
            raise error(f"type {types!r} does not include {kind}")
        return list(types)

    return parse


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
