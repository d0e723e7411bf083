"""Deterministic byte-exact JSON serialization.

Signatures in this toolkit are computed over canonical bytes, so two
independent serializations of the same document must agree bit for bit:

- object members sorted by code-point comparison of their keys
- no insignificant whitespace
- UTF-8 output, minimal string escaping (only ``"``, ``\\`` and controls)
- integers rendered without exponent or fraction
- non-integer and non-finite numbers rejected outright
- a string holding a lone surrogate, which UTF-8 cannot encode, rejected too

Signed documents in this system only ever contain strings, integers,
booleans, nulls, arrays and objects, which is what makes the number
restriction safe to impose.

A plain document, made only of exact dicts with str keys, lists, str, bool,
None and ints within 2**53, goes to ``json.dumps`` as it is after one recursive
scan. Any other value takes the validating walk, which demotes integral
floats and names a refusal by its JSON path.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .errors import (
    CanonicalizationError,
    IntegerOutOfRange,
    NonFiniteNumber,
    NonIntegerNumber,
)

# Largest integer exactly representable by every IEEE-754 double parser.
MAX_SAFE_INTEGER = 2**53

_join = "".join  # raises TypeError at the first item that is not a str


def _plain(value: Any) -> bool:
    """Whether value is a plain document all the way down, so json.dumps can take it as it
    is. Recursive, so a cycle raises RecursionError."""
    kind = type(value)
    if kind is dict:
        try:
            _join(value)  # every key a str
        except TypeError:
            return False
        value = value.values()
    elif kind is list:
        if value and type(value[0]) is str:  # most likely all strings: one C-level check
            try:
                _join(value)
                return True
            except TypeError:
                pass
    else:
        return value is None or kind is str or kind is bool or (
            kind is int and -MAX_SAFE_INTEGER <= value <= MAX_SAFE_INTEGER)
    for item in value:
        if type(item) is not str and not _plain(item):
            return False
    return True


def _validate(value: Any) -> Any:
    """Check value is canonicalizable; return it, copied only along the paths that hold an
    integral float, which the copy demotes to an int. A refusal's args are its reason, then
    its path segments innermost first, added as it unwinds."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        if abs(value) > MAX_SAFE_INTEGER:
            raise IntegerOutOfRange("integer magnitude exceeds 2**53")
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise NonFiniteNumber("non-finite number")
        if not value.is_integer():
            raise NonIntegerNumber(f"non-integer number {value!r}")
        return _validate(int(value))
    if isinstance(value, (list, tuple, dict)):
        is_object = isinstance(value, dict)
        out = value
        for key, item in value.items() if is_object else enumerate(value):
            if is_object and not isinstance(key, str):
                raise CanonicalizationError(f"object key {key!r} is not a string")
            if type(item) is str:
                continue
            try:
                checked = _validate(item)
            except CanonicalizationError as exc:
                exc.args += (f".{key}" if is_object else f"[{key}]",)
                raise
            if checked is not item:
                if out is value:
                    out = dict(value) if is_object else list(value)
                out[key] = checked
        return out
    raise CanonicalizationError(f"unsupported type {type(value).__name__}")


def canonicalize(value: Any) -> bytes:
    """Serialize a JSON value to its unique canonical byte sequence."""
    if not _plain(value):
        try:
            value = _validate(value)
        except CanonicalizationError as exc:  # message "<JSON path from $>: <reason>"
            reason, *segments = exc.args
            raise type(exc)(f"${''.join(reversed(segments))}: {reason}") from None
    # sort_keys on Python strings compares code points, matching the canonical
    # ordering rule; ensure_ascii=False keeps escaping minimal. Either check
    # above recursed through the whole value, so it holds no cycle.
    text = json.dumps(
        value,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        allow_nan=False,
        check_circular=False,
    )
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:  # the text is left out: a refusal may itself be canonicalized
        raise CanonicalizationError("$: a string holds a lone surrogate") from None
