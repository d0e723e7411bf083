"""Canonical JSON serialization rules and properties."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datacred.canonical import MAX_SAFE_INTEGER, canonicalize
from datacred.errors import (
    CanonicalizationError,
    IntegerOutOfRange,
    NonFiniteNumber,
    NonIntegerNumber,
)


def test_object_keys_sorted():
    assert canonicalize({"b": 1, "a": 2}) == b'{"a":2,"b":1}'


def test_empty_object_is_two_bytes():
    assert canonicalize({}) == b"{}"


def test_identifier_document_roundtrips_verbatim():
    assert (
        canonicalize({"id": "did:web:uniofscience.com"})
        == b'{"id":"did:web:uniofscience.com"}'
    )


def test_no_insignificant_whitespace():
    data = {"a": [1, 2, {"b": None}], "c": True}
    assert b" " not in canonicalize(data)
    assert b"\n" not in canonicalize(data)


def test_unicode_not_escaped():
    assert canonicalize({"name": "Université"}) == '{"name":"Université"}'.encode("utf-8")


def test_control_characters_escaped():
    assert canonicalize({"a": "x\ny"}) == b'{"a":"x\\ny"}'
    assert canonicalize({"a": '"\\'}) == b'{"a":"\\"\\\\"}'


def test_integers_render_plain():
    assert canonicalize([0, -5, 2**53]) == b"[0,-5,9007199254740992]"


def test_integral_floats_demote_to_integers():
    assert canonicalize({"n": 5.0}) == b'{"n":5}'


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_rejected(bad):
    with pytest.raises(NonFiniteNumber):
        canonicalize({"x": bad})


def test_fractional_rejected():
    with pytest.raises(NonIntegerNumber):
        canonicalize({"x": 1.5})


def test_huge_integer_rejected():
    with pytest.raises(IntegerOutOfRange):
        canonicalize({"x": 2**53 + 1})
    with pytest.raises(IntegerOutOfRange):
        canonicalize({"x": float(2**60)})


def test_non_string_keys_rejected():
    with pytest.raises(CanonicalizationError):
        canonicalize({1: "a"})


def test_unsupported_types_rejected():
    with pytest.raises(CanonicalizationError):
        canonicalize({"x": b"bytes"})


@pytest.mark.parametrize("value, error, path", [
    ({"a": [1, {"b": 1.5}]}, NonIntegerNumber, r"\$\.a\[1\]\.b: non-integer number 1\.5"),
    ([0, {"k": [{1: "a"}]}], CanonicalizationError, r"\$\[1\]\.k\[0\]: object key 1 is not"),
    (2**53 + 1, IntegerOutOfRange, r"\$: integer magnitude exceeds 2\*\*53"),
    ({"x": [None, float("nan")]}, NonFiniteNumber, r"\$\.x\[1\]: non-finite number"),
    ((("t", b"raw"),), CanonicalizationError, r"\$\[0\]\[1\]: unsupported type bytes"),
    ({"a": ["\ud800"]}, CanonicalizationError, r"\$: a string holds a lone surrogate$"),
    ({"\udfff": "x"}, CanonicalizationError, r"\$: a string holds a lone surrogate$"),
], ids=["float-in-list-in-object", "int-key-in-list", "top-level-int", "nan", "bytes-in-tuple",
        "lone-surrogate-value", "lone-surrogate-name"])
def test_refusal_names_its_json_path(value, error, path):
    with pytest.raises(error, match=f"^{path}") as refused:
        canonicalize(value)
    assert type(refused.value) is error


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(json_values)
@settings(max_examples=200, deadline=None)
def test_idempotent(value):
    first = canonicalize(value)
    assert canonicalize(json.loads(first)) == first


@given(json_values)
@settings(max_examples=200, deadline=None)
def test_order_independent(value):
    def shuffle(obj):
        if isinstance(obj, dict):
            return {k: shuffle(v) for k, v in reversed(list(obj.items()))}
        if isinstance(obj, list):
            return [shuffle(v) for v in obj]
        return obj

    assert canonicalize(shuffle(value)) == canonicalize(value)


def same_json_value(a, b) -> bool:
    """JSON-value equality: booleans are not numbers, unlike Python's ==."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_json_value(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_json_value(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


@given(json_values, json_values)
@settings(max_examples=200, deadline=None)
def test_injective_on_distinct_values(a, b):
    if same_json_value(a, b):
        assert canonicalize(a) == canonicalize(b)
    else:
        assert canonicalize(a) != canonicalize(b)


def test_output_always_parseable():
    value = {"nested": [{"deep": {"key": "value", "n": 7}}, None, True]}
    assert json.loads(canonicalize(value)) == value


def reference_validate(value):
    """The validating walk canonicalize used before it stopped copying: it rebuilds every
    list and object. Kept as the reference the in-place walk must agree with."""
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
        return reference_validate(int(value))
    if isinstance(value, (list, tuple)):
        out = []
        try:
            for item in value:
                out.append(item if type(item) is str else reference_validate(item))
        except CanonicalizationError as exc:
            exc.args += (f"[{len(out)}]",)
            raise
        return out
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise CanonicalizationError(f"object key {key!r} is not a string")
            try:
                out[key] = item if type(item) is str else reference_validate(item)
            except CanonicalizationError as exc:
                exc.args += (f".{key}",)
                raise
        return out
    raise CanonicalizationError(f"unsupported type {type(value).__name__}")


def reference_canonicalize(value) -> bytes:
    try:
        cleaned = reference_validate(value)
    except CanonicalizationError as exc:
        reason, *segments = exc.args
        raise type(exc)(f"${''.join(reversed(segments))}: {reason}") from None
    return json.dumps(cleaned, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False).encode("utf-8")


def outcome(serialize, value):
    try:
        return serialize(value)
    except CanonicalizationError as exc:
        return type(exc), str(exc)


loose_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**54), max_value=2**54)
    | st.integers(min_value=-(2**53), max_value=2**53).map(float)
    | st.floats()
    | st.text(max_size=6)
    | st.binary(max_size=2),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=4)
    | st.dictionaries(st.text(max_size=2) | st.integers(0, 3), children, max_size=3),
    max_leaves=16,
)


@given(loose_values)
@settings(max_examples=300, deadline=None)
def test_in_place_walk_agrees_with_the_copying_reference(value):
    before = repr(value)
    assert outcome(canonicalize, value) == outcome(reference_canonicalize, value)
    assert repr(value) == before  # the value given is never changed


def test_a_value_without_integral_floats_is_serialized_as_given(monkeypatch):
    value = {"a": [1, {"b": "c"}, None], "d": {"e": True}}
    dumped = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda obj, **kw: (dumped.append(obj), dumps(obj, **kw))[1])
    assert canonicalize(value) == b'{"a":[1,{"b":"c"},null],"d":{"e":true}}'
    assert dumped[-1] is value
    demoted = {"a": [1, {"b": 2.0}], "d": {"e": True}}
    assert canonicalize(demoted) == b'{"a":[1,{"b":2}],"d":{"e":true}}'
    assert dumped[-1]["d"] is demoted["d"]  # only the path to the float is copied
    assert demoted["a"][1]["b"] == 2.0 and type(demoted["a"][1]["b"]) is float
