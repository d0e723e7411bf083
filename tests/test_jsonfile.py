"""The JSON file store: round trip, typed read errors and the atomic replace."""

import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datacred.errors import DocumentInvalid, FetchFailed
from datacred.jsonfile import append_line, parse_json, read_json, write_json

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)
json_objects = st.dictionaries(st.text(), json_values, max_size=6)
non_objects = scalars | st.lists(json_values, max_size=4)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonfile")


@given(json_objects)
@settings(max_examples=200, deadline=None)
def test_write_then_read_returns_the_object(scratch, obj):
    path = scratch / "object.json"
    write_json(path, obj)
    assert read_json(path) == obj


@given(non_objects)
@settings(max_examples=200, deadline=None)
def test_any_non_object_is_document_invalid(scratch, value):
    path = scratch / "value.json"
    path.write_text(json.dumps(value), encoding="utf-8")
    with pytest.raises(DocumentInvalid, match="value.json"):
        read_json(path)


def test_format_and_no_leftover_temp_file(tmp_path):
    path = tmp_path / "nested" / "dir" / "doc.json"
    write_json(path, {"b": [1], "a": "x"})
    assert path.read_text(encoding="utf-8") == '{\n  "b": [\n    1\n  ],\n  "a": "x"\n}\n'
    assert [p.name for p in path.parent.iterdir()] == ["doc.json"]


def test_bad_json_names_file_and_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_bytes(b'{"a": ')
    with pytest.raises(DocumentInvalid, match=r"broken\.json: invalid JSON: .*line 1 column 7"):
        read_json(path)
    path.write_bytes(b"\xff\xfe\xfa")
    with pytest.raises(DocumentInvalid, match=r"broken\.json"):
        read_json(path)


@pytest.mark.parametrize("text, reason", [
    (b'{"a": 1, "a": 1}', "invalid JSON: member 'a' is repeated"),
    (b'{"a": [{"b": 1, "c": 2, "b": 3}]}', "invalid JSON: member 'b' is repeated"),
    (b'{"a": NaN}', "invalid JSON: NaN is not a JSON number"),
    (b'{"a": [Infinity]}', "invalid JSON: Infinity is not a JSON number"),
    (b'{"a": -Infinity}', "invalid JSON: -Infinity is not a JSON number"),
    (b'{"a": "\\ud800"}', "a string holds a lone surrogate"),
    (b'{"\\udfff": 1}', "a string holds a lone surrogate"),
    (b'{"a": "\xed\xa0\x80"}', "a string holds a lone surrogate"),
], ids=["repeated", "repeated-nested", "nan", "infinity", "minus-infinity",
        "escaped-surrogate", "escaped-surrogate-name", "encoded-surrogate"])
def test_text_that_is_not_i_json_is_document_invalid(tmp_path, text, reason):
    """RFC 7493 sections 2.1 and 2.3 and RFC 8259 section 6; json.loads accepts each one."""
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    json.loads(text)
    with pytest.raises(DocumentInvalid, match=rf"^{re.escape(str(path))}: {re.escape(reason)}$"):
        read_json(path)


@pytest.mark.parametrize("text", [
    b"{broken", b"[" * 100_000, b'{"a": "\xff"}', b'{"a": 1, "a": 2}', b'{"a": NaN}',
    b'{"a": "\\ud800"}', b"[]",
], ids=["syntax", "too-deep", "not-utf-8", "repeated", "nan", "surrogate", "list"])
def test_parse_json_refuses_bytes_that_are_not_json_as_a_broken_rule(text):
    """Bytes that are not JSON and JSON that breaks a rule are one refusal, which an agent's
    inbox answers as a malformed envelope."""
    with pytest.raises(DocumentInvalid, match="^doc: "):
        parse_json(text, "doc")


def test_a_name_repeated_last_in_a_large_object_is_found_in_linear_time():
    """A registry fetched from an issuer-chosen URL may hold 16 MiB: the search for the
    repeated name must not rescan the names before each one."""
    members = b", ".join(b'"m%d": 0' % at for at in range(200_000))
    started = time.perf_counter()
    with pytest.raises(DocumentInvalid, match=r"^doc: invalid JSON: member 'm0' is repeated$"):
        parse_json(b"{" + members + b', "m0": 1}', "doc")
    assert time.perf_counter() - started < 5


def test_an_escaped_surrogate_pair_and_other_text_are_read():
    assert parse_json(b'{"a": "\\ud83d\\ude00", "\xc3\xa9": "\\u00e9"}', "doc") == \
        {"a": "\U0001f600", "\u00e9": "\u00e9"}


def test_unreadable_file_is_fetch_failed(tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        with pytest.raises(FetchFailed, match=re.escape(str(path))):
            read_json(path)


def test_append_to_a_log_another_writer_shortened_writes_nothing(tmp_path):
    path = tmp_path / "log.jsonl"
    end = append_line(path, b'{"b": 2}', append_line(path, b'{"a": 1}', 0))
    path.write_bytes(b'{"a": 1}\n')
    with pytest.raises(DocumentInvalid, match=re.escape(str(path))):
        append_line(path, b'{"c": 3}', end)
    assert path.read_bytes() == b'{"a": 1}\n'

