"""The JSON file store: round trip, typed read errors and the atomic replace."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datacred.errors import DocumentInvalid, FetchFailed
from datacred.jsonfile import read_json, write_json

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
@settings(max_examples=200)
def test_write_then_read_returns_the_object(scratch, obj):
    path = scratch / "object.json"
    write_json(path, obj)
    assert read_json(path) == obj


@given(non_objects)
@settings(max_examples=200)
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


def test_unreadable_file_is_fetch_failed(tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        with pytest.raises(FetchFailed, match=re.escape(str(path))):
            read_json(path)
