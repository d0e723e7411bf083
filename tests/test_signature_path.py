"""The per-document work every signed document pays: canonical JSON, base58 and
timestamps, checked against the plain implementations they replaced, and the
amount of that work one offline verification does."""

import json
import math
from datetime import datetime, timezone
from enum import IntEnum

import _strptime
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from datacred import proofs
from datacred.base58 import ALPHABET, b58decode, b58encode
from datacred.canonical import MAX_SAFE_INTEGER, canonicalize
from datacred.cli import main
from datacred.credential import (
    DATASET_PROVENANCE_V1,
    CredentialStatus,
    VerifiableCredential,
    check_receipt,
    sign_registry,
)
from datacred.did import Did, did_key_public_key, generate_did_key, one_key_document
from datacred.errors import (
    CanonicalizationError,
    IntegerOutOfRange,
    MalformedDid,
    NonFiniteNumber,
    NonIntegerNumber,
)
from datacred.keys import generate_keypair
from datacred.presentation import VerifiablePresentation
from datacred.proofs import ASSERTION, AUTHENTICATION, attach_proof, parse_timestamp
from datacred.resolver import KeyBackend, Resolver

# --- the plain implementations, kept as oracles ---


def oracle_validate(value):
    """The validating walk every canonicalize call ran: copies only along a path that
    holds an integral float; a refusal's args are its reason, then its path segments."""
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
        return oracle_validate(int(value))
    if isinstance(value, (list, tuple, dict)):
        is_object = isinstance(value, dict)
        out = value
        for key, item in value.items() if is_object else enumerate(value):
            if is_object and not isinstance(key, str):
                raise CanonicalizationError(f"object key {key!r} is not a string")
            if type(item) is str:
                continue
            try:
                checked = oracle_validate(item)
            except CanonicalizationError as exc:
                exc.args += (f".{key}" if is_object else f"[{key}]",)
                raise
            if checked is not item:
                if out is value:
                    out = dict(value) if is_object else list(value)
                out[key] = checked
        return out
    raise CanonicalizationError(f"unsupported type {type(value).__name__}")


def oracle_canonicalize(value) -> bytes:
    try:
        cleaned = oracle_validate(value)
    except CanonicalizationError as exc:
        reason, *segments = exc.args
        raise type(exc)(f"${''.join(reversed(segments))}: {reason}") from None
    return json.dumps(cleaned, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False).encode("utf-8")


_INDEX = {c: i for i, c in enumerate(ALPHABET)}


def oracle_b58encode(data: bytes) -> str:
    num = int.from_bytes(data, "big")
    encoded = ""
    while num:
        num, rem = divmod(num, 58)
        encoded = ALPHABET[rem] + encoded
    pad = 0
    for byte in data:
        if byte:
            break
        pad += 1
    return ALPHABET[0] * pad + encoded


def oracle_b58decode(text: str) -> bytes:
    num = 0
    for char in text:
        if char not in _INDEX:
            raise ValueError(f"invalid base58 character {char!r}")
        num = num * 58 + _INDEX[char]
    body = num.to_bytes((num.bit_length() + 7) // 8, "big") if num else b""
    pad = 0
    for char in text:
        if char != ALPHABET[0]:
            break
        pad += 1
    return b"\x00" * pad + body


_TIMESTAMP_DIGITS = (0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18)


def oracle_parse_timestamp(text: str) -> datetime:
    """RFC 3339 section 5.6 date-time in UTC at second precision, read position by
    position: ASCII digits, T and Z in either case; a date that does not exist is refused."""
    if (len(text) != 20 or any(text[at] not in "0123456789" for at in _TIMESTAMP_DIGITS)
            or text[4] + text[7] + text[13] + text[16] != "--::"
            or text[10] not in "Tt" or text[19] not in "Zz"):
        raise ValueError("not an RFC 3339 UTC timestamp")
    return datetime(int(text[0:4]), int(text[5:7]), int(text[8:10]), int(text[11:13]),
                    int(text[14:16]), int(text[17:19]), tzinfo=timezone.utc)


def timestamp_outcome(fn, text: str):
    """The moment fn reads from text, or ValueError; a refusal by parse_timestamp must
    name the text."""
    try:
        return fn(text)
    except ValueError as exc:
        if fn is parse_timestamp:
            assert str(exc) == f"{text!r} is not an RFC 3339 UTC timestamp"
        return ValueError


def outcome(fn, value, errors=(CanonicalizationError,)):
    try:
        return fn(value)
    except errors as exc:
        return type(exc), str(exc)


# --- canonical JSON ---


class Tag(str):
    pass


class Level(IntEnum):
    LOW = 1


class Ordered(dict):
    pass


texts = st.text(max_size=5)
documents = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**54), max_value=2**54)
    | st.integers(min_value=-(2**53), max_value=2**53).map(float)
    | st.floats()
    | texts
    | texts.map(Tag)
    | st.just(Level.LOW)
    | st.binary(max_size=2),
    lambda children: st.lists(children, max_size=4)
    | st.lists(texts, min_size=1, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(texts, children, max_size=4)
    | st.dictionaries(texts.map(Tag), children, max_size=2)
    | st.dictionaries(texts, children, max_size=2).map(Ordered)
    | st.dictionaries(st.text(max_size=2) | st.integers(0, 3) | st.none(), children, max_size=3),
    max_leaves=16,
)


@given(documents)
@settings(max_examples=400, deadline=None)
def test_canonical_bytes_and_refusals_match_the_validating_walk(value):
    before = repr(value)
    assert outcome(canonicalize, value) == outcome(oracle_canonicalize, value)
    assert repr(value) == before  # the value given is never changed


@pytest.mark.parametrize("value, error, message", [
    ({"a": [1, {"b": 1.5}]}, NonIntegerNumber, "$.a[1].b: non-integer number 1.5"),
    (["x", "y", 2**53 + 1], IntegerOutOfRange, "$[2]: integer magnitude exceeds 2**53"),
    ({"k": ["x", ("t", 1.5)]}, NonIntegerNumber, "$.k[1][1]: non-integer number 1.5"),
    ({"k": {None: 1}}, CanonicalizationError, "$.k: object key None is not a string"),
    ([b"raw"], CanonicalizationError, "$[0]: unsupported type bytes"),
], ids=["float", "big-int-after-strings", "float-in-tuple", "none-key", "bytes"])
def test_a_document_that_is_not_plain_is_refused_by_its_path(value, error, message):
    with pytest.raises(error) as refused:
        canonicalize(value)
    assert type(refused.value) is error and str(refused.value) == message


def test_integral_float_and_subclasses_serialize_as_before():
    value = {"n": 3.0, Tag("t"): [Tag("x"), Level.LOW], "o": Ordered(b=1, a=2), "u": ("v",)}
    assert canonicalize(value) == oracle_canonicalize(value)
    assert canonicalize(value) == b'{"n":3,"o":{"a":2,"b":1},"t":["x",1],"u":["v"]}'


def test_a_cycle_raises_recursion_error():
    loop = {}
    loop["self"] = loop
    strings = ["a"]
    strings.append(strings)
    for value in (loop, strings, [1, strings]):
        with pytest.raises(RecursionError):
            canonicalize(value)


# --- base58 ---


@given(st.integers(0, 3), st.binary(max_size=70))
@settings(max_examples=300, deadline=None)
def test_b58encode_matches_the_digit_loop(zeros, data):
    data = b"\0" * zeros + data
    assert b58encode(data) == oracle_b58encode(data)
    assert b58decode(b58encode(data)) == data


base58_texts = st.text(alphabet=ALPHABET, max_size=90)
near_base58_texts = st.text(alphabet=ALPHABET + "0OIl +/\né\x00", max_size=30)


@given(st.integers(0, 3), base58_texts | near_base58_texts)
@settings(max_examples=300, deadline=None)
def test_b58decode_matches_the_digit_loop(ones, text):
    text = "1" * ones + text
    assert outcome(b58decode, text, ValueError) == outcome(oracle_b58decode, text, ValueError)


@pytest.mark.parametrize("value", [5, b"23", ["2", "3"], None])
def test_b58decode_refuses_what_is_not_a_string(value):
    with pytest.raises(ValueError, match="base58 text must be a string"):
        b58decode(value)


# --- did:key ---

keys = st.binary(min_size=32, max_size=32)


@st.composite
def did_key_ids(draw):
    """did:key ids near the valid ones: valid, with a digit changed, cut or extended."""
    msid = generate_did_key(draw(keys))[0].method_specific_id
    edit = draw(st.sampled_from(["none", "digit", "cut", "extend", "ones"]))
    at = draw(st.integers(1, len(msid) - 1))
    digit = draw(st.sampled_from(ALPHABET))
    return {
        "none": msid,
        "digit": msid[:at] + digit + msid[at + 1:],
        "cut": msid[:at],
        "extend": msid + digit,
        "ones": "z1" + msid[1:],
    }[edit]


@given(did_key_ids())
@settings(max_examples=300, deadline=None)
def test_every_accepted_did_key_reencodes_to_itself(msid):
    did = Did("key", msid)
    try:
        key = did_key_public_key(did)
    except MalformedDid:
        return
    assert generate_did_key(key)[0] == did
    assert one_key_document(did, key).to_json() == generate_did_key(key)[1].to_json()
    assert Resolver([KeyBackend()]).resolve(did.text).id == did.text


# --- timestamps ---


@st.composite
def near_timestamps(draw):
    """The form format_timestamp writes, and strings a little off it."""
    def field(low, high, width):
        value = draw(st.integers(low, high))
        return draw(st.sampled_from([f"{value:0{width}d}", str(value)]))

    date = f"{field(0, 10000, 4)}-{field(0, 13, 2)}-{field(0, 32, 2)}"
    time = f"{field(0, 25, 2)}:{field(0, 61, 2)}:{field(0, 61, 2)}"
    separator = draw(st.sampled_from(["T", "T", "t", " "]))
    zone = draw(st.sampled_from(["Z", "Z", "z", "", "+00:00"]))
    tail = draw(st.sampled_from(["", "", "\n", " ", ".5"]))
    text = date + separator + time + zone + tail
    if draw(st.booleans()):  # a non-ASCII digit, which strptime reads as a digit but is none
        at = draw(st.integers(0, len(text) - 1))
        if text[at].isdigit():
            text = text[:at] + chr(0x0660 + int(text[at])) + text[at + 1:]
    return text


@given(near_timestamps())
@settings(max_examples=500, deadline=None)
def test_parse_timestamp_matches_strptime(text):
    """parse_timestamp reads what the reference grammar reads, the moment strptime reads
    from it too, and refuses the rest, some of which strptime reads."""
    expected = timestamp_outcome(oracle_parse_timestamp, text)
    assert timestamp_outcome(parse_timestamp, text) == expected
    if expected is not ValueError:
        assert expected == datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(
            tzinfo=timezone.utc)


@pytest.mark.parametrize("text", [
    "2024-02-30T00:00:00Z", "0000-01-01T00:00:00Z", "2024-01-01T24:00:00Z",
    "2024-01-01T00:00:60Z", "2024-13-01T00:00:00Z", "2024-1-1T1:1:1Z", "2024-01-01t00:00:00z",
])
def test_a_near_miss_timestamp_keeps_strptime_answer(text):
    """strptime's answer where the grammar agrees with it; "2024-1-1T1:1:1Z", which
    strptime reads, is refused."""
    assert timestamp_outcome(parse_timestamp, text) == \
        timestamp_outcome(oracle_parse_timestamp, text)


@pytest.mark.parametrize("text", ["2026-5-1T1:2:3Z", "\u0662\u0660\u0662\u0666-05-01T00:00:00Z"],
                         ids=["one-digit-fields", "arabic-indic-digits"])
def test_a_timestamp_strptime_reads_but_rfc_3339_does_not_is_refused(text):
    with pytest.raises(ValueError, match="not an RFC 3339 UTC timestamp"):
        parse_timestamp(text)
    credential = VerifiableCredential(
        id="urn:uuid:0", issuer="did:web:issuer.example", issuance_date=text,
        expiration_date=None, subject_id="did:web:subject.example",
        claims={"Hash of Data": "ab" * 32, "Data Ethically Sourced": "YES"},
        schema=DATASET_PROVENANCE_V1,
    )
    temporal = check_receipt(credential, Resolver([KeyBackend()]))["temporal"]
    assert (temporal.status.value, temporal.reason) == ("Invalid", "BadTimestamps")


# --- the work of one offline verification ---

ISSUED = "2024-01-01T00:00:00Z"


def write_bundle(path, challenge: str) -> None:
    """An offline bundle: a did:web issuer's credential with a status entry, its
    DID document and registry, and the subject's presentation of it."""
    issuer_key = generate_keypair(b"\1" * 32)
    issuer = "did:web:issuer.example"
    holder_key = generate_keypair(b"\2" * 32)
    holder = generate_did_key(holder_key.public_key)[0].text
    credential = VerifiableCredential(
        id="urn:uuid:0", issuer=issuer, issuance_date=ISSUED,
        expiration_date="2999-01-01T00:00:00Z", subject_id=holder,
        claims={"Hash of Data": "ab" * 32, "Data Ethically Sourced": "YES"},
        schema=DATASET_PROVENANCE_V1,
        status=CredentialStatus(registry_url="https://issuer.example/registry", status_id="s1"),
    )
    signed = attach_proof(credential.to_json(), issuer_key, issuer, ASSERTION, created=ISSUED)
    presentation = attach_proof(
        VerifiablePresentation(
            holder=holder, credentials=[VerifiableCredential.from_json(signed)]
        ).to_json(),
        holder_key, holder, AUTHENTICATION, challenge=challenge, created=ISSUED,
    )
    document = one_key_document(Did("web", "issuer.example"), issuer_key.public_key)
    path.mkdir()
    for name, obj in {
        "credential.json": signed,
        "presentation.json": presentation,
        "dids.json": {issuer: document.to_json()},
        "registry.json": sign_registry(issuer, ["s0"], issuer_key).to_json(),
    }.items():
        (path / name).write_text(json.dumps(obj))


def test_offline_verify_and_verify_presentation_do_a_fixed_amount_of_work(
    tmp_path, monkeypatch, verifies
):
    write_bundle(tmp_path / "bundle", "c" * 32)
    canonicalized, parsed = [], []
    canonical = proofs.canonicalize
    monkeypatch.setattr(proofs, "canonicalize",
                        lambda value: (canonicalized.append(value), canonical(value))[1])
    strptime = _strptime._strptime_datetime
    monkeypatch.setattr(_strptime, "_strptime_datetime",
                        lambda *args: (parsed.append(args), strptime(*args))[1])
    bundle = str(tmp_path / "bundle")
    runner = CliRunner()

    verified = runner.invoke(main, ["verify", f"{bundle}/credential.json",
                                    "--offline-bundle", bundle, "--json"])
    presented = runner.invoke(main, ["verify-presentation", f"{bundle}/presentation.json",
                                     "--challenge", "c" * 32, "--offline-bundle", bundle,
                                     "--json"])

    assert verified.exit_code == 0 and presented.exit_code == 0, verified.output + presented.output
    assert json.loads(verified.stdout)["overall"] == "Valid"
    assert json.loads(presented.stdout)["overall"] == "Valid"
    # verify: credential and registry; verify-presentation: presentation and its
    # credential, in a context of its own, which reuses the registry verify checked.
    assert len(canonicalized) == 4
    assert len(verifies) == 4
    assert parsed == []
