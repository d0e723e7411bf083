"""Credential issuance, verification checks, revocation, hash binding."""

import json
import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from datacred.credential import (
    DATASET_PROVENANCE_V1,
    CredentialSchema,
    CredentialStatus,
    RevocationRegistry,
    SchemaAttribute,
    StaticRegistrySource,
    VerifiableCredential,
    check_binding_claim,
    check_receipt,
    issue_credential,
    new_registry,
    revoke,
    verify_credential,
)
from datacred.did import generate_did_key
from datacred.errors import BadDates, DatacredError, NoHashClaim, SchemaMismatch, WrongIssuerKey
from datacred.fingerprint import fingerprint_bytes
from datacred.keys import generate_keypair
from datacred.proofs import ASSERTION, attach_proof, format_timestamp, parse_timestamp
from datacred.reports import CheckStatus
from datacred.resolver import KeyBackend, Resolver
from docgen import leaf_paths, mutate_leaf, random_credential

REGISTRY_URL = "https://publisher.example/registry"


def listing_claims(data: bytes = b"the dataset") -> dict:
    return {
        "Hash of Data": fingerprint_bytes(data).digest,
        "Data Ethically Sourced": "YES",
    }


@pytest.fixture
def issued(issuer, subject):
    issuer_key, issuer_did, _ = issuer
    _, subject_did, _ = subject
    vc = issue_credential(
        issuer_key, issuer_did, subject_did, DATASET_PROVENANCE_V1, listing_claims()
    )
    return vc


def test_issue_embeds_claims_and_schema(issued, issuer, subject):
    assert issued.claims["Data Ethically Sourced"] == "YES"
    assert issued.issuer == issuer[1].text
    assert issued.subject_id == subject[1].text
    assert issued.id.startswith("urn:uuid:")
    assert issued.schema.name == "dataset-provenance-v1"
    assert issued.proof.proof_purpose == "assertionMethod"


def test_issue_then_verify_valid(issued, key_resolver):
    report = verify_credential(issued, key_resolver)
    assert report.valid
    assert report.checks["signature"].reason == "SignatureValid"
    assert report.checks["revocation"].reason == "NoStatus"
    assert report.issuer == issued.issuer


def test_issue_rejects_nonconforming_claims(issuer, subject):
    issuer_key, issuer_did, _ = issuer
    _, subject_did, _ = subject
    claims = listing_claims()
    claims["Data Ethically Sourced"] = "MAYBE"
    with pytest.raises(SchemaMismatch):
        issue_credential(issuer_key, issuer_did, subject_did, DATASET_PROVENANCE_V1, claims)

    with pytest.raises(SchemaMismatch):
        issue_credential(
            issuer_key, issuer_did, subject_did, DATASET_PROVENANCE_V1,
            {**listing_claims(), "Unknown Attribute": "x"},
        )
    with pytest.raises(SchemaMismatch):
        issue_credential(
            issuer_key, issuer_did, subject_did, DATASET_PROVENANCE_V1,
            {"Hash of Data": "zz-not-hex", "Data Ethically Sourced": "YES"},
        )
    with pytest.raises(SchemaMismatch):
        issue_credential(
            issuer_key, issuer_did, subject_did, DATASET_PROVENANCE_V1,
            {"Hash of Data": fingerprint_bytes(b"d").digest},  # missing attribute
        )


@pytest.mark.parametrize("digest", ["ab" * 32 + "\n", "ab" * 64 + "\n"], ids=["256", "512"])
def test_a_digest_with_a_trailing_newline_is_not_a_hex_digest(digest):
    claims = {"Hash of Data": digest, "Data Ethically Sourced": "YES"}
    with pytest.raises(SchemaMismatch, match="not a lowercase 256/512-bit hex digest"):
        DATASET_PROVENANCE_V1.validate_claims(claims)
    DATASET_PROVENANCE_V1.validate_claims({**claims, "Hash of Data": digest.rstrip()})


def test_issue_rejects_bad_dates(issuer, subject):
    issuer_key, issuer_did, _ = issuer
    with pytest.raises(BadDates):
        issue_credential(
            issuer_key, issuer_did, subject[1], DATASET_PROVENANCE_V1, listing_claims(),
            issuance_date="2026-01-02T00:00:00Z", expiration_date="2026-01-01T00:00:00Z",
        )


@pytest.mark.parametrize("issuance", ["yesterday", "", "2026-01-01", 5],
                         ids=["word", "empty", "date-only", "int"])
def test_issue_refuses_an_unreadable_issuance_date(issuer, subject, issuance):
    """It used to sign a credential that every verifier rejects as BadTimestamps."""
    issuer_key, issuer_did, _ = issuer
    with pytest.raises(BadDates):
        issue_credential(
            issuer_key, issuer_did, subject[1], DATASET_PROVENANCE_V1, listing_claims(),
            issuance_date=issuance,
        )


def test_schema_kinds():
    schema = CredentialSchema(
        id="urn:test:s", name="s",
        attributes=(
            SchemaAttribute("a", "string"),
            SchemaAttribute("d", "date"),
        ),
    )
    schema.validate_claims({"a": "anything", "d": "2026-05-01"})
    schema.validate_claims({"a": "", "d": "2026-05-01T12:00:00Z"})
    for not_a_date in ("yesterday", "20260501", "2026-W18-5", "2026W185", "2026-05-01T12:00Z",
                       "2026-5-1T1:2:3Z"):
        with pytest.raises(SchemaMismatch, match="not a date"):
            schema.validate_claims({"a": "x", "d": not_a_date})
    with pytest.raises(SchemaMismatch):
        schema.validate_claims({"a": 5, "d": "2026-05-01"})
    with pytest.raises(SchemaMismatch):
        CredentialSchema(id="urn:test:e", name="e", attributes=())
    with pytest.raises(SchemaMismatch):
        CredentialSchema(
            id="urn:test:k", name="k", attributes=(SchemaAttribute("a", "number"),)
        )


def test_verification_over_reserialized_shuffled_json(issued, key_resolver):
    # Signature covers canonical form, so wire key order cannot matter.
    shuffled = json.loads(json.dumps(issued.to_json()))

    def reorder(obj):
        if isinstance(obj, dict):
            return {k: reorder(obj[k]) for k in reversed(list(obj))}
        if isinstance(obj, list):
            return [reorder(v) for v in obj]
        return obj

    again = VerifiableCredential.from_json(reorder(shuffled))
    assert verify_credential(again, key_resolver).valid


def test_tampering_any_leaf_fails_verification(issuer, subject, key_resolver):
    issuer_key, issuer_did, _ = issuer
    vc = issue_credential(
        issuer_key, issuer_did, subject[1], DATASET_PROVENANCE_V1, listing_claims(),
        expiration_date="2099-01-01T00:00:00Z",
        status=CredentialStatus(registry_url=REGISTRY_URL, status_id="s-1"),
    )
    document = vc.to_json()
    paths = leaf_paths(document)
    assert len(paths) > 20
    for path in paths:
        mutated = mutate_leaf(document, path)
        try:
            candidate = VerifiableCredential.from_json(mutated)
        except Exception:
            continue  # structurally unusable counts as rejected
        report = verify_credential(candidate, key_resolver,
                                   registry_source=StaticRegistrySource())
        assert not report.valid, f"mutation at {path} still verified"


def test_untampered_is_never_rejected(key_resolver):
    rng = random.Random(1234)
    for _ in range(10):
        vc, _, _ = random_credential(rng)
        assert verify_credential(vc, key_resolver).valid


def test_temporal_checks(issuer, subject, key_resolver):
    issuer_key, issuer_did, _ = issuer
    vc = issue_credential(
        issuer_key, issuer_did, subject[1], DATASET_PROVENANCE_V1, listing_claims(),
        issuance_date="2026-01-01T00:00:00Z", expiration_date="2026-06-01T00:00:00Z",
    )
    during = verify_credential(vc, key_resolver, at=parse_timestamp("2026-03-01T00:00:00Z"))
    assert during.valid

    before = verify_credential(vc, key_resolver, at=parse_timestamp("2025-12-31T23:59:59Z"))
    assert before.checks["temporal"].reason == "NotYetValid"

    at_expiry = verify_credential(vc, key_resolver, at=parse_timestamp("2026-06-01T00:00:00Z"))
    assert at_expiry.checks["temporal"].reason == "Expired"

    after = verify_credential(vc, key_resolver, at=parse_timestamp("2027-01-01T00:00:00Z"))
    assert after.checks["temporal"].reason == "Expired"


def test_issuance_boundary_is_valid(issuer, subject, key_resolver):
    issuer_key, issuer_did, _ = issuer
    vc = issue_credential(
        issuer_key, issuer_did, subject[1], DATASET_PROVENANCE_V1, listing_claims(),
        issuance_date="2026-01-01T00:00:00Z",
    )
    report = verify_credential(vc, key_resolver, at=parse_timestamp("2026-01-01T00:00:00Z"))
    assert report.valid


def signed_with_dates(issuer, subject, issuance, expiration=None) -> VerifiableCredential:
    """A credential signed over these raw date values; no expirationDate when None."""
    issuer_key, issuer_did, _ = issuer
    obj = issue_credential(
        issuer_key, issuer_did, subject[1], DATASET_PROVENANCE_V1, listing_claims()
    ).to_json()
    del obj["proof"]
    obj["issuanceDate"] = issuance
    if expiration is not None:
        obj["expirationDate"] = expiration
    signed = attach_proof(obj, issuer_key, issuer_did.text, ASSERTION)
    return VerifiableCredential.from_json(signed)


@pytest.mark.parametrize("issuance", [5, None, ["2026-01-01T00:00:00Z"]],
                         ids=["int", "null", "list"])
def test_non_string_issuance_date_is_bad_timestamps(issuer, subject, key_resolver, issuance):
    """An int issuanceDate used to make verify_credential raise TypeError."""
    report = verify_credential(signed_with_dates(issuer, subject, issuance), key_resolver)
    assert report.checks["signature"].status is CheckStatus.VALID
    assert report.checks["temporal"].reason == "BadTimestamps"
    assert not report.valid


def test_receipt_runs_the_verifier_checks_without_the_window(issuer, subject, key_resolver):
    expired = signed_with_dates(issuer, subject, "2001-01-01T00:00:00Z", "2002-01-01T00:00:00Z")
    assert verify_credential(expired, key_resolver).checks["temporal"].reason == "Expired"
    receipt = check_receipt(expired, key_resolver)
    assert list(receipt) == ["signature", "schema", "temporal"]
    assert all(result.status is CheckStatus.VALID for result in receipt.values())

    inverted = signed_with_dates(issuer, subject, "2026-01-02T00:00:00Z", "2026-01-01T00:00:00Z")
    assert check_receipt(inverted, key_resolver)["temporal"].reason == "BadTimestamps"


_KEY = generate_keypair()
_IDENTITY = (_KEY, generate_did_key(_KEY.public_key)[0], None)
_SUBJECT = (None, generate_did_key(generate_keypair().public_key)[0], None)
_RESOLVER = Resolver(backends=[KeyBackend()])
_DAY = datetime(2026, 1, 1, tzinfo=timezone.utc)
# Few distinct moments, so equal and inverted pairs are drawn often.
TIMESTAMPS = st.integers(0, 3).map(lambda days: format_timestamp(_DAY + timedelta(days=days)))
DATE_VALUES = st.one_of(
    TIMESTAMPS,
    st.integers(-(2**53), 2**53),
    st.none(),
    st.lists(st.one_of(TIMESTAMPS, st.integers(0, 9)), max_size=2),
    st.sampled_from(["", "yesterday", "2026-01-01", "2026-01-01T00:00:00",
                     "2026-01-01T00:00:00+00:00", "2026-13-01T00:00:00Z"]),
    st.text(max_size=20),
)


@settings(max_examples=150, deadline=None)
@given(issuance=DATE_VALUES, expiration=DATE_VALUES)
def test_issue_receipt_and_verify_share_the_date_rule(issuance, expiration):
    vc = signed_with_dates(_IDENTITY, _SUBJECT, issuance, expiration)
    report = verify_credential(vc, _RESOLVER)  # never raises
    receipt = check_receipt(vc, _RESOLVER)
    assert receipt["signature"].status is CheckStatus.VALID
    refused = receipt["temporal"].status is not CheckStatus.VALID
    assert (report.checks["temporal"].reason == "BadTimestamps") == refused
    if issuance is None:  # issue_credential dates a credential now when given None
        return
    try:
        issue_credential(_KEY, _IDENTITY[1], _SUBJECT[1], DATASET_PROVENANCE_V1,
                         listing_claims(), issuance_date=issuance, expiration_date=expiration)
    except BadDates:
        assert refused
    else:
        assert not refused


_LIFETIME = timedelta(days=30)
# One credential issued at _DAY, with and without an expiration _LIFETIME later.
_WINDOW = {
    expiring: issue_credential(
        _KEY, _IDENTITY[1], _SUBJECT[1], DATASET_PROVENANCE_V1, listing_claims(),
        issuance_date=format_timestamp(_DAY),
        expiration_date=format_timestamp(_DAY + _LIFETIME) if expiring else None,
    )
    for expiring in (False, True)
}
_LIFETIME_MS = _LIFETIME // timedelta(milliseconds=1)
# Milliseconds from issuance: anywhere in a wide span, or within a second of either edge.
_OFFSETS = st.one_of(
    st.integers(-(10**11), 10**11),
    st.tuples(st.sampled_from([0, _LIFETIME_MS]), st.integers(-1000, 1000)).map(sum),
)


@settings(max_examples=300, deadline=None)
@given(offset_ms=_OFFSETS, expiring=st.booleans())
@example(offset_ms=0, expiring=True)
@example(offset_ms=-1, expiring=False)
@example(offset_ms=_LIFETIME_MS, expiring=True)
@example(offset_ms=_LIFETIME_MS - 1, expiring=True)
def test_validity_window_is_issuance_inclusive_expiration_exclusive(offset_ms, expiring):
    at = _DAY + timedelta(milliseconds=offset_ms)
    temporal = verify_credential(_WINDOW[expiring], _RESOLVER, at=at).checks["temporal"]
    if at < _DAY:
        assert temporal.reason == "NotYetValid"
    elif expiring and at >= _DAY + _LIFETIME:
        assert temporal.reason == "Expired"
    else:
        assert (temporal.status, temporal.reason) == (CheckStatus.VALID, "TemporallyValid")


def test_revocation_flow(issuer, subject, key_resolver):
    issuer_key, issuer_did, _ = issuer
    registry = new_registry(issuer_did, issuer_key)
    source = StaticRegistrySource({REGISTRY_URL: registry.to_json()})
    vc = issue_credential(
        issuer_key, issuer_did, subject[1], DATASET_PROVENANCE_V1, listing_claims(),
        status=CredentialStatus(registry_url=REGISTRY_URL, status_id="s-7"),
    )
    assert verify_credential(vc, key_resolver, registry_source=source).valid

    revoked_registry = revoke(registry, "s-7", issuer_key)
    source.registries[REGISTRY_URL] = revoked_registry.to_json()
    report = verify_credential(vc, key_resolver, registry_source=source)
    assert not report.valid
    assert report.checks["revocation"].reason == "Revoked"


def test_revocation_idempotent_and_signed(issuer, key_resolver):
    issuer_key, issuer_did, _ = issuer
    registry = new_registry(issuer_did, issuer_key)
    once = revoke(registry, "s1", issuer_key)
    twice = revoke(once, "s1", issuer_key)
    assert once.revoked == twice.revoked == ["s1"]
    assert parse_timestamp(twice.updated) >= parse_timestamp(once.updated)

    from datacred.proofs import verify_proof

    assert verify_proof(twice.to_json(), issuer_key.public_key)


def test_revocation_monotonic(issuer):
    issuer_key, issuer_did, _ = issuer
    registry = new_registry(issuer_did, issuer_key)
    seen = set()
    for index in range(5):
        registry = revoke(registry, f"s{index}", issuer_key)
        seen.add(f"s{index}")
        assert seen.issubset(set(registry.revoked))


def test_revoke_requires_controlling_key(issuer):
    issuer_key, issuer_did, _ = issuer
    registry = new_registry(issuer_did, issuer_key)
    with pytest.raises(WrongIssuerKey):
        revoke(registry, "s1", generate_keypair())


def test_unverifiable_registry_is_indeterminate(issuer, subject, key_resolver):
    issuer_key, issuer_did, _ = issuer
    vc = issue_credential(
        issuer_key, issuer_did, subject[1], DATASET_PROVENANCE_V1, listing_claims(),
        status=CredentialStatus(registry_url=REGISTRY_URL, status_id="s-1"),
    )
    # registry signed by a different party
    mallory = generate_keypair()
    from datacred.did import generate_did_key

    mallory_did, _ = generate_did_key(mallory.public_key)
    forged = new_registry(mallory_did, mallory)
    forged = revoke(forged, "s-1", mallory)
    source = StaticRegistrySource({REGISTRY_URL: forged.to_json()})
    report = verify_credential(vc, key_resolver, registry_source=source)
    assert report.checks["revocation"].status is CheckStatus.INDETERMINATE
    assert not report.valid

    # unreachable registry is indeterminate, not a false verdict
    empty = StaticRegistrySource()
    report = verify_credential(vc, key_resolver, registry_source=empty)
    assert report.checks["revocation"].status is CheckStatus.INDETERMINATE
    assert report.checks["revocation"].reason == "RegistryUnavailable"


def test_http_registry_source_refuses_plain_http_off_loopback(issuer, subject, key_resolver):
    from datacred.credential import HttpRegistrySource

    issuer_key, issuer_did, _ = issuer
    vc = issue_credential(
        issuer_key, issuer_did, subject[1], DATASET_PROVENANCE_V1, listing_claims(),
        status=CredentialStatus(
            registry_url="http://registry.example/registry", status_id="s-1"
        ),
    )
    report = verify_credential(
        vc, key_resolver, registry_source=HttpRegistrySource(allow_insecure_loopback=True)
    )
    assert report.checks["revocation"].status is CheckStatus.INDETERMINATE
    assert report.checks["revocation"].reason == "RegistryUnavailable"


@pytest.mark.parametrize("body", [[], "registry", 5, None], ids=["array", "string", "int", "null"])
def test_non_object_registry_over_http_is_unavailable(
    issuer, subject, key_resolver, json_server, body
):
    from datacred.credential import HttpRegistrySource

    issuer_key, issuer_did, _ = issuer
    json_server.set("/registry", body)
    vc = issue_credential(
        issuer_key, issuer_did, subject[1], DATASET_PROVENANCE_V1, listing_claims(),
        status=CredentialStatus(registry_url=json_server.url("/registry"), status_id="s-1"),
    )
    report = verify_credential(
        vc, key_resolver, registry_source=HttpRegistrySource(allow_insecure_loopback=True)
    )
    assert report.checks["revocation"].status is CheckStatus.INDETERMINATE
    assert report.checks["revocation"].reason == "RegistryUnavailable"
    assert report.checks["signature"].status is CheckStatus.VALID


def test_check_binding_claim_roundtrip(issuer, subject, tmp_path):
    issuer_key, issuer_did, _ = issuer
    data = b"exact dataset bytes"
    vc = issue_credential(
        issuer_key, issuer_did, subject[1], DATASET_PROVENANCE_V1, listing_claims(data)
    )
    assert check_binding_claim(vc, data).matched
    assert not check_binding_claim(vc, data + b"!").matched

    path = tmp_path / "dataset.bin"
    path.write_bytes(data)
    assert check_binding_claim(vc, path).matched


def test_check_binding_claim_accepts_0x_prefix(issuer, subject):
    issuer_key, issuer_did, _ = issuer
    data = b"prefixed digest"
    schema = CredentialSchema(
        id="urn:test:binding", name="binding",
        attributes=(SchemaAttribute("Hash of Data", "string"),),
    )
    vc = issue_credential(
        issuer_key, issuer_did, subject[1], schema,
        {"Hash of Data": "0x" + fingerprint_bytes(data).digest},
    )
    assert check_binding_claim(vc, data).matched


def test_check_binding_claim_missing(issuer, subject):
    issuer_key, issuer_did, _ = issuer
    schema = CredentialSchema(
        id="urn:test:nohash", name="nohash",
        attributes=(SchemaAttribute("License", "string"),),
    )
    vc = issue_credential(issuer_key, issuer_did, subject[1], schema, {"License": "CC0"})
    with pytest.raises(NoHashClaim):
        check_binding_claim(vc, b"data")


def test_credential_json_roundtrip(issued):
    again = VerifiableCredential.from_json(json.loads(json.dumps(issued.to_json())))
    assert again.to_json() == issued.to_json()


@pytest.mark.parametrize("value", [["abc"], "abc", 5, [["id", "did:key:z6Mk"]]],
                         ids=["list", "string", "int", "list-of-pairs"])
def test_non_object_credential_subject_is_malformed(issued, value):
    obj = issued.to_json()
    obj["credentialSubject"] = value
    with pytest.raises(DatacredError, match="malformed credential"):
        VerifiableCredential.from_json(obj)


@pytest.mark.parametrize("status", [
    {"registry": 5, "statusId": "s"},
    {"registry": REGISTRY_URL, "statusId": ["s"]},
    {"registry": None, "statusId": "s"},
], ids=["int-registry", "list-status-id", "null-registry"])
def test_non_string_status_fields_are_malformed(issued, status):
    """An int registry used to reach the registry fetch and raise AttributeError."""
    obj = issued.to_json()
    obj["credentialStatus"] = status
    with pytest.raises(DatacredError, match="malformed credential"):
        VerifiableCredential.from_json(obj)


def test_registry_json_roundtrip(issuer):
    issuer_key, issuer_did, _ = issuer
    registry = revoke(new_registry(issuer_did, issuer_key), "s", issuer_key)
    again = RevocationRegistry.from_json(json.loads(json.dumps(registry.to_json())))
    assert again.to_json() == registry.to_json()
