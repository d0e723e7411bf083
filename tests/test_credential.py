"""Credential issuance, verification checks, revocation, hash binding."""

import json
import random

import pytest

from datacred.credential import (
    DATASET_PROVENANCE_V1,
    CredentialSchema,
    CredentialStatus,
    RevocationRegistry,
    SchemaAttribute,
    StaticRegistrySource,
    VerifiableCredential,
    check_binding_claim,
    issue_credential,
    new_registry,
    revoke,
    verify_credential,
)
from datacred.errors import BadDates, NoHashClaim, SchemaMismatch, WrongIssuerKey
from datacred.fingerprint import fingerprint_bytes
from datacred.keys import generate_keypair
from datacred.proofs import parse_timestamp
from datacred.reports import CheckStatus
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


def test_issue_rejects_bad_dates(issuer, subject):
    issuer_key, issuer_did, _ = issuer
    with pytest.raises(BadDates):
        issue_credential(
            issuer_key, issuer_did, subject[1], DATASET_PROVENANCE_V1, listing_claims(),
            issuance_date="2026-01-02T00:00:00Z", expiration_date="2026-01-01T00:00:00Z",
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
    with pytest.raises(SchemaMismatch):
        schema.validate_claims({"a": "x", "d": "yesterday"})
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

    # configurable skew forgives a boundary violation
    skewed = verify_credential(
        vc, key_resolver, at=parse_timestamp("2026-06-01T00:00:10Z"), clock_skew=30
    )
    assert skewed.checks["temporal"].status is CheckStatus.VALID


def test_issuance_boundary_is_valid(issuer, subject, key_resolver):
    issuer_key, issuer_did, _ = issuer
    vc = issue_credential(
        issuer_key, issuer_did, subject[1], DATASET_PROVENANCE_V1, listing_claims(),
        issuance_date="2026-01-01T00:00:00Z",
    )
    report = verify_credential(vc, key_resolver, at=parse_timestamp("2026-01-01T00:00:00Z"))
    assert report.valid


def test_revocation_flow(issuer, subject, key_resolver):
    issuer_key, issuer_did, _ = issuer
    registry = new_registry(issuer_did, issuer_key)
    source = StaticRegistrySource()
    source.register(REGISTRY_URL, registry)
    vc = issue_credential(
        issuer_key, issuer_did, subject[1], DATASET_PROVENANCE_V1, listing_claims(),
        status=CredentialStatus(registry_url=REGISTRY_URL, status_id="s-7"),
    )
    assert verify_credential(vc, key_resolver, registry_source=source).valid

    revoked_registry = revoke(registry, "s-7", issuer_key)
    source.register(REGISTRY_URL, revoked_registry)
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
    source = StaticRegistrySource()
    source.register(REGISTRY_URL, forged)
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


def test_registry_json_roundtrip(issuer):
    issuer_key, issuer_did, _ = issuer
    registry = revoke(new_registry(issuer_did, issuer_key), "s", issuer_key)
    again = RevocationRegistry.from_json(json.loads(json.dumps(registry.to_json())))
    assert again.to_json() == registry.to_json()
