"""Rollback refusal: a Resolver that verified a registry at a URL refuses an older one
of the same issuer served there later, or one lacking an id it revoked, however validly
it is signed."""

import pytest

from datacred.credential import (
    DATASET_PROVENANCE_V1,
    CredentialStatus,
    StaticRegistrySource,
    _check_revocation,
    issue_credential,
)
from datacred.did import one_key_document, parse_did
from datacred.fingerprint import fingerprint_bytes
from datacred.keys import generate_keypair
from datacred.proofs import ASSERTION, attach_proof
from datacred.resolver import Resolver, StaticBackend

ISSUER, OTHER = "did:web:issuer.example", "did:web:other.example"
KEYS = {ISSUER: generate_keypair(b"\x06" * 32), OTHER: generate_keypair(b"\x07" * 32)}
URL = "https://issuer.example/registry"
CLAIMS = {"Hash of Data": fingerprint_bytes(b"data").digest, "Data Ethically Sourced": "YES"}
T1, T2 = "2026-01-01T00:00:00Z", "2026-01-01T00:00:05Z"


def credential(issuer=ISSUER, status_id="s-1"):
    return issue_credential(KEYS[issuer], issuer, "did:web:subject.example",
                            DATASET_PROVENANCE_V1, CLAIMS,
                            status=CredentialStatus(registry_url=URL, status_id=status_id))


def registry(updated: str, revoked=(), issuer=ISSUER) -> dict:
    body = {"issuer": issuer, "revoked": list(revoked), "updated": updated}
    return attach_proof(body, KEYS[issuer], issuer, ASSERTION)


def context() -> Resolver:
    return Resolver([StaticBackend({
        did: one_key_document(parse_did(did), key.public_key).to_json()
        for did, key in KEYS.items()})])


def serve(source, vc, context, served: dict):
    source.registries[URL] = served
    result = _check_revocation(vc, context, source)
    return result.status.value, result.reason


def test_an_older_registry_after_a_newer_one_is_a_rollback():
    vc, warm, source = credential(), context(), StaticRegistrySource()
    assert serve(source, vc, warm, registry(T2, ["s-1"])) == ("Invalid", "Revoked")
    assert serve(source, vc, warm, registry(T1)) == ("Indeterminate", "RegistryRollback")
    assert serve(source, vc, warm, registry(T2, ["s-1"])) == ("Invalid", "Revoked")


def test_the_rolled_back_registry_is_not_remembered():
    vc, warm, source = credential(), context(), StaticRegistrySource()
    assert serve(source, vc, warm, registry(T2)) == ("Valid", "NotRevoked")
    assert serve(source, vc, warm, registry(T1)) == ("Indeterminate", "RegistryRollback")
    assert serve(source, vc, warm, registry(T1)) == ("Indeterminate", "RegistryRollback")
    assert warm._registries[URL][2]["updated"] == T2


def test_a_fresh_context_accepts_the_older_registry():
    vc, source = credential(), StaticRegistrySource()
    assert serve(source, vc, context(), registry(T2, ["s-1"])) == ("Invalid", "Revoked")
    assert serve(source, vc, context(), registry(T1)) == ("Valid", "NotRevoked")


def test_an_equal_or_later_update_is_not_a_rollback():
    vc, warm, source = credential(), context(), StaticRegistrySource()
    assert serve(source, vc, warm, registry(T1)) == ("Valid", "NotRevoked")
    assert serve(source, vc, warm, registry(T1, ["s-1"])) == ("Invalid", "Revoked")
    assert serve(source, vc, warm, registry(T2, ["s-1", "s-2"])) == ("Invalid", "Revoked")


def test_another_issuers_older_registry_at_the_url_is_not_a_rollback():
    warm, source = context(), StaticRegistrySource()
    assert serve(source, credential(), warm, registry(T2)) == ("Valid", "NotRevoked")
    assert serve(source, credential(OTHER), warm, registry(T1, issuer=OTHER)) == (
        "Valid", "NotRevoked")


def test_an_update_that_does_not_parse_is_not_compared():
    vc, warm, source = credential(), context(), StaticRegistrySource()
    assert serve(source, vc, warm, registry(T2)) == ("Valid", "NotRevoked")
    assert serve(source, vc, warm, registry("yesterday")) == ("Valid", "NotRevoked")


@pytest.mark.parametrize("updated", [T1, T2], ids=["same-second", "later"])
def test_a_registry_lacking_a_kept_revocation_is_a_rollback(updated):
    """`updated` has one-second resolution: {s-1} served after {s-1, s-2}, both signed in
    the same second, read s-2 as NotRevoked."""
    vc, warm, source = credential(status_id="s-2"), context(), StaticRegistrySource()
    assert serve(source, vc, warm, registry(T1, ["s-1", "s-2"])) == ("Invalid", "Revoked")
    assert serve(source, vc, warm, registry(updated, ["s-1"])) == (
        "Indeterminate", "RegistryRollback")
    source.registries[URL] = registry(updated, ["s-1"])
    assert _check_revocation(vc, warm, source).detail == (
        f"updated {updated}, lacking 1 ids revoked as of {T1} seen at {URL}")
