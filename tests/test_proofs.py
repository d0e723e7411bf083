"""One signed-document check, seen through each of its four callers.

Every branch of the proof check (missing proof, key of another DID,
unresolvable signer, invalid signer document, unknown verification method,
malformed signature, flipped signature byte, valid) is driven through the
credential signature check, the presentation holder-signature check, the
revocation-registry check and envelope verification, and the reason each
caller reports is pinned.
"""

import copy
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from datacred import resolver
from datacred.agent.envelopes import MessageEnvelope, verify_envelope
from datacred.base58 import b58decode, b58encode
from datacred.credential import (
    DATASET_PROVENANCE_V1,
    CredentialStatus,
    RevocationRegistry,
    StaticRegistrySource,
    VerifiableCredential,
    issue_credential,
    new_registry,
    verify_credential,
)
from datacred.did import DidDocument, VerificationMethod, generate_did_key
from datacred.errors import DatacredError, DocumentInvalid, SignatureInvalid
from datacred.fingerprint import fingerprint_bytes
from datacred.keys import generate_keypair
from datacred.presentation import VerifiablePresentation, create_presentation, verify_presentation
from datacred.proofs import ASSERTION, AUTHENTICATION, Proof, attach_proof, check_proof
from datacred.resolver import KeyBackend, Resolver, StaticBackend
from docgen import leaf_paths, mutate_leaf

SIGNER = "did:web:signer.example"
OTHER = "did:web:other.example"
REGISTRY_URL = "https://signer.example/registry"
CHALLENGE = "c" * 32
CLAIMS = {"Hash of Data": fingerprint_bytes(b"data").digest, "Data Ethically Sourced": "YES"}

CASES = (
    "missing",
    "other-did",
    "unresolvable",
    "invalid-document",
    "unknown-method",
    "malformed-signature",
    "flipped-byte",
    "valid",
)

SIGNER_KEY = generate_keypair(b"\x01" * 32)


def _method(fragment: str) -> VerificationMethod:
    return VerificationMethod(
        id=f"{SIGNER}#{fragment}", controller=SIGNER,
        public_key_base58=SIGNER_KEY.public_key_base58,
    )


def _resolver(case: str) -> Resolver:
    good = DidDocument(id=SIGNER, authentication=[_method("key-1")]).to_json()
    documents = {
        "unresolvable": {},
        "invalid-document": {SIGNER: {**good, "id": "did:web:impostor.example"}},
        "unknown-method": {
            SIGNER: DidDocument(
                id=SIGNER, authentication=[], assertion_method=[_method("key-1")]
            ).to_json()
        },
    }.get(case, {SIGNER: good})
    return Resolver(backends=[KeyBackend(), StaticBackend(documents)])


def _sign(document: dict, case: str, purpose: str, challenge=None) -> dict:
    """Sign an unsigned document, then break the proof the way case says."""
    method = {"other-did": OTHER, "unknown-method": f"{SIGNER}#key-2"}.get(case, SIGNER)
    signed = attach_proof(document, SIGNER_KEY, method, purpose, challenge=challenge)
    proof = signed["proof"]
    if case == "missing":
        del signed["proof"]
    elif case == "malformed-signature":
        proof["signatureValue"] = "0OIl"
    elif case == "flipped-byte":
        raw = bytearray(b58decode(proof["signatureValue"]))
        raw[0] ^= 0x01
        proof["signatureValue"] = b58encode(bytes(raw))
    return signed


def _unsigned_credential(status=None) -> dict:
    vc = issue_credential(SIGNER_KEY, SIGNER, "did:web:subject.example",
                          DATASET_PROVENANCE_V1, CLAIMS, status=status)
    document = vc.to_json()
    del document["proof"]
    return document


def check_credential(case: str):
    vc = VerifiableCredential.from_json(_sign(_unsigned_credential(), case, ASSERTION))
    check = verify_credential(vc, _resolver(case)).checks["signature"]
    return check.status.value, check.reason


def check_presentation(case: str):
    issuer_key = generate_keypair()
    issuer_did, _ = generate_did_key(issuer_key.public_key)
    credential = issue_credential(issuer_key, issuer_did, SIGNER, DATASET_PROVENANCE_V1, CLAIMS)
    unsigned = create_presentation(SIGNER_KEY, SIGNER, [credential], CHALLENGE).to_json()
    del unsigned["proof"]
    vp = VerifiablePresentation.from_json(_sign(unsigned, case, AUTHENTICATION, CHALLENGE))
    check = verify_presentation(vp, CHALLENGE, _resolver(case)).checks["holderSignature"]
    return check.status.value, check.reason


def check_registry(case: str):
    unsigned = new_registry(SIGNER, SIGNER_KEY).to_json()
    del unsigned["proof"]
    registry = RevocationRegistry.from_json(_sign(unsigned, case, ASSERTION))
    status = CredentialStatus(registry_url=REGISTRY_URL, status_id="status-1")
    document = _unsigned_credential(status=status)
    vc = VerifiableCredential.from_json(_sign(document, "valid", ASSERTION))
    source = StaticRegistrySource({REGISTRY_URL: registry.to_json()})
    check = verify_credential(vc, _resolver(case), registry_source=source).checks["revocation"]
    return check.status.value, check.reason


def _unsigned_envelope() -> dict:
    return MessageEnvelope(
        id="envelope-1", type="datacred/1.0/proof-request", sender=SIGNER,
        recipient=OTHER, created_at="2026-01-01T00:00:00Z", body={"challenge": CHALLENGE},
    ).to_json()


def check_envelope(case: str):
    raw = _sign(_unsigned_envelope(), case, AUTHENTICATION)
    try:
        verify_envelope(raw, _resolver(case), OTHER)
    except SignatureInvalid:
        return "SignatureInvalid"
    return "accepted"


def _role_expectations(role: str, valid_reason: str) -> dict:
    return {
        "missing": ("Invalid", "MissingProof"),
        "other-did": ("Invalid", f"VerificationMethodNot{role}"),
        "unresolvable": ("Indeterminate", f"{role}Unresolvable"),
        "invalid-document": ("Indeterminate", f"{role}DocumentInvalid"),
        "unknown-method": ("Invalid", "UnknownVerificationMethod"),
        "malformed-signature": ("Invalid", "MalformedProof"),
        "flipped-byte": ("Invalid", "SignatureMismatch"),
        "valid": ("Valid", valid_reason),
    }


EXPECTED = {
    check_credential: _role_expectations("Issuer", "SignatureValid"),
    check_presentation: _role_expectations("Holder", "HolderSignatureValid"),
    check_registry: {
        case: ("Valid", "NotRevoked") if case == "valid"
        else ("Indeterminate", "RegistryInvalid")
        for case in CASES
    },
    check_envelope: {
        case: "accepted" if case == "valid" else "SignatureInvalid" for case in CASES
    },
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("caller", list(EXPECTED), ids=lambda fn: fn.__name__[len("check_"):])
def test_every_caller_reports_every_branch(caller, case):
    assert caller(case) == EXPECTED[caller][case]


def test_authentication_key_accepted_for_assertion_with_note():
    vc = VerifiableCredential.from_json(_sign(_unsigned_credential(), "valid", ASSERTION))
    report = verify_credential(vc, _resolver("valid"))
    assert report.checks["signature"].reason == "SignatureValid"
    assert report.notes == ["issuer publishes an authentication key only; accepted for assertion"]

    # A key published under assertionMethod carries no note.
    vc = VerifiableCredential.from_json(
        attach_proof(_unsigned_credential(), SIGNER_KEY, f"{SIGNER}#key-1", ASSERTION)
    )
    report = verify_credential(vc, _resolver("unknown-method"))
    assert report.checks["signature"].reason == "SignatureValid"
    assert report.notes == []


@pytest.mark.parametrize("field", ["verificationMethod", "signatureValue"])
def test_non_string_proof_field_is_malformed_not_a_crash(field):
    document = _sign(_unsigned_credential(), "valid", ASSERTION)
    document["proof"][field] = 5
    result, _ = check_proof(document, SIGNER, _resolver("valid"))
    assert (result.status.value, result.reason) == ("Invalid", "MalformedProof")

    # An agent answers DatacredError with a plain SignatureInvalid refusal.
    envelope = _sign(_unsigned_envelope(), "valid", AUTHENTICATION)
    envelope["proof"][field] = 5
    with pytest.raises(DatacredError):
        verify_envelope(envelope, _resolver("valid"), OTHER)


@pytest.mark.parametrize("challenge", [0, False, [], {}], ids=["zero", "false", "list", "object"])
def test_a_falsy_challenge_that_is_not_a_string_is_malformed(challenge):
    document = _sign(_unsigned_credential(), "valid", ASSERTION)
    document["proof"]["challenge"] = challenge
    with pytest.raises(DocumentInvalid, match="^malformed proof: fields must be strings"):
        Proof.from_json(document["proof"])
    result, _ = check_proof(document, SIGNER, _resolver("valid"))
    assert (result.status.value, result.reason) == ("Invalid", "MalformedProof")


# --- the verified-proof memo each Resolver keeps ---

def _outcome(document, context=None):
    result, located = check_proof(document, SIGNER, context or _resolver("valid"))
    return result.status.value, result.reason, located


def test_a_rotated_key_is_not_served_a_success_of_the_old_one(monkeypatch):
    credential = _sign(_unsigned_credential(), "valid", ASSERTION)
    context = _resolver("valid")
    assert _outcome(credential, context=context)[:2] == ("Valid", "SignatureValid")

    monkeypatch.setattr(resolver, "CACHE_TTL", 0)  # the signer's document expires at once
    rotated = generate_keypair(b"\x02" * 32)
    method = VerificationMethod(id=f"{SIGNER}#key-1", controller=SIGNER,
                                public_key_base58=rotated.public_key_base58)
    context.backends[1].documents[SIGNER] = DidDocument(
        id=SIGNER, authentication=[method]).to_json()
    assert _outcome(credential, context=context)[:2] == ("Invalid", "SignatureMismatch")


def test_a_claim_changed_after_a_warm_hit_is_a_mismatch(verifies):
    credential = _sign(_unsigned_credential(), "valid", ASSERTION)
    context = _resolver("valid")
    for _ in range(2):
        assert _outcome(credential, context=context)[:2] == ("Valid", "SignatureValid")
    assert len(verifies) == 1
    assert _outcome(credential)[:2] == ("Valid", "SignatureValid")  # a resolver of its own
    assert len(verifies) == 2

    credential["credentialSubject"]["Data Ethically Sourced"] = "NO"
    assert _outcome(credential, context=context)[:2] == ("Invalid", "SignatureMismatch")


def test_a_failing_proof_is_verified_every_time(verifies):
    flipped = _sign(_unsigned_credential(), "flipped-byte", ASSERTION)
    context = _resolver("valid")
    for _ in range(2):
        assert _outcome(flipped, context=context)[:2] == ("Invalid", "SignatureMismatch")
    assert len(verifies) == 2


def test_the_memo_is_bounded_and_keeps_what_is_used():
    context = _resolver("valid")
    hot = []
    for index in range(3 * resolver.VERIFIED_PROOFS):
        assert context.verified_once(("hot",), lambda: hot.append(index) or True)
        assert context.verified_once(("cold", index), lambda: True)
        assert len(context._verified) <= resolver.VERIFIED_PROOFS
    assert hot == [0]
    assert not context.verified_once(("failed",), lambda: False)
    assert ("failed",) not in context._verified


def _documents_to_check() -> list[dict]:
    documents = []
    for case in ("valid", "flipped-byte", "malformed-signature", "missing", "other-did"):
        documents.append(_sign(_unsigned_credential(), case, ASSERTION))
        documents.append(_sign(_unsigned_envelope(), case, AUTHENTICATION))
    tampered = _sign(_unsigned_credential(), "valid", ASSERTION)
    tampered["credentialSubject"]["Data Ethically Sourced"] = "NO"
    return documents + [tampered]


def test_four_threads_on_one_resolver_agree_with_one_thread():
    documents = _documents_to_check()
    expected = [_outcome(doc) for doc in documents]
    context = _resolver("valid")
    seen: list[list] = [[] for _ in range(4)]

    def check(worker: int):
        for _ in range(5):
            seen[worker].append([_outcome(doc, context=context) for doc in documents])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=check, args=(worker,)) for worker in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [[expected] * 5] * 4


_SIGNED = {
    "credential": _sign(_unsigned_credential(), "valid", ASSERTION),
    "envelope": _sign(_unsigned_envelope(), "valid", AUTHENTICATION),
}
_REPLACEMENTS = st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4)


@given(kind=st.sampled_from(sorted(_SIGNED)), data=st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_warm_resolver_answers_a_mutation_as_a_fresh_one(kind, data):
    original = _SIGNED[kind]
    path = data.draw(st.sampled_from(leaf_paths(original)))
    how = data.draw(st.sampled_from(["changed", "replaced", "removed"]))
    mutated = mutate_leaf(original, path) if how == "changed" else copy.deepcopy(original)
    if how != "changed":
        parent = mutated
        for step in path[:-1]:
            parent = parent[step]
        if how == "removed":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_REPLACEMENTS)
    warm = _resolver("valid")
    assert _outcome(original, context=warm)[0] == "Valid"
    assert _outcome(mutated, context=warm) == _outcome(mutated)
