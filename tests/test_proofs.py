"""One signed-document check, seen through each of its four callers.

Every branch of the proof check (missing proof, key of another DID,
unresolvable signer, invalid signer document, unknown verification method,
malformed signature, flipped signature byte, valid) is driven through the
credential signature check, the presentation holder-signature check, the
revocation-registry check and envelope verification, and the reason each
caller reports is pinned.
"""

import pytest

from datacred.agent.envelopes import SIGNATURE_FIELD, MessageEnvelope, verify_envelope
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
from datacred.errors import DatacredError, SignatureInvalid
from datacred.fingerprint import fingerprint_bytes
from datacred.keys import generate_keypair
from datacred.presentation import VerifiablePresentation, create_presentation, verify_presentation
from datacred.proofs import ASSERTION, AUTHENTICATION, attach_proof, check_proof
from datacred.resolver import KeyBackend, Resolver, StaticBackend

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


def _sign(document: dict, case: str, purpose: str, challenge=None, field="proof") -> dict:
    """Sign an unsigned document, then break the proof the way case says."""
    method = {"other-did": OTHER, "unknown-method": f"{SIGNER}#key-2"}.get(case, SIGNER)
    signed = attach_proof(document, SIGNER_KEY, method, purpose, challenge=challenge,
                          proof_field=field)
    proof = signed[field]
    if case == "missing":
        del signed[field]
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
    raw = _sign(_unsigned_envelope(), case, AUTHENTICATION, field=SIGNATURE_FIELD)
    try:
        verify_envelope(raw, _resolver(case))
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

    # An agent answers DatacredError with a SignatureInvalid problem report.
    envelope = _sign(_unsigned_envelope(), "valid", AUTHENTICATION, field=SIGNATURE_FIELD)
    envelope[SIGNATURE_FIELD][field] = 5
    with pytest.raises(DatacredError):
        verify_envelope(envelope, _resolver("valid"))
