"""Whole verification reports, pinned: every member of to_json() for offline bundles
checked at a fixed moment, and the fixed check outcomes every report shares."""

import dataclasses
import json
from datetime import datetime, timezone

import pytest

from datacred import credential, presentation, proofs
from datacred.agent import service
from datacred.credential import (
    DATASET_PROVENANCE_V1,
    CredentialStatus,
    FileRegistrySource,
    VerifiableCredential,
    check_receipt,
    sign_registry,
    verify_credential,
)
from datacred.did import Did, one_key_document
from datacred.keys import generate_keypair
from datacred.presentation import VerifiablePresentation, verify_presentation
from datacred.proofs import ASSERTION, AUTHENTICATION, attach_proof
from datacred.resolver import DirectoryBackend, KeyBackend, Resolver

ISSUER, HOLDER, OTHER = "did:web:issuer.example", "did:web:holder.example", "did:web:other.example"
ISSUER_KEY, HOLDER_KEY, OTHER_KEY = (generate_keypair(bytes([n]) * 32) for n in (1, 2, 3))
ISSUED, EXPIRES = "2024-01-01T00:00:00Z", "2030-01-01T00:00:00Z"
AT = datetime(2025, 6, 1, tzinfo=timezone.utc)
CHALLENGE = "c" * 32
CLAIMS = {"Hash of Data": "ab" * 32, "Data Ethically Sourced": "YES"}


def signed_credential(subject: str = HOLDER, status_id: str | None = "s1") -> dict:
    status = None if status_id is None else CredentialStatus(
        registry_url="https://issuer.example/registry", status_id=status_id)
    vc = VerifiableCredential(
        id="urn:uuid:0", issuer=ISSUER, issuance_date=ISSUED, expiration_date=EXPIRES,
        subject_id=subject, claims=dict(CLAIMS), schema=DATASET_PROVENANCE_V1, status=status,
    )
    return attach_proof(vc.to_json(), ISSUER_KEY, ISSUER, ASSERTION, created=ISSUED)


def bundle(path, *, with_issuer: bool = True, registry_key=ISSUER_KEY):
    """An offline bundle in path: the DID documents and the issuer's registry, which
    revokes s0 and s2; returns its resolver and registry source."""
    path.mkdir()
    documents = {HOLDER: one_key_document(Did("web", "holder.example"), HOLDER_KEY.public_key)}
    if with_issuer:
        documents[ISSUER] = one_key_document(Did("web", "issuer.example"), ISSUER_KEY.public_key)
    (path / "dids.json").write_text(json.dumps({did: d.to_json() for did, d in documents.items()}))
    (path / "registry.json").write_text(json.dumps(sign_registry(ISSUER, ["s0", "s2"],
                                                                 registry_key).to_json()))
    return Resolver([KeyBackend(), DirectoryBackend(path)]), FileRegistrySource(
        path / "registry.json")


def present(credential_json: dict, challenge: str | None = CHALLENGE) -> VerifiablePresentation:
    document = VerifiablePresentation(
        holder=HOLDER, credentials=[VerifiableCredential.from_json(credential_json)]).to_json()
    if challenge is not None:
        document = attach_proof(document, HOLDER_KEY, HOLDER, AUTHENTICATION,
                                challenge=challenge, created=ISSUED)
    return VerifiablePresentation.from_json(document)


def check(status: str, reason: str, detail: str = "") -> dict:
    return {"status": status, "reason": reason, "detail": detail}


def credential_report(overall: str = "Valid", **checks) -> dict:
    return {
        "overall": overall,
        "issuer": ISSUER,
        "credentialId": "urn:uuid:0",
        "claims": CLAIMS,
        "checks": {
            "signature": check("Valid", "SignatureValid"),
            "schema": check("Valid", "SchemaConformant"),
            "temporal": check("Valid", "TemporallyValid"),
            "revocation": check("Valid", "NotRevoked"),
            **checks,
        },
        "notes": ["issuer publishes an authentication key only; accepted for assertion"],
    }


def presentation_report(overall: str = "Valid", credentials=None, notes=(), **checks) -> dict:
    return {
        "overall": overall,
        "holder": HOLDER,
        "issuers": [ISSUER] if credentials is None else [r["issuer"] for r in credentials],
        "checks": {
            "holderSignature": check("Valid", "HolderSignatureValid"),
            "challenge": check("Valid", "ChallengeMatch"),
            "subjectBinding": check("Valid", "SubjectsMatch"),
            **checks,
        },
        "credentials": [credential_report()] if credentials is None else credentials,
        "notes": list(notes),
    }


def verify(path, vc: dict, at=AT, **context) -> dict:
    resolver, source = bundle(path, **context)
    return verify_credential(VerifiableCredential.from_json(vc), resolver, at=at,
                             registry_source=source).to_json()


def verify_presented(path, vp: VerifiablePresentation, challenge: str = CHALLENGE) -> dict:
    resolver, source = bundle(path)
    return verify_presentation(vp, challenge, resolver, at=AT,
                               registry_source=source).to_json()


def tampered() -> dict:
    vc = signed_credential()
    vc["credentialSubject"]["Data Ethically Sourced"] = "NO"
    return vc


CASES = {
    "valid": (lambda p: verify(p, signed_credential()), credential_report()),
    "revoked": (
        lambda p: verify(p, signed_credential(status_id="s2")),
        credential_report("Invalid", revocation=check("Invalid", "Revoked", "status id s2")),
    ),
    "tampered": (
        lambda p: verify(p, tampered()),
        {**credential_report("Invalid", signature=check("Invalid", "SignatureMismatch")),
         "claims": {**CLAIMS, "Data Ethically Sourced": "NO"}},
    ),
    "expired": (
        lambda p: verify(p, signed_credential(), at=datetime(2031, 1, 1, tzinfo=timezone.utc)),
        credential_report("Invalid", temporal=check("Invalid", "Expired", f"expired {EXPIRES}")),
    ),
    "not yet valid": (
        lambda p: verify(p, signed_credential(), at=datetime(2023, 1, 1, tzinfo=timezone.utc)),
        credential_report("Invalid", temporal=check("Invalid", "NotYetValid",
                                                    "checked at 2023-01-01T00:00:00Z")),
    ),
    "unresolvable issuer": (
        lambda p: verify(p, signed_credential(), with_issuer=False),
        {**credential_report(
            "Indeterminate",
            signature=check("Indeterminate", "IssuerUnresolvable", "no backend resolves did:web"),
            revocation=check("Indeterminate", "RegistryInvalid",
                             "registry proof: IssuerUnresolvable no backend resolves did:web")),
         "notes": []},
    ),
    "registry signed by another key": (
        lambda p: verify(p, signed_credential(), registry_key=OTHER_KEY),
        credential_report("Indeterminate", revocation=check(
            "Indeterminate", "RegistryInvalid", "registry proof: SignatureMismatch")),
    ),
    "holder not subject": (
        lambda p: verify_presented(p, present(signed_credential(subject=OTHER))),
        presentation_report(
            "Invalid",
            subjectBinding=check("Invalid", "HolderNotSubject",
                                 f"holder {HOLDER} is not the subject of urn:uuid:0")),
    ),
    "wrong challenge": (
        lambda p: verify_presented(p, present(signed_credential()), "d" * 32),
        presentation_report(
            "Invalid",
            challenge=check("Invalid", "ChallengeMismatch",
                            f"presented {CHALLENGE!r}, expected {'d' * 32!r}")),
    ),
    "unsigned presentation": (
        lambda p: verify_presented(p, present(signed_credential(), challenge=None)),
        presentation_report(
            "Invalid", credentials=[],
            notes=["credentials not verified: the holder's signature does not hold"],
            holderSignature=check("Invalid", "MissingProof"),
            challenge=check("Invalid", "ChallengeMismatch",
                            f"presented None, expected {CHALLENGE!r}")),
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_report_json_is_pinned(tmp_path, name):
    run, expected = CASES[name]
    assert run(tmp_path / "bundle") == expected


def test_fixed_outcomes_are_shared_immutable_values(tmp_path):
    resolver, source = bundle(tmp_path / "bundle")
    vc, vp = VerifiableCredential.from_json(signed_credential()), present(signed_credential())
    credential_checks = {"signature": proofs.SIGNATURE_VALID,
                         "schema": credential.SCHEMA_CONFORMANT,
                         "temporal": credential.TEMPORALLY_VALID,
                         "revocation": credential.NOT_REVOKED}
    presentation_checks = {"holderSignature": presentation.HOLDER_SIGNATURE_VALID,
                           "challenge": presentation.CHALLENGE_MATCH,
                           "subjectBinding": presentation.SUBJECTS_MATCH}
    for _ in range(2):
        verified = verify_credential(vc, resolver, at=AT, registry_source=source)
        presented = verify_presentation(vp, CHALLENGE, resolver, at=AT, registry_source=source)
        for report, expected in ((verified, credential_checks),
                                 (presented.credential_reports[0], credential_checks),
                                 (presented, presentation_checks)):
            assert report.checks.keys() == expected.keys()
            assert all(report.checks[name] is check for name, check in expected.items())
            assert not hasattr(report, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        verified.checks["signature"].detail = "changed"
    assert proofs.SIGNATURE_VALID.detail == ""


def test_the_other_fixed_outcomes_are_shared_too(tmp_path):
    resolver, source = bundle(tmp_path / "bundle")
    unstatused = VerifiableCredential.from_json(signed_credential(status_id=None))
    receipt = check_receipt(unstatused, resolver)
    assert receipt["temporal"] is credential.TIMESTAMPS_WELL_FORMED
    report = verify_credential(unstatused, resolver, at=AT, registry_source=source)
    assert report.checks["revocation"] is credential.NO_STATUS
    tampered_report = verify_credential(VerifiableCredential.from_json(tampered()), resolver,
                                        at=AT, registry_source=source)
    assert tampered_report.checks["signature"] is proofs.SIGNATURE_MISMATCH
    unsigned = present(signed_credential(), challenge=None)
    unsigned_report = verify_presentation(unsigned, CHALLENGE, resolver, at=AT,
                                          registry_source=source)
    assert unsigned_report.checks["holderSignature"] is proofs.MISSING_PROOF


def test_a_proof_response_shares_the_responder_outcome(agent_factory):
    publisher, dataset = agent_factory("publisher"), agent_factory("dataset")
    connection = publisher.connect(**dataset.invitation())
    publisher.issue_over_connection(connection.connection_id, CLAIMS)
    user = agent_factory("user")
    reports = [user.request_proof(dataset.did.text, ["Hash of Data"], endpoint=dataset.base_url)
               for _ in range(2)]
    assert all(report.checks["responder"] is service.RESPONDER_IS_TARGET for report in reports)
