"""Holder-signed presentations carrying a verifier challenge.

Anyone holding a copy of a credential can forward it; a presentation proves
the party presenting is the credential's subject and is presenting it *now*:
the holder signs over a verifier-issued nonce, and the verifier checks the
holder's DID against each embedded credential's subject. A stale capture
fails on the challenge; a third party fails on the subject binding. A holder
may also sign the verifier's DID, as the proof's ``domain``: an agent's answer
to a proof request does, so a presentation relayed to another verifier fails.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from datetime import datetime

from .credential import VerifiableCredential, verify_credential
from .did import Did, parse_did
from .errors import DocumentInvalid, EmptyChallenge, EmptyCredentials
from .jsonfile import LIST, STRINGS, Field, each, json_document, refusal, type_list
from .keys import KeyPair
from .proofs import AUTHENTICATION, PROOF_FIELD, Proof, check_proof, sign_document, utc_now
from .reports import CheckResult, CheckStatus, PresentationReport
from .resolver import Resolver

PRESENTATION_CONTEXT = "https://www.w3.org/2018/credentials/v1"
PRESENTATION_TYPE = "VerifiablePresentation"
_malformed = refusal(DocumentInvalid, "malformed presentation: ")


def new_challenge() -> str:
    """Fresh 128-bit nonce as 32 lowercase hex chars."""
    return secrets.token_hex(16)


@json_document(
    _malformed,
    Field("@context", "context", STRINGS),
    Field("type", "type", STRINGS, parse=type_list(PRESENTATION_TYPE, _malformed)),
    Field("holder", "holder"),
    Field("verifiableCredential", "credentials", LIST, **each(VerifiableCredential)),
    PROOF_FIELD, first="type")
@dataclass(frozen=True)
class VerifiablePresentation:
    """Credentials signed by their holder for one verifier; keeps the JSON read or signed."""

    holder: str
    credentials: list[VerifiableCredential]
    proof: Proof | None = None
    context: list[str] = field(default_factory=lambda: [PRESENTATION_CONTEXT])
    type: list[str] = field(default_factory=lambda: [PRESENTATION_TYPE])
    _json: dict | None = field(default=None, init=False, repr=False, compare=False)


def create_presentation(
    holder_key: KeyPair,
    holder_did: Did | str,
    credentials: list[VerifiableCredential],
    challenge: str,
    domain: str | None = None,
) -> VerifiablePresentation:
    """Wrap credentials and sign them together with the verifier's challenge and, when
    given, the verifier's DID as the proof's domain."""
    if not credentials:
        raise EmptyCredentials("a presentation needs at least one credential")
    if not challenge:
        raise EmptyChallenge("a presentation proof requires a challenge")
    holder = holder_did.text if isinstance(holder_did, Did) else parse_did(holder_did).text
    presentation = VerifiablePresentation(holder=holder, credentials=list(credentials))
    return sign_document(presentation, holder_key, holder, AUTHENTICATION, challenge=challenge,
                         domain=domain)


HOLDER_SIGNATURE_VALID = CheckResult(CheckStatus.VALID, "HolderSignatureValid")
CHALLENGE_MATCH = CheckResult(CheckStatus.VALID, "ChallengeMatch")
SUBJECTS_MATCH = CheckResult(CheckStatus.VALID, "SubjectsMatch")


def verify_presentation(
    vp: VerifiablePresentation,
    expected_challenge: str,
    resolver: Resolver,
    at: datetime | None = None,
    registry_source=None,
) -> PresentationReport:
    """Verify holder signature, challenge, subject binding, and every credential.

    The challenge comparison is exact byte equality against the value this
    verifier issued; presenting a captured response to any other challenge
    fails, which is the replay protection. A presentation whose holder signature
    does not hold is presented by no one, so its credentials are not verified:
    no issuer is resolved and no registry fetched for it.
    """
    report = PresentationReport(holder=vp.holder)
    at = at or utc_now()

    signature, _ = check_proof(vp.to_json(), vp.holder, resolver, role="Holder")
    if signature.status is CheckStatus.VALID:
        signature = HOLDER_SIGNATURE_VALID
    report.checks["holderSignature"] = signature

    presented = vp.proof.challenge if vp.proof else None
    if presented and expected_challenge and presented == expected_challenge:
        report.checks["challenge"] = CHALLENGE_MATCH
    else:
        detail = f"presented {presented!r}, expected {expected_challenge!r}"
        report.checks["challenge"] = CheckResult(CheckStatus.INVALID, "ChallengeMismatch", detail)

    strangers = [vc.id for vc in vp.credentials if vc.subject_id != vp.holder]
    if not vp.credentials:
        report.checks["subjectBinding"] = CheckResult(
            CheckStatus.INVALID, "NoCredentials", "presentation embeds no credentials")
    elif strangers:
        detail = f"holder {vp.holder} is not the subject of {', '.join(strangers)}"
        report.checks["subjectBinding"] = CheckResult(CheckStatus.INVALID, "HolderNotSubject",
                                                      detail)
    else:
        report.checks["subjectBinding"] = SUBJECTS_MATCH

    if signature.status is not CheckStatus.VALID:
        report.notes.append("credentials not verified: the holder's signature does not hold")
        return report
    for vc in vp.credentials:
        report.credential_reports.append(
            verify_credential(vc, resolver, at=at, registry_source=registry_source)
        )
    return report
