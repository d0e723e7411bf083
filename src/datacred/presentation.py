"""Holder-signed presentations carrying a verifier challenge.

Anyone holding a copy of a credential can forward it; a presentation proves
the party presenting is the credential's subject and is presenting it *now*:
the holder signs over a verifier-issued nonce, and the verifier checks the
holder's DID against each embedded credential's subject. A stale capture
fails on the challenge; a third party fails on the subject binding.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from datetime import datetime

from .credential import VerifiableCredential, verify_credential
from .did import Did, parse_did
from .errors import DatacredError, EmptyChallenge, EmptyCredentials
from .keys import KeyPair
from .proofs import AUTHENTICATION, Proof, attach_proof, check_proof, utc_now
from .reports import CheckResult, CheckStatus, PresentationReport
from .resolver import Resolver

PRESENTATION_CONTEXT = "https://www.w3.org/2018/credentials/v1"
PRESENTATION_TYPE = "VerifiablePresentation"


def new_challenge() -> str:
    """Fresh 128-bit nonce as 32 lowercase hex chars."""
    return secrets.token_hex(16)


@dataclass
class VerifiablePresentation:
    """Credentials wrapped and signed by their holder for one verifier."""

    holder: str
    credentials: list[VerifiableCredential]
    proof: Proof | None = None
    context: list[str] = field(default_factory=lambda: [PRESENTATION_CONTEXT])
    type: list[str] = field(default_factory=lambda: [PRESENTATION_TYPE])

    def to_json(self) -> dict:
        out = {
            "@context": list(self.context),
            "type": list(self.type),
            "holder": self.holder,
            "verifiableCredential": [vc.to_json() for vc in self.credentials],
        }
        if self.proof is not None:
            out["proof"] = self.proof.to_json()
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "VerifiablePresentation":
        try:
            types = obj["type"]
            if PRESENTATION_TYPE not in types:
                raise DatacredError(f"type {types!r} does not include {PRESENTATION_TYPE}")
            proof = obj.get("proof")
            return cls(
                holder=obj["holder"],
                credentials=[
                    VerifiableCredential.from_json(vc) for vc in obj["verifiableCredential"]
                ],
                proof=Proof.from_json(proof) if proof else None,
                context=list(obj["@context"]),
                type=list(types),
            )
        except (KeyError, TypeError) as exc:
            raise DatacredError(f"malformed presentation: {exc}") from exc


def create_presentation(
    holder_key: KeyPair,
    holder_did: Did | str,
    credentials: list[VerifiableCredential],
    challenge: str,
) -> VerifiablePresentation:
    """Wrap credentials and sign them together with the verifier's challenge."""
    if not credentials:
        raise EmptyCredentials("a presentation needs at least one credential")
    if not challenge:
        raise EmptyChallenge("a presentation proof requires a challenge")
    holder = holder_did.text if isinstance(holder_did, Did) else parse_did(holder_did).text
    presentation = VerifiablePresentation(holder=holder, credentials=list(credentials))
    signed = attach_proof(
        presentation.to_json(),
        holder_key,
        verification_method=holder,
        proof_purpose=AUTHENTICATION,
        challenge=challenge,
    )
    return VerifiablePresentation.from_json(signed)


def verify_presentation(
    vp: VerifiablePresentation,
    expected_challenge: str,
    resolver: Resolver,
    at: datetime | None = None,
    registry_source=None,
    clock_skew: float = 0.0,
) -> PresentationReport:
    """Verify holder signature, challenge, subject binding, and every credential.

    The challenge comparison is exact byte equality against the value this
    verifier issued; presenting a captured response to any other challenge
    fails, which is the replay protection.
    """
    report = PresentationReport(holder=vp.holder)
    at = at or utc_now()

    signature, _ = check_proof(vp.to_json(), vp.holder, resolver, role="Holder")
    if signature.status is CheckStatus.VALID:
        signature = CheckResult(CheckStatus.VALID, "HolderSignatureValid")
    report.checks["holderSignature"] = signature

    presented = vp.proof.challenge if vp.proof else None
    if presented and expected_challenge and presented == expected_challenge:
        report.checks["challenge"] = CheckResult(CheckStatus.VALID, "ChallengeMatch")
    else:
        report.checks["challenge"] = CheckResult(
            CheckStatus.INVALID,
            "ChallengeMismatch",
            f"presented {presented!r}, expected {expected_challenge!r}",
        )

    if not vp.credentials:
        report.checks["subjectBinding"] = CheckResult(
            CheckStatus.INVALID, "NoCredentials", "presentation embeds no credentials"
        )
    else:
        strangers = [vc.id for vc in vp.credentials if vc.subject_id != vp.holder]
        if strangers:
            report.checks["subjectBinding"] = CheckResult(
                CheckStatus.INVALID,
                "HolderNotSubject",
                f"holder {vp.holder} is not the subject of {', '.join(strangers)}",
            )
        else:
            report.checks["subjectBinding"] = CheckResult(CheckStatus.VALID, "SubjectsMatch")

    for vc in vp.credentials:
        report.credential_reports.append(
            verify_credential(vc, resolver, at=at, registry_source=registry_source,
                              clock_skew=clock_skew)
        )
    return report
