"""Linked-data style proofs shared by credentials, presentations, registries,
and message envelopes.

One sign-over rule everywhere: the signature covers the canonical bytes of
the whole document with the proof block present but its ``signatureValue``
removed. Verifying re-derives exactly those bytes.

One check rule everywhere, too: ``check_proof`` resolves the signer's DID,
finds the proof's key in that document and verifies the canonical bytes.

Timestamps are RFC 3339 UTC at second precision with a trailing ``Z``.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

from .canonical import canonicalize
from .did import base_did
from .errors import (
    DatacredError,
    FetchFailed,
    MalformedKey,
    MalformedSignature,
    NotFound,
    UnsupportedMethod,
)
from .keys import KeyPair, Signature, sign, verify_signature
from .reports import CheckResult, CheckStatus

PROOF_TYPE = "Ed25519Signature2018"
ASSERTION = "assertionMethod"
AUTHENTICATION = "authentication"

_TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


def utc_now() -> datetime:
    return datetime.now(timezone.utc).replace(microsecond=0)


def format_timestamp(moment: datetime) -> str:
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc).strftime(_TIMESTAMP_FORMAT)


def parse_timestamp(text: str) -> datetime:
    return datetime.strptime(text, _TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)


@dataclass(frozen=True)
class Proof:
    """Signature block embedded in a signed JSON document."""

    created: str
    verification_method: str
    proof_purpose: str
    signature_value: str
    challenge: str | None = None
    type: str = PROOF_TYPE

    def to_json(self) -> dict:
        out = {
            "type": self.type,
            "created": self.created,
            "verificationMethod": self.verification_method,
            "proofPurpose": self.proof_purpose,
            "signatureValue": self.signature_value,
        }
        if self.challenge is not None:
            out["challenge"] = self.challenge
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Proof":
        try:
            proof = cls(
                type=obj["type"],
                created=obj["created"],
                verification_method=obj["verificationMethod"],
                proof_purpose=obj["proofPurpose"],
                signature_value=obj["signatureValue"],
                challenge=obj.get("challenge"),
            )
        except KeyError as exc:
            raise MalformedSignature(f"proof missing field {exc}") from exc
        fields = (proof.type, proof.created, proof.verification_method, proof.proof_purpose,
                  proof.signature_value, proof.challenge or "")
        if not all(isinstance(value, str) for value in fields):
            raise MalformedSignature("proof fields must be strings")
        return proof

    def signature(self) -> Signature:
        return Signature.from_base58(self.signature_value)


def signing_bytes(document: dict, proof_field: str = "proof") -> bytes:
    """Canonical bytes the proof signs: the document minus signatureValue."""
    stripped = dict(document)
    proof = dict(stripped.get(proof_field) or {})
    proof.pop("signatureValue", None)
    stripped[proof_field] = proof
    return canonicalize(stripped)


def attach_proof(
    document: dict,
    key: KeyPair,
    verification_method: str,
    proof_purpose: str,
    challenge: str | None = None,
    created: str | None = None,
    proof_field: str = "proof",
) -> dict:
    """Return a copy of document carrying a freshly computed proof."""
    proof = {
        "type": PROOF_TYPE,
        "created": created or format_timestamp(utc_now()),
        "verificationMethod": verification_method,
        "proofPurpose": proof_purpose,
    }
    if challenge is not None:
        proof["challenge"] = challenge
    signed = dict(document)
    signed[proof_field] = proof
    signature = sign(key, signing_bytes(signed, proof_field))
    signed[proof_field] = {**proof, "signatureValue": signature.to_base58()}
    return signed


def verify_proof(document: dict, public_key: bytes, proof_field: str = "proof") -> bool:
    """Check the document's proof against a public key.

    Returns False for a failed signature; raises MalformedSignature when the
    proof block itself is structurally unusable.
    """
    proof_obj = document.get(proof_field)
    if not isinstance(proof_obj, dict):
        raise MalformedSignature(f"document has no {proof_field} object")
    proof = Proof.from_json(proof_obj)
    return verify_signature(public_key, signing_bytes(document, proof_field), proof.signature())


def check_proof(
    document: dict, signer: str, resolver, proof_field: str = "proof", role: str = "Issuer"
) -> tuple[CheckResult, str | None]:
    """Check a document's proof against the key its signer's DID publishes.

    Returns the result and the purpose the key was published for (None when
    no key was found). ``role`` names the signer in the reason codes
    ``VerificationMethodNot<role>``, ``<role>Unresolvable`` and
    ``<role>DocumentInvalid``. Failures to resolve are Indeterminate; every
    other failure is Invalid.
    """
    proof_obj = document.get(proof_field)
    if not isinstance(proof_obj, dict):
        return CheckResult(CheckStatus.INVALID, "MissingProof"), None
    try:
        proof = Proof.from_json(proof_obj)
    except MalformedSignature as exc:
        return CheckResult(CheckStatus.INVALID, "MalformedProof", str(exc)), None
    method = proof.verification_method
    if base_did(method) != signer:
        detail = f"{method} is not a key of {signer}"
        return CheckResult(CheckStatus.INVALID, f"VerificationMethodNot{role}", detail), None
    try:
        did_document = resolver.resolve(signer)
    except (FetchFailed, NotFound, UnsupportedMethod) as exc:
        return CheckResult(CheckStatus.INDETERMINATE, f"{role}Unresolvable", str(exc)), None
    except DatacredError as exc:
        return CheckResult(CheckStatus.INDETERMINATE, f"{role}DocumentInvalid", str(exc)), None
    located = did_document.find_key(method)
    if located is None:
        detail = f"{method} not published by {signer}"
        return CheckResult(CheckStatus.INVALID, "UnknownVerificationMethod", detail), None
    public_key, purpose = located
    try:
        ok = verify_signature(public_key, signing_bytes(document, proof_field), proof.signature())
    except (MalformedSignature, MalformedKey) as exc:
        return CheckResult(CheckStatus.INVALID, "MalformedProof", str(exc)), purpose
    if not ok:
        return CheckResult(CheckStatus.INVALID, "SignatureMismatch"), purpose
    return CheckResult(CheckStatus.VALID, "SignatureValid"), purpose
