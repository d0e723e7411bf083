"""Linked-data style proofs shared by credentials, presentations, registries,
and message envelopes.

Every signed document carries its proof under ``proof``, as W3C Data
Integrity puts it. One sign-over rule everywhere: the signature covers the
canonical bytes of the whole document with the proof block present but its
``signatureValue`` removed. Verifying re-derives exactly those bytes. A proof
may carry Data Integrity's ``challenge`` and ``domain`` options, which it signs
like every other member: a presentation names the verifier's nonce and the
verifier's DID in them, and a proof with any other member is refused.

One check everywhere, too: ``check_proof`` resolves the signer's DID, finds
the proof's key in that document and verifies the canonical bytes. A
signature that verified once is not verified again by the same ``Resolver``:
each resolver remembers, in a bounded set of its own, the successes it saw,
keyed by the key the signer publishes now, the signature and the SHA-256 of
the signing bytes. A failure is never remembered, and no two resolvers share
what they remember.

Timestamps are RFC 3339 §5.6 date-times in UTC at second precision:
``YYYY-MM-DDTHH:MM:SSZ`` with ASCII digits, ``T`` and ``Z`` in either case.
``parse_timestamp`` reads that form and nothing else; a date of that form
that does not exist is refused too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from datetime import datetime, timezone
from typing import NamedTuple

from .canonical import canonicalize
from .did import base_did
from .errors import (
    DatacredError,
    DocumentInvalid,
    FetchFailed,
    MalformedKey,
    MalformedSignature,
    NotFound,
    UnsupportedMethod,
)
from .jsonfile import OBJECT, Field, json_document, kept, member, refusal
from .keys import KeyPair, Signature, sign, verify_signature
from .reports import CheckResult, CheckStatus

PROOF_TYPE = "Ed25519Signature2018"
ASSERTION = "assertionMethod"
AUTHENTICATION = "authentication"

_TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
_TIMESTAMP_RE = re.compile(r"(\d{4})-(\d\d)-(\d\d)[Tt](\d\d):(\d\d):(\d\d)[Zz]", re.ASCII)
_malformed = refusal(DocumentInvalid, "malformed proof: ")


def utc_now() -> datetime:
    return datetime.now(timezone.utc).replace(microsecond=0)


def format_timestamp(moment: datetime) -> str:
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc).strftime(_TIMESTAMP_FORMAT)


def parse_timestamp(text: str) -> datetime:
    """The moment text names; ValueError for anything else, a non-string included."""
    if not isinstance(text, str):
        raise ValueError(f"timestamp must be a string, not {type(text).__name__}")
    if fields := _TIMESTAMP_RE.fullmatch(text):
        try:
            return datetime(*map(int, fields.groups()), tzinfo=timezone.utc)
        except ValueError:  # a date of that form that does not exist
            pass
    raise ValueError(f"{text!r} is not an RFC 3339 UTC timestamp")


@json_document(_malformed, Field("type", "type"), Field("created", "created"),
               Field("verificationMethod", "verification_method"),
               Field("proofPurpose", "proof_purpose"), Field("signatureValue", "signature_value"),
               Field("challenge", "challenge", optional=True, omit=None),
               Field("domain", "domain", optional=True, omit=None))
class Proof(NamedTuple):
    """Signature block embedded in a signed JSON document."""

    created: str
    verification_method: str
    proof_purpose: str
    signature_value: str
    challenge: str | None = None
    domain: str | None = None
    type: str = PROOF_TYPE

    def signature(self) -> Signature:
        return Signature.from_base58(self.signature_value)


# The proof member of a signed document: optional, and written only when present.
PROOF_FIELD = Field("proof", "proof", OBJECT, optional=True, omit=None, parse=Proof.from_json,
                    emit=Proof.to_json)


def signing_bytes(document: dict) -> bytes:
    """Canonical bytes the proof signs: the document minus signatureValue."""
    proof = dict(document.get("proof") or {})
    proof.pop("signatureValue", None)
    return canonicalize({**document, "proof": proof})


def attach_proof(
    document: dict,
    key: KeyPair,
    verification_method: str,
    proof_purpose: str,
    challenge: str | None = None,
    created: str | None = None,
    domain: str | None = None,
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
    if domain is not None:
        proof["domain"] = domain
    signed = {**document, "proof": proof}
    signature = sign(key, signing_bytes(signed))
    signed["proof"] = {**proof, "signatureValue": signature.to_base58()}
    return signed


def sign_document(document, key: KeyPair, method: str, purpose: str, **options):
    """A copy of document with attach_proof's proof, keeping the JSON it was signed as."""
    signed = attach_proof(document.to_json(), key, method, purpose, **options)
    return kept(dataclasses.replace(document, proof=Proof.from_json(signed["proof"])), signed)


def verify_proof(document: dict, public_key: bytes) -> bool:
    """Check the document's proof against a public key.

    Returns False for a failed signature; raises DocumentInvalid when the proof block is
    missing or malformed, and MalformedSignature when its signature bytes are unusable.
    """
    proof = Proof.from_json(member(document, "proof", OBJECT, _malformed))
    return verify_signature(public_key, signing_bytes(document), proof.signature())


SIGNATURE_VALID = CheckResult(CheckStatus.VALID, "SignatureValid")
SIGNATURE_MISMATCH = CheckResult(CheckStatus.INVALID, "SignatureMismatch")
MISSING_PROOF = CheckResult(CheckStatus.INVALID, "MissingProof")


def check_proof(
    document: dict, signer: str, resolver, role: str = "Issuer", verified: bytes | None = None
) -> tuple[CheckResult, tuple[bytes, str] | None]:
    """Check a document's proof against the key its signer's DID publishes.

    Returns the result and the (public key, purpose) the signer publishes for the
    proof's method, None when no key was found. ``role`` names the signer in the reason
    codes ``VerificationMethodNot<role>``, ``<role>Unresolvable`` and
    ``<role>DocumentInvalid``. Failures to resolve are Indeterminate; every other failure
    is Invalid. ``verified`` is a key this very document's proof verified under before:
    while the signer publishes it, the signing bytes are not even made.
    """
    proof_obj = document.get("proof")
    if not isinstance(proof_obj, dict):
        return MISSING_PROOF, None
    try:
        proof = Proof.from_json(proof_obj)
    except DocumentInvalid as exc:
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
    public_key, _ = located
    if public_key == verified:
        return SIGNATURE_VALID, located
    message = signing_bytes(document)
    seen = (public_key, proof.signature_value, hashlib.sha256(message).digest())
    try:
        ok = resolver.verified_once(
            seen, lambda: verify_signature(public_key, message, proof.signature())
        )
    except (MalformedSignature, MalformedKey) as exc:
        return CheckResult(CheckStatus.INVALID, "MalformedProof", str(exc)), located
    if not ok:
        return SIGNATURE_MISMATCH, located
    return SIGNATURE_VALID, located
