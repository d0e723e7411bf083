"""Signed message envelopes exchanged between agents.

Authenticity lives at the message layer, not the transport: every envelope
carries a proof by the sender's DID key over the canonical envelope bytes
(signatureValue excluded). Receivers resolve the sender's DID and verify
before touching the body.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass

from ..errors import SignatureInvalid
from ..keys import KeyPair
from ..proofs import AUTHENTICATION, Proof, attach_proof, check_proof, format_timestamp, utc_now
from ..reports import CheckStatus
from ..resolver import Resolver

PROTOCOL = "datacred/1.0"

CONNECTION_REQUEST = f"{PROTOCOL}/connection-request"
CONNECTION_RESPONSE = f"{PROTOCOL}/connection-response"
CREDENTIAL_ISSUE = f"{PROTOCOL}/credential-issue"
CREDENTIAL_ACK = f"{PROTOCOL}/credential-ack"
PROOF_REQUEST = f"{PROTOCOL}/proof-request"
PROOF_RESPONSE = f"{PROTOCOL}/proof-response"
PROBLEM_REPORT = f"{PROTOCOL}/problem-report"

SIGNATURE_FIELD = "signature"


@dataclass
class MessageEnvelope:
    id: str
    type: str
    sender: str
    recipient: str
    created_at: str
    body: dict
    signature: Proof | None = None

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "type": self.type,
            "from": self.sender,
            "to": self.recipient,
            "createdAt": self.created_at,
            "body": self.body,
        }
        if self.signature is not None:
            out[SIGNATURE_FIELD] = self.signature.to_json()
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "MessageEnvelope":
        try:
            signature = obj.get(SIGNATURE_FIELD)
            return cls(
                id=obj["id"],
                type=obj["type"],
                sender=obj["from"],
                recipient=obj["to"],
                created_at=obj["createdAt"],
                body=dict(obj["body"]),
                signature=Proof.from_json(signature) if signature else None,
            )
        except (AttributeError, KeyError, TypeError) as exc:  # AttributeError: not an object
            raise SignatureInvalid(f"malformed envelope: {exc}") from exc


def build_envelope(
    key: KeyPair, sender_did: str, recipient_did: str, message_type: str, body: dict
) -> dict:
    """Construct and sign an envelope, returning its wire JSON."""
    envelope = MessageEnvelope(
        id=str(uuid.uuid4()),
        type=message_type,
        sender=sender_did,
        recipient=recipient_did,
        created_at=format_timestamp(utc_now()),
        body=body,
    )
    return attach_proof(
        envelope.to_json(),
        key,
        verification_method=sender_did,
        proof_purpose=AUTHENTICATION,
        proof_field=SIGNATURE_FIELD,
    )


def verify_envelope(obj: dict, resolver: Resolver) -> MessageEnvelope:
    """Parse an envelope and verify its signature against the sender's DID.

    Raises SignatureInvalid when the envelope is malformed or unsigned, the
    sender does not resolve, the key is not the sender's, or the signature
    fails.
    """
    envelope = MessageEnvelope.from_json(obj)
    result, _ = check_proof(obj, envelope.sender, resolver, SIGNATURE_FIELD, role="Sender")
    if result.status is not CheckStatus.VALID:
        raise SignatureInvalid(f"envelope {envelope.id}: {result.reason} {result.detail}".rstrip())
    return envelope
