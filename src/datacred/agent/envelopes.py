"""Message envelopes exchanged between agents.

Authenticity lives at the message layer, not the transport. Each message is signed
once: a type in SIGNED carries, under ``proof`` like every other signed document, a
proof by the sender's DID key over the canonical envelope bytes (signatureValue
excluded). A credential issue is authenticated by its credential's issuer proof; a
proof response, an unsigned ``{"type", "from", "to", "body"}``, by the holder's
presentation, bound by ``challenge`` and ``domain``; a credential ack, the same plain
shape, by nothing (agent.service states the rule). A receiver refuses an envelope
addressed to another DID (addressed_envelope), then, for a SIGNED type, resolves the
sender's DID and verifies (check_sender) before touching the body. The proof of a type
not in SIGNED is dropped unread. An inbox refuses a stale SIGNED one first (check_fresh).
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass

from ..errors import DatacredError, DocumentInvalid, SignatureInvalid, StaleMessage, WrongRecipient
from ..jsonfile import ANY, OBJECT, Field, json_document, refusal
from ..keys import KeyPair
from ..proofs import AUTHENTICATION, Proof, attach_proof, check_proof, format_timestamp
from ..proofs import parse_timestamp, utc_now
from ..reports import CheckStatus
from ..resolver import Resolver

PROTOCOL = "datacred/1.0"

CONNECTION_REQUEST = f"{PROTOCOL}/connection-request"
CONNECTION_RESPONSE = f"{PROTOCOL}/connection-response"
CREDENTIAL_ISSUE = f"{PROTOCOL}/credential-issue"
CREDENTIAL_ACK = f"{PROTOCOL}/credential-ack"
PROOF_REQUEST = f"{PROTOCOL}/proof-request"
PROOF_RESPONSE = f"{PROTOCOL}/proof-response"

SIGNED = frozenset({CONNECTION_REQUEST, CONNECTION_RESPONSE, PROOF_REQUEST})  # envelope proofs
MESSAGE_WINDOW = 300  # seconds a signed envelope's createdAt may lie from now, either way

_malformed = refusal(SignatureInvalid, "malformed envelope: ")


def _proof(obj: dict) -> Proof:
    try:
        return Proof.from_json(obj)
    except DocumentInvalid as exc:  # a malformed proof, refused as the envelope is
        raise _malformed(str(exc)) from exc


@json_document(
    _malformed, Field("id", "id"),
    Field("type", "type", ANY),  # handle_envelope refuses an unknown type
    Field("from", "sender"), Field("to", "recipient"), Field("createdAt", "created_at"),
    Field("body", "body", OBJECT, parse=dict),
    Field("proof", "proof", OBJECT, optional=True, omit=None, parse=_proof, emit=Proof.to_json))
@dataclass
class MessageEnvelope:
    id: str
    type: str
    sender: str
    recipient: str
    created_at: str
    body: dict
    proof: Proof | None = None


def build_envelope(
    key: KeyPair | None, sender_did: str, recipient_did: str, message_type: str, body: dict
) -> dict:
    """Construct an envelope, signed by key unless it is None, returning its wire JSON."""
    envelope = MessageEnvelope(
        id=str(uuid.uuid4()),
        type=message_type,
        sender=sender_did,
        recipient=recipient_did,
        created_at=format_timestamp(utc_now()),
        body=body,
    ).to_json()
    if key is None:  # a type not in SIGNED
        return envelope
    return attach_proof(envelope, key, verification_method=sender_did,
                        proof_purpose=AUTHENTICATION)


def verify_envelope(obj: dict, resolver: Resolver, recipient: str) -> MessageEnvelope:
    """The envelope obj holds, addressed to recipient, the receiving agent's DID, and
    signed by its sender: addressed_envelope, then check_sender."""
    return check_sender(obj, addressed_envelope(obj, recipient), resolver)


def addressed_envelope(obj: dict, recipient: str) -> MessageEnvelope:
    """The envelope obj holds, resolving nothing: WrongRecipient when it is addressed to
    another DID than recipient, SignatureInvalid when it, or a SIGNED type's proof, is
    malformed."""
    if isinstance(obj, dict) and "proof" in obj:
        kind = obj.get("type")
        if not (isinstance(kind, str) and kind in SIGNED):  # a proof no one reads
            obj = {name: value for name, value in obj.items() if name != "proof"}
    envelope = MessageEnvelope.from_json(obj)
    if envelope.recipient != recipient:
        raise WrongRecipient(f"envelope {envelope.id} is addressed to "
                             f"{envelope.recipient}, not {recipient}")
    return envelope


def check_fresh(envelope: MessageEnvelope) -> None:
    """Refuse envelope, by StaleMessage, unless its createdAt is within MESSAGE_WINDOW."""
    created = envelope.created_at
    try:
        if abs((parse_timestamp(created) - utc_now()).total_seconds()) <= MESSAGE_WINDOW:
            return
    except ValueError:  # not a timestamp
        pass
    raise StaleMessage(f"{envelope.id}: createdAt {created!r} is over {MESSAGE_WINDOW} s from now")


def check_sender(obj: dict, envelope: MessageEnvelope, resolver: Resolver) -> MessageEnvelope:
    """envelope, the parse of obj, once obj's signature verifies against the sender's DID;
    else SignatureInvalid: it is unsigned or has no canonical form, the sender does not
    resolve, the key is not the sender's, or the signature fails."""
    try:
        result, _ = check_proof(obj, envelope.sender, resolver, role="Sender")
    except DatacredError as exc:  # a body with no canonical form
        raise SignatureInvalid(f"malformed envelope: {exc}") from exc
    if result.status is not CheckStatus.VALID:
        raise SignatureInvalid(f"envelope {envelope.id}: {result.reason} {result.detail}".rstrip())
    return envelope
