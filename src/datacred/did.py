"""Decentralized identifiers and their public-key documents.

Supports two methods:

- ``did:web`` — the document lives on the controller's website at a
  well-known path, inheriting the site's certificate-based trust.
- ``did:key`` — the identifier itself encodes the Ed25519 public key
  (multicodec 0xed01 prefix, base58, ``z`` multibase marker), so resolution
  never touches the network. Used for tests and offline identities.

Document shape follows the minimal historical form: ``@context``, ``id``,
inline ``authentication`` methods of type ``Ed25519VerificationKey2018``
carrying ``publicKeyBase58``, plus an optional ``assertionMethod`` list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .base58 import b58decode, b58encode
from .errors import BadKey, DocumentInvalid, MalformedDid, WrongMethod
from .jsonfile import ANY, LIST, Field, each, json_document, refusal

DID_CONTEXT = "https://w3id.org/did/v1"
KEY_TYPE = "Ed25519VerificationKey2018"
_MULTICODEC_ED25519 = b"\xed\x01"

_METHOD_RE = re.compile(r"[a-z0-9]+")
_SEGMENT_RE = re.compile(r"[A-Za-z0-9._%-]+")
_invalid_method = refusal(DocumentInvalid, "verification method ")
_invalid_document = refusal(DocumentInvalid, "DID document ")


@dataclass(frozen=True)
class Did:
    method: str
    method_specific_id: str

    @property
    def text(self) -> str:
        return f"did:{self.method}:{self.method_specific_id}"

    def __str__(self) -> str:
        return self.text


def parse_did(text: str) -> Did:
    """Parse and validate a DID string."""
    if not isinstance(text, str) or not text.startswith("did:"):
        raise MalformedDid(f"{text!r}: missing did: prefix")
    rest = text[len("did:"):]
    method, sep, msid = rest.partition(":")
    if not sep or not _METHOD_RE.fullmatch(method):
        raise MalformedDid(f"{text!r}: bad method")
    if not msid:
        raise MalformedDid(f"{text!r}: empty method-specific id")
    for segment in msid.split(":"):
        if not _SEGMENT_RE.fullmatch(segment):
            raise MalformedDid(f"{text!r}: illegal segment {segment!r}")
    return Did(method=method, method_specific_id=msid)


def base_did(did_url: str) -> str:
    """Strip any fragment from a DID URL, leaving the bare identifier."""
    return did_url.split("#", 1)[0]


def did_web_url(did: Did) -> str:
    """Map a did:web identifier to the URL of its document.

    ``did:web:host`` uses the well-known path; extra colon-separated
    segments become path components; ``%3A`` or ``%3a`` in the host carries a port.
    """
    if did.method != "web":
        raise WrongMethod(f"{did.text} is not did:web")
    segments = did.method_specific_id.split(":")
    host = segments[0].replace("%3A", ":").replace("%3a", ":")
    if len(segments) == 1:
        return f"https://{host}/.well-known/did.json"
    path = "/".join(segments[1:])
    return f"https://{host}/{path}/did.json"


@json_document(
    _invalid_method, Field("id", "id"), Field("type", "type"), Field("controller", "controller"),
    # Any key is read: public_key_bytes refuses one that is not base58 text.
    Field("publicKeyBase58", "public_key_base58", ANY), closed=False)
@dataclass
class VerificationMethod:
    """One public key published in a DID document."""

    id: str
    controller: str
    public_key_base58: str
    type: str = KEY_TYPE
    _raw: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def public_key_bytes(self) -> bytes:
        """The decoded key; decoded once, at the first call (DidDocument.validate's)."""
        if self._raw is None:
            try:
                raw = b58decode(self.public_key_base58)
            except ValueError as exc:
                raise DocumentInvalid(f"{self.id}: bad key encoding: {exc}") from exc
            if len(raw) != 32:
                raise DocumentInvalid(f"{self.id}: key decodes to {len(raw)} bytes, want 32")
            self._raw = raw
        return self._raw


def _validated(**fields) -> "DidDocument":
    document = DidDocument(**fields)
    document.validate()
    return document


@json_document(_invalid_document, Field("@context", "context", (str, list), optional=True),
               Field("id", "id"),
               Field("authentication", "authentication", LIST, optional=True,
                     **each(VerificationMethod)),
               Field("assertionMethod", "assertion_method", LIST, optional=True, omit=[],
                     **each(VerificationMethod)),
               closed=False, build=_validated)
@dataclass
class DidDocument:
    """Resolvable public-key document for an identifier."""

    id: str
    authentication: list[VerificationMethod] = field(default_factory=list)
    assertion_method: list[VerificationMethod] = field(default_factory=list)
    context: str | list[str] = DID_CONTEXT

    def validate(self) -> None:
        """Enforce structural invariants before the document is trusted."""
        try:
            parse_did(self.id)
        except MalformedDid as exc:
            raise _invalid_document(f"id {exc}") from None
        methods = self.authentication + self.assertion_method
        if not methods:
            raise DocumentInvalid(f"{self.id}: no verification methods")
        usable = 0
        for method in methods:
            if method.controller != self.id:
                raise DocumentInvalid(
                    f"{method.id}: controller {method.controller} is not the document id"
                )
            method.public_key_bytes()
            if method.type == KEY_TYPE:
                usable += 1
        if not usable:
            raise DocumentInvalid(f"{self.id}: no usable {KEY_TYPE} key")

    def find_key(self, verification_method_id: str) -> tuple[bytes, str] | None:
        """Locate a key for a proof's verificationMethod.

        Returns (public key bytes, proof purpose the key was published for),
        or None. A bare DID or a DID URL whose base matches the document id
        falls back to the first authentication key, since minimal documents
        publish the key under the document id itself.
        """
        for method in self.assertion_method:
            if method.id == verification_method_id:
                return method.public_key_bytes(), "assertionMethod"
        for method in self.authentication:
            if method.id == verification_method_id:
                return method.public_key_bytes(), "authentication"
        if base_did(verification_method_id) == self.id and self.authentication:
            return self.authentication[0].public_key_bytes(), "authentication"
        return None


def one_key_document(did: Did, public_key: bytes) -> DidDocument:
    """The minimal document, valid as made: one authentication key, under the DID itself."""
    method = VerificationMethod(did.text, did.text, b58encode(public_key))
    method._raw = public_key
    return DidDocument(id=did.text, authentication=[method])


def generate_did_key(public_key: bytes) -> tuple[Did, DidDocument]:
    """Derive a did:key identifier and its self-contained document."""
    if not isinstance(public_key, bytes) or len(public_key) != 32:
        raise BadKey("did:key requires a raw 32-byte Ed25519 public key")
    msid = "z" + b58encode(_MULTICODEC_ED25519 + public_key)
    did = Did(method="key", method_specific_id=msid)
    return did, one_key_document(did, public_key)


def did_key_public_key(did: Did) -> bytes:
    """Extract the Ed25519 public key a did:key identifier encodes."""
    if did.method != "key":
        raise WrongMethod(f"{did.text} is not did:key")
    msid = did.method_specific_id
    if not msid.startswith("z"):
        raise MalformedDid(f"{did.text}: expected multibase base58 (z...)")
    try:
        decoded = b58decode(msid[1:])
    except ValueError as exc:
        raise MalformedDid(f"{did.text}: {exc}") from exc
    if decoded[:2] != _MULTICODEC_ED25519 or len(decoded) != 34:
        raise MalformedDid(f"{did.text}: not a multicodec Ed25519 key")
    return decoded[2:]
