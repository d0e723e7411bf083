"""Ed25519 key generation, signing, and verification.

The only signature suite in this toolkit is Ed25519 (fixed by the
``Ed25519VerificationKey2018`` verification-method type used throughout).
Keys are 32-byte seeds/points; signatures are 64 bytes, carried in
documents as base58 strings. A ``KeyPair`` parses its seed into a signing key
and joins seed and public key into libsodium's secret key once, when it is made.

Signing and verifying use libsodium, loaded with ``ctypes`` at the first call when
one of ``_SONAMES`` loads, and ``cryptography``, which also generates keys, otherwise;
Ed25519 signing is deterministic (RFC 8032 section 5.1.6), so both sign the same
bytes. libsodium's acceptance rule runs in front of both verify backends:
a key with y >= 2^255-19 or a small-order key is ``MalformedKey``, a small-order
``R`` is a rejection, and ``S`` must be below the group order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .base58 import b58decode, b58encode
from .errors import BadSeedLength, DocumentInvalid, MalformedKey, MalformedSignature
from .jsonfile import Field, json_document, refusal

SEED_LENGTH = 32
PUBLIC_KEY_LENGTH = 32
SIGNATURE_LENGTH = 64
_P = 2**255 - 19
_Y = (1 << 255) - 1  # an encoding's y: its sign bit cleared
# y of the encodings libsodium blocks as small order (ge25519_has_small_order)
_SMALL_ORDER = frozenset(int.from_bytes(bytes.fromhex(order_8), "little") for order_8 in (
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
)) | {0, 1, _P - 1, _P, _P + 1}
_SONAMES = ("libsodium.so.23", "libsodium.so.26", "libsodium.23.dylib", "libsodium.26.dylib")
_sodium = None  # libsodium's (detached sign, detached verify) once looked up; False without it


def _key_bytes(text: str) -> bytes:
    try:
        return b58decode(text)
    except ValueError as exc:  # not base58 text
        raise DocumentInvalid(f"malformed keypair: {exc}") from None


@json_document(refusal(DocumentInvalid, "malformed keypair: "),
               Field("publicKeyBase58", "public_key", parse=_key_bytes, emit=b58encode),
               Field("privateKeyBase58", "private_key", parse=_key_bytes, emit=b58encode),
               closed=False)
@dataclass(frozen=True)
class KeyPair:
    """An Ed25519 keypair as raw 32-byte seed and derived public key."""

    public_key: bytes
    private_key: bytes = field(repr=False)
    # The parsed seed; generate_keypair hands over the key it already parsed.
    _signer: Ed25519PrivateKey | None = field(default=None, kw_only=True, repr=False, compare=False)
    _secret: bytes = field(init=False, repr=False, compare=False)  # libsodium's: seed, public key

    def __post_init__(self) -> None:
        signer = self._signer or _parse_seed(self.private_key)
        if signer.private_bytes_raw() != self.private_key:
            raise MalformedKey("signing key does not hold the private seed")
        if signer.public_key().public_bytes_raw() != self.public_key:
            raise MalformedKey("public key does not match the private seed")
        object.__setattr__(self, "_signer", signer)
        object.__setattr__(self, "_secret", self.private_key + self.public_key)

    @property
    def public_key_base58(self) -> str:
        return b58encode(self.public_key)


@dataclass(frozen=True)
class Signature:
    """A 64-byte Ed25519 signature."""

    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) != SIGNATURE_LENGTH:
            raise MalformedSignature(
                f"signature must be {SIGNATURE_LENGTH} bytes, got {len(self.value)}"
            )

    def to_base58(self) -> str:
        return b58encode(self.value)

    @classmethod
    def from_base58(cls, text: str) -> "Signature":
        try:
            raw = b58decode(text)
        except ValueError as exc:
            raise MalformedSignature(str(exc)) from exc
        return cls(raw)


def _parse_seed(seed: bytes) -> Ed25519PrivateKey:
    if len(seed) != SEED_LENGTH:
        raise BadSeedLength(f"seed must be {SEED_LENGTH} bytes, got {len(seed)}")
    return Ed25519PrivateKey.from_private_bytes(seed)


def generate_keypair(seed: bytes | None = None) -> KeyPair:
    """Create a keypair; deterministic when a 32-byte seed is supplied."""
    signer = Ed25519PrivateKey.generate() if seed is None else _parse_seed(seed)
    return KeyPair(
        public_key=signer.public_key().public_bytes_raw(),
        private_key=signer.private_bytes_raw(),
        _signer=signer,
    )


def sign(key: KeyPair, message: bytes) -> Signature:
    """Sign message bytes; deterministic for a fixed (key, message)."""
    if sodium := _backend():
        return Signature(sodium[0](memoryview(message).tobytes(), key._secret))
    return Signature(key._signer.sign(message))


def _load_sodium():
    import ctypes

    for name in _SONAMES:
        try:
            library = ctypes.CDLL(name)
        except OSError:
            continue
        if library.sodium_init() >= 0:
            detached = library.crypto_sign_ed25519_detached
            detached.argtypes = (ctypes.c_char_p, ctypes.c_void_p, ctypes.c_char_p,
                                 ctypes.c_ulonglong, ctypes.c_char_p)
            verify = library.crypto_sign_ed25519_verify_detached
            verify.argtypes = (ctypes.c_char_p,) * 2 + (ctypes.c_ulonglong, ctypes.c_char_p)
            verify.restype = detached.restype = ctypes.c_int

            def sign_detached(message: bytes, secret: bytes) -> bytes:
                signature = ctypes.create_string_buffer(SIGNATURE_LENGTH)
                detached(signature, None, message, len(message), secret)
                return signature.raw

            return sign_detached, verify
    return False


def _backend():
    """libsodium's (sign, verify), looked up at the first call, or False without it."""
    global _sodium
    if _sodium is None:
        _sodium = _load_sodium()
    return _sodium


def verify_signature(public_key: bytes, message: bytes, sig: Signature | bytes) -> bool:
    """True iff sig is a valid Ed25519 signature on message under public_key.

    Structurally bad inputs raise MalformedKey / MalformedSignature rather
    than reporting a (false) rejection.
    """
    if isinstance(sig, Signature):
        raw = sig.value
    else:
        raw = sig
        if len(raw) != SIGNATURE_LENGTH:
            raise MalformedSignature(
                f"signature must be {SIGNATURE_LENGTH} bytes, got {len(raw)}"
            )
    if len(public_key) != PUBLIC_KEY_LENGTH:
        raise MalformedKey(
            f"public key must be {PUBLIC_KEY_LENGTH} bytes, got {len(public_key)}"
        )
    if (y := int.from_bytes(public_key, "little") & _Y) >= _P or y in _SMALL_ORDER:
        raise MalformedKey(f"public key is {'not canonical' if y >= _P else 'of small order'}")
    if int.from_bytes(raw[:32], "little") & _Y in _SMALL_ORDER:
        return False
    if sodium := _backend():
        message = message if isinstance(message, bytes) else memoryview(message).tobytes()
        return sodium[1](bytes(raw), message, len(message), public_key) == 0
    try:  # from_public_bytes refuses only a length, checked above
        Ed25519PublicKey.from_public_bytes(public_key).verify(raw, message)
        return True
    except InvalidSignature:
        return False
