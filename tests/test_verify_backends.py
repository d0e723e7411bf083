"""One Ed25519 acceptance rule, and the same signatures, on both backends.

keys.sign and keys.verify_signature go through libsodium when the system library
loads and through cryptography when it does not. Signing is deterministic, so
both backends must give byte-identical signatures. verify_signature applies libsodium's
strict rule in front of both. A corpus of honest, bit-flipped and edge-case
signatures must get the same outcome on both backends, and the outcome
libsodium's own verify gives with no rule in front of it. The small-order
encodings the rule blocks are checked against the independent arithmetic in
ed25519_oracle.py.
"""

import ctypes
import random

import pytest

import ed25519_oracle as oracle
from datacred import keys
from datacred.base58 import b58encode
from datacred.did import generate_did_key
from datacred.errors import MalformedKey
from datacred.keys import generate_keypair, sign, verify_signature
from datacred.proofs import ASSERTION, PROOF_TYPE, check_proof
from datacred.resolver import KeyBackend, Resolver

P = oracle.P
L = oracle.Q
IDENTITY = (1).to_bytes(32, "little")
IDENTITY_DID = "did:key:z6MkeXATEjyXENzBXBxgC5EHk2JE5aqd7qMGGtDpLUH1e2Sj"
NEUTRAL = (0, 1, 1, 0)


def encode(y: int, sign_bit: int = 0) -> bytes:
    return (y | sign_bit << 255).to_bytes(32, "little")


def y_of(point) -> int:
    return int.from_bytes(oracle._point_compress(point), "little") & keys._Y


def torsion() -> list:
    """The 8 points of order dividing 8, as [k]T for k = 0..7 and T of order 8."""
    for y in range(2, 100):  # [L]P lies in the 8-torsion; find one of order 8
        point = oracle._point_decompress(encode(y))
        t = point and oracle._point_mul(L, point)
        if t and not oracle._point_equal(oracle._point_mul(4, t), NEUTRAL):
            return [oracle._point_mul(k, t) for k in range(8)]
    raise AssertionError("no point of order 8 found")


def mixed_order_cases(seed: bytes) -> list[tuple[str, object, bytes, bytes, bytes]]:
    """Signatures under the mixed-order key A + T, A = [a]B and T of order 8. With
    S = r + h*a, cofactorless arithmetic accepts R = [r]B - [h]T: a small-order R when
    r = 0, which the rule refuses, and R = [r]B when [h]T is neutral, which both accept."""
    a, _ = oracle._secret_expand(seed)
    points = torsion()
    key = oracle._point_compress(oracle._point_add(oracle._point_mul(a, oracle._G), points[1]))
    cases = []
    for k, r, expected in [(k, 0, False) for k in range(8)] + [(0, 12345, True)]:
        r_point = oracle._point_add(oracle._point_mul(r, oracle._G), points[k])
        encoded = oracle._point_compress(r_point)
        for index in range(1000):
            message = b"mixed %d" % index
            h = int.from_bytes(oracle._sha512(encoded + key + message), "little") % L
            if (h + k) % 8 == 0:  # R + [h]T = [r]B
                s = ((r + h * a) % L).to_bytes(32, "little")
                cases.append((f"mixed-order-key-{k}-{r}", expected, key, message, encoded + s))
                break
        else:
            raise AssertionError(f"no message puts R + [h]T at [r]B for k = {k}")
    return cases


def corpus() -> list[tuple[str, object, bytes, bytes, bytes]]:
    """(case, expected outcome, public key, message, signature)."""
    cases = []
    for index in range(3):
        key = generate_keypair(bytes([index + 1]) * 32)
        message = b"honest message %d" % index
        cases.append((f"honest-{index}", True, key.public_key, message, sign(key, message).value))
    key = generate_keypair(b"\x07" * 32)
    message = b"a signed message"
    signature = sign(key, message).value
    as_int = int.from_bytes(signature, "little")
    for bit in range(512):
        flipped = (as_int ^ 1 << bit).to_bytes(64, "little")
        cases.append((f"signature-bit-{bit}", False, key.public_key, message, flipped))
    for bit in range(256):
        flipped = (int.from_bytes(key.public_key, "little") ^ 1 << bit).to_bytes(32, "little")
        cases.append((f"key-bit-{bit}", False, flipped, message, signature))
    for bit in range(8 * len(message)):
        flipped = (int.from_bytes(message, "little") ^ 1 << bit).to_bytes(len(message), "little")
        cases.append((f"message-bit-{bit}", False, key.public_key, flipped, signature))
    s_plus_l = int.from_bytes(signature[32:], "little") + L
    cases.append(("s-plus-l", False, key.public_key, message,
                  signature[:32] + s_plus_l.to_bytes(32, "little")))
    # R the neutral point and S = h*a: cofactorless arithmetic alone accepts it.
    a, _ = oracle._secret_expand(b"\x07" * 32)
    h = int.from_bytes(oracle._sha512(IDENTITY + key.public_key + message), "little") % L
    cases.append(("neutral-r", False, key.public_key, message,
                  IDENTITY + (h * a % L).to_bytes(32, "little")))
    cases += mixed_order_cases(b"\x07" * 32)
    for y in sorted(keys._SMALL_ORDER):
        for sign_bit in (0, 1):
            small = encode(y, sign_bit)
            name = f"{y:x}-{sign_bit}"
            cases.append((f"small-order-key-{name}", MalformedKey, small, message, signature))
            cases.append((f"small-order-r-{name}", False, key.public_key, message,
                          small + signature[32:]))
            cases.append((f"keyless-{name}", MalformedKey, small, message, small + bytes(32)))
    for y in range(P, 2**255):
        for sign_bit in (0, 1):
            wide = encode(y, sign_bit)
            name = f"{y - P}-{sign_bit}"
            cases.append((f"non-canonical-key-{name}", MalformedKey, wide, message, signature))
            cases.append((f"non-canonical-r-{name}", False, key.public_key, message,
                          wide + signature[32:]))
    return cases


CORPUS = corpus()


def outcomes() -> dict[str, object]:
    results = {}
    for case, _, public_key, message, signature in CORPUS:
        try:
            results[case] = verify_signature(public_key, message, signature)
        except MalformedKey:
            results[case] = MalformedKey
    return results


def test_both_backends_give_every_case_the_same_outcome(monkeypatch):
    monkeypatch.setattr(keys, "_sodium", False)
    through_cryptography = outcomes()
    assert through_cryptography == {case: expected for case, expected, *_ in CORPUS}
    sodium = keys._load_sodium()
    if not sodium:
        pytest.skip("no libsodium loads on this system")
    monkeypatch.setattr(keys, "_sodium", sodium)
    assert outcomes() == through_cryptography
    # The rule in front is libsodium's own: its verify, called bare, agrees on every case.
    bare = {case: sodium[1](signature, message, len(message), public_key) == 0
            for case, _, public_key, message, signature in CORPUS}
    assert bare == {case: outcome is True for case, outcome in through_cryptography.items()}


def test_the_blocked_encodings_are_the_8_torsion():
    """Every blocked y is a point whose order divides 8, and every y of the 8-torsion,
    in each of its encodings below 2**255, is blocked."""
    for y in keys._SMALL_ORDER:
        for sign_bit in (0, 1) if y % P not in (1, P - 1) else (0,):  # x = 0 has no sign
            point = oracle._point_decompress(encode(y % P, sign_bit))
            assert point is not None
            assert oracle._point_equal(oracle._point_mul(8, point), NEUTRAL)
    ys = {y_of(point) for point in torsion()}
    assert len(ys) == 5
    assert keys._SMALL_ORDER == ys | {y + P for y in ys if y + P < 2**255}


@pytest.mark.usefixtures("ed25519_backend")
def test_a_small_order_key_signs_nothing():
    """A keyless forgery: R and the key both the neutral point, S = 0. Without the rule,
    every message verified under this key, and check_proof read SignatureValid."""
    for message in (b"", b"any message at all"):
        with pytest.raises(MalformedKey, match="small order"):
            verify_signature(IDENTITY, message, IDENTITY + bytes(32))
    assert generate_did_key(IDENTITY)[0].text == IDENTITY_DID
    document = {"claim": "anything", "proof": {
        "type": PROOF_TYPE, "created": "2026-01-01T00:00:00Z",
        "verificationMethod": IDENTITY_DID, "proofPurpose": ASSERTION,
        "signatureValue": b58encode(IDENTITY + bytes(32)),
    }}
    result, _ = check_proof(document, IDENTITY_DID, Resolver([KeyBackend()]))
    assert (result.status.value, result.reason) == ("Invalid", "MalformedProof")


@pytest.mark.usefixtures("ed25519_backend")
def test_bytes_like_messages_and_signatures_verify():
    key = generate_keypair(bytes(32))
    signature = sign(key, b"m")
    for message in (b"m", bytearray(b"m"), memoryview(b"m")):
        for sig in (signature, signature.value, bytearray(signature.value),
                    memoryview(signature.value)):
            assert verify_signature(key.public_key, message, sig)
    assert not verify_signature(key.public_key, bytearray(b"n"), signature)
    with pytest.raises(TypeError):
        verify_signature(key.public_key, "m", signature)


def test_both_backends_sign_the_same_bytes(monkeypatch):
    """RFC 8032 §5.1.6: a signature depends only on the key and the message, so libsodium
    and cryptography sign byte-identically, and each backend verifies what either signed."""
    sodium = keys._load_sodium()
    if not sodium:
        pytest.skip("no libsodium loads on this system")
    rng = random.Random(0x5164)
    corpus = [(generate_keypair(rng.randbytes(32)), rng.randbytes(size))
              for _ in range(16) for size in (0, 1, 64, 1024, 65536)]
    signed_by_sodium = []
    counted = (lambda message, secret: (signed_by_sodium.append(message),
                                        sodium[0](message, secret))[1], sodium[1])
    signed = {}
    for name, backend in (("libsodium", counted), ("cryptography", False)):
        monkeypatch.setattr(keys, "_sodium", backend)
        signed[name] = [sign(key, message).value for key, message in corpus]
    assert len(signed_by_sodium) == len(corpus)  # the libsodium run signed through it
    assert signed["libsodium"] == signed["cryptography"]
    for backend in (sodium, False):
        monkeypatch.setattr(keys, "_sodium", backend)
        for signatures in signed.values():
            assert all(verify_signature(key.public_key, message, signature)
                       for (key, message), signature in zip(corpus, signatures))


def test_loading_libsodium_twice_gives_the_same_function():
    first, second = keys._load_sodium(), keys._load_sodium()
    if not first:
        pytest.skip("no libsodium loads on this system")
    verify_at = [ctypes.cast(loaded[1], ctypes.c_void_p).value for loaded in (first, second)]
    assert verify_at[0] == verify_at[1]
