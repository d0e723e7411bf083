"""Ed25519 conformance and signature behavior.

Expected values are RFC 8032 section 7.1 published vectors, cross-checked
against the pure-Python arithmetic in ed25519_oracle.py, which shares no
code with the implementation under test.
"""

import random

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

import ed25519_oracle as oracle
from datacred.base58 import b58decode, b58encode
from datacred.errors import BadSeedLength, DocumentInvalid, MalformedKey, MalformedSignature
from datacred.keys import KeyPair, Signature, generate_keypair, sign, verify_signature

RFC8032_VECTORS = [
    # (secret seed, public key, message, signature), all hex
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
    (
        "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
        "af82",
        "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
        "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
    ),
]

# Computed once with the oracle, frozen as a regression vector.
ZERO_SEED_PUBLIC = "3b6a27bcceb6a42d62a3a8d02a6f0d73653215771de243a63ac048a18b59da29"


@pytest.mark.parametrize("ed25519_backend", ["libsodium", "cryptography"], indirect=True)
@pytest.mark.parametrize("seed_hex,public_hex,message_hex,signature_hex", RFC8032_VECTORS)
def test_rfc8032_vectors(seed_hex, public_hex, message_hex, signature_hex, ed25519_backend):
    keypair = generate_keypair(bytes.fromhex(seed_hex))
    assert keypair.public_key.hex() == public_hex
    message = bytes.fromhex(message_hex)
    signature = sign(keypair, message)
    assert signature.value.hex() == signature_hex
    assert verify_signature(keypair.public_key, message, signature)


def test_zero_seed_derivation_matches_oracle_constant():
    keypair = generate_keypair(bytes(32))
    assert keypair.public_key.hex() == ZERO_SEED_PUBLIC


@pytest.mark.usefixtures("ed25519_backend")
def test_sign_agrees_with_independent_oracle_on_random_messages():
    rng = random.Random(0xD474)
    for _ in range(5):
        seed = rng.randbytes(32)
        message = rng.randbytes(rng.randrange(0, 200))
        keypair = generate_keypair(seed)
        assert keypair.public_key == oracle.public_key(seed)
        signature = sign(keypair, message)
        assert signature.value == oracle.sign(seed, message)
        assert oracle.verify(keypair.public_key, message, signature.value)


def test_random_keypairs_are_distinct():
    assert generate_keypair().public_key != generate_keypair().public_key


def test_bad_seed_length():
    with pytest.raises(BadSeedLength):
        generate_keypair(b"\x00" * 31)
    with pytest.raises(BadSeedLength):
        generate_keypair(b"\x00" * 33)


def test_sign_is_deterministic():
    keypair = generate_keypair(bytes(range(32)))
    assert sign(keypair, b"msg").value == sign(keypair, b"msg").value


def test_roundtrip_and_tamper():
    keypair = generate_keypair()
    message = bytearray(b"the dataset credential payload")
    signature = sign(keypair, bytes(message))
    assert verify_signature(keypair.public_key, bytes(message), signature)
    message[3] ^= 0x01
    assert not verify_signature(keypair.public_key, bytes(message), signature)


def test_verify_rejects_wrong_key():
    keypair, other = generate_keypair(), generate_keypair()
    signature = sign(keypair, b"m")
    assert not verify_signature(other.public_key, b"m", signature)


def test_malformed_inputs_are_distinct_from_rejection():
    keypair = generate_keypair()
    signature = sign(keypair, b"m")
    with pytest.raises(MalformedKey):
        verify_signature(b"\x00" * 31, b"m", signature)
    with pytest.raises(MalformedSignature):
        verify_signature(keypair.public_key, b"m", b"\x00" * 63)
    with pytest.raises(MalformedSignature):
        Signature(b"\x00" * 10)


def test_keypair_rejects_mismatched_public_key():
    a, b = generate_keypair(), generate_keypair()
    with pytest.raises(MalformedKey):
        KeyPair(public_key=b.public_key, private_key=a.private_key)


@pytest.mark.parametrize("member", ["publicKeyBase58", "privateKeyBase58"])
def test_keypair_with_a_key_that_is_not_base58_is_document_invalid(member):
    document = {**generate_keypair(b"\x01" * 32).to_json(), member: "0OIl"}
    with pytest.raises(DocumentInvalid, match="^malformed keypair: invalid base58 character '0'$"):
        KeyPair.from_json(document)


def test_signature_base58_roundtrip():
    keypair = generate_keypair()
    signature = sign(keypair, b"payload")
    encoded = signature.to_base58()
    assert Signature.from_base58(encoded) == signature


def test_base58_known_values():
    # Bitcoin-alphabet vectors checkable by hand from the encoding definition.
    assert b58encode(b"") == ""
    assert b58encode(b"\x00") == "1"
    assert b58encode(b"\x00\x00a") == "112g"
    assert b58decode("112g") == b"\x00\x00a"
    assert b58decode(b58encode(bytes(range(256)))) == bytes(range(256))
    with pytest.raises(ValueError):
        b58decode("0OIl")  # characters outside the alphabet


def test_keypair_repr_hides_the_seed():
    seed = bytes(32)
    keypair = generate_keypair(seed)
    assert repr(seed) not in repr(keypair)
    assert b58encode(seed) not in repr(keypair)
    assert keypair == KeyPair(public_key=bytes.fromhex(ZERO_SEED_PUBLIC), private_key=seed)
    assert keypair != generate_keypair(b"\x01" * 32)
    assert keypair.to_json() == {
        "publicKeyBase58": b58encode(bytes.fromhex(ZERO_SEED_PUBLIC)),
        "privateKeyBase58": b58encode(seed),
    }


def test_a_keypair_parses_its_seed_once(monkeypatch):
    parsed = []
    parse = Ed25519PrivateKey.from_private_bytes
    monkeypatch.setattr(Ed25519PrivateKey, "from_private_bytes",
                        staticmethod(lambda seed: (parsed.append(seed), parse(seed))[1]))
    keypair = generate_keypair(bytes(32))
    assert len(parsed) == 1
    for message in (b"one", b"two"):
        assert verify_signature(keypair.public_key, message, sign(keypair, message))
    assert len(parsed) == 1
    generate_keypair()  # a fresh key is generated, not parsed from its own seed
    assert len(parsed) == 1
