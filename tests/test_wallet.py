"""Encrypted wallet round-trips and failure modes."""

import base64
import json
import secrets
import tempfile
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.scrypt import Scrypt
from hypothesis import given, settings
from hypothesis import strategies as st

from datacred import wallet as wallet_module
from datacred.canonical import canonicalize
from datacred.errors import CorruptWallet, NoSuchEntry, WrongPassphrase
from datacred.keys import generate_keypair
from datacred.wallet import Wallet

DEFAULT_KDF = {"name": "scrypt", "n": 2**14, "r": 8, "p": 1}


def test_roundtrip(tmp_path):
    path = tmp_path / "w.json"
    keypair = generate_keypair()
    wallet = Wallet.open(path, "pw")
    wallet.put("issuer-key", keypair)
    wallet.put("note", {"any": "credential", "shape": ["works", 1]})
    wallet.save()

    reopened = Wallet.open(path, "pw")
    assert reopened.get("issuer-key") == keypair
    assert reopened.get("note") == {"any": "credential", "shape": ["works", 1]}
    assert reopened.list() == ["issuer-key", "note"]
    assert reopened.wallet_id == wallet.wallet_id


def test_wrong_passphrase(tmp_path):
    path = tmp_path / "w.json"
    wallet = Wallet.open(path, "right")
    wallet.put("k", generate_keypair())
    wallet.save()
    with pytest.raises(WrongPassphrase):
        Wallet.open(path, "wrong")


def test_missing_entry(tmp_path):
    wallet = Wallet.open(tmp_path / "w.json", "pw")
    with pytest.raises(NoSuchEntry):
        wallet.get("absent")
    with pytest.raises(NoSuchEntry):
        wallet.remove("absent")


def test_open_absent_file_creates_empty(tmp_path):
    wallet = Wallet.open(tmp_path / "new.json", "pw")
    assert wallet.list() == []


def test_corrupt_envelope(tmp_path):
    path = tmp_path / "w.json"
    Wallet.open(path, "pw").save()
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CorruptWallet):
        Wallet.open(path, "pw")

    Wallet.open(tmp_path / "w2.json", "pw").save()
    envelope = json.loads((tmp_path / "w2.json").read_text())
    del envelope["salt"]
    (tmp_path / "w2.json").write_text(json.dumps(envelope))
    with pytest.raises(CorruptWallet):
        Wallet.open(tmp_path / "w2.json", "pw")


def test_tampered_ciphertext_detected(tmp_path):
    path = tmp_path / "w.json"
    wallet = Wallet.open(path, "pw")
    wallet.put("k", generate_keypair())
    wallet.save()
    envelope = json.loads(path.read_text())
    raw = bytearray(base64.b64decode(envelope["ciphertext"]))
    raw[0] ^= 0xFF
    envelope["ciphertext"] = base64.b64encode(bytes(raw)).decode()
    path.write_text(json.dumps(envelope))
    with pytest.raises(WrongPassphrase):
        Wallet.open(path, "pw")


def test_no_plaintext_key_material_on_disk(tmp_path):
    path = tmp_path / "w.json"
    wallet = Wallet.open(path, "pw")
    keypairs = [generate_keypair() for _ in range(8)]
    for index, keypair in enumerate(keypairs):
        wallet.put(f"key-{index}", keypair)
    wallet.save()
    raw = path.read_bytes()
    for keypair in keypairs:
        assert keypair.private_key not in raw
        assert keypair.private_key.hex().encode() not in raw
        # base58 form is what the entry serialization itself uses
        from datacred.base58 import b58encode

        assert b58encode(keypair.private_key).encode() not in raw


def test_save_then_update_then_reload(tmp_path):
    path = tmp_path / "w.json"
    wallet = Wallet.open(path, "pw")
    wallet.put("a", {"v": 1})
    wallet.save()
    wallet.put("b", {"v": 2})
    wallet.remove("a")
    wallet.save()
    reopened = Wallet.open(path, "pw")
    assert reopened.list() == ["b"]


def test_save_leaves_no_temp_file(tmp_path):
    path = tmp_path / "w.json"
    wallet = Wallet.open(path, "pw")
    wallet.save()
    assert [p.name for p in tmp_path.iterdir()] == ["w.json"]


# --- one key per open wallet, a fresh nonce per save ---


def scrypt(passphrase: str, salt: bytes, kdf: dict) -> bytes:
    return Scrypt(salt=salt, length=32, n=kdf["n"], r=kdf["r"], p=kdf["p"]).derive(
        passphrase.encode("utf-8")
    )


def write_version_1(path: Path, passphrase: str, entries: dict, kdf: dict = DEFAULT_KDF) -> None:
    """A wallet file in the version-1 layout, built from the format description alone."""
    salt, nonce = secrets.token_bytes(16), secrets.token_bytes(12)
    ciphertext = AESGCM(scrypt(passphrase, salt, kdf)).encrypt(nonce, canonicalize(entries), None)
    envelope = {
        "version": 1,
        "walletId": "0123456789abcdef",
        "kdf": kdf,
        "salt": base64.b64encode(salt).decode(),
        "nonce": base64.b64encode(nonce).decode(),
        "ciphertext": base64.b64encode(ciphertext).decode(),
    }
    path.write_text(json.dumps(envelope), encoding="utf-8")


def read_version_1(path: Path, passphrase: str) -> dict:
    """Decrypt a wallet file the way any version-1 reader does: re-derive from its own kdf and salt."""
    envelope = json.loads(path.read_text(encoding="utf-8"))
    assert envelope["version"] == 1
    key = scrypt(passphrase, base64.b64decode(envelope["salt"]), envelope["kdf"])
    plaintext = AESGCM(key).decrypt(
        base64.b64decode(envelope["nonce"]), base64.b64decode(envelope["ciphertext"]), None
    )
    return json.loads(plaintext)


def envelope_of(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_saves_of_one_open_wallet_derive_the_key_once(tmp_path, key_derivations):
    wallet = Wallet.open(tmp_path / "w.json", "pw")
    for index in range(4):
        wallet.put(f"c{index}", {"n": index})
        wallet.save()
    assert len(key_derivations) == 1


def test_open_then_save_derives_once(tmp_path, key_derivations):
    path = tmp_path / "w.json"
    Wallet.open(path, "pw").save()
    key_derivations.clear()
    wallet = Wallet.open(path, "pw")
    wallet.put("k", generate_keypair())
    wallet.save()
    assert len(key_derivations) == 1


def test_saves_use_fresh_nonces_under_one_salt(tmp_path):
    path = tmp_path / "w.json"
    wallet = Wallet.open(path, "pw")
    wallet.put("a", {"v": 1})
    wallet.save()
    first = envelope_of(path)
    (tmp_path / "first.json").write_text(path.read_text())
    wallet.put("b", {"v": 2})
    wallet.save()
    second = envelope_of(path)
    assert first["nonce"] != second["nonce"]
    assert first["salt"] == second["salt"]
    assert Wallet.open(tmp_path / "first.json", "pw").list() == ["a"]
    reopened = Wallet.open(path, "pw")
    assert dict(reopened.items()) == {"a": {"v": 1}, "b": {"v": 2}}


def test_version_1_file_opens_and_resaves_both_ways(tmp_path):
    path = tmp_path / "w.json"
    keypair = generate_keypair()
    write_version_1(path, "pw", {"k": {"kind": "keypair", "keypair": keypair.to_json()}})
    wallet = Wallet.open(path, "pw")
    assert wallet.get("k") == keypair
    assert wallet.wallet_id == "0123456789abcdef"
    salt = envelope_of(path)["salt"]
    wallet.put("c", {"claim": "x"})
    wallet.save()
    assert envelope_of(path)["salt"] == salt
    assert envelope_of(path)["kdf"] == DEFAULT_KDF
    assert read_version_1(path, "pw") == {
        "c": {"kind": "credential", "credential": {"claim": "x"}},
        "k": {"kind": "keypair", "keypair": keypair.to_json()},
    }
    assert Wallet.open(path, "pw").list() == ["c", "k"]


def test_non_default_kdf_is_rekeyed_at_first_save(tmp_path, key_derivations):
    path = tmp_path / "w.json"
    cheap = {"name": "scrypt", "n": 2**12, "r": 8, "p": 1}
    write_version_1(path, "pw", {"c": {"kind": "credential", "credential": {"v": 1}}}, kdf=cheap)
    wallet = Wallet.open(path, "pw")
    assert wallet.get("c") == {"v": 1}
    wallet.save()
    wallet.save()
    assert [args[2] for args in key_derivations] == [cheap, DEFAULT_KDF]
    envelope = envelope_of(path)
    assert envelope["kdf"] == DEFAULT_KDF
    assert read_version_1(path, "pw") == {"c": {"kind": "credential", "credential": {"v": 1}}}


def test_wrong_passphrase_after_several_saves(tmp_path):
    path = tmp_path / "w.json"
    wallet = Wallet.open(path, "right")
    for index in range(3):
        wallet.put(f"c{index}", {"n": index})
        wallet.save()
    with pytest.raises(WrongPassphrase):
        Wallet.open(path, "wrong")
    assert Wallet.open(path, "right").list() == ["c0", "c1", "c2"]


labels = st.text(min_size=1, max_size=8)
credentials = st.dictionaries(
    st.text(max_size=6), st.integers(-(2**53), 2**53) | st.text(max_size=8), max_size=3
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("put"), labels, credentials),
        st.tuples(st.just("remove"), labels),
        st.tuples(st.just("save")),
    ),
    max_size=12,
)


@given(st.dictionaries(labels, credentials, max_size=4), steps)
@settings(max_examples=60, deadline=None)
def test_reopen_gives_last_saved_entries_and_nonces_never_repeat(initial, sequence):
    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
        patch.setattr(wallet_module, "_DEFAULT_KDF", {"name": "scrypt", "n": 2**4, "r": 8, "p": 1})
        path = Path(scratch) / "w.json"
        wallet = Wallet.open(path, "pw")
        for label, entry in initial.items():
            wallet.put(label, entry)
        wallet.save()
        saved, nonces = dict(initial), [envelope_of(path)["nonce"]]
        for step in sequence:
            if step[0] == "put":
                wallet.put(step[1], step[2])
            elif step[0] == "remove" and step[1] in wallet:
                wallet.remove(step[1])
            elif step[0] == "save":
                wallet.save()
                saved = dict(wallet.items())
                nonces.append(envelope_of(path)["nonce"])
            assert dict(Wallet.open(path, "pw").items()) == saved
        assert len(set(nonces)) == len(nonces)
