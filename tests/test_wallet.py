"""Encrypted wallet round-trips and failure modes."""

import base64
import json
import re
import secrets
import statistics
import tempfile
import time
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.scrypt import Scrypt
from hypothesis import given, settings
from hypothesis import strategies as st

from datacred import wallet as wallet_module
from datacred.canonical import canonicalize
from datacred.errors import CorruptWallet, DocumentInvalid, NoSuchEntry, WrongPassphrase
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
    header = header_of(tmp_path / "w2.json")
    del header["salt"]
    replace_line(tmp_path / "w2.json", 0, header)
    with pytest.raises(CorruptWallet):
        Wallet.open(tmp_path / "w2.json", "pw")


CHEAP_KDF = {"name": "scrypt", "n": 2**4, "r": 8, "p": 1}


@pytest.mark.parametrize("field, value", [
    ("kdf", {"name": "scrypt"}),
    ("kdf", "scrypt"),
    ("kdf", {"name": "scrypt", "n": "16", "r": 8, "p": 1}),
    ("kdf", {"name": "scrypt", "n": 16, "r": True, "p": 1}),
    ("kdf", {"name": "argon2id", "n": 16, "r": 8, "p": 1}),
    ("kdf", {"name": "scrypt", "n": 3, "r": 8, "p": 1}),
    ("kdf", {"name": "scrypt", "n": -16, "r": 8, "p": 1}),
    ("nonce", base64.b64encode(b"abc").decode()),
], ids=["kdf-without-cost", "kdf-string", "n-string", "r-bool", "kdf-unknown",
        "n-not-power-of-2", "n-negative", "nonce-3-bytes"])
def test_malformed_kdf_or_nonce_is_corrupt_wallet_naming_the_file(tmp_path, field, value):
    path = tmp_path / "w.json"
    entries = {"c": {"kind": "credential", "credential": {}}}
    if field == "kdf":  # sealed under CHEAP_KDF, with the header naming value
        write_version_2(path, "pw", entries, kdf=CHEAP_KDF, stated_kdf=value)
    else:
        write_version_2(path, "pw", entries, kdf=CHEAP_KDF)
        replace_line(path, 1, {**records_of(path)[0], field: value})
    with pytest.raises(CorruptWallet) as caught:
        Wallet.open(path, "pw")
    assert str(path) in str(caught.value)


def test_tampered_ciphertext_detected(tmp_path):
    path = tmp_path / "w.json"
    wallet = Wallet.open(path, "pw")
    wallet.put("k", generate_keypair())
    wallet.save()
    snapshot = records_of(path)[0]
    raw = bytearray(base64.b64decode(snapshot["ciphertext"]))
    raw[0] ^= 0xFF
    snapshot["ciphertext"] = base64.b64encode(bytes(raw)).decode()
    replace_line(path, 1, snapshot)
    with pytest.raises(WrongPassphrase):  # record 0 cannot be told from a wrong passphrase
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


def write_version_1(path: Path, passphrase: str, entries: dict, indent=None) -> None:
    """A wallet file in the version-1 layout, built from its format description alone:
    one JSON envelope holding the whole entry map in one ciphertext."""
    salt, nonce = secrets.token_bytes(16), secrets.token_bytes(12)
    key = scrypt(passphrase, salt, DEFAULT_KDF)
    ciphertext = AESGCM(key).encrypt(nonce, canonicalize(entries), None)
    envelope = {
        "version": 1,
        "walletId": "0123456789abcdef",
        "kdf": DEFAULT_KDF,
        "salt": base64.b64encode(salt).decode(),
        "nonce": base64.b64encode(nonce).decode(),
        "ciphertext": base64.b64encode(ciphertext).decode(),
    }
    path.write_text(json.dumps(envelope, indent=indent) + "\n", encoding="utf-8")


def write_version_2(path: Path, passphrase: str, entries: dict, kdf: dict = DEFAULT_KDF,
                    stated_kdf=None) -> None:
    """A version-2 file with one snapshot record, built from the format description alone.
    The records are sealed under kdf; the header names stated_kdf when it is given."""
    salt, nonce = secrets.token_bytes(16), secrets.token_bytes(12)
    header = json.dumps({
        "version": 2,
        "walletId": "0123456789abcdef",
        "kdf": kdf if stated_kdf is None else stated_kdf,
        "salt": base64.b64encode(salt).decode(),
    }).encode()
    change = json.dumps({"put": entries, "remove": []}).encode()
    ciphertext = AESGCM(scrypt(passphrase, salt, kdf)).encrypt(nonce, change, header)
    record = json.dumps({"nonce": base64.b64encode(nonce).decode(),
                         "ciphertext": base64.b64encode(ciphertext).decode()}).encode()
    path.write_bytes(header + b"\n" + record + b"\n")


def lines_of(path: Path) -> list[bytes]:
    """A version-2 file's lines; every one, the last included, must be complete."""
    data = path.read_bytes()
    assert data.endswith(b"\n")
    return data.split(b"\n")[:-1]


def header_of(path: Path) -> dict:
    return json.loads(lines_of(path)[0])


def records_of(path: Path) -> list[dict]:
    return [json.loads(line) for line in lines_of(path)[1:]]


def replace_line(path: Path, index: int, obj: dict) -> None:
    lines = lines_of(path)
    lines[index] = json.dumps(obj).encode()
    path.write_bytes(b"".join(line + b"\n" for line in lines))


def changes_of(path: Path, passphrase: str) -> list[dict]:
    """Decrypt a version-2 file the way any reader does, from the format description alone:
    every record under the header's kdf and salt, each sealed with the previous record's
    nonce (the header line for record 0) as associated data."""
    lines = lines_of(path)
    header = json.loads(lines[0])
    assert header["version"] == 2
    cipher = AESGCM(scrypt(passphrase, base64.b64decode(header["salt"]), header["kdf"]))
    changes, chain = [], lines[0]
    for line in lines[1:]:
        record = json.loads(line)
        nonce = base64.b64decode(record["nonce"])
        changes.append(json.loads(cipher.decrypt(nonce, base64.b64decode(record["ciphertext"]),
                                                 chain)))
        chain = nonce
    return changes


def read_version_2(path: Path, passphrase: str) -> dict:
    """The entry map a version-2 file holds: its records' puts and removes in order."""
    entries = {}
    for change in changes_of(path, passphrase):
        entries.update(change["put"])
        for label in change["remove"]:
            entries.pop(label, None)
    return entries


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
    first = records_of(path)[-1]
    (tmp_path / "first.json").write_bytes(path.read_bytes())
    wallet.put("b", {"v": 2})
    wallet.save()
    second = records_of(path)[-1]
    assert first["nonce"] != second["nonce"]
    assert header_of(tmp_path / "first.json")["salt"] == header_of(path)["salt"]
    assert Wallet.open(tmp_path / "first.json", "pw").list() == ["a"]
    reopened = Wallet.open(path, "pw")
    assert dict(reopened.items()) == {"a": {"v": 1}, "b": {"v": 2}}


@pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indented"])
def test_version_1_file_is_corrupt_wallet_naming_the_file(tmp_path, indent):
    path = tmp_path / "w.json"
    write_version_1(path, "pw", {"c": {"kind": "credential", "credential": {}}}, indent)
    before = path.read_bytes()
    with pytest.raises(CorruptWallet, match=re.escape(str(path))):
        Wallet.open(path, "pw")
    assert path.read_bytes() == before


def test_a_keypair_entry_that_is_not_base58_is_corrupt_wallet_naming_the_file(tmp_path):
    path = tmp_path / "w.json"
    keypair = {**generate_keypair(b"\x01" * 32).to_json(), "privateKeyBase58": "0"}
    write_version_2(path, "pw", {"k": {"kind": "keypair", "keypair": keypair}})
    with pytest.raises(CorruptWallet, match=re.escape(f"{path}: malformed keypair: invalid")):
        Wallet.open(path, "pw")


def test_non_default_kdf_is_rekeyed_at_first_save(tmp_path, key_derivations):
    path = tmp_path / "w.json"
    cheap = {"name": "scrypt", "n": 2**12, "r": 8, "p": 1}
    write_version_2(path, "pw", {"c": {"kind": "credential", "credential": {"v": 1}}}, kdf=cheap)
    wallet = Wallet.open(path, "pw")
    assert wallet.get("c") == {"v": 1}
    wallet.save()
    wallet.save()
    assert [args[2] for args in key_derivations] == [cheap, DEFAULT_KDF]
    header = header_of(path)
    assert header["kdf"] == DEFAULT_KDF
    assert read_version_2(path, "pw") == {"c": {"kind": "credential", "credential": {"v": 1}}}


def test_a_save_over_a_file_another_wallet_shortened_refuses_and_writes_nothing(tmp_path):
    path = tmp_path / "w.json"
    first = Wallet.open(path, "pw")
    for label in "ab":
        first.put(label, {"v": label})
        first.save()
    second = Wallet.open(path, "pw")
    second.remove("a")
    second.remove("b")
    second.save()  # rewritten as a shorter file
    rewritten = path.read_bytes()
    first.put("c", {"v": "c"})
    with pytest.raises(DocumentInvalid, match=re.escape(str(path))):
        first.save()
    assert path.read_bytes() == rewritten
    assert Wallet.open(path, "pw").list() == []


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
        saved, nonces = dict(initial), [records_of(path)[-1]["nonce"]]
        for step in sequence:
            if step[0] == "put":
                wallet.put(step[1], step[2])
            elif step[0] == "remove" and step[1] in wallet:
                wallet.remove(step[1])
            elif step[0] == "save":
                before = path.read_bytes()
                wallet.save()
                saved = dict(wallet.items())
                if path.read_bytes() != before:  # a save with nothing to write writes nothing
                    nonces.append(records_of(path)[-1]["nonce"])  # the record it wrote
            assert dict(Wallet.open(path, "pw").items()) == saved
        assert len(set(nonces)) == len(nonces)


# --- version 2: an append-only log of sealed records ---


def test_save_appends_one_record_holding_exactly_its_changes(tmp_path):
    path = tmp_path / "w.json"
    wallet = Wallet.open(path, "pw")
    for index in range(5):
        wallet.put(f"c{index}", {"n": index})
    wallet.save()
    wallet.put("new", {"n": 5})
    wallet.remove("c0")
    wallet.put("c1", {"n": 10})
    before = path.read_bytes()
    wallet.save()
    assert path.read_bytes().startswith(before)
    assert len(lines_of(path)) == 3
    assert changes_of(path, "pw")[-1] == {
        "put": {"new": {"kind": "credential", "credential": {"n": 5}},
                "c1": {"kind": "credential", "credential": {"n": 10}}},
        "remove": ["c0"],
    }
    assert dict(Wallet.open(path, "pw").items()) == dict(wallet.items())


def test_file_is_rewritten_once_records_would_outnumber_live_entries(tmp_path):
    path = tmp_path / "w.json"
    wallet = Wallet.open(path, "pw")
    wallet.put("a", {"v": 0})
    wallet.put("b", {"v": 0})
    wallet.save()
    header = lines_of(path)[0]
    line_counts = []
    for version in range(1, 6):
        wallet.put("a", {"v": version})
        wallet.save()
        line_counts.append(len(lines_of(path)))
    # Two live entries: two records may follow the snapshot; the third save rewrites.
    assert line_counts == [3, 4, 2, 3, 4]
    assert lines_of(path)[0] == header  # same walletId, kdf and salt
    assert read_version_2(path, "pw") == {"a": {"kind": "credential", "credential": {"v": 5}},
                                          "b": {"kind": "credential", "credential": {"v": 0}}}


def wallet_with_appended_records(path: Path, passphrase: str = "pw") -> Wallet:
    """A wallet file of header, snapshot and three appended records."""
    wallet = Wallet.open(path, passphrase)
    for index in range(4):
        wallet.put(f"base{index}", {"n": index})
    wallet.save()
    for index in range(3):
        wallet.put(f"later{index}", {"n": index})
        wallet.save()
    assert len(lines_of(path)) == 5
    return wallet


def rewrite_lines(path: Path, lines: list[bytes]) -> None:
    path.write_bytes(b"".join(line + b"\n" for line in lines))


def test_reordered_or_dropped_records_are_corrupt(tmp_path):
    path = tmp_path / "w.json"
    wallet_with_appended_records(path)
    header, snapshot, first, second, third = lines_of(path)
    for damaged in (
        [header, snapshot, second, first, third],  # reordered
        [header, snapshot, first, third],  # dropped from the middle
    ):
        rewrite_lines(path, damaged)
        with pytest.raises(CorruptWallet, match="fails to authenticate"):
            Wallet.open(path, "pw")
    rewrite_lines(path, [header, snapshot, first, second])  # the last save never happened
    assert "later2" not in Wallet.open(path, "pw")


def test_record_spliced_from_another_wallet_is_corrupt(tmp_path):
    path, other = tmp_path / "w.json", tmp_path / "other.json"
    wallet_with_appended_records(path)
    wallet_with_appended_records(other)  # same passphrase and labels, its own salt
    lines = lines_of(path)
    lines[3] = lines_of(other)[3]
    rewrite_lines(path, lines)
    with pytest.raises(CorruptWallet, match="record 2 fails to authenticate"):
        Wallet.open(path, "pw")


def test_record_spliced_from_an_earlier_rewrite_is_corrupt(tmp_path):
    path = tmp_path / "w.json"
    wallet = Wallet.open(path, "pw")
    wallet.put("a", {"v": 0})
    wallet.save()
    wallet.put("b", {"v": 0})
    wallet.save()
    earlier = lines_of(path)  # header, snapshot, one record
    wallet.put("b", {"v": 1})
    wallet.save()
    wallet.put("b", {"v": 2})
    wallet.save()  # three records would outnumber two entries: rewritten
    wallet.put("c", {"v": 0})
    wallet.save()
    later = lines_of(path)
    assert len(later) == 3 and later[0] == earlier[0] and later[1] != earlier[1]
    for spliced in ([later[0], later[1], earlier[2]], [later[0], earlier[1], later[2]]):
        rewrite_lines(path, spliced)
        with pytest.raises(CorruptWallet, match="record 1 fails to authenticate"):
            Wallet.open(path, "pw")


def test_complete_record_that_fails_to_authenticate_is_corrupt(tmp_path):
    path = tmp_path / "w.json"
    wallet_with_appended_records(path)
    record = records_of(path)[2]
    raw = bytearray(base64.b64decode(record["ciphertext"]))
    raw[-1] ^= 0x01
    record["ciphertext"] = base64.b64encode(bytes(raw)).decode()
    replace_line(path, 3, record)
    with pytest.raises(CorruptWallet, match=r"w\.json: record 2 fails to authenticate"):
        Wallet.open(path, "pw")


def test_header_is_bound_to_the_records(tmp_path):
    path = tmp_path / "w.json"
    wallet_with_appended_records(path)
    header = header_of(path)
    header["walletId"] = "0" * 16
    replace_line(path, 0, header)
    with pytest.raises(WrongPassphrase):  # record 0 is sealed with the header's bytes
        Wallet.open(path, "pw")


def test_wrong_passphrase_on_an_empty_wallet(tmp_path):
    path = tmp_path / "w.json"
    Wallet.open(path, "right").save()
    assert len(lines_of(path)) == 2  # the snapshot exists even with no entries
    with pytest.raises(WrongPassphrase):
        Wallet.open(path, "wrong")
    assert Wallet.open(path, "right").list() == []


def test_torn_tail_is_ignored_by_open_and_cut_by_the_next_save(tmp_path, monkeypatch):
    monkeypatch.setattr(wallet_module, "_DEFAULT_KDF", CHEAP)
    path = tmp_path / "w.json"
    wallet_with_appended_records(path)
    whole = path.read_bytes()
    last_start = whole.rindex(b"\n", 0, len(whole) - 1) + 1
    for cut in range(last_start, len(whole)):
        path.write_bytes(whole[:cut])
        wallet = Wallet.open(path, "pw")
        assert path.read_bytes() == whole[:cut]  # open never writes
        assert "later1" in wallet and "later2" not in wallet
        wallet.put("after", {"cut": cut})
        wallet.save()
        reopened = Wallet.open(path, "pw")
        assert "later2" not in reopened
        assert reopened.get("after") == {"cut": cut}


CHEAP = {"name": "scrypt", "n": 2**4, "r": 8, "p": 1}
crash_steps = st.lists(
    st.one_of(
        st.tuples(st.just("put"), labels, credentials),
        st.tuples(st.just("remove"), labels),
        st.tuples(st.just("save")),
        # The process dies mid-append: the file ends inside its last record.
        st.tuples(st.just("tear"), st.integers(min_value=0)),
        # The write raises OSError after writing part of its bytes.
        st.tuples(st.just("fail"), st.integers(min_value=0)),
    ),
    max_size=16,
)


@given(crash_steps)
@settings(max_examples=200, deadline=None)
def test_crash_at_any_write_reopens_as_of_the_last_completed_save(sequence):
    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
        patch.setattr(wallet_module, "_DEFAULT_KDF", CHEAP)
        path = Path(scratch) / "w.json"
        wallet = Wallet.open(path, "pw")
        wallet.save()
        # Entries as of the last completed save, and as of the one before it
        # when the last one appended (None when it rewrote the file).
        saved, before_last = {}, None
        for step in sequence:
            if step[0] == "put":
                wallet.put(step[1], step[2])
            elif step[0] == "remove" and step[1] in wallet:
                wallet.remove(step[1])
            elif step[0] == "save":
                before = path.read_bytes()
                wallet.save()
                if path.read_bytes() != before:
                    before_last = saved if len(lines_of(path)) > 2 else None
                saved = dict(wallet.items())
            elif step[0] == "tear" and before_last is not None:
                whole = path.read_bytes()
                complete = whole[: whole.rindex(b"\n") + 1]
                start = complete.rindex(b"\n", 0, len(complete) - 1) + 1
                path.write_bytes(complete[: start + step[1] % (len(complete) - start)])
                wallet = Wallet.open(path, "pw")  # the restarted process
                saved, before_last = before_last, None
            elif step[0] == "fail":
                def torn_append(target, line, at):
                    with open(target, "r+b") as file:
                        file.truncate(at)
                        file.seek(at)
                        file.write((line + b"\n")[: step[1] % (len(line) + 1)])
                    raise OSError("No space left on device")

                def write_half_then_fail(self, data, *args, **kwargs):
                    with open(self, "w", encoding="utf-8") as handle:
                        handle.write(data[: len(data) // 2])
                    raise OSError("No space left on device")

                with pytest.MonkeyPatch.context() as crash:
                    crash.setattr(wallet_module, "append_line", torn_append)
                    crash.setattr(Path, "write_text", write_half_then_fail)
                    try:
                        wallet.save()
                    except OSError:
                        pass
                    else:  # nothing was pending, so nothing was written
                        assert dict(wallet.items()) == saved
                assert not Path(scratch, "w.json.tmp").exists()
            on_disk = path.read_bytes()
            assert dict(Wallet.open(path, "pw").items()) == saved
            assert path.read_bytes() == on_disk  # open never writes
        wallet.save()  # whatever a failed save left pending is written now
        assert dict(Wallet.open(path, "pw").items()) == dict(wallet.items())


def save_seconds(count: int, saves: int = 30) -> float:
    """Median time of one save of one new credential into a wallet of count credentials."""
    credential = {"id": "urn:uuid:" + "0" * 36, "claims": {"Hash of Data": "ab" * 32},
                  "proof": {"proofValue": "z" + "5" * 86}, "padding": "x" * 450}
    with tempfile.TemporaryDirectory() as scratch:
        wallet = Wallet.open(Path(scratch) / "w.json", "pw")
        for index in range(count):
            wallet.put(f"credential:{index}", dict(credential, id=f"urn:{index}"))
        wallet.save()
        times = []
        for index in range(saves):
            wallet.put(f"credential:new{index}", dict(credential, id=f"urn:new{index}"))
            started = time.perf_counter()
            wallet.save()
            times.append(time.perf_counter() - started)
    return statistics.median(times)


def test_save_time_does_not_grow_with_the_wallet(monkeypatch):
    monkeypatch.setattr(wallet_module, "_DEFAULT_KDF", CHEAP)
    small, large = save_seconds(40), save_seconds(4000)
    assert large <= 2 * small + 0.0005, (small, large)  # 0.5 ms of slack for a noisy host
