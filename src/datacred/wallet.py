"""Encrypted append-only wallet for private keys and received credentials.

File format version 2 is one JSON-lines file (see jsonfile); ``open`` refuses
any other, version 1 included, with CorruptWallet naming the file::

    {"version": 2, "walletId": ..., "kdf": {"name": "scrypt", "n", "r", "p"}, "salt": <base64>}
    {"nonce": <base64>, "ciphertext": <base64>}    record 0: a snapshot of every entry
    {"nonce": <base64>, "ciphertext": <base64>}    one record for each later save
    ...

Each record is the JSON ``{"put": {label: entry}, "remove": [label]}``
encrypted with AES-256-GCM under a key derived from the passphrase by scrypt
(memory-hard, per-file random salt). Authenticated encryption means
corruption and wrong passphrases are detected rather than yielding garbage.
A record's associated data is the nonce of the record before it, or the
header line's bytes for record 0, so a record cannot be reordered, dropped
from the middle, or spliced in from another wallet or from an earlier
rewrite of this one. Record 0 always exists, so a wrong passphrase raises
WrongPassphrase even for an empty wallet; any later complete line that fails
to authenticate raises CorruptWallet.

``save`` appends one record holding exactly the puts and removes made since
the last save, so its cost follows what changed, not how much the wallet
holds. It rewrites header and snapshot instead, atomically through a temp
file and a rename, on a new wallet's first save, on the first save of a file
with other scrypt parameters than the default (which is re-keyed under the
default), and when appending would leave more records after the snapshot
than live entries. A save that fails keeps its changes pending for the next
one.

Torn tail: a crash mid-append can leave a last line with no newline.
``open`` ignores it, so the wallet reads as of its last completed save, and
leaves the file as it is; the next save cuts it off before appending. No
write is fsynced.

The key is derived once per open wallet, and AES-GCM and scrypt are imported
only then: ``open`` keeps the file's salt and key, and a new wallet derives
them at its first save. Every record is sealed under that key with a fresh
random 96-bit nonce (NIST SP 800-38D section 8.3 allows 2^32 such invocations
per key).
"""

from __future__ import annotations

import base64
import json
import secrets
from pathlib import Path
from typing import Iterator

from cryptography.exceptions import InvalidTag

from .errors import CorruptWallet, DocumentInvalid, NoSuchEntry, WrongPassphrase
from .jsonfile import append_line, parse_json, read_lines, write_lines
from .keys import KeyPair

FORMAT_VERSION = 2
_DEFAULT_KDF = {"name": "scrypt", "n": 2**14, "r": 8, "p": 1}
_REMOVED = object()  # a pending change that deletes its label


def _is_scrypt(params) -> bool:
    """A kdf block naming scrypt with integer n, r and p."""
    return (
        isinstance(params, dict)
        and params.get("name") == "scrypt"
        and all(type(params.get(key)) is int for key in ("n", "r", "p"))
    )


def _derive_key(passphrase: str, salt: bytes, params: dict):
    """An AES-256-GCM cipher under the key scrypt derives from passphrase and salt."""
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    from cryptography.hazmat.primitives.kdf.scrypt import Scrypt
    kdf = Scrypt(salt=salt, length=32, n=params["n"], r=params["r"], p=params["p"])
    return AESGCM(kdf.derive(passphrase.encode("utf-8")))


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text, validate=True)


def _encode_entry(entry: KeyPair | dict) -> dict:
    if isinstance(entry, KeyPair):
        return {"kind": "keypair", "keypair": entry.to_json()}
    if isinstance(entry, dict):
        return {"kind": "credential", "credential": entry}
    raise TypeError(f"wallet entries are KeyPair or credential dict, got {type(entry).__name__}")


def _decode_entry(obj: dict) -> KeyPair | dict:
    kind = obj.get("kind")
    if kind == "keypair":
        return KeyPair.from_json(obj["keypair"])
    if kind == "credential":
        return obj["credential"]
    raise CorruptWallet(f"unknown entry kind {kind!r}")


class Wallet:
    """Label-addressed store of keypairs and credentials, one encrypted file.

    Single writer: ``save`` appends to the file, or atomically replaces it, as
    the module docstring describes.
    """

    def __init__(self, path: str | Path, passphrase: str, wallet_id: str | None = None):
        self.path = Path(path)
        self._passphrase: str | None = passphrase  # dropped once the key is derived
        self._key: tuple | None = None  # (salt, AESGCM cipher) under _DEFAULT_KDF
        self.wallet_id = wallet_id or secrets.token_hex(8)
        self._entries: dict[str, KeyPair | dict] = {}
        self._pending: dict[str, object] = {}  # label -> entry or _REMOVED, since the last save
        self._end: int | None = None  # where the file's complete records end; None: rewrite it
        self._records = 0  # records after the snapshot
        self._chain = b""  # associated data of the next record: the last record's nonce
        self.changes = 0  # puts and removes so far, so a reader can tell the entries moved

    @classmethod
    def open(cls, path: str | Path, passphrase: str) -> "Wallet":
        """Open an existing wallet file, or start a fresh one if absent; never writes."""
        path = Path(path)
        if not path.exists():
            return cls(path, passphrase)
        lines, end = read_lines(path)
        try:
            header = parse_json(lines[0] if lines else b"", path)
            version = header.get("version")
            if version != FORMAT_VERSION:
                raise CorruptWallet(f"{path}: unsupported wallet version {version!r}")
            records = [(record["nonce"], record["ciphertext"])
                       for record in map(json.loads, lines[1:])]
            kdf_params = header["kdf"]
            if not _is_scrypt(kdf_params):
                raise ValueError(f"unsupported kdf {kdf_params!r}")
            salt = _unb64(header["salt"])
            wallet_id = header["walletId"]
            records = [(_unb64(nonce), _unb64(ciphertext)) for nonce, ciphertext in records]
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptWallet(f"{path}: {exc}") from exc
        except DocumentInvalid as exc:
            raise CorruptWallet(str(exc)) from exc
        if not records:
            raise CorruptWallet(f"{path}: no snapshot record")

        raw: dict[str, dict] = {}
        chain, wallet = lines[0], cls(path, passphrase, wallet_id=wallet_id)
        try:
            cipher = _derive_key(passphrase, salt, kdf_params)
            for index, (nonce, ciphertext) in enumerate(records):
                try:
                    plaintext = cipher.decrypt(nonce, ciphertext, chain)
                except InvalidTag as exc:
                    if index == 0:
                        raise WrongPassphrase(
                            f"{path}: cannot decrypt with given passphrase"
                        ) from exc
                    raise CorruptWallet(f"{path}: record {index} fails to authenticate") from exc
                change = json.loads(plaintext)
                raw.update(change["put"])
                for label in change["remove"]:
                    raw.pop(label, None)
                chain = nonce
            wallet._entries = {label: _decode_entry(obj) for label, obj in raw.items()}
        except (ValueError, OverflowError, DocumentInvalid) as exc:  # scrypt, a nonce, a key
            raise CorruptWallet(f"{path}: {exc}") from exc

        if kdf_params == _DEFAULT_KDF:
            wallet._passphrase, wallet._key = None, (salt, cipher)
            wallet._end, wallet._records, wallet._chain = end, len(records) - 1, chain
        return wallet

    def put(self, label: str, entry: KeyPair | dict) -> None:
        self._entries[label] = entry
        self._pending[label] = entry
        self.changes += 1

    def get(self, label: str) -> KeyPair | dict:
        try:
            return self._entries[label]
        except KeyError:
            raise NoSuchEntry(label) from None

    def remove(self, label: str) -> None:
        try:
            del self._entries[label]
        except KeyError:
            raise NoSuchEntry(label) from None
        self._pending[label] = _REMOVED
        self.changes += 1

    def list(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, label: str) -> bool:
        return label in self._entries

    def items(self) -> Iterator[tuple[str, KeyPair | dict]]:
        return iter(self._entries.items())

    def save(self) -> None:
        """Append the changes since the last save as one record, or rewrite the file."""
        if self._key is None:
            salt = secrets.token_bytes(16)
            cipher = _derive_key(self._passphrase, salt, _DEFAULT_KDF)
            self._passphrase, self._key = None, (salt, cipher)
        if self._end is not None and not self._pending:
            return
        # Rewrite when appending would leave more records than live entries.
        if self._end is None or self._records >= len(self._entries):
            header = json.dumps({
                "version": FORMAT_VERSION,
                "walletId": self.wallet_id,
                "kdf": _DEFAULT_KDF,
                "salt": _b64(self._key[0]),
            }).encode("ascii")
            snapshot, nonce = self._seal(self._entries.items(), [], header)
            end, records = write_lines(self.path, [header, snapshot]), 0
        else:
            puts = [(label, e) for label, e in self._pending.items() if e is not _REMOVED]
            removes = [label for label, e in self._pending.items() if e is _REMOVED]
            record, nonce = self._seal(puts, removes, self._chain)
            end, records = append_line(self.path, record, self._end), self._records + 1
        self._end, self._records, self._chain = end, records, nonce
        self._pending.clear()

    def _seal(self, puts, removes: list[str], associated: bytes) -> tuple[bytes, bytes]:
        """One record line putting and removing these entries, and its nonce."""
        change = {"put": {label: _encode_entry(entry) for label, entry in puts},
                  "remove": removes}
        nonce = secrets.token_bytes(12)
        ciphertext = self._key[1].encrypt(
            nonce, json.dumps(change, separators=(",", ":")).encode("utf-8"), associated
        )
        record = {"nonce": _b64(nonce), "ciphertext": _b64(ciphertext)}
        return json.dumps(record).encode("ascii"), nonce
