"""Encrypted single-file wallet for private keys and received credentials.

File format is a versioned JSON envelope::

    {"version": 1, "walletId": ..., "kdf": {"name": "scrypt", "n", "r", "p"},
     "salt": <base64>, "nonce": <base64>, "ciphertext": <base64>}

The ciphertext is the canonical JSON of the entry map encrypted with
AES-256-GCM under a key derived from the passphrase by scrypt (memory-hard,
per-file random salt). Authenticated encryption means corruption and wrong
passphrases are detected rather than yielding garbage.

The key is derived once per open wallet: ``open`` keeps the file's salt and
key, and a new wallet derives them at its first save. Every save encrypts
under that key with a fresh random 96-bit nonce (NIST SP 800-38D section 8.3
allows 2^32 such invocations per key). A file with other scrypt parameters
than the default is re-keyed under the default at its first save.
"""

from __future__ import annotations

import base64
import json
import secrets
from pathlib import Path
from typing import Iterator

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.scrypt import Scrypt

from .canonical import canonicalize
from .errors import CorruptWallet, DocumentInvalid, NoSuchEntry, WrongPassphrase
from .jsonfile import read_json, write_json
from .keys import KeyPair

FORMAT_VERSION = 1
_DEFAULT_KDF = {"name": "scrypt", "n": 2**14, "r": 8, "p": 1}


def _derive_key(passphrase: str, salt: bytes, params: dict) -> bytes:
    if params.get("name") != "scrypt":
        raise CorruptWallet(f"unknown kdf {params.get('name')!r}")
    kdf = Scrypt(salt=salt, length=32, n=params["n"], r=params["r"], p=params["p"])
    return kdf.derive(passphrase.encode("utf-8"))


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

    Single writer; ``save`` writes a temp file and renames it into place so a
    crash never leaves a half-written wallet.
    """

    def __init__(self, path: str | Path, passphrase: str, wallet_id: str | None = None):
        self.path = Path(path)
        self._passphrase: str | None = passphrase  # dropped once the key is derived
        self._key: tuple[bytes, AESGCM] | None = None  # (salt, cipher) under _DEFAULT_KDF
        self.wallet_id = wallet_id or secrets.token_hex(8)
        self._entries: dict[str, KeyPair | dict] = {}

    @classmethod
    def open(cls, path: str | Path, passphrase: str) -> "Wallet":
        """Open an existing wallet file, or start a fresh one if absent."""
        path = Path(path)
        if not path.exists():
            return cls(path, passphrase)
        try:
            envelope = read_json(path)
            version = envelope["version"]
            if version != FORMAT_VERSION:
                raise CorruptWallet(f"unsupported wallet version {version}")
            kdf_params = envelope["kdf"]
            salt = base64.b64decode(envelope["salt"], validate=True)
            nonce = base64.b64decode(envelope["nonce"], validate=True)
            ciphertext = base64.b64decode(envelope["ciphertext"], validate=True)
            wallet_id = envelope["walletId"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptWallet(f"{path}: {exc}") from exc
        except DocumentInvalid as exc:
            raise CorruptWallet(str(exc)) from exc

        cipher = AESGCM(_derive_key(passphrase, salt, kdf_params))
        try:
            plaintext = cipher.decrypt(nonce, ciphertext, None)
        except InvalidTag as exc:
            raise WrongPassphrase(f"{path}: cannot decrypt with given passphrase") from exc

        wallet = cls(path, passphrase, wallet_id=wallet_id)
        if kdf_params == _DEFAULT_KDF:
            wallet._passphrase, wallet._key = None, (salt, cipher)
        raw = json.loads(plaintext.decode("utf-8"))
        wallet._entries = {label: _decode_entry(obj) for label, obj in raw.items()}
        return wallet

    def put(self, label: str, entry: KeyPair | dict) -> None:
        self._entries[label] = entry

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

    def list(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, label: str) -> bool:
        return label in self._entries

    def items(self) -> Iterator[tuple[str, KeyPair | dict]]:
        return iter(self._entries.items())

    def save(self) -> None:
        """Encrypt under the wallet's key with a fresh nonce and atomically write the file."""
        if self._key is None:
            salt = secrets.token_bytes(16)
            key = _derive_key(self._passphrase, salt, _DEFAULT_KDF)
            self._passphrase, self._key = None, (salt, AESGCM(key))
        salt, cipher = self._key
        raw = {label: _encode_entry(entry) for label, entry in self._entries.items()}
        nonce = secrets.token_bytes(12)
        ciphertext = cipher.encrypt(nonce, canonicalize(raw), None)
        envelope = {
            "version": FORMAT_VERSION,
            "walletId": self.wallet_id,
            "kdf": _DEFAULT_KDF,
            "salt": base64.b64encode(salt).decode("ascii"),
            "nonce": base64.b64encode(nonce).decode("ascii"),
            "ciphertext": base64.b64encode(ciphertext).decode("ascii"),
        }
        write_json(self.path, envelope)
