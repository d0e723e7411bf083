"""Base58 encoding with the Bitcoin alphabet.

Used for public keys and signature values embedded in JSON documents.
"""

from __future__ import annotations

ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_PAIRS = [high + low for high in ALPHABET for low in ALPHABET]  # two digits per divmod
_DIGITS = bytes.maketrans(ALPHABET.encode("ascii"), bytes(range(len(ALPHABET))))


def b58encode(data: bytes) -> str:
    num = int.from_bytes(data, "big")
    pairs = []
    while num:
        num, rem = divmod(num, 58 * 58)
        pairs.append(_PAIRS[rem])
    encoded = "".join(reversed(pairs)).lstrip(ALPHABET[0])  # a leading pair may start at 0
    return ALPHABET[0] * (len(data) - len(data.lstrip(b"\0"))) + encoded


def b58decode(text: str) -> bytes:
    if not isinstance(text, str):
        raise ValueError(f"base58 text must be a string, not {type(text).__name__}")
    if invalid := text.lstrip(ALPHABET):
        raise ValueError(f"invalid base58 character {invalid[0]!r}")
    num = 0
    for digit in text.encode("ascii").translate(_DIGITS):
        num = num * 58 + digit
    body = num.to_bytes((num.bit_length() + 7) // 8, "big") if num else b""
    return b"\x00" * (len(text) - len(text.lstrip(ALPHABET[0]))) + body
