"""Content-derived fingerprints binding credentials to exact dataset bytes.

Two forms:

- ``file``: digest of a single byte stream.
- ``tree``: a manifest of every regular file under a root (sorted,
  slash-separated relative paths, each with its own digest); the top-level
  digest is the SHA-256 of the manifest's canonical JSON encoding, so it is
  independent of filesystem enumeration order. A symbolic link to a file
  inside the root is hashed as that file. Nothing readable is silently left
  out: a link that leaves the root or points at a directory, any entry that
  is neither a regular file nor a directory (a FIFO, a socket, a device, a
  dangling link), a directory that cannot be listed and a name that is not
  valid UTF-8 (it has no canonical JSON form) are refused. Empty directories
  carry no bytes and are not bound. After the walk each directory is opened
  once and its files are opened through that descriptor, one name per open.

``check_binding`` fingerprints the data once, in the form the data has, and
matches only when form and digest both agree. A file whose bytes are also a
tree's canonical manifest is reported as ambiguous, never as a match.

Digests are lowercase hex, no ``0x`` prefix.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from typing import NamedTuple

from .errors import AlgorithmUnsupported, DatacredError, DocumentInvalid, SymlinkEscape
from .errors import UnreadablePath
from .jsonfile import LIST, Field, each, json_document, refusal

ALGORITHM = "sha256"
_READ_CHUNK = 1 << 18  # unbuffered os.read size; the last read of every file returns EOF
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)  # O_BINARY: no newline mapping on Windows
_MANIFEST_HEAD = b'[{"digest":"'  # how every non-empty canonical manifest starts
_malformed = refusal(DocumentInvalid, "malformed fingerprint: ")


@json_document(_malformed, Field("path", "path"), Field("digest", "digest"), closed=False)
class ManifestEntry(NamedTuple):
    path: str
    digest: str


@json_document(_malformed, Field("algorithm", "algorithm"), Field("digest", "digest"),
               Field("form", "form"),
               Field("manifest", "manifest", LIST, optional=True, omit=None,
                     **each(ManifestEntry, tuple)),
               closed=False)
@dataclass(frozen=True)
class DatasetFingerprint:
    """Digest plus enough structure to recheck it against data later."""

    algorithm: str
    digest: str
    form: str  # "file" | "tree"
    manifest: tuple[ManifestEntry, ...] | None = None


@dataclass
class BindingReport:
    """Outcome of rechecking a fingerprint against data."""

    matched: bool
    expected_digest: str
    actual_digest: str | None = None
    mismatched: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    extra: list[str] = field(default_factory=list)
    detail: str = ""
    ambiguous: bool = False  # the data reads both as a file and as a tree manifest

    def to_json(self) -> dict:
        return {
            "matched": self.matched,
            "ambiguous": self.ambiguous,
            "expectedDigest": self.expected_digest,
            "actualDigest": self.actual_digest,
            "mismatched": self.mismatched,
            "missing": self.missing,
            "extra": self.extra,
            "detail": self.detail,
        }


def _sha256_file(path: str | Path, dir_fd: int | None = None, directory: str | Path = "") -> str:
    """SHA-256 of a file's bytes; with dir_fd, path is a name in the directory dir_fd holds."""
    digest = hashlib.sha256()
    try:
        fd = os.open(path, _READ_FLAGS, dir_fd=dir_fd)
        try:
            while chunk := os.read(fd, _READ_CHUNK):
                digest.update(chunk)
        finally:
            os.close(fd)
    except OSError as exc:
        raise UnreadablePath(f"{os.path.join(directory, path)}: {exc}") from exc
    return digest.hexdigest()


def fingerprint_bytes(data: bytes) -> DatasetFingerprint:
    """Fingerprint a single byte sequence (empty input allowed)."""
    return DatasetFingerprint(algorithm=ALGORITHM, digest=hashlib.sha256(data).hexdigest(), form="file")


def fingerprint_file(path: str | Path) -> DatasetFingerprint:
    """Fingerprint one file without loading it wholly into memory."""
    path = Path(path)
    if not path.is_file():
        raise UnreadablePath(f"{path}: not a readable file")
    return DatasetFingerprint(algorithm=ALGORITHM, digest=_sha256_file(path), form="file")


def _refusal(path: str, root: Path) -> DatacredError | None:
    """Why an entry that is neither a plain file nor a plain directory cannot be
    bound; None for a symbolic link to a file inside root."""
    target = os.path.realpath(path)
    if not Path(target).is_relative_to(root):
        return SymlinkEscape(f"{path} -> {target} escapes {root}")
    if os.path.isdir(target):
        return UnreadablePath(f"{path} -> {target}: symlinked directory not fingerprinted")
    if not os.path.isfile(target):  # a FIFO, socket, device or dangling link has no bytes to bind
        return UnreadablePath(f"{path}: not a regular file or directory")
    return None


def build_manifest(root: str | Path) -> tuple[ManifestEntry, ...]:
    """List every regular file under root with its digest, sorted by path.

    One walk lists each directory once. Every entry that cannot be bound is
    refused before any file is read; of several, the first in path order is
    reported.
    """
    root_real = Path(os.path.realpath(root))
    groups, refused = [], []  # groups: (directory, its relative path plus "/", file names)
    pending = [(root, "")]
    while pending:
        directory, prefix = pending.pop()
        try:
            with os.scandir(directory) as listing:
                children = list(listing)
        except OSError as exc:
            refused.append((prefix, UnreadablePath(f"{directory}: cannot list: {exc}")))
            continue
        names = []
        for child in children:
            rel = prefix + child.name
            if not child.name.isascii() and not _is_utf8(child.name):
                refused.append((rel, UnreadablePath(f"{child.path!r}: name is not valid UTF-8")))
            elif child.is_dir(follow_symlinks=False):
                pending.append((child.path, rel + "/"))
            elif child.is_file(follow_symlinks=False):
                names.append(child.name)
            elif problem := _refusal(child.path, root_real):
                refused.append((rel, problem))
            else:
                names.append(child.name)  # a link to a file inside the root
        groups.append((directory, prefix, names))
    if refused:
        raise min(refused, key=lambda item: item[0])[1]
    files = []
    for directory, prefix, names in groups:
        try:
            dir_fd = os.open(directory, _READ_FLAGS)
        except OSError as exc:
            raise UnreadablePath(f"{directory}: cannot open: {exc}") from exc
        try:
            files += [(prefix + name, _sha256_file(name, dir_fd, directory)) for name in names]
        finally:
            os.close(dir_fd)
    return tuple(map(ManifestEntry._make, sorted(files)))


def _is_utf8(name: str) -> bool:
    """False for a name holding lone surrogates: bytes os.fsdecode could not decode."""
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def manifest_digest(manifest: tuple[ManifestEntry, ...]) -> str:
    # canonicalize([entry.to_json() for entry in manifest]), built directly: an entry's keys
    # are already in code-point order, and encode_basestring is the escaper json.dumps uses
    # with ensure_ascii=False. test_manifest_encoding_is_canonical pins the equality.
    enc = encode_basestring
    text = ",".join(['{"digest":' + enc(d) + ',"path":' + enc(p) + "}" for p, d in manifest])
    return hashlib.sha256(f"[{text}]".encode("utf-8")).hexdigest()


def fingerprint_tree(root: str | Path) -> DatasetFingerprint:
    """Fingerprint a directory of files as a content manifest."""
    manifest = build_manifest(root)
    return DatasetFingerprint(
        algorithm=ALGORITHM,
        digest=manifest_digest(manifest),
        form="tree",
        manifest=manifest,
    )


def data_form(data: bytes | str | Path) -> str:
    """The form data is fingerprinted in: "tree" for a directory, "file" otherwise."""
    return "tree" if not isinstance(data, bytes) and Path(data).is_dir() else "file"


def fingerprint_path(path: str | Path) -> DatasetFingerprint:
    """Fingerprint a path, auto-detecting file versus directory."""
    return fingerprint_tree(path) if data_form(path) == "tree" else fingerprint_file(path)


def normalize_digest(digest: str) -> str:
    """Lowercase and strip an optional 0x prefix from a presented digest."""
    return digest.strip().lower().removeprefix("0x")


def _manifest_reading(data: bytes | str | Path, digest: str) -> tuple[int, int] | None:
    """(bytes, entries) when the file data also reads as a tree manifest with this digest.

    Every canonical manifest is ``[]`` or starts with _MANIFEST_HEAD, so only
    such data is read whole and parsed.
    """
    if isinstance(data, bytes):
        head = data[:len(_MANIFEST_HEAD)]
    else:
        with open(data, "rb") as file:
            head = file.read(len(_MANIFEST_HEAD))
            if head in (b"[]", _MANIFEST_HEAD):
                data = head + file.read()
    if head not in (b"[]", _MANIFEST_HEAD):
        return None
    try:  # JSON that starts with "[" is a list
        entries = list(map(ManifestEntry.from_json, json.loads(data.decode("utf-8"))))
        same = manifest_digest(entries) == digest
    except (ValueError, RecursionError, DocumentInvalid):
        return None  # not UTF-8 or JSON, nested too deep, a lone surrogate, or not entries
    return (len(data), len(entries)) if same else None


def check_binding(fp: DatasetFingerprint, data: bytes | str | Path) -> BindingReport:
    """Fingerprint data once and compare it with fp.

    The data matches when its form and digest both equal fp's. On a form
    mismatch ``detail`` names both forms and ``actual_digest`` is the data's
    digest in its own form. When fp carries a manifest, the report names every
    mismatched, missing and extra file (data that is not a tree misses them all).
    A file whose bytes are also a canonical tree manifest has the digest of that
    tree too, so a bare digest cannot say which was meant: such a report is
    ``ambiguous``, not matched, and ``detail`` (starting ``AmbiguousForm:``)
    names both readings.
    """
    if fp.algorithm != ALGORITHM:
        raise AlgorithmUnsupported(fp.algorithm)
    if fp.form not in ("file", "tree"):
        raise AlgorithmUnsupported(f"unknown fingerprint form {fp.form!r}")
    actual = fingerprint_bytes(data) if isinstance(data, bytes) else fingerprint_path(data)
    report = BindingReport(
        matched=(actual.form, actual.digest) == (fp.form, fp.digest),
        expected_digest=fp.digest,
        actual_digest=actual.digest,
    )
    if actual.form != fp.form:
        report.detail = f"fingerprint is for a {fp.form} but data is a {actual.form}"
    elif report.matched and fp.form == "file" and (reading := _manifest_reading(data, fp.digest)):
        report.matched, report.ambiguous = False, True
        report.detail = (
            "AmbiguousForm: the data reads as a file of {} bytes and as a tree manifest"
            " of {} entries".format(*reading)
        )
    if fp.manifest is not None:
        expected = {entry.path: entry.digest for entry in fp.manifest}
        found = {entry.path: entry.digest for entry in actual.manifest or ()}
        report.missing = sorted(expected.keys() - found.keys())
        report.extra = sorted(found.keys() - expected.keys())
        report.mismatched = sorted(
            p for p in expected.keys() & found.keys() if expected[p] != found[p]
        )
    return report
