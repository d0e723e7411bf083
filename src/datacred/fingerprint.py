"""Content-derived fingerprints binding credentials to exact dataset bytes.

Two forms:

- ``file``: digest of a single byte stream.
- ``tree``: a manifest of every regular file under a root (sorted,
  slash-separated relative paths, each with its own digest); the top-level
  digest is the SHA-256 of the manifest's canonical JSON encoding, so it is
  independent of filesystem enumeration order. A symbolic link to a file
  inside the root is hashed as that file; a link that leaves the root or
  points at a directory, and any entry that is neither a regular file nor a
  directory (a FIFO, a socket, a device, a dangling link), is refused rather
  than silently left out. Empty directories carry no bytes and are not bound.

Digests are lowercase hex, no ``0x`` prefix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from .canonical import canonicalize
from .errors import AlgorithmUnsupported, SymlinkEscape, UnreadablePath

ALGORITHM = "sha256"
_READ_CHUNK = 1 << 20


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    digest: str

    def to_json(self) -> dict:
        return {"path": self.path, "digest": self.digest}

    @classmethod
    def from_json(cls, obj: dict) -> "ManifestEntry":
        return cls(path=obj["path"], digest=obj["digest"])


@dataclass(frozen=True)
class DatasetFingerprint:
    """Digest plus enough structure to recheck it against data later."""

    algorithm: str
    digest: str
    form: str  # "file" | "tree"
    manifest: tuple[ManifestEntry, ...] | None = None

    def to_json(self) -> dict:
        out = {"algorithm": self.algorithm, "digest": self.digest, "form": self.form}
        if self.manifest is not None:
            out["manifest"] = [entry.to_json() for entry in self.manifest]
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "DatasetFingerprint":
        manifest = obj.get("manifest")
        return cls(
            algorithm=obj["algorithm"],
            digest=obj["digest"],
            form=obj["form"],
            manifest=tuple(ManifestEntry.from_json(e) for e in manifest)
            if manifest is not None
            else None,
        )


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

    def to_json(self) -> dict:
        return {
            "matched": self.matched,
            "expectedDigest": self.expected_digest,
            "actualDigest": self.actual_digest,
            "mismatched": self.mismatched,
            "missing": self.missing,
            "extra": self.extra,
            "detail": self.detail,
        }


def _sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    try:
        with path.open("rb") as handle:
            while chunk := handle.read(_READ_CHUNK):
                digest.update(chunk)
    except OSError as exc:
        raise UnreadablePath(f"{path}: {exc}") from exc
    return digest.hexdigest()


def fingerprint_bytes(data: bytes) -> DatasetFingerprint:
    """Fingerprint a single byte sequence (empty input allowed)."""
    return DatasetFingerprint(algorithm=ALGORITHM, digest=_sha256_hex(data), form="file")


def fingerprint_file(path: str | Path) -> DatasetFingerprint:
    """Fingerprint one file without loading it wholly into memory."""
    path = Path(path)
    if not path.is_file():
        raise UnreadablePath(f"{path}: not a readable file")
    return DatasetFingerprint(algorithm=ALGORITHM, digest=_sha256_file(path), form="file")


def _collect_files(root: Path) -> list[Path]:
    root_resolved = root.resolve()
    files = []
    for path in sorted(root.rglob("*")):
        if path.is_symlink():
            target = path.resolve()
            if not target.is_relative_to(root_resolved):
                raise SymlinkEscape(f"{path} -> {target} escapes {root}")
            if target.is_dir():
                raise UnreadablePath(f"{path} -> {target}: symlinked directory not fingerprinted")
        if path.is_file():
            files.append(path)
        elif not path.is_dir():  # a FIFO, socket, device or dangling link has no bytes to bind
            raise UnreadablePath(f"{path}: not a regular file or directory")
    return files


def build_manifest(root: str | Path) -> tuple[ManifestEntry, ...]:
    """List every regular file under root with its digest, sorted by path."""
    root = Path(root)
    if not root.is_dir():
        raise UnreadablePath(f"{root}: not a readable directory")
    entries = []
    for path in _collect_files(root):
        rel = path.relative_to(root).as_posix()
        entries.append(ManifestEntry(path=rel, digest=_sha256_file(path)))
    entries.sort(key=lambda entry: entry.path)
    return tuple(entries)


def manifest_digest(manifest: tuple[ManifestEntry, ...]) -> str:
    return _sha256_hex(canonicalize([entry.to_json() for entry in manifest]))


def fingerprint_tree(root: str | Path) -> DatasetFingerprint:
    """Fingerprint a directory of files as a content manifest."""
    manifest = build_manifest(root)
    return DatasetFingerprint(
        algorithm=ALGORITHM,
        digest=manifest_digest(manifest),
        form="tree",
        manifest=manifest,
    )


def fingerprint_path(path: str | Path) -> DatasetFingerprint:
    """Fingerprint a path, auto-detecting file versus directory."""
    path = Path(path)
    if path.is_dir():
        return fingerprint_tree(path)
    return fingerprint_file(path)


def normalize_digest(digest: str) -> str:
    """Lowercase and strip an optional 0x prefix from a presented digest."""
    digest = digest.strip().lower()
    if digest.startswith("0x"):
        digest = digest[2:]
    return digest


def check_binding(fp: DatasetFingerprint, data: bytes | str | Path) -> BindingReport:
    """Recompute the fingerprint of data and compare with fp.

    For tree fingerprints the report names every per-file mismatch, missing
    file, and extra file.
    """
    if fp.algorithm != ALGORITHM:
        raise AlgorithmUnsupported(fp.algorithm)

    if fp.form == "file":
        if isinstance(data, bytes):
            actual = fingerprint_bytes(data)
        else:
            path = Path(data)
            if path.is_dir():
                return BindingReport(
                    matched=False,
                    expected_digest=fp.digest,
                    detail="fingerprint is for a single file but data is a directory",
                )
            actual = fingerprint_file(path)
        return BindingReport(
            matched=actual.digest == fp.digest,
            expected_digest=fp.digest,
            actual_digest=actual.digest,
        )

    if fp.form == "tree":
        if isinstance(data, bytes):
            return BindingReport(
                matched=False,
                expected_digest=fp.digest,
                detail="fingerprint is for a file tree but data is a byte stream",
            )
        path = Path(data)
        if not path.is_dir():
            return BindingReport(
                matched=False,
                expected_digest=fp.digest,
                detail="fingerprint is for a file tree but data is a single file",
            )
        actual_manifest = build_manifest(path)
        actual_digest = manifest_digest(actual_manifest)
        report = BindingReport(
            matched=actual_digest == fp.digest,
            expected_digest=fp.digest,
            actual_digest=actual_digest,
        )
        if fp.manifest is not None:
            expected = {entry.path: entry.digest for entry in fp.manifest}
            actual = {entry.path: entry.digest for entry in actual_manifest}
            report.missing = sorted(set(expected) - set(actual))
            report.extra = sorted(set(actual) - set(expected))
            report.mismatched = sorted(
                p for p in set(expected) & set(actual) if expected[p] != actual[p]
            )
        return report

    raise AlgorithmUnsupported(f"unknown fingerprint form {fp.form!r}")
