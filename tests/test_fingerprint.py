"""Content fingerprints: published SHA-256 vectors, tree manifests, binding checks."""

import hashlib
import os
import random

import pytest

from datacred.canonical import canonicalize
from datacred.errors import AlgorithmUnsupported, SymlinkEscape, UnreadablePath
from datacred.fingerprint import (
    DatasetFingerprint,
    check_binding,
    fingerprint_bytes,
    fingerprint_path,
    fingerprint_tree,
    normalize_digest,
)

# Published SHA-256 vectors (NIST/RFC 6234); these anchor hashlib as a
# trustworthy oracle for the derived values below.
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
ABC_SHA256 = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_published_sha256_vectors():
    assert fingerprint_bytes(b"").digest == EMPTY_SHA256
    assert fingerprint_bytes(b"abc").digest == ABC_SHA256
    assert (
        fingerprint_bytes(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").digest
        == "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    )


def test_fingerprint_bytes_form_and_determinism():
    fp = fingerprint_bytes(b"data")
    assert fp.form == "file" and fp.algorithm == "sha256" and len(fp.digest) == 64
    assert fp == fingerprint_bytes(b"data")


def test_single_bit_flip_changes_digest():
    data = bytearray(b"some dataset bytes")
    before = fingerprint_bytes(bytes(data)).digest
    data[7] ^= 0x01
    assert fingerprint_bytes(bytes(data)).digest != before


def test_empty_tree(tmp_path):
    fp = fingerprint_tree(tmp_path)
    assert fp.form == "tree"
    assert fp.manifest == ()
    assert fp.digest == hashlib.sha256(b"[]").hexdigest()


def test_single_file_tree(tmp_path):
    (tmp_path / "a.txt").write_text("x")
    fp = fingerprint_tree(tmp_path)
    assert [e.to_json() for e in fp.manifest] == [
        {"path": "a.txt", "digest": hashlib.sha256(b"x").hexdigest()}
    ]
    expected = hashlib.sha256(
        canonicalize([{"path": "a.txt", "digest": hashlib.sha256(b"x").hexdigest()}])
    ).hexdigest()
    assert fp.digest == expected


def test_manifest_paths_sorted_and_slash_separated(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "deep.bin").write_bytes(b"1")
    (tmp_path / "b.txt").write_text("2")
    (tmp_path / "a.txt").write_text("3")
    fp = fingerprint_tree(tmp_path)
    assert [e.path for e in fp.manifest] == ["a.txt", "b.txt", "sub/deep.bin"]


def test_rename_changes_tree_digest(tmp_path):
    (tmp_path / "a.txt").write_text("same content")
    before = fingerprint_tree(tmp_path).digest
    (tmp_path / "a.txt").rename(tmp_path / "b.txt")
    assert fingerprint_tree(tmp_path).digest != before


def test_empty_files_participate(tmp_path):
    (tmp_path / "empty").write_bytes(b"")
    fp = fingerprint_tree(tmp_path)
    assert [e.path for e in fp.manifest] == ["empty"]
    assert fp.manifest[0].digest == EMPTY_SHA256


def test_enumeration_order_invariance(tmp_path):
    rng = random.Random(7)
    names = [f"f{i:02d}.dat" for i in range(12)]
    first = tmp_path / "one"
    second = tmp_path / "two"
    first.mkdir()
    second.mkdir()
    for name in names:
        (first / name).write_bytes(name.encode())
    for name in rng.sample(names, len(names)):
        (second / name).write_bytes(name.encode())
    assert fingerprint_tree(first).digest == fingerprint_tree(second).digest


def test_any_single_byte_mutation_changes_tree_digest(tmp_path):
    rng = random.Random(21)
    root = tmp_path / "tree"
    root.mkdir()
    files = []
    for i in range(6):
        path = root / f"f{i}"
        path.write_bytes(rng.randbytes(rng.randrange(1, 64)))
        files.append(path)
    baseline = fingerprint_tree(root).digest
    for path in files:
        data = bytearray(path.read_bytes())
        index = rng.randrange(len(data))
        data[index] ^= 1 << rng.randrange(8)
        original = path.read_bytes()
        path.write_bytes(bytes(data))
        assert fingerprint_tree(root).digest != baseline, path
        path.write_bytes(original)
    assert fingerprint_tree(root).digest == baseline


def test_symlink_escape_rejected(tmp_path):
    outside = tmp_path / "outside.txt"
    outside.write_text("secret")
    root = tmp_path / "root"
    root.mkdir()
    (root / "link").symlink_to(outside)
    with pytest.raises(SymlinkEscape):
        fingerprint_tree(root)


def test_internal_symlink_allowed(tmp_path):
    (tmp_path / "real.txt").write_text("content")
    (tmp_path / "alias").symlink_to(tmp_path / "real.txt")
    fp = fingerprint_tree(tmp_path)
    assert {e.path for e in fp.manifest} == {"real.txt", "alias"}


def test_symlinked_directory_refused(tmp_path):
    """Retargeting a directory link must not leave the tree digest unchanged."""
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "x").write_text(name)
    (tmp_path / "link").symlink_to(tmp_path / "a")
    with pytest.raises(UnreadablePath, match="link"):
        fingerprint_tree(tmp_path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_fifo_in_tree_refused(tmp_path):
    """A FIFO has no bytes to bind; leaving it out would hide it from the digest."""
    (tmp_path / "a").write_text("a")
    os.mkfifo(tmp_path / "pipe")
    with pytest.raises(UnreadablePath, match="pipe"):
        fingerprint_tree(tmp_path)


def test_dangling_link_in_tree_refused(tmp_path):
    (tmp_path / "a").write_text("a")
    (tmp_path / "gone").symlink_to(tmp_path / "missing")
    with pytest.raises(UnreadablePath, match="gone"):
        fingerprint_tree(tmp_path)


def test_unreadable_path(tmp_path):
    with pytest.raises(UnreadablePath):
        fingerprint_tree(tmp_path / "missing")
    with pytest.raises(UnreadablePath):
        fingerprint_path(tmp_path / "missing")


def test_check_binding_file_roundtrip():
    fp = fingerprint_bytes(b"payload")
    assert check_binding(fp, b"payload").matched
    report = check_binding(fp, b"paylo")
    assert not report.matched
    assert report.actual_digest != fp.digest


def test_check_binding_tree_reports_details(tmp_path):
    root = tmp_path / "data"
    root.mkdir()
    (root / "keep.txt").write_text("keep")
    (root / "change.txt").write_text("original")
    (root / "lose.txt").write_text("bye")
    fp = fingerprint_tree(root)
    assert check_binding(fp, root).matched

    (root / "change.txt").write_text("eliginal")
    (root / "lose.txt").unlink()
    (root / "extra.txt").write_text("new")
    report = check_binding(fp, root)
    assert not report.matched
    assert report.mismatched == ["change.txt"]
    assert report.missing == ["lose.txt"]
    assert report.extra == ["extra.txt"]


def test_check_binding_form_mismatch(tmp_path):
    tree_fp = fingerprint_tree(tmp_path)
    assert not check_binding(tree_fp, b"bytes").matched
    file_fp = fingerprint_bytes(b"x")
    assert not check_binding(file_fp, tmp_path).matched


def test_unsupported_algorithm():
    fp = DatasetFingerprint(algorithm="md5", digest="00" * 16, form="file")
    with pytest.raises(AlgorithmUnsupported):
        check_binding(fp, b"x")


def test_fingerprint_path_autodetects(tmp_path):
    (tmp_path / "f.bin").write_bytes(b"abc")
    assert fingerprint_path(tmp_path / "f.bin").form == "file"
    assert fingerprint_path(tmp_path / "f.bin").digest == ABC_SHA256
    assert fingerprint_path(tmp_path).form == "tree"


def test_normalize_digest_strips_prefix():
    assert normalize_digest("0xABCDEF") == "abcdef"
    assert normalize_digest("abcdef") == "abcdef"


def test_fingerprint_json_roundtrip(tmp_path):
    (tmp_path / "a").write_bytes(b"1")
    fp = fingerprint_tree(tmp_path)
    assert DatasetFingerprint.from_json(fp.to_json()) == fp
    file_fp = fingerprint_bytes(b"z")
    assert DatasetFingerprint.from_json(file_fp.to_json()) == file_fp
