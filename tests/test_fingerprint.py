"""Content fingerprints: published SHA-256 vectors, tree manifests, binding checks."""

import errno
import hashlib
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from datacred.canonical import canonicalize
from datacred.errors import AlgorithmUnsupported, SymlinkEscape, UnreadablePath
from datacred.fingerprint import (
    _READ_CHUNK,
    DatasetFingerprint,
    ManifestEntry,
    build_manifest,
    check_binding,
    data_form,
    fingerprint_bytes,
    fingerprint_file,
    fingerprint_path,
    fingerprint_tree,
    manifest_digest,
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


def test_retargeting_a_symlink_is_refused_or_changes_the_digest(tmp_path):
    (tmp_path / "outside.txt").write_text("outside")
    root = tmp_path / "root"
    (root / "dir").mkdir(parents=True)
    (root / "a").write_text("a")
    (root / "b").write_text("b")
    (root / "link").symlink_to(root / "a")
    before = fingerprint_tree(root).digest
    (root / "link").unlink()
    (root / "link").symlink_to(root / "b")
    assert fingerprint_tree(root).digest != before
    (root / "link").unlink()
    (root / "link").symlink_to(root / "dir")
    with pytest.raises(UnreadablePath, match="link"):
        fingerprint_tree(root)
    (root / "link").unlink()
    (root / "link").symlink_to(tmp_path / "outside.txt")
    with pytest.raises(SymlinkEscape, match="link"):
        fingerprint_tree(root)


def test_symlink_loop_in_tree_refused(tmp_path):
    (tmp_path / "a").write_text("a")
    (tmp_path / "loop").symlink_to(tmp_path / "loop")
    with pytest.raises(UnreadablePath, match="loop"):
        fingerprint_tree(tmp_path)


def refuse_listing(monkeypatch, name: str) -> list:
    """Make os.scandir fail with EACCES on directories called name, even as root.

    Returns the list of every directory listed, in call order."""
    scandir, listed = os.scandir, []

    def guarded(path="."):
        listed.append(os.fspath(path))
        if os.path.basename(os.fspath(path)) == name:
            raise PermissionError(errno.EACCES, "Permission denied", os.fspath(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", guarded)
    return listed


def test_unlistable_directory_refused(tmp_path, monkeypatch):
    """A directory that cannot be listed must not drop out of the manifest."""
    (tmp_path / "a").write_text("a")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "x").write_text("x")
    refuse_listing(monkeypatch, "sub")
    with pytest.raises(UnreadablePath, match="sub"):
        fingerprint_tree(tmp_path)


def test_each_directory_listed_once(tmp_path, monkeypatch):
    for rel in ("a", "d/b", "d/e/c", "f/g"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(rel)
    listed = refuse_listing(monkeypatch, "no such directory")
    fp = fingerprint_tree(tmp_path)
    assert [e.path for e in fp.manifest] == ["a", "d/b", "d/e/c", "f/g"]
    assert sorted(listed) == sorted(
        str(tmp_path / rel) if rel else str(tmp_path) for rel in ("", "d", "d/e", "f")
    )


def test_first_bad_entry_in_path_order_is_reported(tmp_path, monkeypatch):
    """Whatever order the filesystem lists them in, the refusal is the same one."""
    (tmp_path / "outside.txt").write_text("secret")
    root = tmp_path / "root"
    (root / "m").mkdir(parents=True)
    (root / "a-ok").write_text("fine")
    (root / "z-escape").symlink_to(tmp_path / "outside.txt")
    (root / "b-dangling").symlink_to(root / "missing")
    refuse_listing(monkeypatch, "m")
    with pytest.raises(UnreadablePath, match="b-dangling"):
        fingerprint_tree(root)
    (root / "b-dangling").unlink()
    with pytest.raises(UnreadablePath, match="cannot list"):
        fingerprint_tree(root)
    monkeypatch.undo()
    with pytest.raises(SymlinkEscape, match="z-escape"):
        fingerprint_tree(root)


def test_name_that_is_not_utf8_is_refused(tmp_path):
    """Such a name has no canonical JSON form; it used to crash the manifest encoding."""
    (tmp_path / "a").write_text("a")
    (tmp_path / "\ue000").symlink_to(tmp_path / "missing")  # refused too, but later in path order
    root = os.fsencode(tmp_path)
    try:
        os.close(os.open(os.path.join(root, b"\xff.csv"), os.O_CREAT | os.O_WRONLY))
    except OSError as exc:
        pytest.skip(f"this filesystem refuses a name that is not UTF-8: {exc}")
    with pytest.raises(UnreadablePath, match=r"\\udcff\.csv.*not valid UTF-8"):
        fingerprint_tree(tmp_path)
    os.rename(os.path.join(root, b"\xff.csv"), tmp_path / "b")
    os.mkdir(os.path.join(root, b"d\xff"))
    with pytest.raises(UnreadablePath, match=r"d\\udcff'"):
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


def test_check_binding_form_mismatch_reports_both_forms(tmp_path):
    (tmp_path / "a").write_bytes(b"abc")
    tree_fp = fingerprint_tree(tmp_path)
    report = check_binding(tree_fp, b"abc")
    assert not report.matched
    assert report.detail == "fingerprint is for a tree but data is a file"
    assert report.actual_digest == ABC_SHA256
    assert (report.missing, report.extra, report.mismatched) == (["a"], [], [])

    report = check_binding(fingerprint_bytes(b"abc"), tmp_path)
    assert not report.matched
    assert report.detail == "fingerprint is for a file but data is a tree"
    assert report.actual_digest == tree_fp.digest


def claimed(digest: str, data) -> DatasetFingerprint:
    """A bare digest claim, which takes its form from the data (check_binding_claim)."""
    return DatasetFingerprint(algorithm="sha256", digest=digest, form=data_form(data))


def test_file_holding_a_tree_manifest_is_ambiguous(tmp_path):
    """Such a file has the tree's digest, so a bare digest cannot tell them apart."""
    (tmp_path / "tree").mkdir()
    (tmp_path / "tree" / "a").write_text("hi")
    tree = fingerprint_tree(tmp_path / "tree")
    manifest = canonicalize([entry.to_json() for entry in tree.manifest])
    (tmp_path / "manifest.bin").write_bytes(manifest)
    for data in (tmp_path / "manifest.bin", str(tmp_path / "manifest.bin"), manifest):
        report = check_binding(claimed(tree.digest, data), data)
        assert (report.matched, report.ambiguous, report.actual_digest) == (
            False, True, tree.digest
        )
        assert report.detail.startswith("AmbiguousForm:")
        assert f"file of {len(manifest)} bytes" in report.detail
        assert "manifest of 1 entries" in report.detail
        assert report.to_json()["ambiguous"] is True
    assert check_binding(claimed(tree.digest, tmp_path / "tree"), tmp_path / "tree").matched
    report = check_binding(claimed(hashlib.sha256(b"[]").hexdigest(), b"[]"), b"[]")
    assert report.ambiguous and "file of 2 bytes" in report.detail  # the empty tree's manifest
    assert "manifest of 0 entries" in report.detail


@pytest.mark.parametrize("data", [
    pytest.param(b'[{"path":"a","digest":"b"}]', id="keys-out-of-order"),
    pytest.param(b'[{"digest":"b","path":"a","x":1}]', id="extra-key"),
    pytest.param(b'[{"digest":"b","path":"a"}] ', id="trailing-space"),
    pytest.param(b'[{"digest":"b","path":1}]', id="path-not-a-string"),
    pytest.param(b'[{"digest":"b","path":"\\ud800"}]', id="lone-surrogate"),
    pytest.param(b'[{"digest":"' + b"[" * 100_000, id="too-deep"),
    pytest.param(b'[{"digest":"\xff"}]', id="not-utf8"),
    pytest.param(b"[1, 2]", id="other-list"),
    pytest.param(b"[", id="bracket"),
    pytest.param(b"", id="empty"),
])
def test_file_that_is_not_a_canonical_manifest_matches(data):
    fp = fingerprint_bytes(data)
    report = check_binding(fp, data)
    assert (report.matched, report.ambiguous, report.detail) == (True, False, "")


def test_only_a_file_that_starts_as_a_manifest_is_parsed(tmp_path, monkeypatch):
    """A JSON array dataset, however large, costs only a read of its first bytes."""
    parsed = []
    monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or [])
    for data in (b'[{"id":1}]', b"[1, 2]", b"[" + b" " * _READ_CHUNK + b"]"):
        (tmp_path / "data.json").write_bytes(data)
        assert check_binding(fingerprint_bytes(data), tmp_path / "data.json").matched
        assert check_binding(fingerprint_bytes(data), data).matched
    assert parsed == []


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


@given(st.integers(0, 3 * _READ_CHUNK))
@example(0)
@example(_READ_CHUNK - 1)
@example(_READ_CHUNK)
@example(_READ_CHUNK + 1)
@example(2 * _READ_CHUNK + 1)
@settings(max_examples=15, deadline=None)
def test_file_digest_is_sha256_of_its_bytes_across_read_chunks(size):
    data = random.Random(size).randbytes(size)
    expected = hashlib.sha256(data).hexdigest()
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        (root / "data.bin").write_bytes(data)
        (root / "sub").mkdir()
        (root / "sub" / "copy.bin").write_bytes(data)
        assert fingerprint_file(root / "data.bin").digest == expected
        assert [(e.path, e.digest) for e in build_manifest(root)] == [
            ("data.bin", expected), ("sub/copy.bin", expected)
        ]


def test_file_that_cannot_be_opened_is_unreadable(tmp_path, monkeypatch):
    """chmod 000 does not stop a root reader, so the refusal is made at os.open."""
    (tmp_path / "a").write_text("a")
    (tmp_path / "locked").write_text("x")
    real_open = os.open

    def guarded(path, flags, *args, **kwargs):
        if os.path.basename(os.fspath(path)) == "locked":
            raise PermissionError(errno.EACCES, "Permission denied", os.fspath(path))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", guarded)
    full_path = re.escape(str(tmp_path / "locked"))  # a tree opens only the name, by descriptor
    with pytest.raises(UnreadablePath, match=full_path):
        fingerprint_tree(tmp_path)
    with pytest.raises(UnreadablePath, match=full_path):
        fingerprint_file(tmp_path / "locked")
    assert fingerprint_file(tmp_path / "a").digest == hashlib.sha256(b"a").hexdigest()


def test_failed_read_still_closes_the_file(tmp_path, monkeypatch):
    (tmp_path / "f").write_bytes(b"data")
    opened, closed = [], []
    real_open, real_close = os.open, os.close

    def record_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    def failing_read(fd, size):
        raise OSError(errno.EIO, "Input/output error")

    def record_close(fd):
        closed.append(fd)
        real_close(fd)

    monkeypatch.setattr(os, "open", record_open)
    monkeypatch.setattr(os, "read", failing_read)
    monkeypatch.setattr(os, "close", record_close)
    with pytest.raises(UnreadablePath, match="Input/output error"):
        fingerprint_file(tmp_path / "f")
    assert len(opened) == 1 and closed == opened


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/fd")
def test_no_descriptor_is_left_open(tmp_path, monkeypatch):
    """Not after a tree is read, nor after any of the ways reading it can fail."""
    root = tmp_path / "tree"
    for rel in ("a", "d/b", "d/e/c", "f/g"):
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(rel)

    def open_now() -> int:
        return len(os.listdir("/proc/self/fd"))

    before = open_now()
    assert len(fingerprint_tree(root).manifest) == 4
    assert open_now() == before

    real_read, reads = os.read, []

    def fail_after_the_first_file(fd, size):
        reads.append(fd)
        if len(reads) > 2:  # a file takes two reads, the second one at EOF
            raise OSError(errno.EIO, "Input/output error")
        return real_read(fd, size)

    with monkeypatch.context() as patch:
        patch.setattr(os, "read", fail_after_the_first_file)
        with pytest.raises(UnreadablePath, match="Input/output error"):
            fingerprint_tree(root)
    assert open_now() == before

    real_open = os.open

    def move_out_after_the_walk(victim):
        def opener(path, flags, *args, dir_fd=None, **kwargs):
            if dir_fd is None and victim.exists():  # the first directory opened after the walk
                victim.rename(tmp_path / victim.name)
            return real_open(path, flags, *args, dir_fd=dir_fd, **kwargs)
        return opener

    for victim, message in ((root / "d" / "b", r"\[Errno 2\]"), (root / "f", "cannot open")):
        with monkeypatch.context() as patch:
            patch.setattr(os, "open", move_out_after_the_walk(victim))
            with pytest.raises(UnreadablePath, match=re.escape(f"{victim}: ") + message):
                fingerprint_tree(root)
        assert open_now() == before


# --- properties of the tree digest ---

NAMES = st.text("abAB-._0", min_size=1, max_size=3).filter(lambda name: name not in (".", ".."))


def no_file_is_a_directory(files: dict) -> bool:
    return not any(other.startswith(path + "/") for path in files for other in files)


TREES = st.dictionaries(
    st.lists(NAMES, min_size=1, max_size=3).map("/".join), st.binary(max_size=32), max_size=6
).filter(no_file_is_a_directory)


def documented_digest(files: dict) -> str:
    """The tree rule from the module docstring, computed with hashlib and json alone."""
    manifest = [
        {"path": path, "digest": hashlib.sha256(files[path]).hexdigest()} for path in sorted(files)
    ]
    encoded = json.dumps(manifest, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def write_tree(root: Path, files: dict, order) -> Path:
    for rel in order:
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(files[rel])
    return root


@given(TREES)
@settings(max_examples=40, deadline=None)
def test_tree_digest_is_the_documented_rule(files):
    with tempfile.TemporaryDirectory() as scratch:
        root = write_tree(Path(scratch), files, files)
        assert fingerprint_tree(root).digest == documented_digest(files)


@given(TREES.filter(bool), st.sampled_from(["flip", "rename", "add", "delete"]), st.data())
@settings(max_examples=60, deadline=None)
def test_any_change_to_a_tree_changes_its_digest(files, change, data):
    with tempfile.TemporaryDirectory() as scratch:
        root = write_tree(Path(scratch), files, files)
        before = fingerprint_tree(root).digest
        path = data.draw(st.sampled_from(sorted(files)))
        changed = dict(files)
        if change == "flip":
            content = bytearray(files[path] or b"\0")
            index = data.draw(st.integers(0, len(content) - 1))
            content[index] ^= 1 << data.draw(st.integers(0, 7))
            changed[path] = bytes(content)
            (root / path).write_bytes(changed[path])
        elif change == "rename":  # "~" is outside NAMES, so the new name is free
            changed[path + "~"] = changed.pop(path)
            (root / path).rename(root / (path + "~"))
        elif change == "add":
            changed["new~"] = data.draw(st.binary(max_size=8))
            (root / "new~").write_bytes(changed["new~"])
        else:
            del changed[path]
            (root / path).unlink()
        after = fingerprint_tree(root).digest
        assert after != before
        assert after == documented_digest(changed)


@given(TREES, st.data())
@settings(max_examples=40, deadline=None)
def test_tree_digest_does_not_depend_on_creation_order(files, data):
    order = data.draw(st.permutations(sorted(files)))
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
        one = write_tree(Path(first), files, sorted(files))
        two = write_tree(Path(second), files, order)
        assert fingerprint_tree(one).digest == fingerprint_tree(two).digest


# --- the manifest encoding ---

PATHS = st.text(st.characters(exclude_categories=["Cs"]))  # any text a str.encode accepts
DIGESTS = st.text("0123456789abcdef", min_size=64, max_size=64) | st.text("0123456789abcdef")
AWKWARD_PATHS = ("", '"', "\\", "\x00\x1f\x7f", "\u2028\u2029", "\U0001f600")


@given(st.lists(st.builds(ManifestEntry, PATHS, DIGESTS)))
@example([ManifestEntry(path, "00") for path in AWKWARD_PATHS])
@example([ManifestEntry("b", "1"), ManifestEntry("a", "2"), ManifestEntry("b", "1")])
@settings(max_examples=300, deadline=None)
def test_manifest_encoding_is_canonical(entries):
    """manifest_digest encodes entries directly; the bytes are canonicalize's, any path."""
    expected = hashlib.sha256(canonicalize([entry.to_json() for entry in entries])).hexdigest()
    assert manifest_digest(tuple(entries)) == expected


def test_manifest_digest_vector():
    entries = (
        ManifestEntry("z/\u00e9t\u00e9.csv", hashlib.sha256(b"1").hexdigest()),
        ManifestEntry('a "q"\\\t\u2028', EMPTY_SHA256),
        ManifestEntry("\U0001f600/x", "0" * 64),
    )
    assert manifest_digest(entries) == (
        "089460155e4b779272cbc30c68953506f16802cac0f0a16bf423bfe89e5acded"
    )
