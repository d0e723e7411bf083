"""Command-line workflows and the exit-code contract."""

import base64
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import requests
from click.testing import CliRunner

import datacred
from datacred.agent import AgentConfig
from datacred.canonical import canonicalize
from datacred.cli import main
from datacred.credential import DATASET_PROVENANCE_V1, CredentialStatus, issue_credential
from datacred.credential import new_registry
from datacred.did import generate_did_key
from datacred.fingerprint import fingerprint_bytes
from datacred.keys import generate_keypair
from datacred.proofs import ASSERTION, attach_proof
from datacred.wallet import Wallet
from conftest import PASSPHRASE

pytestmark = pytest.mark.usefixtures("fast_wallet_kdf")


@pytest.fixture
def runner(monkeypatch):
    monkeypatch.setenv("DATACRED_PASSPHRASE", PASSPHRASE)
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, list(args))
    return result


def must(runner, *args):
    result = invoke(runner, *args)
    assert result.exit_code == 0, result.output
    return result


def stdout_json(result):
    return json.loads(result.stdout)


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.bin").write_bytes(b"the dataset bytes")
    return tmp_path


def make_identities(runner):
    issuer = stdout_json(must(runner, "keygen", "--wallet", "w.json", "--label", "issuer"))
    subject = stdout_json(must(runner, "keygen", "--wallet", "w.json", "--label", "subject"))
    return issuer, subject


def issue_args(issuer_did, subject_did, digest, *extra):
    return [
        "issue", "--wallet", "w.json", "--key-label", "issuer",
        "--issuer", issuer_did, "--subject", subject_did,
        "--claim", f"Hash of Data={digest}",
        "--claim", "Data Ethically Sourced=YES",
        "--out", "cred.json", *extra,
    ]


def test_keygen_lists_did_and_key(runner, workspace):
    info = stdout_json(must(runner, "keygen", "--wallet", "w.json", "--label", "k1"))
    assert info["label"] == "k1"
    assert info["did"].startswith("did:key:z")


def test_keygen_deterministic_seed(runner, workspace):
    # did:key for the public key derived from the all-zero seed; computed
    # with the pure-python arithmetic oracle and frozen.
    info = stdout_json(
        must(runner, "keygen", "--wallet", "w.json", "--label", "z", "--seed-hex", "00" * 32)
    )
    assert info["did"] == "did:key:z6MkiTBz1ymuepAQ4HEHYSF1H8quG5GLVVQR3djdX3mDooWp"


def test_keygen_on_a_label_the_wallet_holds_exits_2_and_keeps_its_key(runner, workspace):
    """A second keygen under the default label printed a new DID, exited 0 and replaced
    the first key, so an issuer lost the key that signs its registry."""
    first = stdout_json(must(runner, "keygen", "--wallet", "w.json"))
    before = (workspace / "w.json").read_bytes()
    result = invoke(runner, "keygen", "--wallet", "w.json")
    assert result.exit_code == 2, result.output
    assert "already holds 'default'" in result.stderr
    assert (workspace / "w.json").read_bytes() == before
    entry = Wallet.open(workspace / "w.json", PASSPHRASE).get("default")
    assert entry.public_key_base58 == first["publicKeyBase58"]


@pytest.mark.parametrize("kdf", [{"name": "scrypt"}, "scrypt"], ids=["without-cost", "string"])
def test_keygen_on_wallet_with_malformed_kdf_exits_2(runner, workspace, kdf):
    must(runner, "keygen", "--wallet", "w.json", "--label", "k1")
    header, records = (workspace / "w.json").read_bytes().split(b"\n", 1)
    header = json.loads(header)
    header["kdf"] = kdf
    (workspace / "w.json").write_bytes(json.dumps(header).encode() + b"\n" + records)
    result = invoke(runner, "keygen", "--wallet", "w.json", "--label", "k2")
    assert result.exit_code == 2, result.output
    assert "CorruptWallet" in result.stderr and "w.json" in result.stderr


def test_keygen_on_a_version_1_wallet_exits_2_and_leaves_it(runner, workspace):
    envelope = {"version": 1, "walletId": "0123456789abcdef",
                "kdf": {"name": "scrypt", "n": 2**14, "r": 8, "p": 1},
                **{name: base64.b64encode(bytes(size)).decode()
                   for name, size in [("salt", 16), ("nonce", 12), ("ciphertext", 32)]}}
    (workspace / "w.json").write_text(json.dumps(envelope, indent=2) + "\n")
    before = (workspace / "w.json").read_bytes()
    result = invoke(runner, "keygen", "--wallet", "w.json", "--label", "k")
    assert result.exit_code == 2, result.output
    assert "CorruptWallet" in result.stderr and "w.json" in result.stderr
    assert (workspace / "w.json").read_bytes() == before


def test_hash_empty_file(runner, workspace):
    (workspace / "empty.bin").write_bytes(b"")
    fp = stdout_json(must(runner, "hash", "empty.bin"))
    assert fp["digest"] == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    assert fp["form"] == "file"


def test_hash_directory(runner, workspace):
    (workspace / "tree").mkdir()
    (workspace / "tree" / "a.txt").write_text("x")
    fp = stdout_json(must(runner, "hash", "tree"))
    assert fp["form"] == "tree"
    assert fp["manifest"][0]["path"] == "a.txt"


def test_hash_tree_with_name_that_is_not_utf8_exits_2(runner, workspace):
    """It used to die with a UnicodeEncodeError traceback from the manifest encoding."""
    (workspace / "tree").mkdir()
    try:
        os.close(os.open(b"tree/\xff.csv", os.O_CREAT | os.O_WRONLY))
    except OSError as exc:
        pytest.skip(f"this filesystem refuses a name that is not UTF-8: {exc}")
    issuer, subject = make_identities(runner)
    must(runner, *issue_args(issuer["did"], subject["did"], "ab" * 32))
    for command in (("hash", "tree"), ("verify", "cred.json", "--data", "tree")):
        result = invoke(runner, *command)
        assert result.exit_code == 2, result.output
        assert "UnreadablePath" in result.stderr and "not valid UTF-8" in result.stderr


def test_verify_file_holding_a_tree_manifest_is_indeterminate(runner, workspace):
    """A tree's canonical manifest, saved as a file, has the tree's digest."""
    issuer, subject = make_identities(runner)
    (workspace / "tree").mkdir()
    (workspace / "tree" / "a").write_text("hi")
    tree = stdout_json(must(runner, "hash", "tree"))
    (workspace / "manifest.bin").write_bytes(canonicalize(tree["manifest"]))
    must(runner, *issue_args(issuer["did"], subject["did"], tree["digest"]))
    must(runner, "verify", "cred.json", "--data", "tree")

    result = invoke(runner, "verify", "cred.json", "--data", "manifest.bin", "--json")
    assert result.exit_code == 1, result.output
    report = stdout_json(result)
    assert report["overall"] == "Indeterminate"
    assert all(check["status"] == "Valid" for check in report["checks"].values())
    assert (report["binding"]["matched"], report["binding"]["ambiguous"]) == (False, True)
    assert report["binding"]["detail"].startswith("AmbiguousForm:")

    text = invoke(runner, "verify", "cred.json", "--data", "manifest.bin")
    assert text.exit_code == 1
    assert "credential: Indeterminate" in text.stdout
    assert "data binding: AMBIGUOUS - AmbiguousForm:" in text.stdout


def test_issue_verify_roundtrip(runner, workspace):
    issuer, subject = make_identities(runner)
    digest = stdout_json(must(runner, "hash", "data.bin"))["digest"]
    must(runner, *issue_args(issuer["did"], subject["did"], digest))

    result = must(runner, "verify", "cred.json", "--data", "data.bin")
    assert "credential: Valid" in result.stdout
    assert "data binding: match" in result.stdout

    as_json = invoke(runner, "verify", "cred.json", "--data", "data.bin", "--json")
    assert as_json.exit_code == 0
    report = stdout_json(as_json)
    assert report["overall"] == "Valid"
    assert report["binding"]["matched"] is True
    assert report["claims"]["Data Ethically Sourced"] == "YES"


def test_verify_modified_data_exits_1(runner, workspace):
    issuer, subject = make_identities(runner)
    digest = stdout_json(must(runner, "hash", "data.bin"))["digest"]
    must(runner, *issue_args(issuer["did"], subject["did"], digest))
    (workspace / "data.bin").write_bytes(b"the dataset bytes, but modified")

    result = invoke(runner, "verify", "cred.json", "--data", "data.bin", "--json")
    assert result.exit_code == 1
    report = stdout_json(result)
    assert report["overall"] == "Invalid"
    assert all(check["status"] == "Valid" for check in report["checks"].values())
    assert report["binding"]["matched"] is False
    assert report["binding"]["expectedDigest"] != report["binding"]["actualDigest"]

    text = invoke(runner, "verify", "cred.json", "--data", "data.bin")
    assert text.exit_code == 1
    assert "credential: Invalid" in text.stdout
    assert "data binding: MISMATCH" in text.stdout


def test_verify_tampered_credential_exits_1(runner, workspace):
    issuer, subject = make_identities(runner)
    digest = stdout_json(must(runner, "hash", "data.bin"))["digest"]
    must(runner, *issue_args(issuer["did"], subject["did"], digest))
    credential = json.loads((workspace / "cred.json").read_text())
    credential["credentialSubject"]["Data Ethically Sourced"] = "NO"
    (workspace / "cred.json").write_text(json.dumps(credential))

    result = invoke(runner, "verify", "cred.json", "--json")
    assert result.exit_code == 1
    assert stdout_json(result)["checks"]["signature"]["reason"] == "SignatureMismatch"


@pytest.mark.parametrize("where", ["value", "name", "issuer"])
def test_verify_of_a_credential_holding_a_lone_surrogate_exits_2(runner, workspace, where):
    """UTF-8 cannot encode a lone surrogate, so no signature covers it: verify used to end
    in a UnicodeEncodeError traceback, from the signing bytes or from printing a reason
    that named the issuer. The refusal does not echo the string."""
    write_resigned_credential(workspace)
    credential = json.loads((workspace / "cred.json").read_text())
    if where == "value":
        credential["credentialSubject"]["Data Ethically Sourced"] = "\ud800"
    elif where == "name":
        credential["credentialSubject"]["\ud800"] = "YES"
    else:
        credential["issuer"] += "\ud800"
    (workspace / "cred.json").write_text(json.dumps(credential))

    result = invoke(runner, "verify", "cred.json")
    assert result.exit_code == 2, result.output
    assert not isinstance(result.exception, Exception), result.exception
    assert "DocumentInvalid: cred.json: a string holds a lone surrogate" in result.output


def test_verify_of_a_credential_with_a_repeated_member_exits_2(runner, workspace):
    """A forged credentialSubject ahead of the signed one: json.loads kept the last, so
    the file verified Valid, while a reader that keeps the first sees the forgery."""
    write_resigned_credential(workspace)
    credential = json.loads((workspace / "cred.json").read_text())
    forged = {**credential["credentialSubject"], "Data Ethically Sourced": "NO"}
    text = f'{{"credentialSubject": {json.dumps(forged)}, {json.dumps(credential)[1:]}'
    (workspace / "cred.json").write_text(text)

    result = invoke(runner, "verify", "cred.json", "--json")
    assert result.exit_code == 2, result.output
    assert "cred.json: invalid JSON: member 'credentialSubject' is repeated" in result.output


def write_resigned_credential(workspace, **fields):
    """cred.json from a fresh did:key issuer, signed over these replaced fields."""
    key = generate_keypair()
    issuer_did = generate_did_key(key.public_key)[0]
    subject_did = generate_did_key(generate_keypair().public_key)[0]
    claims = {"Hash of Data": fingerprint_bytes(b"d").digest, "Data Ethically Sourced": "YES"}
    credential = issue_credential(key, issuer_did, subject_did, DATASET_PROVENANCE_V1, claims)
    obj = {**credential.to_json(), **fields}
    del obj["proof"]
    signed = attach_proof(obj, key, issuer_did.text, ASSERTION)
    (workspace / "cred.json").write_text(json.dumps(signed))


def test_verify_non_string_issuance_date_exits_1_with_bad_timestamps(runner, workspace):
    """It used to print a TypeError traceback."""
    write_resigned_credential(workspace, issuanceDate=5)
    result = invoke(runner, "verify", "cred.json", "--json")
    assert result.exit_code == 1, result.output
    assert stdout_json(result)["checks"]["temporal"]["reason"] == "BadTimestamps"


def test_verify_non_string_status_registry_exits_2(runner, workspace):
    """It used to print an AttributeError traceback from the registry fetch and exit 1."""
    write_resigned_credential(workspace, credentialStatus={"registry": 5, "statusId": "s"})
    result = invoke(runner, "verify", "cred.json")
    assert result.exit_code == 2, result.output
    assert "malformed credential" in result.stderr


@pytest.mark.parametrize("fields", [{"credentialStatus": {}}, {"expirationDate": None}],
                         ids=["empty-status", "null-expiration"])
def test_verify_signed_empty_optional_field_exits_2(runner, workspace, fields):
    """Its issuer signed the field; parsing used to drop it, so the credential
    verified as tampered (signature SignatureMismatch, exit 1)."""
    write_resigned_credential(workspace, **fields)
    result = invoke(runner, "verify", "cred.json")
    assert result.exit_code == 2, result.output
    assert "malformed credential" in result.stderr


def test_verify_empty_proof_exits_2(runner, workspace):
    """An empty proof used to read as no proof at all."""
    write_resigned_credential(workspace)
    credential = json.loads((workspace / "cred.json").read_text())
    credential["proof"] = {}
    (workspace / "cred.json").write_text(json.dumps(credential))
    result = invoke(runner, "verify", "cred.json")
    assert result.exit_code == 2, result.output
    assert "DocumentInvalid: cred.json: malformed proof: missing field 'type'" in result.stderr


@pytest.mark.parametrize("args, refusal", [
    (["verify", "bad.json"], "malformed credential: missing field 'type'"),
    (["verify-presentation", "bad.json", "--challenge", "c"],
     "malformed presentation: missing field 'type'"),
    (["present", "--credential", "bad.json", "--challenge", "c", "--wallet", "w.json",
      "--key-label", "k"], "malformed credential: missing field 'type'"),
    (["revoke", "--registry", "bad.json", "--status-id", "s1", "--wallet", "w.json",
      "--key-label", "k"], "malformed registry: missing field 'issuer'"),
    (["issue", "--schema", "bad.json", "--issuer", "did:web:x.example", "--subject",
      "did:web:y.example", "--wallet", "w.json", "--key-label", "k"],
     "malformed schema: missing field 'id'"),
    (["bundle", "create", "--credential", "bad.json", "--out", "bundle"],
     "malformed credential: missing field 'type'"),
], ids=["verify", "verify-presentation", "present", "revoke", "issue-schema", "bundle-create"])
def test_every_command_that_parses_a_file_names_it_when_it_is_malformed(runner, workspace,
                                                                         args, refusal):
    """verify and verify-presentation used to print `DatacredError: malformed ...` naming no
    file, and bundle create the file and then that class."""
    must(runner, "keygen", "--wallet", "w.json", "--label", "k")
    (workspace / "bad.json").write_text("{}")
    result = invoke(runner, *args)
    assert result.exit_code == 2, result.output
    assert f"Error: DocumentInvalid: bad.json: {refusal}" in result.stderr
    assert not (workspace / "bundle").exists()


def test_issue_with_a_status_id_but_no_status_registry_exits_2(runner, workspace):
    """It exited 0 and wrote a credential with no credentialStatus, which no registry
    can ever revoke."""
    issuer, subject = make_identities(runner)
    result = invoke(runner, *issue_args(issuer["did"], subject["did"], "ab" * 32,
                                        "--status-id", "s1"))
    assert result.exit_code == 2, result.output
    assert "--status-id needs --status-registry" in result.stderr
    assert not (workspace / "cred.json").exists()


@pytest.mark.parametrize("args, option", [
    (["verify", "bad.json", "--at", "yesterday"], "--at"),
    (["verify-presentation", "bad.json", "--challenge", "c", "--at", "2026-13-01T00:00:00Z"],
     "--at"),
    (["keygen", "--wallet", "bad.json", "--seed-hex", "zz"], "--seed-hex"),
], ids=["verify-at", "verify-presentation-at", "keygen-seed-hex"])
def test_an_option_value_that_does_not_parse_exits_2_naming_the_option(
    runner, workspace, args, option
):
    """It raised ValueError, a traceback and exit 1, the code of a negative outcome. The
    value is refused before the file or wallet, which here would not parse, is read."""
    (workspace / "bad.json").write_text("{}")
    result = invoke(runner, *args)
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.stderr
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_malformed_json_input_exits_2_with_location(runner, workspace):
    (workspace / "broken.json").write_text('{"a": ')
    result = invoke(runner, "verify", "broken.json")
    assert result.exit_code == 2
    assert "line" in result.stderr and "column" in result.stderr


def test_missing_wallet_entry_exits_2(runner, workspace):
    must(runner, "keygen", "--wallet", "w.json", "--label", "only")
    result = invoke(
        runner, "issue", "--wallet", "w.json", "--key-label", "absent",
        "--issuer", "did:web:x.example", "--subject", "did:web:y.example",
    )
    assert result.exit_code == 2


def test_presentation_roundtrip_and_replay(runner, workspace):
    issuer, subject = make_identities(runner)
    digest = stdout_json(must(runner, "hash", "data.bin"))["digest"]
    must(runner, *issue_args(issuer["did"], subject["did"], digest))

    challenge = "c" * 32
    must(
        runner, "present", "--wallet", "w.json", "--key-label", "subject",
        "--credential", "cred.json", "--challenge", challenge, "--out", "vp.json",
    )
    presentation = json.loads((workspace / "vp.json").read_text())
    assert presentation["holder"] == subject["did"]

    ok = invoke(runner, "verify-presentation", "vp.json", "--challenge", challenge, "--json")
    assert ok.exit_code == 0, ok.output
    report = stdout_json(ok)
    assert report["overall"] == "Valid"
    assert report["issuers"] == [issuer["did"]]

    replayed = invoke(
        runner, "verify-presentation", "vp.json", "--challenge", "d" * 32, "--json"
    )
    assert replayed.exit_code == 1
    assert stdout_json(replayed)["checks"]["challenge"]["reason"] == "ChallengeMismatch"


def test_registry_init_issue_revoke_verify(runner, workspace):
    issuer, subject = make_identities(runner)
    digest = stdout_json(must(runner, "hash", "data.bin"))["digest"]
    must(
        runner, "registry", "init", "--issuer", issuer["did"],
        "--wallet", "w.json", "--key-label", "issuer", "--registry", "reg.json",
    )
    must(runner, *issue_args(
        issuer["did"], subject["did"], digest,
        "--status-registry", "https://publisher.example/registry", "--status-id", "s1",
    ))
    before = invoke(runner, "verify", "cred.json", "--registry", "reg.json", "--json")
    assert before.exit_code == 0
    assert stdout_json(before)["checks"]["revocation"]["reason"] == "NotRevoked"

    must(
        runner, "revoke", "--registry", "reg.json", "--status-id", "s1",
        "--wallet", "w.json", "--key-label", "issuer",
    )
    after = invoke(runner, "verify", "cred.json", "--registry", "reg.json", "--json")
    assert after.exit_code == 1
    assert stdout_json(after)["checks"]["revocation"]["reason"] == "Revoked"


def test_interrupted_revoke_keeps_previous_registry(runner, workspace, monkeypatch):
    """`revoke` rewrites the publisher's registry; a crash mid-write must not tear it."""
    issuer, _ = make_identities(runner)
    must(
        runner, "registry", "init", "--issuer", issuer["did"],
        "--wallet", "w.json", "--key-label", "issuer", "--registry", "reg.json",
    )
    before = (workspace / "reg.json").read_text()

    def write_half_then_fail(self, data, *args, **kwargs):
        with open(self, "w", encoding="utf-8") as handle:
            handle.write(data[: len(data) // 2])
        raise OSError("No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(Path, "write_text", write_half_then_fail)
        result = invoke(
            runner, "revoke", "--registry", "reg.json", "--status-id", "s1",
            "--wallet", "w.json", "--key-label", "issuer",
        )
    assert result.exit_code == 2, result.output
    assert "No space left on device" in result.stderr
    assert (workspace / "reg.json").read_text() == before
    assert json.loads(before)["revoked"] == []


def test_unwritable_out_exits_2_and_leaves_no_tmp(runner, workspace):
    (workspace / "b").mkdir()
    result = invoke(runner, "hash", "data.bin", "--out", "b")
    assert result.exit_code == 2, result.output
    assert "IsADirectoryError" in result.stderr
    assert not (workspace / "b.tmp").exists()


def test_did_create_web_and_offline_bundle(runner, workspace):
    issuer, subject = make_identities(runner)
    digest = stdout_json(must(runner, "hash", "data.bin"))["digest"]
    must(
        runner, "did", "create-web", "--domain", "uniofscience.com",
        "--wallet", "w.json", "--label", "issuer", "--out", "issuer-did.json",
    )
    document = json.loads((workspace / "issuer-did.json").read_text())
    assert document["id"] == "did:web:uniofscience.com"
    assert document["authentication"][0]["type"] == "Ed25519VerificationKey2018"

    must(runner, *issue_args(
        "did:web:uniofscience.com", subject["did"], digest,
        "--status-registry", "https://uniofscience.com/registry", "--status-id", "s1",
    ))
    must(
        runner, "registry", "init", "--issuer", "did:web:uniofscience.com",
        "--wallet", "w.json", "--key-label", "issuer", "--registry", "reg.json",
    )
    must(
        runner, "bundle", "create", "--credential", "cred.json",
        "--did-document", "issuer-did.json", "--registry", "reg.json", "--out", "bundle",
    )
    assert sorted(p.name for p in (workspace / "bundle").iterdir()) == [
        "credential.json", "dids.json", "registry.json",
    ]

    result = invoke(
        runner, "verify", "bundle/credential.json",
        "--offline-bundle", "bundle", "--data", "data.bin", "--json",
    )
    assert result.exit_code == 0, result.output
    report = stdout_json(result)
    assert report["overall"] == "Valid"
    assert report["networkFetches"] == 0

    resolved = must(
        runner, "did", "resolve", "did:web:uniofscience.com", "--offline-bundle", "bundle"
    )
    assert stdout_json(resolved)["id"] == "did:web:uniofscience.com"


def make_offline_bundle(runner):
    """bundle/ for a did:web issuer's credential that names a revocation registry."""
    _, subject = make_identities(runner)
    digest = stdout_json(must(runner, "hash", "data.bin"))["digest"]
    must(
        runner, "did", "create-web", "--domain", "uniofscience.com",
        "--wallet", "w.json", "--label", "issuer", "--out", "issuer-did.json",
    )
    must(runner, *issue_args(
        "did:web:uniofscience.com", subject["did"], digest,
        "--status-registry", "https://uniofscience.com/registry", "--status-id", "s1",
    ))
    must(
        runner, "registry", "init", "--issuer", "did:web:uniofscience.com",
        "--wallet", "w.json", "--key-label", "issuer", "--registry", "reg.json",
    )
    must(
        runner, "bundle", "create", "--credential", "cred.json",
        "--did-document", "issuer-did.json", "--registry", "reg.json", "--out", "bundle",
    )


OFFLINE_VERIFY = ("verify", "bundle/credential.json", "--offline-bundle", "bundle", "--json")


def test_offline_verify_reads_the_registry_override_instead_of_the_bundles(runner, workspace):
    """With --offline-bundle, --registry was ignored: a credential the override revokes
    verified Valid against the bundle's registry.json and exited 0."""
    make_offline_bundle(runner)
    (workspace / "revoked.json").write_text((workspace / "reg.json").read_text())
    must(runner, "revoke", "--registry", "revoked.json", "--status-id", "s1",
         "--wallet", "w.json", "--key-label", "issuer")
    intact = stdout_json(must(runner, *OFFLINE_VERIFY))["checks"]["revocation"]
    assert intact["reason"] == "NotRevoked"
    result = invoke(runner, *OFFLINE_VERIFY, "--registry", "revoked.json")
    assert result.exit_code == 1, result.output
    report = stdout_json(result)
    assert report["checks"]["revocation"]["reason"] == "Revoked"
    assert report["networkFetches"] == 0


def test_bundle_with_bad_did_document_writes_nothing(runner, workspace):
    issuer, subject = make_identities(runner)
    digest = stdout_json(must(runner, "hash", "data.bin"))["digest"]
    must(runner, *issue_args(issuer["did"], subject["did"], digest))
    (workspace / "bad-did.json").write_text(json.dumps({"notid": 1}))
    result = invoke(
        runner, "bundle", "create", "--credential", "cred.json",
        "--did-document", "bad-did.json", "--out", "bundle",
    )
    assert result.exit_code == 2, result.output
    assert "DocumentInvalid" in result.stderr
    assert "bad-did.json" in result.stderr
    assert not (workspace / "bundle" / "credential.json").exists()


@pytest.mark.parametrize("option, content, error", [
    ("--credential", {"not": "a credential"}, "missing field 'type'"),
    ("--registry", {"issuer": 5}, "malformed registry"),
    ("--did-document", {"id": "not-a-did"},
     "DocumentInvalid: bad.json: DID document id 'not-a-did': missing did: prefix"),
], ids=["credential", "registry", "did-document"])
def test_bundle_with_an_input_that_does_not_parse_writes_nothing(runner, workspace, option,
                                                                 content, error):
    issuer, subject = make_identities(runner)
    digest = stdout_json(must(runner, "hash", "data.bin"))["digest"]
    must(runner, *issue_args(issuer["did"], subject["did"], digest))
    must(runner, "registry", "init", "--issuer", issuer["did"], "--wallet", "w.json",
         "--key-label", "issuer", "--registry", "reg.json")
    inputs = {"--credential": "cred.json", "--registry": "reg.json", option: "bad.json"}
    (workspace / "bad.json").write_text(json.dumps(content))
    result = invoke(runner, "bundle", "create", *(a for pair in inputs.items() for a in pair),
                    "--out", "bundle")
    assert result.exit_code == 2, result.output
    assert error in result.stderr and "bad.json" in result.stderr
    assert not (workspace / "bundle").exists()


@pytest.mark.parametrize(
    "content",
    ["not json", "[]", None, "[" * 100_000],
    ids=["not-json", "array", "missing", "too-deep"],
)
def test_malformed_bundle_registry_is_unavailable(runner, workspace, content):
    """A bad registry.json leaves revocation Indeterminate; the other checks still report."""
    make_offline_bundle(runner)
    intact = stdout_json(must(runner, *OFFLINE_VERIFY))["checks"]
    registry = workspace / "bundle" / "registry.json"
    if content is None:
        registry.unlink()
    else:
        registry.write_text(content)
    result = invoke(runner, *OFFLINE_VERIFY)
    assert result.exit_code == 1, result.output
    checks = stdout_json(result)["checks"]
    revocation = checks.pop("revocation")
    assert (revocation["status"], revocation["reason"]) == ("Indeterminate", "RegistryUnavailable")
    assert "registry.json" in revocation["detail"]
    del intact["revocation"]
    assert checks == intact


@pytest.mark.parametrize(
    "content", ["not json", "[]", "[" * 100_000], ids=["not-json", "array", "too-deep"]
)
def test_malformed_bundle_dids_exits_2(runner, workspace, content):
    make_offline_bundle(runner)
    (workspace / "bundle" / "dids.json").write_text(content)
    result = invoke(runner, *OFFLINE_VERIFY)
    assert result.exit_code == 2, result.output
    assert "DocumentInvalid" in result.stderr
    assert "dids.json" in result.stderr


@pytest.mark.parametrize("entry", [None, "did:web:uniofscience.com#key-1"], ids=["null", "string"])
def test_a_method_that_is_not_an_object_leaves_the_issuer_indeterminate(runner, workspace, entry):
    make_offline_bundle(runner)
    dids = workspace / "bundle" / "dids.json"
    documents = json.loads(dids.read_text())
    documents["did:web:uniofscience.com"]["authentication"] = [entry]
    dids.write_text(json.dumps(documents))
    result = invoke(runner, *OFFLINE_VERIFY)
    assert result.exit_code == 1, result.output
    assert not isinstance(result.exception, Exception)  # an exit, not a traceback
    signature = stdout_json(result)["checks"]["signature"]
    assert (signature["status"], signature["reason"]) == ("Indeterminate", "IssuerDocumentInvalid")
    assert "verification method must be an object" in signature["detail"]


def test_did_resolve_unsupported_exits_2(runner, workspace):
    result = invoke(runner, "did", "resolve", "did:banana:x")
    assert result.exit_code == 2


def test_issue_strips_0x_digest_prefix(runner, workspace):
    issuer, subject = make_identities(runner)
    digest = stdout_json(must(runner, "hash", "data.bin"))["digest"]
    must(
        runner, "issue", "--wallet", "w.json", "--key-label", "issuer",
        "--issuer", issuer["did"], "--subject", subject["did"],
        "--claim", f"Hash of Data=0x{digest.upper()}",
        "--claim", "Data Ethically Sourced=YES", "--out", "cred.json",
    )
    credential = json.loads((workspace / "cred.json").read_text())
    assert credential["credentialSubject"]["Hash of Data"] == digest
    assert invoke(runner, "verify", "cred.json", "--data", "data.bin").exit_code == 0


@pytest.mark.parametrize("claim", [5, ["x"], ""], ids=["int", "list", "empty"])
def test_verify_data_with_unusable_hash_claim_exits_2(runner, workspace, claim):
    """A non-string claim used to crash with an AttributeError traceback and exit 1."""
    issuer, subject = make_identities(runner)
    digest = stdout_json(must(runner, "hash", "data.bin"))["digest"]
    must(runner, *issue_args(issuer["did"], subject["did"], digest))
    credential = json.loads((workspace / "cred.json").read_text())
    credential["credentialSubject"]["Hash of Data"] = claim
    (workspace / "cred.json").write_text(json.dumps(credential))
    result = invoke(runner, "verify", "cred.json", "--data", "data.bin")
    assert result.exit_code == 2, result.output
    assert "NoHashClaim" in result.stderr


def test_cli_json_output_parses_with_module_readers(runner, workspace):
    from datacred.credential import VerifiableCredential
    from datacred.did import DidDocument
    from datacred.fingerprint import DatasetFingerprint
    from datacred.presentation import VerifiablePresentation

    issuer, subject = make_identities(runner)
    fp = DatasetFingerprint.from_json(stdout_json(must(runner, "hash", "data.bin")))
    must(runner, *issue_args(issuer["did"], subject["did"], fp.digest))
    credential = VerifiableCredential.from_json(
        json.loads((workspace / "cred.json").read_text())
    )
    assert credential.issuer == issuer["did"]

    document = stdout_json(must(
        runner, "did", "create-web", "--domain", "pub.example",
        "--wallet", "w.json", "--label", "issuer",
    ))
    assert DidDocument.from_json(document).id == "did:web:pub.example"

    must(
        runner, "present", "--wallet", "w.json", "--key-label", "subject",
        "--credential", "cred.json", "--challenge", "f" * 32, "--out", "vp.json",
    )
    presentation = VerifiablePresentation.from_json(
        json.loads((workspace / "vp.json").read_text())
    )
    assert presentation.credentials[0].to_json() == credential.to_json()


def test_cli_verify_against_live_publisher(runner, workspace, agent_factory):
    """CLI verifies a credential whose issuer and registry live on a running agent."""
    publisher = agent_factory("publisher")
    dataset = agent_factory("dataset")
    connection = publisher.connect(**dataset.invitation())
    credential = publisher.issue_over_connection(
        connection.connection_id,
        {
            "Hash of Data": stdout_json(must(runner, "hash", "data.bin"))["digest"],
            "Data Ethically Sourced": "YES",
        },
    )
    (workspace / "live-cred.json").write_text(json.dumps(credential.to_json()))

    ok = invoke(runner, "verify", "live-cred.json", "--insecure-http", "--json")
    assert ok.exit_code == 0, ok.output
    report = stdout_json(ok)
    assert report["overall"] == "Valid"
    assert report["networkFetches"] == 2  # the publisher's did:web document and its registry

    publisher.revoke_status(publisher.find_status_id(credential.id))
    revoked = invoke(runner, "verify", "live-cred.json", "--insecure-http", "--json")
    assert revoked.exit_code == 1
    assert stdout_json(revoked)["checks"]["revocation"]["reason"] == "Revoked"


def test_cli_counts_a_registry_get_as_a_network_fetch(runner, workspace, json_server):
    """A did:key issuer resolves locally, so its http registry is the one network fetch."""
    key = generate_keypair()
    did, _ = generate_did_key(key.public_key)
    json_server.set("/registry", new_registry(did, key).to_json())
    credential = issue_credential(
        key, did, did, DATASET_PROVENANCE_V1,
        {"Hash of Data": fingerprint_bytes(b"x").digest, "Data Ethically Sourced": "YES"},
        status=CredentialStatus(json_server.url("/registry"), "s-1"),
    )
    (workspace / "cred.json").write_text(json.dumps(credential.to_json()))
    report = stdout_json(must(runner, "verify", "cred.json", "--insecure-http", "--json"))
    assert (report["overall"], report["networkFetches"]) == ("Valid", 1)
    assert json_server.request_count == 1

    json_server.set("/pinned", ["not", "a", "registry"])
    pinned = json_server.url("/pinned")
    result = invoke(runner, "verify", "cred.json", "--insecure-http", "--json",
                    "--registry", pinned)
    report = stdout_json(result)
    revocation = report["checks"]["revocation"]
    assert (revocation["reason"], report["networkFetches"]) == ("RegistryUnavailable", 1)
    assert revocation["detail"].startswith(f"{pinned}: expected a JSON object")


def child_env():
    """This environment, with the imported `datacred` first on PYTHONPATH.

    Agents run with their own working directory, where a relative PYTHONPATH
    (such as `src` in a source checkout) would point at nothing.
    """
    package_root = str(Path(datacred.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    pythonpath = os.pathsep.join([package_root, *filter(None, inherited)])
    return dict(os.environ, PYTHONPATH=pythonpath, DATACRED_PASSPHRASE=PASSPHRASE)


def serve_agent(tmp_path, role, port=0):
    config = {
        "role": role,
        "walletPath": str(tmp_path / f"{role}.wallet"),
        "listenPort": port,
        "didMethod": "web",
        "allowInsecureHttp": True,
    }
    path = tmp_path / f"{role}.config.json"
    path.write_text(json.dumps(config))
    stderr_path = tmp_path / f"{role}.stderr"
    with stderr_path.open("wb") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-m", "datacred.cli", "agent", "serve", "--config", str(path)],
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            env=child_env(),
            cwd=tmp_path,
        )
    return process, path, stderr_path


def wait_for_config_port(process, path, stderr_path, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        code = process.poll()
        if code is not None:
            pytest.fail(
                f"agent at {path} exited with code {code}; stderr:\n"
                + stderr_path.read_text(errors="replace")
            )
        config = json.loads(path.read_text())
        if config["listenPort"]:
            url = f"http://127.0.0.1:{config['listenPort']}"
            try:
                status = requests.get(url + "/status", timeout=1).json()
                return url, status
            except requests.RequestException:
                pass
        time.sleep(0.1)
    raise TimeoutError(
        f"agent at {path} never came up; stderr:\n" + stderr_path.read_text(errors="replace")
    )


def test_admin_client_refuses_redirects(runner, json_server):
    json_server.set("/status", {}, status=302, headers={"Location": json_server.url("/moved")})
    json_server.set("/moved", {"role": "publisher"})
    result = invoke(runner, "agent", "status", "--admin", json_server.url(""))
    assert result.exit_code == 2, result.output
    assert "302" in result.stderr
    assert json_server.request_count == 1  # /moved was never asked


def test_admin_client_refuses_plain_http_to_remote_host(runner, loopback_only):
    result = invoke(runner, "agent", "status", "--admin", "http://example.com")
    assert result.exit_code == 2, result.output
    assert "only https" in result.stderr
    assert loopback_only == []


def test_admin_client_reaches_agent_listening_on_all_interfaces(runner, tmp_path, agent_factory):
    dataset = agent_factory("dataset")
    config = AgentConfig(role="dataset", wallet_path=dataset.config.wallet_path,
                         listen_host="0.0.0.0", listen_port=dataset.config.listen_port)
    config.save(tmp_path / "all-interfaces.json")
    result = must(runner, "agent", "status", "--config", str(tmp_path / "all-interfaces.json"))
    assert stdout_json(result)["did"] == dataset.did.text


@pytest.mark.parametrize("host", ["0.0.0.0", ""], ids=["ipv4-any", "empty"])
def test_admin_client_maps_every_wildcard_host_to_loopback(runner, tmp_path, agent_factory, host):
    dataset = agent_factory("dataset")
    config = AgentConfig(role="dataset", wallet_path=dataset.config.wallet_path,
                         listen_host=host, listen_port=dataset.config.listen_port)
    config.save(tmp_path / "wildcard.json")
    result = must(runner, "agent", "status", "--config", str(tmp_path / "wildcard.json"))
    assert stdout_json(result)["did"] == dataset.did.text


def test_admin_client_refuses_ipv6_listen_host_config(runner, tmp_path):
    config = AgentConfig(role="dataset", wallet_path=str(tmp_path / "w.wallet"), listen_host="::")
    config.save(tmp_path / "ipv6.json")
    result = invoke(runner, "agent", "status", "--config", str(tmp_path / "ipv6.json"))
    assert result.exit_code == 2, result.output
    assert "IPv6" in result.output


def test_agent_serve_and_request_proof_cli(tmp_path, monkeypatch):
    monkeypatch.setenv("DATACRED_PASSPHRASE", PASSPHRASE)
    runner = CliRunner()
    agents = []
    try:
        for role in ("publisher", "dataset", "user"):
            agents.append(serve_agent(tmp_path, role))
        (pub_url, pub_status) = wait_for_config_port(*agents[0])
        (ds_url, ds_status) = wait_for_config_port(*agents[1])
        (usr_url, _) = wait_for_config_port(*agents[2])

        connect = must(
            runner, "agent", "connect", "--admin", pub_url,
            "--did", ds_status["did"], "--endpoint", ds_url,
        )
        connection_id = stdout_json(connect)["connectionId"]
        must(
            runner, "agent", "issue", "--admin", pub_url, "--connection", connection_id,
            "--claim", "Hash of Data=" + "ab" * 32,
            "--claim", "Data Ethically Sourced=YES",
        )
        proof = invoke(
            runner, "agent", "request-proof", "--admin", usr_url,
            "--target", ds_status["did"], "--attrs", "Hash of Data,Data Ethically Sourced",
            "--endpoint", ds_url, "--json",
        )
        assert proof.exit_code == 0, proof.output
        report = stdout_json(proof)
        assert report["overall"] == "Valid"
        assert report["issuers"] == [pub_status["did"]]

        status = must(runner, "agent", "status", "--admin", ds_url)
        assert stdout_json(status)["credentials"] == 1
    finally:
        for process, _, _ in agents:
            process.terminate()
        for process, _, _ in agents:
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
