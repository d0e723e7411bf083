"""Command-line workflows and the exit-code contract."""

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
from datacred.cli import main
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


@pytest.mark.parametrize("content", ["not json", "[]", None], ids=["not-json", "array", "missing"])
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


@pytest.mark.parametrize("content", ["not json", "[]"], ids=["not-json", "array"])
def test_malformed_bundle_dids_exits_2(runner, workspace, content):
    make_offline_bundle(runner)
    (workspace / "bundle" / "dids.json").write_text(content)
    result = invoke(runner, *OFFLINE_VERIFY)
    assert result.exit_code == 2, result.output
    assert "DocumentInvalid" in result.stderr
    assert "dids.json" in result.stderr


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
    assert report["networkFetches"] >= 1  # resolved the publisher's did:web live

    publisher.revoke_status(publisher.find_status_id(credential.id))
    revoked = invoke(runner, "verify", "live-cred.json", "--insecure-http", "--json")
    assert revoked.exit_code == 1
    assert stdout_json(revoked)["checks"]["revocation"]["reason"] == "Revoked"


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
            stdout=subprocess.PIPE,
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
