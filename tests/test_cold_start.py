"""Cold start: a fresh process loads network, TLS, wallet-cipher and agent code only
when it runs it. Each test runs datacred in a new interpreter and reads sys.modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import datacred
from datacred.credential import (
    DATASET_PROVENANCE_V1,
    CredentialStatus,
    issue_credential,
    new_registry,
)
from datacred.did import one_key_document, parse_did
from datacred.fingerprint import fingerprint_tree
from datacred.keys import generate_keypair
from test_http_path import Stub

# Loaded by an agent's first HTTP request or by a wallet, never by a verify.
DEFERRED = {
    "http", "http.client", "ssl", "urllib.request", "email.parser",
    "cryptography.hazmat.primitives.ciphers.aead", "cryptography.hazmat.primitives.kdf.scrypt",
}
AGENT_ONLY = {"datacred.agent", "socketserver", "logging"}
ISSUER = "did:web:publisher.example"
ISSUER_KEY = generate_keypair(b"\x05" * 32)


def run_fresh(code: str) -> tuple[set[str], list[str]]:
    """The modules loaded once code has run in a new interpreter, and the lines it
    printed. The interpreter sees no proxy or CA-bundle variable, and only the
    imported datacred's parent directory on PYTHONPATH."""
    env = {name: value for name, value in os.environ.items()
           if not name.lower().endswith("_proxy") and not name.endswith("_CA_BUNDLE")}
    env["PYTHONPATH"] = str(Path(datacred.__file__).resolve().parent.parent)
    script = f"{code}\nimport sys\nprint(' '.join(sorted(sys.modules)))\n"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    *printed, modules = done.stdout.splitlines()
    return set(modules.split()), printed


@pytest.fixture
def offline_bundle(tmp_path):
    """(credential file, bundle directory, data tree) for a did:web issuer whose
    credential names a revocation registry and binds the tree."""
    tree = tmp_path / "tree"
    (tree / "sub").mkdir(parents=True)
    (tree / "a.csv").write_text("x,y\n1,2\n")
    (tree / "sub" / "b.bin").write_bytes(b"\x00\x01")
    claims = {"Hash of Data": fingerprint_tree(tree).digest, "Data Ethically Sourced": "YES"}
    status = CredentialStatus(registry_url="https://publisher.example/registry", status_id="s-1")
    vc = issue_credential(ISSUER_KEY, ISSUER, "did:web:dataset.example", DATASET_PROVENANCE_V1,
                          claims, status=status)
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    document = one_key_document(parse_did(ISSUER), ISSUER_KEY.public_key).to_json()
    (bundle / "dids.json").write_text(json.dumps({ISSUER: document}))
    (bundle / "registry.json").write_text(json.dumps(new_registry(ISSUER, ISSUER_KEY).to_json()))
    (bundle / "credential.json").write_text(json.dumps(vc.to_json()))
    return bundle / "credential.json", bundle, tree


def test_importing_datacred_loads_no_network_tls_or_wallet_cipher_code():
    modules, _ = run_fresh("import datacred, datacred.cli, datacred.agent.service")
    assert "datacred.agent.service" in modules
    # only a running agent logs; only a verify loads ctypes, to look for libsodium
    assert not modules & (DEFERRED | {"logging", "ctypes"})


def test_an_offline_verify_loads_no_network_tls_or_agent_code(offline_bundle):
    credential, bundle, tree = offline_bundle
    args = ["verify", str(credential), "--offline-bundle", str(bundle), "--data", str(tree),
            "--json"]
    modules, printed = run_fresh(
        f"from datacred import cli\ntry:\n    cli.main({args!r})\n"
        "except SystemExit as exit:\n    print(exit.code)"
    )
    *report, code = printed
    assert (code, json.loads("\n".join(report))["overall"]) == ("0", "Valid")
    assert not modules & (DEFERRED | AGENT_ONLY)


def test_the_first_request_loads_the_http_client():
    stub = Stub()
    url = f"http://127.0.0.1:{stub.port}/"
    try:
        modules, printed = run_fresh(
            f"from datacred.resolver import request_json\nprint(request_json({url!r}, True, 5))")
    finally:
        stub.close()
    assert printed == ["(200, {})"]
    assert "http.client" in modules


def test_the_importing_thread_reads_its_environment_at_first_use(tmp_path):
    bundle = tmp_path / "ca.pem"
    bundle.write_text("")
    _, printed = run_fresh(
        "import os\nfrom datacred import resolver\n"
        f"os.environ['REQUESTS_CA_BUNDLE'] = {str(bundle)!r}\n"
        "os.environ['HTTPS_PROXY'] = 'http://proxy.example:3128'\n"
        "print(resolver._pool.trust)\nprint(resolver._pool.proxies.get('https'))"
    )
    assert printed == [str({"cafile": str(bundle)}), "http://proxy.example:3128"]

