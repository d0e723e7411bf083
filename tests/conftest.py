"""Shared fixtures: did:key identities, agents on loopback, and a JSON server."""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from datacred import keys, proofs, resolver, wallet
from datacred.agent import Agent, AgentConfig, Policy
from datacred.did import generate_did_key
from datacred.keys import generate_keypair
from datacred.resolver import KeyBackend, Resolver, is_loopback_host

PASSPHRASE = "correct horse battery staple"


def pytest_addoption(parser):
    parser.addoption("--without-libsodium", action="store_true",
                     help="sign and verify every Ed25519 signature through cryptography")


@pytest.fixture(autouse=True)
def _ed25519_backend_choice(request, monkeypatch):
    """Under --without-libsodium, keys.sign and keys.verify_signature find no libsodium, as
    on a system without one; datacred subprocesses that tests start still look for it."""
    if request.config.getoption("--without-libsodium"):
        monkeypatch.setattr(keys, "_sodium", False)


@pytest.fixture(autouse=True)
def _no_shared_registry():
    """Each test starts with no registry verified in the process: one signed by the same
    fixed key within the same second would otherwise skip the next test's checks."""
    resolver._shared_registries.clear()


@pytest.fixture(params=["libsodium", "cryptography"])
def ed25519_backend(request, monkeypatch):
    """Runs a test once through each Ed25519 backend, which signs and verifies; the
    libsodium run skips when no libsodium loads."""
    loaded = keys._load_sodium() if request.param == "libsodium" else False
    if request.param == "libsodium" and not loaded:
        pytest.skip("no libsodium loads on this system")
    monkeypatch.setattr(keys, "_sodium", loaded)


@pytest.fixture
def fast_wallet_kdf(monkeypatch):
    """Cheap scrypt cost for protocol-heavy tests; crypto tests keep defaults."""
    monkeypatch.setattr(
        "datacred.wallet._DEFAULT_KDF", {"name": "scrypt", "n": 2**11, "r": 8, "p": 1}
    )


@pytest.fixture
def key_derivations(monkeypatch):
    """Arguments of every wallet key derivation, in call order."""
    calls = []
    derive = wallet._derive_key
    monkeypatch.setattr(wallet, "_derive_key", lambda *args: (calls.append(args), derive(*args))[1])
    return calls


@pytest.fixture
def verifies(monkeypatch):
    """Arguments of every Ed25519 verify check_proof runs, in call order."""
    calls = []
    verify = proofs.verify_signature
    monkeypatch.setattr(proofs, "verify_signature",
                        lambda *args: (calls.append(args), verify(*args))[1])
    return calls


@pytest.fixture
def loopback_only(monkeypatch):
    """Refuse to look up, and so to connect to, any host that is not loopback.

    Yields the refused host names, so a test can show it opened nothing.
    """
    refused = []
    lookup = socket.getaddrinfo

    def guarded(host, *args, **kwargs):
        name = host.decode() if isinstance(host, bytes) else host
        if name and not is_loopback_host(name):
            refused.append(name)
            raise OSError(f"test refused a connection to {name}")
        return lookup(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", guarded)
    yield refused


@pytest.fixture
def key_resolver():
    """Resolver handling did:key only; no network possible."""
    return Resolver(backends=[KeyBackend()])


@pytest.fixture
def issuer():
    """(keypair, Did, DidDocument) for a fresh issuer identity."""
    keypair = generate_keypair()
    did, document = generate_did_key(keypair.public_key)
    return keypair, did, document


@pytest.fixture
def subject():
    keypair = generate_keypair()
    did, document = generate_did_key(keypair.public_key)
    return keypair, did, document


class JsonServer:
    """Serves a mutable {path: (status, json, headers)} map on loopback, to GET or POST;
    bytes in place of the JSON are served as they are."""

    def __init__(self):
        self.routes: dict[str, tuple[int, object, dict]] = {}
        self.request_count = 0
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802
                self.answer()

            def do_POST(self):  # noqa: N802
                self.rfile.read(int(self.headers.get("Content-Length", "0")))
                self.answer()

            def answer(self):
                outer.request_count += 1
                entry = outer.routes.get(self.path)
                if entry is None:
                    status, body, headers = 404, {"error": "not found"}, {}
                else:
                    status, body, headers = entry
                payload = body if isinstance(body, bytes) else json.dumps(body).encode()
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(
            target=lambda: self.server.serve_forever(poll_interval=0.05), daemon=True
        )
        self.thread.start()

    @property
    def host(self) -> str:
        return f"127.0.0.1:{self.port}"

    def url(self, path: str) -> str:
        return f"http://{self.host}{path}"

    def set(self, path: str, body: object, status: int = 200, headers: dict | None = None) -> None:
        self.routes[path] = (status, body, headers or {})

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def json_server():
    server = JsonServer()
    yield server
    server.close()


@pytest.fixture
def agent_factory(tmp_path, monkeypatch):
    """Builds running agents on loopback; stops them all on teardown."""
    monkeypatch.setenv("DATACRED_PASSPHRASE", PASSPHRASE)
    running: list[Agent] = []

    def build(role: str, name: str | None = None, did_method: str = "web",
              policy: Policy | None = None, start: bool = True,
              allow_insecure_http: bool = True, **overrides) -> Agent:
        name = name or role
        config = AgentConfig(
            role=role,
            wallet_path=str(tmp_path / f"{name}.wallet"),
            did_method=did_method,
            allow_insecure_http=allow_insecure_http,
            policy=policy or Policy(),
            **overrides,
        )
        agent = Agent(config)
        if start:
            agent.start()
            running.append(agent)
        return agent

    def restart(agent: Agent) -> Agent:
        agent.stop()
        if agent in running:
            running.remove(agent)
        fresh = Agent(agent.config).start()
        running.append(fresh)
        return fresh

    build.restart = restart
    yield build
    for agent in running:
        agent.stop()
