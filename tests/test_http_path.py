"""The HTTP path: resolver.request_json is datacred's only HTTP client, it keeps
one pool of connections per thread, and agents close the connections it keeps."""

import ast
import ipaddress
import socket
import ssl
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.x509.oid import NameOID

from datacred import resolver
from datacred.agent import service
from datacred.errors import FetchFailed
from datacred.resolver import MAX_RESPONSE_BYTES, request_json

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "datacred"
HTTP_CLIENTS = ("requests", "urllib3", "http.client", "urllib.request", "ssl")
# Calls that open a connection or send a request outside a kept-alive pool.
CONNECTION_MAKERS = (
    "HTTPConnection", "HTTPSConnection", "create_connection", "socket.socket", "urlopen",
    "build_opener", "Session",
)


def imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_the_resolver_imports_an_http_client():
    importers = {
        (path.relative_to(PACKAGE).as_posix(), name)
        for path in PACKAGE.rglob("*.py")
        for name in imports(path)
        if any(name == client or name.startswith(client + ".") for client in HTTP_CLIENTS)
    }
    # http.client speaks HTTP; urllib.request lends only its proxy-environment helpers,
    # and ssl makes the TLS context, so TLS stays behind the one transport too.
    assert importers == {
        ("resolver.py", "http.client"), ("resolver.py", "urllib.request"), ("resolver.py", "ssl")}


def test_the_resolver_makes_connections_in_one_place():
    path = PACKAGE / "resolver.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    makers = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(CONNECTION_MAKERS)
    ]
    take = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "take")
    assert makers and all(node in set(ast.walk(take)) for node in makers)
    assert {ast.unparse(node.func) for node in makers} == {
        "http.client.HTTPConnection", "http.client.HTTPSConnection"}


class Stub(ThreadingHTTPServer):
    """Loopback HTTP/1.1 server answering every GET with `reply`; counts accepted connections."""

    daemon_threads = True

    def __init__(self, reply: bytes = b"{}"):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.reply = reply
        self.reply_headers: dict[str, str] = {}
        self.connections = 0
        self.requests: list[tuple[str, dict]] = []  # (request target, request headers)
        threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True).start()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def process_request(self, request, client_address):
        self.connections += 1
        super().process_request(request, client_address)

    def handle_error(self, request, client_address):
        pass  # a client that hangs up on a long reply

    def close(self) -> None:
        self.shutdown()
        self.server_close()


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 2.0  # so kept-alive connections from the tests do not hold threads

    def do_GET(self):  # noqa: N802
        self.server.requests.append((self.path, dict(self.headers)))
        self.send_response(200)
        for name, value in self.server.reply_headers.items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(self.server.reply)))
        self.end_headers()
        self.wfile.write(self.server.reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub():
    server = Stub()
    yield server
    server.close()


def in_fresh_thread(fn):
    """fn() run in a new thread, which makes its own session."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=10)


def test_requests_from_one_thread_share_one_connection(stub):
    url = f"http://127.0.0.1:{stub.port}/doc"
    assert request_json(url, True, 5) == (200, {})
    assert request_json(url, True, 5) == (200, {})
    assert (len(stub.requests), stub.connections) == (2, 1)


def test_cookies_are_not_carried_between_requests(stub):
    stub.reply_headers = {"Set-Cookie": "seen=1; Path=/"}
    url = f"http://127.0.0.1:{stub.port}/doc"
    request_json(url, True, 5)
    request_json(url, True, 5)
    assert [headers.get("Cookie") for _, headers in stub.requests] == [None, None]


def test_a_body_json_refuses_is_a_fetch_failure_before_any_connection():
    with pytest.raises(FetchFailed, match="not JSON compliant"):
        request_json("http://127.0.0.1:9/x", True, 1, {"x": float("nan")})


def test_reply_over_the_cap_is_refused_and_not_pooled(stub):
    url = f"http://127.0.0.1:{stub.port}/registry"
    stub.reply = b'"' + b"a" * (MAX_RESPONSE_BYTES - 2) + b'"'
    status, document = request_json(url, True, 5)
    assert (status, len(document)) == (200, MAX_RESPONSE_BYTES - 2)
    stub.reply += b" "
    with pytest.raises(FetchFailed, match=str(MAX_RESPONSE_BYTES)):
        request_json(url, True, 5)
    assert stub.connections == 1  # replies read to the end went back to the pool
    stub.reply += b" " * (1 << 20)
    with pytest.raises(FetchFailed, match=str(MAX_RESPONSE_BYTES)):
        request_json(url, True, 5)
    stub.reply = b"{}"
    assert request_json(url, True, 5) == (200, {})
    assert stub.connections == 2  # the connection with an unread reply was dropped


def test_proxy_environment_is_read_when_a_thread_starts(stub, monkeypatch, tmp_path):
    proxy = Stub(reply=b'{"via": "proxy"}')
    try:
        stub.reply = b'{"via": "direct"}'
        url = f"http://localhost:{stub.port}/doc"
        for name in ("http_proxy", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{proxy.port}")
        assert in_fresh_thread(lambda: request_json(url, True, 5)) == (200, {"via": "proxy"})
        assert [target for target, _ in proxy.requests] == [url]

        monkeypatch.setenv("NO_PROXY", "localhost")
        assert in_fresh_thread(lambda: request_json(url, True, 5)) == (200, {"via": "direct"})
        assert len(proxy.requests) == 1
    finally:
        proxy.close()

    bundle = tmp_path / "ca.pem"
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(bundle))
    assert in_fresh_thread(lambda: resolver._pool.trust) == {"cafile": str(bundle)}


def test_stopped_agent_answers_no_kept_alive_connection(agent_factory):
    dataset = agent_factory("dataset")
    url = dataset.base_url + "/.well-known/did.json"
    assert request_json(url, True, 5)[0] == 200
    dataset.stop()
    with pytest.raises(FetchFailed):
        request_json(url, True, 5)


def test_agent_closes_an_idle_connection(agent_factory, monkeypatch):
    assert service._RequestHandler.timeout == service.IDLE_TIMEOUT
    monkeypatch.setattr(service._RequestHandler, "timeout", 0.2)
    dataset = agent_factory("dataset")
    with socket.create_connection(("127.0.0.1", dataset.config.listen_port), timeout=5) as idle:
        started = time.monotonic()
        assert idle.recv(1) == b""  # the agent hung up without a request
    assert time.monotonic() - started < 4


def test_an_idle_closed_connection_is_replaced_not_reported(agent_factory, monkeypatch):
    monkeypatch.setattr(service._RequestHandler, "timeout", 0.2)
    accepted = []
    process = service._AgentServer.process_request
    monkeypatch.setattr(service._AgentServer, "process_request",
                        lambda server, *args: (accepted.append(args), process(server, *args)))
    dataset = agent_factory("dataset")
    url = dataset.base_url + "/.well-known/did.json"
    assert request_json(url, True, 5)[0] == 200
    time.sleep(0.6)  # the agent hangs up the idle connection
    assert request_json(url, True, 5)[0] == 200
    assert len(accepted) == 2


# --- https: a real TLS handshake against a self-signed certificate on loopback ---

LOOPBACK_SAN = x509.IPAddress(ipaddress.ip_address("127.0.0.1"))
PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")


def certificate(directory: Path, san: x509.GeneralName) -> tuple[Path, Path]:
    """A self-signed certificate for `san`, and its key: (certificate.pem, key.pem)."""
    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "stub")])
    now = datetime.now(timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name).issuer_name(name).public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - timedelta(minutes=5)).not_valid_after(now + timedelta(days=1))
        .add_extension(x509.SubjectAlternativeName([san]), critical=False)
        .add_extension(x509.BasicConstraints(ca=True, path_length=None), critical=True)
        .add_extension(x509.SubjectKeyIdentifier.from_public_key(key.public_key()), critical=False)
        .add_extension(x509.AuthorityKeyIdentifier.from_issuer_public_key(key.public_key()),
                       critical=False)
        .sign(key, hashes.SHA256())
    )
    directory.mkdir(exist_ok=True)
    cert_path, key_path = directory / "certificate.pem", directory / "key.pem"
    cert_path.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    key_path.write_bytes(key.private_bytes(
        serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption()))
    return cert_path, key_path


class TlsStub(Stub):
    """Stub behind TLS; the handshake runs in the handler thread."""

    def __init__(self, cert: Path, key: Path):
        self.tls = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
        self.tls.load_cert_chain(cert, key)
        super().__init__(b'{"via": "tls"}')

    @property
    def url(self) -> str:
        return f"https://127.0.0.1:{self.port}/doc"

    def get_request(self):
        sock, address = super().get_request()
        return self.tls.wrap_socket(sock, server_side=True, do_handshake_on_connect=False), address


class TunnelHandler(BaseHTTPRequestHandler):
    """A CONNECT proxy: records each tunnel's target, then relays bytes both ways."""

    def do_CONNECT(self):  # noqa: N802
        self.server.requests.append((self.path, dict(self.headers)))
        host, port = self.path.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as upstream:
            self.send_response(200)
            self.end_headers()
            self.wfile.flush()
            back = threading.Thread(target=relay, args=(upstream, self.connection), daemon=True)
            back.start()
            relay(self.connection, upstream)
            back.join(5)
        self.close_connection = True

    def log_message(self, *args):
        pass


def relay(source: socket.socket, sink: socket.socket) -> None:
    try:
        while data := source.recv(1 << 16):
            sink.sendall(data)
        sink.shutdown(socket.SHUT_WR)
    except OSError:
        pass


@pytest.fixture
def tls_environment(monkeypatch):
    """No proxy and no CA bundle in the environment; each test sets what it needs."""
    for name in (*PROXY_VARIABLES, *(v.upper() for v in PROXY_VARIABLES),
                 "REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_https_verifies_the_certificate_and_its_host_name(tls_environment, tmp_path):
    cert, key = certificate(tmp_path / "loopback", LOOPBACK_SAN)
    elsewhere, elsewhere_key = certificate(tmp_path / "elsewhere", x509.DNSName("data.example"))
    server, mismatched = TlsStub(cert, key), TlsStub(elsewhere, elsewhere_key)
    try:
        with pytest.raises(FetchFailed):  # a self-signed certificate is in no default store
            in_fresh_thread(lambda: request_json(server.url, False, 5))
        tls_environment.setenv("REQUESTS_CA_BUNDLE", str(cert))
        reply, trusted = in_fresh_thread(
            lambda: (request_json(server.url, False, 5), resolver._pool.tls))
        assert reply == (200, {"via": "tls"})
        assert [c["subject"] for c in trusted.get_ca_certs()] == [((("commonName", "stub"),),)]
        assert (trusted.verify_mode, trusted.check_hostname) == (ssl.CERT_REQUIRED, True)
        tls_environment.setenv("REQUESTS_CA_BUNDLE", str(tmp_path))  # a directory of CAs
        assert in_fresh_thread(lambda: resolver._pool.trust) == {"capath": str(tmp_path)}
        tls_environment.setenv("REQUESTS_CA_BUNDLE", str(elsewhere))
        with pytest.raises(FetchFailed):  # trusted, but not issued for 127.0.0.1
            in_fresh_thread(lambda: request_json(mismatched.url, False, 5))
        assert [len(server.requests), len(mismatched.requests)] == [1, 0]
    finally:
        server.close()
        mismatched.close()


def test_https_connections_are_kept_alive(tls_environment, tmp_path):
    """After a reply, a TLS socket with nothing left to read is pooled again."""
    cert, key = certificate(tmp_path, LOOPBACK_SAN)
    server = TlsStub(cert, key)
    try:
        tls_environment.setenv("REQUESTS_CA_BUNDLE", str(cert))
        replies = in_fresh_thread(lambda: [request_json(server.url, False, 5) for _ in range(3)])
        assert (replies, server.connections) == ([(200, {"via": "tls"})] * 3, 1)
    finally:
        server.close()


def test_https_goes_through_a_connect_tunnel_to_the_proxy(tls_environment, tmp_path):
    cert, key = certificate(tmp_path, LOOPBACK_SAN)
    server, proxy = TlsStub(cert, key), Stub()
    proxy.RequestHandlerClass = TunnelHandler
    try:
        tls_environment.setenv("REQUESTS_CA_BUNDLE", str(cert))
        tls_environment.setenv("HTTPS_PROXY", f"http://127.0.0.1:{proxy.port}")
        assert in_fresh_thread(lambda: request_json(server.url, False, 5)) == (200, {"via": "tls"})
        assert [target for target, _ in proxy.requests] == [f"127.0.0.1:{server.port}"]
        assert [target for target, _ in server.requests] == ["/doc"]
    finally:
        server.close()
        proxy.close()
