"""The HTTP path: resolver.request_json is datacred's only HTTP client, it keeps
one pooled session per thread, and agents close the connections it keeps."""

import ast
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from datacred import resolver
from datacred.agent import service
from datacred.errors import FetchFailed
from datacred.resolver import MAX_RESPONSE_BYTES, request_json

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "datacred"
HTTP_CLIENTS = ("requests", "urllib3", "http.client", "urllib.request")
REQUESTS_VERBS = ("request", "get", "post", "put", "patch", "delete", "head", "options")


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
    assert importers == {("resolver.py", "requests")}


def test_the_resolver_sends_through_one_pooled_session():
    path = PACKAGE / "resolver.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    called = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert not {f"requests.{verb}" for verb in REQUESTS_VERBS} & set(called)
    assert called.count("requests.Session") == 1


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
    assert in_fresh_thread(lambda: resolver._session()[0].verify) == str(bundle)


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
