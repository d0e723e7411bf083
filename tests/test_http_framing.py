"""HTTP/1.1 framing on both ends of the agent wire: request_json reading replies from
a raw-socket server, and the agent's server reading requests from a raw socket."""

import gc
import hashlib
import json
import socket
import threading
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datacred.agent.service import MAX_BODY_BYTES
from datacred.errors import DocumentInvalid, FetchFailed, NotFound
from datacred.resolver import MAX_HEADERS, MAX_LINE, MAX_RESPONSE_BYTES, read_head, request_bytes
from datacred.resolver import request_json
from test_http_path import in_fresh_thread

pytestmark = pytest.mark.usefixtures("fast_wallet_kdf")


class RawStub:
    """Loopback TCP server answering each request head with the same raw bytes.

    With `close`, it hangs up after each answer. It counts accepted connections.
    """

    def __init__(self, reply: bytes, close: bool = False):
        self.reply, self.close = reply, close
        self.connections = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}/doc"
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                connection, _ = self.listener.accept()
            except OSError:  # the listener was closed
                return
            self.connections += 1
            threading.Thread(target=self._answer, args=(connection,), daemon=True).start()

    def _answer(self, connection: socket.socket) -> None:
        connection.settimeout(5)
        with connection, connection.makefile("rb") as requests:
            try:
                while request_head(requests):
                    connection.sendall(self.reply)
                    if self.close:
                        return
            except OSError:  # the client hung up on a reply it refused
                pass

    def stop(self) -> None:
        self.listener.close()


def request_head(lines) -> bool:
    """Read one GET head up to its blank line; False when the client hung up first."""
    while (line := lines.readline()) not in (b"\r\n", b"\n"):
        if not line:
            return False
    return True


@pytest.fixture
def raw_stub():
    stubs = []

    def build(reply: bytes, close: bool = False) -> RawStub:
        stubs.append(RawStub(reply, close))
        return stubs[-1]

    yield build
    for stub in stubs:
        stub.stop()


def twice(stub: RawStub):
    """Two GETs from one new thread, and the connections they took."""
    replies = in_fresh_thread(lambda: [request_json(stub.url, True, 5) for _ in range(2)])
    return replies, stub.connections


# --- the client: request_json reading replies ---

def test_chunked_reply_gives_its_json_and_is_pooled(raw_stub):
    stub = raw_stub(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                    b"4;ext=1\r\n{\"a\"\r\n3\r\n: 1\r\n1\r\n}\r\n0\r\nX-Trailer: t\r\n\r\n")
    assert twice(stub) == ([(200, {"a": 1})] * 2, 1)


def test_a_malformed_reply_to_connect_is_a_fetch_failure(raw_stub, monkeypatch):
    proxy = raw_stub(b"not a status line\r\n\r\n", close=True)
    for name in ("https_proxy", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTPS_PROXY", proxy.url.removesuffix("/doc"))
    with pytest.raises(FetchFailed, match="not a status line"):
        in_fresh_thread(lambda: request_json("https://datacred.example/doc", False, 5))
    assert proxy.connections == 1


def test_a_malformed_reply_to_connect_closes_the_socket(raw_stub, monkeypatch):
    """The socket opened to the proxy used to be left for the garbage collector."""
    proxy = raw_stub(b"not a status line\r\n\r\n", close=True)
    for name in ("https_proxy", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTPS_PROXY", proxy.url.removesuffix("/doc"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(FetchFailed):
            in_fresh_thread(lambda: request_json("https://datacred.example/doc", False, 5))
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_chunked_reply_over_the_cap_is_refused(raw_stub):
    first = 1 << 20
    stub = raw_stub(f"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n{first:x}\r\n".encode()
                    + b" " * first + f"\r\n{MAX_RESPONSE_BYTES - first + 2:x}\r\n".encode())
    with pytest.raises(FetchFailed, match=str(MAX_RESPONSE_BYTES)):
        in_fresh_thread(lambda: request_json(stub.url, True, 5))


def test_reply_without_length_is_read_until_close_and_not_pooled(raw_stub):
    stub = raw_stub(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{\"a\": 1}",
                    close=True)
    assert twice(stub) == ([(200, {"a": 1})] * 2, 2)


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
    b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n"
    b"2\r\n{}\r\n0\r\n\r\n",
], ids=["connection-close", "http-1.0", "chunked-and-length"])
def test_closing_reply_is_not_pooled(raw_stub, reply):
    assert twice(raw_stub(reply)) == ([(200, {})] * 2, 2)


@pytest.mark.parametrize("unasked", [
    b"HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\n{\"b\": 2}",
    b"HTTP/1.1 304 Not Modified\r\nContent-Length: 8\r\n\r\n{\"b\": 2}",
], ids=["second-response", "304-with-a-body"])
def test_a_reply_followed_by_unasked_bytes_is_not_pooled(raw_stub, unasked):
    """RFC 9112 §9: what follows a reply is never read as the answer to the next request."""
    stub = raw_stub(b"HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\n{\"a\": 1}" + unasked)
    assert twice(stub) == ([(200, {"a": 1})] * 2, 2)


def test_a_304_that_carries_a_body_is_not_pooled(raw_stub):
    """A 304 ends at its head (RFC 9110 §15.4.5), so the bytes after it taint the socket."""
    stub = raw_stub(b"HTTP/1.1 304 Not Modified\r\nContent-Length: 8\r\n\r\n{\"b\": 2}")
    replies = in_fresh_thread(lambda: [request_bytes(stub.url, True, 5, etag='"e"')
                                       for _ in range(2)])
    assert (replies, stub.connections) == ([(304, b"")] * 2, 2)


def test_a_head_of_max_headers_fields_is_read(raw_stub):
    fields = b"".join(b"X-%d: v\r\n" % i for i in range(MAX_HEADERS - 1))
    stub = raw_stub(b"HTTP/1.1 200 OK\r\n" + fields + b"Content-Length: 2\r\n\r\n{}")
    assert twice(stub) == ([(200, {})] * 2, 1)


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 OK\r\nContent-Length: 2\r\n\r\n{}",
    b"ICY 200 OK\r\nContent-Length: 2\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nno colon here\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\n" + b"".join(b"X-%d: v\r\n" % i for i in range(MAX_HEADERS + 1))
    + b"Content-Length: 2\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * (MAX_LINE + 1 - len(b"X-Long: \r\n")) + b"\r\n"
    + b"Content-Length: 2\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-2\r\n{}\r\n0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\n{}",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: identity\r\nContent-Length: 2\r\n\r\n{}",
    b"",
], ids=["status-without-code", "not-http", "field-without-colon", "too-many-fields",
        "line-over-the-limit", "body-cut-short", "negative-length", "negative-chunk",
        "chunk-cut-short", "coding-before-chunked", "coding-not-chunked", "no-reply"])
def test_malformed_reply_is_fetch_failed(raw_stub, reply):
    stub = raw_stub(reply, close=True)
    with pytest.raises(FetchFailed):
        in_fresh_thread(lambda: request_json(stub.url, True, 5))


def test_reply_nested_too_deep_to_parse_is_not_json(raw_stub):
    nested = b"[" * 100_000
    stub = raw_stub(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(nested), nested))
    with pytest.raises(DocumentInvalid):
        in_fresh_thread(lambda: request_json(stub.url, True, 5))


def test_interim_reply_is_skipped(raw_stub):
    stub = raw_stub(b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
    assert twice(stub) == ([(200, {})] * 2, 1)


_head_bytes = st.binary(max_size=40).filter(lambda b: b"\n" not in b)
replies = st.one_of(
    st.binary(max_size=300),
    st.builds(
        lambda status, fields, body: b"HTTP/1.1 " + status + b"\r\n" + b"".join(
            name + b": " + value + b"\r\n" for name, value in fields) + b"\r\n" + body,
        st.one_of(st.sampled_from([b"200 OK", b"404 Not Found", b"100 Continue", b"204 x",
                                   b"302 Found", b"500 Oops"]), _head_bytes),
        st.lists(st.tuples(st.sampled_from([b"Content-Length", b"Transfer-Encoding",
                                            b"Connection", b"X"]),
                           st.one_of(st.sampled_from([b"0", b"2", b"7", b"chunked", b"close"]),
                                     _head_bytes)), max_size=4),
        st.one_of(st.sampled_from([b"{}", b"[1]", b"2\r\n{}\r\n0\r\n\r\n"]),
                  st.binary(max_size=40)),
    ),
)


@settings(max_examples=80, deadline=None)
@given(reply=replies)
def test_any_reply_is_json_or_a_fetch_error(reply):
    """Whatever bytes a server sends, request_json returns (status, JSON) or raises one of
    its three errors, never another exception."""
    stub = RawStub(reply, close=True)
    try:
        status, _ = in_fresh_thread(lambda: request_json(stub.url, True, 5))
        assert 200 <= status < 300 or status >= 400
    except (FetchFailed, DocumentInvalid, NotFound):
        pass
    finally:
        stub.stop()


# --- the server: the agent reading requests ---

def read_to_close(sock: socket.socket) -> bytes:
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def exchange(agent, data: bytes, half_close: bool = False) -> bytes:
    """data sent to the agent on a new connection; all it answers until it hangs up."""
    with socket.create_connection(("127.0.0.1", agent.config.listen_port), timeout=3) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        return read_to_close(sock)


def still_answers(agent) -> bool:
    url = agent.base_url + "/.well-known/did.json"
    reply = in_fresh_thread(lambda: request_json(url, True, 5))
    return reply == (200, agent.did_document.to_json())


GET_DID = b"GET /.well-known/did.json HTTP/1.1\r\nHost: agent\r\n"


@pytest.mark.parametrize("request_bytes, status", [
    (b"GET /.well-known/did.json HTTP/1.0\r\n\r\n", 200),
    (GET_DID + b"Connection: close\r\n\r\n", 200),
    (b"DELETE /inbox HTTP/1.1\r\nHost: agent\r\n\r\n", 501),
    (b"GARBAGE\r\n\r\n", 400),
    (b"GET /" + b"a" * MAX_LINE + b" HTTP/1.1\r\n\r\n", 414),
    (GET_DID + b"X-Long: " + b"a" * MAX_LINE + b"\r\n\r\n", 431),
    (GET_DID + b"".join(b"X-%d: v\r\n" % i for i in range(MAX_HEADERS + 1)) + b"\r\n", 431),
    (GET_DID + b"no colon here\r\n\r\n", 400),
], ids=["http-1.0", "connection-close", "unknown-method", "malformed-request-line",
        "request-line-too-long", "field-line-too-long", "too-many-fields", "field-without-colon"])
def test_request_is_answered_then_the_connection_closed(agent_factory, request_bytes, status):
    dataset = agent_factory("dataset")
    answer = exchange(dataset, request_bytes)
    head, _, body = answer.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 %d " % status)
    assert b"\r\nConnection: close" in head
    assert len(body) == int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
    if status == 200:
        assert json.loads(body) == dataset.did_document.to_json()
    assert still_answers(dataset)


@pytest.mark.parametrize("smuggled, status", [
    (b"POST /connect HTTP/1.1\r\nHost: agent\r\nTransfer-Encoding: chunked\r\n"
     b"Content-Length: 7\r\n\r\n0\r\n\r\n", 501),
    (b"POST /inbox HTTP/1.1\r\nHost: agent\r\nTransfer-Encoding: chunked\r\n\r\n"
     b"2\r\n{}\r\n0\r\n\r\n", 501),
    (GET_DID + b"Content-Length: 33\r\n\r\nGET /status HTTP/1.1\r\nHost: a\r\n\r\n", 400),
], ids=["chunked-and-length", "chunked", "get-with-a-body"])
def test_request_framing_two_readers_could_split_is_refused_and_closed(
    agent_factory, smuggled, status
):
    """RFC 9112 §6.1 and §6.3: nothing after such a request is read as another request."""
    dataset = agent_factory("dataset")
    answer = exchange(dataset, smuggled + GET_DID + b"\r\n", half_close=True)
    head, _, body = answer.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 %d " % status)
    assert b"\r\nConnection: close" in head
    assert answer.count(b"HTTP/1.1 ") == 1  # no second answer: the connection was closed
    assert json.loads(body)["error"] == "BadRequest"
    assert still_answers(dataset)


def test_registry_is_served_with_its_digest_as_etag_and_a_304(agent_factory):
    publisher = agent_factory("publisher")
    get = b"GET /registry HTTP/1.1\r\nHost: agent\r\n"
    with socket.create_connection(("127.0.0.1", publisher.config.listen_port), timeout=3) as sock:
        sock.sendall(get + b"\r\n")
        lines = sock.makefile("rb")
        start, fields = read_head(lines)
        body = lines.read(int(fields["content-length"]))
        etag = fields["etag"]
        assert (start, json.loads(body)) == ("HTTP/1.1 200 OK", publisher.state.registry.to_json())
        assert etag == '"%s"' % hashlib.sha256(body).hexdigest()
        for tags in (etag, f'"other", W/{etag}'):
            sock.sendall(get + f"If-None-Match: {tags}\r\n\r\n".encode())
            assert read_head(lines) == ("HTTP/1.1 304 Not Modified", {"etag": etag})
        sock.sendall(get + b'If-None-Match: "other"\r\nConnection: close\r\n\r\n')
        start, fields = read_head(lines)
        assert (start, lines.read()) == ("HTTP/1.1 200 OK", body)


def test_body_nested_too_deep_to_parse_is_a_bad_request(agent_factory):
    dataset = agent_factory("dataset")
    nested = b"[" * 100_000
    answer = exchange(dataset, b"POST /inbox HTTP/1.1\r\nHost: agent\r\nConnection: close\r\n"
                               b"Content-Length: %d\r\n\r\n%s" % (len(nested), nested))
    head, _, body = answer.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert json.loads(body)["error"] == "SignatureInvalid"  # a malformed envelope
    assert still_answers(dataset)


@pytest.mark.parametrize("body", ["0", "ab", [["k", 1]], None],
                         ids=["digit", "string", "pairs", "null"])
def test_an_unsigned_envelope_whose_body_is_not_an_object_is_answered(agent_factory, body):
    dataset = agent_factory("dataset")
    envelope = json.dumps({"id": "e-1", "type": "datacred/1.0/proof-request",
                           "from": "did:web:peer.example", "to": dataset.did.text,
                           "createdAt": "2026-01-01T00:00:00Z", "body": body}).encode()
    answer = exchange(dataset, b"POST /inbox HTTP/1.1\r\nHost: agent\r\nConnection: close\r\n"
                               b"Content-Length: %d\r\n\r\n%s" % (len(envelope), envelope))
    head, _, reply = answer.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert json.loads(reply)["error"] == "SignatureInvalid"
    assert still_answers(dataset)


def test_expect_continue_is_answered_before_the_body_is_read(agent_factory):
    dataset = agent_factory("dataset")
    with socket.create_connection(("127.0.0.1", dataset.config.listen_port), timeout=3) as sock:
        sock.sendall(b"POST /inbox HTTP/1.1\r\nHost: agent\r\nContent-Length: 1\r\n"
                     b"Expect: 100-continue\r\nConnection: close\r\n\r\n")
        assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(b"5")
        head, _, body = read_to_close(sock).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert json.loads(body)["error"] == "SignatureInvalid"
    assert still_answers(dataset)


def test_expect_continue_is_not_answered_for_a_body_refused_unread(agent_factory):
    dataset = agent_factory("dataset")
    answer = exchange(dataset, b"POST /inbox HTTP/1.1\r\nHost: agent\r\n"
                               b"Content-Length: %d\r\nExpect: 100-continue\r\n\r\n"
                               % (MAX_BODY_BYTES + 1))
    assert answer.startswith(b"HTTP/1.1 413 ")
    assert still_answers(dataset)


def test_refusal_reaches_a_peer_that_sends_its_whole_body_first(agent_factory):
    """The agent reads what a refused peer still sends, so the peer's kernel gets no reset."""
    dataset = agent_factory("dataset")
    size = 4 * MAX_BODY_BYTES
    with socket.create_connection(("127.0.0.1", dataset.config.listen_port), timeout=5) as sock:
        sock.sendall(b"POST /inbox HTTP/1.1\r\nHost: agent\r\nContent-Length: %d\r\n\r\n" % size
                     + b" " * size)
        answer = sock.recv(65536)
    assert answer.startswith(b"HTTP/1.1 413 ")
    assert still_answers(dataset)


requests_bytes = st.one_of(
    st.binary(max_size=300),
    st.builds(
        lambda method, path, version, fields, body: method + b" " + path + b" " + version
        + b"\r\n" + b"".join(name + b": " + value + b"\r\n" for name, value in fields)
        + b"\r\n" + body,
        st.sampled_from([b"GET", b"POST", b"PUT", b""]),
        st.sampled_from([b"/inbox", b"/.well-known/did.json", b"/registry", b"/status", b"*"]),
        st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2", b"http/1.1"]),
        st.lists(st.tuples(st.sampled_from([b"Content-Length", b"Connection", b"Expect", b"X"]),
                           st.one_of(st.sampled_from([b"0", b"2", b"-1", b"close",
                                                      b"100-continue"]), _head_bytes)),
                 max_size=4),
        st.one_of(st.sampled_from([b"{}", b"[]", b"5"]), st.binary(max_size=40)),
    ),
)


def test_any_request_leaves_the_agent_answering(agent_factory):
    """Whatever bytes a peer sends, no handler thread fails and the agent still serves."""
    dataset = agent_factory("dataset")
    failures = []
    dataset._server.handle_error = lambda request, address: failures.append(address)

    @settings(max_examples=60, deadline=None)
    @given(data=requests_bytes)
    def sent(data):
        exchange(dataset, data, half_close=True)
        assert failures == []
        assert still_answers(dataset)

    sent()
