"""DID resolution with pluggable backends and a cache.

Backends, tried in order, each returning a validated ``DidDocument``:

- KeyBackend        did:key, derived from the key the DID encodes: no JSON, no network
- WebBackend        did:web over HTTPS, parsed and validated
- StaticBackend     in-memory map, for tests
- DirectoryBackend  documents read from an offline bundle's dids.json

A resolved document is served from the resolver's cache for CACHE_TTL
seconds, a module constant, and the cache keeps the CACHED_DOCUMENTS documents
last used. The resolver counts its backend fetches, network ones apart, so
callers can assert cache behavior and prove offline verification made no
network fetch; registry GETs count as network fetches too. It also
remembers, for ``verified_once``, the last VERIFIED_PROOFS signatures it saw
verify, trusted as it read their signers, and, for ``fetch_registry``, the last
VERIFIED_REGISTRIES registries within VERIFIED_REGISTRY_BYTES of replies; the
process keeps as many, by the SHA-256 of their bytes, for ``shared_registry``.

``request_bytes`` is datacred's only HTTP client, with one transport policy for
DID documents, registries, agent envelopes and the admin client; a registry
GET may be conditional, and ``request_json`` parses the reply. Each thread
keeps its own pool of sockets alive, one per origin and proxy, which
``http.client`` only opens (TLS, CONNECT tunnel). A socket keeps the reader made
when it opened, and is pooled again only after a reusable reply that left no unread
byte (RFC 9112 section 9). ``http.client``, ``ssl`` and
``urllib.request`` load at the first request, when the thread reads the proxy
(``HTTP_PROXY``, ``HTTPS_PROXY``, ``NO_PROXY``) and CA bundle
(``REQUESTS_CA_BUNDLE``, then ``CURL_CA_BUNDLE``, else OpenSSL's default store)
environment; ``~/.netrc`` is not consulted, and cookies are never stored. This
module frames HTTP/1.1 (RFC 9112) for both ends of datacred's wire:
``read_head`` reads a reply's head here and a request's in the agent, within
MAX_LINE and MAX_HEADERS, and a request or response is sent in one write.
"""

from __future__ import annotations

import functools
import ipaddress
import json
import os
import select
import threading
import time
from collections import OrderedDict
from pathlib import Path
from urllib.parse import urlsplit

from .did import Did, DidDocument, did_key_public_key, did_web_url, one_key_document, parse_did
from .errors import DocumentInvalid, FetchFailed, NotFound, UnsupportedMethod
from .jsonfile import parse_json, read_json

CACHE_TTL = 300.0  # seconds a resolved document is served from the cache
CACHED_DOCUMENTS = 1024  # resolved documents a Resolver keeps, least recently used out
VERIFIED_PROOFS = 1024  # verified signatures a Resolver remembers, least recently used out
VERIFIED_REGISTRIES = 4  # verified registries a Resolver, and the process, keeps, LRU out
VERIFIED_REGISTRY_BYTES = 4 << 20  # and the reply bytes they may total
_HTTP_TIMEOUT = 5.0
# Replies are read up to this size: a registry of 400,000 revoked ids at
# about 40 bytes each, far above any DID document or envelope.
MAX_RESPONSE_BYTES = 16 << 20
MAX_LINE = 65536  # bytes in a start, field or chunk-size line, on both ends, as in http.client
MAX_HEADERS = 100  # field lines in a message head, on both ends, as in http.client
_shared_registries: OrderedDict[bytes, tuple] = OrderedDict()  # every Resolver's, by digest
_shared_lock = threading.Lock()


@functools.lru_cache(maxsize=256)
def is_loopback_host(host: str) -> bool:
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


class HeadRefused(ValueError):
    """A message head or chunk line refused by its framing; status is a server's answer."""

    def __init__(self, status: int, reason: str):
        super().__init__(reason)
        self.status = status


def _line(fp, status: int) -> bytes:
    if len(line := fp.readline(MAX_LINE + 1)) > MAX_LINE:
        raise HeadRefused(status, f"a line over {MAX_LINE} bytes")
    return line


def _fields(fp) -> dict[str, str]:
    """Field lines up to a blank one, names lower-cased; a repeated field's values joined."""
    fields: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        if (line := _line(fp, 431)) in (b"\r\n", b"\n"):
            return fields
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or " " in name or not name.isprintable():
            raise HeadRefused(400, f"malformed field line {line[:64]!r}")
        name, value = name.lower(), value.strip()
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    raise HeadRefused(431, f"more than {MAX_HEADERS} header fields")


def read_head(fp) -> tuple[str, dict[str, str]]:
    """The start line and header fields, names lower-cased, of one HTTP/1.1 message read
    from the binary file fp; ("", {}) if fp ends first. A start line over MAX_LINE bytes
    is refused with 414, a longer field line or more than MAX_HEADERS fields with 431,
    and a field line without a name and colon, or a head cut short, with 400."""
    start = _line(fp, 414)
    return (start.decode("latin-1").rstrip("\r\n"), _fields(fp)) if start else ("", {})


def _size(text, base: int) -> int:
    if not text.strip().isalnum():  # int() would take a sign, inner spaces or underscores
        raise ValueError(f"malformed size {text[:64]!r}")
    return int(text, base)


def _read_reply(fp) -> tuple[int, bytes, bool]:
    """(status, body, reusable) of the final reply read from fp, after any 1xx ones;
    reusable means an HTTP/1.1 keep-alive reply that ended where its framing said,
    and did not carry both Transfer-Encoding and Content-Length (RFC 9112 §6.1).
    A body framed over MAX_RESPONSE_BYTES + 1 bytes is refused unread: that, bad
    framing, a transfer coding other than chunked and a body cut short raise
    ValueError."""
    status = 100
    while status < 200:
        start, fields = read_head(fp)
        version, _, rest = start.partition(" ")
        status = int(rest[:3]) if rest[:3].isdecimal() else 0
        if not version.startswith("HTTP/1.") or status < 100 or rest[3:4] not in ("", " "):
            raise ValueError(f"malformed status line {start[:64]!r}" if start else "no reply")
    keep = version == "HTTP/1.1" and "close" not in fields.get("connection", "").lower()
    limit = MAX_RESPONSE_BYTES + 1
    if status in (204, 304):
        return status, b"", keep
    if (coding := fields.get("transfer-encoding")) is not None:  # it overrides Content-Length
        if coding.lower() != "chunked":
            raise ValueError(f"unsupported transfer coding {coding[:64]!r}")
        body = bytearray()
        while size := _size(_line(fp, 400).split(b";")[0], 16):  # then any extensions
            if len(body) + size > limit:
                raise ValueError(f"reply exceeds {MAX_RESPONSE_BYTES} bytes")
            body += (chunk := fp.read(size))
            if len(chunk) < size or _line(fp, 400) not in (b"\r\n", b"\n"):
                raise ValueError("reply ended inside a chunk")
        _fields(fp)  # trailer fields, unused
        return status, body, keep and "content-length" not in fields  # both: never reused
    if "content-length" not in fields:
        return status, fp.read(limit), False  # up to the peer's close
    if (length := _size(fields["content-length"], 10)) > limit:
        raise ValueError(f"reply exceeds {MAX_RESPONSE_BYTES} bytes")
    if len(body := fp.read(length)) < length:
        raise ValueError(f"reply ended {length - len(body)} bytes short")
    return status, body, keep


def _drained(sock, fp) -> bool:
    """True when the reader fp holds no unread byte and none waits on sock."""
    sock.setblocking(False)  # the next request sets its timeout again
    try:
        return not fp.peek(1)
    except OSError as exc:  # an https socket with nothing to read says so with an error
        import ssl
        return isinstance(exc, ssl.SSLWantReadError)


class _Sockets(dict):
    """Kept-alive (reader, socket) pairs by (scheme, host, port, proxy), closed with their
    thread's pool."""

    def __del__(self):
        for connection in self.values():
            for part in connection:  # the reader, then the socket it holds open
                part.close()


class _Pool(threading.local):
    """Each thread's kept-alive sockets, and the environment read at its first request."""

    def __init__(self):
        self.sockets = _Sockets()
        self.tls = None  # an ssl.SSLContext, made at the first https connection

    def __getattr__(self, name: str):  # trust, proxies, bypass: at the thread's first request
        if name not in ("trust", "proxies", "bypass"):
            raise AttributeError(name)
        from urllib.request import getproxies_environment, proxy_bypass_environment
        bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
        self.trust = {"capath" if bundle and os.path.isdir(bundle) else "cafile": bundle}
        self.proxies, self.bypass = getproxies_environment(), proxy_bypass_environment
        return getattr(self, name)

    def take(self, scheme: str, host: str, port: int, proxy: str | None, timeout: float):
        """(reader, socket) pooled for this origin and proxy unless its peer hung up, else new."""
        pooled = self.sockets.pop((scheme, host, port, proxy), None)
        if pooled is not None:
            poller = select.poll()
            poller.register(pooled[1], select.POLLIN)
            if not poller.poll(0):  # an idle socket turns readable only when it is closed
                return pooled
            for part in pooled:
                part.close()
        import http.client
        via = urlsplit(proxy if "://" in proxy else "http://" + proxy) if proxy else None
        address = (via.hostname, via.port or 80) if via else (host, port)
        if scheme == "http":
            connection = http.client.HTTPConnection(*address, timeout=timeout)
        else:  # certificates and host names verified against the CA bundle
            import ssl
            self.tls = self.tls or ssl.create_default_context(**self.trust)
            connection = http.client.HTTPSConnection(*address, timeout=timeout, context=self.tls)
            if proxy:
                connection.set_tunnel(host, port)  # CONNECT host:port through the proxy
        try:
            connection.connect()  # sets TCP_NODELAY
        except http.client.HTTPException as exc:  # the proxy's reply to CONNECT was malformed
            connection.close()
            raise OSError(exc) from exc
        return connection.sock.makefile("rb"), connection.sock


_pool = _Pool()  # each thread reads its environment and opens sockets at its first request


def request_bytes(url: str, allow_insecure_loopback: bool, timeout: float, body=None,
                  etag: str | None = None) -> tuple[int, bytes]:
    """GET url, with If-None-Match: etag when given, or POST body to it as JSON;
    returns (status, reply bytes).

    Only https, or plain http to a loopback host when allowed. Redirects are
    refused, so the host checked here is the one that answers. A refused URL,
    a transport failure, a 3xx (a 304 too, unless etag was sent) or a reply
    over MAX_RESPONSE_BYTES raise FetchFailed.
    """
    parts = urlsplit(url)
    host = parts.hostname or ""
    insecure_ok = allow_insecure_loopback and is_loopback_host(host)
    if parts.scheme != "https" and not (parts.scheme == "http" and insecure_ok):
        raise FetchFailed(f"{url}: only https, or plain http to loopback when enabled")
    if " " in url or not url.isprintable():
        raise FetchFailed(f"{url}: a space or control character in the URL")
    proxies = {} if _pool.bypass(host, _pool.proxies) else _pool.proxies
    proxy = proxies.get(parts.scheme) or proxies.get("all")
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    if proxy and parts.scheme == "http":
        target = f"http://{parts.netloc}{target}"  # an HTTP proxy takes the absolute URL
    host_header = parts.netloc.rpartition("@")[2]
    head = f"{'GET' if body is None else 'POST'} {target} HTTP/1.1\r\nHost: {host_header}\r\n"
    if etag is not None:
        head += f"If-None-Match: {etag}\r\n"
    connection = None
    try:
        payload = b"" if body is None else json.dumps(body, allow_nan=False).encode("utf-8")
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
        key = (parts.scheme, host, parts.port or (443 if parts.scheme == "https" else 80), proxy)
        connection = fp, sock = _pool.take(*key, timeout)
        sock.settimeout(timeout)
        sock.sendall(f"{head}User-Agent: datacred\r\n\r\n".encode("ascii") + payload)  # one write
        status, content, reusable = _read_reply(fp)
        if 300 <= status < 400 and not (status == 304 and etag is not None):
            raise FetchFailed(f"{url}: refused redirect ({status})")
        if reusable and _drained(sock, fp):
            _pool.sockets[key], connection = connection, None
        if len(content) > MAX_RESPONSE_BYTES:
            raise FetchFailed(f"{url}: reply exceeds {MAX_RESPONSE_BYTES} bytes")
    except (OSError, ValueError) as exc:
        raise FetchFailed(f"{url}: {exc}") from exc
    finally:
        if connection is not None:  # not back in the pool: hang up
            for part in connection:
                part.close()
    return status, content


def request_json(url: str, allow_insecure_loopback: bool, timeout: float, body=None,
                 parse=json.loads):
    """request_bytes, then the reply read by parse: (status, its value). A reply that
    parse refuses (ValueError, RecursionError or DocumentInvalid) raises
    DocumentInvalid, or for a status of 400 or more NotFound (404) or FetchFailed."""
    status, content = request_bytes(url, allow_insecure_loopback, timeout, body)
    try:
        return status, parse(content)
    except (ValueError, RecursionError, DocumentInvalid) as exc:  # not JSON, or too deep
        if status >= 400:  # an error page
            raise (NotFound if status == 404 else FetchFailed)(f"{url} returned {status}")
        raise DocumentInvalid(f"{url}: response ({status}) is not JSON: {exc}") from exc


def fetch_bytes(url: str, allow_insecure_loopback: bool, etag: str | None = None):
    """GET a DID document or registry: its bytes, or None for a 304 to etag; a 404 is
    NotFound and any other 4xx/5xx FetchFailed."""
    status, content = request_bytes(url, allow_insecure_loopback, _HTTP_TIMEOUT, etag=etag)
    if status >= 400:
        raise (NotFound if status == 404 else FetchFailed)(f"{url} returned {status}")
    return None if status == 304 else content


class KeyBackend:
    """Derives documents for did:key identifiers from the key each one encodes."""

    def supports(self, did: Did) -> bool:
        return did.method == "key"

    def fetch(self, did: Did) -> DidDocument:  # an id did_key_public_key accepts is valid
        return one_key_document(did, did_key_public_key(did))


class WebBackend:
    """Fetches did:web documents from their well-known URL."""

    network = True

    def __init__(self, allow_insecure_loopback: bool = False):
        self.allow_insecure_loopback = allow_insecure_loopback

    def supports(self, did: Did) -> bool:
        return did.method == "web"

    def _url(self, did: Did) -> str:
        url = did_web_url(did)
        if self.allow_insecure_loopback and is_loopback_host(urlsplit(url).hostname or ""):
            return "http" + url[len("https"):]
        return url

    def fetch(self, did: Did) -> DidDocument:
        url = self._url(did)
        return DidDocument.from_json(parse_json(fetch_bytes(url, self.allow_insecure_loopback),
                                                url))


class StaticBackend:
    """In-memory DID-to-document map for tests and fixtures."""

    def __init__(self, documents: dict[str, dict] | None = None):
        self.documents = dict(documents or {})

    def supports(self, did: Did) -> bool:
        return did.text in self.documents

    def fetch(self, did: Did) -> DidDocument:
        if did.text not in self.documents:
            raise NotFound(did.text)
        return DidDocument.from_json(self.documents[did.text])


class DirectoryBackend:
    """Documents from an offline verification bundle.

    The bundle's ``dids.json`` is a JSON object mapping DID strings to their
    documents, shipped alongside the credential it supports.
    """

    INDEX_NAME = "dids.json"

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._documents: dict[str, dict] = read_json(self.directory / self.INDEX_NAME)

    def supports(self, did: Did) -> bool:
        return did.text in self._documents

    def fetch(self, did: Did) -> DidDocument:
        if did.text not in self._documents:
            raise NotFound(did.text)
        return DidDocument.from_json(self._documents[did.text])


class Resolver:
    """Resolve DIDs to validated documents through ordered backends."""

    def __init__(self, backends: list):
        self.backends = backends
        self._cache: OrderedDict[str, tuple[DidDocument, float]] = OrderedDict()
        self._verified: OrderedDict[tuple, None] = OrderedDict()
        self._registries: OrderedDict[str, tuple] = OrderedDict()
        self._lock = threading.Lock()
        self.fetch_count = 0  # documents asked of a backend
        self.network_fetch_count = 0  # of those, and registries, asked with network = True

    def resolve(self, did: Did | str) -> DidDocument:
        """Fetch and cache the document for a DID, validated by its backend.

        The returned document's id always equals the requested DID; anything
        else is rejected as DocumentInvalid.
        """
        text = did if isinstance(did, str) else did.text  # the cache holds parsed DIDs only
        now = time.monotonic()
        with self._lock:
            cached = self._cache.get(text)
            if cached is not None:
                if now - cached[1] < CACHE_TTL:
                    self._cache.move_to_end(text)
                    return cached[0]
                del self._cache[text]
        did = parse_did(did) if did is text else did

        backend = next((b for b in self.backends if b.supports(did)), None)
        if backend is None:
            raise UnsupportedMethod(f"no backend resolves did:{did.method}")

        with self._lock:  # counted before the fetch, so a failed one counts too
            self.fetch_count += 1
            if getattr(backend, "network", False):
                self.network_fetch_count += 1
        document = backend.fetch(did)
        if document.id != did.text:
            raise DocumentInvalid(
                f"document id {document.id} does not match requested {did.text}"
            )
        with self._lock:
            _keep(self._cache, did.text, (document, time.monotonic()), CACHED_DOCUMENTS)
        return document

    def verified_once(self, key: tuple, verify) -> bool:
        """verify(), unless it returned True for key before in this resolver: then True.
        Only a True is remembered, for the VERIFIED_PROOFS keys last used."""
        with self._lock:
            if key in self._verified:
                self._verified.move_to_end(key)
                return True
        ok = verify()
        if ok:
            with self._lock:
                _keep(self._verified, key, None, VERIFIED_PROOFS)
        return ok

    def fetch_registry(self, source, url: str) -> tuple:
        """(source.fetch(url, etag), the entry remember_registry last kept for url or None).

        etag is the quoted hex of the entry's digest, which a publisher agent answers
        with a 304 (fetch returns None) while its registry has those bytes. A fetch
        from a source with network = True is counted in network_fetch_count."""
        with self._lock:
            if (entry := self._registries.get(url)) is not None:
                self._registries.move_to_end(url)
            if getattr(source, "network", False):
                self.network_fetch_count += 1
        return source.fetch(url, entry and f'"{entry[0].hex()}"'), entry

    def shared_registry(self, digest: bytes) -> tuple | None:
        """The entry remember_registry last kept in any resolver of the process for a reply
        of this SHA-256, or None; the caller checks that its issuer publishes the key."""
        with _shared_lock:
            if (entry := _shared_registries.get(digest)) is not None:
                _shared_registries.move_to_end(digest)
            return entry

    def remember_registry(self, url: str, entry: tuple) -> None:
        """Keep entry, (SHA-256 of the bytes, key, registry, frozenset of its revoked
        ids, reply size), of a registry that verified, by url here and by digest in the
        process, each for the VERIFIED_REGISTRIES keys last used while their replies total
        at most VERIFIED_REGISTRY_BYTES; a larger reply is not kept. Kept, 4 MiB of replies
        take about 14 MiB with UUID ids and at worst 47 MiB (840,000 two-character ids), as
        tracemalloc measures them, and an entry both keep once. None changes once kept."""
        shared = (_shared_lock, _shared_registries, entry[0])
        for lock, lru, key in (self._lock, self._registries, url), shared:
            with lock:
                lru.pop(key, None)
                if entry[-1] <= VERIFIED_REGISTRY_BYTES:
                    _keep(lru, key, entry, VERIFIED_REGISTRIES)
                while sum(kept[-1] for kept in lru.values()) > VERIFIED_REGISTRY_BYTES:
                    lru.popitem(last=False)


def _keep(lru: OrderedDict, key, value, bound: int) -> None:
    """lru[key] = value as its most recently used entry; the least recent go past bound."""
    lru[key] = value
    lru.move_to_end(key)
    if len(lru) > bound:
        lru.popitem(last=False)
