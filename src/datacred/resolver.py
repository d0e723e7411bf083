"""DID resolution with pluggable backends and a TTL cache.

Backends, tried in order:

- KeyBackend        did:key, synthesized locally, never touches the network
- WebBackend        did:web over HTTPS
- StaticBackend     in-memory map, for tests
- DirectoryBackend  documents read from an offline bundle's dids.json

Every backend counts its fetches so callers can assert cache behavior and
prove offline verification performed zero network operations.

``request_json`` is datacred's only HTTP client, with one transport policy
for DID documents, registries, agent envelopes and the admin client.
"""

from __future__ import annotations

import ipaddress
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

import requests

from .did import Did, DidDocument, did_key_public_key, did_web_url, generate_did_key, parse_did
from .errors import DocumentInvalid, FetchFailed, NotFound, UnsupportedMethod
from .jsonfile import read_json

DEFAULT_CACHE_TTL = 300.0
_HTTP_TIMEOUT = 5.0


def is_loopback_host(host: str) -> bool:
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


def request_json(url: str, allow_insecure_loopback: bool, timeout: float, body=None):
    """GET url, or POST body to it as JSON; returns (status, JSON reply).

    Only https, or plain http to a loopback host when allowed. Redirects are
    refused, so the host checked here is the one that answers. A refused URL,
    a transport failure or a 3xx raise FetchFailed. A reply that is not JSON
    raises DocumentInvalid, or for a status of 400 or more NotFound (404) or
    FetchFailed.
    """
    parts = urlsplit(url)
    insecure_ok = allow_insecure_loopback and is_loopback_host(parts.hostname or "")
    if parts.scheme != "https" and not (parts.scheme == "http" and insecure_ok):
        raise FetchFailed(f"{url}: only https, or plain http to loopback when enabled")
    try:
        response = requests.request(
            "GET" if body is None else "POST", url, json=body, timeout=timeout,
            allow_redirects=False,
        )
    except requests.RequestException as exc:
        raise FetchFailed(f"{url}: {exc}") from exc
    status = response.status_code
    if 300 <= status < 400:
        raise FetchFailed(f"{url}: refused redirect ({status})")
    try:
        return status, response.json()
    except ValueError as exc:
        if status >= 400:
            raise (NotFound if status == 404 else FetchFailed)(f"{url} returned {status}")
        raise DocumentInvalid(f"{url}: response ({status}) is not JSON: {exc}") from exc


def fetch_json(url: str, allow_insecure_loopback: bool, timeout: float):
    """GET a DID document or registry; a 404 is NotFound and any other 4xx/5xx FetchFailed."""
    status, document = request_json(url, allow_insecure_loopback, timeout)
    if status >= 400:
        raise (NotFound if status == 404 else FetchFailed)(f"{url} returned {status}")
    return document


class KeyBackend:
    """Synthesizes documents for did:key identifiers."""

    network = False

    def __init__(self) -> None:
        self.fetch_count = 0

    def supports(self, did: Did) -> bool:
        return did.method == "key"

    def fetch(self, did: Did) -> dict:
        self.fetch_count += 1
        public_key = did_key_public_key(did)
        _, document = generate_did_key(public_key)
        if document.id != did.text:
            raise DocumentInvalid(f"{did.text}: identifier does not round-trip")
        return document.to_json()


class WebBackend:
    """Fetches did:web documents from their well-known URL."""

    network = True

    def __init__(self, allow_insecure_loopback: bool = False, timeout: float = _HTTP_TIMEOUT):
        self.allow_insecure_loopback = allow_insecure_loopback
        self.timeout = timeout
        self.fetch_count = 0

    def supports(self, did: Did) -> bool:
        return did.method == "web"

    def _url(self, did: Did) -> str:
        url = did_web_url(did)
        if self.allow_insecure_loopback and is_loopback_host(urlsplit(url).hostname or ""):
            return "http" + url[len("https"):]
        return url

    def fetch(self, did: Did) -> dict:
        self.fetch_count += 1
        return fetch_json(self._url(did), self.allow_insecure_loopback, self.timeout)


class StaticBackend:
    """In-memory DID-to-document map for tests and fixtures."""

    network = False

    def __init__(self, documents: dict[str, dict] | None = None):
        self.documents = dict(documents or {})
        self.fetch_count = 0

    def register(self, document: DidDocument | dict) -> None:
        obj = document.to_json() if isinstance(document, DidDocument) else document
        self.documents[obj["id"]] = obj

    def supports(self, did: Did) -> bool:
        return did.text in self.documents

    def fetch(self, did: Did) -> dict:
        self.fetch_count += 1
        try:
            return self.documents[did.text]
        except KeyError:
            raise NotFound(did.text) from None


class DirectoryBackend:
    """Documents from an offline verification bundle.

    The bundle's ``dids.json`` is a JSON object mapping DID strings to their
    documents, shipped alongside the credential it supports.
    """

    network = False
    INDEX_NAME = "dids.json"

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.fetch_count = 0
        self._documents: dict[str, dict] = read_json(self.directory / self.INDEX_NAME)

    def supports(self, did: Did) -> bool:
        return did.text in self._documents

    def fetch(self, did: Did) -> dict:
        self.fetch_count += 1
        try:
            return self._documents[did.text]
        except KeyError:
            raise NotFound(did.text) from None


class Resolver:
    """Resolve DIDs to validated documents through ordered backends."""

    def __init__(self, backends: list | None = None, cache_ttl: float = DEFAULT_CACHE_TTL):
        self.backends = backends if backends is not None else [KeyBackend(), WebBackend()]
        self.cache_ttl = cache_ttl
        self._cache: dict[str, tuple[DidDocument, float]] = {}
        self._lock = threading.Lock()

    @property
    def network_fetch_count(self) -> int:
        """Total fetches performed by network-touching backends."""
        return sum(b.fetch_count for b in self.backends if getattr(b, "network", False))

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()

    def resolve(self, did: Did | str) -> DidDocument:
        """Fetch, validate, and cache the document for a DID.

        The returned document's id always equals the requested DID; anything
        else is rejected as DocumentInvalid.
        """
        if isinstance(did, str):
            did = parse_did(did)

        now = time.monotonic()
        with self._lock:
            cached = self._cache.get(did.text)
            if cached is not None and now - cached[1] < self.cache_ttl:
                return cached[0]

        backend = next((b for b in self.backends if b.supports(did)), None)
        if backend is None:
            raise UnsupportedMethod(f"no backend resolves did:{did.method}")

        raw = backend.fetch(did)
        document = DidDocument.from_json(raw)
        if document.id != did.text:
            raise DocumentInvalid(
                f"document id {document.id} does not match requested {did.text}"
            )
        with self._lock:
            self._cache[did.text] = (document, time.monotonic())
        return document
