"""Resolution through backends: caching, did:web over loopback, offline bundles."""

import json

import pytest

from datacred.base58 import b58encode
from datacred.credential import HttpRegistrySource
from datacred.did import generate_did_key, parse_did
from datacred.errors import DocumentInvalid, FetchFailed, NotFound, UnsupportedMethod
from datacred.keys import generate_keypair
from datacred.resolver import (
    DirectoryBackend,
    KeyBackend,
    Resolver,
    StaticBackend,
    WebBackend,
)


def listing_shaped_document(did_text: str, public_key: bytes) -> dict:
    return {
        "@context": "https://w3id.org/did/v1",
        "id": did_text,
        "authentication": [
            {
                "id": did_text,
                "type": "Ed25519VerificationKey2018",
                "controller": did_text,
                "publicKeyBase58": b58encode(public_key),
            }
        ],
    }


def test_did_key_resolution_is_local_and_roundtrips():
    did, document = generate_did_key(generate_keypair().public_key)
    resolver = Resolver(backends=[KeyBackend()])
    resolved = resolver.resolve(did)
    assert resolved.to_json() == document.to_json()
    assert resolver.network_fetch_count == 0


def test_unsupported_method():
    resolver = Resolver(backends=[KeyBackend()])
    with pytest.raises(UnsupportedMethod):
        resolver.resolve("did:web:example.com")


def test_static_backend_and_cache_window():
    did, document = generate_did_key(generate_keypair().public_key)
    backend = StaticBackend()
    backend.register(document)
    resolver = Resolver(backends=[backend], cache_ttl=300)
    first = resolver.resolve(did)
    second = resolver.resolve(did.text)
    assert first is second
    assert backend.fetch_count == 1  # one fetch inside the cache window

    expired = Resolver(backends=[backend], cache_ttl=0)
    expired.resolve(did)
    expired.resolve(did)
    assert backend.fetch_count == 3  # ttl 0 never serves from cache


def test_id_mismatch_rejected():
    did_a, doc_a = generate_did_key(generate_keypair().public_key)
    did_b, _ = generate_did_key(generate_keypair().public_key)
    backend = StaticBackend({did_b.text: doc_a.to_json()})
    resolver = Resolver(backends=[backend])
    with pytest.raises(DocumentInvalid):
        resolver.resolve(did_b)


def test_web_resolution_against_loopback_server(json_server):
    public_key = generate_keypair().public_key
    did_text = f"did:web:127.0.0.1%3A{json_server.port}"
    json_server.set("/.well-known/did.json", listing_shaped_document(did_text, public_key))
    resolver = Resolver(backends=[WebBackend(allow_insecure_loopback=True)])
    document = resolver.resolve(did_text)
    assert document.id == did_text
    assert document.authentication[0].public_key_bytes() == public_key
    assert resolver.network_fetch_count == 1
    resolver.resolve(did_text)
    assert resolver.network_fetch_count == 1  # cached


def test_web_resolution_document_id_mismatch(json_server):
    public_key = generate_keypair().public_key
    did_text = f"did:web:127.0.0.1%3A{json_server.port}"
    json_server.set(
        "/.well-known/did.json", listing_shaped_document("did:web:somewhere.else", public_key)
    )
    resolver = Resolver(backends=[WebBackend(allow_insecure_loopback=True)])
    with pytest.raises(DocumentInvalid):
        resolver.resolve(did_text)


def test_web_resolution_not_found(json_server):
    did_text = f"did:web:127.0.0.1%3A{json_server.port}"
    resolver = Resolver(backends=[WebBackend(allow_insecure_loopback=True)])
    with pytest.raises(NotFound):
        resolver.resolve(did_text)


def test_web_resolution_unreachable_host():
    resolver = Resolver(
        backends=[WebBackend(allow_insecure_loopback=True, timeout=0.3)]
    )
    with pytest.raises(FetchFailed):
        resolver.resolve("did:web:127.0.0.1%3A1")  # nothing listens on port 1


def test_redirects_are_refused(json_server):
    did_text = f"did:web:127.0.0.1%3A{json_server.port}"
    moved = json_server.url("/moved.json")
    document = listing_shaped_document(did_text, generate_keypair().public_key)
    json_server.set("/moved.json", document)
    json_server.set("/.well-known/did.json", {}, status=302, headers={"Location": moved})
    json_server.set("/registry", {}, status=302, headers={"Location": moved})
    resolver = Resolver(backends=[WebBackend(allow_insecure_loopback=True)])
    with pytest.raises(FetchFailed, match="302"):
        resolver.resolve(did_text)
    with pytest.raises(FetchFailed, match="302"):
        HttpRegistrySource(allow_insecure_loopback=True).fetch(json_server.url("/registry"))
    assert json_server.request_count == 2  # neither fetch followed its redirect


def test_plain_http_only_to_loopback_when_enabled():
    with pytest.raises(FetchFailed, match="plain http"):
        HttpRegistrySource(allow_insecure_loopback=True).fetch("http://example.com/registry")
    with pytest.raises(FetchFailed, match="plain http"):
        HttpRegistrySource().fetch("http://127.0.0.1:1/registry")


def test_web_backend_requires_https_unless_loopback_test_mode():
    strict = WebBackend(allow_insecure_loopback=False)
    assert strict._url(parse_did("did:web:127.0.0.1%3A8080")).startswith("https://")
    permissive = WebBackend(allow_insecure_loopback=True)
    assert permissive._url(parse_did("did:web:127.0.0.1%3A8080")).startswith("http://")
    # Never plain http to a non-loopback host, even in test mode.
    assert permissive._url(parse_did("did:web:example.com")).startswith("https://")


def test_directory_backend_reads_bundle(tmp_path):
    did, document = generate_did_key(generate_keypair().public_key)
    (tmp_path / "dids.json").write_text(json.dumps({did.text: document.to_json()}))
    resolver = Resolver(backends=[DirectoryBackend(tmp_path)])
    assert resolver.resolve(did).id == did.text
    assert resolver.network_fetch_count == 0
    with pytest.raises(UnsupportedMethod):
        resolver.resolve("did:web:not-in-bundle.example")


def test_directory_backend_requires_index(tmp_path):
    with pytest.raises(FetchFailed):
        DirectoryBackend(tmp_path / "nothing-here")
