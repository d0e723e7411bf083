"""DID parsing, did:web URL mapping, did:key encoding, document validation."""

import pytest

from datacred.base58 import b58encode
from datacred.did import (
    Did,
    DidDocument,
    VerificationMethod,
    did_key_public_key,
    did_web_url,
    generate_did_key,
    parse_did,
)
from datacred.errors import BadKey, DocumentInvalid, MalformedDid, WrongMethod
from datacred.keys import generate_keypair

# Computed once from the encoding rule (0xed01 multicodec prefix + base58,
# "z" multibase marker) with an independent script; frozen as regression vectors.
DID_KEY_FOR_BYTES_0_TO_31 = "did:key:z6MkeTGwHmLmuCmgg4ABYhzWVh6ZX7hTwWt8gguAretUfc9c"
DID_KEY_FOR_ZERO_KEY = "did:key:z6MkeTG3bFFSLYVU7VqhgZxqr6YzpaGrQtFMh1uvqGy1vDnP"


def test_parse_web_did():
    did = parse_did("did:web:uniofscience.com")
    assert did.method == "web"
    assert did.method_specific_id == "uniofscience.com"
    assert did.text == "did:web:uniofscience.com"


@pytest.mark.parametrize(
    "bad",
    [
        "did:web:",           # empty method-specific id
        "urn:web:x",          # wrong scheme
        "did::x",             # empty method
        "did:WEB:x",          # method must be lowercase
        "did:web",            # no method-specific id at all
        "did:web:a:",         # trailing empty segment
        "did:web:spa ce",     # illegal character
        "",
        "did:web:example.com\n",  # a trailing newline, in the last segment
        "did:web\n:x",            # or in the method
        "did:web:a\n:b",          # or in an inner segment
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(MalformedDid):
        parse_did(bad)


def test_parse_roundtrip_on_generated_dids():
    for _ in range(5):
        did, _ = generate_did_key(generate_keypair().public_key)
        assert parse_did(did.text) == did


def test_web_url_well_known():
    assert (
        did_web_url(parse_did("did:web:uniofscience.com"))
        == "https://uniofscience.com/.well-known/did.json"
    )


def test_web_url_with_path():
    assert (
        did_web_url(parse_did("did:web:example.com:datasets:ds1"))
        == "https://example.com/datasets/ds1/did.json"
    )


def test_web_url_with_port():
    assert (
        did_web_url(parse_did("did:web:127.0.0.1%3A8443"))
        == "https://127.0.0.1:8443/.well-known/did.json"
    )
    # Percent-encoding is case-insensitive (RFC 3986 section 2.1).
    assert (
        did_web_url(parse_did("did:web:localhost%3a8443"))
        == "https://localhost:8443/.well-known/did.json"
    )
    assert (
        did_web_url(parse_did("did:web:localhost%3a8443:datasets:ds1"))
        == "https://localhost:8443/datasets/ds1/did.json"
    )


def test_web_url_wrong_method():
    did, _ = generate_did_key(generate_keypair().public_key)
    with pytest.raises(WrongMethod):
        did_web_url(did)


def test_did_key_regression_vectors():
    did, _ = generate_did_key(bytes(range(32)))
    assert did.text == DID_KEY_FOR_BYTES_0_TO_31
    did_zero, _ = generate_did_key(bytes(32))
    assert did_zero.text == DID_KEY_FOR_ZERO_KEY


def test_did_key_roundtrip_and_injectivity():
    a = generate_keypair().public_key
    b = generate_keypair().public_key
    did_a, doc_a = generate_did_key(a)
    did_b, _ = generate_did_key(b)
    assert did_a != did_b
    assert did_key_public_key(did_a) == a
    doc_a.validate()
    assert doc_a.authentication[0].public_key_bytes() == a


def test_did_key_bad_input():
    with pytest.raises(BadKey):
        generate_did_key(b"\x00" * 31)
    with pytest.raises(MalformedDid):
        did_key_public_key(Did(method="key", method_specific_id="not-multibase"))


def test_document_listing_shape_roundtrip():
    # The shape used on the wire: @context, id, inline authentication keys.
    key = generate_keypair().public_key
    obj = {
        "@context": "https://w3id.org/did/v1",
        "id": "did:web:uniofscience.com",
        "authentication": [
            {
                "id": "did:web:uniofscience.com",
                "type": "Ed25519VerificationKey2018",
                "controller": "did:web:uniofscience.com",
                "publicKeyBase58": b58encode(key),
            }
        ],
    }
    document = DidDocument.from_json(obj)
    assert document.id == "did:web:uniofscience.com"
    assert document.to_json() == obj
    assert document.find_key("did:web:uniofscience.com")[0] == key


def test_document_rejects_foreign_controller():
    key = b58encode(generate_keypair().public_key)
    obj = {
        "@context": "https://w3id.org/did/v1",
        "id": "did:web:a.example",
        "authentication": [
            {
                "id": "did:web:a.example",
                "type": "Ed25519VerificationKey2018",
                "controller": "did:web:b.example",
                "publicKeyBase58": key,
            }
        ],
    }
    with pytest.raises(DocumentInvalid):
        DidDocument.from_json(obj)


def test_document_rejects_short_key():
    obj = {
        "@context": "https://w3id.org/did/v1",
        "id": "did:web:a.example",
        "authentication": [
            {
                "id": "did:web:a.example",
                "type": "Ed25519VerificationKey2018",
                "controller": "did:web:a.example",
                "publicKeyBase58": b58encode(b"\x01\x02"),
            }
        ],
    }
    with pytest.raises(DocumentInvalid):
        DidDocument.from_json(obj)


@pytest.mark.parametrize("key", [5, None, list("11111111111111111111111111111111")])
def test_document_rejects_a_key_that_is_not_a_string(key):
    obj = {
        "id": "did:web:a.example",
        "authentication": [
            {
                "id": "did:web:a.example",
                "type": "Ed25519VerificationKey2018",
                "controller": "did:web:a.example",
                "publicKeyBase58": key,
            }
        ],
    }
    with pytest.raises(DocumentInvalid, match="bad key encoding"):
        DidDocument.from_json(obj)


@pytest.mark.parametrize("listing", ["authentication", "assertionMethod"])
@pytest.mark.parametrize("entry", [None, "did:web:a.example#key-1", 5, []],
                         ids=["null", "string", "number", "list"])
def test_document_rejects_a_method_that_is_not_an_object(listing, entry):
    obj = {"id": "did:web:a.example", "authentication": [], listing: [entry]}
    with pytest.raises(DocumentInvalid, match="verification method must be an object"):
        DidDocument.from_json(obj)


def test_document_requires_a_key():
    with pytest.raises(DocumentInvalid):
        DidDocument(id="did:web:a.example", authentication=[]).validate()


def test_find_key_with_fragment_and_assertion_method():
    key = generate_keypair().public_key
    base = "did:web:a.example"
    method = VerificationMethod(
        id=f"{base}#keys-1", controller=base, public_key_base58=b58encode(key)
    )
    document = DidDocument(id=base, authentication=[method])
    document.validate()
    assert document.find_key(f"{base}#keys-1")[0] == key
    # bare DID falls back to the first authentication key
    assert document.find_key(base)[0] == key
    assert document.find_key("did:web:other.example") is None

    assertion = DidDocument(id=base, authentication=[], assertion_method=[method])
    assertion.validate()
    located = assertion.find_key(f"{base}#keys-1")
    assert located == (key, "assertionMethod")
