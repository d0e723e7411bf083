"""Verification without rewriting: a signed document keeps the JSON it was read or signed
as, and a did:key document is derived from the key its DID encodes.

Counted here: an offline verify and verify-presentation write no credential or
presentation from its fields (each was written again before every signature check), and
a did:key resolve parses no JSON and decodes only the DID's own key.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from datacred import did as did_module
from datacred.base58 import b58encode
from datacred.cli import main
from datacred.credential import (
    DATASET_PROVENANCE_V1,
    CredentialStatus,
    VerifiableCredential,
    issue_credential,
    new_registry,
)
from datacred.did import DID_CONTEXT, KEY_TYPE, DidDocument, generate_did_key, one_key_document
from datacred.did import parse_did
from datacred.keys import generate_keypair
from datacred.presentation import VerifiablePresentation, create_presentation
from datacred.resolver import KeyBackend, Resolver

ISSUER = "did:web:publisher.example"
ISSUER_KEY = generate_keypair(b"\x06" * 32)
HOLDER_KEY = generate_keypair(b"\x07" * 32)
HOLDER, _ = generate_did_key(HOLDER_KEY.public_key)
CHALLENGE = "c" * 32


@pytest.fixture
def bundle(tmp_path):
    """An offline bundle for a did:web issuer's credential, with a registry, and the
    credential's did:key subject's presentation of it."""
    status = CredentialStatus("https://publisher.example/registry", "s-1")
    vc = issue_credential(ISSUER_KEY, ISSUER, HOLDER, DATASET_PROVENANCE_V1,
                          {"Hash of Data": "ab" * 32, "Data Ethically Sourced": "YES"},
                          status=status)
    files = {
        "credential.json": vc.to_json(),
        "presentation.json": create_presentation(HOLDER_KEY, HOLDER, [vc], CHALLENGE).to_json(),
        "dids.json": {ISSUER: one_key_document(parse_did(ISSUER), ISSUER_KEY.public_key)
                      .to_json()},
        "registry.json": new_registry(ISSUER, ISSUER_KEY).to_json(),
    }
    for name, document in files.items():
        (tmp_path / name).write_text(json.dumps(document), encoding="utf-8")
    return tmp_path


def writes(monkeypatch, *classes) -> list[str]:
    """The class names of the to_json calls on these classes that write a document from
    its fields: the calls on a value that keeps no JSON."""
    written = []
    for cls in classes:
        def counted(self, to_json=cls.to_json):
            if getattr(self, "_json", None) is None:
                written.append(type(self).__name__)
            return to_json(self)

        monkeypatch.setattr(cls, "to_json", counted)
    return written


def test_an_offline_verify_writes_no_credential_or_presentation(bundle, monkeypatch):
    """Three credential writes and one presentation write, each before a signature check."""
    written = writes(monkeypatch, VerifiableCredential, VerifiablePresentation)
    offline = ["--offline-bundle", str(bundle), "--json"]
    for args in (["verify", str(bundle / "credential.json"), *offline],
                 ["verify-presentation", str(bundle / "presentation.json"),
                  "--challenge", CHALLENGE, *offline]):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["overall"] == "Valid"
    assert written == []


def test_a_did_key_resolve_parses_no_json_and_decodes_only_the_did(monkeypatch):
    """The document was written as JSON and parsed back, which decoded its key again."""
    parsed, decoded = [], []
    from_json, b58decode = DidDocument.from_json, did_module.b58decode
    monkeypatch.setattr(DidDocument, "from_json",
                        lambda obj: (parsed.append(obj), from_json(obj))[1])
    monkeypatch.setattr(did_module, "b58decode",
                        lambda text: (decoded.append(text), b58decode(text))[1])
    document = Resolver(backends=[KeyBackend()]).resolve(HOLDER.text)
    assert document.find_key(HOLDER.text) == (HOLDER_KEY.public_key, "authentication")
    assert (parsed, decoded) == ([], [HOLDER.method_specific_id[1:]])


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.binary(min_size=32, max_size=32))
def test_a_derived_did_key_document_equals_the_parsed_one(key):
    did, _ = generate_did_key(key)
    written = {"@context": DID_CONTEXT, "id": did.text,
               "authentication": [{"id": did.text, "type": KEY_TYPE, "controller": did.text,
                                   "publicKeyBase58": b58encode(key)}]}
    derived, parsed = KeyBackend().fetch(did), DidDocument.from_json(written)
    assert derived == parsed
    assert derived.to_json() == written
    assert derived.find_key(did.text) == parsed.find_key(did.text) == (key, "authentication")
