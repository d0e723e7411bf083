"""Untrusted JSON: one changed node of a signed document is refused with a DatacredError
or parsed into exactly what it was.

The seed corpus is a valid signed credential, presentation, registry and envelope, and a
did:web document, all built from fixed seeds. A mutation deletes one node below the root
or replaces it with one of REPLACEMENTS. Every entry point then gives a report or raises a
DatacredError (the CLI exits 0, 1 or 2 with no traceback), and a signed document that
from_json accepts has a to_json equal to its input. A text-level mutation writes one
member twice, a forged value first, and parse_json refuses that text. A third adds one
member to one object: a signed document is refused or reads it, and never verifies.
"""

from __future__ import annotations

import copy
import functools
import json
import operator

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from datacred.agent.envelopes import MessageEnvelope, verify_envelope
from datacred.agent.state import AgentState
from datacred.cli import main
from datacred.credential import (
    CREDENTIAL_CONTEXT,
    DATASET_PROVENANCE_V1,
    CredentialSchema,
    CredentialStatus,
    RevocationRegistry,
    StaticRegistrySource,
    VerifiableCredential,
    verify_credential,
)
from datacred.did import DidDocument, generate_did_key, one_key_document, parse_did
from datacred.errors import DatacredError, DocumentInvalid, SignatureInvalid
from datacred.fingerprint import DatasetFingerprint, ManifestEntry, fingerprint_bytes
from datacred.jsonfile import parse_json
from datacred.keys import generate_keypair
from datacred.presentation import VerifiablePresentation, verify_presentation
from datacred.proofs import ASSERTION, AUTHENTICATION, Proof, attach_proof, parse_timestamp
from datacred.resolver import KeyBackend, Resolver, StaticBackend

ISSUER = "did:web:issuer.example"
REGISTRY_URL = "https://issuer.example/registry"
CREATED = "2024-01-01T00:00:00Z"
CHALLENGE = "c" * 32
AT = parse_timestamp("2025-01-01T00:00:00Z")
DELETE = object()
REPLACEMENTS = [DELETE, None, True, 0, 5, 1.5, "ab", "\ud800", [], ["x"], {}, {"a": "b"}]
REPEATED = "\x00repeated"  # a member name no corpus document holds
ADDED = "evidence"  # a member name no corpus document holds, and a real VC member

ISSUER_KEY = generate_keypair(bytes([1]) * 32)
HOLDER_KEY = generate_keypair(bytes([2]) * 32)
HOLDER = generate_did_key(HOLDER_KEY.public_key)[0].text
DID_DOCUMENT = one_key_document(parse_did(ISSUER), ISSUER_KEY.public_key).to_json()
CREDENTIAL = attach_proof({
    "@context": [CREDENTIAL_CONTEXT],
    "id": "urn:uuid:00000000-0000-4000-8000-000000000001",
    "type": ["VerifiableCredential"],
    "issuer": ISSUER,
    "issuanceDate": CREATED,
    "expirationDate": "2030-01-01T00:00:00Z",
    "credentialSubject": {"id": HOLDER, "Hash of Data": fingerprint_bytes(b"d").digest,
                          "Data Ethically Sourced": "YES"},
    "credentialSchema": DATASET_PROVENANCE_V1.to_json(),
    "credentialStatus": {"registry": REGISTRY_URL, "statusId": "s-1"},
}, ISSUER_KEY, ISSUER, ASSERTION, created=CREATED)
PRESENTATION = attach_proof(
    VerifiablePresentation(HOLDER, [VerifiableCredential.from_json(CREDENTIAL)]).to_json(),
    HOLDER_KEY, HOLDER, AUTHENTICATION, challenge=CHALLENGE, created=CREATED,
)
REGISTRY = attach_proof({"issuer": ISSUER, "revoked": ["s-0", "s-9"], "updated": CREATED},
                        ISSUER_KEY, ISSUER, ASSERTION, created=CREATED)
ENVELOPE = attach_proof(
    MessageEnvelope("00000000-0000-4000-8000-000000000002", "datacred/1.0/proof-request",
                    HOLDER, ISSUER, CREATED, {"requestedAttributes": ["Hash of Data"],
                                              "challenge": CHALLENGE}).to_json(),
    HOLDER_KEY, HOLDER, AUTHENTICATION, created=CREATED,
)
CORPUS = {"credential": CREDENTIAL, "presentation": PRESENTATION, "registry": REGISTRY,
          "envelope": ENVELOPE, "did": DID_DOCUMENT}


def paths(value, prefix: tuple = ()) -> list[tuple]:
    """The path of every node below the root of a JSON value."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return []
    return [path for key, child in children
            for path in [prefix + (key,), *paths(child, prefix + (key,))]]


def mutated(document: dict, path: tuple, replacement) -> dict:
    out = copy.deepcopy(document)
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    if replacement is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(replacement)
    return out


def repeated(document: dict, path: tuple, value) -> str:
    """document's JSON text with the member at path written twice: value first, then its
    own value, as a forger would put it ahead of the signed one."""
    out = copy.deepcopy(document)
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    members = list(parent.items())
    parent.clear()
    for name, item in members:
        if name == path[-1]:
            parent[REPEATED] = value
        parent[name] = item
    return json.dumps(out).replace(json.dumps(REPEATED), json.dumps(path[-1]))


def objects(document: dict) -> list[tuple]:
    """The path of every object in document, the root's () first."""
    return [path for path in [(), *paths(document)]
            if isinstance(functools.reduce(operator.getitem, path, document), dict)]


def added(document: dict, path: tuple) -> dict:
    """document with the member ADDED put into the object at path."""
    out = copy.deepcopy(document)
    functools.reduce(operator.getitem, path, out)[ADDED] = "x"
    return out


def mutations(kind: str):
    return st.tuples(st.sampled_from(paths(CORPUS[kind])), st.sampled_from(REPLACEMENTS))


def documents(**changed) -> tuple[dict, dict, dict]:
    """(credential, registry, DID document) with the changed ones in place of the corpus's."""
    return (changed.get("credential", CREDENTIAL), changed.get("registry", REGISTRY),
            changed.get("did", DID_DOCUMENT))


def outcome(call):
    """call(), or the DatacredError it raised; any other exception fails the test."""
    try:
        return call()
    except DatacredError as exc:
        return exc


def verify(credential: dict, registry: dict, did: dict):
    """verify_credential's report on credential, or the DatacredError that refused it."""
    resolver = Resolver([KeyBackend(), StaticBackend({ISSUER: did})])
    source = StaticRegistrySource({REGISTRY_URL: registry})
    return outcome(lambda: verify_credential(VerifiableCredential.from_json(credential), resolver,
                                             at=AT, registry_source=source))


REFUSAL = {MessageEnvelope.from_json: SignatureInvalid}  # a wire code; else DocumentInvalid


def parsed(parse, document: dict):
    """parse(document), or None when parse refuses it with its one class: SignatureInvalid
    for an envelope, DocumentInvalid for every other document. A document parse accepts
    must come back from its to_json unchanged."""
    try:
        value = parse(document)
    except DatacredError as exc:
        assert type(exc) is REFUSAL.get(parse, DocumentInvalid), repr(exc)
        return None
    assert value.to_json() == document
    return value


def test_the_corpus_verifies():
    assert verify(*documents()).valid
    vp = VerifiablePresentation.from_json(PRESENTATION)
    assert verify_presentation(vp, CHALLENGE, Resolver([KeyBackend(), StaticBackend(
        {ISSUER: DID_DOCUMENT})]), at=AT, registry_source=StaticRegistrySource(
        {REGISTRY_URL: REGISTRY})).valid
    assert verify_envelope(ENVELOPE, Resolver([KeyBackend()]), ISSUER).sender == HOLDER
    assert len(paths(CREDENTIAL)) > 30


PROPERTY = settings(derandomize=True, deadline=None, max_examples=600, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(mutations("credential"))
def test_a_changed_credential_is_refused_or_parsed_as_it_is(mutation):
    credential = mutated(CREDENTIAL, *mutation)
    parsed(VerifiableCredential.from_json, credential)
    verify(*documents(credential=credential))


@PROPERTY
@given(mutations("presentation"))
def test_a_changed_presentation_is_refused_or_parsed_as_it_is(mutation):
    vp = parsed(VerifiablePresentation.from_json, mutated(PRESENTATION, *mutation))
    if vp is not None:
        resolver = Resolver([KeyBackend(), StaticBackend({ISSUER: DID_DOCUMENT})])
        source = StaticRegistrySource({REGISTRY_URL: REGISTRY})
        outcome(lambda: verify_presentation(vp, CHALLENGE, resolver, at=AT,
                                            registry_source=source))


@PROPERTY
@given(mutations("registry"))
def test_a_changed_registry_is_refused_or_parsed_as_it_is(mutation):
    registry = mutated(REGISTRY, *mutation)
    parsed(RevocationRegistry.from_json, registry)
    verify(*documents(registry=registry))


@PROPERTY
@given(mutations("envelope"))
def test_a_changed_envelope_is_refused_or_parsed_as_it_is(mutation):
    envelope = mutated(ENVELOPE, *mutation)
    parsed(MessageEnvelope.from_json, envelope)
    outcome(lambda: verify_envelope(envelope, Resolver([KeyBackend()]), ISSUER))


@PROPERTY
@given(mutations("did"))
def test_a_changed_did_document_is_refused_or_resolved(mutation):
    did = mutated(DID_DOCUMENT, *mutation)
    outcome(lambda: DidDocument.from_json(did))
    outcome(lambda: Resolver([StaticBackend({ISSUER: did})]).resolve(ISSUER))
    verify(*documents(did=did))


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    return tmp_path_factory.mktemp("bundle")


@settings(derandomize=True, deadline=None, max_examples=40, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["credential", "registry", "did"]).flatmap(
    lambda kind: st.tuples(st.just(kind), mutations(kind))))
def test_offline_verify_of_a_changed_bundle_exits_0_1_or_2(bundle, change):
    kind, mutation = change
    credential, registry, did = documents(**{kind: mutated(CORPUS[kind], *mutation)})
    (bundle / "credential.json").write_text(json.dumps(credential))
    (bundle / "registry.json").write_text(json.dumps(registry))
    (bundle / "dids.json").write_text(json.dumps({ISSUER: did}))
    result = CliRunner().invoke(main, ["verify", str(bundle / "credential.json"),
                                       "--offline-bundle", str(bundle), "--json"])
    assert not isinstance(result.exception, Exception), result.exception  # an exit, no traceback
    assert result.exit_code in (0, 1, 2)


@pytest.mark.parametrize("kind", sorted(CORPUS))
def test_a_member_repeated_with_another_value_is_refused(kind):
    """json.loads kept the last of two members of one name; a reader that keeps the first
    would see another document under the same signature."""
    members = [path for path in paths(CORPUS[kind]) if isinstance(path[-1], str)]
    assert members
    for path in members:
        text = repeated(CORPUS[kind], path, "forged")
        assert json.loads(text) == CORPUS[kind]
        with pytest.raises(DocumentInvalid, match=f"^{kind}.json: invalid JSON: member "):
            parse_json(text.encode(), f"{kind}.json")


PARSERS = {"credential": VerifiableCredential.from_json, "presentation":
           VerifiablePresentation.from_json, "registry": RevocationRegistry.from_json,
           "envelope": MessageEnvelope.from_json}


def verified(kind: str, document: dict) -> bool:
    """Whether the signed document of this kind verifies, in place of the corpus's."""
    if kind == "envelope":
        return not isinstance(outcome(lambda: verify_envelope(document, Resolver([KeyBackend()]),
                                                              ISSUER)), DatacredError)
    if kind == "presentation":
        resolver = Resolver([KeyBackend(), StaticBackend({ISSUER: DID_DOCUMENT})])
        source = StaticRegistrySource({REGISTRY_URL: REGISTRY})
        report = outcome(lambda: verify_presentation(
            VerifiablePresentation.from_json(document), CHALLENGE, resolver, at=AT,
            registry_source=source))
    else:
        report = verify(*documents(**{kind: document}))
    return not isinstance(report, DatacredError) and report.valid


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_a_member_added_to_any_object_of_a_signed_document_is_refused_or_read(kind):
    """Each from_json used to drop a member it did not read, and the signature was then
    checked on the document without it: a credential, a proof or a registry with an added
    member verified."""
    for path in objects(CORPUS[kind]):
        document = added(CORPUS[kind], path)
        parsed(PARSERS[kind], document)
        assert not verified(kind, document), path


def test_a_member_added_to_a_did_document_is_ignored():
    """A DID document is not signed, so it stays lenient."""
    for path in objects(DID_DOCUMENT):
        assert verify(*documents(did=added(DID_DOCUMENT, path))).valid, path


@pytest.mark.parametrize("kind, path, code, reason", [
    ("credential", (), 2, "DocumentInvalid: {file}: malformed credential: unknown member"),
    ("credential", ("proof",), 2, "DocumentInvalid: {file}: malformed proof: unknown member"),
    ("registry", (), 1, "RegistryUnavailable"),
], ids=["credential", "credential-proof", "registry"])
def test_offline_verify_of_a_document_with_an_added_member_is_not_valid(tmp_path, kind, path,
                                                                        code, reason):
    """Each verified Valid and exited 0."""
    credential, registry, did = documents(**{kind: added(CORPUS[kind], path)})
    (tmp_path / "credential.json").write_text(json.dumps(credential))
    (tmp_path / "registry.json").write_text(json.dumps(registry))
    (tmp_path / "dids.json").write_text(json.dumps({ISSUER: did}))
    result = CliRunner().invoke(main, ["verify", str(tmp_path / "credential.json"),
                                       "--offline-bundle", str(tmp_path)])
    assert result.exit_code == code, result.output
    assert reason.format(file=tmp_path / "credential.json") in result.output
    assert "unknown member 'evidence'" in result.output


# --- the mis-parses the shape rule removed: each of these tests failed before it ---

def resigned(document: dict, key, signer: str, purpose: str, **changed) -> dict:
    """document with these members changed, then signed again by its signer."""
    document = {**document, **changed}
    challenge = document.pop("proof").get("challenge")
    return attach_proof(document, key, signer, purpose, challenge=challenge, created=CREATED)


@pytest.mark.parametrize("changed", [
    {"type": "VerifiableCredential"},
    {"@context": CREDENTIAL_CONTEXT},
    {"@context": {CREDENTIAL_CONTEXT: "v1"}},
], ids=["string-type", "string-context", "object-context"])
def test_a_signed_credential_whose_type_or_context_is_no_list_is_malformed(tmp_path, changed):
    """It was split into characters or keys, so its genuine signature read as tampered:
    offline verify exited 1 with SignatureMismatch."""
    credential = resigned(CREDENTIAL, ISSUER_KEY, ISSUER, ASSERTION, **changed)
    with pytest.raises(DatacredError, match="malformed credential"):
        VerifiableCredential.from_json(credential)
    (tmp_path / "credential.json").write_text(json.dumps(credential))
    (tmp_path / "registry.json").write_text(json.dumps(REGISTRY))
    (tmp_path / "dids.json").write_text(json.dumps({ISSUER: DID_DOCUMENT}))
    result = CliRunner().invoke(main, ["verify", str(tmp_path / "credential.json"),
                                       "--offline-bundle", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "malformed credential" in result.output


@pytest.mark.parametrize("changed", [
    {"type": "VerifiablePresentation"},
    {"@context": CREDENTIAL_CONTEXT},
    {"verifiableCredential": {}},
], ids=["string-type", "string-context", "object-credentials"])
def test_a_signed_presentation_whose_lists_are_no_lists_is_malformed(changed):
    """Each used to be read as a list: of characters, or no credentials at all."""
    presentation = resigned(PRESENTATION, HOLDER_KEY, HOLDER, AUTHENTICATION, **changed)
    with pytest.raises(DatacredError, match="malformed presentation"):
        VerifiablePresentation.from_json(presentation)


@pytest.mark.parametrize("falsy", [{}, 0, [], None], ids=["object", "zero", "list", "null"])
@pytest.mark.parametrize("kind", ["presentation", "registry", "envelope"])
def test_a_present_falsy_proof_is_refused_not_absent(kind, falsy):
    """A falsy proof used to parse as none, and the document then verified as one that
    carried no proof."""
    document = {**CORPUS[kind], "proof": falsy}
    parse = {"presentation": VerifiablePresentation.from_json,
             "registry": RevocationRegistry.from_json, "envelope": MessageEnvelope.from_json}
    with pytest.raises(DatacredError):
        parse[kind](document)


def test_a_null_challenge_is_refused_not_absent():
    """It used to parse as no challenge, so to_json left out a member the holder signed."""
    with pytest.raises(DocumentInvalid, match="^malformed proof: fields must be strings"):
        Proof.from_json({**PRESENTATION["proof"], "challenge": None})


TREE = {"algorithm": "sha256", "digest": "0" * 64, "form": "tree",
        "manifest": [{"path": "a.csv", "digest": "1" * 64}]}
DOCUMENTS = {  # kind: (its parser, a document it reads, the document its refusal names)
    "credential": (VerifiableCredential.from_json, CREDENTIAL, "credential"),
    "credentialStatus": (CredentialStatus.from_json, CREDENTIAL["credentialStatus"],
                         "credential"),
    "schema": (CredentialSchema.from_json, CREDENTIAL["credentialSchema"], "schema"),
    "registry": (RevocationRegistry.from_json, REGISTRY, "registry"),
    "presentation": (VerifiablePresentation.from_json, PRESENTATION, "presentation"),
    "proof": (Proof.from_json, PRESENTATION["proof"], "proof"),
    "fingerprint": (DatasetFingerprint.from_json, TREE, "fingerprint"),
    "manifestEntry": (ManifestEntry.from_json, TREE["manifest"][0], "fingerprint"),
}
HASH_ATTRIBUTE = DATASET_PROVENANCE_V1.attributes[0].to_json()


@pytest.mark.parametrize("kind, path, value, message", [
    ("credential", ("issuer",), DELETE, "missing field 'issuer'"),
    ("credential", ("issuer",), 5, "fields must be strings: 'issuer' is an integer"),
    ("credential", (ADDED,), "x", f"unknown member {ADDED!r}"),
    ("credential", ("type",), ["VerifiablePresentation"],
     "type ['VerifiablePresentation'] does not include VerifiableCredential"),
    ("credential", ("credentialStatus", "statusId"), DELETE, "missing field 'statusId'"),
    ("credentialStatus", ("statusId",), DELETE, "missing field 'statusId'"),
    ("credentialStatus", ("registry",), 5, "fields must be strings: 'registry' is an integer"),
    ("credentialStatus", (ADDED,), "x", f"unknown member {ADDED!r}"),
    ("schema", ("name",), DELETE, "missing field 'name'"),
    ("schema", ("attributes",), "ab", "fields must be lists: 'attributes' is a string"),
    ("schema", (ADDED,), "x", f"unknown member {ADDED!r}"),
    ("schema", ("attributes", 0, "kind"), "ab",
     "schema dataset-provenance-v1: unknown kind 'ab' for 'Hash of Data'"),
    ("schema", ("attributes",), [HASH_ATTRIBUTE, HASH_ATTRIBUTE],
     "schema dataset-provenance-v1: duplicate attribute names"),
    ("schema", ("attributes",), [], "schema dataset-provenance-v1: needs at least one attribute"),
    ("registry", ("revoked",), DELETE, "missing field 'revoked'"),
    ("registry", ("revoked",), ["s-0", 5], "fields must be lists of strings: 'revoked' holds "
                                           "an integer"),
    ("registry", (ADDED,), "x", f"unknown member {ADDED!r}"),
    ("presentation", ("holder",), DELETE, "missing field 'holder'"),
    ("presentation", ("verifiableCredential",), {},
     "fields must be lists: 'verifiableCredential' is an object"),
    ("presentation", (ADDED,), "x", f"unknown member {ADDED!r}"),
    ("presentation", ("type",), [],
     "type [] does not include VerifiablePresentation"),
    ("proof", ("signatureValue",), DELETE, "missing field 'signatureValue'"),
    ("proof", ("challenge",), None, "fields must be strings: 'challenge' is null"),
    ("proof", (ADDED,), "x", f"unknown member {ADDED!r}"),
    ("fingerprint", ("digest",), DELETE, "missing field 'digest'"),
    ("fingerprint", ("form",), 5, "fields must be strings: 'form' is an integer"),
    ("fingerprint", ("manifest", 0), "a.csv", "must be an object, not a string"),
    ("manifestEntry", ("path",), DELETE, "missing field 'path'"),
    ("manifestEntry", ("digest",), [], "fields must be strings: 'digest' is a list"),
], ids=["credential-missing", "credential-mistyped", "credential-unknown", "credential-type",
        "credential-status-missing", "credentialStatus-missing", "credentialStatus-mistyped",
        "credentialStatus-unknown", "schema-missing", "schema-mistyped", "schema-unknown",
        "schema-unknown-kind", "schema-duplicate-names", "schema-no-attributes",
        "registry-missing", "registry-mistyped", "registry-unknown", "presentation-missing",
        "presentation-mistyped", "presentation-unknown", "presentation-type", "proof-missing",
        "proof-mistyped", "proof-unknown", "fingerprint-missing", "fingerprint-mistyped",
        "fingerprint-entry-mistyped", "manifestEntry-missing", "manifestEntry-mistyped"])
def test_every_parser_refuses_a_malformed_document_with_one_class(kind, path, value, message):
    """A missing or mistyped field of a credential, presentation, registry or fingerprint was
    a bare DatacredError, of a proof MalformedSignature, and a schema's refused vocabulary
    SchemaMismatch, so no caller could catch a malformed document apart from a failed check."""
    parse, document, name = DOCUMENTS[kind]
    with pytest.raises(DocumentInvalid) as refused:
        parse(mutated(document, path, value))
    assert type(refused.value) is DocumentInvalid
    assert str(refused.value) == f"malformed {name}: {message}"


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_every_parser_refuses_a_document_that_is_no_object(kind):
    """A fingerprint, schema, credential status, proof or presentation given a list raised
    AttributeError ('list' object has no attribute 'get')."""
    parse, _, name = DOCUMENTS[kind]
    with pytest.raises(DocumentInvalid) as refused:
        parse([])
    assert str(refused.value) == f"malformed {name}: must be an object, not a list"


def test_an_issuance_record_whose_credential_id_is_no_string_is_document_invalid(tmp_path):
    """A list as credentialId used to raise a bare TypeError (unhashable) from load."""
    state = AgentState(tmp_path / "agent.state.json")
    state.issued_path.write_bytes(b'{"credentialId": ["urn:uuid:1"], "statusId": null}\n')
    with pytest.raises(DocumentInvalid, match="line 1"):
        state.load()
