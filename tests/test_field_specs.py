"""Every document's from_json and to_json come from one field table (jsonfile.Field).

Properties over every table: a document from_json accepts is what its fields write back
(``written``, which leaves out the JSON a signed document keeps); a closed document
refuses an added member with exactly its own ``unknown member`` message; an open one
drops it and round-trips the rest. And a guard: no class in src/ writes from_json by
hand, and only jsonfile.py calls known_members.
"""

import ast
import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datacred.agent.config import AgentConfig, Policy
from datacred.agent.envelopes import PROOF_REQUEST, MessageEnvelope, build_envelope
from datacred.agent.service import _CONNECT, _ISSUE, _REQUEST_PROOF, _REVOKE
from datacred.agent.state import Connection
from datacred.credential import (
    DATASET_PROVENANCE_V1,
    CredentialSchema,
    CredentialStatus,
    RevocationRegistry,
    SchemaAttribute,
    VerifiableCredential,
    issue_credential,
    new_registry,
)
from datacred.did import DidDocument, VerificationMethod, generate_did_key
from datacred.errors import BadRequest, DatacredError, DocumentInvalid, SignatureInvalid
from datacred.fingerprint import DatasetFingerprint, ManifestEntry
from datacred.jsonfile import NEVER
from datacred.keys import KeyPair, generate_keypair
from datacred.presentation import VerifiablePresentation, create_presentation
from datacred.proofs import Proof

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "datacred"
KEY = generate_keypair(bytes([7]) * 32)
DID, DID_DOCUMENT = generate_did_key(KEY.public_key)
CREDENTIAL = issue_credential(
    KEY, DID, DID, DATASET_PROVENANCE_V1,
    {"Hash of Data": "ab" * 32, "Data Ethically Sourced": "YES"},
    expiration_date="2099-01-01T00:00:00Z",
    status=CredentialStatus("https://issuer.example/registry", "s-1"))
PRESENTATION = create_presentation(KEY, DID, [CREDENTIAL], "c" * 32, domain=DID.text)
ENVELOPE = build_envelope(KEY, DID.text, DID.text, PROOF_REQUEST, {"challenge": "c"})
DOCUMENT = DidDocument(DID.text, DID_DOCUMENT.authentication, DID_DOCUMENT.authentication)
TREE = DatasetFingerprint("sha256", "0" * 64, "tree", (ManifestEntry("a.csv", "1" * 64),))

# kind: (its class, a document it reads, its refusal class and prefix; None: open)
SPECS = {
    "proof": (Proof, CREDENTIAL.proof.to_json(), (DocumentInvalid, "malformed proof: ")),
    "challengedProof": (Proof, PRESENTATION.proof.to_json(),
                        (DocumentInvalid, "malformed proof: ")),
    "schemaAttribute": (SchemaAttribute, DATASET_PROVENANCE_V1.attributes[0].to_json(),
                        (DocumentInvalid, "malformed schema: ")),
    "schema": (CredentialSchema, DATASET_PROVENANCE_V1.to_json(),
               (DocumentInvalid, "malformed schema: ")),
    "credentialStatus": (CredentialStatus, CREDENTIAL.status.to_json(),
                         (DocumentInvalid, "malformed credential: ")),
    "credential": (VerifiableCredential, CREDENTIAL.to_json(),
                   (DocumentInvalid, "malformed credential: ")),
    "registry": (RevocationRegistry, new_registry(DID, KEY).to_json(),
                 (DocumentInvalid, "malformed registry: ")),
    "presentation": (VerifiablePresentation, PRESENTATION.to_json(),
                     (DocumentInvalid, "malformed presentation: ")),
    "envelope": (MessageEnvelope, ENVELOPE, (SignatureInvalid, "malformed envelope: ")),
    "verificationMethod": (VerificationMethod, DOCUMENT.authentication[0].to_json(), None),
    "didDocument": (DidDocument, DID_DOCUMENT.to_json(), None),
    "assertingDidDocument": (DidDocument, DOCUMENT.to_json(), None),
    "manifestEntry": (ManifestEntry, TREE.manifest[0].to_json(), None),
    "fingerprint": (DatasetFingerprint, TREE.to_json(), None),
    "keypair": (KeyPair, KEY.to_json(), None),
    "connection": (Connection, Connection("c-1", DID.text, DID.text, "http://x", 1.5).to_json(),
                   None),
    "policy": (Policy, Policy(False, ["urn:uuid:1"]).to_json(), None),
    "config": (AgentConfig, AgentConfig("user", "u.wallet").to_json(), None),
}
# route: (the parse of its admin body, a body it reads)
BODIES = {
    "/connect": (_CONNECT, {"did": DID.text, "endpoint": "http://x"}),
    "/issue": (_ISSUE, {"connectionId": "c", "claims": {}, "expirationDate": "",
                        "schema": DATASET_PROVENANCE_V1.to_json(), "withStatus": False}),
    "/request-proof": (_REQUEST_PROOF, {"target": DID.text, "attributes": ["Hash of Data"],
                                        "endpoint": "http://x"}),
    "/revoke": (_REVOKE, {"statusId": "s", "credentialId": "c"}),
}
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150, database=None)
# base58 digits, so a keypair's changed member decodes; no parser reads a string's text
TEXT = st.text("123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz", max_size=6)
VALUES = st.one_of(st.none(), st.booleans(), st.integers(), TEXT, st.lists(TEXT, max_size=2),
                   st.dictionaries(TEXT, TEXT, max_size=2))


def written(value) -> dict:
    """The JSON value's fields write: a copy made by dataclasses.replace keeps no JSON."""
    if not dataclasses.is_dataclass(value):
        return value.to_json()
    copy = dataclasses.replace(value)
    assert getattr(copy, "_json", None) is None
    return copy.to_json()


def names(kind: str) -> frozenset:
    return frozenset(field.name for field in SPECS[kind][0].json_fields)


@st.composite
def variants(draw, kind: str) -> dict:
    """SPECS[kind]'s document, each string or list of strings perhaps changed and each
    member that to_json can leave out perhaps left out."""
    cls, document, _ = SPECS[kind]
    omissible = {field.name for field in cls.json_fields
                 if field.optional and field.omit is not NEVER}
    out = {}
    for name, value in document.items():
        if name in omissible and draw(st.booleans()):
            continue
        if type(value) is str and draw(st.booleans()):
            value = draw(TEXT)
        elif type(value) is list and {type(v) for v in value} == {str} and draw(st.booleans()):
            value = draw(st.lists(TEXT, max_size=3))
        out[name] = value
    return out


def test_every_document_reads_its_own_json():
    for kind, (cls, document, _) in SPECS.items():
        assert written(cls.from_json(document)) == document, kind


def test_a_signed_document_keeps_the_json_it_was_read_from():
    for kind in ("credential", "registry", "presentation"):
        cls, document, _ = SPECS[kind]
        assert cls.from_json(document).to_json() is document, kind


@PROPERTY
@given(st.sampled_from(sorted(SPECS)).flatmap(lambda kind: st.tuples(st.just(kind),
                                                                   variants(kind))))
def test_an_accepted_document_comes_back_from_to_json_unchanged(change):
    kind, document = change
    try:
        value = SPECS[kind][0].from_json(document)
    except DatacredError:
        return
    assert written(value) == document


@PROPERTY
@given(st.data())
def test_a_closed_document_refuses_an_added_member_by_name(data):
    kind = data.draw(st.sampled_from(sorted([*(k for k in SPECS if SPECS[k][2]), *BODIES])))
    if kind in BODIES:
        (parse, document), (error, prefix) = BODIES[kind], (BadRequest, "")
        known = frozenset(document)
    else:
        (cls, document, (error, prefix)), known = SPECS[kind], names(kind)
        parse = cls.from_json
    name = data.draw(st.text(max_size=6).filter(lambda name: name not in known))
    parse(document)
    with pytest.raises(error) as refused:
        parse({**document, name: data.draw(VALUES)})
    assert type(refused.value) is error
    assert str(refused.value) == f"{prefix}unknown member {name!r}"


@PROPERTY
@given(st.data())
def test_an_open_document_drops_an_added_member(data):
    kind = data.draw(st.sampled_from(sorted(k for k in SPECS if SPECS[k][2] is None)))
    cls, document, _ = SPECS[kind]
    name = data.draw(st.text(max_size=6).filter(lambda name: name not in names(kind)))
    assert written(cls.from_json({**document, name: data.draw(VALUES)})) == document


def trees() -> dict:
    return {path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.rglob("*.py"))}


def test_no_class_writes_from_json_by_hand():
    """A hand-written parser restates its document's fields, and a member it forgets to
    refuse passes unchecked under the document's signature."""
    written = [(path, node.name) for path, tree in trees().items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and any(
                   isinstance(item, ast.FunctionDef) and item.name == "from_json"
                   for item in node.body)]
    assert written == []


def test_only_jsonfile_calls_known_members():
    callers = {path for path, tree in trees().items() for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "known_members"}
    assert callers == {"jsonfile.py"}
