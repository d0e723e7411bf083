"""Presentations: challenge freshness, subject binding, tamper completeness."""

import dataclasses
import json
import random

import pytest

from datacred.credential import (
    DATASET_PROVENANCE_V1,
    CredentialStatus,
    FileRegistrySource,
    issue_credential,
    new_registry,
    verify_credential,
)
from datacred.did import one_key_document, parse_did
from datacred.errors import EmptyChallenge, EmptyCredentials
from datacred.fingerprint import fingerprint_bytes
from datacred.presentation import (
    VerifiablePresentation,
    create_presentation,
    new_challenge,
    verify_presentation,
)
from datacred.keys import generate_keypair
from datacred.reports import CheckStatus
from datacred.resolver import DirectoryBackend, KeyBackend, Resolver
from docgen import leaf_paths, mutate_leaf, random_identity, random_presentation


def claims():
    return {
        "Hash of Data": fingerprint_bytes(b"d").digest,
        "Data Ethically Sourced": "YES",
    }


@pytest.fixture
def holder_credential(issuer, subject):
    issuer_key, issuer_did, _ = issuer
    subject_key, subject_did, _ = subject
    vc = issue_credential(issuer_key, issuer_did, subject_did, DATASET_PROVENANCE_V1, claims())
    return subject_key, subject_did, vc


def test_new_challenge_contract():
    a, b = new_challenge(), new_challenge()
    assert a != b
    assert len(a) == 32
    int(a, 16)  # parses as hex


def test_roundtrip(holder_credential, key_resolver):
    holder_key, holder_did, vc = holder_credential
    challenge = new_challenge()
    vp = create_presentation(holder_key, holder_did, [vc], challenge)
    report = verify_presentation(vp, challenge, key_resolver)
    assert report.valid
    assert report.holder == holder_did.text
    assert report.issuers == [vc.issuer]


def test_empty_inputs(holder_credential):
    holder_key, holder_did, vc = holder_credential
    with pytest.raises(EmptyCredentials):
        create_presentation(holder_key, holder_did, [], new_challenge())
    with pytest.raises(EmptyChallenge):
        create_presentation(holder_key, holder_did, [vc], "")


def test_replay_fails_for_every_other_challenge(holder_credential, key_resolver):
    holder_key, holder_did, vc = holder_credential
    challenge = new_challenge()
    vp = create_presentation(holder_key, holder_did, [vc], challenge)
    for _ in range(20):
        fresh = new_challenge()
        assert fresh != challenge
        report = verify_presentation(vp, fresh, key_resolver)
        assert not report.valid
        assert report.checks["challenge"].reason == "ChallengeMismatch"
    assert verify_presentation(vp, challenge, key_resolver).valid


def test_third_party_with_a_copy_is_rejected(holder_credential, key_resolver):
    _, _, vc = holder_credential
    thief_key, thief_did = random_identity(random.Random(99))
    challenge = new_challenge()
    vp = create_presentation(thief_key, thief_did, [vc], challenge)
    report = verify_presentation(vp, challenge, key_resolver)
    assert not report.valid
    assert report.checks["subjectBinding"].reason == "HolderNotSubject"
    # the thief's own signature is fine; the binding is what fails
    assert report.checks["holderSignature"].status is CheckStatus.VALID


def test_signature_by_key_not_in_holder_document(holder_credential, key_resolver):
    holder_key, holder_did, vc = holder_credential
    challenge = new_challenge()
    vp = create_presentation(holder_key, holder_did, [vc], challenge)
    # claim a different holder: verificationMethod no longer matches
    obj = vp.to_json()
    thief_key, thief_did = random_identity(random.Random(5))
    obj["holder"] = thief_did
    report = verify_presentation(
        VerifiablePresentation.from_json(obj), challenge, key_resolver
    )
    assert not report.valid
    assert report.checks["holderSignature"].status is CheckStatus.INVALID
    assert report.credential_reports == []  # presented by no one, so not verified


def test_tampering_any_leaf_fails(holder_credential, key_resolver):
    holder_key, holder_did, vc = holder_credential
    challenge = new_challenge()
    vp = create_presentation(holder_key, holder_did, [vc], challenge)
    document = vp.to_json()
    paths = leaf_paths(document)
    assert len(paths) > 25
    for path in paths:
        mutated = mutate_leaf(document, path)
        try:
            candidate = VerifiablePresentation.from_json(mutated)
        except Exception:
            continue
        report = verify_presentation(candidate, challenge, key_resolver)
        assert not report.valid, f"mutation at {path} still verified"


def test_valid_implies_every_credential_valid(key_resolver):
    rng = random.Random(777)
    for _ in range(5):
        vp, challenge, _ = random_presentation(rng)
        report = verify_presentation(vp, challenge, key_resolver)
        assert report.valid
        assert all(sub.valid for sub in report.credential_reports)
        assert all(vc.subject_id == vp.holder for vc in vp.credentials)


def test_presentation_json_roundtrip(holder_credential):
    holder_key, holder_did, vc = holder_credential
    vp = create_presentation(holder_key, holder_did, [vc], new_challenge())
    again = VerifiablePresentation.from_json(vp.to_json())
    assert again.to_json() == vp.to_json()


def test_the_domain_is_signed_like_the_challenge(holder_credential, key_resolver):
    holder_key, holder_did, vc = holder_credential
    challenge = new_challenge()
    vp = create_presentation(holder_key, holder_did, [vc], challenge, domain="did:web:a.example")
    assert vp.to_json()["proof"]["domain"] == "did:web:a.example"
    again = VerifiablePresentation.from_json(vp.to_json())
    assert again.to_json() == vp.to_json()
    assert verify_presentation(again, challenge, key_resolver).valid

    again = dataclasses.replace(again, proof=again.proof._replace(domain="did:web:b.example"))
    check = verify_presentation(again, challenge, key_resolver).checks["holderSignature"]
    assert (check.status, check.reason) == (CheckStatus.INVALID, "SignatureMismatch")


def test_one_resolver_verifies_a_bundle_credential_once(tmp_path, subject, verifies):
    publisher = parse_did("did:web:publisher.example")
    publisher_key = generate_keypair()
    subject_key, subject_did, _ = subject
    status = CredentialStatus(registry_url="https://publisher.example/registry", status_id="s1")
    vc = issue_credential(publisher_key, publisher, subject_did, DATASET_PROVENANCE_V1,
                          claims(), status=status)
    (tmp_path / "dids.json").write_text(json.dumps(
        {publisher.text: one_key_document(publisher, publisher_key.public_key).to_json()}))
    (tmp_path / "registry.json").write_text(
        json.dumps(new_registry(publisher, publisher_key).to_json()))
    context = Resolver([KeyBackend(), DirectoryBackend(tmp_path)])
    registry = FileRegistrySource(tmp_path / "registry.json")

    assert verify_credential(vc, context, registry_source=registry).valid
    assert len(verifies) == 2  # the credential and its registry
    vp = create_presentation(subject_key, subject_did, [vc], "c" * 32)
    assert verify_presentation(vp, "c" * 32, context, registry_source=registry).valid
    assert len(verifies) == 3  # the holder's proof only
