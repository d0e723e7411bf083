"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance and trial count is pinned here, not configurable.
"""

import json
import random
import time

import pytest
import requests
from click.testing import CliRunner

import ed25519_oracle as oracle
from conftest import PASSPHRASE
from datacred.cli import main as cli_main
from datacred.credential import (
    DATASET_PROVENANCE_V1,
    StaticRegistrySource,
    VerifiableCredential,
    issue_credential,
    verify_credential,
)
from datacred.errors import DocumentInvalid, NotFound
from datacred.fingerprint import fingerprint_bytes, fingerprint_tree
from datacred.keys import generate_keypair, sign, verify_signature
from datacred.presentation import (
    VerifiablePresentation,
    create_presentation,
    new_challenge,
    verify_presentation,
)
from datacred.resolver import DirectoryBackend, KeyBackend, Resolver, WebBackend
from docgen import (
    leaf_paths,
    mutate_leaf,
    random_credential,
    random_identity,
    random_presentation,
)


def report_line(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


# -- 1. crypto conformance ---------------------------------------------------

RFC8032 = [
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
    (
        "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
        "af82",
        "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
        "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
    ),
]

SHA256_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
]


def test_criterion_1_crypto_conformance():
    started = time.perf_counter()
    for seed_hex, public_hex, message_hex, signature_hex in RFC8032:
        keypair = generate_keypair(bytes.fromhex(seed_hex))
        message = bytes.fromhex(message_hex)
        assert keypair.public_key.hex() == public_hex
        assert sign(keypair, message).value.hex() == signature_hex
        assert verify_signature(keypair.public_key, message, bytes.fromhex(signature_hex))
    # cross-check one signature with the independent pure-python arithmetic
    seed = bytes.fromhex(RFC8032[0][0])
    assert oracle.sign(seed, b"") == sign(generate_keypair(seed), b"").value
    for data, digest in SHA256_VECTORS:
        assert fingerprint_bytes(data).digest == digest
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"crypto conformance took {elapsed:.3f}s"
    report_line(1, "crypto conformance", f"{elapsed:.3f}s")


# -- 2. tamper suite ---------------------------------------------------------

def test_criterion_2_tamper_suite(key_resolver):
    rng = random.Random(0x7A3B)
    total, detected, false_rejections = 0, 0, 0
    empty_registry = StaticRegistrySource()

    for index in range(200):
        if index % 5 < 3:  # 120 credentials, 80 presentations
            credential, _, _ = random_credential(rng)
            document = credential.to_json()
            if verify_credential(credential, key_resolver).valid is False:
                false_rejections += 1

            path = rng.choice(leaf_paths(document))
            mutated = mutate_leaf(document, path)
            try:
                candidate = VerifiableCredential.from_json(mutated)
                still_valid = verify_credential(
                    candidate, key_resolver, registry_source=empty_registry
                ).valid
            except Exception:
                still_valid = False
            if not still_valid:
                detected += 1
        else:
            presentation, challenge, _ = random_presentation(rng)
            document = presentation.to_json()
            if verify_presentation(presentation, challenge, key_resolver).valid is False:
                false_rejections += 1

            path = rng.choice(leaf_paths(document))
            mutated = mutate_leaf(document, path)
            try:
                candidate = VerifiablePresentation.from_json(mutated)
                still_valid = verify_presentation(
                    candidate, challenge, key_resolver
                ).valid
            except Exception:
                still_valid = False
            if not still_valid:
                detected += 1
        total += 1

    assert total == 200
    assert detected == total, f"only {detected}/{total} mutations detected"
    assert false_rejections == 0, f"{false_rejections} untampered documents rejected"
    report_line(2, "tamper suite", f"{detected}/{total} detected, 0 false rejections")


# -- 3. binding suite --------------------------------------------------------

def _issue_for_digest(issuer, subject, digest):
    return issue_credential(
        issuer[0], issuer[1], subject[1], DATASET_PROVENANCE_V1,
        {"Hash of Data": digest, "Data Ethically Sourced": "YES"},
    )


def test_criterion_3_binding_suite(tmp_path):
    from datacred.credential import check_binding_claim

    rng = random.Random(0xB17D)
    issuer = random_identity(rng)
    subject = random_identity(rng)
    datasets = 0

    for index in range(60):  # byte datasets
        data = rng.randbytes(rng.randrange(1, 4096))
        credential = _issue_for_digest(issuer, subject, fingerprint_bytes(data).digest)
        assert check_binding_claim(credential, data).matched

        flipped = bytearray(data)
        position = rng.randrange(len(flipped))
        flipped[position] ^= 1 << rng.randrange(8)
        assert not check_binding_claim(credential, bytes(flipped)).matched

        other = rng.randbytes(rng.randrange(1, 4096))
        if other != data:
            assert not check_binding_claim(credential, other).matched
        datasets += 1

    for index in range(40):  # small trees
        root = tmp_path / f"tree-{index}"
        root.mkdir()
        file_count = rng.randrange(1, 21)
        for file_index in range(file_count):
            parent = root
            if file_index % 4 == 3:
                parent = root / f"sub{file_index}"
                parent.mkdir()
            (parent / f"f{file_index}.dat").write_bytes(rng.randbytes(rng.randrange(1, 256)))
        credential = _issue_for_digest(issuer, subject, fingerprint_tree(root).digest)
        assert check_binding_claim(credential, root).matched

        victims = sorted(p for p in root.rglob("*") if p.is_file())
        victim = rng.choice(victims)
        original = victim.read_bytes()
        flipped = bytearray(original)
        position = rng.randrange(len(flipped))
        flipped[position] ^= 1 << rng.randrange(8)
        victim.write_bytes(bytes(flipped))
        assert not check_binding_claim(credential, root).matched, "bit flip undetected"
        victim.write_bytes(original)
        assert check_binding_claim(credential, root).matched

        victim.rename(victim.with_name(victim.name + ".renamed"))
        assert not check_binding_claim(credential, root).matched, "rename undetected"
        datasets += 1

    assert datasets == 100
    report_line(3, "binding suite", f"{datasets} datasets, every mutation detected")


# -- 4. replay suite ---------------------------------------------------------

def test_criterion_4_replay_suite(key_resolver):
    rng = random.Random(0x4E9A)
    holder = random_identity(rng)
    credential, _, _ = random_credential(rng, subject=holder)
    recorded_challenge = new_challenge()
    captured = create_presentation(holder[0], holder[1], [credential], recorded_challenge)
    assert verify_presentation(captured, recorded_challenge, key_resolver).valid

    replay_rejections = 0
    for _ in range(100):
        fresh = new_challenge()
        assert fresh != recorded_challenge
        report = verify_presentation(captured, fresh, key_resolver)
        if not report.valid and report.checks["challenge"].reason == "ChallengeMismatch":
            replay_rejections += 1
    assert replay_rejections == 100

    stranger_rejections = 0
    for _ in range(100):
        thief = random_identity(rng)
        challenge = new_challenge()
        stolen = create_presentation(thief[0], thief[1], [credential], challenge)
        report = verify_presentation(stolen, challenge, key_resolver)
        if not report.valid and report.checks["subjectBinding"].reason == "HolderNotSubject":
            stranger_rejections += 1
    assert stranger_rejections == 100
    report_line(4, "replay suite", "100/100 replays and 100/100 non-subject holders rejected")


# -- 5. revocation, CLI and live agents --------------------------------------

def test_criterion_5_revocation(tmp_path, monkeypatch, agent_factory):
    monkeypatch.setenv("DATACRED_PASSPHRASE", PASSPHRASE)
    started = time.perf_counter()

    # CLI path
    runner = CliRunner()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.bin").write_bytes(b"revocable dataset")

    def run(*args):
        result = runner.invoke(cli_main, list(args))
        return result

    issuer = json.loads(run("keygen", "--wallet", "w.json", "--label", "issuer").stdout)
    subject = json.loads(run("keygen", "--wallet", "w.json", "--label", "subject").stdout)
    digest = json.loads(run("hash", "data.bin").stdout)["digest"]
    assert run(
        "registry", "init", "--issuer", issuer["did"], "--wallet", "w.json",
        "--key-label", "issuer", "--registry", "reg.json",
    ).exit_code == 0
    assert run(
        "issue", "--wallet", "w.json", "--key-label", "issuer",
        "--issuer", issuer["did"], "--subject", subject["did"],
        "--claim", f"Hash of Data={digest}", "--claim", "Data Ethically Sourced=YES",
        "--status-registry", "https://publisher.example/registry", "--status-id", "s1",
        "--out", "cred.json",
    ).exit_code == 0
    assert run("verify", "cred.json", "--registry", "reg.json").exit_code == 0
    assert run(
        "revoke", "--registry", "reg.json", "--status-id", "s1",
        "--wallet", "w.json", "--key-label", "issuer",
    ).exit_code == 0
    after = run("verify", "cred.json", "--registry", "reg.json", "--json")
    assert after.exit_code == 1
    assert json.loads(after.stdout)["checks"]["revocation"]["reason"] == "Revoked"

    # live agent path
    publisher = agent_factory("publisher")
    dataset = agent_factory("dataset")
    user = agent_factory("user")
    connection = publisher.connect(**dataset.invitation())
    credential = publisher.issue_over_connection(
        connection.connection_id,
        {"Hash of Data": digest, "Data Ethically Sourced": "YES"},
    )
    assert user.request_proof(
        dataset.did.text, ["Hash of Data"], endpoint=dataset.base_url
    ).valid
    requests.post(
        publisher.base_url + "/revoke", json={"credentialId": credential.id}, timeout=5
    ).raise_for_status()
    report = user.request_proof(dataset.did.text, ["Hash of Data"])
    assert not report.valid and "Revoked" in report.reasons()

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"revocation flows took {elapsed:.2f}s"
    report_line(5, "revocation via CLI and live agents", f"{elapsed:.2f}s")


# -- 6. did:web resolution ---------------------------------------------------

def test_criterion_6_did_web_resolution(json_server):
    from datacred.base58 import b58encode

    public_key = generate_keypair().public_key
    did_text = f"did:web:127.0.0.1%3A{json_server.port}"
    hosted = {
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
    json_server.set("/.well-known/did.json", hosted)
    resolver = Resolver(backends=[WebBackend(allow_insecure_loopback=True)])
    document = resolver.resolve(did_text)
    assert document.to_json() == hosted
    assert document.authentication[0].public_key_bytes() == public_key

    mismatched = dict(hosted, id="did:web:somewhere.else")
    mismatched["authentication"] = [
        dict(hosted["authentication"][0],
             id="did:web:somewhere.else", controller="did:web:somewhere.else")
    ]
    json_server.set("/.well-known/did.json", mismatched)
    resolver = Resolver(backends=[WebBackend(allow_insecure_loopback=True)])  # nothing cached
    with pytest.raises(DocumentInvalid):
        resolver.resolve(did_text)

    del json_server.routes["/.well-known/did.json"]
    resolver = Resolver(backends=[WebBackend(allow_insecure_loopback=True)])
    with pytest.raises(NotFound):
        resolver.resolve(did_text)
    report_line(6, "did:web resolution", "document, id-mismatch, and 404 cases")


# -- 7. end-to-end agent scenario --------------------------------------------

def test_criterion_7_end_to_end_agents(agent_factory):
    started = time.perf_counter()
    publisher = agent_factory("publisher")
    dataset = agent_factory("dataset")
    user = agent_factory("user")

    connection = publisher.connect(**dataset.invitation())
    digest = fingerprint_bytes(b"published dataset under certification").digest
    publisher.issue_over_connection(
        connection.connection_id,
        {"Hash of Data": digest, "Data Ethically Sourced": "YES"},
    )

    # survives a dataset-agent restart between issuance and proof request
    dataset = agent_factory.restart(dataset)

    report = user.request_proof(
        dataset.did.text,
        ["Hash of Data", "Data Ethically Sourced"],
        endpoint=dataset.base_url,
    )
    assert report.valid, report.to_json()
    assert report.issuers == [publisher.did.text]
    presented = report.credential_reports[0].claims
    assert presented["Hash of Data"] == digest
    assert presented["Data Ethically Sourced"] == "YES"

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"end-to-end scenario took {elapsed:.2f}s"
    report_line(7, "end-to-end agent scenario", f"{elapsed:.2f}s incl. restart")


# -- 8. offline verification -------------------------------------------------

def test_criterion_8_offline_bundle(tmp_path, issuer, subject):
    issuer_key, issuer_did, issuer_document = issuer
    _, subject_did, _ = subject
    from datacred.credential import (
        CredentialStatus,
        FileRegistrySource,
        new_registry,
    )

    data = b"distributed alongside its credential"
    credential = issue_credential(
        issuer_key, issuer_did, subject_did, DATASET_PROVENANCE_V1,
        {"Hash of Data": fingerprint_bytes(data).digest, "Data Ethically Sourced": "YES"},
        status=CredentialStatus(
            registry_url="https://publisher.example/registry", status_id="s1"
        ),
    )
    registry = new_registry(issuer_did, issuer_key)

    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "credential.json").write_text(json.dumps(credential.to_json()))
    (bundle / "dids.json").write_text(
        json.dumps({issuer_did.text: issuer_document.to_json()})
    )
    (bundle / "registry.json").write_text(json.dumps(registry.to_json()))

    resolver = Resolver(backends=[KeyBackend(), DirectoryBackend(bundle)])
    report = verify_credential(
        VerifiableCredential.from_json(json.loads((bundle / "credential.json").read_text())),
        resolver,
        registry_source=FileRegistrySource(bundle / "registry.json"),
    )
    assert report.valid, report.to_json()
    assert resolver.network_fetch_count == 0

    from datacred.credential import check_binding_claim

    assert check_binding_claim(credential, data).matched
    report_line(8, "offline bundle verification", "0 network fetches")
