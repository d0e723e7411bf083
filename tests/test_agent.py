"""Agent service: provisioning, connections, issuance, proof exchange, admin API."""

import dataclasses
import json
import pathlib
import re
import socket
import time
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace
from urllib.parse import urlsplit

import pytest
import requests
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from datacred import proofs
from datacred.agent.envelopes import (
    CONNECTION_REQUEST,
    CONNECTION_RESPONSE,
    CREDENTIAL_ACK,
    CREDENTIAL_ISSUE,
    PROOF_REQUEST,
    PROOF_RESPONSE,
    MESSAGE_WINDOW,
    MessageEnvelope,
    build_envelope,
)
from datacred.agent.service import CREDENTIAL_LABEL_PREFIX, MAX_BODY_BYTES, STATUS_ISSUED, Agent
from datacred.agent.state import AgentState, Connection
from datacred.agent.config import AgentConfig, Policy
from datacred.cli import main
from datacred.credential import DATASET_PROVENANCE_V1, VerifiableCredential, issue_credential
from datacred.credential import sign_registry
from datacred.errors import (
    AgentError,
    BadConfig,
    ConnectionInactive,
    CorruptWallet,
    CredentialRejected,
    DatacredError,
    DocumentInvalid,
    NoMatchingCredential,
    PolicyRejected,
    PortInUse,
    RoleForbidden,
    SignatureInvalid,
    Unreachable,
    WrongRecipient,
)
from datacred.did import generate_did_key, parse_did
from datacred.fingerprint import fingerprint_bytes
from datacred.keys import generate_keypair
from datacred.presentation import create_presentation
from datacred.proofs import (
    ASSERTION,
    AUTHENTICATION,
    attach_proof,
    format_timestamp,
    parse_timestamp,
    utc_now,
)
from datacred.resolver import KeyBackend, Resolver, WebBackend

pytestmark = pytest.mark.usefixtures("fast_wallet_kdf")

# The type of the signed refusal that agents sent before refusals were plain JSON.
PROBLEM_REPORT = "datacred/1.0/problem-report"

LISTING_CLAIMS = {
    "Hash of Data": fingerprint_bytes(b"the published dataset").digest,
    "Data Ethically Sourced": "YES",
}


def connected_pair(agent_factory):
    publisher = agent_factory("publisher")
    dataset = agent_factory("dataset")
    connection = publisher.connect(**dataset.invitation())
    return publisher, dataset, connection


# --- provisioning ---

def test_fresh_dataset_agent(agent_factory):
    dataset = agent_factory("dataset")
    status = dataset.status()
    assert status["role"] == "dataset"
    assert status["connections"] == 0
    assert status["credentials"] == 0
    # DID resolves over the network to the document the agent serves
    resolver = Resolver(backends=[WebBackend(allow_insecure_loopback=True)])
    assert resolver.resolve(dataset.did).id == dataset.did.text


def test_did_key_agent_resolves_locally(agent_factory):
    dataset = agent_factory("dataset", did_method="key")
    resolver = Resolver(backends=[KeyBackend()])
    assert resolver.resolve(dataset.did).id == dataset.did.text


def test_did_document_emitted_for_hosting(agent_factory):
    agent = agent_factory("publisher")
    sidecar = agent.config.resolved_state_path().with_suffix(".did.json")
    assert json.loads(sidecar.read_text())["id"] == agent.did.text


def test_restart_keeps_did_and_credentials(agent_factory):
    publisher, dataset, connection = connected_pair(agent_factory)
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    did_before = dataset.did.text
    dataset = agent_factory.restart(dataset)
    assert dataset.did.text == did_before
    assert len(dataset.list_credentials()) == 1


def test_port_in_use(agent_factory):
    first = agent_factory("dataset")
    with pytest.raises(PortInUse):
        agent_factory("user", name="clash", listen_port=first.config.listen_port)


def test_interrupted_config_save_keeps_previous_config(tmp_path, monkeypatch):
    """`agent serve` rewrites its config to pin the bound port; a crash mid-write must not lose it."""
    path = tmp_path / "agent.config.json"
    AgentConfig(role="dataset", wallet_path="w.json", listen_port=8123).save(path)

    def write_half_then_fail(self, data, *args, **kwargs):
        with open(self, "w", encoding="utf-8") as handle:
            handle.write(data[: len(data) // 2])
        raise OSError("No space left on device")

    with monkeypatch.context() as patch, pytest.raises(OSError):
        patch.setattr(pathlib.Path, "write_text", write_half_then_fail)
        AgentConfig(role="dataset", wallet_path="w.json", listen_port=9456).save(path)

    assert AgentConfig.load(path).listen_port == 8123


def test_state_file_that_is_not_json_names_the_file(agent_factory):
    dataset = agent_factory("dataset", start=False)
    path = dataset.config.resolved_state_path()
    path.write_text("{not json")
    with pytest.raises(DatacredError, match=re.escape(str(path))):
        dataset.start()


@pytest.mark.parametrize("host", ["0.0.0.0", ""])
def test_wildcard_listen_host_without_public_base_url_refused(agent_factory, host):
    agent = agent_factory("dataset", did_method="key", start=False, listen_host=host)
    with pytest.raises(BadConfig, match="publicBaseUrl"):
        agent.start()
    assert not pathlib.Path(agent.config.wallet_path).exists()  # refused before anything else


def test_wildcard_listen_host_without_web_domain_refused_for_did_web(agent_factory):
    agent = agent_factory("dataset", start=False, listen_host="0.0.0.0",
                          public_base_url="https://data.example")
    with pytest.raises(BadConfig, match="webDomain"):
        agent.start()


@pytest.mark.parametrize("host", ["::", "::1", "[::1]", "fe80::1"])
def test_ipv6_listen_host_refused(agent_factory, host):
    """The server binds IPv4 only; an IPv6 listenHost used to fail in start() with gaierror."""
    with pytest.raises(BadConfig, match="IPv6"):
        agent_factory("dataset", listen_host=host, public_base_url="https://data.example",
                      web_domain="data.example")


def test_wildcard_listen_host_with_public_names_starts(agent_factory):
    agent = agent_factory("dataset", listen_host="0.0.0.0",
                          public_base_url="https://data.example", web_domain="data.example")
    assert agent.invitation() == {"did": "did:web:data.example", "endpoint": "https://data.example"}


# --- connections ---

def test_connect_active_on_both_sides(agent_factory):
    publisher, dataset, connection = connected_pair(agent_factory)
    assert publisher.state.connections == {connection.connection_id: connection}
    theirs = dataset.state.connections[connection.connection_id]
    assert theirs.their_did == publisher.did.text
    assert publisher.list_connections()[0]["theirDid"] == dataset.did.text
    assert publisher.list_connections()[0]["state"] == "active"


def count_saves(monkeypatch) -> list:
    """Paths of every AgentState.save from now on, in call order."""
    saves = []
    original = AgentState.save
    monkeypatch.setattr(AgentState, "save", lambda self: (saves.append(self.path), original(self)))
    return saves


def test_connect_saves_state_once(agent_factory, monkeypatch):
    publisher = agent_factory("publisher")
    dataset = agent_factory("dataset")
    saves = count_saves(monkeypatch)
    publisher.connect(**dataset.invitation())
    assert saves.count(publisher.state.path) == 1


def test_failed_connect_records_nothing(agent_factory, monkeypatch):
    publisher = agent_factory("publisher")
    saves = count_saves(monkeypatch)
    with pytest.raises(Unreachable):
        publisher.connect(did="did:web:127.0.0.1%3A1", endpoint="http://127.0.0.1:1")
    assert saves == []
    assert publisher.list_connections() == []
    assert json.loads(publisher.state.path.read_text())["connections"] == []


def test_redirected_envelope_post_refused(agent_factory, json_server):
    """A redirect must not re-post a signed envelope to wherever it points."""
    publisher = agent_factory("publisher")
    json_server.set("/inbox", {}, status=307, headers={"Location": json_server.url("/target")})
    json_server.set("/target", {})
    with pytest.raises(Unreachable, match="307"):
        publisher.connect(
            did="did:web:" + json_server.host.replace(":", "%3A"),
            endpoint=json_server.url(""),
        )
    assert json_server.request_count == 1  # the POST to /inbox; none reached /target
    assert publisher.list_connections() == []


def test_reply_that_is_not_an_envelope_is_an_agent_error(agent_factory, json_server):
    publisher = agent_factory("publisher")
    json_server.set("/inbox", [])
    with pytest.raises(AgentError, match="malformed envelope") as excinfo:
        publisher.connect(
            did="did:web:" + json_server.host.replace(":", "%3A"),
            endpoint=json_server.url(""),
        )
    assert isinstance(excinfo.value, SignatureInvalid)
    assert publisher.list_connections() == []


def test_envelope_post_to_plain_http_remote_host_refused(agent_factory, loopback_only):
    publisher = agent_factory("publisher")
    with pytest.raises(Unreachable, match="only https"):
        publisher.connect(did="did:web:example.com", endpoint="http://example.com")
    assert loopback_only == []  # refused before any lookup or connection
    assert publisher.list_connections() == []


def test_agent_without_insecure_http_refuses_loopback_http(agent_factory):
    strict = agent_factory("publisher", allow_insecure_http=False)
    dataset = agent_factory("dataset")
    with pytest.raises(Unreachable, match="only https"):
        strict.connect(**dataset.invitation())
    assert dataset.list_connections() == []  # the envelope was never posted


def test_dataset_agents_never_initiate(agent_factory):
    dataset = agent_factory("dataset")
    other = agent_factory("dataset", name="dataset2")
    with pytest.raises(RoleForbidden):
        dataset.connect(**other.invitation())


def test_policy_rejects_connection(agent_factory):
    publisher = agent_factory("publisher")
    dataset = agent_factory(
        "dataset", policy=Policy(auto_accept_connections=False)
    )
    with pytest.raises(PolicyRejected):
        publisher.connect(**dataset.invitation())
    assert dataset.list_connections() == []


def test_corrupted_handshake_signature_rejected(agent_factory):
    publisher = agent_factory("publisher")
    dataset = agent_factory("dataset")
    envelope = build_envelope(
        publisher.key,
        publisher.did.text,
        dataset.did.text,
        CONNECTION_REQUEST,
        {"connectionId": "c-1", "endpoint": publisher.base_url},
    )
    envelope["body"]["endpoint"] = "http://evil.example"  # tamper after signing
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    assert response.status_code == 400
    assert sorted(response.json()) == ["detail", "error"]
    assert response.json()["error"] == "SignatureInvalid"
    assert dataset.list_connections() == []


def test_unsigned_envelope_dropped(agent_factory):
    dataset = agent_factory("dataset")
    sender = agent_factory("user")
    envelope = build_envelope(
        sender.key, sender.did.text, dataset.did.text, CONNECTION_REQUEST,
        {"connectionId": "c", "endpoint": sender.base_url},
    )
    del envelope["proof"]
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    assert response.status_code == 400
    assert dataset.list_connections() == []


@pytest.mark.parametrize("where", ["value", "name", "id", "sender"])
def test_a_lone_surrogate_is_answered_with_a_problem_report(agent_factory, where):
    """A string UTF-8 cannot encode used to end the handler with a UnicodeEncodeError,
    and the connection was dropped unanswered. The report does not echo the text."""
    dataset = agent_factory("dataset")
    sender = agent_factory("user")
    envelope = build_envelope(
        sender.key, sender.did.text, dataset.did.text, CONNECTION_REQUEST,
        {"connectionId": "c", "endpoint": sender.base_url},
    )
    if where == "value":
        envelope["body"]["endpoint"] = "\ud800"
    elif where == "name":
        envelope["body"]["\udfff"] = "x"
    elif where == "id":
        envelope["id"] = "\ud800"
    else:
        envelope["from"] = sender.did.text + "\ud800"
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    assert response.status_code == 400
    assert sorted(response.json()) == ["detail", "error"]
    assert response.json()["error"] == "SignatureInvalid"
    assert not {"\ud800", "\udfff"} & set(response.json()["detail"])
    assert dataset.list_connections() == []


def test_connection_id_cannot_be_hijacked(agent_factory):
    publisher, dataset, connection = connected_pair(agent_factory)
    attacker = agent_factory("user", name="attacker")
    envelope = build_envelope(
        attacker.key, attacker.did.text, dataset.did.text, CONNECTION_REQUEST,
        {"connectionId": connection.connection_id, "endpoint": attacker.base_url},
    )
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    assert response.status_code == 400
    # the publisher's connection record is untouched
    record = dataset.state.connections[connection.connection_id]
    assert record.their_did == publisher.did.text


def test_reconnect_after_peer_moves_replaces_its_record(agent_factory):
    publisher = agent_factory("publisher")
    dataset = agent_factory("dataset", did_method="key")
    connection = publisher.connect(**dataset.invitation())
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    user = agent_factory("user")
    user.connect(**dataset.invitation())
    # The same wallet and state on a new port: a did:key agent keeps its DID when it moves.
    moved = agent_factory("dataset", did_method="key")
    dataset.stop()
    assert moved.did == dataset.did and moved.base_url != dataset.base_url

    user.connect(**moved.invitation())
    assert [c.their_endpoint for c in user.state.connections.values()] == [moved.base_url]
    peers = [c.their_did for c in moved.state.connections.values()]
    assert sorted(peers) == sorted([publisher.did.text, user.did.text])
    assert user.request_proof(moved.did.text, ["Hash of Data"]).valid


def test_connect_unreachable(agent_factory):
    publisher = agent_factory("publisher")
    with pytest.raises(Unreachable):
        publisher.connect(did="did:web:127.0.0.1%3A1", endpoint="http://127.0.0.1:1")


# --- issuance over a connection ---

def test_issue_stores_credential_on_dataset_agent(agent_factory):
    publisher, dataset, connection = connected_pair(agent_factory)
    credential = publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    stored = dataset.list_credentials()
    assert len(stored) == 1
    assert stored[0]["credentialSubject"]["Data Ethically Sourced"] == "YES"
    assert stored[0]["credentialSubject"]["id"] == dataset.did.text
    assert credential.issuer == publisher.did.text
    assert publisher.find_status_id(credential.id)


def test_dataset_agent_derives_its_wallet_key_once_per_start(agent_factory, key_derivations):
    """Each received credential re-encrypts the wallet under the key derived at start."""
    publisher = agent_factory("publisher")
    key_derivations.clear()
    dataset = agent_factory("dataset")
    connection = publisher.connect(**dataset.invitation())
    for _ in range(3):
        publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    assert len(key_derivations) == 1
    dataset = agent_factory.restart(dataset)
    for _ in range(3):
        publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    assert len(key_derivations) == 2
    assert len(dataset.list_credentials()) == 6


def test_receipt_check_fetches_no_registry(agent_factory, monkeypatch):
    """Receiving a credential checks its signature and schema; currency is the verifier's."""
    publisher, dataset, connection = connected_pair(agent_factory)
    fetched = []
    monkeypatch.setattr(dataset.registry_source, "fetch", fetched.append)
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    assert fetched == []
    assert len(dataset.list_credentials()) == 1


@pytest.mark.parametrize("resign, reason", [
    (False, "signature: SignatureMismatch"),
    (True, "schema: SchemaViolation"),
], ids=["tampered", "re-signed"])
def test_receipt_rejection_names_the_failed_check(agent_factory, resign, reason):
    publisher, dataset, connection = connected_pair(agent_factory)
    credential = issue_credential(
        publisher.key, publisher.did, dataset.did, DATASET_PROVENANCE_V1, LISTING_CLAIMS
    ).to_json()
    credential["credentialSubject"]["Data Ethically Sourced"] = "MAYBE"
    if resign:  # a valid signature over claims the schema does not allow
        del credential["proof"]
        credential = attach_proof(credential, publisher.key, publisher.did.text, ASSERTION)
    envelope = build_envelope(
        publisher.key, publisher.did.text, dataset.did.text, CREDENTIAL_ISSUE,
        {"connectionId": connection.connection_id, "credential": credential},
    )
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    assert response.status_code == 400
    body = response.json()
    assert body["error"] == "CredentialRejected"
    assert body["detail"].startswith(reason)
    assert dataset.list_credentials() == []


def signed_credential(publisher, dataset, **dates) -> dict:
    """A credential from publisher to dataset, re-signed after its dates are replaced."""
    credential = issue_credential(
        publisher.key, publisher.did, dataset.did, DATASET_PROVENANCE_V1, LISTING_CLAIMS
    ).to_json()
    del credential["proof"]
    credential.update(dates)
    return attach_proof(credential, publisher.key, publisher.did.text, ASSERTION)


@pytest.mark.parametrize("dates", [
    {"issuanceDate": "yesterday"},
    {"issuanceDate": 5},
    {"expirationDate": "2030-01-01"},
    # Accepted once, then presented as the newest credential, and refused by the verifier.
    {"issuanceDate": "2026-01-02T00:00:00Z", "expirationDate": "2026-01-01T00:00:00Z"},
], ids=["issuance-word", "issuance-int", "expiration-date-only", "expiration-before-issuance"])
def test_credential_with_unreadable_dates_rejected_on_receipt(agent_factory, dates):
    publisher, dataset, connection = connected_pair(agent_factory)
    envelope = build_envelope(
        publisher.key, publisher.did.text, dataset.did.text, CREDENTIAL_ISSUE,
        {"connectionId": connection.connection_id,
         "credential": signed_credential(publisher, dataset, **dates)},
    )
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    assert response.status_code == 400
    body = response.json()
    assert body["error"] == "CredentialRejected"
    assert body["detail"].startswith("temporal: BadTimestamps")
    assert dataset.list_credentials() == []


def test_stored_credential_with_unreadable_date_does_not_break_proofs(agent_factory):
    """One such entry used to make every later proof request drop the connection."""
    publisher, dataset, connection = connected_pair(agent_factory)
    readable = publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    unreadable = signed_credential(publisher, dataset, issuanceDate="yesterday")
    dataset.wallet.put(CREDENTIAL_LABEL_PREFIX + unreadable["id"], unreadable)
    user = agent_factory("user")
    report = user.request_proof(dataset.did.text, ["Hash of Data"], endpoint=dataset.base_url)
    assert report.valid
    assert [r.credential_id for r in report.credential_reports] == [readable.id]
    dataset.wallet.remove(CREDENTIAL_LABEL_PREFIX + readable.id)
    report = user.request_proof(dataset.did.text, ["Hash of Data"])
    assert "BadTimestamps" in report.reasons()


def test_issue_requires_publisher_role(agent_factory):
    user = agent_factory("user")
    dataset = agent_factory("dataset")
    connection = user.connect(**dataset.invitation())
    with pytest.raises(RoleForbidden):
        user.issue_over_connection(connection.connection_id, LISTING_CLAIMS)


def test_issue_on_unknown_connection(agent_factory):
    publisher = agent_factory("publisher")
    with pytest.raises(ConnectionInactive):
        publisher.issue_over_connection("no-such-connection", LISTING_CLAIMS)


def test_remote_rejects_issue_without_connection(agent_factory):
    publisher = agent_factory("publisher")
    dataset = agent_factory("dataset")
    credential = issue_credential(
        publisher.key, publisher.did, dataset.did, DATASET_PROVENANCE_V1, LISTING_CLAIMS
    )
    envelope = build_envelope(
        publisher.key, publisher.did.text, dataset.did.text, CREDENTIAL_ISSUE,
        {"connectionId": "fabricated", "credential": credential.to_json()},
    )
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    assert response.status_code == 400
    assert response.json()["error"] == "ConnectionInactive"
    assert dataset.list_credentials() == []


def test_tampered_in_flight_credential_rejected(agent_factory):
    publisher, dataset, connection = connected_pair(agent_factory)
    credential = issue_credential(
        publisher.key, publisher.did, dataset.did, DATASET_PROVENANCE_V1, LISTING_CLAIMS
    )
    tampered = credential.to_json()
    tampered["credentialSubject"]["Data Ethically Sourced"] = "NO"
    envelope = build_envelope(
        publisher.key, publisher.did.text, dataset.did.text, CREDENTIAL_ISSUE,
        {"connectionId": connection.connection_id, "credential": tampered},
    )
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    assert response.status_code == 400
    assert response.json()["error"] == "CredentialRejected"
    assert dataset.list_credentials() == []


def test_credential_for_someone_else_rejected(agent_factory):
    publisher, dataset, connection = connected_pair(agent_factory)
    other = agent_factory("dataset", name="other-dataset")
    credential = issue_credential(
        publisher.key, publisher.did, other.did, DATASET_PROVENANCE_V1, LISTING_CLAIMS
    )
    envelope = build_envelope(
        publisher.key, publisher.did.text, dataset.did.text, CREDENTIAL_ISSUE,
        {"connectionId": connection.connection_id, "credential": credential.to_json()},
    )
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    assert response.status_code == 400
    assert response.json()["error"] == "CredentialRejected"


def test_an_issue_signs_once_and_verifies_once_across_both_agents(agent_factory, monkeypatch,
                                                                 verifies):
    """The issue and the ack were signed envelopes: 3 signs, 3 verifies, 6 canonical forms."""
    publisher, dataset, connection = connected_pair(agent_factory)
    verifies.clear()
    canonicalized, signed = [], []
    canonical, sign = proofs.canonicalize, proofs.sign
    monkeypatch.setattr(proofs, "canonicalize",
                        lambda value: (canonicalized.append(value), canonical(value))[1])
    monkeypatch.setattr(proofs, "sign", lambda *args: (signed.append(args), sign(*args))[1])
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    # The credential's proof, made by the publisher and checked by the dataset agent.
    assert (len(signed), len(verifies), len(canonicalized)) == (1, 1, 2)
    assert len(dataset.list_credentials()) == 1


def post_issue(publisher, dataset, connection, credential: dict) -> requests.Response:
    """An unsigned credential-issue from publisher, posted to dataset's inbox."""
    envelope = build_envelope(None, publisher.did.text, dataset.did.text, CREDENTIAL_ISSUE,
                              {"connectionId": connection.connection_id, "credential": credential})
    return requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)


def test_a_credential_its_sender_did_not_issue_is_refused_before_it_is_resolved(
        agent_factory, json_server):
    """The issue message is unsigned, so a connected sender could pass on anyone's
    credential, and the inbox would fetch the issuer's did:web document."""
    publisher, dataset, connection = connected_pair(agent_factory)
    stranger = parse_did(stub_did(json_server))
    credential = issue_credential(generate_keypair(), stranger, dataset.did,
                                  DATASET_PROVENANCE_V1, LISTING_CLAIMS)
    response = post_issue(publisher, dataset, connection, credential.to_json())
    assert (response.status_code, response.json()["error"]) == (400, "CredentialRejected")
    assert "is not the sender" in response.json()["detail"]
    assert json_server.request_count == 0
    assert dataset.list_credentials() == []


def test_a_repeated_credential_issue_is_acked_and_writes_nothing(agent_factory):
    """The second issue of an equal credential appended a record to the wallet file."""
    publisher, dataset, connection = connected_pair(agent_factory)
    credential = issue_credential(publisher.key, publisher.did, dataset.did,
                                  DATASET_PROVENANCE_V1, LISTING_CLAIMS).to_json()
    wallet = pathlib.Path(dataset.config.wallet_path)
    replies = [post_issue(publisher, dataset, connection, credential)]
    stored = wallet.read_bytes()
    replies.append(post_issue(publisher, dataset, connection, credential))
    assert wallet.read_bytes() == stored
    for response in replies:
        assert response.status_code == 200
        assert response.json() == {"type": CREDENTIAL_ACK, "from": dataset.did.text,
                                   "to": publisher.did.text,
                                   "body": {"credentialId": credential["id"]}}
    assert [vc["id"] for vc in dataset.list_credentials()] == [credential["id"]]


def test_an_ack_naming_another_credential_is_refused(agent_factory, json_server):
    """The ack's credentialId was never compared with the credential sent."""
    publisher = agent_factory("publisher")
    did = generate_did_key(generate_keypair().public_key)[0].text
    publisher.state.add_connection(Connection("c-1", publisher.did.text, did,
                                              json_server.url("")))
    json_server.set("/inbox", {"type": CREDENTIAL_ACK, "from": did, "to": publisher.did.text,
                               "body": {"credentialId": "urn:uuid:another"}})
    with pytest.raises(AgentError, match="the ack names another credential than urn:uuid:"):
        publisher.issue_over_connection("c-1", LISTING_CLAIMS)


@pytest.mark.parametrize("refusal", ["rejected", "another credential"])
def test_a_refused_issue_leaves_no_issuance_record(agent_factory, json_server, refusal):
    """The record was appended before the exchange, so an issue the dataset agent
    refused, or whose ack the publisher refused, stayed in the log and in /status."""
    publisher = agent_factory("publisher")
    did = generate_did_key(generate_keypair().public_key)[0].text
    publisher.state.add_connection(Connection("c-1", publisher.did.text, did,
                                              json_server.url("")))
    if refusal == "rejected":
        json_server.set("/inbox", {"error": "CredentialRejected", "detail": "schema: ..."},
                        status=400)
    else:
        json_server.set("/inbox", {"type": CREDENTIAL_ACK, "from": did, "to": publisher.did.text,
                                   "body": {"credentialId": "urn:uuid:another"}})
    with pytest.raises(CredentialRejected if refusal == "rejected" else AgentError):
        publisher.issue_over_connection("c-1", LISTING_CLAIMS)
    assert publisher.state.issued == []
    assert publisher.status()["issuedCount"] == 0
    log = publisher.state.issued_path
    assert not log.exists() or log.read_bytes().splitlines() == []


def test_a_proof_on_an_unsigned_message_type_is_not_read(agent_factory):
    """A credential issue's proof is ignored, yet a malformed one was parsed and the
    issue refused SignatureInvalid."""
    publisher, dataset, connection = connected_pair(agent_factory)
    malformed = {"type": "Ed25519Signature2020"}
    credential = issue_credential(publisher.key, publisher.did, dataset.did,
                                  DATASET_PROVENANCE_V1, LISTING_CLAIMS).to_json()
    issue = build_envelope(None, publisher.did.text, dataset.did.text, CREDENTIAL_ISSUE,
                           {"connectionId": connection.connection_id, "credential": credential})
    response = requests.post(dataset.base_url + "/inbox", json={**issue, "proof": malformed},
                             timeout=5)
    assert response.status_code == 200, response.json()
    assert response.json()["body"] == {"credentialId": credential["id"]}
    assert [vc["id"] for vc in dataset.list_credentials()] == [credential["id"]]

    request = build_envelope(None, publisher.did.text, dataset.did.text, PROOF_REQUEST,
                             {"requestedAttributes": ["Hash of Data"], "challenge": "c" * 32})
    response = requests.post(dataset.base_url + "/inbox", json={**request, "proof": malformed},
                             timeout=5)
    assert response.status_code == 400
    assert response.json()["error"] == "SignatureInvalid"


# --- proof exchange ---

def test_request_proof_end_to_end(agent_factory):
    publisher, dataset, connection = connected_pair(agent_factory)
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    user = agent_factory("user")
    report = user.request_proof(
        dataset.did.text,
        ["Hash of Data", "Data Ethically Sourced"],
        endpoint=dataset.base_url,
    )
    assert report.valid, report.to_json()
    assert report.issuers == [publisher.did.text]
    assert report.holder == dataset.did.text


def test_request_proof_missing_attribute(agent_factory):
    publisher, dataset, connection = connected_pair(agent_factory)
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    user = agent_factory("user")
    with pytest.raises(NoMatchingCredential):
        user.request_proof(dataset.did.text, ["License"], endpoint=dataset.base_url)


def test_request_proof_no_credentials_at_all(agent_factory):
    dataset = agent_factory("dataset")
    user = agent_factory("user")
    with pytest.raises(NoMatchingCredential):
        user.request_proof(dataset.did.text, ["Hash of Data"], endpoint=dataset.base_url)


def test_policy_restricts_sharable_credentials(agent_factory):
    publisher = agent_factory("publisher")
    dataset = agent_factory("dataset", policy=Policy(sharable_credential_ids=[]))
    connection = publisher.connect(**dataset.invitation())
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    user = agent_factory("user")
    with pytest.raises(NoMatchingCredential):
        user.request_proof(dataset.did.text, ["Hash of Data"], endpoint=dataset.base_url)


def test_newest_covering_credential_wins(agent_factory):
    publisher, dataset, connection = connected_pair(agent_factory)
    early = dict(LISTING_CLAIMS, **{"Data Ethically Sourced": "NO"})
    publisher.issue_over_connection(connection.connection_id, early)
    time.sleep(1.1)  # issuanceDate has second precision
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    user = agent_factory("user")
    report = user.request_proof(dataset.did.text, ["Data Ethically Sourced"],
                                endpoint=dataset.base_url)
    assert report.valid
    assert report.credential_reports[0].claims["Data Ethically Sourced"] == "YES"


def test_a_stored_credential_date_is_parsed_once_across_proofs(agent_factory, monkeypatch):
    publisher, dataset, connection = connected_pair(agent_factory)
    held = 3
    for _ in range(held):
        publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    user = agent_factory("user")
    user.connect(**dataset.invitation())
    parsed = []
    monkeypatch.setattr("datacred.agent.service.parse_timestamp",
                        lambda text: (parsed.append(text), parse_timestamp(text))[1])
    for _ in range(2):
        assert user.request_proof(dataset.did.text, ["Hash of Data"]).valid
    assert len(parsed) == held


def test_a_second_proof_verifies_only_the_fresh_signatures(agent_factory, verifies):
    publisher, dataset, connection = connected_pair(agent_factory)
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    user = agent_factory("user")
    user.connect(**dataset.invitation())
    assert user.request_proof(dataset.did.text, ["Hash of Data"]).valid
    verifies.clear()
    assert user.request_proof(dataset.did.text, ["Hash of Data"]).valid
    # The request envelope and the holder's proof carry fresh signatures; the credential
    # and the registry verified on the first proof. The reply is signed only by the
    # holder's proof.
    assert len(verifies) == 2


def test_a_second_proof_canonicalizes_and_signs_a_fixed_amount(agent_factory, monkeypatch):
    publisher, dataset, connection = connected_pair(agent_factory)
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    user = agent_factory("user")
    user.connect(**dataset.invitation())
    assert user.request_proof(dataset.did.text, ["Hash of Data"]).valid
    canonicalized, signed = [], []
    canonical, sign = proofs.canonicalize, proofs.sign
    monkeypatch.setattr(proofs, "canonicalize",
                        lambda value: (canonicalized.append(value), canonical(value))[1])
    monkeypatch.setattr(proofs, "sign", lambda *args: (signed.append(args), sign(*args))[1])
    assert user.request_proof(dataset.did.text, ["Hash of Data"]).valid
    # Signed, then checked: the request envelope and the holder's proof, which is the
    # reply's only signature. Checked only: the credential, whose signature is remembered
    # but whose bytes are hashed again. The registry is skipped whole: its bytes have not
    # changed.
    assert len(signed) == 2
    assert len(canonicalized) == 5


def test_request_proof_does_not_rewrite_state(agent_factory, monkeypatch):
    publisher, dataset, connection = connected_pair(agent_factory)
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    user = agent_factory("user")
    user.connect(**dataset.invitation())
    saves = count_saves(monkeypatch)
    assert user.request_proof(dataset.did.text, ["Hash of Data"]).valid
    with pytest.raises(NoMatchingCredential):
        user.request_proof(dataset.did.text, ["License"])
    assert saves == []


def test_state_file_with_nonces_still_loads(tmp_path):
    path = tmp_path / "agent.state.json"
    path.write_text(json.dumps({"connections": [], "nonces": {"a" * 32: time.time() + 60}}))
    state = AgentState(path)
    state.load()
    state.save()
    assert "nonces" not in json.loads(path.read_text())
    AgentState(path).load()


def test_state_file_drops_unfinished_connections(tmp_path):
    """Records a failed connect left behind under the invited/requested states."""
    def record(connection_id, state):
        return {"connectionId": connection_id, "myDid": "did:key:za", "theirDid": "did:key:zb",
                "theirEndpoint": "http://127.0.0.1:1", "state": state, "createdAt": 1.0}

    path = tmp_path / "agent.state.json"
    path.write_text(json.dumps({
        "connections": [record("done", "active"), record("stuck", "requested"),
                        record("new", "invited")],
        "nonces": {"a" * 32: time.time() + 60},
    }))
    state = AgentState(path)
    state.load()
    assert list(state.connections) == ["done"]
    state.save()
    assert [c["connectionId"] for c in json.loads(path.read_text())["connections"]] == ["done"]


@pytest.mark.parametrize("document", [
    {"connections": [{"state": "active"}]},
    {"connections": "active"},
    {"connections": {"a": 1}},
    {"connections": [1]},
    {"connections": [{"connectionId": 1, "myDid": "did:key:za", "theirDid": "did:key:zb",
                      "theirEndpoint": "http://127.0.0.1:1", "state": "active",
                      "createdAt": 1.0}]},
    {"registry": "r"},
    {"issued": {"x": 1}},
    {"issued": ["x"]},
], ids=["connection-without-id", "connections-string", "connections-object",
        "connection-number", "connection-id-number", "registry-string", "issued-object",
        "issued-string"])
def test_damaged_state_file_is_document_invalid_naming_it(tmp_path, document):
    path = tmp_path / "agent.state.json"
    path.write_text(json.dumps(document))
    with pytest.raises(DocumentInvalid, match=re.escape(str(path))):
        AgentState(path).load()


@pytest.mark.parametrize("members", [
    {"issued": None}, {"issued": []}, {"issued": [{"credentialId": "urn:uuid:1"}]},
    {"registry": None}, {"registry": {}}, {"issued": [], "registry": None},
], ids=["issued-null", "issued-empty", "issued", "registry-null", "registry-empty", "both"])
@pytest.mark.parametrize("logs", [False, True], ids=["no-logs", "logs"])
def test_a_state_document_from_before_the_logs_is_document_invalid(tmp_path, members, logs):
    path = tmp_path / "agent.state.json"
    path.write_text(json.dumps({"connections": [], **members}))
    state = AgentState(path)
    if logs:
        state.issued_path.write_bytes(b'{"credentialId": "urn:uuid:2"}\n')
        registry = sign_registry("did:web:publisher.example", [], generate_keypair())
        state.registry_path.write_bytes(json.dumps(registry.to_json()).encode() + b"\n")
    before = {p: p.read_bytes() for p in (path, state.issued_path, state.registry_path)
              if p.exists()}
    with pytest.raises(DocumentInvalid, match=re.escape(f"{path}: '{min(members)}'")):
        state.load()
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("line", [b"[1]\n", b"{not json\n"], ids=["array", "not-json"])
def test_damaged_issuance_log_is_document_invalid_naming_it(tmp_path, line):
    state = AgentState(tmp_path / "agent.state.json")
    state.issued_path.write_bytes(b'{"credentialId": "urn:uuid:1"}\n' + line)
    with pytest.raises(DocumentInvalid, match=re.escape(f"{state.issued_path}: line 2")):
        state.load()


def test_issuance_log_torn_tail_is_ignored_and_cut_by_the_next_append(tmp_path):
    path = tmp_path / "agent.state.json"
    state = AgentState(path)
    state.load()
    records = [{"credentialId": f"urn:uuid:{n}", "statusId": None} for n in range(3)]
    for record in records:
        state.record_issued(record)
    whole = state.issued_path.read_bytes()
    last_start = whole.rindex(b"\n", 0, len(whole) - 1) + 1
    for cut in range(last_start, len(whole)):
        state.issued_path.write_bytes(whole[:cut])
        reopened = AgentState(path)
        reopened.load()
        assert reopened.issued == records[:2]
        reopened.record_issued({"credentialId": "urn:uuid:after", "statusId": None})
        again = AgentState(path)
        again.load()
        assert again.issued == records[:2] + [{"credentialId": "urn:uuid:after", "statusId": None}]


def test_issue_appends_one_issuance_record_and_saves_no_state(agent_factory, monkeypatch):
    publisher, dataset, connection = connected_pair(agent_factory)
    saves = count_saves(monkeypatch)
    document = publisher.state.path.read_bytes()
    credentials = [publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
                   for _ in range(2)]
    assert saves == []
    assert publisher.state.path.read_bytes() == document
    lines = publisher.state.issued_path.read_bytes().splitlines()
    assert [json.loads(line)["credentialId"] for line in lines] == [c.id for c in credentials]
    assert [r["credentialId"] for r in publisher.status()["issued"]] == [c.id for c in credentials]
    publisher = agent_factory.restart(publisher)
    assert all(publisher.find_status_id(c.id) for c in credentials)


def test_status_lists_the_latest_issuance_records(agent_factory):
    publisher, dataset, connection = connected_pair(agent_factory)
    credentials = [publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
                   for _ in range(STATUS_ISSUED + 1)]
    status = publisher.status()
    assert status["issuedCount"] == STATUS_ISSUED + 1
    assert [r["credentialId"] for r in status["issued"]] == [c.id for c in credentials[1:]]


def test_stored_credentials_follow_direct_wallet_changes(agent_factory, monkeypatch):
    publisher, dataset, connection = connected_pair(agent_factory)
    first = publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    assert [vc.id for vc in dataset.stored_credentials()] == [first.id]
    parses = []
    parse = VerifiableCredential.from_json
    monkeypatch.setattr(VerifiableCredential, "from_json",
                        classmethod(lambda cls, obj: (parses.append(obj), parse(obj))[1]))
    assert [vc.id for vc in dataset.stored_credentials()] == [first.id]
    assert parses == []  # parsed once, at the first call

    def direct(claims):
        return issue_credential(publisher.key, publisher.did, dataset.did,
                                DATASET_PROVENANCE_V1, claims)

    added = direct(LISTING_CLAIMS)
    dataset.wallet.put(CREDENTIAL_LABEL_PREFIX + added.id, added.to_json())
    replacement = direct(dict(LISTING_CLAIMS, **{"Data Ethically Sourced": "NO"}))
    dataset.wallet.put(CREDENTIAL_LABEL_PREFIX + first.id, replacement.to_json())
    parses.clear()  # issuing parses too
    held = {vc.id: vc for vc in dataset.stored_credentials()}
    assert set(held) == {added.id, replacement.id}
    assert held[replacement.id].claims["Data Ethically Sourced"] == "NO"
    assert len(parses) == 2
    dataset.wallet.remove(CREDENTIAL_LABEL_PREFIX + added.id)
    assert [vc.id for vc in dataset.stored_credentials()] == [replacement.id]


def test_a_keypair_under_a_credential_label_is_not_a_credential(agent_factory):
    """A keypair stored as credential:k once made stored_credentials raise: the dataset
    agent's handler died on every proof request and GET /credentials answered 400."""
    publisher, dataset, connection = connected_pair(agent_factory)
    credential = publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    dataset.stop()
    keygen = CliRunner().invoke(main, ["keygen", "--wallet", dataset.config.wallet_path,
                                       "--label", CREDENTIAL_LABEL_PREFIX + "k"])
    assert keygen.exit_code == 0, keygen.output
    dataset = agent_factory.restart(dataset)
    user = agent_factory("user")
    user.connect(**dataset.invitation())
    report = user.request_proof(dataset.did.text, ["Hash of Data"])
    assert report.valid and report.credential_reports[0].credential_id == credential.id
    listed = requests.get(f"{dataset.base_url}/credentials", timeout=5)
    assert (listed.status_code, [vc["id"] for vc in listed.json()]) == (200, [credential.id])


@pytest.mark.parametrize("entry", [{"type": []}, {"type": "VerifiableCredential"}, [], "vc"],
                         ids=["no-credential-type", "string-type", "list", "string"])
def test_a_wallet_entry_that_does_not_parse_is_not_presented(agent_factory, entry):
    """{"type": []} under a credential label used to kill the proof handler: request_proof
    raised Unreachable (no reply) and GET /credentials answered 400."""
    publisher, dataset, connection = connected_pair(agent_factory)
    credential = publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    dataset.wallet.put(CREDENTIAL_LABEL_PREFIX + "bad", entry)
    user = agent_factory("user")
    user.connect(**dataset.invitation())
    report = user.request_proof(dataset.did.text, ["Hash of Data"])
    assert report.valid and report.credential_reports[0].credential_id == credential.id
    listed = requests.get(f"{dataset.base_url}/credentials", timeout=5)
    assert (listed.status_code, [vc["id"] for vc in listed.json()]) == (200, [credential.id])


def test_a_handler_failing_with_any_datacred_error_answers_a_problem_report(agent_factory,
                                                                           monkeypatch):
    """A handler's DatacredError that is not an AgentError used to end the handler with no
    reply, which the requester read as Unreachable."""
    publisher, dataset, connection = connected_pair(agent_factory)
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)

    def unreadable():
        raise CorruptWallet("wallet record 3 fails to authenticate")

    monkeypatch.setattr(dataset, "stored_credentials", unreadable)
    with pytest.raises(AgentError, match="CorruptWallet: wallet record 3") as refused:
        publisher.request_proof(dataset.did.text, ["Hash of Data"])
    assert type(refused.value) is AgentError  # not Unreachable


def test_a_direct_put_and_remove_between_proofs_move_the_answer(agent_factory):
    publisher, dataset, _ = connected_pair(agent_factory)
    user = agent_factory("user")
    user.connect(**dataset.invitation())
    older, newer = (issue_credential(publisher.key, publisher.did, dataset.did,
                                     DATASET_PROVENANCE_V1, LISTING_CLAIMS,
                                     issuance_date=f"2024-01-0{day}T00:00:00Z")
                    for day in (1, 2))

    def presented() -> str:
        report = user.request_proof(dataset.did.text, ["Hash of Data"])
        assert report.valid, report.reasons()
        return report.credential_reports[0].credential_id

    dataset.wallet.put(CREDENTIAL_LABEL_PREFIX + older.id, older.to_json())
    assert presented() == older.id
    dataset.wallet.put(CREDENTIAL_LABEL_PREFIX + newer.id, newer.to_json())
    assert presented() == newer.id
    dataset.wallet.remove(CREDENTIAL_LABEL_PREFIX + newer.id)
    assert presented() == older.id


_DATES = ["2024-01-01T00:00:00Z", "2024-01-02T00:00:00Z", "2024-01-03T00:00:00Z", "unreadable"]
_ATTRIBUTES = ["A", "B", "C"]


@pytest.fixture
def answering_dataset(agent_factory):
    """A dataset agent connected to a publisher, and a credential of that publisher's."""
    publisher, dataset, _ = connected_pair(agent_factory)
    template = issue_credential(publisher.key, publisher.did, dataset.did,
                                DATASET_PROVENANCE_V1, LISTING_CLAIMS).to_json()
    return publisher, dataset, template


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(held=st.lists(st.tuples(st.text("abc", min_size=1, max_size=3), st.sampled_from(_DATES),
                               st.sets(st.sampled_from(_ATTRIBUTES)), st.booleans()),
                     max_size=8, unique_by=lambda entry: entry[0]),
       requested=st.sets(st.sampled_from(_ATTRIBUTES), max_size=2),
       explicit=st.booleans(), keypair_too=st.booleans())
def test_the_answer_is_the_newest_covering_sharable_credential(
        answering_dataset, held, requested, explicit, keypair_too):
    """The presented credential is max(candidates, key=issuance date) over the sharable,
    covering credentials in label order: on equal dates the first label wins, and an
    unreadable date counts as earliest."""
    publisher, dataset, template = answering_dataset
    for label in dataset.wallet.list():
        if label.startswith(CREDENTIAL_LABEL_PREFIX):
            dataset.wallet.remove(label)
    if keypair_too:
        dataset.wallet.put(CREDENTIAL_LABEL_PREFIX + "key", generate_keypair(bytes(32)))
    entries = {}
    for n, (suffix, date, claims, _) in enumerate(held):
        entries[CREDENTIAL_LABEL_PREFIX + suffix] = entry = dict(
            template, id=f"urn:uuid:{n}", issuanceDate=date,
            credentialSubject={"id": dataset.did.text, **{name: "v" for name in claims}})
        dataset.wallet.put(CREDENTIAL_LABEL_PREFIX + suffix, entry)
    sharable = [f"urn:uuid:{n}" for n, entry in enumerate(held) if entry[3]]
    dataset.config.policy = Policy(sharable_credential_ids=sharable if explicit else "all")

    def issued(entry):
        try:
            return parse_timestamp(entry["issuanceDate"])
        except ValueError:
            return datetime.min.replace(tzinfo=timezone.utc)

    candidates = [entry for _, entry in sorted(entries.items())
                  if (not explicit or entry["id"] in sharable)
                  and all(name in entry["credentialSubject"] for name in requested)]
    expected = max(candidates, key=issued)["id"] if candidates else None
    request = SimpleNamespace(sender=publisher.did.text,
                              body={"challenge": "c", "requestedAttributes": sorted(requested)})
    try:
        presentation = dataset._on_proof_request(request)["presentation"]
        answer = presentation["verifiableCredential"][0]["id"]
    except NoMatchingCredential:
        answer = None
    assert answer == expected


@pytest.mark.parametrize("change, key", [
    ({"allowInsecureHttp": "false"}, "allowInsecureHttp"),
    ({"policy": {"autoAcceptConnections": "false"}}, "autoAcceptConnections"),
    ({"listenPort": "8080"}, "listenPort"),
    ({"listenPort": True}, "listenPort"),
    ({"listenPort": 65536}, "listenPort"),
    ({"listenPort": -1}, "listenPort"),
    ({"walletPath": 5}, "walletPath"),
    ({"passphraseEnv": None}, "passphraseEnv"),
    ({"listenHost": 127}, "listenHost"),
    ({"publicBaseUrl": ["https://data.example"]}, "publicBaseUrl"),
    ({"webDomain": 1}, "webDomain"),
    ({"statePath": False}, "statePath"),
    ({"keyLabel": None}, "keyLabel"),
    ({"policy": []}, "policy"),
    ({"policy": {"sharableCredentialIds": "urn:uuid:1"}}, "sharableCredentialIds"),
    ({"policy": {"sharableCredentialIds": [1]}}, "sharableCredentialIds"),
], ids=["insecure-string", "auto-accept-string", "port-string", "port-bool", "port-high",
        "port-negative", "wallet-int", "passphrase-env-null", "host-int", "base-url-list",
        "web-domain-int", "state-path-bool", "key-label-null", "policy-list",
        "sharable-string", "sharable-int"])
def test_config_value_of_wrong_type_is_bad_config_naming_the_key(change, key):
    """A truthy "false" used to turn on plain http and auto-accepted connections."""
    with pytest.raises(BadConfig, match=key):
        AgentConfig.from_json({"role": "dataset", "walletPath": "w", **change})


def test_agent_refuses_a_config_of_wrong_type():
    with pytest.raises(BadConfig, match="autoAcceptConnections"):
        Agent(AgentConfig(role="dataset", wallet_path="w",
                          policy=Policy(auto_accept_connections="false")))


def test_config_with_cache_ttl_still_loads():
    config = AgentConfig.from_json({"role": "user", "walletPath": "u.wallet", "cacheTtl": 0})
    assert "cacheTtl" not in config.to_json()
    assert config == AgentConfig(role="user", wallet_path="u.wallet")


def test_config_with_nonce_ttl_still_loads():
    config = AgentConfig.from_json(
        {"role": "user", "walletPath": "u.wallet",
         "policy": {"autoAcceptConnections": False, "nonceTtl": 120}}
    )
    assert config.policy == Policy(auto_accept_connections=False)
    assert "nonceTtl" not in config.to_json()["policy"]


def test_captured_response_cannot_satisfy_second_request(agent_factory):
    """A proof-response is bound to the challenge of the request it answers;
    replaying the response against any later request fails the comparison."""
    publisher, dataset, connection = connected_pair(agent_factory)
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    user = agent_factory("user")
    connection_to_ds = user.connect(**dataset.invitation())

    challenge = "a" * 32
    envelope = build_envelope(
        user.key, user.did.text, dataset.did.text, PROOF_REQUEST,
        {"requestedAttributes": ["Hash of Data"], "challenge": challenge},
    )
    captured = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5).json()
    presentation = captured["body"]["presentation"]

    # verifying against the challenge it answers succeeds
    from datacred.presentation import VerifiablePresentation, verify_presentation

    vp = VerifiablePresentation.from_json(presentation)
    assert verify_presentation(vp, challenge, user.resolver,
                               registry_source=user.registry_source).valid
    # a second request carries a fresh challenge; the captured response fails
    fresh = "b" * 32
    report = verify_presentation(vp, fresh, user.resolver,
                                 registry_source=user.registry_source)
    assert not report.valid
    assert report.checks["challenge"].reason == "ChallengeMismatch"


def test_a_proof_response_is_signed_once_by_a_presentation_naming_the_requester(
        agent_factory):
    """The reply carried a signed envelope around the signed presentation."""
    publisher, dataset, connection = connected_pair(agent_factory)
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    user = agent_factory("user")
    user.connect(**dataset.invitation())
    envelope = build_envelope(user.key, user.did.text, dataset.did.text, PROOF_REQUEST,
                              {"requestedAttributes": ["Hash of Data"], "challenge": "a" * 32})
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    reply = response.json()
    assert response.status_code == 200
    assert sorted(reply) == ["body", "from", "to", "type"]
    assert (reply["type"], reply["from"], reply["to"]) == (PROOF_RESPONSE, dataset.did.text,
                                                           user.did.text)
    proof = reply["body"]["presentation"]["proof"]
    assert (proof["challenge"], proof["domain"]) == ("a" * 32, user.did.text)


def user_asking_through(agent_factory, endpoint: str):
    """(publisher, dataset, user): the dataset agent holds a credential, and the user's
    connection to it points at endpoint."""
    publisher, dataset, connection = connected_pair(agent_factory)
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    user = agent_factory("user")
    user.state.add_connection(Connection("c-user", user.did.text, dataset.did.text, endpoint))
    return publisher, dataset, user


def test_a_presentation_relayed_from_another_requester_is_refused(agent_factory, json_server,
                                                                  monkeypatch):
    """A relay connected to the dataset agent passes on the user's challenge as its own and
    hands the user the answer. The dataset agent had signed it as the envelope's sender, so
    the user got a Valid report."""
    _, dataset, user = user_asking_through(agent_factory, json_server.url(""))
    relay = agent_factory("user", name="relay")
    relay.connect(**dataset.invitation())
    monkeypatch.setattr("datacred.agent.service.new_challenge", lambda: "c" * 32)
    envelope = build_envelope(relay.key, relay.did.text, dataset.did.text, PROOF_REQUEST,
                              {"requestedAttributes": ["Hash of Data"], "challenge": "c" * 32})
    answer = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5).json()
    json_server.set("/inbox", {**answer, "to": user.did.text})
    with pytest.raises(SignatureInvalid, match="not bound to this challenge and requester"):
        user.request_proof(dataset.did.text, ["Hash of Data"])


def test_an_altered_presentation_is_refused_not_reported_invalid(agent_factory, monkeypatch):
    """The reply's envelope signature held, so the altered presentation was an Invalid report."""
    def altered(*args, **kwargs):
        presentation = create_presentation(*args, **kwargs)
        return dataclasses.replace(
            presentation, proof=presentation.proof._replace(created="2020-01-01T00:00:00Z"))

    monkeypatch.setattr("datacred.agent.service.create_presentation", altered)
    publisher, dataset, connection = connected_pair(agent_factory)
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    user = agent_factory("user")
    user.connect(**dataset.invitation())
    resolve, resolved, fetched = user.resolver.resolve, [], []
    monkeypatch.setattr(user.resolver, "resolve", lambda did: resolved.append(did) or resolve(did))
    monkeypatch.setattr(user.registry_source, "fetch", fetched.append)
    with pytest.raises(SignatureInvalid, match="SignatureMismatch"):
        user.request_proof(dataset.did.text, ["Hash of Data"])
    # The issuer's DID and registry are read only for a presentation its holder signed.
    assert (publisher.did.text in resolved, fetched) == (False, [])


def test_an_unsigned_problem_report_answering_a_proof_request_is_refused(agent_factory,
                                                                         json_server):
    """Only a proof response goes without an envelope proof."""
    _, dataset, user = user_asking_through(agent_factory, json_server.url(""))
    json_server.set("/inbox", {"id": "r-1", "type": PROBLEM_REPORT, "from": dataset.did.text,
                               "to": user.did.text, "createdAt": "2026-01-01T00:00:00Z",
                               "body": {"code": "NoMatchingCredential", "detail": "none"}})
    with pytest.raises(SignatureInvalid, match="MissingProof"):
        user.request_proof(dataset.did.text, ["Hash of Data"])


def envelope_created_at(sender, receiver, created_at: str, body: dict) -> dict:
    """A proof request from sender to receiver, signed by sender, created at created_at."""
    envelope = MessageEnvelope(id="e-1", type=PROOF_REQUEST, sender=sender.did.text,
                               recipient=receiver.did.text, created_at=created_at, body=body)
    return attach_proof(envelope.to_json(), sender.key, sender.did.text, AUTHENTICATION)


@pytest.mark.parametrize("created_at", ["1999-01-01T00:00:00Z", "2999-01-01T00:00:00Z",
                                        "yesterday", "2026-13-01T00:00:00Z"],
                         ids=["past", "future", "not-a-timestamp", "no-such-date"])
def test_a_stale_proof_request_is_refused_before_anything_is_resolved(agent_factory,
                                                                      monkeypatch, created_at):
    """A captured proof request was answered whenever it was replayed: one created in
    1999 got a presentation of the dataset's newest credential."""
    publisher, dataset, connection = connected_pair(agent_factory)
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    resolve, resolved = dataset.resolver.resolve, []
    monkeypatch.setattr(dataset.resolver, "resolve",
                        lambda did: resolved.append(did) or resolve(did))
    envelope = envelope_created_at(publisher, dataset, created_at,
                                   {"requestedAttributes": ["Hash of Data"], "challenge": "e" * 32})
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    assert (response.status_code, response.json()["error"]) == (400, "StaleMessage")
    assert resolved == []


def test_a_proof_request_within_the_window_is_answered(agent_factory):
    publisher, dataset, connection = connected_pair(agent_factory)
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    created = format_timestamp(utc_now() - timedelta(seconds=MESSAGE_WINDOW - 30))
    envelope = envelope_created_at(publisher, dataset, created,
                                   {"requestedAttributes": ["Hash of Data"], "challenge": "e" * 32})
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    assert (response.status_code, response.json()["type"]) == (200, PROOF_RESPONSE)


def test_proof_request_without_connection_rejected(agent_factory):
    publisher, dataset, connection = connected_pair(agent_factory)
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    stranger = agent_factory("user")
    envelope = build_envelope(
        stranger.key, stranger.did.text, dataset.did.text, PROOF_REQUEST,
        {"requestedAttributes": ["Hash of Data"], "challenge": "e" * 32},
    )
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    assert response.status_code == 400
    assert response.json()["error"] == "ConnectionInactive"


@pytest.mark.parametrize("message_type, body", [
    (PROOF_REQUEST, {"requestedAttributes": ["Hash of Data"], "challenge": 5}),
    (PROOF_REQUEST, {"requestedAttributes": 7, "challenge": "e" * 32}),
    (PROOF_REQUEST, {"requestedAttributes": [["Hash of Data"]], "challenge": "e" * 32}),
    (CREDENTIAL_ISSUE, {"connectionId": [1], "credential": {}}),
    (CONNECTION_REQUEST, {"connectionId": [1], "endpoint": "http://127.0.0.1:1"}),
    (CONNECTION_REQUEST, {"endpoint": 5}),
], ids=["challenge-int", "attributes-int", "attribute-list", "issue-connection-id-list",
        "connect-connection-id-list", "endpoint-int"])
def test_malformed_body_gets_problem_report(agent_factory, message_type, body):
    """A signed envelope from a connected peer with a mistyped field is answered, not dropped."""
    publisher, dataset, connection = connected_pair(agent_factory)
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    envelope = build_envelope(
        publisher.key, publisher.did.text, dataset.did.text, message_type, body
    )
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    assert response.status_code == 400
    assert sorted(response.json()) == ["detail", "error"]
    assert response.json()["error"] == "BadRequest"
    assert len(dataset.list_connections()) == 1


@pytest.mark.parametrize("message_type, body, unknown", [
    (PROOF_REQUEST, {"requestedattributes": ["Country"], "challenge": "e" * 32},
     "requestedattributes"),
    (CREDENTIAL_ISSUE, {"connectionId": None, "credential": {}, "credentialid": "x"},
     "credentialid"),
    (CONNECTION_REQUEST, {"endpoint": "http://127.0.0.1:1", "connectionid": "c"}, "connectionid"),
], ids=["proof-request", "credential-issue", "connection-request"])
def test_an_inbox_body_with_an_unknown_member_is_refused_naming_it(agent_factory, message_type,
                                                                   body, unknown):
    """A misspelled requestedAttributes was dropped, and the newest credential presented."""
    publisher, dataset, connection = connected_pair(agent_factory)
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    if "connectionId" in body:
        body["connectionId"] = connection.connection_id
    envelope = build_envelope(
        publisher.key, publisher.did.text, dataset.did.text, message_type, body
    )
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    assert (response.status_code, response.json()) == (
        400, {"error": "BadRequest", "detail": f"unknown member {unknown!r}"})
    assert len(dataset.list_connections()) == len(dataset.list_credentials()) == 1


def test_credential_with_non_object_subject_gets_problem_report(agent_factory):
    publisher, dataset, connection = connected_pair(agent_factory)
    credential = {"type": ["VerifiableCredential"], "credentialSubject": ["abc"]}
    envelope = build_envelope(
        publisher.key, publisher.did.text, dataset.did.text, CREDENTIAL_ISSUE,
        {"connectionId": connection.connection_id, "credential": credential},
    )
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    assert response.status_code == 400
    assert sorted(response.json()) == ["detail", "error"]
    assert response.json()["error"] == "CredentialRejected"
    assert dataset.list_credentials() == []


@pytest.mark.parametrize("payload", [5, [], "envelope"], ids=["int", "list", "string"])
def test_non_object_envelope_gets_problem_report(agent_factory, payload):
    dataset = agent_factory("dataset")
    response = requests.post(dataset.base_url + "/inbox", json=payload, timeout=5)
    assert response.status_code == 400
    assert response.json()["error"] == "SignatureInvalid"


def stub_did(json_server) -> str:
    """A did:web whose document would be fetched from json_server."""
    return "did:web:" + json_server.host.replace(":", "%3A")


def test_an_envelope_to_another_did_is_refused_before_its_sender_is_resolved(agent_factory,
                                                                              json_server):
    """The inbox fetched the sender's did:web document first."""
    dataset = agent_factory("dataset")
    envelope = build_envelope(generate_keypair(), stub_did(json_server), "did:web:other.example",
                              CONNECTION_REQUEST, {"connectionId": "c", "endpoint": "http://x"})
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    assert response.status_code == 400
    assert response.json()["error"] == "WrongRecipient"
    # A refused envelope's from is only claimed, so the refusal is addressed to no one.
    assert sorted(response.json()) == ["detail", "error"]
    assert json_server.request_count == 0
    assert dataset.list_connections() == []


@pytest.mark.parametrize("message_type, code", [
    (PROOF_REQUEST, "ConnectionInactive"),
    (CREDENTIAL_ISSUE, "ConnectionInactive"),
    (f"{PROOF_REQUEST}-v2", "UnsupportedMessage"),
], ids=["proof-request", "credential-issue", "unknown-type"])
def test_an_unconnected_sender_is_refused_before_it_is_resolved(agent_factory, json_server,
                                                                message_type, code):
    """The inbox fetched the sender's did:web document before any check but the recipient."""
    dataset = agent_factory("dataset")
    envelope = build_envelope(generate_keypair(), stub_did(json_server), dataset.did.text,
                              message_type, {"connectionId": "c", "challenge": "e" * 32})
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    assert json_server.request_count == 0
    assert (response.status_code, response.json()["error"]) == (400, code)


def test_a_requester_its_peer_cannot_resolve_reads_the_peers_refusal(agent_factory):
    """The peer signed its refusal to unknown, so the requester read WrongRecipient."""
    dataset = agent_factory("dataset", allow_insecure_http=False)
    user = agent_factory("user")  # a did:web on plain http, which dataset does not fetch
    with pytest.raises(SignatureInvalid, match="^SignatureInvalid: .*SenderUnresolvable"):
        user.connect(**dataset.invitation())
    assert dataset.list_connections() == user.list_connections() == []


# A body that is JSON to json.loads but not I-JSON: each change goes into the body member.
NOT_I_JSON = {"repeated": '"body": {"endpoint": "http://evil.example", ',
              "nan": '"body": {"n": NaN, ', "surrogate": '"body": {"s": "\\ud800", '}


@pytest.mark.parametrize("change", sorted(NOT_I_JSON))
def test_an_inbox_body_that_is_not_i_json_is_refused_before_its_sender_is_resolved(
        agent_factory, json_server, change):
    """json.loads read it, and the inbox fetched the sender's did:web document."""
    dataset = agent_factory("dataset")
    envelope = build_envelope(generate_keypair(), stub_did(json_server), dataset.did.text,
                              CONNECTION_REQUEST, {"connectionId": "c", "endpoint": "http://x"})
    text = json.dumps(envelope).replace('"body": {', NOT_I_JSON[change], 1)
    response = requests.post(dataset.base_url + "/inbox", data=text.encode(), timeout=5,
                             headers={"Content-Type": "application/json"})
    assert response.status_code == 400
    assert response.json()["error"] == "SignatureInvalid"  # a malformed envelope
    assert json_server.request_count == 0
    assert dataset.list_connections() == []


@pytest.mark.parametrize("change", sorted(NOT_I_JSON))
def test_a_reply_that_is_not_i_json_is_refused_before_anything_is_resolved(
        agent_factory, json_server, monkeypatch, change):
    """json.loads read it: the signature was checked, and the connection recorded."""
    publisher = agent_factory("publisher")
    key = generate_keypair()
    did = generate_did_key(key.public_key)[0].text
    reply = build_envelope(key, did, publisher.did.text, CONNECTION_RESPONSE,
                           {"connectionId": "c", "endpoint": json_server.url("")})
    json_server.set("/inbox", json.dumps(reply).replace('"body": {', NOT_I_JSON[change], 1)
                    .encode())
    resolved = []
    monkeypatch.setattr(publisher.resolver, "resolve", resolved.append)
    with pytest.raises(SignatureInvalid, match="malformed envelope"):
        publisher.connect(did=did, endpoint=json_server.url(""))
    assert resolved == []
    assert publisher.list_connections() == []


@pytest.mark.parametrize("change", ["proof-field", "float"])
def test_a_signed_reply_that_cannot_be_checked_is_signature_invalid(agent_factory, json_server,
                                                                    change):
    """MalformedSignature and NonIntegerNumber escaped from connect as themselves."""
    publisher = agent_factory("publisher")
    key = generate_keypair()
    did = generate_did_key(key.public_key)[0].text
    reply = build_envelope(key, did, publisher.did.text, CONNECTION_RESPONSE,
                           {"connectionId": "c", "endpoint": json_server.url("")})
    if change == "proof-field":
        reply["proof"]["verificationMethod"] = 5
    else:
        reply["body"]["x"] = 1.5
    json_server.set("/inbox", reply)
    with pytest.raises(SignatureInvalid, match="malformed envelope"):
        publisher.connect(did=did, endpoint=json_server.url(""))
    assert publisher.list_connections() == []


@pytest.mark.parametrize("reply_type", [CONNECTION_RESPONSE, CREDENTIAL_ACK, PROBLEM_REPORT])
def test_a_signed_reply_addressed_to_another_did_is_refused(agent_factory, json_server,
                                                            reply_type):
    """A signed reply was read whatever its to said."""
    publisher = agent_factory("publisher")
    key = generate_keypair()
    did = generate_did_key(key.public_key)[0].text
    other = generate_did_key(generate_keypair().public_key)[0].text
    body = {CONNECTION_RESPONSE: {"connectionId": "c-1", "endpoint": json_server.url("")},
            CREDENTIAL_ACK: {"credentialId": "urn:uuid:1"},
            PROBLEM_REPORT: {"code": "PolicyRejected", "detail": "refused"}}[reply_type]
    json_server.set("/inbox", build_envelope(key, did, other, reply_type, body))
    with pytest.raises(WrongRecipient, match=f"addressed to {other}"):
        if reply_type == CREDENTIAL_ACK:
            publisher.state.add_connection(
                Connection("c-1", publisher.did.text, did, json_server.url("")))
            publisher.issue_over_connection("c-1", LISTING_CLAIMS)
        else:
            publisher.connect(did=did, endpoint=json_server.url(""))


def test_a_reply_from_another_did_is_refused_before_it_is_resolved(agent_factory, json_server):
    """The reply's did:web sender was resolved, and only then compared with the peer."""
    publisher = agent_factory("publisher")
    did = generate_did_key(generate_keypair().public_key)[0].text
    json_server.set("/inbox", build_envelope(generate_keypair(), stub_did(json_server),
                                             publisher.did.text, CONNECTION_RESPONSE,
                                             {"connectionId": "c-1", "endpoint": "http://x"}))
    with pytest.raises(SignatureInvalid, match=f"expected {did}"):
        publisher.connect(did=did, endpoint=json_server.url(""))
    assert json_server.request_count == 1  # the POST to /inbox
    assert publisher.list_connections() == []


def test_a_connection_response_naming_another_connection_is_refused(agent_factory,
                                                                    json_server):
    """The peer signed its reply, but it accepted a connection the publisher never proposed."""
    publisher = agent_factory("publisher")
    key = generate_keypair()
    did = generate_did_key(key.public_key)[0].text
    json_server.set("/inbox", build_envelope(key, did, publisher.did.text, CONNECTION_RESPONSE,
                                             {"connectionId": "c-other", "endpoint": "http://x"}))
    with pytest.raises(AgentError, match="accepted .c-other."):
        publisher.connect(did=did, endpoint=json_server.url(""))
    assert publisher.list_connections() == []


def raw_post(base_url: str, content_length: str) -> bytes:
    """POST /inbox with only headers sent; everything the agent answers before hanging up."""
    parts = urlsplit(base_url)
    with socket.create_connection((parts.hostname, parts.port), timeout=3) as sock:
        sock.sendall(
            f"POST /inbox HTTP/1.1\r\nHost: {parts.netloc}\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode()
        )
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.parametrize("content_length, status", [
    ("-1", 400),
    ("twelve", 400),
    (str(MAX_BODY_BYTES + 1), 413),
])
def test_inbound_body_length_checked_before_reading(agent_factory, content_length, status):
    dataset = agent_factory("dataset")
    answer = raw_post(dataset.base_url, content_length)
    assert answer.startswith(f"HTTP/1.1 {status} ".encode())
    assert b"Connection: close" in answer


def test_concurrent_proof_requests(agent_factory):
    import concurrent.futures

    publisher, dataset, connection = connected_pair(agent_factory)
    publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    users = [agent_factory("user", name=f"user{i}") for i in range(4)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        reports = list(
            pool.map(
                lambda user: user.request_proof(
                    dataset.did.text, ["Hash of Data"], endpoint=dataset.base_url
                ),
                users,
            )
        )
    assert all(report.valid for report in reports)
    assert {tuple(report.issuers) for report in reports} == {(publisher.did.text,)}


# --- revocation via agents ---

def test_revocation_via_live_agents(agent_factory):
    publisher, dataset, connection = connected_pair(agent_factory)
    credential = publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    user = agent_factory("user")
    first = user.request_proof(dataset.did.text, ["Hash of Data"], endpoint=dataset.base_url)
    assert first.valid

    publisher.revoke_status(publisher.find_status_id(credential.id))
    second = user.request_proof(dataset.did.text, ["Hash of Data"])
    assert not second.valid
    assert "Revoked" in second.reasons()


def test_revoke_requires_publisher(agent_factory):
    user = agent_factory("user")
    with pytest.raises(RoleForbidden):
        user.revoke_status("s")


# --- crash consistency ---

def test_one_sided_connection_gives_deterministic_error(agent_factory):
    publisher, dataset, connection = connected_pair(agent_factory)
    # dataset loses its state (simulated crash before any save survived)
    dataset.config.resolved_state_path().unlink()
    dataset = agent_factory.restart(dataset)
    with pytest.raises(ConnectionInactive):
        publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)


# --- admin HTTP API ---

def test_admin_endpoints(agent_factory):
    publisher, dataset, connection = connected_pair(agent_factory)
    credential = publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    user = agent_factory("user")

    status = requests.get(publisher.base_url + "/status", timeout=5).json()
    assert status["role"] == "publisher" and status["connections"] == 1
    assert status["registryUrl"].endswith("/registry")

    connections = requests.get(dataset.base_url + "/connections", timeout=5).json()
    assert len(connections) == 1 and connections[0]["state"] == "active"

    credentials = requests.get(dataset.base_url + "/credentials", timeout=5).json()
    assert len(credentials) == 1

    # user agent drives a proof request through its admin API
    response = requests.post(
        user.base_url + "/request-proof",
        json={
            "target": dataset.did.text,
            "attributes": ["Hash of Data"],
            "endpoint": dataset.base_url,
        },
        timeout=30,
    )
    assert response.status_code == 200
    assert response.json()["overall"] == "Valid"
    assert response.json()["issuers"] == [publisher.did.text]

    # publisher-only operation through a non-publisher agent
    forbidden = requests.post(
        user.base_url + "/revoke", json={"statusId": "s"}, timeout=5
    )
    assert forbidden.status_code == 403

    # revoke through admin API by credential id
    revoked = requests.post(
        publisher.base_url + "/revoke", json={"credentialId": credential.id}, timeout=5
    )
    assert revoked.status_code == 200
    assert publisher.find_status_id(credential.id) in revoked.json()["revoked"]

    registry = requests.get(publisher.base_url + "/registry", timeout=5).json()
    assert registry["issuer"] == publisher.did.text


def test_registry_not_served_by_non_publishers(agent_factory):
    dataset = agent_factory("dataset")
    assert requests.get(dataset.base_url + "/registry", timeout=5).status_code == 404


def test_admin_bad_json(agent_factory):
    dataset = agent_factory("dataset")
    response = requests.post(
        dataset.base_url + "/inbox",
        data=b"{broken",
        headers={"Content-Type": "application/json"},
        timeout=5,
    )
    assert response.status_code == 400


@pytest.mark.parametrize("route", ["/connect", "/issue", "/request-proof", "/revoke"])
def test_admin_post_with_non_object_body_is_bad_request(agent_factory, route):
    publisher = agent_factory("publisher")
    response = requests.post(publisher.base_url + route, json=[], timeout=5)
    assert response.status_code == 400
    assert response.json()["error"] == "BadRequest"


@pytest.mark.parametrize("route, body", [
    ("/connect", {"did": 5, "endpoint": "http://127.0.0.1:1"}),
    ("/connect", {"endpoint": "http://127.0.0.1:1"}),
    ("/issue", {"connectionId": [1], "claims": {}}),
    ("/issue", {"connectionId": "c", "claims": ["Hash of Data"]}),
    ("/issue", {"connectionId": "c", "claims": {}, "schema": "dataset-provenance-v1"}),
    ("/request-proof", {"target": "did:key:z6Mk", "attributes": "Hash of Data"}),
    ("/request-proof", {"target": "did:key:z6Mk", "attributes": [1]}),
    ("/request-proof", {"target": ["did:key:z6Mk"]}),
    ("/revoke", {"statusId": 5}),
    ("/revoke", {"credentialId": {"id": "urn:uuid:x"}}),
    ("/connect", {"did": "did:key:z6Mk", "endpoint": "http://127.0.0.1:1", "endpiont": "x"}),
    ("/issue", {"connectionId": "c", "claims": {}, "expirationdate": "2020-01-01T00:00:00Z"}),
    ("/request-proof", {"target": "did:key:z6Mk", "attribute": ["Hash of Data"]}),
    ("/revoke", {"statusId": "s", "credentialid": "urn:uuid:x"}),
], ids=["connect-did-int", "connect-did-missing", "issue-connection-id-list",
        "issue-claims-list", "issue-schema-string", "proof-attributes-string",
        "proof-attribute-int", "proof-target-list", "revoke-status-id-int",
        "revoke-credential-id-object", "connect-unknown-member", "issue-unknown-member",
        "proof-unknown-member", "revoke-unknown-member"])
def test_admin_post_with_mistyped_field_is_bad_request(agent_factory, route, body):
    """Admin bodies follow the inbox's type rule: answered 400, never dropped or coerced."""
    publisher = agent_factory("publisher")
    response = requests.post(publisher.base_url + route, json=body, timeout=5)
    assert response.status_code == 400, response.text
    assert response.json()["error"] == "BadRequest"
    assert publisher.list_connections() == []


def test_admin_issue_with_a_misspelled_member_names_it_and_issues_nothing(agent_factory):
    """The admin bodies dropped a member they did not read: "expirationdate" was answered
    200 with a credential that never expires."""
    publisher, dataset, connection = connected_pair(agent_factory)
    body = {"connectionId": connection.connection_id, "claims": LISTING_CLAIMS,
            "expirationdate": "2020-01-01T00:00:00Z"}
    response = requests.post(publisher.base_url + "/issue", json=body, timeout=30)
    assert response.status_code == 400, response.text
    assert response.json() == {"error": "BadRequest",
                               "detail": "unknown member 'expirationdate'"}
    assert publisher.state.issued == [] and dataset.stored_credentials() == []


def test_admin_issue_gives_a_revocable_credential_whatever_with_status_says(agent_factory):
    """withStatus is no longer read: false gave a credential with no credentialStatus,
    which no registry could revoke."""
    publisher, dataset, connection = connected_pair(agent_factory)
    body = {"connectionId": connection.connection_id, "claims": LISTING_CLAIMS,
            "withStatus": False}
    issued = requests.post(publisher.base_url + "/issue", json=body, timeout=30)
    assert issued.status_code == 200, issued.text
    status = issued.json()["credentialStatus"]
    assert status["registry"] == publisher.base_url + "/registry"
    revoked = requests.post(publisher.base_url + "/revoke",
                            json={"credentialId": issued.json()["id"]}, timeout=5)
    assert revoked.status_code == 200, revoked.text
    assert revoked.json()["revoked"] == [status["statusId"]]
    report = agent_factory("user").request_proof(dataset.did.text, ["Hash of Data"],
                                                 endpoint=dataset.base_url)
    assert report.credential_reports[0].checks["revocation"].reason == "Revoked"


@pytest.mark.parametrize("change, detail", [
    ({"name": None}, "malformed schema: fields must be strings: 'name' is null"),
    ({"attributes": [{"name": "Hash of Data", "kind": "ab"}]},
     "malformed schema: schema dataset-provenance-v1: unknown kind 'ab' for 'Hash of Data'"),
], ids=["mistyped", "unknown-kind"])
def test_admin_issue_with_a_malformed_schema_block_is_document_invalid(agent_factory, change,
                                                                       detail):
    """A mistyped schema block was answered SchemaMismatch, the code of claims that do not
    meet a schema; its unknown member was already DocumentInvalid."""
    publisher = agent_factory("publisher")
    body = {"connectionId": "c", "claims": {},
            "schema": {**DATASET_PROVENANCE_V1.to_json(), **change}}
    response = requests.post(publisher.base_url + "/issue", json=body, timeout=5)
    assert response.status_code == 400, response.text
    assert response.json() == {"error": "DocumentInvalid", "detail": detail}
