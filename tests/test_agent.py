"""Agent service: provisioning, connections, issuance, proof exchange, admin API."""

import json
import pathlib
import re
import socket
import time
from urllib.parse import urlsplit

import pytest
import requests

from datacred.agent.envelopes import (
    CONNECTION_REQUEST,
    CREDENTIAL_ISSUE,
    PROBLEM_REPORT,
    PROOF_REQUEST,
    build_envelope,
)
from datacred.agent.service import MAX_BODY_BYTES
from datacred.agent.state import AgentState
from datacred.agent.config import AgentConfig, Policy
from datacred.credential import DATASET_PROVENANCE_V1, issue_credential
from datacred.errors import (
    AgentError,
    BadConfig,
    ConnectionInactive,
    CredentialRejected,
    DatacredError,
    NoMatchingCredential,
    PolicyRejected,
    PortInUse,
    RoleForbidden,
    SignatureInvalid,
    Unreachable,
)
from datacred.fingerprint import fingerprint_bytes
from datacred.proofs import ASSERTION, attach_proof
from datacred.resolver import KeyBackend, Resolver, WebBackend

pytestmark = pytest.mark.usefixtures("fast_wallet_kdf")

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


@pytest.mark.parametrize("host", ["0.0.0.0", "::", ""])
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
    assert response.json()["type"] == PROBLEM_REPORT
    assert response.json()["body"]["code"] == "SignatureInvalid"
    assert dataset.list_connections() == []


def test_unsigned_envelope_dropped(agent_factory):
    dataset = agent_factory("dataset")
    sender = agent_factory("user")
    envelope = build_envelope(
        sender.key, sender.did.text, dataset.did.text, CONNECTION_REQUEST,
        {"connectionId": "c", "endpoint": sender.base_url},
    )
    del envelope["signature"]
    response = requests.post(dataset.base_url + "/inbox", json=envelope, timeout=5)
    assert response.status_code == 400
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
    body = response.json()["body"]
    assert body["code"] == "CredentialRejected"
    assert body["detail"].startswith(reason)
    assert dataset.list_credentials() == []


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
    assert response.json()["body"]["code"] == "ConnectionInactive"
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
    assert response.json()["body"]["code"] == "CredentialRejected"
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
    assert response.json()["body"]["code"] == "CredentialRejected"


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
    path.write_text(json.dumps({
        "connections": [], "nonces": {"a" * 32: time.time() + 60},
        "registry": None, "issued": [{"credentialId": "urn:uuid:1"}],
    }))
    state = AgentState(path)
    state.load()
    assert state.issued == [{"credentialId": "urn:uuid:1"}]
    state.save()
    assert "nonces" not in json.loads(path.read_text())


def test_state_file_drops_unfinished_connections(tmp_path):
    """Records a failed connect left behind under the invited/requested states."""
    def record(connection_id, state):
        return {"connectionId": connection_id, "myDid": "did:key:za", "theirDid": "did:key:zb",
                "theirEndpoint": "http://127.0.0.1:1", "state": state, "createdAt": 1.0}

    path = tmp_path / "agent.state.json"
    path.write_text(json.dumps({
        "connections": [record("done", "active"), record("stuck", "requested"),
                        record("new", "invited")],
        "nonces": {"a" * 32: time.time() + 60}, "registry": None, "issued": [],
    }))
    state = AgentState(path)
    state.load()
    assert list(state.connections) == ["done"]
    state.save()
    assert [c["connectionId"] for c in json.loads(path.read_text())["connections"]] == ["done"]


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
    assert response.json()["body"]["code"] == "ConnectionInactive"


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
    assert response.json()["type"] == PROBLEM_REPORT
    assert response.json()["body"]["code"] == "BadRequest"
    assert len(dataset.list_connections()) == 1


@pytest.mark.parametrize("payload", [5, [], "envelope"], ids=["int", "list", "string"])
def test_non_object_envelope_gets_problem_report(agent_factory, payload):
    dataset = agent_factory("dataset")
    response = requests.post(dataset.base_url + "/inbox", json=payload, timeout=5)
    assert response.status_code == 400
    assert response.json()["body"]["code"] == "SignatureInvalid"


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
