"""What an agent answers a refused request with: the HTTP status and code on every surface.

Every surface, the inbox, the request body check and the admin API (which relays a
peer's refusal), answers with one plain, unsigned problem report: a JSON object of
exactly the members ``error``, the code, and ``detail``. Every case reads it through
``refusal``.
"""

import json

import pytest
import requests

from datacred.agent.config import Policy
from datacred import proofs
from datacred.agent.envelopes import (
    CONNECTION_REQUEST,
    CREDENTIAL_ACK,
    CREDENTIAL_ISSUE,
    PROOF_REQUEST,
    build_envelope,
)
from datacred.agent.service import MAX_BODY_BYTES
from datacred.credential import CredentialSchema, SchemaAttribute
from datacred.did import generate_did_key
from datacred.errors import (
    AgentError,
    BadRequest,
    ConnectionInactive,
    PayloadTooLarge,
    PolicyRejected,
)
from datacred.keys import generate_keypair
from test_agent import connected_pair, envelope_created_at, raw_post

pytestmark = pytest.mark.usefixtures("fast_wallet_kdf")


def refusal(status: int, body: bytes) -> tuple[int, str]:
    """(status, code) of an answer that must be a plain refusal: a JSON object of exactly
    the members error and detail, so it carries no proof."""
    answer = json.loads(body)
    assert sorted(answer) == ["detail", "error"]
    assert isinstance(answer["detail"], str)
    return status, answer["error"]


def inbox(receiver, payload):
    response = requests.post(receiver.base_url + "/inbox", json=payload, timeout=5)
    return refusal(response.status_code, response.content)


def send(sender, receiver, message_type, body):
    envelope = build_envelope(sender.key, sender.did.text, receiver.did.text, message_type, body)
    return inbox(receiver, envelope)


def admin(agent, route, body):
    response = requests.post(agent.base_url + route, json=body, timeout=30)
    return refusal(response.status_code, response.content)


def body_with_length(agent, content_length):
    head, _, body = raw_post(agent.base_url, content_length).partition(b"\r\n\r\n")
    return refusal(int(head.split()[1]), body)


def signature_invalid(agent_factory):
    return inbox(agent_factory("dataset"), 5)


def bad_request(agent_factory):
    publisher, dataset, _ = connected_pair(agent_factory)
    return send(publisher, dataset, PROOF_REQUEST, {"challenge": 5})


def wrong_recipient(agent_factory):
    publisher, dataset, _ = connected_pair(agent_factory)
    envelope = build_envelope(publisher.key, publisher.did.text, publisher.did.text,
                              PROOF_REQUEST, {"challenge": "e" * 32})
    return inbox(dataset, envelope)


def stale_message(agent_factory):
    publisher, dataset, _ = connected_pair(agent_factory)
    return inbox(dataset, envelope_created_at(publisher, dataset, "1999-01-01T00:00:00Z",
                                              {"challenge": "e" * 32}))


def unsupported_message(agent_factory):
    publisher, dataset, _ = connected_pair(agent_factory)
    return send(publisher, dataset, CREDENTIAL_ACK, {"credentialId": "urn:uuid:1"})


def unsupported_type_not_a_string(agent_factory):
    publisher, dataset, _ = connected_pair(agent_factory)
    return send(publisher, dataset, [PROOF_REQUEST], {"challenge": "e" * 32})


def policy_rejected(agent_factory):
    publisher = agent_factory("publisher")
    dataset = agent_factory("dataset", policy=Policy(auto_accept_connections=False))
    return send(publisher, dataset, CONNECTION_REQUEST,
                {"connectionId": "c", "endpoint": publisher.base_url})


def connection_inactive(agent_factory):
    dataset = agent_factory("dataset")
    stranger = agent_factory("user")
    return send(stranger, dataset, PROOF_REQUEST, {"challenge": "e" * 32})


def credential_rejected(agent_factory):
    publisher, dataset, connection = connected_pair(agent_factory)
    return send(publisher, dataset, CREDENTIAL_ISSUE, {"connectionId": connection.connection_id,
                                                       "credential": {"credentialSubject": []}})


def no_matching_credential(agent_factory):
    publisher, dataset, _ = connected_pair(agent_factory)
    return send(publisher, dataset, PROOF_REQUEST,
                {"requestedAttributes": ["Hash of Data"], "challenge": "e" * 32})


def bad_content_length(agent_factory):
    return body_with_length(agent_factory("dataset"), "twelve")


def oversized_body(agent_factory):
    return body_with_length(agent_factory("dataset"), str(MAX_BODY_BYTES + 1))


def admin_role_forbidden(agent_factory):
    return admin(agent_factory("user"), "/revoke", {"statusId": "s"})


def admin_relayed_policy_rejected(agent_factory):
    publisher = agent_factory("publisher")
    dataset = agent_factory("dataset", policy=Policy(auto_accept_connections=False))
    return admin(publisher, "/connect", dataset.invitation())


def admin_relayed_no_matching_credential(agent_factory):
    dataset = agent_factory("dataset")
    user = agent_factory("user")
    return admin(user, "/request-proof", {"target": dataset.did.text,
                                          "attributes": ["Hash of Data"],
                                          "endpoint": dataset.base_url})


def admin_bad_request(agent_factory):
    return admin(agent_factory("publisher"), "/connect", {"did": 5, "endpoint": "http://x"})


@pytest.mark.parametrize("case, status, code", [
    (signature_invalid, 400, "SignatureInvalid"),
    (bad_request, 400, "BadRequest"),
    (wrong_recipient, 400, "WrongRecipient"),
    (stale_message, 400, "StaleMessage"),
    (unsupported_message, 400, "UnsupportedMessage"),
    (unsupported_type_not_a_string, 400, "UnsupportedMessage"),
    (policy_rejected, 403, "PolicyRejected"),
    (connection_inactive, 400, "ConnectionInactive"),
    (credential_rejected, 400, "CredentialRejected"),
    (no_matching_credential, 404, "NoMatchingCredential"),
    (bad_content_length, 400, "BadRequest"),
    (oversized_body, 413, "PayloadTooLarge"),
    (admin_role_forbidden, 403, "RoleForbidden"),
    (admin_relayed_policy_rejected, 400, "PolicyRejected"),
    (admin_relayed_no_matching_credential, 400, "NoMatchingCredential"),
    (admin_bad_request, 400, "BadRequest"),
], ids=lambda value: value.__name__ if callable(value) else None)
def test_refusal_status_and_code(agent_factory, case, status, code):
    assert case(agent_factory) == (status, code)


@pytest.mark.parametrize("code, error", [
    ("PolicyRejected", PolicyRejected),
    ("ConnectionInactive", ConnectionInactive),
    ("BadConfig", AgentError),
    ("RoleForbidden", AgentError),
    ("NoSuchProblem", AgentError),
    (["PolicyRejected"], AgentError),
], ids=["PolicyRejected", "ConnectionInactive", "BadConfig", "RoleForbidden", "unknown",
        "list"])
def test_peer_code_maps_back_only_to_an_inbox_refusal(agent_factory, json_server, code, error):
    """A code no inbox sends, such as a local failure's name, is a plain AgentError."""
    publisher = agent_factory("publisher")
    did, _ = generate_did_key(generate_keypair().public_key)
    json_server.set("/inbox", {"error": code, "detail": "refused"}, status=400)
    with pytest.raises(AgentError, match="refused") as excinfo:
        publisher.connect(did=did.text, endpoint=json_server.url(""))
    assert type(excinfo.value) is error
    assert publisher.list_connections() == []


def test_peer_refusal_before_any_envelope_keeps_its_code(agent_factory):
    """An inbox that refuses a body unread answers plain JSON, not a forged-message error."""
    publisher, dataset, connection = connected_pair(agent_factory)
    schema = CredentialSchema(id="urn:test:blob", name="blob",
                              attributes=(SchemaAttribute("blob", "string"),))
    with pytest.raises(PayloadTooLarge, match="^PayloadTooLarge: body of"):
        publisher.issue_over_connection(connection.connection_id, {"blob": "x" * (2 << 20)},
                                        schema=schema)
    assert dataset.list_credentials() == []


@pytest.mark.parametrize("status, reply, error", [
    (400, {"error": "BadRequest", "detail": "invalid JSON"}, BadRequest),
    (413, {"error": "PayloadTooLarge"}, PayloadTooLarge),
    (400, {"error": "RoleForbidden", "detail": "invalid JSON"}, AgentError),
    (404, {"error": "NotFound", "detail": "/inbox"}, AgentError),
], ids=["BadRequest", "PayloadTooLarge", "not-an-inbox-code", "NotFound"])
def test_plain_json_refusal_maps_back_by_its_code(agent_factory, json_server, status, reply,
                                                  error):
    publisher = agent_factory("publisher")
    did, _ = generate_did_key(generate_keypair().public_key)
    json_server.set("/inbox", reply, status=status)
    with pytest.raises(AgentError, match=f"^{reply['error']}: ") as excinfo:
        publisher.connect(did=did.text, endpoint=json_server.url(""))
    assert type(excinfo.value) is error
    assert publisher.list_connections() == []


@pytest.mark.parametrize("payload, code", [
    ("5", "SignatureInvalid"),
    ('{"x": 1}', "SignatureInvalid"),
    ('{"a": 1, "a": 2}', "SignatureInvalid"),
    ("wrong-recipient", "WrongRecipient"),
], ids=["int", "object", "repeated-name", "wrong-recipient"])
def test_answering_a_refused_envelope_signs_nothing(agent_factory, monkeypatch, payload, code):
    """Each was a problem report that the agent signed, to a sender it had not verified;
    a WrongRecipient detail echoes the sender's own id and to."""
    dataset = agent_factory("dataset")
    if payload == "wrong-recipient":
        key = generate_keypair()
        did, _ = generate_did_key(key.public_key)
        envelope = build_envelope(key, did.text, "did:web:other.example", PROOF_REQUEST,
                                  {"challenge": "e" * 32})
        payload = json.dumps(envelope)
    signed = []
    sign = proofs.sign
    monkeypatch.setattr(proofs, "sign", lambda *args: (signed.append(args), sign(*args))[1])
    response = requests.post(dataset.base_url + "/inbox", data=payload.encode(), timeout=5,
                             headers={"Content-Type": "application/json"})
    assert signed == []
    assert refusal(response.status_code, response.content) == (400, code)
