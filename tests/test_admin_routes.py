"""The agent's HTTP surface: three public routes, and an admin table that answers
only loopback peers."""

import ast
import inspect
import textwrap

import pytest
import requests

from datacred.agent import service
from datacred.agent.envelopes import CONNECTION_REQUEST, CONNECTION_RESPONSE, build_envelope
from datacred.did import generate_did_key
from datacred.keys import generate_keypair
from test_agent import LISTING_CLAIMS, connected_pair

pytestmark = pytest.mark.usefixtures("fast_wallet_kdf")

PUBLIC_PATHS = {"/inbox", "/.well-known/did.json", "/registry"}


# service._ADMIN_ROUTES, sorted; test_admin_table_has_these_routes keeps the two equal.
ADMIN_ROUTES = [
    ("GET", "/connections"), ("GET", "/credentials"), ("GET", "/status"), ("POST", "/connect"),
    ("POST", "/issue"), ("POST", "/request-proof"), ("POST", "/revoke"),
]


def admin_body(route, dataset, connection_id, status_id):
    """A body that would change the publisher's state if the request were obeyed."""
    return {
        "/connect": dataset.invitation(),
        "/issue": {"connectionId": connection_id, "claims": LISTING_CLAIMS},
        "/request-proof": {"target": dataset.did.text, "attributes": ["Hash of Data"]},
        "/revoke": {"statusId": status_id},
    }.get(route[1])


def snapshot(publisher):
    return (publisher.list_connections(), publisher.state.registry, list(publisher.state.issued),
            publisher.list_credentials())


@pytest.mark.parametrize("route", ADMIN_ROUTES, ids="{0[0]} {0[1]}".format)
def test_admin_route_refuses_a_remote_peer(agent_factory, monkeypatch, route):
    publisher, dataset, connection = connected_pair(agent_factory)
    credential = publisher.issue_over_connection(connection.connection_id, LISTING_CLAIMS)
    status_id = publisher.find_status_id(credential.id)
    body = admin_body(route, dataset, connection.connection_id, status_id)
    before = snapshot(publisher)
    monkeypatch.setattr(service, "is_loopback_host", lambda host: False)

    method, path = route
    response = requests.request(method, publisher.base_url + path, json=body, timeout=10)
    assert (response.status_code, response.json()["error"]) == (403, "Forbidden")
    assert snapshot(publisher) == before
    assert status_id not in publisher.state.registry.revoked

    # The public routes still answer the same peer.
    for path in ("/.well-known/did.json", "/registry"):
        assert requests.get(publisher.base_url + path, timeout=5).status_code == 200
    stranger = generate_keypair()
    stranger_did, _ = generate_did_key(stranger.public_key)
    envelope = build_envelope(stranger, stranger_did.text, publisher.did.text, CONNECTION_REQUEST,
                              {"endpoint": "http://127.0.0.1:1"})
    reply = requests.post(publisher.base_url + "/inbox", json=envelope, timeout=5)
    assert (reply.status_code, reply.json()["type"]) == (200, CONNECTION_RESPONSE)


def test_admin_table_has_these_routes():
    assert sorted(service._ADMIN_ROUTES) == ADMIN_ROUTES


def test_request_handler_compares_the_path_only_with_public_paths():
    """Every admin path lives in the table, so no admin route can skip the loopback guard."""
    source = textwrap.dedent(inspect.getsource(service._RequestHandler))
    tree = ast.parse(source)
    compared = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(ast.unparse(side) == "self.path" for side in sides):
                compared |= {side.value for side in sides if isinstance(side, ast.Constant)}
    assert compared == PUBLIC_PATHS
    paths = {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.startswith("/")}
    assert paths == PUBLIC_PATHS
    assert not paths & {path for _, path in service._ADMIN_ROUTES}
