"""The publisher's registry log: the first signed registry whole, then one line per
revocation, never rewritten; a log earlier versions compacted still reads."""

import json
import re
import socket
import sys
import threading
from types import SimpleNamespace

import pytest
import requests
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from datacred import cli, proofs
from datacred.agent import Agent
from datacred.agent import state as state_module
from datacred.agent.state import AgentState
from datacred.credential import check_registry_key, revoke, sign_registry
from datacred.errors import DocumentInvalid
from datacred.fingerprint import fingerprint_bytes
from datacred.jsonfile import read_lines

pytestmark = pytest.mark.usefixtures("fast_wallet_kdf")

CLAIMS = {"Hash of Data": fingerprint_bytes(b"the published dataset").digest,
          "Data Ethically Sourced": "YES"}


def log_lines(publisher) -> list[dict]:
    """The registry log's complete lines."""
    return [json.loads(line) for line in read_lines(publisher.state.registry_path)[0]]


def write_log(publisher, lines: list[dict]) -> None:
    publisher.state.registry_path.write_bytes(
        b"".join(json.dumps(line).encode() + b"\n" for line in lines))


def assert_registry(publisher, revoked: list[str]) -> None:
    """The publisher holds and serves registry of exactly these ids, signed by its key."""
    registry = publisher.state.registry
    check_registry_key(registry.to_json(), publisher.key)
    assert registry.revoked == revoked
    assert json.loads(publisher.registry_reply()[0]) == registry.to_json()


def write_compacted_log(publisher, snapshot_ids: list[str], appended_ids: list[str]) -> dict:
    """Write the log as earlier versions compacted it, signed with the publisher's key: a
    snapshot that already revokes snapshot_ids, then a line per appended id. The registry
    those versions loaded from it."""
    issuer, key, revoked = publisher.did.text, publisher.key, list(snapshot_ids)
    registry = sign_registry(issuer, revoked, key).to_json()
    lines = [registry]
    for status_id in appended_ids:
        revoked = [*revoked, status_id]
        registry = sign_registry(issuer, revoked, key).to_json()
        lines.append({"revoke": status_id, "updated": registry["updated"],
                      "proof": registry["proof"]})
    write_log(publisher, lines)
    return registry


@pytest.fixture
def peer(agent_factory):
    return agent_factory("dataset", name="peer")


STEPS = ["new", "repeat", "connect", "restart", "tear"]
_examples = iter(range(1 << 30))


@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=st.lists(st.tuples(st.sampled_from(STEPS), st.integers(0, 99)), max_size=8))
def test_registry_after_any_steps_is_the_completed_revocations(agent_factory, peer, steps):
    publisher = agent_factory("publisher", name=f"publisher{next(_examples)}")
    model, fresh = [], iter(f"s-{n}" for n in range(1 << 30))

    def restart():
        nonlocal publisher
        publisher = agent_factory.restart(publisher)
        assert_registry(publisher, model)

    for kind, n in steps:
        if kind == "new":
            model.append(next(fresh))
            publisher.revoke_status(model[-1])
        elif kind == "repeat" and model:
            publisher.revoke_status(model[n % len(model)])
        elif kind == "connect":
            publisher.connect(**peer.invitation())
        elif kind == "restart":
            restart()
        elif kind == "tear" and len(log_lines(publisher)) > 1:
            # A crash while appending the last revocation: it never completed.
            path = publisher.state.registry_path
            data = path.read_bytes()
            data = data[:data.rindex(b"\n") + 1]  # without a tail an earlier tear left
            last = data.rindex(b"\n", 0, len(data) - 1) + 1
            path.write_bytes(data[:last + n % (len(data) - last)])
            model.pop()
            restart()
            model.append(next(fresh))  # appended where the torn tail began
            publisher.revoke_status(model[-1])
        assert publisher.state.registry.revoked == model
    restart()


def test_revocations_cost_one_signature_each_and_never_rewrite_the_log(
    agent_factory, monkeypatch, verifies
):
    publisher = agent_factory("publisher")
    signs, saves, rewrites = [], [], []
    sign, save, write_lines = proofs.sign, AgentState.save, state_module.write_lines
    monkeypatch.setattr(proofs, "sign", lambda *args: (signs.append(1), sign(*args))[1])
    monkeypatch.setattr(AgentState, "save", lambda self: (saves.append(1), save(self))[1])
    monkeypatch.setattr(state_module, "write_lines",
                        lambda path, lines: (rewrites.append(path), write_lines(path, lines))[1])
    count, path = 40, publisher.state.registry_path
    first = path.read_bytes()
    for n in range(count):
        publisher.revoke_status(f"s-{n}")
    assert (len(verifies), len(saves), len(signs), len(rewrites)) == (0, 0, count, 0)
    log, reply = path.read_bytes(), publisher.registry_reply()
    assert log.startswith(first) and log.count(b"\n") == 1 + count
    publisher = agent_factory.restart(publisher)
    assert (rewrites, path.read_bytes(), publisher.registry_reply()) == ([], log, reply)
    assert_registry(publisher, [f"s-{n}" for n in range(count)])


def test_a_repeated_revocation_changes_nothing(agent_factory):
    publisher = agent_factory("publisher")
    for status_id in ("s-1", "s-2"):
        publisher.revoke_status(status_id)
    log, registry = publisher.state.registry_path.read_bytes(), publisher.state.registry
    assert publisher.revoke_status("s-1") is registry
    assert revoke(registry, "s-1", publisher.key) is registry
    assert publisher.state.registry is registry
    assert publisher.state.registry_path.read_bytes() == log


def test_a_log_an_earlier_version_compacted_loads_and_extends_by_one_line(agent_factory):
    publisher = agent_factory("publisher")
    publisher.stop()
    ids = [f"s-{n}" for n in range(6)]
    registry = write_compacted_log(publisher, ids[:3], ids[3:])
    publisher = agent_factory.restart(publisher)
    assert publisher.state.registry.to_json() == registry
    assert publisher.registry_reply()[0] == json.dumps(registry).encode()
    log = publisher.state.registry_path.read_bytes()
    publisher.revoke_status("s-6")
    appended = publisher.state.registry_path.read_bytes()
    assert appended.startswith(log) and appended.count(b"\n") == log.count(b"\n") + 1
    assert_registry(agent_factory.restart(publisher), [*ids, "s-6"])


def test_threads_revoking_at_once_lose_and_repeat_no_id(agent_factory):
    """More threads than CPUs, half of each one's ids shared, a switch every microsecond."""
    publisher = agent_factory("publisher")
    batches = [[f"s-{n}" for n in range(t * 10, t * 10 + 20)] for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda ids=ids: [publisher.revoke_status(i)
                                                            for i in ids]) for ids in batches]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    revoked = publisher.state.registry.revoked
    assert sorted(revoked) == sorted(f"s-{n}" for n in range(50))
    assert_registry(agent_factory.restart(publisher), revoked)


def _drop_snapshot_id(lines):
    lines[0]["revoked"].pop(1)


def _drop_middle_line(lines):
    del lines[2]


def _swap_last_lines(lines):
    lines[-2], lines[-1] = lines[-1], lines[-2]


def _earlier_proof(lines):
    lines[-1]["proof"] = lines[-2]["proof"]


def _no_snapshot(lines):
    lines.clear()


@pytest.mark.parametrize("compacted, tamper", [
    (True, _drop_snapshot_id), (False, _drop_middle_line), (False, _swap_last_lines),
    (False, _earlier_proof), (False, _no_snapshot),
], ids=["snapshot-id-removed", "line-removed", "lines-swapped", "earlier-proof", "empty"])
def test_a_tampered_log_stops_the_publisher(agent_factory, compacted, tamper):
    publisher = agent_factory("publisher")
    ids = [f"s-{n}" for n in range(6)]
    if compacted:
        write_compacted_log(publisher, ids[:3], ids[3:])
    else:
        for status_id in ids:
            publisher.revoke_status(status_id)
    publisher.stop()
    lines = log_lines(publisher)
    tamper(lines)
    write_log(publisher, lines)
    with pytest.raises(DocumentInvalid, match=re.escape(str(publisher.state.registry_path))):
        Agent(publisher.config).start()


@pytest.mark.parametrize("member", ["current", None, {}], ids=["current", "null", "empty"])
@pytest.mark.parametrize("log", [True, False], ids=["log", "no-log"])
def test_a_state_document_holding_a_registry_stops_the_publisher(agent_factory, member, log):
    """It never starts with a fresh empty registry that reports revoked ids as NotRevoked."""
    publisher = agent_factory("publisher")
    for n in range(3):
        publisher.revoke_status(f"s-{n}")
    registry, path = publisher.state.registry.to_json(), publisher.state.path
    publisher.stop()
    # The document as earlier versions wrote it, with or without the log beside it.
    stored = registry if member == "current" else member
    document = {**json.loads(path.read_text()), "registry": stored}
    path.write_text(json.dumps(document, indent=2) + "\n")
    if not log:
        publisher.state.registry_path.unlink()
    logged = {p.read_bytes() for p in [publisher.state.registry_path] if p.exists()}
    refused = Agent(publisher.config)
    with pytest.raises(DocumentInvalid, match=re.escape(f"{path}: 'registry'")):
        refused.start()
    with socket.socket() as listener:  # the refused start closed its listener
        listener.bind((publisher.config.listen_host, publisher.config.listen_port))
    assert {p.read_bytes() for p in [publisher.state.registry_path] if p.exists()} == logged
    assert json.loads(path.read_text()) == document


def test_a_publisher_whose_did_changed_refuses_its_old_registry(agent_factory):
    """A did:web agent restarted under another domain is another DID: extending the old
    DID's registry would leave every credential it issues unable to read Revoked."""
    publisher = agent_factory("publisher")
    publisher.revoke_status("s-1")
    old_did, path = publisher.did.text, publisher.state.registry_path
    publisher.stop()
    before = {p: p.read_bytes() for p in path.parent.iterdir()}
    publisher.config.web_domain = "publisher.example"
    refused = Agent(publisher.config)
    detail = f"registry issuer {old_did} is not this agent's DID did:web:publisher.example"
    with pytest.raises(DocumentInvalid, match=re.escape(f"{path}: {detail}")):
        refused.start()
    with socket.socket() as listener:  # the refused start closed its listener
        listener.bind((publisher.config.listen_host, publisher.config.listen_port))
    assert {p: p.read_bytes() for p in path.parent.iterdir()} == before


class Interrupted:
    """A threading.Event whose wait is a Ctrl-C, so a serve that starts also returns."""

    def wait(self):
        raise KeyboardInterrupt


def test_agent_serve_on_a_state_document_holding_a_registry_exits_2(agent_factory, tmp_path,
                                                                    monkeypatch):
    monkeypatch.setattr(cli, "threading", SimpleNamespace(Event=Interrupted))
    publisher = agent_factory("publisher")
    publisher.revoke_status("s-0")
    registry, path = publisher.state.registry.to_json(), publisher.state.path
    publisher.stop()
    path.write_text(json.dumps({**json.loads(path.read_text()), "registry": registry}))
    config_file = tmp_path / "publisher.config.json"
    publisher.config.save(config_file)
    result = CliRunner().invoke(cli.main, ["agent", "serve", "--config", str(config_file)])
    assert result.exit_code == 2, result.output
    assert "DocumentInvalid" in result.stderr and str(path) in result.stderr


def test_revocation_holds_across_a_publisher_restart(agent_factory):
    publisher, dataset = agent_factory("publisher"), agent_factory("dataset")
    connection = publisher.connect(**dataset.invitation())
    credential = publisher.issue_over_connection(connection.connection_id, CLAIMS)
    user = agent_factory("user")
    assert user.request_proof(dataset.did.text, ["Hash of Data"], endpoint=dataset.base_url).valid
    publisher.revoke_status("unrelated")
    publisher.revoke_status(publisher.find_status_id(credential.id))
    assert len(log_lines(publisher)) == 3  # the first registry and two appended lines
    assert "Revoked" in user.request_proof(dataset.did.text, ["Hash of Data"]).reasons()
    publisher = agent_factory.restart(publisher)
    assert "Revoked" in user.request_proof(dataset.did.text, ["Hash of Data"]).reasons()
    stranger = agent_factory("user", name="stranger")
    report = stranger.request_proof(dataset.did.text, ["Hash of Data"], endpoint=dataset.base_url)
    assert "Revoked" in report.reasons()


class Unscannable(list):
    def __iter__(self):
        raise AssertionError("the issuance records were scanned")


def test_find_status_id_reads_an_index_not_the_issuance_records(agent_factory, monkeypatch):
    publisher, dataset = agent_factory("publisher"), agent_factory("dataset")
    connection = publisher.connect(**dataset.invitation())
    before = publisher.issue_over_connection(connection.connection_id, CLAIMS)
    publisher = agent_factory.restart(publisher)
    monkeypatch.setattr(publisher.state, "issued", Unscannable(publisher.state.issued))
    after = publisher.issue_over_connection(connection.connection_id, CLAIMS)
    assert publisher.find_status_id(before.id) == before.status.status_id
    assert publisher.find_status_id(after.id) == after.status.status_id
    assert publisher.find_status_id("urn:uuid:unknown") is None
