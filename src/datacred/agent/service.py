"""The agent process: HTTP service plus client-side protocol operations.

Transport is one POST /inbox endpoint per agent taking an envelope and returning
the reply. A message is signed once, where envelopes.SIGNED says: a credential issue
by its credential's issuer (check_receipt), a proof response by the holder's
presentation (_check_proof_response), and a credential ack, a plain reply, not at
all. _send_error answers every refusal, on every route, with an unsigned
{"error": <error class name>, "detail": ...}, and a requester reads any reply of
status 400 or more as one. Request bodies are bounded before
they are read, and every body and reply is read under jsonfile's I-JSON rules.
Envelope POSTs go through resolver.request_json, over request_bytes's kept-alive
connections: https, or plain http to loopback under allowInsecureHttp, and no
redirects.
Agents also serve their own did:web document and, for publishers, the
revocation registry, so the whole trust root stays on the agent's origin.

A connection is stored once the peer has accepted it, and an issuance is logged
once its ack is accepted, so a failed connect or issue leaves no record. A proof
request keeps its challenge only for the call: the exact comparison with the
presented one is the replay protection.

A dataset agent stores a received credential from its sender, to itself, once, only
if credential.check_receipt passes, the verifier's own signature, schema and date
checks; a refusal names the failed check and the verifier's reason. It answers proof
requests from its credentials kept newest first, an index rebuilt on wallet changes.

GET /.well-known/did.json, GET /registry and POST /inbox are public. A
publisher encodes its registry once per change and serves those bytes with
an ETag, the quoted hex SHA-256 of the bytes; a GET whose If-None-Match
names it is answered 304 with no body. Every other route is in the admin
table, _ADMIN_ROUTES: (method, path) -> handler, loopback-only, driving the
automated workflows (connect, issue, request-proof, revoke) plus read-only
listings. Any other GET or POST answers 404.

The server frames HTTP/1.1 itself on a socketserver.ThreadingTCPServer: a
request head is read by resolver.read_head, within its MAX_LINE and
MAX_HEADERS limits, and each response is one write. Connections are kept
alive, with Nagle's algorithm off. A request with any Transfer-Encoding is
refused with 501, and a GET with a body with 400 (RFC 9112 §6). A request
refused as malformed or unread is answered, and the connection closed once
what the peer still sends is read. A connection that sends no request for
IDLE_TIMEOUT seconds is closed, and stop() hangs up every open connection, so
no peer reaches a stopped agent.
"""

from __future__ import annotations

import errno
import hashlib
import json
import socket
import socketserver
import threading
import time
import uuid
from datetime import datetime, timezone

from ..credential import (
    DATASET_PROVENANCE_V1,
    CredentialSchema,
    CredentialStatus,
    HttpRegistrySource,
    RevocationRegistry,
    VerifiableCredential,
    check_receipt,
    check_registry_key,
    issue_credential,
    sign_registry,
    verification_sources,
)
from ..did import Did, DidDocument, generate_did_key, one_key_document, parse_did
from ..errors import (
    AgentError,
    BadConfig,
    BadRequest,
    ConnectionInactive,
    CredentialRejected,
    DatacredError,
    DocumentInvalid,
    Forbidden,
    NoMatchingCredential,
    NotFound,
    PayloadTooLarge,
    PolicyRejected,
    PortInUse,
    Refused,
    RoleForbidden,
    SignatureInvalid,
    Unreachable,
    UnsupportedMessage,
    WrongIssuerKey,
    WrongRecipient,
)
from ..jsonfile import ANY, OBJECT, STRINGS, Field, json_reader, member, parse_json, write_json
from ..keys import KeyPair, generate_keypair
from ..presentation import (
    VerifiablePresentation,
    create_presentation,
    new_challenge,
    verify_presentation,
)
from ..proofs import parse_timestamp
from ..reports import CheckResult, CheckStatus, PresentationReport
from ..resolver import HeadRefused, Resolver, is_loopback_host, read_head, request_json
from ..wallet import Wallet
from .config import WILDCARD_HOSTS, AgentConfig
from .envelopes import (
    CONNECTION_REQUEST,
    CONNECTION_RESPONSE,
    CREDENTIAL_ACK,
    CREDENTIAL_ISSUE,
    PROOF_REQUEST,
    PROOF_RESPONSE,
    SIGNED,
    MessageEnvelope,
    addressed_envelope,
    build_envelope,
    check_fresh,
    check_sender,
    verify_envelope,
)
from .state import AgentState, Connection

CREDENTIAL_LABEL_PREFIX = "credential:"
_HTTP_TIMEOUT = 10.0
MAX_BODY_BYTES = 1 << 20  # inbound request bodies; a signed envelope is a few KiB
IDLE_TIMEOUT = 5.0  # seconds a kept-alive connection may wait for its next request
_DRAIN_BYTES = 16 * MAX_BODY_BYTES  # read and dropped after a refusal, before hanging up

_PEER_ERRORS = {cls.__name__: cls for cls in Refused.__subclasses__()}  # code -> error
STATUS_ISSUED = 20  # the latest issuance records /status lists


def _issued_at(vc: VerifiableCredential) -> datetime:
    """When vc was issued; an unreadable date counts as earliest, so vc is chosen last."""
    try:
        return parse_timestamp(vc.issuance_date)
    except ValueError:
        return datetime.min.replace(tzinfo=timezone.utc)


class Agent:
    """One publisher, dataset, or user agent with its own wallet and DID."""

    def __init__(self, config: AgentConfig):
        config.validate()
        self.config = config
        self.key: KeyPair | None = None
        self.did: Did | None = None
        self.did_document: DidDocument | None = None
        self.base_url: str | None = None
        self.wallet: Wallet | None = None
        self.state: AgentState | None = None
        self.resolver: Resolver | None = None
        self.registry_source: HttpRegistrySource | None = None
        self._server: _AgentServer | None = None
        self._thread: threading.Thread | None = None
        self._lock = threading.RLock()
        self._parsed: dict[str, tuple] = {}  # label -> (entry, parsed, issuance date)
        self._newest: tuple = (None, -1, [])  # wallet, its changes read, _parsed newest first
        self._registry_reply: tuple | None = None  # (registry, its JSON bytes, their ETag)

    # --- lifecycle ---

    def start(self) -> "Agent":
        """Open the wallet, bind the listener, and establish the agent DID."""
        config = self.config
        if config.listen_host in WILDCARD_HOSTS:
            # Otherwise the endpoint and did:web would name the wildcard address.
            if not config.public_base_url:
                raise BadConfig(f"listenHost {config.listen_host!r} needs a publicBaseUrl")
            if config.did_method == "web" and not config.web_domain:
                raise BadConfig(f"listenHost {config.listen_host!r} needs a webDomain for did:web")
        passphrase = config.resolve_passphrase()
        self.wallet = Wallet.open(config.wallet_path, passphrase)
        if config.key_label in self.wallet:
            entry = self.wallet.get(config.key_label)
            if not isinstance(entry, KeyPair):
                raise BadConfig(f"wallet entry {config.key_label!r} is not a keypair")
            self.key = entry
        else:
            self.key = generate_keypair()
            self.wallet.put(config.key_label, self.key)
            self.wallet.save()

        handler = type("AgentHandler", (_RequestHandler,), {"agent": self})
        try:
            self._server = _AgentServer((config.listen_host, config.listen_port), handler)
        except OSError as exc:
            if exc.errno == errno.EADDRINUSE:
                raise PortInUse(
                    f"{config.listen_host}:{config.listen_port} is already bound"
                ) from exc
            raise
        try:
            self._finish_start()
        except BaseException:
            self._server.server_close()
            self._server = None
            raise
        return self

    def _finish_start(self) -> None:
        config = self.config
        # Pin the ephemeral port so a restart with this config keeps the DID.
        config.listen_port = self._server.server_address[1]
        self.base_url = (
            config.public_base_url
            or f"http://{config.listen_host}:{config.listen_port}"
        )

        if config.did_method == "key":
            self.did, self.did_document = generate_did_key(self.key.public_key)
        else:
            domain = config.web_domain or (
                f"{config.listen_host}%3A{config.listen_port}"
            )
            self.did = parse_did(f"did:web:{domain}")
            self.did_document = one_key_document(self.did, self.key.public_key)

        self.state = AgentState(config.resolved_state_path())
        self.state.load()
        if config.role == "publisher" and self.state.registry is None:
            self.state.record_registry(sign_registry(self.did.text, [], self.key))
            self.state.save()
        elif config.role == "publisher":
            # Checked once here, so revoke_status extends only a registry this agent signed.
            registry, path = self.state.registry, self.state.registry_path
            try:
                check_registry_key(registry.to_json(), self.key)
            except WrongIssuerKey as exc:
                raise DocumentInvalid(f"{path}: {exc}") from exc
            if registry.issuer != self.did.text:
                raise DocumentInvalid(f"{path}: registry issuer {registry.issuer}"
                                      f" is not this agent's DID {self.did.text}")
        did_path = config.resolved_state_path().with_suffix(".did.json")
        write_json(did_path, self.did_document.to_json())

        self.resolver, self.registry_source = verification_sources(config.allow_insecure_http)

        self._thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.05),
            name=f"agent-{config.role}",
            daemon=True,
        )
        self._thread.start()
        import logging  # loaded only by a running agent, like the network code
        logging.getLogger(__name__).info(
            "%s agent listening on %s as %s", config.role, self.base_url, self.did.text)

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def invitation(self) -> dict:
        """What a peer needs to connect to this agent."""
        return {"did": self.did.text, "endpoint": self.base_url}

    # --- wallet-backed credential store ---

    def stored_credentials(self) -> list[VerifiableCredential]:
        """The wallet's credentials under CREDENTIAL_LABEL_PREFIX, newest issuance first,
        in label order among equal dates, leaving out an entry that does not parse; read
        again only after a wallet put or remove, and each parse kept (issuance date
        included) while its label holds the same object."""
        with self._lock:
            wallet, changes, newest = self._newest
            if wallet is not self.wallet or changes != self.wallet.changes:
                parsed = {}
                for label in self.wallet.list():
                    entry = self.wallet.get(label)
                    if label.startswith(CREDENTIAL_LABEL_PREFIX):
                        known = self._parsed.get(label)
                        if known is None or known[0] is not entry:
                            try:
                                vc = VerifiableCredential.from_json(entry)
                            except DocumentInvalid:  # no credential, so never presented
                                continue
                            known = (entry, vc, _issued_at(vc))
                        parsed[label] = known
                newest = [vc for _, vc, _ in  # a stable sort: label order among equal dates
                          sorted(parsed.values(), key=lambda held: held[2], reverse=True)]
                self._parsed, self._newest = parsed, (self.wallet, self.wallet.changes, newest)
            return list(newest)

    # --- status / listings (admin surface) ---

    def status(self) -> dict:
        out = {
            "role": self.config.role,
            "did": self.did.text,
            "endpoint": self.base_url,
            "connections": len(self.state.connections),
            "credentials": len(self.stored_credentials()),
        }
        if self.config.role == "publisher":
            out["registryUrl"] = f"{self.base_url}/registry"
            out["issuedCount"] = len(self.state.issued)
            out["issued"] = self.state.issued[-STATUS_ISSUED:]
        return out

    def list_connections(self) -> list[dict]:
        with self._lock:
            return [c.to_json() for c in self.state.connections.values()]

    def list_credentials(self) -> list[dict]:
        return [vc.to_json() for vc in self.stored_credentials()]

    # --- outbound protocol operations ---

    def _exchange(
        self, their_did: str, endpoint: str, message_type: str, body: dict
    ) -> MessageEnvelope | dict:
        """Send a request; returns the reply _PROTOCOL pairs with its type: an envelope
        verified as addressed to this agent and signed by their_did, or a reply of a type
        not in SIGNED as JSON, which the caller checks."""
        key = self.key if message_type in SIGNED else None
        payload = build_envelope(key, self.did.text, their_did, message_type, body)
        url = endpoint.rstrip("/") + "/inbox"
        try:
            # A redirect would re-post the signed envelope to wherever it points.
            status, raw = request_json(url, self.config.allow_insecure_http, _HTTP_TIMEOUT,
                                       payload, lambda data: parse_json(data, "reply"))
        except DocumentInvalid as exc:
            raise SignatureInvalid(f"malformed envelope: {exc}") from exc
        except DatacredError as exc:  # refused URL, transport failure, redirect, error page
            raise Unreachable(str(exc)) from exc
        if status >= 400:  # a refusal: {"error": code, "detail": ...}
            code = raw.get("error", status)
            raise _PEER_ERRORS.get(str(code), AgentError)(f"{code}: {raw.get('detail', '')}")
        expect = _PROTOCOL[message_type][0]
        if raw.get("type") == expect and expect not in SIGNED:
            return raw
        if raw.get("from") != their_did:  # refused before anything is resolved
            raise SignatureInvalid(f"reply from {raw.get('from')}, expected {their_did}")
        envelope = verify_envelope(raw, self.resolver, self.did.text)
        if envelope.type != expect:
            raise AgentError(f"expected {expect}, got {envelope.type}")
        return envelope

    def connect(self, did: str, endpoint: str) -> Connection:
        """Connect from an invitation; recorded only once the peer has accepted its id."""
        if self.config.role == "dataset":
            raise RoleForbidden("dataset agents never initiate connections")
        connection = Connection(str(uuid.uuid4()), self.did.text, did, endpoint)
        reply = self._exchange(
            did,
            endpoint,
            CONNECTION_REQUEST,
            {"connectionId": connection.connection_id, "endpoint": self.base_url},
        )
        accepted = reply.body.get("connectionId")
        if accepted != connection.connection_id:
            raise AgentError(f"peer accepted {accepted!r}, not {connection.connection_id}")
        with self._lock:
            self.state.add_connection(connection)
        return connection

    def issue_over_connection(
        self,
        connection_id: str,
        claims: dict,
        schema: CredentialSchema | None = None,
        expiration_date: datetime | str | None = None,
    ) -> VerifiableCredential:
        """Issue a revocable credential to the connected dataset agent and await its ack."""
        if self.config.role != "publisher":
            raise RoleForbidden("only publisher agents issue credentials")
        connection = self.state.connections.get(connection_id)
        if connection is None:
            raise ConnectionInactive(f"no active connection {connection_id}")
        credential = issue_credential(
            self.key,
            self.did,
            parse_did(connection.their_did),
            schema or DATASET_PROVENANCE_V1,
            claims,
            expiration_date=expiration_date,
            status=CredentialStatus(f"{self.base_url}/registry", str(uuid.uuid4())),
        )
        ack = self._exchange(
            connection.their_did,
            connection.their_endpoint,
            CREDENTIAL_ISSUE,
            {"connectionId": connection_id, "credential": credential.to_json()},
        )
        if ack.get("to") != self.did.text:
            raise WrongRecipient(f"ack is addressed to {ack.get('to')}, not {self.did.text}")
        if member(ack, "body", OBJECT, AgentError, {}).get("credentialId") != credential.id:
            raise AgentError(f"the ack names another credential than {credential.id}")
        with self._lock:
            self.state.record_issued({"credentialId": credential.id,
                                      "statusId": credential.status.status_id,
                                      "subject": connection.their_did})
        return credential

    def request_proof(
        self, target_did: str, attributes: list[str], endpoint: str | None = None
    ) -> PresentationReport:
        """Challenge the target for proof of attributes and verify the response."""
        if self.config.role == "dataset":
            raise RoleForbidden("a dataset agent never asks for a proof")
        connection = self.state.connection_for_did(target_did)
        if connection is not None:
            endpoint = connection.their_endpoint
        elif endpoint is not None:
            connection = self.connect(target_did, endpoint)
        else:
            raise Unreachable(f"no connection to {target_did} and no endpoint given")

        # The exact comparison with the presented challenge is the replay protection.
        challenge = new_challenge()
        reply = self._exchange(
            target_did,
            endpoint,
            PROOF_REQUEST,
            {"requestedAttributes": list(attributes), "challenge": challenge},
        )
        return _check_proof_response(self, reply, target_did, challenge)

    def revoke_status(self, status_id: str) -> RevocationRegistry:
        """Revoke a status id and republish the registry document: one signature and
        one line on the registry log. An id revoked before leaves the registry as it is."""
        if self.config.role != "publisher":
            raise RoleForbidden("only publisher agents hold a revocation registry")
        with self._lock:
            registry = self.state.registry
            if status_id not in registry.revoked:
                revoked = [*registry.revoked, status_id]
                self.state.record_registry(sign_registry(registry.issuer, revoked, self.key))
            return self.state.registry

    def registry_reply(self) -> tuple[bytes, str]:
        """The registry's JSON bytes and their ETag, the quoted hex SHA-256 of the
        bytes; encoded at the first call after each change of the registry."""
        registry, reply = self.state.registry, self._registry_reply
        if reply is None or reply[0] is not registry:
            payload = json.dumps(registry.to_json()).encode("utf-8")
            reply = (registry, payload, f'"{hashlib.sha256(payload).hexdigest()}"')
            self._registry_reply = reply
        return reply[1], reply[2]

    def find_status_id(self, credential_id: str) -> str | None:
        return self.state.status_ids.get(credential_id)

    # --- inbound envelope handling ---

    def handle_envelope(self, raw: dict) -> dict:
        """The reply to one inbound envelope; a refusal raises its DatacredError. What
        costs nothing is checked before the sender is resolved: the recipient, a signed
        envelope's age, the type and, for all but a connection request, a connection."""
        envelope = addressed_envelope(raw, self.did.text)
        kind, sender = envelope.type, envelope.sender
        if isinstance(kind, str) and kind in SIGNED:
            check_fresh(envelope)
        if not isinstance(kind, str) or kind not in _PROTOCOL:
            raise UnsupportedMessage(f"no handler for {kind}")
        # Only connection-protocol messages may arrive outside an active connection.
        if kind != CONNECTION_REQUEST and self.state.connection_for_did(sender) is None:
            raise ConnectionInactive(f"no active connection with {sender}")
        if kind in SIGNED:
            check_sender(raw, envelope, self.resolver)
        reply, handler = _PROTOCOL[kind]
        body = handler(self, envelope)
        if reply in SIGNED:
            return build_envelope(self.key, self.did.text, sender, reply, body)
        return {"type": reply, "from": self.did.text, "to": sender, "body": body}

    def _on_connection_request(self, envelope: MessageEnvelope) -> dict:
        if not self.config.policy.auto_accept_connections:
            raise PolicyRejected("connections are not auto-accepted")
        body = _CONNECTION_REQUEST(envelope.body)
        endpoint = body.get("endpoint")
        if not endpoint:
            raise BadRequest("connection request carries no endpoint")
        connection_id = body.get("connection_id") or str(uuid.uuid4())
        with self._lock:
            existing = self.state.connections.get(connection_id)
            # A proposed id may only reuse a record with the same peer;
            # anything else would let a sender hijack someone's connection.
            if existing is not None and existing.their_did != envelope.sender:
                raise BadRequest(f"connection id {connection_id} is taken")
            self.state.add_connection(
                Connection(connection_id, self.did.text, envelope.sender, endpoint)
            )
        return {"connectionId": connection_id, "endpoint": self.base_url}

    def _on_credential_issue(self, envelope: MessageEnvelope) -> dict:
        body = _CREDENTIAL_ISSUE(envelope.body)
        connection_id = body.get("connection_id", "")
        connection = self.state.connections.get(connection_id)
        if connection is None or connection.their_did != envelope.sender:
            raise ConnectionInactive(
                f"no active connection {connection_id!r} with {envelope.sender}"
            )
        try:
            credential = VerifiableCredential.from_json(
                member(body, "credential", ANY, DocumentInvalid))
        except DocumentInvalid as exc:
            raise CredentialRejected(f"malformed credential: {exc}") from exc
        if credential.issuer != envelope.sender:
            raise CredentialRejected(f"credential issuer {credential.issuer} is not the sender")
        if credential.subject_id != self.did.text:
            raise CredentialRejected(
                f"credential subject {credential.subject_id} is not this agent"
            )
        for name, result in check_receipt(credential, self.resolver).items():
            if result.status is not CheckStatus.VALID:
                raise CredentialRejected(f"{name}: {result.reason} {result.detail}")
        label, entry = CREDENTIAL_LABEL_PREFIX + credential.id, credential.to_json()
        with self._lock:
            if label not in self.wallet or self.wallet.get(label) != entry:
                self.wallet.put(label, entry)
                self.wallet.save()
        return {"credentialId": credential.id}

    def _on_proof_request(self, envelope: MessageEnvelope) -> dict:
        body = _PROOF_REQUEST(envelope.body)
        challenge, requested = body.get("challenge"), body.get("requested", [])
        if not challenge:
            raise BadRequest("proof request carries no challenge")
        may_share = self.config.policy.may_share
        chosen = next((vc for vc in self.stored_credentials()  # the newest that covers it
                       if may_share(vc.id) and all(attr in vc.claims for attr in requested)),
                      None)
        if chosen is None:
            raise NoMatchingCredential(f"no sharable credential covers {requested!r}")
        presentation = create_presentation(self.key, self.did, [chosen], challenge,
                                           domain=envelope.sender)
        return {"presentation": presentation.to_json()}


# The protocol: request type -> (reply type, the receiving agent's handler). A reply
# type in SIGNED is a signed envelope; the others are plain replies their requester checks.
_PROTOCOL = {
    CONNECTION_REQUEST: (CONNECTION_RESPONSE, Agent._on_connection_request),
    CREDENTIAL_ISSUE: (CREDENTIAL_ACK, Agent._on_credential_issue),
    PROOF_REQUEST: (PROOF_RESPONSE, Agent._on_proof_request),
}


RESPONDER_IS_TARGET = CheckResult(CheckStatus.VALID, "ResponderIsTarget")


def _check_proof_response(
    agent: Agent, reply: dict, target: str, challenge: str
) -> PresentationReport:
    """The report on the presentation a proof response carries, if the response is the
    target's answer to this request; else SignatureInvalid, as for a forged envelope.

    A proof response is signed once, by the presentation in its body. It is the target's
    answer only if the presentation's holder is the target and its proof's challenge is
    this request's, its domain this agent's DID, and the holder's signature, which covers
    both, checks. Nothing else of the reply is read: not its from, to or any proof.
    """
    try:
        presentation = VerifiablePresentation.from_json(
            member(member(reply, "body", OBJECT, DocumentInvalid), "presentation", OBJECT,
                   DocumentInvalid))
    except DocumentInvalid as exc:
        raise SignatureInvalid(f"malformed proof response: {exc}") from exc
    proof = presentation.proof
    if presentation.holder != target:
        raise SignatureInvalid(f"proof response presented by {presentation.holder}, "
                               f"requested from {target}")
    bound = proof is not None and (proof.challenge, proof.domain) == (challenge, agent.did.text)
    if not bound:
        raise SignatureInvalid("proof response is not bound to this challenge and requester")
    report = verify_presentation(presentation, challenge, agent.resolver,
                                 registry_source=agent.registry_source)
    signature = report.checks["holderSignature"]
    if signature.status is not CheckStatus.VALID:
        raise SignatureInvalid(f"proof response: {signature.reason} {signature.detail}".rstrip())
    report.checks["responder"] = RESPONDER_IS_TARGET
    return report


# The inbox and admin bodies: each a dict of the attributes it holds.
_CONNECTION_REQUEST = json_reader(BadRequest, Field("endpoint", "endpoint", optional=True),
                                  Field("connectionId", "connection_id", optional=True))
_CREDENTIAL_ISSUE = json_reader(BadRequest, Field("connectionId", "connection_id", optional=True),
                                Field("credential", "credential", ANY, optional=True))
_PROOF_REQUEST = json_reader(BadRequest, Field("challenge", "challenge", optional=True),
                             Field("requestedAttributes", "requested", STRINGS, optional=True))
_CONNECT = json_reader(BadRequest, Field("did", "did"), Field("endpoint", "endpoint"))
_ISSUE = json_reader(
    BadRequest, Field("connectionId", "connection_id"), Field("claims", "claims", OBJECT),
    Field("schema", "schema", OBJECT, optional=True, parse=CredentialSchema.from_json),
    Field("expirationDate", "expiration_date", optional=True),
    Field("withStatus", "with_status", ANY, optional=True))  # read, and ignored
_REQUEST_PROOF = json_reader(BadRequest, Field("target", "target"),
                             Field("attributes", "attributes", STRINGS, optional=True),
                             Field("endpoint", "endpoint", optional=True))
_REVOKE = json_reader(BadRequest, Field("statusId", "status_id", optional=True),
                      Field("credentialId", "credential_id", optional=True))


def _admin_issue(agent: Agent, body: dict) -> dict:
    body = _ISSUE(body)
    return agent.issue_over_connection(
        body["connection_id"], body["claims"], schema=body.get("schema"),
        expiration_date=body.get("expiration_date") or None).to_json()


def _admin_request_proof(agent: Agent, body: dict) -> dict:
    body = _REQUEST_PROOF(body)
    return agent.request_proof(body["target"], body.get("attributes", []),
                               endpoint=body.get("endpoint") or None).to_json()


def _admin_revoke(agent: Agent, body: dict) -> dict:
    body = _REVOKE(body)
    status_id = body.get("status_id") or agent.find_status_id(body.get("credential_id"))
    if not status_id:
        raise AgentError("revoke needs a statusId or a known credentialId")
    return agent.revoke_status(status_id).to_json()


# The admin API, loopback-only: (method, path) -> handler(agent, JSON object body).
_ADMIN_ROUTES = {
    ("GET", "/status"): lambda agent, _: agent.status(),
    ("GET", "/connections"): lambda agent, _: agent.list_connections(),
    ("GET", "/credentials"): lambda agent, _: agent.list_credentials(),
    ("POST", "/connect"): lambda agent, body: agent.connect(**_CONNECT(body)).to_json(),
    ("POST", "/issue"): _admin_issue,
    ("POST", "/request-proof"): _admin_request_proof,
    ("POST", "/revoke"): _admin_revoke,
}


class _AgentServer(socketserver.ThreadingTCPServer):
    """A threading server whose server_close also hangs up every open connection."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, handler):
        self._open: set[socket.socket] = set()  # before binding, which may call server_close
        self._open_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        super().server_close()
        with self._open_lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RDWR)  # the handler thread reads EOF and ends
                except OSError:
                    pass


class _RequestHandler(socketserver.StreamRequestHandler):
    """Answers one connection's requests until one asks to close or is refused."""

    agent: Agent  # bound per-agent via a subclass attribute

    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT

    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection:
                try:
                    start, self.headers = read_head(self.rfile)
                except HeadRefused as exc:
                    return self._refuse(exc.status, BadRequest(str(exc)))
                if not start:  # the peer hung up between requests
                    return
                words = start.split(" ")
                if len(words) != 3 or words[2] not in ("HTTP/1.1", "HTTP/1.0"):
                    return self._refuse(400, BadRequest(f"bad request line {start[:64]!r}"))
                self.command, self.path, version = words
                connection = self.headers.get("connection", "").lower()
                self.close_connection = version != "HTTP/1.1" or "close" in connection
                if self.command not in ("GET", "POST"):
                    return self._refuse(501, BadRequest(f"unsupported method {self.command!r}"))
                # RFC 9112 §6.1, §6.3: framing that two readers could split differently.
                if "transfer-encoding" in self.headers:
                    return self._refuse(501, BadRequest("a request transfer coding"))
                if self.command == "GET" and self.headers.get("content-length", "0") != "0":
                    return self._refuse(400, BadRequest("a GET with a body"))
                self._dispatch()
        except OSError:  # idle past the timeout, or the connection broke
            pass

    def _send(self, status: int, payload: bytes, fields: str = "") -> None:
        """The whole response in one write: status line, headers and JSON body; a 304
        has no body."""
        from http import HTTPStatus
        head = f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n{fields}"
        if status == 304:
            payload = b""
        else:
            head += f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
        if self.close_connection:
            head += "Connection: close\r\n"
        self.wfile.write(f"{head}\r\n".encode("latin-1") + payload)

    def _send_json(self, status: int, obj: dict | list) -> None:
        self._send(status, json.dumps(obj).encode("utf-8"))

    def _send_error(self, status: int, exc: DatacredError) -> None:
        """Refuse a request: the one answer, {"error": exc's class name, "detail": its
        message}, unsigned, with any lone surrogate escaped so an I-JSON reader reads it."""
        detail = str(exc).encode("utf-8", "backslashreplace").decode("utf-8")
        import logging
        logging.getLogger(__name__).info("refused %s: %s: %s", self.client_address[0],
                                         type(exc).__name__, detail)
        self._send_json(status, {"error": type(exc).__name__, "detail": detail})

    def _refuse(self, status: int, exc: DatacredError) -> None:
        """Answer status and hang up, reading what the peer still sends (at most
        _DRAIN_BYTES, for at most IDLE_TIMEOUT seconds): closing on unread bytes
        would reset the connection before the peer reads the answer."""
        self.close_connection = True
        self._send_error(status, exc)
        self.connection.shutdown(socket.SHUT_WR)
        deadline, left = time.monotonic() + self.timeout, _DRAIN_BYTES
        while left > 0 and (wait := deadline - time.monotonic()) > 0:
            self.connection.settimeout(wait)
            if not (data := self.rfile.read1(min(left, 1 << 16))):
                break
            left -= len(data)

    def _read_json(self) -> dict:
        """The JSON object the body holds, read by parse_json; a bad or oversized
        Content-Length is refused unread."""
        length = self.headers.get("content-length", "")
        if not length.isdecimal():
            raise BadRequest("Content-Length must be a non-negative integer")
        if (size := int(length)) > MAX_BODY_BYTES:
            raise PayloadTooLarge(f"body of {size} bytes exceeds {MAX_BODY_BYTES}")
        if self.headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return parse_json(self.rfile.read(size), "request body")

    def _dispatch(self) -> None:
        """Answer a GET or POST: a public route, else a row of the admin table."""
        agent, body = self.agent, {}
        if self.command == "POST":
            try:
                body = self._read_json()
            except AgentError as exc:
                # The unread body would be parsed as the next request, so hang up.
                return self._refuse(exc.http_status, exc)
            except DocumentInvalid as exc:  # at the inbox, a malformed envelope
                refusal = SignatureInvalid if self.path == "/inbox" else BadRequest
                return self._send_error(400, refusal(str(exc)))
            if self.path == "/inbox":
                try:
                    return self._send_json(200, agent.handle_envelope(body))
                except DatacredError as exc:
                    return self._send_error(getattr(exc, "http_status", 400), exc)
        elif self.path == "/.well-known/did.json":
            return self._send_json(200, agent.did_document.to_json())
        elif self.path == "/registry" and agent.config.role == "publisher" and agent.state.registry:
            payload, etag = agent.registry_reply()
            tags = self.headers.get("if-none-match", "").split(",")
            fresh = etag in (tag.strip().removeprefix("W/") for tag in tags)
            return self._send(304 if fresh else 200, payload, f"ETag: {etag}\r\n")
        route = _ADMIN_ROUTES.get((self.command, self.path))
        if route is None:
            self._send_error(404, NotFound(self.path))
        elif not is_loopback_host(self.client_address[0]):
            self._send_error(403, Forbidden("admin API is loopback-only"))
        else:
            try:
                self._send_json(200, route(agent, body))
            except DatacredError as exc:  # a relayed refusal too: its inbox status is the peer's
                self._send_error(403 if isinstance(exc, RoleForbidden) else 400, exc)
