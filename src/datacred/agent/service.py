"""The agent process: HTTP service plus client-side protocol operations.

Transport is one POST /inbox endpoint per agent taking a signed envelope and
returning the signed response envelope (or a 4xx problem-report, also for a
body field of the wrong type). Request bodies are bounded before they are
read. Envelope POSTs go through resolver.request_json: https, or plain http
to loopback under allowInsecureHttp, and no redirects. Agents also serve
their own did:web document and, for publishers, the revocation registry, so
the whole trust root stays on the agent's origin.

A connection is stored once the peer has accepted it, so a failed connect
leaves no record. A proof request keeps its challenge only for the call:
the exact comparison in verify_presentation is the replay protection.

Admin endpoints are loopback-only and drive the automated workflows:
connect, issue, request-proof, revoke, plus read-only listings.
"""

from __future__ import annotations

import errno
import json
import logging
import threading
import uuid
from datetime import datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..credential import (
    DATASET_PROVENANCE_V1,
    CredentialSchema,
    CredentialStatus,
    HttpRegistrySource,
    RevocationRegistry,
    VerifiableCredential,
    issue_credential,
    new_registry,
    revoke,
)
from ..did import Did, DidDocument, VerificationMethod, generate_did_key, parse_did
from ..errors import (
    AgentError,
    BadConfig,
    ConnectionInactive,
    CredentialRejected,
    DatacredError,
    DocumentInvalid,
    NoMatchingCredential,
    PolicyRejected,
    PortInUse,
    RoleForbidden,
    SchemaMismatch,
    SignatureInvalid,
    Unreachable,
)
from ..jsonfile import write_json
from ..keys import KeyPair, generate_keypair
from ..presentation import (
    VerifiablePresentation,
    create_presentation,
    new_challenge,
    verify_presentation,
)
from ..proofs import check_proof, parse_timestamp
from ..reports import CheckResult, CheckStatus, PresentationReport
from ..resolver import KeyBackend, Resolver, WebBackend, is_loopback_host, request_json
from ..wallet import Wallet
from .config import AgentConfig
from .envelopes import (
    CONNECTION_REQUEST,
    CONNECTION_RESPONSE,
    CREDENTIAL_ACK,
    CREDENTIAL_ISSUE,
    PROBLEM_REPORT,
    PROOF_REQUEST,
    PROOF_RESPONSE,
    MessageEnvelope,
    build_envelope,
    verify_envelope,
)
from .state import AgentState, Connection

log = logging.getLogger(__name__)

CREDENTIAL_LABEL_PREFIX = "credential:"
_HTTP_TIMEOUT = 10.0
MAX_BODY_BYTES = 1 << 20  # inbound request bodies; a signed envelope is a few KiB
_WILDCARD_HOSTS = ("0.0.0.0", "::", "")  # bind every interface, but name no reachable host

_PROBLEM_ERRORS = {
    "PolicyRejected": PolicyRejected,
    "ConnectionInactive": ConnectionInactive,
    "CredentialRejected": CredentialRejected,
    "NoMatchingCredential": NoMatchingCredential,
    "SignatureInvalid": SignatureInvalid,
    "RoleForbidden": RoleForbidden,
}


class _Problem(Exception):
    """Internal: a protocol failure to be answered with a problem-report."""

    def __init__(self, code: str, detail: str, http_status: int = 400):
        super().__init__(detail)
        self.code = code
        self.detail = detail
        self.http_status = http_status


def _field(body: dict, name: str, kind: type, default):
    """body[name], or default when absent; a value of another type is a BadRequest."""
    value = body.get(name, default)
    if not isinstance(value, kind):
        raise _Problem(
            "BadRequest", f"{name} must be a {kind.__name__}, not {type(value).__name__}"
        )
    return value


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
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._lock = threading.RLock()

    # --- lifecycle ---

    def start(self) -> "Agent":
        """Open the wallet, bind the listener, and establish the agent DID."""
        config = self.config
        if config.listen_host in _WILDCARD_HOSTS:
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
            self._server = ThreadingHTTPServer(
                (config.listen_host, config.listen_port), handler
            )
        except OSError as exc:
            if exc.errno == errno.EADDRINUSE:
                raise PortInUse(
                    f"{config.listen_host}:{config.listen_port} is already bound"
                ) from exc
            raise
        self._server.daemon_threads = True
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
            did = parse_did(f"did:web:{domain}")
            method = VerificationMethod(
                id=did.text,
                controller=did.text,
                public_key_base58=self.key.public_key_base58,
            )
            self.did = did
            self.did_document = DidDocument(id=did.text, authentication=[method])
        self._write_did_document()

        self.state = AgentState(config.resolved_state_path())
        self.state.load()
        if config.role == "publisher" and self.state.registry is None:
            self.state.registry = new_registry(self.did, self.key).to_json()
            self.state.save()

        self.resolver = Resolver(
            backends=[
                KeyBackend(),
                WebBackend(allow_insecure_loopback=config.allow_insecure_http),
            ],
            cache_ttl=config.cache_ttl,
        )
        self.registry_source = HttpRegistrySource(
            allow_insecure_loopback=config.allow_insecure_http
        )

        self._thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.05),
            name=f"agent-{config.role}",
            daemon=True,
        )
        self._thread.start()
        log.info("%s agent listening on %s as %s", config.role, self.base_url, self.did.text)

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def _write_did_document(self) -> None:
        path = self.config.resolved_state_path().with_suffix(".did.json")
        write_json(path, self.did_document.to_json())

    def invitation(self) -> dict:
        """What a peer needs to connect to this agent."""
        return {"did": self.did.text, "endpoint": self.base_url}

    # --- wallet-backed credential store ---

    def stored_credentials(self) -> list[VerifiableCredential]:
        out = []
        with self._lock:
            for label in self.wallet.list():
                if label.startswith(CREDENTIAL_LABEL_PREFIX):
                    out.append(VerifiableCredential.from_json(self.wallet.get(label)))
        return out

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
            out["issued"] = list(self.state.issued)
        return out

    def list_connections(self) -> list[dict]:
        with self._lock:
            return [c.to_json() for c in self.state.connections.values()]

    def list_credentials(self) -> list[dict]:
        return [vc.to_json() for vc in self.stored_credentials()]

    # --- outbound protocol operations ---

    def _exchange(
        self, their_did: str, endpoint: str, message_type: str, body: dict, expect: str
    ) -> MessageEnvelope:
        payload = build_envelope(self.key, self.did.text, their_did, message_type, body)
        url = endpoint.rstrip("/") + "/inbox"
        try:
            # A redirect would re-post the signed envelope to wherever it points.
            _, raw = request_json(url, self.config.allow_insecure_http, _HTTP_TIMEOUT, payload)
        except DocumentInvalid as exc:  # a reply that is not JSON
            raise AgentError(str(exc)) from exc
        except DatacredError as exc:  # refused URL, transport failure, redirect, error status
            raise Unreachable(str(exc)) from exc
        envelope = verify_envelope(raw, self.resolver)
        if envelope.type == PROBLEM_REPORT:
            code = envelope.body.get("code", "")
            detail = envelope.body.get("detail", "")
            raise _PROBLEM_ERRORS.get(code, AgentError)(f"{code}: {detail}")
        if envelope.type != expect:
            raise AgentError(f"expected {expect}, got {envelope.type}")
        return envelope

    def connect(self, did: str, endpoint: str) -> Connection:
        """Connect from an invitation; recorded only once the peer has accepted."""
        if self.config.role == "dataset":
            raise RoleForbidden("dataset agents never initiate connections")
        connection = Connection(str(uuid.uuid4()), self.did.text, did, endpoint)
        envelope = self._exchange(
            did,
            endpoint,
            CONNECTION_REQUEST,
            {"connectionId": connection.connection_id, "endpoint": self.base_url},
            expect=CONNECTION_RESPONSE,
        )
        if envelope.sender != did:
            raise SignatureInvalid(f"connection response from {envelope.sender}, expected {did}")
        with self._lock:
            self.state.add_connection(connection)
        return connection

    def issue_over_connection(
        self,
        connection_id: str,
        claims: dict,
        schema: CredentialSchema | None = None,
        expiration_date: datetime | str | None = None,
        with_status: bool = True,
    ) -> VerifiableCredential:
        """Issue a credential to the connected dataset agent and await its ack."""
        if self.config.role != "publisher":
            raise RoleForbidden("only publisher agents issue credentials")
        connection = self.state.connections.get(connection_id)
        if connection is None:
            raise ConnectionInactive(f"no active connection {connection_id}")
        status = None
        if with_status:
            status = CredentialStatus(
                registry_url=f"{self.base_url}/registry", status_id=str(uuid.uuid4())
            )
        credential = issue_credential(
            self.key,
            self.did,
            parse_did(connection.their_did),
            schema or DATASET_PROVENANCE_V1,
            claims,
            expiration_date=expiration_date,
            status=status,
        )
        with self._lock:
            self.state.issued.append(
                {
                    "credentialId": credential.id,
                    "statusId": status.status_id if status else None,
                    "subject": connection.their_did,
                }
            )
            self.state.save()
        self._exchange(
            connection.their_did,
            connection.their_endpoint,
            CREDENTIAL_ISSUE,
            {"connectionId": connection_id, "credential": credential.to_json()},
            expect=CREDENTIAL_ACK,
        )
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

        # The exact comparison in verify_presentation is the replay protection.
        challenge = new_challenge()
        envelope = self._exchange(
            target_did,
            endpoint,
            PROOF_REQUEST,
            {"requestedAttributes": list(attributes), "challenge": challenge},
            expect=PROOF_RESPONSE,
        )
        try:
            presentation = VerifiablePresentation.from_json(envelope.body["presentation"])
        except (KeyError, DatacredError) as exc:
            raise AgentError(f"malformed proof response: {exc}") from exc
        report = verify_presentation(
            presentation,
            expected_challenge=challenge,
            resolver=self.resolver,
            registry_source=self.registry_source,
        )
        if presentation.holder == target_did and envelope.sender == target_did:
            report.checks["responder"] = CheckResult(CheckStatus.VALID, "ResponderIsTarget")
        else:
            report.checks["responder"] = CheckResult(
                CheckStatus.INVALID,
                "ResponderNotTarget",
                f"presented by {presentation.holder}, requested from {target_did}",
            )
        return report

    def revoke_status(self, status_id: str) -> RevocationRegistry:
        """Revoke a status id and republish the registry document."""
        if self.config.role != "publisher":
            raise RoleForbidden("only publisher agents hold a revocation registry")
        with self._lock:
            registry = RevocationRegistry.from_json(self.state.registry)
            updated = revoke(registry, status_id, self.key)
            self.state.registry = updated.to_json()
            self.state.save()
        return updated

    def find_status_id(self, credential_id: str) -> str | None:
        for record in self.state.issued:
            if record["credentialId"] == credential_id:
                return record["statusId"]
        return None

    # --- inbound envelope handling ---

    def handle_envelope(self, raw: dict) -> tuple[int, dict]:
        """Process one inbound envelope; returns (http status, response JSON)."""
        try:
            envelope = verify_envelope(raw, self.resolver)
        except DatacredError as exc:
            log.warning("dropping inbound envelope: %s", exc)
            return 400, self._problem_payload("unknown", "SignatureInvalid", str(exc))
        try:
            if envelope.type == CONNECTION_REQUEST:
                body = self._on_connection_request(envelope)
                reply = CONNECTION_RESPONSE
            elif envelope.type == CREDENTIAL_ISSUE:
                body = self._on_credential_issue(envelope)
                reply = CREDENTIAL_ACK
            elif envelope.type == PROOF_REQUEST:
                body = self._on_proof_request(envelope)
                reply = PROOF_RESPONSE
            else:
                raise _Problem("UnsupportedMessage", f"no handler for {envelope.type}")
        except _Problem as problem:
            log.info("problem handling %s from %s: %s: %s",
                     envelope.type, envelope.sender, problem.code, problem.detail)
            return problem.http_status, self._problem_payload(
                envelope.sender, problem.code, problem.detail
            )
        return 200, build_envelope(self.key, self.did.text, envelope.sender, reply, body)

    def _problem_payload(self, recipient: str, code: str, detail: str) -> dict:
        return build_envelope(
            self.key,
            self.did.text,
            recipient,
            PROBLEM_REPORT,
            {"code": code, "detail": detail},
        )

    def _on_connection_request(self, envelope: MessageEnvelope) -> dict:
        if not self.config.policy.auto_accept_connections:
            raise _Problem(
                "PolicyRejected", "connections are not auto-accepted", http_status=403
            )
        body = envelope.body
        endpoint = _field(body, "endpoint", str, "")
        if not endpoint:
            raise _Problem("BadRequest", "connection request carries no endpoint")
        connection_id = _field(body, "connectionId", str, "") or str(uuid.uuid4())
        with self._lock:
            existing = self.state.connections.get(connection_id)
            # A proposed id may only reuse a record with the same peer;
            # anything else would let a sender hijack someone's connection.
            if existing is not None and existing.their_did != envelope.sender:
                raise _Problem(
                    "BadRequest", f"connection id {connection_id} is taken"
                )
            self.state.add_connection(
                Connection(connection_id, self.did.text, envelope.sender, endpoint)
            )
        return {"connectionId": connection_id, "endpoint": self.base_url}

    def _on_credential_issue(self, envelope: MessageEnvelope) -> dict:
        body = envelope.body
        connection_id = _field(body, "connectionId", str, "")
        connection = self.state.connections.get(connection_id)
        if connection is None or connection.their_did != envelope.sender:
            raise _Problem(
                "ConnectionInactive",
                f"no active connection {connection_id!r} with {envelope.sender}",
            )
        try:
            credential = VerifiableCredential.from_json(body["credential"])
        except (KeyError, DatacredError) as exc:
            raise _Problem("CredentialRejected", f"malformed credential: {exc}") from exc
        if credential.subject_id != self.did.text:
            raise _Problem(
                "CredentialRejected",
                f"credential subject {credential.subject_id} is not this agent",
            )
        # Receipt check: signature and schema must hold before the wallet
        # accepts it; temporal/revocation are the verifier's business later.
        signature, _ = check_proof(credential.to_json(), credential.issuer, self.resolver)
        if signature.status is not CheckStatus.VALID:
            raise _Problem(
                "CredentialRejected", f"signature: {signature.reason} {signature.detail}"
            )
        try:
            credential.schema.validate_claims(credential.claims)
        except SchemaMismatch as exc:
            raise _Problem("CredentialRejected", f"schema: SchemaViolation {exc}") from exc
        with self._lock:
            self.wallet.put(CREDENTIAL_LABEL_PREFIX + credential.id, credential.to_json())
            self.wallet.save()
        return {"credentialId": credential.id}

    def _on_proof_request(self, envelope: MessageEnvelope) -> dict:
        # Only connection-protocol messages may arrive outside an active connection.
        if self.state.connection_for_did(envelope.sender) is None:
            raise _Problem(
                "ConnectionInactive", f"no active connection with {envelope.sender}"
            )
        challenge = _field(envelope.body, "challenge", str, "")
        requested = _field(envelope.body, "requestedAttributes", list, [])
        if not all(isinstance(attr, str) for attr in requested):
            raise _Problem("BadRequest", "requestedAttributes must all be strings")
        if not challenge:
            raise _Problem("BadRequest", "proof request carries no challenge")
        candidates = [
            vc
            for vc in self.stored_credentials()
            if self.config.policy.may_share(vc.id)
            and all(attr in vc.claims for attr in requested)
        ]
        if not candidates:
            raise _Problem(
                "NoMatchingCredential",
                f"no sharable credential covers {requested!r}",
                http_status=404,
            )
        chosen = max(candidates, key=lambda vc: parse_timestamp(vc.issuance_date))
        presentation = create_presentation(self.key, self.did, [chosen], challenge)
        return {"presentation": presentation.to_json()}


def provision_agent(config: AgentConfig) -> Agent:
    """Configure and launch an agent process ready for connections."""
    return Agent(config).start()


class _RequestHandler(BaseHTTPRequestHandler):
    agent: Agent  # bound per-agent via a subclass attribute

    protocol_version = "HTTP/1.1"

    def log_message(self, fmt: str, *args) -> None:  # noqa: N802 - stdlib name
        log.debug("%s %s", self.address_string(), fmt % args)

    def _send_json(self, status: int, obj: dict | list, close: bool = False) -> None:
        payload = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _read_json(self) -> dict:
        """The JSON body; a bad or oversized Content-Length is refused unread."""
        try:
            length = int(self.headers["Content-Length"])
        except (TypeError, ValueError):
            length = -1
        if length < 0:
            raise _Problem("BadRequest", "Content-Length must be a non-negative integer")
        if length > MAX_BODY_BYTES:
            raise _Problem(
                "PayloadTooLarge",
                f"body of {length} bytes exceeds {MAX_BODY_BYTES}",
                http_status=413,
            )
        return json.loads(self.rfile.read(length).decode("utf-8"))

    def _admin_guard(self) -> bool:
        if is_loopback_host(self.client_address[0]):
            return True
        self._send_json(403, {"error": "Forbidden", "detail": "admin API is loopback-only"})
        return False

    def do_GET(self) -> None:  # noqa: N802 - stdlib name
        agent = self.agent
        if self.path == "/.well-known/did.json":
            self._send_json(200, agent.did_document.to_json())
        elif self.path == "/registry":
            if agent.config.role == "publisher" and agent.state.registry is not None:
                self._send_json(200, agent.state.registry)
            else:
                self._send_json(404, {"error": "NotFound", "detail": "no registry here"})
        elif self.path == "/status":
            if self._admin_guard():
                self._send_json(200, agent.status())
        elif self.path == "/connections":
            if self._admin_guard():
                self._send_json(200, agent.list_connections())
        elif self.path == "/credentials":
            if self._admin_guard():
                self._send_json(200, agent.list_credentials())
        else:
            self._send_json(404, {"error": "NotFound", "detail": self.path})

    def do_POST(self) -> None:  # noqa: N802 - stdlib name
        agent = self.agent
        try:
            body = self._read_json()
        except _Problem as problem:
            # The unread body would be parsed as the next request, so hang up.
            self._send_json(
                problem.http_status, {"error": problem.code, "detail": problem.detail}, close=True
            )
            return
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_json(400, {"error": "BadRequest", "detail": f"invalid JSON: {exc}"})
            return

        if self.path == "/inbox":
            status, response = agent.handle_envelope(body)
            self._send_json(status, response)
            return

        if not self._admin_guard():
            return
        if not isinstance(body, dict):
            self._send_json(400, {"error": "BadRequest", "detail": "body must be a JSON object"})
            return
        try:
            if self.path == "/connect":
                connection = agent.connect(body["did"], body["endpoint"])
                self._send_json(200, connection.to_json())
            elif self.path == "/issue":
                schema = (
                    CredentialSchema.from_json(body["schema"]) if "schema" in body else None
                )
                credential = agent.issue_over_connection(
                    body["connectionId"],
                    body["claims"],
                    schema=schema,
                    expiration_date=body.get("expirationDate"),
                    with_status=body.get("withStatus", True),
                )
                self._send_json(200, credential.to_json())
            elif self.path == "/request-proof":
                report = agent.request_proof(
                    body["target"],
                    body.get("attributes", []),
                    endpoint=body.get("endpoint"),
                )
                self._send_json(200, report.to_json())
            elif self.path == "/revoke":
                status_id = body.get("statusId")
                if not status_id and body.get("credentialId"):
                    status_id = agent.find_status_id(body["credentialId"])
                if not status_id:
                    raise AgentError("revoke needs a statusId or a known credentialId")
                registry = agent.revoke_status(status_id)
                self._send_json(200, registry.to_json())
            else:
                self._send_json(404, {"error": "NotFound", "detail": self.path})
        except KeyError as exc:
            self._send_json(400, {"error": "BadRequest", "detail": f"missing field {exc}"})
        except RoleForbidden as exc:
            self._send_json(403, {"error": "RoleForbidden", "detail": str(exc)})
        except DatacredError as exc:
            self._send_json(400, {"error": type(exc).__name__, "detail": str(exc)})
