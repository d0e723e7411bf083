"""Durable agent state: connections, an issuance log and a registry log.

None of this is secret (keys and credentials live in the encrypted wallet),
but it must survive restarts, so it holds only what is settled. A connection
is recorded once both sides have agreed to it, so a failed connect leaves
nothing behind, and a reconnect replaces the peer's earlier record.
Challenges are never recorded: a proof request checks the presented
challenge byte for byte against the one it generated, within the same call.

Three files sit next to the wallet:

- the state document (``<wallet>.state.json`` unless configured) holds the
  connections; ``save`` replaces it atomically.
- the issuance log (the state path with suffix ``.issued.jsonl``) holds the
  publisher's issuance records, one JSON object per line. ``record_issued``
  appends one line, so an issue never rewrites the state document.
- the registry log (suffix ``.registry.jsonl``) holds the publisher's signed
  registry: the first one whole, then one line per id revoked since,
  ``{"revoke": id, "updated": ..., "proof": ...}``, the last of which holds the
  registry's ``updated`` and ``proof``. ``record_registry`` creates the log with
  the first registry and appends a line, about 360 bytes, for each revocation;
  the log is never rewritten. A log whose first line already revokes ids, as
  earlier versions compacted it, reads the same way.

Torn tail: a crash mid-append can leave a last line with no newline. ``load``
ignores it and the next append cuts it off. No write is fsynced.

A damaged state document or log raises DocumentInvalid naming the file, as
does a document from before the logs, which carries ``issued`` or ``registry``;
whether the registry verifies is the agent's check.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..credential import RevocationRegistry
from ..errors import DocumentInvalid
from ..jsonfile import LIST, Field, append_line, json_document, json_reader, member, parse_json
from ..jsonfile import parsed, read_json, read_lines, refusal, write_json, write_lines


@json_document(refusal(DocumentInvalid, "bad connection record: "),
               Field("connectionId", "connection_id"), Field("myDid", "my_did"),
               Field("theirDid", "their_did"), Field("theirEndpoint", "their_endpoint"),
               Field("state", "state", optional=True),
               Field("createdAt", "created_at", (int, float)), closed=False)
@dataclass
class Connection:
    """One active peer relationship; recorded only once both sides agree."""

    connection_id: str
    my_did: str
    their_did: str
    their_endpoint: str
    created_at: float = field(default_factory=time.time)
    state: str = "active"  # load reads only the active records


def _encode(obj: dict) -> bytes:
    return json.dumps(obj).encode("ascii")


# An issuance record: it names a credential, and the status id that withdraws it.
_ISSUANCE = json_reader(DocumentInvalid, Field("credentialId", "credential_id"),
                        Field("statusId", "status_id", (str, type(None)), optional=True),
                        closed=False)


class AgentState:
    """Everything an agent must remember between restarts: a document and two logs."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.issued_path = self.path.with_suffix(".issued.jsonl")
        self.registry_path = self.path.with_suffix(".registry.jsonl")
        self.connections: dict[str, Connection] = {}
        self.registry: RevocationRegistry | None = None  # publisher's: its only revoked ids
        self.issued: list[dict] = []  # publisher's issuance records, as in the log
        self.status_ids: dict = {}  # credential id -> status id, of the first record for it
        self._issued_end = 0  # where the issuance log's complete lines end
        self._registry_end = 0  # where the registry log's complete lines end

    def connection_for_did(self, their_did: str) -> Connection | None:
        for connection in self.connections.values():
            if connection.their_did == their_did:
                return connection
        return None

    def add_connection(self, connection: Connection) -> None:
        """Store and save a connection; it replaces any earlier one with the same peer."""
        kept = {k: c for k, c in self.connections.items() if c.their_did != connection.their_did}
        self.connections = {**kept, connection.connection_id: connection}
        self.save()

    def record_issued(self, record: dict) -> None:
        """Append one issuance record to the log."""
        self._issued_end = append_line(self.issued_path, _encode(record), self._issued_end)
        self.issued.append(record)
        self.status_ids.setdefault(record.get("credentialId"), record.get("statusId"))

    def record_registry(self, registry: RevocationRegistry) -> None:
        """Make registry the publisher's: the first one, which creates the log, or the
        current one with one more id at the end of its revoked list, appended as a line."""
        obj = registry.to_json()
        if self.registry is None:
            self._registry_end = write_lines(self.registry_path, [_encode(obj)])
        else:
            line = {"revoke": obj["revoked"][-1], "updated": obj["updated"], "proof": obj["proof"]}
            self._registry_end = append_line(self.registry_path, _encode(line), self._registry_end)
        self.registry = registry

    def load(self) -> None:
        if self.path.exists():
            obj, invalid = read_json(self.path), refusal(DocumentInvalid, f"{self.path}: ")
            records = member(obj, "connections", LIST, invalid, [])
            for name in sorted(obj.keys() & {"issued", "registry"}):
                raise invalid(f"{name!r} belongs to a state document from before the logs")
            # Records in another state were left by connects that never completed.
            active = [c for c in records if type(c) is not dict or c.get("state") == "active"]
            connections = [parsed(Connection.from_json, c, self.path) for c in active]
            self.connections = {c.connection_id: c for c in connections}
        if self.issued_path.exists():
            lines, self._issued_end = read_lines(self.issued_path)
            self.issued = []
            for number, line in enumerate(lines, 1):
                name = f"{self.issued_path}: line {number}"
                record = parse_json(line, name)
                parsed(_ISSUANCE, record, name)
                self.issued.append(record)
        self.status_ids = {r.get("credentialId"): r.get("statusId") for r in reversed(self.issued)}
        if self.registry_path.exists():
            self._load_registry()

    def _load_registry(self) -> None:
        path = self.registry_path
        lines, self._registry_end = read_lines(path)
        if not lines:
            raise DocumentInvalid(f"{path}: no registry snapshot")
        name = f"{path}: line 1"
        registry = parsed(RevocationRegistry.from_json, parse_json(lines[0], name), name)
        entries = [parse_json(line, f"{path}: line {n}") for n, line in enumerate(lines[1:], 2)]
        if entries:
            obj = {"issuer": registry.issuer,
                   "revoked": [*registry.revoked, *(entry.get("revoke") for entry in entries)],
                   "updated": entries[-1].get("updated"), "proof": entries[-1].get("proof")}
            registry = parsed(RevocationRegistry.from_json, obj, path)
        self.registry = registry

    def save(self) -> None:
        """Replace the state document; issuance records and the registry stay in their logs."""
        write_json(self.path, {"connections": [c.to_json() for c in self.connections.values()]})
