"""Durable agent state: connections, registry, and an issuance log.

None of this is secret (keys and credentials live in the encrypted wallet),
but it must survive restarts, so it holds only what is settled. A connection
is recorded once both sides have agreed to it, so a failed connect leaves
nothing behind, and a reconnect replaces the peer's earlier record.
Challenges are never recorded: a proof request checks the presented
challenge byte for byte against the one it generated, within the same call.

Two files sit next to the wallet:

- the state document (``<wallet>.state.json`` unless configured) holds the
  connections and the publisher's registry; ``save`` replaces it atomically.
- the issuance log (the state path with suffix ``.issued.jsonl``) holds the
  publisher's issuance records, one JSON object per line. ``record_issued``
  appends one line, so an issue never rewrites the state document.

Torn tail: a crash mid-append can leave a last line with no newline. ``load``
ignores it and the next append cuts it off. No write is fsynced.

A state document written before the log existed carries ``issued`` itself.
``load`` copies those records into a new log when there is none yet, and
the next ``save`` drops them from the document. A damaged state document or
log raises DocumentInvalid naming the file.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import DocumentInvalid
from ..jsonfile import append_line, read_json, read_lines, write_json, write_lines


@dataclass
class Connection:
    """One active peer relationship; recorded only once both sides agree."""

    connection_id: str
    my_did: str
    their_did: str
    their_endpoint: str
    created_at: float = field(default_factory=time.time)

    def to_json(self) -> dict:
        return {
            "connectionId": self.connection_id,
            "myDid": self.my_did,
            "theirDid": self.their_did,
            "theirEndpoint": self.their_endpoint,
            "state": "active",
            "createdAt": self.created_at,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Connection":
        """A stored connection; KeyError or TypeError when a field is missing or mistyped."""
        texts = [obj[key] for key in ("connectionId", "myDid", "theirDid", "theirEndpoint")]
        created_at = obj["createdAt"]
        if not all(isinstance(text, str) for text in texts) or type(created_at) not in (int, float):
            raise TypeError("connection ids, DIDs and endpoint must be strings, createdAt a number")
        return cls(*texts, created_at=created_at)


def _objects(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, dict) for item in value)


class AgentState:
    """Everything an agent must remember between restarts: a document and a log."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.issued_path = self.path.with_suffix(".issued.jsonl")
        self.connections: dict[str, Connection] = {}
        self.registry: dict | None = None  # publisher's signed revocation registry
        self.issued: list[dict] = []  # publisher's issuance records, as in the log
        self._issued_end = 0  # where the log's complete lines end

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
        line = json.dumps(record).encode("ascii")
        self._issued_end = append_line(self.issued_path, line, self._issued_end)
        self.issued.append(record)

    def load(self) -> None:
        legacy: list = []
        if self.path.exists():
            obj = read_json(self.path)
            connections, registry = obj.get("connections", []), obj.get("registry")
            legacy = obj.get("issued", [])
            if not _objects(connections):
                raise DocumentInvalid(f"{self.path}: connections must be a list of objects")
            if registry is not None and not isinstance(registry, dict):
                raise DocumentInvalid(f"{self.path}: registry must be an object")
            if not _objects(legacy):
                raise DocumentInvalid(f"{self.path}: issued must be a list of objects")
            try:
                # Records in another state were left by connects that never completed.
                self.connections = {
                    c["connectionId"]: Connection.from_json(c)
                    for c in connections
                    if c.get("state") == "active"
                }
            except (KeyError, TypeError) as exc:
                raise DocumentInvalid(f"{self.path}: bad connection record: {exc}") from exc
            self.registry = registry
        if self.issued_path.exists():
            lines, self._issued_end = read_lines(self.issued_path)
            self.issued = [self._issued_record(number, line) for number, line in
                           enumerate(lines, 1)]
        elif legacy:
            lines = [json.dumps(record).encode("ascii") for record in legacy]
            self._issued_end = write_lines(self.issued_path, lines)
            self.issued = list(legacy)

    def _issued_record(self, number: int, line: bytes) -> dict:
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise DocumentInvalid(f"{self.issued_path}: line {number}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise DocumentInvalid(f"{self.issued_path}: line {number} is not a JSON object")
        return record

    def save(self) -> None:
        """Replace the state document; issuance records stay in the log."""
        obj = {
            "connections": [c.to_json() for c in self.connections.values()],
            "registry": self.registry,
        }
        write_json(self.path, obj)
