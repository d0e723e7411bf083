"""Durable agent state: connections, issuance records, registry.

None of this is secret (keys and credentials live in the encrypted wallet),
but it must survive restarts, so it holds only what is settled. A connection
is recorded once both sides have agreed to it, so a failed connect leaves
nothing behind, and a reconnect replaces the peer's earlier record.
Challenges are never recorded: a proof request checks the presented
challenge byte for byte against the one it generated, within the same call.
Saved atomically next to the wallet.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..jsonfile import read_json, write_json


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
        return cls(
            connection_id=obj["connectionId"],
            my_did=obj["myDid"],
            their_did=obj["theirDid"],
            their_endpoint=obj["theirEndpoint"],
            created_at=obj["createdAt"],
        )


class AgentState:
    """Everything an agent must remember between restarts, one JSON file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.connections: dict[str, Connection] = {}
        self.registry: dict | None = None  # publisher's signed revocation registry
        self.issued: list[dict] = []  # publisher's issuance records

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

    def load(self) -> None:
        if not self.path.exists():
            return
        obj = read_json(self.path)
        # Records in another state were left by connects that never completed.
        self.connections = {
            c["connectionId"]: Connection.from_json(c)
            for c in obj.get("connections", [])
            if c.get("state") == "active"
        }
        self.registry = obj.get("registry")
        self.issued = list(obj.get("issued", []))

    def save(self) -> None:
        obj = {
            "connections": [c.to_json() for c in self.connections.values()],
            "registry": self.registry,
            "issued": self.issued,
        }
        write_json(self.path, obj)
