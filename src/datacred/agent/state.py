"""Durable agent state: connections, issuance records, registry.

None of this is secret (keys and credentials live in the encrypted wallet),
but it must survive restarts so half-finished protocol flows fail loudly
instead of silently diverging. Saved atomically next to the wallet.

The nonce ledger is kept in memory only: a challenge is issued and consumed
inside one proof request, so a nonce lost in a restart can only cause a
rejection, never let a replay through.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Connection:
    """One peer relationship; state only ever advances invited→requested→active."""

    connection_id: str
    my_did: str
    their_did: str
    their_endpoint: str
    state: str = "invited"
    created_at: float = field(default_factory=time.time)

    _ORDER = ("invited", "requested", "active")

    def advance(self, new_state: str) -> None:
        if self._ORDER.index(new_state) < self._ORDER.index(self.state):
            raise ValueError(f"connection {self.connection_id}: {self.state} -> {new_state}")
        self.state = new_state

    @property
    def active(self) -> bool:
        return self.state == "active"

    def to_json(self) -> dict:
        return {
            "connectionId": self.connection_id,
            "myDid": self.my_did,
            "theirDid": self.their_did,
            "theirEndpoint": self.their_endpoint,
            "state": self.state,
            "createdAt": self.created_at,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Connection":
        return cls(
            connection_id=obj["connectionId"],
            my_did=obj["myDid"],
            their_did=obj["theirDid"],
            their_endpoint=obj["theirEndpoint"],
            state=obj["state"],
            created_at=obj["createdAt"],
        )


def new_connection(my_did: str, their_did: str, their_endpoint: str) -> Connection:
    return Connection(
        connection_id=str(uuid.uuid4()),
        my_did=my_did,
        their_did=their_did,
        their_endpoint=their_endpoint,
    )


class NonceLedger:
    """Challenges this agent has issued, each usable at most once."""

    def __init__(self, ttl: float = 120.0):
        self.ttl = ttl
        self._issued: dict[str, float] = {}

    def issue(self, challenge: str) -> None:
        self._issued[challenge] = time.time() + self.ttl

    def consume(self, challenge: str) -> bool:
        """True iff the challenge was issued, unexpired, and not yet consumed."""
        expires = self._issued.pop(challenge, None)
        return expires is not None and time.time() < expires


class AgentState:
    """Everything an agent must remember between restarts, one JSON file."""

    def __init__(self, path: str | Path, nonce_ttl: float = 120.0):
        self.path = Path(path)
        self.connections: dict[str, Connection] = {}
        self.nonces = NonceLedger(ttl=nonce_ttl)  # in memory only, never saved
        self.registry: dict | None = None  # publisher's signed revocation registry
        self.issued: list[dict] = []  # publisher's issuance records

    def connection_for_did(self, their_did: str) -> Connection | None:
        for connection in self.connections.values():
            if connection.their_did == their_did and connection.active:
                return connection
        return None

    def load(self) -> None:
        if not self.path.exists():
            return
        obj = json.loads(self.path.read_text(encoding="utf-8"))
        self.connections = {
            c["connectionId"]: Connection.from_json(c) for c in obj.get("connections", [])
        }
        self.registry = obj.get("registry")
        self.issued = list(obj.get("issued", []))

    def save(self) -> None:
        obj = {
            "connections": [c.to_json() for c in self.connections.values()],
            "registry": self.registry,
            "issued": self.issued,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
        os.replace(tmp, self.path)
