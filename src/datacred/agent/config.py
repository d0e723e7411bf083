"""Agent configuration: role, wallet, listen address, identity, and policy."""

from __future__ import annotations

import ipaddress
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import BadConfig, DocumentInvalid, FetchFailed
from ..jsonfile import read_json, write_json

ROLES = ("publisher", "dataset", "user")
DEFAULT_PASSPHRASE_ENV = "DATACRED_PASSPHRASE"
WILDCARD_HOSTS = ("0.0.0.0", "")  # bind every interface, but name no reachable host


def _is_ipv6_literal(host: str) -> bool:
    try:
        return ipaddress.ip_address(host.strip("[]")).version == 6
    except ValueError:
        return False


@dataclass
class Policy:
    """What an agent will do without being asked twice."""

    auto_accept_connections: bool = True
    sharable_credential_ids: str | list[str] = "all"  # "all" or explicit ids

    def may_share(self, credential_id: str) -> bool:
        if self.sharable_credential_ids == "all":
            return True
        return credential_id in self.sharable_credential_ids

    def to_json(self) -> dict:
        return {
            "autoAcceptConnections": self.auto_accept_connections,
            "sharableCredentialIds": self.sharable_credential_ids,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Policy":
        return cls(
            auto_accept_connections=obj.get("autoAcceptConnections", True),
            sharable_credential_ids=obj.get("sharableCredentialIds", "all"),
        )


@dataclass
class AgentConfig:
    role: str
    wallet_path: str
    passphrase_env: str = DEFAULT_PASSPHRASE_ENV
    listen_host: str = "127.0.0.1"
    listen_port: int = 0  # 0 picks a free port; updated to the bound port
    public_base_url: str | None = None
    did_method: str = "key"  # "key" | "web"
    web_domain: str | None = None
    allow_insecure_http: bool = False  # plain http to loopback, test mode only
    cache_ttl: float = 300.0
    state_path: str | None = None
    key_label: str = "agent-key"
    policy: Policy = field(default_factory=Policy)

    def validate(self) -> None:
        if self.role not in ROLES:
            raise BadConfig(f"role must be one of {ROLES}, got {self.role!r}")
        if self.did_method not in ("key", "web"):
            raise BadConfig(f"did method must be key or web, got {self.did_method!r}")
        if not self.wallet_path:
            raise BadConfig("wallet path is required")
        if _is_ipv6_literal(self.listen_host):
            # The server binds IPv4, and http://<host>:<port> would need brackets.
            raise BadConfig(f"listenHost {self.listen_host!r} is IPv6; agents listen on IPv4")

    def resolve_passphrase(self) -> str:
        passphrase = os.environ.get(self.passphrase_env)
        if not passphrase:
            raise BadConfig(f"environment variable {self.passphrase_env} is not set")
        return passphrase

    def resolved_state_path(self) -> Path:
        if self.state_path:
            return Path(self.state_path)
        return Path(self.wallet_path + ".state.json")

    def to_json(self) -> dict:
        return {
            "role": self.role,
            "walletPath": self.wallet_path,
            "passphraseEnv": self.passphrase_env,
            "listenHost": self.listen_host,
            "listenPort": self.listen_port,
            "publicBaseUrl": self.public_base_url,
            "didMethod": self.did_method,
            "webDomain": self.web_domain,
            "allowInsecureHttp": self.allow_insecure_http,
            "cacheTtl": self.cache_ttl,
            "statePath": self.state_path,
            "keyLabel": self.key_label,
            "policy": self.policy.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AgentConfig":
        try:
            config = cls(
                role=obj["role"],
                wallet_path=obj["walletPath"],
                passphrase_env=obj.get("passphraseEnv", DEFAULT_PASSPHRASE_ENV),
                listen_host=obj.get("listenHost", "127.0.0.1"),
                listen_port=obj.get("listenPort", 0),
                public_base_url=obj.get("publicBaseUrl"),
                did_method=obj.get("didMethod", "key"),
                web_domain=obj.get("webDomain"),
                allow_insecure_http=obj.get("allowInsecureHttp", False),
                cache_ttl=obj.get("cacheTtl", 300.0),
                state_path=obj.get("statePath"),
                key_label=obj.get("keyLabel", "agent-key"),
                policy=Policy.from_json(obj.get("policy", {})),
            )
        except KeyError as exc:
            raise BadConfig(f"config missing field {exc}") from exc
        config.validate()
        return config

    @classmethod
    def load(cls, path: str | Path) -> "AgentConfig":
        try:
            return cls.from_json(read_json(path))
        except (FetchFailed, DocumentInvalid) as exc:
            raise BadConfig(str(exc)) from exc

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())
