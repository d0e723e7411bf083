"""Agent configuration: role, wallet, listen address, identity, and policy."""

from __future__ import annotations

import ipaddress
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import BadConfig, DocumentInvalid, FetchFailed
from ..jsonfile import ANY, OBJECT, Field, json_document, read_json, refusal, string_list
from ..jsonfile import write_json

ROLES = ("publisher", "dataset", "user")
DEFAULT_PASSPHRASE_ENV = "DATACRED_PASSPHRASE"
WILDCARD_HOSTS = ("0.0.0.0", "")  # bind every interface, but name no reachable host
_bad_policy = refusal(BadConfig, "policy ")
_OPTIONAL = (str, type(None))


def _is_ipv6_literal(host: str) -> bool:
    try:
        return ipaddress.ip_address(host.strip("[]")).version == 6
    except ValueError:
        return False


def _sharable(ids):
    name = "sharableCredentialIds"
    return ids if ids == "all" else string_list({name: ids}, name, _bad_policy)


# A type must match exactly, so True is no port and a truthy "false" no boolean.
@json_document(_bad_policy,
               Field("autoAcceptConnections", "auto_accept_connections", (bool,), optional=True),
               Field("sharableCredentialIds", "sharable_credential_ids", ANY, optional=True,
                     parse=_sharable),
               closed=False)
@dataclass
class Policy:
    """What an agent will do without being asked twice."""

    auto_accept_connections: bool = True
    sharable_credential_ids: str | list[str] = "all"  # "all" or explicit ids

    def may_share(self, credential_id: str) -> bool:
        if self.sharable_credential_ids == "all":
            return True
        return credential_id in self.sharable_credential_ids


def _in_range(**fields) -> "AgentConfig":
    config = AgentConfig(**fields)
    if not 0 <= config.listen_port <= 65535:
        raise BadConfig(f"listenPort must be in 0-65535, got {config.listen_port}")
    if config.role not in ROLES:
        raise BadConfig(f"role must be one of {ROLES}, got {config.role!r}")
    if config.did_method not in ("key", "web"):
        raise BadConfig(f"did method must be key or web, got {config.did_method!r}")
    if not config.wallet_path:
        raise BadConfig("wallet path is required")
    if _is_ipv6_literal(config.listen_host):
        # The server binds IPv4, and http://<host>:<port> would need brackets.
        raise BadConfig(f"listenHost {config.listen_host!r} is IPv6; agents listen on IPv4")
    return config


@json_document(
    BadConfig, Field("role", "role"), Field("walletPath", "wallet_path"),
    Field("passphraseEnv", "passphrase_env", optional=True),
    Field("listenHost", "listen_host", optional=True),
    Field("listenPort", "listen_port", (int,), optional=True),
    Field("publicBaseUrl", "public_base_url", _OPTIONAL, optional=True),
    Field("didMethod", "did_method", optional=True),
    Field("webDomain", "web_domain", _OPTIONAL, optional=True),
    Field("allowInsecureHttp", "allow_insecure_http", (bool,), optional=True),
    Field("statePath", "state_path", _OPTIONAL, optional=True),
    Field("keyLabel", "key_label", optional=True),
    Field("policy", "policy", OBJECT, optional=True, parse=Policy.from_json,
          emit=Policy.to_json),
    closed=False, build=_in_range)
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
    state_path: str | None = None
    key_label: str = "agent-key"
    policy: Policy = field(default_factory=Policy)

    def validate(self) -> None:
        """Refuse a config built in code that from_json would refuse as JSON."""
        if not isinstance(self.policy, Policy):
            raise BadConfig(f"policy must be a Policy, got {self.policy!r}")
        AgentConfig.from_json(self.to_json())

    def resolve_passphrase(self) -> str:
        passphrase = os.environ.get(self.passphrase_env)
        if not passphrase:
            raise BadConfig(f"environment variable {self.passphrase_env} is not set")
        return passphrase

    def resolved_state_path(self) -> Path:
        if self.state_path:
            return Path(self.state_path)
        return Path(self.wallet_path + ".state.json")

    @classmethod
    def load(cls, path: str | Path) -> "AgentConfig":
        try:
            return cls.from_json(read_json(path))
        except (FetchFailed, DocumentInvalid) as exc:
            raise BadConfig(str(exc)) from exc

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())
