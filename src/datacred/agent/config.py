"""Agent configuration: role, wallet, listen address, identity, and policy."""

from __future__ import annotations

import ipaddress
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import BadConfig, DocumentInvalid, FetchFailed
from ..jsonfile import ANY, OBJECT, TEXT, member, read_json, refusal, string_list, write_json

ROLES = ("publisher", "dataset", "user")
DEFAULT_PASSPHRASE_ENV = "DATACRED_PASSPHRASE"
WILDCARD_HOSTS = ("0.0.0.0", "")  # bind every interface, but name no reachable host
_bad_policy = refusal(BadConfig, "policy ")
_OPTIONAL = (str, type(None))
# Config key -> (attribute, accepted types), checked by jsonfile.member: a type
# must match exactly, so True is no port and a truthy "false" no boolean.
_KEYS = {
    "role": ("role", TEXT),
    "walletPath": ("wallet_path", TEXT),
    "passphraseEnv": ("passphrase_env", TEXT),
    "listenHost": ("listen_host", TEXT),
    "listenPort": ("listen_port", (int,)),
    "publicBaseUrl": ("public_base_url", _OPTIONAL),
    "didMethod": ("did_method", TEXT),
    "webDomain": ("web_domain", _OPTIONAL),
    "allowInsecureHttp": ("allow_insecure_http", (bool,)),
    "statePath": ("state_path", _OPTIONAL),
    "keyLabel": ("key_label", TEXT),
}


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
    state_path: str | None = None
    key_label: str = "agent-key"
    policy: Policy = field(default_factory=Policy)

    def validate(self) -> None:
        if not isinstance(self.policy, Policy):
            raise BadConfig(f"policy must be a Policy, got {self.policy!r}")
        obj = self.to_json()
        for key, (_, kinds) in _KEYS.items():
            member(obj, key, kinds, BadConfig)
        policy = obj["policy"]
        member(policy, "autoAcceptConnections", (bool,), _bad_policy)
        if policy["sharableCredentialIds"] != "all":
            string_list(policy, "sharableCredentialIds", _bad_policy)
        if not 0 <= self.listen_port <= 65535:
            raise BadConfig(f"listenPort must be in 0-65535, got {self.listen_port}")
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
        out = {key: getattr(self, attribute) for key, (attribute, _) in _KEYS.items()}
        return dict(out, policy=self.policy.to_json())

    @classmethod
    def from_json(cls, obj: dict) -> "AgentConfig":
        for required in ("role", "walletPath"):
            member(obj, required, ANY, BadConfig)
        values = {attribute: obj[key] for key, (attribute, _) in _KEYS.items() if key in obj}
        policy = Policy.from_json(member(obj, "policy", OBJECT, BadConfig, {}))
        config = cls(**values, policy=policy)
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
