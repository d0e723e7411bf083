"""Command-line surface for publishers (certify) and users (verify).

Exit codes: 0 success, 1 a well-formed negative verification outcome,
2 usage or I/O failure. Machine-readable JSON goes to stdout (always for
document-producing commands, behind --json for reports).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import uuid
from pathlib import Path

import click

from .agent import AgentConfig, provision_agent
from .credential import (
    DATASET_PROVENANCE_V1,
    CredentialSchema,
    CredentialStatus,
    FileRegistrySource,
    HttpRegistrySource,
    RevocationRegistry,
    VerifiableCredential,
    check_binding_claim,
    issue_credential,
    new_registry,
    revoke as revoke_registry_entry,
    verify_credential,
)
from .did import DidDocument, VerificationMethod, generate_did_key, parse_did
from .errors import DatacredError
from .fingerprint import fingerprint_path, normalize_digest
from .jsonfile import read_json, write_json
from .keys import KeyPair, generate_keypair
from .presentation import VerifiablePresentation, create_presentation, verify_presentation
from .proofs import parse_timestamp
from .resolver import DirectoryBackend, KeyBackend, Resolver, WebBackend, request_json
from .wallet import Wallet

PASSPHRASE_ENV = "DATACRED_PASSPHRASE"


class OperationalError(click.ClickException):
    """Usage or I/O failure, as opposed to a negative verification outcome."""

    exit_code = 2


def operational_errors(command):
    """Map toolkit and I/O errors to exit code 2, keeping 1 for Invalid outcomes."""

    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (DatacredError, OSError) as exc:
            raise OperationalError(f"{type(exc).__name__}: {exc}") from exc

    return wrapper


wallet_option = click.option("--wallet", "-w", required=True, help="Path to the wallet file.")
passphrase_env_option = click.option(
    "--passphrase-env",
    default=PASSPHRASE_ENV,
    show_default=True,
    help="Environment variable holding the wallet passphrase.",
)
json_option = click.option("--json", "as_json", is_flag=True, help="Emit the report as JSON.")


def _open_wallet(path: str, passphrase_env: str) -> Wallet:
    passphrase = os.environ.get(passphrase_env)
    if not passphrase and sys.stdin.isatty():
        passphrase = click.prompt("Wallet passphrase", hide_input=True)
    if not passphrase:
        raise OperationalError(
            f"no passphrase: set {passphrase_env} or run interactively"
        )
    return Wallet.open(path, passphrase)


def _get_keypair(wallet: Wallet, label: str) -> KeyPair:
    entry = wallet.get(label)
    if not isinstance(entry, KeyPair):
        raise OperationalError(f"wallet entry {label!r} is not a keypair")
    return entry


def _emit(obj, out: str | None = None) -> None:
    if out:
        write_json(out, obj)
    else:
        click.echo(json.dumps(obj, indent=2))


def _parse_claims(pairs: tuple[str, ...]) -> dict:
    claims = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise OperationalError(f"--claim {pair!r}: expected name=value")
        claims[name] = value
    return claims


def _load_schema(name_or_path: str) -> CredentialSchema:
    if name_or_path == DATASET_PROVENANCE_V1.name:
        return DATASET_PROVENANCE_V1
    return CredentialSchema.from_json(read_json(name_or_path))


class _PinnedRegistrySource:
    """Fetches whatever URL the credential names from one fixed override URL."""

    def __init__(self, inner, url: str):
        self._inner = inner
        self._url = url

    def fetch(self, _url: str) -> dict:
        return self._inner.fetch(self._url)


def _build_verification_context(
    offline_bundle: str | None, insecure_http: bool, registry: str | None
):
    """Resolver plus registry source for verify commands."""
    if offline_bundle:
        resolver = Resolver(backends=[KeyBackend(), DirectoryBackend(offline_bundle)])
        registry_source = FileRegistrySource(Path(offline_bundle) / "registry.json")
        return resolver, registry_source
    resolver = Resolver(backends=[KeyBackend(), WebBackend(allow_insecure_loopback=insecure_http)])
    if registry and not registry.startswith(("http://", "https://")):
        return resolver, FileRegistrySource(registry)
    if registry:
        return resolver, _PinnedRegistrySource(
            HttpRegistrySource(allow_insecure_loopback=insecure_http), registry
        )
    return resolver, HttpRegistrySource(allow_insecure_loopback=insecure_http)


def _print_report(report_json: dict, as_json: bool, heading: str) -> None:
    if as_json:
        click.echo(json.dumps(report_json, indent=2))
        return
    click.echo(f"{heading}: {report_json['overall']}")
    for name, check in report_json["checks"].items():
        line = f"  {name}: {check['status']} ({check['reason']})"
        if check.get("detail"):
            line += f" - {check['detail']}"
        click.echo(line)
    for sub in report_json.get("credentials", []):
        click.echo(f"  credential from {sub.get('issuer', '?')}: {sub['overall']}")
        for name, check in sub["checks"].items():
            click.echo(f"    {name}: {check['status']} ({check['reason']})")
    for note in report_json.get("notes", []):
        click.echo(f"  note: {note}")
    if report_json.get("issuers"):
        click.echo(f"  trust anchors: {', '.join(report_json['issuers'])}")


@click.group()
def main() -> None:
    """Issue, hold, and verify dataset credentials."""


@main.command()
@wallet_option
@passphrase_env_option
@click.option("--label", "-l", default="default", show_default=True, help="Key label.")
@click.option("--seed-hex", default=None, help="Optional 32-byte seed as hex (testing).")
@operational_errors
def keygen(wallet: str, passphrase_env: str, label: str, seed_hex: str | None) -> None:
    """Generate an Ed25519 keypair into the wallet."""
    store = _open_wallet(wallet, passphrase_env)
    seed = bytes.fromhex(seed_hex) if seed_hex else None
    keypair = generate_keypair(seed)
    store.put(label, keypair)
    store.save()
    did, _ = generate_did_key(keypair.public_key)
    _emit({"label": label, "publicKeyBase58": keypair.public_key_base58, "did": did.text})


@main.group()
def did() -> None:
    """Create and resolve decentralized identifiers."""


@did.command("create-web")
@click.option("--domain", required=True, help="Host (and %3A-escaped port) for did:web.")
@wallet_option
@passphrase_env_option
@click.option("--label", "-l", default="default", show_default=True, help="Key label.")
@click.option("--out", default=None, help="Write the document here instead of stdout.")
@operational_errors
def did_create_web(domain: str, wallet: str, passphrase_env: str, label: str, out: str | None) -> None:
    """Emit a did:web document for the operator to host at the well-known path."""
    store = _open_wallet(wallet, passphrase_env)
    keypair = _get_keypair(store, label)
    identifier = parse_did(f"did:web:{domain}")
    method = VerificationMethod(
        id=identifier.text,
        controller=identifier.text,
        public_key_base58=keypair.public_key_base58,
    )
    document = DidDocument(id=identifier.text, authentication=[method])
    _emit(document.to_json(), out)


@did.command("resolve")
@click.argument("did_text")
@click.option("--insecure-http", is_flag=True, help="Allow plain http to loopback (tests).")
@click.option("--offline-bundle", default=None, help="Resolve from a bundle, no network.")
@operational_errors
def did_resolve(did_text: str, insecure_http: bool, offline_bundle: str | None) -> None:
    """Resolve a DID and print its document."""
    resolver, _ = _build_verification_context(offline_bundle, insecure_http, None)
    document = resolver.resolve(did_text)
    _emit(document.to_json())


@main.command("hash")
@click.argument("path", type=click.Path(exists=True))
@click.option("--out", default=None, help="Write the fingerprint here instead of stdout.")
@operational_errors
def hash_command(path: str, out: str | None) -> None:
    """Fingerprint a file or directory (tree form auto-detected)."""
    _emit(fingerprint_path(path).to_json(), out)


@main.command()
@wallet_option
@passphrase_env_option
@click.option("--issuer", required=True, help="Issuer DID (its key must be in the wallet).")
@click.option("--subject", required=True, help="Subject DID the claims are about.")
@click.option("--schema", default=DATASET_PROVENANCE_V1.name, show_default=True,
              help="Built-in schema name or path to a schema JSON file.")
@click.option("--claim", "claims", multiple=True, help="Claim as 'name=value'; repeatable.")
@click.option("--key-label", default="default", show_default=True)
@click.option("--expires", default=None, help="Expiration timestamp (UTC, ...Z).")
@click.option("--status-registry", default=None, help="Revocation registry URL to reference.")
@click.option("--status-id", default=None, help="Status id within the registry.")
@click.option("--out", default=None, help="Write the credential here instead of stdout.")
@operational_errors
def issue(wallet: str, passphrase_env: str, issuer: str, subject: str, schema: str,
          claims: tuple[str, ...], key_label: str, expires: str | None,
          status_registry: str | None, status_id: str | None, out: str | None) -> None:
    """Issue a signed credential about a subject."""
    store = _open_wallet(wallet, passphrase_env)
    keypair = _get_keypair(store, key_label)
    status = None
    if status_registry:
        status = CredentialStatus(
            registry_url=status_registry, status_id=status_id or str(uuid.uuid4())
        )
    loaded_schema = _load_schema(schema)
    parsed_claims = _parse_claims(claims)
    for attribute in loaded_schema.attributes:
        # accept digests pasted with a 0x prefix or uppercase hex
        if attribute.kind == "hex-digest" and attribute.name in parsed_claims:
            parsed_claims[attribute.name] = normalize_digest(parsed_claims[attribute.name])
    credential = issue_credential(
        keypair,
        parse_did(issuer),
        parse_did(subject),
        loaded_schema,
        parsed_claims,
        expiration_date=expires,
        status=status,
    )
    _emit(credential.to_json(), out)


@main.command()
@click.argument("credential_file", type=click.Path(exists=True))
@click.option("--data", default=None, type=click.Path(exists=True),
              help="Also check the dataset-hash claim against this file or directory.")
@click.option("--offline-bundle", default=None, type=click.Path(exists=True),
              help="Verify using only documents in this bundle directory.")
@click.option("--registry", default=None, help="Registry override: URL or local file.")
@click.option("--at", "at_time", default=None, help="Verify as of this timestamp (...Z).")
@click.option("--insecure-http", is_flag=True, help="Allow plain http to loopback (tests).")
@json_option
@operational_errors
def verify(credential_file: str, data: str | None, offline_bundle: str | None,
           registry: str | None, at_time: str | None, insecure_http: bool,
           as_json: bool) -> None:
    """Verify a credential; exit 1 when any check is not Valid."""
    credential = VerifiableCredential.from_json(read_json(credential_file))
    resolver, registry_source = _build_verification_context(
        offline_bundle, insecure_http, registry
    )
    moment = parse_timestamp(at_time) if at_time else None
    report = verify_credential(
        credential, resolver, at=moment, registry_source=registry_source
    )
    report_json = report.to_json()
    ok = report.valid
    if data is not None:
        binding = check_binding_claim(credential, data)
        report_json["binding"] = binding.to_json()
        if not binding.matched:
            ok = False
            report_json["overall"] = "Invalid"
    report_json["networkFetches"] = resolver.network_fetch_count
    _print_report(report_json, as_json, "credential")
    if not as_json and data is not None:
        click.echo(f"  data binding: {'match' if report_json['binding']['matched'] else 'MISMATCH'}")
    sys.exit(0 if ok else 1)


@main.command()
@wallet_option
@passphrase_env_option
@click.option("--credential", "credential_files", multiple=True, required=True,
              type=click.Path(exists=True), help="Credential file; repeatable.")
@click.option("--challenge", required=True, help="Challenge issued by the verifier.")
@click.option("--key-label", default="default", show_default=True)
@click.option("--holder", default=None,
              help="Holder DID; defaults to the first credential's subject.")
@click.option("--out", default=None, help="Write the presentation here instead of stdout.")
@operational_errors
def present(wallet: str, passphrase_env: str, credential_files: tuple[str, ...],
            challenge: str, key_label: str, holder: str | None, out: str | None) -> None:
    """Wrap credentials in a holder-signed presentation over a challenge."""
    store = _open_wallet(wallet, passphrase_env)
    keypair = _get_keypair(store, key_label)
    credentials = [
        VerifiableCredential.from_json(read_json(path)) for path in credential_files
    ]
    holder_did = parse_did(holder) if holder else parse_did(credentials[0].subject_id)
    presentation = create_presentation(keypair, holder_did, credentials, challenge)
    _emit(presentation.to_json(), out)


@main.command("verify-presentation")
@click.argument("presentation_file", type=click.Path(exists=True))
@click.option("--challenge", required=True, help="The challenge this verifier issued.")
@click.option("--offline-bundle", default=None, type=click.Path(exists=True))
@click.option("--registry", default=None, help="Registry override: URL or local file.")
@click.option("--at", "at_time", default=None, help="Verify as of this timestamp (...Z).")
@click.option("--insecure-http", is_flag=True)
@json_option
@operational_errors
def verify_presentation_command(presentation_file: str, challenge: str,
                                offline_bundle: str | None, registry: str | None,
                                at_time: str | None, insecure_http: bool,
                                as_json: bool) -> None:
    """Verify a presentation against a challenge; exit 1 on any failure."""
    presentation = VerifiablePresentation.from_json(read_json(presentation_file))
    resolver, registry_source = _build_verification_context(
        offline_bundle, insecure_http, registry
    )
    moment = parse_timestamp(at_time) if at_time else None
    report = verify_presentation(
        presentation, challenge, resolver, at=moment, registry_source=registry_source
    )
    report_json = report.to_json()
    report_json["networkFetches"] = resolver.network_fetch_count
    _print_report(report_json, as_json, "presentation")
    sys.exit(0 if report.valid else 1)


@main.group()
def registry() -> None:
    """Manage revocation registries."""


@registry.command("init")
@click.option("--issuer", required=True, help="Issuer DID controlling the registry.")
@wallet_option
@passphrase_env_option
@click.option("--key-label", default="default", show_default=True)
@click.option("--registry", "registry_file", required=True, help="Registry file to create.")
@operational_errors
def registry_init(issuer: str, wallet: str, passphrase_env: str, key_label: str,
                  registry_file: str) -> None:
    """Create a fresh, signed, empty revocation registry file."""
    store = _open_wallet(wallet, passphrase_env)
    keypair = _get_keypair(store, key_label)
    document = new_registry(parse_did(issuer), keypair)
    _emit(document.to_json(), registry_file)
    click.echo(f"registry written to {registry_file}", err=True)


@main.command("revoke")
@click.option("--registry", "registry_file", required=True, type=click.Path(exists=True),
              help="Registry file to update in place.")
@click.option("--status-id", required=True, help="Status id to revoke.")
@wallet_option
@passphrase_env_option
@click.option("--key-label", default="default", show_default=True)
@operational_errors
def revoke_command(registry_file: str, status_id: str, wallet: str,
                   passphrase_env: str, key_label: str) -> None:
    """Add a status id to a registry file and re-sign it."""
    store = _open_wallet(wallet, passphrase_env)
    keypair = _get_keypair(store, key_label)
    document = RevocationRegistry.from_json(read_json(registry_file))
    updated = revoke_registry_entry(document, status_id, keypair)
    _emit(updated.to_json(), registry_file)
    click.echo(f"revoked {status_id}", err=True)


@main.group()
def bundle() -> None:
    """Assemble offline verification bundles."""


@bundle.command("create")
@click.option("--credential", "credential_file", required=True, type=click.Path(exists=True))
@click.option("--did-document", "did_documents", multiple=True, type=click.Path(exists=True),
              help="DID document JSON to include; repeatable.")
@click.option("--registry", "registry_file", default=None, type=click.Path(exists=True))
@click.option("--out", required=True, help="Bundle directory to create.")
@operational_errors
def bundle_create(credential_file: str, did_documents: tuple[str, ...],
                  registry_file: str | None, out: str) -> None:
    """Lay out credential.json, dids.json, and registry.json for offline use.

    Every input is read, and each DID document parsed, before the first write.
    """
    credential = read_json(credential_file)
    index = {}
    for path in did_documents:
        document = read_json(path)
        try:
            index[DidDocument.from_json(document).id] = document
        except DatacredError as exc:
            raise OperationalError(f"{path}: {type(exc).__name__}: {exc}") from exc
    registry_doc = read_json(registry_file) if registry_file else None
    directory = Path(out)
    write_json(directory / "credential.json", credential)
    write_json(directory / "dids.json", index)
    if registry_doc is not None:
        write_json(directory / "registry.json", registry_doc)
    click.echo(f"bundle written to {directory}", err=True)


@main.group()
def agent() -> None:
    """Run and drive credential-exchange agents."""


def _admin_url(admin: str | None, config: str | None) -> str:
    if admin:
        return admin.rstrip("/")
    if config:
        cfg = AgentConfig.load(config)
        # An agent listening on every interface answers its admin API on loopback.
        host = "127.0.0.1" if cfg.listen_host == "0.0.0.0" else cfg.listen_host
        return f"http://{host}:{cfg.listen_port}"
    raise OperationalError("provide --admin URL or --config FILE")


def _admin_request(url: str, body: dict | None = None) -> dict | list:
    """GET url, or POST body to it; plain http is fine, as the admin API is loopback-only."""
    status, payload = request_json(url, True, 10 if body is None else 30, body)
    if status >= 400:
        detail = payload.get("detail", payload) if isinstance(payload, dict) else payload
        raise OperationalError(f"{url}: {detail}")
    return payload


@agent.command("serve")
@click.option("--config", "config_file", required=True, type=click.Path(exists=True))
@operational_errors
def agent_serve(config_file: str) -> None:
    """Provision an agent from a config file and serve until interrupted."""
    config = AgentConfig.load(config_file)
    running = provision_agent(config)
    config.save(config_file)  # pin the bound port so restarts keep the DID
    click.echo(json.dumps(running.status(), indent=2))
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        running.stop()


@agent.command("status")
@click.option("--admin", default=None, help="Admin base URL of a running agent.")
@click.option("--config", "config_file", default=None, type=click.Path(exists=True))
@operational_errors
def agent_status(admin: str | None, config_file: str | None) -> None:
    _emit(_admin_request(_admin_url(admin, config_file) + "/status"))


@agent.command("connect")
@click.option("--admin", default=None)
@click.option("--config", "config_file", default=None, type=click.Path(exists=True))
@click.option("--did", "target_did", required=True)
@click.option("--endpoint", required=True)
@operational_errors
def agent_connect(admin: str | None, config_file: str | None, target_did: str,
                  endpoint: str) -> None:
    url = _admin_url(admin, config_file)
    _emit(_admin_request(url + "/connect", {"did": target_did, "endpoint": endpoint}))


@agent.command("issue")
@click.option("--admin", default=None)
@click.option("--config", "config_file", default=None, type=click.Path(exists=True))
@click.option("--connection", "connection_id", required=True)
@click.option("--claim", "claims", multiple=True, help="Claim as 'name=value'; repeatable.")
@operational_errors
def agent_issue(admin: str | None, config_file: str | None, connection_id: str,
                claims: tuple[str, ...]) -> None:
    url = _admin_url(admin, config_file)
    _emit(_admin_request(url + "/issue",
                         {"connectionId": connection_id, "claims": _parse_claims(claims)}))


@agent.command("request-proof")
@click.option("--admin", default=None)
@click.option("--config", "config_file", default=None, type=click.Path(exists=True))
@click.option("--target", required=True, help="DID of the agent holding the credentials.")
@click.option("--attrs", required=True, help="Comma-separated attribute names.")
@click.option("--endpoint", default=None, help="Target endpoint if not yet connected.")
@json_option
@operational_errors
def agent_request_proof(admin: str | None, config_file: str | None, target: str,
                        attrs: str, endpoint: str | None, as_json: bool) -> None:
    """Ask a running agent to request and verify proof; exit 1 if not Valid."""
    url = _admin_url(admin, config_file)
    body = {"target": target, "attributes": [a.strip() for a in attrs.split(",") if a.strip()]}
    if endpoint:
        body["endpoint"] = endpoint
    report = _admin_request(url + "/request-proof", body)
    _print_report(report, as_json, "proof")
    sys.exit(0 if report.get("overall") == "Valid" else 1)


@agent.command("revoke")
@click.option("--admin", default=None)
@click.option("--config", "config_file", default=None, type=click.Path(exists=True))
@click.option("--status-id", default=None)
@click.option("--credential-id", default=None)
@operational_errors
def agent_revoke(admin: str | None, config_file: str | None, status_id: str | None,
                 credential_id: str | None) -> None:
    url = _admin_url(admin, config_file)
    body = {}
    if status_id:
        body["statusId"] = status_id
    if credential_id:
        body["credentialId"] = credential_id
    _emit(_admin_request(url + "/revoke", body))


if __name__ == "__main__":
    main()
