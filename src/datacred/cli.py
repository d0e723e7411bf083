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

from .credential import (
    DATASET_PROVENANCE_V1,
    CredentialSchema,
    CredentialStatus,
    RevocationRegistry,
    VerifiableCredential,
    check_binding_claim,
    issue_credential,
    new_registry,
    revoke as revoke_registry_entry,
    verification_sources,
    verify_credential,
)
from .did import DidDocument, generate_did_key, one_key_document, parse_did
from .errors import DatacredError
from .fingerprint import fingerprint_path, normalize_digest
from .jsonfile import parsed, read_json, write_json
from .keys import KeyPair, generate_keypair
from .presentation import VerifiablePresentation, create_presentation, verify_presentation
from .proofs import parse_timestamp
from .reports import CheckStatus, worst
from .resolver import Resolver, request_json
from .wallet import Wallet

PASSPHRASE_ENV = "DATACRED_PASSPHRASE"


class OperationalError(click.ClickException):
    """Usage or I/O failure, as opposed to a negative verification outcome."""

    exit_code = 2


class _Main(click.Group):
    """The one error boundary: a toolkit or I/O error from any command or option set exits 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (DatacredError, OSError) as exc:
            raise OperationalError(f"{type(exc).__name__}: {exc}") from exc


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


def signing_key(label_opts=("--key-label",)):
    """--wallet, --passphrase-env and the key label (label_opts): the command gets `keypair`."""

    def decorate(command):
        @wallet_option
        @passphrase_env_option
        @click.option(*label_opts, "key_label", default="default", show_default=True,
                      help="Key label.")
        @functools.wraps(command)
        def wrapper(wallet: str, passphrase_env: str, key_label: str, **kwargs):
            entry = _open_wallet(wallet, passphrase_env).get(key_label)
            if not isinstance(entry, KeyPair):
                raise OperationalError(f"wallet entry {key_label!r} is not a keypair")
            return command(keypair=entry, **kwargs)

        return wrapper

    return decorate


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


def _read(path: str, parse):
    return parsed(parse, read_json(path), path)


def _load_schema(name_or_path: str) -> CredentialSchema:
    if name_or_path == DATASET_PROVENANCE_V1.name:
        return DATASET_PROVENANCE_V1
    return _read(name_or_path, CredentialSchema.from_json)


def _parsed_option(parse):
    """An option callback: parse(value), None for no value, a usage error for a ValueError."""
    def callback(_ctx, _param, value):
        try:
            return parse(value) if value else None
        except ValueError as exc:
            raise click.BadParameter(str(exc)) from None
    return callback


def verification_context(command):
    """The verify options: the command gets `resolver`, `registry_source`, `moment`, `as_json`."""

    @click.option("--offline-bundle", default=None, type=click.Path(exists=True),
                  help="Verify using only documents in this bundle directory.")
    @click.option("--registry", default=None, help="Registry override: URL or local file.")
    @click.option("--at", "moment", default=None, callback=_parsed_option(parse_timestamp),
                  help="Verify as of this timestamp (...Z).")
    @click.option("--insecure-http", is_flag=True, help="Allow plain http to loopback (tests).")
    @json_option
    @functools.wraps(command)
    def wrapper(offline_bundle: str | None, registry: str | None, insecure_http: bool, **kwargs):
        resolver, source = verification_sources(insecure_http, offline_bundle, registry)
        return command(resolver=resolver, registry_source=source, **kwargs)

    return wrapper


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


@click.group(cls=_Main)
def main() -> None:
    """Issue, hold, and verify dataset credentials."""


@main.command()
@wallet_option
@passphrase_env_option
@click.option("--label", "-l", default="default", show_default=True, help="Key label.")
@click.option("--seed-hex", "seed", default=None, callback=_parsed_option(bytes.fromhex),
              help="Optional 32-byte seed as hex (testing).")
def keygen(wallet: str, passphrase_env: str, label: str, seed: bytes | None) -> None:
    """Generate an Ed25519 keypair into the wallet, under a label it does not hold yet."""
    store = _open_wallet(wallet, passphrase_env)
    if label in store:  # replacing the entry would lose its key, and what it signs
        raise OperationalError(f"wallet {wallet} already holds {label!r}")
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
@signing_key(("--label", "-l"))
@click.option("--out", default=None, help="Write the document here instead of stdout.")
def did_create_web(keypair: KeyPair, domain: str, out: str | None) -> None:
    """Emit a did:web document for the operator to host at the well-known path."""
    document = one_key_document(parse_did(f"did:web:{domain}"), keypair.public_key)
    _emit(document.to_json(), out)


@did.command("resolve")
@click.argument("did_text")
@click.option("--insecure-http", is_flag=True, help="Allow plain http to loopback (tests).")
@click.option("--offline-bundle", default=None, help="Resolve from a bundle, no network.")
def did_resolve(did_text: str, insecure_http: bool, offline_bundle: str | None) -> None:
    """Resolve a DID and print its document."""
    resolver, _ = verification_sources(insecure_http, offline_bundle)
    _emit(resolver.resolve(did_text).to_json())


@main.command("hash")
@click.argument("path", type=click.Path(exists=True))
@click.option("--out", default=None, help="Write the fingerprint here instead of stdout.")
def hash_command(path: str, out: str | None) -> None:
    """Fingerprint a file or directory (tree form auto-detected)."""
    _emit(fingerprint_path(path).to_json(), out)


@main.command()
@signing_key()
@click.option("--issuer", required=True, help="Issuer DID (its key must be in the wallet).")
@click.option("--subject", required=True, help="Subject DID the claims are about.")
@click.option("--schema", default=DATASET_PROVENANCE_V1.name, show_default=True,
              help="Built-in schema name or path to a schema JSON file.")
@click.option("--claim", "claims", multiple=True, help="Claim as 'name=value'; repeatable.")
@click.option("--expires", default=None, help="Expiration timestamp (UTC, ...Z).")
@click.option("--status-registry", default=None, help="Revocation registry URL to reference.")
@click.option("--status-id", default=None, help="Status id within the registry.")
@click.option("--out", default=None, help="Write the credential here instead of stdout.")
def issue(keypair: KeyPair, issuer: str, subject: str, schema: str,
          claims: tuple[str, ...], expires: str | None,
          status_registry: str | None, status_id: str | None, out: str | None) -> None:
    """Issue a signed credential about a subject."""
    status = None
    if status_registry:
        status = CredentialStatus(status_registry, status_id or str(uuid.uuid4()))
    elif status_id:
        raise click.UsageError("--status-id needs --status-registry: it names an entry there")
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
@verification_context
def verify(credential_file: str, data: str | None, resolver: Resolver, registry_source,
           moment, as_json: bool) -> None:
    """Verify a credential; exit 1 when any check is not Valid."""
    credential = _read(credential_file, VerifiableCredential.from_json)
    report = verify_credential(credential, resolver, at=moment, registry_source=registry_source)
    report_json = report.to_json()
    overall = report.overall
    if data is not None:
        binding = check_binding_claim(credential, data)
        report_json["binding"] = binding.to_json()
        overall = worst((overall, CheckStatus.VALID if binding.matched
                         else CheckStatus.INDETERMINATE if binding.ambiguous
                         else CheckStatus.INVALID))
        report_json["overall"] = overall.value
    report_json["networkFetches"] = resolver.network_fetch_count
    _print_report(report_json, as_json, "credential")
    if not as_json and data is not None:
        outcome = "match" if binding.matched else "MISMATCH"
        if binding.ambiguous:
            outcome = f"AMBIGUOUS - {binding.detail}"
        click.echo(f"  data binding: {outcome}")
    sys.exit(0 if overall is CheckStatus.VALID else 1)


@main.command()
@signing_key()
@click.option("--credential", "credential_files", multiple=True, required=True,
              type=click.Path(exists=True), help="Credential file; repeatable.")
@click.option("--challenge", required=True, help="Challenge issued by the verifier.")
@click.option("--holder", default=None,
              help="Holder DID; defaults to the first credential's subject.")
@click.option("--out", default=None, help="Write the presentation here instead of stdout.")
def present(keypair: KeyPair, credential_files: tuple[str, ...], challenge: str,
            holder: str | None, out: str | None) -> None:
    """Wrap credentials in a holder-signed presentation over a challenge."""
    credentials = [_read(path, VerifiableCredential.from_json) for path in credential_files]
    holder_did = parse_did(holder) if holder else parse_did(credentials[0].subject_id)
    presentation = create_presentation(keypair, holder_did, credentials, challenge)
    _emit(presentation.to_json(), out)


@main.command("verify-presentation")
@click.argument("presentation_file", type=click.Path(exists=True))
@click.option("--challenge", required=True, help="The challenge this verifier issued.")
@verification_context
def verify_presentation_command(presentation_file: str, challenge: str, resolver: Resolver,
                                registry_source, moment, as_json: bool) -> None:
    """Verify a presentation against a challenge; exit 1 on any failure."""
    presentation = _read(presentation_file, VerifiablePresentation.from_json)
    report = verify_presentation(presentation, challenge, resolver, at=moment,
                                 registry_source=registry_source)
    report_json = report.to_json()
    report_json["networkFetches"] = resolver.network_fetch_count
    _print_report(report_json, as_json, "presentation")
    sys.exit(0 if report.valid else 1)


@main.group()
def registry() -> None:
    """Manage revocation registries."""


@registry.command("init")
@click.option("--issuer", required=True, help="Issuer DID controlling the registry.")
@signing_key()
@click.option("--registry", "registry_file", required=True, help="Registry file to create.")
def registry_init(keypair: KeyPair, issuer: str, registry_file: str) -> None:
    """Create a fresh, signed, empty revocation registry file."""
    document = new_registry(parse_did(issuer), keypair)
    _emit(document.to_json(), registry_file)
    click.echo(f"registry written to {registry_file}", err=True)


@main.command("revoke")
@click.option("--registry", "registry_file", required=True, type=click.Path(exists=True),
              help="Registry file to update in place.")
@click.option("--status-id", required=True, help="Status id to revoke.")
@signing_key()
def revoke_command(keypair: KeyPair, registry_file: str, status_id: str) -> None:
    """Add a status id to a registry file and re-sign it."""
    document = _read(registry_file, RevocationRegistry.from_json)
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
def bundle_create(credential_file: str, did_documents: tuple[str, ...],
                  registry_file: str | None, out: str) -> None:
    """Lay out credential.json, dids.json, and registry.json for offline use.

    Every input is read and parsed before the first write, which writes each as read.
    """
    credential = read_json(credential_file)
    parsed(VerifiableCredential.from_json, credential, credential_file)
    files = {"credential.json": credential, "dids.json": {}}
    for path in did_documents:
        document = read_json(path)
        files["dids.json"][parsed(DidDocument.from_json, document, path).id] = document
    if registry_file:
        files["registry.json"] = read_json(registry_file)
        parsed(RevocationRegistry.from_json, files["registry.json"], registry_file)
    directory = Path(out)
    for name, document in files.items():
        write_json(directory / name, document)
    click.echo(f"bundle written to {directory}", err=True)


@main.group()
def agent() -> None:
    """Run and drive credential-exchange agents."""


def admin_url(command):
    """--admin or --config: the command gets the running agent's admin base URL as `url`."""

    @click.option("--admin", default=None, help="Admin base URL of a running agent.")
    @click.option("--config", "config_file", default=None, type=click.Path(exists=True))
    @functools.wraps(command)
    def wrapper(admin: str | None, config_file: str | None, **kwargs):
        if admin:
            url = admin.rstrip("/")
        elif config_file:
            from .agent.config import WILDCARD_HOSTS, AgentConfig
            cfg = AgentConfig.load(config_file)
            # An agent listening on every interface answers its admin API on loopback.
            host = "127.0.0.1" if cfg.listen_host in WILDCARD_HOSTS else cfg.listen_host
            url = f"http://{host}:{cfg.listen_port}"
        else:
            raise OperationalError("provide --admin URL or --config FILE")
        return command(url=url, **kwargs)

    return wrapper


def _admin_request(url: str, body: dict | None = None) -> dict | list:
    """GET url, or POST body to it; plain http is fine, as the admin API is loopback-only."""
    status, payload = request_json(url, True, 10 if body is None else 30, body)
    if status >= 400:
        detail = payload.get("detail", payload) if isinstance(payload, dict) else payload
        raise OperationalError(f"{url}: {detail}")
    return payload


@agent.command("serve")
@click.option("--config", "config_file", required=True, type=click.Path(exists=True))
def agent_serve(config_file: str) -> None:
    """Provision an agent from a config file and serve until interrupted."""
    from .agent import Agent, AgentConfig
    config = AgentConfig.load(config_file)
    running = Agent(config).start()
    config.save(config_file)  # pin the bound port so restarts keep the DID
    click.echo(json.dumps(running.status(), indent=2))
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        running.stop()


@agent.command("status")
@admin_url
def agent_status(url: str) -> None:
    _emit(_admin_request(url + "/status"))


@agent.command("connect")
@admin_url
@click.option("--did", "target_did", required=True)
@click.option("--endpoint", required=True)
def agent_connect(url: str, target_did: str, endpoint: str) -> None:
    _emit(_admin_request(url + "/connect", {"did": target_did, "endpoint": endpoint}))


@agent.command("issue")
@admin_url
@click.option("--connection", "connection_id", required=True)
@click.option("--claim", "claims", multiple=True, help="Claim as 'name=value'; repeatable.")
def agent_issue(url: str, connection_id: str, claims: tuple[str, ...]) -> None:
    _emit(_admin_request(url + "/issue",
                         {"connectionId": connection_id, "claims": _parse_claims(claims)}))


@agent.command("request-proof")
@admin_url
@click.option("--target", required=True, help="DID of the agent holding the credentials.")
@click.option("--attrs", required=True, help="Comma-separated attribute names.")
@click.option("--endpoint", default=None, help="Target endpoint if not yet connected.")
@json_option
def agent_request_proof(url: str, target: str, attrs: str, endpoint: str | None,
                        as_json: bool) -> None:
    """Ask a running agent to request and verify proof; exit 1 if not Valid."""
    body = {"target": target, "attributes": [a.strip() for a in attrs.split(",") if a.strip()]}
    if endpoint:
        body["endpoint"] = endpoint
    report = _admin_request(url + "/request-proof", body)
    _print_report(report, as_json, "proof")
    sys.exit(0 if report.get("overall") == "Valid" else 1)


@agent.command("revoke")
@admin_url
@click.option("--status-id", default=None)
@click.option("--credential-id", default=None)
def agent_revoke(url: str, status_id: str | None, credential_id: str | None) -> None:
    body = {}
    if status_id:
        body["statusId"] = status_id
    if credential_id:
        body["credentialId"] = credential_id
    _emit(_admin_request(url + "/revoke", body))


if __name__ == "__main__":
    main()
