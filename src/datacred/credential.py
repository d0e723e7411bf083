"""Verifiable credentials over dataset attributes.

A credential is a claim set about a subject DID, signed by the issuer's DID
key. The claim set is schema-checked at issuance, carries the dataset's
content hash to bind it to the exact bytes it describes, and may point at an
issuer-signed revocation registry so a published credential can later be
withdrawn.

Verification runs four independent checks (signature, schema, temporal,
revocation) and reports each one separately; network trouble yields
Indeterminate for the affected check, never a silent pass or fail. They are
the only acceptance rule: ``check_receipt`` is the part a holder runs before
storing a credential, and ``issue_credential`` refuses dates they reject.

Every revocation check fetches the registry's bytes and matches its issuer and
the status id. A registry is parsed and verified once per process for the same
bytes: a ``Resolver`` reuses the last one that verified at a URL for the same
SHA-256 (or a 304 to a GET conditional on it), else one that verified in any
resolver for that SHA-256 (``Resolver.shared_registry``), while the issuer, as
this resolver resolves it, still publishes the key it verified under. A registry
new to a resolver at its URL, by the issuer of the one kept there, is a rollback
when it was updated earlier or lacks an id the kept one revoked: ``updated`` has
one-second resolution.
"""

from __future__ import annotations

import hashlib
import json
import re
import uuid
from dataclasses import dataclass, field
from datetime import date, datetime
from pathlib import Path
from typing import NamedTuple

from .did import Did, parse_did
from .errors import (
    BadDates,
    DatacredError,
    DocumentInvalid,
    FetchFailed,
    MalformedSignature,
    NoHashClaim,
    SchemaMismatch,
    WrongIssuerKey,
)
from .fingerprint import (
    BindingReport,
    DatasetFingerprint,
    check_binding,
    data_form,
    normalize_digest,
)
from .jsonfile import ANY, LIST, OBJECT, STRINGS, TEXT, VALUE, Field, each, json_document
from .jsonfile import member, parse_json, read_bytes, refusal, type_list
from .keys import KeyPair
from .proofs import (
    ASSERTION,
    AUTHENTICATION,
    PROOF_FIELD,
    Proof,
    check_proof,
    format_timestamp,
    parse_timestamp,
    sign_document,
    utc_now,
    verify_proof,
)
from .reports import CheckResult, CheckStatus, VerificationReport
from .resolver import DirectoryBackend, KeyBackend, Resolver, WebBackend, fetch_bytes

CREDENTIAL_CONTEXT = "https://www.w3.org/2018/credentials/v1"
CREDENTIAL_TYPE = "VerifiableCredential"
HASH_CLAIM = "Hash of Data"
ETHICS_CLAIM = "Data Ethically Sourced"

# A "date" value is YYYY-MM-DD or a timestamp parse_timestamp reads; date.fromisoformat's
# wider forms (20260501, 2026-W18-5) depend on the Python version and are refused.
ATTRIBUTE_KINDS = ("string", "hex-digest", "yes-no", "date")
_HEX_DIGEST_RE = re.compile(r"[0-9a-f]{64}|[0-9a-f]{128}")
_DATE_RE = re.compile(r"\d{4}-\d\d-\d\d", re.ASCII)
_malformed = refusal(DocumentInvalid, "malformed credential: ")
_malformed_schema = refusal(DocumentInvalid, "malformed schema: ")
_malformed_registry = refusal(DocumentInvalid, "malformed registry: ")


@json_document(_malformed_schema, Field("name", "name"), Field("kind", "kind"))
class SchemaAttribute(NamedTuple):
    name: str
    kind: str


def _schema(**fields) -> "CredentialSchema":
    try:
        return CredentialSchema(**fields)
    except SchemaMismatch as exc:  # a vocabulary the schema refuses
        raise _malformed_schema(str(exc)) from None


@json_document(_malformed_schema, Field("id", "id"), Field("name", "name"),
               Field("attributes", "attributes", LIST, **each(SchemaAttribute, tuple)),
               build=_schema)
@dataclass(frozen=True)
class CredentialSchema:
    """Named attribute vocabulary a credential's claims must conform to."""

    id: str
    name: str
    attributes: tuple[SchemaAttribute, ...]

    def __post_init__(self) -> None:
        if not self.attributes:
            raise SchemaMismatch(f"schema {self.name}: needs at least one attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaMismatch(f"schema {self.name}: duplicate attribute names")
        for attribute in self.attributes:
            if attribute.kind not in ATTRIBUTE_KINDS:
                raise SchemaMismatch(
                    f"schema {self.name}: unknown kind {attribute.kind!r} for {attribute.name!r}"
                )

    def attribute(self, name: str) -> SchemaAttribute | None:
        return next((a for a in self.attributes if a.name == name), None)

    def validate_claims(self, claims: dict) -> None:
        """Raise SchemaMismatch unless claims carry exactly this vocabulary."""
        for attribute in self.attributes:
            if attribute.name not in claims:
                raise SchemaMismatch(f"missing required attribute {attribute.name!r}")
        for name, value in claims.items():
            attribute = self.attribute(name)
            if attribute is None:
                raise SchemaMismatch(f"unknown attribute {name!r}")
            if not isinstance(value, str):
                raise SchemaMismatch(f"{name!r}: values are strings, got {type(value).__name__}")
            if attribute.kind == "hex-digest" and not _HEX_DIGEST_RE.fullmatch(value):
                raise SchemaMismatch(f"{name!r}: not a lowercase 256/512-bit hex digest")
            if attribute.kind == "yes-no" and value not in ("YES", "NO"):
                raise SchemaMismatch(f"{name!r}: expected YES or NO, got {value!r}")
            if attribute.kind == "date":
                parse = date.fromisoformat if _DATE_RE.fullmatch(value) else parse_timestamp
                try:
                    parse(value)
                except ValueError:
                    raise SchemaMismatch(f"{name!r}: not a date: {value!r}") from None


DATASET_PROVENANCE_V1 = CredentialSchema(
    id="urn:datacred:schema:dataset-provenance-v1",
    name="dataset-provenance-v1",
    attributes=(
        SchemaAttribute(HASH_CLAIM, "hex-digest"),
        SchemaAttribute(ETHICS_CLAIM, "yes-no"),
    ),
)


@json_document(_malformed, Field("registry", "registry_url"), Field("statusId", "status_id"))
class CredentialStatus(NamedTuple):
    """Pointer to the issuer's revocation registry entry for a credential."""

    registry_url: str
    status_id: str


def _credential(subject: dict, **fields) -> "VerifiableCredential":
    claims = dict(subject)
    subject_id = member(claims, "id", TEXT, _malformed)
    del claims["id"]
    return VerifiableCredential(subject_id=subject_id, claims=claims, **fields)


@json_document(
    _malformed,
    Field("@context", "context", STRINGS), Field("id", "id"),
    Field("type", "type", STRINGS, parse=type_list(CREDENTIAL_TYPE, _malformed)),
    Field("issuer", "issuer"),
    Field("issuanceDate", "issuance_date", ANY),  # _check_temporal judges it
    Field("credentialSubject", "subject", OBJECT),
    Field("credentialSchema", "schema", OBJECT, parse=CredentialSchema.from_json,
          emit=CredentialSchema.to_json),
    Field("expirationDate", "expiration_date", VALUE, optional=True, omit=None),
    Field("credentialStatus", "status", OBJECT, optional=True, omit=None,
          parse=CredentialStatus.from_json, emit=CredentialStatus.to_json),
    PROOF_FIELD, first="type", build=_credential)
@dataclass(frozen=True)
class VerifiableCredential:
    """Signed claim set about a subject DID; keeps the JSON read or signed."""

    id: str
    issuer: str
    issuance_date: str
    subject_id: str
    claims: dict
    schema: CredentialSchema
    expiration_date: str | None = None
    status: CredentialStatus | None = None
    proof: Proof | None = None
    context: list[str] = field(default_factory=lambda: [CREDENTIAL_CONTEXT])
    type: list[str] = field(default_factory=lambda: [CREDENTIAL_TYPE])
    _json: dict | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def subject(self) -> dict:
        """The credentialSubject: the subject's id, then the claims."""
        return {"id": self.subject_id, **self.claims}


def issue_credential(
    issuer_key: KeyPair,
    issuer_did: Did | str,
    subject_did: Did | str,
    schema: CredentialSchema,
    claims: dict,
    expiration_date: datetime | str | None = None,
    status: CredentialStatus | None = None,
    issuance_date: datetime | str | None = None,
) -> VerifiableCredential:
    """Build and sign a credential; it verifies immediately after issuance.

    The caller asserts that issuer_key is the key published in the issuer's
    DID document; nothing else can bind them at issuance time.
    """
    issuer = issuer_did.text if isinstance(issuer_did, Did) else parse_did(issuer_did).text
    subject = subject_did.text if isinstance(subject_did, Did) else parse_did(subject_did).text
    schema.validate_claims(claims)

    if issuance_date is None or isinstance(issuance_date, datetime):
        issuance_date = format_timestamp(issuance_date or utc_now())
    if isinstance(expiration_date, datetime):
        expiration_date = format_timestamp(expiration_date)

    credential = VerifiableCredential(
        id=f"urn:uuid:{uuid.uuid4()}",
        issuer=issuer,
        issuance_date=issuance_date,
        expiration_date=expiration_date,
        subject_id=subject,
        claims=dict(claims),
        schema=schema,
        status=status,
    )
    dates = _check_temporal(credential)
    if dates.status is not CheckStatus.VALID:
        raise BadDates(dates.detail)
    return sign_document(credential, issuer_key, issuer, ASSERTION)


# --- revocation registry ---


@json_document(_malformed_registry, Field("issuer", "issuer"),
               Field("revoked", "revoked", STRINGS), Field("updated", "updated"), PROOF_FIELD)
@dataclass(frozen=True)
class RevocationRegistry:
    """Issuer-signed list of revoked credential status ids; keeps the JSON read or signed."""

    issuer: str
    revoked: list[str]
    updated: str
    proof: Proof | None = None
    _json: dict | None = field(default=None, init=False, repr=False, compare=False)


def sign_registry(issuer: str, revoked: list[str], issuer_key: KeyPair) -> RevocationRegistry:
    """Issuer's registry of the revoked ids, updated now and signed; it keeps its JSON."""
    registry = RevocationRegistry(issuer, revoked, format_timestamp(utc_now()))
    return sign_document(registry, issuer_key, issuer, ASSERTION)


def new_registry(issuer_did: Did | str, issuer_key: KeyPair) -> RevocationRegistry:
    """Create an empty, signed revocation registry for an issuer."""
    issuer = issuer_did.text if isinstance(issuer_did, Did) else parse_did(issuer_did).text
    return sign_registry(issuer, [], issuer_key)


def check_registry_key(registry: dict, issuer_key: KeyPair) -> None:
    """Raise WrongIssuerKey unless the registry's proof verifies under issuer_key, which
    ties the key to the registry's issuer without a resolver round-trip."""
    try:
        if verify_proof(registry, issuer_key.public_key):
            return
    except (DocumentInvalid, MalformedSignature):
        pass
    raise WrongIssuerKey(f"key does not control registry for {registry.get('issuer')}")


def revoke(
    registry: RevocationRegistry, status_id: str, issuer_key: KeyPair
) -> RevocationRegistry:
    """Add a status id to the revoked list and re-sign; a registry that holds the id
    is returned unchanged. The supplied key must verify the registry's current proof
    (check_registry_key)."""
    check_registry_key(registry.to_json(), issuer_key)
    if status_id in registry.revoked:
        return registry
    return sign_registry(registry.issuer, [*registry.revoked, status_id], issuer_key)


# --- registry sources ---


class HttpRegistrySource:
    """Fetch revocation registries under resolver.request_bytes's transport policy: from the
    url asked, or from path, a fixed --registry URL that then names a malformed reply. A
    source's fetch(url, etag=None) gives the bytes; this one None for a 304 to etag."""

    network = True

    def __init__(self, allow_insecure_loopback: bool = False, path: str | None = None):
        self.allow_insecure_loopback = allow_insecure_loopback
        self.path = path

    def fetch(self, url: str, etag: str | None = None) -> bytes | None:
        return fetch_bytes(self.path or url, self.allow_insecure_loopback, etag)


class StaticRegistrySource:
    """In-memory url-to-registry map for tests."""

    def __init__(self, registries: dict[str, dict] | None = None):
        self.registries = dict(registries or {})

    def fetch(self, url: str, etag: str | None = None) -> bytes:
        try:
            return json.dumps(self.registries[url]).encode("utf-8")
        except KeyError:
            raise FetchFailed(f"{url}: no registry registered") from None


class FileRegistrySource:
    """Registry from an offline bundle's registry.json, whatever URL is asked."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def fetch(self, url: str, etag: str | None = None) -> bytes:
        return read_bytes(self.path)


def verification_sources(allow_insecure_loopback: bool = False, offline_bundle: str | None = None,
                         registry: str | None = None) -> tuple:
    """(Resolver, registry source) of a verification: DID documents from offline_bundle, else
    the web; registries from registry, a URL or file, else the bundle's, else each credential's."""
    if offline_bundle:
        backend = DirectoryBackend(offline_bundle)
        registry = registry or str(Path(offline_bundle) / "registry.json")
    else:
        backend = WebBackend(allow_insecure_loopback=allow_insecure_loopback)
    resolver = Resolver(backends=[KeyBackend(), backend])
    if registry and not registry.startswith(("http://", "https://")):
        return resolver, FileRegistrySource(registry)
    return resolver, HttpRegistrySource(allow_insecure_loopback, registry)


# --- verification ---


SCHEMA_CONFORMANT = CheckResult(CheckStatus.VALID, "SchemaConformant")
TIMESTAMPS_WELL_FORMED = CheckResult(CheckStatus.VALID, "TimestampsWellFormed")
TEMPORALLY_VALID = CheckResult(CheckStatus.VALID, "TemporallyValid")
NO_STATUS = CheckResult(CheckStatus.VALID, "NoStatus")
NOT_REVOKED = CheckResult(CheckStatus.VALID, "NotRevoked")


def _check_schema(vc: VerifiableCredential) -> CheckResult:
    try:
        vc.schema.validate_claims(vc.claims)
    except SchemaMismatch as exc:
        return CheckResult(CheckStatus.INVALID, "SchemaViolation", str(exc))
    return SCHEMA_CONFORMANT


def _check_temporal(vc: VerifiableCredential, at: datetime | None = None) -> CheckResult:
    """Both dates parse and expiration follows issuance; given a moment, vc is valid then."""
    try:
        issued = parse_timestamp(vc.issuance_date)
        expires = None if vc.expiration_date is None else parse_timestamp(vc.expiration_date)
    except ValueError as exc:
        return CheckResult(CheckStatus.INVALID, "BadTimestamps", str(exc))
    if expires is not None and expires <= issued:
        detail = f"expiration {vc.expiration_date} not after issuance {vc.issuance_date}"
        return CheckResult(CheckStatus.INVALID, "BadTimestamps", detail)
    if at is None:
        return TIMESTAMPS_WELL_FORMED
    if at < issued:
        return CheckResult(CheckStatus.INVALID, "NotYetValid", f"checked at {format_timestamp(at)}")
    if expires is not None and at >= expires:
        return CheckResult(CheckStatus.INVALID, "Expired", f"expired {vc.expiration_date}")
    return TEMPORALLY_VALID


def _rollback(registry: dict, revoked: frozenset, kept: tuple | None) -> str | None:
    """Why registry, revoking revoked, rolls back kept, the entry remembered for its URL:
    by kept's issuer, it lacks an id kept revoked or was updated earlier; else None."""
    if kept is None or registry["issuer"] != kept[2]["issuer"]:
        return None
    updated, seen = registry["updated"], kept[2]["updated"]
    if not kept[3] <= revoked:
        return f"updated {updated}, lacking {len(kept[3] - revoked)} ids revoked as of {seen} seen"
    try:  # a date that does not parse is not compared
        earlier = parse_timestamp(updated) < parse_timestamp(seen)
    except ValueError:
        return None
    return f"updated {updated}, before {seen} seen" if earlier else None


def _check_revocation(vc: VerifiableCredential, resolver: Resolver, registry_source) -> CheckResult:
    if vc.status is None:
        return NO_STATUS
    url = vc.status.registry_url
    try:
        reply, known = resolver.fetch_registry(registry_source, url)
        digest = known[0] if reply is None else hashlib.sha256(reply).digest()
        kept = known is not None and digest == known[0]  # what this resolver keeps for url
        if entry := known if kept else resolver.shared_registry(digest):  # verified before
            _, key, registry, revoked, _ = entry
        else:
            name = getattr(registry_source, "path", None) or url  # a bundle's file, else a URL
            registry = RevocationRegistry.from_json(parse_json(reply, name)).to_json()
            key, revoked = None, frozenset(registry["revoked"])
    except DatacredError as exc:
        return CheckResult(CheckStatus.INDETERMINATE, "RegistryUnavailable", str(exc))

    # Never trust a status list until it verifies under the issuer's key.
    if (issuer := registry["issuer"]) != vc.issuer:
        detail = f"registry issuer {issuer} is not credential issuer {vc.issuer}"
        return CheckResult(CheckStatus.INDETERMINATE, "RegistryInvalid", detail)
    result, located = check_proof(registry, issuer, resolver, verified=key)
    if result.status is not CheckStatus.VALID:
        detail = f"registry proof: {result.reason} {result.detail}".rstrip()
        return CheckResult(CheckStatus.INDETERMINATE, "RegistryInvalid", detail)
    if not kept:  # new to this resolver at url: keep it, unless a rollback
        if why := _rollback(registry, revoked, known):
            return CheckResult(CheckStatus.INDETERMINATE, "RegistryRollback", f"{why} at {url}")
        resolver.remember_registry(url, (digest, located[0], registry, revoked, len(reply)))
    if vc.status.status_id in revoked:
        return CheckResult(CheckStatus.INVALID, "Revoked", f"status id {vc.status.status_id}")
    return NOT_REVOKED


def check_receipt(vc: VerifiableCredential, resolver: Resolver) -> dict[str, CheckResult]:
    """verify_credential's checks a holder runs before storing vc: signature, schema and
    dates, but not the validity window or revocation, so no registry is fetched."""
    signature, _ = check_proof(vc.to_json(), vc.issuer, resolver)
    return {"signature": signature, "schema": _check_schema(vc), "temporal": _check_temporal(vc)}


def verify_credential(
    vc: VerifiableCredential,
    resolver: Resolver,
    at: datetime | None = None,
    registry_source=None,
) -> VerificationReport:
    """Run the four independent credential checks and report each outcome."""
    report = VerificationReport(issuer=vc.issuer, credential_id=vc.id, claims=dict(vc.claims))
    if registry_source is None:
        registry_source = HttpRegistrySource()
    report.checks["signature"], located = check_proof(vc.to_json(), vc.issuer, resolver)
    if located and located[1] == AUTHENTICATION and vc.proof.proof_purpose == ASSERTION:
        report.notes.append("issuer publishes an authentication key only; accepted for assertion")
    report.checks["schema"] = _check_schema(vc)
    report.checks["temporal"] = _check_temporal(vc, at or utc_now())
    report.checks["revocation"] = _check_revocation(vc, resolver, registry_source)
    return report


def check_binding_claim(vc: VerifiableCredential, data: bytes | str | Path) -> BindingReport:
    """Recheck the credential's dataset-hash claim, in the data's own form, against the data."""
    raw = vc.claims.get(HASH_CLAIM)
    if not isinstance(raw, str) or not raw:
        raise NoHashClaim(f"credential {vc.id} carries no {HASH_CLAIM!r} string claim")
    fp = DatasetFingerprint(algorithm="sha256", digest=normalize_digest(raw), form=data_form(data))
    return check_binding(fp, data)
