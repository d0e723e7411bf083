"""Verifiable credentials over dataset attributes.

A credential is a claim set about a subject DID, signed by the issuer's DID
key. The claim set is schema-checked at issuance, carries the dataset's
content hash to bind it to the exact bytes it describes, and may point at an
issuer-signed revocation registry so a published credential can later be
withdrawn.

Verification runs four independent checks (signature, schema, temporal,
revocation) and reports each one separately; network trouble yields
Indeterminate for the affected check, never a silent pass or fail.
"""

from __future__ import annotations

import re
import uuid
from dataclasses import dataclass, field
from datetime import date, datetime
from pathlib import Path

from .did import Did, parse_did
from .errors import (
    BadDates,
    DatacredError,
    FetchFailed,
    NoHashClaim,
    SchemaMismatch,
    WrongIssuerKey,
)
from .fingerprint import BindingReport, DatasetFingerprint, check_binding, normalize_digest
from .jsonfile import read_json
from .keys import KeyPair
from .proofs import (
    ASSERTION,
    AUTHENTICATION,
    Proof,
    attach_proof,
    check_proof,
    format_timestamp,
    parse_timestamp,
    utc_now,
    verify_proof,
)
from .reports import CheckResult, CheckStatus, VerificationReport
from .resolver import Resolver, fetch_json

CREDENTIAL_CONTEXT = "https://www.w3.org/2018/credentials/v1"
CREDENTIAL_TYPE = "VerifiableCredential"
HASH_CLAIM = "Hash of Data"
ETHICS_CLAIM = "Data Ethically Sourced"

ATTRIBUTE_KINDS = ("string", "hex-digest", "yes-no", "date")
_HEX_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$|^[0-9a-f]{128}$")


@dataclass(frozen=True)
class SchemaAttribute:
    name: str
    kind: str

    def to_json(self) -> dict:
        return {"name": self.name, "kind": self.kind}

    @classmethod
    def from_json(cls, obj: dict) -> "SchemaAttribute":
        return cls(name=obj["name"], kind=obj["kind"])


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
            if attribute.kind == "hex-digest" and not _HEX_DIGEST_RE.match(value):
                raise SchemaMismatch(f"{name!r}: not a lowercase 256/512-bit hex digest")
            if attribute.kind == "yes-no" and value not in ("YES", "NO"):
                raise SchemaMismatch(f"{name!r}: expected YES or NO, got {value!r}")
            if attribute.kind == "date":
                try:
                    date.fromisoformat(value)
                except ValueError:
                    try:
                        parse_timestamp(value)
                    except ValueError:
                        raise SchemaMismatch(f"{name!r}: not a date: {value!r}") from None

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "attributes": [a.to_json() for a in self.attributes],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CredentialSchema":
        try:
            return cls(
                id=obj["id"],
                name=obj["name"],
                attributes=tuple(SchemaAttribute.from_json(a) for a in obj["attributes"]),
            )
        except (KeyError, TypeError) as exc:
            raise SchemaMismatch(f"malformed schema: {exc}") from exc


DATASET_PROVENANCE_V1 = CredentialSchema(
    id="urn:datacred:schema:dataset-provenance-v1",
    name="dataset-provenance-v1",
    attributes=(
        SchemaAttribute(HASH_CLAIM, "hex-digest"),
        SchemaAttribute(ETHICS_CLAIM, "yes-no"),
    ),
)


@dataclass(frozen=True)
class CredentialStatus:
    """Pointer to the issuer's revocation registry entry for a credential."""

    registry_url: str
    status_id: str

    def to_json(self) -> dict:
        return {"registry": self.registry_url, "statusId": self.status_id}

    @classmethod
    def from_json(cls, obj: dict) -> "CredentialStatus":
        return cls(registry_url=obj["registry"], status_id=obj["statusId"])


@dataclass
class VerifiableCredential:
    """Signed claim set about a subject DID."""

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

    def to_json(self) -> dict:
        subject = {"id": self.subject_id, **self.claims}
        out = {
            "@context": list(self.context),
            "id": self.id,
            "type": list(self.type),
            "issuer": self.issuer,
            "issuanceDate": self.issuance_date,
            "credentialSubject": subject,
            "credentialSchema": self.schema.to_json(),
        }
        if self.expiration_date is not None:
            out["expirationDate"] = self.expiration_date
        if self.status is not None:
            out["credentialStatus"] = self.status.to_json()
        if self.proof is not None:
            out["proof"] = self.proof.to_json()
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "VerifiableCredential":
        try:
            types = obj["type"]
            if CREDENTIAL_TYPE not in types:
                raise DatacredError(f"type {types!r} does not include {CREDENTIAL_TYPE}")
            subject = dict(obj["credentialSubject"])
            subject_id = subject.pop("id")
            status = obj.get("credentialStatus")
            proof = obj.get("proof")
            return cls(
                id=obj["id"],
                issuer=obj["issuer"],
                issuance_date=obj["issuanceDate"],
                expiration_date=obj.get("expirationDate"),
                subject_id=subject_id,
                claims=subject,
                schema=CredentialSchema.from_json(obj["credentialSchema"]),
                status=CredentialStatus.from_json(status) if status else None,
                proof=Proof.from_json(proof) if proof else None,
                context=list(obj["@context"]),
                type=list(types),
            )
        except (KeyError, TypeError) as exc:
            raise DatacredError(f"malformed credential: {exc}") from exc


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

    if isinstance(issuance_date, datetime):
        issuance_date = format_timestamp(issuance_date)
    issued_at = issuance_date or format_timestamp(utc_now())
    if isinstance(expiration_date, datetime):
        expiration_date = format_timestamp(expiration_date)
    if expiration_date is not None:
        try:
            if parse_timestamp(expiration_date) <= parse_timestamp(issued_at):
                raise BadDates(f"expiration {expiration_date} not after issuance {issued_at}")
        except ValueError as exc:
            raise BadDates(str(exc)) from exc

    credential = VerifiableCredential(
        id=f"urn:uuid:{uuid.uuid4()}",
        issuer=issuer,
        issuance_date=issued_at,
        expiration_date=expiration_date,
        subject_id=subject,
        claims=dict(claims),
        schema=schema,
        status=status,
    )
    signed = attach_proof(
        credential.to_json(),
        issuer_key,
        verification_method=issuer,
        proof_purpose=ASSERTION,
    )
    return VerifiableCredential.from_json(signed)


# --- revocation registry ---


@dataclass
class RevocationRegistry:
    """Issuer-signed list of revoked credential status ids."""

    issuer: str
    revoked: list[str]
    updated: str
    proof: Proof | None = None

    def to_json(self) -> dict:
        out = {"issuer": self.issuer, "revoked": list(self.revoked), "updated": self.updated}
        if self.proof is not None:
            out["proof"] = self.proof.to_json()
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "RevocationRegistry":
        try:
            proof = obj.get("proof")
            return cls(
                issuer=obj["issuer"],
                revoked=list(obj["revoked"]),
                updated=obj["updated"],
                proof=Proof.from_json(proof) if proof else None,
            )
        except (KeyError, TypeError, AttributeError) as exc:  # AttributeError: not an object
            raise DatacredError(f"malformed registry: {exc}") from exc


def new_registry(issuer_did: Did | str, issuer_key: KeyPair) -> RevocationRegistry:
    """Create an empty, signed revocation registry for an issuer."""
    issuer = issuer_did.text if isinstance(issuer_did, Did) else parse_did(issuer_did).text
    registry = RevocationRegistry(issuer=issuer, revoked=[], updated=format_timestamp(utc_now()))
    signed = attach_proof(registry.to_json(), issuer_key, issuer, ASSERTION)
    return RevocationRegistry.from_json(signed)


def revoke(
    registry: RevocationRegistry, status_id: str, issuer_key: KeyPair
) -> RevocationRegistry:
    """Add a status id to the revoked list and re-sign; idempotent.

    The supplied key must verify the registry's current proof, which is what
    ties it to the registry's issuer without a resolver round-trip.
    """
    if registry.proof is None or not verify_proof(registry.to_json(), issuer_key.public_key):
        raise WrongIssuerKey(f"key does not control registry for {registry.issuer}")
    revoked = list(registry.revoked)
    if status_id not in revoked:
        revoked.append(status_id)
    updated = RevocationRegistry(
        issuer=registry.issuer, revoked=revoked, updated=format_timestamp(utc_now())
    )
    signed = attach_proof(updated.to_json(), issuer_key, registry.issuer, ASSERTION)
    return RevocationRegistry.from_json(signed)


# --- registry sources ---


class HttpRegistrySource:
    """Fetch revocation registries under resolver.request_json's transport policy."""

    def __init__(self, allow_insecure_loopback: bool = False, timeout: float = 5.0):
        self.allow_insecure_loopback = allow_insecure_loopback
        self.timeout = timeout

    def fetch(self, url: str) -> dict:
        return fetch_json(url, self.allow_insecure_loopback, self.timeout)


class StaticRegistrySource:
    """In-memory url-to-registry map for tests."""

    def __init__(self, registries: dict[str, dict] | None = None):
        self.registries = dict(registries or {})

    def register(self, url: str, registry: RevocationRegistry | dict) -> None:
        obj = registry.to_json() if isinstance(registry, RevocationRegistry) else registry
        self.registries[url] = obj

    def fetch(self, url: str) -> dict:
        try:
            return self.registries[url]
        except KeyError:
            raise FetchFailed(f"{url}: no registry registered") from None


class FileRegistrySource:
    """Registry from an offline bundle's registry.json, whatever URL is asked."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def fetch(self, url: str) -> dict:
        return read_json(self.path)


# --- verification ---


def _check_schema(vc: VerifiableCredential, report: VerificationReport) -> None:
    try:
        vc.schema.validate_claims(vc.claims)
    except SchemaMismatch as exc:
        report.checks["schema"] = CheckResult(CheckStatus.INVALID, "SchemaViolation", str(exc))
        return
    report.checks["schema"] = CheckResult(CheckStatus.VALID, "SchemaConformant")


def _check_temporal(
    vc: VerifiableCredential, at: datetime, clock_skew: float, report: VerificationReport
) -> None:
    try:
        issued = parse_timestamp(vc.issuance_date)
        expires = parse_timestamp(vc.expiration_date) if vc.expiration_date else None
    except ValueError as exc:
        report.checks["temporal"] = CheckResult(CheckStatus.INVALID, "BadTimestamps", str(exc))
        return
    if expires is not None and expires <= issued:
        report.checks["temporal"] = CheckResult(
            CheckStatus.INVALID, "BadTimestamps", "expiration not after issuance"
        )
        return
    if (at - issued).total_seconds() < -clock_skew:
        report.checks["temporal"] = CheckResult(
            CheckStatus.INVALID, "NotYetValid", f"checked at {format_timestamp(at)}"
        )
        return
    if expires is not None and (at - expires).total_seconds() >= clock_skew:
        report.checks["temporal"] = CheckResult(
            CheckStatus.INVALID, "Expired", f"expired {vc.expiration_date}"
        )
        return
    report.checks["temporal"] = CheckResult(CheckStatus.VALID, "TemporallyValid")


def _check_revocation(
    vc: VerifiableCredential,
    resolver: Resolver,
    registry_source,
    report: VerificationReport,
) -> None:
    if vc.status is None:
        report.checks["revocation"] = CheckResult(CheckStatus.VALID, "NoStatus")
        return
    try:
        raw = registry_source.fetch(vc.status.registry_url)
        registry = RevocationRegistry.from_json(raw)
    except (FetchFailed, DatacredError) as exc:
        report.checks["revocation"] = CheckResult(
            CheckStatus.INDETERMINATE, "RegistryUnavailable", str(exc)
        )
        return

    # Never trust a status list until it verifies under the issuer's key.
    if registry.issuer != vc.issuer:
        report.checks["revocation"] = CheckResult(
            CheckStatus.INDETERMINATE,
            "RegistryInvalid",
            f"registry issuer {registry.issuer} is not credential issuer {vc.issuer}",
        )
        return
    result, _ = check_proof(registry.to_json(), registry.issuer, resolver)
    if result.status is not CheckStatus.VALID:
        report.checks["revocation"] = CheckResult(
            CheckStatus.INDETERMINATE,
            "RegistryInvalid",
            f"registry proof: {result.reason} {result.detail}".rstrip(),
        )
        return
    if vc.status.status_id in registry.revoked:
        report.checks["revocation"] = CheckResult(
            CheckStatus.INVALID, "Revoked", f"status id {vc.status.status_id}"
        )
    else:
        report.checks["revocation"] = CheckResult(CheckStatus.VALID, "NotRevoked")


def verify_credential(
    vc: VerifiableCredential,
    resolver: Resolver,
    at: datetime | None = None,
    registry_source=None,
    clock_skew: float = 0.0,
) -> VerificationReport:
    """Run the four independent credential checks and report each outcome."""
    report = VerificationReport(issuer=vc.issuer, credential_id=vc.id, claims=dict(vc.claims))
    if registry_source is None:
        registry_source = HttpRegistrySource()
    report.checks["signature"], purpose = check_proof(vc.to_json(), vc.issuer, resolver)
    if purpose == AUTHENTICATION and vc.proof.proof_purpose == ASSERTION:
        report.notes.append("issuer publishes an authentication key only; accepted for assertion")
    _check_schema(vc, report)
    _check_temporal(vc, at or utc_now(), clock_skew, report)
    _check_revocation(vc, resolver, registry_source, report)
    return report


def check_binding_claim(vc: VerifiableCredential, data: bytes | str | Path) -> BindingReport:
    """Recheck the credential's dataset-hash claim against actual data."""
    raw = vc.claims.get(HASH_CLAIM)
    if not raw:
        raise NoHashClaim(f"credential {vc.id} carries no {HASH_CLAIM!r} claim")
    digest = normalize_digest(raw)
    if isinstance(data, (str, Path)) and Path(data).is_dir():
        form = "tree"
    else:
        form = "file"
    fp = DatasetFingerprint(algorithm="sha256", digest=digest, form=form)
    return check_binding(fp, data)
