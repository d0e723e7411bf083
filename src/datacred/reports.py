"""Verification reports: independent named checks, each with its own status.

A check is Valid, Invalid, or Indeterminate. Indeterminate means the check
could not be completed (typically a network failure) and is never collapsed
into a false Valid or Invalid. A report's overall outcome is the worst of its
checks' and its nested reports' outcomes: Valid only when every one is Valid;
else Invalid if any is Invalid, else Indeterminate.

A check is immutable: a fixed outcome, a status and reason with no detail, is one
module constant next to the check that returns it, shared by every report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class CheckStatus(str, Enum):
    VALID = "Valid"
    INVALID = "Invalid"
    INDETERMINATE = "Indeterminate"


def worst(statuses) -> CheckStatus:
    """The one outcome rule over a collection of statuses, as the module states it."""
    return next((s for s in (CheckStatus.INVALID, CheckStatus.INDETERMINATE)
                 if s in statuses), CheckStatus.VALID)


@dataclass(frozen=True, slots=True)
class CheckResult:
    status: CheckStatus
    reason: str
    detail: str = ""

    def to_json(self) -> dict:
        return {"status": self.status.value, "reason": self.reason, "detail": self.detail}


@dataclass(slots=True)
class _Report:
    """Named checks and notes, under the one outcome rule the module states."""

    checks: dict[str, CheckResult] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def _nested(self) -> list["_Report"]:
        return []

    @property
    def overall(self) -> CheckStatus:
        statuses = {c.status for c in self.checks.values()}
        statuses.update(report.overall for report in self._nested())
        return worst(statuses)

    @property
    def valid(self) -> bool:
        return self.overall is CheckStatus.VALID

    def reasons(self) -> list[str]:
        out = [c.reason for c in self.checks.values() if c.status is not CheckStatus.VALID]
        for report in self._nested():
            out.extend(report.reasons())
        return out


@dataclass(slots=True)
class VerificationReport(_Report):
    """Outcome of verifying one credential."""

    issuer: str = ""
    credential_id: str = ""
    claims: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "overall": self.overall.value,
            "issuer": self.issuer,
            "credentialId": self.credential_id,
            "claims": self.claims,
            "checks": {name: check.to_json() for name, check in self.checks.items()},
            "notes": self.notes,
        }


@dataclass(slots=True)
class PresentationReport(_Report):
    """Outcome of verifying a presentation and every credential inside it."""

    credential_reports: list[VerificationReport] = field(default_factory=list)
    holder: str = ""

    def _nested(self) -> list[VerificationReport]:
        return self.credential_reports

    @property
    def issuers(self) -> list[str]:
        """Issuer DIDs of the embedded credentials: the trust anchors."""
        seen = []
        for report in self.credential_reports:
            if report.issuer and report.issuer not in seen:
                seen.append(report.issuer)
        return seen

    def to_json(self) -> dict:
        return {
            "overall": self.overall.value,
            "holder": self.holder,
            "issuers": self.issuers,
            "checks": {name: check.to_json() for name, check in self.checks.items()},
            "credentials": [r.to_json() for r in self.credential_reports],
            "notes": self.notes,
        }
