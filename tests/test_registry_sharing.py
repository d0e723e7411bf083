"""Sharing verified registries between verification contexts changes work, never a
verdict: every revocation check reads what the same check reads in a process that
shares nothing, step for step, over fresh and reused contexts, issuer documents that
publish either of two keys, and registries that are current, re-signed, older, missing
an id, tampered with, signed by the other key or over the memo's byte budget."""

import functools
import json
from collections import OrderedDict

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from datacred import resolver
from datacred.credential import (
    DATASET_PROVENANCE_V1,
    CredentialStatus,
    _check_revocation,
    issue_credential,
)
from datacred.did import one_key_document, parse_did
from datacred.fingerprint import fingerprint_bytes
from datacred.keys import generate_keypair
from datacred.proofs import ASSERTION, attach_proof
from datacred.resolver import KeyBackend, Resolver, StaticBackend

ISSUER = "did:web:issuer.example"
KEYS = {"K": generate_keypair(b"\x05" * 32), "K'": generate_keypair(b"\x06" * 32)}
URLS = ("https://issuer.example/registry/a", "https://issuer.example/registry/b")
STATUS_IDS = ("s-0", "s-1", "s-2", "other")
VARIANTS = ("current", "re-signed", "older", "missing an id", "tampered", "other key",
            "over budget")
CLAIMS = {"Hash of Data": fingerprint_bytes(b"data").digest, "Data Ethically Sourced": "YES"}
PADDING = [f"padding-{n:04d}" for n in range(120)]  # about 2 KiB more than a registry


@functools.lru_cache(maxsize=None)
def credential(status_id: str, url: str):
    return issue_credential(KEYS["K"], ISSUER, "did:web:subject.example", DATASET_PROVENANCE_V1,
                            CLAIMS, status=CredentialStatus(registry_url=url, status_id=status_id))


def context(key: str) -> Resolver:
    document = one_key_document(parse_did(ISSUER), KEYS[key].public_key).to_json()
    return Resolver(backends=[KeyBackend(), StaticBackend({ISSUER: document})])


def signed(revoked: list, version: int, key: str = "K", created: str | None = None) -> bytes:
    registry = {"issuer": ISSUER, "revoked": revoked,
                "updated": f"2026-01-01T00:{version // 60:02d}:{version % 60:02d}Z"}
    registry = attach_proof(registry, KEYS[key], ISSUER, ASSERTION, created=created)
    return json.dumps(registry).encode()


class SharingChangesNoVerdict(RuleBasedStateMachine):
    """Each context exists twice: one checks with the process memo, its twin with the
    memo emptied before every check, as in a process of one context per check. A check
    runs in the three contexts made last, newest first; the machine is their registry
    source, serving the same bytes at every URL."""

    def __init__(self):
        super().__init__()
        self.contexts = [(context("K"), context("K"))]
        self.revoked, self.version = [], 1
        self.served = signed([], 1)
        self.budget = resolver.VERIFIED_REGISTRY_BYTES
        resolver.VERIFIED_REGISTRY_BYTES = 3 * len(signed(STATUS_IDS[:3], 1))
        resolver._shared_registries.clear()

    def teardown(self):
        resolver.VERIFIED_REGISTRY_BYTES = self.budget
        resolver._shared_registries.clear()

    def fetch(self, url: str, etag: str | None = None) -> bytes:
        return self.served

    def reply(self, variant: str, at: float) -> bytes:
        current = signed(self.revoked, self.version)
        if variant == "re-signed":
            return signed(self.revoked, self.version, created="2027-01-01T00:00:00Z")
        if variant == "older":
            return signed(self.revoked, self.version - 1)
        if variant == "missing an id":
            return signed(self.revoked[1:], self.version)
        if variant == "tampered":
            changed = bytearray(current)
            changed[int(at * len(current))] ^= 1
            return bytes(changed)
        if variant == "other key":
            return signed(self.revoked, self.version, key="K'")
        if variant == "over budget":
            return signed(self.revoked + PADDING, self.version)
        return current

    @rule()
    def revoke_next(self):
        if len(self.revoked) < 3:
            self.revoked.append(STATUS_IDS[len(self.revoked)])
        self.version += 1

    @rule(variant=st.sampled_from(VARIANTS), at=st.sampled_from([0.3, 0.6, 0.95]))
    def serve(self, variant, at):
        self.served = self.reply(variant, at)

    @rule(url=st.sampled_from(URLS), status_id=st.sampled_from(STATUS_IDS),
          fresh=st.sampled_from([None, *KEYS]))
    def check(self, url, status_id, fresh):
        """Check in every context, after making a fresh one whose issuer has key fresh."""
        if fresh is not None:
            self.contexts = [*self.contexts[-2:], (context(fresh), context(fresh))]
        vc = credential(status_id, url)
        for sharing, alone in reversed(self.contexts):
            with_memo = _check_revocation(vc, sharing, self)
            shared = OrderedDict(resolver._shared_registries)
            resolver._shared_registries.clear()
            without = _check_revocation(vc, alone, self)
            resolver._shared_registries.clear()
            resolver._shared_registries.update(shared)
            assert (with_memo.status, with_memo.reason, with_memo.detail) == (
                without.status, without.reason, without.detail)

    @invariant()
    def memos_stay_within_their_bounds(self):
        memos = [resolver._shared_registries] + [pair[0]._registries for pair in self.contexts]
        for memo in memos:
            sizes = [entry[-1] for entry in memo.values()]
            assert len(sizes) <= resolver.VERIFIED_REGISTRIES
            assert sum(sizes) <= resolver.VERIFIED_REGISTRY_BYTES
        assert all(digest == entry[0] for digest, entry in resolver._shared_registries.items())


SharingChangesNoVerdict.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, derandomize=True, deadline=None)
test_sharing_changes_no_verdict = SharingChangesNoVerdict.TestCase
