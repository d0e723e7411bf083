"""The verified-registry memos: each Resolver keeps the registry that last verified at a
URL, and the process the registries that verified last, by the SHA-256 of their bytes. A
registry is parsed, canonicalized and verified once per process, and reused only for the
same bytes (or a 304 to their digest) while the issuer, as the reusing context resolves
it, still publishes the key it verified under."""

import hashlib
import json
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from datacred import proofs, resolver
from datacred.credential import (
    DATASET_PROVENANCE_V1,
    CredentialStatus,
    FileRegistrySource,
    HttpRegistrySource,
    StaticRegistrySource,
    _check_revocation,
    issue_credential,
    new_registry,
    revoke,
    sign_registry,
)
from datacred.did import DidDocument, VerificationMethod, one_key_document, parse_did
from datacred.fingerprint import fingerprint_bytes
from datacred.keys import generate_keypair
from datacred.proofs import ASSERTION, attach_proof
from datacred.resolver import KeyBackend, Resolver, StaticBackend
from docgen import leaf_paths, mutate_leaf

ISSUER = "did:web:issuer.example"
ISSUER_KEY = generate_keypair(b"\x03" * 32)
REGISTRY_URL = "https://issuer.example/registry"
CLAIMS = {"Hash of Data": fingerprint_bytes(b"data").digest, "Data Ethically Sourced": "YES"}


def credential(status_id: str = "s-1", url: str = REGISTRY_URL):
    return issue_credential(ISSUER_KEY, ISSUER, "did:web:subject.example", DATASET_PROVENANCE_V1,
                            CLAIMS, status=CredentialStatus(registry_url=url, status_id=status_id))


def context() -> Resolver:
    document = one_key_document(parse_did(ISSUER), ISSUER_KEY.public_key).to_json()
    return Resolver(backends=[KeyBackend(), StaticBackend({ISSUER: document})])


def registry_bytes(revoked=("other",)) -> bytes:
    registry = new_registry(ISSUER, ISSUER_KEY)
    for status_id in revoked:
        registry = revoke(registry, status_id, ISSUER_KEY)
    return json.dumps(registry.to_json()).encode()


def outcome(vc, context, source):
    result = _check_revocation(vc, context, source)
    return result.status.value, result.reason


@pytest.fixture
def canonicalizations(monkeypatch):
    calls = []
    canonicalize = proofs.canonicalize
    monkeypatch.setattr(proofs, "canonicalize",
                        lambda value: (calls.append(1), canonicalize(value))[1])
    return calls


@pytest.fixture
def bundle_registry(tmp_path):
    path = tmp_path / "registry.json"
    path.write_bytes(registry_bytes(["other", "s-2"]))
    return path


def test_unchanged_bytes_cost_no_canonicalization_or_verify(
    bundle_registry, canonicalizations, verifies
):
    kept, revoked = credential(), credential("s-2")
    warm, source = context(), FileRegistrySource(bundle_registry)
    canonicalizations.clear(), verifies.clear()
    assert outcome(kept, warm, source) == ("Valid", "NotRevoked")
    assert (len(canonicalizations), len(verifies)) == (1, 1)
    assert outcome(kept, warm, source) == ("Valid", "NotRevoked")
    assert outcome(revoked, warm, source) == ("Invalid", "Revoked")
    assert (len(canonicalizations), len(verifies)) == (1, 1)


def test_changed_bytes_are_checked_again(bundle_registry, canonicalizations):
    vc, warm, source = credential(), context(), FileRegistrySource(bundle_registry)
    assert outcome(vc, warm, source) == ("Valid", "NotRevoked")
    bundle_registry.write_bytes(registry_bytes(["other", "s-2", "s-1"]))
    canonicalizations.clear()
    assert outcome(vc, warm, source) == ("Invalid", "Revoked")
    assert len(canonicalizations) == 1


def test_a_rotated_key_misses(bundle_registry, monkeypatch):
    vc, warm, source = credential(), context(), FileRegistrySource(bundle_registry)
    assert outcome(vc, warm, source) == ("Valid", "NotRevoked")
    monkeypatch.setattr(resolver, "CACHE_TTL", 0)  # the issuer's document expires at once
    rotated = generate_keypair(b"\x04" * 32)
    warm.backends[1].documents[ISSUER] = DidDocument(id=ISSUER, authentication=[
        VerificationMethod(id=f"{ISSUER}#key-1", controller=ISSUER,
                           public_key_base58=rotated.public_key_base58)]).to_json()
    assert outcome(vc, warm, source) == ("Indeterminate", "RegistryInvalid")


def test_an_unresolvable_issuer_on_a_warm_hit_is_fetched_once(bundle_registry, monkeypatch):
    vc, warm, source = credential(), context(), FileRegistrySource(bundle_registry)
    assert outcome(vc, warm, source) == ("Valid", "NotRevoked")
    monkeypatch.setattr(resolver, "CACHE_TTL", 0)
    backend = warm.backends[1]
    monkeypatch.setattr(backend, "supports", lambda did: True)
    backend.documents.clear()  # the issuer's document can no longer be fetched
    fetched = warm.fetch_count
    assert outcome(vc, warm, source) == ("Indeterminate", "RegistryInvalid")
    assert warm.fetch_count == fetched + 1


def test_a_second_context_reuses_the_registry_while_it_resolves_the_same_key(
    bundle_registry, canonicalizations, verifies
):
    vc, source = credential(), FileRegistrySource(bundle_registry)
    first, second = context(), context()
    canonicalizations.clear(), verifies.clear()
    assert outcome(vc, first, source) == ("Valid", "NotRevoked")
    assert (len(canonicalizations), len(verifies)) == (1, 1)
    assert outcome(vc, second, source) == ("Valid", "NotRevoked")
    assert (len(canonicalizations), len(verifies), second.fetch_count) == (1, 1, 1)

    rotated = context()
    rotated.backends[1].documents[ISSUER] = one_key_document(
        parse_did(ISSUER), generate_keypair(b"\x04" * 32).public_key).to_json()
    assert outcome(vc, rotated, source) == ("Indeterminate", "RegistryInvalid")
    unresolvable = Resolver(backends=[KeyBackend()])
    assert outcome(vc, unresolvable, source) == ("Indeterminate", "RegistryInvalid")


def test_the_memo_keeps_the_registries_used_last(canonicalizations):
    urls = [f"https://issuer.example/registry/{n}" for n in range(resolver.VERIFIED_REGISTRIES + 1)]
    source = StaticRegistrySource({url: json.loads(registry_bytes([url])) for url in urls})
    vcs, warm = [credential(url=url) for url in urls], context()
    for vc in vcs:
        assert outcome(vc, warm, source) == ("Valid", "NotRevoked")
    assert len(warm._registries) == resolver.VERIFIED_REGISTRIES
    canonicalizations.clear()
    outcome(vcs[-1], warm, source)
    assert canonicalizations == []
    outcome(vcs[0], warm, source)  # the least recently used went out
    assert canonicalizations == [1]


def test_the_memo_keeps_replies_within_its_byte_budget(monkeypatch, canonicalizations):
    urls = [f"https://issuer.example/registry/{n}" for n in range(3)]
    replies = {url: registry_bytes([url]) for url in urls}  # of one size
    size = len(replies[urls[0]])
    monkeypatch.setattr(resolver, "VERIFIED_REGISTRY_BYTES", 2 * size + size // 2)
    source = StaticRegistrySource({url: json.loads(reply) for url, reply in replies.items()})
    vcs, warm = [credential(url=url) for url in urls], context()
    for vc in vcs:
        assert outcome(vc, warm, source) == ("Valid", "NotRevoked")
    assert list(warm._registries) == urls[1:]
    canonicalizations.clear()
    outcome(vcs[-1], warm, source)
    assert canonicalizations == []
    outcome(vcs[0], warm, source)  # the least recently used went out
    assert canonicalizations == [1]


def test_a_reply_over_the_byte_budget_is_checked_in_full_and_not_kept(
    monkeypatch, canonicalizations
):
    reply = registry_bytes(["other", "s-2"])
    monkeypatch.setattr(resolver, "VERIFIED_REGISTRY_BYTES", len(reply) - 1)
    source, warm = StaticRegistrySource({REGISTRY_URL: json.loads(reply)}), context()
    kept, revoked = credential(), credential("s-2")
    canonicalizations.clear()
    assert outcome(kept, warm, source) == ("Valid", "NotRevoked")
    assert outcome(revoked, warm, source) == ("Invalid", "Revoked")
    assert canonicalizations == [1, 1] and len(warm._registries) == 0


def test_registries_of_the_benchmark_sizes_all_stay_in_the_memo(canonicalizations):
    """Four registries of 2,000 UUIDs, more than any benchmark workload's."""
    urls = [f"https://issuer.example/registry/{n}" for n in range(resolver.VERIFIED_REGISTRIES)]
    ids = [f"{n:08d}-0000-4000-8000-000000000000" for n in range(2000)]
    source = StaticRegistrySource(
        {url: sign_registry(ISSUER, ids, ISSUER_KEY).to_json() for url in urls})
    vcs, warm = [credential(url=url) for url in urls], context()
    for vc in vcs:
        assert outcome(vc, warm, source) == ("Valid", "NotRevoked")
    canonicalizations.clear()
    for vc in vcs:
        assert outcome(vc, warm, source) == ("Valid", "NotRevoked")
    assert canonicalizations == [] and list(warm._registries) == urls


def test_a_failing_registry_is_checked_again(bundle_registry, canonicalizations, verifies):
    document = json.loads(bundle_registry.read_bytes())
    document["revoked"].append("s-1")  # no longer what the issuer signed
    bundle_registry.write_text(json.dumps(document))
    vc, warm, source = credential(), context(), FileRegistrySource(bundle_registry)
    canonicalizations.clear(), verifies.clear()
    for _ in range(2):
        assert outcome(vc, warm, source) == ("Indeterminate", "RegistryInvalid")
    assert (len(canonicalizations), len(verifies)) == (2, 2)
    assert len(warm._registries) == 0


def test_threads_sharing_a_context_get_every_outcome_right():
    """More threads than CPUs, two contexts, more URLs than the memos keep, a switch
    every microsecond."""
    urls = [f"https://issuer.example/registry/{n}" for n in range(resolver.VERIFIED_REGISTRIES + 2)]
    source = StaticRegistrySource({url: json.loads(registry_bytes(["other", "s-2", url]))
                                   for url in urls})
    vcs = [(credential(status_id, url), status_id == "s-2") for url in urls
           for status_id in ("s-1", "s-2")]
    contexts, wrong = (context(), context()), []

    def check(shared):
        for vc, revoked in vcs * 3:
            if outcome(vc, shared, source)[1] != ("Revoked" if revoked else "NotRevoked"):
                wrong.append(vc.status)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=check, args=(contexts[n % 2],)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and len(resolver._shared_registries) == resolver.VERIFIED_REGISTRIES
    assert [len(shared._registries) for shared in contexts] == [resolver.VERIFIED_REGISTRIES] * 2


def signed(**fields) -> dict:
    registry = {"issuer": ISSUER, "revoked": [], "updated": "2026-01-01T00:00:00Z", **fields}
    return attach_proof(registry, ISSUER_KEY, ISSUER, ASSERTION)


@pytest.mark.parametrize("fields", [{"revoked": [{}]}, {"revoked": [1]}, {"issuer": 5},
                                    {"updated": None}, {"revoked": "s-1"}],
                         ids=["object-id", "number-id", "number-issuer", "null-updated",
                              "string-list"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "after-a-warm-hit"])
def test_a_registry_field_of_the_wrong_type_is_unavailable(fields, warm):
    source, verifier = StaticRegistrySource({REGISTRY_URL: signed()}), context()
    if warm:
        for _ in range(2):
            assert outcome(credential(), verifier, source) == ("Valid", "NotRevoked")
    source.registries[REGISTRY_URL] = signed(**fields)
    assert outcome(credential(), verifier, source) == ("Indeterminate", "RegistryUnavailable")


_BASE = registry_bytes(["other", "s-1"])
_LEAVES = leaf_paths(json.loads(_BASE))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(status_id=st.sampled_from(["s-1", "s-9"]),
       leaf=st.one_of(st.none(), st.sampled_from(_LEAVES)),
       at=st.integers(0, len(_BASE) - 1), flip=st.integers(1, 255))
def test_a_warm_context_answers_a_changed_registry_like_a_fresh_one(
    tmp_path, status_id, leaf, at, flip
):
    """After a warm check, one changed field or byte at the same URL gets the outcome
    a fresh context gives it."""
    path = tmp_path / "registry.json"
    path.write_bytes(_BASE)
    vc, warm, source = credential(status_id), context(), FileRegistrySource(path)
    outcome(vc, warm, source)
    if leaf is None:
        changed = bytearray(_BASE)
        changed[at] ^= flip
    else:
        changed = json.dumps(mutate_leaf(json.loads(_BASE), leaf)).encode()
    path.write_bytes(bytes(changed))
    assert outcome(vc, warm, source) == outcome(vc, context(), source)


# --- a publisher's registry over HTTP ---

@pytest.mark.usefixtures("fast_wallet_kdf")
def test_an_unchanged_registry_is_a_304_reused_without_parsing(agent_factory, monkeypatch):
    publisher = agent_factory("publisher")
    vc = issue_credential(publisher.key, publisher.did, "did:web:subject.example",
                          DATASET_PROVENANCE_V1, CLAIMS, status=CredentialStatus(
                              f"{publisher.base_url}/registry", "s-1"))
    source, replies = HttpRegistrySource(allow_insecure_loopback=True), []
    fetch = source.fetch
    source.fetch = lambda url, etag=None: (replies.append(reply := fetch(url, etag)), reply)[1]
    warm = Resolver([KeyBackend(), resolver.WebBackend(allow_insecure_loopback=True)])
    assert outcome(vc, warm, source) == ("Valid", "NotRevoked")
    payload, etag = publisher.registry_reply()
    assert replies == [payload] and etag == f'"{hashlib.sha256(payload).hexdigest()}"'

    parses = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *args, **kwargs: (parses.append(1),
                                                                loads(*args, **kwargs))[1])
    assert outcome(vc, warm, source) == ("Valid", "NotRevoked")
    assert replies[1:] == [None] and parses == []
    assert warm.network_fetch_count == 3  # the publisher's DID document, two registry GETs

    monkeypatch.setattr(json, "loads", loads)
    publisher.revoke_status("s-1")
    assert outcome(vc, warm, source) == ("Invalid", "Revoked")
    assert replies[2] == publisher.registry_reply()[0]
