"""The four benchmark workloads.

Each workload makes its inputs from the seed (untimed), sets the program up
(timed as set-up), runs one operation at a time in a closed loop, and checks
every output against the generator's own record of what it signed, revoked
and tampered with, never against a saved copy of the program's output.

``check`` returns True for a correct operation and False for one that failed
because of the known fault the workload names; any other wrong output raises
``Mismatch`` and makes the whole run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import uuid
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

PASSPHRASE = "benchmark wallet passphrase"
PASSPHRASE_ENV = "DATACRED_PASSPHRASE"
ISSUED_AT = "2024-01-01T00:00:00Z"
EXPIRES_AT = "2099-01-01T00:00:00Z"
REGISTRY_UPDATED = "2024-06-01T00:00:00Z"
ATTRIBUTES = ["Hash of Data", "Data Ethically Sourced"]


class Mismatch(Exception):
    """A program output differs from the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def seeded_uuid(rng: random.Random) -> str:
    return str(uuid.UUID(bytes=rng.randbytes(16), version=4))


def seeded_claims(rng: random.Random) -> dict:
    return {
        "Hash of Data": rng.randbytes(32).hex(),
        "Data Ethically Sourced": rng.choice(["YES", "NO"]),
    }


def web_identity(rng: random.Random, host: str):
    """A seeded key with a did:web document published under host."""
    from datacred.did import DidDocument, VerificationMethod
    from datacred.keys import generate_keypair

    key = generate_keypair(rng.randbytes(32))
    did = f"did:web:{host}"
    method = VerificationMethod(id=did, controller=did, public_key_base58=key.public_key_base58)
    return key, did, DidDocument(id=did, authentication=[method]).to_json()


def signed_credential(key, issuer: str, subject: str, credential_id: str, claims: dict,
                      registry_url: str, status_id: str) -> dict:
    """A credential with fixed timestamps, so a seed always gives the same bytes."""
    from datacred.credential import (
        DATASET_PROVENANCE_V1,
        CredentialStatus,
        VerifiableCredential,
    )
    from datacred.proofs import ASSERTION, attach_proof

    credential = VerifiableCredential(
        id=credential_id,
        issuer=issuer,
        issuance_date=ISSUED_AT,
        expiration_date=EXPIRES_AT,
        subject_id=subject,
        claims=claims,
        schema=DATASET_PROVENANCE_V1,
        status=CredentialStatus(registry_url=registry_url, status_id=status_id),
    )
    return attach_proof(credential.to_json(), key, issuer, ASSERTION, created=ISSUED_AT)


def signed_registry(key, issuer: str, revoked: list[str]) -> dict:
    from datacred.credential import RevocationRegistry
    from datacred.proofs import ASSERTION, attach_proof

    registry = RevocationRegistry(issuer=issuer, revoked=revoked, updated=REGISTRY_UPDATED)
    return attach_proof(registry.to_json(), key, issuer, ASSERTION, created=REGISTRY_UPDATED)


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def manifest_digest(files: dict[str, str]) -> str:
    """Tree digest by the documented rule, computed apart from the program.

    Sorted slash-separated relative paths, each with its file's SHA-256; the
    digest is the SHA-256 of the manifest's canonical JSON (sorted keys, no
    whitespace, UTF-8).
    """
    manifest = [{"path": path, "digest": files[path]} for path in sorted(files)]
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """Base: a fixed number of operations, in whole rounds."""

    name = ""
    rate = 1.0  # operations per second on the reference machine; fixes the op count
    round_size = 1
    reference_every = 1  # operations between two samples of the CPU's speed
    setup_repeats = 1

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def prepare(self) -> None:
        """Generate the inputs; untimed."""

    def setup(self, attempt: int) -> None:
        """The program's own set-up beyond importing it; timed."""

    def discard(self) -> None:
        """Undo one set-up so the next attempt starts fresh."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run, after the timed phase."""

    def close(self) -> None:
        self.discard()

    def tree_bytes(self, root) -> int:
        return 0


# --- verify_bundle ----------------------------------------------------------


@dataclass
class Bundle:
    path: Path
    kind: str  # "valid" | "revoked" | "tampered"
    credential_id: str
    issuer: str
    holder: str
    challenge: str


class VerifyBundle(Workload):
    """Offline verification of a catalogue of bundles from several issuers."""

    name = "verify_bundle"
    rate = 360.0
    ISSUERS = 4
    KINDS = {"valid": 30, "revoked": 12, "tampered": 6}
    FILLER_REVOKED = 300  # revoked ids per registry besides the catalogue's own
    round_size = sum(KINDS.values())
    reference_every = 8

    def prepare(self) -> None:
        from datacred.credential import VerifiableCredential
        from datacred.did import generate_did_key
        from datacred.keys import generate_keypair
        from datacred.presentation import VerifiablePresentation
        from datacred.proofs import AUTHENTICATION, attach_proof

        rng = self.rng
        issuers = [web_identity(rng, f"issuer{j}.example") for j in range(self.ISSUERS)]
        revoked = [[seeded_uuid(rng) for _ in range(self.FILLER_REVOKED)] for _ in issuers]
        kinds = [kind for kind, count in self.KINDS.items() for _ in range(count)]
        rng.shuffle(kinds)

        self.bundles: list[Bundle] = []
        for index, kind in enumerate(kinds):
            j = index % self.ISSUERS
            key, issuer, document = issuers[j]
            holder_key = generate_keypair(rng.randbytes(32))
            holder = generate_did_key(holder_key.public_key)[0].text
            status_id = seeded_uuid(rng)
            if kind == "revoked":
                revoked[j].insert(rng.randrange(len(revoked[j]) + 1), status_id)
            credential = signed_credential(
                key, issuer, holder, f"urn:uuid:{seeded_uuid(rng)}", seeded_claims(rng),
                f"https://issuer{j}.example/registry", status_id,
            )
            if kind == "tampered":
                subject = credential["credentialSubject"]
                subject["Data Ethically Sourced"] = (
                    "NO" if subject["Data Ethically Sourced"] == "YES" else "YES"
                )
            challenge = rng.randbytes(16).hex()
            presentation = attach_proof(
                VerifiablePresentation(
                    holder=holder, credentials=[VerifiableCredential.from_json(credential)]
                ).to_json(),
                holder_key, holder, AUTHENTICATION, challenge=challenge, created=ISSUED_AT,
            )
            path = self.work / f"bundle{index:03d}"
            path.mkdir(parents=True)
            write_json(path / "credential.json", credential)
            write_json(path / "presentation.json", presentation)
            write_json(path / "dids.json", {issuer: document})
            self.bundles.append(Bundle(path, kind, credential["id"], issuer, holder, challenge))

        # Each issuer's revoked list is complete only once the catalogue is.
        for index, bundle in enumerate(self.bundles):
            j = index % self.ISSUERS
            key, issuer, _ = issuers[j]
            write_json(bundle.path / "registry.json", signed_registry(key, issuer, revoked[j]))

    def op(self, i: int):
        from datacred.credential import FileRegistrySource, VerifiableCredential, verify_credential
        from datacred.presentation import VerifiablePresentation, verify_presentation
        from datacred.resolver import DirectoryBackend, KeyBackend, Resolver

        bundle = self.bundles[i % len(self.bundles)]
        resolver = Resolver(backends=[KeyBackend(), DirectoryBackend(bundle.path)])
        registry = FileRegistrySource(bundle.path / "registry.json")
        credential = VerifiableCredential.from_json(
            json.loads((bundle.path / "credential.json").read_text(encoding="utf-8"))
        )
        presentation = VerifiablePresentation.from_json(
            json.loads((bundle.path / "presentation.json").read_text(encoding="utf-8"))
        )
        credential_report = verify_credential(credential, resolver, registry_source=registry)
        presentation_report = verify_presentation(
            presentation, bundle.challenge, resolver, registry_source=registry
        )
        return credential_report, presentation_report, resolver.network_fetch_count

    def check(self, i: int, out) -> bool:
        bundle = self.bundles[i % len(self.bundles)]
        credential_report, presentation_report, network_fetches = out
        expect(network_fetches == 0, f"{bundle.path.name}: offline verify used the network")
        expect(presentation_report.holder == bundle.holder, f"{bundle.path.name}: holder")
        for name in ("holderSignature", "challenge", "subjectBinding"):
            expect(presentation_report.checks[name].status.value == "Valid",
                   f"{bundle.path.name}: presentation {name} not Valid")
        expect(len(presentation_report.credential_reports) == 1, "one embedded credential")
        for report in (credential_report, presentation_report.credential_reports[0]):
            checks = {k: (c.status.value, c.reason) for k, c in report.checks.items()}
            expect(report.credential_id == bundle.credential_id, "credential id")
            expect(report.issuer == bundle.issuer, "issuer")
            expect(checks["schema"][0] == "Valid" and checks["temporal"][0] == "Valid",
                   f"{bundle.path.name}: schema or temporal check not Valid: {checks}")
            if bundle.kind == "tampered":
                expect(checks["signature"] == ("Invalid", "SignatureMismatch"),
                       f"{bundle.path.name}: tampered credential gave {checks}")
            else:
                expect(checks["signature"][0] == "Valid",
                       f"{bundle.path.name}: signature gave {checks}")
            if bundle.kind == "revoked":
                expect(checks["revocation"] == ("Invalid", "Revoked"),
                       f"{bundle.path.name}: revoked credential gave {checks}")
            else:
                expect(checks["revocation"] == ("Valid", "NotRevoked"),
                       f"{bundle.path.name}: revocation gave {checks}")
            expected = "Valid" if bundle.kind == "valid" else "Invalid"
            expect(report.overall.value == expected,
                   f"{bundle.path.name}: overall {report.overall.value}, want {expected}")
        expected = "Valid" if bundle.kind == "valid" else "Invalid"
        expect(presentation_report.overall.value == expected,
               f"{bundle.path.name}: presentation {presentation_report.overall.value}")
        return True


# --- bind_tree --------------------------------------------------------------


class BindTree(Workload):
    """`datacred verify --data` on a file tree and on two tampered copies.

    Known fault: `datacred verify --data` leaves `overall` at Valid when the
    binding does not match (src/datacred/cli.py, the `verify` command). Every
    tampered-tree operation fails because of it until it is fixed.
    """

    name = "bind_tree"
    rate = 7.0
    TOP_DIRS = 10
    SUB_DIRS = 10
    FILES_PER_DIR = 30
    SMALL_SIZES = (64, 4096)
    BIG_FILES = 3
    BIG_SIZE = 4 << 20
    # One round: six operations on the certified tree, one on a copy with a
    # flipped bit, one on a copy with a renamed file.
    ROUND = ("original",) * 6 + ("flipped", "renamed")
    round_size = len(ROUND)

    def prepare(self) -> None:
        rng = self.rng
        original = self.work / "tree"
        files: dict[str, str] = {}
        for top in range(self.TOP_DIRS):
            for sub in range(self.SUB_DIRS):
                directory = original / f"part{top:02d}" / f"shard{sub:02d}"
                directory.mkdir(parents=True)
                for n in range(self.FILES_PER_DIR):
                    data = rng.randbytes(rng.randint(*self.SMALL_SIZES))
                    (directory / f"record{n:03d}.csv").write_bytes(data)
                    files[f"part{top:02d}/shard{sub:02d}/record{n:03d}.csv"] = (
                        hashlib.sha256(data).hexdigest()
                    )
        (original / "blobs").mkdir()
        for n in range(self.BIG_FILES):
            digest = hashlib.sha256()
            with open(original / "blobs" / f"block{n}.bin", "wb") as handle:
                for _ in range(self.BIG_SIZE >> 20):
                    chunk = rng.randbytes(1 << 20)
                    digest.update(chunk)
                    handle.write(chunk)
            files[f"blobs/block{n}.bin"] = digest.hexdigest()
        size = sum(p.stat().st_size for p in original.rglob("*") if p.is_file())

        small = sorted(p for p in files if p.endswith(".csv"))
        flipped_path = rng.choice(small)
        renamed_path = rng.choice(small)
        flipped = self._link_copy(original, "tree_flipped", files)
        target = flipped / flipped_path
        data = bytearray((original / flipped_path).read_bytes())
        position = rng.randrange(len(data))
        data[position] ^= 1 << rng.randrange(8)
        target.unlink()
        target.write_bytes(bytes(data))
        flipped_files = dict(files)
        flipped_files[flipped_path] = hashlib.sha256(bytes(data)).hexdigest()

        renamed = self._link_copy(original, "tree_renamed", files)
        new_name = renamed_path.replace(".csv", ".old.csv")
        os.rename(renamed / renamed_path, renamed / new_name)
        renamed_files = dict(files)
        renamed_files[new_name] = renamed_files.pop(renamed_path)

        self.trees = {
            "original": (original, manifest_digest(files)),
            "flipped": (flipped, manifest_digest(flipped_files)),
            "renamed": (renamed, manifest_digest(renamed_files)),
        }
        self.files_per_tree = len(files)
        self.bytes_per_tree = {str(path): size for path, _ in self.trees.values()}

        # The program's fingerprint of each tree must equal the reference.
        for kind, (path, digest) in self.trees.items():
            code, text = self._cli(["hash", str(path)])
            expect(code == 0, f"datacred hash {kind} exited {code}")
            produced = json.loads(text)
            expect(produced["digest"] == digest,
                   f"datacred hash {kind}: {produced['digest']} != reference {digest}")
            expect(len(produced["manifest"]) == len(files), f"{kind}: manifest length")

        key, issuer, document = web_identity(rng, "publisher.example")
        status_id = seeded_uuid(rng)
        subject = f"did:web:dataset{self.seed}.example"
        claims = {"Hash of Data": self.trees["original"][1], "Data Ethically Sourced": "YES"}
        credential = signed_credential(
            key, issuer, subject, f"urn:uuid:{seeded_uuid(rng)}", claims,
            "https://publisher.example/registry", status_id,
        )
        self.bundle = self.work / "bundle"
        self.bundle.mkdir()
        write_json(self.bundle / "credential.json", credential)
        write_json(self.bundle / "dids.json", {issuer: document})
        revoked = [seeded_uuid(rng) for _ in range(50)]
        write_json(self.bundle / "registry.json", signed_registry(key, issuer, revoked))

    def _link_copy(self, source: Path, name: str, files: dict) -> Path:
        """A copy of the tree made of hard links, so it costs no data blocks."""
        copy = self.work / name
        for rel in files:
            (copy / rel).parent.mkdir(parents=True, exist_ok=True)
            os.link(source / rel, copy / rel)
        return copy

    @staticmethod
    def _cli(args: list[str]) -> tuple[int, str]:
        """Run `datacred <args>` in-process; return the exit code and stdout."""
        from datacred import cli

        stdout = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(stdout):
            try:
                cli.main(args, prog_name="datacred")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, stdout.getvalue()

    def tree_bytes(self, root) -> int:
        return self.bytes_per_tree.get(str(root), 0)

    def op(self, i: int):
        path, _ = self.trees[self.ROUND[i % len(self.ROUND)]]
        return self._cli(
            ["verify", str(self.bundle / "credential.json"), "--offline-bundle",
             str(self.bundle), "--data", str(path), "--json"]
        )

    def check(self, i: int, out) -> bool:
        kind = self.ROUND[i % len(self.ROUND)]
        _, digest = self.trees[kind]
        code, text = out
        report = json.loads(text)
        binding = report["binding"]
        expect(binding["expectedDigest"] == self.trees["original"][1], "expected digest")
        expect(binding["actualDigest"] == digest,
               f"{kind}: actual digest {binding['actualDigest']} != reference {digest}")
        expect(report["networkFetches"] == 0, "offline verify used the network")
        for name, check in report["checks"].items():
            expect(check["status"] == "Valid", f"{kind}: credential check {name} not Valid")
        if kind == "original":
            expect(code == 0 and binding["matched"] and report["overall"] == "Valid",
                   f"original tree: exit {code}, report {report['overall']}")
            return True
        expect(code == 1, f"{kind} tree: exit {code}, want 1")
        expect(binding["matched"] is False, f"{kind} tree: binding matched")
        return report["overall"] != "Valid"


# --- live agents --------------------------------------------------------------


class LiveWorkload(Workload):
    """Agents run in this process on loopback, with did:web identities."""

    setup_repeats = 3
    ROLES: tuple[str, ...] = ()

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        os.environ[PASSPHRASE_ENV] = PASSPHRASE
        self.agents: dict = {}

    def start_agents(self, attempt: int) -> None:
        from datacred.agent import Agent, AgentConfig

        directory = self.work / f"agents{attempt}"
        for role in self.ROLES:
            config = AgentConfig(
                role=role,
                wallet_path=str(directory / f"{role}.wallet"),
                did_method="web",
                allow_insecure_http=True,
            )
            self.agents[role] = Agent(config).start()

    def discard(self) -> None:
        for agent in self.agents.values():
            agent.stop()
        self.agents = {}


class ProofLive(LiveWorkload):
    """The user agent's request_proof to a dataset agent with a credential history."""

    name = "proof_live"
    rate = 95.0
    reference_every = 2
    ROLES = ("publisher", "dataset", "user")
    HISTORY = 40
    REVOKED_HISTORY = 10  # older history credentials the publisher has revoked
    FILLER_REVOKED = 90

    def prepare(self) -> None:
        from datacred.proofs import format_timestamp

        rng = self.rng
        first = datetime(2024, 1, 1, 12, tzinfo=timezone.utc)
        # Distinct, increasing issuance dates: the newest credential is the answer.
        self.history = [
            (seeded_claims(rng), format_timestamp(first + timedelta(days=n)), seeded_uuid(rng))
            for n in range(self.HISTORY)
        ]
        older = [status for _, _, status in self.history[:-1]]
        self.revoked = rng.sample(older, self.REVOKED_HISTORY) + [
            seeded_uuid(rng) for _ in range(self.FILLER_REVOKED)
        ]
        rng.shuffle(self.revoked)

    def setup(self, attempt: int) -> None:
        from datacred.agent.service import CREDENTIAL_LABEL_PREFIX
        from datacred.credential import DATASET_PROVENANCE_V1, CredentialStatus, issue_credential

        self.start_agents(attempt)
        publisher, dataset, user = (self.agents[r] for r in self.ROLES)
        registry_url = f"{publisher.base_url}/registry"
        for claims, issued_at, status_id in self.history:
            credential = issue_credential(
                publisher.key, publisher.did, dataset.did, DATASET_PROVENANCE_V1, claims,
                issuance_date=issued_at, status=CredentialStatus(registry_url, status_id),
            )
            dataset.wallet.put(CREDENTIAL_LABEL_PREFIX + credential.id, credential.to_json())
        dataset.wallet.save()
        self.expected_id = credential.id  # the newest credential is the one presented
        for status_id in self.revoked:
            publisher.revoke_status(status_id)
        user.connect(**dataset.invitation())

    def op(self, i: int):
        return self.agents["user"].request_proof(self.agents["dataset"].did.text, ATTRIBUTES)

    def check(self, i: int, out) -> bool:
        dataset = self.agents["dataset"].did.text
        publisher = self.agents["publisher"].did.text
        expect(out.valid, f"proof {i}: {out.overall.value} {out.reasons()}")
        expect(out.holder == dataset, f"proof {i}: holder {out.holder}")
        expect(out.checks["responder"].reason == "ResponderIsTarget", "responder")
        expect(len(out.credential_reports) == 1, "one presented credential")
        presented = out.credential_reports[0]
        expect(presented.credential_id == self.expected_id,
               f"proof {i}: presented {presented.credential_id}, want {self.expected_id}")
        expect(presented.issuer == publisher, "issuer")
        return True


class IssueLive(LiveWorkload):
    """The publisher's issue_over_connection; every fifth op revokes and re-verifies."""

    name = "issue_live"
    rate = 13.0
    ROLES = ("publisher", "dataset")
    REVOKE_EVERY = 5
    round_size = REVOKE_EVERY

    def prepare(self) -> None:
        from datacred.credential import HttpRegistrySource
        from datacred.resolver import KeyBackend, Resolver, WebBackend

        self.verifier = Resolver(backends=[KeyBackend(), WebBackend(allow_insecure_loopback=True)])
        self.registry_source = HttpRegistrySource(allow_insecure_loopback=True)

    def setup(self, attempt: int) -> None:
        self.start_agents(attempt)
        publisher, dataset = self.agents["publisher"], self.agents["dataset"]
        self.connection_id = publisher.connect(**dataset.invitation()).connection_id
        self.issued: dict[int, object] = {}

    def claims(self, i: int) -> dict:
        digest = hashlib.sha256(f"{self.seed}:{i}".encode()).hexdigest()
        return {"Hash of Data": digest, "Data Ethically Sourced": "YES" if i % 3 else "NO"}

    def op(self, i: int):
        from datacred.credential import verify_credential

        publisher = self.agents["publisher"]
        credential = publisher.issue_over_connection(self.connection_id, self.claims(i))
        self.issued[i] = credential
        if i % self.REVOKE_EVERY != self.REVOKE_EVERY - 1:
            return credential, None
        earlier = self.issued[i - self.REVOKE_EVERY + 1]
        publisher.revoke_status(earlier.status.status_id)
        report = verify_credential(earlier, self.verifier, registry_source=self.registry_source)
        return credential, report

    def check(self, i: int, out) -> bool:
        credential, report = out
        publisher = self.agents["publisher"].did.text
        expect(credential.issuer == publisher, "issuer")
        expect(credential.subject_id == self.agents["dataset"].did.text, "subject")
        expect(credential.claims == self.claims(i), f"issue {i}: claims")
        if report is not None:
            checks = {k: (c.status.value, c.reason) for k, c in report.checks.items()}
            expect(checks["revocation"] == ("Invalid", "Revoked"),
                   f"issue {i}: revoked credential gave {checks}")
            expect(checks["signature"] == ("Valid", "SignatureValid"),
                   f"issue {i}: signature {checks}")
        return True

    def finish(self) -> None:
        from datacred.agent.service import CREDENTIAL_LABEL_PREFIX
        from datacred.wallet import Wallet

        dataset = self.agents["dataset"]
        held = {vc.id: vc.to_json() for vc in dataset.stored_credentials()}
        on_disk = Wallet.open(dataset.config.wallet_path, PASSPHRASE)
        for credential in self.issued.values():
            label = CREDENTIAL_LABEL_PREFIX + credential.id
            expect(held.get(credential.id) == credential.to_json(),
                   f"dataset wallet lacks {credential.id}")
            expect(label in on_disk and on_disk.get(label) == credential.to_json(),
                   f"saved dataset wallet lacks {credential.id}")


WORKLOADS = {w.name: w for w in (VerifyBundle, BindTree, ProofLive, IssueLive)}
