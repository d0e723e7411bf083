"""Per-layer tracing for the traced benchmark run.

The tracer replaces public functions of ``datacred`` (and ``requests``'
``Session.request``) with wrappers that record a span around each call. A
function imported by name into several modules is replaced under every name
its callers use, so ``datacred.presentation.verify_credential`` and
``datacred.agent.service.verify_credential`` both land in the
``credential.verify_credential`` span. Nothing in ``src/`` is changed: the
wrappers are installed from here, after ``datacred`` is imported.

Spans are kept in memory while the timed phase runs, then aggregated into
per-operation figures and written out, gzipped, one JSON line per span.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

# Span names, in report order. The layer is the name's prefix.
TIMED = (
    "canonical.canonicalize",
    "keys.sign",
    "keys.verify_signature",
    "resolver.Resolver.resolve",
    "credential.verify_credential",
    "credential.issue_credential",
    "credential.revoke",
    "credential.registry_fetch",
    "presentation.verify_presentation",
    "presentation.create_presentation",
    "fingerprint.build_manifest",
    "fingerprint.check_binding",
    "wallet.Wallet.save",
    "wallet.Wallet.open",
    "agent.state.AgentState.save",
    "agent.envelopes.build_envelope",
    "agent.envelopes.verify_envelope",
    "agent.service.Agent.handle_envelope",
    "agent.service.Agent.stored_credentials",
    "agent.service.Agent.request_proof",
    "agent.service.Agent.issue_over_connection",
    "agent.service.Agent.revoke_status",
    "cli.main",
    "net.Session.request",
)

# Counter-derived metrics and their units.
COUNTERS = {
    "resolver.network_fetches_per_op": "count",
    "resolver.cache_hit_ratio": "ratio",
    "credential.registry_fetches_per_op": "count",
    "fingerprint.files_per_op": "count",
    "fingerprint.mib_per_s": "MiB/s",
    "wallet.file_kib": "KiB",
    "agent.state.file_kib": "KiB",
    "net.connections_per_op": "count",
    "net.transport_ms_per_op": "ms",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {"trace.throughput_ops_s": "1/s"}
    for name in TIMED:
        units[f"{name}.calls_per_op"] = "count"
        units[f"{name}.ms_per_op"] = "ms"
        units[f"{name}.self_ms_per_op"] = "ms"
    units.update(COUNTERS)
    return units


class Tracer:
    """Records spans and counts while enabled; a pass-through otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self.op = -1  # index of the operation in flight; shared by its spans
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, after=None):
        """A span around fn; after(args, result) runs, untimed, once it returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            children = [0]
            stack.append(children)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                tracer.spans.append(
                    (name, threading.get_ident(), tracer.op, start, end, children[0])
                )
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, fn, after):
        """Run after(args, result) on each call while enabled; no span."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled:
                after(args, result)
            return result

        return counted

    # --- installation ---

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, original, name, after=None) -> None:
        """Replace original under every datacred module name bound to it."""
        traced = self.wrap(name, original, after)
        for module_name, module in list(sys.modules.items()):
            if module_name != "datacred" and not module_name.startswith("datacred."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, traced)

    def patch_method(self, cls, attr, name=None, after=None, span=True) -> None:
        raw = cls.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if span:
            wrapped = self.wrap(name, fn, after)
        else:
            wrapped = self.count(fn, after)
        self._set(cls, attr, classmethod(wrapped) if is_classmethod else wrapped)

    def install(self, workload) -> None:
        """Wrap every timed function and counter hook named in TIMED and COUNTERS."""
        import requests
        import urllib3.connection

        from datacred import canonical, cli, credential, fingerprint, keys, presentation
        from datacred import resolver, wallet
        from datacred.agent import envelopes, service, state

        counts = self.counts

        def manifest_done(args, result):
            counts["fingerprint.files"] += len(result)
            counts["fingerprint.bytes"] += workload.tree_bytes(args[0])

        def saved(key):
            def after(args, _result):
                counts[key + ".saves"] += 1
                counts[key + ".bytes"] += os.path.getsize(args[0].path)
            return after

        def backend_fetched(args, _result):
            counts["resolver.backend_fetches"] += 1
            if getattr(args[0], "network", False):
                counts["resolver.network_fetches"] += 1

        def registry_fetched_over_network(_args, _result):
            counts["credential.registry_network_fetches"] += 1

        def connected(_args, _result):
            counts["net.connections"] += 1

        self.patch_function(canonical.canonicalize, "canonical.canonicalize")
        self.patch_function(keys.sign, "keys.sign")
        self.patch_function(keys.verify_signature, "keys.verify_signature")
        self.patch_method(resolver.Resolver, "resolve", "resolver.Resolver.resolve")
        for backend in (resolver.KeyBackend, resolver.WebBackend, resolver.StaticBackend,
                        resolver.DirectoryBackend):
            self.patch_method(backend, "fetch", after=backend_fetched, span=False)
        self.patch_function(credential.verify_credential, "credential.verify_credential")
        self.patch_function(credential.issue_credential, "credential.issue_credential")
        self.patch_function(credential.revoke, "credential.revoke")
        self.patch_method(credential.HttpRegistrySource, "fetch", "credential.registry_fetch",
                          after=registry_fetched_over_network)
        for source in (credential.FileRegistrySource, credential.StaticRegistrySource):
            self.patch_method(source, "fetch", "credential.registry_fetch")
        self.patch_function(presentation.verify_presentation,
                            "presentation.verify_presentation")
        self.patch_function(presentation.create_presentation,
                            "presentation.create_presentation")
        self.patch_function(fingerprint.build_manifest, "fingerprint.build_manifest",
                            after=manifest_done)
        self.patch_function(fingerprint.check_binding, "fingerprint.check_binding")
        self.patch_method(wallet.Wallet, "save", "wallet.Wallet.save", after=saved("wallet"))
        self.patch_method(wallet.Wallet, "open", "wallet.Wallet.open")
        self.patch_method(state.AgentState, "save", "agent.state.AgentState.save",
                          after=saved("agent.state"))
        self.patch_function(envelopes.build_envelope, "agent.envelopes.build_envelope")
        self.patch_function(envelopes.verify_envelope, "agent.envelopes.verify_envelope")
        for method in ("handle_envelope", "stored_credentials", "request_proof",
                       "issue_over_connection", "revoke_status"):
            self.patch_method(service.Agent, method, f"agent.service.Agent.{method}")
        self._set(cli, "main", self.wrap("cli.main", cli.main))
        self.patch_method(requests.Session, "request", "net.Session.request")
        self.patch_method(urllib3.connection.HTTPConnection, "connect",
                          after=connected, span=False)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- results ---

    def metrics(self, ops: int, busy_s: float, scale: list[float], first_op: int) -> dict:
        """Per-operation figures for every per-layer metric; absent layers read 0.

        Span times are scaled to the nominal CPU speed by the scale of the
        operation they ran in, as the end-to-end times are.
        """
        calls: Counter = Counter()
        total_ns: defaultdict = defaultdict(float)
        self_ns: defaultdict = defaultdict(float)
        for name, _tid, op, start, end, children in self.spans:
            factor = scale[op - first_op]
            calls[name] += 1
            total_ns[name] += (end - start) * factor
            self_ns[name] += (end - start - children) * factor

        out = {"trace.throughput_ops_s": ops / busy_s}
        for name in TIMED:
            out[f"{name}.calls_per_op"] = calls[name] / ops
            out[f"{name}.ms_per_op"] = total_ns[name] / 1e6 / ops
            out[f"{name}.self_ms_per_op"] = self_ns[name] / 1e6 / ops

        c = self.counts
        resolves = calls["resolver.Resolver.resolve"]
        manifest_s = total_ns["fingerprint.build_manifest"] / 1e9
        out["resolver.network_fetches_per_op"] = c["resolver.network_fetches"] / ops
        out["resolver.cache_hit_ratio"] = (
            (resolves - c["resolver.backend_fetches"]) / resolves if resolves else 0.0
        )
        out["credential.registry_fetches_per_op"] = (
            c["credential.registry_network_fetches"] / ops
        )
        out["fingerprint.files_per_op"] = c["fingerprint.files"] / ops
        out["fingerprint.mib_per_s"] = (
            c["fingerprint.bytes"] / 2**20 / manifest_s if manifest_s else 0.0
        )
        for key in ("wallet", "agent.state"):
            saves = c[key + ".saves"]
            out[f"{key}.file_kib"] = c[key + ".bytes"] / 1024 / saves if saves else 0.0
        out["net.connections_per_op"] = c["net.connections"] / ops
        # Client time on the wire: every request's wall time minus the time
        # the peer agent spent inside handle_envelope answering it.
        out["net.transport_ms_per_op"] = (
            total_ns["net.Session.request"] - total_ns["agent.service.Agent.handle_envelope"]
        ) / 1e6 / ops
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, tid, op, start, end, children in self.spans:
                handle.write(json.dumps(
                    {"name": name, "thread": tid, "op": op, "start_ns": start,
                     "end_ns": end, "child_ns": children}
                ) + "\n")
