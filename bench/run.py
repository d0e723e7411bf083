"""Benchmark of datacred: offline verification, tree binding, live proof
exchange and live issuance.

Run from the root of a source checkout:

    python3 bench/run.py --workload proof_live --seed 1 --seconds 20 --trace 0

Every run does a fixed number of operations (the workload's reference rate
times --seconds, in whole rounds), so a faster program finishes sooner instead
of doing more work: the wallets, agent state and registries grow with each
operation, and a time-boxed run would measure a different state.

Times are scaled to a nominal CPU speed. The process is pinned to one CPU and
times a fixed piece of reference work between operations; each operation's
time is multiplied by REFERENCE_NOMINAL_S over the reference work's median
time around it. On
the shared 2-vCPU machine this benchmark was built on, the speed of a vCPU
swings by up to 1.7x for seconds at a time, which moved unscaled run figures
by 15-20%; see README.md. The unscaled figures are printed in the run record.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORK_ROOT = REPO / ".bench_work"
TRACE_ROOT = REPO / ".bench_traces"
IMPORT_SAMPLES = 3
# Import what the CLI and the agents need, as a fresh `datacred` process does.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import datacred, datacred.cli, datacred.agent.service; "
    "print(time.perf_counter() - t)"
)
REFERENCE_NOMINAL_S = 0.001  # one speed sample's time at the nominal speed
REFERENCE_WINDOW = 4  # speed samples on each side of an operation
# A fixed piece of work of the kinds the program does (JSON with sorted keys,
# an Ed25519 verify, small file reads with SHA-256, a small scrypt), made only
# of the standard library and `cryptography`, so that it stays the same
# whatever the program under test becomes.
REFERENCE_DOCUMENT = {f"field{i}": {"text": "x" * 40, "list": [1, 2, 3], "n": i} for i in range(30)}
REFERENCE_SIGNER = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
REFERENCE_MESSAGE = b"reference message " * 28
REFERENCE_SIGNATURE = REFERENCE_SIGNER.sign(REFERENCE_MESSAGE)
REFERENCE_KEY = REFERENCE_SIGNER.public_key()
REFERENCE_FILE = Path(__file__).resolve()  # read 8 KiB at a time: a fixed amount


def reference_sample() -> float:
    """Time the fixed reference work: a sample of this CPU's current speed."""
    start = time.perf_counter()
    for _ in range(2):
        json.loads(json.dumps(REFERENCE_DOCUMENT, sort_keys=True))
    REFERENCE_KEY.verify(REFERENCE_SIGNATURE, REFERENCE_MESSAGE)
    for _ in range(4):
        with REFERENCE_FILE.open("rb") as handle:
            hashlib.sha256(handle.read(8192)).digest()
        REFERENCE_FILE.stat()
    hashlib.scrypt(b"reference", salt=b"salt", n=128, r=8, p=1, dklen=32)
    return time.perf_counter() - start


def timed(fn):
    """Run fn; return its result, its seconds and its seconds at the nominal speed."""
    before = [reference_sample() for _ in range(REFERENCE_WINDOW + 1)]
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    after = [reference_sample() for _ in range(REFERENCE_WINDOW + 1)]
    return result, elapsed, elapsed * REFERENCE_NOMINAL_S / statistics.median(before + after)


def import_seconds() -> tuple[list[float], list[float]]:
    """Seconds to import datacred in fresh interpreters: measured and scaled."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    measured, scaled = [], []
    for _ in range(IMPORT_SAMPLES):
        done, elapsed, nominal = timed(lambda: subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=REPO,
            capture_output=True, text=True, timeout=60, check=True,
        ))
        seconds = float(done.stdout.strip())  # the child's own import time
        measured.append(seconds)
        scaled.append(seconds * nominal / elapsed)
    return measured, scaled


def plan(cls, seconds: int) -> tuple[int, int]:
    """Operations to time and to warm up with, both in whole rounds."""
    rounds = max(1, round(seconds * cls.rate / cls.round_size))
    return rounds * cls.round_size, max(1, rounds // 20) * cls.round_size


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    import workloads
    from tracing import Tracer, metric_units

    cls = workloads.WORKLOADS[workload_name]
    attempted, warmup = plan(cls, seconds)
    every = cls.reference_every

    # Pin the process, and so the agents' threads and the import probes it
    # starts, to one CPU: the speed samples then time the CPU the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    imports, imports_scaled = import_seconds()
    sys.path.insert(0, str(SRC))
    import datacred.agent.service  # noqa: F401  (the modules the tracer patches)
    import datacred.cli  # noqa: F401

    work = WORK_ROOT / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = cls(work, seed)
    tracer = Tracer()
    try:
        workload.prepare()
        if trace:
            tracer.install(workload)

        setups, setups_scaled = [], []
        for attempt in range(cls.setup_repeats):
            if attempt:
                workload.discard()
            _, elapsed, nominal = timed(lambda: workload.setup(attempt))
            setups.append(elapsed)
            setups_scaled.append(nominal)

        for i in range(warmup):
            workload.check(i, workload.op(i))

        outputs, latencies, speed = [], [], []
        gc.collect()
        tracer.enabled = trace
        for n, i in enumerate(range(warmup, warmup + attempted)):
            if n % every == 0:
                speed.append(reference_sample())
            tracer.op = i
            begin = time.perf_counter()
            outputs.append(workload.op(i))
            latencies.append(time.perf_counter() - begin)
        tracer.enabled = False
        speed.append(reference_sample())

        failed = sum(
            not workload.check(i, out) for i, out in enumerate(outputs, start=warmup)
        )
        workload.finish()
    finally:
        workload.close()
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    # Each operation's scale: nominal over the median speed sample around it.
    window = REFERENCE_WINDOW
    scale = [
        REFERENCE_NOMINAL_S / statistics.median(speed[max(0, k - window):k + window + 1])
        for k in (n // every for n in range(attempted))
    ]
    scaled_ms = [x * s * 1e3 for x, s in zip(latencies, scale)]
    latencies_ms = [x * 1e3 for x in latencies]
    p90 = statistics.quantiles(scaled_ms, n=10)[8] if attempted > 1 else scaled_ms[0]
    record = [
        f"workload={workload_name} seed={seed} trace={int(trace)} attempted={attempted} "
        f"failed={failed} warmup={warmup}",
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"cryptography={metadata.version('cryptography')} "
        f"requests={metadata.version('requests')}",
        "network: agent traffic crosses loopback (127.0.0.1) only; no other host is contacted",
        f"reference: latency_p90_ms={p90:.4f} with "
        f"{sum(x > p90 for x in scaled_ms)} of {attempted} samples beyond it",
        f"unscaled: throughput_ops_s={attempted / sum(latencies):.4f} "
        f"latency_p50_ms={statistics.median(latencies_ms):.4f} "
        f"setup_s={statistics.median(imports) + statistics.median(setups):.4f} "
        f"cpu_speed={REFERENCE_NOMINAL_S / statistics.median(speed):.4f} of nominal",
    ]

    if trace:
        units = metric_units()
        values = tracer.metrics(attempted, sum(scaled_ms) / 1e3, scale, warmup)
        trace_file = TRACE_ROOT / f"{workload_name}-{seed}.jsonl.gz"
        tracer.write(trace_file)
        record.append(f"trace: {len(tracer.spans)} spans written to "
                      f"{trace_file.relative_to(REPO)}")
    else:
        units = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms", "setup_s": "s",
                 "peak_rss_mib": "MiB"}
        values = {
            "throughput_ops_s": attempted / (sum(scaled_ms) / 1e3),
            "latency_p50_ms": statistics.median(scaled_ms),
            "setup_s": statistics.median(imports_scaled) + statistics.median(setups_scaled),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "datacred" / "__init__.py").is_file():
        print(f"bench: no datacred sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.Mismatch as exc:
        traceback.print_exc()
        print(f"# incorrect output: {exc}")
        attempted, _ = plan(workloads.WORKLOADS[args.workload], args.seconds)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": 0, "metrics": {}}))
        return 1
    for line in record:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
