"""The traced benchmark patches names in datacred; fail here if one is gone."""

import importlib.util
import sys
from pathlib import Path

import datacred.canonical
import datacred.keys

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    sign, canonicalize = datacred.keys.sign, datacred.canonical.canonicalize
    tracer = tracing.Tracer()
    try:
        tracer.install(None)
        assert datacred.keys.sign is not sign
    finally:
        tracer.uninstall()
    assert datacred.keys.sign is sign
    assert datacred.canonical.canonicalize is canonicalize
