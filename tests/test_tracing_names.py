"""The benchmark tracer wraps package functions by name; each must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench_e2e" / "tracing.py"


def _load_tracing(monkeypatch):
    # loaded by path, as the benchmark does not make bench_e2e a package;
    # no bytecode cache is written next to the benchmark's sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_a_package_callable(monkeypatch):
    layers = _load_tracing(monkeypatch).LAYERS
    missing = [
        f"{mod}.{fn}"
        for mod, fns in layers.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"hyperchrom.{mod}"), fn, None))
    ]
    assert layers and missing == []
