"""Reachability probe: every public function of ``hyperchrom`` has a CLI path
or a stated reason to stay.

Under ``sys.setprofile`` this runs, in one process:
- every op of the three benchmark workloads at seed 1, built by
  ``bench_e2e/corpus.py`` (only read, its instance files written to a
  temporary directory);
- on each corpus instance with at most ``EXTRA_MAX_EDGES`` edges, at t = 1
  and 2: ``order`` (plain and with both partitions), ``verify``,
  ``classify`` and ``color --mode extremal`` with tn lists;
- ``gen`` for each family, and ``sweep --count 200``.

It lists every public module-level function and public method of
``src/hyperchrom`` that no call entered, with its reason from ``KEEP``, and
exits 1 if one of them has none, if ``KEEP`` names a function that no
longer exists, or if a call raised.  Pytest does not collect this file.
Run from anywhere:

    python tests/_reach.py
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ next to the sources

import contextlib
import importlib
import inspect
import io
import pkgutil
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench_e2e")]

import corpus  # bench_e2e/corpus.py
import hyperchrom
from hyperchrom import cli

SEED = 1
EXTRA_MAX_EDGES = 150

_ITEM_1 = "wrapped by name in bench_e2e/tracing.py; goes with ROADMAP item 1"
_FAMILY = "part of the useful-family search that tracing wraps; goes with ROADMAP item 1"
KEEP = {
    "extremal.find_useful_family": _ITEM_1,
    "extremal.is_t_useful": _ITEM_1,
    "extremal.UsefulFamily.pair_count": _FAMILY,
    "extremal.UsefulFamily.designated_pairs": _FAMILY,
    "pipeline.colour_stability": _ITEM_1,
    "pipeline.colour_sparse_block": _ITEM_1,
    "hypercore.line_graph": _ITEM_1,
    "hypercore.neighbourhoods": _ITEM_1,
    "characterize.debruijn_erdos_check": _ITEM_1,
    "oracle.enumerate_hypergraphs": "isomorph-free enumeration, ROADMAP item 10",
    "oracle.kernel_name": "the benchmark's environment stamp, read after its ops",
    "hypercore.subhypergraph": (
        "called only by colour_sparse_block, which tracing wraps; goes with item 1"
    ),
    "pipeline.PipelineRun.ok": "bench_e2e/tracing.py reads it to count failed colour_main calls",
}


def public_functions() -> dict[str, object]:
    """Dotted name -> code object of each public function and method
    defined in a module of the package (dunders and ``_`` names excluded)."""
    out = {}
    for info in pkgutil.iter_modules(hyperchrom.__path__):
        module = importlib.import_module(f"hyperchrom.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out[f"{info.name}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    # a property's getter, a cached_property's or a
                    # static/class method's function
                    fn = getattr(member, "fget", None) or getattr(member, "func", None)
                    fn = fn or getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        out[f"{info.name}.{name}.{attr}"] = fn.__code__
    return out


def run(argv: list[str], failures: list[str]) -> None:
    """One in-process CLI call with its output discarded."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(argv)
    except Exception:  # recorded, and the probe goes on
        failures.append(f"{' '.join(argv)}\n{traceback.format_exc()}")


def probe(directory: str, failures: list[str]) -> None:
    for workload in corpus.WORKLOADS:
        built = corpus.build(workload, SEED)
        built.write(str(Path(directory) / workload))
        for op in built.ops:
            run(op.argv(built.paths[op.instance]), failures)
        for name, h in built.instances.items():
            if h.m > EXTRA_MAX_EDGES:
                continue
            path = built.paths[name]
            for t in ("1", "2"):
                tn = str(int(t) * h.n)
                run(["order", "--in", path, "--t", t], failures)
                for partition in ("stability", "extremal"):
                    run(["order", "--in", path, "--t", t, "--partition", partition], failures)
                run(["verify", "--in", path, "--t", t], failures)
                run(["classify", "--in", path, "--t", t], failures)
                run(["color", "--in", path, "--t", t, "--lists", f"uniform:{tn}",
                     "--mode", "extremal"], failures)
    run(["gen", "--family", "plane", "--q", "3", "--fold", "2"], failures)
    run(["gen", "--family", "pencil", "--n", "5"], failures)
    run(["gen", "--family", "random", "--n", "20", "--t", "2", "--seed", "3"], failures)
    run(["sweep", "--count", "200"], failures)


def main() -> int:
    functions = public_functions()
    entered: set = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as directory:
        sys.setprofile(profile)
        try:
            probe(directory, failures)
        finally:
            sys.setprofile(None)

    status = 0
    for line in failures:
        print(f"raised: {line}")
        status = 1
    for name in sorted(set(KEEP) - set(functions)):
        print(f"stale keep entry, no such function: {name}")
        status = 1
    for name, code in sorted(functions.items()):
        if code in entered:
            if name in KEEP:
                print(f"entered, so its keep entry can go: {name}")
            continue
        if name in KEEP:
            print(f"never entered, kept: {name} ({KEEP[name]})")
        else:
            print(f"never entered, no reason to keep: {name}")
            status = 1
    print(f"{len(functions)} public functions, "
          f"{sum(code in entered for code in functions.values())} entered")
    return status


if __name__ == "__main__":
    sys.exit(main())
