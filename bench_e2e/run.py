"""End-to-end benchmark of the hyperchrom CLI.

Runs one workload (see ``corpus.py``) through the real front end: one
in-process ``hyperchrom.cli.main([...])`` call per op, stdout captured and
the JSON report checked independently (``checks.py``).  Everything runs in
this one process and thread, one op after another.  Run from the root of a
checkout:

    python3 bench_e2e/run.py --workload random --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first runs half
the time untraced, then installs the span tracer (``tracing.py``) and runs the
other half, and prints per-layer metrics, the ratios read from the public
reports, and the tracing overhead.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the full result (the
environment stamp, per-op outcome fingerprints, cap margins, kernel
agreement, and with tracing the spans) goes to ``--out``.  Compare two
result files with ``bench_e2e/compare.py``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # a checkout run leaves no __pycache__ behind

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
from pathlib import Path
from time import perf_counter

from checks import STAGES, check
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q a multiple of 10) of at least two values."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def environment(kernel: str) -> dict:
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "kernel": kernel,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "HYPERCHROM_PURE": os.environ.get("HYPERCHROM_PURE"),
        "HYPERCHROM_TIME_CAP_MS": os.environ.get("HYPERCHROM_TIME_CAP_MS"),
    }


def set_up(workload: str, seed: int, directory: Path):
    """Import the package afresh, build and write the corpus, run one op.

    Dropping the package from ``sys.modules`` first makes every repeat pay
    the import, so set-up time is a median like the other timings.
    """
    for name in list(sys.modules):
        if name in ("hyperchrom", "corpus") or name.startswith("hyperchrom."):
            del sys.modules[name]
    from hyperchrom import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"hyperchrom found at {cli.__file__}")
    import corpus as corpus_mod  # imports hyperchrom

    corpus = corpus_mod.build(workload, seed)
    corpus.write(str(directory))
    run_op(cli, corpus, corpus.ops[0])  # warm-up
    return cli, corpus_mod, corpus


def run_op(cli, corpus, op, tracer=None, op_id: str = "") -> tuple[int | None, str, float]:
    """One CLI call: (exit code or None if it raised, stdout, wall ms)."""
    if tracer is not None:
        tracer.op_id = op_id
    out, err = io.StringIO(), io.StringIO()
    argv = op.argv(corpus.paths[op.instance])
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # an escaped exception is a failed op, not a crash
        print(f"op {op.index} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        code = None
    return code, out.getvalue(), (perf_counter() - start) * 1000


class Run:
    """Measured passes over one corpus and the checked outcome of every op."""

    def __init__(self, corpus):
        self.corpus = corpus
        self.pass_s: list[float] = []
        self.op_ms: list[float] = []
        self.attempted = 0
        self.solved = 0
        self.errors: list[str] = []
        self.fingerprints: list[dict] | None = None
        self.unstable_ops: set[int] = set()
        self.exact_ops: list[tuple] = []  # (op, wall ms, solved, refused)
        self.outcomes = []

    def passes(self, cli, seconds: float, tracer=None) -> None:
        """Whole passes over the corpus for about ``seconds``.

        A pass starts only if a pass of the median length so far would end
        inside the window, so a run ends within it instead of overrunning it
        by up to one pass.
        """
        corpus = self.corpus
        deadline = perf_counter() + seconds
        while True:
            k = len(self.pass_s)
            start = perf_counter()
            raw = [run_op(cli, corpus, op, tracer, f"p{k}:{op.index}") for op in corpus.ops]
            self.pass_s.append(perf_counter() - start)
            prints = []
            for op, (code, stdout, ms) in zip(corpus.ops, raw):
                got = check(op, code, stdout, corpus.digests[op.instance], corpus.instances[op.instance])
                self.attempted += 1
                self.op_ms.append(ms)
                self.solved += got.solved
                if got.error:
                    self.errors.append(f"pass {k} op {op.index} ({op.label()}): {got.error}")
                if op.subcommand == "exact":
                    self.exact_ops.append((op, ms, got.solved, got.refused))
                self.outcomes.append(got)
                prints.append(got.fingerprint)
            if self.fingerprints is None:
                self.fingerprints = prints
            else:
                self.unstable_ops.update(
                    a["op"] for a, b in zip(self.fingerprints, prints) if a != b
                )
            if perf_counter() + statistics.median(self.pass_s) > deadline:
                break

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        return {
            "pass_s": statistics.median(self.pass_s),
            "op_ms_p50": statistics.median(self.op_ms),
            "op_ms_p90": _quantile(self.op_ms, 90),
            "solved_frac": self.solved / self.attempted,
            "ok_frac": 1 - len(self.errors) / self.attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def ratios(self) -> dict[str, float]:
        """Rung and stage tallies per pass, read from the public reports."""
        passes = len(self.pass_s)
        out: dict[str, float] = {}
        rungs = [o.pipeline_rung for o in self.outcomes if o.pipeline_rung]
        out["pipeline.colour_stability.ok_frac"] = (
            rungs.count("stability") / len(rungs) if rungs else 0.0
        )
        for rung in ("stability", "main", "exact", "none"):
            out[f"pipeline.rung.{rung}"] = rungs.count(rung) / passes
        failed = [s for o in self.outcomes for s in o.stages_failed]
        for stage in STAGES:
            out[f"pipeline.stage_failed.{stage.replace(':', '.')}"] = failed.count(stage) / passes
        ext = [r for o in self.outcomes for r in o.extremal_rungs]
        for rung in ("1", "2", "3", "4", "5", "none"):
            out[f"extremal.rung.{rung}"] = ext.count(rung) / passes
        out["oracle.refused"] = (
            sum(refused for *_, refused in self.exact_ops) / len(self.exact_ops)
            if self.exact_ops
            else 0.0
        )
        retries = [r for o in self.outcomes for r in o.reserve_retries]
        out["pipeline.reserve_colours.retries"] = (
            sum(retries) / len(retries) if retries else 0.0
        )
        return out

    def cap_margin(self, cap_ms: int) -> dict:
        """Slowest solved oracle op as a share of its cap, and any op whose
        time no longer separates 'solved' from 'refused' cleanly."""
        solved = [ms for _, ms, ok, _ in self.exact_ops if ok]
        refused = [ms for _, ms, _, ref in self.exact_ops if ref]
        slowest = max(solved, default=0.0) / cap_ms
        flags = []
        if slowest > 0.25:
            flags.append(f"a solved op used {slowest:.0%} of its cap")
        if refused and min(refused) < cap_ms:
            flags.append(f"a refused op stopped at {min(refused):.0f} ms, short of the cap")
        return {"slowest_solved_cap_frac": slowest, "flags": flags}


def kernel_agreement(run, kernel: str, cap_ms: int) -> dict:
    """Each chromatic index the compiled kernel reported, re-solved by the
    pure twin on the same line graph; a disagreement is a failed op."""
    if kernel != "cython":
        try:
            from hyperchrom import _kernel  # noqa: F401
        except ImportError:
            return {"status": "skipped: extension not built"}
        return {"status": f"skipped: {kernel} kernel selected"}
    from hyperchrom import _kernel_py
    from hyperchrom.hypercore import line_graph

    rows = []
    for op, fp in zip(run.corpus.ops, run.fingerprints):
        if op.expect.kind != "chi" or fp["exit"] != 0:
            continue
        adj = list(line_graph(run.corpus.instances[op.instance]).adj)
        chi, _, completed = _kernel_py.solve_chromatic(adj, 20 * cap_ms)
        rows.append({"op": op.index, "compiled": fp["colours_used"],
                     "pure": chi if completed else None})
        if completed and chi != fp["colours_used"]:
            run.errors.append(f"op {op.index} ({op.label()}): compiled kernel "
                              f"chi'={fp['colours_used']}, pure kernel {chi}")
    return {"status": "checked", "rows": rows}




def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default .bench_work/results/...)")
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".bench_work"
    scratch = work / f"corpus-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            try:
                cli, corpus_mod, corpus = set_up(args.workload, args.seed, scratch)
            except ImportError as exc:
                print(f"error: cannot import hyperchrom from {ROOT / 'src'}: {exc}", file=sys.stderr)
                return 2
            setups.append(perf_counter() - start)
        setup_s = statistics.median(setups)

        tracer = None
        if args.trace:
            untraced = Run(corpus)
            untraced.passes(cli, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                tracer.op_id = "setup"
                corpus = corpus_mod.build(args.workload, args.seed)
                corpus.write(str(scratch))
                run_op(cli, corpus, corpus.ops[0], tracer, "setup")
                run = Run(corpus)
                run.passes(cli, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            runs = [untraced, run]
        else:
            run = Run(corpus)
            run.passes(cli, args.seconds)
            runs = [run]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    from hyperchrom.oracle import kernel_name

    env = environment(kernel_name())
    cap = corpus_mod.TIME_CAP_MS
    agreement = kernel_agreement(run, env["kernel"], cap) if run.exact_ops else None
    attempted = sum(r.attempted for r in runs)
    errors = [e for r in runs for e in r.errors]
    e2e = runs[0].end_to_end(setup_s)  # untraced
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if args.trace:
        layer = tracer.metrics(len(run.pass_s))
        layer.update(run.ratios())
        traced_pass = statistics.median(run.pass_s)
        untraced_pass = statistics.median(untraced.pass_s)
        layer["trace.pass_s_traced"] = traced_pass
        layer["trace.pass_s_untraced"] = untraced_pass
        layer["trace.overhead_s"] = traced_pass - untraced_pass
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        shown = {name: layer[name] for name in declared}
    else:
        layer = {}
        declared = e2e_units
        shown = {name: e2e[name] for name in declared}

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "passes": len(run.pass_s),
        "pass_wall_s": run.pass_s,
        "attempted": attempted,
        "solved": sum(r.solved for r in runs),
        "error_frac": len(errors) / attempted,
        "errors": errors[:20],
        "end_to_end": e2e,
        "setup_runs_s": setups,
        "per_layer": layer,
        "fingerprints": run.fingerprints,
        "unstable_ops": sorted(run.unstable_ops),
        "cap_margin": run.cap_margin(cap) if run.exact_ops else None,
        "kernel_agreement": agreement,
    }
    out = Path(args.out) if args.out else (
        work / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True))
    if tracer is not None:
        spans = out.with_suffix(".spans.json")
        spans.write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start", "end", "op"], "spans": tracer.spans},
            separators=(",", ":"),
        ))

    print(f"# workload={args.workload} seed={args.seed} passes={len(run.pass_s)} "
          f"ops={attempted} kernel={env['kernel']} commit={env['git_commit'][:12]} "
          f"python={env['python']} nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"HYPERCHROM_PURE={env['HYPERCHROM_PURE']} "
          f"HYPERCHROM_TIME_CAP_MS={env['HYPERCHROM_TIME_CAP_MS']}")
    if not args.trace:
        for name, value in e2e.items():
            print(f"{name} {value:.6g} {e2e_units[name]}")
    print(f"error_frac {result['error_frac']:.6g} frac  (samples: {attempted} ops)")
    if result["cap_margin"]:
        cm = result["cap_margin"]
        print(f"cap_margin slowest_solved={cm['slowest_solved_cap_frac']:.3f} "
              f"flags={cm['flags'] or 'none'}")
        print(f"kernel_agreement {result['kernel_agreement']['status']}")
    if run.unstable_ops:
        print(f"unstable ops across passes: {sorted(run.unstable_ops)}")
    for line in errors[:5]:
        print(f"ERROR {line}")
    if args.trace:
        for name, value in layer.items():
            unit = declared.get(name, "s" if name.endswith("_s") else "count")
            print(f"{name} {value:.6g} {unit}")
    print(f"# result file: {out}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
