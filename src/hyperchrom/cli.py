"""Command line front end and flat-file formats.

Subcommands: gen, order, color, exact, classify, verify, sweep.  Every run
prints a versioned JSON report; exit codes are 0 for success/holds, 1 for
an analysed failure (for example "not colourable"), 2 for usage errors and
3 for internal errors.

The .hg format is plain text: a header line "n m", then m lines with the
vertex ids of one edge each.  '#' starts a comment; blank lines are
ignored.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__  # noqa: F401  (re-exported metadata)

# parsing and reporting need only these; each handler below imports the
# modules it runs when it starts, so a call loads only its subcommand's code
from .hypercore import ColouringFailure, Hypergraph, uniform_lists

__all__ = ["parse_hg", "format_hg", "main"]


def parse_hg(text: str) -> Hypergraph:
    """Parse the .hg format; errors carry 1-based line numbers."""
    rows: list[tuple[int, str]] = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line))
    if not rows:
        raise ValueError("line 1: missing 'n m' header")
    head_no, head = rows[0]
    parts = head.split()
    if len(parts) != 2:
        raise ValueError(f"line {head_no}: header must be 'n m', got {head!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"line {head_no}: header must hold two integers") from None
    if m < 0 or n < 0:
        raise ValueError(f"line {head_no}: n and m must be non-negative")
    body = rows[1:]
    if len(body) < m:
        raise ValueError(
            f"line {last_line + 1}: expected {m} edge lines, found {len(body)}"
        )
    if len(body) > m:
        extra_no = body[m][0]
        raise ValueError(f"line {extra_no}: more than the declared {m} edge lines")
    # each line is non-blank, so it holds at least one id; the constructor
    # range-checks each edge by its ends once sorted, and only a failure
    # (or a bad id later on) pays for finding the first vertex out of range
    edges = []
    for lineno, line in body:
        try:
            edges.append(tuple(map(int, line.split())))
        except ValueError:
            _raise_out_of_range(n, body, edges)
            raise ValueError(f"line {lineno}: vertex ids must be integers") from None
    try:
        return Hypergraph(n, edges)
    except ValueError:
        _raise_out_of_range(n, body, edges)
        raise


def _raise_out_of_range(
    n: int, body: list[tuple[int, str]], edges: list[tuple[int, ...]]
) -> None:
    """Raise for the first vertex outside 0..n-1, in file order, if any."""
    for (lineno, _line), verts in zip(body, edges):
        for v in verts:
            if not 0 <= v < n:
                raise ValueError(f"line {lineno}: vertex {v} outside 0..{n - 1}") from None


def format_hg(h: Hypergraph) -> str:
    lines = [f"{h.n} {h.m}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def _hook(x):
    """The values the C JSON encoder cannot take itself: exact rationals as
    strings, failures as their three fields, dataclasses as their type name
    and fields, sets as sorted lists, anything else as its ``str``."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, ColouringFailure):
        return {"stage": x.stage, "stuck_edge": x.stuck_edge, "detail": x.detail}
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        out = {"type": type(x).__name__}
        out.update((f.name, getattr(x, f.name)) for f in dataclasses.fields(x))
        return out
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    return str(x)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _emit(
    command: str,
    digest: str,
    parameters: dict,
    seed: int | None,
    outcome,
    colours_used: int | None,
    certificates,
    started: float,
) -> None:
    report = {
        "schema": 1,
        "command": command,
        "input_digest": digest,
        "parameters": parameters,
        "seed": seed,
        "outcome": outcome,
        "colours_used": colours_used,
        "certificates": certificates,
        "wall_time_ms": int((time.monotonic() - started) * 1000),
    }
    # one compact line: without ``indent`` json.dumps runs its C encoder,
    # which calls ``_hook`` only for the values it cannot encode itself
    print(json.dumps(report, sort_keys=True, separators=(",", ":"), default=_hook))


def _read_input(path: str) -> tuple[Hypergraph, str]:
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_hg(data.decode()), _digest(data)


def _parse_lists(spec: str, h: Hypergraph) -> dict[int, frozenset[int]]:
    if spec.startswith("uniform:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            k = -1
        if k < 0:
            raise ValueError(f"lists {spec!r}: K must be a non-negative integer")
        return uniform_lists(h, k)
    with open(spec, encoding="utf-8") as fh:
        lines = [line.split("#", 1)[0].strip() for line in fh]
    rows = [(lineno, line) for lineno, line in enumerate(lines, start=1) if line]
    if len(rows) != h.m:
        raise ValueError(f"lists file holds {len(rows)} lines, need one per edge ({h.m})")
    lists = {}
    for e, (lineno, row) in enumerate(rows):
        try:
            lists[e] = frozenset(map(int, row.split()))
        except ValueError:
            raise ValueError(f"lists file line {lineno}: colours must be integers") from None
    return lists


def _default_time_cap() -> int:
    raw = os.environ.get("HYPERCHROM_TIME_CAP_MS", "")
    if not raw:
        return 60_000
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"HYPERCHROM_TIME_CAP_MS {exc}") from None


def _cmd_gen(args) -> int:
    from .generators import (
        GeneratorParams,
        near_pencil,
        projective_plane,
        random_bounded_codegree,
        t_fold,
    )

    started = time.monotonic()
    if args.family == "plane":
        if args.q is None:
            raise ValueError("--family plane needs --q")
        h = projective_plane(args.q)
    elif args.family == "pencil":
        if args.n is None:
            raise ValueError("--family pencil needs --n")
        h = near_pencil(args.n)
    else:
        if args.n is None:
            raise ValueError("--family random needs --n")
        h = random_bounded_codegree(
            GeneratorParams(
                seed=args.seed,
                n=args.n,
                t=args.t,
                size_range=(args.min_size, args.max_size),
                density=args.density if args.density is not None else args.n,
            )
        )
    if args.fold > 1:
        h = t_fold(h, args.fold)
    text = format_hg(h)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit(
            "gen",
            _digest(text.encode()),
            {
                "family": args.family,
                "q": args.q,
                "n": args.n,
                "fold": args.fold,
                "out": args.out,
            },
            args.seed,
            "ok",
            None,
            {"n": h.n, "m": h.m},
            started,
        )
    else:
        sys.stdout.write(text)
    return 0


def _cmd_order(args) -> int:
    from .ordering import (
        default_r0,
        forward_degrees,
        partition_extremal,
        partition_stability,
        reorder,
    )

    started = time.monotonic()
    h, digest = _read_input(args.input)
    params: dict = {"t": args.t}
    if args.partition:
        if args.partition == "stability":
            cert = partition_stability(h, args.t, args.sigma, args.delta)
            params.update(partition="stability", sigma=args.sigma, delta=args.delta)
        else:
            r0 = default_r0(h.n) if args.r0 is None else args.r0
            cert = partition_extremal(h, args.t, args.delta, args.gamma, r0)
            params.update(partition="extremal", delta=args.delta, gamma=args.gamma, r0=r0)
        ordering = cert.ordering
        payload = {
            "parts": cert.parts,
            "property_flags": cert.property_flags,
            "witness": cert.witness,
            "vacuous": cert.vacuous,
            "notes": cert.notes,
        }
        holds = all(cert.property_flags.values())
    else:
        out = reorder(h, args.t, args.tau, args.kparam)
        params.update(tau=args.tau, kparam=args.kparam)
        ordering = out.ordering
        payload = {
            "case": out.case,
            "e_star": out.e_star,
            "W": out.W,
            "bound": out.bound,
            "certificates": out.certificates,
        }
        holds = True
    payload["ordering"] = ordering.perm
    payload["forward_degrees"] = forward_degrees(h, ordering)
    _emit("order", digest, params, None, "ok" if holds else "flags-false", None, payload, started)
    return 0


def _cmd_color(args) -> int:
    started = time.monotonic()
    h, digest = _read_input(args.input)
    lists = _parse_lists(args.lists, h)
    params = {
        "mode": args.mode,
        "t": args.t,
        "delta": args.delta,
        "gamma": args.gamma,
        "r0": args.r0,
        "r1": args.r1,
        "exact_budget": args.exact_budget,
    }
    if args.mode == "pipeline":
        # loads ``oracle`` only for the ``exact`` stage, and never ``extremal``
        from .pipeline import PipelineParams, colour_main

        run = colour_main(
            h,
            args.t,
            lists,
            PipelineParams(
                delta=args.delta,
                gamma=args.gamma,
                r0=args.r0,
                r1=args.r1,
                seed=args.seed,
                exact_budget=args.exact_budget,
            ),
        )
        outcome, certificates = run.outcome, {"stages": run.stages}
    else:
        from .extremal import colour_extremal

        outcome, rep = colour_extremal(
            h, args.t, lists, delta=args.delta, exact_budget=args.exact_budget
        )
        certificates = {"report": rep}
    ok = not isinstance(outcome, ColouringFailure)
    colours = len(set(outcome.values())) if ok and outcome else (0 if ok else None)
    _emit(
        "color",
        digest,
        params,
        args.seed,
        {"colouring": outcome} if ok else outcome,
        colours,
        certificates,
        started,
    )
    return 0 if ok else 1


def _cmd_exact(args) -> int:
    from .oracle import (
        BudgetExceeded,
        OracleBudget,
        exact_chromatic_index,
        exact_list_colourable,
    )

    started = time.monotonic()
    h, digest = _read_input(args.input)
    budget = OracleBudget(
        max_edges=args.budget_edges,
        time_cap_ms=args.time_cap_ms if args.time_cap_ms is not None else _default_time_cap(),
    )
    params = {"budget_edges": budget.max_edges, "time_cap_ms": budget.time_cap_ms}
    if args.lists:
        res = exact_list_colourable(h, _parse_lists(args.lists, h), budget)
        params["lists"] = args.lists
        ok = res.status == "yes"
        colours = len(set(res.witness.values())) if res.witness else None
        _emit("exact", digest, params, None, res.status, colours, res, started)
        return 0 if ok else 1
    res = exact_chromatic_index(h, budget)
    if isinstance(res, BudgetExceeded):
        _emit("exact", digest, params, None, "budget", None, res, started)
        return 1
    _emit("exact", digest, params, None, "ok", res, {"chromatic_index": res}, started)
    return 0


def _cmd_classify(args) -> int:
    from .characterize import _classify_extremal, _debruijn_erdos_check, intersecting_bound

    started = time.monotonic()
    h, digest = _read_input(args.input)
    # the bound is computed once; at t = 1 the classification is also the
    # one the de Bruijn-Erdos check reports
    ib = intersecting_bound(h, args.t)
    cls = _classify_extremal(h, args.t, ib)
    db = _debruijn_erdos_check(h, cls if args.t == 1 else None)
    holds = (not ib["applies"]) or h.m <= ib["bound"]
    _emit(
        "classify",
        digest,
        {"t": args.t},
        None,
        "holds" if holds else "violated",
        None,
        {"intersecting_bound": ib, "classification": cls, "debruijn_erdos": db},
        started,
    )
    return 0 if holds else 1


def _check(checks: list, name: str, ok: bool | None, detail: str = "") -> None:
    status = "skipped" if ok is None else ("ok" if ok else "fail")
    checks.append({"name": name, "status": status, "detail": detail})


def _cmd_verify(args) -> int:
    from .characterize import intersecting_bound
    from .hypercore import (
        degree_stats,
        dual,
        is_isomorphic,
        restrict_and_induce,
        validate_colouring,
        volume,
    )
    from .oracle import BudgetExceeded, OracleBudget, exact_chromatic_index
    from .ordering import EdgeOrdering, forward_degrees, greedy_list_colour, reorder

    started = time.monotonic()
    time_cap_ms = _default_time_cap()  # a bad value is a usage error at any size
    h, digest = _read_input(args.input)
    t = args.t
    checks: list[dict] = []

    _check(checks, "hg-round-trip", parse_hg(format_hg(h)) == h)

    stats = degree_stats(h)
    if h.n >= 2:
        ok = stats.max_codegree > t or volume(h) <= t
        _check(checks, "volume-vs-codegree", ok, f"vol={volume(h)}")
    else:
        _check(checks, "volume-vs-codegree", None, "needs n >= 2")

    covered = [v for v in range(h.n) if stats.degree[v] >= 1]
    if covered and h.m >= 1:
        g = restrict_and_induce(h, set(covered), mode="induced")
        if g.n <= 16 and g.m <= 16 and g.m >= 1 and dual(g).m >= 1:
            try:
                _check(checks, "dual-dual-isomorphic", is_isomorphic(dual(dual(g)), g))
            except (ValueError, RuntimeError) as exc:
                _check(checks, "dual-dual-isomorphic", None, str(exc))
        else:
            _check(checks, "dual-dual-isomorphic", None, "instance too large")
    else:
        _check(checks, "dual-dual-isomorphic", None, "no covered vertices")

    ident = EdgeOrdering(tuple(range(h.m)))
    fwd = forward_degrees(h, ident)
    lists = {e: frozenset(range(fwd[e] + 1)) for e in range(h.m)}
    got = greedy_list_colour(h, lists, ident)
    ok = not isinstance(got, ColouringFailure) and validate_colouring(h, got, lists).valid
    _check(checks, "greedy-guarantee", ok)

    out = reorder(h, t, Fraction(1, 2), 8)
    refwd = forward_degrees(h, out.ordering)
    if out.case == "A":
        _check(
            checks,
            "reorder-case-A-postcondition",
            all(d <= out.bound for d in refwd.values()),
        )
    else:
        perm = out.ordering.perm
        after = perm[perm.index(out.e_star) + 1 :]
        _check(
            checks,
            "reorder-case-B-O1",
            all(refwd[e] <= out.bound for e in after) == out.certificates["O1_ok"],
        )

    ib = intersecting_bound(h, t)
    if ib["applies"]:
        _check(checks, "edge-count-bound", h.m <= ib["bound"], f"e={h.m} bound={ib['bound']}")
    else:
        _check(checks, "edge-count-bound", None, ib["reason"] or "")

    if 1 <= h.m <= 10:
        chi = exact_chromatic_index(
            h, OracleBudget(max_edges=10, time_cap_ms=time_cap_ms)
        )
        if isinstance(chi, BudgetExceeded):
            _check(checks, "chromatic-index-bounds", None, chi.detail)
        else:
            lower = stats.max_degree
            _check(
                checks,
                "chromatic-index-bounds",
                lower <= chi <= h.m,
                f"chi'={chi}",
            )
    else:
        _check(checks, "chromatic-index-bounds", None, "edge count outside oracle budget")

    failed = [c for c in checks if c["status"] == "fail"]
    _emit(
        "verify",
        digest,
        {"t": t},
        None,
        "holds" if not failed else "violated",
        None,
        {"checks": checks},
        started,
    )
    return 0 if not failed else 1


def _sweep_one(task: tuple[int, int]) -> dict:
    import random

    from .generators import GeneratorParams, random_bounded_codegree
    from .hypercore import validate_colouring
    from .pipeline import PipelineParams, colour_main

    index, seed = task
    rng = random.Random(seed)
    n = rng.randint(6, 14)
    t = rng.randint(1, 2)
    hi = min(4, n)
    h = random_bounded_codegree(
        GeneratorParams(seed=seed, n=n, t=t, size_range=(2, hi), density=n)
    )
    lists = uniform_lists(h, max(1, t * h.n))
    run = colour_main(h, t, lists, PipelineParams(seed=seed))
    row = {"index": index, "seed": seed, "n": n, "t": t, "m": h.m}
    if isinstance(run.outcome, ColouringFailure):
        row["status"] = "failed"
        row["stage"] = run.outcome.stage
    else:
        valid = validate_colouring(h, run.outcome, lists).valid
        row["status"] = "ok" if valid else "invalid"
    return row


def _cmd_sweep(args) -> int:
    started = time.monotonic()
    tasks = [(i, (args.seed * 1_000_003 + i) & ((1 << 64) - 1)) for i in range(args.count)]
    if args.jobs > 1:
        # imported here so that no other call loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_one, tasks))
    else:
        rows = [_sweep_one(task) for task in tasks]
    rows.sort(key=lambda r: r["index"])
    tally = {"ok": 0, "failed": 0, "invalid": 0}
    for row in rows:
        tally[row["status"]] += 1
    _emit(
        "sweep",
        _digest(repr(tasks).encode()),
        {"count": args.count, "jobs": args.jobs},
        args.seed,
        tally,
        None,
        {"rows": rows},
        started,
    )
    return 0 if tally["invalid"] == 0 else 1


def _fraction(text: str) -> Fraction:
    return Fraction(text)


def _int_at_least(text: str, low: int, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "positive")


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0, "non-negative")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call.

    Sharing is safe: ``parse_args`` fills a fresh namespace per call, every
    default is immutable, and usage errors and ``--help`` go to whatever
    ``sys.stdout`` / ``sys.stderr`` is current when they are printed.
    """
    parser = argparse.ArgumentParser(
        prog="hyperchrom",
        description="Hypergraph edge-colouring toolkit: generators, orderings, "
        "colouring pipelines, exact solvers and extremal classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance in .hg format")
    p.add_argument("--family", choices=["plane", "pencil", "random"], required=True)
    p.add_argument("--q", type=int, help="projective plane order")
    p.add_argument("--n", type=int, help="vertex count (pencil/random)")
    p.add_argument(
        "--fold", type=_positive_int, default=1, help="replace each edge by this many copies"
    )
    p.add_argument("--t", type=int, default=1, help="codegree cap for --family random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--density", type=int, help="edge draw target (default n)")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("order", help="reorder edges / build certified partitions")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--tau", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--kparam", type=_fraction, default=Fraction(8))
    p.add_argument("--partition", choices=["stability", "extremal"])
    p.add_argument("--sigma", type=_fraction, default=Fraction(1, 50))
    p.add_argument("--delta", type=_fraction, default=Fraction(1, 10))
    p.add_argument("--gamma", type=_fraction, default=Fraction(1, 8))
    p.add_argument("--r0", type=int)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("color", help="list-colour an instance")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--mode", choices=["extremal", "pipeline"], default="pipeline")
    p.add_argument("--lists", required=True, help="uniform:K or a lists file")
    p.add_argument("--delta", type=_fraction, default=Fraction(1, 10))
    p.add_argument("--gamma", type=_fraction, default=Fraction(1, 8))
    p.add_argument("--r0", type=int)
    p.add_argument("--r1", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact-budget", type=_non_negative_int, default=12)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("exact", help="exact chromatic index / list colourability")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--lists", help="uniform:K or a lists file")
    p.add_argument("--budget-edges", type=int, default=24)
    p.add_argument(
        "--time-cap-ms", type=_positive_int, help="default HYPERCHROM_TIME_CAP_MS or 60000"
    )
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("classify", help="edge-count bound and extremal structure")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--t", type=int, default=1)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="run the invariant suite on one instance")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--t", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="seeded corpus run with aggregated results")
    p.add_argument("--count", type=_non_negative_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # bad flag combinations, malformed inputs, missing files
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - catch-all for the exit contract
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
