"""End-to-end acceptance gate: ten pinned checks with wall-time caps.

Each test prints one "ACCEPTANCE <k>: PASS|FAIL" line (shown under ``-s``,
or in captured output on failure) and then fails loudly on any violation
or cap overrun.  Expected values are frozen from the independent oracles;
nothing here is tuned to make a check pass.
"""

import random
import time
from fractions import Fraction

from hyperchrom import (
    ColouringFailure,
    EdgeOrdering,
    GeneratorParams,
    Hypergraph,
    PipelineParams,
    TFoldNearPencil,
    TFoldProjectivePlane,
    classify_extremal,
    colour_from_matching,
    colour_main,
    colour_stability,
    debruijn_erdos_check,
    dual,
    forward_degrees,
    greedy_list_colour,
    intersecting_bound,
    is_isomorphic,
    line_graph,
    maximal_complement_matching,
    near_pencil,
    partition_extremal,
    partition_stability,
    projective_plane,
    random_bounded_codegree,
    reorder,
    reserve_colours,
    restrict_and_induce,
    t_fold,
    uniform_lists,
    validate_colouring,
)
from hyperchrom.oracle import (
    OracleBudget,
    enumerate_hypergraphs,
    exact_chromatic_index,
    exact_list_colourable,
)
from tests._naive import naive_closed_nbhd, naive_graph_chromatic_number
from tests.test_ordering import _extremal_flags, _recheck_reorder, _stability_flags
from tests.test_properties import (
    check_overlap_count_bound,
    check_two_scale_neighbour_bound,
    check_vertex_incidence_bound,
)

FANO = Hypergraph(
    7,
    [tuple(sorted(((0 + s) % 7, (1 + s) % 7, (3 + s) % 7))) for s in range(7)],
)


def _finish(num: int, cap_s: float, started: float, violations: list) -> None:
    elapsed = time.monotonic() - started
    ok = not violations and elapsed < cap_s
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s, cap {cap_s:g}s)")
    assert not violations, violations[:8]
    assert elapsed < cap_s, f"wall time {elapsed:.1f}s exceeds cap {cap_s:g}s"


def test_01_chromatic_index_of_folded_planes():
    started = time.monotonic()
    violations = []
    for t in (1, 2, 3):
        t0 = time.monotonic()
        chi = exact_chromatic_index(
            t_fold(FANO, t), OracleBudget(max_edges=21, time_cap_ms=59_000)
        )
        dt = time.monotonic() - t0
        if chi != 7 * t:
            violations.append(f"t={t}: chromatic index {chi}, expected {7 * t}")
        if dt >= 60:
            violations.append(f"t={t}: took {dt:.1f}s, cap 60s")
    _finish(1, 180, started, violations)


def test_02_near_extremal_strictness():
    started = time.monotonic()
    violations = []
    minus_line = Hypergraph(7, FANO.edges[:6])
    chi = exact_chromatic_index(minus_line, OracleBudget(max_edges=10, time_cap_ms=9_000))
    if chi != 6:
        violations.append(f"plane minus a line: chromatic index {chi}, expected 6")
    res = exact_list_colourable(
        FANO, uniform_lists(FANO, 6), OracleBudget(max_edges=10, time_cap_ms=9_000)
    )
    if res.status != "no":
        violations.append(f"6-colour lists on the plane: {res.status}, expected no")
    _finish(2, 10, started, violations)


def test_03_edge_count_bound_and_classification_sweep():
    started = time.monotonic()
    violations = []
    tight_seen = 0
    for t in (1, 2):
        for n in range(2, 6):
            for h in enumerate_hypergraphs(
                n, t, min_size=2, max_edges=10, intersecting=True
            ):
                covered = [v for v in range(h.n) if any(v in e for e in h.edges)]
                bound = t * max(len(naive_closed_nbhd(h, v)) for v in covered)
                ib = intersecting_bound(h, t)
                if not ib["applies"] or ib["bound"] != bound or ib["e_count"] != h.m:
                    violations.append(f"bound bookkeeping off on {h.edges} t={t}")
                    continue
                if h.m > bound:
                    violations.append(f"bound violated: {h.edges} t={t} e={h.m} > {bound}")
                    continue
                if h.m == bound:
                    tight_seen += 1
                    kind = classify_extremal(h, t).kind
                    if not isinstance(kind, TFoldNearPencil):
                        violations.append(
                            f"tight but not a folded near-pencil: {h.edges} t={t} -> {kind}"
                        )
    if tight_seen == 0:
        violations.append("sweep found no tight instance at all")
    for q in (2, 3, 4, 5):
        for t in (1, 2, 3):
            kind = classify_extremal(t_fold(projective_plane(q), t), t).kind
            if kind != TFoldProjectivePlane(q, t):
                violations.append(f"fold of order-{q} plane at t={t} -> {kind}")
    _finish(3, 300, started, violations)


def test_04_linear_intersecting_bound_and_structure():
    started = time.monotonic()
    violations = []
    out = debruijn_erdos_check(FANO)
    if not (
        out["applies"]
        and out["bound_holds"]
        and out["classification"].kind == TFoldProjectivePlane(2, 1)
        and out["e_count"] == 7
    ):
        violations.append(f"order-2 plane: {out}")
    for n in range(3, 9):
        out = debruijn_erdos_check(near_pencil(n))
        c = out["classification"]
        if not (out["bound_holds"] and isinstance(c.kind, TFoldNearPencil)):
            violations.append(f"near-pencil n={n}: {c.kind}")
        elif c.e_count != c.bound:
            violations.append(f"near-pencil n={n} not tight: {c.e_count} vs {c.bound}")
    for n in range(2, 6):
        for h in enumerate_hypergraphs(n, 1, min_size=2, max_edges=10, intersecting=True):
            out = debruijn_erdos_check(h)
            if not out["applies"]:
                violations.append(f"enumerated linear instance refused: {h.edges}")
                continue
            if not out["bound_holds"]:
                violations.append(f"bound fails on {h.edges}")
                continue
            c = out["classification"]
            strict = c.e_count < c.bound
            extremal = isinstance(c.kind, (TFoldNearPencil, TFoldProjectivePlane))
            if strict == extremal:
                violations.append(
                    f"strictness/structure mismatch on {h.edges}: "
                    f"e={c.e_count} bound={c.bound} kind={c.kind}"
                )
    _finish(4, 60, started, violations)


def test_05_counting_bound_property_suite():
    started = time.monotonic()
    violations = []
    for i in range(1000):
        seed = 77_000 + i
        rng = random.Random(seed)
        n = rng.randint(4, 30)
        t = rng.randint(1, 3)
        lo = min(rng.choice((2, 3, 5)), n)
        h = random_bounded_codegree(
            GeneratorParams(
                seed=seed, n=n, t=t, size_range=(lo, min(max(lo, 6), n)), density=n
            )
        )
        try:
            check_vertex_incidence_bound(h, t)
            check_overlap_count_bound(h, t)
            check_two_scale_neighbour_bound(h, t)
        except AssertionError as exc:
            violations.append(f"seed {seed}: {exc}")
    _finish(5, 300, started, violations)


def test_06_matching_colouring_realization():
    started = time.monotonic()
    violations = []
    accepted = 0
    seed = 50_000
    while accepted < 200 and seed < 54_000:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        h = random_bounded_codegree(
            GeneratorParams(
                seed=seed,
                n=n,
                t=rng.randint(1, 2),
                size_range=(2, min(4, n)),
                density=rng.randint(3, 8),
            )
        )
        if not 1 <= h.m <= 12:
            continue
        accepted += 1
        matching = maximal_complement_matching(h)
        k = h.m - len(matching.pairs)
        lists = uniform_lists(h, k)
        col = colour_from_matching(h, matching, lists)
        if len(set(col.values())) > k:
            violations.append(f"seed {seed}: used {len(set(col.values()))} > {k} colours")
        if not validate_colouring(h, col, lists).valid:
            violations.append(f"seed {seed}: invalid colouring")
        chi = exact_chromatic_index(h, OracleBudget(max_edges=12, time_cap_ms=30_000))
        if not isinstance(chi, int) or chi > k:
            violations.append(f"seed {seed}: oracle says {chi} > {k}")
    if accepted != 200:
        violations.append(f"only {accepted} instances with at most 12 edges")
    _finish(6, 300, started, violations)


def test_07_greedy_guarantee_and_certificate_audit(corpus):
    started = time.monotonic()
    violations = []
    for h, t in corpus:
        for ordering in (EdgeOrdering(tuple(range(h.m))), reorder(h, t, Fraction(1, 2), 8).ordering):
            fwd = forward_degrees(h, ordering)
            lists = {e: frozenset(range(fwd[e] + 1)) for e in range(h.m)}
            got = greedy_list_colour(h, lists, ordering)
            if isinstance(got, ColouringFailure) or not validate_colouring(h, got, lists).valid:
                violations.append(f"greedy failed with forward-degree+1 lists on m={h.m}")
        for tau, kparam in ((Fraction(1, 2), 8), (Fraction(1, 20), 2)):
            try:
                _recheck_reorder(h, t, tau, kparam, reorder(h, t, tau, kparam))
            except AssertionError as exc:
                violations.append(f"reorder certificate mismatch: {exc}")
        for sigma in (Fraction(1, 100), Fraction(2, 5)):
            cert = partition_stability(h, t, sigma, Fraction(1, 10))
            if cert.property_flags != _stability_flags(h, t, sigma, Fraction(1, 10), cert):
                violations.append(f"stability flags mismatch at sigma={sigma}, m={h.m}")
        r0 = PipelineParams().resolved_r0(h.n)
        for gamma in (Fraction(1, 8), Fraction(1, 4)):
            cert = partition_extremal(h, t, Fraction(1, 10), gamma, r0)
            if cert.property_flags != _extremal_flags(h, t, Fraction(1, 10), gamma, r0, cert):
                violations.append(f"extremal flags mismatch at gamma={gamma}, m={h.m}")
    _finish(7, 300, started, violations)


def test_08_pipeline_soundness_sweep():
    started = time.monotonic()
    violations = []
    successes = 0
    for i in range(500):
        seed = (8 * 1_000_003 + i) & ((1 << 64) - 1)
        rng = random.Random(seed)
        n = rng.randint(6, 14)
        t = rng.randint(1, 2)
        h = random_bounded_codegree(
            GeneratorParams(seed=seed, n=n, t=t, size_range=(2, min(4, n)), density=n)
        )
        lists = uniform_lists(h, max(1, t * h.n))
        entry = colour_main if i % 2 == 0 else colour_stability
        run = entry(h, t, lists, PipelineParams(seed=seed))
        if isinstance(run.outcome, ColouringFailure):
            continue
        successes += 1
        if not validate_colouring(h, run.outcome, lists).valid:
            violations.append(f"seed {seed}: non-failure output does not validate")
    if successes == 0:
        violations.append("sweep produced no successful runs at all")
    h2 = t_fold(FANO, 2)
    run = colour_main(h2, 2, uniform_lists(h2, 14), PipelineParams())
    if isinstance(run.outcome, ColouringFailure):
        violations.append(f"doubled plane with 14-colour lists failed: {run.outcome.stage}")
    else:
        used = len(set(run.outcome.values()))
        if used != 14:
            violations.append(f"doubled plane used {used} colours, expected exactly 14")
        if not validate_colouring(h2, run.outcome, uniform_lists(h2, 14)).valid:
            violations.append("doubled plane colouring does not validate")
    _finish(8, 600, started, violations)


def test_09_duality_and_line_graph_identities():
    started = time.monotonic()
    violations = []
    checked = 0
    seed = 90_000
    while checked < 100 and seed < 92_000:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(3, 10)
        h = random_bounded_codegree(
            GeneratorParams(
                seed=seed,
                n=n,
                t=rng.randint(1, 2),
                size_range=(2, min(4, n)),
                density=rng.randint(3, 9),
            )
        )
        if not 1 <= h.m <= 12:
            continue
        checked += 1
        covered = {v for e in h.edges for v in e}
        g = restrict_and_induce(h, covered, mode="induced")
        if not is_isomorphic(dual(dual(g)), g):
            violations.append(f"seed {seed}: double dual not isomorphic")
        chi = exact_chromatic_index(h, OracleBudget(max_edges=12, time_cap_ms=30_000))
        chi_line = naive_graph_chromatic_number(list(line_graph(h).adj))
        if chi != chi_line:
            violations.append(f"seed {seed}: edge colouring {chi} vs line-graph {chi_line}")
    if checked != 100:
        violations.append(f"only {checked} instances with at most 12 edges")
    _finish(9, 120, started, violations)


def test_10_reservation_window():
    started = time.monotonic()
    violations = []
    gamma, xi = Fraction(3, 10), Fraction(1, 20)
    lists = uniform_lists(t_fold(FANO, 2), 100)
    lo, hi = (gamma - xi) * 100, (gamma + xi) * 100
    for seed in range(50):
        res = reserve_colours(lists, gamma, xi, seed)
        if isinstance(res, ColouringFailure):
            violations.append(f"seed {seed}: no acceptable draw within 100 attempts")
            continue
        if res.retries_used >= 100:
            violations.append(f"seed {seed}: retries_used {res.retries_used}")
        for e, allowed in lists.items():
            hit = len(res.colours & allowed)
            if not lo <= hit <= hi:
                violations.append(f"seed {seed} edge {e}: {hit} outside [{lo}, {hi}]")
                break
    _finish(10, 30, started, violations)
