"""End-to-end list-colouring pipelines built as fallback ladders.

Two entry points.  ``colour_stability`` splits edges by size, reserves a
random colour block R, partitions the large edges into H2 < W < H1 and
colours W from the unreserved colours, H2 from R, H1 greedily, then the
medium edges from R and the small ones from the rest.  ``colour_main``
first tries that script, then a second script around ``partition_extremal``
and the extremal ladder, and finally the exact solver on tiny instances.

The staged script is only guaranteed to work out at astronomically large n;
at usable sizes any stage may fail, so every run carries a stage-by-stage
report and failures are values, never exceptions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping

from .exactarith import as_fraction, cmp_to_scaled_sqrt
from .extremal import colour_extremal
from .hypercore import (
    ColouringFailure,
    Hypergraph,
    degree_stats,
    normalize_lists,
    subhypergraph,
    validate_colouring,
)
from .ordering import greedy_extend, partition_extremal, partition_stability, taken_colours

__all__ = [
    "SizeSplit",
    "ReservedColours",
    "PipelineParams",
    "StageRecord",
    "PipelineRun",
    "split_by_size",
    "reserve_colours",
    "colour_small",
    "colour_sparse_block",
    "colour_stability",
    "colour_main",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SizeSplit:
    """Edges bucketed by size: sml <= r1 < med <= r0 < lrg."""

    sml: tuple[int, ...]
    med: tuple[int, ...]
    lrg: tuple[int, ...]
    r0: int
    r1: int


@dataclass(frozen=True)
class ReservedColours:
    """A colour block R hitting every list in the (gamma ± xi) window."""

    colours: frozenset[int]
    gamma: Fraction
    xi: Fraction
    seed: int
    retries_used: int


@dataclass(frozen=True)
class PipelineParams:
    """Desk-scale defaults; every knob overridable.

    r0=None means "computed per instance" as ceil(sqrt(n)) + 2 (never below
    r1).  eps only feeds informational premise notes.
    """

    eps: Fraction = Fraction(1, 4)
    delta: Fraction = Fraction(1, 10)
    gamma: Fraction = Fraction(1, 8)
    sigma: Fraction = Fraction(1, 50)
    r0: int | None = None
    r1: int = 4
    seed: int = 0
    exact_budget: int = 12

    def __post_init__(self):
        for name in ("eps", "delta", "gamma", "sigma"):
            value = as_fraction(getattr(self, name))
            object.__setattr__(self, name, value)
            if not 0 < value < 1:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.sigma >= Fraction(1, 2):
            raise ValueError("sigma must lie in (0, 1/2)")
        if self.r1 < 1:
            raise ValueError("r1 must be at least 1")
        if self.r0 is not None and self.r0 < self.r1:
            raise ValueError("r0 must be at least r1")
        if self.exact_budget < 0:
            raise ValueError("exact_budget must be non-negative")

    def resolved_r0(self, n: int) -> int:
        if self.r0 is not None:
            return self.r0
        return max(math.isqrt(n - 1) + 1 + 2 if n > 0 else 2, self.r1)


@dataclass(frozen=True)
class StageRecord:
    stage: str
    status: str  # 'ok' | 'failed' | 'skipped'
    detail: str = ""
    colours_used: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class PipelineRun:
    outcome: dict[int, int] | ColouringFailure
    stages: tuple[StageRecord, ...]

    @property
    def ok(self) -> bool:
        return not isinstance(self.outcome, ColouringFailure)


def split_by_size(h: Hypergraph, r0: int, r1: int) -> SizeSplit:
    """Three-way split of the edge ids by edge size."""
    if not 1 <= r1 <= r0:
        raise ValueError("need 1 <= r1 <= r0")
    sml, med, lrg = [], [], []
    for e, verts in enumerate(h.edges):
        s = len(verts)
        (sml if s <= r1 else med if s <= r0 else lrg).append(e)
    return SizeSplit(tuple(sml), tuple(med), tuple(lrg), r0, r1)


def reserve_colours(
    lists: Mapping[int, Iterable[int]],
    gamma,
    xi,
    seed: int,
) -> ReservedColours | ColouringFailure:
    """Seeded random colour reservation with an exact per-edge window check.

    Each colour of the union of lists goes into R independently with
    probability gamma; the draw is accepted iff every edge e satisfies
    (gamma - xi)|C(e)| <= |R ∩ C(e)| <= (gamma + xi)|C(e)| exactly.  Up to
    100 attempts with derived sub-seeds; then failure (a value).
    """
    gamma = as_fraction(gamma)
    xi = as_fraction(xi)
    if not 0 <= gamma <= 1:
        raise ValueError("gamma must lie in [0, 1]")
    if not 0 < xi < 1:
        raise ValueError("xi must lie in (0, 1)")
    norm = {e: frozenset(cs) for e, cs in lists.items()}
    universe = sorted(frozenset().union(*norm.values())) if norm else []
    for attempt in range(100):
        rng = random.Random((seed * 1_000_003 + attempt) & _MASK64)
        reserved = frozenset(c for c in universe if rng.random() < gamma)
        if all(
            (gamma - xi) * len(cs) <= len(reserved & cs) <= (gamma + xi) * len(cs)
            for cs in norm.values()
        ):
            return ReservedColours(reserved, gamma, xi, seed, attempt)
    return ColouringFailure(
        "reserve", detail="no draw met the per-edge window in 100 attempts"
    )


def colour_small(
    h: Hypergraph,
    edge_ids: Iterable[int],
    lists: Mapping[int, Iterable[int]],
    forbidden: Mapping[int, Iterable[int]] | None = None,
    *,
    seed: int = 0,
    attempts: int = 8,
) -> dict[int, int] | ColouringFailure:
    """Colour a block of (typically small) edges from lists minus forbidden.

    Several seeded random-order greedy passes with random colour picks,
    then one deterministic pass by descending line-graph degree.  Stands in
    for the semi-random nibble, which has nothing to say at this scale.
    """
    ids = list(edge_ids)
    forbidden = forbidden or {}
    allowed = {
        e: frozenset(lists[e]) - frozenset(forbidden.get(e, ())) for e in ids
    }
    for e in ids:
        if not allowed[e]:
            return ColouringFailure(
                "small", stuck_edge=e, detail="list emptied by forbidden colours"
            )
    for attempt in range(attempts):
        rng = random.Random((seed * 1_000_003 + attempt) & _MASK64)
        order = ids[:]
        rng.shuffle(order)
        col: dict[int, int] = {}
        if greedy_extend(h, order, allowed, col, lambda opts: rng.choice(sorted(opts))) is None:
            return col
    rows, block = h.view.rows, sum(1 << e for e in allowed)
    col = {}
    stuck = greedy_extend(
        h, sorted(ids, key=lambda e: (-(rows[e] & block).bit_count(), e)), allowed, col
    )
    if stuck is None:
        return col
    return ColouringFailure(
        "small",
        stuck_edge=stuck,
        detail=f"greedy stuck after {attempts} randomized passes",
    )


def colour_sparse_block(
    h: Hypergraph,
    edge_ids: Iterable[int],
    lists: Mapping[int, Iterable[int]],
    *,
    t: int | None = None,
    zeta=None,
    alpha=None,
) -> tuple[dict[int, int] | ColouringFailure, dict]:
    """Greedy colouring of a near-uniform block, plus a premise report.

    Orders the block so its busiest edges (most intersections inside the
    block) come last and colours greedily.  The report states, without
    asserting, whether the block sits in the size window [r, (1+alpha)r],
    whether r <= (1-zeta)*sqrt(n), whether codegree stays <= t, and how the
    colour count compares with the (1 - zeta/500)*t*n target.
    """
    ids = list(edge_ids)
    report: dict = {"edges": len(ids)}
    if ids:
        sizes = [len(h.edges[e]) for e in ids]
        r = min(sizes)
        report["r"] = r
        if alpha is not None:
            report["size_window_ok"] = max(sizes) <= (1 + as_fraction(alpha)) * r
        if zeta is not None:
            report["r_bound_ok"] = cmp_to_scaled_sqrt(r, 1 - as_fraction(zeta), h.n) <= 0
        if t is not None:
            sub, _ = subhypergraph(h, ids)
            report["codegree_ok"] = degree_stats(sub).max_codegree <= t
    allowed = {e: frozenset(lists[e]) for e in ids}
    rows, block = h.view.rows, sum(1 << e for e in allowed)
    col: dict[int, int] = {}
    stuck = greedy_extend(
        h, sorted(ids, key=lambda e: ((rows[e] & block).bit_count(), e)), allowed, col
    )
    if stuck is not None:
        return ColouringFailure("sparse", stuck_edge=stuck), report
    used = len(set(col.values()))
    report["colours_used"] = used
    if t is not None and zeta is not None:
        target = (1 - as_fraction(zeta) / 500) * t * h.n
        report["target"] = target
        report["target_met"] = used <= target
    return col, report


def colour_stability(
    h: Hypergraph,
    t: int,
    lists: Mapping[int, Iterable[int]],
    params: PipelineParams | None = None,
) -> PipelineRun:
    """Size split, colour reservation, three-part treatment of large edges.

    Stage order: reserve R (skipped when no medium or large edges exist,
    since only they draw on R); partition the large edges and colour
    W / H2 / H1 from C\\R, C∩R, C\\R respectively; medium edges from C∩R;
    small edges from C\\R avoiding intersecting large edges' colours.  A
    successful outcome is always validated against the original lists.
    """
    if t < 1:
        raise ValueError("t must be positive")
    params = params or PipelineParams()
    allowed = normalize_lists(h, lists)
    stages: list[StageRecord] = []
    r0 = params.resolved_r0(h.n)
    split = split_by_size(h, r0, params.r1)
    stages.append(
        StageRecord(
            "split",
            "ok",
            f"sml={len(split.sml)} med={len(split.med)} lrg={len(split.lrg)} "
            f"r0={r0} r1={params.r1}",
        )
    )

    def fail(stage: str, failure: ColouringFailure) -> PipelineRun:
        stages.append(StageRecord(stage, "failed", failure.detail))
        return PipelineRun(
            ColouringFailure(stage, stuck_edge=failure.stuck_edge, detail=failure.detail),
            tuple(stages),
        )

    if split.med or split.lrg:
        res = reserve_colours(allowed, 2 * params.sigma, params.sigma / 2, params.seed)
        if isinstance(res, ColouringFailure):
            return fail("reserve", res)
        reserved = res.colours
        stages.append(
            StageRecord(
                "reserve",
                "ok",
                f"|R|={len(reserved)} retries={res.retries_used}",
                seed=params.seed,
            )
        )
    else:
        reserved = frozenset()
        stages.append(StageRecord("reserve", "skipped", "no medium or large edges"))

    col: dict[int, int] = {}
    if split.lrg:
        sub, ids = subhypergraph(h, split.lrg)
        cert = partition_stability(sub, t, params.sigma, params.delta)
        part = {k: tuple(ids[i] for i in v) for k, v in cert.parts.items()}
        flags = " ".join(
            f"{k}={'T' if v else 'F'}" for k, v in sorted(cert.property_flags.items())
        )
        stages.append(StageRecord("lrg-partition", "ok", flags))
        w_col, w_report = colour_sparse_block(
            h,
            part["W"],
            {e: allowed[e] - reserved for e in part["W"]},
            t=t,
            zeta=params.sigma,
            alpha=params.delta,
        )
        if isinstance(w_col, ColouringFailure):
            return fail("lrg-W", w_col)
        col.update(w_col)
        stages.append(
            StageRecord(
                "lrg-W",
                "ok",
                " ".join(f"{k}={v}" for k, v in w_report.items()),
                colours_used=len(set(w_col.values())),
            )
        )
        stuck = greedy_extend(
            h, part["H2"], {e: allowed[e] & reserved for e in part["H2"]}, col
        )
        if stuck is not None:
            return fail(
                "lrg-H2",
                ColouringFailure("lrg-H2", stuck_edge=stuck, detail="reserved list exhausted"),
            )
        stages.append(
            StageRecord("lrg-H2", "ok", f"{len(part['H2'])} edges from the reserve")
        )
        stuck = greedy_extend(
            h, part["H1"], {e: allowed[e] - reserved for e in part["H1"]}, col
        )
        if stuck is not None:
            return fail(
                "lrg-H1",
                ColouringFailure("lrg-H1", stuck_edge=stuck, detail="list exhausted"),
            )
        stages.append(StageRecord("lrg-H1", "ok", f"{len(part['H1'])} edges"))
    else:
        stages.append(StageRecord("lrg-partition", "skipped", "no large edges"))

    rows = h.view.rows
    if split.med:
        coloured = sum(1 << f for f in col)
        got = colour_small(
            h,
            split.med,
            {e: allowed[e] & reserved for e in split.med},
            {e: taken_colours(rows[e] & coloured, col) for e in split.med},
            seed=params.seed + 1,
        )
        if isinstance(got, ColouringFailure):
            return fail("med", got)
        col.update(got)
        stages.append(
            StageRecord(
                "med",
                "ok",
                _kahn_note(h, split.med, allowed, reserved, params.eps, t),
                colours_used=len(set(got.values())),
                seed=params.seed + 1,
            )
        )
    else:
        stages.append(StageRecord("med", "skipped", "no medium edges"))

    if split.sml:
        lrg_coloured = sum(1 << f for f in split.lrg)
        got = colour_small(
            h,
            split.sml,
            {e: allowed[e] - reserved for e in split.sml},
            {e: taken_colours(rows[e] & lrg_coloured, col) for e in split.sml},
            seed=params.seed + 2,
        )
        if isinstance(got, ColouringFailure):
            return fail("sml", got)
        # sml colours avoid R while med colours sit inside it, so the two
        # blocks can never collide; anything else is a bug, not bad luck.
        assert not {c for e, c in got.items()} & {
            col[e] for e in split.med if e in col
        }
        col.update(got)
        stages.append(
            StageRecord(
                "sml", "ok", colours_used=len(set(got.values())), seed=params.seed + 2
            )
        )
    else:
        stages.append(StageRecord("sml", "skipped", "no small edges"))

    report = validate_colouring(h, col, lists=allowed)
    if not report.valid:
        return fail(
            "validate",
            ColouringFailure("validate", detail=f"violations: {report.violations[:3]}"),
        )
    stages.append(StageRecord("validate", "ok", colours_used=report.colour_count))
    return PipelineRun(col, tuple(stages))


def _kahn_note(
    h: Hypergraph,
    ids: tuple[int, ...],
    allowed: Mapping[int, frozenset[int]],
    reserved: frozenset[int],
    eps: Fraction,
    t: int,
) -> str:
    """Informational only: would the nibble's list-size premise hold here?"""
    if not ids:
        return "kahn_premise_ok=vacuous"
    rows, block = h.view.rows, sum(1 << e for e in ids)
    max_deg = max((rows[e] & block).bit_count() for e in ids)
    min_list = min(len(allowed[e] & reserved) for e in ids)
    ok = min_list >= (1 + eps) * max_deg
    return f"kahn_premise_ok={ok} (min_list={min_list}, max_block_degree={max_deg})"


def colour_main(
    h: Hypergraph,
    t: int,
    lists: Mapping[int, Iterable[int]],
    params: PipelineParams | None = None,
) -> PipelineRun:
    """Full ladder: stability script, extremal script, exact search.

    The extremal script reserves a block R with probability 2*gamma, gives
    medium edges C∩R and large edges their full lists, partitions med∪lrg
    into H3 < H2 < H1, colours H3 by the extremal ladder and the rest
    greedily, then the small edges from C\\R.
    """
    if t < 1:
        raise ValueError("t must be positive")
    params = params or PipelineParams()
    allowed = normalize_lists(h, lists)
    stages: list[StageRecord] = []
    sub_run = colour_stability(h, t, lists, params)
    stages.extend(replace(r, stage=f"stability:{r.stage}") for r in sub_run.stages)
    if sub_run.ok:
        return PipelineRun(sub_run.outcome, tuple(stages))

    outcome = _main_script(h, t, allowed, params, stages)
    if not isinstance(outcome, ColouringFailure):
        return PipelineRun(outcome, tuple(stages))

    if h.m <= params.exact_budget:
        from . import oracle

        res = oracle.exact_list_colourable(
            h, allowed, oracle.OracleBudget(max_edges=max(h.m, 1))
        )
        if res.status == "yes":
            stages.append(
                StageRecord(
                    "exact",
                    "ok",
                    colours_used=len(set(res.witness.values())) if res.witness else 0,
                )
            )
            return PipelineRun(dict(res.witness or {}), tuple(stages))
        if res.status == "no":
            failure = ColouringFailure("exact", detail="no proper colouring from these lists")
        else:
            failure = ColouringFailure("exact", detail=res.detail)
        stages.append(StageRecord("exact", "failed", failure.detail))
        return PipelineRun(failure, tuple(stages))
    failure = ColouringFailure(
        "exact", detail=f"e(H)={h.m} exceeds exact_budget={params.exact_budget}"
    )
    stages.append(StageRecord("exact", "skipped", failure.detail))
    return PipelineRun(failure, tuple(stages))


def _main_script(
    h: Hypergraph,
    t: int,
    allowed: dict[int, frozenset[int]],
    params: PipelineParams,
    stages: list[StageRecord],
) -> dict[int, int] | ColouringFailure:
    """The second rung of colour_main; appends its records to ``stages``."""
    r0 = params.resolved_r0(h.n)
    split = split_by_size(h, r0, params.r1)
    stages.append(
        StageRecord(
            "main:split",
            "ok",
            f"sml={len(split.sml)} med={len(split.med)} lrg={len(split.lrg)}",
        )
    )

    def fail(stage: str, failure: ColouringFailure) -> ColouringFailure:
        stages.append(StageRecord(stage, "failed", failure.detail))
        return ColouringFailure(
            stage, stuck_edge=failure.stuck_edge, detail=failure.detail
        )

    mid_large = tuple(sorted(split.med + split.lrg))
    if mid_large:
        res = reserve_colours(allowed, 2 * params.gamma, params.gamma / 2, params.seed)
        if isinstance(res, ColouringFailure):
            return fail("main:reserve", res)
        reserved = res.colours
        stages.append(
            StageRecord(
                "main:reserve",
                "ok",
                f"|R|={len(reserved)} retries={res.retries_used}",
                seed=params.seed,
            )
        )
    else:
        reserved = frozenset()
        stages.append(StageRecord("main:reserve", "skipped", "no medium or large edges"))

    col: dict[int, int] = {}
    med_set = set(split.med)
    if mid_large:
        residual = {
            e: (allowed[e] & reserved if e in med_set else allowed[e]) for e in mid_large
        }
        sub, ids = subhypergraph(h, mid_large)
        cert = partition_extremal(sub, t, params.delta, params.gamma, r0)
        part = {k: tuple(ids[i] for i in v) for k, v in cert.parts.items()}
        flags = " ".join(
            f"{k}={'T' if v else 'F'}" for k, v in sorted(cert.property_flags.items())
        )
        stages.append(StageRecord("main:partition", "ok", flags))
        if part["H3"]:
            sub3, ids3 = subhypergraph(h, part["H3"])
            got, rep = colour_extremal(
                sub3,
                t,
                {i: residual[orig] for i, orig in enumerate(ids3)},
                delta=params.delta,
                exact_budget=params.exact_budget,
            )
            if isinstance(got, ColouringFailure):
                return fail("main:H3", got)
            col.update({ids3[i]: c for i, c in got.items()})
            stages.append(
                StageRecord(
                    "main:H3",
                    "ok",
                    f"extremal rung: {rep.rung}",
                    colours_used=len(set(got.values())),
                )
            )
        else:
            stages.append(StageRecord("main:H3", "skipped", "empty part"))
        for name in ("H2", "H1"):
            stuck = greedy_extend(h, part[name], residual, col)
            if stuck is not None:
                return fail(
                    f"main:{name}",
                    ColouringFailure(name, stuck_edge=stuck, detail="list exhausted"),
                )
            stages.append(StageRecord(f"main:{name}", "ok", f"{len(part[name])} edges"))

    if split.sml:
        rows = h.view.rows
        lrg_coloured = sum(1 << f for f in split.lrg)
        got = colour_small(
            h,
            split.sml,
            {e: allowed[e] - reserved for e in split.sml},
            {e: taken_colours(rows[e] & lrg_coloured, col) for e in split.sml},
            seed=params.seed + 3,
        )
        if isinstance(got, ColouringFailure):
            return fail("main:sml", got)
        col.update(got)
        stages.append(
            StageRecord(
                "main:sml", "ok", colours_used=len(set(got.values())), seed=params.seed + 3
            )
        )
    else:
        stages.append(StageRecord("main:sml", "skipped", "no small edges"))

    report = validate_colouring(h, col, lists=allowed)
    if not report.valid:
        return fail(
            "main:validate",
            ColouringFailure("validate", detail=f"violations: {report.violations[:3]}"),
        )
    stages.append(StageRecord("main:validate", "ok", colours_used=report.colour_count))
    return col
