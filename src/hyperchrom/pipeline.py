"""End-to-end list-colouring pipelines built as fallback ladders.

Two entry points.  ``colour_main``, the default ``color``, answers
intersecting instances exactly with one matching; on the others it runs one
staged script around ``partition_extremal`` and the greedy, then the exact
solver on tiny instances.  ``colour_stability`` is a library entry that no
ladder calls: it splits edges by size, reserves a random colour block R,
partitions the large edges into H2 < W < H1 and colours W from the
unreserved colours, H2 from R, H1 greedily, then the medium edges from R
and the small ones from the rest.

Small edges (``colour_small``) take one deterministic greedy pass first;
its seeded random passes are only the fallback, so ``params.seed`` reaches
the ``sml`` stage only when that pass gets stuck.

The staged script is only guaranteed to work out at astronomically large n;
at usable sizes any stage may fail, so every run carries a stage-by-stage
report and failures are values, never exceptions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .exactarith import as_fraction, cmp_to_scaled_sqrt
from .hypercore import (
    ColouringFailure,
    HallViolator,
    Hypergraph,
    ListMasks,
    degree_stats,
    distinct_representatives,
    edge_list_masks,
    list_masks,
    predicates,
    star_pigeonhole,
    subhypergraph,
    validate_colouring,
)
from .ordering import (
    R1_DEFAULT,
    default_r0,
    greedy_extend,
    partition_extremal,
    partition_stability,
    vertex_palettes,
)

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
_SMALL_PASSES = 8  # seeded random greedy passes, colour_small's fallback


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

    r0=None means "computed per instance" by ``ordering.default_r0``:
    ceil(sqrt(n)) + 2, never below r1.  sigma is read only by
    ``colour_stability``.
    """

    delta: Fraction = Fraction(1, 10)
    gamma: Fraction = Fraction(1, 8)
    sigma: Fraction = Fraction(1, 50)
    r0: int | None = None
    r1: int = R1_DEFAULT
    seed: int = 0
    exact_budget: int = 12

    def __post_init__(self):
        for name in ("delta", "gamma", "sigma"):
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
        return default_r0(n, self.r1) if self.r0 is None else self.r0


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


def _below(x: float, p: int, q: int) -> bool:
    """Exactly x < p/q, for a float x in [0, 1) and integers p >= 0, q > 0."""
    num, den = x.as_integer_ratio()
    return num * q < p * den


def reserve_colours(
    lists: Mapping[int, Iterable[int]] | ListMasks,
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
    # colours are drawn in ascending order, bit by bit of the lists' masks;
    # the window depends only on the distinct lists
    lm = list_masks(lists)
    distinct = [(cs, cs.bit_count()) for cs in set(lm.masks.values())]
    # with gamma = gp/gq and xi = xp/xq the window, scaled by den = gq*xq,
    # reads lo*|C| <= den*|R ∩ C| <= hi*|C| in integers
    gp, gq, xp, xq = gamma.numerator, gamma.denominator, xi.numerator, xi.denominator
    lo, hi, den = gp * xq - xp * gq, gp * xq + xp * gq, gq * xq
    for attempt in range(100):
        rng = random.Random((seed * 1_000_003 + attempt) & _MASK64)
        reserved = 0
        for i in range(len(lm.colours)):
            if _below(rng.random(), gp, gq):
                reserved |= 1 << i
        if all(
            lo * size <= (reserved & cs).bit_count() * den <= hi * size
            for cs, size in distinct
        ):
            return ReservedColours(lm.decode(reserved), gamma, xi, seed, attempt)
    return ColouringFailure(
        "reserve", detail="no draw met the per-edge window in 100 attempts"
    )


def colour_small(
    h: Hypergraph,
    edge_ids: Iterable[int],
    lists: Mapping[int, Iterable[int]] | ListMasks,
    coloured: Mapping[int, int] | None = None,
    *,
    seed: int = 0,
) -> dict[int, int] | ColouringFailure:
    """Colour a block of (typically small) edges from lists, avoiding the
    colours ``coloured`` (edge -> colour, none of them in the block) gives
    the edges that meet each one.

    Those colours are the OR of the edge's vertex palettes
    (``ordering.vertex_palettes``, in the lists' own numbering), cleared
    from its mask before any pass; a mask left empty ends the call ("list
    emptied by forbidden colours").  Before any pass, a vertex whose block
    edges outnumber the colours left to them (``star_pigeonhole``) ends the
    call: its failure carries that Hall violator's detail (``Hall violator:
    k edges, c colours``) and the lowest edge id of its star.  Then one
    deterministic pass, by descending degree inside the block with the
    lowest free colour, and only if it gets stuck ``_SMALL_PASSES`` seeded
    random-order greedy passes with random colour picks as the fallback, so
    ``seed`` matters only when the deterministic pass fails.  When every
    pass fails, the failure names the deterministic pass's stuck edge.
    Stands in for the semi-random nibble, which has nothing to say at this
    scale.
    """
    ids = list(edge_ids)
    lm = list_masks(lists, ids)
    palette = vertex_palettes(h, coloured, lm.position) if coloured else None
    edges, masks = h.edges, {}
    for e in ids:
        cs = lm.masks[e]
        if palette is not None:
            taken = 0
            for v in edges[e]:
                taken |= palette[v]
            cs &= ~taken
        if not cs:
            return ColouringFailure(
                "small", stuck_edge=e, detail="list emptied by forbidden colours"
            )
        masks[e] = cs
    allowed = lm._replace(masks=masks)
    star = star_pigeonhole(h, allowed, ids)
    if star is not None:
        return ColouringFailure("small", stuck_edge=star.edges[0], detail=star.detail)
    rows, block = h.view.rows, sum(1 << e for e in ids)
    col: dict[int, int] = {}
    stuck = greedy_extend(
        h, sorted(ids, key=lambda e: (-(rows[e] & block).bit_count(), e)), allowed, col
    )
    if stuck is None:
        return col
    for attempt in range(_SMALL_PASSES):
        rng = random.Random((seed * 1_000_003 + attempt) & _MASK64)
        order = ids[:]
        rng.shuffle(order)
        col = {}
        if greedy_extend(h, order, allowed, col, rng) is None:
            return col
    return ColouringFailure(
        "small",
        stuck_edge=stuck,
        detail=f"greedy stuck after {_SMALL_PASSES} randomized passes",
    )


def colour_sparse_block(
    h: Hypergraph,
    edge_ids: Iterable[int],
    lists: Mapping[int, Iterable[int]] | ListMasks,
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
    rows, block = h.view.rows, sum(1 << e for e in ids)
    col: dict[int, int] = {}
    stuck = greedy_extend(
        h,
        sorted(ids, key=lambda e: ((rows[e] & block).bit_count(), e)),
        lists,
        col,
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
    script = _Script(h, t, lists, edge_list_masks(h, lists), params, prefix="")
    outcome = _run_script(script, params.sigma, 2, _stability_middle)
    return PipelineRun(outcome, tuple(script.stages))


@dataclass
class _Script:
    """One run of a staged script: its inputs and the records it has written.

    ``lists`` holds the lists as given, against which the result is
    validated; the stages work on ``lm``, the same lists as bitmasks.
    """

    h: Hypergraph
    t: int
    lists: Mapping[int, Iterable[int]]
    lm: ListMasks
    params: PipelineParams
    prefix: str  # prepended to every stage name
    stages: list[StageRecord] = field(default_factory=list)

    def record(self, stage: str, status: str, detail: str = "", **kw) -> None:
        self.stages.append(StageRecord(self.prefix + stage, status, detail, **kw))

    def fail(
        self, stage: str, detail: str, stuck_edge: int | None = None
    ) -> ColouringFailure:
        self.record(stage, "failed", detail)
        return ColouringFailure(self.prefix + stage, stuck_edge=stuck_edge, detail=detail)


def _run_script(
    s: _Script,
    rate: Fraction,
    sml_seed: int,
    middle: Callable[..., ColouringFailure | None],
) -> dict[int, int] | ColouringFailure:
    """The frame both staged scripts share: split, reserve, middle, sml, validate.

    The reserve R takes each colour with probability 2*rate, within a
    rate/2 window per edge, and is skipped when no medium or large edges
    exist, since only they draw on R.  ``middle`` colours the medium and
    large edges into the colouring and returns a failure or None.  Small
    edges then take C\\R, avoiding the colours of intersecting large edges,
    with seed ``params.seed + sml_seed``.
    """
    h, lm, params = s.h, s.lm, s.params
    split = split_by_size(h, params.resolved_r0(h.n), params.r1)
    s.record(
        "split",
        "ok",
        f"sml={len(split.sml)} med={len(split.med)} lrg={len(split.lrg)} "
        f"r0={split.r0} r1={split.r1}",
    )
    if split.med or split.lrg:
        res = reserve_colours(lm, 2 * rate, rate / 2, params.seed)
        if isinstance(res, ColouringFailure):
            return s.fail("reserve", res.detail)
        reserved = lm.mask(res.colours)
        s.record(
            "reserve",
            "ok",
            f"|R|={len(res.colours)} retries={res.retries_used}",
            seed=params.seed,
        )
    else:
        reserved = 0
        s.record("reserve", "skipped", "no medium or large edges")

    col: dict[int, int] = {}
    failure = middle(s, split, reserved, col)
    if failure is not None:
        return failure

    if split.sml:
        lrg_col = {f: col[f] for f in split.lrg}
        got = colour_small(
            h,
            split.sml,
            _restrict(lm, split.sml, ~reserved),
            lrg_col,
            seed=params.seed + sml_seed,
        )
        if isinstance(got, ColouringFailure):
            return s.fail("sml", got.detail, got.stuck_edge)
        # sml colours avoid R while med colours sit inside it, so the two
        # blocks can never collide; anything else is a bug, not bad luck.
        if lm.mask(got.values()) & lm.mask(col[e] for e in split.med if e in col):
            raise RuntimeError("internal: small and medium edges share a colour")
        col.update(got)
        s.record(
            "sml", "ok", colours_used=len(set(got.values())), seed=params.seed + sml_seed
        )
    else:
        s.record("sml", "skipped", "no small edges")

    report = validate_colouring(h, col, lists=s.lists)
    if not report.valid:
        return s.fail("validate", f"violations: {report.violations[:3]}")
    s.record("validate", "ok", colours_used=report.colour_count)
    return col


def _partition(
    s: _Script, stage: str, edge_ids: tuple[int, ...], partition, *args
) -> dict[str, tuple[int, ...]]:
    """Run ``partition`` on the edges ``edge_ids`` of H and record its
    property flags."""
    cert = partition(s.h, s.t, *args, edge_ids=edge_ids)
    flags = " ".join(
        f"{k}={'T' if v else 'F'}" for k, v in sorted(cert.property_flags.items())
    )
    s.record(stage, "ok", flags)
    return cert.parts


def _restrict(lm: ListMasks, ids: Iterable[int], keep: int) -> ListMasks:
    """The lists of ``ids`` cut down to the colours of the mask ``keep``:
    C∩R is ``_restrict(lm, ids, R)`` and C\\R is ``_restrict(lm, ids, ~R)``."""
    masks = lm.masks
    return lm._replace(masks={e: masks[e] & keep for e in ids})


def _stability_middle(
    s: _Script, split: SizeSplit, reserved: int, col: dict[int, int]
) -> ColouringFailure | None:
    """Large edges as W / H2 / H1, then the medium edges from C∩R."""
    h, t, lm, params = s.h, s.t, s.lm, s.params
    if split.lrg:
        part = _partition(
            s, "lrg-partition", split.lrg, partition_stability, params.sigma, params.delta
        )
        w_col, w_report = colour_sparse_block(
            h,
            part["W"],
            _restrict(lm, part["W"], ~reserved),
            t=t,
            zeta=params.sigma,
            alpha=params.delta,
        )
        if isinstance(w_col, ColouringFailure):
            return s.fail("lrg-W", w_col.detail, w_col.stuck_edge)
        col.update(w_col)
        s.record(
            "lrg-W",
            "ok",
            " ".join(f"{k}={v}" for k, v in w_report.items()),
            colours_used=len(set(w_col.values())),
        )
        stuck = greedy_extend(h, part["H2"], _restrict(lm, part["H2"], reserved), col)
        if stuck is not None:
            return s.fail("lrg-H2", "reserved list exhausted", stuck)
        s.record("lrg-H2", "ok", f"{len(part['H2'])} edges from the reserve")
        stuck = greedy_extend(h, part["H1"], _restrict(lm, part["H1"], ~reserved), col)
        if stuck is not None:
            return s.fail("lrg-H1", "list exhausted", stuck)
        s.record("lrg-H1", "ok", f"{len(part['H1'])} edges")
    else:
        s.record("lrg-partition", "skipped", "no large edges")

    if not split.med:
        s.record("med", "skipped", "no medium edges")
        return None
    got = colour_small(
        h,
        split.med,
        _restrict(lm, split.med, reserved),
        col,
        seed=params.seed + 1,
    )
    if isinstance(got, ColouringFailure):
        return s.fail("med", got.detail, got.stuck_edge)
    col.update(got)
    s.record("med", "ok", colours_used=len(set(got.values())), seed=params.seed + 1)
    return None


def colour_main(
    h: Hypergraph,
    t: int,
    lists: Mapping[int, Iterable[int]],
    params: PipelineParams | None = None,
) -> PipelineRun:
    """Full ladder: the main script, then exact search.

    An intersecting H (every two edges meet, as in t-fold planes and
    near-pencils) skips the ladder: see ``_colour_intersecting``.  The main
    script, whose stages are prefixed ``main:``, reserves a block R with
    probability 2*gamma, gives medium edges C∩R and large edges their full
    lists, partitions med∪lrg into H3 < H2 < H1 and colours it greedily in
    that order (H3 in the ``H2`` stage), then the small edges from C\\R.  If
    it fails, ``exact`` searches for a colouring when e(H) <= exact_budget;
    a failed ``exact`` stage carries the oracle's detail (a Hall violator
    for a "no" settled by a star, the cap for "budget"), or "no proper
    colouring from these lists" when the search gives none.
    """
    if t < 1:
        raise ValueError("t must be positive")
    params = params or PipelineParams()
    lm = edge_list_masks(h, lists)
    if h.m and predicates(h).is_intersecting:
        return _colour_intersecting(h, lists, lm)
    script = _Script(h, t, lists, lm, params, prefix="main:")
    outcome = _run_script(script, params.gamma, 3, _extremal_middle)
    stages = script.stages
    if not isinstance(outcome, ColouringFailure):
        return PipelineRun(outcome, tuple(stages))

    if h.m <= params.exact_budget:
        from .oracle import OracleBudget, exact_list_colourable

        res = exact_list_colourable(h, lm, OracleBudget(max_edges=max(h.m, 1)))
        if res.status == "yes":
            stages.append(
                StageRecord(
                    "exact",
                    "ok",
                    colours_used=len(set(res.witness.values())) if res.witness else 0,
                )
            )
            return PipelineRun(dict(res.witness or {}), tuple(stages))
        detail = res.detail or "no proper colouring from these lists"
        failure = ColouringFailure("exact", detail=detail)
        stages.append(StageRecord("exact", "failed", failure.detail))
        return PipelineRun(failure, tuple(stages))
    failure = ColouringFailure(
        "exact", detail=f"e(H)={h.m} exceeds exact_budget={params.exact_budget}"
    )
    stages.append(StageRecord("exact", "skipped", failure.detail))
    return PipelineRun(failure, tuple(stages))


def _colour_intersecting(
    h: Hypergraph, lists: Mapping[int, Iterable[int]], lm: ListMasks
) -> PipelineRun:
    """The exact answer for an intersecting H, as one ``exact`` stage.

    Every two edges meet, so a proper colouring gives all edges pairwise
    different colours: it is a system of distinct representatives of the
    lists, which one bipartite matching finds or refutes with a Hall
    violator (Hall 1935).  The matching is polynomial, so ``exact_budget``
    does not apply.
    """
    got = distinct_representatives(lm, range(h.m))
    if isinstance(got, HallViolator):
        failure = ColouringFailure("exact", detail=got.detail)
        return PipelineRun(failure, (StageRecord("exact", "failed", failure.detail),))
    report = validate_colouring(h, got, lists=lists)
    if not report.valid:
        raise RuntimeError(f"internal: representatives clash: {report.violations[:3]}")
    stage = StageRecord(
        "exact",
        "ok",
        "intersecting: distinct representatives",
        colours_used=report.colour_count,
    )
    return PipelineRun(got, (stage,))


def _extremal_middle(
    s: _Script, split: SizeSplit, reserved: int, col: dict[int, int]
) -> ColouringFailure | None:
    """Medium edges keep C∩R and large edges their full lists; med∪lrg is
    partitioned into H3 < H2 < H1 and coloured greedily in that order, H3
    inside the ``H2`` stage."""
    mid_large = tuple(sorted(split.med + split.lrg))
    if not mid_large:
        return None
    h, lm, params = s.h, s.lm, s.params
    masks = lm.masks
    residual = {e: masks[e] for e in split.lrg}
    residual.update((e, masks[e] & reserved) for e in split.med)
    residual = lm._replace(masks=residual)
    part = _partition(
        s, "partition", mid_large, partition_extremal, params.delta, params.gamma, split.r0
    )
    for name, edges in (("H2", part["H3"] + part["H2"]), ("H1", part["H1"])):
        stuck = greedy_extend(h, edges, residual, col)
        if stuck is not None:
            return s.fail(name, "list exhausted", stuck)
        s.record(name, "ok", f"{len(edges)} edges")
    return None
