"""Exact reference algorithms: chromatic index, list colourability and
exhaustive small-instance enumeration.

Both oracles check their certificates here and leave the search to the one
search in ``_kernel_py``, on the line graph's bitmask rows; it alone polls
the time cap, which counts wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from . import _kernel_py
from .hypercore import (
    Hypergraph,
    ListMasks,
    canonical_form,
    edge_list_masks,
    star_pigeonhole,
    validate_colouring,
)

__all__ = [
    "OracleBudget",
    "BudgetExceeded",
    "ListColourResult",
    "exact_chromatic_index",
    "exact_list_colourable",
    "enumerate_hypergraphs",
    "kernel_name",
]


def kernel_name() -> str:
    """Name of the chromatic kernel ``exact_chromatic_index`` runs."""
    return "python"


@dataclass(frozen=True)
class OracleBudget:
    """Resource limits for the exact routines."""

    max_edges: int = 24
    time_cap_ms: int = 60_000

    def __post_init__(self):
        if self.max_edges < 1 or self.time_cap_ms < 1:
            raise ValueError("budget fields must be positive")


@dataclass(frozen=True)
class BudgetExceeded:
    """Typed refusal: the oracle never returns a number it has not proved.

    ``lower`` and ``upper`` are the best proven bounds reached before the
    refusal, when it reached any.
    """

    kind: str  # 'edges' | 'time'
    detail: str = ""
    lower: int | None = None
    upper: int | None = None

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class ListColourResult:
    status: str  # 'yes' | 'no' | 'budget'
    witness: dict[int, int] | None = None
    detail: str = ""


def exact_chromatic_index(
    h: Hypergraph, budget: OracleBudget | None = None
) -> int | BudgetExceeded:
    """Chromatic index of H, i.e. the chromatic number of its line graph.

    Branch and bound whose lower bound is max(Δ(H), greedy clique): the
    edges through one vertex form a clique of the line graph, so Δ(H) <= χ'.
    When that bound meets the greedy colouring no search runs, and the
    answer stands at any e(H): PG(2, q), whose lines pairwise meet, is
    answered whatever its size.  Otherwise ``_kernel_py.solve_chromatic``
    closes the gap with the kernel's one search, here with first-use colour
    symmetry breaking and the star check on the vertex stars at every node.
    Refuses with a typed BudgetExceeded instead of guessing when a limit is
    hit: past ``max_edges`` with the two bounds as ``lower`` and ``upper``;
    at the time cap with Δ(H) as ``lower`` and the colours of its best
    colouring as ``upper``.
    """
    budget = budget or OracleBudget()
    if h.m == 0:
        return 0
    adj = list(h.view.rows)
    delta = max(h.view.degrees)
    if h.m > budget.max_edges:
        lower, col = _kernel_py._bounds(adj, delta)
        upper = max(col) + 1
        if lower == upper:
            return upper
        detail = f"e(H)={h.m} exceeds {budget.max_edges}"
        return BudgetExceeded("edges", detail, lower=lower, upper=upper)
    chi, _col, completed = _kernel_py.solve_chromatic(
        adj, budget.time_cap_ms, lower=delta, cliques=h.view.incidence
    )
    if not completed:
        return BudgetExceeded(
            "time", f"best upper bound so far: {chi}", lower=delta, upper=chi
        )
    return chi


def exact_list_colourable(
    h: Hypergraph,
    lists: Mapping[int, Iterable[int]] | ListMasks,
    budget: OracleBudget | None = None,
) -> ListColourResult:
    """Decide list colourability exactly.

    The colours, which may be any integers, are numbered by rank
    (``edge_list_masks``; a ``ListMasks`` is used as it is).  A vertex
    whose edges outnumber the union of their lists (``star_pigeonhole``)
    settles 'no' at any e(H), before the edge budget and any search, and
    the detail is that Hall violator's: ``Hall violator: k edges, c
    colours``.  Past ``max_edges`` it is refused as 'budget'.  Otherwise
    ``_kernel_py.list_colour`` searches the line graph: it branches on the
    edge with the fewest colours left, and fails every node where a
    star's uncoloured edges outnumber the colours they have left between
    them, the same pigeonhole check on what the search has not coloured.
    A 'yes' carries a witness colouring in the original colours, checked
    with ``validate_colouring`` against the lists (a clash is an internal
    error, raised); a time cap hit is refused as 'budget'.
    """
    budget = budget or OracleBudget()
    lm = edge_list_masks(h, lists)
    if h.m == 0:
        return ListColourResult("yes", witness={})
    star = star_pigeonhole(h, lm, range(h.m))
    if star is not None:
        return ListColourResult("no", detail=star.detail)
    if h.m > budget.max_edges:
        return ListColourResult("budget", detail=f"e(H)={h.m} exceeds {budget.max_edges}")
    masks = [lm.masks[e] for e in range(h.m)]
    col, completed = _kernel_py.list_colour(
        list(h.view.rows), masks, budget.time_cap_ms, cliques=h.view.incidence
    )
    if not completed:
        return ListColourResult("budget", detail="time cap hit")
    if col is None:
        return ListColourResult("no")
    witness = {e: lm.colours[c] for e, c in enumerate(col)}
    # checked against the caller's own lists where given, not the masks the
    # search used, so a wrong mask cannot vouch for itself
    if isinstance(lists, ListMasks):
        lists = {e: lm.decode(lm.masks[e]) for e in range(h.m)}
    report = validate_colouring(h, witness, lists)
    if not report.valid:
        raise RuntimeError(f"internal: list search witness fails its lists: {report.violations}")
    return ListColourResult("yes", witness=witness)


def enumerate_hypergraphs(
    n: int,
    t: int,
    *,
    min_size: int = 2,
    max_edges: int = 10,
    intersecting: bool = False,
) -> Iterator[Hypergraph]:
    """Stream all non-empty codegree-<=t hypergraphs on n vertices, up to
    isomorphism.

    Edge multisets over subsets of size >= min_size, at most max_edges
    edges, optionally restricted to pairwise-intersecting families.  Hard
    guards n <= 6 and max_edges <= 10 keep the search exhaustible; exactly
    one representative per isomorphism class is yielded (dedup by canonical
    form).  The empty multiset is skipped.
    """
    if not 1 <= n <= 6:
        raise ValueError("enumeration supports 1 <= n <= 6")
    if not 1 <= max_edges <= 10:
        raise ValueError("enumeration supports 1 <= max_edges <= 10")
    if t < 1:
        raise ValueError("t must be positive")
    if min_size < 1:
        raise ValueError("min_size must be positive")

    subsets = []
    for mask in range(1, 1 << n):
        if mask.bit_count() >= min_size:
            subsets.append(mask)
    subsets.sort(key=lambda m: (m.bit_count(), m))
    verts_of = {
        mask: tuple(v for v in range(n) if mask >> v & 1) for mask in subsets
    }

    seen: set[tuple] = set()
    chosen: list[int] = []
    pair_counts: dict[tuple[int, int], int] = {}

    def pairs(mask: int) -> list[tuple[int, int]]:
        vs = verts_of[mask]
        return [(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))]

    def emit() -> Hypergraph | None:
        h = Hypergraph(n, [verts_of[m] for m in chosen])
        key = canonical_form(h)
        if key in seen:
            return None
        seen.add(key)
        return h

    def rec(start: int):
        for idx in range(start, len(subsets)):
            mask = subsets[idx]
            if intersecting and any(mask & c == 0 for c in chosen):
                continue
            ps = pairs(mask)
            if any(pair_counts.get(p, 0) >= t for p in ps):
                continue
            for p in ps:
                pair_counts[p] = pair_counts.get(p, 0) + 1
            chosen.append(mask)
            h = emit()
            if h is not None:
                yield h
            if len(chosen) < max_edges:
                yield from rec(idx)
            chosen.pop()
            for p in ps:
                pair_counts[p] -= 1

    yield from rec(0)
