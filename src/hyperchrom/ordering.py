"""Edge orderings with forward-degree control.

The central routine ``reorder`` peels a size-monotone ordering from the
back: each step retires one prefix edge with few neighbours left in the
prefix (the last one if it qualifies, else the first that does) to the
front of the suffix.  Either the prefix empties (case A: every edge ends up
with small forward degree) or no prefix edge qualifies (case B), which pins
down a block W of near-equal sizes carrying most of the volume.  The two
partition builders split an outcome at e*, reorder the head again, and
splice the parts into three-part orderings with certified properties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import ceil, floor, isqrt
from typing import Iterable, Mapping

from .exactarith import as_fraction, at_least_scaled_sqrt, fourth_root_enclosure
from .hypercore import (
    ColouringFailure,
    Hypergraph,
    ListMasks,
    edge_list_masks,
    list_masks,
    volume,
)

__all__ = [
    "EdgeOrdering",
    "ReorderOutcome",
    "PartitionCertificate",
    "forward_degrees",
    "size_monotone_ordering",
    "reorder",
    "partition_stability",
    "partition_extremal",
    "R1_DEFAULT",
    "default_r0",
    "greedy_extend",
    "greedy_list_colour",
]


@dataclass(frozen=True)
class EdgeOrdering:
    """A linear order on a set of edge ids (a permutation tuple)."""

    perm: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.perm)) != len(self.perm):
            raise ValueError("ordering repeats an edge id")


@dataclass(frozen=True)
class ReorderOutcome:
    """Result of the local search.

    ``case`` is 'A' (prefix emptied; all forward degrees small) or 'B'
    (stuck at ``e_star`` with block ``W``).  ``certificates`` carries exact
    rationals W1_ratio / W2_volume plus booleans; the volume target premise
    is reported, never assumed.
    """

    ordering: EdgeOrdering
    case: str
    e_star: int | None
    W: tuple[int, ...]
    bound: Fraction
    certificates: dict


@dataclass(frozen=True)
class PartitionCertificate:
    parts: dict[str, tuple[int, ...]]
    ordering: EdgeOrdering
    property_flags: dict[str, bool]
    witness: dict[str, object]
    vacuous: tuple[str, ...]
    notes: dict


def size_monotone_ordering(h: Hypergraph, edge_ids: Iterable[int] | None = None) -> EdgeOrdering:
    """Larger edges first; ties broken by ascending edge id."""
    ids = range(h.m) if edge_ids is None else edge_ids
    return EdgeOrdering(tuple(sorted(ids, key=lambda i: (-len(h.edges[i]), i))))


def forward_degrees(h: Hypergraph, ordering: EdgeOrdering) -> dict[int, int]:
    """For each edge, how many earlier edges of the ordering intersect it."""
    rows = h.view.rows
    out: dict[int, int] = {}
    earlier = 0
    for e in ordering.perm:
        out[e] = (rows[e] & earlier).bit_count()
        earlier |= 1 << e
    return out


def reorder(
    h: Hypergraph,
    t: int,
    tau,
    K,
    edge_ids: Iterable[int] | None = None,
) -> ReorderOutcome:
    """Local-search reordering with forward-degree target t*(1-tau)*n.

    The prefix starts as the size-monotone ordering and the suffix empty.
    Each step retires one prefix edge whose degree into the prefix is at
    most the target: the last prefix edge if it qualifies, otherwise the
    first one that does.  A retired edge leaves the prefix and goes to the
    front of the suffix, so the suffix is the retired edges, latest first.
    Case A: the prefix empties.  Case B: no prefix edge qualifies, and e* is
    the last prefix edge.

    tau must lie in (0,1) and K must be at least 1.  The classical volume
    guarantee additionally wants 1 - tau - 7*tau^(1/4)/K > 0; that premise
    is *evaluated* (conservatively, via rational enclosures of tau^(1/4))
    and reported in the certificates rather than enforced, because useful
    parameter choices at small scale routinely violate it.

    Two facts hold by construction and are not reported: the final prefix
    is a subsequence of the size-monotone order, so it is size-monotone;
    e* has size r and every W member r <= |e| < (1 + 3*x*K^3)*r, x the
    lower enclosure of tau^(1/4), so W1_ratio is 1 or below that factor.
    """
    tau = as_fraction(tau)
    K = as_fraction(K)
    if not 0 < tau < 1:
        raise ValueError("tau must lie in (0, 1)")
    if K < 1:
        raise ValueError("K must be at least 1")
    if t < 1:
        raise ValueError("t must be positive")

    ids = list(range(h.m)) if edge_ids is None else list(edge_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate edge ids")
    prefix = list(size_monotone_ordering(h, ids).perm)
    bound = t * (1 - tau) * h.n
    limit = floor(bound)  # an integer degree d is <= bound iff d <= limit

    # Each prefix edge's degree into the prefix is kept by its position in
    # the size-monotone order.  Degrees only fall, so an edge that fits keeps
    # fitting: ``fitting`` is a heap of the positions that fit (retired ones
    # dropped lazily), whose least live entry is the first prefix edge that
    # fits, and only the edges that do not fit yet (``tight``) have their
    # degree lowered when a neighbour retires.
    rows = h.view.rows
    at = {e: i for i, e in enumerate(prefix)}
    prefix_mask = sum(1 << e for e in prefix)
    degree = [(rows[e] & prefix_mask).bit_count() for e in prefix]
    fitting = [i for i, d in enumerate(degree) if d <= limit]  # ascending: a heap
    tight = sum(1 << e for e, d in zip(prefix, degree) if d > limit)
    left = [True] * len(prefix)
    last = len(prefix) - 1

    retired: list[int] = []  # in retirement order; the suffix reversed
    case = "A"
    e_star: int | None = None
    while last >= 0:
        if degree[last] <= limit:
            i = last
        else:
            while fitting and not left[fitting[0]]:
                heappop(fitting)
            if not fitting:
                case, e_star = "B", prefix[last]
                break
            i = heappop(fitting)
        e = prefix[i]
        left[i] = False
        retired.append(e)
        nbrs = rows[e] & tight
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            j = at[low.bit_length() - 1]
            degree[j] -= 1
            if degree[j] == limit:
                heappush(fitting, j)
                tight ^= low
        while last >= 0 and not left[last]:
            last -= 1
    prefix = [e for e, keep in zip(prefix, left) if keep]
    ordering = EdgeOrdering(tuple(prefix + retired[::-1]))

    x_lo, x_hi = fourth_root_enclosure(tau)
    base_lo = 1 - tau - 7 * x_lo / K
    base_hi = 1 - tau - 7 * x_hi / K
    premise_ok = base_hi > 0
    denom_lo = 1 + 3 * x_lo * K**3
    threshold = t * base_lo * base_lo / denom_lo if base_lo > 0 else Fraction(0)

    certificates: dict = {"premise_ok": premise_ok, "target_volume": threshold}
    w_block: tuple[int, ...] = ()
    if case == "B":
        assert e_star is not None
        r = len(h.edges[e_star])
        cap = ceil(denom_lo * r)  # an integer size s is < denom_lo*r iff s < cap
        members = [e for e in prefix if len(h.edges[e]) == r or r <= len(h.edges[e]) < cap]
        w_block = tuple(members)
        if prefix[len(prefix) - len(members) :] != members:  # pragma: no cover - defensive
            raise RuntimeError("internal: W is not a suffix of the prefix")
        w_sizes = [len(h.edges[e]) for e in w_block]
        w_vol = volume(h, w_block) if h.n >= 2 else Fraction(0)
        certificates["W1_ratio"] = Fraction(max(w_sizes), min(w_sizes))
        certificates["W2_volume"] = w_vol
        certificates["w2_ok"] = w_vol >= threshold
    else:
        certificates["W1_ratio"] = Fraction(1)
        certificates["W2_volume"] = Fraction(0)
        certificates["w2_ok"] = threshold == 0
        certificates["vacuous"] = True

    # O1: edges past the final prefix keep small forward degree, recomputed
    # from the final ordering, not read off the peel's degree bookkeeping
    fwd = forward_degrees(h, ordering)
    certificates["O1_ok"] = all(fwd[e] <= limit for e in retired)

    return ReorderOutcome(
        ordering=ordering,
        case=case,
        e_star=e_star,
        W=w_block,
        bound=bound,
        certificates=certificates,
    )


def _split(outcome: ReorderOutcome) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(the edges up to and including e*, the tail); in case A all is tail."""
    perm = outcome.ordering.perm
    cut = 0 if outcome.case == "A" else perm.index(outcome.e_star) + 1
    return perm[:cut], perm[cut:]


def _certify(
    h: Hypergraph,
    parts: dict[str, tuple[int, ...]],
    properties: list[tuple[str, bool, object, bool]],
    degree_caps: list[tuple[str, tuple[int, ...], Fraction | int]],
    notes: dict,
) -> PartitionCertificate:
    """Splice ``parts`` in order and certify the result.

    The final ordering is the parts concatenated in order, so each part
    precedes the next by construction and no flag restates it.
    ``properties`` holds (name, ok, witness, vacuous) for flags read off the
    parts alone; a failed flag records its witness unless that is None.
    ``degree_caps`` holds (name, part, cap): every edge of the part has
    forward degree at most cap, else the first edge over it is the witness.
    """
    final = EdgeOrdering(tuple(e for part in parts.values() for e in part))
    fwd = forward_degrees(h, final)
    checks = list(properties)
    for name, part, cap in degree_caps:
        limit = floor(cap)
        over = next((e for e in part if fwd[e] > limit), None)
        checks.append((name, over is None, over, not part))

    flags: dict[str, bool] = {}
    witness: dict[str, object] = {}
    vacuous: list[str] = []
    for name, ok, wit, empty in checks:
        flags[name] = empty or ok
        if empty:
            vacuous.append(name)
        elif not ok and wit is not None:
            witness[name] = wit
    return PartitionCertificate(
        parts=parts,
        ordering=final,
        property_flags=flags,
        witness=witness,
        vacuous=tuple(vacuous),
        notes=notes,
    )


def partition_stability(
    h: Hypergraph, t: int, sigma, delta, edge_ids: Iterable[int] | None = None
) -> PartitionCertificate:
    """Three-part splice H2 < W < H1 with near-uniform W.

    Runs the local search at (2*sigma, 1); case A yields the trivial
    partition (everything in H1).  In case B the block W is the stuck
    interval, H1 what follows it, and the part before W is re-reordered at
    (1 - 1/2000, 2000^2) to become H2.  Flags: P1 size ratio on W within
    1+delta, P2 W-volume at least (1-delta)t, P3 all H2 edges at least as
    large as W's largest, FD1/FD2 forward-degree targets on H1/H2.  With
    ``edge_ids`` only those edges of H are partitioned, as in ``reorder``.
    """
    sigma = as_fraction(sigma)
    delta = as_fraction(delta)
    if not 0 < sigma < Fraction(1, 2):
        raise ValueError("sigma must lie in (0, 1/2)")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")

    outer = reorder(h, t, 2 * sigma, 1, edge_ids=edge_ids)
    notes: dict = {"outer_case": outer.case, "outer_certificates": outer.certificates}
    head, h1 = _split(outer)
    w_block = outer.W
    h2: tuple[int, ...] = ()
    if outer.case == "B":
        h2_ids = head[: len(head) - len(w_block)]
        inner = reorder(h, t, Fraction(1999, 2000), Fraction(2000) ** 2, edge_ids=h2_ids)
        notes["inner_case"] = inner.case
        h2 = inner.ordering.perm

    sizes = [len(e) for e in h.edges]
    w_sizes = [sizes[e] for e in w_block]
    w_max, w_min = max(w_sizes, default=0), min(w_sizes, default=0)
    w_vol = outer.certificates["W2_volume"] if w_block and h.n >= 2 else None
    p2_wit = None if w_vol is None else str(w_vol)
    p3_wit = next((e for e in h2 if sizes[e] < w_max), None)
    properties = [
        ("P1", w_max <= (1 + delta) * w_min, (w_max, w_min), not w_block),
        ("P2", w_vol is not None and w_vol >= (1 - delta) * t, p2_wit, not w_block),
        ("P3", p3_wit is None, p3_wit, not h2 or not w_block),
    ]
    degree_caps = [
        ("FD1", h1, (1 - 2 * sigma) * t * h.n),
        ("FD2", h2, Fraction(t * h.n, 2000)),
    ]
    parts = {"H2": h2, "W": w_block, "H1": h1}
    return _certify(h, parts, properties, degree_caps, notes)


R1_DEFAULT = 4  # edges of size <= r1 are small


def default_r0(n: int, r1: int = R1_DEFAULT) -> int:
    """The r0 (edges above it are large) used when none is given:
    ceil(sqrt(n)) + 2, never below r1."""
    return max(isqrt(n - 1) + 3 if n > 0 else 2, r1)


def partition_extremal(
    h: Hypergraph,
    t: int,
    delta,
    gamma,
    r0: int,
    edge_ids: Iterable[int] | None = None,
) -> PartitionCertificate:
    """Three-part splice H3 < H2 < H1 for the near-extremal pipeline.

    First reorder at (1-gamma, gamma^-2): in case A everything is H1 (small
    forward degrees).  Otherwise the tail after e* is H1 and the prefix is
    reordered again at (delta/4, 1), its own case-B prefix becoming H3 and
    the rest H2.  Flags: P'1 every edge of size <= r0 lies in H1, P'2 all H3
    edges have size >= (1-2*delta)*sqrt(n), FD'1 forward degree <= t*n - 2
    on H2, FD'2 forward degree <= gamma*t*n on H1.  With ``edge_ids`` only
    those edges of H are partitioned (and P'1 scans them in the order
    given), as in ``reorder``.
    """
    delta = as_fraction(delta)
    gamma = as_fraction(gamma)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if r0 < 0:
        raise ValueError("r0 must be non-negative")

    ids = range(h.m) if edge_ids is None else tuple(edge_ids)
    outer = reorder(h, t, 1 - gamma, 1 / gamma**2, edge_ids=ids)
    notes: dict = {"outer_case": outer.case, "outer_certificates": outer.certificates}
    head, h1 = _split(outer)
    h3: tuple[int, ...] = ()
    h2: tuple[int, ...] = ()
    if outer.case == "B":
        inner = reorder(h, t, delta / 4, 1, edge_ids=head)
        notes["inner_case"] = inner.case
        h3, h2 = _split(inner)

    sizes = [len(e) for e in h.edges]
    in_h1 = set(h1)
    p1_wit = next((e for e in ids if sizes[e] <= r0 and e not in in_h1), None)
    too_small = {
        s for s in {sizes[e] for e in h3} if not at_least_scaled_sqrt(s, 1 - 2 * delta, h.n)
    }
    p2_wit = next((e for e in h3 if sizes[e] in too_small), None)
    properties = [
        ("P'1", p1_wit is None, p1_wit, not ids),
        ("P'2", p2_wit is None, p2_wit, not h3),
    ]
    degree_caps = [
        ("FD'1", h2, t * h.n - 2),
        ("FD'2", h1, gamma * t * h.n),
    ]
    parts = {"H3": h3, "H2": h2, "H1": h1}
    return _certify(h, parts, properties, degree_caps, notes)


def vertex_palettes(
    h: Hypergraph, col: Mapping[int, int], position: Mapping[int, int]
) -> list[int]:
    """``palette[v]``: the colours ``col`` gives the edges through vertex v,
    as a mask of bits ``position[c]``; colours without a position (outside
    every list in play) cannot conflict with a list colour and are left out.
    """
    edges = h.edges
    palette = [0] * h.n
    for f, c in col.items():
        i = position.get(c)
        if i is not None:
            bit = 1 << i
            for v in edges[f]:
                palette[v] |= bit
    return palette


def _nth_bit(mask: int, k: int) -> int:
    """The k-th lowest set bit of ``mask`` (k from 0, below its popcount),
    as a one-bit mask.

    Its position p is found by binary search on the popcount of
    ``mask >> p``, which must be the j = popcount - k bits from p up.  As k
    set bits lie below p, p is at least k and at most k plus the number of
    clear bits below the top one, so on a dense mask the search is short.
    """
    size = mask.bit_length()
    j = mask.bit_count() - k
    lo, hi = k, size - j + 1  # lo <= p < hi
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if (mask >> mid).bit_count() >= j:
            lo = mid
        else:
            hi = mid
    return 1 << lo


def greedy_extend(
    h: Hypergraph,
    order: Iterable[int],
    lists: Mapping[int, Iterable[int]] | ListMasks,
    col: dict[int, int],
    rng: random.Random | None = None,
) -> int | None:
    """Colour the edges of ``order`` (distinct, none yet in ``col``) one at a
    time into ``col``.

    The lists become bitmasks over their sorted union (``list_masks``; a
    ``ListMasks`` is used as it is).  ``palette[v]`` is the mask of colours
    of the coloured edges through vertex v, seeded from ``col`` (which may
    arrive partly filled).  Two edges meet exactly when they share a
    vertex, so an edge may not take a colour of the OR of its vertices'
    palettes; its free colours are its list mask minus that OR.  It takes
    the smallest free colour (the lowest set bit), or with ``rng`` the one
    at rank ``rng.randrange(popcount)``: as ``choice(seq)`` is
    ``seq[_randbelow(len(seq))]`` and ``randrange(n)`` is ``_randbelow(n)``
    (CPython 3.10-3.12), that is the colour ``rng.choice(sorted(free))``
    gives, from the same random bits.  Returns the first edge left without
    a colour, or None when every edge got one.
    """
    order = list(order)
    if not order:
        return None
    lm = list_masks(lists, order)
    colours, masks, edges = lm.colours, lm.masks, h.edges
    palette = vertex_palettes(h, col, lm.position)
    for e in order:
        verts = edges[e]
        taken = 0
        for v in verts:
            taken |= palette[v]
        free = masks[e] & ~taken
        if not free:
            return e
        if rng is None:
            bit = free & -free
        else:
            bit = _nth_bit(free, rng.randrange(free.bit_count()))
        col[e] = colours[bit.bit_length() - 1]
        for v in verts:
            palette[v] |= bit
    return None


def greedy_list_colour(
    h: Hypergraph,
    lists: Mapping[int, Iterable[int]] | ListMasks,
    ordering: EdgeOrdering | None = None,
) -> dict[int, int] | ColouringFailure:
    """Colour edges in order, always taking the smallest colour not used by
    an earlier intersecting edge.

    Succeeds whenever every list exceeds the edge's forward degree; on
    failure the report names the first stuck edge.
    """
    allowed = edge_list_masks(h, lists)
    if ordering is None:
        ordering = EdgeOrdering(tuple(range(h.m)))
    if sorted(ordering.perm) != list(range(h.m)):
        raise ValueError("ordering must cover exactly the edges of H")
    col: dict[int, int] = {}
    stuck = greedy_extend(h, ordering.perm, allowed, col)
    if stuck is not None:
        return ColouringFailure("greedy", stuck_edge=stuck, detail="list exhausted")
    return col
