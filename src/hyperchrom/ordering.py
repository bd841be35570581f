"""Edge orderings with forward-degree control.

The central routine ``reorder`` runs a local search over a size-monotone
ordering: it repeatedly either retires the last prefix edge (when its
forward degree is already small) or moves some low-forward-degree prefix
edge past it.  Either the prefix empties (case A: every edge ends up with
small forward degree) or the search sticks (case B), which pins down a block
W of near-equal sizes carrying most of the volume.  The two partition
builders splice reorderings of the leftover block into three-part orderings
with certified properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .exactarith import as_fraction, at_least_scaled_sqrt, fourth_root_enclosure
from .hypercore import ColouringFailure, Hypergraph, mask_bits, normalize_lists, volume

__all__ = [
    "EdgeOrdering",
    "ReorderOutcome",
    "PartitionCertificate",
    "forward_degrees",
    "size_monotone_ordering",
    "reorder",
    "partition_stability",
    "partition_extremal",
    "taken_colours",
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

    def position(self) -> dict[int, int]:
        return {e: i for i, e in enumerate(self.perm)}

    def __len__(self) -> int:
        return len(self.perm)


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

    Starting from the size-monotone ordering, shrink the prefix whenever its
    last edge e* has forward degree at most the target; otherwise move the
    lowest-rank prefix edge whose prefix-degree meets the target to just
    after e*.  Stuck means case B: no prefix edge qualifies.

    tau must lie in (0,1) and K must be at least 1.  The classical volume
    guarantee additionally wants 1 - tau - 7*tau^(1/4)/K > 0; that premise
    is *evaluated* (conservatively, via rational enclosures of tau^(1/4))
    and reported in the certificates rather than enforced, because useful
    parameter choices at small scale routinely violate it.
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
    start = size_monotone_ordering(h, ids)
    order = list(start.perm)
    s = len(order)
    bound = t * (1 - tau) * h.n

    rows = h.view.rows

    def prefix_degree(e: int, prefix_mask: int) -> int:
        return (rows[e] & prefix_mask).bit_count()

    prefix_len = s
    prefix_mask = 0
    for e in order:
        prefix_mask |= 1 << e

    case = "A"
    e_star: int | None = None
    for _step in range(s + 2):
        if prefix_len == 0:
            case = "A"
            break
        last = order[prefix_len - 1]
        if prefix_degree(last, prefix_mask) <= bound:
            prefix_len -= 1
            prefix_mask &= ~(1 << last)
            continue
        moved = False
        for i in range(prefix_len):
            e = order[i]
            if prefix_degree(e, prefix_mask) <= bound:
                order.pop(i)
                order.insert(prefix_len - 1, e)
                prefix_len -= 1
                prefix_mask &= ~(1 << e)
                moved = True
                break
        if not moved:
            case = "B"
            e_star = last
            break
    else:  # pragma: no cover - the prefix shrinks every iteration
        raise RuntimeError("internal: reorder exceeded its iteration cap")

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
        factor = 1 + 3 * x_lo * K**3
        members = [
            e
            for e in order[:prefix_len]
            if len(h.edges[e]) == r or r <= len(h.edges[e]) < factor * r
        ]
        w_block = tuple(members)
        w_start = prefix_len - len(members)
        if order[w_start:prefix_len] != members:  # pragma: no cover - defensive
            raise RuntimeError("internal: W is not a suffix of the prefix")
        w_sizes = [len(h.edges[e]) for e in w_block]
        ratio = Fraction(max(w_sizes), min(w_sizes))
        w_vol = volume(h, w_block) if h.n >= 2 else Fraction(0)
        certificates["W1_ratio"] = ratio
        certificates["w1_ok"] = ratio == 1 or ratio < factor
        certificates["W2_volume"] = w_vol
        certificates["w2_ok"] = w_vol >= threshold
    else:
        certificates["W1_ratio"] = Fraction(1)
        certificates["w1_ok"] = True
        certificates["W2_volume"] = Fraction(0)
        certificates["w2_ok"] = threshold == 0
        certificates["vacuous"] = True

    # O1: edges past the final prefix keep small forward degree; O2: the
    # prefix stays size-monotone.  Both should hold by construction and are
    # recomputed honestly here.
    ordering = EdgeOrdering(tuple(order))
    fwd = forward_degrees(h, ordering)
    o1_ok = all(fwd[e] <= bound for e in order[prefix_len:])
    sizes_prefix = [len(h.edges[e]) for e in order[:prefix_len]]
    o2_ok = all(
        sizes_prefix[i] >= sizes_prefix[i + 1] for i in range(len(sizes_prefix) - 1)
    )
    certificates["O1_ok"] = o1_ok
    certificates["O2_ok"] = o2_ok

    return ReorderOutcome(
        ordering=ordering,
        case=case,
        e_star=e_star,
        W=w_block,
        bound=bound,
        certificates=certificates,
    )


def _flag(
    flags: dict, witness: dict, vacuous: list, name: str, ok: bool, wit=None, empty=False
) -> None:
    flags[name] = True if empty else ok
    if empty:
        vacuous.append(name)
    elif not ok and wit is not None:
        witness[name] = wit


def partition_stability(
    h: Hypergraph,
    t: int,
    sigma,
    delta,
    probe: int | None = None,
) -> PartitionCertificate:
    """Three-part splice H2 < W < H1 with near-uniform W.

    Runs the local search at (2*sigma, 1); case A yields the trivial
    partition (everything in H1).  In case B the block W is the stuck
    interval, H1 what follows it, and the part before W is re-reordered at
    (1 - 1/2000, 2000^2) to become H2.  Flags: P1 size ratio on W within
    1+delta, P2 W-volume at least (1-delta)t, P3 all H2 edges at least as
    large as W's largest, FD1/FD2 forward-degree targets on H1/H2, FD3 the
    splice order itself.  ``probe`` (optional) records whether lists of that
    size would let greedy colouring finish along the final ordering.
    """
    sigma = as_fraction(sigma)
    delta = as_fraction(delta)
    if not 0 < sigma < Fraction(1, 2):
        raise ValueError("sigma must lie in (0, 1/2)")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")

    outer = reorder(h, t, 2 * sigma, 1)
    notes: dict = {"outer_case": outer.case, "outer_certificates": outer.certificates}
    if outer.case == "A":
        h1 = tuple(outer.ordering.perm)
        w_block: tuple[int, ...] = ()
        h2: tuple[int, ...] = ()
        final = outer.ordering
    else:
        perm = outer.ordering.perm
        i_star = perm.index(outer.e_star)
        w_block = outer.W
        w_start = i_star + 1 - len(w_block)
        h2_ids = perm[:w_start]
        h1 = perm[i_star + 1 :]
        inner = reorder(h, t, Fraction(1999, 2000), Fraction(2000) ** 2, edge_ids=h2_ids)
        notes["inner_case"] = inner.case
        h2 = tuple(inner.ordering.perm)
        final = EdgeOrdering(h2 + w_block + h1)

    flags: dict[str, bool] = {}
    witness: dict[str, object] = {}
    vacuous: list[str] = []
    sizes = [len(e) for e in h.edges]
    fwd = forward_degrees(h, final)
    n = h.n

    w_sizes = [sizes[e] for e in w_block]
    _flag(
        flags,
        witness,
        vacuous,
        "P1",
        bool(w_block) and max(w_sizes) <= (1 + delta) * min(w_sizes),
        wit=(max(w_sizes, default=0), min(w_sizes, default=0)) if w_block else None,
        empty=not w_block,
    )
    _flag(
        flags,
        witness,
        vacuous,
        "P2",
        bool(w_block) and h.n >= 2 and volume(h, w_block) >= (1 - delta) * t,
        wit=str(volume(h, w_block)) if w_block and h.n >= 2 else None,
        empty=not w_block,
    )
    p3_wit = next((e for e in h2 if w_sizes and sizes[e] < max(w_sizes)), None)
    _flag(
        flags, witness, vacuous, "P3", p3_wit is None, wit=p3_wit, empty=not h2 or not w_block
    )
    fd1_bound = (1 - 2 * sigma) * t * n
    fd1_wit = next((e for e in h1 if fwd[e] > fd1_bound), None)
    _flag(flags, witness, vacuous, "FD1", fd1_wit is None, wit=fd1_wit, empty=not h1)
    fd2_bound = Fraction(t * n, 2000)
    fd2_wit = next((e for e in h2 if fwd[e] > fd2_bound), None)
    _flag(flags, witness, vacuous, "FD2", fd2_wit is None, wit=fd2_wit, empty=not h2)
    pos = final.position()
    fd3_ok = all(pos[a] < pos[b] for a in h2 for b in w_block) and all(
        pos[a] < pos[b] for a in w_block for b in h1
    )
    _flag(flags, witness, vacuous, "FD3", fd3_ok)

    if probe is not None:
        notes["probe"] = probe
        notes["probe_ok"] = all(d + 1 <= probe for d in fwd.values())

    return PartitionCertificate(
        parts={"H2": h2, "W": w_block, "H1": h1},
        ordering=final,
        property_flags=flags,
        witness=witness,
        vacuous=tuple(vacuous),
        notes=notes,
    )


def partition_extremal(
    h: Hypergraph,
    t: int,
    delta,
    gamma,
    r0: int,
    sigma=None,
) -> PartitionCertificate:
    """Three-part splice H3 < H2 < H1 for the near-extremal pipeline.

    First reorder at (1-gamma, gamma^-2): in case A everything is H1 (small
    forward degrees).  Otherwise the tail after e* is H1 and the prefix is
    reordered again at (sigma, 1), its own case-B prefix becoming H3 and the
    rest H2.  Flags: P'1 every edge of size <= r0 lies in H1, P'2 all H3
    edges have size >= (1-2*delta)*sqrt(n), FD'1 forward degree <= t*n - 2
    on H2, FD'2 forward degree <= gamma*t*n on H1, FD'3 the splice order.
    """
    delta = as_fraction(delta)
    gamma = as_fraction(gamma)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if r0 < 0:
        raise ValueError("r0 must be non-negative")
    sigma = delta / 4 if sigma is None else as_fraction(sigma)
    if not 0 < sigma < 1:
        raise ValueError("sigma must lie in (0, 1)")

    outer = reorder(h, t, 1 - gamma, 1 / gamma**2)
    notes: dict = {"outer_case": outer.case, "outer_certificates": outer.certificates}
    if outer.case == "A":
        h1 = tuple(outer.ordering.perm)
        h2: tuple[int, ...] = ()
        h3: tuple[int, ...] = ()
        final = outer.ordering
    else:
        perm = outer.ordering.perm
        i_star = perm.index(outer.e_star)
        h1 = perm[i_star + 1 :]
        left = perm[: i_star + 1]
        inner = reorder(h, t, sigma, 1, edge_ids=left)
        notes["inner_case"] = inner.case
        iperm = inner.ordering.perm
        if inner.case == "A":
            h3 = ()
            h2 = tuple(iperm)
        else:
            j_star = iperm.index(inner.e_star)
            h3 = tuple(iperm[: j_star + 1])
            h2 = tuple(iperm[j_star + 1 :])
        final = EdgeOrdering(tuple(iperm) + h1)

    flags: dict[str, bool] = {}
    witness: dict[str, object] = {}
    vacuous: list[str] = []
    sizes = [len(e) for e in h.edges]
    fwd = forward_degrees(h, final)
    n = h.n
    in_h1 = set(h1)

    p1_wit = next((e for e in range(h.m) if sizes[e] <= r0 and e not in in_h1), None)
    _flag(flags, witness, vacuous, "P'1", p1_wit is None, wit=p1_wit, empty=h.m == 0)
    too_small = {
        s for s in {sizes[e] for e in h3} if not at_least_scaled_sqrt(s, 1 - 2 * delta, n)
    }
    p2_wit = next((e for e in h3 if sizes[e] in too_small), None)
    _flag(flags, witness, vacuous, "P'2", p2_wit is None, wit=p2_wit, empty=not h3)
    fd1_wit = next((e for e in h2 if fwd[e] > t * n - 2), None)
    _flag(flags, witness, vacuous, "FD'1", fd1_wit is None, wit=fd1_wit, empty=not h2)
    fd2_bound = gamma * t * n
    fd2_wit = next((e for e in h1 if fwd[e] > fd2_bound), None)
    _flag(flags, witness, vacuous, "FD'2", fd2_wit is None, wit=fd2_wit, empty=not h1)
    pos = final.position()
    fd3_ok = all(pos[a] < pos[b] for a in h3 for b in h2) and all(
        pos[a] < pos[b] for a in h2 for b in h1
    )
    _flag(flags, witness, vacuous, "FD'3", fd3_ok)

    return PartitionCertificate(
        parts={"H3": h3, "H2": h2, "H1": h1},
        ordering=final,
        property_flags=flags,
        witness=witness,
        vacuous=tuple(vacuous),
        notes=notes,
    )


def taken_colours(row: int, col: Mapping[int, int]) -> set[int]:
    """The colours ``col`` gives the edges whose bits are set in ``row``.

    Pass a line-graph row masked by the coloured edges to get the colours
    an edge may not take.
    """
    return {col[f] for f in mask_bits(row)}


def greedy_extend(
    h: Hypergraph,
    order: Iterable[int],
    lists: Mapping[int, frozenset[int]],
    col: dict[int, int],
    pick: Callable[[frozenset[int]], int] = min,
) -> int | None:
    """Colour the edges of ``order`` one at a time into ``col``.

    Each edge takes ``pick`` of its list minus the colours of the coloured
    edges it meets (``col`` may arrive partly filled).  Returns the first
    edge left without a colour, or None when every edge got one.
    """
    rows = h.view.rows
    coloured = sum(1 << f for f in col)
    for e in order:
        opts = lists[e] - taken_colours(rows[e] & coloured, col)
        if not opts:
            return e
        col[e] = pick(opts)
        coloured |= 1 << e
    return None


def greedy_list_colour(
    h: Hypergraph,
    lists: Mapping[int, Iterable[int]],
    ordering: EdgeOrdering | None = None,
) -> dict[int, int] | ColouringFailure:
    """Colour edges in order, always taking the smallest colour not used by
    an earlier intersecting edge.

    Succeeds whenever every list exceeds the edge's forward degree; on
    failure the report names the first stuck edge.
    """
    allowed = normalize_lists(h, lists)
    if ordering is None:
        ordering = EdgeOrdering(tuple(range(h.m)))
    if sorted(ordering.perm) != list(range(h.m)):
        raise ValueError("ordering must cover exactly the edges of H")
    col: dict[int, int] = {}
    stuck = greedy_extend(h, ordering.perm, allowed, col)
    if stuck is not None:
        return ColouringFailure("greedy", stuck_edge=stuck, detail="list exhausted")
    return col
