"""Colouring hypergraphs with nearly as many edges as colours.

When e(H) is close to t*n, proper colourings from tn-sized lists hinge on
finding disjoint edge pairs that can share a colour (a *complement
matching*).  ``colour_extremal`` colours from a maximum complement matching.
The paper's other source of such pairs, a small family of
pairwise-intersecting edges whose designated pairs have small common
neighbourhoods (a *useful family*), is searched for by
``find_useful_family``; no rung uses it, since it would yield a matching no
larger than the maximum one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Mapping

from . import _matching
from .exactarith import as_fraction, cmp_to_scaled_sqrt, at_least_scaled_sqrt
from .hypercore import (
    ColouringFailure,
    HallViolator,
    Hypergraph,
    ListMasks,
    distinct_representatives,
    edge_list_masks,
    mask_bits,
    predicates,
)

__all__ = [
    "ComplementMatching",
    "UsefulFamily",
    "ExtremalReport",
    "is_t_useful",
    "maximal_complement_matching",
    "colour_from_matching",
    "find_useful_family",
    "colour_extremal",
]

logger = logging.getLogger(__name__)

_FAMILY_SEARCH_CAP = 50_000


@dataclass(frozen=True)
class ComplementMatching:
    """Disjoint pairs of vertex-disjoint edges (a matching in the complement
    of the line graph)."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)

    def covered(self) -> frozenset[int]:
        return frozenset(x for p in self.pairs for x in p)

    def validate(self, h: Hypergraph) -> None:
        seen: set[int] = set()
        for a, b in self.pairs:
            if not (0 <= a < h.m and 0 <= b < h.m) or a == b:
                raise ValueError(f"bad pair ({a}, {b})")
            if a in seen or b in seen:
                raise ValueError(f"edge reused across pairs: ({a}, {b})")
            seen.update((a, b))
            if h.edge_mask(a) & h.edge_mask(b):
                raise ValueError(f"edges {a} and {b} share a vertex")


@dataclass(frozen=True)
class UsefulFamily:
    """Ordered family e_1..e_{2r+2}; the designated pairs are consecutive
    (edges[0], edges[1]), (edges[2], edges[3]), ...  ``pair_witnesses`` holds
    one vertex per designated pair (a common vertex, or the hub vertex the
    search grew the pair from)."""

    edges: tuple[int, ...]
    pair_witnesses: tuple[int, ...]

    @property
    def pair_count(self) -> int:
        return len(self.edges) // 2

    def designated_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (self.edges[2 * i], self.edges[2 * i + 1]) for i in range(self.pair_count)
        )


@dataclass(frozen=True)
class ExtremalReport:
    rung: str | None
    attempts: tuple[str, ...]
    size_premise_ok: bool
    matching_size: int | None = None


def is_t_useful(h: Hypergraph, t: int, e: int, f: int) -> bool:
    """Do e and f intersect with |N(e) ∩ N(f)| <= t*n - 3 (both excluded)?"""
    if t < 1:
        raise ValueError("t must be positive")
    if e == f or not (0 <= e < h.m and 0 <= f < h.m):
        raise ValueError(f"need two distinct edge ids, got {e}, {f}")
    adj = h.view.rows
    if not adj[e] >> f & 1:
        return False
    common = adj[e] & adj[f]  # excludes e and f (no self-loops)
    return common.bit_count() <= t * h.n - 3


def maximal_complement_matching(h: Hypergraph) -> ComplementMatching:
    """A maximum set of disjoint pairs of vertex-disjoint edges."""
    comp_adj = [mask_bits(row) for row in h.view.line_graph.complement().adj]
    cm = ComplementMatching(tuple(_matching.max_matching(h.m, comp_adj)))
    cm.validate(h)
    return cm


def colour_from_matching(
    h: Hypergraph,
    matching: ComplementMatching,
    lists: Mapping[int, Iterable[int]] | ListMasks,
) -> dict[int, int]:
    """Colour with e(H) - |matching| colour classes: one per matched pair,
    one per leftover edge.

    Requires every list to have at least k = e(H) - |matching| colours.  A
    class may take the colours common to its lists (an AND of list masks)
    that no class has used yet (one ``used`` mask).  Classes are processed
    by ascending flexibility, the number of colours a class may take, and
    take the smallest of them.  Pairs whose lists have no unused common
    colour left are deferred, and their members get pairwise different
    unused colours (a system of distinct representatives), two per pair.

    The deferral cannot fail.  Say p pairs are pending when no class can
    take a colour.  Every leftover edge has been coloured (its own list
    minus ``used`` is never empty), so k - p colours are used, and each
    pending edge has at least p colours left.  The two members of a
    pending pair have disjoint colours left.  So a set S of pending edges
    that holds both members of some pair sees at least 2p >= |S| colours,
    and any other S has at most p edges, each with at least p colours:
    Hall's condition holds, and the distinct representatives exist.
    """
    matching.validate(h)
    lm = edge_list_masks(h, lists)
    masks = lm.masks
    k = h.m - matching.size
    for i in range(h.m):
        size = masks[i].bit_count()
        if size < k:
            raise ValueError(f"edge {i} has {size} colours; need at least {k}")
    covered = matching.covered()
    classes: list[tuple[int, ...]] = sorted(
        [tuple(sorted(p)) for p in matching.pairs]
        + [(i,) for i in range(h.m) if i not in covered]
    )
    # a singleton's "pair" is the edge twice
    common = [masks[cls[0]] & masks[cls[-1]] for cls in classes]
    used = 0
    colouring: dict[int, int] = {}
    pending = set(range(len(classes)))

    while pending:
        best_ci = None
        best_key: tuple | None = None
        for ci in pending:
            opts = common[ci] & ~used
            if not opts:
                continue
            key = (opts.bit_count(), classes[ci][0])
            if best_key is None or key < best_key:
                best_key = key
                best_ci = ci
        if best_ci is None:
            break  # only common-free pairs remain
        opts = common[best_ci] & ~used
        bit = opts & -opts
        colour = lm.colours[bit.bit_length() - 1]
        for e in classes[best_ci]:
            colouring[e] = colour
        pending.discard(best_ci)
        used |= bit

    if pending:
        # distinct fresh colours for the leftover pair members
        edges = [e for ci in sorted(pending) for e in classes[ci]]
        assignment = distinct_representatives(
            lm._replace(masks={e: masks[e] & ~used for e in edges}), edges
        )
        if isinstance(assignment, HallViolator):
            raise RuntimeError(
                "internal: deferred pairs have no distinct representatives"
                f" ({assignment.detail})"
            )
        colouring.update(assignment)
    return colouring


def _plane_scale(n: int) -> int:
    """The k with k^2 - k + 2 <= n <= k^2 + k + 1 (unique for n >= 2)."""
    for k in range(max(1, isqrt(n) - 1), isqrt(n) + 2):
        if k * k - k + 2 <= n <= k * k + k + 1:
            return k
    raise ValueError(f"no plane scale for n={n}")


def _assemble_family(
    h: Hypergraph,
    adj: tuple[int, ...],
    t: int,
    pool: list[int],
    need_pairs: int,
    pair_ok,
    witness_fn,
) -> UsefulFamily | None:
    """Backtracking search for need_pairs disjoint designated pairs from the
    pool, keeping all selected edges pairwise intersecting."""
    cand_pairs = []
    for i, a in enumerate(pool):
        for b in pool[i + 1 :]:
            if adj[a] >> b & 1 and pair_ok(a, b) and is_t_useful(h, t, a, b):
                cand_pairs.append((a, b))
    budget = [_FAMILY_SEARCH_CAP]

    def dfs(start: int, chosen: list[tuple[int, int]]) -> list[tuple[int, int]] | None:
        if len(chosen) == need_pairs:
            return chosen
        if budget[0] <= 0:
            return None
        for idx in range(start, len(cand_pairs)):
            budget[0] -= 1
            a, b = cand_pairs[idx]
            flat = [x for p in chosen for x in p]
            if a in flat or b in flat:
                continue
            if not all(adj[a] >> x & 1 and adj[b] >> x & 1 for x in flat):
                continue
            res = dfs(idx + 1, chosen + [(a, b)])
            if res is not None:
                return res
        return None

    found = dfs(0, [])
    if found is None:
        return None
    edges = tuple(x for p in found for x in p)
    wits = tuple(witness_fn(a, b) for a, b in found)
    return UsefulFamily(edges=edges, pair_witnesses=wits)


def find_useful_family(
    h: Hypergraph,
    t: int,
    alpha=Fraction(1, 4),
    delta=Fraction(1, 10),
    trace: list[str] | None = None,
) -> UsefulFamily | None:
    """Search for a useful family of 2(e(H) - t*n) + 2 edges.

    Walks four construction branches, from 'few edges below plane scale' to a
    hub-vertex growth argument, each gated by its exact numeric premise; any
    candidate family is mechanically certified (distinct, pairwise
    intersecting, designated pairs t-useful) before being returned.  Returns
    None when no branch both opens and certifies; at small scales that is the
    common honest outcome.
    """
    alpha = as_fraction(alpha)
    delta = as_fraction(delta)
    if not (0 < alpha < 1 and 0 < delta < 1):
        raise ValueError("alpha and delta must lie in (0, 1)")
    if t < 1:
        raise ValueError("t must be positive")
    notes = trace if trace is not None else []
    n, m = h.n, h.m
    if n < 2 or m < 2:
        notes.append("instance too small")
        return None
    r = max(0, m - t * n)
    need_edges = 2 * r + 2
    if need_edges > m:
        notes.append(f"needs {need_edges} edges, only {m} present")
        return None
    k = _plane_scale(n)
    sizes = [len(e) for e in h.edges]
    a_minus = [i for i in range(m) if sizes[i] <= k - 1]
    a_plus = [i for i in range(m) if sizes[i] == k]
    a_all = sorted(a_minus + a_plus)
    b_big = [i for i in range(m) if sizes[i] >= k + 1]
    notes.append(
        f"scale k={k}; |A-|={len(a_minus)} |A+|={len(a_plus)} |B|={len(b_big)} r={r}"
    )

    adj = h.view.rows
    masks = h.edge_masks
    nmatch = maximal_complement_matching(h).pairs
    if len(nmatch) > r:
        notes.append(
            f"maximum complement matching has {len(nmatch)} > r={r} pairs;"
            " the matching route already suffices"
        )
        return None
    matched = {x for p in nmatch for x in p}

    size_premise = all(at_least_scaled_sqrt(s, 1 - delta, n) for s in sizes)
    if not size_premise:
        notes.append("note: some edge is smaller than (1-delta)*sqrt(n)")

    def common_vertex(a: int, b: int) -> int:
        both = masks[a] & masks[b]
        return (both & -both).bit_length() - 1

    def overlap_ok(a: int, b: int) -> bool:
        cnt = (masks[a] & masks[b]).bit_count()
        return cnt * alpha.denominator <= alpha.numerator * k

    # branch 1: all of A is few ⇒ any pairs from A \ V(N)
    if 2 * len(a_all) * delta.numerator <= t * delta.denominator:
        pool = [i for i in a_all if i not in matched]
        fam = _assemble_family(
            h, adj, t, pool, r + 1, lambda a, b: True, common_vertex
        )
        if fam is not None:
            notes.append("branch 1 (small A) succeeded")
            return fam
        notes.append("branch 1 open but found no certified family")
    else:
        notes.append("branch 1 gate closed")

    # branch 2: A- is few ⇒ low-overlap pairs from A \ V(N)
    if 4 * len(a_minus) * delta.numerator <= t * delta.denominator:
        pool = [i for i in a_all if i not in matched]
        fam = _assemble_family(h, adj, t, pool, r + 1, overlap_ok, common_vertex)
        if fam is not None:
            notes.append("branch 2 (small A-) succeeded")
            return fam
        notes.append("branch 2 open but found no certified family")
    else:
        notes.append("branch 2 gate closed")

    # branch 3: A+ dominated by A- ⇒ low-overlap pairs from A- \ V(N)
    if cmp_to_scaled_sqrt(len(a_plus), alpha * len(a_minus), n) <= 0:
        pool = [i for i in a_minus if i not in matched]
        fam = _assemble_family(h, adj, t, pool, r + 1, overlap_ok, common_vertex)
        if fam is not None:
            notes.append("branch 3 (A- heavy) succeeded")
            return fam
        notes.append("branch 3 open but found no certified family")
    else:
        notes.append("branch 3 gate closed")

    # branch 4: grow pairs around high-degree hub vertices
    fam = _hub_growth(h, adj, masks, t, alpha, delta, k, r, a_minus, a_plus, matched, notes)
    if fam is not None:
        notes.append("branch 4 (hub growth) succeeded")
        return fam
    notes.append("branch 4 found no certified family")
    if trace is None:
        logger.debug("find_useful_family: %s", "; ".join(notes))
    return None


def _hub_growth(
    h: Hypergraph,
    adj: tuple[int, ...],
    masks: tuple[int, ...],
    t: int,
    alpha: Fraction,
    delta: Fraction,
    k: int,
    r: int,
    a_minus: list[int],
    a_plus: list[int],
    matched: set[int],
    notes: list[str],
) -> UsefulFamily | None:
    n, m = h.n, h.m
    # vertices hit by too many small edges are poisoned
    small_deg = [0] * n
    for i in a_minus:
        for v in h.edges[i]:
            small_deg[v] += 1
    v_bad = {v for v in range(n) if 4 * small_deg[v] * delta.numerator >= t * delta.denominator}
    bad_mask = 0
    for v in v_bad:
        bad_mask |= 1 << v
    aplus_bad = {
        i
        for i in a_plus
        if (masks[i] & bad_mask).bit_count() ** 2 * delta.denominator
        >= delta.numerator * n
    }

    family: list[int] = []
    wits: list[int] = []
    for _ in range(r + 1):
        pool = [
            i
            for i in a_plus
            if i not in aplus_bad and i not in matched and i not in family
        ]
        deg = {}
        for i in pool:
            for v in h.edges[i]:
                if v not in v_bad:
                    deg[v] = deg.get(v, 0) + 1
        hub = None
        for v in sorted(deg):
            if deg[v] * alpha.numerator**2 > 2 * t * alpha.denominator**2:
                hub = v
                break
        if hub is None:
            return None
        through = [i for i in pool if masks[i] >> hub & 1]
        pair = None
        for x, a in enumerate(through):
            for b in through[x + 1 :]:
                cnt = (masks[a] & masks[b]).bit_count()
                if cnt * alpha.denominator > alpha.numerator * k:
                    continue
                if not is_t_useful(h, t, a, b):
                    continue
                if not all(adj[a] >> g & 1 and adj[b] >> g & 1 for g in family):
                    continue
                pair = (a, b)
                break
            if pair:
                break
        if pair is None:
            return None
        family.extend(pair)
        wits.append(hub)
    fam = UsefulFamily(edges=tuple(family), pair_witnesses=tuple(wits))
    # mechanical certification
    if len(set(fam.edges)) != len(fam.edges):
        return None
    for i, a in enumerate(fam.edges):
        for b in fam.edges[i + 1 :]:
            if not adj[a] >> b & 1:
                return None
    for a, b in fam.designated_pairs():
        if not is_t_useful(h, t, a, b):
            return None
    return fam


def colour_extremal(
    h: Hypergraph,
    t: int,
    lists: Mapping[int, Iterable[int]] | ListMasks,
    delta=Fraction(1, 10),
    exact_budget: int = 12,
) -> tuple[dict[int, int] | ColouringFailure, ExtremalReport]:
    """Fallback ladder for the extremal regime e(H) ≈ t*n.

    Tries, in order: an all-distinct colouring (pairwise different colours,
    a system of distinct representatives of the lists) when e(H) < t*n, or
    when e(H) = t*n and H is intersecting; a maximum complement matching;
    and finally exhaustive search when e(H) fits the budget.  On
    intersecting H every proper colouring is all-distinct, so a Hall
    violator from rung 1 or 2 ends the ladder: the failure carries the
    violator's detail.  A "no" from rung 5 carries the oracle's detail (a
    Hall violator when a vertex star settles it), else "not
    list-colourable".  Rung 4 colours whenever the shortest list has at
    least e(H) - |matching| colours (see ``colour_from_matching``).  As
    |matching| <= e(H)/2, the matching is computed only when the shortest
    list holds at least e(H)/2 colours; otherwise the report's
    ``matching_size`` is None.  At e(H) = t*n on a non-intersecting H the
    matching has a pair, so lists of e(H) - 1 colours always suffice
    there.  There is no useful-family rung for e(H) > t*n:
    ``find_useful_family`` returns a family only when the maximum
    complement matching has at most r = e(H) - t*n pairs, and a family
    would yield r+1 disjoint pairs, so it never finds one.  The per-edge
    size premise |V(e)| >= (1-delta)*sqrt(n) is reported, not enforced.
    """
    if t < 1:
        raise ValueError("t must be positive")
    delta = as_fraction(delta)
    allowed = edge_list_masks(h, lists)
    shortest = min((allowed.masks[i].bit_count() for i in range(h.m)), default=0)
    attempts: list[str] = []
    tn = t * h.n
    size_ok = all(
        at_least_scaled_sqrt(s, 1 - delta, h.n) for s in {len(e) for e in h.edges}
    )
    matching_size: int | None = None

    def report(rung: str | None) -> ExtremalReport:
        return ExtremalReport(
            rung=rung,
            attempts=tuple(attempts),
            size_premise_ok=size_ok,
            matching_size=matching_size,
        )

    if h.m == 0:
        return {}, report("empty")

    if h.m < tn or h.m == tn and predicates(h).is_intersecting:
        rung, why = ("1", "e < t*n") if h.m < tn else ("2", "e = t*n, intersecting")
        out = distinct_representatives(allowed, range(h.m))
        if isinstance(out, dict):
            return out, report(f"{rung}: all-distinct ({why})")
        attempts.append(f"rung {rung} found no distinct colours: {out.detail}")
        # a Hall violator ends the ladder on intersecting H, as rung 2's H
        # is; rung 1 reads the predicate only once it has failed
        if h.m == tn or predicates(h).is_intersecting:
            return ColouringFailure("colour_extremal", detail=out.detail), report(None)

    if 2 * shortest >= h.m:  # else shorter than e(H) - |matching| for any matching
        cm = maximal_complement_matching(h)
        matching_size = cm.size
        if shortest >= h.m - cm.size:
            return colour_from_matching(h, cm, allowed), report("4: maximum complement matching")
    attempts.append("rung 4 lists smaller than e(H) - |matching|")

    if h.m <= exact_budget:
        from .oracle import OracleBudget, exact_list_colourable

        res = exact_list_colourable(h, allowed, OracleBudget(max_edges=exact_budget))
        if res.status == "yes":
            return dict(res.witness), report("5: exact search")
        if res.status == "no":
            proof = f": {res.detail}" if res.detail else ""
            attempts.append(f"rung 5 proved no list colouring exists{proof}")
            detail = res.detail or "not list-colourable"
            return ColouringFailure("colour_extremal", detail=detail), report(None)
        refusal = f": {res.detail}" if res.detail else ""
        attempts.append(f"rung 5 budget exceeded{refusal}")
    else:
        attempts.append(f"rung 5 skipped: e(H)={h.m} over budget {exact_budget}")

    return (
        ColouringFailure("colour_extremal", detail="; ".join(attempts)),
        report(None),
    )
