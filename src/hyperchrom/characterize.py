"""Edge-count bound for intersecting bounded-codegree hypergraphs and the
classification of its equality cases.

An intersecting hypergraph with codegree at most t and no singleton edges
has at most t * max_v |N[v]| edges; equality forces the structure to be a
t-fold projective plane or a t-fold near-pencil.  This module verifies the
bound, classifies tight instances, and specializes both to the classical
linear case (t = 1, bound n).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .hypercore import Hypergraph, degree_stats, mask_bits, predicates

__all__ = [
    "TFoldProjectivePlane",
    "TFoldNearPencil",
    "NotExtremal",
    "NotApplicable",
    "Classification",
    "intersecting_bound",
    "classify_extremal",
    "debruijn_erdos_check",
]


@dataclass(frozen=True)
class TFoldProjectivePlane:
    k: int
    t: int
    remark: str = ""


@dataclass(frozen=True)
class TFoldNearPencil:
    t: int
    remark: str = ""


@dataclass(frozen=True)
class NotExtremal:
    pass


@dataclass(frozen=True)
class NotApplicable:
    reason: str


@dataclass(frozen=True)
class Classification:
    """Outcome of the tightness test.

    ``bound`` is t times the largest closed neighbourhood over non-isolated
    vertices (None when the test does not apply); ``witness_vertex`` is the
    vertex whose neighbourhood certifies a tight classification.
    """

    kind: TFoldProjectivePlane | TFoldNearPencil | NotExtremal | NotApplicable
    e_count: int
    bound: int | None
    witness_vertex: int | None


def intersecting_bound(h: Hypergraph, t: int) -> dict:
    """The bound e(H) <= t * max |N[v]| with applicability and tightness.

    Applies to intersecting hypergraphs with codegree at most t and no edge
    of size one; the maximum ranges over non-isolated vertices only (an
    isolated vertex has |N[v]| = 1 and cannot be the maximizer of anything
    interesting).
    """
    if t < 1:
        raise ValueError("t must be positive")
    out: dict = {
        "applies": False,
        "reason": None,
        "e_count": h.m,
        "bound": None,
        "tight": False,
        "witness_vertex": None,
    }
    if h.m == 0:
        out["reason"] = "no edges"
        return out
    if any(len(e) < 2 for e in h.edges):
        out["reason"] = "an edge of size one"
        return out
    preds = predicates(h)
    if not preds.is_intersecting:
        out["reason"] = "not intersecting"
        return out
    stats = degree_stats(h)
    if stats.max_codegree > t:
        out["reason"] = f"codegree {stats.max_codegree} exceeds t={t}"
        return out
    closed = h.view.closed_masks
    best_v, best = None, 0
    for v in range(h.n):
        if stats.degree[v] >= 1 and closed[v].bit_count() > best:
            best_v, best = v, closed[v].bit_count()
    out.update(
        applies=True,
        bound=t * best,
        tight=h.m == t * best,
        witness_vertex=best_v,
    )
    return out


def classify_extremal(h: Hypergraph, t: int) -> Classification:
    """Classify instances attaining e(H) = t * max |N[v]|.

    A tight instance must look like t copies of each edge of a linear
    intersecting base supported on some N[v] (all other vertices isolated),
    with the base either a projective plane or a near-pencil.  The triangle
    is both the order-1 plane and the 3-vertex near-pencil; it is reported
    as a near-pencil with a remark.
    """
    return _classify_extremal(h, t, intersecting_bound(h, t))


def _classify_extremal(h: Hypergraph, t: int, ib: dict) -> Classification:
    """``classify_extremal`` given ``ib = intersecting_bound(h, t)``."""
    if not ib["applies"]:
        return Classification(NotApplicable(ib["reason"]), h.m, None, None)
    if not ib["tight"]:
        return Classification(NotExtremal(), h.m, ib["bound"], None)

    # N[v] lies inside the covered set for every non-isolated v, so a vertex
    # whose N[v] is all of it has the largest N[v]: the bound's witness (the
    # first vertex with the largest N[v]) is one whenever any vertex is, and
    # otherwise some edge leaves N[witness] and the support test fails
    witness = ib["witness_vertex"]
    kind = _classify_on_support(h, t, h.view.closed_masks[witness])
    if kind is None:
        raise RuntimeError(
            "internal: tight instance resisted classification; tight instances "
            "are exactly the folded planes and near-pencils, so this is a bug"
        )
    return Classification(kind, h.m, ib["bound"], witness)


def _classify_on_support(
    h: Hypergraph, t: int, support: int
) -> TFoldProjectivePlane | TFoldNearPencil | None:
    """Test the t-fold plane / near-pencil shape on edges inside the vertex
    bitmask ``support``.

    The base (each distinct edge once) is read off H's cached facts.  Once
    every distinct edge occurs exactly t times, a pair's codegree in H is t
    times its codegree in the base, so the base is linear iff H's maximum
    codegree is at most t; and the copies of one (non-empty) edge meet, so
    the base is intersecting iff H is.  A base vertex's degree is its degree
    in H divided by t.
    """
    if any(mask & ~support for mask in h.edge_masks):
        return None
    mult = Counter(h.edge_masks)
    if any(c != t for c in mult.values()):
        return None
    view, deg = h.view, h.view.degrees
    if view.degree_stats.max_codegree > t or not view.predicates.is_intersecting:
        return None
    n0 = support.bit_count()
    if sum(1 for d in deg if d) != n0:
        return None  # the edges, all inside support, leave some of it bare
    remark = "also the projective plane of order 1" if n0 == 3 else ""

    sizes = {mask.bit_count() for mask in mult}
    if len(sizes) == 1:
        k = sizes.pop() - 1
        if (
            k >= 2
            and n0 == k * k + k + 1
            and len(mult) == n0
            and all(deg[v] == t * (k + 1) for v in mask_bits(support))
        ):
            return TFoldProjectivePlane(k, t)

    # a near-pencil is a rim of n0 - 1 vertices plus the spokes {apex, x}
    # for x on the rim.  Two rims would share n0 - 2 vertices, so for
    # n0 >= 4 a linear base has at most one; the triangle's three edges
    # are all rims, and any of them gives the same expected edge set.
    if n0 >= 3 and len(mult) == n0:
        rim = next((mask for mask in mult if mask.bit_count() == n0 - 1), None)
        if rim is not None:
            apex = support & ~rim  # one bit: support is the covered set
            expected = {rim} | {apex | 1 << x for x in mask_bits(rim)}
            if mult.keys() == expected:
                return TFoldNearPencil(t, remark)
    return None


def debruijn_erdos_check(h: Hypergraph) -> dict:
    """The classical bound for linear intersecting hypergraphs: e(H) <= n.

    Requires linearity, the intersecting property, and no singleton edge;
    reports whether the bound holds and classifies the equality case via
    the t = 1 machinery (plane or near-pencil).
    """
    return _debruijn_erdos_check(h, None)


def _debruijn_erdos_check(h: Hypergraph, linear_class: Classification | None) -> dict:
    """``debruijn_erdos_check`` reusing ``linear_class``, when given, as
    ``classify_extremal(h, 1)``."""
    out: dict = {
        "applies": False,
        "reason": None,
        "e_count": h.m,
        "n": h.n,
        "bound_holds": None,
        "classification": None,
    }
    if h.m == 0:
        out["reason"] = "no edges"
        return out
    if any(len(e) < 2 for e in h.edges):
        out["reason"] = "an edge of size one"
        return out
    preds = predicates(h)
    if not preds.is_linear:
        out["reason"] = "not linear"
        return out
    if not preds.is_intersecting:
        out["reason"] = "not intersecting"
        return out
    out["applies"] = True
    out["bound_holds"] = h.m <= h.n
    if linear_class is None:
        linear_class = classify_extremal(h, 1)
    out["classification"] = linear_class
    return out
