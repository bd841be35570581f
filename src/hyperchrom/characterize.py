"""Edge-count bound for intersecting bounded-codegree hypergraphs and the
classification of its equality cases.

An intersecting hypergraph with codegree at most t and no singleton edges
has at most t * max_v |N[v]| edges; equality forces the structure to be a
t-fold projective plane or a t-fold near-pencil.  This module verifies the
bound, classifies tight instances, and specializes both to the classical
linear case (t = 1, bound n).
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypercore import Hypergraph, degree_stats, predicates

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

    deg = h.view.degrees
    covered = 0
    for mask in h.edge_masks:
        covered |= mask
    for v in range(h.n):
        if deg[v] < 1:
            continue
        closed = h.view.closed_masks[v]
        if t * closed.bit_count() != h.m or covered & ~closed:
            continue
        kind = _classify_on_support(h, t, closed)
        if kind is not None:
            return Classification(kind, h.m, ib["bound"], v)
    raise RuntimeError(
        "internal: tight instance resisted classification; tight instances "
        "are exactly the folded planes and near-pencils, so this is a bug"
    )


def _classify_on_support(
    h: Hypergraph, t: int, support: int
) -> TFoldProjectivePlane | TFoldNearPencil | None:
    """Test the t-fold plane / near-pencil shape on edges inside the vertex
    bitmask ``support``."""
    if any(mask & ~support for mask in h.edge_masks):
        return None
    mult: dict[tuple[int, ...], int] = {}
    for e in h.edges:
        mult[e] = mult.get(e, 0) + 1
    if any(c != t for c in mult.values()):
        return None
    base = Hypergraph(h.n, tuple(mult))
    base_pred = predicates(base)
    if not (base_pred.is_linear and base_pred.is_intersecting):
        return None
    covered = sorted({v for e in base.edges for v in e})
    if sum(1 << v for v in covered) != support:
        return None
    n0 = len(covered)
    remark = "also the projective plane of order 1" if n0 == 3 else ""

    sizes = {len(e) for e in base.edges}
    if len(sizes) == 1:
        k = sizes.pop() - 1
        deg = base.view.degrees
        if (
            k >= 2
            and n0 == k * k + k + 1
            and base.m == n0
            and all(deg[v] == k + 1 for v in covered)
        ):
            return TFoldProjectivePlane(k, t)

    # a near-pencil is a rim of n0 - 1 vertices plus the spokes {apex, x}
    # for x on the rim.  Two rims would share n0 - 2 vertices, so for
    # n0 >= 4 a linear base has at most one; the triangle's three edges
    # are all rims, and any of them gives the same expected edge set.
    if n0 >= 3 and base.m == n0:
        masks = set(base.edge_masks)
        rim = next((mask for mask in masks if mask.bit_count() == n0 - 1), None)
        if rim is not None:
            apex = support & ~rim  # one bit: support is the covered set
            expected = {rim} | {apex | 1 << x for x in covered if rim >> x & 1}
            if masks == expected:
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
