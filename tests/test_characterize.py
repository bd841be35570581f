"""Edge-count bound and classification of its equality cases."""

import random

import pytest

from hyperchrom import (
    Hypergraph,
    NotApplicable,
    NotExtremal,
    TFoldNearPencil,
    TFoldProjectivePlane,
    classify_extremal,
    debruijn_erdos_check,
    intersecting_bound,
    near_pencil,
    projective_plane,
    t_fold,
)
from hyperchrom import characterize
from hyperchrom.characterize import _classify_on_support
from hyperchrom.oracle import enumerate_hypergraphs
from tests._naive import naive_classify_extremal, naive_classify_support


class TestIntersectingBound:
    def test_fano_tight(self, fano):
        out = intersecting_bound(fano, 1)
        assert out["applies"] is True
        assert out["e_count"] == 7 and out["bound"] == 7
        assert out["tight"] is True
        assert out["witness_vertex"] == 0

    def test_near_pencil_tight(self):
        out = intersecting_bound(near_pencil(5), 1)
        assert out["applies"] and out["tight"]
        assert out["e_count"] == 5 and out["bound"] == 5

    def test_fano_minus_line_strict(self, fano):
        out = intersecting_bound(Hypergraph(7, fano.edges[:6]), 1)
        assert out["applies"] is True
        assert out["e_count"] == 6 and out["bound"] == 7
        assert out["tight"] is False

    def test_two_fold_fano(self, fano):
        out = intersecting_bound(t_fold(fano, 2), 2)
        assert out["applies"] and out["tight"] and out["bound"] == 14

    def test_not_applicable_reasons(self, fano):
        assert intersecting_bound(Hypergraph(3, []), 1)["reason"] == "no edges"
        assert (
            intersecting_bound(Hypergraph(3, [(0,), (0, 1)]), 1)["reason"]
            == "an edge of size one"
        )
        assert (
            intersecting_bound(Hypergraph(4, [(0, 1), (2, 3)]), 1)["reason"]
            == "not intersecting"
        )
        assert "exceeds" in intersecting_bound(t_fold(fano, 2), 1)["reason"]

    def test_t_validation(self, fano):
        with pytest.raises(ValueError):
            intersecting_bound(fano, 0)

    def test_bound_holds_on_small_enumeration(self):
        for t in (1, 2):
            for h in enumerate_hypergraphs(4, t, min_size=2, max_edges=6, intersecting=True):
                out = intersecting_bound(h, t)
                if out["applies"]:
                    assert out["e_count"] <= out["bound"]


class TestClassifyExtremal:
    def test_fano_is_plane(self, fano):
        c = classify_extremal(fano, 1)
        assert c.kind == TFoldProjectivePlane(2, 1)
        assert c.e_count == 7 and c.bound == 7 and c.witness_vertex == 0

    def test_three_fold_fano(self, fano):
        c = classify_extremal(t_fold(fano, 3), 3)
        assert c.kind == TFoldProjectivePlane(2, 3)

    def test_two_fold_near_pencil(self):
        c = classify_extremal(t_fold(near_pencil(5), 2), 2)
        assert c.kind == TFoldNearPencil(2)

    def test_triangle_is_near_pencil_with_remark(self, triangle):
        c = classify_extremal(triangle, 1)
        assert isinstance(c.kind, TFoldNearPencil)
        assert c.kind.t == 1
        assert "order 1" in c.kind.remark

    def test_planes_classify_for_all_orders(self):
        for q in (2, 3):
            for t in (1, 2):
                h = t_fold(projective_plane(q), t)
                assert classify_extremal(h, t).kind == TFoldProjectivePlane(q, t)

    def test_near_pencils_classify(self):
        for n in range(3, 9):
            c = classify_extremal(near_pencil(n), 1)
            assert isinstance(c.kind, TFoldNearPencil)

    def test_not_tight(self, fano):
        c = classify_extremal(Hypergraph(7, fano.edges[:6]), 1)
        assert c.kind == NotExtremal()
        assert c.bound == 7

    def test_slack_t_not_tight(self, fano):
        # codegree 1 <= 2 applies, but the bound doubles
        c = classify_extremal(fano, 2)
        assert c.kind == NotExtremal()
        assert c.bound == 14

    def test_not_applicable(self, fano):
        c = classify_extremal(t_fold(fano, 2), 1)
        assert isinstance(c.kind, NotApplicable)
        assert "exceeds" in c.kind.reason

    def test_isolated_vertices_tolerated(self):
        # same triangle, embedded among isolated vertices
        h = Hypergraph(6, [(1, 2), (2, 4), (1, 4)])
        c = classify_extremal(h, 1)
        assert isinstance(c.kind, TFoldNearPencil)

    def test_tight_instances_classify_on_enumeration(self):
        for t in (1, 2):
            for h in enumerate_hypergraphs(4, t, min_size=2, max_edges=6, intersecting=True):
                c = classify_extremal(h, t)
                if isinstance(c.kind, (NotApplicable, NotExtremal)):
                    continue
                assert isinstance(c.kind, (TFoldProjectivePlane, TFoldNearPencil))

    def test_codegree_is_exactly_t_across_tight_instances(self, fano):
        # on a tight instance, any vertex outside an edge pairs with each of
        # its vertices in exactly t common edges
        for h, t in ((fano, 1), (t_fold(fano, 2), 2), (t_fold(near_pencil(5), 3), 3)):
            assert not isinstance(classify_extremal(h, t).kind, (NotApplicable, NotExtremal))
            for e in h.edges:
                for x in range(h.n):
                    if x in e:
                        continue
                    for w in e:
                        codeg = sum(1 for f in h.edges if x in f and w in f)
                        assert codeg == t


class TestDeBruijnErdos:
    def test_fano(self, fano):
        out = debruijn_erdos_check(fano)
        assert out["applies"] is True
        assert out["bound_holds"] is True
        assert out["classification"].kind == TFoldProjectivePlane(2, 1)

    def test_near_pencils(self):
        for n in range(3, 9):
            out = debruijn_erdos_check(near_pencil(n))
            assert out["bound_holds"] is True
            assert isinstance(out["classification"].kind, TFoldNearPencil)

    def test_fano_minus_line_strict(self, fano):
        out = debruijn_erdos_check(Hypergraph(7, fano.edges[:6]))
        assert out["bound_holds"] is True
        assert out["classification"].kind == NotExtremal()

    def test_preconditions(self, fano):
        assert debruijn_erdos_check(t_fold(fano, 2))["reason"] == "not linear"
        assert (
            debruijn_erdos_check(Hypergraph(4, [(0, 1), (2, 3)]))["reason"]
            == "not intersecting"
        )
        assert debruijn_erdos_check(Hypergraph(2, [(0,)]))["reason"] == "an edge of size one"
        assert debruijn_erdos_check(Hypergraph(2, []))["reason"] == "no edges"

    def test_strict_on_non_extremal_enumeration(self):
        for h in enumerate_hypergraphs(4, 1, min_size=2, max_edges=4, intersecting=True):
            out = debruijn_erdos_check(h)
            if not out["applies"]:
                continue
            assert out["bound_holds"] is True
            c = out["classification"]
            if c.e_count < c.bound:
                assert c.kind == NotExtremal()
            else:
                assert isinstance(c.kind, (TFoldProjectivePlane, TFoldNearPencil))


def _relabel(h, n, seed):
    """``h`` on ``n`` >= h.n vertices, labels permuted by ``seed``."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return Hypergraph(n, [[perm[v] for v in e] for e in h.edges])


def _support(h):
    return sum(1 << v for e in h.edges for v in e)


def _perturbations(pencil):
    """One-edge changes to a near-pencil on 0..n0-1 (apex 0, rim 1..n0-1)."""
    n0 = pencil.n
    rim = tuple(range(1, n0))
    spokes = [(0, x) for x in rim]
    yield "shrunken rim", [rim[1:]] + spokes
    yield "spoke moved to another apex", [rim] + spokes[1:] + [(rim[1], rim[0])]
    yield "missing spoke", [rim] + spokes[1:]
    yield "two long edges", [rim, (0,) + rim[1:]] + spokes[1:]


class TestSupportClassification:
    """The rim-based near-pencil test against the apex loop it replaced."""

    def _check(self, h, t):
        assert _classify_on_support(h, t, _support(h)) == naive_classify_support(
            h, t, _support(h)
        )
        kind, bound, witness = naive_classify_extremal(h, t)
        got = classify_extremal(h, t)
        if kind is not None:
            assert (got.kind, got.bound, got.witness_vertex) == (kind, bound, witness)
        elif bound is not None:
            assert (got.kind, got.bound) == (NotExtremal(), bound)
        else:
            assert isinstance(got.kind, NotApplicable)
        return got.kind

    def test_permuted_near_pencils_and_folds(self):
        for n0 in range(3, 41):
            for t in (1, 2, 3):
                h = _relabel(t_fold(near_pencil(n0), t), n0 + n0 % 3, seed=n0 * 10 + t)
                kind = self._check(h, t)
                assert kind == TFoldNearPencil(t, kind.remark)
                assert bool(kind.remark) == (n0 == 3)

    def test_permuted_planes_and_folds(self):
        for q in (2, 3, 4, 5):
            for t in (1, 2, 3):
                h = _relabel(t_fold(projective_plane(q), t), q * q + q + 2, seed=q + t)
                assert self._check(h, t) == TFoldProjectivePlane(q, t)

    def test_one_edge_perturbations(self):
        for n0 in range(4, 13):
            for name, edges in _perturbations(near_pencil(n0)):
                for t in (1, 2):
                    h = _relabel(t_fold(Hypergraph(n0, edges), t), n0 + 1, seed=n0)
                    kind = self._check(h, t)
                    assert not isinstance(kind, TFoldNearPencil), name

    def test_support_larger_than_cover(self):
        h = near_pencil(6)
        wider = _support(h) | 1 << 7
        h = Hypergraph(8, h.edges)
        assert _classify_on_support(h, 1, wider) is None
        assert naive_classify_support(h, 1, wider) is None

    def test_plane_counts_without_a_plane(self):
        # 3-uniform, 3-regular, 7 edges on 7 points: the plane branch's counts
        # for k = 2, but {0, 1} lies on three edges and {0,1,2}, {3,5,6} miss
        h = Hypergraph(
            7, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4), (2, 5, 6), (3, 5, 6), (4, 5, 6)]
        )
        for t in (1, 2):
            folded = t_fold(h, t)
            assert _classify_on_support(folded, t, 0b1111111) is None
            assert naive_classify_support(folded, t, 0b1111111) is None

    def test_one_support_test_and_one_predicates_read(self, monkeypatch, fano):
        calls = {"support": 0, "predicates": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            characterize, "_classify_on_support", counted("support", _classify_on_support)
        )
        monkeypatch.setattr(
            characterize, "predicates", counted("predicates", characterize.predicates)
        )
        for h, t, kind in (
            (t_fold(fano, 2), 2, TFoldProjectivePlane(2, 2)),
            (t_fold(near_pencil(6), 3), 3, TFoldNearPencil(3)),
        ):
            calls.update(support=0, predicates=0)
            assert classify_extremal(h, t).kind == kind
            assert calls == {"support": 1, "predicates": 1}
