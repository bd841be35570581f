import hashlib
import logging
import random

import pytest

from hyperchrom import (
    GeneratorParams,
    Hypergraph,
    degree_stats,
    is_isomorphic,
    near_pencil,
    predicates,
    projective_plane,
    random_bounded_codegree,
    subhypergraph,
    t_fold,
    volume,
)
from hyperchrom.cli import format_hg
from hyperchrom.generators import SUPPORTED_PLANE_ORDERS, _check_plane
from tests._naive import naive_plane_edges, naive_random_bounded_codegree
from tests.conftest import FANO_LINES


def assert_same_as_fresh(h: Hypergraph, edges) -> None:
    """``h`` equals, mask for mask, the instance the public constructor
    builds from ``edges``."""
    fresh = Hypergraph(h.n, edges)
    assert h == fresh
    assert h.edges == fresh.edges
    assert h.edge_masks == fresh.edge_masks


class TestProjectivePlane:
    @pytest.mark.parametrize("q", SUPPORTED_PLANE_ORDERS)
    def test_incidence_axioms(self, q):
        h = projective_plane(q)
        n = q * q + q + 1
        assert h.n == n and h.m == n
        assert all(len(e) == q + 1 for e in h.edges)
        stats = degree_stats(h)
        assert set(stats.degree) == {q + 1}
        assert stats.max_codegree == 1
        p = predicates(h)
        assert p.is_linear and p.is_intersecting

    @pytest.mark.parametrize("q", SUPPORTED_PLANE_ORDERS)
    def test_matches_dot_product_construction(self, q):
        lines = naive_plane_edges(q)
        for t in (1, 2, 3):
            folded = t_fold(projective_plane(q), t)
            assert_same_as_fresh(folded, [e for e in lines for _ in range(t)])

    def test_check_rejects_a_swapped_line(self):
        h = projective_plane(3)
        _check_plane(h, 3)
        # a point of line 0 traded for one off it: two degrees go wrong
        line = h.edges[0]
        outside = min(set(range(h.n)) - set(line))
        swapped = [(*line[1:], outside), *h.edges[1:]]
        with pytest.raises(RuntimeError, match="not a plane"):
            _check_plane(Hypergraph(h.n, swapped), 3)
        # line 0 replaced by a copy of line 1: line 1's points reach degree q + 2
        with pytest.raises(RuntimeError, match="not a plane"):
            _check_plane(Hypergraph(h.n, [h.edges[1], *h.edges[1:]]), 3)

    def test_check_rejects_regular_non_linear_design(self):
        # seven 3-sets {i, i+1, i+2} mod 7: every size and degree as in the
        # Fano plane, but consecutive lines share two points
        h = Hypergraph(7, [(i, (i + 1) % 7, (i + 2) % 7) for i in range(7)])
        with pytest.raises(RuntimeError, match="not linear"):
            _check_plane(h, 2)

    def test_fano_matches_difference_set_construction(self):
        assert is_isomorphic(projective_plane(2), Hypergraph(7, FANO_LINES))

    def test_unsupported_orders_rejected(self):
        for q in (1, 6, 10, 12):
            with pytest.raises(ValueError):
                projective_plane(q)

    def test_q1_error_mentions_alternatives(self):
        with pytest.raises(ValueError, match="near_pencil"):
            projective_plane(1)


class TestNearPencil:
    def test_shape_for_n5(self):
        h = near_pencil(5)
        assert h.edges == ((1, 2, 3, 4), (0, 1), (0, 2), (0, 3), (0, 4))

    def test_n3_is_a_triangle(self):
        h = near_pencil(3)
        assert sorted(h.edges) == [(0, 1), (0, 2), (1, 2)]

    def test_predicates_and_degree(self):
        h = near_pencil(7)
        p = predicates(h)
        assert p.is_linear and p.is_intersecting
        assert h.m == 7
        assert degree_stats(h).degree[0] == 6  # the apex

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            near_pencil(2)


class TestTFold:
    def test_identity_fold(self, fano):
        assert t_fold(fano, 1) == fano

    def test_double_fano(self, fano):
        h2 = t_fold(fano, 2)
        assert h2.m == 14
        assert degree_stats(h2).max_codegree == 2

    def test_volume_scales(self, fano):
        assert volume(t_fold(fano, 3)) == 3

    def test_degree_stats_scale(self, corpus):
        for h, _t in corpus[:8]:
            doubled = t_fold(h, 2)
            base = degree_stats(h)
            got = degree_stats(doubled)
            assert list(got.degree) == [2 * d for d in base.degree]
            assert got.max_codegree == 2 * base.max_codegree

    def test_rejects_zero(self, fano):
        with pytest.raises(ValueError):
            t_fold(fano, 0)

    def test_copies_match_a_fresh_build(self, corpus):
        for h, _t in corpus[:8] + [(near_pencil(6), 1)]:
            for t in (1, 2, 3):
                assert_same_as_fresh(t_fold(h, t), [e for e in h.edges for _ in range(t)])

    def test_subhypergraph_matches_a_fresh_build(self, corpus):
        rng = random.Random(5)
        for h, _t in corpus[:8]:
            ids = rng.sample(range(h.m), rng.randint(0, h.m))
            sub, back = subhypergraph(h, ids)
            assert back == tuple(ids)
            assert_same_as_fresh(sub, [h.edges[i] for i in ids])


class TestRandomBoundedCodegree:
    def test_seeded_determinism(self):
        params = GeneratorParams(seed=42, n=10, t=2, size_range=(2, 4), density=12)
        assert random_bounded_codegree(params) == random_bounded_codegree(params)

    def test_codegree_respected_across_corpus(self, corpus):
        for h, t in corpus:
            assert degree_stats(h).max_codegree <= t

    def test_linear_pair_case_is_a_simple_graph(self):
        h = random_bounded_codegree(
            GeneratorParams(seed=7, n=6, t=1, size_range=(2, 2), density=15)
        )
        assert degree_stats(h).max_codegree <= 1
        assert len(set(h.edges)) == h.m  # no repeated pair under t=1

    def test_sizes_within_range(self):
        h = random_bounded_codegree(
            GeneratorParams(seed=3, n=12, t=2, size_range=(3, 5), density=10)
        )
        assert all(3 <= len(e) <= 5 for e in h.edges)
        assert h.m <= 10

    def test_shortfall_is_logged_not_raised(self, caplog):
        # t=1 on 3 vertices cannot host 50 pair-edges; expect a shortfall
        params = GeneratorParams(seed=1, n=3, t=1, size_range=(2, 2), density=50)
        with caplog.at_level(logging.INFO):
            h = random_bounded_codegree(params)
        assert h.m < 50

    def test_matches_pair_dict_sampler(self):
        rng = random.Random(2024)
        for _ in range(1000):
            n = rng.randint(1, 16)
            lo = rng.randint(1, n)
            params = GeneratorParams(
                seed=rng.getrandbits(32),
                n=n,
                t=rng.randint(1, 4),
                size_range=(lo, rng.randint(lo, n)),
                density=rng.randint(0, 12),
            )
            assert_same_as_fresh(
                random_bounded_codegree(params), naive_random_bounded_codegree(params)
            )

    @pytest.mark.parametrize(
        "n, size_range, density",
        [
            # sample(range(n), s) keeps a pool while n <= 21 for s <= 5,
            (21, (1, 5), 40),
            (22, (1, 5), 40),
            # while n <= 85 for 6 <= s <= 21,
            (85, (6, 21), 25),
            (86, (6, 21), 25),
            # and while n <= 277 for 22 <= s <= 85; else it draws below n
            (277, (22, 30), 8),
            (278, (22, 30), 8),
            # one call draws by both methods
            (100, (1, 30), 25),
            # s = n always keeps a pool; s = 1 draws below n once n > 21
            (22, (22, 22), 3),
            (86, (86, 86), 2),
            (278, (1, 1), 5),
            (1, (1, 1), 2),
        ],
    )
    def test_matches_sampler_on_both_sample_methods(self, n, size_range, density):
        for t in (1, 2, 3):
            for seed in range(3):
                params = GeneratorParams(
                    seed=1000 * t + seed, n=n, t=t, size_range=size_range, density=density
                )
                assert_same_as_fresh(
                    random_bounded_codegree(params), naive_random_bounded_codegree(params)
                )

    @pytest.mark.parametrize(
        "n, t, size_range, density, seed, digest",
        [
            (200, 2, (2, 12), 600, 11,
             "d914330c70804810a35c2f454f376e156e30d7ef2c36660050434dc2871e735f"),
            (90, 1, (2, 8), 200, 3,
             "b8ac89ec6d2ea8f29ad086fa4b30ca9e98c1b37b6b20dd20da7034b1cd572f01"),
            (300, 3, (20, 30), 100, 5,
             "fcbc214cd6ef9c2f792df9095e33e25e12e16e4641b978dd56324329fcf361d5"),
        ],
    )
    def test_pinned_instances(self, n, t, size_range, density, seed, digest):
        # sha256 of the written instance, the same under Python 3.10-3.12:
        # the sampler and its naive reference cannot drift together
        params = GeneratorParams(seed=seed, n=n, t=t, size_range=size_range, density=density)
        text = format_hg(random_bounded_codegree(params))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GeneratorParams(seed=0, n=0, t=1, size_range=(2, 2), density=1)
        with pytest.raises(ValueError):
            GeneratorParams(seed=0, n=5, t=1, size_range=(3, 2), density=1)
        with pytest.raises(ValueError):
            GeneratorParams(seed=0, n=5, t=1, size_range=(2, 6), density=1)
