"""Local-search reordering, the two partition scripts, and ordered greedy."""

import random
from fractions import Fraction

import pytest

from hyperchrom import (
    ColouringFailure,
    EdgeOrdering,
    Hypergraph,
    forward_degrees,
    greedy_list_colour,
    near_pencil,
    partition_extremal,
    partition_stability,
    reorder,
    size_monotone_ordering,
    t_fold,
    validate_colouring,
)
from hyperchrom.exactarith import fourth_root_enclosure
from hyperchrom.hypercore import subhypergraph
from hyperchrom.ordering import _nth_bit, default_r0, greedy_extend
from hyperchrom.pipeline import PipelineParams, split_by_size

from tests._naive import (
    naive_forward_degrees,
    naive_greedy_colour,
    naive_greedy_extend,
    naive_reorder,
    naive_volume,
)
from tests.conftest import H3_CASES, make_corpus, perturbed_plane


class TestSizeMonotoneOrdering:
    def test_near_pencil_big_edge_first(self):
        assert size_monotone_ordering(near_pencil(5)).perm == (0, 1, 2, 3, 4)

    def test_uniform_is_identity(self, fano):
        assert size_monotone_ordering(fano).perm == tuple(range(7))

    def test_mixed_sizes(self):
        h = Hypergraph(7, [(0, 1, 2, 3, 4), (5, 6), (0, 1, 2, 3, 4, 5, 6)])
        assert size_monotone_ordering(h).perm == (2, 0, 1)

    def test_subset_of_ids(self):
        h = Hypergraph(7, [(0, 1, 2, 3, 4), (5, 6), (0, 1, 2, 3, 4, 5, 6)])
        assert size_monotone_ordering(h, edge_ids=[0, 1]).perm == (0, 1)

    def test_repeated_id_rejected(self):
        with pytest.raises(ValueError):
            EdgeOrdering((0, 0, 1))


class TestForwardDegrees:
    def test_fano_rank_i_has_degree_i(self, fano):
        fwd = forward_degrees(fano, EdgeOrdering(tuple(range(7))))
        assert fwd == {e: e for e in range(7)}

    def test_disjoint_edges_zero(self):
        h = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
        fwd = forward_degrees(h, EdgeOrdering((2, 0, 1)))
        assert fwd == {0: 0, 1: 0, 2: 0}

    def test_first_edge_always_zero(self, corpus):
        for h, _t in corpus[:10]:
            if h.m == 0:
                continue
            order = EdgeOrdering(tuple(range(h.m))[::-1])
            assert forward_degrees(h, order)[order.perm[0]] == 0

    def test_matches_naive(self, corpus):
        for h, _t in corpus[:10]:
            order = EdgeOrdering(tuple(sorted(range(h.m), key=lambda e: -e)))
            assert forward_degrees(h, order) == naive_forward_degrees(h, list(order.perm))


def _w_factor(tau, K):
    """The W size-ratio cap 1 + 3*x*K^3, x the lower enclosure of tau^(1/4)."""
    x_lo, _ = fourth_root_enclosure(Fraction(tau))
    return 1 + 3 * x_lo * Fraction(K) ** 3


def _recheck_reorder(h, t, tau, K, out):
    """Re-derive every certificate bit of a ReorderOutcome from scratch."""
    fwd = naive_forward_degrees(h, list(out.ordering.perm))
    bound = t * (1 - Fraction(tau)) * h.n
    assert out.bound == bound
    if out.case == "A":
        assert all(d <= bound for d in fwd.values())
        assert out.e_star is None and out.W == ()
    else:
        assert out.e_star is not None
        assert out.W and out.W[-1] == out.e_star
        # W is an interval of the final ordering ending at e_star
        i_star = out.ordering.perm.index(out.e_star)
        assert out.ordering.perm[i_star - len(out.W) + 1 : i_star + 1] == out.W
        # everything after e_star obeys the forward-degree target (O1)
        assert out.certificates["O1_ok"] == all(
            fwd[e] <= bound for e in out.ordering.perm[i_star + 1 :]
        )
        # by construction, so no certificate reports them: the final prefix
        # is size-monotone and W's size ratio stays below the cap
        sizes = [len(h.edges[e]) for e in out.ordering.perm[: i_star + 1]]
        assert all(sizes[i] >= sizes[i + 1] for i in range(len(sizes) - 1))
        w_sizes = [len(h.edges[e]) for e in out.W]
        assert out.certificates["W1_ratio"] == Fraction(max(w_sizes), min(w_sizes))
        assert out.certificates["W1_ratio"] < _w_factor(tau, K)
        vol = naive_volume(h, out.W) if h.n >= 2 else Fraction(0)
        assert out.certificates["W2_volume"] == vol
        assert out.certificates["w2_ok"] == (vol >= out.certificates["target_volume"])


class TestReorder:
    def test_disjoint_edges_case_a(self):
        h = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
        out = reorder(h, 1, Fraction(1, 2), 8)
        assert out.case == "A"
        assert out.e_star is None
        assert sorted(out.ordering.perm) == [0, 1, 2]
        _recheck_reorder(h, 1, Fraction(1, 2), 8, out)

    def test_single_edge_case_a(self):
        out = reorder(Hypergraph(3, [(0, 1)]), 1, Fraction(1, 2), 8)
        assert out.case == "A"

    def test_fano_gets_stuck(self, fano):
        # bound is 3.5 while every line meets the other six, so the search
        # cannot shrink the prefix even once
        out = reorder(fano, 1, Fraction(1, 2), 8)
        assert out.case == "B"
        assert out.bound == Fraction(7, 2)
        assert out.e_star == 6
        assert set(out.W) == set(range(7))
        assert out.certificates["premise_ok"] is False
        assert out.certificates == {
            "premise_ok": False,
            "target_volume": 0,
            "W1_ratio": 1,
            "W2_volume": 1,
            "w2_ok": True,
            "O1_ok": True,
        }
        _recheck_reorder(fano, 1, Fraction(1, 2), 8, out)

    def test_premise_reported_when_satisfied(self):
        # tiny tau and large K: 1 - tau - 7 tau^(1/4)/K is clearly positive
        h = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
        out = reorder(h, 1, Fraction(1, 10**8), 1000)
        assert out.certificates["premise_ok"] is True
        assert out.certificates["target_volume"] > 0

    def test_parameter_domain(self, fano):
        for bad in (0, 1, -1, Fraction(3, 2)):
            with pytest.raises(ValueError):
                reorder(fano, 1, bad, 8)
        with pytest.raises(ValueError):
            reorder(fano, 1, Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            reorder(fano, 0, Fraction(1, 2), 8)
        with pytest.raises(ValueError):
            reorder(fano, 1, Fraction(1, 2), 8, edge_ids=[0, 0])

    def test_matches_naive_on_corpus(self, corpus):
        for h, t in corpus:
            for tau, K in ((Fraction(1, 2), 8), (Fraction(1, 20), 2), (Fraction(9, 10), 1)):
                out = reorder(h, t, tau, K)
                got = (out.ordering.perm, out.case, out.e_star, out.W)
                assert got == naive_reorder(h, t, tau, _w_factor(tau, K))

    def test_matches_naive_on_corpus_sub_ids(self, corpus):
        # seeded edge subsets in a shuffled order, as the partitions pass them
        rng = random.Random(17)
        for h, t in corpus:
            ids = rng.sample(range(h.m), rng.randint(0, h.m))
            for tau, K in ((Fraction(1, 2), 8), (Fraction(1, 20), 2), (Fraction(9, 10), 1)):
                out = reorder(h, t, tau, K, edge_ids=ids)
                got = (out.ordering.perm, out.case, out.e_star, out.W)
                assert got == naive_reorder(h, t, tau, _w_factor(tau, K), ids)

    def test_matches_naive_on_sub_ids(self, fano):
        h = t_fold(fano, 2)
        ids = [13, 2, 7, 4, 9, 0]
        out = reorder(h, 2, Fraction(1, 4), 2, edge_ids=ids)
        got = (out.ordering.perm, out.case, out.e_star, out.W)
        assert got == naive_reorder(h, 2, Fraction(1, 4), _w_factor(Fraction(1, 4), 2), ids)

    def test_certificates_honest_on_corpus(self, corpus):
        for h, t in corpus[:14]:
            for tau, K in ((Fraction(1, 2), 8), (Fraction(1, 20), 2)):
                _recheck_reorder(h, t, tau, K, reorder(h, t, tau, K))


def _stability_flags(h, t, sigma, delta, cert):
    """Ground-truth recomputation of the stability flags, no library reuse."""
    sigma, delta = Fraction(sigma), Fraction(delta)
    h2, w, h1 = cert.parts["H2"], cert.parts["W"], cert.parts["H1"]
    fwd = naive_forward_degrees(h, list(cert.ordering.perm))
    sizes = {e: len(h.edges[e]) for e in range(h.m)}
    n = h.n
    return {
        "P1": not w or max(sizes[e] for e in w) <= (1 + delta) * min(sizes[e] for e in w),
        "P2": not w or (n >= 2 and naive_volume(h, w) >= (1 - delta) * t),
        "P3": not h2
        or not w
        or all(sizes[e] >= max(sizes[f] for f in w) for e in h2),
        "FD1": all(fwd[e] <= (1 - 2 * sigma) * t * n for e in h1),
        "FD2": all(fwd[e] <= Fraction(t * n, 2000) for e in h2),
    }


def _check_parts_cover(h, cert, names):
    """The parts cover H's edges once each, and the certified ordering is
    the parts concatenated in splice order."""
    ids = []
    for name in names:
        ids.extend(cert.parts[name])
    assert sorted(ids) == list(range(h.m))
    assert cert.ordering.perm == tuple(ids)


class TestPartitionStability:
    def test_disjoint_edges_trivial(self):
        h = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
        cert = partition_stability(h, 1, Fraction(1, 100), Fraction(1, 10))
        assert cert.parts["W"] == () and cert.parts["H2"] == ()
        assert sorted(cert.parts["H1"]) == [0, 1, 2]
        assert all(cert.property_flags.values())
        assert set(cert.vacuous) == {"P1", "P2", "P3", "FD2"}

    def test_two_fold_fano_case_a(self, fano):
        h = t_fold(fano, 2)
        cert = partition_stability(h, 2, Fraction(1, 100), Fraction(1, 10))
        assert cert.notes["outer_case"] == "A"
        assert len(cert.parts["H1"]) == 14
        assert all(cert.property_flags.values())
        _check_parts_cover(h, cert, ("H2", "W", "H1"))
        assert cert.property_flags == _stability_flags(
            h, 2, Fraction(1, 100), Fraction(1, 10), cert
        )

    def test_case_b_with_tail(self):
        # triangle plus one disjoint edge: the disjoint edge leaves the
        # prefix, then the triangle blocks and becomes W
        h = Hypergraph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        cert = partition_stability(h, 1, Fraction(2, 5), Fraction(1, 10))
        assert cert.notes["outer_case"] == "B"
        assert set(cert.parts["W"]) == {0, 1, 2}
        assert cert.parts["H1"] == (3,)
        assert cert.parts["H2"] == ()
        assert cert.property_flags["P1"] is True
        assert cert.property_flags["P2"] is False  # vol(W)=3/10 < 9/10
        assert cert.witness["P2"] == str(Fraction(3, 10))
        assert cert.property_flags["FD1"] is True
        _check_parts_cover(h, cert, ("H2", "W", "H1"))
        assert cert.property_flags == _stability_flags(
            h, 1, Fraction(2, 5), Fraction(1, 10), cert
        )

    def test_case_b_with_oversized_h2(self):
        # one huge edge rides along in the blocked prefix but is too large
        # for W, so it lands in H2
        h = Hypergraph(8, [tuple(range(8)), (0, 1), (1, 2), (0, 2)])
        cert = partition_stability(h, 2, Fraction(9, 20), Fraction(1, 10))
        assert cert.parts["H2"] == (0,)
        assert set(cert.parts["W"]) == {1, 2, 3}
        assert cert.parts["H1"] == ()
        _check_parts_cover(h, cert, ("H2", "W", "H1"))
        assert cert.property_flags["P3"] is True
        assert cert.property_flags["FD2"] is True
        assert set(cert.vacuous) == {"FD1"}
        assert cert.property_flags == _stability_flags(
            h, 2, Fraction(9, 20), Fraction(1, 10), cert
        )

    def test_parameter_domain(self, fano):
        with pytest.raises(ValueError):
            partition_stability(fano, 1, Fraction(1, 2), Fraction(1, 10))
        with pytest.raises(ValueError):
            partition_stability(fano, 1, 0, Fraction(1, 10))
        with pytest.raises(ValueError):
            partition_stability(fano, 1, Fraction(1, 100), 0)
        with pytest.raises(ValueError):
            partition_stability(fano, 1, Fraction(1, 100), 1)

    def test_flags_match_recomputation_on_corpus(self, corpus):
        for h, t in corpus[:14]:
            for sigma in (Fraction(1, 100), Fraction(2, 5)):
                cert = partition_stability(h, t, sigma, Fraction(1, 10))
                _check_parts_cover(h, cert, ("H2", "W", "H1"))
                assert cert.property_flags == _stability_flags(
                    h, t, sigma, Fraction(1, 10), cert
                )


def _extremal_flags(h, t, delta, gamma, r0, cert):
    delta, gamma = Fraction(delta), Fraction(gamma)
    h3, h2, h1 = cert.parts["H3"], cert.parts["H2"], cert.parts["H1"]
    fwd = naive_forward_degrees(h, list(cert.ordering.perm))
    sizes = {e: len(h.edges[e]) for e in range(h.m)}
    n = h.n
    in_h1 = set(h1)
    return {
        "P'1": all(e in in_h1 for e in range(h.m) if sizes[e] <= r0),
        "P'2": all(sizes[e] ** 2 >= ((1 - 2 * delta) ** 2) * n for e in h3),
        "FD'1": all(fwd[e] <= t * n - 2 for e in h2),
        "FD'2": all(fwd[e] <= gamma * t * n for e in h1),
    }


class TestPartitionExtremal:
    def test_small_disjoint_edges_trivial(self):
        h = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
        cert = partition_extremal(h, 1, Fraction(1, 10), Fraction(1, 4), 2)
        assert cert.parts["H3"] == () and cert.parts["H2"] == ()
        assert sorted(cert.parts["H1"]) == [0, 1, 2]
        assert all(cert.property_flags.values())

    def test_two_fold_fano(self, fano):
        h = t_fold(fano, 2)
        cert = partition_extremal(h, 2, Fraction(1, 10), Fraction(1, 4), 2)
        assert cert.notes["outer_case"] == "B"
        _check_parts_cover(h, cert, ("H3", "H2", "H1"))
        assert cert.property_flags == _extremal_flags(
            h, 2, Fraction(1, 10), Fraction(1, 4), 2, cert
        )
        # the dense block cannot meet the near-extremal forward-degree cap
        # at this scale, and the certificate says so rather than hiding it
        assert cert.property_flags["FD'1"] is False
        assert cert.property_flags["P'1"] is True

    @pytest.mark.parametrize("q, t", H3_CASES)
    def test_plane_plus_point_fills_h3(self, q, t):
        # every line meets t*n - 1 others, above the inner bound
        # t*(1 - delta/4)*n, so the inner reorder sticks on the lines: H3 is
        # all of them, and the point edge, retired first, is all of H2 ∪ H1
        h = perturbed_plane("pt", q, t)
        delta, gamma, r0 = Fraction(1, 10), Fraction(1, 8), default_r0(h.n)
        cert = partition_extremal(h, t, delta, gamma, r0)
        assert cert.notes["inner_case"] == "B"
        assert sorted(cert.parts["H3"]) == list(range(h.m - 1))
        assert cert.parts["H2"] + cert.parts["H1"] == (h.m - 1,)
        _check_parts_cover(h, cert, ("H3", "H2", "H1"))
        assert cert.property_flags == _extremal_flags(h, t, delta, gamma, r0, cert)

    def test_p2_witness_is_first_short_h3_edge(self):
        # the planes' lines are never short; a t-fold near-pencil's spokes
        # (size 2) are, and on enough points they stick in H3 too
        cases = [(perturbed_plane("pt", q, t), t) for q, t in H3_CASES]
        for n, t in ((21, 2), (25, 2), (41, 1), (45, 1)):
            pencil = t_fold(near_pencil(n), t)
            cases.append((Hypergraph(n, [*pencil.edges, (0,)]), t))
        delta, short_seen = Fraction(1, 10), 0
        for h, t in cases:
            cert = partition_extremal(h, t, delta, Fraction(1, 4), 2)
            assert cert.parts["H3"]
            short = [
                e
                for e in cert.parts["H3"]
                if len(h.edges[e]) ** 2 < (1 - 2 * delta) ** 2 * h.n
            ]
            assert cert.witness.get("P'2") == (short[0] if short else None)
            short_seen += bool(short)
        assert short_seen == 4

    def test_parameter_domain(self, fano):
        with pytest.raises(ValueError):
            partition_extremal(fano, 1, 0, Fraction(1, 4), 2)
        with pytest.raises(ValueError):
            partition_extremal(fano, 1, Fraction(1, 10), 1, 2)
        with pytest.raises(ValueError):
            partition_extremal(fano, 1, Fraction(1, 10), Fraction(1, 4), -1)

    def test_flags_match_recomputation_on_corpus(self, corpus):
        for h, t in corpus[:14]:
            cert = partition_extremal(h, t, Fraction(1, 10), Fraction(1, 4), 3)
            _check_parts_cover(h, cert, ("H3", "H2", "H1"))
            assert cert.property_flags == _extremal_flags(
                h, t, Fraction(1, 10), Fraction(1, 4), 3, cert
            )


class TestPartitionOnEdgeIds:
    def test_matches_sub_hypergraph_on_corpus(self, corpus):
        # the pipeline partitions its large (stability) and medium-and-large
        # (extremal) edges on H's own rows; that must be the partition of
        # their sub-hypergraph, with its edge ids mapped back
        params, rng = PipelineParams(), random.Random(11)
        seen = {"split": 0, "P'1": 0}
        for h, t in corpus:
            for r0, r1 in ((2, 2), (3, 2), (params.resolved_r0(h.n), params.r1)):
                split = split_by_size(h, r0, r1)
                chosen = tuple(sorted(rng.sample(range(h.m), h.m // 2)))
                for ids in (split.lrg, tuple(sorted(split.med + split.lrg)), chosen):
                    sub, back = subhypergraph(h, ids)
                    for partition, args in (
                        (partition_stability, (params.sigma, params.delta)),
                        (partition_extremal, (params.delta, params.gamma, r0)),
                    ):
                        want = partition(sub, t, *args)
                        got = partition(h, t, *args, edge_ids=ids)
                        assert got.parts == {
                            k: tuple(back[i] for i in part) for k, part in want.parts.items()
                        }
                        assert got.property_flags == want.property_flags
                        # edge witnesses are ids; P1's is a size pair, P2's a volume
                        assert got.witness == {
                            k: back[w] if isinstance(w, int) else w
                            for k, w in want.witness.items()
                        }
                        assert got.vacuous == want.vacuous
                        assert got.notes == want.notes
                        seen["split"] += any(want.parts.get(k) for k in ("H2", "H3"))
                        seen["P'1"] += "P'1" in want.witness
        assert seen["split"] >= 50 and seen["P'1"] >= 50, seen


class TestGreedyListColour:
    def test_disjoint_edges_single_colour(self):
        h = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
        col = greedy_list_colour(h, {e: [0] for e in range(3)})
        assert col == {0: 0, 1: 0, 2: 0}

    def test_fano_seven_colours(self, fano):
        lists = {e: range(7) for e in range(7)}
        col = greedy_list_colour(fano, lists)
        assert sorted(col.values()) == list(range(7))
        assert validate_colouring(fano, col, lists=lists).valid

    def test_fano_six_colours_fails_at_last_edge(self, fano):
        out = greedy_list_colour(fano, {e: range(6) for e in range(7)})
        assert isinstance(out, ColouringFailure)
        assert out.stage == "greedy"
        assert out.stuck_edge == 6
        assert not out

    def test_respects_given_ordering(self, fano):
        order = EdgeOrdering((6, 5, 4, 3, 2, 1, 0))
        col = greedy_list_colour(fano, {e: range(7) for e in range(7)}, order)
        assert col[6] == 0 and col[0] == 6

    def test_partial_ordering_rejected(self, fano):
        with pytest.raises(ValueError):
            greedy_list_colour(fano, {e: range(7) for e in range(7)}, EdgeOrdering((0, 1)))

    def test_success_guarantee_on_corpus(self, corpus):
        for h, _t in corpus[:12]:
            order = size_monotone_ordering(h)
            fwd = forward_degrees(h, order)
            lists = {e: range(fwd[e] + 1) for e in range(h.m)}
            col = greedy_list_colour(h, lists, order)
            assert not isinstance(col, ColouringFailure)
            assert validate_colouring(h, col, lists=lists).valid


def _agrees_with_naive(h, order, lists, pre, seed) -> bool:
    """``greedy_extend`` from ``pre`` equals ``naive_greedy_extend``, with
    the smallest-colour pick and with the seeded one, which must consume
    the same random bits; returns whether the greedy got stuck."""
    for seeded in (False, True):
        col, want_col = dict(pre), dict(pre)
        if seeded:
            mine, theirs = random.Random(seed), random.Random(seed)
            got = greedy_extend(h, order, lists, col, mine)
            want = naive_greedy_extend(
                h, order, lists, want_col, lambda o: theirs.choice(sorted(o))
            )
            assert mine.random() == theirs.random()
        else:
            got = greedy_extend(h, order, lists, col)
            want = naive_greedy_extend(h, order, lists, want_col)
        assert (got, col) == (want, want_col)
    return got is not None


class TestGreedyExtend:
    def test_matches_naive_on_random_orders_and_precolourings(self):
        rng = random.Random(7300)
        for h, _t in make_corpus(30, base_seed=7300):
            order = list(range(h.m))
            rng.shuffle(order)
            cut = rng.randint(0, h.m)
            # lists reach below zero: colours are arbitrary ints, not bit positions
            lists = {
                e: frozenset(rng.sample(range(-4, 6), rng.randint(1, 6))) for e in range(h.m)
            }
            pre = {e: rng.choice(sorted(lists[e])) for e in order[:cut]}
            col = dict(pre)
            stuck = greedy_extend(h, order[cut:], lists, col)
            assert (col, stuck) == naive_greedy_colour(h, order[cut:], lists, pre)

    @pytest.mark.parametrize("shared", [True, False])
    def test_matches_per_edge_list_greedy_on_corpus(self, corpus, shared):
        # one list object for every edge (as uniform:k gives) or a list per
        # edge; colours reach below zero; half the cases start from a partly
        # filled colouring; both the smallest-colour and the seeded pick
        rng = random.Random(7500 + shared)

        def draw(pool):
            return frozenset(rng.sample(pool, rng.randint(1, len(pool))))

        stuck = 0
        for h, _t in corpus:
            for _ in range(3):
                order = list(range(h.m))
                rng.shuffle(order)
                cut = rng.choice((0, rng.randint(0, h.m)))
                pool = range(-6, rng.randint(-2, 12))
                one = draw(pool)
                lists = {e: one if shared else draw(pool) for e in range(h.m)}
                pre = {e: rng.choice(sorted(lists[e])) for e in order[:cut]}
                stuck += _agrees_with_naive(h, order[cut:], lists, pre, rng.randrange(1 << 32))
        assert stuck  # some cases end on a stuck edge

    @pytest.mark.parametrize("shared", [True, False])
    def test_rank_mapping_on_sparse_ids_and_outside_colours(self, corpus, shared):
        # bits number the colours by rank in the sorted union of the lists,
        # so negative, sparse and large ids pick as the per-edge greedy does;
        # a partly filled colouring may hold colours outside every list (as
        # H1's are when the small edges take C\R), which forbid nothing
        rng = random.Random(7800 + shared)
        sparse = [-10**6, -7, 0, 7, 10**3, 10**6, 2**70]
        outside = [-10**9, 5, 10**7]

        def draw():
            return frozenset(rng.sample(sparse, rng.randint(1, len(sparse))))

        stuck = prefilled_outside = 0
        for h, _t in corpus:
            for _ in range(3):
                order = list(range(h.m))
                rng.shuffle(order)
                cut = rng.randint(0, h.m)
                one = draw()
                lists = {e: one if shared else draw() for e in range(h.m)}
                pre = {
                    e: rng.choice(outside if rng.random() < 0.5 else sorted(lists[e]))
                    for e in order[:cut]
                }
                prefilled_outside += not set(outside).isdisjoint(pre.values())
                stuck += _agrees_with_naive(h, order[cut:], lists, pre, rng.randrange(1 << 32))
        assert stuck and prefilled_outside

    def test_nth_bit_is_the_kth_lowest_set_bit(self):
        for mask in range(1, 1 << 10):
            bits = [i for i in range(10) if mask >> i & 1]
            assert [_nth_bit(mask, k) for k in range(len(bits))] == [1 << i for i in bits]
        wide = (1 << 700) | (1 << 400) | 0b1011
        assert [_nth_bit(wide, k) for k in range(5)] == [1, 2, 8, 1 << 400, 1 << 700]

    def test_empty_order_changes_nothing(self, fano):
        rng = random.Random(3)
        col = {0: 5, 1: 6}
        assert greedy_extend(fano, [], {}, col, rng) is None
        assert col == {0: 5, 1: 6}
        assert rng.random() == random.Random(3).random()

    def test_stuck_edge_left_uncoloured(self, fano):
        lists = {e: frozenset({-1, 4}) for e in range(7)}
        col = {}
        assert greedy_extend(fano, range(7), lists, col) == 2
        assert col == {0: -1, 1: 4}

    def test_list_colour_matches_naive(self, corpus):
        rng = random.Random(7400)
        for h, _t in corpus[:20]:
            order = list(range(h.m))
            rng.shuffle(order)
            lists = {e: rng.sample(range(-3, 8), rng.randint(2, 8)) for e in range(h.m)}
            got = greedy_list_colour(h, lists, EdgeOrdering(tuple(order)))
            col, stuck = naive_greedy_colour(h, order, lists)
            if stuck is None:
                assert got == col
            else:
                assert isinstance(got, ColouringFailure) and got.stuck_edge == stuck
