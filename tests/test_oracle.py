"""Exact oracle family: chromatic index, list colourability, complement
matchings and the small-instance enumerator."""

import itertools
import random
import time

import pytest

from hyperchrom import (
    BudgetExceeded,
    GeneratorParams,
    Hypergraph,
    ListColourResult,
    OracleBudget,
    enumerate_hypergraphs,
    exact_chromatic_index,
    exact_list_colourable,
    kernel_name,
    maximal_complement_matching,
    near_pencil,
    projective_plane,
    random_bounded_codegree,
    t_fold,
    validate_colouring,
)
from hyperchrom import _kernel_py, hypercore
from hyperchrom.hypercore import canonical_form

from tests._naive import (
    _edge_adj,
    naive_chromatic_index,
    naive_degree,
    naive_greedy_colour,
    naive_is_hall_violator,
    naive_list_colouring,
    naive_max_complement_matching_size,
    naive_overfull_star,
    naive_validate,
)
from tests.conftest import SPARSE_COLOURS, make_corpus, widened_masks


class TestExactChromaticIndex:
    def test_fano_needs_seven(self, fano):
        assert exact_chromatic_index(fano) == 7

    def test_triangle_needs_three(self, triangle):
        assert exact_chromatic_index(triangle) == 3

    def test_k4_needs_three(self, k4):
        # K4's line graph is 3-chromatic (perfect matchings give the classes).
        assert exact_chromatic_index(k4) == 3

    def test_empty_needs_zero(self):
        assert exact_chromatic_index(Hypergraph(3, [])) == 0

    def test_disjoint_edges_need_one(self):
        h = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
        assert exact_chromatic_index(h) == 1

    def test_two_fold_fano(self, fano):
        assert exact_chromatic_index(t_fold(fano, 2)) == 14

    def test_edge_budget_refusal_is_typed_and_falsy(self, c5):
        out = exact_chromatic_index(c5, OracleBudget(max_edges=3))
        assert isinstance(out, BudgetExceeded)
        assert out.kind == "edges"
        assert out.detail == "e(H)=5 exceeds 3"
        assert not out

    def test_met_bounds_answer_past_the_edge_budget(self, monkeypatch, fano):
        # pairwise-meeting lines: the clique meets the greedy colouring
        def no_search(*args, **kwargs):
            raise AssertionError("the kernel searched")

        monkeypatch.setattr(_kernel_py, "solve_chromatic", no_search)
        assert exact_chromatic_index(fano, OracleBudget(max_edges=3)) == 7
        assert exact_chromatic_index(projective_plane(7)) == 57
        assert exact_chromatic_index(t_fold(near_pencil(6), 2), OracleBudget(max_edges=1)) == 12

    def test_delta_tight_instances_answered_without_search(self):
        # Delta(H) equals the greedy colour count, so no search is needed
        for seed in (0, 4):
            h = _hard_instance(seed)
            delta = max(naive_degree(h, v) for v in range(h.n))
            budget = OracleBudget(max_edges=40, time_cap_ms=1000)
            assert exact_chromatic_index(h, budget) == delta
            assert delta == _naive_greedy_count(h)

    def test_time_refusal_carries_bounds(self, monkeypatch, fano):
        monkeypatch.setattr(
            _kernel_py,
            "solve_chromatic",
            lambda adj, cap, lower=0, cliques=(): (9, [0] * len(adj), False),
        )
        out = exact_chromatic_index(fano)
        assert isinstance(out, BudgetExceeded)
        assert out.kind == "time"
        assert out.detail == "best upper bound so far: 9"
        assert out.lower == max(naive_degree(fano, v) for v in range(fano.n))
        assert out.upper == 9

    def test_edge_refusal_carries_both_bounds(self, c5):
        out = exact_chromatic_index(c5, OracleBudget(max_edges=3))
        assert (out.lower, out.upper) == (2, 3)

    def test_edge_refusals_bracket_the_naive_index(self):
        corpus = make_corpus(40, base_seed=4000, n_range=(4, 10), t_range=(1, 2), size_hi=3)
        cases = [h for h, _t in corpus if h.m <= 10]
        cases += [Hypergraph(n, [(i, (i + 1) % n) for i in range(n)]) for n in (5, 7, 9)]
        refused = 0
        for h in cases:
            chi = naive_chromatic_index(h)
            out = exact_chromatic_index(h, OracleBudget(max_edges=1))
            if isinstance(out, BudgetExceeded):
                refused += 1
                assert out.kind == "edges"
                assert out.lower <= chi <= out.upper and out.lower < out.upper
            else:
                assert out == chi
        assert 0 < refused < len(cases)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            OracleBudget(max_edges=0)
        with pytest.raises(ValueError):
            OracleBudget(time_cap_ms=0)

    def test_matches_naive_on_corpus(self):
        for h, _t in make_corpus(12, base_seed=4000, n_range=(4, 8), t_range=(1, 2)):
            if h.m > 9:
                continue
            assert exact_chromatic_index(h) == naive_chromatic_index(h)


class TestKernel:
    def test_kernel_selected(self):
        assert kernel_name() == "python"

    def test_solver_handles_empty_graph(self):
        assert _kernel_py.solve_chromatic([], 1000) == (0, [], True)

    def test_time_cap_returns_best_proper_colouring(self):
        # Delta-tight instance whose proof takes far longer than the cap
        h = random_bounded_codegree(
            GeneratorParams(seed=0, n=14, t=2, size_range=(2, 4), density=40)
        )
        chi, col, completed = _kernel_py.solve_chromatic(list(h.view.rows), 20)
        assert completed is False
        assert naive_validate(h, dict(enumerate(col)))
        assert chi == max(col) + 1

    def test_list_search_on_empty_list(self):
        # an edge of the path 0-1-2 with nothing to choose from: no colouring
        adj = [0b010, 0b101, 0b010]
        assert _kernel_py.list_colour(adj, [0b1, 0, 0b1]) == (None, True)
        assert _kernel_py.list_colour(adj, [0b1, 0b11, 0b1]) == ([0, 1, 0], True)

    def test_lower_bound_at_greedy_skips_search(self, monkeypatch):
        h = _hard_instance(0)
        adj = [sum(1 << j for j in nbrs) for nbrs in _edge_adj(h)]
        ub = _naive_greedy_count(h)

        def no_search(*args):
            raise AssertionError("the kernel searched")

        monkeypatch.setattr(_kernel_py, "_search", no_search)
        chi, col, completed = _kernel_py.solve_chromatic(adj, 1000, lower=ub)
        assert (chi, completed) == (ub, True)
        assert naive_validate(h, dict(enumerate(col)))
        assert max(col) + 1 == ub


def _hard_instance(seed):
    return random_bounded_codegree(
        GeneratorParams(seed=seed, n=14, t=2, size_range=(2, 4), density=40)
    )


def _naive_greedy_count(h):
    """Colours of smallest-free-colour greedy, busiest edges first."""
    adj = _edge_adj(h)
    order = sorted(range(h.m), key=lambda e: (-len(adj[e]), e))
    col, stuck = naive_greedy_colour(h, order, {e: range(h.m) for e in range(h.m)})
    assert stuck is None
    return len(set(col.values()))


class TestExactListColourable:
    def test_fano_seven_uniform_yes(self, fano):
        lists = {e: range(7) for e in range(7)}
        res = exact_list_colourable(fano, lists)
        assert res.status == "yes"
        assert validate_colouring(fano, res.witness, lists=lists).valid
        assert len(set(res.witness.values())) == 7

    def test_fano_six_uniform_no(self, fano):
        res = exact_list_colourable(fano, {e: range(6) for e in range(7)})
        assert res.status == "no"
        assert res.witness is None

    def test_two_fold_near_pencil_pigeonhole_no(self):
        h = t_fold(near_pencil(6), 2)
        lists = {e: range(9) for e in range(h.m)}
        res = exact_list_colourable(h, lists)
        assert res.status == "no"
        _vertex, star, colours = naive_overfull_star(h, lists, range(h.m))
        assert (len(star), len(colours)) == (10, 9)
        assert naive_is_hall_violator(lists, range(h.m), star)
        assert res.detail == "Hall violator: 10 edges, 9 colours"

    def test_disjoint_edges_with_singleton_lists(self):
        h = Hypergraph(4, [(0, 1), (2, 3)])
        res = exact_list_colourable(h, {0: [5], 1: [5]})
        assert res.status == "yes"
        assert res.witness == {0: 5, 1: 5}

    def test_empty_hypergraph(self):
        res = exact_list_colourable(Hypergraph(2, []), {})
        assert res.status == "yes"
        assert res.witness == {}

    def test_budget_refusal(self, fano):
        res = exact_list_colourable(
            fano, {e: range(7) for e in range(7)}, OracleBudget(max_edges=2)
        )
        assert res.status == "budget"

    def test_star_settles_before_the_edge_budget(self):
        h = t_fold(near_pencil(6), 2)
        lists = {e: range(9) for e in range(h.m)}
        res = exact_list_colourable(h, lists, OracleBudget(max_edges=3))
        assert res.status == "no"
        assert res.detail == "Hall violator: 10 edges, 9 colours"

    def test_matches_naive_on_corpus(self):
        # colours below zero and from 64 up map to bit positions and back
        import random

        rng = random.Random(4242)
        corpus = make_corpus(10, base_seed=4300, n_range=(4, 7), t_range=(1, 2))
        for pool in (range(10), range(-6, 2), range(60, 70), range(-100, 300, 37)):
            for h, _t in corpus:
                if h.m > 8:
                    continue
                lists = {e: rng.sample(pool, rng.randint(1, 4)) for e in range(h.m)}
                res = exact_list_colourable(h, lists)
                naive = naive_list_colouring(h, lists)
                if res.status == "yes":
                    assert naive is not None
                    assert validate_colouring(h, res.witness, lists=lists).valid
                else:
                    assert res.status == "no"
                    assert naive is None

    def test_masks_and_decoded_lists_agree(self):
        rng = random.Random(8500)
        details = set()
        for h, _t in make_corpus(30, base_seed=8500, n_range=(4, 7), t_range=(1, 2)):
            if h.m > 8:
                continue
            pool = rng.sample(SPARSE_COLOURS, 5)
            lists = {e: frozenset(rng.sample(pool, rng.randint(1, 4))) for e in range(h.m)}
            lm, decoded = widened_masks(lists, rng.sample(SPARSE_COLOURS, 4))
            got = exact_list_colourable(h, lm)
            assert got == exact_list_colourable(h, decoded)
            details.add((got.status, got.detail.split(":")[0]))
        assert {("yes", ""), ("no", ""), ("no", "Hall violator")} <= details, details

    def test_negative_and_high_colours_yes_and_no(self, fano):
        # the seven lines pairwise intersect, and each star has only three
        # lines, so seven colours are needed and no pigeonhole settles six
        seven = {e: (-3, -1, 0, 64, 65, 128, 202) for e in range(7)}
        res = exact_list_colourable(fano, seven)
        assert naive_list_colouring(fano, seven) is not None
        assert res.status == "yes"
        assert validate_colouring(fano, res.witness, lists=seven).valid
        six = {e: (-3, -1, 64, 65, 128, 202) for e in range(7)}
        assert naive_list_colouring(fano, six) is None
        res = exact_list_colourable(fano, six)
        assert (res.status, res.detail) == ("no", "")

    def test_empty_list_is_no(self):
        h = Hypergraph(5, [(0, 1), (1, 2), (3, 4)])
        lists = {0: [-2, 70], 1: [], 2: [70]}
        assert naive_list_colouring(h, lists) is None
        res = exact_list_colourable(h, lists)
        assert res.status == "no"
        assert res.witness is None

    def test_time_refusal(self, fano):
        # the 2-fold Fano plane needs 14 colours; proving 13 fail outlasts the cap
        h = t_fold(fano, 2)
        started = time.monotonic()
        res = exact_list_colourable(
            h, {e: range(13) for e in range(h.m)}, OracleBudget(time_cap_ms=20)
        )
        assert time.monotonic() - started < 1.0
        assert res == ListColourResult("budget", detail="time cap hit")

    @pytest.mark.parametrize(
        "col,lists",
        [
            # every line takes the same colour: two meeting lines clash
            ([0] * 7, {e: range(7) for e in range(7)}),
            # proper, but line 0 takes colour 0, which its list lacks
            (list(range(7)), {0: range(1, 8), **{e: range(7) for e in range(1, 7)}}),
        ],
        ids=["conflict", "off-list"],
    )
    def test_witness_that_fails_its_lists_raises(self, monkeypatch, fano, col, lists):
        monkeypatch.setattr(
            _kernel_py, "list_colour", lambda adj, masks, cap, cliques=(): (col, True)
        )
        with pytest.raises(RuntimeError, match="^internal: "):
            exact_list_colourable(fano, lists)

    def test_witness_is_checked_against_the_given_lists(self, monkeypatch, fano):
        # a wrong mask offers line 0 only colour 0, which its list lacks: the
        # search obeys the mask, and only the caller's lists catch the clash
        real = hypercore.list_masks

        def wrong_masks(lists, edge_ids=None):
            lm = real(lists, edge_ids)
            return lm._replace(masks={**lm.masks, 0: 1 << lm.position[0]})

        monkeypatch.setattr(hypercore, "list_masks", wrong_masks)
        lists = {0: range(1, 8), **{e: range(7) for e in range(1, 7)}}
        with pytest.raises(RuntimeError, match="^internal: .*'list', 0"):
            exact_list_colourable(fano, lists)


class TestMaximumComplementMatching:
    def test_fano_has_none(self, fano):
        # every two lines of the plane meet, so no disjoint pair exists
        assert maximal_complement_matching(fano).pairs == ()

    def test_k4_pairs_all_edges(self, k4):
        cm = maximal_complement_matching(k4)
        assert len(cm.pairs) == 3
        cm.validate(k4)

    def test_four_disjoint_edges(self):
        h = Hypergraph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        cm = maximal_complement_matching(h)
        assert len(cm.pairs) == 2

    def test_matches_naive_on_corpus(self):
        for h, _t in make_corpus(14, base_seed=4400, n_range=(4, 8), t_range=(1, 2)):
            if h.m > 8:
                continue
            cm = maximal_complement_matching(h)
            cm.validate(h)
            assert len(cm.pairs) == naive_max_complement_matching_size(h)


def _brute_canon_count(n, t, min_size, max_edges, intersecting):
    """Independent enumeration by raw multiset search, counted up to iso."""
    subsets = [
        tuple(v for v in range(n) if mask >> v & 1)
        for mask in range(1, 1 << n)
        if mask.bit_count() >= min_size
    ]
    seen = set()
    for count in range(1, max_edges + 1):
        for combo in itertools.combinations_with_replacement(subsets, count):
            pair_counts = {}
            ok = True
            for edge in combo:
                for a, b in itertools.combinations(edge, 2):
                    pair_counts[(a, b)] = pair_counts.get((a, b), 0) + 1
                    if pair_counts[(a, b)] > t:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            if intersecting and any(
                not set(e) & set(f) for e, f in itertools.combinations(combo, 2)
            ):
                continue
            seen.add(canonical_form(Hypergraph(n, combo)))
    return len(seen)


class TestEnumerateHypergraphs:
    def test_counts_match_brute_force(self):
        for n, t, ms, me, inter in [
            (3, 1, 2, 3, False),
            (3, 2, 2, 3, False),
            (4, 1, 2, 3, True),
            (4, 1, 3, 2, False),
        ]:
            got = sum(
                1
                for _ in enumerate_hypergraphs(
                    n, t, min_size=ms, max_edges=me, intersecting=inter
                )
            )
            assert got == _brute_canon_count(n, t, ms, me, inter), (n, t, ms, me, inter)

    def test_yields_are_distinct_up_to_iso_and_obey_contract(self):
        keys = set()
        for h in enumerate_hypergraphs(4, 1, min_size=2, max_edges=3, intersecting=True):
            key = canonical_form(h)
            assert key not in keys
            keys.add(key)
            assert h.m >= 1
            assert all(len(e) >= 2 for e in h.edges)
            # codegree cap
            for a in range(h.n):
                for b in range(a + 1, h.n):
                    assert sum(1 for e in h.edges if a in e and b in e) <= 1
            # pairwise intersecting
            for e, f in itertools.combinations(h.edges, 2):
                assert set(e) & set(f)

    def test_triangle_is_enumerated(self, triangle):
        target = canonical_form(triangle)
        assert any(
            canonical_form(h) == target
            for h in enumerate_hypergraphs(3, 1, min_size=2, max_edges=3)
        )

    def test_single_instance_when_only_full_edge_fits(self):
        hs = list(enumerate_hypergraphs(3, 1, min_size=3, max_edges=2))
        # only {0,1,2} itself is available and it cannot repeat at t=1
        assert len(hs) == 1
        assert hs[0].edges == ((0, 1, 2),)

    def test_guards(self):
        with pytest.raises(ValueError):
            list(enumerate_hypergraphs(7, 1))
        with pytest.raises(ValueError):
            list(enumerate_hypergraphs(3, 1, max_edges=11))
        with pytest.raises(ValueError):
            list(enumerate_hypergraphs(3, 0))
        with pytest.raises(ValueError):
            list(enumerate_hypergraphs(3, 1, min_size=0))
