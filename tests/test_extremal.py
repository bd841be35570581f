"""Useful pairs, complement matchings, and the extremal colouring ladder."""

import random

import pytest

from hyperchrom import (
    ColouringFailure,
    ComplementMatching,
    Hypergraph,
    colour_extremal,
    colour_from_matching,
    find_useful_family,
    is_t_useful,
    maximal_complement_matching,
    near_pencil,
    projective_plane,
    t_fold,
    uniform_lists,
    validate_colouring,
)
from hyperchrom import extremal, oracle
from hyperchrom.hypercore import distinct_representatives
from hyperchrom.oracle import ListColourResult

from tests._naive import (
    naive_all_distinct,
    naive_list_colouring,
    naive_max_complement_matching_size,
    naive_predicates,
    naive_sdr,
    naive_validate,
)
from tests.conftest import SPARSE_COLOURS, make_corpus, widened_masks


class TestListMasksInput:
    """A ``ListMasks`` and the frozensets it decodes to give the same answers."""

    def test_colour_from_matching(self, monkeypatch):
        deferred = []

        def spy(lists, edge_ids):
            deferred.append(edge_ids)
            return distinct_representatives(lists, edge_ids)

        monkeypatch.setattr(extremal, "distinct_representatives", spy)
        rng = random.Random(8300)
        for h, _t in make_corpus(40, base_seed=8300, n_range=(4, 9), t_range=(1, 2)):
            cm = maximal_complement_matching(h)
            k = h.m - cm.size
            pool = rng.sample(SPARSE_COLOURS, 2 * k + 2)
            shared, left, right = pool[:2], pool[2 : k + 2], pool[k + 2 :]
            lists = {e: frozenset(rng.sample(pool, k)) for e in range(h.m)}
            for a, b in cm.pairs:
                # one common colour, one of two that all pairs draw on, so
                # some pairs lose theirs and are deferred
                c = rng.choice(shared)
                lists[a] = frozenset({c, *rng.sample(left, k - 1)})
                lists[b] = frozenset({c, *rng.sample(right, k - 1)})
            lm, decoded = widened_masks(lists, rng.sample(SPARSE_COLOURS, 4))
            got = colour_from_matching(h, cm, lm)
            assert got == colour_from_matching(h, cm, decoded)
            assert naive_validate(h, got, lists)
        assert len(deferred) >= 20

    def test_colour_extremal(self):
        rng = random.Random(8400)
        cases = make_corpus(30, base_seed=8400, n_range=(4, 8), t_range=(1, 2))
        cases += [(near_pencil(n), 1) for n in (4, 5, 6)]
        cases += [(t_fold(projective_plane(2), 2), 2)]
        rungs = set()
        for h, t in cases:
            tn = t * h.n
            pool = rng.sample(SPARSE_COLOURS, tn + 2)
            lists = {
                e: frozenset(rng.sample(pool, rng.randint(max(1, tn - 2), tn + 1)))
                for e in range(h.m)
            }
            lm, decoded = widened_masks(lists, rng.sample(SPARSE_COLOURS, 4))
            got = colour_extremal(h, t, lm, exact_budget=8)
            assert got == colour_extremal(h, t, decoded, exact_budget=8)
            rungs.add(got[1].rung)
        assert len(rungs) >= 4, rungs


class TestIsTUseful:
    def test_fano_lines_never_useful(self, fano):
        # any two lines meet, but their common neighbourhood is the other
        # five lines: 5 > 7 - 3
        for e in range(7):
            for f in range(e + 1, 7):
                assert is_t_useful(fano, 1, e, f) is False

    def test_small_common_neighbourhood_is_useful(self):
        h = Hypergraph(6, [(0, 1, 2), (0, 3, 4), (1, 3, 5)])
        # edges 0 and 1 meet at vertex 0 and share only edge 2 as neighbour
        assert is_t_useful(h, 1, 0, 1) is True

    def test_disjoint_edges_not_useful(self):
        h = Hypergraph(4, [(0, 1), (2, 3)])
        assert is_t_useful(h, 1, 0, 1) is False

    def test_errors(self, fano):
        with pytest.raises(ValueError):
            is_t_useful(fano, 1, 3, 3)
        with pytest.raises(ValueError):
            is_t_useful(fano, 1, 0, 99)
        with pytest.raises(ValueError):
            is_t_useful(fano, 0, 0, 1)


class TestMaximalComplementMatching:
    def test_fano_empty(self, fano):
        assert maximal_complement_matching(fano).pairs == ()

    def test_k4_maximum_is_three(self, k4):
        cm = maximal_complement_matching(k4)
        assert cm.size == 3
        cm.validate(k4)

    def test_two_disjoint_edges(self):
        h = Hypergraph(4, [(0, 1), (2, 3)])
        assert maximal_complement_matching(h).pairs == ((0, 1),)

    def test_validate_rejects_bad_pairs(self, k4):
        with pytest.raises(ValueError):
            ComplementMatching(((0, 0),)).validate(k4)
        with pytest.raises(ValueError):
            ComplementMatching(((0, 1),)).validate(k4)  # edges share vertex 0
        with pytest.raises(ValueError):
            ComplementMatching(((0, 5), (1, 5))).validate(k4)


class TestColourFromMatching:
    def test_k4_pairs_share_colours(self, k4):
        cm = maximal_complement_matching(k4)
        lists = {e: [0, 1, 2] for e in range(6)}
        col = colour_from_matching(k4, cm, lists)
        assert isinstance(col, dict)
        assert validate_colouring(k4, col, lists=lists).valid
        assert len(set(col.values())) == 3
        for a, b in cm.pairs:
            assert col[a] == col[b]

    def test_fano_empty_matching_all_distinct(self, fano):
        col = colour_from_matching(fano, ComplementMatching(()), uniform_lists(fano, 7))
        assert sorted(col.values()) == list(range(7))

    def test_disjoint_pair_shares_single_colour(self):
        h = Hypergraph(4, [(0, 1), (2, 3)])
        col = colour_from_matching(h, ComplementMatching(((0, 1),)), {0: [5], 1: [5]})
        assert col == {0: 5, 1: 5}

    def test_small_list_rejected(self, k4):
        cm = maximal_complement_matching(k4)
        lists = {e: [0, 1, 2] for e in range(6)}
        lists[3] = [0, 1]
        with pytest.raises(ValueError):
            colour_from_matching(k4, cm, lists)

    def test_colour_count_bound_on_corpus(self):
        # the whole point of a matching: e(H) - |N| classes suffice
        for h, _t in make_corpus(15, base_seed=5200, n_range=(4, 9)):
            if not 1 <= h.m <= 12:
                continue
            cm = maximal_complement_matching(h)
            k = h.m - cm.size
            lists = uniform_lists(h, k)
            col = colour_from_matching(h, cm, lists)
            assert isinstance(col, dict)
            assert validate_colouring(h, col, lists=lists).valid
            assert len(set(col.values())) <= k

    def test_deferred_pairs_always_get_distinct_colours(self):
        # lists of exactly k = e(H) - |matching| colours from a pool of 2k,
        # disjoint on every matched pair: all pairs defer, the k - |matching|
        # leftover edges take one colour each, and Hall's condition promises
        # the pairs' members two fresh colours apiece
        rng = random.Random(8700)
        cases = make_corpus(60, base_seed=8700, n_range=(4, 10), t_range=(1, 2))
        deferred = 0
        for h, _t in cases:
            cm = maximal_complement_matching(h)
            if not cm.pairs:
                continue
            k = h.m - cm.size
            pool = rng.sample(SPARSE_COLOURS, 2 * k)
            lists = {e: frozenset(rng.sample(pool, k)) for e in range(h.m)}
            for a, b in cm.pairs:
                lists[b] = frozenset(pool) - lists[a]
            col = colour_from_matching(h, cm, lists)
            assert naive_validate(h, col, lists)
            assert len(set(col.values())) == k + cm.size
            deferred += cm.size
        assert deferred >= 100


class TestFindUsefulFamily:
    def test_fano_has_none(self, fano):
        trace = []
        assert find_useful_family(fano, 1, trace=trace) is None
        assert any("scale k=2" in s for s in trace)

    def test_two_fold_fano_has_none(self, fano):
        assert find_useful_family(t_fold(fano, 2), 2) is None

    def test_fano_plus_extra_edge(self, fano):
        # adding a line-like edge creates one disjoint pair; when a family
        # comes back it must survive the mechanical certification
        h = Hypergraph(7, list(fano.edges) + [(1, 2, 3)])
        fam = find_useful_family(h, 1)
        if fam is not None:
            for a, b in fam.designated_pairs():
                assert is_t_useful(h, 1, a, b)

    def test_matching_route_short_circuits(self, k4):
        trace = []
        assert find_useful_family(k4, 1, trace=trace) is None
        assert any("matching route already suffices" in s for s in trace)

    def test_parameter_domain(self, fano):
        with pytest.raises(ValueError):
            find_useful_family(fano, 1, alpha=0)
        with pytest.raises(ValueError):
            find_useful_family(fano, 1, delta=1)
        with pytest.raises(ValueError):
            find_useful_family(fano, 0)

    def test_never_found_at_or_above_tn(self, fano, k4):
        # a family would give r+1 disjoint pairs, more than the maximum
        # complement matching that lets the search open
        extra = [
            (Hypergraph(7, list(fano.edges) + [(1, 2, 3)]), 1),
            (t_fold(fano, 2), 2),
            (k4, 1),
            (near_pencil(6), 1),
        ]
        corpus = make_corpus(40, base_seed=6000, n_range=(4, 10), t_range=(1, 2))
        checked = 0
        for h, t in extra + corpus:
            if h.m >= t * h.n:
                assert find_useful_family(h, t) is None
                checked += 1
        assert checked >= 15

    def test_returned_families_certify_on_corpus(self):
        for h, t in make_corpus(12, base_seed=5300, n_range=(4, 10)):
            fam = find_useful_family(h, t)
            if fam is None:
                continue
            assert len(set(fam.edges)) == len(fam.edges)
            for a, b in fam.designated_pairs():
                assert is_t_useful(h, t, a, b)


class TestColourExtremal:
    def test_fano_seven_colours(self, fano):
        lists = uniform_lists(fano, 7)
        col, report = colour_extremal(fano, 1, lists)
        assert isinstance(col, dict)
        assert validate_colouring(fano, col, lists=lists).valid
        assert len(set(col.values())) == 7
        assert report.rung == "2: all-distinct (e = t*n, intersecting)"

    def test_all_distinct_rungs_match_naive(self, fano):
        # rung 1 (e < tn) and rung 2 on intersecting instances with e = tn
        # give every edge the smallest colour of its list no earlier edge
        # took; where that greedy gets stuck, augmenting paths finish the
        # job or the rung names a Hall violator
        rng = random.Random(7600)
        cases = [(h, t) for h, t in make_corpus(30, base_seed=7600) if h.m < t * h.n]
        cases += [(fano, 1), (t_fold(fano, 2), 2), (near_pencil(6), 1)]
        coloured = augmented = violated = 0
        for h, t in cases:
            for _ in range(3):
                pool = range(-4, rng.randint(h.m // 2, h.m + 4))
                lists = {
                    e: frozenset(rng.sample(pool, rng.randint(1, len(pool))))
                    for e in range(h.m)
                }
                want, stuck_at = naive_all_distinct(lists, h.m)
                got, report = colour_extremal(h, t, lists, exact_budget=0)
                if stuck_at is None:
                    coloured += 1
                    assert got == want
                    assert report.rung.startswith(("1:", "2: all-distinct"))
                elif report.rung and report.rung.startswith(("1:", "2: all-distinct")):
                    augmented += 1
                    assert naive_validate(h, got, lists)
                    assert len(set(got.values())) == h.m
                else:
                    violated += 1
                    assert "found no distinct colours: Hall violator" in report.attempts[0]
                    if h.m <= 8:
                        assert naive_sdr(lists, range(h.m)) is None
        assert coloured and augmented and violated

    def test_fano_minus_line_six_colours(self, fano):
        h = Hypergraph(7, fano.edges[:6])
        lists = uniform_lists(h, 6)
        col, report = colour_extremal(h, 1, lists)
        assert isinstance(col, dict)
        assert len(set(col.values())) == 6
        assert report.rung.startswith("1:")

    def test_k4_three_colours_via_matching(self, k4):
        lists = uniform_lists(k4, 4)
        col, report = colour_extremal(k4, 1, lists)
        assert isinstance(col, dict)
        assert validate_colouring(k4, col, lists=lists).valid
        assert len(set(col.values())) <= 3
        assert report.rung == "4: maximum complement matching"
        assert report.matching_size == 3

    def test_above_tn_colours_without_family_search(self, monkeypatch, fano, k4):
        def no_search(*args, **kwargs):
            raise AssertionError("the family search ran")

        monkeypatch.setattr(extremal, "find_useful_family", no_search)
        for h in (Hypergraph(7, list(fano.edges) + [(1, 2, 3)]), k4):
            assert h.m > h.n  # e(H) > t*n at t = 1
            lists = uniform_lists(h, h.n)
            col, report = colour_extremal(h, 1, lists)
            assert isinstance(col, dict)
            assert naive_validate(h, col, lists)
            assert report.rung == "4: maximum complement matching"
            assert report.matching_size == naive_max_complement_matching_size(h)

    def test_two_disjoint_edges_share(self):
        h = Hypergraph(4, [(0, 1), (2, 3)])
        col, _report = colour_extremal(h, 1, {0: [9], 1: [9]})
        assert col == {0: 9, 1: 9}

    def test_e_equals_tn_without_intersecting_goes_to_rung_four(self):
        # at e = t*n a non-intersecting H has a disjoint pair, so lists of
        # e - 1 colours meet rung 4's precondition and rung 4 colours it
        rng = random.Random(5500)
        seen = 0
        for h, _t in make_corpus(30, base_seed=5500, n_range=(4, 9)):
            if h.m < h.n:
                continue
            edges = list(h.edges)
            rng.shuffle(edges)
            g = Hypergraph(h.n, edges[: h.n])  # e(G) = t*n at t = 1
            if naive_predicates(g)[1]:
                continue
            lists = uniform_lists(g, g.m - 1)
            col, report = colour_extremal(g, 1, lists)
            assert report.rung == "4: maximum complement matching"
            assert report.attempts == ()
            assert naive_validate(g, col, lists)
            assert len(set(col.values())) == g.m - naive_max_complement_matching_size(g)
            seen += 1
        assert seen >= 5

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
    def test_planes_less_a_point_colour_at_rung_four(self, q, t):
        # PG(2,q) with vertex n - 1 taken out of every line: e = t*n, and
        # only the t(q + 1) copies of the lines through it miss each other,
        # two copies of one line excepted, so a maximum complement matching
        # has t(q + 1) // 2 pairs
        plane = projective_plane(q)
        n = plane.n
        h = t_fold(Hypergraph(n, [[v for v in e if v != n - 1] for e in plane.edges]), t)
        assert h.m == t * n and not naive_predicates(h)[1]
        lists = uniform_lists(h, t * n)
        col, report = colour_extremal(h, t, lists)
        assert report.rung == "4: maximum complement matching"
        assert naive_validate(h, col, lists)
        assert report.matching_size == t * (q + 1) // 2
        assert len(set(col.values())) == h.m - report.matching_size

    def test_fano_six_lists_proved_impossible(self, fano):
        # the seven lines pairwise meet, so rung 2's Hall violator is the proof
        out, report = colour_extremal(fano, 1, uniform_lists(fano, 6))
        assert isinstance(out, ColouringFailure)
        assert out.detail == "Hall violator: 7 edges, 6 colours"
        assert report.rung is None
        assert report.attempts == (
            "rung 2 found no distinct colours: Hall violator: 7 edges, 6 colours",
        )
        assert report.matching_size is None

    def test_exact_budget_respected(self, k4):
        # K4 is not intersecting: its lists of two colours fail rung 4 and
        # six edges exceed a budget of five
        out, report = colour_extremal(k4, 1, uniform_lists(k4, 2), exact_budget=5)
        assert isinstance(out, ColouringFailure)
        assert report.attempts[-1] == "rung 5 skipped: e(H)=6 over budget 5"

    def test_short_lists_skip_the_matching(self, monkeypatch, k4):
        # two colours are fewer than half of K4's six edges, so no matching
        # can bring e(H) - |matching| down to them
        def no_matching(*args, **kwargs):
            raise AssertionError("the complement matching ran")

        monkeypatch.setattr(extremal, "maximal_complement_matching", no_matching)
        out, report = colour_extremal(k4, 1, uniform_lists(k4, 2), exact_budget=5)
        attempts = (
            "rung 4 lists smaller than e(H) - |matching|",
            "rung 5 skipped: e(H)=6 over budget 5",
        )
        assert out == ColouringFailure("colour_extremal", detail="; ".join(attempts))
        assert report.attempts == attempts
        assert report.rung is None and report.matching_size is None

    def test_matching_guard_never_skips_a_usable_rung_4(self):
        # on H that is not intersecting the ladder reaches rung 4, which
        # colours exactly when k >= e(H) - (largest complement matching)
        for h, t in make_corpus(30, base_seed=4100, n_range=(4, 8), t_range=(1, 2)):
            if h.m > 14 or naive_predicates(h)[1]:
                continue
            pairs = naive_max_complement_matching_size(h)
            for k in range(1, h.m + 1):
                _out, report = colour_extremal(h, t, uniform_lists(h, k), exact_budget=0)
                if report.rung is not None and report.rung[0] in "12":
                    continue
                assert (report.rung == "4: maximum complement matching") == (k >= h.m - pairs)
                assert (report.matching_size is None) == (2 * k < h.m)

    def test_rung_5_no_carries_the_oracle_detail(self, star_beside_edge):
        # not intersecting, so rung 1's violator does not end the ladder;
        # rung 4's lists are too short, and the oracle's star check says no
        h = star_beside_edge
        out, report = colour_extremal(h, 1, uniform_lists(h, 2))
        detail = "Hall violator: 3 edges, 2 colours"
        assert out == ColouringFailure("colour_extremal", detail=detail)
        assert report.rung is None
        assert report.attempts == (
            f"rung 1 found no distinct colours: {detail}",
            "rung 4 lists smaller than e(H) - |matching|",
            f"rung 5 proved no list colouring exists: {detail}",
        )

    def test_rung_5_no_from_search_has_no_detail(self, fano):
        # no star of Fano plus a disjoint edge outnumbers six colours, so
        # the oracle's "no" comes from its search and carries no detail
        h = Hypergraph(9, [*fano.edges, (7, 8)])
        out, report = colour_extremal(h, 1, uniform_lists(h, 6))
        assert out == ColouringFailure("colour_extremal", detail="not list-colourable")
        assert report.attempts[-1] == "rung 5 proved no list colouring exists"

    def test_rung_5_budget_refusal(self, monkeypatch, star_beside_edge):
        refused = ListColourResult("budget", detail="time cap hit")
        monkeypatch.setattr(oracle, "exact_list_colourable", lambda *args, **kwargs: refused)
        h = star_beside_edge
        out, report = colour_extremal(h, 1, uniform_lists(h, 2))
        assert report.attempts[-1] == "rung 5 budget exceeded: time cap hit"
        assert out == ColouringFailure("colour_extremal", detail="; ".join(report.attempts))

    def test_intersecting_verdict_without_matching_or_oracle(self, monkeypatch, fano):
        # on intersecting H rungs 1 and 2 decide: a colouring or a Hall
        # violator, never the complement matching or the list oracle
        calls = []

        def spy(name):
            def called(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} ran")

            return called

        monkeypatch.setattr(extremal, "maximal_complement_matching", spy("matching"))
        monkeypatch.setattr(oracle, "exact_list_colourable", spy("oracle"))
        rng = random.Random(8100)
        cases = [fano, Hypergraph(3, [(0, 1), (1, 2), (0, 2)])]
        cases += [near_pencil(n) for n in (4, 5, 6, 7)]
        cases += [Hypergraph(k + 2, [(0, i) for i in range(1, k + 1)]) for k in (3, 5)]
        verdicts = {True: 0, False: 0}
        for h in cases:
            assert naive_predicates(h)[1]  # intersecting
            for _ in range(12):
                pool = range(-3, h.m - 3)
                lists = {
                    e: frozenset(rng.sample(pool, rng.randint(1, len(pool))))
                    for e in range(h.m)
                }
                want = naive_list_colouring(h, lists)
                got, report = colour_extremal(h, 1, lists)
                verdicts[want is not None] += 1
                if want is None:
                    assert isinstance(got, ColouringFailure)
                    assert got.detail.startswith("Hall violator")
                    assert report.rung is None and report.matching_size is None
                else:
                    assert naive_validate(h, got, lists)
        assert not calls
        assert verdicts[True] >= 10 and verdicts[False] >= 10, verdicts

    def test_t_must_be_positive(self, fano):
        for t in (0, -2):
            with pytest.raises(ValueError, match="t must be positive"):
                colour_extremal(fano, t, uniform_lists(fano, 7))

    def test_augmenting_path_at_rung_two(self):
        # PG(2,4), L(e0) = {0, 1} and {0, 2..20} elsewhere: the greedy gives
        # e0 colour 0 and runs out of colours at the last line
        h = projective_plane(4)
        lists = {e: frozenset([0, *range(2, 21)]) for e in range(h.m)}
        lists[0] = frozenset({0, 1})
        col, report = colour_extremal(h, 1, lists)
        assert report.rung == "2: all-distinct (e = t*n, intersecting)"
        assert col[0] == 1 and naive_validate(h, col, lists)

    def test_empty_hypergraph(self):
        col, report = colour_extremal(Hypergraph(3, []), 1, {})
        assert col == {}
        assert report.rung == "empty"

    def test_near_pencil_needs_exactly_tn(self):
        h = near_pencil(6)
        lists = uniform_lists(h, 6)
        col, _ = colour_extremal(h, 1, lists)
        assert isinstance(col, dict)
        assert len(set(col.values())) == 6
        out, _ = colour_extremal(h, 1, uniform_lists(h, 5))
        assert isinstance(out, ColouringFailure)

    def test_validates_on_corpus(self):
        for h, t in make_corpus(12, base_seed=5400, n_range=(4, 9)):
            lists = uniform_lists(h, max(1, t * h.n))
            col, report = colour_extremal(h, t, lists)
            if isinstance(col, dict):
                assert validate_colouring(h, col, lists=lists).valid
            else:
                assert report.rung is None
            # |V(e)| >= (1 - delta) * sqrt(n) at the default delta = 1/10
            assert report.size_premise_ok == all(
                100 * len(e) ** 2 >= 81 * h.n for e in h.edges
            )
