"""Size split, colour reservation, block colouring, and the two ladders."""

import math
import random
from fractions import Fraction

import pytest

from hyperchrom import (
    ColouringFailure,
    GeneratorParams,
    Hypergraph,
    PipelineParams,
    colour_main,
    colour_small,
    colour_sparse_block,
    colour_stability,
    degree_stats,
    near_pencil,
    predicates,
    projective_plane,
    random_bounded_codegree,
    reserve_colours,
    StageRecord,
    split_by_size,
    t_fold,
    uniform_lists,
    validate_colouring,
)
from hyperchrom import oracle, pipeline
from hyperchrom.oracle import ListColourResult, exact_list_colourable

from tests._naive import (
    naive_colour_small,
    naive_degree_pass,
    naive_forbidden_colours,
    naive_is_hall_violator,
    naive_list_colouring,
    naive_overfull_star,
    naive_reserve_colours,
    naive_validate,
)
from tests.conftest import (
    H3_CASES,
    PERTURBED_FORMS,
    SPARSE_COLOURS,
    make_corpus,
    perturbed_plane,
)


class TestSplitBySize:
    def test_all_small(self):
        h = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
        split = split_by_size(h, 4, 2)
        assert split.sml == (0, 1, 2) and split.med == () and split.lrg == ()

    def test_fano_all_medium(self, fano):
        split = split_by_size(fano, 3, 2)
        assert split.med == tuple(range(7))

    def test_one_edge_per_bucket(self):
        h = Hypergraph(9, [(0, 1), (0, 1, 2, 3, 4), tuple(range(9))])
        split = split_by_size(h, 8, 3)
        assert split.sml == (0,) and split.med == (1,) and split.lrg == (2,)

    def test_thresholds_checked(self, fano):
        with pytest.raises(ValueError):
            split_by_size(fano, 2, 3)
        with pytest.raises(ValueError):
            split_by_size(fano, 2, 0)


class TestPipelineParams:
    def test_defaults(self):
        p = PipelineParams()
        assert p.sigma == Fraction(1, 50)
        assert p.r1 == 4 and p.r0 is None and p.exact_budget == 12

    def test_strings_coerced_to_fractions(self):
        assert PipelineParams(delta="1/5").delta == Fraction(1, 5)

    def test_resolved_r0_is_sqrt_plus_two(self):
        p = PipelineParams()
        for n in (2, 7, 9, 16, 30):
            assert p.resolved_r0(n) == max(math.ceil(math.sqrt(n)) + 2, p.r1)
        assert PipelineParams(r0=9).resolved_r0(7) == 9

    def test_resolved_r0_never_below_r1(self):
        assert PipelineParams(r1=10).resolved_r0(7) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineParams(sigma=Fraction(1, 2))
        with pytest.raises(ValueError):
            PipelineParams(gamma=0)
        with pytest.raises(ValueError):
            PipelineParams(r1=0)
        with pytest.raises(ValueError):
            PipelineParams(r0=2, r1=4)
        with pytest.raises(ValueError):
            PipelineParams(exact_budget=-1)


class TestReserveColours:
    def test_gamma_zero_reserves_nothing(self):
        lists = {e: range(10) for e in range(3)}
        res = reserve_colours(lists, 0, Fraction(1, 20), seed=1)
        assert res.colours == frozenset()
        assert res.retries_used == 0

    def test_gamma_one_reserves_everything(self):
        lists = {e: range(10) for e in range(3)}
        res = reserve_colours(lists, 1, Fraction(1, 20), seed=1)
        assert res.colours == frozenset(range(10))

    def test_window_on_hundred_colour_lists(self):
        lists = {e: range(100) for e in range(5)}
        res = reserve_colours(lists, Fraction(3, 10), Fraction(1, 20), seed=0)
        assert not isinstance(res, ColouringFailure)
        for cs in lists.values():
            inter = len(res.colours & frozenset(cs))
            assert 25 <= inter <= 35
        assert res.gamma == Fraction(3, 10) and res.xi == Fraction(1, 20)

    def test_deterministic_per_seed(self):
        lists = {e: range(60) for e in range(4)}
        a = reserve_colours(lists, Fraction(1, 4), Fraction(1, 10), seed=9)
        b = reserve_colours(lists, Fraction(1, 4), Fraction(1, 10), seed=9)
        assert a.colours == b.colours and a.retries_used == b.retries_used

    def test_impossible_window_fails_as_value(self):
        # (gamma ± xi)·9 = [0.27, 0.45] contains no integer
        lists = {e: range(9) for e in range(2)}
        out = reserve_colours(lists, Fraction(1, 25), Fraction(1, 100), seed=0)
        assert isinstance(out, ColouringFailure)
        assert out.stage == "reserve"

    def test_empty_assignment(self):
        res = reserve_colours({}, Fraction(1, 2), Fraction(1, 10), seed=0)
        assert res.colours == frozenset()

    def test_matches_fraction_reference(self):
        # the rates colour_stability (2σ, σ/2) and colour_main (2γ, γ/2) use
        # at their defaults, plus a few others
        rates = [
            (Fraction(1, 25), Fraction(1, 100)),
            (Fraction(1, 4), Fraction(1, 16)),
            (Fraction(3, 10), Fraction(1, 20)),
            (Fraction(1, 3), Fraction(1, 7)),
            (Fraction(0), Fraction(1, 2)),
            (Fraction(1), Fraction(1, 3)),
        ]
        rng = random.Random(7100)
        for trial in range(30):
            lists = {
                e: rng.sample(range(-5, 60), rng.randint(1, 40))
                for e in range(rng.randint(0, 8))
            }
            gamma, xi = rates[trial % len(rates)]
            seed = rng.randrange(1000)
            got = reserve_colours(lists, gamma, xi, seed)
            want = naive_reserve_colours(lists, gamma, xi, seed)
            if want is None:
                assert isinstance(got, ColouringFailure)
            else:
                assert (got.colours, got.retries_used) == want

    def test_shared_and_repeated_lists_match_reference(self):
        # uniform:k gives every edge one list object; equal lists may also
        # come as separate objects or as ranges.  The window is checked once
        # per distinct list here and once per edge in the reference.
        rates = [
            (Fraction(1, 25), Fraction(1, 100)),
            (Fraction(1, 4), Fraction(1, 16)),
            (Fraction(3, 10), Fraction(1, 20)),
        ]
        rng = random.Random(7200)
        seen = set()
        for trial in range(36):
            k = rng.randint(5, 120)
            one = frozenset(range(-3, k))
            m = rng.randint(1, 30)
            if trial % 3 == 0:
                lists = {e: one for e in range(m)}
            elif trial % 3 == 1:
                lists = {e: range(-3, k) if e % 2 else frozenset(sorted(one)) for e in range(m)}
            else:  # mostly shared, some edges with a list of their own
                lists = {
                    e: one
                    if rng.random() < 0.8
                    else frozenset(rng.sample(range(-3, k + 5), rng.randint(1, k)))
                    for e in range(m)
                }
            gamma, xi = rates[trial // 3 % len(rates)]
            seed = rng.randrange(1000)
            got = reserve_colours(lists, gamma, xi, seed)
            want = naive_reserve_colours(lists, gamma, xi, seed)
            if want is None:
                assert isinstance(got, ColouringFailure)
                seen.add("failed")
            else:
                assert (got.colours, got.retries_used) == want
                seen.add("retried" if want[1] else "first draw")
        assert seen == {"failed", "retried", "first draw"}

    def test_every_draw_failing_matches_reference(self):
        lists = {e: range(9) for e in range(2)}
        assert naive_reserve_colours(lists, Fraction(1, 25), Fraction(1, 100), 3) is None
        out = reserve_colours(lists, Fraction(1, 25), Fraction(1, 100), 3)
        assert isinstance(out, ColouringFailure)

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            reserve_colours({}, Fraction(3, 2), Fraction(1, 10), 0)
        with pytest.raises(ValueError):
            reserve_colours({}, Fraction(1, 2), 0, 0)


class TestColourSmall:
    def test_disjoint_edges(self):
        h = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
        col = colour_small(h, range(3), {e: [7] for e in range(3)})
        assert col == {0: 7, 1: 7, 2: 7}

    def test_triangle_three_colours(self, triangle):
        lists = {e: [0, 1, 2] for e in range(3)}
        col = colour_small(triangle, range(3), lists)
        assert isinstance(col, dict)
        assert validate_colouring(triangle, col, lists=lists).valid
        assert len(set(col.values())) == 3

    def test_triangle_single_colour_fails(self, triangle):
        out = colour_small(triangle, range(3), {e: [0] for e in range(3)})
        assert isinstance(out, ColouringFailure)
        assert out.stage == "small"

    def test_forbidden_colours_respected(self):
        # a triangle whose edge 0 alone meets three coloured edges, at vertex 3
        h = Hypergraph(6, [(0, 1, 3), (1, 2, 4), (0, 2, 5), (3,), (3,), (3,)])
        lists = {e: [0, 1, 2, 3] for e in range(3)}
        col = colour_small(h, range(3), lists, {3: 0, 4: 1, 5: 2})
        assert col[0] == 3

    def test_forbidden_can_empty_a_list(self, triangle):
        # edge 3 meets edges 1 and 2 and takes their one colour; 1 comes first
        h = Hypergraph(4, [*triangle.edges, (2, 3)])
        out = colour_small(h, range(3), {e: [0] for e in range(3)}, {3: 0})
        assert isinstance(out, ColouringFailure)
        assert out.stuck_edge == 1
        assert out.detail == "list emptied by forbidden colours"

    def test_coloured_edges_match_a_row_scan_on_corpus(self, corpus):
        # colour_small with ``coloured`` is colour_small on the lists minus
        # the colours of the coloured edges each block edge meets, those
        # found by scanning every coloured edge
        rng = random.Random(7600)
        seen = set()
        for h, _t in corpus:
            ids = list(range(h.m))
            rng.shuffle(ids)
            cut = rng.randint(0, h.m)
            # colours reach below zero and repeat across edges
            col = {f: rng.randint(-3, 5) for f in ids[:cut]}
            block = ids[cut:]
            lists = {e: rng.sample(range(-3, 8), rng.randint(1, 8)) for e in block}
            banned = naive_forbidden_colours(h, block, col)
            seed = rng.randrange(100)
            got = colour_small(h, block, lists, col, seed=seed)
            want = colour_small(
                h, block, {e: set(lists[e]) - banned[e] for e in block}, seed=seed
            )
            assert got == want
            seen.add(got.detail if isinstance(got, ColouringFailure) else "coloured")
        assert {"coloured", "list emptied by forbidden colours"} <= seen, seen

    def test_parallel_copies_forbid_each_other(self):
        h = Hypergraph(3, [(0, 1), (0, 1), (2,)])
        assert colour_small(h, [1, 2], {1: [4, 5], 2: [4]}, {0: 4}) == {1: 5, 2: 4}

    def test_pigeonhole_star_fails_before_any_sweep(self, monkeypatch):
        # k + 1 edges through vertex 0, every list the same k colours
        k = 4
        h = Hypergraph(k + 3, [(0, i) for i in range(1, k + 2)] + [(k + 2, 1)])
        lists = uniform_lists(h, k)
        vertex, star, colours = naive_overfull_star(h, lists, range(h.m))
        assert vertex == 0 and naive_is_hall_violator(lists, range(h.m), star)

        def no_sweep(*args, **kwargs):
            raise AssertionError("colour_small swept a pigeonhole block")

        monkeypatch.setattr(pipeline, "greedy_extend", no_sweep)
        out = colour_small(h, range(h.m), lists)
        assert isinstance(out, ColouringFailure)
        assert out.stage == "small"
        assert out.detail == f"Hall violator: {len(star)} edges, {len(colours)} colours"
        assert out.stuck_edge == star[0]

    def test_deterministic_per_seed(self, fano):
        lists = uniform_lists(fano, 7)
        a = colour_small(fano, range(7), lists, seed=3)
        b = colour_small(fano, range(7), lists, seed=3)
        assert a == b

    def test_degree_pass_first_on_short_lists(self):
        # Delta <= k <= tn colours, uniform or per-edge from a pool of k + 2
        # negative and sparse ids, part of H coloured or none: colour_small
        # succeeds exactly when the seeded-passes-first reference does, fails
        # with its stuck edge and detail, and returns the naive degree pass's
        # colouring whenever that pass colours the block, else the
        # reference's seeded one
        rng = random.Random(8800)
        seen = set()
        for h, t in make_corpus(60, base_seed=8800, n_range=(5, 14), t_range=(1, 2)):
            delta = max(degree_stats(h).degree)
            for _ in range(6):
                k = rng.choice((delta, delta, rng.randint(delta, max(delta, t * h.n))))
                ids = list(range(h.m))
                rng.shuffle(ids)
                cut = rng.choice((0, 0, rng.randint(0, h.m // 2)))
                block = ids[cut:]
                if rng.random() < 0.5:
                    pool = list(range(k))
                    lists = {e: pool for e in block}
                else:
                    pool = rng.sample(SPARSE_COLOURS, k + 2)
                    lists = {e: rng.sample(pool, k) for e in block}
                coloured = {f: rng.choice(pool) for f in ids[:cut]}
                seed = rng.randrange(50)
                got = colour_small(h, block, lists, coloured, seed=seed)
                col, stuck, detail = naive_colour_small(h, block, lists, coloured, seed)
                banned = naive_forbidden_colours(h, block, coloured)
                first, first_stuck = naive_degree_pass(
                    h, block, {e: set(lists[e]) - banned[e] for e in block}
                )
                if col is None:
                    assert isinstance(got, ColouringFailure)
                    assert (got.stage, got.stuck_edge, got.detail) == ("small", stuck, detail)
                    seen.add(detail.split(":")[0])
                elif first_stuck is None:
                    assert got == first
                    seen.add("degree pass" + (" after coloured" if coloured else ""))
                else:
                    assert got == col
                    seen.add("seeded pass")
        assert seen >= {
            "degree pass",
            "degree pass after coloured",
            "seeded pass",
            "greedy stuck after 8 randomized passes",
            "Hall violator",
        }, seen


class TestColourSparseBlock:
    def test_disjoint_edges_one_colour(self):
        h = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
        col, report = colour_sparse_block(h, range(3), {e: [4, 5] for e in range(3)})
        assert col == {0: 4, 1: 4, 2: 4}
        assert report["colours_used"] == 1

    def test_fano_block_report(self, fano):
        col, report = colour_sparse_block(
            fano,
            range(7),
            uniform_lists(fano, 7),
            t=1,
            zeta=Fraction(1, 50),
            alpha=Fraction(1, 10),
        )
        assert isinstance(col, dict)
        assert report["colours_used"] == 7
        assert report["r"] == 3
        assert report["size_window_ok"] is True
        # 3 > (1 - 1/50)*sqrt(7) ~= 2.59, honestly reported
        assert report["r_bound_ok"] is False
        assert report["codegree_ok"] is True
        assert report["target"] == (1 - Fraction(1, 50) / 500) * 7
        assert report["target_met"] is False

    def test_empty_block(self, fano):
        col, report = colour_sparse_block(fano, (), {})
        assert col == {} and report == {"edges": 0, "colours_used": 0}

    def test_exhausted_list_fails(self, triangle):
        out, _report = colour_sparse_block(triangle, range(3), {e: [0] for e in range(3)})
        assert isinstance(out, ColouringFailure)
        assert out.stage == "sparse"


def _stage_map(run):
    return {s.stage: s.status for s in run.stages}


def _stage_list(run):
    return [(s.stage, s.status) for s in run.stages]


def _with_disjoint_edge(h, size):
    """``h`` plus one edge on ``size`` new vertices, so no longer intersecting:
    ``colour_main`` then runs its staged ladder."""
    return Hypergraph(h.n + size, list(h.edges) + [tuple(range(h.n, h.n + size))])


class TestColourStability:
    def test_disjoint_small_edges_trivial(self):
        h = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
        run = colour_stability(h, 1, {e: [0] for e in range(3)})
        assert run.ok
        assert run.outcome == {0: 0, 1: 0, 2: 0}
        assert _stage_map(run)["reserve"] == "skipped"

    def test_fano_six_lists_fails_and_oracle_agrees(self, fano):
        lists = uniform_lists(fano, 6)
        run = colour_stability(fano, 1, lists)
        assert not run.ok
        assert exact_list_colourable(fano, lists).status == "no"

    def test_forced_large_edges_use_partition(self, fano):
        params = PipelineParams(r0=2, r1=2)
        lists = uniform_lists(fano, 50)
        run = colour_stability(fano, 1, lists, params)
        assert run.ok
        assert validate_colouring(fano, run.outcome, lists=lists).valid
        stages = _stage_map(run)
        assert stages["reserve"] == "ok"
        assert stages["lrg-partition"] == "ok"
        assert stages["lrg-H1"] == "ok"
        assert len(set(run.outcome.values())) == 7

    def test_medium_edges_colour_from_reserve(self, triangle):
        params = PipelineParams(r0=2, r1=1)
        run = colour_stability(triangle, 1, uniform_lists(triangle, 100), params)
        assert run.ok
        med = next(s for s in run.stages if s.stage == "med")
        assert med.status == "ok"

    def test_medium_and_small_colours_disjoint(self):
        # spokes are small, the rim is medium: med colours come from R,
        # sml colours from the complement, so the blocks cannot collide
        h = near_pencil(5)
        params = PipelineParams(r0=4, r1=2)
        lists = uniform_lists(h, 100)
        run = colour_stability(h, 1, lists, params)
        assert run.ok
        assert validate_colouring(h, run.outcome, lists=lists).valid

    def test_medium_and_small_colour_collision_raises(self, monkeypatch):
        # a small-edge colouring that reuses a medium edge's colour is a bug
        # in the code, so it raises instead of failing a stage; the check is
        # not an assert, which python -O would strip
        h = near_pencil(5)
        params = PipelineParams(r0=4, r1=2)
        split = split_by_size(h, 4, 2)
        real, med_colours = pipeline.colour_small, []

        def collide(h, edge_ids, lists, coloured=None, *, seed=0):
            got = real(h, edge_ids, lists, coloured, seed=seed)
            if tuple(edge_ids) == split.med:
                med_colours.extend(got.values())
            elif tuple(edge_ids) == split.sml:
                got[split.sml[0]] = med_colours[0]
            return got

        monkeypatch.setattr(pipeline, "colour_small", collide)
        with pytest.raises(RuntimeError, match="internal: small and medium"):
            colour_stability(h, 1, uniform_lists(h, 100), params)
        assert med_colours

    def test_success_validates_on_corpus(self):
        sigma = Fraction(1, 50)
        for h, t in make_corpus(10, base_seed=6100, n_range=(5, 12), t_range=(1, 2)):
            size = math.ceil((1 - sigma) * t * h.n)
            lists = uniform_lists(h, size)
            run = colour_stability(h, t, lists)
            if run.ok:
                assert validate_colouring(h, run.outcome, lists=lists).valid
                assert len(set(run.outcome.values())) <= size

    def test_t_must_be_positive(self, fano):
        with pytest.raises(ValueError):
            colour_stability(fano, 0, uniform_lists(fano, 7))


class TestColourMain:
    def test_two_fold_fano_exact_fourteen(self, fano):
        h = t_fold(fano, 2)
        lists = uniform_lists(h, 14)
        run = colour_main(h, 2, lists)
        assert run.ok
        assert validate_colouring(h, run.outcome, lists=lists).valid
        assert len(set(run.outcome.values())) == 14

    def test_fano_minus_line_six_colours(self, fano):
        h = Hypergraph(7, fano.edges[:6])
        lists = uniform_lists(h, 6)
        run = colour_main(h, 1, lists)
        assert run.ok
        assert validate_colouring(h, run.outcome, lists=lists).valid
        assert len(set(run.outcome.values())) == 6

    def test_ladder_reaches_exact_rung(self):
        # uniform lists of size 9 are too tight for the main script on the
        # near-pencil with one more, disjoint edge, but the oracle settles it
        h = _with_disjoint_edge(near_pencil(9), 1)
        lists = uniform_lists(h, 9)
        run = colour_main(h, 1, lists)
        assert run.ok
        assert validate_colouring(h, run.outcome, lists=lists).valid
        assert len(set(run.outcome.values())) == 9
        assert _stage_list(run) == [
            ("main:split", "ok"),
            ("main:reserve", "ok"),
            ("main:partition", "ok"),
            ("main:H2", "ok"),
            ("main:H1", "ok"),
            ("main:sml", "failed"),
            ("exact", "ok"),
        ]

    def test_fano_six_lists_proved_impossible(self, fano):
        h = _with_disjoint_edge(fano, 1)
        run = colour_main(h, 1, uniform_lists(h, 6))
        assert not run.ok
        assert run.outcome.stage == "exact"
        assert "no proper colouring" in run.outcome.detail
        assert _stage_map(run)["exact"] == "failed"

    def test_exact_no_from_a_star_carries_its_violator(self, star_beside_edge):
        h = star_beside_edge
        run = colour_main(h, 1, uniform_lists(h, 2))
        detail = "Hall violator: 3 edges, 2 colours"
        assert run.outcome == ColouringFailure("exact", detail=detail)
        assert run.stages[-1] == StageRecord("exact", "failed", detail)

    def test_exact_budget_refusal_carries_its_detail(self, monkeypatch, fano):
        refused = ListColourResult("budget", detail="time cap hit")
        monkeypatch.setattr(oracle, "exact_list_colourable", lambda *args, **kwargs: refused)
        h = _with_disjoint_edge(fano, 1)
        run = colour_main(h, 1, uniform_lists(h, 6))
        assert run.outcome == ColouringFailure("exact", detail="time cap hit")
        assert run.stages[-1] == StageRecord("exact", "failed", "time cap hit")

    def test_exact_budget_skips_oracle(self, fano):
        params = PipelineParams(exact_budget=5)
        h = _with_disjoint_edge(fano, 1)
        run = colour_main(h, 1, uniform_lists(h, 6), params)
        assert not run.ok
        assert _stage_map(run)["exact"] == "skipped"

    def test_stages_when_stability_colours(self, fano):
        # an instance that colour_stability colours: colour_main does not
        # run that script, and its main script colours the instance alone
        params = PipelineParams(r0=2, r1=2)
        h = _with_disjoint_edge(fano, 3)
        lists = uniform_lists(h, 50)
        assert colour_stability(h, 1, lists, params).ok
        run = colour_main(h, 1, lists, params)
        assert run.ok
        assert _stage_list(run) == [
            ("main:split", "ok"),
            ("main:reserve", "ok"),
            ("main:partition", "ok"),
            ("main:H2", "ok"),
            ("main:H1", "ok"),
            ("main:sml", "skipped"),
            ("main:validate", "ok"),
        ]

    def test_stages_when_main_script_colours(self):
        h = random_bounded_codegree(
            GeneratorParams(seed=0, n=8, t=1, size_range=(2, 6), density=16)
        )
        run = colour_main(h, 1, uniform_lists(h, 11))
        assert run.ok
        assert _stage_list(run) == [
            ("main:split", "ok"),
            ("main:reserve", "ok"),
            ("main:partition", "ok"),
            ("main:H2", "ok"),
            ("main:H1", "ok"),
            ("main:sml", "ok"),
            ("main:validate", "ok"),
        ]

    def test_stages_without_medium_or_large_edges(self, triangle):
        run = colour_main(_with_disjoint_edge(triangle, 1), 1, {e: [0, 1] for e in range(4)})
        assert not run.ok
        assert _stage_list(run) == [
            ("main:split", "ok"),
            ("main:reserve", "skipped"),
            ("main:sml", "failed"),
            ("exact", "failed"),
        ]

    def test_intersecting_inputs_answered_in_one_stage(self, fano, triangle):
        # the inputs the ladder tests used before they gained a disjoint edge;
        # the matching runs whatever the exact budget
        h = near_pencil(9)
        run = colour_main(h, 1, uniform_lists(h, 9), PipelineParams(exact_budget=0))
        assert run.ok
        assert validate_colouring(h, run.outcome, lists=uniform_lists(h, 9)).valid
        assert run.stages == (
            StageRecord("exact", "ok", "intersecting: distinct representatives", 9),
        )
        for g, lists, edges, colours in (
            (fano, uniform_lists(fano, 6), 7, 6),
            (triangle, {e: [0, 1] for e in range(3)}, 3, 2),
        ):
            run = colour_main(g, 1, lists, PipelineParams(exact_budget=0))
            detail = f"Hall violator: {edges} edges, {colours} colours"
            assert run.outcome == ColouringFailure("exact", detail=detail)
            assert run.stages == (StageRecord("exact", "failed", detail),)

    def test_intersecting_needs_an_augmenting_path(self):
        # PG(2,4), L(e0) = {0, 1} and {0, 2..20} elsewhere: the smallest-colour
        # greedy gives e0 colour 0 and then runs out; e0 must take 1
        h = projective_plane(4)
        lists = {e: frozenset([0, *range(2, 21)]) for e in range(h.m)}
        lists[0] = frozenset({0, 1})
        run = colour_main(h, 1, lists)
        assert run.ok and run.outcome[0] == 1
        assert naive_validate(h, run.outcome, lists)

    def test_intersecting_corpus_agrees_with_naive(self):
        rng = random.Random(6400)
        cases = [(near_pencil(n), t) for n in range(3, 7) for t in (1, 2)]
        cases += [(projective_plane(q), t) for q in (2, 3, 4) for t in (1, 2)]
        answers = {True: 0, False: 0}
        for base, t in cases:
            h = t_fold(base, t) if t > 1 else base
            assert predicates(h).is_intersecting
            full = frozenset(range(t * h.n))
            for _ in range(4):
                # three random short sub-lists among the tn colours
                short = rng.sample(range(h.m), 3)
                lists = {e: full for e in range(h.m)}
                for e in short:
                    lists[e] = frozenset(rng.sample(range(3), rng.randint(1, 2)))
                run = colour_main(h, t, lists)
                # the same question with the short lists first, where the
                # brute force settles it without deep backtracking
                order = short + [e for e in range(h.m) if e not in short]
                g = Hypergraph(h.n, [h.edges[e] for e in order])
                want = naive_list_colouring(g, [lists[e] for e in order])
                answers[run.ok] += 1
                assert run.ok == (want is not None)
                if run.ok:
                    assert naive_validate(h, run.outcome, lists)
                else:
                    assert run.outcome.detail.startswith("Hall violator")
        assert answers[True] >= 10 and answers[False] >= 10, answers

    def test_main_script_colours_what_stability_colours(self):
        # colour_main does not run the stability script: on seeded
        # non-intersecting instances with tn lists, each one that
        # colour_stability colours, the main script colours as well
        params = PipelineParams()
        corpus = make_corpus(20, base_seed=7000)  # small edges only
        corpus += make_corpus(30, base_seed=7500, n_range=(9, 16), size_hi=6)
        corpus += make_corpus(30, base_seed=7300, n_range=(8, 16), size_hi=9)
        kinds = set()
        for h, t in corpus:
            lists = uniform_lists(h, t * h.n)
            if predicates(h).is_intersecting or not colour_stability(h, t, lists).ok:
                continue
            split = split_by_size(h, params.resolved_r0(h.n), params.r1)
            kinds.add("lrg" if split.lrg else "med" if split.med else "sml-only")
            run = colour_main(h, t, lists, params)
            assert run.ok
            assert not any(s.stage.startswith("stability:") for s in run.stages)
            assert naive_validate(h, run.outcome, lists)
        assert kinds == {"sml-only", "med", "lrg"}

    def test_success_validates_on_corpus(self):
        for h, t in make_corpus(10, base_seed=6200, n_range=(5, 12), t_range=(1, 2)):
            lists = uniform_lists(h, t * h.n)
            run = colour_main(h, t, lists)
            if run.ok:
                assert validate_colouring(h, run.outcome, lists=lists).valid

    def test_t_must_be_positive(self, fano):
        with pytest.raises(ValueError):
            colour_main(fano, 0, uniform_lists(fano, 7))


class TestH3Route:
    """The plane-plus-point instances, whose lines are the edges that reach
    H3; the ``H2`` stage colours them greedily, first, from their residual
    lists."""

    @pytest.mark.parametrize("q, t", H3_CASES)
    def test_default_r0_stops_at_a_hall_violator(self, q, t):
        # the lines are medium edges and keep only the reserved colours R,
        # so the greedy runs out
        h = perturbed_plane("pt", q, t)
        lists = uniform_lists(h, t * h.n)
        params = PipelineParams()
        run = colour_main(h, t, lists, params)
        assert not run.ok
        assert _stage_list(run) == [
            ("main:split", "ok"),
            ("main:reserve", "ok"),
            ("main:partition", "ok"),
            ("main:H2", "failed"),
            ("exact", "skipped"),
        ]
        assert run.stages[3].detail == "list exhausted"
        # the lines pairwise meet, so they need distinct colours, and they
        # outnumber R: any |R| + 1 of them are a Hall violator
        reserved, _ = naive_reserve_colours(lists, 2 * params.gamma, params.gamma / 2, 0)
        lines = list(range(h.m - 1))
        assert all(set(h.edges[a]) & set(h.edges[b]) for a in lines for b in lines)
        violator = lines[: len(reserved) + 1]
        assert naive_is_hall_violator({e: reserved for e in lines}, lines, violator)

    @pytest.mark.parametrize("q, t", H3_CASES)
    def test_r0_four_colours_in_the_h2_stage(self, q, t):
        # the lines are large edges with their full tn lists
        h = perturbed_plane("pt", q, t)
        lists = uniform_lists(h, t * h.n)
        run = colour_main(h, t, lists, PipelineParams(r0=4))
        assert run.ok
        assert naive_validate(h, run.outcome, lists)
        assert _stage_list(run) == [
            ("main:split", "ok"),
            ("main:reserve", "ok"),
            ("main:partition", "ok"),
            ("main:H2", "ok"),
            ("main:H1", "ok"),
            ("main:sml", "ok"),
            ("main:validate", "ok"),
        ]
        # the H2 stage counts H3's edges, every line, with its own
        assert run.stages[3].detail == f"{h.m - 1} edges"


class TestPerturbedPlanes:
    """The 30 perturbed t-fold planes (``conftest.perturbed_plane``) with tn
    lists: at the default r0 only the q = 3 ones colour, every edge small;
    the others stop at ``main:H2`` with ``exact`` skipped.  At r0 = 4 all 30
    colour."""

    @pytest.mark.parametrize("form, q, t", PERTURBED_FORMS)
    def test_outcomes(self, form, q, t):
        h = perturbed_plane(form, q, t)
        lists = uniform_lists(h, t * h.n)
        run = colour_main(h, t, lists)
        assert run.ok == (q == 3)
        if run.ok:
            assert naive_validate(h, run.outcome, lists)
        else:
            assert [s.stage for s in run.stages if s.status == "failed"] == ["main:H2"]
            assert _stage_map(run)["exact"] == "skipped"
        run = colour_main(h, t, lists, PipelineParams(r0=4))
        assert run.ok
        assert naive_validate(h, run.outcome, lists)


class TestForbiddenMaps:
    def test_maps_are_large_edge_colours_of_a_row_scan(self, monkeypatch):
        # the sml block of both scripts and the stability script's med block
        # avoid the colours of the large edges that meet them, all of them
        # coloured by then: colour_small gets exactly those edges, and its
        # answer is the one for lists cut down by a scan of every such edge
        real, calls = pipeline.colour_small, []

        def spy(h, edge_ids, lists, coloured=None, *, seed=0):
            got = real(h, edge_ids, lists, coloured, seed=seed)
            calls.append((h, split, tuple(edge_ids), lists, dict(coloured), seed, got))
            return got

        monkeypatch.setattr(pipeline, "colour_small", spy)
        corpus = make_corpus(12, base_seed=6300, n_range=(6, 12), t_range=(1, 2), size_hi=6)
        # a medium and a small edge that meet no large edge, so that both
        # blocks hold edges with nothing forbidden
        apart = Hypergraph(14, [tuple(range(6)), (0, 6, 7), (8, 9, 10), (1, 8), (11, 12)])
        for h, t in [*corpus, (apart, 1)]:
            for r0, r1 in ((2, 2), (3, 2), (4, 3), (None, 4)):
                params = PipelineParams(r0=r0, r1=r1)
                split = split_by_size(h, params.resolved_r0(h.n), params.r1)
                for k in (t * h.n, 80):  # long lists let the stability script reach med
                    colour_main(h, t, uniform_lists(h, k), params)
                    colour_stability(h, t, uniform_lists(h, k), params)
        kinds = set()
        for h, split, ids, lists, col, seed, got in calls:
            assert set(col) == set(split.lrg)
            assert ids in (split.sml, split.med)
            banned = naive_forbidden_colours(h, ids, col)
            cut = {e: lists.decode(lists.masks[e]) - banned[e] for e in ids}
            assert got == real(h, ids, cut, seed=seed)
            kinds.update((ids == split.sml, bool(cs)) for cs in banned.values())
        assert kinds == {(True, True), (False, True), (True, False), (False, False)}
