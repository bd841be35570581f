import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperchrom import (
    ColouringFailure,
    Hypergraph,
    canonical_form,
    degree_stats,
    dual,
    is_isomorphic,
    line_graph,
    near_pencil,
    neighbourhoods,
    predicates,
    restrict_and_induce,
    subhypergraph,
    t_fold,
    uniform_lists,
    validate_colouring,
    volume,
)
from hyperchrom.hypercore import (
    HallViolator,
    _canon_search,
    _refine,
    distinct_representatives,
    list_masks,
    star_pigeonhole,
)
from tests._naive import (
    _edge_adj,
    naive_closed_nbhd,
    naive_codegree,
    naive_conflicts,
    naive_all_distinct,
    naive_degree,
    naive_greedy_colour,
    naive_is_hall_violator,
    naive_is_isomorphic,
    naive_list_colouring,
    naive_overfull_star,
    naive_predicates,
    naive_sdr,
    naive_validate,
    naive_volume,
)
from tests.conftest import SPARSE_COLOURS, make_corpus, widened_masks


class TestHypergraph:
    def test_edges_normalized_sorted_and_deduped_within_edge(self):
        h = Hypergraph(5, [(3, 1, 1, 2)])
        assert h.edges == ((1, 2, 3),)

    def test_duplicate_edges_kept(self):
        h = Hypergraph(3, [(0, 1), (0, 1)])
        assert h.m == 2

    def test_rejects_empty_edge(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [()])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Hypergraph(3, [(-1, 0)])

    def test_equality_and_hash(self):
        a = Hypergraph(3, [(0, 1), (1, 2)])
        b = Hypergraph(3, [(1, 0), (2, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Hypergraph(4, [(0, 1), (1, 2)])

    def test_edge_masks(self):
        h = Hypergraph(4, [(0, 2), (1, 3)])
        assert h.edge_mask(0) == 0b0101
        assert h.edge_mask(1) == 0b1010


class TestDegreeStats:
    def test_fano_profile(self, fano):
        stats = degree_stats(fano)
        assert set(stats.degree) == {3}
        assert stats.max_degree == 3
        assert set(stats.codegree.values()) == {1}
        assert stats.max_codegree == 1
        assert len(stats.codegree) == 21  # all pairs covered exactly once

    def test_empty_hypergraph(self):
        stats = degree_stats(Hypergraph(5, []))
        assert stats.degree == (0,) * 5
        assert stats.max_degree == 0
        assert stats.max_codegree == 0

    def test_two_fold_fano_doubles_counts(self, fano):
        stats = degree_stats(t_fold(fano, 2))
        assert set(stats.degree) == {6}
        assert stats.max_codegree == 2

    def test_matches_naive_on_corpus(self, corpus):
        for h, _t in corpus:
            stats = degree_stats(h)
            assert list(stats.degree) == [naive_degree(h, v) for v in range(h.n)]


class TestVolume:
    def test_fano_total_volume_is_one(self, fano):
        assert volume(fano) == 1

    def test_empty_selection(self, fano):
        assert volume(fano, ()) == 0

    def test_three_fold_fano(self, fano):
        assert volume(t_fold(fano, 3)) == 3

    def test_requires_two_vertices(self):
        with pytest.raises(ValueError):
            volume(Hypergraph(1, [(0,)]))

    def test_matches_naive(self, corpus):
        for h, _t in corpus:
            assert volume(h) == naive_volume(h)

    def test_codegree_cap_bounds_volume(self, corpus):
        for h, t in corpus:
            assert degree_stats(h).max_codegree <= t
            assert volume(h) <= t


class TestDual:
    def test_single_edge(self):
        d = dual(Hypergraph(2, [(0, 1)]))
        assert d.n == 1 and d.edges == ((0,), (0,))

    def test_fano_self_dual(self, fano):
        assert is_isomorphic(dual(fano), fano)

    def test_double_dual_isomorphic(self, fano):
        assert is_isomorphic(dual(dual(fano)), fano)

    def test_rejects_isolated_vertices(self):
        with pytest.raises(ValueError):
            dual(Hypergraph(3, [(0, 1)]))

    def test_edges_are_the_vertex_stars_on_corpus(self, corpus):
        # edge v of the dual lists, ascending, the edges of H through v; the
        # first vertex of degree 0 is the one the error names
        covered = 0
        for h, _t in corpus:
            stars = [tuple(i for i, e in enumerate(h.edges) if v in e) for v in range(h.n)]
            if () in stars:
                with pytest.raises(ValueError, match=f"vertex {stars.index(())} has degree 0"):
                    dual(h)
                continue
            d = dual(h)
            assert (d.n, d.edges) == (h.m, tuple(stars))
            covered += 1
        assert covered

    @pytest.mark.parametrize(
        "cliques, line_degrees",
        [
            # two triangles glued at the edge of the shared ground vertex 0
            ([(0, 1, 2), (0, 3, 4)], [2, 2, 2, 2, 4]),
            # one clique: four parallel edges, a complete line graph
            ([(0, 1, 2, 3)], [3, 3, 3, 3]),
            # disjoint cliques: disjoint complete line graphs
            ([(0, 1), (2, 3, 4)], [1, 1, 2, 2, 2]),
            ([(0, 1, 2), (0, 3, 4), (1, 3)], [2, 2, 3, 3, 4]),
        ],
    )
    def test_cliques_of_a_ground_set(self, cliques, line_degrees):
        # ground vertex v becomes the edge of the cliques through it, so
        # clique i becomes a vertex of degree |clique i|
        ground = max(max(c) for c in cliques) + 1
        d = dual(Hypergraph(ground, cliques))
        assert d.n == len(cliques) and d.m == ground
        assert [naive_degree(d, i) for i in range(d.n)] == [len(c) for c in cliques]
        assert max(d.view.degrees) == max(map(len, cliques))
        assert sorted(row.bit_count() for row in line_graph(d).adj) == line_degrees


class TestLineGraph:
    def test_fano_line_graph_complete(self, fano):
        g = line_graph(fano)
        assert g.n == 7
        assert all(g.adj[i].bit_count() == 6 for i in range(7))

    def test_disjoint_edges_give_edgeless_graph(self):
        h = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
        assert line_graph(h).adj == (0, 0, 0)

    def test_k4_line_graph_degrees(self, k4):
        g = line_graph(k4)
        assert g.n == 6
        assert all(g.adj[i].bit_count() == 4 for i in range(6))


class TestPredicates:
    def test_fano(self, fano):
        p = predicates(fano)
        assert p.is_linear and p.is_intersecting

    def test_two_fold_fano(self, fano):
        p = predicates(t_fold(fano, 2))
        assert not p.is_linear and p.is_intersecting

    def test_disjoint_pair(self):
        p = predicates(Hypergraph(4, [(0, 1), (2, 3)]))
        assert p.is_linear and not p.is_intersecting


class TestNeighbourhoods:
    def test_fano_closed_neighbourhoods_cover_everything(self, fano):
        nb = neighbourhoods(fano)
        assert all(nb.closed_vertex[v] == frozenset(range(7)) for v in range(7))

    def test_near_pencil_apex(self):
        from hyperchrom import near_pencil

        nb = neighbourhoods(near_pencil(5))
        assert nb.closed_vertex[0] == frozenset(range(5))

    def test_isolated_vertex_convention(self):
        nb = neighbourhoods(Hypergraph(3, [(0, 1)]))
        assert nb.closed_vertex[2] == frozenset({2})

    def test_edge_neighbourhoods_match_line_graph(self, corpus):
        for h, _t in corpus:
            nb = neighbourhoods(h)
            g = line_graph(h)
            for e in range(h.m):
                assert nb.edge[e] == frozenset(
                    f for f in range(h.m) if g.adj[e] >> f & 1
                )

    def test_closed_neighbourhood_matches_naive(self, corpus):
        for h, _t in corpus:
            nb = neighbourhoods(h)
            for v in range(h.n):
                assert nb.closed_vertex[v] == naive_closed_nbhd(h, v)


def _view_cases():
    """Random instances, instances with parallel edges, and sub-hypergraphs."""
    cases = [h for h, _t in make_corpus(20, base_seed=8100)]
    cases += [
        Hypergraph(5, [(0, 1), (0, 1), (1, 2, 3), (4,), (4,), (1, 2, 3)]),
        t_fold(near_pencil(6), 3),
        Hypergraph(4, []),
    ]
    cases += [subhypergraph(h, range(0, h.m, 2))[0] for h in cases[:10]]
    return cases


class TestLineGraphView:
    def test_rows_match_naive(self):
        for h in _view_cases():
            rows = h.view.rows
            for i, nbrs in enumerate(_edge_adj(h)):
                assert rows[i] == sum(1 << j for j in nbrs)
            assert line_graph(h).adj == rows

    def test_incidence_matches_naive(self):
        for h in _view_cases():
            for v, star in enumerate(h.view.incidence):
                assert star == sum(1 << i for i, e in enumerate(h.edges) if v in e)

    def test_closed_masks_match_naive(self):
        for h in _view_cases():
            for v in range(h.n):
                mask = h.view.closed_masks[v]
                assert {u for u in range(h.n) if mask >> u & 1} == naive_closed_nbhd(h, v)

    def test_degrees_match_naive(self):
        for h in _view_cases():
            assert list(degree_stats(h).degree) == [naive_degree(h, v) for v in range(h.n)]

    def test_predicates_match_naive(self):
        for h in _view_cases():
            p = predicates(h)
            assert (p.is_linear, p.is_intersecting) == naive_predicates(h)

    def test_built_once_per_instance(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        assert h.view is h.view
        assert line_graph(h) is line_graph(h)
        assert degree_stats(h) is degree_stats(h)

    def test_equality_and_hash_unchanged_after_build(self):
        a = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
        b = Hypergraph(4, [(1, 0), (2, 1), (3, 2)])
        before = hash(a)
        line_graph(a), neighbourhoods(a), predicates(a), degree_stats(a)
        assert hash(a) == before == hash(b)
        assert a == b and b == a

    def test_codegree_matches_naive(self):
        for h in _view_cases():
            expected = naive_codegree(h)
            stats = degree_stats(h)
            assert stats.max_codegree == max(expected.values(), default=0)
            assert "codegree" not in vars(stats)  # built on first read only
            assert dict(stats.codegree) == expected

    def test_codegree_map_is_read_only(self):
        stats = degree_stats(Hypergraph(3, [(0, 1)]))
        with pytest.raises(TypeError):
            stats.codegree[(0, 1)] = 5


class TestStarPigeonhole:
    def test_first_overfull_star_and_naive_finds_no_colouring(self):
        import random

        rng = random.Random(5150)
        fired = 0
        for h, _t in make_corpus(30, base_seed=5100, n_range=(3, 7), t_range=(1, 2)):
            if h.m > 8:
                continue
            for _ in range(4):
                lists = {
                    e: frozenset(rng.sample(range(5), rng.randint(1, 3)))
                    for e in range(h.m)
                }
                ids = [e for e in range(h.m) if rng.random() < 0.8]
                expected = naive_overfull_star(h, lists, ids)
                star = star_pigeonhole(h, lists, ids)
                if expected is None:
                    assert star is None
                    continue
                fired += 1
                _vertex, edges, colours = expected
                assert star == HallViolator(tuple(edges), frozenset(colours))
                # the block's order does not matter: the star is ascending
                assert star_pigeonhole(h, lists, ids[::-1]) == star
                assert naive_is_hall_violator(lists, ids, star.edges)
                sub, _ = subhypergraph(h, ids)
                assert naive_list_colouring(sub, [lists[e] for e in ids]) is None
        assert fired >= 10

    def test_lowest_vertex_named(self):
        # stars at 0 (3 edges) and at 4 (3 edges), two colours each
        h = Hypergraph(7, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (3, 4)])
        star = star_pigeonhole(h, uniform_lists(h, 2), range(h.m))
        assert star == HallViolator((0, 1, 2), frozenset({0, 1}))
        assert star.detail == "Hall violator: 3 edges, 2 colours"


class TestListMasks:
    def test_one_mask_per_distinct_list(self):
        # bits follow the sorted union of the lists, so negative, sparse and
        # large colour ids all number densely from 0
        rng = random.Random(7700)
        one = frozenset(range(40))
        lists = {e: one for e in range(10)}
        lists.update({e: frozenset(rng.sample(range(-5, 40), 12)) for e in range(10, 20)})
        lists[20] = frozenset(sorted(lists[10]))  # equal to edge 10's list, another object
        lists[21] = [-10**6, 0, 7, 10**6]
        lm = list_masks(lists)
        assert lm.colours == tuple(sorted(set().union(*lists.values())))
        assert all(lm.colours[i] == c for c, i in lm.position.items())
        assert list(lm.masks) == list(lists)
        for e, cs in lists.items():
            assert lm.decode(lm.masks[e]) == frozenset(cs)
            assert lm.masks[e] == sum(1 << lm.colours.index(c) for c in cs)
        assert lm.masks[20] == lm.masks[10]
        assert lm.masks[0] == sum(1 << lm.position[c] for c in one)
        assert lm.mask([10**6, 3, 10**9]) == (1 << lm.position[10**6]) | (1 << lm.position[3])
        assert list_masks(lm) is lm

    def test_masks_equal_a_per_colour_build(self):
        rng = random.Random(7701)
        pool = [*SPARSE_COLOURS, -(2**70), 2**70, 2**70 + 1]
        lists = {e: rng.sample(pool, rng.randint(1, len(pool) - 1)) for e in range(30)}
        lists[30] = [2**70]
        lists[31] = []
        lists[32] = pool  # the full list
        lm = list_masks(lists)
        colours = sorted(set(pool))
        assert lm.colours == tuple(colours)
        for e, cs in lists.items():
            assert lm.masks[e] == sum(1 << colours.index(c) for c in set(cs)), e

    def test_only_the_given_edges(self):
        lists = {0: [5, 9], 1: [-2], 2: [9, 100]}
        lm = list_masks(lists, [2, 0])
        assert lm.colours == (5, 9, 100)
        assert lm.masks == {2: 0b110, 0: 0b011}

    def test_star_pigeonhole_reads_masks(self):
        h = Hypergraph(7, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (3, 4)])
        lists = {e: frozenset({-10**6, 10**6}) for e in range(h.m)}
        star = star_pigeonhole(h, list_masks(lists), range(h.m))
        assert star == star_pigeonhole(h, lists, range(h.m))
        assert star.colours == frozenset({-10**6, 10**6})


def _check_representatives(lists, ids) -> dict[int, int] | HallViolator:
    """``distinct_representatives`` against the brute force: an assignment
    exactly when one exists, injective and from the lists, equal to the
    greedy's whenever the greedy finishes; otherwise a checkable violator."""
    got = distinct_representatives(lists, ids)
    if naive_sdr(lists, ids) is None:
        assert isinstance(got, HallViolator)
        assert naive_is_hall_violator(lists, ids, got.edges)
        assert list(got.edges) == sorted(got.edges)
        assert got.colours == set().union(*(lists[e] for e in got.edges))
        return got
    assert isinstance(got, dict) and sorted(got) == sorted(ids)
    assert len(set(got.values())) == len(ids)
    assert all(got[e] in lists[e] for e in ids)
    greedy, stuck = naive_all_distinct([lists[e] for e in ids], len(ids))
    if stuck is None:
        assert got == {ids[i]: c for i, c in greedy.items()}
    return got


class TestDistinctRepresentatives:
    def test_seeded_lists_match_brute_force(self):
        rng = random.Random(8100)
        kinds = {"greedy": 0, "augmented": 0, "violator": 0}
        for _ in range(1500):
            m = rng.randint(1, 8)
            pool = range(-3, m - 2 + rng.randint(0, 2))
            # short lists over about m colours; one list object shared by some edges
            shared = frozenset(rng.sample(pool, min(2, len(pool))))
            lists = {
                e: shared
                if rng.random() < 0.3
                else frozenset(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
                for e in range(m)
            }
            ids = rng.sample(range(m), rng.randint(0, m))
            got = _check_representatives(lists, ids)
            if isinstance(got, HallViolator):
                kinds["violator"] += 1
            elif naive_all_distinct([lists[e] for e in ids], len(ids))[1] is None:
                kinds["greedy"] += 1
            else:
                kinds["augmented"] += 1
        assert min(kinds.values()) >= 20, kinds

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_property_matches_brute_force(self, data):
        shared = data.draw(
            st.lists(st.frozensets(st.integers(-4, 5), max_size=6), min_size=1, max_size=4)
        )
        picks = data.draw(st.lists(st.integers(0, len(shared) - 1), max_size=8))
        lists = {e: shared[p] for e, p in enumerate(picks)}
        ids = data.draw(st.permutations(range(len(picks))))
        _check_representatives(lists, ids[: data.draw(st.integers(0, len(ids)))])

    def test_masks_and_decoded_lists_agree(self):
        rng = random.Random(8200)
        kinds = {dict: 0, HallViolator: 0}
        for _ in range(400):
            m = rng.randint(1, 9)
            pool = rng.sample(SPARSE_COLOURS, m + 1)
            lists = {e: frozenset(rng.sample(pool, rng.randint(0, min(3, m)))) for e in range(m)}
            lm, decoded = widened_masks(lists, rng.sample(SPARSE_COLOURS, 3))
            ids = rng.sample(range(m), rng.randint(0, m))
            got = distinct_representatives(lm, ids)
            assert got == distinct_representatives(decoded, ids)
            kinds[type(got)] += 1
        assert min(kinds.values()) >= 50, kinds

    def test_greedy_answer_kept(self):
        lists = {0: frozenset({1, 2}), 1: frozenset({1, 2}), 2: frozenset({0, 1, 2, 3})}
        assert distinct_representatives(lists, [0, 1, 2]) == {0: 1, 1: 2, 2: 0}
        assert distinct_representatives(lists, [2, 1, 0]) == {2: 0, 1: 1, 0: 2}

    def test_augmenting_path_moves_an_earlier_edge(self):
        # the greedy gives edge 0 colour 0; edge 2 has only 0, so 0 moves on
        lists = {0: frozenset({0, 1}), 1: frozenset({1, 2}), 2: frozenset({0})}
        assert distinct_representatives(lists, range(3)) == {0: 1, 1: 2, 2: 0}

    def test_augmenting_path_tries_colours_ascending(self):
        # edge 2 needs colour 0, so edge 0 moves to its next lowest colour, 1,
        # and edge 1 on to 3, although colour 2 would free edge 0 at once
        lists = {0: frozenset({0, 1, 2}), 1: frozenset({1, 3}), 2: frozenset({0})}
        assert distinct_representatives(lists, range(3)) == {0: 1, 1: 3, 2: 0}
        lm = list_masks(lists)
        assert distinct_representatives(lm, range(3)) == {0: 1, 1: 3, 2: 0}

    def test_triangle_violator(self):
        lists = {e: frozenset({0, 1}) for e in range(3)}
        got = distinct_representatives(lists, range(3))
        assert got == HallViolator((0, 1, 2), frozenset({0, 1}))
        assert got.detail == "Hall violator: 3 edges, 2 colours"

    def test_violator_is_the_reached_part_only(self):
        # edges 0-2 fight over {0, 1}; edges 3 and 4 have room of their own
        lists = {0: {0, 1}, 1: {0, 1}, 2: {0, 1}, 3: {2, 3}, 4: {3, 4}}
        lists = {e: frozenset(cs) for e, cs in lists.items()}
        got = distinct_representatives(lists, range(5))
        assert got == HallViolator((0, 1, 2), frozenset({0, 1}))

    def test_empty_list_is_a_one_edge_violator(self):
        got = distinct_representatives({0: frozenset({5}), 1: frozenset()}, [0, 1])
        assert got == HallViolator((1,), frozenset())

    def test_no_edges(self):
        assert distinct_representatives({}, []) == {}

    def test_long_augmenting_path(self):
        # edge i takes i greedily; the last edge forces every colour one step
        # up, an augmenting path far deeper than the recursion limit
        k = 3000
        lists = {i: frozenset({i, i + 1}) for i in range(k)}
        lists[k] = frozenset({0})
        got = distinct_representatives(lists, range(k + 1))
        assert got == {**{i: i + 1 for i in range(k)}, k: 0}


class TestValidateColouring:
    def test_distinct_colours_valid(self, fano):
        rep = validate_colouring(fano, {e: e for e in range(7)})
        assert rep.valid and rep.colour_count == 7

    def test_conflict_reported(self, fano):
        rep = validate_colouring(fano, {e: min(e, 5) for e in range(7)})
        assert not rep.valid
        assert ("conflict", 5, 6) in rep.violations

    def test_list_compliance(self, fano):
        lists = uniform_lists(fano, 7)
        rep = validate_colouring(fano, {e: e for e in range(7)}, lists)
        assert rep.valid
        rep = validate_colouring(fano, {e: e + 10 for e in range(7)}, lists)
        assert not rep.valid and all(v[0] == "list" for v in rep.violations)

    def test_matches_pair_scan(self):
        import random

        rng = random.Random(6100)
        # edges sharing two vertices and a pair of parallel edges, so one
        # conflicting pair can show up in several stars
        cases = _view_cases() + [Hypergraph(4, [(0, 1, 2), (0, 1, 3), (1, 2, 3), (1, 2, 3)])]
        conflicted = 0
        for h in cases:
            for _ in range(3):
                k = rng.randint(2, 3)
                col = {e: rng.randrange(k) for e in range(h.m)}
                lists = {e: rng.sample(range(k), k - 1) for e in range(h.m)}
                rep = validate_colouring(h, col, lists)
                expected = [("conflict", i, j) for i, j in naive_conflicts(h, col)]
                conflicted += bool(expected)
                expected += [("list", e) for e in range(h.m) if col[e] not in lists[e]]
                assert rep.violations == tuple(expected)
                assert rep.valid == (not expected)
                assert rep.colour_count == len(set(col.values()))
        assert conflicted >= 30

    def test_proper_colourings_match_naive(self, fano):
        # the clash-free path: smallest-free greedy colourings, their classes
        # renamed to negative, sparse and huge ids, on instances with size-one
        # and parallel edges, the empty H, and t_fold copies (built through
        # _from_normal); with lists, one edge moved off its list
        rng = random.Random(6200)
        pool = [-(2**70), -7, -1, 2**70, *SPARSE_COLOURS[::7]]
        cases = _view_cases() + [Hypergraph(0, []), t_fold(fano, 2)]
        used: set[int] = set()
        for h in cases:
            order = list(range(h.m))
            rng.shuffle(order)
            classes, stuck = naive_greedy_colour(h, order, {e: range(h.m) for e in range(h.m)})
            assert stuck is None
            names = rng.sample(pool, len(pool))
            col = {e: names[c] for e, c in classes.items()}
            used.update(col.values())
            assert naive_validate(h, col) and naive_conflicts(h, col) == []
            lists = {e: {col[e], *rng.sample(pool, 3)} for e in range(h.m)}
            for given in (None, lists):
                rep = validate_colouring(h, col, given)
                assert rep.valid and rep.violations == ()
                assert rep.colour_count == len(set(col.values()))
            if h.m:
                e = rng.randrange(h.m)
                lists[e] = set(pool) - {col[e]}
                rep = validate_colouring(h, col, lists)
                assert not naive_validate(h, col, lists)
                assert not rep.valid and rep.violations == (("list", e),)
        assert {-(2**70), -7, 2**70} <= used

    def test_missing_edge_is_an_error(self, fano):
        with pytest.raises(ValueError):
            validate_colouring(fano, {0: 0})

    def test_unknown_edge_is_an_error(self, fano):
        with pytest.raises(ValueError):
            validate_colouring(fano, {e: e for e in range(8)})


class TestRestrictAndInduce:
    def test_induced_on_one_line(self, fano):
        line = set(fano.edges[0])
        got = restrict_and_induce(fano, line, mode="induced")
        assert got.m == 1 and got.n == 3

    def test_induced_on_everything_is_identity(self, fano):
        assert restrict_and_induce(fano, set(range(7)), mode="induced") == fano

    def test_restriction_shapes(self):
        from hyperchrom import near_pencil

        got = restrict_and_induce(near_pencil(5), {0, 1}, mode="restriction")
        sets = sorted(tuple(e) for e in got.edges)
        # apex is 0, rim vertex 1; the big edge meets {0,1} in {1}, the
        # spoke {0,1} survives whole, the other spokes shrink to {0}
        assert sets == [(0,), (0,), (0,), (0, 1), (1,)]

    def test_restriction_rejects_disjoint_edge(self):
        h = Hypergraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            restrict_and_induce(h, {0, 1}, mode="restriction")

    def test_bad_mode(self, fano):
        with pytest.raises(ValueError):
            restrict_and_induce(fano, {0}, mode="nonsense")


class TestSubhypergraph:
    def test_keeps_ambient_vertex_count(self, fano):
        sub, ids = subhypergraph(fano, [2, 5])
        assert sub.n == 7 and sub.m == 2
        assert ids == (2, 5)
        assert sub.edges == (fano.edges[2], fano.edges[5])


class TestCanonicalForm:
    def test_relabelled_copies_agree(self, fano):
        relabel = {v: (3 * v + 2) % 7 for v in range(7)}
        moved = Hypergraph(7, [tuple(relabel[v] for v in e) for e in fano.edges])
        assert canonical_form(moved) == canonical_form(fano)
        assert is_isomorphic(moved, fano)

    def test_distinguishes_structures(self):
        path = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
        star = Hypergraph(4, [(0, 1), (0, 2), (0, 3)])
        assert canonical_form(path) != canonical_form(star)
        assert not is_isomorphic(path, star)

    def test_multiplicity_matters(self, triangle):
        doubled = t_fold(triangle, 2)
        assert not is_isomorphic(triangle, doubled)

    def test_twin_heavy_pairs_match_naive(self):
        # most edges are unions of blocks, so a block's vertices are twins
        # (on the same edges), and a few are arbitrary pairs that split some
        # blocks; some instances are two cycles instead, where refinement
        # alone cannot tell vertices apart that no automorphism swaps; the
        # partner is a relabelled copy, with one vertex of one edge moved
        # half of the time
        rng = random.Random(9100)
        verdicts = {True: 0, False: 0}
        for _ in range(40):
            n = rng.randint(4, 8)
            cuts = sorted(rng.sample(range(1, n), rng.randint(1, 3)))
            blocks = [range(a, b) for a, b in zip([0, *cuts], [*cuts, n])]
            edges = [
                [v for block in rng.sample(blocks, rng.randint(1, len(blocks))) for v in block]
                for _ in range(rng.randint(1, 5))
            ]
            edges += [rng.sample(range(n), 2) for _ in range(rng.randint(0, 2))]
            if n >= 6 and rng.random() < 0.3:
                cut = rng.randint(3, n - 3)
                edges = [[v, (v + 1) % cut] for v in range(cut)]
                edges += [[v, cut + (v + 1 - cut) % (n - cut)] for v in range(cut, n)]
            perm = list(range(n))
            rng.shuffle(perm)
            other = [[perm[v] for v in e] for e in edges]
            if rng.random() < 0.5:
                e = rng.choice(other)
                e.remove(rng.choice(e))
                e.append(rng.choice([v for v in range(n) if v not in e]))
            h1, h2 = Hypergraph(n, edges), Hypergraph(n, other)
            want = naive_is_isomorphic(h1, h2)
            assert is_isomorphic(h1, h2) == want
            assert (canonical_form(h1) == canonical_form(h2)) == want
            verdicts[want] += 1
        assert verdicts[True] >= 10 and verdicts[False] >= 5, verdicts

    def test_twins_branch_once(self):
        # eight twins on one edge, seven times over: one branch per cell,
        # so one leaf instead of 8!
        for copies in (1, 7):
            h = Hypergraph(8, [range(8)] * copies)
            best, leaves = [None], [0]
            _canon_search(h, _refine(h, [0] * h.n), best, leaves)
            assert leaves == [1]
            assert canonical_form(h) == (8, best[0])

    def test_size_guard(self):
        big = Hypergraph(17, [(0, 1)])
        with pytest.raises(ValueError):
            canonical_form(big)


def test_colouring_failure_is_falsy():
    f = ColouringFailure("greedy", stuck_edge=3)
    assert not f
    assert f.stage == "greedy" and f.stuck_edge == 3
