"""The exact colouring search pinned to its reference: the same answers,
witnesses, node counts and clique unions as ``naive_search``, with and
without the star check, so the kernel visits the same tree."""

import random
from time import monotonic

import pytest

from hyperchrom import (
    GeneratorParams,
    exact_list_colourable,
    near_pencil,
    projective_plane,
    random_bounded_codegree,
    t_fold,
)
from hyperchrom import _kernel_py
from hyperchrom.hypercore import edge_list_masks

from tests._naive import (
    naive_list_colouring,
    naive_search,
    naive_smallest_free_greedy,
    naive_validate,
)


def _graph(rng, n, p):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _lists(rng, kind, n):
    k = rng.randint(1, 6)
    if kind == "random":
        return [rng.getrandbits(k) for _ in range(n)]
    if kind == "uniform":
        return [(1 << k) - 1] * n
    # some vertices with nothing to choose from
    return [0 if rng.random() < 0.3 else rng.getrandbits(k) for _ in range(n)]


def _seeded_cases():
    for n in range(15):
        for p in (0.2, 0.5, 0.8):
            for seed in range(3):
                rng = random.Random(f"{n}:{p}:{seed}")
                adj = _graph(rng, n, p)
                for kind in ("random", "uniform", "empty"):
                    yield adj, _lists(rng, kind, n)


def _hypergraphs():
    """Seeded random hypergraphs, each with its largest degree."""
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        h = random_bounded_codegree(
            GeneratorParams(
                seed=seed,
                n=n,
                t=rng.randint(1, 3),
                size_range=(1, min(4, n)),
                density=rng.randint(2, 12),
            )
        )
        yield rng, h, max(h.view.degrees, default=0)


def _star_cases():
    """Line graphs of seeded hypergraphs with their vertex stars, under
    uniform lists of about max-degree colours and random per-edge lists."""
    for rng, h, delta in _hypergraphs():
        adj, stars = list(h.view.rows), h.view.incidence
        for k in (delta - 1, delta, delta + 1):
            yield adj, [(1 << max(k, 0)) - 1] * h.m, stars
        width = delta + 2
        yield adj, [rng.getrandbits(width) | 1 << rng.randrange(width) for _ in adj], stars


# the three list questions of the benchmark's oracle workload that the search
# settles: each family pairwise intersects, so one colour short is a "no"
REFUTATIONS = [
    ("pencil-n4-t2", lambda: t_fold(near_pencil(4), 2), 7),
    ("fano-t1", lambda: t_fold(projective_plane(2), 1), 6),
    ("pencil-n6-t1", lambda: t_fold(near_pencil(6), 1), 5),
]

# the same refutations with the star check, and the one the search without
# it needs 986,410 nodes for; the node counts are the reference's
STAR_REFUTATIONS = [
    ("pencil-n4-t2", lambda: t_fold(near_pencil(4), 2), 7, 50),
    ("pencil-n5-t2", lambda: t_fold(near_pencil(5), 2), 9, 82),
    ("fano-t1", lambda: t_fold(projective_plane(2), 1), 6, 517),
    ("pencil-n6-t1", lambda: t_fold(near_pencil(6), 1), 5, 6),
]


class TestSearchTree:
    @pytest.mark.parametrize("first_use", [False, True])
    def test_same_colouring_and_nodes_as_reference(self, first_use):
        for adj, lists in _seeded_cases():
            want = naive_search(adj, lists, None, first_use)
            assert _kernel_py._search(adj, lists, None, first_use) == want

    @pytest.mark.parametrize("name,build,k", REFUTATIONS, ids=[r[0] for r in REFUTATIONS])
    def test_oracle_refutations(self, name, build, k):
        h = build()
        assert h.m == k + 1
        assert exact_list_colourable(h, {e: range(k) for e in range(h.m)}).status == "no"
        adj, lists = list(h.view.rows), [(1 << k) - 1] * h.m
        got = _kernel_py._search(adj, lists, None, False)
        assert got[0] is None
        assert got == naive_search(adj, lists, None, False)

    def test_poll_every_4096_nodes(self):
        # a deadline already past stops the search at its 4096th node, so
        # only searches at least that long raise
        past = monotonic() - 1.0
        for _name, build, k in REFUTATIONS:
            h = build()
            adj, lists = list(h.view.rows), [(1 << k) - 1] * h.m
            _col, nodes, _reads = naive_search(adj, lists, None, False)
            if nodes >= _kernel_py._POLL:
                with pytest.raises(_kernel_py._Timeout):
                    _kernel_py._search(adj, lists, past, False)
            else:
                assert _kernel_py._search(adj, lists, past, False) == (None, nodes, 0)


class TestStarCheck:
    @pytest.mark.parametrize("first_use", [False, True])
    def test_same_colouring_nodes_and_reads_as_reference(self, first_use):
        fired = 0
        for adj, lists, stars in _star_cases():
            want = naive_search(adj, lists, None, first_use, stars)
            assert _kernel_py._search(adj, lists, None, first_use, stars) == want
            fired += want[1] < naive_search(adj, lists, None, first_use)[1]
        assert fired  # the check prunes somewhere on these cases

    def test_same_answer_as_plain_search(self):
        answers = set()
        for rng, h, delta in _hypergraphs():
            for k in (delta - 1, delta, delta + 1):
                lists = {e: rng.sample(range(-3, k + 3), max(k, 0)) for e in range(h.m)}
                lm = edge_list_masks(h, lists)
                masks = [lm.masks[e] for e in range(h.m)]
                want = naive_list_colouring(h, lists) is not None
                answers.add(want)
                for stars in ((), h.view.incidence):
                    col = _kernel_py._search(list(h.view.rows), masks, None, False, stars)[0]
                    assert (col is not None) == want
                    if col is not None:
                        witness = {e: lm.colours[c] for e, c in enumerate(col)}
                        assert naive_validate(h, witness, lists)
        assert answers == {True, False}

    @pytest.mark.parametrize(
        "name,build,k,nodes", STAR_REFUTATIONS, ids=[r[0] for r in STAR_REFUTATIONS]
    )
    def test_oracle_refutations(self, name, build, k, nodes):
        h = build()
        adj, lists, stars = list(h.view.rows), [(1 << k) - 1] * h.m, h.view.incidence
        want = naive_search(adj, lists, None, False, stars)
        assert want[:2] == (None, nodes)
        assert _kernel_py._search(adj, lists, None, False, stars) == want
        # one colour more is a "yes", found without a dead end
        yes = [(1 << k + 1) - 1] * h.m
        assert naive_search(adj, yes, None, False, stars)[1] == h.m + 1


class TestGreedyColouring:
    def test_smallest_free_colour(self):
        for adj, _lists in _seeded_cases():
            order = sorted(range(len(adj)), key=lambda v: (-adj[v].bit_count(), v))
            want = naive_smallest_free_greedy(adj, order)
            assert _kernel_py._greedy_colouring(adj, order) == want
            rev = order[::-1]
            assert _kernel_py._greedy_colouring(adj, rev) == naive_smallest_free_greedy(adj, rev)
