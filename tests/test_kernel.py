"""The exact colouring search pinned to its reference: the same answers,
witnesses and node counts as the search it replaced (``naive_search``), so
the kernel visits the same tree."""

import random
from time import monotonic

import pytest

from hyperchrom import exact_list_colourable, near_pencil, projective_plane, t_fold
from hyperchrom import _kernel_py

from tests._naive import naive_search, naive_smallest_free_greedy


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


# the three list questions of the benchmark's oracle workload that the search
# settles: each family pairwise intersects, so one colour short is a "no"
REFUTATIONS = [
    ("pencil-n4-t2", lambda: t_fold(near_pencil(4), 2), 7),
    ("fano-t1", lambda: t_fold(projective_plane(2), 1), 6),
    ("pencil-n6-t1", lambda: t_fold(near_pencil(6), 1), 5),
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
            _col, nodes = naive_search(adj, lists, None, False)
            if nodes >= _kernel_py._POLL:
                with pytest.raises(_kernel_py._Timeout):
                    _kernel_py._search(adj, lists, past, False)
            else:
                assert _kernel_py._search(adj, lists, past, False) == (None, nodes)


class TestGreedyColouring:
    def test_smallest_free_colour(self):
        for adj, _lists in _seeded_cases():
            order = sorted(range(len(adj)), key=lambda v: (-adj[v].bit_count(), v))
            want = naive_smallest_free_greedy(adj, order)
            assert _kernel_py._greedy_colouring(adj, order) == want
            rev = order[::-1]
            assert _kernel_py._greedy_colouring(adj, rev) == naive_smallest_free_greedy(adj, rev)
