"""Cross-module properties: counting bounds, duality, relabellings.

The counting bounds hold for any hypergraph once ``t`` is taken to be its
actual maximum codegree, so they are exercised both on the seeded corpus
(where ``t`` is declared up front) and on hypothesis-generated instances.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperchrom import (
    ColouringFailure,
    EdgeOrdering,
    Hypergraph,
    canonical_form,
    degree_stats,
    dual,
    forward_degrees,
    greedy_list_colour,
    is_isomorphic,
    neighbourhoods,
    reorder,
    restrict_and_induce,
    validate_colouring,
    volume,
)
from hyperchrom.exactarith import fourth_root_enclosure
from hyperchrom.ordering import greedy_extend

from tests._naive import naive_greedy_extend, naive_reorder

# the counting bounds' grids in quarters: alpha = A/4, tau = T/4
ALPHA_QUARTERS = (0, 1, 2)
TAU_QUARTERS = (1, 2, 3)
TAU_GRID = tuple(Fraction(q, 4) for q in TAU_QUARTERS)
SPARSE_COLOURS = (-10**6, -7, 0, 7, 10**3, 10**6, 2**70)


@st.composite
def hypergraphs(draw, max_n=9, max_m=8, min_size=1):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    edges = []
    for _ in range(m):
        size = draw(st.integers(min_value=min_size, max_value=n))
        edges.append(tuple(sorted(draw(st.permutations(range(n)))[:size])))
    return Hypergraph(n, edges)


def _codegree_cap(h):
    if h.m == 0:
        return 1
    return max(1, degree_stats(h).max_codegree)


def check_vertex_incidence_bound(h, t):
    """Per vertex, at most t(n-1)/(r-1) incident edges of size >= r."""
    sizes = [len(e) for e in h.edges]
    top = max(sizes, default=1)
    for v in range(h.n):
        incident = [s for e, s in zip(h.edges, sizes) if v in e]
        for r in range(2, top + 1):
            count = sum(1 for s in incident if s >= r)
            assert count * (r - 1) <= t * (h.n - 1), (v, r, count)


def check_overlap_count_bound(h, t):
    """Per edge, at most 2t/alpha^2 edges overlap it in >= alpha*|V(e)| vertices.

    In integers, alpha = p/q: the threshold is q*|V(e) & V(f)| >= p*|V(e)|,
    skipped below 2, and the cap count * p^2 <= 2t * q^2."""
    vsets = [set(e) for e in h.edges]
    for e, ve in enumerate(vsets):
        for p, q in ((1, 4), (1, 2), (2, 3), (1, 1)):
            if p * len(ve) < 2 * q:
                continue
            count = sum(1 for vf in vsets if q * len(ve & vf) >= p * len(ve))
            assert count * p * p <= 2 * t * q * q, (e, f"{p}/{q}", count)


def check_two_scale_neighbour_bound(h, t):
    """Weighted counts of larger/comparable neighbours stay below ~tn.

    With a1 = A1/4, a2 = A2/4, tau = T/4 and gap = 4(r - 1 - a2) > 0, each
    inequality is its rational form times its positive denominators:
    - larger: |f| >= (1 + a1) r; comparable: r/(1 + a2) <= |f| < (1 + a1) r;
    - (1 + a1) m1 + m2/(1 + a2) <= tn (1 + (1 + a2)/(r - 1 - a2)), times
      4 (4 + A2) gap;
    - when m1 + m2 >= t (1 - tau) n:
      m1 <= (tau + (1 + a2 + a2 r)/(r - 1 - a2)) tn / a1, times A1 gap.
    """
    if h.m == 0 or h.n < 2:
        return
    nb = neighbourhoods(h).edge
    sizes = [len(e) for e in h.edges]
    tn = t * h.n
    for A1 in ALPHA_QUARTERS:
        for A2 in ALPHA_QUARTERS:
            if 8 * min(sizes) < (4 + A2) ** 2:  # some edge below 2 (1 + a2)^2
                continue
            for e in range(h.m):
                r = sizes[e]
                m1 = sum(1 for f in nb[e] if 4 * sizes[f] >= (4 + A1) * r)
                m2 = sum(
                    1
                    for f in nb[e]
                    if 4 * r <= (4 + A2) * sizes[f] and 4 * sizes[f] < (4 + A1) * r
                )
                gap = 4 * r - 4 - A2
                lhs = (4 + A1) * m1 * (4 + A2) * gap + 16 * m2 * gap
                rhs = 4 * (4 + A2) * tn * (gap + 4 + A2)
                assert lhs <= rhs, (e, A1, A2, lhs, rhs)
                if A1 == 0:
                    continue
                for T in TAU_QUARTERS:
                    if 4 * (m1 + m2) >= (4 - T) * tn:
                        cap = (T * gap + 4 * (4 + A2 + A2 * r)) * tn
                        assert m1 * A1 * gap <= cap, (e, A1, A2, T, m1, cap)


class TestCountingBoundsOnCorpus:
    def test_vertex_incidence_bound(self, corpus):
        for h, t in corpus:
            check_vertex_incidence_bound(h, t)

    def test_overlap_count_bound(self, corpus):
        for h, t in corpus:
            check_overlap_count_bound(h, t)

    def test_two_scale_neighbour_bound(self, corpus):
        for h, t in corpus:
            check_two_scale_neighbour_bound(h, t)

    def test_volume_of_any_edge_subset_is_at_most_t(self, corpus):
        rng = random.Random(17)
        for h, t in corpus:
            assert volume(h) <= t
            for _ in range(5):
                ids = [e for e in range(h.m) if rng.random() < 0.5]
                assert volume(h, ids) <= t


@settings(max_examples=60, deadline=None)
@given(h=hypergraphs())
def test_counting_bounds_hold_at_actual_codegree(h):
    t = _codegree_cap(h)
    check_vertex_incidence_bound(h, t)
    check_overlap_count_bound(h, t)
    check_two_scale_neighbour_bound(h, t)
    assert volume(h) <= t


@settings(max_examples=50, deadline=None)
@given(h=hypergraphs(max_n=8, max_m=7), data=st.data())
def test_greedy_succeeds_with_forward_degree_plus_one(h, data):
    perm = tuple(data.draw(st.permutations(range(h.m))))
    ordering = EdgeOrdering(perm)
    fwd = forward_degrees(h, ordering)
    offset = data.draw(st.integers(min_value=0, max_value=100))
    lists = {e: frozenset(range(offset, offset + fwd[e] + 1)) for e in range(h.m)}
    got = greedy_list_colour(h, lists, ordering)
    assert not isinstance(got, ColouringFailure)
    assert validate_colouring(h, got, lists).valid


@settings(max_examples=100, deadline=None)
@given(h=hypergraphs(max_m=10), data=st.data())
def test_greedy_extend_is_the_per_edge_list_greedy(h, data):
    order = data.draw(st.permutations(range(h.m)))
    cut = data.draw(st.integers(min_value=0, max_value=h.m))
    lo = data.draw(st.integers(min_value=-8, max_value=3))
    # a dense window plus sparse, large and negative ids: the greedy numbers
    # colours by rank, never by value
    colour = st.integers(lo, lo + 8) | st.sampled_from(SPARSE_COLOURS)
    colour_lists = st.frozensets(colour, min_size=1, max_size=9)
    if data.draw(st.booleans(), label="shared"):
        one = data.draw(colour_lists)
        lists = {e: one for e in range(h.m)}
    else:
        lists = {e: data.draw(colour_lists) for e in range(h.m)}
    # pre-filled colours come from the edge's list or from outside every list
    outside = st.integers(10**7, 10**7 + 2)
    pre = {e: data.draw(st.sampled_from(sorted(lists[e])) | outside) for e in order[:cut]}
    seed = data.draw(st.none() | st.integers(min_value=0, max_value=2**32))
    col, want_col = dict(pre), dict(pre)
    if seed is None:
        got = greedy_extend(h, order[cut:], lists, col)
        want = naive_greedy_extend(h, order[cut:], lists, want_col)
    else:
        mine, theirs = random.Random(seed), random.Random(seed)
        got = greedy_extend(h, order[cut:], lists, col, mine)
        want = naive_greedy_extend(
            h, order[cut:], lists, want_col, lambda o: theirs.choice(sorted(o))
        )
        assert mine.random() == theirs.random()
    assert (got, col) == (want, want_col)


@settings(max_examples=80, deadline=None)
@given(
    h=hypergraphs(max_m=12),
    t=st.integers(min_value=1, max_value=3),
    tau=st.sampled_from(TAU_GRID),
    K=st.sampled_from((1, 2, 8)),
)
def test_reorder_is_the_documented_local_search(h, t, tau, K):
    out = reorder(h, t, tau, K)
    factor = 1 + 3 * fourth_root_enclosure(tau)[0] * K**3
    assert (out.ordering.perm, out.case, out.e_star, out.W) == naive_reorder(h, t, tau, factor)


@settings(max_examples=50, deadline=None)
@given(h=hypergraphs(max_n=8, max_m=7), data=st.data())
def test_canonical_form_is_relabel_invariant(h, data):
    perm = data.draw(st.permutations(range(h.n)))
    relabelled = Hypergraph(h.n, [tuple(sorted(perm[v] for v in e)) for e in h.edges])
    assert canonical_form(relabelled) == canonical_form(h)
    assert is_isomorphic(h, relabelled)


@settings(max_examples=40, deadline=None)
@given(h=hypergraphs(max_n=8, max_m=7))
def test_dual_is_an_involution_up_to_isomorphism(h):
    covered = {v for e in h.edges for v in e}
    g = restrict_and_induce(h, covered, mode="induced")
    if g.m == 0 or g.n == 0:
        return
    assert is_isomorphic(dual(dual(g)), g)


def test_dual_involution_on_corpus(corpus):
    for h, _t in corpus:
        if h.m == 0 or h.m > 12:
            continue
        covered = {v for e in h.edges for v in e}
        g = restrict_and_induce(h, covered, mode="induced")
        if g.n > 16 or g.m == 0:
            continue
        assert is_isomorphic(dual(dual(g)), g)
