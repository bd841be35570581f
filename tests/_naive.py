"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately plain: static orders, exhaustive recursion,
no shared code with the algorithms under test beyond the core Hypergraph
container and the GF(q) tables, which fix the plane's point labels.
Expected values in the test suite come from these routines (or are fixed
small constants verified by them).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from time import monotonic

from hyperchrom.characterize import TFoldNearPencil, TFoldProjectivePlane
from hyperchrom.generators import _field_tables
from hyperchrom.hypercore import Hypergraph


def _edge_adj(h: Hypergraph) -> list[list[int]]:
    masks = h.edge_masks
    return [
        [j for j in range(h.m) if j != i and masks[i] & masks[j]]
        for i in range(h.m)
    ]


def naive_graph_chromatic_number(adj: list[int]) -> int:
    """Chromatic number of a bitmask-adjacency graph, ascending-k search.

    Vertices are tried in id order with the usual first-use symmetry cap
    (colour c may appear only after 0..c-1 have appeared).
    """
    n = len(adj)
    if n == 0:
        return 0
    col = [-1] * n

    def feasible(i: int, c: int) -> bool:
        row = adj[i]
        for j in range(i):
            if row >> j & 1 and col[j] == c:
                return False
        return True

    def dfs(i: int, used: int, k: int) -> bool:
        if i == n:
            return True
        for c in range(min(used + 1, k)):
            if feasible(i, c):
                col[i] = c
                if dfs(i + 1, max(used, c + 1), k):
                    return True
                col[i] = -1
        return False

    for k in range(1, n + 1):
        if dfs(0, 0, k):
            return k
    return n


_POLL = 4096


class _Timeout(Exception):
    pass


def naive_search(
    adj: list[int],
    lists: list[int],
    deadline: float | None,
    first_use: bool,
    cliques=(),
) -> tuple[list[int] | None, int, int]:
    """The kernel's colouring search as it read with a tuple branching key per
    vertex and a neighbour walk per colour: ``_kernel_py._search`` must visit
    the same tree.  Returns (colouring or None, nodes visited, clique unions
    computed).

    Depth-first search that branches on the uncoloured vertex with the
    fewest colours left (ties: higher degree, then lower id) and tries its
    colours in ascending order.  With ``first_use`` a vertex takes no
    colour above one more than the highest colour used so far, which
    breaks the symmetry of interchangeable lists {0..k-1}.  A node with a
    vertex out of colours fails; otherwise, for each clique mask in
    ``cliques`` in turn whose uncoloured members outnumber the fewest
    colours left of any uncoloured vertex, the union of the members' colours
    left is ORed together, and the node fails when it has fewer colours
    than the clique has uncoloured members.  None when no colouring exists;
    raises ``_Timeout`` once ``deadline`` has passed.
    """
    n = len(adj)
    col = [-1] * n
    free = list(lists)  # colours still open to each uncoloured vertex
    deg = [a.bit_count() for a in adj]
    nodes = reads = 0

    def dfs(depth: int, opened: int) -> bool:
        nonlocal nodes, reads
        nodes += 1
        if deadline is not None and nodes % _POLL == 0 and monotonic() > deadline:
            raise _Timeout
        if depth == n:
            return True
        uncoloured = [u for u in range(n) if col[u] < 0]
        least = min(free[u].bit_count() for u in uncoloured)
        if least == 0:
            return False
        for clique in cliques:
            members = [u for u in uncoloured if clique >> u & 1]
            if len(members) > least:
                reads += 1
                union = 0
                for u in members:
                    union |= free[u]
                if union.bit_count() < len(members):
                    return False
        v = -1
        best_key = None
        for u in range(n):
            if col[u] < 0:
                key = (-free[u].bit_count(), deg[u], -u)
                if best_key is None or key > best_key:
                    best_key = key
                    v = u
        opts = free[v] & ((2 << opened) - 1) if first_use else free[v]
        while opts:
            bit = opts & -opts
            opts ^= bit
            c = bit.bit_length() - 1
            col[v] = c
            touched = []
            a = adj[v]
            while a:
                w = (a & -a).bit_length() - 1
                a &= a - 1
                if col[w] < 0 and free[w] & bit:
                    free[w] ^= bit
                    touched.append(w)
            if dfs(depth + 1, opened if c < opened else c + 1):
                return True
            col[v] = -1
            for w in touched:
                free[w] |= bit
        return False

    found = dfs(0, 0)
    return (list(col) if found else None), nodes, reads


def naive_smallest_free_greedy(adj: list[int], order) -> list[int]:
    """Each vertex of ``order`` takes the smallest colour that none of its
    already coloured neighbours has (bitmask adjacency rows)."""
    col = [-1] * len(adj)
    for v in order:
        taken = {col[w] for w in range(len(adj)) if adj[v] >> w & 1 and col[w] >= 0}
        c = 0
        while c in taken:
            c += 1
        col[v] = c
    return col


def naive_chromatic_index(h: Hypergraph) -> int:
    """Chromatic index via the line graph and the plain graph routine."""
    masks = h.edge_masks
    adj = [0] * h.m
    for i in range(h.m):
        for j in range(i + 1, h.m):
            if masks[i] & masks[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return naive_graph_chromatic_number(adj)


def naive_list_colouring(h: Hypergraph, lists) -> dict[int, int] | None:
    """Find a proper colouring from per-edge lists, or None; plain DFS."""
    adj = _edge_adj(h)
    col: dict[int, int] = {}

    def dfs(i: int):
        if i == h.m:
            return dict(col)
        for c in sorted(lists[i]):
            if all(col.get(j) != c for j in adj[i]):
                col[i] = c
                res = dfs(i + 1)
                if res is not None:
                    return res
                del col[i]
        return None

    return dfs(0)


def naive_max_matching_size(n: int, adj: list[set[int]]) -> int:
    """Maximum matching size in a general graph by exhaustive branching."""
    matched = [False] * n
    best = 0

    def rec(v: int, count: int) -> None:
        nonlocal best
        while v < n and (matched[v] or not any(not matched[w] for w in adj[v])):
            v += 1
        if v == n:
            best = max(best, count)
            return
        # leave v single
        matched[v] = True
        rec(v + 1, count)
        matched[v] = False
        # or match it
        matched[v] = True
        for w in adj[v]:
            if not matched[w]:
                matched[w] = True
                rec(v + 1, count + 1)
                matched[w] = False
        matched[v] = False

    rec(0, 0)
    return best


def naive_max_complement_matching_size(h: Hypergraph) -> int:
    """Maximum number of disjoint pairs of vertex-disjoint edges."""
    masks = h.edge_masks
    adj = [
        {j for j in range(h.m) if j != i and not masks[i] & masks[j]}
        for i in range(h.m)
    ]
    return naive_max_matching_size(h.m, adj)


def naive_validate(h: Hypergraph, col: dict[int, int], lists=None) -> bool:
    masks = h.edge_masks
    for i in range(h.m):
        for j in range(i + 1, h.m):
            if masks[i] & masks[j] and col[i] == col[j]:
                return False
    if lists is not None:
        for i in range(h.m):
            if col[i] not in lists[i]:
                return False
    return True


def naive_conflicts(h: Hypergraph, col: dict[int, int]) -> list[tuple[int, int]]:
    """Every pair i < j of intersecting edges with the same colour, ascending."""
    masks = h.edge_masks
    return [
        (i, j)
        for i in range(h.m)
        for j in range(i + 1, h.m)
        if masks[i] & masks[j] and col[i] == col[j]
    ]


def naive_codegree(h: Hypergraph) -> dict[tuple[int, int], int]:
    """Codegree of every vertex pair u < v that some edge covers."""
    out = {}
    for u in range(h.n):
        for v in range(u + 1, h.n):
            count = sum(1 for e in h.edges if u in e and v in e)
            if count:
                out[(u, v)] = count
    return out


def naive_forward_degrees(h: Hypergraph, order: list[int] | tuple[int, ...]) -> dict[int, int]:
    """Forward degree of each edge: earlier edges in the order that meet it."""
    masks = h.edge_masks
    out = {}
    seen: list[int] = []
    for e in order:
        out[e] = sum(1 for f in seen if masks[e] & masks[f])
        seen.append(e)
    return out


def naive_reorder(h: Hypergraph, t, tau, factor, edge_ids=None):
    """The local search of ``ordering.reorder``, written out literally.

    Start from the size-monotone order (larger edges first, then lower id)
    with every edge in the prefix.  If the last prefix edge meets at most
    t*(1-tau)*n other prefix edges, shrink the prefix by one; otherwise pop
    the first prefix edge that does and insert it just after the last one,
    then shrink.  If no prefix edge qualifies, stop: case B, with e* the
    last prefix edge and W the prefix edges whose size s satisfies
    s = r or r <= s < factor*r (r = |e*|).  Returns (ordering, case, e*, W).
    """
    ids = range(h.m) if edge_ids is None else edge_ids
    order = sorted(ids, key=lambda e: (-len(h.edges[e]), e))
    bound = t * (1 - Fraction(tau)) * h.n

    def prefix_degree(e: int, k: int) -> int:
        return sum(1 for f in order[:k] if f != e and set(h.edges[e]) & set(h.edges[f]))

    k = len(order)
    while k:
        last = order[k - 1]
        if prefix_degree(last, k) <= bound:
            k -= 1
            continue
        for i in range(k):
            if prefix_degree(order[i], k) <= bound:
                order.insert(k - 1, order.pop(i))
                k -= 1
                break
        else:
            r = len(h.edges[last])
            w = tuple(
                e
                for e in order[:k]
                if len(h.edges[e]) == r or r <= len(h.edges[e]) < factor * r
            )
            return tuple(order), "B", last, w
    return tuple(order), "A", None, ()


def naive_volume(h: Hypergraph, ids=None) -> Fraction:
    ids = range(h.m) if ids is None else ids
    num = sum(len(h.edges[i]) * (len(h.edges[i]) - 1) // 2 for i in ids)
    return Fraction(num * 2, h.n * (h.n - 1))


def naive_degree(h: Hypergraph, v: int) -> int:
    return sum(1 for e in h.edges if v in e)


def naive_closed_nbhd(h: Hypergraph, v: int) -> set[int]:
    out = {v}
    for e in h.edges:
        if v in e:
            out.update(e)
    return out


def naive_is_isomorphic(h1: Hypergraph, h2: Hypergraph) -> bool:
    """Does some vertex permutation carry h1's edge multiset onto h2's?
    Tries all n! permutations, so n is at most 8."""
    if h1.n > 8:
        raise ValueError("naive_is_isomorphic is limited to 8 vertices")
    if h1.n != h2.n or h1.m != h2.m:
        return False
    target = sorted(tuple(sorted(e)) for e in h2.edges)
    return any(
        sorted(tuple(sorted(perm[v] for v in e)) for e in h1.edges) == target
        for perm in permutations(range(h1.n))
    )


def naive_predicates(h: Hypergraph) -> tuple[bool, bool]:
    """(is_linear, is_intersecting) from pairwise vertex-set intersections."""
    sizes = [
        len(set(h.edges[i]) & set(h.edges[j]))
        for i in range(h.m)
        for j in range(i + 1, h.m)
    ]
    return all(s <= 1 for s in sizes), all(s >= 1 for s in sizes)


def naive_greedy_colour(h: Hypergraph, order, lists, precoloured=None):
    """Smallest-free-colour greedy along ``order`` on top of a pre-colouring.

    Returns the colouring reached and the first edge left without a colour
    (None when every edge of ``order`` got one).
    """
    col = dict(precoloured or {})
    for e in order:
        taken = {c for f, c in col.items() if set(h.edges[e]) & set(h.edges[f])}
        free = sorted(set(lists[e]) - taken)
        if not free:
            return col, e
        col[e] = free[0]
    return col, None


def naive_greedy_extend(h: Hypergraph, order, lists, col, pick=min):
    """The list greedy as it read before vertex palettes, written out literally.

    Each edge's line-graph row (built here by pairwise intersection) is
    masked by the coloured edges and walked bit by bit for the taken colours;
    the edge takes ``pick(lists[e] - taken)``.  Fills ``col`` in place and
    returns the first edge left without a colour, or None.
    """
    vsets = [set(e) for e in h.edges]
    rows = [
        sum(1 << f for f in range(h.m) if f != e and vsets[e] & vsets[f])
        for e in range(h.m)
    ]
    coloured = sum(1 << f for f in col)
    for e in order:
        mask, taken, f = rows[e] & coloured, set(), 0
        while mask:
            if mask & 1:
                taken.add(col[f])
            mask >>= 1
            f += 1
        opts = lists[e] - taken
        if not opts:
            return e
        col[e] = pick(opts)
        coloured |= 1 << e
    return None


def naive_degree_pass(h: Hypergraph, edge_ids, lists):
    """The block's edges by descending number of other block edges they
    meet (ties by id), each taking the smallest free colour of ``lists``
    (sets) through ``naive_greedy_extend``: (colouring, first stuck edge or
    None)."""
    ids = list(edge_ids)
    meets = {
        e: sum(1 for f in ids if f != e and set(h.edges[e]) & set(h.edges[f])) for e in ids
    }
    col: dict[int, int] = {}
    stuck = naive_greedy_extend(h, sorted(ids, key=lambda e: (-meets[e], e)), lists, col)
    return col, stuck


def naive_colour_small(h: Hypergraph, edge_ids, lists, coloured=None, seed: int = 0):
    """Small-edge colouring with the seeded passes first and the degree
    pass last: (colouring or None, stuck edge, failure detail).  Which
    blocks it colours does not depend on the order of the passes.

    Each block edge's list loses the colours ``coloured`` gives the edges
    it meets (``naive_forbidden_colours``); a list left empty, then an
    overfull star (``naive_overfull_star``, named by its lowest edge id),
    ends the call.  Then eight passes, pass a seeded by
    ``(seed * 1_000_003 + a) mod 2**64``: the block shuffled, each edge
    taking ``rng.choice(sorted(free))``; the first that colours every edge
    is the answer.  Last ``naive_degree_pass``, whose stuck edge a total
    failure names.
    """
    ids = list(edge_ids)
    banned = naive_forbidden_colours(h, ids, coloured or {})
    cut = {e: set(lists[e]) - banned[e] for e in ids}
    for e in ids:
        if not cut[e]:
            return None, e, "list emptied by forbidden colours"
    over = naive_overfull_star(h, cut, ids)
    if over is not None:
        _vertex, star, colours = over
        return None, min(star), f"Hall violator: {len(star)} edges, {len(colours)} colours"
    for attempt in range(8):
        rng = random.Random((seed * 1_000_003 + attempt) & ((1 << 64) - 1))
        order = ids[:]
        rng.shuffle(order)
        col: dict[int, int] = {}
        if naive_greedy_extend(h, order, cut, col, lambda free: rng.choice(sorted(free))) is None:
            return col, None, ""
    col, stuck = naive_degree_pass(h, ids, cut)
    if stuck is None:
        return col, None, ""
    return None, stuck, "greedy stuck after 8 randomized passes"


def naive_forbidden_colours(h: Hypergraph, edge_ids, col) -> dict[int, set[int]]:
    """For each edge of ``edge_ids``, the colours ``col`` gives the other
    edges that meet it, by scanning every coloured edge (a line-graph row
    masked by the coloured edges, walked edge by edge)."""
    return {
        e: {c for f, c in col.items() if f != e and set(h.edges[f]) & set(h.edges[e])}
        for e in edge_ids
    }


def naive_all_distinct(lists, m: int):
    """Give edges 0..m-1 pairwise different colours, each the smallest unused
    one of its list; returns (colouring, first stuck edge or None)."""
    col: dict[int, int] = {}
    for i in range(m):
        free = sorted(set(lists[i]) - set(col.values()))
        if not free:
            return col, i
        col[i] = free[0]
    return col, None


def naive_sdr(lists, edge_ids):
    """A system of distinct representatives by brute force: pairwise
    different colours, each from its edge's own list, tried in every
    injective way (edges in the order given, colours ascending); the first
    found, or None.  Meant for at most 8 edges."""
    ids = list(edge_ids)
    assert len(ids) <= 8, "brute force is for at most 8 edges"
    col: dict[int, int] = {}

    def dfs(i: int):
        if i == len(ids):
            return dict(col)
        for c in sorted(lists[ids[i]]):
            if c not in col.values():
                col[ids[i]] = c
                res = dfs(i + 1)
                if res is not None:
                    return res
                del col[ids[i]]
        return None

    return dfs(0)


def naive_is_hall_violator(lists, edge_ids, edges) -> bool:
    """Are ``edges`` distinct edges of ``edge_ids`` whose lists hold fewer
    colours than there are edges (|S| > |union of L(S)|)?"""
    edges = list(edges)
    if len(set(edges)) != len(edges) or not set(edges) <= set(edge_ids):
        return False
    return len(set().union(*(lists[e] for e in edges))) < len(edges)


def naive_reserve_colours(lists, gamma, xi, seed: int):
    """The reservation draw with every comparison in ``Fraction`` arithmetic.

    Same seeds and acceptance rule as ``pipeline.reserve_colours``; returns
    (reserved colours, attempt) or None when all 100 draws fail.
    """
    gamma = Fraction(gamma)
    xi = Fraction(xi)
    norm = {e: frozenset(cs) for e, cs in lists.items()}
    universe = sorted(frozenset().union(*norm.values())) if norm else []
    for attempt in range(100):
        rng = random.Random((seed * 1_000_003 + attempt) & ((1 << 64) - 1))
        reserved = frozenset(c for c in universe if rng.random() < gamma)
        if all(
            (gamma - xi) * len(cs) <= len(reserved & cs) <= (gamma + xi) * len(cs)
            for cs in norm.values()
        ):
            return reserved, attempt
    return None


def naive_overfull_star(h: Hypergraph, lists, ids):
    """First vertex whose edges among ``ids`` outnumber the union of their
    lists, as (vertex, edge ids, colours), or None."""
    for v in range(h.n):
        star = [e for e in ids if v in h.edges[e]]
        colours = set().union(*(lists[e] for e in star))
        if len(colours) < len(star):
            return v, star, colours
    return None


def naive_classify_support(h: Hypergraph, t: int, support: int):
    """The t-fold plane / near-pencil test on the vertex bitmask ``support``
    as it read with one try per apex, written out literally (degrees and
    predicates from the naive helpers above)."""
    if any(mask & ~support for mask in h.edge_masks):
        return None
    mult: dict[tuple[int, ...], int] = {}
    for e in h.edges:
        mult[e] = mult.get(e, 0) + 1
    if any(c != t for c in mult.values()):
        return None
    base = Hypergraph(h.n, tuple(mult))
    is_linear, is_intersecting = naive_predicates(base)
    if not (is_linear and is_intersecting):
        return None
    covered = sorted({v for e in base.edges for v in e})
    if sum(1 << v for v in covered) != support:
        return None
    n0 = len(covered)
    remark = "also the projective plane of order 1" if n0 == 3 else ""

    sizes = {len(e) for e in base.edges}
    if len(sizes) == 1:
        k = sizes.pop() - 1
        if (
            k >= 2
            and n0 == k * k + k + 1
            and base.m == n0
            and all(naive_degree(base, v) == k + 1 for v in covered)
        ):
            return TFoldProjectivePlane(k, t)

    if n0 >= 3:
        base_sets = {frozenset(e) for e in base.edges}
        for apex in covered:
            rim = [x for x in covered if x != apex]
            expected = {frozenset(rim)} | {frozenset((apex, x)) for x in rim}
            if base_sets == expected and base.m == n0:
                return TFoldNearPencil(t, remark)
    return None


def naive_classify_extremal(h: Hypergraph, t: int):
    """(kind, bound, witness vertex) of the tightness test, or None for the
    kind when the bound does not apply or is not attained: the bound
    t * max |N[v]| over non-isolated v from pairwise scans, and the first
    vertex whose closed neighbourhood holds every edge and passes
    ``naive_classify_support``."""
    if h.m == 0 or any(len(e) < 2 for e in h.edges):
        return None, None, None
    if not naive_predicates(h)[1] or max(naive_codegree(h).values()) > t:
        return None, None, None
    covered = [v for v in range(h.n) if naive_degree(h, v) >= 1]
    nbhd = {v: naive_closed_nbhd(h, v) for v in covered}
    bound = t * max(len(nb) for nb in nbhd.values())
    if h.m != bound:
        return None, bound, None
    for v in covered:
        if t * len(nbhd[v]) != h.m or not set(covered) <= nbhd[v]:
            continue
        kind = naive_classify_support(h, t, sum(1 << u for u in nbhd[v]))
        if kind is not None:
            return kind, bound, v
    raise AssertionError("tight instance left unclassified")


def naive_plane_edges(q: int) -> list[list[int]]:
    """The lines of PG(2, q) by testing every point against every line with
    a dot product over GF(q); points and lines are the normalised triples
    (1,a,b), (0,1,b), (0,0,1) in that order."""
    add, mul = _field_tables(q)
    pts = [(1, a, b) for a in range(q) for b in range(q)]
    pts += [(0, 1, b) for b in range(q)]
    pts.append((0, 0, 1))

    def dot(u, v):
        s = 0
        for a, b in zip(u, v):
            s = add[s][mul[a][b]]
        return s

    return [[i for i, pt in enumerate(pts) if dot(line, pt) == 0] for line in pts]


def naive_random_bounded_codegree(params) -> list[tuple[int, ...]]:
    """The rejection sampler's edges with codegrees kept in a pair dict:
    the same draws from ``random.Random(params.seed)`` and the same budget
    of 50 * density draws."""
    rng = random.Random(params.seed)
    lo, hi = params.size_range
    pair_count: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, ...]] = []
    tries = 0
    while len(edges) < params.density and tries < 50 * params.density:
        tries += 1
        s = rng.randint(lo, hi)
        verts = tuple(sorted(rng.sample(range(params.n), s)))
        pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :]]
        if any(pair_count.get(p, 0) >= params.t for p in pairs):
            continue
        for p in pairs:
            pair_count[p] = pair_count.get(p, 0) + 1
        edges.append(verts)
    return edges
