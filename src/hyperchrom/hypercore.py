"""Core hypergraph representation and exact structural operations.

A hypergraph here is a finite vertex set ``{0..n-1}`` together with a
*multiset* of non-empty edges (vertex subsets); parallel edges are
first-class citizens because t-fold constructions rely on them.  Edges are
addressed by their index in the edge tuple.

All counting quantities (degrees, codegrees, volumes) are exact: integers or
`fractions.Fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

__all__ = [
    "Hypergraph",
    "LineGraphView",
    "Graph",
    "DegreeStats",
    "Predicates",
    "Neighbourhoods",
    "ValidationReport",
    "ColouringFailure",
    "HallViolator",
    "ListMasks",
    "degree_stats",
    "volume",
    "dual",
    "line_graph",
    "predicates",
    "neighbourhoods",
    "list_masks",
    "edge_list_masks",
    "star_pigeonhole",
    "distinct_representatives",
    "validate_colouring",
    "restrict_and_induce",
    "subhypergraph",
    "uniform_lists",
    "normalize_lists",
    "canonical_form",
    "is_isomorphic",
]


class Hypergraph:
    """Immutable hypergraph with bitmask-backed edges.

    Parameters
    ----------
    n:
        Number of vertices; vertices are ``0..n-1``.
    edges:
        Iterable of vertex iterables.  Each edge is normalised to a sorted
        tuple of distinct ids.  Order of edges is preserved (edge ids are
        positions) and duplicates are kept.
    """

    __slots__ = ("n", "edges", "_masks", "_view")

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = []
        masks = []
        for e in edges:
            verts = tuple(sorted(set(e)))
            if not verts:
                raise ValueError("empty edge")
            if verts[0] < 0 or verts[-1] >= n:
                raise ValueError(f"edge {verts} out of range for n={n}")
            mask = 0
            for v in verts:
                mask |= 1 << v
            norm.append(verts)
            masks.append(mask)
        self._set(n, tuple(norm), tuple(masks))

    @classmethod
    def _from_normal(
        cls, n: int, edges: tuple[tuple[int, ...], ...], masks: tuple[int, ...]
    ) -> "Hypergraph":
        """An instance from edges that are already normal (sorted, distinct,
        in range, non-empty) and their bitmasks, taken without checks."""
        h = object.__new__(cls)
        h._set(n, edges, masks)
        return h

    def _set(self, n: int, edges: tuple[tuple[int, ...], ...], masks: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_view", None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Hypergraph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_mask(self, i: int) -> int:
        return self._masks[i]

    @property
    def edge_masks(self) -> tuple[int, ...]:
        return self._masks

    @property
    def view(self) -> "LineGraphView":
        """The instance's cached line-graph queries (built on first use)."""
        if self._view is None:
            object.__setattr__(self, "_view", LineGraphView(self.n, self.edges, self._masks))
        return self._view

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Graph:
    """Simple graph with bitmask adjacency rows (used for line graphs)."""

    n: int
    adj: tuple[int, ...]

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self.n, tuple((full & ~a) & ~(1 << v) for v, a in enumerate(self.adj)))


@dataclass(frozen=True)
class DegreeStats:
    """Vertex degrees and the maximum codegree of one hypergraph.

    ``codegree`` maps each pair ``(u, v)``, ``u < v``, covered by at least
    one edge to its codegree.  It holds an entry per covered pair, so it is
    built from ``edges`` on first read; the maxima never need it.
    """

    degree: tuple[int, ...]
    max_degree: int
    max_codegree: int
    edges: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    @cached_property
    def codegree(self) -> Mapping[tuple[int, int], int]:
        codeg: dict[tuple[int, int], int] = {}
        for e in self.edges:
            for pair in combinations(e, 2):
                codeg[pair] = codeg.get(pair, 0) + 1
        return MappingProxyType(codeg)


@dataclass(frozen=True)
class Predicates:
    is_linear: bool
    is_intersecting: bool


@dataclass(frozen=True)
class Neighbourhoods:
    closed_vertex: tuple[frozenset[int], ...]
    edge: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    colour_count: int
    violations: tuple[tuple, ...]


@dataclass(frozen=True)
class ColouringFailure:
    """Value returned when a colouring routine cannot finish.

    ``stage`` names the step that gave up, ``stuck_edge`` the first edge (if
    any) whose candidate colours ran out.
    """

    stage: str
    stuck_edge: int | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return False


class LineGraphView:
    """The line-graph queries of one hypergraph, each computed on first use.

    ``Hypergraph.view`` builds one per instance, so repeated queries on the
    same instance share the work.  ``incidence[v]`` is the bitmask of the
    edges through vertex v; ``rows[i]`` is the bitmask of the edges other
    than ``i`` that meet edge ``i`` (parallel copies included);
    ``closed_masks[v]`` is the bitmask of the closed vertex neighbourhood
    N[v]; ``degrees[v]`` is the degree of v.
    """

    def __init__(self, n: int, edges: tuple[tuple[int, ...], ...], masks: tuple[int, ...]):
        self._n = n
        self._edges = edges
        self._masks = masks

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        """``incidence[v]``: bitmask of the edges through vertex v (its star)."""
        incident = [0] * self._n
        for i, e in enumerate(self._edges):
            for v in e:
                incident[v] |= 1 << i
        return tuple(incident)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """``degrees[v]``: the number of edges through vertex v."""
        return tuple(star.bit_count() for star in self.incidence)

    @cached_property
    def line_graph(self) -> Graph:
        # an edge meets exactly the edges incident to one of its vertices
        incident = self.incidence
        rows = []
        for i, e in enumerate(self._edges):
            row = 0
            for v in e:
                row |= incident[v]
            rows.append(row & ~(1 << i))
        return Graph(len(self._edges), tuple(rows))

    @property
    def rows(self) -> tuple[int, ...]:
        return self.line_graph.adj

    @cached_property
    def closed_masks(self) -> tuple[int, ...]:
        closed = [1 << v for v in range(self._n)]
        for e, mask in zip(self._edges, self._masks):
            for v in e:
                closed[v] |= mask
        return tuple(closed)

    @cached_property
    def degree_stats(self) -> DegreeStats:
        # u's codegrees by counting the other vertices of its edges in bit
        # slices (at_least[k]: those met more than k times), so a vertex
        # costs O(d(u) * (c + 1)) steps for maximum codegree c; a vertex
        # whose degree cannot beat the best so far is skipped
        incidence, masks, deg = self.incidence, self._masks, self.degrees
        best = 0
        for u, star in enumerate(incidence):
            if deg[u] <= best:
                continue
            others = ~(1 << u)
            at_least: list[int] = []
            for i in mask_bits(star):
                carry = masks[i] & others
                for k, level in enumerate(at_least):
                    at_least[k], carry = level | carry, level & carry
                    if not carry:
                        break
                if carry:
                    at_least.append(carry)
            best = max(best, len(at_least))
        return DegreeStats(
            degree=deg, max_degree=max(deg, default=0), max_codegree=best, edges=self._edges
        )

    @cached_property
    def predicates(self) -> Predicates:
        # ``shared`` counts each pair of edges once per vertex they share and
        # ``meeting`` once if they meet at all, so the two agree iff no two
        # edges share two vertices
        rows = self.rows
        shared = sum(comb(d, 2) for d in self.degrees)
        meeting = sum(row.bit_count() for row in rows) // 2
        full = (1 << len(self._edges)) - 1
        return Predicates(
            is_linear=meeting == shared,
            is_intersecting=all(row | 1 << i == full for i, row in enumerate(rows)),
        )


def degree_stats(h: Hypergraph) -> DegreeStats:
    """Vertex degrees and pairwise codegrees, with their maxima.

    Degrees are ``h.view.degrees``, the popcounts of the cached stars (edge
    bitmasks per vertex); callers that need only degrees read those and
    skip the codegree count.  The maximum codegree counts, for each vertex,
    the other vertices of its edges in bit slices, in O(sum |e| * (c + 1))
    steps for maximum codegree c, so neither builds the codegree map.  That
    map (read-only) lists only pairs ``(u, v)`` with ``u < v`` covered by at
    least one edge; absent pairs have codegree 0.  It is built on its first
    read.
    """
    return h.view.degree_stats


def volume(h: Hypergraph, edge_ids: Iterable[int] | None = None) -> Fraction:
    """Exact volume of an edge subset: sum of C(|V(e)|,2) / C(n,2).

    Requires at least two vertices, otherwise the normaliser vanishes.
    """
    if h.n < 2:
        raise ValueError("volume needs a hypergraph on at least 2 vertices")
    ids = range(h.m) if edge_ids is None else edge_ids
    total = 0
    for i in ids:
        s = len(h.edges[i])
        total += s * (s - 1) // 2
    return Fraction(total * 2, h.n * (h.n - 1))


def dual(h: Hypergraph) -> Hypergraph:
    """Swap the roles of vertices and edges.

    Vertex ``i`` of the result stands for edge ``i`` of ``h``; for each
    original vertex ``v`` the result gets the edge ``{i : v in V(e_i)}``.
    Vertices of degree 0 would produce an empty edge, so they are refused.
    """
    stars = h.view.incidence
    for v, star in enumerate(stars):
        if not star:
            raise ValueError(f"vertex {v} has degree 0; dual undefined")
    return Hypergraph(h.m, [mask_bits(star) for star in stars])


def line_graph(h: Hypergraph) -> Graph:
    """Graph on edge ids where two edges are adjacent iff they share a vertex."""
    return h.view.line_graph


def predicates(h: Hypergraph) -> Predicates:
    """Linearity (pairwise |intersection| <= 1) and the intersecting property.

    Parallel edges of size >= 2 break linearity; the empty and one-edge
    hypergraphs satisfy both predicates vacuously.
    """
    return h.view.predicates


def neighbourhoods(h: Hypergraph) -> Neighbourhoods:
    """Closed vertex neighbourhoods N[v] and open edge neighbourhoods N(e).

    N[v] is {v} plus everything sharing an edge with v (so isolated vertices
    get the singleton {v}); N(e) is the set of other edges meeting e.
    """
    view = h.view
    return Neighbourhoods(
        closed_vertex=tuple(frozenset(mask_bits(cm)) for cm in view.closed_masks),
        edge=tuple(frozenset(mask_bits(row)) for row in view.rows),
    )


class ListMasks(NamedTuple):
    """Colour lists as bitmasks over their sorted union.

    Bit i of ``masks[e]`` stands for ``colours[i]``, the i-th smallest
    colour of any list, and ``position`` maps each colour back to i.  Bits
    are numbered by rank rather than by colour value, so negative and
    sparse colour ids cost nothing.  Lists derived from these (a list
    minus a reserve, say) share the numbering: ``_replace(masks=...)``.
    """

    colours: tuple[int, ...]
    position: Mapping[int, int]
    masks: Mapping[int, int]

    def mask(self, colours: Iterable[int]) -> int:
        """The bits of ``colours``; a colour outside every list has none."""
        position, out = self.position, 0
        for c in colours:
            i = position.get(c)
            if i is not None:
                out |= 1 << i
        return out

    def decode(self, mask: int) -> frozenset[int]:
        """The colours whose bits ``mask`` sets."""
        colours = self.colours
        return frozenset(colours[i] for i in mask_bits(mask))


def list_masks(
    lists: Mapping[int, Iterable[int]] | ListMasks, edge_ids: Iterable[int] | None = None
) -> ListMasks:
    """The lists of ``edge_ids`` (default: every key) as bitmasks over the
    sorted union of those lists, each distinct list converted once.  A
    ``ListMasks`` is returned as it is, so callers convert only at the edge
    of the mask code."""
    if isinstance(lists, ListMasks):
        return lists
    ids = lists.keys() if edge_ids is None else edge_ids
    frozen = {e: frozenset(lists[e]) for e in ids}
    distinct = set(frozen.values())
    colours = tuple(sorted(frozenset().union(*distinct)))
    position = {c: i for i, c in enumerate(colours)}
    full = (1 << len(colours)) - 1
    done = {
        cs: full if len(cs) == len(colours) else sum(1 << position[c] for c in cs)
        for cs in distinct
    }
    return ListMasks(colours, position, {e: done[cs] for e, cs in frozen.items()})


def edge_list_masks(h: Hypergraph, lists: Mapping[int, Iterable[int]] | ListMasks) -> ListMasks:
    """The lists of every edge of ``h`` as bitmasks: ``list_masks`` over the
    edge ids 0..m-1, a ``ListMasks`` as it is.  The colouring routines
    convert their lists here, once, on entry; an edge without a list
    raises ``ValueError``."""
    given = lists.masks if isinstance(lists, ListMasks) else lists
    for i in range(h.m):
        if i not in given:
            raise ValueError(f"edge {i} has no colour list")
    return list_masks(lists, range(h.m))


def star_pigeonhole(
    h: Hypergraph, lists: Mapping[int, Iterable[int]] | ListMasks, edge_ids: Iterable[int]
) -> HallViolator | None:
    """The star of the lowest vertex with more edges than colours, as a
    ``HallViolator``, or None.

    The edges of the block ``edge_ids`` through one vertex pairwise
    intersect, so a proper colouring of the block from ``lists`` gives them
    distinct colours.  When the union of their lists holds fewer colours
    than there are edges, no such colouring exists: the star (edge ids
    ascending) and that union are a Hall violator.  The union is an OR of
    list masks and its size a popcount; a star's edges are only listed when
    it has more edges than the shortest list of the block, read over its
    distinct masks, so the check costs O(n + sum |e|) when it cannot fire.
    """
    ids = list(edge_ids)
    lm = list_masks(lists, ids)
    masks = lm.masks
    shortest = min((cs.bit_count() for cs in {masks[e] for e in ids}), default=0)
    block_mask = sum(1 << e for e in ids)
    for star in h.view.incidence:
        star &= block_mask
        if star.bit_count() <= shortest:
            continue
        edges = mask_bits(star)
        union = 0
        for e in edges:
            union |= masks[e]
        if union.bit_count() < len(edges):
            return HallViolator(tuple(edges), lm.decode(union))
    return None


class HallViolator(NamedTuple):
    """Certificate that some lists have no system of distinct
    representatives: the ``edges`` need pairwise different colours, yet
    their lists hold only ``colours``, fewer colours than edges."""

    edges: tuple[int, ...]
    colours: frozenset[int]

    @property
    def detail(self) -> str:
        return f"Hall violator: {len(self.edges)} edges, {len(self.colours)} colours"


def distinct_representatives(
    lists: Mapping[int, Iterable[int]] | ListMasks, edge_ids: Iterable[int]
) -> dict[int, int] | HallViolator:
    """Pairwise different colours for ``edge_ids``, each from its own list
    (a system of distinct representatives), or a ``HallViolator``.

    The lists are bitmasks (``list_masks``), so colours ascend with their
    bits.  The edges first take colours greedily, in the order given: each
    the lowest bit of its list that no earlier edge took.  Where the greedy
    colours every edge, that is the answer.  Each edge it leaves stuck
    starts an augmenting-path search (Kuhn) in the bipartite graph of
    edges and colours, trying at each edge the lowest bit of its list that
    the search has not reached.  By Hall's theorem a search fails only
    when no system exists; the edges it then reached (the stuck edge and
    the owners of the colours it reached) are the violator, and the
    colours it reached, all owned by the others, are the union of their
    lists.  Each search costs O(sum |L(e)|) bit operations.
    """
    ids = list(edge_ids)
    lm = list_masks(lists, ids)
    masks = lm.masks
    owner: dict[int, int] = {}  # colour bit -> edge
    colour_of: dict[int, int] = {}  # edge -> colour bit
    taken = 0
    stuck = []
    for e in ids:
        free = masks[e] & ~taken
        if free:
            bit = free & -free
            taken |= bit
            owner[bit], colour_of[e] = e, bit
        else:
            stuck.append(e)
    for root in stuck:
        reached = 0  # the colours this search has visited
        path, via = [root], []  # path[i] reached path[i + 1] by colour via[i]
        while path:
            free = masks[path[-1]] & ~reached
            if not free:
                path.pop()
                if via:
                    via.pop()
                continue
            bit = free & -free
            reached |= bit
            via.append(bit)
            f = owner.get(bit)
            if f is not None:
                path.append(f)
                continue
            # the colour is free: each edge on the path takes the colour it
            # reached the next by, and the last edge this one
            for g, c in zip(path, via):
                owner[c], colour_of[g] = g, c
            break
        else:
            edges = {root}.union(owner[1 << i] for i in mask_bits(reached))
            return HallViolator(tuple(sorted(edges)), lm.decode(reached))
    colours = lm.colours
    return {e: colours[colour_of[e].bit_length() - 1] for e in ids}


def mask_bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def validate_colouring(
    h: Hypergraph,
    colouring: Mapping[int, int],
    lists: Mapping[int, Iterable[int]] | None = None,
) -> ValidationReport:
    """Check properness (intersecting edges differ) and list compliance.

    Every edge must carry a colour: a missing edge id raises rather than
    reporting, since a partial map is a caller bug, not a property of the
    colouring.  Violations list each conflicting pair ``("conflict", i, j)``
    once, ascending, then each off-list edge ``("list", i)``.  Two edges
    meet exactly when some vertex lies on both, so an edge clashes iff its
    vertex mask meets the vertices its colour already covers: one mask
    test per edge, with one cover mask per colour.  The masks are the
    constructor's ``h.edge_masks``, not the cached view's, so the check
    stays independent of the view.  Only when a clash exists are the
    conflicting pairs read off each vertex's star, in O(n + sum |e|) time
    plus the conflicts found.
    """
    for i in range(h.m):
        if i not in colouring:
            raise ValueError(f"edge {i} missing from colouring")
    if len(colouring) != h.m:
        for i in colouring:
            if not 0 <= i < h.m:
                raise ValueError(f"unknown edge id {i} in colouring")
    cover: dict[int, int] = {}  # colour -> the vertices of its edges so far
    clash = False
    for i, mask in enumerate(h.edge_masks):
        c = colouring[i]
        covered = cover.get(c, 0)
        if covered & mask:
            clash = True
        cover[c] = covered | mask
    violations: list[tuple] = []
    if clash:
        stars: list[list[int]] = [[] for _ in range(h.n)]
        for i, e in enumerate(h.edges):
            for v in e:
                stars[v].append(i)
        conflicts: set[tuple[int, int]] = set()
        for star in stars:
            if len({colouring[i] for i in star}) == len(star):
                continue
            by_colour: dict[int, list[int]] = {}
            for i in star:
                by_colour.setdefault(colouring[i], []).append(i)
            for same in by_colour.values():
                conflicts.update(combinations(same, 2))
        violations = [("conflict", i, j) for i, j in sorted(conflicts)]
    if lists is not None:
        allowed = normalize_lists(h, lists)
        for i in range(h.m):
            if colouring[i] not in allowed[i]:
                violations.append(("list", i))
    return ValidationReport(valid=not violations, colour_count=len(cover), violations=tuple(violations))


def restrict_and_induce(h: Hypergraph, vertex_set: Iterable[int], mode: str) -> Hypergraph:
    """Take a vertex subset S, either inducing or restricting the edges.

    ``mode='induced'`` keeps the edges entirely inside S; ``mode='restriction'``
    replaces every edge by its intersection with S, failing on edges that miss
    S entirely.  The result is reindexed: new vertex ids are ranks in
    sorted(S).
    """
    svv = sorted(set(vertex_set))
    if svv and (svv[0] < 0 or svv[-1] >= h.n):
        raise ValueError("vertex subset out of range")
    remap = {v: i for i, v in enumerate(svv)}
    smask = 0
    for v in svv:
        smask |= 1 << v
    new_edges = []
    if mode == "induced":
        for i, e in enumerate(h.edges):
            if h.edge_mask(i) & ~smask == 0:
                new_edges.append([remap[v] for v in e])
    elif mode == "restriction":
        for i, e in enumerate(h.edges):
            if h.edge_mask(i) & smask == 0:
                raise ValueError(f"edge {i} is disjoint from the restriction set")
            new_edges.append([remap[v] for v in e if v in remap])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return Hypergraph(len(svv), new_edges)


def subhypergraph(h: Hypergraph, edge_ids: Iterable[int]) -> tuple[Hypergraph, tuple[int, ...]]:
    """Spanning sub-hypergraph on a subset of edges (same vertex set).

    Returns the sub-hypergraph plus the tuple mapping its edge ids back to
    ids in ``h``.
    """
    ids = tuple(edge_ids)
    for i in ids:
        if not 0 <= i < h.m:
            raise ValueError(f"edge id {i} out of range")
    edges, masks = h.edges, h.edge_masks
    sub_edges = tuple(edges[i] for i in ids)
    return Hypergraph._from_normal(h.n, sub_edges, tuple(masks[i] for i in ids)), ids


def uniform_lists(h: Hypergraph, k: int) -> dict[int, frozenset[int]]:
    """Give every edge the palette {0..k-1}."""
    pal = frozenset(range(k))
    return {i: pal for i in range(h.m)}


def normalize_lists(h: Hypergraph, lists: Mapping[int, Iterable[int]]) -> dict[int, frozenset[int]]:
    """Freeze a list assignment, requiring a list for every edge."""
    out = {}
    for i in range(h.m):
        if i not in lists:
            raise ValueError(f"edge {i} has no colour list")
        out[i] = frozenset(lists[i])
    return out


# --- canonical form (small instances only) ---------------------------------

_CANON_MAX_N = 16
_CANON_MAX_M = 20
_CANON_LEAF_CAP = 500_000


def _refine(h: Hypergraph, colours: list[int]) -> list[int]:
    """Stable colour refinement driven by incident-edge signatures."""
    n = h.n
    while True:
        edge_sigs = [tuple(sorted(colours[v] for v in e)) for e in h.edges]
        sigs = []
        for v in range(n):
            inc = sorted(edge_sigs[i] for i, e in enumerate(h.edges) if v in e)
            sigs.append((colours[v], tuple(inc)))
        ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colours:
            return colours
        colours = new


def _canon_search(h: Hypergraph, colours: list[int], best: list, leaves: list[int]) -> None:
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colours):
        cells.setdefault(c, []).append(v)
    target = None
    for c in sorted(cells):
        if len(cells[c]) > 1:
            target = cells[c]
            break
    if target is None:
        leaves[0] += 1
        if leaves[0] > _CANON_LEAF_CAP:
            raise RuntimeError("canonical form search exceeded its leaf cap")
        lab = {v: colours[v] for v in range(h.n)}
        form = tuple(sorted(tuple(sorted(lab[v] for v in e)) for e in h.edges))
        if best[0] is None or form < best[0]:
            best[0] = form
        return
    # twins (vertices on exactly the same edges) give the same forms: swapping
    # two of them fixes every edge and the colouring, so branch on one of each
    firsts: dict[int, int] = {}
    for v in target:
        firsts.setdefault(h.view.incidence[v], v)
    for v in firsts.values():
        nxt = list(colours)
        # individualize v: give it a fresh colour just below its cell
        nxt[v] = nxt[v] * 2 + 1
        for u in range(h.n):
            if u != v:
                nxt[u] = nxt[u] * 2 + 2
        _canon_search(h, _refine(h, nxt), best, leaves)


def canonical_form(h: Hypergraph) -> tuple:
    """Canonical invariant of the isomorphism class (small hypergraphs).

    Refinement plus individualization; intended for at most 16 vertices and
    20 edges, guarded by a ValueError beyond that.
    """
    if h.n > _CANON_MAX_N or h.m > _CANON_MAX_M:
        raise ValueError("canonical_form is limited to 16 vertices / 20 edges")
    if h.m == 0:
        return (h.n, ())
    colours = _refine(h, [0] * h.n)
    best: list = [None]
    _canon_search(h, colours, best, [0])
    return (h.n, best[0])


def is_isomorphic(h1: Hypergraph, h2: Hypergraph) -> bool:
    """Exact isomorphism test via canonical forms (same size guard applies)."""
    if h1.n != h2.n or h1.m != h2.m:
        return False
    if sorted(map(len, h1.edges)) != sorted(map(len, h2.edges)):
        return False
    d1, d2 = degree_stats(h1), degree_stats(h2)
    if sorted(d1.degree) != sorted(d2.degree):
        return False
    if sorted(d1.codegree.values()) != sorted(d2.codegree.values()):
        return False
    return canonical_form(h1) == canonical_form(h2)
