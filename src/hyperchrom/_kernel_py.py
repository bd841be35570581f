"""The one exact colouring search, behind both oracles.

``_search`` colours a graph given as bitmask adjacency rows, each vertex from
its own bitmask list.  ``solve_chromatic`` (``oracle.exact_chromatic_index``)
runs it with the lists {0..k-1} and first-use symmetry breaking;
``list_colour`` (``oracle.exact_list_colourable``) runs it with the caller's
lists and no symmetry breaking.  Both take ``cliques`` of the graph (the
oracles pass the vertex stars, which are cliques of the line graph), and the
search fails every node where a clique's uncoloured members outnumber the
colours they have left between them.  Both return a ``completed`` flag that
is False only when the wall-clock time cap interrupted the search; the cap
is polled every ``_POLL`` search nodes.
"""

from __future__ import annotations

from time import monotonic
from typing import Sequence

_POLL = 4096


class _Timeout(Exception):
    pass


def _deadline(time_cap_ms: int) -> float | None:
    return monotonic() + time_cap_ms / 1000.0 if time_cap_ms > 0 else None


def _greedy_clique(adj: list[int], order: list[int]) -> int:
    cand = (1 << len(adj)) - 1
    size = 0
    for v in order:
        if cand >> v & 1:
            size += 1
            cand &= adj[v]
    return size


def _greedy_colouring(adj: list[int], order: list[int]) -> list[int]:
    """Each vertex of ``order`` takes the smallest colour none of its coloured
    neighbours has: the first colour class its row misses."""
    col = [-1] * len(adj)
    classes: list[int] = []  # classes[c]: the vertices coloured c, as a mask
    for v in order:
        a = adj[v]
        c = 0
        while c < len(classes) and classes[c] & a:
            c += 1
        if c == len(classes):
            classes.append(0)
        classes[c] |= 1 << v
        col[v] = c
    return col


def _search(
    adj: list[int],
    lists: list[int],
    deadline: float | None,
    first_use: bool,
    cliques: Sequence[int] = (),
) -> tuple[list[int] | None, int, int]:
    """``(colouring, nodes, reads)``: a proper colouring with vertex v
    coloured from bitmask ``lists[v]`` (None when none exists), the search
    nodes visited, and the clique unions computed.

    Depth-first search that branches on the uncoloured vertex with the
    fewest colours left (ties: higher degree, then lower id) and tries its
    colours in ascending order.  With ``first_use`` a vertex takes no
    colour above one more than the highest colour used so far, which
    breaks the symmetry of interchangeable lists {0..k-1}.  Raises
    ``_Timeout`` once ``deadline`` has passed.

    Star check: ``cliques`` are vertex masks of cliques of the graph, whose
    members need distinct colours.  A node fails when some clique's
    uncoloured members outnumber the union of their colours left (Hall's
    condition on that clique).  Only a clique with more uncoloured members
    than the fewest colours left anywhere (``least``) can fail it, so only
    those have their union computed, in the order given; with no cliques
    the search visits the same tree as without the check.

    Bookkeeping: vertices are renumbered by (higher degree, lower id), so
    the branch vertex is the lowest slot among those with fewest colours
    left.  Each vertex owns one ``width``-bit slot of three integers: the
    uncoloured set and the rows keep the slot's low bit, ``free`` keeps the
    vertex's colours left (colour c at bit c of the slot) and ``counts``
    keeps how many there are, under the slot's guard bit.  Colouring a
    vertex c takes c from its uncoloured neighbours ``hit = nbrs &
    (free >> c)`` by ``free ^ (hit << c)`` and ``counts - hit``; the
    vertices with at most m colours left are the slots whose guard bit
    ``counts - (m + 1) * ones`` clears.  A branch that takes the last
    colour of a neighbour leads to a node that fails at once; it is counted
    (and polled) without a call.
    """
    n = len(adj)
    order = sorted(range(n), key=lambda u: (-adj[u].bit_count(), u))
    colours = max((a.bit_length() for a in lists), default=0)
    most = max((a.bit_count() for a in lists), default=0)
    # a slot holds every colour bit, and a count up to ``most`` below its guard
    width = max(colours, most.bit_length() + 1)
    top = width - 1
    slot = [1 << width * i for i in range(n)]
    where = [0] * n  # original id -> its slot bit
    for i, u in enumerate(order):
        where[u] = slot[i]

    def packed(mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= where[low.bit_length() - 1]
            mask ^= low
        return out

    rows = [packed(adj[u]) for u in order]
    free = sum(lists[u] * slot[i] for i, u in enumerate(order))
    ones = sum(slot)
    guards = ones << top
    counts = guards + sum(lists[u].bit_count() * slot[i] for i, u in enumerate(order))
    at_most = [(m + 1) * ones for m in range(most + 1)]
    palette = (1 << colours) - 1
    # a clique of one vertex never fails a node; a clique's colours left are
    # ORed down into the lowest slot by halving shifts
    packs = [packed(k) for k in cliques if k.bit_count() > 1]
    folds = [width << j for j in reversed(range((n - 1).bit_length()))]
    col = [-1] * n
    nodes = reads = 0

    def dfs(unc: int, free: int, counts: int, floor: int, opened: int) -> bool:
        # floor: a lower bound on the fewest colours left, one below the
        # parent's, as a branch takes at most one colour from each vertex
        nonlocal nodes, reads
        nodes += 1
        if deadline is not None and nodes % _POLL == 0 and monotonic() > deadline:
            raise _Timeout
        if not unc:
            return True
        live = unc << top
        least = floor
        while True:
            fewest = live & ~(counts - at_most[least])
            if fewest:
                break
            least += 1
        if not least:
            return False
        for clique in packs:
            members = clique & unc
            size = members.bit_count()
            if size > least:
                reads += 1
                union = free & members * palette
                for shift in folds:
                    union |= union >> shift
                if (union & palette).bit_count() < size:
                    return False
        i = (fewest & -fewest).bit_length() // width - 1
        rest = unc ^ slot[i]
        nbrs = rows[i] & rest
        opts = free >> width * i & palette
        if first_use:
            opts &= (2 << opened) - 1
        below = least - 1
        # with one colour left somewhere, a branch that takes it is a dead end
        doomed = fewest >> top if least == 1 else 0
        while opts:
            bit = opts & -opts
            opts ^= bit
            c = bit.bit_length() - 1
            hit = nbrs & (free >> c)
            if hit & doomed:
                nodes += 1  # that child, which fails at once
                if deadline is not None and nodes % _POLL == 0 and monotonic() > deadline:
                    raise _Timeout
                continue
            col[i] = c
            if dfs(rest, free ^ hit << c, counts - hit, below, opened if c < opened else c + 1):
                return True
        return False

    if not dfs(ones, free, counts, 0, 0):
        return None, nodes, reads
    out = [-1] * n
    for i, u in enumerate(order):
        out[u] = col[i]
    return out, nodes, reads


def _bounds(adj: list[int], lower: int) -> tuple[int, list[int]]:
    """``(lb, colouring)`` of a non-empty bitmask-adjacency graph without
    search: the lower bound max(greedy clique, ``lower``) and a greedy
    colouring, both taking the vertices by (higher degree, lower id)."""
    order = sorted(range(len(adj)), key=lambda v: (-adj[v].bit_count(), v))
    return max(_greedy_clique(adj, order), lower), _greedy_colouring(adj, order)


def solve_chromatic(
    adj: list[int], time_cap_ms: int = 0, lower: int = 0, cliques: Sequence[int] = ()
) -> tuple[int, list[int], bool]:
    """Exact chromatic number of a bitmask-adjacency graph.

    Greedy clique lower bound and greedy upper bound (``_bounds``), then
    ``_search`` for a colouring from {0..k-1} with first-use symmetry
    breaking and the star check on ``cliques`` (vertex masks of cliques of
    the graph), for k one below the best colouring so far, until it fails.
    ``lower`` must be a proven lower bound on the chromatic number (the
    caller's own certificate); the search stops once it reaches
    max(greedy clique, lower), which skips only the final infeasibility
    proof and never changes the colouring returned.  A time cap (0: none) that fires
    returns the best colouring found, with ``completed`` False.
    """
    n = len(adj)
    if n == 0:
        return 0, [], True
    deadline = _deadline(time_cap_ms)
    lb, best = _bounds(adj, lower)
    k = max(best)
    while k >= lb:
        try:
            res, _nodes, _reads = _search(
                adj, [(1 << k) - 1] * n, deadline, first_use=True, cliques=cliques
            )
        except _Timeout:
            return max(best) + 1, best, False
        if res is None:
            break
        best = res
        k = max(best)  # one below the colours actually used
    return max(best) + 1, best, True


def list_colour(
    adj: list[int], lists: list[int], time_cap_ms: int = 0, cliques: Sequence[int] = ()
) -> tuple[list[int] | None, bool]:
    """``(colouring, completed)``: a colouring from the bitmask lists, or
    None when none exists; ``completed`` is False (colouring None) when
    the time cap (0: none) fired first.  ``_search`` runs without symmetry
    breaking and with the star check on ``cliques`` (vertex masks of
    cliques of the graph)."""
    try:
        col, _nodes, _reads = _search(
            adj, lists, _deadline(time_cap_ms), first_use=False, cliques=cliques
        )
    except _Timeout:
        return None, False
    return col, True
