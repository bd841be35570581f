"""The one exact colouring search, behind both oracles.

``_search`` colours a graph given as bitmask adjacency rows, each vertex from
its own bitmask list.  ``solve_chromatic`` (``oracle.exact_chromatic_index``)
runs it with the lists {0..k-1} and first-use symmetry breaking;
``list_colour`` (``oracle.exact_list_colourable``) runs it with the caller's
lists and no symmetry breaking.  Both return a ``completed`` flag that is
False only when the wall-clock time cap interrupted the search; the cap is
polled every ``_POLL`` search nodes.
"""

from __future__ import annotations

from time import monotonic

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
    col = [-1] * len(adj)
    for v in order:
        used = 0
        a = adj[v]
        while a:
            w = (a & -a).bit_length() - 1
            a &= a - 1
            if col[w] >= 0:
                used |= 1 << col[w]
        c = 0
        while used >> c & 1:
            c += 1
        col[v] = c
    return col


def _search(
    adj: list[int], lists: list[int], deadline: float | None, first_use: bool
) -> list[int] | None:
    """A proper colouring with vertex v coloured from bitmask ``lists[v]``.

    Depth-first search that branches on the uncoloured vertex with the
    fewest colours left (ties: higher degree, then lower id) and tries its
    colours in ascending order.  With ``first_use`` a vertex takes no
    colour above one more than the highest colour used so far, which
    breaks the symmetry of interchangeable lists {0..k-1}.  None when no
    colouring exists; raises ``_Timeout`` once ``deadline`` has passed.
    """
    n = len(adj)
    col = [-1] * n
    free = list(lists)  # colours still open to each uncoloured vertex
    deg = [a.bit_count() for a in adj]
    nodes = 0

    def dfs(depth: int, opened: int) -> bool:
        nonlocal nodes
        nodes += 1
        if deadline is not None and nodes % _POLL == 0 and monotonic() > deadline:
            raise _Timeout
        if depth == n:
            return True
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

    return list(col) if dfs(0, 0) else None


def solve_chromatic(
    adj: list[int], time_cap_ms: int = 0, lower: int = 0
) -> tuple[int, list[int], bool]:
    """Exact chromatic number of a bitmask-adjacency graph.

    Greedy clique lower bound, greedy upper bound, then ``_search`` for a
    colouring from {0..k-1} with first-use symmetry breaking, for k one
    below the best colouring so far, until it fails.  ``lower`` must be a
    proven lower bound on the chromatic number (the caller's own
    certificate); the search stops once it reaches max(greedy clique,
    lower), which skips only the final infeasibility proof and never
    changes the colouring returned.  A time cap (0: none) that fires
    returns the best colouring found, with ``completed`` False.
    """
    n = len(adj)
    if n == 0:
        return 0, [], True
    deadline = _deadline(time_cap_ms)
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    lb = max(_greedy_clique(adj, order), lower)
    best = _greedy_colouring(adj, order)
    k = max(best)
    while k >= lb:
        try:
            res = _search(adj, [(1 << k) - 1] * n, deadline, first_use=True)
        except _Timeout:
            return max(best) + 1, best, False
        if res is None:
            break
        best = res
        k = max(best)  # one below the colours actually used
    return max(best) + 1, best, True


def list_colour(
    adj: list[int], lists: list[int], time_cap_ms: int = 0
) -> tuple[list[int] | None, bool]:
    """``(colouring, completed)``: a colouring from the bitmask lists, or
    None when none exists; ``completed`` is False (colouring None) when
    the time cap (0: none) fired first."""
    try:
        return _search(adj, lists, _deadline(time_cap_ms), first_use=False), True
    except _Timeout:
        return None, False
