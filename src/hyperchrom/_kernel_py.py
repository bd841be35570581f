"""Chromatic-number kernel behind ``oracle.exact_chromatic_index``.

Works on bitmask adjacency rows and returns ``(chi, colouring, completed)``
where ``completed`` is False only when the wall-clock time cap interrupted
the proof (the returned value is then the best upper bound found, with its
colouring).
"""

from __future__ import annotations

from time import monotonic


class _Timeout(Exception):
    pass


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


def _try_k(adj: list[int], k: int, deadline: float | None) -> list[int] | None | str:
    """Search for a proper k-colouring; 'timeout' when the cap fires."""
    n = len(adj)
    col = [-1] * n
    sat = [0] * n  # bitmask of neighbour colours per uncoloured vertex
    state = {"nodes": 0}

    def dfs(depth: int, maxused: int) -> bool:
        state["nodes"] += 1
        if deadline is not None and state["nodes"] % 4096 == 0 and monotonic() > deadline:
            raise _Timeout
        if depth == n:
            return True
        best_v = -1
        best_key = (-1, -1, 0)
        for v in range(n):
            if col[v] < 0:
                key = (sat[v].bit_count(), adj[v].bit_count(), -v)
                if key > best_key:
                    best_key = key
                    best_v = v
        v = best_v
        limit = maxused + 1 if maxused + 1 < k else k
        for c in range(limit):
            if not sat[v] >> c & 1:
                col[v] = c
                touched = []
                a = adj[v]
                bit = 1 << c
                while a:
                    w = (a & -a).bit_length() - 1
                    a &= a - 1
                    if col[w] < 0 and not sat[w] & bit:
                        sat[w] |= bit
                        touched.append(w)
                if dfs(depth + 1, maxused if c < maxused else c + 1):
                    return True
                col[v] = -1
                for w in touched:
                    sat[w] &= ~bit
        return False

    try:
        found = dfs(0, 0)
    except _Timeout:
        return "timeout"
    return list(col) if found else None


def solve_chromatic(
    adj: list[int], time_cap_ms: int = 0, lower: int = 0
) -> tuple[int, list[int], bool]:
    """Exact chromatic number of a bitmask-adjacency graph.

    Greedy clique lower bound, greedy upper bound, then a downward search
    with saturation-guided branching and first-use colour symmetry breaking.
    ``lower`` must be a proven lower bound on the chromatic number (the
    caller's own certificate); the search stops once it reaches
    max(greedy clique, lower), which skips only the final infeasibility
    proof and never changes the colouring returned.
    """
    n = len(adj)
    if n == 0:
        return 0, [], True
    deadline = monotonic() + time_cap_ms / 1000.0 if time_cap_ms > 0 else None
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    lb = max(_greedy_clique(adj, order), lower)
    best = _greedy_colouring(adj, order)
    ub = max(best) + 1
    if lb >= ub:
        return ub, best, True
    k = ub - 1
    while k >= lb:
        res = _try_k(adj, k, deadline)
        if res == "timeout":
            return max(best) + 1, best, False
        if res is None:
            break
        best = res
        k = max(best)  # one below the colours actually used
    return max(best) + 1, best, True
