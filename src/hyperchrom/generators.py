"""Constructions: planes, near-pencils, t-folds, clique covers, random instances."""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, log
from typing import Sequence

from .hypercore import Hypergraph, predicates

__all__ = [
    "GeneratorParams",
    "projective_plane",
    "near_pencil",
    "t_fold",
    "random_bounded_codegree",
    "SUPPORTED_PLANE_ORDERS",
]

logger = logging.getLogger(__name__)

SUPPORTED_PLANE_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13)

_PRIMES = {2, 3, 5, 7, 11, 13}

# q -> (p, e, reduction): x**e is rewritten as the given low-to-high
# coefficient vector over GF(p).  Fixed choices: x^2+x+1 for GF(4),
# x^3+x+1 for GF(8), x^2+1 for GF(9).
_POWERS = {
    4: (2, 2, (1, 1)),
    8: (2, 3, (1, 1, 0)),
    9: (3, 2, (2, 0)),
}


@lru_cache(maxsize=None)
def _field_tables(q: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Addition and multiplication tables of GF(q), elements encoded 0..q-1.

    For prime powers an element is the base-p digit vector of its id, read as
    polynomial coefficients (low degree first); id 0 is zero and id 1 is one.
    """
    if q in _PRIMES:
        add = tuple(tuple((a + b) % q for b in range(q)) for a in range(q))
        mul = tuple(tuple((a * b) % q for b in range(q)) for a in range(q))
        return add, mul
    p, e, rem = _POWERS[q]

    def digits(x: int) -> tuple[int, ...]:
        out = []
        for _ in range(e):
            out.append(x % p)
            x //= p
        return tuple(out)

    def undigits(ds: Sequence[int]) -> int:
        x = 0
        for d in reversed(ds):
            x = x * p + d
        return x

    def poly_mul(a: Sequence[int], b: Sequence[int]) -> int:
        prod = [0] * (2 * e - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        for d in range(len(prod) - 1, e - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for i, r in enumerate(rem):
                    prod[d - e + i] = (prod[d - e + i] + c * r) % p
        return undigits(prod[:e])

    elems = [digits(x) for x in range(q)]
    add = tuple(
        tuple(undigits([(u + v) % p for u, v in zip(elems[a], elems[b])]) for b in range(q))
        for a in range(q)
    )
    mul = tuple(tuple(poly_mul(elems[a], elems[b]) for b in range(q)) for a in range(q))
    return add, mul


def projective_plane(q: int) -> Hypergraph:
    """Projective plane of prime-power order q as a hypergraph.

    Vertices are the q^2+q+1 points, edges the q^2+q+1 lines.  Only the
    orders in SUPPORTED_PLANE_ORDERS are accepted; in particular q=1 is
    refused (the degenerate 'plane' of that order is the triangle, available
    as near_pencil(3)).
    """
    if q == 1:
        raise ValueError(
            "no plane of order 1; the degenerate case is the triangle, "
            "available as near_pencil(3)"
        )
    if q not in SUPPORTED_PLANE_ORDERS:
        raise ValueError(
            f"unsupported plane order {q}; supported orders: {SUPPORTED_PLANE_ORDERS}"
        )
    add, mul = _field_tables(q)
    neg = [row.index(0) for row in add]
    inv = [0] + [row.index(1) for row in mul[1:]]
    field = range(q)
    # points and lines are the normalised triples (1,a,b) by (a, b), then
    # (0,1,b) by b, then (0,0,1); line l holds the points p with
    # l0 p0 + l1 p1 + l2 p2 = 0, so its q + 1 points are solved from that
    # equation, in ascending order
    lines = [(1, a, b) for a in field for b in field]
    lines += [(0, 1, b) for b in field]
    lines.append((0, 0, 1))
    top = q * q  # (0,1,b) is point top + b and (0,0,1) is point top + q
    edges = []
    for l0, l1, l2 in lines:
        if l2:
            r = mul[neg[1]][inv[l2]]  # -1 / l2
            line = [a * q + mul[add[l0][mul[l1][a]]][r] for a in field]
            line.append(top + mul[l1][r])
        elif l1:
            a = mul[neg[l0]][inv[l1]]
            line = [a * q + b for b in field]
            line.append(top + q)
        else:
            line = [top + b for b in field]
            line.append(top + q)
        edges.append(line)
    h = Hypergraph(len(lines), edges)
    _check_plane(h, q)
    return h


def _check_plane(h: Hypergraph, q: int) -> None:
    # a linear instance has codegree at most 1, and lines of q + 1 >= 3
    # points give codegree at least 1, so linearity pins the codegree
    n0 = q * q + q + 1
    if h.n != n0 or h.m != n0:
        raise RuntimeError(f"plane construction for q={q} has wrong size")
    if any(len(e) != q + 1 for e in h.edges):
        raise RuntimeError(f"plane construction for q={q} has a bad line size")
    if set(h.view.degrees) != {q + 1}:
        raise RuntimeError(f"plane construction for q={q} is not a plane")
    preds = predicates(h)
    if not (preds.is_linear and preds.is_intersecting):
        raise RuntimeError(f"plane construction for q={q} is not linear/intersecting")


def near_pencil(n: int) -> Hypergraph:
    """Near-pencil on n >= 3 vertices: one edge of size n-1 plus n-1 spokes.

    Vertex 0 is the apex; the big edge {1..n-1} comes first, then the spokes
    {0,i} in increasing i.
    """
    if n < 3:
        raise ValueError("near_pencil needs n >= 3")
    edges: list[tuple[int, ...]] = [tuple(range(1, n))]
    edges += [(0, i) for i in range(1, n)]
    return Hypergraph(n, edges)


def t_fold(h: Hypergraph, t: int) -> Hypergraph:
    """Replace every edge by t parallel copies (copies are consecutive)."""
    if t < 1:
        raise ValueError("t_fold needs t >= 1")
    edges = tuple(e for e in h.edges for _ in range(t))
    masks = tuple(mask for mask in h.edge_masks for _ in range(t))
    return Hypergraph._from_normal(h.n, edges, masks)


@dataclass(frozen=True)
class GeneratorParams:
    """Parameters for the rejection sampler."""

    seed: int
    n: int
    t: int
    size_range: tuple[int, int]
    density: int

    def __post_init__(self):
        lo, hi = self.size_range
        if self.n < 1 or self.t < 1 or self.density < 0:
            raise ValueError("n, t must be positive and density non-negative")
        if not 1 <= lo <= hi <= self.n:
            raise ValueError("size_range must satisfy 1 <= lo <= hi <= n")


def random_bounded_codegree(params: GeneratorParams) -> Hypergraph:
    """Seeded rejection sampler for codegree <= t hypergraphs.

    Draws up to ``density`` edges with sizes uniform in ``size_range``,
    rejecting any edge that would push a pair of vertices past codegree t.
    The retry budget is 50 * density draws; falling short is logged, not an
    error.

    Each draw reads ``random.Random(params.seed).getrandbits`` exactly as
    ``s = rng.randint(lo, hi)`` and then ``rng.sample(range(n), s)`` do in
    CPython 3.10-3.13, so a seed gives the same edges in the same order as
    those two calls would; ``tests/_naive.py`` keeps the two calls as the
    reference.  ``randint`` and ``sample`` draw a number below k by
    rejection: ``k.bit_length()`` bits, again while the draw is >= k.
    ``sample`` picks from a shrinking pool while n is at most the size of
    a set of s items (21, plus 4 ** ceil(log(3s, 4)) when s > 5), and
    otherwise draws below n, again on a repeat.
    """
    rng = random.Random(params.seed)
    getrandbits = rng.getrandbits
    n, t = params.n, params.t
    lo, hi = params.size_range
    width = hi - lo + 1
    width_bits = width.bit_length()
    n_bits = n.bit_length()
    # pooled[s - lo]: whether sample(range(n), s) keeps a pool list
    pooled = [n <= 21 + (4 ** ceil(log(s * 3, 4)) if s > 5 else 0) for s in range(lo, hi + 1)]
    everyone = list(range(n))
    # at_least[k][v]: the vertices whose codegree with v exceeds k, kept as
    # bit slices of a per-vertex counter; a draw is rejected iff one of its
    # vertices already has codegree t with another
    at_least = [[0] * n for _ in range(t)]
    full = at_least[t - 1]
    edges: list[tuple[int, ...]] = []
    masks: list[int] = []
    budget = 50 * params.density
    tries = 0
    while len(edges) < params.density and tries < budget:
        tries += 1
        # the size is lo + r
        r = getrandbits(width_bits)
        while r >= width:
            r = getrandbits(width_bits)
        verts = []
        mask = blocked = 0
        if pooled[r]:
            pool = everyone[:]
            for left in range(n, n - lo - r, -1):
                bits = left.bit_length()
                j = getrandbits(bits)
                while j >= left:
                    j = getrandbits(bits)
                v = pool[j]
                pool[j] = pool[left - 1]
                verts.append(v)
                mask |= 1 << v
                blocked |= full[v]
        else:
            for _ in range(lo + r):
                v = getrandbits(n_bits)
                while v >= n or mask >> v & 1:
                    v = getrandbits(n_bits)
                verts.append(v)
                mask |= 1 << v
                blocked |= full[v]
        if blocked & mask:
            continue
        for v in verts:
            carry = mask & ~(1 << v)
            for level in at_least:
                level[v], carry = level[v] | carry, level[v] & carry
                if not carry:
                    break
        verts.sort()
        edges.append(tuple(verts))
        masks.append(mask)
    if len(edges) < params.density:
        logger.info(
            "random_bounded_codegree: %d of %d edges after %d tries",
            len(edges),
            params.density,
            tries,
        )
    return Hypergraph._from_normal(n, tuple(edges), tuple(masks))
