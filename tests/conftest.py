"""Shared fixtures: hand-built reference instances, a seeded corpus, and
probes run in a fresh interpreter.

The Fano lines here come from the {0,1,3} difference set mod 7 so that
tests of the field-based plane generator have an independent target.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import hyperchrom
from hyperchrom import (
    GeneratorParams,
    Hypergraph,
    projective_plane,
    random_bounded_codegree,
    t_fold,
)
from hyperchrom.hypercore import list_masks

FANO_LINES = tuple(
    tuple(sorted(((0 + i) % 7, (1 + i) % 7, (3 + i) % 7))) for i in range(7)
)


@pytest.fixture
def fano() -> Hypergraph:
    return Hypergraph(7, FANO_LINES)


@pytest.fixture
def triangle() -> Hypergraph:
    return Hypergraph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def k4() -> Hypergraph:
    """The complete graph K4 as a 2-uniform hypergraph."""
    return Hypergraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def c5() -> Hypergraph:
    """The 5-cycle: Δ = 2 and χ' = 3.  Its greedy clique (2) and greedy
    colouring (3) do not meet, so no certificate settles it."""
    return Hypergraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


@pytest.fixture
def star_beside_edge() -> Hypergraph:
    """Three edges through vertex 0 beside a disjoint edge.  It is not
    intersecting, and from lists of two colours the star is a Hall
    violator (``Hall violator: 3 edges, 2 colours``) that the list oracle
    finds before any search."""
    return Hypergraph(6, [(0, 1), (0, 2), (0, 3), (4, 5)])


def make_corpus(count, base_seed, n_range=(5, 14), t_range=(1, 3), size_hi=4):
    """Seeded random bounded-codegree instances with their codegree caps."""
    out = []
    for i in range(count):
        seed = base_seed + i
        rng = random.Random(seed)
        n = rng.randint(*n_range)
        t = rng.randint(*t_range)
        h = random_bounded_codegree(
            GeneratorParams(
                seed=seed,
                n=n,
                t=t,
                size_range=(2, min(size_hi, n)),
                density=rng.randint(3, 2 * n),
            )
        )
        out.append((h, t))
    return out


def perturbed_plane(form: str, q: int, t: int) -> Hypergraph:
    """A t-fold PG(2, q) perturbed so that it is no longer intersecting, and
    ``colour_main`` runs its staged script on it: ``del`` deletes vertex
    n - 1 from every line, ``add`` adds an edge on two new vertices, ``pt``
    adds the size-one edge (0,)."""
    plane = t_fold(projective_plane(q), t)
    n = plane.n
    if form == "del":
        return Hypergraph(n - 1, [tuple(v for v in e if v != n - 1) for e in plane.edges])
    if form == "add":
        return Hypergraph(n + 2, [*plane.edges, (n, n + 1)])
    assert form == "pt", form
    return Hypergraph(n, [*plane.edges, (0,)])


PERTURBED_FORMS = [
    (form, q, t) for form in ("del", "add", "pt") for q in (3, 4, 5, 7, 8) for t in (1, 2)
]

# the (q, t) whose plane-plus-point puts the lines in H3 at the pipeline's
# partition parameters; at t = 1 and q in {4, 5} H3 is empty, and at q = 3
# every edge is small
H3_CASES = [(4, 2), (5, 2), (7, 1), (7, 2), (8, 1), (8, 2)]


# colour ids for lists that are neither dense nor non-negative
SPARSE_COLOURS = (-(10**6), *range(-90, 0, 3), *range(0, 12000, 97), 10**6)


def widened_masks(lists, extra):
    """``lists`` as a ``ListMasks`` whose colour table also holds the
    colours ``extra``, as lists cut down to a reserve keep their parent's
    table, with the frozensets its masks decode to."""
    wide = list_masks({**lists, None: extra})
    lm = wide._replace(masks={e: wide.masks[e] for e in lists})
    return lm, {e: lm.decode(cs) for e, cs in lm.masks.items()}


@pytest.fixture(scope="session")
def corpus():
    return make_corpus(40, base_seed=1000)


def fresh_process(probe: str, *argv: str) -> str:
    """Run ``probe`` in a new interpreter that imports this checkout's package."""
    src = Path(hyperchrom.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return out.stdout.strip()
