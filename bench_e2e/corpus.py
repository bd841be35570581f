"""Seeded workload corpora and their pinned answers.

Every instance comes from the package's own generators; ``--seed`` picks the
random instances and, for the structured families, a vertex relabelling, so
the same seed always gives the same files.  Each op carries what the
benchmark expects of the report, worked out here without calling any
solver of the package.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field

# called through the module, so the traced run sees the generator calls
from hyperchrom import generators as gen
from hyperchrom.generators import GeneratorParams
from hyperchrom.hypercore import Hypergraph

from checks import greedy_bound, max_degree

WORKLOADS = ("random", "extremal", "oracle")

# oracle: one cap per call, passed explicitly so HYPERCHROM_TIME_CAP_MS
# cannot change the workload
TIME_CAP_MS = 1000
BUDGET_EDGES = 40

PLANE_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13)
PENCIL_SIZES = (21, 57, 91, 133, 183)
# random_bounded_codegree(seed, n=14, t=2, sizes 2..4, density=40) for these
# generator seeds has chi' = Delta, yet the oracle hits any cap up to 20 s
HARD_GENERATOR_SEEDS = (0, 4)


@dataclass(frozen=True)
class Expect:
    """What a correct report must show.

    kind is 'colour' (a colouring from uniform:k lists, or a failure value),
    'chi' (chromatic index within [lower, upper], equal to pinned when
    known), 'list' (uniform:k list colourability; pinned True/False/None)
    or 'classify' (the construction, given as kind name and order).
    """

    kind: str
    k: int | None = None
    lower: int | None = None
    upper: int | None = None
    pinned: object = None
    family: str | None = None
    order: int | None = None
    t: int | None = None


@dataclass(frozen=True)
class Op:
    index: int
    instance: str
    args: tuple[str, ...]  # CLI arguments after "--in <file>"
    subcommand: str
    expect: Expect

    def argv(self, path: str) -> list[str]:
        return [self.subcommand, "--in", path, *self.args]

    def label(self) -> str:
        return " ".join([self.subcommand, "--in", self.instance, *self.args])


@dataclass
class Corpus:
    instances: dict[str, Hypergraph]
    ops: list[Op]
    paths: dict[str, str] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def write(self, directory: str) -> None:
        """Write one .hg file per instance and record its sha256."""
        os.makedirs(directory, exist_ok=True)
        for name, h in self.instances.items():
            text = f"{h.n} {h.m}\n" + "".join(
                " ".join(map(str, e)) + "\n" for e in h.edges
            )
            data = text.encode()
            path = os.path.join(directory, f"{name}.hg")
            with open(path, "wb") as fh:
                fh.write(data)
            self.paths[name] = path
            self.digests[name] = hashlib.sha256(data).hexdigest()


def relabel(h: Hypergraph, rng: random.Random) -> Hypergraph:
    """An isomorphic copy under a random vertex permutation."""
    perm = list(range(h.n))
    rng.shuffle(perm)
    return Hypergraph(h.n, [[perm[v] for v in e] for e in h.edges])


class _Collector:
    def __init__(self):
        self.instances: dict[str, Hypergraph] = {}
        self.ops: list[Op] = []

    def add(self, name: str, h: Hypergraph) -> None:
        self.instances[name] = h

    def op(self, instance: str, subcommand: str, args: list[str], expect: Expect) -> None:
        self.ops.append(
            Op(len(self.ops), instance, tuple(args), subcommand, expect)
        )

    def corpus(self) -> Corpus:
        return Corpus(self.instances, self.ops)


def _random(b: _Collector, rng: random.Random) -> None:
    # edge sizes 2..4 keep every edge small (only the 'sml' stage runs);
    # sizes up to 12 make medium edges, where the stability rung fails
    for n in range(20, 201, 20):
        for top, copy in ((4, 0), (4, 1), (12, 0), (12, 1)):
            params = GeneratorParams(
                seed=rng.getrandbits(32), n=n, t=2, size_range=(2, top), density=3 * n
            )
            name = f"rand-n{n}-s{top}-{copy}"
            b.add(name, gen.random_bounded_codegree(params))
            k = 2 * n
            b.op(name, "color", ["--t", "2", "--lists", f"uniform:{k}"], Expect("colour", k=k))


def _extremal(b: _Collector, rng: random.Random) -> None:
    bases = [(f"plane-q{q}", "plane", q, gen.projective_plane(q)) for q in PLANE_ORDERS]
    bases += [(f"pencil-n{n}", "pencil", n, gen.near_pencil(n)) for n in PENCIL_SIZES]
    for t in (1, 2):
        for base_name, family, order, base in bases:
            name = f"{base_name}-t{t}"
            h = relabel(gen.t_fold(base, t), rng)
            b.add(name, h)
            k = t * h.n
            lists = ["--t", str(t), "--lists", f"uniform:{k}"]
            b.op(name, "color", lists, Expect("colour", k=k))
            b.op(name, "color", [*lists, "--mode", "extremal"], Expect("colour", k=k))
            b.op(
                name,
                "classify",
                ["--t", str(t)],
                Expect("classify", family=family, order=order, t=t),
            )


def _chi_expect(h: Hypergraph, pinned: int | None = None) -> Expect:
    lower, upper = max_degree(h.n, h.edges), greedy_bound(h.n, h.edges)
    if pinned is None and lower == upper:
        pinned = lower
    return Expect("chi", lower=lower, upper=upper, pinned=pinned)


def _oracle(b: _Collector, rng: random.Random) -> None:
    budget = ["--budget-edges", str(BUDGET_EDGES), "--time-cap-ms", str(TIME_CAP_MS)]
    # pairwise-intersecting families: chi' = m, and uniform:k lists work iff
    # k >= m, so k = m - 1 is a pigeonhole "no"
    structured = [
        ("fano-t1", gen.t_fold(gen.projective_plane(2), 1)),
        ("fano-t2", gen.t_fold(gen.projective_plane(2), 2)),
        ("pencil-n4-t2", gen.t_fold(gen.near_pencil(4), 2)),
        ("pencil-n5-t2", gen.t_fold(gen.near_pencil(5), 2)),
        ("pencil-n6-t1", gen.t_fold(gen.near_pencil(6), 1)),
    ]
    for name, base in structured:
        h = relabel(base, rng)
        b.add(name, h)
        b.op(name, "exact", budget, _chi_expect(h, pinned=h.m))
        for k in (h.m, h.m - 1):
            b.op(
                name,
                "exact",
                [*budget, "--lists", f"uniform:{k}"],
                Expect("list", k=k, pinned=k >= h.m),
            )
    for gen_seed in HARD_GENERATOR_SEEDS:
        params = GeneratorParams(seed=gen_seed, n=14, t=2, size_range=(2, 4), density=40)
        name = f"hard-g{gen_seed}"
        h = relabel(gen.random_bounded_codegree(params), rng)
        b.add(name, h)
        b.op(name, "exact", budget, _chi_expect(h))
    # random instances whose chromatic index the benchmark can pin on its
    # own (max degree equals its greedy bound); densities up to 24 keep the
    # oracle well inside its cap, so the seed does not move the refusal share
    found = 0
    while found < 6:
        params = GeneratorParams(
            seed=rng.getrandbits(32),
            n=rng.randint(10, 14),
            t=2,
            size_range=(2, 4),
            density=rng.randint(20, 24),
        )
        h = gen.random_bounded_codegree(params)
        expect = _chi_expect(h)
        if expect.pinned is None:
            continue
        name = f"rand-{found}-n{params.n}-d{params.density}"
        b.add(name, h)
        b.op(name, "exact", budget, expect)
        found += 1


def build(workload: str, seed: int) -> Corpus:
    """The corpus of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    b = _Collector()
    rng = random.Random(f"{workload}:{seed}")
    {"random": _random, "extremal": _extremal, "oracle": _oracle}[workload](b, rng)
    return b.corpus()
