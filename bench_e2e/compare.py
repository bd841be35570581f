"""Compare the outcome fingerprints of two benchmark result files.

    python3 bench_e2e/compare.py A.json B.json

A fingerprint holds, per op: the command, the instance's sha256, the exit
code, colours used, the failing stage and the ladder rung.  Two runs of the
same workload and seed show "same behaviour" when every fingerprint
matches.  Runs on different chromatic kernels are not compared.  Exit code
0: same behaviour; 1: fingerprints differ; 2: not comparable.
"""

from __future__ import annotations

import json
import sys


def compare(a: dict, b: dict) -> tuple[int, list[str]]:
    ka, kb = a["environment"]["kernel"], b["environment"]["kernel"]
    if ka != kb:
        return 2, [f"refusing to compare: kernels differ ({ka} vs {kb})"]
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        return 2, [
            f"refusing to compare: {a['workload']} seed {a['seed']} "
            f"vs {b['workload']} seed {b['seed']}"
        ]
    fa, fb = a["fingerprints"], b["fingerprints"]
    lines = []
    if len(fa) != len(fb):
        lines.append(f"op count differs: {len(fa)} vs {len(fb)}")
    for x, y in zip(fa, fb):
        if x != y:
            keys = sorted(k for k in x if x[k] != y.get(k))
            lines.append(
                f"op {x['op']} ({x['command']}): "
                + ", ".join(f"{k} {x[k]!r} -> {y.get(k)!r}" for k in keys)
            )
    return (1 if lines else 0), lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    code, lines = compare(*docs)
    for line in lines:
        print(line)
    if code == 0:
        print(f"same behaviour: {len(docs[0]['fingerprints'])} ops match")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
