"""Independent checks of the CLI's JSON reports.

Nothing here calls the package: colourings are re-validated from the
instance's own edge lists, chromatic indices are held against the maximum
degree and a greedy bound computed here, and classifications against the
construction that made the instance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


# every stage name colour_main can report as failed
STAGES = (
    "stability:reserve",
    "stability:lrg-W",
    "stability:lrg-H2",
    "stability:lrg-H1",
    "stability:med",
    "stability:sml",
    "stability:validate",
    "main:reserve",
    "main:H3",
    "main:H2",
    "main:H1",
    "main:sml",
    "main:validate",
    "exact",
)


def _incidence(n: int, edges) -> list[list[int]]:
    inc: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        for v in e:
            inc[v].append(i)
    return inc


def max_degree(n: int, edges) -> int:
    """Delta(H): the edges through one vertex pairwise intersect."""
    return max((len(row) for row in _incidence(n, edges)), default=0)


def greedy_bound(n: int, edges) -> int:
    """Colours used by smallest-free-colour greedy, busiest edges first."""
    inc = _incidence(n, edges)
    nbrs = [set() for _ in edges]
    for row in inc:
        for i in row:
            nbrs[i].update(row)
    for i, s in enumerate(nbrs):
        s.discard(i)
    col: dict[int, int] = {}
    for i in sorted(range(len(edges)), key=lambda i: (-len(nbrs[i]), i)):
        taken = {col[j] for j in nbrs[i] if j in col}
        c = 0
        while c in taken:
            c += 1
        col[i] = c
    return max(col.values(), default=-1) + 1


def colouring_problems(n: int, edges, colouring: dict[int, int], k: int) -> list[str]:
    """Why ``colouring`` is not a proper colouring from uniform:k lists."""
    problems = []
    if set(colouring) != set(range(len(edges))):
        problems.append("colouring does not cover exactly the edges")
    for i, c in colouring.items():
        if not 0 <= c < k:
            problems.append(f"edge {i} colour {c} not in its list")
    for v, row in enumerate(_incidence(n, edges)):
        seen: dict[int, int] = {}
        for i in row:
            c = colouring.get(i)
            if c in seen:
                problems.append(f"edges {seen[c]} and {i} share vertex {v} and colour {c}")
            seen[c] = i
    return problems[:3]


@dataclass
class Outcome:
    """The checked result of one op."""

    solved: bool = False
    error: str | None = None
    refused: bool = False
    fingerprint: dict = field(default_factory=dict)
    pipeline_rung: str | None = None
    stages_failed: list[str] = field(default_factory=list)
    extremal_rungs: list[str] = field(default_factory=list)
    reserve_retries: list[int] = field(default_factory=list)


def _rung_number(text: str | None) -> str:
    """'3: useful family cover' -> '3'; no rung -> 'none'."""
    head = (text or "").split(":", 1)[0].strip()
    return head if head in {"1", "2", "3", "4", "5"} else "none"


def _read_stages(report: dict, out: Outcome) -> None:
    stages = report["certificates"]["stages"]
    by_name = {s["stage"]: s["status"] for s in stages}
    for rung, stage in (
        ("stability", "stability:validate"),
        ("main", "main:validate"),
        ("exact", "exact"),
    ):
        if by_name.get(stage) == "ok":
            out.pipeline_rung = rung
            break
    else:
        out.pipeline_rung = "none"
    for s in stages:
        if s["status"] == "failed":
            out.stages_failed.append(s["stage"])
        if s["stage"].endswith("reserve") and s["status"] == "ok":
            out.reserve_retries.append(int(s["detail"].rsplit("retries=", 1)[1]))
        if s["stage"] == "main:H3":
            if s["status"] == "ok":
                out.extremal_rungs.append(_rung_number(s["detail"].split("extremal rung:", 1)[1]))
            elif s["status"] == "failed":
                out.extremal_rungs.append("none")


def check(op, code: int | None, stdout: str, digest: str, h) -> Outcome:
    """Check one op's exit code and report against what the corpus expects."""
    out = Outcome()
    out.fingerprint = {
        "op": op.index,
        "command": op.label(),
        "sha256": digest,
        "exit": code,
        "colours_used": None,
        "failed_stage": None,
        "rung": None,
    }
    if code not in (0, 1):
        out.error = f"exit code {code}"
        return out
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        out.error = f"report is not JSON: {exc}"
        return out
    if report.get("input_digest") != digest:
        out.error = "input_digest differs from the file's sha256"
        return out
    out.fingerprint["colours_used"] = report.get("colours_used")
    exp = op.expect
    outcome = report.get("outcome")
    try:
        if exp.kind == "colour":
            _check_colour(op, code, report, h, out)
        elif exp.kind == "chi":
            _check_chi(code, report, exp, out)
        elif exp.kind == "list":
            _check_list(code, report, h, exp, out)
        else:
            _check_classify(code, report, h, exp, out)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        out.error = f"report shape: {type(exc).__name__}: {exc}"
    if out.error is None and exp.kind != "colour" and out.fingerprint["rung"] is None:
        out.fingerprint["rung"] = outcome if isinstance(outcome, str) else None
    return out


def _check_colour(op, code: int, report: dict, h, out: Outcome) -> None:
    outcome = report["outcome"]
    if "--mode" in op.args:
        rung = report["certificates"]["report"]["rung"]
        out.extremal_rungs.append(_rung_number(rung))
        out.fingerprint["rung"] = _rung_number(rung)
    else:
        _read_stages(report, out)
        out.fingerprint["rung"] = out.pipeline_rung
    if code == 1:
        out.fingerprint["failed_stage"] = outcome["stage"]
        return
    colouring = {int(e): c for e, c in outcome["colouring"].items()}
    problems = colouring_problems(h.n, h.edges, colouring, op.expect.k)
    if problems:
        out.error = "; ".join(problems)
    elif report["colours_used"] != len(set(colouring.values())):
        out.error = "colours_used disagrees with the colouring"
    else:
        out.solved = True


def _check_chi(code: int, report: dict, exp, out: Outcome) -> None:
    if code == 1:
        if report["outcome"] != "budget":
            out.error = f"exit 1 with outcome {report['outcome']!r}"
        out.refused = True
        return
    chi = report["certificates"]["chromatic_index"]
    if not exp.lower <= chi <= exp.upper:
        out.error = f"chi'={chi} outside [{exp.lower}, {exp.upper}]"
    elif exp.pinned is not None and chi != exp.pinned:
        out.error = f"chi'={chi}, pinned {exp.pinned}"
    else:
        out.solved = True


def _check_list(code: int, report: dict, h, exp, out: Outcome) -> None:
    status = report["outcome"]
    if status == "budget":
        out.refused = True
        return
    if status == "yes" and code == 0:
        witness = {int(e): c for e, c in report["certificates"]["witness"].items()}
        problems = colouring_problems(h.n, h.edges, witness, exp.k)
        if problems:
            out.error = "witness: " + "; ".join(problems)
        elif exp.pinned is False:
            out.error = "valid witness for a pinned 'no'"
        else:
            out.solved = True
    elif status == "no" and code == 1:
        if exp.pinned is True:
            out.error = "'no' for a pinned 'yes'"
        else:
            out.solved = exp.pinned is False
    else:
        out.error = f"status {status!r} with exit code {code}"


def _check_classify(code: int, report: dict, h, exp, out: Outcome) -> None:
    if code != 0 or report["outcome"] != "holds":
        out.error = f"edge-count bound reported {report['outcome']!r}"
        return
    kind = report["certificates"]["classification"]["kind"]
    out.fingerprint["rung"] = kind["type"]
    if exp.family == "plane":
        ok = kind == {"type": "TFoldProjectivePlane", "k": exp.order, "t": exp.t, "remark": ""}
    else:
        ok = kind.get("type") == "TFoldNearPencil" and kind.get("t") == exp.t
    if ok:
        out.solved = True
    else:
        out.error = f"classified as {kind}"
