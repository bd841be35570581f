"""Span tracing around the package's layer functions, installed from outside.

``Tracer.install`` wraps each function in ``LAYERS`` and patches the wrapper
into its defining module and into every ``hyperchrom`` module that imported
the name, so calls through either path are seen; ``uninstall`` puts the
originals back.  Spans (id, parent id, name, start, end, op id) stay in
memory until the run writes them out.  A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# module -> functions; the metric prefix drops a leading underscore so every
# metric name starts with a letter
LAYERS = {
    "cli": ("main", "parse_hg"),
    "generators": ("projective_plane", "near_pencil", "t_fold", "random_bounded_codegree"),
    "hypercore": ("line_graph", "neighbourhoods", "predicates", "degree_stats", "validate_colouring"),
    "ordering": ("reorder", "partition_stability", "partition_extremal", "forward_degrees"),
    "pipeline": ("colour_main", "colour_stability", "reserve_colours", "colour_small", "colour_sparse_block"),
    "extremal": (
        "colour_extremal",
        "find_useful_family",
        "is_t_useful",
        "maximal_complement_matching",
        "colour_from_matching",
    ),
    "oracle": ("exact_chromatic_index", "exact_list_colourable"),
    "_kernel_py": ("solve_chromatic",),
    "_matching": ("max_matching",),
    "characterize": ("classify_extremal", "intersecting_bound", "debruijn_erdos_check"),
}

# functions that can return a failure value, and so get a '.failed' count
FAILING = {
    "pipeline.colour_main",
    "pipeline.colour_stability",
    "pipeline.reserve_colours",
    "pipeline.colour_small",
    "pipeline.colour_sparse_block",
    "extremal.colour_extremal",
    "extremal.colour_from_matching",
    "oracle.exact_chromatic_index",
    "oracle.exact_list_colourable",
    "kernel_py.solve_chromatic",
    "kernel.solve_chromatic",  # the compiled kernel, traced when importable
}


def layer_names() -> list[str]:
    return [f"{mod.lstrip('_')}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def is_failure(result) -> bool:
    """ColouringFailure, BudgetExceeded, status 'budget' or an unfinished kernel."""
    if isinstance(result, tuple) and result:
        if len(result) == 3 and isinstance(result[2], bool):
            return not result[2]  # kernel: (chi, colouring, completed)
        result = result[0]  # (outcome, report) pairs
    name = type(result).__name__
    if name in ("ColouringFailure", "BudgetExceeded"):
        return True
    if name == "PipelineRun":
        return not result.ok
    return getattr(result, "status", None) == "budget"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id: str = ""
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple] = []
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.failed: dict[tuple[str, str], int] = defaultdict(int)

    def _phase(self) -> str:
        return "setup" if self.op_id == "setup" else "pass"

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                key = (name, self._phase())
                self.calls[key] += 1
                self.self_s[key] += duration - frame[1]
                self.spans.append((span_id, parent, name, start, end, self.op_id))
            if name in FAILING and is_failure(result):
                self.failed[key] += 1
            return result

        return traced

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hyperchrom" or mod_name.startswith("hyperchrom.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        """Wrap every layer function, and the compiled kernel when it imports."""
        for mod_name, fns in LAYERS.items():
            mod = importlib.import_module(f"hyperchrom.{mod_name}")
            for fn in fns:
                original = getattr(mod, fn)
                self._patch_everywhere(original, self._wrap(f"{mod_name.lstrip('_')}.{fn}", original))
        try:
            compiled = importlib.import_module("hyperchrom._kernel")
        except ImportError:
            return
        original = compiled.solve_chromatic
        compiled.solve_chromatic = self._wrap("kernel.solve_chromatic", original)
        self._patches.append((compiled, "solve_chromatic", original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def metrics(self, passes: int) -> dict[str, float]:
        """Per function: one traced set-up plus the mean traced pass."""
        out = {}
        names = layer_names() + sorted({n for n, _ in self.calls} - set(layer_names()))
        for name in names:
            def per(table, name=name):
                return table[(name, "setup")] + table[(name, "pass")] / max(passes, 1)

            out[f"{name}.calls"] = per(self.calls)
            out[f"{name}.self_s"] = per(self.self_s)
            if name in FAILING:
                out[f"{name}.failed"] = per(self.failed)
        return out
