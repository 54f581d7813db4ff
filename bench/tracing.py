"""Spans around the public functions of stablerank, recorded from outside.

`Tracer.install` replaces every public function of the library's layers at
every module binding that refers to it (``stablerank.torus_rank``,
``stablerank.tensors.torus_rank``, ``stablerank.verify.torus_rank``, ...)
with one wrapper that records a span: name, start, end, parent, and a few
counts read off the arguments or the result at the boundary. Nothing in the
library changes; internal calls are caught because they go through the
wrapped module globals. Spans stay in memory until `layer_metrics` or `dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types

LAYERS = ("exactlp", "tensors", "ideals", "fileformat", "verify", "cli")


def _lp_minimize_info(bound, result):
    program = bound.arguments["program"]
    rows = len(program.constraint_rows) + len(program.equality_rows)
    dual = not program.equality_rows and all(c >= 0 for c in program.objective)
    return {"route": "dual" if dual else "two_phase",
            "cells": rows * program.num_variables}


def _lp_feasible_info(bound, result):
    args = bound.arguments
    rows = len(args["constraint_rows"]) + len(args.get("equality_rows", ()))
    widths = [len(r) for r in args["constraint_rows"]]
    widths += [len(r) for r in args.get("equality_rows", ())]
    return {"route": "two_phase", "cells": rows * (widths[0] if widths else 0)}


def _parse_info(bound, result):
    return {"bytes": len(bound.arguments["text"].encode("utf-8"))}


# Counts read at the boundary, keyed by span name. The feasibility rows are
# materialised before the call so that counting them cannot consume an
# iterator the library is about to read.
_INFO = {
    "exactlp.lp_minimize": _lp_minimize_info,
    "exactlp.lp_feasible": _lp_feasible_info,
    "tensors.expand_symmetric": lambda bound, result: {"tuples": len(result.tuples)},
    "ideals.apply_linear_change": lambda bound, result: {"terms": len(result.terms)},
    "fileformat.parse_input": _parse_info,
    "verify.run_suite": lambda bound, result: {"checks": len(result)},
}
_MATERIALISE = {"exactlp.lp_feasible": ("constraint_rows", "rhs", "equality_rows", "equality_rhs")}


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = True
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float) -> None:
        """A top-level span the caller timed itself (the command's import)."""
        self.spans.append([name, start, end, -1, {}])

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index, info):
        self.spans[index][2] = time.perf_counter()
        self.spans[index][4] = info
        self._stack.pop()

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        info_of = _INFO.get(name)
        materialise = _MATERIALISE.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            for key in materialise:
                if key in bound.arguments:
                    bound.arguments[key] = list(bound.arguments[key])
            index = self._open(name)
            try:
                result = fn(*bound.args, **bound.kwargs)
            except BaseException:
                self._close(index, {"error": True})
                raise
            self._close(index, info_of(bound, result) if info_of else {})
            return result

        return traced

    def install(self) -> None:
        """Wrap each public layer function at every binding in the loaded
        modules of stablerank."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "stablerank" or key.startswith("stablerank."))]
        public = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if layer in LAYERS:
                for fname in getattr(module, "__all__", ()):
                    fn = getattr(module, fname, None)
                    if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                        public[fn] = self.wrap(f"{layer}.{fname}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in public:
                    setattr(module, attr, public[value])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], scale=lambda start: 1.0) -> dict[str, float]:
    """Per-layer totals over one traced pass (times in seconds, counts exact).

    A solve's route is set by the lp_minimize or lp_feasible call inside it;
    `exactlp.dual_s` and `exactlp.two_phase_s` sum the time spent in the
    outermost exactlp span of each solve, split by that route. Each span's
    time is multiplied by `scale(start)`."""
    own = [t * scale(span[1]) for t, span in zip(self_times(spans), spans)]
    layer_of = [name.partition(".")[0] for name, *_ in spans]
    route = [None] * len(spans)
    for i, (name, _, _, parent, info) in enumerate(spans):
        if "route" in info:
            j = i
            while parent >= 0 and layer_of[parent] == "exactlp":
                j = parent
                parent = spans[parent][3]
            route[j] = info["route"]
    out = {key: 0.0 for key in (
        "exactlp.dual_s", "exactlp.two_phase_s", "tensors.self_s", "tensors.expand_s",
        "ideals.self_s", "ideals.change_s", "fileformat.parse_s", "fileformat.serialize_s",
        "verify.suite_s")}
    counts = {key: 0 for key in (
        "exactlp.solves", "exactlp.program_cells", "tensors.expanded_tuples",
        "ideals.change_terms", "fileformat.parse_bytes", "verify.checks")}
    for i, (name, start, end, parent, info) in enumerate(spans):
        layer = layer_of[i]
        duration = (end - start) * scale(start)
        if layer == "exactlp":
            if route[i] is not None:
                out[f"exactlp.{route[i]}_s"] += duration
            if "route" in info:
                counts["exactlp.solves"] += 1
                counts["exactlp.program_cells"] += info["cells"]
        elif layer in ("tensors", "ideals"):
            out[f"{layer}.self_s"] += own[i]
        if name == "tensors.expand_symmetric":
            out["tensors.expand_s"] += duration
            counts["tensors.expanded_tuples"] += info.get("tuples", 0)
        elif name == "ideals.apply_linear_change":
            out["ideals.change_s"] += duration
            counts["ideals.change_terms"] += info.get("terms", 0)
        elif name == "fileformat.parse_input":
            out["fileformat.parse_s"] += duration
            counts["fileformat.parse_bytes"] += info.get("bytes", 0)
        elif name == "fileformat.serialize":
            out["fileformat.serialize_s"] += duration
        elif name == "verify.run_suite":
            out["verify.suite_s"] += duration
            counts["verify.checks"] += info.get("checks", 0)
    out.update(counts)
    return out
