"""Spans around the program's layer calls, recorded from outside the program.

`Tracer.install` replaces each traced function on the name its caller looks
up (for example `kknapsack.combiner.build_phi_L`, and both
`kknapsack.preprocessing.half_approx_opt`, reached from `build_partition`,
and `kknapsack.combiner.half_approx_opt`, reached from exactly-K mode) with a
wrapper that records a span; `uninstall` puts the originals back. Spans are
kept in memory as [name, start, end, parent span, solve id, info] and turned
into per-layer metrics by `layer_metrics`.

A span's self time is its duration minus the time its direct child spans
cover. Calls that are not wrapped, such as the `upsilon1` LP inside the
estimate, are charged to the nearest wrapped caller.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import kknapsack
import kknapsack.combiner
import kknapsack.preprocessing
import kknapsack.small_items

NAME, START, END, PARENT, SOLVE, INFO = range(6)

# Span name -> the per-layer time metric its self time is charged to.
SELF_TIME_METRIC = {
    "half_approx_opt": "estimate.self_s",
    "build_partition": "partition.self_s",
    "build_phi_L": "fold.self_s",
    "retrieve_items": "retrieve.self_s",
    "solver_for_partition": "small.build_s",
    "register_query_weights": "small.register_s",
    "phi_dag": "small.query_s",
    "eval_detail": "small.detail_s",
    "solve_with_details": "combiner.self_s",
    "validate_instance": "model.self_s",
    "make_solution": "model.self_s",
    "evaluate_solution": "model.self_s",
}

# Per-layer metrics, name -> unit, in the order they are reported.
LAYER_METRICS = {
    "estimate.self_s": "s",
    "estimate.calls": "count",
    "partition.self_s": "s",
    "partition.large_classes": "count",
    "partition.small_items": "count",
    "partition.discarded": "count",
    "fold.self_s": "s",
    "fold.cells": "count",
    "fold.stage_bytes": "bytes",
    "retrieve.self_s": "s",
    "small.build_s": "s",
    "small.register_s": "s",
    "small.query_s": "s",
    "small.detail_s": "s",
    "small.queries": "count",
    "small.distinct_queries": "count",
    "small.exact_pools": "count",
    "small.float_pools": "count",
    "combiner.self_s": "s",
    "combiner.splits": "count",
    "combiner.split_ratio": "ratio",
    "exactk.rounds": "count",
    "exactk.grid_m": "count",
    "model.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def _partition_info(partition) -> dict:
    return {
        "large_classes": len(partition.large_classes),
        "small_items": partition.small_item_count,
        "discarded": len(partition.discarded),
    }


def _table_info(table) -> dict:
    """Fold size of a finished table. `stage_bytes` is computed, not
    measured: the bytes of the value and backpointer arrays held by the table
    and its `stage.prev` chain (list-backed exact cells counted at 8 B)."""
    grid = table.grid
    cells_per_class = (grid.m + 1) * (grid.z + 1)
    classes = stage_bytes = 0
    t = table
    while t is not None:
        values = t.values
        stage_bytes += values.nbytes if hasattr(values, "nbytes") else 8 * cells_per_class
        stage_bytes += t.backptr.nbytes if t.backptr is not None else 0
        if t.stage is None:
            break
        classes += 1
        t = t.stage.prev
    return {
        "cells": classes * cells_per_class,
        "stage_bytes": stage_bytes,
        "split_slots": (grid.z + 1) * len(grid.anchor_indices()),
    }


def _details_info(details) -> dict:
    if not details.get("exact_mode"):
        return {}
    final = details.get("final") or {}
    return {"rounds": len(details["rounds"]), "grid_m": final.get("grid_m", 0)}


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.solve_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.solve_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, result)
            return result

        return wrapper

    def install(self) -> None:
        combiner, prep, solver_cls = (
            kknapsack.combiner,
            kknapsack.preprocessing,
            kknapsack.small_items.SmallSolver,
        )
        # Each info callback gets (call args, result) and returns the span's counters.
        targets = [
            (kknapsack, "solve_with_details", lambda _, r: _details_info(r[1])),
            (combiner, "validate_instance", None),
            (combiner, "make_solution", None),
            (combiner, "evaluate_solution", None),
            (combiner, "half_approx_opt", None),
            (prep, "half_approx_opt", None),
            (combiner, "build_partition", lambda _, r: _partition_info(r)),
            (combiner, "build_phi_L", lambda _, r: _table_info(r)),
            (combiner, "retrieve_items", None),
            (combiner, "solver_for_partition", lambda _, r: {"exact": bool(r.exact)}),
            (solver_cls, "register_query_weights", lambda a, _: {"count": len(a[1])}),
            (solver_cls, "phi_dag", lambda a, _: {"key": (Fraction(a[1]), int(a[2]))}),
            (solver_cls, "eval_detail", None),
        ]
        for owner, attr, info in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(attr, original, info))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, traced_wall_s: float, untraced_wall_s: float, solves: int) -> dict:
        """Per-layer metrics, each the mean per traced solve, except
        `trace.coverage` (self times over traced wall time) and
        `combiner.split_ratio` (a ratio of totals)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        totals: dict[str, float] = defaultdict(float)
        self_total = 0.0
        split_slots = 0
        pools_seen = 0
        distinct: set = set()
        fold_bytes: dict[int, int] = {}
        for i, s in enumerate(spans):
            name, info = s[NAME], s[INFO] or {}
            self_s = s[END] - s[START] - child_time[i]
            self_total += self_s
            totals[SELF_TIME_METRIC[name]] += self_s
            if name == "half_approx_opt":
                totals["estimate.calls"] += 1
            elif name == "build_partition" and info:
                for key, value in info.items():
                    totals[f"partition.{key}"] += value
            elif name == "build_phi_L" and info:
                totals["fold.cells"] += info["cells"]
                split_slots += info["split_slots"]
                solve = s[SOLVE]
                fold_bytes[solve] = max(fold_bytes.get(solve, 0), info["stage_bytes"])
            elif name == "solver_for_partition" and info:
                pools_seen += 1
                totals["small.exact_pools" if info["exact"] else "small.float_pools"] += 1
            elif name == "register_query_weights" and info:
                if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "solve_with_details":
                    totals["combiner.splits"] += info["count"]
            elif name == "phi_dag" and info:
                totals["small.queries"] += 1
                distinct.add((s[SOLVE], pools_seen, info["key"]))
            elif name == "solve_with_details" and info:
                totals["exactk.rounds"] += info["rounds"]
                totals["exactk.grid_m"] += info["grid_m"]
        totals["small.distinct_queries"] = len(distinct)
        totals["fold.stage_bytes"] = sum(fold_bytes.values())
        metrics = {name: totals.get(name, 0.0) / solves for name in LAYER_METRICS}
        metrics["combiner.split_ratio"] = (
            totals["combiner.splits"] / split_slots if split_slots else 0.0
        )
        metrics["trace.coverage"] = self_total / traced_wall_s
        metrics["trace.overhead_s"] = (traced_wall_s - untraced_wall_s) / solves
        return metrics

    def dump(self) -> list:
        """Spans as JSON-ready rows (the `info` payloads are dropped)."""
        return [s[:INFO] for s in self.spans]
