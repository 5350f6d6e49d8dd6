"""Arithmetic behind the reported figures: percentiles, ratios, layer split."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Sequence

from tracing import Span, self_times

# Percentiles tried for a tail figure, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 50.0)
MIN_BEYOND = 10

ALGORITHMS = ("knn", "tree", "gnb", "linear")

# Per-layer metrics of a traced run, with units.  A ``*_s`` figure is the
# summed self time of that layer's spans (its duration minus the time its
# traced children cover), except where noted in ``layer_metrics``.
LAYER_UNITS: dict[str, str] = {
    "surrogate.slice_s": "s",
    "surrogate.slice_calls": "count",
    "surrogate.fit_s": "s",
    "surrogate.fit_calls": "count",
    "surrogate.predict_s": "s",
    "surrogate.predict_calls": "count",
    "surrogate.predict_rows": "count",
    "acquisition.next_point_s": "s",
    "acquisition.self_s": "s",
    "learners.train_s": "s",
    "learners.predict_s": "s",
    "learners.train_calls": "count",
    **{f"learners.train_s.{a}": "s" for a in ALGORITHMS},
    "data.cv_s": "s",
    "data.cv_calls": "count",
    "data.load_csv_s": "s",
    "cli.batch_util": "fraction",
    "cli.execute_run_s": "s",
    "ensemble.greedy_s": "s",
    "ensemble.observation_vector_s": "s",
    "ensemble.round_robin_s": "s",
    "ensemble.candidates": "count",
    "artifact.save_s": "s",
    "artifact.load_s": "s",
    "artifact.bytes_written": "B",
    "artifact.bytes_read": "B",
    "optimizer.val_matrix_s": "s",
    "optimizer.val_matrix_calls": "count",
    "optimizer.iter_s.p50": "s",
    "optimizer.iter_s.p80": "s",
    "optimizer.evaluate_s": "s",
    "optimizer.degenerate_frac": "fraction",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% at or below it."""
    ordered = sorted(values)
    rank = max(math.ceil(p / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile that leaves at least ``MIN_BEYOND`` samples above it."""
    for p in PERCENTILE_LADDER:
        if n - max(math.ceil(p / 100.0 * n), 1) >= MIN_BEYOND:
            return p
    return None


def batch_util(cpu_s: float, wall_s: float, jobs: int) -> float:
    """Share of ``jobs`` processors an operation kept busy."""
    return cpu_s / (wall_s * jobs)


def models_per_s(models: int, wall_s: float) -> float:
    return models / wall_s


def iteration_intervals(spans: Sequence[Span]) -> list[float]:
    """Time from the start of one evaluator call to the start of the next.

    Intervals are taken within one optimization run (evaluator calls that
    share an enclosing span); the last call of a run has no successor.
    """
    starts: dict[int, list[float]] = defaultdict(list)
    for s in spans:
        if s.name == "optimizer.evaluate":
            starts[s.parent].append(s.start)
    out = []
    for group in starts.values():
        group.sort()
        out += [b - a for a, b in zip(group, group[1:])]
    return out


def layer_metrics(spans: Sequence[Span]) -> dict[str, float]:
    """Every span-derived entry of ``LAYER_UNITS``."""
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attr: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, selfs):
        self_s[s.name] += own
        total_s[s.name] += s.duration
        calls[s.name] += 1
        if s.name == "learners.train":
            self_s["learners.train." + s.attrs["algo"]] += own
        for key in ("rows", "candidates", "bytes"):
            if key in s.attrs:
                attr[f"{s.name}.{key}"] += s.attrs[key]
    intervals = iteration_intervals(spans)
    out = {
        "surrogate.slice_s": self_s["surrogate.slice"],
        "surrogate.slice_calls": calls["surrogate.slice"],
        "surrogate.fit_s": self_s["surrogate.fit"],
        "surrogate.fit_calls": calls["surrogate.fit"],
        "surrogate.predict_s": self_s["surrogate.predict"],
        "surrogate.predict_calls": calls["surrogate.predict"],
        "surrogate.predict_rows": attr["surrogate.predict.rows"],
        # next_point with its surrogate.predict children; self_s without them
        "acquisition.next_point_s": total_s["acquisition.next_point"],
        "acquisition.self_s": self_s["acquisition.next_point"],
        "learners.train_s": self_s["learners.train"],
        "learners.predict_s": self_s["learners.predict"],
        "learners.train_calls": calls["learners.train"],
        **{f"learners.train_s.{a}": self_s["learners.train." + a] for a in ALGORITHMS},
        "data.cv_s": self_s["data.cv"],
        "data.cv_calls": calls["data.cv"],
        "data.load_csv_s": self_s["data.load_csv"],
        "cli.execute_run_s": self_s["cli.execute_run"],
        "ensemble.greedy_s": self_s["ensemble.greedy"],
        "ensemble.observation_vector_s": self_s["ensemble.observation_vector"],
        "ensemble.round_robin_s": self_s["ensemble.round_robin"],
        "ensemble.candidates": sum(
            attr[f"ensemble.{n}.candidates"]
            for n in ("greedy", "observation_vector", "round_robin")
        ),
        "artifact.save_s": self_s["artifact.save"],
        "artifact.load_s": self_s["artifact.load"],
        "artifact.bytes_written": attr["artifact.save.bytes"],
        "artifact.bytes_read": attr["artifact.load.bytes"],
        "optimizer.val_matrix_s": self_s["optimizer.val_matrix"],
        "optimizer.val_matrix_calls": calls["optimizer.val_matrix"],
        "optimizer.iter_s.p50": percentile(intervals, 50.0) if intervals else 0.0,
        "optimizer.iter_s.p80": percentile(intervals, 80.0) if intervals else 0.0,
        # the evaluator call with everything it trains
        "optimizer.evaluate_s": total_s["optimizer.evaluate"],
        "trace.spans": len(spans),
    }
    return out


def nesting_problems(spans: Sequence[Span]) -> list[str]:
    """Spans whose parent is not the layer that should have called them."""
    expected = {
        "surrogate.predict": "acquisition.next_point",
        "learners.train": "data.cv",
        "learners.predict": "data.cv",
    }
    problems = []
    for name, parent in expected.items():
        stray = sum(
            1
            for s in spans
            if s.name == name and (s.parent < 0 or spans[s.parent].name != parent)
        )
        if stray:
            problems.append(f"{stray} {name} spans not nested in {parent}")
    return problems
