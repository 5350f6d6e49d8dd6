"""Closed-loop benchmark of ensopt: one client, one operation at a time.

Run from the root of a checkout:

    python3 ensbench/run.py --workload eo_default --seed 1 --seconds 30 --trace 0

The workload's inputs come from ``--seed``.  Set-up (input generation plus
a small warm-up operation of the same kind) runs five times and its median
is ``setup_s``.  Then operations run back to back, each checked, until the
next one would end after ``--seconds``; at least one always runs.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics.  With ``--trace 1`` pairs of one untraced and one
traced operation run for ``--seconds``, and the JSON holds the per-layer
split derived from spans recorded around calls into each ensopt module,
plus the tracing overhead, each the median over the pairs.
Human-readable lines (versions, per-operation figures, tail percentiles,
test error, failure share and the output digest) come before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import metrics
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".ensbench_work")
WORKLOAD_NAMES = ("eo_default", "batch_blobs", "pool_replay")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5


@dataclass
class OpRecord:
    wall: float
    cpu: float
    ok: bool
    digest: str = ""
    test_error: float = float("nan")
    input: int = 0


def timed(fn: Callable[[], Any]) -> tuple[Any, float, float]:
    """(result, wall seconds, CPU seconds of this process and its children)."""

    def cpu() -> float:
        me = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime

    c0, t0 = cpu(), time.perf_counter()
    value = fn()
    t1, c1 = time.perf_counter(), cpu()
    return value, t1 - t0, c1 - c0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any of its finished children."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def run_op(workload, op: Callable[[], int], reference: str | None) -> OpRecord:
    """One checked operation; a nonzero exit or a failed check marks it failed."""
    from workloads import fresh_dir

    fresh_dir(workload.out)
    try:
        rc, wall, cpu = timed(op)
        outcome = workload.check()
    except Exception:  # an operation that raises is a failure, not a crash
        traceback.print_exc(file=sys.stderr)
        return OpRecord(0.0, 0.0, False, input=workload.current)
    problems = list(outcome.problems)
    if rc != 0:
        problems.append(f"exit code {rc}")
    if reference is not None and outcome.digest != reference:
        problems.append("outputs differ from an earlier operation on the same input")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return OpRecord(wall, cpu, not problems, outcome.digest, outcome.test_error, workload.current)


def run_setups(workload) -> tuple[list[float], bool]:
    """Set up ``SETUP_REPEATS`` times; the warm-up outputs must repeat exactly."""
    times, digests = [], []
    for _ in range(SETUP_REPEATS):
        digest, wall, _ = timed(workload.setup)
        times.append(wall)
        digests.append(digest)
    same = len(set(digests)) == 1
    if not same:
        print("check failed: warm-up outputs differ across set-ups", file=sys.stderr)
    return times, same


def timed_ops(workload, seconds: float) -> list[OpRecord]:
    ops: list[OpRecord] = []
    start = time.perf_counter()
    while True:
        workload.current = len(ops) % workload.inputs
        reference = next((o.digest for o in ops if o.ok and o.input == workload.current), None)
        ops.append(run_op(workload, workload.op, reference))
        typical = statistics.median(o.wall for o in ops)
        if time.perf_counter() - start + typical > seconds:
            return ops


def describe_ops(workload, ops: list[OpRecord]) -> dict[str, float]:
    good = [o for o in ops if o.ok] or ops
    walls = [o.wall for o in good]
    tail = metrics.tail_percentile(len(walls))
    tail_text = (
        f"p{tail:g} {metrics.percentile(walls, tail):.4f} s"
        if tail is not None
        else f"no tail percentile (needs {2 * metrics.MIN_BEYOND}+ samples)"
    )
    wall = statistics.median(walls)
    print(f"wall_s median {wall:.4f} s, {tail_text}, n={len(walls)}")
    failed = sum(not o.ok for o in ops)
    print(f"fail_frac {failed / len(ops):.4f} fraction ({failed} of {len(ops)} operations)")
    print(f"test_error {statistics.median(o.test_error for o in good):.6f} fraction")
    digests = sorted({o.digest for o in ops if o.digest})
    print(f"digest {workload.name} sha256={','.join(digests) or 'none'}")
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(o.cpu for o in good),
        "models_per_s": metrics.models_per_s(workload.models, wall),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_pair(workload, traced_first: bool) -> tuple[list[OpRecord], dict[str, float]]:
    """One untraced and one traced operation; returns the per-layer split.

    The order alternates between pairs, so warming effects do not bias the
    overhead one way.
    """
    from workloads import degenerate_fraction

    tracer = tracing.Tracer()
    for traced_step in (traced_first, not traced_first):
        if traced_step:
            with tracing.installed(tracer):
                traced = run_op(workload, workload.traced_op, None)
            degenerate = degenerate_fraction(workload.out)
        else:
            untraced = run_op(workload, workload.op, None)
            base = timed(workload.probe)[1] if workload.probe_span else untraced.wall
    spans = tracer.spans
    problems = metrics.nesting_problems(spans)
    if traced.digest != untraced.digest:
        problems.append("traced outputs differ from untraced ones")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    traced.ok = traced.ok and not problems
    if workload.probe_span:
        unit = next((s.duration for s in spans if s.name == workload.probe_span), traced.wall)
    else:
        unit = traced.wall
    layers = metrics.layer_metrics(spans)
    layers["cli.batch_util"] = metrics.batch_util(untraced.cpu, untraced.wall, workload.jobs)
    layers["optimizer.degenerate_frac"] = degenerate
    layers["trace.overhead_s"] = unit - base
    print(
        f"pair: untraced op {untraced.wall:.4f} s, traced op {traced.wall:.4f} s, "
        f"overhead {unit - base:.4f} s on a {base:.4f} s unit, {len(spans)} spans"
    )
    return [untraced, traced], layers


def traced_metrics(workload, seconds: float) -> tuple[list[OpRecord], dict[str, float]]:
    """Untraced/traced pairs until ``seconds`` would pass; per-metric medians."""
    ops: list[OpRecord] = []
    pairs: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        pair_ops, layers = traced_pair(workload, traced_first=len(pairs) % 2 == 1)
        ops += pair_ops
        pairs.append(layers)
        per_pair = (time.perf_counter() - start) / len(pairs)
        if time.perf_counter() - start + per_pair > seconds:
            return ops, {k: statistics.median(p[k] for p in pairs) for k in pairs[0]}


def environment(jobs: int) -> str:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    return (
        f"python {platform.python_version()} numpy {numpy.__version__} "
        f"scipy {scipy.__version__} blas {blas_text} "
        f"cpus {len(os.sched_getaffinity(0))} jobs {jobs} "
        + " ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
    )


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ensopt", "__init__.py")):
        print(f"ensbench: no ensopt sources under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread per process, for this process and every worker it forks
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, fresh_dir

    workload = WORKLOADS[args.workload](args.seed, fresh_dir(os.path.join(WORK, args.workload)))
    print(f"ensbench {args.workload} seed={args.seed} trace={args.trace}")
    print(environment(workload.jobs))
    setups, warm_same = run_setups(workload)
    print("setup runs " + " ".join(f"{t:.4f}" for t in setups))
    if args.trace:
        ops, values = traced_metrics(workload, args.seconds)
        units = metrics.LAYER_UNITS
    else:
        ops = timed_ops(workload, args.seconds)
        for i, o in enumerate(ops):
            print(f"op {i + 1}: wall {o.wall:.4f} s cpu {o.cpu:.4f} s ok={o.ok}")
        values = {"setup_s": statistics.median(setups), **describe_ops(workload, ops)}
        units = {
            "setup_s": "s",
            "wall_s": "s",
            "cpu_s": "s",
            "models_per_s": "1/s",
            "peak_rss_mb": "MB",
        }
    for name, unit in units.items():
        print(f"{name} {values[name]} {unit}")
    failed = sum(not o.ok for o in ops)
    result = {
        "correct": warm_same and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
