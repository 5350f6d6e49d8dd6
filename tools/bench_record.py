"""Record paired benchmark runs of a parent commit and the working tree.

Run from the root of a checkout:

    python3 tools/bench_record.py --parent HEAD~1 --out BENCH_<n>.json \
        --workloads pool_replay --seeds 2..11 --seconds 30

For every workload, pair ``i`` runs ``ensbench/run.py --trace 0`` with the
``i``-th seed once on the parent and once on the working tree; the side that
goes first alternates from one pair to the next.  The parent is exported with
``git archive`` into a temporary directory outside the repository, which is
removed afterwards.  Each run's seed, order, version and environment lines,
``digest`` line and final JSON line go into the ``--out`` file together with
a summary per workload: each side's median and quartiles of every
end-to-end metric, the pairs the change won on it, and whether the digests
matched on every seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from ensopt.cli import UsageError, _parse_seeds  # noqa: E402

SIDES = ("parent", "change")


def parse_transcript(text: str) -> dict[str, Any]:
    """The recorded lines of one ``run.py`` transcript; ``ValueError`` if one is missing."""
    lines = text.strip().splitlines()
    found: dict[str, Any] = {}
    for line in lines:
        if line.startswith("ensbench ") and "header" not in found:
            found["header"] = line
        elif line.startswith("python ") and "environment" not in found:
            found["environment"] = line
        elif line.startswith("digest "):
            found["digest"] = line
    missing = [key for key in ("header", "environment", "digest") if key not in found]
    if missing or not lines:
        raise ValueError(f"transcript lacks {', '.join(missing) or 'a result line'}")
    found["result"] = json.loads(lines[-1])
    return found


def export_commit(rev: str, dest: str) -> str:
    """Write the tree of ``rev`` into ``dest``; return its full commit hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    return commit


def run_bench(root: str, workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """One ``run.py`` run in ``root``: its recorded lines, or its failure."""
    argv = [
        sys.executable, os.path.join("ensbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        return parse_transcript(proc.stdout)
    except ValueError as exc:
        return {"error": str(exc), "stderr": proc.stderr[-2000:]}


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict[str, Any]], better: dict[str, str]) -> dict[str, Any]:
    """Per workload: each side's quartiles per metric, pairs won, digest agreement."""
    summary: dict[str, Any] = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs: dict[int, dict[str, dict[str, Any]]] = {}
        for r in runs:
            if r["workload"] == workload and "result" in r:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        complete = [p for p in pairs.values() if len(p) == 2]
        entry: dict[str, Any] = {
            "pairs": len(complete),
            "failed_runs": sum(r["workload"] == workload and "result" not in r for r in runs),
            "digests_equal": all(p["parent"]["digest"] == p["change"]["digest"] for p in complete),
            "metrics": {},
        }
        for name, direction in better.items() if complete else ():
            values = {
                side: [p[side]["result"]["metrics"][name]["value"] for p in complete]
                for side in SIDES
            }
            sign = 1.0 if direction == "lower" else -1.0
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            entry["metrics"][name] = {
                **{side: _quartiles(values[side]) for side in SIDES},
                "change_wins": wins,
            }
        summary[workload] = entry
    return summary


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_<n>.json")
    parser.add_argument("--workloads", default="eo_default,batch_blobs,pool_replay")
    parser.add_argument("--seeds", default="1..10", help="one seed per pair: 2..11 or 1,4,7")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    try:
        args.seeds = _parse_seeds(args.seeds)
    except UsageError as exc:
        parser.error(str(exc))
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    record: dict[str, Any] = {"runs": []}
    scratch = tempfile.mkdtemp(prefix="bench_parent_")
    try:
        record["parent"] = export_commit(args.parent, scratch)
        record["change"] = "working tree on " + subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout.strip()
        roots = {"parent": scratch, "change": ROOT}
        for workload in args.workloads.split(","):
            for pair, seed in enumerate(args.seeds):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    run = run_bench(roots[side], workload, seed, args.seconds)
                    record["runs"].append(
                        {"workload": workload, "pair": pair, "seed": seed, "side": side,
                         "position": position, "seconds": args.seconds, **run}
                    )
                    wall = run.get("result", {}).get("metrics", {}).get("wall_s", {}).get("value")
                    print(f"{workload} pair {pair} seed {seed} {side}: wall_s {wall}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["summary"] = summarize(record["runs"], better)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
