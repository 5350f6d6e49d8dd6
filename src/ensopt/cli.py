"""Command-line front end.

Four sub-commands: ``run`` executes one optimization run from a JSON config,
``post`` rebuilds greedy ensembles from a saved run directory, ``compare``
applies the statistical protocol to a results CSV, and ``batch`` repeats a
run over many seeds and collects a results CSV.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import artifact as artifact_io
from .data import DataError, load_csv, make_split, merge_with_test
from .ensemble import zero_one_ensemble_loss
from .hyperspace import load_space
from .learners import ALGORITHMS, default_space
from .optimizer import (
    CrossValEvaluator,
    SearchSettings,
    evaluate_on_test,
    post_hoc,
    run_bo,
    run_eo,
    select_best,
)
from .stats import (
    ResultTable,
    average_errors,
    friedman,
    nemenyi_cd,
    pairwise_report,
    rank_groups,
    rankdata,
)
from .surrogate import NumericalError

METHODS = ("bo-best", "bo-post", "eo", "eo-post")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# effort knobs a config may set, with the smallest value each accepts
GP_KNOBS = {"burn_in": 0, "gp_samples": 1, "thin": 1}
ACQUISITION_KNOBS = {"candidates": 1, "refinements": 0}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


@dataclass
class RunConfig:
    """One optimization run, as described by a JSON config file."""

    method: str
    dataset: str
    label_col: str | int
    output_dir: str
    budget: int
    seed: int = 0
    test_dataset: str | None = None
    space: str | None = None
    algorithms: tuple[str, ...] = ALGORITHMS
    init: int = 5
    ensemble_size: int = 5
    post_size: int = 12
    warm_k: int = 3
    folds: int = 5
    test_fraction: float = 0.33
    loss: str = "squared_margin"
    gp: dict[str, Any] = field(default_factory=dict)
    acquisition: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {path} is not valid JSON: {exc}") from None
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "RunConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        for name in ("method", "dataset", "label_col", "output_dir", "budget"):
            if name not in doc:
                raise UsageError(f"config field {name!r} is required")
        cfg = cls(**{**doc, "algorithms": tuple(doc.get("algorithms", ALGORITHMS))})
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.method not in METHODS:
            raise UsageError(f"config field 'method' must be one of {METHODS}")
        _check_int("budget", self.budget, 1)
        _check_int("seed", self.seed, 0)
        _check_int("init", self.init, 1)
        if self.init > self.budget:
            raise UsageError("config field 'init' must satisfy 1 <= init <= budget")
        _check_int("folds", self.folds, 2)
        _check_int("ensemble_size", self.ensemble_size, 1)
        # every method also builds the post-hoc ensemble over its history
        _check_int("post_size", self.post_size, 1)
        _check_int("warm_k", self.warm_k, 0)
        if self.warm_k > min(self.post_size, self.budget):
            raise UsageError("config field 'warm_k' must lie in [0, min(post_size, budget)]")
        if (
            isinstance(self.test_fraction, bool)
            or not isinstance(self.test_fraction, (int, float))
            or not 0.0 < self.test_fraction < 1.0
        ):
            raise UsageError("config field 'test_fraction' must lie in (0, 1)")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise UsageError(f"config field 'algorithms' has unknown entry {a!r}")
        if self.space is None and tuple(self.algorithms) == ("gnb",):
            raise UsageError(
                "config field 'algorithms': 'gnb' alone leaves nothing to tune; "
                "add another algorithm or provide a space file"
            )
        if self.loss not in ("zero_one", "margin", "squared_margin"):
            raise UsageError("config field 'loss' must name a known loss")
        for group, knobs in (("gp", GP_KNOBS), ("acquisition", ACQUISITION_KNOBS)):
            values = getattr(self, group)
            if not isinstance(values, dict) or set(values) - set(knobs):
                raise UsageError(f"config field {group!r} accepts only {sorted(knobs)}")
            for name, value in values.items():
                _check_int(f"{group}.{name}", value, knobs[name])


def _check_int(name: str, value: Any, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"config field {name!r} must be an integer, got {value!r}")
    if value < minimum:
        raise UsageError(f"config field {name!r} must be at least {minimum}")


def _settings(config: RunConfig) -> SearchSettings:
    return SearchSettings(**config.gp, **config.acquisition)


def execute_run(config: RunConfig) -> dict[str, Any]:
    """Run one optimization, write its artifact, return the summary."""
    data = load_csv(config.dataset, config.label_col)
    fixed_test = None
    if config.test_dataset is not None:
        test_data = load_csv(config.test_dataset, config.label_col)
        data, fixed_test = merge_with_test(data, test_data)
    plan = make_split(data, config.test_fraction, config.folds, config.seed, fixed_test)
    space = load_space(config.space) if config.space else default_space(config.algorithms)
    evaluator = CrossValEvaluator(config.algorithms, data, plan, config.seed)
    settings = _settings(config)

    if config.method in ("bo-best", "bo-post"):
        history, run_artifact = run_bo(
            space, evaluator, config.budget, config.init, config.seed, settings
        )
        eo_ensemble = None
    else:
        history, eo_ensemble, run_artifact = run_eo(
            space,
            evaluator,
            config.budget,
            config.ensemble_size,
            config.loss,
            config.init,
            config.seed,
            settings,
        )

    best_id = select_best(history)
    final: dict[str, Any] = {
        "best": {
            "id": best_id,
            "val_error": history.records[best_id].val_loss,
            "test_error": evaluate_on_test(best_id, history),
        }
    }
    post = post_hoc(history, config.post_size, config.warm_k)
    final["post"] = {
        "ids": list(post.members()),
        "size": config.post_size,
        "warm_k": config.warm_k,
        "val_error": zero_one_ensemble_loss(post.members(), history.val_matrix()),
        "test_error": evaluate_on_test(post, history),
    }
    if eo_ensemble is not None:
        final["ensemble"] = {
            "ids": [s for s in eo_ensemble.slots],
            "val_error": zero_one_ensemble_loss(
                eo_ensemble.members(), history.val_matrix()
            ),
            "test_error": evaluate_on_test(eo_ensemble, history),
        }
    run_artifact.final = final
    artifact_io.save_artifact(config.output_dir, run_artifact, history)

    key = {"bo-best": "best", "bo-post": "post", "eo": "ensemble", "eo-post": "post"}
    error = final[key[config.method]]["test_error"]
    return {
        "method": config.method,
        "dataset": os.path.splitext(os.path.basename(config.dataset))[0],
        "seed": config.seed,
        "budget": config.budget,
        "test_error": error,
        "output_dir": config.output_dir,
        "final": final,
    }


def cmd_run(args: argparse.Namespace) -> int:
    config = RunConfig.from_file(args.config)
    summary = execute_run(config)
    print(
        "method={method} dataset={dataset} seed={seed} budget={budget} "
        "test_error={test_error:.6f}".format(**summary)
    )
    return EXIT_OK


def cmd_post(args: argparse.Namespace) -> int:
    if args.size < 1:
        raise UsageError("--size must be positive")
    if not 0 <= args.warm <= args.size:
        raise UsageError("--warm must lie in [0, --size]")
    try:
        loaded = artifact_io.load_artifact(args.artifact)
    except (OSError, ValueError, KeyError) as exc:
        raise DataError(f"cannot load artifact {args.artifact}: {exc}") from None
    if args.warm > len(loaded.history):
        raise UsageError("--warm exceeds the number of stored models")
    ensemble = post_hoc(loaded.history, args.size, args.warm)
    val_matrix = loaded.history.val_matrix()
    test_matrix = loaded.history.test_matrix()
    lines = ["size,val_error,test_error"]
    for s in range(1, args.size + 1):
        members = ensemble.slots[:s]
        lines.append(
            "%d,%.6f,%.6f"
            % (
                s,
                zero_one_ensemble_loss(members, val_matrix),
                zero_one_ensemble_loss(members, test_matrix),
            )
        )
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def _format_matrix(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    table = [list(header)] + [list(r) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in table
    )


def cmd_compare(args: argparse.Namespace) -> int:
    if args.alpha not in (0.05, 0.10):
        raise UsageError("--alpha must be 0.05 or 0.10")
    try:
        table = ResultTable.from_csv(args.results)
    except (OSError, ValueError) as exc:
        raise DataError(str(exc)) from None
    if len(table.methods) < 2:
        raise UsageError("need at least 2 methods to compare")
    means = average_errors(table)
    report = pairwise_report(table)
    k, n_datasets = means.shape

    # ranks from per-dataset means, and ranks averaged over repetitions
    rep_ranks = np.zeros(k)
    for j in range(n_datasets):
        for r in range(table.errors.shape[2]):
            rep_ranks += rankdata(table.errors[:, j, r])
    rep_ranks /= n_datasets * table.errors.shape[2]

    rows = []
    for i, m in enumerate(table.methods):
        rows.append(
            [m]
            + [f"{means[i, j]:.4f}" for j in range(n_datasets)]
            + [f"{report.mean_ranks[i]:.2f}", f"{rep_ranks[i]:.2f}"]
        )
    print("Mean test error per dataset (rank_means from dataset means,")
    print("rank_reps averaged over repetitions):")
    print(
        _format_matrix(
            ["method", *table.datasets, "rank_means", "rank_reps"], rows
        )
    )
    print()
    print(f"Pairwise Wilcoxon signed-rank p-values (alpha={args.alpha:g});")
    print("'*' marks significance, parentheses mark the worse-ranked row:")
    prows = []
    for i, m in enumerate(table.methods):
        cells = [m]
        for j in range(k):
            if i == j:
                cells.append("-")
                continue
            mark = "*" if report.p_values[i, j] <= args.alpha else ""
            cell = f"{report.p_values[i, j]:.4g}{mark}"
            if report.row_worse[i, j]:
                cell = f"({cell})"
            cells.append(cell)
        prows.append(cells)
    print(_format_matrix(["method", *table.methods], prows))
    print()
    if k >= 3:
        fr = friedman(means)
        print(f"Friedman chi-square = {fr.statistic:.4f}, p = {fr.p_value:.6g}")
        cd = nemenyi_cd(k, n_datasets, args.alpha)
        print(f"Nemenyi critical difference = {cd:.4f}")
        groups = rank_groups(report.mean_ranks, cd)
        if groups:
            for group in groups:
                names = ", ".join(table.methods[i] for i in group)
                print(f"not significantly different: {names}")
        else:
            print("all methods significantly different")
    else:
        print("Friedman test skipped (needs at least 3 methods)")

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        with open(
            os.path.join(args.out_dir, "mean_errors.csv"), "w", encoding="utf-8"
        ) as fh:
            fh.write("method," + ",".join(table.datasets) + ",rank_means,rank_reps\n")
            for i, m in enumerate(table.methods):
                cells = [f"{means[i, j]:.6f}" for j in range(n_datasets)]
                fh.write(
                    f"{m}," + ",".join(cells)
                    + f",{report.mean_ranks[i]:.4f},{rep_ranks[i]:.4f}\n"
                )
        with open(
            os.path.join(args.out_dir, "pairwise_p.csv"), "w", encoding="utf-8"
        ) as fh:
            fh.write("method," + ",".join(table.methods) + "\n")
            for i, m in enumerate(table.methods):
                cells = [f"{report.p_values[i, j]:.6g}" for j in range(k)]
                fh.write(f"{m}," + ",".join(cells) + "\n")
    return EXIT_OK


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            start, stop = int(lo), int(hi)
        except ValueError:
            raise UsageError(f"cannot parse seed range {text!r}") from None
        if stop < start:
            raise UsageError("seed range end must be >= start")
        seeds = list(range(start, stop + 1))
    else:
        try:
            seeds = [int(s) for s in text.split(",") if s.strip()]
        except ValueError:
            raise UsageError(f"cannot parse seed list {text!r}") from None
    if not seeds:
        raise UsageError("no seeds given")
    if len(set(seeds)) != len(seeds):
        raise UsageError("duplicate seeds")
    if min(seeds) < 0:
        raise UsageError("seeds must be non-negative")
    return seeds


def _batch_worker(doc_json: str, seed: int) -> list[tuple[str, str, str, float]]:
    doc = json.loads(doc_json)
    doc["seed"] = seed
    doc["output_dir"] = os.path.join(doc["output_dir"], f"seed_{seed}")
    config = RunConfig.from_dict(doc)
    summary = execute_run(config)
    final = summary["final"]
    if config.method in ("bo-best", "bo-post"):
        pairs = [("bo-best", "best"), ("bo-post", "post")]
    else:
        pairs = [("eo", "ensemble"), ("eo-post", "post")]
    return [
        (method, summary["dataset"], str(seed), final[key]["test_error"])
        for method, key in pairs
    ]


def cmd_batch(args: argparse.Namespace) -> int:
    config = RunConfig.from_file(args.config)  # fail fast on bad configs
    seeds = _parse_seeds(args.seeds)
    with open(args.config, "r", encoding="utf-8") as fh:
        doc_json = json.dumps(json.load(fh))
    jobs = args.jobs or min(len(seeds), os.cpu_count() or 1)
    rows: list[tuple[str, str, str, float]] = []
    if jobs <= 1:
        for seed in seeds:
            rows.extend(_batch_worker(doc_json, seed))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(_batch_worker, doc_json, s): s for s in seeds}
            for fut in concurrent.futures.as_completed(futures):
                rows.extend(fut.result())
    rows.sort(key=lambda r: (r[0], r[1], int(r[2])))
    exists = os.path.exists(args.results)
    with open(args.results, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if not exists:
            writer.writerow(["method", "dataset", "repetition", "error"])
        for method, dataset, rep, error in rows:
            writer.writerow([method, dataset, rep, f"{error:.6f}"])
    print(f"wrote {len(rows)} rows for {len(seeds)} seeds to {args.results}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ensopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one optimization run")
    p_run.add_argument("--config", required=True, help="path to a run config JSON")
    p_run.set_defaults(func=cmd_run)

    p_post = sub.add_parser("post", help="rebuild greedy ensembles from a run directory")
    p_post.add_argument("--artifact", required=True, help="run directory")
    p_post.add_argument("--size", type=int, required=True, help="final ensemble size")
    p_post.add_argument("--warm", type=int, default=3, help="warm-start size")
    p_post.add_argument("--out", default=None, help="also write the curve CSV here")
    p_post.set_defaults(func=cmd_post)

    p_cmp = sub.add_parser("compare", help="statistical comparison of a results CSV")
    p_cmp.add_argument("--results", required=True, help="CSV with method,dataset,repetition,error")
    p_cmp.add_argument("--alpha", type=float, default=0.05)
    p_cmp.add_argument("--out-dir", default=None, help="write report CSVs here")
    p_cmp.set_defaults(func=cmd_compare)

    p_batch = sub.add_parser("batch", help="repeat one run config over many seeds")
    p_batch.add_argument("--config", required=True)
    p_batch.add_argument("--seeds", required=True, help="e.g. 1..10 or 1,2,5")
    p_batch.add_argument("--results", required=True, help="results CSV to append to")
    p_batch.add_argument("--jobs", type=int, default=None)
    p_batch.set_defaults(func=cmd_batch)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
