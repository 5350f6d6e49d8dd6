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
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from . import artifact as artifact_io
from .data import DataError, load_csv, make_split, merge_with_test
from .ensemble import LOSSES, VoteState, zero_one_ensemble_loss
from .hyperspace import SearchSpace, load_space
from .learners import ALGORITHMS, check_algorithms, check_space, default_space
from .optimizer import (
    CrossValEvaluator,
    SearchSettings,
    evaluate_on_test,
    post_hoc,
    run_bo,
    run_eo,
    select_best,
)
from .stats import NEMENYI_Q, Comparison, ResultTable, compare
from .surrogate import NumericalError

# each method: the engine that runs it and the ``final`` entry it reports
METHODS = {
    "bo-best": ("bo", "best"),
    "bo-post": ("bo", "post"),
    "eo": ("eo", "ensemble"),
    "eo-post": ("eo", "post"),
}

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
        if not isinstance(doc, dict):
            raise UsageError(f"config must be a JSON object, got {doc!r}")
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        for name in ("method", "dataset", "label_col", "output_dir", "budget"):
            if name not in doc:
                raise UsageError(f"config field {name!r} is required")
        algorithms = doc.get("algorithms", list(ALGORITHMS))
        if not isinstance(algorithms, list):
            raise UsageError(f"config field 'algorithms' must be a list, got {algorithms!r}")
        cfg = cls(**{**doc, "algorithms": tuple(algorithms)})
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if not isinstance(self.method, str) or self.method not in METHODS:
            raise UsageError(f"config field 'method' must be one of {tuple(METHODS)}")
        for name in ("dataset", "output_dir"):
            if not isinstance(getattr(self, name), str):
                raise UsageError(
                    f"config field {name!r} must be a string, got {getattr(self, name)!r}"
                )
        _check_output_dir("config field 'output_dir'", self.output_dir)
        if self.test_dataset is not None and not isinstance(self.test_dataset, str):
            raise UsageError(
                f"config field 'test_dataset' must be a string or null, got {self.test_dataset!r}"
            )
        if isinstance(self.label_col, bool) or not isinstance(self.label_col, (str, int)):
            raise UsageError(
                f"config field 'label_col' must be a column name or index, got {self.label_col!r}"
            )
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
        _search_space(self)
        if self.loss not in LOSSES:
            raise UsageError(f"config field 'loss' must be one of {LOSSES}")
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


def _check_output_dir(option: str, path: str) -> None:
    """``path`` must not be, or lie under, an existing non-directory."""
    head = os.path.abspath(path)
    while not os.path.isdir(head):
        if os.path.lexists(head):
            raise UsageError(f"{option} {path!r} is or lies under a file: {head}")
        head = os.path.dirname(head)


def _check_output_file(option: str, path: str) -> None:
    """``path`` must name a non-directory inside an existing directory."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise UsageError(f"{option} must name a file in an existing directory, got {path!r}")


def _search_space(config: RunConfig) -> SearchSpace:
    """The space a run searches: the default one, or its space file after ``check_space``."""
    try:
        algorithms = check_algorithms(config.algorithms)
        if config.space is None:
            return default_space(algorithms)
    except ValueError as exc:
        raise UsageError(f"config field 'algorithms': {exc}") from None
    path = config.space
    if not isinstance(path, str):
        raise UsageError(f"config field 'space' must be a path, got {path!r}")
    try:
        space = load_space(path)
    except OSError as exc:
        raise UsageError(f"cannot read space file {path}: {exc}") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"space file {path} is malformed: {exc}") from None
    try:
        return check_space(space, algorithms)
    except ValueError as exc:
        raise UsageError(f"space file {path}: {exc}") from None


def execute_run(config: RunConfig) -> dict[str, Any]:
    """Run one optimization, write its artifact, return the summary."""
    space = _search_space(config)
    data = load_csv(config.dataset, config.label_col)
    fixed_test = None
    if config.test_dataset is not None:
        test_data = load_csv(config.test_dataset, config.label_col)
        data, fixed_test = merge_with_test(data, test_data)
    plan = make_split(data, config.test_fraction, config.folds, config.seed, fixed_test)
    evaluator = CrossValEvaluator(config.algorithms, data, plan)
    settings = SearchSettings(**config.gp, **config.acquisition)

    engine, key = METHODS[config.method]
    if engine == "bo":
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
            "val_error": history.val_losses[best_id],
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

    error = final[key]["test_error"]
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
    if args.out:
        _check_output_file("--out", args.out)
    try:
        loaded = artifact_io.load_artifact(args.artifact)
    except (OSError, ValueError, KeyError) as exc:
        raise DataError(f"cannot load artifact {args.artifact}: {exc}") from None
    if args.warm > len(loaded.history):
        raise UsageError("--warm exceeds the number of stored models")
    ensemble = post_hoc(loaded.history, args.size, args.warm)
    # the first s slots are the first s - 1 plus one: grow one vote state per split
    val_state = VoteState(loaded.history.val_matrix())
    test_state = VoteState(loaded.history.test_matrix())
    lines = ["size,val_error,test_error"]
    for s, h in enumerate(ensemble.slots, start=1):
        val_state.add(h)
        test_state.add(h)
        lines.append("%d,%.6f,%.6f" % (s, val_state.zero_one(), test_state.zero_one()))
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def _format_matrix(table: Sequence[Sequence[str]]) -> str:
    """Right-aligned columns; the first row is the header."""
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in table)


def _mean_table(result: Comparison, digits: int) -> list[list[str]]:
    """Per-dataset means to ``digits`` places, both mean ranks to two fewer."""
    return [["method", *result.datasets, "rank_means", "rank_reps"]] + [
        [m, *(f"{e:.{digits}f}" for e in result.means[i])]
        + [f"{r[i]:.{digits - 2}f}" for r in (result.mean_ranks, result.rep_ranks)]
        for i, m in enumerate(result.methods)
    ]


def _p_table(result: Comparison, alpha: float | None = None) -> list[list[str]]:
    """The p-values to 6 digits or, given ``alpha``, as printed: 4 digits,
    '-' on the diagonal, '*' where significant, parentheses on the worse row."""

    def cell(i: int, j: int) -> str:
        p = result.p_values[i, j]
        if alpha is None:
            return f"{p:.6g}"
        if i == j:
            return "-"
        text = f"{p:.4g}" + ("*" if p <= alpha else "")
        return f"({text})" if result.row_worse[i, j] else text

    k = len(result.methods)
    return [["method", *result.methods]] + [
        [m, *(cell(i, j) for j in range(k))] for i, m in enumerate(result.methods)
    ]


def cmd_compare(args: argparse.Namespace) -> int:
    if args.alpha not in NEMENYI_Q:
        raise UsageError("--alpha must be 0.05 or 0.10")
    if args.out_dir:
        _check_output_dir("--out-dir", args.out_dir)
    try:
        table = ResultTable.from_csv(args.results)
    except (OSError, ValueError) as exc:
        raise DataError(str(exc)) from None
    try:
        result = compare(table, args.alpha)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    print("Mean test error per dataset (rank_means from dataset means,")
    print("rank_reps averaged over repetitions):")
    print(_format_matrix(_mean_table(result, 4)))
    print()
    print(f"Pairwise Wilcoxon signed-rank p-values (alpha={args.alpha:g});")
    print("'*' marks significance, parentheses mark the worse-ranked row:")
    print(_format_matrix(_p_table(result, args.alpha)))
    print()
    if result.friedman is None:
        print("Friedman test skipped (needs at least 3 methods)")
    else:
        print("Friedman chi-square = %.4f, p = %.6g" % result.friedman)
        print(f"Nemenyi critical difference = {result.cd:.4f}")
        for group in result.groups:
            print("not significantly different: " + ", ".join(result.methods[i] for i in group))
        if not result.groups:
            print("all methods significantly different")

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for name, rows in (
            ("mean_errors.csv", _mean_table(result, 6)),
            ("pairwise_p.csv", _p_table(result)),
        ):
            with open(os.path.join(args.out_dir, name), "w", encoding="utf-8") as fh:
                fh.write("".join(",".join(row) + "\n" for row in rows))
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


def _batch_worker(config: RunConfig) -> list[tuple[str, str, str, float]]:
    """One seed's results rows: every method its engine's run reports."""
    summary = execute_run(config)
    engine = METHODS[config.method][0]
    return [
        (method, summary["dataset"], str(config.seed), summary["final"][key]["test_error"])
        for method, (method_engine, key) in METHODS.items()
        if method_engine == engine
    ]


def cmd_batch(args: argparse.Namespace) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    _check_output_file("--results", args.results)
    config = RunConfig.from_file(args.config)  # fail fast on bad configs
    seeds = _parse_seeds(args.seeds)
    configs = [
        replace(config, seed=s, output_dir=os.path.join(config.output_dir, f"seed_{s}"))
        for s in seeds
    ]
    for seed_config in configs:
        _check_output_dir("config field 'output_dir'", seed_config.output_dir)
    jobs = min(args.jobs or os.cpu_count() or 1, len(seeds))
    rows: list[tuple[str, str, str, float]] = []
    if jobs == 1:
        for seed_config in configs:
            rows.extend(_batch_worker(seed_config))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_batch_worker, c) for c in configs]
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
    p_batch.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes, at least 1 (default: one per CPU); never more than seeds",
    )
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
