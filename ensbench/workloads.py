"""The three benchmark workloads: inputs, warm-up, the timed operation, checks.

Every workload derives its inputs from one workload seed, drives ``ensopt``
through its CLI entry point in this process, and checks the run directories
the operation leaves behind.  Warm-up operations use small fixed inputs, so
set-up costs the same whatever the seed.

- ``eo_default``: ``ensopt run`` with method ``eo`` on two_moons(600), budget
  20, 5 slots and default effort settings.  Surrogate-bound.
- ``batch_blobs``: ``ensopt batch --jobs nproc`` over seeds 1-4, method
  ``eo-post``, budget 20, on gaussian_blobs(2000), every configuration drawn
  at random.  Learner-bound, the only workload with a process pool, and the
  control for surrogate changes: the GP never runs.
- ``pool_replay``: writes a synthetic 1000-model pool with
  ``ensopt.artifact.save_artifact`` and runs ``ensopt post --size 25
  --warm 3`` on it.  Greedy-selection and artifact-I/O bound; trains nothing.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ensopt import artifact, cli
from ensopt.ensemble import zero_one_ensemble_loss
from ensopt.hyperspace import Config, ParamSpec, SearchSpace
from ensopt.optimizer import History, RunArtifact
from ensopt.synthetic import gaussian_blobs, to_csv, two_moons


@dataclass
class Outcome:
    """What one operation produced, as read back from its output directory."""

    digest: str
    test_error: float
    problems: list[str] = field(default_factory=list)


def run_cli(argv: list[str]) -> int:
    """``ensopt`` entry point with its console output swallowed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _canonical_run_json(path: str) -> bytes:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("created_at", None)
    return json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")


def output_digest(directory: str) -> str:
    """sha256 over every file below ``directory``, ``created_at`` excluded.

    Paths enter relative to ``directory``, so the same outputs written to
    two places digest equally.
    """
    h = hashlib.sha256()
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, directory).encode("utf-8") + b"\0")
            if name == artifact.RUN_FILE:
                h.update(_canonical_run_json(path))
            else:
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_run_dir(run_dir: str, budget: int, slots: int | None) -> tuple[dict, list[str]]:
    """Structural checks shared by every run directory; returns ``final``."""
    problems = []
    run = _load_json(os.path.join(run_dir, artifact.RUN_FILE))
    configs = _load_json(os.path.join(run_dir, artifact.CONFIGS_FILE))
    with open(os.path.join(run_dir, artifact.VAL_PREDICTIONS_FILE), "rb") as fh:
        val_rows = sum(1 for line in fh if line.strip())
    if len(configs) != budget or val_rows != budget:
        problems.append(f"{run_dir}: history holds {len(configs)} models, expected {budget}")
    final = run.get("final", {})
    if slots is not None:
        ids = final.get("ensemble", {}).get("ids", [])
        if len(ids) != slots or any(not isinstance(i, int) for i in ids):
            problems.append(f"{run_dir}: ensemble slots not all filled: {ids}")
    for key, sel in final.items():
        err = sel.get("test_error")
        if not (isinstance(err, float) and 0.0 <= err <= 1.0):
            problems.append(f"{run_dir}: final.{key}.test_error {err!r} outside [0, 1]")
    return final, problems


def degenerate_fraction(directory: str) -> float:
    """Share of models flagged degenerate in every history below ``directory``."""
    total = flagged = 0
    for root, _, files in os.walk(directory):
        if os.path.basename(root) == "history" and "configs.json" in files:
            for entry in _load_json(os.path.join(root, "configs.json")):
                total += 1
                flagged += bool(entry.get("degenerate"))
    return flagged / total if total else 0.0


class Workload:
    """One closed-loop operation type; subclasses fill in the specifics."""

    name = ""
    models = 0  # models the operation produces or consumes
    jobs = 1  # worker processes the operation keeps busy
    # Operations cycle through this many inputs; ``current`` picks the one
    # the next operation uses.  Repeats of an input must give equal outputs.
    inputs = 1
    current = 0

    # Tracing overhead is measured on one unit of work: the whole operation
    # by default, or the first span of this name when the traced form of the
    # operation differs from the timed one (see ``probe``).
    probe_span: str | None = None

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.out = self.path("op")

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def setup(self) -> str:
        """Generate the inputs and warm up; returns the warm-up output digest."""
        raise NotImplementedError

    def op(self) -> int:
        """The timed operation, writing below ``self.out``; returns its exit code."""
        raise NotImplementedError

    def check(self) -> Outcome:
        """Read back and check what the last operation wrote below ``self.out``."""
        raise NotImplementedError

    def traced_op(self) -> int:
        """The operation in a form whose spans all reach this process."""
        return self.op()

    def probe(self) -> None:
        """Untraced run of the ``probe_span`` unit, when there is one."""


class EoDefault(Workload):
    name = "eo_default"
    models = 20
    # The learners the GP picks differ from input to input; spreading the
    # operations of one run over three inputs keeps that out of the median.
    inputs = 3

    def setup(self) -> str:
        to_csv(two_moons(200, noise=0.3, seed=0), self.path("warm.csv"))
        base = {"method": "eo", "label_col": "label", "ensemble_size": 5}
        for k in range(self.inputs):
            seed = self.inputs * self.seed + k
            to_csv(two_moons(600, noise=0.3, seed=seed), self.path(f"moons{k}.csv"))
            self._write_config(
                f"op{k}.json",
                {
                    **base,
                    "dataset": self.path(f"moons{k}.csv"),
                    "output_dir": os.path.join(self.out, "run"),
                    "budget": self.models,
                    "seed": seed,
                },
            )
        warm = fresh_dir(self.path("warm"))
        self._write_config(
            "warm.json",
            {
                **base,
                "dataset": self.path("warm.csv"),
                "output_dir": os.path.join(warm, "run"),
                "budget": 8,
                "init": 4,
                "gp": {"burn_in": 1, "gp_samples": 1, "thin": 1},
                "acquisition": {"candidates": 20, "refinements": 1},
            },
        )
        if run_cli(["run", "--config", self.path("warm.json")]) != 0:
            raise RuntimeError("eo_default warm-up run failed")
        return output_digest(warm)

    def _write_config(self, name: str, doc: dict[str, Any]) -> None:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def op(self) -> int:
        return run_cli(["run", "--config", self.path(f"op{self.current}.json")])

    def check(self) -> Outcome:
        final, problems = check_run_dir(os.path.join(self.out, "run"), self.models, 5)
        err = final.get("ensemble", {}).get("test_error", float("nan"))
        return Outcome(output_digest(self.out), err, problems)


class BatchBlobs(Workload):
    name = "batch_blobs"
    seeds_per_op = 4
    budget = 20
    models = seeds_per_op * budget
    probe_span = "cli.execute_run"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.jobs = min(len(os.sched_getaffinity(0)), self.seeds_per_op)
        # the workload seed draws the dataset; ``--seeds 1,2,3,4`` is part of
        # the command, as a user repeating one config would type it
        self.run_seeds = list(range(1, self.seeds_per_op + 1))
        self.doc = {
            "method": "eo-post",
            "label_col": "label",
            "budget": self.budget,
            # every configuration is drawn at random, so the learner mix is
            # fixed by the run seeds and the surrogate never runs
            "init": self.budget,
        }

    def setup(self) -> str:
        to_csv(gaussian_blobs(2000, spread=1.3, seed=self.seed), self.path("blobs.csv"))
        to_csv(gaussian_blobs(300, spread=1.3, seed=0), self.path("warm.csv"))
        self.doc["dataset"] = self.path("blobs.csv")
        self.doc["output_dir"] = os.path.join(self.out, "runs")
        with open(self.path("op.json"), "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh)
        warm = fresh_dir(self.path("warm"))
        tiny = {
            **self.doc,
            "dataset": self.path("warm.csv"),
            "output_dir": os.path.join(warm, "runs"),
            "budget": 6,
            "init": 6,
        }
        with open(self.path("warm.json"), "w", encoding="utf-8") as fh:
            json.dump(tiny, fh)
        argv = ["batch", "--config", self.path("warm.json"), "--seeds", "1,2"]
        argv += ["--results", self.path("warm_results.csv"), "--jobs", str(self.jobs)]
        if os.path.exists(self.path("warm_results.csv")):
            os.remove(self.path("warm_results.csv"))
        if run_cli(argv) != 0:
            raise RuntimeError("batch_blobs warm-up batch failed")
        return output_digest(warm)

    def op(self) -> int:
        self.batched = True
        argv = ["batch", "--config", self.path("op.json")]
        argv += ["--seeds", ",".join(str(s) for s in self.run_seeds)]
        argv += ["--results", os.path.join(self.out, "results.csv"), "--jobs", str(self.jobs)]
        return run_cli(argv)

    def _execute(self, seed: int, out: str) -> None:
        doc = {**self.doc, "seed": seed, "output_dir": os.path.join(out, "runs", f"seed_{seed}")}
        cli.execute_run(cli.RunConfig.from_dict(doc))

    def traced_op(self) -> int:
        # spans recorded inside pool workers never reach this process, so the
        # traced form runs each seed here, one after the other, and writes no
        # results CSV
        self.batched = False
        for seed in self.run_seeds:
            self._execute(seed, self.out)
        return 0

    def probe(self) -> None:
        self._execute(self.run_seeds[0], fresh_dir(self.path("probe")))

    def check(self) -> Outcome:
        problems = []
        errors = []
        for seed in self.run_seeds:
            run_dir = os.path.join(self.out, "runs", f"seed_{seed}")
            final, found = check_run_dir(run_dir, self.budget, 5)
            problems += found
            errors.append(final.get("post", {}).get("test_error", float("nan")))
        if self.batched:
            with open(os.path.join(self.out, "results.csv"), "r", encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            for seed in self.run_seeds:
                count = sum(1 for r in rows if r["repetition"] == str(seed))
                if count != 2:
                    problems.append(f"results.csv has {count} rows for seed {seed}, expected 2")
            if len(rows) != 2 * len(self.run_seeds):
                problems.append(f"results.csv has {len(rows)} rows")
        digest = output_digest(os.path.join(self.out, "runs"))
        return Outcome(digest, float(np.mean(errors)), problems)


def synthetic_pool(
    seed: int, models: int = 1000, n_val: int = 1000, n_test: int = 500
) -> tuple[History, RunArtifact]:
    """A pool of 3-label prediction rows whose errors are correlated.

    Each sample has a difficulty shared by every model and each model a
    skill, so a model is right on a sample when ``skill - 1.5 * difficulty
    + noise > 0``: single-model accuracy spans about 50-90% and hard samples
    defeat most of the pool at once.  Wrong votes favour one confusing label
    per sample.  With independent errors a size-25 majority vote would be
    perfect and the greedy curve would say nothing.
    """
    n_labels = 3
    rng = np.random.default_rng(seed)
    skill = rng.uniform(0.0, 2.2, size=models)

    def split(n: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, n_labels, size=n)
        difficulty = rng.standard_normal(n)
        confuser = (labels + rng.integers(1, n_labels, size=n)) % n_labels
        third = n_labels - labels - confuser  # the remaining label, for 3 labels
        right = skill[:, None] - 1.5 * difficulty[None, :] + rng.standard_normal((models, n)) > 0
        wrong = np.where(rng.random((models, n)) < 0.75, confuser, third)
        return labels, np.where(right, labels[None, :], wrong)

    labels_val, val = split(n_val)
    labels_test, test = split(n_test)
    space = SearchSpace((ParamSpec("skill", "continuous", 0.0, 2.2),))
    history = History(labels_val, labels_test, n_labels)
    for m in range(models):
        u = skill[m] / 2.2
        history.append(Config({"skill": float(skill[m])}), np.array([u]), val[m], test[m])
    run = RunArtifact(
        engine="bo",
        budget=models,
        init=models,
        seed=seed,
        loss="zero_one",
        space=space.to_dict(),
        n_labels=n_labels,
    )
    return history, run


def greedy_oracle(history: History, steps: int, warm_k: int) -> list[tuple[str, str]]:
    """Brute-force first ``steps`` rows of the greedy curve, as ``post`` prints them.

    The warm start takes the individually best distinct models and every
    later step the pool model whose addition minimizes the zero-one loss,
    ties to the lowest id, each scored from scratch.
    """
    val = history.val_matrix()
    test = history.test_matrix()
    pool = range(len(history))
    singles = sorted((zero_one_ensemble_loss((h,), val), h) for h in pool)
    slots = [h for _, h in singles[:warm_k]]
    while len(slots) < steps:
        slots.append(min((zero_one_ensemble_loss(tuple(slots) + (h,), val), h) for h in pool)[1])
    return [
        (
            "%.6f" % zero_one_ensemble_loss(slots[:s], val),
            "%.6f" % zero_one_ensemble_loss(slots[:s], test),
        )
        for s in range(1, steps + 1)
    ]


class PoolReplay(Workload):
    name = "pool_replay"
    models = 1000
    size = 25
    warm_k = 3
    oracle_steps = 5  # warm start plus two greedy steps

    def setup(self) -> str:
        self.history, self.run = synthetic_pool(self.seed)
        self.oracle = None
        warm = fresh_dir(self.path("warm"))
        small, small_run = synthetic_pool(0, models=100)
        artifact.save_artifact(os.path.join(warm, "pool"), small_run, small)
        argv = ["post", "--artifact", os.path.join(warm, "pool"), "--size", "5"]
        if run_cli(argv + ["--out", os.path.join(warm, "curve.csv")]) != 0:
            raise RuntimeError("pool_replay warm-up post failed")
        return output_digest(warm)

    def op(self) -> int:
        pool = os.path.join(self.out, "pool")
        artifact.save_artifact(pool, self.run, self.history)
        argv = ["post", "--artifact", pool, "--size", str(self.size), "--warm", str(self.warm_k)]
        return run_cli(argv + ["--out", os.path.join(self.out, "curve.csv")])

    def check(self) -> Outcome:
        _, problems = check_run_dir(os.path.join(self.out, "pool"), self.models, None)
        with open(os.path.join(self.out, "curve.csv"), "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if [int(r["size"]) for r in rows] != list(range(1, self.size + 1)):
            problems.append(f"post curve has {len(rows)} rows, expected {self.size}")
        for r in rows:
            for key in ("val_error", "test_error"):
                if not 0.0 <= float(r[key]) <= 1.0:
                    problems.append(f"curve size {r['size']}: {key} {r[key]} outside [0, 1]")
        if self.oracle is None:
            self.oracle = greedy_oracle(self.history, self.oracle_steps, self.warm_k)
        got = [(r["val_error"], r["test_error"]) for r in rows[: self.oracle_steps]]
        if got != self.oracle:
            problems.append(f"greedy curve {got} differs from brute force {self.oracle}")
        err = float(rows[-1]["test_error"]) if rows else float("nan")
        return Outcome(output_digest(self.out), err, problems)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (EoDefault, BatchBlobs, PoolReplay)
}
