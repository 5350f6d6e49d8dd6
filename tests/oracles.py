"""Reference computations that the tests check the library against.

The vote references are written per sample and per member, independent of
the vectorized vote tallies in ``ensopt.ensemble``.  The scalar kernel, EI,
prior density and per-fold loss are the plain formulas the vectorized code
paths must agree with.  The learner and cross-validation references are the
straightforward loops the fast paths in ``ensopt.learners`` and
``ensopt.data`` replaced; the tests require their outputs bit for bit.
``run_bo`` is the stand-alone single-model loop that ``ensopt.optimizer.run_bo``
replaced by delegating to the one-slot ensemble loop; the tests require the
same history and the same artifact.  ``write_int_rows`` and ``read_int_rows``
are the text codec of integer rows that ``ensopt.artifact`` replaced by a
byte-level one; the tests require the same file bytes and the same arrays or
exception types.
"""

from __future__ import annotations

import math
import warnings
from typing import Any, Sequence

import numpy as np
from scipy.special import ndtr

from ensopt.acquisition import INV_SQRT_2PI, VARIANCE_FLOOR
from ensopt.data import SplitPlan
from ensopt.ensemble import PredictionMatrix
from ensopt.hyperspace import Config, SearchSpace, decode, sample
from ensopt.learners import (
    LINEAR_ITERATIONS,
    Dataset,
    _standardize_stats,
    predict,
    train,
)
from ensopt.optimizer import (
    Evaluator,
    History,
    IterationLog,
    RunArtifact,
    SearchSettings,
    _propose,
    _safe_evaluate,
    digest_vector,
)
from ensopt.surrogate import HALF_LOG_2PI, SQRT5, GpHyperparams, LogNormalPrior


def _member_column(members: Sequence[int], preds: PredictionMatrix, i: int) -> np.ndarray:
    for m in members:
        if not 0 <= m < preds.n_models:
            raise ValueError(f"model id {m} outside the pool")
    return preds.rows[list(members), i]


def majority_vote(members: Sequence[int], preds: PredictionMatrix, i: int) -> int:
    """Majority-vote label of the member multiset on sample ``i``, ties to the smallest label."""
    if len(members) == 0:
        raise ValueError("cannot vote with an empty member list")
    counts = np.bincount(_member_column(members, preds, i), minlength=preds.n_labels)
    return int(np.argmax(counts))


def margin(members: Sequence[int], preds: PredictionMatrix, i: int) -> float:
    """Average signed correctness of the members on sample ``i``, in [-1, 1]."""
    if len(members) == 0:
        raise ValueError("cannot compute a margin with an empty member list")
    correct = int(np.sum(_member_column(members, preds, i) == preds.labels[i]))
    return 2.0 * correct / len(members) - 1.0


def matern52(x1: np.ndarray, x2: np.ndarray, hypers: GpHyperparams) -> float:
    """Matern-5/2 covariance between two points with per-dimension scaling."""
    a = np.asarray(x1, dtype=float)
    b = np.asarray(x2, dtype=float)
    if a.shape != b.shape:
        raise ValueError("points must share a dimension")
    d = a - b
    r2 = float(np.sum((d / hypers.lengthscales) ** 2))
    r = math.sqrt(r2)
    return hypers.amplitude * (1.0 + SQRT5 * r + 5.0 * r2 / 3.0) * math.exp(-SQRT5 * r)


def log_pdf_at_log(prior: LogNormalPrior, log_x: float) -> float:
    """Density of log(x) under ``prior``, -inf outside its support."""
    if not math.log(prior.low) <= log_x <= math.log(prior.high):
        return -math.inf
    z = (log_x - math.log(prior.median)) / prior.log_sd
    return -0.5 * z * z - math.log(prior.log_sd) - HALF_LOG_2PI


def expected_improvement(mean: float, variance: float, best: float) -> float:
    """Expected improvement of a Gaussian belief below the incumbent ``best``."""
    if variance < VARIANCE_FLOOR:
        raise ValueError(f"negative predictive variance: {variance}")
    sigma = math.sqrt(max(variance, 0.0))
    gap = best - mean
    if sigma == 0.0:
        return max(gap, 0.0)
    z = gap / sigma
    value = gap * ndtr(z) + sigma * INV_SQRT_2PI * math.exp(-0.5 * z * z)
    return max(float(value), 0.0)


def fold_losses(
    val_row: np.ndarray,
    labels_val: np.ndarray,
    plan: SplitPlan,
    n: int,
) -> list[float]:
    """Zero-one error of the pooled row restricted to each fold."""
    nontest = plan.non_test(n)
    position = {int(idx): p for p, idx in enumerate(nontest)}
    out = []
    for fold in plan.folds:
        pos = np.array([position[int(i)] for i in fold], dtype=np.int64)
        if pos.size == 0:
            continue
        out.append(float(np.mean(val_row[pos] != labels_val[pos])))
    return out


def train_linear(C: float, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Weights and biases of the one-vs-rest linear classifier, one class at a time."""
    mean, sd = _standardize_stats(data.features)
    X = (data.features - mean) / sd
    n = X.shape[0]
    present = np.unique(data.labels)
    weights = np.zeros((present.size, data.n_features))
    biases = np.zeros(present.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, c in enumerate(present):
            target = np.where(data.labels == c, 1.0, -1.0)
            w = np.zeros(data.n_features)
            b = 0.0
            for it in range(LINEAR_ITERATIONS):
                step = 0.1 / (1.0 + 0.01 * it)
                z = np.clip(target * (X @ w + b), -500.0, 500.0)
                s = target / (1.0 + np.exp(z))
                grad_w = -(X.T @ s) / n + w / (C * n)
                grad_b = -np.mean(s)
                w = w - step * grad_w
                b = b - step * grad_b
            weights[i] = w
            biases[i] = b
    return weights, biases


def predict_knn(params: dict[str, Any], X: np.ndarray) -> np.ndarray:
    """kNN vote over a full stable sort of each row's distances."""
    Xs = (X - params["mean"]) / params["sd"]
    train_x = params["train_x"]
    d2 = (
        np.sum(Xs * Xs, axis=1)[:, None]
        + np.sum(train_x * train_x, axis=1)[None, :]
        - 2.0 * (Xs @ train_x.T)
    )
    # stable sort keeps equidistant neighbours in training order
    order = np.argsort(d2, axis=1, kind="stable")[:, : params["k"]]
    votes = params["train_y"][order]
    out = np.empty(X.shape[0], dtype=np.int64)
    for i in range(X.shape[0]):
        out[i] = np.argmax(np.bincount(votes[i], minlength=params["n_labels"]))
    return out


def cross_val_predictions(
    algo: str, config: Config, data: Dataset, plan: SplitPlan, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-fold and test rows, scattered one sample at a time through a dict."""
    nontest = plan.non_test(data.n_samples)
    position = {int(idx): p for p, idx in enumerate(nontest)}
    val_row = np.full(nontest.size, -1, dtype=np.int64)
    for f_i, fold in enumerate(plan.folds):
        if fold.size == 0:
            continue
        train_mask = np.ones(data.n_samples, dtype=bool)
        train_mask[plan.test] = False
        train_mask[fold] = False
        train_idx = np.flatnonzero(train_mask)
        model = train(algo, config, data.subset(train_idx), seed, fold=f_i)
        preds = predict(model, data.features[fold])
        for idx, p in zip(fold, preds):
            val_row[position[int(idx)]] = p
    final = train(algo, config, data.subset(nontest), seed)
    test_row = predict(final, data.features[plan.test])
    return val_row, test_row


def run_bo(
    space: SearchSpace,
    evaluator: Evaluator,
    budget: int,
    init: int = 5,
    seed: int = 0,
    settings: SearchSettings | None = None,
) -> tuple[History, RunArtifact]:
    """Single-model GP search as its own loop, on each model's validation error."""
    if init < 1 or budget < init:
        raise ValueError("need budget >= init >= 1")
    settings = settings or SearchSettings()
    rng = np.random.default_rng(seed)
    history = History(evaluator.labels_val, evaluator.labels_test, evaluator.n_labels)
    artifact = RunArtifact(
        engine="bo",
        budget=budget,
        init=init,
        seed=seed,
        loss="zero_one",
        space=space.to_dict(),
        n_labels=evaluator.n_labels,
    )
    for i in range(budget):
        losses = history.val_losses()
        gp_samples = None
        incumbent = None
        if i < init:
            u = sample(space, rng)
        else:
            u, gp_samples, incumbent = _propose(space, history.points(), losses, settings, rng)
        config = decode(u, space)
        val_row, test_row, failed = _safe_evaluate(evaluator, config, u, seed, i)
        history.append(config, u, val_row, test_row, degenerate=failed)
        artifact.iterations.append(
            IterationLog(
                iteration=i,
                point=tuple(float(x) for x in u),
                observation_digest=digest_vector(losses),
                incumbent=incumbent,
                gp_samples=gp_samples,
                degenerate=failed,
            )
        )
    return history, artifact


def write_int_rows(path: str, rows: np.ndarray) -> None:
    """One line per row, values joined by commas, each formatted with ``str``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in np.atleast_2d(rows).tolist())


def read_int_rows(path: str) -> np.ndarray:
    """Comma-separated integer rows parsed by ``np.loadtxt``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(path, dtype=np.int64, delimiter=",", ndmin=2, comments=None)
