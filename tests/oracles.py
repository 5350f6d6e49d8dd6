"""Reference computations that the tests check the library against.

The vote references are written per sample and per member, independent of
the vectorized vote tallies in ``ensopt.ensemble``.  The scalar kernel, EI,
prior density and per-fold loss are the plain formulas the vectorized code
paths must agree with.  The learner and cross-validation references are the
straightforward loops the fast paths in ``ensopt.learners`` and
``ensopt.data`` replaced; the tests require their outputs bit for bit.
``run_bo`` is the stand-alone single-model loop that ``ensopt.optimizer.run_bo``
replaced by delegating to the one-slot ensemble loop; the tests require the
same history and the same artifact.  ``run_document`` is the field-by-field
``run.json`` document that ``ensopt.artifact.save_artifact`` replaced by
spreading ``dataclasses.asdict``; the tests require the same file bytes.
``write_int_rows`` and ``read_int_rows`` are the text codec of integer rows
that ``ensopt.artifact`` replaced by a byte-level one; the tests require the
same file bytes and the same arrays or exception types.

The zero-one and margin losses score one member list from scratch; the
tests require ``VoteState.score_all`` and ``VoteState.zero_one`` to match
them bit for bit, and ``VoteState`` here adds the member removal those tests
drive it with.  ``encode`` inverts
``ensopt.hyperspace.decode``; ``kernel_matrix``, ``log_marginal_likelihood``
and ``predict_one`` are the kernel, likelihood and one-point posterior the
surrogate tests check against dense formulas.  ``exact_two_sided`` is the
sign-vector enumeration behind the exact Wilcoxon p-value that
``ensopt.stats`` replaced by counting; the tests require the same p bit for
bit.  ``score`` and ``next_point`` are the acquisition search over S
one-sample GP states, scored one state at a time; the tests require
``ensopt.acquisition`` on one S-sample state to give the same scores and
the same point bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Any, Sequence

import numpy as np
from scipy.special import ndtr

from ensopt.acquisition import INV_SQRT_2PI, _ei_batch
from ensopt.artifact import space_digest
from ensopt.data import SplitPlan
from ensopt.ensemble import (
    Ensemble,
    PredictionMatrix,
    _check_members,
)
from ensopt.ensemble import VoteState as LibraryVoteState
from ensopt.hyperspace import Config, ParamSpec, SearchSpace, decode, sample
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
from ensopt.surrogate import (
    HALF_LOG_2PI,
    SQRT5,
    GpHyperparams,
    GpState,
    ObservationSet,
    _kernel_from_sqdists,
    _KernelCache,
    _sq_diffs,
)


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


def log_pdf_at_log(prior: tuple[float, float, float, float], log_x: float) -> float:
    """Density of log(x) under a ``(median, log_sd, low, high)`` prior row, -inf outside its support."""
    median, log_sd, low, high = prior
    if not math.log(low) <= log_x <= math.log(high):
        return -math.inf
    z = (log_x - math.log(median)) / log_sd
    return -0.5 * z * z - math.log(log_sd) - HALF_LOG_2PI


# predictive variances below this are an error, not rounding
VARIANCE_FLOOR = -1e-10


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
    algo: str, config: Config, data: Dataset, plan: SplitPlan
) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-fold and test rows, scattered one sample at a time through a dict."""
    nontest = plan.non_test(data.n_samples)
    position = {int(idx): p for p, idx in enumerate(nontest)}
    val_row = np.full(nontest.size, -1, dtype=np.int64)
    for fold in plan.folds:
        if fold.size == 0:
            continue
        train_mask = np.ones(data.n_samples, dtype=bool)
        train_mask[plan.test] = False
        train_mask[fold] = False
        train_idx = np.flatnonzero(train_mask)
        model = train(algo, config, [data.subset(train_idx)])[0]
        preds = predict(model, data.features[fold])
        for idx, p in zip(fold, preds):
            val_row[position[int(idx)]] = p
    final = train(algo, config, [data.subset(nontest)])[0]
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
        losses = np.array(history.val_losses)
        gp_samples = None
        incumbent = None
        if i < init:
            u = sample(space, rng)
        else:
            points = np.array(history.points)
            u, gp_samples, incumbent = _propose(points, losses, settings, rng)
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


def run_document(artifact: RunArtifact) -> dict[str, Any]:
    """``run.json`` of ``artifact`` without ``created_at``, listed field by field."""
    return {
        "engine": artifact.engine,
        "budget": artifact.budget,
        "init": artifact.init,
        "seed": artifact.seed,
        "loss": artifact.loss,
        "space": artifact.space,
        "space_digest": space_digest(artifact.space),
        "n_labels": artifact.n_labels,
        "ensemble_size": artifact.ensemble_size,
        "iterations": [dataclasses.asdict(it) for it in artifact.iterations],
        "final": artifact.final,
    }


def write_int_rows(path: str, rows: np.ndarray) -> None:
    """One line per row, values joined by commas, each formatted with ``str``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in np.atleast_2d(rows).tolist())


def read_int_rows(path: str) -> np.ndarray:
    """Comma-separated integer rows parsed by ``np.loadtxt``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(path, dtype=np.int64, delimiter=",", ndmin=2, comments=None)


def _correct_counts(members: Sequence[int], preds: PredictionMatrix) -> np.ndarray:
    correct = np.zeros(preds.n_samples, dtype=np.int64)
    for m in members:
        correct += preds.rows[m] == preds.labels
    return correct


def _margin_loss_from_correct(correct: np.ndarray, k: int, n: int) -> float:
    # (1 - margin) / 2 == (k - correct) / k; integer sums keep equal losses
    # exactly equal in float, so argmin ties are well defined
    return int(np.sum(k - correct)) / (n * k)


def _squared_margin_loss_from_correct(correct: np.ndarray, k: int, n: int) -> float:
    # (1 - margin)^2 / 4 == (k - correct)^2 / k^2
    wrong = k - correct
    return int(np.sum(wrong * wrong)) / (n * k * k)


def zero_one_loss(members: Sequence[int], preds: PredictionMatrix) -> float:
    """Fraction of samples the majority vote misclassifies, tallied from scratch."""
    if len(members) == 0:
        raise ValueError("cannot score an empty member list")
    _check_members(members, preds)
    counts = np.zeros((preds.n_labels, preds.n_samples), dtype=np.int64)
    cols = np.arange(preds.n_samples)
    for m in members:
        counts[preds.rows[m], cols] += 1
    # argmax scans labels in order, so ties go to the smallest label
    return float(np.mean(np.argmax(counts, axis=0) != preds.labels))


def margin_loss(members: Sequence[int], preds: PredictionMatrix) -> float:
    """Mean of (1 - margin) / 2; linear in each member's own error."""
    if len(members) == 0:
        raise ValueError("cannot score an empty member list")
    _check_members(members, preds)
    correct = _correct_counts(members, preds)
    return _margin_loss_from_correct(correct, len(members), preds.n_samples)


def squared_margin_loss(members: Sequence[int], preds: PredictionMatrix) -> float:
    """Mean of (1 - margin)^2 / 4; penalizes narrow-majority samples."""
    if len(members) == 0:
        raise ValueError("cannot score an empty member list")
    _check_members(members, preds)
    correct = _correct_counts(members, preds)
    return _squared_margin_loss_from_correct(correct, len(members), preds.n_samples)


LOSS_FNS = {
    "zero_one": zero_one_loss,
    "margin": margin_loss,
    "squared_margin": squared_margin_loss,
}


def eval_with_candidate(
    ensemble: Ensemble,
    candidate: int,
    preds: PredictionMatrix,
    loss: str,
) -> float:
    """Loss of the ensemble's occupied slots with ``candidate`` appended.

    With an empty ensemble this is the candidate's single-model loss.
    """
    members = ensemble.members() + (candidate,)
    return LOSS_FNS[loss](members, preds)


class VoteState(LibraryVoteState):
    """``ensopt.ensemble.VoteState`` that can also drop a member."""

    def remove(self, h: int) -> None:
        """Drop one occurrence of ``h``; raises ``ValueError`` if absent."""
        if int(h) not in self.members:
            raise ValueError(f"model id {h} is not a member")
        self.members.remove(int(h))
        row = self.preds.rows[h]
        self.counts[row, self._cols] -= 1
        self.correct -= row == self.preds.labels


def _encode_one(value: Any, spec: ParamSpec) -> float:
    if spec.kind == "categorical":
        try:
            idx = spec.categories.index(str(value))
        except ValueError:
            raise ValueError(
                f"parameter {spec.name!r}: {value!r} is not a known category"
            ) from None
        return (idx + 0.5) / len(spec.categories)
    v = float(value)
    if not spec.lower <= v <= spec.upper:
        raise ValueError(f"parameter {spec.name!r}: value {value!r} out of bounds")
    if spec.kind == "continuous":
        return (v - spec.lower) / (spec.upper - spec.lower)
    if spec.kind == "log-continuous":
        lo = math.log10(spec.lower)
        hi = math.log10(spec.upper)
        return (math.log10(v) - lo) / (hi - lo)
    # integer: the centre of the value's bin
    if v != int(v):
        raise ValueError(f"parameter {spec.name!r}: expected an integer, got {value!r}")
    lo = int(spec.lower)
    hi = int(spec.upper)
    return (int(v) - lo + 0.5) / (hi - lo + 1)


def encode(config: Config, space: SearchSpace) -> np.ndarray:
    """Map a configuration back into the unit cube.

    Inverts :func:`decode` exactly for continuous kinds; integer and
    categorical values map to the centre of their bin, so
    ``decode(encode(c)) == c`` for every valid configuration.
    """
    extra = set(config.values) - set(space.names)
    if extra:
        raise ValueError(f"unknown parameters: {sorted(extra)}")
    out = np.empty(space.dimension, dtype=float)
    for i, spec in enumerate(space.params):
        if spec.name not in config.values:
            raise ValueError(f"parameter {spec.name!r}: missing value")
        out[i] = _encode_one(config.values[spec.name], spec)
    return out


def kernel_matrix(X1: np.ndarray, X2: np.ndarray, hypers: GpHyperparams) -> np.ndarray:
    """Covariance matrix between two sets of points."""
    return _kernel_from_sqdists(
        _sq_diffs(X1, X2) @ (1.0 / hypers.lengthscales**2), hypers.amplitude
    )


def log_marginal_likelihood(obs: ObservationSet, hypers: GpHyperparams) -> float:
    """Marginal log likelihood of the standardized targets under ``hypers``.

    Raises ``NumericalError`` when the covariance cannot be factorized.
    """
    if hypers.lengthscales.shape != (obs.dimension,):
        raise ValueError("one lengthscale per input dimension is required")
    return _KernelCache(obs)(hypers.amplitude, hypers.lengthscales, hypers.noise)


def predict_one(state: GpState, x: np.ndarray) -> tuple[float, float]:
    """Posterior mean and variance of a one-sample state at one point, in raw target units."""
    mean, var = state.predict_batch(np.asarray(x, dtype=float)[None, :])
    return float(mean[0, 0]), float(var[0, 0])


def exact_two_sided(ranks: np.ndarray, t_observed: float) -> float:
    """Exact two-sided signed-rank p by enumerating every sign vector.

    The enumeration ``ensopt.stats`` replaced by counting doubled W+ values,
    taken 2^14 sign vectors at a time so that n = 20 stays small in memory.
    """
    n = ranks.size
    total = float(ranks.sum())
    shifts = np.arange(n, dtype=np.uint64)
    count = 0
    for start in range(0, 2**n, 2**14):
        masks = np.arange(start, min(start + 2**14, 2**n), dtype=np.uint64)
        bits = (masks[:, None] >> shifts) & 1
        w_plus = bits.astype(float) @ ranks
        count += int(np.sum(w_plus <= t_observed)) + int(np.sum(w_plus >= total - t_observed))
    return min(1.0, count / 2.0**n)


def score(states: Sequence[GpState], best: float, points: np.ndarray) -> np.ndarray:
    """Mean EI across one-sample GP states for each row of ``points``, one state at a time."""
    total = np.zeros(points.shape[0])
    for state in states:
        means, variances = state.predict_batch(points)
        total += _ei_batch(means, variances, best)[0]
    return total / len(states)


def next_point(
    states: Sequence[GpState],
    best: float,
    space: SearchSpace,
    rng: np.random.Generator,
    candidates: int,
    refinements: int,
) -> np.ndarray:
    """Maximize mean EI with ``score`` for the candidates and for every refinement move."""
    d = space.dimension
    points = rng.random((candidates, d))
    scores = score(states, best, points)
    idx = int(np.argmax(scores))
    best_point = points[idx].copy()
    best_score = scores[idx]
    for _ in range(refinements):
        for axis in range(d):
            prop = best_point.copy()
            prop[axis] = min(max(prop[axis] + rng.normal(0.0, 0.02), 0.0), 1.0)
            value = score(states, best, prop[None, :])[0]
            if value > best_score:
                best_point = prop
                best_score = value
    return best_point
