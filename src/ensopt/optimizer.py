"""The sequential optimization loop over classifier configurations.

``run_eo`` tunes for the ensemble: one slot is vacated per iteration in
round-robin order, the surrogate regresses the loss of the remaining
ensemble joined with each known model, and the freshly trained model
competes for the vacated slot.  ``run_bo`` tunes for the best single model
and is implemented as the one-slot case of that loop: with one slot and the
zero-one loss the vacated ensemble is always empty, so the surrogate
regresses each configuration's own validation error.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Protocol, Sequence

import numpy as np

from .acquisition import next_point
from .data import SplitPlan, cross_val_predictions
from .ensemble import (
    LOSSES,
    Ensemble,
    PredictionMatrix,
    greedy_select,
    observation_vector,
    round_robin_replace,
    zero_one_ensemble_loss,
)
from .hyperspace import Config, SearchSpace, decode, sample
from .learners import Dataset, check_algorithms
from .surrogate import ObservationSet, fit, slice_sample_hypers


@dataclass
class SearchSettings:
    """Effort knobs for the surrogate and the acquisition search."""

    burn_in: int = 30
    gp_samples: int = 10
    thin: int = 2
    candidates: int = 1000
    refinements: int = 20


class History:
    """Insertion-ordered pool of every model trained during a run, one list per field.

    Model ``i`` is entry ``i`` of ``configs``, ``points``, ``val_rows``,
    ``test_rows``, ``val_losses`` and ``degenerate``; ``extend`` is the only
    writer of these columns.
    """

    def __init__(self, labels_val: np.ndarray, labels_test: np.ndarray, n_labels: int):
        self.labels_val = np.asarray(labels_val, dtype=np.int64)
        self.labels_test = np.asarray(labels_test, dtype=np.int64)
        self.n_labels = int(n_labels)
        self.configs: list[Config] = []
        self.points: list[np.ndarray] = []
        self.val_rows: list[np.ndarray] = []
        self.test_rows: list[np.ndarray] = []
        self.val_losses: list[float] = []
        self.degenerate: list[bool] = []

    def __len__(self) -> int:
        return len(self.configs)

    def append(
        self,
        config: Config,
        point: np.ndarray,
        val_row: np.ndarray,
        test_row: np.ndarray,
        degenerate: bool = False,
    ) -> None:
        # one-row views, so the columns keep the caller's int64 rows uncopied
        val_rows = np.asarray(val_row, dtype=np.int64)[None]
        test_rows = np.asarray(test_row, dtype=np.int64)[None]
        self.extend([config], [point], val_rows, test_rows, [degenerate])

    def extend(
        self,
        configs: Sequence[Config],
        points: Sequence[np.ndarray] | np.ndarray,
        val_rows: Sequence[np.ndarray] | np.ndarray,
        test_rows: Sequence[np.ndarray] | np.ndarray,
        degenerate: Sequence[bool],
    ) -> None:
        """Add one model per config, in the order given."""
        m = len(configs)
        if m == 0:
            return
        val_rows = np.asarray(val_rows, dtype=np.int64)
        test_rows = np.asarray(test_rows, dtype=np.int64)
        if val_rows.shape != (m, *self.labels_val.shape):
            raise ValueError("validation row shape mismatch")
        if test_rows.shape != (m, *self.labels_test.shape):
            raise ValueError("test row shape mismatch")
        points = np.array(points, dtype=float)
        if len(points) != m or len(degenerate) != m:
            raise ValueError("configs, points and degenerate flags differ in length")
        # counting 0/1 mismatches is exact, so this equals the per-row mean
        losses = np.count_nonzero(val_rows != self.labels_val, axis=1) / self.labels_val.size
        self.configs.extend(configs)
        self.points.extend(points)
        self.val_rows.extend(val_rows)
        self.test_rows.extend(test_rows)
        self.val_losses.extend(losses.tolist())
        self.degenerate.extend(bool(flag) for flag in degenerate)

    def val_matrix(self) -> PredictionMatrix:
        return PredictionMatrix(np.array(self.val_rows), self.labels_val, self.n_labels)

    def test_matrix(self) -> PredictionMatrix:
        return PredictionMatrix(np.array(self.test_rows), self.labels_test, self.n_labels)


class Evaluator(Protocol):
    """Trains one configuration and returns (validation row, test row)."""

    labels_val: np.ndarray
    labels_test: np.ndarray
    n_labels: int

    def __call__(
        self, config: Config, point: np.ndarray, seed: int, iteration: int
    ) -> tuple[np.ndarray, np.ndarray]: ...


class CrossValEvaluator:
    """Standard evaluator: cross-validated learners on a split dataset."""

    def __init__(
        self,
        algorithms: Sequence[str],
        data: Dataset,
        plan: SplitPlan,
    ):
        self.algorithms = check_algorithms(algorithms)
        self.data = data
        self.plan = plan
        nontest = plan.non_test(data.n_samples)
        self.labels_val = data.labels[nontest]
        self.labels_test = data.labels[plan.test]
        self.n_labels = data.n_labels

    def __call__(
        self, config: Config, point: np.ndarray, seed: int, iteration: int
    ) -> tuple[np.ndarray, np.ndarray]:
        if len(self.algorithms) > 1:
            algo = config["algorithm"]
        else:
            algo = self.algorithms[0]
        return cross_val_predictions(algo, config, self.data, self.plan)


@dataclass
class IterationLog:
    """Audit record of one optimization iteration."""

    iteration: int
    point: tuple[float, ...]
    observation_digest: str
    incumbent: float | None = None
    slot: int | None = None
    ensemble: tuple[int | None, ...] | None = None
    gp_samples: list[list[float]] | None = None
    degenerate: bool = False


@dataclass
class RunArtifact:
    """Everything needed to audit and rebuild a finished run."""

    engine: str
    budget: int
    init: int
    seed: int
    loss: str
    space: dict[str, Any]
    n_labels: int
    ensemble_size: int | None = None
    iterations: list[IterationLog] = field(default_factory=list)
    final: dict[str, Any] = field(default_factory=dict)


def digest_vector(values: np.ndarray | Sequence[float]) -> str:
    """Stable content hash of a float vector."""
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def _safe_evaluate(
    evaluator: Evaluator,
    config: Config,
    point: np.ndarray,
    seed: int,
    iteration: int,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Evaluate a configuration, degrading to a constant model on a numerical failure.

    Only value, arithmetic and runtime errors (``LinAlgError`` and
    ``NumericalError`` among them) are caught; any other exception is a
    programming error and ends the run.
    """
    try:
        val_row, test_row = evaluator(config, point, seed, iteration)
        return np.asarray(val_row), np.asarray(test_row), False
    except (ValueError, ArithmeticError, RuntimeError):
        val_row = np.zeros(evaluator.labels_val.shape, dtype=np.int64)
        test_row = np.zeros(evaluator.labels_test.shape, dtype=np.int64)
        return val_row, test_row, True


def _propose(
    points: np.ndarray,
    losses: np.ndarray,
    settings: SearchSettings,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[list[float]], float]:
    """Fit the surrogate on (points, losses) and maximize acquisition."""
    obs = ObservationSet(points, losses)
    hyper_samples = slice_sample_hypers(
        obs, settings.gp_samples, rng, burn_in=settings.burn_in, thin=settings.thin
    )
    incumbent = float(np.min(losses))
    point = next_point(
        fit(obs, hyper_samples), incumbent, rng, settings.candidates, settings.refinements
    )
    return point, [h.as_list() for h in hyper_samples], incumbent


def run_bo(
    space: SearchSpace,
    evaluator: Evaluator,
    budget: int,
    init: int = 5,
    seed: int = 0,
    settings: SearchSettings | None = None,
) -> tuple[History, RunArtifact]:
    """Optimize single-model validation error with a GP surrogate.

    The first ``init`` iterations draw uniform configurations; afterwards the
    surrogate is refit from scratch each iteration on all observed losses and
    the expected-improvement maximizer is evaluated next.  This is ``run_eo``
    with one slot and the zero-one loss: the vacated ensemble is always
    empty, so each model's ensemble-aware loss is its own validation error.
    Only the fields that have no meaning without an ensemble are cleared.
    """
    history, _, artifact = run_eo(space, evaluator, budget, 1, "zero_one", init, seed, settings)
    artifact.engine = "bo"
    artifact.ensemble_size = None
    for log in artifact.iterations:
        log.slot = log.ensemble = None
    return history, artifact


def run_eo(
    space: SearchSpace,
    evaluator: Evaluator,
    budget: int,
    ensemble_size: int,
    loss: str = "squared_margin",
    init: int = 5,
    seed: int = 0,
    settings: SearchSettings | None = None,
) -> tuple[History, Ensemble, RunArtifact]:
    """Optimize an ensemble of fixed size by round-robin slot updates.

    Iteration ``i`` vacates slot ``i mod ensemble_size``, scores every known
    model joined with the remaining members (the observation vector), fits
    the surrogate on those ensemble-aware losses, trains the acquisition
    maximizer and finally refills the slot with the pool-wide best model,
    which may be the one just removed.  The first ``init`` iterations use
    random configurations but keep the same bookkeeping.
    """
    if ensemble_size < 1:
        raise ValueError("ensemble_size must be at least 1")
    if init < 1 or budget < init:
        raise ValueError("need budget >= init >= 1")
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}")
    settings = settings or SearchSettings()
    rng = np.random.default_rng(seed)
    history = History(evaluator.labels_val, evaluator.labels_test, evaluator.n_labels)
    artifact = RunArtifact(
        engine="eo",
        budget=budget,
        init=init,
        seed=seed,
        loss=loss,
        space=space.to_dict(),
        n_labels=evaluator.n_labels,
        ensemble_size=ensemble_size,
    )
    ensemble = Ensemble.empty(ensemble_size)
    for i in range(budget):
        j = i % ensemble_size
        ensemble = ensemble.with_slot(j, None)
        gp_samples = None
        incumbent = None
        if len(history) == 0:
            observations = np.empty(0)
            u = sample(space, rng)
        else:
            preds = history.val_matrix()
            observations = observation_vector(ensemble, preds, loss)
            if i < init:
                u = sample(space, rng)
            else:
                u, gp_samples, incumbent = _propose(
                    np.array(history.points), observations, settings, rng
                )
        config = decode(u, space)
        val_row, test_row, failed = _safe_evaluate(evaluator, config, u, seed, i)
        history.append(config, u, val_row, test_row, degenerate=failed)
        ensemble = round_robin_replace(
            ensemble, j, range(len(history)), history.val_matrix(), loss
        )
        artifact.iterations.append(
            IterationLog(
                iteration=i,
                point=tuple(float(x) for x in u),
                observation_digest=digest_vector(observations),
                incumbent=incumbent,
                slot=j,
                ensemble=ensemble.slots,
                gp_samples=gp_samples,
                degenerate=failed,
            )
        )
    return history, ensemble, artifact


def select_best(history: History) -> int:
    """Id of the model with the lowest validation error, ties to lowest id."""
    if len(history) == 0:
        raise ValueError("history is empty")
    return int(np.argmin(history.val_losses))


def post_hoc(history: History, size: int, warm_k: int = 3) -> Ensemble:
    """Greedy ensemble over the full history on pooled validation error."""
    if len(history) == 0:
        raise ValueError("history is empty")
    return greedy_select(
        range(len(history)), history.val_matrix(), size, warm_k, "zero_one"
    )


def evaluate_on_test(selection: int | Ensemble, history: History) -> float:
    """Held-out test error of a single model or an ensemble selection."""
    if isinstance(selection, Ensemble):
        members = selection.members()
        if len(members) == 0:
            raise ValueError("ensemble has no occupied slots")
        return zero_one_ensemble_loss(members, history.test_matrix())
    return zero_one_ensemble_loss((int(selection),), history.test_matrix())
