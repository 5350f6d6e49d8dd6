"""Self-contained deterministic base classifiers and their search spaces.

Four algorithms share one ``train``/``predict`` interface: k-nearest
neighbours, a CART-style decision tree, Gaussian naive Bayes and a
one-vs-rest regularized linear classifier.  ``train`` fits one
configuration on a sequence of datasets, such as every cross-validation
fold and the refit, in one call.  Training on a single-class subset yields
a constant model flagged as degenerate instead of an error.  ``PARAMS``
lists each algorithm's parameters; ``default_space`` and ``check_space``
build and check search spaces from it.

k-nearest neighbours takes every training row strictly closer than the k-th
smallest distance, then the rows at exactly that distance in training order
until k are chosen; the vote goes to the smallest label among the most
frequent.  The linear classifier steps every class of every dataset in one
stacked state, with one matrix-vector product per class and step against
that class's own dataset, so each class follows the same arithmetic as if
it were trained alone on its dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .hyperspace import Config, ParamSpec, SearchSpace

# each algorithm's parameters with their default ranges, in the order its
# trainer reads them
PARAMS: dict[str, tuple[ParamSpec, ...]] = {
    "knn": (ParamSpec("n_neighbors", "integer", 1, 30),),
    "tree": (
        ParamSpec("max_depth", "integer", 1, 10),
        ParamSpec("min_samples_split", "integer", 2, 100),
        ParamSpec("min_samples_leaf", "integer", 2, 100),
    ),
    "gnb": (),
    "linear": (ParamSpec("C", "log-continuous", 1e-5, 1e5),),
}
ALGORITHMS = tuple(PARAMS)


@dataclass
class Dataset:
    """Feature matrix, integer label codes and the canonical label names."""

    features: np.ndarray
    labels: np.ndarray
    label_names: tuple[str, ...]

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must match the number of feature rows")
        self.label_names = tuple(self.label_names)
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= len(self.label_names)
        ):
            raise ValueError("label codes outside the declared label set")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_labels(self) -> int:
        return len(self.label_names)

    def subset(self, indices: Sequence[int] | np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.label_names)


@dataclass
class TrainedModel:
    algo: str
    params: dict[str, Any]
    degenerate: bool = False


def check_algorithms(algorithms: Sequence[str]) -> tuple[str, ...]:
    """``algorithms`` as a tuple: non-empty, known names, no duplicates."""
    algos = tuple(algorithms)
    if not algos:
        raise ValueError("at least one algorithm is required")
    for a in algos:
        if a not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}")
        if algos.count(a) > 1:
            raise ValueError(f"algorithm {a!r} is listed twice")
    return algos


def default_space(algorithms: Sequence[str] = ALGORITHMS) -> SearchSpace:
    """Joint search space over the given algorithms and their ``PARAMS``.

    With several algorithms the first dimension, ``algorithm``, picks one;
    the rest are the union of their ``PARAMS`` in table order.  Dimensions of
    inactive algorithms are decoded but ignored at training time.
    """
    algos = check_algorithms(algorithms)
    specs = [ParamSpec("algorithm", "categorical", categories=algos)] if len(algos) > 1 else []
    specs += [spec for algo in PARAMS if algo in algos for spec in PARAMS[algo]]
    if not specs:
        raise ValueError(
            f"{algos[0]!r} alone leaves nothing to tune; "
            "add another algorithm or provide a space file"
        )
    return SearchSpace(tuple(specs))


def check_space(space: SearchSpace, algorithms: Sequence[str]) -> SearchSpace:
    """``space`` once it can drive a run over a config's ``algorithms``.

    With several algorithms a categorical ``algorithm`` parameter must
    select among them; every algorithm it, or the one configured, can
    select needs its ``PARAMS`` by name, in any range.
    """
    selectable = algos = check_algorithms(algorithms)
    if len(algos) > 1:
        if "algorithm" not in space.names or space["algorithm"].kind != "categorical":
            raise ValueError("several algorithms need a categorical 'algorithm' parameter")
        selectable = space["algorithm"].categories
        for algo in selectable:
            if algo not in algos:
                raise ValueError(
                    f"'algorithm' category {algo!r} is not in config field 'algorithms'"
                )
    missing = [(a, p.name) for a in selectable for p in PARAMS[a] if p.name not in space.names]
    if missing:
        raise ValueError("algorithm %r requires parameter %r, which the space lacks" % missing[0])
    return space


def _require(config: Config, algo: str) -> list[Any]:
    """Values of the parameters ``algo`` reads, in ``PARAMS`` order."""
    for spec in PARAMS[algo]:
        if spec.name not in config.values:
            raise ValueError(f"algorithm {algo!r} requires parameter {spec.name!r}")
    return [config.values[spec.name] for spec in PARAMS[algo]]


def _standardize_stats(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd > 0.0, sd, 1.0)
    return mean, sd


def train(algo: str, config: Config, datasets: Sequence[Dataset]) -> list[TrainedModel]:
    """Fit one base classifier per dataset, returned in ``datasets`` order.

    All fits of one configuration, such as every cross-validation fold and
    the refit, go through one call.  Every dataset is checked before any
    fit: the sequence must be non-empty, no dataset empty and all of them
    share one feature count.  A single-class dataset yields a constant model
    flagged as degenerate.  Feature standardization, where an algorithm uses
    it, is fit on each training set only and reapplied unchanged at
    prediction time.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if len(datasets) == 0:
        raise ValueError("no datasets to train on")
    if any(data.n_samples == 0 for data in datasets):
        raise ValueError("cannot train on an empty dataset")
    if len({data.n_features for data in datasets}) > 1:
        raise ValueError("datasets disagree on the feature count")
    if algo == "linear":
        (C,) = map(float, _require(config, "linear"))
        return _train_linear(C, datasets)
    trainer = {"knn": _train_knn, "tree": _train_tree, "gnb": _train_gnb}[algo]
    return [
        _constant_model(algo, data) or TrainedModel(algo, trainer(config, data))
        for data in datasets
    ]


def _constant_model(algo: str, data: Dataset) -> TrainedModel | None:
    """The degenerate constant model of a single-class dataset, else ``None``."""
    present = np.unique(data.labels)
    if present.size > 1:
        return None
    return TrainedModel(algo, {"constant": int(present[0])}, degenerate=True)


def predict(model: TrainedModel, features: np.ndarray) -> np.ndarray:
    """Predict integer label codes for each row of ``features``."""
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be a 2-d array")
    # a NaN distance would fall outside every kNN neighbour set
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    expected = model.params.get("n_features")
    if expected is not None and X.shape[1] != expected:
        raise ValueError(
            f"feature dimension mismatch: got {X.shape[1]}, expected {expected}"
        )
    if model.degenerate:
        return np.full(X.shape[0], model.params["constant"], dtype=np.int64)
    predictor = {
        "knn": _predict_knn,
        "tree": _predict_tree,
        "gnb": _predict_gnb,
        "linear": _predict_linear,
    }[model.algo]
    return predictor(model.params, X)


# --- k-nearest neighbours ---------------------------------------------------


def _train_knn(config: Config, data: Dataset) -> dict[str, Any]:
    (k,) = map(int, _require(config, "knn"))
    if k < 1:
        raise ValueError("n_neighbors must be at least 1")
    mean, sd = _standardize_stats(data.features)
    return {
        "n_features": data.n_features,
        "mean": mean,
        "sd": sd,
        "train_x": (data.features - mean) / sd,
        "train_y": data.labels.copy(),
        "k": min(k, data.n_samples),
        "n_labels": data.n_labels,
    }


def _predict_knn(params: dict[str, Any], X: np.ndarray) -> np.ndarray:
    Xs = (X - params["mean"]) / params["sd"]
    train_x = params["train_x"]
    d2 = (
        np.sum(Xs * Xs, axis=1)[:, None]
        + np.sum(train_x * train_x, axis=1)[None, :]
        - 2.0 * (Xs @ train_x.T)
    )
    k = params["k"]
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1, None]
    chosen = d2 <= kth
    # rows with more ties at the k-th distance than room keep the first ones
    surplus = np.flatnonzero(np.count_nonzero(chosen, axis=1) > k)
    if surplus.size:
        dist, cut = d2[surplus], kth[surplus]
        ties = dist == cut
        room = k - np.count_nonzero(dist < cut, axis=1)
        chosen[surplus] &= ~ties | (np.cumsum(ties, axis=1) <= room[:, None])
    n_labels = params["n_labels"]
    row, col = np.nonzero(chosen)
    votes = np.bincount(
        row * n_labels + params["train_y"][col], minlength=X.shape[0] * n_labels
    )
    return np.argmax(votes.reshape(X.shape[0], n_labels), axis=1)


# --- decision tree ----------------------------------------------------------


def _leaf(y: np.ndarray, n_labels: int) -> dict[str, Any]:
    return {"label": int(np.argmax(np.bincount(y, minlength=n_labels)))}


def _best_split(
    X: np.ndarray, y: np.ndarray, min_leaf: int, n_labels: int
) -> tuple[int, float] | None:
    n = X.shape[0]
    best_score = np.inf
    best: tuple[int, float] | None = None
    for feat in range(X.shape[1]):
        order = np.argsort(X[:, feat], kind="stable")
        xs = X[order, feat]
        ys = y[order]
        onehot = np.zeros((n, n_labels))
        onehot[np.arange(n), ys] = 1.0
        cum = np.cumsum(onehot, axis=0)
        total = cum[-1]
        left_n = np.arange(1, n, dtype=float)
        right_n = n - left_n
        boundary = xs[1:] > xs[:-1]
        valid = boundary & (left_n >= min_leaf) & (right_n >= min_leaf)
        if not np.any(valid):
            continue
        lc = cum[:-1]
        rc = total[None, :] - lc
        gini_l = 1.0 - np.sum((lc / left_n[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((rc / right_n[:, None]) ** 2, axis=1)
        score = (left_n * gini_l + right_n * gini_r) / n
        score[~valid] = np.inf
        i = int(np.argmin(score))
        if score[i] < best_score:
            best_score = score[i]
            best = (feat, float((xs[i] + xs[i + 1]) / 2.0))
    return best


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    depth: int,
    max_depth: int,
    min_split: int,
    min_leaf: int,
    n_labels: int,
) -> dict[str, Any]:
    if (
        depth >= max_depth
        or X.shape[0] < min_split
        or np.unique(y).size == 1
    ):
        return _leaf(y, n_labels)
    split = _best_split(X, y, min_leaf, n_labels)
    if split is None:
        return _leaf(y, n_labels)
    feat, thr = split
    mask = X[:, feat] <= thr
    return {
        "feature": feat,
        "threshold": thr,
        "left": _grow(X[mask], y[mask], depth + 1, max_depth, min_split, min_leaf, n_labels),
        "right": _grow(X[~mask], y[~mask], depth + 1, max_depth, min_split, min_leaf, n_labels),
    }


def _train_tree(config: Config, data: Dataset) -> dict[str, Any]:
    max_depth, min_split, min_leaf = map(int, _require(config, "tree"))
    if max_depth < 1 or min_split < 2 or min_leaf < 1:
        raise ValueError("invalid tree configuration")
    root = _grow(
        data.features, data.labels, 0, max_depth, min_split, min_leaf, data.n_labels
    )
    return {"n_features": data.n_features, "root": root}


def _predict_tree(params: dict[str, Any], X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.int64)

    def descend(node: dict[str, Any], idx: np.ndarray) -> None:
        if "label" in node:
            out[idx] = node["label"]
            return
        mask = X[idx, node["feature"]] <= node["threshold"]
        descend(node["left"], idx[mask])
        descend(node["right"], idx[~mask])

    descend(params["root"], np.arange(X.shape[0]))
    return out


# --- Gaussian naive Bayes ---------------------------------------------------


def _train_gnb(config: Config, data: Dataset) -> dict[str, Any]:
    X, y = data.features, data.labels
    max_var = float(np.max(X.var(axis=0))) if X.size else 0.0
    smoothing = 1e-9 * max_var if max_var > 0.0 else 1e-9
    present = np.unique(y)
    means = np.zeros((present.size, data.n_features))
    variances = np.zeros((present.size, data.n_features))
    log_priors = np.zeros(present.size)
    for i, c in enumerate(present):
        rows = X[y == c]
        means[i] = rows.mean(axis=0)
        variances[i] = rows.var(axis=0) + smoothing
        log_priors[i] = np.log(rows.shape[0] / X.shape[0])
    return {
        "n_features": data.n_features,
        "classes": present,
        "means": means,
        "variances": variances,
        "log_priors": log_priors,
        "n_labels": data.n_labels,
    }


def _predict_gnb(params: dict[str, Any], X: np.ndarray) -> np.ndarray:
    scores = np.full((X.shape[0], params["n_labels"]), -np.inf)
    for i, c in enumerate(params["classes"]):
        mu = params["means"][i]
        var = params["variances"][i]
        ll = -0.5 * np.sum(np.log(2.0 * np.pi * var) + (X - mu) ** 2 / var, axis=1)
        scores[:, c] = params["log_priors"][i] + ll
    return np.argmax(scores, axis=1).astype(np.int64)


# --- regularized linear classifier ------------------------------------------

LINEAR_ITERATIONS = 500


def _train_linear(C: float, datasets: Sequence[Dataset]) -> list[TrainedModel]:
    """One-vs-rest fits of every multi-class dataset, stepped in one stacked state.

    Row r of the weights, gradients and biases is one class of one dataset
    and keeps that dataset's n and C*n.  Margins and targets of dataset f sit
    in a ``(K_f, n_f)`` view of one flat buffer, so the elementwise chain of a
    step runs once over all of them.  The products stay one BLAS gemv per
    row against the dataset's own features: padding the datasets into one
    3-d product would change the summation blocks of the gradient dots, so
    every row follows the arithmetic of a class trained alone.
    """
    if C <= 0.0:
        raise ValueError("C must be positive")
    models = [_constant_model("linear", data) for data in datasets]
    live = [f for f, model in enumerate(models) if model is None]
    if not live:
        return models
    scalings = [_standardize_stats(datasets[f].features) for f in live]
    classes = [np.unique(datasets[f].labels) for f in live]
    counts = [present.size for present in classes]
    sizes = [datasets[f].n_samples for f in live]
    row_ends = np.cumsum(counts)
    flat_ends = np.cumsum([k * n for k, n in zip(counts, sizes)])
    Z = np.empty(flat_ends[-1])
    T = np.empty_like(Z)
    weights = np.zeros((row_ends[-1], datasets[0].n_features))
    G = np.empty_like(weights)
    biases = np.zeros(row_ends[-1])
    margin_sums = np.empty_like(biases)
    n_rows = np.repeat(np.array(sizes, dtype=float), counts)
    n_cols = n_rows[:, None]
    Cn_cols = C * n_cols
    rows = [slice(end - k, end) for k, end in zip(counts, row_ends)]
    # the views each step's per-dataset products read and write
    margin_steps, gradient_steps = [], []
    for f, (mean, sd), present, r, flat_end in zip(live, scalings, classes, rows, flat_ends):
        data = datasets[f]
        k, n = present.size, data.n_samples
        Z_f = Z[flat_end - k * n : flat_end].reshape(k, n)
        T[flat_end - k * n : flat_end] = np.where(
            data.labels[None, :] == present[:, None], 1.0, -1.0
        ).ravel()
        X = (data.features - mean) / sd
        margin_steps.append((X, weights[r, :, None], Z_f[:, :, None], Z_f, biases[r, None]))
        gradient_steps.append((X.T, Z_f[:, :, None], G[r, :, None], Z_f, margin_sums[r]))
    # extreme C can overflow under the fixed step schedule; IEEE semantics
    # still give deterministic (if useless) predictions, so silence the flags
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(LINEAR_ITERATIONS):
            step = 0.1 / (1.0 + 0.01 * it)
            for X, W3_f, Z3_f, Z_f, b_f in margin_steps:
                np.matmul(X, W3_f, out=Z3_f)
                Z_f += b_f
            Z *= T
            np.minimum(np.maximum(Z, -500.0, out=Z), 500.0, out=Z)
            np.exp(Z, out=Z)
            Z += 1.0
            np.divide(T, Z, out=Z)
            for XT, Z3_f, G3_f, Z_f, sums_f in gradient_steps:
                np.matmul(XT, Z3_f, out=G3_f)
                np.add.reduce(Z_f, axis=1, out=sums_f)
            grad_b = -(margin_sums / n_rows)
            weights -= step * (-G / n_cols + weights / Cn_cols)
            biases -= step * grad_b
    for f, (mean, sd), present, r in zip(live, scalings, classes, rows):
        models[f] = TrainedModel("linear", {
            "n_features": datasets[f].n_features,
            "mean": mean,
            "sd": sd,
            "classes": present,
            "weights": weights[r].copy(),
            "biases": biases[r].copy(),
            "n_labels": datasets[f].n_labels,
        })
    return models


def _predict_linear(params: dict[str, Any], X: np.ndarray) -> np.ndarray:
    Xs = (X - params["mean"]) / params["sd"]
    with np.errstate(invalid="ignore"):
        raw = Xs @ params["weights"].T + params["biases"]
    scores = np.full((X.shape[0], params["n_labels"]), -np.inf)
    scores[:, params["classes"]] = raw
    return np.argmax(scores, axis=1).astype(np.int64)
