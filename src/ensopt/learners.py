"""Self-contained deterministic base classifiers.

Four algorithms share one ``train``/``predict`` interface: k-nearest
neighbours, a CART-style decision tree, Gaussian naive Bayes and a
one-vs-rest regularized linear classifier.  Training on a single-class
subset yields a constant model flagged as degenerate instead of an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .hyperspace import Config, ParamSpec, SearchSpace

ALGORITHMS = ("knn", "tree", "gnb", "linear")


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
    config: Config
    params: dict[str, Any]
    seed: int
    fold: int | None = None
    degenerate: bool = False


def default_space(algorithms: Sequence[str] = ALGORITHMS) -> SearchSpace:
    """Joint search space over the given algorithms and their tunables.

    With several algorithms the first dimension picks the algorithm and the
    remaining dimensions are the union of all subspaces; dimensions of
    inactive algorithms are decoded but ignored at training time.
    """
    algos = tuple(algorithms)
    for a in algos:
        if a not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}")
    if len(algos) == 0:
        raise ValueError("at least one algorithm is required")
    specs: list[ParamSpec] = []
    if len(algos) > 1:
        specs.append(ParamSpec("algorithm", "categorical", categories=algos))
    if "knn" in algos:
        specs.append(ParamSpec("n_neighbors", "integer", 1, 30))
    if "tree" in algos:
        specs.append(ParamSpec("max_depth", "integer", 1, 10))
        specs.append(ParamSpec("min_samples_split", "integer", 2, 100))
        specs.append(ParamSpec("min_samples_leaf", "integer", 2, 100))
    if "linear" in algos:
        specs.append(ParamSpec("C", "log-continuous", 1e-5, 1e5))
    return SearchSpace(tuple(specs))


def _require(config: Config, name: str, algo: str) -> Any:
    if name not in config.values:
        raise ValueError(f"algorithm {algo!r} requires parameter {name!r}")
    return config.values[name]


def _standardize_stats(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd > 0.0, sd, 1.0)
    return mean, sd


def train(
    algo: str,
    config: Config,
    data: Dataset,
    seed: int,
    fold: int | None = None,
) -> TrainedModel:
    """Fit one base classifier on ``data``.

    Feature standardization, where an algorithm uses it, is fit on this
    training data only and reapplied unchanged at prediction time.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if data.n_samples == 0:
        raise ValueError("cannot train on an empty dataset")
    present = np.unique(data.labels)
    if present.size == 1:
        # single-class subset: constant prediction, flagged for the caller
        return TrainedModel(
            algo, config, {"constant": int(present[0])}, seed, fold, degenerate=True
        )
    trainer = {
        "knn": _train_knn,
        "tree": _train_tree,
        "gnb": _train_gnb,
        "linear": _train_linear,
    }[algo]
    params = trainer(config, data)
    return TrainedModel(algo, config, params, seed, fold)


def predict(model: TrainedModel, features: np.ndarray) -> np.ndarray:
    """Predict integer label codes for each row of ``features``."""
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be a 2-d array")
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
    k = int(_require(config, "n_neighbors", "knn"))
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
    # stable sort keeps equidistant neighbours in training order
    order = np.argsort(d2, axis=1, kind="stable")[:, : params["k"]]
    votes = params["train_y"][order]
    out = np.empty(X.shape[0], dtype=np.int64)
    for i in range(X.shape[0]):
        out[i] = np.argmax(np.bincount(votes[i], minlength=params["n_labels"]))
    return out


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
    max_depth = int(_require(config, "max_depth", "tree"))
    min_split = int(_require(config, "min_samples_split", "tree"))
    min_leaf = int(_require(config, "min_samples_leaf", "tree"))
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


def _train_linear(config: Config, data: Dataset) -> dict[str, Any]:
    C = float(_require(config, "C", "linear"))
    if C <= 0.0:
        raise ValueError("C must be positive")
    mean, sd = _standardize_stats(data.features)
    X = (data.features - mean) / sd
    n = X.shape[0]
    present = np.unique(data.labels)
    weights = np.zeros((present.size, data.n_features))
    biases = np.zeros(present.size)
    # extreme C can overflow under the fixed step schedule; IEEE semantics
    # still give deterministic (if useless) predictions, so silence the flags
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
    return {
        "n_features": data.n_features,
        "mean": mean,
        "sd": sd,
        "classes": present,
        "weights": weights,
        "biases": biases,
        "n_labels": data.n_labels,
    }


def _predict_linear(params: dict[str, Any], X: np.ndarray) -> np.ndarray:
    Xs = (X - params["mean"]) / params["sd"]
    with np.errstate(invalid="ignore"):
        raw = Xs @ params["weights"].T + params["biases"]
    scores = np.full((X.shape[0], params["n_labels"]), -np.inf)
    scores[:, params["classes"]] = raw
    return np.argmax(scores, axis=1).astype(np.int64)
