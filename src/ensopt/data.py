"""Dataset ingestion, stratified splitting and cross-validated predictions."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .hyperspace import Config
from .learners import Dataset, predict, train


class DataError(ValueError):
    """Raised for unreadable or malformed dataset input."""


def _label_sort_key(value: str):
    try:
        return (0, float(value), value)
    except ValueError:
        return (1, 0.0, value)


def load_csv(path: str, label_col: str | int) -> Dataset:
    """Load a CSV with a header row into a :class:`Dataset`.

    ``label_col`` selects the label column by name or positional index; all
    remaining columns are parsed as float features.  Labels are mapped onto
    integer codes following a canonical ordering (numeric where possible,
    lexicographic otherwise).
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file, expected a header row") from None
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None

    header = [h.strip() for h in header]
    if isinstance(label_col, int):
        if not 0 <= label_col < len(header):
            raise DataError(f"label column index {label_col} out of range")
        label_idx = label_col
    else:
        if label_col not in header:
            raise DataError(f"label column {label_col!r} not found in header")
        label_idx = header.index(label_col)
    feature_idx = [i for i in range(len(header)) if i != label_idx]
    if len(feature_idx) == 0:
        raise DataError(f"{path}: no feature columns")
    if len(rows) == 0:
        raise DataError(f"{path}: no data rows")

    features = np.empty((len(rows), len(feature_idx)))
    raw_labels: list[str] = []
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {r + 1} has {len(row)} fields, expected {len(header)}"
            )
        for j, i in enumerate(feature_idx):
            cell = row[i].strip()
            try:
                features[r, j] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {r + 1}, column {header[i]!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
        label = row[label_idx].strip()
        if label == "":
            raise DataError(f"{path}: row {r + 1}: empty label")
        raw_labels.append(label)
    # float() parses "nan" and "inf", which no learner can use
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        r, j = bad[0]
        raise DataError(
            f"{path}: row {r + 1}, column {header[feature_idx[j]]!r}: "
            f"{rows[r][feature_idx[j]].strip()!r} is not a finite number"
        )

    names = tuple(sorted(set(raw_labels), key=_label_sort_key))
    if len(names) < 2:
        raise DataError(f"{path}: need at least 2 distinct labels, got {len(names)}")
    code = {name: i for i, name in enumerate(names)}
    labels = np.array([code[l] for l in raw_labels], dtype=np.int64)
    return Dataset(features, labels, names)


def merge_with_test(train_data: Dataset, test_data: Dataset) -> tuple[Dataset, np.ndarray]:
    """Concatenate a fixed test set onto a training set with one label map."""
    if train_data.n_features != test_data.n_features:
        raise DataError("train and test sets disagree on the feature count")
    names = tuple(
        sorted(set(train_data.label_names) | set(test_data.label_names), key=_label_sort_key)
    )
    code = {name: i for i, name in enumerate(names)}

    def remap(ds: Dataset) -> np.ndarray:
        return np.array([code[ds.label_names[c]] for c in ds.labels], dtype=np.int64)

    features = np.vstack([train_data.features, test_data.features])
    labels = np.concatenate([remap(train_data), remap(test_data)])
    test_indices = np.arange(train_data.n_samples, train_data.n_samples + test_data.n_samples)
    return Dataset(features, labels, names), test_indices


@dataclass(frozen=True)
class SplitPlan:
    """Index sets of one evaluation design: held-out test plus CV folds."""

    test: np.ndarray
    folds: tuple[np.ndarray, ...]

    def non_test(self, n: int) -> np.ndarray:
        mask = np.ones(n, dtype=bool)
        mask[self.test] = False
        return np.flatnonzero(mask)


def _largest_remainder(counts: np.ndarray, total: int, fraction: float) -> np.ndarray:
    quotas = counts * fraction
    base = np.floor(quotas).astype(np.int64)
    remainder = total - int(base.sum())
    if remainder > 0:
        order = np.argsort(-(quotas - base), kind="stable")
        for i in order[:remainder]:
            base[i] += 1
    return base


def make_split(
    data: Dataset,
    test_fraction: float,
    folds: int,
    seed: int,
    fixed_test: np.ndarray | None = None,
) -> SplitPlan:
    """Build a stratified test split plus stratified ``folds``-fold CV of the rest.

    The test set holds ``floor(n * test_fraction)`` samples with per-label
    counts within one of proportionality; folds partition the remaining
    indices, stratified the same way.  ``fixed_test`` pins the test indices
    instead of sampling them (used when a separate test file is supplied).
    """
    if folds < 2:
        raise DataError("at least 2 folds are required")
    n = data.n_samples
    rng = np.random.default_rng(seed)
    if fixed_test is not None:
        test = np.sort(np.asarray(fixed_test, dtype=np.int64))
    else:
        if not 0.0 < test_fraction < 1.0:
            raise DataError("test_fraction must lie in (0, 1)")
        total = int(np.floor(n * test_fraction))
        label_indices = [np.flatnonzero(data.labels == c) for c in range(data.n_labels)]
        counts = np.array([idx.size for idx in label_indices])
        quotas = _largest_remainder(counts, total, test_fraction)
        picks = []
        for idx, q in zip(label_indices, quotas):
            perm = rng.permutation(idx)
            picks.append(perm[:q])
        test = np.sort(np.concatenate(picks))

    mask = np.ones(n, dtype=bool)
    mask[test] = False
    rest = np.flatnonzero(mask)
    fold_lists: list[list[int]] = [[] for _ in range(folds)]
    for c in range(data.n_labels):
        idx = rest[data.labels[rest] == c]
        if idx.size < folds:
            warnings.warn(
                f"label {data.label_names[c]!r} has {idx.size} non-test samples "
                f"for {folds} folds; folds will miss it",
                stacklevel=2,
            )
        perm = rng.permutation(idx)
        for pos, sample_idx in enumerate(perm):
            fold_lists[(pos + c) % folds].append(int(sample_idx))
    return SplitPlan(
        test=test,
        folds=tuple(np.array(sorted(f), dtype=np.int64) for f in fold_lists),
    )


def cross_val_predictions(
    algo: str,
    config: Config,
    data: Dataset,
    plan: SplitPlan,
) -> tuple[np.ndarray, np.ndarray]:
    """Pooled out-of-fold predictions plus test predictions for one config.

    Each fold is predicted by a model trained on the remaining folds, giving
    exactly one prediction per non-test index (returned in non-test index
    order).  The test row comes from a model retrained on the full non-test
    portion.  The fold models and the refit are trained in one ``train``
    call, so every training set is checked before any fit.
    """
    nontest = plan.non_test(data.n_samples)
    folds = [fold for fold in plan.folds if fold.size]
    training_sets = []
    for fold in folds:
        train_mask = np.ones(data.n_samples, dtype=bool)
        train_mask[plan.test] = False
        train_mask[fold] = False
        training_sets.append(data.subset(np.flatnonzero(train_mask)))
    *fold_models, final = train(algo, config, [*training_sets, data.subset(nontest)])
    val_row = np.full(nontest.size, -1, dtype=np.int64)
    for fold, model in zip(folds, fold_models):
        # nontest is sorted, so searchsorted finds each fold index's position
        val_row[np.searchsorted(nontest, fold)] = predict(model, data.features[fold])
    test_row = predict(final, data.features[plan.test])
    return val_row, test_row
