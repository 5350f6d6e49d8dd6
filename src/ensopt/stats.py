"""Nonparametric comparison of methods over datasets and repetitions.

Implements the usual protocol for comparing classifiers across many
datasets: per-dataset mean errors, Wilcoxon signed-rank tests for pairs,
the Friedman rank test across all methods and the Nemenyi critical
difference for post-hoc grouping.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr
from scipy.stats import chi2, rankdata

# Critical values q_alpha(k) of the studentized range statistic divided by
# sqrt(2), for k = 2..10 methods (Demsar 2006, two-tailed Nemenyi test).
NEMENYI_Q = {
    0.05: (1.960, 2.343, 2.569, 2.728, 2.850, 2.949, 3.031, 3.102, 3.164),
    0.10: (1.645, 2.052, 2.291, 2.459, 2.589, 2.693, 2.780, 2.855, 2.920),
}


@dataclass
class ResultTable:
    """Errors indexed as [method, dataset, repetition]; cells complete."""

    errors: np.ndarray
    methods: tuple[str, ...]
    datasets: tuple[str, ...]

    def __post_init__(self) -> None:
        self.errors = np.asarray(self.errors, dtype=float)
        self.methods = tuple(self.methods)
        self.datasets = tuple(self.datasets)
        if self.errors.ndim != 3:
            raise ValueError("errors must be [method, dataset, repetition]")
        if self.errors.shape[0] != len(self.methods):
            raise ValueError("method axis does not match method names")
        if self.errors.shape[1] != len(self.datasets):
            raise ValueError("dataset axis does not match dataset names")
        if np.any(~np.isfinite(self.errors)):
            raise ValueError("errors contain non-finite cells")
        if np.any(self.errors < 0.0) or np.any(self.errors > 1.0):
            raise ValueError("errors must lie in [0, 1]")

    @classmethod
    def from_records(
        cls, rows: Sequence[tuple[str, str, str, float]]
    ) -> "ResultTable":
        """Build from (method, dataset, repetition, error) records."""
        methods = sorted({r[0] for r in rows})
        datasets = sorted({r[1] for r in rows})
        reps = sorted({r[2] for r in rows})
        index = {}
        for m, d, r, e in rows:
            key = (m, d, r)
            if key in index:
                raise ValueError(f"duplicate result for {key}")
            index[key] = float(e)
        errors = np.empty((len(methods), len(datasets), len(reps)))
        for i, m in enumerate(methods):
            for j, d in enumerate(datasets):
                for k, r in enumerate(reps):
                    if (m, d, r) not in index:
                        raise ValueError(f"missing result for {(m, d, r)}")
                    errors[i, j, k] = index[(m, d, r)]
        return cls(errors, tuple(methods), tuple(datasets))

    @classmethod
    def from_csv(cls, path: str) -> "ResultTable":
        rows = []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"method", "dataset", "repetition", "error"}
            if reader.fieldnames is None or not required <= set(reader.fieldnames):
                raise ValueError(f"{path}: expected columns {sorted(required)}")
            for row in reader:
                rows.append(
                    (row["method"], row["dataset"], row["repetition"], float(row["error"]))
                )
        if not rows:
            raise ValueError(f"{path}: no result rows")
        return cls.from_records(rows)


def average_errors(table: ResultTable) -> np.ndarray:
    """Mean error per (method, dataset) across repetitions."""
    return table.errors.mean(axis=2)


def repetition_ranks(table: ResultTable) -> np.ndarray:
    """Each method's rank within every (dataset, repetition) cell, averaged.

    Ranks are multiples of 0.5, so the sum is exact in any order.
    """
    return rankdata(table.errors, axis=0).mean(axis=(1, 2))


@dataclass
class WilcoxonResult:
    statistic: float
    p_value: float
    n_effective: int
    exact: bool
    degenerate: bool = False


def _exact_two_sided(ranks: np.ndarray, t_observed: float) -> float:
    n = ranks.size
    masks = np.arange(2**n, dtype=np.uint64)
    bits = (masks[:, None] >> np.arange(n, dtype=np.uint64)) & 1
    w_plus = bits.astype(float) @ ranks
    total = float(ranks.sum())
    count = int(np.sum(w_plus <= t_observed)) + int(np.sum(w_plus >= total - t_observed))
    return min(1.0, count / 2.0**n)


def wilcoxon_signed_rank(
    a: Sequence[float] | np.ndarray,
    b: Sequence[float] | np.ndarray,
    exact_cutoff: int = 14,
) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; tied absolute differences receive mid
    ranks.  With at most ``exact_cutoff`` non-zero differences the p-value
    enumerates all sign assignments, otherwise it uses the normal
    approximation with tie and continuity corrections.  Identical inputs
    yield p = 1 with the degenerate flag set.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-d arrays of equal length")
    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return WilcoxonResult(0.0, 1.0, 0, exact=True, degenerate=True)
    ranks = rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    total = float(ranks.sum())
    t_observed = min(w_plus, total - w_plus)
    if n <= exact_cutoff:
        p = _exact_two_sided(ranks, t_observed)
        return WilcoxonResult(t_observed, p, n, exact=True)
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    variance -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    if variance <= 0.0:
        return WilcoxonResult(t_observed, 1.0, n, exact=False, degenerate=True)
    z = (t_observed - mean + 0.5) / math.sqrt(variance)
    p = min(1.0, 2.0 * float(ndtr(z)))
    return WilcoxonResult(t_observed, p, n, exact=False)


@dataclass
class FriedmanResult:
    statistic: float
    p_value: float
    mean_ranks: np.ndarray


def ranks_from_errors(errors: np.ndarray) -> np.ndarray:
    """Per-dataset ranks of each method (rank 1 = lowest error, mid ranks)."""
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 2:
        raise ValueError("errors must be [method, dataset]")
    return np.column_stack([rankdata(errors[:, j]) for j in range(errors.shape[1])])


def friedman_from_ranks(mean_ranks: Sequence[float] | np.ndarray, n_datasets: int) -> tuple[float, float]:
    """Friedman chi-square statistic and p-value from average ranks."""
    ranks = np.asarray(mean_ranks, dtype=float)
    k = ranks.size
    if k < 3:
        raise ValueError("the Friedman test needs at least 3 methods")
    if n_datasets < 2:
        raise ValueError("the Friedman test needs at least 2 datasets")
    stat = (12.0 * n_datasets / (k * (k + 1))) * (
        float(np.sum(ranks**2)) - k * (k + 1) ** 2 / 4.0
    )
    p = float(chi2.sf(stat, k - 1))
    return stat, p


def friedman(errors: np.ndarray) -> FriedmanResult:
    """Friedman rank test on a [method, dataset] mean-error matrix."""
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 2:
        raise ValueError("errors must be [method, dataset]")
    ranks = ranks_from_errors(errors)
    mean_ranks = ranks.mean(axis=1)
    stat, p = friedman_from_ranks(mean_ranks, errors.shape[1])
    return FriedmanResult(stat, p, mean_ranks)


def nemenyi_cd(k: int, n_datasets: int, alpha: float = 0.05) -> float:
    """Critical rank difference below which methods are indistinguishable."""
    if alpha not in NEMENYI_Q:
        raise ValueError(f"alpha must be one of {sorted(NEMENYI_Q)}")
    if not 2 <= k <= 10:
        raise ValueError("tabulated critical values cover 2 <= k <= 10")
    if n_datasets < 2:
        raise ValueError("need at least 2 datasets")
    q = NEMENYI_Q[alpha][k - 2]
    return q * math.sqrt(k * (k + 1) / (6.0 * n_datasets))


@dataclass
class PairwiseReport:
    """All-pairs Wilcoxon p-values with a worse-than orientation matrix."""

    methods: tuple[str, ...]
    p_values: np.ndarray
    row_worse: np.ndarray
    mean_ranks: np.ndarray


def pairwise_report(table: ResultTable, exact_cutoff: int = 20) -> PairwiseReport:
    """Pairwise signed-rank tests on per-dataset mean errors.

    ``p_values`` is symmetric with 1.0 on the diagonal; ``row_worse[i, j]``
    marks that method ``i`` has the worse (higher) average rank of the pair.
    """
    means = average_errors(table)
    k = means.shape[0]
    mean_ranks = ranks_from_errors(means).mean(axis=1)
    p = np.ones((k, k))
    worse = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            res = wilcoxon_signed_rank(means[i], means[j], exact_cutoff=exact_cutoff)
            p[i, j] = p[j, i] = res.p_value
            if mean_ranks[i] > mean_ranks[j]:
                worse[i, j] = True
            elif mean_ranks[j] > mean_ranks[i]:
                worse[j, i] = True
    return PairwiseReport(table.methods, p, worse, mean_ranks)


def rank_groups(mean_ranks: np.ndarray, cd: float) -> list[tuple[int, ...]]:
    """Maximal groups of methods whose rank span is within ``cd``."""
    order = np.argsort(mean_ranks, kind="stable")
    groups: list[tuple[int, ...]] = []
    k = order.size
    for start in range(k):
        end = start
        while (
            end + 1 < k
            and mean_ranks[order[end + 1]] - mean_ranks[order[start]] <= cd
        ):
            end += 1
        if end > start:
            group = tuple(int(order[i]) for i in range(start, end + 1))
            if not groups or not set(group) <= set(groups[-1]):
                groups.append(group)
    return groups
