"""Nonparametric comparison of methods over datasets and repetitions.

Implements the usual protocol for comparing classifiers across many
datasets (Demsar 2006) as one ``compare`` result: per-dataset mean errors
and mean ranks, Wilcoxon signed-rank tests for every pair (exact p up to
20 datasets, the normal approximation beyond), the Friedman rank test
across all methods and the Nemenyi critical difference for post-hoc
grouping.

Ranks and chi-square tails match ``scipy.stats`` bit for bit without
importing it, which would cost every process that loads the CLI about 38 MB.
The normal and chi-square tails come from ``scipy.special``, imported only
when a Wilcoxon p-value needs the normal approximation or a Friedman
p-value is computed, so loading this module loads no scipy.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# The columns of a results CSV, in the order ``batch`` writes them.
RESULT_COLUMNS = ("method", "dataset", "repetition", "error")

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
            required = set(RESULT_COLUMNS)
            if reader.fieldnames is None or not required <= set(reader.fieldnames):
                raise ValueError(f"{path}: expected columns {sorted(required)}")
            for row in reader:
                if any(row[name] is None for name in required):
                    raise ValueError(f"{path}: line {reader.line_num} has too few fields")
                rows.append(
                    (row["method"], row["dataset"], row["repetition"], float(row["error"]))
                )
        if not rows:
            raise ValueError(f"{path}: no result rows")
        return cls.from_records(rows)


def _mid_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks along axis 0: a tie at sorted positions i..j ranks (i + j) / 2 + 1."""
    order = np.argsort(x, axis=0)
    s = np.take_along_axis(x, order, axis=0)
    pos = np.arange(len(x)).reshape((-1,) + (1,) * (x.ndim - 1))
    new, edge = s[1:] != s[:-1], np.ones_like(s[:1], dtype=bool)
    first = np.maximum.accumulate(np.where(np.concatenate([edge, new]), pos, 0), axis=0)
    last = np.where(np.concatenate([new, edge]), pos, len(x))
    last = np.minimum.accumulate(last[::-1], axis=0)[::-1]
    ranks = np.empty(s.shape)
    np.put_along_axis(ranks, order, (first + last) / 2.0 + 1.0, axis=0)
    return ranks


@dataclass
class WilcoxonResult:
    statistic: float
    p_value: float
    n_effective: int
    exact: bool
    degenerate: bool = False


def _exact_two_sided(ranks: np.ndarray, t_observed: float) -> float:
    """Share of the 2^n sign assignments at least as extreme as ``t_observed``.

    Mid ranks are multiples of 0.5, so doubled they are integers: the
    assignments are counted per doubled W+ value, one rank at a time.
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        counts[r:] += counts[:-r].copy()
    t = int(2.0 * t_observed)
    count = int(counts[: t + 1].sum()) + int(counts[total - t :].sum())
    return min(1.0, count / 2.0**ranks.size)


def wilcoxon_signed_rank(
    a: Sequence[float] | np.ndarray,
    b: Sequence[float] | np.ndarray,
    exact_cutoff: int = 14,
) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; tied absolute differences receive mid
    ranks.  With at most ``exact_cutoff`` non-zero differences the p-value
    is exact over all sign assignments, otherwise it uses the normal
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
    ranks = _mid_ranks(np.abs(d))
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
    from scipy.special import ndtr

    z = (t_observed - mean + 0.5) / math.sqrt(variance)
    p = min(1.0, 2.0 * float(ndtr(z)))
    return WilcoxonResult(t_observed, p, n, exact=False)


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
    from scipy.special import chdtrc

    # chi2.sf(stat, k - 1) is chdtrc above 0 and 1 at or below it; chdtrc
    # gives NaN below 0
    p = float(chdtrc(k - 1, max(stat, 0.0)))
    return stat, p


def nemenyi_cd(k: int, n_datasets: int, alpha: float = 0.05) -> float:
    """Critical rank difference below which methods are indistinguishable."""
    if alpha not in NEMENYI_Q:
        raise ValueError(f"alpha must be one of {sorted(NEMENYI_Q)}")
    if not 2 <= k <= 10:
        raise ValueError(f"the Nemenyi critical values cover 2 to 10 methods, got {k}")
    if n_datasets < 2:
        raise ValueError("need at least 2 datasets")
    q = NEMENYI_Q[alpha][k - 2]
    return q * math.sqrt(k * (k + 1) / (6.0 * n_datasets))


def rank_groups(mean_ranks: np.ndarray, cd: float) -> list[tuple[int, ...]]:
    """Maximal groups of methods whose rank span is within ``cd``."""
    order = np.argsort(mean_ranks, kind="stable")
    ranks = mean_ranks[order]
    groups: list[tuple[int, ...]] = []
    for start in range(order.size):
        end = start
        while end + 1 < order.size and ranks[end + 1] - ranks[start] <= cd:
            end += 1
        if end > start:
            group = tuple(int(i) for i in order[start : end + 1])
            if not groups or not set(group) <= set(groups[-1]):
                groups.append(group)
    return groups


@dataclass
class Comparison:
    """The comparison protocol's result for one results table.

    ``means`` is [method, dataset]; ``mean_ranks`` ranks those means per
    dataset and ``rep_ranks`` ranks every (dataset, repetition) cell.
    ``p_values`` holds the pairwise Wilcoxon tests on the means, symmetric
    with 1.0 on the diagonal; ``row_worse[i, j]`` marks that method ``i`` has
    the worse (higher) mean rank of the pair.  The Friedman ``(statistic,
    p)``, the Nemenyi ``cd`` and its ``groups`` need 3 or more methods.
    """

    methods: tuple[str, ...]
    datasets: tuple[str, ...]
    means: np.ndarray
    mean_ranks: np.ndarray
    rep_ranks: np.ndarray
    p_values: np.ndarray
    row_worse: np.ndarray
    friedman: tuple[float, float] | None = None
    cd: float | None = None
    groups: list[tuple[int, ...]] = field(default_factory=list)


def compare(table: ResultTable, alpha: float = 0.05) -> Comparison:
    """Run the whole protocol; ``ValueError`` when the table cannot be tested."""
    means = table.errors.mean(axis=2)
    k, n_datasets = means.shape
    if k < 2:
        raise ValueError("need at least 2 methods to compare")
    mean_ranks = _mid_ranks(means).mean(axis=1)
    p = np.ones((k, k))
    for i, j in itertools.combinations(range(k), 2):
        p[i, j] = p[j, i] = wilcoxon_signed_rank(means[i], means[j], exact_cutoff=20).p_value
    # every (dataset, repetition) cell ranked: ranks are multiples of 0.5,
    # so the mean over cells is exact in any summation order
    rep_ranks = _mid_ranks(table.errors).mean(axis=(1, 2))
    worse = mean_ranks[:, None] > mean_ranks[None, :]
    result = Comparison(table.methods, table.datasets, means, mean_ranks, rep_ranks, p, worse)
    if k >= 3:
        result.friedman = friedman_from_ranks(mean_ranks, n_datasets)
        result.cd = nemenyi_cd(k, n_datasets, alpha)
        result.groups = rank_groups(mean_ranks, result.cd)
    return result
