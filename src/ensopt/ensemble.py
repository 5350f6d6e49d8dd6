"""Majority-vote ensembles over cached prediction rows.

Every trained model contributes one row of predictions per evaluation split.
Ensembles are multisets of row ids (a model may occupy several slots), combined
by unweighted majority vote with ties resolved toward the smallest label.

A loss is one of the names in :data:`LOSSES`.  The observation vector,
round-robin replacement and greedy selection keep the vote tallies of the
fixed members in one :class:`VoteState`, whose :meth:`VoteState.score_all`
scores every candidate against them at once, so one greedy step costs
O(pool·N) for N samples, independent of the ensemble size.
:func:`zero_one_ensemble_loss` scores one finished member list, as the final
selections are reported.

Zero-one scoring runs on bits.  A :class:`PredictionMatrix` packs, once, each
model's one-hot votes into ``n_labels`` rows of ``ceil(N/64)`` 64-bit words.
A scoring step packs the members' miss table in the same layout (bit
``(c, i)``: one more vote for label ``c`` leaves sample ``i`` misclassified),
ANDs it with each candidate's packed votes and counts the set bits.  A step
therefore reads pool·n_labels·N bits instead of gathering pool·N label codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

LOSSES = ("zero_one", "margin", "squared_margin")


@cache  # called for every block that enters a History
def code_dtype(n_labels: int) -> np.dtype:
    """The narrowest unsigned dtype that holds the codes ``0 .. n_labels - 1``."""
    return np.min_scalar_type(max(n_labels - 1, 0))


def as_codes(values: np.ndarray, n_labels: int, what: str) -> np.ndarray:
    """Integer ``values`` as read-only codes of :func:`code_dtype`.

    ``ValueError`` for a non-integer dtype (floats are not truncated) and for
    a value outside ``[0, n_labels)``, checked before narrowing, so 256 never
    wraps to 0 nor -1 to 255.  Values already of the code dtype are not
    copied: they come back as themselves if read-only, else as a read-only
    view.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {values.dtype}")
    if values.size and (
        (values.dtype.kind == "i" and values.min() < 0) or values.max() >= n_labels
    ):
        raise ValueError(f"{what} outside the label set [0, {n_labels})")
    codes = values.astype(code_dtype(n_labels), copy=False)
    if codes.flags.writeable:
        if codes is values:
            codes = codes.view()
        codes.flags.writeable = False
    return codes


class PredictionMatrix:
    """Per-model prediction rows plus the true labels of the split.

    ``rows[m, i]`` is model ``m``'s predicted label for sample ``i``; labels
    are integer codes in ``[0, n_labels)``.  Both are kept read-only in
    :func:`code_dtype` (``uint8`` up to 256 labels), so the packed one-hot
    votes, built once, always describe the rows.
    """

    def __init__(self, rows: np.ndarray, labels: np.ndarray, n_labels: int):
        rows = np.asarray(rows)
        labels = np.asarray(labels)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-d array")
        if rows.shape[0] < 1:
            raise ValueError("at least one prediction row is required")
        if labels.shape != (rows.shape[1],):
            raise ValueError("labels must match the number of columns")
        if n_labels < 1:
            raise ValueError("n_labels must be positive")
        self.rows = as_codes(rows, n_labels, "prediction values")
        self.labels = as_codes(labels, n_labels, "label values")
        self.n_labels = n_labels
        self._onehot: np.ndarray | None = None

    @property
    def n_models(self) -> int:
        return self.rows.shape[0]

    @property
    def n_samples(self) -> int:
        return self.rows.shape[1]

    def packed_onehot(self) -> np.ndarray:
        """``(n_models, n_labels, ceil(N/64))`` words: does model ``m`` vote ``c`` on ``i``?

        Packed along the samples on first use and kept; pad bits are zero.
        """
        if self._onehot is None:
            bits = _bit_rows(self.n_models, self.n_labels, n=self.n_samples)
            codes = np.arange(self.n_labels, dtype=self.rows.dtype)[:, None]
            np.equal(self.rows[:, None, :], codes, out=bits[..., : self.n_samples])
            self._onehot = _pack_words(bits)
        return self._onehot


@dataclass(frozen=True)
class Ensemble:
    """Fixed-size slot vector; empty slots are ``None``."""

    slots: tuple[int | None, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "slots", tuple(self.slots))
        if len(self.slots) == 0:
            raise ValueError("ensemble must have at least one slot")

    @classmethod
    def empty(cls, size: int) -> "Ensemble":
        return cls(tuple([None] * size))

    @property
    def size(self) -> int:
        return len(self.slots)

    def members(self) -> tuple[int, ...]:
        return tuple(s for s in self.slots if s is not None)

    def with_slot(self, index: int, model: int | None) -> "Ensemble":
        if not 0 <= index < len(self.slots):
            raise ValueError(f"slot index {index} out of range")
        slots = list(self.slots)
        slots[index] = model
        return Ensemble(tuple(slots))


def _bit_rows(*lead: int, n: int) -> np.ndarray:
    """Zeroed bools whose last axis pads ``n`` samples to whole 64-bit words."""
    return np.zeros(lead + (-(-n // 64) * 64,), dtype=bool)


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of :func:`_bit_rows` into 64-bit words."""
    return np.packbits(bits, axis=-1).view(np.uint64)


def _check_members(members: Sequence[int], preds: PredictionMatrix) -> None:
    ids = np.asarray(members, dtype=np.int64)
    bad = ids[(ids < 0) | (ids >= preds.n_models)]
    if bad.size:
        raise ValueError(f"model id {int(bad[0])} outside the pool")


def _votes_from_counts(counts: np.ndarray) -> np.ndarray:
    # argmax scans labels in canonical order, so ties go to the smallest label
    return np.argmax(counts, axis=0)


def zero_one_ensemble_loss(members: Sequence[int], preds: PredictionMatrix) -> float:
    """Fraction of samples the majority vote misclassifies."""
    return VoteState(preds, members).zero_one()


class VoteState:
    """Vote tallies of a member multiset, scored against every candidate at once.

    ``counts[c, i]`` is the number of members voting label ``c`` on sample
    ``i`` and ``correct[i]`` the number voting the true label.  Entry ``j``
    of :meth:`score_all` is the loss of ``members + (candidates[j],)`` and
    costs O(N) per candidate instead of O(k·N).
    """

    def __init__(self, preds: PredictionMatrix, members: Sequence[int] = ()):
        self.preds = preds
        self.members: list[int] = []
        self.counts = np.zeros((preds.n_labels, preds.n_samples), dtype=np.int64)
        self.correct = np.zeros(preds.n_samples, dtype=np.int64)
        self._cols = np.arange(preds.n_samples)
        for m in members:
            self.add(m)

    @property
    def k(self) -> int:
        return len(self.members)

    def add(self, h: int) -> None:
        _check_members((h,), self.preds)
        row = self.preds.rows[h]
        self.counts[row, self._cols] += 1
        self.correct += row == self.preds.labels
        self.members.append(int(h))

    def zero_one(self) -> float:
        """Fraction of samples the members' majority vote misclassifies."""
        if not self.members:
            raise ValueError("cannot score an empty member list")
        return float(np.mean(_votes_from_counts(self.counts) != self.preds.labels))

    def _packed_miss_table(self) -> np.ndarray:
        """Packed ``(n_labels, N)`` bits: does sample ``i`` miss after one more vote for ``c``?"""
        labels = self.preds.labels
        n = self.preds.n_samples
        table = _bit_rows(self.preds.n_labels, n=n)
        for c in range(self.preds.n_labels):
            self.counts[c] += 1
            np.not_equal(_votes_from_counts(self.counts), labels, out=table[c, :n])
            self.counts[c] -= 1
        return _pack_words(table)

    def score_all(self, candidates: Sequence[int], loss: str) -> np.ndarray:
        """Loss of the members joined with each candidate, as one float64 vector.

        ``zero_one`` is the majority vote's error rate, ``margin`` the mean of
        (1 - margin) / 2 and ``squared_margin`` the mean of (1 - margin)^2 / 4,
        where a sample's margin is the members' average signed correctness.
        Each entry is an integer count over an integer denominator, so equal
        losses are equal floats and ``argmin`` ties are well defined.
        """
        if loss not in LOSSES:
            raise ValueError(f"unknown loss {loss!r}")
        cands = np.asarray(candidates, dtype=np.intp)
        _check_members(cands, self.preds)
        n = self.preds.n_samples
        k = self.k + 1
        if loss == "zero_one":
            # a candidate votes one label per sample, so its one-hot bits AND
            # the miss table count the samples it leaves misclassified
            misses = np.take(self.preds.packed_onehot(), cands, axis=0)
            misses &= self._packed_miss_table()
            wrong = np.bitwise_count(misses).sum(axis=(1, 2))
            # a mean of 0/1 values is its integer count over N, exactly
            return wrong / n
        hits = np.take(self.preds.rows, cands, axis=0) == self.preds.labels
        if loss == "margin":
            # sum(k - correct), with the candidate's hits added to correct
            total = n * k - int(np.sum(self.correct)) - np.count_nonzero(hits, axis=1)
            return total / (n * k)
        wrong = k - self.correct  # per-sample wrong votes if the candidate misses
        # sum((wrong - hit)^2) == sum(wrong^2) - hits @ (2 * wrong - 1) for 0/1 hits
        total = int(np.sum(wrong * wrong)) - hits @ (2 * wrong - 1)
        return total / (n * k * k)


def observation_vector(
    ensemble: Ensemble,
    preds: PredictionMatrix,
    loss: str,
) -> np.ndarray:
    """Loss of the ensemble's occupied slots joined with each pool model.

    The fixed part of the ensemble is tallied once in a :class:`VoteState`,
    so the cost grows linearly with the pool size.  With an empty ensemble
    entry ``h`` is model ``h``'s single-model loss.
    """
    state = VoteState(preds, ensemble.members())
    return state.score_all(np.arange(preds.n_models), loss)


def _pool_ids(pool: Sequence[int], preds: PredictionMatrix) -> np.ndarray:
    """Distinct pool ids in ascending order, so ``argmin`` ties go to the lowest id."""
    ids = np.array(sorted(set(int(h) for h in pool)), dtype=np.intp)
    if ids.size == 0:
        raise ValueError("pool must be non-empty")
    _check_members(ids, preds)
    return ids


def greedy_select(
    pool: Sequence[int],
    preds: PredictionMatrix,
    size: int,
    warm_k: int,
    loss: str,
) -> Ensemble:
    """Grow an ensemble greedily, selecting from the pool with replacement.

    The first ``warm_k`` slots take the individually best distinct pool
    models (ranked by single-model loss, ties to the lowest id).  Every
    later slot takes the pool model whose addition minimizes the ensemble
    loss, again breaking ties toward the lowest id.  One step scores the
    whole pool against the running vote tallies in O(pool·N).
    """
    pool = _pool_ids(pool, preds)
    if size < 1:
        raise ValueError("size must be at least 1")
    if warm_k < 0 or warm_k > size:
        raise ValueError("warm_k must lie in [0, size]")
    if warm_k > len(pool):
        raise ValueError("warm_k exceeds the pool size")

    state = VoteState(preds)
    singles = state.score_all(pool, loss)
    for h in pool[np.argsort(singles, kind="stable")[:warm_k]]:
        state.add(h)
    while state.k < size:
        state.add(pool[np.argmin(state.score_all(pool, loss))])
    return Ensemble(tuple(state.members))


def round_robin_replace(
    ensemble: Ensemble,
    slot: int,
    pool: Sequence[int],
    preds: PredictionMatrix,
    loss: str,
) -> Ensemble:
    """Refill one slot with the pool model minimizing the ensemble loss.

    The slot is vacated first, so the previous occupant competes on equal
    terms and may win its place back.  Ties resolve to the lowest id.
    """
    if not 0 <= slot < ensemble.size:
        raise ValueError(f"slot index {slot} out of range")
    pool = _pool_ids(pool, preds)
    vacated = ensemble.with_slot(slot, None)
    scores = VoteState(preds, vacated.members()).score_all(pool, loss)
    return vacated.with_slot(slot, int(pool[np.argmin(scores)]))
