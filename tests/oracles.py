"""Scalar reference computations that the tests check the library against.

They are written per sample and per member, independent of the vectorized
vote tallies in ``ensopt.ensemble``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ensopt.ensemble import PredictionMatrix


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
