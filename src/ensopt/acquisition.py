"""Expected-improvement acquisition, averaged over a GP's hyperparameter samples."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .surrogate import GpState

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _ei_batch(means: np.ndarray, variances: np.ndarray, best: float) -> np.ndarray:
    """EI below ``best``; ``variances`` are non-negative, as ``GpState.predict_batch`` gives them."""
    sigma = np.sqrt(variances)
    gap = best - means
    pos = sigma > 0.0
    # sigma = 0 divides by 1 and keeps max(gap, 0); every other entry runs the EI formula
    z = gap / np.where(pos, sigma, 1.0)
    ei = gap * ndtr(z) + sigma * INV_SQRT_2PI * np.exp(-0.5 * z * z)
    return np.maximum(np.where(pos, ei, gap), 0.0)


def _score(gp: GpState, best: float, points: np.ndarray) -> np.ndarray:
    """Mean EI over the hyperparameter samples at each row of ``points``.

    The sample rows are added one at a time in order: numpy's own sum over
    the sample axis would add in a pairwise order.
    """
    rows = _ei_batch(*gp.predict_batch(points), best)
    total = np.zeros(rows.shape[1])
    for row in rows:
        total += row
    return total / len(rows)


def next_point(
    gp: GpState,
    best: float,
    rng: np.random.Generator,
    candidates: int,
    refinements: int,
) -> np.ndarray:
    """Pick the next point to evaluate by maximizing mean EI below the incumbent ``best``.

    Scores ``candidates`` uniform draws (ties go to the lowest candidate
    index), then runs ``refinements`` rounds where each coordinate in turn is
    perturbed by a Gaussian step (sd 0.02, clamped to [0, 1]) and the move is
    kept only when it strictly improves the score.  All randomness comes from
    ``rng``, so a fixed seed fixes the result.
    """
    d = gp.obs.dimension
    points = rng.random((candidates, d))
    scores = _score(gp, best, points)
    idx = int(np.argmax(scores))
    best_point = points[idx].copy()
    best_score = scores[idx]
    for _ in range(refinements):
        for axis in range(d):
            prop = best_point.copy()
            prop[axis] = min(max(prop[axis] + rng.normal(0.0, 0.02), 0.0), 1.0)
            score = _score(gp, best, prop[None, :])[0]
            if score > best_score:
                best_point = prop
                best_score = score
    return best_point
