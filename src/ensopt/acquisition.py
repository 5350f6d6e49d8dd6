"""Expected-improvement acquisition over one or more GP states."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .hyperspace import SearchSpace
from .surrogate import GpState

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
VARIANCE_FLOOR = -1e-10


@dataclass
class AcquisitionContext:
    """Scoring context: GP posterior samples, incumbent, and search effort.

    ``best`` is the incumbent loss in raw units.  ``candidates`` uniform
    points are scored and the best one is polished by ``refinements`` rounds
    of coordinate-wise Gaussian perturbation.
    """

    states: Sequence[GpState]
    best: float
    candidates: int = 1000
    refinements: int = 20


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


def _ei_batch(means: np.ndarray, variances: np.ndarray, best: float) -> np.ndarray:
    if (variances < VARIANCE_FLOOR).any():
        raise ValueError("negative predictive variance")
    sigma = np.sqrt(np.maximum(variances, 0.0))
    gap = best - means
    pos = sigma > 0.0
    if pos.all():
        z = gap / sigma
        out = gap * ndtr(z) + sigma * INV_SQRT_2PI * np.exp(-0.5 * z * z)
        return np.maximum(out, 0.0)
    out = np.maximum(gap, 0.0)
    if np.any(pos):
        z = gap[pos] / sigma[pos]
        out[pos] = gap[pos] * ndtr(z) + sigma[pos] * INV_SQRT_2PI * np.exp(-0.5 * z * z)
    return np.maximum(out, 0.0)


def _score(ctx: AcquisitionContext, points: np.ndarray) -> np.ndarray:
    """Mean EI across all GP states for each row of ``points``."""
    total = np.zeros(points.shape[0])
    for state in ctx.states:
        means, variances = state.predict_batch(points)
        total += _ei_batch(means, variances, ctx.best)
    return total / len(ctx.states)


def next_point(
    ctx: AcquisitionContext,
    space: SearchSpace,
    rng: np.random.Generator,
    candidate_points: np.ndarray | None = None,
) -> np.ndarray:
    """Pick the next point to evaluate by maximizing mean EI.

    Scores ``ctx.candidates`` uniform draws (ties go to the lowest candidate
    index), then runs ``ctx.refinements`` rounds where each coordinate in
    turn is perturbed by a Gaussian step (sd 0.02, clamped to [0, 1]) and the
    move is kept only when it strictly improves the score.  All randomness
    comes from ``rng``, so a fixed seed fixes the result.

    ``candidate_points`` replaces the uniform draw when given; it is meant
    for diagnostics such as scoring a fixed grid.
    """
    if len(ctx.states) == 0:
        raise ValueError("at least one GP state is required")
    d = space.dimension
    if candidate_points is None:
        points = rng.random((ctx.candidates, d))
    else:
        points = np.asarray(candidate_points, dtype=float)
        if points.ndim != 2 or points.shape[1] != d:
            raise ValueError("candidate points must be (n, dimension)")
        if points.shape[0] == 0:
            raise ValueError("candidate points must be non-empty")
    scores = _score(ctx, points)
    idx = int(np.argmax(scores))
    best_point = points[idx].copy()
    best_score = scores[idx]
    for _ in range(ctx.refinements):
        for axis in range(d):
            prop = best_point.copy()
            prop[axis] = min(max(prop[axis] + rng.normal(0.0, 0.02), 0.0), 1.0)
            score = _score(ctx, prop[None, :])[0]
            if score > best_score:
                best_point = prop
                best_score = score
    return best_point
