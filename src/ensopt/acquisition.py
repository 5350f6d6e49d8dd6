"""Expected-improvement acquisition over one or more GP states."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .hyperspace import SearchSpace
from .surrogate import GpState, SampleStack

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
VARIANCE_FLOOR = -1e-10


@dataclass
class AcquisitionContext:
    """Scoring context: GP posterior samples, incumbent, and search effort.

    ``best`` is the incumbent loss in raw units.  ``candidates`` uniform
    points are scored and the best one is polished by ``refinements`` rounds
    of coordinate-wise Gaussian perturbation.  The states must share one
    observation set, as the hyperparameter samples of one posterior do.
    """

    states: Sequence[GpState]
    best: float
    candidates: int = 1000
    refinements: int = 20


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


def _mean_ei(rows: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Mean of per-sample EI rows, added one sample at a time in order.

    numpy's own sum over the sample axis would add in a pairwise order.
    """
    total = np.zeros(len(rows[0]))
    for row in rows:
        total += row
    return total / len(rows)


def _score(ctx: AcquisitionContext, points: np.ndarray) -> np.ndarray:
    """Mean EI across all GP states for each row of ``points``, one state at a time."""
    return _mean_ei([_ei_batch(*state.predict_batch(points), ctx.best) for state in ctx.states])


def _score_stacked(stack: SampleStack, best: float, points: np.ndarray) -> np.ndarray:
    """``_score`` with every state's prediction and EI made in one stacked pass."""
    return _mean_ei(_ei_batch(*stack.predict(points), best))


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

    The candidate batch is scored one state at a time, which keeps its
    temporaries in cache; each refinement move is scored for all states in
    one stacked pass.
    """
    stack = SampleStack.of(ctx.states)
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
            score = _score_stacked(stack, ctx.best, prop[None, :])[0]
            if score > best_score:
                best_point = prop
                best_score = score
    return best_point
