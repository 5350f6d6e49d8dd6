"""Gaussian-process regression over encoded configurations.

The surrogate models observed losses as a GP with a Matern-5/2 kernel using
one lengthscale per input dimension.  Targets are standardized internally;
predictions are reported in the original units.  Kernel hyperparameters are
integrated out approximately by slice sampling their log posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpotrs, dtrtrs

SQRT5 = math.sqrt(5.0)
LOG_2PI = math.log(2.0 * math.pi)
HALF_LOG_2PI = 0.5 * LOG_2PI

# Jitter added to the covariance diagonal, as a fraction of the amplitude.
# Escalates by x10 on factorization failure up to the maximum.
JITTER_START = 1e-8
JITTER_MAX = 1e-4


class NumericalError(RuntimeError):
    """Raised when a covariance matrix cannot be factorized even with jitter."""


@dataclass(frozen=True, eq=False)
class GpHyperparams:
    """Kernel amplitude sigma_f^2, per-dimension lengthscales, noise variance."""

    amplitude: float
    lengthscales: np.ndarray
    noise: float

    def __post_init__(self) -> None:
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        object.__setattr__(self, "lengthscales", ls)
        if self.amplitude <= 0.0:
            raise ValueError("amplitude must be positive")
        if np.any(ls <= 0.0):
            raise ValueError("lengthscales must be positive")
        if self.noise < 0.0:
            raise ValueError("noise variance must be non-negative")

    def as_list(self) -> list[float]:
        return [float(self.amplitude), *map(float, self.lengthscales), float(self.noise)]


@dataclass(frozen=True)
class LogNormalPrior:
    """Log-normal prior with support truncated to [low, high]."""

    median: float
    log_sd: float
    low: float = 1e-6
    high: float = 1e3

    def log_pdf_at_log(self, log_x: float) -> float:
        """Density of log(x) under the prior, -inf outside the support."""
        if not math.log(self.low) <= log_x <= math.log(self.high):
            return -math.inf
        z = (log_x - math.log(self.median)) / self.log_sd
        return -0.5 * z * z - math.log(self.log_sd) - HALF_LOG_2PI


@dataclass(frozen=True)
class HyperPriors:
    amplitude: LogNormalPrior = LogNormalPrior(median=1.0, log_sd=1.0)
    lengthscale: LogNormalPrior = LogNormalPrior(median=0.25, log_sd=1.0)
    noise: LogNormalPrior = LogNormalPrior(median=0.01, log_sd=1.0)


class ObservationSet:
    """Inputs in the unit cube paired with standardized scalar targets.

    Targets are shifted to zero mean and scaled to unit variance.  When the
    raw targets are (numerically) constant they are only centred and the set
    is flagged, so later de-standardization stays finite.  Inputs and targets
    must be finite: this is where data enters the GP, and the factorizations
    downstream do not check again.
    """

    def __init__(self, inputs: np.ndarray, targets: Sequence[float] | np.ndarray):
        X = np.asarray(inputs, dtype=float)
        y = np.asarray(targets, dtype=float)
        if X.ndim != 2:
            raise ValueError("inputs must be a 2-d array")
        if y.shape != (X.shape[0],):
            raise ValueError("targets must match the number of input rows")
        if X.shape[0] == 0:
            raise ValueError("observation set must be non-empty")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("inputs and targets must be finite")
        self.inputs = X
        self.raw_targets = y
        self.mean = float(np.mean(y))
        sd = float(np.std(y))
        self.constant = sd < 1e-12
        self.scale = 1.0 if self.constant else sd
        self.targets = (y - self.mean) / self.scale

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def dimension(self) -> int:
        return self.inputs.shape[1]


def matern52(x1: np.ndarray, x2: np.ndarray, hypers: GpHyperparams) -> float:
    """Matern-5/2 covariance between two points with per-dimension scaling."""
    a = np.asarray(x1, dtype=float)
    b = np.asarray(x2, dtype=float)
    if a.shape != b.shape:
        raise ValueError("points must share a dimension")
    d = a - b
    r2 = float(np.sum((d / hypers.lengthscales) ** 2))
    r = math.sqrt(r2)
    return hypers.amplitude * (1.0 + SQRT5 * r + 5.0 * r2 / 3.0) * math.exp(-SQRT5 * r)


def _scaled_sqdists(X1: np.ndarray, X2: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    A = X1 / lengthscales
    return _sqdists(A, (A * A).sum(axis=1)[:, None], X2 / lengthscales)


def _sqdists(A: np.ndarray, A_sqnorms: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of A and B, given A's column of row norms."""
    d2 = A_sqnorms + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    return np.maximum(d2, 0.0)


def _kernel_from_sqdists(r2: np.ndarray, amplitude: float) -> np.ndarray:
    r = np.sqrt(r2)
    return amplitude * (1.0 + SQRT5 * r + (5.0 / 3.0) * r2) * np.exp(-SQRT5 * r)


def kernel_matrix(X1: np.ndarray, X2: np.ndarray, hypers: GpHyperparams) -> np.ndarray:
    """Covariance matrix between two sets of points."""
    return _kernel_from_sqdists(
        _scaled_sqdists(X1, X2, hypers.lengthscales), hypers.amplitude
    )


def _factorize(K: np.ndarray, amplitude: float, noise: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``K + (noise + jitter * amplitude) I``, and the jitter.

    The jitter starts at ``JITTER_START`` and grows x10 on each failure up to
    ``JITTER_MAX``.  The shift is written into ``K``'s diagonal in place, so
    ``K`` must be a C-contiguous array the caller owns.
    """
    t = K.shape[0]
    diag = K.reshape(-1)[:: t + 1]
    base = diag.copy()
    jitter = JITTER_START
    while True:
        np.add(base, noise + jitter * amplitude, out=diag)
        try:
            return np.linalg.cholesky(K), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > JITTER_MAX * (1.0 + 1e-12):
                raise NumericalError(
                    "covariance matrix is not positive definite at maximum jitter"
                ) from None


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L L^T x = b``: the LAPACK call ``scipy.linalg.cho_solve`` makes."""
    x, info = dpotrs(L, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


class GpState:
    """A GP conditioned on an observation set under fixed hyperparameters."""

    def __init__(self, obs: ObservationSet, hypers: GpHyperparams):
        if hypers.lengthscales.shape != (obs.dimension,):
            raise ValueError("one lengthscale per input dimension is required")
        self.obs = obs
        self.hypers = hypers
        K = kernel_matrix(obs.inputs, obs.inputs, hypers)
        self.chol, self.jitter = _factorize(K, hypers.amplitude, hypers.noise)
        self.alpha = _cho_solve(self.chol, obs.targets)
        # query-independent halves of the kernel and of the triangular solve
        self._scaled = obs.inputs / hypers.lengthscales
        self._sqnorms = (self._scaled * self._scaled).sum(axis=1)[:, None]
        # the LAPACK call scipy.linalg.solve_triangular(chol, b, lower=True)
        # makes: the transposed factor when the factor is not Fortran-ordered
        if self.chol.flags.f_contiguous:
            self._tri = (self.chol, 1, 0)
        else:
            self._tri = (self.chol.T, 0, 1)

    def predict(self, x: np.ndarray) -> tuple[float, float]:
        """Posterior mean and variance at one point, in raw target units."""
        mean, var = self.predict_batch(np.asarray(x, dtype=float)[None, :])
        return float(mean[0]), float(var[0])

    def predict_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.obs.dimension:
            raise ValueError("query points must match the observation dimension")
        amplitude = self.hypers.amplitude
        r2 = _sqdists(self._scaled, self._sqnorms, X / self.hypers.lengthscales)
        k_star = _kernel_from_sqdists(r2, amplitude)
        mean_std = k_star.T @ self.alpha
        tri, lower, trans = self._tri
        v, info = dtrtrs(tri, k_star, lower=lower, trans=trans)
        if info != 0:
            raise NumericalError(f"triangular solve failed (info {info})")
        var_std = np.maximum(amplitude - (v * v).sum(axis=0), 0.0)
        mean = mean_std * self.obs.scale + self.obs.mean
        var = var_std * self.obs.scale**2
        return mean, var


def fit(obs: ObservationSet, hypers: GpHyperparams) -> GpState:
    """Condition a GP on ``obs`` under ``hypers``."""
    return GpState(obs, hypers)


def log_marginal_likelihood(obs: ObservationSet, hypers: GpHyperparams) -> float:
    """Marginal log likelihood of the standardized targets under ``hypers``.

    Raises ``NumericalError`` when the covariance cannot be factorized.
    """
    if hypers.lengthscales.shape != (obs.dimension,):
        raise ValueError("one lengthscale per input dimension is required")
    return _LmlCache(obs)(hypers.amplitude, hypers.lengthscales, hypers.noise)


class _LmlCache:
    """Fast marginal-likelihood evaluation over one observation set.

    Precomputes per-dimension squared coordinate differences so repeated
    evaluations under different hyperparameters only contract against the
    inverse squared lengthscales.
    """

    def __init__(self, obs: ObservationSet):
        X = obs.inputs
        diffs = X[:, None, :] - X[None, :, :]
        self.sq = diffs * diffs  # (t, t, d)
        self.y = obs.targets

    def __call__(self, amplitude: float, lengthscales: np.ndarray, noise: float) -> float:
        y = self.y
        K = _kernel_from_sqdists(self.sq @ (1.0 / lengthscales**2), amplitude)
        L, _ = _factorize(K, amplitude, noise)
        alpha = _cho_solve(L, y)
        return float(
            -0.5 * (y @ alpha) - np.log(L.diagonal()).sum() - 0.5 * y.shape[0] * LOG_2PI
        )


def _log_posterior(obs: ObservationSet, priors: HyperPriors):
    """Log posterior density of theta = log(amplitude, lengthscales..., noise).

    The prior terms are summed left to right in theta's order, then the
    marginal likelihood is added.  Points outside a prior's support, and
    points whose covariance cannot be factorized, get ``-inf``.
    """
    d = obs.dimension
    lml = _LmlCache(obs)
    coord_priors = [priors.amplitude] + [priors.lengthscale] * d + [priors.noise]
    terms = [
        (math.log(p.low), math.log(p.high), math.log(p.median), p.log_sd, math.log(p.log_sd))
        for p in coord_priors
    ]

    def log_target(theta: np.ndarray) -> float:
        prior = 0.0
        for value, (low, high, mu, sd, log_sd) in zip(theta.tolist(), terms):
            if not low <= value <= high:
                return -math.inf
            z = (value - mu) / sd
            prior += -0.5 * z * z - log_sd - HALF_LOG_2PI
        vals = np.exp(theta)
        try:
            return lml(float(vals[0]), vals[1 : 1 + d], float(vals[1 + d])) + prior
        except NumericalError:
            return -math.inf

    return log_target


def _slice_axis(
    log_target,
    theta: np.ndarray,
    f0: float,
    axis: int,
    width: float,
    rng: np.random.Generator,
    max_steps: int = 100,
) -> tuple[np.ndarray, float]:
    """One univariate slice-sampling update with step-out along ``axis``."""
    u = rng.random()
    threshold = f0 + math.log(max(u, 1e-300))
    r = rng.random()
    lo = theta[axis] - r * width
    hi = theta[axis] + (1.0 - r) * width

    def eval_at(v: float) -> float:
        prop = theta.copy()
        prop[axis] = v
        return log_target(prop)

    steps = max_steps
    while steps > 0 and eval_at(lo) > threshold:
        lo -= width
        steps -= 1
    steps = max_steps
    while steps > 0 and eval_at(hi) > threshold:
        hi += width
        steps -= 1

    for _ in range(max_steps):
        v = rng.uniform(lo, hi)
        f = eval_at(v)
        if f > threshold:
            theta = theta.copy()
            theta[axis] = v
            return theta, f
        if v < theta[axis]:
            lo = v
        else:
            hi = v
    return theta, f0


def slice_sample_hypers(
    obs: ObservationSet,
    priors: HyperPriors,
    count: int,
    rng: np.random.Generator,
    burn_in: int = 30,
    thin: int = 2,
    width: float = 1.0,
) -> list[GpHyperparams]:
    """Draw kernel hyperparameters from their posterior by slice sampling.

    The walk operates on the logs of (amplitude, lengthscales..., noise),
    restarts from the prior medians on every call, runs ``burn_in`` full
    coordinate sweeps, then records one sample every ``thin`` sweeps until
    ``count`` samples are collected.  Hyperparameters whose fit fails are
    treated as zero-probability and therefore rejected by the walk.

    Parameters
    ----------
    obs : ObservationSet
        Data the posterior is conditioned on.
    priors : HyperPriors
        Truncated log-normal priors per hyperparameter group.
    count : int
        Number of samples to return.
    rng : numpy.random.Generator
        Drives every random draw; fixing it fixes the output.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    d = obs.dimension
    log_target = _log_posterior(obs, priors)
    theta = np.log(
        np.array(
            [priors.amplitude.median]
            + [priors.lengthscale.median] * d
            + [priors.noise.median]
        )
    )
    f = log_target(theta)

    def sweep(theta: np.ndarray, f: float) -> tuple[np.ndarray, float]:
        for axis in range(d + 2):
            theta, f = _slice_axis(log_target, theta, f, axis, width, rng)
        return theta, f

    for _ in range(burn_in):
        theta, f = sweep(theta, f)
    samples: list[GpHyperparams] = []
    while len(samples) < count:
        for _ in range(max(thin, 1)):
            theta, f = sweep(theta, f)
        samples.append(_theta_to_hypers(theta, d))
    return samples


def _theta_to_hypers(theta: np.ndarray, d: int) -> GpHyperparams:
    vals = np.exp(theta)
    return GpHyperparams(
        amplitude=float(vals[0]),
        lengthscales=vals[1 : 1 + d].copy(),
        noise=float(vals[1 + d]),
    )
