"""Gaussian-process regression over encoded configurations.

The surrogate models observed losses as a GP with a Matern-5/2 kernel using
one lengthscale per input dimension.  Targets are standardized internally;
predictions are reported in the original units.  Kernel hyperparameters are
integrated out approximately by slice sampling their log posterior; one
``GpState`` holds the GP under every sample.

scipy's LAPACK wrappers (``dpotrs``, ``dtrtrs``) are imported when a process
builds its first ``_KernelCache``, on its first slice-sampling call or GP
fit, so a process that fits no GP never loads ``scipy.linalg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

SQRT5 = math.sqrt(5.0)
LOG_2PI = math.log(2.0 * math.pi)
HALF_LOG_2PI = 0.5 * LOG_2PI

# Jitter added to the covariance diagonal, as a fraction of the amplitude.
# Escalates by x10 on factorization failure up to the maximum.
JITTER_START = 1e-8
JITTER_MAX = 1e-4

# Log-normal hyperparameter priors, truncated to [low, high]: one row of
# (median, log_sd, low, high) per coordinate group.
PRIORS = {
    "amplitude": (1.0, 1.0, 1e-6, 1e3),
    "lengthscale": (0.25, 1.0, 1e-6, 1e3),
    "noise": (0.01, 1.0, 1e-6, 1e3),
}

# Elements of the (samples, t, m) kernel block that one prediction step
# computes.  Stacking samples saves numpy call overhead on small batches but
# costs cache on large ones: a 1000-row candidate batch is predicted one
# sample at a time, a one-row refinement move all samples in one step.
PREDICT_BLOCK = 1 << 13

# Slice sampling: initial bracket width in log space, and the cap on the
# step-out and shrink iterations of one univariate update.
SLICE_WIDTH = 1.0
SLICE_MAX_STEPS = 100


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


def _sq_diffs(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared coordinate differences between the rows of A and B, ``(a, b, d)``."""
    diffs = A[:, None, :] - B[None, :, :]
    return np.multiply(diffs, diffs, out=diffs)


def _matern_shape(r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The amplitude-free factors of the Matern-5/2 kernel: polynomial and exponential."""
    r = np.sqrt(r2)
    return 1.0 + SQRT5 * r + (5.0 / 3.0) * r2, np.exp(-SQRT5 * r)


def _kernel_from_sqdists(r2: np.ndarray, amplitude: float | np.ndarray) -> np.ndarray:
    poly, e = _matern_shape(r2)
    return amplitude * poly * e


def _factorize(K: np.ndarray, amplitude: float, noise: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``K + (noise + jitter * amplitude) I``, and the jitter.

    The jitter starts at ``JITTER_START`` and grows x10 on each failure up to
    ``JITTER_MAX``.  The shift is written into ``K``'s diagonal in place, so
    ``K`` must be a C-contiguous array the caller owns.

    A failed attempt sets numpy's invalid flag.  Callers that factorize in a
    loop enter ``np.errstate(all="ignore")`` once around it: entering it here,
    on every likelihood evaluation, costs about 7% of a slice-sampling call.
    """
    t = K.shape[0]
    diag = K.reshape(-1)[:: t + 1]
    base = diag.copy()
    jitter = JITTER_START
    # the gufunc behind np.linalg.cholesky, without its argument checks: where
    # np.linalg.cholesky raises LinAlgError, it returns a factor of NaNs
    while True:
        np.add(base, noise + jitter * amplitude, out=diag)
        L = _umath_linalg.cholesky_lo(K, signature="d->d")
        if not math.isnan(L[0, 0]):
            return L, jitter
        jitter *= 10.0
        if jitter > JITTER_MAX * (1.0 + 1e-12):
            raise NumericalError(
                "covariance matrix is not positive definite at maximum jitter"
            )


class GpState:
    """A GP conditioned on one observation set under S hyperparameter samples.

    The arrays carry a leading sample axis.  Each sample's factor comes from
    ``_KernelCache.factor``: the one whose likelihood the slice sampler
    scored, bit for bit.  Prediction runs the kernel arithmetic of a block
    of samples as one batched numpy call per step and makes the triangular
    solve once per sample, through the calls a one-sample state makes, so
    the results do not depend on the block size.
    """

    def __init__(self, obs: ObservationSet, samples: Sequence[GpHyperparams]):
        if len(samples) == 0:
            raise ValueError("at least one hyperparameter sample is required")
        if any(h.lengthscales.shape != (obs.dimension,) for h in samples):
            raise ValueError("one lengthscale per input dimension is required")
        self.obs = obs
        kernel = _KernelCache(obs)
        self._dtrtrs = kernel.dtrtrs
        with np.errstate(all="ignore"):
            factors = [kernel.factor(h.amplitude, h.lengthscales, h.noise) for h in samples]
        self.chols = np.stack([chol for chol, _ in factors])  # (S, t, t)
        self.jitters = [jitter for _, jitter in factors]
        self.alpha = np.stack([kernel.solve(chol, obs.targets) for chol, _ in factors])[:, :, None]
        # (S, 1, d, 1): one column per sample, broadcast over the t observations
        self.inv_sq = np.stack([1.0 / h.lengthscales**2 for h in samples])[:, None, :, None]
        self.amplitudes = np.array([h.amplitude for h in samples])[:, None, None]  # (S, 1, 1)

    def predict_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and variances, ``(S, m)`` each, at the rows of ``X``, in raw units.

        Samples are taken ``max(1, PREDICT_BLOCK // (t * m))`` at a time, so
        a block's ``(samples, t, m)`` temporaries stay near ``PREDICT_BLOCK``
        elements.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.obs.dimension:
            raise ValueError("query points must match the observation dimension")
        S, t, m = len(self.chols), self.obs.size, X.shape[0]
        block = max(1, PREDICT_BLOCK // (t * m))
        sq = _sq_diffs(self.obs.inputs, X)[None]  # (1, t, m, d)
        mean_std = np.empty((S, m))
        var_std = np.empty((S, m))
        for lo in range(0, S, block):
            hi = min(lo + block, S)
            r2 = (sq @ self.inv_sq[lo:hi])[..., 0]
            k_star = _kernel_from_sqdists(r2, self.amplitudes[lo:hi])
            mean_std[lo:hi] = (k_star.swapaxes(1, 2) @ self.alpha[lo:hi])[:, :, 0]
            squares = np.empty((hi - lo, m, t))
            for s, chol in enumerate(self.chols[lo:hi]):
                # the LAPACK call scipy.linalg.solve_triangular(chol, b, lower=True)
                # makes on a C-ordered factor: the transposed upper factor
                v, info = self._dtrtrs(chol.T, k_star[s], 0, 1)
                if info != 0:
                    raise NumericalError(f"triangular solve failed (info {info})")
                # v is Fortran-ordered, so each row of squares[s] is one of its
                # columns in the same contiguous order that a column sum runs over
                np.multiply(v.T, v.T, out=squares[s])
            var_std[lo:hi] = np.maximum(self.amplitudes[lo:hi, :, 0] - squares.sum(axis=2), 0.0)
        return mean_std * self.obs.scale + self.obs.mean, var_std * self.obs.scale**2


def fit(obs: ObservationSet, samples: Sequence[GpHyperparams]) -> GpState:
    """Condition a GP on ``obs`` under every hyperparameter sample in ``samples``."""
    return GpState(obs, samples)


class _KernelCache:
    """The factorized covariance and marginal likelihood over one observation set.

    Holds the ``(t, t, d)`` squared coordinate differences, so evaluations
    under different hyperparameters only contract them against the inverse
    squared lengthscales.  The slice sampler moves one coordinate at a time,
    so the Matern shape of the last lengthscales and the kernel of the last
    amplitude are kept: a move along the amplitude or the noise axis skips
    the contraction and the exponential.  ``GpState`` takes its factors from
    the same ``factor`` that the likelihood calls.
    """

    def __init__(self, obs: ObservationSet):
        # bound once per cache: an import per likelihood evaluation would cost
        # about 1 us each, tens of thousands of times per run
        from scipy.linalg.lapack import dpotrs, dtrtrs

        self.dpotrs, self.dtrtrs = dpotrs, dtrtrs
        self.sq = _sq_diffs(obs.inputs, obs.inputs)  # (t, t, d)
        self.y = obs.targets
        # the Matern shape of the last lengthscales, the kernel of the last amplitude
        self._shape_key: bytes | None = None
        self._shape = (np.empty(0), np.empty(0))
        self._amplitude: float | None = None
        self._K = np.empty(0)

    def factor(
        self, amplitude: float, lengthscales: np.ndarray, noise: float
    ) -> tuple[np.ndarray, float]:
        """``_factorize`` of the covariance: its lower Cholesky factor and the jitter."""
        key = lengthscales.tobytes()
        if key != self._shape_key:
            self._shape = _matern_shape(self.sq @ (1.0 / lengthscales**2))
            self._shape_key = key
            self._amplitude = None
        if amplitude != self._amplitude:
            poly, e = self._shape
            self._K = amplitude * poly * e
            self._amplitude = amplitude
        # _factorize shifts the diagonal in place, so it gets a copy
        return _factorize(self._K.copy(), amplitude, noise)

    def solve(self, L: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve ``L L^T x = b``: the LAPACK call ``scipy.linalg.cho_solve`` makes."""
        x, info = self.dpotrs(L, b, lower=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of potrs")
        return x

    def __call__(self, amplitude: float, lengthscales: np.ndarray, noise: float) -> float:
        """Log marginal likelihood of the standardized targets."""
        y = self.y
        L, _ = self.factor(amplitude, lengthscales, noise)
        alpha = self.solve(L, y)
        return float(
            -0.5 * (y @ alpha) - np.log(L.diagonal()).sum() - 0.5 * y.shape[0] * LOG_2PI
        )


def coordinate_priors(d: int) -> list[tuple[float, float, float, float]]:
    """The ``PRIORS`` row of each coordinate of theta = log(amplitude, lengthscales..., noise)."""
    return [PRIORS["amplitude"]] + [PRIORS["lengthscale"]] * d + [PRIORS["noise"]]


def _log_posterior(obs: ObservationSet):
    """Log posterior density of theta = log(amplitude, lengthscales..., noise).

    The prior terms are summed left to right in theta's order, then the
    marginal likelihood is added.  Points outside a prior's support, and
    points whose covariance cannot be factorized, get ``-inf``.
    """
    d = obs.dimension
    lml = _KernelCache(obs)
    terms = [
        (math.log(low), math.log(high), math.log(median), sd, math.log(sd))
        for median, sd, low, high in coordinate_priors(d)
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
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """One univariate slice-sampling update with step-out along ``axis``."""
    u = rng.random()
    threshold = f0 + math.log(max(u, 1e-300))
    r = rng.random()
    lo = theta[axis] - r * SLICE_WIDTH
    hi = theta[axis] + (1.0 - r) * SLICE_WIDTH

    def eval_at(v: float) -> float:
        prop = theta.copy()
        prop[axis] = v
        return log_target(prop)

    steps = SLICE_MAX_STEPS
    while steps > 0 and eval_at(lo) > threshold:
        lo -= SLICE_WIDTH
        steps -= 1
    steps = SLICE_MAX_STEPS
    while steps > 0 and eval_at(hi) > threshold:
        hi += SLICE_WIDTH
        steps -= 1

    for _ in range(SLICE_MAX_STEPS):
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
    count: int,
    rng: np.random.Generator,
    burn_in: int = 30,
    thin: int = 2,
) -> list[GpHyperparams]:
    """Draw kernel hyperparameters from their posterior by slice sampling.

    The posterior is the marginal likelihood of ``obs`` under the truncated
    log-normal ``PRIORS``.  The walk operates on the logs of (amplitude,
    lengthscales..., noise), restarts from the prior medians on every call, runs ``burn_in`` full
    coordinate sweeps, then records one sample every ``thin`` sweeps until
    ``count`` samples are collected.  Hyperparameters whose fit fails are
    treated as zero-probability and therefore rejected by the walk.  The
    samples integrate the hyperparameters out: ``fit(obs, samples)``
    conditions the GP under all of them at once.

    Parameters
    ----------
    obs : ObservationSet
        Data the posterior is conditioned on.
    count : int
        Number of samples to return.
    rng : numpy.random.Generator
        Drives every random draw; fixing it fixes the output.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if burn_in < 0:
        raise ValueError("burn_in must be non-negative")
    if thin < 1:
        raise ValueError("thin must be at least 1")
    d = obs.dimension
    log_target = _log_posterior(obs)
    theta = np.log(np.array([row[0] for row in coordinate_priors(d)]))

    def sweep(theta: np.ndarray, f: float) -> tuple[np.ndarray, float]:
        for axis in range(d + 2):
            theta, f = _slice_axis(log_target, theta, f, axis, rng)
        return theta, f

    samples: list[GpHyperparams] = []
    # one errstate for every factorization the walk makes (see _factorize)
    with np.errstate(all="ignore"):
        f = log_target(theta)
        for _ in range(burn_in):
            theta, f = sweep(theta, f)
        while len(samples) < count:
            for _ in range(thin):
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
