import math

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

from ensopt.surrogate import (
    JITTER_MAX,
    JITTER_START,
    LOG_2PI,
    GpHyperparams,
    HyperPriors,
    LogNormalPrior,
    NumericalError,
    ObservationSet,
    _factorize,
    _kernel_from_sqdists,
    _log_posterior,
    _theta_to_hypers,
    fit,
    kernel_matrix,
    log_marginal_likelihood,
    matern52,
    slice_sample_hypers,
)


def oracle_kernel(a, b, hypers):
    """Independent scalar kernel: explicit coordinate loop."""
    r2 = 0.0
    for i in range(len(a)):
        r2 += (a[i] - b[i]) ** 2 / hypers.lengthscales[i] ** 2
    r = math.sqrt(r2)
    return hypers.amplitude * (1 + math.sqrt(5) * r + 5 * r2 / 3) * math.exp(-math.sqrt(5) * r)


def oracle_posterior(X, y_raw, hypers, x_star, jitter=1e-8):
    """Dense-solve posterior in raw units, standardizing like the contract."""
    mu = float(np.mean(y_raw))
    sd = float(np.std(y_raw))
    scale = sd if sd >= 1e-12 else 1.0
    y = (np.asarray(y_raw) - mu) / scale
    t = X.shape[0]
    K = np.array([[oracle_kernel(X[i], X[j], hypers) for j in range(t)] for i in range(t)])
    A = K + (hypers.noise + jitter * hypers.amplitude) * np.eye(t)
    A_inv = np.linalg.inv(A)
    k_star = np.array([oracle_kernel(X[i], x_star, hypers) for i in range(t)])
    mean = float(k_star @ A_inv @ y)
    var = float(hypers.amplitude - k_star @ A_inv @ k_star)
    return mean * scale + mu, var * scale**2


def oracle_lml(X, y_raw, hypers, jitter=1e-8):
    mu = float(np.mean(y_raw))
    sd = float(np.std(y_raw))
    scale = sd if sd >= 1e-12 else 1.0
    y = (np.asarray(y_raw) - mu) / scale
    t = X.shape[0]
    K = np.array([[oracle_kernel(X[i], X[j], hypers) for j in range(t)] for i in range(t)])
    A = K + (hypers.noise + jitter * hypers.amplitude) * np.eye(t)
    sign, logdet = np.linalg.slogdet(A)
    assert sign > 0
    return float(-0.5 * y @ np.linalg.inv(A) @ y - 0.5 * logdet - 0.5 * t * math.log(2 * math.pi))


def random_problem(rng, t_max=10, d_max=3):
    t = int(rng.integers(2, t_max + 1))
    d = int(rng.integers(1, d_max + 1))
    X = rng.random((t, d))
    y = rng.normal(size=t)
    hypers = GpHyperparams(
        amplitude=float(rng.uniform(0.3, 3.0)),
        lengthscales=rng.uniform(0.1, 2.0, size=d),
        noise=float(rng.uniform(1e-4, 0.1)),
    )
    return X, y, hypers


class TestKernel:
    def test_zero_distance_gives_amplitude(self):
        h = GpHyperparams(2.5, np.array([0.3, 0.7]), 0.0)
        x = np.array([0.2, 0.9])
        assert matern52(x, x, h) == pytest.approx(2.5)

    def test_unit_distance_value(self):
        h = GpHyperparams(1.0, np.array([1.0]), 0.0)
        expected = (1 + math.sqrt(5) + 5 / 3) * math.exp(-math.sqrt(5))
        got = matern52(np.array([0.0]), np.array([1.0]), h)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.5240, abs=5e-5)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        h = GpHyperparams(1.3, rng.uniform(0.1, 1.0, 3), 0.0)
        for _ in range(50):
            a, b = rng.random(3), rng.random(3)
            assert matern52(a, b, h) == matern52(b, a, h)

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            h = GpHyperparams(
                float(rng.uniform(0.2, 3.0)), rng.uniform(0.05, 2.0, d), 0.0
            )
            a, b = rng.random(d), rng.random(d)
            assert matern52(a, b, h) == pytest.approx(oracle_kernel(a, b, h), rel=1e-12)

    def test_decreases_with_distance(self):
        h = GpHyperparams(1.0, np.array([0.5]), 0.0)
        dists = np.linspace(0, 3, 40)
        vals = [matern52(np.array([0.0]), np.array([x]), h) for x in dists]
        assert all(v1 >= v2 for v1, v2 in zip(vals, vals[1:]))

    def test_dimension_mismatch(self):
        h = GpHyperparams(1.0, np.array([0.5, 0.5]), 0.0)
        with pytest.raises(ValueError):
            matern52(np.array([0.0]), np.array([0.0, 1.0]), h)


class TestObservationSet:
    def test_standardization(self):
        X = np.zeros((4, 1))
        obs = ObservationSet(X, [1.0, 2.0, 3.0, 4.0])
        assert obs.targets.mean() == pytest.approx(0.0, abs=1e-15)
        assert obs.targets.std() == pytest.approx(1.0, rel=1e-12)
        assert not obs.constant

    def test_constant_targets_only_centred(self):
        obs = ObservationSet(np.zeros((3, 1)), [0.4, 0.4, 0.4])
        assert obs.constant
        np.testing.assert_allclose(obs.targets, np.zeros(3), atol=1e-15)
        assert obs.scale == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ObservationSet(np.zeros((0, 2)), [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_or_targets_rejected(self, bad):
        X = np.zeros((3, 2))
        X[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            ObservationSet(X, [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="finite"):
            ObservationSet(np.zeros((3, 2)), [0.1, bad, 0.3])


class TestFitPredict:
    def test_single_point_factor(self):
        obs = ObservationSet(np.array([[0.5]]), [0.3])
        h = GpHyperparams(1.0, np.array([0.5]), 0.25)
        state = fit(obs, h)
        expected = math.sqrt(1.0 + 0.25 + 1e-8)
        assert state.chol[0, 0] == pytest.approx(expected, rel=1e-9)

    def test_factorization_reproduces_covariance(self):
        rng = np.random.default_rng(5)
        X, y, h = random_problem(rng)
        state = fit(ObservationSet(X, y), h)
        K = kernel_matrix(X, X, h) + (h.noise + state.jitter * h.amplitude) * np.eye(X.shape[0])
        np.testing.assert_allclose(state.chol @ state.chol.T, K, atol=1e-8)

    def test_posterior_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            X, y, h = random_problem(rng)
            state = fit(ObservationSet(X, y), h)
            x_star = rng.random(X.shape[1])
            mean, var = state.predict(x_star)
            o_mean, o_var = oracle_posterior(X, y, h, x_star)
            assert mean == pytest.approx(o_mean, abs=1e-8)
            assert var == pytest.approx(o_var, abs=1e-8)

    def test_interpolates_at_tiny_noise(self):
        rng = np.random.default_rng(2)
        X = rng.random((6, 2))
        y = rng.normal(size=6)
        h = GpHyperparams(1.0, np.array([0.4, 0.4]), 1e-10)
        state = fit(ObservationSet(X, y), h)
        for i in range(6):
            mean, var = state.predict(X[i])
            assert mean == pytest.approx(y[i], abs=1e-4)
            assert var < 1e-6

    def test_far_point_reverts_to_prior(self):
        y = [0.2, 0.5, 0.8]
        obs = ObservationSet(np.array([[0.1], [0.5], [0.9]]), y)
        h = GpHyperparams(1.5, np.array([0.05]), 0.01)
        state = fit(obs, h)
        mean, var = state.predict(np.array([50.0]))
        assert mean == pytest.approx(np.mean(y), abs=1e-6)
        assert var == pytest.approx(1.5 * np.std(y) ** 2, rel=1e-6)

    def test_variance_non_negative(self):
        rng = np.random.default_rng(8)
        X, y, h = random_problem(rng, t_max=10)
        state = fit(ObservationSet(X, y), h)
        _, var = state.predict_batch(rng.random((200, X.shape[1])))
        assert np.all(var >= 0.0)

    def test_variance_shrinks_with_more_data(self):
        h = GpHyperparams(1.0, np.array([0.5]), 0.01)
        rng = np.random.default_rng(9)
        X = rng.random((8, 1))
        y = rng.normal(size=8)
        x_star = np.array([0.45])
        prev = math.inf
        for t in range(2, 9):
            # fixed raw-unit hypers: compare standardized-space variances
            obs = ObservationSet(X[:t], y[:t])
            state = fit(obs, h)
            _, var = state.predict(x_star)
            var_std = var / obs.scale**2
            assert var_std <= prev + 1e-9
            prev = var_std

    def test_affine_target_equivariance(self):
        rng = np.random.default_rng(13)
        X = rng.random((7, 2))
        y = rng.normal(size=7)
        h = GpHyperparams(1.2, np.array([0.5, 0.8]), 0.05)
        a, b = 3.5, -2.0
        state1 = fit(ObservationSet(X, y), h)
        state2 = fit(ObservationSet(X, a * y + b), h)
        x_star = rng.random(2)
        m1, v1 = state1.predict(x_star)
        m2, v2 = state2.predict(x_star)
        assert m2 == pytest.approx(a * m1 + b, abs=1e-8)
        assert v2 == pytest.approx(a**2 * v1, rel=1e-8)

    def test_duplicate_inputs_handled(self):
        X = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.8]])
        y = [0.1, 0.3, 0.9]
        h = GpHyperparams(1.0, np.array([0.5, 0.5]), 0.01)
        state = fit(ObservationSet(X, y), h)
        mean, var = state.predict(np.array([0.5, 0.5]))
        o_mean, o_var = oracle_posterior(X, np.array(y), h, np.array([0.5, 0.5]))
        assert mean == pytest.approx(o_mean, abs=1e-8)
        assert var == pytest.approx(o_var, abs=1e-8)


class TestLogMarginalLikelihood:
    def test_single_standardized_point(self):
        obs = ObservationSet(np.array([[0.5]]), [0.7])
        h = GpHyperparams(0.5, np.array([1.0]), 0.5)
        expected = -0.5 * math.log(2 * math.pi)
        assert log_marginal_likelihood(obs, h) == pytest.approx(expected, abs=1e-6)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            X, y, h = random_problem(rng, t_max=8)
            got = log_marginal_likelihood(ObservationSet(X, y), h)
            assert got == pytest.approx(oracle_lml(X, y, h), abs=1e-8)

    def test_duplicated_observation_matches_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            X, y, h = random_problem(rng, t_max=4)
            X2 = np.vstack([X, X[0]])
            y2 = np.append(y, y[0])
            got = log_marginal_likelihood(ObservationSet(X2, y2), h)
            assert got == pytest.approx(oracle_lml(X2, y2, h), abs=1e-8)


class TestSliceSampling:
    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(3)
        X = rng.random((12, 2))
        y = rng.normal(size=12)
        obs = ObservationSet(X, y)
        priors = HyperPriors()
        a = slice_sample_hypers(obs, priors, 1, np.random.default_rng(42), burn_in=0, thin=1)
        b = slice_sample_hypers(obs, priors, 1, np.random.default_rng(42), burn_in=0, thin=1)
        assert a[0].amplitude == b[0].amplitude
        np.testing.assert_array_equal(a[0].lengthscales, b[0].lengthscales)
        assert a[0].noise == b[0].noise

    def test_recovers_lengthscale_scale(self):
        rng = np.random.default_rng(7)
        true = GpHyperparams(1.0, np.array([0.2]), 0.01)
        X = rng.random((50, 1))
        K = kernel_matrix(X, X, true) + true.noise * np.eye(50)
        y = np.linalg.cholesky(K) @ rng.standard_normal(50)
        obs = ObservationSet(X, y)
        samples = slice_sample_hypers(
            obs, HyperPriors(), 10, np.random.default_rng(1), burn_in=30, thin=2
        )
        med = float(np.median([s.lengthscales[0] for s in samples]))
        assert 0.1 <= med <= 0.4

    def test_priors_truncate_support(self):
        rng = np.random.default_rng(5)
        obs = ObservationSet(rng.random((6, 2)), rng.normal(size=6))
        priors = HyperPriors(
            amplitude=LogNormalPrior(1.0, 1.0, 1e-2, 1e2),
            lengthscale=LogNormalPrior(0.25, 1.0, 1e-2, 1e1),
            noise=LogNormalPrior(0.01, 1.0, 1e-4, 1e0),
        )
        samples = slice_sample_hypers(obs, priors, 8, np.random.default_rng(0), burn_in=5, thin=1)
        for s in samples:
            assert 1e-2 <= s.amplitude <= 1e2
            assert np.all((s.lengthscales >= 1e-2) & (s.lengthscales <= 1e1))
            assert 1e-4 <= s.noise <= 1e0

    def test_sampled_hypers_keep_covariance_factorizable(self):
        rng = np.random.default_rng(17)
        X = rng.random((10, 2))
        y = rng.normal(size=10)
        obs = ObservationSet(X, y)
        samples = slice_sample_hypers(obs, HyperPriors(), 5, np.random.default_rng(2), burn_in=5, thin=1)
        for s in samples:
            state = fit(obs, s)  # raises NumericalError on failure
            eigs = np.linalg.eigvalsh(state.chol @ state.chol.T)
            assert eigs.min() > -1e-10


def reference_factor(K, amplitude, noise):
    """The jitter loop written out with ``K + shift * I``."""
    jitter = JITTER_START
    while True:
        try:
            shifted = K + (noise + jitter * amplitude) * np.eye(K.shape[0])
            return np.linalg.cholesky(shifted), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
            assert jitter <= JITTER_MAX * (1.0 + 1e-12)


def reference_lml(X, y, amplitude, lengthscales, noise):
    """Pairwise-difference marginal likelihood through scipy's checked solver."""
    diffs = X[:, None, :] - X[None, :, :]
    K = _kernel_from_sqdists((diffs * diffs) @ (1.0 / lengthscales**2), amplitude)
    L, _ = reference_factor(K, amplitude, noise)
    alpha = cho_solve((L, True), y)
    return float(
        -0.5 * (y @ alpha) - np.sum(np.log(np.diag(L))) - 0.5 * y.shape[0] * LOG_2PI
    )


def reference_log_prior(theta, priors, d):
    coord = [priors.amplitude] + [priors.lengthscale] * d + [priors.noise]
    total = 0.0
    for value, p in zip(theta, coord):
        total += p.log_pdf_at_log(float(value))
    return total


def fast_path_sets(rng):
    # six dimensions give eight prior terms, where a pairwise sum would no
    # longer match the sequential one
    X = rng.random((9, 6))
    dup = np.vstack([X[:5], X[:3], X[1:2]])  # rows repeated exactly
    grid = np.round(rng.random((12, 2)), 1)  # coarse grid: many ties
    return [X, dup, grid]


class TestFastPaths:
    """The slice sampler and GpState fast paths match plain references bit for bit."""

    def test_sampler_target_equals_likelihood_plus_sequential_prior(self):
        rng = np.random.default_rng(31)
        priors = HyperPriors()
        draws = 0
        for X in fast_path_sets(rng):
            obs = ObservationSet(X, rng.normal(size=X.shape[0]))
            d = obs.dimension
            target = _log_posterior(obs, priors)
            for _ in range(34):
                theta = np.concatenate(
                    [
                        rng.uniform(math.log(1e-2), math.log(1e2), 1),
                        rng.uniform(math.log(1e-3), math.log(1e2), d),
                        rng.uniform(math.log(1e-6), math.log(1e-1), 1),
                    ]
                )
                h = _theta_to_hypers(theta, d)
                lml = log_marginal_likelihood(obs, h)
                assert lml == reference_lml(
                    obs.inputs, obs.targets, h.amplitude, h.lengthscales, h.noise
                )
                assert target(theta) == lml + reference_log_prior(theta, priors, d)
                draws += 1
        assert draws >= 100

    def test_escalated_jitter_matches_reference(self):
        rng = np.random.default_rng(37)
        X = fast_path_sets(rng)[1]
        obs = ObservationSet(X, rng.normal(size=X.shape[0]))
        ls = np.array([0.4, 0.3, 0.5, 0.6, 0.2, 0.7])
        diffs = X[:, None, :] - X[None, :, :]
        K = _kernel_from_sqdists((diffs * diffs) @ (1.0 / ls**2), 1.3)
        # a negative shift makes the repeated rows indefinite until the
        # jitter has grown past it
        noise = -2e-6
        L, jitter = _factorize(K.copy(), 1.3, noise)
        L_ref, jitter_ref = reference_factor(K, 1.3, noise)
        assert jitter == jitter_ref > 1e-6
        np.testing.assert_array_equal(L, L_ref)

    def test_factorize_raises_past_max_jitter(self):
        K = np.ones((4, 4)) - 2.0 * JITTER_MAX * np.eye(4)
        with pytest.raises(NumericalError):
            _factorize(K, 1.0, 0.0)
        # just inside the limit the same matrix factorizes
        _, jitter = _factorize(np.ones((4, 4)) - 0.5 * JITTER_MAX * np.eye(4), 1.0, 0.0)
        assert jitter == pytest.approx(JITTER_MAX)

    def test_predict_batch_equals_solve_triangular_reference(self):
        rng = np.random.default_rng(41)
        sets = fast_path_sets(rng) + [rng.random((1, 2))]
        for X in sets:
            obs = ObservationSet(X, rng.normal(size=X.shape[0]))
            d = obs.dimension
            for _ in range(5):
                h = GpHyperparams(
                    float(rng.uniform(0.2, 3.0)),
                    rng.uniform(0.05, 2.0, d),
                    float(rng.uniform(1e-6, 0.1)),
                )
                state = fit(obs, h)
                K = kernel_matrix(X, X, h)
                L, jitter = reference_factor(K, h.amplitude, h.noise)
                assert jitter == state.jitter
                np.testing.assert_array_equal(state.chol, L)
                alpha = cho_solve((L, True), obs.targets)
                for n in (1, 7, 300):
                    Q = rng.random((n, d))
                    k_star = kernel_matrix(X, Q, h)
                    v = solve_triangular(L, k_star, lower=True)
                    var = np.maximum(h.amplitude - np.sum(v * v, axis=0), 0.0) * obs.scale**2
                    mean = (k_star.T @ alpha) * obs.scale + obs.mean
                    got_mean, got_var = state.predict_batch(Q)
                    np.testing.assert_array_equal(got_mean, mean)
                    np.testing.assert_array_equal(got_var, var)

    def test_prior_support_is_closed(self):
        priors = HyperPriors(
            amplitude=LogNormalPrior(1.0, 1.0, 1e-2, 1e2),
            lengthscale=LogNormalPrior(0.25, 1.0, 1e-3, 1e1),
            noise=LogNormalPrior(0.01, 1.0, 1e-5, 1e0),
        )
        rng = np.random.default_rng(43)
        obs = ObservationSet(rng.random((6, 2)), rng.normal(size=6))
        target = _log_posterior(obs, priors)
        centre = np.log([1.0, 0.25, 0.25, 0.01])
        coord = [priors.amplitude, priors.lengthscale, priors.lengthscale, priors.noise]
        for axis, p in enumerate(coord):
            for bound, outward in ((p.low, -math.inf), (p.high, math.inf)):
                edge = math.log(bound)
                beyond = math.nextafter(edge, outward)
                assert math.isfinite(p.log_pdf_at_log(edge))
                assert p.log_pdf_at_log(beyond) == -math.inf
                theta = centre.copy()
                theta[axis] = edge
                assert math.isfinite(target(theta))
                theta[axis] = beyond
                assert target(theta) == -math.inf
