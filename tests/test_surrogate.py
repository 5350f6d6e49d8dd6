import math

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

from ensopt import surrogate
from ensopt.surrogate import (
    JITTER_MAX,
    JITTER_START,
    LOG_2PI,
    PRIORS,
    GpHyperparams,
    NumericalError,
    ObservationSet,
    _factorize,
    _kernel_from_sqdists,
    _KernelCache,
    _log_posterior,
    _theta_to_hypers,
    coordinate_priors,
    fit,
    slice_sample_hypers,
)

from oracles import (
    kernel_matrix,
    log_marginal_likelihood,
    log_pdf_at_log,
    matern52,
    predict_one,
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
        state = fit(obs, [h])
        expected = math.sqrt(1.0 + 0.25 + 1e-8)
        assert state.chols[0][0, 0] == pytest.approx(expected, rel=1e-9)

    def test_factorization_reproduces_covariance(self):
        rng = np.random.default_rng(5)
        X, y, h = random_problem(rng)
        state = fit(ObservationSet(X, y), [h])
        K = kernel_matrix(X, X, h) + (h.noise + state.jitters[0] * h.amplitude) * np.eye(X.shape[0])
        np.testing.assert_allclose(state.chols[0] @ state.chols[0].T, K, atol=1e-8)

    def test_posterior_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            X, y, h = random_problem(rng)
            state = fit(ObservationSet(X, y), [h])
            x_star = rng.random(X.shape[1])
            mean, var = predict_one(state, x_star)
            o_mean, o_var = oracle_posterior(X, y, h, x_star)
            assert mean == pytest.approx(o_mean, abs=1e-8)
            assert var == pytest.approx(o_var, abs=1e-8)

    def test_interpolates_at_tiny_noise(self):
        rng = np.random.default_rng(2)
        X = rng.random((6, 2))
        y = rng.normal(size=6)
        h = GpHyperparams(1.0, np.array([0.4, 0.4]), 1e-10)
        state = fit(ObservationSet(X, y), [h])
        for i in range(6):
            mean, var = predict_one(state, X[i])
            assert mean == pytest.approx(y[i], abs=1e-4)
            assert var < 1e-6

    def test_far_point_reverts_to_prior(self):
        y = [0.2, 0.5, 0.8]
        obs = ObservationSet(np.array([[0.1], [0.5], [0.9]]), y)
        h = GpHyperparams(1.5, np.array([0.05]), 0.01)
        state = fit(obs, [h])
        mean, var = predict_one(state, np.array([50.0]))
        assert mean == pytest.approx(np.mean(y), abs=1e-6)
        assert var == pytest.approx(1.5 * np.std(y) ** 2, rel=1e-6)

    def test_variance_non_negative(self):
        rng = np.random.default_rng(8)
        X, y, h = random_problem(rng, t_max=10)
        state = fit(ObservationSet(X, y), [h])
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
            state = fit(obs, [h])
            _, var = predict_one(state, x_star)
            var_std = var / obs.scale**2
            assert var_std <= prev + 1e-9
            prev = var_std

    def test_affine_target_equivariance(self):
        rng = np.random.default_rng(13)
        X = rng.random((7, 2))
        y = rng.normal(size=7)
        h = GpHyperparams(1.2, np.array([0.5, 0.8]), 0.05)
        a, b = 3.5, -2.0
        state1 = fit(ObservationSet(X, y), [h])
        state2 = fit(ObservationSet(X, a * y + b), [h])
        x_star = rng.random(2)
        m1, v1 = predict_one(state1, x_star)
        m2, v2 = predict_one(state2, x_star)
        assert m2 == pytest.approx(a * m1 + b, abs=1e-8)
        assert v2 == pytest.approx(a**2 * v1, rel=1e-8)

    def test_duplicate_inputs_handled(self):
        X = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.8]])
        y = [0.1, 0.3, 0.9]
        h = GpHyperparams(1.0, np.array([0.5, 0.5]), 0.01)
        state = fit(ObservationSet(X, y), [h])
        mean, var = predict_one(state, np.array([0.5, 0.5]))
        o_mean, o_var = oracle_posterior(X, np.array(y), h, np.array([0.5, 0.5]))
        assert mean == pytest.approx(o_mean, abs=1e-8)
        assert var == pytest.approx(o_var, abs=1e-8)


class TestSampleAxis:
    """One GP state over S hyperparameter samples."""

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            fit(ObservationSet(np.zeros((2, 1)), [0.1, 0.2]), [])

    def test_lengthscales_must_match_dimension(self):
        obs = ObservationSet(np.zeros((2, 2)), [0.1, 0.2])
        good = GpHyperparams(1.0, np.array([0.5, 0.5]), 0.01)
        bad = GpHyperparams(1.0, np.array([0.5]), 0.01)
        with pytest.raises(ValueError, match="one lengthscale"):
            fit(obs, [good, bad])

    @pytest.mark.parametrize("t", [1, 5, 19, 60])
    @pytest.mark.parametrize("d", [1, 2, 6])
    @pytest.mark.parametrize("count", [1, 3, 10])
    def test_prediction_bytes_do_not_depend_on_block_size(self, monkeypatch, t, d, count):
        rng = np.random.default_rng(100 * t + 10 * d + count)
        obs = ObservationSet(rng.random((t, d)), rng.random(t))
        samples = [
            GpHyperparams(
                float(rng.uniform(0.3, 3.0)), rng.uniform(0.05, 2.0, d), float(rng.uniform(1e-6, 0.05))
            )
            for _ in range(count)
        ]
        gp = fit(obs, samples)
        singles = [fit(obs, [h]) for h in samples]
        for m in (1, 7, 300, 1000):
            X = rng.random((m, d))
            got = []
            for block in (1, surrogate.PREDICT_BLOCK, 1 << 40):
                monkeypatch.setattr(surrogate, "PREDICT_BLOCK", block)
                means, variances = gp.predict_batch(X)
                assert means.shape == variances.shape == (count, m)
                got.append((means.tobytes(), variances.tobytes()))
            monkeypatch.undo()
            assert got[0] == got[1] == got[2]
            # each sample row is what a one-sample state predicts
            rows = [single.predict_batch(X) for single in singles]
            assert got[0][0] == np.concatenate([r[0] for r in rows]).tobytes()
            assert got[0][1] == np.concatenate([r[1] for r in rows]).tobytes()


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
        a = slice_sample_hypers(obs, 1, np.random.default_rng(42), burn_in=0, thin=1)
        b = slice_sample_hypers(obs, 1, np.random.default_rng(42), burn_in=0, thin=1)
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
        samples = slice_sample_hypers(obs, 10, np.random.default_rng(1), burn_in=30, thin=2)
        med = float(np.median([s.lengthscales[0] for s in samples]))
        assert 0.1 <= med <= 0.4

    def test_priors_truncate_support(self):
        # constant targets: the likelihood keeps growing as the noise
        # shrinks, so the walk presses against the lower edge of its support
        rng = np.random.default_rng(5)
        obs = ObservationSet(rng.random((40, 2)), np.zeros(40))
        samples = slice_sample_hypers(obs, 8, np.random.default_rng(0), burn_in=5, thin=1)
        for h in samples:
            for value, (_, _, low, high) in zip(h.as_list(), coordinate_priors(2)):
                assert low <= value <= high
        assert min(h.noise for h in samples) < 2 * PRIORS["noise"][2]

    @pytest.mark.parametrize(
        "count, burn_in, thin",
        [(0, 30, 2), (1, -1, 2), (1, 30, 0), (1, 30, -1)],
        ids=["count0", "burn_in-1", "thin0", "thin-1"],
    )
    def test_invalid_effort_rejected(self, count, burn_in, thin):
        rng = np.random.default_rng(4)
        obs = ObservationSet(rng.random((5, 2)), rng.normal(size=5))
        with pytest.raises(ValueError):
            slice_sample_hypers(obs, count, np.random.default_rng(0), burn_in=burn_in, thin=thin)

    def test_sampled_hypers_keep_covariance_factorizable(self):
        rng = np.random.default_rng(17)
        X = rng.random((10, 2))
        y = rng.normal(size=10)
        obs = ObservationSet(X, y)
        samples = slice_sample_hypers(obs, 5, np.random.default_rng(2), burn_in=5, thin=1)
        gp = fit(obs, samples)  # raises NumericalError on failure
        for chol in gp.chols:
            eigs = np.linalg.eigvalsh(chol @ chol.T)
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


def reference_log_prior(theta, d):
    coord = [PRIORS["amplitude"]] + [PRIORS["lengthscale"]] * d + [PRIORS["noise"]]
    total = 0.0
    for value, p in zip(theta, coord):
        total += log_pdf_at_log(p, float(value))
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
        draws = 0
        for X in fast_path_sets(rng):
            obs = ObservationSet(X, rng.normal(size=X.shape[0]))
            d = obs.dimension
            target = _log_posterior(obs)
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
                assert target(theta) == lml + reference_log_prior(theta, d)
                draws += 1
        assert draws >= 100

    def test_lml_cache_reuse_equals_reference(self):
        """Kept Matern shapes and kernels give what a fresh evaluation gives."""
        rng = np.random.default_rng(53)
        for X in fast_path_sets(rng):
            obs = ObservationSet(X, rng.normal(size=X.shape[0]))
            d = obs.dimension
            ls_a = rng.uniform(0.1, 1.0, d)
            ls_b = rng.uniform(0.1, 1.0, d)
            calls = [
                (1.3, ls_a, 1e-3),
                (0.6, ls_a, 1e-3),  # a new amplitude reuses the shape
                (0.6, ls_a, 2e-2),  # a new noise reuses the kernel
                (0.6, ls_a, 1e-7),
                (0.6, ls_b, 1e-7),  # new lengthscales, same amplitude
                (0.6, ls_a.copy(), 1e-7),  # and back
                (1.3, ls_a, 1e-3),
            ]
            lml = _KernelCache(obs)
            for amplitude, ls, noise in calls:
                want = reference_lml(obs.inputs, obs.targets, amplitude, ls, noise)
                assert lml(amplitude, ls, noise) == want

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
        with np.errstate(all="ignore"):  # as _factorize's looping callers do
            L, jitter = _factorize(K.copy(), 1.3, noise)
        L_ref, jitter_ref = reference_factor(K, 1.3, noise)
        assert jitter == jitter_ref > 1e-6
        np.testing.assert_array_equal(L, L_ref)

    def test_factorize_raises_past_max_jitter(self):
        K = np.ones((4, 4)) - 2.0 * JITTER_MAX * np.eye(4)
        with np.errstate(all="ignore"), pytest.raises(NumericalError):
            _factorize(K, 1.0, 0.0)
        # just inside the limit the same matrix factorizes
        with np.errstate(all="ignore"):
            _, jitter = _factorize(np.ones((4, 4)) - 0.5 * JITTER_MAX * np.eye(4), 1.0, 0.0)
        assert jitter == pytest.approx(JITTER_MAX)

    def test_looping_callers_factorize_under_one_errstate(self, monkeypatch):
        """The slice walk and ``fit`` ignore numpy's float errors around every factorization."""
        states = []
        factorize = surrogate._factorize

        def recording(K, amplitude, noise):
            states.append(np.geterr())
            return factorize(K, amplitude, noise)

        monkeypatch.setattr(surrogate, "_factorize", recording)
        outside = np.geterr()
        rng = np.random.default_rng(61)
        obs = ObservationSet(rng.random((5, 2)), rng.normal(size=5))
        samples = slice_sample_hypers(obs, 2, rng, burn_in=1, thin=1)
        walked = len(states)
        fit(obs, samples)
        ignore = dict.fromkeys(("divide", "over", "under", "invalid"), "ignore")
        assert 0 < walked < len(states)
        assert all(state == ignore for state in states)
        assert np.geterr() == outside != ignore

    def test_factorize_matches_numpy_cholesky_bitwise(self):
        """Same factor bits, and failure exactly where ``np.linalg.cholesky`` raises."""
        rng = np.random.default_rng(43)
        jitters = set()
        for i in range(300):
            t = int(rng.integers(1, 41))
            A = rng.standard_normal((t, t))
            half = A[:, : (t + 1) // 2]
            # SPD, rank-deficient (needs jitter) and indefinite (fails throughout)
            K = np.ascontiguousarray([A @ A.T + t * np.eye(t), half @ half.T, A + A.T][i % 3])
            # with noise -JITTER_START the first shift is exactly zero
            noise = -JITTER_START
            jitter, want = JITTER_START, None
            while jitter <= JITTER_MAX * (1.0 + 1e-12):
                shifted = K.copy()
                shifted.reshape(-1)[:: t + 1] += noise + jitter
                try:
                    want = np.linalg.cholesky(shifted)
                    break
                except np.linalg.LinAlgError:
                    jitter *= 10.0
            if want is None:
                with np.errstate(all="ignore"), pytest.raises(NumericalError):
                    _factorize(K.copy(), 1.0, noise)
                jitters.add(None)
                continue
            with np.errstate(all="ignore"):
                L, got_jitter = _factorize(K.copy(), 1.0, noise)
            assert got_jitter == jitter
            assert L.tobytes() == want.tobytes()
            jitters.add(jitter)
        assert {None, JITTER_START} < jitters

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
                state = fit(obs, [h])
                K = kernel_matrix(X, X, h)
                L, jitter = reference_factor(K, h.amplitude, h.noise)
                assert jitter == state.jitters[0]
                np.testing.assert_array_equal(state.chols[0], L)
                alpha = cho_solve((L, True), obs.targets)
                for n in (1, 7, 300):
                    Q = rng.random((n, d))
                    k_star = kernel_matrix(X, Q, h)
                    v = solve_triangular(L, k_star, lower=True)
                    var = np.maximum(h.amplitude - np.sum(v * v, axis=0), 0.0) * obs.scale**2
                    mean = (k_star.T @ alpha) * obs.scale + obs.mean
                    got_mean, got_var = state.predict_batch(Q)
                    np.testing.assert_array_equal(got_mean, mean[None])
                    np.testing.assert_array_equal(got_var, var[None])

    @pytest.mark.parametrize("t", [1, 5, 19, 60])
    @pytest.mark.parametrize("d", [1, 2, 6])
    def test_state_factors_are_the_sampled_likelihood_factors(self, monkeypatch, t, d):
        """Each sample's factor and jitter are those the slice sampler's likelihood computed."""
        rng = np.random.default_rng(10 * t + d)
        obs = ObservationSet(rng.random((t, d)), rng.normal(size=t))
        scored = {}
        factor = _KernelCache.factor

        def recording_factor(self, amplitude, lengthscales, noise):
            L, jitter = factor(self, amplitude, lengthscales, noise)
            scored[(amplitude, lengthscales.tobytes(), noise)] = (L.tobytes(), jitter)
            return L, jitter

        monkeypatch.setattr(_KernelCache, "factor", recording_factor)
        samples = slice_sample_hypers(obs, 3, np.random.default_rng(t + d), burn_in=2, thin=1)
        monkeypatch.undo()
        state = fit(obs, samples)
        for s, h in enumerate(samples):
            want = scored[(h.amplitude, h.lengthscales.tobytes(), h.noise)]
            assert (state.chols[s].tobytes(), state.jitters[s]) == want

    def test_prior_support_is_closed(self):
        rng = np.random.default_rng(43)
        obs = ObservationSet(rng.random((6, 2)), rng.normal(size=6))
        target = _log_posterior(obs)
        centre = np.log([1.0, 0.25, 0.25, 0.01])
        for axis, p in enumerate(coordinate_priors(2)):
            low, high = p[2:]
            assert (low, high) == (1e-6, 1e3)
            for bound, outward in ((low, -math.inf), (high, math.inf)):
                edge = math.log(bound)
                beyond = math.nextafter(edge, outward)
                assert math.isfinite(log_pdf_at_log(p, edge))
                assert log_pdf_at_log(p, beyond) == -math.inf
                theta = centre.copy()
                theta[axis] = edge
                assert math.isfinite(target(theta))
                theta[axis] = beyond
                assert target(theta) == -math.inf
