import math

import numpy as np
import pytest
from scipy.special import ndtr

from ensopt.acquisition import INV_SQRT_2PI, _ei_batch, _score, next_point
from ensopt.hyperspace import ParamSpec, SearchSpace
from ensopt.surrogate import GpHyperparams, ObservationSet, fit

import oracles
from oracles import expected_improvement, predict_one


def oracle_ei(mean, variance, best):
    """Closed-form EI via the error function, independent of scipy."""
    sigma = math.sqrt(max(variance, 0.0))
    gap = best - mean
    if sigma == 0.0:
        return max(gap, 0.0)
    z = gap / sigma
    phi = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    big_phi = 0.5 * (1 + math.erf(z / math.sqrt(2)))
    return gap * big_phi + sigma * phi


class TestExpectedImprovement:
    def test_zero_variance_uses_plain_gap(self):
        assert expected_improvement(0.2, 0.0, 0.5) == pytest.approx(0.3)
        assert expected_improvement(0.8, 0.0, 0.5) == 0.0

    def test_at_incumbent_with_unit_sigma(self):
        expected = 1.0 / math.sqrt(2 * math.pi)
        assert expected_improvement(0.5, 1.0, 0.5) == pytest.approx(expected, abs=1e-9)

    def test_tiny_sigma_approaches_gap(self):
        assert expected_improvement(0.0, 1e-24, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_matches_oracle_on_grid(self):
        for mean in np.linspace(-2, 2, 21):
            for var in [0.0, 1e-6, 0.04, 1.0, 9.0]:
                got = expected_improvement(float(mean), var, 0.0)
                assert got == pytest.approx(oracle_ei(mean, var, 0.0), abs=1e-12)
                assert got >= 0.0

    def test_monotone_in_best(self):
        values = [expected_improvement(0.0, 1.0, b) for b in np.linspace(-3, 3, 25)]
        assert all(v1 <= v2 for v1, v2 in zip(values, values[1:]))

    def test_grossly_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            expected_improvement(0.0, -1e-3, 0.0)
        # tolerated rounding error clamps to zero variance
        assert expected_improvement(0.0, -1e-11, 1.0) == pytest.approx(1.0)

    def test_batch_equals_masked_formula_bitwise(self):
        rng = np.random.default_rng(4)
        for n in (1, 5, 1000):
            means = rng.normal(size=n)
            positive = rng.random(n) + 1e-12
            some_zero = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
            for variances in (positive, some_zero):
                sigma = np.sqrt(np.maximum(variances, 0.0))
                gap = 0.1 - means
                expected = np.maximum(gap, 0.0)
                pos = sigma > 0.0
                z = gap[pos] / sigma[pos]
                expected[pos] = (
                    gap[pos] * ndtr(z) + sigma[pos] * INV_SQRT_2PI * np.exp(-0.5 * z * z)
                )
                np.testing.assert_array_equal(
                    _ei_batch(means, variances, 0.1), np.maximum(expected, 0.0)
                )


def make_samples(rng, n_samples=2, t=6):
    X = rng.random((t, 1))
    y = rng.random(t)
    obs = ObservationSet(X, y)
    samples = [
        GpHyperparams(
            float(rng.uniform(0.5, 2.0)), rng.uniform(0.1, 0.8, 1), float(rng.uniform(0.001, 0.05))
        )
        for _ in range(n_samples)
    ]
    return obs, samples, y


class TestNextPoint:
    def test_stays_in_cube_and_reproducible(self):
        rng = np.random.default_rng(0)
        obs, samples, y = make_samples(rng)
        gp = fit(obs, samples)
        a = next_point(gp, float(y.min()), np.random.default_rng(9), 100, 5)
        b = next_point(gp, float(y.min()), np.random.default_rng(9), 100, 5)
        np.testing.assert_array_equal(a, b)
        assert 0.0 <= a[0] <= 1.0

    def test_duplicate_samples_match_single_sample(self):
        rng = np.random.default_rng(4)
        obs, samples, y = make_samples(rng, n_samples=1)
        best = float(y.min())
        one = fit(obs, samples)
        two = fit(obs, samples * 2)
        a = next_point(one, best, np.random.default_rng(5), 200, 3)
        b = next_point(two, best, np.random.default_rng(5), 200, 3)
        np.testing.assert_array_equal(a, b)

    def test_avoids_lone_incumbent(self):
        obs = ObservationSet(np.array([[0.5]]), [0.3])
        gp = fit(obs, [GpHyperparams(1.0, np.array([0.2]), 1e-6)])
        point = next_point(gp, 0.3, np.random.default_rng(1), 500, 5)
        assert abs(point[0] - 0.5) > 1e-3

    def test_matches_candidate_oracle(self):
        # with no refinement, next_point must return exactly the candidate
        # that maximizes the closed-form mean EI, over the candidates it
        # draws first from its seed
        rng = np.random.default_rng(12)
        for trial in range(5):
            obs, samples, y = make_samples(rng, n_samples=3)
            best = float(y.min())
            candidates = np.random.default_rng(trial).random((1001, 1))
            scores = np.zeros(1001)
            for h in samples:
                means, variances = fit(obs, [h]).predict_batch(candidates)
                scores += np.array(
                    [oracle_ei(m, v, best) for m, v in zip(means[0], variances[0])]
                )
            scores /= len(samples)
            gp = fit(obs, samples)
            point = next_point(gp, best, np.random.default_rng(trial), 1001, 0)
            assert point.tobytes() == candidates[int(np.argmax(scores))].tobytes()

    def test_refinement_never_hurts_score(self):
        rng = np.random.default_rng(3)
        obs, samples, y = make_samples(rng, n_samples=2)
        best = float(y.min())
        gp = fit(obs, samples)
        # the same seed draws the same candidates, so p0 is where p1 starts
        p0 = next_point(gp, best, np.random.default_rng(8), 101, 0)
        p1 = next_point(gp, best, np.random.default_rng(8), 101, 10)

        def score(point):
            total = 0.0
            for h in samples:
                m, v = predict_one(fit(obs, [h]), point)
                total += oracle_ei(m, v, best)
            return total / len(samples)

        assert score(p1) >= score(p0) - 1e-12


def cube(d: int) -> SearchSpace:
    return SearchSpace(tuple(ParamSpec(f"x{i}", "continuous", 0.0, 1.0) for i in range(d)))


def random_samples(rng, d, count, amplitude=None, noise=None):
    return [
        GpHyperparams(
            float(rng.uniform(0.3, 3.0)) if amplitude is None else amplitude * (i + 1),
            rng.uniform(0.05, 2.0, d),
            float(rng.uniform(1e-6, 0.05)) if noise is None else noise,
        )
        for i in range(count)
    ]


def assert_matches_per_sample_reference(obs, samples, best, points_list, space, seed):
    gp = fit(obs, samples)
    singles = [fit(obs, [h]) for h in samples]
    for points in points_list:
        got = _score(gp, best, points)
        assert got.tobytes() == oracles.score(singles, best, points).tobytes()
    got = next_point(gp, best, np.random.default_rng(seed), 64, 5)
    want = oracles.next_point(singles, best, space, np.random.default_rng(seed), 64, 5)
    assert got.tobytes() == want.tobytes()


class TestStackedScore:
    """One S-sample GP state scores what S one-sample states give, bit for bit."""

    @pytest.mark.parametrize("t", [1, 5, 19, 60])
    @pytest.mark.parametrize("d", [1, 2, 6])
    @pytest.mark.parametrize("count", [1, 3, 10])
    def test_matches_per_sample_reference(self, t, d, count):
        rng = np.random.default_rng(1000 * t + 10 * d + count)
        obs = ObservationSet(rng.random((t, d)), rng.random(t))
        samples = random_samples(rng, d, count)
        best = float(obs.raw_targets.min())
        points = [rng.random((m, d)) for m in (1, 7, 300, 1000)]
        assert_matches_per_sample_reference(obs, samples, best, points, cube(d), seed=t + d + count)

    def test_zero_variance_takes_masked_branch(self):
        # a duplicated training row and no noise: with an amplitude this
        # small and targets this close together, the predictive variance at
        # that row underflows to exactly zero while the means stay finite
        rng = np.random.default_rng(3)
        X = rng.random((6, 2))
        X[1] = X[0]
        obs = ObservationSet(X, 1e-11 * rng.random(6))
        samples = random_samples(rng, 2, 3, amplitude=1e-295, noise=0.0)
        queries = np.vstack([X[:1], rng.random((4, 2))])
        means, variances = fit(obs, samples).predict_batch(queries)
        assert np.isfinite(means).all()
        assert (variances[:, 0] == 0.0).all() and (variances[:, 1:] > 0.0).all()
        best = float(obs.raw_targets.max())
        assert (_ei_batch(means, variances, best)[:, 0] > 0.0).all()
        assert_matches_per_sample_reference(obs, samples, best, [X[:1], queries], cube(2), seed=6)
