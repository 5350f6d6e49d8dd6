import math

import numpy as np
import pytest
from scipy.special import ndtr

from ensopt.acquisition import (
    INV_SQRT_2PI,
    AcquisitionContext,
    _ei_batch,
    expected_improvement,
    next_point,
)
from ensopt.hyperspace import ParamSpec, SearchSpace
from ensopt.surrogate import GpHyperparams, ObservationSet, fit


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


def line_space() -> SearchSpace:
    return SearchSpace((ParamSpec("x", "continuous", 0.0, 1.0),))


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


def make_states(rng, n_states=2, t=6):
    X = rng.random((t, 1))
    y = rng.random(t)
    obs = ObservationSet(X, y)
    states = []
    for _ in range(n_states):
        h = GpHyperparams(
            float(rng.uniform(0.5, 2.0)), rng.uniform(0.1, 0.8, 1), float(rng.uniform(0.001, 0.05))
        )
        states.append(fit(obs, h))
    return states, y


class TestNextPoint:
    def test_stays_in_cube_and_reproducible(self):
        rng = np.random.default_rng(0)
        states, y = make_states(rng)
        ctx = AcquisitionContext(states, best=float(y.min()), candidates=100, refinements=5)
        a = next_point(ctx, line_space(), np.random.default_rng(9))
        b = next_point(ctx, line_space(), np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)
        assert 0.0 <= a[0] <= 1.0

    def test_duplicate_states_match_single_state(self):
        rng = np.random.default_rng(4)
        states, y = make_states(rng, n_states=1)
        best = float(y.min())
        one = AcquisitionContext(states, best, candidates=200, refinements=3)
        two = AcquisitionContext([states[0], states[0]], best, candidates=200, refinements=3)
        a = next_point(one, line_space(), np.random.default_rng(5))
        b = next_point(two, line_space(), np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_avoids_lone_incumbent(self):
        obs = ObservationSet(np.array([[0.5]]), [0.3])
        state = fit(obs, GpHyperparams(1.0, np.array([0.2]), 1e-6))
        ctx = AcquisitionContext([state], best=0.3, candidates=500, refinements=5)
        point = next_point(ctx, line_space(), np.random.default_rng(1))
        assert abs(point[0] - 0.5) > 1e-3

    def test_matches_grid_oracle(self):
        # with injected grid candidates and no refinement, next_point must
        # return exactly the grid argmax of mean EI
        rng = np.random.default_rng(12)
        for trial in range(5):
            states, y = make_states(rng, n_states=3)
            best = float(y.min())
            grid = np.linspace(0.0, 1.0, 1001)[:, None]
            scores = np.zeros(1001)
            for state in states:
                means, variances = state.predict_batch(grid)
                scores += np.array(
                    [oracle_ei(m, v, best) for m, v in zip(means, variances)]
                )
            scores /= len(states)
            ctx = AcquisitionContext(states, best, candidates=1001, refinements=0)
            point = next_point(ctx, line_space(), np.random.default_rng(trial), candidate_points=grid)
            assert point[0] == grid[int(np.argmax(scores)), 0]

    def test_refinement_never_hurts_score(self):
        rng = np.random.default_rng(3)
        states, y = make_states(rng, n_states=2)
        best = float(y.min())
        grid = np.linspace(0, 1, 101)[:, None]
        base = AcquisitionContext(states, best, candidates=101, refinements=0)
        refined = AcquisitionContext(states, best, candidates=101, refinements=10)
        p0 = next_point(base, line_space(), np.random.default_rng(8), candidate_points=grid)
        p1 = next_point(refined, line_space(), np.random.default_rng(8), candidate_points=grid)

        def score(point):
            total = 0.0
            for state in states:
                m, v = state.predict(point)
                total += oracle_ei(m, v, best)
            return total / len(states)

        assert score(p1) >= score(p0) - 1e-12

    def test_no_states_rejected(self):
        ctx = AcquisitionContext([], best=0.0)
        with pytest.raises(ValueError):
            next_point(ctx, line_space(), np.random.default_rng(0))
