import math

import numpy as np
import pytest
from scipy.special import ndtr

from ensopt.acquisition import (
    INV_SQRT_2PI,
    AcquisitionContext,
    _ei_batch,
    _score_stacked,
    next_point,
)
from ensopt.hyperspace import ParamSpec, SearchSpace
from ensopt.surrogate import GpHyperparams, ObservationSet, SampleStack, fit

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
                m, v = predict_one(state, point)
                total += oracle_ei(m, v, best)
            return total / len(states)

        assert score(p1) >= score(p0) - 1e-12

    def test_no_states_rejected(self):
        ctx = AcquisitionContext([], best=0.0)
        with pytest.raises(ValueError):
            next_point(ctx, line_space(), np.random.default_rng(0))


def cube(d: int) -> SearchSpace:
    return SearchSpace(tuple(ParamSpec(f"x{i}", "continuous", 0.0, 1.0) for i in range(d)))


def random_states(rng, obs, count, amplitude=None, noise=None):
    d = obs.dimension
    return [
        fit(
            obs,
            GpHyperparams(
                float(rng.uniform(0.3, 3.0)) if amplitude is None else amplitude * (i + 1),
                rng.uniform(0.05, 2.0, d),
                float(rng.uniform(1e-6, 0.05)) if noise is None else noise,
            ),
        )
        for i in range(count)
    ]


def assert_stacked_matches_reference(ctx, points_list, space, seed):
    stack = SampleStack.of(ctx.states)
    for points in points_list:
        got = _score_stacked(stack, ctx.best, points)
        assert got.tobytes() == oracles.score(ctx, points).tobytes()
    got = next_point(ctx, space, np.random.default_rng(seed))
    want = oracles.next_point(ctx, space, np.random.default_rng(seed))
    assert got.tobytes() == want.tobytes()


class TestStackedScore:
    """All GP states scored in one stacked pass match the per-state references bit for bit."""

    @pytest.mark.parametrize("t", [1, 5, 19, 60])
    @pytest.mark.parametrize("d", [1, 2, 6])
    @pytest.mark.parametrize("count", [1, 3, 10])
    def test_matches_per_state_reference(self, t, d, count):
        rng = np.random.default_rng(1000 * t + 10 * d + count)
        obs = ObservationSet(rng.random((t, d)), rng.random(t))
        states = random_states(rng, obs, count)
        best = float(obs.raw_targets.min())
        ctx = AcquisitionContext(states, best, candidates=64, refinements=5)
        points = [rng.random((m, d)) for m in (1, 7, 300)]
        assert_stacked_matches_reference(ctx, points, cube(d), seed=t + d + count)

    def test_zero_variance_takes_masked_branch(self):
        # a duplicated training row and no noise: with an amplitude this
        # small and targets this close together, the predictive variance at
        # that row underflows to exactly zero while the means stay finite
        rng = np.random.default_rng(3)
        X = rng.random((6, 2))
        X[1] = X[0]
        obs = ObservationSet(X, 1e-11 * rng.random(6))
        states = random_states(rng, obs, 3, amplitude=1e-295, noise=0.0)
        queries = np.vstack([X[:1], rng.random((4, 2))])
        means, variances = SampleStack.of(states).predict(queries)
        assert np.isfinite(means).all()
        assert (variances[:, 0] == 0.0).all() and (variances[:, 1:] > 0.0).all()
        best = float(obs.raw_targets.max())
        assert (_ei_batch(means, variances, best)[:, 0] > 0.0).all()
        ctx = AcquisitionContext(states, best, candidates=64, refinements=5)
        assert_stacked_matches_reference(ctx, [X[:1], queries], cube(2), seed=6)

    def test_negative_variance_raises_on_both_paths(self, monkeypatch):
        rng = np.random.default_rng(8)
        obs = ObservationSet(rng.random((5, 2)), rng.random(5))
        states = random_states(rng, obs, 3)
        best = float(obs.raw_targets.min())
        ctx = AcquisitionContext(states, best, candidates=16, refinements=2)
        predict = SampleStack.predict

        def shifted(self, X):
            mean, var = predict(self, X)
            return mean, var - 1.0

        monkeypatch.setattr(SampleStack, "predict", shifted)
        point = rng.random((1, 2))
        with pytest.raises(ValueError, match="negative predictive variance"):
            oracles.score(ctx, point)
        with pytest.raises(ValueError, match="negative predictive variance"):
            _score_stacked(SampleStack.of(states), ctx.best, point)
        for pick in (oracles.next_point, next_point):
            with pytest.raises(ValueError, match="negative predictive variance"):
                pick(ctx, cube(2), np.random.default_rng(0))

    def test_states_on_different_observations_rejected(self):
        rng = np.random.default_rng(9)
        a = random_states(rng, ObservationSet(rng.random((4, 1)), rng.random(4)), 1)
        b = random_states(rng, ObservationSet(rng.random((4, 1)), rng.random(4)), 1)
        with pytest.raises(ValueError, match="share one observation set"):
            next_point(AcquisitionContext(a + b, 0.0), line_space(), np.random.default_rng(0))
