import json

import numpy as np
import pytest

from ensopt.hyperspace import (
    Config,
    ParamSpec,
    SearchSpace,
    decode,
    load_space,
    sample,
)

from oracles import encode


def mixed_space() -> SearchSpace:
    return SearchSpace(
        (
            ParamSpec("c", "continuous", 0.0, 1.0),
            ParamSpec("gamma", "log-continuous", 1e-5, 1e5),
            ParamSpec("depth", "integer", 1, 10),
            ParamSpec("kernel", "categorical", categories=("linear", "poly", "rbf", "sigmoid")),
        )
    )


class TestDecode:
    def test_log_continuous_bounds_and_midpoint(self):
        space = SearchSpace((ParamSpec("g", "log-continuous", 1e-5, 1e5),))
        assert decode(np.array([0.0]), space)["g"] == pytest.approx(1e-5, rel=1e-12)
        assert decode(np.array([1.0]), space)["g"] == pytest.approx(1e5, rel=1e-12)
        assert decode(np.array([0.5]), space)["g"] == pytest.approx(1.0, rel=1e-12)

    def test_categorical_equal_bins(self):
        space = SearchSpace(
            (ParamSpec("k", "categorical", categories=("linear", "poly", "rbf", "sigmoid")),)
        )
        assert decode(np.array([0.10]), space)["k"] == "linear"
        assert decode(np.array([0.26]), space)["k"] == "poly"
        assert decode(np.array([0.51]), space)["k"] == "rbf"
        assert decode(np.array([0.76]), space)["k"] == "sigmoid"
        # the closed upper boundary folds into the last category
        assert decode(np.array([1.0]), space)["k"] == "sigmoid"

    def test_integer_bins_cover_bounds(self):
        space = SearchSpace((ParamSpec("d", "integer", 1, 10),))
        values = [decode(np.array([u]), space)["d"] for u in np.linspace(0, 1, 101)]
        assert min(values) == 1
        assert max(values) == 10
        # equal-width bins: each value owns a 1/10 slice of the axis
        assert decode(np.array([0.09999]), space)["d"] == 1
        assert decode(np.array([0.1]), space)["d"] == 2

    def test_out_of_cube_rejected(self):
        space = mixed_space()
        with pytest.raises(ValueError):
            decode(np.array([0.5, 0.5, 0.5, 1.2]), space)
        with pytest.raises(ValueError):
            decode(np.array([0.5, 0.5, -0.1, 0.5]), space)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            decode(np.array([0.5, 0.5]), mixed_space())


class TestEncode:
    def test_known_values(self):
        space = mixed_space()
        u = encode(Config({"c": 0.25, "gamma": 1.0, "depth": 3, "kernel": "poly"}), space)
        assert u[0] == pytest.approx(0.25)
        assert u[1] == pytest.approx(0.5)  # log midpoint of [1e-5, 1e5]
        assert u[2] == pytest.approx((3 - 1 + 0.5) / 10)  # bin centre
        assert u[3] == pytest.approx((1 + 0.5) / 4)

    def test_round_trip_identity(self):
        space = mixed_space()
        rng = np.random.default_rng(42)
        for _ in range(1000):
            config = decode(sample(space, rng), space)
            back = decode(encode(config, space), space)
            assert back["depth"] == config["depth"]
            assert back["kernel"] == config["kernel"]
            assert back["c"] == pytest.approx(config["c"], rel=1e-12, abs=1e-15)
            assert back["gamma"] == pytest.approx(config["gamma"], rel=1e-12)

    def test_unknown_and_missing_values_rejected(self):
        space = mixed_space()
        good = {"c": 0.5, "gamma": 1.0, "depth": 3, "kernel": "rbf"}
        with pytest.raises(ValueError):
            encode(Config({**good, "extra": 1}), space)
        missing = dict(good)
        del missing["depth"]
        with pytest.raises(ValueError):
            encode(Config(missing), space)
        with pytest.raises(ValueError):
            encode(Config({**good, "c": 2.0}), space)
        with pytest.raises(ValueError):
            encode(Config({**good, "kernel": "cubic"}), space)


class TestSample:
    def test_deterministic_under_seed(self):
        space = mixed_space()
        a = sample(space, np.random.default_rng(7))
        b = sample(space, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_uniform_coordinates(self):
        space = mixed_space()
        rng = np.random.default_rng(3)
        draws = np.array([sample(space, rng) for _ in range(10000)])
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        np.testing.assert_allclose(draws.mean(axis=0), 0.5, atol=0.02)

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(())


class TestValidation:
    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            SearchSpace(
                (ParamSpec("a", "continuous", 0, 1), ParamSpec("a", "integer", 1, 5))
            )

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            ParamSpec("a", "continuous", 1.0, 1.0)
        with pytest.raises(ValueError):
            ParamSpec("a", "continuous", 2.0, 1.0)
        with pytest.raises(ValueError):
            ParamSpec("a", "log-continuous", 0.0, 1.0)
        with pytest.raises(ValueError):
            ParamSpec("a", "log-continuous", -1.0, 1.0)

    @pytest.mark.parametrize(
        "kind, lower, upper",
        [
            ("log-continuous", "1e-5", 1.0),
            ("integer", True, 3),
            ("integer", 1, float("inf")),
            ("integer", 1, 10**400),
            ("continuous", float("nan"), 1.0),
        ],
        ids=["string", "bool", "infinite", "int-beyond-float", "nan"],
    )
    def test_bounds_must_be_finite_numbers(self, kind, lower, upper):
        with pytest.raises(ValueError, match="bounds must be finite numbers"):
            ParamSpec("a", kind, lower, upper)

    def test_bad_categories(self):
        with pytest.raises(ValueError):
            ParamSpec("a", "categorical", categories=())
        with pytest.raises(ValueError):
            ParamSpec("a", "categorical", categories=("x", "x"))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ParamSpec("a", "boolean", 0, 1)


class TestJson:
    def test_load_space_round_trip(self, tmp_path):
        doc = {
            "params": [
                {"name": "C", "kind": "log-continuous", "lower": 1e-5, "upper": 1e5},
                {"name": "depth", "kind": "integer", "lower": 1, "upper": 10},
                {"name": "kernel", "kind": "categorical", "categories": ["linear", "rbf"]},
            ]
        }
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        space = load_space(str(path))
        assert space.dimension == 3
        assert space.names == ("C", "depth", "kernel")
        assert space["kernel"].categories == ("linear", "rbf")
        assert space.to_dict() == {
            "params": [
                {"name": "C", "kind": "log-continuous", "lower": 1e-5, "upper": 1e5},
                {"name": "depth", "kind": "integer", "lower": 1, "upper": 10},
                {"name": "kernel", "kind": "categorical", "categories": ["linear", "rbf"]},
            ]
        }

    def test_missing_params_key(self):
        with pytest.raises(ValueError):
            SearchSpace.from_dict({"parameters": []})
