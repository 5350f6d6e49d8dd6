"""Tests for the base classifiers and their shared training front door."""

import itertools

import numpy as np
import pytest

from ensopt import learners
from ensopt.hyperspace import Config
from ensopt.learners import (
    ALGORITHMS,
    Dataset,
    check_space,
    default_space,
    predict,
    train,
)

from oracles import predict_knn, train_linear


def blob_dataset(
    centers: list[tuple[float, float]],
    n_per_class: int,
    spread: float,
    seed: int,
) -> Dataset:
    rng = np.random.default_rng(seed)
    features = []
    labels = []
    for code, center in enumerate(centers):
        features.append(rng.normal(0.0, spread, size=(n_per_class, 2)) + center)
        labels.extend([code] * n_per_class)
    names = tuple(str(i) for i in range(len(centers)))
    return Dataset(np.vstack(features), np.array(labels), names)


def error_rate(model, data: Dataset) -> float:
    return float(np.mean(predict(model, data.features) != data.labels))


class TestDefaultSpace:
    def test_full_space_layout(self):
        space = default_space()
        assert space.names[0] == "algorithm"
        assert set(space.names) == {
            "algorithm",
            "n_neighbors",
            "max_depth",
            "min_samples_split",
            "min_samples_leaf",
            "C",
        }
        assert space["algorithm"].categories == ALGORITHMS

    def test_single_algorithm_drops_selector(self):
        space = default_space(["knn"])
        assert space.names == ("n_neighbors",)

    def test_full_space_is_unchanged(self):
        assert default_space(ALGORITHMS).to_dict() == {"params": [
            {"name": "algorithm", "kind": "categorical",
             "categories": ["knn", "tree", "gnb", "linear"]},
            {"name": "n_neighbors", "kind": "integer", "lower": 1, "upper": 30},
            {"name": "max_depth", "kind": "integer", "lower": 1, "upper": 10},
            {"name": "min_samples_split", "kind": "integer", "lower": 2, "upper": 100},
            {"name": "min_samples_leaf", "kind": "integer", "lower": 2, "upper": 100},
            {"name": "C", "kind": "log-continuous", "lower": 1e-05, "upper": 100000.0},
        ]}

    def test_every_default_space_passes_check_space(self):
        subsets = [
            s for r in range(1, len(ALGORITHMS) + 1) for s in itertools.combinations(ALGORITHMS, r)
        ]
        assert len(subsets) == 15
        for subset in subsets:
            if subset == ("gnb",):
                with pytest.raises(ValueError, match="add another algorithm or provide a space"):
                    default_space(subset)
            else:
                space = default_space(subset)
                assert check_space(space, subset) is space

    @pytest.mark.parametrize(
        "algorithms", [["knn", "svm"], [], ["knn", "knn"]], ids=["unknown", "empty", "duplicate"]
    )
    def test_bad_algorithm_list_rejected(self, algorithms):
        space = default_space(["knn"])
        with pytest.raises(ValueError):
            default_space(algorithms)
        with pytest.raises(ValueError):
            check_space(space, algorithms)


class TestKnn:
    def test_one_neighbor_memorizes_training_data(self):
        data = blob_dataset([(0, 0), (4, 4)], 20, 1.0, seed=1)
        model = train("knn", Config({"n_neighbors": 1}), [data])[0]
        assert error_rate(model, data) == 0.0

    def test_three_neighbor_hand_case(self):
        # 1-d points 0,1,2,10,11 with labels 0,0,1,1,1
        data = Dataset(
            np.array([[0.0], [1.0], [2.0], [10.0], [11.0]]),
            np.array([0, 0, 1, 1, 1]),
            ("a", "b"),
        )
        model = train("knn", Config({"n_neighbors": 3}), [data])[0]
        queries = np.array([[1.5], [4.0], [9.0]])
        # 1.5: neighbours {1,2,0} vote 0; 4.0: {2,1,0} vote 0; 9.0: {10,11,2} vote 1
        np.testing.assert_array_equal(predict(model, queries), [0, 0, 1])

    def test_equidistant_tie_keeps_training_order(self):
        # duplicated training points give bitwise-equal distances
        data = Dataset(
            np.array([[0.0], [0.0], [1.0]]),
            np.array([0, 1, 1]),
            ("a", "b"),
        )
        model = train("knn", Config({"n_neighbors": 2}), [data])[0]
        # both duplicates are picked; the 1-1 vote falls to the smaller label
        np.testing.assert_array_equal(predict(model, np.array([[0.0]])), [0])

    def test_vote_tie_prefers_smallest_label(self):
        data = Dataset(
            np.array([[0.0], [0.3]]),
            np.array([1, 0]),
            ("a", "b"),
        )
        model = train("knn", Config({"n_neighbors": 2}), [data])[0]
        np.testing.assert_array_equal(predict(model, np.array([[0.05]])), [0])

    def test_neighbor_count_clamped_to_training_size(self):
        data = Dataset(
            np.array([[0.0], [1.0], [2.0]]),
            np.array([0, 1, 1]),
            ("a", "b"),
        )
        model = train("knn", Config({"n_neighbors": 30}), [data])[0]
        assert model.params["k"] == 3
        # with every point voting, the overall majority label wins everywhere
        np.testing.assert_array_equal(
            predict(model, np.array([[-5.0], [5.0]])), [1, 1]
        )

    def test_missing_parameter_rejected(self):
        data = blob_dataset([(0, 0), (4, 4)], 5, 1.0, seed=1)
        with pytest.raises(ValueError, match="n_neighbors"):
            train("knn", Config({}), [data])


class TestKnnMatchesStableSort:
    """Predictions equal those of a full stable sort of every distance row."""

    @pytest.mark.parametrize("k", [1, 4, 9, "all"])
    @pytest.mark.parametrize("grid", [False, True], ids=["random", "integer-grid"])
    def test_predictions_equal_oracle(self, k, grid):
        rng = np.random.default_rng(31 if grid else 32)
        for trial in range(6):
            n, m, n_labels = 40 + 7 * trial, 35, 2 + trial % 3
            if grid:
                # coarse integer features make many exactly equal distances
                features = rng.integers(0, 3, size=(n, 2)).astype(float)
                queries = rng.integers(-1, 4, size=(m, 2)).astype(float)
            else:
                features = rng.normal(size=(n, 3))
                queries = rng.normal(size=(m, 3))
            # duplicate training rows with differing labels
            features[n // 2 : n // 2 + 5] = features[:5]
            queries[:5] = features[:5]
            labels = rng.integers(0, n_labels, size=n)
            labels[:n_labels] = np.arange(n_labels)
            data = Dataset(features, labels, tuple("abcd"[:n_labels]))
            neighbours = n if k == "all" else k
            model = train("knn", Config({"n_neighbors": neighbours}), [data])[0]
            np.testing.assert_array_equal(
                predict(model, queries), predict_knn(model.params, queries)
            )


TREE_CFG = {"max_depth": 5, "min_samples_split": 2, "min_samples_leaf": 1}


class TestTree:
    def test_depth_one_cannot_solve_xor(self):
        data = Dataset(
            np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
            np.array([0, 1, 1, 0]),
            ("a", "b"),
        )
        cfg = dict(TREE_CFG, max_depth=1)
        model = train("tree", Config(cfg), [data])[0]
        assert error_rate(model, data) == 0.5

    def test_depth_two_solves_xor(self):
        data = Dataset(
            np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
            np.array([0, 1, 1, 0]),
            ("a", "b"),
        )
        cfg = dict(TREE_CFG, max_depth=2)
        model = train("tree", Config(cfg), [data])[0]
        assert error_rate(model, data) == 0.0

    def test_threshold_is_midpoint_of_best_boundary(self):
        data = Dataset(
            np.array([[0.0], [1.0], [2.0], [3.0]]),
            np.array([0, 0, 1, 1]),
            ("a", "b"),
        )
        model = train("tree", Config(dict(TREE_CFG, max_depth=1)), [data])[0]
        root = model.params["root"]
        assert root["feature"] == 0
        assert root["threshold"] == 1.5

    def test_split_score_tie_prefers_lowest_feature(self):
        # both features separate perfectly; the scan must keep feature 0
        data = Dataset(
            np.array([[0.0, 0.0], [1.0, 1.0]]),
            np.array([0, 1]),
            ("a", "b"),
        )
        model = train("tree", Config(dict(TREE_CFG, max_depth=1)), [data])[0]
        assert model.params["root"]["feature"] == 0

    def test_structural_constraints_respected(self):
        data = blob_dataset([(0, 0), (2, 2), (4, 0)], 70, 1.2, seed=3)
        cfg = {"max_depth": 3, "min_samples_split": 10, "min_samples_leaf": 5}
        model = train("tree", Config(cfg), [data])[0]
        root = model.params["root"]

        leaf_counts: dict[int, int] = {}
        max_depth_seen = 0

        def route(node, idx, depth):
            nonlocal max_depth_seen
            max_depth_seen = max(max_depth_seen, depth)
            if "label" in node:
                leaf_counts[id(node)] = len(idx)
                return
            mask = data.features[idx, node["feature"]] <= node["threshold"]
            route(node["left"], idx[mask], depth + 1)
            route(node["right"], idx[~mask], depth + 1)

        route(root, np.arange(data.n_samples), 0)
        assert max_depth_seen <= cfg["max_depth"]
        assert "label" not in root
        assert min(leaf_counts.values()) >= cfg["min_samples_leaf"]

    def test_invalid_configuration_rejected(self):
        data = blob_dataset([(0, 0), (4, 4)], 5, 1.0, seed=1)
        with pytest.raises(ValueError):
            train("tree", Config(dict(TREE_CFG, max_depth=0)), [data])


class TestGaussianNaiveBayes:
    def test_hand_computed_class_statistics(self):
        data = Dataset(
            np.array([[0.0], [2.0], [10.0], [14.0]]),
            np.array([0, 0, 1, 1]),
            ("a", "b"),
        )
        model = train("gnb", Config({}), [data])[0]
        smoothing = 1e-9 * np.var([0.0, 2.0, 10.0, 14.0])
        np.testing.assert_allclose(model.params["means"], [[1.0], [12.0]])
        np.testing.assert_allclose(
            model.params["variances"], [[1.0 + smoothing], [4.0 + smoothing]]
        )
        np.testing.assert_allclose(model.params["log_priors"], np.log([0.5, 0.5]))

    def test_wider_class_wins_at_moderate_distance(self):
        # x=5 is nearer class 0 in distance but likelier under class 1's
        # broader density; the densities, not distances, must decide
        data = Dataset(
            np.array([[0.0], [2.0], [10.0], [14.0]]),
            np.array([0, 0, 1, 1]),
            ("a", "b"),
        )
        model = train("gnb", Config({}), [data])[0]
        np.testing.assert_array_equal(
            predict(model, np.array([[1.0], [5.0], [13.0]])), [0, 1, 1]
        )

    def test_two_blob_accuracy(self):
        data = blob_dataset([(0, 0), (5, 5)], 200, 1.0, seed=7)
        model = train("gnb", Config({}), [data])[0]
        assert error_rate(model, data) <= 0.02

    def test_absent_label_never_predicted(self):
        # codes 0 and 2 present, code 1 absent from training
        data = Dataset(
            np.array([[0.0], [0.5], [10.0], [10.5]]),
            np.array([0, 0, 2, 2]),
            ("a", "b", "c"),
        )
        model = train("gnb", Config({}), [data])[0]
        preds = predict(model, np.linspace(-5, 15, 50)[:, None])
        assert set(preds.tolist()) <= {0, 2}


class TestLinear:
    def test_separable_binary_problem(self):
        data = Dataset(
            np.array([[-2.0], [-1.0], [1.0], [2.0]]),
            np.array([0, 0, 1, 1]),
            ("a", "b"),
        )
        model = train("linear", Config({"C": 100.0}), [data])[0]
        assert error_rate(model, data) == 0.0

    def test_three_class_blobs(self):
        data = blob_dataset([(0, 0), (6, 0), (3, 6)], 60, 0.8, seed=11)
        model = train("linear", Config({"C": 10.0}), [data])[0]
        assert error_rate(model, data) <= 0.02

    def test_strong_regularization_shrinks_weights(self):
        data = blob_dataset([(0, 0), (4, 4)], 40, 1.0, seed=5)
        loose = train("linear", Config({"C": 1e4}), [data])[0]
        tight = train("linear", Config({"C": 1e-2}), [data])[0]
        assert np.linalg.norm(tight.params["weights"]) < np.linalg.norm(
            loose.params["weights"]
        )

    def test_nonpositive_c_rejected(self):
        data = blob_dataset([(0, 0), (4, 4)], 5, 1.0, seed=1)
        with pytest.raises(ValueError):
            train("linear", Config({"C": 0.0}), [data])


class TestLinearMatchesOneClassAtATime:
    """Jointly trained classes carry the same bits as classes trained alone."""

    @pytest.mark.parametrize("C", [1e-5, 1e-2, 1.0, 1e3, 1e5])
    @pytest.mark.parametrize("n_classes", [2, 3, 4])
    @pytest.mark.parametrize(
        "d, constant", [(1, False), (2, False), (5, False), (5, True)],
        ids=["d1", "d2", "d5", "d5-constant-column"],
    )
    def test_weights_and_biases_equal_oracle(self, C, n_classes, d, constant):
        rng = np.random.default_rng(100 * n_classes + d)
        n = 90 + 11 * n_classes
        features = rng.normal(size=(n, d)) * rng.uniform(0.5, 4.0, size=d)
        if constant:
            features[:, 2] = 7.0
        # code 1 never occurs, so present classes and label codes differ
        codes = np.array([0] + list(range(2, n_classes + 1)))
        labels = codes[rng.integers(0, n_classes, size=n)]
        labels[:n_classes] = codes
        data = Dataset(features, labels, tuple(str(c) for c in range(n_classes + 1)))
        model = train("linear", Config({"C": C}), [data])[0]
        weights, biases = train_linear(C, data)
        # C = 1e-5 makes the weight decay diverge, so NaN bits must match too
        assert model.params["weights"].tobytes() == weights.tobytes()
        assert model.params["biases"].tobytes() == biases.tobytes()


def mixed_datasets(d: int, seed: int) -> list[Dataset]:
    """Live datasets of differing n and class count around a single-class one."""
    rng = np.random.default_rng(seed)

    def make(n: int, codes: list[int]) -> Dataset:
        features = rng.normal(size=(n, d)) * rng.uniform(0.5, 4.0, size=d)
        labels = np.array(codes)[rng.integers(0, len(codes), size=n)]
        labels[: len(codes)] = codes
        return Dataset(features, labels, ("a", "b", "c", "d"))

    return [
        make(97, [0, 1, 2, 3]),
        make(13, [2]),
        make(240, [0, 2, 3]),  # code 1 absent: three rows, not four
        make(7, [1, 3]),
        make(150, [0, 1]),
    ]


class TestLinearStackMatchesOneDatasetAtATime:
    """Datasets stepped in one stacked state carry the bits of separate fits."""

    @pytest.mark.parametrize("C", [1e-5, 1e-2, 1.0, 1e3, 1e5])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_weights_and_biases_equal_oracle(self, C, d):
        datasets = mixed_datasets(d, seed=40 + d)
        models = train("linear", Config({"C": C}), datasets)
        assert [m.degenerate for m in models] == [False, True, False, False, False]
        assert models[1].params == {"constant": 2}
        for data, model in zip(datasets, models):
            if model.degenerate:
                continue
            weights, biases = train_linear(C, data)
            # C = 1e-5 makes the weight decay diverge, so NaN bits must match too
            assert model.params["weights"].tobytes() == weights.tobytes()
            assert model.params["biases"].tobytes() == biases.tobytes()
            np.testing.assert_array_equal(model.params["classes"], np.unique(data.labels))


def assert_same_params(a, b) -> None:
    """Recursive equality of model parameters, arrays compared bit for bit."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_same_params(a[key], b[key])
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    else:
        assert type(a) is type(b) and a == b


class TestTrainFrontDoor:
    def test_unknown_algorithm_rejected(self):
        data = blob_dataset([(0, 0), (4, 4)], 5, 1.0, seed=1)
        with pytest.raises(ValueError, match="unknown algorithm"):
            train("forest", Config({}), [data])

    def test_empty_dataset_rejected(self):
        data = Dataset(np.empty((0, 2)), np.empty(0, dtype=np.int64), ("a", "b"))
        with pytest.raises(ValueError, match="empty"):
            train("knn", Config({"n_neighbors": 1}), [data])

    def test_single_class_training_set_degenerates(self):
        data = Dataset(
            np.array([[0.0], [1.0], [2.0]]),
            np.array([1, 1, 1]),
            ("a", "b"),
        )
        for algo in ALGORITHMS:
            model = train(algo, Config(TREE_CFG | {"n_neighbors": 3, "C": 1.0}), [data])[0]
            assert model.degenerate
            np.testing.assert_array_equal(
                predict(model, np.array([[-9.0], [9.0]])), [1, 1]
            )

    @pytest.mark.parametrize("algo,cfg", [
        ("knn", {"n_neighbors": 5}),
        ("tree", TREE_CFG),
        ("gnb", {}),
        ("linear", {"C": 1.0}),
    ])
    def test_training_is_deterministic(self, algo, cfg):
        data = blob_dataset([(0, 0), (3, 3), (6, 0)], 30, 1.5, seed=2)
        queries = np.random.default_rng(9).normal(3.0, 3.0, size=(40, 2))
        a = predict(train(algo, Config(cfg), [data])[0], queries)
        b = predict(train(algo, Config(cfg), [data])[0], queries)
        np.testing.assert_array_equal(a, b)

    def test_non_finite_features_rejected(self):
        data = blob_dataset([(0, 0), (4, 4)], 10, 1.0, seed=1)
        model = train("knn", Config({"n_neighbors": 3}), [data])[0]
        for value in (np.nan, np.inf, -np.inf):
            features = data.features.copy()
            features[3, 1] = value
            with pytest.raises(ValueError, match="finite"):
                Dataset(features, data.labels, data.label_names)
            with pytest.raises(ValueError, match="finite"):
                predict(model, features)

    def test_feature_dimension_mismatch_rejected(self):
        data = blob_dataset([(0, 0), (4, 4)], 10, 1.0, seed=1)
        model = train("gnb", Config({}), [data])[0]
        with pytest.raises(ValueError, match="dimension"):
            predict(model, np.zeros((3, 5)))

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_several_datasets_equal_separate_calls(self, algo):
        config = Config(TREE_CFG | {"n_neighbors": 4, "C": 1.0})
        datasets = mixed_datasets(2, seed=50)[:3]
        together = train(algo, config, datasets)
        assert len(together) == len(datasets)
        for data, model in zip(datasets, together):
            (alone,) = train(algo, config, [data])
            assert (model.algo, model.degenerate) == (alone.algo, alone.degenerate)
            assert_same_params(model.params, alone.params)

    def test_empty_dataset_sequence_rejected(self):
        with pytest.raises(ValueError, match="no datasets"):
            train("knn", Config({"n_neighbors": 1}), [])

    @pytest.fixture
    def knn_fits(self, monkeypatch):
        """Records every kNN fit, so a test can see that none ran."""
        fits = []
        monkeypatch.setattr(
            learners, "_train_knn", lambda config, data: fits.append(data) or {}
        )
        return fits

    def test_differing_feature_counts_rejected_before_any_fit(self, knn_fits):
        narrow = blob_dataset([(0, 0), (4, 4)], 5, 1.0, seed=1)
        wide = Dataset(np.hstack([narrow.features] * 2), narrow.labels, narrow.label_names)
        with pytest.raises(ValueError, match="feature count"):
            train("knn", Config({"n_neighbors": 1}), [narrow, wide])
        assert knn_fits == []

    def test_later_empty_dataset_rejected_before_any_fit(self, knn_fits):
        data = blob_dataset([(0, 0), (4, 4)], 5, 1.0, seed=1)
        empty = data.subset([])
        with pytest.raises(ValueError, match="empty"):
            train("knn", Config({"n_neighbors": 1}), [data, data, empty])
        assert knn_fits == []

    def test_metadata_recorded(self):
        data = blob_dataset([(0, 0), (4, 4)], 10, 1.0, seed=1)
        model = train("knn", Config({"n_neighbors": 2}), [data])[0]
        assert model.algo == "knn"
