"""Tests for CSV loading, split construction and cross-validated rows."""

import numpy as np
import pytest

from ensopt.data import (
    DataError,
    cross_val_predictions,
    load_csv,
    make_split,
    merge_with_test,
)
from ensopt.hyperspace import Config
from ensopt.learners import Dataset

from oracles import cross_val_predictions as dict_scatter_cross_val
from oracles import fold_losses


def write_csv(path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def labeled_dataset(counts: dict[int, int], seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(n, c, dtype=np.int64) for c, n in counts.items()])
    features = rng.normal(size=(labels.size, 2)) + labels[:, None].astype(float)
    names = tuple(str(c) for c in range(max(counts) + 1))
    return Dataset(features, labels, names)


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            "x0,x1,target\n1.0,2.0,yes\n3.0,4.0,no\n5.0,6.0,yes\n",
        )
        data = load_csv(path, "target")
        np.testing.assert_allclose(data.features, [[1, 2], [3, 4], [5, 6]])
        assert data.label_names == ("no", "yes")
        np.testing.assert_array_equal(data.labels, [1, 0, 1])

    def test_label_column_by_index(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            "a,b,c\n0.5,x,1.5\n2.5,y,3.5\n",
        )
        data = load_csv(path, 1)
        np.testing.assert_allclose(data.features, [[0.5, 1.5], [2.5, 3.5]])
        assert data.label_names == ("x", "y")

    def test_label_column_in_the_middle(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            "a,lab,b\n1,p,2\n3,q,4\n",
        )
        by_name = load_csv(path, "lab")
        by_index = load_csv(path, 1)
        np.testing.assert_array_equal(by_name.features, by_index.features)
        np.testing.assert_array_equal(by_name.labels, by_index.labels)

    def test_numeric_labels_sort_numerically(self, tmp_path):
        # "10" must come after "2" in the canonical ordering
        path = write_csv(
            tmp_path / "t.csv",
            "x,y\n0.0,10\n1.0,2\n2.0,10\n",
        )
        data = load_csv(path, "y")
        assert data.label_names == ("2", "10")
        np.testing.assert_array_equal(data.labels, [1, 0, 1])

    def test_parse_error_names_row_and_column(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            "x0,x1,y\n1.0,2.0,a\n1.0,oops,b\n",
        )
        with pytest.raises(DataError, match=r"row 2, column 'x1'"):
            load_csv(path, "y")

    def test_ragged_row_rejected(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "x,y\n1.0,a\n2.0\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path, "y")

    def test_empty_label_rejected(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "x,y\n1.0,a\n2.0, \n")
        with pytest.raises(DataError, match="empty label"):
            load_csv(path, "y")

    def test_missing_label_column(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "x,y\n1.0,a\n")
        with pytest.raises(DataError, match="not found"):
            load_csv(path, "z")
        with pytest.raises(DataError, match="out of range"):
            load_csv(path, 5)

    def test_single_distinct_label_rejected(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "x,y\n1.0,a\n2.0,a\n")
        with pytest.raises(DataError, match="distinct labels"):
            load_csv(path, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(str(tmp_path / "absent.csv"), "y")


class TestMergeWithTest:
    def test_union_label_map(self):
        train_ds = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]), ("a", "c"))
        test_ds = Dataset(np.array([[2.0], [3.0]]), np.array([0, 1]), ("b", "c"))
        merged, test_idx = merge_with_test(train_ds, test_ds)
        assert merged.label_names == ("a", "b", "c")
        # "c" is code 1 in both inputs but code 2 in the union
        np.testing.assert_array_equal(merged.labels, [0, 2, 1, 2])
        np.testing.assert_array_equal(test_idx, [2, 3])
        np.testing.assert_allclose(merged.features, [[0], [1], [2], [3]])

    def test_feature_count_mismatch(self):
        a = Dataset(np.zeros((2, 2)), np.array([0, 1]), ("a", "b"))
        b = Dataset(np.zeros((2, 3)), np.array([0, 1]), ("a", "b"))
        with pytest.raises(DataError, match="feature count"):
            merge_with_test(a, b)


class TestMakeSplit:
    def test_test_size_is_floor_of_fraction(self):
        data = labeled_dataset({0: 60, 1: 40})
        plan = make_split(data, 0.33, 5, seed=0)
        assert plan.test.size == 33

    def test_test_set_is_stratified_within_one(self):
        data = labeled_dataset({0: 60, 1: 40})
        plan = make_split(data, 0.33, 5, seed=0)
        test_labels = data.labels[plan.test]
        for c, n_c in [(0, 60), (1, 40)]:
            got = int(np.sum(test_labels == c))
            want = n_c * 0.33
            assert np.floor(want) <= got <= np.ceil(want)

    def test_partition_of_all_indices(self):
        data = labeled_dataset({0: 37, 1: 29, 2: 34})
        plan = make_split(data, 0.25, 4, seed=3)
        pieces = [plan.test, *plan.folds]
        combined = np.concatenate(pieces)
        assert combined.size == data.n_samples
        np.testing.assert_array_equal(np.sort(combined), np.arange(data.n_samples))

    def test_folds_stratified_within_one(self):
        data = labeled_dataset({0: 50, 1: 50})
        plan = make_split(data, 0.2, 5, seed=1)
        for c in (0, 1):
            per_fold = [int(np.sum(data.labels[f] == c)) for f in plan.folds]
            assert max(per_fold) - min(per_fold) <= 1

    def test_same_seed_reproduces_plan(self):
        data = labeled_dataset({0: 40, 1: 40})
        a = make_split(data, 0.3, 4, seed=9)
        b = make_split(data, 0.3, 4, seed=9)
        np.testing.assert_array_equal(a.test, b.test)
        for fa, fb in zip(a.folds, b.folds):
            np.testing.assert_array_equal(fa, fb)

    def test_different_seed_changes_plan(self):
        data = labeled_dataset({0: 40, 1: 40})
        a = make_split(data, 0.3, 4, seed=9)
        b = make_split(data, 0.3, 4, seed=10)
        assert not np.array_equal(a.test, b.test)

    def test_fixed_test_passthrough(self):
        data = labeled_dataset({0: 20, 1: 20})
        fixed = np.array([5, 1, 38])
        plan = make_split(data, 0.3, 4, seed=0, fixed_test=fixed)
        np.testing.assert_array_equal(plan.test, [1, 5, 38])
        assert not set(plan.test.tolist()) & {
            int(i) for f in plan.folds for i in f
        }

    def test_rare_label_warns(self):
        data = labeled_dataset({0: 30, 1: 3})
        with pytest.warns(UserWarning, match="folds will miss it"):
            make_split(data, 0.1, 5, seed=0)

    def test_too_few_folds_rejected(self):
        data = labeled_dataset({0: 20, 1: 20})
        with pytest.raises(DataError):
            make_split(data, 0.3, 1, seed=0)
        with pytest.raises(DataError):
            make_split(data, 1.5, 4, seed=0)

    @pytest.mark.filterwarnings("ignore:label .* folds will miss it")
    def test_split_leaving_no_test_or_training_rows_rejected(self):
        data = labeled_dataset({0: 30, 1: 30})
        with pytest.raises(DataError, match="test set is empty"):
            make_split(data, 0.001, 2, seed=0)
        with pytest.raises(DataError, match="test set is empty"):
            make_split(data, 0.3, 2, seed=0, fixed_test=np.array([], dtype=np.int64))
        # one non-test row: the fold holding it has nothing to train on
        with pytest.raises(DataError, match="one fold holds all 1 non-test samples"):
            make_split(data, 0.99, 2, seed=0)
        with pytest.raises(DataError, match="one fold holds all 1 non-test samples"):
            make_split(data, 0.3, 5, seed=0, fixed_test=np.arange(1, 60))
        assert make_split(data, 0.3, 2, seed=0, fixed_test=np.arange(2, 60)).test.size == 58

    def test_non_test_complements_test(self):
        data = labeled_dataset({0: 30, 1: 30})
        plan = make_split(data, 0.25, 3, seed=2)
        nontest = plan.non_test(data.n_samples)
        assert nontest.size == data.n_samples - plan.test.size
        assert not set(nontest.tolist()) & set(plan.test.tolist())


class TestCrossValPredictions:
    def test_every_nontest_index_predicted_once(self):
        data = labeled_dataset({0: 30, 1: 30}, seed=4)
        plan = make_split(data, 0.2, 4, seed=4)
        val_row, test_row = cross_val_predictions(
            "knn", Config({"n_neighbors": 3}), data, plan
        )
        nontest = plan.non_test(data.n_samples)
        assert val_row.shape == (nontest.size,)
        assert test_row.shape == (plan.test.size,)
        assert np.all(val_row >= 0)
        assert np.all(val_row < data.n_labels)

    def test_rows_are_deterministic(self):
        data = labeled_dataset({0: 25, 1: 25}, seed=6)
        plan = make_split(data, 0.2, 5, seed=6)
        a = cross_val_predictions("tree", Config(
            {"max_depth": 3, "min_samples_split": 2, "min_samples_leaf": 1}
        ), data, plan)
        b = cross_val_predictions("tree", Config(
            {"max_depth": 3, "min_samples_split": 2, "min_samples_leaf": 1}
        ), data, plan)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_majority_model_error_is_minority_frequency(self):
        # a neighbourhood covering the whole training fold votes the global
        # majority everywhere, so the pooled error is the minority share;
        # the test set takes one row of each label and leaves 30 and 70
        data = labeled_dataset({0: 31, 1: 71}, seed=8)
        plan = make_split(data, 0.5, 5, seed=8, fixed_test=np.array([0, 31]))
        val_row, _ = cross_val_predictions(
            "knn", Config({"n_neighbors": 1000}), data, plan
        )
        np.testing.assert_array_equal(val_row, np.ones_like(val_row))
        nontest = plan.non_test(data.n_samples)
        err = float(np.mean(val_row != data.labels[nontest]))
        assert err == pytest.approx(0.30)

    def test_val_row_follows_nontest_order(self):
        # easy blobs: out-of-fold predictions mostly match the labels, which
        # only holds under the documented ordering
        data = labeled_dataset({0: 40, 1: 40}, seed=10)
        data = Dataset(
            data.features + 4.0 * data.labels[:, None], data.labels, data.label_names
        )
        plan = make_split(data, 0.25, 4, seed=10)
        val_row, test_row = cross_val_predictions(
            "knn", Config({"n_neighbors": 3}), data, plan
        )
        nontest = plan.non_test(data.n_samples)
        assert float(np.mean(val_row != data.labels[nontest])) <= 0.05
        assert float(np.mean(test_row != data.labels[plan.test])) <= 0.05

    @pytest.mark.parametrize("algo, values", [
        ("knn", {"n_neighbors": 4}),
        ("tree", {"max_depth": 3, "min_samples_split": 2, "min_samples_leaf": 1}),
        ("gnb", {}),
        ("linear", {"C": 1.0}),
    ])
    def test_rows_equal_per_sample_scatter(self, algo, values):
        data = labeled_dataset({0: 23, 1: 31, 2: 17}, seed=14)
        for plan in (
            make_split(data, 0.3, 4, seed=14),
            make_split(data, 0.5, 3, seed=15, fixed_test=np.arange(0, 71, 3)),
        ):
            got = cross_val_predictions(algo, Config(values), data, plan)
            want = dict_scatter_cross_val(algo, Config(values), data, plan)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


class TestFoldLosses:
    def test_equal_folds_average_to_pooled_loss(self):
        # the test set takes one row of each label, leaving 50 and 50
        data = labeled_dataset({0: 51, 1: 51}, seed=12)
        plan = make_split(data, 0.5, 5, seed=12, fixed_test=np.array([0, 51]))
        labels_val = data.labels[plan.non_test(data.n_samples)]
        rng = np.random.default_rng(3)
        val_row = rng.integers(0, 2, size=labels_val.size)
        losses = fold_losses(val_row, labels_val, plan, data.n_samples)
        assert len(losses) == 5
        pooled = float(np.mean(val_row != labels_val))
        assert np.mean(losses) == pytest.approx(pooled, rel=1e-12)

    def test_single_fold_loss_matches_direct_count(self):
        # the test set takes one row of each label, leaving 10 and 10
        data = labeled_dataset({0: 11, 1: 11}, seed=13)
        plan = make_split(data, 0.5, 2, seed=13, fixed_test=np.array([0, 11]))
        nontest = plan.non_test(data.n_samples)
        labels_val = data.labels[nontest]
        val_row = labels_val.copy()
        fold0 = plan.folds[0]
        flipped = np.searchsorted(nontest, fold0[0])
        val_row[flipped] = 1 - val_row[flipped]
        losses = fold_losses(val_row, labels_val, plan, data.n_samples)
        assert losses[0] == pytest.approx(1.0 / fold0.size)
        assert losses[1] == 0.0
