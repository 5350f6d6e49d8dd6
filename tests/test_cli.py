"""End-to-end tests of the command-line interface."""

import json
import os

import numpy as np
import pytest

from ensopt import cli
from ensopt import data as data_module
from ensopt.artifact import load_artifact, save_artifact
from ensopt.data import DataError
from ensopt.ensemble import zero_one_ensemble_loss
from ensopt.hyperspace import ParamSpec, SearchSpace
from ensopt.optimizer import History, RunArtifact, post_hoc
from ensopt.stats import ResultTable
from ensopt.surrogate import NumericalError

TOY_CSV = os.path.join(os.path.dirname(__file__), "data", "toy.csv")

# each directory holds a results.csv and the exact stdout (per alpha),
# mean_errors.csv and pairwise_p.csv that `compare` produced for it before
# the report moved into `stats.compare`: the 18-dataset table below, two
# methods, five tied methods with repetitions (two of them identical),
# 20 datasets (largest exact Wilcoxon), and 22 datasets (normal
# approximation) both mixed and with every method strictly separated
COMPARE_DATA = os.path.join(os.path.dirname(__file__), "data", "compare")
GOLDEN_TABLES = sorted(os.listdir(COMPARE_DATA))

# frozen benchmark mean errors (percent) for 4 tuning strategies on 18
# datasets; the derived average ranks and every statistic asserted below
# were checked by hand against this table
BENCHMARK_MEANS = {
    "adlt": (15.52, 15.38, 15.39, 15.27),
    "bnk": (10.67, 10.71, 10.44, 10.60),
    "car": (1.27, 1.56, 0.81, 0.95),
    "ches": (16.86, 16.72, 15.06, 15.08),
    "ltr": (2.45, 2.50, 2.34, 2.36),
    "mgic": (12.49, 12.21, 12.18, 12.21),
    "msk": (0.29, 0.28, 0.30, 0.28),
    "p-blk": (3.06, 3.01, 3.14, 2.97),
    "pim": (25.52, 25.65, 23.70, 24.03),
    "sem": (4.43, 4.37, 4.58, 4.40),
    "spam": (6.47, 6.47, 6.45, 6.36),
    "s-gc": (23.20, 23.45, 23.05, 23.40),
    "s-im": (3.57, 2.94, 2.73, 2.55),
    "s-sh": (0.10, 0.08, 0.09, 0.09),
    "s-pl": (23.91, 22.58, 22.61, 22.63),
    "thy": (3.09, 3.17, 2.51, 2.69),
    "tita": (20.59, 20.59, 20.27, 20.57),
    "wine": (35.28, 35.09, 33.29, 33.70),
}
BENCHMARK_METHODS = ("bo-best", "bo-post", "eo", "eo-post")


def base_config(tmp_path, name="config.json", **overrides):
    doc = {
        "method": "bo-best",
        "dataset": TOY_CSV,
        "label_col": "label",
        "output_dir": str(tmp_path / "run"),
        "budget": 5,
        "init": 5,
        "seed": 7,
        "folds": 3,
        "test_fraction": 0.25,
        "algorithms": ["knn"],
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path), doc


def write_benchmark_csv(path) -> str:
    lines = ["method,dataset,repetition,error"]
    for dataset, errors in BENCHMARK_MEANS.items():
        for method, err in zip(BENCHMARK_METHODS, errors):
            lines.append(f"{method},{dataset},1,{err / 100.0}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def refuse_data(*args, **kwargs):
    raise AssertionError("the command must be rejected before any data or artifact loads")


def assert_usage_error(capsys, option):
    """Exit 1 already seen: one ``error:`` line naming ``option``, nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and option in captured.err
    assert "Traceback" not in captured.err


def read_run_json(directory):
    with open(os.path.join(directory, "run.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestRunCommand:
    def test_prints_summary_and_writes_artifact(self, tmp_path, capsys):
        cfg, doc = base_config(tmp_path)
        assert cli.main(["run", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("method=bo-best dataset=toy seed=7 budget=5 test_error=0.")
        run_doc = read_run_json(doc["output_dir"])
        assert run_doc["engine"] == "bo"
        assert len(run_doc["iterations"]) == 5
        assert set(run_doc["final"]) == {"best", "post"}
        assert os.path.exists(os.path.join(doc["output_dir"], "history", "configs.json"))

    def test_eo_method_reports_ensemble_error(self, tmp_path, capsys):
        cfg, doc = base_config(
            tmp_path, method="eo", budget=4, init=4, ensemble_size=2
        )
        assert cli.main(["run", "--config", cfg]) == 0
        run_doc = read_run_json(doc["output_dir"])
        assert run_doc["engine"] == "eo"
        assert set(run_doc["final"]) == {"best", "post", "ensemble"}
        summary_error = float(capsys.readouterr().out.split("test_error=")[1])
        assert summary_error == pytest.approx(
            run_doc["final"]["ensemble"]["test_error"], abs=1e-6
        )

    def test_repeat_runs_are_identical_apart_from_timestamp(self, tmp_path, capsys):
        overrides = {
            "budget": 7,
            "init": 4,
            "gp": {"burn_in": 5, "gp_samples": 2, "thin": 1},
            "acquisition": {"candidates": 100, "refinements": 2},
        }
        cfg_a, doc_a = base_config(
            tmp_path, name="a.json", output_dir=str(tmp_path / "a"), **overrides
        )
        cfg_b, doc_b = base_config(
            tmp_path, name="b.json", output_dir=str(tmp_path / "b"), **overrides
        )
        assert cli.main(["run", "--config", cfg_a]) == 0
        assert cli.main(["run", "--config", cfg_b]) == 0
        capsys.readouterr()

        doc1 = read_run_json(doc_a["output_dir"])
        doc2 = read_run_json(doc_b["output_dir"])
        doc1.pop("created_at")
        doc2.pop("created_at")
        assert doc1 == doc2
        for name in (
            os.path.join("history", "configs.json"),
            os.path.join("history", "predictions_val.csv"),
            os.path.join("history", "predictions_test.csv"),
            "labels_val.csv",
            "labels_test.csv",
        ):
            with open(os.path.join(doc_a["output_dir"], name), "rb") as fh:
                blob_a = fh.read()
            with open(os.path.join(doc_b["output_dir"], name), "rb") as fh:
                blob_b = fh.read()
            assert blob_a == blob_b, name

    def test_missing_dataset_exits_with_data_code(self, tmp_path, capsys):
        cfg, _ = base_config(tmp_path, dataset=str(tmp_path / "absent.csv"))
        assert cli.main(["run", "--config", cfg]) == 2
        assert "data error" in capsys.readouterr().err

    def test_invalid_config_exits_with_usage_code(self, tmp_path, capsys):
        for overrides in (
            {"method": "grid"},
            {"budget": 0},
            {"init": 9},
            {"folds": 1},
            {"loss": "hinge"},
            {"algorithms": ["knn", "svm"]},
            {"algorithms": ["gnb"]},
            {"gp": {"jitter": 1}},
        ):
            cfg, _ = base_config(tmp_path, **overrides)
            assert cli.main(["run", "--config", cfg]) == 1, overrides
            assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"gp": {"gp_samples": 0}}, "gp.gp_samples"),
            ({"gp": {"thin": 0}}, "gp.thin"),
            ({"gp": {"burn_in": -1}}, "gp.burn_in"),
            ({"gp": {"gp_samples": 2.5}}, "gp.gp_samples"),
            ({"gp": {"thin": "2"}}, "gp.thin"),
            ({"gp": 5}, "gp"),
            ({"acquisition": {"candidates": 0}}, "acquisition.candidates"),
            ({"acquisition": {"refinements": -1}}, "acquisition.refinements"),
            ({"acquisition": {"candidates": True}}, "acquisition.candidates"),
            ({"budget": "8"}, "budget"),
            ({"budget": True}, "budget"),
            ({"init": 2.0}, "init"),
            ({"seed": "1"}, "seed"),
            ({"seed": -1}, "seed"),
            ({"ensemble_size": 1.5}, "ensemble_size"),
            ({"folds": 3.0}, "folds"),
            ({"post_size": 0}, "post_size"),
            ({"warm_k": 6}, "warm_k"),
            ({"test_fraction": "0.3"}, "test_fraction"),
            ({"method": ["eo"]}, "method"),
            ({"dataset": ["a"]}, "dataset"),
            ({"output_dir": -1}, "output_dir"),
            ({"loss": 5}, "loss"),
            ({"test_dataset": 7}, "test_dataset"),
            ({"test_dataset": 0}, "test_dataset"),
            ({"label_col": True}, "label_col"),
            ({"label_col": 1.5}, "label_col"),
            ({"algorithms": 5}, "algorithms"),
            ({"algorithms": []}, "algorithms"),
            ({"algorithms": ["knn", "knn"]}, "algorithms"),
        ],
    )
    def test_bad_field_fails_before_training(self, tmp_path, capsys, monkeypatch, overrides, field):
        cfg, doc = base_config(tmp_path, **{"method": "eo", "budget": 5, "init": 2, **overrides})

        def no_data(*args, **kwargs):
            raise AssertionError("the config must be rejected before the data loads")

        monkeypatch.setattr(cli, "load_csv", no_data)
        assert cli.main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{field}'" in err
        assert "Traceback" not in err
        assert not os.path.exists(doc["output_dir"])

    @pytest.mark.parametrize(
        "document", [5, None, ["eo"], "eo"], ids=["int", "null", "list", "string"]
    )
    def test_config_document_must_be_an_object(self, tmp_path, capsys, monkeypatch, document):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document), encoding="utf-8")

        def no_data(*args, **kwargs):
            raise AssertionError("the config must be rejected before the data loads")

        monkeypatch.setattr(cli, "load_csv", no_data)
        assert cli.main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config must be a JSON object")
        assert "Traceback" not in err

    def test_non_finite_feature_is_data_error(self, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("a non-finite feature must stop the run before training")

        monkeypatch.setattr(cli, "run_bo", no_training)
        with open(TOY_CSV, "r", encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        x0, _, label = rows[3].split(",")
        for cell in ("nan", "inf", "-Infinity"):
            broken = rows[:3] + [f"{x0},{cell},{label}"] + rows[4:]
            data = tmp_path / "broken.csv"
            data.write_text("\n".join(broken) + "\n", encoding="utf-8")
            cfg, doc = base_config(tmp_path, dataset=str(data))
            assert cli.main(["run", "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert f"row 3, column 'x1': '{cell}' is not a finite number" in err
            assert "Traceback" not in err
            assert not os.path.exists(doc["output_dir"])

    @pytest.mark.parametrize(
        "algorithms, params, message",
        [
            (["knn"], [{"name": "k", "kind": "integer", "lower": 1, "upper": 9}],
             "algorithm 'knn' requires parameter 'n_neighbors'"),
            (["knn", "linear"],
             [{"name": "algorithm", "kind": "categorical", "categories": ["knn", "linear"]},
              {"name": "n_neighbors", "kind": "integer", "lower": 1, "upper": 9}],
             "algorithm 'linear' requires parameter 'C'"),
            (["knn", "tree"], [{"name": "n_neighbors", "kind": "integer", "lower": 1, "upper": 9}],
             "categorical 'algorithm' parameter"),
            (["knn", "gnb"],
             [{"name": "algorithm", "kind": "categorical", "categories": ["knn", "linear"]},
              {"name": "n_neighbors", "kind": "integer", "lower": 1, "upper": 9},
              {"name": "C", "kind": "log-continuous", "lower": 1e-3, "upper": 1e3}],
             "category 'linear' is not in config field 'algorithms'"),
            (["tree"], [{"name": "max_depth", "kind": "integer", "lower": 1, "upper": 5}],
             "algorithm 'tree' requires parameter 'min_samples_split'"),
            (["knn"], [{"name": "n_neighbors", "kind": "integer"}], "is malformed"),
            ([], [{"name": "n_neighbors", "kind": "integer", "lower": 1, "upper": 9}],
             "error: config field 'algorithms': at least one algorithm is required"),
            (["gnb"], [{"name": "n_neighbors", "kind": "integer", "lower": 1, "upper": 9}],
             "parameter 'n_neighbors' is read by no selectable algorithm"),
            (["knn"],
             [{"name": "algorithm", "kind": "categorical", "categories": ["knn", "tree"]},
              {"name": "n_neighbors", "kind": "integer", "lower": 1, "upper": 9}],
             "one algorithm ('knn') needs no 'algorithm' parameter"),
            (["knn"], [{"name": "n_neighbors", "kind": "categorical", "categories": ["few", "many"]}],
             "parameter 'n_neighbors' needs a numeric kind, not categorical"),
            (["knn"], [{"name": "n_neighbors", "kind": "continuous", "lower": 1, "upper": 9}],
             "parameter 'n_neighbors' needs kind 'integer', not 'continuous'"),
            (["knn", "tree"],
             [{"name": "algorithm", "kind": "categorical", "categories": ["knn", "tree"]},
              {"name": "n_neighbors", "kind": "integer", "lower": 1, "upper": 9},
              {"name": "max_depth", "kind": "integer", "lower": 1, "upper": 5},
              {"name": "min_samples_split", "kind": "integer", "lower": 2, "upper": 9},
              {"name": "min_samples_leaf", "kind": "log-continuous", "lower": 2, "upper": 9}],
             "parameter 'min_samples_leaf' needs kind 'integer', not 'log-continuous'"),
        ],
        ids=[
            "renamed-param",
            "second-algorithm-param",
            "no-selector",
            "unconfigured-category",
            "partial-tree",
            "malformed",
            "no-algorithms",
            "unread-param",
            "selector-for-one-algorithm",
            "categorical-learner-param",
            "continuous-integer-param",
            "log-continuous-integer-param",
        ],
    )
    def test_space_mismatch_fails_before_data(
        self, tmp_path, capsys, monkeypatch, algorithms, params, message
    ):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"params": params}), encoding="utf-8")
        cfg, doc = base_config(tmp_path, algorithms=algorithms, space=str(space))

        def no_data(*args, **kwargs):
            raise AssertionError("the space must be rejected before the data loads")

        monkeypatch.setattr(cli, "load_csv", no_data)
        assert cli.main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not os.path.exists(doc["output_dir"])

    @pytest.mark.parametrize(
        "algorithm, param",
        [
            ("linear", '{"name": "C", "kind": "log-continuous", "lower": "1e-5", "upper": 1e5}'),
            ("knn", '{"name": "n_neighbors", "kind": "integer", "lower": 1, "upper": 1e400}'),
            ("linear", '{"name": "C", "kind": "log-continuous", "lower": 1e-5, "upper": Infinity}'),
        ],
        ids=["string-lower", "integer-upper-overflows", "infinite-upper"],
    )
    def test_bound_that_is_no_finite_number_fails_before_training(
        self, tmp_path, capsys, monkeypatch, algorithm, param
    ):
        # these ended in a TypeError or OverflowError traceback, or ran to exit 0
        # with "C": Infinity recorded for every model
        space = tmp_path / "space.json"
        space.write_text(f'{{"params": [{param}]}}', encoding="utf-8")
        cfg, doc = base_config(tmp_path, algorithms=[algorithm], space=str(space))

        def no_training(*args, **kwargs):
            raise AssertionError("the space must be rejected before any training")

        monkeypatch.setattr(data_module, "train", no_training)
        assert cli.main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"space file {space} is malformed" in err and "finite numbers" in err
        assert "Traceback" not in err
        assert not os.path.exists(doc["output_dir"])

    @pytest.mark.parametrize("layout", ["is-file", "under-file", "seed-dir-is-file"])
    def test_output_dir_on_a_file_fails_before_data(self, tmp_path, capsys, monkeypatch, layout):
        blocker = tmp_path / ("runs/seed_1" if layout == "seed-dir-is-file" else "blocker")
        blocker.parent.mkdir(exist_ok=True)
        blocker.write_text("keep", encoding="utf-8")
        output_dir = {
            "is-file": blocker,
            "under-file": blocker / "run",
            "seed-dir-is-file": blocker.parent,
        }[layout]
        cfg, _ = base_config(tmp_path, output_dir=str(output_dir))
        results = str(tmp_path / "results.csv")
        batch = ["batch", "--config", cfg, "--seeds", "1..2", "--results", results, "--jobs", "1"]
        commands = [batch]
        if layout != "seed-dir-is-file":
            commands.append(["run", "--config", cfg])
        monkeypatch.setattr(cli, "load_csv", refuse_data)
        for argv in commands:
            assert cli.main(argv) == 1
            assert_usage_error(capsys, "'output_dir'")
        assert blocker.read_text(encoding="utf-8") == "keep"
        assert not os.path.exists(results)

    @pytest.mark.parametrize(
        "test_fraction", [0.001, 0.99], ids=["empty-test", "one-training-row"]
    )
    @pytest.mark.filterwarnings("ignore:label .* folds will miss it")
    def test_split_without_test_or_training_rows_is_data_error(
        self, tmp_path, capsys, monkeypatch, test_fraction
    ):
        # 60 rows: 0.001 leaves no test row, 0.99 leaves one non-test row for 2 folds
        cfg, doc = base_config(tmp_path, folds=2, test_fraction=test_fraction)
        monkeypatch.setattr(cli, "run_bo", refuse_data)
        assert cli.main(["run", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: ")
        assert "Traceback" not in captured.err
        assert not os.path.exists(doc["output_dir"])

    def test_unreadable_space_is_usage_error(self, tmp_path, capsys):
        for space in (str(tmp_path / "absent.json"), 5):
            cfg, doc = base_config(tmp_path, space=space)
            assert cli.main(["run", "--config", cfg]) == 1
            assert "space" in capsys.readouterr().err
            assert not os.path.exists(doc["output_dir"])

    def test_matching_space_file_runs(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        params = [
            {"name": "algorithm", "kind": "categorical", "categories": ["knn", "gnb"]},
            {"name": "n_neighbors", "kind": "integer", "lower": 1, "upper": 9},
        ]
        space.write_text(json.dumps({"params": params}), encoding="utf-8")
        cfg, doc = base_config(tmp_path, algorithms=["knn", "gnb"], space=str(space))
        assert cli.main(["run", "--config", cfg]) == 0
        assert "test_error=" in capsys.readouterr().out
        history = load_artifact(doc["output_dir"]).history
        assert not any(history.degenerate)

    def test_required_fields_enforced(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"method": "bo-best"}), encoding="utf-8")
        assert cli.main(["run", "--config", str(path)]) == 1
        assert "required" in capsys.readouterr().err

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "none.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert cli.main(["run", "--config", str(bad)]) == 1
        capsys.readouterr()

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        from ensopt.surrogate import NumericalError

        cfg, _ = base_config(tmp_path)

        def boom(config):
            raise NumericalError("factorization failed")

        monkeypatch.setattr(cli, "execute_run", boom)
        assert cli.main(["run", "--config", cfg]) == 3
        assert "numerical error" in capsys.readouterr().err

    def test_no_arguments_is_usage_error(self, capsys):
        assert cli.main([]) == 1
        capsys.readouterr()


class TestPostCommand:
    def test_curve_matches_in_process_selection(self, tmp_path, capsys):
        cfg, doc = base_config(tmp_path, budget=6, init=6)
        assert cli.main(["run", "--config", cfg]) == 0
        capsys.readouterr()
        out_file = str(tmp_path / "curve.csv")
        assert cli.main([
            "post",
            "--artifact", doc["output_dir"],
            "--size", "4",
            "--warm", "2",
            "--out", out_file,
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "size,val_error,test_error"
        assert len(lines) == 5

        loaded = load_artifact(doc["output_dir"])
        ensemble = post_hoc(loaded.history, 4, 2)
        val_matrix = loaded.history.val_matrix()
        test_matrix = loaded.history.test_matrix()
        for s, line in enumerate(lines[1:], start=1):
            size, val_err, test_err = line.split(",")
            assert int(size) == s
            members = ensemble.slots[:s]
            assert float(val_err) == pytest.approx(
                zero_one_ensemble_loss(members, val_matrix), abs=1e-6
            )
            assert float(test_err) == pytest.approx(
                zero_one_ensemble_loss(members, test_matrix), abs=1e-6
            )
        with open(out_file, "r", encoding="utf-8") as fh:
            assert fh.read().strip().splitlines() == lines

    def test_missing_artifact_is_data_error(self, tmp_path, capsys):
        code = cli.main(["post", "--artifact", str(tmp_path / "no_run"), "--size", "3"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "name",
        [os.path.join("history", "predictions_val.csv"), "labels_test.csv"],
        ids=["prediction", "label"],
    )
    def test_code_outside_label_set_is_data_error(self, tmp_path, capsys, name):
        cfg, doc = base_config(tmp_path, budget=4, init=4)
        assert cli.main(["run", "--config", cfg]) == 0
        capsys.readouterr()
        path = os.path.join(doc["output_dir"], name)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("7" + text[1:])
        assert cli.main(["post", "--artifact", doc["output_dir"], "--size", "3"]) == 2
        err = capsys.readouterr().err
        assert "outside the label set [0, 2)" in err
        assert "Traceback" not in err

    def test_run_directory_without_models_is_data_error(self, tmp_path, capsys):
        # save_artifact writes one for an empty pool; post once died in post_hoc
        out = str(tmp_path / "empty")
        space = SearchSpace((ParamSpec("u", "continuous", 0.0, 1.0),))
        artifact = RunArtifact("bo", 1, 1, 0, "zero_one", space.to_dict(), 2)
        save_artifact(out, artifact, History(np.array([0, 1]), np.array([1]), 2))
        for warm in ("0", "3"):
            code = cli.main(["post", "--artifact", out, "--size", "3", "--warm", warm])
            assert code == 2
            err = capsys.readouterr().err
            assert f"data error: artifact {out} holds no models" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, corrupt",
        [
            (
                os.path.join("history", "configs.json"),
                lambda doc: [{**doc[0], "values": [1, 2]}] + doc[1:],
            ),
            (
                os.path.join("history", "configs.json"),
                lambda doc: [{**doc[0], "point": [None]}] + doc[1:],
            ),
            ("run.json", lambda doc: {**doc, "space": {"params": 5}}),
            ("run.json", lambda doc: {**doc, "n_labels": None}),
            ("run.json", lambda doc: [doc]),
        ],
        ids=["values-list", "point-null", "space-params-int", "n_labels-null", "run-list"],
    )
    def test_wrongly_shaped_json_is_data_error(self, tmp_path, capsys, name, corrupt):
        cfg, doc = base_config(tmp_path, budget=4, init=4)
        assert cli.main(["run", "--config", cfg]) == 0
        capsys.readouterr()
        path = os.path.join(doc["output_dir"], name)
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(corrupt(loaded), fh)
        assert cli.main(["post", "--artifact", doc["output_dir"], "--size", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot load artifact")
        assert "Traceback" not in err

    @pytest.mark.parametrize("out", ["missing/curve.csv", "."], ids=["missing-dir", "directory"])
    def test_bad_out_path_fails_before_loading(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.setattr(cli.artifact_io, "load_artifact", refuse_data)
        argv = ["post", "--artifact", str(tmp_path / "run"), "--size", "3"]
        assert cli.main(argv + ["--out", str(tmp_path / out)]) == 1
        assert_usage_error(capsys, "--out")
        assert not os.path.exists(tmp_path / "missing")

    def test_invalid_sizes_are_usage_errors(self, tmp_path, capsys):
        assert cli.main(["post", "--artifact", "x", "--size", "0"]) == 1
        assert cli.main(["post", "--artifact", "x", "--size", "2", "--warm", "5"]) == 1
        capsys.readouterr()


class TestCompareCommand:
    def test_reproduces_benchmark_rank_analysis(self, tmp_path, capsys):
        results = write_benchmark_csv(tmp_path / "results.csv")
        out_dir = str(tmp_path / "report")
        assert cli.main([
            "compare", "--results", results, "--alpha", "0.05", "--out-dir", out_dir,
        ]) == 0
        out = capsys.readouterr().out

        # average ranks derived from the per-dataset means
        with open(os.path.join(out_dir, "mean_errors.csv"), encoding="utf-8") as fh:
            rows = fh.read().strip().splitlines()
        header = rows[0].split(",")
        rank_col = header.index("rank_means")
        ranks = {r.split(",")[0]: float(r.split(",")[rank_col]) for r in rows[1:]}
        assert ranks["bo-best"] == pytest.approx(61.0 / 18.0, abs=5e-5)
        assert ranks["bo-post"] == pytest.approx(51.0 / 18.0, abs=5e-5)
        assert ranks["eo"] == pytest.approx(33.5 / 18.0, abs=5e-5)
        assert ranks["eo-post"] == pytest.approx(34.5 / 18.0, abs=5e-5)

        friedman_line = next(l for l in out.splitlines() if "Friedman" in l)
        stat = float(friedman_line.split("=")[1].split(",")[0])
        p = float(friedman_line.split("p = ")[1])
        assert stat == pytest.approx(17.8167, abs=0.01)
        assert 1e-4 <= p <= 1.5e-3

        cd_line = next(l for l in out.splitlines() if "critical difference" in l)
        assert float(cd_line.split("=")[1]) == pytest.approx(1.1055, abs=1e-3)

        # the two top strategies and the runner-up pair overlap within the
        # critical difference; the extremes do not
        group_lines = [l for l in out.splitlines() if "not significantly" in l]
        assert "eo, eo-post, bo-post" in group_lines[0]
        assert "bo-post, bo-best" in group_lines[1]

    def test_pairwise_matrix_is_printed(self, tmp_path, capsys):
        results = write_benchmark_csv(tmp_path / "results.csv")
        assert cli.main(["compare", "--results", results]) == 0
        out = capsys.readouterr().out
        assert "Pairwise Wilcoxon" in out
        # worse-ranked rows are parenthesized somewhere in the matrix
        assert "(" in out

    def test_two_methods_skip_friedman(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        lines = ["method,dataset,repetition,error"]
        rng = np.random.default_rng(3)
        for d in range(4):
            a, b = rng.random(2) * 0.5
            lines.append(f"m1,d{d},1,{a}")
            lines.append(f"m2,d{d},1,{b}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli.main(["compare", "--results", str(path)]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_bad_alpha_and_missing_file(self, tmp_path, capsys):
        results = write_benchmark_csv(tmp_path / "results.csv")
        assert cli.main(["compare", "--results", results, "--alpha", "0.2"]) == 1
        assert cli.main(["compare", "--results", str(tmp_path / "none.csv")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("alpha", ["0.05", "0.10"])
    @pytest.mark.parametrize("name", GOLDEN_TABLES)
    def test_report_matches_golden_bytes(self, tmp_path, capsys, name, alpha):
        golden = os.path.join(COMPARE_DATA, name)
        out_dir = tmp_path / "report"
        assert cli.main([
            "compare", "--results", os.path.join(golden, "results.csv"),
            "--alpha", alpha, "--out-dir", str(out_dir),
        ]) == 0
        with open(os.path.join(golden, f"stdout_{alpha}.txt"), "rb") as fh:
            assert capsys.readouterr().out.encode("utf-8") == fh.read()
        for report in ("mean_errors.csv", "pairwise_p.csv"):
            with open(os.path.join(golden, report), "rb") as fh:
                assert (out_dir / report).read_bytes() == fh.read()

    @pytest.mark.parametrize(
        "out_dir", ["blocker", "blocker/report"], ids=["is-file", "under-file"]
    )
    def test_out_dir_on_a_file_fails_before_reading(self, tmp_path, capsys, monkeypatch, out_dir):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep", encoding="utf-8")
        monkeypatch.setattr(cli.ResultTable, "from_csv", refuse_data)
        argv = ["compare", "--results", str(tmp_path / "results.csv")]
        assert cli.main(argv + ["--out-dir", str(tmp_path / out_dir)]) == 1
        assert_usage_error(capsys, "--out-dir")
        assert blocker.read_text(encoding="utf-8") == "keep"

    @pytest.mark.parametrize(
        "n_methods, n_datasets", [(11, 3), (3, 1)], ids=["eleven-methods", "one-dataset"]
    )
    def test_untestable_table_is_usage_error_before_printing(
        self, tmp_path, capsys, n_methods, n_datasets
    ):
        # more methods than the Nemenyi table covers, or a Friedman test on
        # one dataset: the command exits 1 and prints no partial report
        path = tmp_path / "results.csv"
        lines = ["method,dataset,repetition,error"] + [
            f"m{i:02d},d{j},1,{(i + 3 * j) % 8 / 8.0}"
            for i in range(n_methods)
            for j in range(n_datasets)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli.main(["compare", "--results", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


class TestSeedParsing:
    def test_ranges_and_lists(self):
        assert cli._parse_seeds("1..4") == [1, 2, 3, 4]
        assert cli._parse_seeds("7..7") == [7]
        assert cli._parse_seeds("2,5,9") == [2, 5, 9]

    def test_invalid_inputs(self):
        for text in ("4..2", "a..b", "", "3,3", "1,two", "-2..1", "3,-1"):
            with pytest.raises(cli.UsageError):
                cli._parse_seeds(text)


class TestBatchCommand:
    def test_two_seeds_emit_four_rows(self, tmp_path, capsys):
        cfg, doc = base_config(
            tmp_path, budget=4, init=4, output_dir=str(tmp_path / "runs")
        )
        results = str(tmp_path / "results.csv")
        assert cli.main([
            "batch", "--config", cfg, "--seeds", "1..2",
            "--results", results, "--jobs", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote 4 rows" in out
        with open(results, encoding="utf-8") as fh:
            rows = fh.read().strip().splitlines()
        assert rows[0] == "method,dataset,repetition,error"
        assert len(rows) == 5
        methods = {r.split(",")[0] for r in rows[1:]}
        assert methods == {"bo-best", "bo-post"}
        assert all(r.split(",")[1] == "toy" for r in rows[1:])
        assert os.path.isdir(os.path.join(str(tmp_path / "runs"), "seed_1"))
        assert os.path.isdir(os.path.join(str(tmp_path / "runs"), "seed_2"))

    def test_batch_appends_without_second_header(self, tmp_path, capsys):
        cfg, _ = base_config(
            tmp_path, budget=4, init=4, output_dir=str(tmp_path / "runs")
        )
        results = str(tmp_path / "results.csv")
        assert cli.main([
            "batch", "--config", cfg, "--seeds", "3",
            "--results", results, "--jobs", "1",
        ]) == 0
        assert cli.main([
            "batch", "--config", cfg, "--seeds", "4",
            "--results", results, "--jobs", "1",
        ]) == 0
        capsys.readouterr()
        with open(results, encoding="utf-8") as fh:
            text = fh.read()
        assert text.count("method,dataset,repetition,error") == 1
        assert len(text.strip().splitlines()) == 5

    def test_batch_writes_the_header_into_an_empty_file(self, tmp_path, capsys):
        cfg, _ = base_config(tmp_path, budget=4, init=4, output_dir=str(tmp_path / "runs"))
        results = tmp_path / "results.csv"
        results.write_text("")
        assert cli.main([
            "batch", "--config", cfg, "--seeds", "1..2",
            "--results", str(results), "--jobs", "1",
        ]) == 0
        capsys.readouterr()
        assert results.read_text().splitlines()[0] == "method,dataset,repetition,error"
        assert ResultTable.from_csv(str(results)).errors.shape == (2, 1, 2)

    @pytest.mark.parametrize(
        "text",
        ["method,dataset,error\n", "error,method,dataset,repetition\n", "bo-best,toy,9,0.5\n"],
        ids=["missing-column", "reordered", "no-header"],
    )
    def test_batch_rejects_another_header_before_training(
        self, tmp_path, capsys, monkeypatch, text
    ):
        monkeypatch.setattr(cli, "load_csv", refuse_data)
        cfg, doc = base_config(tmp_path, output_dir=str(tmp_path / "runs"))
        results = tmp_path / "results.csv"
        results.write_text(text)
        assert cli.main([
            "batch", "--config", cfg, "--seeds", "1", "--results", str(results), "--jobs", "1",
        ]) == 1
        assert_usage_error(capsys, "header method,dataset,repetition,error")
        assert results.read_text() == text
        assert not os.path.exists(doc["output_dir"])

    def test_batch_rejects_a_row_it_would_repeat_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg, doc = base_config(tmp_path, budget=4, init=4, output_dir=str(tmp_path / "runs"))
        results = tmp_path / "results.csv"
        argv = ["batch", "--config", cfg, "--results", str(results), "--jobs", "1"]
        assert cli.main(argv + ["--seeds", "2"]) == 0
        capsys.readouterr()
        text = results.read_text()
        monkeypatch.setattr(cli, "load_csv", refuse_data)
        # seed 3 is new, seed 2's rows are in the file
        assert cli.main(argv + ["--seeds", "3,2"]) == 1
        assert_usage_error(capsys, "('bo-best', 'toy', '2')")
        assert results.read_text() == text
        assert not os.path.exists(os.path.join(doc["output_dir"], "seed_3"))

    def test_eo_batch_emits_both_selections(self, tmp_path, capsys):
        cfg, _ = base_config(
            tmp_path,
            method="eo",
            budget=4,
            init=4,
            ensemble_size=2,
            output_dir=str(tmp_path / "runs"),
        )
        results = str(tmp_path / "results.csv")
        assert cli.main([
            "batch", "--config", cfg, "--seeds", "5",
            "--results", results, "--jobs", "1",
        ]) == 0
        capsys.readouterr()
        with open(results, encoding="utf-8") as fh:
            rows = fh.read().strip().splitlines()[1:]
        assert {r.split(",")[0] for r in rows} == {"eo", "eo-post"}

    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys):
        cfg, doc = base_config(tmp_path, output_dir=str(tmp_path / "runs"))
        results = str(tmp_path / "results.csv")
        for jobs in ("0", "-1"):
            code = cli.main([
                "batch", "--config", cfg, "--seeds", "1",
                "--results", results, "--jobs", jobs,
            ])
            assert code == 1
            assert "--jobs" in capsys.readouterr().err
        assert not os.path.exists(doc["output_dir"])
        assert not os.path.exists(results)

    @pytest.mark.parametrize(
        "results", ["missing/results.csv", "."], ids=["missing-dir", "directory"]
    )
    def test_bad_results_path_fails_before_training(self, tmp_path, capsys, monkeypatch, results):
        monkeypatch.setattr(cli, "load_csv", refuse_data)
        cfg, doc = base_config(tmp_path, output_dir=str(tmp_path / "runs"))
        assert cli.main([
            "batch", "--config", cfg, "--seeds", "1..2",
            "--results", str(tmp_path / results), "--jobs", "1",
        ]) == 1
        assert_usage_error(capsys, "--results")
        assert not os.path.exists(doc["output_dir"])
        assert not os.path.exists(tmp_path / "missing")

    @staticmethod
    def inline_pool(monkeypatch) -> list[int]:
        """Make ``batch`` run its seeds in this process; returns the pool sizes it asks for."""
        recorded = []

        class InlinePool:
            """Records its size and runs each task in this process."""

            def __init__(self, max_workers):
                recorded.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = cli.concurrent.futures.Future()
                try:
                    fut.set_result(fn(*args))
                except Exception as exc:  # a worker's exception reaches ``result()``
                    fut.set_exception(exc)
                return fut

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InlinePool)
        return recorded

    def test_jobs_capped_at_seed_count(self, tmp_path, capsys, monkeypatch):
        recorded = self.inline_pool(monkeypatch)
        cfg, _ = base_config(
            tmp_path, budget=3, init=3, output_dir=str(tmp_path / "runs")
        )
        results = str(tmp_path / "results.csv")
        assert cli.main([
            "batch", "--config", cfg, "--seeds", "1,2",
            "--results", results, "--jobs", "8",
        ]) == 0
        assert recorded == [2]
        assert "wrote 4 rows for 2 seeds" in capsys.readouterr().out

    @pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "no-affinity"])
    def test_default_jobs_follow_usable_cpus(self, tmp_path, capsys, monkeypatch, affinity):
        # two usable CPUs on a 64-CPU host: three seeds get two workers
        recorded = self.inline_pool(monkeypatch)
        if affinity:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        else:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        cfg, _ = base_config(tmp_path, budget=3, init=3, output_dir=str(tmp_path / "runs"))
        results = str(tmp_path / "results.csv")
        assert cli.main(["batch", "--config", cfg, "--seeds", "1..3", "--results", results]) == 0
        assert recorded == [2]
        assert "wrote 6 rows for 3 seeds" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "error, code",
        [(DataError("no rows"), 2), (NumericalError("not positive definite"), 3)],
        ids=["data", "numerical"],
    )
    def test_failed_seed_keeps_finished_rows(self, tmp_path, capsys, monkeypatch, jobs, error, code):
        # seeds 4 and 2 fail; the rows of 3 and 1 are written, and the exit
        # code is that of seed 4, the first failed seed in the order given
        self.inline_pool(monkeypatch)

        def worker(config):
            if config.seed == 2:
                raise DataError("seed 2 broke")
            if config.seed == 4:
                raise error
            return [("bo-best", "toy", str(config.seed), config.seed / 10)]

        monkeypatch.setattr(cli, "_batch_worker", worker)
        cfg, _ = base_config(tmp_path, output_dir=str(tmp_path / "runs"))
        results = tmp_path / "results.csv"
        argv = ["batch", "--config", cfg, "--seeds", "4,3,2,1", "--results", str(results)]
        assert cli.main(argv + ["--jobs", jobs]) == code
        assert results.read_text(encoding="utf-8").splitlines() == [
            "method,dataset,repetition,error",
            "bo-best,toy,1,0.100000",
            "bo-best,toy,3,0.300000",
        ]
        out, err = capsys.readouterr()
        assert "wrote 2 rows for 2 of 4 seeds" in out
        assert "seed 2 failed: data error: seed 2 broke" in err
        assert "seed 4 failed: " in err and str(error) in err

    def test_unexpected_seed_failure_still_raises(self, tmp_path, capsys, monkeypatch):
        def worker(config):
            if config.seed == 1:
                raise TypeError("a programming error")
            return [("bo-best", "toy", str(config.seed), 0.5)]

        monkeypatch.setattr(cli, "_batch_worker", worker)
        cfg, _ = base_config(tmp_path, output_dir=str(tmp_path / "runs"))
        results = tmp_path / "results.csv"
        argv = ["batch", "--config", cfg, "--seeds", "1,2", "--results", str(results)]
        with pytest.raises(TypeError, match="programming error"):
            cli.main(argv + ["--jobs", "1"])
        assert results.read_text(encoding="utf-8").splitlines()[1:] == ["bo-best,toy,2,0.500000"]
        assert "seed 1 failed: TypeError: a programming error" in capsys.readouterr().err

    def test_worker_pool_writes_what_one_process_writes(self, tmp_path, capsys):
        # a GP run (init < budget) in forked workers against the serial path
        outputs = {}
        for jobs in ("1", "2"):
            runs = tmp_path / f"jobs{jobs}"
            cfg, _ = base_config(
                tmp_path, name=f"jobs{jobs}.json", method="eo", output_dir=str(runs),
                budget=6, init=3, ensemble_size=3, algorithms=["knn", "tree"],
                gp={"burn_in": 2, "gp_samples": 2, "thin": 1},
                acquisition={"candidates": 50, "refinements": 2},
            )
            results = tmp_path / f"results{jobs}.csv"
            argv = ["batch", "--config", cfg, "--seeds", "1..3", "--results", str(results)]
            assert cli.main(argv + ["--jobs", jobs]) == 0
            files = {"results.csv": results.read_bytes()}
            for path in sorted(runs.rglob("*")):
                if path.is_file():
                    data = path.read_bytes()
                    if path.name == "run.json":
                        doc = json.loads(data)
                        doc.pop("created_at")
                        data = doc
                    files[str(path.relative_to(runs))] = data
            outputs[jobs] = files
        capsys.readouterr()
        assert outputs["1"].keys() == outputs["2"].keys()
        assert {f"seed_{s}/run.json" for s in (1, 2, 3)} <= outputs["1"].keys()
        for name, data in outputs["1"].items():
            assert data == outputs["2"][name], name

    def test_bad_seed_spec_is_usage_error(self, tmp_path, capsys):
        cfg, _ = base_config(tmp_path)
        code = cli.main([
            "batch", "--config", cfg, "--seeds", "9..1",
            "--results", str(tmp_path / "r.csv"),
        ])
        assert code == 1
        capsys.readouterr()
