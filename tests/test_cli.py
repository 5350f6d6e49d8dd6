"""End-to-end tests of the command-line interface."""

import json
import os

import numpy as np
import pytest

from ensopt import cli
from ensopt.artifact import load_artifact
from ensopt.ensemble import zero_one_ensemble_loss
from ensopt.optimizer import post_hoc

TOY_CSV = os.path.join(os.path.dirname(__file__), "data", "toy.csv")

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

    def test_bad_seed_spec_is_usage_error(self, tmp_path, capsys):
        cfg, _ = base_config(tmp_path)
        code = cli.main([
            "batch", "--config", cfg, "--seeds", "9..1",
            "--results", str(tmp_path / "r.csv"),
        ])
        assert code == 1
        capsys.readouterr()
