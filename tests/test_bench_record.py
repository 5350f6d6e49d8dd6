"""Tests for the paired benchmark recorder in ``tools/bench_record.py``."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

TRANSCRIPT = """\
ensbench pool_replay seed=3 trace=0
python 3.11.7 numpy 2.4.6 scipy 1.17.1 blas scipy-openblas 0.3.31.188.0 cpus 2 jobs 1 \
OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
setup runs 0.0773 0.0785 0.0679 0.0664 0.0651
op 1: wall 0.1121 s cpu 0.1121 s ok=True
op 2: wall 0.1005 s cpu 0.1004 s ok=True
wall_s median 0.1063 s, no tail percentile (needs 20+ samples), n=2
fail_frac 0.0000 fraction (0 of 2 operations)
test_error 0.054000 fraction
digest pool_replay sha256=f0f731fe92144b02ae96b91b2f84b32c80945e8e93ee06044d8270a575238d33
setup_s 0.06787518999772146 s
wall_s 0.10627688249587663 s
cpu_s 0.1062344999999999 s
models_per_s 9409.384021391466 1/s
peak_rss_mb 146.50390625 MB
{"correct": true, "attempted": 2, "failed": 0, "metrics": {"setup_s": {"value": 0.06787518999772146, \
"unit": "s"}, "wall_s": {"value": 0.10627688249587663, "unit": "s"}, "cpu_s": {"value": \
0.1062344999999999, "unit": "s"}, "models_per_s": {"value": 9409.384021391466, "unit": "1/s"}, \
"peak_rss_mb": {"value": 146.50390625, "unit": "MB"}}}
"""


def test_parses_canned_transcript():
    got = bench_record.parse_transcript(TRANSCRIPT)
    assert got["header"] == "ensbench pool_replay seed=3 trace=0"
    assert got["environment"].startswith("python 3.11.7 numpy 2.4.6 scipy 1.17.1")
    assert got["environment"].endswith("MKL_NUM_THREADS=1")
    assert got["digest"] == (
        "digest pool_replay sha256="
        "f0f731fe92144b02ae96b91b2f84b32c80945e8e93ee06044d8270a575238d33"
    )
    assert got["result"]["correct"] is True
    assert got["result"]["metrics"]["wall_s"] == {"value": 0.10627688249587663, "unit": "s"}
    without_digest = "\n".join(
        line for line in TRANSCRIPT.splitlines() if not line.startswith("digest ")
    )
    with pytest.raises(ValueError, match="digest"):
        bench_record.parse_transcript(without_digest)


def test_summary_counts_wins_by_direction():
    def run(pair, side, wall, rate):
        metrics = {"wall_s": {"value": wall}, "models_per_s": {"value": rate}}
        return {
            "workload": "w", "pair": pair, "side": side, "digest": "digest w sha256=a",
            "result": {"metrics": metrics},
        }

    runs = [
        run(0, "parent", 2.0, 10.0), run(0, "change", 1.0, 20.0),
        run(1, "change", 3.0, 5.0), run(1, "parent", 2.5, 8.0),
        {"workload": "w", "pair": 2, "side": "parent", "error": "exit code 2"},
    ]
    summary = bench_record.summarize(runs, {"wall_s": "lower", "models_per_s": "higher"})["w"]
    assert summary["pairs"] == 2
    assert summary["failed_runs"] == 1
    assert summary["digests_equal"] is True
    assert summary["metrics"]["wall_s"]["change_wins"] == 1
    assert summary["metrics"]["models_per_s"]["change_wins"] == 1
    assert summary["metrics"]["wall_s"]["parent"]["median"] == 2.25


def test_seeds_take_the_cli_parser():
    def seeds(text):
        return bench_record.parse_args(["--parent", "HEAD", "--out", "x", "--seeds", text]).seeds

    assert seeds("2..4") == [2, 3, 4]
    assert seeds("1,7") == [1, 7]


@pytest.mark.parametrize(
    "text, message",
    [("11..2", "end must be >= start"), ("3,3", "duplicate seeds"), ("-1", "non-negative")],
)
def test_bad_seeds_fail_before_the_parent_is_exported(tmp_path, monkeypatch, capsys, text, message):
    # a backwards range once ran nothing and exited 0; a repeated seed ran twice
    def export_commit(rev, dest):
        raise AssertionError("the parent was exported")

    monkeypatch.setattr(bench_record, "export_commit", export_commit)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as info:
        bench_record.main(["--parent", "HEAD", "--out", str(out), "--seeds", text])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
