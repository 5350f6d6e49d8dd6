"""Tests for the sequential optimization loop and run artifacts."""

import dataclasses
import json
import os
import tempfile
import weakref

import numpy as np
import pytest
from oracles import read_int_rows as text_read_int_rows
from oracles import run_bo as stand_alone_bo
from oracles import run_document
from oracles import write_int_rows as text_write_int_rows

from ensopt import artifact as artifact_io
from ensopt import cli
from ensopt.artifact import (
    _digit_rows,
    _read_int_rows,
    _write_int_rows,
    load_artifact,
    save_artifact,
)
from ensopt.ensemble import greedy_select, zero_one_ensemble_loss
from ensopt.hyperspace import Config, ParamSpec, SearchSpace
from ensopt.optimizer import (
    History,
    RunArtifact,
    SearchSettings,
    digest_vector,
    evaluate_on_test,
    post_hoc,
    run_bo,
    run_eo,
    select_best,
)
from ensopt.surrogate import NumericalError

try:
    import hypothesis
    import hypothesis.extra.numpy as hnp
except ImportError:  # in the test extra; only the codec property needs it
    hypothesis = None

UNIT = SearchSpace((ParamSpec("u", "continuous", 0.0, 1.0),))

FAST = SearchSettings(burn_in=8, gp_samples=3, thin=1, candidates=200, refinements=4)


def codec_matrices() -> dict[str, np.ndarray]:
    """Integer-row matrices that exercise both the byte grid and the text path."""
    rng = np.random.default_rng(5)
    shapes = {"1x1": (1, 1), "1xN": (1, 7), "Nx1": (6, 1), "NxM": (5, 9)}
    cases = {}
    for shape_id, shape in shapes.items():
        for dtype in (np.int64, np.int32, np.uint8):
            digits = rng.integers(0, 10, size=shape).astype(dtype)
            cases[f"{shape_id}-digits-{dtype.__name__}"] = digits
            for extra in (10, 12, -1):
                if extra < 0 and dtype is np.uint8:
                    continue
                with_extra = digits.copy()
                with_extra.flat[rng.integers(digits.size)] = extra
                cases[f"{shape_id}-{extra}-{dtype.__name__}"] = with_extra
    cases["all_digits"] = np.arange(10).reshape(2, 5)
    cases["labels_1d"] = np.array([2, 0, 1])
    cases["empty_history"] = np.array([])
    cases["no_rows"] = np.zeros((0, 3), dtype=np.int64)
    cases["no_columns"] = np.zeros((3, 0), dtype=np.int64)
    cases["bool"] = np.array([[True, False], [False, True]])
    cases["float"] = np.array([[1.0, 2.0]])
    return cases


CODEC_MATRICES = codec_matrices()
# matrices written as one-digit files, which the reader returns as uint8
ONE_DIGIT_CASES = sorted(
    c for c in CODEC_MATRICES if "-digits-" in c or c in ("all_digits", "labels_1d")
)
# text files the byte grid must leave to np.loadtxt, with its result or error
FALLBACK_TEXTS = {
    "crlf": "1,2\r\n",
    "no_final_newline": "1,2\n3,4",
    "trailing_comma_unterminated": "1,2\n3,4,",
    "two_digit": "10,20\n",
    "blank_trailing_line": "1,2\n\n",
    "blank_first_line": "\n1,2\n",
    "semicolon": "1;2\n",
    "space": "1, 2\n",
    "ragged": "1,2\n3\n",
    "word": "1,x\n",
    "float": "1,1.5\n",
    "empty_token": "1,2,\n",
    "comment": "#1,2\n",
    "minus": "-1,2\n",
    "empty": "",
    "blank": "\n",
    # one byte off a one-digit grid: a separator, or a digit just outside '0'-'9'
    "dot_separator": "1.2\n",
    "below_zero": "1,/\n",
    "above_nine": ":,2\n",
    "nul_digit": "1,\x00\n",
}


def read_outcome(read, path):
    """The array a reader returns, or the type of the exception it raises."""
    try:
        return read(path)
    except Exception as exc:
        return type(exc)


def assert_same_outcome(got, want, dtype=None):
    """Same exception type, or equal arrays of ``dtype`` (by default ``want``'s)."""
    if isinstance(want, type):
        assert got is want
    else:
        assert isinstance(got, np.ndarray)
        assert got.dtype == (want.dtype if dtype is None else dtype)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def draw_code_rows(draw):
    """Integer rows of one-digit or wider codes, down to 0 rows or 1 column."""
    st = hypothesis.strategies
    dtype = draw(st.sampled_from([np.int64, np.int32, np.uint8]))
    # the largest code: one digit, or just past it, or wider
    top = draw(st.sampled_from([9, 10, 11, 99, 100, 255 if dtype is np.uint8 else 300]))
    low = 0 if dtype is np.uint8 or draw(st.booleans()) else -3
    shape = (draw(st.integers(0, 6)), draw(st.integers(1, 6)))
    rows = draw(hnp.arrays(dtype, shape, elements=st.integers(low, top)))
    # labels are written as one 1-d row
    return rows[0] if shape[0] == 1 and draw(st.booleans()) else rows


def given_code_rows(test):
    """Run ``test`` on 200 fixed row matrices; without hypothesis, report it skipped."""
    if hypothesis is None:
        return pytest.mark.skip(reason="needs hypothesis")(test)
    cases = hypothesis.strategies.composite(draw_code_rows)()
    settings = hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    return settings(hypothesis.given(cases)(test))


@given_code_rows
def test_int_rows_round_trip_equals_text_codec(rows):
    """The same file bytes, and the same values read back; one-digit files as uint8."""
    with tempfile.TemporaryDirectory() as tmp:
        fast, text = os.path.join(tmp, "fast.csv"), os.path.join(tmp, "text.csv")
        _write_int_rows(fast, rows)
        text_write_int_rows(text, rows)
        with open(fast, "rb") as a, open(text, "rb") as b:
            assert a.read() == b.read()
        one_digit = rows.size > 0 and rows.min() >= 0 and rows.max() <= 9
        assert_same_outcome(
            read_outcome(_read_int_rows, fast),
            read_outcome(text_read_int_rows, text),
            np.uint8 if one_digit else None,
        )


class RowStub:
    """Evaluator returning a fixed row per iteration index."""

    def __init__(self, val_rows, test_rows, labels_val, labels_test, n_labels):
        self.val_rows = [np.asarray(r, dtype=np.int64) for r in val_rows]
        self.test_rows = [np.asarray(r, dtype=np.int64) for r in test_rows]
        self.labels_val = np.asarray(labels_val, dtype=np.int64)
        self.labels_test = np.asarray(labels_test, dtype=np.int64)
        self.n_labels = n_labels

    def __call__(self, config, point, seed, iteration):
        return self.val_rows[iteration], self.test_rows[iteration]


class QuantizedCurve:
    """Validation error follows f(u) = (u - 0.3)^2, quantized to n samples."""

    def __init__(self, n=1000):
        self.n = n
        self.labels_val = np.zeros(n, dtype=np.int64)
        self.labels_test = np.zeros(4, dtype=np.int64)
        self.n_labels = 2

    def __call__(self, config, point, seed, iteration):
        wrong = int(round(self.n * min(1.0, (config["u"] - 0.3) ** 2)))
        row = np.zeros(self.n, dtype=np.int64)
        row[:wrong] = 1
        return row, np.zeros(4, dtype=np.int64)


class PointHashStub:
    """Deterministic point-dependent rows, shared by both loop engines."""

    def __init__(self, n=12):
        self.n = n
        self.labels_val = (np.arange(n) % 2).astype(np.int64)
        self.labels_test = np.zeros(3, dtype=np.int64)
        self.n_labels = 2

    def __call__(self, config, point, seed, iteration):
        local = np.random.default_rng(int(point[0] * 1e9) % (2**32))
        return local.integers(0, 2, size=self.n), local.integers(0, 2, size=3)


class RaisingPointHashStub(PointHashStub):
    """``PointHashStub`` that fails on every third iteration."""

    def __call__(self, config, point, seed, iteration):
        if iteration % 3 == 2:
            raise RuntimeError("training blew up")
        return super().__call__(config, point, seed, iteration)


def assert_same_run(got, want):
    """Two (History, RunArtifact) results agree column by column and field for field."""
    (got_hist, got_art), (want_hist, want_art) = got, want
    assert len(got_hist) == len(want_hist)
    assert [c.values for c in got_hist.configs] == [c.values for c in want_hist.configs]
    for column in ("points", "val_rows", "test_rows"):
        got_col, want_col = getattr(got_hist, column), getattr(want_hist, column)
        assert [a.tobytes() for a in got_col] == [a.tobytes() for a in want_col], column
    assert [x.hex() for x in got_hist.val_losses] == [x.hex() for x in want_hist.val_losses]
    assert got_hist.degenerate == want_hist.degenerate
    assert [dataclasses.asdict(log) for log in got_art.iterations] == [
        dataclasses.asdict(log) for log in want_art.iterations
    ]
    for f in dataclasses.fields(want_art):
        assert getattr(got_art, f.name) == getattr(want_art, f.name), f.name


class TestRunBo:
    def test_budget_one(self):
        stub = RowStub([[0, 1]], [[0]], [0, 1], [0], 2)
        history, artifact = run_bo(UNIT, stub, budget=1, init=1, seed=0)
        assert len(history) == 1
        assert history.val_losses[0] == 0.0
        log = artifact.iterations[0]
        assert log.incumbent is None
        assert log.observation_digest == digest_vector(np.empty(0))

    def test_same_seed_reproduces_run(self):
        a_hist, a_art = run_bo(UNIT, PointHashStub(), 12, init=4, seed=5, settings=FAST)
        b_hist, b_art = run_bo(UNIT, PointHashStub(), 12, init=4, seed=5, settings=FAST)
        np.testing.assert_array_equal(a_hist.points, b_hist.points)
        for la, lb in zip(a_art.iterations, b_art.iterations):
            assert la.observation_digest == lb.observation_digest

    def test_different_seed_changes_run(self):
        a_hist, _ = run_bo(UNIT, PointHashStub(), 6, init=3, seed=5, settings=FAST)
        b_hist, _ = run_bo(UNIT, PointHashStub(), 6, init=3, seed=6, settings=FAST)
        assert not np.array_equal(a_hist.points, b_hist.points)

    def test_finds_quadratic_minimum(self):
        history, _ = run_bo(
            UNIT, QuantizedCurve(), budget=30, init=6, seed=2, settings=FAST
        )
        assert min(history.val_losses) <= 0.001
        best = history.configs[select_best(history)]
        assert abs(best["u"] - 0.3) < 0.05

    def test_incumbent_tracks_prefix_minimum(self):
        history, artifact = run_bo(
            UNIT, QuantizedCurve(), budget=12, init=4, seed=3, settings=FAST
        )
        losses = np.array(history.val_losses)
        for log in artifact.iterations:
            if log.iteration >= 4:
                assert log.incumbent == pytest.approx(
                    float(losses[: log.iteration].min())
                )
                assert log.gp_samples is not None
                assert len(log.gp_samples) == FAST.gp_samples

    def test_digests_recomputable_from_history(self):
        history, artifact = run_bo(UNIT, PointHashStub(), 8, init=3, seed=7, settings=FAST)
        losses = history.val_losses
        for log in artifact.iterations:
            assert log.observation_digest == digest_vector(losses[: log.iteration])

    def test_invalid_arguments(self):
        stub = RowStub([[0]], [[0]], [0], [0], 2)
        with pytest.raises(ValueError):
            run_bo(UNIT, stub, budget=2, init=3)
        with pytest.raises(ValueError):
            run_bo(UNIT, stub, budget=2, init=0)

    def test_failed_evaluation_degrades_to_constant(self):
        class Flaky(RowStub):
            def __call__(self, config, point, seed, iteration):
                if iteration == 1:
                    raise RuntimeError("training blew up")
                return super().__call__(config, point, seed, iteration)

        stub = Flaky([[0, 1]] * 3, [[0]] * 3, [0, 1], [0], 2)
        history, artifact = run_bo(UNIT, stub, budget=3, init=3, seed=0)
        assert history.degenerate == [False, True, False]
        np.testing.assert_array_equal(history.val_rows[1], [0, 0])
        assert artifact.iterations[1].degenerate


class TestRunEo:
    def test_single_slot_matches_single_model_loop(self):
        # with one slot and the plain error loss the vacated ensemble is
        # empty every iteration, so the surrogate sees exactly the
        # single-model losses and both engines must propose identical points
        bo_hist, bo_art = run_bo(
            UNIT, PointHashStub(), 20, init=5, seed=11, settings=FAST
        )
        eo_hist, ensemble, eo_art = run_eo(
            UNIT,
            PointHashStub(),
            20,
            ensemble_size=1,
            loss="zero_one",
            init=5,
            seed=11,
            settings=FAST,
        )
        np.testing.assert_array_equal(bo_hist.points, eo_hist.points)
        np.testing.assert_array_equal(bo_hist.val_rows, eo_hist.val_rows)
        for lb, le in zip(bo_art.iterations, eo_art.iterations):
            assert lb.observation_digest == le.observation_digest
            assert lb.incumbent == le.incumbent
        assert ensemble.slots == (select_best(eo_hist),)
        # run_bo is that one-slot loop: it must reproduce the stand-alone
        # single-model loop it replaced, degenerate models included
        cases = [
            (PointHashStub, 20, 5, 11),
            (RaisingPointHashStub, 12, 4, 3),
            (PointHashStub, 6, 6, 2),
            (RaisingPointHashStub, 6, 1, 9),
        ]
        for stub, budget, init, seed in cases:
            assert_same_run(
                run_bo(UNIT, stub(), budget, init=init, seed=seed, settings=FAST),
                stand_alone_bo(UNIT, stub(), budget, init=init, seed=seed, settings=FAST),
            )

    def test_programming_error_in_evaluator_ends_the_run(self):
        class Broken(RowStub):
            def __call__(self, config, point, seed, iteration):
                if iteration == 1:
                    raise TypeError("unsupported operand")
                return super().__call__(config, point, seed, iteration)

        stub = Broken([[0, 1]] * 3, [[0]] * 3, [0, 1], [0], 2)
        with pytest.raises(TypeError, match="unsupported operand"):
            run_eo(UNIT, stub, budget=3, ensemble_size=2, loss="zero_one", init=3, seed=0)

    @pytest.mark.parametrize(
        "error", [ZeroDivisionError, FloatingPointError, np.linalg.LinAlgError, NumericalError]
    )
    def test_numerical_error_in_evaluator_degrades_to_constant(self, error):
        class Failing(RowStub):
            def __call__(self, config, point, seed, iteration):
                if iteration == 1:
                    raise error("no fit")
                return super().__call__(config, point, seed, iteration)

        stub = Failing([[0, 1]] * 3, [[0]] * 3, [0, 1], [0], 2)
        history, _, artifact = run_eo(
            UNIT, stub, budget=3, ensemble_size=2, loss="zero_one", init=3, seed=0
        )
        assert history.degenerate == [False, True, False]
        assert artifact.iterations[1].degenerate

    @pytest.mark.parametrize("loss", ["hinge", zero_one_ensemble_loss], ids=["name", "callable"])
    def test_unknown_loss_rejected_before_training(self, loss):
        class NoTraining(RowStub):
            def __call__(self, config, point, seed, iteration):
                raise AssertionError("an unknown loss must stop the run before training")

        stub = NoTraining([[0, 1]], [[0]], [0, 1], [0], 2)
        with pytest.raises(ValueError, match="unknown loss"):
            run_eo(UNIT, stub, budget=1, ensemble_size=1, loss=loss, init=1, seed=0)

    def test_hand_traced_round_robin(self):
        # two samples, two slots: every loss is a dyadic rational, so the
        # expected observation vectors match the logged digests bitwise
        rows = [[0, 0], [0, 1], [1, 1], [1, 0]]
        stub = RowStub(rows, [[0], [1], [0], [1]], [0, 1], [0], 2)
        history, ensemble, artifact = run_eo(
            UNIT, stub, budget=4, ensemble_size=2, loss="squared_margin", init=4, seed=0
        )
        assert ensemble.slots == (1, 1)
        logs = artifact.iterations
        assert [log.slot for log in logs] == [0, 1, 0, 1]
        assert [log.ensemble for log in logs] == [
            (0, None),
            (0, 1),
            (1, 1),
            (1, 1),
        ]
        expected_obs = [
            np.empty(0),
            np.array([0.5]),
            np.array([0.125, 0.0]),
            np.array([0.125, 0.0, 0.125]),
        ]
        for log, obs in zip(logs, expected_obs):
            assert log.observation_digest == digest_vector(obs)
        assert all(log.incumbent is None for log in logs)

    def test_slots_fill_in_round_robin_order(self):
        rows = [[0, 1, 0], [1, 1, 0], [0, 0, 0]]
        stub = RowStub(rows, [[0]] * 3, [0, 1, 0], [0], 2)
        history, ensemble, artifact = run_eo(
            UNIT, stub, budget=3, ensemble_size=3, loss="zero_one", init=3, seed=1
        )
        for i, log in enumerate(artifact.iterations):
            assert log.slot == i
            occupied = [s for s in log.ensemble if s is not None]
            assert len(occupied) == i + 1
        assert None not in ensemble.slots

    def test_seed_reproducibility(self):
        a = run_eo(
            UNIT, PointHashStub(), 10, 3, init=4, seed=21, settings=FAST
        )
        b = run_eo(
            UNIT, PointHashStub(), 10, 3, init=4, seed=21, settings=FAST
        )
        np.testing.assert_array_equal(a[0].points, b[0].points)
        assert a[1].slots == b[1].slots

    def test_invalid_arguments(self):
        stub = RowStub([[0]], [[0]], [0], [0], 2)
        with pytest.raises(ValueError):
            run_eo(UNIT, stub, budget=1, ensemble_size=0)
        with pytest.raises(ValueError):
            run_eo(UNIT, stub, budget=1, ensemble_size=1, loss="nope")
        with pytest.raises(ValueError):
            run_eo(UNIT, stub, budget=1, ensemble_size=1, init=2)


def toy_history() -> History:
    history = History(np.array([0, 0, 1, 1]), np.array([0, 1]), 2)
    rows = [
        ([0, 1, 1, 0], [0, 1]),
        ([0, 0, 1, 1], [1, 1]),
        ([0, 0, 1, 0], [0, 0]),
    ]
    for val, test in rows:
        history.append(
            config=None, point=np.array([0.5]), val_row=val, test_row=test
        )
    return history


class TestSelection:
    def test_select_best_breaks_ties_to_lowest_id(self):
        history = History(np.array([0, 1]), np.array([0]), 2)
        for row in ([1, 0], [0, 1], [0, 1]):
            history.append(None, np.array([0.1]), row, [0])
        # ids 1 and 2 both reach zero error; the earlier one wins
        assert select_best(history) == 1

    def test_select_best_on_toy_history(self):
        # losses: 0.5, 0.0, 0.25
        assert select_best(toy_history()) == 1

    def test_post_hoc_equals_direct_greedy(self):
        history = toy_history()
        direct = greedy_select(
            range(len(history)),
            history.val_matrix(),
            size=3,
            warm_k=2,
            loss="zero_one",
        )
        assert post_hoc(history, size=3, warm_k=2).slots == direct.slots

    def test_evaluate_on_test_single_model(self):
        history = toy_history()
        # model 0 test row [0, 1] vs labels [0, 1]
        assert evaluate_on_test(0, history) == 0.0
        assert evaluate_on_test(1, history) == 0.5
        assert evaluate_on_test(2, history) == 0.5

    def test_evaluate_on_test_ensemble_majority(self):
        history = toy_history()
        ens = post_hoc(history, size=3, warm_k=1)
        # majority over test rows decides each test sample
        votes = []
        matrix = history.test_matrix()
        for s in range(2):
            column = [int(matrix.rows[m, s]) for m in ens.members()]
            votes.append(max(set(column), key=lambda v: (column.count(v), -v)))
        expected = float(np.mean(np.array(votes) != history.labels_test))
        assert evaluate_on_test(ens, history) == expected

    def test_empty_inputs_rejected(self):
        empty = History(np.array([0, 1]), np.array([0]), 2)
        with pytest.raises(ValueError):
            select_best(empty)
        with pytest.raises(ValueError):
            post_hoc(empty, size=2)
        from ensopt.ensemble import Ensemble

        with pytest.raises(ValueError):
            evaluate_on_test(Ensemble.empty(3), toy_history())


class TestHistoryExtend:
    @pytest.mark.parametrize("n", [1, 7, 1000, 1337])
    def test_extend_equals_one_append_per_row(self, n):
        rng = np.random.default_rng(n)
        labels_val, labels_test = rng.integers(0, 3, size=n), rng.integers(0, 3, size=5)
        val_rows = rng.integers(0, 3, size=(40, n))
        test_rows = rng.integers(0, 3, size=(40, 5))
        points = rng.random((40, 2))
        flags = list(rng.random(40) < 0.2)
        configs = [{"k": i} for i in range(40)]
        one, many = History(labels_val, labels_test, 3), History(labels_val, labels_test, 3)
        for row in zip(configs, points, val_rows, test_rows, flags):
            one.append(*row)
        many.append(*next(zip(configs, points, val_rows, test_rows, flags)))
        many.extend(configs[1:], points[1:], val_rows[1:], test_rows[1:], flags[1:])
        assert len(one) == len(many) == 40
        assert one.configs == many.configs == configs
        assert one.degenerate == many.degenerate == [bool(f) for f in flags]
        assert [p.tobytes() for p in one.points] == [p.tobytes() for p in many.points]
        np.testing.assert_array_equal(one.val_rows, many.val_rows)
        np.testing.assert_array_equal(one.test_rows, many.test_rows)
        np.testing.assert_array_equal(many.val_rows, val_rows)
        np.testing.assert_array_equal(many.test_rows, test_rows)
        # the count-based loss carries the bits of the per-row mean
        means = [float(np.mean(row != labels_val)) for row in val_rows]
        assert one.val_losses == many.val_losses == means
        assert all(type(x) is float for x in one.val_losses + many.val_losses)
        assert all(type(x) is bool for x in one.degenerate + many.degenerate)

    def test_appended_rows_read_back_as_narrow_read_only_codes(self):
        val_rows = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.int64)
        test_rows = np.array([[0], [1]], dtype=np.int64)
        history = History(np.array([0, 1, 1]), np.array([0]), 2)
        for val, test in zip(val_rows, test_rows):
            history.append(None, np.array([0.5]), val, test)
        for got, given in ((history.val_rows, val_rows), (history.test_rows, test_rows)):
            assert got.dtype == np.uint8 and not got.flags.writeable
            np.testing.assert_array_equal(got, given)
        assert history.labels_val.dtype == history.labels_test.dtype == np.uint8

    @pytest.mark.parametrize("split", ["val", "test"])
    def test_non_integer_rows_rejected(self, split):
        # a float row is not truncated into a plausible model with val_loss 0
        history = History(np.array([0, 1, 2]), np.array([1]), 3)
        rows = {"val": np.array([0.9, 1.7, 2.2]), "test": np.array([1.0])}
        val, test = (rows["val"], [1]) if split == "val" else ([0, 1, 2], rows["test"])
        with pytest.raises(ValueError, match="integers"):
            history.append(None, np.array([0.5]), val, test)
        with pytest.raises(ValueError, match="integers"):
            history.extend([None], [[0.5]], np.array(val)[None], np.array(test)[None], [False])
        assert len(history) == 0 and history.val_losses == []

    @pytest.mark.parametrize("code", [256, -1, 3])
    def test_codes_outside_the_label_set_raise_on_extend(self, code):
        # checked on the wide rows, before narrowing: 256 is not read as 0, -1 not as 255
        history = History(np.array([0, 1, 2]), np.array([1]), 3)
        history.append(Config({"u": 0.1}), np.array([0.1]), np.array([0, 1, 2]), np.array([1]))

        def state():
            return (
                len(history), list(history.configs), [p.tobytes() for p in history.points],
                list(history.val_losses), list(history.degenerate),
            )

        before = state()
        stacks = (history.val_rows, history.test_rows, history.val_matrix(), history.test_matrix())
        bad_val, good_test = np.array([0, code, 2]), np.array([1])
        good_val, bad_test = np.array([0, 1, 1]), np.array([code])
        for val, test, what in ((bad_val, good_test, "validation"), (good_val, bad_test, "test")):
            message = rf"{what} predictions outside the label set \[0, 3\)"
            with pytest.raises(ValueError, match=message):
                history.append(Config({"u": 0.5}), np.array([0.5]), val, test)
            with pytest.raises(ValueError, match=message):
                history.extend(
                    [Config({"u": 0.5})] * 2, [[0.5]] * 2, [good_val, val], [good_test, test],
                    [True] * 2,
                )
            assert state() == before
            now = (history.val_rows, history.test_rows, history.val_matrix(), history.test_matrix())
            assert all(a is b for a, b in zip(now, stacks))
        history.append(Config({"u": 0.9}), np.array([0.9]), good_val, good_test)
        np.testing.assert_array_equal(history.val_rows, [[0, 1, 2], [0, 1, 1]])
        np.testing.assert_array_equal(history.test_rows, [[1], [1]])
        assert history.val_losses == [0.0, 1 / 3]
        with pytest.raises(ValueError, match="validation labels outside the label set"):
            History(np.array([0, code]), np.array([1]), 3)
        with pytest.raises(ValueError, match="test labels outside the label set"):
            History(np.array([0, 1]), np.array([code]), 3)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_rows_changed_after_append_leave_the_pool_unchanged(self, dtype):
        # a reused row buffer once turned the stored [0, 1, 0, 1] into [1, 1, 1, 1],
        # whose loss still read 0.0
        history = History(np.array([0, 1, 0, 1]), np.array([1, 0]), 2)
        val, test = np.zeros(4, dtype=dtype), np.zeros(2, dtype=dtype)
        for row, test_row in (([0, 1, 0, 1], [1, 0]), ([1, 1, 0, 0], [0, 0])):
            val[:], test[:] = row, test_row
            history.append(None, np.array([0.5]), val, test)
        val[:], test[:] = 1, 1
        np.testing.assert_array_equal(history.val_rows, [[0, 1, 0, 1], [1, 1, 0, 0]])
        np.testing.assert_array_equal(history.test_rows, [[1, 0], [0, 0]])
        assert history.val_losses == [0.0, 0.5]
        block = np.array([[0, 0, 0, 1]], dtype=dtype)
        history.extend([None], [[0.5]], block, test[None], [False])
        block[:] = 1
        np.testing.assert_array_equal(history.val_rows[2], [0, 0, 0, 1])
        assert history.val_losses == [0.0, 0.5, 0.25]

    def test_appended_views_do_not_keep_the_callers_matrix_alive(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, size=500)
        wide = rng.integers(0, 3, size=(200, 500))
        alive = weakref.ref(wide)
        history = History(labels, labels[:10], 3)
        for row in wide:
            history.append(None, np.array([0.5]), row, row[:10])
        want = wide.copy()
        del wide, row
        assert alive() is None
        np.testing.assert_array_equal(history.val_rows, want)

    def test_matrix_is_built_once_per_pool_state(self):
        history = History(np.array([0, 1, 1]), np.array([0]), 2)
        history.append(None, np.array([0.5]), np.array([0, 1, 0]), np.array([0]))
        first = history.val_matrix()
        assert history.val_matrix() is first
        assert history.test_matrix() is history.test_matrix()
        assert first.rows is history.val_rows
        history.append(None, np.array([0.5]), np.array([1, 1, 1]), np.array([1]))
        second = history.val_matrix()
        assert second is not first
        np.testing.assert_array_equal(second.rows, [[0, 1, 0], [1, 1, 1]])
        np.testing.assert_array_equal(first.rows, [[0, 1, 0]])
        for matrix in (first, second, history.test_matrix()):
            with pytest.raises(ValueError, match="read-only"):
                matrix.rows[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            history.val_rows[0, 0] = 1

    def test_extend_blocks_stack_in_order(self):
        # rows added by several extends before one read come back as one matrix
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 4, size=6)
        sizes = ((2, np.int64), (1, np.uint8), (3, np.int32))
        blocks = [rng.integers(0, 4, size=(m, 6)).astype(dtype) for m, dtype in sizes]
        history = History(labels, np.array([0]), 4)
        for block in blocks:
            m = len(block)
            tests = np.zeros((m, 1), dtype=int)
            history.extend([None] * m, [[0.5]] * m, block, tests, [False] * m)
        rows = history.val_rows
        assert rows.dtype == np.uint8
        np.testing.assert_array_equal(rows, np.concatenate(blocks))
        history.extend([None], [[0.5]], blocks[1], np.zeros((1, 1), dtype=int), [False])
        np.testing.assert_array_equal(history.val_rows, np.concatenate(blocks + blocks[1:2]))

    def test_300_labels_keep_uint16_codes_through_the_text_codec(self, tmp_path):
        rng = np.random.default_rng(300)
        labels_val, labels_test = rng.integers(0, 300, size=20), rng.integers(0, 300, size=4)
        history = History(labels_val, labels_test, 300)
        val = rng.integers(0, 300, size=(5, 20))
        val[0, 0] = 299
        for row, test in zip(val, rng.integers(0, 300, size=(5, 4))):
            history.append(Config({"u": 0.5}), np.array([0.5]), row, test)
        assert history.val_rows.dtype == history.labels_val.dtype == np.uint16
        artifact = RunArtifact("bo", 5, 5, 0, "zero_one", UNIT.to_dict(), 300)
        save_artifact(str(tmp_path / "run"), artifact, history)
        with open(tmp_path / "run" / artifact_io.VAL_PREDICTIONS_FILE, encoding="utf-8") as fh:
            assert fh.readline().startswith("299,")
        loaded = load_artifact(str(tmp_path / "run")).history
        for column in ("val_rows", "test_rows", "labels_val", "labels_test"):
            got, want = getattr(loaded, column), getattr(history, column)
            assert got.dtype == np.uint16, column
            np.testing.assert_array_equal(got, want)
        assert loaded.val_losses == history.val_losses

    def test_extend_rejects_row_shape_mismatch(self):
        history = History(np.array([0, 1, 1]), np.array([0]), 2)
        with pytest.raises(ValueError, match="validation row"):
            history.extend([None], [[0.5]], [[0, 1]], [[0]], [False])
        with pytest.raises(ValueError, match="test row"):
            history.extend([None] * 2, [[0.5]] * 2, [[0, 1, 1]] * 2, [[0]], [False] * 2)
        assert len(history) == 0


class TestArtifactRoundTrip:
    def test_empty_pool_round_trips(self, tmp_path):
        # zero models write empty prediction files, which load back as zero rows
        history = History(np.array([0, 1]), np.array([1]), 2)
        artifact = RunArtifact("bo", 1, 1, 0, "zero_one", UNIT.to_dict(), 2)
        save_artifact(str(tmp_path / "run"), artifact, history)
        assert (tmp_path / "run" / artifact_io.VAL_PREDICTIONS_FILE).read_bytes() == b""
        assert (tmp_path / "run" / artifact_io.CONFIGS_FILE).read_bytes() == b"[]\n"
        loaded = load_artifact(str(tmp_path / "run")).history
        assert len(loaded) == 0
        np.testing.assert_array_equal(loaded.labels_val, [0, 1])

    def test_save_and_load_preserve_run(self, tmp_path):
        history, ensemble, artifact = run_eo(
            UNIT, PointHashStub(), 8, 2, init=4, seed=13, settings=FAST
        )
        artifact.final = {"ensemble": {"slots": list(ensemble.slots)}}
        out = str(tmp_path / "run")
        save_artifact(out, artifact, history)
        loaded = load_artifact(out)

        assert loaded.run["engine"] == "eo"
        assert loaded.run["budget"] == 8
        assert loaded.run["seed"] == 13
        assert loaded.run["final"]["ensemble"]["slots"] == list(ensemble.slots)
        assert len(loaded.history) == len(history)
        np.testing.assert_array_equal(
            loaded.history.labels_val, history.labels_val
        )
        np.testing.assert_array_equal(history.val_rows, loaded.history.val_rows)
        np.testing.assert_array_equal(history.test_rows, loaded.history.test_rows)
        np.testing.assert_allclose(history.points, loaded.history.points)
        assert history.val_losses == loaded.history.val_losses
        assert loaded.space.names == ("u",)

    @pytest.mark.parametrize("engine", ["eo", "bo"])
    def test_run_json_bytes_equal_field_by_field_document(self, tmp_path, engine):
        if engine == "eo":
            history, ensemble, artifact = run_eo(
                UNIT, RaisingPointHashStub(), 9, 2, init=4, seed=17, settings=FAST
            )
            artifact.final = {"ensemble": {"ids": list(ensemble.slots), "val_error": 0.25}}
        else:
            history, artifact = run_bo(
                UNIT, RaisingPointHashStub(), 7, init=3, seed=19, settings=FAST
            )
            artifact.final = {"best": {"id": select_best(history), "test_error": 1 / 3}}
        out = str(tmp_path / "run")
        save_artifact(out, artifact, history)
        with open(os.path.join(out, artifact_io.RUN_FILE), "rb") as fh:
            data = fh.read()
        doc = {**run_document(artifact), "created_at": json.loads(data)["created_at"]}
        assert data == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")

    def test_non_contiguous_ids_rejected(self, tmp_path):
        history, artifact = run_bo(UNIT, PointHashStub(), 4, init=2, seed=3, settings=FAST)
        out = str(tmp_path / "run")
        save_artifact(out, artifact, history)
        path = os.path.join(out, artifact_io.CONFIGS_FILE)
        with open(path, "r", encoding="utf-8") as fh:
            configs = json.load(fh)
        configs[2]["id"] = 3
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(configs, fh)
        with pytest.raises(ValueError, match="non-contiguous"):
            load_artifact(out)

    def test_digests_survive_round_trip(self, tmp_path):
        history, artifact = run_bo(UNIT, PointHashStub(), 7, init=3, seed=29, settings=FAST)
        out = str(tmp_path / "run")
        save_artifact(out, artifact, history)
        loaded = load_artifact(out)
        losses = loaded.history.val_losses
        for log in loaded.run["iterations"]:
            assert log["observation_digest"] == digest_vector(
                losses[: log["iteration"]]
            )

    @pytest.mark.parametrize(
        "rows, text, dtype",
        [
            (np.array([[0, 2, 1, 10]]), "0,2,1,10\n", np.int64),
            (np.array([[3], [0], [12]]), "3\n0\n12\n", np.int64),
            (np.array([[1, 0], [0, 1], [2, 2]]), "1,0\n0,1\n2,2\n", np.uint8),
        ],
        ids=["one_row", "one_column", "matrix"],
    )
    def test_int_rows_round_trip(self, tmp_path, rows, text, dtype):
        path = str(tmp_path / "rows.csv")
        _write_int_rows(path, rows)
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.read() == text
        back = _read_int_rows(path)
        assert back.dtype == dtype
        np.testing.assert_array_equal(back, rows)

    def test_one_dimensional_labels_written_as_one_row(self, tmp_path):
        path = str(tmp_path / "labels.csv")
        _write_int_rows(path, np.array([2, 0, 1]))
        np.testing.assert_array_equal(_read_int_rows(path), [[2, 0, 1]])

    @pytest.mark.parametrize(
        "text",
        ["1,2\n3\n", "1,x\n", "1,1.5\n", "1,2,\n", "#1,2\n"],
        ids=["ragged", "word", "float", "empty_token", "comment"],
    )
    def test_malformed_rows_rejected(self, tmp_path, text):
        path = tmp_path / "rows.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError):
            _read_int_rows(str(path))

    @pytest.mark.parametrize("case", sorted(CODEC_MATRICES))
    def test_writer_bytes_match_text_codec(self, tmp_path, case):
        rows = CODEC_MATRICES[case]
        fast, text = tmp_path / "fast.csv", tmp_path / "text.csv"
        _write_int_rows(str(fast), rows)
        text_write_int_rows(str(text), rows)
        assert fast.read_bytes() == text.read_bytes()

    @pytest.mark.parametrize("case", sorted(CODEC_MATRICES))
    def test_reader_matches_text_codec_on_written_files(self, tmp_path, case):
        # the same values; one-digit files come back as uint8
        path = str(tmp_path / "rows.csv")
        text_write_int_rows(path, CODEC_MATRICES[case])
        assert_same_outcome(
            read_outcome(_read_int_rows, path),
            read_outcome(text_read_int_rows, path),
            np.uint8 if case in ONE_DIGIT_CASES else None,
        )

    @pytest.mark.parametrize("case", sorted(FALLBACK_TEXTS))
    def test_reader_matches_text_codec_on_other_files(self, tmp_path, case):
        path = tmp_path / "rows.csv"
        path.write_bytes(FALLBACK_TEXTS[case].encode("utf-8"))
        assert _digit_rows(path.read_bytes()) is None
        assert_same_outcome(
            read_outcome(_read_int_rows, str(path)), read_outcome(text_read_int_rows, str(path))
        )

    @pytest.mark.parametrize("case", ONE_DIGIT_CASES)
    def test_one_digit_files_take_the_byte_grid(self, tmp_path, case):
        path = tmp_path / "rows.csv"
        text_write_int_rows(str(path), CODEC_MATRICES[case])
        rows = _digit_rows(path.read_bytes())
        assert rows is not None and rows.dtype == np.uint8
        np.testing.assert_array_equal(rows, np.atleast_2d(CODEC_MATRICES[case]))

    def test_interrupted_save_keeps_previous_file(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        history, artifact = run_bo(UNIT, PointHashStub(), 4, init=4, seed=3, settings=FAST)
        save_artifact(str(out), artifact, history)
        target = out / "history" / "predictions_val.csv"
        before = target.read_bytes()
        names = sorted(p.relative_to(out) for p in out.rglob("*"))
        history, artifact = run_bo(UNIT, PointHashStub(), 5, init=5, seed=4, settings=FAST)
        save_artifact(str(tmp_path / "other"), artifact, history)
        assert (tmp_path / "other" / "history" / "predictions_val.csv").read_bytes() != before

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError("no space left on device")

        def failing_open(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            if os.path.basename(path).startswith("predictions_val.csv"):
                return HalfWriter(fh)
            return fh

        monkeypatch.setattr(artifact_io, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="no space"):
            save_artifact(str(out), artifact, history)
        assert target.read_bytes() == before
        assert sorted(p.relative_to(out) for p in out.rglob("*")) == names

    @pytest.mark.parametrize(
        "name",
        [
            "history/predictions_val.csv",
            "history/predictions_test.csv",
            "labels_val.csv",
            "labels_test.csv",
        ],
    )
    def test_codes_outside_label_set_rejected(self, tmp_path, name):
        history, artifact = run_bo(UNIT, PointHashStub(), 4, init=4, seed=3, settings=FAST)
        out = tmp_path / "run"
        save_artifact(str(out), artifact, history)
        path = out / name
        text = path.read_text(encoding="utf-8")
        path.write_text("2" + text[1:], encoding="utf-8")
        with pytest.raises(ValueError, match="outside"):
            load_artifact(str(out))

    def test_malformed_prediction_file_is_a_data_error(self, tmp_path, capsys):
        history, artifact = run_bo(UNIT, PointHashStub(), 4, init=4, seed=3, settings=FAST)
        out = tmp_path / "run"
        save_artifact(str(out), artifact, history)
        val_file = out / "history" / "predictions_val.csv"
        lines = val_file.read_text(encoding="utf-8").splitlines()
        val_file.write_text("\n".join(lines[:-1] + [lines[-1] + ",0"]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_artifact(str(out))
        assert cli.main(["post", "--artifact", str(out), "--size", "3"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("text", ["", "\n", "0,1\n1,0\n"], ids=["empty", "blank", "two_rows"])
    def test_labels_file_must_hold_one_row(self, tmp_path, capsys, text):
        history, artifact = run_bo(UNIT, PointHashStub(), 4, init=4, seed=3, settings=FAST)
        out = tmp_path / "run"
        save_artifact(str(out), artifact, history)
        (out / "labels_test.csv").write_text(text, encoding="utf-8")
        with pytest.raises(ValueError):
            load_artifact(str(out))
        assert cli.main(["post", "--artifact", str(out), "--size", "3"]) == 2
        capsys.readouterr()

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(Exception):
            load_artifact(str(tmp_path / "absent"))
