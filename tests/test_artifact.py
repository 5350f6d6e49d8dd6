"""Byte-level tests of the run directory format.

``tests/data/artifact`` is a run directory written before label codes were
narrowed and ``configs.json`` got its own writer, by ``ensopt run`` on
``tests/data/toy.csv`` with method ``eo``, budget 6, init 3 and seed 1 (every
other field at its default).  ``tests/data/artifact_curve.csv`` is what
``ensopt post --artifact tests/data/artifact --size 5 --warm 2`` wrote for it.
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from ensopt import artifact as artifact_io
from ensopt import cli
from ensopt.artifact import _configs_text, _json_text, load_artifact, save_artifact
from ensopt.hyperspace import Config
from ensopt.optimizer import History, RunArtifact

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "artifact")
GOLDEN_CURVE = os.path.join(DATA, "artifact_curve.csv")
FILES = (
    artifact_io.RUN_FILE,
    artifact_io.CONFIGS_FILE,
    artifact_io.VAL_PREDICTIONS_FILE,
    artifact_io.TEST_PREDICTIONS_FILE,
    artifact_io.VAL_LABELS_FILE,
    artifact_io.TEST_LABELS_FILE,
)


def read(directory, name):
    with open(os.path.join(directory, name), "rb") as fh:
        return fh.read()


def created_at(directory):
    return json.loads(read(directory, artifact_io.RUN_FILE))["created_at"]


class TestGoldenRunDirectory:
    def test_save_of_load_reproduces_every_byte(self, tmp_path):
        loaded = load_artifact(GOLDEN)
        fields = {f.name: loaded.run[f.name] for f in dataclasses.fields(RunArtifact)}
        out = str(tmp_path / "run")
        save_artifact(out, RunArtifact(**fields), loaded.history)
        assert sorted(os.listdir(out)) == sorted(os.listdir(GOLDEN))
        for name in FILES:
            got = read(out, name)
            if name == artifact_io.RUN_FILE:
                got = got.replace(created_at(out).encode(), created_at(GOLDEN).encode())
            assert got == read(GOLDEN, name), name

    def test_loaded_codes_are_narrow(self):
        history = load_artifact(GOLDEN).history
        for codes in (history.val_rows, history.test_rows, history.labels_val):
            assert codes.dtype == np.uint8 and not codes.flags.writeable

    def test_post_curve_is_unchanged(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        argv = ["post", "--artifact", GOLDEN, "--size", "5", "--warm", "2", "--out", str(out)]
        assert cli.main(argv) == 0
        with open(GOLDEN_CURVE, "rb") as fh:
            assert out.read_bytes() == fh.read()
        capsys.readouterr()


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072009e-308]
floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
scalars = (
    floats
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.booleans()
    | st.none()
    | st.text(max_size=8)
)
# nested documents, with tuples and non-string keys for the json.dumps fallback
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    | st.dictionaries(st.integers(0, 9), inner, max_size=3),
    max_leaves=12,
)


def reference(value, indent=""):
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(documents, st.sampled_from(["", "  ", "      "]))
def test_json_text_equals_json_dumps(value, indent):
    assert _json_text(value, indent) == reference(value, indent)


# (d, entries): each entry is one model's values, degenerate flag and d-float point
pools = st.integers(0, 3).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(
            st.tuples(
                st.dictionaries(st.text(max_size=6), scalars, max_size=4),
                st.booleans(),
                st.lists(floats, min_size=d, max_size=d),
            ),
            max_size=5,
        ),
    )
)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(pools)
@hypothesis.example((0, [({}, True, [])]))
@hypothesis.example((2, [({"a": -0.0, "é": "ü"}, False, [math.nan, -math.inf])]))
def test_configs_text_equals_json_dumps(pool):
    d, entries = pool
    m = len(entries)
    history = History(np.array([0, 1, 1]), np.array([0]), 2)
    history.extend(
        [Config(values) for values, _, _ in entries],
        np.array([point for _, _, point in entries], dtype=float).reshape(m, d),
        np.array([[0, 1, 1], [1, 0, 1], [0, 0, 0], [1, 1, 1], [1, 0, 0]])[:m],
        np.zeros((m, 1), dtype=int),
        [flag for _, flag, _ in entries],
    )
    doc = [
        {"id": i, "values": values, "point": point, "val_loss": loss, "degenerate": flag}
        for i, ((values, flag, point), loss) in enumerate(zip(entries, history.val_losses))
    ]
    assert _configs_text(history) == json.dumps(doc, indent=2, sort_keys=True)
