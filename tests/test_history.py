"""Property test of ``History`` against a plain oracle of the pool.

Blocks of every integer dtype, with codes inside and outside the label set,
go into a ``History`` by ``extend`` (or ``append`` for one row), and each
caller's block is overwritten right after.  The oracle keeps its own
``int64`` copy of every accepted row, and each loss is the per-row mean of
``row != labels`` on those ``int64`` rows.
"""

import numpy as np
import pytest

from ensopt.ensemble import code_dtype
from ensopt.optimizer import History

hypothesis = pytest.importorskip("hypothesis")
hnp = pytest.importorskip("hypothesis.extra.numpy")
st = hypothesis.strategies

DTYPES = [np.dtype(t) for t in np.typecodes["AllInteger"]]


@st.composite
def codes(draw, n_labels, shape):
    """An array of ``shape`` in any integer dtype; half of them hold only label codes."""
    dtype = draw(st.sampled_from(DTYPES))
    info = np.iinfo(dtype)
    elements = st.integers(0, min(n_labels - 1, int(info.max)))
    if draw(st.booleans()):
        elements |= st.integers(int(info.min), int(info.max))
    return draw(hnp.arrays(dtype, shape, elements=elements))


@st.composite
def pools(draw):
    n_labels = draw(st.integers(1, 300))
    n_val, n_test = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    labels = st.integers(0, n_labels - 1)
    labels_val = draw(hnp.arrays(np.int64, n_val, elements=labels))
    labels_test = draw(hnp.arrays(np.int64, n_test, elements=labels))
    blocks = []
    for m in draw(st.lists(st.integers(0, 5), max_size=5)):
        blocks.append((draw(codes(n_labels, (m, n_val))), draw(codes(n_labels, (m, n_test)))))
    return n_labels, labels_val, labels_test, blocks


def outside(block, n_labels):
    return bool(np.any((block.astype(object) < 0) | (block.astype(object) >= n_labels)))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(pools())
def test_history_equals_oracle(pool):
    n_labels, labels_val, labels_test, blocks = pool
    history = History(labels_val, labels_test, n_labels)
    val_rows, test_rows = [], []
    for val, test in blocks:
        m = len(val)
        rejected = m > 0 and (outside(val, n_labels) or outside(test, n_labels))
        try:
            if m == 1:
                history.append(None, np.zeros(1), val[0], test[0])
            else:
                history.extend([None] * m, np.zeros((m, 1)), val, test, [False] * m)
        except ValueError as exc:
            assert rejected and "outside the label set" in str(exc)
        else:
            assert not rejected
            val_rows.extend(val.astype(np.int64))
            test_rows.extend(test.astype(np.int64))
        # the pool holds its own codes: changing the caller's block changes nothing
        np.bitwise_not(val, out=val)
        np.bitwise_not(test, out=test)
        assert len(history) == len(val_rows)
        for got, want, labels in (
            (history.val_rows, val_rows, labels_val),
            (history.test_rows, test_rows, labels_test),
        ):
            assert got.dtype == code_dtype(n_labels) and not got.flags.writeable
            np.testing.assert_array_equal(got, np.array(want, np.int64).reshape(-1, labels.size))
        assert history.val_losses == [float(np.mean(row != labels_val)) for row in val_rows]
    np.testing.assert_array_equal(history.labels_val, labels_val)
    np.testing.assert_array_equal(history.labels_test, labels_test)
