"""On-disk layout of a finished run.

A run directory holds ``run.json`` (every ``RunArtifact`` field: metadata,
per-iteration audit log and final selections), the columns of the model
pool ``History`` (``history/configs.json`` lists each model's id, config
values, point, validation loss and degenerate flag, and the prediction files
hold its rows in the same order), and the labels of both evaluation splits.
The files are sufficient to rebuild selections without retraining anything.

Prediction and label files hold integer rows: one model (or one label
vector) per line, label codes separated by commas, every line ending in
``\n``.  Codes of at most ten classes are one digit each, so such a file is
a fixed grid of (digit, separator) byte pairs; it is written and read as one
buffer of 16-bit words and read back as ``uint8`` codes, and anything else
takes the general text path (``int64``).  Saving writes the pool's stacked,
read-only code matrices (``History.val_rows``/``test_rows``) as they are;
loading hands the codes it read to the rebuilt ``History``, which checks
them against ``[0, n_labels)`` without widening them and keeps its own
copy.  ``configs.json`` is joined by a direct writer whose bytes equal
``json.dumps(entries, indent=2, sort_keys=True)``, which would run the
pure-Python encoder.  Loading rejects a code outside ``[0, n_labels)`` (the
``History`` names the split and whether labels or predictions) and JSON
documents of the wrong shape with ``ValueError``.  Every file is written
to a temporary name beside it and moved into place, so an interrupted save
leaves either the previous file or the new one.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .hyperspace import Config, SearchSpace
from .optimizer import History, RunArtifact

RUN_FILE = "run.json"
CONFIGS_FILE = os.path.join("history", "configs.json")
VAL_PREDICTIONS_FILE = os.path.join("history", "predictions_val.csv")
TEST_PREDICTIONS_FILE = os.path.join("history", "predictions_test.csv")
VAL_LABELS_FILE = "labels_val.csv"
TEST_LABELS_FILE = "labels_test.csv"
# a one-digit file read as little-endian 16-bit words: each word is a digit
# byte plus 256 times the separator byte after it
_PAIR = np.dtype("<u2")
_DIGIT_COMMA = ord("0") + 256 * ord(",")
_DIGIT_NEWLINE = ord("0") + 256 * ord("\n")
_INF = float("inf")
_NUMBERS = {int, float, bool}


def _replace_file(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file and ``os.replace``."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_int_rows(path: str, rows: np.ndarray) -> None:
    """One line per row, codes joined by commas; one-digit codes go out as a byte grid."""
    rows = np.atleast_2d(rows)
    if rows.size and rows.dtype.kind in "iu" and rows.min() >= 0 and rows.max() <= 9:
        # each code and the separator after it are one little-endian (digit, ',') pair
        pairs = rows.astype(_PAIR)
        pairs += _DIGIT_COMMA
        pairs[:, -1] -= _DIGIT_COMMA - _DIGIT_NEWLINE
        data = pairs.tobytes()
    else:
        data = "".join(",".join(map(str, row)) + "\n" for row in rows.tolist()).encode("utf-8")
    _replace_file(path, data)


def _digit_rows(data: bytes) -> np.ndarray | None:
    """The ``uint8`` rows of a file of one-digit codes, or ``None`` if it is not one."""
    width = data.find(b"\n") + 1
    if width == 0 or width % 2 or len(data) % width:
        return None
    # a (digit, separator) pair minus ('0', separator) is the digit; any
    # other byte pair leaves a value above 9, wrapping around if below
    codes = np.frombuffer(data, dtype=_PAIR).reshape(-1, width // 2) - np.uint16(_DIGIT_COMMA)
    codes[:, -1] += np.uint16(_DIGIT_COMMA - _DIGIT_NEWLINE)
    if codes.max() > 9:
        return None
    return codes.astype(np.uint8)


def _read_int_rows(path: str) -> np.ndarray:
    """Comma-separated integer rows as a 2-d array; ``ValueError`` if ragged or non-integer.

    One-digit files come back as ``uint8``, every other file as ``int64``.
    """
    with open(path, "rb") as fh:
        rows = _digit_rows(fh.read())
    if rows is not None:
        return rows
    with warnings.catch_warnings():
        # an empty file reads as zero rows; callers that need rows check the shape
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(path, dtype=np.int64, delimiter=",", ndmin=2, comments=None)


def _write_json(path: str, doc: Any) -> None:
    _replace_file(path, (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _json_text(value: Any, indent: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a value nested at ``indent``.

    Strings, numbers, booleans, ``None`` and lists and string-keyed dicts of
    them are joined directly; any other value goes through ``json.dumps``,
    whose continuation lines are shifted by ``indent``.
    """
    kind = type(value)
    if kind is float:
        if value != value:
            return "NaN"
        if value in (_INF, -_INF):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    inner = indent + "  "
    if kind is list:
        if not value:
            return "[]"
        items = ",\n".join([inner + _json_text(v, inner) for v in value])
        return f"[\n{items}\n{indent}]"
    if kind is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        items = ",\n".join(
            [
                f"{inner}{encode_basestring_ascii(k)}: {_json_text(value[k], inner)}"
                for k in sorted(value)
            ]
        )
        return f"{{\n{items}\n{indent}}}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _configs_text(history: History) -> str:
    """The text of ``configs.json``, equal to ``json.dumps(entries, indent=2, sort_keys=True)``."""
    entries = [
        "  {\n"
        f'    "degenerate": {_json_text(degenerate, "    ")},\n'
        f'    "id": {i},\n'
        f'    "point": {_json_text(point.tolist(), "    ")},\n'
        f'    "val_loss": {_json_text(val_loss, "    ")},\n'
        f'    "values": {_json_text(config.values, "    ")}\n'
        "  }"
        for i, (config, point, val_loss, degenerate) in enumerate(
            zip(history.configs, history.points, history.val_losses, history.degenerate)
        )
    ]
    return "[\n" + ",\n".join(entries) + "\n]" if entries else "[]"


def _read_label_row(path: str) -> np.ndarray:
    rows = _read_int_rows(path)
    if rows.shape[0] != 1:
        raise ValueError(f"{path}: expected one row of labels")
    return rows[0]


def space_digest(space_doc: dict[str, Any]) -> str:
    canon = json.dumps(space_doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def save_artifact(directory: str, artifact: RunArtifact, history: History) -> None:
    """Write one run directory; replaces files already present, each atomically.

    ``run.json`` holds every ``RunArtifact`` field plus ``space_digest`` and
    ``created_at``; the history files hold the columns of ``history``.
    """
    os.makedirs(os.path.join(directory, "history"), exist_ok=True)
    doc = {
        **asdict(artifact),
        "space_digest": space_digest(artifact.space),
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(os.path.join(directory, RUN_FILE), doc)
    configs = _configs_text(history) + "\n"
    _replace_file(os.path.join(directory, CONFIGS_FILE), configs.encode("utf-8"))
    _write_int_rows(os.path.join(directory, VAL_PREDICTIONS_FILE), history.val_rows)
    _write_int_rows(os.path.join(directory, TEST_PREDICTIONS_FILE), history.test_rows)
    _write_int_rows(os.path.join(directory, VAL_LABELS_FILE), history.labels_val[None, :])
    _write_int_rows(os.path.join(directory, TEST_LABELS_FILE), history.labels_test[None, :])


@dataclass
class LoadedRun:
    """A run directory pulled back into memory."""

    run: dict[str, Any]
    history: History
    space: SearchSpace


def load_artifact(directory: str) -> LoadedRun:
    """Rebuild the history of a run from its directory alone."""
    with open(os.path.join(directory, RUN_FILE), "r", encoding="utf-8") as fh:
        run = json.load(fh)
    with open(os.path.join(directory, CONFIGS_FILE), "r", encoding="utf-8") as fh:
        configs = json.load(fh)
    if not isinstance(run, dict):
        raise ValueError(f"{directory}: {RUN_FILE} must hold a JSON object")
    n_labels = run.get("n_labels")
    if isinstance(n_labels, bool) or not isinstance(n_labels, int):
        raise ValueError(f"{directory}: 'n_labels' must be an integer, got {n_labels!r}")
    if (
        not isinstance(configs, list)
        or not all(
            isinstance(e, dict)
            and isinstance(e.get("values"), dict)
            and isinstance(e.get("point"), list)
            for e in configs
        )
        # decoded JSON holds exact builtin types, so one set of them covers every point
        or not set(map(type, chain.from_iterable([e["point"] for e in configs]))) <= _NUMBERS
    ):
        raise ValueError(
            f"{directory}: {CONFIGS_FILE} must list objects with a 'values' object "
            "and a 'point' list of numbers"
        )
    try:
        space = SearchSpace.from_dict(run["space"])
    except (TypeError, KeyError) as exc:
        raise ValueError(f"{directory}: malformed space in {RUN_FILE}: {exc!r}") from None
    val_rows = _read_int_rows(os.path.join(directory, VAL_PREDICTIONS_FILE))
    test_rows = _read_int_rows(os.path.join(directory, TEST_PREDICTIONS_FILE))
    labels_val = _read_label_row(os.path.join(directory, VAL_LABELS_FILE))
    labels_test = _read_label_row(os.path.join(directory, TEST_LABELS_FILE))
    if val_rows.shape[0] != len(configs) or test_rows.shape[0] != len(configs):
        raise ValueError(f"{directory}: prediction rows do not match configs.json")
    if [entry.get("id") for entry in configs] != list(range(len(configs))):
        raise ValueError(f"{directory}: non-contiguous model ids in configs.json")
    history = History(labels_val, labels_test, n_labels)
    history.extend(
        [Config(dict(entry["values"])) for entry in configs],
        [entry["point"] for entry in configs],
        val_rows,
        test_rows,
        [bool(entry.get("degenerate", False)) for entry in configs],
    )
    return LoadedRun(run=run, history=history, space=space)
