"""In-memory span recording around calls into ensopt's modules.

The tracer patches names where they are looked up at call time: because
ensopt imports with ``from .x import y``, the optimizer calls
``ensopt.optimizer.slice_sample_hypers``, CV calls ``ensopt.data.train``
and so on.  Every patch is undone when the ``installed`` block exits.

Loss functions are never wrapped: ``observation_vector`` dispatches on
``loss_fn is zero_one_ensemble_loss``, so a wrapper would silently switch it
to the slow generic path.  Candidate counts are derived from the inputs of
the scoring functions instead.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; a span's parent is the innermost open span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        before: Callable[..., dict[str, Any]] | None = None,
        after: Callable[..., dict[str, Any]] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call.

        ``before(*args, **kwargs)`` runs ahead of the clock start and
        ``after(*args, **kwargs)`` after the clock stop; the attributes they
        return are stored on the span, so their cost stays out of it.
        """

        def traced(*args: Any, **kwargs: Any) -> Any:
            attrs = before(*args, **kwargs) if before else {}
            parent = self._open[-1] if self._open else -1
            span = Span(name, 0.0, 0.0, parent, attrs)
            index = len(self.spans)
            self.spans.append(span)
            self._open.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if after:
                    span.attrs.update(after(*args, **kwargs))

        return traced


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so nested grandchildren are not subtracted twice and
    adjacent children are not double counted.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(s.duration - covered, 0.0))
    return out


def dir_bytes(directory: str) -> int:
    total = 0
    for root, _, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def _pool_size(pool: Any) -> int:
    return len(set(pool)) if isinstance(pool, (range, list, tuple)) else 0


def _targets() -> list[tuple[str, Any, str, Any, Any]]:
    """(span name, owner, attribute, before, after) for every traced call."""
    from ensopt import artifact, cli, data, optimizer, surrogate

    return [
        ("cli.execute_run", cli, "execute_run", None, None),
        ("data.load_csv", cli, "load_csv", None, None),
        ("optimizer.evaluate", optimizer, "_safe_evaluate", None, None),
        ("optimizer.val_matrix", optimizer.History, "val_matrix", None, None),
        ("surrogate.slice", optimizer, "slice_sample_hypers", None, None),
        ("surrogate.fit", optimizer, "fit", None, None),
        (
            "surrogate.predict",
            surrogate.GpState,
            "predict_batch",
            lambda self, X: {"rows": len(X)},
            None,
        ),
        ("acquisition.next_point", optimizer, "next_point", None, None),
        ("data.cv", optimizer, "cross_val_predictions", None, None),
        ("learners.train", data, "train", lambda algo, *a, **k: {"algo": algo}, None),
        ("learners.predict", data, "predict", None, None),
        (
            "ensemble.observation_vector",
            optimizer,
            "observation_vector",
            lambda ensemble, preds, loss: {"candidates": preds.n_models},
            None,
        ),
        (
            "ensemble.round_robin",
            optimizer,
            "round_robin_replace",
            lambda ensemble, slot, pool, preds, loss: {"candidates": _pool_size(pool)},
            None,
        ),
        (
            "ensemble.greedy",
            optimizer,
            "greedy_select",
            lambda pool, preds, size, warm_k, loss: {
                "candidates": _pool_size(pool) * (1 + size - warm_k)
            },
            None,
        ),
        (
            "artifact.save",
            artifact,
            "save_artifact",
            None,
            lambda directory, *a, **k: {"bytes": dir_bytes(directory)},
        ),
        (
            "artifact.load",
            artifact,
            "load_artifact",
            lambda directory: {"bytes": dir_bytes(directory)},
            None,
        ),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every traced name for the duration of the block."""
    saved = []
    try:
        for name, owner, attr, before, after in _targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, before, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
