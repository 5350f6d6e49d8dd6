"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest -q ensbench
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import metrics  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        self.assertIsNone(metrics.tail_percentile(1))
        self.assertIsNone(metrics.tail_percentile(19))
        self.assertEqual(metrics.tail_percentile(20), 50.0)
        self.assertEqual(metrics.tail_percentile(59), 80.0)  # 48th of 59: 11 beyond
        self.assertEqual(metrics.tail_percentile(60), 80.0)
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(199), 90.0)  # p95 leaves 9
        self.assertEqual(metrics.tail_percentile(200), 95.0)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)

    def test_nearest_rank(self):
        values = [float(v) for v in range(60, 0, -1)]  # 1..60, unsorted
        self.assertEqual(metrics.percentile(values, 80.0), 48.0)
        self.assertEqual(metrics.percentile(values, 50.0), 30.0)
        self.assertEqual(metrics.percentile(values, 100.0), 60.0)
        self.assertEqual(metrics.percentile([7.0], 80.0), 7.0)
        beyond = sum(v > metrics.percentile(values, 80.0) for v in values)
        self.assertGreaterEqual(beyond, metrics.MIN_BEYOND)


class SelfTime(unittest.TestCase):
    def test_nested_children_are_not_subtracted_twice(self):
        spans = [
            Span("root", 0.0, 10.0, -1),
            Span("child", 1.0, 6.0, 0),
            Span("grandchild", 2.0, 5.0, 1),
        ]
        self.assertEqual(tracing.self_times(spans), [5.0, 2.0, 3.0])

    def test_adjacent_children_add_up(self):
        spans = [
            Span("root", 0.0, 10.0, -1),
            Span("a", 1.0, 3.0, 0),
            Span("b", 3.0, 6.0, 0),
            Span("c", 8.0, 9.0, 0),
        ]
        self.assertEqual(tracing.self_times(spans)[0], 4.0)

    def test_overlapping_and_overhanging_children_are_merged_and_clipped(self):
        spans = [
            Span("root", 0.0, 10.0, -1),
            Span("a", 2.0, 5.0, 0),
            Span("b", 4.0, 7.0, 0),
            Span("late", 9.0, 12.0, 0),
        ]
        self.assertEqual(tracing.self_times(spans)[0], 10.0 - 5.0 - 1.0)


class Ratios(unittest.TestCase):
    def test_batch_util(self):
        self.assertAlmostEqual(metrics.batch_util(20.0, 12.5, 2), 0.8)
        self.assertAlmostEqual(metrics.batch_util(5.0, 5.0, 1), 1.0)

    def test_models_per_s(self):
        self.assertEqual(metrics.models_per_s(1000, 5.0), 200.0)
        self.assertEqual(metrics.models_per_s(160, 12.8), 12.5)


class LayerSplit(unittest.TestCase):
    def spans(self):
        return [
            Span("cli.execute_run", 0.0, 20.0, -1),
            Span("optimizer.evaluate", 1.0, 3.0, 0),
            Span("data.cv", 1.0, 3.0, 1),
            Span("learners.train", 1.0, 2.0, 2, {"algo": "tree"}),
            Span("learners.predict", 2.0, 2.5, 2),
            Span("acquisition.next_point", 4.0, 8.0, 0),
            Span("surrogate.predict", 4.0, 5.0, 5, {"rows": 1000}),
            Span("surrogate.predict", 6.0, 6.5, 5, {"rows": 1}),
            Span("optimizer.evaluate", 9.0, 10.0, 0),
            Span("ensemble.greedy", 11.0, 12.0, 0, {"candidates": 23}),
            Span("optimizer.evaluate", 13.0, 14.0, 0),
        ]

    def test_self_and_inclusive_figures(self):
        m = metrics.layer_metrics(self.spans())
        self.assertEqual(set(m) | {"cli.batch_util", "optimizer.degenerate_frac",
                                   "trace.overhead_s"}, set(metrics.LAYER_UNITS))
        self.assertEqual(m["acquisition.next_point_s"], 4.0)
        self.assertEqual(m["acquisition.self_s"], 2.5)
        self.assertEqual(m["surrogate.predict_s"], 1.5)
        self.assertEqual(m["surrogate.predict_calls"], 2)
        self.assertEqual(m["surrogate.predict_rows"], 1001)
        self.assertEqual(m["data.cv_s"], 0.5)
        self.assertEqual(m["learners.train_s.tree"], 1.0)
        self.assertEqual(m["learners.train_s.knn"], 0.0)
        self.assertEqual(m["optimizer.evaluate_s"], 4.0)
        self.assertEqual(m["ensemble.candidates"], 23)
        self.assertEqual(m["cli.execute_run_s"], 20.0 - 2.0 - 4.0 - 1.0 - 1.0 - 1.0)
        self.assertEqual(m["optimizer.iter_s.p50"], 4.0)  # intervals 8 and 4
        self.assertEqual(metrics.nesting_problems(self.spans()), [])

    def test_iteration_intervals_stay_within_one_run(self):
        spans = [
            Span("cli.execute_run", 0.0, 10.0, -1),
            Span("optimizer.evaluate", 1.0, 2.0, 0),
            Span("optimizer.evaluate", 3.0, 4.0, 0),
            Span("cli.execute_run", 10.0, 20.0, -1),
            Span("optimizer.evaluate", 15.0, 16.0, 3),
            Span("optimizer.evaluate", 16.5, 17.0, 3),
        ]
        self.assertEqual(metrics.iteration_intervals(spans), [2.0, 1.5])

    def test_stray_spans_are_reported(self):
        spans = [Span("acquisition.next_point", 0.0, 1.0, -1), Span("surrogate.predict", 2.0, 3.0, -1)]
        self.assertEqual(len(metrics.nesting_problems(spans)), 1)


class Patching(unittest.TestCase):
    def test_patches_record_nested_spans_and_are_undone(self):
        from ensopt import ensemble, optimizer, surrogate

        original = optimizer.next_point
        predict = surrogate.GpState.__dict__["predict_batch"]
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            self.assertIsNot(optimizer.next_point, original)
            # loss functions stay unwrapped, so identity dispatch keeps working
            self.assertIs(optimizer.zero_one_ensemble_loss, ensemble.zero_one_ensemble_loss)
        self.assertIs(optimizer.next_point, original)
        self.assertIs(surrogate.GpState.__dict__["predict_batch"], predict)

    def test_wrapper_links_children_to_the_open_span(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda x: x + 1, before=lambda x: {"x": x})
        outer = tracer.wrap("outer", lambda x: inner(x) * 2)
        self.assertEqual(outer(3), 8)
        self.assertEqual([s.name for s in tracer.spans], ["outer", "inner"])
        self.assertEqual([s.parent for s in tracer.spans], [-1, 0])
        self.assertEqual(tracer.spans[1].attrs, {"x": 3})
        self.assertLessEqual(tracer.spans[0].start, tracer.spans[1].start)
        self.assertLessEqual(tracer.spans[1].end, tracer.spans[0].end)


class Declaration(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_layers(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        declared = {m["name"]: m["unit"] for m in doc["per_layer"]}
        self.assertEqual(declared, metrics.LAYER_UNITS)


if __name__ == "__main__":
    unittest.main()
