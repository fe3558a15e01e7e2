"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfsuite -q
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from repro.scenario import ScenarioSpec  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402

from reference import REFERENCE_S, reference_sim  # noqa: E402
from run import END_TO_END, PER_LAYER, Outcomes, scaled  # noqa: E402
from tracing import COUNTERS, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, spec_dict, spec_json  # noqa: E402


def small_spec(workload: str, seed: int = 3) -> ScenarioSpec:
    """The workload at a tenth of its tasks, machines and failures.

    A short safety cap keeps the idle tail of daemon processes small.
    """
    data = spec_dict(workload, seed)

    def shrink(node):
        if isinstance(node, dict):
            for key in ("n_tasks", "machines", "victims"):
                if key in node:
                    node[key] = max(1, node[key] // 10)
            for value in node.values():
                shrink(value)
        elif isinstance(node, list):
            for value in node:
                shrink(value)

    shrink(data)
    data["max_time"] = 20_000.0
    return ScenarioSpec.from_json(json.dumps(data))


def traced_run(spec: ScenarioSpec):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin(1)
        result = spec.build().execute()
        digest = result.digest()
    finally:
        tracer.uninstall()
    return tracer, result, digest


class SpecGeneration(unittest.TestCase):
    def test_same_seed_gives_identical_json(self):
        for workload in WORKLOADS:
            self.assertEqual(spec_json(workload, 7), spec_json(workload, 7))

    def test_different_seed_gives_different_spec(self):
        for workload in WORKLOADS:
            self.assertNotEqual(spec_json(workload, 7),
                                spec_json(workload, 8))

    def test_specs_parse(self):
        for workload in WORKLOADS:
            spec = ScenarioSpec.from_json(spec_json(workload, 1))
            self.assertEqual(spec.seed, 1)


class SelfTime(unittest.TestCase):
    def test_nested_tree(self):
        spans = [
            ["parent", 0.0, 10.0, -1, 1],
            ["child", 1.0, 3.0, 0, 1],
            ["child", 4.0, 8.0, 0, 1],
            ["grandchild", 5.0, 6.0, 2, 1],
            ["empty", 9.0, 9.0, 0, 1],
        ]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs["parent"], 10.0 - 2.0 - 4.0 - 0.0)
        self.assertAlmostEqual(selfs["child"], 2.0 + 4.0 - 1.0)
        self.assertAlmostEqual(selfs["grandchild"], 1.0)
        self.assertEqual(selfs["empty"], 0.0)
        self.assertAlmostEqual(sum(selfs.values()), 10.0)

    def test_tracer_records_parents(self):
        tracer = Tracer()
        tracer.begin(4)
        tracer.span("outer", tracer.span, "inner", lambda: None)
        (outer, inner) = tracer.spans
        self.assertEqual(outer[0], "outer")
        self.assertEqual(outer[3], -1)
        self.assertEqual(inner[3], 0)
        self.assertEqual({outer[4], inner[4]}, {4})
        self.assertLessEqual(outer[1], inner[1])
        self.assertLessEqual(inner[2], outer[2])


class Wrappers(unittest.TestCase):
    def test_digests_unchanged_by_tracing(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                spec = small_spec(workload)
                plain = spec.build().execute().digest()
                _tracer, result, digest = traced_run(spec)
                self.assertEqual(digest, plain)
                self.assertEqual(result.tasks_finished, result.tasks_total)

    def test_work_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                spec = small_spec(workload)
                first, result, _ = traced_run(spec)
                second, _, _ = traced_run(spec)
                self.assertEqual(first.counts, second.counts)
                self.assertGreater(first.counts["sim.events"], 0)
                metrics = layer_metrics(first, result)
                self.assertEqual(metrics["scenario.tasks"],
                                 result.tasks_total)

    def test_layers_reached(self):
        elastic, _, _ = traced_run(small_spec("elastic"))
        for key in ("autoscaling.decisions", "observability.windows",
                    "scheduling.portfolio_evals"):
            self.assertGreater(elastic.counts[key], 0, key)
        regions, _, _ = traced_run(small_spec("regions"))
        for key in ("sharding.epochs", "sharding.messages"):
            self.assertGreater(regions.counts[key], 0, key)

    def test_uninstall_restores(self):
        original = Simulator.__dict__["step"]
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(Simulator.__dict__["step"], original)
        tracer.uninstall()
        self.assertIs(Simulator.__dict__["step"], original)


class FailureAccounting(unittest.TestCase):
    def test_each_kind_of_bad_repeat_fails(self):
        outcomes = Outcomes()
        good = SimpleNamespace(tasks_total=5, tasks_finished=5)
        self.assertTrue(outcomes.check_run(good, "d1", 5))
        self.assertTrue(outcomes.check_run(good, "d1", 5))
        self.assertFalse(outcomes.check_run(good, "d2", 5))
        unfinished = SimpleNamespace(tasks_total=5, tasks_finished=4)
        self.assertFalse(outcomes.check_run(unfinished, "d1", 5))
        self.assertFalse(outcomes.check_run(good, "d1", 6))
        self.assertEqual((outcomes.attempted, outcomes.failed), (5, 3))


class HostScaling(unittest.TestCase):
    def test_reference_is_deterministic(self):
        self.assertEqual(reference_sim(600, 4), reference_sim(600, 4))
        self.assertEqual(reference_sim(600, 4)[0], 600)

    def test_scaled_is_the_median_ratio(self):
        samples = [(2.0, 1.0), (9.0, 1.0), (3.0, 2.0)]
        self.assertAlmostEqual(scaled(samples), 2.0 * REFERENCE_S)
        self.assertIsNone(scaled([]))


class Manifest(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics(self):
        manifest = json.loads(
            (HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            {(m["name"], m["unit"]) for m in manifest["end_to_end"]},
            set(END_TO_END.items()))
        self.assertEqual(
            {(m["name"], m["unit"]) for m in manifest["per_layer"]},
            set(PER_LAYER.items()))
        self.assertEqual({w["name"] for w in manifest["workloads"]},
                         set(WORKLOADS))

    def test_every_counter_is_reported(self):
        for key in COUNTERS:
            if key != "scheduling.placement_hits":
                self.assertIn(key, PER_LAYER)


if __name__ == "__main__":
    unittest.main()
