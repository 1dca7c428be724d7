"""Checks of the benchmark's own logic: percentile refusal, self-time
accounting, and restoration of wrapped attributes.

Run from the root of a source checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import time
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run._import_package()

from rebel import bench, llm, pipeline, retrieval, sim  # noqa: E402
from rebel.core import PreferenceVector  # noqa: E402

from layers import LAYERS, PACKAGE, layer_metrics  # noqa: E402
from spans import Tracer, instrument  # noqa: E402


def _attributes() -> dict[tuple[int, str], object]:
    """Identity of every attribute a traced run may swap."""
    owners = (bench, llm, pipeline, retrieval, sim, retrieval.ExperienceDatabase,
              retrieval.RulesDatabase, llm.StubProvider)
    return {
        (id(owner), attr): value
        for owner in owners
        for attr, value in vars(owner).items()
        if callable(value)
    }


class PercentileTest(unittest.TestCase):
    def test_refuses_fewer_than_ten_samples_above(self):
        with self.assertRaises(ValueError):
            run.percentile([float(i) for i in range(99)], 90)
        with self.assertRaises(ValueError):
            run.percentile([float(i) for i in range(19)], 50)

    def test_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]
        self.assertEqual(run.percentile(values, 90), 90.0)
        self.assertEqual(run.percentile(values, 50), 50.0)
        self.assertEqual(run.percentile(list(reversed(values)), 50), 50.0)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_excludes_children_and_fits_in_wall(self):
        tracer = Tracer()
        start = time.perf_counter()
        with tracer.span("outer"):
            time.sleep(0.02)
            with tracer.span("inner"):
                time.sleep(0.03)
                with tracer.span("leaf"):
                    time.sleep(0.01)
        wall = time.perf_counter() - start
        outer, inner, leaf = (tracer.stats[n] for n in ("outer", "inner", "leaf"))
        self.assertAlmostEqual(outer.self_s, outer.total_s - inner.total_s, places=12)
        self.assertAlmostEqual(inner.self_s, inner.total_s - leaf.total_s, places=12)
        self.assertAlmostEqual(leaf.self_s, leaf.total_s, places=12)
        self.assertGreaterEqual(inner.self_s, 0.03)
        self.assertLessEqual(tracer.self_time_sum(), wall)
        self.assertAlmostEqual(tracer.self_time_sum(), outer.total_s, places=12)

    def test_spans_record_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        (inner_id, inner_parent, *_), (outer_id, outer_parent, *_) = tracer.spans
        self.assertEqual(inner_parent, outer_id)
        self.assertIsNone(outer_parent)

    def test_paused_tracer_records_nothing(self):
        tracer = Tracer()
        scenario = bench.random_scenario(2, 2, 3, seed=1)
        with instrument(tracer, LAYERS, PACKAGE):
            with tracer.paused():
                llm.heuristic_allocate(scenario, PreferenceVector.of(TP=1))
        self.assertEqual(tracer.spans, [])


class RestoreTest(unittest.TestCase):
    def test_traced_calls_are_timed_and_attributes_restored(self):
        before = _attributes()
        tracer = Tracer()
        scenario = bench.random_scenario(2, 2, 3, seed=1)
        with instrument(tracer, LAYERS, PACKAGE):
            self.assertNotEqual(before, _attributes())
            plan = pipeline.heuristic_allocate(scenario, PreferenceVector.of(TP=1, MT=1))
            bench.run_mission(scenario, plan, sim.SimConfig())
        self.assertEqual(before, _attributes())
        metrics = layer_metrics(tracer)
        self.assertEqual(metrics["llm.heuristic_allocate.tied.calls"][0], 1)
        self.assertEqual(metrics["llm.heuristic_allocate.dominant.calls"][0], 0)
        self.assertEqual(metrics["sim.run_mission.calls"][0], 1)

    def test_attributes_restored_when_the_run_raises(self):
        before = _attributes()
        with self.assertRaises(KeyError):
            with instrument(Tracer(), LAYERS, PACKAGE):
                raise KeyError("boom")
        self.assertEqual(before, _attributes())

    def test_wrapper_bound_during_the_run_is_caught(self):
        probe = types.ModuleType("rebel._restore_probe")
        sys.modules[probe.__name__] = probe
        try:
            with self.assertRaises(RuntimeError):
                with instrument(Tracer(), LAYERS, PACKAGE):
                    # a module imported mid-run binds the wrapper, not the original
                    probe.run_mission = sim.run_mission
        finally:
            del sys.modules[probe.__name__]
        self.assertIs(bench.run_mission, vars(sim)["run_mission"])

if __name__ == "__main__":
    unittest.main()
