"""Tests of the benchmark harness itself.

    python3 -m unittest discover -s bench/tests

They run a few operations of each workload, not whole passes.
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# A few cheap operations per workload, covering every layer the workload reaches.
SAMPLE = {
    "words": lambda ops: [op for op in ops if op.tier == ("words", 32)][:4],
    "search": lambda ops: [op for op in ops if op.name.startswith((
        "separate/small/line", "separate/exhausted/64", "separate/torus/3", "classify/torus/3",
        "classify/factorial-0/30", "witness/", "lef/line"))],
    "cli": lambda ops: ops[:2] + ops[-4:],
}


def build(workload, seed):
    G = run.load_package()
    return G, workloads.build(workload, G, seed, (run.WORK / f"test-{workload}-{seed}").relative_to(run.ROOT))


def inputs_digest(built):
    return run.digest("\n".join([op.key for op in built.ops] + sorted(built.files.values())))


class SeedTests(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = inputs_digest(build(workload, 7)[1])
                self.assertEqual(first, inputs_digest(build(workload, 7)[1]))
                self.assertNotEqual(first, inputs_digest(build(workload, 8)[1]))

    def test_operation_names_are_unique(self):
        for workload in run.WORKLOADS:
            names = [op.name for op in build(workload, 0)[1].ops]
            self.assertEqual(len(names), len(set(names)), workload)


class MetricTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.WORK.mkdir(exist_ok=True)
        cls.results = {}
        for workload in run.WORKLOADS:
            G, built = build(workload, 0)
            built.ops = SAMPLE[workload](built.ops)
            judge = run.Judge({})
            _, untraced = run.untraced_run(G, built, 0, judge)
            traced, _ = run.traced_run(G, built, 0, run.WORK / f"test-trace-{workload}.jsonl", judge)
            _, failed, problems = judge.finish()
            cls.results[workload] = (untraced, traced, failed, problems)

    def test_every_metric_is_emitted_with_a_valid_name(self):
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        for workload, (untraced, traced, _, _) in self.results.items():
            with self.subTest(workload=workload):
                self.assertEqual(end_to_end, set(untraced) | {"setup_s"})
                self.assertEqual(per_layer, set(traced))
                for name in set(untraced) | set(traced):
                    self.assertRegex(name, NAME)
                    self.assertLessEqual(len(name), 64)

    def test_units_match_the_benchmark_file(self):
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertEqual(run.unit_of(metric["name"]), metric["unit"], metric["name"])

    def test_sampled_operations_pass_their_checks(self):
        for workload, (_, _, failed, problems) in self.results.items():
            self.assertEqual(failed, 0, f"{workload}: {problems[:3]}")

    def test_self_times_account_for_the_traced_wall_time(self):
        G, built = build("search", 0)
        ops = SAMPLE["search"](built.ops)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall = sum(latency for latency, _ in run.one_pass(ops, lambda op: op.run(), tracer))
        finally:
            tracer.uninstall()
        metrics = tracing.summarize(tracer, wall)
        accounted = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        self.assertAlmostEqual(accounted + metrics["trace.unattributed_s"], wall, places=9)
        self.assertGreater(metrics["graphs.quotient_graph.calls"], 0)
        self.assertGreater(metrics["formats.parse.bytes"], 0)


class WrapperTests(unittest.TestCase):
    def test_no_wrapper_survives_uninstall(self):
        G = run.load_package()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wrapped = tracing.installed_wrappers()
            self.assertIn("gwreath.wreath.canonical_form", wrapped)
            self.assertIn("gwreath.graphs.TranslationGraph.adjacent", wrapped)
        finally:
            tracer.uninstall()
        self.assertEqual(tracing.installed_wrappers(), [])
        self.assertFalse(hasattr(G.words.canonical_form, tracing.MARK))

    def test_no_wrapper_survives_a_traced_run(self):
        G, built = build("words", 0)
        built.ops = SAMPLE["words"](built.ops)
        run.traced_run(G, built, 0, run.WORK / "test-trace-wrappers.jsonl", run.Judge({}))
        self.assertEqual(tracing.installed_wrappers(), [])


if __name__ == "__main__":
    unittest.main()
