"""Tests of the benchmark itself.

    python3 perfbench/selftest.py          # about half a minute

Run from the root of a checkout.  These are not part of the repository's
pytest suite: the counter checks solve every workload several times.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run
import tracing
import workloads

#: Counters that must repeat exactly: the same input gives the same work.
DETERMINISTIC = (
    "lexer.tokens",
    "parser.nodes",
    "solver.table_terms",
    "solver.verify_calls",
    "solver.search_evals",
    "solver.verify_evals",
)


def _far_deadline() -> float:
    return time.monotonic() + 3600


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(workloads.generate(name, 7), workloads.generate(name, 7))

    def test_seeds_rename_but_keep_the_shape(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                a, b = workloads.generate(name, 1), workloads.generate(name, 2)
                self.assertEqual(a.files.keys(), b.files.keys())
                for f in a.files:
                    self.assertNotEqual(a.files[f], b.files[f])
                    # Fixed-length names keep the text the same length.
                    self.assertEqual(len(a.files[f]), len(b.files[f]))
                for x, y in zip(a.measured, b.measured):
                    self.assertEqual((x.args, x.file, x.exit_code), (y.args, y.file, y.exit_code))

    def test_uf_names_are_kept(self):
        # A UF's sampled model is a hash of its name.
        text = workloads.generate("verify_uf", 3).files
        self.assertIn("(declare-fun uf (Int) Int)", text["uf_sum.sl"])
        self.assertIn("(declare-fun g (Int Int) Int)", text["uf_diff.sl"])


class CheckingTest(unittest.TestCase):
    """A result that differs from the expected one counts as failed."""

    def setUp(self):
        self.ctx = run.prepared("verify_uf", 5, _far_deadline())
        self.h = self.ctx.__enter__()
        self.check = self.h.workload.setup[0]

    def tearDown(self):
        self.ctx.__exit__(None, None, None)

    def test_expected_result_passes(self):
        self.assertTrue(self.h.spawn(self.check).ok)
        self.h.in_process(self.check, None)
        self.assertEqual((self.h.attempted, self.h.failed), (2, 0))

    def test_altered_stdout_is_caught(self):
        altered = dataclasses.replace(self.check, stdout="(fail)\n")
        self.assertFalse(self.h.spawn(altered).ok)
        self.h.in_process(altered, None)
        self.assertEqual((self.h.attempted, self.h.failed), (2, 2))

    def test_altered_exit_code_is_caught(self):
        altered = dataclasses.replace(self.check, exit_code=1)
        self.assertFalse(self.h.spawn(altered).ok)
        self.assertEqual(self.h.failed, 1)

    def test_altered_expected_solution_is_caught(self):
        solve = self.h.workload.measured[0]
        altered = dataclasses.replace(solve, stdout=solve.stdout.replace("(+ ", "(- "))
        self.assertNotEqual(altered.stdout, solve.stdout)
        self.h.in_process(altered, None)
        self.assertEqual(self.h.failed, 1)

    def test_hanging_invocation_is_killed_and_failed(self):
        limit = run.KILL_LIMIT_S
        run.KILL_LIMIT_S = 0.05
        try:
            start = time.monotonic()
            outcome = self.h.spawn(self.h.workload.measured[0])
        finally:
            run.KILL_LIMIT_S = limit
        self.assertFalse(outcome.ok)
        self.assertLess(time.monotonic() - start, 1.5)

    def test_hanging_in_process_invocation_is_stopped_and_failed(self):
        limit = run.KILL_LIMIT_S
        run.KILL_LIMIT_S = 0.05
        try:
            start = time.monotonic()
            self.h.in_process(self.h.workload.measured[0], None)
        finally:
            run.KILL_LIMIT_S = limit
        self.assertEqual(self.h.failed, 1)
        self.assertLess(time.monotonic() - start, 1.0)


class TracingTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            ["solver.solve", 0.0, 10.0, -1, 0],
            ["solver.table", 1.0, 3.0, 0, 0],
            ["solver.table", 1.5, 2.5, 1, 0],
            ["solver.verify", 5.0, 6.0, 0, 0],
        ]
        self.assertEqual(tracing.self_times(spans), [7.0, 1.0, 1.0, 1.0])

    def test_wrappers_are_removed(self):
        if str(run.SRC) not in sys.path:
            sys.path.insert(0, str(run.SRC))
        from sygus import cli, solver

        before = (cli.tokenize, solver.verify, solver.TermTable.exact)
        with tracing.installed(tracing.Tracer()):
            self.assertIsNot(cli.tokenize, before[0])
        self.assertEqual((cli.tokenize, solver.verify, solver.TermTable.exact), before)

    def test_counters_repeat_across_passes_and_seeds(self):
        for name in workloads.WORKLOADS:
            counts = []
            for seed in (1, 1, 2):
                with run.prepared(name, seed, _far_deadline()) as h:
                    _, tracer = run.traced_pass(h)
                    self.assertEqual(h.failed, 0)
                metrics = tracing.layer_metrics(tracer)
                counts.append({k: metrics[k] for k in DETERMINISTIC})
            with self.subTest(workload=name):
                self.assertEqual(counts[0], counts[1])
                self.assertEqual(counts[0], counts[2])
                self.assertGreater(counts[0]["lexer.tokens"], 0)


class ContractTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        # A checkout holding only the benchmark must exit non-zero, silently.
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(run.ROOT / "perfbench", Path(tmp) / "perfbench")
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "frontend",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")

    def test_benchmark_json_matches_the_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END_UNITS))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(run.LAYER_UNITS))
        for m in spec["end_to_end"] + spec["per_layer"]:
            units = {**run.END_TO_END_UNITS, **run.LAYER_UNITS}
            self.assertEqual(m["unit"], units[m["name"]])


if __name__ == "__main__":
    os.chdir(run.ROOT)
    unittest.main()
