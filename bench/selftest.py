"""Self-tests of the benchmark harness.

Run from the repository root: python3 bench/selftest.py

Kept out of the package's pytest suite (the file name does not match
test_*.py) because the last test runs dercat jobs as child processes.
"""

import json
import re
import sys
import tempfile
import unittest
from pathlib import Path

import calib
import run
import spans
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0,10] has children a [1,4] and b [5,9]; a has child c [2,3];
        # d [3.5,6] overlaps the end of its parent a and is clipped to [3.5,4]
        tree = [("cli.main", 0.0, 10.0, -1, None),
                ("reps.a", 1.0, 4.0, 0, None),
                ("linalg.c", 2.0, 3.0, 1, None),
                ("reps.b", 5.0, 9.0, 0, None),
                ("linalg.d", 3.5, 6.0, 1, None)]
        got = spans.self_times(tree)
        self.assertEqual(got, [3.0, 1.5, 1.0, 4.0, 2.5])

    def test_layer_sums_and_hits(self):
        tree = [("cli.main", 0.0, 10.0, -1, None),
                ("reps.hom_dim_roots", 1.0, 4.0, 0, None),
                ("reps.hom_space", 2.0, 3.0, 1, None),
                ("reps.hom_dim_roots", 5.0, 6.0, 0, None),
                ("linalg.rref", 7.0, 8.0, 0, [12, 3])]
        tally = spans.Tally()
        tally.add_job(tree)
        m = tally.metrics(4, 1, 0.25)
        self.assertEqual(m["reps.hom_dim_roots.calls"]["value"], 2)
        self.assertEqual(m["reps.hom_dim_roots.hit_ratio"]["value"], 0.5)
        self.assertEqual(m["reps.self_s"]["value"], 4.0)
        self.assertEqual(m["linalg.self_s"]["value"], 1.0)
        self.assertEqual(m["linalg.rref.nonzero_ratio"]["value"], 0.25)
        self.assertEqual(m["cli.verify.checked"]["value"], 4)


class Names(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        e2e = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
        layer = [(m["name"], m["unit"]) for m in doc["per_layer"]]
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layer, spans.PER_LAYER)
        self.assertLessEqual(len(e2e), 16)
        self.assertLessEqual(len(layer), 128)
        names = [n for n, _ in e2e + layer]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual([w["name"] for w in doc["workloads"]], list(workloads.WORKLOADS))


class Failures(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.workdir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def runner(self, golden):
        return run.Runner("chain-oracle", 0, self.workdir, golden, deadline=float("inf"))

    def test_golden_mismatch_fails(self):
        job = workloads.setup_job("chain-oracle")
        res = self.runner({"chain-oracle": {job.id: "0" * 64}}).run(job)
        self.assertEqual(res.rc, 0)
        self.assertEqual(res.error, "stdout differs from the golden digest")

    def test_timeout_fails_and_reaps(self):
        out, err = self.workdir / "o", self.workdir / "e"
        argv = [sys.executable, "-c", "import time; time.sleep(30)"]
        wall, _, rc, timed_out = run.run_process(argv, 0.3, out, err)
        self.assertTrue(timed_out)
        self.assertLess(wall, 10.0)
        self.assertNotEqual(rc, 0)
        job = workloads.setup_job("chain-oracle")
        res = run.Result(job, wall, 0.0, 0, rc, timed_out, "")
        self.assertEqual(self.runner({}).check(res), "timeout")


class Scaling(unittest.TestCase):
    def test_times_scale_by_calibration(self):
        job = workloads.setup_job("chain-oracle")
        setup = [run.Result(job, w, w, 1024, 0, False, "") for w in (0.1, 0.2, 0.3)]
        results = [run.Result(job, w, w / 2, 2048, 0, False, "") for w in (1.0, 2.0, 9.0)]
        at_ref, _, _ = run.end_to_end(setup, results, [calib.REF_S] * 4)
        self.assertAlmostEqual(at_ref["setup_s"]["value"], 0.2)
        self.assertAlmostEqual(at_ref["wall_s"]["value"], 2.0)
        self.assertAlmostEqual(at_ref["cpu_s"]["value"], 1.0)
        # a CPU running at half the reference speed halves every time
        slow, attempted, failed = run.end_to_end(setup, results, [2 * calib.REF_S] * 4)
        self.assertAlmostEqual(slow["wall_s"]["value"], 1.0)
        self.assertAlmostEqual(slow["setup_s"]["value"], 0.1)
        self.assertEqual(slow["peak_rss_mb"]["value"], 2.0)
        self.assertEqual((attempted, failed), (6, 0))


class Traced(unittest.TestCase):
    def test_traced_stdout_matches_untraced(self):
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            runner = run.Runner("chain-oracle", 0, workdir, None, deadline=float("inf"))
            job = workloads.Job("sgd:D5-alt:sgd3", ["sgd", "--quiver", "{I}/D5-alt.q",
                                                    "--object", "{I}/D5-alt-sgd3.obj"])
            plain = runner.run(job)
            trace_path = workdir / "spans.json"
            traced = runner.run(job, trace_path=trace_path)
            self.assertEqual(plain.rc, 0)
            self.assertEqual(traced.rc, 0)
            self.assertEqual(plain.stdout, traced.stdout)
            names = {s[0] for s in spans.load(trace_path)}
            self.assertIn("sgd.sgldim", names)
            self.assertIn("reps.indec_of_root", names)


if __name__ == "__main__":
    unittest.main()
