"""Tests of the benchmark itself: inputs, planted-truth checks and traced spans.

    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


class TempDirTest(unittest.TestCase):
    def setUp(self):
        work = ROOT / ".perfbench_work"
        work.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=work)
        self.dir = Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def runner(self) -> run.Runner:
        return run.Runner(self.dir, run.child_env())


class GeneratorTest(TempDirTest):
    def write_cycle(self, workload: str, seed: int, sub: str) -> dict[str, bytes]:
        target = self.dir / sub
        target.mkdir()
        workloads.make_cycle(workload, seed, 0, target)
        return {p.name: p.read_bytes() for p in sorted(target.iterdir())}

    def test_same_seed_same_bytes(self):
        for workload in ("analyze-eq", "decompose-bundle"):
            first = self.write_cycle(workload, 5, f"{workload}-a")
            again = self.write_cycle(workload, 5, f"{workload}-b")
            other = self.write_cycle(workload, 6, f"{workload}-c")
            self.assertEqual(first, again)
            self.assertNotEqual(first, other)

    def test_verify_seeds_follow_the_run_seed(self):
        args = [v.argv for v in workloads.make_cycle("verify-suites", 5, 0, self.dir)]
        self.assertEqual(args, [v.argv for v in workloads.make_cycle("verify-suites", 5, 0, self.dir)])
        self.assertNotEqual(args, [v.argv for v in workloads.make_cycle("verify-suites", 6, 0, self.dir)])


class PlantedTruthTest(TempDirTest):
    """A verb passes with the planted truth and fails with a wrong one."""

    def small_verbs(self):
        rng = random.Random(3)
        return [
            workloads.analyze_verb(rng, self.dir, "a", (4, 2, (2, 2))),
            workloads.analyze_verb(rng, self.dir, "b", (3, 2, (3,))),
            workloads.decompose_verb(rng, self.dir, "p", (4, (2, 2), "product", 40, 2, 2)),
            workloads.decompose_verb(rng, self.dir, "d", (5, (2, 2, 1), "diagonal", 40, 2, 2)),
            workloads.verify_verb(rng, self.dir, "v", ("27", 20)),
            workloads.verify_verb(rng, self.dir, "w", ("34", 20)),
        ]

    @staticmethod
    def wrong(expect: dict) -> dict:
        bad = json.loads(json.dumps(expect))
        if "status" in bad:
            bad["status"] = "equal" if bad["status"] == "strict-subset" else "strict-subset"
        elif "thm" in bad:
            bad["cases"] += 1
        else:
            coords = sorted(i for b in bad["blocks"] for i in b)
            bad["blocks"] = [coords] if len(bad["blocks"]) > 1 else [coords[:1], coords[1:]]
        return bad

    def test_planted_truth_passes_and_wrong_verdict_fails(self):
        runner = self.runner()
        python = [sys.executable, "-m", "asyncdec"]
        for verb in self.small_verbs():
            with self.subTest(verb=verb.argv[0], tag=verb.out_path.name):
                self.assertEqual(runner.spawn(verb, python)["problems"], [])
                verb.expect = self.wrong(verb.expect)
                self.assertNotEqual(runner.spawn(verb, python)["problems"], [])
        self.assertEqual(runner.failed, runner.attempted // 2)

    def test_input_error_is_a_failure(self):
        verb = self.small_verbs()[0]
        (self.dir / verb.argv[2]).write_text("x1' = (u1\n")
        record = self.runner().spawn(verb, [sys.executable, "-m", "asyncdec"])
        self.assertEqual(record["exit"], 2)
        self.assertIn("exit code 2", record["problems"])


class TraceTest(TempDirTest):
    def traced(self, argv: list[str]) -> tuple[dict, dict]:
        prefix = self.dir / "spans"
        command = [sys.executable, str(run.TRACED), "spans", str(prefix), "3", "--", *argv]
        with open(self.dir / "stderr.txt", "wb") as err:
            code, _, _ = run.run_child(command, self.dir, run.child_env(), subprocess.DEVNULL, err)
        header, columns = run.read_spans(prefix)
        self.assertEqual(header["exit"], code)
        self_ns, calls, _, root_ns, problems = run.self_times(header, columns)
        self.assertEqual(problems, [])
        self.assertEqual(sum(self_ns.values()), root_ns)
        return header, calls

    def test_spans_close_when_the_verb_fails(self):
        header, calls = self.traced(["analyze", "--phi", "missing.eq"])
        self.assertEqual((header["exit"], header["open"], header["verb"]), (2, 0, 3))
        self.assertEqual(calls["cli.main"], 1)
        header, calls = self.traced(["verify", "--thm", "nonesuch"])
        self.assertEqual((header["exit"], header["open"]), (2, 0))

    def test_counters_see_the_repeated_scan(self):
        (self.dir / "pair.eq").write_text("x1' = x2 ^ u1\nx2' = x1\nx3' = !x3\n")
        header, calls = self.traced(["analyze", "--phi", "pair.eq"])
        counters = header["counters"]
        self.assertEqual(header["exit"], 0)
        self.assertEqual(counters["dsl.rows_compiled"], 16)
        # analyze computes the dependency matrix twice, then one witness scan per block
        self.assertEqual(calls["boolfn.dependency_matrix"], 2)
        self.assertEqual(counters["boolfn.scan_calls"], 4)
        self.assertEqual(counters["boolfn.distinct_scans"], 3)

    def test_wrappers_are_removed_afterwards(self):
        sys.path.insert(0, str(run.SRC))
        self.addCleanup(sys.path.remove, str(run.SRC))
        import traced
        from asyncdec import boolfn
        from asyncdec.frontend import cli

        before = (boolfn.dependency_matrix, cli.dependency_matrix, cli.main)
        prefix = str(self.dir / "inproc")
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(traced.traced_verb(prefix, 0, ["verify", "--thm", "example1"]), 0)
        self.assertEqual(before, (boolfn.dependency_matrix, cli.dependency_matrix, cli.main))


class ResultTest(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        times = [float(k) for k in range(1, 31)]
        self.assertEqual(run.tail(times), (20.0, 100.0 * 20 / 30))
        self.assertEqual(run.tail([3.0, 1.0]), (3.0, 100.0))

    def test_scale_divides_by_the_median_reference_near_each_child(self):
        passes = iter([0.010, 0.030, 0.020, 0.040])
        original = run.reference_s
        run.reference_s = lambda: next(passes)
        self.addCleanup(setattr, run, "reference_s", original)
        clock = run.ReferenceClock()
        first, second, third = clock.add(1.0), clock.add(2.0), clock.add(3.0)
        nominal = run.REFERENCE_NOMINAL_S
        speed = (nominal / 0.025) ** run.REFERENCE_EXPONENT
        self.assertAlmostEqual(clock.scaled(second), 2.0 * speed)
        self.assertEqual((first, third), (0, 2))

    def test_benchmark_json_names_every_reported_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
