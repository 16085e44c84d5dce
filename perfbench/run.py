"""The asyncdec benchmark: CLI verbs timed end to end, layers traced from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  Closed loop, one client: each operation is a fresh
`python -m asyncdec <verb> ...` process, started only after the previous
one exits.  A run generates its inputs from the seed (see workloads.py),
runs whole cycles of the workload's verb shapes, checks every verb against
the truth planted in its input, and prints one JSON result as its last line
of stdout, after one line of details (sample counts, the tail percentile,
sha256 digests of every report).

--trace 0 measures the end-to-end metrics.  Times are the CPU seconds
(user plus system) of each child process, scaled to the reference speed:
a fixed pure-Python loop is timed in this process before the first child
and after every child (see ReferenceClock).  On a shared host the speed of
a core drifts by a fifth or more within minutes; the scaling cancels most
of that drift.  The unscaled CPU and spawn-to-exit seconds are in the
details.
  setup_s      median scaled seconds to start an interpreter, import the CLI
               module and exit, over starts made before the first cycle and
               after each cycle
  verb_p50_s   median scaled seconds of one verb process
  verb_tail_s  the highest percentile with at least ten verbs beyond it
  work_per_s   the workload's work units per scaled verb-second: truth-table
               rows (analyze-eq), admitted (mu, u, rho) triples
               (decompose-bundle) or theorem cases (verify-suites), as
               counted by the generator
  peak_rss_mb  the largest maximum resident set of any verb process

--trace 1 runs one cycle twice per verb, untraced and then traced (see
traced.py), plus one table-memory pass, and reports the per-layer metrics.
Work in a run is whole cycles: round(S / nominal cycle seconds) of them,
where the nominal cycle time was measured at the commit that defined the
benchmark, so every run of a workload times the same verbs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED = Path(__file__).resolve().parent / "traced.py"

# Seconds one cycle of each workload took on a 2-core x86-64 container.
NOMINAL_CYCLE_S = {"analyze-eq": 7.0, "decompose-bundle": 6.0, "verify-suites": 7.5}
SETUP_FIRST = 5
SETUP_PER_CYCLE = 2
# No new cycle starts once a run has measured this many times --seconds,
# so a much slower program still ends within the three minutes a run may take.
MEASURE_CAP = 2.5
CHILD_TIMEOUT_S = 60.0
# The reference work: about 15 ms per pass on that container at its usual
# speed, so scaled seconds read close to the seconds measured there.
REFERENCE_ROUNDS = 80
REFERENCE_NOMINAL_S = 0.015
REFERENCE_WINDOW = 2
# A verb's CPU time moves by about three quarters of the share the reference
# moves by: fitted per verb shape over ten runs of each workload, the slopes
# of log CPU seconds on log reference seconds were 0.55 to 0.94.
REFERENCE_EXPONENT = 0.75

END_TO_END = (
    ("setup_s", "s"),
    ("verb_p50_s", "s"),
    ("verb_tail_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("cli", "dsl", "fileio", "checks", "boolfn", "semantics", "systems", "signals")
FUNCTIONS = (
    "boolfn.dependency_matrix", "boolfn.dependency_witness", "boolfn.finest_partition",
    "boolfn.is_separated", "boolfn.split_fn", "boolfn.permute_fn", "boolfn.parallel_fn",
    "boolfn.project_fn", "boolfn.partial_derivative",
    "dsl.parse_dsl", "dsl.compile_program",
    "fileio.parse_truth_table", "fileio.parse_system", "fileio.save_system",
    "semantics.run",
    "systems.realize", "systems.check_product_condition", "systems.decompose_system",
    "systems.parallel_system", "systems.project_pi",
    "checks.theorem30_exhaustive", "checks.flip_invariant", "checks.derivative_separated",
    "checks.recompose_verdict",
)
PER_LAYER = (
    [(f"{name}.self_s", "s") for name in LAYERS + FUNCTIONS]
    + [(f"{name}.calls", "count") for name in LAYERS + FUNCTIONS]
    + [
        ("dsl.rows_compiled", "count"),
        ("boolfn.rows_scanned", "count"),
        ("boolfn.distinct_scan_ratio", "ratio"),
        ("boolfn.table_mb", "MB"),
        ("semantics.runs", "count"),
        ("semantics.events_applied", "count"),
        ("semantics.distinct_run_ratio", "ratio"),
        ("systems.realized_runs", "count"),
        ("systems.product_pairs", "count"),
        ("signals.dedup_ratio", "ratio"),
        ("fileio.bytes_read", "bytes"),
        ("fileio.bytes_written", "bytes"),
        ("checks.cases", "count"),
        ("trace.hook_s", "s"),
        ("trace.verb_s", "s"),
        ("trace.remainder_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("package.src_lines", "lines"),
    ]
)


class Abort(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    """The caller's environment without settings that change what the
    program computes or how fast the interpreter runs it (PYTHON* such as
    PYTHONDONTWRITEBYTECODE or PYTHONUNBUFFERED), so every caller measures
    the same thing; bytecode caches are written under src/ as a user's are."""
    env = {
        name: value
        for name, value in os.environ.items()
        if not name.startswith(("PYTHON", "ASYNC_DEC_"))
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def run_child(cmd: list[str], workdir: Path, env, stdout, stderr) -> tuple[int | None, float, float]:
    """(exit code or None on timeout, seconds from spawn to exit, CPU seconds).

    CPU seconds are the child's user plus system time, from its rusage.
    Waits in a blocking wait4: `Popen.wait(timeout)` polls with sleeps of
    up to 50 ms, which would round every timing up to that grid.  A timer
    signal bounds the wait instead.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, cwd=workdir, env=env)
    cpu = 0.0
    try:
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
    except ChildTimeout:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        timed_out = proc.returncode is None
        if timed_out:  # timed out, or this process is exiting
            proc.kill()
            proc.wait()
    return (None if timed_out else proc.returncode), time.perf_counter() - start, cpu


def check_import(env, workdir: Path) -> None:
    """One warm start: asyncdec must import from this checkout's `src/`."""
    probe = "import asyncdec, asyncdec.frontend.cli; print(asyncdec.__file__)"
    where = workdir / "probe.txt"
    with open(where, "wb") as out:
        code, _, _ = run_child([sys.executable, "-c", probe], workdir, env, out, subprocess.DEVNULL)
    if code != 0 or not Path(where.read_text().strip()).is_relative_to(SRC):
        raise Abort(f"asyncdec does not import from {SRC}")


def time_setup(env, workdir: Path, starts: int) -> list[tuple[float, float]]:
    """(seconds, CPU seconds) to start an interpreter, import the CLI module
    and exit, once per start."""
    times = []
    for _ in range(starts):
        code, seconds, cpu = run_child(
            [sys.executable, "-c", "import asyncdec.frontend.cli"], workdir, env, None, None
        )
        if code != 0:
            raise Abort("importing the CLI module failed")
        times.append((seconds, cpu))
    return times


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Spawns verbs one at a time and checks each against its planted truth."""

    def __init__(self, workdir: Path, env):
        self.workdir = workdir
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.records = []

    def spawn(self, verb: workloads.Verb, prefix: list[str]) -> dict:
        """Run one verb process; return its timing, digests and problems."""
        for path in workloads.emitted_files(verb) + [verb.out_path]:
            path.unlink(missing_ok=True)
        stdout_path = self.workdir / "stdout.txt"
        stderr_path = self.workdir / "stderr.txt"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            code, seconds, cpu = run_child(prefix + verb.argv, self.workdir, self.env, out, err)
        stdout = stdout_path.read_bytes()
        stderr = stderr_path.read_text(errors="replace")
        report = verb.out_path.read_bytes() if verb.out_path.exists() else b""
        if code is None:
            problems = [f"no exit within {CHILD_TIMEOUT_S} s"]
        else:
            problems = workloads.check_verb(verb, code, stderr, report.decode(errors="replace"))
        self.attempted += 1
        self.failed += bool(problems)
        record = {
            "argv": " ".join(verb.argv),
            "traced": prefix[1:2] == [str(TRACED)],
            "exit": code,
            "seconds": seconds,
            "cpu_s": cpu,
            "stdout_sha256": sha256(stdout),
            "out_sha256": sha256(report),
            "problems": problems,
        }
        self.records.append(record)
        return record


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest nearest-rank percentile that still
    has ten samples beyond it; the maximum when there are fewer than 11."""
    ordered = sorted(times)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def reference_work(rounds: int) -> int:
    """Fixed pure-Python work (indexing, bit operations, a dict), the kind
    of loop the program's table scans run; it does not depend on asyncdec."""
    table = list(range(1024))
    seen = {}
    acc = 0
    for r in range(rounds):
        for i in range(1024):
            v = table[i ^ (r & 1023)]
            acc = (acc + ((v >> 3) ^ (v & 7))) & 0xFFFF
            seen[v & 255] = acc
    return acc + len(seen)


def reference_s() -> float:
    """CPU seconds of one pass of the reference work, now."""
    start = time.thread_time()
    reference_work(REFERENCE_ROUNDS)
    return time.thread_time() - start


class ReferenceClock:
    """Scales children's CPU seconds to the reference speed.

    One pass of the reference work is timed before the first child and
    after every child.  A child's CPU seconds are multiplied by
    (REFERENCE_NOMINAL_S / m) ** REFERENCE_EXPONENT, where m is the median
    of the REFERENCE_WINDOW passes nearest the child on each side.  A shared
    host's speed drifts by a fifth or more within minutes, and that drift
    mostly cancels; one pass also varies by a fifth from the next, which
    the median over several smooths out.
    """

    def __init__(self):
        self.passes = [reference_s()]
        self.children = []

    def add(self, cpu: float) -> int:
        """Record a child's CPU seconds; return its index for `scaled`."""
        self.children.append(cpu)
        self.passes.append(reference_s())
        return len(self.children) - 1

    def scaled(self, index: int) -> float:
        # Child `index` ran between passes `index` and `index + 1`.
        lo = max(0, index + 1 - REFERENCE_WINDOW)
        window = self.passes[lo : index + 1 + REFERENCE_WINDOW]
        speed = REFERENCE_NOMINAL_S / statistics.median(window)
        return self.children[index] * speed**REFERENCE_EXPONENT


def end_to_end(runner: Runner, cycles, seconds: int) -> tuple[dict, dict]:
    """Every verb of every cycle, timed.  Set-up starts go before the first
    cycle and after each one, so they sample the whole run, not one moment."""
    python = [sys.executable, "-m", "asyncdec"]
    clock = ReferenceClock()
    verb_index, setup_index, wall, work = [], [], [], 0

    def set_up(starts: int) -> None:
        for _, cpu in time_setup(runner.env, runner.workdir, starts):
            setup_index.append(clock.add(cpu))

    set_up(SETUP_FIRST)
    start = time.perf_counter()
    for k, verbs in enumerate(cycles):
        if k and time.perf_counter() - start > MEASURE_CAP * seconds:
            break
        for verb in verbs:
            record = runner.spawn(verb, python)
            verb_index.append(clock.add(record["cpu_s"]))
            wall.append(record["seconds"])
            work += verb.work
        set_up(SETUP_PER_CYCLE)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    times = [clock.scaled(i) for i in verb_index]
    cpu = [clock.children[i] for i in verb_index]
    value, percentile = tail(times)
    metrics = {
        "setup_s": statistics.median(clock.scaled(i) for i in setup_index),
        "verb_p50_s": statistics.median(times),
        "verb_tail_s": value,
        "work_per_s": work / sum(times),
        # The set-up starts are children too, but import far less than a verb.
        "peak_rss_mb": rss_kb / 1024.0,
    }
    detail = {
        "samples": len(times), "tail_percentile": percentile, "work": work,
        "setup_samples": len(setup_index),
        # The same figures unscaled: CPU seconds and seconds from spawn to exit.
        "cpu_s": {
            "setup": statistics.median(clock.children[i] for i in setup_index),
            "verb_p50": statistics.median(cpu), "verb_tail": tail(cpu)[0], "work_per_s": work / sum(cpu),
        },
        "wall_s": {"verb_p50": statistics.median(wall), "verb_tail": tail(wall)[0], "work_per_s": work / sum(wall)},
        # Every child's CPU seconds in order, set-up starts included, and the
        # reference passes around them.
        "children_cpu_s": clock.children,
        "verb_index": verb_index,
        "reference_passes_s": clock.passes,
    }
    return metrics, detail


# -- traced pass ----------------------------------------------------------------


def read_spans(prefix: Path):
    header = json.loads(prefix.with_suffix(".json").read_text())
    columns = [array("i"), array("i"), array("q"), array("q")]
    with open(prefix.with_suffix(".bin"), "rb") as f:
        for column in columns:
            column.fromfile(f, header["spans"])
    return header, columns


def self_times(header, columns) -> tuple[Counter, Counter, Counter, int, list[str]]:
    """Per span name: self ns and calls; parent-name pair counts; root ns.

    Self time is a span's duration minus the time its child spans cover.
    Calls are sequential, so children never overlap and their durations add.
    """
    names = header["names"]
    span_name, span_parent, span_start, span_end = columns
    count = header["spans"]
    child_ns = [0] * count
    problems = []
    if header["open"]:
        problems.append(f"{header['open']} spans left open")
    root_ns = 0
    for sid in range(count):
        duration = span_end[sid] - span_start[sid]
        if span_end[sid] == 0 or duration < 0:
            problems.append(f"span {sid} ({names[span_name[sid]]}) never closed")
            continue
        parent = span_parent[sid]
        if parent < 0:
            root_ns += duration
        elif span_start[sid] < span_start[parent] or span_end[sid] > span_end[parent]:
            problems.append(f"span {sid} lies outside its parent {parent}")
        else:
            child_ns[parent] += duration
    self_ns, calls, edges = Counter(), Counter(), Counter()
    for sid in range(count):
        name = names[span_name[sid]]
        own = span_end[sid] - span_start[sid] - child_ns[sid]
        if own < 0:
            problems.append(f"children of span {sid} ({name}) outlast it")
        self_ns[name] += own
        calls[name] += 1
        parent = span_parent[sid]
        if parent >= 0:
            edges[names[span_name[parent]], name] += 1
    return self_ns, calls, edges, root_ns, problems[:5]


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((SRC / "asyncdec").rglob("*.py")))


def traced_pass(runner: Runner, verbs) -> tuple[dict, dict]:
    python = [sys.executable, "-m", "asyncdec"]
    self_ns, calls, edges, counters = Counter(), Counter(), Counter(), Counter()
    plain_s = traced_s = 0.0
    root_ns = 0
    for k, verb in enumerate(verbs):
        plain = runner.spawn(verb, python)
        prefix = runner.workdir / f"spans{k}"
        traced = runner.spawn(verb, [sys.executable, str(TRACED), "spans", str(prefix), str(k), "--"])
        plain_s += plain["seconds"]
        traced_s += traced["seconds"]
        problems = []
        if (plain["stdout_sha256"], plain["out_sha256"]) != (traced["stdout_sha256"], traced["out_sha256"]):
            problems.append("tracing changed the verb's stdout or report")
        try:
            header, columns = read_spans(prefix)
        except (OSError, ValueError, EOFError) as exc:
            problems.append(f"no spans: {exc}")
            header = None
        if header is not None:
            v_self, v_calls, v_edges, v_root, span_problems = self_times(header, columns)
            problems += span_problems
            root_ns += v_root
            self_ns.update(v_self)
            calls.update(v_calls)
            edges.update(v_edges)
            counters.update(header["counters"])
        if problems and not traced["problems"]:
            runner.failed += 1
        traced["problems"] += problems

    table_bytes = 0
    sized = [v for v in verbs if v.table_bits]
    if sized:
        largest = max(sized, key=lambda v: v.table_bits)
        result = runner.workdir / "table-mem.json"
        record = runner.spawn(largest, [sys.executable, str(TRACED), "table-mem", str(result), "--"])
        if result.exists():
            table_bytes = json.loads(result.read_text())["table_bytes"]
        elif not record["problems"]:
            record["problems"].append("table-memory pass wrote no result")
            runner.failed += 1

    def layer_of(name: str) -> str:
        return name.split(".", 1)[0]

    # Self times (trace.hook included) partition the root spans, which lie
    # inside the traced verbs' wall time.
    accounted = sum(self_ns.values())
    run_problems = []
    if accounted != root_ns or root_ns > traced_s * 1e9:
        run_problems.append(f"self times {accounted} ns, root spans {root_ns} ns, verbs {traced_s} s")

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(ns for n, ns in self_ns.items() if layer_of(n) == layer) / 1e9
        metrics[f"{layer}.calls"] = sum(c for n, c in calls.items() if layer_of(n) == layer)
    for name in FUNCTIONS:
        metrics[f"{name}.self_s"] = self_ns[name] / 1e9
        metrics[f"{name}.calls"] = calls[name]
    c = counters
    metrics.update(
        {
            "dsl.rows_compiled": c["dsl.rows_compiled"],
            "boolfn.rows_scanned": c["boolfn.rows_scanned"],
            "boolfn.distinct_scan_ratio": ratio(c["boolfn.distinct_scans"], c["boolfn.scan_calls"]),
            "boolfn.table_mb": table_bytes / 2**20,
            "semantics.runs": c["semantics.runs"],
            "semantics.events_applied": c["semantics.events_applied"],
            "semantics.distinct_run_ratio": ratio(c["semantics.distinct_runs"], c["semantics.runs"]),
            "systems.realized_runs": edges["systems.realize", "semantics.run"],
            "systems.product_pairs": edges["systems.check_product_condition", "signals.interleave_rho"],
            "signals.dedup_ratio": ratio(c["signals.kept"], c["signals.offered"]),
            "fileio.bytes_read": c["fileio.bytes_read"],
            "fileio.bytes_written": c["fileio.bytes_written"],
            "checks.cases": c["checks.cases"],
            "trace.hook_s": self_ns["trace.hook"] / 1e9,
            "trace.verb_s": traced_s,
            "trace.remainder_s": traced_s - root_ns / 1e9,
            "trace.overhead_ratio": ratio(traced_s, plain_s),
            "package.src_lines": src_lines(),
        }
    )
    detail = {
        "untraced_s": plain_s, "traced_s": traced_s, "spans_s": root_ns / 1e9, "problems": run_problems,
    }
    return metrics, detail


# -- entry point ----------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind: run_child kills the running verb and the work
    # directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "asyncdec" / "__init__.py").is_file():
        print(f"error: no asyncdec sources under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        env = child_env()
        check_import(env, workdir)
        runner = Runner(workdir, env)
        if args.trace:
            cycles = [workloads.make_cycle(args.workload, args.seed, 0, workdir)]
            metrics, detail = traced_pass(runner, cycles[0])
            names = PER_LAYER
        else:
            count = max(1, round(args.seconds / NOMINAL_CYCLE_S[args.workload]))
            cycles = [workloads.make_cycle(args.workload, args.seed, k, workdir) for k in range(count)]
            metrics, detail = end_to_end(runner, cycles, args.seconds)
            names = END_TO_END
    except Abort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    digest = hashlib.sha256()
    for record in runner.records:
        if not record["traced"]:
            digest.update((record["stdout_sha256"] + record["out_sha256"]).encode())
    detail.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "error_rate": runner.failed / max(1, runner.attempted),
            "reports_sha256": digest.hexdigest(),
            "verbs": runner.records,
        }
    )
    print(json.dumps({"detail": detail}))
    result = {
        "correct": runner.failed == 0 and not detail.get("problems"),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
