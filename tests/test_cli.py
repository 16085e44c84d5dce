"""Command-line behavior: verbs, exit codes, report stability."""

import gc
import io
import os
import random
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import asyncdec
from asyncdec import (
    BitVec,
    GeneratorFn,
    ProgressiveFunction,
    RegularSystem,
    SignalSet,
    parallel_fn,
    round_robin,
    systems,
    unit_step,
)
from asyncdec.frontend import EquationProgram, compile_program, format_system, format_truth_table, load
from asyncdec.frontend import checks
from asyncdec.frontend.checks import CheckReport, diagonal_example
from asyncdec.frontend.dsl import program_matrix
from asyncdec.frontend import cli as cli_module
from asyncdec.frontend.cli import main
from loading import load_text


SRC = os.path.dirname(os.path.dirname(asyncdec.__file__))
# this package's sources first, by their absolute path, so a child started in
# any working directory imports them
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def cli(*args, env=None, stdin=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "asyncdec", *args],
        capture_output=True,
        text=True,
        env=dict(CHILD_ENV, **(env or {})),
        input=stdin,
        cwd=cwd,
    )


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "delay.eq").write_text("x1' = u1\n")
    (tmp_path / "pair.eq").write_text("x1' = u1\nx2' = !x2\n")
    (tmp_path / "step.sig").write_text("n=1 init=0 H=10 events=(0,1)\n")
    (tmp_path / "fire1.rho").write_text("n=1 H=10 events=(1,1)\n")
    phi = GeneratorFn.identity(1, 1)
    (tmp_path / "id.tt").write_text("".join(format_truth_table(phi)))
    (tmp_path / "diag.sys").write_text("".join(format_system(diagonal_example())))
    # a swap system: block {1} is not separated
    u = unit_step(0, 10)
    swap = GeneratorFn.from_function(2, 1, lambda mu, lam: BitVec.from_bits([mu.bit(2), mu.bit(1)]))
    phi0 = {u: frozenset([BitVec.from_string("00")])}
    pi = {(BitVec.from_string("00"), u): frozenset([round_robin(2, (1,), 10)])}
    (tmp_path / "swap.sys").write_text("".join(format_system(RegularSystem(swap, (u,), phi0, pi))))
    return tmp_path


def test_analyze_reports_partition(workdir):
    result = cli("analyze", "--phi", str(workdir / "pair.eq"), "--out", str(workdir / "report.kv"))
    assert result.returncode == 0
    assert "finest partition: {1} | {2}" in result.stdout
    doc = (workdir / "report.kv").read_text()
    assert "partition.blocks=1|2" in doc
    assert "depends.2.2=1" in doc


def test_simulate_prints_trajectory(workdir):
    result = cli(
        "simulate",
        "--phi", str(workdir / "delay.eq"),
        "--init", "0",
        "--input", str(workdir / "step.sig"),
        "--rho", str(workdir / "fire1.rho"),
    )
    assert result.returncode == 0
    assert "k=-1 omega=0" in result.stdout
    assert "k=0 t=1 omega=1" in result.stdout
    assert "signal: n=1 init=0 H=10 events=(1,1)" in result.stdout


def test_simulate_prints_every_state_and_the_signal(workdir, capsys):
    (workdir / "twice.rho").write_text("n=1 H=10 events=(1,1);(4,1)\n")
    args = ["--phi", str(workdir / "delay.eq"), "--init", "0", "--input", str(workdir / "step.sig")]
    code = main(["simulate", *args, "--rho", str(workdir / "twice.rho"), "--out", str(workdir / "sim.kv")])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "k=-1 omega=0",
        "k=0 t=1 omega=1",
        "k=1 t=4 omega=1",
        "signal: n=1 init=0 H=10 events=(1,1)",
    ]
    assert (workdir / "sim.kv").read_text().splitlines() == [
        "horizon=10",
        "signal=n=1 init=0 H=10 events=(1,1)",
        "omega.-1=0",
        "omega.0=1",
        "omega.1=1",
    ]


def test_simulate_schedule_of_huge_width_is_input_error(workdir, capsys):
    (workdir / "huge.rho").write_text("n=99999999999999999999999 H=10 events=\n")
    args = ["--phi", str(workdir / "delay.eq"), "--init", "0", "--input", str(workdir / "step.sig")]
    assert main(["simulate", *args, "--rho", str(workdir / "huge.rho")]) == 2
    assert capsys.readouterr().err == "error: schedule width 99999999999999999999999, expected 1\n"


def test_simulate_horizon_truncates(workdir):
    (workdir / "long.rho").write_text("n=1 H=20 events=(1,1);(15,1)\n")
    result = cli(
        "simulate",
        "--phi", str(workdir / "delay.eq"),
        "--init", "0",
        "--input", str(workdir / "step.sig"),
        "--rho", str(workdir / "long.rho"),
        "--horizon", "10",
    )
    assert result.returncode == 0
    assert "k=1" not in result.stdout


def test_simulate_horizon_takes_ascii_digits_only(workdir, capsys):
    """`int` alone would read `1_0` as 10; the flag reads numbers as the file formats do."""
    (workdir / "long.rho").write_text("n=1 H=20 events=(1,1);(15,1)\n")
    args = ["--phi", str(workdir / "delay.eq"), "--init", "0", "--input", str(workdir / "step.sig")]
    with pytest.raises(SystemExit) as exc:
        main(["simulate", *args, "--rho", str(workdir / "long.rho"), "--horizon", "1_0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --horizon: invalid int value: '1_0'\n")


def test_simulate_horizon_mismatch_is_input_error(workdir):
    (workdir / "long.rho").write_text("n=1 H=20 events=(1,1)\n")
    result = cli(
        "simulate",
        "--phi", str(workdir / "delay.eq"),
        "--init", "0",
        "--input", str(workdir / "step.sig"),
        "--rho", str(workdir / "long.rho"),
    )
    assert result.returncode == 2


@pytest.mark.parametrize("extra, message", [
    ([], "input horizon 10 and schedule horizon 20 differ; pass --horizon to truncate"),
    (["--horizon", "15"], "--horizon 15 exceeds the loaded horizons (10, 20); signals cannot be extended"),
], ids=["horizons-differ", "horizon-exceeds"])
def test_simulate_names_the_horizon_it_cannot_meet(workdir, capsys, extra, message):
    (workdir / "long.rho").write_text("n=1 H=20 events=(1,1)\n")
    args = ["--phi", str(workdir / "delay.eq"), "--init", "0", "--input", str(workdir / "step.sig")]
    assert main(["simulate", *args, "--rho", str(workdir / "long.rho"), *extra]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_compose_tables(workdir):
    out = workdir / "par.tt"
    result = cli(
        "compose", str(workdir / "id.tt"), str(workdir / "id.tt"), "--out", str(out)
    )
    assert result.returncode == 0
    phi = load(str(out), GeneratorFn)
    assert phi == parallel_fn(GeneratorFn.identity(1, 1), GeneratorFn.identity(1, 1))


def test_compose_equation_files_like_the_phi_verbs(workdir):
    result = cli("compose", str(workdir / "pair.eq"), str(workdir / "delay.eq"))
    assert result.returncode == 0, result.stderr
    pair, delay = (
        compile_program(load(str(workdir / name), EquationProgram)) for name in ("pair.eq", "delay.eq")
    )
    assert load_text(result.stdout, GeneratorFn) == parallel_fn(pair, delay)


def test_compose_writes_a_table_without_holding_its_text(tmp_path, capsys):
    """`compose` writes the composed table a line at a time: over building the
    table alone, its peak grows by less than the file it writes."""
    rng = random.Random(14)
    a, b, out = tmp_path / "a.tt", tmp_path / "b.tt", tmp_path / "ab.tt"
    for path in (a, b):  # n=5 m=4 each, so the composition has n+m = 14
        path.write_text("".join(format_truth_table(checks.rand_fn(rng, 5, 4))))

    def composed():
        return parallel_fn(load(str(a), GeneratorFn), load(str(b), GeneratorFn))

    peaks = []
    for build in (composed, lambda: main(["compose", str(a), str(b), "--out", str(out)])):
        build()  # the first call warms every cache
        tracemalloc.start()
        build()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < out.stat().st_size, (peaks, out.stat().st_size)
    assert out.read_text() == "".join(format_truth_table(composed()))


def test_decompose_diagonal_reports_strict_subset(workdir):
    result = cli(
        "decompose",
        "--system", str(workdir / "diag.sys"),
        "--block", "1",
        "--emit", str(workdir / "diag"),
        "--out", str(workdir / "dec.kv"),
    )
    assert result.returncode == 0
    assert "status: strict-subset" in result.stdout
    assert "phi0 product form: no" in result.stdout
    doc = (workdir / "dec.kv").read_text()
    assert "status=strict-subset" in doc
    for k in (1, 2):
        factor = load(str(workdir / f"diag.factor{k}.sys"), RegularSystem)
        assert factor.n == 1


def test_decompose_default_iterates_finest_partition(workdir):
    sys_text = "".join(format_system(diagonal_example()))
    (workdir / "d2.sys").write_text(sys_text)
    result = cli("decompose", "--system", str(workdir / "d2.sys"))
    assert result.returncode == 0
    assert "finest partition: {1} | {2}" in result.stdout
    assert "overall:" in result.stdout


_INTERLEAVED_STEPS = """\
finest partition: {1,4} | {2,5} | {3}
step1 block {1,4}:
  permutation: 1,3,4,2,5
  status: strict-subset
  phi0 product form: yes
  schedule product condition: fails
  witness: mu=10010 u=n=1 init=0 H=12 events=(2,1)
           rho'=n=2 H=12 events=(1,11);(4,11);(7,11)
           rho''=n=3 H=12 events=(3,111);(6,111)
  input n=1 init=0 H=12 events=(2,1): own 4 states, hull 8 states
step2 block {1,3}:
  permutation: 1,3,2
  status: strict-subset
  phi0 product form: yes
  schedule product condition: fails
  witness: mu=000 u=n=1 init=0 H=12 events=(2,1)
           rho'=n=2 H=12 events=(1,11);(4,11);(7,11)
           rho''=n=1 H=12 events=(3,1);(6,1)
  input n=1 init=0 H=12 events=(2,1): own 2 states, hull 4 states
overall: strict-subset (3 factors)
""", """\
n=5
m=1
horizon=12
partition.blocks=1,4|2,5|3
step1.status=strict-subset
step1.phi0_product_form=1
step1.product_condition=0
step2.status=strict-subset
step2.phi0_product_form=1
step2.product_condition=0
status=strict-subset
factors=3
"""

_INTERLEAVED_BLOCK = """\
step1 block {2,5}:
  permutation: 3,1,4,5,2
  status: strict-subset
  phi0 product form: yes
  schedule product condition: fails
  witness: mu=10010 u=n=1 init=0 H=12 events=(2,1)
           rho'=n=2 H=12 events=(1,11);(4,11);(7,11)
           rho''=n=3 H=12 events=(1,101);(3,010);(6,111)
  input n=1 init=0 H=12 events=(2,1): own 4 states, hull 8 states
overall: strict-subset (2 factors)
""", """\
n=5
m=1
horizon=12
step1.status=strict-subset
step1.phi0_product_form=1
step1.product_condition=0
status=strict-subset
factors=2
"""


def _interleaved_bundle():
    """Blocks {1,4} | {2,5} | {3}, interleaved; two states, two schedules each."""
    phi = compile_program(load_text("x1' = x4 ^ u1\nx2' = x5 & u1\nx3' = !x3\nx4' = x1\nx5' = x2 | u1\n",
                                    EquationProgram))
    u = unit_step(2, 12)
    states = [BitVec.from_string(s) for s in ("00000", "10010")]
    rhos = [round_robin(5, (1, 4, 7), 12), ProgressiveFunction(5, ((1, 0b01001), (3, 0b10110), (6, 0b11111)), 12)]
    return RegularSystem(phi, (u,), {u: states}, {(mu, u): rhos for mu in states})


@pytest.mark.parametrize("block, expected", [((), _INTERLEAVED_STEPS), (("--block", "2,5"), _INTERLEAVED_BLOCK)])
def test_decompose_steps_past_the_first_name_the_remaining_coordinates_by_rank(tmp_path, capsys, block, expected):
    """Blocks {1,4} | {2,5} | {3} interleave, so step 2 decomposes the factor on
    coordinates 2, 3, 5 and names block {2,5} by its ranks there, {1,3}."""
    (tmp_path / "il.sys").write_text("".join(format_system(_interleaved_bundle())))
    assert main(["decompose", "--system", str(tmp_path / "il.sys"), "--out", str(tmp_path / "il.kv"), *block]) == 0
    assert (capsys.readouterr().out, (tmp_path / "il.kv").read_text()) == expected


def test_decompose_runs_only_the_blocks_distinct_triples(tmp_path, monkeypatch, capsys):
    """Counted work, no clock: over the three interleaved blocks, decompose runs
    each distinct triple of each block's factor once, and no triple of the
    full bundle or of a rest of two blocks, whose pairs the blocks' runs give."""
    from collections import Counter

    bundle = _interleaved_bundle()
    (tmp_path / "il.sys").write_text("".join(format_system(bundle)))
    calls, real_run = Counter(), systems.run

    def counted_run(phi, mu, u, rho, horizon):
        calls[(phi, mu, u, rho)] += 1
        return real_run(phi, mu, u, rho, horizon)

    monkeypatch.setattr(systems, "run", counted_run)
    assert main(["decompose", "--system", str(tmp_path / "il.sys")]) == 0
    assert "overall: strict-subset (3 factors)" in capsys.readouterr().out
    factors = [bundle.restrict(b) for b in ((1, 4), (2, 5), (3,))]
    assert calls == Counter((f.phi, mu, u, r) for f in factors for u in f.inputs
                            for mu in f.phi0[u] for r in f.pi[(mu, u)])
    assert sum(calls.values()) == 8 and max(calls.values()) == 1


@pytest.mark.parametrize("block", [(), ("--block", "2,5")])
def test_decompose_scans_the_dependencies_once(tmp_path, monkeypatch, capsys, block):
    """The finest partition's blocks are separated by construction, so a
    finest-partition decompose scans the table once, for the partition, and
    gates no step; `--block` is gated once."""
    from asyncdec import boolfn

    (tmp_path / "il.sys").write_text("".join(format_system(_interleaved_bundle())))
    calls, real = [], boolfn.dependency_matrix

    def counted(phi):
        calls.append(phi)
        return real(phi)

    monkeypatch.setattr(boolfn, "dependency_matrix", counted)
    monkeypatch.setattr(cli_module, "dependency_matrix", counted)
    assert main(["decompose", "--system", str(tmp_path / "il.sys"), *block]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_a_later_step_past_the_hull_limit_is_refused_after_the_earlier_steps_print(workdir, monkeypatch, capsys):
    """Coordinate 1 holds, and coordinates 2 and 3 negate, fired at t and t + 3
    for t = 1..5: step 1 pairs one run of {1} with five of the rest and is
    equal, and step 2's hull holds 5 x 5 = 25, past 2^4 (n+m = 4 is not).
    Step 1 is printed, and then step 2 is refused."""
    u, mu = unit_step(0, 10), BitVec.from_string("000")
    rhos = {ProgressiveFunction(3, ((t, 0b011), (t + 3, 0b100)), 10) for t in range(1, 6)}
    phi = GeneratorFn.from_function(3, 1, lambda mu, lam: BitVec(3, mu.value ^ 0b110))
    (workdir / "hold.sys").write_text("".join(format_system(RegularSystem(phi, (u,), {u: {mu}}, {(mu, u): rhos}))))
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "4")
    assert main(["decompose", "--system", str(workdir / "hold.sys")]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("finest partition: {1} | {2} | {3}\nstep1 block {1}:\n") and "step2" not in out
    assert "  status: equal\n" in out and "own 5 states, hull 5 states" in out
    assert err.startswith("error: 25 trajectories in the hulls exceed 2^4")


def test_decompose_coupled_block_is_violation(workdir):
    result = cli("decompose", "--system", str(workdir / "swap.sys"), "--block", "1")
    assert result.returncode == 1
    assert "violation" in result.stderr


def _round_trip_bundles(rng: random.Random, count: int):
    """`count` pairs: a random bundle over the parallel connection of 2-3 random
    tables, then the parallel connection of two random one-input bundles."""
    for _ in range(count):
        m = rng.randint(1, 2)
        tables = [checks.rand_fn(rng, rng.randint(1, 2), m) for _ in range(rng.randint(2, 3))]
        yield checks.rand_system(rng, reduce(parallel_fn, tables), 12, rng.randint(1, 2))
        yield checks._product_form_system(rng, *(checks.rand_fn(rng, rng.randint(1, 2), m) for _ in "ab"), 12)


def test_emitted_factors_compose_back_to_the_hull(tmp_path, capsys):
    """Theorems 27 and 34 through files: `compose` folds the factors that
    `decompose --emit` wrote into a bundle that decomposes as equal, and that
    realizes the bundle, read through the finest partition's blocks laid end to
    end, exactly when the bundle decomposed as equal."""
    verdicts = []
    for k, bundle in enumerate(_round_trip_bundles(random.Random(7), 15)):
        path, kv = tmp_path / f"b{k}.sys", tmp_path / f"b{k}.kv"
        path.write_text("".join(format_system(bundle)))
        assert main(["decompose", "--system", str(path), "--emit", str(tmp_path / f"b{k}"), "--out", str(kv)]) == 0
        doc = dict(line.split("=", 1) for line in kv.read_text().splitlines())
        *firsts, composite = [tmp_path / f"b{k}.factor{i}.sys" for i in range(1, int(doc["factors"]) + 1)]
        for i, factor in reversed(list(enumerate(firsts))):  # C = F1 || (F2 || ... Fk)
            folded = tmp_path / f"b{k}.c{i}.sys"
            assert main(["compose", str(factor), str(composite), "--out", str(folded)]) == 0
            composite = folded
        capsys.readouterr()
        assert main(["decompose", "--system", str(composite)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("overall: equal (")
        composed = load(str(composite), RegularSystem)
        assert composed.inputs == bundle.inputs
        order = [int(i) for block in doc["partition.blocks"].split("|") for i in block.split(",")]
        own, hull = systems.realize(bundle, bundle.horizon), systems.realize(composed, bundle.horizon)
        same = all(hull[u] == SignalSet(bundle.n, bundle.horizon, (x.restrict(order) for x in own[u]))
                   for u in bundle.inputs)
        assert same == (doc["status"] == "equal")
        verdicts.append(doc["status"])
    assert sorted(set(verdicts)) == ["equal", "strict-subset"]


@st.composite
def relabeled_bundles(draw):
    """A seeded bundle of one of three kinds, n <= 6, and a permutation of its
    coordinates: a random bundle over the parallel connection of two or three
    random tables, phi0 and pi drawn state by state; the parallel connection of
    two random bundles; or identity dynamics over a diagonal phi0."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kind, m = draw(st.sampled_from(("random", "product", "diagonal"))), rng.randint(1, 2)
    if kind == "random":
        tables = [checks.rand_fn(rng, rng.randint(1, 2), m) for _ in range(rng.randint(2, 3))]
        bundle = checks.rand_system(rng, reduce(parallel_fn, tables), 12, rng.randint(1, 2))
    elif kind == "product":
        bundle = checks._product_form_system(rng, *(checks.rand_fn(rng, rng.randint(1, 3), m) for _ in "ab"), 12)
    else:
        n, u = rng.randint(2, 4), unit_step(0, 12)
        states = [BitVec(n, 0), BitVec(n, (1 << n) - 1)]
        bundle = RegularSystem(GeneratorFn.identity(n, 1), (u,), {u: states},
                               {(mu, u): [round_robin(n, (1, 2), 12)] for mu in states})
    return bundle, draw(st.permutations(range(1, bundle.n + 1)))


@given(relabeled_bundles())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_a_relabeled_bundle_gives_the_image_of_its_partition_and_its_verdict(case):
    """Read a bundle through a permutation sigma (coordinate k of the image is
    coordinate sigma[k-1]): the table by `project_fn` and phi0 and pi by
    `restrict`.  `analyze` gives sigma's image of the finest partition, and
    `decompose` the same overall status and factor count."""
    from tempfile import TemporaryDirectory

    from asyncdec import project_fn

    bundle, sigma = case
    moved = bundle.restrict(sigma)
    assert moved.phi == project_fn(bundle.phi, sigma)
    docs = []
    with TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        for name, b in (("own", bundle), ("moved", moved)):
            table, system = os.path.join(tmp, f"{name}.tt"), os.path.join(tmp, f"{name}.sys")
            with open(table, "w") as f:
                f.writelines(format_truth_table(b.phi))
            with open(system, "w") as f:
                f.writelines(format_system(b))
            assert main(["analyze", "--phi", table, "--out", table + ".kv"]) == 0
            assert main(["decompose", "--system", system, "--out", system + ".kv"]) == 0
            with open(table + ".kv") as a, open(system + ".kv") as d:
                docs.append(tuple(dict(line.rstrip("\n").split("=", 1) for line in f) for f in (a, d)))
    (own, own_steps), (image, image_steps) = docs

    def blocks(doc):
        return {frozenset(map(int, b.split(","))) for b in doc["partition.blocks"].split("|")}

    assert blocks(image) == {frozenset(k for k, c in enumerate(sigma, 1) if c in b) for b in blocks(own)}
    assert blocks(image_steps) == blocks(image)
    assert (image_steps["status"], image_steps.get("factors")) == (own_steps["status"], own_steps.get("factors"))


def test_analyze_of_a_composition_lists_the_first_tables_blocks_then_the_seconds(tmp_path):
    """The finest partition `analyze` reports for `compose A B` is A's blocks
    followed by B's, shifted by A's width: no dependency crosses the two."""
    def blocks(path):
        assert main(["analyze", "--phi", str(path), "--out", str(tmp_path / "an.kv")]) == 0
        doc = dict(line.split("=", 1) for line in (tmp_path / "an.kv").read_text().splitlines())
        return [[int(i) for i in block.split(",")] for block in doc["partition.blocks"].split("|")]

    rng = random.Random(13)
    counts = []
    for _ in range(20):
        m = rng.randint(1, 2)
        a, b = (reduce(parallel_fn, [checks.rand_fn(rng, rng.randint(1, 2), m) for _ in range(rng.randint(1, 3))])
                for _ in "ab")
        (tmp_path / "a.tt").write_text("".join(format_truth_table(a)))
        (tmp_path / "b.tt").write_text("".join(format_truth_table(b)))
        assert main(["compose", str(tmp_path / "a.tt"), str(tmp_path / "b.tt"), "--out", str(tmp_path / "c.tt")]) == 0
        expected = blocks(tmp_path / "a.tt") + [[a.n + i for i in block] for block in blocks(tmp_path / "b.tt")]
        assert blocks(tmp_path / "c.tt") == expected
        counts.append(len(expected))
    assert max(counts) > 2


def test_wide_analyze_holds_no_n_squared_object(tmp_path):
    """`analyze` of a 1024-variable equation file prints the matrix a row at a
    time: its traced peak stays under 5 MB, where n tuples of n ints alone
    take about 8.4 MB.  The printed rows and the million `depends.i.j` pairs of
    `--out` (checked untraced: tracing each pair takes seconds) spell out the
    rows of `program_matrix`, coordinate 1 first."""
    rng, n = random.Random(1024), 1024
    eq, kv, out = tmp_path / "wide.eq", tmp_path / "wide.kv", tmp_path / "wide.txt"
    with open(eq, "w") as f:
        for i in range(1, n + 1):  # three state bits of i's block of 8, and an input
            a, b, c = rng.sample(range(i - (i - 1) % 8, i - (i - 1) % 8 + 8), 3)
            f.write(f"x{i}' = x{a} ^ x{b} ^ x{c} & u{rng.randint(1, 4)}\n")
    args = ["analyze", "--phi", str(eq)]
    with open(os.devnull, "w") as f, redirect_stdout(f):
        assert main(args + ["--out", str(kv)]) == 0  # untraced; it also warms every cache
    with open(out, "w") as f, redirect_stdout(f):
        tracemalloc.start()
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 5 << 20, peak
    matrix = program_matrix(load(str(eq), EquationProgram))
    rows = ["".join(str(row >> j & 1) for j in range(n)) for row in matrix.rows]
    printed = out.read_text().splitlines()
    start = printed.index("dependency matrix (row i, column j; 1 = coordinate i depends on mu_j):") + 1
    assert printed[start:start + n] == ["  " + row for row in rows]
    depends = [line for line in kv.read_text().splitlines() if line.startswith("depends.")]
    assert depends == [f"depends.{i}.{j}={b}"
                       for i, row in enumerate(rows, start=1) for j, b in enumerate(row, start=1)]


def test_missing_file_is_input_error():
    result = cli("analyze", "--phi", "no-such-file.eq")
    assert result.returncode == 2
    assert "error" in result.stderr


def test_a_child_in_another_directory_imports_the_package(workdir):
    result = cli("analyze", "--phi", "delay.eq", cwd=workdir)
    assert result.returncode == 0, result.stderr
    assert "finest partition: {1}" in result.stdout


# runs `python -m asyncdec ARGS` in a child that reports, at exit, how many objects the entry froze
_FREEZE_PROBE = """\
import atexit, gc, runpy, sys
atexit.register(lambda: print(f"frozen={gc.get_freeze_count()}", file=sys.stderr))
runpy.run_module("asyncdec", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("args, code", [
    (["verify", "--thm", "example1"], 0),
    (["decompose", "--system", "{}/swap.sys", "--block", "1"], 1),
    (["analyze", "--phi", "no-such-file.eq"], 2),
])
def test_the_process_entry_freezes_start_up_and_exits_normally(workdir, args, code):
    args = [a.format(workdir) for a in args]
    plain = cli(*args)
    probed = subprocess.run([sys.executable, "-c", _FREEZE_PROBE, *args],
                            capture_output=True, text=True, env=CHILD_ENV)
    # the atexit hook ran, so the normal exit path did, after the entry froze start-up's objects
    err, _, frozen = probed.stderr.rpartition("frozen=")
    assert int(frozen) > 0
    assert (probed.returncode, probed.stdout, err) == (plain.returncode, plain.stdout, plain.stderr)
    assert plain.returncode == code


def test_main_leaves_the_collector_as_it_was(capsys):
    before = (gc.get_freeze_count(), gc.isenabled())
    assert main(["verify", "--thm", "example1"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_size_limit_env_override(workdir):
    """pair.eq has a 2^3-row table, but `analyze` builds no object past 2^2
    entries (its 2x2 report, its one-variable supports), so it passes at limit
    2 and is refused at limit 1 by the report."""
    result = cli(
        "analyze", "--phi", str(workdir / "pair.eq"), env={"ASYNC_DEC_SIZE_LIMIT": "1"}
    )
    assert result.returncode == 2
    assert "limit" in result.stderr
    result = cli(
        "analyze", "--phi", str(workdir / "pair.eq"), env={"ASYNC_DEC_SIZE_LIMIT": "2"}
    )
    assert result.returncode == 0
    assert "finest partition: {1} | {2}" in result.stdout


def assert_input_error(result):
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("name, width", [("id.tt", 3), ("diag.sys", 5)])
def test_compose_past_the_size_limit_is_input_error(workdir, monkeypatch, capsys, name, width):
    """Each input is within the limit and the composition of n+m = `width` bits
    is not: compose refuses it before building a row, and composes it once
    the limit allows."""
    path, out = str(workdir / name), workdir / "par.out"
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", str(width - 1))
    assert main(["compose", path, path, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", (
        f"error: n+m = {width} exceeds the exhaustive-scan limit {width - 1}; "
        "refusing to scan (set ASYNC_DEC_SIZE_LIMIT to raise the limit)\n"
    ))
    assert not out.exists()
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", str(width))
    assert main(["compose", path, path, "--out", str(out)]) == 0
    assert out.exists()


def test_a_table_past_the_size_limit_is_refused_at_its_header(workdir, monkeypatch, capsys):
    """n+m = 3 under limit 2: `analyze` and `simulate` both refuse the table
    before reading a row, so the malformed last line is never reported."""
    path = workdir / "wide.tt"
    path.write_text("".join(format_truth_table(GeneratorFn.identity(2, 1))) + "not a row\n")
    (workdir / "fire2.rho").write_text("n=2 H=10 events=(1,11)\n")
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "2")
    simulate = ["simulate", "--phi", str(path), "--init", "00",
                "--input", str(workdir / "step.sig"), "--rho", str(workdir / "fire2.rho")]
    for argv in (["analyze", "--phi", str(path)], simulate):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", (
            "error: n+m = 3 exceeds the exhaustive-scan limit 2; "
            "refusing to scan (set ASYNC_DEC_SIZE_LIMIT to raise the limit)\n"
        ))


def test_a_table_past_the_size_limit_is_refused_before_the_rest_is_decoded(workdir, monkeypatch, capsys):
    """The header is read from the file's first bytes: a later row that is not
    UTF-8 is never decoded, so the limit is what `analyze` reports."""
    path = workdir / "wide.tt"
    path.write_bytes("".join(format_truth_table(GeneratorFn.identity(2, 1))).encode() + b"00 0 -> \xff\n")
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "2")
    assert main(["analyze", "--phi", str(path)]) == 2
    assert capsys.readouterr() == ("", (
        "error: n+m = 3 exceeds the exhaustive-scan limit 2; "
        "refusing to scan (set ASYNC_DEC_SIZE_LIMIT to raise the limit)\n"
    ))
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "3")
    assert main(["analyze", "--phi", str(path)]) == 2
    assert "not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("header", [
    pytest.param("n=6" + " " * 100 + "m=6", id="spaced"),
    pytest.param("n=" + "6".zfill(100) + " m=6", id="zero-padded"),
])
def test_a_padded_table_header_past_the_size_limit_is_refused_before_the_rest_is_decoded(
        workdir, monkeypatch, capsys, header):
    """The header's numbers are bounded, not the line's length: spaces or
    leading zeros do not carry a header past the header-first limit check."""
    path = workdir / "padded.tt"
    path.write_bytes(header.encode() + b"\n000000 000000 -> \xff\n")
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "10")
    assert main(["analyze", "--phi", str(path)]) == 2
    assert capsys.readouterr() == ("", (
        "error: n+m = 12 exceeds the exhaustive-scan limit 10; "
        "refusing to scan (set ASYNC_DEC_SIZE_LIMIT to raise the limit)\n"
    ))


def test_a_table_with_cr_line_ends_past_the_size_limit_is_refused_at_its_header(workdir, monkeypatch, capsys):
    """The header ends at its \\r, so the limit is checked before the row
    that is not UTF-8 is read."""
    path = workdir / "cr.tt"
    path.write_bytes(b"n=2 m=1\r00 0 -> \xff\r")
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "2")
    assert main(["analyze", "--phi", str(path)]) == 2
    assert capsys.readouterr() == ("", (
        "error: n+m = 3 exceeds the exhaustive-scan limit 2; "
        "refusing to scan (set ASYNC_DEC_SIZE_LIMIT to raise the limit)\n"
    ))


def test_a_table_past_the_size_limit_where_no_table_is_read_is_refused_by_its_kind(workdir, monkeypatch, capsys):
    """Only the table reader checks a header against the limit: where a verb
    reads no table, the file's kind is what is wrong."""
    path = workdir / "wide.tt"
    path.write_text("".join(format_truth_table(GeneratorFn.identity(2, 1))))
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "2")
    simulate = ["simulate", "--phi", str(workdir / "delay.eq"), "--init", "0",
                "--input", str(path), "--rho", str(workdir / "fire1.rho")]
    assert main(simulate) == 2
    assert capsys.readouterr() == ("", f"error: {path}: holds a truth table, expected a signal\n")
    assert main(["compose", str(path), str(workdir / "step.sig")]) == 2
    assert capsys.readouterr() == ("", (
        f"error: {workdir / 'step.sig'}: holds a signal, "
        "expected a truth table or an equation file or a system bundle\n"
    ))


def test_decompose_non_numeric_block_is_input_error(workdir):
    result = cli("decompose", "--system", str(workdir / "diag.sys"), "--block", "x")
    assert_input_error(result)
    assert "--block" in result.stderr


@pytest.mark.parametrize("block", ["١", "1_0"])
def test_decompose_block_takes_ascii_digits_only(workdir, capsys, block):
    """Each item is ASCII digits: `int` alone would read `١` as coordinate 1."""
    assert main(["decompose", "--system", str(workdir / "diag.sys"), "--block", block]) == 2
    assert capsys.readouterr() == ("", f"error: --block must be comma-separated coordinates, got {block!r}\n")


def test_decompose_empty_block_is_input_error(workdir):
    result = cli("decompose", "--system", str(workdir / "diag.sys"), "--block", "")
    assert_input_error(result)
    assert "--block" in result.stderr
    assert result.stdout == ""


def test_decompose_repeated_block_coordinate_counts_once(workdir):
    result = cli("decompose", "--system", str(workdir / "diag.sys"), "--block", "1,1")
    assert result.returncode == 0
    assert "step1 block {1}:" in result.stdout
    assert "overall: strict-subset (2 factors)" in result.stdout


def test_verify_zero_cases_is_input_error():
    for thm in ("27", "30"):  # theorem 30 ignores N but still refuses it below 1
        result = cli("verify", "--thm", thm, "--cases", "0")
        assert_input_error(result)
        assert "PASS" not in result.stdout


def test_negative_size_limit_env_is_input_error(workdir):
    for limit in ("-1", "abc"):
        result = cli(
            "analyze", "--phi", str(workdir / "pair.eq"), env={"ASYNC_DEC_SIZE_LIMIT": limit}
        )
        assert_input_error(result)
        assert result.stderr == f"error: ASYNC_DEC_SIZE_LIMIT must be a non-negative integer, got {limit!r}\n"


def test_non_utf8_phi_file_is_input_error(workdir):
    (workdir / "latin1.eq").write_bytes("x1' = u1 # caf\xe9\n".encode("latin-1"))
    result = cli("analyze", "--phi", str(workdir / "latin1.eq"))
    assert_input_error(result)
    assert "UTF-8" in result.stderr


def test_deeply_nested_equations_are_input_errors(workdir):
    for name, rhs in (("nots.eq", "!" * 3000 + "x1"), ("parens.eq", "(" * 1500 + "x1" + ")" * 1500)):
        (workdir / name).write_text(f"x1' = {rhs}\n")
        result = cli("analyze", "--phi", str(workdir / name))
        assert_input_error(result)
        assert result.stderr == "error: line 1, column 107: expression nested deeper than 100 levels\n"


def test_state_width_beyond_the_lane_cap_is_input_error(workdir):
    (workdir / "wide.eq").write_text("".join(f"x{i}' = x{i}\n" for i in range(1, 66)))
    path = str(workdir / "wide.eq")
    result = cli("compose", path, path, env={"ASYNC_DEC_SIZE_LIMIT": "1000"})
    assert_input_error(result)
    assert result.stderr == "error: n = 65 state bits exceed the 64-bit lane cap of the table kernels\n"


def test_row_count_beyond_the_index_range_is_input_error(workdir):
    (workdir / "wide_input.eq").write_text("x1' = u70\n")
    path = str(workdir / "wide_input.eq")
    result = cli("compose", path, path, env={"ASYNC_DEC_SIZE_LIMIT": "1000"})
    assert_input_error(result)
    assert "n+m = 71" in result.stderr


def test_out_of_memory_is_input_error(workdir, monkeypatch, capsys):
    # 2^60 rows: the first lane mask asks for 2^60 bytes, which no 64-bit
    # address space can map, so the allocation fails without taking memory
    (workdir / "wide_input.eq").write_text("x1' = u59\n")
    path = str(workdir / "wide_input.eq")
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "1000")
    assert main(["compose", path, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("text, width, blocks", [
    ("".join(f"x{i}' = x{i}\n" for i in range(1, 66)), "n=65 m=0", "|".join(map(str, range(1, 66)))),
    ("x1' = u70\n", "n=1 m=70", "1"),
    ("x1' = u59\n", "n=1 m=59", "1"),
])
def test_analyze_reads_equations_past_the_table_kernels(workdir, text, width, blocks):
    """The files compose refuses above: analyze reads each equation's support,
    one variable wide here, so neither the lane cap nor the row count applies."""
    (workdir / "wide.eq").write_text(text)
    result = cli("analyze", "--phi", str(workdir / "wide.eq"), "--out", str(workdir / "wide.kv"))
    assert (result.returncode, result.stderr) == (0, "")
    assert f"generator function: {width}" in result.stdout
    assert f"partition.blocks={blocks}\n" in (workdir / "wide.kv").read_text()


@pytest.mark.parametrize("limit, reads, message", [
    ("3", "x1 & x2 & u1 & u69", "|S_2| = 4 (the variables x2' reads) exceeds the exhaustive-scan limit 3; "
                                "refusing to scan (set ASYNC_DEC_SIZE_LIMIT to raise the limit)"),
    ("1000", " & ".join(["x1", "x2"] + [f"u{j}" for j in range(1, 69)]),
     "|S_2| = 70 (the variables x2' reads): 2^70 table rows exceed this platform's index range"),
])
def test_analyze_support_past_the_limit_is_input_error(workdir, limit, reads, message):
    """Each equation's support is held to the limit (and the index range), not n+m."""
    (workdir / "wide.eq").write_text(f"x1' = x1\nx2' = {reads}\n")
    result = cli("analyze", "--phi", str(workdir / "wide.eq"), env={"ASYNC_DEC_SIZE_LIMIT": limit})
    assert_input_error(result)
    assert result.stderr == f"error: {message}\n"
    if limit == "3":  # n+m = 71 is past the limit; the widest support, 4, is not
        result = cli("analyze", "--phi", str(workdir / "wide.eq"), env={"ASYNC_DEC_SIZE_LIMIT": "4"})
        assert result.returncode == 0


@pytest.mark.parametrize("n, limit", [(5, "4"), (1025, None)])
def test_analyze_report_past_the_limit_is_input_error(workdir, n, limit):
    """The n*n report is held to 2^limit entries: n <= 1024 at the default 20."""
    (workdir / "diag.eq").write_text("".join(f"x{i}' = x{i}\n" for i in range(1, n + 1)))
    result = cli("analyze", "--phi", str(workdir / "diag.eq"), env=limit and {"ASYNC_DEC_SIZE_LIMIT": limit})
    assert_input_error(result)
    assert result.stderr == (
        f"error: {n * n} entries in the {n}x{n} dependency report exceed 2^{limit or 20}, "
        "the exhaustive-scan limit; refusing to build them (set ASYNC_DEC_SIZE_LIMIT to raise the limit)\n"
    )
    assert result.stdout == ""


def test_compose_of_bundles_past_the_size_limit_is_input_error(workdir, monkeypatch, capsys):
    """Three schedules a side weave into 3*3 = 9 schedules, past 2^3: compose
    counts them and refuses before it builds a product, though n+m = 3 fits."""
    u = unit_step(0, 10)
    mu = BitVec.from_string("0")
    rhos = {ProgressiveFunction(1, ((t, 1),), 10) for t in range(3)}
    system = RegularSystem(GeneratorFn.identity(1, 1), (u,), {u: {mu}}, {(mu, u): rhos})
    path, out = str(workdir / "three.sys"), workdir / "par.sys"
    (workdir / "three.sys").write_text("".join(format_system(system)))
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "3")
    with monkeypatch.context() as patched:
        patched.setattr(systems, "product_rho", None)  # a product would raise TypeError
        assert main(["compose", path, path, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", (
        "error: 9 woven schedules in the composed bundle exceed 2^3, the exhaustive-scan limit; "
        "refusing to build them (set ASYNC_DEC_SIZE_LIMIT to raise the limit)\n"
    ))
    assert not out.exists()
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "4")
    assert main(["compose", path, path, "--out", str(out)]) == 0
    assert len(load(str(out), RegularSystem).pi[(BitVec.from_string("00"), u)]) == 9


def test_decompose_hull_past_the_size_limit_is_input_error(workdir, monkeypatch, capsys):
    """Two negated coordinates, one state and three schedules, each firing x1
    at tick t and x2 at t+3: each factor realizes three trajectories, so the
    hull f'(u) x f''(u) holds 3*3 = 9, past 2^3; decompose counts them and
    refuses before it builds one, though n+m = 3 fits."""
    u = unit_step(0, 10)
    mu = BitVec.from_string("00")
    rhos = {ProgressiveFunction(2, ((t, 0b01), (t + 3, 0b10)), 10) for t in (1, 2, 3)}
    negate = GeneratorFn.from_function(2, 1, lambda mu, lam: BitVec(2, mu.value ^ 0b11))
    (workdir / "neg.sys").write_text("".join(format_system(RegularSystem(negate, (u,), {u: {mu}}, {(mu, u): rhos}))))
    argv = ["decompose", "--system", str(workdir / "neg.sys"), "--block", "1"]
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "3")
    assert main(argv) == 2
    assert capsys.readouterr() == ("", (
        "error: 9 trajectories in the hulls exceed 2^3, the exhaustive-scan limit; "
        "refusing to build them (set ASYNC_DEC_SIZE_LIMIT to raise the limit)\n"
    ))
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "4")
    assert main(argv) == 0
    assert "hull 9 states" in capsys.readouterr().out


def test_decompose_of_an_equal_bundle_past_the_hull_limit_answers(workdir, monkeypatch, capsys):
    """The same negated coordinates, each schedule now one of the 3 x 3 weaves
    of x1 firing at t and x2 at t' + 4: the system realizes all 9 pairs of
    factor trajectories, so nothing is missing, no witness is searched, and
    the hull count, past 2^3, bounds no work: decompose answers `equal`."""
    u = unit_step(0, 10)
    mu = BitVec.from_string("00")
    rhos = {ProgressiveFunction(2, ((t, 0b01), (s + 4, 0b10)), 10) for t in (1, 2, 3) for s in (1, 2, 3)}
    negate = GeneratorFn.from_function(2, 1, lambda mu, lam: BitVec(2, mu.value ^ 0b11))
    (workdir / "neg.sys").write_text("".join(format_system(RegularSystem(negate, (u,), {u: {mu}}, {(mu, u): rhos}))))
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "3")
    assert main(["decompose", "--system", str(workdir / "neg.sys"), "--block", "1"]) == 0
    out = capsys.readouterr().out
    assert "status: equal" in out and "own 9 states, hull 9 states" in out


def test_decompose_product_condition_is_bounded_by_the_hull(workdir, monkeypatch, capsys):
    """Identity dynamics, one state and 40 schedules, each firing both
    coordinates at its own tick: each factor realizes one trajectory, so the
    hull is 1*1.  The 40*40 = 1600 schedule pairs are past 2^10, but the
    product condition is read off the hull and weaves none of them, so
    decompose answers at limit 10."""
    u = unit_step(0, 50)
    mu = BitVec.from_string("00")
    rhos = {ProgressiveFunction(2, ((t, 0b11),), 50) for t in range(1, 41)}
    system = RegularSystem(GeneratorFn.identity(2, 1), (u,), {u: {mu}}, {(mu, u): rhos})
    (workdir / "forty.sys").write_text("".join(format_system(system)))
    argv = ["decompose", "--system", str(workdir / "forty.sys"), "--block", "1"]
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "10")
    with monkeypatch.context() as patched:
        def refuse(*args):
            raise AssertionError("the product condition wove a schedule pair")
        patched.setattr(systems, "product_rho", refuse)
        assert main(argv) == 0
    out = capsys.readouterr().out
    assert "status: equal" in out and "hull 1 states" in out


def test_a_table_whose_header_is_split_by_a_tab_is_analyzed(workdir, capsys):
    """The loader tells a table by its `n=` opening, and the table reader
    takes any blank between `n=` and `m=`."""
    (workdir / "tab.tt").write_text("n=1\tm=0\n0 -> 1\n1 -> 0\n")
    assert main(["analyze", "--phi", str(workdir / "tab.tt")]) == 0
    assert "generator function: n=1 m=0" in capsys.readouterr().out


@pytest.mark.parametrize("verb, flag, name, message", [
    ("analyze", "--phi", "diag.sys", "holds a system bundle, expected a truth table or an equation file"),
    ("simulate", "--phi", "diag.sys", "holds a system bundle, expected a truth table or an equation file"),
    ("decompose", "--system", "id.tt", "holds a truth table, expected a system bundle"),
    ("decompose", "--system", "pair.eq", "holds an equation file, expected a system bundle"),
    ("simulate", "--input", "bad.tt", "holds a truth table, expected a signal"),
    ("simulate", "--rho", "bad.tt", "holds a truth table, expected a schedule"),
    ("simulate", "--input", "fire1.rho", "holds a schedule, expected a signal"),
    ("simulate", "--rho", "step.sig", "holds a signal, expected a schedule"),
    ("analyze", "--phi", "step.sig", "holds a signal, expected a truth table or an equation file"),
    ("compose", "first", "step.sig",
     "holds a signal, expected a truth table or an equation file or a system bundle"),
])
def test_a_file_of_the_wrong_kind_is_named_with_what_it_holds(workdir, capsys, verb, flag, name, message):
    """The kind is told by the first line, so the third row of `bad.tt`, which
    is not UTF-8, is never decoded."""
    (workdir / "bad.tt").write_bytes(b"n=1 m=1\n0 0 -> 0\n1 0 -> \xff\n0 1 -> 1\n1 1 -> 1\n")
    path = str(workdir / name)
    if verb == "compose":
        argv = [verb, path, str(workdir / "id.tt")]
    elif verb == "simulate":  # every file but the one under test is good
        files = {"--phi": "delay.eq", "--input": "step.sig", "--rho": "fire1.rho", flag: name}
        argv = [verb, "--init", "0", *(a for f, n in files.items() for a in (f, str(workdir / n)))]
    else:
        argv = [verb, flag, path]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_a_file_of_the_wrong_kind_is_refused_before_the_rest_is_decoded(workdir, capsys):
    """The kind is told by the first line: a later row that is not UTF-8 is
    never decoded, so the kind is what `decompose` reports."""
    path = workdir / "bad.tt"
    path.write_bytes(b"n=1 m=1\n0 0 -> 0\n1 0 -> 1\n0 1 -> \xff\n1 1 -> 1\n")
    assert main(["decompose", "--system", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: holds a truth table, expected a system bundle\n")


@pytest.mark.parametrize("second, message", [
    ("step.sig", "{second}: holds a signal, expected a truth table or an equation file or a system bundle"),
    ("diag.sys", "compose needs two truth tables or two system bundles"),
])
def test_compose_tells_both_kinds_before_it_reads_either_file(workdir, capsys, second, message):
    """Both kinds are told by first lines, so the first file's third row,
    which is not UTF-8, is never decoded: the second file's kind, or the
    mismatch of the two, is what `compose` reports."""
    first = workdir / "bad.tt"
    first.write_bytes(b"n=1 m=1\n0 0 -> 0\n1 0 -> 1\n0 1 -> \xff\n1 1 -> 1\n")
    second = str(workdir / second)
    assert main(["compose", str(first), second]) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(second=second)}\n")


def _bundle_naming(workdir, ref: str):
    """The diagonal example's bundle, its [phi] table replaced by `file=ref`."""
    text = "".join(format_system(diagonal_example()))
    path = workdir / "ref.sys"
    path.write_text(f"[phi]\nfile={ref}\n" + text[text.index("[inputs]"):])
    return path


def test_a_bundle_is_refused_by_kind_before_its_table_reference_is_opened(workdir, capsys):
    path = _bundle_naming(workdir, "gone.tt")
    assert main(["analyze", "--phi", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {path}: holds a system bundle, expected a truth table or an equation file\n")


def test_a_referenced_table_past_the_size_limit_is_refused_before_the_rest_is_decoded(
        workdir, monkeypatch, capsys):
    """A bundle's `file=` table is read through `load`, header first: a later
    row that is not UTF-8 is never decoded, so the limit is what is reported."""
    (workdir / "wide.tt").write_bytes(b"n=9 m=2\n000000000 00 -> \xff\n")
    path = _bundle_naming(workdir, "wide.tt")
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "10")
    assert main(["decompose", "--system", str(path)]) == 2
    assert capsys.readouterr() == ("", (
        "error: n+m = 11 exceeds the exhaustive-scan limit 10; "
        "refusing to scan (set ASYNC_DEC_SIZE_LIMIT to raise the limit)\n"
    ))


def test_compose_of_a_table_with_a_bundle_is_refused(workdir, capsys):
    assert main(["compose", str(workdir / "id.tt"), str(workdir / "diag.sys")]) == 2
    assert capsys.readouterr() == ("", "error: compose needs two truth tables or two system bundles\n")


@pytest.mark.parametrize("argv, piped", [
    (["analyze", "--phi", "id.tt"], "id.tt"),
    (["analyze", "--phi", "pair.eq"], "pair.eq"),
    (["decompose", "--system", "diag.sys"], "diag.sys"),
    (["simulate", "--phi", "delay.eq", "--init", "0", "--input", "step.sig", "--rho", "fire1.rho"], "step.sig"),
    (["simulate", "--phi", "delay.eq", "--init", "0", "--input", "step.sig", "--rho", "fire1.rho"], "fire1.rho"),
], ids=["table", "equations", "bundle", "signal", "schedule"])
def test_a_piped_file_is_read_as_the_named_file(workdir, argv, piped):
    """Each file is opened once, so one that can be read only once, such as
    `/dev/stdin`, is read as the file it holds."""
    named = cli(*(str(workdir / a) if (workdir / a).is_file() else a for a in argv))
    argv = [a if a != piped else "/dev/stdin" for a in argv]
    result = cli(*(str(workdir / a) if (workdir / a).is_file() else a for a in argv),
                 stdin=(workdir / piped).read_text())
    assert named.returncode == 0
    assert (result.returncode, result.stdout) == (named.returncode, named.stdout)


def test_simulate_checks_its_other_inputs_before_it_compiles_an_equation_file(workdir, monkeypatch, capsys):
    """`--input`, `--rho` and `--init` are checked before `--phi` is compiled."""
    def refuse(program):
        raise AssertionError("compile_program ran")
    monkeypatch.setattr(cli_module, "compile_program", refuse)
    files = {"--phi": "pair.eq", "--input": "id.tt", "--rho": "fire1.rho"}
    argv = ["simulate", "--init", "00", *(a for f, n in files.items() for a in (f, str(workdir / n)))]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {workdir / 'id.tt'}: holds a truth table, expected a signal\n")
    (workdir / "fire2.rho").write_text("n=2 H=10 events=(1,11)\n")
    files.update({"--input": "step.sig", "--rho": "fire2.rho"})
    argv = ["simulate", "--init", "000", *(a for f, n in files.items() for a in (f, str(workdir / n)))]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: --init must be 2 bits, got '000'\n")


BUNDLE = """[phi]
n=1 m=1
0 0 -> 0
1 0 -> 1
0 1 -> 0
1 1 -> 1
[inputs]
step = n=1 init=0 H=8 events=(0,1)
[phi0]
step: 0
[pi]
0 @ step: r0
[rho r0]
n=1 H=8 events=(1,1)
"""
BUNDLE_TABLE = BUNDLE[len("[phi]\n"):BUNDLE.index("[inputs]")]


@pytest.mark.parametrize("text, message", [
    pytest.param(BUNDLE.replace("step = n=1 init=0 H=8 events=(0,1)", "step = n=2 init=00 H=8 events=(0,11)"),
                 "input width 2, expected 1", id="input-width"),
    pytest.param(BUNDLE.replace("n=1 H=8 events=(1,1)", "n=2 H=8 events=(1,11)"),
                 "schedule width 2, expected 1", id="schedule-width"),
    pytest.param(BUNDLE.replace("n=1 H=8 events=(1,1)", "n=1 H=9 events=(1,1)"),
                 "schedules must share the system horizon", id="schedule-horizon"),
    pytest.param(BUNDLE.replace("[phi0]", "other = n=1 init=1 H=9 events=\n[phi0]"),
                 "all inputs must share one horizon", id="input-horizon"),
    pytest.param(BUNDLE.replace("H=8", "H=5").replace("events=(1,1)", "events=(2,0)"),
                 "schedule n=1 H=5 events=(2,0) is not prefix-progressive", id="not-progressive"),
    pytest.param(BUNDLE.replace("[phi0]", "other = n=1 init=1 H=8 events=\n[phi0]"),
                 "phi0 must be defined exactly on the admissible inputs", id="phi0-domain"),
    pytest.param(BUNDLE.replace("step: 0", "step: 0, 1"),
                 "pi must be defined exactly on {(mu, u) | u admissible, mu in phi0(u)}", id="pi-domain"),
    pytest.param(BUNDLE.replace(BUNDLE_TABLE, ""), "empty truth table", id="empty-phi"),
    pytest.param(BUNDLE.replace(BUNDLE_TABLE, "file=zero.tt\n"),
                 "zero.tt: line 1: state width must be >= 1", id="zero-width-table-file"),
    pytest.param(re.sub(r"step = .*\n|step: 0\n|0 @ step: r0\n", "", BUNDLE),
                 "a system needs at least one admissible input", id="no-inputs"),
])
def test_bundle_refusals_read_exactly(workdir, capsys, text, message):
    """A bundle the system constructor refuses is one `error:` line, exit 2."""
    (workdir / "zero.tt").write_text("n=0 m=1\n")
    (workdir / "bad.sys").write_text(text)
    assert main(["decompose", "--system", str(workdir / "bad.sys")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_compose_of_bundles_with_different_horizons_is_refused(workdir, capsys):
    for h in (5, 6):
        (workdir / f"h{h}.sys").write_text(BUNDLE.replace("H=8", f"H={h}"))
    assert main(["compose", str(workdir / "h5.sys"), str(workdir / "h6.sys")]) == 2
    assert capsys.readouterr() == ("", "error: horizons differ: 5 vs 6\n")


def test_undefined_state_variable_error_names_no_line(workdir):
    (workdir / "gap.eq").write_text("x2' = x1\n")
    result = cli("analyze", "--phi", str(workdir / "gap.eq"))
    assert_input_error(result)
    assert result.stderr == "error: state variable x1 is never defined\n"


BIG = "9" * 5000  # past the 4300 digits that int() converts by default
BIG_FIELDS = {
    "horizon.sig": f"n=1 init=0 H={BIG} events=(0,1)\n",
    "tick.sig": f"n=1 init=0 H=10 events=({BIG},1)\n",
    "header.tt": f"n=1 m={BIG}\n",
    "input.eq": f"x1' = u{BIG}\n",
    "state.eq": f"x{BIG}' = u1\n",
}


@pytest.mark.parametrize("name", BIG_FIELDS)
def test_decimal_fields_past_the_int_digit_limit_are_input_errors(workdir, capsys, name):
    (workdir / name).write_text(BIG_FIELDS[name])
    if name.endswith(".sig"):
        argv = ["simulate", "--phi", str(workdir / "delay.eq"), "--init", "0",
                "--input", str(workdir / name), "--rho", str(workdir / "fire1.rho")]
    else:
        argv = ["analyze", "--phi", str(workdir / name)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 1" in err and "5000 digits" in err


@pytest.mark.parametrize("header", ["n=99999999999999999999 m=1", "n=1 m=62"])
def test_table_header_beyond_the_index_range_is_input_error(workdir, capsys, header):
    (workdir / "huge.tt").write_text(header + "\n")
    assert main(["analyze", "--phi", str(workdir / "huge.tt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceed this platform's index range" in err


def test_table_header_with_non_ascii_digits_is_input_error(workdir, capsys):
    (workdir / "arabic.tt").write_text("n=\u0661 m=0\n0 -> 0\n1 -> 1\n", encoding="utf-8")
    assert main(["analyze", "--phi", str(workdir / "arabic.tt")]) == 2
    assert capsys.readouterr().err == "error: line 1: expected 'n=<n> m=<m>', found 'n=\u0661 m=0'\n"


def test_verify_example1_deterministic():
    first = cli("verify", "--thm", "example1", "--seed", "3")
    second = cli("verify", "--thm", "example1", "--seed", "3")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert "overall: PASS" in first.stdout


def test_verify_stamp_adds_line():
    result = cli("verify", "--thm", "example1", "--stamp")
    assert result.returncode == 0
    assert "stamp:" in result.stdout


@pytest.mark.parametrize("report, summary", [
    (CheckReport("stub suite", 3, 2, ("a", "b")), "stub suite: 1/3 ok -> FAIL\n  witness: a\n  witness: b\n"),
    (CheckReport("stub suite", 0, 0, ()), "stub suite: 0/0 ok -> FAIL\n"),
], ids=["failures", "no-cases"])
def test_verify_of_a_failing_suite_exits_1_with_its_witnesses(tmp_path, monkeypatch, capsys, report, summary):
    monkeypatch.setattr(checks, "theorem26_suite", lambda seed, cases: report)
    kv = tmp_path / "report.kv"
    assert main(["verify", "--thm", "26", "--out", str(kv)]) == 1
    assert capsys.readouterr() == (summary + "overall: FAIL\n", "")
    assert kv.read_text() == (f"seed=0\ncases=200\nthm26.cases={report.cases}\n"
                              f"thm26.failures={report.failures}\nthm26.verdict=FAIL\noverall=FAIL\n")


VERIFY_BAD_ARGS = {
    "negative cases": ["--cases", "-3"],
    "non-numeric cases": ["--cases", "x"],
    "huge cases": ["--cases", BIG],
    "huge seed": ["--seed", BIG, "--cases", "1"],
    "non-ASCII digit seed": ["--seed", "١", "--cases", "1"],
    "underscored cases": ["--cases", "1_0"],
    "unknown theorem": ["--thm", "99"],
    "out under a missing directory": ["--cases", "2", "--out", "{tmp}/missing/report.kv"],
}


@pytest.mark.parametrize("name", VERIFY_BAD_ARGS)
def test_verify_bad_arguments_are_input_errors(tmp_path, name):
    argv = ["verify", "--thm", "26", *(a.format(tmp=tmp_path) for a in VERIFY_BAD_ARGS[name])]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses its own arguments this way
            code = exc.code
    assert code == 2
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("error: ") == 1


# -- exit contract under mutated input files --------------------------------

FUZZ_FILES = {
    "delay.eq": "x1' = u1\n",
    "pair.eq": "x1' = u1 & !x2\nx2' = x2 ^ (x1 | u1)\n",
    "id2.tt": "".join(format_truth_table(GeneratorFn.identity(2, 1))),
    "step.sig": "n=1 init=0 H=10 events=(0,1)\n",
    "fire.rho": "n=1 H=10 events=(1,1);(4,1)\n",
    "diag.sys": "".join(format_system(diagonal_example())),
}
FUZZ_ALPHABET = "01(),;=nHitevs[]@:"


@st.composite
def mutated_file(draw, names=("step.sig", "fire.rho", "diag.sys"), alphabet=FUZZ_ALPHABET):
    """One of the `names` files with one line edited: the span [i, j)
    replaced by up to four characters of `alphabet` (an insertion when the
    span is empty, a deletion when nothing replaces it)."""
    name = draw(st.sampled_from(names))
    lines = FUZZ_FILES[name].splitlines(keepends=True)
    k = draw(st.integers(0, len(lines) - 1))
    line = lines[k].rstrip("\n")
    i = draw(st.integers(0, len(line)))
    j = draw(st.integers(i, min(len(line), i + 4)))
    text = draw(st.text(alphabet, max_size=4))
    lines[k] = line[:i] + text + line[j:] + "\n"
    return name, "".join(lines)


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# one bit of one row edited so that coordinate 2 reads mu_1: block {1} is not separated
COUPLED = ("diag.sys", FUZZ_FILES["diag.sys"].replace("10 0 -> 10", "10 0 -> 11"))


@given(mutated_file())
@example(COUPLED)
@settings(max_examples=199, derandomize=True, deadline=None)
def test_mutated_inputs_keep_the_exit_contract(fuzzdir, mutated):
    name, text = mutated
    for base, content in FUZZ_FILES.items():
        (fuzzdir / base).write_text(text if base == name else content)
    if name == "diag.sys":
        # a fixed block, so that a table edit that couples it is a violation (exit 1)
        argv = ["decompose", "--system", str(fuzzdir / "diag.sys"), "--block", "1"]
    else:
        argv = ["simulate", "--phi", str(fuzzdir / "delay.eq"), "--init", "0",
                "--input", str(fuzzdir / "step.sig"), "--rho", str(fuzzdir / "fire.rho")]
    assert_exit_contract(argv)


def assert_exit_contract(argv):
    """`main(argv)` exits 0, 1 or 2 without a traceback, and a violation (1)
    names its witness; returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    # these texts report a failed internal invariant, never an input error
    assert "horizon artifact" not in err.getvalue()
    assert "should be impossible" not in err.getvalue()
    if code == 1:
        lines = (out.getvalue() + err.getvalue()).splitlines()
        assert any(ln.lstrip().startswith(("violation:", "witness:")) for ln in lines)
    return code


@given(mutated_file(("pair.eq", "id2.tt", "diag.sys"), FUZZ_ALPHABET + "!&^|'x-><"))
@settings(max_examples=120, derandomize=True, deadline=None)
def test_mutated_tables_and_bundles_keep_the_exit_contract(fuzzdir, mutated):
    name, text = mutated
    intact, edited = fuzzdir / name, fuzzdir / f"edited-{name}"
    intact.write_text(FUZZ_FILES[name])
    edited.write_text(text)
    if name == "diag.sys":
        assert_exit_contract(["compose", str(edited), str(intact)])
    else:
        assert_exit_contract(["analyze", "--phi", str(edited)])
        assert_exit_contract(["compose", str(edited), str(edited)])


# x1 follows u1 and x2 toggles on u1, so block {1} is separated; r0 and r1
# fire x1 alike, so the bundle decomposes as `equal` until an edit parts them
SEPARATED_SYS = """\
[phi]
n=2 m=1
00 0 -> 00
10 0 -> 00
01 0 -> 01
11 0 -> 01
00 1 -> 11
10 1 -> 11
01 1 -> 10
11 1 -> 10
[inputs]
u0 = n=1 init=0 H=8 events=(0,1);(5,0)
[phi0]
u0: 00, 01
[pi]
00 @ u0: r0
01 @ u0: r0, r1
[rho r0]
n=2 H=8 events=(1,11);(3,01);(6,10)
[rho r1]
n=2 H=8 events=(1,10);(2,01);(6,10)
"""


def in_syntax_edits(text):
    """Every bundle one character away from `text` whose lines keep their
    syntax: one digit of an event tick changed to each other digit, or one
    bit flipped in an event, a table row, a phi0 line or a pi state."""
    spots, offset = [], 0  # (offset in text, characters that may stand there)
    for line in text.splitlines(keepends=True):
        for event in re.finditer(r"\((\d+),([01]+)\)", line):
            spots += [(offset + k, "0123456789") for k in range(*event.span(1))]
            spots += [(offset + k, "01") for k in range(*event.span(2))]
        bits = re.fullmatch(r"([01]+ [01]+ -> [01]+)\n|u0: ([01, ]+)\n|([01]+) @ .*\n", line)
        if bits:
            span = range(*bits.span(bits.lastindex))
            spots += [(offset + k, "01") for k in span if line[k] in "01"]
        offset += len(line)
    return [text[:k] + c + text[k + 1 :] for k, chars in spots for c in chars if c != text[k]]


def test_in_syntax_edits_of_a_separated_bundle_keep_the_exit_contract(tmp_path):
    edits = in_syntax_edits(SEPARATED_SYS)
    assert len(edits) == 134
    path, codes = tmp_path / "edited.sys", set()
    for text in [SEPARATED_SYS] + edits:
        path.write_text(text)
        codes.add(assert_exit_contract(["decompose", "--system", str(path), "--block", "1"]))
        codes.add(assert_exit_contract(["decompose", "--system", str(path)]))
    assert codes == {0, 1, 2}
