"""Command-line front end.

Verbs: analyze (dependency structure of a generator function), simulate
(one trajectory), compose (parallel connection of two tables or bundles),
decompose (factor a system at a separated block), verify (run the theorem
suites).  Exit codes: 0 success / property holds, 1 property violated
(witness printed), 2 input error.

Reports go to stdout as human-readable text; `--out PATH` additionally
writes a machine-readable key=value document.  Output is byte-stable for
identical inputs and flags; `--stamp` opts into a timestamp line.
"""

from __future__ import annotations

import argparse
import gc
import sys
from itertools import chain
from typing import Iterable

from ..boolfn import GeneratorFn, _split_blocks, dependency_matrix, parallel_fn
from ..errors import AsyncDecError, NotSeparatedError
from ..semantics import run
from ..signals import BitVec, ProgressiveFunction, Signal
from ..systems import RegularSystem, decompose_system, parallel_system
from . import checks
from .dsl import EquationProgram, compile_program, program_matrix
from .fileio import LoadError, _kind_then_value, format_system, format_truth_table, load, save_system

_EXIT_OK = 0
_EXIT_VIOLATED = 1
_EXIT_INPUT = 2

def _table(phi: GeneratorFn | EquationProgram) -> GeneratorFn:
    """`phi` as a table: an equation program is compiled."""
    return phi if isinstance(phi, GeneratorFn) else compile_program(phi)


def _write_doc(path: str | None, pairs: Iterable[tuple[str, str]]) -> None:
    if path is None:
        return
    with open(path, "w") as f:
        for key, value in pairs:
            f.write(f"{key}={value}\n")


def _blocks_text(blocks) -> str:
    return " | ".join("{" + ",".join(str(i) for i in b) + "}" for b in blocks)


def _cmd_analyze(args) -> int:
    phi = load(args.phi, GeneratorFn, EquationProgram)
    # an equation file is analyzed one equation's support at a time, never as a table
    dm = dependency_matrix(phi) if isinstance(phi, GeneratorFn) else program_matrix(phi)
    part, matrix = dm.components(), dm.as_matrix()
    blocks = [",".join(map(str, b)) for b in part.blocks]
    # each block of `components()` is closed under dependency in both
    # directions, so it has no cross dependency: every block is separated
    separated = blocks if len(blocks) > 1 else []
    print(f"generator function: n={phi.n} m={phi.m}")
    print("dependency matrix (row i, column j; 1 = coordinate i depends on mu_j):")
    for row in matrix:
        print("  " + "".join(map(str, row)))
    print(f"finest partition: {_blocks_text(part.blocks)}")
    print("permutation: " + ",".join(map(str, part.permutation)))
    if not separated:
        print("no separated proper block: the dependency graph is one component")
    for b in separated:
        print(f"block {{{b}}}: separated")
    _write_doc(args.out, chain(
        [("n", str(phi.n)), ("m", str(phi.m))],
        ((f"depends.{i}.{j}", str(b))  # n^2 pairs, written as they are made, never held
         for i, row in enumerate(matrix, start=1) for j, b in enumerate(row, start=1)),
        [("partition.blocks", "|".join(blocks)), ("partition.permutation", ",".join(map(str, part.permutation)))],
        [pair for k, b in enumerate(separated, start=1) for pair in ((f"block.{k}", b), (f"block.{k}.separated", "1"))]
        or [("separated.blocks", "none")],
    ))
    return _EXIT_OK


def _cmd_simulate(args) -> int:
    u = load(args.input, Signal)
    rho = load(args.rho, ProgressiveFunction)
    horizon = args.horizon
    if horizon is None:
        if u.horizon != rho.horizon:
            raise LoadError(f"input horizon {u.horizon} and schedule horizon {rho.horizon} differ; "
                            "pass --horizon to truncate")
        horizon = u.horizon
    else:
        if horizon > min(u.horizon, rho.horizon):
            raise LoadError(f"--horizon {horizon} exceeds the loaded horizons "
                            f"({u.horizon}, {rho.horizon}); signals cannot be extended")
        u = u.truncated(horizon)
        rho = rho.truncated(horizon)
    phi = load(args.phi, GeneratorFn, EquationProgram)  # compiled last, once every other input passed
    mu = _parse_state(args.init, phi.n)
    x = run(_table(phi), mu, u, rho, horizon)
    # the state entered at each schedule tick, after the initial state at k=-1
    states = [mu] + [BitVec(phi.n, x.value_at(t)) for t, _ in rho.events]
    print(f"k=-1 omega={mu}")
    for k, (t, _) in enumerate(rho.events):
        print(f"k={k} t={t} omega={states[k + 1]}")
    print(f"signal: {x}")
    _write_doc(
        args.out,
        [("horizon", str(horizon)), ("signal", str(x))]
        + [(f"omega.{k - 1}", str(s)) for k, s in enumerate(states)],
    )
    return _EXIT_OK


def _integer(text: str) -> int:
    """`text` as the file formats read a number: ASCII digits after an optional
    `-`.  `int` alone also takes `1_0`, `+1`, spaces and non-ASCII digits."""
    digits = text[1:] if text[:1] == "-" else text
    try:
        if digits.isascii() and digits.isdigit():
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_state(text: str, n: int) -> BitVec:
    if not set(text) <= {"0", "1"} or len(text) != n:
        raise LoadError(f"--init must be {n} bits, got {text!r}")
    return BitVec.from_string(text)


def _cmd_compose(args) -> int:
    # both files' kinds are told from their first lines before either is read
    steps = [_kind_then_value(p, (GeneratorFn, EquationProgram, RegularSystem)) for p in (args.first, args.second)]
    bundles, other = (next(step) is RegularSystem for step in steps)
    if bundles != other:
        raise LoadError("compose needs two truth tables or two system bundles")
    a, b = map(next, steps)
    lines = format_system(parallel_system(a, b)) if bundles else format_truth_table(parallel_fn(_table(a), _table(b)))
    if args.out:
        with open(args.out, "w") as f:
            f.writelines(lines)
        print(f"wrote {args.out}")
    else:
        sys.stdout.writelines(lines)
    return _EXIT_OK


def _cmd_decompose(args) -> int:
    sys_ = load(args.system, RegularSystem)
    doc = [("n", str(sys_.n)), ("m", str(sys_.m)), ("horizon", str(sys_.horizon))]
    if args.block is not None:
        try:  # a negative item is a coordinate out of range, which _split_blocks refuses
            blocks = _split_blocks(sys_.n, [_integer(x) for x in args.block.split(",")])
        except argparse.ArgumentTypeError:
            raise LoadError(f"--block must be comma-separated coordinates, got {args.block!r}")
    else:
        blocks = dependency_matrix(sys_.phi).components().blocks
        print(f"finest partition: {_blocks_text(blocks)}")
        doc.append(("partition.blocks", "|".join(",".join(map(str, b)) for b in blocks)))
        if len(blocks) == 1:
            print("no separated proper block: nothing to decompose")
            doc.append(("status", "indecomposable"))
            _write_doc(args.out, doc)
            return _EXIT_OK
    factors = []
    statuses = []
    current = sys_
    for step in range(1, len(blocks)):
        # `current` holds the coordinates of blocks step-1 onward, ascending
        rest = sorted(chain.from_iterable(blocks[step - 1:]))
        block = [rest.index(i) + 1 for i in blocks[step - 1]]
        result = decompose_system(current, block, current.horizon)
        print(f"step{step} block {{{','.join(map(str, block))}}}:")
        print("  permutation: " + ",".join(map(str, result.partition.permutation)))
        print(f"  status: {result.status}")
        print(f"  phi0 product form: {'yes' if result.phi0_product_form else 'no'}")
        witness = result.product_witness
        print(f"  schedule product condition: {'holds' if witness is None else 'fails'}")
        if witness is not None:
            u, mu, rb, rc = witness
            print(f"  witness: mu={mu} u={u}")
            print(f"           rho'={rb}")
            print(f"           rho''={rc}")
        for u, own, hull in result.hull_sizes:
            print(f"  input {u}: own {own} states, hull {hull} states")
        doc.append((f"step{step}.status", result.status))
        doc.append((f"step{step}.phi0_product_form", str(int(result.phi0_product_form))))
        doc.append((f"step{step}.product_condition", str(int(witness is None))))
        factors.append(result.first)
        statuses.append(result.status)
        current = result.second
    factors.append(current)
    overall = "equal" if all(s == "equal" for s in statuses) else "strict-subset"
    print(f"overall: {overall} ({len(factors)} factors)")
    doc.append(("status", overall))
    doc.append(("factors", str(len(factors))))
    if args.emit:
        for k, factor in enumerate(factors, start=1):
            path = f"{args.emit}.factor{k}.sys"
            save_system(factor, path)
            print(f"wrote {path}")
    _write_doc(args.out, doc)
    return _EXIT_OK


# each suite is looked up in `checks` when it runs, so a wrapped suite is the one called
_SUITES = {
    "26": lambda seed, cases: checks.theorem26_suite(seed, cases),
    "27": lambda seed, cases: checks.theorem27_suite(seed, cases),
    "30": lambda seed, cases: checks.theorem30_exhaustive()[0],
    "32": lambda seed, cases: checks.theorem32_suite(seed, cases),
    "34": lambda seed, cases: checks.theorem34_suite(seed, max(2, cases // 5)),
    "example1": lambda seed, cases: checks.example1_suite(),
}
_THM_ORDER = tuple(_SUITES)


def _cmd_verify(args) -> int:
    if args.cases < 1:
        raise LoadError(f"--cases must be at least 1, got {args.cases}")
    chosen = _THM_ORDER if args.thm == "all" else (args.thm,)
    reports = [_SUITES[thm](args.seed, args.cases) for thm in chosen]
    doc = [("seed", str(args.seed)), ("cases", str(args.cases))]
    ok = True
    for thm, report in zip(chosen, reports):
        print(report.summary())
        for line in report.details:
            print(f"  witness: {line}")
        doc.append((f"thm{thm}.cases", str(report.cases)))
        doc.append((f"thm{thm}.failures", str(report.failures)))
        doc.append((f"thm{thm}.verdict", "PASS" if report.ok else "FAIL"))
        ok = ok and report.ok
    print(f"overall: {'PASS' if ok else 'FAIL'}")
    doc.append(("overall", "PASS" if ok else "FAIL"))
    if args.stamp:
        from datetime import datetime, timezone
        stamp = datetime.now(timezone.utc).isoformat()
        print(f"stamp: {stamp}")
        doc.append(("stamp", stamp))
    _write_doc(args.out, doc)
    return _EXIT_OK if ok else _EXIT_VIOLATED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asyncdec",
        description="Analyze, simulate and decompose regular asynchronous systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="dependency matrix and finest partition")
    p.add_argument("--phi", required=True, help="truth table or equation file")
    p.add_argument("--out", help="write a machine-readable key=value report")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("simulate", help="run one trajectory")
    p.add_argument("--phi", required=True, help="truth table or equation file")
    p.add_argument("--init", required=True, help="initial state bits")
    p.add_argument("--input", required=True, help="input signal file")
    p.add_argument("--rho", required=True, help="schedule file")
    p.add_argument("--horizon", type=_integer, help="truncate to this horizon")
    p.add_argument("--out", help="write a machine-readable key=value report")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("compose", help="parallel connection of two tables or bundles")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", help="write the composition here instead of stdout")
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("decompose", help="factor a system at a separated block")
    p.add_argument("--system", required=True, help="system bundle file")
    p.add_argument("--block", help="comma-separated coordinates; default: finest partition, iterated")
    p.add_argument("--emit", help="write factor bundles as PREFIX.factor<k>.sys")
    p.add_argument("--out", help="write a machine-readable key=value report")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("verify", help="run the theorem suites")
    p.add_argument("--thm", required=True, choices=_THM_ORDER + ("all",))
    p.add_argument("--seed", type=_integer, default=0, help="seed of 26, 27, 32 and 34; 30 and example1 take none")
    p.add_argument("--cases", type=_integer, default=200, help="N: 26, 27 and 32 run N cases, 34 runs "
                   "max(2, N // 5) plus the diagonal example; 30 and example1 ignore it")
    p.add_argument("--stamp", action="store_true", help="append a timestamp line")
    p.add_argument("--out", help="write a machine-readable key=value report")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NotSeparatedError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return _EXIT_VIOLATED
    except (AsyncDecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except MemoryError:
        print("error: out of memory; the input is too large for this machine", file=sys.stderr)
        return _EXIT_INPUT


def entry() -> None:
    gc.freeze()  # start-up's objects leave the collector: no collection, the exit one included, walks them
    sys.exit(main())
