"""Workload inputs with planted truth, and the checks that hold verbs to it.

Every input is generated here from the seed with the standard library only
and written in the documented text formats directly, never through
asyncdec's own formatters, so a change to the program cannot change a
workload.  The same (workload, seed) gives the same bytes.

A workload is a fixed cycle of verb shapes (sizes, block structure, theorem
and case count).  The seed fills in the content; the shapes never vary, so
two seeds load the program alike and their timings are comparable.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

# -- verb descriptions -------------------------------------------------------


@dataclass
class Verb:
    """One CLI invocation, its work units and the truth planted in its input.

    `argv` names files relative to the work directory the verb runs in, so
    its reports do not depend on where the checkout lives.
    """

    argv: list[str]
    out_path: Path
    work: int
    expect: dict
    table_bits: int = 0
    emit_prefix: Path | None = None


# -- equations over block-structured state ------------------------------------
#
# Coordinates are split into blocks.  Within a block the coordinates form a
# chain: coordinate c_k reads c_(k-1) (cyclically) through a top-level XOR,
# so its derivative with respect to that bit is identically 1.  Every other
# leaf is a state bit of the same block or an input bit.  The dependency
# graph is therefore connected inside each block and has no edge between
# blocks: the planted blocks are exactly the finest partition.


def _plant_blocks(rng: random.Random, n: int, sizes: tuple[int, ...]) -> list[list[int]]:
    """Random assignment of coordinates 1..n to chains of the given sizes."""
    coords = list(range(1, n + 1))
    rng.shuffle(coords)
    chains, start = [], 0
    for size in sizes:
        chains.append(coords[start : start + size])
        start += size
    return chains


def _equations(rng: random.Random, n: int, m: int, chains) -> dict[int, tuple]:
    """One expression tree per coordinate, of one fixed shape.

    Tree nodes: ("x", i) | ("u", j) | ("not", e) | (op, left, right) with op
    in and/or/xor.  Shape: x_prev ^ ((a & b) | (!c ^ d)).
    """
    exprs = {}
    for chain in chains:
        for k, c in enumerate(chain):
            prev = chain[k - 1]
            pool = [("x", i) for i in chain if i != prev] + [("u", j) for j in range(1, m + 1)]
            a, b, c_leaf = (rng.choice(pool) for _ in range(3))
            # Each input appears at least once, so the DSL infers width m.
            d = ("u", (c - 1) % m + 1)
            rest = ("or", ("and", a, b), ("xor", ("not", c_leaf), d))
            exprs[c] = ("xor", ("x", prev), rest)
    return exprs


def _render(node) -> str:
    kind = node[0]
    if kind in ("x", "u"):
        return f"{kind}{node[1]}"
    if kind == "not":
        return "!" + _render(node[1])
    symbol = {"and": "&", "or": "|", "xor": "^"}[kind]
    return f"({_render(node[1])} {symbol} {_render(node[2])})"


def _evaluate(node, mu: int, lam: int) -> int:
    kind = node[0]
    if kind == "x":
        return (mu >> (node[1] - 1)) & 1
    if kind == "u":
        return (lam >> (node[1] - 1)) & 1
    if kind == "not":
        return 1 - _evaluate(node[1], mu, lam)
    left, right = _evaluate(node[1], mu, lam), _evaluate(node[2], mu, lam)
    if kind == "and":
        return left & right
    if kind == "or":
        return left | right
    return left ^ right


def _bits(value: int, width: int) -> str:
    """Coordinate 1 first, as every asyncdec text format writes bits."""
    return "".join(str((value >> k) & 1) for k in range(width))


def _expected_partition(chains) -> list[list[int]]:
    return sorted((sorted(ch) for ch in chains), key=lambda b: b[0])


# -- analyze-eq ---------------------------------------------------------------

# (n, m, block sizes): n+m in 14..16, m in 2..4, 1..4 blocks.  Mostly 14
# bits, so one run holds enough verbs for a tail percentile; the five
# 14-bit shapes take about as long as each other, so the median verb falls
# among them rather than in a gap between sizes.
ANALYZE_CYCLE = (
    (11, 3, (11,)),
    (10, 4, (3, 3, 2, 2)),
    (12, 2, (5, 4, 3)),
    (12, 2, (6, 6)),
    (11, 3, (6, 5)),
    (13, 2, (7, 4, 2)),
    (14, 2, (6, 5, 3)),
)


def analyze_verb(rng: random.Random, workdir: Path, tag: str, shape) -> Verb:
    n, m, sizes = shape
    chains = _plant_blocks(rng, n, sizes)
    exprs = _equations(rng, n, m, chains)
    phi_path = workdir / f"{tag}.eq"
    out_path = workdir / f"{tag}.kv"
    lines = [f"x{i}' = {_render(exprs[i])[1:-1]}" for i in range(1, n + 1)]
    phi_path.write_text("\n".join(lines) + "\n")
    edges = [(c, chain[k - 1]) for chain in chains for k, c in enumerate(chain)]
    return Verb(
        argv=["analyze", "--phi", phi_path.name, "--out", out_path.name],
        out_path=out_path,
        work=1 << (n + m),
        expect={"n": n, "m": m, "blocks": _expected_partition(chains), "edges": edges},
        table_bits=n + m,
    )


def check_analyze(expect: dict, doc: dict[str, str]) -> list[str]:
    problems = []
    n = expect["n"]
    if doc.get("n") != str(n) or doc.get("m") != str(expect["m"]):
        problems.append(f"widths n={doc.get('n')} m={doc.get('m')}, planted n={n} m={expect['m']}")
    blocks = expect["blocks"]
    want = "|".join(",".join(map(str, b)) for b in blocks)
    if doc.get("partition.blocks") != want:
        problems.append(f"partition {doc.get('partition.blocks')!r}, planted {want!r}")
    if len(blocks) == 1:
        if doc.get("separated.blocks") != "none":
            problems.append("single planted block but a separated block was reported")
    else:
        for k, block in enumerate(blocks, start=1):
            if doc.get(f"block.{k}") != ",".join(map(str, block)):
                problems.append(f"block.{k} is {doc.get(f'block.{k}')!r}, planted {block}")
            if doc.get(f"block.{k}.separated") != "1":
                problems.append(f"planted block {block} not certified separated")
    owner = {i: k for k, b in enumerate(blocks) for i in b}
    for i, j in expect["edges"]:
        if doc.get(f"depends.{i}.{j}") != "1":
            problems.append(f"planted dependency of x{i} on x{j} missing")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if owner[i] != owner[j] and doc.get(f"depends.{i}.{j}") != "0":
                problems.append(f"cross-block dependency depends.{i}.{j} reported")
    return problems


# -- decompose-bundle ---------------------------------------------------------

# (n, block sizes, kind, horizon, schedules per block state, inputs): m=2,
# two initial states per block.  "product" bundles are products block by
# block (expected: equal); "diagonal" bundles give the first input two
# initial states that differ in every block, with schedules paired rather
# than crossed (expected: strict-subset).  Schedule and input counts are
# set so that every bundle costs about as much, which keeps the median verb
# away from a gap between shapes.
DECOMPOSE_CYCLE = (
    (6, (3, 3), "product", 120, 6, 4),
    (6, (2, 2, 2), "diagonal", 150, 3, 4),
    (7, (4, 3), "diagonal", 180, 7, 4),
    (7, (3, 2, 2), "product", 120, 3, 2),
    (8, (4, 4), "product", 150, 5, 4),
    (8, (3, 3, 2), "diagonal", 180, 3, 3),
    (7, (4, 3), "product", 150, 6, 4),
)
DECOMPOSE_M = 2
INPUT_EVENTS = 6
BLOCK_SCHEDULE_EVENTS = 10


def _signal_line(rng: random.Random, width: int, horizon: int) -> tuple:
    """A signal whose every event changes the value, so it is canonical."""
    ticks = sorted(rng.sample(range(0, horizon + 1), INPUT_EVENTS))
    current = rng.randrange(1 << width)
    initial, events = current, []
    for t in ticks:
        current = (current + rng.randrange(1, 1 << width)) % (1 << width)
        events.append((t, current))
    return initial, tuple(events)


def _block_schedule(rng: random.Random, width: int, horizon: int) -> dict[int, int]:
    """Nonzero firing vectors on a random grid; every coordinate fires."""
    ticks = sorted(rng.sample(range(1, horizon + 1), BLOCK_SCHEDULE_EVENTS))
    firing = {t: rng.randrange(1, 1 << width) for t in ticks}
    for i in range(width):
        firing[rng.choice(ticks)] |= 1 << i
    return firing


def _scatter(value: int, chain) -> int:
    """Spread the low bits of `value` to the coordinates of `chain`."""
    return sum(1 << (c - 1) for k, c in enumerate(chain) if (value >> k) & 1)


def _merge(chains, parts) -> tuple[tuple[int, int], ...]:
    """Interleave block schedules into one full-width schedule."""
    merged: dict[int, int] = {}
    for chain, part in zip(chains, parts):
        for t, v in part.items():
            merged[t] = merged.get(t, 0) | _scatter(v, chain)
    return tuple(sorted(merged.items()))


def decompose_verb(rng: random.Random, workdir: Path, tag: str, shape) -> Verb:
    n, sizes, kind, horizon, per_state, n_inputs = shape
    m = DECOMPOSE_M
    chains = _plant_blocks(rng, n, sizes)
    exprs = _equations(rng, n, m, chains)

    lines = ["[phi]", f"n={n} m={m}"]
    for lam in range(1 << m):
        for mu in range(1 << n):
            out = sum(_evaluate(exprs[c], mu, lam) << (c - 1) for c in range(1, n + 1))
            lines.append(f"{_bits(mu, n)} {_bits(lam, m)} -> {_bits(out, n)}")

    inputs = []
    while len(inputs) < n_inputs:
        sig = _signal_line(rng, m, horizon)
        if sig not in inputs:
            inputs.append(sig)
    lines.append("[inputs]")
    for k, (initial, events) in enumerate(inputs):
        ev = ";".join(f"({t},{_bits(v, m)})" for t, v in events)
        lines.append(f"u{k} = n={m} init={_bits(initial, m)} H={horizon} events={ev}")

    phi0_lines, pi_lines, schedules = [], [], {}

    def name_of(events) -> str:
        return schedules.setdefault(events, f"r{len(schedules)}")

    admitted = 0
    for k in range(len(inputs)):
        diagonal = kind == "diagonal" and k == 0
        per_block_states = [
            rng.sample(range(1 << len(chain)), 2) for chain in chains
        ]
        if diagonal:
            # Two states differing in every block, with schedules paired
            # index by index rather than crossed.
            states = [tuple(s[0] for s in per_block_states), tuple(s[1] for s in per_block_states)]
            plan = []
            for parts in states:
                rows = [
                    [_block_schedule(rng, len(ch), horizon) for ch in chains]
                    for _ in range(per_state)
                ]
                plan.append((parts, [_merge(chains, row) for row in rows]))
        else:
            block_rhos = {
                (b, s): [_block_schedule(rng, len(ch), horizon) for _ in range(per_state)]
                for b, ch in enumerate(chains)
                for s in per_block_states[b]
            }
            plan = []
            for parts in itertools.product(*per_block_states):
                choices = [block_rhos[(b, s)] for b, s in enumerate(parts)]
                plan.append((parts, [_merge(chains, combo) for combo in itertools.product(*choices)]))
        states_bits = []
        for parts, rhos in plan:
            mu = _bits(sum(_scatter(p, ch) for ch, p in zip(chains, parts)), n)
            states_bits.append(mu)
            pi_lines.append(f"{mu} @ u{k}: " + ", ".join(name_of(r) for r in rhos))
            admitted += len(set(rhos))
        phi0_lines.append(f"u{k}: " + ", ".join(states_bits))

    lines += ["[phi0]"] + phi0_lines + ["[pi]"] + pi_lines
    for events, name in schedules.items():
        ev = ";".join(f"({t},{_bits(v, n)})" for t, v in events)
        lines += [f"[rho {name}]", f"n={n} H={horizon} events={ev}"]

    sys_path = workdir / f"{tag}.sys"
    out_path = workdir / f"{tag}.kv"
    emit = workdir / f"{tag}.emit"
    sys_path.write_text("\n".join(lines) + "\n")
    return Verb(
        argv=["decompose", "--system", sys_path.name, "--emit", emit.name, "--out", out_path.name],
        out_path=out_path,
        work=admitted,
        expect={
            "status": "equal" if kind == "product" else "strict-subset",
            "product_form": kind == "product",
            "factors": len(chains),
            "blocks": _expected_partition(chains),
        },
        table_bits=n + m,
        emit_prefix=emit,
    )


def check_decompose(expect: dict, doc: dict[str, str], emitted: int) -> list[str]:
    problems = []
    blocks = expect["blocks"]
    want = "|".join(",".join(map(str, b)) for b in blocks)
    if doc.get("partition.blocks") != want:
        problems.append(f"partition {doc.get('partition.blocks')!r}, planted {want!r}")
    if doc.get("status") != expect["status"]:
        problems.append(f"status {doc.get('status')!r}, planted {expect['status']!r}")
    if doc.get("factors") != str(expect["factors"]):
        problems.append(f"factors {doc.get('factors')!r}, planted {expect['factors']}")
    if emitted != expect["factors"]:
        problems.append(f"{emitted} factor files emitted, planted {expect['factors']}")
    flag = "1" if expect["product_form"] else "0"
    for step in range(1, expect["factors"]):
        if doc.get(f"step{step}.phi0_product_form") != flag:
            problems.append(f"step{step} product-form flag {doc.get(f'step{step}.phi0_product_form')!r}, planted {flag}")
        if expect["product_form"]:
            if doc.get(f"step{step}.status") != "equal":
                problems.append(f"step{step} status {doc.get(f'step{step}.status')!r} on a product bundle")
            if doc.get(f"step{step}.product_condition") != "1":
                problems.append(f"step{step} product condition fails on a product bundle")
    return problems


# -- verify-suites ------------------------------------------------------------

# (theorem, --cases).  Theorem 30 and example 1 ignore --cases.  The five
# middle shapes take about as long as each other, so the median verb falls
# among them rather than in a gap between theorems.
VERIFY_CYCLE = (
    ("example1", 200),
    ("27", 2500),
    ("26", 600),
    ("32", 1300),
    ("34", 1200),
    ("27", 2500),
    ("30", 200),
)


def verify_case_count(thm: str, cases: int) -> int:
    """The cases `verify` reports for a request: its documented suite sizes."""
    if thm == "30":
        return 1 << 16  # every n=2, m=1 table
    if thm == "34":
        return max(2, cases // 5) + 1  # plus the diagonal example
    if thm == "example1":
        return sum(tau + 9 for tau in (1, 2, 5))  # ticks -3..tau+5 per delay
    return cases


def verify_verb(rng: random.Random, workdir: Path, tag: str, shape) -> Verb:
    thm, cases = shape
    seed = rng.randrange(1 << 30)
    out_path = workdir / f"{tag}.kv"
    expected = verify_case_count(thm, cases)
    return Verb(
        argv=["verify", "--thm", thm, "--seed", str(seed), "--cases", str(cases), "--out", out_path.name],
        out_path=out_path,
        work=expected,
        expect={"thm": thm, "cases": expected},
    )


def check_verify(expect: dict, doc: dict[str, str]) -> list[str]:
    thm = expect["thm"]
    problems = []
    if doc.get(f"thm{thm}.verdict") != "PASS" or doc.get("overall") != "PASS":
        problems.append(f"thm{thm} verdict {doc.get(f'thm{thm}.verdict')!r}, expected PASS")
    if doc.get(f"thm{thm}.cases") != str(expect["cases"]):
        problems.append(f"thm{thm} ran {doc.get(f'thm{thm}.cases')!r} cases, requested {expect['cases']}")
    if doc.get(f"thm{thm}.failures") != "0":
        problems.append(f"thm{thm} reports {doc.get(f'thm{thm}.failures')!r} failures")
    return problems


# -- registry -----------------------------------------------------------------

WORKLOADS = {
    "analyze-eq": (ANALYZE_CYCLE, analyze_verb),
    "decompose-bundle": (DECOMPOSE_CYCLE, decompose_verb),
    "verify-suites": (VERIFY_CYCLE, verify_verb),
}


def make_cycle(workload: str, seed: int, cycle: int, workdir: Path) -> list[Verb]:
    """Write the inputs of one cycle and describe its verbs."""
    shapes, make = WORKLOADS[workload]
    verbs = []
    for index, shape in enumerate(shapes):
        rng = random.Random(f"{workload}:{seed}:{cycle}:{index}")
        verbs.append(make(rng, workdir, f"c{cycle}v{index}", shape))
    return verbs


def parse_doc(text: str) -> dict[str, str]:
    doc = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            doc[key] = value
    return doc


def emitted_files(verb: Verb) -> list[Path]:
    if verb.emit_prefix is None:
        return []
    return sorted(verb.emit_prefix.parent.glob(verb.emit_prefix.name + ".factor*.sys"))


def check_verb(verb: Verb, exit_code: int, stderr: str, out_text: str) -> list[str]:
    """Every way the verb's results differ from the planted truth."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    doc = parse_doc(out_text)
    if verb.argv[0] == "analyze":
        problems += check_analyze(verb.expect, doc)
    elif verb.argv[0] == "decompose":
        problems += check_decompose(verb.expect, doc, len(emitted_files(verb)))
    else:
        problems += check_verify(verb.expect, doc)
    return problems
