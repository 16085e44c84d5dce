"""Randomized and exhaustive checks of the library's structural claims.

Each suite runs a check independent of the code path it validates and returns
a report: one summary line, and witnesses for the first failures.  A randomized
suite is a generator over its cases, framed by `_seeded`, which seeds its
`random.Random` and tallies its outcomes.  `verify` and the acceptance tests run these.
Every draw follows CPython's rule for `randrange` or `sample` through `getrandbits`,
so a seed draws the same cases.  Drawn tables, signals and schedules are in range by
construction and built unchecked (`_derived`); drawn bundles are checked.  Each of
Theorem 30's three separation routes is a per-shape plan and one kernel `(rows, plan,
ones) -> int`, the bits it saw differ, over row ints holding a table in each lane `ones`
marks: a public route runs it on a row tuple with `ones = 1`; Theorem 26 runs two of
them once per case shape over its tables, and `theorem30_exhaustive` all three once
over all 65,536, a byte lane each.
"""

from __future__ import annotations

import random
import sys
from functools import reduce, wraps
from itertools import islice, repeat
from math import ceil, log
from operator import or_, xor

from ..boolfn import (
    GeneratorFn,
    _parallel_rows,
    _split_blocks,
    dependency_matrix,
    lane_mask,
    parallel_fn,
    project_fn,
    split_fn,
)
from ..errors import NotSeparatedError
from ..semantics import delay_bounds, run
from ..signals import (
    BitVec,
    ProgressiveFunction,
    Signal,
    _Value,
    _images,
    _relabeler,
    product_rho,
    product_signal,
    round_robin,
    unit_step,
)
from ..systems import RegularSystem, decompose_system, parallel_system


class CheckReport(_Value):
    """A suite's `name`, its `cases`, its `failures` and the first failures' `details`."""

    __slots__ = _fields = ("name", "cases", "failures", "details")

    @property
    def ok(self) -> bool:
        """No failures among at least one case: an empty suite proves nothing."""
        return self.cases > 0 and self.failures == 0

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return f"{self.name}: {self.cases - self.failures}/{self.cases} ok -> {verdict}"


def _tally(name: str, outcomes) -> CheckReport:
    """The report over one outcome per case: None for a pass, else the
    failure's detail text; the first three details are kept."""
    cases = failures = 0
    details = []
    for outcome in outcomes:
        cases += 1
        if outcome is not None:
            failures += 1
            if len(details) < 3:
                details.append(outcome)
    return CheckReport(name, cases, failures, tuple(details))


def _seeded(name: str):
    """Turn a generator `fn(rng, *args)`, one outcome per case, into the suite
    `fn(seed, *args)`, reporting as `name` the cases drawn from `random.Random(seed)`."""
    def frame(cases_of):
        @wraps(cases_of)
        def suite(seed: int, *args, **named) -> CheckReport:
            return _tally(name, cases_of(random.Random(seed), *args, **named))
        return suite
    return frame


# -- random instance generators ------------------------------------------


def _below(draw, bound: int) -> int:
    """`randrange(bound)` by CPython's rule, `draw` being `rng.getrandbits`: k bits until below `bound`."""
    if bound < 1:
        raise ValueError(f"empty range for a draw below {bound}")
    k = bound.bit_length()
    while (r := draw(k)) >= bound:
        pass
    return r


def _sample(rng: random.Random, population: range, k: int) -> list[int]:
    """`rng.sample(population, k)` through `getrandbits`, by CPython's rule: pool and set branch alike."""
    draw, n = rng.getrandbits, len(population)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    if n <= 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0):
        pool = list(population)
        for top in range(n - 1, n - 1 - k, -1):  # pool[:top + 1] is unpicked, the picks lie past it
            j = _below(draw, top + 1)
            pool[j], pool[top] = pool[top], pool[j]
        return pool[n - k:][::-1]
    seen = {}
    while len(seen) < k:  # a pick already made is drawn again, as `sample` redraws it
        seen[_below(draw, n)] = None
    return [population[j] for j in seen]


def rand_fn(rng: random.Random, n: int, m: int) -> GeneratorFn:
    rows = filter((1 << n).__gt__, map(rng.getrandbits, repeat(n + 1)))  # `_below`'s rule, row after row
    return GeneratorFn._derived(n, m, tuple(islice(rows, 1 << (n + m))))


def rand_signal(rng: random.Random, width: int, horizon: int, max_events: int = 8) -> Signal:
    draw, events = rng.getrandbits, []
    count = _below(draw, max_events + 1)
    for t in sorted(_sample(rng, range(-2, horizon + 1), min(count, horizon + 3))):
        while (value := draw(width + 1)) >> width:  # `_below(draw, 1 << width)`, inline
            pass
        events.append((t, value))
    held = initial = _below(draw, 1 << width)
    canon = tuple([(t, held := v) for t, v in events if v != held])  # the events that move the value
    return Signal._derived(width, initial, tuple(events), horizon, canon)


def rand_rho(rng: random.Random, width: int, horizon: int) -> ProgressiveFunction:
    """A prefix-progressive schedule on a random grid of at most six ticks: one
    forced firing per coordinate, then extra firings sprinkled at random."""
    draw = rng.getrandbits
    count = (least := max(1, width // 2)) + _below(draw, 7 - least)
    ticks = sorted(_sample(rng, range(1, horizon + 1), min(count, horizon)))
    firing = dict.fromkeys(ticks, 0)
    for i in range(width):
        firing[ticks[_below(draw, len(ticks))]] |= 1 << i
    for t in ticks:
        while (a := draw(width + 1)) >> width:  # two `_below(draw, 1 << width)`, inline
            pass
        while (b := draw(width + 1)) >> width:
            pass
        firing[t] |= a & b
    events = tuple(firing.items())  # the nonzero firings are the canonical form
    return ProgressiveFunction._derived(width, None, events, horizon, tuple([e for e in events if e[1]]))


def rand_rho_distinct(
    rng: random.Random, width: int, horizon: int, other: ProgressiveFunction
) -> ProgressiveFunction:
    """Like rand_rho, but guaranteed not to share `other`'s tick grid."""
    while True:
        rho = rand_rho(rng, width, horizon)
        if [t for t, _ in rho.events] != [t for t, _ in other.events]:
            return rho


def rand_system(rng: random.Random, phi: GeneratorFn, horizon: int, n_inputs: int) -> RegularSystem:
    inputs = []
    while len(inputs) < n_inputs:
        u = rand_signal(rng, phi.m, horizon, max_events=4)
        if u not in inputs:
            inputs.append(u)
    phi0 = {}
    pi = {}
    for u in inputs:
        states = _sample(rng, range(1 << phi.n), 1 + _below(rng.getrandbits, min(3, 1 << phi.n)))
        phi0[u] = frozenset(BitVec(phi.n, s) for s in states)
        for mu in phi0[u]:
            pi[(mu, u)] = frozenset(
                rand_rho(rng, phi.n, horizon) for _ in range(1 + _below(rng.getrandbits, 2))
            )
    return RegularSystem(phi, tuple(inputs), phi0, pi)


# -- theorem 26: cross-block independence of parallel composition ---------


def _flip_cases(n: int, m: int, block):
    """The flip route's plan, per shape and never per table: per state, its
    row and its one-bit flips' rows across the block, each with the other
    side's mask; per input, its row offset lam << n.  2^n entries, never 2^(n+m)."""
    bs, cs = _split_blocks(n, block)
    mask_b, mask_c = (sum(1 << (i - 1) for i in side) for side in (bs, cs))
    flips = [(1 << (j - 1), mask_b) for j in cs] + [(1 << (j - 1), mask_c) for j in bs]
    cases = tuple((mu, tuple((mu ^ bit, mask) for bit, mask in flips)) for mu in range(1 << n))
    return cases, tuple(lam << n for lam in range(1 << m))


def _flip_diffs(rows, plan, ones: int) -> int:
    """The flip route's kernel: the bits where a flip in the plan changes a row's other side."""
    cases, offsets = plan
    seen = 0
    for mu, flips in cases:
        for offset in offsets:
            out = rows[mu + offset]
            for flipped, mask in flips:
                seen |= (out ^ rows[flipped + offset]) & mask * ones
    return seen


def flip_invariant(phi: GeneratorFn, block) -> bool:
    """Direct pointwise check: flipping a state bit on the other side of the
    block never changes a coordinate's value.  It reads `phi.table` one point
    at a time, at rows computed as `GeneratorFn.eval` computes them, so it
    is a route independent of the derivative tables and of relabeling."""
    return not _flip_diffs(phi.table, _flip_cases(phi.n, phi.m, block), 1)


def _cross_pairs(blocks) -> tuple[tuple[int, int], ...]:
    """The derivative route's plan: (ibit, jbit) for each coordinate i and state bit j in different blocks."""
    return tuple((1 << (i - 1), 1 << (j - 1)) for a, own in enumerate(blocks)
                 for b, other in enumerate(blocks) if a != b for i in own for j in other)


def _derivative_diffs(rows, pairs, ones: int) -> int:
    """The derivative route's kernel: the bits where a pair's partial derivative is 1 on some row."""
    seen = 0
    for ibit, jbit in pairs:
        lane = ibit * ones
        for r, out in enumerate(rows):
            seen |= (out ^ rows[r ^ jbit]) & lane
    return seen


def derivative_separated(phi: GeneratorFn, block) -> bool:
    """Derivative route: every cross-block partial derivative is identically zero."""
    return not _derivative_diffs(phi.table, _cross_pairs(_split_blocks(phi.n, block)), 1)


def _recompose_plan(n: int, block):
    """The recompose route's plan: 2^n, then per side (block, complement, both laid end to end) its
    width, each state's row offset, the rest zero-fixed (`_relabeler`'s spreads), and (k, shift)s."""
    bs, cs = _split_blocks(n, block)
    return 1 << n, *((len(side), _images(_relabeler(n, side)[3]), tuple(enumerate(c - 1 for c in side)))
                     for side in (bs, cs, bs + cs))


def _recompose_diffs(rows, plan, ones: int) -> int:
    """The recompose route's kernel: the bits where the zero-fixed sides' rows, gathered by shift
    and `& ones` and composed in parallel, differ from the rows read through both sides in turn."""
    step, *sides = plan
    (nb, b), (nc, c), (_, whole) = (
        (width, [sum((rows[base | r] >> shift & ones) << k for k, shift in shifts)
                 for base in range(0, len(rows), step) for r in spread])
        for width, spread, shifts in sides)
    return reduce(or_, map(xor, _parallel_rows(nb, b, nc, c), whole), 0)


def recompose_verdict(phi: GeneratorFn, block) -> bool:
    """Recomposition route: zero-fix extraction of both factors succeeds
    exactly when their parallel composition reproduces the table.  Unguarded
    (no separation precheck), so the verdict is the equality itself.  It
    compares the kernel's rows and builds no `GeneratorFn`."""
    return not _recompose_diffs(phi.table, _recompose_plan(phi.n, block), 1)


@_seeded("thm26 cross-block independence")
def theorem26_suite(rng: random.Random, cases: int):
    for first in range(0, cases, 1 << 12):  # a batch at a time, so the tables held stay bounded
        batch, shapes, failures = range(first, min(cases, first + (1 << 12))), {}, {}
        for case in batch:
            na, nb = 1 + _below(rng.getrandbits, 3), 1 + _below(rng.getrandbits, 3)
            m = 1 + _below(rng.getrandbits, 2)
            shapes.setdefault((na, nb, m), []).append((case, parallel_fn(rand_fn(rng, na, m), rand_fn(rng, nb, m)).table))
        for (na, nb, m), drawn in shapes.items():  # each shape's tables at once, a byte lane each
            rows = [int.from_bytes(bytes(lanes), sys.byteorder) for lanes in zip(*(table for _, table in drawn))]
            ones, block = int.from_bytes(b"\1" * len(drawn), sys.byteorder), range(1, na + 1)
            seen = (_flip_diffs(rows, _flip_cases(na + nb, m, block), ones)
                    | _derivative_diffs(rows, _cross_pairs(_split_blocks(na + nb, block)), ones))
            for (case, table), failed in zip(drawn, seen.to_bytes(len(drawn), sys.byteorder)):
                if failed:
                    failures[case] = f"case {case}: n'={na} n''={nb} m={m} table={table}"
        yield from map(failures.get, batch)


# -- theorem 27: runs of a parallel composition factor exactly ------------


@_seeded("thm27 parallel run factorization")
def theorem27_suite(rng: random.Random, cases: int):
    horizon = 50
    for case in range(cases):
        na, nb = 1 + _below(rng.getrandbits, 3), 1 + _below(rng.getrandbits, 3)
        m = 1 + _below(rng.getrandbits, 2)
        fa, fb = rand_fn(rng, na, m), rand_fn(rng, nb, m)
        u = rand_signal(rng, m, horizon)
        ra = rand_rho(rng, na, horizon)
        rb = rand_rho_distinct(rng, nb, horizon, ra)
        ma = BitVec(na, _below(rng.getrandbits, 1 << na))
        mb = BitVec(nb, _below(rng.getrandbits, 1 << nb))
        joint = run(parallel_fn(fa, fb), ma.concat(mb), u, product_rho(ra, rb), horizon)
        left, right = run(fa, ma, u, ra, horizon), run(fb, mb, u, rb, horizon)
        ok = joint == product_signal(left, right)
        yield None if ok else f"case {case}: mu=({ma},{mb}) rho'={ra} rho''={rb} u={u}"


# -- theorem 30: three equivalent separation tests, exhaustively ----------


def theorem30_exhaustive() -> tuple[CheckReport, tuple[GeneratorFn, ...]]:
    """Compare the three separation routes on every n=2, m=1 table at block {1}.

    Bit-sliced (Biham, FSE 1997): lane t, 8 bits wide, of the eight row ints
    holds table t, row r being base-4 digit r of t, so each route's kernel
    runs once over all 65,536 tables.  Each kernel's word folds to one flag
    per lane; the failures are the popcount of the lanes where the routes
    disagree, and the witnesses and the separable tables are read off the
    flagged lanes in packed order.  Returns the report and, as `GeneratorFn`s,
    the tables all three routes accepted.
    """
    block, count = (1,), 1 << 16
    rows = [lane_mask("B", count, 2 * r, 0, 1) | lane_mask("B", count, 2 * r + 1, 0, 2) for r in range(8)]
    ones = lane_mask("B", count, 0, 1, 1)
    flip, deriv, split = words = [(seen | seen >> 1) & ones for seen in (
        _flip_diffs(rows, _flip_cases(2, 1, block), ones),
        _derivative_diffs(rows, _cross_pairs(_split_blocks(2, block)), ones),
        _recompose_diffs(rows, _recompose_plan(2, block), ones))]
    disagree = (flip ^ deriv) | (deriv ^ split)

    def tables(word):
        """(t, table t's rows) for each lane `word` flags, in packed order, found a set byte at a time."""
        flagged, t = word.to_bytes(count, sys.byteorder), -1
        while (t := flagged.find(1, t + 1)) >= 0:
            yield t, tuple(t >> 2 * r & 3 for r in range(8))

    details = tuple("table {}: flip={} derivative={} split={}".format(  # a route's flag bytes only where lanes disagree
        table, *(not w.to_bytes(count, sys.byteorder)[t] for w in words)) for t, table in islice(tables(disagree), 3))
    report = CheckReport("thm30 route agreement over all n=2 m=1 tables", count, disagree.bit_count(), details)
    return report, tuple(GeneratorFn._derived(2, 1, table) for _, table in tables(ones & ~(flip | deriv | split)))


# -- theorem 32: split and recompose constructed-separable functions ------


@_seeded("thm32 split recomposition")
def theorem32_suite(rng: random.Random, cases: int):
    for case in range(cases):
        na, nb = 1 + _below(rng.getrandbits, 3), 1 + _below(rng.getrandbits, 3)
        m = 1 + _below(rng.getrandbits, 2)
        phi = parallel_fn(rand_fn(rng, na, m), rand_fn(rng, nb, m))
        n = na + nb
        shuffle = list(range(1, n + 1))
        rng.shuffle(shuffle)
        # coordinate i of phi moves to position shuffle[i-1]
        permuted = project_fn(phi, sorted(range(1, n + 1), key=lambda k: shuffle[k - 1]))
        block = sorted(shuffle[i - 1] for i in range(1, na + 1))
        try:  # split_fn's dependency scan is the case's only separation test
            first, second, partition = split_fn(permuted, block)
        except NotSeparatedError:
            ok = False
        else:
            relabeled = project_fn(permuted, sum(partition.blocks, ()))
            ok = parallel_fn(first, second).table == relabeled.table
        yield None if ok else f"case {case}: n'={na} n''={nb} m={m} block={block}"


# -- theorem 34: decomposition of systems ---------------------------------


def _product_form_system(
    rng: random.Random, fa: GeneratorFn, fb: GeneratorFn, horizon: int
) -> RegularSystem:
    """The parallel connection of two one-input bundles over fa and fb, drawn in
    the order the seeded suites rely on: input, both state sets, schedules."""
    u = rand_signal(rng, fa.m, horizon, max_events=4)
    picks = [_sample(rng, range(1 << f.n), 1 + _below(rng.getrandbits, min(2, 1 << f.n))) for f in (fa, fb)]
    factors = []
    for f, values in zip((fa, fb), picks):
        states = [BitVec(f.n, v) for v in values]
        pi = {(mu, u): [rand_rho(rng, f.n, horizon) for _ in range(1 + _below(rng.getrandbits, 2))]
              for mu in states}
        factors.append(RegularSystem(f, (u,), {u: states}, pi))
    return parallel_system(*factors)


def diagonal_example() -> RegularSystem:
    """Identity dynamics with the diagonal initial set {00, 11}, horizon 10:
    the textbook strict-subset case, whose parallel hull adds 01 and 10."""
    phi = GeneratorFn.identity(2, 1)
    u = unit_step(0, 10)
    d00, d11 = BitVec.from_string("00"), BitVec.from_string("11")
    rho = round_robin(2, (1, 2), 10)
    phi0 = {u: frozenset((d00, d11))}
    pi = {(d00, u): frozenset((rho,)), (d11, u): frozenset((rho,))}
    return RegularSystem(phi, (u,), phi0, pi)


@_seeded("thm34 decomposition verdicts")
def theorem34_suite(rng: random.Random, cases: int):
    horizon = 20
    subset_cases = cases // 2
    for case in range(subset_cases):
        na, nb = 1 + _below(rng.getrandbits, 2), 1 + _below(rng.getrandbits, 2)
        m = 1 + _below(rng.getrandbits, 2)
        phi = parallel_fn(rand_fn(rng, na, m), rand_fn(rng, nb, m))
        sys = rand_system(rng, phi, horizon, n_inputs=1 + _below(rng.getrandbits, 2))
        try:
            decompose_system(sys, range(1, na + 1), horizon)
        except Exception as exc:  # the subset direction must never fail
            yield f"subset case {case}: {exc}"
        else:
            yield None
    for case in range(cases - subset_cases):
        na, nb = 1 + _below(rng.getrandbits, 2), 1 + _below(rng.getrandbits, 2)
        m = 1 + _below(rng.getrandbits, 2)
        sys = _product_form_system(rng, rand_fn(rng, na, m), rand_fn(rng, nb, m), horizon)
        result = decompose_system(sys, range(1, na + 1), horizon)
        ok = result.phi0_product_form and result.product_witness is None
        ok = ok and result.status == "equal"
        yield None if ok else f"product-form case {case}: status={result.status}"
    diag = decompose_system(diagonal_example(), (1,), 10)
    ok = diag.status == "strict-subset" and any(own < hull for _, own, hull in diag.hull_sizes)
    sizes = "; ".join(f"input {u}: own {own}, hull {hull}" for u, own, hull in diag.hull_sizes)
    yield None if ok else f"diagonal example: status={diag.status}; {sizes}"


# -- example 1: the delay envelope ----------------------------------------


def example1_suite(taus=(1, 2, 5)) -> CheckReport:
    def outcomes():
        for tau in taus:
            horizon = tau + 5
            u = unit_step(0, horizon)
            for t in range(-3, tau + 6):
                low, high = delay_bounds(u, tau, t)
                want = (1 if t >= tau else 0, 1 if t > 0 else 0)
                ok = (low, high) == want
                yield None if ok else f"tau={tau} t={t}: got ({low},{high}), want {want}"

    return _tally("example1 delay envelope", outcomes())


# -- lemma 1: schedule products stay progressive --------------------------


@_seeded("lemma1 product progressiveness")
def lemma1_suite(rng: random.Random, cases: int):
    horizon = 30
    for case in range(cases):
        na, nb = 1 + _below(rng.getrandbits, 3), 1 + _below(rng.getrandbits, 3)
        ra = rand_rho(rng, na, horizon)
        rb = rand_rho_distinct(rng, nb, horizon, ra)
        ok = product_rho(ra, rb).is_prefix_progressive()
        yield None if ok else f"case {case}: rho'={ra} rho''={rb}"


# -- finest partition against a brute-force oracle ------------------------


def _all_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _all_partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + [[first] + sub[k]] + sub[k + 1 :]
        yield [[first]] + sub


def _refines(fine, coarse) -> bool:
    return all(any(set(b) <= set(c) for c in coarse) for b in fine)


def partition_oracle_verdict(phi: GeneratorFn, partitions) -> bool:
    """Brute force over `partitions`, each partition of 1..n with its `_cross_pairs`
    (built once per n): the finest must be all-separated and refine every all-separated one."""
    def separated(pairs) -> bool:  # stops at the first cross pair whose derivative is not zero
        return not any(_derivative_diffs(phi.table, (pair,), 1) for pair in pairs)
    fp = [list(b) for b in dependency_matrix(phi).components().blocks]
    return separated(_cross_pairs(fp)) and all(_refines(fp, c) for c, pairs in partitions if separated(pairs))


@_seeded("finest partition vs brute force")
def partition_oracle_suite(rng: random.Random, samples: int):
    partitions = [(c, _cross_pairs(c)) for c in _all_partitions((1, 2, 3))]  # every table has n = 3
    for case in range(samples):
        phi = rand_fn(rng, 3, 1)
        ok = partition_oracle_verdict(phi, partitions)
        yield None if ok else f"random case {case}: table={phi.table}"
    constructed = []
    for _ in range(60):
        m = _below(rng.getrandbits, 2)
        constructed.append(parallel_fn(rand_fn(rng, 1, m), rand_fn(rng, 2, m)))
        constructed.append(parallel_fn(rand_fn(rng, 2, m), rand_fn(rng, 1, m)))
        constructed.append(
            parallel_fn(parallel_fn(rand_fn(rng, 1, m), rand_fn(rng, 1, m)), rand_fn(rng, 1, m))
        )
    for k, phi in enumerate(constructed):
        ok = partition_oracle_verdict(phi, partitions)
        yield None if ok else f"block-diagonal case {k}: table={phi.table}"


# -- synchronous reduction -------------------------------------------------


@_seeded("synchronous reduction")
def synchronous_suite(rng: random.Random, cases: int):
    horizon = 30
    for case in range(cases):
        n, m = 1 + _below(rng.getrandbits, 3), 1 + _below(rng.getrandbits, 2)
        phi = rand_fn(rng, n, m)
        mu = BitVec(n, _below(rng.getrandbits, 1 << n))
        u = rand_signal(rng, m, horizon)
        ticks = sorted(_sample(rng, range(1, horizon + 1), 1 + _below(rng.getrandbits, 6)))
        x = run(phi, mu, u, round_robin(n, ticks, horizon), horizon)
        state, ok = mu, x.initial == mu.value
        for t in ticks:
            state = phi.eval(state, BitVec(m, u.value_at(t)))
            ok = ok and x.value_at(t) == state.value
        yield None if ok else f"case {case}: phi={phi.table} mu={mu} ticks={ticks}"

