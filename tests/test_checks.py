"""Verification suites: report verdicts."""

import random
import tracemalloc

import pytest

import asyncdec.boolfn
import asyncdec.signals
from asyncdec import (
    BitVec,
    CoordinateError,
    GeneratorFn,
    ProgressiveFunction,
    RegularSystem,
    Signal,
    parallel_fn,
    parallel_system,
    partial_derivative,
    project_fn,
)
from asyncdec.boolfn import _split_blocks
from asyncdec.frontend import checks
from asyncdec.systems import DecompositionResult
from asyncdec.frontend.checks import (
    _product_form_system,
    derivative_separated,
    flip_invariant,
    CheckReport,
    lemma1_suite,
    partition_oracle_suite,
    rand_fn,
    rand_rho,
    rand_signal,
    rand_system,
    recompose_verdict,
    synchronous_suite,
    theorem26_suite,
    theorem27_suite,
    theorem30_exhaustive,
    theorem32_suite,
    theorem34_suite,
)


# every 257th n=2 m=1 table in packed order, row 0 lowest: 256 tables, both verdicts at block {1}
SAMPLE = [
    GeneratorFn(2, 1, tuple((packed >> (2 * r)) & 3 for r in range(8)))
    for packed in range(0, 1 << 16, 257)
]


@pytest.mark.parametrize(
    "suite", [theorem26_suite, theorem27_suite, theorem32_suite, lemma1_suite, synchronous_suite]
)
def test_a_suite_with_zero_cases_fails(suite):
    report = suite(1, 0)
    assert report.cases == 0
    assert not report.ok
    assert report.summary().endswith("0/0 ok -> FAIL")
    assert suite(1, 1).ok


# the next draw of each suite's generator after seed 7 and five cases, pinned
# before the suites shared their frame: the suites draw in the same order
DRAW_PINS = {
    "theorem26_suite": ({"cases": 5}, 0.3118523142180194),
    "theorem27_suite": ({"cases": 5}, 0.27691707046478153),
    "theorem32_suite": ({"cases": 5}, 0.9554680239214713),
    "theorem34_suite": ({"cases": 5}, 0.0844827114461606),
    "lemma1_suite": ({"cases": 5}, 0.06224782161868758),
    "partition_oracle_suite": ({"samples": 5}, 0.11416816825694609),
    "synchronous_suite": ({"cases": 5}, 0.12284223076219491),
}


@pytest.mark.parametrize("name", DRAW_PINS)
def test_a_seeded_suite_makes_the_draws_it_always_made(monkeypatch, name):
    class Recording(random.Random):
        made = []

        def __init__(self, seed):
            super().__init__(seed)
            self.made.append(self)

    monkeypatch.setattr(checks.random, "Random", Recording)
    named, draw = DRAW_PINS[name]
    suite = getattr(checks, name)
    assert suite(seed=7, **named).ok
    assert [rng.random() for rng in Recording.made] == [draw]
    assert (suite.__name__, suite.__module__) == (name, checks.__name__)


def test_a_draw_below_a_bound_is_randranges_draw():
    """`_below(rng.getrandbits, b)` gives what `rng.randrange(b)` gives, draw
    for draw, and leaves the generator in the same state: a Python whose
    `randrange` followed another rule would fail here, naming the bound."""
    for bound in [*range(1, 131), *(1 << k for k in (*range(21), 33, 64))]:
        ours, theirs = random.Random(bound), random.Random(bound)
        drawn = [checks._below(ours.getrandbits, bound) for _ in range(40)]
        assert drawn == [theirs.randrange(bound) for _ in range(40)], f"bound {bound}"
        assert ours.getstate() == theirs.getstate(), f"bound {bound}"
    for bound in (0, -1, -8):  # an empty range is refused, as randrange refuses it, never drawn forever
        with pytest.raises(ValueError):
            checks._below(random.Random(0).getrandbits, bound)
    with pytest.raises(ValueError):
        rand_rho(random.Random(0), 14, 10)  # at least seven forced ticks of at most six


# the generators as they drew through randrange, randint and choice: the reference
# every seed's cases are held to
def _reference_fn(rng, n, m):
    return GeneratorFn(n, m, tuple(rng.randrange(1 << n) for _ in range(1 << (n + m))))


def _reference_signal(rng, width, horizon, max_events=8):
    count = rng.randint(0, max_events)
    ticks = sorted(rng.sample(range(-2, horizon + 1), min(count, horizon + 3)))
    events = tuple((t, rng.randrange(1 << width)) for t in ticks)
    return Signal(width, rng.randrange(1 << width), events, horizon)


def _reference_rho(rng, width, horizon):
    count = rng.randint(max(1, width // 2), 6)
    ticks = sorted(rng.sample(range(1, horizon + 1), min(count, horizon)))
    firing = {t: 0 for t in ticks}
    for i in range(width):
        firing[rng.choice(ticks)] |= 1 << i
    for t in ticks:
        firing[t] |= rng.randrange(1 << width) & rng.randrange(1 << width)
    return ProgressiveFunction(width, tuple(sorted(firing.items())), horizon)


def _reference_system(rng, phi, horizon, n_inputs):
    inputs = []
    while len(inputs) < n_inputs:
        u = _reference_signal(rng, phi.m, horizon, max_events=4)
        if u not in inputs:
            inputs.append(u)
    phi0 = {}
    pi = {}
    for u in inputs:
        states = rng.sample(range(1 << phi.n), rng.randint(1, min(3, 1 << phi.n)))
        phi0[u] = frozenset(BitVec(phi.n, s) for s in states)
        for mu in phi0[u]:
            pi[(mu, u)] = frozenset(_reference_rho(rng, phi.n, horizon) for _ in range(rng.randint(1, 2)))
    return RegularSystem(phi, tuple(inputs), phi0, pi)


def _reference_product_form_system(rng, fa, fb, horizon):
    u = _reference_signal(rng, fa.m, horizon, max_events=4)
    picks = [rng.sample(range(1 << f.n), rng.randint(1, min(2, 1 << f.n))) for f in (fa, fb)]
    factors = []
    for f, values in zip((fa, fb), picks):
        states = [BitVec(f.n, v) for v in values]
        pi = {(mu, u): [_reference_rho(rng, f.n, horizon) for _ in range(rng.randint(1, 2))] for mu in states}
        factors.append(RegularSystem(f, (u,), {u: states}, pi))
    return parallel_system(*factors)


def _exactly(value):
    """A value with its raw fields: the events as drawn, not only their canonical form."""
    if isinstance(value, RegularSystem):
        schedules = sorted(repr(rho) for rhos in value.pi.values() for rho in rhos)
        return value, [repr(u) for u in value.inputs], schedules
    return repr(value)


@pytest.mark.parametrize("horizon", [50, 20, 3])
def test_each_generator_draws_what_its_reference_drew(horizon):
    """Over many seeds and shapes, each generator returns what its reference
    returns from an equally seeded generator, and leaves it in the same state."""
    for seed in range(120):
        n, m = 1 + seed % 4, 1 + seed // 4 % 2
        fa, fb = (_reference_fn(random.Random(-seed), k, m) for k in (n, 1 + seed // 8 % 3))
        pairs = [
            (lambda rng: rand_fn(rng, n, m - seed // 8 % 2), lambda rng: _reference_fn(rng, n, m - seed // 8 % 2)),
            (lambda rng: rand_signal(rng, m, horizon), lambda rng: _reference_signal(rng, m, horizon)),
            (lambda rng: rand_signal(rng, n, horizon, 4), lambda rng: _reference_signal(rng, n, horizon, 4)),
            (lambda rng: rand_rho(rng, n, horizon), lambda rng: _reference_rho(rng, n, horizon)),
            (lambda rng: rand_system(rng, fa, horizon, 1 + seed % 2),
             lambda rng: _reference_system(rng, fa, horizon, 1 + seed % 2)),
            (lambda rng: _product_form_system(rng, fa, fb, horizon),
             lambda rng: _reference_product_form_system(rng, fa, fb, horizon)),
        ]
        for k, (generator, reference) in enumerate(pairs):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert _exactly(generator(ours)) == _exactly(reference(theirs)), (seed, k)
            assert ours.getstate() == theirs.getstate(), (seed, k)


def test_a_sample_of_a_range_is_samples_sample():
    """`_sample(rng, range(a, b), k)` gives what `rng.sample(range(a, b), k)`
    gives, order included, and leaves the generator in the same state, for
    every k from 0 to n: populations up to 21 take CPython's pool branch at
    every k, and for k > 5 a population up to 21 + 4^ceil(log4(3k)) does too,
    so the n here fall on both sides of that threshold."""
    for n in (*range(0, 23), 30, 52, 53, 64, 85, 86, 100, 150, 214, 215):
        for k in range(n + 1):
            ours, theirs = random.Random(n * 1000 + k), random.Random(n * 1000 + k)
            for start in (-2, 0, 1):
                population = range(start, start + n)
                drawn = [checks._sample(ours, population, k) for _ in range(3)]
                assert drawn == [theirs.sample(population, k) for _ in range(3)], (n, k, start)
            assert ours.getstate() == theirs.getstate(), (n, k)
    for n, k in ((0, 1), (5, 6), (5, -1), (53, 54), (53, -2)):
        rng = random.Random(n)
        state = rng.getstate()
        with pytest.raises(ValueError):
            checks._sample(rng, range(n), k)
        with pytest.raises(ValueError):
            random.Random(n).sample(range(n), k)
        assert rng.getstate() == state, (n, k)


def test_seeded_suites_take_their_arguments_by_keyword():
    for report in (theorem27_suite(seed=1, cases=3), partition_oracle_suite(seed=1, samples=3)):
        assert isinstance(report, CheckReport) and report.ok


def test_theorem30_routes_share_no_dependency_scan(monkeypatch):
    """The three separation routes stay independent of the dependency scan:
    with `dependency_matrix` and the lane derivatives disabled, all three
    still run and agree on a fixed sample of the n=2 m=1 tables."""

    def disabled(*args, **kwargs):
        raise AssertionError("a theorem-30 route reached the dependency scan")

    monkeypatch.setattr(asyncdec.boolfn, "dependency_matrix", disabled)
    monkeypatch.setattr(asyncdec.boolfn, "_lane_derivatives", disabled)
    verdicts = set()
    for phi in SAMPLE:
        routes = {
            flip_invariant(phi, (1,)),
            derivative_separated(phi, (1,)),
            recompose_verdict(phi, (1,)),
        }
        assert len(routes) == 1, phi.table
        verdicts |= routes
    assert verdicts == {True, False}


def _disable_row_kernels(monkeypatch):
    """`_parallel_rows` and `_relabeler`, whose spreads give the recompose
    route its row offsets and `project_fn` its row map, raise wherever they
    are bound."""

    def disabled(*args, **kwargs):
        raise AssertionError("a flip or derivative route reached a row kernel")

    for module in (asyncdec.boolfn, checks):
        monkeypatch.setattr(module, "_parallel_rows", disabled)
    for module in (asyncdec.signals, asyncdec.boolfn, checks):
        monkeypatch.setattr(module, "_relabeler", disabled)


def test_flip_and_derivative_routes_share_no_relabeling(monkeypatch):
    """The flip and derivative routes never relabel: with the relabeler,
    `project_fn` and the row kernels disabled, both still agree with the
    recompose verdict on the sample."""

    def disabled(*args, **kwargs):
        raise AssertionError("a theorem-30 route reached project_fn")

    expected = [recompose_verdict(phi, (1,)) for phi in SAMPLE]
    monkeypatch.setattr(asyncdec.boolfn, "project_fn", disabled)
    monkeypatch.setattr(checks, "project_fn", disabled)
    _disable_row_kernels(monkeypatch)
    for phi, verdict in zip(SAMPLE, expected):
        assert flip_invariant(phi, (1,)) == derivative_separated(phi, (1,)) == verdict, phi.table
    assert set(expected) == {True, False}


def test_flip_and_derivative_routes_never_reach_the_relabeler_memo(monkeypatch):
    """Neither route touches the relabeler's memo, and with the row kernels
    disabled both still give the recompose verdict on the sample."""
    expected = [recompose_verdict(phi, (1,)) for phi in SAMPLE]
    memos = (asyncdec.signals._relabeler,)
    for memo in memos:
        memo.cache_clear()
    for phi in SAMPLE:
        flip_invariant(phi, (1,))
        derivative_separated(phi, (1,))
    for memo in memos:
        info = memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0), memo
    _disable_row_kernels(monkeypatch)
    for phi, verdict in zip(SAMPLE, expected):
        assert flip_invariant(phi, (1,)) == derivative_separated(phi, (1,)) == verdict, phi.table


def test_recompose_verdict_builds_no_generator_fn(monkeypatch):
    """The recompose route compares rows: with `GeneratorFn.__init__`
    disabled it still gives its verdicts."""
    expected = [recompose_verdict(phi, (1,)) for phi in SAMPLE]

    def disabled(self, *args, **kwargs):
        raise AssertionError("recompose_verdict built a GeneratorFn")

    monkeypatch.setattr(GeneratorFn, "__init__", disabled)
    assert [recompose_verdict(phi, (1,)) for phi in SAMPLE] == expected
    assert set(expected) == {True, False}


def _theorem26_reference(rng, cases):
    """Theorem 26 case by case, as it ran before its lanes: each table
    through the per-table flip and derivative routes at block 1..n'."""
    for case in range(cases):
        na, nb = 1 + checks._below(rng.getrandbits, 3), 1 + checks._below(rng.getrandbits, 3)
        m = 1 + checks._below(rng.getrandbits, 2)
        par = checks.parallel_fn(rand_fn(rng, na, m), rand_fn(rng, nb, m))
        block = range(1, na + 1)
        ok = flip_invariant(par, block) and derivative_separated(par, block)
        yield None if ok else f"case {case}: n'={na} n''={nb} m={m} table={par.table}"


def _corrupting(monkeypatch, every):
    """Patch `checks.parallel_fn` so that every `every`-th composition, counted
    from the first, has one output bit flipped: that table is not separated.
    Returns a function that restarts the count."""
    real, made = checks.parallel_fn, [0]

    def corrupted(a, b):
        phi, made[0] = real(a, b), made[0] + 1
        if made[0] % every:
            return phi
        table = list(phi.table)
        table[made[0] % len(table)] ^= 1 << (made[0] % phi.n)
        return GeneratorFn(phi.n, phi.m, table)

    monkeypatch.setattr(checks, "parallel_fn", corrupted)
    return lambda: made.__setitem__(0, 0)


@pytest.mark.parametrize("seed, cases, every", [
    *((seed, cases, every) for seed, cases in ((1, 0), (1, 1), (7, 5), (26, 200), (2026, 31))
      for every in (None, 1, 2, 7)),
    (3, 4100, 1366),  # a failure in each batch of 4096 cases: cases 1365, 2731 and 4097
])
def test_theorem26_lanes_give_the_report_of_the_per_table_routes(monkeypatch, seed, cases, every):
    """The lane suite's report, details and their order included, equals the
    one made case by case through `flip_invariant` and `derivative_separated`
    from an equally seeded generator, which ends in the same state: on
    working compositions, and with every k-th one corrupted, where the
    failures are counted in full and the first three are named."""
    restart = _corrupting(monkeypatch, every) if every else lambda: None
    ours, theirs = random.Random(seed), random.Random(seed)
    restart()
    report = checks._tally("thm26 cross-block independence", theorem26_suite.__wrapped__(ours, cases))
    restart()
    expected = checks._tally("thm26 cross-block independence", _theorem26_reference(theirs, cases))
    assert report == expected
    assert ours.getstate() == theirs.getstate()
    assert report.failures == (cases // every if every else 0)
    assert len(report.details) == min(3, report.failures)


@pytest.mark.parametrize("cases, batches", [(1, 1), (600, 1), (4096, 1), (4097, 2)])
def test_theorem26_runs_each_route_kernel_once_per_shape(monkeypatch, cases, batches):
    """Counted work, no clock: each route kernel runs once per case shape
    (n', n'', m) in each batch of 4096 cases, so at most 18 times a batch;
    the per-table routes and the dependency scan never run."""
    calls = {"_flip_diffs": 0, "_derivative_diffs": 0}
    for name in calls:
        def counted(rows, plan, ones, real=getattr(checks, name), name=name):
            calls[name] += 1
            return real(rows, plan, ones)
        monkeypatch.setattr(checks, name, counted)
    for route in ("flip_invariant", "derivative_separated"):
        monkeypatch.setattr(checks, route, None)
    for scan in ("dependency_matrix", "_lane_derivatives"):
        monkeypatch.setattr(asyncdec.boolfn, scan, None)
    shapes = []
    real_fn = checks.rand_fn
    monkeypatch.setattr(checks, "rand_fn", lambda rng, n, m: shapes.append((n, m)) or real_fn(rng, n, m))
    assert theorem26_suite(7, cases).ok
    drawn = [(a, b, m) for (a, m), (b, _) in zip(shapes[::2], shapes[1::2])]
    per_batch = sum(len(set(drawn[k:k + 4096])) for k in range(0, cases, 4096))
    assert calls == {"_flip_diffs": per_batch, "_derivative_diffs": per_batch}
    assert per_batch <= 18 * batches


def _recompose_reference(phi, block):
    """The recompose route through the public transforms, one `GeneratorFn` each."""
    bs, cs = _split_blocks(phi.n, block)
    return parallel_fn(project_fn(phi, bs), project_fn(phi, cs)).table == project_fn(phi, bs + cs).table


def test_recompose_verdict_matches_the_public_transforms_at_every_proper_block():
    """On seeded tables with n <= 5 and m <= 2, some relabeled parallel
    compositions and some identities, the row-tuple verdict equals the one
    built from `project_fn` and `parallel_fn` at every proper block, given
    in both orders."""
    rng = random.Random(26)
    tables = []
    for _ in range(30):
        n, m = rng.randint(2, 5), rng.randint(0, 2)
        na = rng.randint(1, n - 1)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        tables.append(rand_fn(rng, n, m))
        tables.append(project_fn(parallel_fn(rand_fn(rng, na, m), rand_fn(rng, n - na, m)), order))
        tables.append(GeneratorFn.identity(n, m))
    verdicts = set()
    for phi in tables:
        for mask in range(1, (1 << phi.n) - 1):
            block = tuple(i for i in range(1, phi.n + 1) if mask >> (i - 1) & 1)
            verdict = recompose_verdict(phi, block)
            assert verdict == recompose_verdict(phi, block[::-1]) == _recompose_reference(phi, block), (
                phi, block)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def _flip_by_eval(phi, block):
    """The flip route written against `GeneratorFn.eval`: `BitVec` states,
    their one-bit flips by XOR and every input, evaluated point by point."""
    bs, cs = _split_blocks(phi.n, block)
    mask_b, mask_c = (sum(1 << (i - 1) for i in side) for side in (bs, cs))
    flips = [(j, mask_b) for j in cs] + [(j, mask_c) for j in bs]
    for mu in (BitVec(phi.n, v) for v in range(1 << phi.n)):
        for lam in (BitVec(phi.m, v) for v in range(1 << phi.m)):
            out = phi.eval(mu, lam).value
            for j, mask in flips:
                if (out ^ phi.eval(BitVec(phi.n, mu.value ^ 1 << (j - 1)), lam).value) & mask:
                    return False
    return True


def test_flip_route_reading_rows_gives_the_verdict_of_evaluation():
    """On random tables, half of them separated at a random non-contiguous
    block by relabeling a parallel composition, the row-reading flip route
    agrees with point-by-point evaluation; a one-bit state has no block."""
    rng = random.Random(26)
    verdicts = []
    for _ in range(400):
        n, m = rng.randint(1, 5), rng.randint(0, 2)
        if n == 1:
            for route in (flip_invariant, _flip_by_eval):
                with pytest.raises(CoordinateError):
                    route(rand_fn(rng, 1, m), (1,))
            continue
        block = sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
        rest = [c for c in range(1, n + 1) if c not in block]
        if rng.random() < 0.5:
            par = parallel_fn(rand_fn(rng, len(block), m), rand_fn(rng, len(rest), m))
            # coordinate c of phi reads par's coordinate for c's place in block + rest
            phi = project_fn(par, [(block + rest).index(c) + 1 for c in range(1, n + 1)])
        else:
            phi = rand_fn(rng, n, m)
        verdicts.append((flip_invariant(phi, block), m))
        assert verdicts[-1][0] == _flip_by_eval(phi, block), (phi.table, block)
    assert {v for v, _ in verdicts} == {True, False}
    assert {(True, 0), (False, 0)} <= set(verdicts)


def test_flip_route_never_evaluates(monkeypatch):
    """The flip route reads table rows: it builds no `BitVec` per point and
    never calls `GeneratorFn.eval`."""
    def disabled(*args, **kwargs):
        raise AssertionError("the flip route evaluated a point")

    phi = parallel_fn(rand_fn(random.Random(1), 2, 1), rand_fn(random.Random(2), 2, 1))
    monkeypatch.setattr(GeneratorFn, "eval", disabled)
    monkeypatch.setattr(BitVec, "__init__", disabled)
    assert flip_invariant(phi, (2, 1)) and not flip_invariant(phi, (1, 3))


def test_flip_cases_grow_with_the_states_and_inputs_apart():
    """A shape's cases hold 2^n state entries (each with its n flips) and 2^m
    row offsets, never one entry per row of the 2^(n+m)-row table."""
    cases, offsets = checks._flip_cases(10, 4, (1, 4, 9))
    assert len(cases) == 1 << 10 and len(offsets) == 1 << 4
    assert all(len(flips) == 10 for _, flips in cases)
    assert offsets == tuple(lam << 10 for lam in range(16))
    mask_b, mask_c = 0b0100001001, 0b1011110110  # the block {1, 4, 9} and the rest
    flips = [(5 ^ 1 << (j - 1), mask_b) for j in (2, 3, 5, 6, 7, 8, 10)]
    assert cases[5] == (5, tuple(flips + [(5 ^ 1 << (j - 1), mask_c) for j in (1, 4, 9)]))


def test_theorem30_returns_its_separable_tables_in_packed_order():
    report, separable = theorem30_exhaustive()
    assert report.summary() == "thm30 route agreement over all n=2 m=1 tables: 65536/65536 ok -> PASS"
    packed = [sum(v << 2 * r for r, v in enumerate(phi.table)) for phi in separable]
    assert len(packed) == 256 and packed == sorted(packed)
    assert separable[0].table == (0,) * 8
    assert separable[1].table == (2, 2, 0, 0, 0, 0, 0, 0)
    assert separable[-1].table == (3,) * 8


def test_theorem30_sweep_shares_no_dependency_scan(monkeypatch):
    """The sweep runs all three route kernels with `dependency_matrix` and
    the lane derivatives disabled, and still finds its 256 separable tables."""

    def disabled(*args, **kwargs):
        raise AssertionError("the theorem-30 sweep reached the dependency scan")

    monkeypatch.setattr(asyncdec.boolfn, "dependency_matrix", disabled)
    monkeypatch.setattr(asyncdec.boolfn, "_lane_derivatives", disabled)
    report, separable = theorem30_exhaustive()
    assert report.ok and report.cases == 1 << 16 and len(separable) == 256


@pytest.mark.parametrize("kernel, route, table, lanes", [
    ("_flip_diffs", "flip", (2, 2, 0, 0, 0, 0, 0, 0), 1),
    ("_derivative_diffs", "derivative", (1, 0, 0, 0, 0, 0, 0, 0), 1),
    ("_recompose_diffs", "split", (3, 3, 3, 3, 3, 3, 3, 3), 1),
    ("_flip_diffs", "flip", (2, 2, 0, 0, 0, 0, 0, 0), 5),
    ("_derivative_diffs", "derivative", (3, 3, 3, 3, 3, 3, 3, 3), 1),  # the last table, alone
    ("_recompose_diffs", "split", (0, 3, 3, 3, 3, 3, 3, 3), 4),  # the last four, ending at table 65535
])
def test_theorem30_sweep_names_the_table_a_wrong_route_misjudges(monkeypatch, kernel, route, table, lanes):
    """A route kernel that inverts its verdict in the lanes of `lanes` tables,
    `table` and those after it in packed order, makes them the sweep's
    failures: the witnesses name the lowest three with each route's verdict,
    and the separable tables lose exactly those the kernel wrongly rejected."""
    first = sum(v << 2 * r for r, v in enumerate(table))  # the table's packed index
    wrong = [tuple(t >> 2 * r & 3 for r in range(8)) for t in range(first, first + lanes)]
    rights = [recompose_verdict(GeneratorFn(2, 1, w), (1,)) for w in wrong]
    expected = [phi.table for phi in theorem30_exhaustive()[1] if phi.table not in wrong]
    real = getattr(checks, kernel)

    def inverted(rows, plan, ones):
        seen = real(rows, plan, ones)
        for lane in range(8 * first, 8 * (first + lanes), 8):
            seen ^= (seen >> lane & 255 or 1) << lane
        return seen

    monkeypatch.setattr(checks, kernel, inverted)
    report, separable = theorem30_exhaustive()
    assert (report.cases, report.failures) == (1 << 16, lanes)
    witnesses = tuple("table {}: flip={flip} derivative={derivative} split={split}".format(
        w, **{name: right != (name == route) for name in ("flip", "derivative", "split")})
        for w, right in zip(wrong[:3], rights))
    assert report.details == witnesses
    assert [phi.table for phi in separable] == expected
    assert len(separable) == 256 - sum(rights) and (lanes == 1 or {True, False} <= set(rights))


def test_theorem30_builds_a_generator_fn_only_per_separable_table(monkeypatch):
    """The sweep's kernels read bare row tuples: one sweep builds exactly one
    `GeneratorFn` per table it returns, 256 of the 65,536, each unchecked (its
    rows are digits of the lane index, in range by construction)."""
    real_init, real_derived, checked, derived = GeneratorFn.__init__, GeneratorFn._derived, [], []

    def counting(self, *args):
        checked.append(args)
        real_init(self, *args)

    monkeypatch.setattr(GeneratorFn, "__init__", counting)
    monkeypatch.setattr(GeneratorFn, "_derived", classmethod(lambda cls, *args: derived.append(args) or real_derived(*args)))
    report, separable = theorem30_exhaustive()
    assert report.ok and len(derived) == len(separable) == 256 and not checked


def test_each_public_route_gives_its_kernels_verdict_under_the_sweeps_plan():
    """Each public route is its plan looked up and its kernel run on the row
    tuple with `ones = 1`: on the sample it agrees with the kernel run under
    the plan the sweep makes.  A one-pair derivative plan sees a difference
    exactly where `partial_derivative` is not zero."""
    flips, parts = checks._flip_cases(2, 1, (1,)), checks._recompose_plan(2, (1,))
    pairs = checks._cross_pairs(_split_blocks(2, (1,)))
    for phi in SAMPLE:
        assert flip_invariant(phi, (1,)) == (not checks._flip_diffs(phi.table, flips, 1)), phi.table
        assert derivative_separated(phi, (1,)) == (not checks._derivative_diffs(phi.table, pairs, 1)), phi.table
        assert recompose_verdict(phi, (1,)) == (not checks._recompose_diffs(phi.table, parts, 1)), phi.table
        for i, j in ((1, 2), (2, 1)):
            pair = ((1 << (i - 1), 1 << (j - 1)),)
            assert bool(partial_derivative(phi, i, j)) == bool(checks._derivative_diffs(phi.table, pair, 1))


def _route_plans(n, m, block):
    """Each route kernel with its plan for the shape (n, m) at `block`, as the public routes make them."""
    return ((checks._flip_diffs, checks._flip_cases(n, m, block)),
            (checks._derivative_diffs, checks._cross_pairs(_split_blocks(n, block))),
            (checks._recompose_diffs, checks._recompose_plan(n, block)))


@pytest.mark.parametrize("n, m", [(2, 0), (2, 2), (3, 1), (4, 0), (4, 2)])
def test_route_kernels_keep_each_byte_lane_to_its_own_table(n, m):
    """Seeded tables of one shape, some of them relabeled parallel
    compositions, packed one per 8-bit lane: at every proper block each
    route kernel's bits in a lane are the bits it sees on that table alone
    with `ones = 1`, so no bit leaks between lanes through a shift."""
    rng = random.Random(30 + n + m)
    tables = []
    for _ in range(6):
        na = rng.randint(1, n - 1)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        tables.append(rand_fn(rng, n, m).table)
        tables.append(project_fn(parallel_fn(rand_fn(rng, na, m), rand_fn(rng, n - na, m)), order).table)
    rows = [sum(table[r] << 8 * t for t, table in enumerate(tables)) for r in range(1 << (n + m))]
    ones = sum(1 << 8 * t for t in range(len(tables)))
    flags = set()
    for mask in range(1, (1 << n) - 1):
        block = tuple(i for i in range(1, n + 1) if mask >> (i - 1) & 1)
        for kernel, plan in _route_plans(n, m, block):
            seen = kernel(rows, plan, ones)
            for t, table in enumerate(tables):
                alone = kernel(table, plan, 1)
                assert seen >> 8 * t & 255 == alone, (kernel.__name__, block, table)
                flags.add(alone == 0)
    assert flags == {True, False}


def test_theorem30_sweep_peaks_under_four_megabytes():
    """One sweep's traced allocations peak at most 4 MB: the eight row ints,
    `ones` and the kernels' words of 64 KB each, never one tuple per table."""
    theorem30_exhaustive()  # plans and imports are made outside the measurement
    tracemalloc.start()
    try:
        report, separable = theorem30_exhaustive()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and len(separable) == 256
    assert peak <= 4 << 20, peak


def test_theorem34_diagonal_witness_prints_inputs_as_event_lines(monkeypatch):
    """A diagonal example misreported as `equal` is named with each input in
    the event-line format, as `decompose` prints it."""
    def misreported(*args):
        r = real(*args)
        return DecompositionResult(
            r.first, r.second, "equal", r.partition, r.phi0_product_form, r.product_witness, r.hull_sizes
        )

    real = checks.decompose_system
    monkeypatch.setattr(checks, "decompose_system", misreported)
    report = theorem34_suite(1, 2)
    assert report.failures == 1
    assert report.details == (
        "diagonal example: status=equal; input n=1 init=0 H=10 events=(0,1): own 2, hull 4",
    )


def test_theorem32_scans_each_case_once(monkeypatch):
    """A case's separation test is the dependency scan inside `split_fn`, and
    a block it refuses is that case's failure, not an exception."""
    real, scans = asyncdec.boolfn.dependency_matrix, []
    monkeypatch.setattr(
        asyncdec.boolfn, "dependency_matrix", lambda phi: scans.append(phi) or real(phi)
    )
    report = theorem32_suite(3, 20)
    assert report.ok and len(scans) == report.cases == 20
    monkeypatch.setattr(asyncdec.boolfn, "dependency_witness", lambda phi, block: (1, 2, 0, 0))
    refused = theorem32_suite(3, 20)
    assert refused.failures == refused.cases == 20
    assert refused.details[0].startswith("case 0: ")
