"""Values built unchecked from checked ones are the values the checking
constructor gives for the same fields: sequences (runs, restrictions,
products, truncations, canonical forms), tables (`parallel_fn`, `project_fn`,
`split_fn`, the table reader, `compile_program`), bundles (`restrict`,
`parallel_system`), the seeded generators' draws and the schedule lines the
bundle reader accepts.  A restricted bundle builds each schedule once, and the
seeded suites build through a checking constructor only the bundles they draw
as input."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncdec import (
    BitVec,
    GeneratorFn,
    ProgressiveFunction,
    RegularSystem,
    Signal,
    parallel_fn,
    parallel_system,
    product_rho,
    product_signal,
    project_fn,
    run,
    split_fn,
)
from asyncdec.errors import AsyncDecError
from asyncdec.frontend import checks, fileio
from asyncdec.frontend.dsl import EquationProgram, compile_program
from asyncdec.frontend.fileio import LoadError, format_truth_table
from asyncdec.signals import _EventSequence
from loading import load_text

HORIZON = 12


def _same_as_rebuilt(x):
    """`x` against `type(x)(*x._values())`, its fields through the checking
    constructor: equal fields, equal hash and an equal pickled copy."""
    y = type(x)(*x._values())
    z = pickle.loads(pickle.dumps(x))
    assert type(z) is type(x) and x._values() == y._values() == z._values() and x == y == z
    if isinstance(x, _EventSequence):
        assert (x.events, x._canon, x.key) == (y.events, y._canon, y.key)
        assert (x._canon is x.events) == (y._canon is y.events)
        assert x.canonical().events == y.canonical().events
    if not isinstance(x, RegularSystem):  # a bundle's maps are dicts, so it has no hash
        assert hash(x) == hash(y) == hash(z)


def _events(data, width):
    """Up to eight events on ticks -2..HORIZON, values drawn small so that
    repeats of the held value (and all-zero firings) are common."""
    ticks = data.draw(st.lists(st.integers(-2, HORIZON), unique=True, max_size=8).map(sorted))
    value = st.integers(0, min(3, (1 << width) - 1)) | st.integers(0, (1 << width) - 1)
    return tuple((t, data.draw(value)) for t in ticks)


def _signal(data, width):
    return Signal(width, data.draw(st.integers(0, (1 << width) - 1)), _events(data, width), HORIZON)


def _schedule(data, width):
    return ProgressiveFunction(width, _events(data, width), HORIZON)


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_derived_sequence_equals_its_checked_rebuild(data):
    n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 2))
    phi = GeneratorFn(n, m, tuple(data.draw(st.lists(st.integers(0, (1 << n) - 1),
                                                      min_size=1 << (n + m), max_size=1 << (n + m)))))
    mu = BitVec(n, data.draw(st.integers(0, (1 << n) - 1)))
    u, rho = _signal(data, m), _schedule(data, n)
    x, y = _signal(data, n), _signal(data, data.draw(st.integers(1, 3)))
    r = _schedule(data, data.draw(st.integers(1, 3)))
    # a coordinate list that may drop coordinates, so that restricted events collapse
    coords = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    cut = data.draw(st.integers(-3, HORIZON))
    derived = [
        run(phi, mu, u, rho, HORIZON),
        x.restrict(coords),
        rho.restrict(coords),
        product_signal(x, y),
        product_rho(rho, r),
        x.truncated(cut),
        rho.truncated(cut),
        x.canonical(),
        rho.canonical(),
    ]
    for z in derived:
        _same_as_rebuilt(z)


def _one_input_bundle(n, u, states, schedules):
    """Identity dynamics on n bits; every state admits every schedule."""
    phi = GeneratorFn.identity(n, 1)
    states = [BitVec(n, s) for s in states]
    return RegularSystem(phi, (u,), {u: states}, {(mu, u): schedules for mu in states})


def test_a_restricted_bundle_builds_each_distinct_schedule_once(monkeypatch):
    """Two states per factor and six schedules per factor state: each of the
    four full states holds 6 x 6 woven schedules, and a restriction onto
    either block holds six at each of its two states.  Restricting schedule
    by schedule would build 36 per full state; here 6 per restricted state
    are built, and the bundle is the one built schedule by schedule."""
    u = Signal(1, 0, ((3, 1),), 20)
    first = _one_input_bundle(2, u, (0, 3), [ProgressiveFunction(2, ((k, 3),), 20) for k in range(1, 7)])
    second = _one_input_bundle(1, u, (0, 1), [ProgressiveFunction(1, ((k, 1), (k + 7, 1)), 20)
                                              for k in range(1, 7)])
    whole = parallel_system(first, second)
    assert {len(rs) for rs in whole.pi.values()} == {36}

    fill = _EventSequence._fill
    built = []

    def counted(self, *values):
        if type(self) is ProgressiveFunction:
            built.append(self)
        return fill(self, *values)

    for coords, factor in (((1, 2), first), ((3,), second)):
        pi = {}  # each schedule restricted on its own
        for (mu, u), rs in whole.pi.items():
            pi.setdefault((mu.restrict(coords), u), set()).update(rho.restrict(coords) for rho in rs)
        phi0 = {u: {mu.restrict(coords) for mu in ms} for u, ms in whole.phi0.items()}
        reference = RegularSystem(project_fn(whole.phi, coords), whole.inputs, phi0, pi)
        built.clear()
        with monkeypatch.context() as patched:
            patched.setattr(_EventSequence, "_fill", counted)
            restricted = whole.restrict(coords)
        assert {len(rs) for rs in restricted.pi.values()} == {6}
        assert len(built) == 6 * len(restricted.pi) == 12
        assert restricted == factor
        assert restricted == reference


def _table(data, n, m):
    return GeneratorFn(n, m, tuple(data.draw(st.lists(st.integers(0, (1 << n) - 1),
                                                      min_size=1 << (n + m), max_size=1 << (n + m)))))


def _progressive(data, width):
    """A schedule whose last event fires every coordinate no earlier one fired."""
    ticks = data.draw(st.lists(st.integers(1, HORIZON), unique=True, min_size=1, max_size=4).map(sorted))
    values = [data.draw(st.integers(0, (1 << width) - 1)) for _ in ticks]
    fired = 0
    for v in values:
        fired |= v
    values[-1] |= (1 << width) - 1 & ~fired
    return ProgressiveFunction(width, tuple(zip(ticks, values)), HORIZON)


def _bundle(data, phi, inputs):
    """A checked bundle over `phi` admitting `inputs`: one to three states per
    input and one to three schedules per state."""
    states = st.lists(st.integers(0, (1 << phi.n) - 1), unique=True, min_size=1, max_size=3)
    phi0 = {u: [BitVec(phi.n, s) for s in data.draw(states)] for u in inputs}
    pi = {(mu, u): [_progressive(data, phi.n) for _ in range(data.draw(st.integers(1, 3)))]
          for u, ms in phi0.items() for mu in ms}
    return RegularSystem(phi, inputs, phi0, pi)


def _expr(n, m):
    leaf = st.one_of(st.tuples(st.just("const"), st.integers(0, 1)), st.tuples(st.just("x"), st.integers(1, n)),
                     st.tuples(st.just("u"), st.integers(1, m)))
    return st.recursive(leaf, lambda e: st.one_of(
        st.tuples(st.just("not"), e),
        st.tuples(st.sampled_from(("and", "xor", "or")), e, e)), max_leaves=6)


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_derived_table_bundle_or_draw_equals_its_checked_rebuild(data):
    na, nb, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    fa, fb = _table(data, na, m), _table(data, nb, m)
    whole = parallel_fn(fa, fb)
    n = na + nb
    coords = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    first, second, partition = split_fn(whole, range(1, na + 1))
    pool = [Signal(m, data.draw(st.integers(0, (1 << m) - 1)), events, HORIZON)
            for events in {_events(data, m) for _ in range(data.draw(st.integers(1, 3)))}]
    a = _bundle(data, fa, pool[:data.draw(st.integers(1, len(pool)))])
    b = _bundle(data, fb, pool[:data.draw(st.integers(1, len(pool)))])
    product = parallel_system(a, b)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    width = data.draw(st.integers(1, 4))
    derived = [
        whole,
        project_fn(whole, coords),
        first,
        second,
        partition,
        load_text("".join(format_truth_table(whole)), GeneratorFn),
        compile_program(EquationProgram(n, m, tuple(data.draw(_expr(n, m)) for _ in range(n)))),
        a.restrict(data.draw(st.lists(st.integers(1, na), min_size=1, max_size=na, unique=True))),
        product,
        product.restrict(coords),
        checks.rand_fn(rng, width, data.draw(st.integers(0, 2))),
        checks.rand_rho(rng, width, data.draw(st.integers(1, 60))),
        checks.rand_signal(rng, width, data.draw(st.integers(-2, 60))),
    ]
    for z in derived:
        _same_as_rebuilt(z)


_CORE = """[phi]
n=1 m=1
0 0 -> 0
1 0 -> 1
0 1 -> 0
1 1 -> 1
[inputs]
u = n=1 init=0 H=12 events=(1,1)
[phi0]
u: 0
[pi]
0 @ u: p
[rho p]
n=1 H=12 events=(1,1);(2,0)
"""


def _drawn_line(data):
    """A schedule line at width 0..4 and its expected outcome: up to five
    events on ticks -1..HORIZON + 2, rising or in any order (so equal, falling
    and past-H ticks occur), all-zero firings common, now and then a bit
    string one too long; `events=` may be empty.  The outcome is the value the
    checking constructor builds from the events, or the text a reader reports
    for the line read alone: the first wrong-width event's, else the constructor's."""
    width = data.draw(st.sampled_from((1, 2, 3, 4) * 2 + (0,)))
    ticks = [data.draw(st.integers(-1, HORIZON + 2)) for _ in range(data.draw(st.sampled_from((3, 1, 4, 2, 5, 0))))]
    if data.draw(st.booleans()):
        ticks = sorted(set(ticks))
    values = st.sampled_from((0, (1 << width) - 1)) | st.integers(0, max(0, (1 << width) - 1))
    events = [(t, v, format(v, "b").zfill(width + data.draw(st.sampled_from((0,) * 29 + (1,))))[::-1])
              for t, v in ((t, data.draw(values)) for t in ticks)]
    line = f"n={width} H={HORIZON} events=" + ";".join(f"({t},{bits})" for t, _, bits in events)
    for t, _, bits in events:
        if len(bits) != width:
            return line, f"schedule event at tick {t} has width {len(bits)}, expected {width}"
    try:
        return line, ProgressiveFunction(width, tuple((t, v) for t, v, _ in events), HORIZON)
    except AsyncDecError as exc:
        return line, str(exc)


@given(st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_a_bundle_accepts_each_schedule_line_as_its_checked_value(data):
    """Drawn schedule lines read as [rho] sections of one bundle, so that they
    share its memo of event texts with each other and with the core's lines.
    Each line read is the checking constructor's value, its `_canon` shared
    with `events` exactly when no firing is all zero, until the bundle stops
    at the first refused line with the text that line gives read alone.  Read
    once more through one shared memo, every refused line gives that text."""
    lines = [_drawn_line(data) for _ in range(data.draw(st.integers(1, 6)))]
    read, real = [], fileio._parse_sequence

    def reading(line, where, kind, memo):
        value = real(line, where, kind, memo)
        read.append((where, value))
        return value

    text = _CORE + "".join(f"[rho r{k}]\n{line}\n" for k, (line, _) in enumerate(lines))
    refused = [k for k, (_, expected) in enumerate(lines) if isinstance(expected, str)]
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(fileio, "_parse_sequence", reading)
        try:
            load_text(text, RegularSystem)
            assert not refused
        except LoadError as exc:
            assert refused and str(exc) == f"[rho r{refused[0]}]: {lines[refused[0]][1]}"
    accepted = [(where, x) for where, x in read if where.startswith("[rho r")]
    assert [where for where, _ in accepted] == [f"[rho r{k}]" for k in range(refused[0] if refused else len(lines))]
    for (_, x), (_, expected) in zip(accepted, lines):
        assert x._values() == expected._values()
        _same_as_rebuilt(x)
        assert (x._canon is x.events) == all(v for _, v in x.events)
    memo: dict = {}
    for line, expected in lines:
        try:
            x = fileio._parse_sequence(line, "[rho]", ProgressiveFunction, memo)
        except LoadError as exc:
            assert str(exc) == f"[rho]: {expected}"
        else:
            assert x._values() == expected._values()


def _counted_builds(monkeypatch, suite, *args):
    """How many times `suite(*args)` enters the checking constructors of
    `GeneratorFn` and of `RegularSystem`, the report being PASS."""
    counts = {GeneratorFn: 0, RegularSystem: 0}
    for kind in counts:
        def counted(self, *values, real=kind.__init__, kind=kind):
            counts[kind] += 1
            real(self, *values)
        monkeypatch.setattr(kind, "__init__", counted)
    assert suite(*args).ok
    return counts[GeneratorFn], counts[RegularSystem]


def test_the_seeded_suites_check_only_the_bundles_they_draw_as_input(monkeypatch):
    """Counted work, no clock: Theorems 27 and 32 build every table, signal and
    schedule unchecked.  Theorem 34 checks one bundle per subset case
    (`rand_system`), two per product-form case (`_product_form_system`'s
    factors; their connection is derived) and the diagonal example, whose
    identity table is the one table it checks; the restrictions of
    `decompose_system` are derived."""
    assert _counted_builds(monkeypatch, checks.theorem27_suite, 7, 60) == (0, 0)
    assert _counted_builds(monkeypatch, checks.theorem32_suite, 7, 60) == (0, 0)
    subset, product_form = 10, 11
    assert _counted_builds(monkeypatch, checks.theorem34_suite, 7, subset + product_form) == (
        1, subset + 2 * product_form + 1)
