"""Sequences built unchecked from checked ones (runs, restrictions, products,
truncations, canonical forms) are the values the checking constructor gives
for the same fields, and a restricted bundle builds each schedule once."""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from asyncdec import (
    BitVec,
    GeneratorFn,
    ProgressiveFunction,
    RegularSystem,
    Signal,
    parallel_system,
    product_rho,
    product_signal,
    project_fn,
    run,
)
from asyncdec.signals import _EventSequence

HORIZON = 12


def _same_as_rebuilt(x):
    """`x` against `type(x)(*x._values())`, its fields through the checking constructor."""
    y = type(x)(*x._values())
    assert (x.events, x._canon, x.key, hash(x)) == (y.events, y._canon, y.key, hash(y))
    assert (x._canon is x.events) == (y._canon is y.events)
    assert x.canonical().events == y.canonical().events
    z = pickle.loads(pickle.dumps(x))
    assert type(z) is type(x) and (z.events, z._canon, z.key) == (y.events, y._canon, y.key)


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
