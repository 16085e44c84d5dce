"""Masked updates, runs and the delay envelope."""

import random

import pytest

from asyncdec import (
    BitVec,
    GeneratorFn,
    HorizonExceeded,
    HorizonMismatch,
    ProgressiveFunction,
    Signal,
    WidthMismatch,
    apply_masked,
    delay_bounds,
    parallel_fn,
    product_rho,
    product_signal,
    round_robin,
    run,
    unit_step,
)
from asyncdec.frontend.checks import rand_fn, rand_rho, rand_signal

bv = BitVec.from_string


def val(text):
    """The int a bit string denotes, coordinate 1 first: "10" is 1."""
    return int(text[::-1], 2)


def fn(n, m, f):
    return GeneratorFn.from_function(n, m, f)


def rho(width, events, horizon):
    return ProgressiveFunction(width, tuple((t, val(v)) for t, v in events), horizon)


# -- masked updates --------------------------------------------------------


def test_mask_zero_holds_everything():
    phi = fn(2, 1, lambda mu, lam: bv("11"))
    assert apply_masked(phi, bv("00"), bv("01"), bv("1")) == bv("01")


def test_mask_ones_computes_everything():
    phi = fn(2, 1, lambda mu, lam: bv("11"))
    assert apply_masked(phi, bv("11"), bv("00"), bv("0")) == phi.eval(bv("00"), bv("0"))


def test_mask_mixed():
    phi = fn(2, 1, lambda mu, lam: BitVec.from_bits([lam.bit(1), lam.bit(1)]))
    assert apply_masked(phi, bv("10"), bv("00"), bv("1")) == bv("10")


# -- runs -------------------------------------------------------------------


def test_identity_run_is_constant():
    phi = GeneratorFn.identity(2, 1)
    u = rand_signal(random.Random(0), 1, 10)
    schedule = rho(2, [(1, "10"), (3, "11"), (7, "01")], 10)
    x = run(phi, bv("10"), u, schedule, 10)
    assert x == Signal(2, val("10"), (), 10)
    assert all(x.value_at(t) == val("10") for t, _ in schedule.events)


def test_hand_traced_follower_run():
    phi = fn(1, 1, lambda mu, lam: lam)
    x = run(phi, bv("0"), unit_step(0, 10), rho(1, [(1, "1")], 10), 10)
    assert (x.initial, x.value_at(1)) == (val("0"), val("1"))
    assert x == unit_step(1, 10)


def test_all_ones_schedule_matches_synchronous_iteration():
    rng = random.Random(42)
    for _ in range(50):
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        phi = rand_fn(rng, n, m)
        u = rand_signal(rng, m, 20)
        ticks = sorted(rng.sample(range(1, 21), 5))
        state = BitVec(n, rng.randrange(1 << n))
        x = run(phi, state, u, round_robin(n, ticks, 20), 20)
        for t in ticks:
            state = phi.eval(state, BitVec(m, u.value_at(t)))
            assert x.value_at(t) == state.value


def test_run_determinism():
    rng = random.Random(7)
    phi = rand_fn(rng, 2, 1)
    u = rand_signal(rng, 1, 15)
    schedule = rand_rho(rng, 2, 15)
    mu = bv("01")
    assert run(phi, mu, u, schedule, 15) == run(phi, mu, u, schedule, 15)


def test_locality_coordinates_change_only_when_fired():
    rng = random.Random(8)
    for _ in range(40):
        n, m = rng.randint(1, 3), 1
        phi = rand_fn(rng, n, m)
        u = rand_signal(rng, m, 15)
        schedule = rand_rho(rng, n, 15)
        x = run(phi, BitVec(n, rng.randrange(1 << n)), u, schedule, 15)
        states = [x.initial] + [x.value_at(t) for t, _ in schedule.events]
        for k, (_, alpha) in enumerate(schedule.events):
            changed = states[k] ^ states[k + 1]
            assert changed & ~alpha == 0


def test_fixed_point_stability():
    rng = random.Random(9)
    for _ in range(30):
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        phi = rand_fn(rng, n, m)
        lam = BitVec(m, rng.randrange(1 << m))
        fixed = None
        for mu in (BitVec(n, v) for v in range(1 << n)):
            if phi.eval(mu, lam) == mu:
                fixed = mu
                break
        if fixed is None:
            continue
        u = Signal(m, lam.value, (), 15)
        x = run(phi, fixed, u, rand_rho(rng, n, 15), 15)
        assert x == Signal(n, fixed.value, (), 15)


def test_run_horizon_mismatch():
    phi = GeneratorFn.identity(1, 1)
    with pytest.raises(HorizonMismatch):
        run(phi, bv("0"), unit_step(0, 10), rho(1, [(1, "1")], 12), 10)


@pytest.mark.parametrize("call, error, text", [
    pytest.param(lambda phi: apply_masked(phi, bv("1"), bv("00"), bv("0")), WidthMismatch,
                 "mask width 1, expected 2", id="mask-width"),
    pytest.param(lambda phi: run(phi, bv("0"), unit_step(0, 10), rho(2, [(1, "11")], 10), 10), WidthMismatch,
                 "initial state width 1, expected 2", id="run-state-width"),
    pytest.param(lambda phi: run(phi, bv("00"), Signal(2, 0, (), 10), rho(2, [(1, "11")], 10), 10), WidthMismatch,
                 "input width 2, expected 1", id="run-input-width"),
    pytest.param(lambda phi: delay_bounds(Signal(2, 0, (), 10), 1, 1), WidthMismatch,
                 "delay bounds need a scalar input, got width 2", id="delay-input-width"),
    pytest.param(lambda phi: delay_bounds(unit_step(0, 10), 1, 11), HorizonExceeded,
                 "t=11 beyond horizon 10", id="delay-past-horizon"),
])
def test_updates_runs_and_delay_bounds_refuse_with_a_named_error(call, error, text):
    with pytest.raises(error) as refused:
        call(GeneratorFn.identity(2, 1))
    assert type(refused.value) is error and str(refused.value) == text


def test_run_matches_a_fold_of_masked_updates():
    """`run` against a plain fold of `apply_masked` over `u.value_at(t)`, with
    input events on, before and after the schedule ticks, input events that
    repeat the value in force, and zero firing vectors."""
    rng = random.Random(41)
    horizon = 12
    seen = set()
    for _ in range(400):
        n, m = rng.randint(1, 4), rng.randint(1, 2)
        phi = rand_fn(rng, n, m)
        ticks = sorted(rng.sample(range(1, horizon), rng.randint(0, 5)))
        firings = tuple((t, rng.choice((0, rng.randrange(1 << n)))) for t in ticks)
        schedule = ProgressiveFunction(n, firings, horizon)
        pool = sorted(set(ticks) | set(rng.sample(range(-2, horizon + 1), 4)))
        value = rng.randrange(1 << m)
        initial, events = value, []
        for t in sorted(rng.sample(pool, rng.randint(0, len(pool)))):
            if rng.random() < 0.6:
                value = rng.randrange(1 << m)
            events.append((t, value))
        u = Signal(m, initial, tuple(events), horizon)
        mu = BitVec(n, rng.randrange(1 << n))

        states = [mu]
        for t, alpha in firings:
            states.append(apply_masked(phi, BitVec(n, alpha), states[-1], BitVec(m, u.value_at(t))))
        values = [s.value for s in states]
        expected = Signal(n, mu.value, tuple(zip(ticks, values[1:])), horizon).canonical()
        x = run(phi, mu, u, schedule, horizon)
        assert [x.initial] + [x.value_at(t) for t in ticks] == values
        assert x == expected
        assert x.events == expected.events

        for t, _ in events:
            if t in ticks:
                seen.add("input on a tick")
            if ticks and t < ticks[0]:
                seen.add("input before the first tick")
            if ticks and t > ticks[-1]:
                seen.add("input after the last tick")
        if any(v == w for (_, v), (_, w) in zip([(None, initial)] + events, events)):
            seen.add("redundant input")
        if any(alpha == 0 for _, alpha in firings):
            seen.add("zero firing")
    assert len(seen) == 5


def test_signal_view_matches_state_sequence():
    rng = random.Random(14)
    for _ in range(40):
        n, m = rng.randint(1, 3), 1
        phi = rand_fn(rng, n, m)
        u = rand_signal(rng, m, 15)
        schedule = rand_rho(rng, n, 15)
        states = [BitVec(n, rng.randrange(1 << n))]
        x = run(phi, states[0], u, schedule, 15)
        for t, alpha in schedule.events:
            states.append(apply_masked(phi, BitVec(n, alpha), states[-1], BitVec(m, u.value_at(t))))
        for t in range(-3, 16):
            in_force = states[0]
            for k, (tick, _) in enumerate(schedule.events):
                if tick <= t:
                    in_force = states[k + 1]
            assert x.value_at(t) == in_force.value


def test_thm27_run_of_parallel_factors():
    rng = random.Random(12)
    for _ in range(60):
        na, nb, m = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        fa, fb = rand_fn(rng, na, m), rand_fn(rng, nb, m)
        u = rand_signal(rng, m, 25)
        ra, rb = rand_rho(rng, na, 25), rand_rho(rng, nb, 25)
        ma, mbv = BitVec(na, rng.randrange(1 << na)), BitVec(nb, rng.randrange(1 << nb))
        joint = run(parallel_fn(fa, fb), ma.concat(mbv), u, product_rho(ra, rb), 25)
        assert joint == product_signal(run(fa, ma, u, ra, 25), run(fb, mbv, u, rb, 25))


# -- delay bounds -------------------------------------------------------------


def test_delay_bounds_uncertain_window():
    assert delay_bounds(unit_step(0, 10), 2, 1) == (0, 1)


def test_delay_bounds_settled():
    assert delay_bounds(unit_step(0, 10), 2, 3) == (1, 1)


def test_delay_bounds_constant():
    u = Signal(1, val("1"), (), 10)
    for t in range(-3, 11):
        assert delay_bounds(u, 3, t) == (1, 1)


def test_delay_bounds_envelope_formula():
    for tau in (1, 2, 5):
        u = unit_step(0, tau + 6)
        for t in range(-3, tau + 6):
            low, high = delay_bounds(u, tau, t)
            assert low <= high
            assert (low, high) == (1 if t >= tau else 0, 1 if t > 0 else 0)


def test_delay_bounds_rejects_bad_tau():
    with pytest.raises(ValueError):
        delay_bounds(unit_step(0, 10), 0, 1)
