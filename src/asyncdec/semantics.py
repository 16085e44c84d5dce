"""Asynchronous execution semantics.

A run applies masked updates along a schedule: at each schedule tick the
coordinates whose firing bit is 1 are recomputed from the current state and
the input value sampled at that tick, and all other coordinates hold.  The
resulting state sequence, read as a piecewise-constant signal, is the
trajectory of the generator function under that schedule; `run` returns
that signal, so the state entered at schedule tick t is `x.value_at(t)`.
"""

from __future__ import annotations

from .boolfn import GeneratorFn
from .errors import HorizonExceeded, HorizonMismatch, InvalidValue, WidthMismatch
from .signals import BitVec, ProgressiveFunction, Signal, Tick


def apply_masked(phi: GeneratorFn, nu: BitVec, mu: BitVec, lam: BitVec) -> BitVec:
    """One masked update: coordinate i is recomputed iff nu_i = 1, else held."""
    if nu.width != phi.n:
        raise WidthMismatch(f"mask width {nu.width}, expected {phi.n}")
    computed = phi.eval(mu, lam)
    return BitVec(phi.n, (mu.value & ~nu.value) | (computed.value & nu.value))


def run(
    phi: GeneratorFn,
    mu: BitVec,
    u: Signal,
    rho: ProgressiveFunction,
    horizon: Tick,
) -> Signal:
    """Run `phi` from state `mu` under input `u` along schedule `rho`; the
    trajectory as a canonical signal.

    Index alignment: with the initial state at index -1, the first schedule
    event consumes the first firing vector, so the state entered at the
    first tick is the masked update of the initial state reading u there.
    The input is sampled pointwise at the schedule's ticks; its own event
    grid is unrelated: a merge-walk over its events tracks the value in
    force.  Only changed states become signal events, so the trajectory is
    canonical by construction.
    """
    if mu.width != phi.n:
        raise WidthMismatch(f"initial state width {mu.width}, expected {phi.n}")
    if u.width != phi.m:
        raise WidthMismatch(f"input width {u.width}, expected {phi.m}")
    if rho.width != phi.n:
        raise WidthMismatch(f"schedule width {rho.width}, expected {phi.n}")
    if u.horizon != horizon or rho.horizon != horizon:
        raise HorizonMismatch(f"horizons (input {u.horizon}, schedule {rho.horizon}) must both equal {horizon}")
    n, table, inputs, end = phi.n, phi.table, iter(u.events), (horizon + 1, 0)
    changes = []
    cur, base = mu.value, u.initial << n
    due, lam = next(inputs, end)  # input lam is due at tick `due`; `end` lies past every schedule tick
    for t, a in rho.events:
        while due <= t:
            base = lam << n
            due, lam = next(inputs, end)
        if flip := (cur ^ table[cur | base]) & a:  # the fired coordinates that change
            cur ^= flip
            changes.append((t, cur))
    return Signal._derived(n, mu.value, changes := tuple(changes), horizon, changes)


def delay_bounds(u: Signal, tau: Tick, t: Tick) -> tuple[int, int]:
    """The (min, max) of a scalar input over the half-open window [t-tau, t).

    The window is split at the input's event ticks, so both bounds are exact
    over the finitely many constant pieces.
    """
    if u.width != 1:
        raise WidthMismatch(f"delay bounds need a scalar input, got width {u.width}")
    if tau <= 0:
        raise InvalidValue(f"delay must be positive, got {tau}")
    if t > u.horizon:
        raise HorizonExceeded(f"t={t} beyond horizon {u.horizon}")
    start = t - tau
    samples = [u.value_at(start)] + [u.value_at(tk) for tk, _ in u.events if start < tk < t]
    return min(samples), max(samples)
