"""Asynchronous execution semantics.

A run applies masked updates along a schedule: at each schedule tick the
coordinates whose firing bit is 1 are recomputed from the current state and
the input value sampled at that tick, and all other coordinates hold.  The
resulting state sequence, read as a piecewise-constant signal, is the
trajectory of the generator function under that schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolfn import GeneratorFn
from .errors import HorizonExceeded, HorizonMismatch, InvalidValue, WidthMismatch
from .signals import BitVec, ProgressiveFunction, Signal, Tick


def apply_masked(phi: GeneratorFn, nu: BitVec, mu: BitVec, lam: BitVec) -> BitVec:
    """One masked update: coordinate i is recomputed iff nu_i = 1, else held."""
    if nu.width != phi.n:
        raise WidthMismatch(f"mask width {nu.width}, expected {phi.n}")
    computed = phi.eval(mu, lam)
    return BitVec(phi.n, (mu.value & ~nu.value) | (computed.value & nu.value))


@dataclass(frozen=True)
class Trajectory:
    """A run's state sequence and its signal reading.

    `states[0]` is the initial state (the index -1 element of the
    recursion); `states[k+1]` is the state entered at `ticks[k]`.  The
    signal view is the canonical piecewise-constant reading of the same
    data, which coincides with it at every tick up to the horizon.
    """

    states: tuple[BitVec, ...]
    ticks: tuple[Tick, ...]
    horizon: Tick
    signal: Signal

    def dump(self) -> str:
        lines = [f"k=-1 omega={self.states[0]}"]
        for k, t in enumerate(self.ticks):
            lines.append(f"k={k} t={t} omega={self.states[k + 1]}")
        return "\n".join(lines)


def run(
    phi: GeneratorFn,
    mu: BitVec,
    u: Signal,
    rho: ProgressiveFunction,
    horizon: Tick,
) -> Trajectory:
    """Run `phi` from state `mu` under input `u` along schedule `rho`.

    Index alignment: with the initial state at index -1, the first schedule
    event consumes the first firing vector, so the state entered at the
    first tick is the masked update of the initial state reading u there.
    The input is sampled pointwise at the schedule's ticks; its own event
    grid is unrelated: a merge-walk over its events tracks the value in
    force.  The state is a packed int; only changed states become signal
    events, so the signal is built once, canonical, sharing recurring states.
    """
    if mu.width != phi.n:
        raise WidthMismatch(f"initial state width {mu.width}, expected {phi.n}")
    if u.width != phi.m:
        raise WidthMismatch(f"input width {u.width}, expected {phi.m}")
    if rho.width != phi.n:
        raise WidthMismatch(f"schedule width {rho.width}, expected {phi.n}")
    if u.horizon != horizon or rho.horizon != horizon:
        raise HorizonMismatch(
            f"horizons (input {u.horizon}, schedule {rho.horizon}) "
            f"must both equal {horizon}"
        )
    n, table, inputs = phi.n, phi.table, u.events
    shared = {mu.value: mu}
    states, changes = [mu], []
    cur, lam, k = mu.value, u.initial.value, 0
    for t, alpha in rho.events:
        while k < len(inputs) and inputs[k][0] <= t:
            lam = inputs[k][1].value
            k += 1
        a = alpha.value
        nxt = (cur & ~a) | (table[cur | lam << n] & a)
        state = shared.get(nxt) or shared.setdefault(nxt, BitVec(n, nxt))
        if nxt != cur:
            changes.append((t, state))
            cur = nxt
        states.append(state)
    signal = Signal(n, mu, tuple(changes), horizon)
    return Trajectory(tuple(states), tuple(t for t, _ in rho.events), horizon, signal)


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
    samples = [u.value_at(start).value]
    for tk, _ in u.events:
        if start < tk < t:
            samples.append(u.value_at(tk).value)
    return min(samples), max(samples)
