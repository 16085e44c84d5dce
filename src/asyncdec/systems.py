"""Regular asynchronous systems as finite explicit bundles.

A bundle holds a generator function, a finite list of admissible inputs, an
initial-state map phi0 and a schedule map pi whose domain is exactly the
pairs (mu, u) with mu in phi0(u).  Realizing the bundle runs every admitted
combination and collects the canonical trajectories per input; this is the
computation-function form of a regular system, at finite-prefix scale.

A bundle relabels like every other kind, by `restrict(coords)`; restricted
to a separated block and to its complement, it gives the two factors of a
decomposition.  `restrict` and `parallel_system` build their bundles
unchecked (`_derived`), valid by construction from checked ones.
`decompose_system`, the one entry to Theorem 34, reads each trajectory as
its pair in f'(u) x f''(u), a pair of factor runs by Theorem 27: it runs
the factors, never the full bundle, builds no hull and weaves no schedules.
`realize` runs the full bundle; the tests check the factor route against it.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from .boolfn import GeneratorFn, Partition, _separated_blocks, check_count, parallel_fn, project_fn
from .errors import HorizonMismatch, InvalidSystem, ProgressivenessError, WidthMismatch
from .semantics import run
from .signals import (
    BitVec,
    ProgressiveFunction,
    Signal,
    SignalSet,
    Tick,
    _fired,
    _relabeler,
    _Value,
    product_rho,
)


class RegularSystem(_Value):
    """An explicit (phi, inputs, phi0, pi) bundle.

    Immutable after construction; the constructor normalizes the maps to
    frozensets and validates widths, horizons, the pi domain and
    prefix-progressiveness of every schedule.
    """

    __slots__ = _fields = ("phi", "inputs", "phi0", "pi")

    def __init__(self, phi: GeneratorFn, inputs: Iterable[Signal],
                 phi0: Mapping[Signal, Iterable[BitVec]],
                 pi: Mapping[tuple[BitVec, Signal], Iterable[ProgressiveFunction]]):
        inputs = tuple(dict.fromkeys(inputs))
        if not inputs:
            raise InvalidSystem("a system needs at least one admissible input")
        horizon = inputs[0].horizon
        for u in inputs:
            if u.width != phi.m:
                raise WidthMismatch(f"input width {u.width}, expected {phi.m}")
            if u.horizon != horizon:
                raise HorizonMismatch("all inputs must share one horizon")
        phi0 = {u: frozenset(ms) for u, ms in phi0.items()}
        if set(phi0) != set(inputs):
            raise InvalidSystem("phi0 must be defined exactly on the admissible inputs")
        for u, ms in phi0.items():
            if not ms:
                raise InvalidSystem(f"phi0 is empty for input {u}")
            for mu in ms:
                if mu.width != phi.n:
                    raise WidthMismatch(f"initial state width {mu.width}, expected {phi.n}")
        pi = {key: frozenset(rs) for key, rs in pi.items()}
        delta = {(mu, u) for u in inputs for mu in phi0[u]}
        if set(pi) != delta:
            raise InvalidSystem("pi must be defined exactly on {(mu, u) | u admissible, mu in phi0(u)}")
        for (mu, u), rs in pi.items():
            if not rs:
                raise InvalidSystem(f"pi is empty at ({mu}, {u})")
            for rho in rs:
                if rho.width != phi.n:
                    raise WidthMismatch(f"schedule width {rho.width}, expected {phi.n}")
                if rho.horizon != horizon:
                    raise HorizonMismatch("schedules must share the system horizon")
                if not rho.is_prefix_progressive():
                    raise ProgressivenessError(f"schedule {rho} is not prefix-progressive")
        super().__init__(phi, inputs, phi0, pi)

    @property
    def n(self) -> int:
        return self.phi.n

    @property
    def m(self) -> int:
        return self.phi.m

    @property
    def horizon(self) -> Tick:
        return self.inputs[0].horizon

    def restrict(self, coords: Iterable[int]) -> "RegularSystem":
        """The bundle on the state coordinates `coords`, in that order (see `_restricted`)."""
        return _restricted(self, tuple(coords))[0]


def _restricted(sys: RegularSystem, cs: tuple[int, ...]):
    """The bundle on the coordinates `cs`, in that order, and per input the
    (mu on cs, rho on cs) of each admitted (mu, rho) in `sys.pi`'s order, in
    one pass: the table `project_fn(phi, cs)`, the inputs, every initial state
    restricted, and at each restricted state the restrictions, each distinct
    one built once there, of every schedule admitted at a full state extending it."""
    k, gather, _, _ = _relabeler(sys.n, cs)
    phi0 = {u: frozenset(mu.restrict(cs) for mu in ms) for u, ms in sys.phi0.items()}
    pi: dict[tuple[BitVec, Signal], dict[tuple, ProgressiveFunction]] = {}  # firings -> schedule
    halves: dict[Signal, list[tuple[BitVec, ProgressiveFunction]]] = {u: [] for u in sys.inputs}
    for (mu, u), rs in sys.pi.items():
        own = pi.setdefault((mc := mu.restrict(cs), u), {})
        for rho in rs:
            if (rc := own.get(ev := _fired(rho.events, gather))) is None:
                rc = own[ev] = ProgressiveFunction._derived(k, None, ev, sys.horizon, ev)
            halves[u].append((mc, rc))
    pi = {key: frozenset(rs.values()) for key, rs in pi.items()}
    return RegularSystem._derived(project_fn(sys.phi, cs), sys.inputs, phi0, pi), halves


def realize(sys: RegularSystem, horizon: Tick) -> dict[Signal, SignalSet]:
    """Run every (mu, u, rho) the bundle admits and collect the trajectories:
    a dict from each input, in the order of `sys.inputs`, to its signal set."""
    if horizon != sys.horizon:
        raise HorizonMismatch(f"horizon {horizon} does not match the system's {sys.horizon}")
    return {u: SignalSet(sys.n, horizon, (run(sys.phi, mu, u, rho, horizon)
                                          for mu in sys.phi0[u] for rho in sys.pi[(mu, u)]))
            for u in sys.inputs}


def initial_state_function(out: dict[Signal, SignalSet]) -> dict[Signal, frozenset[BitVec]]:
    """Per input, the set of initial values occurring in the realized states."""
    return {u: frozenset(BitVec(x.width, x.initial) for x in sigs) for u, sigs in out.items()}


def parallel_system(a: RegularSystem, b: RegularSystem) -> RegularSystem:
    """Parallel connection: both bundles act independently under a common input.

    Admits the inputs both factors admit; initial states multiply pointwise
    and schedule sets multiply through the merged-grid schedule product
    (prefix-progressive, by Lemma 1), so nothing needs checking.
    """
    phi = parallel_fn(a.phi, b.phi)  # refuses unequal input widths and n+m past the limit
    if a.horizon != b.horizon:
        raise HorizonMismatch(f"horizons differ: {a.horizon} vs {b.horizon}")
    b_inputs = set(b.inputs)
    shared = tuple(u for u in a.inputs if u in b_inputs)
    if not shared:
        raise InvalidSystem("the factors admit no common input")
    check_count(sum(
        sum(len(a.pi[(ma, u)]) for ma in a.phi0[u]) * sum(len(b.pi[(mb, u)]) for mb in b.phi0[u])
        for u in shared
    ), "woven schedules in the composed bundle")
    phi0 = {u: frozenset(ma.concat(mb) for ma in a.phi0[u] for mb in b.phi0[u]) for u in shared}
    pi = {
        (ma.concat(mb), u): frozenset(product_rho(ra, rb) for ra in a.pi[(ma, u)] for rb in b.pi[(mb, u)])
        for u in shared for ma in a.phi0[u] for mb in b.phi0[u]
    }
    return RegularSystem._derived(phi, shared, phi0, pi)


def _trajectory_classes(sys: RegularSystem, runs, mu: BitVec, u: Signal) -> dict[Signal, ProgressiveFunction]:
    """Each trajectory the bundle admits from (mu, u), mapped to the least schedule that runs it, read from `runs`."""
    classes: dict[Signal, ProgressiveFunction] = {}
    for rho in sorted(sys.pi[(mu, u)]):
        classes.setdefault(runs[mu, u, rho], rho)
    return classes


def _product_condition(
    sys: RegularSystem, bs, cs, first, second, short: dict[Signal, tuple[set, SignalSet, SignalSet]]
) -> tuple[Signal, BitVec, ProgressiveFunction, ProgressiveFunction] | None:
    """None if every schedule product of the factors is trajectory-covered,
    else the first witness (u, mu, rho_block, rho_rest) of the sorted loop over
    schedule pairs.  `first` and `second` are the restrictions of `sys` to bs
    and cs, each with its runs; `short[u]` holds, for each input u that falls
    short of its hull, the pairs (x on bs, x on cs) of f(u) and the factors'
    realizations.  By Theorem 27 a woven pair runs to the product of its
    factors' runs, so the loop goes over the factors' trajectory classes, runs
    and weaves nothing, and visits only states whose halves start fewer pairs
    than the hull does; the witness is the first pair that f(u) lacks.
    """
    for u, (pairs, out_b, out_c) in short.items():
        from_b, from_c = Counter(x.initial for x in out_b), Counter(x.initial for x in out_c)
        started = Counter((xb.initial, xc.initial) for xb, xc in pairs)
        for mu in sys.phi0[u]:
            mb, mc = mu.restrict(bs), mu.restrict(cs)
            if started[mb.value, mc.value] < from_b[mb.value] * from_c[mc.value]:
                rests = _trajectory_classes(*second, mc, u).items()
                for xb, rb in _trajectory_classes(*first, mb, u).items():
                    for xc, rc in rests:
                        if (xb, xc) not in pairs:
                            return u, mu, rb, rc
    return None


class DecompositionResult(_Value):
    """Factors of a system decomposition plus the verified verdict.

    `status` is "equal" when, for every input u, the system's realization,
    each trajectory read as its pair (on the block, on the complement),
    equals the hull f'(u) x f''(u) of the factors' realizations; else
    "strict-subset".  `hull_sizes` holds (u, |f(u)|, |f'(u) x f''(u)|).
    `phi0_product_form` and `product_witness` (None when the schedule product
    condition holds) record Theorem 34's conditions apart from the verdict,
    which must agree with them (see `decompose_system`).
    """

    __slots__ = _fields = ("first", "second", "status", "partition", "phi0_product_form",
                           "product_witness", "hull_sizes")


def decompose_system(
    sys: RegularSystem, block: Iterable[int], horizon: Tick
) -> DecompositionResult:
    """Decompose at a separated block and verify the parallel hull, from the factors alone.

    Refuses with a dependency witness (`NotSeparatedError`) if the block is
    not separated.  The factors f' and f'' are `sys.restrict` to the block and
    to its complement, both ascending; each factor runs each (mu, u, rho) it
    admits once, and the full bundle never runs.  By Theorem 27 the run of
    (mu, u, rho) read on the block is the block factor's run from mu and rho
    read there, and so on the complement: each trajectory of f(u) is read as
    its pair of factor runs, in (f' || f'')(u) = f'(u) x f''(u).  The verdict
    is "equal" iff the pairs number |f'(u)| * |f''(u)| for every u.  The
    hulls of the inputs that fall short are counted against the size limit,
    never built, and the product condition is read off their missing pairs.
    Theorem 34 is cross-checked both ways: `InvalidSystem` unless "equal"
    goes with phi0 in product form and no `product_witness`.
    """
    bs, cs = _separated_blocks(sys.phi, block)
    if horizon != sys.horizon:
        raise HorizonMismatch(f"horizon {horizon} does not match the system's {sys.horizon}")
    (first, halves_b), (second, halves_c) = _restricted(sys, bs), _restricted(sys, cs)
    runs_b, runs_c = ({(mu, u, rho): run(f.phi, mu, u, rho, horizon) for (mu, u), rs in f.pi.items() for rho in rs}
                      for f in (first, second))
    # mu -> (mu on bs, mu on cs) is one-to-one into first.phi0[u] x second.phi0[u], so onto iff the sizes agree
    product_form = all(len(sys.phi0[u]) == len(first.phi0[u]) * len(second.phi0[u]) for u in sys.inputs)

    sizes, short = [], {}
    for u in sys.inputs:
        out_b, out_c = (SignalSet(f.n, horizon, (runs[mu, u, rho] for mu in f.phi0[u] for rho in f.pi[(mu, u)]))
                        for f, runs in ((first, runs_b), (second, runs_c)))
        pairs = {(runs_b[mb, u, rb], runs_c[mc, u, rc]) for (mb, rb), (mc, rc) in zip(halves_b[u], halves_c[u])}
        hull = len(out_b) * len(out_c)
        if len(pairs) < hull:  # a subset of a finite product, of the product's size, is all of it
            short[u] = pairs, out_b, out_c
        sizes.append((u, len(pairs), hull))

    equal = not short
    check_count(sum(len(b) * len(c) for _, b, c in short.values()), "trajectories in the hulls")
    witness = _product_condition(sys, bs, cs, (first, runs_b), (second, runs_c), short)
    if (product_form and witness is None) != equal:
        raise InvalidSystem("Theorem 34's conditions disagree with the realizations; horizon artifact")
    return DecompositionResult(first, second, "equal" if equal else "strict-subset", Partition((bs, cs)),
                               product_form, witness, tuple(sizes))
