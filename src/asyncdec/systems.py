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
its pair in f'(u) x f''(u); it builds no hull and weaves no schedules.
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
        """The bundle on the state coordinates `coords`, in that order: the
        table `project_fn(phi, coords)`, every initial state restricted, and at
        each restricted state the restrictions of every schedule admitted at a
        full state extending it (prefix-progressive, as they are).  The inputs are unchanged."""
        cs = tuple(coords)
        k, gather, _, _ = _relabeler(self.n, cs)
        phi0 = {u: frozenset(mu.restrict(cs) for mu in ms) for u, ms in self.phi0.items()}
        fired: dict[tuple[BitVec, Signal], set[tuple]] = {}
        for (mu, u), rs in self.pi.items():  # firings first: each distinct schedule is built once
            fired.setdefault((mu.restrict(cs), u), set()).update(_fired(rho.events, gather) for rho in rs)
        pi = {key: frozenset([ProgressiveFunction._derived(k, None, ev, self.horizon, ev) for ev in evs])
              for key, evs in fired.items()}
        return RegularSystem._derived(project_fn(self.phi, cs), self.inputs, phi0, pi)


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


def _trajectory_classes(sys: RegularSystem, mu: BitVec, u: Signal) -> dict[Signal, ProgressiveFunction]:
    """Each trajectory the bundle admits from (mu, u), mapped to the least schedule that runs it."""
    classes: dict[Signal, ProgressiveFunction] = {}
    for rho in sorted(sys.pi[(mu, u)]):
        classes.setdefault(run(sys.phi, mu, u, rho, sys.horizon), rho)
    return classes


def _product_condition(
    sys: RegularSystem, bs, cs, first, second, short: dict[Signal, tuple[set, SignalSet, SignalSet]]
) -> tuple[Signal, BitVec, ProgressiveFunction, ProgressiveFunction] | None:
    """None if every schedule product of the factors `first` and `second`, the
    restrictions of `sys` to bs and cs, is trajectory-covered, else the first
    witness (u, mu, rho_block, rho_rest) of the sorted loop over schedule pairs.
    `short[u]` holds, for each input u that falls short of its hull, the pairs
    (x on bs, x on cs) of f(u) and the factors' realizations.  By Theorem 27 a
    woven pair runs to the product of its factors' runs, so the loop goes over
    the factors' trajectory classes, each kept as its least schedule, weaves
    nothing, and visits only states whose halves start fewer pairs than the
    hull does; the witness is the first pair that f(u) lacks.
    """
    for u, (pairs, out_b, out_c) in short.items():
        from_b, from_c = Counter(x.initial for x in out_b), Counter(x.initial for x in out_c)
        started = Counter((xb.initial, xc.initial) for xb, xc in pairs)
        for mu in sys.phi0[u]:
            mb, mc = mu.restrict(bs), mu.restrict(cs)
            if started[mb.value, mc.value] < from_b[mb.value] * from_c[mc.value]:
                rests = _trajectory_classes(second, mc, u).items()
                for xb, rb in _trajectory_classes(first, mb, u).items():
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
    """Decompose at a separated block and verify the parallel hull.

    Refuses with a dependency witness (`NotSeparatedError`) if the block is
    not separated.  The factors f' and f'' are `sys.restrict` to the block
    and to its complement, both ascending.  The hull of input u is
    (f' || f'')(u) = f'(u) x f''(u), the product of the factors'
    realizations, counted against the size limit and never built: each
    trajectory of the system is read as its pair (on the block, on the
    complement), which must lie in the product (checked, not assumed), and
    the verdict is "equal" iff the pairs number |f'(u)| * |f''(u)| for every
    u, so a truncation artifact can never misreport equality.  The product
    condition is read off the missing pairs, and Theorem 34 is cross-checked both ways:
    `InvalidSystem` unless "equal" goes with phi0 in product form and no `product_witness`.
    """
    bs, cs = _separated_blocks(sys.phi, block)
    partition = Partition((bs, cs))
    first, second = sys.restrict(bs), sys.restrict(cs)
    own, out_b, out_c = realize(sys, horizon), realize(first, horizon), realize(second, horizon)
    # mu -> (mu on bs, mu on cs) is one-to-one into first.phi0[u] x second.phi0[u], so onto iff the sizes agree
    product_form = all(len(sys.phi0[u]) == len(first.phi0[u]) * len(second.phi0[u]) for u in sys.inputs)

    check_count(sum(len(out_b[u]) * len(out_c[u]) for u in sys.inputs), "trajectories in the hulls")
    sizes, short = [], {}
    for u in sys.inputs:
        pairs = {(x.restrict(bs), x.restrict(cs)) for x in own[u]}
        if not all(xb in out_b[u].members and xc in out_c[u].members for xb, xc in pairs):
            raise InvalidSystem(f"decomposition lost a trajectory for input {u}; this should be impossible")
        hull = len(out_b[u]) * len(out_c[u])
        if len(pairs) < hull:  # a subset of a finite product, of the product's size, is all of it
            short[u] = pairs, out_b[u], out_c[u]
        sizes.append((u, len(own[u]), hull))

    equal = not short
    witness = _product_condition(sys, bs, cs, first, second, short)
    if (product_form and witness is None) != equal:
        raise InvalidSystem("Theorem 34's conditions disagree with the realizations; horizon artifact")
    return DecompositionResult(first, second, "equal" if equal else "strict-subset", partition,
                               product_form, witness, tuple(sizes))
