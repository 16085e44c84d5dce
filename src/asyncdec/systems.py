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
its pair in f'(u) x f''(u), two numbered factor runs by Theorem 27: it runs
the factors, never the full bundle, and builds no hull and no woven schedule.
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
    """The bundle on the coordinates `cs`, in that order, its distinct triples
    (mu on cs, u, rho on cs) as a list, and per input the index (handle) there
    of each admitted (mu, rho)'s triple, in `sys.pi`'s order.  One pass builds
    the table `project_fn(phi, cs)`, every initial state restricted and, once
    per restricted state, each distinct restriction of the schedules admitted above it."""
    k, gather, _, _ = _relabeler(sys.n, cs)
    phi0 = {u: frozenset(mu.restrict(cs) for mu in ms) for u, ms in sys.phi0.items()}
    pi: dict[tuple[BitVec, Signal], dict[tuple, int]] = {}  # firings -> handle
    triples, handles = [], {u: [] for u in sys.inputs}
    for (mu, u), rs in sys.pi.items():
        own, admitted = pi.setdefault((mc := mu.restrict(cs), u), {}), handles[u]
        for rho in rs:
            if (h := own.get(ev := _fired(rho.events, gather))) is None:
                h = own[ev] = len(triples)
                triples.append((mc, u, ProgressiveFunction._derived(k, None, ev, sys.horizon, ev)))
            admitted.append(h)
    pi = {key: frozenset(triples[h][2] for h in own.values()) for key, own in pi.items()}
    return RegularSystem._derived(project_fn(sys.phi, cs), sys.inputs, phi0, pi), triples, handles


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


def _trajectory_classes(triples, nums: list[int], mu: BitVec, handles: list[int]) -> dict[int, ProgressiveFunction]:
    """Each trajectory run from `mu` by a triple of `handles`, as its number in `nums`, mapped to its least schedule."""
    classes: dict[int, ProgressiveFunction] = {}
    for rho, x in sorted((triples[h][2], nums[h]) for h in set(handles) if triples[h][0] == mu):
        classes.setdefault(x, rho)
    return classes


def _product_condition(sys: RegularSystem, bs, cs, first, second, short: dict[Signal, tuple[set, set, set]]
                       ) -> tuple[Signal, BitVec, ProgressiveFunction, ProgressiveFunction] | None:
    """None if every schedule product of the factors is trajectory-covered,
    else the first witness (u, mu, rho_block, rho_rest) of the sorted loop
    over schedule pairs.  `first` and `second` hold each factor's triples,
    handles, run numbers and runs (see `decompose_system`); `short[u]` holds
    f(u), f'(u) and f''(u) in run numbers for each input u that falls short
    of its hull.  By Theorem 27 a woven pair runs to the product of its
    factors' runs, so the loop goes over the factors' trajectory classes, runs
    and weaves nothing, and visits only states whose halves start fewer pairs
    than the hull does; the witness is the first pair that f(u) lacks."""
    (tb, hb, nb, xb), (tc, hc, nc, xc) = first, second
    for u, (pairs, out_b, out_c) in short.items():
        from_b, from_c = Counter(xb[r].initial for r in out_b), Counter(xc[r].initial for r in out_c)
        started = Counter((xb[rb].initial, xc[rc].initial) for rb, rc in pairs)
        for mu in sys.phi0[u]:
            mb, mc = mu.restrict(bs), mu.restrict(cs)
            if started[mb.value, mc.value] < from_b[mb.value] * from_c[mc.value]:
                rests = _trajectory_classes(tc, nc, mc, hc[u]).items()
                for x, rb in _trajectory_classes(tb, nb, mb, hb[u]).items():
                    for y, rc in rests:
                        if (x, y) not in pairs:
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
    admits once and numbers the distinct runs; the full bundle never runs.
    By Theorem 27 the run of (mu, u, rho) read on the block is the block
    factor's run from mu and rho read there, and so on the complement: each
    trajectory of f(u) is a pair of factor run numbers, in (f' || f'')(u) =
    f'(u) x f''(u).  The verdict is "equal" iff the pairs number
    |f'(u)| * |f''(u)| for every u.  The hulls of the inputs that fall short
    are counted against the size limit, never built, and the product condition
    is read off their missing pairs.  Theorem 34 is cross-checked both ways:
    `InvalidSystem` unless "equal" goes with phi0 in product form and no `product_witness`.
    """
    bs, cs = _separated_blocks(sys.phi, block)
    if horizon != sys.horizon:
        raise HorizonMismatch(f"horizon {horizon} does not match the system's {sys.horizon}")
    sides = []
    for f, triples, handles in (_restricted(sys, bs), _restricted(sys, cs)):
        ids: dict[Signal, int] = {}  # each distinct run, numbered in the order of its first triple
        nums = [ids.setdefault(run(f.phi, mu, u, rho, horizon), len(ids)) for mu, u, rho in triples]
        sides.append((f, triples, handles, nums, list(ids)))
    (first, *side_b), (second, *side_c) = sides
    # mu -> (mu on bs, mu on cs) is one-to-one into first.phi0[u] x second.phi0[u], so onto iff the sizes agree
    product_form = all(len(sys.phi0[u]) == len(first.phi0[u]) * len(second.phi0[u]) for u in sys.inputs)

    sizes, short = [], {}
    for u in sys.inputs:  # each admitted (mu, rho) as its two run numbers
        ib, ic = ([*map(nums.__getitem__, handles[u])] for _, handles, nums, _ in (side_b, side_c))
        pairs, out_b, out_c = set(zip(ib, ic)), set(ib), set(ic)
        hull = len(out_b) * len(out_c)
        if len(pairs) < hull:  # a subset of a finite product, of the product's size, is all of it
            short[u] = pairs, out_b, out_c
        sizes.append((u, len(pairs), hull))

    equal = not short
    check_count(sum(len(b) * len(c) for _, b, c in short.values()), "trajectories in the hulls")
    witness = _product_condition(sys, bs, cs, side_b, side_c, short)
    if (product_form and witness is None) != equal:
        raise InvalidSystem("Theorem 34's conditions disagree with the realizations; horizon artifact")
    return DecompositionResult(first, second, "equal" if equal else "strict-subset", Partition((bs, cs)),
                               product_form, witness, tuple(sizes))
