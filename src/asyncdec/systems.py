"""Regular asynchronous systems as finite explicit bundles.

A bundle holds a generator function, a finite list of admissible inputs, an
initial-state map phi0 and a schedule map pi whose domain is exactly the
pairs (mu, u) with mu in phi0(u).  Realizing the bundle runs every admitted
combination and collects the canonical trajectories per input; this is the
computation-function form of a regular system, at finite-prefix scale.

A bundle relabels like every other kind, by `restrict(coords)`; restricted
to separated blocks, it gives the factors of a decomposition.  `restrict`
and `parallel_system` build their bundles unchecked (`_derived`), valid by
construction from checked ones.  `_decompositions` walks a partition into
separated blocks once, `decompose_system` (Theorem 34) is its one step, and
by Theorem 27 each trajectory is a tuple of block-factor runs: neither the
full bundle nor a rest of blocks runs, and no hull or weave is built.
`realize` runs the full bundle; the tests check the walk against it.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Iterable, Iterator, Mapping

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
        return _restricted(self, tuple(coords), self.pi.items())[0]


def _restricted(sys: RegularSystem, cs: tuple[int, ...], admitted: Iterable):
    """The bundle on the coordinates `cs`, in that order, its distinct triples (mu on cs,
    u, rho on cs) as a list, and per input the index (handle) there of each schedule of
    `admitted`, ((mu, u), schedules) groups covering `sys.pi`, in their order.  One pass
    builds every restricted state and, once per restricted state, each distinct restriction."""
    k, gather, _, _ = _relabeler(sys.n, cs)
    phi0 = {u: frozenset(mu.restrict(cs) for mu in ms) for u, ms in sys.phi0.items()}
    pi: dict[tuple[BitVec, Signal], dict[tuple, int]] = {}  # firings -> handle
    triples, handles = [], {u: [] for u in sys.inputs}
    for (mu, u), rs in admitted:
        own, mine = pi.setdefault((mc := mu.restrict(cs), u), {}), handles[u]
        for rho in rs:
            if (h := own.get(ev := _fired(rho.events, gather))) is None:
                h = own[ev] = len(triples)
                triples.append((mc, u, ProgressiveFunction._derived(k, None, ev, sys.horizon, ev)))
            mine.append(h)
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


def _product_condition(sys: RegularSystem, bs, cs, first, second, short: dict[Signal, set]
                       ) -> tuple[Signal, BitVec, ProgressiveFunction, ProgressiveFunction] | None:
    """None if every schedule product of the factors is trajectory-covered, else
    the first witness (u, mu, rho_block, rho_rest): over `sys.phi0[u]` in order and
    each side's trajectory classes by least schedule, the first pair that f(u) lacks
    (`short[u]`, for each input short of its hull).  `first` and `second` hold each
    side's triples, handles and numbers.  By Theorem 27 the loop runs nothing; mu ->
    (mu on bs, mu on cs) is one-to-one, so the pairs tried are distinct, in the hulls."""
    for u, pairs in short.items():
        least = [{}, {}]  # per side: state's value -> {number: least schedule}
        for (triples, handles, nums), classes in zip((first, second), least):
            for h in sorted(set(handles[u]), key=lambda h: triples[h][2].key):  # the schedules' order
                classes.setdefault(triples[h][0].value, {}).setdefault(nums[h], triples[h][2])
        for mu in sys.phi0[u]:
            b, c = (classes[mu.restrict(xs).value].items() for classes, xs in zip(least, (bs, cs)))
            for (x, rb), (y, rc) in product(b, c):
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


def decompose_system(sys: RegularSystem, block: Iterable[int], horizon: Tick) -> DecompositionResult:
    """Decompose at a separated block and verify the parallel hull, from the factors alone.

    The one step of `_decompositions` at the block and its complement, both
    ascending.  Refuses with a dependency witness (`NotSeparatedError`) if the
    block is not separated, and at a horizon other than the system's.
    """
    bs, cs = _separated_blocks(sys.phi, block)
    if horizon != sys.horizon:
        raise HorizonMismatch(f"horizon {horizon} does not match the system's {sys.horizon}")
    [result] = _decompositions(sys, (bs, cs))
    return result


def _decompositions(sys: RegularSystem, blocks) -> Iterator[DecompositionResult]:
    """Decompose `sys` along `blocks`, two or more separated blocks, ascending
    tuples that partition 1..n (not checked here).  Step s splits the bundle on
    blocks s onward, coordinates ascending, into f' on block s and f'' on the
    rest, which step s + 1 splits from this step's rest triples, so that its
    handles line up with them.  Only the blocks' factors run.  By Theorem 27 a
    run read on a separated block is that block factor's run, so each
    trajectory of f(u) is a pair of numbers in (f' || f'')(u) = f'(u) x f''(u),
    and a rest triple's is the pair the next step gives it.  A step is "equal"
    iff the pairs number |f'(u)| * |f''(u)| for every u; the hulls of the inputs
    that fall short are counted against the size limit, never built, and the
    product condition is read off their missing pairs.  Theorem 34 is checked
    both ways: `InvalidSystem` unless "equal" goes with phi0 in product form
    and no `product_witness`.  Each step is yielded, or refused, in turn."""
    rest, triples, steps, horizon = blocks, None, [], sys.horizon  # the blocks left, in their bundle's coordinates
    for _ in blocks[:-1]:
        admitted = sys.pi.items() if triples is None else [((mu, u), (rho,)) for mu, u, rho in triples]
        bs, *rest = rest
        cs = tuple(sorted(chain(*rest)))
        steps.append([sys, bs, cs, _restricted(sys, bs, admitted), _restricted(sys, cs, admitted)])
        sys, triples, _ = steps[-1][-1]
        if rest[1:]:  # the next step's blocks, renumbered in this step's rest
            at = {c: k for k, c in enumerate(cs, 1)}
            rest = [tuple([at[c] for c in b]) for b in rest]
    ids = {}  # each distinct run of the last block, numbered in the order of its first triple
    nc = [ids.setdefault(run(sys.phi, mu, u, rho, horizon), len(ids)) for mu, u, rho in triples]
    for k in reversed(range(len(steps))):
        (f, tb, hb), (g, tc, hc) = steps[k][3:]
        ids = {}
        nb = [ids.setdefault(run(f.phi, mu, u, rho, horizon), len(ids)) for mu, u, rho in tb]
        steps[k][3:] = (f, tb, hb, nb), (g, tc, hc, nc)
        if k:  # the previous step's rest triples, each numbered by its pair of numbers here
            at, ids = {u: zip(map(nb.__getitem__, hb[u]), map(nc.__getitem__, hc[u])) for u in hb}, {}
            nc = [ids.setdefault(next(at[u]), len(ids)) for _, u, _ in steps[k - 1][4][1]]
    for sys, bs, cs, (first, *side_b), (second, *side_c) in steps:
        # mu -> (mu on bs, mu on cs) is one-to-one into first.phi0[u] x second.phi0[u], so onto iff the sizes agree
        product_form = all(len(sys.phi0[u]) == len(first.phi0[u]) * len(second.phi0[u]) for u in sys.inputs)
        sizes, short = [], {}
        for u in sys.inputs:  # each admitted (mu, rho) as its two numbers
            ib, ic = ([*map(nums.__getitem__, handles[u])] for _, handles, nums in (side_b, side_c))
            pairs, hull = set(zip(ib, ic)), len(set(ib)) * len(set(ic))
            if len(pairs) < hull:  # a subset of a finite product, of the product's size, is all of it
                short[u] = pairs
            sizes.append((u, len(pairs), hull))
        check_count(sum(hull for _, own, hull in sizes if own < hull), "trajectories in the hulls")
        witness = _product_condition(sys, bs, cs, side_b, side_c, short)
        if (product_form and witness is None) != (not short):
            raise InvalidSystem("Theorem 34's conditions disagree with the realizations; horizon artifact")
        yield DecompositionResult(first, second, "strict-subset" if short else "equal", Partition((bs, cs)),
                                  product_form, witness, tuple(sizes))
