"""System bundles: realization, parallel connection, decomposition."""

import random

import pytest

from asyncdec import (
    BitVec,
    CoordinateError,
    GeneratorFn,
    HorizonMismatch,
    InvalidSystem,
    NotSeparatedError,
    ProgressiveFunction,
    RegularSystem,
    Signal,
    SignalSet,
    decompose_system,
    initial_state_function,
    parallel_system,
    product_rho,
    product_signal,
    realize,
    round_robin,
    run,
    unit_step,
)
from asyncdec.frontend.checks import diagonal_example, rand_fn, rand_system

bv = BitVec.from_string


def val(text):
    """The int a bit string denotes, coordinate 1 first: "10" is 1."""
    return int(text[::-1], 2)


H = 10


def fn(n, m, f):
    return GeneratorFn.from_function(n, m, f)


def rho(width, events):
    return ProgressiveFunction(width, tuple((t, val(v)) for t, v in events), H)


def follower():
    return fn(1, 1, lambda mu, lam: lam)


def step_system(fire_ticks=(1, 2)):
    """Scalar follower with phi0 = {0} and one single-fire schedule per tick."""
    u = unit_step(0, H)
    phi0 = {u: frozenset([bv("0")])}
    pi = {(bv("0"), u): frozenset(rho(1, [(t, "1")]) for t in fire_ticks)}
    return RegularSystem(follower(), (u,), phi0, pi)


# -- realize ---------------------------------------------------------------


def test_realize_singletons():
    sys_ = step_system(fire_ticks=(1,))
    out = realize(sys_, H)
    for u in sys_.inputs:
        assert len(out[u]) == 1


def test_realize_identity_constants():
    u = unit_step(0, H)
    phi = GeneratorFn.identity(2, 1)
    states = frozenset([bv("00"), bv("11")])
    pi = {(mu, u): frozenset([round_robin(2, (1,), H)]) for mu in states}
    out = realize(RegularSystem(phi, (u,), {u: states}, pi), H)
    assert out[u] == SignalSet(2, H, [Signal(2, val("00"), (), H), Signal(2, val("11"), (), H)])


def test_realize_follower_two_schedules():
    out = realize(step_system(fire_ticks=(1, 2)), H)
    u = unit_step(0, H)
    assert out[u] == SignalSet(1, H, [unit_step(1, H), unit_step(2, H)])


def test_pi_domain_must_match_phi0():
    u = unit_step(0, H)
    phi0 = {u: frozenset([bv("0")])}
    pi = {
        (bv("0"), u): frozenset([rho(1, [(1, "1")])]),
        (bv("1"), u): frozenset([rho(1, [(1, "1")])]),
    }
    with pytest.raises(InvalidSystem):
        RegularSystem(follower(), (u,), phi0, pi)


def test_a_system_refuses_an_empty_initial_state_or_schedule_set():
    u = unit_step(0, H)
    with pytest.raises(InvalidSystem) as refused:
        RegularSystem(follower(), (u,), {u: frozenset()}, {})
    assert str(refused.value) == "phi0 is empty for input n=1 init=0 H=10 events=(0,1)"
    with pytest.raises(InvalidSystem) as refused:
        RegularSystem(follower(), (u,), {u: frozenset([bv("0")])}, {(bv("0"), u): frozenset()})
    assert str(refused.value) == "pi is empty at (0, n=1 init=0 H=10 events=(0,1))"


def test_realize_refuses_a_horizon_other_than_the_systems():
    with pytest.raises(HorizonMismatch) as refused:
        realize(step_system(), H - 1)
    assert type(refused.value) is HorizonMismatch and str(refused.value) == "horizon 9 does not match the system's 10"


def test_realize_contained_in_enumeration():
    rng = random.Random(17)
    for _ in range(20):
        phi = rand_fn(rng, 2, 1)
        sys_ = rand_system(rng, phi, H, n_inputs=1)
        out = realize(sys_, H)
        for u in sys_.inputs:
            schedules = set()
            for mu in sys_.phi0[u]:
                schedules |= sys_.pi[(mu, u)]
            hull = {run(phi, mu, u, r, H) for mu in sys_.phi0[u] for r in schedules}
            assert set(out[u]) <= hull


# -- initial state function --------------------------------------------------


def test_initial_states_survive_realization():
    sys_ = step_system()
    out = realize(sys_, H)
    assert initial_state_function(out) == {unit_step(0, H): frozenset([bv("0")])}


def test_initial_states_of_constants():
    u = unit_step(0, H)
    phi = GeneratorFn.identity(2, 1)
    states = frozenset([bv("00"), bv("11")])
    pi = {(mu, u): frozenset([round_robin(2, (1,), H)]) for mu in states}
    out = realize(RegularSystem(phi, (u,), {u: states}, pi), H)
    assert initial_state_function(out)[u] == states


def test_initial_states_of_parallel_are_products():
    a = step_system(fire_ticks=(1,))
    b = step_system(fire_ticks=(2,))
    par = parallel_system(a, b)
    out = realize(par, H)
    fa = initial_state_function(realize(a, H))
    fb = initial_state_function(realize(b, H))
    for u in par.inputs:
        expected = frozenset(x.concat(y) for x in fa[u] for y in fb[u])
        assert initial_state_function(out)[u] == expected


# -- parallel systems ---------------------------------------------------------


def test_parallel_singleton_factors():
    a = step_system(fire_ticks=(1,))
    b = step_system(fire_ticks=(2,))
    par = parallel_system(a, b)
    out = realize(par, H)
    u = unit_step(0, H)
    assert out[u] == SignalSet(2, H, [product_signal(unit_step(1, H), unit_step(2, H))])


def test_parallel_output_is_product_set():
    rng = random.Random(23)
    for _ in range(15):
        fa, fb = rand_fn(rng, 1, 1), rand_fn(rng, 2, 1)
        a = rand_system(rng, fa, H, n_inputs=1)
        b = RegularSystem(fb, a.inputs, *_rand_maps(rng, fb, a.inputs))
        par = parallel_system(a, b)
        oa, ob, op = realize(a, H), realize(b, H), realize(par, H)
        for u in par.inputs:
            assert op[u] == SignalSet(3, H, (product_signal(x, y) for x in oa[u] for y in ob[u]))


def _rand_maps(rng, phi, inputs):
    from asyncdec.frontend.checks import rand_rho

    phi0 = {}
    pi = {}
    for u in inputs:
        states = rng.sample(range(1 << phi.n), rng.randint(1, 3))
        phi0[u] = frozenset(BitVec(phi.n, s) for s in states)
        for mu in phi0[u]:
            pi[(mu, u)] = frozenset(rand_rho(rng, phi.n, u.horizon) for _ in range(2))
    return phi0, pi


def test_parallel_cardinality():
    u = unit_step(0, H)
    a = RegularSystem(
        follower(),
        (u,),
        {u: frozenset([bv("0")])},
        {(bv("0"), u): frozenset(rho(1, [(t, "1")]) for t in (1, 2))},
    )
    b = RegularSystem(
        follower(),
        (u,),
        {u: frozenset([bv("0")])},
        {(bv("0"), u): frozenset(rho(1, [(t, "1")]) for t in (3, 4, 5))},
    )
    out = realize(parallel_system(a, b), H)
    assert len(out[u]) == 6


def test_parallel_with_constant_factor_embeds():
    a = step_system(fire_ticks=(1, 2))
    const = RegularSystem(
        GeneratorFn.identity(1, 1),
        a.inputs,
        {a.inputs[0]: frozenset([bv("1")])},
        {(bv("1"), a.inputs[0]): frozenset([rho(1, [(1, "1")])])},
    )
    out = realize(parallel_system(a, const), H)
    assert len(out[a.inputs[0]]) == 2


def test_parallel_requires_common_input():
    a = step_system()
    other = unit_step(5, H)
    b = RegularSystem(
        follower(),
        (other,),
        {other: frozenset([bv("0")])},
        {(bv("0"), other): frozenset([rho(1, [(6, "1")])])},
    )
    with pytest.raises(InvalidSystem):
        parallel_system(a, b)


# -- projections ---------------------------------------------------------------


def two_bit_system(phi, phi0_bits, pis):
    u = unit_step(0, H)
    phi0 = {u: frozenset(bv(b) for b in phi0_bits)}
    pi = {(bv(b), u): frozenset(pis[b]) for b in phi0_bits}
    return RegularSystem(phi, (u,), phi0, pi), u


def test_project_phi0_blocks():
    sys_, u = two_bit_system(
        GeneratorFn.identity(2, 1),
        ("00", "11"),
        {"00": [round_robin(2, (1,), H)], "11": [round_robin(2, (1,), H)]},
    )
    assert sys_.restrict((1,)).phi0[u] == frozenset([bv("0"), bv("1")])
    sys2, u2 = two_bit_system(
        GeneratorFn.identity(2, 1),
        ("01", "00"),
        {"01": [round_robin(2, (1,), H)], "00": [round_robin(2, (1,), H)]},
    )
    assert sys2.restrict((2,)).phi0[u2] == frozenset([bv("1"), bv("0")])


def test_project_phi0_product_roundtrip():
    a = step_system(fire_ticks=(1,))
    b = step_system(fire_ticks=(2,))
    par = parallel_system(a, b)
    assert par.restrict((1,)).phi0 == a.phi0
    assert par.restrict((2,)).phi0 == b.phi0


def test_project_pi_singleton():
    sys_, u = two_bit_system(
        GeneratorFn.identity(2, 1),
        ("00",),
        {"00": [rho(2, [(1, "10"), (2, "01")])]},
    )
    projected = sys_.restrict((1,)).pi
    assert projected[(bv("0"), u)] == frozenset([rho(1, [(1, "1")])])


def test_project_pi_unions_over_extensions():
    # two full states share the same first coordinate; their schedule sets merge
    sys_, u = two_bit_system(
        GeneratorFn.identity(2, 1),
        ("00", "01"),
        {
            "00": [rho(2, [(1, "11")])],
            "01": [rho(2, [(2, "11")])],
        },
    )
    projected = sys_.restrict((1,)).pi
    assert projected[(bv("0"), u)] == frozenset(
        [rho(1, [(1, "1")]), rho(1, [(2, "1")])]
    )


def test_project_pi_of_parallel_recovers_factor():
    a = step_system(fire_ticks=(1,))
    b = step_system(fire_ticks=(2,))
    par = parallel_system(a, b)
    assert par.restrict((1,)).pi == a.pi
    assert par.restrict((2,)).pi == b.pi


def test_remark_containments_on_random_systems():
    rng = random.Random(29)
    for _ in range(15):
        fa, fb = rand_fn(rng, 1, 1), rand_fn(rng, 1, 1)
        from asyncdec import parallel_fn

        sys_ = rand_system(rng, parallel_fn(fa, fb), H, n_inputs=1)
        first, second = sys_.restrict((1,)), sys_.restrict((2,))
        p0b, p0c, pib, pic = first.phi0, second.phi0, first.pi, second.pi
        for u in sys_.inputs:
            hull = {x.concat(y) for x in p0b[u] for y in p0c[u]}
            assert sys_.phi0[u] <= hull
            for mu in sys_.phi0[u]:
                left = {r.restrict((1,)) for r in sys_.pi[(mu, u)]}
                right = {r.restrict((2,)) for r in sys_.pi[(mu, u)]}
                assert left <= pib[(mu.restrict((1,)), u)]
                assert right <= pic[(mu.restrict((2,)), u)]


def test_restrict_to_every_coordinate_is_a_relabeling():
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(1, 3)
        sys_ = rand_system(rng, rand_fn(rng, n, 1), H, n_inputs=rng.randint(1, 2))
        order = tuple(rng.sample(range(1, n + 1), n))
        relabeled, out = realize(sys_.restrict(order), H), realize(sys_, H)
        for u in sys_.inputs:
            assert relabeled[u] == SignalSet(n, H, (x.restrict(order) for x in out[u]))


@pytest.mark.parametrize("coords", [(), (1, 1), (0,), (3,)])
def test_restrict_checks_coordinates(coords):
    sys_, _ = two_bit_system(
        GeneratorFn.identity(2, 1), ("00",), {"00": [round_robin(2, (1,), H)]}
    )
    with pytest.raises(CoordinateError):
        sys_.restrict(coords)


# -- product condition ----------------------------------------------------------


def test_product_condition_on_product_form():
    a = step_system(fire_ticks=(1, 2))
    b = step_system(fire_ticks=(3,))
    par = parallel_system(a, b)
    # block {2} is not leading, so each product is relabeled back to the system's order
    result = decompose_system(par, (2,), H)
    assert result.partition.permutation == (2, 1)
    assert result.product_witness is None and result.status == "equal"


def test_product_condition_strict_subset_still_covered():
    # coordinate 2 holds under identity dynamics, so complement timing is
    # invisible and the two diagonal schedules cover all four products
    phi = fn(2, 1, lambda mu, lam: BitVec.from_bits([lam.bit(1), mu.bit(2)]))
    sys_, u = two_bit_system(
        phi,
        ("00",),
        {"00": [rho(2, [(1, "11")]), rho(2, [(2, "11")])]},
    )
    result = decompose_system(sys_, (1,), H)
    assert result.product_witness is None and result.status == "equal"
    # the projected sets have two schedules each, so the product has four
    assert len(result.first.pi[(bv("0"), u)]) == 2


def _diagonal_follower():
    """Both coordinates follow the input, fired together at tick 1 or at tick 2:
    the factors' schedules also pair tick 1 with tick 2, which no admitted
    schedule reproduces."""
    phi = fn(2, 1, lambda mu, lam: BitVec.from_bits([lam.bit(1), lam.bit(1)]))
    return two_bit_system(
        phi,
        ("00",),
        {"00": [rho(2, [(1, "11")]), rho(2, [(2, "11")])]},
    )


def test_product_condition_missing_trajectory():
    sys_, u = _diagonal_follower()
    result = decompose_system(sys_, (1,), H)
    assert result.phi0_product_form and result.status == "strict-subset"
    assert result.product_witness is not None
    wu, wmu, wb, wc = result.product_witness
    assert wu == u and wmu == bv("00")
    # the witness product really is uncovered: rerun it and compare
    woven = product_rho(wb, wc).restrict(result.partition.permutation)
    target = run(sys_.phi, wmu, u, woven, H)
    admitted = {run(sys_.phi, wmu, u, r, H) for r in sys_.pi[(wmu, u)]}
    assert target not in admitted


def _weave(n, bs, cs, rb, rc):
    """The width-n schedule that fires block coordinate bs[k] where rb fires
    its coordinate k+1 and complement coordinate cs[k] where rc does; built
    coordinate by coordinate, without `product_rho` or `restrict`."""
    ticks = sorted({t for t, _ in rb.events} | {t for t, _ in rc.events})
    firing = dict.fromkeys(ticks, 0)
    for coords, schedule in ((bs, rb), (cs, rc)):
        for t, v in schedule.events:
            for k, i in enumerate(coords):
                firing[t] |= ((v >> k) & 1) << (i - 1)
    return ProgressiveFunction(n, tuple(firing.items()), H)


def _product_condition_brute_force(sys_, result):
    """The product check by rerunning, per (mu, u), every admitted schedule and
    every weave of the factors' schedules; the first witness, or None."""
    bs, cs = result.partition.blocks
    for u in sys_.inputs:
        for mu in sys_.phi0[u]:
            admitted = {
                run(sys_.phi, mu, u, r, H) for r in sys_.pi[(mu, u)]
            }
            mb = BitVec.from_bits(mu.bit(i) for i in bs)
            mc = BitVec.from_bits(mu.bit(i) for i in cs)
            for rb in sorted(result.first.pi[(mb, u)]):
                for rc in sorted(result.second.pi[(mc, u)]):
                    woven = _weave(sys_.n, bs, cs, rb, rc)
                    if run(sys_.phi, mu, u, woven, H) not in admitted:
                        return u, mu, rb, rc
    return None


def test_product_condition_matches_brute_force():
    from asyncdec import parallel_fn, project_fn
    from asyncdec.frontend.checks import _product_form_system

    rng = random.Random(59)

    def permuted(na, nb, m):
        """A random table separated at a random block of na coordinates, and the block."""
        perm = rng.sample(range(1, na + nb + 1), na + nb)
        # coordinate i of the parallel function moves to position perm[i-1]
        order = sorted(range(1, na + nb + 1), key=lambda k: perm[k - 1])
        return project_fn(parallel_fn(rand_fn(rng, na, m), rand_fn(rng, nb, m)), order), perm[:na]

    cases = [(diagonal_example(), (1,)), (_diagonal_follower()[0], (2,))]
    for _ in range(60):
        phi, block = permuted(rng.randint(1, 2), rng.randint(1, 2), 1)
        cases.append((rand_system(rng, phi, H, n_inputs=rng.randint(1, 2)), block))
    for _ in range(40):  # blocks of three coordinates, or three beside one or two; up to three inputs
        na = rng.choice((3, rng.randint(1, 2)))
        phi, block = permuted(na, 3 if na < 3 else rng.randint(1, 2), rng.randint(1, 2))
        cases.append((rand_system(rng, phi, H, n_inputs=rng.randint(2, 3)), block))
    for _ in range(40):  # product form by construction
        na, nb, m = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2)
        cases.append((_product_form_system(rng, rand_fn(rng, na, m), rand_fn(rng, nb, m), H),
                      tuple(range(1, na + 1))))
    kinds = set()
    for sys_, block in cases:
        result = decompose_system(sys_, block, H)
        assert result.product_witness == _product_condition_brute_force(sys_, result)
        several, wide = len(sys_.inputs) > 1, 3 in map(len, result.partition.blocks)
        kinds.add((several, wide, result.product_witness is None))
    # both verdicts on one-input two-coordinate bundles and on wide multi-input ones
    assert kinds >= {(False, False, True), (False, False, False), (True, True, True), (True, True, False)}


@pytest.mark.parametrize("forced", [False, True])
def test_decompose_cross_checks_theorem34_both_ways(monkeypatch, forced):
    """A product condition that contradicts the verdict is an internal fault:
    failing on an `equal` bundle, or holding on a strict subset in product form."""
    import asyncdec.systems as systems_mod

    if forced:
        sys_ = _diagonal_follower()[0]
    else:
        sys_ = parallel_system(step_system((1, 2)), step_system((3,)))
    assert decompose_system(sys_, (1,), H).status == ("strict-subset" if forced else "equal")
    # no witness on a strict subset in product form, or a real one on an `equal` bundle
    witness = None if forced else decompose_system(_diagonal_follower()[0], (1,), H).product_witness
    assert forced or witness is not None
    monkeypatch.setattr(systems_mod, "_product_condition", lambda *args: witness)
    with pytest.raises(InvalidSystem, match="horizon artifact"):
        decompose_system(sys_, (1,), H)


def _counted_runs(monkeypatch):
    """A Counter of the (phi, mu, u, rho) that `systems.run` is called with from now on."""
    import asyncdec.systems as systems_mod
    from collections import Counter

    calls = Counter()
    real_run = systems_mod.run

    def counted_run(phi, mu, u, rho_, horizon):
        calls[(phi, mu, u, rho_)] += 1
        return real_run(phi, mu, u, rho_, horizon)

    monkeypatch.setattr(systems_mod, "run", counted_run)
    return calls


def _admitted(*bundles):
    from collections import Counter

    return sum((Counter((s.phi, mu, u, r) for u in s.inputs for mu in s.phi0[u] for r in s.pi[(mu, u)])
                for s in bundles), Counter())


def _no_full_run(calls, sys_):
    return not any(phi == sys_.phi for phi, _, _, _ in calls)


def test_decompose_runs_each_admitted_triple_once(monkeypatch):
    par = parallel_system(step_system((1, 2, 3)), step_system((4, 5)))
    calls = _counted_runs(monkeypatch)
    result = decompose_system(par, (1,), H)
    monkeypatch.undo()
    assert result.status == "equal" and result.product_witness is None
    # six interleavings per initial state, none of them run: the hull and the
    # pairs come from the factors' 3 + 2 admitted runs
    assert calls == _admitted(result.first, result.second) and _no_full_run(calls, par)
    assert sum(calls.values()) == 5


def _one_state_bundle(phi, count):
    """One state 00 under a unit step and `count` schedules, the t-th firing
    both coordinates at tick t, up to the horizon count + 1."""
    u, mu = unit_step(0, count + 1), bv("00")
    rhos = {ProgressiveFunction(2, ((t, 0b11),), count + 1) for t in range(1, count + 1)}
    return RegularSystem(phi, (u,), {u: {mu}}, {(mu, u): rhos})


def test_decompose_runs_no_schedule_pair(monkeypatch):
    """Identity dynamics: 800 x 800 factor schedule pairs, one hull trajectory.
    decompose makes the factors' 2 x 800 admitted runs and no more."""
    sys_ = _one_state_bundle(GeneratorFn.identity(2, 1), 800)
    calls = _counted_runs(monkeypatch)
    result = decompose_system(sys_, (1,), sys_.horizon)
    monkeypatch.undo()
    assert result.status == "equal" and result.product_witness is None
    assert calls == _admitted(result.first, result.second) and _no_full_run(calls, sys_)
    assert sum(calls.values()) == 2 * 800


def test_the_witness_search_adds_no_run(monkeypatch):
    """Both coordinates follow the input, fired together at one of 40 ticks:
    40 trajectories per factor, 1600 in the hull and 40 realized.  Finding
    the witness reads the factors' runs, 2 x 40, and runs nothing more."""
    count = 40
    sys_ = _one_state_bundle(fn(2, 1, lambda mu, lam: BitVec.from_bits([lam.bit(1), lam.bit(1)])), count)
    calls = _counted_runs(monkeypatch)
    result = decompose_system(sys_, (1,), sys_.horizon)
    monkeypatch.undo()
    assert result.status == "strict-subset" and result.hull_sizes[0][1:] == (count, count * count)
    assert calls == _admitted(result.first, result.second) and _no_full_run(calls, sys_)
    assert sum(calls.values()) == 2 * count
    # the first pair of the sorted loop: rho' fires at tick 1, rho'' at tick 2
    fire = [ProgressiveFunction(1, ((t, 1),), count + 1) for t in (1, 2)]
    assert result.product_witness == (sys_.inputs[0], bv("00"), *fire)


def test_the_witness_search_tries_no_more_class_pairs_than_the_hull(monkeypatch):
    """Coordinate 1 follows the input and coordinate 2 its negation, over the
    four states, each firing both coordinates at one of 30 ticks.  Only 01
    moves both halves, so only its halves start pairs that f(u) lacks, and it
    is iterated last.  The search walks every state's class pairs in order:
    30 + 30 + 1 before 01, then two at 01, whose second is the witness.  Each
    state's halves differ, so the pairs tried are distinct members of the
    hull, and the hull count bounds them; the search runs nothing."""
    count = 30
    u, states = unit_step(0, count + 1), [bv(b) for b in ("00", "01", "10", "11")]
    rhos = {ProgressiveFunction(2, ((t, 0b11),), count + 1) for t in range(1, count + 1)}
    phi = fn(2, 1, lambda mu, lam: BitVec.from_bits([lam.bit(1), 1 - lam.bit(1)]))
    sys_ = RegularSystem(phi, (u,), {u: states}, {(mu, u): rhos for mu in states})
    assert list(sys_.phi0[u])[-1] == bv("01")  # the states that share its halves come first
    import asyncdec.systems as systems_mod

    tried, real_product = [], systems_mod.product

    def counted_product(*sides):
        for pair in real_product(*sides):
            tried.append(pair)
            yield pair

    monkeypatch.setattr(systems_mod, "product", counted_product)
    calls = _counted_runs(monkeypatch)
    result = decompose_system(sys_, (1,), sys_.horizon)
    monkeypatch.undo()
    assert result.phi0_product_form and result.status == "strict-subset"
    assert result.hull_sizes[0][1:] == (3 * count + 1, (count + 1) ** 2)
    assert calls == _admitted(result.first, result.second) and _no_full_run(calls, sys_)
    hull = sum(hull for _, own, hull in result.hull_sizes if own < hull)
    assert len(tried) == 2 * count + 1 + 2 <= hull
    assert len({(x, y) for (x, _), (y, _) in tried}) == len(tried)
    fire = [ProgressiveFunction(1, ((t, 1),), count + 1) for t in (1, 2)]
    assert result.product_witness == (u, bv("01"), *fire)


def test_decompose_builds_no_product_signal_and_no_signal_set(monkeypatch):
    """decompose_system reads each trajectory as its pair of factor run
    numbers: it weaves no product signal, runs no full schedule and builds no
    signal set, for an input whose pairs fill its hull or one that falls short."""
    import sys as interpreter

    from asyncdec import parallel_fn
    from asyncdec.frontend.checks import _product_form_system

    rng = random.Random(50)
    cases = [(diagonal_example(), (1,)), (_diagonal_follower()[0], (1,))]
    for _ in range(10):
        na, nb, m = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        phi = parallel_fn(rand_fn(rng, na, m), rand_fn(rng, nb, m))
        cases.append((rand_system(rng, phi, H, n_inputs=rng.randint(1, 3)), tuple(range(1, na + 1))))
        cases.append((_product_form_system(rng, rand_fn(rng, na, m), rand_fn(rng, nb, m), H),
                      tuple(range(1, na + 1))))

    def woven(*args):
        raise AssertionError("decompose_system wove a product signal")

    for name, module in list(interpreter.modules.items()):
        if name.startswith("asyncdec") and hasattr(module, "product_signal"):
            monkeypatch.setattr(module, "product_signal", woven)
    built = []
    real_init = SignalSet.__init__

    def counted_init(self, *args):
        built.append(args[0])
        real_init(self, *args)

    monkeypatch.setattr(SignalSet, "__init__", counted_init)
    calls = _counted_runs(monkeypatch)
    kinds = set()
    for sys_, block in cases:
        built.clear()
        calls.clear()
        result = decompose_system(sys_, block, sys_.horizon)
        kinds.update(own == hull for _, own, hull in result.hull_sizes)
        assert built == [] and _no_full_run(calls, sys_)
    assert kinds == {True, False}


def _one_input_product(count):
    """The connection of two identity bundles under one step input, each firing
    its coordinate at one of `count` ticks: two states times one, so 2 x count^2
    admitted triples over 3 x count distinct factor triples."""
    u = unit_step(3, 40)

    def factor(states):
        ms = [BitVec(1, s) for s in states]
        rs = [ProgressiveFunction(1, ((t, 1),), 40) for t in range(1, count + 1)]
        return RegularSystem(GeneratorFn.identity(1, 1), (u,), {u: ms}, {(mu, u): rs for mu in ms})

    return parallel_system(factor((0, 1)), factor((0,)))


def test_decompose_hashes_sequences_per_factor_triple_not_per_admitted_triple(monkeypatch):
    """Counted work, no clock: the sequence hashes inside decompose_system grow
    by two per new distinct factor triple (its schedule enters the factor's pi,
    its run is numbered), however many admitted triples the doubling adds."""
    from asyncdec.signals import _EventSequence

    hashes, real_hash = [0], _EventSequence.__hash__
    monkeypatch.setattr(_EventSequence, "__hash__", lambda x: hashes.__setitem__(0, hashes[0] + 1) or real_hash(x))
    counts = []
    for count in (8, 16):
        sys_ = _one_input_product(count)
        hashes[0] = 0
        result = decompose_system(sys_, (1,), sys_.horizon)
        admitted = sum(map(len, sys_.pi.values()))
        triples = sum(len(rs) for f in (result.first, result.second) for rs in f.pi.values())
        counts.append((hashes[0], triples, admitted))
    monkeypatch.undo()
    (small, small_triples, small_admitted), (large, large_triples, large_admitted) = counts
    assert result.status == "equal" and (small_admitted, large_admitted) == (128, 512)
    assert large - small <= 2 * (large_triples - small_triples) == 48


def test_product_condition_requires_separated_block():
    swap = fn(2, 1, lambda mu, lam: BitVec.from_bits([mu.bit(2), mu.bit(1)]))
    sys_, _ = two_bit_system(swap, ("00",), {"00": [round_robin(2, (1,), H)]})
    with pytest.raises(NotSeparatedError):
        decompose_system(sys_, (1,), H)


def _refusal(call):
    """The witness (i, j, mu, lam) and text of the `NotSeparatedError` that
    `call` raises, or None if it returns."""
    try:
        call()
    except NotSeparatedError as err:
        return err.i, err.j, err.mu, err.lam, str(err)
    return None


def test_split_fn_and_decompose_system_refuse_with_one_witness():
    """Both go through one separation gate: for the same table and block they
    refuse with the same witness, or both accept, at 8 bits (one 8-bit lane)
    and at 9 (16-bit lanes).  One flipped output bit of a parallel table puts
    the witness deep in the table."""
    from asyncdec import parallel_fn, split_fn
    from asyncdec.boolfn import dependency_witness

    rng = random.Random(43)
    refused = {8: 0, 9: 0}
    for _ in range(40):  # a system's inputs are at least one bit wide
        n, m = rng.choice((8, 9)), rng.randint(1, 2)
        split = rng.randint(1, n - 1)
        table = list(parallel_fn(rand_fn(rng, split, m), rand_fn(rng, n - split, m)).table)
        if rng.random() < 0.8:
            table[rng.randrange(len(table))] ^= 1 << rng.randrange(n)
        phi = GeneratorFn(n, m, tuple(table))
        block = rng.choice((range(1, split + 1), rng.sample(range(1, n + 1), rng.randint(1, n - 1))))
        u, mu = Signal(m, 0, (), H), BitVec(n, 0)
        sys_ = RegularSystem(phi, (u,), {u: {mu}}, {(mu, u): {round_robin(n, (1,), H)}})
        split_refusal = _refusal(lambda: split_fn(phi, block))
        assert split_refusal == _refusal(lambda: decompose_system(sys_, block, H))
        witness = dependency_witness(phi, block)
        assert (split_refusal and split_refusal[:4]) == witness
        refused[n] += witness is not None
    assert refused[8] and refused[9] and sum(refused.values()) < 40


# -- decomposition ----------------------------------------------------------------


def test_decompose_parallel_built_system_is_equal():
    a = step_system(fire_ticks=(1, 2))
    b = step_system(fire_ticks=(3,))
    par = parallel_system(a, b)
    result = decompose_system(par, (1,), H)
    assert result.status == "equal"
    assert result.phi0_product_form
    assert result.product_witness is None
    assert realize(result.first, H) == realize(a, H)
    assert realize(result.second, H) == realize(b, H)


def test_decompose_diagonal_is_strict_subset():
    u = unit_step(0, H)
    phi = GeneratorFn.identity(2, 1)
    states = frozenset([bv("00"), bv("11")])
    pi = {(mu, u): frozenset([round_robin(2, (1, 2), H)]) for mu in states}
    sys_ = RegularSystem(phi, (u,), {u: states}, pi)
    result = decompose_system(sys_, (1,), H)
    assert result.status == "strict-subset"
    assert not result.phi0_product_form
    hull = realize(parallel_system(result.first, result.second), H)
    initials = initial_state_function(hull)[u]
    assert initials == frozenset([bv("00"), bv("01"), bv("10"), bv("11")])


def test_decompose_identity_product_form_is_equal():
    u = unit_step(0, H)
    phi = GeneratorFn.identity(2, 1)
    states = frozenset([bv("00"), bv("01"), bv("10"), bv("11")])
    pi = {(mu, u): frozenset([round_robin(2, (1,), H)]) for mu in states}
    sys_ = RegularSystem(phi, (u,), {u: states}, pi)
    result = decompose_system(sys_, (1,), H)
    assert result.status == "equal"
    assert result.phi0_product_form
    assert result.product_witness is None


def test_decompose_subset_direction_always_holds():
    rng = random.Random(37)
    from asyncdec import parallel_fn

    for _ in range(25):
        na, nb = rng.randint(1, 2), rng.randint(1, 2)
        phi = parallel_fn(rand_fn(rng, na, 1), rand_fn(rng, nb, 1))
        sys_ = rand_system(rng, phi, H, n_inputs=1)
        # decompose_system raises if containment in the hull ever failed
        result = decompose_system(sys_, range(1, na + 1), H)
        assert result.status in ("equal", "strict-subset")


def _reference_verdict(sys_, result):
    """(status, hull_sizes, product form) by realizing the parallel bundle of
    the factors and comparing it with the relabeled system, input by input."""
    hull = realize(parallel_system(result.first, result.second), H)
    own = realize(sys_, H)
    bs, cs = result.partition.blocks
    equal = all(
        SignalSet(sys_.n, H, (x.restrict(bs + cs) for x in own[u])) == hull[u]
        for u in sys_.inputs
    )
    product_form = all(
        sys_.phi0[u]
        == frozenset(
            mu
            for mu in (BitVec(sys_.n, v) for v in range(1 << sys_.n))
            if mu.restrict(bs) in result.first.phi0[u]
            and mu.restrict(cs) in result.second.phi0[u]
        )
        for u in sys_.inputs
    )
    sizes = tuple((u, len(own[u]), len(hull[u])) for u in sys_.inputs)
    return ("equal" if equal else "strict-subset"), sizes, product_form


def test_decompose_matches_the_realized_parallel_bundle():
    from asyncdec import parallel_fn, project_fn

    rng = random.Random(41)
    cases = [(diagonal_example(), (1,))]
    for _ in range(40):
        na, nb = rng.randint(1, 2), rng.randint(1, 2)
        perm = rng.sample(range(1, na + nb + 1), na + nb)
        # coordinate i of the parallel function moves to position perm[i-1]
        order = sorted(range(1, na + nb + 1), key=lambda k: perm[k - 1])
        phi = project_fn(parallel_fn(rand_fn(rng, na, 1), rand_fn(rng, nb, 1)), order)
        cases.append((rand_system(rng, phi, H, n_inputs=rng.randint(1, 2)), perm[:na]))
    statuses = set()
    for sys_, block in cases:
        result = decompose_system(sys_, block, H)
        got = (result.status, result.hull_sizes, result.phi0_product_form)
        assert got == _reference_verdict(sys_, result)
        statuses.add(result.status)
    assert statuses == {"equal", "strict-subset"}


def test_the_factor_route_matches_the_full_runs_and_a_relabeling():
    """The full-run route as the oracle of decompose's factor route, on random
    bundles (n <= 5, one to three inputs) over random tables separated at a
    random block, whose phi0 and pi are drawn state by state, not as products.
    Every full run's halves lie in the factors' realizations, and the hull
    sizes and the status are those the full runs give.  The bundle relabeled
    by a random permutation, decomposed at the block's image, gives the same
    status, phi0 product form and hull sizes."""
    from asyncdec import parallel_fn, project_fn

    rng = random.Random(51)
    kinds = set()
    for _ in range(150):
        n = rng.randint(2, 5)
        na, m = rng.randint(1, n - 1), rng.randint(1, 2)
        perm = rng.sample(range(1, n + 1), n)
        # coordinate i of the parallel function moves to position perm[i-1]
        order = sorted(range(1, n + 1), key=lambda k: perm[k - 1])
        phi = project_fn(parallel_fn(rand_fn(rng, na, m), rand_fn(rng, n - na, m)), order)
        sys_ = rand_system(rng, phi, H, n_inputs=rng.randint(1, 3))
        result = decompose_system(sys_, perm[:na], H)
        bs, cs = result.partition.blocks
        own, out_b, out_c = realize(sys_, H), realize(result.first, H), realize(result.second, H)
        for u in sys_.inputs:
            assert all(x.restrict(bs) in out_b[u].members and x.restrict(cs) in out_c[u].members
                       for x in own[u])
        sizes = tuple((u, len(own[u]), len(out_b[u]) * len(out_c[u])) for u in sys_.inputs)
        assert result.hull_sizes == sizes
        assert result.status == ("equal" if all(a == b for _, a, b in sizes) else "strict-subset")
        sigma = rng.sample(range(1, n + 1), n)
        moved = decompose_system(sys_.restrict(sigma), [k for k, c in enumerate(sigma, 1) if c in bs], H)
        verdict = (result.status, result.phi0_product_form, result.hull_sizes)
        assert (moved.status, moved.phi0_product_form, moved.hull_sizes) == verdict
        kinds.add(verdict[:2])
    assert kinds == {("equal", True), ("strict-subset", True), ("strict-subset", False)}


def test_phi0_product_form_by_count_matches_the_set_comparison():
    """phi0 is in product form exactly when its restrictions to the block and
    to the complement, concatenated, fill the product of the factors' sets."""
    from asyncdec import parallel_fn
    from asyncdec.frontend.checks import _product_form_system

    rng = random.Random(43)
    cases = []
    for _ in range(40):
        na, nb, m = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        tables = rand_fn(rng, na, m), rand_fn(rng, nb, m)
        cases.append((rand_system(rng, parallel_fn(*tables), H, n_inputs=rng.randint(1, 3)), na))
        cases.append((_product_form_system(rng, *tables, H), na))
    verdicts = set()
    for sys_, na in cases:
        result = decompose_system(sys_, range(1, na + 1), H)
        bs, cs = result.partition.blocks
        by_sets = all(
            frozenset(mu.restrict(bs + cs) for mu in sys_.phi0[u])
            == frozenset(mb.concat(mc) for mb in result.first.phi0[u] for mc in result.second.phi0[u])
            for u in sys_.inputs
        )
        assert result.phi0_product_form == by_sets
        verdicts.add(by_sets)
    assert verdicts == {False, True}


def test_the_walk_matches_the_nested_decomposition_step_by_step():
    """The walk over Phi's finest partition against the nested route it
    replaced, kept here as its oracle: `decompose_system` on the previous
    step's second factor, at the next block's ranks among the coordinates
    left.  On random bundles (phi0 and pi drawn state by state) over the
    parallel connection of three random tables, coordinates shuffled, every
    step equals the nested one: factors, status, partition, product form,
    witness and hull sizes."""
    from asyncdec import dependency_matrix, parallel_fn, project_fn
    from asyncdec.systems import _decompositions

    rng = random.Random(54)
    kinds = set()
    for _ in range(200):
        m = rng.randint(1, 2)
        tables = [rand_fn(rng, rng.randint(1, 2), m) for _ in range(3)]
        phi = parallel_fn(parallel_fn(tables[0], tables[1]), tables[2])
        phi = project_fn(phi, rng.sample(range(1, phi.n + 1), phi.n))
        sys_ = rand_system(rng, phi, H, n_inputs=rng.randint(1, 2))
        blocks = dependency_matrix(phi).components().blocks
        current, left = sys_, list(range(1, phi.n + 1))
        for step, walked in enumerate(_decompositions(sys_, blocks)):
            nested = decompose_system(current, [left.index(c) + 1 for c in blocks[step]], H)
            assert walked == nested
            kinds.add((step > 0, nested.status, nested.product_witness is None))
            current, left = nested.second, [c for c in left if c not in blocks[step]]
        assert step == len(blocks) - 2
    assert {(True, "equal", True), (True, "strict-subset", False), (False, "strict-subset", False)} <= kinds
