"""Signal algebra: evaluation, products, projections, canonical equality."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncdec import (
    BitVec,
    CoordinateError,
    HorizonExceeded,
    HorizonMismatch,
    InvalidValue,
    ProgressiveFunction,
    Signal,
    SignalSet,
    WidthMismatch,
    product_rho,
    product_signal,
    round_robin,
    unit_step,
)

def val(text):
    """The int a bit string denotes, coordinate 1 first: "10" is 1."""
    return int(text[::-1], 2)


def sig(width, init, events, horizon):
    return Signal(width, val(init), tuple((t, val(v)) for t, v in events), horizon)


def rho(width, events, horizon):
    return ProgressiveFunction(width, tuple((t, val(v)) for t, v in events), horizon)


# -- strategies -----------------------------------------------------------


@st.composite
def signals(draw, max_width=3, horizon=12, min_width=1):
    width = draw(st.integers(min_width, max_width))
    ticks = draw(st.lists(st.integers(-3, horizon), unique=True, max_size=6).map(sorted))
    events = tuple((t, draw(st.integers(0, (1 << width) - 1))) for t in ticks)
    init = draw(st.integers(0, (1 << width) - 1))
    return Signal(width, init, events, horizon)


@st.composite
def rhos(draw, max_width=3, horizon=12):
    width = draw(st.integers(1, max_width))
    ticks = draw(st.lists(st.integers(1, horizon), unique=True, max_size=6).map(sorted))
    events = tuple((t, draw(st.integers(0, (1 << width) - 1))) for t in ticks)
    return ProgressiveFunction(width, events, horizon)


# -- bit strings ----------------------------------------------------------


def test_from_string_packs_coordinate_one_first():
    assert BitVec.from_string("") == BitVec(0, 0)
    assert BitVec.from_string("10") == BitVec(2, 1)
    assert BitVec.from_string("0110") == BitVec(4, 6)
    assert BitVec.from_string("1" * 70) == BitVec(70, (1 << 70) - 1)


def test_from_string_rejects_non_bits_with_invalid_value():
    with pytest.raises(InvalidValue, match=r"^bit 2 is 'x', expected 0 or 1$"):
        BitVec.from_string("1x")
    # int() would accept each of these; the parser must not
    for text in (" 1", "1_0", "+1", "0b1", "\u0661", "2", "10 "):
        with pytest.raises(InvalidValue):
            BitVec.from_string(text)


@pytest.mark.parametrize("make, error, text", [
    pytest.param(lambda: BitVec(-1, 0), WidthMismatch, "negative width -1", id="negative-width"),
    pytest.param(lambda: BitVec(2, 4), InvalidValue, "value 4 out of range for width 2", id="value-too-wide"),
    pytest.param(lambda: BitVec(2, -1), InvalidValue, "value -1 out of range for width 2", id="negative-value"),
    pytest.param(lambda: BitVec.from_bits([1, 2]), InvalidValue, "bit 2 is 2, expected 0 or 1", id="from-bits"),
    pytest.param(lambda: BitVec(2, 1).bit(0), CoordinateError, "coordinate 0 out of 1..2", id="bit-zero"),
    pytest.param(lambda: BitVec(2, 1).bit(3), CoordinateError, "coordinate 3 out of 1..2", id="bit-past-width"),
    pytest.param(lambda: SignalSet(2, 10, [unit_step(0, 10)]), WidthMismatch,
                 "member width 1, expected 2", id="set-member-width"),
    pytest.param(lambda: SignalSet(1, 9, [unit_step(0, 10)]), HorizonMismatch,
                 "member horizon 10, expected 9", id="set-member-horizon"),
])
def test_bit_vectors_and_signal_sets_refuse_with_a_named_error(make, error, text):
    with pytest.raises(error) as refused:
        make()
    assert type(refused.value) is error and str(refused.value) == text


# -- value_at -------------------------------------------------------------


def test_value_at_constant():
    x = sig(1, "0", [], 10)
    for t in range(-5, 11):
        assert x.value_at(t) == val("0")


def test_value_at_step():
    x = unit_step(0, 10)
    assert x.value_at(-1) == val("0")
    assert x.value_at(0) == val("1")


def test_value_at_interval_partition():
    # hand evaluation: 0 before 2, 1 on [2,5), 0 from 5
    x = sig(1, "0", [(2, "1"), (5, "0")], 10)
    assert x.value_at(4) == val("1")
    assert x.value_at(1) == val("0")
    assert x.value_at(5) == val("0")


def test_value_at_right_continuous_at_events():
    x = sig(2, "00", [(1, "10"), (4, "01")], 10)
    for t, v in x.events:
        assert x.value_at(t) == v


def test_value_at_beyond_horizon():
    x = unit_step(0, 10)
    with pytest.raises(HorizonExceeded):
        x.value_at(11)


# -- initial --------------------------------------------------------------


def test_initial_value_readout():
    assert sig(1, "1", [], 5).initial == val("1")
    assert unit_step(0, 5).initial == val("0")
    assert sig(2, "10", [(3, "01")], 5).initial == val("10")


# -- canonical ------------------------------------------------------------


def test_canonicalize_drops_redundant_events():
    x = sig(1, "0", [(1, "0"), (2, "1")], 10)
    c = x.canonical()
    assert c.events == ((2, val("1")),)
    for t in range(-2, 11):
        assert c.value_at(t) == x.value_at(t)


def test_canonicalize_idempotent_on_canonical_input():
    x = sig(1, "0", [(2, "1")], 10)
    assert x.canonical().events == x.events


def test_canonical_returns_a_canonical_signal_itself():
    x = sig(2, "00", [(1, "10"), (3, "11")], 10)
    assert x.canonical() is x
    y = sig(2, "00", [(1, "10"), (2, "10"), (3, "11")], 10)
    c = y.canonical()
    assert c is not y and c == y and c.events == x.events
    assert c.canonical() is c


def test_canonicalize_constant_with_noop_event():
    x = sig(1, "1", [(3, "1")], 10)
    assert x.canonical().events == ()


@given(signals())
@settings(max_examples=200)
def test_canonicalize_preserves_value_and_is_idempotent(x):
    c = x.canonical()
    assert c.canonical().events == c.events
    for t in range(-4, x.horizon + 1):
        assert c.value_at(t) == x.value_at(t)
    assert c == x  # canonical equality


# -- products and projections ---------------------------------------------


def test_product_of_constants():
    x = sig(1, "0", [], 10)
    y = sig(1, "1", [], 10)
    assert product_signal(x, y) == sig(2, "01", [], 10)


def test_product_merges_grids():
    x = unit_step(0, 10)
    y = unit_step(2, 10)
    p = product_signal(x, y)
    assert p.initial == val("00")
    assert p.events == ((0, val("10")), (2, val("11")))


def test_product_project_roundtrip():
    a = sig(2, "01", [(1, "11"), (4, "00")], 10)
    b = sig(1, "1", [(2, "0")], 10)
    p = product_signal(a, b)
    assert p.restrict(range(1, 3)) == a.canonical()
    assert p.restrict((3,)) == b.canonical()


def test_product_horizon_mismatch():
    with pytest.raises(HorizonMismatch):
        product_signal(unit_step(0, 10), unit_step(0, 11))
    with pytest.raises(HorizonMismatch, match="horizons differ: 10 vs 9"):
        product_rho(rho(1, [(1, "1")], 10), rho(1, [(1, "1")], 9))


def test_project_single_coordinate():
    x = sig(3, "010", [(2, "110")], 10)
    assert x.restrict((2,)) == sig(1, "1", [], 10)


def test_project_constant_stays_constant():
    x = sig(3, "101", [], 8)
    assert x.restrict((1, 3)) == sig(2, "11", [], 8)


def test_project_bad_range():
    x = sig(2, "10", [], 8)
    with pytest.raises(CoordinateError):
        x.restrict((0, 1))
    with pytest.raises(CoordinateError):
        x.restrict(())


@given(signals(), signals())
@settings(max_examples=150)
def test_product_pointwise_and_projection_recovers_factors(a, b):
    p = product_signal(a, b)
    for t in range(-4, a.horizon + 1):
        pair = BitVec(a.width, a.value_at(t)).concat(BitVec(b.width, b.value_at(t)))
        assert p.value_at(t) == pair.value
    assert p.restrict(range(1, a.width + 1)) == a
    assert p.restrict(range(a.width + 1, a.width + b.width + 1)) == b
    assert {t for t, _ in p.events} == {t for t, _ in (*a.events, *b.events)}


def test_permute_signal_roundtrip():
    x = sig(3, "010", [(1, "110"), (3, "001")], 10)
    order = (2, 3, 1)
    inverse = (3, 1, 2)
    assert x.restrict(order) == sig(3, "100", [(1, "101"), (3, "010")], 10)
    assert x.restrict(order).restrict(inverse) == x
    with pytest.raises(CoordinateError):
        x.restrict((1, 1, 2))


# -- signal sets ----------------------------------------------------------


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_signal_is_the_product_of_its_halves_and_its_pair_names_it(data):
    """For a proper block bs and its complement cs, a signal read on bs + cs is
    the product of its two restrictions, so x -> (x on bs, x on cs) is one-to-one
    and a set of pairs is as large as the set of signals it came from."""
    width = data.draw(st.integers(2, 5))
    drawn = st.tuples(signals(width, min_width=width), st.booleans())
    xs = data.draw(st.lists(drawn.map(lambda d: d[0].canonical() if d[1] else d[0]), min_size=1, max_size=6))
    bs = tuple(data.draw(st.permutations(range(1, width + 1)))[:data.draw(st.integers(1, width - 1))])
    cs = tuple(c for c in range(1, width + 1) if c not in bs)
    for x in xs:
        assert product_signal(x.restrict(bs), x.restrict(cs)) == x.restrict(bs + cs)
    assert len({(x.restrict(bs), x.restrict(cs)) for x in xs}) == len(set(xs))


def test_signal_set_deduplicates_canonical_equals():
    raw = sig(1, "0", [(1, "0"), (2, "1")], 10)
    canon = sig(1, "0", [(2, "1")], 10)
    assert len(SignalSet(1, 10, [raw, canon])) == 1


# -- schedule products ----------------------------------------------------


def test_product_rho_merged_grid_with_zero_padding():
    a = rho(1, [(1, "1"), (3, "1")], 10)
    b = rho(1, [(2, "1"), (3, "1")], 10)
    p = product_rho(a, b)
    assert p.events == ((1, val("10")), (2, val("01")), (3, val("11")))


def test_product_rho_shared_grid_concatenates():
    a = rho(2, [(1, "10"), (2, "01")], 10)
    b = rho(1, [(1, "1"), (2, "1")], 10)
    p = product_rho(a, b)
    assert p.events == ((1, val("101")), (2, val("011")))


def test_product_rho_preserves_progressiveness():
    a = rho(2, [(1, "11")], 10)
    b = rho(1, [(4, "1")], 10)
    assert product_rho(a, b).is_prefix_progressive()


@given(rhos(), rhos())
@settings(max_examples=150)
def test_product_rho_restriction_recovers_canonical_factor(a, b):
    p = product_rho(a, b)
    assert p.restrict(range(1, a.width + 1)) == a.canonical()
    assert p.restrict(range(a.width + 1, a.width + b.width + 1)) == b.canonical()


def _weave_reference(n, block, a, b):
    """Per tick, block coordinate block[k] takes bit k+1 of a's firing vector
    and the k-th complement coordinate bit k+1 of b's; no event reads as zeros."""
    rest = [i for i in range(1, n + 1) if i not in block]
    at, bt = dict(a.events), dict(b.events)
    events = []
    for t in sorted(set(at) | set(bt)):
        bits = [0] * n
        for coords, side in ((sorted(block), at), (rest, bt)):
            if t in side:
                for k, i in enumerate(coords):
                    bits[i - 1] = (side[t] >> k) & 1
        events.append((t, BitVec.from_bits(bits).value))
    return tuple(events)


@given(rhos(), rhos(), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_product_rho_restricted_matches_a_per_coordinate_weave(a, b, rnd):
    n = a.width + b.width
    assert product_rho(a, b).events == _weave_reference(n, range(1, a.width + 1), a, b)
    block = rnd.sample(range(1, n + 1), a.width)
    order = sorted(block) + [i for i in range(1, n + 1) if i not in block]
    # coordinate i of the weave is coordinate order.index(i) + 1 of the product
    woven = product_rho(a, b).restrict(order.index(i) + 1 for i in range(1, n + 1))
    assert woven == ProgressiveFunction(n, _weave_reference(n, block, a, b), a.horizon)


def test_product_rho_restricted_onto_a_noncontiguous_block():
    a = rho(1, [(1, "1")], 10)
    b = rho(1, [(2, "1")], 10)
    woven = product_rho(a, b).restrict((2, 1))
    # block coordinate 2 fires at 1, complement coordinate 1 fires at 2
    assert woven.events == ((1, val("01")), (2, val("10")))


# -- progressiveness ------------------------------------------------------


def test_prefix_progressive_all_fire():
    assert rho(2, [(1, "11")], 10).is_prefix_progressive()


def test_prefix_progressive_missing_coordinate():
    assert not rho(2, [(1, "10"), (2, "10")], 10).is_prefix_progressive()


@given(rhos(max_width=4))
@settings(max_examples=150, deadline=None)
def test_prefix_progressive_or_fold_matches_counting(r):
    counts = [sum((v >> (i - 1)) & 1 for _, v in r.events) for i in range(1, r.width + 1)]
    assert r.is_prefix_progressive() == all(c >= 1 for c in counts)
    quiet = ProgressiveFunction(r.width, (), r.horizon)
    assert not quiet.is_prefix_progressive()


def test_round_robin_is_progressive():
    for n in (1, 2, 4):
        assert round_robin(n, range(1, 4), 10).is_prefix_progressive()


def test_rho_zero_events_dropped_by_equality():
    a = rho(2, [(1, "11"), (2, "00")], 10)
    b = rho(2, [(1, "11")], 10)
    assert a == b
    assert a.canonical().events == b.events


@given(rhos(max_width=4), st.data())
@settings(max_examples=150, deadline=None)
def test_restrict_matches_per_event_restriction(r, data):
    coords = data.draw(st.sets(st.integers(1, r.width), min_size=1))
    cs = tuple(sorted(coords))
    events = tuple((t, BitVec(r.width, v).restrict(cs).value) for t, v in r.events)
    expected = ProgressiveFunction(len(cs), events, r.horizon).canonical()
    got = r.restrict(cs)
    assert got == expected
    assert got.events == expected.events


def test_event_validation():
    with pytest.raises(ValueError):
        sig(1, "0", [(2, "1"), (2, "0")], 10)
    with pytest.raises(HorizonExceeded):
        sig(1, "0", [(11, "1")], 10)


# -- the shared event-sequence core ----------------------------------------


def test_event_values_must_fit_the_width():
    for make in (
        lambda: Signal(2, 4, (), 10),
        lambda: Signal(2, 0, ((1, 4),), 10),
        lambda: Signal(1, -1, (), 10),
        lambda: ProgressiveFunction(2, ((1, 3), (2, 4)), 10),
        lambda: ProgressiveFunction(1, ((1, -1),), 10),
    ):
        with pytest.raises(InvalidValue, match="out of range for width"):
            make()


def test_truncated_keeps_the_cut_and_never_extends():
    x = sig(1, "0", [(2, "1"), (5, "0"), (8, "1")], 10)
    assert x.truncated(5) == sig(1, "0", [(2, "1"), (5, "0")], 5)
    assert x.truncated(5).events == ((2, val("1")), (5, val("0")))
    assert x.truncated(10).events == x.events
    r = rho(2, [(1, "10"), (4, "01"), (6, "11")], 10)
    assert r.truncated(4).events == ((1, val("10")), (4, val("01")))
    assert r.truncated(4).horizon == 4
    for obj in (x, r):
        with pytest.raises(HorizonExceeded, match="^cannot extend horizon 10 to 11$"):
            obj.truncated(11)


@given(st.one_of(signals(), rhos()))
@settings(max_examples=150, deadline=None)
def test_truncated_and_value_at_match_per_event_scans(seq):
    first = min((t for t, _ in seq.events), default=0)
    for h in range(seq.horizon, first - 2, -1):
        assert seq.truncated(h).events == tuple((t, v) for t, v in seq.events if t <= h)
    if isinstance(seq, Signal):
        for t in range(-4, seq.horizon + 1):
            held = seq.initial
            for s, v in seq.events:
                if s <= t:
                    held = v
            assert seq.value_at(t) == held


def test_events_given_as_lists_or_a_generator_are_stored_as_tuples():
    pairs = ((1, 1), (3, 0), (5, 0))
    for make in (lambda ev: Signal(1, 0, ev, 10), lambda ev: ProgressiveFunction(1, ev, 10)):
        reference = make(pairs)
        for given in ([list(e) for e in pairs], (list(e) for e in pairs)):
            built = make(given)
            assert type(built.events) is tuple
            assert all(type(e) is tuple for e in built.events)
            assert built.events == pairs
            assert built == reference and hash(built) == hash(reference)
            assert built.canonical().events == reference.canonical().events


def test_signal_and_schedule_with_equal_fields_are_unequal():
    events = ((1, val("1")), (3, val("0")))
    x = Signal(1, val("0"), events, 10)
    r = ProgressiveFunction(1, events, 10)
    assert x != r and r != x
    assert len({x, r}) == 2


@given(signals())
@settings(max_examples=100, deadline=None)
def test_canonical_equal_signals_hash_alike(x):
    noisy = Signal(
        x.width, x.initial, tuple((t, x.value_at(t)) for t in range(-3, x.horizon + 1)), x.horizon
    )
    assert noisy == x
    assert hash(noisy) == hash(x) == hash(x.canonical())


@given(st.lists(signals(max_width=2), max_size=8), st.lists(rhos(max_width=2), max_size=8))
@settings(max_examples=100, deadline=None)
def test_sorted_orders_by_key(xs, rs):
    for objs in (xs, rs):
        assert [o.key for o in sorted(objs)] == sorted(o.key for o in objs)
    if xs and rs:
        with pytest.raises(TypeError):
            sorted([xs[0], rs[0]])


def test_signal_set_membership_is_by_canonical_identity():
    members = SignalSet(1, 10, [unit_step(2, 10), sig(1, "0", [], 10)])
    assert sig(1, "0", [(1, "0"), (2, "1"), (4, "1")], 10) in members
    assert rho(1, [(2, "1")], 10) not in members
    assert unit_step(2, 11) not in members
    assert unit_step(3, 10) not in members
