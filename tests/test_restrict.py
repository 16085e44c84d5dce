"""Restriction to an ordered coordinate tuple, the one relabeling operation,
checked on every kind against per-bit references."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncdec import BitVec, CoordinateError, GeneratorFn, ProgressiveFunction, Signal, project_fn
from asyncdec.frontend.checks import rand_fn
from asyncdec.signals import _relabeler


def _gather_bits(value: int, coords) -> int:
    """Pack the bits of `value` at 1-based positions `coords` into low bits."""
    out = 0
    for k, c in enumerate(coords):
        out |= ((value >> (c - 1)) & 1) << k
    return out


def _scatter_bits(value: int, coords) -> int:
    """Spread the low bits of `value` to 1-based positions `coords`."""
    out = 0
    for k, c in enumerate(coords):
        out |= ((value >> k) & 1) << (c - 1)
    return out


def _coords(data, width: int, max_size: int):
    """An ordered coordinate tuple within 1..width, and a function that gives
    it afresh as a range, a list or a one-shot generator."""
    form = data.draw(st.sampled_from(["range", "list", "generator"]))
    if form == "range":
        lo = data.draw(st.integers(1, width))
        hi = data.draw(st.integers(lo, min(width, lo + max_size - 1)))
        step = data.draw(st.sampled_from([1, -1]))
        coords = tuple(range(lo, hi + 1)[::step])
        return coords, lambda: range(lo, hi + 1)[::step]
    pool = st.integers(1, width)
    coords = tuple(data.draw(st.lists(pool, min_size=1, max_size=max_size, unique=True)))
    return coords, (lambda: list(coords)) if form == "list" else (lambda: (c for c in coords))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_restrict_to_an_unsorted_tuple_matches_per_bit_references(data):
    """Widths 1..70, so a value spans up to nine 8-bit chunks."""
    n = data.draw(st.integers(1, 70))
    coords, given_as = _coords(data, n, n)
    value = st.integers(0, (1 << n) - 1)
    ticks = data.draw(st.lists(st.integers(1, 12), unique=True, max_size=6).map(sorted))
    events = tuple((t, data.draw(value)) for t in ticks)
    k = len(coords)

    def ref(v):
        return _gather_bits(v, coords)

    mu = data.draw(value)
    assert BitVec(n, mu).restrict(given_as()) == BitVec(k, ref(mu))

    x = Signal(n, data.draw(value), events, 12)
    got = x.restrict(given_as())
    expected = Signal(k, ref(x.initial), tuple((t, ref(v)) for t, v in events), 12).canonical()
    assert got == expected
    assert (got.initial, got.events) == (expected.initial, expected.events)

    r = ProgressiveFunction(n, events, 12)
    assert r.restrict(given_as()).events == tuple((t, ref(v)) for t, v in events if ref(v))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_project_fn_up_to_two_chunks_matches_the_per_bit_reference(data):
    """Row (s, lam) of the projection is phi at s scattered to `coords` (every
    other coordinate 0), read back at `coords`."""
    n = data.draw(st.integers(1, 10))
    m = data.draw(st.integers(0, 2))
    coords, given_as = _coords(data, n, n)
    phi = rand_fn(random.Random(data.draw(st.integers(0, 1 << 32))), n, m)
    expected = tuple(
        _gather_bits(phi.table[_scatter_bits(s, coords) | lam << n], coords)
        for lam in range(1 << m)
        for s in range(1 << len(coords))
    )
    assert project_fn(phi, given_as()) == GeneratorFn(len(coords), m, expected)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_project_fn_reads_one_coordinate_tuple_at_every_width(data):
    """The relabeler memo is keyed by width too: one tuple, used at one width
    and then at another, gives the per-bit reference result at both."""
    coords = tuple(data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True)))
    for n in data.draw(st.lists(st.integers(max(coords), 10), min_size=2, max_size=3, unique=True)):
        m = data.draw(st.integers(0, 2))
        phi = rand_fn(random.Random(data.draw(st.integers(0, 1 << 32))), n, m)
        expected = tuple(
            _gather_bits(phi.table[_scatter_bits(s, coords) | lam << n], coords)
            for lam in range(1 << m)
            for s in range(1 << len(coords))
        )
        assert project_fn(phi, coords) == GeneratorFn(len(coords), m, expected)


@pytest.mark.parametrize("n", range(1, 10))
def test_project_fn_onto_all_coordinates_in_order_returns_phi(n):
    for m in range(3):
        phi = rand_fn(random.Random(n * 3 + m), n, m)
        assert project_fn(phi, range(1, n + 1)) is phi
        assert project_fn(phi, list(range(1, n + 1))) is phi


def test_projections_keep_no_row_map_once_dropped():
    """Projecting a 12-bit table onto 8 coordinate orders and dropping the
    results leaves at most 0.5 MB traced: what stays is the relabeler's
    chunks, never a 2^n-entry row map per order."""
    rng = random.Random(12)
    phi = rand_fn(rng, 12, 0)
    orders = []
    while len(orders) < 8:
        order = tuple(rng.sample(range(1, 13), 12))
        if order not in orders and order != tuple(range(1, 13)):
            orders.append(order)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for order in orders:
            assert project_fn(phi, order).n == 12
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 1 << 19, kept


def _permute_fn_reference(phi: GeneratorFn, permutation) -> GeneratorFn:
    """The row loop that relabeled by a permutation array: old coordinate i
    becomes permutation[i-1]."""
    rows = []
    for lam in range(1 << phi.m):
        base = lam << phi.n
        for mu_new in range(1 << phi.n):
            mu_old = _gather_bits(mu_new, permutation)
            rows.append(_scatter_bits(phi.table[mu_old | base], permutation))
    return GeneratorFn(phi.n, phi.m, tuple(rows))


def test_project_fn_on_the_inverse_order_is_the_permutation_row_loop():
    rng = random.Random(9)
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(0, 2)
        phi = rand_fn(rng, n, m)
        perm = rng.sample(range(1, n + 1), n)
        order = sorted(range(1, n + 1), key=lambda i: perm[i - 1])
        assert project_fn(phi, order) == _permute_fn_reference(phi, perm)


def _restrictions(width: int):
    top = (1 << width) - 1
    return (
        BitVec(width, 1).restrict,
        Signal(width, 1, ((1, top),), 5).restrict,
        ProgressiveFunction(width, ((1, top),), 5).restrict,
        lambda cs: project_fn(GeneratorFn.identity(width, 1), cs),
    )


@pytest.mark.parametrize("coords", [(), (1, 1), (2, 1, 2), (0,), (3,), (1, 3)])
def test_empty_repeated_and_out_of_range_coordinates_raise(coords):
    for restrict in _restrictions(2):
        with pytest.raises(CoordinateError):
            restrict(coords)


def test_the_memo_never_hides_a_coordinate_error():
    """A refused tuple is refused again with the same text, and a tuple that
    holds at width 5 is still refused at width 3."""
    for restrict in _restrictions(3):
        texts = []
        for _ in range(2):
            with pytest.raises(CoordinateError) as refused:
                restrict((2, 1, 2))
            texts.append(str(refused.value))
        assert texts[0] == texts[1] == "repeated coordinate in (2, 1, 2)"
    for restrict in _restrictions(5):
        restrict((5, 1))
    for restrict in _restrictions(3):
        with pytest.raises(CoordinateError, match=r"not within 1\.\.3"):
            restrict((5, 1))


@pytest.mark.parametrize("width", [8, 9, 64, 70])
def test_a_relabeler_holds_at_most_256_ints_per_chunk_of_the_width(width):
    """The relabeler every kind shares never grows as 2^width; no memo keeps
    a whole 2^width map."""
    for coords in (range(1, width + 1), range(width, 0, -1), (width,), (1, width)):
        coords = tuple(coords)
        if width <= 9:
            project_fn(GeneratorFn.identity(width, 0), coords)
        k, _, picks, spreads = _relabeler(width, coords)
        assert k == len(coords)
        assert len(picks) == -(-width // 8) and len(spreads) == -(-k // 8)
        assert all(len(chunk) <= 256 for chunk in picks + spreads)
