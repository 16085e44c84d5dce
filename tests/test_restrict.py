"""Restriction to an ordered coordinate tuple, the one relabeling operation,
checked on every kind against per-value references."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncdec import BitVec, CoordinateError, GeneratorFn, ProgressiveFunction, Signal, project_fn
from asyncdec.frontend.checks import rand_fn
from asyncdec.signals import gather_bits


def _restricted(value: int, width: int, coords) -> int:
    """Bit by bit: coordinate k of the result is coordinate coords[k-1]."""
    return BitVec.from_bits([BitVec(width, value).bit(c) for c in coords]).value


def _zero_extended(mu: BitVec, n: int, coords) -> BitVec:
    """The width-n state holding coordinate k of `mu` at coords[k-1], 0 elsewhere."""
    bits = [0] * n
    for k, c in enumerate(coords, start=1):
        bits[c - 1] = mu.bit(k)
    return BitVec.from_bits(bits)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_restrict_to_an_unsorted_tuple_matches_per_bit_references(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(0, 2))
    coords = tuple(data.draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)))
    value = st.integers(0, (1 << n) - 1)
    ticks = data.draw(st.lists(st.integers(1, 12), unique=True, max_size=6).map(sorted))
    events = tuple((t, data.draw(value)) for t in ticks)
    k = len(coords)

    def ref(v):
        return _restricted(v, n, coords)

    mu = data.draw(value)
    assert BitVec(n, mu).restrict(coords) == BitVec(k, ref(mu))

    x = Signal(n, data.draw(value), events, 12)
    got = x.restrict(coords)
    expected = Signal(k, ref(x.initial), tuple((t, ref(v)) for t, v in events), 12).canonical()
    assert got == expected
    assert (got.initial, got.events) == (expected.initial, expected.events)

    r = ProgressiveFunction(n, events, 12)
    assert r.restrict(coords).events == tuple((t, ref(v)) for t, v in events if ref(v))

    phi = GeneratorFn(n, m, tuple(data.draw(value) for _ in range(1 << (n + m))))
    projected = project_fn(phi, coords)
    for mu_k in BitVec.all_of_width(k):
        for lam in BitVec.all_of_width(m):
            out = phi.eval(_zero_extended(mu_k, n, coords), lam)
            assert projected.eval(mu_k, lam) == BitVec(k, ref(out.value))


def _scatter_bits(value: int, coords) -> int:
    """Spread the low bits of `value` to 1-based positions `coords`."""
    out = 0
    for k, c in enumerate(coords):
        out |= ((value >> k) & 1) << (c - 1)
    return out


def _permute_fn_reference(phi: GeneratorFn, permutation) -> GeneratorFn:
    """The row loop that relabeled by a permutation array: old coordinate i
    becomes permutation[i-1]."""
    rows = []
    for lam in range(1 << phi.m):
        base = lam << phi.n
        for mu_new in range(1 << phi.n):
            mu_old = gather_bits(mu_new, permutation)
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


@pytest.mark.parametrize("coords", [(), (1, 1), (2, 1, 2), (0,), (3,), (1, 3)])
def test_empty_repeated_and_out_of_range_coordinates_raise(coords):
    restrictions = (
        BitVec(2, 1).restrict,
        Signal(2, 1, ((1, 2),), 5).restrict,
        ProgressiveFunction(2, ((1, 3),), 5).restrict,
        lambda cs: project_fn(GeneratorFn.identity(2, 1), cs),
    )
    for restrict in restrictions:
        with pytest.raises(CoordinateError):
            restrict(coords)
