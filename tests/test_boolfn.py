"""Truth-table functions: derivatives, dependency structure, splitting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncdec import (
    BitVec,
    CoordinateError,
    GeneratorFn,
    InvalidValue,
    NotSeparatedError,
    Partition,
    SizeLimitError,
    WidthMismatch,
    dependency_matrix,
    parallel_fn,
    partial_derivative,
    project_fn,
    split_fn,
)
from asyncdec.boolfn import DependencyMatrix, _parallel_rows, _split_blocks, dependency_witness
from asyncdec.frontend.checks import _all_partitions, _cross_pairs, partition_oracle_verdict, rand_fn

bv = BitVec.from_string

EMPTY = BitVec(0, 0)


def fn(n, m, f):
    return GeneratorFn.from_function(n, m, f)


@st.composite
def small_fns(draw, max_n=3, max_m=2):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    table = tuple(
        draw(st.integers(0, (1 << n) - 1)) for _ in range(1 << (n + m))
    )
    return GeneratorFn(n, m, table)


# -- construction ----------------------------------------------------------


@pytest.mark.parametrize("n, m, table, error, text", [
    (0, 1, (0, 0), WidthMismatch, "state width must be >= 1, got 0"),
    (1, -1, (0,), WidthMismatch, "input width must be >= 0, got -1"),
    (1, 1, (0, 1, 0), InvalidValue, "table has 3 rows, expected 4 for n=1 m=1"),
    (2, 0, (0, -1, 0, 0), InvalidValue, "table entry out of range for output width 2"),
    (2, 0, (0, 3, 4, 0), InvalidValue, "table entry out of range for output width 2"),
    # several checks fail at once: the first in this order is the one named
    (0, -1, (), WidthMismatch, "state width must be >= 1, got 0"),
    (1, -1, (7,), WidthMismatch, "input width must be >= 0, got -1"),
    (1, 0, (2,), InvalidValue, "table has 1 rows, expected 2 for n=1 m=0"),
])
def test_the_constructor_refuses_with_the_first_failed_check(n, m, table, error, text):
    with pytest.raises(error) as refused:
        GeneratorFn(n, m, table)
    assert type(refused.value) is error and str(refused.value) == text


# -- eval ------------------------------------------------------------------


def test_eval_identity():
    phi = GeneratorFn.identity(2, 1)
    assert phi.eval(bv("01"), bv("1")) == bv("01")


def test_eval_input_follower():
    phi = fn(1, 1, lambda mu, lam: lam)
    assert phi.eval(bv("0"), bv("1")) == bv("1")


def test_eval_width_checks():
    phi = GeneratorFn.identity(2, 1)
    with pytest.raises(WidthMismatch, match=r"^state width 1, expected 2$"):
        phi.eval(bv("0"), bv("1"))
    with pytest.raises(WidthMismatch, match=r"^input width 2, expected 1$"):
        phi.eval(bv("01"), bv("11"))


def test_from_function_refuses_an_output_of_the_wrong_width():
    with pytest.raises(WidthMismatch, match=r"^function returned width 1, expected 2$"):
        fn(2, 0, lambda mu, lam: BitVec(1, 0))


# -- partial derivative -----------------------------------------------------


def row_bit(d: int, phi, mu: BitVec, lam: BitVec) -> int:
    """Bit of the derivative row mask `d` at row mu + (lam << n)."""
    return (d >> (mu.value | (lam.value << phi.n))) & 1


def test_derivative_of_conjunction():
    # Phi_1 = mu1 & mu2; the derivative w.r.t. mu2 must equal mu1 pointwise,
    # checked against a direct XOR of the two evaluations.
    phi = fn(2, 0, lambda mu, lam: BitVec.from_bits([mu.bit(1) & mu.bit(2), mu.bit(2)]))
    d = partial_derivative(phi, 1, 2)
    for mu in (BitVec(2, v) for v in range(1 << 2)):
        direct = phi.eval(mu, EMPTY).bit(1) ^ phi.eval(BitVec(2, mu.value ^ 0b10), EMPTY).bit(1)
        assert row_bit(d, phi, mu, EMPTY) == direct == mu.bit(1)


def test_derivative_of_constant_is_zero():
    phi = fn(2, 1, lambda mu, lam: bv("10"))
    for i in (1, 2):
        for j in (1, 2):
            assert partial_derivative(phi, i, j) == 0


def test_derivative_of_xor_is_one():
    phi = fn(1, 1, lambda mu, lam: BitVec.from_bits([mu.bit(1) ^ lam.bit(1)]))
    d = partial_derivative(phi, 1, 1)
    for mu in (BitVec(1, v) for v in range(1 << 1)):
        for lam in (BitVec(1, v) for v in range(1 << 1)):
            assert row_bit(d, phi, mu, lam) == 1


@given(small_fns(), st.data())
@settings(max_examples=100)
def test_derivative_invariant_under_flipping_mu_j(phi, data):
    i = data.draw(st.integers(1, phi.n))
    j = data.draw(st.integers(1, phi.n))
    d = partial_derivative(phi, i, j)
    for mu in (BitVec(phi.n, v) for v in range(1 << phi.n)):
        for lam in (BitVec(phi.m, v) for v in range(1 << phi.m)):
            flipped = BitVec(phi.n, mu.value ^ 1 << (j - 1))
            assert row_bit(d, phi, mu, lam) == row_bit(d, phi, flipped, lam)


def test_derivative_index_range():
    phi = GeneratorFn.identity(2, 0)
    with pytest.raises(CoordinateError):
        partial_derivative(phi, 0, 1)
    with pytest.raises(CoordinateError):
        partial_derivative(phi, 1, 3)


# -- dependency matrix ------------------------------------------------------


def test_dependency_matrix_mixed():
    phi = fn(2, 1, lambda mu, lam: BitVec.from_bits([mu.bit(1) ^ lam.bit(1), mu.bit(2)]))
    assert dependency_matrix(phi) == DependencyMatrix(2, (0b01, 0b10))


def test_dependency_matrix_constant():
    phi = fn(3, 0, lambda mu, lam: bv("010"))
    assert dependency_matrix(phi) == DependencyMatrix(3, (0, 0, 0))


def test_dependency_matrix_of_parallel_is_block_diagonal():
    rng = random.Random(5)
    for _ in range(20):
        a = rand_fn(rng, 2, 1)
        b = rand_fn(rng, 2, 1)
        rows = dependency_matrix(parallel_fn(a, b)).rows
        assert all(row & 0b1100 == 0 for row in rows[:2])
        assert all(row & 0b0011 == 0 for row in rows[2:])


@given(small_fns())
@settings(max_examples=100)
def test_dependency_matrix_agrees_with_derivatives(phi):
    rows = dependency_matrix(phi).rows
    for i in range(1, phi.n + 1):
        for j in range(1, phi.n + 1):
            assert rows[i - 1] >> (j - 1) & 1 == (partial_derivative(phi, i, j) != 0)


def test_size_limit_refusal(monkeypatch):
    phi = GeneratorFn.identity(3, 1)
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "3")
    with pytest.raises(SizeLimitError):
        dependency_matrix(phi)


# -- parallel composition ----------------------------------------------------


def test_parallel_of_identities_is_identity():
    a = GeneratorFn.identity(1, 1)
    b = GeneratorFn.identity(2, 1)
    assert parallel_fn(a, b).table == GeneratorFn.identity(3, 1).table


def test_parallel_evaluates_blockwise():
    a = fn(1, 1, lambda mu, lam: lam)
    b = fn(1, 1, lambda mu, lam: BitVec.from_bits([1 - mu.bit(1)]))
    par = parallel_fn(a, b)
    assert par.eval(bv("10"), bv("1")) == bv("11")


def test_parallel_matches_a_per_row_reference():
    """Row mu' | mu'' << n' | lam << n of `parallel_fn`, and of its row
    kernel, is x | y << n' with x = a(mu', lam) and y = b(mu'', lam)."""
    rng = random.Random(13)
    for _ in range(60):
        m = rng.randint(0, 2)
        a, b = rand_fn(rng, rng.randint(1, 4), m), rand_fn(rng, rng.randint(1, 4), m)
        par = parallel_fn(a, b)
        assert (par.n, par.m) == (a.n + b.n, m)
        expected = {}
        for lam in range(1 << m):
            for mu_b in range(1 << b.n):
                for mu_a in range(1 << a.n):
                    x, y = a.table[mu_a | lam << a.n], b.table[mu_b | lam << b.n]
                    expected[mu_a | mu_b << a.n | lam << par.n] = x | y << a.n
        reference = tuple(expected[row] for row in range(1 << (par.n + m)))
        assert par.table == _parallel_rows(a.n, a.table, b.n, b.table) == reference


def test_parallel_input_width_mismatch():
    with pytest.raises(Exception):
        parallel_fn(GeneratorFn.identity(1, 1), GeneratorFn.identity(1, 2))


def test_parallel_refuses_a_composition_past_the_size_limit(monkeypatch):
    """Two factors of n+m = 3 compose to n+m = 5: under limit 4, parallel_fn
    refuses before building the 32 rows that split_fn would then refuse."""
    a = GeneratorFn.identity(2, 1)
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "4")
    with pytest.raises(SizeLimitError, match=r"^n\+m = 5 exceeds the exhaustive-scan limit 4;"):
        parallel_fn(a, a)
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "5")
    assert parallel_fn(a, a).table == GeneratorFn.identity(4, 1).table


def test_parallel_associative_up_to_table():
    # iterating two-way splits is sound because composition nests flat
    rng = random.Random(9)
    for _ in range(20):
        a, b, c = (rand_fn(rng, rng.randint(1, 2), 1) for _ in range(3))
        left = parallel_fn(parallel_fn(a, b), c)
        right = parallel_fn(a, parallel_fn(b, c))
        assert left.table == right.table


# -- separation ---------------------------------------------------------------


def test_parallel_block_is_separated():
    rng = random.Random(11)
    for _ in range(20):
        a = rand_fn(rng, 2, 1)
        b = rand_fn(rng, 1, 1)
        assert dependency_witness(parallel_fn(a, b), (1, 2)) is None


def test_swap_is_not_separated():
    swap = fn(2, 0, lambda mu, lam: BitVec.from_bits([mu.bit(2), mu.bit(1)]))
    assert dependency_witness(swap, (1,)) is not None


def brute_force_witness(phi, block):
    """The first nonzero cross derivative, block rows first, at its lowest row."""
    bs = sorted(set(block))
    cs = [i for i in range(1, phi.n + 1) if i not in bs]
    for i_side, j_side in ((bs, cs), (cs, bs)):
        for i in i_side:
            for j in j_side:
                bits = partial_derivative(phi, i, j)
                if bits:
                    r = (bits & -bits).bit_length() - 1
                    return i, j, BitVec(phi.n, r % (1 << phi.n)), BitVec(phi.m, r >> phi.n)
    return None


def test_dependency_witness_matches_brute_force_derivatives():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 4)
        m = rng.randint(0, 2)
        if rng.random() < 0.5:
            split = rng.randint(1, n - 1)
            phi = parallel_fn(rand_fn(rng, split, m), rand_fn(rng, n - split, m))
        else:
            phi = rand_fn(rng, n, m)
        block = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
        expected = brute_force_witness(phi, block)
        assert dependency_witness(phi, block) == expected
    # 8 and 9 state bits fill one 8-bit lane and spill into 16-bit lanes; one
    # flipped output bit of a parallel table puts the witness deep in the table
    for _ in range(40):
        n = rng.choice((8, 9))
        m = rng.randint(0, 2)
        split = rng.randint(1, n - 1)
        table = list(parallel_fn(rand_fn(rng, split, m), rand_fn(rng, n - split, m)).table)
        if rng.random() < 0.8:
            table[rng.randrange(len(table))] ^= 1 << rng.randrange(n)
        phi = GeneratorFn(n, m, tuple(table))
        block = rng.choice((range(1, split + 1), rng.sample(range(1, n + 1), rng.randint(1, n - 1))))
        expected = brute_force_witness(phi, block)
        assert dependency_witness(phi, block) == expected


def test_separation_queries_respect_the_size_limit_env(monkeypatch):
    phi = parallel_fn(GeneratorFn.identity(1, 1), GeneratorFn.identity(1, 1))
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "2")
    for block in ((1,), (5,), (), (1, 2)):  # the scan size is refused before a bad block
        with pytest.raises(SizeLimitError):
            dependency_witness(phi, block)
    with pytest.raises(SizeLimitError):
        split_fn(phi, (1,))
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "-1")
    with pytest.raises(SizeLimitError, match="non-negative"):
        dependency_witness(phi, (1,))
    monkeypatch.setenv("ASYNC_DEC_SIZE_LIMIT", "3")
    assert dependency_witness(phi, (1,)) is None


def test_scalar_function_has_no_valid_block():
    phi = GeneratorFn.identity(1, 0)
    with pytest.raises(CoordinateError):
        dependency_witness(phi, (1,))
    with pytest.raises(CoordinateError):
        dependency_witness(phi, ())


@pytest.mark.parametrize(
    "block, text",
    [
        ((), "block [] not within 1..3"),
        ((3, 1, 2), "block must be a proper nonempty subset of the coordinates"),
        ((0, 2), "block [0, 2] not within 1..3"),
        ((2, 4), "block [2, 4] not within 1..3"),
    ],
)
def test_split_blocks_memo_never_hides_a_refusal(block, text):
    """A refused block raises the same error on every call: the memo keeps
    only results, never an exception."""
    for _ in range(2):
        with pytest.raises(CoordinateError) as info:
            _split_blocks(3, block)
        assert str(info.value) == text


@pytest.mark.parametrize("blocks, text", [
    (((1,), (3,)), "blocks ((1,), (3,)) do not partition 1..2"),
    (((1, 2), (2,)), "blocks ((1, 2), (2,)) do not partition 1..3"),
    (((0, 1),), "blocks ((0, 1),) do not partition 1..2"),
])
def test_a_partition_must_cover_one_to_n(blocks, text):
    with pytest.raises(CoordinateError) as refused:
        Partition(blocks)
    assert str(refused.value) == text


def test_split_blocks_reads_any_iterable_of_coordinates():
    expected = ((2, 3), (1, 4, 5))
    assert _split_blocks(5, [3, 2]) == expected
    assert _split_blocks(5, range(2, 4)) == expected
    assert _split_blocks(5, (c for c in (3, 2, 3))) == expected
    assert _split_blocks(5, [2, 3]) == expected  # a memo hit returns the same pair


# -- finest partition ----------------------------------------------------------


def test_finest_partition_three_factors():
    rng = random.Random(3)
    phi = parallel_fn(parallel_fn(rand_fn(rng, 1, 1), rand_fn(rng, 2, 1)), rand_fn(rng, 1, 1))
    part = dependency_matrix(phi).components()
    assert len(part.blocks) >= 3
    for block in ((1,), (2, 3), (4,)):
        assert any(set(b) <= set(block) for b in part.blocks)


def test_finest_partition_fully_coupled():
    def all_xor(mu, lam):
        x = 0
        for i in range(1, mu.width + 1):
            x ^= mu.bit(i)
        return BitVec.from_bits([x] * mu.width)

    phi = fn(3, 0, all_xor)
    assert dependency_matrix(phi).components().blocks == ((1, 2, 3),)


def test_finest_partition_constant_gives_singletons():
    phi = fn(3, 1, lambda mu, lam: bv("000"))
    assert dependency_matrix(phi).components().blocks == ((1,), (2,), (3,))


def _oracle_partitions(n):
    return [(c, _cross_pairs(c)) for c in _all_partitions(range(1, n + 1))]


def test_finest_partition_brute_force_minimality_small():
    rng = random.Random(77)
    for _ in range(50):
        assert partition_oracle_verdict(rand_fn(rng, 3, 1), _oracle_partitions(3))
    for _ in range(20):
        n = rng.randint(2, 4)
        split = rng.randint(1, n - 1)
        phi = parallel_fn(rand_fn(rng, split, 1), rand_fn(rng, n - split, 1))
        assert partition_oracle_verdict(phi, _oracle_partitions(n))


def _union_find_blocks(n, rows):
    """Components of the symmetrized graph by union-find, blocks ascending,
    ordered by their first coordinate."""
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, row in enumerate(rows):
        for j in range(n):
            if row >> j & 1:
                parent[root(i)] = root(j)
    blocks = {}
    for i in range(n):
        blocks.setdefault(root(i), []).append(i + 1)
    return tuple(sorted(tuple(b) for b in blocks.values()))


def test_components_match_union_find_on_random_matrices():
    rng = random.Random(20240)
    for n in range(1, 65):
        for density in (0.0, 0.5 / n, 1.5 / n, 0.1, 0.5):
            rows = tuple(sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n))
            assert DependencyMatrix(n, rows).components().blocks == _union_find_blocks(n, rows)


@pytest.mark.parametrize("rows, blocks", [
    pytest.param((0,) * 64, tuple((i,) for i in range(1, 65)), id="singletons"),
    pytest.param(tuple(1 << (i + 1) if i < 63 else 0 for i in range(64)),
                 (tuple(range(1, 65)),), id="path"),
    pytest.param(tuple(1 << ((i + 1) % 64) for i in range(64)), (tuple(range(1, 65)),), id="cycle"),
])
def test_components_of_fixed_shapes_at_64(rows, blocks):
    assert _union_find_blocks(64, rows) == blocks
    assert DependencyMatrix(64, rows).components().blocks == blocks


def test_every_component_has_no_cross_block_dependency():
    """`analyze` certifies each block of `components()` as separated without
    a rescan; this pins the invariant it relies on, at n up to 80."""
    rng = random.Random(2480)
    checked = 0
    for n in range(2, 81):
        for density in (0.5 / n, 1.5 / n, 3.0 / n):
            rows = tuple(sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n))
            dm = DependencyMatrix(n, rows)
            blocks = dm.components().blocks
            if len(blocks) > 1:
                for block in blocks:
                    # a row in the block reads only the block, a row outside never reads it
                    mask = sum(1 << (i - 1) for i in block)
                    for i, row in enumerate(rows):
                        assert row & (~mask if mask >> i & 1 else mask) == 0, (n, rows, block)
                checked += 1
    assert checked > 100


def test_unions_of_partition_blocks_are_separated():
    rng = random.Random(55)
    for _ in range(20):
        phi = parallel_fn(rand_fn(rng, 1, 1), parallel_fn(rand_fn(rng, 1, 1), rand_fn(rng, 2, 1)))
        part = dependency_matrix(phi).components()
        if len(part.blocks) < 2:
            continue
        for pick in range(1, 1 << len(part.blocks)):
            union = sorted(i for k, b in enumerate(part.blocks) if pick >> k & 1 for i in b)
            if 0 < len(union) < phi.n:
                assert dependency_witness(phi, union) is None


def test_three_routes_agree_on_random_larger_tables():
    from asyncdec.frontend.checks import (
        derivative_separated,
        flip_invariant,
        recompose_verdict,
    )

    rng = random.Random(66)
    for _ in range(300):
        n = rng.randint(3, 4)
        m = rng.randint(0, 1)
        if rng.random() < 0.5:
            split = rng.randint(1, n - 1)
            phi = parallel_fn(rand_fn(rng, split, m), rand_fn(rng, n - split, m))
        else:
            phi = rand_fn(rng, n, m)
        block = sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
        verdicts = {
            flip_invariant(phi, block),
            derivative_separated(phi, block),
            recompose_verdict(phi, block),
        }
        assert len(verdicts) == 1


# -- split ----------------------------------------------------------------------


def test_split_of_parallel_recovers_factors():
    rng = random.Random(21)
    a = rand_fn(rng, 2, 1)
    b = rand_fn(rng, 1, 1)
    par = parallel_fn(a, b)
    first, second, part = split_fn(par, (1, 2))
    assert first.table == a.table
    assert second.table == b.table
    assert part.permutation == (1, 2, 3)


def test_split_noncontiguous_negations():
    phi = fn(2, 0, lambda mu, lam: BitVec.from_bits([1 - mu.bit(1), 1 - mu.bit(2)]))
    first, second, part = split_fn(phi, (2,))
    negate = fn(1, 0, lambda mu, lam: BitVec.from_bits([1 - mu.bit(1)]))
    assert first.table == negate.table
    assert second.table == negate.table
    assert part.permutation == (2, 1)
    relabeled = project_fn(phi, sum(part.blocks, ()))
    assert parallel_fn(first, second).table == relabeled.table


def test_split_refuses_with_witness():
    swap = fn(2, 0, lambda mu, lam: BitVec.from_bits([mu.bit(2), mu.bit(1)]))
    with pytest.raises(NotSeparatedError) as err:
        split_fn(swap, (1,))
    witness = err.value
    d = partial_derivative(swap, witness.i, witness.j)
    assert row_bit(d, swap, witness.mu, witness.lam) == 1


def test_zero_fixing_recovers_both_factors_when_separated():
    rng = random.Random(13)
    for _ in range(20):
        a = rand_fn(rng, 2, 1)
        b = rand_fn(rng, 2, 1)
        par = parallel_fn(a, b)
        assert project_fn(par, (1, 2)).table == a.table
        assert project_fn(par, (3, 4)).table == b.table


def test_project_fn_onto_the_inverse_order_roundtrips():
    rng = random.Random(31)
    phi = rand_fn(rng, 3, 1)
    order = (2, 3, 1)
    inverse = (3, 1, 2)
    assert project_fn(project_fn(phi, order), inverse).table == phi.table


def test_iterated_split_reaches_all_factors():
    # multi-block decomposition by iterating the two-way split
    rng = random.Random(41)
    parts = [rand_fn(rng, 1, 1), rand_fn(rng, 1, 1), rand_fn(rng, 2, 1)]
    phi = parallel_fn(parts[0], parallel_fn(parts[1], parts[2]))
    first, rest, _ = split_fn(phi, (1,))
    assert first.table == parts[0].table
    second, third, _ = split_fn(rest, (1,))
    assert second.table == parts[1].table
    assert third.table == parts[2].table
