"""Generator functions as explicit truth tables, and their dependency algebra.

A generator function maps a state vector of width n and an input vector of
width m to a next-state vector of width n.  The table is total: one packed
output per row, with row index mu + (lam << n) and coordinate 1 in the least
significant bit.  All analyses here are exhaustive over the 2^(n+m) rows,
guarded by a configurable bit limit; nothing here ever samples.  An
equation file's dependency matrix is as exact without a table, over each
equation's own support (`frontend.dsl.program_matrix`).

The dependency scans are word-parallel: a kernel packs the table through
`array` into one int, row r in lane r (8/16/32/64 bits, the narrowest that
holds n bits), so a derivative over all rows is a few shifts and masks.  The
row tuple stays the only stored form.  `partial_derivative` stays row-based:
it checks its coordinates, scans the rows itself and returns a row bitmask.
The table transforms are row kernels too, tuple to tuple, under thin
`GeneratorFn` wrappers: `project_fn` expands `signals._relabeler`'s chunks
into its row offsets and output map on each call (1..n returns `phi`
itself), and `parallel_fn` runs `_parallel_rows`, which composes ints
holding a table per lane as well (the checks' recompose route runs it so).
"""

from __future__ import annotations

import os
import sys
from array import array
from functools import lru_cache
from typing import Callable, Iterable

from .errors import CoordinateError, InvalidValue, NotSeparatedError, SizeLimitError, WidthMismatch
from .signals import BitVec, _Value, _images, _relabeler

DEFAULT_SIZE_LIMIT = 20
SIZE_LIMIT_ENV = "ASYNC_DEC_SIZE_LIMIT"


def size_limit() -> int:
    """The exhaustive-scan bit limit; overridable via ASYNC_DEC_SIZE_LIMIT."""
    raw = os.environ.get(SIZE_LIMIT_ENV, str(DEFAULT_SIZE_LIMIT))
    try:
        if int(raw) >= 0:
            return int(raw)
    except ValueError:
        pass
    raise SizeLimitError(f"{SIZE_LIMIT_ENV} must be a non-negative integer, got {raw!r}")


def check_scan_size(bits: int, label: str):
    """Refuse 2^bits rows past this platform's index range (at any limit) or
    past the bit limit; `label` names what has the `bits`, as in "n+m = 5"."""
    if bits >= sys.maxsize.bit_length():
        raise SizeLimitError(f"{label}: 2^{bits} table rows exceed this platform's index range")
    if bits > (limit := size_limit()):
        raise SizeLimitError(f"{label} exceeds the exhaustive-scan limit {limit}; "
                             f"refusing to scan (set {SIZE_LIMIT_ENV} to raise the limit)")


def check_count(count: int, what: str):
    """Refuse to build more than 2^limit entries, `count` of `what`."""
    limit = size_limit()
    if count > 1 and (count - 1).bit_length() > limit:
        raise SizeLimitError(f"{count} {what} exceed 2^{limit}, the exhaustive-scan limit; "
                             f"refusing to build them (set {SIZE_LIMIT_ENV} to raise the limit)")


def lane_code(n: int) -> str:
    """The `array` type code of the narrowest lane holding n bits."""
    for code in "BHILQ":
        if array(code).itemsize * 8 >= n:
            return code
    raise SizeLimitError(f"n = {n} state bits exceed the 64-bit lane cap of the table kernels")


def lane_mask(code: str, rows: int, bit: int, low: int, high: int) -> int:
    """A lane-packed int of `rows` lanes holding `low` in the lanes whose row
    index has `bit` clear and `high` in those where it is set."""
    block = array(code, [low]) * (1 << bit) + array(code, [high]) * (1 << bit)
    return int.from_bytes(block.tobytes() * (rows >> (bit + 1)), sys.byteorder)


def _lane_derivatives(phi: GeneratorFn, js: Iterable[int]):
    """(lane code, lane width, each D_j for j in js), j counted from 0: lane r of
    D_j is the XOR of rows r and r + 2^j where row r has bit j clear, else 0."""
    code = lane_code(phi.n)
    width, rows, full = array(code).itemsize * 8, len(phi.table), (1 << phi.n) - 1
    packed = int.from_bytes(array(code, phi.table).tobytes(), sys.byteorder)
    derivs = ((packed ^ (packed >> (width << j))) & lane_mask(code, rows, j, full, 0) for j in js)
    return code, width, derivs


class GeneratorFn(_Value):
    """A total next-state function B^n x B^m -> B^n as a packed table."""

    __slots__ = _fields = ("n", "m", "table")

    def __init__(self, n: int, m: int, table: tuple[int, ...]):
        table = tuple(table)
        if n < 1 or m < 0 or len(table) != 1 << (n + m) or min(table) < 0 or max(table) >> n:
            if n < 1:
                raise WidthMismatch(f"state width must be >= 1, got {n}")
            if m < 0:
                raise WidthMismatch(f"input width must be >= 0, got {m}")
            if len(table) != 1 << (n + m):
                raise InvalidValue(
                    f"table has {len(table)} rows, expected {1 << (n + m)} for n={n} m={m}")
            raise InvalidValue(f"table entry out of range for output width {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "table", table)

    @classmethod
    def from_function(cls, n: int, m: int, fn: Callable[[BitVec, BitVec], BitVec]) -> "GeneratorFn":
        rows = []
        for lam in range(1 << m):
            lv = BitVec(m, lam)
            for mu in range(1 << n):
                out = fn(BitVec(n, mu), lv)
                if out.width != n:
                    raise WidthMismatch(f"function returned width {out.width}, expected {n}")
                rows.append(out.value)
        # rows were produced lam-major, which matches row = mu + (lam << n)
        return cls(n, m, tuple(rows))

    @classmethod
    def identity(cls, n: int, m: int) -> "GeneratorFn":
        return cls(n, m, tuple(r & ((1 << n) - 1) for r in range(1 << (n + m))))

    def eval(self, mu: BitVec, lam: BitVec) -> BitVec:
        if mu.width != self.n:
            raise WidthMismatch(f"state width {mu.width}, expected {self.n}")
        if lam.width != self.m:
            raise WidthMismatch(f"input width {lam.width}, expected {self.m}")
        return BitVec(self.n, self.table[mu.value | (lam.value << self.n)])


def partial_derivative(phi: GeneratorFn, i: int, j: int) -> int:
    """Boolean partial derivative of coordinate i with respect to state bit j.

    The XOR of coordinate i at mu_j and at its complement, as a row bitmask:
    bit r (row r = mu + (lam << n)) is set iff the derivative is 1 there.  It
    is 0 exactly when coordinate i does not depend on mu_j.  By construction
    the result is invariant under flipping mu_j.
    """
    if not 1 <= i <= phi.n:
        raise CoordinateError(f"coordinate i={i} out of 1..{phi.n}")
    if not 1 <= j <= phi.n:
        raise CoordinateError(f"coordinate j={j} out of 1..{phi.n}")
    ibit, jbit, bits = 1 << (i - 1), 1 << (j - 1), 0
    for r, out in enumerate(phi.table):
        if (out ^ phi.table[r ^ jbit]) & ibit:
            bits |= 1 << r
    return bits


class DependencyMatrix(_Value):
    """rows[i-1] is a bitmask over j: bit j-1 set iff coordinate i depends on mu_j."""

    __slots__ = _fields = ("n", "rows")

    def components(self) -> "Partition":
        """The finest partition into pairwise separated blocks, each the closure
        of its lowest unplaced coordinate: add every coordinate that is in the
        block or reads it, with the row it reads, until nothing changes.  Every
        union of the blocks is a separated block."""
        blocks, unplaced = [], (1 << self.n) - 1
        while unplaced:
            block, previous = unplaced & -unplaced, 0
            while block != previous:
                previous = block
                for i, row in enumerate(self.rows):
                    if block >> i & 1 or row & block:
                        block |= 1 << i | row
            unplaced &= ~block
            blocks.append(tuple(i + 1 for i in range(self.n) if block >> i & 1))
        return Partition(blocks)


def dependency_matrix(phi: GeneratorFn) -> DependencyMatrix:
    """D[i][j] = 1 iff the derivative of coordinate i w.r.t. mu_j is not zero;
    column j ORs the lanes of the lane derivative D_j, folded in halves."""
    check_scan_size(phi.n + phi.m, f"n+m = {phi.n + phi.m}")
    _, width, derivs = _lane_derivatives(phi, range(phi.n))
    cols = []
    for acc in derivs:
        size = width * len(phi.table)
        while size > width:
            size >>= 1
            acc = (acc >> size) | (acc & ((1 << size) - 1))
        cols.append(acc)
    rows = tuple(
        sum(((cols[j] >> i) & 1) << j for j in range(phi.n)) for i in range(phi.n)
    )
    return DependencyMatrix(phi.n, rows)


def parallel_fn(a: GeneratorFn, b: GeneratorFn) -> GeneratorFn:
    """Blockwise composition: the first n' coordinates run `a` on the first
    state block, the rest run `b` on the second, under the shared input."""
    if a.m != b.m:
        raise WidthMismatch(f"input widths differ: {a.m} vs {b.m}")
    check_scan_size(a.n + b.n + a.m, f"n+m = {a.n + b.n + a.m}")  # before any row is built
    return GeneratorFn(a.n + b.n, a.m, _parallel_rows(a.n, a.table, b.n, b.table))


def _parallel_rows(na: int, ta: tuple[int, ...], nb: int, tb: tuple[int, ...]) -> tuple[int, ...]:
    """`parallel_fn`'s rows from the rows of tables of na and nb state bits and one input width."""
    return tuple([x | y << na for lam in range(len(ta) >> na)
                  for xs, ys in ((ta[lam << na:(lam + 1) << na], tb[lam << nb:(lam + 1) << nb]),)
                  for y in ys for x in xs])


def _split_blocks(n: int, block: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(block, complement) within 1..n, both ascending; the block must be a
    proper nonempty subset.  Memoized on (n, tuple(block)); a refusal is
    never cached, so it raises anew on every call."""
    return _split_tuple(n, tuple(block))


@lru_cache(maxsize=256)
def _split_tuple(n: int, block: tuple[int, ...]):
    members = set(block)
    bs = sorted(members)
    if not bs or bs[0] < 1 or bs[-1] > n:
        raise CoordinateError(f"block {bs} not within 1..{n}")
    if len(bs) == n:
        raise CoordinateError("block must be a proper nonempty subset of the coordinates")
    return tuple(bs), tuple(i for i in range(1, n + 1) if i not in members)


def dependency_witness(phi: GeneratorFn, block: Iterable[int]):
    """A cross-block dependency (i, j, mu, lam), or None if separated: the first
    (i, j) with coordinate i reading mu_j across the block boundary, block rows
    before complement rows, each ascending, at the lowest row where that
    derivative is 1.  The scan-size refusal comes before the block's."""
    rows = dependency_matrix(phi).rows
    bs, cs = _split_blocks(phi.n, block)
    pair = next(((i, j) for i_side, j_side in ((bs, cs), (cs, bs)) for i in i_side
                 for j in j_side if rows[i - 1] >> (j - 1) & 1), None)
    if pair is None:
        return None
    i, j = pair
    code, width, (deriv,) = _lane_derivatives(phi, (j - 1,))
    hits = deriv & lane_mask(code, len(phi.table), 0, 1 << (i - 1), 1 << (i - 1))
    r = ((hits & -hits).bit_length() - 1) // width
    return i, j, BitVec(phi.n, r & ((1 << phi.n) - 1)), BitVec(phi.m, r >> phi.n)


def project_fn(phi: GeneratorFn, coords: Iterable[int]) -> GeneratorFn:
    """`phi` on the state coordinates `coords`, in that order, every other one
    frozen at 0 (irrelevant when `coords` is a separated block), or `phi` itself
    for 1..n.  From `_relabeler`'s chunks: spread[s] is state s's row offset,
    pick[out] reads out at `coords`."""
    _, _, picks, spreads = _relabeler(phi.n, cs := tuple(coords))
    if cs == tuple(range(1, phi.n + 1)):
        return phi
    table, spread, pick, step = phi.table, _images(spreads), _images(picks), 1 << phi.n
    return GeneratorFn(len(cs), phi.m, tuple([pick[table[base | r]] for base in range(0, len(table), step)
                                              for r in spread]))


class Partition(_Value):
    """Ordered disjoint blocks covering 1..n, each ascending.  Laid end to end
    they are the order that makes them contiguous; `permutation`, its inverse,
    moves old coordinate i to position permutation[i-1]."""

    __slots__ = ("blocks", "permutation")
    _fields = ("blocks",)

    def __init__(self, blocks: tuple[tuple[int, ...], ...]):
        ascending = tuple(tuple(sorted(b)) for b in blocks)
        order = sum(ascending, ())
        if sorted(order) != list(range(1, len(order) + 1)):
            raise CoordinateError(f"blocks {blocks} do not partition 1..{len(order)}")
        super().__init__(ascending)
        object.__setattr__(self, "permutation", tuple(order.index(c) + 1 for c in sorted(order)))


def _separated_blocks(phi: GeneratorFn, block: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(block, complement) as `_split_blocks` gives them, once the block is
    known to be separated; else `NotSeparatedError` with the dependency witness."""
    bs, cs = _split_blocks(phi.n, block)
    witness = dependency_witness(phi, bs)
    if witness is not None:
        raise NotSeparatedError(*witness)
    return bs, cs


def split_fn(phi: GeneratorFn, block: Iterable[int]) -> tuple[GeneratorFn, GeneratorFn, Partition]:
    """Split a separated block off as an independent factor.

    Returns (first, second, partition) such that `parallel_fn(first, second)`
    equals `project_fn(phi, block + complement)` on every row: `phi` read
    through the partition's blocks laid end to end.  Refuses with a
    dependency witness if the block is not separated.
    """
    bs, cs = _separated_blocks(phi, block)
    return project_fn(phi, bs), project_fn(phi, cs), Partition((bs, cs))
