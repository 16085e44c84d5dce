"""Theorem 30's three separation routes on one table: each a thin call into
its route kernel in `asyncdec.frontend.checks`, with `ones = 1`, so the tests
compare three independent code paths per table."""

from asyncdec import GeneratorFn
from asyncdec.boolfn import _split_blocks
from asyncdec.frontend.checks import (
    _cross_pairs,
    _derivative_diffs,
    _flip_cases,
    _flip_diffs,
    _recompose_diffs,
    _recompose_plan,
)


def flip_invariant(phi: GeneratorFn, block) -> bool:
    """Direct pointwise check: flipping a state bit on the other side of the
    block never changes a coordinate's value.  It reads `phi.table` one point
    at a time, at rows computed as `GeneratorFn.eval` computes them, so it
    is a route independent of the derivative tables and of relabeling."""
    return not _flip_diffs(phi.table, _flip_cases(phi.n, phi.m, block), 1)


def derivative_separated(phi: GeneratorFn, block) -> bool:
    """Derivative route: every cross-block partial derivative is identically zero."""
    return not _derivative_diffs(phi.table, _cross_pairs(_split_blocks(phi.n, block)), 1)


def recompose_verdict(phi: GeneratorFn, block) -> bool:
    """Recomposition route: zero-fix extraction of both factors succeeds
    exactly when their parallel composition reproduces the table.  Unguarded
    (no separation precheck), so the verdict is the equality itself.  It
    compares the kernel's rows and builds no `GeneratorFn`."""
    return not _recompose_diffs(phi.table, _recompose_plan(phi.n, block), 1)
