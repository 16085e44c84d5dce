"""Verification suites: report verdicts."""

import pytest

from asyncdec.frontend.checks import (
    lemma1_suite,
    synchronous_suite,
    theorem26_suite,
    theorem27_suite,
    theorem32_suite,
)


@pytest.mark.parametrize(
    "suite", [theorem26_suite, theorem27_suite, theorem32_suite, lemma1_suite, synchronous_suite]
)
def test_a_suite_with_zero_cases_fails(suite):
    report = suite(1, 0)
    assert report.cases == 0
    assert not report.ok
    assert report.summary().endswith("0/0 ok -> FAIL")
    assert suite(1, 1).ok
