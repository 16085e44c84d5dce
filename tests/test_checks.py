"""Verification suites: report verdicts."""

import pytest

import asyncdec.boolfn
import asyncdec.signals
from asyncdec import GeneratorFn
from asyncdec.frontend import checks
from asyncdec.systems import DecompositionResult
from asyncdec.frontend.checks import (
    derivative_separated,
    flip_invariant,
    lemma1_suite,
    recompose_verdict,
    synchronous_suite,
    theorem26_suite,
    theorem27_suite,
    theorem32_suite,
    theorem34_suite,
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


def test_theorem30_routes_share_no_dependency_scan(monkeypatch):
    """The three separation routes stay independent of the dependency scan:
    with `dependency_matrix` and the lane derivatives disabled, all three
    still run and agree on a fixed sample of the n=2 m=1 tables."""

    def disabled(*args, **kwargs):
        raise AssertionError("a theorem-30 route reached the dependency scan")

    monkeypatch.setattr(asyncdec.boolfn, "dependency_matrix", disabled)
    monkeypatch.setattr(asyncdec.boolfn, "_lane_derivatives", disabled)
    verdicts = set()
    for packed in range(0, 1 << 16, 257):
        phi = GeneratorFn(2, 1, tuple((packed >> (2 * r)) & 3 for r in range(8)))
        routes = {
            flip_invariant(phi, (1,)),
            derivative_separated(phi, (1,)),
            recompose_verdict(phi, (1,)),
        }
        assert len(routes) == 1, phi.table
        verdicts |= routes
    assert verdicts == {True, False}


def test_flip_and_derivative_routes_share_no_relabeling(monkeypatch):
    """The flip and derivative routes never relabel: with the relabeler and
    `project_fn` disabled, both still agree with the recompose verdict on the
    sample of the dependency-scan test above."""

    def disabled(*args, **kwargs):
        raise AssertionError("a theorem-30 route reached the relabeler")

    sample = [
        GeneratorFn(2, 1, tuple((packed >> (2 * r)) & 3 for r in range(8)))
        for packed in range(0, 1 << 16, 257)
    ]
    expected = [recompose_verdict(phi, (1,)) for phi in sample]
    checks._flip_cases.cache_clear()  # the flip route builds its cases under the patch
    monkeypatch.setattr(asyncdec.signals, "_relabeler", disabled)
    monkeypatch.setattr(asyncdec.boolfn, "_relabeler", disabled)
    monkeypatch.setattr(asyncdec.boolfn, "project_fn", disabled)
    monkeypatch.setattr(checks, "project_fn", disabled)
    for phi, verdict in zip(sample, expected):
        assert flip_invariant(phi, (1,)) == derivative_separated(phi, (1,)) == verdict, phi.table
    assert set(expected) == {True, False}


def test_theorem34_diagonal_witness_prints_inputs_as_event_lines(monkeypatch):
    """A diagonal example misreported as `equal` is named with each input in
    the event-line format, as `decompose` prints it."""
    def misreported(*args):
        r = real(*args)
        return DecompositionResult(
            r.first, r.second, "equal", r.partition, r.phi0_product_form, r.product_condition, r.hull_sizes
        )

    real = checks.decompose_system
    monkeypatch.setattr(checks, "decompose_system", misreported)
    report = theorem34_suite(1, 2)
    assert report.failures == 1
    assert report.details == (
        "diagonal example: status=equal; input n=1 init=0 H=10 events=(0,1): own 2, hull 4",
    )


def test_theorem32_scans_each_case_once(monkeypatch):
    """A case's separation test is the dependency scan inside `split_fn`, and
    a block it refuses is that case's failure, not an exception."""
    real, scans = asyncdec.boolfn.dependency_matrix, []
    monkeypatch.setattr(
        asyncdec.boolfn, "dependency_matrix", lambda phi: scans.append(phi) or real(phi)
    )
    report = theorem32_suite(3, 20)
    assert report.ok and len(scans) == report.cases == 20
    monkeypatch.setattr(asyncdec.boolfn, "dependency_witness", lambda phi, block: (1, 2, 0, 0))
    refused = theorem32_suite(3, 20)
    assert refused.failures == refused.cases == 20
    assert refused.details[0].startswith("case 0: ")
