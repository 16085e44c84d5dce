"""The value types are immutable, pickle, and are never tuples.

Each of the package's value types is a `__slots__` class over
`signals._Value`: assigning or deleting a field raises, a pickled copy equals
the original, and no instance is a tuple (so a report never passes for the
tuples some callers return, and a `BitVec` never equals a pair).
"""

import pickle

import pytest

from asyncdec import (
    BitVec,
    GeneratorFn,
    ProgressiveFunction,
    RegularSystem,
    SignalSet,
    decompose_system,
    dependency_matrix,
    round_robin,
    unit_step,
)
from asyncdec.frontend.checks import CheckReport
from asyncdec.frontend.dsl import parse_dsl


def _instances():
    phi = GeneratorFn.identity(2, 1)
    step = unit_step(0, 6)
    mu = BitVec(2, 1)
    system = RegularSystem(phi, (step,), {step: {mu}}, {(mu, step): {round_robin(2, (1, 2), 6)}})
    result = decompose_system(system, (1,), 6)
    return [
        mu,
        step,
        SignalSet(1, 6, [step]),
        ProgressiveFunction(2, ((1, 3), (2, 0)), 6),
        phi,
        dependency_matrix(phi),
        result.partition,
        system,
        result,
        parse_dsl("x1' = x1 ^ u1\n"),
        CheckReport("suite", 1, 0, ()),
    ]


VALUES = _instances()


def test_every_value_type_is_covered():
    assert sorted(type(x).__name__ for x in VALUES) == sorted(
        "BitVec Signal SignalSet ProgressiveFunction GeneratorFn DependencyMatrix Partition RegularSystem "
        "DecompositionResult EquationProgram CheckReport".split()
    )


@pytest.mark.parametrize("value", VALUES, ids=lambda x: type(x).__name__)
def test_value_type_contract(value):
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert pickle.loads(pickle.dumps(value)) == value
    assert not isinstance(value, tuple)


@pytest.mark.parametrize("value", VALUES, ids=lambda x: type(x).__name__)
def test_value_type_construction(value):
    """Every type is built from its fields by position or by name, and a
    missing, extra, unknown or repeated field is refused, as a signature is."""
    cls, fields = type(value), type(value)._fields
    values = tuple(getattr(value, f) for f in fields)
    assert cls(*values) == value
    assert cls(**dict(zip(fields, values))) == value
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == value
    for args, named in (
        (values[:-1], {}),
        (values + (values[0],), {}),
        (values, {"no_such_field": 0}),
        (values, {fields[0]: values[0]}),
    ):
        with pytest.raises(TypeError):
            cls(*args, **named)


def test_bitvec_is_not_a_pair_and_hashes_as_one():
    assert BitVec(2, 1) != (2, 1)
    for w, v in ((0, 0), (2, 1), (5, 17), (64, 2**63)):
        assert hash(BitVec(w, v)) == hash((w, v))


def test_repr_names_every_field():
    assert repr(BitVec(2, 1)) == "BitVec(width=2, value=1)"
    assert repr(unit_step(0, 6)) == "Signal(width=1, initial=0, events=((0, 1),), horizon=6)"
