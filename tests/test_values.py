"""Value semantics of the exported value classes: repr, equality, hashing
and immutability, pinned as they are observed."""

import copy
import gc
import pickle
from fractions import Fraction

import pytest

from snorder import (JordanSpec, OracleFunction, SNRepresentation, TTransform, TotalComplex,
                     approx, canonical_repr, exact, poly)
from snorder.errors import DimensionMismatch
from snorder.ordering import MonotonicityCertificate

HALF = exact(Fraction(1, 2))
SPEC = JordanSpec.of((exact(1), (2, 1)), (exact(0, 1), [1]))

# (value, an equal value built apart, an unequal value, repr, a field name)
VALUES = [
    (exact(1, -2), exact(Fraction(2, 2), -2), exact(1, 2),
     "TotalComplex(1, -2, exact)", "re"),
    (approx(-0.0, 0.5), approx(-0.0, 0.5), approx(0.0, -0.5),
     "TotalComplex(-0.0, 0.5, float)", "im"),
    (TTransform(0, 2, HALF), TTransform(0, 2, exact(Fraction(2, 4))), TTransform(1, 2, HALF),
     "TTransform(i=0, j=2, beta=TotalComplex(1/2, 0, exact))", "beta"),
    (SPEC, JordanSpec.of((exact(1), [2, 1]), (exact(0, 1), (1,))),
     JordanSpec.of((exact(1), (2, 1))),
     "JordanSpec(blocks=((TotalComplex(1, 0, exact), (2, 1)), "
     "(TotalComplex(0, 1, exact), (1,))))", "blocks"),
    (canonical_repr(SPEC),
     SNRepresentation((exact(1), exact(0, 1)), ((2, 1), (1,))),
     SNRepresentation((exact(1), exact(0, 1)), ((3,), (1,))),
     "SNRepresentation(eigenvalues=(TotalComplex(1, 0, exact), TotalComplex(0, 1, exact)), "
     "partitions=((2, 1), (1,)))", "partitions"),
    (poly([1, 0, Fraction(2, 3)]), poly([exact(1), 0, exact(Fraction(4, 6))]), poly([1, 0]),
     "PolynomialFunction(coefficients=(TotalComplex(1, 0, exact), TotalComplex(0, 0, exact), "
     "TotalComplex(2/3, 0, exact)))", "coefficients"),
    (OracleFunction("pow", pow), OracleFunction("pow", pow, float("inf")),
     OracleFunction("pow", pow, radius=2.0),
     "OracleFunction(name='pow', derivatives=<built-in function pow>, radius=inf)", "radius"),
    (MonotonicityCertificate("D", {"kappa_x": [1], "kappa_y": [1, 1]}),
     MonotonicityCertificate("D"), MonotonicityCertificate("E", {"kappa_x": [1]}),
     "MonotonicityCertificate(case='D', details={'kappa_x': [1], 'kappa_y': [1, 1]})",
     "case"),
]


@pytest.mark.parametrize("value, same, other, text, field", VALUES,
                         ids=[type(v[0]).__name__ + str(k) for k, v in enumerate(VALUES)])
def test_value_semantics(value, same, other, text, field):
    assert repr(value) == text
    assert value == same and hash(value) == hash(same)
    assert value != other and not value == other
    assert value.__eq__(object()) is NotImplemented
    assert value != "x"
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == text


def _has_dict(value):
    """Whether value's instance __dict__ has been built, read without
    building it."""
    return any(type(r) is dict for r in gc.get_referents(value))


@pytest.mark.parametrize("build, compute", [
    (lambda: exact(Fraction(1, 3), -2), hash),
    (lambda: poly([1, 0, Fraction(2, 3)]), hash),
    (lambda: poly([1, exact(0, Fraction(1, 2))]), lambda f: (hash(f), f._integral())),
    (lambda: canonical_repr(SPEC), lambda r: r._int_prefix()),
    (lambda: canonical_repr(JordanSpec.of((approx(1.0), (2,)))), lambda r: r._int_prefix()),
], ids=["TotalComplex", "PolynomialFunction", "integral", "int_prefix", "float_int_prefix"])
def test_values_computed_on_first_read_build_no_dict(build, compute):
    """A hash or integer form computed on first read is kept without
    building the instance's __dict__, and the value still copies, pickles,
    compares and hashes as before."""
    value = build()
    built = _has_dict(value)  # True on interpreters with no inline values
    first = compute(value)
    assert compute(value) == first and _has_dict(value) == built
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value) and compute(twin) == first


def test_defaults_are_fresh_per_instance():
    a, b = MonotonicityCertificate("A"), MonotonicityCertificate("A")
    assert a.details == {} and a.details is not b.details
    assert repr(a) == "MonotonicityCertificate(case='A', details={})"
    assert OracleFunction("pow", pow).radius == float("inf")


def test_equality_reads_backends_and_skips_details():
    assert exact(1) != approx(1.0)
    assert TotalComplex(Fraction(1), Fraction(0)) == exact(1)
    assert poly([1, 2]) != poly([1.0, 2.0], backend="float")
    assert MonotonicityCertificate("C", {"kappa_x": [2]}) == MonotonicityCertificate("C", {})


@pytest.mark.parametrize("i, j", [(1, 0), (1, 1), (-1, 2)])
def test_t_transform_needs_ordered_indices(i, j):
    with pytest.raises(DimensionMismatch):
        TTransform(i, j, HALF)
