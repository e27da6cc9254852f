"""Value semantics of the exported value classes: repr, equality, hashing
and immutability, pinned as they are observed."""

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
