"""Value semantics of the exported value classes: repr, equality, hashing
and immutability, pinned as they are observed."""

import copy
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import pytest

import snorder
from snorder import (JordanSpec, OracleFunction, SNOVerdict, SNRepresentation, TTransform,
                     TotalComplex, approx, canonical_repr, exact, poly)
from snorder.errors import DimensionMismatch
from snorder.ordering import (ConvexityPoint, MajorizationCert, MajorizationPreserveResult,
                              MonotonicityCertificate)
from snorder.scalar import Frozen, Value
from snorder.schur import Counterexample, DomainBox, OstrowskiRecord, SymmetricFunction

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
    first = compute(value)
    assert compute(value) == first and not hasattr(value, "__dict__")
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


RECORDS = [
    (Counterexample((exact(1), exact(0)), (exact(2), exact(-1)), 1j, 2 + 0j, 3),
     Counterexample((exact(1), exact(0)), (exact(2), exact(-1)), 1j, 2 + 0j, 4),
     "Counterexample(x=(TotalComplex(1, 0, exact), TotalComplex(0, 0, exact)), "
     "y=(TotalComplex(2, 0, exact), TotalComplex(-1, 0, exact)), f_x=1j, f_y=(2+0j), "
     "trial=3)", "trial"),
    (MajorizationPreserveResult(MajorizationCert.CERTIFIED_DECREASING, True),
     MajorizationPreserveResult(MajorizationCert.CERTIFIED_DECREASING),
     "MajorizationPreserveResult(kind=<MajorizationCert.CERTIFIED_DECREASING: "
     "'certified_decreasing'>, reversed_direction=True)", "kind"),
]


@pytest.mark.parametrize("value, other, text, field", RECORDS,
                         ids=[type(v[0]).__name__ for v in RECORDS])
def test_unhashable_records_compare_by_fields(value, other, text, field):
    assert repr(value) == text
    assert value == copy.copy(value) == pickle.loads(pickle.dumps(value))
    assert value == copy.deepcopy(value) and value != other and value.__eq__(1) is NotImplemented
    with pytest.raises(TypeError):
        hash(value)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(value, field)


IDENTITY = [
    (DomainBox(1.0, 0.0, 0.5), "DomainBox(c1=1.0, c2=0.0, c3=0.5)"),
    (SymmetricFunction(2, sum), "SymmetricFunction(arity=2, value=<built-in function sum>, "
                                "gradient=None)"),
    (OstrowskiRecord(0, 1, 0, 0.5, -0.25, 2, True),
     "OstrowskiRecord(sample=0, i=1, j=0, d_re=0.5, d_im=-0.25, case=2, ok=True)"),
    (ConvexityPoint(Fraction(1, 2), SNOVerdict.EQUAL, False),
     "ConvexityPoint(t=Fraction(1, 2), verdict=<SNOVerdict.EQUAL: 'equal'>, greater=False, "
     "error=None)"),
]


@pytest.mark.parametrize("value, text", IDENTITY, ids=[type(v[0]).__name__ for v in IDENTITY])
def test_identity_records_compare_by_identity(value, text):
    """Equal only to themselves; a copy or pickle rebuilds the same fields."""
    assert repr(value) == text
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and repr(twin) == text
        assert twin != value and twin.__eq__(value) is NotImplemented
    assert value == value and hash(value) == object.__hash__(value)
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_a_lambda_field_refuses_to_pickle_but_copies():
    f = SymmetricFunction(2, lambda x: sum(x))
    assert copy.copy(f).value is f.value and copy.deepcopy(f).value is f.value
    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(f)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_frozen_class_has_slots_and_fields_in_init_order():
    """Every class below Frozen, in every snorder module, declares __slots__
    at each level of its MRO, so none of its instances has a __dict__, and
    its _fields are its __init__'s arguments, in order: copy and pickle pass
    them back to it."""
    for info in pkgutil.iter_modules(snorder.__path__):
        importlib.import_module(f"snorder.{info.name}")
    built = [v[0] for v in VALUES] + [v[0] for v in RECORDS] + [v[0] for v in IDENTITY]
    classes = set(_subclasses(Frozen))
    assert classes - {Value} == {type(v) for v in built}
    for cls in classes:
        assert all("__slots__" in vars(k) for k in cls.__mro__[:-1]), cls
    for value in built:
        assert not hasattr(value, "__dict__"), type(value)
        assert list(inspect.signature(type(value)).parameters) == list(value._fields), value
