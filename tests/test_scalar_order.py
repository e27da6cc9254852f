import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from snorder import (
    OrderOutcome,
    TotalComplex,
    approx,
    cmp_total,
    div_preserves_order,
    exact,
    mul_preserves_order,
    product_nonneg,
    recip_cmp,
    sort_desc,
)
from snorder.errors import BackendMismatch, DivisionByZero, OrderPreconditionFailed
from snorder.scalar import one_like, zero_like

GRID = [exact(a, b) for a in range(-2, 3) for b in range(-2, 3)]

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)
scalars = st.builds(exact, rationals, rationals)


def test_basic_lexicographic_ordering():
    assert cmp_total(exact(1, 5), exact(2, -5)) is OrderOutcome.LESS
    assert cmp_total(exact(1, 2), exact(1, 3)) is OrderOutcome.LESS
    assert cmp_total(exact(1, 3), exact(1, 3)) is OrderOutcome.EQUAL
    assert cmp_total(exact(0, 1), exact(0)) is OrderOutcome.GREATER


def test_zero_is_the_origin_only():
    assert exact(0, 0).is_zero()
    assert not exact(0, Fraction(1, 10**9)).is_zero()


@given(scalars, scalars)
def test_cmp_total_is_the_order_of_re_im_tuples(a, b):
    ka, kb = (a.re, a.im), (b.re, b.im)
    assert cmp_total(a, b).value == (ka > kb) - (ka < kb)


@given(scalars, scalars)
def test_antisymmetry(a, b):
    ab = cmp_total(a, b)
    ba = cmp_total(b, a)
    assert ab is OrderOutcome(-ba.value)


@given(scalars, scalars, scalars)
def test_transitivity(a, b, c):
    x, y, z = sort_desc([a, b, c])
    assert cmp_total(x, y) is not OrderOutcome.LESS
    assert cmp_total(y, z) is not OrderOutcome.LESS
    assert cmp_total(x, z) is not OrderOutcome.LESS


@given(scalars, scalars)
def test_order_respects_addition(a, b):
    # translation invariance: a <= b iff a + c <= b + c
    c = exact(3, -7)
    assert cmp_total(a, b) is cmp_total(a + c, b + c)


def test_mul_predicate_against_direct_product():
    for z1, z2, z3 in itertools.product(GRID, repeat=3):
        if cmp_total(z1, z2) is OrderOutcome.GREATER:
            continue
        want = cmp_total(z1 * z3, z2 * z3) is not OrderOutcome.GREATER
        assert mul_preserves_order(z1, z2, z3) == want


def test_div_predicate_against_direct_quotient():
    for z1, z2, z3 in itertools.product(GRID, repeat=3):
        if z3.is_zero() or cmp_total(z1, z2) is OrderOutcome.GREATER:
            continue
        want = cmp_total(z1 / z3, z2 / z3) is not OrderOutcome.GREATER
        assert div_preserves_order(z1, z2, z3) == want


def test_mul_predicate_trivial_on_equal_operands():
    z = exact(2, -3)
    assert mul_preserves_order(z, z, exact(0, 1))


def test_mul_predicate_knows_the_order_is_not_multiplicative():
    # 1 <= 2 but multiplying by -1 flips the comparison
    assert not mul_preserves_order(exact(1), exact(2), exact(-1))
    # i <= 2i, times i: -1 vs -2 flips
    assert not mul_preserves_order(exact(0, 1), exact(0, 2), exact(0, 1))


def test_predicate_preconditions():
    with pytest.raises(OrderPreconditionFailed):
        mul_preserves_order(exact(2), exact(1), exact(1))
    with pytest.raises(DivisionByZero):
        div_preserves_order(exact(0), exact(1), exact(0))
    with pytest.raises(OrderPreconditionFailed):
        product_nonneg(exact(-1), exact(1))


def test_recip_cmp_against_direct_reciprocals():
    for z1, z2 in itertools.product(GRID, repeat=2):
        if z1.is_zero() or z2.is_zero():
            continue
        assert recip_cmp(z1, z2) is cmp_total(z1.reciprocal(), z2.reciprocal())


def test_recip_cmp_rejects_zero():
    with pytest.raises(DivisionByZero):
        recip_cmp(exact(0), exact(1))


def test_product_nonneg_against_direct_product():
    zero = exact(0)
    for z1, z2 in itertools.product(GRID, repeat=2):
        if (cmp_total(z1, zero) is OrderOutcome.LESS
                or cmp_total(z2, zero) is OrderOutcome.LESS):
            continue
        want = cmp_total(z1 * z2, zero) is not OrderOutcome.LESS
        assert product_nonneg(z1, z2) == want


def test_product_nonneg_golden_counterexample():
    # i >= 0 and i >= 0 but i*i = -1 < 0
    assert not product_nonneg(exact(0, 1), exact(0, 1))


def test_float_backend_tolerance():
    a = approx(1.0, 0.0)
    b = approx(1.0 + 1e-12, 1e-12)
    assert cmp_total(a, b) is OrderOutcome.EQUAL
    c = approx(1.0 + 1e-6, 0.0)
    assert cmp_total(a, c) is OrderOutcome.LESS


MIXED_OPS = [
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    lambda a, b: a / b,
    cmp_total,
    product_nonneg,
    # z3 alone is of the other backend, with z1 = z2 and with z1 < z2
    lambda a, b: mul_preserves_order(a, a, b),
    lambda a, b: mul_preserves_order(a, a + a, b),
    lambda a, b: div_preserves_order(a, a, b),
    lambda a, b: div_preserves_order(a, a + a, b),
]


def test_mixed_backends_rejected():
    e, f = exact(1), approx(1.0)
    for op in MIXED_OPS:
        for a, b in ((e, f), (f, e)):
            with pytest.raises(BackendMismatch):
                op(a, b)


def test_backend_follows_component_type():
    assert exact(1) != approx(1.0)
    assert exact(1) == exact(Fraction(2, 2))
    assert approx(1.0) == approx(1.0)
    assert (exact(1).backend, approx(1.0).backend) == ("exact", "float")
    assert TotalComplex(Fraction(1), Fraction(0)).backend == "exact"
    assert TotalComplex(1.0, 0.0).backend == "float"
    assert (one_like(exact(3, 2)), zero_like(exact(3, 2))) == (exact(1), exact(0))
    assert (one_like(approx(3.0)), zero_like(approx(3.0))) == (approx(1.0), approx(0.0))


def test_sort_desc_is_stable_and_ordered():
    vals = [exact(1, 1), exact(2), exact(1, -1), exact(2)]
    out = sort_desc(vals)
    assert [v.to_complex() for v in out] == [2, 2, (1 + 1j), (1 - 1j)]
