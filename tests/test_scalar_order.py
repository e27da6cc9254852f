import itertools
import math
import re
import struct
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from snorder import (
    JordanSpec,
    OrderOutcome,
    TotalComplex,
    approx,
    canonical_repr,
    cmp_total,
    div_preserves_order,
    exact,
    mul_preserves_order,
    product_nonneg,
    recip_cmp,
    sort_desc,
)
from snorder.errors import BackendMismatch, DivisionByZero, OrderPreconditionFailed
from snorder.linalg import rank_gaussian_int_rows
from snorder.scalar import (
    FLOAT, dyadic_numerators, numerators, one_like, sort_desc_items, zero_like,
)
from snorder.snrepr import merge_equal

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


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("d, want", [
    (1e-9, OrderOutcome.EQUAL), (-1e-9, OrderOutcome.EQUAL),
    (2e-9, OrderOutcome.GREATER), (-2e-9, OrderOutcome.LESS),
])
def test_float_tolerance_band_edges(part, d, want):
    # A difference of exactly DEFAULT_EPS on either side is still a tie; twice
    # it is not.  On the imaginary part the real parts tie exactly.
    a = approx(d, 0.0) if part == "re" else approx(0.5, d)
    b = approx(0.0) if part == "re" else approx(0.5)
    assert cmp_total(a, b) is want
    assert cmp_total(b, a) is OrderOutcome(-want.value)


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
    # key sorts compare Fraction with float silently; the backend check must not
    lambda a, b: sort_desc([a, b]),
    lambda a, b: canonical_repr(JordanSpec.of((a, (1,)), (b, (1,)))),
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


@pytest.mark.parametrize("vals, expected", [
    # real parts within eps still sort by their exact values, then by im
    ([(1 + 5e-10, 0.0), (1.0, 3.0), (1.0, 0.0)], [(1 + 5e-10, 0.0), (1.0, 3.0), (1.0, 0.0)]),
    # 1e-9 and -5e-10 are more than eps apart; 3e-10 is within eps of both
    ([(1e-9, 10.0), (3e-10, 0.0), (-5e-10, 5.0)], [(1e-9, 10.0), (3e-10, 0.0), (-5e-10, 5.0)]),
])
def test_sort_desc_orders_real_near_ties_on_the_exact_key(vals, expected):
    for perm in itertools.permutations(vals):
        out = sort_desc([approx(*v) for v in perm])
        assert [(z.re, z.im) for z in out] == expected


# -- exact fast paths and float formulas ----------------------------------

# im = 0 in about half the draws, so the zero-imaginary shortcuts run often.
half_real = st.builds(exact, rationals, st.one_of(st.just(Fraction(0)), rationals))
finite = st.floats(min_value=-1e100, max_value=1e100)
half_real_floats = st.builds(approx, finite, st.one_of(st.sampled_from([0.0, -0.0]), finite))


def full_formulas(a, b):
    """+, -, * of a and b by the general component formulas."""
    (p, q), (r, s) = (a.re, a.im), (b.re, b.im)
    return {
        "+": (p + r, q + s),
        "-": (p - r, q - s),
        "*": (p * r - q * s, p * s + q * r),
    }


def results(a, b):
    return {"+": a + b, "-": a - b, "*": a * b}


@given(half_real, half_real)
def test_exact_arithmetic_equals_the_full_formulas(a, b):
    want = full_formulas(a, b)
    for op, z in results(a, b).items():
        assert (z.re, z.im) == want[op]
        assert type(z.re) is Fraction and type(z.im) is Fraction


@given(half_real, half_real)
def test_exact_cmp_total_is_the_sign_of_the_tuple_comparison(a, b):
    ka, kb = (a.re, a.im), (b.re, b.im)
    assert cmp_total(a, b).value == (ka > kb) - (ka < kb)


def bits(re, im):
    return struct.pack("<dd", re, im)


@given(half_real_floats, half_real_floats)
def test_float_arithmetic_is_bit_identical_to_the_full_formulas(a, b):
    want = full_formulas(a, b)
    for op, z in results(a, b).items():
        assert bits(z.re, z.im) == bits(*want[op])


@pytest.mark.parametrize("a, b", [
    (approx(-1.0, 0.0), approx(2.0, -0.0)),
    (approx(1.0, -0.0), approx(-1.0, 0.0)),
    (approx(1.0, -0.0), approx(1.0, -0.0)),
    (approx(1.0, 0.0), approx(1.0, -0.0)),
])
def test_float_arithmetic_keeps_signed_zeros(a, b):
    # A zero-imaginary shortcut would give -0.0 where the formulas give 0.0
    # (or the reverse) for some of these products and differences.
    want = full_formulas(a, b)
    for op, z in results(a, b).items():
        assert bits(z.re, z.im) == bits(*want[op])


@given(half_real, st.sampled_from([approx(1.0), approx(0.0, 2.0)]))
def test_real_exact_operands_still_reject_other_backends(e, f):
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        for a, b in ((e, f), (f, e)):
            with pytest.raises(BackendMismatch):
                op(a, b)
    with pytest.raises(TypeError):
        e + 1


def fraction_rank(rows):
    """Rank by Gaussian elimination over Q(i), on (re, im) Fraction pairs."""
    work = [[(Fraction(a), Fraction(b)) for a, b in row] for row in rows]
    rank = 0
    for c in range(len(work[0])):
        piv = next((i for i in range(rank, len(work)) if work[i][c] != (0, 0)), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pa, pb = work[rank][c]
        rho = pa * pa + pb * pb
        for i in range(rank + 1, len(work)):
            ta, tb = work[i][c]
            fa, fb = (ta * pa + tb * pb) / rho, (tb * pa - ta * pb) / rho
            work[i] = [(xa - (fa * ya - fb * yb), xb - (fa * yb + fb * ya))
                       for (xa, xb), (ya, yb) in zip(work[i], work[rank])]
        rank += 1
    return rank


@st.composite
def gaussian_int_matrices(draw):
    """1-6 rows of (re, im) integer pairs; a product of an r x k and a k x n
    factor, so ranks below min(r, n) are common.  All entries are real in
    about half the draws (real pivots only)."""
    r, k, n = (draw(st.integers(1, 6)) for _ in range(3))
    real = draw(st.booleans())
    entry = st.tuples(st.integers(-3, 3), st.just(0) if real else st.integers(-3, 3))
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=r, max_size=r))
    b = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[(sum(x * y - u * v for (x, u), (y, v) in zip(row, col)),
              sum(x * v + u * y for (x, u), (y, v) in zip(row, col)))
             for col in zip(*b)] for row in a]


@given(gaussian_int_matrices())
def test_bareiss_rank_equals_the_fraction_rank(rows):
    want = fraction_rank(rows)
    assert rank_gaussian_int_rows([list(row) for row in rows]) == want


# -- numerators: the one exact-to-integer conversion -------------------------

exact_or_float = st.one_of(scalars, scalars.map(TotalComplex.to_float_backend))


@given(st.lists(exact_or_float, max_size=6))
def test_numerators_are_the_values_over_the_lcm_of_their_denominators(values):
    cleared = numerators(values)
    assert (cleared is None) == any(z.backend == FLOAT for z in values)
    if cleared is None:
        return
    d, pairs = cleared
    assert d == math.lcm(*(q.denominator for z in values for q in (z.re, z.im)))
    assert len(pairs) == len(values)
    for z, (re_, im_) in zip(values, pairs):
        assert (Fraction(re_, d), Fraction(im_, d)) == (z.re, z.im)
    ranked = sorted(range(len(values)), key=pairs.__getitem__, reverse=True)
    assert tuple(values[k] for k in ranked) == sort_desc(values)
    for a, b in itertools.combinations(range(len(values)), 2):
        assert (pairs[a] == pairs[b]) == (cmp_total(values[a], values[b]) is OrderOutcome.EQUAL)


@given(st.lists(st.sampled_from([exact(1), exact(1, 1), exact(1, -1), exact(Fraction(1, 2)),
                                  exact(0, Fraction(1, 3)), exact(0), exact(Fraction(-3, 4), 2)]),
                max_size=7))
def test_exact_sorts_and_merges_follow_the_fraction_keys(values):
    """The integer-pair sort and grouping give the stable decreasing order
    of the Fraction keys (re, im), and groups of equal values in it."""
    items = [(z, k) for k, z in enumerate(values)]
    want = sorted(items, key=lambda item: (item[0].re, item[0].im), reverse=True)
    assert sort_desc_items(items) == want
    assert merge_equal(items) == [(run[0][0], [k for _, k in run]) for run in (
        list(run) for _, run in itertools.groupby(want, key=lambda item: item[0]))]


def test_numerators_of_no_values():
    assert numerators([]) == (1, [])
    assert dyadic_numerators([]) == (1, [])


@given(st.lists(st.builds(approx, finite, finite), max_size=6), st.booleans())
def test_dyadic_numerators_are_the_floats_over_their_largest_denominator(values, with_exact):
    if with_exact:
        values.insert(len(values) // 2, exact(1))
    cleared = dyadic_numerators(values)
    assert (cleared is None) == with_exact
    if cleared is None:
        return
    d, pairs = cleared
    dens = [Fraction(q).denominator for z in values for q in (z.re, z.im)]
    assert d == max(dens, default=1) == math.lcm(*dens)
    assert [(Fraction(re_, d), Fraction(im_, d)) for re_, im_ in pairs] == [
        (Fraction(z.re), Fraction(z.im)) for z in values]
    ranked = sorted(range(len(values)), key=pairs.__getitem__, reverse=True)
    assert tuple(values[k] for k in ranked) == sort_desc(values)


def test_only_scalar_clears_denominators():
    """No module but scalar turns exact values into integers on its own, so
    every exact kernel reads the one format that scalar.numerators states."""
    src = Path(__file__).resolve().parents[1] / "src" / "snorder"
    offenders = [p.name for p in sorted(src.glob("*.py"))
                 if p.name != "scalar.py" and re.search(r"lcm|as_integer_ratio", p.read_text())]
    assert offenders == []
