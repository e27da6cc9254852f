import cmath
import math
import random
import struct
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from snorder import (
    JordanSpec,
    SNRepresentation,
    approx,
    canonical_repr,
    derivative_order_kappa,
    dominance_check,
    exact,
    f_jordan_block,
    gdod_f_g,
    gdod_two_blocks,
    kappa,
    named_oracle,
    poly,
    repr_of_fx,
    repr_from_matrix,
    split_block,
)
from snorder.errors import (
    IncomparableNilpotent,
    KappaNotFound,
    OutsideAnalyticityRadius,
)
from snorder.matfunc import PolynomialFunction
from snorder.linalg import Matrix
from snorder.scalar import EXACT, FLOAT, from_numerators, numerators, one_like, order_key, zero_like
from snorder import matfunc
from snorder.matfunc import (
    NAMED_ORACLES,
    OracleFunction,
    eta,
    eta_given_kappa,
    f_of_jordan_spec,
)
from snorder.partitions import merge_desc

from matrix_oracles import block_diag, jordan_matrix, rank_oracle_split
from test_partitions import partitions_up_to, prefix


def test_polynomial_evaluation_and_derivatives():
    f = poly([1, -2, 0, 1])  # 1 - 2z + z^3
    lam = exact(2)
    assert f(lam).to_complex() == 5
    t = f.taylor(lam, 5)
    assert [math.factorial(q) * t[q].to_complex() for q in range(4)] == [5, 10, 12, 6]
    assert t[4].is_zero()


def _falling_factorial_sum(coeffs, lam, order):
    """sum over k >= order of k!/(k - order)! c_k lam^(k - order)."""
    acc = exact(0)
    for k, c in enumerate(coeffs):
        if k >= order:
            term = c
            for _ in range(k - order):
                term = term * lam
            acc = acc + term.scale_rational(math.perm(k, order))
    return acc


def _gaussian_rational(rng):
    return exact(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                 Fraction(rng.randint(-5, 5), rng.randint(1, 4)))


@pytest.mark.parametrize("seed", range(20))
def test_exact_derivative_value_matches_falling_factorial_sum(seed):
    """The q-th derivative read off taylor (q! t[q]) on seeded polynomials,
    at three points on one instance, which scales its coefficients once."""
    rng = random.Random(seed)
    f = poly([_gaussian_rational(rng) for _ in range(rng.randint(1, 6))])
    for lam in [_gaussian_rational(rng) for _ in range(3)]:
        t = f.taylor(lam, f.degree + 2)
        for order in range(f.degree + 2):
            v = t[order].scale_rational(math.factorial(order))
            expected = _falling_factorial_sum(f.coefficients, lam, order)
            assert (v.backend, v.re, v.im) == (expected.backend, expected.re, expected.im)


def test_float_polynomial_refuses_exact_points():
    f = poly([1.5, 2.0], backend="float")
    for _ in range(2):  # the refusal is not cached away
        with pytest.raises(TypeError, match="float coefficients cannot evaluate at exact points"):
            f.taylor(exact(1), 2)
    assert f.taylor(approx(1.0), 2)[0].to_complex() == 3.5


small_rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
gaussian_rationals = st.builds(exact, small_rationals, small_rationals)
polynomials = st.lists(gaussian_rationals, min_size=1, max_size=6).map(poly)


def _reference_taylor(f, lam, n):
    """f^(q)(lam)/q! for q < n from the falling-factorial sums."""
    return [_falling_factorial_sum(f.coefficients, lam, q).scale_rational(
        Fraction(1, math.factorial(q))) for q in range(n)]


def _bits(values):
    return [(v.backend, repr(v.re), repr(v.im)) for v in values]


@settings(max_examples=60)
@given(polynomials, gaussian_rationals, st.data())
def test_exact_taylor_prefixes_in_any_order(f, lam, data):
    """Orders below, at and above degree + 1, asked in a drawn order of one
    instance, each read the same memoized shift."""
    orders = data.draw(st.permutations([1, f.degree, f.degree + 1, f.degree + 2, f.degree + 4]))
    for n in orders:
        assert _bits(f.taylor(lam, n)) == _bits(_reference_taylor(f, lam, n))


@settings(max_examples=60)
@given(polynomials, st.lists(gaussian_rationals, max_size=5))
def test_exact_images_are_the_values_of_f_over_one_denominator(f, points):
    d, pairs = numerators(points)
    den, images = f.exact_images(d, pairs)
    assert _bits(from_numerators(den, images)) == _bits([_reference_taylor(f, z, 1)[0]
                                                          for z in points])


def test_exact_images_of_float_coefficients_raise_what_a_point_evaluation_does():
    f = poly([1.0, 2.0], backend="float")
    with pytest.raises(TypeError) as at_point:
        f(exact(1))
    with pytest.raises(TypeError) as images:
        f.exact_images(1, [(1, 0)])
    assert str(images.value) == str(at_point.value)


def test_exact_taylor_results_are_fresh_lists():
    f, lam = poly([1, -2, 0, 1]), exact(2)
    expected = _bits(_reference_taylor(f, lam, 6))
    first = f.taylor(lam, 6)
    first[0] = exact(99)
    first.append(exact(7))
    f.taylor(lam, 2).clear()
    assert _bits(f.taylor(lam, 6)) == expected
    assert _bits(poly([1, -2, 0, 1]).taylor(exact(2), 6)) == expected  # an equal key


def test_exact_taylor_shifts_once_per_point(monkeypatch):
    """Any sequence of orders at one (f, lam), below, at and above the
    degree, reads one whole shift."""
    f, lam = poly(list(range(1, 17))), exact(Fraction(3, 7), -2)
    shifts = []
    shift = PolynomialFunction._shift
    monkeypatch.setattr(PolynomialFunction, "_shift",
                        lambda self, z: shifts.append(z) or shift(self, z))
    matfunc._expansion.cache_clear()
    for n in (1, 1, 4, 2, 4, 20, 16, 9):
        assert _bits(f.taylor(lam, n)) == _bits(_reference_taylor(f, lam, n))
    assert shifts == [lam]


def _seeded_float_points_and_polynomials(count, seed=20):
    """count (f, lam): exact and float polynomials of degree 0 to 6 at float
    points, parts drawn with signed zeros among them."""
    rng = random.Random(seed)
    part = lambda: rng.choice([0.0, -0.0, rng.uniform(-3, 3)])
    ratio = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    for _ in range(count):
        size = 1 + rng.randrange(7)
        if rng.random() < 0.5:
            f = poly([exact(ratio(), ratio()) for _ in range(size)])
        else:
            f = poly([complex(part(), part()) for _ in range(size)], backend="float")
        yield f, approx(part(), part())


def test_float_point_value_has_the_bits_of_the_taylor_shift():
    for f, lam in _seeded_float_points_and_polynomials(2000):
        assert _bits([f(lam)]) == _bits(f.taylor(lam, 1))


def test_float_point_value_runs_no_taylor_shift(monkeypatch):
    def refuse(self, lam):
        raise AssertionError("f(lam) at a float point ran the Taylor shift")
    monkeypatch.setattr(PolynomialFunction, "_shift", refuse)
    z = 0.5 - 1.5j
    value = poly([1, Fraction(-2, 3), 0, 1])(approx(z.real, z.imag))
    assert value.backend == "float"
    assert value.to_complex() == pytest.approx(1 - 2 / 3 * z + z ** 3)
    assert poly([2.5], backend="float")(approx(-0.0)).to_complex() == 2.5


def test_taylor_keeps_each_backend():
    """exact(1) and approx(1.0) hash alike; neither polynomial nor point may
    stand in for the other."""
    exact_f, float_f = poly([1, 2, 3]), poly([1.0, 2.0, 3.0], backend="float")
    assert hash(exact_f) == hash(float_f) and exact_f != float_f
    assert [v.backend for v in exact_f.taylor(exact(1), 4)] == ["exact"] * 4
    assert [v.backend for v in float_f.taylor(approx(1.0), 4)] == ["float"] * 4
    assert [v.backend for v in exact_f.taylor(approx(1.0), 4)] == ["float"] * 4
    with pytest.raises(TypeError):
        float_f.taylor(exact(1), 4)
    assert [v.backend for v in exact_f.taylor(exact(1), 4)] == ["exact"] * 4


def test_float_taylor_keeps_signed_zero_points_apart():
    f = poly([-0.0, 1.0], backend="float")
    assert math.copysign(1.0, f(approx(0.0)).re) == 1.0
    assert math.copysign(1.0, f(approx(-0.0)).re) == -1.0
    assert math.copysign(1.0, f(approx(0.0)).re) == 1.0


@settings(max_examples=60)
@given(polynomials, gaussian_rationals, st.integers(1, 3))
def test_exact_taylor_matches_falling_factorial_sum(f, lam, extra):
    n = f.degree + 1 + extra
    t = f.taylor(lam, n)
    assert len(t) == n
    for q in range(n):
        v = t[q].scale_rational(math.factorial(q))
        expected = _falling_factorial_sum(f.coefficients, lam, q)
        assert (v.backend, v.re, v.im) == (expected.backend, expected.re, expected.im)


@settings(max_examples=60)
@given(polynomials, gaussian_rationals)
def test_float_taylor_matches_exact(f, lam):
    n = f.degree + 2
    exact_t = f.taylor(lam, n)
    float_f = poly([c.to_complex() for c in f.coefficients], backend="float")
    float_t = float_f.taylor(lam.to_float_backend(), n)
    for a, b in zip(float_t, exact_t):
        assert a.backend == "float"
        # relative, with a unit floor for coefficients at or near zero
        assert abs(a.to_complex() - b.to_complex()) <= 1e-9 * max(1.0, abs(b.to_complex()))


_LAYOUT_SPECS = {
    EXACT: JordanSpec.of(
        (exact(0), (3, 2, 2, 1)),
        (exact(1), (2,)),
        (exact(Fraction(1, 2), -1), (1, 1)),
    ),
    FLOAT: JordanSpec.of(
        (approx(-0.0, -0.0), (3, 2, 2, 1)),
        (approx(1.0), (2,)),
        (approx(0.5, -1.0), (1, 1)),
    ),
}


def _jordan_block(lam, size):
    one, zero = one_like(lam), zero_like(lam)
    return Matrix.from_rows([[lam if j == i else one if j == i + 1 else zero
                              for j in range(size)] for i in range(size)])


@pytest.mark.parametrize("f", [
    poly([0, 0, 1]),
    poly([-1, 3, -3, 1]),
    poly([exact(Fraction(1, 2), 1), 0, exact(0, Fraction(-1, 3)), 1]),
    pytest.param(poly([0.5, -1, 0.25j, 1], backend="float"), id="float-poly"),
    pytest.param(named_oracle("exp"), id="exp"),
    pytest.param(EXACT, id="jordan-exact"),
    pytest.param(FLOAT, id="jordan-float"),
])
def test_f_of_jordan_spec_is_block_diag_of_per_size_blocks(f):
    # f(J), or J itself for a backend name, against the direct sum of its
    # per-size blocks, by repr: Matrix == calls 0.0 and -0.0 equal.
    if isinstance(f, str):
        spec, block = _LAYOUT_SPECS[f], _jordan_block
    else:
        float_f = isinstance(f, OracleFunction) or f.coefficients[0].backend == FLOAT
        spec, block = _LAYOUT_SPECS[FLOAT if float_f else EXACT], partial(f_jordan_block, f)
    rx = canonical_repr(spec)
    got = jordan_matrix(spec) if isinstance(f, str) else f_of_jordan_spec(f, rx)
    expected = block_diag([
        block(lam, size)
        for lam, part in zip(rx.eigenvalues, rx.partitions)
        for size in part
    ])
    assert repr(got.rows) == repr(expected.rows)


def test_f_of_jordan_spec_of_an_oracle_at_exact_eigenvalues_is_one_float_matrix():
    """exp's Taylor values are floats at an exact eigenvalue, so the zeros
    off its blocks are too, and recovery reads the structure repr_of_fx
    predicts."""
    f = named_oracle("exp")
    rx = canonical_repr(JordanSpec.of((exact(0), (2, 1))))
    x = f_of_jordan_spec(f, rx)
    assert {type(z.re) for row in x.rows for z in row} == {float}
    images = [f(lam) for lam in rx.eigenvalues]
    assert repr_from_matrix(x, images) == repr_of_fx(f, rx)[0]


def test_f_jordan_block_is_toeplitz_in_derivatives():
    f = poly([0, 0, 1])  # z^2
    lam = exact(3)
    m = f_jordan_block(f, lam, 3)
    # rows: [9, 6, 1], [0, 9, 6], [0, 0, 9]
    vals = [[z.to_complex() for z in row] for row in m.rows]
    assert vals == [[9, 6, 1], [0, 9, 6], [0, 0, 9]]


def test_named_oracle_exp_matches_series():
    f = named_oracle("exp")
    m = f_jordan_block(f, approx(0.0), 4)
    vals = [m.rows[0][q].to_complex() for q in range(4)]
    assert vals == pytest.approx([1, 1, 0.5, 1 / 6])


def test_kappa_exact_and_not_found():
    f = poly([0, 0, 0, 1])  # z^3
    assert derivative_order_kappa(f, exact(0), 5) == 3
    assert derivative_order_kappa(f, exact(1), 5) == 1
    const = poly([7])
    with pytest.raises(KappaNotFound):
        derivative_order_kappa(const, exact(0), 4)
    assert kappa(const, exact(0), 4) is None
    assert kappa(f, exact(0), 2) is None  # kappa 3 lies past the highest order asked
    # f = i z: its first derivative is purely imaginary
    assert kappa(poly([0, exact(0, 1)]), exact(0), 3) == 1


def test_float_kappa_cuts_the_derivative_not_the_coefficient():
    """f'' = 1.5e-10 everywhere: its Taylor coefficient 7.5e-11 lies below
    DERIVATIVE_EPS, the derivative above it; 0.9e-10 lies below both."""
    above = OracleFunction("above", lambda z, q: 1.5e-10 + 0j if q == 2 else 0j)
    below = OracleFunction("below", lambda z, q: 0.9e-10 + 0j if q == 2 else 0j)
    assert kappa(above, approx(0.0), 3) == kappa(above, approx(0.0), 2) == 2
    assert kappa(below, approx(0.0), 3) is None
    assert eta(below, approx(0.0), (3,)) == (1, 1, 1)


def _times(p, q):
    """The product of two ascending lists of exact coefficients."""
    out = [exact(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def _value(coefficients, z):
    """The ascending coefficients at z, by Horner's rule on values."""
    out = exact(0)
    for c in reversed(coefficients):
        out = out * z + c
    return out


tiny_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
points = st.builds(exact, tiny_rationals, st.one_of(st.just(Fraction(0)), tiny_rationals))
small_partitions = st.sampled_from(partitions_up_to(8)[1:])  # dimension 1 to 8


@st.composite
def flat_functions(draw):
    """(f, lam0, kappa): f = c + (z - lam0)^kappa g with g(lam0) != 0, so
    f's first nonvanishing derivative at lam0 has order kappa, 1 to 6."""
    lam0, k, c = draw(points), draw(st.integers(1, 6)), draw(points)
    g = draw(st.lists(points, min_size=1, max_size=3).filter(
        lambda g: not _value(g, lam0).is_zero()))
    coefficients = g
    for _ in range(k):
        coefficients = _times(coefficients, [-lam0, exact(1)])
    coefficients[0] = coefficients[0] + c
    return PolynomialFunction(tuple(coefficients)), lam0, k


@settings(max_examples=80, deadline=None)
@given(flat_functions(), st.integers(1, 8), small_partitions, points, small_partitions)
def test_kappa_of_a_flat_polynomial_is_its_order(flat, highest, part0, lam1, part1):
    """kappa up to 6, at exact points real and not: kappa is the order, or
    None above highest, the first nonzero entry of taylor's values, and
    repr_of_fx agrees with the structure recovered from f(J) on a spec of
    dimension at most 8."""
    f, lam0, k = flat
    assert kappa(f, lam0, highest) == (k if k <= highest else None)
    t = f.taylor(lam0, highest + 1)
    assert kappa(f, lam0, highest) == next(
        (q for q in range(1, highest + 1) if not t[q].is_zero()), None)
    assert eta(f, lam0, part0) == eta_given_kappa(part0, k)
    blocks = [(lam0, part0)] + ([(lam1, part1)] if lam1 != lam0 and sum(part0 + part1) <= 8
                                else [])
    rx = canonical_repr(JordanSpec.of(*blocks))
    images = list({order_key(f(lam)): f(lam) for lam in rx.eigenvalues}.values())
    assert repr_of_fx(f, rx)[0] == repr_from_matrix(f_of_jordan_spec(f, rx), images)


def test_radius_enforced_for_oracles():
    f = OracleFunction("toy", lambda z, q: 1.0, radius=1.0)
    with pytest.raises(OutsideAnalyticityRadius):
        f_jordan_block(f, approx(2.0), 2)


def test_radius_enforced_by_every_structure_function():
    f = OracleFunction("toy", lambda z, q: 1.0, radius=1.0)
    lam = approx(2.0)
    rx = SNRepresentation((lam,), ((2,),))
    with pytest.raises(OutsideAnalyticityRadius):
        derivative_order_kappa(f, lam, 2)
    with pytest.raises(OutsideAnalyticityRadius):
        eta(f, lam, (2,))
    with pytest.raises(OutsideAnalyticityRadius):
        repr_of_fx(f, rx)
    with pytest.raises(OutsideAnalyticityRadius):
        gdod_f_g(f, rx, f, rx)
    with pytest.raises(OutsideAnalyticityRadius):
        f(lam)


def test_oracle_value_inside_the_radius_keeps_the_oracle_bits():
    # exp(0.5 - 0i) has imaginary part -0.0, and the toy oracle a real part
    # -0.0; dividing by 0! = 1 would turn either into +0.0.
    exp = OracleFunction("exp", NAMED_ORACLES["exp"], radius=1.0)
    z = exp(approx(0.5, -0.0))
    want = cmath.exp(complex(0.5, -0.0))
    assert struct.pack("<dd", z.re, z.im) == struct.pack("<dd", want.real, want.imag)
    assert math.copysign(1.0, z.im) == -1.0
    toy = OracleFunction("toy", lambda z, q: complex(-0.0, 1.0), radius=1.0)
    w = toy(approx(0.5))
    assert (math.copysign(1.0, w.re), w.im) == (-1.0, 1.0)


def test_split_block_golden():
    part, gaps = split_block(4, 2)
    assert part == (2, 2)
    assert gaps == (2, 0)
    part, gaps = split_block(5, 3)
    assert part == (2, 2, 1)
    assert gaps == (3, 1, 0)
    # kappa beyond the block size: all ones
    part, gaps = split_block(3, 5)
    assert part == (1, 1, 1)
    assert gaps == (2, 1, 0, 0, 0)


def test_split_block_matches_rank_oracle_spot():
    for n, kappa in [(1, 1), (6, 2), (7, 3), (9, 4), (12, 5), (8, 8), (5, 9)]:
        assert split_block(n, kappa)[0] == rank_oracle_split(n, kappa)


def test_split_gaps_are_prefix_differences():
    for n in range(1, 13):
        for kappa in range(1, 13):
            part, gaps = split_block(n, kappa)
            want = tuple(n - prefix(part, j) for j in range(1, kappa + 1))
            assert gaps == want
            assert sum(part) == n
            assert dominance_check(part, (n,))


def test_gdod_two_blocks_against_merge_oracle_spot():
    for n1, n2, kappa in [(5, 3, 2), (10, 10, 3), (7, 2, 4), (9, 4, 9), (6, 6, 1)]:
        merged = merge_desc(split_block(n1, kappa)[0], split_block(n2, kappa)[0])
        for j in range(1, 2 * kappa + 3):
            want = prefix((n1, n2), j) - prefix(merged, j)
            assert gdod_two_blocks(n1, n2, kappa, j) == want


def test_gdod_two_blocks_validation():
    with pytest.raises(ValueError):
        gdod_two_blocks(2, 3, 1, 1)
    with pytest.raises(ValueError):
        gdod_two_blocks(3, 2, 1, 0)


def test_eta_golden():
    f = poly([0, 0, 1])
    assert eta(f, exact(0), (4, 3, 2)) == (2, 2, 2, 1, 1, 1)
    assert eta_given_kappa((4, 3, 2), 2) == (2, 2, 2, 1, 1, 1)
    # locally constant f: every block dissolves into eigenvectors
    assert eta(poly([5]), exact(1), (3, 2)) == (1, 1, 1, 1, 1)


def test_repr_of_fx_golden_gaps():
    f = poly([0, 0, 1])
    rx = canonical_repr(JordanSpec.of((exact(0), (4, 3, 2))))
    image, gaps = repr_of_fx(f, rx)
    assert image.partitions == ((2, 2, 2, 1, 1, 1),)
    assert gaps == ((2, 3, 3, 2, 1, 0),)


def test_repr_of_fx_kappa_one_keeps_structure():
    f = poly([1, 2])  # 2z + 1, kappa = 1 everywhere
    rx = canonical_repr(JordanSpec.of((exact(1), (3, 1)), (exact(0, 1), (2,))))
    image, gaps = repr_of_fx(f, rx)
    assert image.partitions == rx.partitions
    assert all(all(g == 0 for g in vec) for vec in gaps)


def _flat_at_two(kappa, backend):
    """(z - 2)^kappa on backend, and as a derivative oracle: kappa at 2."""
    coeffs = [math.comb(kappa, k) * (-2) ** (kappa - k) for k in range(kappa + 1)]
    oracle = OracleFunction(f"flat{kappa}", lambda z, q: math.perm(kappa, q) * (z - 2) ** (
        kappa - q) if q <= kappa else 0j)
    return poly(coeffs, backend), oracle


def test_eta_given_kappa_equals_the_merged_splits():
    """kappa 1 keeps the partition as it is; every kappa, read directly or
    through exact, float and oracle repr_of_fx at a point where f has that
    kappa, gives the merged splits of the blocks."""
    for part in partitions_up_to(6)[1:]:
        for kappa in range(1, max(part) + 2):
            want = merge_desc(*(split_block(n, kappa)[0] for n in part))
            assert eta_given_kappa(part, kappa) == want
            f_exact, oracle = _flat_at_two(kappa, EXACT)
            f_float, _ = _flat_at_two(kappa, FLOAT)
            for f, lam in [(f_exact, exact(2)), (f_float, approx(2.0)), (oracle, approx(2.0))]:
                rep, _ = repr_of_fx(f, canonical_repr(JordanSpec.of((lam, part))))
                assert rep.partitions == (want,)


def test_repr_of_fx_collision_merges():
    # z^2 - (1+i) z sends both 0 and 1+i to 0
    f = poly([0, exact(-1, -1), 1])
    rx = canonical_repr(JordanSpec.of((exact(0), (2,)), (exact(1, 1), (3,))))
    image, _ = repr_of_fx(f, rx)
    assert len(image.eigenvalues) == 1
    assert image.eigenvalues[0].is_zero()
    assert image.partitions == ((3, 2),)


def test_repr_of_fx_matches_matrix_oracle():
    f = poly([0, 0, 0, 1])  # z^3
    rx = canonical_repr(
        JordanSpec.of((exact(0), (4, 2)), (exact(1), (3,)), (exact(0, 1), (1,)))
    )
    image, _ = repr_of_fx(f, rx)
    oracle = repr_from_matrix(f_of_jordan_spec(f, rx), image.eigenvalues)
    assert image == oracle


def test_gdod_f_g_identity_vs_squaring():
    ident = poly([0, 1])
    sq = poly([0, 0, 1])
    r4 = canonical_repr(JordanSpec.of((exact(0), (4,))))
    gaps = gdod_f_g(ident, r4, sq, r4)
    assert gaps == ((2, 0),)


def _merged_etas(h, rep):
    """The etas of rep's eigenvalues under h, those with equal (exact)
    images merged by merge_desc, in decreasing order of image."""
    groups = {}
    for lam, part in zip(rep.eigenvalues, rep.partitions):
        groups.setdefault(order_key(h(lam)), []).append(eta(h, lam, part))
    return [merge_desc(*groups[key]) for key in sorted(groups, reverse=True)]


def _padded_gdod_f_g(f, rx, g, ry):
    """gdod_f_g from its definition, on the merged etas of each side."""
    return _aligned_gaps(_merged_etas(f, rx), _merged_etas(g, ry))


def _aligned_gaps(ef_all, eg_all):
    """The gaps of two partition lists aligned by index, the shorter padded
    with empty partitions by hand, and every gap a difference of prefix
    sums."""
    ef_all, eg_all = list(ef_all), list(eg_all)
    k = max(len(ef_all), len(eg_all))
    ef_all += [()] * (k - len(ef_all))
    eg_all += [()] * (k - len(eg_all))
    out = []
    for idx, (ef, eg) in enumerate(zip(ef_all, eg_all)):
        gaps = tuple(prefix(ef, j) - prefix(eg, j) for j in range(1, max(len(ef), len(eg), 1) + 1))
        if min(gaps) >= 0:
            out.append(gaps)
        elif max(gaps) <= 0:
            out.append(tuple(-v for v in gaps))
        else:
            raise IncomparableNilpotent(idx)
    return tuple(out)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except IncomparableNilpotent as err:
        return ("incomparable", err.index)


# f = z^2 maps X's eigenvalues 1 and -1 onto 1, one eigenvalue group of f(X)
# with the merged etas (2,) and (1, 1); g = z keeps Y's apart.  In each case
# one side has fewer groups, so its etas are padded with empty partitions.
_SQ, _ID = poly([0, 0, 1]), poly([0, 1])
_UNEQUAL_GROUPS = {
    "one group vs two": (
        _SQ, canonical_repr(JordanSpec.of((exact(0), (3, 1)))),
        _ID, canonical_repr(JordanSpec.of((exact(1), (2,)), (exact(-1), (2,)))),
        ((0, 1, 2), (2,))),
    "two groups onto one image vs three": (
        _SQ, canonical_repr(JordanSpec.of((exact(1), (2,)), (exact(-1), (1, 1)))),
        _ID, canonical_repr(JordanSpec.of((exact(2), (1,)), (exact(0), (2,)), (exact(-1), (1,)))),
        ((1, 2, 3), (2,), (1,))),
    "incomparable before the padding": (
        _ID, canonical_repr(JordanSpec.of((exact(2), (1,)), (exact(0), (3, 1, 1, 1)))),
        _ID, canonical_repr(JordanSpec.of((exact(2), (1,)), (exact(0), (2, 2, 2)),
                                          (exact(-1), (1,)))),
        ("incomparable", 1)),
}


@pytest.mark.parametrize("case", sorted(_UNEQUAL_GROUPS))
def test_gdod_f_g_pads_the_side_with_fewer_eigenvalue_groups(case):
    f, rx, g, ry, want = _UNEQUAL_GROUPS[case]
    assert len(rx.eigenvalues) != len(ry.eigenvalues)
    assert _outcome(gdod_f_g, f, rx, g, ry) == want
    for args in ((f, rx, g, ry), (g, ry, f, rx)):
        assert _outcome(gdod_f_g, *args) == _outcome(_padded_gdod_f_g, *args)


def test_gdod_f_g_aligns_the_groups_of_f_x_not_of_x():
    # f(X) for X = {1: (2,), -1: (1, 1)} is the one group 1: (2, 1, 1), as is
    # f(Y) for Y = {1: (2, 1, 1)}.
    rx = canonical_repr(JordanSpec.of((exact(1), (2,)), (exact(-1), (1, 1))))
    ry = canonical_repr(JordanSpec.of((exact(1), (2, 1, 1))))
    assert gdod_f_g(_SQ, rx, _SQ, ry) == ((0, 0, 0),)
    assert gdod_f_g(_SQ, ry, _SQ, rx) == ((0, 0, 0),)


# z^2 and 1 - z^2 merge +-lam, z^4 merges lam * i^k, z^3 and z keep them
# apart; each side draws its eigenvalues among 0 and those four points.
_MERGING_FUNCTIONS = [poly([0, 0, 1]), poly([0, 0, 0, 0, 1]), poly([0, 0, 0, 1]),
                      poly([1, 0, -1]), poly([0, 1])]


@st.composite
def _merging_side(draw, base):
    points = [exact(0), base, -base, base * exact(0, 1), base * exact(0, -1)]
    keys = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4, unique=True))
    parts = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
        lambda p: tuple(sorted(p, reverse=True)))
    return (draw(st.sampled_from(_MERGING_FUNCTIONS)),
            canonical_repr(JordanSpec.of(*((points[k], draw(parts)) for k in keys))))


@settings(max_examples=100, deadline=None)
@given(st.builds(exact, st.integers(1, 2), st.integers(-1, 1)).flatmap(
    lambda base: st.tuples(_merging_side(base), _merging_side(base))))
def test_gdod_f_g_is_the_aligned_gaps_of_the_image_representations(sides):
    (f, rx), (g, ry) = sides
    fx, gy = repr_of_fx(f, rx)[0].partitions, repr_of_fx(g, ry)[0].partitions
    assert list(fx) == _merged_etas(f, rx)
    assert list(gy) == _merged_etas(g, ry)
    assert _outcome(gdod_f_g, f, rx, g, ry) == _outcome(_aligned_gaps, fx, gy)


def test_gdod_f_g_incomparable():
    # etas (3,1,1,1) vs (2,2,2): neither dominates the other
    ident = poly([0, 1])
    rx = canonical_repr(JordanSpec.of((exact(0), (3, 1, 1, 1))))
    ry = canonical_repr(JordanSpec.of((exact(0), (2, 2, 2))))
    with pytest.raises(IncomparableNilpotent):
        gdod_f_g(ident, rx, ident, ry)
