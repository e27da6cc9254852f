"""The round-off band of float prefix-sum verdicts.

Float verdicts sum the floats exactly, as dyadic integer pairs, and compare
each prefix with a band: a gap above max(rho, eps) is certain, one at most
min(rho, eps) is a tie, and one in between refuses with VerdictAmbiguous.
The edges are pinned here, and differential properties check that a float
verdict, or decomposition, is the exact one on the same values (Fraction of
each float), rounded, or a refusal.  Their draws are dyadic: values k/4 off
by multiples of 2^-31 (about 0.47e-9, so within eps up to two steps), which
every float and every sum of a few of them holds exactly.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from snorder import JordanSpec, Majorization, approx, canonical_repr, compare_sno, exact, poly
from snorder.errors import NotWeaklyMajorized, VerdictAmbiguous
from snorder.majorization import TTransform, majorize_check, t_transform_apply, \
    t_transform_decompose_trace
from snorder.ordering import majorization_preserving_check
from snorder.scalar import DEFAULT_EPS, FLOAT
from snorder.snrepr import SNRepresentation

STEP = 2.0 ** -31


def as_exact(z):
    return exact(Fraction(z.re), Fraction(z.im))


def refusal_or(f, *args):
    try:
        return f(*args)
    except VerdictAmbiguous:
        return VerdictAmbiguous
    except NotWeaklyMajorized:
        return NotWeaklyMajorized


# -- the band's edges ---------------------------------------------------------

# 2048 +- 2^-41 are floats 2^-40 apart, and 2^-40 * 2^52 = 4096 = |x| + |y|:
# the gap is rho itself at the first prefix.  One more ulp of x is past it.
AT_RHO = (2048 + 2.0 ** -41, 2048 - 2.0 ** -41)
PAST_RHO = (2048 + 2.0 ** -40, 2048 - 2.0 ** -41)
PAST_EPS = math.nextafter(DEFAULT_EPS, 1.0)


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("a, b, want", [
    (*AT_RHO, Majorization.STRICT),             # a gap of rho ties
    (*PAST_RHO, VerdictAmbiguous),              # just past it: under eps, so uncertain
    (DEFAULT_EPS, 0.0, VerdictAmbiguous),       # a gap of eps is not yet certain
    (PAST_EPS, 0.0, Majorization.NONE),         # just past it, certainly above
    (0.0, DEFAULT_EPS, VerdictAmbiguous),
    (0.0, PAST_EPS, Majorization.WEAK),         # certainly below, totals apart
])
def test_band_edges(part, a, b, want):
    # On the imaginary part the real parts tie exactly.
    def one(v):
        return [approx(v, 0.0) if part == "re" else approx(0.5, v)]
    assert refusal_or(majorize_check, one(a), one(b)) is want


def test_coarse_dyadic_gaps_answer():
    # A prefix gap of 1/8 over the denominator 8 is certain: rho is far
    # below it, and is compared exactly, not rounded up to a unit of 1/8.
    x, y = [approx(1.125), approx(0.0)], [approx(1.0), approx(0.125)]
    assert majorize_check(x, y) is Majorization.NONE
    assert majorize_check(y, x) is Majorization.STRICT


def test_a_prefix_certainly_above_decides_past_an_uncertain_one():
    # The first prefix differs by 5e-10, the second by 1 + 5e-10.
    x, y = [approx(1 + 5e-10), approx(1.0)], [approx(1.0), approx(0.0)]
    assert majorize_check(x, y) is Majorization.NONE
    with pytest.raises(VerdictAmbiguous, match="^prefix 1 "):
        majorize_check([approx(1 + 5e-10), approx(1.0)], [approx(1.0), approx(1.0)])


def test_the_eps_tie_example_refuses():
    # eps alone reads it STRICT; on the same values exactly it is NONE.
    x, y = [approx(1 + 5e-10), approx(1 - 5e-10)], [approx(1.0), approx(1.0)]
    assert majorize_check([as_exact(z) for z in x], [as_exact(z) for z in y]) \
        is Majorization.NONE
    with pytest.raises(VerdictAmbiguous, match="^prefix 1 "):
        majorize_check(x, y)


# -- differential properties: float verdicts against exact ones -----------------

_BASE = st.builds(Fraction, st.integers(-8, 8), st.just(4))
_OFFSET = st.integers(-4, 4)


@st.composite
def near(draw, base=None):
    """A float k/4 + m 2^-31 in each part, m often 0."""
    def part():
        m = draw(st.one_of(st.just(0), _OFFSET))
        return float(draw(_BASE) if base is None else base) + m * STEP
    return approx(part(), part())


@st.composite
def near_tie_pairs(draw):
    """x and y of one length: y often x's values reordered and nudged, so
    prefix sums tie, or nearly."""
    n = draw(st.integers(1, 5))
    x = draw(st.lists(near(), min_size=n, max_size=n))
    if draw(st.booleans()):
        y = [approx(z.re + draw(_OFFSET) * STEP, z.im + draw(_OFFSET) * STEP)
             for z in draw(st.permutations(x))]
    else:
        y = draw(st.lists(near(), min_size=n, max_size=n))
    return x, y


@settings(max_examples=300, deadline=None)
@given(near_tie_pairs())
@example(([approx(1.0, 0.0), approx(1.0, 0.0)],
          [approx(1.0 + 3 * STEP, 0.0), approx(1.0 - 3 * STEP, 0.0)]))
def test_float_majorize_check_is_exact_or_refuses(pair):
    x, y = pair
    got = refusal_or(majorize_check, x, y)
    assert got is VerdictAmbiguous or got is majorize_check(
        [as_exact(z) for z in x], [as_exact(z) for z in y])


@st.composite
def near_tie_specs(draw):
    """Two float specs of one dimension, eigenvalues near k/4 and near each
    other's, so the merge folds some of them."""
    parts = draw(st.lists(st.sampled_from([(1,), (2,), (1, 1), (2, 1)]), min_size=1, max_size=3))
    bases = draw(st.lists(_BASE, min_size=1, max_size=2))

    def spec():
        return JordanSpec.of(*[(draw(near(draw(st.sampled_from(bases))))
                                if draw(st.booleans()) else draw(near()), p) for p in parts])
    return spec(), spec()


def exact_repr(rep):
    """The float representation rep on its exact values, in the same order."""
    return SNRepresentation(tuple(map(as_exact, rep.eigenvalues)), rep.partitions)


@settings(max_examples=200, deadline=None)
@given(near_tie_specs())
def test_float_compare_sno_is_exact_or_refuses(specs):
    rx, ry = map(canonical_repr, specs)
    got = refusal_or(compare_sno, rx, ry)
    assert got is VerdictAmbiguous or got is compare_sno(exact_repr(rx), exact_repr(ry))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_float_preserving_check_is_exact_or_refuses(n, data):
    # Real points on the grid k/8 keep f's monotonicity off eps.  x is y
    # with two entries averaged, or reordered, or drawn anew; f(z) = +-z +
    # c z^2, with c a few multiples of 2^-31, puts the images' prefix sums
    # near ties wherever the points' sums tie.
    y = data.draw(st.lists(_BASE, min_size=n, max_size=n))
    x = data.draw(st.permutations(y))
    if n > 1 and data.draw(st.booleans()):
        x[0] = x[1] = (x[0] + x[1]) / 2
    elif data.draw(st.booleans()):
        x = data.draw(st.lists(_BASE, min_size=n, max_size=n))
    c = (data.draw(_OFFSET) * STEP, data.draw(_OFFSET) * STEP)
    sign = data.draw(st.sampled_from([1, -1]))
    f_float = poly([0, float(sign), approx(*c)], FLOAT)
    f_exact = poly([0, sign, exact(Fraction(c[0]), Fraction(c[1]))])
    got = refusal_or(majorization_preserving_check, f_float, [approx(float(v)) for v in x],
                     [approx(float(v)) for v in y])
    assert got is VerdictAmbiguous or got == refusal_or(
        majorization_preserving_check, f_exact, [exact(v) for v in x], [exact(v) for v in y])


@st.composite
def near_strict_pairs(draw):
    """x and y of one length: x is y after T-transforms with beta in {0,
    1/4, 1/2, 3/4, 1}, which keep every value exact, then often two of its
    entries nudged apart by m 2^-31, which keeps the total; both shuffled."""
    n = draw(st.integers(2, 5))
    y = draw(st.lists(near(), min_size=n, max_size=n))
    x = y
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, n - 2))
        j = draw(st.integers(i + 1, n - 1))
        x = t_transform_apply(x, TTransform(i, j, approx(draw(st.integers(0, 4)) / 4)))
    x = list(x)
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        m = (draw(_OFFSET) * STEP, draw(_OFFSET) * STEP)
        x[i] = approx(x[i].re + m[0], x[i].im + m[1])
        x[j] = approx(x[j].re - m[0], x[j].im - m[1])
    return draw(st.permutations(x)), draw(st.permutations(y))


def rounded(trace):
    """An exact decomposition with its betas and intermediates as floats."""
    transforms, intermediates = trace
    return ([TTransform(t.i, t.j, t.beta.to_float_backend()) for t in transforms],
            [tuple(z.to_float_backend() for z in w) for w in intermediates])


@settings(max_examples=200, deadline=None)
@given(near_strict_pairs())
def test_float_decomposition_is_the_rounded_exact_one_or_refuses(pair):
    x, y = pair
    ex, ey = [as_exact(z) for z in x], [as_exact(z) for z in y]
    if majorize_check(ex, ey) is not Majorization.STRICT:
        return
    got = refusal_or(t_transform_decompose_trace, x, y)
    assert got is VerdictAmbiguous or got == rounded(t_transform_decompose_trace(ex, ey))
