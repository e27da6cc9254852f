import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from snorder import Majorization, OrderOutcome, cmp_total, exact, poly, schur
from snorder.errors import GradientUnavailable, NotWeaklyMajorized, VerdictAmbiguous
from snorder.majorization import TTransform, t_transform_apply
from snorder.matfunc import PolynomialFunction
from snorder.ordering import (
    MajorizationCert,
    _exact_monotonicity,
    _pointwise_monotonicity,
    majorization_preserving_check,
)
from snorder.scalar import TotalComplex, approx, from_complex, one_like, order_key
from snorder.schur import (
    DEFAULT_SEED,
    DomainBox,
    Prop,
    SymmetricFunction,
    _random_majorized_pair,
    cdm_condition_check,
    compose_table1,
    compose_table2,
    negative_sum_of_squares,
    schur_convex_falsify,
    schur_ostrowski_check,
    sum_of_squares,
)

from matrix_oracles import fraction_majorization

REAL_BOX = DomainBox(1.0, 0.0, 0.0)


def test_ostrowski_sum_of_squares_passes_on_real_box():
    f = sum_of_squares(3)
    samples = [[2.0, 0.5, -1.0], [3.0, 3.0, 0.0], [-1.0, -2.0, -2.5]]
    report = schur_ostrowski_check(f, REAL_BOX, samples)
    assert report.passed
    assert report.records  # every ordered pair got a record


def test_ostrowski_negated_fails():
    f = negative_sum_of_squares(3)
    samples = [[2.0, 0.5, -1.0]]
    report = schur_ostrowski_check(f, REAL_BOX, samples)
    assert not report.passed
    assert all(r.case == 3 for r in report.failures)


def test_ostrowski_without_a_gradient_raises():
    f = SymmetricFunction(2, lambda x: sum(z * z for z in x))
    with pytest.raises(GradientUnavailable, match="needs a gradient"):
        schur_ostrowski_check(f, REAL_BOX, [[1.5, -0.5]])


def test_ostrowski_refuses_a_sample_of_the_wrong_arity():
    with pytest.raises(GradientUnavailable, match="sample arity 2 vs declared 3"):
        schur_ostrowski_check(sum_of_squares(3), REAL_BOX, [[1.0, 2.0, 3.0], [1.0, 2.0]])


@pytest.mark.parametrize("f, sample, case, box, ok", [
    # d = 2(1 - i) - 0: Re >= 0 > Im, so c2 Im <= 0 asks c2 >= 0
    (sum_of_squares(2), [1 - 1j, 0], 2, DomainBox(1.0, 0.0, 1.0), True),
    (sum_of_squares(2), [1 - 1j, 0], 2, DomainBox(1.0, -1.0, 0.0), False),
    # d = -2(1 + i) - 0: both negative, so c1 Re >= c2 Im asks c2 >= c1
    (negative_sum_of_squares(2), [1 + 1j, 0], 4, DomainBox(1.0, 1.0, 2.0), True),
    (negative_sum_of_squares(2), [1 + 1j, 0], 4, DomainBox(1.0, 0.0, 1.0), False),
])
def test_ostrowski_cases_with_a_negative_imaginary_difference(f, sample, case, box, ok):
    """x_0 > x_1 in the total order, so (0, 1) is the only pair read."""
    report = schur_ostrowski_check(f, box, [sample])
    assert [(r.i, r.j, r.case, r.ok) for r in report.records] == [(0, 1, case, ok)]
    assert report.passed is ok


def test_ostrowski_computes_each_partial_once_per_sample():
    # n gradient calls per sample, none of the value, and the records of a
    # fresh pair of partials at every ordered pair with x_i >= x_j in the
    # total order.
    def value(x):
        calls.append(1)
        return sum(z ** 3 + (k + 1) * z for k, z in enumerate(x))

    def gradient(x, i):
        grads.append(i)
        return 3 * x[i] ** 2 + i + 1

    samples = [[2.0, 0.5, -1.0], [1 + 1j, 1 + 1j, -2j], [0.25, 3.0, 3.0]]
    grads, calls = [], []
    f = SymmetricFunction(3, value, gradient)
    records = schur_ostrowski_check(f, REAL_BOX, samples).records
    assert (len(grads), len(calls)) == (9, 0)
    want = []
    for s, x in enumerate(samples):
        p = list(map(complex, x))
        want += [(s, i, j, f.partial(p, i) - f.partial(p, j))
                 for i, j in itertools.permutations(range(3), 2)
                 if cmp_total(from_complex(x[i]), from_complex(x[j])) is not OrderOutcome.LESS]
    assert [(r.sample, r.i, r.j, complex(r.d_re, r.d_im)) for r in records] == want


def test_falsifier_finds_concave_counterexample():
    counter = schur_convex_falsify(negative_sum_of_squares(3), 3, trials=500)
    assert counter is not None
    assert counter.trial < 500


def test_falsifier_passes_convex_function():
    assert schur_convex_falsify(sum_of_squares(3), 3, trials=500) is None


def test_falsifier_deterministic_given_seed():
    a = schur_convex_falsify(negative_sum_of_squares(2), 2, trials=200, seed=42)
    b = schur_convex_falsify(negative_sum_of_squares(2), 2, trials=200, seed=42)
    assert a == b


@pytest.mark.parametrize("sign", [1, -1])
def test_falsifier_reads_a_nan_real_part_as_cmp_total_does(sign):
    """A NaN real part is within eps of every value, so the imaginary part
    decides: the real part of the squares, moved to the imaginary one."""
    squares = sum_of_squares(3).value
    f = SymmetricFunction(3, lambda x: complex(float("nan"), sign * squares(x).real))
    counter = schur_convex_falsify(f, 3, trials=500)
    if sign == 1:
        assert counter is None
    else:
        want = schur_convex_falsify(negative_sum_of_squares(3), 3, trials=500)
        assert (counter.trial, counter.x, counter.y) == (want.trial, want.x, want.y)
        assert cmp_total(from_complex(counter.f_x), from_complex(counter.f_y)) is OrderOutcome.GREATER



def _fraction_majorized_pair(rng, n, complex_entries):
    """The falsifier's pair generator as written on Fraction arithmetic: the
    reference the integer-numerator generator must reproduce."""
    def draw():
        re = Fraction(rng.randint(-40, 40), rng.randint(1, 8))
        im = Fraction(rng.randint(-40, 40), rng.randint(1, 8)) if complex_entries else 0
        return exact(re, im)

    y = tuple(draw() for _ in range(n))
    x = list(y)
    for _ in range(rng.randint(1, n)):
        if n < 2:
            break
        i, j = sorted(rng.sample(range(n), 2))
        beta = exact(Fraction(rng.randint(0, 16), 16))
        x = list(t_transform_apply(x, TTransform(i, j, beta)))
    return tuple(x), y


def _exact_keys(v):
    return [(type(z.re), z.re, type(z.im), z.im) for z in v]


def _fractions(v, den):
    return tuple(exact(Fraction(r, den), Fraction(m, den)) for r, m in v)


@pytest.mark.parametrize("complex_entries", [False, True])
def test_random_majorized_pair_matches_fraction_reference(complex_entries):
    # n up to 30 takes both branches of Random.sample: its pool for n <= 21,
    # its set of draws above; fewer seeds for the longer vectors.
    for seed, n in [*itertools.product(range(200), range(1, 7)),
                    *itertools.product(range(20), range(7, 31))]:
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(2):
            x, den, y = _random_majorized_pair(ours, n, complex_entries)
            rx, ry = _fraction_majorized_pair(ref, n, complex_entries)
            assert (_exact_keys(_fractions(x, den)), _exact_keys(_fractions(y, 840))) \
                == (_exact_keys(rx), _exact_keys(ry))
        assert ours.getstate() == ref.getstate()


def _fraction_falsify(f, n, trials, seed, complex_entries):
    """The falsifier on TotalComplex values: Fraction pairs, the verdict of
    majorization on TotalComplex sorts and sums, f on to_complex values."""
    rng = random.Random(seed)
    for trial in range(trials):
        x, y = _fraction_majorized_pair(rng, n, complex_entries)
        if fraction_majorization(x, y) is not Majorization.STRICT:
            continue
        fx = complex(f.value([z.to_complex() for z in x]))
        fy = complex(f.value([z.to_complex() for z in y]))
        if cmp_total(from_complex(fx), from_complex(fy)) is OrderOutcome.GREATER:
            return schur.Counterexample(x, y, fx, fy, trial)
    return None


@pytest.mark.parametrize("make_f, n, trials, seed, complex_entries", [
    (sum_of_squares, 4, 1_000, DEFAULT_SEED, False),
    (negative_sum_of_squares, 4, 10_000, DEFAULT_SEED, False),
    (sum_of_squares, 3, 200, DEFAULT_SEED, True),
    (negative_sum_of_squares, 5, 200, 7, True),
    (negative_sum_of_squares, 2, 200, 42, False),
])
def test_falsifier_results_match_fraction_reference(make_f, n, trials, seed, complex_entries):
    def key(cex):
        # repr keeps the sign of a zero component of f_x and f_y.
        return cex and (cex.trial, _exact_keys(cex.x), _exact_keys(cex.y),
                        repr(cex.f_x), repr(cex.f_y))

    ours = schur_convex_falsify(make_f(n), n, trials=trials, seed=seed,
                                complex_entries=complex_entries)
    assert key(ours) == key(_fraction_falsify(make_f(n), n, trials, seed, complex_entries))
    if make_f is negative_sum_of_squares or complex_entries:
        assert ours is not None

# -- composition tables --------------------------------------------------------


def test_table1_generic_rows():
    assert compose_table1({Prop.INCREASING}, {Prop.SCHUR_CONVEX}) == {Prop.SCHUR_CONVEX}
    assert compose_table1({Prop.DECREASING}, {Prop.SCHUR_CONVEX}) == {Prop.SCHUR_CONCAVE}
    assert compose_table1({Prop.INCREASING}, {Prop.SCHUR_CONCAVE}) == {Prop.SCHUR_CONCAVE}
    assert compose_table1({Prop.DECREASING}, {Prop.SCHUR_CONCAVE}) == {Prop.SCHUR_CONVEX}


def test_table1_specific_rows_win():
    got = compose_table1({Prop.INCREASING}, {Prop.INCREASING, Prop.SCHUR_CONVEX})
    assert got == {Prop.INCREASING, Prop.SCHUR_CONVEX}
    got = compose_table1({Prop.DECREASING}, {Prop.DECREASING, Prop.SCHUR_CONVEX})
    assert got == {Prop.INCREASING, Prop.SCHUR_CONCAVE}


def test_table1_no_match():
    assert compose_table1(set(), {Prop.SCHUR_CONVEX}) is None


def test_table2_requires_averaging_condition():
    g = {Prop.INCREASING, Prop.SCHUR_CONVEX}
    h = {Prop.INCREASING, Prop.CONVEX_AFFINE}
    assert compose_table2(g, h, cdm_verified=False) is None
    assert compose_table2(g, h, cdm_verified=True) == {Prop.INCREASING, Prop.SCHUR_CONVEX}


def test_table2_sign_rows():
    got = compose_table2(
        {Prop.DECREASING, Prop.SCHUR_CONCAVE},
        {Prop.DECREASING, Prop.CONVEX_AFFINE},
        cdm_verified=True,
    )
    assert got == {Prop.INCREASING, Prop.SCHUR_CONCAVE}


INC, DEC, SCX, SCC = Prop.INCREASING, Prop.DECREASING, Prop.SCHUR_CONVEX, Prop.SCHUR_CONCAVE
CVX, CCV = Prop.CONVEX_AFFINE, Prop.CONCAVE_AFFINE

# The rows the two sign laws replaced, as (g needs, h needs, result), the
# first row whose needs hold deciding.  Rows 3 and 4 of Table 1 answer
# DECREASING where a decreasing g over a decreasing h increases.
REFERENCE_TABLE1 = (
    ({INC}, {INC, SCX}, {INC, SCX}),
    ({INC}, {INC, SCC}, {INC, SCC}),
    ({INC}, {DEC, SCX}, {DEC, SCX}),
    ({DEC}, {DEC, SCX}, {DEC, SCC}),
    ({DEC}, {DEC, SCC}, {DEC, SCX}),
    ({DEC}, {INC, SCC}, {DEC, SCX}),
    ({INC}, {SCX}, {SCX}),
    ({INC}, {SCC}, {SCC}),
    ({DEC}, {SCX}, {SCC}),
    ({DEC}, {SCC}, {SCX}),
)
WRONG_ROWS = (3, 4)
REFERENCE_TABLE2 = (
    ({INC, SCX}, {INC, CVX}, {INC, SCX}),
    ({DEC, SCX}, {DEC, CCV}, {INC, SCX}),
    ({INC, SCX}, {DEC, CVX}, {DEC, SCX}),
    ({DEC, SCX}, {INC, CCV}, {DEC, SCX}),
    ({DEC, SCC}, {INC, CVX}, {DEC, SCC}),
    ({INC, SCC}, {DEC, CCV}, {DEC, SCC}),
    ({DEC, SCC}, {DEC, CVX}, {INC, SCC}),
    ({INC, SCC}, {INC, CCV}, {INC, SCC}),
    ({INC, SCX}, {CVX}, {SCX}),
    ({DEC, SCX}, {CCV}, {SCX}),
    ({DEC, SCC}, {CVX}, {SCC}),
    ({INC, SCC}, {CCV}, {SCC}),
)
PROP_SETS = [frozenset(c) for r in range(len(Prop) + 1) for c in itertools.combinations(Prop, r)]


def _reference(table, g, h):
    """(index, result) of the first row of table whose needs g and h meet;
    (None, None) when none does."""
    for k, (g_needs, h_needs, result) in enumerate(table):
        if g_needs <= g and h_needs <= h:
            return k, result
    return None, None


def _one_direction(props) -> bool:
    return not any({a, b} <= props for a, b in ((INC, DEC), (SCX, SCC), (CVX, CCV)))


def test_table1_law_against_the_reference_rows():
    """Over every pair of Prop sets the law answers None where the rows do,
    and otherwise contains the rows' answer, the wrong rows' DECREASING read
    as INCREASING.  On sets that claim one direction per property it changes
    exactly the 27 + 27 pairs the wrong rows decide, and adds DECREASING on
    the 27 + 27 pairs of g and h monotone in opposite senses that no row
    covered."""
    fixed, completed = set(), set()
    for g, h in itertools.product(PROP_SETS, repeat=2):
        got, (row, want) = compose_table1(g, h), _reference(REFERENCE_TABLE1, g, h)
        if want is None:
            assert got is None
            continue
        corrected = want - {DEC} | {INC} if row in WRONG_ROWS else want
        assert corrected <= got
        if not (_one_direction(g) and _one_direction(h)) or got == want:
            continue
        if row in WRONG_ROWS:
            assert got == corrected
            fixed.add((g, h))
        else:
            assert got == want | {DEC}
            completed.add((g, h))
    one_way = [(g, h) for g, h in itertools.product(PROP_SETS, repeat=2)
               if _one_direction(g) and _one_direction(h)]
    assert fixed == {(g, h) for g, h in one_way if DEC in g and DEC in h and h & {SCX, SCC}}
    assert completed == {(g, h) for g, h in one_way
                         if INC in g and {DEC, SCC} <= h or DEC in g and {INC, SCX} <= h}
    assert len(fixed) == len(completed) == 54


@pytest.mark.parametrize("cdm_verified", [False, True])
def test_table2_law_against_the_reference_rows(cdm_verified):
    """The law answers None where the rows do, contains their answer on
    every pair of Prop sets, and equals it on sets that claim one direction
    per property."""
    for g, h in itertools.product(PROP_SETS, repeat=2):
        got = compose_table2(g, h, cdm_verified)
        want = _reference(REFERENCE_TABLE2, g, h)[1] if cdm_verified else None
        if want is None:
            assert got is None
        elif _one_direction(g) and _one_direction(h):
            assert got == want
        else:
            assert want <= got


def test_sets_that_claim_both_directions_get_both_laws():
    both = {SCX, SCC}  # sum(x_i) is Schur-convex and Schur-concave
    assert compose_table1({DEC}, both | {INC}) == {SCX, SCC, DEC}
    assert compose_table1({INC, DEC}, {SCX}) == {SCX, SCC}
    assert compose_table2({INC} | both, {CVX, CCV, DEC}, cdm_verified=True) == both | {DEC}


def test_decreasing_over_decreasing_increases_numerically():
    """h(x) = sum(exp(-x_i)) is decreasing and Schur-convex and g(t) = -t
    decreases, so g(h(x)) increases and is Schur-concave."""
    assert compose_table1({DEC}, {DEC, SCX}) == {INC, SCC}
    g_of_h = SymmetricFunction(2, lambda x: -sum(cmath.exp(-z) for z in x))
    assert g_of_h.value([0, 0]) == -2
    assert g_of_h.value([1, 1]).real == pytest.approx(-2 / math.e)  # about -0.74
    assert schur_convex_falsify(g_of_h, 2, trials=500) is not None
    h = SymmetricFunction(2, lambda x: sum(cmath.exp(-z) for z in x))
    assert schur_convex_falsify(h, 2, trials=500) is None


def test_cdm_condition_identity_map():
    ident = lambda z: z
    y1, y2 = exact(3), exact(1)
    assert cdm_condition_check(ident, y1, y2, Fraction(1, 2))
    assert cdm_condition_check(ident, y1, y2, 1)  # alpha = 1 reproduces the pair
    assert not cdm_condition_check(ident, y1, y2, 2)  # affine overshoot spreads out


# -- single-variable majorization preservation ----------------------------------


def vec(*vals):
    return tuple(exact(v) for v in vals)


def test_increasing_certificate():
    f = poly([1, 2])  # 2z + 1
    res = majorization_preserving_check(f, vec(2, 2), vec(3, 1))
    assert res.kind is MajorizationCert.CERTIFIED_INCREASING
    assert not res.reversed_direction


def test_decreasing_certificate():
    f = poly([0, -1])  # -z
    res = majorization_preserving_check(f, vec(2, 2), vec(3, 1))
    assert res.kind is MajorizationCert.CERTIFIED_DECREASING


def test_entrywise_certificate_reversed():
    f = poly([0, -1])
    # entrywise x_i <= y_i, weak majorization only
    res = majorization_preserving_check(f, vec(1, 0), vec(3, 1))
    assert res.kind is MajorizationCert.CERTIFIED_ENTRYWISE
    assert res.reversed_direction


def test_entrywise_inputs_with_increasing_map_use_the_stronger_certificate():
    # pointwise x_i <= y_i makes the difference-sum conditions automatic,
    # so an increasing map certifies via the increasing branch directly
    f = poly([0, 0, 1])  # z^2, increasing on nonnegative points
    res = majorization_preserving_check(f, vec(1, 0), vec(3, 1))
    assert res.kind is MajorizationCert.CERTIFIED_INCREASING
    assert not res.reversed_direction


def test_not_certified():
    f = poly([0, 0, 1])  # z^2 is not monotone across sign changes
    res = majorization_preserving_check(f, vec(1, -1), vec(2, -2))
    assert res.kind is MajorizationCert.NOT_CERTIFIED


def test_decreasing_certificate_needs_the_last_tail():
    # f takes 0, -1, -5/2, -3, -31/10 at 0..4, so it is strictly decreasing
    # on the points.  x = (3, 2, 0) is weakly below y = (4, 1, 1), and the
    # gaps f(x_i) - f(y_i) are 1/10, -3/2, 1: the tails of length 3 and 2
    # are <= 0, the last entry alone is not.
    f = poly([0, Fraction(11, 40), Fraction(-157, 80), Fraction(31, 40), Fraction(-7, 80)])
    x, y = vec(3, 2, 0), vec(4, 1, 1)
    for g in (f, lambda z: f(z)):  # the integer and the TotalComplex path
        assert majorization_preserving_check(g, x, y).kind is MajorizationCert.NOT_CERTIFIED
    # and the float path, whose gaps are far outside the round-off band
    fx, fy = [z.to_float_backend() for z in x], [z.to_float_backend() for z in y]
    assert majorization_preserving_check(f, fx, fy).kind is MajorizationCert.NOT_CERTIFIED


@pytest.mark.parametrize("x, y", [([1 + 5e-10], [1.0]), ([2.0, 1 + 5e-10], [2.0, 1.0])])
def test_float_map_that_splits_tied_points_is_not_certified(x, y):
    # x's last entry is within eps of y's, but 5e-10 is far more than its
    # round-off: whether x is weakly below y refuses at that prefix, before
    # f, which keeps the two apart by 5e-4, is read at all.
    x, y = [approx(v) for v in x], [approx(v) for v in y]
    for f in (PolynomialFunction((approx(0.0), approx(1e6))), lambda z: z * approx(1e6)):
        with pytest.raises(VerdictAmbiguous, match=f"^prefix {len(x)} "):
            majorization_preserving_check(f, x, y)


def test_requires_weak_majorization():
    with pytest.raises(NotWeaklyMajorized):
        majorization_preserving_check(poly([0, 1]), vec(5, 0), vec(3, 1))


def test_majorization_preserving_check_evaluates_f_once_per_point():
    square = poly([0, 0, 1])
    calls = []

    def counting(z):
        calls.append(z)
        return square(z)

    x, y = (exact(2), exact(1, 1), exact(1), exact(0)), (exact(3), exact(1), exact(0), exact(0, 1))
    res = majorization_preserving_check(counting, x, y)
    assert len(calls) == len(x) + len(y)
    assert res == majorization_preserving_check(square, x, y)


# -- pointwise monotonicity: sorted neighbours on exact keys -----------------


def pairwise_monotonicity(points, images):
    """The images of every pair of points compared, larger point first; tied
    points with images that do not tie make the map neither."""
    inc = dec = True
    for a_idx in range(len(points)):
        for b_idx in range(a_idx + 1, len(points)):
            order = cmp_total(points[a_idx], points[b_idx])
            fa, fb = images[a_idx], images[b_idx]
            if order is OrderOutcome.EQUAL:
                if cmp_total(fa, fb) is not OrderOutcome.EQUAL:
                    return False, False
                continue
            c = cmp_total(fa, fb) if order is OrderOutcome.GREATER else cmp_total(fb, fa)
            if c is not OrderOutcome.GREATER:
                inc = False
            if c is not OrderOutcome.LESS:
                dec = False
    return inc, dec


MAPS = {
    "identity": lambda z: z,
    "negation": lambda z: -z,
    "square": lambda z: z * z,
    "shift": lambda z: z + one_like(z),
    "constant": lambda z: one_like(z),
    "real part": lambda z: TotalComplex(z.re, 0 * z.im),  # not injective on complex points
}
_QUARTERS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 4]))


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(st.builds(exact, _QUARTERS, st.one_of(st.just(Fraction(0)), _QUARTERS)),
                     min_size=1, max_size=5),
       data=st.data())
def test_exact_pointwise_monotonicity_matches_the_pairwise_loop(pool, data):
    points = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))  # duplicates
    name = data.draw(st.sampled_from([*MAPS, "table"]))
    if name == "table":  # any map on the pool, constant and non-injective ones included
        images = dict(zip(pool, data.draw(st.lists(st.sampled_from(pool), min_size=len(pool),
                                                   max_size=len(pool)))))
        f = images.__getitem__
    else:
        f = MAPS[name]
    images = [f(z) for z in points]
    keys = map(order_key, points), map(order_key, images)
    assert _exact_monotonicity(*keys) == pairwise_monotonicity(points, images)


def test_pointwise_monotonicity_on_one_point_and_its_copies():
    z = exact(1, -1)
    assert _pointwise_monotonicity([z], [z * z]) == (True, True)
    assert _pointwise_monotonicity([z, z, z], [z * z] * 3) == (True, True)


def test_float_points_compare_every_pair():
    # 0 and 1.2e-9 differ by more than eps, each is within eps of 6e-10, so
    # only that pair is ordered: sorted neighbours would read (True, True).
    points = [approx(0.0), approx(6e-10), approx(1.2e-9)]
    assert _pointwise_monotonicity(points, points) == (True, False)
    assert pairwise_monotonicity(points, points) == (True, False)


def test_float_tied_points_need_tied_images():
    # 1 + 5e-10 ties 1 under eps, but their images under 1e6 * z do not.
    points = [approx(1 + 5e-10), approx(1.0), approx(3.0)]
    images = [z * approx(1e6) for z in points]
    assert _pointwise_monotonicity(points, images) == (False, False)
    assert pairwise_monotonicity(points, images) == (False, False)
    assert _pointwise_monotonicity(points[1:], images[1:]) == (True, False)


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(st.tuples(st.integers(-4, 4), st.sampled_from([0.0, 4e-10, -7e-10])),
                      min_size=1, max_size=6),
       name=st.sampled_from(sorted(MAPS)))
def test_float_pointwise_monotonicity_is_the_pairwise_loop(parts, name):
    points = [approx(k / 2 + jitter, jitter) for k, jitter in parts]
    images = [MAPS[name](z) for z in points]
    assert _pointwise_monotonicity(points, images) == pairwise_monotonicity(points, images)
