"""Results must not depend on the order of the inputs.

Every sort orders by the exact key (re, im), a total order on any values;
the float tolerance only merges values and bounds verdicts, which refuse
with VerdictAmbiguous inside their round-off band.  The float draws put
values within a few times 0.4e-9 of each other, inside DEFAULT_EPS = 1e-9,
where the tolerance comparison is not transitive and a comparator sort would
give order-dependent output.  A verdict, or its refusal, must be the same in
every order.
"""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from snorder import (
    JordanSpec,
    Matrix,
    OrderOutcome,
    approx,
    canonical_repr,
    cmp_total,
    compare_sno,
    exact,
    majorize_check,
    poly,
    repr_from_matrix,
    repr_of_fx,
    sort_desc,
)
from snorder.errors import BackendMismatch, VerdictAmbiguous
from snorder.scalar import EXACT, FLOAT
from snorder.snrepr import merge_equal

near = st.integers(-4, 4).map(lambda k: k * 0.4e-9)
near_tie_floats = st.builds(
    lambda re, dre, im, dim: approx(re + dre, im + dim),
    st.sampled_from([0.0, 1.0, -2.0]), near, st.sampled_from([0.0, 0.5]), near,
)
small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
exacts = st.builds(exact, small, st.one_of(st.just(Fraction(0)), small))
partitions = st.lists(st.integers(1, 3), min_size=1, max_size=2).map(
    lambda p: tuple(sorted(p, reverse=True)))


@st.composite
def vector_pairs(draw):
    """Two equal-length vectors of one backend, each with a permutation."""
    scalars = draw(st.sampled_from([near_tie_floats, exacts]))
    n = draw(st.integers(1, 6))
    x = draw(st.lists(scalars, min_size=n, max_size=n))
    y = draw(st.lists(scalars, min_size=n, max_size=n))
    return x, y, draw(st.permutations(x)), draw(st.permutations(y))


@st.composite
def spec_pairs(draw):
    """Block lists of two specs of one backend and dimension (the second
    reuses the first's partitions), each with a permutation."""
    scalars = draw(st.sampled_from([near_tie_floats, exacts]))
    parts = draw(st.lists(partitions, min_size=1, max_size=5))
    a = [(draw(scalars), p) for p in parts]
    b = [(draw(scalars), p) for p in parts]
    return a, b, draw(st.permutations(a)), draw(st.permutations(b))


def rep(blocks):
    return canonical_repr(JordanSpec.of(*blocks))


def keys(values):
    return [(z.re, z.im) for z in values]


def outcome(f, *args):
    """f(*args), or the refusal it raises."""
    try:
        return f(*args)
    except VerdictAmbiguous as err:
        return type(err), str(err)


@settings(max_examples=150, deadline=None)
@given(vector_pairs())
def test_sort_desc_ignores_input_order(pairs):
    x, _, px, _ = pairs
    assert sort_desc(px) == sort_desc(x)


@settings(max_examples=150, deadline=None)
@given(vector_pairs())
def test_sort_desc_follows_the_exact_key(pairs):
    out = keys(sort_desc(pairs[0]))
    assert out == sorted(out, reverse=True)


@settings(max_examples=150, deadline=None)
@given(vector_pairs())
def test_majorize_check_ignores_input_order(pairs):
    x, y, px, py = pairs
    assert outcome(majorize_check, px, py) == outcome(majorize_check, x, y)


@settings(max_examples=150, deadline=None)
@given(spec_pairs())
def test_canonical_repr_ignores_block_order(pairs):
    a, _, pa, _ = pairs
    out = rep(pa)
    assert out == rep(a)
    assert sort_desc(out.eigenvalues) == out.eigenvalues


@settings(max_examples=150, deadline=None)
@given(spec_pairs())
def test_canonical_repr_eigenvalues_strictly_decrease_where_transitive(pairs):
    # on the exact key, wherever cmp_total is transitive and wherever not;
    # merged neighbours do tie under cmp_total, so no two in a row do
    eigs = rep(pairs[0]).eigenvalues
    assert keys(eigs) == sorted(set(keys(eigs)), reverse=True)
    assert all(cmp_total(u, v) is not OrderOutcome.EQUAL for u, v in zip(eigs, eigs[1:]))


@settings(max_examples=100, deadline=None)
@given(spec_pairs())
def test_compare_sno_ignores_block_order(pairs):
    a, b, pa, pb = pairs
    assert outcome(compare_sno, rep(pa), rep(pb)) == outcome(compare_sno, rep(a), rep(b))


@settings(max_examples=100, deadline=None)
@given(spec_pairs(), st.sampled_from([[0, 0, 1], [0, -1, 1], [1, 1]]))
def test_repr_of_fx_ignores_block_order(pairs, coeffs):
    a, _, pa, _ = pairs
    f = poly(coeffs, EXACT if a[0][0].backend == EXACT else FLOAT)
    assert repr_of_fx(f, rep(pa)) == repr_of_fx(f, rep(a))


def test_repr_from_matrix_refuses_mixed_backends_in_every_order():
    """A matrix with both exact and float entries is refused whichever
    entry P X P^T puts first, with exact and with float eigenvalues."""
    e, f = exact, approx
    x = [[e(1), f(1.0), e(0)], [e(0), f(1.0), e(0)], [e(0), e(0), e(2)]]
    for eigenvalues in ([e(1), e(2)], [f(1.0), f(2.0)]):
        for p in permutations(range(3)):
            px = Matrix.from_rows([[x[i][j] for j in p] for i in p])
            with pytest.raises(BackendMismatch):
                repr_from_matrix(px, eigenvalues)


# A float near-tie run, chained within eps: f(z) = 1e-9 z maps these
# eigenvalues to (0, 0), (0, -1.2e-9), (-4e-10, 0), (-4e-10, 1e-16) and
# (-1.2e-9, 0).  On the exact key the last three follow (0, -1.2e-9), which
# ties neither of them, and fold into a group headed by the largest.
NEAR_TIE_EIGENVALUES = [approx(0.0, 0.0), approx(0.0, -1.2), approx(-0.4, 0.0),
                        approx(-0.4, 1e-7), approx(-1.2, 0.0)]
NEAR_TIE_F = poly([0, 1e-9], FLOAT)
FIXED_POINT = [(0.0, 0.0), (0.0, -1.2e-9), (-4.0000000000000007e-10, 1e-16)]


def test_merge_equal_heads_are_a_fixed_point_of_sort_desc_in_every_order():
    """canonical_repr, repr_of_fx and repr_from_matrix all group by merge_equal."""
    images = [NEAR_TIE_F(lam) for lam in NEAR_TIE_EIGENVALUES]
    for order in permutations(images):
        heads = tuple(lam for lam, _ in merge_equal((lam, None) for lam in order))
        assert [(z.re, z.im) for z in heads] == FIXED_POINT
        assert sort_desc(heads) == heads


def test_repr_of_fx_merged_near_ties_strictly_decrease():
    for order in permutations(NEAR_TIE_EIGENVALUES):
        out = repr_of_fx(NEAR_TIE_F, rep([(lam, (1,)) for lam in order]))[0]
        assert [(z.re, z.im) for z in out.eigenvalues] == FIXED_POINT
        assert sort_desc(out.eigenvalues) == out.eigenvalues
        assert out.partitions == ((1,), (1,), (1, 1, 1))

