import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snorder import (
    JordanSpec,
    Matrix,
    SNOVerdict,
    canonical_repr,
    exact,
    poly,
)
from snorder.errors import (
    DimensionMismatch,
    NotSNOrdered,
    NotWeaklyMajorized,
    SnorderError,
    SpectrumUnavailable,
    VerdictAmbiguous,
)
from snorder.linalg import spectral_norm
from snorder.majorization import Majorization, TTransform, t_transform_apply
from snorder.matfunc import PolynomialFunction
from snorder.ordering import (
    MajorizationCert,
    MajorizationPreserveResult,
    MonotonicityCertificate,
    _image_reprs,
    _kappas,
    _try_case_c,
    closed_form_eigenvalues,
    convexity_check,
    majorization_preserving_check,
    monotonicity_certificate,
    monotonicity_verify_direct,
)
from snorder.partitions import dominance_check
from snorder.scalar import OrderOutcome, approx, cmp_total, sort_desc, zero_like
from snorder.snrepr import compare_sno

from matrix_oracles import block_diag, fraction_majorization
from test_acceptance import HP_TOL, ContractionViolated, hp_identities_check
from test_schur import pairwise_monotonicity


def rep_of(*pairs):
    return canonical_repr(JordanSpec.of(*pairs))


def diag(*vals):
    n = len(vals)
    zero = exact(0)
    return Matrix.from_rows(
        [[exact(v) if i == j else zero for j, v in enumerate(vals)] for i in range(n)]
    )


# -- eigenvalue access ----------------------------------------------------------


def test_closed_form_eigenvalues_triangular():
    m = Matrix.from_rows([
        [exact(3), exact(1)],
        [exact(0), exact(2, 1)],
    ])
    eigs = closed_form_eigenvalues(m)
    assert [e.to_complex() for e in eigs] == [3, 2 + 1j]


def test_closed_form_eigenvalues_2x2_exact():
    m = Matrix.from_rows([
        [exact(0), exact(1)],
        [exact(4), exact(0)],
    ])
    eigs = closed_form_eigenvalues(m)
    assert sorted(e.to_complex().real for e in eigs) == [-2, 2]


def test_closed_form_eigenvalues_exact_irrational_raises():
    m = Matrix.from_rows([
        [exact(0), exact(1)],
        [exact(2), exact(0)],
    ])
    with pytest.raises(SpectrumUnavailable):
        closed_form_eigenvalues(m)


def test_closed_form_eigenvalues_general_shape_raises():
    m = Matrix.from_rows([
        [exact(0), exact(1), exact(0)],
        [exact(1), exact(0), exact(0)],
        [exact(0), exact(0), exact(1)],
    ])
    with pytest.raises(SpectrumUnavailable):
        closed_form_eigenvalues(m)


# -- monotonicity certificates ----------------------------------------------------


def test_case_a_increasing_affine():
    f = poly([1, 2])
    rx = rep_of((exact(2), (1,)), (exact(2), (1,)))
    ry = rep_of((exact(3), (1,)), (exact(1), (1,)))
    cert = monotonicity_certificate(f, rx, ry)
    assert cert is not None and cert.case == "A"
    assert monotonicity_verify_direct(f, rx, ry) in (
        SNOVerdict.STRICT_LESS, SNOVerdict.WEAK_LESS,
    )


def test_case_b_decreasing_affine():
    f = poly([0, -1])
    rx = rep_of((exact(2), (1,)), (exact(2), (1,)))
    ry = rep_of((exact(3), (1,)), (exact(1), (1,)))
    cert = monotonicity_certificate(f, rx, ry)
    assert cert is not None and cert.case == "B"
    assert monotonicity_verify_direct(f, rx, ry) in (
        SNOVerdict.STRICT_LESS, SNOVerdict.WEAK_LESS,
    )


def test_case_c_collapsing_squares():
    f = poly([0, 0, 1])
    rx = rep_of((exact(2), (1, 1)), (exact(-1), (1, 1)))
    ry = rep_of((exact(2), (2,)), (exact(1), (2,)))
    cert = monotonicity_certificate(f, rx, ry)
    assert cert is not None and cert.case == "C"
    assert monotonicity_verify_direct(f, rx, ry) is SNOVerdict.STRICT_LESS


def test_case_d_equal_spectra_increasing():
    f = poly([5, 2])
    rx = rep_of((exact(1), (2, 1)), (exact(0), (1,)))
    ry = rep_of((exact(1), (3,)), (exact(0), (1,)))
    cert = monotonicity_certificate(f, rx, ry)
    assert cert is not None and cert.case == "D"
    assert monotonicity_verify_direct(f, rx, ry) is SNOVerdict.STRICT_LESS


def test_case_e_equal_spectra_decreasing():
    f = poly([0, -1])
    # entrywise strict dominance at every eigenvalue is required
    rx = rep_of((exact(1), (2, 1)), (exact(0), (1, 1)))
    ry = rep_of((exact(1), (3,)), (exact(0), (2,)))
    cert = monotonicity_certificate(f, rx, ry)
    assert cert is not None and cert.case == "E"
    assert monotonicity_verify_direct(f, rx, ry) is SNOVerdict.STRICT_LESS


def test_certificate_requires_sn_order():
    f = poly([0, 1])
    r = rep_of((exact(1), (1,)))
    with pytest.raises(NotSNOrdered):
        monotonicity_certificate(f, r, r)


def test_no_certificate_for_nonmonotone_map():
    f = poly([0, 0, 1])
    rx = rep_of((exact(1), (1,)), (exact(-3), (1,)))
    ry = rep_of((exact(2), (1,)), (exact(-2), (1,)))
    assert monotonicity_certificate(f, rx, ry) is None


# -- convexity -------------------------------------------------------------------


def test_convexity_square_on_diagonals():
    f = poly([0, 0, 1])
    a = diag(0, 2)
    b = diag(1, 1)
    report = convexity_check(f, a, b, ["1/2", "1/4", "3/4"])
    assert report.consistent
    assert report.points[0].verdict in (SNOVerdict.WEAK_LESS, SNOVerdict.STRICT_LESS)


def test_convexity_witness_for_concave_map():
    f = poly([0, 0, -1])  # -z^2 mixes above its average
    a = diag(0, 2)
    b = diag(1, 1)
    report = convexity_check(f, a, b, ["1/2"])
    assert not report.consistent
    assert [p for p in report.points if p.greater]


def test_convexity_records_errors_per_point():
    f = poly([0, 0, 1])
    m = Matrix.from_rows([
        [exact(0), exact(1), exact(0)],
        [exact(1), exact(0), exact(0)],
        [exact(0), exact(0), exact(1)],
    ])
    report = convexity_check(f, m, m, ["1/2"])
    assert report.points[0].error is not None


# -- dilation identities ------------------------------------------------------------


def test_hp_identities_residuals_small():
    rng = np.random.default_rng(0)
    for n in (2, 4):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        c = 0.9 * g / np.linalg.norm(g, 2)
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        res = hp_identities_check(c, x, 0.3)
        assert all(v <= 1e-8 for v in res.values()), res


def test_hp_identities_rejects_expansion():
    c = np.eye(2) * 2.0
    with pytest.raises(ContractionViolated):
        hp_identities_check(c, np.eye(2), 0.5)


# -- pinching / congruence item checks ---------------------------------------------
# Residual checks that only these tests use: items 2-4 of the Hansen-Pedersen
# characterization probed on concrete inputs, and the stacked assembly behind item 3.


class NotAProjection(SnorderError):
    """The matrix given as item 4's projection fails P^2 = P = P*."""


@dataclass(frozen=True)
class ItemCheck:
    item: int
    verdict_raw: Optional[SNOVerdict]
    verdict_shifted: Optional[SNOVerdict]
    error: Optional[str] = None


def conj_transpose(m: Matrix) -> Matrix:
    """C*: the conjugate transpose of m."""
    return Matrix(tuple(tuple(a.conjugate() for a in col) for col in zip(*m.rows)))


def _shifted(f: PolynomialFunction) -> PolynomialFunction:
    """f - f(0): pin the origin so congruence by a strict contraction has a
    chance of preserving the order."""
    coeffs = list(f.coefficients)
    coeffs[0] = zero_like(coeffs[0])
    return PolynomialFunction(tuple(coeffs))


def hp_item_checks(
    f: PolynomialFunction,
    xs: Sequence[Matrix],
    cs: Sequence[Matrix],
    p: Optional[Matrix] = None,
) -> list:
    """Probe the three congruence/pinching comparisons that characterize
    operator convexity on concrete inputs, with both the raw f and the
    origin-pinned f - f(0).

    Item 2: f(C* X C) vs C* f(X) C for a single contraction.
    Item 3: f(sum C_i* X_i C_i) vs sum C_i* f(X_i) C_i for a contractive
    column (checked against the explicit stacked-block assembly).
    Item 4: pinching by a projection P mixing X and Y.
    Needs at least one C and at least as many Xs as Cs.
    """
    if not cs or len(xs) < len(cs):
        raise DimensionMismatch(f"need a C and an X per C, got {len(cs)} Cs and {len(xs)} Xs")
    results = []
    n = cs[0].shape[0]
    gram = reduce(add, (conj_transpose(c) @ c for c in cs))
    if spectral_norm(gram.to_numpy()) > 1.0 + HP_TOL:
        raise ContractionViolated("sum of C_i* C_i exceeds the identity")

    def congruence(item, mats):
        """Item 2's C* M C, item 3's sum of C_i* M_i C_i, or item 4's
        pinching P M_1 P + Q M_2 Q, taking each M from the iterator mats."""
        if item == 4:
            q = Matrix.identity(n, p.backend) - p
            return (p @ next(mats) @ p) + (q @ next(mats) @ q)
        return reduce(add, (conj_transpose(c) @ m @ c
                            for c, m in zip(cs[:1] if item == 2 else cs, mats)))

    items = [2, 3] + ([4] if p is not None else [])
    if p is not None:
        pp = p @ p - p
        if max(np.linalg.norm(m.to_numpy()) for m in (pp, p - conj_transpose(p))) > HP_TOL:
            raise NotAProjection("p fails P^2 = P = P*")
    for item in items:
        if item == 4 and len(xs) < 2:
            results.append(ItemCheck(4, None, None, error="item 4 needs two matrices"))
            continue
        arg = congruence(item, iter(xs))
        verdicts, err = [], None
        for fn in (f, _shifted(f)):
            try:
                rhs = congruence(item, map(fn.eval_matrix, xs))
                verdicts.append(compare_sno(*_image_reprs(fn, arg, rhs)))
            except SnorderError as e:
                verdicts.append(None)
                err = err or str(e)
        results.append(ItemCheck(item, *verdicts, error=err))
    return results


def stacked_assembly_residual(xs: Sequence[Matrix], cs: Sequence[Matrix]) -> float:
    """Frobenius distance between sum C_i* X_i C_i and the explicit stacked
    column / block-diagonal assembly of the same expression."""
    cbar = np.vstack([c.to_numpy() for c in cs])
    xbb = block_diag(xs).to_numpy()
    direct = reduce(add, (conj_transpose(c) @ xm @ c for c, xm in zip(cs, xs)))
    return float(np.linalg.norm(cbar.conj().T @ xbb @ cbar - direct.to_numpy()))


def test_hp_item_checks_diagonal_inputs():
    f = poly([0, 0, 1])
    x = diag(2, 1)
    y = diag(1, 0)
    c = diag(1, 0)  # projection-like contraction
    p = diag(1, 0)
    results = hp_item_checks(f, [x, y], [c], p)
    by_item = {r.item: r for r in results}
    assert set(by_item) == {2, 3, 4}
    for r in results:
        assert r.error is None
        assert r.verdict_raw is not None
        assert r.verdict_shifted in (
            SNOVerdict.EQUAL, SNOVerdict.WEAK_LESS, SNOVerdict.STRICT_LESS,
        )


def test_hp_item_checks_rejects_expanding_family():
    f = poly([0, 1])
    x = diag(1, 1)
    c = diag(2, 2)
    with pytest.raises(ContractionViolated):
        hp_item_checks(f, [x], [c])


@pytest.mark.parametrize("n_xs, n_cs", [(0, 1), (1, 0), (0, 0), (1, 2)])
def test_hp_item_checks_needs_an_x_per_c(n_xs, n_cs):
    # (1, 2): the Cs sum to 2I, so the count must be checked before the Gram
    # matrix is, and item 3 would otherwise drop the second C.
    f = poly([0, 1])
    with pytest.raises(DimensionMismatch):
        hp_item_checks(f, [diag(1, 1)] * n_xs, [diag(1, 1)] * n_cs)


def test_hp_item_checks_rejects_non_projection():
    f = poly([0, 1])
    x = diag(1, 1)
    c = diag(1, 0)
    not_p = Matrix.from_rows([[exact(1), exact(1)], [exact(0), exact(1)]])
    with pytest.raises(NotAProjection):
        hp_item_checks(f, [x, x], [c], not_p)


def test_stacked_assembly_matches_direct_sum():
    xs = [diag(2, 1), diag(0, 3)]
    cs = [diag(1, 0).scale(exact(1, 0)), diag(0, 1).scale(exact(1, 0))]
    assert stacked_assembly_residual(xs, cs) <= 1e-12


# -- spectral mapping numerics -------------------------------------------------------


def _random_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _poly_mat(coeffs, m):
    out = np.zeros_like(m)
    for c in reversed(coeffs):
        out = out @ m + c * np.eye(m.shape[0])
    return out


def test_similarity_and_flip_identities():
    rng = np.random.default_rng(12)
    coeffs = [0.5, -1.0, 0.25, 1.0]
    for _ in range(20):
        n = int(rng.integers(2, 7))
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        u = _random_unitary(rng, n)
        lhs = _poly_mat(coeffs, u.conj().T @ x @ u)
        rhs = u.conj().T @ _poly_mat(coeffs, x) @ u
        assert np.linalg.norm(lhs - rhs) <= 1e-8
        lhs2 = x @ _poly_mat(coeffs, x.conj().T @ x)
        rhs2 = _poly_mat(coeffs, x @ x.conj().T) @ x
        assert np.linalg.norm(lhs2 - rhs2) <= 1e-8


# -- certificates on exact polynomial images ----------------------------------------
# Reference copies of the certificate code on TotalComplex values: f
# evaluated point by point, sort_desc and cmp_total on the images, and the
# pairwise monotonicity loop of test_schur.


def _reference_preserving_check(f, x, y):
    sx, sy = sort_desc(x), sort_desc(y)
    if fraction_majorization(sx, sy) is Majorization.NONE:
        raise NotWeaklyMajorized("x must be weakly majorized by y")
    points = sx + sy
    images = [f(v) for v in points]
    inc, dec = pairwise_monotonicity(points, images)
    n = len(sx)
    fx, fy = images[:n], images[n:]

    def sums_below(a, b):  # each prefix, summed left to right
        return all(cmp_total(reduce(add, a[:k]), reduce(add, b[:k])) is not OrderOutcome.GREATER
                   for k in range(1, n + 1))

    if inc and sums_below(fx, fy):
        return MajorizationPreserveResult(MajorizationCert.CERTIFIED_INCREASING)
    if dec and sums_below(fx[::-1], fy[::-1]):
        return MajorizationPreserveResult(MajorizationCert.CERTIFIED_DECREASING)
    entrywise = all(cmp_total(a, b) is not OrderOutcome.GREATER for a, b in zip(sx, sy))
    if entrywise and inc:
        return MajorizationPreserveResult(MajorizationCert.CERTIFIED_ENTRYWISE)
    if entrywise and dec:
        return MajorizationPreserveResult(MajorizationCert.CERTIFIED_ENTRYWISE,
                                          reversed_direction=True)
    return MajorizationPreserveResult(MajorizationCert.NOT_CERTIFIED)


def _reference_case_c(f, rx, ry):
    if len(rx.eigenvalues) != len(ry.eigenvalues):
        return None
    fx = [f(v) for v in rx.eigenvalues]
    fy = [f(v) for v in ry.eigenvalues]
    cx, cy = sort_desc(rx.repeated(fx)), sort_desc(ry.repeated(fy))
    if len(cx) != len(cy) or any(
        cmp_total(a, b) is not OrderOutcome.EQUAL for a, b in zip(cx, cy)
    ):
        return None
    if [sum(p) for p in rx.partitions] != [sum(p) for p in ry.partitions]:
        return None
    kx, ky = _kappas(f, rx), _kappas(f, ry)
    flat_x_ok = all(k is None or k >= max(part) for k, part in zip(kx, rx.partitions))
    y_first_order = all(k == 1 for k in ky)
    y_nontrivial = any(max(p) > 1 for p in ry.partitions)
    if flat_x_ok and y_first_order and y_nontrivial:
        return MonotonicityCertificate("C", {"kappa_x": kx, "kappa_y": ky})
    return None


def _reference_certificate(f, rx, ry):
    verdict = compare_sno(rx, ry)
    if verdict not in (SNOVerdict.STRICT_LESS, SNOVerdict.WEAK_LESS):
        raise NotSNOrdered(f"representations compare as {verdict.value}")
    sx, sy = rx.spectral_vector, ry.spectral_vector
    if any(cmp_total(a, b) is not OrderOutcome.EQUAL for a, b in zip(sx, sy)):
        res = _reference_preserving_check(f, sx, sy)
        if res.kind is MajorizationCert.CERTIFIED_INCREASING:
            return MonotonicityCertificate("A")
        if res.kind is MajorizationCert.CERTIFIED_DECREASING:
            return MonotonicityCertificate("B")
        return _reference_case_c(f, rx, ry)
    points = rx.eigenvalues + ry.eigenvalues
    inc, dec = pairwise_monotonicity(points, [f(z) for z in points])
    kx, ky = _kappas(f, rx), _kappas(f, ry)
    first_order = all(k == 1 for k in kx) and all(k == 1 for k in ky)
    if inc and first_order:
        return MonotonicityCertificate("D", {"kappa_x": kx, "kappa_y": ky})
    entrywise = len(rx.partitions) == len(ry.partitions) and all(
        dominance_check(px, py) and px != py for px, py in zip(rx.partitions, ry.partitions))
    if dec and first_order and entrywise:
        return MonotonicityCertificate("E", {"kappa_x": kx, "kappa_y": ky})
    return None


def _outcome(fn, *args):
    """fn's result, certificates with their details, or its error type."""
    try:
        res = fn(*args)
    except Exception as err:  # the differential compares error types too
        return type(err)
    return (res.case, res.details) if isinstance(res, MonotonicityCertificate) else res


_QS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))
_PARTS = {1: [(1,)], 2: [(2,), (1, 1)], 3: [(3,), (2, 1), (1, 1, 1)]}


def _entries(draw):
    """Exact entries, complex or all real, the kind drawn once."""
    return st.builds(exact, _QS, _QS if draw(st.booleans()) else st.just(Fraction(0)))


@st.composite
def exact_polys(draw, even=False):
    """Exact polynomials of degree 0..3, complex coefficients or real ones;
    even ones have only c0 and c2, so f(z) = f(-z)."""
    coeffs = draw(st.lists(_entries(draw), min_size=1, max_size=4))
    if even:
        coeffs = [c if k % 2 == 0 else exact(0) for k, c in enumerate(coeffs[:3])]
    return PolynomialFunction(tuple(coeffs))


def _mixed_down(draw, y):
    """y after a few T-transforms with beta in [0, 1]: strictly majorized by y."""
    x = list(y)
    for _ in range(draw(st.integers(0, 3)) if len(x) > 1 else 0):
        i = draw(st.integers(0, len(x) - 2))
        j = draw(st.integers(i + 1, len(x) - 1))
        beta = exact(Fraction(draw(st.integers(0, 6)), 6))
        x = list(t_transform_apply(x, TTransform(i, j, beta)))
    return x


@st.composite
def preserving_inputs(draw):
    """(f, x, y): unsorted x and y with repeated entries, strictly or weakly
    majorized, at random or of unequal lengths."""
    f = draw(exact_polys())
    n = draw(st.integers(1, 5))
    pool = draw(st.lists(_entries(draw), min_size=1, max_size=n))
    y = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["strict", "weak", "random", "unequal"]))
    if kind in ("random", "unequal"):
        m = n if kind == "random" else draw(st.integers(0, 6).filter(lambda m: m != n))
        x = draw(st.lists(st.sampled_from(pool) | _entries(draw), min_size=m, max_size=m))
    else:
        x = _mixed_down(draw, y)
        if kind == "weak":
            k = draw(st.integers(0, n - 1))
            x[k] = x[k] - exact(draw(_QS.filter(lambda q: q > 0)))
    return f, tuple(draw(st.permutations(x))), tuple(draw(st.permutations(y)))


@st.composite
def certificate_inputs(draw):
    """(f, rx, ry): equal spectra with other block structures (case II),
    spectra mixed down (case I), spectra an even f may collapse (case C), or
    two unrelated representations; a pair ordered the other way round is
    swapped."""
    kind = draw(st.sampled_from(["same spectrum", "mixed", "collapse", "random"]))
    f = draw(exact_polys(even=kind == "collapse"))
    pool = draw(st.lists(_entries(draw), min_size=1, max_size=4, unique=True))
    blocks = st.tuples(st.sampled_from(pool), st.sampled_from(sum(_PARTS.values(), [])))
    xs = draw(st.lists(blocks, min_size=1, max_size=3))
    if kind == "mixed":
        y = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        xs, ys = [(z, (1,)) for z in _mixed_down(draw, y)], [(z, (1,)) for z in y]
    elif kind == "random":
        ys = draw(st.lists(blocks, min_size=1, max_size=3))
    else:
        # _PARTS lists each size's partitions by decreasing dominance, so x
        # takes the later one of two at every eigenvalue.
        ks = [draw(st.sampled_from([k for k, q in enumerate(_PARTS[sum(p)]) if q != p] or [0]))
              for _, p in xs]
        ys = [(lam, _PARTS[sum(p)][min(k, _PARTS[sum(p)].index(p))])
              for (lam, p), k in zip(xs, ks)]
        xs = [(lam, _PARTS[sum(p)][max(k, _PARTS[sum(p)].index(p))])
              for (lam, p), k in zip(xs, ks)]
        if kind == "collapse":
            xs = [(-lam if draw(st.booleans()) else lam, (1,) * sum(p)) for lam, p in xs]
    rx, ry = rep_of(*xs), rep_of(*ys)
    if rx.dimension == ry.dimension and compare_sno(ry, rx) in (
            SNOVerdict.STRICT_LESS, SNOVerdict.WEAK_LESS):
        rx, ry = ry, rx
    return f, rx, ry


def _float_poly(f):
    return PolynomialFunction(tuple(c.to_float_backend() for c in f.coefficients))


def _float_rep(r):
    return rep_of(*((lam.to_float_backend(), p) for lam, p in zip(r.eigenvalues, r.partitions)))


_VARIANTS = ["exact", "exact", "exact", "float f", "float points", "mixed points"]


@settings(max_examples=400, deadline=None)
@given(preserving_inputs(), st.sampled_from(_VARIANTS))
def test_preserving_check_matches_total_complex_reference(inputs, variant):
    f, x, y = inputs
    if variant == "float f":
        f = _float_poly(f)
    elif variant != "exact":
        y = tuple(z.to_float_backend() for z in y)
        x = x if variant == "mixed points" else tuple(z.to_float_backend() for z in x)
    assert _outcome(majorization_preserving_check, f, x, y) \
        == _outcome(_reference_preserving_check, f, x, y)


@settings(max_examples=400, deadline=None)
@given(certificate_inputs(), st.sampled_from(_VARIANTS))
def test_certificate_and_case_c_match_total_complex_reference(inputs, variant):
    f, rx, ry = inputs
    if variant == "float f":
        f = _float_poly(f)
    elif variant != "exact":
        ry = _float_rep(ry)
        rx = rx if variant == "mixed points" else _float_rep(rx)
    assert _outcome(monotonicity_certificate, f, rx, ry) \
        == _outcome(_reference_certificate, f, rx, ry)
    assert _outcome(_try_case_c, f, rx, ry) == _outcome(_reference_case_c, f, rx, ry)


def _certificate_corpus(count=2000, seed=24):
    """(f, rx, ry) in four kinds taken in turn: spectra mixed down (case I),
    one spectrum with x's blocks below y's (case II), spectra an even f
    collapses (case C), and two unrelated representations; every eighth
    pair is on the float backend."""
    rng = random.Random(seed)

    def value(cplx):
        return exact(*(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(1 + cplx)))

    def any_poly():
        cplx = rng.random() < 0.3
        return PolynomialFunction(tuple(value(cplx) for _ in range(rng.randint(1, 4))))

    every_part = sum(_PARTS.values(), [])
    for k in range(count):
        cplx, kind = rng.random() < 0.3, k % 4
        if kind == 0:
            y = [value(cplx) for _ in range(rng.randint(2, 5))]
            x = y
            for _ in range(rng.randint(1, 3)):
                i, j = sorted(rng.sample(range(len(y)), 2))
                x = t_transform_apply(x, TTransform(i, j, exact(Fraction(rng.randint(0, 6), 6))))
            xs, ys = [(z, (1,)) for z in x], [(z, (1,)) for z in y]
            f = rng.choice([poly([1, 2]), poly([0, -1]), any_poly()])
        elif kind in (1, 2):
            lams = dict.fromkeys(value(cplx) if kind == 1 else exact(rng.randint(1, 9))
                                 for _ in range(rng.randint(1, 3)))
            xs, ys = [], []
            for lam in lams:
                parts = _PARTS[rng.randint(1, 3)]
                a, b = sorted(rng.sample(range(len(parts)), 2)) if len(parts) > 1 else (0, 0)
                ys.append((lam, parts[a]))
                if kind == 2:  # all ones at x, some eigenvalues negated
                    lam, b = (-lam if rng.random() < 0.7 else lam), len(parts) - 1
                xs.append((lam, parts[b]))
            f = (rng.choice([poly([5, 2]), poly([0, -1]), any_poly()]) if kind == 1
                 else poly([value(False), 0, value(False)]))
        else:
            xs, ys = ([(value(cplx), rng.choice(every_part)) for _ in range(rng.randint(1, 3))]
                      for _ in "xy")
            f = any_poly()
        rx, ry = rep_of(*xs), rep_of(*ys)
        if rx.dimension == ry.dimension and compare_sno(ry, rx) in (
                SNOVerdict.STRICT_LESS, SNOVerdict.WEAK_LESS):
            rx, ry = ry, rx
        yield (f, rx, ry) if k % 8 else (_float_poly(f), _float_rep(rx), _float_rep(ry))


@pytest.mark.parametrize("others", [[], [(2.0, (1,))]])
def test_float_map_that_splits_tied_eigenvalues_certifies_nothing(others):
    # X's eigenvalue 1 + 5e-10 is within eps of Y's 1, yet 5e-10 is far more
    # than the round-off of these spectra: with one block each the spectral
    # level refuses at the prefix that reaches it.  With two blocks the next
    # prefix holds the gap twice, above eps, so the spectra are incomparable.
    # 1e6 z keeps the images apart, so the direct verdict is incomparable.
    f = PolynomialFunction((approx(0.0), approx(1e6)))
    for bx, by, refused in [((1,), (1,), True), ((1, 1), (2,), False)]:
        rx = rep_of(*((approx(v), p) for v, p in others + [(1 + 5e-10, bx)]))
        ry = rep_of(*((approx(v), p) for v, p in others + [(1.0, by)]))
        if refused:
            with pytest.raises(VerdictAmbiguous, match=f"^prefix {len(others) + 1} "):
                monotonicity_certificate(f, rx, ry)
        else:
            assert _outcome(monotonicity_certificate, f, rx, ry) is NotSNOrdered
        assert monotonicity_verify_direct(f, rx, ry) is SNOVerdict.INCOMPARABLE
    # Y's 1 one ulp above X's ties it within the round-off band, so the pair
    # reaches case II, where 1e12 z splits the two points by more than eps:
    # Y's eigenvalue joins X's in the monotonicity test, and nothing is
    # certified.  The direct verdict on images 2.2e-4 apart refuses.
    f = PolynomialFunction((approx(0.0), approx(1e12)))
    rx = rep_of(*((approx(v), p) for v, p in others + [(1.0, (1, 1))]))
    ry = rep_of(*((approx(v), p) for v, p in others + [(math.nextafter(1.0, 2.0), (2,))]))
    assert compare_sno(rx, ry) is SNOVerdict.STRICT_LESS
    assert monotonicity_certificate(f, rx, ry) is None
    with pytest.raises(VerdictAmbiguous, match=f"^prefix {len(others) + 1} "):
        monotonicity_verify_direct(f, rx, ry)


def test_certificate_corpus_digest_is_pinned():
    """2,000 seeded certificates with their direct verdicts: the same bytes
    as the TotalComplex implementation gave."""
    h = hashlib.sha256()
    for f, rx, ry in _certificate_corpus():
        text = repr((_outcome(monotonicity_certificate, f, rx, ry),
                     _outcome(monotonicity_verify_direct, f, rx, ry)))
        h.update((text + "\n").encode())
    assert h.hexdigest() == CERTIFICATE_DIGEST


CERTIFICATE_DIGEST = "a60aea897d0dffb7c178ff61f65f46f1e0ed86dddc14c392ba679f6549394c0a"


CASES_A_TO_E = [
    (poly([1, 2]), rep_of((exact(2), (1,)), (exact(2), (1,))),
     rep_of((exact(3), (1,)), (exact(1), (1,)))),
    (poly([0, -1]), rep_of((exact(2), (1,)), (exact(2), (1,))),
     rep_of((exact(3), (1,)), (exact(1), (1,)))),
    (poly([0, 0, 1]), rep_of((exact(2), (1, 1)), (exact(-1), (1, 1))),
     rep_of((exact(2), (2,)), (exact(1), (2,)))),
    (poly([5, 2]), rep_of((exact(1), (2, 1)), (exact(0), (1,))),
     rep_of((exact(1), (3,)), (exact(0), (1,)))),
    (poly([0, -1]), rep_of((exact(1), (2, 1)), (exact(0), (1, 1))),
     rep_of((exact(1), (3,)), (exact(0), (2,)))),
]


def test_exact_certificates_make_no_point_evaluation_sort_or_compare(monkeypatch):
    """Exact certificates read f's images from exact_images: no sort_desc,
    no cmp_total and no f(lam), which is taylor(lam, 1); the preserving
    check makes no taylor call at all."""
    import snorder.majorization as majorization
    import snorder.ordering as ordering
    import snorder.scalar as scalar
    import snorder.schur as schur
    import snorder.snrepr as snrepr

    def key(cert):
        return cert and (cert.case, cert.details)

    def vec(*vals):
        return tuple(exact(*v) if isinstance(v, tuple) else exact(v) for v in vals)

    checks = [(poly([1, 2]), vec(2, 2), vec(3, 1)), (poly([0, -1]), vec(2, 2), vec(3, 1)),
              (poly([0, -1]), vec(1, 0), vec(3, 1)), (poly([0, 0, 1]), vec(1, -1), vec(2, -2)),
              (poly([1, exact(0, 1), 2]), vec((1, 1), 0, (1, 1)), vec(0, (2, 1), (1, 1)))]
    want = ([key(_reference_certificate(*c)) for c in CASES_A_TO_E],
            [_reference_preserving_check(*c) for c in checks])
    assert [case for case, _ in want[0]] == list("ABCDE")

    def forbidden(*args):
        raise AssertionError("sort_desc, cmp_total or a point evaluation of f")

    for mod in (majorization, ordering, schur, scalar, snrepr):
        for name in ("sort_desc", "cmp_total"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, forbidden)
    taylor = PolynomialFunction.taylor
    monkeypatch.setattr(PolynomialFunction, "taylor",
                        lambda f, lam, n: forbidden() if n == 1 else taylor(f, lam, n))
    certs = [key(monotonicity_certificate(*c)) for c in CASES_A_TO_E]
    monkeypatch.setattr(PolynomialFunction, "taylor", forbidden)
    results = [majorization_preserving_check(*c) for c in checks]
    monkeypatch.undo()
    assert (certs, results) == want
