from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Optional, Sequence

import numpy as np
import pytest

from snorder import (
    JordanSpec,
    Matrix,
    SNOVerdict,
    canonical_repr,
    exact,
    poly,
)
from snorder.errors import (
    ContractionViolated,
    DimensionMismatch,
    NotAProjection,
    NotSNOrdered,
    SnorderError,
    SpectrumUnavailable,
)
from snorder.linalg import block_diag, spectral_norm
from snorder.matfunc import PolynomialFunction
from snorder.ordering import (
    _image_reprs,
    closed_form_eigenvalues,
    convexity_check,
    monotonicity_certificate,
    monotonicity_verify_direct,
)
from snorder.scalar import zero_like
from snorder.snrepr import compare_sno

from test_acceptance import HP_TOL, hp_identities_check


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


@dataclass(frozen=True)
class ItemCheck:
    item: int
    verdict_raw: Optional[SNOVerdict]
    verdict_shifted: Optional[SNOVerdict]
    error: Optional[str] = None


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
    gram = reduce(add, (c.conj_transpose() @ c for c in cs))
    if spectral_norm(gram.to_numpy()) > 1.0 + HP_TOL:
        raise ContractionViolated("sum of C_i* C_i exceeds the identity")

    def congruence(item, mats):
        """Item 2's C* M C, item 3's sum of C_i* M_i C_i, or item 4's
        pinching P M_1 P + Q M_2 Q, taking each M from the iterator mats."""
        if item == 4:
            q = Matrix.identity(n, p.backend) - p
            return (p @ next(mats) @ p) + (q @ next(mats) @ q)
        return reduce(add, (c.conj_transpose() @ m @ c
                            for c, m in zip(cs[:1] if item == 2 else cs, mats)))

    items = [2, 3] + ([4] if p is not None else [])
    if p is not None:
        pp = p @ p - p
        if max(np.linalg.norm(m.to_numpy()) for m in (pp, p - p.conj_transpose())) > HP_TOL:
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
    direct = reduce(add, (c.conj_transpose() @ xm @ c for c, xm in zip(cs, xs)))
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
