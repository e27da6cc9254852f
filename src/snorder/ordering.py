"""Monotonicity and convexity of matrix functions under the
spectral-and-nilpotent order.

Certificates are hypothesis checks: a non-None certificate is always
cross-checked against the direct comparison of the two image
representations (``monotonicity_verify_direct``).  Case I rests on
:func:`majorization_preserving_check`, one decision rule for both backends.
Convexity is probed pointwise on eigenvalue-accessible matrices (triangular
or 2x2).
"""

from __future__ import annotations

import cmath
import enum
import math
from fractions import Fraction
from itertools import combinations
from operator import gt
from typing import Optional, Sequence

from .errors import (
    NotSNOrdered,
    NotWeaklyMajorized,
    SnorderError,
    SpectrumUnavailable,
)
from .linalg import Matrix
from .majorization import (Majorization, band_signs, cleared_pair, int_majorization,
                           majorize_check, running_pairs)
from .matfunc import (
    FunctionDescriptor,
    PolynomialFunction,
    kappa,
    repr_of_fx,
)
from .partitions import dominance_check
from .scalar import (
    EXACT,
    Frozen,
    OrderOutcome,
    TotalComplex,
    Value,
    approx,
    as_scalar,
    cmp_total,
    exact,
    numerators,
    one_like,
    set_fields,
    sort_desc,
)
from .snrepr import (SNOVerdict, SNRepresentation, compare_nilpotent, compare_spectra, compare_sno,
                     repr_from_matrix)

# -- eigenvalue extraction for the supported input classes -----------------


def _is_triangular(m: Matrix, upper: bool) -> bool:
    n = m.shape[0]
    for i in range(n):
        for j in range(n):
            if (j < i if upper else j > i) and not m.rows[i][j].is_zero():
                return False
    return True


def _fraction_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    pn = math.isqrt(x.numerator)
    pd = math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def _exact_complex_sqrt(z: TotalComplex) -> Optional[TotalComplex]:
    a, b = z.re, z.im
    if b == 0:
        r = _fraction_sqrt(a if a >= 0 else -a)
        if r is None:
            return None
        return exact(r, 0) if a >= 0 else exact(0, r)
    rho = _fraction_sqrt(a * a + b * b)
    if rho is None:
        return None
    p2 = (a + rho) / 2
    p = _fraction_sqrt(p2)
    if p is None or p == 0:
        return None
    return exact(p, b / (2 * p))


def closed_form_eigenvalues(m: Matrix) -> tuple:
    """Eigenvalues without a general solver: triangular matrices read the
    diagonal; 2x2 matrices use the quadratic formula (exact only when the
    discriminant has a rational square root)."""
    if not m.is_square:
        raise SpectrumUnavailable("non-square matrix")
    n = m.shape[0]
    if _is_triangular(m, upper=True) or _is_triangular(m, upper=False):
        return tuple(m.rows[i][i] for i in range(n))
    if n == 2:
        a, b = m.rows[0]
        c, d = m.rows[1]
        tr = a + d
        det = a * d - b * c
        half = Fraction(1, 2) if m.backend == EXACT else 0.5
        disc = tr * tr - det.scale_rational(4)
        if m.backend == EXACT:
            root = _exact_complex_sqrt(disc)
            if root is None:
                raise SpectrumUnavailable("irrational 2x2 eigenvalues in exact mode")
        else:
            r = cmath.sqrt(disc.to_complex())
            root = approx(r.real, r.imag)
        return (
            (tr + root).scale_rational(half),
            (tr - root).scale_rational(half),
        )
    raise SpectrumUnavailable(f"no closed-form spectrum for shape {m.shape}")


def repr_from_accessible(m: Matrix) -> SNRepresentation:
    return repr_from_matrix(m, closed_form_eigenvalues(m))


def _image_reprs(f: PolynomialFunction, arg: Matrix, rhs: Matrix) -> tuple:
    """The representations of f(arg), recovered at the images under f of
    arg's closed-form eigenvalues, and of the accessible matrix rhs."""
    lhs = f.eval_matrix(arg)
    rep_l = repr_from_matrix(lhs, tuple(f(lam) for lam in closed_form_eigenvalues(arg)))
    return rep_l, repr_from_accessible(rhs)


# -- single-variable maps preserving weak majorization ---------------------


class MajorizationCert(enum.Enum):
    CERTIFIED_INCREASING = "certified_increasing"
    CERTIFIED_DECREASING = "certified_decreasing"
    CERTIFIED_ENTRYWISE = "certified_entrywise"
    NOT_CERTIFIED = "not_certified"


class MajorizationPreserveResult(Value):
    __slots__ = _fields = ("kind", "reversed_direction")
    __hash__ = None

    def __init__(self, kind: MajorizationCert, reversed_direction: bool = False):
        # reversed_direction: the conclusion runs f(y) weakly below f(x).
        set_fields(self, kind=kind, reversed_direction=reversed_direction)


def _exact_monotonicity(points, images) -> tuple:
    """_pointwise_monotonicity on keys of exact points and of their images
    whose tuple order is the total order (numerator pairs over one d): the
    images of neighbours among the distinct points, sorted once, decide."""
    by_point = dict(zip(points, images))
    fs = [by_point[p] for p in sorted(by_point, reverse=True)]
    return all(a > b for a, b in zip(fs, fs[1:])), all(a < b for a, b in zip(fs, fs[1:]))


def _pointwise_monotonicity(points, images):
    """Classify a map on the given points, given their images: strictly
    increasing, strictly decreasing, or neither.  The images of every pair
    are compared, since float eps-equality is not transitive; points that
    cmp_total ties need tied images, or the map is neither."""
    inc = dec = True
    for (p, fp), (q, fq) in combinations(zip(points, images), 2):
        order = cmp_total(p, q)
        c = cmp_total(fq, fp) if order is OrderOutcome.LESS else cmp_total(fp, fq)
        if order is not OrderOutcome.EQUAL:
            inc = inc and c is OrderOutcome.GREATER
            dec = dec and c is OrderOutcome.LESS
        elif c is not OrderOutcome.EQUAL:
            return False, False
    return inc, dec


def _monotonicity(f, points, d) -> tuple:
    """(inc, dec, images) of f at the points: with d not None, numerator
    pairs over d for a polynomial f, its exact_images, read as tuples; else
    f at each point, read pairwise under cmp_total."""
    if d is not None:
        images = f.exact_images(d, points)[1]
        return (*_exact_monotonicity(points, images), images)
    images = [f(p) for p in points]
    return (*_pointwise_monotonicity(points, images), images)


def majorization_preserving_check(f, x, y) -> MajorizationPreserveResult:
    """Certify that the entrywise map z -> f(z) carries the weak majorization
    x below y into f(x) weakly below f(y).

    One rule for both backends, checked in order, f strictly monotone on the
    points each time: f increasing and no prefix sum of f(x) above f(y)'s;
    f decreasing and no suffix sum above; then x_i <= y_i at every i, where
    a decreasing f reverses the conclusion.  A polynomial f on exact x and y
    of one nonzero length runs on integer numerator pairs; other input
    takes its verdict from majorize_check, its prefix test from
    :func:`_values_above`, and f's monotonicity and x <= y from cmp_total.
    """
    x, y = tuple(x), tuple(y)
    n = len(x)
    cleared = n and n == len(y) and isinstance(f, PolynomialFunction) and numerators(x + y)
    if cleared:
        verdict, sx, sy = int_majorization(cleared[1][:n], cleared[1][n:])
        d, above, entrywise = cleared[0], _pairs_above, all(a <= b for a, b in zip(sx, sy))
    else:
        sx, sy = sort_desc(x), sort_desc(y)
        d, above, verdict = None, _values_above, majorize_check(x, y)
        entrywise = OrderOutcome.GREATER not in map(cmp_total, sx, sy)
    if verdict is Majorization.NONE:
        raise NotWeaklyMajorized("x must be weakly majorized by y")
    inc, dec, images = _monotonicity(f, sx + sy, d)
    fx, fy = images[:n], images[n:]
    if inc and not above(fx, fy):
        return MajorizationPreserveResult(MajorizationCert.CERTIFIED_INCREASING)
    if dec and not above(fx[::-1], fy[::-1]):
        return MajorizationPreserveResult(MajorizationCert.CERTIFIED_DECREASING)
    if (inc or dec) and entrywise:
        return MajorizationPreserveResult(MajorizationCert.CERTIFIED_ENTRYWISE,
                                          reversed_direction=not inc)
    return MajorizationPreserveResult(MajorizationCert.NOT_CERTIFIED)


def _pairs_above(a, b) -> bool:
    """Some running sum of the numerator pairs a is above b's."""
    return any(map(gt, running_pairs(a), running_pairs(b)))


def _values_above(a, b) -> bool:
    """_pairs_above of exact values a and b, a certain 1 in band_signs of floats."""
    d, pa, pb = cleared_pair(a, b)
    return _pairs_above(pa, pb) if a[0].backend == EXACT else 1 in band_signs(d, pa, pb)


# -- monotonicity -----------------------------------------------------------


class MonotonicityCertificate(Frozen):
    """The case ("A".."E") that certifies, and its details, which == and
    hash skip."""

    __slots__ = _fields = ("case", "details")

    def __init__(self, case: str, details: Optional[dict] = None):
        set_fields(self, case=case, details={} if details is None else details)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.case == other.case

    def __hash__(self):
        return hash((self.case,))


def _kappas(f: FunctionDescriptor, rep: SNRepresentation) -> list:
    """kappa per eigenvalue, None meaning no nonvanishing derivative up to
    the largest block (effectively infinite)."""
    return [kappa(f, lam, max(part)) for lam, part in zip(rep.eigenvalues, rep.partitions)]


def monotonicity_certificate(
    f: FunctionDescriptor, rx: SNRepresentation, ry: SNRepresentation
) -> Optional[MonotonicityCertificate]:
    """Try to certify f(X) below f(Y) in the SN order from X below Y.

    Case I (spectra differ, weakly ordered): A increasing map with the
    difference-sum conditions, B the decreasing analogue, C spectra that f
    collapses onto each other while Y alone keeps nontrivial blocks.
    Case II (equal spectra, strictly ordered block structure): D increasing
    f with first derivative nonvanishing at every shared eigenvalue, E the
    decreasing analogue, which additionally needs entrywise strict block
    dominance so the order survives the spectrum reversal.
    """
    spectral = compare_spectra(rx, ry)
    verdict = compare_nilpotent(rx.partitions, ry.partitions) if spectral is None else spectral
    if verdict not in (SNOVerdict.STRICT_LESS, SNOVerdict.WEAK_LESS):
        raise NotSNOrdered(f"representations compare as {verdict.value}")
    if spectral is not None:
        res = majorization_preserving_check(f, rx.spectral_vector, ry.spectral_vector)
        if res.kind is MajorizationCert.CERTIFIED_INCREASING:
            return MonotonicityCertificate("A")
        if res.kind is MajorizationCert.CERTIFIED_DECREASING:
            return MonotonicityCertificate("B")
        return _try_case_c(f, rx, ry)
    # Case II: spectra equal, nilpotent level strictly below.  Y's eigenvalues
    # join X's: a float one ties X's under eps, and its image must tie too.
    points = rx.eigenvalues + ry.eigenvalues
    d, points = isinstance(f, PolynomialFunction) and numerators(points) or (None, points)
    inc, dec, _ = _monotonicity(f, points, d)
    kx = _kappas(f, rx)
    ky = _kappas(f, ry)
    first_order = all(k == 1 for k in kx) and all(k == 1 for k in ky)
    if inc and first_order:
        return MonotonicityCertificate("D", {"kappa_x": kx, "kappa_y": ky})
    entrywise = len(rx.partitions) == len(ry.partitions) and all(
        dominance_check(px, py) and px != py
        for px, py in zip(rx.partitions, ry.partitions)
    )
    if dec and first_order and entrywise:
        return MonotonicityCertificate("E", {"kappa_x": kx, "kappa_y": ky})
    return None


def _exact_images(f, values) -> Optional[tuple]:
    """(pairs, images): the :func:`scalar.numerators` pairs of the values and
    f's :meth:`PolynomialFunction.exact_images` at them, when f is a
    polynomial and every value is exact; else None."""
    cleared = numerators(values) if isinstance(f, PolynomialFunction) else None
    return cleared and (cleared[1], f.exact_images(*cleared)[1])


def _try_case_c(f, rx, ry) -> Optional[MonotonicityCertificate]:
    if len(rx.eigenvalues) != len(ry.eigenvalues):
        return None
    # compare collapsed spectra with multiplicities, both sorted by image
    cleared = _exact_images(f, rx.eigenvalues + ry.eigenvalues)
    if cleared:
        k = len(rx.eigenvalues)
        same = sorted(rx.repeated(cleared[1][:k])) == sorted(ry.repeated(cleared[1][k:]))
    else:
        cx = sort_desc(rx.repeated([f(v) for v in rx.eigenvalues]))
        cy = sort_desc(ry.repeated([f(v) for v in ry.eigenvalues]))
        same = len(cx) == len(cy) and all(
            cmp_total(a, b) is OrderOutcome.EQUAL for a, b in zip(cx, cy))
    if not same or [sum(p) for p in rx.partitions] != [sum(p) for p in ry.partitions]:
        return None
    kx = _kappas(f, rx)
    ky = _kappas(f, ry)
    flat_x_ok = all(
        k is None or k >= max(part) for k, part in zip(kx, rx.partitions)
    )
    y_first_order = all(k == 1 for k in ky)
    y_nontrivial = any(max(p) > 1 for p in ry.partitions)
    if flat_x_ok and y_first_order and y_nontrivial:
        return MonotonicityCertificate("C", {"kappa_x": kx, "kappa_y": ky})
    return None


def monotonicity_verify_direct(
    f: FunctionDescriptor, rx: SNRepresentation, ry: SNRepresentation
) -> SNOVerdict:
    """Ground truth for any certificate: build both image representations
    and compare them."""
    fx, _ = repr_of_fx(f, rx)
    fy, _ = repr_of_fx(f, ry)
    return compare_sno(fx, fy)


# -- convexity probing -------------------------------------------------------


class ConvexityPoint(Frozen):
    __slots__ = _fields = ("t", "verdict", "greater", "error")

    def __init__(self, t, verdict: Optional[SNOVerdict], greater: bool,
                 error: Optional[str] = None):
        # greater: the mix's image is strictly above the average, so falsified
        set_fields(self, t=t, verdict=verdict, greater=greater, error=error)


class ConvexityReport:
    def __init__(self, points: Optional[list] = None):
        self.points = [] if points is None else points

    @property
    def consistent(self) -> bool:
        return all(
            p.error is None and not p.greater and p.verdict in (
                SNOVerdict.EQUAL, SNOVerdict.WEAK_LESS, SNOVerdict.STRICT_LESS,
            )
            for p in self.points
        )


def convexity_check(
    f: PolynomialFunction, a: Matrix, b: Matrix, ts: Sequence
) -> ConvexityReport:
    """Compare f(t*A + (1-t)*B) with t*f(A) + (1-t)*f(B) under the SN order
    for each mixing weight t.  Inputs must be eigenvalue-accessible
    (triangular or 2x2); failures are recorded per point."""
    report = ConvexityReport()
    one = one_like(a.rows[0][0])
    for t_raw in ts:
        t = as_scalar(t_raw, a.backend)
        comp = one - t
        try:
            mix = a.scale(t) + b.scale(comp)
            rhs = f.eval_matrix(a).scale(t) + f.eval_matrix(b).scale(comp)
            rep_l, rep_r = _image_reprs(f, mix, rhs)
            verdict = compare_sno(rep_l, rep_r)
            greater = False
            if verdict is SNOVerdict.INCOMPARABLE:
                swapped = compare_sno(rep_r, rep_l)
                greater = swapped in (SNOVerdict.STRICT_LESS, SNOVerdict.WEAK_LESS)
            report.points.append(ConvexityPoint(t_raw, verdict, greater))
        except SnorderError as err:
            report.points.append(ConvexityPoint(t_raw, None, False, error=str(err)))
    return report
