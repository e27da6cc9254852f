"""Schur convexity analysis over complex vectors.

Contains the four-case derivative criterion on box domains, a randomized
majorization-based falsifier, the two composition tables for building new
Schur-convex functions, computed from the sign laws of Marshall, Olkin &
Arnold 3.B.1 and 3.B.2 rather than listed row by row, and the averaging
condition the entrywise table requires.
The falsifier decides each trial on integer numerator pairs, by the sort and
verdict of ``majorization.int_majorization``.
"""

from __future__ import annotations

import enum
import random
from itertools import permutations
from typing import Callable, Optional, Sequence

from .errors import GradientUnavailable
from .majorization import Majorization, int_majorization, majorize_check
from .scalar import (
    DEFAULT_EPS,
    Frozen,
    OrderOutcome,
    TotalComplex,
    Value,
    _cmp_raw,
    as_scalar,
    cmp_total,
    from_complex,
    from_numerators,
    one_like,
    set_fields,
)

DEFAULT_SEED = 987143
_SIGN_TOL = 1e-12


class Prop(enum.Enum):
    """A property of a function that the composition tables read and give."""

    INCREASING = "increasing"
    DECREASING = "decreasing"
    SCHUR_CONVEX = "schur_convex"
    SCHUR_CONCAVE = "schur_concave"
    CONVEX_AFFINE = "convex_affine"
    CONCAVE_AFFINE = "concave_affine"


class DomainBox(Frozen):
    """Box constraints on entry differences: for entries within the box,
    0 <= Re(eps) <= c1 and c2 <= Im(eps) <= c3 for the perturbations used in
    the derivative criterion."""

    __slots__ = _fields = ("c1", "c2", "c3")

    def __init__(self, c1: float, c2: float, c3: float):
        set_fields(self, c1=c1, c2=c2, c3=c3)


class SymmetricFunction(Frozen):
    """Symmetric scalar function of n complex variables.

    ``gradient(x, i)`` returns the complex partial derivative df/dx_i.  The
    falsifier reads only ``value``; the derivative criterion needs the
    gradient, and raises GradientUnavailable without one.
    """

    __slots__ = _fields = ("arity", "value", "gradient")

    def __init__(self, arity: int, value: Callable[[Sequence[complex]], complex],
                 gradient: Optional[Callable[[Sequence[complex], int], complex]] = None):
        set_fields(self, arity=arity, value=value, gradient=gradient)

    def partial(self, x: Sequence[complex], i: int) -> complex:
        if self.gradient is None:
            raise GradientUnavailable("the derivative criterion needs a gradient")
        return self.gradient(x, i)


def sum_of_squares(n: int) -> SymmetricFunction:
    return SymmetricFunction(n, lambda x: sum(z * z for z in x), lambda x, i: 2 * x[i])


def negative_sum_of_squares(n: int) -> SymmetricFunction:
    return SymmetricFunction(n, lambda x: -sum(z * z for z in x), lambda x, i: -2 * x[i])


class OstrowskiRecord(Frozen):
    __slots__ = _fields = ("sample", "i", "j", "d_re", "d_im", "case", "ok")

    def __init__(self, sample: int, i: int, j: int, d_re: float, d_im: float, case: int,
                 ok: bool):
        set_fields(self, sample=sample, i=i, j=j, d_re=d_re, d_im=d_im, case=case, ok=ok)


class OstrowskiReport:
    def __init__(self, records: Optional[list] = None):
        self.records = [] if records is None else records

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def failures(self) -> list:
        return [r for r in self.records if not r.ok]


def _sign(v: float) -> int:
    if v > _SIGN_TOL:
        return 1
    if v < -_SIGN_TOL:
        return -1
    return 0


def schur_ostrowski_check(
    f: SymmetricFunction, box: DomainBox, samples: Sequence[Sequence[complex]]
) -> OstrowskiReport:
    """Four-case derivative criterion at each sample point.

    For every ordered pair (i, j) with x_i >= x_j in the total order, the
    signs of DR = Re(df/dx_i - df/dx_j) and DI = Im(df/dx_i - df/dx_j)
    select a case whose inequality involves the box bounds c1, c2, c3.
    """
    report = OstrowskiReport()
    for s_idx, x in enumerate(samples):
        if len(x) != f.arity:
            raise GradientUnavailable(f"sample arity {len(x)} vs declared {f.arity}")
        zs = [from_complex(complex(z)) for z in x]
        point = list(map(complex, x))
        grads = [f.partial(point, i) for i in range(len(x))]
        for i, j in permutations(range(len(x)), 2):
            if cmp_total(zs[i], zs[j]) is OrderOutcome.LESS:
                continue
            diff = grads[i] - grads[j]
            d_re, d_im = diff.real, diff.imag
            if _sign(d_re) >= 0 and _sign(d_im) >= 0:
                case, ok = 1, box.c3 * d_im <= _SIGN_TOL
            elif _sign(d_re) >= 0:
                case, ok = 2, box.c2 * d_im <= _SIGN_TOL
            elif _sign(d_im) >= 0:
                case, ok = 3, box.c1 * d_re >= box.c3 * d_im - _SIGN_TOL
            else:
                case, ok = 4, box.c1 * d_re >= box.c2 * d_im - _SIGN_TOL
            report.records.append(OstrowskiRecord(s_idx, i, j, d_re, d_im, case, ok))
    return report


class Counterexample(Value):
    __slots__ = _fields = ("x", "y", "f_x", "f_y", "trial")
    __hash__ = None

    def __init__(self, x: tuple, y: tuple, f_x: complex, f_y: complex, trial: int):
        set_fields(self, x=x, y=y, f_x=f_x, f_y=f_y, trial=trial)


def _random_majorized_pair(rng: random.Random, n: int, complex_entries: bool):
    """Integer numerators of y and x with x strictly majorized by y, built by
    applying a few convex mixing steps to y.

    Entries are drawn as num/den with den in 1..8: y is held over the common
    denominator 840, x over den = 840 * 16^k after k mixing steps of
    beta = b/16, each of which rescales x by 16.  Returns (x, den, y), x and
    y as lists of (re, im) numerators; rng is drawn in the same order as by
    exact arithmetic on Fractions, so each seed gives the same pairs.  Each
    bound is one rng._randbelow draw, as randint(a, b) is a + _randbelow(b -
    a + 1); so is each index of sample(range(n), 2) for n <= 21, where its
    pool puts n - 1 in place of the first index drawn."""
    below = rng._randbelow

    def draw():
        return (below(81) - 40) * (840 // (1 + below(8)))

    y = [(draw(), draw() if complex_entries else 0) for _ in range(n)]
    x, den = y, 840
    for _ in range(1 + below(n)):
        if n < 2:
            break
        a, k = (below(n), below(n - 1)) if n <= 21 else rng.sample(range(n), 2)
        i, j = sorted((a, n - 1 if k == a else k))
        b = below(17)
        (ri, ii), (rj, ij) = x[i], x[j]
        x = [(16 * r, 16 * m) for r, m in x]
        x[i] = (b * ri + (16 - b) * rj, b * ii + (16 - b) * ij)
        x[j] = (b * rj + (16 - b) * ri, b * ij + (16 - b) * ii)
        den *= 16
    return x, den, y


def schur_convex_falsify(
    f: SymmetricFunction,
    n: int,
    trials: int = 10_000,
    seed: int = DEFAULT_SEED,
    complex_entries: bool = False,
) -> Optional[Counterexample]:
    """Search for x strictly majorized by y with f(x) > f(y) in the total
    order.  Returns None when no counterexample to Schur convexity is found.

    Each trial stays on the integer numerators it draws: y is scaled onto
    x's denominator and :func:`majorization.int_majorization` gives the
    verdict; f is evaluated on complex(r / den, m / den), which is the
    correctly rounded value that TotalComplex.to_complex gives, and compared
    as cmp_total compares floats.  Exact TotalComplex vectors are built only
    for the returned Counterexample."""
    rng = random.Random(seed)
    for trial in range(trials):
        x, den, y = _random_majorized_pair(rng, n, complex_entries)
        s = den // 840
        if int_majorization(x, [(s * r, s * m) for r, m in y])[0] is not Majorization.STRICT:
            continue
        fx = complex(f.value([complex(r / den, m / den) for r, m in x]))
        fy = complex(f.value([complex(r / 840, m / 840) for r, m in y]))
        if (_cmp_raw(fx.real, fy.real, DEFAULT_EPS)
                or _cmp_raw(fx.imag, fy.imag, DEFAULT_EPS)) > 0:
            return Counterexample(from_numerators(den, x), from_numerators(840, y), fx, fy, trial)
    return None


# -- composition tables ---------------------------------------------------

# Each property as its (sign -1, sign +1) pair.
_MONOTONE = (Prop.DECREASING, Prop.INCREASING)
_SCHUR = (Prop.SCHUR_CONCAVE, Prop.SCHUR_CONVEX)
_CURVATURE = (Prop.CONCAVE_AFFINE, Prop.CONVEX_AFFINE)


def _signs(props, pair) -> list:
    """The signs props claims of a pair: both for a set that claims both
    directions, as a constant or sum(x_i) does, and both laws then apply."""
    return [s for s, p in zip((-1, 1), pair) if p in props]


def _composed(g_props, h_props, schur_signs):
    """The Schur directions of schur_signs and the monotone signs of g times
    those of h; None without a Schur direction."""
    if not schur_signs:
        return None
    mono = [sg * sm for sg in _signs(g_props, _MONOTONE) for sm in _signs(h_props, _MONOTONE)]
    return frozenset([_SCHUR[s > 0] for s in schur_signs] + [_MONOTONE[s > 0] for s in mono])


def compose_table1(g_props, h_props):
    """Table 1, the outer-monotone rule (Marshall, Olkin & Arnold,
    Inequalities, 3.B.1): g(h(x)), for g of one variable with monotone sign
    sg and h with Schur sign sh, has Schur sign sg * sh, and monotone sign
    sg * sm when h has monotone sign sm; None without a Schur sign.  Signs
    are +1 for increasing, Schur-convex, convex-affine; -1 for opposites."""
    return _composed(g_props, h_props, [sg * sh for sg in _signs(g_props, _MONOTONE)
                                        for sh in _signs(h_props, _SCHUR)])


def compose_table2(g_props, h_props, cdm_verified: bool):
    """Table 2, the entrywise rule (ibid., 3.B.2): g(h(x_1), ..., h(x_n))
    keeps each Schur sign ss of g that equals g's monotone sign times h's
    curvature sign, with monotone signs as in Table 1; None without such
    an ss, and unless cdm_verified says h passes the averaging condition
    (:func:`cdm_condition_check`)."""
    if not cdm_verified:
        return None
    signs = {sg * sc for sg in _signs(g_props, _MONOTONE) for sc in _signs(h_props, _CURVATURE)}
    return _composed(g_props, h_props, [ss for ss in _signs(g_props, _SCHUR) if ss in signs])


def cdm_condition_check(
    h: Callable[[TotalComplex], TotalComplex],
    y1: TotalComplex,
    y2: TotalComplex,
    alpha,
) -> bool:
    """The averaging condition that Table 2 (:func:`compose_table2`) needs
    of h: the alpha-mix of (h(y1), h(y2)) with its swap must be strictly
    majorized by (h(y1), h(y2))."""
    h1, h2 = h(y1), h(y2)
    a = as_scalar(alpha, h1.backend)
    comp = one_like(a) - a
    mixed = (a * h1 + comp * h2, a * h2 + comp * h1)
    return majorize_check(mixed, (h1, h2)) is Majorization.STRICT
