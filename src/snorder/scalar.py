"""Complex scalars under a lexicographic total order (real part first,
imaginary part as tie-break), with exact-rational and float backends.

The order is a total order on the complex plane but it is *not* an ordered
field: multiplying both sides of an inequality by the same complex number
need not preserve it.  The predicates ``mul_preserves_order``,
``div_preserves_order`` and ``product_nonneg`` give exact case analyses of
when the order survives those operations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Union

from .errors import BackendMismatch, DivisionByZero, OrderPreconditionFailed

EXACT = "exact"
FLOAT = "float"
DEFAULT_EPS = 1e-9

RationalLike = Union[int, str, Fraction]


class OrderOutcome(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def _cmp_raw(a, b, eps: float) -> int:
    """Three-way comparison of two real components under tolerance eps."""
    d = a - b
    if d > eps:
        return 1
    if d < -eps:
        return -1
    return 0


@dataclass(frozen=True)
class TotalComplex:
    """A complex number tagged with its numeric backend.

    ``re``/``im`` are Fractions for the exact backend and floats otherwise.
    Equality of float-backed values is tolerance-based (``eps``), so float
    scalars are compared through :func:`cmp_total`, never via ``==``.
    """

    re: object
    im: object
    backend: str = EXACT
    eps: float = 0.0

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(backend: str = EXACT, eps: float = DEFAULT_EPS) -> "TotalComplex":
        if backend == EXACT:
            return exact(0, 0)
        return approx(0.0, 0.0, eps)

    # -- arithmetic --------------------------------------------------

    def _peer(self, other: "TotalComplex") -> float:
        if not isinstance(other, TotalComplex):
            raise TypeError(f"expected TotalComplex, got {type(other)!r}")
        if self.backend != other.backend:
            raise BackendMismatch(f"{self.backend} vs {other.backend}")
        return max(self.eps, other.eps)

    def _wrap(self, re, im, eps) -> "TotalComplex":
        return TotalComplex(re, im, self.backend, eps)

    def __add__(self, other):
        eps = self._peer(other)
        return self._wrap(self.re + other.re, self.im + other.im, eps)

    def __sub__(self, other):
        eps = self._peer(other)
        return self._wrap(self.re - other.re, self.im - other.im, eps)

    def __neg__(self):
        return self._wrap(-self.re, -self.im, self.eps)

    def __mul__(self, other):
        eps = self._peer(other)
        return self._wrap(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
            eps,
        )

    def __truediv__(self, other):
        eps = self._peer(other)
        if other.is_zero():
            raise DivisionByZero("division by zero scalar")
        rho = other.re * other.re + other.im * other.im
        return self._wrap(
            (self.re * other.re + self.im * other.im) / rho,
            (self.im * other.re - self.re * other.im) / rho,
            eps,
        )

    def conjugate(self) -> "TotalComplex":
        return self._wrap(self.re, -self.im, self.eps)

    def reciprocal(self) -> "TotalComplex":
        if self.is_zero():
            raise DivisionByZero("reciprocal of zero")
        rho = self.re * self.re + self.im * self.im
        return self._wrap(self.re / rho, -self.im / rho, self.eps)

    def scale_rational(self, c) -> "TotalComplex":
        """Multiply by a real rational/float constant."""
        if self.backend == EXACT:
            c = Fraction(c)
        return self._wrap(self.re * c, self.im * c, self.eps)

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        if self.backend == EXACT:
            return self.re == 0 and self.im == 0
        return abs(self.re) <= self.eps and abs(self.im) <= self.eps

    def is_real(self) -> bool:
        if self.backend == EXACT:
            return self.im == 0
        return abs(self.im) <= self.eps

    # -- conversions -------------------------------------------------

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def to_float_backend(self, eps: float = DEFAULT_EPS) -> "TotalComplex":
        return approx(float(self.re), float(self.im), eps)

    # -- ordering sugar ----------------------------------------------

    def __lt__(self, other):
        return cmp_total(self, other) is OrderOutcome.LESS

    def __le__(self, other):
        return cmp_total(self, other) is not OrderOutcome.GREATER

    def __gt__(self, other):
        return cmp_total(self, other) is OrderOutcome.GREATER

    def __ge__(self, other):
        return cmp_total(self, other) is not OrderOutcome.LESS

    def __repr__(self):
        return f"TotalComplex({self.re}, {self.im}, {self.backend})"


def exact(re: RationalLike, im: RationalLike = 0) -> TotalComplex:
    return TotalComplex(Fraction(re), Fraction(im), EXACT, 0.0)


def approx(re: float, im: float = 0.0, eps: float = DEFAULT_EPS) -> TotalComplex:
    return TotalComplex(float(re), float(im), FLOAT, eps)


def from_complex(z: complex, eps: float = DEFAULT_EPS) -> TotalComplex:
    return approx(z.real, z.imag, eps)


def cmp_total(a: TotalComplex, b: TotalComplex) -> OrderOutcome:
    """Lexicographic comparison: real parts first, imaginary tie-break."""
    eps = a._peer(b)
    c = _cmp_raw(a.re, b.re, eps)
    if c == 0:
        c = _cmp_raw(a.im, b.im, eps)
    return OrderOutcome(c)


def sort_desc(values: Iterable[TotalComplex]) -> tuple:
    """Stable non-increasing sort under the total order."""
    return tuple(sorted(values, key=cmp_to_key(lambda a, b: cmp_total(b, a).value)))


def _require_not_greater(z1: TotalComplex, z2: TotalComplex) -> OrderOutcome:
    c = cmp_total(z1, z2)
    if c is OrderOutcome.GREATER:
        raise OrderPreconditionFailed("z1 must not exceed z2 in the total order")
    return c


def mul_preserves_order(z1: TotalComplex, z2: TotalComplex, z3: TotalComplex) -> bool:
    """Given z1 <= z2, does z1*z3 <= z2*z3 hold?

    Closed-form case analysis; cross-multiplied so no division is needed.
    """
    c = _require_not_greater(z1, z2)
    if c is OrderOutcome.EQUAL:
        return True
    eps = max(z1.eps, z2.eps, z3.eps)
    x1, y1, x2, y2, x3, y3 = z1.re, z1.im, z2.re, z2.im, z3.re, z3.im
    if _cmp_raw(x1, x2, eps) < 0:
        # threshold: (y2-y1)*y3 / (x2-x1) vs x3, cross-multiplied by x2-x1 > 0
        lhs = (y2 - y1) * y3
        rhs = x3 * (x2 - x1)
        c_re = _cmp_raw(lhs, rhs, eps)
        if c_re < 0:
            return True
        if c_re == 0:
            return _cmp_raw((y1 - y2) * x3, y3 * (x2 - x1), eps) <= 0
        return False
    # x1 == x2, y1 < y2: difference is (y2-y1)*i times z3
    c_y3 = _cmp_raw(y3, 0, eps)
    if c_y3 < 0:
        return True
    if c_y3 == 0:
        return _cmp_raw(x3, 0, eps) >= 0
    return False


def div_preserves_order(z1: TotalComplex, z2: TotalComplex, z3: TotalComplex) -> bool:
    """Given z1 <= z2 and z3 != 0, does z1/z3 <= z2/z3 hold?"""
    if z3.is_zero():
        raise DivisionByZero("z3 must be nonzero")
    c = _require_not_greater(z1, z2)
    if c is OrderOutcome.EQUAL:
        return True
    eps = max(z1.eps, z2.eps, z3.eps)
    x1, y1, x2, y2, x3, y3 = z1.re, z1.im, z2.re, z2.im, z3.re, z3.im
    if _cmp_raw(x1, x2, eps) < 0:
        lhs = (y1 - y2) * y3
        rhs = x3 * (x2 - x1)
        c_re = _cmp_raw(lhs, rhs, eps)
        if c_re < 0:
            return True
        if c_re == 0:
            return _cmp_raw((y2 - y1) * x3, y3 * (x2 - x1), eps) >= 0
        return False
    c_y3 = _cmp_raw(y3, 0, eps)
    if c_y3 > 0:
        return True
    if c_y3 == 0:
        return _cmp_raw(x3, 0, eps) >= 0
    return False


def recip_cmp(z1: TotalComplex, z2: TotalComplex) -> OrderOutcome:
    """Compare 1/z1 and 1/z2 without a precondition on z1 vs z2."""
    if z1.is_zero() or z2.is_zero():
        raise DivisionByZero("reciprocal comparison requires nonzero operands")
    return cmp_total(z1.reciprocal(), z2.reciprocal())


def product_nonneg(z1: TotalComplex, z2: TotalComplex) -> bool:
    """Given 0 <= z1 and 0 <= z2, is 0 <= z1*z2?

    Needed because the order is not compatible with multiplication: two
    nonnegative complex numbers can have a negative product (e.g. i*i = -1).
    """
    zero = TotalComplex.zero(z1.backend, max(z1.eps, z2.eps) or DEFAULT_EPS)
    if z1.backend != z2.backend:
        raise BackendMismatch(f"{z1.backend} vs {z2.backend}")
    if cmp_total(z1, zero) is OrderOutcome.LESS or cmp_total(z2, zero) is OrderOutcome.LESS:
        raise OrderPreconditionFailed("both operands must be nonnegative")
    eps = max(z1.eps, z2.eps)
    r = z1.re * z2.re - z1.im * z2.im
    s = z1.re * z2.im + z2.re * z1.im
    c_r = _cmp_raw(r, 0, eps)
    if c_r > 0:
        return True
    if c_r == 0:
        return _cmp_raw(s, 0, eps) >= 0
    return False
