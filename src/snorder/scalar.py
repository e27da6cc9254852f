"""Complex scalars under a lexicographic total order (real part first,
imaginary part as tie-break), with exact-rational and float backends.

The order is a total order on the complex plane but it is *not* an ordered
field: multiplying both sides of an inequality by the same complex number
need not preserve it.  The predicates ``mul_preserves_order``,
``div_preserves_order`` and ``product_nonneg`` give exact case analyses of
when the order survives those operations.

One ordering rule serves both backends: exact values sort on their
:func:`numerators` pairs, floats on the exact key with real near-ties settled
by :func:`cmp_total`; eps acts only there, in merges and in verdicts.
:func:`sort_desc_items` is the one sort, so no result depends on input order.

Exact values compare without forming a difference, and exact arithmetic
skips the terms of a zero imaginary part; the results are the same values.
Floats keep the full formulas, bit for bit (signed zeros included).  Exact
kernels skip this class altogether: :func:`numerators` is the one place
that turns exact values into integers, and its docstring states the format.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Union

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
    if not eps:
        return (a > b) - (a < b)
    d = a - b
    if d > eps:
        return 1
    if d < -eps:
        return -1
    return 0


# The value classes of snorder are written by hand: importing dataclasses
# (and with it inspect, ast, dis and tokenize) costs more than a tenth of a
# short `sno` run.  Each declares __slots__, so no instance has a __dict__,
# and _fields, its fields in the order of its __init__'s arguments, from which
# Frozen and Value derive repr, copy, pickle, == and hash.  __init__ sets the
# fields by set_field, and a value computed on first read is kept by
# set_field in a slot of its own.
set_field = object.__setattr__


def set_fields(obj, **fields):
    """set_field for each field, in order: the one line of an __init__ that
    no hot loop runs."""
    for name, value in fields.items():
        set_field(obj, name, value)


class Frozen:
    """Base of the value classes whose fields are fixed once built: their
    repr, and a copy or pickle that rebuilds them, read the _fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Value(Frozen):
    """A Frozen class whose instances compare and hash by their fields."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


class TotalComplex(Frozen):
    """A complex number whose component type is its numeric backend.

    ``re``/``im`` are both Fractions for the exact backend and both floats
    for the float backend; build values with :func:`exact` and
    :func:`approx`, which coerce.  Exact values compare exactly; float values
    compare with the fixed tolerance ``DEFAULT_EPS``, so float scalars are
    compared through :func:`cmp_total`, never via ``==``.  No ``<``: that
    comparison is not transitive, so sort with :func:`sort_desc`.
    """

    __slots__ = ("re", "im", "_hash")
    _fields = ("re", "im")

    def __init__(self, re, im):
        set_field(self, "re", re)
        set_field(self, "im", im)

    @property
    def backend(self) -> str:
        return FLOAT if type(self.re) is float else EXACT

    def __eq__(self, other):
        # Fraction(1) == 1.0, so equal components alone would let an exact
        # value equal a float one.
        if not isinstance(other, TotalComplex):
            return NotImplemented
        return type(self.re) is type(other.re) and self.re == other.re and self.im == other.im

    def __hash__(self):
        # Hashed once per value: the Taylor memo hashes each eigenvalue on
        # every call, and a Fraction hash costs a modular inverse.
        try:
            return self._hash
        except AttributeError:
            set_field(self, "_hash", hash((self.re, self.im)))
            return self._hash

    # -- arithmetic --------------------------------------------------

    def _peer(self, other: "TotalComplex"):
        """The comparison tolerance shared with other: 0 for exact, DEFAULT_EPS
        for float.  Raises BackendMismatch when the backends differ."""
        if not isinstance(other, TotalComplex):
            raise TypeError(f"expected TotalComplex, got {type(other)!r}")
        t = type(self.re)
        if t is not type(other.re):
            raise BackendMismatch(f"{self.backend} vs {other.backend}")
        return DEFAULT_EPS if t is float else 0

    def __add__(self, other):
        if self._peer(other) or (self.im and other.im):
            return TotalComplex(self.re + other.re, self.im + other.im)
        return TotalComplex(self.re + other.re, self.im or other.im)  # one is exact 0

    def __sub__(self, other):
        if self._peer(other) or other.im:
            return TotalComplex(self.re - other.re, self.im - other.im)
        return TotalComplex(self.re - other.re, self.im)

    def __neg__(self):
        return TotalComplex(-self.re, -self.im)

    def __mul__(self, other):
        if not self._peer(other):
            if not other.im:
                return TotalComplex(self.re * other.re, self.im and self.im * other.re)
            if not self.im:
                return TotalComplex(self.re * other.re, self.re * other.im)
        return TotalComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        self._peer(other)
        if other.is_zero():
            raise DivisionByZero("division by zero scalar")
        rho = other.re * other.re + other.im * other.im
        return TotalComplex(
            (self.re * other.re + self.im * other.im) / rho,
            (self.im * other.re - self.re * other.im) / rho,
        )

    def conjugate(self) -> "TotalComplex":
        return TotalComplex(self.re, -self.im)

    def reciprocal(self) -> "TotalComplex":
        if self.is_zero():
            raise DivisionByZero("reciprocal of zero")
        rho = self.re * self.re + self.im * self.im
        return TotalComplex(self.re / rho, -self.im / rho)

    def scale_rational(self, c) -> "TotalComplex":
        """Multiply by a real rational/float constant."""
        if self.backend == EXACT:
            c = Fraction(c)
        return TotalComplex(self.re * c, self.im * c)

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        if self.backend == EXACT:
            return self.re == 0 and self.im == 0
        return abs(self.re) <= DEFAULT_EPS and abs(self.im) <= DEFAULT_EPS

    def is_real(self) -> bool:
        if self.backend == EXACT:
            return self.im == 0
        return abs(self.im) <= DEFAULT_EPS

    # -- conversions -------------------------------------------------

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def to_float_backend(self) -> "TotalComplex":
        return approx(float(self.re), float(self.im))

    def __repr__(self):
        return f"TotalComplex({self.re}, {self.im}, {self.backend})"


def exact(re: RationalLike, im: RationalLike = 0) -> TotalComplex:
    return TotalComplex(Fraction(re), Fraction(im))


def approx(re: float, im: float = 0.0) -> TotalComplex:
    return TotalComplex(float(re), float(im))


def from_complex(z: complex) -> TotalComplex:
    return approx(z.real, z.imag)


def as_scalar(t, backend: str) -> TotalComplex:
    """t itself when it is a TotalComplex, else the real number t in backend."""
    if isinstance(t, TotalComplex):
        return t
    return exact(t) if backend == EXACT else approx(t)


def numerators(values: Iterable[TotalComplex]) -> Optional[tuple]:
    """(d, pairs): exact values as (re, im) integer numerator pairs over d, the
    least common multiple of all their denominators (1 for no values); None
    when any value is not exact.

    Every exact kernel reads its integers here: majorization's prefix sums,
    the rank chains of structure recovery and the Taylor shift.  A common
    positive denominator keeps both the order and the ties, so the tuple
    order of the pairs is the lexicographic total order of the values, and
    sums and products of the pairs are d and d*d times those of the values.
    """
    parts = []
    for z in values:
        if type(z.re) is not Fraction:
            return None
        parts += z.re.as_integer_ratio(), z.im.as_integer_ratio()
    d = lcm(*[b for _, b in parts])
    ints = [a * (d // b) for a, b in parts]
    return d, list(zip(ints[::2], ints[1::2]))


def from_numerators(d: int, pairs: Iterable[tuple]) -> tuple:
    """The exact values (re + i im) / d of (re, im) integer pairs, for any
    positive d: the inverse of :func:`numerators`."""
    return tuple(TotalComplex(Fraction(a, d), Fraction(b, d)) for a, b in pairs)


def common_denominator(*ds: int) -> tuple:
    """(d, [d // d_k]): d is the lcm of the least denominators d_k of some
    :func:`numerators` forms, and their pairs times d // d_k are the pairs of
    :func:`numerators` of all their values at once."""
    d = lcm(*ds)
    return d, [d // k for k in ds]


def zero_like(z: TotalComplex) -> TotalComplex:
    """Zero in the backend of z."""
    t = type(z.re)
    return TotalComplex(t(0), t(0))


def one_like(z: TotalComplex) -> TotalComplex:
    """One in the backend of z."""
    t = type(z.re)
    return TotalComplex(t(1), t(0))


def cmp_total(a: TotalComplex, b: TotalComplex) -> OrderOutcome:
    """Lexicographic comparison: real parts first, imaginary tie-break."""
    eps = a._peer(b)
    c = _cmp_raw(a.re, b.re, eps)
    if c == 0:
        c = _cmp_raw(a.im, b.im, eps)
    return OrderOutcome(c)


def order_key(z: TotalComplex) -> tuple:
    """The exact sort key (re, im) of the total order, with no tolerance."""
    return z.re, z.im


def sort_desc_items(items: Iterable[tuple]) -> list:
    """Tuples in non-increasing order of their first element, a TotalComplex,
    whatever their input order: exact values sorted on their numerators pairs,
    floats on the exact key (mixed backends raise BackendMismatch), then each
    float run of real parts chained within eps reordered by cmp_total losses."""
    items = list(items)
    cleared = numerators(item[0] for item in items)
    if cleared is not None:
        return [i for _, i in sorted(zip(cleared[1], items), key=lambda p: p[0], reverse=True)]
    out = sorted(items, key=lambda item: order_key(item[0]), reverse=True)
    for a, b in zip(out, out[1:]):
        a[0]._peer(b[0])  # raises BackendMismatch on mixed backends
    cuts = [k for k in range(1, len(out))
            if _cmp_raw(out[k - 1][0].re, out[k][0].re, DEFAULT_EPS)]
    for i, j in zip([0] + cuts, cuts + [len(out)]):
        run = [item[0] for item in out[i:j]]
        if run[0].re != run[-1].re:
            losses = [sum(cmp_total(v, w) is OrderOutcome.LESS for w in run) for v in run]
            out[i:j] = [out[i + k] for k in sorted(range(j - i), key=losses.__getitem__)]
    return out


def sort_desc(values: Iterable[TotalComplex]) -> tuple:
    """Stable non-increasing sort by :func:`sort_desc_items`; wherever cmp_total
    is transitive on the values, the result is non-increasing under it."""
    return tuple(item[0] for item in sort_desc_items((z,) for z in values))


def _require_not_greater(z1: TotalComplex, z2: TotalComplex) -> OrderOutcome:
    c = cmp_total(z1, z2)
    if c is OrderOutcome.GREATER:
        raise OrderPreconditionFailed("z1 must not exceed z2 in the total order")
    return c


def mul_preserves_order(z1: TotalComplex, z2: TotalComplex, z3: TotalComplex) -> bool:
    """Given z1 <= z2, does z1*z3 <= z2*z3 hold?

    Closed-form case analysis; cross-multiplied so no division is needed.
    """
    eps = z1._peer(z3)
    c = _require_not_greater(z1, z2)
    if c is OrderOutcome.EQUAL:
        return True
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
    """Given z1 <= z2 and z3 != 0, does z1/z3 <= z2/z3 hold?  Dividing by z3
    multiplies by conj(z3) and then by the positive real 1/|z3|^2."""
    z1._peer(z3)
    if z3.is_zero():
        raise DivisionByZero("z3 must be nonzero")
    return mul_preserves_order(z1, z2, z3.conjugate())


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
    eps = z1._peer(z2)
    zero = zero_like(z1)
    if cmp_total(z1, zero) is OrderOutcome.LESS or cmp_total(z2, zero) is OrderOutcome.LESS:
        raise OrderPreconditionFailed("both operands must be nonnegative")
    r = z1.re * z2.re - z1.im * z2.im
    s = z1.re * z2.im + z2.re * z1.im
    c_r = _cmp_raw(r, 0, eps)
    if c_r > 0:
        return True
    if c_r == 0:
        return _cmp_raw(s, 0, eps) >= 0
    return False
