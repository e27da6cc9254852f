"""Jordan structure of matrix functions.

Everything here is read off one object per (f, lambda): the Taylor
coefficients f^(q)(lambda)/q!, which `taylor` returns for all q at once
(a Taylor shift of the coefficients for polynomials, the derivative
oracle for analytic functions).  At an exact point a bounded memo,
:func:`_expansion`, holds per (f, lambda) the whole shift, computed once,
as the integer pairs the shift computes, with f(lambda) as a value, in
tuples no reader can change; exact f(J) blocks and repr_of_fx's kappa and
grouping read the integers, and f(J) holds no Fraction entry.
`PolynomialFunction.exact_images` evaluates f at many exact points at once,
outside the memo, for the order certificates.  Evaluating f on a Jordan
block J_n(lambda) gives the upper triangular Toeplitz matrix whose q-th
superdiagonal is the q-th coefficient, and the block structure of f(X)
depends only on kappa, the first q >= 1 whose coefficient is nonzero:
every block of size n splits into kappa nearly-equal pieces (ceil(n/kappa)
and floor(n/kappa)).  :func:`kappa` is the one routine that finds it.
This module provides the split in closed form, the per-eigenvalue
refinement, the representation-level map f(X) together with the
prefix-sum gap vectors it induces, the gaps between the partitions of two
such maps (gdod_f_g), and the explicit f(J) that structure recovery checks
it against, laid out by :func:`linalg.toeplitz_rows` from one first row per
eigenvalue.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Callable, Optional, Sequence, Union

from .errors import IncomparableNilpotent, KappaNotFound, OutsideAnalyticityRadius
from .linalg import Matrix, toeplitz_rows
from .partitions import Partition, as_partition, merge_desc, prefix_gaps
from .scalar import (
    EXACT, TotalComplex, Value, approx, common_denominator, exact, from_numerators, numerators,
    set_field, set_fields, zero_like,
)
from .snrepr import SNRepresentation, merge_equal, merge_keyed

DERIVATIVE_EPS = 1e-10
# (f, lambda) pairs whose exact Taylor shift is kept: f(lambda), eta and the
# f(J) blocks of one f at up to 16 eigenvalues, without holding many
# one-off points.
_SHIFT_MEMO_SIZE = 16


class PolynomialFunction(Value):
    """Polynomial with total-complex coefficients, ascending by degree.

    Taylor coefficients are exact for exact-backend coefficients.
    """

    __slots__ = ("coefficients", "_hash", "_cleared")  # the last two filled on first use
    _fields = ("coefficients",)

    def __init__(self, coefficients: tuple):
        set_field(self, "coefficients", coefficients)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __hash__(self):
        # Hashed once per polynomial: the Taylor memo hashes f on every call.
        try:
            return self._hash
        except AttributeError:
            set_field(self, "_hash", hash(self.coefficients))
            return self._hash

    def _integral(self) -> tuple:
        """(D, pairs): the :func:`scalar.numerators` of the coefficients."""
        try:
            cleared = self._cleared
        except AttributeError:
            cleared = numerators(self.coefficients)
            set_field(self, "_cleared", cleared)
        if cleared is None:
            raise TypeError("float coefficients cannot evaluate at exact points")
        return cleared

    def taylor(self, lam: TotalComplex, n: int) -> list:
        """f^(q)(lam)/q! for q < n, as a fresh list; zero past the degree.  At
        exact points they are built from the pairs of the expansion that
        :func:`_expansion` holds for (f, lam); so f(lam), kappa and
        f(J_n(lam)) share one expansion.  Float points shift afresh, every
        call."""
        if lam.backend == EXACT:
            den, pairs, _ = _expansion(self, lam)
            out = list(from_numerators(den, pairs[:n]))
        else:
            out = [TotalComplex(a, b) for a, b in self._shift(lam)[1][:n]]
        if n > len(out):
            out += [zero_like(lam)] * (n - len(out))
        return out

    def _shift(self, lam: TotalComplex) -> tuple:
        """(den, pairs): f^(q)(lam)/q! = (re + i im) / den for the (re, im)
        pairs, q <= degree, by a Taylor shift (repeated synthetic division)
        of the coefficients to lam; den is 1 at float points.  Pass q leaves
        coefficient q final.

        At exact points the shift runs on Gaussian integers: with
        lam = L / d and the coefficients c_k = C_k / D, both read from
        :func:`scalar.numerators` (D and the C_k once per polynomial), the
        scaled coefficients C_k d^(degree - k) are integers, shifting them by
        L gives T_q = D d^(degree - q) f^(q)(lam)/q!, and the pairs are
        T_q d^q over den = D d^degree."""
        deg = self.degree
        if lam.backend == EXACT:
            big_d, pairs = self._integral()
            d, [(lr, li)] = numerators((lam,))
            ws = [d ** (deg - k) for k in range(deg + 1)]
            re = [r * w for (r, _), w in zip(pairs, ws)]
            im = [m * w for (_, m), w in zip(pairs, ws)]
        else:
            big_d, ws, lr, li = 1, [1] * (deg + 1), lam.re, lam.im
            re = [float(c.re) for c in self.coefficients]
            im = [float(c.im) for c in self.coefficients]
        for i in range(deg):
            for k in range(deg - 1, i - 1, -1):
                r, s = re[k + 1], im[k + 1]
                re[k] += lr * r - li * s
                im[k] += lr * s + li * r
        return big_d * ws[0], [(re[q] * ws[deg - q], im[q] * ws[deg - q])
                               for q in range(deg + 1)]

    def exact_images(self, d: int, points: Sequence[tuple]) -> tuple:
        """(den, pairs): f at the points L / d of the :func:`scalar.numerators`
        pairs L, as pairs over den = D d^degree, by Horner's rule on the
        Gaussian integers C_k d^(degree - k) of :meth:`_shift`, with no memo.
        One den keeps the tuple order of the pairs the total order.  Float
        coefficients raise the TypeError that f(lam) raises."""
        big_d, pairs = self._integral()
        deg = self.degree
        scaled = [(r * d ** (deg - k), m * d ** (deg - k)) for k, (r, m) in enumerate(pairs)]
        return big_d * d ** deg, [_horner(scaled, lr, li) for lr, li in points]

    def __call__(self, lam: TotalComplex) -> TotalComplex:
        """f(lam): the :func:`_expansion` memo's, or one Horner pass at floats."""
        if lam.backend == EXACT:
            return _expansion(self, lam)[2]
        floats = [(float(c.re), float(c.im)) for c in self.coefficients]
        return TotalComplex(*_horner(floats, lam.re, lam.im))

    def eval_matrix(self, x: Matrix) -> Matrix:
        """f(X) by Horner's rule in matrix arithmetic."""
        ident = Matrix.identity(x.shape[0], x.backend)
        top, *rest = [c if c.backend == x.backend else c.to_float_backend()
                      for c in reversed(self.coefficients)]
        result = ident.scale(top)
        for c in rest:
            result = result @ x + ident.scale(c)
        return result


def _horner(coefficients: Sequence[tuple], lr, li) -> tuple:
    """Horner's rule: the (re, im) pair of the ascending (re, im) coefficient
    pairs at the point lr + i li."""
    ar, ai = coefficients[-1]
    for cr, ci in coefficients[-2::-1]:
        ar, ai = ar * lr - ai * li + cr, ar * li + ai * lr + ci
    return ar, ai


@lru_cache(maxsize=_SHIFT_MEMO_SIZE)
def _expansion(f: PolynomialFunction, lam: TotalComplex) -> tuple:
    """(den, pairs, f(lam)): the whole Taylor shift of f to the exact point
    lam, as a tuple of integer pairs over den, and its head as a value.  The
    memo keys on exact values (TotalComplex.__eq__ compares backends too)."""
    den, pairs = f._shift(lam)
    return den, tuple(pairs), from_numerators(den, pairs[:1])[0]


class OracleFunction(Value):
    """Float-only function given by a derivative oracle (lam, order) -> complex."""

    __slots__ = _fields = ("name", "derivatives", "radius")

    def __init__(self, name: str, derivatives: Callable[[complex, int], complex],
                 radius: float = math.inf):
        set_fields(self, name=name, derivatives=derivatives, radius=radius)

    def _inside(self, lam: TotalComplex) -> complex:
        """lam as a complex number, refused outside the radius."""
        z = lam.to_complex()
        if abs(z) >= self.radius:
            raise OutsideAnalyticityRadius(f"|lambda| = {abs(z):.6g} >= radius {self.radius:.6g}")
        return z

    def taylor(self, lam: TotalComplex, n: int) -> list:
        """f^(q)(lam)/q! for q < n; lam must lie inside the radius."""
        z = self._inside(lam)
        out = []
        for q in range(n):
            v = self.derivatives(z, q) / math.factorial(q)
            out.append(approx(v.real, v.imag))
        return out

    def __call__(self, lam: TotalComplex) -> TotalComplex:
        """f(lam), inside the radius as taylor requires, with the oracle's
        bits: no division by 0! that would turn a -0.0 part into 0.0."""
        z = self.derivatives(self._inside(lam), 0)
        return approx(z.real, z.imag)


FunctionDescriptor = Union[PolynomialFunction, OracleFunction]


def poly(coeffs: Sequence, backend: str = EXACT) -> PolynomialFunction:
    """Convenience constructor from ints/Fractions/complex/TotalComplex."""
    out = []
    for c in coeffs:
        if isinstance(c, TotalComplex):
            out.append(c)
        elif backend == EXACT:
            if isinstance(c, complex):
                raise TypeError("exact polynomials need rational coefficients")
            out.append(exact(Fraction(c)))
        else:
            z = complex(c)
            out.append(approx(z.real, z.imag))
    return PolynomialFunction(tuple(out))


NAMED_ORACLES = {
    "exp": lambda z, q: cmath.exp(z),
    "sin": lambda z, q: cmath.sin(z + q * math.pi / 2),
    "cos": lambda z, q: cmath.cos(z + q * math.pi / 2),
}


def named_oracle(name: str) -> OracleFunction:
    try:
        fn = NAMED_ORACLES[name]
    except KeyError:
        raise KeyError(f"unknown function oracle {name!r}; have {sorted(NAMED_ORACLES)}")
    return OracleFunction(name, fn)


def kappa(f: FunctionDescriptor, lam: TotalComplex, highest: int) -> Optional[int]:
    """The first order q in 1..highest with f^(q)(lam) != 0, or None when
    there is none (f locally constant as far as blocks of size highest see).
    An exact point of a polynomial reads the first nonzero integer pair of
    its held expansion (zero past the degree); any other point tests
    taylor's values, |f^(q)(lam)| = q! |t[q]| > DERIVATIVE_EPS."""
    if isinstance(f, PolynomialFunction) and lam.backend == EXACT:
        pairs = _expansion(f, lam)[1]
        return next((q for q in range(1, min(len(pairs), highest + 1)) if pairs[q] != (0, 0)), None)
    t = f.taylor(lam, highest + 1)
    return next((q for q in range(1, highest + 1)
                 if abs(t[q].to_complex()) * math.factorial(q) > DERIVATIVE_EPS), None)


def derivative_order_kappa(f: FunctionDescriptor, lam: TotalComplex, highest: int) -> int:
    """:func:`kappa`, raising KappaNotFound past order `highest`."""
    k = kappa(f, lam, highest)
    if k is None:
        raise KappaNotFound(f"no nonvanishing derivative up to order {highest}")
    return k


def split_block(n: int, kappa: int) -> tuple:
    """Sizes of the kappa pieces a block of size n breaks into, plus the
    prefix-sum gap vector against the unsplit block (length kappa)."""
    part = _split_sizes(n, kappa)
    return part, prefix_gaps(part, (n,), kappa)


def _split_sizes(n: int, kappa: int) -> Partition:
    """The sizes of :func:`split_block`: ell = n + kappa - kappa*ceil(n/kappa)
    pieces have size ceil(n/kappa), the remaining kappa - ell pieces have
    size ceil(n/kappa) - 1, and zero parts are dropped."""
    if n < 1 or kappa < 1:
        raise ValueError("block size and kappa must be positive")
    c = -(-n // kappa)
    ell = n + kappa - kappa * c
    return tuple(v for v in [c] * ell + [c - 1] * (kappa - ell) if v > 0)


def gdod_two_blocks(n1: int, n2: int, kappa: int, j: int) -> int:
    """Closed-form prefix-sum gap at index j between the merged split of two
    blocks (n1 >= n2) and the partition (n1, n2), without building either."""
    if n2 > n1 or n2 < 1 or kappa < 1:
        raise ValueError("need n1 >= n2 >= 1 and kappa >= 1")
    if j < 1:
        raise ValueError("index must be >= 1")
    c1 = -(-n1 // kappa)
    c2 = -(-n2 // kappa)
    ell1 = n1 + kappa - kappa * c1
    ell2 = n2 + kappa - kappa * c2
    if j > 2 * kappa:
        return 0
    if c1 == c2:
        if j == 1:
            return n1 - c1
        if j <= ell1 + ell2:
            return n1 + n2 - j * c1
        return n1 + n2 - (ell1 + ell2) * c1 - (j - ell1 - ell2) * (c1 - 1)
    if c1 - 1 == c2:
        if j == 1:
            return n1 - c1
        if j <= ell1:
            return n1 + n2 - j * c1
        if j <= kappa + ell2:
            return n1 + n2 - ell1 * c1 - (j - ell1) * c2
        return n1 + n2 - ell1 * c1 - (kappa - ell1 + ell2) * c2 - (j - kappa - ell2) * (c2 - 1)
    # c2 < c1 - 1
    if j == 1:
        return n1 - c1
    if j <= ell1:
        return n1 + n2 - j * c1
    if j <= kappa:
        return n1 + n2 - ell1 * c1 - (j - ell1) * (c1 - 1)
    if j <= kappa + ell2:
        return n1 + n2 - ell1 * c1 - (kappa - ell1) * (c1 - 1) - (j - kappa) * c2
    return (n1 + n2 - ell1 * c1 - (kappa - ell1) * (c1 - 1)
            - ell2 * c2 - (j - kappa - ell2) * (c2 - 1))


def eta(f: FunctionDescriptor, lam: TotalComplex, sizes: Partition) -> Partition:
    """Block-size partition of the lam-group of f(X) given the block sizes
    of X at lam: :func:`eta_given_kappa` of f's :func:`kappa` at lam."""
    sizes = as_partition(sizes)
    return eta_given_kappa(sizes, kappa(f, lam, max(sizes)))


def eta_given_kappa(sizes: Partition, kappa: Optional[int]) -> Partition:
    """The merged splits of sizes; kappa 1 splits no block.  A missing
    nonzero derivative (kappa None, f locally constant) maps every vector
    to an eigenvector: all ones."""
    if kappa is None:
        return (1,) * sum(sizes)
    return sizes if kappa == 1 else merge_desc(*(_split_sizes(n, kappa) for n in sizes))


def repr_of_fx(f: FunctionDescriptor, rx: SNRepresentation):
    """SN representation of f(X) from the representation of X.

    Returns (representation, gap_vectors) where gap_vectors[k] is the
    prefix-sum gap between the refined structure of the k-th eigenvalue
    group (ordered by decreasing f-image) and its original partition.
    Eigenvalue groups whose f-images collide are merged, for a polynomial at
    exact points on the integer pairs of its held expansions.
    """
    spec = list(zip(rx.eigenvalues, rx.partitions))
    if isinstance(f, PolynomialFunction) and spec and spec[0][0].backend == EXACT:
        held = [_expansion(f, lam) for lam, _ in spec]
        _, scales = common_denominator(*(den for den, _, _ in held))
        keyed = []
        for (_, pairs, mu), s, (lam, part) in zip(held, scales, spec):
            e = eta_given_kappa(part, kappa(f, lam, max(part)))
            keyed.append(((pairs[0][0] * s, pairs[0][1] * s), mu, (e, part)))
        groups = merge_keyed(keyed)
    else:
        groups = merge_equal((f.taylor(lam, 1)[0], (eta(f, lam, part), part)) for lam, part in spec)
    gap_vectors = tuple(prefix_gaps(e, p, len(e)) for _, members in groups for e, p in members)
    rep = SNRepresentation.from_groups([(mu, [e for e, _ in members]) for mu, members in groups])
    return rep, gap_vectors


def f_of_jordan_spec(f: FunctionDescriptor, rx: SNRepresentation) -> Matrix:
    """Explicit block-diagonal f(direct sum of Jordan blocks): the matrix
    oracle for repr_of_fx.  f(J_n(lambda)) is upper triangular Toeplitz with
    first row the Taylor coefficients, read once per eigenvalue for its
    largest block, and :func:`linalg.toeplitz_rows` lays every block out
    from that row.  A polynomial at exact eigenvalues lays out the integer
    pairs of its held expansions over one common denominator: the matrix
    holds no Fraction entry until its rows are read."""
    spec = [(lam, part) for lam, part in zip(rx.eigenvalues, rx.partitions) if part]
    if isinstance(f, PolynomialFunction) and spec[0][0].backend == EXACT:
        held = [_expansion(f, lam) for lam, _ in spec]
        d, scales = common_denominator(*(den for den, _, _ in held))
        heads = [(pairs if s == 1 else [(a * s, b * s) for a, b in pairs], part)
                 for (_, pairs, _), s, (_, part) in zip(held, scales, spec)]
        return Matrix.from_numerators(d, toeplitz_rows(heads, (0, 0)))
    heads = [(f.taylor(lam, max(part)), part) for lam, part in spec]
    return Matrix.from_rows(toeplitz_rows(heads, zero_like(heads[0][0][0])))


def f_jordan_block(f: FunctionDescriptor, lam: TotalComplex, n: int) -> Matrix:
    """f(J_n(lambda)): :func:`f_of_jordan_spec` of the one block."""
    return f_of_jordan_spec(f, SNRepresentation((lam,), ((n,),)))


def gdod_f_g(
    f: FunctionDescriptor, rx: SNRepresentation,
    g: FunctionDescriptor, ry: SNRepresentation,
) -> tuple:
    """Prefix-sum gaps between the partitions of repr_of_fx(f, X) and
    repr_of_fx(g, Y), aligned by index: one per eigenvalue of f(X) and g(Y)
    in decreasing order, so eigenvalues of X that f maps onto one image are
    one group.

    At each aligned index the gap runs in whichever direction dominance
    holds; IncomparableNilpotent reports the first index where neither
    direction does.  Shorter lists are padded with empty partitions.
    """
    out = []
    etas = zip_longest(repr_of_fx(f, rx)[0].partitions, repr_of_fx(g, ry)[0].partitions,
                       fillvalue=())
    for idx, (ef, eg) in enumerate(etas):
        gaps = prefix_gaps(eg, ef, max(len(ef), len(eg), 1))
        if min(gaps) >= 0:
            out.append(gaps)
        elif max(gaps) <= 0:
            out.append(tuple(-g for g in gaps))
        else:
            raise IncomparableNilpotent(idx)
    return tuple(out)
