"""Majorization of complex vectors under the lexicographic total order,
affine T-transforms, and generalized doubly stochastic matrices.

A T-transform here is affine: beta is an arbitrary complex scalar, not
restricted to [0, 1].  The decomposition of a strict majorization into
T-transform steps mirrors the classical Muirhead construction, working on
non-increasingly sorted copies and re-sorting (via explicit swap steps)
after every mixing step so that replaying the returned transforms on
sort_desc(y) reproduces x: exactly, or float x under cmp_total.  The matrix
replaying a decomposition is built by column updates: each T-transform
rewrites columns i and j only.

Every prefix-sum verdict compares the :func:`running_pairs` of integer
pairs, read by :func:`cleared_pair`.  Exact ones compare the pairs of both
vectors as tuples, up to the first prefix that decides (``snrepr`` keeps them
per representation); :func:`int_majorization` is the one integer sort and
verdict: exact :func:`majorize_check`, the decomposition, the ``ordering``
certificate and the ``schur`` falsifier all call it.  Float ones read the
floats' exact dyadic pairs through a round-off band (:func:`band_signs`).

The decomposition of both backends runs on those integer pairs too, a
float pair on the exact surrogate of x that :func:`_snapped` builds; the
exact GDS product, the replay and :func:`gds_check` do, over one denominator
each.  Only each beta and each intermediate is built as a value, a float
one by integer true division, with no Fraction.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, count
from operator import add, gt, itemgetter, mul, sub, truediv
from typing import Iterable, Sequence

from .errors import BackendMismatch, DimensionMismatch, NotMajorized, VerdictAmbiguous
from .linalg import Matrix, gaussian_int_matmul
from .scalar import (
    DEFAULT_EPS, EXACT, OrderOutcome, TotalComplex, Value, cmp_total, dyadic_numerators,
    from_numerators, numerators, one_like, order_key, set_field, zero_like,
)


class Majorization(enum.Enum):
    STRICT = "strict"
    WEAK = "weak"
    NONE = "none"


_RE, _IM = itemgetter(0), itemgetter(1)


def running_pairs(pairs: Sequence[tuple]) -> list:
    """The running sums of (re, im) integer pairs, as (re, im) pairs.  Over
    one positive denominator their tuple order is the total order of the
    rationals, as :func:`scalar.numerators` states."""
    return list(zip(accumulate(map(_RE, pairs)), accumulate(map(_IM, pairs))))


def cleared_pair(x: Sequence[TotalComplex], y: Sequence[TotalComplex]) -> tuple:
    """(d, pairs of x, pairs of y): the numerators or dyadic_numerators of x
    and y together, when of one backend and one nonzero length; else raises."""
    if len(x) != len(y):
        raise DimensionMismatch(f"dimension {len(x)} vs {len(y)}")
    if not x:
        raise DimensionMismatch("empty vectors")
    cleared = numerators(chain(x, y)) or dyadic_numerators(chain(x, y))
    if cleared is None:
        raise BackendMismatch("exact vs float")
    d, pairs = cleared
    return d, pairs[:len(x)], pairs[len(x):]


def band_signs(d: int, px: Sequence[tuple], py: Sequence[tuple]) -> list:
    """The float prefix-sum kernel on dyadic pairs px, py over d: per prefix
    k, 1, -1 or 0 when px's sum is certainly above py's, certainly below, or
    tied, up to the first 1, which decides every verdict alone.  The sums are
    exact, so rho bounds only the inputs' round-off (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 4.2): gamma_k (sum |x_i| +
    sum |y_i|) over i <= k per component, gamma_k = k u / (1 - k u) <= k 2^-52
    at u = 2^-53.  Real part first, a gap is certain above max(rho, eps), a
    tie handing over to the imaginary part up to min(rho, eps), and else
    uncertain: VerdictAmbiguous names the first such prefix.  A real tie is
    uncertain too at a prefix that holds one of two entries whose real parts
    differ by round-off alone and not the other, of larger imaginary part.
    A gap within rho ties even where the floats' own sums differ, so on
    inputs whose sums are not exact the verdict is that of the reals the
    floats round, and float decompositions inherit that reference."""
    eps = Fraction(DEFAULT_EPS)
    eps_den, eps_num = eps.denominator, eps.numerator * d  # |gap| > eps: |gap| eps_den > eps_num
    masses = running_pairs([(abs(a) + abs(c), abs(b) + abs(e)) for (a, b), (c, e) in zip(px, py)])

    def split(k):  # asked only where the real parts tie
        return any(s < v and r != t and abs(r - t) << 52 <= abs(r) + abs(t)
                   for p in (px, py) for r, s in p[:k] for t, v in p[k:])

    signs = []
    for k, a, b, m in zip(count(1), running_pairs(px), running_pairs(py), masses):
        sign = 0
        for gap, mass, real in zip(map(sub, a, b), m, (True, False)):
            over_rho = abs(gap) << 52 > k * mass  # rho = k 2^-52 mass
            over_eps = abs(gap) * eps_den > eps_num
            if over_rho or over_eps or (real and split(k)):
                sign = (1 if gap > 0 else -1) if over_rho and over_eps else None
                break
        signs.append(sign)
        if sign == 1:
            return signs
    if None in signs:
        raise VerdictAmbiguous(f"prefix {signs.index(None) + 1} differs inside its round-off band")
    return signs


def _verdict(above: bool, tied: bool) -> Majorization:
    """NONE if a prefix sum of x is above y's, STRICT if the totals tie, else WEAK."""
    if above:
        return Majorization.NONE
    return Majorization.STRICT if tied else Majorization.WEAK


def int_majorization(x: Iterable[tuple], y: Iterable[tuple]) -> tuple:
    """(verdict, sorted x, sorted y) of equally many (at least one) (re, im)
    integer numerator pairs over one common positive denominator, in any
    order: as :func:`scalar.numerators` states, their tuple order is the
    total order of the rationals, so the verdict is majorize_check's."""
    sx, sy = sorted(x, reverse=True), sorted(y, reverse=True)
    rx, ry = running_pairs(sx), running_pairs(sy)
    return _verdict(any(map(gt, rx, ry)), rx[-1] == ry[-1]), sx, sy


def majorize_check(x: Sequence[TotalComplex], y: Sequence[TotalComplex]) -> Majorization:
    """Does x majorize-below y?  STRICT needs equal totals, WEAK only needs
    every prefix sum of sort_desc(x) to stay <= the matching prefix of y.
    The :func:`cleared_pair` of exact x and y goes to :func:`int_majorization`,
    that of float ones, sorted, to :func:`band_signs`."""
    x, y = tuple(x), tuple(y)
    d, px, py = cleared_pair(x, y)
    if x[0].backend == EXACT:
        return int_majorization(px, py)[0]
    return _band_verdict(d, px, py)


def _band_verdict(d: int, px: list, py: list) -> Majorization:
    """The float verdict of majorize_check on the dyadic pairs of x and y."""
    signs = band_signs(d, sorted(px, reverse=True), sorted(py, reverse=True))
    return _verdict(1 in signs, signs[-1] == 0)


class TTransform(Value):
    """Affine mixing of coordinates i < j (0-based):
    v_i -> beta*v_i + (1-beta)*v_j,  v_j -> beta*v_j + (1-beta)*v_i."""

    __slots__ = _fields = ("i", "j", "beta")

    def __init__(self, i: int, j: int, beta: TotalComplex):
        if not 0 <= i < j:
            raise DimensionMismatch(f"need 0 <= i < j, got ({i}, {j})")
        set_field(self, "i", i)
        set_field(self, "j", j)
        set_field(self, "beta", beta)

    @property
    def beta_in_unit_interval(self) -> bool:
        """True when beta is a real number in [0, 1] (the convex case)."""
        if not self.beta.is_real():
            return False
        zero, one = zero_like(self.beta), one_like(self.beta)
        return (cmp_total(self.beta, zero) is not OrderOutcome.LESS
                and cmp_total(self.beta, one) is not OrderOutcome.GREATER)


def t_transform_apply(v: Sequence[TotalComplex], t: TTransform) -> tuple:
    if t.j >= len(v):
        raise IndexError(f"transform indices ({t.i},{t.j}) exceed vector length {len(v)}")
    comp = one_like(t.beta) - t.beta
    out = list(v)
    out[t.i] = t.beta * v[t.i] + comp * v[t.j]
    out[t.j] = t.beta * v[t.j] + comp * v[t.i]
    return tuple(out)


def _swap_steps(current: list, target: list, zero: TotalComplex) -> list:
    """Selection-sort style swap transforms (beta = zero) turning current
    into target, a rearrangement of it."""
    swaps, cur = [], list(current)
    for pos, want in enumerate(target):
        if cur[pos] != want:
            src = cur.index(want, pos + 1)
            swaps.append(TTransform(pos, src, zero))
            cur[pos], cur[src] = cur[src], cur[pos]
    return swaps


def t_transform_decompose(x, y) -> list:
    transforms, _ = t_transform_decompose_trace(x, y)
    return transforms


def t_transform_decompose_trace(x, y) -> tuple:
    """Decompose a strict majorization x < y into T-transform steps.

    Returns (transforms, intermediates): replaying the transforms in order on
    sort_desc(y) yields x; intermediates are the working vectors after each
    mixing step (each still strictly majorizes x and is majorized by y).  A
    pair not strictly majorized raises NotMajorized carrying the verdict.
    Both backends run :func:`_int_decompose_trace` on the one clearing of
    the pair: exact pairs on their numerator pairs, float ones, once the
    band reads them STRICT, on y's dyadic pairs and the exact surrogate of x
    (:func:`_snapped`), its betas and intermediates rounded once.  A float
    pair whose surrogate is not exactly STRICT, or whose rounded betas
    replayed on sort_desc(y) do not give x under cmp_total, raises
    NotMajorized with verdict None.
    """
    x, y = tuple(x), tuple(y)
    d, px, py = cleared_pair(x, y)
    if x[0].backend == EXACT:
        return _int_decompose_trace(d, px, py, Fraction)
    verdict = _band_verdict(d, px, py)
    if verdict is not Majorization.STRICT:
        raise NotMajorized("decomposition requires strict majorization", verdict)
    try:
        transforms, intermediates = _int_decompose_trace(d, _snapped(px, py), py, truediv)
    except NotMajorized:
        raise NotMajorized("the exact surrogate of x is not strictly majorized", None) from None
    replay = reduce(t_transform_apply, transforms, sorted(y, key=order_key, reverse=True))
    if not all(cmp_total(a, b) is OrderOutcome.EQUAL for a, b in zip(replay, x)):
        raise NotMajorized("the rounded transforms do not replay to x", None)
    return transforms, intermediates


def _snapped(px: list, py: list) -> list:
    """The exact surrogate of float x, as pairs in x's order, for a pair the
    band reads STRICT: each running sum of sorted px whose real part is at
    or above that of sorted py goes onto py's real part, with the smaller of
    the two imaginary parts, and the last onto py's total.  The band tied
    each such gap, so the surrogate is x up to round-off."""
    order = sorted(range(len(px)), key=px.__getitem__, reverse=True)
    ry = running_pairs(sorted(py, reverse=True))
    sums = [(c, min(b, e)) if a >= c else (a, b)
            for (a, b), (c, e) in zip(running_pairs([px[k] for k in order]), ry)]
    sums[-1] = ry[-1]
    out = list(px)
    for k, (a, b), (c, e) in zip(order, sums, [(0, 0)] + sums):
        out[k] = (a - c, b - e)
    return out


def _int_decompose_trace(d: int, px: list, py: list, ratio) -> tuple:
    """t_transform_decompose_trace on the numerator pairs px and py of x and
    y over d, sorted as tuples.  With beta = 1 - eps / (w_i - w_j) a mixing
    step maps w_i to w_i - eps and w_j to w_j + eps, so w stays integer over
    d.  For a strict pair the loop always finds i and j, and w_i != w_j.
    Each part of a beta or an intermediate is ratio(numerator, denominator):
    Fraction for exact values, int true division (one correct rounding, as
    float(Fraction) rounds) for float ones."""
    verdict, target, w = int_majorization(px, py)
    if verdict is not Majorization.STRICT:
        raise NotMajorized("decomposition requires strict majorization", verdict)
    n, zero = len(w), TotalComplex(ratio(0, 1), ratio(0, 1))
    transforms: list = []
    intermediates: list = []
    for _ in range(n * n + n + 1):
        if w == target:
            break
        i = max(k for k in range(n) if target[k] < w[k])
        j = next(k for k in range(i + 1, n) if target[k] > w[k])
        (wir, wii), (wjr, wji) = w[i], w[j]
        er, ei = min((wir - target[i][0], wii - target[i][1]),
                     (target[j][0] - wjr, target[j][1] - wji))
        dr, di = wir - wjr, wii - wji
        rho = dr * dr + di * di
        beta = TotalComplex(ratio(rho - er * dr - ei * di, rho), ratio(er * di - ei * dr, rho))
        transforms.append(TTransform(i, j, beta))
        w[i], w[j] = (wir - er, wii - ei), (wjr + er, wji + ei)
        resorted = sorted(w, reverse=True)
        transforms.extend(_swap_steps(w, resorted, zero))
        w = resorted
        intermediates.append(tuple(TotalComplex(ratio(a, d), ratio(b, d)) for a, b in w))
    else:
        raise NotMajorized("decomposition failed to converge")
    transforms.extend(_swap_steps(w, px, zero))
    return transforms, intermediates


def gds_check(m: Matrix) -> bool:
    """Generalized doubly stochastic: every row and column sums to one
    (entries may be arbitrary complex numbers).  An exact matrix sums the
    pairs of its integer form over d, so each line must sum to (d, 0)."""
    if not m.is_square:
        raise DimensionMismatch("generalized doubly stochastic check needs a square matrix")
    form = m.int_form
    if form is not None:
        d, rows = form
        return all(tuple(map(sum, zip(*line))) == (d, 0) for line in chain(rows, zip(*rows)))
    one = one_like(m.rows[0][0])
    return all(cmp_total(reduce(add, line), one) is OrderOutcome.EQUAL
               for line in chain(m.rows, zip(*m.rows)))


def gds_from_transforms(transforms: Sequence[TTransform], n: int, backend: str = EXACT) -> Matrix:
    """Product of the transform matrices, in application order, so that
    row-vector replay y @ P equals applying the transforms one by one.  Each
    step updates two columns in the dense product's operand order, bit for bit.
    The betas set the backend; backend names that of the empty product."""
    backend = transforms[0].beta.backend if transforms else backend
    if backend == EXACT:
        return _int_gds(transforms, n)
    rows = [list(r) for r in Matrix.identity(n, backend).rows]
    for t in transforms:
        if t.j >= n:
            raise DimensionMismatch(f"transform indices ({t.i},{t.j}) exceed size {n}")
        i, j, beta, comp = t.i, t.j, t.beta, one_like(t.beta) - t.beta
        for row in rows:
            a, b = row[i], row[j]
            row[i], row[j] = a * beta + b * comp, a * comp + b * beta
    return Matrix.from_rows(rows)


def _int_gds(transforms: Sequence[TTransform], n: int) -> Matrix:
    """gds_from_transforms on Gaussian-integer rows over one running d: a swap
    step (beta = 0) swaps columns i and j, a mixing step scales rows by e."""
    d = 1
    rows = [[(int(r == c), 0) for c in range(n)] for r in range(n)]
    for t in transforms:
        if t.j >= n:
            raise DimensionMismatch(f"transform indices ({t.i},{t.j}) exceed size {n}")
        cleared = numerators([t.beta])
        if cleared is None:
            raise BackendMismatch(f"exact vs {t.beta.backend}")
        (e, (beta,)), i, j = cleared, t.i, t.j
        if beta == (0, 0):
            for row in rows:
                row[i], row[j] = row[j], row[i]
            continue
        comp, d = (e - beta[0], -beta[1]), d * e
        mixed = gaussian_int_matmul([(row[i], row[j]) for row in rows],
                                    [(beta, comp), (comp, beta)])
        for row, (a, b) in zip(rows, mixed):
            if e != 1:
                row[:] = [(re * e, im * e) for re, im in row]
            row[i], row[j] = a, b
    return Matrix.from_numerators(d, rows)


def apply_row_vector(v: Sequence[TotalComplex], m: Matrix) -> tuple:
    """Row-vector times matrix.  An exact vector over d_v and an exact matrix
    over d multiply their integer pairs, over d_v * d."""
    if len(v) != m.shape[0]:
        raise DimensionMismatch(f"{len(v)} vs {m.shape}")
    cleared = numerators(v) if v else None
    form = m.int_form if cleared is not None else None
    if form is None:
        return tuple(reduce(add, map(mul, v, col)) for col in zip(*m.rows))
    (dv, pairs), (d, rows) = cleared, form
    return from_numerators(dv * d, gaussian_int_matmul([pairs], rows)[0])
