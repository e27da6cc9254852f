"""Majorization of complex vectors under the lexicographic total order,
affine T-transforms, and generalized doubly stochastic matrices.

A T-transform here is affine: beta is an arbitrary complex scalar, not
restricted to [0, 1].  The decomposition of a strict majorization into
T-transform steps mirrors the classical Muirhead construction, working on
non-increasingly sorted copies and re-sorting (via explicit swap steps)
after every mixing step so that replaying the returned transforms on
sort_desc(y) reproduces x exactly.  The matrix replaying a decomposition is
built by column updates: each T-transform rewrites columns i and j only.

Every exact prefix-sum verdict compares the :func:`running_pairs` of the
:func:`scalar.numerators` pairs of both vectors as tuples, up to the first
prefix that decides (``snrepr`` keeps them per representation); float
vectors add and compare TotalComplex values under cmp_total's eps
(:func:`prefix_outcomes`).  :func:`int_majorization` is the one integer sort
and verdict: exact :func:`majorize_check`, the decomposition, the
``ordering`` certificate and the ``schur`` falsifier all call it.

The exact decomposition, its GDS product, the replay and :func:`gds_check`
run on those integer pairs too, over one denominator each; only each beta
and each intermediate is built as a value.  Float input keeps its bits.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain
from operator import add, eq, gt, itemgetter, mul
from typing import Iterable, Sequence

from .errors import BackendMismatch, DimensionMismatch, NotMajorized
from .linalg import Matrix, gaussian_int_matmul
from .scalar import (
    EXACT, OrderOutcome, TotalComplex, Value, cmp_total, exact, from_numerators, numerators,
    one_like, set_field, sort_desc, zero_like,
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


def prefix_outcomes(sx: Sequence[TotalComplex], sy: Sequence[TotalComplex]) -> list:
    """cmp_total of each pair of running sums of sx and sy, each added left
    to right: the float counterpart of comparing :func:`running_pairs`,
    and exact on Fraction sums.  A mixed pair raises BackendMismatch."""
    return list(map(cmp_total, accumulate(sx), accumulate(sy)))


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

    Exact vectors of equal, nonzero length go to :func:`int_majorization` as
    the :func:`scalar.numerators` pairs of x and y together.  Float, mixed,
    empty and unequal-length input runs majorize_sorted(sort_desc(x),
    sort_desc(y)), which keeps float bits and raises BackendMismatch or
    DimensionMismatch."""
    x, y = tuple(x), tuple(y)
    cleared = _cleared_pair(x, y)
    if cleared is None:
        return majorize_sorted(sort_desc(x), sort_desc(y))
    return int_majorization(*cleared[1:])[0]


def _cleared_pair(x: tuple, y: tuple):
    """(d, pairs of x, pairs of y): :func:`scalar.numerators` of x and y
    together, when both are exact and of one nonzero length; else None."""
    cleared = numerators(x + y) if x and len(x) == len(y) else None
    return cleared and (cleared[0], cleared[1][:len(x)], cleared[1][len(x):])


def majorize_sorted(sx: Sequence[TotalComplex], sy: Sequence[TotalComplex]) -> Majorization:
    """majorize_check for vectors already sorted non-increasingly."""
    if len(sx) != len(sy):
        raise DimensionMismatch(f"{len(sx)} vs {len(sy)}")
    if not sx:
        raise DimensionMismatch("empty vectors")
    outcomes = prefix_outcomes(sx, sy)
    return _verdict(OrderOutcome.GREATER in outcomes, outcomes[-1] is OrderOutcome.EQUAL)


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


def _tied(a: TotalComplex, b: TotalComplex) -> bool:
    return cmp_total(a, b) is OrderOutcome.EQUAL


def _swap_steps(current: list, target: list, zero, same) -> list:
    """Selection-sort style swap transforms (beta = zero) turning current into
    target, which must be a rearrangement of it under the equality same."""
    swaps = []
    cur = list(current)
    for pos in range(len(cur)):
        if same(cur[pos], target[pos]):
            continue
        src = next((k for k in range(pos + 1, len(cur)) if same(cur[k], target[pos])), None)
        if src is None:  # float near-ties: eps-equality is not transitive
            raise NotMajorized("decomposition found no entry to swap into place", None)
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
    mixing step (each still strictly majorizes x and is majorized by y).
    A pair that is not strictly majorized raises NotMajorized carrying the
    verdict, so a caller needs no second majorize_check.  A float pair whose
    near-ties leave no pair to mix or no entry to swap into place raises
    NotMajorized with verdict None, as does one that fails to converge.
    Exact pairs of one nonzero length run on their numerator pairs
    (:func:`_int_decompose_trace`).
    """
    x, y = tuple(x), tuple(y)
    cleared = _cleared_pair(x, y)
    if cleared is not None:
        return _int_decompose_trace(*cleared)
    sx, sy = sort_desc(x), sort_desc(y)
    verdict = majorize_sorted(sx, sy)
    if verdict is not Majorization.STRICT:
        raise NotMajorized("decomposition requires strict majorization", verdict)
    target, w = list(sx), list(sy)
    n = len(w)
    transforms: list = []
    intermediates: list = []
    one, zero = one_like(w[0]), zero_like(w[0])
    for _ in range(n * n + n + 1):
        if all(_tied(a, b) for a, b in zip(w, target)):
            break
        i = max((k for k in range(n) if cmp_total(target[k], w[k]) is OrderOutcome.LESS),
                default=-1)
        j = min((k for k in range(i + 1, n)
                 if cmp_total(target[k], w[k]) is OrderOutcome.GREATER), default=None)
        if i < 0 or j is None:  # float near-ties can leave no pair to mix
            raise NotMajorized("decomposition found no pair of entries to mix", None)
        gap_i = w[i] - target[i]
        gap_j = target[j] - w[j]
        eps_step = gap_i if cmp_total(gap_i, gap_j) is not OrderOutcome.GREATER else gap_j
        beta = one - eps_step / (w[i] - w[j])
        step = TTransform(i, j, beta)
        transforms.append(step)
        w = list(t_transform_apply(w, step))
        resorted = list(sort_desc(w))
        transforms.extend(_swap_steps(w, resorted, zero, _tied))
        w = resorted
        intermediates.append(tuple(w))
    else:
        raise NotMajorized("decomposition failed to converge")
    transforms.extend(_swap_steps(w, list(x), zero, _tied))
    return transforms, intermediates


def _int_decompose_trace(d: int, px: list, py: list) -> tuple:
    """t_transform_decompose_trace on the numerator pairs px and py of x and
    y over d, sorted as tuples.  With beta = 1 - eps / (w_i - w_j) a mixing
    step maps w_i to w_i - eps and w_j to w_j + eps, so w stays integer over
    d.  For a strict pair the loop always finds i and j, and w_i != w_j."""
    verdict, target, w = int_majorization(px, py)
    if verdict is not Majorization.STRICT:
        raise NotMajorized("decomposition requires strict majorization", verdict)
    n, zero = len(w), exact(0)
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
        beta = TotalComplex(Fraction(rho - er * dr - ei * di, rho),
                            Fraction(er * di - ei * dr, rho))
        transforms.append(TTransform(i, j, beta))
        w[i], w[j] = (wir - er, wii - ei), (wjr + er, wji + ei)
        resorted = sorted(w, reverse=True)
        transforms.extend(_swap_steps(w, resorted, zero, eq))
        w = resorted
        intermediates.append(from_numerators(d, w))
    else:
        raise NotMajorized("decomposition failed to converge")
    transforms.extend(_swap_steps(w, px, zero, eq))
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
