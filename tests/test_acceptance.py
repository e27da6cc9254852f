"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
"ACCEPTANCE NN <label>: PASS/FAIL" line (visible with pytest -s or in the
captured output of a failing run).
"""

import contextlib
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from snorder import (
    JordanSpec,
    Majorization,
    SNOVerdict,
    TTransform,
    canonical_repr,
    compare_nilpotent,
    compare_sno,
    dominance_check,
    exact,
    gdod,
    gds_check,
    gds_from_transforms,
    majorize_check,
    poly,
    repr_from_matrix,
    sort_desc,
)
from snorder.errors import SnorderError
from snorder.linalg import spectral_norm
from snorder.majorization import apply_row_vector, t_transform_apply, t_transform_decompose_trace
from snorder.matfunc import (
    eta_given_kappa,
    f_of_jordan_spec,
    gdod_two_blocks,
    repr_of_fx,
    split_block,
)
from snorder.ordering import monotonicity_certificate, monotonicity_verify_direct
from snorder.scalar import FLOAT, OrderOutcome, cmp_total
from snorder.schur import negative_sum_of_squares, schur_convex_falsify, sum_of_squares

from matrix_oracles import matrix_from_numpy, rank_oracle_split
from test_partitions import prefix


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def vec(*vals):
    return tuple(exact(*v) if isinstance(v, tuple) else exact(v) for v in vals)


def partitions_of(n, cap=None):
    cap = n if cap is None else min(cap, n)
    if n == 0:
        yield ()
        return
    for first in range(cap, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def test_criterion_01_total_order_axioms():
    with criterion(1, "total-order axioms"):
        start = time.monotonic()
        grid = [exact(a, b) for a in range(-3, 4) for b in range(-3, 4)]
        for a, b in itertools.product(grid, repeat=2):
            ab, ba = cmp_total(a, b), cmp_total(b, a)
            assert ab in (OrderOutcome.LESS, OrderOutcome.EQUAL, OrderOutcome.GREATER)
            assert ab.value == -ba.value
            assert (ab is OrderOutcome.EQUAL) == (a.re == b.re and a.im == b.im)
        rng = random.Random(0)
        for _ in range(100_000):
            a, b, c = (rng.choice(grid) for _ in range(3))
            if (cmp_total(a, b) is not OrderOutcome.GREATER
                    and cmp_total(b, c) is not OrderOutcome.GREATER):
                assert cmp_total(a, c) is not OrderOutcome.GREATER
        assert time.monotonic() - start < 10.0


def test_criterion_02_majorization_golden():
    with criterion(2, "golden complex majorization"):
        x = vec(4, (1, 1), 3)
        y = vec((2, 1), 5, 1)
        assert majorize_check(x, y) is Majorization.STRICT


def _random_strict_pair(rng, n, complex_entries):
    y = tuple(
        exact(
            Fraction(rng.randint(-20, 20), rng.randint(1, 4)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 4)) if complex_entries else 0,
        )
        for _ in range(n)
    )
    x = list(y)
    for _ in range(rng.randint(1, 4)):
        i, j = sorted(rng.sample(range(n), 2))
        beta = exact(Fraction(rng.randint(0, 12), 12))
        x = list(t_transform_apply(x, TTransform(i, j, beta)))
    return tuple(x), y


def test_criterion_03_decomposition_roundtrip():
    with criterion(3, "T-transform decomposition round-trip"):
        rng = random.Random(42)
        for trial in range(1000):
            n = rng.randint(2, 6)
            x, y = _random_strict_pair(rng, n, complex_entries=trial % 2 == 0)
            ts, intermediates = t_transform_decompose_trace(x, y)
            for w in intermediates:
                assert majorize_check(x, w) is Majorization.STRICT
                assert majorize_check(w, y) is Majorization.STRICT
            replay = apply_row_vector(sort_desc(y), gds_from_transforms(ts, n))
            assert all(
                a.re == b.re and a.im == b.im for a, b in zip(replay, x)
            )


def test_criterion_04_gds_closure():
    with criterion(4, "doubly-stochastic-sum closure under products"):
        rng = random.Random(7)
        for _ in range(1000):
            n = rng.randint(2, 5)
            mats = []
            for _ in range(2):
                ts = [
                    TTransform(
                        *sorted(rng.sample(range(n), 2)),
                        exact(Fraction(rng.randint(-6, 6), 3),
                              Fraction(rng.randint(-6, 6), 3)),
                    )
                    for _ in range(3)
                ]
                mats.append(gds_from_transforms(ts, n))
            assert gds_check(mats[0] @ mats[1])


def test_criterion_05_dominance_golden():
    with criterion(5, "golden dominance gap"):
        assert dominance_check((3, 2), (4, 2))
        assert gdod((3, 2), (4, 2), 1) == 1
        assert gdod((3, 2), (4, 2), 2) == 1


def test_criterion_06_split_block_vs_rank_oracle():
    with criterion(6, "block splitting vs rank oracle"):
        for n in range(1, 13):
            for kappa in range(1, n + 1):
                assert split_block(n, kappa)[0] == rank_oracle_split(n, kappa)
        sizes = (4, 3, 2)
        e = eta_given_kappa(sizes, 2)
        assert e == (2, 2, 2, 1, 1, 1)
        gaps = tuple(prefix(sizes, j) - prefix(e, j) for j in range(1, 7))
        assert gaps == (2, 3, 3, 2, 1, 0)


def test_criterion_07_two_block_gap_formula():
    with criterion(7, "two-block gap closed form vs merge oracle"):
        for n1 in range(1, 11):
            for n2 in range(1, n1 + 1):
                for kappa in range(1, 11):
                    merged = eta_given_kappa((n1, n2), kappa)
                    for j in range(1, 2 * kappa + 3):
                        expected = prefix((n1, n2), j) - prefix(merged, j)
                        assert gdod_two_blocks(n1, n2, kappa, j) == expected


def _all_specs(max_dim, eigenvalues):
    """Every Jordan structure of total dimension 1..max_dim over the given
    eigenvalue set."""
    k = len(eigenvalues)

    def splits(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in splits(total - first, parts - 1):
                yield (first,) + rest

    for m in range(1, max_dim + 1):
        for mults in splits(m, k):
            pools = [
                list(partitions_of(t)) if t else [None] for t in mults
            ]
            for combo in itertools.product(*pools):
                pairs = [
                    (lam, part)
                    for lam, part in zip(eigenvalues, combo)
                    if part is not None
                ]
                yield canonical_repr(JordanSpec.of(*pairs))


def _key(z):
    return (z.re, z.im)


def _reps_equal(a, b):
    return (
        a.partitions == b.partitions
        and len(a.eigenvalues) == len(b.eigenvalues)
        and all(_key(p) == _key(q) for p, q in zip(a.eigenvalues, b.eigenvalues))
    )


def test_criterion_08_function_image_structure_exhaustive():
    with criterion(8, "image Jordan structure vs matrix oracle (dim <= 8)"):
        eigs = (exact(0), exact(1), exact(0, 1), exact(1, 1))
        funcs = [
            poly([0, 0, 1]),                       # z^2
            poly([0, exact(-1, -1), exact(1)]),    # z^2 - (1+i)z: image collision
            poly([-1, 3, -3, 1]),                  # (z-1)^3: high flatness at 1
        ]
        count = 0
        for rep in _all_specs(8, eigs):
            matrices = None
            for f in funcs:
                predicted, gaps = repr_of_fx(f, rep)
                m = f_of_jordan_spec(f, rep)
                images = {}
                for lam in rep.eigenvalues:
                    mu = f(lam)
                    images.setdefault(_key(mu), mu)
                actual = repr_from_matrix(m, list(images.values()))
                assert _reps_equal(predicted, actual)
                # first derivative nonzero everywhere -> structure unchanged,
                # all gaps zero
                if f is funcs[0] and all(_key(l) != (0, 0) for l in rep.eigenvalues):
                    assert all(all(g == 0 for g in gv) for gv in gaps)
                    assert sorted(
                        (sum(p) for p in predicted.partitions), reverse=True
                    ) == sorted((sum(p) for p in rep.partitions), reverse=True)
                # flatness order >= largest block -> every block collapses to 1x1
                if (f is funcs[2]
                        and len(rep.eigenvalues) == 1
                        and _key(rep.eigenvalues[0]) == (1, 0)
                        and max(max(p) for p in rep.partitions) <= 3):
                    assert predicted.partitions == ((1,) * rep.dimension,)
            count += 1
        assert count == 4809


def _relation_axioms(items, less_or_equal):
    n = len(items)
    r = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            r[i, j] = less_or_equal(items[i], items[j])
    assert r.diagonal().all()                      # reflexive
    assert not (r & r.T & ~np.eye(n, dtype=bool)).any()  # antisymmetric
    closure = (r.astype(np.int64) @ r.astype(np.int64)) > 0
    assert not (closure & ~r).any()                # transitive


def test_criterion_09_order_axioms_on_representations():
    with criterion(9, "SN-order axioms on exhaustive representation sets"):
        eigs = (exact(0), exact(1), exact(0, 1))
        by_dim = {}
        for rep in _all_specs(5, eigs):
            by_dim.setdefault(rep.dimension, []).append(rep)
        le_verdicts = (SNOVerdict.EQUAL, SNOVerdict.STRICT_LESS, SNOVerdict.WEAK_LESS)
        total = 0
        for reps in by_dim.values():
            total += len(reps)
            _relation_axioms(reps, lambda a, b: compare_sno(a, b) in le_verdicts)
        assert total == 193
        parts = [p for t in range(1, 7) for p in partitions_of(t)]
        _relation_axioms(
            parts,
            lambda p, q: compare_nilpotent((p,), (q,))
            in (SNOVerdict.EQUAL, SNOVerdict.STRICT_LESS),
        )


def test_criterion_10_spectral_mapping_numerics():
    with criterion(10, "similarity and flip-product identities for f(X)"):
        rng = np.random.default_rng(5)
        f = poly([0.3, -1.2, 0.7, 2.1], backend=FLOAT)

        def fmat(a):
            return f.eval_matrix(matrix_from_numpy(a)).to_numpy()

        for _ in range(100):
            n = int(rng.integers(2, 7))
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            u, _ = np.linalg.qr(rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n)))
            uh = u.conj().T
            assert np.linalg.norm(fmat(uh @ x @ u) - uh @ fmat(x) @ u) <= 1e-8
            assert np.linalg.norm(
                x @ fmat(x.conj().T @ x) - fmat(x @ x.conj().T) @ x
            ) <= 1e-8


# Residuals of the unitary-dilation identities behind the Hansen-Pedersen style
# convexity argument, checked numerically by criterion 11 and tests/test_ordering.py.

HP_TOL = 1e-8


class ContractionViolated(SnorderError):
    """A matrix, or a family of matrices, the identities need to be a
    contraction is not one."""


def _psd_sqrt(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def hp_identities_check(c: np.ndarray, x: np.ndarray, t: float) -> dict:
    """Residuals of the dilation identities used in the convexity argument.

    Builds the two unitary dilations of a contraction C, the rotation W3 and
    the projection P, and reports Frobenius residuals of unitarity, of the
    defect commutation C (I - C*C)^{1/2} = (I - CC*)^{1/2} C, and of the
    block expansions of W_i^* diag(X, X) W_i.
    """
    c = np.asarray(c, dtype=complex)
    x = np.asarray(x, dtype=complex)
    n = c.shape[0]
    if spectral_norm(c) > 1.0 + HP_TOL:
        raise ContractionViolated(f"spectral norm {spectral_norm(c):.6g} exceeds 1")
    eye = np.eye(n, dtype=complex)
    s1 = _psd_sqrt(eye - c.conj().T @ c)  # (I - C*C)^{1/2}
    s2 = _psd_sqrt(eye - c @ c.conj().T)  # (I - CC*)^{1/2}
    w1 = np.block([[c, s2], [s1, -c.conj().T]])
    w2 = np.block([[c, -s2], [s1, c.conj().T]])
    eye2 = np.eye(2 * n, dtype=complex)
    xbar = np.block([[x, np.zeros((n, n))], [np.zeros((n, n)), x]])

    def bl(m11, m12, m21, m22):
        return np.block([[m11, m12], [m21, m22]])

    exp1 = bl(
        c.conj().T @ x @ c + s1 @ x @ s1,
        c.conj().T @ x @ s2 - s1 @ x @ c.conj().T,
        s2 @ x @ c - c @ x @ s1,
        s2 @ x @ s2 + c @ x @ c.conj().T,
    )
    exp2 = bl(
        c.conj().T @ x @ c + s1 @ x @ s1,
        -c.conj().T @ x @ s2 + s1 @ x @ c.conj().T,
        -s2 @ x @ c + c @ x @ s1,
        s2 @ x @ s2 + c @ x @ c.conj().T,
    )
    rt, rt1 = math.sqrt(t), math.sqrt(1.0 - t)
    w3 = np.block([[rt * eye, -rt1 * eye], [rt1 * eye, rt * eye]])
    p = np.block([[eye, np.zeros((n, n))], [np.zeros((n, n)), np.zeros((n, n))]])
    return {
        "w1_unitary": float(np.linalg.norm(w1.conj().T @ w1 - eye2)),
        "w2_unitary": float(np.linalg.norm(w2.conj().T @ w2 - eye2)),
        "w3_unitary": float(np.linalg.norm(w3.conj().T @ w3 - eye2)),
        "commutation": float(np.linalg.norm(c @ s1 - s2 @ c)),
        "w1_block_expansion": float(np.linalg.norm(w1.conj().T @ xbar @ w1 - exp1)),
        "w2_block_expansion": float(np.linalg.norm(w2.conj().T @ xbar @ w2 - exp2)),
        "p_idempotent": float(np.linalg.norm(p @ p - p)),
        "p_hermitian": float(np.linalg.norm(p - p.conj().T)),
    }


def test_criterion_11_dilation_identities():
    with criterion(11, "unitary dilation identities for contractions"):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            c /= np.linalg.norm(c, 2) * (1 + rng.uniform(0, 2))
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            res = hp_identities_check(c, x, float(rng.uniform(0, 1)))
            assert max(res.values()) <= 1e-8


def _rep_of(*pairs):
    return canonical_repr(JordanSpec.of(*pairs))


def _monotonicity_corpus():
    """(f, rx, ry, expected_case) instances covering every certificate case
    at least 20 times."""
    rng = random.Random(13)
    cases = []
    # A / B: affine maps on diagonalizable strict-majorization pairs
    made = 0
    while made < 22:
        n = rng.randint(2, 5)
        x, y = _random_strict_pair(rng, n, complex_entries=False)
        if sorted(_k for _k in map(lambda z: z.re, x)) == sorted(
            z.re for z in y
        ):
            continue  # mixing degenerated to a permutation
        rx = _rep_of(*((z, (1,)) for z in x))
        ry = _rep_of(*((z, (1,)) for z in y))
        cases.append((poly([1, 2]), rx, ry, "A"))
        cases.append((poly([0, -1]), rx, ry, "B"))
        made += 1
    # C: squaring collapses (a, a, -b, -b) onto (a, a, b, b) while only the
    # upper structure keeps nontrivial blocks
    sq = poly([0, 0, 1])
    made = 0
    for a in range(2, 14):
        for b in range(1, a):
            if made >= 22:
                break
            rx = _rep_of((exact(a), (1, 1)), (exact(-b), (1, 1)))
            ry = _rep_of((exact(a), (2,)), (exact(b), (2,)))
            cases.append((sq, rx, ry, "C"))
            made += 1
    # D: equal spectra, strictly finer blocks, increasing affine map
    refinements = [((2, 1), (3,)), ((1, 1, 1), (3,)), ((1, 1), (2,)),
                   ((2, 2), (4,)), ((2, 1, 1), (4,))]
    for lam in range(1, 6):
        for px, py in refinements:
            rx = _rep_of((exact(lam), px), (exact(0), (1,)))
            ry = _rep_of((exact(lam), py), (exact(0), (1,)))
            cases.append((poly([5, 2]), rx, ry, "D"))
    # E: equal spectra, entrywise strict refinement, decreasing affine map
    for lam in range(1, 6):
        for mu in range(-5, 0):
            rx = _rep_of((exact(lam), (2, 1)), (exact(mu), (1, 1)))
            ry = _rep_of((exact(lam), (3,)), (exact(mu), (2,)))
            cases.append((poly([0, -1]), rx, ry, "E"))
    return cases


def test_criterion_12_monotonicity_soundness():
    with criterion(12, "monotonicity certificates are sound"):
        counts = dict.fromkeys("ABCDE", 0)
        ok_verdicts = (SNOVerdict.EQUAL, SNOVerdict.STRICT_LESS, SNOVerdict.WEAK_LESS)
        for f, rx, ry, expected in _monotonicity_corpus():
            cert = monotonicity_certificate(f, rx, ry)
            assert cert is not None and cert.case == expected
            counts[cert.case] += 1
            assert monotonicity_verify_direct(f, rx, ry) in ok_verdicts
        assert all(v >= 20 for v in counts.values()), counts


def test_criterion_13_falsifier_calibration():
    with criterion(13, "convexity falsifier calibration"):
        assert schur_convex_falsify(sum_of_squares(4), 4, trials=10_000) is None
        cex = schur_convex_falsify(negative_sum_of_squares(4), 4, trials=10_000)
        assert cex is not None and cex.trial < 10_000
