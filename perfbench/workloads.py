"""Seeded inputs, ops and correctness oracles for the benchmark workloads.

An op is one closed-loop call into snorder: ``run.py`` times ``op.run()``
and then passes the result to ``op.check()``, which raises ``WrongAnswer``
when the program's answer is incorrect.  Ops are scheduled in shuffled
blocks (stratified sampling), so two seeds see almost the same mix and the
run-to-run spread stays small.

Library calls go through module attributes (``snrepr.repr_from_matrix``),
never through names imported into this file, so the tracer's rebinding
reaches them and a test can substitute a broken function.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import snorder
from snorder import majorization, matfunc, ordering, scalar, schur, snrepr
from snorder.scalar import exact

# Criterion 08: every Jordan structure of dimension 1..8 over these
# eigenvalues, pushed through these three polynomials.
EIGENVALUES = (exact(0), exact(1), exact(0, 1), exact(1, 1))
POLYNOMIALS = (
    snorder.poly([0, 0, 1]),                             # z^2
    snorder.poly([0, exact(-1, -1), exact(1)]),          # z^2 - (1+i)z
    snorder.poly([-1, 3, -3, 1]),                        # (z-1)^3
)
SWEEP_DIM = 8
SWEEP_SIZE = 4809
COMPARE_DIM = 6

LE_VERDICTS = (snrepr.SNOVerdict.EQUAL, snrepr.SNOVerdict.STRICT_LESS,
               snrepr.SNOVerdict.WEAK_LESS)


class WrongAnswer(Exception):
    """The program returned an incorrect result for an op."""


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def expect(cond: bool, message: str):
    if not cond:
        raise WrongAnswer(message)


# -- inputs -----------------------------------------------------------------


def partitions_of(n: int, cap: int | None = None):
    cap = n if cap is None else min(cap, n)
    if n == 0:
        yield ()
        return
    for first in range(cap, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def reps_by_dimension(max_dim: int) -> dict:
    """Every SN representation of dimension 1..max_dim over EIGENVALUES,
    keyed by dimension (the enumeration of acceptance criterion 08)."""
    out = {}
    for m in range(1, max_dim + 1):
        reps = out.setdefault(m, [])
        for mults in _compositions(m, len(EIGENVALUES)):
            pools = [list(partitions_of(t)) if t else [None] for t in mults]
            for combo in itertools.product(*pools):
                pairs = [(lam, part) for lam, part in zip(EIGENVALUES, combo) if part]
                reps.append(snrepr.canonical_repr(snrepr.JordanSpec.of(*pairs)))
    return out


def strict_pair(rng: random.Random, n: int, complex_entries: bool) -> tuple:
    """(x, y) with x strictly majorized by y: y has rational entries and x
    is y after one to four T-transforms with beta in [0, 1]."""
    def draw():
        return Fraction(rng.randint(-20, 20), rng.randint(1, 4))

    y = tuple(exact(draw(), draw() if complex_entries else 0) for _ in range(n))
    x = y
    for _ in range(rng.randint(1, 4)):
        i, j = sorted(rng.sample(range(n), 2))
        beta = exact(Fraction(rng.randint(0, 12), 12))
        x = majorization.t_transform_apply(x, majorization.TTransform(i, j, beta))
    return x, y


def _rep(*pairs):
    return snrepr.canonical_repr(snrepr.JordanSpec.of(*pairs))


def certify_case(rng: random.Random, case: str) -> tuple:
    """(f, rx, ry) built like the criterion 12 corpus so that the
    monotonicity certificate must come out as ``case``."""
    if case in "AB":
        while True:
            x, y = strict_pair(rng, rng.randint(2, 5), complex_entries=False)
            if sorted(z.re for z in x) != sorted(z.re for z in y):
                break  # not a mere permutation
        rx = _rep(*((z, (1,)) for z in x))
        ry = _rep(*((z, (1,)) for z in y))
        f = snorder.poly([1, 2]) if case == "A" else snorder.poly([0, -1])
        return f, rx, ry
    if case == "C":
        a = rng.randint(2, 20)
        b = rng.randint(1, a - 1)
        rx = _rep((exact(a), (1, 1)), (exact(-b), (1, 1)))
        ry = _rep((exact(a), (2,)), (exact(b), (2,)))
        return snorder.poly([0, 0, 1]), rx, ry
    if case == "D":
        lam = exact(rng.randint(1, 9))
        px, py = rng.choice([((2, 1), (3,)), ((1, 1, 1), (3,)), ((1, 1), (2,)),
                             ((2, 2), (4,)), ((2, 1, 1), (4,))])
        rx = _rep((lam, px), (exact(0), (1,)))
        ry = _rep((lam, py), (exact(0), (1,)))
        return snorder.poly([5, 2]), rx, ry
    lam, mu = exact(rng.randint(1, 9)), exact(rng.randint(-9, -1))
    rx = _rep((lam, (2, 1)), (mu, (1, 1)))
    ry = _rep((lam, (3,)), (mu, (2,)))
    return snorder.poly([0, -1]), rx, ry


# -- jordan_sweep -------------------------------------------------------------


def _key(z):
    return (z.re, z.im)


def reps_equal(a, b) -> bool:
    return (a.partitions == b.partitions
            and [_key(z) for z in a.eigenvalues] == [_key(z) for z in b.eigenvalues])


def jordan_run(rep):
    """Predicted vs recovered structure of f(X) for each criterion 08 f."""
    out = []
    for f in POLYNOMIALS:
        predicted, _ = matfunc.repr_of_fx(f, rep)
        m = matfunc.f_of_jordan_spec(f, rep)
        images = {}
        for lam in rep.eigenvalues:
            mu = f(lam)
            images.setdefault(_key(mu), mu)
        out.append((predicted, snrepr.repr_from_matrix(m, list(images.values()))))
    return out


def jordan_check(result):
    for predicted, recovered in result:
        expect(reps_equal(predicted, recovered),
               f"recovered {recovered} differs from predicted {predicted}")


class JordanSweep:
    """One op: one representation of the criterion 08 enumeration.  A block
    holds one op per dimension 1..8 plus a second dimension-8 op: with nine
    latency bands the p50 falls inside the dimension-5 band and the p90
    inside the dimension-8 band, not on an edge between two bands."""

    BLOCK_DIMS = tuple(range(1, SWEEP_DIM + 1)) + (SWEEP_DIM,)

    def __init__(self, seed: int):
        self.seed = seed
        self.by_dim = reps_by_dimension(SWEEP_DIM)
        count = sum(len(v) for v in self.by_dim.values())
        if count != SWEEP_SIZE:
            raise RuntimeError(f"enumeration has {count} representations, not {SWEEP_SIZE}")

    def ops(self):
        rng = random.Random(self.seed)
        dims = list(self.BLOCK_DIMS)
        while True:
            rng.shuffle(dims)
            for d in dims:
                rep = rng.choice(self.by_dim[d])
                yield Op(f"dim{d}", lambda rep=rep: jordan_run(rep), jordan_check)

    def close(self):
        pass


# -- order_queries ------------------------------------------------------------


def majorize_run(x, y):
    verdict = majorization.majorize_check(x, y)
    transforms, intermediates = majorization.t_transform_decompose_trace(x, y)
    p = majorization.gds_from_transforms(transforms, len(x))
    replay = majorization.apply_row_vector(scalar.sort_desc(y), p)
    gds_ok = majorization.gds_check(p)
    xf = tuple(scalar.approx(float(z.re), float(z.im)) for z in x)
    yf = tuple(scalar.approx(float(z.re), float(z.im)) for z in y)
    float_verdict = majorization.majorize_check(xf, yf)
    if float_verdict is majorization.Majorization.STRICT:
        majorization.t_transform_decompose_trace(xf, yf)
    return verdict, intermediates, replay, gds_ok, float_verdict


def majorize_check_result(x, y, result):
    verdict, intermediates, replay, gds_ok, float_verdict = result
    strict = majorization.Majorization.STRICT
    expect(verdict is strict, f"strict pair judged {verdict}")
    expect([_key(a) for a in replay] == [_key(b) for b in x], "replay does not reproduce x")
    for w in intermediates:
        expect(majorization.majorize_check(x, w) is strict
               and majorization.majorize_check(w, y) is strict,
               "intermediate vector leaves the majorization interval")
    expect(gds_ok, "mixing matrix is not generalized doubly stochastic")
    expect(float_verdict is verdict, f"float verdict {float_verdict} vs exact {verdict}")


def compare_run(a, b):
    return snrepr.compare_sno(a, b), snrepr.compare_sno(b, a)


def compare_check(result):
    ab, ba = result
    lt = snrepr.SNOVerdict.STRICT_LESS
    expect(not (ab is lt and ba is lt), "strictly less in both directions")
    eq = snrepr.SNOVerdict.EQUAL
    expect((ab is eq) == (ba is eq), f"asymmetric equality: {ab} vs {ba}")


CERTIFY_CASES = "ABCDE"


def certify_run(cases):
    return [(ordering.monotonicity_certificate(f, rx, ry),
             ordering.monotonicity_verify_direct(f, rx, ry)) for f, rx, ry in cases]


def certify_check(result):
    for expected, (cert, direct) in zip(CERTIFY_CASES, result):
        expect(cert is not None and cert.case == expected,
               f"certificate {cert and cert.case} instead of case {expected}")
        expect(direct in LE_VERDICTS, f"certified pair has direct verdict {direct}")


FALSIFY_FUNCS = {"sum_sq": schur.sum_of_squares, "neg_sum_sq": schur.negative_sum_of_squares}
FALSIFY_TRIALS = 100


def falsify_run(func, n, seed):
    return schur.schur_convex_falsify(FALSIFY_FUNCS[func](n), n, trials=FALSIFY_TRIALS, seed=seed)


def falsify_check(func, n, cex):
    if func == "sum_sq":
        expect(cex is None, "counterexample reported for the Schur-convex sum of squares")
        return
    if cex is None:
        return
    f = FALSIFY_FUNCS[func](n)
    expect(majorization.majorize_check(cex.x, cex.y) is majorization.Majorization.STRICT,
           "witness pair is not strictly majorized")
    fx = complex(f.value([z.to_complex() for z in cex.x]))
    fy = complex(f.value([z.to_complex() for z in cex.y]))
    expect(scalar.cmp_total(scalar.from_complex(fx), scalar.from_complex(fy))
           is scalar.OrderOutcome.GREATER, "witness does not have f(x) > f(y)")


class OrderQueries:
    """One op: one query of four kinds, mixed in shuffled blocks of BLOCK so
    that each kind takes a comparable share of run time.  compare ops are
    cheap (well under 1 ms) and are 93% of ops, so they set both the p50 and
    the p90; certify, majorize and falsify ops are few but long."""

    BLOCK = (("compare", 40), ("certify", 1), ("majorize", 1), ("falsify", 1))

    def __init__(self, seed: int):
        self.seed = seed
        self.reps = reps_by_dimension(COMPARE_DIM)[COMPARE_DIM]

    def ops(self):
        rng = random.Random(self.seed)
        counters = dict.fromkeys(("compare", "certify", "majorize", "falsify"), 0)
        kinds = [k for k, count in self.BLOCK for _ in range(count)]
        while True:
            rng.shuffle(kinds)
            for kind in kinds:
                c = counters[kind]
                counters[kind] += 1
                yield getattr(self, f"_{kind}")(rng, c)

    def _compare(self, rng, c):
        a, b = rng.choice(self.reps), rng.choice(self.reps)
        return Op("compare", lambda: compare_run(a, b), compare_check)

    def _certify(self, rng, c):
        cases = [certify_case(rng, case) for case in CERTIFY_CASES]
        return Op("certify", lambda: certify_run(cases), certify_check)

    def _majorize(self, rng, c):
        x, y = strict_pair(rng, 2 + c % 7, complex_entries=(c // 7) % 2 == 1)
        return Op("majorize", lambda: majorize_run(x, y),
                  lambda r: majorize_check_result(x, y, r))

    def _falsify(self, rng, c):
        func = ("sum_sq", "neg_sum_sq")[c % 2]
        n, seed = 3 + (c // 2) % 4, rng.randrange(2**31)
        return Op("falsify", lambda: falsify_run(func, n, seed),
                  lambda r: falsify_check(func, n, r))

    def close(self):
        pass


# -- cli_cold -----------------------------------------------------------------


def _scalar_json(z):
    return {"re": str(z.re), "im": str(z.im)}


def _spec_json(rep):
    return {"blocks": [{"eigenvalue": _scalar_json(lam), "sizes": list(p)}
                       for lam, p in zip(rep.eigenvalues, rep.partitions)]}


def _function_json(f):
    return {"polynomial": {"coefficients": [_scalar_json(c) for c in f.coefficients]}}


def _matrix_json(m):
    return {"rows": [[_scalar_json(z) for z in row] for row in m.rows]}


def _triangular(rng, n):
    return snorder.Matrix.from_rows(
        [[exact(rng.randint(-3, 3)) if j >= i else exact(0) for j in range(n)]
         for i in range(n)]
    )


class CliCold:
    """One op: one ``python -m snorder.cli`` process.  Set-up writes
    VARIANTS inputs per subcommand and records the in-process result of
    each; the ops cycle through them in shuffled blocks of one invocation
    per subcommand."""

    SUBCOMMANDS = ("majorize", "compare", "repr", "fmap", "gdod", "monotone",
                   "convexity", "schur")
    VARIANTS = 4

    def __init__(self, seed: int, workdir: str):
        from snorder import cli

        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        rng = random.Random(seed)
        by_dim = reps_by_dimension(COMPARE_DIM)
        self.invocations = {}
        for v in range(self.VARIANTS):
            for sub in self.SUBCOMMANDS:
                argv = self._inputs(sub, v, rng, by_dim)
                out = os.path.join(workdir, f"expected-{sub}-{v}.json")
                code = cli.main(["--output", out] + argv)
                if code != 0:
                    raise RuntimeError(f"in-process sno {' '.join(argv)} exited {code}")
                with open(out) as fh:
                    expected = json.load(fh)
                self.invocations[(sub, v)] = (argv, expected)

    def _write(self, name, doc):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def _inputs(self, sub, v, rng, by_dim):
        tag = f"{sub}-{v}"
        if sub == "majorize":
            x, y = strict_pair(rng, 3 + v, complex_entries=v % 2 == 1)
            return ["majorize", self._write(f"{tag}-x.json", [_scalar_json(z) for z in x]),
                    self._write(f"{tag}-y.json", [_scalar_json(z) for z in y]), "--decompose"]
        if sub == "compare":
            reps = by_dim[3 + v]
            return ["compare", self._write(f"{tag}-x.json", _spec_json(rng.choice(reps))),
                    self._write(f"{tag}-y.json", _spec_json(rng.choice(reps)))]
        if sub == "repr":
            f, rep = POLYNOMIALS[v % 3], rng.choice(by_dim[2 + v])
            images = {}
            for lam in rep.eigenvalues:
                images.setdefault(_key(f(lam)), f(lam))
            m = matfunc.f_of_jordan_spec(f, rep)
            return ["repr", "--matrix", self._write(f"{tag}-m.json", _matrix_json(m)),
                    "--eigenvalues",
                    self._write(f"{tag}-e.json", [_scalar_json(z) for z in images.values()])]
        if sub == "fmap":
            f, rep = POLYNOMIALS[v % 3], rng.choice(by_dim[3 + v])
            return ["fmap", self._write(f"{tag}-f.json", _function_json(f)),
                    self._write(f"{tag}-s.json", _spec_json(rep))]
        if sub == "gdod":
            p = rng.choice(list(partitions_of(6 + v)))
            q = rng.choice(list(partitions_of(6 + v)))
            return ["gdod", self._write(f"{tag}-p.json", list(p)),
                    self._write(f"{tag}-q.json", list(q))]
        if sub == "monotone":
            f, rx, ry = certify_case(rng, "ACDE"[v])
            return ["monotone", self._write(f"{tag}-f.json", _function_json(f)),
                    self._write(f"{tag}-x.json", _spec_json(rx)),
                    self._write(f"{tag}-y.json", _spec_json(ry))]
        if sub == "convexity":
            n = 2 + v % 2
            return ["convexity", self._write(f"{tag}-f.json", _function_json(POLYNOMIALS[0])),
                    self._write(f"{tag}-a.json", _matrix_json(_triangular(rng, n))),
                    self._write(f"{tag}-b.json", _matrix_json(_triangular(rng, n)))]
        func = ("sum_sq", "neg_sum_sq")[v % 2]
        return ["--seed", str(rng.randrange(2**31)), "schur", "--func", func,
                "--n", "3", "--trials", "20", "--samples", "5"]

    def ops(self, run_child):
        """Ops that run each invocation in a child process via
        ``run_child(argv) -> (exit_code, stdout)``."""
        rng = random.Random(self.seed)
        subs = list(self.SUBCOMMANDS)
        for block in itertools.count():
            rng.shuffle(subs)
            for sub in subs:
                argv, expected = self.invocations[(sub, block % self.VARIANTS)]
                yield Op(sub, lambda argv=argv: run_child(argv),
                         lambda r, expected=expected: cli_check(expected, r))

    def inprocess_ops(self):
        """The same invocations through ``cli.main`` in this process."""
        from snorder import cli

        for (sub, v), (argv, expected) in sorted(self.invocations.items()):
            out = os.path.join(self.workdir, f"inprocess-{sub}-{v}.json")

            def run(argv=argv, out=out):
                code = cli.main(["--output", out] + argv)
                with open(out) as fh:
                    return code, fh.read()

            yield Op(sub, run, lambda r, expected=expected: cli_check(expected, r))

    def close(self):
        import shutil

        shutil.rmtree(self.workdir, ignore_errors=True)


def cli_check(expected, result):
    code, stdout = result
    expect(code == 0, f"sno exited {code}")
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError as err:
        raise WrongAnswer(f"sno printed no JSON report: {err}")
    expect(got == expected, "sno report differs from the in-process result")
