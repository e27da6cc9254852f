"""Command-line interface.

Every subcommand imports only the layers it calls, reads JSON documents,
which the ``serialization`` decoders check in full, prints a JSON report to
stdout, and uses exit codes: 0 = analysis completed, 2 = malformed input,
3 = backend/analysis failure, a float verdict refused inside its round-off
band (VerdictAmbiguous, naming the prefix) included, with one stderr line.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import serialization as ser
from .errors import NotMajorized, SnorderError
from .scalar import EXACT, FLOAT
from .serialization import InputFormatError

_FUNCS = {"sum_sq": "sum_of_squares", "neg_sum_sq": "negative_sum_of_squares"}


def _load(path: str, decode, *args):
    """decode(document, *args) of the JSON file at path; every input error
    in the file names it."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as err:  # also bad UTF-8, oversized
        # integer literals, and arrays or objects nested too deep to parse
        raise InputFormatError(f"{path}: {err}")
    try:
        return decode(doc, *args)
    except InputFormatError as err:
        raise InputFormatError(f"{path}: {err}")


def _emit(obj, args):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_majorize(args):
    from .majorization import (Majorization, gds_check, gds_from_transforms, majorize_check,
                               t_transform_decompose)

    x = _load(args.x, ser.vector_from_json, args.backend)
    y = _load(args.y, ser.vector_from_json, args.backend)
    if not args.decompose:
        _emit({"verdict": majorize_check(x, y).value}, args)
        return
    # The decomposition sorts and checks the pair itself; a refused pair
    # carries its verdict, so x and y are sorted once either way.
    try:
        transforms = t_transform_decompose(x, y)
    except NotMajorized as err:
        if err.verdict is None:
            raise
        _emit({"verdict": err.verdict.value}, args)
        return
    p = gds_from_transforms(transforms, len(x), args.backend)
    _emit({
        "verdict": Majorization.STRICT.value,
        "transforms": [ser.transform_to_json(t) for t in transforms],
        "gds": ser.matrix_to_json(p),
        "gds_valid": gds_check(p),
        "all_beta_convex": all(t.beta_in_unit_interval for t in transforms),
    }, args)


def cmd_compare(args):
    from .snrepr import canonical_repr, compare_sno

    rx = canonical_repr(_load(args.x, ser.jordan_spec_from_json, args.backend))
    ry = canonical_repr(_load(args.y, ser.jordan_spec_from_json, args.backend))
    _emit({"verdict": compare_sno(rx, ry).value}, args)


def cmd_repr(args):
    from .snrepr import canonical_repr, repr_from_matrix

    if args.matrix:
        if not args.eigenvalues:
            raise InputFormatError("--matrix requires --eigenvalues")
        m = _load(args.matrix, ser.matrix_from_json, args.backend)
        if not m.is_square:
            raise InputFormatError(f"--matrix must be square, got {m.shape}")
        eigs = _load(args.eigenvalues, ser.vector_from_json, args.backend)
        rep = repr_from_matrix(m, eigs)
    else:
        if not args.spec:
            raise InputFormatError("provide --spec or --matrix/--eigenvalues")
        rep = canonical_repr(_load(args.spec, ser.jordan_spec_from_json, args.backend))
    _emit(ser.snrepr_to_json(rep), args)


def cmd_fmap(args):
    from .matfunc import repr_of_fx
    from .snrepr import canonical_repr

    f = _load(args.function, ser.function_from_json, args.backend)
    rep = canonical_repr(_load(args.spec, ser.jordan_spec_from_json, args.backend))
    image, gaps = repr_of_fx(f, rep)
    _emit({"repr": ser.snrepr_to_json(image), "gdod": [list(g) for g in gaps]}, args)


def cmd_gdod(args):
    from .partitions import dominance_check, gdod_vector

    p = _load(args.p, ser.partition_from_json)
    q = _load(args.q, ser.partition_from_json)
    dominated = dominance_check(p, q)
    out = {"dominated": dominated}
    if dominated:
        out["gdod"] = list(gdod_vector(p, q))
    _emit(out, args)


def cmd_schur(args):
    import random

    from . import schur

    if args.n < 1:
        raise InputFormatError(f"--n must be at least 1, got {args.n}")
    for name in ("trials", "samples"):
        if getattr(args, name) < 0:
            raise InputFormatError(f"--{name} must be nonnegative, got {getattr(args, name)}")
    seed = schur.DEFAULT_SEED if args.seed is None else args.seed
    f = getattr(schur, _FUNCS[args.func])(args.n)
    box = _load(args.box, ser.domain_box_from_json) if args.box else schur.DomainBox(1.0, 0.0, 0.0)
    rng = random.Random(seed)
    samples = [
        [complex(rng.uniform(-3, 3), 0.0) for _ in range(args.n)]
        for _ in range(args.samples)
    ]
    criterion = schur.schur_ostrowski_check(f, box, samples)
    counter = schur.schur_convex_falsify(f, args.n, trials=args.trials, seed=seed)
    out = {
        "criterion_passed": criterion.passed,
        "criterion_cases": len(criterion.records),
        "counterexample": None,
    }
    if counter is not None:
        out["counterexample"] = {
            "trial": counter.trial,
            "x": ser.vector_to_json(counter.x),
            "y": ser.vector_to_json(counter.y),
            "f_x": [counter.f_x.real, counter.f_x.imag],
            "f_y": [counter.f_y.real, counter.f_y.imag],
        }
    _emit(out, args)


def cmd_convexity(args):
    from .matfunc import PolynomialFunction
    from .ordering import convexity_check

    try:
        ts = [Fraction(t) for t in args.t.split(",")]
    except (ValueError, ZeroDivisionError) as err:  # the latter echoes the numerator
        reason = "zero denominator" if isinstance(err, ZeroDivisionError) else err
        raise InputFormatError(f"bad -t list {ser.shown(args.t)}: {reason}")
    bad = [str(t) for t in ts if not 0 <= t <= 1]
    if bad:
        raise InputFormatError(f"-t weights must lie in [0, 1], got {', '.join(bad)}")
    f = _load(args.function, ser.function_from_json, args.backend)
    a = _load(args.a, ser.matrix_from_json, args.backend)
    b = _load(args.b, ser.matrix_from_json, args.backend)
    if not a.is_square or a.shape != b.shape:
        raise InputFormatError(f"A and B must be square of one shape, got {a.shape} and {b.shape}")
    if not isinstance(f, PolynomialFunction):  # f(A) needs the coefficients
        raise InputFormatError(f"{args.function}: convexity needs a polynomial, not an oracle")
    report = convexity_check(f, a, b, ts)
    _emit(
        {
            "consistent": report.consistent,
            "points": [
                {
                    "t": str(p.t),
                    "verdict": p.verdict.value if p.verdict else None,
                    "greater": p.greater,
                    "error": p.error,
                }
                for p in report.points
            ],
        },
        args,
    )


def cmd_monotone(args):
    from .ordering import monotonicity_certificate, monotonicity_verify_direct
    from .snrepr import canonical_repr

    f = _load(args.function, ser.function_from_json, args.backend)
    rx = canonical_repr(_load(args.x, ser.jordan_spec_from_json, args.backend))
    ry = canonical_repr(_load(args.y, ser.jordan_spec_from_json, args.backend))
    cert = monotonicity_certificate(f, rx, ry)
    direct = monotonicity_verify_direct(f, rx, ry)
    _emit(
        {
            "certificate": cert.case if cert else None,
            "direct_verdict": direct.value,
            "confirmed": cert is None or direct.value in ("strict_less", "weak_less", "equal"),
        },
        args,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sno",
        description="Total-order analysis of complex spectra and Jordan structure.",
    )
    parser.add_argument(
        "--backend",
        choices=[EXACT, FLOAT],
        default=EXACT,
        help="numeric backend",
    )
    parser.add_argument("--seed", type=int, help="seed for all randomized analyses")
    parser.add_argument("--output", help="write the JSON report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("majorize", help="majorization verdict for two vectors")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--decompose", action="store_true",
                   help="emit T-transform steps and the mixing matrix on strict verdicts")
    p.set_defaults(fn=cmd_majorize)

    p = sub.add_parser("compare", help="SN-order verdict for two Jordan specs")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("repr", help="canonical representation from a spec or a matrix")
    p.add_argument("--spec")
    p.add_argument("--matrix")
    p.add_argument("--eigenvalues")
    p.set_defaults(fn=cmd_repr)

    p = sub.add_parser("fmap", help="representation of f(X) plus prefix-sum gaps")
    p.add_argument("function")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_fmap)

    p = sub.add_parser("gdod", help="dominance verdict and gap vector for two partitions")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(fn=cmd_gdod)

    p = sub.add_parser("schur", help="derivative criterion and falsifier for a built-in function")
    p.add_argument("--func", choices=sorted(_FUNCS), default="sum_sq")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--box")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(fn=cmd_schur)

    p = sub.add_parser("convexity", help="pointwise convexity probe along mixing weights")
    p.add_argument("function")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-t", default="1/4,1/2,3/4", help="comma-separated rational weights in [0, 1]")
    p.set_defaults(fn=cmd_convexity)

    p = sub.add_parser("monotone", help="monotonicity certificate plus direct verification")
    p.add_argument("function")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(fn=cmd_monotone)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except InputFormatError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except SnorderError as err:
        print(f"analysis error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
