"""Draw random strict-majorization pairs, decompose each into T-transform
steps, and verify the replay reproduces the smaller vector exactly.  Exits 1
when any pair gives a matrix that is not generalized doubly stochastic or a
replay that differs from the smaller vector."""

import argparse
import random
import sys
from fractions import Fraction

from snorder import TTransform, exact, gds_check, gds_from_transforms, sort_desc
from snorder.majorization import (
    apply_row_vector,
    t_transform_apply,
    t_transform_decompose_trace,
)


def random_pair(rng, n, real):
    y = tuple(
        exact(
            Fraction(rng.randint(-20, 20), rng.randint(1, 4)),
            0 if real else Fraction(rng.randint(-20, 20), rng.randint(1, 4)),
        )
        for _ in range(n)
    )
    x = list(y)
    for _ in range(rng.randint(1, 4)):
        i, j = sorted(rng.sample(range(n), 2))
        x = list(t_transform_apply(x, TTransform(i, j, exact(Fraction(rng.randint(0, 12), 12)))))
    return tuple(x), y


def fmt(v):
    return "(" + ", ".join(str(z.to_complex()) for z in v) + ")"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--real", action="store_true", help="real entries only")
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    failed = 0
    for k in range(args.pairs):
        x, y = random_pair(rng, args.n, args.real)
        ts, _ = t_transform_decompose_trace(x, y)
        p = gds_from_transforms(ts, args.n)
        replay = apply_row_vector(sort_desc(y), p)
        exact_match = all(a.re == b.re and a.im == b.im for a, b in zip(replay, x))
        gds_valid = gds_check(p)
        failed += not (gds_valid and exact_match)
        mixing = sum(1 for t in ts if not (t.beta.is_zero() and t.beta.is_real()))
        print(
            f"pair {k:2d}: steps={len(ts):3d} (mixing={mixing}) "
            f"gds_valid={gds_valid} replay_exact={exact_match}"
        )
        print(f"  x = {fmt(x)}")
        print(f"  y = {fmt(y)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
