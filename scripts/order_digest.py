"""Digest of the order verdicts: compare_sno on every ordered pair of SN
representations of one dimension, for each dimension 1..--dim, over the
eigenvalues 0, 1, i, 1+i; majorize_check on --pairs seeded exact vector pairs
and on their float copies; and schur_convex_falsify on both criterion 13
functions for --seeds seeds, with real and with complex entries.  Prints one
sha256 over all of these results, so two versions of the prefix-sum verdicts
and of the falsifier can be compared by one line."""

import argparse
import hashlib
import random
import sys
from fractions import Fraction
from functools import reduce
from operator import add

from snorder import exact, majorize_check
from snorder.schur import negative_sum_of_squares, schur_convex_falsify, sum_of_squares
from snorder.snrepr import compare_sno

from recovery_digest import representations, text

FALSIFY_FUNCS = (("sum_sq", sum_of_squares), ("neg_sum_sq", negative_sum_of_squares))
FALSIFY_TRIALS = 50


def key(v):
    return ",".join(f"{z.re!r}/{z.im!r}" for z in v)


def vector_pair(rng):
    """(x, y) of length 1..8 with denominators 1..64: y random, x either
    random, or y with a shared prefix and a balanced (equal-total) tail, so
    that all three verdicts and ties at prefix sums occur."""
    n = rng.randint(1, 8)
    with_im = rng.random() < 0.5

    def draw():
        re = Fraction(rng.randint(-20, 20), rng.randint(1, 64))
        return exact(re, Fraction(rng.randint(-20, 20), rng.randint(1, 64)) if with_im else 0)

    y = [draw() for _ in range(n)]
    x = [draw() for _ in range(n)]
    if rng.random() < 0.5:
        k = rng.randint(0, n)
        x[:k] = y[:k]
        if k < n:  # equal totals
            x[-1] = reduce(add, y) - reduce(add, x[:-1], exact(0))
    return x, y


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=5)
    ap.add_argument("--pairs", type=int, default=2000)
    ap.add_argument("--seeds", type=int, default=20)
    args = ap.parse_args(argv)
    digest = hashlib.sha256()

    def record(line):
        digest.update(line.encode() + b"\n")

    by_dim = {}
    for rep in representations(args.dim):
        by_dim.setdefault(len(rep.spectral_vector), []).append(rep)
    compares = 0
    for reps in by_dim.values():
        for a in reps:
            for b in reps:
                record(f"compare {text(a)} | {text(b)} -> {compare_sno(a, b).value}")
                compares += 1

    rng = random.Random(0)
    for _ in range(args.pairs):
        x, y = vector_pair(rng)
        fx, fy = [z.to_float_backend() for z in x], [z.to_float_backend() for z in y]
        record(f"majorize {key(x)} | {key(y)} -> {majorize_check(x, y).value} "
               f"float {majorize_check(fx, fy).value}")

    falsified = 0
    for seed in range(args.seeds):
        for name, make_f in FALSIFY_FUNCS:
            for n in range(2, 6):
                for complex_entries in (False, True):
                    cex = schur_convex_falsify(make_f(n), n, trials=FALSIFY_TRIALS, seed=seed,
                                               complex_entries=complex_entries)
                    found = "none" if cex is None else (
                        f"{cex.trial} {key(cex.x)} | {key(cex.y)} {cex.f_x!r} {cex.f_y!r}")
                    falsified += cex is not None
                    record(f"falsify {name} n={n} complex={complex_entries} seed={seed} "
                           f"-> {found}")
    print(f"compares={compares} majorizations={args.pairs} falsified={falsified} "
          f"sha256={digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
