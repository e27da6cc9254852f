"""Sweep Jordan structures of a single nilpotent eigenvalue under z^kappa
and compare the predicted block splitting against the explicit matrix.
Exits 1 if the matrix oracle disagrees on any structure."""

import argparse
import sys

from snorder import JordanSpec, canonical_repr, exact, poly, repr_from_matrix
from snorder.matfunc import f_of_jordan_spec, repr_of_fx


def all_partitions(n):
    def rec(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(cap, total), 0, -1):
            for rest in rec(total - first, first):
                yield (first,) + rest

    return rec(n, n)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=6)
    ap.add_argument("--kappa", type=int, default=2)
    args = ap.parse_args()
    f = poly([0] * args.kappa + [1])  # z^kappa
    disagreements = 0
    for part in all_partitions(args.dim):
        rep = canonical_repr(JordanSpec.of((exact(0), part)))
        predicted, gaps = repr_of_fx(f, rep)
        oracle = repr_from_matrix(f_of_jordan_spec(f, rep), [exact(0)])
        ok = predicted.partitions == oracle.partitions
        disagreements += not ok
        print(
            f"blocks {str(part):18s} -> {str(predicted.partitions[0]):24s} "
            f"gaps={gaps[0]} matrix_oracle_agrees={ok}"
        )
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
