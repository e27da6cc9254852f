"""Digest of the criterion 08 enumeration: every SN representation of
dimension 1..--dim over the eigenvalues 0, 1, i, 1+i, under each of the three
criterion 08 polynomials, paired with the structure recovered from the
explicit matrix f(X).  Prints the sha256 of the (predicted, recovered) pairs,
so two versions of the recovery can be compared by one line, and exits 1 if
any recovered structure differs from its prediction."""

import argparse
import hashlib
import itertools
import sys

from snorder import JordanSpec, canonical_repr, exact, poly, repr_from_matrix
from snorder.matfunc import f_of_jordan_spec, repr_of_fx

EIGENVALUES = (exact(0), exact(1), exact(0, 1), exact(1, 1))
POLYNOMIALS = (
    poly([0, 0, 1]),                       # z^2
    poly([0, exact(-1, -1), exact(1)]),    # z^2 - (1+i)z: image collision
    poly([-1, 3, -3, 1]),                  # (z-1)^3: high flatness at 1
)


def partitions_of(n, cap=None):
    cap = n if cap is None else min(cap, n)
    if n == 0:
        yield ()
        return
    for first in range(cap, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def representations(max_dim):
    """Criterion 08's enumeration, in its order."""
    for m in range(1, max_dim + 1):
        for mults in compositions(m, len(EIGENVALUES)):
            pools = [list(partitions_of(t)) if t else [None] for t in mults]
            for combo in itertools.product(*pools):
                yield canonical_repr(JordanSpec.of(
                    *((lam, part) for lam, part in zip(EIGENVALUES, combo) if part)))


def text(rep):
    return ";".join(f"{lam.re},{lam.im}:{','.join(map(str, part))}"
                    for lam, part in zip(rep.eigenvalues, rep.partitions))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=8)
    args = ap.parse_args(argv)
    digest = hashlib.sha256()
    pairs = disagreements = 0
    for rep in representations(args.dim):
        for f in POLYNOMIALS:
            predicted, _ = repr_of_fx(f, rep)
            images = {}
            for lam in rep.eigenvalues:
                mu = f(lam)
                images.setdefault((mu.re, mu.im), mu)
            recovered = repr_from_matrix(f_of_jordan_spec(f, rep), list(images.values()))
            want, got = text(predicted), text(recovered)
            line = f"{want} | {got}"
            digest.update(line.encode() + b"\n")
            pairs += 1
            if want != got:
                disagreements += 1
                print(f"differs: {text(rep)} -> {line}")
    print(f"pairs={pairs} disagreements={disagreements} sha256={digest.hexdigest()}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
