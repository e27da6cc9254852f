"""The mutation gate of snorder's verdict code.

    python3 scripts/mutants.py

Each mutant names a file of the repository, an exact source text that
occurs once in it, the text that replaces it, and the test files that must
kill it, or the reason it is equivalent (no input tells it apart).  Every
mutant runs in a fresh temporary copy of src/, tests/, scripts/, perfbench/
and pyproject.toml, which is also the working directory of its test run, so
the tree and its Hypothesis database are never touched: ``pytest -x -q`` on
the named test files, with the copy's src/ first on PYTHONPATH.  A failing
run kills the mutant.

First the unmutated copy runs every named test file once, since a kill
means nothing if the tests fail anyway.  Prints killed or survived per mutant with the time it took.  Exits 1 when
the baseline fails, a mutant's text is not found exactly once, a test run
cannot start, or a mutant not marked equivalent survives.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml")
RUN_TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in path
    new: str
    tests: tuple  # test files, relative to the root, that must kill it
    equivalent: str = ""  # why no test can kill it, when none can


MUTANTS = (
    # compare_sno's spectral level on running pairs
    Mutant("spectral-gt-as-ge", "src/snorder/snrepr.py",
           "if any(map(gt, sx, sy)):", "if any(a >= b for a, b in zip(sx, sy)):",
           ("tests/test_snrepr.py",)),
    Mutant("spectral-lt-as-le", "src/snorder/snrepr.py",
           "all(map(lt, sx, sy))", "all(a <= b for a, b in zip(sx, sy))",
           ("tests/test_snrepr.py",)),
    Mutant("spectral-rescale-dropped", "src/snorder/snrepr.py",
           "if dx != dy:", "if False:",
           ("tests/test_snrepr.py",)),
    Mutant("spectra-equal-never", "src/snorder/snrepr.py",
           "if px == py:", "if False:",
           ("tests/test_snrepr.py",)),
    # exact majorization verdict and the running-pair helper
    Mutant("majorization-gt-as-ge", "src/snorder/majorization.py",
           "any(map(gt, rx, ry))", "any(a >= b for a, b in zip(rx, ry))",
           ("tests/test_majorization.py",)),
    Mutant("majorization-last-tie-always", "src/snorder/majorization.py",
           "rx[-1] == ry[-1]", "True",
           ("tests/test_majorization.py",)),
    Mutant("running-im-unsummed", "src/snorder/majorization.py",
           "accumulate(map(_IM, pairs))", "map(_IM, pairs)",
           ("tests/test_majorization.py",)),
    # the majorization-preserving certificate: one tail, two prefix tests
    Mutant("preserving-decreasing-tail-dropped", "src/snorder/ordering.py",
           "running_pairs(a), running_pairs(b)", "running_pairs(a)[1:], running_pairs(b)[1:]",
           ("tests/test_schur.py",)),
    Mutant("float-decreasing-tail-dropped", "src/snorder/ordering.py",
           "prefix_outcomes(a, b)", "prefix_outcomes(a, b)[1:]", ("tests/test_schur.py",)),
    Mutant("preserving-entrywise-lt-for-le", "src/snorder/ordering.py",
           "all(a <= b for a, b in zip(sx, sy))", "all(a < b for a, b in zip(sx, sy))",
           ("tests/test_schur.py", "tests/test_ordering.py")),
    Mutant("preserving-decreasing-unreversed", "src/snorder/ordering.py",
           "dec and not above(fx[::-1], fy[::-1])", "dec and not above(fx, fy)",
           ("tests/test_schur.py",)),
    Mutant("entrywise-direction-inverted", "src/snorder/ordering.py",
           "reversed_direction=not inc", "reversed_direction=inc", ("tests/test_schur.py",)),
    Mutant("float-tie-rule-skipped", "src/snorder/ordering.py",
           "return False, False", "continue", ("tests/test_schur.py",)),
    Mutant("exact-monotonicity-ge-for-gt", "src/snorder/ordering.py",
           "all(a > b for a, b in zip(fs, fs[1:]))", "all(a >= b for a, b in zip(fs, fs[1:]))",
           ("tests/test_schur.py",)),
    Mutant("case-ii-y-eigenvalues-dropped", "src/snorder/ordering.py",
           "points = rx.eigenvalues + ry.eigenvalues", "points = rx.eigenvalues",
           ("tests/test_ordering.py",)),
    Mutant("certificate-case-split-inverted", "src/snorder/ordering.py",
           "    if spectral is not None:\n", "    if spectral is None:\n",
           ("tests/test_ordering.py",)),
    # order steps that earlier hand-run mutation checks covered
    Mutant("nilpotent-zip-for-zip-longest", "src/snorder/snrepr.py",
           "for pa, pb in zip_longest(a, b, fillvalue=()):", "for pa, pb in zip(a, b):",
           ("tests/test_snrepr.py",)),
    Mutant("majorization-unsorted", "src/snorder/majorization.py",
           "sx, sy = sorted(x, reverse=True), sorted(y, reverse=True)", "sx, sy = list(x), list(y)",
           ("tests/test_majorization.py",)),
    # split_block's gaps and the Ostrowski partials, each computed once
    Mutant("split-gaps-short-block", "src/snorder/matfunc.py",
           "prefix_gaps(part, (n,), kappa)", "prefix_gaps(part, (n - 1,), kappa)",
           ("tests/test_matfunc.py",)),
    Mutant("ostrowski-partial-of-i-twice", "src/snorder/schur.py",
           "grads[i] - grads[j]", "grads[i] - grads[i]", ("tests/test_schur.py",)),
    # the whole Taylor shift, exact images, f(J)'s padding zero
    Mutant("taylor-shift-re-sign", "src/snorder/matfunc.py",
           "lr * r - li * s", "lr * r + li * s", ("tests/test_matfunc.py",)),
    Mutant("exact-images-horner-sign", "src/snorder/matfunc.py",
           "ar * lr - ai * li + cr", "ar * lr + ai * li + cr", ("tests/test_matfunc.py",)),
    Mutant("taylor-shift-pass-short", "src/snorder/matfunc.py",
           "for i in range(deg):", "for i in range(deg - 1):", ("tests/test_matfunc.py",)),
    Mutant("f-of-jordan-pad-eigenvalue-backend", "src/snorder/matfunc.py",
           "zero_like(heads[0][0][0])", "zero_like(spec[0][0])", ("tests/test_matfunc.py",)),
    # the Ostrowski bounds of the cases with a negative imaginary difference
    Mutant("ostrowski-case-2-c3-for-c2", "src/snorder/schur.py",
           "box.c2 * d_im <= _SIGN_TOL", "box.c3 * d_im <= _SIGN_TOL", ("tests/test_schur.py",)),
    Mutant("ostrowski-case-4-c3-for-c2", "src/snorder/schur.py",
           "box.c1 * d_re >= box.c2 * d_im", "box.c1 * d_re >= box.c3 * d_im",
           ("tests/test_schur.py",)),
    # the two sign laws of the composition tables
    Mutant("table1-decreasing-g-keeps-schur-sign", "src/snorder/schur.py",
           "[sg * sh for sg in", "[sh for sg in", ("tests/test_schur.py",)),
    Mutant("monotone-sign-ignores-g", "src/snorder/schur.py",
           "[sg * sm for sg in", "[sm for sg in", ("tests/test_schur.py",)),
    Mutant("table2-curvature-condition-inverted", "src/snorder/schur.py",
           "if ss in signs]", "if ss not in signs]", ("tests/test_schur.py",)),
    Mutant("table2-averaging-guard-dropped", "src/snorder/schur.py",
           "    if not cdm_verified:\n        return None\n", "", ("tests/test_schur.py",)),
    # the float tie band: a difference of exactly eps is still a tie
    Mutant("eps-edge-inclusive", "src/snorder/scalar.py",
           "    if d > eps:\n        return 1", "    if d >= eps:\n        return 1",
           ("tests/test_scalar_order.py",)),
)


def text_count(mutant: Mutant) -> int:
    """How often the mutant's source text occurs in its file."""
    return (ROOT / mutant.path).read_text().count(mutant.old)


def make_copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy(src, dest / name)


def run_tests(copy: Path, tests) -> tuple:
    """(pytest's exit code, or None on a timeout, seconds taken) in copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        code = subprocess.run(argv, cwd=copy, env=env, capture_output=True,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def main() -> int:
    problems = [f"{m.name}: its text occurs {text_count(m)} times in {m.path}"
                for m in MUTANTS if text_count(m) != 1]
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        make_copy(Path(tmp))
        code, took = run_tests(Path(tmp), sorted({t for m in MUTANTS for t in m.tests}))
    print(f"baseline      {'passes' if code == 0 else 'FAILS':9} {took:6.1f} s")
    if code != 0:
        return 1
    survivors = 0
    for m in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
            copy = Path(tmp)
            make_copy(copy)
            target = copy / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            code, took = run_tests(copy, m.tests)
        if code in (1, 2):  # tests failed, or collection broke
            status = "killed"
        elif code == 0:
            status = "survived (equivalent)" if m.equivalent else "SURVIVED"
            survivors += not m.equivalent
        else:
            status = f"ERROR ({code})"
            survivors += 1
        print(f"{m.name:36} {status:22} {took:6.1f} s")
    print(f"{len(MUTANTS)} mutants, {survivors} not killed and not equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
