"""Each demo script in scripts/ runs to completion on a small input."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from snorder import exact, poly

ROOT = Path(__file__).resolve().parents[1]


# The digests of the small runs below: a change that moves any structure
# recovery, prefix-sum verdict or falsifier result changes them.
DIGESTS = {
    ("recovery_digest.py", "--dim", "4"):
        "c260d0a0e1aaa1c0ba5a399ce44cba73166b6eae2810195bcae0ba2496d968b3",
    ("order_digest.py", "--dim", "3", "--pairs", "200", "--seeds", "2"):
        "42cb4e9a6af2a9416b3ac6ec398e69cfa3f34726de9f052a767a01cca88c2228",
}


@pytest.mark.parametrize("argv", [
    ["decompose_demo.py", "--pairs", "3"],
    ["falsify_schur.py", "--trials", "200"],
    ["structure_sweep.py", "--dim", "4", "--kappa", "2"],
    ["recovery_digest.py", "--dim", "4"],
    ["order_digest.py", "--dim", "3", "--pairs", "200", "--seeds", "2"],
])
def test_script_exits_zero(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if tuple(argv) in DIGESTS:
        assert proc.stdout.split()[-1] == f"sha256={DIGESTS[tuple(argv)]}"


def test_recovery_digest_is_the_same_under_any_hash_seed():
    """No recovered structure depends on set or dict order of hashed values."""
    digests = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "recovery_digest.py"),
                               "--dim", "5"], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.split()[-1])
    assert len(digests) == 1 and digests.pop().startswith("sha256=")


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recovery_digest_enumerates_criterion_08():
    """The digest covers criterion 08's representations, in its order, under
    its eigenvalues and polynomials: 4809 x 3 = 14,427 pairs at dim 8."""
    digest = _load(ROOT / "scripts" / "recovery_digest.py", "recovery_digest")
    acceptance = _load(ROOT / "tests" / "test_acceptance.py", "acceptance")
    assert digest.EIGENVALUES == (exact(0), exact(1), exact(0, 1), exact(1, 1))
    assert digest.POLYNOMIALS == (poly([0, 0, 1]), poly([0, exact(-1, -1), exact(1)]),
                                  poly([-1, 3, -3, 1]))
    ours = [(r.eigenvalues, r.partitions) for r in digest.representations(8)]
    theirs = [(r.eigenvalues, r.partitions)
              for r in acceptance._all_specs(8, digest.EIGENVALUES)]
    assert len(ours) * len(digest.POLYNOMIALS) == 14_427
    assert ours == theirs


def test_decompose_demo_exits_one_on_a_failed_pair(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("decompose_demo",
                                                  ROOT / "scripts" / "decompose_demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.main(["--pairs", "3"]) == 0
    good = demo.gds_from_transforms
    # Doubling the product breaks both the unit row sums and the replay.
    monkeypatch.setattr(demo, "gds_from_transforms", lambda ts, n: good(ts, n).scale(exact(2)))
    assert demo.main(["--pairs", "3"]) == 1
    assert "gds_valid=False replay_exact=False" in capsys.readouterr().out


def test_bench_pairs_compares_a_commit_with_itself(tmp_path):
    """One pair of 1-s order_queries runs of a commit against itself: both
    runs give a result line, and the summary has every end-to-end metric.
    The commit is made in a fresh repository, so the test needs no checkout."""
    repo = tmp_path / "repo"
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for folder in ("src", "perfbench"):
        shutil.copytree(ROOT / folder, repo / folder, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", repo)
    for argv in (["init", "-q"], ["add", "-A"], ["-c", "user.name=t", "-c", "user.email=t@t",
                                                 "commit", "-q", "-m", "tree"]):
        subprocess.run(["git", *argv], cwd=repo, check=True, capture_output=True)
    out = tmp_path / "pairs.json"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "HEAD",
                           "--pairs", "1", "--seconds", "1", "--workload", "order_queries",
                           "--out", str(out)],
                          cwd=repo, capture_output=True, text=True, timeout=120)
    report = json.loads(out.read_text())
    assert report["parent"] == report["head"] and len(report["runs"]) == 2
    assert all(run["result"]["correct"] for run in report["runs"]), proc.stdout
    # each run keeps its report line: the workload and its realized op mix
    assert all(run["report"]["workload"] == "order_queries" for run in report["runs"])
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    summary = report["summary"]["order_queries"]
    assert set(summary) == {m["name"] for m in metrics}
    # A bound crossed by noise is the only problem a commit can have with itself.
    assert all("worse than the parent" in p for p in report["problems"])
    assert proc.returncode == (1 if report["problems"] else 0)
    assert "order_queries  ops_per_s" in proc.stdout


def test_every_mutant_names_text_that_occurs_once():
    """Each mutant of scripts/mutants.py still applies to exactly one place,
    is killed by test files that exist, or says why it is equivalent."""
    mutants = _load(ROOT / "scripts" / "mutants.py", "mutants")
    assert len(mutants.MUTANTS) >= 8
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert mutants.text_count(m) == 1, m.name
        assert m.old != m.new and m.tests, m.name
        assert all((ROOT / t).is_file() for t in m.tests), m.name
