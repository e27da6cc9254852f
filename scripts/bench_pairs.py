"""Paired benchmark runs of a parent commit against HEAD.

    python3 scripts/bench_pairs.py PARENT_REV [--pairs 10] [--seconds 20] [--seed 1]
                                   [--workload NAME ...] [--out pairs.json]

Run inside a git checkout.  Exports the committed files of PARENT_REV and of
HEAD (``git archive``, never the working tree) to a temporary directory and
runs ``perfbench/run.py`` in each: --pairs pairs per workload, each pair one
parent run and one HEAD run, with the side that runs first alternating from
pair to pair.  ``run.py`` pins itself and its children to one CPU; this
script pins nothing and changes no setting of the machine.

Prints the line count of src/snorder/*.py in both exports, and, per
workload and end-to-end metric of BENCHMARK.json: both medians,
the parent's interquartile range (IQR), HEAD's wins out of the pairs (ties
count for neither side), whether HEAD's median is better than the parent's
by more than that IQR, and whether it is worse by more than the metric's
bound.  Writes one JSON file with every run's result line, report line and
stderr.  Exits 1 when a run printed no result line, gave a wrong answer or
failed a larger share of its ops than its pair's parent run, or a bound is
crossed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_TIMEOUT_S = 300  # run.py ends every run inside 180 s


def git(*args) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> str:
    """Extract the committed tree of rev into dest; return its commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest.mkdir(parents=True)
    tar = dest.with_suffix(".tar")
    git("archive", "--output", str(tar), commit)
    subprocess.run(["tar", "-x", "-f", str(tar), "-C", str(dest)], check=True)
    tar.unlink()
    return commit


def src_lines(tree: Path) -> int:
    """The lines of src/snorder/*.py in tree, as wc -l counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "snorder").glob("*.py"))


def parse(line: str):
    """The JSON value of one output line, or None."""
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        return None


def bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One run of perfbench/run.py in tree: its result line and its
    {"report": ...} line (each None when it printed none), exit code and
    stderr.  The report carries the realized op mix, reference_ms and wall
    times, so a metric's move can be traced to an op kind."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        return {"result": None, "report": None, "returncode": None,
                "stderr": f"timed out: {err}"}
    docs = [parse(line) for line in proc.stdout.strip().splitlines()]
    result = docs[-1] if docs else None
    report = next((doc["report"] for doc in docs if isinstance(doc, dict) and "report" in doc),
                  None)
    if not isinstance(result, dict) or "metrics" not in result:
        result = None
    return {"result": result, "report": report, "returncode": proc.returncode,
            "stderr": proc.stderr}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def compare(pairs: list, metric: dict) -> dict:
    """The summary of one metric over (parent value, HEAD value) pairs."""
    sign = 1 if metric["better"] == "higher" else -1
    parent = [p for p, _ in pairs]
    head = [h for _, h in pairs]
    mp, mh = statistics.median(parent), statistics.median(head)
    q1, q3 = quartiles(parent)
    h1, h3 = quartiles(head)
    gain = sign * (mh - mp)  # > 0: HEAD's median is better
    return {
        "unit": metric["unit"], "better": metric["better"],
        "parent_median": mp, "head_median": mh, "parent_iqr": q3 - q1, "head_iqr": h3 - h1,
        "head_wins": sum(sign * (h - p) > 0 for p, h in pairs), "pairs": len(pairs),
        "beats_parent_iqr": gain > q3 - q1,
        "bound": metric["bound"], "bound_crossed": -gain > metric["bound"] * abs(mp),
    }


def failed_share(result: dict) -> float:
    return result["failed"] / max(result["attempted"], 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_REV")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="a workload of BENCHMARK.json (default: all of them)")
    parser.add_argument("--out", default="bench_pairs.json")
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "head")}
        commits = {"parent": export(args.parent, trees["parent"]),
                   "head": export("HEAD", trees["head"])}
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        benchmark = json.loads((trees["head"] / "BENCHMARK.json").read_text())
        workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
        runs = []
        for k in range(args.pairs):
            order = ("parent", "head") if k % 2 == 0 else ("head", "parent")
            for workload in workloads:
                for side in order:
                    run = bench(trees[side], workload, args.seed, args.seconds)
                    runs.append({"pair": k, "workload": workload, "side": side, **run})
                    print(f"pair {k + 1}/{args.pairs} {workload} {side}: "
                          f"{'ok' if run['result'] else 'NO RESULT LINE'}", file=sys.stderr)

    problems = []
    for run in runs:
        where = f"pair {run['pair'] + 1} {run['workload']} {run['side']}"
        if run["result"] is None:
            problems.append(f"{where}: no result line (exit {run['returncode']})")
        elif not run["result"]["correct"]:
            problems.append(f"{where}: wrong answer")
    summary = {}
    for workload in workloads:
        by_pair = {}
        for run in runs:
            if run["workload"] == workload and run["result"]:
                by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
        whole = [(p["parent"], p["head"]) for _, p in sorted(by_pair.items()) if len(p) == 2]
        if any(failed_share(h) > failed_share(p) for p, h in whole):
            problems.append(f"{workload}: HEAD failed a larger share of ops than the parent")
        if whole:
            summary[workload] = {
                m["name"]: compare([(p["metrics"][m["name"]]["value"],
                                     h["metrics"][m["name"]]["value"]) for p, h in whole], m)
                for m in benchmark["end_to_end"]}

    print(f"parent {commits['parent'][:12]}  HEAD {commits['head'][:12]}  "
          f"{args.pairs} pairs of {args.seconds} s, seed {args.seed}")
    print(f"src/snorder/*.py lines: parent {lines['parent']}  HEAD {lines['head']}")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            print(f"{workload:14} {name:15} parent {s['parent_median']:11.5g} "
                  f"(IQR {s['parent_iqr']:.3g})  HEAD {s['head_median']:11.5g}  "
                  f"wins {s['head_wins']}/{s['pairs']}  "
                  f"beats IQR {'yes' if s['beats_parent_iqr'] else 'no '}  "
                  f"{'BOUND CROSSED' if s['bound_crossed'] else 'within bound'}")
            if s["bound_crossed"]:
                problems.append(f"{workload} {name}: worse than the parent by more than "
                                f"{s['bound']:.0%}")
    for problem in problems:
        print(f"problem: {problem}")
    out.write_text(json.dumps({
        "parent": commits["parent"], "head": commits["head"], "pairs": args.pairs,
        "seconds": args.seconds, "seed": args.seed, "src_lines": lines, "summary": summary,
        "problems": problems, "runs": runs}, indent=1) + "\n")
    print(f"wrote {out}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
