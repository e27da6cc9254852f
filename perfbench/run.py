"""snorder benchmark: closed-loop, single-process, single-thread workloads.

    python3 perfbench/run.py --workload jordan_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the package is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run.  End-
to-end times are host-normalized (HostClock): each stretch of work is scaled
by a fixed reference timed next to it, so that a shared host's changing
speed does not show as a change in snorder.  The line before it is a report
with the build stamp, ``failed_ratio``, the realized op mix and the wall
times.  The exit code is 1 when the program gave a wrong answer
and 2 when the tree or the arguments are unusable.  See README.md for the
workloads and what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 100          # at least ten samples beyond the p90
RUN_CAP_S = 150.0      # every run ends well inside the 180 s limit
SETUP_PROBES = 4       # fresh-interpreter set-ups, besides this process's own
CHILD_TIMEOUT_S = 60.0
CLI_STARTUP_PROBES = 5
CLI_TRACE_BLOCKS = 3   # child runs per subcommand in the traced cli_cold run

# Host-speed references (see HostClock): one runs at most a gap after the
# previous one, so the work between two of them sees the same host.  The
# nominal time is what a reference takes on the host that normalized figures
# assume.
REF_STEPS = 1000
CHUNK_GAP_S = 0.025        # reference_s: set-ups and in-process workloads
CHUNK_NOMINAL_S = 0.002
IMPORTS_GAP_S = 1.0        # ChildRunner.imports_s: the cli_cold loop
IMPORTS_NOMINAL_S = 0.200
IMPORTS_SPAN = 3           # its references are noisy: smooth over six

# ops in the traced run, per second of --seconds
TRACE_OPS_PER_S = {"jordan_sweep": 9, "order_queries": 43}


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def use_source_tree():
    if not (SRC / "snorder" / "__init__.py").is_file():
        die(f"no snorder package under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def pin_to_one_cpu():
    """Run this process and its children on one CPU, the last one allowed.
    Other tenants slow each CPU of a shared host by a different amount, so
    a reference only tells the speed of the work it is paired with when
    both run on the same CPU.  Unpinned, the p90 of cli_cold, whose
    children land on either CPU, spread twice as much from run to run."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def reference_s() -> float:
    """Seconds a fixed piece of stdlib work takes just now, i.e. how fast
    the host runs Python at this moment.  It is Fraction and big-integer
    arithmetic, like snorder's own, and uses no snorder code, so a change to
    snorder leaves it alone.  The collector is off while it runs, so that
    snorder's heap cannot slow it down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, x = Fraction(0), 1
        for i in range(1, REF_STEPS):
            acc += Fraction(i % 7 + 1, i % 5 + 2)
            x = (x * 3 + i) % (1 << 300)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def make_workload(name: str, seed: int):
    """Imports, input generation and expected answers: the timed set-up."""
    import snorder
    import workloads

    if Path(snorder.__file__).resolve().parent != SRC / "snorder":
        die(f"imported snorder from {snorder.__file__}, not from {SRC}")
    if name == "jordan_sweep":
        w = workloads.JordanSweep(seed)
    elif name == "order_queries":
        w = workloads.OrderQueries(seed)
    else:
        OUT.mkdir(exist_ok=True)
        w = workloads.CliCold(seed, str(OUT / f"cli-{os.getpid()}"))
    return w


def timed_setup(name: str, seed: int):
    """(workload, wall seconds, host-normalized seconds) of the set-up.  A
    one-shot timer, re-armed after each reference, runs `reference_s`
    every CHUNK_GAP_S between the set-up's own bytecodes, so that each
    stretch of set-up is paired with the host speed of its moment."""
    clock = HostClock(reference_s, CHUNK_NOMINAL_S, CHUNK_GAP_S)

    def tick(signum, frame):
        clock.mark(time.perf_counter())
        signal.setitimer(signal.ITIMER_REAL, CHUNK_GAP_S)

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, CHUNK_GAP_S)
    try:
        w = make_workload(name, seed)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    clock.mark(time.perf_counter())
    return w, clock.wall_s, clock.scaled_s


def probe_setup(name: str, seed: int) -> list:
    """[wall, host-normalized] set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        die(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class ChildRunner:
    """Runs one child process at a time and keeps the children's peak RSS."""

    def __init__(self):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.peak_kb = 0
        OUT.mkdir(exist_ok=True)
        self.errfile = OUT / f"stderr-{os.getpid()}.txt"

    def sno(self, argv):
        return self.run([sys.executable, "-m", "snorder.cli"] + list(argv))

    def imports_s(self) -> float:
        """Seconds a child that imports sno's dependencies, numpy and
        jsonschema, takes just now: how fast the host starts a process like
        sno.  It tracks sno children far better than an in-process
        reference or `python -c pass` does."""
        t0 = time.perf_counter()
        code, _ = self.run([sys.executable, "-c", "import numpy, jsonschema"])
        if code != 0:
            die(f"python -c 'import numpy, jsonschema' exited {code}")
        return time.perf_counter() - t0

    def run(self, cmd):
        """(exit code, stdout) of cmd; the child is killed after CHILD_TIMEOUT_S."""
        with open(self.errfile, "w+b") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            reaped = False
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                proc.stdout.close()
                if not reaped:
                    proc.kill()
                    proc.wait()
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
            if proc.returncode != 0:
                err.seek(0)
                sys.stderr.write(err.read().decode(errors="replace")[-2000:])
        return proc.returncode, out.decode()

    def close(self):
        self.errfile.unlink(missing_ok=True)


class HostClock:
    """Host-normalized time for work done between runs of a reference.

    ``measure()`` times a fixed reference.  It runs when the clock starts
    and at every `mark`, which callers make once `due` says that gap_s has
    passed.  Each stretch of work between two references is scaled by
    nominal_s over the median of the `span` references on either side of
    it: what it would have taken on a host that runs the reference in
    nominal_s.  On a shared host whose speed changes from one second to the
    next, this pairs each stretch with the host speed of its own moment.
    Reference time is not work time."""

    def __init__(self, measure, nominal_s: float, gap_s: float, span: int = 1):
        self.measure = measure
        self.nominal_s = nominal_s
        self.gap_s = gap_s
        self.span = span
        self.refs = [measure()]
        self.stretches = []      # (wall seconds, op latencies) between two refs
        self.start = time.perf_counter()

    def due(self, now: float) -> bool:
        return now - self.start >= self.gap_s

    def mark(self, now: float, latencies=()):
        """Close the stretch that ends at `now`, with the ops timed in it."""
        self.refs.append(self.measure())
        self.stretches.append((now - self.start, list(latencies)))
        self.start = time.perf_counter()

    def scales(self) -> list:
        h = self.span
        return [self.nominal_s / statistics.median(self.refs[max(0, i + 1 - h):i + 1 + h])
                for i in range(len(self.stretches))]

    @property
    def wall_s(self) -> float:
        return sum(wall for wall, _ in self.stretches)

    @property
    def scaled_s(self) -> float:
        return sum(wall * k for (wall, _), k in zip(self.stretches, self.scales()))

    def scaled_latencies(self) -> list:
        return [x * k for (_, lat), k in zip(self.stretches, self.scales()) for x in lat]


class Tally:
    """Outcome of every op attempted, and the latency of each."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.latencies = []      # wall seconds
        self.by_kind = defaultdict(list)

    def drive(self, ops, seconds=None, min_ops=0, tracer=None, clock=None):
        """Run ops one at a time (closed loop) until `seconds` have passed and
        `min_ops` were attempted, or else until the ops run out.  Returns the
        wall time.  With a HostClock, a reference runs whenever its gap has
        passed since the last one."""
        from snorder.errors import SnorderError
        from workloads import WrongAnswer

        start = time.perf_counter()
        stretch = []
        done = 0
        now = start
        for op in ops:
            self.attempted += 1
            done += 1
            if tracer is not None:
                tracer.op = self.attempted
            t0 = time.perf_counter()
            try:
                result = op.run()
                error = None
            except SnorderError as err:
                error = err
            finally:
                latency = time.perf_counter() - t0
                if tracer is not None:
                    tracer.op = None
            self.latencies.append(latency)
            self.by_kind[op.kind].append(latency)
            ok = False
            if error is not None:
                print(f"perfbench: {op.kind} raised {type(error).__name__}: {error}",
                      file=sys.stderr)
            else:
                try:
                    op.check(result)
                    ok = True
                except WrongAnswer as err:
                    self.wrong.append(f"{op.kind}: {err}")
                    print(f"perfbench: wrong answer on {op.kind}: {err}", file=sys.stderr)
            self.failed += not ok
            stretch.append(latency)
            now = time.perf_counter()
            stop = ((seconds is not None and now - start >= seconds and done >= min_ops)
                    or now >= self.deadline)
            if clock is not None and (stop or clock.due(now)):
                clock.mark(now, stretch)
                stretch = []
            if stop:
                break
        if clock is not None and stretch:
            clock.mark(now, stretch)
        return time.perf_counter() - start

    def mix(self) -> dict:
        total = sum(self.latencies) or 1.0
        return {k: {"ops": len(v), "time_share": sum(v) / total}
                for k, v in sorted(self.by_kind.items())}


def stamp() -> dict:
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "src_lines": src_lines}


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(name, seed, seconds, deadline):
    setups = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    w, wall, scaled = timed_setup(name, seed)
    setups.append([wall, scaled])
    tally = Tally(deadline)
    children = ChildRunner() if name == "cli_cold" else None
    try:
        if children:
            clock = HostClock(children.imports_s, IMPORTS_NOMINAL_S, IMPORTS_GAP_S,
                              IMPORTS_SPAN)
            ops = w.ops(children.sno)
        else:
            ops, clock = w.ops(), HostClock(reference_s, CHUNK_NOMINAL_S, CHUNK_GAP_S)
        elapsed = tally.drive(ops, seconds, MIN_OPS, clock=clock)
    finally:
        w.close()
        if children:
            children.close()
    if children:
        peak_kb = children.peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok = tally.attempted - tally.failed
    lat_ms = [x * 1e3 for x in clock.scaled_latencies()]
    wall_ms = [x * 1e3 for x in tally.latencies]
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "ops_per_s": (ok / clock.scaled_s, "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (p90(lat_ms), "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    wall = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": ok / clock.wall_s,
        "latency_p50_ms": statistics.median(wall_ms),
        "latency_p90_ms": p90(wall_ms),
    }
    refs_ms = [x * 1e3 for x in clock.refs]
    extra = {"wall": wall, "setup_samples_s": setups, "elapsed_s": elapsed,
             "mix": tally.mix(),
             "reference_ms": {"nominal": clock.nominal_s * 1e3, "count": len(refs_ms),
                              "p10": statistics.quantiles(refs_ms, n=10)[0],
                              "median": statistics.median(refs_ms), "p90": p90(refs_ms)},
             "latency_samples": len(lat_ms),
             "samples_beyond_p90": sum(1 for x in lat_ms if x > metrics["latency_p90_ms"][0])}
    return tally, metrics, extra


def traced(name, seed, seconds, deadline):
    from tracing import Tracer
    from workloads import CliCold

    w = make_workload(name, seed)
    tally = Tally(deadline)
    cli = {}
    try:
        if name == "cli_cold":
            children = ChildRunner()
            try:
                cli = cli_layers(w, tally, children)
            finally:
                children.close()
            passes = max(1, seconds // 10)
            fixed = [op for _ in range(passes) for op in w.inprocess_ops()]
        else:
            count = TRACE_OPS_PER_S[name] * max(1, seconds)
            fixed = list(itertools.islice(w.ops(), count))
        # untraced passes before and after the traced one, against drift
        plain, plain_after, traced_tally = (Tally(deadline) for _ in range(3))
        plain.drive(fixed)
        tracer = Tracer()
        tracer.install()
        try:
            traced_tally.drive(fixed, tracer=tracer)
        finally:
            tracer.uninstall()
        plain_after.drive(fixed)
    finally:
        w.close()
    for t in (plain, traced_tally, plain_after):
        tally.attempted += t.attempted
        tally.failed += t.failed
        tally.wrong += t.wrong
    op_seconds = sum(traced_tally.latencies)
    metrics = tracer.metrics(op_seconds)
    for sub in CliCold.SUBCOMMANDS:
        metrics[f"cli.{sub}.p50_ms"] = (cli.get(sub, 0.0), "ms")
    metrics["cli.interpreter_start_ms"] = (cli.get("start", 0.0), "ms")
    metrics["cli.import_ms"] = (cli.get("import", 0.0), "ms")
    plain_seconds = (sum(plain.latencies) + sum(plain_after.latencies)) / 2
    metrics["trace.overhead_ratio"] = (op_seconds / plain_seconds, "ratio")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl.gz"
    tracer.dump(str(spans_path))
    extra = {"traced_ops": len(fixed), "spans": len(tracer.spans),
             "spans_file": str(spans_path.relative_to(ROOT)), "mix": traced_tally.mix()}
    return tally, metrics, extra


def cli_layers(w, tally, children) -> dict:
    """Process start, import cost and per-subcommand latency of ``sno``."""
    def median_ms(cmd):
        times = []
        for _ in range(CLI_STARTUP_PROBES):
            t0 = time.perf_counter()
            code, _ = children.run(cmd)
            times.append((time.perf_counter() - t0) * 1e3)
            if code != 0:
                die(f"{' '.join(cmd)} exited {code}")
        return statistics.median(times)

    start = median_ms([sys.executable, "-c", "pass"])
    imported = median_ms([sys.executable, "-c", "import snorder.cli"])
    per_block = len(w.SUBCOMMANDS)
    tally.drive(itertools.islice(w.ops(children.sno), CLI_TRACE_BLOCKS * per_block))
    out = {sub: statistics.median(v) * 1e3 for sub, v in tally.by_kind.items()}
    out.update(start=start, **{"import": imported - start})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("jordan_sweep", "order_queries", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_CAP_S
    use_source_tree()
    pin_to_one_cpu()
    if args.setup_probe:
        w, wall, scaled = timed_setup(args.workload, args.seed)
        w.close()
        print(json.dumps([wall, scaled]))
        return 0
    if args.trace:
        tally, metrics, extra = traced(args.workload, args.seed, args.seconds, deadline)
    else:
        tally, metrics, extra = end_to_end(args.workload, args.seed, args.seconds, deadline)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "stamp": stamp(),
        "failed_ratio": {"value": tally.failed / max(tally.attempted, 1), "unit": "ratio"},
        "wrong_answers": tally.wrong[:10], **extra,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if tally.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
