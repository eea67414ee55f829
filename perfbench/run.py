"""dessinkit benchmark: time to exact, checked answers on seeded input batches.

    python3 perfbench/run.py --workload gallery --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

One client runs a workload's ops in a closed loop: the next op starts when the
previous one has finished, and there are no threads.  A run times a fixed
batch of rounds sized by ``--seconds`` and checks every answer.  With
``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1`` a fixed
number of rounds runs once untraced and once under ``spans.Tracer``, and the
per-layer metrics and the trace overhead are printed.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--smoke`` runs every workload, untraced and traced, at small
sizes in a few seconds.

The library is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with status 1 when it is missing.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_REPEATS = 7
# seconds one round takes at the commit that defined the benchmark (Python
# 3.11, 2 shared CPUs): a run times a fixed batch of round(seconds / this)
# rounds, so every commit times exactly the same inputs for a given seed
ROUND_SECONDS = {"gallery": 0.27, "giants": 1.0, "reduce": 2.8, "algebra": 3.75, "tour": 9.0}
# times are scaled to a host on which kernel_seconds() reads this (its median
# on the machine that defined the benchmark); the kernel runs between ops at
# least every CALIBRATE_EVERY_S, so a shared host's changing speed cancels out
REFERENCE_KERNEL_S = 0.004
CALIBRATE_EVERY_S = 0.25
# rounds of the traced run (fixed, so its counts repeat exactly)
TRACE_ROUNDS = {"gallery": 12, "giants": 2, "reduce": 2, "algebra": 2, "tour": 1}
WORKLOADS = tuple(ROUND_SECONDS)

# python source timed in fresh processes for setup_s
SETUP_CODE = {
    "gallery": "import dessinkit\nfor k in range(1, 7):\n    dessinkit.gallery_dessin(k)",
    "giants": "import dessinkit",
    "reduce": "import dessinkit",
    "algebra": "import dessinkit",
    "tour": "import dessinkit.cli",
}


def _import_library():
    if not (SRC / "dessinkit" / "__init__.py").is_file():
        sys.exit(f"error: no dessinkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dessinkit

    if Path(dessinkit.__file__).resolve().parent != SRC / "dessinkit":
        sys.exit(f"error: dessinkit imported from {dessinkit.__file__}, not {SRC}")


class Bench:
    """Builds one workload's rounds from the seed; holds the set-up it needs."""

    def __init__(self, name, seed, smoke=False):
        import workloads

        self.name, self.seed, self.smoke, self.w = name, seed, smoke, workloads
        if name == "gallery":
            self.originals = workloads.gallery_setup()
        elif name == "reduce":
            self.strata = workloads.load_reduce_pool()
        elif name == "tour":
            self.golden = workloads.load_golden()
            if smoke:
                self.golden = [c for c in self.golden if "distinct" not in c["argv"]][:6]

    def rounds(self, count, inprocess=False, tracer=None):
        w, seed = self.w, self.seed
        if self.name == "gallery":
            return w.gallery_rounds(seed, count, self.originals)
        if self.name == "giants":
            return w.giants_rounds(seed, count, (10, 12) if self.smoke else w.GIANT_DEGREES)
        if self.name == "reduce":
            per_round = {"heavy": 0, "medium": 0, "light": 6} if self.smoke else w.REDUCE_ROUND
            return w.reduce_rounds(seed, count, self.strata, per_round)
        if self.name == "algebra":
            if self.smoke:
                return w.algebra_rounds(seed, count, (3,), (3,), 3, 2)
            return w.algebra_rounds(seed, count)
        workdir = WORKDIR / "tour"
        workdir.mkdir(parents=True, exist_ok=True)
        return w.tour_rounds(seed, count, ROOT, workdir, self.golden, inprocess, tracer)


def _kernel():
    """Fixed work of the kinds the library does: composing permutation tuples
    into a dict of a few hundred entries, and big-integer gcds.  It is
    benchmark code, so no change to the library moves its time; only the
    host's current speed does."""
    n = 30
    perm = tuple((7 * i + 3) % n for i in range(n))
    step = tuple((11 * i + 5) % n for i in range(n))
    table = {}
    x = perm
    for i in range(900):
        x = tuple(x[j] for j in step) if i % 2 else tuple(perm[j] for j in x)
        table[x] = table.get(x, 0) + i
    a, b = 3**2000 + 1, 7**1400 + 3
    for k in range(6):
        math.gcd(a * b + k, a + b + k)
    return len(table)


def kernel_seconds():
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def host_factor(samples):
    """Scale from the host's speed during a measurement to the reference
    speed, from the kernel timings taken around it."""
    return REFERENCE_KERNEL_S * len(samples) / sum(samples)


def run_rounds(rounds, tracer=None):
    """Closed loop over every op of every round, consuming ``rounds``.

    The calibration kernel runs between ops at least every ``CALIBRATE_EVERY_S``.
    Returns the per-op durations scaled to the reference host speed, the
    failed ops, and the raw wall time of the loop."""
    durations, brackets, failures = [], [], []
    samples = [kernel_seconds()]
    clock = time.perf_counter
    rounds.reverse()
    start = last = clock()
    while rounds:
        # popped, so a finished round's objects are freed before the next one
        for op in rounds.pop():
            if tracer is not None:
                tracer.op += 1
            t0 = clock()
            try:
                result = op.call()
            except Exception as exc:  # a typed error can be the expected answer
                result = exc
            durations.append(clock() - t0)
            brackets.append(len(samples) - 1)
            try:
                ok = op.check(result)
            except Exception as exc:
                ok, result = False, exc
            if not ok:
                failures.append((op.label, result))
            if clock() - last >= CALIBRATE_EVERY_S:
                samples.append(kernel_seconds())
                last = clock()
    wall = clock() - start
    samples.append(kernel_seconds())
    # the two kernel timings on each side of the op, to damp the kernel's own noise
    scaled = [d * host_factor(samples[max(0, i - 1):i + 3]) for d, i in zip(durations, brackets)]
    return scaled, failures, wall


def report_failures(failures):
    for label, result in failures[:5]:
        print(f"FAILED {label}: {result!r}", file=sys.stderr)
        if isinstance(result, BaseException):
            traceback.print_exception(result, file=sys.stderr)


def tail(values):
    """The highest whole percentile with at least ten values above it, and its
    nearest-rank value."""
    n = len(values)
    pct = max(0, 100 * (n - 10) // n) if n else 0
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(values)[rank - 1]


def setup_seconds(name):
    """Median over fresh processes of spawn-to-exit time, host-scaled."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        before = kernel_seconds()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE[name]], env=env, cwd=ROOT,
                       check=True)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * host_factor([before, kernel_seconds()]))
    return statistics.median(times)


def measure(bench, seconds):
    """End-to-end metrics of one workload (tracing off)."""
    setup = setup_seconds(bench.name)
    count = max(1, round(seconds / ROUND_SECONDS[bench.name]))
    durations, failures, wall = run_rounds(bench.rounds(count))
    pct, tail_value = tail(durations)
    who = resource.RUSAGE_CHILDREN if bench.name == "tour" else resource.RUSAGE_SELF
    n = len(durations)
    busy = sum(durations)
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (n / busy, "ops/s"),
        "op_p50_ms": (1000 * statistics.median(durations), "ms"),
        "op_tail_ms": (1000 * tail_value, "ms"),
        "peak_rss_mib": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh processes",
        "ops_per_s": f"{n} ops in {count} rounds; {busy:.3f} s in ops at reference speed, "
                     f"{wall:.3f} s wall as run",
        "op_tail_ms": f"p{pct} of N={n} ops",
    }
    return n, failures, metrics, notes


def measure_traced(bench):
    """Per-layer metrics: the same rounds untraced, then traced."""
    import spans

    count = 1 if bench.smoke else TRACE_ROUNDS[bench.name]
    inprocess = bench.name == "tour"
    cwd = os.getcwd()
    if inprocess:  # `gallery export --out` writes relative to the working directory
        (WORKDIR / "tour").mkdir(parents=True, exist_ok=True)
        os.chdir(WORKDIR / "tour")
    try:
        plain, failures, untraced = run_rounds(bench.rounds(count, inprocess))
        with spans.Tracer() as tracer:
            rounds = bench.rounds(count, inprocess, tracer)
            traced_durations, traced_failures, traced = run_rounds(rounds, tracer)
    finally:
        os.chdir(cwd)
    values = tracer.metrics()
    values["trace.wall_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    metrics = {name: (values[name], unit) for name, unit in spans.PER_LAYER + spans.TRACE_METRICS}
    notes = {name: f"{100 * value / traced:.1f}% of traced wall time"
             for name, (value, unit) in metrics.items()
             if name.endswith(".self_s") and value and traced}
    n = len(plain) + len(traced_durations)
    return n, failures + traced_failures, metrics, notes


def print_result(name, n, failures, metrics, notes):
    print(f"workload {name}: {n} ops attempted, {len(failures)} failed")
    rows = dict(metrics)
    rows["failed_ratio"] = (len(failures) / n if n else 1.0, "fraction")
    for key, (value, unit) in rows.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:<32} {value:>16.6g} {unit}{note}")
    print(json.dumps({
        "correct": not failures and n > 0,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def smoke():
    """Every workload, untraced and traced, at small sizes; returns the
    number of failed or empty runs."""
    bad = 0
    for name in WORKLOADS:
        bench = Bench(name, seed=1, smoke=True)
        durations, failures, _ = run_rounds(bench.rounds(1))
        traced_n, traced_failures, _, _ = measure_traced(bench)
        for label, n, failed in (("untraced", len(durations), failures),
                                 ("traced", traced_n, traced_failures)):
            report_failures(failed)
            print(f"smoke {name} {label}: {n} ops, {len(failed)} failed")
            bad += bool(failed) + (n == 0)
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="all workloads, small sizes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    _import_library()
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the benchmark and the processes it starts, so the
        # calibration kernel times the CPU the measured work runs on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.smoke:
            return 1 if smoke() else 0
        bench = Bench(args.workload, args.seed)
        print(f"# python {platform.python_version()}, {os.cpu_count()} CPUs, "
              f"seed {args.seed}, {args.seconds:g} s")
        if args.trace:
            result = measure_traced(bench)
        else:
            result = measure(bench, args.seconds)
        report_failures(result[1])
        print_result(args.workload, *result)
        return 1 if result[1] else 0
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
