#!/usr/bin/env python3
"""isingexact benchmark: three workloads, checked answers, metrics by name.

    python3 perfbench/run.py --workload crossval --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
Workloads (see workloads.py): `crossval`, `large_lattice`, `cli`.  One
process drives one closed-loop client: each pass runs the workload's task
list in order, and passes repeat until `--seconds` have elapsed (at least
one pass).  Every task's routes must agree pairwise to 1e-8 relative; a task that raises,
returns a non-finite value or misses the gate is counted as failed and the
run goes on.  BLAS thread counts and ISING_THREADS are pinned to the number
of usable CPUs.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same passes
untraced and then traced, prints the per-layer metrics of the traced passes
and `trace_overhead_s`, the difference of their median pass walls, and
requires both to return bit-identical values.

stdout ends with two lines: a JSON record (host, versions, thread caps,
seed, commit, every metric with its sample count, failures), then the result
object {"correct", "attempted", "failed", "metrics"}.  Exits 2 without a
result when the checkout has no sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

STARTUP_REPEATS = 3      # set-up and cold-start samples before and again after the passes
IMPORTTIME_REPEATS = 3
DIGITS_CAP = 17          # digits reported when two routes agree exactly


def pin_threads() -> dict:
    cpus = str(len(os.sched_getaffinity(0)))
    caps = {name: cpus for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "ISING_THREADS")}
    os.environ.update(caps)
    return caps


def pin_hash_seed() -> None:
    """Re-execute under PYTHONHASHSEED=0 unless already there.

    String hashing sets the layout of every dict the interpreter uses; with a
    random seed per process, the ms-scale tasks ran up to 1.6x slower in some
    processes than in others.  Child processes inherit the pin."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


@dataclass
class Attempt:
    task: int              # index into the workload's task list
    result: object
    error: str | None
    latency: float


@dataclass
class Window:
    """Attempts and timings of consecutive passes over a task list."""
    passes: list = field(default_factory=list)      # per pass: [Attempt] in task order
    pass_walls: list = field(default_factory=list)

    def attempts(self) -> list:
        return [a for attempts in self.passes for a in attempts]

    def latencies(self, task: int) -> list:
        return [a.latency for a in self.attempts() if a.task == task]


def attempt(workload, i, tracer=None) -> Attempt:
    t0 = time.perf_counter()
    try:
        result, error = workload.tasks[i].run(tracer=tracer), None
    except Exception as exc:   # a failing task is counted, not fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    return Attempt(i, result, error, time.perf_counter() - t0)


def run_window(workload, tracer=None, seconds=None, passes=None) -> Window:
    """Closed loop: whole passes until `seconds` elapse, or exactly `passes`.

    Every pass starts with an empty DOS cache, as a fresh process would."""
    w = Window()
    cache = workload.dos_cache
    start = time.perf_counter()
    while not w.pass_walls or (len(w.pass_walls) < passes if passes
                               else time.perf_counter() - start < seconds):
        if cache is not None:
            cache.clear()
        t_pass = time.perf_counter()
        w.passes.append([])
        for i in range(len(workload.tasks)):
            if tracer is not None:
                tracer.request = f"{len(w.pass_walls)}:{i}"
            w.passes[-1].append(attempt(workload, i, tracer))
        w.pass_walls.append(time.perf_counter() - t_pass)
    return w


def spread(values) -> float:
    """Largest pairwise relative difference; inf if any value is not finite."""
    values = [float(v) for v in values]
    if not all(math.isfinite(v) for v in values):
        return math.inf
    worst = 0.0
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            scale = max(abs(a), abs(b))
            if scale > 0.0:
                worst = max(worst, abs(a - b) / scale)
    return worst


def verify(workload, window, gate) -> tuple:
    """(attempted, failures, digits of every passing attempt)."""
    failures, digits = [], []
    for a in window.attempts():
        task, error = workload.tasks[a.task], a.error
        if error is None:
            try:
                delta = max(spread(g) for g in task.check(a.result))
            except Exception as exc:
                error = f"check {type(exc).__name__}: {exc}"
            else:
                if not delta <= gate:
                    error = f"routes disagree by {delta:.3g} (gate {gate:g})"
        if error is None:
            digits.append(-math.log10(max(delta, 10.0 ** -DIGITS_CAP)))
        else:
            failures.append(f"{task.name}: {error}")
    return len(window.attempts()), failures, digits


def timed_subprocess(cmd, env) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def startup_samples(workload, seed, env, setup, cold) -> None:
    """Append set-up and cold-start latencies, each in a fresh interpreter.

    Set-up imports the package and builds the workload's inputs; cold start
    is `ising critical`, which the cli workload times in its own passes."""
    for _ in range(STARTUP_REPEATS):
        setup.append(timed_subprocess([sys.executable, str(HERE / "run.py"), "--setup-only",
                                       "--workload", workload, "--seed", str(seed)], env))
        if workload != "cli":
            cold.append(timed_subprocess(
                [sys.executable, "-m", "isingexact.cli", "critical"], env))


def import_times(env) -> tuple:
    """(isingexact.cli import, scipy share) from `python -X importtime`, in s.

    scipy counts every scipy module not already inside another scipy entry."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import isingexact.cli"],
                          env=env, check=True, capture_output=True, text=True, timeout=120)
    entries = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(parts[1]) * 1e-6))
    total = scipy = 0.0
    stack = []   # (depth, inside scipy) along the current branch
    for depth, name, cumulative in reversed(entries):   # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy += cumulative
        if name == "isingexact.cli" and depth == 0:
            total = cumulative
        stack.append((depth, inside or is_scipy))
    return total, scipy


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(caps) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_caps": caps, "hash_seed": os.environ["PYTHONHASHSEED"],
            "commit": git_commit()}


def kind_latencies(workload, window, kind) -> list:
    return [a.latency for a in window.attempts() if workload.tasks[a.task].kind == kind]


def best_latencies(workload, window) -> list:
    return [min(window.latencies(i)) for i in range(len(workload.tasks))]


def end_to_end(workload, window, digits, setup, cold) -> dict:
    """End-to-end metrics, medians of their samples; set-up and cold start
    only where measured."""
    if workload.name == "cli":
        cold = kind_latencies(workload, window, "critical")
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"setup_s": setup,
           "wall_s": window.pass_walls,
           "peak_rss_mb": [rss_kb / 1024.0],
           "min_digits_agree": [min(digits) if digits else 0.0],
           "cold_start_s": cold}
    return {name: statistics.median(v) for name, v in out.items() if v}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, build the inputs and exit")
    args = parser.parse_args(argv)

    if not (SRC / "isingexact" / "__init__.py").is_file():
        print(f"error: no isingexact sources under {SRC}", file=sys.stderr)
        return 2
    pin_hash_seed()
    caps = pin_threads()
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    if args.setup_only:
        return 0
    env = workloads.cli_env()

    # samples on both sides of the passes see more of the host's load swings
    setup, cold = [], []
    if not args.trace:
        startup_samples(args.workload, args.seed, env, setup, cold)
    window = run_window(workload, seconds=args.seconds)
    if not args.trace:
        startup_samples(args.workload, args.seed, env, setup, cold)
    attempted, failures, digits = verify(workload, window, workloads.GATE)
    e2e = end_to_end(workload, window, digits, setup, cold)
    # task latencies (each task's best pass) are recorded, not gated: on a
    # shared host the ms-scale tasks swing too much between runs
    best = best_latencies(workload, window)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_record(caps),
              "passes": len(window.pass_walls), "task_samples": len(best),
              "task_p50_s": statistics.median(best), "end_to_end": e2e}
    # p90 only where at least ten samples lie beyond it
    if len(best) >= 100:
        record["task_p90_s"] = statistics.quantiles(best, n=10)[-1]

    metrics = e2e
    if args.trace:
        from spans import Tracer, layer_metrics
        tracer = Tracer()
        with tracer:
            traced = run_window(workload, tracer=tracer, passes=len(window.pass_walls))
        t_attempted, t_failures, _ = verify(workload, traced, workloads.GATE)
        attempted += t_attempted
        failures += t_failures
        for p, (plain, seen) in enumerate(zip(window.passes, traced.passes)):
            for task, a, b in zip(workload.tasks, plain, seen):
                if a.error is None and b.error is None and a.result != b.result:
                    failures.append(f"{task.name}: traced pass {p} differs from untraced")
        layers = layer_metrics([tracer.spans] + tracer.groups, len(traced.pass_walls),
                               sweep_workers=min(int(caps["ISING_THREADS"]), workloads.SWEEP_STEPS))
        imports = [import_times(env) for _ in range(IMPORTTIME_REPEATS)]
        layers["cli.import_s"] = statistics.median(t for t, _ in imports)
        layers["cli.import_scipy_s"] = statistics.median(s for _, s in imports)
        for kind in ("compare", "sweep", "free_energy"):
            kind_times = kind_latencies(workload, window, kind)
            layers[f"cli.{kind}_s"] = statistics.median(kind_times) if kind_times else 0.0
        layers["trace_overhead_s"] = (statistics.median(traced.pass_walls)
                                      - statistics.median(window.pass_walls))
        record["per_layer"] = layers
        metrics = layers

    record["attempted"] = attempted
    record["failed"] = len(failures)
    record["fail_ratio"] = len(failures) / attempted
    record["failures"] = failures[:20]
    print(json.dumps({"record": record}))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
