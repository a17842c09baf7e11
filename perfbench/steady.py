"""Collect result sets over seeds and print two of them side by side.

    python3 perfbench/steady.py collect OUT.jsonl --seeds 1-10 [--workloads crossval,cli] [--trace 1]
    python3 perfbench/steady.py compare A.jsonl [B.jsonl]

`collect` runs `run.py` once per workload and seed and appends each run's
record and result to OUT.jsonl (perfbench/results/ is ignored by git).  `compare` prints, per workload and metric,
the median and quartiles of each set, the quartile spread as a share of the
median, and for two sets the change of B's median against A's in the
metric's worse direction.  A spread is marked `!` when it is not below a
third of the metric's bound in BENCHMARK.json, a change when it exceeds the
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def collect(args) -> int:
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in SPEC["workloads"]]
    with open(args.out, "a") as out:
        for name in names:
            for seed in seeds(args.seeds):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                     "--trace", str(args.trace)],
                    capture_output=True, text=True, timeout=600)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                    return 1
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": name, "seed": seed, "result": result,
                                      "record": json.loads(lines[-2])["record"]}) + "\n")
                out.flush()
                print(f"{name} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
    return 0


def load(path) -> dict:
    """{(workload, metric): [values]} from one result set."""
    values = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        run = json.loads(line)
        for metric, m in run["result"]["metrics"].items():
            values[(run["workload"], metric)].append(m["value"])
    return values


def summary(values) -> tuple:
    """(median, q1, q3, quartile spread / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def compare(args) -> int:
    sets = [load(p) for p in args.sets]
    metrics = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    keys = sorted(set().union(*sets), key=lambda k: (k[0], list(metrics).index(k[1])))
    header = f"{'workload':14} {'metric':24}" + "".join(
        f" | {'set ' + 'AB'[i]:>10} {'q1':>10} {'q3':>10} {'spread':>7}" for i in range(len(sets)))
    print(header + (" | B vs A   bound" if len(sets) == 2 else ""))
    for workload, name in keys:
        spec = metrics[name]
        bound = spec.get("bound")
        row = f"{workload:14} {name:24}"
        meds = []
        for values in sets:
            vals = values.get((workload, name))
            if not vals:
                row += f" | {'-':>10} {'':>10} {'':>10} {'':>7}"
                continue
            med, q1, q3, spr = summary(vals)
            meds.append(med)
            flag = "!" if bound is not None and name != "setup_s" and spr >= bound / 3 else " "
            row += f" | {med:10.4g} {q1:10.4g} {q3:10.4g} {spr:6.3f}{flag}"
        if len(sets) == 2 and len(meds) == 2 and meds[0]:
            worse = (meds[1] - meds[0]) / abs(meds[0])
            if spec["better"] == "higher":
                worse = -worse
            flag = "!" if bound is not None and worse > bound else " "
            row += f" | {worse:+7.3f}{flag} {bound if bound is not None else '-'}"
        print(row)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect")
    p.add_argument("out")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default="")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=collect)
    p = sub.add_parser("compare")
    p.add_argument("sets", nargs="+", help="one or two result files")
    p.set_defaults(func=compare)
    args = parser.parse_args()
    if args.cmd == "compare" and len(args.sets) > 2:
        parser.error("compare takes one or two result sets")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
