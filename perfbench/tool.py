#!/usr/bin/env python3
"""Helpers around the perfbench binary.

  python3 perfbench/tool.py spread --workload lease_window --seeds 1-10 [--seconds 10] [--trace 0] [--save DIR]
      Runs the benchmark once per seed (from the repository root, through
      cargo) and prints each metric's median and its spread: the distance
      between the first and third quartile as a share of the median.

  python3 perfbench/tool.py compare BASE NEW
      BASE and NEW are files or directories of saved run outputs (stdout of
      the benchmark, as `spread --save` writes them). Prints, per workload
      and metric, both medians and the change. Refuses to compare runs whose
      host stamps differ in anything but the measured clock-read cost.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("vcpus", "cpu_model", "kernel", "clocksource")


def parse_output(text):
    """(host, workload, result) from one run's stdout."""
    host, workload, result = None, None, None
    for line in text.splitlines():
        if line.startswith('{"host"'):
            host = json.loads(line)["host"]
        elif line.startswith("# workload "):
            workload = line.split()[2]
        elif line.startswith('{"correct"'):
            result = json.loads(line)
    if host is None or workload is None or result is None:
        raise ValueError("not a perfbench output")
    return host, workload, result


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def seeds(text):
    if "-" in text:
        low, high = (int(x) for x in text.split("-"))
        return list(range(low, high + 1))
    return [int(x) for x in text.split(",")]


def cmd_spread(args):
    command = ["cargo", "run", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml", "--"]
    runs = []
    for seed in seeds(args.seeds):
        argv = command + ["--workload", args.workload, "--seed", str(seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stdout}\n{done.stderr}")
        if args.save:
            out = Path(args.save)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{args.workload}-t{args.trace}-s{seed}.txt").write_text(done.stdout)
        _, _, result = parse_output(done.stdout)
        key = "per_layer" if args.trace else "end_to_end"
        expected = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
        if set(result["metrics"]) != expected:
            sys.exit(f"seed {seed}: metrics differ from BENCHMARK.json {key}: "
                     f"{sorted(set(result['metrics']) ^ expected)}")
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
    print(f"{'metric':40} {'median':>16} {'iqr/median':>11}  unit")
    for name, first in runs[0]["metrics"].items():
        median, share = spread([run["metrics"][name]["value"] for run in runs])
        print(f"{name:40} {median:16.6g} {share:11.4f}  {first['unit']}")


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.txt")) if path.is_dir() else [path]
    return [parse_output(f.read_text()) for f in files]


def cmd_compare(args):
    base, new = load(args.base), load(args.new)
    stamps = {tuple(host[k] for k in HOST_KEYS) for host, _, _ in base + new}
    if len(stamps) != 1:
        sys.exit("refusing to compare results from different hosts:\n" +
                 "\n".join(str(dict(zip(HOST_KEYS, s))) for s in sorted(stamps)))
    for workload in sorted({w for _, w, _ in base}):
        old_runs = [r for _, w, r in base if w == workload]
        new_runs = [r for _, w, r in new if w == workload]
        if not new_runs:
            continue
        print(f"== {workload} ({len(old_runs)} vs {len(new_runs)} runs)")
        for name, first in old_runs[0]["metrics"].items():
            old = statistics.median(r["metrics"][name]["value"] for r in old_runs)
            cur = statistics.median(r["metrics"][name]["value"] for r in new_runs if name in r["metrics"])
            change = (cur - old) / abs(old) if old else 0.0
            print(f"{name:40} {old:14.6g} {cur:14.6g} {change:+8.2%}  {first['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", default="1-5")
    s.add_argument("--seconds", type=int, default=10)
    s.add_argument("--trace", type=int, default=0)
    s.add_argument("--save")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = parser.parse_args()
    {"spread": cmd_spread, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    main()
