#!/usr/bin/env python3
"""Same-host A/B of two perfbench binaries against the BENCHMARK.json bounds.

  python3 tools/perf_ab.py BASE_BIN HEAD_BIN
  python3 tools/perf_ab.py BASE_BIN HEAD_BIN --claim WORKLOAD:METRIC [--pairs N] [--first-seed S]

BASE_BIN and HEAD_BIN are built perfbench binaries, typically of the merge
base and of the change under review, built on the host that runs this.
For every workload in BENCHMARK.json the script runs PAIRS alternating
pairs of untraced runs of `run_seconds` each: the base goes first on even
pairs, the head on odd ones, and both runs of a pair use the same seed.
Every output is saved under target/perf_ab/{base,head}/, and the
`perfbench/tool.py compare` table of the two sets is printed.

Exits 1 when a run reports "correct": false or exits non-zero, when the
share of failed operations rises on any workload, when the host stamps of
the runs differ, or when the head median of any end-to-end metric is worse
than the base median by more than that metric's bound.

With --claim, the script instead tests one claimed gain: it runs N >= 10
(default 10) alternating untraced pairs of WORKLOAD alone at seeds S, S+1,
... (default 1), saves them under target/perf_ab/claim/{base,head}/, and
prints each pair's METRIC, the number of pairs the head wins (ties count
for neither side), and each side's median and quartiles. The claim holds
when the head wins at least nine tenths of the pairs and its median beats
the base median by more than the distance between the base quartiles. Exits
1 when the claim does not hold, or a run fails or the host stamps differ as
above, or the head's share of failed operations is higher.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
import tool  # noqa: E402  (perfbench/tool.py: parse_output, cmd_compare)

# Alternating pairs per workload. In ten A/B runs of one binary against
# itself at five pairs of 10 s on a 2-vCPU host, no end-to-end median moved
# by more than 18.3%, inside the 25% bounds; with 2 s runs one drifted 21.6%.
PAIRS = 5
OUT = ROOT / "target" / "perf_ab"


def run(binary, workload, seed, seconds):
    argv = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60 * seconds + 600)
    return done.returncode, done.stdout, done.stderr


def change(base, head):
    return (head - base) / abs(base) if base else 0.0


def claim(spec, binaries, workload, metric, pairs, first_seed):
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if workload not in (w["name"] for w in spec["workloads"]):
        sys.exit(f"--claim: {workload} is not a BENCHMARK.json workload")
    if metric not in better:
        sys.exit(f"--claim: {metric} is not a BENCHMARK.json end-to-end metric")
    sign = 1 if better[metric] == "higher" else -1
    out = OUT / "claim"
    for side in binaries:
        (out / side).mkdir(parents=True, exist_ok=True)
        for stale in (out / side).glob("*.txt"):
            stale.unlink()
    problems = []
    values = {"base": [], "head": []}
    attempted, failed = {"base": 0, "head": 0}, {"base": 0, "head": 0}
    wins = 0
    for pair in range(pairs):
        seed = first_seed + pair
        for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
            code, stdout, stderr = run(binaries[side], workload, seed, spec["run_seconds"])
            (out / side / f"{workload}-s{seed}.txt").write_text(stdout)
            try:
                _, _, result = tool.parse_output(stdout)
            except ValueError:
                sys.exit(f"{side} {workload} seed {seed}: exit {code}, no result\n{stderr}")
            if code != 0 or not result["correct"]:
                problems.append(f"{side} seed {seed}: exit {code}, correct={result['correct']}")
            attempted[side] += result["attempted"]
            failed[side] += result["failed"]
            values[side].append(result["metrics"][metric]["value"])
        base, head = values["base"][-1], values["head"][-1]
        won = sign * (head - base) > 0
        wins += won
        print(f"pair {pair + 1:2} seed {seed}: base {base:.6g}  head {head:.6g}  "
              f"{change(base, head):+.1%}  {'head wins' if won else 'head does not win'}")
    # Prints every metric's medians; exits 1 itself when the host stamps differ.
    print()
    tool.cmd_compare(argparse.Namespace(base=out / "base", new=out / "head"))
    shares = {side: failed[side] / max(1, attempted[side]) for side in binaries}
    if shares["head"] > shares["base"]:
        problems.append(f"failed share rose from {shares['base']:.3g} to {shares['head']:.3g}")
    bq1, bmed, bq3 = statistics.quantiles(values["base"], n=4)
    hq1, hmed, hq3 = statistics.quantiles(values["head"], n=4)
    print(f"\n{workload} {metric} ({better[metric]} is better), {pairs} pairs:")
    print(f"  base median {bmed:.6g}  quartiles {bq1:.6g} .. {bq3:.6g}  (IQR {bq3 - bq1:.6g})")
    print(f"  head median {hmed:.6g}  quartiles {hq1:.6g} .. {hq3:.6g}  "
          f"({change(bmed, hmed):+.1%} on the base median)")
    gap = sign * (hmed - bmed)
    print(f"  head wins {wins}/{pairs} pairs; median gain {gap:.6g} against a base IQR of {bq3 - bq1:.6g}")
    if wins < 0.9 * pairs:
        problems.append(f"the head won {wins}/{pairs} pairs, fewer than nine tenths")
    if gap <= bq3 - bq1:
        problems.append(f"the median gain {gap:.6g} is not wider than the base IQR {bq3 - bq1:.6g}")
    if problems:
        print("\nCLAIM NOT MET:\n  " + "\n  ".join(problems))
        sys.exit(1)
    print("\nCLAIM MET")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="test one claimed gain instead of the bounds of every workload")
    parser.add_argument("--pairs", type=int, default=10, help="claim pairs (at least 10)")
    parser.add_argument("--first-seed", type=int, default=1, help="seed of the first claim pair")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binaries = {"base": str(Path(args.base).resolve()), "head": str(Path(args.head).resolve())}
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if args.pairs < 10:
            parser.error("--pairs must be at least 10")
        claim(spec, binaries, workload, metric, args.pairs, args.first_seed)
        return
    problems = []
    results = {"base": {}, "head": {}}
    for side in binaries:
        (OUT / side).mkdir(parents=True, exist_ok=True)
        for stale in (OUT / side).glob("*.txt"):
            stale.unlink()
    for workload in (w["name"] for w in spec["workloads"]):
        for pair in range(PAIRS):
            seed = pair + 1
            for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
                code, stdout, stderr = run(binaries[side], workload, seed, spec["run_seconds"])
                (OUT / side / f"{workload}-s{seed}.txt").write_text(stdout)
                try:
                    _, _, result = tool.parse_output(stdout)
                except ValueError:
                    sys.exit(f"{side} {workload} seed {seed}: exit {code}, no result\n{stderr}")
                print(f"{side} {workload} seed {seed}: exit {code} correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
                if code != 0 or not result["correct"]:
                    problems.append(f"{side} {workload} seed {seed}: exit {code}, "
                                    f"correct={result['correct']}")
                results[side].setdefault(workload, []).append(result)

    # Prints the table; exits 1 itself when the host stamps differ.
    tool.cmd_compare(argparse.Namespace(base=OUT / "base", new=OUT / "head"))

    for workload, base_runs in results["base"].items():
        head_runs = results["head"][workload]
        shares = [sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
                  for runs in (base_runs, head_runs)]
        if shares[1] > shares[0]:
            problems.append(f"{workload}: failed share rose from {shares[0]:.3g} to {shares[1]:.3g}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = statistics.median(r["metrics"][name]["value"] for r in base_runs)
            head = statistics.median(r["metrics"][name]["value"] for r in head_runs)
            worse = change(base, head) if metric["better"] == "lower" else -change(base, head)
            if worse > metric["bound"]:
                problems.append(f"{workload} {name}: {base:.6g} -> {head:.6g} is {worse:+.1%} "
                                f"worse, past the {metric['bound']:.0%} bound")

    if problems:
        print("\nA/B FAILED:\n  " + "\n  ".join(problems))
        sys.exit(1)
    print(f"\nA/B passed: {len(results['head'])} workloads x {PAIRS} pairs within the BENCHMARK.json bounds")


if __name__ == "__main__":
    main()
