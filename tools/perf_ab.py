#!/usr/bin/env python3
"""Same-host A/B of two perfbench binaries against the BENCHMARK.json bounds.

  python3 tools/perf_ab.py BASE_BIN HEAD_BIN

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


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("head")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binaries = {"base": str(Path(args.base).resolve()), "head": str(Path(args.head).resolve())}
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
