#!/usr/bin/env bash
# Long chaos soak: run the exp_chaos kill-storm → restart → recover → verify
# loop over many more seeds than the CI smoke tier covers.
#
# Each cycle creates a file-backed arena, forks a fleet of lease-churning
# children, fires a seeded FaultPlan (SIGKILL / SIGSTOP / torn-write
# injection: torn pops off the lease table's free list and torn free-list
# pushes), storms the rest, re-attaches by path and verifies recovery:
# one epoch winner, every dead child's postmortem tail, a tight re-granted
# namespace, repaired free-list summaries, idempotent second recovery.
# Seeds are 0..CYCLES, so any failure reported by a soak is replayable by
# running the same cycle count again.
#
# Usage: tools/chaos_soak.sh [CYCLES]   (default 1000; exits non-zero on
#                                        any violated cycle)
set -euo pipefail
cd "$(dirname "$0")/.."

CYCLES="${1:-1000}"

echo "chaos_soak: building exp_chaos (release)"
cargo build --release -q --bin exp_chaos

echo "chaos_soak: running ${CYCLES} kill-storm/restart cycles"
exec target/release/exp_chaos "${CYCLES}"
