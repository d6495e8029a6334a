#!/usr/bin/env bash
# Compare two BENCH_<n>.json snapshots and flag regressions.
#
# Tabulates the per-bench delta between an old and a new snapshot and exits
# non-zero if any bench shared by both files regressed (new median slower)
# by more than the threshold — a CI-ready perf guard around the trajectory:
#
#   scripts/bench_compare.sh BENCH_1.json BENCH_2.json            # 25% default
#   scripts/bench_compare.sh BENCH_1.json BENCH_2.json 10        # 10% threshold
#   LAHD_BENCH_THRESHOLD_PCT=50 scripts/bench_compare.sh a.json b.json
#
# The threshold is deliberately coarse by default: the criterion shim's
# quick mode reports medians with a MAD of a few percent on a quiet box
# (see PERF.md), so single-digit thresholds only make sense for full
# (non-quick) runs. Benches present in only one file are listed but never
# fail the check.
#
# Most rows store ns/iter, where bigger is worse. Rows whose name matches
# `per_sec` or `throughput` (the serve_throughput/* rows from
# `lahd serve-bench`) store a rate, where *smaller* is worse; the gate
# flips direction for those and flags `delta < -threshold`.
#
# serve_latency/* rows are end-to-end wall-clock quantiles of a live
# daemon (scheduler wakeups, socket queueing) — far noisier than ns/iter
# medians. The p50 row is robust run-to-run (the paced phase is ~1 s,
# see bench_snapshot.sh) and is gated at 4x the threshold so only an
# order-of-magnitude change (a lost batching path, an accidental sleep
# on the decision path) fails the check. The p99/p999 rows are
# INFORMATIONAL only (tabulated, never fail): on a shared single-vCPU
# box a noisy neighbour stealing the core for a few ms lands squarely
# in the tail quantiles — observed same-baseline swings reach 10x with
# every other row quiet — so any threshold on them either flakes or is
# vacuous. They stay in the snapshots as trajectory data.
#
# serve_streams/* splits the same way: the *_per_sec rate rows are gated
# (higher is better, like serve_throughput), while the
# *_bytes_per_stream rows are INFORMATIONAL — at the small sweep sizes
# the per-stream delta is dominated by table preallocation slack (the 1k
# row reads single-digit bytes), so relative thresholds on them flake;
# the absolute ≤256 B/stream budget is enforced by verify.sh instead.
#
# Timings are only comparable on one machine. bench_snapshot.sh writes a
# "machine" fingerprint as the first key; when the two fingerprints differ,
# or either snapshot has none, the script prints both and exits 0 without
# comparing.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 OLD.json NEW.json [threshold_pct]" >&2
    exit 2
fi

old="$1"
new="$2"
threshold="${3:-${LAHD_BENCH_THRESHOLD_PCT:-25}}"

for f in "$old" "$new"; do
    [ -r "$f" ] || { echo "error: cannot read $f" >&2; exit 2; }
done

machine() {
    sed -n 's/^[[:space:]]*"machine":[[:space:]]*"\([^"]*\)".*$/\1/p' "$1"
}
old_machine="$(machine "$old")"
new_machine="$(machine "$new")"
if [ -z "$old_machine" ] || [ "$old_machine" != "$new_machine" ]; then
    echo "machine of $old: ${old_machine:-(not recorded)}"
    echo "machine of $new: ${new_machine:-(not recorded)}"
    echo "not comparing: the snapshots do not come from one recorded machine"
    exit 0
fi

# Apart from "machine", BENCH_<n>.json is a flat string->number map;
# extract "name value" lines for the numeric keys.
extract() {
    sed -n 's/^[[:space:]]*"\([^"]*\)":[[:space:]]*\([-0-9.][0-9.eE+-]*\).*$/\1 \2/p' "$1" | sort
}

join -a1 -a2 -e MISSING -o 0,1.2,2.2 <(extract "$old") <(extract "$new") |
awk -v thr="$threshold" -v fa="$old" -v fb="$new" '
BEGIN {
    printf("%-48s %14s %14s %9s\n", "bench", fa, fb, "delta")
    worst = 0
    failures = 0
}
{
    name = $1; a = $2; b = $3
    if (a == "MISSING") { printf("%-48s %14s %14.1f %9s\n", name, "-", b, "new"); next }
    if (b == "MISSING") { printf("%-48s %14.1f %14s %9s\n", name, a, "-", "gone"); next }
    delta = (b - a) / a * 100.0
    # Rate rows regress downward; everything else (ns/iter) upward.
    higher_is_better = (name ~ /per_sec|throughput/)
    severity = higher_is_better ? -delta : delta
    # Wall-clock daemon quantiles get 4x headroom; tail quantiles are
    # informational only (see header).
    row_thr = (name ~ /serve_latency/) ? thr * 4 : thr
    informational = (name ~ /serve_latency\/p9/ || name ~ /bytes_per_stream/)
    mark = ""
    if (severity > row_thr) {
        if (informational) {
            mark = "  (tail, informational)"
        } else {
            mark = "  REGRESSION"; failures++
        }
    }
    if (!informational && severity / row_thr > worst) worst = severity / row_thr
    printf("%-48s %14.1f %14.1f %+8.1f%%%s\n", name, a, b, delta, mark)
}
END {
    printf("\nworst severity at %.0f%% of its row threshold (base %s%%)\n", worst * 100, thr)
    if (failures > 0) {
        printf("%d bench(es) regressed beyond the threshold\n", failures)
        exit 1
    }
}'
