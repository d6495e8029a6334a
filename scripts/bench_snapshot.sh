#!/usr/bin/env bash
# Snapshot the micro-benchmark trajectory.
#
# Runs every micro_* criterion bench in quick mode (LAHD_BENCH_QUICK=1:
# ~20x smaller warm-up/measurement budgets, a few seconds per bench) and
# folds the JSON-lines records the harness emits (LAHD_BENCH_JSON) into a
# single `BENCH_<n>.json` mapping "group/bench" -> median ns/iter.
#
# Usage:
#   scripts/bench_snapshot.sh [output.json]
#
# The output defaults to the next free BENCH_<n>.json at the workspace
# root, so each PR appends one snapshot and the sequence forms the perf
# trajectory (see PERF.md). The harness also emits dispersion fields
# (mad_ns, p10_ns, p90_ns) per record; only median_ns is folded here so
# snapshots stay comparable across shim versions. Compare two snapshots
# (with a regression threshold) via:
#   scripts/bench_compare.sh BENCH_1.json BENCH_2.json [threshold_pct]
#
# The first key, "machine", fingerprints the host: CPU model, nproc, and
# which of avx2, fma, avx512f and avx512_vnni it has. bench_compare.sh
# only compares snapshots whose fingerprints match.
set -euo pipefail

cd "$(dirname "$0")/.."

out="${1:-}"
if [ -z "$out" ]; then
    n=1
    while [ -e "BENCH_${n}.json" ]; do
        n=$((n + 1))
    done
    out="BENCH_${n}.json"
fi

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

LAHD_BENCH_QUICK=1 LAHD_BENCH_JSON="$tmp" cargo bench -p lahd-bench \
    --bench micro_matmul \
    --bench micro_gemv_i8 \
    --bench micro_inference_latency \
    --bench micro_guard \
    --bench micro_fsm_step \
    --bench micro_serve_protocol \
    --bench micro_persist \
    --bench micro_train_episode \
    --bench micro_qbn_encode \
    --bench micro_sim_step \
    --bench micro_workload_gen

# End-to-end serving rows (serve_throughput/*, serve_latency/*): two
# self-hosted `lahd serve-bench` open-loop runs over tiny artifacts.
# Throughput comes from an unpaced run (the daemon's capacity); latency
# from a run paced well below capacity, so the quantiles measure service
# time rather than queue depth (at max rate p50 just reads the bounded
# queue's drain time, which tracks 1/throughput and is far noisier).
# The throughput row is decisions/sec — higher is better, and
# bench_compare.sh keys off the per_sec/throughput name; the latency
# rows are wall-clock ns bucket bounds (≤25% buckets) and get a wider
# compare threshold (see bench_compare.sh). Both serve runs drive 20k
# requests (~1 s paced at 25k/s): at 2k requests the paced phase lasted
# ~80 ms, p999 was the worst 2 requests, and one scheduler hiccup on
# the shared vCPU swung the tail rows 4-8x between runs — since
# BENCH_6.json the longer phase keeps back-to-back p99/p999 within
# ~1.5x, which is what makes gating them meaningful at all.
cargo build --release -p lahd-cli
serve_dir="$(mktemp -d)"
trap 'rm -f "$tmp"; rm -rf "$serve_dir"' EXIT
target/release/lahd pipeline --scale tiny --out "$serve_dir" >/dev/null
target/release/lahd serve-bench --scale tiny --artifacts "$serve_dir" \
    --rounds 0 --requests 20000 --streams 8 \
    --bench-json "$serve_dir/rows.json" >/dev/null
grep "serve_throughput" "$serve_dir/rows.json" >> "$tmp"
target/release/lahd serve-bench --scale tiny --artifacts "$serve_dir" \
    --rounds 0 --requests 20000 --streams 8 --rate 25000 \
    --bench-json "$serve_dir/rows.json" >/dev/null
grep "serve_latency" "$serve_dir/rows.json" >> "$tmp"

# Memory-scaling rows (serve_streams/*): the streams sweep self-hosts one
# daemon per size, admits every stream with a closed-loop warm round, and
# reports closed-loop decisions/sec plus measured bytes/stream (counting
# allocator + VmRSS). Rate rows are gated higher-is-better by
# bench_compare.sh; the bytes rows are informational trajectory data —
# the hard ≤256 B/stream budget is verify.sh's absolute gate.
target/release/lahd serve-bench --scale tiny --artifacts "$serve_dir" \
    --streams-sweep 1000,10000,100000 --shards 2 \
    --bench-json "$serve_dir/rows.json" >/dev/null
grep "serve_streams" "$serve_dir/rows.json" >> "$tmp"

model="$(sed -n 's/^model name[[:space:]]*:[[:space:]]*//p' /proc/cpuinfo | head -n1 | tr -d '"\\')"
isa=""
for flag in avx2 fma avx512f avx512_vnni; do
    if grep -m1 '^flags' /proc/cpuinfo | grep -qw "$flag"; then
        isa="$isa $flag"
    fi
done
machine="${model:-unknown cpu}; nproc $(nproc);${isa:- no simd flags}"

awk -v machine="$machine" 'BEGIN { printf("{\n  \"machine\": \"%s\"", machine) }
/"bench"/ {
    line = $0
    sub(/^\{"bench":"/, "", line)
    name = line; sub(/".*/, "", name)
    med = line; sub(/.*"median_ns":/, "", med); sub(/[,}].*/, "", med)
    printf(",\n  \"%s\": %s", name, med)
}
END { print "\n}" }' "$tmp" > "$out"

echo "wrote $out ($(grep -c '": [-0-9.]' "$out") benches; machine: $machine)"
