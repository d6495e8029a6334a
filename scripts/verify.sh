#!/usr/bin/env bash
# Tier-1 verification, the feature-gated builds, and a coarse perf gate.
#
# 1. `cargo build --release && cargo test -q` — the ROADMAP's tier-1 gate,
#    covering every default workspace member — then
#    `RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib`, so
#    rustdoc link warnings fail verification.
# 2. `cargo build --release --features simd` — the FMA GEMM microkernel and
#    GEMV panel kernels; building it here keeps the feature gate from
#    rotting.
# 3. `cargo test -q -p lahd-tensor -p lahd-nn -p lahd-rl --features simd` —
#    the GEMM/GEMV equivalence suites plus the packed-GRU/InferEngine
#    equivalence tests under the FMA kernels (tolerance-based where FMA
#    rounding legitimately differs; see crates/tensor/src/gemm.rs and
#    crates/tensor/src/gemv.rs).
# 4. Quantized-tier accuracy suites under simd: the i8 GEMV error-bound
#    proptests, the activation-approximation budgets, and the per-scenario
#    rollout action-agreement pins (≥99.5% vs the exact engine) — the
#    default build already runs them in step 2 via `cargo test -q`.
# 5. Scenario smoke matrix: one tiny-budget pipeline + evaluate +
#    clean guard-eval run per registered scenario through the CLI (plus one
#    quantized-precision evaluate), so a scenario that rots (or a registry
#    entry that stops wiring up end-to-end) fails verification. The
#    lahd-guard crate itself is a default workspace member, so steps 1–2
#    cover its unit/property/behaviour suites.
# 6. Guardrail gate: guard-eval under an injected observation-drift fault
#    must report a fallback transition ("fallen-back" in the transition
#    log) — the drift detector or the fallback state machine rotting fails
#    verification, not just a unit suite.
# 7. Serving gate: a self-hosted `lahd serve-bench --chaos` run over tiny
#    seed-22 artifacts (shard kill + burst + corrupt hot reload must all be
#    survived with the old generation still serving) whose per-tier
#    decision counts must show the compiled FSM tier serving and whose
#    checksummed pre-chaos window must hold at least two distinct actions
#    (seed 22's machine does; the default seed's answers one action
#    everywhere, which a daemon that lost every cursor would match); a
#    100k-stream sweep that must admit ≥99% of streams within the
#    ≤256 B/stream live-heap budget (LAHD_SWEEP_BYTES_BUDGET) and a
#    coarse RSS ceiling (LAHD_SWEEP_RSS_MB); then an external
#    `lahd serve` process driven over its Unix socket and shut down via
#    a protocol request — the daemon must exit 0.
# 8. Durability gates, on the same seed-22 artifacts: a clean
#    `lahd serve-drill` (SIGKILL a durable daemon after a quiescent
#    checkpoint, restart with --recover, compare action checksums against
#    an uninterrupted reference — ≥99% of streams must resume
#    bit-identically over a window of at least two distinct actions) and a
#    `--corrupt` drill (seeded torn tail + bit flip + duplicated journal
#    record must be quarantined with a clean exit, never a panic).
# 9. Quick-mode bench snapshot compared against the latest committed
#    BENCH_<n>.json with a loose 50% threshold, so a hot-path regression
#    fails verification instead of only surfacing in the next snapshot.
#    Since BENCH_4.json the gate also covers the quantized rows
#    (gemv_packed_i8_*, gru128_forward_quant*, readahead sim/inference);
#    since BENCH_5.json also the serving rows (serve_protocol/* framing,
#    serve_throughput/* and serve_latency/* from `lahd serve-bench` —
#    rate rows are gated higher-is-better); since BENCH_8.json also the
#    durability rows (serve_persist/* checkpoint write, recovery scan,
#    journal append).
#    Skip with LAHD_SKIP_BENCH_GATE=1 (e.g. on a loaded box).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== style gate: cargo fmt --check"
cargo fmt --check

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

echo "== doc gate: cargo doc --no-deps --workspace --lib, warnings denied"
# Broken, private or ambiguous intra-doc links fail here instead of
# accumulating as warnings.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib

echo "== benchmark build: cargo check perfbench against the workspace crates"
# perfbench/ is its own package built against lahd-serve's public API, so
# an API change that breaks the benchmark fails here, not in a later run.
CARGO_TARGET_DIR=target cargo check --manifest-path perfbench/Cargo.toml

echo "== feature gate: cargo build --release --features simd"
cargo build --release --features simd

echo "== feature gate: cargo test -q -p lahd-tensor -p lahd-nn -p lahd-rl --features simd"
cargo test -q -p lahd-tensor -p lahd-nn -p lahd-rl --features simd

echo "== quantized tier (simd): kernel bounds + rollout agreement pins"
cargo test -q --features simd --test quantized_agreement

echo "== scenario smoke matrix: tiny end-to-end per registered scenario"
lahd_bin="target/release/lahd"
smoke_dir="$(mktemp -d)"
for scenario in $("$lahd_bin" scenarios --names); do
    echo "--   $scenario: pipeline + evaluate + guard-eval (tiny)"
    "$lahd_bin" pipeline --scenario "$scenario" --scale tiny \
        --out "$smoke_dir/$scenario" >/dev/null
    "$lahd_bin" evaluate --scenario "$scenario" --scale tiny \
        --artifacts "$smoke_dir/$scenario" >/dev/null
    "$lahd_bin" guard-eval --scenario "$scenario" --scale tiny \
        --artifacts "$smoke_dir/$scenario" --episodes 2 \
        --no-counterfactuals >/dev/null
done
echo "--   dorado-migration: evaluate --infer-precision quantized (tiny)"
"$lahd_bin" evaluate --scale tiny --infer-precision quantized \
    --artifacts "$smoke_dir/dorado-migration" >/dev/null

echo "== guardrail gate: guard-eval under injected drift trips a fallback"
guard_out="$("$lahd_bin" guard-eval --scale tiny \
    --artifacts "$smoke_dir/dorado-migration" --episodes 2 \
    --fault drift --fault-from 32 --no-counterfactuals)"
if ! grep -q "fallen-back" <<<"$guard_out"; then
    echo "guard-eval under injected drift reported no fallback transition:"
    echo "$guard_out"
    exit 1
fi
echo "== serving gate: self-hosted chaos plan must be survived"
serve_arts="$smoke_dir/serve-seed22"
"$lahd_bin" pipeline --scale tiny --seed 22 --out "$serve_arts" >/dev/null
# Kill a shard mid-run, burst 10x the steady rate into a held shard, and
# offer a corrupt hot-reload candidate; serve-bench exits non-zero unless
# the daemon caught the panic, restarted the worker, shed (not dropped)
# the burst, answered expired work from the fallback tier, and kept the
# old artifact generation serving after rejecting the corrupt bundle.
chaos_json="$smoke_dir/chaos.json"
serve_out="$("$lahd_bin" serve-bench --scale tiny --seed 22 \
    --artifacts "$serve_arts" \
    --streams 4 --rounds 12 --requests 1000 --chaos \
    --shards 2 --queue-capacity 16 --json "$chaos_json")"
if ! grep -q "chaos plan SURVIVED" <<<"$serve_out"; then
    echo "serve-bench chaos plan did not report survival:"
    echo "$serve_out"
    exit 1
fi
prechaos_actions="$(sed -n 's/.*"prechaos_distinct_actions":\([0-9][0-9]*\).*/\1/p' "$chaos_json")"
if [ "${prechaos_actions:-0}" -lt 2 ]; then
    echo "chaos pre-chaos window held ${prechaos_actions:-0} distinct action(s); its checksum pins nothing:"
    cat "$chaos_json"
    exit 1
fi
# Compiled-tier smoke: healthy streams ride rung 0 (the compiled FSM), so
# the per-tier decision counts must show the fsm tier actually serving —
# a machine that silently stops lowering (or a shard that stops routing
# to the compiled path) fails verification here.
if ! grep -qE "tiers fsm=[1-9][0-9]*" <<<"$serve_out"; then
    echo "serve-bench reported no compiled-FSM-tier decisions:"
    echo "$serve_out"
    exit 1
fi

echo "== serving gate: 100k-stream sweep under the per-stream memory budget"
# The tiered stream-state acceptance: a self-hosted daemon must admit
# 100k concurrent streams, keep healthy FSM-tier streams within the
# compact budget (measured live-heap bytes/stream via the CLI's counting
# allocator; override with LAHD_SWEEP_BYTES_BUDGET), stay under a coarse
# RSS-growth ceiling, and answer overload with labelled sheds rather
# than errors (a shed response is a success exit here — only a protocol
# error or a missed budget fails).
sweep_json="$smoke_dir/sweep.json"
"$lahd_bin" serve-bench --scale tiny --artifacts "$smoke_dir/dorado-migration" \
    --streams-sweep 100000 --shards 2 --json "$sweep_json" >/dev/null
sweep_field() {
    sed -n "s/.*\"$1\":\([0-9][0-9]*\).*/\1/p" "$sweep_json" | head -n1
}
admitted="$(sweep_field admitted)"
live_bps="$(sweep_field live_bytes_per_stream)"
rss_delta="$(sweep_field rss_delta_bytes)"
bytes_budget="${LAHD_SWEEP_BYTES_BUDGET:-256}"
rss_budget_mb="${LAHD_SWEEP_RSS_MB:-256}"
if [ "${admitted:-0}" -lt 99000 ]; then
    echo "streams sweep admitted only ${admitted:-0}/100000 streams:"
    cat "$sweep_json"
    exit 1
fi
if [ "${live_bps:-9999}" -gt "$bytes_budget" ]; then
    echo "streams sweep measured ${live_bps:-?} live B/stream (budget ${bytes_budget}):"
    cat "$sweep_json"
    exit 1
fi
if [ "${rss_delta:-0}" -gt $((rss_budget_mb * 1024 * 1024)) ]; then
    echo "streams sweep grew RSS by ${rss_delta:-?} B (budget ${rss_budget_mb} MB):"
    cat "$sweep_json"
    exit 1
fi

echo "== serving gate: external daemon round-trip + clean shutdown"
serve_sock="$smoke_dir/verify-serve.sock"
"$lahd_bin" serve --scale tiny --artifacts "$smoke_dir/dorado-migration" \
    --socket "$serve_sock" --shards 2 >/dev/null &
serve_pid=$!
"$lahd_bin" serve-bench --scale tiny --artifacts "$smoke_dir/dorado-migration" \
    --socket "$serve_sock" --rounds 8 --requests 200 \
    --shutdown-daemon >/dev/null
if ! wait "$serve_pid"; then
    echo "lahd serve did not exit cleanly after a shutdown request"
    exit 1
fi

echo "== durability gate: clean crash-restart drill (SIGKILL -> --recover)"
# A durable daemon is SIGKILLed mid-load after a quiescent checkpoint and
# restarted with --recover; it must resume >=99% of streams and serve the
# post-crash rounds action-checksum-identically to an uninterrupted
# reference daemon, over at least two distinct actions (serve-drill exits
# non-zero otherwise).
drill_json="$smoke_dir/drill.json"
drill_out="$("$lahd_bin" serve-drill --scale tiny --seed 22 \
    --artifacts "$serve_arts" \
    --streams 16 --rounds-before 4 --rounds-after 4 --shards 2 \
    --json "$drill_json")"
if ! grep -q "clean drill SURVIVED" <<<"$drill_out"; then
    echo "serve-drill did not report clean survival:"
    echo "$drill_out"
    exit 1
fi
resumed_pct="$(sed -n 's/.*"resumed_pct":\([0-9][0-9]*\).*/\1/p' "$drill_json")"
if [ "${resumed_pct:-0}" -lt 99 ]; then
    echo "crash-restart drill resumed only ${resumed_pct:-0}% of streams:"
    cat "$drill_json"
    exit 1
fi

echo "== durability gate: corrupt-state drill (torn tail + bit flip + dup journal)"
# Seeded disk faults land between kill and restart; recovery must
# quarantine the damaged records (counted, never panicking) and the
# daemon must still drain and exit 0.
drill_out="$("$lahd_bin" serve-drill --scale tiny --seed 22 \
    --artifacts "$serve_arts" \
    --streams 16 --rounds-before 4 --rounds-after 4 --shards 2 \
    --corrupt --json "$drill_json")"
if ! grep -q "corrupt drill SURVIVED" <<<"$drill_out"; then
    echo "corrupt serve-drill did not report survival:"
    echo "$drill_out"
    exit 1
fi
if grep -q '"quarantined":0,' "$drill_json"; then
    echo "corrupt drill quarantined no records (faults not exercised):"
    cat "$drill_json"
    exit 1
fi

rm -rf "$smoke_dir"

if [ "${LAHD_SKIP_BENCH_GATE:-0}" = "1" ]; then
    echo "== perf gate: skipped (LAHD_SKIP_BENCH_GATE=1)"
else
    latest=""
    n=1
    while [ -e "BENCH_${n}.json" ]; do
        latest="BENCH_${n}.json"
        n=$((n + 1))
    done
    if [ -z "$latest" ]; then
        echo "== perf gate: no committed BENCH_<n>.json snapshot; skipping"
    else
        echo "== perf gate: quick snapshot vs $latest (50% threshold)"
        tmp="$(mktemp)"
        trap 'rm -f "$tmp"' EXIT
        scripts/bench_snapshot.sh "$tmp" >/dev/null
        scripts/bench_compare.sh "$latest" "$tmp" 50
    fi
fi

echo "verify: all green"
