//! Daemon-wide counters and the latency histogram.
//!
//! Since the telemetry sidecar landed (see [`crate::telemetry`]), the
//! atomics here cover only *off-path* events — connection-thread sheds,
//! panics, restarts, reloads, queue-full observations. Everything the
//! decision path itself counts (served, per-tier decisions, deadline
//! misses, latency) accumulates shard-locally and arrives through the
//! sidecar; [`render_stats_json`] merges both halves into the one stats
//! document clients read. The histogram is log-bucketed with four
//! sub-buckets per octave, bounding quantile error at ≤25%.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::telemetry::TelemetrySnapshot;

/// Number of ladder tiers accounted separately (FSM, quant net, exact net,
/// scenario baseline — the ladder `lahd_core::build_ladder` produces).
pub const TIERS: usize = 4;

/// Off-path daemon counters; every field is monotonically increasing.
/// Decision-path counters live in [`crate::telemetry::ShardTelemetry`].
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Decisions shed by *admission control* on connection threads (queue
    /// persistently full). Shard-side sheds (stream-table capacity) are
    /// counted in shard telemetry; the stats document sums both.
    pub shed: AtomicU64,
    /// Shard worker panics caught.
    pub panics: AtomicU64,
    /// Shard worker restarts completed.
    pub restarts: AtomicU64,
    /// Hot reloads accepted (bundle swapped).
    pub reloads_ok: AtomicU64,
    /// Hot reloads rejected (old bundle kept serving).
    pub reloads_rejected: AtomicU64,
    /// Enqueue attempts that found a shard queue full (before retries).
    pub queue_full: AtomicU64,
    /// Checkpoint segments written (periodic + drain + post-swap).
    pub checkpoints: AtomicU64,
    /// Durable-state I/O failures (checkpoint/journal writes, state-dir
    /// creation). The daemon keeps serving; persistence degrades.
    pub persist_errors: AtomicU64,
    /// Streams resumed from checkpoint + journal at recovery.
    pub recovered_streams: AtomicU64,
    /// Corrupt records quarantined during recovery (checkpoint + journal).
    pub quarantined_records: AtomicU64,
    /// Journal operations replayed during recovery.
    pub journal_ops: AtomicU64,
}

impl ServeMetrics {
    /// Increment helper (relaxed).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Renders the merged stats document (stable key order). The legacy keys
/// keep their meaning — `served`, `deadline_misses`, `tier_decisions` now
/// come from the sidecar, `shed` sums the connection- and shard-side
/// counts — and the tiered-stream-state keys (`streams`, `lifecycle`,
/// `latency`) extend the document; [`MetricsSnapshot::from_json`] ignores
/// what it doesn't know, so old readers keep working.
pub fn render_stats_json(
    generation: u64,
    shards: usize,
    metrics: &ServeMetrics,
    snap: &TelemetrySnapshot,
) -> String {
    let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let t = &snap.totals;
    let tiers: Vec<String> = t.tier_decisions.iter().map(u64::to_string).collect();
    format!(
        concat!(
            "{{\"generation\":{},\"shards\":{},\"served\":{},\"shed\":{},",
            "\"deadline_misses\":{},\"panics\":{},\"restarts\":{},",
            "\"reloads_ok\":{},\"reloads_rejected\":{},\"queue_full\":{},",
            "\"tier_decisions\":[{}],",
            "\"streams\":{{\"compact\":{},\"resident\":{},\"hibernated\":{}}},",
            "\"lifecycle\":{{\"materializations\":{},\"releases\":{},\"audits\":{},",
            "\"hibernates\":{},\"wakes\":{},\"evictions\":{}}},",
            "\"arena_bytes\":{},",
            "\"persist\":{{\"checkpoints\":{},\"persist_errors\":{},",
            "\"recovered_streams\":{},\"quarantined_records\":{},",
            "\"journal_ops\":{}}},",
            "\"latency\":{{\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{}}}}}"
        ),
        generation,
        shards,
        t.served,
        g(&metrics.shed) + t.shed,
        t.deadline_misses,
        g(&metrics.panics),
        g(&metrics.restarts),
        g(&metrics.reloads_ok),
        g(&metrics.reloads_rejected),
        g(&metrics.queue_full),
        tiers.join(","),
        t.compact,
        t.resident,
        t.hibernated,
        t.materializations,
        t.releases,
        t.audits,
        t.hibernates,
        t.wakes,
        t.evictions,
        t.arena_bytes,
        g(&metrics.checkpoints),
        g(&metrics.persist_errors),
        g(&metrics.recovered_streams),
        g(&metrics.quarantined_records),
        g(&metrics.journal_ops),
        t.latency.quantile(0.5),
        t.latency.quantile(0.99),
        t.latency.quantile(0.999),
    )
}

/// A tiny snapshot of the counters, parsed back out of the JSON the daemon
/// serves — what the bench harness and the verify gate read.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Bundle generation at snapshot time.
    pub generation: u64,
    /// Shard worker count (what [`crate::shard_of`] routes over).
    pub shards: u64,
    /// Decisions served on the guarded path.
    pub served: u64,
    /// Decisions shed by admission control (connection + shard side).
    pub shed: u64,
    /// Deadline misses answered from the fallback tier.
    pub deadline_misses: u64,
    /// Panics caught.
    pub panics: u64,
    /// Shard restarts completed.
    pub restarts: u64,
    /// Reloads accepted.
    pub reloads_ok: u64,
    /// Reloads rejected.
    pub reloads_rejected: u64,
    /// Gauge: compact streams resident in stream tables.
    pub streams_compact: u64,
    /// Gauge: streams holding a materialized full ladder.
    pub streams_resident: u64,
    /// Gauge: streams parked in hibernation arenas.
    pub streams_hibernated: u64,
    /// Streams parked into arenas, cumulative.
    pub hibernates: u64,
    /// Streams woken from arenas, cumulative.
    pub wakes: u64,
    /// Compact streams promoted to a full ladder, cumulative.
    pub materializations: u64,
    /// Full ladders released back to compact records, cumulative.
    pub releases: u64,
    /// Checkpoint segments written.
    pub checkpoints: u64,
    /// Durable-state I/O failures.
    pub persist_errors: u64,
    /// Streams resumed from durable state at recovery.
    pub recovered_streams: u64,
    /// Corrupt records quarantined during recovery.
    pub quarantined_records: u64,
    /// Journal operations replayed during recovery.
    pub journal_ops: u64,
}

impl MetricsSnapshot {
    /// Parses the fields this struct carries out of [`render_stats_json`]
    /// output. Unknown keys are ignored; missing keys default to zero.
    pub fn from_json(json: &str) -> Self {
        let field = |name: &str| -> u64 {
            let needle = format!("\"{name}\":");
            json.find(&needle)
                .map(|at| {
                    json[at + needle.len()..]
                        .chars()
                        .take_while(|c| c.is_ascii_digit())
                        .collect::<String>()
                        .parse()
                        .unwrap_or(0)
                })
                .unwrap_or(0)
        };
        Self {
            generation: field("generation"),
            shards: field("shards"),
            served: field("served"),
            shed: field("shed"),
            deadline_misses: field("deadline_misses"),
            panics: field("panics"),
            restarts: field("restarts"),
            reloads_ok: field("reloads_ok"),
            reloads_rejected: field("reloads_rejected"),
            streams_compact: field("compact"),
            streams_resident: field("resident"),
            streams_hibernated: field("hibernated"),
            hibernates: field("hibernates"),
            wakes: field("wakes"),
            materializations: field("materializations"),
            releases: field("releases"),
            checkpoints: field("checkpoints"),
            persist_errors: field("persist_errors"),
            recovered_streams: field("recovered_streams"),
            quarantined_records: field("quarantined_records"),
            journal_ops: field("journal_ops"),
        }
    }

    /// Live streams across tiers (the denominator serve-bench's
    /// bytes/stream measurement divides by).
    pub fn streams_total(&self) -> u64 {
        self.streams_compact + self.streams_resident + self.streams_hibernated
    }
}

/// Sub-buckets per octave: two significant mantissa bits, so adjacent
/// bucket bounds differ by ≤25% — fine enough that one-bucket jitter in a
/// reported quantile stays well inside the perf gate's threshold (an
/// octave-wide bucket would make the smallest possible move a 100% delta).
const SUBS: usize = 4;

/// Octaves covered (1 ns .. ~1100 s).
const OCTAVES: usize = 40;

/// Number of log-linear latency buckets.
const BUCKETS: usize = OCTAVES * SUBS;

/// Log-linear (HDR-style) latency histogram (single-threaded; shards and
/// the bench harness own one each, merged off-path by the aggregator).
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    /// Records one latency sample in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other` into `self` (bucket-wise; exact).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Bucket index: octave (floor log2) plus the next two mantissa bits.
    fn bucket(ns: u64) -> usize {
        let ns = ns.max(1);
        let e = 63 - ns.leading_zeros() as usize;
        if e < 2 {
            // 1, 2 and 3 ns land in exact buckets below the scheme.
            return ns as usize - 1;
        }
        let sub = ((ns >> (e - 2)) & 0b11) as usize;
        (e * SUBS + sub).min(BUCKETS - 1)
    }

    /// Inclusive upper bound (ns) of bucket `i`.
    fn upper_bound(i: usize) -> u64 {
        if i < 2 * SUBS {
            // The exact low buckets (indices for e < 2 use `ns - 1`).
            return i as u64 + 1;
        }
        let e = i / SUBS;
        let sub = (i % SUBS) as u64;
        // Bucket spans [(4+sub), (5+sub)) · 2^(e-2).
        (sub + 5) << (e - 2)
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The upper bound (ns) of the bucket containing quantile `q ∈ [0, 1]`;
    /// 0 when empty. Bounded relative error ≤25% (one sub-bucket).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::upper_bound(i);
            }
        }
        Self::upper_bound(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::ShardTelemetry;

    #[test]
    fn metrics_json_roundtrips_through_snapshot() {
        let m = ServeMetrics::default();
        ServeMetrics::bump(&m.shed);
        ServeMetrics::bump(&m.panics);
        ServeMetrics::bump(&m.restarts);
        ServeMetrics::bump(&m.checkpoints);
        ServeMetrics::bump(&m.checkpoints);
        ServeMetrics::bump(&m.recovered_streams);
        ServeMetrics::bump(&m.journal_ops);
        let mut t = ShardTelemetry::default();
        t.record_served(0, 500);
        t.record_served(2, 900);
        t.shed = 2;
        t.compact = 4;
        t.resident = 1;
        t.hibernated = 6;
        t.hibernates = 7;
        t.wakes = 5;
        t.materializations = 3;
        t.releases = 2;
        let snap = TelemetrySnapshot { totals: t };
        let json = render_stats_json(3, 2, &m, &snap);
        let parsed = MetricsSnapshot::from_json(&json);
        assert_eq!(parsed.generation, 3);
        assert_eq!(parsed.shards, 2);
        assert_eq!(parsed.served, 2);
        assert_eq!(parsed.shed, 3, "conn-side + shard-side sheds sum");
        assert_eq!(parsed.panics, 1);
        assert_eq!(parsed.restarts, 1);
        assert_eq!(parsed.reloads_rejected, 0);
        assert_eq!(parsed.streams_compact, 4);
        assert_eq!(parsed.streams_resident, 1);
        assert_eq!(parsed.streams_hibernated, 6);
        assert_eq!(parsed.streams_total(), 11);
        assert_eq!(parsed.hibernates, 7);
        assert_eq!(parsed.wakes, 5);
        assert_eq!(parsed.materializations, 3);
        assert_eq!(parsed.releases, 2);
        assert_eq!(parsed.checkpoints, 2);
        assert_eq!(parsed.persist_errors, 0);
        assert_eq!(parsed.recovered_streams, 1);
        assert_eq!(parsed.quarantined_records, 0);
        assert_eq!(parsed.journal_ops, 1);
        assert!(json.contains("\"persist\":{\"checkpoints\":2,"));
        assert!(json.contains("\"tier_decisions\":[1,0,1,0]"));
        assert!(json.contains("\"latency\":{\"p50_ns\":"));
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        let mut whole = LatencyHistogram::default();
        for (i, ns) in [100u64, 200, 400, 800, 100_000].iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.record(*ns);
            whole.record(*ns);
        }
        a.merge(&b);
        assert_eq!(a.len(), whole.len());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn histogram_quantiles_bracket_their_samples() {
        let mut h = LatencyHistogram::default();
        for ns in [100u64, 200, 400, 800, 100_000] {
            h.record(ns);
        }
        assert_eq!(h.len(), 5);
        // Rank ceil(0.5·5) = 3 → the 400 ns sample, bounded within +25%.
        let p50 = h.quantile(0.5);
        assert!((400..=500).contains(&p50), "p50 bucket {p50}");
        let p99 = h.quantile(0.99);
        assert!(
            (100_000..=125_000).contains(&p99),
            "p99 bucket {p99} must cover the outlier tightly"
        );
        assert!(h.quantile(0.0) >= 100, "floor bucket");
    }

    #[test]
    fn histogram_buckets_have_bounded_relative_error() {
        // Every sample's reported bucket bound is within +25% of the true
        // value (and never below it) — the contract the perf gate's
        // regression threshold leans on.
        // Stay below the clamp octave (2^40 ns ≈ 1100 s), beyond which
        // everything saturates into the last bucket.
        for ns in (0..39)
            .map(|i| 1u64 << i)
            .flat_map(|b| [b, b + b / 3, b + b / 2])
        {
            let mut h = LatencyHistogram::default();
            h.record(ns);
            let q = h.quantile(1.0);
            assert!(q >= ns, "bound {q} below sample {ns}");
            assert!(q <= ns + ns / 4 + 1, "bound {q} over +25% of sample {ns}");
        }
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = LatencyHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0);
    }
}
