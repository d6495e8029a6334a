//! The daemon's one stats path: who writes each counter, and the one
//! typed document a `Stats` request answers with.
//!
//! Every counter has exactly one writer. Connection threads own the few
//! in [`ServeMetrics`] (admission sheds, queue-full observations,
//! reloads). Each shard thread owns one [`ShardStats`] slot: its core
//! counts decisions in a plain local [`ShardStats`] and hands that over as
//! the stats delta of every batch and idle tick, and the thread folds the
//! delta into its slot under the slot's uncontended lock, before it sends
//! the batch's replies. Rare events (recovery, checkpoints, persist
//! errors, panics, restarts) go straight to the slot, so a panic cannot
//! lose them. A `Stats` request locks each slot in turn, sums
//! the slots and the connection counters into one [`MetricsSnapshot`] and
//! answers [`MetricsSnapshot::to_json`], whose exact inverse is
//! [`MetricsSnapshot::from_json`]. Since a shard releases its slot before
//! it replies, the snapshot counts every decision a client already holds
//! a reply for. The histogram is log-bucketed with four sub-buckets per
//! octave, bounding quantile error at ≤25%.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of ladder tiers accounted separately (FSM, quant net, exact net,
/// scenario baseline — the ladder `lahd_core::build_ladder` produces).
pub const TIERS: usize = 4;

/// The counters connection threads write; every field is monotonically
/// increasing. Shard-written counters live in the shards' stats slots.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Decisions shed by *admission control* on connection threads (queue
    /// persistently full). Shard-side sheds (stream-table capacity) are
    /// counted in the shard slots; the stats document sums both.
    pub shed: AtomicU64,
    /// Enqueue attempts that found a shard queue full (before retries).
    pub queue_full: AtomicU64,
    /// Hot reloads accepted (bundle swapped).
    pub reloads_ok: AtomicU64,
    /// Hot reloads rejected (old bundle kept serving).
    pub reloads_rejected: AtomicU64,
}

impl ServeMetrics {
    /// Increment helper (relaxed).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One shard's counters and gauges: both the shard's stats slot and the
/// stats delta its core hands over, which the shard thread folds into the
/// slot ([`ShardStats::absorb`]). Counters are monotonic; the gauges
/// (`compact`, `resident`, `hibernated`, `arena_bytes`) are absolute
/// levels.
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    /// Decisions answered on the guarded/compact path.
    pub served: u64,
    /// Decisions shed in the shard (stream-table capacity).
    pub shed: u64,
    /// Decisions whose deadline expired in the queue.
    pub deadline_misses: u64,
    /// Decisions per ladder tier.
    pub tier_decisions: [u64; TIERS],
    /// Queue-to-reply latency histogram.
    pub latency: LatencyHistogram,
    /// Compact streams promoted to the full resident ladder.
    pub materializations: u64,
    /// Resident streams released back to compact records.
    pub releases: u64,
    /// Periodic full-guard audits started.
    pub audits: u64,
    /// Streams parked into the hibernation arena.
    pub hibernates: u64,
    /// Streams woken from the arena.
    pub wakes: u64,
    /// Hibernated streams forgotten by arena eviction.
    pub evictions: u64,
    /// Checkpoint segments written (periodic + drain + post-swap).
    pub checkpoints: u64,
    /// Durable-state I/O failures (checkpoint/journal writes, state-dir
    /// creation). The daemon keeps serving; persistence degrades.
    pub persist_errors: u64,
    /// Streams resumed from checkpoint + journal at recovery.
    pub recovered_streams: u64,
    /// Corrupt records quarantined during recovery (checkpoint + journal).
    pub quarantined_records: u64,
    /// Journal operations replayed during recovery.
    pub journal_ops: u64,
    /// Worker panics caught.
    pub panics: u64,
    /// Worker restarts completed.
    pub restarts: u64,
    /// Gauge: compact streams resident in the table.
    pub compact: u64,
    /// Gauge: streams holding a full materialized ladder.
    pub resident: u64,
    /// Gauge: streams parked in the arena.
    pub hibernated: u64,
    /// Gauge: arena slab bytes.
    pub arena_bytes: u64,
}

impl ShardStats {
    /// Records one served decision.
    pub fn record_served(&mut self, tier: usize, latency_ns: u64) {
        self.served += 1;
        if let Some(c) = self.tier_decisions.get_mut(tier) {
            *c += 1;
        }
        self.latency.record(latency_ns);
    }

    /// Adds every field of `other` into `self`, gauges included: how a
    /// `Stats` request sums the shards' slots.
    pub fn add(&mut self, other: &ShardStats) {
        self.served += other.served;
        self.shed += other.shed;
        self.deadline_misses += other.deadline_misses;
        for (a, b) in self.tier_decisions.iter_mut().zip(&other.tier_decisions) {
            *a += b;
        }
        self.latency.merge(&other.latency);
        self.materializations += other.materializations;
        self.releases += other.releases;
        self.audits += other.audits;
        self.hibernates += other.hibernates;
        self.wakes += other.wakes;
        self.evictions += other.evictions;
        self.checkpoints += other.checkpoints;
        self.persist_errors += other.persist_errors;
        self.recovered_streams += other.recovered_streams;
        self.quarantined_records += other.quarantined_records;
        self.journal_ops += other.journal_ops;
        self.panics += other.panics;
        self.restarts += other.restarts;
        self.compact += other.compact;
        self.resident += other.resident;
        self.hibernated += other.hibernated;
        self.arena_bytes += other.arena_bytes;
    }

    /// Folds a shard's local accumulator into that shard's slot: counters
    /// and the histogram add, gauges take `local`'s levels.
    pub fn absorb(&mut self, local: &ShardStats) {
        self.add(local);
        self.compact = local.compact;
        self.resident = local.resident;
        self.hibernated = local.hibernated;
        self.arena_bytes = local.arena_bytes;
    }
}

/// Everything one `Stats` answer carries, typed. The daemon builds it from
/// the shard slots and the connection counters and renders it with
/// [`MetricsSnapshot::to_json`]; clients parse it back with
/// [`MetricsSnapshot::from_json`].
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
    /// Enqueue attempts that found a shard queue full.
    pub queue_full: u64,
    /// Guarded decisions per ladder tier.
    pub tier_decisions: [u64; TIERS],
    /// Gauge: compact streams resident in stream tables.
    pub streams_compact: u64,
    /// Gauge: streams holding a materialized full ladder.
    pub streams_resident: u64,
    /// Gauge: streams parked in hibernation arenas.
    pub streams_hibernated: u64,
    /// Compact streams promoted to a full ladder, cumulative.
    pub materializations: u64,
    /// Full ladders released back to compact records, cumulative.
    pub releases: u64,
    /// Periodic full-guard audits started, cumulative.
    pub audits: u64,
    /// Streams parked into arenas, cumulative.
    pub hibernates: u64,
    /// Streams woken from arenas, cumulative.
    pub wakes: u64,
    /// Hibernated streams forgotten by arena eviction, cumulative.
    pub evictions: u64,
    /// Gauge: hibernation-arena slab bytes.
    pub arena_bytes: u64,
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
    /// Median queue-to-reply latency (bucket upper bound, ns).
    pub p50_ns: u64,
    /// 99th-percentile queue-to-reply latency (bucket upper bound, ns).
    pub p99_ns: u64,
    /// 99.9th-percentile queue-to-reply latency (bucket upper bound, ns).
    pub p999_ns: u64,
}

impl MetricsSnapshot {
    /// Builds the snapshot from the connection counters and `totals`, the
    /// sum of every shard slot ([`ShardStats::add`]). `shed` sums the
    /// connection- and shard-side counts.
    pub(crate) fn new(
        generation: u64,
        shards: usize,
        conn: &ServeMetrics,
        totals: &ShardStats,
    ) -> Self {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let t = totals;
        Self {
            generation,
            shards: shards as u64,
            served: t.served,
            shed: g(&conn.shed) + t.shed,
            deadline_misses: t.deadline_misses,
            panics: t.panics,
            restarts: t.restarts,
            reloads_ok: g(&conn.reloads_ok),
            reloads_rejected: g(&conn.reloads_rejected),
            queue_full: g(&conn.queue_full),
            tier_decisions: t.tier_decisions,
            streams_compact: t.compact,
            streams_resident: t.resident,
            streams_hibernated: t.hibernated,
            materializations: t.materializations,
            releases: t.releases,
            audits: t.audits,
            hibernates: t.hibernates,
            wakes: t.wakes,
            evictions: t.evictions,
            arena_bytes: t.arena_bytes,
            checkpoints: t.checkpoints,
            persist_errors: t.persist_errors,
            recovered_streams: t.recovered_streams,
            quarantined_records: t.quarantined_records,
            journal_ops: t.journal_ops,
            p50_ns: t.latency.quantile(0.5),
            p99_ns: t.latency.quantile(0.99),
            p999_ns: t.latency.quantile(0.999),
        }
    }

    /// Renders the stats document (stable key order, every field once).
    pub fn to_json(&self) -> String {
        let tiers: Vec<String> = self.tier_decisions.iter().map(u64::to_string).collect();
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
            self.generation,
            self.shards,
            self.served,
            self.shed,
            self.deadline_misses,
            self.panics,
            self.restarts,
            self.reloads_ok,
            self.reloads_rejected,
            self.queue_full,
            tiers.join(","),
            self.streams_compact,
            self.streams_resident,
            self.streams_hibernated,
            self.materializations,
            self.releases,
            self.audits,
            self.hibernates,
            self.wakes,
            self.evictions,
            self.arena_bytes,
            self.checkpoints,
            self.persist_errors,
            self.recovered_streams,
            self.quarantined_records,
            self.journal_ops,
            self.p50_ns,
            self.p99_ns,
            self.p999_ns,
        )
    }

    /// Parses a [`MetricsSnapshot::to_json`] document back into the
    /// snapshot it was rendered from. Every key in the document is unique,
    /// so each field is found by name: unknown keys are ignored and missing
    /// keys read as zero.
    pub fn from_json(json: &str) -> Self {
        let after = |key: &str| json.find(key).map(|at| &json[at + key.len()..]);
        let number = |rest: &str| -> u64 {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().unwrap_or(0)
        };
        let field = |name: &str| after(&format!("\"{name}\":")).map_or(0, number);
        let mut tier_decisions = [0; TIERS];
        if let Some(list) = after("\"tier_decisions\":[") {
            let list = &list[..list.find(']').unwrap_or(0)];
            for (t, v) in tier_decisions.iter_mut().zip(list.split(',')) {
                *t = number(v);
            }
        }
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
            queue_full: field("queue_full"),
            tier_decisions,
            streams_compact: field("compact"),
            streams_resident: field("resident"),
            streams_hibernated: field("hibernated"),
            materializations: field("materializations"),
            releases: field("releases"),
            audits: field("audits"),
            hibernates: field("hibernates"),
            wakes: field("wakes"),
            evictions: field("evictions"),
            arena_bytes: field("arena_bytes"),
            checkpoints: field("checkpoints"),
            persist_errors: field("persist_errors"),
            recovered_streams: field("recovered_streams"),
            quarantined_records: field("quarantined_records"),
            journal_ops: field("journal_ops"),
            p50_ns: field("p50_ns"),
            p99_ns: field("p99_ns"),
            p999_ns: field("p999_ns"),
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

/// Log-linear (HDR-style) latency histogram (single-threaded; every shard
/// stats slot and the bench harness own one, merged exactly).
#[derive(Clone, Debug, PartialEq, Eq)]
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
    use proptest::collection;
    use proptest::prelude::*;

    /// The stats document for [`golden_counters`], byte for byte. Readers
    /// outside the workspace (the benchmark's stats parser) key on this
    /// layout, so it must not drift.
    const GOLDEN: &str = concat!(
        "{\"generation\":11,\"shards\":3,\"served\":1234,\"shed\":13,",
        "\"deadline_misses\":17,\"panics\":2,\"restarts\":19,",
        "\"reloads_ok\":23,\"reloads_rejected\":29,\"queue_full\":31,",
        "\"tier_decisions\":[1000,200,30,4],",
        "\"streams\":{\"compact\":37,\"resident\":41,\"hibernated\":43},",
        "\"lifecycle\":{\"materializations\":47,\"releases\":53,\"audits\":59,",
        "\"hibernates\":61,\"wakes\":67,\"evictions\":71},",
        "\"arena_bytes\":7300,",
        "\"persist\":{\"checkpoints\":79,\"persist_errors\":83,",
        "\"recovered_streams\":89,\"quarantined_records\":97,",
        "\"journal_ops\":101},",
        "\"latency\":{\"p50_ns\":1024,\"p99_ns\":57344,\"p999_ns\":3145728}}"
    );

    /// Connection counters and summed shard slots with every document
    /// field distinct and non-zero.
    fn golden_counters() -> (ServeMetrics, ShardStats) {
        let conn = ServeMetrics::default();
        for (counter, v) in [
            (&conn.shed, 5),
            (&conn.queue_full, 31),
            (&conn.reloads_ok, 23),
            (&conn.reloads_rejected, 29),
        ] {
            counter.store(v, Ordering::Relaxed);
        }
        let mut totals = ShardStats {
            served: 1234,
            shed: 8,
            deadline_misses: 17,
            tier_decisions: [1000, 200, 30, 4],
            materializations: 47,
            releases: 53,
            audits: 59,
            hibernates: 61,
            wakes: 67,
            evictions: 71,
            checkpoints: 79,
            persist_errors: 83,
            recovered_streams: 89,
            quarantined_records: 97,
            journal_ops: 101,
            panics: 2,
            restarts: 19,
            compact: 37,
            resident: 41,
            hibernated: 43,
            arena_bytes: 7300,
            ..ShardStats::default()
        };
        for (n, ns) in [(900, 1_000), (95, 50_000), (5, 3_000_000)] {
            for _ in 0..n {
                totals.latency.record(ns);
            }
        }
        (conn, totals)
    }

    #[test]
    fn stats_document_matches_the_golden_rendering() {
        let (conn, totals) = golden_counters();
        let snap = MetricsSnapshot::new(11, 3, &conn, &totals);
        assert_eq!(snap.to_json(), GOLDEN);
        assert_eq!(MetricsSnapshot::from_json(GOLDEN), snap);
    }

    proptest! {
        #[test]
        fn stats_document_round_trips(
            v in collection::vec(any::<u64>().prop_map(|x| x >> (x % 64)), 32),
        ) {
            let mut v = v.into_iter();
            let mut next = || v.next().expect("one value per field");
            let snap = MetricsSnapshot {
                generation: next(),
                shards: next(),
                served: next(),
                shed: next(),
                deadline_misses: next(),
                panics: next(),
                restarts: next(),
                reloads_ok: next(),
                reloads_rejected: next(),
                queue_full: next(),
                tier_decisions: [next(), next(), next(), next()],
                streams_compact: next(),
                streams_resident: next(),
                streams_hibernated: next(),
                materializations: next(),
                releases: next(),
                audits: next(),
                hibernates: next(),
                wakes: next(),
                evictions: next(),
                arena_bytes: next(),
                checkpoints: next(),
                persist_errors: next(),
                recovered_streams: next(),
                quarantined_records: next(),
                journal_ops: next(),
                p50_ns: next(),
                p99_ns: next(),
                p999_ns: next(),
            };
            prop_assert_eq!(MetricsSnapshot::from_json(&snap.to_json()), snap);
        }
    }

    #[test]
    fn slots_add_counters_replace_gauges_and_merge_histograms_exactly() {
        let mut slot = ShardStats::default();
        let mut local = ShardStats::default();
        local.record_served(0, 1_000);
        local.record_served(1, 2_000);
        local.shed = 2;
        local.compact = 5;
        local.hibernated = 3;
        slot.absorb(&local);
        let mut later = ShardStats::default();
        later.record_served(0, 100_000);
        later.wakes = 1;
        later.compact = 4;
        slot.absorb(&later);
        slot.checkpoints += 1;
        assert_eq!(slot.served, 3);
        assert_eq!(slot.tier_decisions, [2, 1, 0, 0]);
        assert_eq!((slot.shed, slot.wakes, slot.checkpoints), (2, 1, 1));
        assert_eq!(
            (slot.compact, slot.hibernated),
            (4, 0),
            "gauges take the latest levels, not their sum"
        );
        let mut whole = LatencyHistogram::default();
        for ns in [1_000, 2_000, 100_000] {
            whole.record(ns);
        }
        assert_eq!(slot.latency, whole);

        // Summing across shards adds gauges too.
        let mut other = ShardStats::default();
        other.record_served(3, 50);
        other.compact = 7;
        other.arena_bytes = 96;
        let mut totals = ShardStats::default();
        totals.add(&slot);
        totals.add(&other);
        assert_eq!(totals.served, 4);
        assert_eq!(totals.tier_decisions, [2, 1, 0, 1]);
        assert_eq!((totals.compact, totals.arena_bytes), (11, 96));
        whole.record(50);
        assert_eq!(totals.latency, whole);
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
