//! Exact quantiles over raw samples and per-phase failure accounting.

use lahd_serve::Source;

/// A quantile of raw samples: the value and how many samples it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank quantile `q ∈ [0, 1]` of `sorted` (ascending); `None` when
/// empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<Quantile> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    Some(Quantile {
        value: sorted[rank - 1],
        samples: sorted.len(),
    })
}

/// Sorts `values` and returns its `(p50, p99)`.
pub fn p50_p99(values: &mut [f64]) -> Option<(Quantile, Quantile)> {
    values.sort_by(|a, b| a.total_cmp(b));
    Some((quantile(values, 0.5)?, quantile(values, 0.99)?))
}

/// Requests per window of [`windowed_p99`].
pub const TAIL_WINDOW: usize = 1000;

/// The median, over consecutive windows of [`TAIL_WINDOW`] latencies in
/// send order, of each window's exact p99 (ten samples beyond it), and the
/// number of windows. A phase-wide p99 on a shared 2-vCPU host is set by
/// how many host stalls a run happens to catch; the median window's p99 is
/// the tail a typical stretch of the phase sees.
pub fn windowed_p99(latencies: &[f64]) -> Option<(f64, usize)> {
    let mut p99s: Vec<f64> = latencies
        .chunks_exact(TAIL_WINDOW)
        .map(|w| {
            let mut w = w.to_vec();
            p50_p99(&mut w).expect("non-empty window").1.value
        })
        .collect();
    if p99s.is_empty() {
        return None;
    }
    Some((median(&mut p99s), p99s.len()))
}

/// The replies per second each consecutive window of `window_ns` inside
/// `[0, span_ns)` completed; `reply_ns` holds the reply times of answered
/// requests. Capacity is the median over these windows: a serve-fleet
/// checkpoint stalls a shard for a few hundred milliseconds, and how many
/// stalls a closed-loop phase catches varies by one or two between runs,
/// which moves a phase-wide rate far more than the median window's.
pub fn window_rates(reply_ns: &[u64], span_ns: u64, window_ns: u64) -> Vec<f64> {
    let mut counts = vec![0u64; (span_ns / window_ns) as usize];
    for &t in reply_ns {
        if let Some(c) = counts.get_mut((t / window_ns) as usize) {
            *c += 1;
        }
    }
    counts
        .iter()
        .map(|&c| c as f64 * 1e9 / window_ns as f64)
        .collect()
}

/// Median of a small set of repeated measurements.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    quantile(values, 0.5).map_or(f64::NAN, |q| q.value)
}

/// One reply as the receiver saw it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Reply {
    pub action: u16,
    pub tier: u8,
    pub source: u8,
    /// Replies received for this request id (exactly one is correct).
    pub count: u8,
}

impl Reply {
    /// Answered on the stream's own ladder (not shed, not past deadline).
    pub fn guarded(&self) -> bool {
        self.source == Source::Guarded as u8
    }
}

/// Decide outcomes of one phase, counted against requests sent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    pub answered: u64,
    /// Shed by admission control or stream-table capacity.
    pub shed: u64,
    /// Answered from the fallback after the deadline expired.
    pub deadline: u64,
    /// Error frames on the decision connection.
    pub errors: u64,
    /// Requests with no reply at all.
    pub missing: u64,
    /// Requests answered more than once.
    pub duplicated: u64,
}

impl Tally {
    /// Counts the replies of one phase (`errors` comes from the receiver:
    /// error frames carry no request id).
    pub fn of(replies: &[Reply], errors: u64) -> Self {
        let mut t = Tally {
            sent: replies.len() as u64,
            errors,
            ..Tally::default()
        };
        for r in replies {
            match r.count {
                0 => t.missing += 1,
                1 => t.answered += 1,
                _ => {
                    t.answered += 1;
                    t.duplicated += 1;
                }
            }
            if r.count > 0 {
                match Source::from_u8(r.source) {
                    Some(Source::Shed) => t.shed += 1,
                    Some(Source::Deadline) => t.deadline += 1,
                    _ => {}
                }
            }
        }
        t
    }

    /// Failed decide requests: shed, deadline fallbacks, error frames and
    /// missing replies. An error frame answers nothing, so it also leaves a
    /// request missing; count whichever of the two is larger, not both.
    pub fn failed(&self) -> u64 {
        self.shed + self.deadline + self.missing.max(self.errors)
    }

    pub fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.answered += o.answered;
        self.shed += o.shed;
        self.deadline += o.deadline;
        self.errors += o.errors;
        self.missing += o.missing;
        self.duplicated += o.duplicated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_on_raw_samples() {
        let mut v: Vec<f64> = (1..=10_000).rev().map(f64::from).collect();
        let (p50, p99) = p50_p99(&mut v).unwrap();
        assert_eq!(p50.value, 5000.0);
        assert_eq!(p99.value, 9900.0);
        assert_eq!(p99.samples, 10_000);
        // 100 samples lie beyond p99.
        assert_eq!(v.iter().filter(|&&x| x > p99.value).count(), 100);
        assert_eq!(quantile(&[7.0], 0.99).unwrap().value, 7.0);
        assert!(quantile(&[], 0.5).is_none());
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_p99_is_the_median_window_tail() {
        // Three windows; the middle one holds a stall that the phase-wide
        // p99 would report.
        let mut lat = vec![10.0; 3 * TAIL_WINDOW];
        for (k, v) in lat.iter_mut().enumerate() {
            *v += (k % TAIL_WINDOW) as f64 / 100.0;
        }
        for v in &mut lat[TAIL_WINDOW..TAIL_WINDOW + 50] {
            *v = 5000.0;
        }
        let (p99, windows) = windowed_p99(&lat).unwrap();
        assert_eq!(windows, 3);
        assert_eq!(p99, 10.0 + 989.0 / 100.0);
        assert!(windowed_p99(&lat[..TAIL_WINDOW - 1]).is_none());
    }

    #[test]
    fn window_rates_count_replies_per_window() {
        // Ten 100 ms windows at 1000 replies each, one of them stalled.
        let mut t: Vec<u64> = (0..10_000u64).map(|k| k * 100_000).collect();
        t.retain(|&ns| !(300_000_000..400_000_000).contains(&ns));
        t.push(2_000_000_000); // past the span: ignored
        let mut rates = window_rates(&t, 1_000_000_000, 100_000_000);
        assert_eq!(rates.len(), 10);
        assert_eq!(rates[3], 0.0);
        assert_eq!(median(&mut rates), 10_000.0);
        assert!(window_rates(&t, 50, 100).is_empty());
    }

    #[test]
    fn failures_count_sheds_deadlines_errors_and_missing_replies() {
        let ok = Reply {
            count: 1,
            ..Reply::default()
        };
        let shed = Reply {
            source: Source::Shed as u8,
            count: 1,
            ..Reply::default()
        };
        let late = Reply {
            source: Source::Deadline as u8,
            count: 1,
            ..Reply::default()
        };
        let lost = Reply::default();
        let twice = Reply { count: 2, ..ok };
        let t = Tally::of(&[ok, shed, late, lost, twice, ok], 0);
        assert_eq!(t.sent, 6);
        assert_eq!(t.answered, 5);
        assert_eq!((t.shed, t.deadline, t.missing, t.duplicated), (1, 1, 1, 1));
        assert_eq!(t.failed(), 3);
        // An error frame in place of a reply is one failure, not two.
        let t = Tally::of(&[ok, lost], 1);
        assert_eq!(t.failed(), 1);
        let mut sum = Tally::default();
        sum.add(&t);
        sum.add(&t);
        assert_eq!((sum.sent, sum.failed()), (4, 2));
    }
}
