//! Seeded request streams: which stream each request addresses and what it
//! observes. Every request is a pure function of `(seed, global index)`, so
//! the verifier can regenerate any request after the run instead of storing
//! it, and one seed always yields the same request stream.

use lahd_fsm::{CompiledFsm, StepOutcome};
use lahd_guard::{BaselineProfile, MicroConfig};
use lahd_sim::{Fault, FaultPlan};

/// Decisions a drifted stream serves in band before its rescale starts.
pub const DRIFT_FROM: u64 = 64;

/// Rescale factor of the drifted half (the `--fault drift` default).
pub const DRIFT_FACTOR: f32 = 3.0;

/// SplitMix64: tiny, seedable, and good enough for traffic synthesis.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` with 24 bits of mantissa.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform in `[0, 1)` with 53 bits of mantissa.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf(s) over ranks `0..n` by inverse CDF (binary search).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, u: f64) -> u64 {
        let i = self.cdf.partition_point(|&c| c < u);
        i.min(self.cdf.len() - 1) as u64
    }
}

/// How requests pick their stream.
pub enum Pattern {
    /// Request `i` goes to stream `i mod n`.
    RoundRobin(u64),
    /// Request `i` draws its stream's popularity rank from a Zipf law.
    Zipf(Zipf),
    /// Requests `first..first + rows.len()` replay fixed `(stream,
    /// observation)` rows in order.
    Recorded {
        first: u64,
        rows: Vec<(u64, Vec<f32>)>,
    },
}

/// One workload's request stream.
pub struct Traffic {
    seed: u64,
    band: Vec<(f32, f32)>,
    pattern: Pattern,
    /// Per-stream drift flag (round-robin populations only).
    drifted: Vec<bool>,
}

impl Traffic {
    /// Observations are i.i.d. uniform inside each dimension's
    /// interquartile band of the training-time profile.
    pub fn new(seed: u64, profile: &BaselineProfile, pattern: Pattern) -> Self {
        let band = profile
            .dims
            .iter()
            .map(|d| (d.p25 as f32, d.p75 as f32))
            .collect();
        Self {
            seed,
            band,
            pattern,
            drifted: Vec::new(),
        }
    }

    /// Requests `first..first + rows.len()` carry `rows` in order.
    pub fn recorded(first: u64, rows: Vec<(u64, Vec<f32>)>) -> Self {
        Self {
            seed: 0,
            band: Vec::new(),
            pattern: Pattern::Recorded { first, rows },
            drifted: Vec::new(),
        }
    }

    /// Marks a seeded half of a round-robin population as drifted: from its
    /// [`DRIFT_FROM`]th decision on, its observations are rescaled.
    pub fn with_drifted_half(mut self) -> Self {
        let Pattern::RoundRobin(n) = self.pattern else {
            panic!("drift is defined over a round-robin population");
        };
        let mut order: Vec<u64> = (0..n).collect();
        let mut rng = Rng::new(self.seed ^ 0xD41F_7000);
        for i in (1..order.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        self.drifted = vec![false; n as usize];
        for &s in &order[..n as usize / 2] {
            self.drifted[s as usize] = true;
        }
        self
    }

    /// Whether `stream` belongs to the drifted half.
    pub fn is_drifted(&self, stream: u64) -> bool {
        self.drifted.get(stream as usize).copied().unwrap_or(false)
    }

    /// Streams in the population (round-robin) or Zipf support size.
    pub fn population(&self) -> u64 {
        match &self.pattern {
            Pattern::RoundRobin(n) => *n,
            Pattern::Zipf(z) => z.cdf.len() as u64,
            Pattern::Recorded { rows, .. } => rows.len() as u64,
        }
    }

    /// Stream addressed by global request `i`.
    pub fn stream(&self, i: u64) -> u64 {
        match &self.pattern {
            Pattern::RoundRobin(n) => i % n,
            Pattern::Zipf(z) => z.sample(Rng::new(mix(self.seed ^ 0x21FF) ^ i).next_f64()),
            Pattern::Recorded { first, rows } => rows[(i - first) as usize].0,
        }
    }

    /// Fills `out` with global request `i`'s observation; returns its stream.
    pub fn request(&self, i: u64, out: &mut Vec<f32>) -> u64 {
        if let Pattern::Recorded { first, rows } = &self.pattern {
            let (stream, obs) = &rows[(i - first) as usize];
            out.clear();
            out.extend_from_slice(obs);
            return *stream;
        }
        let stream = self.stream(i);
        let mut rng = Rng::new(mix(self.seed) ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03));
        out.clear();
        out.extend(
            self.band
                .iter()
                .map(|&(lo, hi)| lo + (hi - lo) * rng.next_f32()),
        );
        if let (true, Pattern::RoundRobin(n)) = (self.is_drifted(stream), &self.pattern) {
            // Round-robin: request i is stream i mod n's (i / n)th decision.
            let rescale = Fault::Rescale {
                factor: DRIFT_FACTOR,
            };
            FaultPlan::single(self.seed, rescale, DRIFT_FROM, u64::MAX).apply(i / n, out);
        }
        stream
    }
}

/// Candidates a verification walk draws per step (more while none fits).
const WALK_TRIES: usize = 32;

/// Verification traffic: `streams` walks of `steps` observations each,
/// drawn with `seed` from `pool`, interleaved step by step; walk `s` is
/// stream `first_stream + s`. Each step takes, among [`WALK_TRIES`] drawn
/// candidates, the one whose next state the walks have visited least.
/// The daemon's compact tier promotes a stream on a run of identical
/// observations, or on too many unseen transitions or out-of-band
/// observations (`oob[k]` for `pool[k]`) in one window; a walk never
/// repeats an observation and spends at most half of each budget per
/// window, so the streams stay on the FSM tier while the walks spread
/// over the machine's states and actions.
pub fn machine_walks(
    compiled: &CompiledFsm,
    pool: &[Vec<f32>],
    oob: &[bool],
    seed: u64,
    streams: usize,
    steps: usize,
    first_stream: u64,
) -> Vec<(u64, Vec<f32>)> {
    let micro = MicroConfig::default();
    let (max_unseen, max_oob) = (
        micro.max_unseen_per_window / 2,
        micro.max_oob_per_window / 2,
    );
    let mut rng = Rng::new(mix(seed ^ 0x3A1C_0000));
    let mut scratch = compiled.make_scratch();
    let mut visits = vec![0u64; compiled.num_states()];
    /// One walk: its state, previous pick, and flagged steps this window.
    #[derive(Clone)]
    struct Walk {
        state: u16,
        last: Option<usize>,
        unseen: u16,
        oob: u16,
    }
    let fresh = Walk {
        state: compiled.initial_state(),
        last: None,
        unseen: 0,
        oob: 0,
    };
    let mut walks = vec![fresh; streams];
    let mut out = Vec::with_capacity(streams * steps);
    for t in 0..steps {
        for (s, w) in walks.iter_mut().enumerate() {
            if t % micro.window as usize == 0 {
                (w.unseen, w.oob) = (0, 0);
            }
            let mut best: Option<(u64, usize, StepOutcome)> = None;
            for tries in 0..WALK_TRIES << 10 {
                if tries >= WALK_TRIES && best.is_some() {
                    break;
                }
                let k = (rng.next_u64() % pool.len() as u64) as usize;
                let o = compiled.step(&pool[k], w.state, &mut scratch);
                let allowed = w.last.is_none_or(|l| pool[l] != pool[k])
                    && (!o.unseen || w.unseen < max_unseen)
                    && (!oob[k] || w.oob < max_oob);
                let v = visits[o.next_state as usize];
                if allowed && best.as_ref().is_none_or(|&(b, _, _)| v < b) {
                    best = Some((v, k, o));
                }
            }
            let (_, k, o) = best.expect("a dataset's observations offer a seen, in-band step");
            visits[o.next_state as usize] += 1;
            w.state = o.next_state;
            w.last = Some(k);
            w.unseen += o.unseen as u16;
            w.oob += oob[k] as u16;
            out.push((first_stream + s as u64, pool[k].clone()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahd_guard::StreamingProfile;

    fn profile() -> BaselineProfile {
        let mut sp = StreamingProfile::new(3);
        let mut rng = Rng::new(7);
        for _ in 0..512 {
            sp.push(&[rng.next_f32(), 2.0 * rng.next_f32(), 5.0 + rng.next_f32()]);
        }
        sp.profile()
    }

    #[test]
    fn one_seed_yields_one_request_stream() {
        let p = profile();
        let a = Traffic::new(42, &p, Pattern::Zipf(Zipf::new(1000, 0.9)));
        let b = Traffic::new(42, &p, Pattern::Zipf(Zipf::new(1000, 0.9)));
        let c = Traffic::new(43, &p, Pattern::Zipf(Zipf::new(1000, 0.9)));
        let (mut x, mut y, mut z) = (Vec::new(), Vec::new(), Vec::new());
        let mut differs = false;
        for i in 0..2000 {
            assert_eq!(a.request(i, &mut x), b.request(i, &mut y));
            assert_eq!(x, y);
            let sc = c.request(i, &mut z);
            differs |= sc != a.stream(i) || z != x;
        }
        assert!(differs, "another seed must give another stream");
    }

    #[test]
    fn in_band_observations_stay_inside_the_interquartile_band() {
        let p = profile();
        let t = Traffic::new(1, &p, Pattern::RoundRobin(16));
        let mut obs = Vec::new();
        for i in 0..500 {
            t.request(i, &mut obs);
            for (v, d) in obs.iter().zip(&p.dims) {
                assert!((d.p25 as f32..=d.p75 as f32).contains(v));
            }
        }
    }

    #[test]
    fn drift_rescales_exactly_half_after_the_in_band_prefix() {
        let p = profile();
        let n = 64;
        let plain = Traffic::new(5, &p, Pattern::RoundRobin(n));
        let drift = Traffic::new(5, &p, Pattern::RoundRobin(n)).with_drifted_half();
        assert_eq!((0..n).filter(|&s| drift.is_drifted(s)).count(), 32);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..n * (DRIFT_FROM + 2) {
            let s = plain.request(i, &mut a);
            drift.request(i, &mut b);
            if drift.is_drifted(s) && i / n >= DRIFT_FROM {
                let scaled: Vec<f32> = a.iter().map(|v| v * DRIFT_FACTOR).collect();
                assert_eq!(b, scaled);
            } else {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn recorded_traffic_replays_its_rows_from_its_first_index() {
        let rows = vec![(7, vec![1.0, 2.0]), (9, vec![3.0, 4.0])];
        let t = Traffic::recorded(100, rows);
        let mut obs = Vec::new();
        assert_eq!(t.request(101, &mut obs), 9);
        assert_eq!(obs, [3.0, 4.0]);
        assert_eq!(t.stream(100), 7);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1_000_000, 0.9);
        let mut rng = Rng::new(3);
        let draws: Vec<u64> = (0..20_000).map(|_| z.sample(rng.next_f64())).collect();
        let head = draws.iter().filter(|&&r| r < 1000).count();
        assert!(head > 5_000, "head share {head}");
        assert!(draws.iter().all(|&r| r < 1_000_000));
    }
}
