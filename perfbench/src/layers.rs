//! Traced runs only: replays a phase's recorded inputs in-process through
//! the lower layers' public functions and times each call, so the
//! per-layer costs can be set beside the end-to-end figures.

use std::collections::HashMap;
use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

use lahd_core::{build_ladder, PipelineConfig, SHADOW_TIER};
use lahd_fsm::{CompiledCursor, VecPolicy};
use lahd_guard::{GuardConfig, GuardedPolicy};
use lahd_serve::persist::{recover_shard, ShardPersist};
use lahd_serve::{
    read_frame, shard_of, write_frame, CompactStream, HibernationArena, Request, Response,
    ServeBundle, StreamTable, REC_BYTES,
};

use crate::stats::median;
use crate::traffic::Traffic;

/// Decisions per daemon batch (the `--batch-max` default).
const BATCH: usize = 12;

/// Inputs of the replays: the served bundle and a phase's requests.
pub struct Replay<'a> {
    pub cfg: &'a PipelineConfig,
    pub bundle: &'a ServeBundle,
    pub artifacts_dir: &'a Path,
    pub traffic: &'a Traffic,
    /// Global request indices of the replayed phase, in send order.
    pub requests: std::ops::Range<u64>,
    /// A stream whose own decision sequence the guard replay follows
    /// (a drifted one on serve-drift).
    pub guard_stream: u64,
    /// Scratch directory for the checkpoint replay.
    pub scratch_dir: &'a Path,
}

fn per_call_ns(t: Instant, calls: usize) -> f64 {
    t.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

impl Replay<'_> {
    fn obs_of(&self, i: u64) -> (u64, Vec<f32>) {
        let mut obs = Vec::new();
        let s = self.traffic.request(i, &mut obs);
        (s, obs)
    }

    fn sample(&self, n: usize) -> Vec<(u64, Vec<f32>)> {
        self.requests
            .clone()
            .take(n)
            .map(|i| self.obs_of(i))
            .collect()
    }

    /// Every layer metric this module measures, by name.
    pub fn run(&self) -> Result<Vec<(&'static str, f64)>, String> {
        let mut m = Vec::new();
        let sample = self.sample(4096);
        m.push(("protocol.codec_ns", codec_ns(&sample)));
        m.push(("protocol.hop_us", hop_us(&sample[0].1)?));
        let (step_ns, unseen) = self.fsm_step_batch(&sample);
        m.push(("fsm.step_batch_ns", step_ns));
        m.push(("fsm.unseen_share", unseen));
        m.push(("guard.act_ns", self.guard_act_ns()));
        let (q, e) = self.infer_ns(&sample);
        m.push(("rl.infer_quant_ns", q));
        m.push(("rl.infer_exact_ns", e));
        let (lookup, hibernate, wake) = self.table_and_arena();
        m.push(("stream_table.lookup_ns", lookup));
        m.push(("compact.hibernate_ns", hibernate));
        m.push(("compact.wake_ns", wake));
        let (ckpt, recover) = self.persist_ms()?;
        m.push(("persist.checkpoint_ms", ckpt));
        m.push(("persist.recover_ms", recover));
        m.push(("bundle.load_ms", self.bundle_load_ms()?));
        Ok(m)
    }

    /// `CompiledFsm::step_batch` per decision over batches of [`BATCH`]
    /// consecutive requests, each row against its stream's replayed state;
    /// plus the share of steps whose code missed the symbol table.
    fn fsm_step_batch(&self, sample: &[(u64, Vec<f32>)]) -> (f64, f64) {
        let Some(compiled) = self.bundle.compiled.as_deref() else {
            return (0.0, 0.0);
        };
        let mut scratch = compiled.make_batch_scratch();
        let mut states: HashMap<u64, u16> = HashMap::new();
        let mut row_states = Vec::with_capacity(BATCH);
        let mut out = Vec::with_capacity(BATCH);
        let (mut busy_ns, mut unseen, mut steps) = (0u128, 0usize, 0usize);
        for chunk in sample.chunks(BATCH) {
            row_states.clear();
            row_states.extend(
                chunk
                    .iter()
                    .map(|(s, _)| *states.get(s).unwrap_or(&compiled.initial_state())),
            );
            out.clear();
            let t = Instant::now();
            compiled.step_batch(
                chunk.iter().map(|(_, o)| o.as_slice()),
                &row_states,
                &mut scratch,
                &mut out,
            );
            busy_ns += t.elapsed().as_nanos();
            for ((s, _), o) in chunk.iter().zip(&out) {
                states.insert(*s, o.next_state);
                unseen += o.unseen as usize;
                steps += 1;
            }
        }
        (
            busy_ns as f64 / steps.max(1) as f64,
            unseen as f64 / steps.max(1) as f64,
        )
    }

    /// One `build_ladder` guard's `act_vec`, deferred shadow replay
    /// included, over one stream's own decision sequence.
    fn guard_act_ns(&self) -> f64 {
        let mut guard = GuardedPolicy::new(
            build_ladder(self.cfg, &self.bundle.artifacts),
            SHADOW_TIER,
            self.bundle.baseline.clone(),
            GuardConfig::default(),
        );
        let n = 1024u64;
        let pop = self.traffic.population();
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|k| self.obs_of(self.guard_stream + k * pop).1)
            .collect();
        let t = Instant::now();
        for obs in &inputs {
            black_box(guard.act_vec(obs));
        }
        per_call_ns(t, inputs.len())
    }

    /// `InferEngine::infer_into`, quantized and exact, carrying the hidden
    /// state from call to call.
    fn infer_ns(&self, sample: &[(u64, Vec<f32>)]) -> (f64, f64) {
        let agent = &self.bundle.artifacts.agent;
        let time = |engine: &lahd_rl::InferEngine| {
            let mut hidden = agent.initial_state();
            let mut scratch = lahd_rl::InferScratch::default();
            let t = Instant::now();
            for (_, obs) in sample {
                engine.infer_into(agent, obs, &hidden, &mut scratch);
                std::mem::swap(&mut hidden, &mut scratch.hidden);
            }
            black_box(&hidden);
            per_call_ns(t, sample.len())
        };
        (time(&self.bundle.quant), time(&self.bundle.exact))
    }

    /// Keys one shard of a two-shard daemon owns.
    fn shard0_keys(&self) -> Vec<u64> {
        (0..self.traffic.population())
            .filter(|&k| shard_of(k, 2) == 0)
            .collect()
    }

    /// Stream-table lookups of the phase's key sequence against one
    /// shard's share of the population; arena hibernate of that share and
    /// wake of the phase's distinct keys.
    fn table_and_arena(&self) -> (f64, f64, f64) {
        let keys = self.shard0_keys();
        let seq: Vec<u64> = self
            .requests
            .clone()
            .take(65_536)
            .map(|i| self.traffic.stream(i))
            .filter(|&k| shard_of(k, 2) == 0)
            .collect();
        let mut table: StreamTable<u32> = StreamTable::with_capacity(1024);
        for (v, &k) in keys.iter().enumerate() {
            table.insert(k, v as u32);
        }
        let t = Instant::now();
        for &k in &seq {
            black_box(table.lookup(k));
        }
        let lookup = per_call_ns(t, seq.len());

        let Some(compiled) = self.bundle.compiled.as_deref() else {
            return (lookup, 0.0, 0.0);
        };
        let fresh = CompactStream::new(CompiledCursor::new(compiled), u64::MAX);
        let mut arena = HibernationArena::new(1 << 20);
        let t = Instant::now();
        for &k in &keys {
            arena.hibernate(k, &fresh);
        }
        let hibernate = per_call_ns(t, keys.len());
        let mut woken = 0usize;
        let t = Instant::now();
        for &k in &seq {
            woken += black_box(arena.wake(k)).is_some() as usize;
        }
        let wake = per_call_ns(t, woken);
        (lookup, hibernate, wake)
    }

    /// `ShardPersist::write_checkpoint` of one shard's share of the
    /// population, and `recover_shard` reading it back (medians of 3).
    fn persist_ms(&self) -> Result<(f64, f64), String> {
        let Some(compiled) = self.bundle.compiled.as_deref() else {
            return Ok((0.0, 0.0));
        };
        let fresh = CompactStream::new(CompiledCursor::new(compiled), u64::MAX);
        let keys = self.shard0_keys();
        let mut table = vec![0u8; keys.len() * REC_BYTES];
        for (rec, &k) in table.chunks_exact_mut(REC_BYTES).zip(&keys) {
            fresh.serialize_into(k, rec);
        }
        let _ = std::fs::remove_dir_all(self.scratch_dir);
        let mut p =
            ShardPersist::create(self.scratch_dir, 0).map_err(|e| format!("scratch dir: {e}"))?;
        let (mut write, mut read) = (Vec::new(), Vec::new());
        for tick in 0..3 {
            let t = Instant::now();
            p.write_checkpoint(tick, &table, &[])
                .map_err(|e| format!("checkpoint replay: {e}"))?;
            write.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let rec = recover_shard(self.scratch_dir, 0);
            read.push(t.elapsed().as_secs_f64() * 1e3);
            if rec.recovered != keys.len() as u64 {
                return Err(format!(
                    "checkpoint replay recovered {} of {} records",
                    rec.recovered,
                    keys.len()
                ));
            }
        }
        let _ = std::fs::remove_dir_all(self.scratch_dir);
        Ok((median(&mut write), median(&mut read)))
    }

    /// `ServeBundle::load`: load, validate, compile and probe (median of 5).
    fn bundle_load_ms(&self) -> Result<f64, String> {
        let mut ms = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            black_box(ServeBundle::load(self.cfg, self.artifacts_dir)?);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(median(&mut ms))
    }
}

/// Encode and decode of one Decide and its Decision, per pair.
fn codec_ns(sample: &[(u64, Vec<f32>)]) -> f64 {
    let reqs: Vec<Request> = sample
        .iter()
        .enumerate()
        .map(|(i, (s, obs))| Request::Decide {
            req_id: i as u64,
            stream: *s,
            deadline_us: 0,
            obs: obs.clone(),
        })
        .collect();
    let reps = 8;
    let t = Instant::now();
    for _ in 0..reps {
        for (i, req) in reqs.iter().enumerate() {
            let decoded = Request::decode(&req.encode()).expect("own encoding decodes");
            let resp = Response::Decision {
                req_id: i as u64,
                action: 1,
                tier: 0,
                source: 0,
            };
            let back = Response::decode(&resp.encode()).expect("own encoding decodes");
            black_box((decoded, back));
        }
    }
    per_call_ns(t, reps * reqs.len())
}

/// One Decide frame between two threads over a socket pair, through the
/// daemon's own `write_frame`/`read_frame`: half the median echo round
/// trip, µs.
fn hop_us(obs: &[f32]) -> Result<f64, String> {
    let (mut a, b) = UnixStream::pair().map_err(|e| e.to_string())?;
    let payload = Request::Decide {
        req_id: 1,
        stream: 1,
        deadline_us: 0,
        obs: obs.to_vec(),
    }
    .encode();
    let echo = std::thread::spawn(move || {
        let mut b = b;
        while let Ok(Some(frame)) = read_frame(&mut b) {
            if write_frame(&mut b, &frame).is_err() {
                break;
            }
        }
    });
    let mut rtt = Vec::with_capacity(4000);
    for _ in 0..4000 {
        let t = Instant::now();
        write_frame(&mut a, &payload).map_err(|e| e.to_string())?;
        if read_frame(&mut a).map_err(|e| e.to_string())?.is_none() {
            return Err("echo thread hung up".into());
        }
        rtt.push(t.elapsed().as_secs_f64() * 1e6 / 2.0);
    }
    drop(a);
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())?;
    Ok(median(&mut rtt))
}
