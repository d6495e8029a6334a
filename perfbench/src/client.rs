//! The load generator and the `lahd serve` process it drives.
//!
//! One daemon connection carries decisions, a second one control and Stats
//! requests. Open-loop phases run two threads: the sender wakes at each
//! due time and flushes every request due by then in one write; the
//! receiver stamps replies. Closed-loop phases keep a fixed number of
//! requests outstanding from the receiver thread itself.

use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use lahd_serve::{read_frame, write_frame, MetricsSnapshot, Request, Response, MAX_FRAME};

use crate::stats::Reply;
use crate::traffic::Traffic;

/// How long a phase waits for a silent daemon before counting its
/// outstanding requests as missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// A spawned `lahd serve`; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    ctl: Option<(BufReader<UnixStream>, UnixStream)>,
}

impl Daemon {
    /// Spawns `lahd serve <args> --socket <socket>` and waits until the
    /// socket accepts a connection (polled every 200 µs, so the wait adds
    /// little to a measured set-up time).
    pub fn spawn(lahd: &Path, args: &[String], socket: &Path, log: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_file(socket);
        let stderr = File::create(log).map_err(|e| format!("daemon log: {e}"))?;
        let child = Command::new(lahd)
            .arg("serve")
            .args(args)
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", lahd.display()))?;
        let mut daemon = Self {
            child,
            socket: socket.to_path_buf(),
            ctl: None,
        };
        let ctl = daemon.connect()?;
        daemon.ctl = Some(ctl);
        Ok(daemon)
    }

    /// A fresh connection: `(read half, write half)`.
    pub fn connect(&mut self) -> Result<(BufReader<UnixStream>, UnixStream), String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(s) => {
                    let w = s.try_clone().map_err(|e| e.to_string())?;
                    s.set_read_timeout(Some(REPLY_TIMEOUT))
                        .map_err(|e| e.to_string())?;
                    return Ok((BufReader::with_capacity(1 << 16, s), w));
                }
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("daemon exited during start-up: {status}"));
                    }
                    if Instant::now() >= deadline {
                        return Err(format!("daemon socket never accepted: {e}"));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// One control round trip on the control connection.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        let (r, w) = self
            .ctl
            .as_mut()
            .expect("control connection opened at spawn");
        write_frame(w, &req.encode()).map_err(|e| format!("control write: {e}"))?;
        match read_frame(r) {
            Ok(Some(buf)) => Response::decode(&buf).map_err(|e| e.to_string()),
            Ok(None) => Err("daemon closed the control connection".into()),
            Err(e) => Err(format!("control read: {e}")),
        }
    }

    /// The daemon's Stats document.
    pub fn stats(&mut self) -> Result<Stats, String> {
        match self.call(&Request::Stats)? {
            Response::StatsJson(json) => Ok(Stats::parse(&json)),
            other => Err(format!("unexpected stats reply {other:?}")),
        }
    }

    /// Peak resident set of the daemon process, MiB.
    pub fn vm_hwm_mb(&self) -> f64 {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks for a clean shutdown and reaps the process; true on exit 0.
    pub fn shutdown(mut self) -> Result<bool, String> {
        self.call(&Request::Shutdown)?;
        self.ctl = None;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        Ok(status.success())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Peak resident set (VmHWM) from a `/proc/<pid>/status` file, MiB.
pub fn vm_hwm_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A daemon Stats document: the counters [`MetricsSnapshot`] parses, plus
/// the fields it leaves out. All cumulative since daemon start, except the
/// stream gauges.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    pub m: MetricsSnapshot,
    pub queue_full: u64,
    pub tier_decisions: [u64; 4],
    /// Shard-side queue-to-reply latency, quarter-octave bucket bounds.
    pub p50_ns: u64,
    pub p99_ns: u64,
}

impl Stats {
    fn parse(json: &str) -> Self {
        let after = |key: &str| json.find(key).map(|at| &json[at + key.len()..]);
        let field = |name: &str| -> u64 {
            after(&format!("\"{name}\":"))
                .and_then(|rest| {
                    let end = rest
                        .find(|c: char| !c.is_ascii_digit())
                        .unwrap_or(rest.len());
                    rest[..end].parse().ok()
                })
                .unwrap_or(0)
        };
        let mut tiers = [0u64; 4];
        if let Some(rest) = after("\"tier_decisions\":[") {
            let list = &rest[..rest.find(']').unwrap_or(0)];
            for (t, v) in tiers.iter_mut().zip(list.split(',')) {
                *t = v.trim().parse().unwrap_or(0);
            }
        }
        Self {
            m: MetricsSnapshot::from_json(json),
            queue_full: field("queue_full"),
            tier_decisions: tiers,
            p50_ns: field("p50_ns"),
            p99_ns: field("p99_ns"),
        }
    }
}

/// Reads one frame into `buf`; `Ok(false)` on clean EOF. The same framing
/// as `lahd_serve::read_frame`, but into a reused buffer: the receiver
/// reads every reply of a run, and a fresh allocation per reply would add
/// to each measured latency.
pub fn read_frame_into(r: &mut impl Read, buf: &mut Vec<u8>) -> std::io::Result<bool> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(e),
    }
    let n = u32::from_le_bytes(len) as usize;
    if n == 0 || n > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("bad frame length {n}"),
        ));
    }
    buf.resize(n, 0);
    r.read_exact(buf)?;
    Ok(true)
}

/// Appends request `i`'s Decide frame to `out`.
pub fn encode_request(traffic: &Traffic, i: u64, obs: &mut Vec<f32>, out: &mut Vec<u8>) {
    let stream = traffic.request(i, obs);
    let payload = Request::Decide {
        req_id: i,
        stream,
        deadline_us: 0,
        obs: std::mem::take(obs),
    };
    write_frame(out, &payload.encode()).expect("writing to a Vec cannot fail");
    if let Request::Decide { obs: o, .. } = payload {
        *obs = o;
    }
}

/// Lowers this thread's timer slack to 1 ns, so a sleep ends at its due
/// time instead of up to the default 50 µs later. Returns whether it took.
fn set_timer_slack() -> bool {
    let Ok(link) = std::fs::read_link("/proc/thread-self") else {
        return false;
    };
    let Some(tid) = link.file_name().and_then(|s| s.to_str()) else {
        return false;
    };
    std::fs::write(format!("/proc/{tid}/timerslack_ns"), "1").is_ok()
}

/// Everything one phase observed. Times are ns from the phase start.
#[derive(Default)]
pub struct PhaseResult {
    /// Global index of the phase's first request.
    pub first: u64,
    /// One entry per request sent, in send order.
    pub replies: Vec<Reply>,
    /// Error frames (and stray replies) on the decision connection.
    pub errors: u64,
    /// Open loop: when request k was due.
    pub due_ns: Vec<u64>,
    /// When request k's reply was read.
    pub reply_ns: Vec<u64>,
    /// Traced open loop: when the sender woke for request k, and when the
    /// write carrying it returned.
    pub wake_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    /// Closed loop: replies read inside the timed window, and its length.
    pub window_replies: u64,
    pub window_s: f64,
    /// Whether the sender got its 1 ns timer slack.
    pub slack_ok: bool,
}

impl PhaseResult {
    fn new(first: u64, n: usize) -> Self {
        Self {
            first,
            replies: vec![Reply::default(); n],
            reply_ns: vec![0; n],
            ..Self::default()
        }
    }

    /// Records one decision reply; false for a request id outside the phase.
    fn record(&mut self, resp: &Response, at_ns: u64) -> bool {
        let Response::Decision {
            req_id,
            action,
            tier,
            source,
        } = *resp
        else {
            self.errors += 1;
            return false;
        };
        let Some(k) = req_id
            .checked_sub(self.first)
            .filter(|&k| (k as usize) < self.replies.len())
        else {
            self.errors += 1;
            return false;
        };
        let r = &mut self.replies[k as usize];
        let first = r.count == 0;
        *r = Reply {
            action,
            tier,
            source,
            count: r.count.saturating_add(1),
        };
        if first {
            self.reply_ns[k as usize] = at_ns;
        }
        first
    }

    /// Latency of each answered request from its due time, µs.
    pub fn latency_from_due_us(&self) -> Vec<f64> {
        self.answered(&self.due_ns)
    }

    /// Latency of each answered request from its write returning, µs.
    pub fn latency_from_send_us(&self) -> Vec<f64> {
        self.answered(&self.write_ns)
    }

    /// How late each request left the generator, µs.
    pub fn gen_lag_us(&self) -> Vec<f64> {
        self.write_ns
            .iter()
            .zip(&self.due_ns)
            .map(|(&w, &d)| w.saturating_sub(d) as f64 / 1e3)
            .collect()
    }

    fn answered(&self, origin: &[u64]) -> Vec<f64> {
        origin
            .iter()
            .zip(&self.reply_ns)
            .zip(&self.replies)
            .filter(|(_, r)| r.count > 0)
            .map(|((&o, &at), _)| at.saturating_sub(o) as f64 / 1e3)
            .collect()
    }
}

/// Open loop: requests `first..first + n` at `rate` per second, each due
/// at `k / rate` from the phase start.
pub fn open_loop(
    conn: &mut (BufReader<UnixStream>, UnixStream),
    traffic: &Traffic,
    first: u64,
    n: usize,
    rate: f64,
    trace: bool,
) -> PhaseResult {
    // Encode everything up front: the timed loop only writes bytes.
    let mut frames = Vec::new();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut obs = Vec::new();
    for k in 0..n as u64 {
        offsets.push(frames.len());
        encode_request(traffic, first + k, &mut obs, &mut frames);
    }
    offsets.push(frames.len());

    let mut res = PhaseResult::new(first, n);
    let period_ns = 1e9 / rate;
    res.due_ns = (0..n).map(|k| (k as f64 * period_ns) as u64).collect();
    if trace {
        res.wake_ns = vec![0; n];
        res.write_ns = vec![0; n];
    }
    let (reader, writer) = conn;
    let start = Instant::now() + Duration::from_millis(2);
    let ns = move || Instant::now().saturating_duration_since(start).as_nanos() as u64;
    let PhaseResult {
        replies: _,
        due_ns,
        wake_ns,
        write_ns,
        ..
    } = &mut res;
    let due: &[u64] = due_ns;
    let mut rx_res = PhaseResult::new(first, n);
    let slack_ok = std::thread::scope(|s| {
        let rx = s.spawn(|| {
            let mut buf = Vec::new();
            let mut done = 0usize;
            while done < n {
                match read_frame_into(reader, &mut buf) {
                    Ok(true) => {}
                    _ => break,
                }
                let at = ns();
                match Response::decode(&buf) {
                    Ok(resp) => {
                        if rx_res.record(&resp, at) || !matches!(resp, Response::Decision { .. }) {
                            done += 1;
                        }
                    }
                    Err(_) => {
                        rx_res.errors += 1;
                        done += 1;
                    }
                }
            }
        });
        let slack_ok = set_timer_slack();
        let mut k = 0usize;
        while k < n {
            let now = ns();
            if now < due[k] {
                std::thread::sleep(Duration::from_nanos(due[k] - now));
                continue;
            }
            let mut j = k;
            while j < n && due[j] <= now {
                j += 1;
            }
            if writer.write_all(&frames[offsets[k]..offsets[j]]).is_err() {
                break;
            }
            if trace {
                let done = ns();
                wake_ns[k..j].fill(now);
                write_ns[k..j].fill(done);
            }
            k = j;
        }
        rx.join().expect("receiver thread panicked");
        slack_ok
    });
    res.replies = rx_res.replies;
    res.reply_ns = rx_res.reply_ns;
    res.errors = rx_res.errors;
    res.slack_ok = slack_ok;
    res
}

/// When a closed-loop phase stops issuing.
pub enum Stop {
    /// After this many requests.
    Count(u64),
    /// After this long.
    Seconds(f64),
}

/// Closed loop: keeps `window` requests outstanding from `first` on until
/// `stop`, then drains. Replies read before the stop count toward the
/// window's throughput.
pub fn closed_loop(
    conn: &mut (BufReader<UnixStream>, UnixStream),
    traffic: &Traffic,
    first: u64,
    window: usize,
    stop: Stop,
) -> PhaseResult {
    let (reader, writer) = conn;
    let mut res = PhaseResult::new(first, 0);
    let start = Instant::now();
    let end = match stop {
        Stop::Seconds(s) => Some(start + Duration::from_secs_f64(s)),
        Stop::Count(_) => None,
    };
    let limit = match stop {
        Stop::Count(n) => n,
        Stop::Seconds(_) => u64::MAX,
    };
    let mut out = Vec::new();
    let mut obs = Vec::new();
    let mut next = first;
    let mut outstanding = 0usize;
    let mut issuing = true;
    let mut issue = |out: &mut Vec<u8>, next: &mut u64, res: &mut PhaseResult| {
        encode_request(traffic, *next, &mut obs, out);
        res.replies.push(Reply::default());
        res.reply_ns.push(0);
        *next += 1;
    };
    while outstanding < window && next - first < limit {
        issue(&mut out, &mut next, &mut res);
        outstanding += 1;
    }
    let mut buf = Vec::new();
    let mut window_end = None;
    while outstanding > 0 {
        if !out.is_empty() && reader.buffer().is_empty() {
            if writer.write_all(&out).is_err() {
                break;
            }
            out.clear();
        }
        match read_frame_into(reader, &mut buf) {
            Ok(true) => {}
            _ => break,
        }
        let now = Instant::now();
        let at = now.duration_since(start).as_nanos() as u64;
        match Response::decode(&buf) {
            Ok(resp) => {
                if !res.record(&resp, at) && matches!(resp, Response::Decision { .. }) {
                    continue;
                }
            }
            Err(_) => res.errors += 1,
        }
        outstanding -= 1;
        let open = end.is_none_or(|e| now < e);
        if open && window_end.is_none() {
            res.window_replies += 1;
        }
        if issuing && open && next - first < limit {
            issue(&mut out, &mut next, &mut res);
            outstanding += 1;
        } else if issuing {
            issuing = false;
            window_end = Some(now);
        }
    }
    res.window_s = window_end
        .unwrap_or_else(Instant::now)
        .duration_since(start)
        .as_secs_f64();
    res
}
