//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! Every message is a little-endian `u32` payload length followed by the
//! payload; the first payload byte is a tag, the rest tag-specific fields
//! (all integers little-endian, observations as raw `f32` bits). The format
//! is deliberately tiny — no self-description, no versioning beyond the
//! [`MAGIC`] byte — because both ends live in this workspace. Decoding is
//! total: any malformed frame becomes a typed [`ProtoError`], never a
//! panic, so a misbehaving client cannot take a shard down.

use std::io::{Read, Write};

/// First payload byte of every frame; rejects plaintext noise early.
pub const MAGIC: u8 = 0xA7;

/// Upper bound on a frame payload; anything larger is a protocol error
/// (the daemon must not let one client balloon its memory).
pub const MAX_FRAME: usize = 1 << 20;

/// Where a decision's answer came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The stream's guarded ladder served it on the normal path.
    Guarded = 0,
    /// Admission control shed it to the daemon-level fallback policy.
    Shed = 1,
    /// Its deadline expired in the queue; answered from the shard fallback.
    Deadline = 2,
}

impl Source {
    /// Decodes the wire byte.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Source::Guarded),
            1 => Some(Source::Shed),
            2 => Some(Source::Deadline),
            _ => None,
        }
    }

    /// Stable label for JSON summaries.
    pub fn name(self) -> &'static str {
        match self {
            Source::Guarded => "guarded",
            Source::Shed => "shed",
            Source::Deadline => "deadline",
        }
    }
}

/// A client → daemon message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Ask for the action for one observation of one stream. `deadline_us`
    /// is the budget from admission (0 = none); expired work is answered
    /// from the fallback tier.
    Decide {
        /// Caller-chosen correlation id echoed in the response.
        req_id: u64,
        /// Stream identity; hashed to a shard.
        stream: u64,
        /// Deadline budget in microseconds from enqueue (0 = unbounded).
        deadline_us: u64,
        /// The observation vector.
        obs: Vec<f32>,
    },
    /// Ask for the metrics snapshot as JSON.
    Stats,
    /// Validate the artifact bundle in `dir` off-path and, if it is sound,
    /// atomically swap it in; on any validation error the old bundle keeps
    /// serving.
    Reload {
        /// Artifact directory of the candidate bundle.
        dir: String,
    },
    /// Stop the daemon cleanly.
    Shutdown,
    /// Chaos injection (only honoured when the daemon allows chaos): panic
    /// the given shard's worker thread.
    Crash {
        /// Target shard index.
        shard: u32,
    },
    /// Chaos injection: make the given shard's worker sleep, letting its
    /// queue fill so admission control is exercised deterministically.
    Hold {
        /// Target shard index.
        shard: u32,
        /// Sleep duration in milliseconds.
        ms: u32,
    },
    /// Liveness probe: answered [`Response::Ok`] inline on the connection
    /// thread, without touching any shard queue — so a health check
    /// succeeds even under full admission-control backpressure.
    Ping,
}

/// A daemon → client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The answer to a [`Request::Decide`].
    Decision {
        /// Echo of the request's correlation id.
        req_id: u64,
        /// Chosen action index.
        action: u16,
        /// Ladder tier that produced the action.
        tier: u8,
        /// Which path answered (see [`Source`]).
        source: u8,
    },
    /// Metrics snapshot.
    StatsJson(String),
    /// Reload succeeded; the new bundle generation.
    ReloadOk {
        /// Monotonic bundle generation after the swap.
        generation: u64,
    },
    /// The request failed; the old state is unchanged.
    Err(String),
    /// Acknowledgement for control messages with no payload.
    Ok,
}

/// A decode or framing failure.
#[derive(Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// Frame length prefix exceeds [`MAX_FRAME`] or is zero.
    BadLength(usize),
    /// Payload did not start with [`MAGIC`] or had an unknown tag.
    BadTag(u8),
    /// Payload ended before its fields did.
    Truncated,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadLength(n) => write!(f, "bad frame length {n}"),
            ProtoError::BadTag(t) => write!(f, "bad magic/tag byte {t:#04x}"),
            ProtoError::Truncated => write!(f, "frame payload truncated"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Appends one frame to `out`, for writers that put several frames in one
/// write.
pub(crate) fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_FRAME);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let n = u32::from_le_bytes(len) as usize;
    if n == 0 || n > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            ProtoError::BadLength(n).to_string(),
        ));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::Truncated)
    }

    fn done(&self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Truncated)
        }
    }
}

fn push_string(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let n = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&(n as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..n]);
}

impl Request {
    /// Serialises into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![MAGIC];
        match self {
            Request::Decide {
                req_id,
                stream,
                deadline_us,
                obs,
            } => {
                out.push(1);
                out.extend_from_slice(&req_id.to_le_bytes());
                out.extend_from_slice(&stream.to_le_bytes());
                out.extend_from_slice(&deadline_us.to_le_bytes());
                out.extend_from_slice(&(obs.len() as u16).to_le_bytes());
                for v in obs {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Request::Stats => out.push(2),
            Request::Reload { dir } => {
                out.push(3);
                push_string(&mut out, dir);
            }
            Request::Shutdown => out.push(4),
            Request::Crash { shard } => {
                out.push(5);
                out.extend_from_slice(&shard.to_le_bytes());
            }
            Request::Hold { shard, ms } => {
                out.push(6);
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&ms.to_le_bytes());
            }
            Request::Ping => out.push(7),
        }
        out
    }

    /// Parses a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        let mut c = Cursor { buf, pos: 0 };
        let magic = c.u8()?;
        if magic != MAGIC {
            return Err(ProtoError::BadTag(magic));
        }
        let tag = c.u8()?;
        let req = match tag {
            1 => {
                let req_id = c.u64()?;
                let stream = c.u64()?;
                let deadline_us = c.u64()?;
                let n = c.u16()? as usize;
                let mut obs = Vec::with_capacity(n);
                for _ in 0..n {
                    obs.push(f32::from_le_bytes(c.take(4)?.try_into().unwrap()));
                }
                Request::Decide {
                    req_id,
                    stream,
                    deadline_us,
                    obs,
                }
            }
            2 => Request::Stats,
            3 => Request::Reload { dir: c.string()? },
            4 => Request::Shutdown,
            5 => Request::Crash { shard: c.u32()? },
            6 => Request::Hold {
                shard: c.u32()?,
                ms: c.u32()?,
            },
            7 => Request::Ping,
            t => return Err(ProtoError::BadTag(t)),
        };
        c.done()?;
        Ok(req)
    }
}

impl Response {
    /// Serialises into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![MAGIC];
        match self {
            Response::Decision {
                req_id,
                action,
                tier,
                source,
            } => {
                out.push(1);
                out.extend_from_slice(&req_id.to_le_bytes());
                out.extend_from_slice(&action.to_le_bytes());
                out.push(*tier);
                out.push(*source);
            }
            Response::StatsJson(s) => {
                out.push(2);
                push_string(&mut out, s);
            }
            Response::ReloadOk { generation } => {
                out.push(3);
                out.extend_from_slice(&generation.to_le_bytes());
            }
            Response::Err(s) => {
                out.push(4);
                push_string(&mut out, s);
            }
            Response::Ok => out.push(5),
        }
        out
    }

    /// Parses a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        let mut c = Cursor { buf, pos: 0 };
        let magic = c.u8()?;
        if magic != MAGIC {
            return Err(ProtoError::BadTag(magic));
        }
        let tag = c.u8()?;
        let resp = match tag {
            1 => Response::Decision {
                req_id: c.u64()?,
                action: c.u16()?,
                tier: c.u8()?,
                source: c.u8()?,
            },
            2 => Response::StatsJson(c.string()?),
            3 => Response::ReloadOk {
                generation: c.u64()?,
            },
            4 => Response::Err(c.string()?),
            5 => Response::Ok,
            t => return Err(ProtoError::BadTag(t)),
        };
        c.done()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests() -> Vec<Request> {
        vec![
            Request::Decide {
                req_id: 42,
                stream: 7,
                deadline_us: 1500,
                obs: vec![0.25, -1.0, 3.5],
            },
            Request::Decide {
                req_id: 0,
                stream: u64::MAX,
                deadline_us: 0,
                obs: vec![],
            },
            Request::Stats,
            Request::Reload {
                dir: "/tmp/artifacts".to_string(),
            },
            Request::Shutdown,
            Request::Crash { shard: 3 },
            Request::Hold { shard: 1, ms: 25 },
            Request::Ping,
        ]
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Decision {
                req_id: 42,
                action: 6,
                tier: 2,
                source: Source::Shed as u8,
            },
            Response::StatsJson("{\"served\":1}".to_string()),
            Response::ReloadOk { generation: 9 },
            Response::Err("no such shard".to_string()),
            Response::Ok,
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for req in requests() {
            let decoded = Request::decode(&req.encode()).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in responses() {
            let decoded = Response::decode(&resp.encode()).unwrap();
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn frames_roundtrip_over_a_pipe() {
        let mut buf = Vec::new();
        for req in requests() {
            write_frame(&mut buf, &req.encode()).unwrap();
        }
        let mut r = buf.as_slice();
        for req in requests() {
            let frame = read_frame(&mut r).unwrap().expect("frame present");
            assert_eq!(Request::decode(&frame).unwrap(), req);
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_and_corrupt_payloads_are_typed_errors() {
        for req in requests() {
            let enc = req.encode();
            for cut in 0..enc.len() {
                // Every prefix must fail cleanly, never panic.
                let _ = Request::decode(&enc[..cut]);
            }
            let mut noisy = enc.clone();
            noisy[0] ^= 0xFF;
            assert!(matches!(
                Request::decode(&noisy),
                Err(ProtoError::BadTag(_))
            ));
        }
        for resp in responses() {
            let enc = resp.encode();
            for cut in 0..enc.len() {
                let _ = Response::decode(&enc[..cut]);
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut enc = Request::Stats.encode();
        enc.push(0);
        assert_eq!(Request::decode(&enc), Err(ProtoError::Truncated));
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&((MAX_FRAME as u32) + 1).to_le_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn source_bytes_roundtrip() {
        for s in [Source::Guarded, Source::Shed, Source::Deadline] {
            assert_eq!(Source::from_u8(s as u8), Some(s));
        }
        assert_eq!(Source::from_u8(9), None);
    }
}
