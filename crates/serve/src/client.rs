//! A minimal synchronous client for the serving protocol.
//!
//! [`ServeClient`] is a thin framing wrapper over a Unix-socket stream.
//! Decision responses arrive whenever their shard answers, so callers with
//! multiple decisions in flight must correlate by `req_id`; [`ServeClient::call`]
//! (send one, wait one) is only safe when no decisions are outstanding —
//! the pattern every control message (stats, reload, shutdown, chaos)
//! follows. Callers must also keep reading: the daemon writes replies
//! synchronously and disconnects a client whose socket stays full for its
//! one-second write timeout.

use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use crate::metrics::MetricsSnapshot;
use crate::protocol::{read_frame, write_frame, Request, Response};

/// One connection to a serving daemon.
pub struct ServeClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl ServeClient {
    /// Connects to the daemon at `socket`.
    pub fn connect(socket: &Path) -> std::io::Result<Self> {
        let stream = UnixStream::connect(socket)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Connects, retrying for up to `timeout` while the daemon binds its
    /// socket (for harnesses that just spawned it).
    pub fn connect_retry(socket: &Path, timeout: Duration) -> std::io::Result<Self> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match Self::connect(socket) {
                Ok(client) => return Ok(client),
                Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// Bounds how long [`ServeClient::recv`] waits for a reply (`None`
    /// waits forever, the default); a reply that does not arrive in time
    /// is a `WouldBlock`/`TimedOut` error instead of a hang.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request without waiting for anything.
    pub fn send(&mut self, req: &Request) -> std::io::Result<()> {
        write_frame(&mut self.writer, &req.encode())
    }

    /// Receives the next response (blocking); EOF is an error.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        let frame = read_frame(&mut self.reader)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed connection",
            )
        })?;
        Response::decode(&frame)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Sends one request and waits for one response. Only valid when no
    /// decision replies are outstanding on this connection.
    pub fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        self.send(req)?;
        self.recv()
    }

    /// One [`Request::Stats`] round trip, parsed. Each shard counts a
    /// batch in its stats slot before sending the batch's replies, so every
    /// decision this process has already received a reply for is counted.
    pub fn stats(&mut self) -> std::io::Result<MetricsSnapshot> {
        match self.call(&Request::Stats)? {
            Response::StatsJson(json) => Ok(MetricsSnapshot::from_json(&json)),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected stats response {other:?}"),
            )),
        }
    }
}
