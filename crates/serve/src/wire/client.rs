//! A minimal blocking client for the wire protocol: connect, resolve table
//! names to ids, pipeline requests, and drain responses.
//!
//! [`WireClient`] buffers encoded request frames locally; [`flush`] pushes
//! them down the socket in one write burst and [`recv`] blocks for the next
//! response frame (responses may arrive in any order — match them up by
//! request id). This is deliberately the simplest correct counterpart to
//! the server: one thread, one socket, explicit pipelining.
//!
//! [`flush`]: WireClient::flush
//! [`recv`]: WireClient::recv
//!
//! ```no_run
//! use duet_serve::wire::WireClient;
//!
//! let mut client = WireClient::connect("127.0.0.1:7878")?;
//! let table = client.resolve("census")?.expect("table registered");
//! for i in 0..100 {
//!     client.submit_request(i, table.id, 0, &[vec![]], &[(0, 9)]);
//! }
//! client.flush()?;
//! for _ in 0..100 {
//!     let response = client.recv()?;
//!     println!("{} -> {}", response.request_id, response.value);
//! }
//! # std::io::Result::Ok(())
//! ```

use crate::wire::frame::{
    self, FrameView, ResponseFrame, Status, DEFAULT_MAX_FRAME_LEN, PREAMBLE_LEN,
};
use duet_core::IdPredicate;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Backoff policy for [`WireClient::request_with_retry`]: jittered
/// exponential delays between re-submissions of a request the server
/// answered `Overloaded`.
///
/// The jitter RNG is seeded (`seed ^ request_id`), so a given request's
/// backoff schedule is reproducible — load tests and the fault-injection
/// suite can replay identical retry timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// First backoff delay; doubles every subsequent retry.
    pub base: Duration,
    /// Upper bound on any single backoff delay.
    pub cap: Duration,
    /// Total wall-clock budget across all attempts; once an attempt (plus
    /// its backoff sleep) would exceed it, the last `Overloaded` response
    /// is returned as-is instead of retrying further.
    pub deadline: Duration,
    /// Seed for the jitter RNG.
    pub seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(100),
            deadline: Duration::from_secs(1),
            seed: 0,
        }
    }
}

/// A resolved table: its dense wire id and per-column domain sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSpec {
    /// Dense id to put in request frames.
    pub id: u32,
    /// Number of distinct values per column (in schema order).
    pub ndvs: Vec<u32>,
}

/// Server-to-client frames, decoded into owned values so the receive buffer
/// can be recycled immediately.
enum ServerFrame {
    Response(ResponseFrame),
    TableInfo {
        request_id: u64,
        status: Status,
        table_id: u32,
        ndvs: Vec<u32>,
    },
    /// Client-direction frames (requests, table queries) a server never
    /// sends; skipped silently for forward compatibility.
    Other,
}

/// A blocking, pipelined wire-protocol client over one TCP connection.
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    /// Encoded-but-unsent request frames.
    send_buf: Vec<u8>,
    /// Raw received bytes not yet decoded into a full frame.
    recv_buf: Vec<u8>,
    /// Decode cursor into `recv_buf`.
    recv_pos: usize,
    /// Correlation ids for [`WireClient::resolve`] table queries.
    next_ticket: u64,
    /// Remembered peer address; `Some` enables automatic reconnect
    /// ([`WireClient::enable_reconnect`]).
    peer: Option<SocketAddr>,
    /// Encoded request frames awaiting a response (reconnect tracking).
    /// Replayed verbatim over a fresh connection after a redial.
    inflight: Vec<(u64, Vec<u8>)>,
}

impl WireClient {
    /// Connect to a wire listener and send the protocol preamble.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut preamble = Vec::with_capacity(PREAMBLE_LEN);
        frame::encode_preamble(&mut preamble);
        stream.write_all(&preamble)?;
        Ok(Self {
            stream,
            send_buf: Vec::with_capacity(4096),
            recv_buf: Vec::with_capacity(4096),
            recv_pos: 0,
            next_ticket: u64::MAX, // counts down, away from request-id space
            peer: None,
            inflight: Vec::new(),
        })
    }

    /// Opt in to automatic reconnection: remember the peer address and
    /// start tracking in-flight request frames. After this, a connection
    /// error inside [`WireClient::flush`] or [`WireClient::recv`] redials
    /// the server, resends the preamble, and replays every request frame
    /// that has not yet been answered — the caller just sees `recv` keep
    /// working (or the redial's own error if the server is really gone).
    ///
    /// Half-received response bytes from the dead connection are discarded,
    /// and unanswered requests may execute twice server-side (estimates are
    /// read-only, so replays are safe).
    pub fn enable_reconnect(&mut self) -> io::Result<()> {
        self.peer = Some(self.stream.peer_addr()?);
        Ok(())
    }

    /// Bound how long [`WireClient::recv`] (and [`WireClient::resolve`]) wait
    /// for bytes: past `timeout` they fail with `WouldBlock`/`TimedOut`
    /// instead of blocking forever on a reply that never comes. `None`
    /// (the default) waits indefinitely.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Ask the server for `table`'s id and column domains. Blocks; flushes
    /// any buffered requests first. Returns `None` if the server does not
    /// know the table.
    pub fn resolve(&mut self, table: &str) -> io::Result<Option<TableSpec>> {
        let ticket = self.next_ticket;
        self.next_ticket -= 1;
        frame::encode_table_query(&mut self.send_buf, ticket, table);
        self.flush()?;
        loop {
            match self.next_server_frame()? {
                ServerFrame::TableInfo { request_id, status, table_id, ndvs }
                    if request_id == ticket =>
                {
                    return Ok((status == Status::Ok).then_some(TableSpec { id: table_id, ndvs }));
                }
                // Responses to earlier pipelined requests (or stale table
                // queries) are dropped here: `resolve` is a setup call, not
                // something to interleave with a live pipeline.
                _ => {}
            }
        }
    }

    /// Buffer one request frame (does not touch the socket). `deadline_us`
    /// of 0 defers to the server's configured deadline budget.
    pub fn submit_request(
        &mut self,
        request_id: u64,
        table_id: u32,
        deadline_us: u32,
        preds: &[Vec<IdPredicate>],
        intervals: &[(u32, u32)],
    ) {
        let start = self.send_buf.len();
        frame::encode_request(
            &mut self.send_buf,
            request_id,
            table_id,
            deadline_us,
            preds,
            intervals,
        );
        if self.peer.is_some() {
            self.inflight.push((request_id, self.send_buf[start..].to_vec()));
        }
    }

    /// Write every buffered frame to the socket. With reconnect enabled, a
    /// dead connection is redialed and the tracked request frames replayed
    /// (other buffered frames — e.g. table queries — are dropped).
    pub fn flush(&mut self) -> io::Result<()> {
        if self.send_buf.is_empty() {
            return Ok(());
        }
        match self.stream.write_all(&self.send_buf) {
            Ok(()) => {
                self.send_buf.clear();
                Ok(())
            }
            Err(e) if self.reconnectable(&e) => self.reconnect(),
            Err(e) => Err(e),
        }
    }

    /// Block until the next response frame arrives. Other server frames
    /// (e.g. table-info answers to stale resolves) are skipped. With
    /// reconnect enabled and requests still unanswered, a connection error
    /// triggers one redial-and-replay before giving up.
    pub fn recv(&mut self) -> io::Result<ResponseFrame> {
        let mut redialed = false;
        loop {
            match self.next_server_frame() {
                Ok(ServerFrame::Response(response)) => {
                    self.inflight.retain(|(id, _)| *id != response.request_id);
                    return Ok(response);
                }
                Ok(_) => {}
                Err(e) if !redialed && !self.inflight.is_empty() && self.reconnectable(&e) => {
                    self.reconnect()?;
                    redialed = true;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Whether `e` is the kind of failure a redial can fix — and redialing
    /// is enabled.
    fn reconnectable(&self, e: &io::Error) -> bool {
        self.peer.is_some()
            && matches!(
                e.kind(),
                io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::BrokenPipe
            )
    }

    /// Redial the remembered peer, resend the preamble, and replay every
    /// tracked (unanswered) request frame on the fresh connection.
    fn reconnect(&mut self) -> io::Result<()> {
        let peer = self.peer.expect("reconnect requires enable_reconnect");
        let mut stream = TcpStream::connect(peer)?;
        stream.set_nodelay(true)?;
        let mut bytes = Vec::with_capacity(PREAMBLE_LEN);
        frame::encode_preamble(&mut bytes);
        for (_, frame) in &self.inflight {
            bytes.extend_from_slice(frame);
        }
        stream.write_all(&bytes)?;
        // Anything half-received or half-sent on the dead connection is
        // garbage now; tracked frames were just replayed.
        self.recv_buf.clear();
        self.recv_pos = 0;
        self.send_buf.clear();
        self.stream = stream;
        Ok(())
    }

    /// Submit one request and block for its response, re-submitting with
    /// jittered exponential backoff while the server answers `Overloaded`
    /// and the `retry` deadline allows. Any other status (including
    /// `Internal` after a worker fault) returns immediately — backoff is
    /// for load shedding, not for masking faults.
    ///
    /// Intended for non-pipelined use: responses to other outstanding
    /// requests arriving meanwhile are discarded.
    pub fn request_with_retry(
        &mut self,
        request_id: u64,
        table_id: u32,
        deadline_us: u32,
        preds: &[Vec<IdPredicate>],
        intervals: &[(u32, u32)],
        retry: &RetryConfig,
    ) -> io::Result<ResponseFrame> {
        let started = Instant::now();
        let mut rng = SmallRng::seed_from_u64(retry.seed ^ request_id);
        let mut attempt: u32 = 0;
        loop {
            self.submit_request(request_id, table_id, deadline_us, preds, intervals);
            self.flush()?;
            let response = loop {
                let response = self.recv()?;
                if response.request_id == request_id {
                    break response;
                }
            };
            if response.status != Status::Overloaded {
                return Ok(response);
            }
            // Exponential backoff with half-delay jitter: sleep in
            // [delay/2, delay], doubling the (capped) delay per attempt.
            let exp = retry.base.saturating_mul(1u32 << attempt.min(16));
            let delay = exp.min(retry.cap);
            let half = (delay.as_nanos() / 2) as u64;
            let sleep = Duration::from_nanos(half + rng.gen_range(0..=half.max(1)));
            if started.elapsed() + sleep >= retry.deadline {
                return Ok(response);
            }
            std::thread::sleep(sleep);
            attempt += 1;
        }
    }

    /// Decode the next frame out of the receive buffer, reading from the
    /// socket as needed.
    fn next_server_frame(&mut self) -> io::Result<ServerFrame> {
        loop {
            let decoded = frame::next_frame(&self.recv_buf[self.recv_pos..], DEFAULT_MAX_FRAME_LEN)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if let Some((view, consumed)) = decoded {
                // Resolve the borrowed view into an owned frame before
                // advancing the cursor.
                let owned = match view {
                    FrameView::Response(response) => ServerFrame::Response(response),
                    FrameView::TableInfo(info) => {
                        let mut ndvs = Vec::new();
                        info.read_ndvs_into(&mut ndvs);
                        ServerFrame::TableInfo {
                            request_id: info.request_id,
                            status: info.status,
                            table_id: info.table_id,
                            ndvs,
                        }
                    }
                    FrameView::Request(_)
                    | FrameView::TableQuery(_)
                    | FrameView::Ingest(_)
                    | FrameView::Feedback(_) => ServerFrame::Other,
                };
                self.recv_pos += consumed;
                if self.recv_pos == self.recv_buf.len() {
                    self.recv_buf.clear();
                    self.recv_pos = 0;
                }
                if let ServerFrame::Other = owned {
                    continue;
                }
                return Ok(owned);
            }
            // Need more bytes: compact the consumed prefix, then block on
            // the socket.
            if self.recv_pos > 0 {
                self.recv_buf.copy_within(self.recv_pos.., 0);
                let remaining = self.recv_buf.len() - self.recv_pos;
                self.recv_buf.truncate(remaining);
                self.recv_pos = 0;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed by server",
                ));
            }
            self.recv_buf.extend_from_slice(&chunk[..n]);
        }
    }
}
