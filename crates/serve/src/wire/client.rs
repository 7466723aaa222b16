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
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

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
        })
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
        frame::encode_request(
            &mut self.send_buf,
            request_id,
            table_id,
            deadline_us,
            preds,
            intervals,
        );
    }

    /// Write every buffered frame to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.send_buf)?;
        self.send_buf.clear();
        Ok(())
    }

    /// Block until the next response frame arrives. Other server frames
    /// (e.g. table-info answers to stale resolves) are skipped.
    pub fn recv(&mut self) -> io::Result<ResponseFrame> {
        loop {
            if let ServerFrame::Response(response) = self.next_server_frame()? {
                return Ok(response);
            }
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
