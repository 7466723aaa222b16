//! The TCP front door: acceptor threads that block until a socket or a
//! finished batch needs them, driving [`WireConn`] state machines over real
//! sockets.
//!
//! One `std::net::TcpListener` in nonblocking mode is shared (via
//! `try_clone`) by a small pool of acceptor threads — by default one per
//! core — and each thread owns the connections it accepted outright: it
//! reads their sockets into a reused stack buffer, feeds/pumps their
//! [`WireConn`]s, and writes pending response bytes back out,
//! `WouldBlock`-aware in both directions. No connection ever migrates
//! between threads, so the per-connection state needs no locking; the only
//! cross-thread traffic is the shard queues (already synchronized), each
//! connection's outbox (a mutex the shard workers push completions
//! through), and the thread's [`readiness::Waker`].
//!
//! Each thread is an event loop around `poll(2)` ([`readiness::wait`]). Its
//! poll set — rebuilt in place in a reused `Vec` before every wait — is its
//! wake channel, the listener, and every connection it owns: always for
//! `POLLIN`, for `POLLOUT` only while the connection holds response bytes
//! the socket would not take. The wait has **no timeout while serving**: the
//! thread runs when
//!
//! * a connection is readable (request bytes, EOF, a reset — the latter two
//!   reach the usual `Ok(0)`/`Err` close path),
//! * a connection that owed output is writable again,
//! * the listener has a connection to accept,
//! * a shard worker retired a batch holding requests of its connections
//!   (`batcher::recycle_batch` → [`readiness::Waker::wake`], one byte per
//!   batch at most), or
//! * [`WireHandle::shutdown`] / [`crate::DuetServer::shutdown`] asked it to
//!   stop ([`StopSignal::request`], which wakes it the same way),
//!
//! and only then, and it touches only what was reported ready (plus the
//! outboxes of connections with requests in flight). An idle front door
//! costs no wake-ups at all; `MetricsSnapshot::wire_acceptor_wakeups` counts
//! them. How a completion or a stop request can never fall between the
//! thread's last look and its `poll` is the park/wake protocol in
//! [`readiness`].
//!
//! After a stop request the same loop drains: the listener leaves the poll
//! set, connections are closed as they become quiescent, and the wait's
//! timeout is what is left of [`WireConfig::drain`].

use crate::core::ServeCore;
use crate::metrics::{Counter, ServeMetrics};
use crate::wire::conn::{ConnConfig, WireConn};
use crate::wire::frame::DEFAULT_MAX_FRAME_LEN;
use crate::wire::readiness::{
    self, raw_fd, PollFd, StopSignal, WakeReceiver, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of the wire front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireConfig {
    /// Acceptor/IO threads; `0` means one per available core.
    pub acceptors: usize,
    /// Largest accepted frame body (bytes); larger declared lengths are a
    /// protocol error and close the connection.
    pub max_frame_len: usize,
    /// Most in-flight requests per connection before it is answered
    /// `Overloaded` (per-client flow control).
    pub max_pipeline: usize,
    /// Graceful-drain budget: after a stop is requested, acceptor threads
    /// keep serving their owned connections (no new accepts) until every
    /// connection has zero in-flight requests and no unwritten response
    /// bytes, or this much time has passed — whichever comes first.
    pub drain: Duration,
}

impl Default for WireConfig {
    fn default() -> Self {
        Self {
            acceptors: 0,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            max_pipeline: 256,
            drain: Duration::from_millis(500),
        }
    }
}

/// A running wire listener; dropping it (or calling
/// [`WireHandle::shutdown`]) stops the acceptors and closes every
/// connection.
#[derive(Debug)]
pub struct WireHandle {
    addr: SocketAddr,
    stop: Arc<StopSignal>,
    threads: Vec<JoinHandle<()>>,
}

impl WireHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain and close every connection, and join the
    /// acceptors. The acceptors are woken, so an idle listener stops at
    /// once.
    pub fn shutdown(&mut self) {
        self.stop.request();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    /// The stop signal, so [`crate::DuetServer::shutdown`] can request a
    /// drain without owning (or joining) this handle.
    pub(crate) fn stop_signal(&self) -> Arc<StopSignal> {
        self.stop.clone()
    }
}

impl Drop for WireHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `addr` and start the acceptor pool over the server's `core`. Called
/// by [`crate::DuetServer::serve_wire`]. Fails with
/// [`ErrorKind::Unsupported`], before binding, on a platform without
/// `poll(2)`.
pub(crate) fn serve(
    addr: impl ToSocketAddrs,
    config: WireConfig,
    core: Arc<ServeCore>,
) -> std::io::Result<WireHandle> {
    let acceptors = if config.acceptors > 0 {
        config.acceptors
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    let channels =
        (0..acceptors).map(|_| readiness::wake_channel()).collect::<std::io::Result<Vec<_>>>()?;
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(StopSignal::new(channels.iter().map(|rx| rx.waker().clone()).collect()));
    let mut handle = WireHandle { addr, stop, threads: Vec::with_capacity(acceptors) };
    for (i, wake_rx) in channels.into_iter().enumerate() {
        // On failure `handle` drops, which stops and joins the threads
        // already started.
        let acceptor = Acceptor {
            listener: listener.try_clone()?,
            config,
            stop: handle.stop.clone(),
            core: core.clone(),
            wake_rx,
            connections: Vec::new(),
            fds: Vec::new(),
        };
        let thread = std::thread::Builder::new()
            .name(format!("duet-wire-{i}"))
            .spawn(move || acceptor.run())?;
        handle.threads.push(thread);
    }
    Ok(handle)
}

/// One accepted connection owned by an acceptor thread. Opening and dropping
/// it are what `conns_opened` / `open_conns` count, so every way a
/// connection can end (EOF, reset, decode error, drain, acceptor exit) is
/// counted exactly once.
struct Connection {
    stream: TcpStream,
    conn: WireConn,
    metrics: Arc<ServeMetrics>,
}

impl Connection {
    fn open(stream: TcpStream, conn: WireConn, metrics: &Arc<ServeMetrics>) -> Self {
        metrics.incr(Counter::ConnsOpened);
        Self { stream, conn, metrics: metrics.clone() }
    }

    /// Do what `polled` says the socket is ready for, and deliver what the
    /// shard workers finished meanwhile. `Err(())` means close it.
    fn service(&mut self, polled: PollFd, read_buf: &mut [u8], core: &ServeCore) -> Result<(), ()> {
        // A hang-up or socket error is delivered by `read` as `Ok(0)` or
        // `Err`, which is the close path.
        let readable = polled.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0;
        if readable {
            loop {
                match self.stream.read(read_buf) {
                    Ok(0) => return Err(()), // peer closed
                    Ok(n) => {
                        self.conn.feed(&read_buf[..n]);
                        if n < read_buf.len() {
                            break; // a short read emptied the socket
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return Err(()),
                }
            }
        }

        // Decode/admit what arrived; encode what completed.
        if (readable || self.conn.has_completions()) && self.conn.pump(core).is_err() {
            core.metrics.incr(Counter::WireDecodeErrors);
            return Err(());
        }

        // Write unless the socket is known to be full: it was polled for
        // `POLLOUT` (it already refused bytes) and did not report it.
        let full = polled.events & POLLOUT != 0 && polled.revents & POLLOUT == 0;
        while !full && self.conn.has_output() {
            let pending = self.conn.output().len();
            match self.stream.write(self.conn.output()) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    self.conn.consume_output(n);
                    if n < pending {
                        break; // a short write filled the socket
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        Ok(())
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.metrics.incr(Counter::ConnsClosed);
    }
}

/// How long the listener stays out of the poll set after `accept` failed
/// for a reason that persists (descriptor or memory exhaustion): the pending
/// connection stays in the backlog, so a level-triggered wait would report
/// it again at once and the loop would spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Positions in the poll set; connection `i` is at `CONNECTIONS + i`.
const WAKE: usize = 0;
const LISTENER: usize = 1;
const CONNECTIONS: usize = 2;

/// One acceptor/IO thread.
struct Acceptor {
    listener: TcpListener,
    config: WireConfig,
    stop: Arc<StopSignal>,
    core: Arc<ServeCore>,
    /// Ends this thread's `poll`; its sending half goes to every accepted
    /// connection's outbox.
    wake_rx: WakeReceiver,
    connections: Vec<Connection>,
    /// The poll set, rebuilt in place before every wait.
    fds: Vec<PollFd>,
}

impl Acceptor {
    /// The event loop: wait until something is ready, serve exactly that,
    /// repeat; after a stop request, drain within the budget and exit
    /// (dropping, and so closing, whatever is still open).
    fn run(mut self) {
        // Reused read buffer: one socket read lands here before feeding the
        // connection's own (growable, reused) inbound queue.
        let mut read_buf = [0u8; 16 * 1024];
        // Set once the stop request is seen: no more accepts, quiescent
        // connections are closed, and the loop ends then at the latest.
        let mut drain_until: Option<Instant> = None;
        // Set after a persistent `accept` failure; see `ACCEPT_RETRY`.
        let mut accept_after: Option<Instant> = None;

        loop {
            if let Some(until) = drain_until {
                // A connection is closed as soon as it is quiescent (nothing
                // in flight, nothing left to write); whatever is still busy
                // when the budget runs out is closed anyway.
                self.connections.retain(|c| c.conn.inflight() > 0 || c.conn.has_output());
                if self.connections.is_empty() || Instant::now() >= until {
                    return;
                }
            }
            if accept_after.is_some_and(|at| Instant::now() >= at) {
                accept_after = None;
            }

            let accepting = drain_until.is_none() && accept_after.is_none();
            self.fds.clear();
            self.fds.push(PollFd { fd: self.wake_rx.fd(), events: POLLIN, revents: 0 });
            self.fds.push(PollFd {
                fd: if accepting { raw_fd(&self.listener) } else { -1 },
                events: POLLIN,
                revents: 0,
            });
            self.fds.extend(self.connections.iter().map(|c| PollFd {
                fd: raw_fd(&c.stream),
                events: if c.conn.has_output() { POLLIN | POLLOUT } else { POLLIN },
                revents: 0,
            }));

            // Park, then look once more at everything a waker may have
            // published before it could see us parked (`readiness` docs).
            self.wake_rx.park();
            if drain_until.is_none() && self.stop.is_requested() {
                self.wake_rx.unpark();
                drain_until = Some(Instant::now() + self.config.drain);
                continue;
            }
            let timeout = if self.connections.iter().any(|c| c.conn.has_completions()) {
                Some(Duration::ZERO)
            } else {
                // None while serving, unless `accept` is backing off.
                drain_until.or(accept_after).map(|at| at.saturating_duration_since(Instant::now()))
            };
            let ready = readiness::wait(&mut self.fds, timeout);
            self.wake_rx.unpark();
            self.core.metrics.incr(Counter::WireAcceptorWakeups);
            // Only a bug here (a bad pointer or count) or a kernel out of
            // memory makes `poll` fail; retrying would spin.
            ready.expect("poll(2) failed on the acceptor's descriptor set");

            if self.fds[WAKE].revents != 0 {
                self.wake_rx.drain();
            }
            // Back to front, so `swap_remove` only moves connections that
            // were already served and the rest keep matching `fds`.
            for i in (0..self.connections.len()).rev() {
                let polled = self.fds[CONNECTIONS + i];
                if self.connections[i].service(polled, &mut read_buf, &self.core).is_err() {
                    // EOF, reset or protocol error: close and forget.
                    self.connections.swap_remove(i);
                }
            }
            // Last, so the connections above are exactly the polled ones.
            if self.fds[LISTENER].revents != 0 {
                accept_after = self.accept_pending();
            }
        }
    }

    /// Accept everything currently pending (all acceptors share the
    /// nonblocking listener; the kernel hands each socket to exactly one
    /// accept call). Returns when to try again if `accept` failed in a way
    /// that waiting may cure.
    fn accept_pending(&mut self) -> Option<Instant> {
        let conn_config = ConnConfig {
            max_frame_len: self.config.max_frame_len,
            max_pipeline: self.config.max_pipeline,
        };
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let conn =
                        WireConn::with_waker(conn_config, Some(self.wake_rx.waker().clone()));
                    self.connections.push(Connection::open(stream, conn, &self.core.metrics));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    self.core.metrics.incr(Counter::WireAcceptErrors);
                    // That connection died in the backlog and is gone; the
                    // next one may be fine.
                    if e.kind() != ErrorKind::ConnectionAborted {
                        return Some(Instant::now() + ACCEPT_RETRY);
                    }
                }
            }
        }
    }
}
