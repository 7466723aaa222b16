//! `duet-wire`: the TCP front door and its compact binary protocol.
//!
//! The wire layer puts the serving stack behind a socket without changing
//! any of its semantics: a frame that decodes to an estimation request goes
//! through the **same** admission, shard queues and executors,
//! micro-batchers, and metrics as an in-process
//! [`crate::DuetServer::estimate`] call (a lone request on an idle shard
//! runs on its acceptor, as an in-process miss runs on its caller), and
//! overload outcomes ([`crate::ServeError::Overloaded`],
//! [`crate::ServeError::DeadlineExceeded`]) come back as wire status codes
//! rather than dropped connections.
//!
//! The module splits along the boundary that makes it simulable:
//!
//! * [`frame`] — the pure codec: length-prefixed frames, typed decode
//!   errors, zero-copy request views. No I/O, no clock.
//! * `conn` (via [`WireConn`]) — the per-connection state machine:
//!   preamble handshake, byte-queue in, byte-queue out, pipelined in-flight
//!   tracking. Transport-agnostic: it consumes byte slices and produces
//!   byte slices, so the deterministic simulator drives the exact code the
//!   TCP listener runs.
//! * `listener` (via [`crate::DuetServer::serve_wire`]) — the only part
//!   that touches `std::net`: one event loop per acceptor thread, blocked
//!   in `poll(2)` until a socket, a finished batch or a stop request needs
//!   it.
//! * `readiness` — what that loop blocks on and how other threads end the
//!   block: the `poll` call and the per-thread waker (the layer's one
//!   `unsafe` block and its only platform-specific code).
//! * [`client`] — a minimal blocking client for tests, benches, and
//!   examples.

pub mod client;
pub(crate) mod conn;
pub mod frame;
pub(crate) mod listener;
pub(crate) mod readiness;

pub use client::{TableSpec, WireClient};
pub use conn::{ConnConfig, Outbox, WireConn};
pub use frame::{DecodeError, FrameView, ResponseFrame, Status};
pub use listener::{WireConfig, WireHandle};
