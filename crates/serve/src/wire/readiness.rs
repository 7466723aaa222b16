//! What an acceptor thread blocks on: `poll(2)` over a reused descriptor
//! set, and the [`Waker`] other threads use to end that block.
//!
//! This is the only module of the wire layer that knows the platform. The
//! one foreign call (`poll`) and the wake channel (a nonblocking
//! `UnixStream` pair) live in the private `sys` module; where there is no
//! `poll(2)` its stand-in makes [`wake_channel`] fail with
//! [`io::ErrorKind::Unsupported`], which the listener returns from
//! `serve_wire` before it binds anything — there is no sleeping fallback.
//!
//! ## The park/wake protocol
//!
//! An acceptor and the shard workers that answer its connections' requests
//! share one flag, `parked`:
//!
//! ```text
//! acceptor                                worker (after a batch retired)
//! --------                                ------
//! parked = true          (SeqCst)         completions → outboxes (mutex)
//! fence                  (SeqCst)         fence                  (SeqCst)
//! re-check outboxes, stop flag            if parked.swap(false)  (SeqCst)
//! poll(...)                                   write one byte
//! parked = false
//! ```
//!
//! The two fences order each side's write before its read of the other
//! side's state, so at least one of the two reads sees the other's write:
//! either the acceptor's re-check finds the completion (and it polls with a
//! zero timeout), or the worker finds `parked` set and writes the byte that
//! makes the poll return. A wake-up cannot be lost. The `swap` makes the
//! byte at most one per park, however many workers finish at once, and a
//! worker that finds the acceptor awake makes no system call at all.
//! [`StopSignal::request`] ends a block the same way, with the stop flag in
//! place of the outboxes.

use std::io::{self, Read, Write};
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub(crate) use sys::raw_fd;

/// `struct pollfd` of `<poll.h>`: POSIX fixes the three members and their
/// types, and every Unix lays them out in this order (asserted where the
/// kernel is handed one).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    pub(crate) fd: i32,
    pub(crate) events: i16,
    pub(crate) revents: i16,
}

/// Readable data (or a pending connection on a listener).
pub(crate) const POLLIN: i16 = 0x001;
/// Writing will not block.
pub(crate) const POLLOUT: i16 = 0x004;
/// Error condition (output only).
pub(crate) const POLLERR: i16 = 0x008;
/// Peer hung up (output only).
pub(crate) const POLLHUP: i16 = 0x010;
/// The descriptor is not open (output only).
pub(crate) const POLLNVAL: i16 = 0x020;

/// Block until a descriptor in `fds` is ready, a signal arrives
/// (`Interrupted` is reported as zero ready descriptors) or `timeout`
/// passes (`None` waits indefinitely). Entries with a negative descriptor
/// are skipped by the kernel. Returns the number of entries whose `revents`
/// is non-zero.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    // Round a positive sub-millisecond remainder up, so a deadline is never
    // busy-polled with a zero timeout.
    let timeout_ms =
        timeout.map_or(-1, |t| i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX));
    match sys::poll_ms(fds, timeout_ms) {
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
            // `revents` is unspecified after a failed call.
            fds.iter_mut().for_each(|fd| fd.revents = 0);
            Ok(0)
        }
        other => other,
    }
}

/// The sending half of an acceptor's wake channel, shared by every thread
/// that may need to end the acceptor's `poll`.
#[derive(Debug)]
pub(crate) struct Waker {
    /// Set by the acceptor before it blocks; cleared by whoever takes on
    /// the duty of waking it (or by the acceptor itself once it is awake).
    parked: AtomicBool,
    tx: sys::WakeStream,
}

impl Waker {
    /// Wake the acceptor if it is (about to be) blocked. Call **after** the
    /// state the acceptor should notice has been published. Returns whether
    /// a wake-up byte was written.
    pub(crate) fn wake(&self) -> bool {
        // Pairs with the fence in `WakeReceiver::park`; see the module docs.
        fence(Ordering::SeqCst);
        if !self.parked.swap(false, Ordering::SeqCst) {
            return false;
        }
        // The channel is nonblocking. A full buffer means unread wake-up
        // bytes are already waiting for the acceptor, and a closed one that
        // the acceptor is gone: either way there is nobody left to wake.
        let _ = (&self.tx).write(&[1]);
        true
    }
}

/// The receiving half: owned by the acceptor thread.
#[derive(Debug)]
pub(crate) struct WakeReceiver {
    waker: Arc<Waker>,
    rx: sys::WakeStream,
}

impl WakeReceiver {
    /// The sending half, for everyone who may have to wake this thread.
    pub(crate) fn waker(&self) -> &Arc<Waker> {
        &self.waker
    }

    /// The descriptor to poll for `POLLIN`.
    pub(crate) fn fd(&self) -> i32 {
        raw_fd(&self.rx)
    }

    /// Announce that this thread is about to block. The caller must
    /// afterwards re-check everything a [`Waker::wake`] caller may have
    /// published, and only then poll.
    pub(crate) fn park(&self) {
        self.waker.parked.store(true, Ordering::SeqCst);
        // Pairs with the fence in `Waker::wake`; see the module docs.
        fence(Ordering::SeqCst);
    }

    /// The poll returned: wakers need not signal until the next `park`.
    pub(crate) fn unpark(&self) {
        self.waker.parked.store(false, Ordering::SeqCst);
    }

    /// Discard pending wake-up bytes; returns how many there were.
    pub(crate) fn drain(&self) -> usize {
        let mut buf = [0u8; 64];
        let mut drained = 0;
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(n) => {
                    drained += n;
                    // A short read emptied the channel (0 = sender closed).
                    if n < buf.len() {
                        return drained;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return drained, // WouldBlock: empty
            }
        }
    }
}

/// A wake channel for one acceptor thread: the receiving half, which hands
/// out the sending one ([`WakeReceiver::waker`]).
pub(crate) fn wake_channel() -> io::Result<WakeReceiver> {
    let (tx, rx) = sys::wake_pair()?;
    Ok(WakeReceiver { waker: Arc::new(Waker { parked: AtomicBool::new(false), tx }), rx })
}

/// A listener's stop request: the flag its acceptors check, plus their
/// wakers so that raising it ends their `poll` instead of waiting for one.
#[derive(Debug)]
pub(crate) struct StopSignal {
    requested: AtomicBool,
    wakers: Vec<Arc<Waker>>,
}

impl StopSignal {
    pub(crate) fn new(wakers: Vec<Arc<Waker>>) -> Self {
        Self { requested: AtomicBool::new(false), wakers }
    }

    /// Ask every acceptor to stop accepting and start its drain, and wake
    /// the ones that are blocked. Idempotent.
    pub(crate) fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
    }

    /// Whether a stop was requested. An acceptor reads this after
    /// [`WakeReceiver::park`], which is what makes `request` unmissable.
    pub(crate) fn is_requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }
}

#[cfg(unix)]
mod sys {
    use super::PollFd;
    use std::io;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    pub(crate) type WakeStream = UnixStream;

    // `nfds_t` is `unsigned long` in glibc and musl, `unsigned int` on the
    // BSDs, macOS and Android.
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: std::ffi::c_int) -> std::ffi::c_int;
    }

    pub(crate) fn poll_ms(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        debug_assert_eq!(std::mem::size_of::<PollFd>(), 8);
        debug_assert_eq!(std::mem::align_of::<PollFd>(), 4);
        debug_assert_eq!(std::mem::offset_of!(PollFd, events), 4);
        debug_assert_eq!(std::mem::offset_of!(PollFd, revents), 6);
        let nfds = Nfds::try_from(fds.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many descriptors"))?;
        // SAFETY: `poll` is the C library's (std already links it). It reads
        // and writes exactly `nfds` `struct pollfd`s through the pointer,
        // which comes from a live, exclusively borrowed slice of that many
        // `PollFd`s whose layout matches (asserted above), and it retains
        // nothing after returning. Descriptors that are closed or negative
        // are reported or skipped, not dereferenced.
        let ready = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
        // Negative means failure, with the reason in `errno`.
        usize::try_from(ready).map_err(|_| io::Error::last_os_error())
    }

    pub(crate) fn raw_fd(io: &impl AsRawFd) -> i32 {
        io.as_raw_fd()
    }

    pub(crate) fn wake_pair() -> io::Result<(WakeStream, WakeStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((tx, rx))
    }
}

#[cfg(not(unix))]
mod sys {
    use super::PollFd;
    use std::io;

    /// Never constructed here: `wake_pair` fails first.
    pub(crate) type WakeStream = std::net::TcpStream;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "the wire listener needs poll(2)"))
    }

    pub(crate) fn poll_ms(_: &mut [PollFd], _: i32) -> io::Result<usize> {
        unsupported()
    }

    pub(crate) fn raw_fd<T>(_: &T) -> i32 {
        -1
    }

    pub(crate) fn wake_pair() -> io::Result<(WakeStream, WakeStream)> {
        unsupported()
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::time::Instant;

    fn readable(rx: &WakeReceiver, timeout: Duration) -> bool {
        let mut fds = [PollFd { fd: rx.fd(), events: POLLIN, revents: 0 }];
        wait(&mut fds, Some(timeout)).expect("poll") == 1 && fds[0].revents & POLLIN != 0
    }

    #[test]
    fn a_wake_before_park_writes_nothing() {
        let rx = wake_channel().expect("socket pair");
        let waker = rx.waker().clone();
        assert!(!waker.wake(), "nobody is parked");
        assert!(!readable(&rx, Duration::ZERO));
        assert_eq!(rx.drain(), 0);
    }

    #[test]
    fn a_wake_after_park_writes_one_byte_and_clears_parked() {
        let rx = wake_channel().expect("socket pair");
        let waker = rx.waker().clone();
        rx.park();
        assert!(waker.wake());
        assert!(!waker.parked.load(Ordering::SeqCst), "the waker took the duty");
        assert!(readable(&rx, Duration::from_secs(2)));
        assert_eq!(rx.drain(), 1);
        assert!(!readable(&rx, Duration::ZERO), "drained");
    }

    #[test]
    fn a_double_wake_writes_one_byte_per_park() {
        let rx = wake_channel().expect("socket pair");
        let waker = rx.waker().clone();
        rx.park();
        assert!(waker.wake());
        assert!(!waker.wake(), "the second waker finds the duty taken");
        assert_eq!(rx.drain(), 1);
        // The next park arms it again; unpark disarms it without a byte.
        rx.park();
        rx.unpark();
        assert!(!waker.wake());
        rx.park();
        assert!(waker.wake());
        assert_eq!(rx.drain(), 1);
    }

    #[test]
    fn a_blocked_poll_is_ended_by_a_wake_from_another_thread() {
        let rx = wake_channel().expect("socket pair");
        let waker = rx.waker().clone();
        rx.park();
        let started = Instant::now();
        let handle = std::thread::spawn(move || waker.wake());
        // Whether the wake lands before or inside the poll, it must end it:
        // a lost wake-up would sit out the whole timeout.
        assert!(readable(&rx, Duration::from_secs(10)));
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(handle.join().expect("waker thread"));
        assert_eq!(rx.drain(), 1);
    }

    #[test]
    fn a_stop_request_wakes_every_parked_acceptor_once() {
        let rx1 = wake_channel().expect("socket pair");
        let rx2 = wake_channel().expect("socket pair");
        let stop = StopSignal::new(vec![rx1.waker().clone(), rx2.waker().clone()]);
        assert!(!stop.is_requested());
        rx1.park(); // rx2 is awake: it will see the flag on its own re-check
        stop.request();
        stop.request();
        assert!(stop.is_requested());
        assert_eq!((rx1.drain(), rx2.drain()), (1, 0));
    }

    #[test]
    fn poll_reports_timeouts_and_skips_negative_descriptors() {
        let rx = wake_channel().expect("socket pair");
        let mut fds = [
            PollFd { fd: -1, events: POLLIN, revents: 0 },
            PollFd { fd: rx.fd(), events: POLLIN, revents: 0 },
        ];
        let started = Instant::now();
        assert_eq!(wait(&mut fds, Some(Duration::from_millis(20))).expect("poll"), 0);
        assert!(started.elapsed() >= Duration::from_millis(19));
        assert_eq!((fds[0].revents, fds[1].revents), (0, 0));
    }
}
