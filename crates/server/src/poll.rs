//! A tiny readiness shim over `poll(2)` — the only FFI in the workspace.
//!
//! The zero-dependency discipline rules out the `libc` crate, so the one
//! syscall the event loop needs is declared here directly; `std` already
//! links the C library on every unix target. `poll` takes a borrowed
//! `pollfd` array and writes revents in place — no pointers outlive the
//! call and no allocation crosses the boundary, which keeps the unsafe
//! surface to a single, auditable block.
//!
//! The [`Waker`] half is pure `std`: a nonblocking [`UnixStream`] pair
//! whose read end sits in the poll set, and a `pending` flag. Worker
//! threads finishing a request (or pushing subscription frames) wake the
//! poller; a wake writes its byte to the other end only when it is the one
//! that set the flag, so a poller that is already awake, or about to be,
//! costs a worker no syscall. The poller reads the byte only when `poll(2)`
//! reports it, *then* clears the flag, and only after that scans the
//! outbound queues ([`WakePair::drain`]): a wake that found the flag set
//! queued its bytes before the scan, and a later one writes a fresh byte.

#![allow(unsafe_code)]

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// `POLLIN`: readable (or a peer close, which reads as EOF).
pub const POLLIN: i16 = 0x001;
/// `POLLOUT`: writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// `POLLERR`: error condition (revents only).
pub const POLLERR: i16 = 0x008;
/// `POLLHUP`: peer hung up (revents only).
pub const POLLHUP: i16 = 0x010;
/// `POLLNVAL`: fd not open (revents only).
pub const POLLNVAL: i16 = 0x020;

/// Mirrors `struct pollfd` (identical layout on every unix libc).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

impl PollFd {
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Anything actionable: requested readiness or an error/hangup.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }

    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP) != 0
    }

    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLHUP) != 0
    }

    /// The fd is dead (closed out from under us or errored).
    pub fn broken(&self) -> bool {
        self.revents & (POLLERR | POLLNVAL) != 0
    }
}

// `nfds_t` is `unsigned long` on glibc and musl alike.
extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: std::os::raw::c_int) -> i32;
}

/// Blocks until at least one fd is ready or `timeout_ms` elapses (`-1` =
/// forever). Returns the number of ready fds (0 on timeout). `EINTR`
/// retries transparently.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a valid, exclusively borrowed slice for the
        // duration of the call; `poll` only reads `fd`/`events` and writes
        // `revents` within `fds.len()` entries, and retains no pointer
        // after returning.
        let n = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as std::os::raw::c_ulong,
                timeout_ms,
            )
        };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// The poller's wake-up channel: the read end lives in the poll set, the
/// [`Waker`] clones live wherever bytes get queued for a connection.
#[derive(Debug)]
pub struct WakePair {
    rx: UnixStream,
    waker: Waker,
}

/// Cheap, cloneable handle that kicks the poller out of `poll(2)`.
#[derive(Debug, Clone)]
pub struct Waker {
    shared: Arc<WakeTx>,
}

#[derive(Debug)]
struct WakeTx {
    tx: UnixStream,
    /// Set by the wake that writes a byte, cleared by the poller once it
    /// has read it: while set, a wake writes nothing.
    pending: AtomicBool,
}

impl WakePair {
    pub fn new() -> io::Result<WakePair> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        let shared = Arc::new(WakeTx {
            tx,
            pending: AtomicBool::new(false),
        });
        Ok(WakePair {
            rx,
            waker: Waker { shared },
        })
    }

    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Takes the wake bytes, then re-arms the wakers. Call it when `poll`
    /// reported the read end readable, and scan the outbound queues only
    /// after it: a wake between the two halves found the flag set and
    /// wrote nothing, but queued its bytes before the scan. Re-arming
    /// first could swallow the byte of a wake that came in between, leave
    /// the flag set with no byte to report it, and strand every later
    /// wake until `poll` times out.
    pub fn drain(&mut self) {
        self.consume();
        self.rearm();
    }

    /// Reads until a short read: the bytes written so far are all taken.
    fn consume(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.rx.read(&mut sink), Ok(n) if n == sink.len()) {}
    }

    fn rearm(&self) {
        self.waker.shared.pending.swap(false, Ordering::SeqCst);
    }
}

impl Waker {
    /// Signals the poller: writes a byte unless a wake is already pending.
    /// A full socket buffer also means one is — success, not failure.
    pub fn wake(&self) {
        if !self.shared.pending.swap(true, Ordering::SeqCst) {
            let _ = (&self.shared.tx).write(&[1u8]);
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn waker_makes_poll_return_and_drain_clears() {
        let mut pair = WakePair::new().unwrap();
        let mut fds = [PollFd::new(pair.fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0, "no wake pending");

        let waker = pair.waker();
        let t = std::thread::spawn(move || waker.wake());
        let n = poll_fds(&mut fds, 2_000).unwrap();
        t.join().unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable());

        pair.drain();
        fds[0].revents = 0;
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0, "drained");
    }

    #[test]
    fn repeated_wakes_coalesce_without_blocking() {
        let mut pair = WakePair::new().unwrap();
        let waker = pair.waker();
        for _ in 0..100_000 {
            waker.wake(); // must never block even with no drain
        }
        let mut fds = [PollFd::new(pair.fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 1);
        pair.drain();
    }

    #[test]
    fn a_wake_after_a_drain_writes_its_byte() {
        let mut pair = WakePair::new().unwrap();
        let waker = pair.waker();
        let mut fds = [PollFd::new(pair.fd(), POLLIN)];
        waker.wake();
        pair.drain();
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0, "drained");
        waker.wake();
        assert_eq!(
            poll_fds(&mut fds, 0).unwrap(),
            1,
            "the second wake was lost"
        );
    }

    /// A wake that lands between the drain's read and its re-arm writes
    /// nothing (the scan after the drain finds its bytes), and leaves no
    /// stale flag behind: the next wake writes its byte.
    #[test]
    fn a_wake_inside_a_drain_leaves_the_next_one_armed() {
        let mut pair = WakePair::new().unwrap();
        let waker = pair.waker();
        let mut fds = [PollFd::new(pair.fd(), POLLIN)];
        waker.wake();
        pair.consume();
        waker.wake();
        pair.rearm();
        assert_eq!(
            poll_fds(&mut fds, 0).unwrap(),
            0,
            "no byte for the inner wake"
        );
        waker.wake();
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 1, "the next wake was lost");
    }

    #[test]
    fn socket_readiness_is_observed() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0);
        let _client = std::net::TcpStream::connect(addr).unwrap();
        let n = poll_fds(&mut fds, 2_000).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable());
    }
}
