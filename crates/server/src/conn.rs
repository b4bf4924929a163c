//! Per-connection state for the readiness-based connection layer: the
//! outbound byte queue with backpressure, the [`ConnTx`] writer handed to
//! shard workers, and the poller-side [`Conn`] record.
//!
//! Write path: everything destined for a connection — the poller's own
//! responses and subscription frames pushed by shard workers — goes through
//! one `Arc<Mutex<ConnTx>>` (coerced to [`SharedWriter`]). That outer mutex
//! is held across a whole `write_frame` call, so frames from different
//! threads never interleave. `ConnTx` appends into the connection's
//! [`ConnShared`] outbound buffer and, on flush, wakes the poller (a write
//! to the wake socket only if no wake is pending, see [`crate::poll`]);
//! the poller drains the buffer to the nonblocking socket, resuming
//! partial writes when `poll(2)` reports the fd writable again.
//!
//! Backpressure: crossing the *soft* limit opens a stall episode (counted
//! once per episode on `tdb_server_conn_backpressure_total`); crossing the
//! *hard* limit kills the queue — every further write errors, which makes
//! the worker's push loop drop the subscription, and the poller closes the
//! socket.
//! A slow consumer therefore costs one bounded buffer, never unbounded
//! memory.

use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, PoisonError};

use tdb_obs::Counter;

use crate::config::{FrameSink, SharedWriter};
use crate::poll::Waker;
use crate::wire::FrameAssembler;

/// Default soft limit: pending outbound bytes beyond this count one
/// backpressure stall episode.
pub const DEFAULT_OUTBUF_SOFT: usize = 1 << 20;
/// Default hard limit: pending outbound bytes beyond this kill the
/// connection (typed disconnect instead of unbounded growth).
pub const DEFAULT_OUTBUF_HARD: usize = 8 << 20;
/// Keep at most this much drained capacity around between bursts.
const OUT_EVICT: usize = 1 << 20;
/// Compact the buffer once the drained prefix passes this.
const OUT_COMPACT: usize = 64 * 1024;

#[derive(Debug, Default)]
struct OutBuf {
    buf: Vec<u8>,
    /// Bytes `[..pos]` are already on the socket.
    pos: usize,
    /// Inside a backpressure episode (soft limit crossed, not yet drained).
    stalled: bool,
    killed: bool,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            if self.buf.capacity() > OUT_EVICT {
                self.buf = Vec::new();
            }
        } else if self.pos > OUT_COMPACT && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// The half of a connection shared between writers (workers, the poller's
/// response path) and the poller's socket drain.
#[derive(Debug)]
pub struct ConnShared {
    out: Mutex<OutBuf>,
    waker: Waker,
    soft: usize,
    hard: usize,
    backpressure: Counter,
}

impl ConnShared {
    pub fn new(waker: Waker, soft: usize, hard: usize, backpressure: Counter) -> Arc<ConnShared> {
        Arc::new(ConnShared {
            out: Mutex::new(OutBuf::default()),
            waker,
            soft,
            hard: hard.max(soft),
            backpressure,
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, OutBuf> {
        // Single-step appends/drains: a poisoned buffer is still coherent.
        self.out.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `bytes` for the poller to drain. Fails (and kills the queue)
    /// once the hard limit would be crossed.
    fn push(&self, bytes: &[u8]) -> io::Result<()> {
        let mut out = self.lock();
        if out.killed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection outbound queue killed",
            ));
        }
        if out.pending() + bytes.len() > self.hard {
            out.killed = true;
            self.waker.wake();
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "connection outbound queue overflow (slow consumer)",
            ));
        }
        out.buf.extend_from_slice(bytes);
        if !out.stalled && out.pending() > self.soft {
            out.stalled = true;
            self.backpressure.inc();
        }
        Ok(())
    }

    /// Bytes queued and not yet written to the socket.
    pub fn pending(&self) -> usize {
        self.lock().pending()
    }

    /// Marks the queue dead: every later write errors. Used by the poller
    /// when the socket itself dies. Queued bytes are released immediately
    /// — nothing will ever drain them, and a dead subscriber's writer may
    /// outlive the socket until the next sweep.
    pub fn kill(&self) {
        let mut out = self.lock();
        out.killed = true;
        out.buf = Vec::new();
        out.pos = 0;
    }

    pub fn killed(&self) -> bool {
        self.lock().killed
    }

    /// Drains as much as the nonblocking socket accepts. Returns the bytes
    /// still pending afterwards; an `Err` means the socket is dead.
    pub fn flush_to(&self, stream: &mut TcpStream) -> io::Result<usize> {
        let mut out = self.lock();
        while out.pos < out.buf.len() {
            match stream.write(&out.buf[out.pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => out.pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if out.stalled && out.pending() <= self.soft / 2 {
            out.stalled = false;
        }
        out.compact();
        Ok(out.pending())
    }
}

/// `io::Write` over a connection's outbound queue. Wrapped in
/// `Arc<Mutex<..>>` it *is* the connection's [`SharedWriter`]: worker code
/// (responses, subscription pushes) only ever sees the trait object.
#[derive(Debug)]
pub struct ConnTx {
    shared: Arc<ConnShared>,
}

impl ConnTx {
    pub fn new(shared: Arc<ConnShared>) -> ConnTx {
        ConnTx { shared }
    }
}

impl Write for ConnTx {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.shared.push(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.shared.waker.wake();
        Ok(())
    }
}

impl FrameSink for ConnTx {
    /// A killed queue means the poller closed (or is about to close) the
    /// socket; the subscriber sweep uses this to prune without a write.
    fn is_dead(&self) -> bool {
        self.shared.killed()
    }
}

/// One live connection as the poller sees it.
pub struct Conn {
    pub stream: TcpStream,
    pub asm: FrameAssembler,
    pub shared: Arc<ConnShared>,
    /// Handed to workers for responses and subscription pushes.
    pub writer: SharedWriter,
    /// Stop reading; close once the outbound queue drains (set after a
    /// protocol error frame or a shutdown response).
    pub closing: bool,
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conn")
            .field("peer", &self.stream.peer_addr().ok())
            .field("closing", &self.closing)
            .finish_non_exhaustive()
    }
}

impl Conn {
    pub fn new(stream: TcpStream, shared: Arc<ConnShared>) -> Conn {
        let writer: SharedWriter = Arc::new(Mutex::new(ConnTx::new(Arc::clone(&shared))));
        Conn {
            stream,
            asm: FrameAssembler::new(),
            shared,
            writer,
            closing: false,
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use crate::poll::WakePair;

    fn counter() -> Counter {
        tdb_obs::global().counter("tdb_server_conn_backpressure_total")
    }

    #[test]
    fn soft_limit_counts_one_stall_episode() {
        let pair = WakePair::new().unwrap();
        let c = counter();
        let before = c.get();
        let shared = ConnShared::new(pair.waker(), 64, 1 << 20, c.clone());
        let mut tx = ConnTx::new(Arc::clone(&shared));
        // Many small writes past the soft limit: exactly one episode.
        for _ in 0..32 {
            tx.write_all(&[0u8; 16]).unwrap();
        }
        assert_eq!(c.get(), before + 1, "one episode, not one per write");
        assert_eq!(shared.pending(), 32 * 16);
    }

    #[test]
    fn hard_limit_kills_the_queue_with_a_typed_error() {
        let pair = WakePair::new().unwrap();
        let shared = ConnShared::new(pair.waker(), 32, 128, counter());
        let mut tx = ConnTx::new(Arc::clone(&shared));
        tx.write_all(&[0u8; 100]).unwrap();
        let err = tx.write(&[0u8; 100]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "{err}");
        assert!(shared.killed());
        // Dead for good: the memory is bounded and writers learn it.
        let err = tx.write(&[1u8; 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe, "{err}");
        assert_eq!(shared.pending(), 100, "overflowing write was not queued");
    }

    #[test]
    fn flush_to_resumes_partial_writes_and_clears_stall() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let pair = WakePair::new().unwrap();
        let c = counter();
        let shared = ConnShared::new(pair.waker(), 1024, 64 << 20, c);
        let mut tx = ConnTx::new(Arc::clone(&shared));
        // Enough to overrun the kernel socket buffer: flush_to must stop at
        // WouldBlock and resume later without losing bytes.
        let payload = vec![7u8; 8 << 20];
        tx.write_all(&payload).unwrap();
        let mut drained = Vec::new();
        use std::io::Read as _;
        client.set_nonblocking(true).unwrap();
        let mut tmp = [0u8; 64 * 1024];
        loop {
            let left = shared.flush_to(&mut server).unwrap();
            loop {
                match client.read(&mut tmp) {
                    Ok(0) => break,
                    Ok(n) => drained.extend_from_slice(&tmp[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => panic!("{e}"),
                }
            }
            if left == 0 && drained.len() == payload.len() {
                break;
            }
        }
        assert_eq!(drained, payload);
        assert_eq!(shared.pending(), 0);
    }
}
