//! TCP front end: one poller thread owns every client socket. `poll(2)`
//! reports readiness; reads are nonblocking and reassembled into
//! per-connection frame buffers ([`crate::wire::FrameAssembler`]); every
//! complete request goes to [`Runtime::submit_net`], which answers the
//! tenant-free kinds on the spot and queues the rest for the owning worker
//! — either way the response is written into the connection's outbound
//! queue ([`crate::conn`]), never by a thread that waits for it. The write
//! side is backpressured: a worker's bytes land in a bounded
//! per-connection buffer, the poller drains it as the socket accepts bytes
//! (resuming partial writes), and a consumer that stops reading is
//! disconnected at the hard limit instead of growing the heap. N idle
//! subscribers cost N sockets and one thread, not N threads.
//!
//! The poller's periodic tick publishes the `tdb_server_worker_*` gauges
//! and drives the dead-subscriber sweep.
//!
//! Error discipline: semantic failures (`no such tenant`, lint denial, a
//! constraint veto) travel as [`Response::Error`] and the connection
//! continues; *framing* failures (bad checksum, oversized length, garbage
//! payload) poison the byte stream — the server answers one final
//! `Error { code: Protocol }` frame with id 0 and closes.

use std::io::Read;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::conn::{Conn, ConnShared};
use crate::job::send_response;
use crate::metrics::request_timer;
use crate::poll::{poll_fds, PollFd, WakePair, POLLIN, POLLOUT};
use crate::runtime::{Runtime, ServerConfig};
use crate::wire::{decode_request, ErrorCode, ProtocolError, Request, Response};
use crate::{Result, ServerError};

/// Namespace for [`Server::start`].
#[derive(Debug)]
pub struct Server;

/// How often the front end publishes the worker gauges and sweeps
/// subscribers.
const TICK: Duration = Duration::from_millis(250);

/// Most bytes the poller ingests from one connection per poll iteration.
/// Without a budget a client streaming at line rate (e.g. loopback) keeps
/// the read loop spinning until `WouldBlock`, starving every other
/// connection and growing the inbound assembler without bound; with it,
/// leftover bytes stay in the kernel buffer and `poll(2)` (level-
/// triggered) reports the socket readable again next iteration, after
/// everyone else has had a turn.
const READ_BUDGET: usize = 256 * 1024;

/// A running server: the bound address, the shard pool, and the poller
/// thread that owns every live connection. Dropping the handle does NOT
/// stop the server — call [`ServerHandle::stop`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    runtime: Arc<Runtime>,
    stopping: Arc<AtomicBool>,
    poller: JoinHandle<()>,
}

impl Server {
    /// Binds `cfg.addr`, recovers any durable tenants under the data
    /// directory, and starts accepting connections.
    pub fn start(cfg: ServerConfig) -> Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let runtime = Arc::new(Runtime::start(cfg)?);
        let stopping = Arc::new(AtomicBool::new(false));

        let poller = {
            let runtime = Arc::clone(&runtime);
            let stopping = Arc::clone(&stopping);
            std::thread::Builder::new()
                .name("tdb-poll".into())
                .spawn(move || poll_loop(listener, runtime, stopping))
                .map_err(|e| ServerError::Storage(format!("spawning poller: {e}")))?
        };

        Ok(ServerHandle {
            addr,
            runtime,
            stopping,
            poller,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct access to the shard pool (tests, in-process drivers).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// True once a client sent `Shutdown` (or [`ServerHandle::stop`] ran).
    pub fn stop_requested(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Blocks until shutdown is requested.
    pub fn wait(&self) {
        while !self.stop_requested() {
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Stops accepting, closes every connection, drains the shard pool
    /// (checkpointing durable tenants) and joins all threads.
    pub fn stop(self) {
        self.stopping.store(true, Ordering::SeqCst);
        let _ = self.poller.join();
        // On Err a straggler still holds the pool; the queues close when
        // the last clone drops.
        if let Ok(rt) = Arc::try_unwrap(self.runtime) {
            rt.shutdown();
        }
    }
}

/// The readiness event loop: one thread, every socket.
///
/// Each iteration: build the poll set (listener + waker + one entry per
/// connection, `POLLOUT` only while bytes are queued), `poll(2)`, take the
/// wake byte if there is one, accept a burst, read each readable socket
/// until a short read (or its budget) and dispatch its complete frames,
/// drain every outbound queue the socket will accept, then close whatever
/// died. Workers wake the poller through the [`WakePair`] when they queue
/// response or subscription bytes, so a sleeping poller never sits on
/// finished work; a wake while one is pending makes no syscall.
fn poll_loop(listener: TcpListener, runtime: Arc<Runtime>, stopping: Arc<AtomicBool>) {
    let Ok(mut wake) = WakePair::new() else {
        stopping.store(true, Ordering::SeqCst);
        return;
    };
    let cfg = runtime.config().clone();
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut last_tick = Instant::now();
    while !stopping.load(Ordering::SeqCst) {
        fds.clear();
        fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        fds.push(PollFd::new(wake.fd(), POLLIN));
        for c in &conns {
            let mut events = 0i16;
            let pending = c.shared.pending();
            // Inbound mirrors the outbound watermark discipline: once a
            // connection's response/push queue is past the soft limit,
            // stop reading it (leave bytes in the kernel buffer, letting
            // TCP backpressure reach the client) until the queue drains.
            if !c.closing && pending <= cfg.outbuf_soft_limit {
                events |= POLLIN;
            }
            if pending > 0 {
                events |= POLLOUT;
            }
            // Errors/hangups are reported regardless of `events`.
            fds.push(PollFd::new(c.stream.as_raw_fd(), events));
        }
        if poll_fds(&mut fds, 100).is_err() {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        // Before the outbound scan below (see `WakePair::drain`).
        if fds[1].readable() {
            wake.drain();
        }

        if fds[0].readable() {
            while let Ok((stream, _)) = listener.accept() {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                runtime.metrics.connections_total.inc();
                runtime.metrics.connections_open.add(1);
                let shared = ConnShared::new(
                    wake.waker(),
                    cfg.outbuf_soft_limit,
                    cfg.outbuf_hard_limit,
                    runtime.metrics.conn_backpressure.clone(),
                );
                conns.push(Conn::new(stream, shared));
            }
        }

        // Read + dispatch. Connections accepted this iteration have no
        // poll entry yet; they are polled next time around (≤100ms away).
        let polled = fds.len() - 2;
        for (i, c) in conns.iter_mut().enumerate().take(polled) {
            let r = fds[i + 2];
            if r.broken() {
                c.shared.kill();
                continue;
            }
            if c.closing || !r.readable() {
                continue;
            }
            let mut budget = READ_BUDGET;
            loop {
                let want = budget.min(buf.len());
                if want == 0 {
                    break;
                }
                match c.stream.read(&mut buf[..want]) {
                    Ok(0) => {
                        c.closing = true;
                        break;
                    }
                    Ok(n) => {
                        c.asm.ingest(&buf[..n]);
                        budget -= n;
                        // Short: the socket is empty, and `poll` is
                        // level-triggered.
                        if n < want {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        c.shared.kill();
                        break;
                    }
                }
            }
            drain_frames(c, &runtime, &stopping);
        }

        // Write side: push queued bytes at every socket that has room.
        for c in &mut conns {
            if c.shared.pending() > 0 && c.shared.flush_to(&mut c.stream).is_err() {
                c.shared.kill();
            }
        }

        // Close pass: killed queues (socket death or slow-consumer
        // overflow) go now; `closing` connections linger until their
        // outbound queue drains, so a final error/shutdown frame gets out.
        let open = &runtime.metrics.connections_open;
        conns.retain_mut(|c| {
            let done = c.shared.killed() || (c.closing && c.shared.pending() == 0);
            if done {
                open.add(-1);
                c.shared.kill();
                let _ = c.stream.shutdown(std::net::Shutdown::Both);
            }
            !done
        });

        if last_tick.elapsed() >= TICK {
            last_tick = Instant::now();
            runtime.publish_worker_gauges();
            runtime.sweep_subscribers();
        }
    }
    for c in conns {
        runtime.metrics.connections_open.add(-1);
        c.shared.kill();
        let _ = c.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Decodes every complete frame `c` has buffered and hands each request to
/// [`Runtime::submit_net`], which sees to it that the response lands in the
/// connection's outbound queue.
fn drain_frames(c: &mut Conn, rt: &Runtime, stopping: &AtomicBool) {
    loop {
        enum Step {
            Req(u64, Request),
            Done,
            Bad(ProtocolError),
        }
        let step = match c.asm.next_frame() {
            Ok(Some(payload)) => match decode_request(payload) {
                Ok((id, req)) => Step::Req(id, req),
                Err(e) => Step::Bad(e),
            },
            Ok(None) => Step::Done,
            Err(e) => Step::Bad(e),
        };
        match step {
            Step::Done => return,
            Step::Bad(e) => {
                rt.metrics.frames_rejected.inc();
                send_response(
                    &c.writer,
                    0,
                    &Response::Error {
                        code: ErrorCode::Protocol,
                        message: e.to_string(),
                    },
                );
                c.closing = true;
                return;
            }
            Step::Req(id, req) => {
                let is_shutdown = matches!(req, Request::Shutdown);
                rt.submit_net(id, req, &c.writer, request_timer());
                if is_shutdown {
                    stopping.store(true, Ordering::SeqCst);
                    c.closing = true;
                    return;
                }
            }
        }
    }
}
