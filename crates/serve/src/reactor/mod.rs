//! A hand-rolled epoll reactor: nonblocking, pipelined connection
//! handling for the newline-JSON protocol (DESIGN.md §15).
//!
//! One thread multiplexes every connection through a level-triggered
//! [`sys::Epoll`] instance. Each connection owns a [`conn::LineBuffer`]
//! (requests reassembled from arbitrary read fragments) and a
//! [`conn::WriteQueue`] (responses survive short writes and full kernel
//! buffers). Requests are *pipelined*: a client may write N request
//! lines before reading any response; responses are written in request
//! order and carry the request's `id` field back (the protocol layer's
//! job), so ordering is explicit even through batching proxies.
//!
//! The reactor knows nothing about the protocol beyond "one line in,
//! one line out" — dispatch is behind the [`LineHandler`] trait, which
//! also surfaces the lifecycle hooks the server's observability wants
//! (accept/close, pipelined depth per readiness event).
//!
//! Heavy work never runs here: dispatch enqueues jobs on the scheduler's
//! worker pool and returns immediately. The only blocking call a line
//! can cost is the journal's fsync-before-ack, which is the durability
//! contract's price regardless of front end (§14).
//!
//! Timeouts: a connection is closed when it has an *unterminated*
//! request line pending and makes no read progress for `idle_timeout`
//! (slow-loris defense). Idle connections with no partial line — a
//! client sleeping between status polls — are never reaped.

pub mod conn;
#[cfg(target_os = "linux")]
pub mod sys;

pub use conn::{LineBuffer, LineTooLong, WriteQueue};

use std::time::Duration;

/// Tuning for [`run`]. `Default` matches production: 10 s slow-loris
/// timeout, 32 MiB line limit (a `submit_batch` line carries every job
/// of the batch), 64 MiB of buffered responses before read backpressure.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Close a connection whose partial request line stalls this long.
    pub idle_timeout: Duration,
    /// Maximum bytes of a single request line.
    pub max_line: usize,
    /// Stop reading from a connection while this many response bytes
    /// are queued (the client is not draining its socket).
    pub max_write_buf: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            idle_timeout: Duration::from_millis(10_000),
            max_line: 32 << 20,
            max_write_buf: 64 << 20,
        }
    }
}

/// Protocol dispatch plus lifecycle hooks, implemented by the server.
pub trait LineHandler {
    /// One trimmed, non-empty request line → one response line (without
    /// the trailing newline). Runs on the reactor thread: must not
    /// block on job completion.
    fn handle_line(&mut self, line: &str) -> String;

    /// The response sent (once) before closing a connection whose
    /// request line exceeded [`ReactorConfig::max_line`].
    fn overlong_line_response(&mut self, limit: usize) -> String;

    /// Number of complete request lines drained by one readiness event —
    /// >1 means the client is pipelining.
    fn record_pipelined_depth(&mut self, _depth: u64) {}

    fn on_accept(&mut self) {}
    fn on_close(&mut self) {}

    /// Polled every tick and after every dispatched line; when it turns
    /// true the reactor stops accepting, flushes pending responses
    /// (bounded), and returns.
    fn shutting_down(&self) -> bool;
}

#[cfg(target_os = "linux")]
pub use linux::run;

#[cfg(target_os = "linux")]
mod linux {
    use super::conn::{LineBuffer, WriteQueue};
    use super::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
    use super::{LineHandler, ReactorConfig};
    use std::collections::HashMap;
    use std::io::{self, Read};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    const LISTENER_TOKEN: u64 = 0;
    /// Epoll tick: bounds shutdown/slow-loris reaction latency.
    const TICK: Duration = Duration::from_millis(50);
    /// How long a shutting-down reactor keeps flushing queued responses.
    const SHUTDOWN_FLUSH_DEADLINE: Duration = Duration::from_secs(5);

    struct Conn {
        stream: TcpStream,
        lines: LineBuffer,
        writes: WriteQueue,
        /// Last time `read()` returned bytes — the slow-loris clock.
        last_progress: Instant,
        /// Peer closed its write side (EOF seen); serve what's queued,
        /// then close.
        read_closed: bool,
        /// Fatal condition: close as soon as the write queue drains.
        close_after_flush: bool,
        /// The event mask currently registered with epoll.
        armed: u32,
    }

    impl Conn {
        /// The mask this connection currently wants.
        fn desired_mask(&self, cfg: &ReactorConfig) -> u32 {
            let mut mask = 0;
            let reading = !self.read_closed
                && !self.close_after_flush
                && self.writes.len() < cfg.max_write_buf;
            if reading {
                mask |= EPOLLIN | EPOLLRDHUP;
            }
            if !self.writes.is_empty() {
                mask |= EPOLLOUT;
            }
            mask
        }

        /// True once nothing more can happen on this connection.
        fn finished(&self) -> bool {
            (self.read_closed || self.close_after_flush) && self.writes.is_empty()
        }
    }

    /// Runs the event loop until the handler reports shutdown (clean
    /// return) or the epoll instance itself fails.
    pub fn run<H: LineHandler>(
        listener: TcpListener,
        handler: &mut H,
        cfg: &ReactorConfig,
    ) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), LISTENER_TOKEN, EPOLLIN)?;

        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_token: u64 = 1;
        let mut events = vec![EpollEvent::default(); 128];
        let mut accepting = true;
        let mut flush_deadline: Option<Instant> = None;

        loop {
            let timeout_ms = i32::try_from(TICK.as_millis()).unwrap_or(50);
            let n = epoll.wait(&mut events, timeout_ms)?;
            let mut dead: Vec<u64> = Vec::new();

            for ev in events.iter().take(n) {
                let token = ev.token();
                if token == LISTENER_TOKEN {
                    if accepting {
                        accept_all(&listener, &epoll, &mut conns, &mut next_token, cfg, handler);
                    }
                    continue;
                }
                let Some(conn) = conns.get_mut(&token) else {
                    continue;
                };
                let mask = ev.events();
                if mask & (EPOLLERR | EPOLLHUP) != 0 {
                    dead.push(token);
                    continue;
                }
                if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
                    if let Err(()) = service_reads(conn, handler, cfg) {
                        dead.push(token);
                        continue;
                    }
                }
                if mask & EPOLLOUT != 0 && conn.writes.flush_into(&mut conn.stream).is_err() {
                    dead.push(token);
                    continue;
                }
                if conn.finished() {
                    dead.push(token);
                } else {
                    rearm(&epoll, token, conn, cfg);
                }
            }

            // Slow-loris sweep: a stalled *partial* request line is the
            // tell; idle-but-quiet connections are left alone.
            let now = Instant::now();
            for (&token, conn) in &conns {
                if conn.lines.has_partial()
                    && now.duration_since(conn.last_progress) > cfg.idle_timeout
                {
                    dead.push(token);
                }
            }

            for token in dead {
                if let Some(conn) = conns.remove(&token) {
                    let _ = epoll.del(conn.stream.as_raw_fd());
                    handler.on_close();
                }
            }

            if handler.shutting_down() {
                if accepting {
                    accepting = false;
                    let _ = epoll.del(listener.as_raw_fd());
                    flush_deadline = Some(Instant::now() + SHUTDOWN_FLUSH_DEADLINE);
                }
                let all_flushed = conns.values().all(|c| c.writes.is_empty());
                let expired = flush_deadline.is_some_and(|d| Instant::now() > d);
                if all_flushed || expired {
                    for (_, conn) in conns.drain() {
                        let _ = epoll.del(conn.stream.as_raw_fd());
                        handler.on_close();
                    }
                    return Ok(());
                }
            }
        }
    }

    fn accept_all<H: LineHandler>(
        listener: &TcpListener,
        epoll: &Epoll,
        conns: &mut HashMap<u64, Conn>,
        next_token: &mut u64,
        cfg: &ReactorConfig,
        handler: &mut H,
    ) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = *next_token;
                    *next_token += 1;
                    let conn = Conn {
                        stream,
                        lines: LineBuffer::new(cfg.max_line),
                        writes: WriteQueue::new(),
                        last_progress: Instant::now(),
                        read_closed: false,
                        close_after_flush: false,
                        armed: 0,
                    };
                    if epoll
                        .add(conn.stream.as_raw_fd(), token, EPOLLIN | EPOLLRDHUP)
                        .is_err()
                    {
                        continue; // conn drops (closes); the client retries
                    }
                    let mut conn = conn;
                    conn.armed = EPOLLIN | EPOLLRDHUP;
                    conns.insert(token, conn);
                    handler.on_accept();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient per-connection accept failures (ECONNABORTED
                // etc.) must not kill the loop.
                Err(_) => break,
            }
        }
    }

    /// Drains the readable socket, dispatches every complete line, and
    /// starts flushing responses inline (the fast path never waits for
    /// EPOLLOUT). `Err(())` means the connection is beyond saving.
    fn service_reads<H: LineHandler>(
        conn: &mut Conn,
        handler: &mut H,
        cfg: &ReactorConfig,
    ) -> Result<(), ()> {
        let mut buf = [0u8; 16 * 1024];
        while !conn.read_closed && !conn.close_after_flush && conn.writes.len() < cfg.max_write_buf
        {
            match conn.stream.read(&mut buf) {
                Ok(0) => conn.read_closed = true,
                Ok(n) => {
                    conn.last_progress = Instant::now();
                    if conn.lines.push(&buf[..n]).is_err() {
                        let resp = handler.overlong_line_response(cfg.max_line);
                        conn.writes.enqueue(resp.as_bytes());
                        conn.writes.enqueue(b"\n");
                        conn.close_after_flush = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        let mut depth: u64 = 0;
        while let Some(line) = conn.lines.next_line() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let resp = handler.handle_line(trimmed);
            conn.writes.enqueue(resp.as_bytes());
            conn.writes.enqueue(b"\n");
            depth += 1;
        }
        if depth > 0 {
            handler.record_pipelined_depth(depth);
        }
        match conn.writes.flush_into(&mut conn.stream) {
            Ok(_) => Ok(()),
            Err(_) => Err(()),
        }
    }

    fn rearm(epoll: &Epoll, token: u64, conn: &mut Conn, cfg: &ReactorConfig) {
        let want = conn.desired_mask(cfg);
        if want != conn.armed {
            if epoll.modify(conn.stream.as_raw_fd(), token, want).is_err() {
                // Losing the registration means losing the connection;
                // mark it for the finished() sweep.
                conn.close_after_flush = true;
            } else {
                conn.armed = want;
            }
        }
    }
}
