//! A readiness-driven connection reactor: one thread, every socket.
//!
//! The thread-per-connection model this replaces spent one OS thread (and
//! its stack) per client doing nothing but sleeping in `read`. The
//! reactor inverts that: a single thread owns a nonblocking listener and
//! every accepted socket, parks in `epoll_wait`, and runs the *cheap*
//! per-connection work — framing ([`LineBuffer`]), protocol dispatch,
//! reply writes — only when the kernel says a socket is ready. Heavy
//! evaluation still happens on the owning server's worker pool; the
//! reactor's contract with it is the [`ReplyHandle`]: a cloneable ticket
//! that posts reply lines (and, on drop, a release notice) to a mailbox
//! the reactor drains, with an `eventfd` to wake a parked `epoll_wait`
//! from worker threads. Ten thousand idle connections therefore cost ten
//! thousand file descriptors and slab entries — not ten thousand stacks.
//!
//! # Connection state machine
//!
//! ```text
//!            ┌────────────── readable ──────────────┐
//!            ▼                                      │
//!   accept ─▶ OPEN ── frame fault / EOF / idle ─▶ READ-DONE
//!            │  ▲                                   │
//!            │  └── replies queue / flush ──────────┤
//!            │                                      ▼
//!            └── write fault / overflow ──▶ CLOSED ◀┘ (outbuf flushed
//!                                                      and no live
//!                                                      ReplyHandle)
//! ```
//!
//! A connection whose read side finished is *not* torn down until every
//! outstanding [`ReplyHandle`] is dropped and its output buffer is
//! flushed — exactly the old model's property that a reply for work
//! already admitted is still delivered through the writer clone parked on
//! its flight. Slot reuse is generation-checked so a late reply for a
//! closed connection can never leak into its slot's next tenant.
//!
//! # Timeouts
//!
//! Socket timeouts do not exist on nonblocking fds, so the reactor keeps
//! the clocks itself and sweeps them on a coarse tick: a connection with
//! no buffered bytes and no traffic for the read timeout is **idle**
//! (reaped silently); one holding an incomplete line past the same bound
//! is **stalled** (the slow-loris shape — answered, then closed); queued
//! reply bytes unflushed past the write timeout mean the client stopped
//! reading and the connection is dropped.
//!
//! # Out of file descriptors
//!
//! The listener is level-triggered, so an `accept` that fails with
//! `EMFILE`/`ENFILE` would leave it readable and spin the thread. The
//! reactor instead takes the listener out of the epoll set and puts it
//! back when a connection closes or after [`ACCEPT_PAUSE`]. Pending
//! connections wait in the kernel's accept queue meanwhile; none is
//! dropped.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use crate::readline::{Frame, LineBuffer};
use crate::sys::{Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Bytes read per connection per readiness event before yielding to the
/// next ready socket; level-triggered epoll re-reports the remainder.
const READ_BUDGET: usize = 256 * 1024;

/// How long the listener stays unwatched after `accept` ran out of file
/// descriptors, unless a connection closes first.
const ACCEPT_PAUSE: Duration = Duration::from_millis(100);

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_BASE: u64 = 2;

/// How a connection's read side ended abnormally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnFault {
    /// A request line exceeded the configured byte bound.
    TooLong,
    /// A request line was not valid UTF-8.
    NotUtf8,
    /// An incomplete line outlived the per-line deadline (slow loris).
    Stalled,
    /// No bytes at all within the read timeout (idle reap).
    Idle,
}

/// The per-connection protocol logic a reactor drives. Implementations
/// run on the reactor thread for `on_line`/`on_fault` and must not block
/// on slow work — hand it to a pool and reply through the handle later.
pub(crate) trait ConnHandler: Send + Sync + 'static {
    /// A connection was accepted.
    fn on_open(&self);
    /// A complete, non-empty request line arrived. Reply now or park the
    /// (cloned) handle and reply from another thread later.
    fn on_line(&self, reply: &ReplyHandle, line: &str);
    /// The read side ended abnormally. The returned line, if any, is
    /// queued as the connection's final reply before it closes.
    fn on_fault(&self, fault: ConnFault) -> Option<String>;
}

#[derive(Debug)]
enum Msg {
    /// One reply line for a connection (newline appended on delivery).
    Line { slot: usize, gen: u64, line: String },
    /// A [`ReplyHandle`]'s last clone was dropped.
    Released { slot: usize, gen: u64 },
}

/// State shared between the reactor thread and everyone who holds a
/// [`ReplyHandle`] or drives the drain protocol.
///
/// # Drain contract
///
/// [`begin_drain`](Self::begin_drain) stops the listener; the *owner*
/// (server/router) must then finish outstanding work — delivering replies
/// through still-live handles — and call
/// [`finish_drain`](Self::finish_drain). The reactor exits once drained
/// and flushed (bounded by a linger so a dead client cannot wedge
/// shutdown).
#[derive(Debug)]
pub(crate) struct ReactorShared {
    mailbox: Mutex<Vec<Msg>>,
    waker: WakeFd,
    reactor_thread: OnceLock<ThreadId>,
    draining: AtomicBool,
    drain_done: AtomicBool,
}

impl ReactorShared {
    /// Creates the shared state (allocates the wake eventfd).
    pub(crate) fn new() -> io::Result<Arc<ReactorShared>> {
        Ok(Arc::new(ReactorShared {
            mailbox: Mutex::new(Vec::new()),
            waker: WakeFd::new()?,
            reactor_thread: OnceLock::new(),
            draining: AtomicBool::new(false),
            drain_done: AtomicBool::new(false),
        }))
    }

    fn post(&self, msg: Msg) {
        self.mailbox
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(msg);
        // The reactor drains its mailbox before parking again, so a post
        // from its own thread (the inline cache-hit path) needs no
        // syscall; only foreign threads must interrupt `epoll_wait`.
        if self.reactor_thread.get().copied() != Some(std::thread::current().id()) {
            self.waker.wake();
        }
    }

    /// Flags the drain (idempotent) and wakes the reactor so it stops
    /// accepting. Returns whether this call was the first.
    pub(crate) fn begin_drain(&self) -> bool {
        let first = !self.draining.swap(true, Ordering::SeqCst);
        if first {
            self.waker.wake();
        }
        first
    }

    /// Signals that the owner finished its outstanding work; the reactor
    /// flushes remaining replies and exits.
    pub(crate) fn finish_drain(&self) {
        self.drain_done.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Whether a drain has begun.
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

#[derive(Debug)]
struct HandleGuard {
    slot: usize,
    gen: u64,
    shared: Arc<ReactorShared>,
}

impl Drop for HandleGuard {
    fn drop(&mut self) {
        self.shared.post(Msg::Released {
            slot: self.slot,
            gen: self.gen,
        });
    }
}

/// A cloneable reply ticket for one connection. All clones share one
/// guard; when the last clone drops, the reactor learns no further
/// replies are coming and may finish the connection.
#[derive(Debug, Clone)]
pub(crate) struct ReplyHandle {
    guard: Arc<HandleGuard>,
}

impl ReplyHandle {
    /// Queues one reply line (without trailing newline) for delivery.
    /// Infallible by design: a vanished client is not the replier's
    /// error — the reactor drops lines for dead connections.
    pub(crate) fn send_line(&self, line: &str) {
        self.guard.shared.post(Msg::Line {
            slot: self.guard.slot,
            gen: self.guard.gen,
            line: line.to_string(),
        });
    }
}

/// Reactor tuning; mirrors the owning server's connection knobs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReactorConfig {
    /// Hard per-request-line byte bound.
    pub max_line_bytes: usize,
    /// Idle reap + per-line completion deadline (`None` = never).
    pub read_timeout: Option<Duration>,
    /// Bound on how long queued reply bytes may stay unflushed before
    /// the client is declared dead (`None` = never).
    pub write_timeout: Option<Duration>,
}

impl ReactorConfig {
    fn out_limit(&self) -> usize {
        // A slow consumer may buffer a few replies, not the world.
        (2 * self.max_line_bytes).max(8 * 1024 * 1024)
    }

    /// Sweep granularity: fine enough that timeouts fire near their
    /// nominal value, coarse enough to cost nothing.
    fn tick(&self) -> Option<Duration> {
        let ms = |d: Option<Duration>| d.map(|t| t.as_millis().max(1) as u64);
        match (ms(self.read_timeout), ms(self.write_timeout)) {
            (None, None) => None,
            (a, b) => {
                let t = a.unwrap_or(u64::MAX).min(b.unwrap_or(u64::MAX));
                Some(Duration::from_millis((t / 4).clamp(5, 250)))
            }
        }
    }
}

struct Conn {
    stream: TcpStream,
    gen: u64,
    lines: LineBuffer,
    out: Vec<u8>,
    out_pos: usize,
    /// Events currently registered with epoll for this socket.
    interest: u32,
    /// Last byte received (or accept time).
    last_activity: Instant,
    /// When the first byte of the line currently being assembled arrived.
    line_started: Option<Instant>,
    /// Read side finished (EOF, fault, idle): no more framing, but the
    /// connection lives until flushed and released.
    read_done: bool,
    /// Live [`ReplyHandle`] guards that may still post replies.
    handles: usize,
    /// Since when the output buffer has been non-empty (write timeout).
    out_since: Option<Instant>,
}

enum FlushOutcome {
    Flushed,
    Partial,
    Dead,
}

struct Reactor<H: ConnHandler> {
    epoll: Epoll,
    listener: Option<TcpListener>,
    cfg: ReactorConfig,
    shared: Arc<ReactorShared>,
    handler: Arc<H>,
    conns: Vec<Option<Conn>>,
    /// Per-slot generation counters (bumped on reuse; outlive the conn).
    gens: Vec<u64>,
    free: Vec<usize>,
    listener_dropped: bool,
    /// When `accept` last ran out of file descriptors, while the listener
    /// is out of the epoll set.
    accept_paused: Option<Instant>,
}

/// Spawns the reactor thread over an already-bound listener.
pub(crate) fn spawn<H: ConnHandler>(
    listener: TcpListener,
    cfg: ReactorConfig,
    shared: Arc<ReactorShared>,
    handler: Arc<H>,
) -> io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
    epoll.add(shared.waker.raw_fd(), EPOLLIN, TOKEN_WAKER)?;
    let reactor = Reactor {
        epoll,
        listener: Some(listener),
        cfg,
        shared,
        handler,
        conns: Vec::new(),
        gens: Vec::new(),
        free: Vec::new(),
        listener_dropped: false,
        accept_paused: None,
    };
    std::thread::Builder::new()
        .name("doppio-reactor".into())
        .spawn(move || reactor.run())
}

fn is_wouldblock(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// `EMFILE` (this process) or `ENFILE` (the whole system).
fn is_out_of_fds(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(23 | 24))
}

impl<H: ConnHandler> Reactor<H> {
    fn run(mut self) {
        let _ = self.shared.reactor_thread.set(std::thread::current().id());
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 1024];
        let mut chunk = vec![0u8; 16 * 1024];
        let mut last_sweep = Instant::now();
        let mut flush_linger: Option<Instant> = None;

        loop {
            let timeout_ms = self.wait_timeout_ms();
            let n = match self.epoll.wait(&mut events, timeout_ms) {
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => 0,
                // An epoll instance failing wholesale is unrecoverable;
                // exiting (and dropping every socket) beats spinning.
                Err(_) => break,
            };
            for ev in events.iter().take(n) {
                let token = ev.data;
                let flags = ev.events;
                match token {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_WAKER => self.shared.waker.drain(),
                    t => {
                        let idx = (t - TOKEN_BASE) as usize;
                        if flags & EPOLLOUT != 0 {
                            self.flush_and_settle(idx);
                        }
                        if flags & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                            self.handle_readable(idx, &mut chunk);
                        }
                    }
                }
            }

            self.deliver_mailbox();

            if self
                .accept_paused
                .is_some_and(|at| at.elapsed() >= ACCEPT_PAUSE)
            {
                self.resume_accept();
            }

            if self.shared.is_draining() && !self.listener_dropped {
                self.listener_dropped = true;
                if let Some(l) = self.listener.take() {
                    let _ = self.epoll.delete(l.as_raw_fd());
                }
            }

            if let Some(tick) = self.cfg.tick() {
                if last_sweep.elapsed() >= tick {
                    last_sweep = Instant::now();
                    self.sweep(last_sweep);
                }
            }

            if self.shared.drain_done.load(Ordering::SeqCst) {
                // Everything the owner will ever post is posted; allow a
                // bounded linger for the final flush to slow readers.
                let linger = *flush_linger.get_or_insert_with(|| {
                    Instant::now()
                        + self
                            .cfg
                            .write_timeout
                            .unwrap_or(Duration::from_secs(1))
                            .min(Duration::from_secs(5))
                });
                let mailbox_empty = self
                    .shared
                    .mailbox
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .is_empty();
                let all_flushed = self
                    .conns
                    .iter()
                    .flatten()
                    .all(|c| c.out_pos >= c.out.len());
                if (mailbox_empty && all_flushed) || Instant::now() >= linger {
                    break;
                }
            }
        }
    }

    /// `epoll_wait` timeout: the sweep tick when clocks are armed and
    /// connections exist, a fast pace while finishing a drain, otherwise
    /// a coarse idle heartbeat (the waker covers every urgent signal).
    fn wait_timeout_ms(&self) -> i32 {
        if self.shared.drain_done.load(Ordering::SeqCst) {
            return 10;
        }
        let have_conns = self.conns.iter().any(Option::is_some);
        let ms = match self.cfg.tick() {
            Some(t) if have_conns => t.as_millis().max(1) as i32,
            _ => 500,
        };
        if self.accept_paused.is_some() {
            ms.min(ACCEPT_PAUSE.as_millis() as i32)
        } else {
            ms
        }
    }

    fn accept_burst(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.is_draining() {
                        continue; // accepted-and-dropped: drain refuses politely
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let now = Instant::now();
                    let idx = self.alloc_slot();
                    self.gens[idx] += 1;
                    let conn = Conn {
                        gen: self.gens[idx],
                        lines: LineBuffer::new(self.cfg.max_line_bytes),
                        out: Vec::new(),
                        out_pos: 0,
                        interest: EPOLLIN | EPOLLRDHUP,
                        last_activity: now,
                        line_started: None,
                        read_done: false,
                        handles: 0,
                        out_since: None,
                        stream,
                    };
                    let fd = conn.stream.as_raw_fd();
                    if self
                        .epoll
                        .add(fd, conn.interest, TOKEN_BASE + idx as u64)
                        .is_err()
                    {
                        self.free.push(idx);
                        continue;
                    }
                    self.conns[idx] = Some(conn);
                    self.handler.on_open();
                }
                Err(e) if is_wouldblock(&e) => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_out_of_fds(&e) => {
                    self.pause_accept();
                    return;
                }
                // Transient per-connection accept errors (ECONNABORTED
                // and friends): skip that connection, keep listening.
                Err(_) => return,
            }
        }
    }

    /// Stops watching the listener until [`resume_accept`](Self::resume_accept).
    fn pause_accept(&mut self) {
        if let Some(l) = &self.listener {
            if self.epoll.delete(l.as_raw_fd()).is_ok() {
                self.accept_paused = Some(Instant::now());
            }
        }
    }

    /// Watches the listener again after [`pause_accept`](Self::pause_accept).
    fn resume_accept(&mut self) {
        if self.accept_paused.take().is_none() {
            return;
        }
        if let Some(l) = &self.listener {
            if self
                .epoll
                .add(l.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
                .is_err()
            {
                self.accept_paused = Some(Instant::now());
            }
        }
    }

    fn alloc_slot(&mut self) -> usize {
        if let Some(idx) = self.free.pop() {
            idx
        } else {
            self.conns.push(None);
            self.gens.push(0);
            self.conns.len() - 1
        }
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.free.push(idx);
            // The closed socket freed a descriptor for a queued connect.
            self.resume_accept();
        }
    }

    fn handle_readable(&mut self, idx: usize, chunk: &mut [u8]) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if conn.read_done {
            return;
        }
        let mut eof = false;
        let mut dead = false;
        let mut budget = READ_BUDGET;
        loop {
            match conn.stream.read(chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.lines.feed(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    budget = budget.saturating_sub(n);
                    if budget == 0 {
                        break; // level-triggered epoll re-reports the rest
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_wouldblock(&e) => break,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if dead {
            self.close_conn(idx);
            return;
        }
        self.pump_frames(idx);
        if eof {
            if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
                // Any unterminated trailing bytes are dropped: a
                // half-written request line never reaches the decoder.
                conn.read_done = true;
                self.update_interest(idx);
                self.maybe_finish_conn(idx);
            }
        }
    }

    /// Frames and dispatches every complete line buffered on `idx`.
    fn pump_frames(&mut self, idx: usize) {
        let mut consumed_any = false;
        loop {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            if conn.read_done {
                return;
            }
            match conn.lines.next_frame() {
                None => break,
                Some(Frame::Line(line)) => {
                    consumed_any = true;
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    conn.handles += 1;
                    let handle = ReplyHandle {
                        guard: Arc::new(HandleGuard {
                            slot: idx,
                            gen: conn.gen,
                            shared: Arc::clone(&self.shared),
                        }),
                    };
                    // Panic isolation, same property the detached
                    // connection threads had: a panicking dispatch costs
                    // this one connection, never the reactor.
                    let handler = Arc::clone(&self.handler);
                    let ok = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        handler.on_line(&handle, trimmed);
                    }))
                    .is_ok();
                    drop(handle);
                    if !ok {
                        self.close_conn(idx);
                        return;
                    }
                }
                Some(fault) => {
                    let fault = match fault {
                        Frame::TooLong => ConnFault::TooLong,
                        _ => ConnFault::NotUtf8,
                    };
                    self.fault_conn(idx, fault);
                    return;
                }
            }
        }
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            if !conn.lines.has_partial() {
                conn.line_started = None;
            } else if consumed_any || conn.line_started.is_none() {
                // Either the partial tail belongs to a *new* pipelined
                // line (its clock starts now) or its first byte just
                // arrived.
                conn.line_started = Some(Instant::now());
            }
        }
    }

    /// Ends the read side with a fault, queueing the handler's final
    /// reply (if any) before the close-when-flushed path takes over.
    fn fault_conn(&mut self, idx: usize, fault: ConnFault) {
        let handler = Arc::clone(&self.handler);
        let reply =
            std::panic::catch_unwind(AssertUnwindSafe(|| handler.on_fault(fault))).unwrap_or(None);
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if let Some(line) = reply {
            conn.out.reserve(line.len() + 1);
            conn.out.extend_from_slice(line.as_bytes());
            conn.out.push(b'\n');
            if conn.out_since.is_none() {
                conn.out_since = Some(Instant::now());
            }
        }
        conn.read_done = true;
        self.flush_and_settle(idx);
    }

    /// Applies mailbox messages to their connections, then flushes every
    /// connection that was touched.
    fn deliver_mailbox(&mut self) {
        let msgs = {
            let mut mb = self
                .shared
                .mailbox
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if mb.is_empty() {
                return;
            }
            std::mem::take(&mut *mb)
        };
        let mut touched: Vec<usize> = Vec::with_capacity(msgs.len());
        for msg in msgs {
            match msg {
                Msg::Line { slot, gen, line } => {
                    if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                        if conn.gen == gen {
                            conn.out.reserve(line.len() + 1);
                            conn.out.extend_from_slice(line.as_bytes());
                            conn.out.push(b'\n');
                            if conn.out_since.is_none() {
                                conn.out_since = Some(Instant::now());
                            }
                            touched.push(slot);
                        }
                    }
                }
                Msg::Released { slot, gen } => {
                    if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                        if conn.gen == gen {
                            conn.handles = conn.handles.saturating_sub(1);
                            touched.push(slot);
                        }
                    }
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for idx in touched {
            self.flush_and_settle(idx);
        }
    }

    /// Flushes what the socket will take, updates epoll interest, closes
    /// on write faults/overflow, and finishes a released connection.
    fn flush_and_settle(&mut self, idx: usize) {
        match self.flush_conn(idx) {
            FlushOutcome::Dead => self.close_conn(idx),
            FlushOutcome::Flushed | FlushOutcome::Partial => {
                self.update_interest(idx);
                self.maybe_finish_conn(idx);
            }
        }
    }

    fn flush_conn(&mut self, idx: usize) -> FlushOutcome {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return FlushOutcome::Flushed;
        };
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return FlushOutcome::Dead,
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_wouldblock(&e) => break,
                Err(_) => return FlushOutcome::Dead,
            }
        }
        if conn.out_pos >= conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
            conn.out_since = None;
            FlushOutcome::Flushed
        } else {
            // Compact the flushed prefix so the buffer bound measures
            // actually-pending bytes.
            if conn.out_pos > 0 {
                conn.out.copy_within(conn.out_pos.., 0);
                let len = conn.out.len() - conn.out_pos;
                conn.out.truncate(len);
                conn.out_pos = 0;
            }
            if conn.out.len() > self.cfg.out_limit() {
                return FlushOutcome::Dead;
            }
            FlushOutcome::Partial
        }
    }

    /// Recomputes and applies the epoll interest set for `idx`.
    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let mut want = 0;
        if !conn.read_done {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if conn.out_pos < conn.out.len() {
            want |= EPOLLOUT;
        }
        if want != conn.interest {
            conn.interest = want;
            let fd = conn.stream.as_raw_fd();
            let token = TOKEN_BASE + idx as u64;
            let _ = self.epoll.modify(fd, want, token);
        }
    }

    /// Closes a connection whose read side finished once nothing further
    /// can arrive for it: no live handles, nothing left to flush.
    fn maybe_finish_conn(&mut self, idx: usize) {
        let done = self
            .conns
            .get(idx)
            .and_then(Option::as_ref)
            .is_some_and(|c| c.read_done && c.handles == 0 && c.out_pos >= c.out.len());
        if done {
            self.close_conn(idx);
        }
    }

    /// Walks every connection's clocks: write-timeout overruns close,
    /// idle sockets are reaped, stalled half-lines are answered and
    /// closed.
    fn sweep(&mut self, now: Instant) {
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_ref() else {
                continue;
            };
            if let Some(wt) = self.cfg.write_timeout {
                if conn.out_since.is_some_and(|t| now.duration_since(t) > wt) {
                    self.close_conn(idx);
                    continue;
                }
            }
            let Some(conn) = self.conns[idx].as_ref() else {
                continue;
            };
            if conn.read_done {
                continue;
            }
            if let Some(rt) = self.cfg.read_timeout {
                if conn.lines.has_partial() || conn.lines.is_poisoned() {
                    if conn
                        .line_started
                        .is_some_and(|t| now.duration_since(t) > rt)
                    {
                        self.fault_conn(idx, ConnFault::Stalled);
                    }
                } else if now.duration_since(conn.last_activity) > rt {
                    self.fault_conn(idx, ConnFault::Idle);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::Shutdown;
    use std::sync::atomic::AtomicU64;

    /// An echo handler: replies `echo:<line>` inline, records faults,
    /// and can park a handle for a deferred cross-thread reply.
    struct Echo {
        opened: AtomicU64,
        faults: Mutex<Vec<ConnFault>>,
        parked: Mutex<Vec<ReplyHandle>>,
        park_next: AtomicBool,
    }

    impl Echo {
        fn new() -> Arc<Echo> {
            Arc::new(Echo {
                opened: AtomicU64::new(0),
                faults: Mutex::new(Vec::new()),
                parked: Mutex::new(Vec::new()),
                park_next: AtomicBool::new(false),
            })
        }
    }

    impl ConnHandler for Echo {
        fn on_open(&self) {
            self.opened.fetch_add(1, Ordering::Relaxed);
        }
        fn on_line(&self, reply: &ReplyHandle, line: &str) {
            if self.park_next.swap(false, Ordering::SeqCst) {
                self.parked.lock().unwrap().push(reply.clone());
            } else {
                reply.send_line(&format!("echo:{line}"));
            }
        }
        fn on_fault(&self, fault: ConnFault) -> Option<String> {
            self.faults.lock().unwrap().push(fault);
            match fault {
                ConnFault::Idle => None,
                f => Some(format!("fault:{f:?}")),
            }
        }
    }

    struct Rig {
        addr: std::net::SocketAddr,
        shared: Arc<ReactorShared>,
        thread: Option<JoinHandle<()>>,
        echo: Arc<Echo>,
    }

    impl Rig {
        fn start(cfg: ReactorConfig) -> Rig {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let shared = ReactorShared::new().unwrap();
            let echo = Echo::new();
            let thread = spawn(listener, cfg, Arc::clone(&shared), Arc::clone(&echo)).unwrap();
            Rig {
                addr,
                shared,
                thread: Some(thread),
                echo,
            }
        }

        fn connect(&self) -> TcpStream {
            let s = TcpStream::connect(self.addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        }
    }

    impl Drop for Rig {
        fn drop(&mut self) {
            self.shared.begin_drain();
            self.shared.finish_drain();
            if let Some(t) = self.thread.take() {
                let _ = t.join();
            }
        }
    }

    fn cfg() -> ReactorConfig {
        ReactorConfig {
            max_line_bytes: 1024,
            read_timeout: None,
            write_timeout: Some(Duration::from_secs(5)),
        }
    }

    #[test]
    fn echoes_pipelined_lines_in_order() {
        let rig = Rig::start(cfg());
        let mut s = rig.connect();
        s.write_all(b"alpha\nbeta\r\ngamma\n").unwrap();
        let mut reader = BufReader::new(s);
        for want in ["echo:alpha", "echo:beta", "echo:gamma"] {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), want);
        }
        assert_eq!(rig.echo.opened.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn replies_before_eof_are_delivered_after_write_shutdown() {
        let rig = Rig::start(cfg());
        let mut s = rig.connect();
        s.write_all(b"one\ntwo\n").unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let mut reader = BufReader::new(s);
        let mut got = Vec::new();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            got.push(line.trim_end().to_string());
        }
        assert_eq!(got, ["echo:one", "echo:two"]);
    }

    #[test]
    fn deferred_cross_thread_reply_keeps_connection_alive() {
        let rig = Rig::start(cfg());
        rig.echo.park_next.store(true, Ordering::SeqCst);
        let mut s = rig.connect();
        s.write_all(b"later\n").unwrap();
        s.shutdown(Shutdown::Write).unwrap();

        // Wait until the handler parked the handle, then reply from this
        // foreign thread: the mailbox + waker path.
        let handle = loop {
            if let Some(h) = rig.echo.parked.lock().unwrap().pop() {
                break h;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        std::thread::sleep(Duration::from_millis(50));
        handle.send_line("deferred:later");
        drop(handle);

        let mut reader = BufReader::new(s);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "deferred:later");
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "then EOF");
    }

    #[test]
    fn oversized_line_gets_fault_reply_then_close() {
        let rig = Rig::start(cfg());
        let mut s = rig.connect();
        let big = vec![b'x'; 8 * 1024];
        let _ = s.write_all(&big);
        let _ = s.write_all(b"\n");
        let mut reader = BufReader::new(s);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "fault:TooLong");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0, "closed");
    }

    #[test]
    fn idle_connections_are_reaped_silently() {
        let rig = Rig::start(ReactorConfig {
            read_timeout: Some(Duration::from_millis(60)),
            ..cfg()
        });
        let s = rig.connect();
        let mut reader = BufReader::new(s);
        let mut line = String::new();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "reaped: EOF");
        assert_eq!(
            rig.echo.faults.lock().unwrap().as_slice(),
            &[ConnFault::Idle]
        );
    }

    #[test]
    fn stalled_half_line_gets_fault_reply_then_close() {
        let rig = Rig::start(ReactorConfig {
            read_timeout: Some(Duration::from_millis(60)),
            ..cfg()
        });
        let mut s = rig.connect();
        s.write_all(b"never-finished").unwrap();
        let mut reader = BufReader::new(s);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "fault:Stalled");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0, "closed");
    }

    #[test]
    fn drain_refuses_new_work_and_joins() {
        let rig = Rig::start(cfg());
        let mut s = rig.connect();
        s.write_all(b"pre-drain\n").unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "echo:pre-drain");

        rig.shared.begin_drain();
        rig.shared.finish_drain();
        // Existing connection is closed and the thread exits.
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0);
    }
}
