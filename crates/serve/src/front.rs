//! The admission front a shard and the router share.
//!
//! A shard and the router speak one protocol and admit a request the same
//! way; only the step that produces an answer differs. [`Front`] owns
//! everything around that step, and a [`Backend`] supplies it:
//! [`LocalEval`](crate::server::LocalEval) evaluates in process,
//! [`RingForward`](crate::router::RingForward) forwards over the
//! consistent-hash ring. Dispatch is static (`Front<B>`), so the served
//! hot path carries no box and no virtual call.
//!
//! # Admission, in order (reactor thread)
//!
//! 1. **Drain check** — a draining front refuses new work with
//!    `shutting_down`, cached keys included.
//! 2. **Route** — the backend names the request's admission key, sends it
//!    *direct* (an ingest or an owner-pinned request: never cached, never
//!    coalesced), or rejects it as a `bad_request`.
//! 3. **Cache hit** — reply inline (`"cached": true`): one fingerprint,
//!    one lookup, one reply line, no worker.
//! 4. **Singleflight join** — an identical request is already in flight;
//!    park a reply ticket on it (`"coalesced": true` when it lands) and
//!    consume no worker.
//! 5. **Queue submit** — the flight's creator enqueues on the bounded
//!    [`TaskPool`]. A full queue *sheds* the whole flight at once with
//!    `overloaded` and the observed depth: never buffered, never blocked.
//!
//! # On a worker
//!
//! A job whose deadline passed while it sat queued is answered
//! `deadline_exceeded` without running. Otherwise the backend runs under
//! `catch_unwind` (a panic costs one `internal_error` reply, never a dead
//! worker or a wedged flight), an `ok` payload is cached, and every waiter
//! gets its own reply line — a rider whose own deadline passed meanwhile
//! gets `deadline_exceeded` instead of the (still cached) result.
//!
//! # Drain
//!
//! `shutdown` (if allowed) or dropping the handle flags the drain, which
//! stops the reactor's accept path; a drainer thread finishes every
//! admitted job, runs the backend's [`after_drain`](Backend::after_drain)
//! and lets the reactor flush the last replies and exit.

use std::net::SocketAddr;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use doppio_engine::json::Object;
use doppio_engine::{Fingerprint, MemoCache, SubmitError, TaskPool};

use crate::protocol::{error_reply_line, ok_reply_line, Envelope, ErrorCode, ErrorReply, Request};
use crate::reactor::{self, ConnFault, ConnHandler, ReactorConfig, ReactorShared, ReplyHandle};
use crate::singleflight::Singleflight;
use crate::sys;

/// Locks a mutex, recovering from poisoning. Every mutex in this crate
/// guards plain data whose invariants hold between statements, and
/// backend panics are already isolated and reported — abandoning the
/// lock would only turn one reported panic into a cascade of failures.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Adds one to a counter.
pub(crate) fn tick(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Reads a counter.
pub(crate) fn read(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// The knobs every front has; `ServeConfig` and `RouterConfig` fields of
/// the same names.
#[derive(Debug)]
pub(crate) struct FrontConfig {
    pub addr: String,
    pub workers: usize,
    pub queue_bound: usize,
    pub cache_capacity: usize,
    pub default_deadline_ms: Option<u64>,
    pub allow_shutdown: bool,
    pub max_line_bytes: usize,
    pub read_timeout_ms: u64,
    pub write_timeout_ms: u64,
}

/// Monotonic counters every front keeps, exposed by `stats`.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub connections: AtomicU64,
    pub admitted: AtomicU64,
    pub completed: AtomicU64,
    pub shed: AtomicU64,
    pub coalesced: AtomicU64,
    pub deadline_exceeded: AtomicU64,
    pub bad_requests: AtomicU64,
    /// Backend calls that panicked and were isolated by `catch_unwind`.
    pub panics: AtomicU64,
    /// Connections closed by the idle/slow-loris reaper rather than by
    /// the client.
    pub reaped: AtomicU64,
}

/// How a backend admits a work request.
pub(crate) enum Route<C> {
    /// Keyed by this fingerprint: answered from the cache, joined to an
    /// identical request in flight, or run once for every waiter.
    Flight(Fingerprint, C),
    /// One request, one job, one reply: never cached and never coalesced.
    Direct(C),
}

/// A backend's answer: the rendered `ok` payload and whether it came from
/// a cache of the backend's own, or the error to reply.
pub(crate) type Answer = Result<(Arc<str>, bool), ErrorReply>;

/// What produces an answer once the front has admitted a request.
pub(crate) trait Backend: Send + Sync + Sized + 'static {
    /// What admission hands the worker along with the request.
    type Ctx: Send + 'static;
    /// Whether a dequeued flight first probes the cache again: an
    /// identical flight may have finished after admission missed.
    const RECHECK_CACHE: bool;
    /// Whether `stats`/`health` are rendered on a pool worker (they block)
    /// rather than inline on the reactor thread.
    const CONTROL_ON_POOL: bool;

    /// Routes a work request. Runs on the reactor thread; an `Err` is a
    /// `bad_request`, refused before any flight or pool slot is spent.
    fn route(&self, request: &Request) -> Result<Route<Self::Ctx>, ErrorReply>;
    /// Answers an admitted request on a pool worker.
    fn answer(&self, request: &Request, deadline: Option<Instant>, ctx: Self::Ctx) -> Answer;
    /// The `stats` payload.
    fn stats(&self, front: &Front<Self>) -> Object;
    /// The `health` payload.
    fn health(&self, front: &Front<Self>) -> Object;
    /// Adds the backend's fields to an accepted `shutdown`'s reply.
    fn shutdown_ack(&self, _ack: &mut Object) {}
    /// Acts on an accepted `shutdown`, after its reply is queued.
    fn shutdown(front: &Arc<Front<Self>>) {
        front.begin_drain();
    }
    /// Runs on the drainer thread once every admitted job has finished.
    fn after_drain(&self) {}
}

/// A reply ticket. A flight's waiter list is creation-ordered, so the
/// creator is first and every later ticket is a coalesced rider.
#[derive(Debug)]
struct Waiter {
    id: String,
    writer: ReplyHandle,
    deadline: Option<Instant>,
}

/// Whom an admitted job answers.
enum Job {
    /// Every waiter parked on the flight for this key.
    Flight(Fingerprint),
    /// The one request routed direct.
    Direct(Waiter),
}

/// The shared admission state of a shard or of the router.
pub(crate) struct Front<B> {
    pub(crate) backend: B,
    cfg: FrontConfig,
    // `Option` so drain can take ownership (`TaskPool::drain` consumes).
    pool: Mutex<Option<TaskPool>>,
    /// Rendered `ok` payloads by admission key.
    pub(crate) cache: MemoCache<Fingerprint, Arc<str>>,
    flights: Singleflight<Waiter>,
    pub(crate) counters: Counters,
    /// Reactor mailbox/waker plus the drain flags (single source of
    /// truth for "draining").
    pub(crate) shared: Arc<ReactorShared>,
    /// When the front started, for `health.uptime_secs`.
    pub(crate) started: Instant,
}

impl<B> std::fmt::Debug for Front<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Front")
            .field("cfg", &self.cfg)
            .field("draining", &self.shared.is_draining())
            .finish_non_exhaustive()
    }
}

/// The refusal for work that arrives while the front drains.
fn draining() -> ErrorReply {
    ErrorReply::new(ErrorCode::ShuttingDown, "server is draining")
}

/// The `stats` view of a reply cache: `{hits, misses, evictions, len,
/// capacity}`.
pub(crate) fn cache_stats(cache: &MemoCache<Fingerprint, Arc<str>>) -> Object {
    let mut o = Object::new();
    o.put_u64("hits", cache.hits());
    o.put_u64("misses", cache.misses());
    o.put_u64("evictions", cache.evictions());
    o.put_u64("len", cache.len() as u64);
    o.put_u64("capacity", cache.capacity() as u64);
    o
}

impl<B: Backend> Front<B> {
    /// `(workers, queue_bound, queue_depth)` of the pool; `None` once the
    /// drain has taken it.
    pub(crate) fn pool_stats(&self) -> Option<(usize, usize, usize)> {
        lock_recover(&self.pool)
            .as_ref()
            .map(|p| (p.workers(), p.queue_bound(), p.queue_depth()))
    }

    /// Flights currently in progress.
    pub(crate) fn in_flight(&self) -> usize {
        self.flights.in_flight()
    }

    /// Flags the drain (stopping the reactor's accept path) and finishes
    /// every admitted job on a detached drainer thread — replies go out
    /// through the handles parked on the jobs — before letting the
    /// reactor flush and exit.
    pub(crate) fn begin_drain(self: &Arc<Self>) {
        if self.shared.begin_drain() {
            let front = Arc::clone(self);
            std::thread::spawn(move || {
                let pool = lock_recover(&front.pool).take();
                if let Some(pool) = pool {
                    pool.drain();
                }
                front.backend.after_drain();
                front.shared.finish_drain();
            });
        }
    }

    fn handle(self: &Arc<Self>, writer: &ReplyHandle, env: Envelope) {
        let Envelope {
            id,
            deadline_ms,
            request,
        } = env;
        match request {
            Request::Stats | Request::Health => self.control(writer, id, request),
            Request::Shutdown => self.shutdown_request(writer, &id),
            work => self.admit(writer, id, deadline_ms, work),
        }
    }

    fn control(self: &Arc<Self>, writer: &ReplyHandle, id: String, request: Request) {
        if !B::CONTROL_ON_POOL {
            writer.send_line(&ok_reply_line(
                &id,
                false,
                false,
                &self.control_payload(&request),
            ));
            return;
        }
        let (front, job_writer, job_id) = (Arc::clone(self), writer.clone(), id.clone());
        let submitted = self.submit(move || {
            let payload = front.control_payload(&request);
            job_writer.send_line(&ok_reply_line(&job_id, false, false, &payload));
        });
        if let Err(err) = submitted {
            writer.send_line(&error_reply_line(&id, &err));
        }
    }

    fn control_payload(&self, request: &Request) -> String {
        match request {
            Request::Stats => self.backend.stats(self),
            _ => self.backend.health(self),
        }
        .render_line()
    }

    fn shutdown_request(self: &Arc<Self>, writer: &ReplyHandle, id: &str) {
        if !self.cfg.allow_shutdown {
            writer.send_line(&error_reply_line(
                id,
                &ErrorReply::new(
                    ErrorCode::ShutdownDisabled,
                    "started without --allow-shutdown",
                ),
            ));
            return;
        }
        let mut ack = Object::new();
        ack.put_str("schema", "doppio-serve-shutdown/v1");
        ack.put_bool("draining", true);
        self.backend.shutdown_ack(&mut ack);
        writer.send_line(&ok_reply_line(id, false, false, &ack.render_line()));
        B::shutdown(self);
    }

    fn admit(
        self: &Arc<Self>,
        writer: &ReplyHandle,
        id: String,
        deadline_ms: Option<u64>,
        request: Request,
    ) {
        let deadline = deadline_ms
            .or(self.cfg.default_deadline_ms)
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        if self.shared.is_draining() {
            writer.send_line(&error_reply_line(&id, &draining()));
            return;
        }
        let (fp, ctx) = match self.backend.route(&request) {
            Ok(Route::Flight(fp, ctx)) => (fp, ctx),
            Ok(Route::Direct(ctx)) => {
                let waiter = Waiter {
                    id: id.clone(),
                    writer: writer.clone(),
                    deadline,
                };
                let front = Arc::clone(self);
                let submitted =
                    self.submit(move || front.run(Job::Direct(waiter), &request, deadline, ctx));
                if let Err(err) = submitted {
                    writer.send_line(&error_reply_line(&id, &err));
                }
                return;
            }
            Err(err) => {
                tick(&self.counters.bad_requests);
                writer.send_line(&error_reply_line(&id, &err));
                return;
            }
        };

        // The served hot path: answered inline, no queue, no worker.
        if let Some(payload) = self.cache.get(&fp) {
            writer.send_line(&ok_reply_line(&id, true, false, &payload));
            return;
        }

        // First arrival creates the flight and enqueues; later identical
        // requests ride along as extra waiters.
        let waiter = Waiter {
            id,
            writer: writer.clone(),
            deadline,
        };
        if !self.flights.join(fp, waiter) {
            tick(&self.counters.coalesced);
            return;
        }
        let front = Arc::clone(self);
        if let Err(err) = self.submit(move || front.run(Job::Flight(fp), &request, deadline, ctx)) {
            // Shed: tear the flight down and answer everyone parked on it
            // (normally just the creator — joiners between `join` and here
            // ride the same refusal), never silence.
            self.reply_err(self.waiters(Job::Flight(fp)), &err);
        }
    }

    /// Queues `job` on the bounded pool. A refused submit becomes the
    /// reply here and nowhere else: a full queue sheds (`overloaded`, with
    /// the observed depth), a drained pool refuses (`shutting_down`).
    fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), ErrorReply> {
        let submitted = match lock_recover(&self.pool).as_ref() {
            None => Err(SubmitError::Closed),
            Some(pool) => pool.try_submit(job),
        };
        match submitted {
            Ok(()) => {
                tick(&self.counters.admitted);
                Ok(())
            }
            Err(SubmitError::Full { depth }) => {
                tick(&self.counters.shed);
                Err(ErrorReply {
                    code: ErrorCode::Overloaded,
                    message: "admission queue full; retry later".into(),
                    queue_depth: Some(depth as u64),
                })
            }
            Err(SubmitError::Closed) => Err(draining()),
        }
    }

    /// Worker side of one admitted job. Exactly one reply per waiter,
    /// whichever branch runs.
    fn run(&self, job: Job, request: &Request, deadline: Option<Instant>, ctx: B::Ctx) {
        if let (true, Job::Flight(fp)) = (B::RECHECK_CACHE, &job) {
            if let Some(payload) = self.cache.get(fp) {
                self.reply_ok_to_all(job, true, &payload);
                return;
            }
        }

        // Deadline check at dequeue: the creator's deadline passed while
        // the job sat queued, so answer without running it. Joiners (who
        // arrived later, with deadlines at least as late) are answered on
        // the same flight; none is left waiting.
        if deadline.is_some_and(|d| Instant::now() > d) {
            let waiters = self.waiters(job);
            self.counters
                .deadline_exceeded
                .fetch_add(waiters.len() as u64, Ordering::Relaxed);
            let err = ErrorReply::new(
                ErrorCode::DeadlineExceeded,
                "deadline passed while the request was queued",
            );
            self.reply_err(waiters, &err);
            return;
        }

        // Panic isolation. `AssertUnwindSafe` is sound because the
        // backend only borrows the request; all shared state it could
        // leave inconsistent is behind mutexes recovered by `lock_recover`.
        let answer = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.backend.answer(request, deadline, ctx)
        }))
        .unwrap_or_else(|payload| {
            tick(&self.counters.panics);
            Err(ErrorReply::new(
                ErrorCode::Internal,
                format!("evaluation panicked: {}", panic_message(payload.as_ref())),
            ))
        });
        match answer {
            Ok((payload, cached)) => {
                // Cached before the flight completes, so a request that
                // arrives once the flight is gone finds the cache warm.
                if let Job::Flight(fp) = &job {
                    self.cache.insert(*fp, Arc::clone(&payload));
                }
                tick(&self.counters.completed);
                self.reply_ok_to_all(job, cached, &payload);
            }
            // Errors are never cached: a transient failure must not poison
            // the key.
            Err(err) => self.reply_err(self.waiters(job), &err),
        }
    }

    /// Takes the waiters `job` answers (a flight's are removed from the
    /// singleflight table).
    fn waiters(&self, job: Job) -> Vec<Waiter> {
        match job {
            Job::Flight(fp) => self.flights.complete(&fp),
            Job::Direct(w) => vec![w],
        }
    }

    /// Replies `payload` to every waiter of `job`. A flight's waiters each
    /// have their own deadline honored; a direct request has already taken
    /// effect (an ingest cannot be undone), so its one waiter hears the
    /// result whatever the clock says.
    fn reply_ok_to_all(&self, job: Job, cached: bool, payload: &str) {
        let waiters = match job {
            Job::Direct(w) => {
                w.writer
                    .send_line(&ok_reply_line(&w.id, cached, false, payload));
                return;
            }
            flight => self.waiters(flight),
        };
        let now = Instant::now();
        for (i, w) in waiters.into_iter().enumerate() {
            if w.deadline.is_some_and(|d| now > d) {
                tick(&self.counters.deadline_exceeded);
                w.writer.send_line(&error_reply_line(
                    &w.id,
                    &ErrorReply::new(
                        ErrorCode::DeadlineExceeded,
                        "result ready after the request deadline",
                    ),
                ));
            } else {
                w.writer
                    .send_line(&ok_reply_line(&w.id, cached, i > 0, payload));
            }
        }
    }

    fn reply_err(&self, waiters: Vec<Waiter>, err: &ErrorReply) {
        for w in waiters {
            w.writer.send_line(&error_reply_line(&w.id, err));
        }
    }
}

/// Best-effort extraction of a panic payload's message (panics carry
/// `&str` or `String` in practice; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The reactor-facing face of a front: protocol dispatch for one line and
/// fault accounting.
struct Conn<B>(Arc<Front<B>>);

impl<B: Backend> ConnHandler for Conn<B> {
    fn on_open(&self) {
        tick(&self.0.counters.connections);
    }

    fn on_line(&self, reply: &ReplyHandle, line: &str) {
        match Envelope::decode(line) {
            Err(e) => {
                // Malformed framing costs one structured reply; the
                // connection survives (the line was well-delimited).
                tick(&self.0.counters.bad_requests);
                reply.send_line(&error_reply_line(&e.id, &e.error));
            }
            Ok(env) => self.0.handle(reply, env),
        }
    }

    fn on_fault(&self, fault: ConnFault) -> Option<String> {
        let c = &self.0.counters;
        let cfg = &self.0.cfg;
        let message = match fault {
            // Pure silence gets none back: reap quietly.
            ConnFault::Idle => {
                tick(&c.reaped);
                return None;
            }
            ConnFault::Stalled => {
                tick(&c.reaped);
                format!(
                    "request line did not complete within {} ms",
                    cfg.read_timeout_ms
                )
            }
            ConnFault::TooLong => format!("request line exceeds {} bytes", cfg.max_line_bytes),
            ConnFault::NotUtf8 => "request line is not valid UTF-8".into(),
        };
        tick(&c.bad_requests);
        Some(error_reply_line(
            "",
            &ErrorReply::new(ErrorCode::BadRequest, message),
        ))
    }
}

/// A running front. Dropping the handle drains it.
pub(crate) struct Handle<B: Backend> {
    addr: SocketAddr,
    pub(crate) front: Arc<Front<B>>,
    reactor: Option<JoinHandle<()>>,
}

impl<B: Backend> std::fmt::Debug for Handle<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle")
            .field("addr", &self.addr)
            .field("front", &self.front)
            .finish_non_exhaustive()
    }
}

/// Binds `cfg.addr` and starts a reactor over a front for `backend`.
///
/// # Errors
///
/// Fails when the listen address cannot be bound or the reactor's kernel
/// resources (epoll, eventfd) cannot be created.
pub(crate) fn start<B: Backend>(cfg: FrontConfig, backend: B) -> std::io::Result<Handle<B>> {
    let listener = sys::bind_listener(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let shared = ReactorShared::new()?;
    let millis = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
    let rcfg = ReactorConfig {
        max_line_bytes: cfg.max_line_bytes,
        read_timeout: millis(cfg.read_timeout_ms),
        write_timeout: millis(cfg.write_timeout_ms),
    };
    let cache = if cfg.cache_capacity == 0 {
        MemoCache::unbounded()
    } else {
        MemoCache::with_capacity(cfg.cache_capacity)
    };
    let front = Arc::new(Front {
        backend,
        pool: Mutex::new(Some(TaskPool::new(cfg.workers, cfg.queue_bound))),
        cache,
        flights: Singleflight::new(),
        counters: Counters::default(),
        shared: Arc::clone(&shared),
        started: Instant::now(),
        cfg,
    });
    let reactor = reactor::spawn(listener, rcfg, shared, Arc::new(Conn(Arc::clone(&front))))?;
    Ok(Handle {
        addr,
        front,
        reactor: Some(reactor),
    })
}

impl<B: Backend> Handle<B> {
    /// The bound address (resolves port 0).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins a graceful drain and returns at once.
    pub(crate) fn shutdown(&self) {
        self.front.begin_drain();
    }

    /// Drains and waits until every admitted job has been answered.
    pub(crate) fn join(mut self) {
        self.shutdown();
        self.wait_reactor();
    }

    /// Blocks until the front drains on its own (a remote `shutdown`).
    pub(crate) fn wait(mut self) {
        self.wait_reactor();
    }

    fn wait_reactor(&mut self) {
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

impl<B: Backend> Drop for Handle<B> {
    fn drop(&mut self) {
        self.shutdown();
        self.wait_reactor();
    }
}
