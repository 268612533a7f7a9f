//! The shard router: one front door over N serve processes.
//!
//! The router is itself a reactor server ([`crate::reactor`]) speaking the
//! same newline-delimited protocol as a shard, so clients cannot tell the
//! difference — same envelope in, bit-identical reply line out. What it
//! does per work request:
//!
//! 1. **Answer** — fingerprint the request (the cache/singleflight key the
//!    shards themselves use) and look it up in the router's own result
//!    cache. A hit is answered on the reactor thread; see *Router cache*.
//! 2. **Place** — look the key's owner up on the consistent-hash
//!    [`HashRing`]. Every identical request lands on the same shard, so
//!    that shard's memo cache concentrates all the heat for its keys.
//! 3. **Coalesce** — a router-side [`Singleflight`] collapses concurrent
//!    identical requests into one upstream call; riders get the same
//!    payload with `"coalesced": true`, exactly as a single process would
//!    have answered them.
//! 4. **Forward** — a pool worker walks the key's ring-successor list.
//!    Each shard sits behind its own [`CircuitBreaker`] (PR 5's failure
//!    containment, promoted from client-side policy to tier topology): an
//!    open breaker is skipped in microseconds, a transport failure trips
//!    failover to the next successor — which is precisely the shard that
//!    *would own the key* if the dead one left the ring. Semantic replies
//!    (`ok`, `eval_failed`, `deadline_exceeded`, …) never fail over: the
//!    shard is alive and retrying elsewhere would just duplicate work.
//! 5. **Splice** — the shard's reply carries the forwarding id; the
//!    router re-addresses it per waiter by splicing the *verbatim*
//!    `result` bytes ([`extract_result_payload`]) into a fresh reply
//!    line. No JSON re-rendering touches the payload, which is how
//!    `tests/serve_identity.rs` can demand bit-identity at every shard
//!    count.
//!
//! **Router cache**: the spliced payload of every `ok` forward is kept in
//! a bounded [`MemoCache`] (capacity [`RouterConfig::cache_capacity`],
//! the same LRU type and fingerprint key as a shard's cache), and a
//! repeat is answered on the reactor thread with the exact line a shard's
//! cache hit renders — no forward job, shard socket or thread wake-up.
//! Error replies are never cached, so a transient failure cannot poison
//! a key. Nothing owner-pinned is cached either: `observe` is an ingest,
//! not a replayable result, and a corrected `predict` depends on corrector
//! state that only its owner shard holds. Both bypass the cache entirely.
//! Uncorrected results are pure functions of their fingerprint, so a
//! cached payload can never go stale. This cache replaced hot-key fan-out
//! (spreading a hot key over several replica shards): once a repeat never
//! leaves the router, no shard is a hot key's ceiling, and the router hop
//! it saves was most of a cached request's latency.
//!
//! **Self-healing**: the router keeps *two* rings. The full-membership
//! ring never changes and pins learner-state requests to their owner
//! shard — an owner must not move just because its process is briefly
//! dead, or interim observations would land on a shard holding different
//! corrector state. The active ring tracks live membership: a
//! [`RouterController`] (handed to the shard supervisor's event callback)
//! removes a crashed shard with [`HashRing::without`] and, after the
//! restarted process passes a half-open warm-up — `warmup_successes`
//! consecutive health probes, probe traffic only — re-admits it with
//! [`HashRing::with`], restoring its exact original vnodes. Router-side
//! singleflight is keyed by fingerprint, independent of ring state, so a
//! flight in progress across the ownership flip still resolves to exactly
//! one semantic outcome for every waiter.
//!
//! **Hedging**: when a hedgeable request's primary shard has not replied
//! within its own observed `hedge_quantile` latency, a second copy goes
//! to the ring successor and the first complete reply wins; the loser's
//! connection is dropped unpooled (the cancellation). Only idempotent
//! verbs hedge — never `observe`, whose duplicate would double-ingest —
//! so a hedge can at worst waste one evaluation, never change state.
//!
//! `stats`/`health` aggregate across shards on pool workers (they do
//! blocking round-trips, so they must not run on the reactor thread) and
//! keep the single-process schemas, adding a `router` sub-object. Shards
//! currently down are skipped, not probed, so a mid-restart shard cannot
//! hang the poll.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use doppio_engine::json::{Object, Value};
use doppio_engine::{
    Fingerprint, FingerprintBuilder, Fingerprintable, MemoCache, SubmitError, TaskPool,
};

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::client::{Client, ClientConfig, Reply};
use crate::protocol::{
    error_reply_line, extract_result_payload, ok_reply_line, workload_name, Envelope, ErrorCode,
    ErrorReply, Request,
};
use crate::reactor::{self, ConnFault, ConnHandler, ReactorConfig, ReactorShared, ReplyHandle};
use crate::ring::HashRing;
use crate::shard::ShardEvent;
use crate::singleflight::Singleflight;
use crate::sys;

/// See `server::lock_recover` — same reasoning: every guarded value holds
/// its invariants between statements, and panics are already isolated.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Router configuration. Defaults mirror [`crate::ServeConfig`] where the
/// knob means the same thing.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Shard endpoints, in shard-id order (ring id = index).
    pub shards: Vec<SocketAddr>,
    /// Virtual nodes per shard on the ring.
    pub vnodes: u32,
    /// Router result-cache capacity in entries (0 = unbounded).
    pub cache_capacity: usize,
    /// Forwarding worker threads (each does blocking shard round-trips).
    pub workers: usize,
    /// Bound on queued forwards; beyond it requests shed `overloaded`.
    pub queue_bound: usize,
    /// Deadline for requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Whether a remote `shutdown` drains the tier (fans out to shards).
    pub allow_shutdown: bool,
    /// Client-facing line-length bound.
    pub max_line_bytes: usize,
    /// Client-facing read/idle timeout (0 = none).
    pub read_timeout_ms: u64,
    /// Client-facing write timeout (0 = none).
    pub write_timeout_ms: u64,
    /// Connect/read/write timeout toward shards.
    pub shard_timeout_ms: u64,
    /// Per-shard circuit breaker tuning.
    pub breaker: BreakerConfig,
    /// Enables request hedging for idempotent verbs.
    pub hedging: bool,
    /// Latency quantile of the primary shard that arms the hedge timer.
    pub hedge_quantile: f64,
    /// Round trips a shard must have served before its latency quantile
    /// is trusted enough to hedge against.
    pub hedge_min_samples: u64,
    /// Lower bound on the hedge delay, so a history of microsecond
    /// cache hits cannot trigger a hedge storm.
    pub hedge_floor_ms: u64,
    /// Consecutive successful health probes a restarted shard needs
    /// before it rejoins the active ring.
    pub warmup_successes: u32,
    /// Pause between warm-up probes.
    pub warmup_interval_ms: u64,
    /// Budget for the whole warm-up; exhausting it parks the shard down
    /// until the supervisor reports another restart.
    pub warmup_budget_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: Vec::new(),
            vnodes: crate::ring::DEFAULT_VNODES,
            cache_capacity: 4096,
            workers: 4,
            queue_bound: 256,
            default_deadline_ms: None,
            allow_shutdown: false,
            max_line_bytes: 4 * 1024 * 1024,
            read_timeout_ms: 30_000,
            write_timeout_ms: 10_000,
            shard_timeout_ms: 10_000,
            breaker: BreakerConfig::default(),
            hedging: true,
            hedge_quantile: 0.95,
            hedge_min_samples: 64,
            hedge_floor_ms: 1,
            warmup_successes: 3,
            warmup_interval_ms: 50,
            warmup_budget_ms: 30_000,
        }
    }
}

/// Router-side monotonic counters (the `router` stats sub-object).
#[derive(Debug, Default)]
struct RouterCounters {
    connections: AtomicU64,
    /// Requests answered via a successful shard round-trip.
    forwarded: AtomicU64,
    /// Transport failures that moved a request to the next ring successor.
    failovers: AtomicU64,
    /// Requests for which every candidate shard was down or tripped.
    unroutable: AtomicU64,
    /// Requests shed because the router's own forward queue was full.
    shed: AtomicU64,
    coalesced: AtomicU64,
    deadline_exceeded: AtomicU64,
    bad_requests: AtomicU64,
    reaped: AtomicU64,
    /// Hedge races launched (a second copy actually sent).
    hedged: AtomicU64,
    /// Hedge races the hedge leg won.
    hedge_wins: AtomicU64,
}

/// Re-admission state of one shard — the router's half-open door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// On the active ring, taking forwards.
    Active,
    /// Crashed, gave up, or failed warm-up: skipped entirely — no
    /// forwards, and no stats/health probes (which keeps tier polls
    /// bounded while a shard is mid-restart).
    Down,
    /// Restarted and serving probe traffic only; tracks the consecutive
    /// health-probe success streak.
    WarmUp {
        /// Consecutive successful probes so far.
        successes: u32,
    },
}

impl Admission {
    fn name(self) -> &'static str {
        match self {
            Admission::Active => "active",
            Admission::Down => "down",
            Admission::WarmUp { .. } => "warm-up",
        }
    }
}

/// Lock-free power-of-two histogram of shard round-trip latencies in
/// microseconds: bucket `i` counts round trips in `[2^i, 2^(i+1))` µs.
/// Forty buckets cover ~12 days, far past any socket timeout. This is
/// what turns "hedge after the p95" into a constant-time lookup on the
/// forward path.
struct LatencyHistogram {
    buckets: [AtomicU64; 40],
    total: AtomicU64,
}

impl LatencyHistogram {
    fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
        }
    }

    fn record(&self, d: Duration) {
        let us = (d.as_micros() as u64).max(1);
        let idx = (63 - us.leading_zeros() as usize).min(39);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// The upper edge of the bucket holding the `q`-quantile, or `None`
    /// below `min_samples` — too little history has no tail worth
    /// hedging against.
    fn quantile(&self, q: f64, min_samples: u64) -> Option<Duration> {
        let total = self.total.load(Ordering::Relaxed);
        if total == 0 || total < min_samples {
            return None;
        }
        let target = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Some(Duration::from_micros(1u64 << (i as u32 + 1).min(63)));
            }
        }
        None
    }
}

/// A reply ticket parked on a router flight (creator first).
#[derive(Debug)]
struct Waiter {
    id: String,
    writer: ReplyHandle,
    deadline: Option<Instant>,
}

/// One upstream shard: endpoint, breaker, and a small idle-connection
/// pool. Connections that saw a transport error are dropped, never
/// returned, so the pool only ever holds streams with no bytes in flight.
struct ShardPool {
    /// Current endpoint — rewritten when the supervisor respawns the
    /// shard on a fresh ephemeral port.
    addr: Mutex<SocketAddr>,
    breaker: Mutex<CircuitBreaker>,
    idle: Mutex<Vec<Client>>,
    admission: Mutex<Admission>,
    /// Bumped on every lifecycle event; a warm-up prober from a previous
    /// incarnation sees the epoch move and quits instead of re-admitting
    /// a shard that has since died again.
    epoch: AtomicU64,
    /// Supervisor restart count, as reported by the latest event.
    restarts: AtomicU64,
    /// Observed round-trip latencies, feeding the hedge delay.
    latency: LatencyHistogram,
    hedged: AtomicU64,
    hedge_wins: AtomicU64,
}

/// Idle connections kept per shard; enough to cover the forward workers
/// without hoarding fds.
const IDLE_POOL_CAP: usize = 4;

impl ShardPool {
    fn new(addr: SocketAddr, breaker: BreakerConfig) -> Self {
        ShardPool {
            addr: Mutex::new(addr),
            breaker: Mutex::new(CircuitBreaker::new(breaker)),
            idle: Mutex::new(Vec::new()),
            admission: Mutex::new(Admission::Active),
            epoch: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            hedged: AtomicU64::new(0),
            hedge_wins: AtomicU64::new(0),
        }
    }

    fn addr(&self) -> SocketAddr {
        *lock_recover(&self.addr)
    }

    fn admission(&self) -> Admission {
        *lock_recover(&self.admission)
    }

    /// Whether forwards may land here. Warm-up shards take probe traffic
    /// only; down shards take nothing.
    fn is_routable(&self) -> bool {
        matches!(self.admission(), Admission::Active)
    }

    fn checkout(&self, cfg: &ClientConfig) -> std::io::Result<Client> {
        if let Some(c) = lock_recover(&self.idle).pop() {
            return Ok(c);
        }
        Client::connect_with(self.addr(), cfg)
    }

    fn checkin(&self, client: Client) {
        let mut idle = lock_recover(&self.idle);
        if idle.len() < IDLE_POOL_CAP {
            idle.push(client);
        }
    }

    /// Drops pooled connections — they point at a dead (or previous)
    /// incarnation of the shard.
    fn drop_idle(&self) {
        lock_recover(&self.idle).clear();
    }
}

struct RouterInner {
    cfg: RouterConfig,
    shard_client_cfg: ClientConfig,
    /// Full-membership ring: owner placement for learner-state requests.
    /// Never mutated — a workload's owner must not move while its shard
    /// restarts, or interim observations would land on a shard holding
    /// different corrector state and break bit-identity.
    full_ring: HashRing,
    /// Live-membership ring for everything else: shards leave on death
    /// ([`HashRing::without`]) and return after warm-up
    /// ([`HashRing::with`], same vnodes). Locked only for the microseconds
    /// of a successor lookup or a membership flip.
    active_ring: Mutex<HashRing>,
    pools: Vec<ShardPool>,
    /// Spliced `ok` payloads by request fingerprint (see *Router cache*).
    cache: MemoCache<Fingerprint, Arc<str>>,
    pool: Mutex<Option<TaskPool>>,
    flights: Singleflight<Waiter>,
    counters: RouterCounters,
    shared: Arc<ReactorShared>,
    started: Instant,
}

/// A running router. Dropping the handle drains it (shards are *not*
/// shut down — only a remote `shutdown` request fans out).
#[derive(Debug)]
pub struct RouterHandle {
    addr: SocketAddr,
    inner: Arc<RouterInner>,
    reactor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for RouterInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterInner")
            .field("cfg", &self.cfg)
            .field("draining", &self.shared.is_draining())
            .finish_non_exhaustive()
    }
}

/// Starts a router over `cfg.shards` and returns its handle.
///
/// # Errors
///
/// Fails when `cfg.shards` is empty, the listen address cannot be bound,
/// or the reactor's kernel resources cannot be created.
pub fn start_router(cfg: RouterConfig) -> std::io::Result<RouterHandle> {
    if cfg.shards.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "router needs at least one shard",
        ));
    }
    let listener = sys::bind_listener(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let shared = ReactorShared::new()?;
    let rcfg = ReactorConfig {
        max_line_bytes: cfg.max_line_bytes,
        read_timeout: (cfg.read_timeout_ms > 0).then(|| Duration::from_millis(cfg.read_timeout_ms)),
        write_timeout: (cfg.write_timeout_ms > 0)
            .then(|| Duration::from_millis(cfg.write_timeout_ms)),
    };
    let shard_timeout = Duration::from_millis(cfg.shard_timeout_ms.max(1));
    let ids: Vec<u32> = (0..cfg.shards.len() as u32).collect();
    let ring = HashRing::new(&ids, cfg.vnodes);
    let inner = Arc::new(RouterInner {
        shard_client_cfg: ClientConfig {
            connect_timeout: Some(shard_timeout),
            read_timeout: Some(shard_timeout),
            write_timeout: Some(shard_timeout),
        },
        full_ring: ring.clone(),
        active_ring: Mutex::new(ring),
        pools: cfg
            .shards
            .iter()
            .map(|&addr| ShardPool::new(addr, cfg.breaker))
            .collect(),
        cache: crate::server::reply_cache(cfg.cache_capacity),
        pool: Mutex::new(Some(TaskPool::new(cfg.workers, cfg.queue_bound))),
        flights: Singleflight::new(),
        counters: RouterCounters::default(),
        shared: Arc::clone(&shared),
        started: Instant::now(),
        cfg,
    });
    let core = Arc::new(RouterCore {
        inner: Arc::clone(&inner),
    });
    let reactor = reactor::spawn(listener, rcfg, shared, core)?;
    Ok(RouterHandle {
        addr,
        inner,
        reactor: Some(reactor),
    })
}

impl RouterHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for feeding shard lifecycle events into the router —
    /// hand its [`RouterController::on_shard_event`] to
    /// [`TierHandle::supervise`](crate::shard::TierHandle::supervise).
    pub fn controller(&self) -> RouterController {
        RouterController {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Begins a graceful drain of the router (shards keep running).
    pub fn shutdown(&self) {
        begin_drain(&self.inner);
    }

    /// Drains and waits for in-flight forwards to finish.
    pub fn join(mut self) {
        self.shutdown();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }

    /// Blocks until the router drains on its own (remote `shutdown`).
    pub fn wait(mut self) {
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

/// The supervisor-facing face of the router: translates shard lifecycle
/// events ([`ShardEvent`]) into admission changes and active-ring
/// membership flips. Cheap to clone; safe to call from the supervisor
/// thread while the router serves.
#[derive(Clone)]
pub struct RouterController {
    inner: Arc<RouterInner>,
}

impl std::fmt::Debug for RouterController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterController").finish_non_exhaustive()
    }
}

impl RouterController {
    /// Applies one shard lifecycle event.
    ///
    /// * `Down`/`GaveUp` — the shard leaves the active ring immediately
    ///   and its pooled connections are dropped. Its breaker state is
    ///   left alone: requests already in flight will debit it naturally.
    /// * `Restarted` — the pool adopts the new address, gets a fresh
    ///   breaker, and enters warm-up: a prober thread sends probe traffic
    ///   until [`RouterConfig::warmup_successes`] consecutive health
    ///   probes pass, then the shard rejoins the active ring with its
    ///   original vnodes.
    pub fn on_shard_event(&self, event: &ShardEvent) {
        match *event {
            ShardEvent::Down { shard, .. } | ShardEvent::GaveUp { shard, .. } => {
                self.mark_down(shard)
            }
            ShardEvent::Restarted {
                shard,
                addr,
                restarts,
            } => self.begin_warmup(shard, addr, restarts),
        }
    }

    fn mark_down(&self, shard: u32) {
        let Some(pool) = self.inner.pools.get(shard as usize) else {
            return;
        };
        pool.epoch.fetch_add(1, Ordering::Relaxed);
        // Admission and ring membership flip under the admission lock so
        // a concurrent warm-up completion cannot interleave between them
        // (lock order is admission → active_ring everywhere).
        let mut adm = lock_recover(&pool.admission);
        *adm = Admission::Down;
        let mut ring = lock_recover(&self.inner.active_ring);
        *ring = ring.without(shard);
        drop(ring);
        drop(adm);
        pool.drop_idle();
    }

    fn begin_warmup(&self, shard: u32, addr: SocketAddr, restarts: u64) {
        let Some(pool) = self.inner.pools.get(shard as usize) else {
            return;
        };
        let epoch = pool.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        *lock_recover(&pool.addr) = addr;
        pool.restarts.store(restarts, Ordering::Relaxed);
        pool.drop_idle();
        // The old breaker remembers the crash; the new process deserves a
        // closed one.
        *lock_recover(&pool.breaker) = CircuitBreaker::new(self.inner.cfg.breaker);
        *lock_recover(&pool.admission) = Admission::WarmUp { successes: 0 };
        let inner = Arc::clone(&self.inner);
        std::thread::Builder::new()
            .name(format!("doppio-warmup-{shard}"))
            .spawn(move || warmup_probe_loop(&inner, shard, epoch))
            .ok();
    }
}

/// Half-open re-admission: the restarted shard serves probe traffic only
/// until `warmup_successes` *consecutive* health probes report ready,
/// then rejoins the active ring. A probe failure resets the streak;
/// exhausting `warmup_budget_ms` parks the shard down until the
/// supervisor reports another restart.
fn warmup_probe_loop(inner: &Arc<RouterInner>, shard: u32, epoch: u64) {
    let pool = &inner.pools[shard as usize];
    let need = inner.cfg.warmup_successes.max(1);
    let deadline = Instant::now() + Duration::from_millis(inner.cfg.warmup_budget_ms.max(1));
    let mut streak = 0u32;
    loop {
        if inner.shared.is_draining() || pool.epoch.load(Ordering::Relaxed) != epoch {
            return;
        }
        if Instant::now() > deadline {
            let mut adm = lock_recover(&pool.admission);
            if pool.epoch.load(Ordering::Relaxed) == epoch {
                *adm = Admission::Down;
            }
            return;
        }
        let ready = probe(inner, shard as usize, Request::Health)
            .and_then(|v| v.get("ready").and_then(Value::as_bool))
            .unwrap_or(false);
        streak = if ready { streak + 1 } else { 0 };
        {
            let mut adm = lock_recover(&pool.admission);
            if pool.epoch.load(Ordering::Relaxed) != epoch {
                return;
            }
            if streak >= need {
                *adm = Admission::Active;
                let mut ring = lock_recover(&inner.active_ring);
                *ring = ring.with(shard);
                return;
            }
            *adm = Admission::WarmUp { successes: streak };
        }
        std::thread::sleep(Duration::from_millis(inner.cfg.warmup_interval_ms.max(1)));
    }
}

fn begin_drain(inner: &Arc<RouterInner>) {
    if inner.shared.begin_drain() {
        let drain_inner = Arc::clone(inner);
        std::thread::spawn(move || {
            let pool = lock_recover(&drain_inner.pool).take();
            if let Some(pool) = pool {
                pool.drain();
            }
            drain_inner.shared.finish_drain();
        });
    }
}

/// The reactor-facing face of the router.
struct RouterCore {
    inner: Arc<RouterInner>,
}

impl ConnHandler for RouterCore {
    fn on_open(&self) {
        self.inner
            .counters
            .connections
            .fetch_add(1, Ordering::Relaxed);
    }

    fn on_line(&self, reply: &ReplyHandle, line: &str) {
        match Envelope::decode(line) {
            Err(e) => {
                self.inner
                    .counters
                    .bad_requests
                    .fetch_add(1, Ordering::Relaxed);
                reply.send_line(&error_reply_line(&e.id, &e.error));
            }
            Ok(env) => handle_request(&self.inner, reply, env),
        }
    }

    fn on_fault(&self, fault: ConnFault) -> Option<String> {
        let c = &self.inner.counters;
        let cfg = &self.inner.cfg;
        match fault {
            ConnFault::Idle => {
                c.reaped.fetch_add(1, Ordering::Relaxed);
                None
            }
            ConnFault::Stalled => {
                c.bad_requests.fetch_add(1, Ordering::Relaxed);
                c.reaped.fetch_add(1, Ordering::Relaxed);
                Some(error_reply_line(
                    "",
                    &ErrorReply::new(
                        ErrorCode::BadRequest,
                        format!(
                            "request line did not complete within {} ms",
                            cfg.read_timeout_ms
                        ),
                    ),
                ))
            }
            ConnFault::TooLong => {
                c.bad_requests.fetch_add(1, Ordering::Relaxed);
                Some(error_reply_line(
                    "",
                    &ErrorReply::new(
                        ErrorCode::BadRequest,
                        format!("request line exceeds {} bytes", cfg.max_line_bytes),
                    ),
                ))
            }
            ConnFault::NotUtf8 => {
                c.bad_requests.fetch_add(1, Ordering::Relaxed);
                Some(error_reply_line(
                    "",
                    &ErrorReply::new(ErrorCode::BadRequest, "request line is not valid UTF-8"),
                ))
            }
        }
    }
}

fn handle_request(inner: &Arc<RouterInner>, writer: &ReplyHandle, env: Envelope) {
    let Envelope {
        id,
        deadline_ms,
        request,
    } = env;
    match request {
        // Aggregations do blocking shard round-trips: off the reactor.
        Request::Stats => submit_control(inner, writer, id, stats_payload),
        Request::Health => submit_control(inner, writer, id, health_payload),
        Request::Shutdown => {
            if !inner.cfg.allow_shutdown {
                writer.send_line(&error_reply_line(
                    &id,
                    &ErrorReply::new(
                        ErrorCode::ShutdownDisabled,
                        "router started without --allow-shutdown",
                    ),
                ));
                return;
            }
            let mut o = Object::new();
            o.put_str("schema", "doppio-serve-shutdown/v1");
            o.put_bool("draining", true);
            o.put_u64("shards", inner.pools.len() as u64);
            writer.send_line(&ok_reply_line(&id, false, false, &o.render_line()));
            // Fan the shutdown out to every shard *before* draining the
            // router's own pool, on a detached thread (blocking I/O).
            let fan_inner = Arc::clone(inner);
            std::thread::spawn(move || {
                for pool in &fan_inner.pools {
                    if let Ok(mut c) =
                        Client::connect_with(pool.addr(), &fan_inner.shard_client_cfg)
                    {
                        let _ = c.call(Request::Shutdown, Some(5_000));
                    }
                }
                begin_drain(&fan_inner);
            });
        }
        work => route_work(inner, writer, id, deadline_ms, work),
    }
}

/// Queues a control-command aggregation on the forward pool.
fn submit_control(
    inner: &Arc<RouterInner>,
    writer: &ReplyHandle,
    id: String,
    payload: fn(&Arc<RouterInner>) -> Object,
) {
    let job_inner = Arc::clone(inner);
    let job_writer = writer.clone();
    let job_id = id.clone();
    let submitted = {
        let guard = lock_recover(&inner.pool);
        match guard.as_ref() {
            None => Err(SubmitError::Closed),
            Some(pool) => pool.try_submit(move || {
                let line = payload(&job_inner).render_line();
                job_writer.send_line(&ok_reply_line(&job_id, false, false, &line));
            }),
        }
    };
    if let Err(e) = submitted {
        writer.send_line(&error_reply_line(&id, &submit_error_reply(inner, e)));
    }
}

fn submit_error_reply(inner: &Arc<RouterInner>, e: SubmitError) -> ErrorReply {
    match e {
        SubmitError::Full { depth } => {
            inner.counters.shed.fetch_add(1, Ordering::Relaxed);
            ErrorReply {
                code: ErrorCode::Overloaded,
                message: "router forward queue full; retry later".into(),
                queue_depth: Some(depth as u64),
            }
        }
        SubmitError::Closed => ErrorReply::new(ErrorCode::ShuttingDown, "router is draining"),
    }
}

/// Admission for work requests: answer from the cache, or fingerprint,
/// coalesce and queue a forward.
fn route_work(
    inner: &Arc<RouterInner>,
    writer: &ReplyHandle,
    id: String,
    deadline_ms: Option<u64>,
    request: Request,
) {
    let deadline = deadline_ms
        .or(inner.cfg.default_deadline_ms)
        .map(|ms| Instant::now() + Duration::from_millis(ms));

    if inner.shared.is_draining() {
        writer.send_line(&error_reply_line(
            &id,
            &ErrorReply::new(ErrorCode::ShuttingDown, "router is draining"),
        ));
        return;
    }

    // Learner-state requests are pinned to the workload's owner shard:
    // no failover (another shard holds no — or different — corrector
    // state), no router cache and no router-side coalescing (two
    // identical observations are two ingests).
    if let Some(owner_fp) = learn_owner_fingerprint(&request) {
        route_owned(inner, writer, id, deadline, request, owner_fp);
        return;
    }

    // Cache hit: the same line a shard's own hit renders, sent from the
    // reactor thread.
    let fp = request.fingerprint();
    if let Some(payload) = inner.cache.get(&fp) {
        writer.send_line(&ok_reply_line(&id, true, false, &payload));
        return;
    }
    let order = lock_recover(&inner.active_ring).successors(&fp, inner.pools.len());

    let waiter = Waiter {
        id,
        writer: writer.clone(),
        deadline,
    };
    let created = inner.flights.join(fp, waiter);
    if !created {
        inner.counters.coalesced.fetch_add(1, Ordering::Relaxed);
        return;
    }

    let job_inner = Arc::clone(inner);
    let submitted = {
        let guard = lock_recover(&inner.pool);
        match guard.as_ref() {
            None => Err(SubmitError::Closed),
            Some(pool) => {
                pool.try_submit(move || forward_flight(&job_inner, fp, &request, deadline, &order))
            }
        }
    };
    if let Err(e) = submitted {
        let err = submit_error_reply(inner, e);
        for w in inner.flights.complete(&fp) {
            w.writer.send_line(&error_reply_line(&w.id, &err));
        }
    }
}

/// The placement key for requests that touch per-workload learner state.
/// Every observation of a workload and every corrected predict against it
/// hash to the *same* owner fingerprint — the ring then concentrates that
/// workload's corrector on one shard, which is what makes a routed
/// corrected predict bit-identical to a single-process one.
fn learn_owner_fingerprint(request: &Request) -> Option<Fingerprint> {
    let (workload, paper) = match request {
        Request::Observe(o) => (o.workload.as_str(), o.paper),
        Request::Predict(p) if p.corrected => (workload_name(p.workload), p.paper),
        _ => return None,
    };
    let mut fp = FingerprintBuilder::new();
    fp.write_str("learn-owner");
    fp.write_str(workload);
    fp.write_bool(paper);
    Some(fp.finish())
}

/// Queues a forward pinned to the owner shard of `owner_fp`, bypassing
/// singleflight (observes must not coalesce) and failover (learner state
/// lives on exactly one shard).
fn route_owned(
    inner: &Arc<RouterInner>,
    writer: &ReplyHandle,
    id: String,
    deadline: Option<Instant>,
    request: Request,
    owner_fp: Fingerprint,
) {
    // Owner placement uses the *full* ring: while the owner is down or
    // warming up these requests fail fast rather than fail over, because
    // the learner state they touch lives on exactly that shard.
    let order = inner.full_ring.successors(&owner_fp, 1);
    let job_inner = Arc::clone(inner);
    let job_writer = writer.clone();
    let job_id = id.clone();
    let submitted = {
        let guard = lock_recover(&inner.pool);
        match guard.as_ref() {
            None => Err(SubmitError::Closed),
            Some(pool) => pool.try_submit(move || {
                forward_single(&job_inner, &job_writer, &job_id, &request, deadline, &order)
            }),
        }
    };
    if let Err(e) = submitted {
        writer.send_line(&error_reply_line(&id, &submit_error_reply(inner, e)));
    }
}

/// Worker-side forwarding of one owner-pinned request. Exactly one reply.
fn forward_single(
    inner: &Arc<RouterInner>,
    writer: &ReplyHandle,
    id: &str,
    request: &Request,
    deadline: Option<Instant>,
    order: &[u32],
) {
    if deadline.is_some_and(|d| Instant::now() > d) {
        inner
            .counters
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
        writer.send_line(&error_reply_line(
            id,
            &ErrorReply::new(
                ErrorCode::DeadlineExceeded,
                "deadline passed while the request was queued",
            ),
        ));
        return;
    }
    match try_shards(inner, request, deadline, order) {
        Some(reply) if reply.ok => match extract_result_payload(&reply.raw) {
            Some(payload) => {
                writer.send_line(&ok_reply_line(id, reply.cached, false, payload));
            }
            None => {
                writer.send_line(&error_reply_line(
                    id,
                    &ErrorReply::new(
                        ErrorCode::Internal,
                        "shard reply carried no extractable result",
                    ),
                ));
            }
        },
        Some(reply) => {
            let err = ErrorReply {
                code: reply
                    .error_code
                    .as_deref()
                    .and_then(ErrorCode::parse)
                    .unwrap_or(ErrorCode::Internal),
                message: reply.error_message.unwrap_or_else(|| "shard error".into()),
                queue_depth: reply.queue_depth,
            };
            writer.send_line(&error_reply_line(id, &err));
        }
        None => {
            inner.counters.unroutable.fetch_add(1, Ordering::Relaxed);
            writer.send_line(&error_reply_line(
                id,
                &ErrorReply::new(
                    ErrorCode::Overloaded,
                    "owner shard unavailable; retry later",
                ),
            ));
        }
    }
}

/// Worker-side forwarding of one flight. Exactly one reply per waiter.
fn forward_flight(
    inner: &Arc<RouterInner>,
    fp: Fingerprint,
    request: &Request,
    deadline: Option<Instant>,
    order: &[u32],
) {
    if deadline.is_some_and(|d| Instant::now() > d) {
        let waiters = inner.flights.complete(&fp);
        inner
            .counters
            .deadline_exceeded
            .fetch_add(waiters.len() as u64, Ordering::Relaxed);
        let err = ErrorReply::new(
            ErrorCode::DeadlineExceeded,
            "deadline passed while the request was queued",
        );
        for w in waiters {
            w.writer.send_line(&error_reply_line(&w.id, &err));
        }
        return;
    }

    let outcome = try_shards(inner, request, deadline, order);
    // An ok payload is cached before the flight completes, so a request
    // arriving after the flight is gone finds the cache warm.
    let payload = outcome
        .as_ref()
        .filter(|reply| reply.ok)
        .and_then(|reply| extract_result_payload(&reply.raw))
        .map(Arc::<str>::from);
    if let Some(payload) = &payload {
        inner.cache.insert(fp, Arc::clone(payload));
    }
    let waiters = inner.flights.complete(&fp);
    match outcome {
        Some(reply) if reply.ok => {
            // Splice the verbatim result bytes under each waiter's id.
            // `extract_result_payload` cannot fail on a reply our own
            // shards rendered; the fallback covers a hand-rolled upstream.
            match payload {
                Some(payload) => reply_ok_to_all(inner, waiters, reply.cached, &payload),
                None => {
                    let err = ErrorReply::new(
                        ErrorCode::Internal,
                        "shard reply carried no extractable result",
                    );
                    for w in waiters {
                        w.writer.send_line(&error_reply_line(&w.id, &err));
                    }
                }
            }
        }
        Some(reply) => {
            // Semantic failure from a live shard: relay it, never retry.
            let err = ErrorReply {
                code: reply
                    .error_code
                    .as_deref()
                    .and_then(ErrorCode::parse)
                    .unwrap_or(ErrorCode::Internal),
                message: reply.error_message.unwrap_or_else(|| "shard error".into()),
                queue_depth: reply.queue_depth,
            };
            for w in waiters {
                w.writer.send_line(&error_reply_line(&w.id, &err));
            }
        }
        None => {
            inner.counters.unroutable.fetch_add(1, Ordering::Relaxed);
            let err = ErrorReply::new(ErrorCode::Overloaded, "no shard available; retry later");
            for w in waiters {
                w.writer.send_line(&error_reply_line(&w.id, &err));
            }
        }
    }
}

/// What remains of `deadline` in whole milliseconds, for the forwarded
/// envelope. Recomputed per attempt, so a slow first shard cannot spend
/// a rider's whole budget twice.
fn remaining_ms(deadline: Option<Instant>) -> Option<u64> {
    deadline.map(|d| {
        let left = d.saturating_duration_since(Instant::now()).as_millis() as u64;
        // Out of time mid-walk: forward a token 1 ms; the caller's
        // dequeue check replies deadline_exceeded on the next pass.
        left.max(1)
    })
}

/// Walks `order`, returning the first shard round-trip that completed at
/// the transport level (its reply may still be a semantic error). `None`
/// when every candidate was down, tripped, unreachable, or timed out.
/// The first attempt of a hedgeable request runs as a hedge race when
/// the primary's latency history justifies one.
fn try_shards(
    inner: &Arc<RouterInner>,
    request: &Request,
    deadline: Option<Instant>,
    order: &[u32],
) -> Option<Reply> {
    let hedge = hedge_delay(inner, request, order);
    for (attempt, &shard) in order.iter().enumerate() {
        let pool = &inner.pools[shard as usize];
        // Admission gate. The active ring already excludes down shards
        // for general traffic; this also covers owner-pinned orders
        // (full ring) and forwards racing a membership flip.
        if !pool.is_routable() {
            continue;
        }
        if !lock_recover(&pool.breaker).try_acquire(Instant::now()) {
            continue;
        }
        let mut client = match pool.checkout(&inner.shard_client_cfg) {
            Ok(c) => c,
            Err(_) => {
                lock_recover(&pool.breaker).record_failure(Instant::now());
                inner.counters.failovers.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        if attempt == 0 {
            if let Some(delay) = hedge {
                match hedged_call(inner, shard, client, request, deadline, delay, order) {
                    Some(reply) => {
                        inner.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                        return Some(reply);
                    }
                    // Every leg failed at the transport level (breakers
                    // already debited inside); fall through to the plain
                    // sequential walk over the remaining successors.
                    None => continue,
                }
            }
        }
        let started = Instant::now();
        match client.call(request.clone(), remaining_ms(deadline)) {
            Ok(reply) => {
                pool.latency.record(started.elapsed());
                lock_recover(&pool.breaker).record_success();
                pool.checkin(client);
                inner.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                if attempt > 0 {
                    inner.counters.failovers.fetch_add(1, Ordering::Relaxed);
                }
                return Some(reply);
            }
            Err(_) => {
                // Transport failure: the connection's state is unknown —
                // drop it, debit the breaker, move to the next successor.
                lock_recover(&pool.breaker).record_failure(Instant::now());
                continue;
            }
        }
    }
    None
}

/// The delay after which a slow primary triggers a hedge: the primary
/// shard's observed `hedge_quantile` round-trip latency, floored at
/// `hedge_floor_ms`. `None` — no hedging — for non-idempotent verbs
/// (`observe` must never run twice), single-candidate orders (owner-
/// pinned requests always are), disabled config, or a primary whose
/// histogram is still below `hedge_min_samples`.
fn hedge_delay(inner: &Arc<RouterInner>, request: &Request, order: &[u32]) -> Option<Duration> {
    if !inner.cfg.hedging || order.len() < 2 || !request.is_hedgeable() {
        return None;
    }
    let pool = inner.pools.get(*order.first()? as usize)?;
    let q = pool
        .latency
        .quantile(inner.cfg.hedge_quantile, inner.cfg.hedge_min_samples)?;
    Some(q.max(Duration::from_millis(inner.cfg.hedge_floor_ms.max(1))))
}

/// One poll step of a hedge leg.
enum LegPoll {
    /// The matching reply arrived.
    Got(Reply),
    /// Deadline passed with the reply still in flight; the leg stays
    /// valid (partial bytes are retained inside the client).
    Pending,
    /// Transport failure — the leg is gone.
    Dead,
}

fn poll_leg(client: &mut Client, id: &str, deadline: Instant) -> LegPoll {
    loop {
        match client.recv_until(deadline) {
            Ok(Some(r)) if r.id == id => return LegPoll::Got(r),
            // A stray id on a pooled connection; skip it like `call` does.
            Ok(Some(_)) => continue,
            Ok(None) => return LegPoll::Pending,
            Err(_) => return LegPoll::Dead,
        }
    }
}

/// Success bookkeeping for a race winner: close the breaker, restore the
/// pooled read timeout (`recv_until` overrode it) and check the
/// connection back in.
fn finish_winner(pool: &ShardPool, mut client: Client, cfg: &ClientConfig) {
    lock_recover(&pool.breaker).record_success();
    if client.set_read_timeout(cfg.read_timeout).is_ok() {
        pool.checkin(client);
    }
}

/// One hedged round trip. The primary's reply is awaited for `delay`
/// alone; past that a second copy of the request goes to the first
/// routable, breaker-admitted ring successor, and the two connections
/// are polled in short alternating slices — the first complete reply
/// wins. The loser's connection is dropped unpooled, which closes it and
/// discards whatever it would have said: that drop *is* the
/// cancellation, and because only idempotent verbs reach here, the
/// losing shard finishing the work anyway wastes one evaluation but can
/// never change state. `None` means every leg failed at the transport
/// level (breakers debited here).
fn hedged_call(
    inner: &Arc<RouterInner>,
    primary_shard: u32,
    mut primary: Client,
    request: &Request,
    deadline: Option<Instant>,
    delay: Duration,
    order: &[u32],
) -> Option<Reply> {
    let shard_timeout = inner
        .shard_client_cfg
        .read_timeout
        .unwrap_or(Duration::from_secs(10));
    let started = Instant::now();
    let hard_stop = match deadline {
        Some(d) => d.min(started + shard_timeout),
        None => started + shard_timeout,
    };
    let ppool = &inner.pools[primary_shard as usize];
    let pid = match primary.send_request(request.clone(), remaining_ms(deadline)) {
        Ok(id) => id,
        Err(_) => {
            lock_recover(&ppool.breaker).record_failure(Instant::now());
            return None;
        }
    };
    // Phase 1: the primary gets its usual-latency budget to itself.
    match poll_leg(&mut primary, &pid, (started + delay).min(hard_stop)) {
        LegPoll::Got(reply) => {
            ppool.latency.record(started.elapsed());
            finish_winner(ppool, primary, &inner.shard_client_cfg);
            return Some(reply);
        }
        LegPoll::Dead => {
            lock_recover(&ppool.breaker).record_failure(Instant::now());
            return None;
        }
        LegPoll::Pending => {}
    }
    // Phase 2: the primary blew its quantile — launch the hedge.
    let mut hedge_leg: Option<(u32, Client, String, Instant)> = None;
    let target = order[1..].iter().copied().find(|&s| {
        let p = &inner.pools[s as usize];
        p.is_routable() && lock_recover(&p.breaker).try_acquire(Instant::now())
    });
    if let Some(hs) = target {
        let hpool = &inner.pools[hs as usize];
        match hpool.checkout(&inner.shard_client_cfg) {
            Err(_) => {
                lock_recover(&hpool.breaker).record_failure(Instant::now());
            }
            Ok(mut hc) => {
                let hstart = Instant::now();
                match hc.send_request(request.clone(), remaining_ms(deadline)) {
                    Ok(hid) => {
                        hpool.hedged.fetch_add(1, Ordering::Relaxed);
                        inner.counters.hedged.fetch_add(1, Ordering::Relaxed);
                        hedge_leg = Some((hs, hc, hid, hstart));
                    }
                    Err(_) => {
                        lock_recover(&hpool.breaker).record_failure(Instant::now());
                    }
                }
            }
        }
    }
    // Phase 3: alternate short polls across the live legs until one
    // completes or the overall budget runs out.
    const SLICE: Duration = Duration::from_millis(2);
    let mut primary_alive = true;
    while Instant::now() < hard_stop {
        if primary_alive {
            let slice_end = (Instant::now() + SLICE).min(hard_stop);
            match poll_leg(&mut primary, &pid, slice_end) {
                LegPoll::Got(reply) => {
                    ppool.latency.record(started.elapsed());
                    finish_winner(ppool, primary, &inner.shard_client_cfg);
                    // `hedge_leg` drops here: the loser is cancelled.
                    return Some(reply);
                }
                LegPoll::Dead => {
                    lock_recover(&ppool.breaker).record_failure(Instant::now());
                    primary_alive = false;
                }
                LegPoll::Pending => {}
            }
        }
        if let Some((hs, mut hc, hid, hstart)) = hedge_leg.take() {
            let hpool = &inner.pools[hs as usize];
            let slice_end = (Instant::now() + SLICE).min(hard_stop);
            match poll_leg(&mut hc, &hid, slice_end) {
                LegPoll::Got(reply) => {
                    hpool.latency.record(hstart.elapsed());
                    hpool.hedge_wins.fetch_add(1, Ordering::Relaxed);
                    inner.counters.hedge_wins.fetch_add(1, Ordering::Relaxed);
                    finish_winner(hpool, hc, &inner.shard_client_cfg);
                    // `primary` drops here: the loser is cancelled.
                    return Some(reply);
                }
                LegPoll::Dead => {
                    lock_recover(&hpool.breaker).record_failure(Instant::now());
                }
                LegPoll::Pending => hedge_leg = Some((hs, hc, hid, hstart)),
            }
        }
        if !primary_alive && hedge_leg.is_none() {
            return None;
        }
    }
    // No winner inside the budget. The primary consumed a full shard
    // timeout — debit it like the plain path's timeout; the hedge leg
    // started late, so it is dropped without a verdict.
    if primary_alive {
        lock_recover(&ppool.breaker).record_failure(Instant::now());
    }
    None
}

/// Replies `payload` to every waiter under its own id, honoring
/// per-waiter deadlines; mirrors the single-process reply loop so the
/// rendered lines are bit-identical to direct serving.
fn reply_ok_to_all(inner: &Arc<RouterInner>, waiters: Vec<Waiter>, cached: bool, payload: &str) {
    let now = Instant::now();
    for (i, w) in waiters.into_iter().enumerate() {
        if w.deadline.is_some_and(|d| now > d) {
            inner
                .counters
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
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

// ---------------------------------------------------------------------------
// Aggregated control commands (run on pool workers).
// ---------------------------------------------------------------------------

/// Probes every shard for a control command, skipping — not probing —
/// shards currently marked down, so a tier poll stays bounded while a
/// shard is mid-restart.
fn snapshot_shards(inner: &Arc<RouterInner>, request: Request) -> Vec<Option<Value>> {
    (0..inner.pools.len())
        .map(|i| {
            if matches!(inner.pools[i].admission(), Admission::Down) {
                None
            } else {
                probe(inner, i, request.clone())
            }
        })
        .collect()
}

/// Fetches one shard's `stats`/`health` result over a fresh short-timeout
/// connection. Deliberately bypasses the breaker: observability should
/// report a sick shard, not mask it.
fn probe(inner: &RouterInner, shard: usize, request: Request) -> Option<Value> {
    let cfg = ClientConfig {
        connect_timeout: Some(Duration::from_millis(1_000)),
        read_timeout: Some(Duration::from_millis(2_000)),
        write_timeout: Some(Duration::from_millis(2_000)),
    };
    let mut c = Client::connect_with(inner.pools[shard].addr(), &cfg).ok()?;
    let reply = c.call(request, Some(2_000)).ok()?;
    if reply.ok {
        reply.result
    } else {
        None
    }
}

fn u64_of(v: Option<&Value>, key: &str) -> u64 {
    v.and_then(|v| v.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Tier stats: the single-process `doppio-serve-stats/v1` fields summed
/// across reachable shards, plus the router's own counters and per-shard
/// reachability under `router`.
fn stats_payload(inner: &Arc<RouterInner>) -> Object {
    let snapshots: Vec<Option<Value>> = snapshot_shards(inner, Request::Stats);
    let sum = |key: &str| -> u64 { snapshots.iter().map(|s| u64_of(s.as_ref(), key)).sum() };
    let sum_cache = |key: &str| -> u64 {
        snapshots
            .iter()
            .map(|s| u64_of(s.as_ref().and_then(|v| v.get("cache")), key))
            .sum()
    };
    let c = &inner.counters;
    let mut o = Object::new();
    o.put_str("schema", "doppio-serve-stats/v1");
    o.put_u64("workers", sum("workers"));
    o.put_u64("queue_bound", sum("queue_bound"));
    o.put_u64("queue_depth", sum("queue_depth"));
    o.put_u64("in_flight", sum("in_flight"));
    o.put_u64("connections", c.connections.load(Ordering::Relaxed));
    o.put_u64("admitted", sum("admitted"));
    o.put_u64("completed", sum("completed"));
    o.put_u64(
        "shed",
        sum("shed") + c.shed.load(Ordering::Relaxed) + c.unroutable.load(Ordering::Relaxed),
    );
    o.put_u64(
        "coalesced",
        sum("coalesced") + c.coalesced.load(Ordering::Relaxed),
    );
    o.put_u64(
        "deadline_exceeded",
        sum("deadline_exceeded") + c.deadline_exceeded.load(Ordering::Relaxed),
    );
    o.put_u64(
        "bad_requests",
        sum("bad_requests") + c.bad_requests.load(Ordering::Relaxed),
    );
    o.put_u64("panics", sum("panics"));
    o.put_u64("reaped", sum("reaped") + c.reaped.load(Ordering::Relaxed));
    o.put_u64("observations", sum("observations"));
    o.put_u64("corrector_version", sum("corrector_version"));
    let mut cache = Object::new();
    cache.put_u64("hits", sum_cache("hits"));
    cache.put_u64("misses", sum_cache("misses"));
    cache.put_u64("evictions", sum_cache("evictions"));
    cache.put_u64("len", sum_cache("len"));
    cache.put_u64("capacity", sum_cache("capacity"));
    o.put_obj("cache", cache);
    o.put_bool("draining", inner.shared.is_draining());

    let mut router = Object::new();
    router.put_u64("shards", inner.pools.len() as u64);
    router.put_u64(
        "shards_ok",
        snapshots.iter().filter(|s| s.is_some()).count() as u64,
    );
    router.put_u64("forwarded", c.forwarded.load(Ordering::Relaxed));
    router.put_u64("failovers", c.failovers.load(Ordering::Relaxed));
    router.put_u64("unroutable", c.unroutable.load(Ordering::Relaxed));
    router.put_u64("shed", c.shed.load(Ordering::Relaxed));
    router.put_u64("coalesced", c.coalesced.load(Ordering::Relaxed));
    router.put_obj("cache", crate::server::cache_stats(&inner.cache));
    router.put_u64("hedged", c.hedged.load(Ordering::Relaxed));
    router.put_u64("hedge_wins", c.hedge_wins.load(Ordering::Relaxed));
    router.put_u64(
        "restarts",
        inner
            .pools
            .iter()
            .map(|p| p.restarts.load(Ordering::Relaxed))
            .sum(),
    );
    router.put_u64(
        "active_shards",
        inner.pools.iter().filter(|p| p.is_routable()).count() as u64,
    );
    let (mut opened, mut fast_failures) = (0, 0);
    router.put_obj_arr(
        "per_shard",
        inner
            .pools
            .iter()
            .zip(&snapshots)
            .enumerate()
            .map(|(i, (pool, snap))| {
                let b = lock_recover(&pool.breaker);
                opened += b.opened();
                fast_failures += b.fast_failures();
                let mut so = Object::new();
                so.put_u64("shard", i as u64);
                so.put_str("addr", &pool.addr().to_string());
                so.put_bool("ok", snap.is_some());
                so.put_str("admission", pool.admission().name());
                so.put_str("breaker", b.state_name());
                so.put_u64("breaker_opened", b.opened());
                so.put_u64("breaker_fast_failures", b.fast_failures());
                so.put_u64("restarts", pool.restarts.load(Ordering::Relaxed));
                so.put_u64("hedged", pool.hedged.load(Ordering::Relaxed));
                so.put_u64("hedge_wins", pool.hedge_wins.load(Ordering::Relaxed));
                so
            })
            .collect(),
    );
    router.put_u64("breaker_opened", opened);
    router.put_u64("breaker_fast_failures", fast_failures);
    o.put_obj("router", router);
    o
}

/// Tier health: `ready` only when *every* shard answers ready — the
/// startup gate `doppio health --wait-ms` polls. A degraded-but-serving
/// tier is visible in `shards_ready` and the per-shard list.
fn health_payload(inner: &Arc<RouterInner>) -> Object {
    let snapshots: Vec<Option<Value>> = snapshot_shards(inner, Request::Health);
    let ready_count = snapshots
        .iter()
        .filter(|s| {
            s.as_ref()
                .and_then(|v| v.get("ready"))
                .and_then(Value::as_bool)
                .unwrap_or(false)
        })
        .count();
    // A warming shard can answer its own health probe ready while still
    // outside the active ring; the tier is only ready once everyone is
    // re-admitted — which is exactly what a restart-leg health poll
    // should wait for.
    let all_active = inner.pools.iter().all(ShardPool::is_routable);
    let draining = inner.shared.is_draining();
    let mut o = Object::new();
    o.put_str("schema", "doppio-serve-health/v1");
    o.put_bool(
        "ready",
        ready_count == inner.pools.len() && all_active && !draining && ready_count > 0,
    );
    o.put_bool("draining", draining);
    o.put_f64("uptime_secs", inner.started.elapsed().as_secs_f64());
    o.put_u64("shards", inner.pools.len() as u64);
    o.put_u64("shards_ready", ready_count as u64);
    o.put_u64(
        "restarts",
        inner
            .pools
            .iter()
            .map(|p| p.restarts.load(Ordering::Relaxed))
            .sum(),
    );
    let sum = |key: &str| -> u64 {
        snapshots
            .iter()
            .map(|s| {
                s.as_ref()
                    .and_then(|v| v.get(key))
                    .and_then(Value::as_u64)
                    .unwrap_or(0)
            })
            .sum()
    };
    o.put_u64("observations", sum("observations"));
    o.put_u64("corrector_version", sum("corrector_version"));
    o.put_obj_arr(
        "per_shard",
        inner
            .pools
            .iter()
            .zip(&snapshots)
            .enumerate()
            .map(|(i, (pool, snap))| {
                let mut so = Object::new();
                so.put_u64("shard", i as u64);
                so.put_str("addr", &pool.addr().to_string());
                so.put_bool(
                    "ready",
                    snap.as_ref()
                        .and_then(|v| v.get("ready"))
                        .and_then(Value::as_bool)
                        .unwrap_or(false),
                );
                so.put_str("admission", pool.admission().name());
                so.put_u64("restarts", pool.restarts.load(Ordering::Relaxed));
                so
            })
            .collect(),
    );
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_histogram_quantile_tracks_the_tail() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.95, 1), None);
        for _ in 0..95 {
            h.record(Duration::from_micros(100)); // bucket [64, 128)
        }
        for _ in 0..5 {
            h.record(Duration::from_millis(80)); // bucket [65536, 131072) µs
        }
        // p50 sits in the fast bucket; its reported edge is 128 µs.
        assert_eq!(h.quantile(0.5, 1), Some(Duration::from_micros(128)));
        // p99 lands in the slow bucket's edge.
        assert_eq!(h.quantile(0.99, 1), Some(Duration::from_micros(131_072)));
        // Below the sample floor the histogram declines to advise.
        assert_eq!(h.quantile(0.99, 1_000), None);
    }

    #[test]
    fn admission_names_are_stable() {
        assert_eq!(Admission::Active.name(), "active");
        assert_eq!(Admission::Down.name(), "down");
        assert_eq!(Admission::WarmUp { successes: 2 }.name(), "warm-up");
    }
}
