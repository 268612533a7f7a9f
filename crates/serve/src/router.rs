//! The shard router: the [`front`](crate::front) over [`RingForward`],
//! one front door over N serve processes.
//!
//! The router is itself a reactor server speaking the same
//! newline-delimited protocol as a shard, so clients cannot tell the
//! difference — same envelope in, bit-identical reply line out. The front
//! admits a work request exactly as a shard's does (drain check, cache
//! probe, singleflight join, bounded queue, dequeue deadline); what
//! `RingForward` adds per request:
//!
//! 1. **Key** — the request's own fingerprint, the key a shard uses for
//!    its cache and singleflight. Concurrent identical requests collapse
//!    into one upstream call; riders get the same payload with
//!    `"coalesced": true`, exactly as a single process would have
//!    answered them. A repeat is answered from the router's own cache on
//!    the reactor thread; see *Router cache*.
//! 2. **Place** — the flight creator's worker looks the key's successors
//!    up on the consistent-hash [`HashRing`]; riders never touch the
//!    ring. Every identical request lands on the same shard, so that
//!    shard's memo cache concentrates all the heat for its keys.
//! 3. **Forward** — walk the successor list. Each shard sits behind its
//!    own [`CircuitBreaker`]: an open breaker is skipped in microseconds,
//!    a transport failure trips failover to the next successor — which is
//!    precisely the shard that *would own the key* if the dead one left
//!    the ring. Semantic replies (`ok`, `eval_failed`,
//!    `deadline_exceeded`, …) never fail over: the shard is alive and
//!    retrying elsewhere would just duplicate work.
//! 4. **Splice** — the shard's reply carries the forwarding id; the front
//!    re-addresses it per waiter by splicing the *verbatim* `result`
//!    bytes ([`extract_result_payload`]) into a fresh reply line. No JSON
//!    re-rendering touches the payload, which is how
//!    `tests/serve_identity.rs` can demand bit-identity at every shard
//!    count.
//!
//! **Owner pinning**: learner-state requests (`observe`, corrected
//! `predict`) go direct, to their workload's owner shard alone: no
//! failover (another shard holds no — or different — corrector state), no
//! router cache and no coalescing (two identical observations are two
//! ingests).
//!
//! **Router cache**: the spliced payload of every `ok` forward is kept in
//! the front's bounded [`MemoCache`](doppio_engine::MemoCache) (capacity
//! [`RouterConfig::cache_capacity`], the same LRU type and fingerprint key
//! as a shard's cache). Error replies are never cached, so a transient
//! failure cannot poison a key, and nothing owner-pinned is: an `observe`
//! is an ingest, not a replayable result, and a corrected `predict`
//! depends on corrector state only its owner shard holds. Uncorrected
//! results are pure functions of their fingerprint, so a cached payload
//! can never go stale. This cache replaced hot-key fan-out (spreading a
//! hot key over several replica shards): once a repeat never leaves the
//! router, no shard is a hot key's ceiling, and the router hop it saves
//! was most of a cached request's latency.
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
//! hang the poll. An accepted `shutdown` fans out to every shard before
//! the router drains.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use doppio_engine::json::{Object, Value};
use doppio_engine::{Fingerprint, FingerprintBuilder, Fingerprintable};

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::client::{Client, ClientConfig, Reply};
use crate::front::{
    self, cache_stats, lock_recover, read, tick, Answer, Backend, Front, FrontConfig, Handle, Route,
};
use crate::protocol::{extract_result_payload, workload_name, ErrorCode, ErrorReply, Request};
use crate::ring::HashRing;
use crate::shard::ShardEvent;

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

/// The router's own monotonic counters (the `router` stats sub-object;
/// the front keeps the rest).
#[derive(Debug, Default)]
struct RouterCounters {
    /// Requests answered via a successful shard round-trip.
    forwarded: AtomicU64,
    /// Transport failures that moved a request to the next ring successor.
    failovers: AtomicU64,
    /// Requests for which every candidate shard was down or tripped.
    unroutable: AtomicU64,
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

/// The forwarding backend: the shard pools, the two rings and the
/// router's own counters.
pub(crate) struct RingForward {
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
    counters: RouterCounters,
}

/// A running router. Dropping the handle drains it (shards are *not*
/// shut down — only a remote `shutdown` request fans out).
#[derive(Debug)]
pub struct RouterHandle(Handle<RingForward>);

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
    let shard_timeout = Duration::from_millis(cfg.shard_timeout_ms.max(1));
    let ids: Vec<u32> = (0..cfg.shards.len() as u32).collect();
    let ring = HashRing::new(&ids, cfg.vnodes);
    let front_cfg = FrontConfig {
        addr: cfg.addr.clone(),
        workers: cfg.workers,
        queue_bound: cfg.queue_bound,
        cache_capacity: cfg.cache_capacity,
        default_deadline_ms: cfg.default_deadline_ms,
        allow_shutdown: cfg.allow_shutdown,
        max_line_bytes: cfg.max_line_bytes,
        read_timeout_ms: cfg.read_timeout_ms,
        write_timeout_ms: cfg.write_timeout_ms,
    };
    let backend = RingForward {
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
        counters: RouterCounters::default(),
        cfg,
    };
    front::start(front_cfg, backend).map(RouterHandle)
}

impl RouterHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// A handle for feeding shard lifecycle events into the router —
    /// hand its [`RouterController::on_shard_event`] to
    /// [`TierHandle::supervise`](crate::shard::TierHandle::supervise).
    pub fn controller(&self) -> RouterController {
        RouterController {
            front: Arc::clone(&self.0.front),
        }
    }

    /// Begins a graceful drain of the router (shards keep running).
    pub fn shutdown(&self) {
        self.0.shutdown();
    }

    /// Drains and waits for in-flight forwards to finish.
    pub fn join(self) {
        self.0.join();
    }

    /// Blocks until the router drains on its own (remote `shutdown`).
    pub fn wait(self) {
        self.0.wait();
    }
}

/// The supervisor-facing face of the router: translates shard lifecycle
/// events ([`ShardEvent`]) into admission changes and active-ring
/// membership flips. Cheap to clone; safe to call from the supervisor
/// thread while the router serves.
#[derive(Clone)]
pub struct RouterController {
    front: Arc<Front<RingForward>>,
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
        let fwd = &self.front.backend;
        let Some(pool) = fwd.pools.get(shard as usize) else {
            return;
        };
        pool.epoch.fetch_add(1, Ordering::Relaxed);
        // Admission and ring membership flip under the admission lock so
        // a concurrent warm-up completion cannot interleave between them
        // (lock order is admission → active_ring everywhere).
        let mut adm = lock_recover(&pool.admission);
        *adm = Admission::Down;
        let mut ring = lock_recover(&fwd.active_ring);
        *ring = ring.without(shard);
        drop(ring);
        drop(adm);
        pool.drop_idle();
    }

    fn begin_warmup(&self, shard: u32, addr: SocketAddr, restarts: u64) {
        let Some(pool) = self.front.backend.pools.get(shard as usize) else {
            return;
        };
        let epoch = pool.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        *lock_recover(&pool.addr) = addr;
        pool.restarts.store(restarts, Ordering::Relaxed);
        pool.drop_idle();
        // The old breaker remembers the crash; the new process deserves a
        // closed one.
        *lock_recover(&pool.breaker) = CircuitBreaker::new(self.front.backend.cfg.breaker);
        *lock_recover(&pool.admission) = Admission::WarmUp { successes: 0 };
        let front = Arc::clone(&self.front);
        std::thread::Builder::new()
            .name(format!("doppio-warmup-{shard}"))
            .spawn(move || warmup_probe_loop(&front, shard, epoch))
            .ok();
    }
}

/// Half-open re-admission: the restarted shard serves probe traffic only
/// until `warmup_successes` *consecutive* health probes report ready,
/// then rejoins the active ring. A probe failure resets the streak;
/// exhausting `warmup_budget_ms` parks the shard down until the
/// supervisor reports another restart.
fn warmup_probe_loop(front: &Front<RingForward>, shard: u32, epoch: u64) {
    let fwd = &front.backend;
    let pool = &fwd.pools[shard as usize];
    let need = fwd.cfg.warmup_successes.max(1);
    let deadline = Instant::now() + Duration::from_millis(fwd.cfg.warmup_budget_ms.max(1));
    let mut streak = 0u32;
    loop {
        if front.shared.is_draining() || pool.epoch.load(Ordering::Relaxed) != epoch {
            return;
        }
        if Instant::now() > deadline {
            let mut adm = lock_recover(&pool.admission);
            if pool.epoch.load(Ordering::Relaxed) == epoch {
                *adm = Admission::Down;
            }
            return;
        }
        let ready = fwd
            .probe(shard as usize, Request::Health)
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
                let mut ring = lock_recover(&fwd.active_ring);
                *ring = ring.with(shard);
                return;
            }
            *adm = Admission::WarmUp { successes: streak };
        }
        std::thread::sleep(Duration::from_millis(fwd.cfg.warmup_interval_ms.max(1)));
    }
}

/// Where a forward goes.
pub(crate) enum Placement {
    /// The workload's owner on the full ring, alone.
    Owner(Fingerprint),
    /// The key's live successors on the active ring, in failover order.
    Ring(Fingerprint),
}

impl Backend for RingForward {
    type Ctx = Placement;
    // A re-probe would count a second router-cache miss per forward.
    const RECHECK_CACHE: bool = false;
    const CONTROL_ON_POOL: bool = true;

    fn route(&self, request: &Request) -> Result<Route<Placement>, ErrorReply> {
        Ok(match learn_owner_fingerprint(request) {
            Some(owner) => Route::Direct(Placement::Owner(owner)),
            None => {
                let fp = request.fingerprint();
                Route::Flight(fp, Placement::Ring(fp))
            }
        })
    }

    fn answer(&self, request: &Request, deadline: Option<Instant>, place: Placement) -> Answer {
        let order = match place {
            // While the owner is down or warming up these requests fail
            // fast rather than fail over: the learner state they touch
            // lives on exactly that shard.
            Placement::Owner(key) => self.full_ring.successors(&key, 1),
            Placement::Ring(key) => {
                lock_recover(&self.active_ring).successors(&key, self.pools.len())
            }
        };
        match self.try_shards(request, deadline, &order) {
            // `extract_result_payload` cannot fail on a reply our own
            // shards rendered; the error covers a hand-rolled upstream.
            Some(reply) if reply.ok => extract_result_payload(&reply.raw)
                .map(|payload| (Arc::from(payload), reply.cached))
                .ok_or_else(|| {
                    ErrorReply::new(
                        ErrorCode::Internal,
                        "shard reply carried no extractable result",
                    )
                }),
            // Semantic failure from a live shard: relay it, never retry.
            Some(reply) => Err(ErrorReply {
                code: reply
                    .error_code
                    .as_deref()
                    .and_then(ErrorCode::parse)
                    .unwrap_or(ErrorCode::Internal),
                message: reply.error_message.unwrap_or_else(|| "shard error".into()),
                queue_depth: reply.queue_depth,
            }),
            None => {
                tick(&self.counters.unroutable);
                Err(ErrorReply::new(
                    ErrorCode::Overloaded,
                    "no shard available; retry later",
                ))
            }
        }
    }

    /// Tier stats: the single-process `doppio-serve-stats/v1` fields
    /// summed across reachable shards, plus the router's own counters and
    /// per-shard reachability under `router`.
    fn stats(&self, front: &Front<Self>) -> Object {
        let snapshots: Vec<Option<Value>> = self.snapshot_shards(Request::Stats);
        let sum = |key: &str| -> u64 { snapshots.iter().map(|s| u64_of(s.as_ref(), key)).sum() };
        let sum_cache = |key: &str| -> u64 {
            snapshots
                .iter()
                .map(|s| u64_of(s.as_ref().and_then(|v| v.get("cache")), key))
                .sum()
        };
        let c = &front.counters;
        let r = &self.counters;
        let mut o = Object::new();
        o.put_str("schema", "doppio-serve-stats/v1");
        o.put_u64("workers", sum("workers"));
        o.put_u64("queue_bound", sum("queue_bound"));
        o.put_u64("queue_depth", sum("queue_depth"));
        o.put_u64("in_flight", sum("in_flight"));
        o.put_u64("connections", read(&c.connections));
        o.put_u64("admitted", sum("admitted"));
        o.put_u64("completed", sum("completed"));
        o.put_u64("shed", sum("shed") + read(&c.shed) + read(&r.unroutable));
        o.put_u64("coalesced", sum("coalesced") + read(&c.coalesced));
        o.put_u64(
            "deadline_exceeded",
            sum("deadline_exceeded") + read(&c.deadline_exceeded),
        );
        o.put_u64("bad_requests", sum("bad_requests") + read(&c.bad_requests));
        o.put_u64("panics", sum("panics"));
        o.put_u64("reaped", sum("reaped") + read(&c.reaped));
        o.put_u64("observations", sum("observations"));
        o.put_u64("corrector_version", sum("corrector_version"));
        let mut cache = Object::new();
        cache.put_u64("hits", sum_cache("hits"));
        cache.put_u64("misses", sum_cache("misses"));
        cache.put_u64("evictions", sum_cache("evictions"));
        cache.put_u64("len", sum_cache("len"));
        cache.put_u64("capacity", sum_cache("capacity"));
        o.put_obj("cache", cache);
        o.put_bool("draining", front.shared.is_draining());

        let mut router = Object::new();
        router.put_u64("shards", self.pools.len() as u64);
        router.put_u64(
            "shards_ok",
            snapshots.iter().filter(|s| s.is_some()).count() as u64,
        );
        router.put_u64("forwarded", read(&r.forwarded));
        router.put_u64("failovers", read(&r.failovers));
        router.put_u64("unroutable", read(&r.unroutable));
        router.put_u64("shed", read(&c.shed));
        router.put_u64("coalesced", read(&c.coalesced));
        router.put_obj("cache", cache_stats(&front.cache));
        router.put_u64("hedged", read(&r.hedged));
        router.put_u64("hedge_wins", read(&r.hedge_wins));
        router.put_u64("restarts", self.restarts());
        router.put_u64(
            "active_shards",
            self.pools.iter().filter(|p| p.is_routable()).count() as u64,
        );
        let (mut opened, mut fast_failures) = (0, 0);
        router.put_obj_arr(
            "per_shard",
            self.pools
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
                    so.put_u64("restarts", read(&pool.restarts));
                    so.put_u64("hedged", read(&pool.hedged));
                    so.put_u64("hedge_wins", read(&pool.hedge_wins));
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
    fn health(&self, front: &Front<Self>) -> Object {
        let snapshots: Vec<Option<Value>> = self.snapshot_shards(Request::Health);
        let ready = |snap: &Option<Value>| {
            snap.as_ref()
                .and_then(|v| v.get("ready"))
                .and_then(Value::as_bool)
                .unwrap_or(false)
        };
        let ready_count = snapshots.iter().filter(|s| ready(s)).count();
        // A warming shard can answer its own health probe ready while
        // still outside the active ring; the tier is only ready once
        // everyone is re-admitted — which is exactly what a restart-leg
        // health poll should wait for.
        let all_active = self.pools.iter().all(ShardPool::is_routable);
        let draining = front.shared.is_draining();
        let sum = |key: &str| -> u64 { snapshots.iter().map(|s| u64_of(s.as_ref(), key)).sum() };
        let mut o = Object::new();
        o.put_str("schema", "doppio-serve-health/v1");
        o.put_bool(
            "ready",
            ready_count == self.pools.len() && all_active && !draining && ready_count > 0,
        );
        o.put_bool("draining", draining);
        o.put_f64("uptime_secs", front.started.elapsed().as_secs_f64());
        o.put_u64("shards", self.pools.len() as u64);
        o.put_u64("shards_ready", ready_count as u64);
        o.put_u64("restarts", self.restarts());
        o.put_u64("observations", sum("observations"));
        o.put_u64("corrector_version", sum("corrector_version"));
        o.put_obj_arr(
            "per_shard",
            self.pools
                .iter()
                .zip(&snapshots)
                .enumerate()
                .map(|(i, (pool, snap))| {
                    let mut so = Object::new();
                    so.put_u64("shard", i as u64);
                    so.put_str("addr", &pool.addr().to_string());
                    so.put_bool("ready", ready(snap));
                    so.put_str("admission", pool.admission().name());
                    so.put_u64("restarts", read(&pool.restarts));
                    so
                })
                .collect(),
        );
        o
    }

    fn shutdown_ack(&self, ack: &mut Object) {
        ack.put_u64("shards", self.pools.len() as u64);
    }

    /// Fans the shutdown out to every shard *before* draining the router's
    /// own pool, on a detached thread (blocking I/O).
    fn shutdown(front: &Arc<Front<Self>>) {
        let front = Arc::clone(front);
        std::thread::spawn(move || {
            let fwd = &front.backend;
            for pool in &fwd.pools {
                if let Ok(mut c) = Client::connect_with(pool.addr(), &fwd.shard_client_cfg) {
                    let _ = c.call(Request::Shutdown, Some(5_000));
                }
            }
            front.begin_drain();
        });
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

/// What remains of `deadline` in whole milliseconds, for the forwarded
/// envelope. Recomputed per attempt, so a slow first shard cannot spend
/// a rider's whole budget twice.
fn remaining_ms(deadline: Option<Instant>) -> Option<u64> {
    deadline.map(|d| {
        let left = d.saturating_duration_since(Instant::now()).as_millis() as u64;
        // Out of time mid-walk: forward a token 1 ms; the shard's own
        // dequeue check replies deadline_exceeded.
        left.max(1)
    })
}

impl RingForward {
    /// Walks `order`, returning the first shard round-trip that completed at
    /// the transport level (its reply may still be a semantic error). `None`
    /// when every candidate was down, tripped, unreachable, or timed out.
    /// The first attempt of a hedgeable request runs as a hedge race when
    /// the primary's latency history justifies one.
    fn try_shards(
        &self,
        request: &Request,
        deadline: Option<Instant>,
        order: &[u32],
    ) -> Option<Reply> {
        let hedge = self.hedge_delay(request, order);
        for (attempt, &shard) in order.iter().enumerate() {
            let pool = &self.pools[shard as usize];
            // Admission gate. The active ring already excludes down shards
            // for general traffic; this also covers owner-pinned orders
            // (full ring) and forwards racing a membership flip.
            if !pool.is_routable() {
                continue;
            }
            if !lock_recover(&pool.breaker).try_acquire(Instant::now()) {
                continue;
            }
            let mut client = match pool.checkout(&self.shard_client_cfg) {
                Ok(c) => c,
                Err(_) => {
                    lock_recover(&pool.breaker).record_failure(Instant::now());
                    tick(&self.counters.failovers);
                    continue;
                }
            };
            if attempt == 0 {
                if let Some(delay) = hedge {
                    match self.hedged_call(shard, client, request, deadline, delay, order) {
                        Some(reply) => {
                            tick(&self.counters.forwarded);
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
                    tick(&self.counters.forwarded);
                    if attempt > 0 {
                        tick(&self.counters.failovers);
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
    fn hedge_delay(&self, request: &Request, order: &[u32]) -> Option<Duration> {
        if !self.cfg.hedging || order.len() < 2 || !request.is_hedgeable() {
            return None;
        }
        let pool = self.pools.get(*order.first()? as usize)?;
        let q = pool
            .latency
            .quantile(self.cfg.hedge_quantile, self.cfg.hedge_min_samples)?;
        Some(q.max(Duration::from_millis(self.cfg.hedge_floor_ms.max(1))))
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
        &self,
        primary_shard: u32,
        mut primary: Client,
        request: &Request,
        deadline: Option<Instant>,
        delay: Duration,
        order: &[u32],
    ) -> Option<Reply> {
        let shard_timeout = self
            .shard_client_cfg
            .read_timeout
            .unwrap_or(Duration::from_secs(10));
        let started = Instant::now();
        let hard_stop = match deadline {
            Some(d) => d.min(started + shard_timeout),
            None => started + shard_timeout,
        };
        let ppool = &self.pools[primary_shard as usize];
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
                finish_winner(ppool, primary, &self.shard_client_cfg);
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
            let p = &self.pools[s as usize];
            p.is_routable() && lock_recover(&p.breaker).try_acquire(Instant::now())
        });
        if let Some(hs) = target {
            let hpool = &self.pools[hs as usize];
            match hpool.checkout(&self.shard_client_cfg) {
                Err(_) => {
                    lock_recover(&hpool.breaker).record_failure(Instant::now());
                }
                Ok(mut hc) => {
                    let hstart = Instant::now();
                    match hc.send_request(request.clone(), remaining_ms(deadline)) {
                        Ok(hid) => {
                            tick(&hpool.hedged);
                            tick(&self.counters.hedged);
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
                        finish_winner(ppool, primary, &self.shard_client_cfg);
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
                let hpool = &self.pools[hs as usize];
                let slice_end = (Instant::now() + SLICE).min(hard_stop);
                match poll_leg(&mut hc, &hid, slice_end) {
                    LegPoll::Got(reply) => {
                        hpool.latency.record(hstart.elapsed());
                        tick(&hpool.hedge_wins);
                        tick(&self.counters.hedge_wins);
                        finish_winner(hpool, hc, &self.shard_client_cfg);
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

    /// Probes every shard for a control command, skipping — not probing —
    /// shards currently marked down, so a tier poll stays bounded while a
    /// shard is mid-restart.
    fn snapshot_shards(&self, request: Request) -> Vec<Option<Value>> {
        (0..self.pools.len())
            .map(|i| {
                if matches!(self.pools[i].admission(), Admission::Down) {
                    None
                } else {
                    self.probe(i, request.clone())
                }
            })
            .collect()
    }

    /// Fetches one shard's `stats`/`health` result over a fresh short-timeout
    /// connection. Deliberately bypasses the breaker: observability should
    /// report a sick shard, not mask it.
    fn probe(&self, shard: usize, request: Request) -> Option<Value> {
        let cfg = ClientConfig {
            connect_timeout: Some(Duration::from_millis(1_000)),
            read_timeout: Some(Duration::from_millis(2_000)),
            write_timeout: Some(Duration::from_millis(2_000)),
        };
        let mut c = Client::connect_with(self.pools[shard].addr(), &cfg).ok()?;
        let reply = c.call(request, Some(2_000)).ok()?;
        if reply.ok {
            reply.result
        } else {
            None
        }
    }

    /// Supervisor restarts summed across shards.
    fn restarts(&self) -> u64 {
        self.pools.iter().map(|p| read(&p.restarts)).sum()
    }
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

fn u64_of(v: Option<&Value>, key: &str) -> u64 {
    v.and_then(|v| v.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
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
