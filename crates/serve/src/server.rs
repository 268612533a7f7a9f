//! The serving loop: accept, admit, deduplicate, evaluate, reply.
//!
//! # Threading model
//!
//! One **reactor thread** ([`crate::reactor`]) owns the listener and every
//! client socket through nonblocking I/O behind `epoll`: it frames request
//! lines, runs the admission decision inline (cache lookup, singleflight
//! join, queue submit — all non-blocking), and flushes replies. Heavy
//! evaluation happens on the fixed [`TaskPool`] **workers** behind a
//! bounded FIFO queue; a worker completing a flight posts the reply to
//! *every* waiter through its [`ReplyHandle`], which wakes the reactor to
//! deliver. Connections therefore cost a file descriptor and a slab
//! entry, not a thread — the property `tests/serve_reactor.rs` pins at
//! ten thousand concurrent sockets.
//!
//! # Admission, in order
//!
//! 1. **Cache hit** — reply immediately (`"cached": true`), bypassing the
//!    queue entirely. This is the served hot path, and it runs on the
//!    reactor thread itself: a hit costs a hash lookup and a buffer copy.
//! 2. **Singleflight join** — an identical request is already being
//!    evaluated; park a reply ticket on the flight (`"coalesced": true`
//!    when it lands) and consume no worker.
//! 3. **Queue submit** — first arrival creates the flight and tries to
//!    enqueue. A full queue *sheds*: the request is answered right away
//!    with an `overloaded` error carrying the observed queue depth, never
//!    buffered and never blocked on.
//!
//! Deadlines are honored at two points: a job whose deadline passed while
//! queued is answered `deadline_exceeded` without being evaluated, and a
//! waiter whose own deadline passed while the flight ran gets
//! `deadline_exceeded` instead of the (still cached) result.
//!
//! # Determinism
//!
//! Workers evaluate with [`Engine::serial`] and build inputs exactly as
//! the CLI and [`Scenario::run`] do, so a served `simulate` payload is
//! bit-identical (every `f64` bit pattern) to serializing an in-process
//! `ScenarioSet::run_all` result — the property `tests/serve_identity.rs`
//! locks down.
//!
//! [`Scenario::run`]: ../../doppio/scenario/struct.Scenario.html

use std::collections::HashMap;
use std::net::SocketAddr;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use doppio_cloud::optimize::{grid_search_with, r1_reference, r2_reference, SearchSpace};
use doppio_cloud::{CostBreakdown, CostEvaluator, DiskChoice, EvaluateCost, MemoizedEvaluator};
use doppio_cluster::{presets, ClusterSpec, HybridConfig};
use doppio_engine::json::Object;
use doppio_engine::{
    Engine, Fingerprint, FingerprintBuilder, Fingerprintable, MemoCache, SubmitError, TaskPool,
};
use doppio_learn::{Corrector, Learner, RunObservation, Snapshot};
use doppio_model::whatif::failure_inflation;
use doppio_model::{AppModel, Calibrator, PredictEnv, SimPlatform};
use doppio_sparksim::{FaultPlan, Simulation, SparkConf};
use doppio_workloads::Workload;

use crate::protocol::{
    config_name, error_reply_line, ok_reply_line, parse_workload, workload_name, Envelope,
    ErrorCode, ErrorReply, PredictSpec, Request, SimulateSpec,
};
use crate::reactor::{self, ConnFault, ConnHandler, ReactorConfig, ReactorShared, ReplyHandle};
use crate::singleflight::Singleflight;
use crate::sys;

/// Locks a mutex, recovering from poisoning. Every mutex in the server
/// guards plain data whose invariants hold between statements, and
/// evaluation panics are already isolated and reported — abandoning the
/// lock would only turn one reported panic into a cascade of failed
/// requests.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Server configuration knobs (all have serving-sized defaults).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks an ephemeral port (read it back from
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Evaluation worker threads.
    pub workers: usize,
    /// Bound on queued (admitted but not yet running) jobs; submissions
    /// beyond it are shed with `overloaded`.
    pub queue_bound: usize,
    /// Result cache capacity in entries (0 = unbounded).
    pub cache_capacity: usize,
    /// Deadline applied to requests that do not carry their own
    /// `deadline_ms` (`None` = no default deadline).
    pub default_deadline_ms: Option<u64>,
    /// Whether a remote `shutdown` request may drain the server.
    pub allow_shutdown: bool,
    /// Maximum accepted request-line length in bytes; enforced while
    /// reading, so an abusive client cannot make the server buffer more
    /// than this (plus one read chunk) per connection.
    pub max_line_bytes: usize,
    /// Per-connection read timeout in milliseconds (0 = none). Doubles as
    /// the idle-connection reaper interval *and* the per-line completion
    /// deadline: a socket that sends nothing is reaped quietly, and a
    /// slow-loris that drips a request line forever is cut off with a
    /// `bad_request`.
    pub read_timeout_ms: u64,
    /// Per-connection write timeout in milliseconds (0 = none); bounds
    /// how long queued reply bytes may stay undeliverable to a client
    /// that stopped reading before the connection is dropped.
    pub write_timeout_ms: u64,
    /// Chaos hook for tests: a `simulate` request whose seed equals this
    /// value panics inside the worker instead of evaluating, exercising
    /// the `catch_unwind` isolation path end to end.
    pub panic_seed: Option<u64>,
    /// Directory for durable learner snapshots (`None` = learner state
    /// dies with the process). When set, every ingest persists its
    /// workload's `doppio-learn-snapshot/v1` file (write-to-temp +
    /// rename) before the ack, drain flushes all learners, and startup
    /// restores whatever the directory holds — so a supervised shard
    /// that re-execs with the same arguments resumes its correctors
    /// bit-identically.
    pub snapshot_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_bound: 64,
            cache_capacity: 4096,
            default_deadline_ms: None,
            allow_shutdown: false,
            max_line_bytes: 4 * 1024 * 1024,
            read_timeout_ms: 30_000,
            write_timeout_ms: 10_000,
            panic_seed: None,
            snapshot_dir: None,
        }
    }
}

/// Monotonic serving counters, all exposed by the `stats` command.
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    coalesced: AtomicU64,
    deadline_exceeded: AtomicU64,
    bad_requests: AtomicU64,
    /// Evaluations that panicked and were isolated by `catch_unwind`.
    panics: AtomicU64,
    /// Connections closed by the idle/slow-loris reaper rather than by
    /// the client.
    reaped: AtomicU64,
    /// Observed runs ingested into per-workload recalibration windows.
    observations: AtomicU64,
}

/// A reply ticket parked on a singleflight evaluation. The flight's
/// waiter list is creation-ordered, so the creator is always first and
/// every later ticket is a coalesced rider.
#[derive(Debug)]
struct Waiter {
    id: String,
    writer: ReplyHandle,
    deadline: Option<Instant>,
}

struct Inner {
    cfg: ServeConfig,
    // `Option` so drain can take ownership (TaskPool::drain consumes).
    pool: Mutex<Option<TaskPool>>,
    cache: MemoCache<Fingerprint, Arc<str>>,
    flights: Singleflight<Waiter>,
    counters: Counters,
    /// Per-workload online recalibration state, keyed
    /// `"{workload}|{paper}"`. The outer lock only guards map shape (fast
    /// lookups/inserts); ingesting and snapshotting go through each
    /// learner's own mutex, so a slow calibration never blocks admission.
    learners: Mutex<HashMap<String, Arc<Mutex<Learner>>>>,
    /// Reactor mailbox/waker plus the drain flags (single source of
    /// truth for "draining").
    shared: Arc<ReactorShared>,
    /// When the server started, for `health.uptime_secs`.
    started: Instant,
}

/// A running server. Dropping the handle shuts the server down.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    reactor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("cfg", &self.cfg)
            .field("draining", &self.shared.is_draining())
            .finish_non_exhaustive()
    }
}

/// The reactor-facing face of the server: protocol dispatch for one line,
/// fault accounting, nothing else.
struct Core {
    inner: Arc<Inner>,
}

impl ConnHandler for Core {
    fn on_open(&self) {
        self.inner
            .counters
            .connections
            .fetch_add(1, Ordering::Relaxed);
    }

    fn on_line(&self, reply: &ReplyHandle, line: &str) {
        match Envelope::decode(line) {
            Err(e) => {
                // Malformed framing costs one structured reply; the
                // connection survives (the line was well-delimited).
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
            // Pure silence gets none back: reap quietly.
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

/// The rendered-payload cache a shard and the router both answer hits
/// from, keyed by request fingerprint: `capacity` entries, 0 = unbounded.
pub(crate) fn reply_cache(capacity: usize) -> MemoCache<Fingerprint, Arc<str>> {
    if capacity == 0 {
        MemoCache::unbounded()
    } else {
        MemoCache::with_capacity(capacity)
    }
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

/// Starts a server per `cfg` and returns its handle.
///
/// # Errors
///
/// Fails when the listen address cannot be bound or the reactor's kernel
/// resources (epoll, eventfd) cannot be created.
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = sys::bind_listener(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let cache = reply_cache(cfg.cache_capacity);
    let shared = ReactorShared::new()?;
    let rcfg = ReactorConfig {
        max_line_bytes: cfg.max_line_bytes,
        read_timeout: (cfg.read_timeout_ms > 0).then(|| Duration::from_millis(cfg.read_timeout_ms)),
        write_timeout: (cfg.write_timeout_ms > 0)
            .then(|| Duration::from_millis(cfg.write_timeout_ms)),
    };
    // Restore durable learner state *before* the listener starts taking
    // requests: a corrected predict racing the restore would otherwise
    // serve an identity-corrector answer from a server that is about to
    // know better.
    let learners = match cfg.snapshot_dir.as_deref() {
        None => HashMap::new(),
        Some(dir) => {
            std::fs::create_dir_all(dir)?;
            restore_learners(dir)
        }
    };
    let inner = Arc::new(Inner {
        pool: Mutex::new(Some(TaskPool::new(cfg.workers, cfg.queue_bound))),
        cache,
        flights: Singleflight::new(),
        counters: Counters::default(),
        learners: Mutex::new(learners),
        shared: Arc::clone(&shared),
        started: Instant::now(),
        cfg,
    });
    let core = Arc::new(Core {
        inner: Arc::clone(&inner),
    });
    let reactor = reactor::spawn(listener, rcfg, shared, core)?;
    Ok(ServerHandle {
        addr,
        inner,
        reactor: Some(reactor),
    })
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins a graceful drain: no new connections or work; queued jobs
    /// finish and their replies are delivered. Returns immediately; use
    /// [`join`](Self::join) to wait for completion.
    pub fn shutdown(&self) {
        begin_drain(&self.inner);
    }

    /// Drains and waits until every queued job has completed.
    pub fn join(mut self) {
        self.shutdown();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }

    /// Blocks until the server drains on its own — i.e. until a remote
    /// `shutdown` request (requires `allow_shutdown`) completes. This is
    /// what `doppio serve` parks on.
    pub fn wait(mut self) {
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

/// Flags the drain (stopping the reactor's accept path via its shared
/// state) and finishes every admitted job on a detached drainer thread —
/// replies are delivered through the handles parked on their flights —
/// before letting the reactor flush and exit.
fn begin_drain(inner: &Arc<Inner>) {
    if inner.shared.begin_drain() {
        let drain_inner = Arc::clone(inner);
        std::thread::spawn(move || {
            let pool = lock_recover(&drain_inner.pool).take();
            if let Some(pool) = pool {
                pool.drain();
            }
            // Flush every learner after the last queued ingest has run,
            // so the snapshots on disk include the whole drained window.
            if let Some(dir) = drain_inner.cfg.snapshot_dir.as_deref() {
                flush_learners(&drain_inner, dir);
            }
            drain_inner.shared.finish_drain();
        });
    }
}

// ---------------------------------------------------------------------------
// Durable learner state (the self-healing tier's persistence half).
// ---------------------------------------------------------------------------

/// Where a workload's snapshot lives: one file per learner key, named so
/// `wordcount|true` and `wordcount|false` never collide.
fn snapshot_path(dir: &Path, workload: &str, paper: bool) -> PathBuf {
    let scale = if paper { "paper" } else { "scaled" };
    dir.join(format!("{workload}-{scale}.snapshot.ndjson"))
}

/// Persists one learner snapshot via write-to-temp + rename, so a crash
/// mid-write leaves the previous complete snapshot in place, never a
/// torn file. Best-effort: an unwritable disk costs durability, not
/// serving.
fn write_snapshot(dir: &Path, snap: &Snapshot) {
    let path = snapshot_path(dir, &snap.workload, snap.paper);
    let tmp = path.with_extension("ndjson.tmp");
    let outcome =
        std::fs::write(&tmp, snap.to_ndjson()).and_then(|()| std::fs::rename(&tmp, &path));
    if let Err(e) = outcome {
        eprintln!(
            "doppio-serve: could not persist learner snapshot {}: {e}",
            path.display()
        );
    }
}

/// Captures and persists every live learner (drain path).
fn flush_learners(inner: &Arc<Inner>, dir: &Path) {
    let slots: Vec<(String, Arc<Mutex<Learner>>)> = lock_recover(&inner.learners)
        .iter()
        .map(|(k, v)| (k.clone(), Arc::clone(v)))
        .collect();
    for (key, slot) in slots {
        let Some((workload, paper)) = key.rsplit_once('|') else {
            continue;
        };
        let snap = {
            let learner = lock_recover(&slot);
            Snapshot::capture(&learner, workload, paper == "true")
        };
        write_snapshot(dir, &snap);
    }
}

/// Rebuilds the learner registry from whatever snapshots `dir` holds.
/// Each snapshot is restored against a freshly calibrated base model —
/// the same deterministic recipe the ingest path uses — and its corrector
/// fingerprint is verified in [`Snapshot::restore`]; files that fail to
/// parse, name unknown workloads, or verify against a different model
/// are skipped with a note on stderr rather than wedging startup.
fn restore_learners(dir: &Path) -> HashMap<String, Arc<Mutex<Learner>>> {
    let mut out = HashMap::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if !path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(".snapshot.ndjson"))
        {
            continue;
        }
        let skip = |why: String| {
            eprintln!(
                "doppio-serve: skipping learner snapshot {}: {why}",
                path.display()
            );
        };
        let Ok(text) = std::fs::read_to_string(&path) else {
            skip("unreadable".into());
            continue;
        };
        let snap = match Snapshot::parse(&text) {
            Ok(s) => s,
            Err(e) => {
                skip(e.to_string());
                continue;
            }
        };
        let Some(workload) = parse_workload(&snap.workload) else {
            skip(format!("unknown workload '{}'", snap.workload));
            continue;
        };
        let model = match calibrate_base_model(workload, snap.paper) {
            Ok(m) => m,
            Err(e) => {
                skip(e.message);
                continue;
            }
        };
        match snap.restore(model) {
            Ok(learner) => {
                out.insert(
                    learner_key(&snap.workload, snap.paper),
                    Arc::new(Mutex::new(learner)),
                );
            }
            Err(e) => skip(e.to_string()),
        }
    }
    out
}

fn handle_request(inner: &Arc<Inner>, writer: &ReplyHandle, env: Envelope) {
    let Envelope {
        id,
        deadline_ms,
        request,
    } = env;
    match request {
        Request::Stats => {
            let payload = stats_payload(inner).render_line();
            writer.send_line(&ok_reply_line(&id, false, false, &payload));
        }
        Request::Health => {
            let payload = health_payload(inner).render_line();
            writer.send_line(&ok_reply_line(&id, false, false, &payload));
        }
        Request::Shutdown => {
            if !inner.cfg.allow_shutdown {
                writer.send_line(&error_reply_line(
                    &id,
                    &ErrorReply::new(
                        ErrorCode::ShutdownDisabled,
                        "server started without --allow-shutdown",
                    ),
                ));
                return;
            }
            let mut o = Object::new();
            o.put_str("schema", "doppio-serve-shutdown/v1");
            o.put_bool("draining", true);
            let payload = o.render_line();
            writer.send_line(&ok_reply_line(&id, false, false, &payload));
            begin_drain(inner);
        }
        // Stateful: every observation is an ingest, so the cache and
        // singleflight layers must not see it.
        Request::Observe(obs) => admit_observe(inner, writer, id, deadline_ms, obs),
        work => admit_work(inner, writer, id, deadline_ms, work),
    }
}

/// The per-workload learner registry key. `paper` is part of the key
/// because the paper-scale and scaled-down apps calibrate to different
/// models — their observations must never mix.
fn learner_key(workload: &str, paper: bool) -> String {
    format!("{workload}|{paper}")
}

/// The current corrector snapshot for a workload — identity until that
/// workload's first observation arrives. Cheap enough for the reactor
/// thread: two short lock holds and a small clone.
fn corrector_snapshot(inner: &Inner, workload: &str, paper: bool) -> Corrector {
    let slot = lock_recover(&inner.learners)
        .get(&learner_key(workload, paper))
        .cloned();
    match slot {
        Some(learner) => lock_recover(&learner).corrector().clone(),
        None => Corrector::identity(),
    }
}

/// The admission key for a request, plus the corrector snapshot a
/// corrected predict must be evaluated with.
///
/// For a corrected predict the key folds the corrector fingerprint in
/// *and* the same snapshot rides into the evaluation closure — key and
/// result are captured atomically at admission, so an observation landing
/// mid-flight can never pair a new corrector's result with an old
/// corrector's cache key (or vice versa). Every other request keys on its
/// own fingerprint alone, leaving pre-existing cache entries untouched.
fn admission_key(inner: &Inner, request: &Request) -> (Fingerprint, Option<Corrector>) {
    match request {
        Request::Predict(p) if p.corrected => {
            let corrector = corrector_snapshot(inner, workload_name(p.workload), p.paper);
            let mut fp = FingerprintBuilder::new();
            request.fingerprint_into(&mut fp);
            fp.write_fingerprint(corrector.fingerprint());
            (fp.finish(), Some(corrector))
        }
        _ => (request.fingerprint(), None),
    }
}

fn admit_observe(
    inner: &Arc<Inner>,
    writer: &ReplyHandle,
    id: String,
    deadline_ms: Option<u64>,
    obs: RunObservation,
) {
    let deadline = deadline_ms
        .or(inner.cfg.default_deadline_ms)
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    if inner.shared.is_draining() {
        writer.send_line(&error_reply_line(
            &id,
            &ErrorReply::new(ErrorCode::ShuttingDown, "server is draining"),
        ));
        return;
    }
    let job_inner = Arc::clone(inner);
    let job_writer = writer.clone();
    let job_id = id.clone();
    let submitted = {
        let guard = lock_recover(&inner.pool);
        match guard.as_ref() {
            None => Err(SubmitError::Closed),
            Some(pool) => pool
                .try_submit(move || run_observe(&job_inner, &job_writer, &job_id, deadline, &obs)),
        }
    };
    match submitted {
        Ok(()) => {
            inner.counters.admitted.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => {
            let err = match e {
                SubmitError::Full { depth } => {
                    inner.counters.shed.fetch_add(1, Ordering::Relaxed);
                    ErrorReply {
                        code: ErrorCode::Overloaded,
                        message: "admission queue full; retry later".into(),
                        queue_depth: Some(depth as u64),
                    }
                }
                SubmitError::Closed => {
                    ErrorReply::new(ErrorCode::ShuttingDown, "server is draining")
                }
            };
            writer.send_line(&error_reply_line(&id, &err));
        }
    }
}

/// Worker-side ingest of one observation. Exactly one reply, whichever
/// branch runs; results are never cached (an ingest is not replayable
/// from a cache entry).
fn run_observe(
    inner: &Arc<Inner>,
    writer: &ReplyHandle,
    id: &str,
    deadline: Option<Instant>,
    obs: &RunObservation,
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
                "deadline passed while the observation was queued",
            ),
        ));
        return;
    }
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| ingest_observation(inner, obs)))
        .unwrap_or_else(|payload| {
            inner.counters.panics.fetch_add(1, Ordering::Relaxed);
            Err(ErrorReply::new(
                ErrorCode::Internal,
                format!("ingest panicked: {}", panic_message(payload.as_ref())),
            ))
        });
    match outcome {
        Ok(payload) => {
            inner.counters.completed.fetch_add(1, Ordering::Relaxed);
            writer.send_line(&ok_reply_line(id, false, false, &payload));
        }
        Err(err) => writer.send_line(&error_reply_line(id, &err)),
    }
}

/// Ingests one observation into its workload's learner, creating (and
/// calibrating) the learner on first contact. Calibration runs *outside*
/// both locks; racing first observations may calibrate twice, but the
/// recipe is deterministic (serial engine, fixed profiling cluster), so
/// whichever insert wins carries the identical model.
fn ingest_observation(inner: &Arc<Inner>, obs: &RunObservation) -> Result<String, ErrorReply> {
    let workload = parse_workload(&obs.workload).ok_or_else(|| {
        ErrorReply::new(
            ErrorCode::EvalFailed,
            format!("observation names unknown workload '{}'", obs.workload),
        )
    })?;
    let key = learner_key(&obs.workload, obs.paper);
    let slot = lock_recover(&inner.learners).get(&key).cloned();
    let slot = match slot {
        Some(s) => s,
        None => {
            let model = calibrate_base_model(workload, obs.paper)?;
            let mut map = lock_recover(&inner.learners);
            Arc::clone(
                map.entry(key)
                    .or_insert_with(|| Arc::new(Mutex::new(Learner::new(model)))),
            )
        }
    };
    let (version, observations, window, snap) = {
        let mut learner = lock_recover(&slot);
        let version = learner.ingest(obs.clone());
        // Capture under the learner lock (cheap: clones the bounded
        // window) so the persisted state is exactly the adopted one.
        let snap = inner
            .cfg
            .snapshot_dir
            .is_some()
            .then(|| Snapshot::capture(&learner, &obs.workload, obs.paper));
        (version, learner.observations(), learner.window_len(), snap)
    };
    // Persist before the ack: once the client hears "ingested", the
    // observation must survive a SIGKILL.
    if let (Some(dir), Some(snap)) = (inner.cfg.snapshot_dir.as_deref(), snap) {
        write_snapshot(dir, &snap);
    }
    inner.counters.observations.fetch_add(1, Ordering::Relaxed);
    let mut o = Object::new();
    o.put_str("schema", "doppio-observe-ack/v1");
    o.put_str("workload", &obs.workload);
    o.put_u64("observations", observations);
    o.put_u64("corrector_version", version);
    o.put_u64("window", window as u64);
    Ok(o.render_line())
}

/// Calibrates the analytical model a workload's learner corrects — the
/// exact `eval_predict` recipe (serial engine, 3-node profiling cluster,
/// paper node preset), so a corrected predict's base model and the model
/// the corrector was fitted against are bit-identical.
fn calibrate_base_model(workload: Workload, paper: bool) -> Result<AppModel, ErrorReply> {
    let app = if paper {
        workload.paper_app()
    } else {
        workload.scaled_app()
    };
    let engine = Engine::serial();
    let platform = SimPlatform::new(
        app.clone(),
        presets::paper_node(36, HybridConfig::SsdSsd),
        3,
        SparkConf::paper(),
    );
    let report = Calibrator::default()
        .calibrate_with(&platform, app.name(), &engine)
        .map_err(eval_err)?;
    Ok(report.model)
}

fn admit_work(
    inner: &Arc<Inner>,
    writer: &ReplyHandle,
    id: String,
    deadline_ms: Option<u64>,
    request: Request,
) {
    let deadline = deadline_ms
        .or(inner.cfg.default_deadline_ms)
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let (fp, corrector) = admission_key(inner, &request);

    // 1. Cache hit: answer inline, no queueing, no worker.
    if let Some(payload) = inner.cache.get(&fp) {
        writer.send_line(&ok_reply_line(&id, true, false, &payload));
        return;
    }

    if inner.shared.is_draining() {
        writer.send_line(&error_reply_line(
            &id,
            &ErrorReply::new(ErrorCode::ShuttingDown, "server is draining"),
        ));
        return;
    }

    // 2./3. Singleflight: first arrival creates the flight and enqueues;
    // later identical requests ride along as extra waiters.
    let waiter = Waiter {
        id: id.clone(),
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
            Some(pool) => pool.try_submit(move || {
                run_flight(&job_inner, fp, &request, deadline, corrector.as_ref())
            }),
        }
    };
    match submitted {
        Ok(()) => {
            inner.counters.admitted.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => {
            // Shed: tear the flight down and answer everyone parked on it
            // (normally just us — joiners between `join` and here ride the
            // same rejection) with a structured reply, never silence.
            let err = match e {
                SubmitError::Full { depth } => {
                    inner.counters.shed.fetch_add(1, Ordering::Relaxed);
                    ErrorReply {
                        code: ErrorCode::Overloaded,
                        message: "admission queue full; retry later".into(),
                        queue_depth: Some(depth as u64),
                    }
                }
                SubmitError::Closed => {
                    ErrorReply::new(ErrorCode::ShuttingDown, "server is draining")
                }
            };
            for w in inner.flights.complete(&fp) {
                w.writer.send_line(&error_reply_line(&w.id, &err));
            }
        }
    }
}

/// Worker-side evaluation of one flight. Exactly one reply per waiter,
/// whichever branch runs.
fn run_flight(
    inner: &Arc<Inner>,
    fp: Fingerprint,
    request: &Request,
    creator_deadline: Option<Instant>,
    corrector: Option<&Corrector>,
) {
    // Re-check the cache first — a prior flight for this fingerprint may
    // have completed between our cache miss and this job running.
    if let Some(payload) = inner.cache.get(&fp) {
        let waiters = inner.flights.complete(&fp);
        reply_ok_to_all(inner, waiters, true, &payload);
        return;
    }

    // Deadline check at dequeue: if the creator's deadline passed while
    // the job sat in the queue, answer without evaluating. Joiners (who
    // by definition arrived later, with deadlines at least as late) are
    // answered on the same flight; none is left waiting.
    if creator_deadline.is_some_and(|d| Instant::now() > d) {
        let waiters = inner.flights.complete(&fp);
        let n = waiters.len() as u64;
        inner
            .counters
            .deadline_exceeded
            .fetch_add(n, Ordering::Relaxed);
        let err = ErrorReply::new(
            ErrorCode::DeadlineExceeded,
            "deadline passed while the request was queued",
        );
        for w in waiters {
            w.writer.send_line(&error_reply_line(&w.id, &err));
        }
        return;
    }

    // Panic isolation: a panicking evaluation must cost exactly one
    // structured `internal_error` reply, never a wedged flight or a dead
    // worker. `AssertUnwindSafe` is sound here because `evaluate` only
    // borrows the request — all shared state it could have left
    // inconsistent is behind mutexes recovered by `lock_recover`.
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if let (Some(seed), Request::Simulate(s)) = (inner.cfg.panic_seed, request) {
            if s.seed == seed {
                panic!("injected worker panic (panic_seed = {seed})");
            }
        }
        evaluate_with(request, corrector)
    }))
    .unwrap_or_else(|payload| {
        inner.counters.panics.fetch_add(1, Ordering::Relaxed);
        Err(ErrorReply::new(
            ErrorCode::Internal,
            format!("evaluation panicked: {}", panic_message(payload.as_ref())),
        ))
    });

    match outcome {
        Ok(payload) => {
            let payload: Arc<str> = payload.into();
            inner.cache.insert(fp, Arc::clone(&payload));
            inner.counters.completed.fetch_add(1, Ordering::Relaxed);
            let waiters = inner.flights.complete(&fp);
            reply_ok_to_all(inner, waiters, false, &payload);
        }
        Err(err) => {
            // Evaluation errors are not cached: a transient failure must
            // not poison the fingerprint forever.
            for w in inner.flights.complete(&fp) {
                w.writer.send_line(&error_reply_line(&w.id, &err));
            }
        }
    }
}

/// Replies `payload` to every waiter, honoring per-waiter deadlines. The
/// first waiter is the flight's creator; the rest are coalesced riders.
fn reply_ok_to_all(inner: &Arc<Inner>, waiters: Vec<Waiter>, cached: bool, payload: &str) {
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

fn stats_payload(inner: &Arc<Inner>) -> Object {
    let c = &inner.counters;
    let (workers, queue_bound, queue_depth) = {
        let guard = lock_recover(&inner.pool);
        match guard.as_ref() {
            Some(p) => (p.workers(), p.queue_bound(), p.queue_depth()),
            None => (0, 0, 0),
        }
    };
    let mut o = Object::new();
    o.put_str("schema", "doppio-serve-stats/v1");
    o.put_u64("workers", workers as u64);
    o.put_u64("queue_bound", queue_bound as u64);
    o.put_u64("queue_depth", queue_depth as u64);
    o.put_u64("in_flight", inner.flights.in_flight() as u64);
    o.put_u64("connections", c.connections.load(Ordering::Relaxed));
    o.put_u64("admitted", c.admitted.load(Ordering::Relaxed));
    o.put_u64("completed", c.completed.load(Ordering::Relaxed));
    o.put_u64("shed", c.shed.load(Ordering::Relaxed));
    o.put_u64("coalesced", c.coalesced.load(Ordering::Relaxed));
    o.put_u64(
        "deadline_exceeded",
        c.deadline_exceeded.load(Ordering::Relaxed),
    );
    o.put_u64("bad_requests", c.bad_requests.load(Ordering::Relaxed));
    o.put_u64("panics", c.panics.load(Ordering::Relaxed));
    o.put_u64("reaped", c.reaped.load(Ordering::Relaxed));
    let (observations, corrector_version) = learn_counters(inner);
    o.put_u64("observations", observations);
    o.put_u64("corrector_version", corrector_version);
    o.put_obj("cache", cache_stats(&inner.cache));
    o.put_bool("draining", inner.shared.is_draining());
    o
}

/// The `health` payload: a readiness probe cheap enough to poll. `ready`
/// means the pool is alive and the server is not draining — the signal CI
/// waits on instead of sleeping after `doppio serve` starts.
fn health_payload(inner: &Arc<Inner>) -> Object {
    let c = &inner.counters;
    let (pool_alive, workers, queue_bound, queue_depth) = {
        let guard = lock_recover(&inner.pool);
        match guard.as_ref() {
            Some(p) => (true, p.workers(), p.queue_bound(), p.queue_depth()),
            None => (false, 0, 0, 0),
        }
    };
    let draining = inner.shared.is_draining();
    let mut o = Object::new();
    o.put_str("schema", "doppio-serve-health/v1");
    o.put_bool("ready", pool_alive && !draining);
    o.put_bool("draining", draining);
    o.put_f64("uptime_secs", inner.started.elapsed().as_secs_f64());
    o.put_u64("workers", workers as u64);
    o.put_u64("queue_depth", queue_depth as u64);
    o.put_u64("queue_bound", queue_bound as u64);
    o.put_u64("in_flight", inner.flights.in_flight() as u64);
    o.put_u64("panics", c.panics.load(Ordering::Relaxed));
    let (observations, corrector_version) = learn_counters(inner);
    o.put_u64("observations", observations);
    o.put_u64("corrector_version", corrector_version);
    let mut cache = Object::new();
    cache.put_u64("hits", inner.cache.hits());
    cache.put_u64("misses", inner.cache.misses());
    cache.put_u64("len", inner.cache.len() as u64);
    o.put_obj("cache", cache);
    o
}

/// The learn-tier observability pair: total observations ingested and the
/// sum of current corrector versions across workload learners. Both are
/// monotonic, so the router can aggregate them across shards the same way
/// it sums every other counter.
fn learn_counters(inner: &Arc<Inner>) -> (u64, u64) {
    let observations = inner.counters.observations.load(Ordering::Relaxed);
    let learners: Vec<Arc<Mutex<Learner>>> =
        lock_recover(&inner.learners).values().cloned().collect();
    let corrector_version = learners
        .iter()
        .map(|l| lock_recover(l).corrector().version())
        .sum();
    (observations, corrector_version)
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

// ---------------------------------------------------------------------------
// Evaluation: the same inputs the CLI builds, run with a serial engine.
// ---------------------------------------------------------------------------

fn eval_err(e: impl std::fmt::Display) -> ErrorReply {
    ErrorReply::new(ErrorCode::EvalFailed, e.to_string())
}

/// Evaluates a work request to its rendered result payload, with the
/// corrector snapshot its admission captured (only corrected predicts
/// carry one; `None` means the identity corrector for them).
fn evaluate_with(request: &Request, corrector: Option<&Corrector>) -> Result<String, ErrorReply> {
    match request {
        Request::Simulate(s) => eval_simulate(s),
        Request::Predict(p) => eval_predict(p, corrector),
        Request::Optimize { paper } => eval_optimize(*paper),
        Request::WhatIf {
            rate,
            at_fraction,
            max_failures,
        } => Ok(eval_whatif(*rate, *at_fraction, *max_failures)),
        Request::Observe(_) => Err(ErrorReply::new(
            ErrorCode::BadRequest,
            "observe is stateful and answered by its own admission path",
        )),
        Request::Stats | Request::Health | Request::Shutdown => Err(ErrorReply::new(
            ErrorCode::BadRequest,
            "control commands are answered inline",
        )),
    }
}

/// Mirrors `doppio simulate` (and `Scenario::run`) input construction
/// exactly — same cluster preset, same `SparkConf::paper()` base, same
/// fault-plan horizon rule — so served results are bit-identical to
/// in-process ones.
fn eval_simulate(s: &SimulateSpec) -> Result<String, ErrorReply> {
    let app = if s.paper {
        s.workload.paper_app()
    } else {
        s.workload.scaled_app()
    };
    let cluster = ClusterSpec::paper_cluster(s.nodes, 36, s.config);
    let conf = SparkConf::paper().with_cores(s.cores).with_seed(s.seed);
    let faults = match s.inject {
        None => FaultPlan::empty(),
        Some(profile) => {
            let clean = Simulation::with_conf(cluster.clone(), conf.clone())
                .run(&app)
                .map_err(eval_err)?;
            let horizon = clean.total_time().as_secs();
            profile.plan(s.fault_seed, s.nodes, horizon)
        }
    };
    let run = Simulation::with_conf(cluster, conf)
        .with_faults(faults)
        .run(&app)
        .map_err(eval_err)?;
    Ok(doppio_sparksim::json::app_run(&run).render_line())
}

/// Mirrors `doppio predict`: calibrate on the profiling cluster, simulate
/// the target for the "experiment" column, evaluate Eq. 1 per stage.
///
/// When `p.corrected` is set the payload *adds* per-stage and total
/// corrected fields next to the analytical ones; the uncorrected payload
/// is rendered by exactly the code that rendered it before correctors
/// existed, byte for byte.
fn eval_predict(p: &PredictSpec, corrector: Option<&Corrector>) -> Result<String, ErrorReply> {
    let identity;
    let corrector = match (p.corrected, corrector) {
        (false, _) => None,
        (true, Some(c)) => Some(c),
        (true, None) => {
            identity = Corrector::identity();
            Some(&identity)
        }
    };
    let app = if p.paper {
        p.workload.paper_app()
    } else {
        p.workload.scaled_app()
    };
    let engine = Engine::serial();
    let platform = SimPlatform::new(
        app.clone(),
        presets::paper_node(36, HybridConfig::SsdSsd),
        p.profile_nodes,
        SparkConf::paper(),
    );
    let report = Calibrator::default()
        .calibrate_with(&platform, app.name(), &engine)
        .map_err(eval_err)?;
    let run = Simulation::with_conf(
        ClusterSpec::paper_cluster(p.nodes, 36, p.config),
        SparkConf::paper().with_cores(p.cores).without_noise(),
    )
    .run(&app)
    .map_err(eval_err)?;
    let env = PredictEnv::hybrid(p.nodes, p.cores, p.config);

    let mut o = Object::new();
    o.put_str("schema", "doppio-predict/v1");
    o.put_str("workload", workload_name(p.workload));
    o.put_u64("nodes", p.nodes as u64);
    o.put_u64("cores", u64::from(p.cores));
    o.put_str("config", config_name(p.config));
    o.put_obj_arr(
        "stages",
        run.stages()
            .iter()
            .map(|s| {
                let model_stage = report
                    .model
                    .stages()
                    .iter()
                    .zip(run.stages())
                    .filter(|(_, rs)| rs.name == s.name)
                    .map(|(ms, _)| ms)
                    .next();
                let pred = model_stage.map_or(0.0, |ms| ms.predict(&env));
                let mut so = Object::new();
                so.put_str("name", &s.name);
                so.put_f64("exp_secs", s.duration.as_secs());
                so.put_f64("model_secs", pred);
                if let Some(c) = corrector {
                    so.put_f64(
                        "corrected_secs",
                        model_stage.map_or(0.0, |ms| c.correct_stage(ms, &env)),
                    );
                }
                so
            })
            .collect(),
    );
    o.put_f64("total_exp_secs", run.total_time().as_secs());
    o.put_f64("total_model_secs", report.model.predict(&env));
    if let Some(c) = corrector {
        o.put_f64("total_corrected_secs", c.correct_app(&report.model, &env));
        o.put_str("corrector", c.kind());
        o.put_u64("corrector_version", c.version());
    }
    o.put_str_arr(
        "warnings",
        &report
            .warnings
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    Ok(o.render_line())
}

fn disk_choice(dc: &DiskChoice) -> Object {
    let mut o = Object::new();
    o.put_str("type", &dc.disk_type.to_string());
    o.put_f64("gb", dc.size.as_f64() / 1e9);
    o
}

fn cost(c: &CostBreakdown) -> Object {
    let mut o = Object::new();
    o.put_f64("runtime_secs", c.runtime_secs);
    o.put_f64("cpu_cost", c.cpu_cost);
    o.put_f64("disk_cost", c.disk_cost);
    o.put_f64("total", c.total());
    o
}

/// Mirrors `doppio optimize`: calibrate GATK4, grid-search the paper's
/// §VI space, price the R1/R2 reference configurations.
fn eval_optimize(paper: bool) -> Result<String, ErrorReply> {
    let app = if paper {
        doppio_workloads::Workload::Gatk4.paper_app()
    } else {
        doppio_workloads::Workload::Gatk4.scaled_app()
    };
    let engine = Engine::serial();
    let platform = SimPlatform::new(
        app,
        presets::paper_node(36, HybridConfig::SsdSsd),
        3,
        SparkConf::paper(),
    );
    let model = Calibrator::default()
        .calibrate_with(&platform, "GATK4", &engine)
        .map_err(eval_err)?
        .model;
    let eval = MemoizedEvaluator::new(CostEvaluator::new(model));
    let best = grid_search_with(&eval, &SearchSpace::paper(), &engine);
    let r1 = eval.evaluate(&r1_reference(10, 16));
    let r2 = eval.evaluate(&r2_reference(10, 16));

    let mut cfg = Object::new();
    cfg.put_u64("nodes", best.config.nodes as u64);
    cfg.put_u64("vcpus", u64::from(best.config.vcpus));
    cfg.put_obj("hdfs", disk_choice(&best.config.hdfs));
    cfg.put_obj("local", disk_choice(&best.config.local));

    let mut o = Object::new();
    o.put_str("schema", "doppio-optimize/v1");
    o.put_bool("paper", paper);
    o.put_obj("config", cfg);
    o.put_obj("cost", cost(&best.cost));
    o.put_u64("evaluations", best.evaluations as u64);
    o.put_obj("r1", cost(&r1));
    o.put_obj("r2", cost(&r2));
    o.put_f64("savings_vs_r1", 1.0 - best.cost.total() / r1.total());
    o.put_f64("savings_vs_r2", 1.0 - best.cost.total() / r2.total());
    Ok(o.render_line())
}

fn eval_whatif(rate: f64, at_fraction: f64, max_failures: u32) -> String {
    let mut o = Object::new();
    o.put_str("schema", "doppio-whatif/v1");
    o.put_f64("rate", rate);
    o.put_f64("at_fraction", at_fraction);
    o.put_u64("max_failures", u64::from(max_failures));
    o.put_f64(
        "inflation",
        failure_inflation(rate, at_fraction, max_failures),
    );
    o.render_line()
}
