//! A shard: the [`front`](crate::front) over [`LocalEval`], which answers
//! requests in process.
//!
//! # Threading model
//!
//! One **reactor thread** ([`crate::reactor`]) owns the listener and every
//! client socket through nonblocking I/O behind `epoll`: it frames request
//! lines and runs the front's admission inline (drain check, cache probe,
//! singleflight join, queue submit — all non-blocking). Evaluation runs on
//! the fixed [`TaskPool`](doppio_engine::TaskPool) **workers** behind a
//! bounded FIFO queue; a worker completing a flight posts the reply to
//! every waiter through its reply handle, which wakes the reactor to
//! deliver. Connections therefore cost a file descriptor and a slab
//! entry, not a thread — the property `tests/serve_reactor.rs` pins at
//! ten thousand concurrent sockets.
//!
//! # What `LocalEval` adds to the front
//!
//! * **Admission key** — a request's own fingerprint, except that a
//!   corrected `predict` folds in the fingerprint of its workload's
//!   current corrector, whose snapshot then rides into the evaluation.
//!   A corrected predict must profile on the learners' calibration
//!   cluster ([`PROFILE_NODES`] nodes): a corrector only corrects the
//!   model fitted there, so any other `profile_nodes` is a `bad_request`.
//! * **`observe`** goes direct: every observation is an ingest into its
//!   workload's learner, never cached and never coalesced.
//! * **`stats`/`health`** are rendered inline on the reactor thread — a
//!   few atomic loads, so they answer even while the queue is full.
//! * **Drain** flushes every learner snapshot after the last job.
//!
//! # Determinism
//!
//! Workers evaluate the [`verbs`](crate::verbs) the CLI calls, with
//! [`Engine::serial`], and only render their values here. A served
//! `simulate` payload is bit-identical (every `f64` bit pattern) to
//! serializing an in-process `ScenarioSet::run_all` result built like
//! [`Scenario::run`] — the property `tests/serve_identity.rs` locks down.
//!
//! [`Scenario::run`]: ../../doppio/scenario/struct.Scenario.html

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use doppio_cloud::{CostBreakdown, DiskChoice};
use doppio_engine::json::Object;
use doppio_engine::{Engine, FingerprintBuilder, Fingerprintable};
use doppio_learn::{config_token, Corrector, Learner, RunObservation, Snapshot};
use doppio_model::whatif::failure_inflation;
use doppio_model::AppModel;
use doppio_sparksim::json;
use doppio_workloads::Workload;

use crate::front::{
    self, cache_stats, lock_recover, read, tick, Answer, Backend, Front, FrontConfig, Handle, Route,
};
use crate::protocol::{parse_workload, workload_name, ErrorCode, ErrorReply, PredictSpec, Request};
use crate::verbs::{self, eval_err, Optimum, Prediction, PROFILE_NODES};

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

/// The in-process backend: evaluates work, ingests observations and
/// holds the per-workload learners.
pub(crate) struct LocalEval {
    panic_seed: Option<u64>,
    snapshot_dir: Option<PathBuf>,
    /// Per-workload online recalibration state. The outer lock only
    /// guards map shape (fast lookups/inserts); ingesting and snapshotting
    /// go through each learner's own mutex, so a slow calibration never
    /// blocks admission.
    learners: Mutex<HashMap<LearnerKey, Arc<Mutex<Learner>>>>,
    /// Observed runs ingested into per-workload recalibration windows.
    observations: AtomicU64,
}

/// A running server. Dropping the handle shuts the server down.
#[derive(Debug)]
pub struct ServerHandle(Handle<LocalEval>);

/// Starts a server per `cfg` and returns its handle.
///
/// # Errors
///
/// Fails when the snapshot directory cannot be created, the listen
/// address cannot be bound, or the reactor's kernel resources (epoll,
/// eventfd) cannot be created.
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
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
    let backend = LocalEval {
        panic_seed: cfg.panic_seed,
        snapshot_dir: cfg.snapshot_dir,
        learners: Mutex::new(learners),
        observations: AtomicU64::new(0),
    };
    let front_cfg = FrontConfig {
        addr: cfg.addr,
        workers: cfg.workers,
        queue_bound: cfg.queue_bound,
        cache_capacity: cfg.cache_capacity,
        default_deadline_ms: cfg.default_deadline_ms,
        allow_shutdown: cfg.allow_shutdown,
        max_line_bytes: cfg.max_line_bytes,
        read_timeout_ms: cfg.read_timeout_ms,
        write_timeout_ms: cfg.write_timeout_ms,
    };
    front::start(front_cfg, backend).map(ServerHandle)
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// Begins a graceful drain: no new connections or work; queued jobs
    /// finish and their replies are delivered. Returns immediately; use
    /// [`join`](Self::join) to wait for completion.
    pub fn shutdown(&self) {
        self.0.shutdown();
    }

    /// Drains and waits until every queued job has completed.
    pub fn join(self) {
        self.0.join();
    }

    /// Blocks until the server drains on its own — i.e. until a remote
    /// `shutdown` request (requires `allow_shutdown`) completes. This is
    /// what `doppio serve` parks on.
    pub fn wait(self) {
        self.0.wait();
    }
}

impl Backend for LocalEval {
    type Ctx = Option<Corrector>;
    const RECHECK_CACHE: bool = true;
    const CONTROL_ON_POOL: bool = false;

    /// For a corrected predict the key folds the corrector fingerprint in
    /// *and* the same snapshot rides into the evaluation — key and result
    /// are captured atomically at admission, so an observation landing
    /// mid-flight can never pair a new corrector's result with an old
    /// corrector's cache key (or vice versa). Every other request keys on
    /// its own fingerprint alone.
    fn route(&self, request: &Request) -> Result<Route<Option<Corrector>>, ErrorReply> {
        match request {
            Request::Observe(_) => Ok(Route::Direct(None)),
            Request::Predict(p) if p.corrected => {
                if p.profile_nodes != PROFILE_NODES {
                    return Err(ErrorReply::new(
                        ErrorCode::BadRequest,
                        format!(
                            "a corrected predict needs profile_nodes = {PROFILE_NODES} \
                             (the learners' calibration cluster), got {}",
                            p.profile_nodes
                        ),
                    ));
                }
                let corrector = self.corrector_snapshot((p.workload, p.paper));
                let mut fp = FingerprintBuilder::new();
                request.fingerprint_into(&mut fp);
                fp.write_fingerprint(corrector.fingerprint());
                Ok(Route::Flight(fp.finish(), Some(corrector)))
            }
            _ => Ok(Route::Flight(request.fingerprint(), None)),
        }
    }

    fn answer(
        &self,
        request: &Request,
        _: Option<Instant>,
        corrector: Option<Corrector>,
    ) -> Answer {
        let payload = match request {
            Request::Simulate(s) if self.panic_seed == Some(s.seed) => {
                panic!("injected worker panic (panic_seed = {})", s.seed)
            }
            Request::Simulate(s) => json::app_run(&verbs::simulate(s)?).render_line(),
            Request::Predict(p) => {
                let engine = Engine::serial();
                let calibration = verbs::calibrate(p.workload, p.paper, p.profile_nodes, &engine)?;
                // `route` hands a corrected predict, and only that, its
                // corrector snapshot.
                render_predict(p, &verbs::predict(p, &calibration, corrector.as_ref())?)
            }
            Request::Optimize { paper } => {
                render_optimize(*paper, &verbs::optimize(*paper, &Engine::serial())?)
            }
            Request::WhatIf {
                rate,
                at_fraction,
                max_failures,
            } => eval_whatif(*rate, *at_fraction, *max_failures),
            Request::Observe(obs) => self.ingest_observation(obs)?,
            Request::Stats | Request::Health | Request::Shutdown => {
                return Err(ErrorReply::new(
                    ErrorCode::BadRequest,
                    "control commands are answered inline",
                ))
            }
        };
        Ok((payload.into(), false))
    }

    fn stats(&self, front: &Front<Self>) -> Object {
        let c = &front.counters;
        let (workers, queue_bound, queue_depth) = front.pool_stats().unwrap_or_default();
        let mut o = Object::new();
        o.put_str("schema", "doppio-serve-stats/v1");
        o.put_u64("workers", workers as u64);
        o.put_u64("queue_bound", queue_bound as u64);
        o.put_u64("queue_depth", queue_depth as u64);
        o.put_u64("in_flight", front.in_flight() as u64);
        o.put_u64("connections", read(&c.connections));
        o.put_u64("admitted", read(&c.admitted));
        o.put_u64("completed", read(&c.completed));
        o.put_u64("shed", read(&c.shed));
        o.put_u64("coalesced", read(&c.coalesced));
        o.put_u64("deadline_exceeded", read(&c.deadline_exceeded));
        o.put_u64("bad_requests", read(&c.bad_requests));
        o.put_u64("panics", read(&c.panics));
        o.put_u64("reaped", read(&c.reaped));
        self.put_learn_counters(&mut o);
        o.put_obj("cache", cache_stats(&front.cache));
        o.put_bool("draining", front.shared.is_draining());
        o
    }

    /// A readiness probe cheap enough to poll. `ready` means the pool is
    /// alive and the server is not draining — the signal CI waits on
    /// instead of sleeping after `doppio serve` starts.
    fn health(&self, front: &Front<Self>) -> Object {
        let pool = front.pool_stats();
        let (workers, queue_bound, queue_depth) = pool.unwrap_or_default();
        let draining = front.shared.is_draining();
        let mut o = Object::new();
        o.put_str("schema", "doppio-serve-health/v1");
        o.put_bool("ready", pool.is_some() && !draining);
        o.put_bool("draining", draining);
        o.put_f64("uptime_secs", front.started.elapsed().as_secs_f64());
        o.put_u64("workers", workers as u64);
        o.put_u64("queue_depth", queue_depth as u64);
        o.put_u64("queue_bound", queue_bound as u64);
        o.put_u64("in_flight", front.in_flight() as u64);
        o.put_u64("panics", read(&front.counters.panics));
        self.put_learn_counters(&mut o);
        let mut cache = Object::new();
        cache.put_u64("hits", front.cache.hits());
        cache.put_u64("misses", front.cache.misses());
        cache.put_u64("len", front.cache.len() as u64);
        o.put_obj("cache", cache);
        o
    }

    /// Flushes every learner after the last queued ingest has run, so the
    /// snapshots on disk include the whole drained window.
    fn after_drain(&self) {
        if let Some(dir) = self.snapshot_dir.as_deref() {
            self.flush_learners(dir);
        }
    }
}

impl LocalEval {
    /// The current corrector snapshot for a workload — identity until that
    /// workload's first observation arrives. Cheap enough for the reactor
    /// thread: two short lock holds and a small clone.
    fn corrector_snapshot(&self, key: LearnerKey) -> Corrector {
        let slot = lock_recover(&self.learners).get(&key).cloned();
        match slot {
            Some(learner) => lock_recover(&learner).corrector().clone(),
            None => Corrector::identity(),
        }
    }

    /// Ingests one observation into its workload's learner, creating (and
    /// calibrating) the learner on first contact. Calibration runs
    /// *outside* both locks; racing first observations may calibrate
    /// twice, but the recipe is deterministic (serial engine, fixed
    /// profiling cluster), so whichever insert wins carries the identical
    /// model.
    fn ingest_observation(&self, obs: &RunObservation) -> Result<String, ErrorReply> {
        let workload = parse_workload(&obs.workload).ok_or_else(|| {
            eval_err(format!(
                "observation names unknown workload '{}'",
                obs.workload
            ))
        })?;
        let key = (workload, obs.paper);
        let slot = lock_recover(&self.learners).get(&key).cloned();
        let slot = match slot {
            Some(s) => s,
            None => {
                let model = learner_base_model(workload, obs.paper)?;
                let mut map = lock_recover(&self.learners);
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
            let snap = self
                .snapshot_dir
                .is_some()
                .then(|| Snapshot::capture(&learner, &obs.workload, obs.paper));
            (version, learner.observations(), learner.window_len(), snap)
        };
        // Persist before the ack: once the client hears "ingested", the
        // observation must survive a SIGKILL.
        if let (Some(dir), Some(snap)) = (self.snapshot_dir.as_deref(), snap) {
            write_snapshot(dir, &snap);
        }
        tick(&self.observations);
        let mut o = Object::new();
        o.put_str("schema", "doppio-observe-ack/v1");
        o.put_str("workload", &obs.workload);
        o.put_u64("observations", observations);
        o.put_u64("corrector_version", version);
        o.put_u64("window", window as u64);
        Ok(o.render_line())
    }

    /// Adds the learn-tier observability pair: total observations
    /// ingested and the sum of current corrector versions across workload
    /// learners. Both are monotonic, so the router can aggregate them
    /// across shards the same way it sums every other counter.
    fn put_learn_counters(&self, o: &mut Object) {
        let learners: Vec<Arc<Mutex<Learner>>> =
            lock_recover(&self.learners).values().cloned().collect();
        let corrector_version = learners
            .iter()
            .map(|l| lock_recover(l).corrector().version())
            .sum();
        o.put_u64("observations", read(&self.observations));
        o.put_u64("corrector_version", corrector_version);
    }

    /// Captures and persists every live learner (drain path).
    fn flush_learners(&self, dir: &Path) {
        let slots: Vec<(LearnerKey, Arc<Mutex<Learner>>)> = lock_recover(&self.learners)
            .iter()
            .map(|(&k, v)| (k, Arc::clone(v)))
            .collect();
        for ((workload, paper), slot) in slots {
            let snap = {
                let learner = lock_recover(&slot);
                Snapshot::capture(&learner, workload_name(workload), paper)
            };
            write_snapshot(dir, &snap);
        }
    }
}

/// The model a workload's learner corrects: the `predict` calibration
/// (serial engine) on the learners' profiling cluster, so a corrected
/// predict's base model and the model its corrector was fitted against
/// are bit-identical.
fn learner_base_model(workload: Workload, paper: bool) -> Result<AppModel, ErrorReply> {
    Ok(verbs::calibrate(workload, paper, PROFILE_NODES, &Engine::serial())?.model)
}

/// The per-workload learner registry key: the workload and whether it
/// runs at paper scale. Paper-scale and scaled-down apps calibrate to
/// different models, so their observations must never mix.
type LearnerKey = (Workload, bool);

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

/// Rebuilds the learner registry from whatever snapshots `dir` holds.
/// Each snapshot is restored against a freshly calibrated base model —
/// the same deterministic recipe the ingest path uses — and its corrector
/// fingerprint is verified in [`Snapshot::restore`]; files that fail to
/// parse, name unknown workloads, or verify against a different model
/// are skipped with a note on stderr rather than wedging startup.
fn restore_learners(dir: &Path) -> HashMap<LearnerKey, Arc<Mutex<Learner>>> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return HashMap::new();
    };
    entries
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str());
            name.is_some_and(|n| n.ends_with(".snapshot.ndjson"))
        })
        .filter_map(|path| {
            let skip = |why| {
                let path = path.display();
                eprintln!("doppio-serve: skipping learner snapshot {path}: {why}");
            };
            restore_learner(&path).map_err(skip).ok()
        })
        .collect()
}

/// Restores one snapshot file into its registry key and learner.
fn restore_learner(path: &Path) -> Result<(LearnerKey, Arc<Mutex<Learner>>), String> {
    let text = std::fs::read_to_string(path).map_err(|_| "unreadable".to_string())?;
    let snap = Snapshot::parse(&text).map_err(|e| e.to_string())?;
    let workload = parse_workload(&snap.workload)
        .ok_or_else(|| format!("unknown workload '{}'", snap.workload))?;
    let model = learner_base_model(workload, snap.paper).map_err(|e| e.message)?;
    let learner = snap.restore(model).map_err(|e| e.to_string())?;
    Ok(((workload, snap.paper), Arc::new(Mutex::new(learner))))
}

// ---------------------------------------------------------------------------
// The wire renderers: each verb's typed value as its `doppio-*/v1` payload.
// ---------------------------------------------------------------------------

fn render_predict(p: &PredictSpec, prediction: &Prediction) -> String {
    let mut o = Object::new();
    o.put_str("schema", "doppio-predict/v1");
    o.put_str("workload", workload_name(p.workload));
    o.put_u64("nodes", p.nodes as u64);
    o.put_u64("cores", u64::from(p.cores));
    o.put_str("config", config_token(p.config));
    o.put_obj_arr(
        "stages",
        prediction
            .stages
            .iter()
            .map(|s| {
                let mut so = Object::new();
                so.put_str("name", &s.name);
                so.put_f64("exp_secs", s.exp_secs);
                so.put_f64("model_secs", s.model_secs);
                if let Some(corrected) = s.corrected_secs {
                    so.put_f64("corrected_secs", corrected);
                }
                so
            })
            .collect(),
    );
    o.put_f64("total_exp_secs", prediction.total_exp_secs);
    o.put_f64("total_model_secs", prediction.total_model_secs);
    if let (Some(total), Some((kind, version))) =
        (prediction.total_corrected_secs, prediction.corrector)
    {
        o.put_f64("total_corrected_secs", total);
        o.put_str("corrector", kind);
        o.put_u64("corrector_version", version);
    }
    o.put_str_arr("warnings", &prediction.warnings);
    o.render_line()
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

fn render_optimize(paper: bool, optimum: &Optimum) -> String {
    let best = &optimum.best;
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
    o.put_obj("r1", cost(&optimum.r1));
    o.put_obj("r2", cost(&optimum.r2));
    o.put_f64("savings_vs_r1", optimum.savings_vs(&optimum.r1));
    o.put_f64("savings_vs_r2", optimum.savings_vs(&optimum.r2));
    o.render_line()
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
