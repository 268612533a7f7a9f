//! Shard-tier supervision: launch N serve processes, keep them alive.
//!
//! Shards are separate *processes*, not threads, on purpose: the paper's
//! serving story (and PR 5's hardening) is about failure containment, and
//! a process boundary is the only one that contains everything — a
//! heap-corrupting bug, an abort, an OOM kill take down one shard's cache
//! and leave the tier serving through the router's breaker-driven
//! failover. It is also what makes the chaos test's "kill one shard
//! mid-load" scenario honest: `SIGKILL`, not a polite in-process flag.
//!
//! The handshake is file-based because it has to work for a CLI, a CI
//! job, and a test harness identically: each child binds port 0 and
//! writes its resolved `host:port` to a private file (`serve
//! --port-file`), the supervisor polls for the files, then polls each
//! shard's `health` verb until it reports ready. No signals, no stdout
//! parsing. Both polls retry every `HANDSHAKE_POLL` (1 ms): a shard is
//! up a few milliseconds after its spawn, and a coarser interval would
//! add most of itself to every tier start-up and every restart.
//!
//! # Supervision
//!
//! [`TierHandle::supervise`] starts the self-healing loop: every poll
//! tick it reaps dead children (`try_wait`, i.e. `waitpid`), and a child
//! that died *abnormally* is restarted with seeded exponential backoff +
//! jitter, re-running the full port-file + health handshake before the
//! shard is announced back. A crash loop — deaths within
//! [`SupervisorConfig::crash_window`] of the previous restart — burns
//! one strike per incident; past [`SupervisorConfig::restart_budget`]
//! strikes the supervisor gives the shard up for good rather than
//! flapping forever. A child that exited *cleanly* (status 0, i.e. a
//! drained shutdown) is never restarted: the tier was asked to stop.
//!
//! Lifecycle transitions surface as [`ShardEvent`]s on the caller's
//! hook, which is how the router learns to pull a dead shard out of the
//! ring and warm a recovered one back in (DESIGN.md §4.3).

use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::client::{Client, ClientConfig};
use crate::protocol::Request;

/// Recovers a poisoned lock: shard bookkeeping stays usable even if a
/// supervisor callback panicked while holding it.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What to launch and how long to wait for it.
#[derive(Debug, Clone)]
pub struct TierSpec {
    /// The `doppio` binary to re-exec (`std::env::current_exe()` for the
    /// CLI; `env!("CARGO_BIN_EXE_doppio")` for integration tests).
    pub exe: PathBuf,
    /// Shard process count.
    pub shards: usize,
    /// Evaluation workers per shard.
    pub workers_per_shard: usize,
    /// Result-cache capacity per shard (entries, 0 = unbounded).
    pub cache_capacity: usize,
    /// Admission queue bound per shard.
    pub queue_bound: usize,
    /// Extra `serve` arguments appended verbatim to every shard.
    pub extra_args: Vec<String>,
    /// Bound on bind + ready handshake per shard.
    pub startup_timeout: Duration,
    /// When set, shard `i` persists learner snapshots under
    /// `<dir>/shard-<i>` (`serve --snapshot-dir`) — a restarted shard
    /// replays them before reporting ready, so corrector state survives
    /// the restart.
    pub snapshot_dir: Option<PathBuf>,
    /// When set, shard `i`'s current pid is written to
    /// `<dir>/shard-<i>.pid` on every (re)spawn, so external harnesses
    /// (CI's restart leg, `loadgen --kill-after`) can SIGKILL a real
    /// process.
    pub pid_dir: Option<PathBuf>,
}

impl Default for TierSpec {
    fn default() -> Self {
        TierSpec {
            exe: PathBuf::new(),
            shards: 2,
            workers_per_shard: 2,
            cache_capacity: 4096,
            queue_bound: 64,
            extra_args: Vec::new(),
            startup_timeout: Duration::from_secs(30),
            snapshot_dir: None,
            pid_dir: None,
        }
    }
}

/// Supervision tuning.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Death-detection poll interval.
    pub poll_interval: Duration,
    /// First restart backoff; doubles per strike.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// A death within this window of the previous restart counts as a
    /// crash-loop strike; surviving longer resets the strike count.
    pub crash_window: Duration,
    /// Strikes before the supervisor stops restarting the shard.
    pub restart_budget: u32,
    /// Bound on the port-file + health handshake of one restart attempt.
    pub restart_timeout: Duration,
    /// Seed for the backoff jitter stream (deterministic in tests).
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            poll_interval: Duration::from_millis(25),
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_secs(2),
            crash_window: Duration::from_secs(10),
            restart_budget: 5,
            restart_timeout: Duration::from_secs(15),
            seed: 0x5EED,
        }
    }
}

/// A shard lifecycle transition, delivered on the supervision hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardEvent {
    /// The shard process died. `clean` distinguishes a drained shutdown
    /// (exit 0 — not restarted) from a crash (restart scheduled).
    Down {
        /// Shard id.
        shard: u32,
        /// Whether the exit was a clean (status 0) shutdown.
        clean: bool,
    },
    /// The shard was restarted and passed the full port-file + health
    /// handshake on a fresh ephemeral port.
    Restarted {
        /// Shard id.
        shard: u32,
        /// The shard's *new* address.
        addr: SocketAddr,
        /// Lifetime restart count for this shard.
        restarts: u64,
    },
    /// The crash-loop budget is spent; the shard stays down.
    GaveUp {
        /// Shard id.
        shard: u32,
        /// Lifetime restart count when the supervisor stopped trying.
        restarts: u64,
    },
}

/// One shard's slot in the tier.
#[derive(Debug)]
struct ShardSlot {
    child: Option<Child>,
    addr: SocketAddr,
    /// Lifetime successful restarts.
    restarts: u64,
    /// Consecutive crash-loop strikes (reset by surviving the window).
    strikes: u32,
    /// When the shard last came up (spawn or restart).
    last_up: Instant,
    /// Earliest next restart attempt, when a restart is pending.
    next_attempt: Option<Instant>,
    /// No further restarts: clean exit or exhausted budget.
    retired: bool,
}

#[derive(Debug)]
struct TierShared {
    spec: Mutex<TierSpec>,
    port_dir: PathBuf,
    slots: Vec<Mutex<ShardSlot>>,
}

/// A running shard tier. Dropping the handle stops the supervisor and
/// kills every still-running child (a drained child has already exited
/// and is just reaped).
#[derive(Debug)]
pub struct TierHandle {
    shared: Arc<TierShared>,
    stop: Arc<AtomicBool>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

static TIER_SEQ: AtomicU64 = AtomicU64::new(0);

/// Retry interval of both handshake polls (port file, then `health`).
const HANDSHAKE_POLL: Duration = Duration::from_millis(1);

impl TierHandle {
    /// The shards' current resolved addresses, in shard-id order. A
    /// restarted shard binds a fresh ephemeral port, so addresses are a
    /// snapshot, not a constant.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.shared
            .slots
            .iter()
            .map(|s| lock_recover(s).addr)
            .collect()
    }

    /// Lifetime restart counts, in shard-id order.
    pub fn restarts(&self) -> Vec<u64> {
        self.shared
            .slots
            .iter()
            .map(|s| lock_recover(s).restarts)
            .collect()
    }

    /// Kills one shard with no warning (chaos harness hook). Idempotent;
    /// out-of-range indices are ignored. The supervisor — when running —
    /// sees an abnormal death and restarts the shard.
    pub fn kill_shard(&self, shard: usize) {
        if let Some(slot) = self.shared.slots.get(shard) {
            let mut slot = lock_recover(slot);
            if let Some(child) = slot.child.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    /// Swaps the binary future restarts exec (chaos harness hook): point
    /// it at something that cannot come up and the supervisor's
    /// crash-loop budget is exercised for real.
    pub fn replace_exe(&self, exe: impl Into<PathBuf>) {
        lock_recover(&self.shared.spec).exe = exe.into();
    }

    /// Starts the supervision loop. `on_event` fires on the supervisor
    /// thread for every [`ShardEvent`]; the router's re-admission hook
    /// plugs in here. At most one supervisor per tier — later calls
    /// replace nothing and are ignored.
    pub fn supervise(
        &mut self,
        cfg: SupervisorConfig,
        on_event: impl Fn(ShardEvent) + Send + 'static,
    ) {
        if self.supervisor.is_some() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let stop = Arc::clone(&self.stop);
        let handle = std::thread::Builder::new()
            .name("doppio-supervisor".into())
            .spawn(move || supervise_loop(&shared, &stop, &cfg, &on_event))
            .expect("spawn supervisor thread");
        self.supervisor = Some(handle);
    }
}

impl Drop for TierHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        for slot in &self.shared.slots {
            let mut slot = lock_recover(slot);
            if let Some(child) = slot.child.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        let _ = std::fs::remove_dir_all(&self.shared.port_dir);
    }
}

/// Launches `spec.shards` serve processes and waits until every one
/// answers `health` with `ready: true`.
///
/// Every shard is started with `--allow-shutdown` so the router's
/// shutdown fan-out can drain the tier remotely.
///
/// # Errors
///
/// Fails when a child cannot be spawned or any shard misses the startup
/// timeout; already-started children are killed before returning.
pub fn spawn_tier(spec: &TierSpec) -> io::Result<TierHandle> {
    let port_dir = std::env::temp_dir().join(format!(
        "doppio-tier-{}-{}",
        std::process::id(),
        TIER_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&port_dir)?;
    let placeholder = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0));
    let now = Instant::now();
    let mut shared = TierShared {
        spec: Mutex::new(spec.clone()),
        port_dir,
        slots: Vec::with_capacity(spec.shards),
    };
    let mut failed = None;
    for shard in 0..spec.shards {
        match spawn_shard(spec, &shared.port_dir, shard) {
            Ok(child) => shared.slots.push(Mutex::new(ShardSlot {
                child: Some(child),
                addr: placeholder,
                restarts: 0,
                strikes: 0,
                last_up: now,
                next_attempt: None,
                retired: false,
            })),
            Err(e) => {
                failed = Some(e);
                break;
            }
        }
    }
    let mut tier = TierHandle {
        shared: Arc::new(shared),
        stop: Arc::new(AtomicBool::new(false)),
        supervisor: None,
    };
    if let Some(e) = failed {
        // Drop kills whatever came up so far.
        return Err(e);
    }
    let deadline = Instant::now() + spec.startup_timeout;
    let never_stop = AtomicBool::new(false);
    for shard in 0..spec.shards {
        let addr = handshake(&tier.shared.port_dir, shard, deadline, &never_stop)
            .map_err(|what| startup_error(&mut tier, shard, what))?;
        lock_recover(&tier.shared.slots[shard]).addr = addr;
    }
    Ok(tier)
}

/// Spawns one shard process, clearing its stale port file first and
/// recording its pid when the spec asks for pid files.
fn spawn_shard(spec: &TierSpec, port_dir: &Path, shard: usize) -> io::Result<Child> {
    let port_file = port_file(port_dir, shard);
    let _ = std::fs::remove_file(&port_file);
    let mut cmd = Command::new(&spec.exe);
    cmd.arg("serve")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--port-file")
        .arg(&port_file)
        .arg("--allow-shutdown")
        .arg("--workers")
        .arg(spec.workers_per_shard.to_string())
        .arg("--cache")
        .arg(spec.cache_capacity.to_string())
        .arg("--queue-bound")
        .arg(spec.queue_bound.to_string());
    if let Some(dir) = &spec.snapshot_dir {
        let shard_dir = dir.join(format!("shard-{shard}"));
        std::fs::create_dir_all(&shard_dir)?;
        cmd.arg("--snapshot-dir").arg(&shard_dir);
    }
    cmd.args(&spec.extra_args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let child = cmd.spawn()?;
    if let Some(dir) = &spec.pid_dir {
        std::fs::create_dir_all(dir)?;
        std::fs::write(
            dir.join(format!("shard-{shard}.pid")),
            child.id().to_string(),
        )?;
    }
    Ok(child)
}

/// The supervision loop: reap, back off, restart, re-handshake, report.
fn supervise_loop(
    shared: &TierShared,
    stop: &AtomicBool,
    cfg: &SupervisorConfig,
    on_event: &(impl Fn(ShardEvent) + Send),
) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    while !stop.load(Ordering::SeqCst) {
        for (shard, slot_mutex) in shared.slots.iter().enumerate() {
            let shard_id = shard as u32;
            // Phase 1: death detection (never blocks).
            let due_restart = {
                let mut slot = lock_recover(slot_mutex);
                if let Some(Ok(Some(status))) = slot.child.as_mut().map(Child::try_wait) {
                    slot.child = None;
                    let clean = status.success();
                    if clean {
                        slot.retired = true;
                    } else if slot.last_up.elapsed() < cfg.crash_window {
                        slot.strikes += 1;
                    } else {
                        slot.strikes = 1;
                    }
                    if !clean {
                        if slot.strikes > cfg.restart_budget.max(1) {
                            slot.retired = true;
                            on_event(ShardEvent::Down {
                                shard: shard_id,
                                clean: false,
                            });
                            on_event(ShardEvent::GaveUp {
                                shard: shard_id,
                                restarts: slot.restarts,
                            });
                            continue;
                        }
                        slot.next_attempt =
                            Some(Instant::now() + backoff(cfg, slot.strikes, &mut rng));
                    }
                    on_event(ShardEvent::Down {
                        shard: shard_id,
                        clean,
                    });
                }
                !slot.retired
                    && slot.child.is_none()
                    && slot.next_attempt.is_some_and(|at| Instant::now() >= at)
            };
            // Phase 2: restart attempt (blocks on the handshake; the
            // slot lock is *released* so addrs()/kill_shard() stay
            // responsive, and the spec is snapshotted up front).
            if due_restart && !stop.load(Ordering::SeqCst) {
                let spec = lock_recover(&shared.spec).clone();
                let deadline = Instant::now() + cfg.restart_timeout;
                let outcome = spawn_shard(&spec, &shared.port_dir, shard).and_then(|child| {
                    match handshake(&shared.port_dir, shard, deadline, stop) {
                        Ok(addr) => Ok((child, addr)),
                        Err(what) => {
                            let mut child = child;
                            let _ = child.kill();
                            let _ = child.wait();
                            Err(io::Error::new(io::ErrorKind::TimedOut, what))
                        }
                    }
                });
                let mut slot = lock_recover(slot_mutex);
                match outcome {
                    Ok((child, addr)) => {
                        slot.child = Some(child);
                        slot.addr = addr;
                        slot.restarts += 1;
                        slot.last_up = Instant::now();
                        slot.next_attempt = None;
                        on_event(ShardEvent::Restarted {
                            shard: shard_id,
                            addr,
                            restarts: slot.restarts,
                        });
                    }
                    Err(_) => {
                        slot.strikes += 1;
                        if slot.strikes > cfg.restart_budget.max(1) {
                            slot.retired = true;
                            slot.next_attempt = None;
                            on_event(ShardEvent::GaveUp {
                                shard: shard_id,
                                restarts: slot.restarts,
                            });
                        } else {
                            slot.next_attempt =
                                Some(Instant::now() + backoff(cfg, slot.strikes, &mut rng));
                        }
                    }
                }
            }
        }
        std::thread::sleep(cfg.poll_interval);
    }
}

/// Exponential backoff with ±50 % jitter: `base · 2^(strike-1)`, capped,
/// then scaled by a uniform factor in `[0.5, 1.5)` from the seeded
/// stream.
fn backoff(cfg: &SupervisorConfig, strike: u32, rng: &mut StdRng) -> Duration {
    let base = cfg.backoff_base.max(Duration::from_millis(1));
    let exp = base.saturating_mul(1u32 << strike.saturating_sub(1).min(16));
    let capped = exp.min(cfg.backoff_max.max(base));
    let jitter = rng.random_range(500..1_500u64);
    capped * u32::try_from(jitter).expect("jitter fits") / 1_000
}

fn startup_error(tier: &mut TierHandle, shard: usize, what: &str) -> io::Error {
    // Surface a crashed child's exit status — "shard 1 exited with 101"
    // debugs faster than a bare timeout.
    let status = tier.shared.slots.get(shard).and_then(|s| {
        lock_recover(s)
            .child
            .as_mut()
            .and_then(|c| c.try_wait().ok())
    });
    let detail = match status {
        Some(Some(status)) => format!("shard {shard} exited early ({status}) and {what}"),
        _ => format!("shard {shard} {what} within the startup timeout"),
    };
    io::Error::new(io::ErrorKind::TimedOut, detail)
}

/// Shard `shard`'s port file under `port_dir`.
fn port_file(port_dir: &Path, shard: usize) -> PathBuf {
    port_dir.join(format!("shard-{shard}.port"))
}

/// Calls `attempt` every [`HANDSHAKE_POLL`] until it yields a value,
/// `deadline` passes, or `stop` is raised.
fn poll_until<T>(
    deadline: Instant,
    stop: &AtomicBool,
    mut attempt: impl FnMut() -> Option<T>,
) -> Option<T> {
    loop {
        if let Some(v) = attempt() {
            return Some(v);
        }
        if Instant::now() >= deadline || stop.load(Ordering::SeqCst) {
            return None;
        }
        std::thread::sleep(HANDSHAKE_POLL);
    }
}

/// One shard's handshake: wait for its port file to hold the resolved
/// `host:port` (`serve --port-file` writes it in one small write; an
/// in-progress empty file fails the parse and is retried), then for its
/// `health` to report ready. On failure, says which step missed.
fn handshake(
    port_dir: &Path,
    shard: usize,
    deadline: Instant,
    stop: &AtomicBool,
) -> Result<SocketAddr, &'static str> {
    let path = port_file(port_dir, shard);
    let addr = poll_until(deadline, stop, || {
        std::fs::read_to_string(&path).ok()?.trim().parse().ok()
    })
    .ok_or("did not write its port file")?;
    let cfg = ClientConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        read_timeout: Some(Duration::from_millis(2_000)),
        write_timeout: Some(Duration::from_millis(2_000)),
    };
    poll_until(deadline, stop, || {
        let reply = Client::connect_with(addr, &cfg)
            .ok()?
            .call(Request::Health, Some(2_000))
            .ok()?;
        reply
            .result
            .as_ref()?
            .get("ready")?
            .as_bool()?
            .then_some(addr)
    })
    .ok_or("did not become ready")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SupervisorConfig {
        SupervisorConfig {
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_secs(2),
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn backoff_grows_exponentially_within_jitter_bounds() {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(7);
        for strike in 1..=6u32 {
            let nominal = Duration::from_millis(100)
                .saturating_mul(1 << (strike - 1))
                .min(c.backoff_max);
            for _ in 0..32 {
                let b = backoff(&c, strike, &mut rng);
                assert!(
                    b >= nominal / 2,
                    "strike {strike}: {b:?} below jitter floor"
                );
                assert!(b < nominal * 3 / 2, "strike {strike}: {b:?} above ceiling");
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let c = cfg();
        let seq = |seed: u64| -> Vec<Duration> {
            let mut rng = StdRng::seed_from_u64(seed);
            (1..8).map(|s| backoff(&c, s, &mut rng)).collect()
        };
        assert_eq!(seq(42), seq(42));
        assert_ne!(seq(42), seq(43), "different seeds jitter differently");
    }

    #[test]
    fn backoff_caps_at_the_configured_max() {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..64 {
            // Strike counts far beyond the doubling range stay bounded.
            let b = backoff(&c, 40, &mut rng);
            assert!(b < c.backoff_max * 3 / 2);
        }
    }
}
