//! A seeded fault-injecting TCP proxy for exercising the serving path.
//!
//! The simulated cluster has `doppio-faults`: deterministic, seeded fault
//! plans replayed against the event loop. This module is the same idea
//! applied to the real wire. A [`ChaosProxy`] sits between a client and a
//! serve endpoint and, per connection, draws a `ConnPlan` from a seeded
//! RNG: refuse outright, delay every forwarded chunk, inject a garbage
//! line ahead of real replies, or cut the stream after a byte budget.
//! Same seed, same profile → the same schedule of connection faults, so
//! chaos tests are reproducible.
//!
//! Only the upstream→client direction is perturbed. Faulting the request
//! direction too would make "did the server execute it?" ambiguous from
//! the test's viewpoint; keeping requests clean means every injected
//! fault is a *reply-path* fault, and the exactly-one-outcome invariant
//! can be checked per request id.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A named chaos schedule, the wire-level sibling of
/// `doppio_sparksim::FaultProfile`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosProfile {
    /// Every reply chunk is delayed 1–8 ms: a congested or distant link.
    SlowWire,
    /// 40% of connections are refused before any byte flows.
    FlakyConnect,
    /// 35% of connections have their reply stream cut after 1–200 bytes.
    Truncate,
    /// 40% of connections get a line of seeded garbage injected ahead of
    /// real replies.
    Garbage,
    /// A flapping endpoint: 25% of connections refused, half of the rest
    /// dropped before their first reply completes (1–64 bytes), and even
    /// the "healthy" remainder dies after a 2–8 KiB byte budget — no
    /// connection lives forever, so clients churn through reconnects and
    /// consecutive-failure streaks long enough to trip a circuit breaker.
    DisconnectHeavy,
}

impl ChaosProfile {
    /// Every profile, in CLI listing order.
    pub const ALL: [ChaosProfile; 5] = [
        ChaosProfile::SlowWire,
        ChaosProfile::FlakyConnect,
        ChaosProfile::Truncate,
        ChaosProfile::Garbage,
        ChaosProfile::DisconnectHeavy,
    ];

    /// The CLI / report token.
    pub fn name(self) -> &'static str {
        match self {
            ChaosProfile::SlowWire => "slow-wire",
            ChaosProfile::FlakyConnect => "flaky-connect",
            ChaosProfile::Truncate => "truncate",
            ChaosProfile::Garbage => "garbage",
            ChaosProfile::DisconnectHeavy => "disconnect-heavy",
        }
    }

    /// One-line description for `doppio list`.
    pub fn describe(self) -> &'static str {
        match self {
            ChaosProfile::SlowWire => "delay every reply chunk by 1-8 ms",
            ChaosProfile::FlakyConnect => "refuse 40% of connections",
            ChaosProfile::Truncate => "cut 35% of reply streams after 1-200 bytes",
            ChaosProfile::Garbage => "inject a garbage line ahead of replies on 40% of connections",
            ChaosProfile::DisconnectHeavy => {
                "refuse 25% of connections, drop the rest early or after a 2-8 KiB budget"
            }
        }
    }

    /// Parses a CLI token.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names.
    pub fn parse(token: &str) -> Result<ChaosProfile, String> {
        ChaosProfile::ALL
            .into_iter()
            .find(|p| p.name() == token)
            .ok_or_else(|| {
                let names: Vec<&str> = ChaosProfile::ALL.iter().map(|p| p.name()).collect();
                format!(
                    "unknown chaos profile '{token}' (expected one of: {})",
                    names.join(", ")
                )
            })
    }

    /// Draws the fault plan for one connection.
    fn plan(self, rng: &mut StdRng) -> ConnPlan {
        let mut plan = ConnPlan::default();
        match self {
            ChaosProfile::SlowWire => {
                plan.delay = Some(Duration::from_millis(rng.random_range(1u64..=8)));
            }
            ChaosProfile::FlakyConnect => {
                plan.refuse = rng.random_range(0.0..1.0) < 0.4;
            }
            ChaosProfile::Truncate => {
                if rng.random_range(0.0..1.0) < 0.35 {
                    plan.cut_after = Some(rng.random_range(1u64..=200));
                }
            }
            ChaosProfile::Garbage => {
                plan.garbage = rng.random_range(0.0..1.0) < 0.4;
            }
            ChaosProfile::DisconnectHeavy => {
                if rng.random_range(0.0..1.0) < 0.25 {
                    plan.refuse = true;
                } else if rng.random_range(0.0..1.0) < 0.5 {
                    // Dies before the first reply completes.
                    plan.cut_after = Some(rng.random_range(1u64..=64));
                } else {
                    // Serves a few replies, then drops mid-stream: even
                    // "good" connections are finite, keeping the client
                    // reconnecting for the whole run.
                    plan.cut_after = Some(rng.random_range(2_048u64..=8_192));
                }
            }
        }
        plan
    }
}

/// The faults drawn for one proxied connection.
#[derive(Debug, Clone, Copy, Default)]
struct ConnPlan {
    /// Close the client connection before contacting the upstream.
    refuse: bool,
    /// Sleep this long before forwarding each reply chunk.
    delay: Option<Duration>,
    /// Forward at most this many reply bytes, then sever both directions.
    cut_after: Option<u64>,
    /// Write a line of seeded garbage to the client before real replies.
    garbage: bool,
}

/// Counters for what the proxy actually did, for chaos reports.
#[derive(Debug, Default)]
pub struct ProxyStats {
    /// Connections accepted from clients.
    pub connections: AtomicU64,
    /// Connections refused by plan.
    pub refused: AtomicU64,
    /// Reply streams cut after their byte budget.
    pub cut: AtomicU64,
    /// Garbage lines injected.
    pub garbage_injected: AtomicU64,
}

/// A running chaos proxy in front of one upstream address.
#[derive(Debug)]
pub struct ChaosProxy {
    addr: SocketAddr,
    stats: Arc<ProxyStats>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral port forwarding to `upstream`,
    /// drawing per-connection plans from `profile` seeded with `seed`.
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures.
    pub fn start(upstream: SocketAddr, profile: ChaosProfile, seed: u64) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ProxyStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                accept_loop(&listener, upstream, profile, seed, &stats, &stop)
            })
        };
        Ok(ChaosProxy {
            addr,
            stats,
            stop,
            accept: Some(accept),
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The proxy's fault counters.
    pub fn stats(&self) -> &ProxyStats {
        &self.stats
    }

    /// Stops accepting. Established connections keep flowing until
    /// either side closes.
    pub fn stop(&mut self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            // Poke the blocking accept awake.
            let _ = TcpStream::connect(self.addr);
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    profile: ChaosProfile,
    seed: u64,
    stats: &Arc<ProxyStats>,
    stop: &Arc<AtomicBool>,
) {
    // Per-connection sub-seed: splits the master seed so the i-th
    // connection's plan is independent of how earlier plans consumed the
    // stream (the golden-ratio increment is the SplitMix64 constant).
    for (i, client) in listener.incoming().enumerate() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(client) = client else { continue };
        stats.connections.fetch_add(1, Ordering::Relaxed);
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let plan = profile.plan(&mut rng);
        if plan.refuse {
            stats.refused.fetch_add(1, Ordering::Relaxed);
            let _ = client.shutdown(Shutdown::Both);
            continue;
        }
        let Ok(server) = TcpStream::connect(upstream) else {
            let _ = client.shutdown(Shutdown::Both);
            continue;
        };
        client.set_nodelay(true).ok();
        server.set_nodelay(true).ok();
        let stats = Arc::clone(stats);
        std::thread::spawn(move || proxy_connection(client, server, plan, &mut rng, &stats));
    }
}

/// Runs both pump directions for one connection; returns when either side
/// closes or the plan cuts the stream.
fn proxy_connection(
    client: TcpStream,
    server: TcpStream,
    plan: ConnPlan,
    rng: &mut StdRng,
    stats: &ProxyStats,
) {
    // Request direction: a clean, unperturbed pump on its own thread.
    let up = {
        let (Ok(mut client_r), Ok(mut server_w)) = (client.try_clone(), server.try_clone()) else {
            return;
        };
        std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            loop {
                match client_r.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if server_w.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
            let _ = server_w.shutdown(Shutdown::Write);
        })
    };

    // Reply direction: where the plan's faults apply.
    let mut server_r = server;
    let mut client_w = client;
    if plan.garbage {
        stats.garbage_injected.fetch_add(1, Ordering::Relaxed);
        let mut junk: Vec<u8> = (0..24)
            .map(|_| b"abcdefghijklmnopqrstuvwxyz{}[]:,\"0123456789"[rng.random_range(0usize..43)])
            .collect();
        junk.push(b'\n');
        let _ = client_w.write_all(&junk);
    }
    let mut forwarded: u64 = 0;
    // Small chunks so a byte budget cuts replies mid-line, not only on
    // chunk boundaries.
    let mut buf = [0u8; 256];
    loop {
        let n = match server_r.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n as u64,
        };
        if let Some(d) = plan.delay {
            std::thread::sleep(d);
        }
        let allowed = match plan.cut_after {
            Some(limit) => limit.saturating_sub(forwarded).min(n),
            None => n,
        };
        if allowed > 0 && client_w.write_all(&buf[..allowed as usize]).is_err() {
            break;
        }
        forwarded += allowed;
        if plan.cut_after.is_some_and(|limit| forwarded >= limit) {
            stats.cut.fetch_add(1, Ordering::Relaxed);
            break;
        }
    }
    // Sever both directions so neither endpoint waits on a half-dead pair.
    let _ = client_w.shutdown(Shutdown::Both);
    let _ = server_r.shutdown(Shutdown::Both);
    let _ = up.join();
}
