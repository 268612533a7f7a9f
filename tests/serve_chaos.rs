//! Chaos harness: the serving path under injected wire faults.
//!
//! A seeded [`ChaosProxy`] sits between a [`RetryingClient`] and a real
//! server and misbehaves per profile — refused connections, delayed
//! chunks, truncated replies, garbage injection, mid-reply drops. The
//! properties locked down here:
//!
//! * **Exactly one semantic outcome per request id**: bit-identical
//!   success, a structured protocol error, or a client-side error — never
//!   silence, never two answers.
//! * **Bit-identity survives chaos**: every *successful* reply payload is
//!   byte-identical to the in-process `Scenario::run` render, whatever
//!   the proxy did to the wire.
//! * **Panic isolation**: an injected worker panic costs one structured
//!   `internal_error` reply, shows up in `stats` and `health`, and the
//!   same worker keeps serving.
//! * **Fail-fast on a dead endpoint**: the circuit breaker turns a dead
//!   server into microsecond rejections instead of per-call timeouts.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use doppio::cluster::{ClusterSpec, HybridConfig};
use doppio::scenario::Scenario;
use doppio::serve::protocol::workload_name;
use doppio::serve::{
    start, BreakerConfig, CallError, ChaosProfile, ChaosProxy, Client, ClientConfig, Request,
    RetryPolicy, RetryingClient, ServeConfig, SimulateSpec,
};
use doppio::sparksim::{json, FaultPlan, SparkConf};
use doppio::workloads::Workload;

fn spec(seed: u64) -> SimulateSpec {
    SimulateSpec {
        workload: Workload::Terasort,
        nodes: 2,
        cores: 4,
        config: HybridConfig::SsdSsd,
        seed,
        paper: false,
        inject: None,
        fault_seed: 7,
    }
}

/// The in-process ground-truth payload for `spec(seed)`.
fn expected_payload(seed: u64) -> String {
    let s = spec(seed);
    let run = Scenario {
        workload: workload_name(s.workload).to_string(),
        app: s.workload.scaled_app(),
        cluster: ClusterSpec::paper_cluster(s.nodes, 36, s.config),
        conf: SparkConf::paper().with_cores(s.cores).with_seed(s.seed),
        faults: FaultPlan::empty(),
    }
    .run()
    .expect("in-process run");
    json::app_run(&run).render_line()
}

/// A retrying client tuned for test pace: short backoffs, short breaker
/// cooldown, generous socket timeouts.
fn retrying(addr: String, seed: u64) -> RetryingClient {
    RetryingClient::new(
        addr,
        ClientConfig {
            connect_timeout: Some(Duration::from_millis(1_000)),
            read_timeout: Some(Duration::from_millis(3_000)),
            write_timeout: Some(Duration::from_millis(3_000)),
        },
        RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
        },
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(30),
            probe_budget: 2,
        },
        seed,
    )
}

#[test]
fn every_profile_yields_exactly_one_outcome_per_request() {
    let handle = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("server starts");

    let seeds = [31u64, 32, 33];
    let expected: Vec<String> = seeds.iter().map(|&s| expected_payload(s)).collect();

    for (p_idx, profile) in ChaosProfile::ALL.into_iter().enumerate() {
        let mut proxy =
            ChaosProxy::start(handle.addr(), profile, 0xC4A0_5000 + p_idx as u64).expect("proxy");
        let mut rc = retrying(proxy.addr().to_string(), 0x5EED + p_idx as u64);

        let mut successes = 0u32;
        let mut server_errors = 0u32;
        let mut client_errors = 0u32;
        let requests = 4 * seeds.len() as u32;
        for round in 0..4 {
            for (i, &seed) in seeds.iter().enumerate() {
                let mut outcome = rc.call(Request::Simulate(spec(seed)), None);
                // A request that hit an open breaker is retried after the
                // cooldown (bounded): the breaker shedding is the point,
                // abandoning the semantic check is not.
                let mut waits = 0;
                while matches!(outcome, Err(CallError::CircuitOpen { .. })) && waits < 30 {
                    std::thread::sleep(Duration::from_millis(20));
                    waits += 1;
                    outcome = rc.call(Request::Simulate(spec(seed)), None);
                }
                match outcome {
                    Ok(r) if r.ok => {
                        successes += 1;
                        assert!(
                            r.raw.ends_with(&format!("\"result\": {}}}", expected[i])),
                            "[{}] round {round} seed {seed}: successful reply bytes \
                             diverge from the in-process render\n  raw: {}",
                            profile.name(),
                            r.raw
                        );
                    }
                    Ok(r) => {
                        server_errors += 1;
                        assert!(
                            r.error_code.is_some(),
                            "[{}] error reply without a structured code: {}",
                            profile.name(),
                            r.raw
                        );
                    }
                    Err(e) => {
                        client_errors += 1;
                        // Any client-side terminal error is a legitimate
                        // single outcome; its Display must not be empty.
                        assert!(!e.to_string().is_empty());
                    }
                }
            }
        }
        assert_eq!(
            successes + server_errors + client_errors,
            requests,
            "[{}] every request id resolves to exactly one outcome",
            profile.name()
        );
        assert!(
            successes > 0,
            "[{}] retries must get at least one request through",
            profile.name()
        );
        proxy.stop();
    }

    // The server itself never wedged: a direct request still evaluates.
    let mut direct = Client::connect(handle.addr()).expect("direct connect");
    let after = direct
        .call(Request::Simulate(spec(99)), None)
        .expect("post-chaos request");
    assert!(after.ok, "server must keep serving after every profile");
    handle.join();
}

#[test]
fn worker_panic_is_isolated_and_reported() {
    let panic_seed = 0xDEAD;
    let handle = start(ServeConfig {
        workers: 1, // the panicking worker IS the only worker
        panic_seed: Some(panic_seed),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");

    let reply = client
        .call(Request::Simulate(spec(panic_seed)), None)
        .expect("panicking request still gets a reply");
    assert!(!reply.ok, "a panicked evaluation cannot succeed");
    assert_eq!(
        reply.error_code.as_deref(),
        Some("internal_error"),
        "panic surfaces as the structured internal error: {:?}",
        reply.error_message
    );
    assert!(
        reply
            .error_message
            .as_deref()
            .unwrap_or_default()
            .contains("panicked"),
        "message names the panic: {:?}",
        reply.error_message
    );

    // The sole worker survived: fresh work still evaluates.
    let after = client
        .call(Request::Simulate(spec(77)), None)
        .expect("post-panic request");
    assert!(after.ok, "the worker must outlive the panic");

    // Both observability surfaces report it.
    for verb in [Request::Stats, Request::Health] {
        let r = client.call(verb, None).expect("control reply");
        assert!(r.ok);
        let result = r.result.expect("control payload");
        assert_eq!(
            result
                .get("panics")
                .and_then(doppio::engine::json::Value::as_u64),
            Some(1),
            "panic counter visible in {}",
            result
                .get("schema")
                .and_then(doppio::engine::json::Value::as_str)
                .unwrap_or("?")
        );
    }
    let health = client.call(Request::Health, None).expect("health reply");
    assert_eq!(
        health
            .result
            .expect("health payload")
            .get("ready")
            .and_then(doppio::engine::json::Value::as_bool),
        Some(true),
        "a survived panic does not flip readiness"
    );
    handle.join();
}

/// Shard-tier chaos: `SIGKILL` one real shard process mid-load *while*
/// the wire is already hostile — the load runs through a
/// `disconnect-heavy` chaos proxy in front of the router. Two failure
/// domains stack: the proxy refuses/cuts the client↔router leg (the
/// retrying client's problem) and the kill removes a shard behind the
/// router (the router's breaker-driven re-route). Every request id must
/// still resolve to exactly one semantic outcome, every success to the
/// in-process bytes, and the router must record the failover.
#[test]
fn killing_a_shard_mid_load_yields_exactly_one_outcome_per_request() {
    use doppio::engine::Fingerprintable as _;
    use doppio::serve::ring::DEFAULT_VNODES;
    use doppio::serve::{spawn_tier, start_router, HashRing, RouterConfig, TierSpec};

    let tier = spawn_tier(&TierSpec {
        exe: env!("CARGO_BIN_EXE_doppio").into(),
        shards: 3,
        workers_per_shard: 2,
        ..TierSpec::default()
    })
    .expect("tier starts");
    let router = start_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: tier.addrs().to_vec(),
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(200),
            probe_budget: 1,
        },
        ..RouterConfig::default()
    })
    .expect("router starts");
    let mut proxy = ChaosProxy::start(router.addr(), ChaosProfile::DisconnectHeavy, 0xC4A0_8000)
        .expect("chaos proxy");

    // Ring placement is a pure function of (shard ids, vnodes), so the
    // victim — the shard owning seed 61 — is known before the kill.
    let ring = HashRing::new(&[0, 1, 2], DEFAULT_VNODES);
    let owner = |seed: u64| ring.shard_for(&Request::Simulate(spec(seed)).fingerprint()) as usize;
    let victim = owner(61);

    // Every request carries a distinct seed the victim owns: a repeated
    // key would be answered from the router's cache and never forwarded.
    // The spare last seed is the post-kill probe below.
    let rounds = 6usize;
    let per_round = 6usize;
    let seeds: Vec<u64> = (61u64..)
        .filter(|&s| owner(s) == victim)
        .take(rounds * per_round + 1)
        .collect();
    let expected: Vec<String> = seeds.iter().map(|&s| expected_payload(s)).collect();
    let proxy_addr = proxy.addr().to_string();
    let load_seeds = &seeds;
    let (warmed_tx, warmed_rx) = std::sync::mpsc::channel::<()>();
    let outcomes: Vec<(usize, u64, Result<doppio::serve::Reply, CallError>)> =
        std::thread::scope(|scope| {
            let load = scope.spawn(move || {
                let mut rc = retrying(proxy_addr, 0x5EED_8000);
                let mut out = Vec::with_capacity(rounds * per_round);
                for round in 0..rounds {
                    for &seed in &load_seeds[round * per_round..(round + 1) * per_round] {
                        let mut outcome = rc.call(Request::Simulate(spec(seed)), Some(10_000));
                        // An open client-side breaker is shedding by
                        // design; wait it out (bounded) so every id still
                        // reaches a semantic outcome.
                        let mut waits = 0;
                        while matches!(outcome, Err(CallError::CircuitOpen { .. })) && waits < 50 {
                            std::thread::sleep(Duration::from_millis(20));
                            waits += 1;
                            outcome = rc.call(Request::Simulate(spec(seed)), Some(10_000));
                        }
                        out.push((round, seed, outcome));
                    }
                    if round == 0 {
                        // Every seed warm on its owner; time for the kill.
                        warmed_tx.send(()).expect("signal main");
                    }
                }
                out
            });
            warmed_rx.recv().expect("warm round finished");
            tier.kill_shard(victim); // SIGKILL, no drain, mid-load
            load.join().expect("load thread")
        });

    assert_eq!(
        outcomes.len(),
        rounds * per_round,
        "every request id resolves exactly once"
    );
    let mut successes = 0u32;
    for (round, seed, outcome) in &outcomes {
        match outcome {
            Ok(reply) if reply.ok => {
                successes += 1;
                let want = &expected[seeds.iter().position(|s| s == seed).unwrap()];
                assert!(
                    reply.raw.ends_with(&format!("\"result\": {want}}}")),
                    "round {round} seed {seed}: bytes diverge after failover\n  raw: {}",
                    reply.raw
                );
            }
            // The dead shard never surfaces as a semantic error (two ring
            // successors survive); any error reply must be structured.
            Ok(reply) => {
                assert!(
                    reply.error_code.is_some(),
                    "round {round} seed {seed}: error reply without a code: {}",
                    reply.raw
                );
            }
            // Client-side terminal errors (the proxy's doing) are a
            // legitimate single outcome with a non-empty description.
            Err(e) => assert!(!e.to_string().is_empty()),
        }
    }
    assert!(
        successes > 0,
        "retries must get requests through the chaos proxy"
    );

    // The victim's keys stay owned by the successor: a fresh request on
    // a clean wire (no proxy) evaluates there, a repeat is a cache hit
    // (the router's own) — and serving it at all required a
    // breaker-driven re-route past the dead owner.
    let mut client = Client::connect(router.addr()).expect("direct client");
    let probe = seeds[rounds * per_round];
    let fresh = client
        .call(Request::Simulate(spec(probe)), Some(10_000))
        .expect("post-kill request");
    assert!(fresh.ok, "victim's key served by its successor");
    let again = client
        .call(Request::Simulate(spec(probe)), Some(10_000))
        .expect("post-kill repeat");
    assert!(again.ok && again.cached, "a cache answers the repeat");

    // The router saw the death: failovers counted, one shard unreachable.
    let stats = client.call(Request::Stats, Some(5_000)).expect("stats");
    let router_stats = stats
        .result
        .as_ref()
        .and_then(|v| v.get("router"))
        .cloned()
        .expect("router sub-object");
    let n = |k: &str| {
        router_stats
            .get(k)
            .and_then(doppio::engine::json::Value::as_u64)
            .unwrap_or(0)
    };
    assert!(n("failovers") >= 1, "failovers recorded: {router_stats:?}");
    assert_eq!(n("shards_ok"), 2, "one shard is gone: {router_stats:?}");

    proxy.stop();
    router.shutdown();
    router.join();
}

/// The self-healing loop end to end: `SIGKILL` the shard that owns the
/// `terasort` learner, let the supervisor restart it and the router warm
/// it back into the ring, and demand that post-restart corrected
/// predictions are byte-identical to the pre-kill ones. That identity is
/// only possible if three things all held: the learner snapshot survived
/// the kill (written before every ack), the restarted process restored it
/// before reporting ready, and re-admission handed the workload back to
/// its *original* owner (same vnodes, same placement).
#[test]
fn killed_learn_owner_restarts_readmits_and_stays_byte_identical() {
    use doppio::engine::FingerprintBuilder;
    use doppio::learn::RunObservation;
    use doppio::serve::ring::DEFAULT_VNODES;
    use doppio::serve::{
        spawn_tier, start_router, HashRing, PredictSpec, RouterConfig, SupervisorConfig, TierSpec,
    };

    let observations: Vec<RunObservation> = include_str!("fixtures/observations_slowdisk.ndjson")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| RunObservation::parse_line(l).expect("fixture line parses"))
        .collect();
    let n_obs = observations.len() as u64;

    let snapshot_dir =
        std::env::temp_dir().join(format!("doppio-restart-chaos-{}", std::process::id()));
    let mut tier = spawn_tier(&TierSpec {
        exe: env!("CARGO_BIN_EXE_doppio").into(),
        shards: 4,
        workers_per_shard: 1,
        snapshot_dir: Some(snapshot_dir.clone()),
        ..TierSpec::default()
    })
    .expect("tier starts");
    let router = start_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: tier.addrs(),
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(100),
            probe_budget: 1,
        },
        // Test-paced warm-up: two consecutive ready probes, 10 ms apart.
        warmup_successes: 2,
        warmup_interval_ms: 10,
        ..RouterConfig::default()
    })
    .expect("router starts");
    let controller = router.controller();
    tier.supervise(
        SupervisorConfig {
            poll_interval: Duration::from_millis(10),
            // The jittered floor (base/2 = 100 ms) keeps the down-window
            // probe below honest: the restart cannot beat it.
            backoff_base: Duration::from_millis(200),
            backoff_max: Duration::from_millis(400),
            ..SupervisorConfig::default()
        },
        move |ev| controller.on_shard_event(&ev),
    );

    // Owner placement is a pure function of the ring, so the victim — the
    // shard holding the terasort learner — is known up front.
    let owner_fp = {
        let mut fp = FingerprintBuilder::new();
        fp.write_str("learn-owner");
        fp.write_str("terasort");
        fp.write_bool(false);
        fp.finish()
    };
    let victim = HashRing::new(&[0, 1, 2, 3], DEFAULT_VNODES).shard_for(&owner_fp) as usize;

    let corrected_spec = || PredictSpec {
        workload: Workload::Terasort,
        nodes: 3,
        cores: 8,
        config: HybridConfig::HddHdd,
        paper: false,
        profile_nodes: 3,
        corrected: true,
    };
    // The reply's rendered result payload: everything after `"result": `
    // minus the envelope's closing brace is the evaluation verbatim.
    let payload = |raw: &str| -> String {
        let (_, after) = raw
            .split_once("\"result\": ")
            .expect("ok reply carries a result");
        after[..after.len() - 1].to_string()
    };

    let mut client = Client::connect(router.addr()).expect("client connects");
    for obs in observations {
        let reply = client
            .call(Request::Observe(obs), Some(10_000))
            .expect("observe reply");
        assert!(reply.ok, "observe failed: {:?}", reply.error_message);
    }
    let before = client
        .call(Request::Predict(corrected_spec()), Some(10_000))
        .expect("pre-kill corrected predict");
    assert!(before.ok, "pre-kill predict: {:?}", before.error_message);
    let before_payload = payload(&before.raw);

    // The whole kill → restart → re-admit cycle runs under hostile wire
    // load: a disconnect-heavy proxy between a retrying client and the
    // router, driving idempotent simulates across the ownership flips.
    let mut proxy = ChaosProxy::start(router.addr(), ChaosProfile::DisconnectHeavy, 0xC4A0_9000)
        .expect("chaos proxy");
    let chaos_seeds = [71u64, 72, 73, 74];
    let chaos_expected: Vec<String> = chaos_seeds.iter().map(|&s| expected_payload(s)).collect();
    let proxy_addr = proxy.addr().to_string();
    let rounds = 8usize;

    let outcomes: Vec<(u64, Result<doppio::serve::Reply, CallError>)> =
        std::thread::scope(|scope| {
            let load = scope.spawn(move || {
                let mut rc = retrying(proxy_addr, 0x5EED_9000);
                let mut out = Vec::with_capacity(rounds * chaos_seeds.len());
                for _ in 0..rounds {
                    for &seed in &chaos_seeds {
                        let mut outcome = rc.call(Request::Simulate(spec(seed)), Some(10_000));
                        let mut waits = 0;
                        while matches!(outcome, Err(CallError::CircuitOpen { .. })) && waits < 50 {
                            std::thread::sleep(Duration::from_millis(20));
                            waits += 1;
                            outcome = rc.call(Request::Simulate(spec(seed)), Some(10_000));
                        }
                        out.push((seed, outcome));
                    }
                }
                out
            });

            tier.kill_shard(victim); // SIGKILL, no drain, mid-load

            // While the owner is down its learner is unreachable *by
            // design*: owner-pinned requests fail fast rather than fail
            // over, because a failover would fork the corrector state
            // onto a second shard.
            // (A connection-level error is an equally terminal outcome.)
            if let Ok(r) = client.call(Request::Predict(corrected_spec()), Some(2_000)) {
                assert!(
                    !r.ok,
                    "corrected predict cannot succeed against a dead owner: {}",
                    r.raw
                );
            }

            // Tier health flips ready only when every shard is back in
            // the active ring, so one bounded poll loop covers restart +
            // warm-up.
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                let h = client
                    .call(Request::Health, Some(5_000))
                    .expect("health reply");
                let result = h.result.as_ref().expect("health payload");
                let b = |k: &str| {
                    result
                        .get(k)
                        .and_then(doppio::engine::json::Value::as_bool)
                        .unwrap_or(false)
                };
                let u = |k: &str| {
                    result
                        .get(k)
                        .and_then(doppio::engine::json::Value::as_u64)
                        .unwrap_or(0)
                };
                if b("ready") && u("restarts") >= 1 {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "shard was not re-admitted within the budget: {result:?}"
                );
                std::thread::sleep(Duration::from_millis(25));
            }
            load.join().expect("load thread")
        });
    assert_eq!(tier.restarts()[victim], 1, "exactly one restart, no flap");

    // Every chaos-load request id resolved to exactly one semantic
    // outcome across the kill, the downtime and the ownership flip back —
    // and every *success* carries the in-process bytes.
    assert_eq!(outcomes.len(), rounds * chaos_seeds.len());
    let mut successes = 0u32;
    for (seed, outcome) in &outcomes {
        match outcome {
            Ok(reply) if reply.ok => {
                successes += 1;
                let want = &chaos_expected[chaos_seeds.iter().position(|s| s == seed).unwrap()];
                assert!(
                    reply.raw.ends_with(&format!("\"result\": {want}}}")),
                    "seed {seed}: bytes diverge across the restart cycle\n  raw: {}",
                    reply.raw
                );
            }
            Ok(reply) => assert!(
                reply.error_code.is_some(),
                "seed {seed}: error reply without a code: {}",
                reply.raw
            ),
            Err(e) => assert!(!e.to_string().is_empty()),
        }
    }
    assert!(
        successes > 0,
        "retries must get requests through the chaos proxy"
    );
    proxy.stop();

    // The restored corrector serves byte-identical corrected predictions.
    let after = client
        .call(Request::Predict(corrected_spec()), Some(10_000))
        .expect("post-restart corrected predict");
    assert!(after.ok, "post-restart predict: {:?}", after.error_message);
    assert_eq!(
        payload(&after.raw),
        before_payload,
        "corrected prediction bytes diverged across the restart — \
         learner state did not survive"
    );

    // Counters agree: the version invariant (one fit per ingest) survived
    // the snapshot round trip, and the tier is whole again.
    let stats = client.call(Request::Stats, Some(5_000)).expect("stats");
    let result = stats.result.expect("stats payload");
    assert_eq!(
        result
            .get("corrector_version")
            .and_then(doppio::engine::json::Value::as_u64),
        Some(n_obs),
        "restored corrector version equals total ingests"
    );
    let router_stats = result.get("router").expect("router sub-object");
    let ru = |k: &str| {
        router_stats
            .get(k)
            .and_then(doppio::engine::json::Value::as_u64)
            .unwrap_or(0)
    };
    assert!(ru("restarts") >= 1, "router counted the restart");
    assert_eq!(ru("active_shards"), 4, "all four shards active again");

    router.shutdown();
    router.join();
    drop(tier);
    let _ = std::fs::remove_dir_all(&snapshot_dir);
}

#[test]
fn dead_endpoint_fails_fast_once_the_breaker_opens() {
    // Bind then immediately free a port: connecting to it refuses fast.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };
    let mut rc = RetryingClient::new(
        addr.to_string(),
        ClientConfig {
            connect_timeout: Some(Duration::from_millis(250)),
            read_timeout: Some(Duration::from_millis(250)),
            write_timeout: Some(Duration::from_millis(250)),
        },
        RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
        },
        BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(10), // stays open for the test
            probe_budget: 1,
        },
        7,
    );

    // First call: both attempts fail at connect, tripping the breaker.
    match rc.call(Request::Stats, None) {
        Err(CallError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 2),
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert_eq!(
        rc.breaker().opened(),
        1,
        "two failures trip a threshold of 2"
    );

    // Open breaker: rejections must be microsecond-cheap, not
    // per-call connect timeouts.
    let t0 = Instant::now();
    for _ in 0..100 {
        assert!(matches!(
            rc.call(Request::Stats, None),
            Err(CallError::CircuitOpen { .. })
        ));
    }
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "100 fast-failures took {:?} — the breaker is not shedding",
        t0.elapsed()
    );
    assert_eq!(rc.breaker().fast_failures(), 100);
    assert_eq!(
        rc.metrics().attempts,
        2,
        "no attempt touched the dead endpoint again"
    );
}
