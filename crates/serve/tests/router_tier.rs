//! The shard router's tier semantics, over in-process shard servers.
//!
//! Shards here are `doppio_serve::start` instances in this process —
//! byte-for-byte the same serving stack as a shard child process, minus
//! the fork — which keeps these tests fast and lets them reach into each
//! shard's stats directly. Process-level failure (SIGKILL mid-load) is
//! exercised by the repo-level chaos suite; here a "dead shard" is a
//! drained handle whose listener is gone.

use std::net::SocketAddr;
use std::time::Duration;

use doppio_engine::json::Value;
use doppio_engine::Fingerprintable;
use doppio_learn::RunObservation;
use doppio_serve::protocol::extract_result_payload;
use doppio_serve::ring::DEFAULT_VNODES;
use doppio_serve::{
    start, start_router, BreakerConfig, Client, Envelope, HashRing, PredictSpec, Request,
    RouterConfig, ServeConfig, ServerHandle, SimulateSpec,
};
use doppio_workloads::Workload;

fn shard_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        allow_shutdown: true,
        ..ServeConfig::default()
    }
}

fn spawn_shards(n: usize) -> Vec<ServerHandle> {
    (0..n)
        .map(|_| start(shard_config()).expect("shard starts"))
        .collect()
}

fn router_over(
    shards: &[ServerHandle],
    tweak: impl FnOnce(&mut RouterConfig),
) -> doppio_serve::RouterHandle {
    let mut cfg = RouterConfig {
        shards: shards.iter().map(ServerHandle::addr).collect(),
        // Fast breaker so failover tests don't wait out default cooldowns.
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(200),
            probe_budget: 1,
        },
        shard_timeout_ms: 5_000,
        ..RouterConfig::default()
    };
    tweak(&mut cfg);
    start_router(cfg).expect("router starts")
}

fn whatif(rate: f64) -> Request {
    Request::WhatIf {
        rate,
        at_fraction: 0.5,
        max_failures: 3,
    }
}

/// `n` distinct what-if keys that a ring over `shards` shards places on
/// `owner`. A repeated key is answered from the router's cache, so tests
/// that need every request to reach one particular shard send these.
fn keys_owned_by(owner: usize, shards: u32, n: usize) -> Vec<Request> {
    let ids: Vec<u32> = (0..shards).collect();
    let ring = HashRing::new(&ids, DEFAULT_VNODES);
    (1..)
        .map(|i| whatif(f64::from(i) / 1000.0))
        .filter(|r| ring.shard_for(&r.fingerprint()) as usize == owner)
        .take(n)
        .collect()
}

fn simulate() -> Request {
    Request::Simulate(SimulateSpec {
        workload: Workload::Terasort,
        nodes: 2,
        cores: 4,
        config: doppio_cluster::HybridConfig::SsdSsd,
        seed: 42,
        paper: false,
        inject: None,
        fault_seed: 7,
    })
}

/// One endpoint's `stats` payload, over a fresh connection.
fn stats_of(addr: SocketAddr) -> Value {
    let mut c = Client::connect(addr).expect("stats client");
    c.call(Request::Stats, Some(5_000))
        .expect("stats reply")
        .result
        .expect("stats payload")
}

/// The counter at `path` (nested object keys) of a stats payload.
fn stat_at(v: &Value, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats missing {}", path.join(".")))
}

/// The raw reply line through the router must equal the raw line a
/// single-process server produces for the same envelope — cold and
/// cached alike.
#[test]
fn routed_replies_are_bit_identical_to_direct_serving() {
    let control = start(shard_config()).expect("control server starts");
    let shards = spawn_shards(2);
    let router = router_over(&shards, |_| {});

    let mut direct = Client::connect(control.addr()).expect("direct client");
    let mut routed = Client::connect(router.addr()).expect("routed client");

    for (i, request) in [whatif(0.25), simulate(), whatif(0.75)]
        .into_iter()
        .enumerate()
    {
        // Same id on both paths so the rendered lines are comparable in
        // full, not just their payload suffix.
        for pass in 0..2 {
            let env = Envelope {
                id: format!("ident-{i}-{pass}"),
                deadline_ms: None,
                request: request.clone(),
            };
            direct.send(&env).expect("direct send");
            let want = direct.recv().expect("direct reply").expect("direct line");
            routed.send(&env).expect("routed send");
            let got = routed.recv().expect("routed reply").expect("routed line");
            assert!(want.ok && got.ok, "both paths succeed");
            assert_eq!(
                got.raw, want.raw,
                "routed reply diverges from direct serving (pass {pass})"
            );
            if pass == 1 {
                assert!(got.cached, "second pass is a cache hit");
            }
        }
    }
}

/// Two identical requests pipelined in one burst: the second joins the
/// first's router flight and comes back `coalesced` with the same bytes.
#[test]
fn concurrent_identical_requests_coalesce_at_the_router() {
    let shards = spawn_shards(1);
    let router = router_over(&shards, |_| {});
    let mut client = Client::connect(router.addr()).expect("client connects");

    // One write carries both lines, so the reactor dispatches them in one
    // batch — the second join lands while the forward round-trip (connect
    // + simulate evaluation) is still in flight.
    let a = Envelope {
        id: "co-a".into(),
        deadline_ms: None,
        request: simulate(),
    };
    let b = Envelope {
        id: "co-b".into(),
        deadline_ms: None,
        request: simulate(),
    };
    let mut burst = a.encode();
    burst.push('\n');
    burst.push_str(&b.encode());
    burst.push('\n');
    let raw = burst;
    // `Client` has no raw-write surface; speak the socket directly.
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(router.addr()).expect("socket");
    stream.write_all(raw.as_bytes()).expect("burst write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut replies = Vec::new();
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply line");
        replies.push(doppio_serve::Reply::parse(line.trim()).expect("parses"));
    }
    let coalesced = replies.iter().filter(|r| r.coalesced).count();
    assert_eq!(coalesced, 1, "exactly one rider coalesces: {replies:?}");
    assert!(replies.iter().all(|r| r.ok));

    let stats = client
        .call(Request::Stats, Some(5_000))
        .expect("stats reply");
    let router_stats = stats.result.as_ref().and_then(|v| v.get("router")).cloned();
    let coalesced_count = router_stats
        .as_ref()
        .and_then(|v| v.get("coalesced"))
        .and_then(doppio_engine::json::Value::as_u64)
        .unwrap_or(0);
    assert!(
        coalesced_count >= 1,
        "router stats record the coalesce: {router_stats:?}"
    );
}

/// A repeated key is answered from the router's own cache: no shard sees
/// it a second time, and the reply line is byte for byte the one a single
/// process renders for its own cache hit.
#[test]
fn repeated_keys_are_answered_at_the_router_without_a_shard() {
    let control = start(shard_config()).expect("control server starts");
    let shards = spawn_shards(2);
    let router = router_over(&shards, |_| {});
    let mut direct = Client::connect(control.addr()).expect("direct client");
    let mut routed = Client::connect(router.addr()).expect("routed client");
    let mut pass = |id: &str| {
        let env = Envelope {
            id: id.into(),
            deadline_ms: None,
            request: simulate(),
        };
        direct.send(&env).expect("direct send");
        let want = direct.recv().expect("direct reply").expect("direct line");
        routed.send(&env).expect("routed send");
        let got = routed.recv().expect("routed reply").expect("routed line");
        (want, got)
    };
    let shard_counters = || -> Vec<(u64, u64)> {
        shards
            .iter()
            .map(|s| {
                let v = stats_of(s.addr());
                (stat_at(&v, &["completed"]), stat_at(&v, &["cache", "hits"]))
            })
            .collect()
    };

    let (_, first) = pass("repeat-0");
    assert!(first.ok && !first.cached, "the first pass is forwarded");
    let shards_before = shard_counters();
    let router_before = stats_of(router.addr());

    let (want, got) = pass("repeat-1");
    assert!(got.ok && got.cached, "the repeat is a cache hit");
    assert_eq!(got.raw, want.raw, "router cache hit diverges from direct");
    assert_eq!(
        shard_counters(),
        shards_before,
        "the repeat reached a shard"
    );
    let router_after = stats_of(router.addr());
    let moved = |path: &[&str]| stat_at(&router_after, path) - stat_at(&router_before, path);
    assert_eq!(moved(&["router", "cache", "hits"]), 1);
    assert_eq!(moved(&["router", "forwarded"]), 0);
}

/// Error replies are never cached: the same failing request is forwarded
/// again, so a transient failure cannot poison its key at the router.
#[test]
fn failed_replies_are_not_cached_at_the_router() {
    let shards = vec![start(ServeConfig {
        panic_seed: Some(42), // simulate()'s seed: every evaluation panics
        ..shard_config()
    })
    .expect("shard starts")];
    let router = router_over(&shards, |_| {});
    let mut client = Client::connect(router.addr()).expect("client connects");
    for i in 0..2 {
        let reply = client.call(simulate(), Some(10_000)).expect("reply");
        assert!(!reply.ok, "request {i} must fail");
        assert_eq!(reply.error_code.as_deref(), Some("internal_error"));
    }
    assert_eq!(
        stat_at(&stats_of(shards[0].addr()), &["panics"]),
        2,
        "the second identical request reached the shard"
    );
    let v = stats_of(router.addr());
    assert_eq!(stat_at(&v, &["router", "forwarded"]), 2);
    assert_eq!(stat_at(&v, &["router", "cache", "hits"]), 0);
    assert_eq!(stat_at(&v, &["router", "cache", "len"]), 0);
}

/// A corrected `predict` depends on learner state only its owner shard
/// holds, so the router never answers one from its cache: issued after an
/// `observe`, it reflects the new corrector.
#[test]
fn corrected_predict_after_observe_is_never_served_stale() {
    let shards = spawn_shards(2);
    let router = router_over(&shards, |_| {});
    let mut client = Client::connect(router.addr()).expect("client connects");
    let predict = Request::Predict(PredictSpec {
        workload: Workload::Terasort,
        nodes: 2,
        cores: 8,
        config: doppio_cluster::HybridConfig::HddHdd,
        paper: false,
        profile_nodes: 3,
        corrected: true,
    });
    let corrected = |client: &mut Client| -> String {
        let reply = client.call(predict.clone(), None).expect("predict reply");
        assert!(reply.ok, "corrected predict: {:?}", reply.error_message);
        extract_result_payload(&reply.raw)
            .expect("result payload")
            .to_string()
    };

    let before = corrected(&mut client);
    assert_eq!(corrected(&mut client), before, "no ingest, no change");
    for line in include_str!("../../../tests/fixtures/observations_slowdisk.ndjson").lines() {
        if line.trim().is_empty() {
            continue;
        }
        let obs = RunObservation::parse_line(line).expect("fixture line parses");
        let reply = client
            .call(Request::Observe(obs), None)
            .expect("observe reply");
        assert!(reply.ok, "observe: {:?}", reply.error_message);
    }
    assert_ne!(
        corrected(&mut client),
        before,
        "a corrected predict after observe must reflect the new corrector"
    );

    let v = stats_of(router.addr());
    assert_eq!(stat_at(&v, &["router", "cache", "hits"]), 0);
    assert_eq!(stat_at(&v, &["router", "cache", "misses"]), 0);
    assert_eq!(stat_at(&v, &["router", "cache", "len"]), 0);
}

/// A draining router refuses work, and a key it holds cached is no
/// exception: the drain check runs before the cache lookup.
#[test]
fn draining_router_refuses_cached_keys() {
    use std::sync::atomic::Ordering;

    let shards = spawn_shards(1);
    let gate = slow_gate(shards[0].addr());
    let router = start_router(RouterConfig {
        shards: vec![gate.addr],
        ..RouterConfig::default()
    })
    .expect("router starts");
    let mut client = Client::connect(router.addr()).expect("client connects");
    let hot = whatif(0.5);
    for _ in 0..2 {
        let reply = client.call(hot.clone(), Some(10_000)).expect("warm reply");
        assert!(reply.ok, "warm-up: {:?}", reply.error_message);
    }
    assert_eq!(
        stat_at(&stats_of(router.addr()), &["router", "cache", "hits"]),
        1
    );

    // A slow forward keeps the drain from completing, so the router
    // stays up — and draining — while the cached key is asked again.
    gate.delay_ms.store(500, Ordering::Relaxed);
    let mut slow = Client::connect(router.addr()).expect("slow client");
    slow.send_request(whatif(0.25), None).expect("slow send");
    std::thread::sleep(Duration::from_millis(100));
    router.shutdown();

    let refused = client
        .call(hot, Some(10_000))
        .expect("reply while draining");
    assert!(!refused.ok, "a draining router answered from its cache");
    assert_eq!(refused.error_code.as_deref(), Some("shutting_down"));
    let finished = slow.recv().expect("slow reply").expect("slow line");
    assert!(finished.ok, "the in-flight forward still completes");
}

/// Learners calibrate on a 3-node profiling cluster, so a corrected
/// predict with any other `profile_nodes` has no corrector that fits it.
/// It is refused as a `bad_request` before any flight or pool slot is
/// spent — served direct and through the router alike, with the same
/// reply line.
#[test]
fn corrected_predict_off_the_learners_profile_cluster_is_refused() {
    let shards = spawn_shards(1);
    let router = router_over(&shards, |_| {});
    let request = Request::Predict(PredictSpec {
        workload: Workload::Terasort,
        nodes: 2,
        cores: 8,
        config: doppio_cluster::HybridConfig::HddHdd,
        paper: false,
        profile_nodes: 5,
        corrected: true,
    });
    let mut lines = Vec::new();
    for addr in [shards[0].addr(), router.addr()] {
        let mut client = Client::connect(addr).expect("client connects");
        let reply = client.call(request.clone(), Some(10_000)).expect("reply");
        assert!(!reply.ok, "a 5-node corrected predict was answered");
        assert_eq!(reply.error_code.as_deref(), Some("bad_request"));
        let message = reply.error_message.clone().unwrap_or_default();
        assert!(
            message.contains("profile_nodes = 3"),
            "the refusal names the field and the value it needs: {message}"
        );
        lines.push(reply.raw);
    }
    assert_eq!(lines[0], lines[1], "routed refusal differs from direct");

    let v = stats_of(shards[0].addr());
    assert_eq!(stat_at(&v, &["bad_requests"]), 2);
    assert_eq!(stat_at(&v, &["admitted"]), 0, "no pool slot was spent");
    assert_eq!(stat_at(&v, &["in_flight"]), 0, "no flight was opened");
}

/// Killing a key's owning shard re-routes its requests to the next ring
/// successor — the breaker turns repeated connect failures into
/// microsecond skips, and the tier keeps answering.
#[test]
fn failover_reroutes_when_the_owning_shard_dies() {
    let mut shards = spawn_shards(3);
    let router = router_over(&shards, |_| {});
    let mut client = Client::connect(router.addr()).expect("client connects");

    // Pick a request owned by a known shard (the router's ring is a pure
    // function of shard count and vnodes, so we can predict placement).
    let ring = HashRing::new(&[0, 1, 2], DEFAULT_VNODES);
    let request = whatif(0.5);
    let owner = ring.shard_for(&request.fingerprint()) as usize;

    // Warm the key on its owner, then kill the owner.
    let warm = client.call(request.clone(), Some(10_000)).expect("warm");
    assert!(warm.ok);
    let dead = shards.remove(owner);
    drop(dead); // drains: listener closed, address refuses connections

    // Every subsequent request must still get a semantic reply, served
    // by a surviving successor. Each is a distinct key the dead shard
    // owned, so none is answered from the router's cache.
    for (i, request) in keys_owned_by(owner, 3, 6).into_iter().enumerate() {
        let reply = client.call(request, Some(10_000)).expect("reply");
        assert!(
            reply.ok,
            "request {i} failed after shard death: {:?}",
            reply.error_message
        );
    }

    let stats = client.call(Request::Stats, Some(5_000)).expect("stats");
    let router_stats = stats
        .result
        .as_ref()
        .and_then(|v| v.get("router"))
        .cloned()
        .expect("router sub-object");
    let failovers = router_stats
        .get("failovers")
        .and_then(doppio_engine::json::Value::as_u64)
        .unwrap_or(0);
    let shards_ok = router_stats
        .get("shards_ok")
        .and_then(doppio_engine::json::Value::as_u64)
        .unwrap_or(99);
    assert!(failovers >= 1, "failovers recorded: {router_stats:?}");
    assert_eq!(shards_ok, 2, "one shard is gone: {router_stats:?}");
}

/// Tier stats keep the single-process schema with shard sums, and the
/// aggregate actually reflects work done on the shards.
#[test]
fn stats_aggregate_across_shards_under_the_same_schema() {
    let shards = spawn_shards(2);
    let router = router_over(&shards, |_| {});
    let mut client = Client::connect(router.addr()).expect("client connects");

    for i in 0..6 {
        let reply = client
            .call(whatif(0.1 + f64::from(i) * 0.07), Some(10_000))
            .expect("reply");
        assert!(reply.ok);
    }

    let stats = client.call(Request::Stats, Some(5_000)).expect("stats");
    let v = stats.result.expect("stats payload");
    let u = |key: &str| {
        v.get(key)
            .and_then(doppio_engine::json::Value::as_u64)
            .unwrap_or_else(|| panic!("stats missing {key}"))
    };
    assert_eq!(
        v.get("schema").and_then(doppio_engine::json::Value::as_str),
        Some("doppio-serve-stats/v1"),
        "tier stats keep the single-process schema"
    );
    assert_eq!(u("completed"), 6, "every request evaluated exactly once");
    assert_eq!(u("workers"), 2, "workers summed across shards");
    let router_v = v.get("router").expect("router sub-object");
    let ru = |key: &str| {
        router_v
            .get(key)
            .and_then(doppio_engine::json::Value::as_u64)
            .unwrap_or_else(|| panic!("router stats missing {key}"))
    };
    assert_eq!(ru("shards"), 2);
    assert_eq!(ru("shards_ok"), 2);
    assert_eq!(ru("forwarded"), 6);
    // Six distinct keys: six router-cache misses, all six payloads kept.
    for (key, want) in [
        ("hits", 0),
        ("misses", 6),
        ("evictions", 0),
        ("len", 6),
        ("capacity", 4096),
    ] {
        assert_eq!(
            stat_at(router_v, &["cache", key]),
            want,
            "router.cache.{key}"
        );
    }

    // Health aggregates the same way: all shards up means ready.
    let health = client.call(Request::Health, Some(5_000)).expect("health");
    let h = health.result.expect("health payload");
    assert_eq!(
        h.get("ready").and_then(doppio_engine::json::Value::as_bool),
        Some(true)
    );
    assert_eq!(
        h.get("shards_ready")
            .and_then(doppio_engine::json::Value::as_u64),
        Some(2)
    );
}

/// A transparent TCP gate in front of one shard whose reply-side delay
/// can be changed mid-test: 0 while the router's latency histogram warms
/// up with honest fast samples, then cranked up to fake a shard that
/// suddenly develops a latency tail — the scenario hedging exists for.
struct SlowGate {
    addr: std::net::SocketAddr,
    delay_ms: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

fn slow_gate(target: std::net::SocketAddr) -> SlowGate {
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("gate binds");
    let addr = listener.local_addr().expect("gate addr");
    let delay_ms = Arc::new(AtomicU64::new(0));
    let delay = Arc::clone(&delay_ms);
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(client) = conn else { break };
            let Ok(server) = std::net::TcpStream::connect(target) else {
                continue;
            };
            // Request side: transparent byte pump.
            let (c_in, s_out) = (
                client.try_clone().expect("clone"),
                server.try_clone().expect("clone"),
            );
            std::thread::spawn(move || {
                let (mut r, mut w) = (&c_in, &s_out);
                let _ = std::io::copy(&mut r, &mut w);
                let _ = s_out.shutdown(std::net::Shutdown::Write);
            });
            // Reply side: each chunk stalled by the *current* delay, so a
            // connection pooled while the gate was fast still turns slow.
            let delay = Arc::clone(&delay);
            std::thread::spawn(move || {
                let mut buf = [0u8; 4096];
                loop {
                    match (&server).read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            let ms = delay.load(Ordering::Relaxed);
                            if ms > 0 {
                                std::thread::sleep(Duration::from_millis(ms));
                            }
                            if (&client).write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
                let _ = client.shutdown(std::net::Shutdown::Write);
            });
        }
    });
    SlowGate { addr, delay_ms }
}

/// Hedging cuts the tail a suddenly-slow shard inflicts: once the owning
/// shard's replies stall past its learned latency quantile, the router
/// races the ring successor and the fast answer wins — while a control
/// router with hedging disabled eats the full stall on every request.
/// Every request id still resolves to exactly one reply.
#[test]
fn hedging_cuts_the_tail_of_a_suddenly_slow_shard() {
    use std::sync::atomic::Ordering;

    let shards = spawn_shards(2);
    let owner =
        HashRing::new(&[0, 1], DEFAULT_VNODES).shard_for(&whatif(0.5).fingerprint()) as usize;
    // Distinct keys the gated shard owns: a repeat would be a router
    // cache hit and never reach the gate.
    let keys = keys_owned_by(owner, 2, 22);
    let (warm_keys, measured_keys) = keys.split_at(12);
    let gate = slow_gate(shards[owner].addr());
    let gated_addrs = |shards: &[ServerHandle]| -> Vec<std::net::SocketAddr> {
        shards
            .iter()
            .enumerate()
            .map(|(i, s)| if i == owner { gate.addr } else { s.addr() })
            .collect()
    };

    let hedged = start_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: gated_addrs(&shards),
        hedge_min_samples: 8,
        shard_timeout_ms: 5_000,
        ..RouterConfig::default()
    })
    .expect("hedged router starts");
    let control = start_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: gated_addrs(&shards),
        hedging: false,
        shard_timeout_ms: 5_000,
        ..RouterConfig::default()
    })
    .expect("control router starts");

    let mut hedged_client = Client::connect(hedged.addr()).expect("hedged client");
    let mut control_client = Client::connect(control.addr()).expect("control client");

    // Warm both routers' histograms past the sample floor while the gate
    // is transparent: the owner's learned quantile reflects a fast shard.
    for request in warm_keys {
        for c in [&mut hedged_client, &mut control_client] {
            let r = c.call(request.clone(), Some(10_000)).expect("warm reply");
            assert!(r.ok, "warm-up request failed: {:?}", r.error_message);
        }
    }

    // The owner develops a 150 ms stall on every reply chunk.
    gate.delay_ms.store(150, Ordering::Relaxed);

    let measure = |client: &mut Client| -> Vec<Duration> {
        measured_keys
            .iter()
            .enumerate()
            .map(|(i, request)| {
                let t0 = std::time::Instant::now();
                let r = client.call(request.clone(), Some(10_000)).expect("reply");
                assert!(r.ok, "request {i} failed: {:?}", r.error_message);
                t0.elapsed()
            })
            .collect()
    };
    let mut slow = measure(&mut control_client);
    let mut fast = measure(&mut hedged_client);
    slow.sort();
    fast.sort();
    let (p99_slow, p99_fast) = (slow[slow.len() - 1], fast[fast.len() - 1]);

    assert!(
        p99_slow >= Duration::from_millis(100),
        "control must eat the stall, took only {p99_slow:?}"
    );
    assert!(
        p99_fast < p99_slow / 2,
        "hedging must cut the tail: hedged {p99_fast:?} vs control {p99_slow:?}"
    );

    // The router accounted for the race, and the successor's wins are
    // visible per shard.
    let stats = hedged_client
        .call(Request::Stats, Some(5_000))
        .expect("stats");
    let router_stats = stats
        .result
        .as_ref()
        .and_then(|v| v.get("router"))
        .cloned()
        .expect("router sub-object");
    let n = |k: &str| {
        router_stats
            .get(k)
            .and_then(doppio_engine::json::Value::as_u64)
            .unwrap_or(0)
    };
    assert!(n("hedged") >= 1, "hedges launched: {router_stats:?}");
    assert!(n("hedge_wins") >= 1, "hedges won: {router_stats:?}");
    let control_stats = control_client
        .call(Request::Stats, Some(5_000))
        .expect("control stats");
    let control_hedged = control_stats
        .result
        .as_ref()
        .and_then(|v| v.get("router"))
        .and_then(|v| v.get("hedged"))
        .and_then(doppio_engine::json::Value::as_u64)
        .unwrap_or(99);
    assert_eq!(control_hedged, 0, "hedging off means zero hedges");
}

/// A remote shutdown through the router drains the whole tier: router
/// replies, fans out to every shard, and all listeners go away.
#[test]
fn shutdown_fans_out_to_every_shard() {
    let shards = spawn_shards(2);
    let shard_addrs: Vec<_> = shards.iter().map(ServerHandle::addr).collect();
    let router = router_over(&shards, |cfg| {
        cfg.allow_shutdown = true;
    });
    let router_addr = router.addr();

    let mut client = Client::connect(router_addr).expect("client connects");
    let reply = client
        .call(Request::Shutdown, Some(10_000))
        .expect("shutdown reply");
    assert!(reply.ok, "shutdown acknowledged");

    // The router's reactor exits once the fan-out finishes draining.
    router.wait();
    for handle in shards {
        handle.wait(); // returns because the remote shutdown drained it
    }
    for addr in shard_addrs {
        assert!(
            std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
            "shard listener must be gone after tier shutdown"
        );
    }
    assert!(
        std::net::TcpStream::connect_timeout(&router_addr, Duration::from_millis(500)).is_err(),
        "router listener must be gone after shutdown"
    );
}
