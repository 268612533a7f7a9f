//! Overload behavior: a saturated server sheds with structured
//! `overloaded` replies instead of blocking, every request id gets
//! exactly one reply, and the server keeps serving afterwards. Also the
//! admission edges around it: what a draining server still answers, what
//! it refuses, and which requests are refused before they reach the queue.

use std::collections::HashMap;

use doppio::cluster::HybridConfig;
use doppio::serve::{start, Client, Envelope, PredictSpec, Request, ServeConfig, SimulateSpec};
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

#[test]
fn saturated_queue_sheds_and_recovers() {
    let handle = start(ServeConfig {
        workers: 1,
        queue_bound: 2,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");

    // Pipeline 30 distinct requests (distinct seeds → distinct cache
    // keys, so nothing coalesces) far faster than one worker can drain.
    const N: u64 = 30;
    for i in 0..N {
        client
            .send(&Envelope {
                id: format!("burst-{i}"),
                deadline_ms: None,
                request: Request::Simulate(spec(1000 + i)),
            })
            .expect("request sent");
    }

    // Exactly one reply per id, whatever the order they arrive in.
    let mut replies = HashMap::new();
    for _ in 0..N {
        let r = client
            .recv()
            .expect("reply line parses")
            .expect("no EOF before all replies");
        assert!(
            replies.insert(r.id.clone(), r).is_none(),
            "an id replied twice"
        );
    }
    for i in 0..N {
        assert!(
            replies.contains_key(&format!("burst-{i}")),
            "burst-{i} never got a reply"
        );
    }

    let ok = replies.values().filter(|r| r.ok).count();
    let shed = replies
        .values()
        .filter(|r| !r.ok)
        .inspect(|r| {
            assert_eq!(
                r.error_code.as_deref(),
                Some("overloaded"),
                "only load shedding may fail these requests: {:?}",
                r.error_message
            );
            assert!(
                r.queue_depth.is_some(),
                "overloaded replies must report the observed queue depth"
            );
        })
        .count();
    assert!(
        ok >= 1,
        "the worker must complete at least the first request"
    );
    assert!(
        shed >= 1,
        "a bound-2 queue cannot absorb a 30-request burst without shedding"
    );
    assert_eq!(ok + shed, N as usize);

    // The server is still healthy: stats answers inline and the shed
    // counter agrees with what the client observed.
    let stats = client.call(Request::Stats, None).expect("stats reply");
    assert!(stats.ok, "stats failed after the burst");
    let result = stats.result.expect("stats carries a result");
    let shed_counter = result
        .get("shed")
        .and_then(|v| v.as_u64())
        .expect("stats.shed");
    assert_eq!(shed_counter, shed as u64, "server-side shed count agrees");

    // And fresh work still evaluates.
    let after = client
        .call(Request::Simulate(spec(9_999)), None)
        .expect("post-burst simulate");
    assert!(after.ok, "server must keep serving after shedding");

    handle.join();
}

/// A scaled GATK4 predict: each is a full calibration, slow enough to
/// hold the worker while a test asks the server something else.
fn slow_predict(nodes: usize) -> Request {
    Request::Predict(PredictSpec {
        workload: Workload::Gatk4,
        nodes,
        cores: 8,
        config: HybridConfig::HddHdd,
        paper: false,
        profile_nodes: 3,
        corrected: false,
    })
}

/// The counter `key` of the server's `stats` payload.
fn stat(client: &mut Client, key: &str) -> u64 {
    let stats = client.call(Request::Stats, None).expect("stats");
    stats
        .result
        .and_then(|v| v.get(key).and_then(|a| a.as_u64()))
        .unwrap_or_else(|| panic!("stats.{key}"))
}

/// Queues `count` slow predicts on `slow` and returns once the server has
/// admitted `admitted_before + count` requests in all.
fn queue_slow_work(client: &mut Client, slow: &mut Client, count: usize, admitted_before: u64) {
    for i in 0..count {
        slow.send_request(slow_predict(2 + i), None)
            .expect("slow send");
    }
    while stat(client, "admitted") < admitted_before + count as u64 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// A draining shard refuses new work, and a key it holds cached is no
/// exception: the drain check runs before the cache probe, as it does on
/// the router.
#[test]
fn draining_shard_refuses_cached_keys() {
    let handle = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let hot = Request::Simulate(spec(1));
    assert!(client.call(hot.clone(), None).expect("warm").ok);
    assert!(client.call(hot.clone(), None).expect("hit").cached);

    // Queue slow work so the drain cannot finish, and the server stays
    // up — and draining — while the cached key is asked again.
    const SLOW: usize = 2;
    let mut slow = Client::connect(handle.addr()).expect("slow client");
    queue_slow_work(&mut client, &mut slow, SLOW, 1);
    handle.shutdown();

    let refused = client.call(hot, None).expect("reply while draining");
    assert!(!refused.ok, "a draining shard answered from its cache");
    assert_eq!(refused.error_code.as_deref(), Some("shutting_down"));
    for _ in 0..SLOW {
        let finished = slow.recv().expect("slow reply").expect("slow line");
        assert!(finished.ok, "admitted work still completes while draining");
    }
    handle.join();
}

/// `stats` and `health` are control commands, answered inline on the
/// reactor: a draining shard still answers them, and `health` turns not
/// ready while the drain runs — how an operator watches a drain finish.
#[test]
fn draining_shard_still_answers_health_and_stats() {
    let handle = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let health = |client: &mut Client| {
        let reply = client.call(Request::Health, None).expect("health");
        assert!(reply.ok, "health failed: {:?}", reply.error_message);
        let v = reply.result.expect("health payload");
        let flag = |key: &str| v.get(key).and_then(|b| b.as_bool()).expect(key);
        (flag("ready"), flag("draining"))
    };
    assert_eq!(health(&mut client), (true, false), "a fresh shard is ready");

    let mut slow = Client::connect(handle.addr()).expect("slow client");
    queue_slow_work(&mut client, &mut slow, 2, 0);
    handle.shutdown();

    assert_eq!(
        health(&mut client),
        (false, true),
        "a draining shard reports itself draining and not ready"
    );
    let stats = client.call(Request::Stats, None).expect("stats");
    assert!(stats.ok, "stats failed while draining");
    let v = stats.result.expect("stats payload");
    assert_eq!(v.get("draining").and_then(|b| b.as_bool()), Some(true));
    assert_eq!(v.get("admitted").and_then(|a| a.as_u64()), Some(2));
    for _ in 0..2 {
        let finished = slow.recv().expect("slow reply").expect("slow line");
        assert!(finished.ok, "admitted work still completes while draining");
    }
    handle.join();
}

/// A corrected predict off the learners' 3-node calibration cluster is
/// refused at admission: with the worker busy and the queue full, it is
/// still a `bad_request` — never `overloaded` — and it spends no pool slot
/// and opens no flight. The same shape on 3 nodes is answered.
#[test]
fn corrected_predict_off_the_profile_cluster_is_refused_before_the_queue() {
    let handle = start(ServeConfig {
        workers: 1,
        queue_bound: 1,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");

    // One slow predict on the worker, then one in the queue: the pool is
    // full. Each is sent only after the previous one left the queue or
    // entered it, so neither is shed.
    let mut slow = Client::connect(handle.addr()).expect("slow client");
    queue_slow_work(&mut client, &mut slow, 1, 0);
    while stat(&mut client, "queue_depth") > 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    slow.send_request(slow_predict(5), None).expect("slow send");
    while stat(&mut client, "admitted") < 2 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    let corrected = |profile_nodes| {
        Request::Predict(PredictSpec {
            workload: Workload::Terasort,
            nodes: 2,
            cores: 8,
            config: HybridConfig::HddHdd,
            paper: false,
            profile_nodes,
            corrected: true,
        })
    };
    let refused = client.call(corrected(5), None).expect("refusal");
    assert!(!refused.ok, "a 5-node corrected predict was answered");
    assert_eq!(refused.error_code.as_deref(), Some("bad_request"));
    let message = refused.error_message.unwrap_or_default();
    assert!(
        message.contains("profile_nodes = 3"),
        "the refusal names the field and the value it needs: {message}"
    );
    assert_eq!(stat(&mut client, "bad_requests"), 1);
    assert_eq!(stat(&mut client, "shed"), 0, "the refusal was not a shed");
    assert_eq!(stat(&mut client, "admitted"), 2, "no pool slot was spent");

    for _ in 0..2 {
        let finished = slow.recv().expect("slow reply").expect("slow line");
        assert!(finished.ok, "the slow work was not disturbed");
    }
    let answered = client.call(corrected(3), None).expect("3-node reply");
    assert!(
        answered.ok,
        "3-node corrected predict failed: {:?}",
        answered.error_message
    );
    handle.join();
}

/// The wire `shutdown` command is refused with `shutdown_disabled` unless
/// the server was started with it allowed; the refused server keeps
/// serving, and an allowing one acknowledges, drains and exits.
#[test]
fn remote_shutdown_needs_allow_shutdown() {
    let locked = start(ServeConfig::default()).expect("server starts");
    let mut client = Client::connect(locked.addr()).expect("client connects");
    let refused = client.call(Request::Shutdown, None).expect("refusal");
    assert!(!refused.ok, "shutdown was honoured without allow_shutdown");
    assert_eq!(refused.error_code.as_deref(), Some("shutdown_disabled"));
    let after = client
        .call(Request::Simulate(spec(3)), None)
        .expect("simulate");
    assert!(after.ok, "a refused shutdown stopped the server");
    locked.join();

    let open = start(ServeConfig {
        allow_shutdown: true,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(open.addr()).expect("client connects");
    let ack = client.call(Request::Shutdown, None).expect("ack");
    assert!(ack.ok, "allowed shutdown failed: {:?}", ack.error_message);
    let v = ack.result.expect("ack payload");
    assert_eq!(v.get("draining").and_then(|b| b.as_bool()), Some(true));
    // The server drains and exits on its own; `wait` returns once it has.
    open.wait();
}
