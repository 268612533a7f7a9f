//! Served results must be bit-identical to in-process evaluation.
//!
//! The serving layer promises that a `simulate` reply embeds exactly the
//! `doppio-app-run/v1` line that `ScenarioSet::run_all` + `json::app_run`
//! produce in-process — byte for byte, whatever the server's worker
//! count, and again when the reply comes from the cache.

use doppio::cluster::{ClusterSpec, HybridConfig};
use doppio::engine::Engine;
use doppio::scenario::{Scenario, ScenarioSet};
use doppio::serve::protocol::workload_name;
use doppio::serve::{start, Client, Request, ServeConfig, SimulateSpec};
use doppio::sparksim::{json, FaultPlan, FaultProfile, SparkConf};
use doppio::workloads::Workload;

/// The wire requests under test and their in-process twins.
fn specs() -> Vec<SimulateSpec> {
    let base = SimulateSpec {
        workload: Workload::Terasort,
        nodes: 2,
        cores: 4,
        config: HybridConfig::SsdSsd,
        seed: 42,
        paper: false,
        inject: None,
        fault_seed: 7,
    };
    vec![
        base.clone(),
        SimulateSpec {
            seed: 43,
            config: HybridConfig::SsdHdd,
            ..base.clone()
        },
        SimulateSpec {
            workload: Workload::PageRank,
            nodes: 3,
            ..base.clone()
        },
        // The fault-injection path: plan derived from the clean run's
        // horizon, exactly as `doppio simulate --inject` does.
        SimulateSpec {
            inject: Some(FaultProfile::Chaos),
            fault_seed: 11,
            ..base
        },
    ]
}

/// Builds the in-process scenario equivalent to a wire spec.
fn scenario_for(s: &SimulateSpec) -> Scenario {
    let app = s.workload.scaled_app();
    let cluster = ClusterSpec::paper_cluster(s.nodes, 36, s.config);
    let conf = SparkConf::paper().with_cores(s.cores).with_seed(s.seed);
    let faults = match s.inject {
        None => FaultPlan::empty(),
        Some(profile) => {
            let clean = Scenario {
                workload: workload_name(s.workload).to_string(),
                app: app.clone(),
                cluster: cluster.clone(),
                conf: conf.clone(),
                faults: FaultPlan::empty(),
            }
            .run()
            .expect("clean horizon run");
            profile.plan(s.fault_seed, s.nodes, clean.total_time().as_secs())
        }
    };
    Scenario {
        workload: workload_name(s.workload).to_string(),
        app,
        cluster,
        conf,
        faults,
    }
}

/// In-process ground truth: `ScenarioSet::run_all` rendered through the
/// stable `doppio-app-run/v1` serializer.
fn expected_payloads() -> Vec<String> {
    let set = ScenarioSet::new(specs().iter().map(scenario_for).collect());
    set.run_all(&Engine::serial())
        .expect("in-process batch runs")
        .iter()
        .map(|run| json::app_run(run).render_line())
        .collect()
}

fn assert_server_matches(workers: usize, expected: &[String]) {
    let handle = start(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");

    for (spec, want) in specs().into_iter().zip(expected) {
        let reply = client
            .call(Request::Simulate(spec.clone()), None)
            .expect("simulate reply");
        assert!(reply.ok, "simulate failed: {:?}", reply.error_message);
        assert!(!reply.cached, "first evaluation cannot be a cache hit");
        // Bit-identity: `result` is the reply's final field and the server
        // embeds the rendered payload verbatim, so the raw line must end
        // with the exact in-process bytes.
        assert!(
            reply.raw.ends_with(&format!("\"result\": {want}}}")),
            "served bytes diverge from in-process render at {workers} worker(s)\n  spec: {spec:?}\n  raw: {}",
            reply.raw
        );

        // A repeat of the same request is a cache hit carrying the very
        // same payload bytes.
        let again = client
            .call(Request::Simulate(spec), None)
            .expect("cached reply");
        assert!(again.ok && again.cached, "repeat must be served from cache");
        assert!(
            again.raw.ends_with(&format!("\"result\": {want}}}")),
            "cached bytes diverge from in-process render"
        );
    }
    handle.join();
}

#[test]
fn served_replies_are_bit_identical_to_in_process_runs() {
    let expected = expected_payloads();
    // One worker (fully serialized) and four workers (queue + singleflight
    // + cache racing) must both reproduce the in-process bytes.
    assert_server_matches(1, &expected);
    assert_server_matches(4, &expected);
}

/// The shard tier keeps the same promise. Whatever the shard count, a
/// reply routed through the consistent-hash router carries exactly the
/// in-process bytes — placement, the router's result cache, and its
/// verbatim payload splice are all invisible in the output.
#[test]
fn routed_replies_are_bit_identical_at_every_shard_count() {
    use doppio::serve::{start_router, RouterConfig};
    let expected = expected_payloads();
    for shard_count in [1usize, 2, 4] {
        let shards: Vec<_> = (0..shard_count)
            .map(|_| {
                start(ServeConfig {
                    workers: 1,
                    ..ServeConfig::default()
                })
                .expect("shard starts")
            })
            .collect();
        let router = start_router(RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: shards.iter().map(|s| s.addr()).collect(),
            ..RouterConfig::default()
        })
        .expect("router starts");
        let mut client = Client::connect(router.addr()).expect("client connects");

        for (spec, want) in specs().into_iter().zip(&expected) {
            let reply = client
                .call(Request::Simulate(spec.clone()), None)
                .expect("routed reply");
            assert!(
                reply.ok,
                "routed simulate failed: {:?}",
                reply.error_message
            );
            assert!(
                reply.raw.ends_with(&format!("\"result\": {want}}}")),
                "routed bytes diverge from in-process render at {shard_count} shard(s)\n  spec: {spec:?}\n  raw: {}",
                reply.raw
            );
            // The router's cache answers the repeat with the very same
            // bytes and the cached flag, as a shard's own hit would.
            let again = client
                .call(Request::Simulate(spec), None)
                .expect("cached routed reply");
            assert!(again.ok && again.cached, "repeat must be a cache hit");
            assert!(
                again.raw.ends_with(&format!("\"result\": {want}}}")),
                "cached routed bytes diverge at {shard_count} shard(s)"
            );
        }

        drop(client);
        router.shutdown();
        router.join();
        for shard in shards {
            shard.shutdown();
            shard.join();
        }
    }
}

#[test]
fn concurrent_duplicate_requests_share_one_payload() {
    let handle = start(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    })
    .expect("server starts");

    // Four connections pipeline the same request at once; whether each
    // reply was evaluated, coalesced or cached, the payload bytes match.
    let spec = specs().remove(0);
    let payloads: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let spec = spec.clone();
                let addr = handle.addr();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let reply = client
                        .call(Request::Simulate(spec), None)
                        .expect("simulate reply");
                    assert!(reply.ok, "simulate failed: {:?}", reply.error_message);
                    reply.raw
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let want = json::app_run(&scenario_for(&spec).run().expect("in-process run")).render_line();
    for raw in &payloads {
        assert!(
            raw.ends_with(&format!("\"result\": {want}}}")),
            "concurrent reply diverges from in-process render: {raw}"
        );
    }
    handle.join();
}
