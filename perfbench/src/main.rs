//! End-to-end benchmark of the doppio serve tier.
//!
//! The system under test is `doppio serve --shards 4` at the CLI's
//! defaults: a consistent-hash router in front of four shard processes,
//! each with a result cache in front of the simulator. The benchmark
//! reaches it only through the CLI and the wire protocol, so the program's
//! internals can change freely underneath it. The serving workloads send
//! the traffic of the repository's own load generator (`doppio loadgen`):
//! scaled terasort simulations on 2 nodes x 4 cores, first sent with fresh
//! seeds (cold), then replayed (hot), and one fresh seed sent from every
//! connection at once (burst).
//!
//! * `sim-terasort` — closed loop, two connections (one per core of a
//!   2-vCPU host) sending paper-scale terasort simulations (930 GiB, 32
//!   nodes x 36 cores), each with a fresh seed, so every request misses the
//!   cache and the simulator sets the pace.
//! * `serve-hot` — closed loop, the load generator's hot phase: four
//!   connections replaying its 24 warmed seeds, so every request is a
//!   cache hit and the router hop sets the pace.
//! * `serve-open-<rate>` — open loop at `rate` requests per second, evenly
//!   spaced over four pipelined connections: the load generator's default
//!   session (24 fresh seeds, 3 replays of them, a 4-way burst of one fresh
//!   seed) repeated with new seeds. Requests are timed from when they were
//!   due, so queueing in the tier shows in the latencies.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --doppio <path to the doppio binary> --work-dir <scratch dir>`
//! (`perfbench/run.py` builds both binaries and fills in the last two).
//!
//! Every reply is checked: the envelope must answer its own id with
//! `ok: true`; a repeated key must return the payload bytes its first
//! evaluation returned; a fresh simulation must satisfy the terasort
//! invariants; four reference requests must return payloads with pinned
//! digests; and sampled requests are re-sent to every shard directly,
//! where a shard that does not hold them cached re-evaluates them and must
//! produce the same bytes.
//!
//! The last line of standard output is one JSON object. With `--trace 0`
//! it carries the end-to-end metrics (throughput, median and p90 latency
//! of the measured window, and the tier's start-up time); with
//! `--trace 1` it carries the per-layer metrics: the tier's counters over
//! the same window per request, how late an open-loop generator sent, and
//! probes timed after the window (router hop, shard cache hit, one
//! evaluation and its simulator event count).

mod json;
mod open;
mod tier;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Value;
use open::Planned;
use tier::{check_reply, control, Conn, Tier};

/// Tier start-ups per run. A start-up lands in one of two modes ~20 ms
/// apart, depending on whether the shards' port files exist before the
/// router's first 20 ms poll, and the share of each mode follows the
/// host's speed. `setup_s` is the p90 of the start-ups: it stays in the
/// slow mode unless nearly all start-ups are fast, so it does not flip
/// with small shifts of that share.
const SETUPS: usize = 40;
/// The load generator's defaults (`LoadgenConfig::default()`): closed-loop
/// connections, distinct cold seeds, and hot replays of them. Its burst
/// sends one fresh seed from every connection.
const LOADGEN_CONNECTIONS: usize = 4;
const LOADGEN_COLD: usize = 24;
const LOADGEN_HOT_REPEATS: usize = 3;
/// Interleaved routed/direct pairs timed for the router-hop probe.
const HOP_PROBES: usize = 400;
/// Requests re-sent to every shard to cross-check served bytes.
const CROSS_CHECKS: usize = 2;

/// Requests whose payloads are pinned by FNV-1a digest: a simulator,
/// model or rendering change that alters served bytes fails the run.
const REFERENCES: [(&str, u64); 4] = [
    (
        r#""cmd": "simulate", "workload": "terasort", "nodes": 2, "cores": 4, "config": "2ssd", "seed": 7"#,
        0x73b0_a05e_4250_be90,
    ),
    (
        r#""cmd": "simulate", "workload": "terasort", "nodes": 32, "cores": 36, "config": "ssd-hdd", "seed": 1, "paper": true"#,
        0xf370_9f85_601d_0e20,
    ),
    (
        r#""cmd": "predict", "workload": "terasort", "nodes": 5, "cores": 36"#,
        0x9ca3_c454_2944_1aba,
    ),
    (
        r#""cmd": "whatif", "rate": 0.01, "at_fraction": 0.5"#,
        0x63bf_e869_d919_e03d,
    ),
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    SimTerasort,
    ServeHot,
    /// Open loop at this many requests per second.
    ServeOpen(u32),
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "sim-terasort" => Some(Workload::SimTerasort),
            "serve-hot" => Some(Workload::ServeHot),
            _ => name
                .strip_prefix("serve-open-")
                .and_then(|rate| rate.parse().ok())
                .filter(|&rate| rate > 0)
                .map(Workload::ServeOpen),
        }
    }

    fn connections(self) -> usize {
        match self {
            Workload::SimTerasort => 2,
            Workload::ServeHot | Workload::ServeOpen(_) => LOADGEN_CONNECTIONS,
        }
    }

    /// The next request of a closed-loop connection.
    fn draw(self, rng: &mut Rng) -> Op {
        match self {
            Workload::SimTerasort => Op::ColdPaper(rng.seed_value()),
            Workload::ServeHot => Op::Hot(rng.below(LOADGEN_COLD as u64) as usize),
            Workload::ServeOpen(_) => unreachable!("an open loop follows its plan"),
        }
    }

    /// A fresh request that misses every cache, shaped like this
    /// workload's evaluations.
    fn fresh(self, rng: &mut Rng) -> Op {
        match self {
            Workload::SimTerasort => Op::ColdPaper(rng.seed_value()),
            Workload::ServeHot | Workload::ServeOpen(_) => Op::ColdSmall(rng.seed_value()),
        }
    }
}

/// SplitMix64: small, seedable, and identical on every platform.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A simulation seed: 53 bits, so it survives any JSON reader.
    fn seed_value(&mut self) -> u64 {
        self.next() >> 11
    }
}

/// One request of a closed-loop connection.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A key of the warmed hot set.
    Hot(usize),
    /// A fresh scaled terasort simulation on 2 nodes x 4 cores.
    ColdSmall(u64),
    /// A fresh paper-scale terasort simulation on 32 nodes x 36 cores.
    ColdPaper(u64),
}

/// The load generator's request: scaled terasort on 2 nodes x 4 cores.
fn small_sim(seed: u64) -> String {
    format!(
        r#""cmd": "simulate", "workload": "terasort", "nodes": 2, "cores": 4, "config": "2ssd", "seed": {seed}"#
    )
}

fn paper_sim(seed: u64) -> String {
    format!(
        r#""cmd": "simulate", "workload": "terasort", "nodes": 32, "cores": 36, "config": "ssd-hdd", "seed": {seed}, "paper": true"#
    )
}

/// Terasort's task counts per stage (map, reduce) at each scale.
const SMALL_TASKS: [f64; 2] = [464.0, 58.0];
const PAPER_TASKS: [f64; 2] = [7440.0, 930.0];

/// The warmed keys: request bodies and the payload each first returned.
struct Inputs {
    hot: Vec<(String, String)>,
}

impl Inputs {
    fn generate(workload: Workload, rng: &mut Rng) -> Inputs {
        let hot = match workload {
            Workload::ServeHot => (0..LOADGEN_COLD)
                .map(|_| (small_sim(rng.seed_value()), String::new()))
                .collect(),
            Workload::SimTerasort | Workload::ServeOpen(_) => Vec::new(),
        };
        Inputs { hot }
    }

    /// Sends every key once, so the measured window starts warm, and
    /// records the payloads later replies must repeat.
    fn warm(&mut self, conn: &mut Conn) -> Result<u64, String> {
        for (i, (body, payload)) in self.hot.iter_mut().enumerate() {
            *payload = fetch(conn, &format!("warm-hot-{i}"), body)?;
            check_app_run(payload, SMALL_TASKS)?;
        }
        Ok(self.hot.len() as u64)
    }

    fn body(&self, op: Op) -> String {
        match op {
            Op::Hot(k) => self.hot[k].0.clone(),
            Op::ColdSmall(seed) => small_sim(seed),
            Op::ColdPaper(seed) => paper_sim(seed),
        }
    }

    fn verify(&self, op: Op, payload: &str) -> Result<(), String> {
        match op {
            Op::Hot(k) if payload == self.hot[k].1 => Ok(()),
            Op::Hot(_) => Err(format!(
                "a repeated key returned other bytes than its first evaluation: {payload}"
            )),
            Op::ColdSmall(_) => check_app_run(payload, SMALL_TASKS),
            Op::ColdPaper(_) => check_app_run(payload, PAPER_TASKS),
        }
    }
}

/// The open-loop schedule: the load generator's default session — its
/// cold seeds, its hot replays of them, then one fresh seed from every
/// connection at once — repeated with new seeds for `seconds`. Requests are
/// evenly spaced at `rate` per second and dealt round-robin over the
/// connections; a burst's requests share the due time of its first.
fn open_plan(rate: u32, seconds: u64, rng: &mut Rng) -> Vec<Planned> {
    let total = u64::from(rate) * seconds;
    let due = |slot: u64| slot as f64 / f64::from(rate);
    let mut plan = Vec::new();
    while (plan.len() as u64) < total {
        let cold: Vec<u64> = (0..LOADGEN_COLD).map(|_| rng.seed_value()).collect();
        let hot = (0..LOADGEN_HOT_REPEATS).flat_map(|_| cold.iter().map(|&s| (s, false)));
        for (seed, first) in cold.iter().map(|&s| (s, true)).chain(hot) {
            let slot = plan.len() as u64;
            plan.push(Planned {
                due: due(slot),
                conn: slot as usize % LOADGEN_CONNECTIONS,
                seed,
                first,
            });
        }
        let (seed, slot) = (rng.seed_value(), plan.len() as u64);
        plan.extend((0..LOADGEN_CONNECTIONS).map(|conn| Planned {
            due: due(slot),
            conn,
            seed,
            first: conn == 0,
        }));
    }
    plan.truncate(total as usize);
    plan
}

fn request_line(id: &str, body: &str) -> String {
    format!(r#"{{"v": 1, "id": "{id}", {body}}}"#)
}

/// One checked round trip; returns the result payload.
fn fetch(conn: &mut Conn, id: &str, body: &str) -> Result<String, String> {
    let line = conn.call(&request_line(id, body))?;
    Ok(check_reply(line, id)?.to_string())
}

fn parse_payload(payload: &str) -> Result<Value, String> {
    json::parse(payload).map_err(|e| format!("payload is not JSON ({e}): {payload}"))
}

fn num(v: &Value, path: &[&str]) -> Result<f64, String> {
    v.at(path)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("payload lacks the number {}", path.join(".")))
}

/// Invariants of a served terasort run: the schema, one map and one
/// reduce stage with the scale's task counts, positive durations that sum
/// to the total, and no event left pending.
fn check_app_run(payload: &str, tasks: [f64; 2]) -> Result<(), String> {
    let v = parse_payload(payload)?;
    if v.get("schema").and_then(Value::as_str) != Some("doppio-app-run/v1")
        || v.get("app").and_then(Value::as_str) != Some("Terasort")
    {
        return Err(format!("not a terasort run: {payload}"));
    }
    let total = num(&v, &["total_secs"])?;
    let stages = v.get("stages").and_then(Value::as_arr).unwrap_or_default();
    if stages.len() != 2 {
        return Err(format!("expected 2 stages: {payload}"));
    }
    let mut sum = 0.0;
    for (stage, want) in stages.iter().zip(tasks) {
        let secs = num(stage, &["duration_secs"])?;
        sum += secs;
        if secs.is_nan() || secs <= 0.0 || num(stage, &["tasks", "count"])? != want {
            return Err(format!("stage has a bad duration or task count: {payload}"));
        }
        if num(stage, &["sched", "events_pending"])? != 0.0 {
            return Err(format!("stage left events pending: {payload}"));
        }
    }
    if !total.is_finite() || (sum - total).abs() > 1e-9 * total {
        return Err(format!(
            "stage durations do not sum to the total: {payload}"
        ));
    }
    Ok(())
}

/// Simulator events fired per run, summed over stages.
fn events_fired(payload: &str) -> Result<f64, String> {
    let v = parse_payload(payload)?;
    v.get("stages")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|s| num(s, &["sched", "events_fired"]))
        .sum()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What one closed-loop connection saw.
#[derive(Default)]
struct ConnResult {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    /// Fresh requests and the payloads the router returned for them.
    samples: Vec<(String, String)>,
    end: Option<Instant>,
}

fn drive(
    mut conn: Conn,
    index: usize,
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    deadline: Instant,
) -> ConnResult {
    let mut rng = Rng::new(seed ^ (index as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut out = ConnResult::default();
    while Instant::now() < deadline {
        let op = workload.draw(&mut rng);
        let id = format!("c{index}-{}", out.attempted);
        let body = inputs.body(op);
        let request = request_line(&id, &body);
        out.attempted += 1;
        let started = Instant::now();
        let line = match conn.call(&request) {
            Ok(line) => line,
            Err(e) => {
                out.failures.push(e);
                break;
            }
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        match check_reply(line, &id).and_then(|p| inputs.verify(op, p).map(|()| p)) {
            Ok(payload) => {
                out.latencies_ms.push(ms);
                let fresh = matches!(op, Op::ColdSmall(_) | Op::ColdPaper(_));
                if fresh && out.samples.len() < CROSS_CHECKS {
                    out.samples.push((body, payload.to_string()));
                }
            }
            Err(e) => out.failures.push(e),
        }
        out.end = Some(Instant::now());
    }
    out
}

/// The measured window.
struct Window {
    /// Latencies of the completed requests, sorted: from send in a closed
    /// loop, from due time in an open loop.
    latencies_ms: Vec<f64>,
    /// How late an open-loop generator sent each request, sorted; empty
    /// for a closed loop.
    send_lag_ms: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    /// Fresh request bodies and the payloads the router returned.
    samples: Vec<(String, String)>,
    /// Until the last reply.
    elapsed: Duration,
}

/// A closed loop: every connection sends its next request when the last
/// one is answered, until the deadline.
fn measure_closed(
    addr: SocketAddr,
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    seconds: u64,
) -> Result<Window, String> {
    let conns = (0..workload.connections())
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, conn)| scope.spawn(move || drive(conn, i, workload, inputs, seed, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load connection thread panicked"))
            .collect()
    });
    let end = results.iter().filter_map(|r| r.end).max().unwrap_or(start);
    let mut window = Window {
        latencies_ms: Vec::new(),
        send_lag_ms: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        samples: Vec::new(),
        elapsed: end - start,
    };
    for r in results {
        window.latencies_ms.extend(r.latencies_ms);
        window.attempted += r.attempted;
        window.failures.extend(r.failures);
        window.samples.extend(r.samples);
    }
    window.latencies_ms.sort_by(f64::total_cmp);
    Ok(window)
}

/// An open loop at `rate` requests per second.
fn measure_open(
    addr: SocketAddr,
    rate: u32,
    rng: &mut Rng,
    seconds: u64,
) -> Result<Window, String> {
    let plan = open_plan(rate, seconds, rng);
    let check = |payload: &str| check_app_run(payload, SMALL_TASKS);
    let w = open::run(
        addr,
        LOADGEN_CONNECTIONS,
        &plan,
        &small_sim,
        &check,
        CROSS_CHECKS,
    )?;
    let mut window = Window {
        latencies_ms: w.latencies_ms,
        send_lag_ms: w.send_lag_ms,
        attempted: plan.len() as u64,
        failures: w.failures,
        samples: w
            .samples
            .into_iter()
            .map(|(seed, payload)| (small_sim(seed), payload))
            .collect(),
        elapsed: w.elapsed,
    };
    window.latencies_ms.sort_by(f64::total_cmp);
    window.send_lag_ms.sort_by(f64::total_cmp);
    Ok(window)
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, 0.5)
}

/// Tally of the checks made outside the measured window.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(e);
        }
    }
}

fn check_references(conn: &mut Conn, checks: &mut Checks) {
    for (i, (body, digest)) in REFERENCES.iter().enumerate() {
        let outcome = fetch(conn, &format!("ref-{i}"), body).and_then(|payload| {
            let got = fnv1a(payload.as_bytes());
            if got == *digest {
                Ok(())
            } else {
                Err(format!(
                    "reference {i} payload digest {got:#018x}, pinned {digest:#018x}: {payload}"
                ))
            }
        });
        checks.record(outcome);
    }
}

/// Re-sends requests to every shard directly: shards that do not hold a
/// request cached evaluate it afresh, and every answer must carry the
/// bytes the router returned.
fn cross_check(shards: &[SocketAddr], samples: &[(String, String)], checks: &mut Checks) {
    for (s, (body, expected)) in samples.iter().take(CROSS_CHECKS).enumerate() {
        for (i, &addr) in shards.iter().enumerate() {
            let outcome = Conn::open(addr)
                .and_then(|mut c| fetch(&mut c, &format!("xcheck-{s}-{i}"), body))
                .and_then(|payload| {
                    if &payload == expected {
                        Ok(())
                    } else {
                        Err(format!(
                            "shard {i} answered {body} with other bytes than the router: {payload}"
                        ))
                    }
                });
            checks.record(outcome);
        }
    }
}

/// The tier's counters a window moves, read from the router's `stats`
/// verb and reported per request the window completed, so runs of
/// different throughput compare. Top-level fields sum over the shards and,
/// for `coalesced`, already include the router's own coalescing.
const COUNTERS: [(&str, &[&str]); 6] = [
    ("cache_hits_per_req", &["cache", "hits"]),
    ("cache_misses_per_req", &["cache", "misses"]),
    ("evaluations_per_req", &["completed"]),
    ("forwarded_per_req", &["router", "forwarded"]),
    ("coalesced_per_req", &["coalesced"]),
    ("hedged_per_req", &["router", "hedged"]),
];

fn counters(stats: &Value) -> Result<Vec<f64>, String> {
    COUNTERS
        .iter()
        .map(|(name, path)| {
            stats
                .at(path)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("stats lacks {name} ({})", path.join(".")))
        })
        .collect()
}

/// Per-layer timings, probed after the measured window.
struct Probes {
    router_hop_us: f64,
    shard_hit_us: f64,
    eval_ms: f64,
    sim_events: f64,
}

fn probe_layers(
    tier: &Tier,
    shards: &[SocketAddr],
    workload: Workload,
    inputs: &Inputs,
    hit: &(String, String),
    rng: &mut Rng,
    checks: &mut Checks,
) -> Result<Probes, String> {
    let (body, expected) = hit;
    let mut routed = Conn::open(tier.addr)?;
    let mut direct = Conn::open(shards[0])?;
    let mut timed = |conn: &mut Conn, id: &str| -> Result<f64, String> {
        let t = Instant::now();
        let payload = fetch(conn, id, body)?;
        let us = t.elapsed().as_secs_f64() * 1e6;
        checks.record(if &payload == expected {
            Ok(())
        } else {
            Err(format!("hop probe {id} returned other bytes: {payload}"))
        });
        Ok(us)
    };
    // The first direct request may miss: shard 0 need not own the key.
    for i in 0..3 {
        timed(&mut routed, &format!("hop-warm-r{i}"))?;
        timed(&mut direct, &format!("hop-warm-d{i}"))?;
    }
    let (mut via_router, mut at_shard) = (Vec::new(), Vec::new());
    for i in 0..HOP_PROBES {
        via_router.push(timed(&mut routed, &format!("hop-r{i}"))?);
        at_shard.push(timed(&mut direct, &format!("hop-d{i}"))?);
    }
    let shard_hit_us = median(at_shard);
    let router_hop_us = median(via_router) - shard_hit_us;

    let evals = if workload == Workload::SimTerasort {
        8
    } else {
        40
    };
    let (mut eval_ms, mut events) = (Vec::new(), Vec::new());
    for i in 0..evals {
        let op = workload.fresh(rng);
        let t = Instant::now();
        let payload = fetch(&mut direct, &format!("eval-{i}"), &inputs.body(op))?;
        eval_ms.push(t.elapsed().as_secs_f64() * 1e3);
        checks.record(inputs.verify(op, &payload));
        events.push(events_fired(&payload)?);
    }
    Ok(Probes {
        router_hop_us,
        shard_hit_us,
        eval_ms: median(eval_ms),
        sim_events: median(events),
    })
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    doppio: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let mut take = |name: &str| {
        flags
            .remove(name)
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = take("workload")?;
    let workload = Workload::parse(&workload).ok_or_else(|| {
        format!("unknown workload {workload:?} (sim-terasort|serve-hot|serve-open-<rate>)")
    })?;
    let number = |name: &str, raw: String| {
        raw.parse::<u64>()
            .map_err(|_| format!("--{name} takes a whole number, not {raw:?}"))
    };
    let seed = number("seed", take("seed")?)?;
    let seconds = number("seconds", take("seconds")?)?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let doppio = PathBuf::from(take("doppio")?);
    let work_dir = PathBuf::from(take("work-dir")?);
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        doppio,
        work_dir,
    })
}

/// A metric as the report prints it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn report(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // A metric that could not be measured is reported as 0, and the
        // run as incorrect: JSON has no NaN.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            r#"{sep}"{}": {{"value": {value:?}, "unit": "{}"}}"#,
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("create {}: {e}", args.work_dir.display()))?;

    // Set-up: start the tier several times, keep the last one.
    let mut setups = Vec::new();
    let mut tier = None;
    for i in 0..SETUPS {
        let t = Tier::start(&args.doppio, &args.work_dir, i)?;
        setups.push(t.setup.as_secs_f64());
        if i + 1 < SETUPS {
            t.stop()?;
        } else {
            tier = Some(t);
        }
    }
    let tier = tier.expect("SETUPS is at least one");
    setups.sort_by(f64::total_cmp);
    let setup_s = percentile(&setups, 0.90);

    let mut checks = Checks::default();
    let mut conn = Conn::open(tier.addr)?;
    check_references(&mut conn, &mut checks);
    let mut rng = Rng::new(args.seed);
    let mut inputs = Inputs::generate(args.workload, &mut rng);
    checks.attempted += inputs.warm(&mut conn)?;
    let before = if args.trace {
        Some(counters(&control(&mut conn, "stats")?)?)
    } else {
        None
    };

    let window = match args.workload {
        Workload::ServeOpen(rate) => measure_open(tier.addr, rate, &mut rng, args.seconds)?,
        closed => {
            let seed = rng.next();
            measure_closed(tier.addr, closed, &inputs, seed, args.seconds)?
        }
    };

    let after = if args.trace {
        Some(counters(&control(&mut conn, "stats")?)?)
    } else {
        None
    };
    let shards = tier.shard_addrs()?;
    // Only the hot window sends no fresh request; its cross-check re-sends
    // a hot key instead.
    let samples = match (&window.samples[..], &inputs.hot[..]) {
        ([], []) => return Err("the window completed no request".into()),
        ([], hot) => &hot[..1],
        (fresh, _) => fresh,
    };
    cross_check(&shards, samples, &mut checks);

    let lat = &window.latencies_ms;
    let metrics = match before.zip(after) {
        Some((before, after)) => {
            // A cached request of the workload's own shape: a hot key, or
            // a simulation the window already sent.
            let hit = inputs.hot.first().unwrap_or(&samples[0]);
            let p = probe_layers(
                &tier,
                &shards,
                args.workload,
                &inputs,
                hit,
                &mut rng,
                &mut checks,
            )?;
            let send_lag = if window.send_lag_ms.is_empty() {
                0.0
            } else {
                percentile(&window.send_lag_ms, 0.90)
            };
            let mut metrics = vec![
                Metric {
                    name: "router_hop_us",
                    value: p.router_hop_us,
                    unit: "us",
                },
                Metric {
                    name: "shard_hit_us",
                    value: p.shard_hit_us,
                    unit: "us",
                },
                Metric {
                    name: "eval_ms",
                    value: p.eval_ms,
                    unit: "ms",
                },
                Metric {
                    name: "sim_events",
                    value: p.sim_events,
                    unit: "count",
                },
                Metric {
                    name: "send_lag_p90_ms",
                    value: send_lag,
                    unit: "ms",
                },
            ];
            let requests = lat.len() as f64;
            for ((name, _), (b, a)) in COUNTERS.iter().zip(before.iter().zip(&after)) {
                metrics.push(Metric {
                    name,
                    value: (a - b) / requests,
                    unit: "1/req",
                });
            }
            metrics
        }
        None => vec![
            Metric {
                name: "ops_per_s",
                value: lat.len() as f64 / window.elapsed.as_secs_f64(),
                unit: "1/s",
            },
            Metric {
                name: "op_p50_ms",
                value: percentile(lat, 0.50),
                unit: "ms",
            },
            Metric {
                name: "op_p90_ms",
                value: percentile(lat, 0.90),
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: setup_s,
                unit: "s",
            },
        ],
    };
    drop(conn);
    let stopped = tier.stop();
    checks.record(stopped);

    let failures: Vec<&String> = window.failures.iter().chain(&checks.failures).collect();
    for f in failures.iter().take(5) {
        eprintln!("perfbench: check failed: {f}");
    }
    let measured = metrics.iter().all(|m| m.value.is_finite());
    eprintln!(
        "perfbench: {:?} seed {}: {} of {} requests in {:.3} s over {} connection(s)",
        args.workload,
        args.seed,
        lat.len(),
        window.attempted,
        window.elapsed.as_secs_f64(),
        args.workload.connections()
    );
    Ok(report(
        failures.is_empty() && measured && !lat.is_empty(),
        window.attempted + checks.attempted,
        failures.len() as u64,
        &metrics,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn workload_names_parse() {
        assert_eq!(Workload::parse("serve-hot"), Some(Workload::ServeHot));
        assert_eq!(
            Workload::parse("serve-open-400"),
            Some(Workload::ServeOpen(400))
        );
        assert_eq!(Workload::parse("serve-open-0"), None);
        assert_eq!(Workload::parse("serve-open-"), None);
    }

    #[test]
    fn open_plan_repeats_the_loadgen_session_at_the_rate() {
        let plan = open_plan(200, 3, &mut Rng::new(5));
        assert_eq!(plan.len(), 600);
        assert_eq!(plan, open_plan(200, 3, &mut Rng::new(5)));
        // One session: 24 cold seeds, 3 replays of them, a 4-way burst.
        let session = LOADGEN_COLD * (1 + LOADGEN_HOT_REPEATS) + LOADGEN_CONNECTIONS;
        let (cold, rest) = plan[..session].split_at(LOADGEN_COLD);
        assert!(cold.iter().all(|p| p.first));
        let (hot, burst) = rest.split_at(LOADGEN_COLD * LOADGEN_HOT_REPEATS);
        assert!(hot
            .iter()
            .zip(cold.iter().cycle())
            .all(|(h, c)| h.seed == c.seed && !h.first));
        assert!(burst
            .iter()
            .all(|b| b.seed == burst[0].seed && b.due == burst[0].due));
        assert_eq!(
            burst.iter().map(|b| b.conn).collect::<Vec<_>>(),
            (0..LOADGEN_CONNECTIONS).collect::<Vec<_>>()
        );
        assert_eq!(burst.iter().filter(|b| b.first).count(), 1);
        // Evenly spaced, a burst taking the due time of its first slot.
        assert!((plan[550].due - 550.0 / 200.0).abs() < 1e-12);
        assert!((plan[599].due - 596.0 / 200.0).abs() < 1e-12);
        assert_ne!(plan[0].seed, open_plan(200, 3, &mut Rng::new(6))[0].seed);
    }

    #[test]
    fn inputs_follow_the_seed() {
        let bodies = |seed| {
            let inputs = Inputs::generate(Workload::ServeHot, &mut Rng::new(seed));
            let mut rng = Rng::new(seed);
            let ops: Vec<String> = (0..50)
                .map(|_| inputs.body(Workload::ServeHot.draw(&mut rng)))
                .collect();
            (inputs.hot, ops)
        };
        assert_eq!(bodies(3), bodies(3));
        assert_ne!(bodies(3), bodies(4));
    }

    #[test]
    fn report_is_one_json_object() {
        let line = report(
            true,
            3,
            0,
            &[Metric {
                name: "op_p50_ms",
                value: 1.25,
                unit: "ms",
            }],
        );
        let v = json::parse(&line).unwrap();
        assert_eq!(
            v.at(&["metrics", "op_p50_ms", "value"]),
            Some(&Value::Num(1.25))
        );
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
    }
}
