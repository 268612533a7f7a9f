//! `doppio` — command-line front end for the toolset.
//!
//! ```text
//! doppio fio [hdd] [ssd] [std-pd:<GB>] [ssd-pd:<GB>]
//! doppio simulate --workload <name> [--nodes N] [--cores P] [--config C] [--paper] [--seed S]
//!                 [--runs R] [--jobs J] [--batch W] [--inject <profile>] [--fault-seed S]
//!                 [--storage <profile>] [--emit-observation]
//! doppio predict  --workload <name> [--nodes N] [--cores P] [--config C] [--paper] [--jobs J]
//!                 [--profile-nodes N] [--corrected] [--observe-log FILE]
//! doppio whatif cache-sweep [--workload <name>] [--nodes N] [--cores P] [--config C]
//!                 [--storage <profile>] [--working-set-gib G] [--paper] [--jobs J]
//!                 [--smoke] [--out PATH]
//! doppio optimize [--paper] [--jobs J]
//! doppio phases --bw <MiB/s> --t <MiB/s> --lambda <λ> [--cores P] [--sweep] [--jobs J]
//! doppio serve   [--addr H:P] [--workers N] [--queue-bound Q] [--cache C] [--deadline-ms D]
//!                [--port-file PATH] [--allow-shutdown] [--max-line-bytes B] [--idle-timeout-ms T]
//!                [--shards N] [--vnodes V]
//!                [--snapshot-dir DIR] [--pid-dir DIR]
//! doppio health  [--addr H:P] [--wait-ms W]
//! doppio loadgen [--addr H:P] [--smoke] [--connections N] [--requests N] [--repeats R]
//!                [--out PATH] [--shutdown-after] [--chaos <profile>] [--chaos-seed S]
//!                [--connect-timeout-ms T] [--read-timeout-ms T] [--procs N]
//!                [--hot-worker] [--hold N] [--observe-log FILE]
//!                [--kill-after N] [--kill-pid-file PATH] [--expect-restarts N]
//! doppio list
//! ```
//!
//! Argument parsing is hand-rolled to keep the dependency set at the
//! approved list (DESIGN.md §6).

use std::process::ExitCode;

use doppio::cloud::{disks, CloudDiskType};
use doppio::cluster::{HybridConfig, StorageProfile};
use doppio::engine::Engine;
use doppio::events::Bytes;
use doppio::learn::parse_config_token as parse_config;
use doppio::model::phases::{break_point, classify, turning_point};
use doppio::model::PredictEnv;
use doppio::scenario::ScenarioSet;
use doppio::serve::protocol::{self, workload_name};
use doppio::serve::{verbs, PredictSpec, SimulateSpec};
use doppio::sparksim::{FaultProfile, IoChannel};
use doppio::storage::fio::{run_analytic, FioJob};
use doppio::workloads::Workload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    if rest.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match cmd.as_str() {
        "fio" => cmd_fio(rest),
        "simulate" => cmd_simulate(rest),
        "predict" => cmd_predict(rest),
        "whatif" => cmd_whatif(rest),
        "optimize" => cmd_optimize(rest),
        "phases" => cmd_phases(rest),
        "serve" => cmd_serve(rest),
        "health" => cmd_health(rest),
        "loadgen" => cmd_loadgen(rest),
        "list" => cmd_list(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "doppio — I/O-aware Spark performance analysis, modeling and optimization

USAGE:
  doppio fio [hdd] [ssd] [std-pd:<GB>] [ssd-pd:<GB>]
      print effective-bandwidth/IOPS lookup tables
  doppio simulate --workload <name> [--nodes N] [--cores P] [--config C] [--paper] [--seed S]
                  [--runs R] [--jobs J] [--batch W] [--inject <profile>] [--fault-seed S]
                  [--storage <profile>] [--emit-observation]
      run a workload on the discrete-event simulator; --runs R fans R seeded
      replicas (seeds S..S+R) out over the scenario engine in batches of
      --batch W lanes (default 8) that share one pre-built plan per batch;
      results are bit-identical at any W; --inject draws a deterministic
      fault plan (seeded by --fault-seed) from a named profile and reports
      the clean run next to the faulty one; --storage places the dataset on
      a disaggregated tier (object store, cache tier or parallel FS)
      instead of node-local HDFS disks; --emit-observation prints the
      single run as one doppio-observe/v1 NDJSON line (the shape `serve`
      ingests and `predict --observe-log` replays) instead of the report
  doppio predict --workload <name> [--nodes N] [--cores P] [--config C] [--paper] [--jobs J]
                 [--profile-nodes N] [--corrected] [--observe-log FILE]
      calibrate the Doppio model (4 sample runs) and compare exp vs model;
      --observe-log replays a doppio-observe/v1 NDJSON file into an online
      learner first and --corrected adds the residual-corrected column
      next to the analytical one, with both MAPEs on the last line
  doppio whatif cache-sweep [--workload <name>] [--nodes N] [--cores P] [--config C]
                  [--storage <profile>] [--working-set-gib G] [--paper] [--jobs J]
                  [--smoke] [--out PATH]
      calibrate the model, then sweep the per-node cache capacity in front
      of a remote storage tier and emit the knee curve as JSON (strictly
      parsed back before reporting success); --working-set-gib overrides
      the dataset size driving the hit ratio; --smoke shrinks the sweep
      for CI and additionally fails unless the curve is monotone
  doppio optimize [--paper] [--jobs J]
      find the cheapest cloud configuration for GATK4 (Section VI); the grid
      search fans out over J workers with memoized cost evaluations
  doppio phases --bw <MiB/s> --t <MiB/s> --lambda <λ> [--cores P] [--sweep] [--jobs J]
      break-point analysis: b = BW/T, B = λ·b, phase classification
      (--sweep classifies every core count 1..=P)
  doppio serve [--addr H:P] [--workers N] [--queue-bound Q] [--cache C] [--deadline-ms D]
               [--port-file PATH] [--allow-shutdown] [--max-line-bytes B] [--idle-timeout-ms T]
               [--shards N] [--vnodes V]
               [--snapshot-dir DIR] [--pid-dir DIR]
      run the model-serving front end: newline-delimited JSON over TCP with
      a shared result cache, singleflight deduplication and a bounded
      admission queue that sheds overload with structured 'overloaded'
      replies; evaluations are panic-isolated, request lines are bounded at
      --max-line-bytes, and idle or stalled connections are reaped after
      --idle-timeout-ms; --port-file records the bound address for scripts
      and --allow-shutdown lets a client drain the server remotely;
      --snapshot-dir persists each workload's learner snapshot on every
      ingest (and restores it at startup), so correctors survive restarts;
      --shards N launches N shard processes behind a consistent-hash
      router on --addr instead of one server (replies stay bit-identical):
      --vnodes sets ring granularity, and the router answers repeats from
      its own result cache (bounded by --cache, like each shard's); a dead
      shard's keys fail over to their ring successor behind a per-shard
      circuit breaker, a supervisor restarts crashed shards (seeded
      backoff, crash-loop budget) and the router re-admits them through a
      warm-up probe gate; --pid-dir writes one shard-<i>.pid per shard for
      chaos drivers; slow idempotent requests are hedged to the ring
      successor
  doppio health [--addr H:P] [--wait-ms W]
      ask a serve endpoint for its health payload (readiness, queue depth,
      cache stats, panic count, uptime); with --wait-ms, poll until the
      server reports ready or the wait expires — the CI startup gate
  doppio loadgen [--addr H:P] [--smoke] [--connections N] [--requests N] [--repeats R]
                 [--out PATH] [--shutdown-after] [--chaos <profile>] [--chaos-seed S]
                 [--connect-timeout-ms T] [--read-timeout-ms T] [--procs N]
                 [--hot-worker] [--hold N] [--observe-log FILE]
                 [--kill-after N] [--kill-pid-file PATH] [--expect-restarts N]
      drive a serve endpoint through cold/hot closed-loop phases plus a
      singleflight burst, recording latency percentiles and the
      hot-over-cold speedup to BENCH_serve_throughput.json (strictly
      parsed back); without --addr a throwaway in-process server is used;
      --smoke shrinks the run for CI and fails on any shed request, lost
      reply or panic; --chaos adds a phase driven through a seeded
      fault-injecting proxy and records retry/breaker metrics; --procs N
      re-runs the hot phase from N generator processes and merges their
      latency histograms (the multi-process throughput measurement for a
      shard tier); --hot-worker is the child mode --procs launches, and
      --hold N opens N idle connections until stdin closes (reactor
      capacity tests); --observe-log FILE switches to the recalibration
      replay: every observation in the doppio-observe/v1 NDJSON file is
      predicted analytically, fed to the server's `observe` verb, then
      re-predicted with the corrector, and the analytic-vs-corrected MAPE
      comparison lands in LEARN_replay.json (strictly parsed back);
      --smoke additionally fails unless the corrected error is lower;
      --kill-after N SIGKILLs the pid in --kill-pid-file after N cold
      requests (the shard-restart chaos leg: lost replies are counted,
      not fatal) and --expect-restarts N waits until the router reports N
      supervisor restarts and health goes ready before the final stats
  doppio list
      list workloads, disk configurations, fault profiles, chaos profiles
      and correctors

--jobs J sets the scenario-engine worker count (0 or absent = one per core);
results are identical at any J — the engine preserves input order.
configs: 2ssd | 2hdd | hdd-ssd (HDFS=HDD, local=SSD) | ssd-hdd (HDFS=SSD, local=HDD)
storage profiles: local (default), s3, s3-cached, lustre
workloads: gatk4, lr-small, lr-large, svm, pagerank, triangle, terasort
fault profiles: flaky-tasks, executor-loss, slow-disk, stragglers, chaos
chaos profiles: slow-wire, flaky-connect, truncate, garbage, disconnect-heavy
correctors: none, ridge";

/// Fetches `--key value` from the argument list.
fn opt<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

/// A workload's wire token, or one of the CLI's short aliases.
fn parse_workload(s: &str) -> Result<Workload, String> {
    let token = match s {
        "pr" => "pagerank",
        "tc" => "triangle",
        "ts" => "terasort",
        other => other,
    };
    protocol::parse_workload(token)
        .ok_or_else(|| format!("unknown workload '{s}' (try `doppio list`)"))
}

fn parse_num<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match opt(args, key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{key} expects a number, got '{v}'")),
    }
}

/// Fetches `--storage <profile>` (absent = the paper's node-local model).
fn parse_storage(args: &[String]) -> Result<StorageProfile, String> {
    match opt(args, "--storage") {
        None => Ok(StorageProfile::Local),
        Some(name) => StorageProfile::parse(name)
            .ok_or_else(|| format!("unknown storage profile '{name}' (try `doppio list`)")),
    }
}

/// Fetches `--inject <profile>` if present.
fn parse_fault_profile(args: &[String]) -> Result<Option<FaultProfile>, String> {
    match opt(args, "--inject") {
        None => Ok(None),
        Some(name) => FaultProfile::parse(name)
            .map(Some)
            .ok_or_else(|| format!("unknown fault profile '{name}' (try `doppio list`)")),
    }
}

/// Builds the scenario engine from `--jobs N` (0 = one worker per core;
/// absent defaults to all cores). Results are identical at any setting —
/// the engine preserves input order — so parallel is the safe default.
fn parse_engine(args: &[String]) -> Result<Engine, String> {
    match opt(args, "--jobs") {
        None => Ok(Engine::auto()),
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| format!("--jobs expects a number, got '{v}'"))?;
            Ok(if n == 0 {
                Engine::auto()
            } else {
                Engine::with_jobs(n)
            })
        }
    }
}

fn cmd_list() -> Result<(), String> {
    println!("workloads:");
    for w in Workload::ALL {
        println!(
            "  {:<14} ({} scaled / paper-scale apps available)",
            w.name(),
            w
        );
    }
    println!();
    println!("disk configurations (Table III):");
    for c in HybridConfig::ALL {
        println!(
            "  {:<26} HDFS={}, local={}",
            c.label(),
            c.hdfs_device().name(),
            c.local_device().name()
        );
    }
    println!();
    println!("storage profiles (simulate --storage <profile>):");
    for &(name, describe) in doppio::cluster::PROFILE_NAMES {
        println!("  {name:<14} {describe}");
    }
    println!();
    println!("fault profiles (simulate --inject <profile>):");
    for p in FaultProfile::ALL {
        println!("  {:<14} {}", p.name(), p.describe());
    }
    println!();
    println!("chaos profiles (loadgen --chaos <profile>):");
    for p in doppio::serve::ChaosProfile::ALL {
        println!("  {:<18} {}", p.name(), p.describe());
    }
    println!();
    println!("correctors (predict --corrected / serve observe):");
    for (name, describe) in doppio::learn::CORRECTOR_NAMES {
        println!("  {name:<14} {describe}");
    }
    Ok(())
}

fn cmd_fio(args: &[String]) -> Result<(), String> {
    let specs: Vec<doppio::storage::DeviceSpec> = if args.is_empty() {
        vec![
            doppio::storage::presets::hdd_wd4000(),
            doppio::storage::presets::ssd_mz7lm(),
        ]
    } else {
        args.iter()
            .map(|a| -> Result<_, String> {
                if a == "hdd" {
                    Ok(doppio::storage::presets::hdd_wd4000())
                } else if a == "ssd" {
                    Ok(doppio::storage::presets::ssd_mz7lm())
                } else if let Some(gb) = a.strip_prefix("std-pd:") {
                    let gb: u64 = gb.parse().map_err(|_| format!("bad size in '{a}'"))?;
                    Ok(disks::device(
                        CloudDiskType::StandardPd,
                        Bytes::new(gb * 1_000_000_000),
                    ))
                } else if let Some(gb) = a.strip_prefix("ssd-pd:") {
                    let gb: u64 = gb.parse().map_err(|_| format!("bad size in '{a}'"))?;
                    Ok(disks::device(
                        CloudDiskType::SsdPd,
                        Bytes::new(gb * 1_000_000_000),
                    ))
                } else {
                    Err(format!("unknown device '{a}'"))
                }
            })
            .collect::<Result<_, _>>()?
    };
    for spec in specs {
        println!();
        println!("{spec}:");
        println!("  {:>10} {:>14} {:>12}", "block", "BW (MiB/s)", "IOPS");
        for r in run_analytic(&FioJob::read_sweep(spec)) {
            println!(
                "  {:>10} {:>14.1} {:>12.0}",
                r.block_size.to_string(),
                r.bandwidth.as_mib_per_sec(),
                r.iops
            );
        }
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let spec = SimulateSpec {
        workload: parse_workload(opt(args, "--workload").ok_or("missing --workload")?)?,
        nodes: parse_num(args, "--nodes", 3)?,
        cores: parse_num(args, "--cores", 36)?,
        config: parse_config(opt(args, "--config").unwrap_or("2ssd"))?,
        seed: parse_num(args, "--seed", 0xD0_99_10)?,
        paper: flag(args, "--paper"),
        inject: parse_fault_profile(args)?,
        fault_seed: parse_num(args, "--fault-seed", 7)?,
    };
    let runs: u64 = parse_num(args, "--runs", 1)?;
    let batch: usize = parse_num(args, "--batch", 8)?;
    let engine = parse_engine(args)?;
    let name = spec.workload.name();

    let emit_observation = flag(args, "--emit-observation");
    if emit_observation && runs > 1 {
        return Err("--emit-observation records a single run; drop --runs".into());
    }
    let storage = parse_storage(args)?;
    let inputs = verbs::SimInputs::new(&spec, storage).map_err(|e| e.message)?;

    if runs > 1 {
        let seeds: Vec<u64> = (0..runs).map(|i| spec.seed.wrapping_add(i)).collect();
        // Every replica replays the one plan, placed by the base seed's
        // clean run, so results are identical at any --jobs.
        let verbs::SimInputs {
            app,
            cluster,
            conf,
            faults,
            ..
        } = inputs;
        let set =
            ScenarioSet::seeded_replicas(name, app, cluster, conf, &seeds).with_fault_plan(faults);
        let results = set.run_batched(&engine, batch).map_err(|e| e.to_string())?;
        let mins: Vec<f64> = results
            .iter()
            .map(|r| r.total_time().as_secs() / 60.0)
            .collect();
        let mean = mins.iter().sum::<f64>() / mins.len() as f64;
        let spread = mins.iter().fold(0.0f64, |m, &v| m.max((v - mean).abs()));
        println!(
            "{} x{} seeded runs ({} jobs): mean {:.1} min, max dev {:.1} min",
            name,
            runs,
            engine.jobs(),
            mean,
            spread
        );
        for ((s, m), r) in seeds.iter().zip(&mins).zip(&results) {
            let faults = r.total_faults();
            if faults.is_clean() {
                println!("  seed {s:>8}: {m:>7.1} min");
            } else {
                println!("  seed {s:>8}: {m:>7.1} min  [{faults}]");
            }
        }
        if let Some(profile) = spec.inject {
            println!(
                "fault profile '{}' (fault seed {})",
                profile.name(),
                spec.fault_seed
            );
        }
        return Ok(());
    }

    let clean_secs = inputs.clean_secs;
    let run = inputs.run().map_err(|e| e.message)?;
    // `--emit-observation` replaces the human report with the one NDJSON
    // line the serve tier ingests — pipe it straight into a fixture file.
    if emit_observation {
        let obs = doppio::learn::RunObservation::from_run(
            workload_name(spec.workload),
            spec.nodes,
            spec.cores,
            spec.config,
            spec.paper,
            &run,
        );
        println!("{}", obs.to_json_line());
        return Ok(());
    }
    println!("{run}");
    println!("per-stage I/O:");
    for s in run.stages() {
        print!("  {:<24}", s.name);
        for ch in IoChannel::DISK_CHANNELS {
            let c = s.channel(ch);
            if !c.bytes.is_zero() {
                print!(" {}={:.1}GB", ch, c.bytes.as_gib());
            }
        }
        if let Some(l) = s.tasks.lambda() {
            print!("  λ={l:.1}");
        }
        println!();
    }
    if let (Some(profile), Some(clean_secs)) = (spec.inject, clean_secs) {
        let faulty_secs = run.total_time().as_secs();
        println!(
            "fault injection '{}' (fault seed {}):",
            profile.name(),
            spec.fault_seed
        );
        println!(
            "  clean {:.1} min -> faulty {:.1} min ({:+.1}%)",
            clean_secs / 60.0,
            faulty_secs / 60.0,
            (faulty_secs / clean_secs - 1.0) * 100.0
        );
        println!("  {}", run.total_faults());
    }
    Ok(())
}

/// Relative error of `pred` against `exp`, in percent (0 when `exp` is 0).
fn err_pct(pred: f64, exp: f64) -> f64 {
    if exp > 0.0 {
        (pred - exp).abs() / exp * 100.0
    } else {
        0.0
    }
}

fn cmd_predict(args: &[String]) -> Result<(), String> {
    let observe_log = opt(args, "--observe-log");
    let spec = PredictSpec {
        workload: parse_workload(opt(args, "--workload").ok_or("missing --workload")?)?,
        nodes: parse_num(args, "--nodes", 5)?,
        cores: parse_num(args, "--cores", 36)?,
        config: parse_config(opt(args, "--config").unwrap_or("2ssd"))?,
        paper: flag(args, "--paper"),
        profile_nodes: parse_num(args, "--profile-nodes", verbs::PROFILE_NODES)?,
        // `--observe-log` replays recorded runs into an online learner
        // before predicting; `--corrected` (implied by a log) adds its
        // column.
        corrected: flag(args, "--corrected") || observe_log.is_some(),
    };

    let engine = parse_engine(args)?;
    eprintln!(
        "calibrating on {} nodes (4 sample runs, {} jobs)...",
        spec.profile_nodes,
        engine.jobs()
    );
    let calibration = verbs::calibrate(spec.workload, spec.paper, spec.profile_nodes, &engine)
        .map_err(|e| e.message)?;
    for w in &calibration.warnings {
        eprintln!("note: {w}");
    }

    let mut learner = spec
        .corrected
        .then(|| doppio::learn::Learner::new(calibration.model.clone()));
    if let (Some(path), Some(learner)) = (observe_log, learner.as_mut()) {
        let wire = workload_name(spec.workload);
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let mut ingested = 0u64;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let obs = doppio::learn::RunObservation::parse_line(line)
                .map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            // Foreign workloads are skipped, not rejected: one log can
            // hold a whole cluster's history.
            if obs.workload == wire {
                learner.ingest(obs);
                ingested += 1;
            }
        }
        eprintln!(
            "ingested {ingested} observation(s) from {path} (corrector: {} v{})",
            learner.corrector().kind(),
            learner.corrector().version()
        );
    }
    let prediction = verbs::predict(
        &spec,
        &calibration,
        learner.as_ref().map(doppio::learn::Learner::corrector),
    )
    .map_err(|e| e.message)?;

    println!(
        "target: {} nodes x {} cores, {}",
        spec.nodes,
        spec.cores,
        spec.config.label()
    );
    match prediction.corrector {
        Some(_) => println!(
            "  {:<24} {:>10} {:>12} {:>8} {:>11} {:>8}",
            "stage", "exp (min)", "model (min)", "err %", "corr (min)", "err %"
        ),
        None => println!(
            "  {:<24} {:>10} {:>12} {:>8}",
            "stage", "exp (min)", "model (min)", "err %"
        ),
    }
    let row = |name: &str, exp: f64, pred: f64, corr: Option<f64>| match corr {
        Some(corr) => println!(
            "  {:<24} {:>10.1} {:>12.1} {:>8.1} {:>11.1} {:>8.1}",
            name,
            exp / 60.0,
            pred / 60.0,
            err_pct(pred, exp),
            corr / 60.0,
            err_pct(corr, exp)
        ),
        None => println!(
            "  {:<24} {:>10.1} {:>12.1} {:>8.1}",
            name,
            exp / 60.0,
            pred / 60.0,
            err_pct(pred, exp)
        ),
    };
    for s in &prediction.stages {
        row(&s.name, s.exp_secs, s.model_secs, s.corrected_secs);
    }
    row(
        "TOTAL",
        prediction.total_exp_secs,
        prediction.total_model_secs,
        prediction.total_corrected_secs,
    );
    if let (Some((kind, version)), Some(learner)) = (prediction.corrector, &learner) {
        let pairs = |secs: fn(&verbs::StagePrediction) -> f64| -> Vec<(f64, f64)> {
            prediction
                .stages
                .iter()
                .map(|s| (secs(s), s.exp_secs))
                .collect()
        };
        println!(
            "per-stage MAPE: analytic {:.1}% | corrected {:.1}% ({} v{}, window {})",
            doppio::learn::mape(&pairs(|s| s.model_secs)),
            doppio::learn::mape(&pairs(|s| s.corrected_secs.unwrap_or(0.0))),
            kind,
            version,
            learner.window_len()
        );
    }
    Ok(())
}

fn cmd_whatif(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("cache-sweep") => cmd_cache_sweep(&args[1..]),
        Some(other) => Err(format!("unknown whatif analysis '{other}' (cache-sweep)")),
        None => Err("whatif expects an analysis (cache-sweep)".into()),
    }
}

/// `whatif cache-sweep` — calibrate the model, sweep the per-node cache
/// capacity in front of a remote storage tier, and emit the knee curve as
/// JSON on stdout. The JSON is strictly parsed back before the command
/// reports success, so a malformed artifact fails CI instead of landing
/// silently (same contract as `loadgen`'s report).
fn cmd_cache_sweep(args: &[String]) -> Result<(), String> {
    use doppio::engine::json::{self, Value};
    use std::fmt::Write as _;

    let smoke = flag(args, "--smoke");
    let workload = parse_workload(opt(args, "--workload").unwrap_or("terasort"))?;
    let nodes: usize = parse_num(args, "--nodes", 64)?;
    let cores: u32 = parse_num(args, "--cores", 32)?;
    let config = parse_config(opt(args, "--config").unwrap_or("2ssd"))?;
    let storage = match opt(args, "--storage") {
        None => StorageProfile::s3(),
        Some(_) => parse_storage(args)?,
    };
    if storage.is_local() {
        return Err("cache-sweep needs a remote tier; pick --storage s3|s3-cached|lustre".into());
    }
    let engine = parse_engine(args)?;

    eprintln!(
        "calibrating {} on {} nodes (4 sample runs, {} jobs)...",
        workload.name(),
        verbs::PROFILE_NODES,
        engine.jobs()
    );
    let model = verbs::calibrate(
        workload,
        flag(args, "--paper"),
        verbs::PROFILE_NODES,
        &engine,
    )
    .map_err(|e| e.message)?
    .model;

    // The working set driving the hit ratio defaults to the model's HDFS
    // read volume — what the job actually re-reads from the tier.
    let hdfs_read: f64 = model
        .stages()
        .iter()
        .flat_map(|s| s.channels.iter())
        .filter(|c| c.channel == IoChannel::HdfsRead)
        .map(|c| c.total_bytes.as_f64())
        .sum();
    let working_set = match opt(args, "--working-set-gib") {
        Some(_) => Bytes::from_gib(parse_num(args, "--working-set-gib", 0u64)?),
        None if hdfs_read > 0.0 => Bytes::new(hdfs_read as u64),
        None => return Err("model reads nothing from HDFS; pass --working-set-gib".into()),
    };

    // Capacity grid: fractions of full per-node coverage (ws / N), so the
    // sweep brackets h = 0..1 regardless of the workload's dataset size.
    let fractions: &[f64] = if smoke {
        &[0.0, 0.25, 0.5, 1.0]
    } else {
        &[0.0, 0.0625, 0.125, 0.25, 0.5, 0.75, 1.0, 1.25]
    };
    let full = working_set.scale(1.0 / nodes as f64);
    let caps: Vec<Bytes> = fractions.iter().map(|&f| full.scale(f)).collect();

    let base = PredictEnv::hybrid(nodes, cores, config);
    let sweep = doppio::model::whatif::cache_sweep_with(
        &model,
        &base,
        &storage,
        working_set,
        &caps,
        &engine,
    );
    eprintln!("{sweep}");

    let knee = sweep.knee(1.05);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{}\",\"profile\":\"{}\",\"nodes\":{nodes},\"cores\":{cores},\"working_set_bytes\":{},\"points\":[",
        workload.name(),
        storage.name(),
        working_set.as_u64()
    );
    for (i, (cap, p)) in caps.iter().zip(&sweep.points).enumerate() {
        let h = doppio::cluster::hit_ratio(working_set, *cap * nodes as u64);
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"cap_bytes\":{},\"hit_ratio\":{h},\"runtime_secs\":{}}}",
            cap.as_u64(),
            p.runtime_secs
        );
    }
    match knee {
        // knee(t) indexes the first capacity *step* that gains < t; the
        // knee capacity is the last one still worth buying.
        Some(i) => {
            let _ = write!(
                out,
                "],\"knee_index\":{i},\"knee_cap_bytes\":{}}}",
                caps[i].as_u64()
            );
        }
        None => out.push_str("],\"knee_index\":null,\"knee_cap_bytes\":null}"),
    }

    // Strict parse-back: the emitted artifact must round-trip and describe
    // a sane curve before we report success.
    let v = json::parse(&out).map_err(|e| format!("sweep JSON did not round-trip: {e}"))?;
    let points = v
        .get("points")
        .and_then(Value::as_arr)
        .ok_or("sweep JSON is missing its points array")?;
    if points.len() != caps.len() {
        return Err(format!(
            "sweep JSON has {} points, expected {}",
            points.len(),
            caps.len()
        ));
    }
    let mut prev_runtime = f64::INFINITY;
    let mut prev_h = -1.0;
    for p in points {
        let runtime = p
            .get("runtime_secs")
            .and_then(Value::as_f64)
            .ok_or("point is missing runtime_secs")?;
        let h = p
            .get("hit_ratio")
            .and_then(Value::as_f64)
            .ok_or("point is missing hit_ratio")?;
        if !runtime.is_finite() || runtime <= 0.0 {
            return Err(format!("non-positive runtime {runtime} in sweep"));
        }
        if !(0.0..=1.0).contains(&h) || h < prev_h {
            return Err(format!("hit ratio {h} out of order in sweep"));
        }
        if smoke && runtime > prev_runtime * (1.0 + 1e-9) {
            return Err(format!(
                "cache sweep is not monotone: {runtime} s after {prev_runtime} s"
            ));
        }
        prev_runtime = runtime;
        prev_h = h;
    }

    println!("{out}");
    if let Some(path) = opt(args, "--out") {
        std::fs::write(path, &out).map_err(|e| format!("write {path}: {e}"))?;
    }
    match knee {
        Some(i) => eprintln!("knee: {} per node (last step gaining >5%)", caps[i]),
        None => eprintln!("no knee within the swept range (every step gains >5%)"),
    }
    Ok(())
}

fn cmd_optimize(args: &[String]) -> Result<(), String> {
    let engine = parse_engine(args)?;
    eprintln!(
        "calibrating GATK4 on {} nodes ({} jobs)...",
        verbs::PROFILE_NODES,
        engine.jobs()
    );
    let optimum = verbs::optimize(flag(args, "--paper"), &engine).map_err(|e| e.message)?;
    println!("optimum: {} -> {}", optimum.best.config, optimum.best.cost);
    eprintln!(
        "evaluations: {} distinct, {} served from cache",
        optimum.cache_misses, optimum.cache_hits
    );
    println!("R1 (Spark website): {}", optimum.r1);
    println!("R2 (Cloudera):      {}", optimum.r2);
    println!(
        "savings: {:.0}% vs R1, {:.0}% vs R2 (paper: 38% / 57% at full scale)",
        optimum.savings_vs(&optimum.r1) * 100.0,
        optimum.savings_vs(&optimum.r2) * 100.0
    );
    Ok(())
}

fn cmd_phases(args: &[String]) -> Result<(), String> {
    let bw: f64 = parse_num(args, "--bw", 480.0)?;
    let t: f64 = parse_num(args, "--t", 60.0)?;
    let lambda: f64 = parse_num(args, "--lambda", 20.0)?;
    let cores: f64 = parse_num(args, "--cores", 36.0)?;
    let b = break_point(
        doppio::events::Rate::mib_per_sec(bw),
        doppio::events::Rate::mib_per_sec(t),
    );
    let big_b = turning_point(lambda, b);
    println!("BW = {bw} MiB/s, T = {t} MiB/s, λ = {lambda}");
    println!("break point   b = BW/T  = {b:.1} cores");
    println!("turning point B = λ·b   = {big_b:.1} cores");
    if flag(args, "--sweep") {
        let engine = parse_engine(args)?;
        let ps: Vec<f64> = (1..=cores.max(1.0) as u32).map(f64::from).collect();
        let phases = engine.par_map(&ps, |&p| classify(p, b, lambda));
        for (p, phase) in ps.iter().zip(&phases) {
            println!("  P = {p:>4}: {phase}");
        }
    } else {
        println!("P = {cores}: {}", classify(cores, b, lambda));
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let workers: usize = parse_num(args, "--workers", 2)?;
    let queue_bound: usize = parse_num(args, "--queue-bound", 64)?;
    let deadline_ms: u64 = parse_num(args, "--deadline-ms", 0)?;
    let shards: usize = parse_num(args, "--shards", 0)?;
    if shards > 0 {
        return cmd_serve_sharded(args, shards, workers, queue_bound, deadline_ms);
    }
    let defaults = doppio::serve::ServeConfig::default();
    let cfg = doppio::serve::ServeConfig {
        addr: opt(args, "--addr").unwrap_or("127.0.0.1:7099").to_string(),
        workers,
        queue_bound,
        cache_capacity: parse_num(args, "--cache", 4096)?,
        default_deadline_ms: (deadline_ms > 0).then_some(deadline_ms),
        allow_shutdown: flag(args, "--allow-shutdown"),
        max_line_bytes: parse_num(args, "--max-line-bytes", defaults.max_line_bytes)?,
        read_timeout_ms: parse_num(args, "--idle-timeout-ms", defaults.read_timeout_ms)?,
        snapshot_dir: opt(args, "--snapshot-dir").map(std::path::PathBuf::from),
        ..Default::default()
    };
    let handle = doppio::serve::start(cfg).map_err(|e| format!("bind: {e}"))?;
    let bound = handle.addr();
    if let Some(path) = opt(args, "--port-file") {
        std::fs::write(path, bound.to_string()).map_err(|e| format!("write {path}: {e}"))?;
    }
    eprintln!("doppio-serve listening on {bound} ({workers} workers, queue bound {queue_bound})");
    // Parks until a remote shutdown drains the server (or forever without
    // --allow-shutdown; terminate the process to stop it).
    handle.wait();
    eprintln!("doppio-serve drained");
    Ok(())
}

/// `serve --shards N`: launch N shard processes (each a plain
/// single-process `doppio serve` child), put the consistent-hash router
/// on the public address, and park until the tier drains.
fn cmd_serve_sharded(
    args: &[String],
    shards: usize,
    workers: usize,
    queue_bound: usize,
    deadline_ms: u64,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // One capacity bounds every shard's cache and the router's own.
    let cache_capacity: usize = parse_num(args, "--cache", 4096)?;
    let mut tier = doppio::serve::spawn_tier(&doppio::serve::TierSpec {
        exe,
        shards,
        workers_per_shard: workers,
        cache_capacity,
        queue_bound,
        snapshot_dir: opt(args, "--snapshot-dir").map(std::path::PathBuf::from),
        pid_dir: opt(args, "--pid-dir").map(std::path::PathBuf::from),
        ..Default::default()
    })
    .map_err(|e| format!("spawn shard tier: {e}"))?;

    let defaults = doppio::serve::RouterConfig::default();
    let router = doppio::serve::start_router(doppio::serve::RouterConfig {
        addr: opt(args, "--addr").unwrap_or("127.0.0.1:7099").to_string(),
        shards: tier.addrs(),
        vnodes: parse_num(args, "--vnodes", defaults.vnodes)?,
        cache_capacity,
        // Forward workers do blocking shard round-trips; two per shard
        // keeps every shard's worker pool saturable without a flag.
        workers: (shards * 2).clamp(defaults.workers, 16),
        queue_bound,
        default_deadline_ms: (deadline_ms > 0).then_some(deadline_ms),
        allow_shutdown: flag(args, "--allow-shutdown"),
        max_line_bytes: parse_num(args, "--max-line-bytes", defaults.max_line_bytes)?,
        read_timeout_ms: parse_num(args, "--idle-timeout-ms", defaults.read_timeout_ms)?,
        ..Default::default()
    })
    .map_err(|e| format!("bind router: {e}"))?;
    // Self-healing: the supervisor restarts crashed shards and feeds
    // lifecycle events to the router, which drops a dead shard from the
    // active ring and re-admits it through the warm-up probe gate.
    let controller = router.controller();
    tier.supervise(doppio::serve::SupervisorConfig::default(), move |ev| {
        controller.on_shard_event(&ev)
    });
    let bound = router.addr();
    if let Some(path) = opt(args, "--port-file") {
        std::fs::write(path, bound.to_string()).map_err(|e| format!("write {path}: {e}"))?;
    }
    eprintln!(
        "doppio-serve router on {bound} over {shards} shard(s): {:?}",
        tier.addrs()
    );
    // Parks until a remote shutdown fans out to the shards and drains the
    // router; dropping the tier afterwards reaps the (already exited)
    // children.
    router.wait();
    drop(tier);
    eprintln!("doppio-serve tier drained");
    Ok(())
}

/// Polls a serve endpoint's `health` verb. Without `--wait-ms` this is
/// one shot: ask, print the reply, exit by readiness. With it, keep
/// polling until the server reports ready or the wait expires — the CI
/// startup gate that replaces sleeping.
fn cmd_health(args: &[String]) -> Result<(), String> {
    use std::time::{Duration, Instant};

    let addr = opt(args, "--addr").unwrap_or("127.0.0.1:7099").to_string();
    let wait_ms: u64 = parse_num(args, "--wait-ms", 0)?;
    let deadline = Instant::now() + Duration::from_millis(wait_ms);
    let ccfg = doppio::serve::ClientConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        read_timeout: Some(Duration::from_millis(2_000)),
        write_timeout: Some(Duration::from_millis(2_000)),
    };
    loop {
        let attempt = doppio::serve::Client::connect_with(&addr, &ccfg)
            .map_err(|e| format!("connect {addr}: {e}"))
            .and_then(|mut c| {
                c.call(doppio::serve::Request::Health, None)
                    .map_err(|e| format!("health call: {e}"))
            });
        match attempt {
            Ok(reply) if reply.ok => {
                let ready = reply
                    .result
                    .as_ref()
                    .and_then(|r| r.get("ready"))
                    .and_then(doppio::engine::json::Value::as_bool)
                    .unwrap_or(false);
                if ready {
                    println!("{}", reply.raw);
                    return Ok(());
                }
                if Instant::now() >= deadline {
                    println!("{}", reply.raw);
                    return Err("server answered but reports not ready".into());
                }
            }
            Ok(reply) => {
                if Instant::now() >= deadline {
                    return Err(format!(
                        "health request failed: {}",
                        reply.error_code.unwrap_or_default()
                    ));
                }
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    use doppio::serve::loadgen::{self, LoadgenConfig};

    // Auxiliary modes first: both are plumbing other processes drive
    // (`--procs` parents, reactor capacity tests), not measurements.
    let hold: usize = parse_num(args, "--hold", 0)?;
    if hold > 0 {
        return loadgen_hold(args, hold);
    }
    if flag(args, "--hot-worker") {
        return loadgen_hot_worker(args);
    }
    if let Some(path) = opt(args, "--observe-log") {
        return loadgen_observe_replay(args, path);
    }

    let smoke = flag(args, "--smoke");
    let mut cfg = LoadgenConfig::default();
    if smoke {
        cfg = cfg.smoke();
    }
    cfg.connections = parse_num(args, "--connections", cfg.connections)?;
    cfg.cold_requests = parse_num(args, "--requests", cfg.cold_requests)?;
    cfg.hot_repeats = parse_num(args, "--repeats", cfg.hot_repeats)?;
    cfg.chaos = match opt(args, "--chaos") {
        None => None,
        Some(token) => Some(doppio::serve::ChaosProfile::parse(token)?),
    };
    cfg.chaos_seed = parse_num(args, "--chaos-seed", cfg.chaos_seed)?;
    cfg.connect_timeout_ms = parse_num(args, "--connect-timeout-ms", cfg.connect_timeout_ms)?;
    cfg.read_timeout_ms = parse_num(args, "--read-timeout-ms", cfg.read_timeout_ms)?;
    cfg.kill_after = parse_num(args, "--kill-after", cfg.kill_after)?;
    cfg.kill_pid_file = opt(args, "--kill-pid-file").map(std::path::PathBuf::from);
    cfg.expect_restarts = parse_num(args, "--expect-restarts", cfg.expect_restarts)?;

    // Without --addr, measure against a throwaway in-process server.
    let (addr, local) = match opt(args, "--addr") {
        Some(a) => (a.to_string(), None),
        None => {
            let handle = doppio::serve::start(doppio::serve::ServeConfig {
                workers: 4,
                ..Default::default()
            })
            .map_err(|e| format!("bind: {e}"))?;
            (handle.addr().to_string(), Some(handle))
        }
    };
    cfg.addr = addr;

    let mut report = loadgen::run(&cfg)?;

    // `--procs N` (N > 1): rerun the hot phase fanned out over N worker
    // processes, so one generator's thread ceiling cannot cap what the
    // sharded tier can absorb. The single-process run above already
    // warmed every seed the workers replay.
    let procs: usize = parse_num(args, "--procs", 1)?;
    if procs > 1 {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mp = loadgen::run_hot_multiproc(&loadgen::MultiProcSpec {
            exe,
            addr: cfg.addr.clone(),
            procs,
            connections: cfg.connections,
            distinct: cfg.cold_requests,
            repeats: cfg.hot_repeats,
            connect_timeout_ms: cfg.connect_timeout_ms,
            read_timeout_ms: cfg.read_timeout_ms,
        })?;
        report.put_obj("hot_multiproc", mp);
    }

    let out = std::path::PathBuf::from(opt(args, "--out").unwrap_or(if smoke {
        "target/BENCH_serve_throughput.smoke.json"
    } else {
        "BENCH_serve_throughput.json"
    }));
    loadgen::write_report(&out, &report)?;

    // The report is the artifact; echo the headline numbers.
    let v = doppio::engine::json::parse(&report.render())
        .map_err(|e| format!("report did not round-trip: {e}"))?;
    let speedup = v
        .get("speedup_hot_vs_cold")
        .and_then(doppio::engine::json::Value::as_f64)
        .unwrap_or(0.0);
    if let Some(phases) = v
        .get("phases")
        .and_then(doppio::engine::json::Value::as_arr)
    {
        for p in phases {
            let f = |k: &str| p.get(k).and_then(doppio::engine::json::Value::as_f64);
            println!(
                "{:<5} {:>4.0} reqs  {:>8.1} req/s  p50 {:>7.2} ms  p99 {:>7.2} ms",
                p.get("phase")
                    .and_then(doppio::engine::json::Value::as_str)
                    .unwrap_or("?"),
                f("requests").unwrap_or(0.0),
                f("reqs_per_sec").unwrap_or(0.0),
                f("p50_ms").unwrap_or(0.0),
                f("p99_ms").unwrap_or(0.0),
            );
        }
    }
    println!("hot-over-cold speedup: {speedup:.1}x");
    if let Some(mp) = v.get("hot_multiproc") {
        let f = |k: &str| mp.get(k).and_then(doppio::engine::json::Value::as_f64);
        let n = |k: &str| {
            mp.get(k)
                .and_then(doppio::engine::json::Value::as_u64)
                .unwrap_or(0)
        };
        println!(
            "hot x{} procs: {:>5} reqs  {:>8.1} req/s  p50 {:>7.2} ms  p99 {:>7.2} ms  ({} errors)",
            n("procs"),
            n("requests"),
            f("reqs_per_sec").unwrap_or(0.0),
            f("p50_ms").unwrap_or(0.0),
            f("p99_ms").unwrap_or(0.0),
            n("errors"),
        );
    }
    if let Some(chaos) = v.get("chaos") {
        let n = |k: &str| {
            chaos
                .get(k)
                .and_then(doppio::engine::json::Value::as_u64)
                .unwrap_or(0)
        };
        println!(
            "chaos [{}]: {}/{} ok, {} server err, {} client err, {} lost; {} retries, {} reconnects, breaker {}x open / {}x closed",
            chaos
                .get("profile")
                .and_then(doppio::engine::json::Value::as_str)
                .unwrap_or("?"),
            n("succeeded"),
            n("requests"),
            n("server_errors"),
            n("client_errors"),
            n("lost_replies"),
            n("retries"),
            n("reconnects"),
            n("breaker_opened"),
            n("breaker_closed"),
        );
    }
    println!("report: {}", out.display());

    if flag(args, "--shutdown-after") {
        let mut client = doppio::serve::Client::connect(&cfg.addr)
            .map_err(|e| format!("shutdown connect: {e}"))?;
        let reply = client
            .call(doppio::serve::Request::Shutdown, None)
            .map_err(|e| format!("shutdown: {e}"))?;
        if !reply.ok {
            return Err(format!(
                "server refused shutdown: {}",
                reply.error_code.unwrap_or_default()
            ));
        }
    }
    if let Some(handle) = local {
        handle.join();
    }
    Ok(())
}

/// `loadgen --observe-log FILE`: the recalibration replay. Every
/// observation in the `doppio-observe/v1` NDJSON file is predicted
/// analytically, fed to the server's `observe` verb, then re-predicted
/// with the corrector; the analytic-vs-corrected MAPE comparison is
/// written to a strictly parsed-back report. With `--smoke` the replay
/// additionally fails unless the corrected error beats the analytic one
/// — the CI gate that keeps the corrector earning its keep.
fn loadgen_observe_replay(args: &[String], path: &str) -> Result<(), String> {
    use doppio::engine::json::{self, Object, Value};
    use doppio::learn::{mape, RunObservation};
    use doppio::serve::protocol::{parse_workload as wire_workload, PredictSpec};
    use doppio::serve::{Client, ClientConfig, Reply, Request};

    let smoke = flag(args, "--smoke");
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut observations: Vec<RunObservation> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        observations
            .push(RunObservation::parse_line(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?);
    }
    if observations.is_empty() {
        return Err(format!("{path} holds no observations"));
    }

    // Without --addr, replay against a throwaway in-process server.
    let (addr, local) = match opt(args, "--addr") {
        Some(a) => (a.to_string(), None),
        None => {
            let handle = doppio::serve::start(doppio::serve::ServeConfig {
                workers: 4,
                ..Default::default()
            })
            .map_err(|e| format!("bind: {e}"))?;
            (handle.addr().to_string(), Some(handle))
        }
    };

    // First predict per environment calibrates the base model server-side,
    // so the read timeout defaults far beyond the interactive ones.
    let ms = |v: u64| (v > 0).then(|| std::time::Duration::from_millis(v));
    let ccfg = ClientConfig {
        connect_timeout: ms(parse_num(args, "--connect-timeout-ms", 2_000)?),
        read_timeout: ms(parse_num(args, "--read-timeout-ms", 300_000)?),
        write_timeout: ms(parse_num(args, "--read-timeout-ms", 300_000)?),
    };
    let mut client =
        Client::connect_with(&addr, &ccfg).map_err(|e| format!("connect {addr}: {e}"))?;

    let spec = |o: &RunObservation, corrected: bool| -> Result<Request, String> {
        let workload = wire_workload(&o.workload)
            .ok_or_else(|| format!("observation names unknown workload '{}'", o.workload))?;
        Ok(Request::Predict(PredictSpec {
            workload,
            nodes: o.nodes,
            cores: o.cores,
            config: o.config,
            paper: o.paper,
            profile_nodes: 3,
            corrected,
        }))
    };
    let call = |client: &mut Client, req: Request, what: &str| -> Result<Reply, String> {
        let reply = client.call(req, None).map_err(|e| format!("{what}: {e}"))?;
        if !reply.ok {
            return Err(format!(
                "{what} failed: {}",
                reply.error_code.unwrap_or_default()
            ));
        }
        Ok(reply)
    };
    let num = |reply: &Reply, key: &str, what: &str| -> Result<f64, String> {
        reply
            .result
            .as_ref()
            .and_then(|r| r.get(key))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{what} reply is missing {key}"))
    };

    // Phase 1: the static model's view of every observed run.
    let mut analytic = Vec::new();
    for o in &observations {
        let reply = call(&mut client, spec(o, false)?, "analytic predict")?;
        analytic.push(num(&reply, "total_model_secs", "analytic predict")?);
    }
    // Phase 2: replay the log through the observe verb.
    let mut corrector_version = 0u64;
    for o in &observations {
        let reply = call(&mut client, Request::Observe(o.clone()), "observe")?;
        corrector_version = num(&reply, "corrector_version", "observe")? as u64;
    }
    // Phase 3: re-predict with the fitted corrector.
    let mut corrected = Vec::new();
    for o in &observations {
        let reply = call(&mut client, spec(o, true)?, "corrected predict")?;
        corrected.push(num(&reply, "total_corrected_secs", "corrected predict")?);
    }

    let observed: Vec<f64> = observations
        .iter()
        .map(RunObservation::total_secs)
        .collect();
    let pairs = |preds: &[f64]| -> Vec<(f64, f64)> {
        preds
            .iter()
            .copied()
            .zip(observed.iter().copied())
            .collect()
    };
    let analytic_mape = mape(&pairs(&analytic));
    let corrected_mape = mape(&pairs(&corrected));

    let mut report = Object::new();
    report.put_str("schema", "doppio-learn-replay/v1");
    report.put_str("log", path);
    report.put_u64("observations", observations.len() as u64);
    report.put_u64("corrector_version", corrector_version);
    report.put_f64("analytic_mape_pct", analytic_mape);
    report.put_f64("corrected_mape_pct", corrected_mape);
    let out = std::path::PathBuf::from(opt(args, "--out").unwrap_or(if smoke {
        "target/LEARN_replay.smoke.json"
    } else {
        "LEARN_replay.json"
    }));
    std::fs::write(&out, report.render()).map_err(|e| format!("write {}: {e}", out.display()))?;

    // Strict parse-back: the artifact must round-trip with sane numbers
    // before the replay reports success.
    let back = std::fs::read_to_string(&out).map_err(|e| format!("read {}: {e}", out.display()))?;
    let v = json::parse(&back).map_err(|e| format!("parse-back {}: {e}", out.display()))?;
    if v.get("schema").and_then(Value::as_str) != Some("doppio-learn-replay/v1") {
        return Err("parse-back: wrong or missing schema".into());
    }
    for key in ["analytic_mape_pct", "corrected_mape_pct"] {
        let m = v
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("parse-back: missing {key}"))?;
        if !m.is_finite() || m < 0.0 {
            return Err(format!("parse-back: {key} = {m} is not a sane error"));
        }
    }

    println!(
        "observe replay: {} observation(s), analytic MAPE {:.1}% -> corrected {:.1}% (corrector v{})",
        observations.len(),
        analytic_mape,
        corrected_mape,
        corrector_version
    );
    println!("report: {}", out.display());
    if smoke && corrected_mape >= analytic_mape {
        return Err(format!(
            "corrected MAPE {corrected_mape:.2}% did not beat analytic {analytic_mape:.2}%"
        ));
    }

    if flag(args, "--shutdown-after") {
        let reply = client
            .call(Request::Shutdown, None)
            .map_err(|e| format!("shutdown: {e}"))?;
        if !reply.ok {
            return Err(format!(
                "server refused shutdown: {}",
                reply.error_code.unwrap_or_default()
            ));
        }
    }
    if let Some(handle) = local {
        handle.join();
    }
    Ok(())
}

/// `loadgen --hold N`: opens N idle connections to `--addr`, prints
/// `held N` once all are up, then parks until stdin closes. Capacity
/// tests use a few of these as side-car processes so one process's fd
/// limit does not cap how many connections the reactor must carry.
fn loadgen_hold(args: &[String], hold: usize) -> Result<(), String> {
    let addr = opt(args, "--addr").ok_or("--hold requires --addr")?;
    let mut conns = Vec::with_capacity(hold);
    for i in 0..hold {
        conns.push(
            std::net::TcpStream::connect(addr).map_err(|e| format!("hold connect {i}: {e}"))?,
        );
    }
    println!("held {hold}");
    use std::io::{Read as _, Write as _};
    std::io::stdout().flush().ok();
    let mut sink = Vec::new();
    std::io::stdin()
        .read_to_end(&mut sink)
        .map_err(|e| format!("hold stdin: {e}"))?;
    drop(conns);
    Ok(())
}

/// `loadgen --hot-worker`: one child of the multi-process hot phase.
/// Replays `--requests` distinct pre-warmed seeds `--repeats` times over
/// `--connections` closed loops against `--addr`, then prints a single
/// `doppio-loadgen-worker/v1` summary line for the parent to merge.
fn loadgen_hot_worker(args: &[String]) -> Result<(), String> {
    use doppio::serve::loadgen::{hot_worker, LoadgenConfig};
    let defaults = LoadgenConfig::default();
    let addr = opt(args, "--addr").ok_or("--hot-worker requires --addr")?;
    let connections = parse_num(args, "--connections", defaults.connections)?;
    let distinct = parse_num(args, "--requests", defaults.cold_requests)?;
    let repeats = parse_num(args, "--repeats", defaults.hot_repeats)?;
    let ms = |v: u64| (v > 0).then(|| std::time::Duration::from_millis(v));
    let connect_ms = parse_num(args, "--connect-timeout-ms", defaults.connect_timeout_ms)?;
    let read_ms = parse_num(args, "--read-timeout-ms", defaults.read_timeout_ms)?;
    let ccfg = doppio::serve::ClientConfig {
        connect_timeout: ms(connect_ms),
        read_timeout: ms(read_ms),
        write_timeout: ms(read_ms),
    };
    // The seed base is fixed at the loadgen default so every worker
    // replays exactly the set the parent's cold phase warmed.
    let summary = hot_worker(
        addr,
        connections,
        distinct,
        repeats,
        defaults.base_seed,
        &ccfg,
    )?;
    println!("{}", summary.render_line());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn option_parsing() {
        let a = argv("--nodes 5 --config 2hdd --paper");
        assert_eq!(opt(&a, "--nodes"), Some("5"));
        assert_eq!(opt(&a, "--missing"), None);
        assert!(flag(&a, "--paper"));
        assert!(!flag(&a, "--quiet"));
        assert_eq!(parse_num::<usize>(&a, "--nodes", 3).unwrap(), 5);
        assert_eq!(parse_num::<usize>(&a, "--cores", 36).unwrap(), 36);
        assert!(parse_num::<usize>(&a, "--config", 0).is_err());
    }

    #[test]
    fn config_names() {
        assert_eq!(parse_config("2ssd").unwrap(), HybridConfig::SsdSsd);
        assert_eq!(parse_config("2hdd").unwrap(), HybridConfig::HddHdd);
        assert_eq!(parse_config("hdd-ssd").unwrap(), HybridConfig::HddSsd);
        assert_eq!(parse_config("ssd-hdd").unwrap(), HybridConfig::SsdHdd);
        assert!(parse_config("floppy").is_err());
    }

    #[test]
    fn workload_names() {
        assert_eq!(parse_workload("gatk4").unwrap(), Workload::Gatk4);
        assert_eq!(parse_workload("pr").unwrap(), Workload::PageRank);
        assert_eq!(parse_workload("ts").unwrap(), Workload::Terasort);
        assert!(parse_workload("spark").is_err());
    }

    #[test]
    fn phases_command_runs() {
        assert!(cmd_phases(&argv("--bw 120 --t 60 --lambda 4")).is_ok());
        assert!(cmd_phases(&argv(
            "--bw 120 --t 60 --lambda 4 --cores 8 --sweep --jobs 2"
        ))
        .is_ok());
        assert!(cmd_list().is_ok());
    }

    #[test]
    fn fault_profile_parsing() {
        assert_eq!(parse_fault_profile(&argv("")).unwrap(), None);
        assert_eq!(
            parse_fault_profile(&argv("--inject executor-loss")).unwrap(),
            Some(FaultProfile::ExecutorLoss)
        );
        assert_eq!(
            parse_fault_profile(&argv("--inject chaos --fault-seed 3")).unwrap(),
            Some(FaultProfile::Chaos)
        );
        assert!(parse_fault_profile(&argv("--inject gremlins")).is_err());
        // Every profile listed in USAGE round-trips through the parser.
        for p in FaultProfile::ALL {
            assert!(USAGE.contains(p.name()), "USAGE lists '{}'", p.name());
            assert_eq!(FaultProfile::parse(p.name()), Some(p));
        }
    }

    #[test]
    fn usage_strings_agree_on_simulate_flags() {
        // The module header (line 5) and the USAGE const drifted once;
        // keep every simulate flag present in both.
        for flag in [
            "--workload",
            "--nodes",
            "--cores",
            "--config",
            "--paper",
            "--seed",
            "--runs",
            "--jobs",
            "--batch",
            "--inject",
            "--fault-seed",
            "--storage",
            "--emit-observation",
        ] {
            assert!(USAGE.contains(flag), "USAGE lists {flag}");
        }
    }

    #[test]
    fn usage_lists_every_recalibration_flag() {
        // The online-recalibration surface: predict's corrected columns,
        // the observation emitter, the loadgen replay, and the corrector
        // names `doppio list` prints.
        for flag in [
            "--corrected",
            "--observe-log",
            "--emit-observation",
            "--profile-nodes",
            "correctors",
        ] {
            assert!(USAGE.contains(flag), "USAGE lists {flag}");
        }
        for (name, _) in doppio::learn::CORRECTOR_NAMES {
            assert!(USAGE.contains(name), "USAGE lists corrector '{name}'");
        }
    }

    #[test]
    fn storage_profile_parsing() {
        assert_eq!(parse_storage(&argv("")).unwrap(), StorageProfile::Local);
        assert_eq!(
            parse_storage(&argv("--storage lustre")).unwrap(),
            StorageProfile::lustre()
        );
        assert!(parse_storage(&argv("--storage floppy")).is_err());
        // Every profile listed by `doppio list` round-trips through the
        // parser and appears in USAGE.
        for &(name, _) in doppio::cluster::PROFILE_NAMES {
            assert!(USAGE.contains(name), "USAGE lists '{name}'");
            let p = StorageProfile::parse(name).expect("listed profile parses");
            assert_eq!(p.name(), name);
        }
    }

    #[test]
    fn usage_lists_every_whatif_flag() {
        for flag in [
            "doppio whatif cache-sweep",
            "--working-set-gib",
            "--smoke",
            "--out",
        ] {
            assert!(USAGE.contains(flag), "USAGE lists {flag}");
        }
    }

    #[test]
    fn usage_lists_every_serve_and_loadgen_flag() {
        for flag in [
            "doppio serve",
            "--addr",
            "--workers",
            "--queue-bound",
            "--cache",
            "--deadline-ms",
            "--port-file",
            "--allow-shutdown",
            "--max-line-bytes",
            "--idle-timeout-ms",
            "doppio health",
            "--wait-ms",
            "doppio loadgen",
            "--smoke",
            "--connections",
            "--requests",
            "--repeats",
            "--out",
            "--shutdown-after",
            "--chaos",
            "--chaos-seed",
            "--connect-timeout-ms",
            "--read-timeout-ms",
            "--shards",
            "--vnodes",
            "--procs",
            "--hot-worker",
            "--hold",
            "--observe-log",
            "--snapshot-dir",
            "--pid-dir",
            "--kill-after",
            "--kill-pid-file",
            "--expect-restarts",
        ] {
            assert!(USAGE.contains(flag), "USAGE lists {flag}");
        }
    }

    #[test]
    fn chaos_profiles_listed_in_usage() {
        for p in doppio::serve::ChaosProfile::ALL {
            assert!(USAGE.contains(p.name()), "USAGE lists '{}'", p.name());
            assert_eq!(doppio::serve::ChaosProfile::parse(p.name()), Ok(p));
        }
        assert!(doppio::serve::ChaosProfile::parse("gremlins").is_err());
    }

    #[test]
    fn usage_lists_every_dispatched_command() {
        // Every command the dispatcher in `main` accepts (except help
        // aliases) must be documented.
        for cmd in [
            "doppio fio",
            "doppio simulate",
            "doppio predict",
            "doppio whatif",
            "doppio optimize",
            "doppio phases",
            "doppio serve",
            "doppio health",
            "doppio loadgen",
            "doppio list",
        ] {
            assert!(USAGE.contains(cmd), "USAGE lists {cmd}");
        }
    }

    #[test]
    fn jobs_parsing() {
        assert_eq!(parse_engine(&argv("--jobs 3")).unwrap().jobs(), 3);
        assert_eq!(parse_engine(&argv("--jobs 1")).unwrap().jobs(), 1);
        assert!(parse_engine(&argv("--jobs many")).is_err());
        let auto = Engine::auto().jobs();
        assert_eq!(parse_engine(&argv("--jobs 0")).unwrap().jobs(), auto);
        assert_eq!(parse_engine(&argv("")).unwrap().jobs(), auto);
    }
}
