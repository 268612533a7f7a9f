//! Shared harness for the per-figure/per-table experiment benches.
//!
//! Every `benches/<id>.rs` target regenerates one table or figure of the
//! paper: it re-runs the experiment on the discrete-event simulator (the
//! "exp" series), evaluates the calibrated Doppio model where the figure
//! compares against it (the "model" series), and prints the same rows the
//! paper reports. EXPERIMENTS.md records paper-vs-measured for each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use doppio_cluster::{ClusterSpec, HybridConfig};
use doppio_engine::Engine;
use doppio_model::{calibrate_paper, AppModel};
use doppio_sparksim::{App, AppRun, Simulation, SparkConf};

/// The scenario engine the bench targets share, sized by the `DOPPIO_JOBS`
/// environment variable: unset or `0` = one worker per core, `1` = serial,
/// `N` = that many workers. Results are deterministic at any setting — the
/// engine only changes wall-clock time.
pub fn engine() -> Engine {
    match std::env::var("DOPPIO_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        None | Some(0) => Engine::auto(),
        Some(n) => Engine::with_jobs(n),
    }
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, title: &str) {
    println!();
    println!("==================================================================");
    println!("{id}: {title}");
    println!("==================================================================");
}

/// Prints a closing line so outputs are easy to split in the log.
pub fn footer(id: &str) {
    println!("--- end {id} ---");
}

/// Runs an application on a paper-style cluster. Noise is disabled so the
/// printed numbers are exactly reproducible; `seed` varies the jitter when
/// error bars are wanted.
pub fn simulate(app: &App, slaves: usize, cores: u32, config: HybridConfig) -> AppRun {
    let cluster = ClusterSpec::paper_cluster(slaves, 36, config);
    Simulation::with_conf(
        cluster,
        SparkConf::paper().with_cores(cores).without_noise(),
    )
    .run(app)
    .expect("simulation succeeds")
}

/// Like [`simulate`] but with compute noise, for error bars.
pub fn simulate_noisy(
    app: &App,
    slaves: usize,
    cores: u32,
    config: HybridConfig,
    seed: u64,
) -> AppRun {
    let cluster = ClusterSpec::paper_cluster(slaves, 36, config);
    Simulation::with_conf(
        cluster,
        SparkConf::paper().with_cores(cores).with_seed(seed),
    )
    .run(app)
    .expect("simulation succeeds")
}

/// Runs `runs` noisy simulations and returns (mean, min, max) of the total
/// time in minutes — the paper's five-run error bars. The seeded replicas
/// are independent, so they fan out over the [`engine`]; each replica's
/// jitter comes only from its own seed, so the statistics are identical at
/// any `DOPPIO_JOBS` setting.
pub fn error_bars(
    app: &App,
    slaves: usize,
    cores: u32,
    config: HybridConfig,
    runs: u64,
) -> (f64, f64, f64) {
    let seeds: Vec<u64> = (0..runs).collect();
    let times = engine().par_map(&seeds, |&seed| {
        simulate_noisy(app, slaves, cores, config, 0xBEEF + seed)
            .total_time()
            .as_mins()
    });
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let max = times.iter().copied().fold(0.0f64, f64::max);
    (mean, min, max)
}

/// Calibrates the Doppio model for an application using the paper's
/// four-sample-run procedure on a small profiling cluster.
pub fn calibrate(app: &App, profile_slaves: usize) -> AppModel {
    let report = calibrate_paper(app, profile_slaves, &engine()).expect("calibration succeeds");
    for w in &report.warnings {
        println!("  [calibration note] {w}");
    }
    report.model
}

/// Formats minutes with one decimal.
pub fn mins(secs: f64) -> String {
    format!("{:.1}", secs / 60.0)
}

/// Relative error in percent.
pub fn err_pct(measured: f64, predicted: f64) -> f64 {
    if measured == 0.0 {
        0.0
    } else {
        (predicted - measured).abs() / measured * 100.0
    }
}

pub use doppio_engine::json;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_behave() {
        assert_eq!(mins(120.0), "2.0");
        assert!((err_pct(100.0, 90.0) - 10.0).abs() < 1e-12);
        assert_eq!(err_pct(0.0, 5.0), 0.0);
    }
}
