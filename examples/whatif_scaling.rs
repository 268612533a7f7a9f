//! Model-driven what-if analysis: once calibrated, Equation 1 answers
//! capacity-planning questions in microseconds — "what if I double the
//! cores?", "what if I add nodes?", "would NVMe help?" — the scheduler/
//! provisioning use cases the paper sketches in its introduction.
//!
//! ```sh
//! cargo run --release --example whatif_scaling
//! ```

use doppio::cluster::HybridConfig;
use doppio::engine::Engine;
use doppio::model::whatif::{cores_sweep, local_device_sweep, nodes_sweep};
use doppio::model::{calibrate_paper, PredictEnv};
use doppio::workloads::terasort;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = terasort::app(&terasort::Params::scaled_down());

    println!("calibrating Terasort with the four-sample-run procedure (N = 3)...");
    let report = calibrate_paper(&app, 3, &Engine::serial())?;
    let model = report.model;
    for s in model.stages() {
        println!("  {s}");
    }
    println!();

    let base = PredictEnv::hybrid(10, 16, HybridConfig::SsdSsd);

    let cores = cores_sweep(&model, &base, &[4, 8, 12, 16, 24, 36, 48]);
    print!("{cores}");
    match cores.knee(1.10) {
        Some(k) => println!(
            "  -> past {} the next step buys <10%: stop buying cores there.",
            cores.points[k].label
        ),
        None => println!("  -> every step still pays >10%: core-bound throughout."),
    }
    println!();

    let nodes = nodes_sweep(&model, &base, &[2, 4, 8, 16, 32]);
    print!("{nodes}");
    println!();

    let devices = local_device_sweep(
        &model,
        &base,
        &[
            doppio::storage::presets::hdd_wd4000(),
            doppio::storage::presets::ssd_mz7lm(),
            doppio::storage::presets::nvme_p4510(),
        ],
    );
    print!("{devices}");
    println!(
        "  -> best Spark-local device: {} ({:.1} min)",
        devices.best().label,
        devices.best().runtime_secs / 60.0
    );
    println!();

    println!("per-stage bottlenecks at 10 nodes, P = 36, 2HDD:");
    let env = PredictEnv::hybrid(10, 36, HybridConfig::HddHdd);
    for stage in model.stages() {
        let bottleneck = stage
            .bottleneck(&env)
            .map(|c| c.channel.to_string())
            .unwrap_or_else(|| "CPU (scales with cores)".into());
        println!(
            "  {:<6} {:>8.1} min   phase: {:<26} bound by: {}",
            stage.name,
            stage.predict(&env) / 60.0,
            stage.phase(&env).to_string(),
            bottleneck
        );
        for ch in &stage.channels {
            if let Some(big_b) = stage.turning_point(ch, &env) {
                println!(
                    "         {:<14} b = {:>6.1}, B = λ·b = {:>7.1}",
                    ch.channel.to_string(),
                    ch.break_point(&env),
                    big_b
                );
            }
        }
    }
    Ok(())
}
