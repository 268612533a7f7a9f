//! The paper's job-scheduler use case (Section I): "our performance
//! prediction model can allow the scheduler to know ahead the approximating
//! job execution time and thus enable better job scheduling with less job
//! waiting time."
//!
//! Calibrates models for three heterogeneous jobs, queues them on a shared
//! cluster, and compares FIFO against shortest-predicted-job-first — then
//! checks the predicted schedule against fully simulated runtimes.
//!
//! ```sh
//! cargo run --release --example job_scheduler
//! ```

use doppio::cluster::{ClusterSpec, HybridConfig};
use doppio::engine::Engine;
use doppio::model::scheduler::{schedule, Policy, QueuedJob};
use doppio::model::{calibrate_paper, PredictEnv};
use doppio::sparksim::{App, Simulation, SparkConf};
use doppio::workloads::{svm, terasort, triangle};

fn calibrated(app: App) -> doppio::model::AppModel {
    calibrate_paper(&app, 3, &Engine::serial())
        .expect("calibration succeeds")
        .model
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("calibrating three jobs with the four-sample-run procedure...");
    let jobs = vec![
        QueuedJob::new(
            "terasort",
            calibrated(terasort::app(&terasort::Params::scaled_down())),
            0.0,
        ),
        QueuedJob::new(
            "svm",
            calibrated(svm::app(&svm::Params::scaled_down())),
            0.0,
        ),
        QueuedJob::new(
            "triangle",
            calibrated(triangle::app(&triangle::Params::scaled_down())),
            0.0,
        ),
    ];

    let env = PredictEnv::hybrid(5, 36, HybridConfig::SsdSsd);
    println!();
    println!("predicted runtimes on the shared cluster (5 nodes, 36 cores, 2SSD):");
    for j in &jobs {
        println!("  {:<10} {:>7.1} min", j.name, j.model.predict(&env) / 60.0);
    }

    let fifo = schedule(&jobs, &env, Policy::Fifo);
    let spt = schedule(&jobs, &env, Policy::ShortestPredictedFirst);
    println!();
    println!("FIFO (submission order):");
    print!("{fifo}");
    println!();
    println!("shortest-predicted-first:");
    print!("{spt}");
    println!();
    println!(
        "mean wait improves {:.0}% with model-driven ordering",
        (1.0 - spt.mean_wait_secs() / fifo.mean_wait_secs()) * 100.0
    );

    // Ground-truth check: how accurate were the predictions the scheduler
    // relied on?
    println!();
    println!("prediction vs simulated ground truth:");
    let cluster = ClusterSpec::paper_cluster(5, 36, HybridConfig::SsdSsd);
    for (job, app) in [
        ("terasort", terasort::app(&terasort::Params::scaled_down())),
        ("svm", svm::app(&svm::Params::scaled_down())),
        ("triangle", triangle::app(&triangle::Params::scaled_down())),
    ] {
        let sim = Simulation::with_conf(cluster.clone(), SparkConf::paper().without_noise())
            .run(&app)?
            .total_time()
            .as_secs();
        let pred = jobs
            .iter()
            .find(|j| j.name == job)
            .unwrap()
            .model
            .predict(&env);
        println!(
            "  {:<10} exp {:>6.1} min, model {:>6.1} min ({:+.1}%)",
            job,
            sim / 60.0,
            pred / 60.0,
            (pred / sim - 1.0) * 100.0
        );
    }
    Ok(())
}
