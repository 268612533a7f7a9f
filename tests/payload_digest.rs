//! Payload-digest regression suite: FNV-1a digests of whole
//! `doppio-app-run/v1` lines, the bytes a `simulate` reply carries.
//!
//! `golden_trace` pins per-stage `t_avg` bits; this suite pins the full
//! rendered payload, including the scheduler counters (`events_fired`,
//! `peak_heap`, ...) that change when the simulator wakes early or late
//! even though every simulated timestamp stays put. The cases mirror the
//! served requests: the paper-scale terasort the `sim-terasort` benchmark
//! sends, the load generator's scaled terasort, and four scaled workloads
//! on a five-node HDD cluster.
//!
//! To re-bless after an intentional simulator change:
//!
//! ```text
//! DOPPIO_BLESS=1 cargo test --test payload_digest
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use doppio::cluster::{ClusterSpec, HybridConfig};
use doppio::sparksim::{json, Simulation, SparkConf};
use doppio::workloads::Workload;

const FIXTURE: &str = "tests/fixtures/payload_digests.tsv";

/// One served simulation: `(workload, paper scale, nodes, cores, config, seed)`.
type Case = (Workload, bool, usize, u32, HybridConfig, u64);

fn cases() -> Vec<Case> {
    let mut cases: Vec<Case> = (1..=3)
        .map(|seed| (Workload::Terasort, true, 32, 36, HybridConfig::SsdHdd, seed))
        .collect();
    cases.push((Workload::Terasort, false, 2, 4, HybridConfig::SsdSsd, 7));
    for w in [
        Workload::Svm,
        Workload::PageRank,
        Workload::TriangleCount,
        Workload::Gatk4,
    ] {
        cases.push((w, false, 5, 36, HybridConfig::HddHdd, 1));
    }
    cases
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs every case exactly as the server's `simulate` does and renders
/// one tab-separated line per case with the payload's length and digest.
fn snapshot() -> String {
    let mut out = String::from("# workload\tpaper\tnodes\tcores\tconfig\tseed\tbytes\tfnv1a\n");
    for (workload, paper, nodes, cores, config, seed) in cases() {
        let app = if paper {
            workload.paper_app()
        } else {
            workload.scaled_app()
        };
        let cluster = ClusterSpec::paper_cluster(nodes, 36, config);
        let conf = SparkConf::paper().with_cores(cores).with_seed(seed);
        let run = Simulation::with_conf(cluster, conf)
            .run(&app)
            .expect("case simulates");
        let line = json::app_run(&run).render_line();
        writeln!(
            out,
            "{}\t{paper}\t{nodes}\t{cores}\t{config:?}\t{seed}\t{}\t{:016x}",
            workload.name(),
            line.len(),
            fnv1a(line.as_bytes()),
        )
        .unwrap();
    }
    out
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

#[test]
fn served_payloads_match_the_checked_in_digests() {
    let current = snapshot();
    if std::env::var_os("DOPPIO_BLESS").is_some() {
        std::fs::write(fixture_path(), &current).expect("fixture is writable");
        return;
    }
    let golden = std::fs::read_to_string(fixture_path())
        .expect("fixture exists — run with DOPPIO_BLESS=1 to create it");
    let diffs: Vec<String> = golden
        .lines()
        .zip(current.lines())
        .filter(|(g, c)| g != c)
        .map(|(g, c)| format!("  - {g}\n  + {c}"))
        .collect();
    assert!(
        diffs.is_empty() && golden.lines().count() == current.lines().count(),
        "payload digests drifted ({} line(s) differ):\n{}\n\
         If the simulator change is intentional, re-bless with \
         DOPPIO_BLESS=1 and review the fixture diff.",
        diffs.len(),
        diffs.join("\n")
    );
}
