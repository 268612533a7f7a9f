//! Payload-digest regression suite: FNV-1a digests of whole served
//! payloads.
//!
//! `golden_trace` pins per-stage `t_avg` bits; this suite pins the full
//! rendered payload. For `simulate` that is the `doppio-app-run/v1` line,
//! including the scheduler counters (`events_fired`, `peak_heap`, ...)
//! that change when the simulator wakes early or late even though every
//! simulated timestamp stays put. Those cases mirror the served requests:
//! the paper-scale terasort the `sim-terasort` benchmark sends, the load
//! generator's scaled terasort, and four scaled workloads on a five-node
//! HDD cluster. For `predict` and `optimize` the payloads come from an
//! in-process server over the wire, so the calibration recipe, the
//! pairing of model stages with run stages and the JSON renderers are
//! pinned together.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! DOPPIO_BLESS=1 cargo test --test payload_digest
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use doppio::cluster::{ClusterSpec, HybridConfig};
use doppio::serve::{start, Client, PredictSpec, Request, ServeConfig};
use doppio::sparksim::{json, Simulation, SparkConf};
use doppio::workloads::Workload;

const FIXTURE: &str = "tests/fixtures/payload_digests.tsv";
const VERB_FIXTURE: &str = "tests/fixtures/verb_payload_digests.tsv";

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

/// One served `predict` or `optimize`: a fixture label and the request.
fn verb_cases() -> Vec<(&'static str, Request)> {
    let predict = |workload, nodes, cores, config, corrected| {
        Request::Predict(PredictSpec {
            workload,
            nodes,
            cores,
            config,
            paper: false,
            profile_nodes: 3,
            corrected,
        })
    };
    vec![
        (
            "predict Terasort scaled 2x8 HddHdd",
            predict(Workload::Terasort, 2, 8, HybridConfig::HddHdd, false),
        ),
        (
            "predict Terasort scaled 2x8 HddHdd corrected",
            predict(Workload::Terasort, 2, 8, HybridConfig::HddHdd, true),
        ),
        (
            "predict PageRank scaled 5x36 SsdSsd",
            predict(Workload::PageRank, 5, 36, HybridConfig::SsdSsd, false),
        ),
        ("optimize GATK4 scaled", Request::Optimize { paper: false }),
        ("optimize GATK4 paper", Request::Optimize { paper: true }),
    ]
}

/// Asks an in-process server for every verb case and renders one
/// tab-separated line per case with the payload's length and digest.
fn verb_snapshot() -> String {
    let handle = start(ServeConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let mut out = String::from("# request\tbytes\tfnv1a\n");
    for (label, request) in verb_cases() {
        let reply = client.call(request, None).expect("reply arrives");
        assert!(reply.ok, "{label} failed: {:?}", reply.error_message);
        // `result` is the reply's last field and carries the payload
        // verbatim, so the payload is what follows its key, minus the
        // envelope's closing brace.
        let payload = reply
            .raw
            .split_once("\"result\": ")
            .and_then(|(_, rest)| rest.strip_suffix('}'))
            .expect("reply carries a result");
        writeln!(
            out,
            "{label}\t{}\t{:016x}",
            payload.len(),
            fnv1a(payload.as_bytes())
        )
        .unwrap();
    }
    handle.join();
    out
}

fn fixture_path(fixture: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(fixture)
}

#[test]
fn served_payloads_match_the_checked_in_digests() {
    check_against(FIXTURE, &snapshot());
}

#[test]
fn served_predict_and_optimize_payloads_match_the_checked_in_digests() {
    check_against(VERB_FIXTURE, &verb_snapshot());
}

/// Compares `current` with the checked-in `fixture`, or overwrites the
/// fixture under `DOPPIO_BLESS`.
fn check_against(fixture: &str, current: &str) {
    if std::env::var_os("DOPPIO_BLESS").is_some() {
        std::fs::write(fixture_path(fixture), current).expect("fixture is writable");
        return;
    }
    let golden = std::fs::read_to_string(fixture_path(fixture))
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
         If the change is intentional, re-bless with \
         DOPPIO_BLESS=1 and review the fixture diff.",
        diffs.len(),
        diffs.join("\n")
    );
}
