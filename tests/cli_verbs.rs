//! The `doppio` binary against the wire: the CLI prints the same verb
//! values a shard serves, and `--help` on a subcommand only prints help.

use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use doppio::cluster::HybridConfig;
use doppio::engine::json::Value;
use doppio::serve::{start, Client, PredictSpec, Request, ServeConfig};
use doppio::workloads::Workload;

/// Runs the binary with `args`, killing it if it has not exited after
/// `limit`. Returns the exit status (`None` when killed) and stdout.
fn run_with_limit(args: &[&str], limit: Duration) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_doppio"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary starts");
    let deadline = Instant::now() + limit;
    let status = loop {
        if let Some(status) = child.try_wait().expect("child is waitable") {
            break status.code();
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout)
        .expect("stdout is UTF-8");
    (status, stdout)
}

#[test]
fn help_on_a_subcommand_prints_usage_instead_of_running_it() {
    // `serve` would otherwise bind a port and park forever.
    let (status, stdout) = run_with_limit(&["serve", "--help"], Duration::from_secs(5));
    assert_eq!(status, Some(0), "serve --help must exit 0 at once");
    assert!(stdout.contains("USAGE:"), "stdout: {stdout}");
    let (status, stdout) = run_with_limit(
        &["predict", "--workload", "terasort", "-h"],
        Duration::from_secs(5),
    );
    assert_eq!(status, Some(0));
    assert!(stdout.contains("USAGE:"), "stdout: {stdout}");
}

#[test]
fn cli_predict_table_and_served_payload_come_from_one_prediction() {
    let (status, table) = run_with_limit(
        &[
            "predict",
            "--workload",
            "terasort",
            "--nodes",
            "2",
            "--cores",
            "8",
            "--config",
            "2hdd",
            "--jobs",
            "1",
        ],
        Duration::from_secs(120),
    );
    assert_eq!(status, Some(0), "CLI predict fails:\n{table}");

    let handle = start(ServeConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let reply = client
        .call(
            Request::Predict(PredictSpec {
                workload: Workload::Terasort,
                nodes: 2,
                cores: 8,
                config: HybridConfig::HddHdd,
                paper: false,
                profile_nodes: 3,
                corrected: false,
            }),
            None,
        )
        .expect("predict reply");
    handle.join();
    assert!(reply.ok, "served predict fails: {:?}", reply.error_message);
    let payload = reply.result.expect("reply carries a payload");
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).expect(key);

    // The table's rows after its two header lines: one per stage, then
    // TOTAL. Each row is `name exp model err`, times in minutes.
    let rows: Vec<Vec<&str>> = table
        .lines()
        .skip(2)
        .map(|l| l.split_whitespace().collect())
        .collect();
    let stages = payload
        .get("stages")
        .and_then(Value::as_arr)
        .expect("payload has stages");
    assert_eq!(rows.len(), stages.len() + 1, "table:\n{table}");
    for (row, stage) in rows.iter().zip(stages) {
        let name = stage.get("name").and_then(Value::as_str).expect("name");
        assert_eq!(row[0], name, "table:\n{table}");
        assert_eq!(row[1], format!("{:.1}", num(stage, "exp_secs") / 60.0));
        assert_eq!(row[2], format!("{:.1}", num(stage, "model_secs") / 60.0));
    }
    let total = rows.last().expect("TOTAL row");
    assert_eq!(total[0], "TOTAL");
    assert_eq!(
        total[2],
        format!("{:.1}", num(&payload, "total_model_secs") / 60.0)
    );
}
