//! Tier start/stop under repetition.
//!
//! `doppio serve --shards 4` is started and stopped a hundred times in a
//! row, the way a benchmark or a CI job brings tiers up and down. Every
//! cycle must come up ready, have each shard answer on the address the
//! router reports for it, and drain over the wire to a clean exit. A
//! start-up race in the shard handshake, a shard that misses the
//! shutdown fan-out, or a non-zero exit shows up as a failed cycle here.

use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use doppio::engine::json::Value;
use doppio::serve::{Client, ClientConfig, Request};

const CYCLES: usize = 100;
const SHARDS: usize = 4;

/// Kills and reaps the wrapped tier on drop, so a failed cycle leaves
/// no processes behind (the router's own drop kills its shards).
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_secs(2)),
        read_timeout: Some(Duration::from_secs(10)),
        write_timeout: Some(Duration::from_secs(2)),
    }
}

/// One `health` call on a fresh connection.
fn health(addr: SocketAddr) -> Value {
    let reply = Client::connect_with(addr, &client_config())
        .unwrap_or_else(|e| panic!("connect {addr}: {e}"))
        .call(Request::Health, Some(10_000))
        .unwrap_or_else(|e| panic!("health on {addr}: {e}"));
    assert!(reply.ok, "health on {addr}: {:?}", reply.error_message);
    reply.result.expect("health payload")
}

fn is_ready(health: &Value) -> bool {
    health.get("ready").and_then(Value::as_bool) == Some(true)
}

/// Polls the router's port file until it holds an address.
fn wait_for_port(path: &Path, cycle: usize) -> SocketAddr {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(addr) = std::fs::read_to_string(path)
            .ok()
            .and_then(|s| s.trim().parse().ok())
        {
            return addr;
        }
        assert!(
            Instant::now() < deadline,
            "cycle {cycle}: tier wrote no port file"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn sharded_tier_starts_serves_and_drains_a_hundred_times() {
    let dir = std::env::temp_dir().join(format!("doppio-tier-startup-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for cycle in 0..CYCLES {
        let port_file = dir.join(format!("router-{cycle}.port"));
        let mut tier = Reaped(
            Command::new(env!("CARGO_BIN_EXE_doppio"))
                .args(["serve", "--shards", &SHARDS.to_string()])
                .args(["--addr", "127.0.0.1:0", "--allow-shutdown", "--port-file"])
                .arg(&port_file)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn tier"),
        );
        let addr = wait_for_port(&port_file, cycle);

        let deadline = Instant::now() + Duration::from_secs(10);
        let tier_health = loop {
            let h = health(addr);
            if is_ready(&h) {
                break h;
            }
            assert!(
                Instant::now() < deadline,
                "cycle {cycle}: tier never reported ready"
            );
            std::thread::sleep(Duration::from_millis(1));
        };

        let per_shard = tier_health
            .get("per_shard")
            .and_then(Value::as_arr)
            .expect("health carries per_shard");
        assert_eq!(per_shard.len(), SHARDS, "cycle {cycle}: shard count");
        for shard in per_shard {
            let shard_addr: SocketAddr = shard
                .get("addr")
                .and_then(Value::as_str)
                .and_then(|s| s.parse().ok())
                .expect("per_shard entry carries an addr");
            assert!(
                is_ready(&health(shard_addr)),
                "cycle {cycle}: shard at {shard_addr} not ready when asked directly"
            );
        }

        let reply = Client::connect_with(addr, &client_config())
            .expect("connect for shutdown")
            .call(Request::Shutdown, Some(10_000))
            .expect("shutdown reply");
        assert!(
            reply.ok,
            "cycle {cycle}: shutdown refused: {:?}",
            reply.error_message
        );
        let deadline = Instant::now() + Duration::from_secs(15);
        let status = loop {
            if let Some(status) = tier.0.try_wait().expect("poll tier") {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "cycle {cycle}: tier did not exit within 15 s of shutdown"
            );
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(status.success(), "cycle {cycle}: tier exited with {status}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
