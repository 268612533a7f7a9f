//! The system under test: `doppio serve --shards N` (a router process
//! that supervises N shard processes), reached only through its CLI and
//! its newline-delimited JSON wire protocol.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::{self, Value};

/// Shard processes behind the router. Every other setting of the tier is
/// the CLI's default.
pub const SHARDS: usize = 4;

/// Bound on start-up, drain, and any single reply.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(30);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(15);
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One blocking protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .and_then(|()| stream.set_write_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("configure socket: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// The reading and writing halves, for pipelined use.
    pub fn into_parts(self) -> (BufReader<TcpStream>, TcpStream) {
        (self.reader, self.writer)
    }

    /// Sends one request line and returns the reply line (without its
    /// newline). The returned slice lives until the next call.
    pub fn call(&mut self, request: &str) -> Result<&str, String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed before the reply".into()),
            Ok(_) => Ok(self.line.trim_end_matches(['\n', '\r'])),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Checks a reply envelope — protocol version 1, the request's own id,
/// `ok: true` — and returns the verbatim bytes of its `result` payload.
pub fn check_reply<'a>(line: &'a str, id: &str) -> Result<&'a str, String> {
    let members = json::members(line).map_err(|e| format!("reply is not JSON ({e}): {line}"))?;
    let field = |key: &str| members.iter().find(|(k, _)| k == key).map(|(_, raw)| *raw);
    if field("v") != Some("1") {
        return Err(format!("reply lacks protocol version 1: {line}"));
    }
    let echoed = field("id").and_then(|raw| json::parse(raw).ok());
    if echoed.as_ref().and_then(Value::as_str) != Some(id) {
        return Err(format!("reply answers another id than {id:?}: {line}"));
    }
    if field("ok") != Some("true") {
        return Err(format!("request {id} failed: {line}"));
    }
    field("result").ok_or_else(|| format!("reply has no result: {line}"))
}

/// Sends a control verb (`health`, `stats`) and parses its payload.
pub fn control(conn: &mut Conn, cmd: &str) -> Result<Value, String> {
    let id = format!("ctl-{cmd}");
    let line = conn.call(&format!(r#"{{"v": 1, "id": "{id}", "cmd": "{cmd}"}}"#))?;
    let payload = check_reply(line, &id)?;
    json::parse(payload).map_err(|e| format!("{cmd} payload is not JSON: {e}"))
}

/// A running tier. Dropping it drains the tier over the wire (the router
/// fans shutdown out to its shards) and kills it if draining stalls.
pub struct Tier {
    child: Option<Child>,
    pub addr: SocketAddr,
    /// From spawning the router to its first `health` reply with
    /// `ready: true`.
    pub setup: Duration,
}

impl Tier {
    /// Starts `doppio serve --shards` on an ephemeral port and waits for
    /// readiness. `tag` keeps the port files of successive tiers apart.
    pub fn start(doppio: &Path, work_dir: &Path, tag: usize) -> Result<Tier, String> {
        let port_file = work_dir.join(format!("router-{tag}.port"));
        let log_file = work_dir.join(format!("router-{tag}.log"));
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(&log_file)
            .map_err(|e| format!("create {}: {e}", log_file.display()))?;
        let started = Instant::now();
        let child = Command::new(doppio)
            .args(["serve", "--shards", &SHARDS.to_string()])
            .args(["--addr", "127.0.0.1:0", "--allow-shutdown"])
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", doppio.display()))?;
        let mut tier = Tier {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup: Duration::ZERO,
        };
        let deadline = started + STARTUP_TIMEOUT;
        tier.addr = wait_for_port(&port_file, deadline).ok_or_else(|| {
            let log = std::fs::read_to_string(&log_file).unwrap_or_default();
            format!("the tier wrote no port file within {STARTUP_TIMEOUT:?}: {log}")
        })?;
        while !tier.ready() {
            if Instant::now() >= deadline {
                return Err(format!("the tier was not ready within {STARTUP_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        tier.setup = started.elapsed();
        Ok(tier)
    }

    fn ready(&self) -> bool {
        Conn::open(self.addr)
            .and_then(|mut c| control(&mut c, "health"))
            .ok()
            .and_then(|h| h.get("ready").and_then(Value::as_bool))
            .unwrap_or(false)
    }

    /// The shards' own addresses, as the router's `health` lists them.
    pub fn shard_addrs(&self) -> Result<Vec<SocketAddr>, String> {
        let health = control(&mut Conn::open(self.addr)?, "health")?;
        let shards = health
            .get("per_shard")
            .and_then(Value::as_arr)
            .ok_or("health lists no shards")?;
        shards
            .iter()
            .map(|s| {
                s.get("addr")
                    .and_then(Value::as_str)
                    .and_then(|a| a.parse().ok())
                    .ok_or_else(|| "health lists a shard without an address".to_string())
            })
            .collect()
    }

    /// Drains the tier and waits for the router to exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let asked = Conn::open(self.addr).and_then(|mut c| {
            c.call(r#"{"v": 1, "id": "bye", "cmd": "shutdown"}"#)
                .map(drop)
        });
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return asked,
                Ok(Some(status)) => return Err(format!("the tier exited with {status}")),
                Ok(None) if Instant::now() < deadline && asked.is_ok() => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("the tier did not drain; killed".into());
                }
            }
        }
    }
}

impl Drop for Tier {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

fn wait_for_port(path: &Path, deadline: Instant) -> Option<SocketAddr> {
    loop {
        if let Some(addr) = std::fs::read_to_string(path)
            .ok()
            .and_then(|s| s.trim().parse().ok())
        {
            return Some(addr);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
