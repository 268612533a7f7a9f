//! Reactor capacity: one epoll thread carries ten thousand concurrent
//! idle connections.
//!
//! This is the load shape the thread-per-connection server could not
//! survive — 10k sockets meant 10k stacks. The reactor registers each
//! accepted socket with epoll and spends zero resources on it until it
//! becomes readable, so the process thread count must stay exactly where
//! it was before the herd arrived, and a live request threaded through
//! the idle mass must still be served promptly.
//!
//! Topology: the server runs in-process (so `/proc/self/status` counts
//! its threads and this process's fd budget carries the ~10k accepted
//! sockets), while the *initiating* sockets are spread over four child
//! `doppio loadgen --hold` processes so no single process needs 20k fds.
//! The same herd then meets a router over in-process shards. The two
//! herds take turns, so this process never carries 20k accepted sockets.
//!
//! The last case runs the reactor out of file descriptors on purpose: a
//! `doppio serve` child under a low `ulimit -n` with more clients than it
//! can accept must wait for a free descriptor, not spin.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use doppio::engine::json::Value;
use doppio::serve::{
    start, start_router, Client, ClientConfig, Request, RouterConfig, ServeConfig,
};

const HOLDERS: usize = 4;
const CONNS_PER_HOLDER: usize = 2500;

/// Serializes the herds: each one holds 10k accepted sockets here.
static HERD: Mutex<()> = Mutex::new(());

fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line present")
        .trim()
        .parse()
        .expect("thread count parses")
}

/// Cumulative accepted-connection count from the endpoint's own stats.
fn accepted(client: &mut Client) -> u64 {
    let reply = client
        .call(Request::Stats, Some(5_000))
        .expect("stats among idle herd");
    assert!(reply.ok, "stats failed: {:?}", reply.error_message);
    reply
        .result
        .as_ref()
        .and_then(|v| v.get("connections"))
        .and_then(Value::as_u64)
        .expect("stats carries 'connections'")
}

/// Opens `HOLDERS * CONNS_PER_HOLDER` idle connections to `addr` from
/// `loadgen --hold` children; returns once every holder has its full
/// complement open.
fn hold_herd(addr: &str) -> Vec<Child> {
    let mut holders: Vec<Child> = (0..HOLDERS)
        .map(|i| {
            Command::new(env!("CARGO_BIN_EXE_doppio"))
                .args([
                    "loadgen",
                    "--hold",
                    &CONNS_PER_HOLDER.to_string(),
                    "--addr",
                    addr,
                ])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .unwrap_or_else(|e| panic!("spawn holder {i}: {e}"))
        })
        .collect();

    // Each holder prints `held N` only once all its sockets are open.
    for (i, holder) in holders.iter_mut().enumerate() {
        let stdout = holder.stdout.as_mut().expect("holder stdout piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .unwrap_or_else(|e| panic!("holder {i} handshake: {e}"));
        assert_eq!(
            line.trim(),
            format!("held {CONNS_PER_HOLDER}"),
            "holder {i} must report its full complement"
        );
    }
    holders
}

/// Polls the endpoint's accept counter until the whole herd is
/// registered.
fn wait_for_accepted(client: &mut Client) {
    // A connect() returning in the holder proves the kernel completed the
    // handshake, not that the reactor drained its accept queue; poll the
    // server's accept counter until all 10k are registered.
    let want = (HOLDERS * CONNS_PER_HOLDER) as u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if accepted(client) >= want {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "reactor did not register {want} connections in time"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Closes every holder's stdin (the release signal) and requires a
/// clean exit from each.
fn release_herd(mut holders: Vec<Child>) {
    for holder in &mut holders {
        drop(holder.stdin.take());
    }
    for (i, mut holder) in holders.into_iter().enumerate() {
        let status = holder
            .wait()
            .unwrap_or_else(|e| panic!("wait holder {i}: {e}"));
        assert!(status.success(), "holder {i} exited with {status}");
    }
}

#[test]
fn reactor_holds_ten_thousand_idle_connections_without_growing_threads() {
    let _herd = HERD.lock().unwrap_or_else(PoisonError::into_inner);
    let handle = start(ServeConfig {
        workers: 2,
        // The idle reaper must be off: held connections are *supposed*
        // to sit silent for the whole test.
        read_timeout_ms: 0,
        write_timeout_ms: 0,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    // Baseline after the server is fully up: reactor + workers.
    let before = thread_count();

    let holders = hold_herd(&addr);
    let mut client = Client::connect(handle.addr()).expect("client connects among the herd");
    wait_for_accepted(&mut client);

    // The whole herd is epoll state, not threads.
    let during = thread_count();
    let want = HOLDERS * CONNS_PER_HOLDER;
    assert_eq!(
        during, before,
        "{want} idle connections must not change the thread count ({before} -> {during})"
    );

    // And the reactor still *works*: a live request threaded through ten
    // thousand idle registrations gets a prompt, correct reply.
    let reply = client
        .call(Request::Health, Some(5_000))
        .expect("health served among the idle herd");
    assert!(reply.ok, "health failed: {:?}", reply.error_message);

    release_herd(holders);
    drop(client);
    handle.shutdown();
    handle.join();
}

#[test]
fn router_holds_ten_thousand_idle_connections_and_still_serves() {
    let _herd = HERD.lock().unwrap_or_else(PoisonError::into_inner);
    let shards: Vec<_> = (0..2)
        .map(|_| {
            start(ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            })
            .expect("shard starts")
        })
        .collect();
    let router = start_router(RouterConfig {
        shards: shards.iter().map(|s| s.addr()).collect(),
        read_timeout_ms: 0,
        write_timeout_ms: 0,
        ..RouterConfig::default()
    })
    .expect("router starts");

    let holders = hold_herd(&router.addr().to_string());
    let mut client = Client::connect(router.addr()).expect("client connects among the herd");
    wait_for_accepted(&mut client);

    // The router answers health only after asking every shard, so this
    // crosses the herd on the way in and the shard pool on the way out.
    let reply = client
        .call(Request::Health, Some(5_000))
        .expect("health served among the idle herd");
    assert!(reply.ok, "health failed: {:?}", reply.error_message);

    release_herd(holders);
    drop(client);
    router.join();
    for shard in shards {
        shard.join();
    }
}

/// Descriptor limit for the fd-exhaustion case: a few dozen accepts
/// fill it.
const FD_LIMIT: usize = 48;
/// Clients opened against that limit; the ones past it wait in the
/// kernel's accept queue.
const OVER_LIMIT_CLIENTS: usize = 80;

/// Kills and reaps the wrapped child on drop, so a failed assertion
/// leaves no server behind.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// User plus system CPU time of process `pid`, in seconds.
fn cpu_secs(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc/<pid>/stat");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    // Linux reports these in USER_HZ, which is 100 on every architecture
    // this crate targets.
    ticks as f64 / 100.0
}

#[test]
fn reactor_out_of_descriptors_waits_instead_of_spinning() {
    let dir = std::env::temp_dir().join(format!("doppio-fd-limit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let port_file = dir.join("serve.port");
    // `ulimit` in the shell lowers the limit for the exec'd server only.
    let server = Reaped(
        Command::new("sh")
            .arg("-c")
            .arg(format!(
                "ulimit -n {FD_LIMIT}; exec \"$0\" serve --addr 127.0.0.1:0 \
                 --port-file \"$1\" --idle-timeout-ms 0"
            ))
            .arg(env!("CARGO_BIN_EXE_doppio"))
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn limited server"),
    );
    let pid = server.0.id();
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Some(addr) = std::fs::read_to_string(&port_file)
            .ok()
            .and_then(|s| s.trim().parse::<std::net::SocketAddr>().ok())
        {
            break addr;
        }
        assert!(Instant::now() < deadline, "server wrote no port file");
        std::thread::sleep(Duration::from_millis(5));
    };

    let clients: Vec<TcpStream> = (0..OVER_LIMIT_CLIENTS)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("client {i}: {e}")))
        .collect();
    // Let the reactor accept up to its limit and hit EMFILE.
    std::thread::sleep(Duration::from_millis(200));
    let open_fds = std::fs::read_dir(format!("/proc/{pid}/fd"))
        .expect("list the server's descriptors")
        .count();
    assert_eq!(open_fds, FD_LIMIT, "the server must be at its limit");
    let before = cpu_secs(pid);
    std::thread::sleep(Duration::from_secs(1));
    let burned = cpu_secs(pid) - before;
    assert!(
        burned < 0.2,
        "server burned {burned:.2} s of CPU in 1 s with {OVER_LIMIT_CLIENTS} clients \
         against a {FD_LIMIT}-descriptor limit"
    );

    // Freed descriptors let the queued connects through, and then a
    // fresh client.
    drop(clients);
    let cfg = ClientConfig {
        connect_timeout: Some(Duration::from_secs(5)),
        read_timeout: Some(Duration::from_secs(10)),
        write_timeout: Some(Duration::from_secs(5)),
    };
    let reply = Client::connect_with(addr, &cfg)
        .expect("fresh client connects")
        .call(Request::Health, Some(10_000))
        .expect("health answered once descriptors are free");
    assert!(reply.ok, "health failed: {:?}", reply.error_message);

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
