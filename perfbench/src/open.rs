//! Open-loop load: requests go out on a fixed schedule whatever the tier
//! answers, pipelined over a few connections, and each is timed from when
//! it was due, so a stall also counts against the requests queued behind
//! it.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::json;
use crate::tier::{check_reply, Conn};

/// One scheduled request: a scaled terasort simulation of `seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    /// Seconds after the window opens.
    pub due: f64,
    pub conn: usize,
    pub seed: u64,
    /// The first request of this seed in the schedule.
    pub first: bool,
}

/// What the open-loop window saw.
pub struct OpenWindow {
    /// From due time to reply, of each successful request.
    pub latencies_ms: Vec<f64>,
    /// How late the generator sent each request.
    pub send_lag_ms: Vec<f64>,
    pub failures: Vec<String>,
    /// First requests of fresh seeds and the payloads the tier returned.
    pub samples: Vec<(u64, String)>,
    /// Until the last reply.
    pub elapsed: Duration,
}

/// What one connection's receiver saw.
#[derive(Default)]
struct Received {
    latencies_ms: Vec<f64>,
    failures: Vec<String>,
    /// Seed and payload digest of every successful reply.
    digests: Vec<(u64, u64)>,
    samples: Vec<(u64, String)>,
    end: Option<Instant>,
}

/// The schedule's index of a reply, read from its `"o<index>"` id.
fn reply_index(line: &str) -> Option<usize> {
    let members = json::members(line).ok()?;
    let (_, raw) = members.iter().find(|(k, _)| k == "id")?;
    let id = json::parse(raw).ok()?;
    id.as_str()?.strip_prefix('o')?.parse().ok()
}

/// Reads the replies owed to connection `conn`, in whatever order they
/// arrive, and checks each: `check` validates a first payload of a seed.
fn receive(
    mut reader: impl BufRead,
    conn: usize,
    plan: &[Planned],
    start: Instant,
    check: &dyn Fn(&str) -> Result<(), String>,
    samples: usize,
) -> Received {
    let mut out = Received::default();
    let mut owed = plan.iter().filter(|p| p.conn == conn).count();
    let mut seen = vec![false; plan.len()];
    let mut line = String::new();
    while owed > 0 {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                out.failures
                    .push(format!("connection {conn} closed with {owed} replies owed"));
                break;
            }
            Ok(_) => {}
            Err(e) => {
                out.failures
                    .push(format!("connection {conn}, {owed} replies owed: {e}"));
                break;
            }
        }
        let replied = start.elapsed().as_secs_f64();
        let line = line.trim_end_matches(['\n', '\r']);
        let Some(i) =
            reply_index(line).filter(|&i| i < plan.len() && plan[i].conn == conn && !seen[i])
        else {
            out.failures.push(format!(
                "connection {conn} got a reply to no request it owes: {line}"
            ));
            break;
        };
        seen[i] = true;
        owed -= 1;
        let p = plan[i];
        let outcome = check_reply(line, &format!("o{i}")).and_then(|payload| {
            if p.first {
                check(payload).map(|()| payload)
            } else {
                Ok(payload)
            }
        });
        match outcome {
            Ok(payload) => {
                out.latencies_ms.push((replied - p.due) * 1e3);
                out.digests.push((p.seed, crate::fnv1a(payload.as_bytes())));
                if p.first && out.samples.len() < samples {
                    out.samples.push((p.seed, payload.to_string()));
                }
            }
            Err(e) => out.failures.push(e),
        }
        out.end = Some(Instant::now());
    }
    out
}

/// Sends `plan` on schedule over `connections` pipelined connections and
/// collects every reply. `body(seed)` renders a request; `check` validates
/// the first payload of each seed, and every later payload of a seed must
/// carry the same bytes.
pub fn run(
    addr: SocketAddr,
    connections: usize,
    plan: &[Planned],
    body: &(dyn Fn(u64) -> String + Sync),
    check: &(dyn Fn(&str) -> Result<(), String> + Sync),
    samples: usize,
) -> Result<OpenWindow, String> {
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..connections {
        let (reader, writer) = Conn::open(addr)?.into_parts();
        readers.push(reader);
        writers.push(writer);
    }
    let start = Instant::now();
    let mut send_lag_ms = Vec::with_capacity(plan.len());
    let mut failures = Vec::new();
    let received: Vec<Received> = std::thread::scope(|scope| {
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(c, reader)| scope.spawn(move || receive(reader, c, plan, start, check, samples)))
            .collect();
        let mut line = String::new();
        for (i, p) in plan.iter().enumerate() {
            let due = start + Duration::from_secs_f64(p.due);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            send_lag_ms.push((start.elapsed().as_secs_f64() - p.due) * 1e3);
            line.clear();
            let _ = write!(line, r#"{{"v": 1, "id": "o{i}", {}}}"#, body(p.seed));
            line.push('\n');
            if let Err(e) = writers[p.conn].write_all(line.as_bytes()) {
                failures.push(format!("send o{i}: {e}"));
                break;
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("a receiver thread panicked"))
            .collect()
    });
    drop(writers);

    let end = received.iter().filter_map(|r| r.end).max().unwrap_or(start);
    let mut window = OpenWindow {
        latencies_ms: Vec::new(),
        send_lag_ms,
        failures,
        samples: Vec::new(),
        elapsed: end - start,
    };
    let mut first_digest: HashMap<u64, u64> = HashMap::new();
    for r in received {
        window.latencies_ms.extend(r.latencies_ms);
        window.failures.extend(r.failures);
        window.samples.extend(r.samples);
        for (seed, digest) in r.digests {
            if *first_digest.entry(seed).or_insert(digest) != digest {
                window.failures.push(format!(
                    "seed {seed} was answered with two different payloads"
                ));
            }
        }
    }
    window.samples.truncate(samples);
    Ok(window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_index_reads_the_schedule_position() {
        assert_eq!(
            reply_index(r#"{"v": 1, "id": "o42", "ok": true, "result": {}}"#),
            Some(42)
        );
        assert_eq!(reply_index(r#"{"v": 1, "id": "c1-4", "ok": true}"#), None);
        assert_eq!(reply_index("not json"), None);
    }
}
