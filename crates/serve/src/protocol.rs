//! The versioned newline-delimited JSON wire protocol.
//!
//! One request per line, one reply per line. Every line is a JSON object;
//! requests carry a protocol version `v`, a client-chosen correlation
//! `id`, a `cmd`, an optional `deadline_ms`, and the command's own
//! fields. Replies echo `v` and `id` and carry either `"ok": true` with a
//! `result` object, or `"ok": false` with a structured `error` object
//! (`code`, `message`, and for `overloaded` the observed `queue_depth`).
//!
//! Pipelining is allowed: a client may send many requests before reading
//! replies, and replies may arrive out of order — the `id` is the join
//! key. The README's "Serving" section shows a concrete exchange.
//!
//! Integer fields follow the RFC 8259 interoperability note: values are
//! exchanged as JSON numbers (f64 in this parser), so integers above
//! 2^53 — e.g. very large seeds — lose precision on the wire.

use std::fmt;

use doppio_cluster::HybridConfig;
use doppio_engine::json::{self, Object, Value};
use doppio_engine::{FingerprintBuilder, Fingerprintable};
use doppio_learn::{config_token, RunObservation};
use doppio_sparksim::FaultProfile;
use doppio_workloads::Workload;

/// Wire protocol version. Bump on any breaking change to request or reply
/// framing; the server refuses other versions with `unsupported_version`.
pub const PROTOCOL_VERSION: u64 = 1;

/// A fully specified `simulate` request: the same scenario shape
/// `doppio::scenario::Scenario` evaluates in-process, so a served reply
/// can be bit-compared against `ScenarioSet::run_all`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateSpec {
    /// Workload to run (canonical names, e.g. `"terasort"`).
    pub workload: Workload,
    /// Worker node count.
    pub nodes: usize,
    /// Executor cores per node.
    pub cores: u32,
    /// Disk configuration (Table III).
    pub config: HybridConfig,
    /// Simulation RNG seed.
    pub seed: u64,
    /// Paper-scale app instead of the scaled-down one.
    pub paper: bool,
    /// Optional fault profile to inject.
    pub inject: Option<FaultProfile>,
    /// Seed of the injected fault plan (ignored without `inject`).
    pub fault_seed: u64,
}

/// A `predict` request: calibrate on a small profiling cluster, then
/// evaluate the Eq. 1 model for the target environment.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictSpec {
    /// Workload to model.
    pub workload: Workload,
    /// Target node count.
    pub nodes: usize,
    /// Target cores per node.
    pub cores: u32,
    /// Target disk configuration.
    pub config: HybridConfig,
    /// Paper-scale app instead of the scaled-down one.
    pub paper: bool,
    /// Nodes in the calibration (profiling) cluster.
    pub profile_nodes: usize,
    /// Route the prediction through the workload's online corrector
    /// (`doppio-learn`). Encoded on the wire only when `true`, so legacy
    /// predict lines and their fingerprints are byte-for-byte unchanged.
    pub corrected: bool,
}

/// One decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run the discrete-event simulator; reply with the stable
    /// `doppio-app-run/v1` serialization.
    Simulate(SimulateSpec),
    /// Calibrate and evaluate the analytic model.
    Predict(PredictSpec),
    /// Ingest one observed run (`doppio-observe/v1`) into the owning
    /// workload's online recalibration window. Stateful: not cached, not
    /// coalesced, and never auto-retried.
    Observe(RunObservation),
    /// Run the Section VI cloud cost optimization for GATK4.
    Optimize {
        /// Paper-scale app instead of the scaled-down one.
        paper: bool,
    },
    /// Analytic failure-inflation what-if (no simulation).
    WhatIf {
        /// Per-task failure probability.
        rate: f64,
        /// Fraction of a task lost per failed attempt.
        at_fraction: f64,
        /// `spark.task.maxFailures`.
        max_failures: u32,
    },
    /// Server observability counters.
    Stats,
    /// Readiness probe: queue depth, cache stats, panic count, uptime.
    /// Answered inline without touching the worker pool, so it stays
    /// responsive even when every worker is busy.
    Health,
    /// Graceful drain (refused unless the server was started with
    /// `allow_shutdown`).
    Shutdown,
}

impl Request {
    /// The wire command name.
    pub fn cmd(&self) -> &'static str {
        match self {
            Request::Simulate(_) => "simulate",
            Request::Predict(_) => "predict",
            Request::Observe(_) => "observe",
            Request::Optimize { .. } => "optimize",
            Request::WhatIf { .. } => "whatif",
            Request::Stats => "stats",
            Request::Health => "health",
            Request::Shutdown => "shutdown",
        }
    }

    /// Whether the request describes cacheable, coalescable work (as
    /// opposed to a control-plane command answered inline).
    pub fn is_work(&self) -> bool {
        !matches!(self, Request::Stats | Request::Health | Request::Shutdown)
    }

    /// Whether a client may safely resend the request after a transport
    /// failure that leaves the first send's fate unknown. Every evaluation
    /// and observability verb is a pure function of its fields; `shutdown`
    /// and `observe` are the side-effecting commands and must never be
    /// auto-retried (a resent observation would be ingested twice).
    pub fn is_idempotent(&self) -> bool {
        !matches!(self, Request::Shutdown | Request::Observe(_))
    }

    /// Whether the request mutates per-workload learner state. Stateful
    /// requests bypass the result cache and singleflight entirely — two
    /// identical observations are two ingests, not one.
    pub fn is_stateful(&self) -> bool {
        matches!(self, Request::Observe(_))
    }

    /// Whether the router may race a duplicate of this request against a
    /// second shard to cut tail latency (request hedging). Hedging
    /// *executes the request twice* and keeps the first answer, so it is
    /// only sound for verbs that are pure functions of their fields.
    /// `observe` must never be hedged: a duplicated ingest would bump
    /// the learner's window and corrector version twice, silently
    /// diverging corrected predictions from the observation stream. The
    /// non-idempotent set covers it (and `shutdown`); the guard is
    /// spelled out so the exclusion survives any future loosening of
    /// [`is_idempotent`](Self::is_idempotent).
    pub fn is_hedgeable(&self) -> bool {
        self.is_idempotent() && !matches!(self, Request::Observe(_))
    }
}

/// A request plus its delivery metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-chosen correlation id, echoed verbatim in the reply.
    pub id: String,
    /// Per-request deadline in milliseconds from admission; a request
    /// that waits longer is answered with `deadline_exceeded` instead of
    /// being evaluated.
    pub deadline_ms: Option<u64>,
    /// The command itself.
    pub request: Request,
}

/// Fingerprints cover the *semantic* request only — not `id`, not the
/// deadline — so identical queries from different clients coalesce onto
/// one singleflight evaluation and share one cache entry.
impl Fingerprintable for Request {
    fn fingerprint_into(&self, fp: &mut FingerprintBuilder) {
        match self {
            Request::Simulate(s) => {
                fp.write_str("simulate");
                fp.write_str(workload_name(s.workload));
                fp.write_usize(s.nodes);
                fp.write_u32(s.cores);
                fp.write_str(config_token(s.config));
                fp.write_u64(s.seed);
                fp.write_bool(s.paper);
                match s.inject {
                    None => fp.write_bool(false),
                    Some(p) => {
                        fp.write_bool(true);
                        fp.write_str(p.name());
                        fp.write_u64(s.fault_seed);
                    }
                }
            }
            Request::Predict(p) => {
                fp.write_str("predict");
                fp.write_str(workload_name(p.workload));
                fp.write_usize(p.nodes);
                fp.write_u32(p.cores);
                fp.write_str(config_token(p.config));
                fp.write_bool(p.paper);
                fp.write_usize(p.profile_nodes);
                // Written only when set so every pre-existing predict
                // fingerprint (and its cache entries) stays unchanged.
                if p.corrected {
                    fp.write_str("corrected");
                }
            }
            // RunObservation's own impl writes the "observe" marker.
            Request::Observe(o) => o.fingerprint_into(fp),
            Request::Optimize { paper } => {
                fp.write_str("optimize");
                fp.write_bool(*paper);
            }
            Request::WhatIf {
                rate,
                at_fraction,
                max_failures,
            } => {
                fp.write_str("whatif");
                fp.write_f64(*rate);
                fp.write_f64(*at_fraction);
                fp.write_u32(*max_failures);
            }
            Request::Stats => fp.write_str("stats"),
            Request::Health => fp.write_str("health"),
            Request::Shutdown => fp.write_str("shutdown"),
        }
    }
}

/// Structured error codes a reply can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line did not parse or failed validation.
    BadRequest,
    /// The request's `v` is not [`PROTOCOL_VERSION`].
    UnsupportedVersion,
    /// The admission queue is at its bound; the reply carries
    /// `queue_depth`. The 429 of this protocol.
    Overloaded,
    /// The request waited past its deadline and was not evaluated (or its
    /// result arrived after the deadline passed).
    DeadlineExceeded,
    /// The simulator/model reported an error for a well-formed request.
    EvalFailed,
    /// The evaluation panicked; the worker was isolated and the server
    /// keeps serving. The 500 of this protocol — unlike `eval_failed`
    /// it signals a server-side bug, not a property of the request.
    Internal,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// `shutdown` was requested but the server does not allow remote
    /// shutdown.
    ShutdownDisabled,
}

impl ErrorCode {
    /// The stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::EvalFailed => "eval_failed",
            ErrorCode::Internal => "internal_error",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::ShutdownDisabled => "shutdown_disabled",
        }
    }

    /// The inverse of [`name`](Self::name): parses a wire name back to
    /// its code. The shard router uses this to re-emit an upstream
    /// shard's error verbatim under the client's request id.
    pub fn parse(name: &str) -> Option<ErrorCode> {
        const ALL: [ErrorCode; 8] = [
            ErrorCode::BadRequest,
            ErrorCode::UnsupportedVersion,
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::EvalFailed,
            ErrorCode::Internal,
            ErrorCode::ShuttingDown,
            ErrorCode::ShutdownDisabled,
        ];
        ALL.into_iter().find(|c| c.name() == name)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured error reply body.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorReply {
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// For [`ErrorCode::Overloaded`]: jobs queued when the request was
    /// shed.
    pub queue_depth: Option<u64>,
}

impl ErrorReply {
    /// A plain error with no extra payload.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ErrorReply {
            code,
            message: message.into(),
            queue_depth: None,
        }
    }
}

/// A decode failure: the error to send back plus the request id, if one
/// could be salvaged from the malformed line for reply correlation.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeError {
    /// Best-effort id recovered from the line (empty when none).
    pub id: String,
    /// The structured error to reply with.
    pub error: ErrorReply,
}

impl DecodeError {
    fn bad(id: &str, message: impl Into<String>) -> Self {
        DecodeError {
            id: id.to_string(),
            error: ErrorReply::new(ErrorCode::BadRequest, message),
        }
    }
}

/// Parses a canonical wire disk-configuration token
/// ([`config_token`]; no aliases).
pub fn parse_config(s: &str) -> Option<HybridConfig> {
    HybridConfig::ALL
        .into_iter()
        .find(|&c| config_token(c) == s)
}

/// The wire name of a workload — the CLI's lowercase tokens, not the
/// paper's display names (`Workload::name` renders those).
pub fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::Gatk4 => "gatk4",
        Workload::LrSmall => "lr-small",
        Workload::LrLarge => "lr-large",
        Workload::Svm => "svm",
        Workload::PageRank => "pagerank",
        Workload::TriangleCount => "triangle",
        Workload::Terasort => "terasort",
    }
}

/// Parses a canonical wire workload name (no aliases).
pub fn parse_workload(s: &str) -> Option<Workload> {
    Workload::ALL.into_iter().find(|&w| workload_name(w) == s)
}

impl Envelope {
    /// Encodes the request as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut o = Object::new();
        o.put_u64("v", PROTOCOL_VERSION);
        o.put_str("id", &self.id);
        o.put_str("cmd", self.request.cmd());
        if let Some(d) = self.deadline_ms {
            o.put_u64("deadline_ms", d);
        }
        match &self.request {
            Request::Simulate(s) => {
                o.put_str("workload", workload_name(s.workload));
                o.put_u64("nodes", s.nodes as u64);
                o.put_u64("cores", u64::from(s.cores));
                o.put_str("config", config_token(s.config));
                o.put_u64("seed", s.seed);
                o.put_bool("paper", s.paper);
                if let Some(p) = s.inject {
                    o.put_str("inject", p.name());
                    o.put_u64("fault_seed", s.fault_seed);
                }
            }
            Request::Predict(p) => {
                o.put_str("workload", workload_name(p.workload));
                o.put_u64("nodes", p.nodes as u64);
                o.put_u64("cores", u64::from(p.cores));
                o.put_str("config", config_token(p.config));
                o.put_bool("paper", p.paper);
                o.put_u64("profile_nodes", p.profile_nodes as u64);
                if p.corrected {
                    o.put_bool("corrected", true);
                }
            }
            Request::Observe(obs) => obs.put_fields(&mut o),
            Request::Optimize { paper } => {
                o.put_bool("paper", *paper);
            }
            Request::WhatIf {
                rate,
                at_fraction,
                max_failures,
            } => {
                o.put_f64("rate", *rate);
                o.put_f64("at_fraction", *at_fraction);
                o.put_u64("max_failures", u64::from(*max_failures));
            }
            Request::Stats | Request::Health | Request::Shutdown => {}
        }
        o.render_line()
    }

    /// Decodes one protocol line.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] carrying the reply to send (with the
    /// salvaged request id when the line parsed far enough to have one).
    pub fn decode(line: &str) -> Result<Envelope, DecodeError> {
        let v = json::parse(line).map_err(|e| DecodeError::bad("", format!("not JSON: {e}")))?;
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        let version = v
            .get("v")
            .and_then(Value::as_u64)
            .ok_or_else(|| DecodeError::bad(&id, "missing protocol version field 'v'"))?;
        if version != PROTOCOL_VERSION {
            return Err(DecodeError {
                id: id.clone(),
                error: ErrorReply::new(
                    ErrorCode::UnsupportedVersion,
                    format!("protocol version {version} unsupported (this server speaks {PROTOCOL_VERSION})"),
                ),
            });
        }
        if id.is_empty() {
            return Err(DecodeError::bad(&id, "missing or empty 'id'"));
        }
        let deadline_ms = match v.get("deadline_ms") {
            None => None,
            Some(d) => Some(d.as_u64().ok_or_else(|| {
                DecodeError::bad(&id, "'deadline_ms' must be a non-negative integer")
            })?),
        };
        let cmd = v
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or_else(|| DecodeError::bad(&id, "missing 'cmd'"))?;

        let str_field = |key: &str| -> Result<&str, DecodeError> {
            v.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| DecodeError::bad(&id, format!("missing string field '{key}'")))
        };
        let u64_field = |key: &str, default: u64| -> Result<u64, DecodeError> {
            match v.get(key) {
                None => Ok(default),
                Some(x) => x.as_u64().ok_or_else(|| {
                    DecodeError::bad(&id, format!("'{key}' must be a non-negative integer"))
                }),
            }
        };
        let bool_field = |key: &str, default: bool| -> Result<bool, DecodeError> {
            match v.get(key) {
                None => Ok(default),
                Some(x) => x
                    .as_bool()
                    .ok_or_else(|| DecodeError::bad(&id, format!("'{key}' must be a boolean"))),
            }
        };
        let f64_field = |key: &str| -> Result<f64, DecodeError> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| DecodeError::bad(&id, format!("missing number field '{key}'")))
        };
        let workload_field = || -> Result<Workload, DecodeError> {
            let name = str_field("workload")?;
            parse_workload(name)
                .ok_or_else(|| DecodeError::bad(&id, format!("unknown workload '{name}'")))
        };
        let config_field = |default: HybridConfig| -> Result<HybridConfig, DecodeError> {
            match v.get("config") {
                None => Ok(default),
                Some(c) => {
                    let name = c
                        .as_str()
                        .ok_or_else(|| DecodeError::bad(&id, "'config' must be a string"))?;
                    parse_config(name).ok_or_else(|| {
                        DecodeError::bad(
                            &id,
                            format!("unknown config '{name}' (2ssd|2hdd|hdd-ssd|ssd-hdd)"),
                        )
                    })
                }
            }
        };

        let request = match cmd {
            "simulate" => {
                let inject = match v.get("inject") {
                    None => None,
                    Some(p) => {
                        let name = p
                            .as_str()
                            .ok_or_else(|| DecodeError::bad(&id, "'inject' must be a string"))?;
                        Some(FaultProfile::parse(name).ok_or_else(|| {
                            DecodeError::bad(&id, format!("unknown fault profile '{name}'"))
                        })?)
                    }
                };
                let nodes = u64_field("nodes", 3)?;
                if nodes == 0 {
                    return Err(DecodeError::bad(&id, "'nodes' must be at least 1"));
                }
                Request::Simulate(SimulateSpec {
                    workload: workload_field()?,
                    nodes: nodes as usize,
                    cores: u64_field("cores", 36)? as u32,
                    config: config_field(HybridConfig::SsdSsd)?,
                    seed: u64_field("seed", 0xD0_99_10)?,
                    paper: bool_field("paper", false)?,
                    inject,
                    fault_seed: u64_field("fault_seed", 7)?,
                })
            }
            "predict" => {
                let nodes = u64_field("nodes", 5)?;
                let profile_nodes = u64_field("profile_nodes", 3)?;
                if nodes == 0 || profile_nodes == 0 {
                    return Err(DecodeError::bad(&id, "node counts must be at least 1"));
                }
                Request::Predict(PredictSpec {
                    workload: workload_field()?,
                    nodes: nodes as usize,
                    cores: u64_field("cores", 36)? as u32,
                    config: config_field(HybridConfig::SsdSsd)?,
                    paper: bool_field("paper", false)?,
                    profile_nodes: profile_nodes as usize,
                    corrected: bool_field("corrected", false)?,
                })
            }
            "observe" => Request::Observe(
                RunObservation::from_value(&v).map_err(|e| DecodeError::bad(&id, e))?,
            ),
            "optimize" => Request::Optimize {
                paper: bool_field("paper", false)?,
            },
            "whatif" => Request::WhatIf {
                rate: f64_field("rate")?,
                at_fraction: f64_field("at_fraction")?,
                max_failures: u64_field("max_failures", 4)? as u32,
            },
            "stats" => Request::Stats,
            "health" => Request::Health,
            "shutdown" => Request::Shutdown,
            other => {
                return Err(DecodeError::bad(&id, format!("unknown cmd '{other}'")));
            }
        };
        Ok(Envelope {
            id,
            deadline_ms,
            request,
        })
    }
}

/// Renders a success reply line embedding a pre-rendered result payload.
pub fn ok_reply_line(id: &str, cached: bool, coalesced: bool, result_json: &str) -> String {
    let mut o = Object::new();
    o.put_u64("v", PROTOCOL_VERSION);
    o.put_str("id", id);
    o.put_bool("ok", true);
    o.put_bool("cached", cached);
    o.put_bool("coalesced", coalesced);
    o.put_json("result", result_json.to_string());
    o.render_line()
}

/// Extracts the *verbatim* `result` payload substring from a rendered
/// success reply line — the router's bit-identity primitive: a shard's
/// payload is spliced byte-for-byte into the reply re-rendered under the
/// client's own id, so sharded replies stay bit-identical to
/// single-process ones.
///
/// Sound because [`ok_reply_line`] renders `result` as the **final**
/// field and every string field before it (`id`) is JSON-escaped — the
/// encoder never emits a raw `"` inside a string, so the first
/// `"result": ` match is always the envelope's own key, even for an id
/// crafted to contain that text.
pub fn extract_result_payload(line: &str) -> Option<&str> {
    const KEY: &str = "\"result\": ";
    let line = line.trim_end();
    let start = line.find(KEY)? + KEY.len();
    let rest = line.strip_suffix('}')?;
    (start <= rest.len()).then(|| &rest[start..])
}

/// Renders a structured error reply line.
pub fn error_reply_line(id: &str, err: &ErrorReply) -> String {
    let mut e = Object::new();
    e.put_str("code", err.code.name());
    e.put_str("message", &err.message);
    if let Some(d) = err.queue_depth {
        e.put_u64("queue_depth", d);
    }
    let mut o = Object::new();
    o.put_u64("v", PROTOCOL_VERSION);
    o.put_str("id", id);
    o.put_bool("ok", false);
    o.put_obj("error", e);
    o.render_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(request: Request) -> Envelope {
        Envelope {
            id: "r-1".into(),
            deadline_ms: Some(250),
            request,
        }
    }

    #[test]
    fn simulate_round_trips() {
        let e = env(Request::Simulate(SimulateSpec {
            workload: Workload::Terasort,
            nodes: 4,
            cores: 16,
            config: HybridConfig::SsdHdd,
            seed: 99,
            paper: true,
            inject: Some(FaultProfile::Chaos),
            fault_seed: 3,
        }));
        let line = e.encode();
        assert!(!line.contains('\n'));
        assert_eq!(Envelope::decode(&line).unwrap(), e);
    }

    #[test]
    fn control_and_whatif_round_trip() {
        for r in [
            Request::Stats,
            Request::Health,
            Request::Shutdown,
            Request::Optimize { paper: false },
            Request::WhatIf {
                rate: 0.05,
                at_fraction: 0.5,
                max_failures: 4,
            },
            Request::Predict(PredictSpec {
                workload: Workload::Gatk4,
                nodes: 5,
                cores: 36,
                config: HybridConfig::SsdSsd,
                paper: false,
                profile_nodes: 3,
                corrected: false,
            }),
            Request::Predict(PredictSpec {
                workload: Workload::Terasort,
                nodes: 8,
                cores: 16,
                config: HybridConfig::HddSsd,
                paper: true,
                profile_nodes: 2,
                corrected: true,
            }),
            Request::Observe(sample_observation()),
        ] {
            let e = env(r);
            assert_eq!(Envelope::decode(&e.encode()).unwrap(), e, "{}", e.encode());
        }
    }

    fn sample_observation() -> doppio_learn::RunObservation {
        use doppio_learn::{RunObservation, StageObservation};
        RunObservation {
            workload: "terasort".into(),
            nodes: 3,
            cores: 8,
            config: HybridConfig::SsdHdd,
            paper: false,
            stages: vec![StageObservation {
                name: "map".into(),
                secs: 14.25,
                input_bytes: 1 << 30,
                shuffle_bytes: 1 << 27,
                tasks: 96,
                retries: 3,
                speculative: 0,
                recomputed_bytes: 0,
            }],
        }
    }

    fn predict(corrected: bool) -> PredictSpec {
        PredictSpec {
            workload: Workload::Terasort,
            nodes: 5,
            cores: 36,
            config: HybridConfig::SsdSsd,
            paper: false,
            profile_nodes: 3,
            corrected,
        }
    }

    #[test]
    fn uncorrected_predict_wire_bytes_and_fingerprint_are_legacy() {
        // `corrected: false` must encode to the exact bytes (and hash to
        // the exact fingerprint) the field-less protocol produced, so old
        // clients, golden replies and warm cache entries are untouched.
        let line = env(Request::Predict(predict(false))).encode();
        assert!(
            !line.contains("corrected"),
            "corrected=false must be omitted from the wire: {line}"
        );
        assert_ne!(
            Request::Predict(predict(false)).fingerprint(),
            Request::Predict(predict(true)).fingerprint(),
            "corrected predictions must never alias uncorrected cache entries"
        );
    }

    #[test]
    fn observe_is_stateful_and_not_idempotent() {
        let obs = Request::Observe(sample_observation());
        assert!(obs.is_work());
        assert!(obs.is_stateful());
        assert!(!obs.is_idempotent());
        assert!(!obs.is_hedgeable(), "a hedged observe would ingest twice");
        assert!(!Request::Shutdown.is_hedgeable());
        let p = Request::Predict(predict(true));
        assert!(p.is_idempotent());
        assert!(p.is_hedgeable());
        assert!(!p.is_stateful());
        // Two identical observations fingerprint identically — dedup is
        // the admission path's job to *not* do, not the fingerprint's.
        assert_eq!(
            obs.fingerprint(),
            Request::Observe(sample_observation()).fingerprint()
        );
    }

    #[test]
    fn observe_decode_reports_payload_errors_with_the_request_id() {
        let err = Envelope::decode(
            "{\"v\": 1, \"id\": \"ob-1\", \"cmd\": \"observe\", \"workload\": \"terasort\"}",
        )
        .unwrap_err();
        assert_eq!(err.id, "ob-1");
        assert_eq!(err.error.code, ErrorCode::BadRequest);
        assert!(err.error.message.contains("nodes"), "{}", err.error.message);
    }

    #[test]
    fn defaults_fill_omitted_fields() {
        let e = Envelope::decode(
            "{\"v\": 1, \"id\": \"x\", \"cmd\": \"simulate\", \"workload\": \"terasort\"}",
        )
        .unwrap();
        match e.request {
            Request::Simulate(s) => {
                assert_eq!(s.nodes, 3);
                assert_eq!(s.cores, 36);
                assert_eq!(s.config, HybridConfig::SsdSsd);
                assert!(!s.paper);
                assert_eq!(s.inject, None);
            }
            other => panic!("expected simulate, got {other:?}"),
        }
        assert_eq!(e.deadline_ms, None);
    }

    #[test]
    fn rejects_bad_lines_with_salvaged_id() {
        let err = Envelope::decode("{\"v\": 1, \"id\": \"q7\", \"cmd\": \"fly\"}").unwrap_err();
        assert_eq!(err.id, "q7", "id salvaged for reply correlation");
        assert_eq!(err.error.code, ErrorCode::BadRequest);

        let err = Envelope::decode("{\"v\": 2, \"id\": \"q8\", \"cmd\": \"stats\"}").unwrap_err();
        assert_eq!(err.error.code, ErrorCode::UnsupportedVersion);

        let err = Envelope::decode("not json at all").unwrap_err();
        assert_eq!(err.error.code, ErrorCode::BadRequest);
        assert_eq!(err.id, "");

        let err = Envelope::decode(
            "{\"v\": 1, \"id\": \"q9\", \"cmd\": \"simulate\", \"workload\": \"sparkle\"}",
        )
        .unwrap_err();
        assert!(err.error.message.contains("unknown workload"));
    }

    #[test]
    fn fingerprint_ignores_id_and_deadline_but_not_fields() {
        let base = Request::Simulate(SimulateSpec {
            workload: Workload::Terasort,
            nodes: 3,
            cores: 8,
            config: HybridConfig::SsdSsd,
            seed: 1,
            paper: false,
            inject: None,
            fault_seed: 7,
        });
        let fp = base.fingerprint();
        // Same request in a different envelope: same fingerprint.
        assert_eq!(fp, base.clone().fingerprint());
        // Any semantic change shifts it.
        let mut other = match &base {
            Request::Simulate(s) => s.clone(),
            _ => unreachable!(),
        };
        other.seed = 2;
        assert_ne!(fp, Request::Simulate(other).fingerprint());
    }

    #[test]
    fn reply_lines_parse() {
        let ok = ok_reply_line("a", true, false, "{\"x\": 1}");
        let v = json::parse(&ok).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("result").unwrap().get("x").unwrap().as_u64(), Some(1));

        let err = error_reply_line(
            "b",
            &ErrorReply {
                code: ErrorCode::Overloaded,
                message: "queue full".into(),
                queue_depth: Some(64),
            },
        );
        let v = json::parse(&err).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        let e = v.get("error").unwrap();
        assert_eq!(e.get("code").unwrap().as_str(), Some("overloaded"));
        assert_eq!(e.get("queue_depth").unwrap().as_u64(), Some(64));
    }

    #[test]
    fn error_codes_round_trip_through_wire_names() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::UnsupportedVersion,
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::EvalFailed,
            ErrorCode::Internal,
            ErrorCode::ShuttingDown,
            ErrorCode::ShutdownDisabled,
        ] {
            assert_eq!(ErrorCode::parse(code.name()), Some(code));
        }
        assert_eq!(ErrorCode::parse("no_such_code"), None);
    }

    #[test]
    fn result_payload_extraction_is_verbatim() {
        let payload = "{\"total\": 12.5, \"nested\": {\"result\": 1}}";
        let line = ok_reply_line("req-1", true, false, payload);
        assert_eq!(extract_result_payload(&line), Some(payload));

        // Splicing it back under a different id reproduces the exact
        // line the other server would have rendered — the router's
        // bit-identity argument in one assertion.
        let spliced = ok_reply_line("req-2", true, false, payload);
        let roundtrip = ok_reply_line("req-2", true, false, extract_result_payload(&line).unwrap());
        assert_eq!(spliced, roundtrip);
    }

    #[test]
    fn result_payload_extraction_survives_adversarial_ids() {
        // An id crafted to contain the search key: JSON escaping turns
        // its quotes into \" so the first raw `"result": ` is still the
        // envelope's own field.
        let payload = "{\"x\": 1}";
        let line = ok_reply_line("evil\", \"result\": {\"x\": 9}, \"z", false, false, payload);
        assert_eq!(extract_result_payload(&line), Some(payload));
        assert_eq!(extract_result_payload("not a reply"), None);
    }
}
