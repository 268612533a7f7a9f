//! # `doppio-serve` — a long-lived model-serving front end
//!
//! Everything below the CLI in this stack is batch-shaped: build a
//! scenario, evaluate it, print. This crate adds the serving shape on
//! top: a multi-threaded TCP server speaking a versioned newline-delimited
//! JSON protocol ([`protocol`]), so a dashboard or sweep driver can hold a
//! connection open and ask many what-if questions against a warm cache.
//!
//! The serving pipeline (one request's life):
//!
//! ```text
//! client line ──▶ decode ──▶ cache? ──hit──▶ reply ("cached": true)
//!                              │miss
//!                              ▼
//!                        singleflight ──joined──▶ park reply ticket
//!                              │created
//!                              ▼
//!                     bounded queue ──full──▶ reply "overloaded" + depth
//!                              │admitted
//!                              ▼
//!                    TaskPool worker: evaluate (serial engine),
//!                    cache the rendered payload, reply to every
//!                    waiter (honoring per-request deadlines)
//! ```
//!
//! Three properties are load-bearing and tested:
//!
//! * **Bit-identity** — a served `simulate` result is byte-for-byte the
//!   same JSON the in-process `ScenarioSet::run_all` path would produce,
//!   every `f64` included (`tests/serve_identity.rs`).
//! * **Bounded admission** — overload sheds with a structured
//!   `overloaded` reply carrying the queue depth; no request is ever
//!   silently dropped or indefinitely buffered
//!   (`tests/serve_overload.rs`).
//! * **Graceful drain** — shutdown stops accepting, finishes every
//!   admitted job, and delivers its replies before exiting.
//!
//! [`loadgen`] is the measurement harness: closed-loop cold/hot phases
//! plus a singleflight burst, reporting latency percentiles and the
//! hot-over-cold speedup to `BENCH_serve_throughput.json`.
//!
//! # Resilience
//!
//! The serving path is hardened against faults on both sides of the wire:
//!
//! * **Server** — evaluations run under `catch_unwind`, so a panic
//!   becomes a structured `internal_error` reply and a `panics` counter
//!   tick, never a dead worker; request lines are bounded and read under
//!   a per-line deadline (oversized, non-UTF-8, and stalled lines get a
//!   `bad_request` and a closed connection); idle sockets are reaped; the
//!   `health` verb reports readiness for pollers.
//! * **Client** — [`RetryingClient`] layers deadline-aware retries
//!   (exponential backoff with decorrelated jitter, idempotent verbs
//!   only) and a per-endpoint [`CircuitBreaker`] over [`Client`], which
//!   itself gained connect/read/write timeouts ([`ClientConfig`]).
//! * **Test harness** — [`chaosproxy`] sits between the two and injects
//!   seeded connection faults (delay, truncation, garbage, drops);
//!   `tests/serve_chaos.rs` proves every request id still resolves to
//!   exactly one semantic outcome, and `loadgen --chaos` reports
//!   retry/breaker metrics under the same profiles.

// `deny` rather than `forbid`: the epoll/eventfd/listen shim in [`sys`] is
// the one audited unsafe surface (five FFI calls), opted in explicitly
// below.
// Everything else in the crate still refuses unsafe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod chaosproxy;
pub mod client;
pub mod loadgen;
pub mod protocol;
mod reactor;
mod readline;
pub mod retry;
pub mod ring;
mod router;
mod server;
pub mod shard;
mod singleflight;
#[allow(unsafe_code)]
mod sys;

pub use breaker::{BreakerConfig, CircuitBreaker};
pub use chaosproxy::{ChaosProfile, ChaosProxy};
pub use client::{Client, ClientConfig, Reply};
pub use protocol::{
    Envelope, ErrorCode, ErrorReply, PredictSpec, Request, SimulateSpec, PROTOCOL_VERSION,
};
pub use retry::{CallError, RetryPolicy, RetryingClient};
pub use ring::HashRing;
pub use router::{start_router, RouterConfig, RouterController, RouterHandle};
pub use server::{start, ServeConfig, ServerHandle};
pub use shard::{spawn_tier, ShardEvent, SupervisorConfig, TierHandle, TierSpec};
pub use singleflight::Singleflight;
