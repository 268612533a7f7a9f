//! # The Doppio I/O-aware analytical performance model
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Zhou et al., *Doppio*, ISPASS 2018, Section IV): an analytical model
//! that predicts the runtime of every stage of a Spark application from
//!
//! * the stage's task count `M` and mean task time `t_avg`,
//! * the cluster size `N` and per-node executor cores `P`,
//! * per-I/O-channel data volumes `D` and request sizes `RS`, and
//! * device *effective bandwidth curves* `BW(RS)`.
//!
//! The model is Equation 1 of the paper:
//!
//! ```text
//! t_stage = max(t_scale, t_read_limit, t_write_limit)
//! t_scale       = M / (N·P) × t_avg + δ_scale
//! t_read_limit  = D_read  / (N × BW_read)  + δ_read
//! t_write_limit = D_write / (N × BW_write) + δ_write
//! t_app = Σ t_stage
//! ```
//!
//! with the break-point analysis of Section IV-B: per-core throughput `T`
//! gives a contention break point `b = BW / T`, CPU work hides I/O until
//! `B = λ·b` cores, and beyond that the stage is I/O-bound so more cores do
//! not help.
//!
//! Three entry points:
//!
//! * [`StageModel`] / [`AppModel`] — evaluate Equation 1 against a
//!   [`PredictEnv`] (any `N`, `P`, and device pair).
//! * [`Calibrator`] — the paper's §VI.1 procedure: four profiling runs
//!   (P=1 and P=2 all-SSD; P=16 with an HDD local dir; P=16 with an HDD
//!   HDFS dir) against any [`ProfilePlatform`], deriving every model
//!   constant plus sanity-check warnings. [`calibrate_paper`] is the
//!   paper's recipe over it, the one the CLI and the serve tier share.
//! * [`ErnestModel`] — an Ernest-style baseline (NNLS fit of
//!   `θ₀ + θ₁/x + θ₂·log x + θ₃·x`) that ignores request-size-dependent
//!   bandwidth, used to show why I/O-awareness matters.
//!
//! # Example
//!
//! ```
//! use doppio_model::{PredictEnv, StageModel, ChannelModel};
//! use doppio_sparksim::IoChannel;
//! use doppio_storage::presets;
//! use doppio_events::{Bytes, Rate};
//!
//! // A shuffle-read-dominated stage like GATK4's BR.
//! let stage = StageModel {
//!     name: "BR".into(),
//!     m: 12670,
//!     t_avg: 9.0,
//!     delta_scale: 0.0,
//!     channels: vec![ChannelModel::new(
//!         IoChannel::ShuffleRead,
//!         Bytes::from_gib_f64(334.0),
//!         Bytes::from_kib(30),
//!         Some(Rate::mib_per_sec(60.0)),
//!     )],
//! };
//! let ssd = PredictEnv::new(10, 36, presets::ssd_mz7lm(), presets::ssd_mz7lm());
//! let hdd = PredictEnv::new(10, 36, presets::ssd_mz7lm(), presets::hdd_wd4000());
//! // On SSD local dirs the stage scales with cores; on HDD it is I/O-bound.
//! assert!(stage.predict(&hdd) > 3.0 * stage.predict(&ssd));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
pub mod baseline;
mod calibrate;
mod env;
mod error;
pub mod phases;
pub mod report;
pub mod scheduler;
mod stage;
pub mod whatif;

pub use app::AppModel;
pub use baseline::ErnestModel;
pub use calibrate::{calibrate_paper, CalibrationReport, Calibrator, ProfilePlatform, SimPlatform};
pub use env::PredictEnv;
pub use error::ModelError;
pub use stage::{ChannelModel, StageModel};
