//! The evaluations behind `simulate`, `predict` and `optimize`, written
//! once for the CLI and the wire.
//!
//! Each verb returns a typed value. A shard renders it as its
//! `doppio-*/v1` JSON payload; the `doppio` CLI prints the same value as a
//! table. Both renderers read one value, so a table row and a payload
//! field cannot drift apart.
//!
//! Every verb takes its [`Engine`] from the caller: a shard evaluates
//! with [`Engine::serial`], the CLI with its `--jobs` engine. The engine
//! changes wall-clock time only; results are identical at any setting.

use doppio_cloud::optimize::{
    grid_search_with, r1_reference, r2_reference, SearchResult, SearchSpace,
};
use doppio_cloud::{CostBreakdown, CostEvaluator, EvaluateCost, MemoizedEvaluator};
use doppio_cluster::{ClusterSpec, StorageProfile};
use doppio_engine::Engine;
use doppio_learn::Corrector;
use doppio_model::{calibrate_paper, CalibrationReport, PredictEnv};
use doppio_sparksim::{App, AppRun, FaultPlan, Simulation, SparkConf};
use doppio_workloads::Workload;

use crate::protocol::{ErrorCode, ErrorReply, PredictSpec, SimulateSpec};

/// Nodes in the paper's profiling cluster (§VI.1: "usually under a small
/// number of nodes N (e.g. N = 3)"). `optimize` calibrates there, it is
/// the default `profile_nodes` of `predict`, and a shard's learners fit
/// their correctors against the model calibrated there.
pub const PROFILE_NODES: usize = 3;

pub(crate) fn eval_err(e: impl std::fmt::Display) -> ErrorReply {
    ErrorReply::new(ErrorCode::EvalFailed, e.to_string())
}

// ---------------------------------------------------------------------------
// simulate
// ---------------------------------------------------------------------------

/// What `simulate` runs for one spec.
#[derive(Debug, Clone)]
pub struct SimInputs {
    /// The spec's app.
    pub app: App,
    /// `nodes` 36-core paper nodes of the spec's disk configuration, with
    /// the dataset on the chosen storage.
    pub cluster: ClusterSpec,
    /// [`SparkConf::paper`] at the spec's cores and seed.
    pub conf: SparkConf,
    /// The plan `inject` expands to; empty without it.
    pub faults: FaultPlan,
    /// The total seconds of the clean run that placed the faults
    /// (`inject` only).
    pub clean_secs: Option<f64>,
}

impl SimInputs {
    /// Builds the inputs for `s` with the dataset on `storage`.
    ///
    /// A fault profile places its events relative to the run's length, so
    /// under `inject` a clean run of the same inputs supplies the horizon
    /// first; the plan then depends only on (profile, fault seed, nodes,
    /// horizon).
    ///
    /// # Errors
    ///
    /// `eval_failed` when the clean run fails.
    pub fn new(s: &SimulateSpec, storage: StorageProfile) -> Result<Self, ErrorReply> {
        let app = s.workload.app(s.paper);
        let cluster = ClusterSpec::paper_cluster(s.nodes, 36, s.config).with_storage(storage);
        let conf = SparkConf::paper().with_cores(s.cores).with_seed(s.seed);
        let (clean_secs, faults) = match s.inject {
            None => (None, FaultPlan::empty()),
            Some(profile) => {
                let clean = Simulation::with_conf(cluster.clone(), conf.clone())
                    .run(&app)
                    .map_err(eval_err)?;
                let horizon = clean.total_time().as_secs();
                (Some(horizon), profile.plan(s.fault_seed, s.nodes, horizon))
            }
        };
        Ok(SimInputs {
            app,
            cluster,
            conf,
            faults,
            clean_secs,
        })
    }

    /// Runs the simulation.
    ///
    /// # Errors
    ///
    /// `eval_failed` when the simulation fails.
    pub fn run(self) -> Result<AppRun, ErrorReply> {
        Simulation::with_conf(self.cluster, self.conf)
            .with_faults(self.faults)
            .run(&self.app)
            .map_err(eval_err)
    }
}

/// The served `simulate`: the spec's [`SimInputs`] on node-local storage,
/// run.
///
/// # Errors
///
/// `eval_failed` when a simulation fails.
pub fn simulate(s: &SimulateSpec) -> Result<AppRun, ErrorReply> {
    SimInputs::new(s, StorageProfile::Local)?.run()
}

// ---------------------------------------------------------------------------
// predict
// ---------------------------------------------------------------------------

/// Calibrates `workload`'s app with the paper's recipe
/// ([`calibrate_paper`]) on `profile_nodes` nodes.
///
/// # Errors
///
/// `eval_failed` when a sample run fails or the runs disagree.
pub fn calibrate(
    workload: Workload,
    paper: bool,
    profile_nodes: usize,
    engine: &Engine,
) -> Result<CalibrationReport, ErrorReply> {
    calibrate_paper(&workload.app(paper), profile_nodes, engine).map_err(eval_err)
}

/// One stage of a [`Prediction`].
#[derive(Debug, Clone, PartialEq)]
pub struct StagePrediction {
    /// The stage's name.
    pub name: String,
    /// The simulated ("experiment") duration, seconds.
    pub exp_secs: f64,
    /// Equation 1's prediction, seconds.
    pub model_secs: f64,
    /// The corrector's prediction, seconds (corrected predictions only).
    pub corrected_secs: Option<f64>,
}

/// A `predict` result: the simulated target next to the model, stage by
/// stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// One entry per stage of the simulated run, in run order.
    pub stages: Vec<StagePrediction>,
    /// The simulated application total, seconds.
    pub total_exp_secs: f64,
    /// Equation 1's application total, seconds.
    pub total_model_secs: f64,
    /// The corrector's application total, seconds (corrected predictions
    /// only).
    pub total_corrected_secs: Option<f64>,
    /// The corrector's kind (`none`, `ridge`) and version (corrected
    /// predictions only).
    pub corrector: Option<(&'static str, u64)>,
    /// The calibration's sanity-check warnings.
    pub warnings: Vec<String>,
}

/// Predicts `p`'s target with a model [`calibrate`]d for it: simulates
/// the target without compute noise for the "experiment" column and
/// evaluates Equation 1 per stage. `corrector`, when given, adds the
/// corrected column and total.
///
/// # Errors
///
/// `eval_failed` when the target simulation fails or its stages do not
/// pair one to one, by name, with the model's.
pub fn predict(
    p: &PredictSpec,
    calibration: &CalibrationReport,
    corrector: Option<&Corrector>,
) -> Result<Prediction, ErrorReply> {
    let run = Simulation::with_conf(
        ClusterSpec::paper_cluster(p.nodes, 36, p.config),
        SparkConf::paper().with_cores(p.cores).without_noise(),
    )
    .run(&p.workload.app(p.paper))
    .map_err(eval_err)?;
    let env = PredictEnv::hybrid(p.nodes, p.cores, p.config);
    let model = &calibration.model;
    // Model stage i is run stage i: the calibration's sample runs and the
    // target run execute one app. Pair by position, and fail loudly if
    // the stage lists disagree rather than borrow another stage's model.
    let count = model.stages().len().max(run.stages().len());
    let stages = (0..count)
        .map(|i| match (model.stages().get(i), run.stages().get(i)) {
            (Some(ms), Some(rs)) if ms.name == rs.name => Ok(StagePrediction {
                name: rs.name.clone(),
                exp_secs: rs.duration.as_secs(),
                model_secs: ms.predict(&env),
                corrected_secs: corrector.map(|c| c.correct_stage(ms, &env)),
            }),
            (ms, rs) => Err(eval_err(format!(
                "stage {i} does not pair: the model has '{}', the run '{}'",
                ms.map_or("no stage", |s| s.name.as_str()),
                rs.map_or("no stage", |s| s.name.as_str())
            ))),
        })
        .collect::<Result<_, _>>()?;
    Ok(Prediction {
        stages,
        total_exp_secs: run.total_time().as_secs(),
        total_model_secs: model.predict(&env),
        total_corrected_secs: corrector.map(|c| c.correct_app(model, &env)),
        corrector: corrector.map(|c| (c.kind(), c.version())),
        warnings: calibration.warnings.clone(),
    })
}

// ---------------------------------------------------------------------------
// optimize
// ---------------------------------------------------------------------------

/// An `optimize` result: the cheapest configuration of the paper's §VI
/// space for GATK4, and the two reference configurations it beats.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimum {
    /// The winning configuration, its cost and the evaluation count.
    pub best: SearchResult,
    /// The R1 reference (Spark website guidance) at 10 × 16.
    pub r1: CostBreakdown,
    /// The R2 reference (Cloudera guidance) at 10 × 16.
    pub r2: CostBreakdown,
    /// Cost evaluations the memo answered.
    pub cache_hits: u64,
    /// Cost evaluations the memo computed.
    pub cache_misses: u64,
}

impl Optimum {
    /// The optimum's saving over `reference` as a fraction (0.38 = 38%
    /// cheaper).
    pub fn savings_vs(&self, reference: &CostBreakdown) -> f64 {
        1.0 - self.best.cost.total() / reference.total()
    }
}

/// Calibrates GATK4 on the [`PROFILE_NODES`]-node profiling cluster,
/// grid-searches the paper's §VI space and prices the R1/R2 references.
///
/// # Errors
///
/// `eval_failed` when calibration fails.
pub fn optimize(paper: bool, engine: &Engine) -> Result<Optimum, ErrorReply> {
    let model = calibrate(Workload::Gatk4, paper, PROFILE_NODES, engine)?.model;
    let eval = MemoizedEvaluator::new(CostEvaluator::new(model));
    let best = grid_search_with(&eval, &SearchSpace::paper(), engine);
    let r1 = eval.evaluate(&r1_reference(10, 16));
    let r2 = eval.evaluate(&r2_reference(10, 16));
    Ok(Optimum {
        best,
        r1,
        r2,
        cache_hits: eval.hits(),
        cache_misses: eval.misses(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppio_cluster::HybridConfig;

    #[test]
    fn predict_refuses_a_model_whose_stages_do_not_pair_with_the_run() {
        // A terasort model against a PageRank target: stage 0 already
        // carries different names on the two sides.
        let calibration =
            calibrate(Workload::Terasort, false, 1, &Engine::serial()).expect("calibrates");
        let spec = PredictSpec {
            workload: Workload::PageRank,
            nodes: 2,
            cores: 8,
            config: HybridConfig::SsdSsd,
            paper: false,
            profile_nodes: 1,
            corrected: false,
        };
        let err = predict(&spec, &calibration, None).expect_err("stage lists differ");
        assert_eq!(err.code, ErrorCode::EvalFailed);
        let model_stage = &calibration.model.stages()[0].name;
        assert!(
            err.message.starts_with(&format!(
                "stage 0 does not pair: the model has '{model_stage}', the run '"
            )),
            "{}",
            err.message
        );
    }
}
