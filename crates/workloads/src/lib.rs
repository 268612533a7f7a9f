//! Workload definitions for the Doppio reproduction.
//!
//! One module per application the paper evaluates:
//!
//! | module | paper section | character |
//! |---|---|---|
//! | [`gatk4`] | §II-B, §III, §V-A | genome pipeline: shuffle-heavy + uncacheable RDD |
//! | [`lr`] | §V-B1 | iterative ML, cached (small) / disk-persisted (large) |
//! | [`svm`] | §V-B2 | iterative ML with a shuffling `subtract` phase |
//! | [`pagerank`] | §V-B3 | iterative graph, 420 GB working set persists to disk |
//! | [`triangle`] | §V-B4 | graph with a 396 GB canonicalization shuffle |
//! | [`terasort`] | §V-B5 | pure shuffle-heavy sort |
//! | [`sql`] | §VII-A | Ousterhout-style scan-heavy SQL (the CPU-bound counterpoint) |
//!
//! Every module exposes a `Params` struct with two constructors —
//! `Params::paper()` (the exact sizes the paper reports) and
//! `Params::scaled_down()` (a 1/16-ish version for fast tests) — plus an
//! `app(&Params) -> App` function building the RDD lineage.
//!
//! Compute-cost hints are calibrated from the λ values the paper measures
//! (`λ = t_task / t_io`, Section IV-A) via [`doppio_sparksim::Cost::for_lambda`];
//! data volumes are the paper's (Table IV for GATK4, §V-B prose for the
//! rest). The [`genome`] module documents the synthetic stand-in for the
//! HCC1954 whole-genome input we obviously cannot ship.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gatk4;
pub mod genome;
pub mod lr;
pub mod pagerank;
pub mod sql;
pub mod svm;
pub mod terasort;
pub mod triangle;

use doppio_sparksim::App;

/// The six applications, for harnesses that iterate over all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// GATK4 genome pipeline.
    Gatk4,
    /// Logistic Regression (small, memory-cached dataset).
    LrSmall,
    /// Logistic Regression (large, disk-persisted dataset).
    LrLarge,
    /// Support Vector Machine.
    Svm,
    /// PageRank.
    PageRank,
    /// Triangle Count.
    TriangleCount,
    /// Terasort.
    Terasort,
}

impl Workload {
    /// All workloads in the paper's presentation order.
    pub const ALL: [Workload; 7] = [
        Workload::Gatk4,
        Workload::LrSmall,
        Workload::LrLarge,
        Workload::Svm,
        Workload::PageRank,
        Workload::TriangleCount,
        Workload::Terasort,
    ];

    /// The paper's name for the workload.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Gatk4 => "GATK4",
            Workload::LrSmall => "LR-small",
            Workload::LrLarge => "LR-large",
            Workload::Svm => "SVM",
            Workload::PageRank => "PageRank",
            Workload::TriangleCount => "TriangleCount",
            Workload::Terasort => "Terasort",
        }
    }

    /// Builds the full-scale (paper-parameter) application.
    pub fn paper_app(self) -> App {
        match self {
            Workload::Gatk4 => gatk4::app(&gatk4::Params::paper()),
            Workload::LrSmall => lr::app(&lr::Params::paper_small()),
            Workload::LrLarge => lr::app(&lr::Params::paper_large()),
            Workload::Svm => svm::app(&svm::Params::paper()),
            Workload::PageRank => pagerank::app(&pagerank::Params::paper()),
            Workload::TriangleCount => triangle::app(&triangle::Params::paper()),
            Workload::Terasort => terasort::app(&terasort::Params::paper()),
        }
    }

    /// Builds a scaled-down application suitable for fast tests.
    pub fn scaled_app(self) -> App {
        match self {
            Workload::Gatk4 => gatk4::app(&gatk4::Params::scaled_down()),
            Workload::LrSmall => lr::app(&lr::Params::scaled_small()),
            Workload::LrLarge => lr::app(&lr::Params::scaled_large()),
            Workload::Svm => svm::app(&svm::Params::scaled_down()),
            Workload::PageRank => pagerank::app(&pagerank::Params::scaled_down()),
            Workload::TriangleCount => triangle::app(&triangle::Params::scaled_down()),
            Workload::Terasort => terasort::app(&terasort::Params::scaled_down()),
        }
    }

    /// The paper-scale app when `paper` is set, else the scaled-down one.
    pub fn app(self, paper: bool) -> App {
        if paper {
            self.paper_app()
        } else {
            self.scaled_app()
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds() {
        for w in Workload::ALL {
            let app = w.scaled_app();
            assert!(!app.jobs().is_empty(), "{w} must define jobs");
            assert!(!w.name().is_empty());
        }
    }

    #[test]
    fn paper_apps_build_too() {
        for w in Workload::ALL {
            let app = w.paper_app();
            assert!(app.num_rdds() > 0, "{w}");
        }
    }

    #[test]
    fn every_app_is_named_after_its_workload() {
        // Calibrated models take their name from the app, so a workload
        // and both of its apps must agree on it.
        for w in Workload::ALL {
            for paper in [false, true] {
                assert_eq!(w.app(paper).name(), w.name(), "{w} paper={paper}");
            }
        }
    }
}
