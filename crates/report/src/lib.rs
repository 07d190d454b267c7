//! Experiment harness: regenerate every figure and table of the paper.
//!
//! The `eleph` binary reproduces each result by subcommand —
//! [`experiments::EXPERIMENTS`] is the full experiment index, and the
//! ROADMAP's design notes say how the session shares work. All of them
//! share the machinery here:
//!
//! * [`Scenario`] — the paper's west-coast and east-coast OC-12 setups
//!   (synthetic BGP table + synthetic workload), with a
//!   [`Scenario::scaled`] knob so tests can run a miniature version;
//! * [`SchemeSpec`] — the classification configurations under study
//!   (aest vs β-constant-load, single-feature vs latent heat);
//! * [`Lab`] — the experiment session: it walks each link's generated
//!   rows once for everything its experiments declared, detecting once
//!   per (link, measurement, detector) and classifying once per
//!   configuration as the rows go by, and holds no link whole;
//! * [`run`] — classify a matrix with a scheme, outside any session;
//! * ASCII tables for stdout and CSV files under `target/experiments/`
//!   for plotting;
//! * [`SetAccuracy`] — recall / precision / byte coverage of an
//!   approximate elephant set against the exact oracle's, the scoring
//!   behind `eleph sketch`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accuracy;
pub mod cli;
mod emit;
pub mod experiments;
mod lab;
mod sketch;

pub use accuracy::SetAccuracy;
pub use lab::{Job, Lab, LabCounters, MatrixId, Measure, Need};

use eleph_bgp::synth::SynthConfig;
use eleph_bgp::BgpTable;
use eleph_core::{
    classify_many, AestDetector, ClassificationResult, ClassifyConfig, ConstantLoadDetector,
    Scheme, ThresholdDetector, PAPER_BETA, PAPER_GAMMA, PAPER_LATENT_WINDOW,
};
use eleph_flow::BandwidthMatrix;
use eleph_trace::WorkloadConfig;

/// A fully specified experimental setup: one link, one table, one
/// workload.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name used in file names and table headers.
    pub name: String,
    /// The synthetic routing table configuration.
    pub table: SynthConfig,
    /// The synthetic workload configuration.
    pub workload: WorkloadConfig,
    /// Length of the holding-time busy period, in intervals (paper: 5 h
    /// = 60 five-minute slots).
    pub busy_slots: usize,
}

impl Scenario {
    /// The paper's west-coast OC-12 link.
    pub fn west(seed: u64) -> Self {
        Scenario {
            name: "west".to_string(),
            table: SynthConfig::default(),
            workload: WorkloadConfig::paper_west(seed),
            busy_slots: 60,
        }
    }

    /// The paper's east-coast OC-12 link.
    pub fn east(seed: u64) -> Self {
        Scenario {
            name: "east".to_string(),
            table: SynthConfig::default(),
            workload: WorkloadConfig::paper_east(seed),
            busy_slots: 60,
        }
    }

    /// Shrink the scenario by `factor` (0 < factor ≤ 1): fewer flows and
    /// a smaller table, same temporal structure. Used by tests and quick
    /// runs; figures use factor 1.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0);
        self.workload.n_flows = ((self.workload.n_flows as f64 * factor) as usize).max(200);
        self.table.n_prefixes = (self.workload.n_flows * 3).max(2_000);
        self
    }

    /// Generate the table and the matrix, outside any session (a
    /// [`Lab`] never builds one). Deterministic in the embedded seeds.
    /// The workload is generated interval by interval straight into the
    /// matrix ([`BandwidthMatrix::from_workload`]): no rate trace of the
    /// whole link is ever held beside it.
    pub fn build(&self) -> ScenarioData {
        let table = eleph_bgp::synth::generate(&self.table);
        let matrix = BandwidthMatrix::from_workload(&self.workload, &table);
        ScenarioData { table, matrix }
    }

    /// The busy-period window of a link with these per-interval totals:
    /// the `busy_slots` consecutive intervals with the highest total
    /// traffic.
    pub fn busy_window(&self, totals: &[f64]) -> std::ops::Range<usize> {
        eleph_flow::busiest_window(totals, self.busy_slots.min(totals.len()))
            .expect("busy window fits the trace")
    }
}

/// The generated artefacts of a scenario built outside a session: the
/// table and the matrix.
#[derive(Debug)]
pub struct ScenarioData {
    /// The routing table.
    pub table: BgpTable,
    /// The bandwidth matrix the classifiers consume.
    pub matrix: BandwidthMatrix,
}

/// Which threshold detector to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DetectorKind {
    /// Crovella–Taqqu tail-onset threshold.
    Aest,
    /// β-constant-load threshold at [`SchemeSpec::beta`].
    ConstantLoad,
}

impl DetectorKind {
    /// Display name matching the paper's legends.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            DetectorKind::Aest => "aest",
            DetectorKind::ConstantLoad => "constant load",
        }
    }
}

/// A complete classification configuration.
#[derive(Debug, Clone, Copy)]
pub struct SchemeSpec {
    /// Threshold rule.
    pub detector: DetectorKind,
    /// Constant-load target β (aest ignores it).
    pub beta: f64,
    /// EWMA smoothing factor γ.
    pub gamma: f64,
    /// The classification scheme (single-feature, latent heat, or the
    /// hysteresis ablation baseline).
    pub scheme: Scheme,
}

impl SchemeSpec {
    /// The paper's headline configuration: latent heat over the given
    /// detector.
    pub fn paper(detector: DetectorKind) -> Self {
        SchemeSpec {
            detector,
            beta: PAPER_BETA,
            gamma: PAPER_GAMMA,
            scheme: Scheme::LatentHeat {
                window: PAPER_LATENT_WINDOW,
            },
        }
    }

    /// The §II single-feature configuration.
    pub fn single(detector: DetectorKind) -> Self {
        SchemeSpec {
            scheme: Scheme::SingleFeature,
            ..SchemeSpec::paper(detector)
        }
    }

    /// The detector half.
    pub fn detector(&self) -> Box<dyn ThresholdDetector> {
        match self.detector {
            DetectorKind::Aest => Box::new(AestDetector::new()),
            DetectorKind::ConstantLoad => Box::new(ConstantLoadDetector::new(self.beta)),
        }
    }

    /// The detector-independent half.
    pub(crate) fn config(&self) -> ClassifyConfig {
        ClassifyConfig {
            gamma: self.gamma,
            scheme: self.scheme,
        }
    }
}

/// Run a classification configuration over a matrix, stand-alone (no
/// session, nothing kept).
pub fn run(matrix: &BandwidthMatrix, spec: SchemeSpec) -> ClassificationResult {
    classify_many(matrix, &spec.detector(), &[spec.config()])
        .pop()
        .expect("one config in, one result out")
}
