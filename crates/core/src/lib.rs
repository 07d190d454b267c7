//! Elephant-flow classification — the paper's contribution.
//!
//! Implements both classification schemes of *A Pragmatic Definition of
//! Elephants in Internet Backbone Traffic* (Papagiannaki et al., 2002)
//! over the [`eleph_flow::BandwidthMatrix`] produced by the measurement
//! pipeline:
//!
//! 1. **Threshold detection** ([`ThresholdDetector`]): per interval, a
//!    separation bandwidth `T(n)` is derived from the flow-bandwidth
//!    snapshot, by either
//!    * [`AestDetector`] — the onset of the power-law tail, found with
//!      the Crovella–Taqqu estimator ([`eleph_stats::aest`]); or
//!    * [`ConstantLoadDetector`] — the smallest bandwidth such that
//!      flows above it carry a target fraction β of total traffic
//!      (the paper's "β-constant load", β = 0.8);
//!    * plus two baselines ([`TopNDetector`], [`PercentileDetector`])
//!      for the scheme-comparison experiments.
//! 2. **Threshold update** (the crate-private `ThresholdTracker`): the
//!    EWMA smoothing `T̄(n+1) = γ·T̄(n) + (1−γ)·T(n)`, γ = 0.9.
//! 3. **Single-feature classification** ([`Scheme::SingleFeature`]):
//!    flow `i` is an elephant in interval `n` iff `B_i(n) > T̄(n)`.
//! 4. **Two-feature "latent heat" classification**
//!    ([`Scheme::LatentHeat`]): `LH_i(n) = Σ_{j=n−w+1..n} (B_i(j) −
//!    T̄(j))` over a w = 12 slot (one hour) window; elephant iff
//!    `LH_i(n) > 0`. Transient bursts above the threshold and transient
//!    dips below it are absorbed instead of causing reclassification.
//!
//! The induced two-state process and its statistics (average holding
//! times, single-interval elephants — Figure 1(c) and the in-text claims)
//! live in [`holding`], and the paper's §III prefix-length analysis in
//! [`prefix_analysis`].
//!
//! Steps 3 and 4 (and the hysteresis baseline) are one state machine,
//! the private `window` module: per-key sliding sums in flat vectors
//! indexed by `KeyId`, slid in and retired one interval at a time and
//! classified by [`Scheme`]. Two engines call it and agree by bits:
//! batch [`classify`] / [`classify_many`] over a finished matrix (one
//! detector pass amortised over a whole family of configurations — the
//! engine behind the report crate's parameter sweeps) and the streaming
//! [`OnlineClassifier`], one interval snapshot at a time
//! ([`classify_stream`] returns its outcomes as the batch result). What
//! varies under the streaming classifier is only how the open interval's
//! byte row is held — a [`StateBackend`] ([`sketch`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod classify;
pub mod holding;
mod online;
pub mod prefix_analysis;
pub mod sketch;
mod threshold;
mod tracker;
mod window;

pub use classify::{
    classify, classify_many, classify_with, ClassificationResult, ClassifyConfig, RawThresholds,
    Scheme,
};
pub use sketch::{
    AdaptiveBloom, CountMinRow, ExactDense, SpaceSaving, StateBackend, StateBackendConfig,
};
pub use online::{classify_stream, ClassifierState, IntervalOutcome, OnlineClassifier};
pub use threshold::{
    AestDetector, ConstantLoadDetector, PercentileDetector, ThresholdDetector, TopNDetector,
};
use tracker::{ThresholdSeries, ThresholdTracker};

/// The paper's default smoothing factor γ for the threshold update.
pub const PAPER_GAMMA: f64 = 0.9;

/// The paper's default latent-heat window: 12 five-minute slots = 1 hour.
pub const PAPER_LATENT_WINDOW: usize = 12;

/// The paper's default constant-load target: 80% of traffic.
pub const PAPER_BETA: f64 = 0.8;
