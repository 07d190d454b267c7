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
//!      the Crovella–Taqqu scaling estimator (the crate-private `aest`
//!      module, over the empirical distributions of `ecdf`); or
//!    * [`ConstantLoadDetector`] — the smallest bandwidth such that
//!      flows above it carry a target fraction β of total traffic
//!      (the paper's "β-constant load", β = 0.8).
//! 2. **Threshold update** (the crate-private `ThresholdSeries`): the
//!    EWMA smoothing `T̄(n+1) = γ·T̄(n) + (1−γ)·T(n)`, γ = 0.9, for any
//!    γ that [`check_gamma`] accepts.
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
//! Steps 2 – 4 (and the hysteresis baseline) are one per-interval step,
//! the private `window` module: per-key sliding sums in flat vectors
//! indexed by `KeyId`, slid in and retired one interval at a time, and
//! one configuration's EWMA, threshold window and membership rule by
//! [`Scheme`] — the latent-heat rule one ascending scan of a window's
//! sums that answers every configuration reading them. One driver calls
//! it: [`Sweep`], which steps a whole family of configurations over
//! rows handed over one at a time, detecting once per row, sorting each
//! row at most once for every β-constant-load detector ([`RowOrder`])
//! and sharing each window's sums and scan between the configurations
//! that read it. [`classify`] / [`classify_many`] over a finished
//! matrix and [`classify_stream`] over a walk are it with one detector,
//! the report crate's session runs it on a link's rows as they are
//! generated, and the streaming [`OnlineClassifier`] is it with one
//! configuration, plus the export and restore of what a checkpoint
//! needs. What varies under the streaming classifier is only how the
//! open interval's byte row is held — a [`StateBackend`], exact or a
//! sketch, chosen by [`StateBackendConfig`]. [`KeyBitset`] is the dense
//! id set the prefix analysis keeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aest;
mod bits;
mod classify;
mod ecdf;
mod error;
pub mod holding;
mod online;
mod order;
pub mod prefix_analysis;
mod reader;
mod sketch;
mod threshold;
mod tracker;
mod window;

pub use bits::KeyBitset;
pub use classify::{
    classify, classify_many, classify_stream, ClassificationResult, ClassifyConfig, Scheme, Sweep,
};
pub use online::{ClassifierState, IntervalOutcome, OnlineClassifier};
pub use reader::ByteReader;
pub use sketch::{
    AdaptiveBloom, CountMinRow, ExactDense, SpaceSaving, StateBackend, StateBackendConfig,
};
pub use threshold::{AestDetector, ConstantLoadDetector, RowOrder, ThresholdDetector};
pub use tracker::check_gamma;
use tracker::ThresholdSeries;

/// The paper's default smoothing factor γ for the threshold update.
pub const PAPER_GAMMA: f64 = 0.9;

/// The paper's default latent-heat window: 12 five-minute slots = 1 hour.
pub const PAPER_LATENT_WINDOW: usize = 12;

/// The paper's default constant-load target: 80% of traffic.
pub const PAPER_BETA: f64 = 0.8;
