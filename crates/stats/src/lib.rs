//! Statistics substrate for the backbone-elephants reproduction.
//!
//! The paper's "aest" threshold detector places the elephant/mouse
//! separation at the onset of the power-law tail of the per-interval
//! flow-bandwidth distribution, using the Crovella–Taqqu scaling estimator
//! \[1\]. That estimator — and everything needed around it — lives here:
//!
//! * [`Ecdf`] — empirical CDF/CCDF with quantiles and log–log tail points;
//! * [`sort_key`] / [`from_sort_key`] — the `f64 ↔ u64` total-order
//!   mapping that `Ecdf` and the threshold detectors sort on;
//! * [`Summary`] — streaming moments (mean/variance/min/max);
//! * [`Histogram`] / [`LogHistogram`] — linear- and log-binned counts
//!   (Figure 1(c) is a log-count histogram);
//! * [`LinearFit`] — ordinary least squares, used for local slopes of
//!   log–log CCDFs;
//! * [`Ewma`] — the exponentially weighted threshold update
//!   `T̄(n+1) = γ·T̄(n) + (1−γ)·T(n)` of the paper's §II;
//! * [`hill_estimator`] — the classical Hill tail-index estimator
//!   (cross-check for aest);
//! * [`aest`] — the Crovella–Taqqu scaling estimator: tail index α̂ plus
//!   the **tail-onset point** the paper uses as its threshold;
//! * [`dist`] — inverse-transform samplers (Pareto, bounded Pareto,
//!   exponential, log-normal, Weibull) for workload synthesis and for
//!   validating the estimators against known ground truth;
//! * [`SetAccuracy`] — recall / precision / byte-coverage of an
//!   approximate elephant set against the exact oracle's, the scoring
//!   behind the sketch-tier evaluation.
//!
//! \[1\] M. Crovella, M. Taqqu. *Estimating the Heavy Tail Index from
//! Scaling Properties.* Methodology and Computing in Applied Probability,
//! 1999.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accuracy;
mod aest;
pub mod dist;
mod ecdf;
mod error;
mod ewma;
mod hill;
mod histogram;
mod order;
mod regression;
mod summary;

pub use accuracy::SetAccuracy;
pub use aest::{aest, AestConfig, AestResult, PairDiagnostic};
pub use ecdf::Ecdf;
pub use error::StatsError;
pub use ewma::Ewma;
pub use hill::{hill_estimator, hill_plot};
pub use histogram::{Histogram, LogHistogram};
pub use order::{from_sort_key, sort_key};
pub use regression::LinearFit;
pub use summary::Summary;
