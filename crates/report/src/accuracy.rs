//! Set-accuracy metrics for approximate detection against an exact
//! oracle.
//!
//! The sketch evaluation harness compares, interval by interval, the
//! elephant set an approximate backend produced against the exact
//! engine's — classic retrieval metrics over weighted sets:
//!
//! * **recall** — fraction of oracle elephants the approximation found;
//! * **precision** — fraction of reported elephants that are real;
//! * **byte coverage** — fraction of the oracle elephants' *traffic*
//!   (weight) the approximation captured, the metric that matters for
//!   traffic engineering: missing one heavy elephant costs more than
//!   missing five marginal ones.
//!
//! [`SetAccuracy`] accumulates all three across any number of intervals
//! (micro-averaged: sums first, one ratio at the end), so a scheme's
//! single summary row reflects every interval of the run.

/// Accumulates recall/precision/byte-coverage of approximate elephant
/// sets against exact oracle sets, micro-averaged over intervals.
///
/// Keys are `u32` ids; each observation takes both sets **sorted
/// ascending** together with a weight (rate) lookup for the oracle side.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetAccuracy {
    /// Σ |approx ∩ oracle| over intervals.
    hits: u64,
    /// Σ |oracle|.
    oracle: u64,
    /// Σ |approx|.
    approx: u64,
    /// Σ weight(approx ∩ oracle).
    hit_weight: f64,
    /// Σ weight(oracle).
    oracle_weight: f64,
}

impl SetAccuracy {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one interval: `oracle` and `approx` are ascending key
    /// sets, `weight(key)` the oracle-side weight (the exact rate) of an
    /// oracle member.
    pub fn observe(&mut self, oracle: &[u32], approx: &[u32], mut weight: impl FnMut(u32) -> f64) {
        debug_assert!(
            oracle.windows(2).all(|w| w[0] < w[1]),
            "oracle set not ascending"
        );
        debug_assert!(
            approx.windows(2).all(|w| w[0] < w[1]),
            "approx set not ascending"
        );
        self.oracle += oracle.len() as u64;
        self.approx += approx.len() as u64;
        let mut j = 0;
        for &key in oracle {
            let w = weight(key);
            self.oracle_weight += w;
            while j < approx.len() && approx[j] < key {
                j += 1;
            }
            if j < approx.len() && approx[j] == key {
                self.hits += 1;
                self.hit_weight += w;
            }
        }
    }

    /// Σ |oracle| so far.
    pub fn oracle_total(&self) -> u64 {
        self.oracle
    }

    /// Fraction of oracle elephants found (1.0 when the oracle found
    /// nothing either — no elephants to miss).
    pub fn recall(&self) -> f64 {
        if self.oracle == 0 {
            1.0
        } else {
            self.hits as f64 / self.oracle as f64
        }
    }

    /// Fraction of reported elephants that are real (1.0 when nothing
    /// was reported — no false claims).
    pub(crate) fn precision(&self) -> f64 {
        if self.approx == 0 {
            1.0
        } else {
            self.hits as f64 / self.approx as f64
        }
    }

    /// Fraction of the oracle elephants' weight captured (1.0 when the
    /// oracle set carried no weight).
    pub(crate) fn byte_coverage(&self) -> f64 {
        if self.oracle_weight <= 0.0 {
            1.0
        } else {
            self.hit_weight / self.oracle_weight
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_agreement_scores_ones() {
        let mut acc = SetAccuracy::new();
        acc.observe(&[1, 5, 9], &[1, 5, 9], |_| 10.0);
        assert_eq!(acc.recall(), 1.0);
        assert_eq!(acc.precision(), 1.0);
        assert_eq!(acc.byte_coverage(), 1.0);
    }

    #[test]
    fn empty_sets_are_vacuously_perfect() {
        let mut acc = SetAccuracy::new();
        acc.observe(&[], &[], |_| 0.0);
        assert_eq!(acc.recall(), 1.0);
        assert_eq!(acc.precision(), 1.0);
        assert_eq!(acc.byte_coverage(), 1.0);
    }

    #[test]
    fn partial_overlap_weights_by_rate() {
        let mut acc = SetAccuracy::new();
        // Oracle: {1 (90), 2 (10)}; approx found 1 plus a false positive.
        acc.observe(&[1, 2], &[1, 7], |k| if k == 1 { 90.0 } else { 10.0 });
        assert_eq!(acc.recall(), 0.5);
        assert_eq!(acc.precision(), 0.5);
        assert!((acc.byte_coverage() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn micro_average_pools_intervals() {
        let mut acc = SetAccuracy::new();
        acc.observe(&[1], &[1], |_| 1.0); // perfect interval
        acc.observe(&[2, 3, 4], &[9], |_| 1.0); // terrible interval
        assert_eq!(acc.oracle_total(), 4);
        assert_eq!(acc.recall(), 0.25);
        assert_eq!(acc.precision(), 0.5);
    }
}
