//! The threshold update phase: EWMA smoothing across intervals.

use eleph_stats::Ewma;

/// The paper's §II update rule `T̄(n+1) = γ·T̄(n) + (1−γ)·T(n)` applied
/// to a stream of raw detections.
///
/// When the detector cannot produce a raw threshold for an interval
/// (aest finding no tail, an empty snapshot), the series *holds* the
/// previous smoothed value: the classification must keep operating every
/// interval. The series keeps only its EWMA, so it costs the same after
/// a week of intervals as after one; a caller that reports the
/// per-interval thresholds collects them itself.
///
/// Each configuration's per-interval step owns one (`crate::window`),
/// so the configurations a [`crate::Sweep`] fans one detector's raw
/// detections out to smooth them each with its own γ.
#[derive(Debug)]
pub(crate) struct ThresholdSeries {
    ewma: Ewma,
}

impl ThresholdSeries {
    /// Create a series with smoothing factor γ ∈ [0, 1).
    ///
    /// # Panics
    ///
    /// Panics when γ is outside [0, 1).
    pub fn new(gamma: f64) -> Self {
        ThresholdSeries {
            ewma: Ewma::new(gamma).unwrap_or_else(|e| panic!("invalid gamma: {e}")),
        }
    }

    /// The current smoothed threshold (`None` before the first
    /// successful detection) — the one scalar a checkpoint must carry.
    pub fn smoothed_value(&self) -> Option<f64> {
        self.ewma.value()
    }

    /// The smoothing factor γ.
    pub fn gamma(&self) -> f64 {
        self.ewma.gamma()
    }

    /// Feed one interval's raw detection (`None` = the detector
    /// abstained); returns the smoothed threshold `T̄(n)`.
    ///
    /// Before the first successful detection there is no basis for a
    /// threshold and the series returns `f64::INFINITY` (nothing
    /// classifies as an elephant — the conservative choice for a TE
    /// application).
    pub fn observe_raw(&mut self, raw: Option<f64>) -> f64 {
        match raw {
            Some(t) => self.ewma.update(t),
            None => self.ewma.value().unwrap_or(f64::INFINITY),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> ThresholdSeries {
        ThresholdSeries::new(0.9)
    }

    #[test]
    fn first_detection_initialises() {
        let mut s = series();
        assert_eq!(s.observe_raw(Some(100.0)), 100.0);
    }

    #[test]
    fn paper_update_rule_applied() {
        let mut s = series();
        s.observe_raw(Some(100.0));
        let smoothed = s.observe_raw(Some(200.0));
        assert!((smoothed - 110.0).abs() < 1e-12); // 0.9·100 + 0.1·200
    }

    #[test]
    fn abstention_holds_previous_value() {
        let mut s = series();
        s.observe_raw(Some(100.0));
        assert_eq!(s.observe_raw(None), 100.0);
        assert_eq!(s.observe_raw(None), 100.0);
        let smoothed = s.observe_raw(Some(0.0));
        assert!((smoothed - 90.0).abs() < 1e-12); // 0.9·100 + 0.1·0
    }

    #[test]
    fn no_detection_yet_is_infinite() {
        let mut s = series();
        assert_eq!(s.observe_raw(None), f64::INFINITY);
        assert_eq!(s.observe_raw(None), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "invalid gamma")]
    fn bad_gamma_panics() {
        let _ = ThresholdSeries::new(1.0);
    }

    #[test]
    fn smoothing_dampens_spikes() {
        // A single spiky detection moves the smoothed value by only 10%.
        let mut s = series();
        s.observe_raw(Some(100.0));
        let spike = s.observe_raw(Some(1000.0));
        assert!((spike - 190.0).abs() < 1e-9);
        let after = s.observe_raw(Some(100.0));
        assert!((after - 181.0).abs() < 1e-9);
    }

    #[test]
    fn gamma_zero_tracks_raw() {
        let mut s = ThresholdSeries::new(0.0);
        assert_eq!(s.observe_raw(Some(5.0)), 5.0);
        assert_eq!(s.observe_raw(Some(7.0)), 7.0);
    }

    #[test]
    fn real_detector_integration() {
        use crate::{ConstantLoadDetector, OnlineClassifier, Scheme};
        let mut online =
            OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, Scheme::SingleFeature);
        // 80% of 160 = 128 → t = 50
        let out = online.observe(&[(0, 100.0), (1, 50.0), (2, 10.0)]);
        assert_eq!(out.threshold, 50.0);
        assert_eq!(online.detector_name(), "0.80-constant-load");
    }
}
