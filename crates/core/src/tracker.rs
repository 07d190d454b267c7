//! The threshold update phase: EWMA smoothing across intervals.

/// Check that the smoothing factor γ lies in [0, 1): γ = 0 reproduces
/// the raw detections (no smoothing), γ → 1 freezes the first one.
///
/// # Errors
///
/// `parameter gamma = γ out of domain` for any other γ, NaN included.
pub fn check_gamma(gamma: f64) -> Result<(), String> {
    if (0.0..1.0).contains(&gamma) {
        Ok(())
    } else {
        Err(format!("parameter gamma = {gamma} out of domain"))
    }
}

/// The paper's §II update rule `T̄(n+1) = γ·T̄(n) + (1−γ)·T(n)` applied
/// to a stream of raw detections, with γ = 0.9 reported as
/// "sufficiently smooth". The first detection initialises the average
/// (no bias toward zero).
///
/// When the detector cannot produce a raw threshold for an interval
/// (aest finding no tail, an empty snapshot), the series *holds* the
/// previous smoothed value: the classification must keep operating every
/// interval. The series keeps only `T̄`, so it costs the same after a
/// week of intervals as after one; a caller that reports the
/// per-interval thresholds collects them itself.
///
/// Each configuration's per-interval step owns one (`crate::window`),
/// so the configurations a [`crate::Sweep`] fans one detector's raw
/// detections out to smooth them each with its own γ.
#[derive(Debug)]
pub(crate) struct ThresholdSeries {
    gamma: f64,
    /// `T̄(n)`; `None` before the first successful detection.
    smoothed: Option<f64>,
}

impl ThresholdSeries {
    /// Create a series with smoothing factor γ ∈ [0, 1).
    ///
    /// # Panics
    ///
    /// Panics when γ is outside [0, 1).
    pub(crate) fn new(gamma: f64) -> Self {
        if let Err(e) = check_gamma(gamma) {
            panic!("invalid gamma: {e}");
        }
        ThresholdSeries {
            gamma,
            smoothed: None,
        }
    }

    /// Whether a detection has been made, so that a smoothed
    /// threshold exists.
    pub(crate) fn detected(&self) -> bool {
        self.smoothed.is_some()
    }

    /// The smoothing factor γ.
    pub(crate) fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Feed one interval's raw detection (`None` = the detector
    /// abstained); returns the smoothed threshold `T̄(n)`.
    ///
    /// Before the first successful detection there is no basis for a
    /// threshold and the series returns `f64::INFINITY` (nothing
    /// classifies as an elephant — the conservative choice for a TE
    /// application).
    pub(crate) fn observe_raw(&mut self, raw: Option<f64>) -> f64 {
        let Some(t) = raw else {
            return self.smoothed.unwrap_or(f64::INFINITY);
        };
        let next = match self.smoothed {
            None => t,
            Some(prev) => self.gamma * prev + (1.0 - self.gamma) * t,
        };
        self.smoothed = Some(next);
        next
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
        assert_eq!(s.smoothed, None);
        assert_eq!(s.observe_raw(Some(100.0)), 100.0);
        assert_eq!(s.smoothed, Some(100.0));
    }

    #[test]
    fn paper_update_rule_applied() {
        let mut s = series();
        s.observe_raw(Some(100.0));
        let smoothed = s.observe_raw(Some(200.0));
        assert!((smoothed - 110.0).abs() < 1e-12); // 0.9·100 + 0.1·200
        let smoothed = s.observe_raw(Some(0.0));
        assert!((smoothed - 99.0).abs() < 1e-12); // 0.9·110 + 0.1·0
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
    fn invalid_gamma_rejected() {
        assert_eq!(
            check_gamma(1.0),
            Err("parameter gamma = 1 out of domain".to_string())
        );
        assert!(check_gamma(-0.1).is_err());
        assert!(check_gamma(1.5).is_err());
        assert!(check_gamma(f64::NAN).is_err());
        assert_eq!(check_gamma(0.0), Ok(()));
        assert_eq!(check_gamma(0.999), Ok(()));
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
    fn smoothing_reduces_variance() {
        // Alternating ±1 input: smoothed sequence must have much smaller
        // swing than the raw input.
        let mut s = series();
        s.observe_raw(Some(0.0));
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for i in 0..200 {
            let x = if i % 2 == 0 { 1.0 } else { -1.0 };
            let v = s.observe_raw(Some(x));
            if i > 50 {
                min = min.min(v);
                max = max.max(v);
            }
        }
        assert!(max - min < 0.25, "swing {} too large", max - min);
    }

    #[test]
    fn converges_to_constant_input() {
        let mut s = series();
        s.observe_raw(Some(0.0));
        let mut last = 0.0;
        for _ in 0..500 {
            last = s.observe_raw(Some(7.0));
        }
        assert!((last - 7.0).abs() < 1e-9);
    }

    #[test]
    fn gamma_zero_tracks_raw() {
        let mut s = ThresholdSeries::new(0.0);
        for x in [5.0, 7.0, 42.0] {
            assert_eq!(s.observe_raw(Some(x)), x);
        }
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
