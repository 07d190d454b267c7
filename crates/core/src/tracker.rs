//! The threshold update phase: EWMA smoothing across intervals.

use eleph_stats::Ewma;

use crate::ThresholdDetector;

/// Combines a [`ThresholdDetector`] with the paper's §II update rule
/// `T̄(n+1) = γ·T̄(n) + (1−γ)·T(n)`.
///
/// When the detector cannot produce a raw threshold for an interval
/// (aest finding no tail, an empty snapshot), the tracker *holds* the
/// previous smoothed value: the classification must keep operating every
/// interval. The raw detections are recorded alongside, so reports can
/// show how often the detector abstained.
#[derive(Debug)]
pub(crate) struct ThresholdTracker<D> {
    detector: D,
    series: ThresholdSeries,
}

/// The detector-free half of a [`ThresholdTracker`]: the EWMA update
/// rule applied to a stream of raw detections.
///
/// [`crate::classify_many`] runs one detector over each interval once
/// and fans the raw detection out to many configurations; each
/// configuration owns a `ThresholdSeries` (its own γ and histories)
/// while sharing the detection work.
#[derive(Debug)]
pub(crate) struct ThresholdSeries {
    ewma: Ewma,
    raw_history: Vec<Option<f64>>,
    smoothed_history: Vec<f64>,
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
            raw_history: Vec::new(),
            smoothed_history: Vec::new(),
        }
    }

    /// Rebuild a series from checkpointed smoothing state: the γ it was
    /// created with and the last smoothed value (`None` = no detection
    /// had happened yet).
    ///
    /// Only the *operational* state is restored — the raw/smoothed
    /// histories restart empty, so a resumed monitor keeps classifying
    /// bit-identically while its checkpoint stays O(1) in run length.
    ///
    /// # Panics
    ///
    /// Panics when γ is outside [0, 1) (same contract as
    /// [`ThresholdSeries::new`]).
    pub fn with_state(gamma: f64, smoothed: Option<f64>) -> Self {
        let mut series = ThresholdSeries::new(gamma);
        if let Some(value) = smoothed {
            series.ewma.update(value);
        }
        series
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
        self.raw_history.push(raw);
        let smoothed = match raw {
            Some(t) => self.ewma.update(t),
            None => self.ewma.value().unwrap_or(f64::INFINITY),
        };
        self.smoothed_history.push(smoothed);
        smoothed
    }

    /// Consume the series, returning `(raw, smoothed)` histories.
    pub fn into_histories(self) -> (Vec<Option<f64>>, Vec<f64>) {
        (self.raw_history, self.smoothed_history)
    }
}

impl<D: ThresholdDetector> ThresholdTracker<D> {
    /// Create a tracker with smoothing factor γ ∈ [0, 1).
    ///
    /// # Panics
    ///
    /// Panics when γ is outside [0, 1).
    pub fn new(detector: D, gamma: f64) -> Self {
        ThresholdTracker {
            detector,
            series: ThresholdSeries::new(gamma),
        }
    }

    /// Rebuild a tracker from checkpointed smoothing state (see
    /// [`ThresholdSeries::with_state`] — histories restart empty).
    ///
    /// # Panics
    ///
    /// Panics when γ is outside [0, 1).
    pub fn with_state(detector: D, gamma: f64, smoothed: Option<f64>) -> Self {
        ThresholdTracker {
            detector,
            series: ThresholdSeries::with_state(gamma, smoothed),
        }
    }

    /// The current smoothed threshold (`None` before the first
    /// successful detection).
    pub fn smoothed_value(&self) -> Option<f64> {
        self.series.smoothed_value()
    }

    /// The smoothing factor γ.
    pub fn gamma(&self) -> f64 {
        self.series.gamma()
    }

    /// Feed one interval's bandwidth snapshot; returns the smoothed
    /// threshold `T̄(n)` to classify this interval with (see
    /// [`ThresholdSeries::observe_raw`] for the pre-detection rule).
    pub fn observe(&mut self, values: &[f64]) -> f64 {
        self.series.observe_raw(self.detector.detect(values))
    }

    /// The detector's name.
    pub fn detector_name(&self) -> String {
        self.detector.name()
    }

    /// Consume the tracker, returning `(raw, smoothed)` histories.
    pub fn into_histories(self) -> (Vec<Option<f64>>, Vec<f64>) {
        self.series.into_histories()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted detector for testing the tracker in isolation.
    struct Scripted(std::cell::RefCell<Vec<Option<f64>>>);

    impl ThresholdDetector for Scripted {
        fn detect(&self, _values: &[f64]) -> Option<f64> {
            self.0.borrow_mut().remove(0)
        }

        fn name(&self) -> String {
            "scripted".to_string()
        }
    }

    fn tracker(script: Vec<Option<f64>>) -> ThresholdTracker<Scripted> {
        ThresholdTracker::new(Scripted(std::cell::RefCell::new(script)), 0.9)
    }

    #[test]
    fn first_detection_initialises() {
        let mut t = tracker(vec![Some(100.0)]);
        assert_eq!(t.observe(&[]), 100.0);
        assert_eq!(t.into_histories(), (vec![Some(100.0)], vec![100.0]));
    }

    #[test]
    fn paper_update_rule_applied() {
        let mut t = tracker(vec![Some(100.0), Some(200.0)]);
        t.observe(&[]);
        let s = t.observe(&[]);
        assert!((s - 110.0).abs() < 1e-12); // 0.9·100 + 0.1·200
    }

    #[test]
    fn abstention_holds_previous_value() {
        let mut t = tracker(vec![Some(100.0), None, None, Some(0.0)]);
        t.observe(&[]);
        assert_eq!(t.observe(&[]), 100.0);
        assert_eq!(t.observe(&[]), 100.0);
        let s = t.observe(&[]);
        assert!((s - 90.0).abs() < 1e-12); // 0.9·100 + 0.1·0
        assert_eq!(t.into_histories().0, vec![Some(100.0), None, None, Some(0.0)]);
    }

    #[test]
    fn no_detection_yet_is_infinite() {
        let mut t = tracker(vec![None, None]);
        assert_eq!(t.observe(&[]), f64::INFINITY);
        assert_eq!(t.observe(&[]), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "invalid gamma")]
    fn bad_gamma_panics() {
        let _ = tracker_with_gamma(1.0);
    }

    fn tracker_with_gamma(gamma: f64) -> ThresholdTracker<Scripted> {
        ThresholdTracker::new(Scripted(std::cell::RefCell::new(vec![])), gamma)
    }

    #[test]
    fn smoothing_dampens_spikes() {
        // A single spiky detection moves the smoothed value by only 10%.
        let mut t = tracker(vec![Some(100.0), Some(1000.0), Some(100.0)]);
        t.observe(&[]);
        let spike = t.observe(&[]);
        assert!((spike - 190.0).abs() < 1e-9);
        let after = t.observe(&[]);
        assert!((after - 181.0).abs() < 1e-9);
    }

    #[test]
    fn gamma_zero_tracks_raw() {
        let mut t = ThresholdTracker::new(
            Scripted(std::cell::RefCell::new(vec![Some(5.0), Some(7.0)])),
            0.0,
        );
        assert_eq!(t.observe(&[]), 5.0);
        assert_eq!(t.observe(&[]), 7.0);
    }

    #[test]
    fn real_detector_integration() {
        use crate::ConstantLoadDetector;
        let mut t = ThresholdTracker::new(ConstantLoadDetector::new(0.8), 0.9);
        let s1 = t.observe(&[100.0, 50.0, 10.0]); // 80% of 160 = 128 → t = 50
        assert_eq!(s1, 50.0);
        assert_eq!(t.detector_name(), "0.80-constant-load");
    }
}
