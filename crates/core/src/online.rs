//! Streaming classification: one interval at a time.
//!
//! The batch API ([`crate::classify`]) consumes a finished
//! [`eleph_flow::BandwidthMatrix`]; a traffic-engineering controller
//! instead sees one measurement interval at a time and must emit the
//! elephant set before the next interval lands. [`OnlineClassifier`] is
//! that incremental form: feed it interval snapshots, get the current
//! elephant set back. Its output is bit-identical to the batch
//! classifier (pinned by tests), so experiments validated offline
//! transfer directly to the online deployment.
//!
//! It is one struct: the detector, the interval counter, the one
//! per-interval step's state (`crate::window`: the EWMA, the threshold
//! terms, the hysteresis members), the per-key window sums and the
//! window's snapshots, which a stream must keep because nothing else
//! does. The elephant boundary is a property of the whole link, so
//! there is one classifier per link however the byte row under it is
//! held (dense, sketched, or spread over worker threads).

use std::collections::VecDeque;

use eleph_flow::KeyId;

use crate::window::{KeySums, SchemeState};
use crate::{Scheme, ThresholdDetector};

/// The outcome of one streamed interval.
#[derive(Debug, Clone)]
pub struct IntervalOutcome {
    /// Interval index (0-based, counts calls to `observe`).
    pub interval: usize,
    /// Smoothed threshold used for this interval.
    pub threshold: f64,
    /// Sorted elephant key ids.
    pub elephants: Vec<KeyId>,
    /// Traffic carried by the elephants (b/s).
    pub elephant_load: f64,
    /// Total traffic in the interval (b/s).
    pub total_load: f64,
}

impl IntervalOutcome {
    /// Fraction of traffic carried by elephants (0 when idle).
    pub fn fraction(&self) -> f64 {
        if self.total_load <= 0.0 {
            0.0
        } else {
            self.elephant_load / self.total_load
        }
    }
}

/// The full recovery frontier of an [`OnlineClassifier`], exported for
/// checkpointing and re-imported on restart.
///
/// The per-key sliding sums are *path-dependent* floats (incremental
/// adds and retirement subtractions in stream order), so they are
/// carried verbatim rather than recomputed from the window — recomputing
/// would bit-differ from an uninterrupted run. Of the threshold only the
/// smoothed EWMA value is kept — the classifier records no per-interval
/// history — so a checkpoint stays bounded by the window and key
/// population, independent of run length.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifierState {
    /// Intervals observed so far (the next outcome's index).
    pub interval: usize,
    /// Current smoothed threshold (`None` before the first detection).
    pub smoothed: Option<f64>,
    /// Sliding threshold sum over the window (path-dependent).
    pub sum_t: f64,
    /// Per-key window state for every key with `live > 0`, ascending by
    /// key id: `(key, sliding bandwidth sum, occupied window slots)`.
    pub per_key: Vec<(KeyId, f64, u32)>,
    /// The in-window history, oldest first: each entry is the interval's
    /// threshold term and its sparse snapshot (ascending by key).
    pub history: Vec<(f64, Vec<(KeyId, f32)>)>,
    /// The previous interval's elephants (hysteresis membership),
    /// ascending by key id; empty for the other schemes.
    pub members: Vec<KeyId>,
}

/// `keys` strictly ascending and every one below `n_keys`.
fn check_keys(
    what: &str,
    keys: impl Iterator<Item = KeyId>,
    n_keys: usize,
) -> Result<(), String> {
    let mut prev = None;
    for key in keys {
        if prev.is_some_and(|p| p >= key) {
            return Err(format!("{what} not ascending by key id"));
        }
        if key as usize >= n_keys {
            return Err(format!("{what} names key {key} of a run that has {n_keys} keys"));
        }
        prev = Some(key);
    }
    Ok(())
}

impl ClassifierState {
    /// Structurally validate this state against a scheme and the number
    /// of keys the run has assigned: history bounded by the scheme's
    /// window and by the intervals observed; key lists and snapshots
    /// ascending and naming only existing keys (dense per-key state is
    /// sized by the largest id, so an id a corrupt checkpoint merely
    /// claims must never get that far); membership only under
    /// hysteresis; per-key occupancy counts exactly matching the history
    /// (the retire path depends on that to release state). The one
    /// validator behind every resume path, so a corrupt state is rejected
    /// identically everywhere. Panics on invalid scheme parameters, like
    /// [`OnlineClassifier::new`].
    pub fn validate(&self, scheme: Scheme, n_keys: usize) -> Result<(), String> {
        let (slots, window) = (self.history.len(), scheme.window());
        if slots > window {
            return Err(format!(
                "classifier state holds {slots} history slots for a window of {window}"
            ));
        }
        if slots > self.interval {
            return Err(format!(
                "classifier state holds {slots} history slots after {} intervals",
                self.interval
            ));
        }
        check_keys("per-key state", self.per_key.iter().map(|&(key, _, _)| key), n_keys)?;
        check_keys("membership list", self.members.iter().copied(), n_keys)?;
        if !matches!(scheme, Scheme::Hysteresis { .. }) && !self.members.is_empty() {
            return Err("membership state present for a non-hysteresis scheme".to_string());
        }
        let mut live_check: Vec<(KeyId, u32)> =
            self.per_key.iter().map(|&(key, _, _)| (key, 0)).collect();
        for (_, snapshot) in &self.history {
            check_keys("history snapshot", snapshot.iter().map(|&(key, _)| key), n_keys)?;
            for &(key, _) in snapshot {
                let Ok(at) = live_check.binary_search_by_key(&key, |&(k, _)| k) else {
                    return Err(format!("history references key {key} absent from per-key state"));
                };
                live_check[at].1 += 1;
            }
        }
        for (&(key, _, live), &(_, counted)) in self.per_key.iter().zip(&live_check) {
            if live == 0 || live != counted {
                return Err(format!(
                    "key {key} occupancy {live} does not match its {counted} history slots"
                ));
            }
        }
        Ok(())
    }
}

/// Incremental implementation of all three classification schemes.
///
/// Memory: O(highest key id seen) words of dense per-key state plus the
/// window's snapshots — with the pipeline's dense first-seen key ids
/// that is O(distinct keys ever active), each key costing a few words
/// for the lifetime of the monitor. [`OnlineClassifier::tracked_keys`]
/// reports the number of keys currently holding window state.
#[derive(Debug)]
pub struct OnlineClassifier<D> {
    detector: D,
    /// Intervals observed so far (the next outcome's index).
    interval: usize,
    state: SchemeState,
    /// The per-key sums over the scheme's window (fed under every
    /// scheme, so a checkpoint's state is the same whatever it reads).
    sums: KeySums,
    /// Oldest first: the in-window snapshots, kept so each interval
    /// retires with exactly what it slid in with.
    rows: VecDeque<Vec<(KeyId, f32)>>,
}

impl<D: ThresholdDetector> OnlineClassifier<D> {
    /// Create a streaming classifier. Panics when γ is outside [0, 1),
    /// a latent-heat window is 0, or the hysteresis multipliers are not
    /// `0 <= exit <= 1 <= enter`.
    pub fn new(detector: D, gamma: f64, scheme: Scheme) -> Self {
        OnlineClassifier {
            detector,
            interval: 0,
            state: SchemeState::new(gamma, scheme),
            sums: KeySums::default(),
            // Grows with the run: it never holds more than `window + 1`
            // entries, and a window can be far longer than any run.
            rows: VecDeque::new(),
        }
    }

    /// Feed one interval's sparse snapshot (ascending by key, as
    /// produced by the measurement pipeline) and classify it: detection
    /// on the interval's values, one slide of the window (the interval
    /// in, the one that falls out retired), then the one per-interval
    /// step — smoothing and the scheme's membership rule.
    pub fn observe(&mut self, snapshot: &[(KeyId, f32)]) -> IntervalOutcome {
        debug_assert!(snapshot.windows(2).all(|w| w[0].0 < w[1].0));
        let values: Vec<f64> = snapshot.iter().map(|&(_, r)| f64::from(r)).collect();
        // Fold from +0.0 like the batch matrix's total accumulation —
        // `Iterator::sum` starts from -0.0, which would make an empty
        // interval's total bit-differ from the batch path.
        let total_load: f64 = values.iter().fold(0.0, |s, &v| s + v);
        let raw = self.detector.detect(&values);
        let interval = self.interval;
        self.interval += 1;

        self.sums.slide_in(snapshot);
        self.rows.push_back(snapshot.to_vec());
        if self.rows.len() > self.state.window() {
            let old = self.rows.pop_front().expect("len checked");
            self.sums.retire(&old);
        }
        let step = self.state.step(raw, &values, &self.sums, snapshot);
        IntervalOutcome {
            interval,
            threshold: step.threshold,
            elephants: step.elephants,
            elephant_load: step.elephant_load,
            total_load,
        }
    }

    /// Export the recovery frontier (see [`ClassifierState`]).
    pub fn export_state(&self) -> ClassifierState {
        self.export_state_from(0).0
    }

    /// [`OnlineClassifier::export_state`] with only the history of
    /// interval `from` and later — the slots a caller that already holds
    /// the earlier ones has not seen — and the number of slots the whole
    /// history holds.
    pub fn export_state_from(&self, from: usize) -> (ClassifierState, usize) {
        let (smoothed, t_terms, sum_t, members) = self.state.export();
        let first = self.interval - self.rows.len();
        let skip = from.saturating_sub(first).min(self.rows.len());
        let state = ClassifierState {
            interval: self.interval,
            smoothed,
            sum_t,
            per_key: self.sums.export(),
            history: t_terms
                .iter()
                .zip(&self.rows)
                .skip(skip)
                .map(|(&t_term, row)| (t_term, row.clone()))
                .collect(),
            members: members.to_vec(),
        };
        (state, self.rows.len())
    }

    /// Continue from a checkpointed [`ClassifierState`] in place: from
    /// here on this classifier's outcomes are, by bits, those of the
    /// classifier that exported it (same detector and configuration
    /// required — the caller validates those against its checkpoint
    /// metadata). `n_keys` is the number of keys the run had assigned at
    /// export; the state goes through [`ClassifierState::validate`]
    /// before anything is sized by it, so a corrupted one is rejected
    /// with a description and leaves this classifier as it was.
    pub fn restore(&mut self, n_keys: usize, state: ClassifierState) -> Result<(), String> {
        state.validate(self.state.scheme(), n_keys)?;
        self.interval = state.interval;
        self.sums = KeySums::restore(&state.per_key);
        let (t_terms, rows) = state.history.into_iter().unzip();
        self.state.restore(state.smoothed, t_terms, state.sum_t, state.members);
        self.rows = rows;
        Ok(())
    }

    /// The smoothing factor γ this classifier was built with.
    pub fn gamma(&self) -> f64 {
        self.state.gamma()
    }

    /// The classification scheme this classifier was built with.
    pub fn scheme(&self) -> Scheme {
        self.state.scheme()
    }

    /// The detector's name (checkpoints fingerprint the configuration
    /// with it, so a snapshot cannot silently resume under a different
    /// detector).
    pub fn detector_name(&self) -> String {
        self.detector.name()
    }

    /// Number of keys currently holding sliding-window state — zero
    /// again once every key has been idle for a full window (the retire
    /// path is exact, so state cannot leak).
    pub fn tracked_keys(&self) -> usize {
        self.sums.tracked()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{classify, ConstantLoadDetector};
    use eleph_flow::BandwidthMatrix;
    use eleph_net::Prefix;

    fn keys(n: usize) -> Vec<Prefix> {
        (0..n)
            .map(|i| format!("10.0.{i}.0/24").parse().expect("valid"))
            .collect()
    }

    fn rows() -> Vec<Vec<f64>> {
        // A mix of persistent, flickering and bursting flows.
        vec![
            vec![500.0, 10.0, 0.0, 80.0],
            vec![480.0, 12.0, 900.0, 0.0],
            vec![510.0, 9.0, 0.0, 70.0],
            vec![490.0, 11.0, 0.0, 75.0],
            vec![505.0, 10.0, 0.0, 0.0],
            vec![495.0, 10.0, 0.0, 90.0],
        ]
    }

    fn run_both(scheme: Scheme) {
        let rows = rows();
        let matrix = BandwidthMatrix::from_dense(60, 0, keys(4), &rows);
        let batch = classify(&matrix, ConstantLoadDetector::new(0.8), 0.9, scheme);

        let mut online = OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, scheme);
        for n in 0..rows.len() {
            let out = online.observe(&matrix.interval(n).to_pairs());
            assert_eq!(out.interval, n);
            assert_eq!(out.elephants, batch.elephants[n], "{scheme:?} interval {n}");
            assert!((out.threshold - batch.thresholds[n]).abs() < 1e-9);
            assert!((out.elephant_load - batch.elephant_load[n]).abs() < 1e-6);
            assert!((out.total_load - batch.total_load[n]).abs() < 1e-6);
            assert!((out.fraction() - batch.fraction(n)).abs() < 1e-9);
        }
        assert_eq!(online.interval, rows.len());
    }

    #[test]
    fn matches_batch_single_feature() {
        run_both(Scheme::SingleFeature);
    }

    #[test]
    fn matches_batch_latent_heat() {
        run_both(Scheme::LatentHeat { window: 3 });
    }

    #[test]
    fn a_window_longer_than_the_run_classifies_as_one_the_runs_length() {
        let rows = rows();
        let matrix = BandwidthMatrix::from_dense(60, 0, keys(4), &rows);
        let outcomes = |window| {
            let scheme = Scheme::LatentHeat { window };
            let mut online = OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, scheme);
            (0..rows.len())
                .map(|n| {
                    let out = online.observe(&matrix.interval(n).to_pairs());
                    let bits = [out.threshold, out.elephant_load, out.total_load].map(f64::to_bits);
                    (out.elephants, bits)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(outcomes(1 << 40), outcomes(rows.len()));
    }

    #[test]
    fn matches_batch_hysteresis() {
        run_both(Scheme::Hysteresis {
            enter: 1.2,
            exit: 0.6,
        });
    }

    #[test]
    fn hysteresis_keeps_member_through_shallow_dip() {
        // Threshold fixed at 100 via constant-load on a single dominant
        // flow is awkward; use the enter/exit semantics directly with a
        // scripted detector instead.
        struct Fixed;
        impl crate::ThresholdDetector for Fixed {
            fn detect(&self, _v: &[f64]) -> Option<f64> {
                Some(100.0)
            }
            fn name(&self) -> String {
                "fixed".to_string()
            }
        }
        let mut online = OnlineClassifier::new(
            Fixed,
            0.0,
            Scheme::Hysteresis {
                enter: 1.2,
                exit: 0.6,
            },
        );
        // 130 > 120: enters. 80 >= 60: stays. 50 < 60: leaves.
        // 110 < 120: may not re-enter.
        let outcomes: Vec<bool> = [130.0f32, 80.0, 50.0, 110.0, 125.0]
            .iter()
            .map(|&r| !online.observe(&[(0, r)]).elephants.is_empty())
            .collect();
        assert_eq!(outcomes, vec![true, true, false, false, true]);
    }

    #[test]
    fn memory_bounded_by_window_occupancy() {
        // Distinct keys every interval: tracked keys must not exceed
        // window × per-interval keys.
        let mut online = OnlineClassifier::new(
            ConstantLoadDetector::new(0.8),
            0.0,
            Scheme::LatentHeat { window: 2 },
        );
        for n in 0..50u32 {
            let snapshot = vec![(n * 3, 10.0f32), (n * 3 + 1, 20.0), (n * 3 + 2, 30.0)];
            online.observe(&snapshot);
            assert!(online.tracked_keys() <= 6, "window leak: {}", online.tracked_keys());
        }
    }

    #[test]
    fn empty_intervals_are_legal() {
        let mut online = OnlineClassifier::new(
            ConstantLoadDetector::new(0.8),
            0.9,
            Scheme::LatentHeat { window: 3 },
        );
        let out = online.observe(&[]);
        assert!(out.elephants.is_empty());
        assert_eq!(out.fraction(), 0.0);
        // Then traffic arrives: the classifier recovers.
        let out = online.observe(&[(1, 100.0), (2, 5.0)]);
        assert_eq!(out.total_load, 105.0);
    }

    #[test]
    fn randomized_equivalence_with_batch() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let n_keys = 40;
        let n_int = 30;
        let rows: Vec<Vec<f64>> = (0..n_int)
            .map(|_| {
                (0..n_keys)
                    .map(|_| {
                        if rng.gen::<f64>() < 0.4 {
                            0.0
                        } else {
                            rng.gen_range(1.0..1000.0)
                        }
                    })
                    .collect()
            })
            .collect();
        let matrix = BandwidthMatrix::from_dense(60, 0, keys(n_keys), &rows);
        for scheme in [
            Scheme::SingleFeature,
            Scheme::LatentHeat { window: 5 },
            Scheme::Hysteresis { enter: 1.3, exit: 0.7 },
        ] {
            let batch = classify(&matrix, ConstantLoadDetector::new(0.7), 0.9, scheme);
            let mut online =
                OnlineClassifier::new(ConstantLoadDetector::new(0.7), 0.9, scheme);
            for n in 0..n_int {
                let out = online.observe(&matrix.interval(n).to_pairs());
                assert_eq!(out.elephants, batch.elephants[n], "{scheme:?} at {n}");
            }
        }
    }

    #[test]
    fn mid_stream_empty_interval_yields_no_elephants() {
        // Regression (PR 4): a capture gap mid-stream. The keys' latent
        // heat stays hugely positive, but an interval with zero
        // attributed packets must report an empty elephant set and a
        // 0.0 (not NaN) fraction — and traffic resuming next interval
        // must restore the elephants from the surviving window state.
        let mut online = OnlineClassifier::new(
            ConstantLoadDetector::new(0.8),
            0.9,
            Scheme::LatentHeat { window: 4 },
        );
        for _ in 0..3 {
            let out = online.observe(&[(0, 10_000.0), (1, 5_000.0), (2, 100.0)]);
            assert_eq!(out.elephants, vec![0]);
        }
        let gap = online.observe(&[]);
        assert!(gap.elephants.is_empty(), "stale elephants across a gap");
        assert_eq!(gap.elephant_load, 0.0);
        assert_eq!(gap.total_load, 0.0);
        assert_eq!(gap.fraction(), 0.0, "fraction must be 0, not NaN");
        assert!(gap.fraction().is_finite());
        // The window survives the gap: the elephant returns immediately.
        let back = online.observe(&[(0, 10_000.0), (1, 5_000.0), (2, 100.0)]);
        assert_eq!(back.elephants, vec![0]);
    }

    #[test]
    fn batch_and_online_agree_on_empty_intervals() {
        // The empty-interval guard must hold identically in both
        // engines or the streaming pipeline's bit-equivalence breaks.
        let rows = vec![
            vec![800.0, 10.0],
            vec![790.0, 12.0],
            vec![0.0, 0.0], // capture gap
            vec![810.0, 11.0],
        ];
        let matrix = BandwidthMatrix::from_dense(60, 0, keys(2), &rows);
        let batch = classify(
            &matrix,
            ConstantLoadDetector::new(0.8),
            0.9,
            Scheme::LatentHeat { window: 3 },
        );
        assert!(batch.elephants[2].is_empty(), "batch emits stale elephants");
        assert_eq!(batch.fraction(2), 0.0);
        let mut online = OnlineClassifier::new(
            ConstantLoadDetector::new(0.8),
            0.9,
            Scheme::LatentHeat { window: 3 },
        );
        for n in 0..rows.len() {
            let out = online.observe(&matrix.interval(n).to_pairs());
            assert_eq!(out.elephants, batch.elephants[n], "interval {n}");
            assert_eq!(out.threshold.to_bits(), batch.thresholds[n].to_bits());
        }
    }

    #[test]
    fn exact_retirement_releases_all_state() {
        // A key idle for a full window must leave zero residue, even
        // when its rates were chosen to defeat incremental float sums.
        let mut online = OnlineClassifier::new(
            ConstantLoadDetector::new(0.8),
            0.0,
            Scheme::LatentHeat { window: 3 },
        );
        let huge = (1u64 << 55) as f32;
        online.observe(&[(7, 3.0), (9, huge)]);
        online.observe(&[(7, huge), (9, 5.0)]);
        online.observe(&[(7, 1.0)]);
        assert!(online.tracked_keys() > 0);
        for _ in 0..3 {
            online.observe(&[]);
        }
        assert_eq!(online.tracked_keys(), 0, "stale window state leaked");
    }

    #[test]
    fn state_round_trip_continues_bit_identically() {
        // Export/import at every split point; the resumed classifier's
        // remaining outcomes must match the uninterrupted run *by bits*,
        // including across latent-heat retirement and hysteresis
        // transitions exercised by the `rows()` mix.
        let rows = rows();
        for scheme in [
            Scheme::SingleFeature,
            Scheme::LatentHeat { window: 2 },
            Scheme::Hysteresis { enter: 1.2, exit: 0.6 },
        ] {
            let matrix = BandwidthMatrix::from_dense(60, 0, keys(4), &rows);
            let mut reference =
                OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, scheme);
            let expected: Vec<IntervalOutcome> = (0..rows.len())
                .map(|n| reference.observe(&matrix.interval(n).to_pairs()))
                .collect();
            for split in 0..rows.len() {
                let mut first =
                    OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, scheme);
                for n in 0..split {
                    first.observe(&matrix.interval(n).to_pairs());
                }
                let state = first.export_state();
                assert_eq!(state, first.export_state(), "export must be pure");
                let mut resumed =
                    OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, scheme);
                resumed.restore(4, state).expect("valid state");
                assert_eq!(resumed.interval, split);
                for n in split..rows.len() {
                    let out = resumed.observe(&matrix.interval(n).to_pairs());
                    let want = &expected[n];
                    assert_eq!(out.interval, want.interval);
                    assert_eq!(out.elephants, want.elephants, "{scheme:?} split {split} at {n}");
                    assert_eq!(out.threshold.to_bits(), want.threshold.to_bits());
                    assert_eq!(out.elephant_load.to_bits(), want.elephant_load.to_bits());
                    assert_eq!(out.total_load.to_bits(), want.total_load.to_bits());
                }
            }
        }
    }

    #[test]
    fn from_state_rejects_corrupt_structures() {
        let scheme = Scheme::LatentHeat { window: 3 };
        let mut online = OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, scheme);
        online.observe(&[(1, 50.0), (4, 700.0)]);
        online.observe(&[(1, 60.0)]);
        let good = online.export_state();
        let rebuild = |state: ClassifierState| {
            let mut online = OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, scheme);
            online.restore(5, state).map(|()| online)
        };
        assert!(rebuild(good.clone()).is_ok());

        // Occupancy out of sync with the history.
        let mut bad = good.clone();
        bad.per_key[0].2 += 1;
        assert!(rebuild(bad).unwrap_err().contains("occupancy"));

        // History key missing from the per-key table.
        let mut bad = good.clone();
        bad.per_key.remove(1);
        assert!(rebuild(bad).unwrap_err().contains("absent"));

        // More history than the window can hold.
        let mut bad = good.clone();
        bad.history.extend_from_slice(&[(1.0, vec![]), (1.0, vec![]), (1.0, vec![])]);
        assert!(rebuild(bad).unwrap_err().contains("window"));

        // More history than intervals observed.
        let mut bad = good.clone();
        bad.interval = 1;
        assert!(rebuild(bad).unwrap_err().contains("after 1 intervals"));

        // Unsorted snapshot inside the history.
        let mut bad = good.clone();
        bad.history[0].1.reverse();
        assert!(rebuild(bad).unwrap_err().contains("ascending"));

        // Membership state on a scheme without hysteresis.
        let mut bad = good.clone();
        bad.members = vec![1];
        assert!(rebuild(bad).unwrap_err().contains("hysteresis"));

        // A key the run never assigned (it has keys 0..5), in each list.
        let mut bad = good.clone();
        bad.per_key.push((5, 1.0, 1));
        assert!(rebuild(bad).unwrap_err().contains("names key 5"));
        let mut bad = good.clone();
        bad.history[0].1.push((u32::MAX, 1.0));
        assert!(rebuild(bad).unwrap_err().contains("names key 4294967295"));
        let mut bad = good;
        bad.members = vec![1 << 28];
        assert!(rebuild(bad).unwrap_err().contains("names key 268435456"));
    }
}
