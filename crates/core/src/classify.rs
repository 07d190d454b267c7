//! The classification schemes over a bandwidth matrix.
//!
//! The engine is columnar and dense: per-key state is one
//! `WindowState` (`crate::window`) per configuration — flat vectors
//! indexed by [`KeyId`], the same state machine the streaming classifier
//! runs — so a classification pass is linear walks over the matrix's
//! key/rate columns with no hashing and no per-interval allocation
//! beyond the emitted elephant lists (which come out already sorted).
//! Detection and classification are two passes:
//! [`RawThresholds::detect`] runs the detector over each interval once,
//! and [`classify_with`] steps a whole family of configurations (γ /
//! window / scheme variants) over that series — [`classify`] and
//! [`classify_many`] are the two composed, and the report crate's
//! session keeps the series so every later configuration reuses it.

use eleph_flow::{BandwidthMatrix, KeyId};

use crate::window::{self, WindowState};
use crate::{ThresholdDetector, ThresholdSeries};

/// Which classification scheme to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// §II single-feature: elephant iff `B_i(n) > T̄(n)`.
    SingleFeature,
    /// §II two-feature: elephant iff the latent heat over the past
    /// `window` slots is positive:
    /// `LH_i(n) = Σ_{j=n−w+1..n} (B_i(j) − T̄(j)) > 0`.
    LatentHeat {
        /// Number of slots summed (paper: 12 = one hour of 5-min slots).
        window: usize,
    },
    /// High/low-watermark hysteresis — the classic alternative
    /// persistence mechanism, included as an ablation baseline: a mouse
    /// becomes an elephant when `B_i(n) > enter·T̄(n)` and an elephant
    /// stays one until `B_i(n) < exit·T̄(n)` (`exit ≤ 1 ≤ enter`).
    /// Unlike latent heat it has no memory of *how much* a flow
    /// over/under-shot, only of membership.
    Hysteresis {
        /// Entry multiplier on the smoothed threshold (≥ 1).
        enter: f64,
        /// Exit multiplier on the smoothed threshold (≤ 1).
        exit: f64,
    },
}

impl Scheme {
    /// The sliding-window length the scheme classifies over: the
    /// latent-heat window, or 1 for the single-interval schemes. Panics
    /// on invalid parameters: a zero window, or hysteresis multipliers
    /// outside `0 <= exit <= 1 <= enter`.
    pub(crate) fn window(self) -> usize {
        match self {
            Scheme::LatentHeat { window } => {
                assert!(window >= 1, "latent-heat window must be >= 1");
                window
            }
            Scheme::SingleFeature => 1,
            Scheme::Hysteresis { enter, exit } => {
                assert!(enter >= 1.0 && (0.0..=1.0).contains(&exit), "need exit <= 1 <= enter");
                1
            }
        }
    }
}

/// One classification configuration for [`classify_many`]: everything
/// except the matrix and the threshold detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassifyConfig {
    /// EWMA smoothing factor γ for the threshold update.
    pub gamma: f64,
    /// The classification scheme.
    pub scheme: Scheme,
}

/// The outcome of classifying a whole trace.
#[derive(Debug, Clone)]
pub struct ClassificationResult {
    /// Name of the detector that produced the thresholds.
    pub detector: String,
    /// The scheme used.
    pub scheme: Scheme,
    /// Smoothed threshold `T̄(n)` per interval.
    pub thresholds: Vec<f64>,
    /// Raw detections per interval (`None` = detector abstained).
    pub raw_thresholds: Vec<Option<f64>>,
    /// Sorted elephant key ids per interval.
    pub elephants: Vec<Vec<KeyId>>,
    /// Traffic carried by elephants per interval (b/s).
    pub elephant_load: Vec<f64>,
    /// Total traffic per interval (b/s).
    pub total_load: Vec<f64>,
}

impl ClassificationResult {
    /// Number of intervals classified.
    pub fn n_intervals(&self) -> usize {
        self.elephants.len()
    }

    /// Number of elephants in interval `n` (Figure 1(a)'s y-axis).
    pub fn count(&self, n: usize) -> usize {
        self.elephants[n].len()
    }

    /// Fraction of traffic apportioned to elephants in interval `n`
    /// (Figure 1(b)'s y-axis); 0 when the interval carried no traffic.
    pub fn fraction(&self, n: usize) -> f64 {
        if self.total_load[n] <= 0.0 {
            0.0
        } else {
            self.elephant_load[n] / self.total_load[n]
        }
    }

    /// Whether `key` is an elephant in interval `n` (binary search on
    /// the sorted per-interval list).
    pub fn is_elephant(&self, n: usize, key: KeyId) -> bool {
        self.elephants[n].binary_search(&key).is_ok()
    }

    /// Mean elephant count across all intervals.
    pub fn mean_count(&self) -> f64 {
        if self.elephants.is_empty() {
            return 0.0;
        }
        self.elephants.iter().map(Vec::len).sum::<usize>() as f64 / self.elephants.len() as f64
    }

    /// Mean elephant traffic fraction across intervals with traffic.
    pub fn mean_fraction(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for i in 0..self.n_intervals() {
            if self.total_load[i] > 0.0 {
                sum += self.fraction(i);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// Per-configuration classifier state inside [`classify_with`]: the
/// EWMA series, the shared [`WindowState`] and the result columns. The
/// window retires straight from `matrix.interval(n − w)` (no snapshot
/// copies) and is fed only under latent heat, the one scheme reading it.
struct ConfigState {
    scheme: Scheme,
    /// The latent-heat window; `None` for the single-interval schemes.
    window: Option<usize>,
    series: ThresholdSeries,
    state: WindowState,
    /// The threshold term each interval slid in with, to retire it by.
    t_terms: Vec<f64>,
    thresholds: Vec<f64>,
    raw_thresholds: Vec<Option<f64>>,
    elephants: Vec<Vec<KeyId>>,
    elephant_load: Vec<f64>,
    total_load: Vec<f64>,
}

impl ConfigState {
    fn new(config: &ClassifyConfig, n_keys: usize, n_intervals: usize) -> Self {
        let window = config.scheme.window();
        let latent = matches!(config.scheme, Scheme::LatentHeat { .. });
        ConfigState {
            scheme: config.scheme,
            window: latent.then_some(window),
            series: ThresholdSeries::new(config.gamma),
            state: WindowState::with_ids(if latent { n_keys } else { 0 }),
            t_terms: Vec::with_capacity(if latent { n_intervals } else { 0 }),
            thresholds: Vec::new(),
            raw_thresholds: Vec::new(),
            elephants: Vec::with_capacity(n_intervals),
            elephant_load: Vec::with_capacity(n_intervals),
            total_load: Vec::with_capacity(n_intervals),
        }
    }

    /// Advance to interval `n`: threshold update, window slide,
    /// classification.
    fn step(&mut self, matrix: &BandwidthMatrix, raw: &RawThresholds, n: usize) {
        let view = matrix.interval(n);
        self.raw_thresholds.push(raw.raw[n]);
        let threshold = self.series.observe_raw(raw.raw[n]);
        self.thresholds.push(threshold);

        if let Some(window) = self.window {
            // The stand-in is read only while nothing has been detected,
            // which is exactly the intervals `unbeatable` covers.
            let t_term = window::threshold_term(threshold, || raw.unbeatable[n]);
            self.t_terms.push(t_term);
            self.state.slide_in(t_term, view.iter());
            if let Some(retire) = n.checked_sub(window) {
                self.state.retire(self.t_terms[retire], matrix.interval(retire).iter());
            }
        }

        // Elephants come out ascending and the load is added in that
        // order, for bit-identical float sums on every path.
        let mut current: Vec<KeyId> = Vec::new();
        let mut load = 0.0f64;
        self.state.classify(self.scheme, threshold, view.iter(), |key, term| {
            current.push(key);
            load += term;
        });

        self.elephant_load.push(load);
        self.total_load.push(matrix.total(n));
        self.elephants.push(current);
    }

    fn finish(self, detector: String) -> ClassificationResult {
        ClassificationResult {
            detector,
            scheme: self.scheme,
            thresholds: self.thresholds,
            raw_thresholds: self.raw_thresholds,
            elephants: self.elephants,
            elephant_load: self.elephant_load,
            total_load: self.total_load,
        }
    }
}

/// One detector's raw per-interval thresholds over one matrix: the
/// detection half of a classification, which dominates its cost and
/// depends on nothing in a [`ClassifyConfig`]. Detect once, then step
/// any number of configurations over it with [`classify_with`], now or
/// later.
#[derive(Debug, Clone, PartialEq)]
pub struct RawThresholds {
    detector: String,
    raw: Vec<Option<f64>>,
    /// One entry per interval before the first detection — the only
    /// state with an infinite smoothed threshold, whatever the γ — with
    /// that interval's finite stand-in (its largest rate + 1).
    unbeatable: Vec<f64>,
}

impl RawThresholds {
    /// Run `detector` over every interval of `matrix`.
    pub fn detect<D: ThresholdDetector>(matrix: &BandwidthMatrix, detector: &D) -> Self {
        let n_int = matrix.n_intervals();
        let mut raw = Vec::with_capacity(n_int);
        let mut unbeatable = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        for n in 0..n_int {
            matrix.values_into(n, &mut values);
            let detection = detector.detect(&values);
            if detection.is_none() && unbeatable.len() == n {
                unbeatable.push(window::unbeatable(&values));
            }
            raw.push(detection);
        }
        RawThresholds { detector: detector.name(), raw, unbeatable }
    }
}

/// Run a scheme over a matrix with the given detector and smoothing γ.
///
/// This is the complete §II methodology in one call: per interval,
/// threshold detection → EWMA update → classification (single- or
/// two-feature, or the hysteresis baseline). Deterministic; the
/// detector sees only each interval's active-flow bandwidths.
pub fn classify<D: ThresholdDetector>(
    matrix: &BandwidthMatrix,
    detector: D,
    gamma: f64,
    scheme: Scheme,
) -> ClassificationResult {
    let config = ClassifyConfig { gamma, scheme };
    classify_many(matrix, &detector, std::slice::from_ref(&config))
        .pop()
        .expect("one config in, one result out")
}

/// Run a whole family of configurations over one matrix, detecting
/// once: [`RawThresholds::detect`] followed by [`classify_with`].
///
/// For a sweep of `c` configurations this removes `c − 1` of the
/// detection passes, which dominate classification cost. Every returned
/// result is byte-identical to running [`classify`] separately with that
/// configuration (pinned by property tests).
pub fn classify_many<D: ThresholdDetector>(
    matrix: &BandwidthMatrix,
    detector: &D,
    configs: &[ClassifyConfig],
) -> Vec<ClassificationResult> {
    classify_with(matrix, &RawThresholds::detect(matrix, detector), configs)
}

/// Step each configuration over the raw thresholds `raw` holds for
/// `matrix`. Each configuration keeps its own EWMA series, so different
/// γ values smooth the shared detections independently, and no
/// configuration's result depends on which others ran beside it.
///
/// # Panics
///
/// Panics when `raw` was detected over a matrix with another number of
/// intervals.
pub fn classify_with(
    matrix: &BandwidthMatrix,
    raw: &RawThresholds,
    configs: &[ClassifyConfig],
) -> Vec<ClassificationResult> {
    let n_int = matrix.n_intervals();
    assert_eq!(raw.raw.len(), n_int, "raw thresholds of another matrix");
    let n_keys = matrix.n_keys();
    let mut states: Vec<ConfigState> =
        configs.iter().map(|c| ConfigState::new(c, n_keys, n_int)).collect();

    for n in 0..n_int {
        for state in &mut states {
            state.step(matrix, raw, n);
        }
    }

    states.into_iter().map(|s| s.finish(raw.detector.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleph_flow::BandwidthMatrix;
    use eleph_net::Prefix;

    /// A fixed-threshold detector for isolating classifier behaviour.
    struct Fixed(f64);

    impl ThresholdDetector for Fixed {
        fn detect(&self, _values: &[f64]) -> Option<f64> {
            Some(self.0)
        }

        fn name(&self) -> String {
            "fixed".to_string()
        }
    }

    fn prefix(i: usize) -> Prefix {
        format!("10.{}.0.0/16", i).parse().unwrap()
    }

    /// Build a matrix from dense rows: rows[n][i] = rate of key i at n.
    fn matrix(rows: &[Vec<f64>]) -> BandwidthMatrix {
        let n_keys = rows.iter().map(Vec::len).max().unwrap_or(0);
        let keys: Vec<Prefix> = (0..n_keys).map(prefix).collect();

        // Assemble through the public packet path to keep this test
        // honest: synthesise per-interval byte counts via the aggregator.
        use eleph_bgp::{BgpTable, Origin, PeerClass, RouteEntry};
        use eleph_packet::{IpProtocol, PacketMeta};
        let table = BgpTable::from_entries(keys.iter().map(|&p| RouteEntry {
            prefix: p,
            next_hop: std::net::Ipv4Addr::new(192, 0, 2, 1),
            as_path: vec![1],
            origin: Origin::Igp,
            peer_class: PeerClass::Tier1,
        }));
        let mut agg = eleph_flow::Aggregator::new(&table, 8, 0, rows.len());
        for (n, row) in rows.iter().enumerate() {
            for (i, &rate) in row.iter().enumerate() {
                if rate <= 0.0 {
                    continue;
                }
                // rate b/s over 8 s = rate bytes.
                agg.observe(&PacketMeta {
                    ts_ns: (n as u64 * 8 + 1) * 1_000_000_000,
                    src: std::net::Ipv4Addr::new(198, 18, 0, 1),
                    dst: std::net::Ipv4Addr::new(10, i as u8, 0, 1),
                    proto: IpProtocol::Tcp,
                    src_port: 1,
                    dst_port: 2,
                    wire_len: rate as u32,
                });
            }
        }
        let (m, stats) = agg.finish();
        assert!(stats.is_conserved());
        m
    }

    #[test]
    fn single_feature_thresholding() {
        let m = matrix(&[
            vec![100.0, 10.0, 60.0],
            vec![100.0, 80.0, 10.0],
        ]);
        let r = classify(&m, Fixed(50.0), 0.0, Scheme::SingleFeature);
        assert_eq!(r.n_intervals(), 2);
        // Interval 0: keys with rate > 50 are 0 (100) and 2 (60).
        assert_eq!(r.count(0), 2);
        assert!(r.is_elephant(0, m.key_id(prefix(0)).unwrap()));
        assert!(r.is_elephant(0, m.key_id(prefix(2)).unwrap()));
        assert!(!r.is_elephant(0, m.key_id(prefix(1)).unwrap()));
        // Interval 1: keys 0 and 1.
        assert_eq!(r.count(1), 2);
        // Load accounting.
        assert!((r.elephant_load[0] - 160.0).abs() < 1.0);
        assert!((r.fraction(0) - 160.0 / 170.0).abs() < 0.01);
    }

    #[test]
    fn latent_heat_filters_one_slot_burst() {
        // Key 0: persistent 100 b/s. Key 1: a single 100 b/s burst at n=2.
        // Threshold fixed at 50: single-feature flags the burst, latent
        // heat (window 3) does not — the burst's excess (+50) cannot
        // outweigh two empty slots (−100).
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|n| vec![100.0, if n == 2 { 100.0 } else { 0.0 }])
            .collect();
        let m = matrix(&rows);
        let single = classify(&m, Fixed(50.0), 0.0, Scheme::SingleFeature);
        let latent = classify(&m, Fixed(50.0), 0.0, Scheme::LatentHeat { window: 3 });

        let k0 = m.key_id(prefix(0)).unwrap();
        let k1 = m.key_id(prefix(1)).unwrap();

        assert!(single.is_elephant(2, k1), "single feature must flag the burst");
        for n in 0..6 {
            assert!(!latent.is_elephant(n, k1), "latent heat flagged burst at {n}");
            assert!(latent.is_elephant(n, k0), "persistent flow lost at {n}");
        }
    }

    #[test]
    fn latent_heat_keeps_elephant_through_one_slot_dip() {
        // Key 0 transmits 100 except a single dip to 0 at n = 3; key 1 is
        // steady background mice traffic, so the dip interval still
        // carries packets (an interval with *no* traffic at all is a
        // capture gap and deliberately emits no elephants — see
        // `empty_interval_emits_no_elephants`).
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|n| vec![if n == 3 { 0.0 } else { 100.0 }, 5.0])
            .collect();
        let m = matrix(&rows);
        let single = classify(&m, Fixed(50.0), 0.0, Scheme::SingleFeature);
        let latent = classify(&m, Fixed(50.0), 0.0, Scheme::LatentHeat { window: 3 });
        let k0 = m.key_id(prefix(0)).unwrap();

        assert!(!single.is_elephant(3, k0), "single feature drops the dip");
        assert!(latent.is_elephant(3, k0), "latent heat must absorb the dip");
    }

    #[test]
    fn empty_interval_emits_no_elephants() {
        // Regression (PR 4): an interval with zero attributed packets —
        // a capture gap, not a flow dip — reports an empty elephant set
        // and a 0.0 fraction, even while latent heat stays positive.
        // Traffic resuming the next interval restores the elephant from
        // the surviving window state.
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|n| {
                if n == 3 {
                    vec![0.0, 0.0]
                } else {
                    vec![100.0, 5.0]
                }
            })
            .collect();
        let m = matrix(&rows);
        let r = classify(&m, Fixed(50.0), 0.0, Scheme::LatentHeat { window: 3 });
        let k0 = m.key_id(prefix(0)).unwrap();
        assert_eq!(r.count(3), 0, "capture gap emitted elephants");
        assert_eq!(r.fraction(3), 0.0);
        assert!(r.fraction(3).is_finite());
        assert!(r.is_elephant(4, k0), "elephant lost after the gap");
    }

    #[test]
    fn latent_heat_definition_matches_naive_sum() {
        // Cross-check the sliding-sum implementation against the paper's
        // formula computed naively.
        let rows = vec![
            vec![120.0, 30.0, 70.0],
            vec![20.0, 90.0, 60.0],
            vec![80.0, 100.0, 0.0],
            vec![70.0, 0.0, 55.0],
            vec![90.0, 40.0, 65.0],
        ];
        let m = matrix(&rows);
        let window = 3;
        let r = classify(&m, Fixed(60.0), 0.0, Scheme::LatentHeat { window });
        for n in 0..rows.len() {
            for key in 0..3u32 {
                let lo = n.saturating_sub(window - 1);
                let lh: f64 = (lo..=n)
                    .map(|j| m.rate(j, m.key_id(prefix(key as usize)).unwrap()) - 60.0)
                    .sum();
                let expect = lh > 0.0;
                let got = r.is_elephant(n, m.key_id(prefix(key as usize)).unwrap());
                assert_eq!(got, expect, "key {key} at {n}: LH = {lh}");
            }
        }
    }

    #[test]
    fn infinite_pre_detection_threshold_blocks_everything() {
        struct Never;
        impl ThresholdDetector for Never {
            fn detect(&self, _v: &[f64]) -> Option<f64> {
                None
            }
            fn name(&self) -> String {
                "never".to_string()
            }
        }
        let m = matrix(&[vec![100.0], vec![100.0]]);
        for scheme in [Scheme::SingleFeature, Scheme::LatentHeat { window: 2 }] {
            let r = classify(&m, Never, 0.9, scheme);
            for n in 0..2 {
                assert_eq!(r.count(n), 0, "{scheme:?} at {n}");
            }
        }
    }

    #[test]
    fn summary_statistics() {
        let m = matrix(&[vec![100.0, 10.0], vec![100.0, 10.0]]);
        let r = classify(&m, Fixed(50.0), 0.0, Scheme::SingleFeature);
        assert!((r.mean_count() - 1.0).abs() < 1e-12);
        assert!((r.mean_fraction() - 100.0 / 110.0).abs() < 0.01);
    }

    #[test]
    fn gamma_smooths_threshold_series() {
        struct Alternate(std::cell::Cell<bool>);
        impl ThresholdDetector for Alternate {
            fn detect(&self, _v: &[f64]) -> Option<f64> {
                let hi = self.0.get();
                self.0.set(!hi);
                Some(if hi { 100.0 } else { 0.0 })
            }
            fn name(&self) -> String {
                "alt".to_string()
            }
        }
        let rows: Vec<Vec<f64>> = (0..40).map(|_| vec![50.0]).collect();
        let m = matrix(&rows);
        let r = classify(&m, Alternate(std::cell::Cell::new(true)), 0.9, Scheme::SingleFeature);
        // After burn-in the smoothed series must stay near 50 despite the
        // raw series swinging 0..100.
        let tail = &r.thresholds[20..];
        for t in tail {
            assert!((t - 50.0).abs() < 15.0, "threshold {t} insufficiently smooth");
        }
    }

    #[test]
    fn hysteresis_membership_over_matrix() {
        // Key 0 rides the watermarks: enters at 130 (> 1.2·100), survives
        // a dip to 80 (≥ 0.6·100), leaves at 50, may not re-enter at 110.
        let rows: Vec<Vec<f64>> = [130.0, 80.0, 50.0, 110.0, 125.0]
            .iter()
            .map(|&r| vec![r])
            .collect();
        let m = matrix(&rows);
        let r = classify(
            &m,
            Fixed(100.0),
            0.0,
            Scheme::Hysteresis { enter: 1.2, exit: 0.6 },
        );
        let got: Vec<bool> = (0..rows.len()).map(|n| r.count(n) == 1).collect();
        assert_eq!(got, vec![true, true, false, false, true]);
    }

    #[test]
    fn classify_many_single_pass_matches_independent_runs() {
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|n| {
                vec![
                    100.0 + n as f64,
                    if n % 3 == 0 { 90.0 } else { 10.0 },
                    55.0,
                    if n > 5 { 200.0 } else { 0.0 },
                ]
            })
            .collect();
        let m = matrix(&rows);
        let configs = [
            ClassifyConfig { gamma: 0.0, scheme: Scheme::SingleFeature },
            ClassifyConfig { gamma: 0.9, scheme: Scheme::LatentHeat { window: 3 } },
            ClassifyConfig { gamma: 0.5, scheme: Scheme::LatentHeat { window: 1 } },
            ClassifyConfig {
                gamma: 0.9,
                scheme: Scheme::Hysteresis { enter: 1.2, exit: 0.6 },
            },
        ];
        let shared = classify_many(&m, &crate::ConstantLoadDetector::new(0.8), &configs);
        assert_eq!(shared.len(), configs.len());
        for (config, got) in configs.iter().zip(&shared) {
            let solo = classify(
                &m,
                crate::ConstantLoadDetector::new(0.8),
                config.gamma,
                config.scheme,
            );
            assert_eq!(got.detector, solo.detector);
            assert_eq!(got.elephants, solo.elephants, "{config:?}");
            assert_eq!(got.thresholds, solo.thresholds, "{config:?}");
            assert_eq!(got.raw_thresholds, solo.raw_thresholds, "{config:?}");
            assert_eq!(got.elephant_load, solo.elephant_load, "{config:?}");
            assert_eq!(got.total_load, solo.total_load, "{config:?}");
        }
    }

    #[test]
    fn classify_many_empty_config_list() {
        let m = matrix(&[vec![100.0]]);
        let out = classify_many(&m, &Fixed(50.0), &[]);
        assert!(out.is_empty());
    }
}
