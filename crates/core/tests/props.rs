//! Property tests for the classification schemes: the sliding-sum
//! latent-heat implementation must match the paper's formula computed
//! naively, the structural invariants of a classification must hold on
//! arbitrary bandwidth matrices, the dense columnar engine must agree
//! with a faithful replica of the legacy hash-map classifier,
//! [`eleph_core::classify_many`] — and one [`eleph_core::Sweep`] of
//! several detectors and windows — must be indistinguishable from
//! independent [`eleph_core::classify`] calls and, sharing row orders
//! and window scans, from the replica, constant-load detection on a
//! shared order must be a full sort's, the streaming classifier must
//! agree with the replica and resume by bits across a checkpoint, and
//! batch classification must agree by bits over traffic re-measured at
//! another T as it is walked.

use eleph_core::{
    classify, classify_many, classify_stream, holding, AestDetector, ClassificationResult,
    ClassifierState, ClassifyConfig, ConstantLoadDetector, IntervalOutcome, OnlineClassifier,
    Scheme, Sweep, ThresholdDetector,
};
use eleph_flow::{BandwidthMatrix, KeyId};
use eleph_net::Prefix;
use proptest::prelude::*;

/// A faithful replica of the pre-columnar classifier: `HashMap` sliding
/// sums, `HashSet` hysteresis membership, per-interval collect + sort,
/// and the `1e-9` retire epsilon. The equivalence property samples rate
/// magnitudes where f64 sliding sums are exact and partial sums stay
/// above the epsilon, so the replica and the dense engine must agree
/// bit-for-bit; outside that regime the dense engine's exact retire
/// path is deliberately *better* (see the regression tests below).
mod legacy {
    use eleph_core::{Scheme, ThresholdDetector};
    use eleph_flow::{BandwidthMatrix, KeyId};
    use std::collections::{HashMap, HashSet};

    pub(crate) struct LegacyResult {
        pub raw_thresholds: Vec<Option<f64>>,
        pub thresholds: Vec<f64>,
        pub elephants: Vec<Vec<KeyId>>,
        pub elephant_load: Vec<f64>,
        pub total_load: Vec<f64>,
    }

    pub(crate) fn classify<D: ThresholdDetector>(
        matrix: &BandwidthMatrix,
        detector: D,
        gamma: f64,
        scheme: Scheme,
    ) -> LegacyResult {
        let mut smoothed: Option<f64> = None;
        let n_int = matrix.n_intervals();
        let mut raw_thresholds = Vec::with_capacity(n_int);
        let mut thresholds = Vec::with_capacity(n_int);
        let mut elephants: Vec<Vec<KeyId>> = Vec::with_capacity(n_int);
        let mut elephant_load = Vec::with_capacity(n_int);
        let mut total_load = Vec::with_capacity(n_int);
        let window = match scheme {
            Scheme::LatentHeat { window } => window,
            _ => 1,
        };
        let mut members: HashSet<KeyId> = HashSet::new();
        let mut sum_b: HashMap<KeyId, f64> = HashMap::new();
        let mut sum_t = 0.0f64;
        let mut t_hist: Vec<f64> = Vec::with_capacity(n_int);

        for n in 0..n_int {
            let values = matrix.values(n);
            let raw = detector.detect(&values);
            raw_thresholds.push(raw);
            let threshold = match raw {
                Some(t) => *smoothed.insert(smoothed.map_or(t, |s| gamma * s + (1.0 - gamma) * t)),
                None => smoothed.unwrap_or(f64::INFINITY),
            };
            thresholds.push(threshold);
            let t_term = if threshold.is_finite() {
                threshold
            } else {
                values.iter().cloned().fold(0.0, f64::max) + 1.0
            };
            sum_t += t_term;
            t_hist.push(t_term);
            for (key, rate) in matrix.interval(n).iter() {
                *sum_b.entry(key).or_insert(0.0) += f64::from(rate);
            }
            if n >= window {
                let retire = n - window;
                sum_t -= t_hist[retire];
                for (key, rate) in matrix.interval(retire).iter() {
                    if let Some(s) = sum_b.get_mut(&key) {
                        *s -= f64::from(rate);
                        if *s <= 1e-9 {
                            sum_b.remove(&key);
                        }
                    }
                }
            }

            let mut current: Vec<KeyId> = match scheme {
                Scheme::SingleFeature => matrix
                    .interval(n)
                    .iter()
                    .filter(|&(_, rate)| f64::from(rate) > threshold)
                    .map(|(key, _)| key)
                    .collect(),
                // The empty-interval guard (PR 4) applies to the replica
                // too: an interval with no traffic emits no elephants.
                Scheme::LatentHeat { .. } if matrix.interval(n).is_empty() => Vec::new(),
                Scheme::LatentHeat { .. } => sum_b
                    .iter()
                    .filter(|&(_, &s)| s > sum_t)
                    .map(|(&key, _)| key)
                    .collect(),
                Scheme::Hysteresis { enter, exit } => {
                    let next: Vec<KeyId> = matrix
                        .interval(n)
                        .iter()
                        .filter(|&(key, rate)| {
                            let b = f64::from(rate);
                            if members.contains(&key) {
                                b >= exit * threshold
                            } else {
                                b > enter * threshold
                            }
                        })
                        .map(|(key, _)| key)
                        .collect();
                    members = next.iter().copied().collect();
                    next
                }
            };
            current.sort_unstable();
            let load: f64 = current.iter().map(|&key| matrix.rate(n, key)).sum();
            elephant_load.push(load);
            total_load.push(matrix.total(n));
            elephants.push(current);
        }
        LegacyResult {
            raw_thresholds,
            thresholds,
            elephants,
            elephant_load,
            total_load,
        }
    }
}

/// A fixed-threshold detector isolates classifier logic from detector
/// logic.
#[derive(Clone, Copy)]
struct Fixed(f64);

impl ThresholdDetector for Fixed {
    fn detect(&self, _values: &[f64]) -> Option<f64> {
        Some(self.0)
    }
    fn name(&self) -> String {
        "fixed".to_string()
    }
}

/// A constant-load detector that abstains on quiet intervals: below
/// `cutoff` b/s of total traffic it finds no threshold. Random matrices
/// then start with a run of undetected intervals of random length (the
/// "nothing detected yet" state) and abstain again mid-trace.
#[derive(Clone, Copy)]
struct QuietAbstains {
    cutoff: f64,
    inner: ConstantLoadDetector,
}

impl ThresholdDetector for QuietAbstains {
    fn detect(&self, values: &[f64]) -> Option<f64> {
        if values.iter().sum::<f64>() < self.cutoff {
            return None;
        }
        self.inner.detect(values)
    }
    fn name(&self) -> String {
        "quiet-abstains".to_string()
    }
}

/// Every field of a result, floats by their bits.
fn result_bits(r: &ClassificationResult) -> impl PartialEq + std::fmt::Debug + '_ {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let raw: Vec<Option<u64>> = r
        .raw_thresholds
        .iter()
        .map(|t| t.map(f64::to_bits))
        .collect();
    (
        (&r.detector, r.scheme, &r.elephants),
        (
            raw,
            bits(&r.thresholds),
            bits(&r.elephant_load),
            bits(&r.total_load),
        ),
    )
}

fn keys(n: usize) -> Vec<Prefix> {
    (0..n)
        .map(|i| {
            format!("10.{}.{}.0/24", i / 256, i % 256)
                .parse()
                .expect("valid prefix")
        })
        .collect()
}

/// Random dense rate matrices: up to 12 keys × up to 20 intervals.
fn arb_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..12, 1usize..20).prop_flat_map(|(nk, ni)| {
        prop::collection::vec(
            prop::collection::vec(prop_oneof![3 => Just(0.0), 7 => 1.0..1000.0f64], nk),
            ni,
        )
    })
}

fn matrix(rows: &[Vec<f64>]) -> BandwidthMatrix {
    BandwidthMatrix::from_dense(60, 0, keys(rows[0].len()), rows)
}

proptest! {
    #[test]
    fn single_feature_matches_oracle(rows in arb_rows(), threshold in 0.0..1200.0f64) {
        let m = matrix(&rows);
        let r = classify(&m, Fixed(threshold), 0.0, Scheme::SingleFeature);
        for (n, row) in rows.iter().enumerate() {
            for (i, &rate) in row.iter().enumerate() {
                let expect = rate > threshold;
                // f32 storage rounds rates; tolerate boundary flips only
                // when the rate is within f32 epsilon of the threshold.
                let got = r.is_elephant(n, i as u32);
                if (rate - threshold).abs() > 0.01 {
                    prop_assert_eq!(got, expect, "interval {} key {}: rate {}", n, i, rate);
                }
            }
        }
    }

    #[test]
    fn latent_heat_matches_naive_formula(rows in arb_rows(), threshold in 0.0..1200.0f64, window in 1usize..6) {
        let m = matrix(&rows);
        let r = classify(&m, Fixed(threshold), 0.0, Scheme::LatentHeat { window });
        for n in 0..rows.len() {
            let lo = n.saturating_sub(window - 1);
            // A degenerate interval (no active flows at all) short-circuits
            // to an empty elephant set regardless of latent heat — the
            // paper's formula governs intervals that carried traffic.
            if m.interval(n).is_empty() {
                prop_assert_eq!(r.count(n), 0, "empty interval {} emitted elephants", n);
                continue;
            }
            for i in 0..rows[0].len() {
                let lh: f64 = (lo..=n).map(|j| m.rate(j, i as u32) - threshold).sum();
                if lh.abs() > 0.01 {
                    prop_assert_eq!(
                        r.is_elephant(n, i as u32),
                        lh > 0.0,
                        "interval {} key {}: LH {}",
                        n, i, lh
                    );
                }
            }
        }
    }

    #[test]
    fn latent_heat_window_one_equals_single_feature(rows in arb_rows(), threshold in 0.0..1200.0f64) {
        let m = matrix(&rows);
        let single = classify(&m, Fixed(threshold), 0.0, Scheme::SingleFeature);
        let lh1 = classify(&m, Fixed(threshold), 0.0, Scheme::LatentHeat { window: 1 });
        prop_assert_eq!(single.elephants, lh1.elephants);
    }

    #[test]
    fn raising_threshold_never_adds_elephants(rows in arb_rows(), t in 0.0..500.0f64, bump in 1.0..500.0f64) {
        let m = matrix(&rows);
        let low = classify(&m, Fixed(t), 0.0, Scheme::SingleFeature);
        let high = classify(&m, Fixed(t + bump), 0.0, Scheme::SingleFeature);
        for n in 0..rows.len() {
            for key in &high.elephants[n] {
                prop_assert!(
                    low.is_elephant(n, *key),
                    "key {} elephant at higher threshold only", key
                );
            }
        }
    }

    #[test]
    fn classification_invariants(rows in arb_rows(), threshold in 0.0..1200.0f64, window in 1usize..6, gamma in 0.0..0.99f64) {
        let m = matrix(&rows);
        for scheme in [Scheme::SingleFeature, Scheme::LatentHeat { window }] {
            let r = classify(&m, Fixed(threshold), gamma, scheme);
            prop_assert_eq!(r.n_intervals(), rows.len());
            for n in 0..rows.len() {
                // Sorted, unique elephant ids within the key space.
                let e = &r.elephants[n];
                prop_assert!(e.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(e.iter().all(|&k| (k as usize) < rows[0].len()));
                // Load accounting.
                prop_assert!(r.elephant_load[n] <= r.total_load[n] + 1e-6);
                prop_assert!(r.fraction(n) >= 0.0 && r.fraction(n) <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn holding_time_bookkeeping_conserves_slots(rows in arb_rows(), threshold in 0.0..1200.0f64) {
        let m = matrix(&rows);
        let r = classify(&m, Fixed(threshold), 0.0, Scheme::SingleFeature);
        let h = holding::analyze(&r, 0..rows.len(), 60);
        // Total slots across flows equal total elephant occurrences.
        let total_slots: usize = h.per_flow.iter().map(|(_, f)| f.slots).sum();
        let total_occurrences: usize = r.elephants.iter().map(Vec::len).sum();
        prop_assert_eq!(total_slots, total_occurrences);
        for (_, f) in &h.per_flow {
            prop_assert!(f.runs >= 1);
            prop_assert!(f.slots >= f.runs);
            prop_assert!(f.avg_slots >= 1.0);
            prop_assert!(f.avg_slots <= rows.len() as f64);
        }
        prop_assert!(h.single_interval_flows <= h.per_flow.len());
    }

    #[test]
    fn churn_bounded_by_class_sizes(rows in arb_rows(), threshold in 0.0..1200.0f64) {
        let m = matrix(&rows);
        let r = classify(&m, Fixed(threshold), 0.0, Scheme::SingleFeature);
        let churn = holding::churn(&r);
        prop_assert_eq!(churn.len(), rows.len());
        for (n, &churn) in churn.iter().enumerate().skip(1) {
            let bound = r.count(n) + r.count(n - 1);
            prop_assert!(churn <= bound, "churn {} > bound {}", churn, bound);
        }
    }

    #[test]
    fn constant_load_threshold_is_minimal(values in prop::collection::vec(0.1..1e6f64, 1..200), beta in 0.05..1.0f64) {
        let d = ConstantLoadDetector::new(beta);
        let t = d.detect(&values).expect("non-empty positive values");
        let total: f64 = values.iter().sum();
        let at_or_above: f64 = values.iter().filter(|&&v| v >= t).sum();
        prop_assert!(at_or_above >= beta * total - 1e-6);
        let strictly_above: f64 = values.iter().filter(|&&v| v > t).sum();
        prop_assert!(strictly_above < beta * total + 1e-6);
    }

    #[test]
    fn ewma_stays_within_input_range(gamma in 0.0..0.999f64, inputs in prop::collection::vec(1e-3..1e3f32, 1..100)) {
        // One key per interval: a β = 1 constant-load detection is its
        // rate, so the threshold is the EWMA of the inputs.
        let mut online = OnlineClassifier::new(ConstantLoadDetector::new(1.0), gamma, Scheme::SingleFeature);
        let lo = f64::from(inputs.iter().cloned().fold(f32::INFINITY, f32::min));
        let hi = f64::from(inputs.iter().cloned().fold(f32::NEG_INFINITY, f32::max));
        for &x in &inputs {
            let v = online.observe(&[(0, x)]).threshold;
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "EWMA {v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn dense_classify_matches_legacy_reference(
        rows in arb_rows(),
        threshold in 1.0..1200.0f64,
        window in 1usize..6,
        enter in 1.0..1.8f64,
        exit in 0.2..1.0f64,
        beta in 0.3..0.95f64,
    ) {
        let m = matrix(&rows);
        for scheme in [
            Scheme::SingleFeature,
            Scheme::LatentHeat { window },
            Scheme::Hysteresis { enter, exit },
        ] {
            // Fixed threshold isolates the scheme state machines...
            let dense = classify(&m, Fixed(threshold), 0.0, scheme);
            let reference = legacy::classify(&m, Fixed(threshold), 0.0, scheme);
            prop_assert_eq!(&dense.elephants, &reference.elephants, "{:?} fixed", scheme);
            prop_assert_eq!(&dense.thresholds, &reference.thresholds, "{:?} fixed", scheme);
            prop_assert_eq!(&dense.elephant_load, &reference.elephant_load, "{:?} fixed", scheme);
            prop_assert_eq!(&dense.total_load, &reference.total_load, "{:?} fixed", scheme);
            // ...and a real detector + smoothing exercises the full path.
            let dense = classify(&m, ConstantLoadDetector::new(beta), 0.9, scheme);
            let reference = legacy::classify(&m, ConstantLoadDetector::new(beta), 0.9, scheme);
            prop_assert_eq!(&dense.elephants, &reference.elephants, "{:?} cl", scheme);
            prop_assert_eq!(&dense.thresholds, &reference.thresholds, "{:?} cl", scheme);
            prop_assert_eq!(&dense.elephant_load, &reference.elephant_load, "{:?} cl", scheme);
            prop_assert_eq!(&dense.total_load, &reference.total_load, "{:?} cl", scheme);
        }
    }

    #[test]
    fn classify_many_equals_independent_classifies(
        rows in arb_rows(),
        beta in 0.3..0.95f64,
        gammas in prop::collection::vec(0.0..0.99f64, 1..6),
        window in 1usize..6,
    ) {
        let m = matrix(&rows);
        // A mixed family: schemes rotate across the sampled γ values, so
        // one shared pass carries single-feature, latent-heat and
        // hysteresis state machines side by side.
        let configs: Vec<ClassifyConfig> = gammas
            .iter()
            .enumerate()
            .map(|(i, &gamma)| ClassifyConfig {
                gamma,
                scheme: match i % 3 {
                    0 => Scheme::SingleFeature,
                    1 => Scheme::LatentHeat { window },
                    _ => Scheme::Hysteresis { enter: 1.2, exit: 0.6 },
                },
            })
            .collect();
        let shared = classify_many(&m, &ConstantLoadDetector::new(beta), &configs);
        prop_assert_eq!(shared.len(), configs.len());
        for (config, got) in configs.iter().zip(shared) {
            let solo = classify(&m, ConstantLoadDetector::new(beta), config.gamma, config.scheme);
            prop_assert_eq!(&got.detector, &solo.detector);
            prop_assert_eq!(&got.elephants, &solo.elephants, "{:?}", config);
            prop_assert_eq!(&got.thresholds, &solo.thresholds, "{:?}", config);
            prop_assert_eq!(&got.raw_thresholds, &solo.raw_thresholds, "{:?}", config);
            prop_assert_eq!(&got.elephant_load, &solo.elephant_load, "{:?}", config);
            prop_assert_eq!(&got.total_load, &solo.total_load, "{:?}", config);
        }
    }
}

proptest! {
    #[test]
    fn one_sweep_of_many_detectors_and_windows_equals_independent_classifies(
        rows in arb_rows(),
        beta in 0.3..0.95f64,
        // Interval totals reach ~11 000 b/s: from "never abstains" to
        // "never detects".
        cutoff in prop_oneof![1 => Just(0.0), 6 => 0.0..6000.0f64, 1 => Just(1e9)],
        gamma in 0.0..0.99f64,
        windows in prop::collection::vec(1usize..8, 1..4),
        enter in 1.0..1.8f64,
        exit in 0.2..1.0f64,
    ) {
        let m = matrix(&rows);
        let abstains = QuietAbstains { cutoff, inner: ConstantLoadDetector::new(beta) };
        let constant_load = ConstantLoadDetector::new(beta);
        // Latent-heat configurations of several windows share one ring
        // of rows and, per distinct window, one set of key sums — across
        // both detectors.
        let mut configs = vec![
            ClassifyConfig { gamma, scheme: Scheme::SingleFeature },
            ClassifyConfig { gamma, scheme: Scheme::Hysteresis { enter, exit } },
        ];
        configs.extend(
            windows.iter().map(|&window| ClassifyConfig { gamma, scheme: Scheme::LatentHeat { window } }),
        );
        let mut sweep: Sweep = Sweep::new();
        sweep.pass(Box::new(abstains), &configs);
        sweep.pass(Box::new(constant_load), &configs[2..]);
        for n in 0..m.n_intervals() {
            sweep.observe(&m.interval(n).to_pairs());
        }
        let swept = sweep.finish();
        prop_assert_eq!(swept.len(), 2 * configs.len() - 2);
        let (first, second) = swept.split_at(configs.len());
        for (config, got) in configs.iter().zip(first) {
            let solo = classify(&m, abstains, config.gamma, config.scheme);
            prop_assert_eq!(result_bits(got), result_bits(&solo), "{:?} abstaining", config);
            // And against the engine-independent replica.
            let reference = legacy::classify(&m, abstains, config.gamma, config.scheme);
            prop_assert_eq!(&got.elephants, &reference.elephants, "{:?}", config);
            prop_assert_eq!(&got.thresholds, &reference.thresholds, "{:?}", config);
            prop_assert_eq!(&got.elephant_load, &reference.elephant_load, "{:?}", config);
            prop_assert_eq!(&got.total_load, &reference.total_load, "{:?}", config);
        }
        for (config, got) in configs[2..].iter().zip(second) {
            let solo = classify(&m, constant_load, config.gamma, config.scheme);
            prop_assert_eq!(result_bits(got), result_bits(&solo), "{:?} constant load", config);
        }
    }
}

/// The β-constant-load threshold by a full sort: cumulate the values
/// largest first and return the first that reaches β of the total, or
/// the smallest when rounding keeps the sum short of it.
fn full_sort_crossing(values: &[f64], beta: f64) -> Option<f64> {
    let total: f64 = values.iter().sum();
    if values.is_empty() || total <= 0.0 {
        return None;
    }
    let mut descending = values.to_vec();
    descending.sort_by(|a, b| b.total_cmp(a));
    let mut cum = 0.0;
    for &v in &descending {
        cum += v;
        if cum >= beta * total {
            return Some(v);
        }
    }
    descending.last().copied()
}

proptest! {
    /// Several β read each row's order in turn, each sorting it further
    /// only past where the ones before stopped, and one sweep carries the
    /// order from row to row: a row's first extension is sized by how
    /// deep the row before was read, so a long row after a short one
    /// starts shallow and a short row after a long one sorts whole. Rows
    /// run from empty to 5 000 values, with ties, and β = 1 can fall back
    /// to the smallest value. Every crossing is the full sort's by bits,
    /// on the carried order and on a fresh one.
    #[test]
    fn constant_load_on_a_shared_order_equals_a_full_sort(
        rows in prop::collection::vec(
            (
                prop_oneof![2 => 0usize..64, 1 => 64usize..600, 2 => 600usize..5000],
                prop::collection::vec(
                    prop_oneof![6 => 0.1..1e6f32, 1 => Just(250.0f32), 1 => 1e-3..1e9f32],
                    5000..5001,
                ),
            ),
            1..6,
        ),
        betas in prop::collection::vec(prop_oneof![1 => Just(1.0), 4 => 0.01..1.0f64], 1..8),
    ) {
        let rows: Vec<Vec<(KeyId, f32)>> = rows
            .into_iter()
            .map(|(len, rates)| (0..).zip(rates).take(len).collect())
            .collect();
        let config = ClassifyConfig { gamma: 0.5, scheme: Scheme::SingleFeature };
        let mut sweep = Sweep::new();
        for &beta in &betas {
            sweep.pass(ConstantLoadDetector::new(beta), &[config]);
        }
        for row in &rows {
            sweep.observe(row);
        }
        let swept = sweep.finish();
        for (n, row) in rows.iter().enumerate() {
            let values: Vec<f64> = row.iter().map(|&(_, rate)| f64::from(rate)).collect();
            for (result, &beta) in swept.iter().zip(&betas) {
                let expected = full_sort_crossing(&values, beta).map(f64::to_bits);
                let carried = result.raw_thresholds[n].map(f64::to_bits);
                prop_assert_eq!(carried, expected, "β {} on row {}'s carried order", beta, n);
                let alone = ConstantLoadDetector::new(beta).detect(&values).map(f64::to_bits);
                prop_assert_eq!(alone, expected, "β {} alone", beta);
            }
        }
    }

    /// One sweep shares each row's order between two constant-load
    /// passes at different β, and each window's scan between two
    /// latent-heat configurations at different γ in each pass; each
    /// result is held, column by column, to the legacy replica, which
    /// detects every row on its own and keeps its own hash-map sums.
    #[test]
    fn one_sweep_sharing_row_orders_and_window_scans_equals_the_legacy_replica(
        rows in arb_rows(),
        betas in (0.3..0.95f64, 0.3..0.95f64),
        gammas in (0.0..0.99f64, 0.0..0.99f64),
        windows in prop::collection::vec(1usize..6, 1..3),
        enter in 1.0..1.8f64,
        exit in 0.2..1.0f64,
    ) {
        let m = matrix(&rows);
        let mut configs = vec![
            ClassifyConfig { gamma: gammas.0, scheme: Scheme::Hysteresis { enter, exit } },
            ClassifyConfig { gamma: gammas.1, scheme: Scheme::SingleFeature },
        ];
        for &window in &windows {
            for gamma in [gammas.0, gammas.1] {
                configs.push(ClassifyConfig { gamma, scheme: Scheme::LatentHeat { window } });
            }
        }
        let detectors = [ConstantLoadDetector::new(betas.0), ConstantLoadDetector::new(betas.1)];
        let mut sweep = Sweep::new();
        for detector in detectors {
            // Boxed, as the report crate's session hands detectors over.
            let boxed: Box<dyn ThresholdDetector> = Box::new(detector);
            sweep.pass(boxed, &configs);
        }
        for n in 0..m.n_intervals() {
            sweep.observe(&m.interval(n).to_pairs());
        }
        let swept = sweep.finish();
        prop_assert_eq!(swept.len(), detectors.len() * configs.len());
        for (i, got) in swept.iter().enumerate() {
            let (detector, config) = (detectors[i / configs.len()], configs[i % configs.len()]);
            let reference = legacy::classify(&m, detector, config.gamma, config.scheme);
            let at = format!("{config:?} β {}", detector.beta);
            prop_assert_eq!(&got.detector, &detector.name());
            prop_assert_eq!(&got.raw_thresholds, &reference.raw_thresholds, "{}", at);
            prop_assert_eq!(&got.thresholds, &reference.thresholds, "{}", at);
            prop_assert_eq!(&got.elephants, &reference.elephants, "{}", at);
            prop_assert_eq!(&got.elephant_load, &reference.elephant_load, "{}", at);
            prop_assert_eq!(&got.total_load, &reference.total_load, "{}", at);
        }
    }
}

/// Sparse rate rows shaped like a capture: every key stays silent until
/// its own first interval (late keys grow the streaming engines' dense
/// state mid-run), flickers afterwards, and whole intervals drop out as
/// capture gaps.
fn arb_sparse_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..24, 2usize..24).prop_flat_map(|(nk, ni)| {
        (
            prop::collection::vec(
                prop::collection::vec(prop_oneof![4 => Just(0.0), 6 => 1.0..50_000.0f64], nk),
                ni,
            ),
            prop::collection::vec(0..ni, nk),
            prop::collection::vec(prop_oneof![5 => Just(false), 1 => Just(true)], ni),
        )
            .prop_map(|(mut rows, first_seen, gaps)| {
                for (n, row) in rows.iter_mut().enumerate() {
                    for (key, rate) in row.iter_mut().enumerate() {
                        if gaps[n] || n < first_seen[key] {
                            *rate = 0.0;
                        }
                    }
                }
                rows
            })
    })
}

/// An outcome with its floats as bits.
fn outcome_bits(o: &IntervalOutcome) -> (usize, u64, &[KeyId], u64, u64) {
    (
        o.interval,
        o.threshold.to_bits(),
        &o.elephants,
        o.elephant_load.to_bits(),
        o.total_load.to_bits(),
    )
}

/// A recovery frontier with its floats as bits.
fn state_bits(s: &ClassifierState) -> impl PartialEq + std::fmt::Debug + '_ {
    let history: Vec<(u64, Vec<(KeyId, u32)>)> = s
        .history
        .iter()
        .map(|(t, snap)| {
            (
                t.to_bits(),
                snap.iter().map(|&(k, r)| (k, r.to_bits())).collect(),
            )
        })
        .collect();
    (
        (s.interval, s.detected, s.sum_t.to_bits()),
        (history, &s.members),
    )
}

proptest! {
    #[test]
    fn batch_and_streaming_agree_across_a_checkpoint(
        rows in arb_sparse_rows(),
        (beta, cutoff) in (
            0.3..0.95f64,
            prop_oneof![1 => Just(0.0), 6 => 0.0..300_000.0f64, 1 => Just(1e12)],
        ),
        gamma in 0.0..0.99f64,
        window in 1usize..6,
        (enter, exit) in (1.0..1.8f64, 0.2..1.0f64),
        cut in any::<prop::sample::Index>(),
    ) {
        let m = matrix(&rows);
        let n_keys = m.n_keys();
        let snapshots: Vec<Vec<(KeyId, f32)>> =
            (0..rows.len()).map(|n| m.interval(n).to_pairs()).collect();
        let cut = cut.index(rows.len() + 1);
        let detector = QuietAbstains { cutoff, inner: ConstantLoadDetector::new(beta) };

        for scheme in [
            Scheme::SingleFeature,
            Scheme::LatentHeat { window },
            Scheme::Hysteresis { enter, exit },
        ] {
            // Streaming, uninterrupted, with its frontier at the cut.
            let mut online = OnlineClassifier::new(detector, gamma, scheme);
            let mut at_cut = online.export_state();
            let mut expected = Vec::with_capacity(snapshots.len());
            for (n, snapshot) in snapshots.iter().enumerate() {
                expected.push(online.observe(snapshot));
                if n + 1 == cut {
                    at_cut = online.export_state();
                }
            }
            let at_end = online.export_state();

            // The legacy replica, batch over the equivalent matrix.
            let reference = legacy::classify(&m, detector, gamma, scheme);
            for (n, got) in expected.iter().enumerate() {
                prop_assert_eq!(
                    (&got.elephants, got.threshold, got.elephant_load, got.total_load),
                    (
                        &reference.elephants[n],
                        reference.thresholds[n],
                        reference.elephant_load[n],
                        reference.total_load[n],
                    ),
                    "{:?} at {}",
                    scheme,
                    n
                );
            }

            // Streaming, resumed from its own frontier.
            let mut resumed = OnlineClassifier::new(detector, gamma, scheme);
            resumed.restore(n_keys, at_cut).expect("an exported state is valid");
            for (snapshot, want) in snapshots[cut..].iter().zip(&expected[cut..]) {
                let got = resumed.observe(snapshot);
                prop_assert_eq!(outcome_bits(&got), outcome_bits(want), "{:?} resumed", scheme);
            }
            prop_assert_eq!(state_bits(&resumed.export_state()), state_bits(&at_end));
        }
    }
}

/// Sparse matrices for re-measuring, as `eleph_flow`'s walker property
/// draws them: rates mix ordinary values with subnormals (which a
/// refined sub-rate can round to zero) and the smallest normal, and
/// T = 420 s is divisible by every factor 1..=7. Built through the
/// public constructor, where zero means absent.
fn arb_remeasurable() -> impl Strategy<Value = BandwidthMatrix> {
    let entry = || {
        let rate = prop_oneof![
            4 => 1e-3f32..1e9,
            1 => (1u32..0x0080_0000).prop_map(f32::from_bits),
            1 => Just(f32::MIN_POSITIVE),
        ];
        prop_oneof![2 => Just(0.0), 1 => rate.prop_map(f64::from)]
    };
    (1usize..40, 0usize..24).prop_flat_map(move |(n_keys, n_intervals)| {
        prop::collection::vec(prop::collection::vec(entry(), n_keys), n_intervals)
            .prop_map(move |rows| BandwidthMatrix::from_dense(420, 1_000, keys(n_keys), &rows))
    })
}

/// A walker over re-measured traffic: it calls its argument once per
/// interval, in order.
type Walk<'a> = &'a dyn Fn(&mut dyn FnMut(&[(KeyId, f32)]));

/// The rows `walk` hands over, as a matrix at `interval_secs`: walkers
/// never hand over a zero rate, and an f32 survives the trip through
/// f64, so these are the walked rows exactly.
fn collected(m: &BandwidthMatrix, interval_secs: u64, walk: Walk<'_>) -> BandwidthMatrix {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    walk(&mut |row| {
        let mut dense = vec![0.0; m.n_keys()];
        for &(key, rate) in row {
            dense[key as usize] = f64::from(rate);
        }
        rows.push(dense);
    });
    let keys = (0..m.n_keys() as KeyId).map(|id| m.key(id)).collect();
    BandwidthMatrix::from_dense(interval_secs, m.start_unix(), keys, &rows)
}

proptest! {
    #[test]
    fn streamed_remeasurement_equals_batch_over_its_rows(
        m in arb_remeasurable(),
        factor in 1usize..=7,
        seed in any::<u64>(),
        (beta, cutoff) in (
            0.3..0.95f64,
            // Totals reach ~4e10 b/s: from "never abstains" to "never
            // detects".
            prop_oneof![1 => Just(0.0), 6 => 0.0..1e10f64, 1 => Just(1e12)],
        ),
        gamma in 0.0..0.99f64,
        window in 1usize..6,
        (enter, exit) in (1.0..1.8f64, 0.2..1.0f64),
    ) {
        // Constant load abstains on quiet intervals, so a run may start
        // on the unbeatable stand-in and detect later; aest finds no tail
        // in so few points and abstains throughout.
        let constant_load = QuietAbstains { cutoff, inner: ConstantLoadDetector::new(beta) };
        let aest = AestDetector::new();
        let t = m.interval_secs();
        let refine: Walk<'_> = &|row| m.refine_each(factor, seed, row);
        let coarsen: Walk<'_> = &|row| m.coarsen_each(factor, row);
        let walks = [
            ("refined", refine, collected(&m, t / factor as u64, refine)),
            ("coarsened", coarsen, collected(&m, t * factor as u64, coarsen)),
        ];

        for scheme in [
            Scheme::SingleFeature,
            Scheme::LatentHeat { window },
            Scheme::Hysteresis { enter, exit },
        ] {
            for (what, walk, matrix) in &walks {
                let streamed = classify_stream(constant_load, gamma, scheme, walk);
                let batch = classify(matrix, constant_load, gamma, scheme);
                prop_assert_eq!(
                    result_bits(&streamed),
                    result_bits(&batch),
                    "{:?} {}, constant load",
                    scheme,
                    what
                );
                let streamed = classify_stream(aest.clone(), gamma, scheme, walk);
                let batch = classify(matrix, aest.clone(), gamma, scheme);
                prop_assert_eq!(
                    result_bits(&streamed),
                    result_bits(&batch),
                    "{:?} {}, aest",
                    scheme,
                    what
                );
            }
        }
    }
}

#[test]
fn exact_retire_keeps_epsilon_scale_microflow() {
    // A micro-flow at the old retire epsilon's scale: active at n = 0
    // and n = 3 with 5e-10 b/s, latent window 3, threshold 0. At n = 3
    // the window holds only the fresh activity (n = 0 retires), and the
    // paper's formula says LH = 5e-10 > 0 → elephant. The legacy hash
    // state subtracted n = 0's rate, saw the partial sum at 1e-9 or
    // below, and dropped the *live* key — a misclassification the exact
    // dense retire path cannot make.
    let rows = vec![vec![5e-10], vec![0.0], vec![0.0], vec![5e-10], vec![0.0]];
    let m = matrix(&rows);
    let r = classify(&m, Fixed(0.0), 0.0, Scheme::LatentHeat { window: 3 });
    assert!(
        r.is_elephant(3, 0),
        "live micro-flow lost at the retire epsilon"
    );
}

#[test]
fn adversarial_magnitudes_leave_no_stale_state() {
    // Catastrophic-cancellation rates: 2^55 bursts among unit-scale
    // flows defeat incremental f64 sliding sums (add/subtract round
    // trips leave residue). Once a key has been idle for a full window
    // the dense engine resets its sum to literal zero — residue cannot
    // produce phantom elephants, and a negative mid-window excursion is
    // clamped rather than carried.
    let huge = (1u64 << 55) as f64;
    let rows = vec![
        vec![huge, 3.0],
        vec![3.0, huge],
        vec![1.0, 0.0],
        vec![0.0, 0.0],
        vec![0.0, 0.0],
        vec![0.0, 0.0],
        vec![0.0, 7.0],
    ];
    let m = matrix(&rows);
    let r = classify(&m, Fixed(0.0), 0.0, Scheme::LatentHeat { window: 3 });
    // Both keys idle through the window ending at n = 5: no residue.
    assert!(!r.is_elephant(5, 0), "phantom elephant from stale residue");
    assert!(!r.is_elephant(5, 1), "phantom elephant from stale residue");
    assert!(!r.is_elephant(6, 0), "phantom elephant from stale residue");
    // Key 1 reappears at n = 6: only the fresh activity counts.
    assert!(r.is_elephant(6, 1), "fresh activity after reset lost");
}
