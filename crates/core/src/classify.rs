//! The classification schemes over rows of a bandwidth matrix.
//!
//! The engine is dense: per-key state is flat vectors indexed by
//! [`KeyId`] (`crate::window`), so a classification pass is linear walks
//! over each interval's sparse row with no hashing and no per-interval
//! allocation beyond the emitted elephant lists (which come out already
//! sorted). One driver, [`Sweep`], steps any family of configurations
//! over rows handed over one at a time, detecting once per (detector,
//! row), sorting each row at most once and scanning each window once per
//! row; [`classify`], [`classify_many`] and [`classify_stream`] are that
//! driver with one detector, the report crate's session runs it on a
//! link's rows as they are generated, and the streaming
//! [`OnlineClassifier`](crate::OnlineClassifier) is it with one
//! configuration.

use std::collections::VecDeque;

use eleph_flow::{BandwidthMatrix, KeyId};

use crate::window::{latent_heat, KeySums, SchemeState, Step};
use crate::{RowOrder, ThresholdDetector};

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
                assert!(
                    enter >= 1.0 && (0.0..=1.0).contains(&exit),
                    "need exit <= 1 <= enter"
                );
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

/// One detector over a [`Sweep`]'s rows, and where the step state of
/// each configuration over its detections is kept.
#[derive(Debug)]
struct Pass<D> {
    detector: D,
    /// The current row's detection.
    raw: Option<f64>,
    slots: Vec<Slot>,
}

/// Where a configuration's step state is kept.
#[derive(Debug)]
enum Slot {
    /// With the configuration: the single-interval schemes.
    Own(SchemeState),
    /// The `at`-th state of `Sweep::windows[window]`: latent heat.
    Window { window: usize, at: usize },
}

/// Every latent-heat configuration over one window length `w`, across
/// passes: the sums they all read, and their states, which one scan of
/// the sums per row answers together.
#[derive(Debug)]
struct Window {
    w: usize,
    sums: KeySums,
    states: Vec<SchemeState>,
}

/// Many classification configurations stepped over one stream of
/// interval rows as they are handed over: each detector runs once per
/// row, and every configuration over its detections takes the one
/// per-interval step (`crate::window`).
///
/// What depends only on the rows is kept once: the values the detectors
/// read and one descending order of them, which every detector that
/// sorts (β-constant load, at any β) reads and extends; one ring of the
/// last `max w` rows; and, per distinct latent-heat window `w`, one set
/// of per-key sliding sums and one scan of them per row that answers
/// every latent-heat configuration with that `w`, across passes. Each
/// configuration keeps only its EWMA, its threshold terms and their sum,
/// its hysteresis members and its result columns. So `c` configurations
/// over `d` detectors cost `d` detections (at most one sort), one window
/// slide and one window scan per distinct `w` per row, and every result
/// is by bits what [`classify`] gives for a matrix of the same rows.
///
/// It is the one driver of the step: [`classify`], [`classify_many`]
/// and [`classify_stream`] are it with one detector, the report crate's
/// session steps every configuration an experiment asks for on one walk
/// of a link, and the streaming [`OnlineClassifier`](crate::OnlineClassifier)
/// is it with one configuration.
#[derive(Debug)]
pub struct Sweep<D = Box<dyn ThresholdDetector>> {
    passes: Vec<Pass<D>>,
    /// One per distinct latent window.
    windows: Vec<Window>,
    /// The last `max w` rows, oldest first; empty without a window.
    ring: VecDeque<Vec<(KeyId, f32)>>,
    /// The current row's rates as f64: every detector's input.
    values: Vec<f64>,
    /// `values` in descending order, as far as a detector sorted them.
    order: RowOrder,
    /// Rows observed so far.
    pub(crate) rows: usize,
    /// Each configuration's result as [`Sweep::observe`] collects it.
    results: Vec<ClassificationResult>,
}

impl<D> Default for Sweep<D> {
    fn default() -> Self {
        Sweep {
            passes: Vec::new(),
            windows: Vec::new(),
            ring: VecDeque::new(),
            values: Vec::new(),
            order: RowOrder::new(),
            rows: 0,
            results: Vec::new(),
        }
    }
}

impl<D: ThresholdDetector> Sweep<D> {
    /// A sweep with nothing to step yet.
    pub fn new() -> Self {
        Sweep::default()
    }

    /// Run `detector` over every row, and step each of `configs` over its
    /// detections. Their results come out of [`Sweep::finish`] after
    /// those of earlier passes, in `configs` order.
    ///
    /// # Panics
    ///
    /// Panics when a row has already been observed, or on an invalid
    /// configuration: γ outside [0, 1), a latent-heat window of 0, or
    /// hysteresis multipliers not `0 <= exit <= 1 <= enter`.
    pub fn pass(&mut self, detector: D, configs: &[ClassifyConfig]) {
        assert_eq!(self.rows, 0, "passes are added before the first row");
        let slots = configs
            .iter()
            .map(|config| {
                let state = SchemeState::new(config.gamma, config.scheme);
                self.results.push(ClassificationResult {
                    detector: detector.name(),
                    scheme: config.scheme,
                    thresholds: Vec::new(),
                    raw_thresholds: Vec::new(),
                    elephants: Vec::new(),
                    elephant_load: Vec::new(),
                    total_load: Vec::new(),
                });
                match config.scheme {
                    Scheme::LatentHeat { window: w } => {
                        let window = self.window(w);
                        let states = &mut self.windows[window].states;
                        states.push(state);
                        Slot::Window {
                            window,
                            at: states.len() - 1,
                        }
                    }
                    Scheme::SingleFeature | Scheme::Hysteresis { .. } => Slot::Own(state),
                }
            })
            .collect();
        self.passes.push(Pass {
            detector,
            raw: None,
            slots,
        });
    }

    /// The index of the sums over `w` rows, made when no configuration
    /// reads them yet.
    pub(crate) fn window(&mut self, w: usize) -> usize {
        self.windows
            .iter()
            .position(|window| window.w == w)
            .unwrap_or_else(|| {
                self.windows.push(Window {
                    w,
                    sums: KeySums::default(),
                    states: Vec::new(),
                });
                self.windows.len() - 1
            })
    }

    /// Classify the next interval: `row` is its sparse snapshot,
    /// ascending by key.
    pub fn observe(&mut self, row: &[(KeyId, f32)]) {
        // The columns are the consumer's: out of `self` while it steps.
        let mut results = std::mem::take(&mut self.results);
        self.observe_with(row, |config, raw, total_load, step| {
            let result = &mut results[config];
            result.raw_thresholds.push(raw);
            result.thresholds.push(step.threshold);
            result.elephants.push(step.elephants);
            result.elephant_load.push(step.elephant_load);
            result.total_load.push(total_load);
        });
        self.results = results;
    }

    /// The per-interval body: step every configuration over `row`, and
    /// hand each one's step — in [`Sweep::finish`] order, with its
    /// index there, its pass's raw detection and the row's total — to
    /// `each`.
    pub(crate) fn observe_with(
        &mut self,
        row: &[(KeyId, f32)],
        mut each: impl FnMut(usize, Option<f64>, f64, Step),
    ) {
        debug_assert!(row.windows(2).all(|w| w[0].0 < w[1].0));
        self.rows += 1;
        self.values.clear();
        self.values
            .extend(row.iter().map(|&(_, rate)| f64::from(rate)));
        self.order.reset();
        // Fold from +0.0, as a matrix's totals are: `Iterator::sum`
        // starts from -0.0, which an empty interval's total would keep.
        let total_load = self.values.iter().fold(0.0, |s, &v| s + v);

        if !self.windows.is_empty() {
            // The ring holds the rows before this one, newest last.
            let n = self.ring.len();
            for window in &mut self.windows {
                let retired = n
                    .checked_sub(window.w)
                    .map_or(&[][..], |old| &self.ring[old]);
                let rows = self.ring.range((n + 1).saturating_sub(window.w)..);
                window
                    .sums
                    .slide(row, retired, rows.map(Vec::as_slice).chain([row]));
            }
            let max_w = self
                .windows
                .iter()
                .map(|window| window.w)
                .max()
                .expect("not empty");
            let mut kept = if n == max_w {
                self.ring.pop_front().expect("max_w >= 1")
            } else {
                Vec::new()
            };
            kept.clear();
            kept.extend_from_slice(row);
            self.ring.push_back(kept);
        }

        // Every threshold update first, then one scan per window for the
        // latent-heat configurations of every pass.
        for pass in &mut self.passes {
            pass.raw = pass.detector.detect_in(&self.values, &mut self.order);
            for slot in &mut pass.slots {
                match slot {
                    Slot::Own(state) => {
                        state.smooth(pass.raw, &self.values);
                        state.pick_single(row);
                    }
                    &mut Slot::Window { window, at } => {
                        self.windows[window].states[at].smooth(pass.raw, &self.values);
                    }
                }
            }
        }
        // A window no configuration scans (the streaming classifier's,
        // under the single-interval schemes) only slides.
        for window in self
            .windows
            .iter_mut()
            .filter(|window| !window.states.is_empty())
        {
            latent_heat(&window.sums, row, &mut window.states);
        }
        let mut config = 0;
        for pass in &mut self.passes {
            for slot in &mut pass.slots {
                let state = match slot {
                    Slot::Own(state) => state,
                    &mut Slot::Window { window, at } => &mut self.windows[window].states[at],
                };
                each(config, pass.raw, total_load, state.take_step());
                config += 1;
            }
        }
    }

    /// Every configuration's result over the rows observed, pass by
    /// pass in the order added.
    pub fn finish(self) -> Vec<ClassificationResult> {
        self.results
    }

    /// The first pass's detector.
    pub(crate) fn detector(&self) -> &D {
        &self.passes[0].detector
    }

    /// What a sweep of one configuration and one window resumes from:
    /// the configuration's step state, the window's sums and the ring.
    pub(crate) fn frontier(&self) -> (&SchemeState, &KeySums, &VecDeque<Vec<(KeyId, f32)>>) {
        let state = match &self.passes[0].slots[0] {
            Slot::Own(state) => state,
            Slot::Window { .. } => &self.windows[0].states[0],
        };
        (state, &self.windows[0].sums, &self.ring)
    }

    /// [`Sweep::frontier`], to restore.
    pub(crate) fn frontier_mut(
        &mut self,
    ) -> (
        &mut SchemeState,
        &mut KeySums,
        &mut VecDeque<Vec<(KeyId, f32)>>,
    ) {
        let Window { sums, states, .. } = &mut self.windows[0];
        let state = match &mut self.passes[0].slots[0] {
            Slot::Own(state) => state,
            Slot::Window { .. } => &mut states[0],
        };
        (state, sums, &mut self.ring)
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
/// once per interval: a [`Sweep`] with one detector over the matrix's
/// rows.
///
/// For a sweep of `c` configurations this removes `c − 1` of the
/// detection passes, which dominate classification cost. Each
/// configuration keeps its own EWMA series, so different γ values smooth
/// the shared detections independently, and every returned result is
/// byte-identical to running [`classify`] separately with that
/// configuration (pinned by property tests).
pub fn classify_many<D: ThresholdDetector>(
    matrix: &BandwidthMatrix,
    detector: &D,
    configs: &[ClassifyConfig],
) -> Vec<ClassificationResult> {
    let mut sweep = Sweep::new();
    sweep.pass(detector, configs);
    let mut row: Vec<(KeyId, f32)> = Vec::new();
    for n in 0..matrix.n_intervals() {
        row.clear();
        row.extend(matrix.interval(n).iter());
        sweep.observe(&row);
    }
    sweep.finish()
}

/// Classify intervals as they are handed over, keeping only one window
/// of them: `rows` is given a callback and calls it once per interval,
/// in order, with that interval's sparse snapshot (ascending by key) —
/// a walker such as [`eleph_flow::BandwidthMatrix::refine_each`] fits
/// as is.
///
/// The result is what [`classify`] returns for a matrix of the same
/// rows, by bits (an interval's total folds its rates in key order from
/// `+0.0`, as a matrix's does). Panics like [`Sweep::pass`].
pub fn classify_stream<D: ThresholdDetector>(
    detector: D,
    gamma: f64,
    scheme: Scheme,
    rows: impl FnOnce(&mut dyn FnMut(&[(KeyId, f32)])),
) -> ClassificationResult {
    let mut sweep = Sweep::new();
    sweep.pass(detector, &[ClassifyConfig { gamma, scheme }]);
    rows(&mut |row| sweep.observe(row));
    sweep.finish().pop().expect("one config in, one result out")
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
        let m = matrix(&[vec![100.0, 10.0, 60.0], vec![100.0, 80.0, 10.0]]);
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

        assert!(
            single.is_elephant(2, k1),
            "single feature must flag the burst"
        );
        for n in 0..6 {
            assert!(
                !latent.is_elephant(n, k1),
                "latent heat flagged burst at {n}"
            );
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
        let r = classify(
            &m,
            Alternate(std::cell::Cell::new(true)),
            0.9,
            Scheme::SingleFeature,
        );
        // After burn-in the smoothed series must stay near 50 despite the
        // raw series swinging 0..100.
        let tail = &r.thresholds[20..];
        for t in tail {
            assert!(
                (t - 50.0).abs() < 15.0,
                "threshold {t} insufficiently smooth"
            );
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
            Scheme::Hysteresis {
                enter: 1.2,
                exit: 0.6,
            },
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
            ClassifyConfig {
                gamma: 0.0,
                scheme: Scheme::SingleFeature,
            },
            ClassifyConfig {
                gamma: 0.9,
                scheme: Scheme::LatentHeat { window: 3 },
            },
            ClassifyConfig {
                gamma: 0.5,
                scheme: Scheme::LatentHeat { window: 1 },
            },
            ClassifyConfig {
                gamma: 0.9,
                scheme: Scheme::Hysteresis {
                    enter: 1.2,
                    exit: 0.6,
                },
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
