//! Per-interval threshold detection.

use crate::aest::aest;
use crate::order::{from_sort_key, sort_key};

/// A rule that derives the elephant/mouse separation bandwidth from one
/// interval's flow-bandwidth snapshot.
///
/// Returns `None` when the rule cannot produce a threshold for this
/// snapshot (e.g. aest finds no power-law tail, or the snapshot is
/// empty); the crate's threshold tracker then carries the previous
/// smoothed value forward — a measurement system cannot simply skip an
/// interval.
pub trait ThresholdDetector {
    /// Compute the raw threshold `T(n)` from the active flows' bandwidths
    /// (unsorted, all > 0). The result is a non-negative bandwidth: the
    /// smoothed threshold is an EWMA of results, and a checkpoint that
    /// holds a negative one is refused on resume.
    fn detect(&self, values: &[f64]) -> Option<f64>;

    /// [`ThresholdDetector::detect`] on a row other detectors may
    /// already have ordered: `order` is `values`' descending order as
    /// far as earlier readers sorted it since it was handed this row (a
    /// [`RowOrder`] is emptied before each new row). A detector that
    /// reads the largest values first reads and extends it instead of
    /// sorting the row again; the default ignores it. The result is
    /// `detect`'s, by bits.
    fn detect_in(&self, values: &[f64], order: &mut RowOrder) -> Option<f64> {
        let _ = order;
        self.detect(values)
    }

    /// Short name for reports ("aest", "0.8-constant-load", ...).
    fn name(&self) -> String;
}

/// One interval's values in descending order, sorted from the top only
/// as far as its readers ask, so several detectors over the same row
/// share one sort.
///
/// The crossing a constant-load detector looks for usually sits in the
/// top few percent of a heavy-tailed snapshot, at about the same depth
/// from one interval to the next, so a full sort is wasted work. The
/// order remembers how deep the readers of the row before read: the
/// deepest crossing any β reached, or every value when one fell back to
/// the smallest. On the next row it selects that many plus a quarter,
/// and at least 64, of the largest values (the multiset is unique even
/// with boundary ties) and sorts only them; each time a reader runs
/// past what is sorted it selects and sorts twice as many as last time
/// from the rest. The descending value sequence is identical to a full
/// sort's, whoever extended it and how far.
#[derive(Debug, Default)]
pub struct RowOrder {
    /// The row's values as [`sort_key`]s: `keys[sorted..]` ascending,
    /// and no key in `keys[..sorted]` above `keys[sorted]`.
    keys: Vec<u64>,
    sorted: usize,
    /// How many keys the next extension sorts.
    next: usize,
    /// How many values from the top the row's readers read; it sizes
    /// the next row's first extension.
    reach: usize,
    /// The row's total, as [`ConstantLoadDetector`] reads it.
    total: f64,
    /// Whether `keys` holds the current row.
    filled: bool,
    /// Keys sorted by every extension, ever: the work a test pins.
    #[cfg(test)]
    sorted_keys: usize,
}

impl RowOrder {
    /// An order that holds no row yet.
    pub fn new() -> Self {
        RowOrder::default()
    }

    /// Let the order go: the next reader fills it from the row it is
    /// handed. Call it before each new row.
    pub(crate) fn reset(&mut self) {
        self.filled = false;
    }

    /// Hold `values` unless the order already holds its row.
    fn fill(&mut self, values: &[f64]) {
        if self.filled {
            return;
        }
        debug_assert!(
            values.iter().all(|v| v.is_finite()),
            "bandwidths are finite"
        );
        self.keys.clear();
        self.keys.extend(values.iter().map(|&v| sort_key(v)));
        self.sorted = self.keys.len();
        self.next = (self.reach + self.reach / 4).max(64);
        self.reach = 0;
        self.total = values.iter().sum();
        self.filled = true;
    }

    /// Sort the next values down from the top; false when every value
    /// is sorted already.
    fn extend(&mut self) -> bool {
        if self.sorted == 0 {
            return false;
        }
        let rest = &mut self.keys[..self.sorted];
        let top = if self.next < rest.len() {
            let split = rest.len() - self.next;
            rest.select_nth_unstable(split);
            self.sorted = split;
            &mut rest[split..]
        } else {
            self.sorted = 0;
            rest
        };
        #[cfg(test)]
        {
            self.sorted_keys += top.len();
        }
        top.sort_unstable();
        self.next *= 2;
        true
    }
}

/// The paper's "aest" rule: the threshold is the point where the
/// power-law tail of the flow-bandwidth distribution begins, located by
/// the Crovella–Taqqu scaling estimator.
#[derive(Debug, Clone, Default)]
pub struct AestDetector;

impl AestDetector {
    /// Detector with the estimator's settings.
    pub fn new() -> Self {
        AestDetector
    }
}

impl ThresholdDetector for AestDetector {
    fn detect(&self, values: &[f64]) -> Option<f64> {
        aest(values).ok().map(|r| r.tail_start)
    }

    fn name(&self) -> String {
        "aest".to_string()
    }
}

/// The paper's "β-constant load" rule: the smallest bandwidth such that
/// flows at or above it carry a fraction β of the interval's traffic.
#[derive(Debug, Clone, Copy)]
pub struct ConstantLoadDetector {
    /// Target fraction of traffic in the elephant class (paper: 0.8).
    pub beta: f64,
}

impl ConstantLoadDetector {
    /// Detector with target load fraction `beta ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics when `beta` is outside `(0, 1]`.
    pub fn new(beta: f64) -> Self {
        assert!(beta > 0.0 && beta <= 1.0, "beta {beta} out of (0, 1]");
        ConstantLoadDetector { beta }
    }
}

impl ThresholdDetector for ConstantLoadDetector {
    fn detect(&self, values: &[f64]) -> Option<f64> {
        self.detect_in(values, &mut RowOrder::new())
    }

    fn detect_in(&self, values: &[f64], order: &mut RowOrder) -> Option<f64> {
        if values.is_empty() {
            return None;
        }
        order.fill(values);
        if order.total <= 0.0 {
            return None;
        }
        let target = self.beta * order.total;
        // Cumulate down from the largest value, sorting further only
        // when the sorted top runs out.
        let mut cum = 0.0;
        let mut at = order.keys.len();
        loop {
            while at > order.sorted {
                at -= 1;
                let v = from_sort_key(order.keys[at]);
                cum += v;
                if cum >= target {
                    order.reach = order.reach.max(order.keys.len() - at);
                    return Some(v);
                }
            }
            if !order.extend() {
                // Rounding kept the descending sum below β·total: fall
                // back to the smallest bandwidth, as the full-sort scan
                // did.
                order.reach = order.keys.len();
                return Some(from_sort_key(order.keys[0]));
            }
        }
    }

    fn name(&self) -> String {
        format!("{:.2}-constant-load", self.beta)
    }
}

/// Forwarding impls so runtime-chosen detectors (`Box<dyn
/// ThresholdDetector>`) and borrowed detectors plug directly into the
/// generic classification entry points — no caller-side adapter structs.
/// Each forwards [`ThresholdDetector::detect_in`] too: one that did not
/// would give the same thresholds and quietly sort every row once per
/// detector again.
impl<T: ThresholdDetector + ?Sized> ThresholdDetector for Box<T> {
    fn detect(&self, values: &[f64]) -> Option<f64> {
        (**self).detect(values)
    }

    fn detect_in(&self, values: &[f64], order: &mut RowOrder) -> Option<f64> {
        (**self).detect_in(values, order)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

impl<T: ThresholdDetector + ?Sized> ThresholdDetector for &T {
    fn detect(&self, values: &[f64]) -> Option<f64> {
        (**self).detect(values)
    }

    fn detect_in(&self, values: &[f64], order: &mut RowOrder) -> Option<f64> {
        (**self).detect_in(values, order)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleph_trace::dist::{LogNormal, Pareto, Sample};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_load_exact_cases() {
        let d = ConstantLoadDetector::new(0.8);
        // One flow carries everything.
        assert_eq!(d.detect(&[100.0]), Some(100.0));
        // 100+60+40 = 200; 80% = 160 → 100+60 = 160 hits exactly at 60.
        assert_eq!(d.detect(&[40.0, 100.0, 60.0]), Some(60.0));
        // 50% of 200 = 100 → first flow suffices.
        assert_eq!(
            ConstantLoadDetector::new(0.5).detect(&[40.0, 100.0, 60.0]),
            Some(100.0)
        );
        // β = 1 needs every flow: threshold is the smallest.
        assert_eq!(
            ConstantLoadDetector::new(1.0).detect(&[40.0, 100.0, 60.0]),
            Some(40.0)
        );
    }

    #[test]
    fn constant_load_flows_above_carry_beta() {
        let mut rng = StdRng::seed_from_u64(8);
        let body = LogNormal::new(10.0, 1.0).unwrap();
        let tail = Pareto::new(5e5, 1.2).unwrap();
        let values: Vec<f64> = (0..5_000)
            .map(|i| {
                if i % 20 == 0 {
                    tail.sample(&mut rng)
                } else {
                    body.sample(&mut rng)
                }
            })
            .collect();
        let total: f64 = values.iter().sum();
        for beta in [0.5, 0.7, 0.8, 0.9] {
            let t = ConstantLoadDetector::new(beta).detect(&values).unwrap();
            let above: f64 = values.iter().filter(|&&v| v >= t).sum();
            assert!(
                above >= beta * total,
                "beta {beta}: above {above} < {}",
                beta * total
            );
            // And not wildly more than needed: dropping the marginal flow
            // class must fall below the target.
            let strictly_above: f64 = values.iter().filter(|&&v| v > t).sum();
            assert!(
                strictly_above < beta * total + 1e-9,
                "beta {beta}: threshold not minimal"
            );
        }
    }

    /// Summed largest first, these values fall short of their total
    /// summed as given (the two `1e-16` are lost against `1.0` one at a
    /// time, not together): the crossing falls back to the smallest.
    #[test]
    fn constant_load_falls_back_to_the_smallest_value_when_rounding_keeps_the_sum_short() {
        let values = [1e-16, 1e-16, 1.0];
        assert!(1.0 + 1e-16 + 1e-16 < values.iter().sum::<f64>());
        assert_eq!(ConstantLoadDetector::new(1.0).detect(&values), Some(1e-16));
    }

    /// A boxed detector forwards `detect_in`, so the order it is handed
    /// is the one it sorts, and the next detector of the row reads it
    /// and sorts it further.
    #[test]
    fn a_boxed_constant_load_detector_sorts_the_shared_order() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let boxed: Box<dyn ThresholdDetector> = Box::new(ConstantLoadDetector::new(0.1));
        let mut order = RowOrder::new();
        assert_eq!(boxed.detect_in(&values, &mut order), Some(949.0));
        let first = order.sorted;
        assert!(
            order.filled && first < 1000 && order.sorted_keys == 1000 - first,
            "sorted down to {first}"
        );
        let borrowed = &ConstantLoadDetector::new(0.9);
        assert_eq!(
            borrowed.detect_in(&values, &mut order),
            borrowed.detect(&values)
        );
        assert!(
            order.sorted < first && order.sorted_keys == 1000 - order.sorted,
            "the second detector extends the first one's order"
        );
    }

    /// The work of one order carried over a seeded stream of alike rows
    /// (4 000 values, one in twenty from a Pareto tail) read by four β:
    /// after the first row, each row sorts what its readers read of the
    /// row before plus a quarter, and doubles that only when it is read
    /// deeper. Rows 1 to 31 are read 9 734 deep in all and sort 19 031
    /// keys (a recorded measurement); a fixed first extension of 256
    /// and a second of 2 048 sort 52 992 of them.
    #[test]
    fn an_order_carried_over_alike_rows_sorts_about_as_deep_as_they_are_read() {
        let mut rng = StdRng::seed_from_u64(16);
        let body = LogNormal::new(10.0, 1.0).unwrap();
        let tail = Pareto::new(5e5, 1.2).unwrap();
        let detectors = [0.5, 0.6, 0.7, 0.8].map(ConstantLoadDetector::new);
        let mut order = RowOrder::new();
        let (mut read, mut sorted) = (0, 0);
        for row in 0..32 {
            let values: Vec<f64> = (0..4_000)
                .map(|i| {
                    if i % 20 == 0 {
                        tail.sample(&mut rng)
                    } else {
                        body.sample(&mut rng)
                    }
                })
                .collect();
            order.reset();
            let before = order.sorted_keys;
            for detector in &detectors {
                detector.detect_in(&values, &mut order);
            }
            if row > 0 {
                read += order.reach;
                sorted += order.sorted_keys - before;
            }
        }
        assert_eq!((read, sorted), (9_734, 19_031));
    }

    #[test]
    fn constant_load_rejects_degenerate() {
        let d = ConstantLoadDetector::new(0.8);
        assert_eq!(d.detect(&[]), None);
        assert_eq!(d.detect(&[0.0, 0.0]), None);
    }

    #[test]
    #[should_panic(expected = "out of (0, 1]")]
    fn constant_load_validates_beta() {
        let _ = ConstantLoadDetector::new(0.0);
    }

    #[test]
    fn aest_detector_on_mixture() {
        let mut rng = StdRng::seed_from_u64(4);
        let body = LogNormal::new(9.0, 0.8).unwrap(); // ~8 kb/s mice
        let tail = Pareto::new(1e6, 1.25).unwrap(); // ≥ 1 Mb/s heavies
        let values: Vec<f64> = (0..30_000)
            .map(|i| {
                if i % 40 == 0 {
                    tail.sample(&mut rng)
                } else {
                    body.sample(&mut rng)
                }
            })
            .collect();
        let t = AestDetector::new().detect(&values).expect("tail exists");
        // The threshold must separate the two populations: above the body
        // bulk, below or near the tail floor region.
        assert!(t > 50_000.0, "threshold {t} inside the body");
        assert!(t < 5e6, "threshold {t} too deep into the tail");
    }

    #[test]
    fn aest_detector_declines_on_light_tail() {
        let mut rng = StdRng::seed_from_u64(5);
        let body = LogNormal::new(9.0, 0.4).unwrap();
        let values: Vec<f64> = (0..30_000).map(|_| body.sample(&mut rng)).collect();
        assert_eq!(AestDetector::new().detect(&values), None);
    }

    #[test]
    fn names_are_descriptive() {
        assert_eq!(AestDetector::new().name(), "aest");
        assert_eq!(ConstantLoadDetector::new(0.8).name(), "0.80-constant-load");
    }
}
