//! Per-interval threshold detection.

use eleph_stats::{aest, from_sort_key, sort_key, AestConfig};

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
    /// (unsorted, all > 0).
    fn detect(&self, values: &[f64]) -> Option<f64>;

    /// Short name for reports ("aest", "0.8-constant-load", ...).
    fn name(&self) -> String;
}

/// The paper's "aest" rule: the threshold is the point where the
/// power-law tail of the flow-bandwidth distribution begins, located by
/// the Crovella–Taqqu scaling estimator.
#[derive(Debug, Clone, Default)]
pub struct AestDetector {
    /// Estimator tuning; defaults match [`AestConfig::default`].
    pub config: AestConfig,
}

impl AestDetector {
    /// Detector with default estimator settings.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ThresholdDetector for AestDetector {
    fn detect(&self, values: &[f64]) -> Option<f64> {
        aest(values, &self.config).ok().map(|r| r.tail_start)
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
        if values.is_empty() {
            return None;
        }
        let total: f64 = values.iter().sum();
        if total <= 0.0 {
            return None;
        }
        debug_assert!(values.iter().all(|v| v.is_finite()), "bandwidths are finite");
        let mut keys: Vec<u64> = values.iter().map(|&v| sort_key(v)).collect();
        let target = self.beta * total;

        // The crossing point of the descending cumulative sum usually
        // sits in the top few percent of a heavy-tailed snapshot, so a
        // full sort is wasted work: select the top-k multiset (unique
        // even with boundary ties), sort only it, and scan; grow k and
        // repeat on the remainder if the target was not reached. The
        // descending value sequence — and therefore every partial sum
        // and the returned threshold — is identical to a full sort.
        let mut cum = 0.0;
        let mut rest: &mut [u64] = &mut keys;
        let mut k = 256usize;
        loop {
            let chunk = std::mem::take(&mut rest);
            let top: &mut [u64] = if k < chunk.len() {
                let split = chunk.len() - k;
                chunk.select_nth_unstable(split);
                let (low, top) = chunk.split_at_mut(split);
                rest = low;
                top
            } else {
                chunk
            };
            top.sort_unstable();
            for &key in top.iter().rev() {
                let v = from_sort_key(key);
                cum += v;
                if cum >= target {
                    return Some(v);
                }
            }
            if rest.is_empty() {
                // Rounding kept the descending sum below β·total: fall
                // back to the smallest bandwidth, as the full-sort scan
                // did.
                return Some(from_sort_key(top[0]));
            }
            k *= 8;
        }
    }

    fn name(&self) -> String {
        format!("{:.2}-constant-load", self.beta)
    }
}

/// Baseline: the threshold is the bandwidth of the N-th largest flow, so
/// exactly N−1 flows strictly exceed it.
#[derive(Debug, Clone, Copy)]
pub struct TopNDetector {
    /// Rank defining the threshold.
    pub n: usize,
}

impl ThresholdDetector for TopNDetector {
    fn detect(&self, values: &[f64]) -> Option<f64> {
        if self.n == 0 || values.is_empty() {
            return None;
        }
        debug_assert!(values.iter().all(|v| v.is_finite()), "bandwidths are finite");
        // The N-th largest is a selection, not a sort: O(len) expected.
        let mut keys: Vec<u64> = values.iter().map(|&v| sort_key(v)).collect();
        let idx = keys.len() - self.n.min(keys.len());
        let (_, k, _) = keys.select_nth_unstable(idx);
        Some(from_sort_key(*k))
    }

    fn name(&self) -> String {
        format!("top-{}", self.n)
    }
}

/// Baseline: a fixed upper quantile of the snapshot (e.g. the 95th
/// percentile of flow bandwidths).
#[derive(Debug, Clone, Copy)]
pub struct PercentileDetector {
    /// Quantile in (0, 1), e.g. 0.95.
    pub q: f64,
}

impl ThresholdDetector for PercentileDetector {
    fn detect(&self, values: &[f64]) -> Option<f64> {
        if values.is_empty() || !(0.0..1.0).contains(&self.q) {
            return None;
        }
        debug_assert!(values.iter().all(|v| v.is_finite()), "bandwidths are finite");
        let mut keys: Vec<u64> = values.iter().map(|&v| sort_key(v)).collect();
        let rank = ((self.q * keys.len() as f64).ceil() as usize).clamp(1, keys.len());
        let (_, k, _) = keys.select_nth_unstable(rank - 1);
        Some(from_sort_key(*k))
    }

    fn name(&self) -> String {
        format!("p{:.0}", self.q * 100.0)
    }
}

/// Forwarding impls so runtime-chosen detectors (`Box<dyn
/// ThresholdDetector>`) and borrowed detectors plug directly into the
/// generic classification entry points — no caller-side adapter structs.
impl<T: ThresholdDetector + ?Sized> ThresholdDetector for Box<T> {
    fn detect(&self, values: &[f64]) -> Option<f64> {
        (**self).detect(values)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

impl<T: ThresholdDetector + ?Sized> ThresholdDetector for &T {
    fn detect(&self, values: &[f64]) -> Option<f64> {
        (**self).detect(values)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleph_stats::dist::{LogNormal, Pareto, Sample};
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
        assert_eq!(ConstantLoadDetector::new(0.5).detect(&[40.0, 100.0, 60.0]), Some(100.0));
        // β = 1 needs every flow: threshold is the smallest.
        assert_eq!(ConstantLoadDetector::new(1.0).detect(&[40.0, 100.0, 60.0]), Some(40.0));
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
    fn top_n_detector() {
        let d = TopNDetector { n: 3 };
        assert_eq!(d.detect(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some(3.0));
        // Fewer values than N: threshold is the minimum.
        assert_eq!(d.detect(&[5.0, 1.0]), Some(1.0));
        assert_eq!(TopNDetector { n: 0 }.detect(&[1.0]), None);
        assert_eq!(d.detect(&[]), None);
    }

    #[test]
    fn percentile_detector() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let d = PercentileDetector { q: 0.95 };
        assert_eq!(d.detect(&values), Some(95.0));
        assert_eq!(PercentileDetector { q: 0.5 }.detect(&values), Some(50.0));
        assert_eq!(PercentileDetector { q: 1.5 }.detect(&values), None);
        assert_eq!(d.detect(&[]), None);
    }

    #[test]
    fn names_are_descriptive() {
        assert_eq!(AestDetector::new().name(), "aest");
        assert_eq!(ConstantLoadDetector::new(0.8).name(), "0.80-constant-load");
        assert_eq!(TopNDetector { n: 500 }.name(), "top-500");
        assert_eq!(PercentileDetector { q: 0.95 }.name(), "p95");
    }
}
