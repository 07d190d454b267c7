//! Empirical cumulative distribution functions.

use crate::{from_sort_key, sort_key, StatsError};

/// An empirical distribution over a sorted sample.
///
/// Provides the CDF/CCDF, quantiles, and the log–log complementary
/// distribution points that the aest estimator and the paper's
/// flow-bandwidth analysis work from.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples (NaNs rejected, order irrelevant).
    ///
    /// The samples are sorted ascending as the integers [`sort_key`]
    /// maps them to — IEEE 754 total order — in the buffer they came in.
    /// That is the order a comparator sort gives, with one exception: a
    /// comparator sees `-0.0` and `+0.0` as equal and leaves them in
    /// input order, total order puts every `-0.0` first. The sorted
    /// values compare equal either way, and without a `-0.0` among the
    /// samples they are the same bits.
    pub fn new(samples: Vec<f64>) -> Result<Self, StatsError> {
        if samples.is_empty() {
            return Err(StatsError::NotEnoughSamples { needed: 1, got: 0 });
        }
        if samples.iter().any(|x| x.is_nan()) {
            return Err(StatsError::BadParameter {
                name: "samples",
                value: f64::NAN,
            });
        }
        // Both maps reuse the allocation: `u64` and `f64` share a layout.
        let mut keys: Vec<u64> = samples.into_iter().map(sort_key).collect();
        keys.sort_unstable();
        Ok(Ecdf {
            sorted: keys.into_iter().map(from_sort_key).collect(),
        })
    }

    /// The comparator sort [`Ecdf::new`] replaced: the oracle its
    /// integer sort is held to.
    #[cfg(test)]
    pub(crate) fn by_comparator(mut samples: Vec<f64>) -> Result<Self, StatsError> {
        if samples.is_empty() {
            return Err(StatsError::NotEnoughSamples { needed: 1, got: 0 });
        }
        if samples.iter().any(|x| x.is_nan()) {
            return Err(StatsError::BadParameter {
                name: "samples",
                value: f64::NAN,
            });
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs after check"));
        Ok(Ecdf { sorted: samples })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample set is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted sample values.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// `P[X <= x]`.
    pub fn cdf(&self, x: f64) -> f64 {
        let n = self.sorted.len();
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / n as f64
    }

    /// `P[X > x]`.
    pub fn ccdf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// The q-quantile (0 ≤ q ≤ 1), by the nearest-rank method: the
    /// smallest sample value v with CDF(v) ≥ q.
    pub fn quantile(&self, q: f64) -> Result<f64, StatsError> {
        if !(0.0..=1.0).contains(&q) {
            return Err(StatsError::BadParameter { name: "q", value: q });
        }
        let n = self.sorted.len();
        if q <= 0.0 {
            return Ok(self.sorted[0]);
        }
        let rank = (q * n as f64).ceil() as usize;
        Ok(self.sorted[rank.min(n) - 1])
    }

    /// The upper-tail quantile: the smallest value v such that
    /// `P[X > v] <= p`. This is the threshold primitive: all samples above
    /// `upper_quantile(p)` form (at most) the top p-fraction.
    pub fn upper_quantile(&self, p: f64) -> Result<f64, StatsError> {
        self.quantile(1.0 - p)
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Log–log complementary distribution points `(log10 x, log10 P[X>x])`
    /// over the distinct positive sample values, excluding the maximum
    /// (whose CCDF is 0). This is the plot the aest estimator inspects.
    pub fn log_log_ccdf(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut points = Vec::new();
        let mut i = 0;
        while i < self.sorted.len() {
            let x = self.sorted[i];
            // advance to the last duplicate
            let mut j = i;
            while j + 1 < self.sorted.len() && self.sorted[j + 1] == x {
                j += 1;
            }
            let above = self.sorted.len() - j - 1;
            if x > 0.0 && above > 0 {
                points.push(((x).log10(), (above as f64 / n).log10()));
            }
            i = j + 1;
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ecdf(v: &[f64]) -> Ecdf {
        Ecdf::new(v.to_vec()).unwrap()
    }

    /// Ordinary values mixed with both zeros, both infinities, the
    /// extremes, subnormals and many duplicates.
    fn sample() -> impl Strategy<Value = f64> {
        prop_oneof![
            4 => -1e6..1e6f64,
            1 => Just(0.0),
            1 => Just(-0.0),
            1 => prop_oneof![
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(f64::MAX),
                Just(f64::MIN),
            ],
            1 => (1u64..1 << 52).prop_map(f64::from_bits),
            2 => (0u8..8).prop_map(f64::from),
        ]
    }

    proptest! {
        #[test]
        fn integer_sort_equals_the_comparator_sort(
            samples in prop::collection::vec(sample(), 1..300),
            probes in prop::collection::vec(0.0..1.0f64, 0..20),
        ) {
            let got = Ecdf::new(samples.clone()).expect("no NaN");
            let want = Ecdf::by_comparator(samples.clone()).expect("no NaN");
            prop_assert_eq!(got.values(), want.values());
            // Only the relative order of -0.0 and +0.0 may differ.
            let by_bits = !samples.iter().any(|x| x.to_bits() == (-0.0f64).to_bits());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            if by_bits {
                prop_assert_eq!(bits(got.values()), bits(want.values()));
            }
            for q in probes.into_iter().chain([0.0, 1.0]) {
                let (a, b) = (got.quantile(q).expect("q in range"), want.quantile(q).expect("q in range"));
                prop_assert_eq!(a, b);
                if by_bits {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn negative_zero_sorts_before_positive_zero() {
        let e = ecdf(&[0.0, 1.0, -0.0, -1.0]);
        let bits: Vec<u64> = e.values().iter().map(|x| x.to_bits()).collect();
        let want: Vec<u64> = [-1.0, -0.0, 0.0, 1.0f64].iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn rejects_empty_and_nan() {
        assert!(matches!(
            Ecdf::new(vec![]),
            Err(StatsError::NotEnoughSamples { .. })
        ));
        assert!(Ecdf::new(vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn cdf_step_function() {
        let e = ecdf(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.5), 0.5);
        assert_eq!(e.cdf(4.0), 1.0);
        assert_eq!(e.cdf(100.0), 1.0);
    }

    #[test]
    fn ccdf_complements_cdf() {
        let e = ecdf(&[1.0, 2.0, 3.0, 4.0]);
        for x in [0.0, 1.0, 2.5, 4.0, 9.0] {
            assert!((e.cdf(x) + e.ccdf(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn quantiles_nearest_rank() {
        let e = ecdf(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(e.quantile(0.0).unwrap(), 10.0);
        assert_eq!(e.quantile(0.2).unwrap(), 10.0);
        assert_eq!(e.quantile(0.21).unwrap(), 20.0);
        assert_eq!(e.quantile(0.5).unwrap(), 30.0);
        assert_eq!(e.quantile(1.0).unwrap(), 50.0);
        assert!(e.quantile(1.5).is_err());
        assert!(e.quantile(-0.1).is_err());
    }

    #[test]
    fn upper_quantile_bounds_tail_mass() {
        let e = ecdf(&(1..=100).map(f64::from).collect::<Vec<_>>());
        let t = e.upper_quantile(0.1).unwrap();
        assert_eq!(t, 90.0);
        assert!(e.ccdf(t) <= 0.1 + 1e-12);
    }

    #[test]
    fn duplicates_handled() {
        let e = ecdf(&[5.0, 5.0, 5.0, 10.0]);
        assert_eq!(e.cdf(5.0), 0.75);
        assert_eq!(e.ccdf(5.0), 0.25);
        assert_eq!(e.quantile(0.5).unwrap(), 5.0);
    }

    #[test]
    fn log_log_ccdf_points() {
        let e = ecdf(&[1.0, 10.0, 100.0, 1000.0]);
        let pts = e.log_log_ccdf();
        // 1000 excluded (ccdf = 0); 1, 10, 100 present.
        assert_eq!(pts.len(), 3);
        assert!((pts[0].0 - 0.0).abs() < 1e-12);
        assert!((pts[0].1 - (0.75f64).log10()).abs() < 1e-12);
        assert!((pts[2].0 - 2.0).abs() < 1e-12);
        assert!((pts[2].1 - (0.25f64).log10()).abs() < 1e-12);
    }

    #[test]
    fn log_log_ccdf_skips_nonpositive_x() {
        let e = ecdf(&[-1.0, 0.0, 1.0, 2.0]);
        let pts = e.log_log_ccdf();
        assert_eq!(pts.len(), 1); // only x = 1 (x = 2 is the max)
        assert!((pts[0].0 - 0.0).abs() < 1e-12);
    }

    #[test]
    fn min_max() {
        let e = ecdf(&[3.0, 1.0, 2.0]);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 3.0);
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn pareto_ccdf_is_linear_in_log_log() {
        // Deterministic Pareto-like grid: x_i = (1 - u_i)^(-1/α), α = 1.5.
        let alpha = 1.5;
        let n = 10_000;
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                (1.0 - u).powf(-1.0 / alpha)
            })
            .collect();
        let e = Ecdf::new(samples).unwrap();
        let pts = e.log_log_ccdf();
        // Fit a line through the middle of the tail; slope should be ≈ -α.
        let tail: Vec<(f64, f64)> = pts
            .iter()
            .copied()
            .filter(|(lx, _)| *lx > 0.3 && *lx < 1.5)
            .collect();
        let fit = crate::LinearFit::fit(&tail).unwrap();
        assert!(
            (fit.slope + alpha).abs() < 0.05,
            "slope {} vs -{}",
            fit.slope,
            alpha
        );
    }
}
