//! Empirical cumulative distribution functions.

use crate::error::StatsError;
use crate::order::{from_sort_key, sort_key};

/// An empirical distribution over a sorted sample.
///
/// Provides the quantiles that the aest estimator works from.
#[derive(Debug, Clone)]
pub(crate) struct Ecdf {
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
    pub(crate) fn new(samples: Vec<f64>) -> Result<Self, StatsError> {
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
    pub(crate) fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The q-quantile (0 ≤ q ≤ 1), by the nearest-rank method: the
    /// smallest sample value v with CDF(v) ≥ q.
    pub(crate) fn quantile(&self, q: f64) -> Result<f64, StatsError> {
        if !(0.0..=1.0).contains(&q) {
            return Err(StatsError::BadParameter {
                name: "q",
                value: q,
            });
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
    pub(crate) fn upper_quantile(&self, p: f64) -> Result<f64, StatsError> {
        self.quantile(1.0 - p)
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
            prop_assert_eq!(&got.sorted, &want.sorted);
            // Only the relative order of -0.0 and +0.0 may differ.
            let by_bits = !samples.iter().any(|x| x.to_bits() == (-0.0f64).to_bits());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            if by_bits {
                prop_assert_eq!(bits(&got.sorted), bits(&want.sorted));
            }
            for q in probes.into_iter().chain([0.0, 1.0]) {
                let (a, b) = (got.quantile(q).expect("q in range"), want.quantile(q).expect("q in range"));
                prop_assert_eq!(a, b);
                if by_bits {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }

        #[test]
        fn quantile_inverts_cdf(samples in prop::collection::vec(-1e6..1e6f64, 1..300), q in 0.001..1.0f64) {
            let e = Ecdf::new(samples).expect("non-empty");
            let v = e.quantile(q).expect("q in range");
            // The mass at or below the q-quantile covers at least q...
            let cdf = e.sorted.iter().filter(|&&x| x <= v).count() as f64 / e.len() as f64;
            prop_assert!(cdf >= q - 1e-12);
            // ...and the quantile is an actual sample value.
            prop_assert!(e.sorted.contains(&v));
        }

        #[test]
        fn upper_quantile_bounds_tail(samples in prop::collection::vec(-1e6..1e6f64, 1..300), p in 0.001..0.999f64) {
            let e = Ecdf::new(samples).expect("non-empty");
            let t = e.upper_quantile(p).expect("p in range");
            let ccdf = e.sorted.iter().filter(|&&x| x > t).count() as f64 / e.len() as f64;
            prop_assert!(ccdf <= p + 1e-12);
        }
    }

    #[test]
    fn negative_zero_sorts_before_positive_zero() {
        let e = ecdf(&[0.0, 1.0, -0.0, -1.0]);
        let bits: Vec<u64> = e.sorted.iter().map(|x| x.to_bits()).collect();
        let want: Vec<u64> = [-1.0, -0.0, 0.0, 1.0f64]
            .iter()
            .map(|x| x.to_bits())
            .collect();
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
        assert_eq!(e.sorted.iter().filter(|&&v| v > t).count(), 10);
    }

    #[test]
    fn duplicates_handled() {
        let e = ecdf(&[5.0, 5.0, 5.0, 10.0]);
        assert_eq!(e.quantile(0.5).unwrap(), 5.0);
        assert_eq!(e.quantile(0.75).unwrap(), 5.0);
        assert_eq!(e.quantile(0.76).unwrap(), 10.0);
        assert_eq!(e.upper_quantile(0.25).unwrap(), 5.0);
    }

    #[test]
    fn min_max() {
        let e = ecdf(&[3.0, 1.0, 2.0]);
        assert_eq!(e.quantile(0.0).unwrap(), 1.0);
        assert_eq!(e.quantile(1.0).unwrap(), 3.0);
        assert_eq!(e.len(), 3);
    }
}
