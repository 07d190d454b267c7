//! Property tests for the statistics substrate.

use eleph_stats::{Ecdf, Ewma, Summary};
use proptest::prelude::*;

fn finite_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6..1e6f64, 1..300)
}

proptest! {
    #[test]
    fn cdf_is_monotone_and_bounded(samples in finite_samples(), probes in prop::collection::vec(-1e6..1e6f64, 2..40)) {
        let e = Ecdf::new(samples).expect("non-empty");
        let mut sorted = probes.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut last = 0.0;
        for x in sorted {
            let c = e.cdf(x);
            prop_assert!((0.0..=1.0).contains(&c));
            prop_assert!(c >= last - 1e-12);
            prop_assert!((c + e.ccdf(x) - 1.0).abs() < 1e-12);
            last = c;
        }
    }

    #[test]
    fn quantile_inverts_cdf(samples in finite_samples(), q in 0.001..1.0f64) {
        let e = Ecdf::new(samples).expect("non-empty");
        let v = e.quantile(q).expect("q in range");
        // CDF at the q-quantile covers at least q of the mass...
        prop_assert!(e.cdf(v) >= q - 1e-12);
        // ...and the quantile is an actual sample value.
        prop_assert!(e.values().contains(&v));
    }

    #[test]
    fn upper_quantile_bounds_tail(samples in finite_samples(), p in 0.001..0.999f64) {
        let e = Ecdf::new(samples).expect("non-empty");
        let t = e.upper_quantile(p).expect("p in range");
        prop_assert!(e.ccdf(t) <= p + 1e-12);
    }

    #[test]
    fn summary_mean_within_extrema(samples in finite_samples()) {
        let s = Summary::of(&samples);
        let (min, max) = (s.min().expect("non-empty"), s.max().expect("non-empty"));
        prop_assert!(s.mean() >= min - 1e-9);
        prop_assert!(s.mean() <= max + 1e-9);
        prop_assert!(s.variance() >= 0.0);
    }

    #[test]
    fn ewma_stays_within_input_range(gamma in 0.0..0.999f64, inputs in prop::collection::vec(-1e3..1e3f64, 1..100)) {
        let mut e = Ewma::new(gamma).expect("valid gamma");
        let lo = inputs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = inputs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &x in &inputs {
            let v = e.update(x);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "EWMA {v} outside [{lo}, {hi}]");
        }
    }
}
