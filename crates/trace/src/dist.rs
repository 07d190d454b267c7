//! Inverse-transform samplers for the distributions the workload model
//! needs.
//!
//! `rand`'s companion crate `rand_distr` is not part of this project's
//! dependency budget, so the handful of distributions we need are
//! implemented directly: each sampler documents its inverse-CDF (or
//! Box–Muller) derivation and is validated against analytic moments in the
//! tests. All samplers are generic over `rand::Rng`.

use rand::Rng;

/// Sample from a distribution using the supplied RNG.
pub trait Sample {
    /// Draw one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;
}

/// Pareto (power-law) distribution: `P[X > x] = (xm/x)^α` for `x ≥ xm`.
///
/// The flow-bandwidth distribution the paper observes on OC-12 links is
/// heavy-tailed; Pareto is its canonical model. Infinite variance for
/// α ≤ 2, infinite mean for α ≤ 1.
#[derive(Debug, Clone, Copy)]
pub struct Pareto {
    xm: f64,
    alpha: f64,
}

impl Pareto {
    /// Create with scale `xm > 0` and shape `alpha > 0`; `None` outside
    /// that domain.
    pub fn new(xm: f64, alpha: f64) -> Option<Self> {
        (xm > 0.0 && alpha > 0.0).then_some(Pareto { xm, alpha })
    }
}

impl Sample for Pareto {
    /// Inverse CDF: `x = xm · u^(−1/α)` for `u ~ U(0,1]`.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // gen::<f64>() yields [0,1); map to (0,1] to avoid u = 0.
        let u = 1.0 - rng.gen::<f64>();
        self.xm * u.powf(-1.0 / self.alpha)
    }
}

/// Log-normal distribution: `ln X ~ N(mu, sigma²)`.
///
/// The "body" of flow-bandwidth distributions (the mice) is well described
/// by a log-normal; the workload model mixes it with a Pareto tail.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Create with log-mean `mu` and log-std `sigma > 0`; `None` outside
    /// that domain.
    pub fn new(mu: f64, sigma: f64) -> Option<Self> {
        (sigma > 0.0).then_some(LogNormal { mu, sigma })
    }
}

/// Draw one standard normal via Box–Muller.
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1 = 1.0 - rng.gen::<f64>(); // (0,1]
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl Sample for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl Pareto {
        /// Analytic mean (for α > 1).
        fn mean(&self) -> Option<f64> {
            (self.alpha > 1.0).then(|| self.alpha * self.xm / (self.alpha - 1.0))
        }
    }

    impl LogNormal {
        /// Analytic mean `exp(mu + sigma²/2)`.
        fn mean(&self) -> f64 {
            (self.mu + self.sigma * self.sigma / 2.0).exp()
        }

        /// Analytic median `exp(mu)`.
        fn median(&self) -> f64 {
            self.mu.exp()
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5EED)
    }

    fn draw<D: Sample>(d: &D, n: usize) -> Vec<f64> {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).collect()
    }

    #[test]
    fn pareto_respects_scale_and_mean() {
        let d = Pareto::new(2.0, 3.0).unwrap();
        let xs = draw(&d, 200_000);
        assert!(xs.iter().all(|&x| x >= 2.0));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let want = d.mean().unwrap(); // 3·2/2 = 3
        assert!((mean - want).abs() / want < 0.02, "mean {mean} vs {want}");
    }

    #[test]
    fn pareto_tail_mass_matches_ccdf() {
        let d = Pareto::new(1.0, 1.5).unwrap();
        let xs = draw(&d, 200_000);
        // P[X > 10] = 10^-1.5 ≈ 0.0316
        let frac = xs.iter().filter(|&&x| x > 10.0).count() as f64 / xs.len() as f64;
        assert!((frac - 10f64.powf(-1.5)).abs() < 0.003, "tail mass {frac}");
    }

    #[test]
    fn lognormal_median_and_mean() {
        let d = LogNormal::new(1.0, 0.5).unwrap();
        let mut xs = draw(&d, 200_000);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!(
            (median - d.median()).abs() / d.median() < 0.02,
            "median {median}"
        );
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - d.mean()).abs() / d.mean() < 0.02, "mean {mean}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..200_000).map(|_| standard_normal(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn parameter_validation() {
        assert!(Pareto::new(0.0, 1.0).is_none());
        assert!(Pareto::new(1.0, 0.0).is_none());
        assert!(LogNormal::new(0.0, 0.0).is_none());
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let d = Pareto::new(1.0, 1.5).unwrap();
        let a = draw(&d, 10);
        let b = draw(&d, 10);
        assert_eq!(a, b);
    }
}
