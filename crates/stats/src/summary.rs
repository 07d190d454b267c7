//! Streaming summary statistics.

/// Single-pass accumulator for mean, variance, extrema and totals,
/// using Welford's algorithm for numerical stability.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Summary {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Accumulate all values of a slice.
    pub fn of(values: &[f64]) -> Self {
        let mut s = Self::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0 for an empty accumulator.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Population variance; 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Coefficient of variation (σ/μ); `None` when the mean is zero.
    pub fn cv(&self) -> Option<f64> {
        if self.mean().abs() < f64::EPSILON {
            None
        } else {
            Some(self.std_dev() / self.mean())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.cv(), None);
    }

    #[test]
    fn known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!(close(s.mean(), 5.0));
        assert!(close(s.variance(), 4.0)); // classic example: σ = 2
        assert!(close(s.std_dev(), 2.0));
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!(close(s.sum(), 40.0));
        assert!(close(s.cv().unwrap(), 0.4));
    }

    #[test]
    fn single_value() {
        let s = Summary::of(&[3.5]);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
    }

    #[test]
    fn stable_for_large_offsets() {
        // Welford must not lose precision with a large common offset.
        let s = Summary::of(&[1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0]);
        assert!(close(s.mean(), 1e9 + 10.0));
        assert!(close(s.variance(), 22.5));
    }
}
