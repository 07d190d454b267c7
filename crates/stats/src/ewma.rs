//! Exponentially weighted moving average — the paper's threshold update.

use crate::StatsError;

/// The smoothing rule of the paper's §II:
/// `T̄(n+1) = γ·T̄(n) + (1−γ)·T(n)`, with γ = 0.9 reported as
/// "sufficiently smooth".
///
/// The first observation initialises the average (no bias toward zero).
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    gamma: f64,
    current: Option<f64>,
}

impl Ewma {
    /// Create a smoother with memory γ ∈ [0, 1). γ = 0 reproduces the raw
    /// input (no smoothing); γ → 1 freezes the initial value.
    pub fn new(gamma: f64) -> Result<Self, StatsError> {
        if !(0.0..1.0).contains(&gamma) {
            return Err(StatsError::BadParameter {
                name: "gamma",
                value: gamma,
            });
        }
        Ok(Ewma {
            gamma,
            current: None,
        })
    }

    /// The memory parameter γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Feed one observation, returning the updated smoothed value.
    pub fn update(&mut self, x: f64) -> f64 {
        let next = match self.current {
            None => x,
            Some(prev) => self.gamma * prev + (1.0 - self.gamma) * x,
        };
        self.current = Some(next);
        next
    }

    /// Current smoothed value; `None` before any observation.
    pub fn value(&self) -> Option<f64> {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_initialises() {
        let mut e = Ewma::new(0.9).unwrap();
        assert_eq!(e.value(), None);
        assert_eq!(e.update(10.0), 10.0);
        assert_eq!(e.value(), Some(10.0));
    }

    #[test]
    fn paper_update_rule() {
        let mut e = Ewma::new(0.9).unwrap();
        e.update(100.0);
        // T̄ = 0.9·100 + 0.1·200 = 110
        assert!((e.update(200.0) - 110.0).abs() < 1e-12);
        // T̄ = 0.9·110 + 0.1·0 = 99
        assert!((e.update(0.0) - 99.0).abs() < 1e-12);
    }

    #[test]
    fn gamma_zero_is_identity() {
        let mut e = Ewma::new(0.0).unwrap();
        for x in [5.0, -3.0, 42.0] {
            assert_eq!(e.update(x), x);
        }
    }

    #[test]
    fn invalid_gamma_rejected() {
        assert!(Ewma::new(1.0).is_err());
        assert!(Ewma::new(-0.1).is_err());
        assert!(Ewma::new(1.5).is_err());
        assert!(Ewma::new(0.999).is_ok());
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(0.9).unwrap();
        e.update(0.0);
        let mut last = 0.0;
        for _ in 0..500 {
            last = e.update(7.0);
        }
        assert!((last - 7.0).abs() < 1e-9);
    }

    #[test]
    fn smoothing_reduces_variance() {
        // Alternating ±1 input: smoothed sequence must have much smaller
        // swing than the raw input.
        let mut e = Ewma::new(0.9).unwrap();
        e.update(0.0);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for i in 0..200 {
            let x = if i % 2 == 0 { 1.0 } else { -1.0 };
            let v = e.update(x);
            if i > 50 {
                min = min.min(v);
                max = max.max(v);
            }
        }
        assert!(max - min < 0.25, "swing {} too large", max - min);
    }
}
