//! Error type for the aest estimator and its [`Ecdf`](crate::ecdf::Ecdf).

use core::fmt;

/// Errors from the estimator and its empirical distributions.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum StatsError {
    /// Operation requires at least `needed` samples, got `got`.
    NotEnoughSamples {
        /// Samples required.
        needed: usize,
        /// Samples provided.
        got: usize,
    },
    /// A parameter was outside its valid domain.
    BadParameter {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The estimator found no power-law tail in the data.
    NoTailFound,
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::NotEnoughSamples { needed, got } => {
                write!(f, "need at least {needed} samples, got {got}")
            }
            StatsError::BadParameter { name, value } => {
                write!(f, "parameter {name} = {value} out of domain")
            }
            StatsError::NoTailFound => write!(f, "no power-law tail detected"),
        }
    }
}

impl std::error::Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(StatsError::NotEnoughSamples { needed: 10, got: 3 }
            .to_string()
            .contains("10"));
        assert!(StatsError::BadParameter {
            name: "alpha",
            value: 0.0
        }
        .to_string()
        .contains("alpha"));
        assert_eq!(
            StatsError::NoTailFound.to_string(),
            "no power-law tail detected"
        );
    }
}
