//! The Crovella–Taqqu "aest" scaling estimator.
//!
//! Reimplemented from the method description in *Estimating the Heavy Tail
//! Index from Scaling Properties* (Crovella & Taqqu, 1999), which is the
//! estimator the paper's "aest" threshold detector relies on.
//!
//! # How it works
//!
//! If `X` is heavy-tailed with index α < 2 — `P[X > x] ~ C·x^(−α)` — then
//! the m-fold aggregate `X^(m)` (sums of non-overlapping blocks of size m)
//! obeys the *single-big-jump* tail relation `P[X^(m) > x] ≈ m·P[X > x]`.
//! On a log–log complementary-distribution plot, the curves of successive
//! aggregation levels are therefore **parallel lines of slope −α**, with a
//! horizontal displacement of `log10(m₂/m₁)/α` between levels. For
//! light-tailed data no such displacement pattern exists: aggregates
//! normalise toward a Gaussian whose log–log CCDF plunges ever more
//! steeply, and the displacement implies an α inconsistent with the local
//! slope.
//!
//! The estimator therefore probes the distributions of successive
//! aggregation levels at log-spaced upper-tail probabilities. At each
//! probe it measures
//!
//! 1. the **horizontal shift** `δ` between the two curves, giving
//!    `α_shift = log10(m₂/m₁)/δ`, and
//! 2. the **local slope** `s` of the finer curve, giving `α_slope = −s`.
//!
//! A probe is *accepted* when the two agree within a tolerance and fall in
//! the heavy-tail range. The **tail onset** (the paper's threshold) is the
//! shallowest probability `p*` such that the acceptance rate over all
//! deeper probes stays high; α̂ is the median of accepted shift estimates
//! in that region.

use crate::ecdf::Ecdf;
use crate::error::StatsError;

/// Maximum number of aggregation levels: m = 2^0 .. 2^(MAX_LEVELS − 1).
const MAX_LEVELS: usize = 6;
/// Minimum number of samples required at the coarsest level.
const MIN_POINTS_TOP: usize = 200;
/// Number of log-spaced probability probes per level pair.
const PROBES: usize = 40;
/// Reject probes implying α below this (slowly varying, not a tail).
const MIN_ALPHA: f64 = 0.4;
/// Reject probes implying α above this (finite variance ⇒ not heavy).
const MAX_ALPHA: f64 = 2.5;
/// Relative tolerance between the shift and slope α estimates.
const CONSISTENCY_TOL: f64 = 0.40;
/// Required acceptance rate over the tail region.
const ACCEPT_FRACTION: f64 = 0.70;
/// Minimum number of accepted probes for a positive result.
const MIN_ACCEPTED: usize = 4;

/// A detected heavy tail. The detector reads only `tail_start`;
/// `alpha` and `tail_fraction` are what the tests hold the estimator to.
#[derive(Debug, Clone)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) struct AestResult {
    /// Estimated tail index α̂.
    pub alpha: f64,
    /// The value (in original sample units) where power-law behaviour
    /// begins — the paper's "first point after which such behaviour can
    /// be witnessed", used directly as the elephant threshold.
    pub tail_start: f64,
    /// Fraction of probability mass in the detected tail (the p* of the
    /// acceptance scan).
    pub tail_fraction: f64,
}

/// Run the aest estimator over positive samples.
///
/// Returns [`StatsError::NoTailFound`] when the data shows no consistent
/// power-law scaling region (e.g. exponential or tight log-normal data) —
/// callers fall back to a different threshold rule in that case, exactly
/// as a traffic-engineering system must when a link's flow mix is not
/// heavy-tailed. Samples that are not positive are ignored; a sample that
/// is not finite (an infinity or NaN) is [`StatsError::BadParameter`]
/// named `"samples"`, since it has no place on a log–log plot and would
/// turn the centred data into NaNs.
pub(crate) fn aest(samples: &[f64]) -> Result<AestResult, StatsError> {
    aest_with(samples, Ecdf::new)
}

/// [`aest`] with the constructor that sorts each aggregation level.
fn aest_with(
    samples: &[f64],
    ecdf: fn(Vec<f64>) -> Result<Ecdf, StatsError>,
) -> Result<AestResult, StatsError> {
    if let Some(&value) = samples.iter().find(|x| !x.is_finite()) {
        return Err(StatsError::BadParameter {
            name: "samples",
            value,
        });
    }
    let positive: Vec<f64> = samples.iter().copied().filter(|&x| x > 0.0).collect();
    let needed = MIN_POINTS_TOP * 2;
    if positive.len() < needed {
        return Err(StatsError::NotEnoughSamples {
            needed,
            got: positive.len(),
        });
    }

    // --- Centering ------------------------------------------------------
    // For α > 1 the aggregates acquire a drift of m·μ that hides the
    // m^(1/α) scaling of the tail; following Crovella–Taqqu we subtract
    // the sample mean before aggregating, so that the aggregates converge
    // to a centred stable law whose quantiles scale cleanly. The detected
    // onset is mapped back to original units at the end.
    let mean = positive.iter().sum::<f64>() / positive.len() as f64;
    let centred: Vec<f64> = positive.iter().map(|&x| x - mean).collect();

    // --- Aggregation pyramid -------------------------------------------
    let mut levels: Vec<Vec<f64>> = vec![centred];
    while levels.len() < MAX_LEVELS && levels.last().expect("non-empty").len() / 2 >= MIN_POINTS_TOP
    {
        let prev = levels.last().expect("non-empty");
        let next: Vec<f64> = prev.chunks_exact(2).map(|c| c[0] + c[1]).collect();
        levels.push(next);
    }
    if levels.len() < 2 {
        return Err(StatsError::NotEnoughSamples {
            needed,
            got: levels[0].len(),
        });
    }

    // Every level is built before any is sorted; each moves into its
    // `Ecdf`, which sorts it in place.
    let ecdfs: Vec<Ecdf> = levels.into_iter().map(ecdf).collect::<Result<_, _>>()?;

    // --- Probe grid ------------------------------------------------------
    // Deepest usable probability is bounded by the coarsest level's size;
    // shallower than 0.5 is the distribution body.
    let n_top = ecdfs.last().expect("non-empty").len() as f64;
    let p_min = (8.0 / n_top).max(1e-4);
    let p_max: f64 = 0.5;
    if p_min >= p_max {
        return Err(StatsError::NotEnoughSamples {
            needed,
            got: ecdfs[0].len(),
        });
    }
    let probes: Vec<f64> = (0..PROBES)
        .map(|i| {
            let t = i as f64 / (PROBES - 1).max(1) as f64;
            // log-spaced from p_min (deep tail) to p_max (body)
            (p_min.ln() + t * (p_max.ln() - p_min.ln())).exp()
        })
        .collect();

    let log2 = 2f64.log10();
    // probe index -> (accepted?, median alpha among accepting pairs)
    let mut probe_votes: Vec<(bool, f64)> = Vec::with_capacity(probes.len());

    for &p in &probes {
        let mut pair_alphas = Vec::new();
        let mut voters = 0usize;
        // The (0,1) pair inspects the raw data directly; its verdict gates
        // the region scan because the tail onset must hold in *original*
        // units, and coarse aggregates stay tail-dominated deeper into the
        // body than the raw data does.
        let mut level0_accepted = false;
        for j in 0..ecdfs.len() - 1 {
            let fine = &ecdfs[j];
            let coarse = &ecdfs[j + 1];
            // A pair abstains when the probe is too deep for its coarser
            // level to resolve.
            if p * coarse.len() as f64 / 2.0 < 4.0 {
                continue;
            }
            voters += 1;

            let x_fine = fine.upper_quantile(p).expect("p in (0,1)");
            let x_coarse = coarse.upper_quantile(p).expect("p in (0,1)");
            if x_fine <= 0.0 || x_coarse <= x_fine {
                continue;
            }
            let dx = x_coarse.log10() - x_fine.log10();
            let alpha_shift = log2 / dx;

            // Local slope of the finer curve from quantiles at p·k and p/k.
            let k = 1.6;
            let p_lo = (p / k).max(2.0 / fine.len() as f64);
            let p_hi = (p * k).min(0.8);
            let x_lo = fine.upper_quantile(p_hi).expect("in range"); // shallower ⇒ smaller x
            let x_hi = fine.upper_quantile(p_lo).expect("in range"); // deeper ⇒ larger x
            let alpha_slope = if x_hi > x_lo && x_lo > 0.0 {
                // slope = Δ log10 p / Δ log10 x; CCDF falls, so negate.
                (p_hi.log10() - p_lo.log10()) / (x_hi.log10() - x_lo.log10())
            } else {
                f64::INFINITY
            };

            let alpha_ok = (MIN_ALPHA..=MAX_ALPHA).contains(&alpha_shift);
            let slope_ok = alpha_slope.is_finite()
                && (MIN_ALPHA * 0.6..=MAX_ALPHA * 1.4).contains(&alpha_slope);
            let consistent =
                (alpha_slope - alpha_shift).abs() <= CONSISTENCY_TOL * alpha_shift.max(alpha_slope);
            let accepted = alpha_ok && slope_ok && consistent;

            if accepted {
                pair_alphas.push(alpha_shift);
                if j == 0 {
                    level0_accepted = true;
                }
            }
        }
        let majority = voters > 0 && pair_alphas.len() * 2 >= voters && !pair_alphas.is_empty();
        let alpha = median(&mut pair_alphas);
        probe_votes.push((majority && level0_accepted, alpha));
    }

    // --- Acceptance scan ---------------------------------------------------
    // Probes are ordered deep → shallow. Grow the tail region from the
    // deepest probe outward; an isolated rejection is measurement noise,
    // but two consecutive rejections mark the end of the power-law region
    // (the body of the distribution).
    let mut best_k = 0usize;
    let mut accepted_in_region = 0usize;
    let mut consecutive_rejections = 0usize;
    for (k, (ok, _)) in probe_votes.iter().enumerate() {
        if *ok {
            consecutive_rejections = 0;
            accepted_in_region += 1;
            best_k = k + 1;
        } else {
            consecutive_rejections += 1;
            if consecutive_rejections >= 2 {
                break;
            }
        }
    }
    let region_frac = if best_k == 0 {
        0.0
    } else {
        accepted_in_region as f64 / best_k as f64
    };
    if best_k == 0 || accepted_in_region < MIN_ACCEPTED || region_frac < ACCEPT_FRACTION {
        return Err(StatsError::NoTailFound);
    }

    let mut alphas: Vec<f64> = probe_votes[..best_k]
        .iter()
        .filter(|(ok, _)| *ok)
        .map(|(_, a)| *a)
        .collect();
    let alpha = median(&mut alphas);
    let p_star = probes[best_k - 1];
    // Map the onset back from centred to original units.
    let tail_start = ecdfs[0].upper_quantile(p_star).expect("p in (0,1)") + mean;

    Ok(AestResult {
        alpha,
        tail_start,
        tail_fraction: p_star,
    })
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs collected"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleph_trace::dist::{LogNormal, Pareto, Sample};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn draw<D: Sample>(d: &D, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    /// The exponential distribution with rate λ, by inverse CDF
    /// `x = −ln(u)/λ`: a light tail the estimator must reject.
    struct Exp(f64);

    impl Sample for Exp {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            let u = 1.0 - rng.gen::<f64>();
            -u.ln() / self.0
        }
    }

    #[test]
    fn exponential_moments() {
        let xs = draw(&Exp(0.25), 200_000, 0x5EED);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn detects_pure_pareto_and_estimates_alpha() {
        for (alpha, seed) in [(1.1, 1u64), (1.5, 2), (1.8, 3)] {
            let xs = draw(&Pareto::new(1.0, alpha).unwrap(), 60_000, seed);
            let res = aest(&xs).unwrap_or_else(|e| panic!("alpha {alpha}: {e}"));
            assert!(
                (res.alpha - alpha).abs() / alpha < 0.25,
                "alpha {alpha}: estimated {}",
                res.alpha
            );
            // Pure Pareto is power-law from the start, but for α > 1 the
            // aggregates acquire a mean drift that hides the scaling
            // outside the proper tail, so the verified region is the top
            // few percent — still far more than a noise artefact.
            assert!(
                res.tail_fraction > 0.03,
                "alpha {alpha}: tail fraction {}",
                res.tail_fraction
            );
        }
    }

    #[test]
    fn rejects_exponential() {
        let xs = draw(&Exp(1.0), 60_000, 7);
        assert!(matches!(aest(&xs), Err(StatsError::NoTailFound)));
    }

    #[test]
    fn rejects_tight_lognormal() {
        let xs = draw(&LogNormal::new(0.0, 0.5).unwrap(), 60_000, 11);
        assert!(matches!(aest(&xs), Err(StatsError::NoTailFound)));
    }

    #[test]
    fn finds_tail_onset_of_a_mixture() {
        // 90% log-normal body + 10% Pareto tail starting at x_t = 50.
        // This is the shape of a per-interval flow-bandwidth snapshot.
        let mut rng = StdRng::seed_from_u64(13);
        let body = LogNormal::new(1.0, 0.7).unwrap();
        let tail = Pareto::new(50.0, 1.3).unwrap();
        let xs: Vec<f64> = (0..80_000)
            .map(|i| {
                if i % 10 == 0 {
                    tail.sample(&mut rng)
                } else {
                    body.sample(&mut rng)
                }
            })
            .collect();
        let res = aest(&xs).expect("mixture has a tail");
        // Threshold must land between the body bulk and the tail start
        // region (within a factor of ~4 of x_t = 50 in these tests).
        assert!(
            res.tail_start > 12.0 && res.tail_start < 200.0,
            "tail_start {}",
            res.tail_start
        );
        assert!((res.alpha - 1.3).abs() < 0.5, "alpha {}", res.alpha);
        // ~10% of mass is in the tail; the detected fraction must be
        // in that neighbourhood, not 50%.
        assert!(
            res.tail_fraction < 0.35,
            "tail fraction {}",
            res.tail_fraction
        );
    }

    #[test]
    fn too_few_samples_rejected() {
        let xs = vec![1.0; 100];
        assert!(matches!(
            aest(&xs),
            Err(StatsError::NotEnoughSamples { .. })
        ));
    }

    #[test]
    fn nonpositive_samples_are_ignored() {
        let mut xs = draw(&Pareto::new(1.0, 1.5).unwrap(), 60_000, 17);
        xs.extend(std::iter::repeat_n(0.0, 1_000));
        xs.extend(std::iter::repeat_n(-5.0, 1_000));
        let res = aest(&xs).unwrap();
        assert!((res.alpha - 1.5).abs() < 0.4);
    }

    #[test]
    fn deterministic_for_same_input() {
        let xs = draw(&Pareto::new(1.0, 1.2).unwrap(), 30_000, 29);
        let a = aest(&xs).unwrap();
        let b = aest(&xs).unwrap();
        assert_eq!(a.alpha, b.alpha);
        assert_eq!(a.tail_start, b.tail_start);
    }

    #[test]
    fn a_non_finite_sample_is_a_typed_error() {
        let finite = draw(&Pareto::new(1.0, 1.5).unwrap(), 1_000, 37);
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut xs = finite.clone();
            xs.insert(500, bad);
            match aest(&xs) {
                Err(StatsError::BadParameter {
                    name: "samples",
                    value,
                }) => {
                    assert_eq!(value.to_bits(), bad.to_bits());
                }
                other => panic!("{bad}: {other:?}"),
            }
        }
    }

    #[test]
    fn integer_sorted_levels_give_the_comparator_sorts_result() {
        let mut compared = 0;
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let body = LogNormal::new(1.0 + seed as f64 / 4.0, 0.4 + seed as f64 / 16.0).unwrap();
            let tail = Pareto::new(20.0 + 10.0 * seed as f64, 1.1 + seed as f64 / 10.0).unwrap();
            let every = 5 + seed as usize % 20;
            let xs: Vec<f64> = (0..20_000)
                .map(|i| {
                    if i % every == 0 {
                        tail.sample(&mut rng)
                    } else {
                        body.sample(&mut rng)
                    }
                })
                .collect();
            match (aest(&xs), aest_with(&xs, Ecdf::by_comparator)) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(
                        got.tail_start.to_bits(),
                        want.tail_start.to_bits(),
                        "seed {seed}"
                    );
                    assert_eq!(got.alpha.to_bits(), want.alpha.to_bits(), "seed {seed}");
                    assert_eq!(got.tail_fraction.to_bits(), want.tail_fraction.to_bits());
                    compared += 1;
                }
                (Err(got), Err(want)) => assert_eq!(got, want, "seed {seed}"),
                (got, want) => panic!("seed {seed}: {got:?} vs {want:?}"),
            }
        }
        assert!(compared >= 6, "only {compared} mixtures had a tail");
    }

    #[test]
    fn alpha_above_two_is_not_heavy() {
        // Pareto with α = 3.5 has finite variance: aggregates normalise
        // and the estimator should refuse or at least not report α < 2.
        let xs = draw(&Pareto::new(1.0, 3.5).unwrap(), 60_000, 31);
        match aest(&xs) {
            Err(StatsError::NoTailFound) => {}
            Ok(res) => assert!(res.alpha > 2.0, "claimed heavy tail alpha {}", res.alpha),
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
