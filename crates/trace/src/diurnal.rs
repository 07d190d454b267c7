//! Time-of-day modulation profiles.

/// One Gaussian bump in a diurnal profile.
#[derive(Debug, Clone, Copy)]
pub struct GaussianPeak {
    /// Centre of the bump, in local hours [0, 24).
    pub center_h: f64,
    /// Width (standard deviation) in hours.
    pub width_h: f64,
    /// Height added at the centre.
    pub height: f64,
}

/// A diurnal utilization profile: a base load plus Gaussian bumps,
/// evaluated on the local time of day with wrap-around at midnight.
///
/// The two links of the paper differ exactly here (§III): the west-coast
/// link "experiences a high burst in its utilization during the working
/// hours" while the east-coast link "exhibits smoother utilization levels
/// during the day" — reproduced by [`DiurnalProfile::west_coast`] and
/// the crate's east-coast profile.
#[derive(Debug, Clone)]
pub struct DiurnalProfile {
    /// Load floor (night-time), in [0, 1].
    pub base: f64,
    /// Bumps added on top of the base.
    pub peaks: Vec<GaussianPeak>,
}

impl DiurnalProfile {
    /// Flat profile (no diurnal variation), useful in unit tests.
    pub fn flat(level: f64) -> Self {
        DiurnalProfile {
            base: level,
            peaks: Vec::new(),
        }
    }

    /// The bursty west-coast OC-12 profile: low nights, a strong
    /// working-hours hump peaking mid-afternoon.
    pub fn west_coast() -> Self {
        DiurnalProfile {
            base: 0.30,
            peaks: vec![
                GaussianPeak {
                    center_h: 14.0,
                    width_h: 3.0,
                    height: 0.70,
                },
                // small evening residential shoulder
                GaussianPeak {
                    center_h: 20.5,
                    width_h: 1.8,
                    height: 0.15,
                },
            ],
        }
    }

    /// The smooth east-coast OC-12 profile: higher floor, broad gentle
    /// daytime rise.
    pub(crate) fn east_coast() -> Self {
        DiurnalProfile {
            base: 0.52,
            peaks: vec![GaussianPeak {
                center_h: 13.0,
                width_h: 5.5,
                height: 0.38,
            }],
        }
    }

    /// Evaluate the profile at a local time-of-day given in seconds since
    /// local midnight. The result is clamped to [0, 1].
    pub(crate) fn eval_seconds(&self, local_secs: u64) -> f64 {
        let h = (local_secs % 86_400) as f64 / 3_600.0;
        self.eval_hours(h)
    }

    /// Evaluate at local hour `h ∈ [0, 24)`, with midnight wrap-around
    /// (a peak at 23:30 also lifts 00:15).
    fn eval_hours(&self, h: f64) -> f64 {
        let mut v = self.base;
        for p in &self.peaks {
            // Distance on the 24 h circle.
            let mut d = (h - p.center_h).abs() % 24.0;
            if d > 12.0 {
                d = 24.0 - d;
            }
            v += p.height * (-0.5 * (d / p.width_h).powi(2)).exp();
        }
        v.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ratio of the busiest to the quietest level over the day, sampled
    /// every six minutes — the "burstiness" of a profile.
    fn peak_to_trough(p: &DiurnalProfile) -> f64 {
        let levels = (0..240).map(|i| p.eval_hours(i as f64 / 10.0));
        let (min, max) = levels.fold((f64::INFINITY, 0.0f64), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        });
        max / min
    }

    #[test]
    fn flat_profile_is_constant() {
        let p = DiurnalProfile::flat(0.4);
        for h in [0.0, 6.0, 12.0, 18.0, 23.9] {
            assert_eq!(p.eval_hours(h), 0.4);
        }
        assert_eq!(peak_to_trough(&p), 1.0);
    }

    #[test]
    fn west_peaks_in_working_hours() {
        let w = DiurnalProfile::west_coast();
        assert!(w.eval_hours(14.0) > 0.9);
        assert!(w.eval_hours(4.0) < 0.45);
        assert!(w.eval_hours(14.0) > w.eval_hours(9.0));
    }

    #[test]
    fn east_is_smoother_than_west() {
        let w = DiurnalProfile::west_coast();
        let e = DiurnalProfile::east_coast();
        let (west, east) = (peak_to_trough(&w), peak_to_trough(&e));
        assert!(west > east * 1.3, "west {west} vs east {east}");
    }

    #[test]
    fn output_clamped_to_unit_interval() {
        let p = DiurnalProfile {
            base: 0.9,
            peaks: vec![GaussianPeak {
                center_h: 12.0,
                width_h: 2.0,
                height: 5.0,
            }],
        };
        for i in 0..48 {
            let v = p.eval_hours(i as f64 / 2.0);
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn midnight_wraparound() {
        let p = DiurnalProfile {
            base: 0.1,
            peaks: vec![GaussianPeak {
                center_h: 23.5,
                width_h: 1.0,
                height: 0.5,
            }],
        };
        // 00:30 is one hour from the 23:30 peak across midnight.
        let across = p.eval_hours(0.5);
        let same_side = p.eval_hours(22.5);
        assert!((across - same_side).abs() < 1e-9);
        assert!(across > p.eval_hours(12.0));
    }

    #[test]
    fn seconds_and_hours_agree() {
        let p = DiurnalProfile::west_coast();
        assert!((p.eval_seconds(14 * 3600) - p.eval_hours(14.0)).abs() < 1e-12);
        // Day boundaries wrap.
        assert!((p.eval_seconds(86_400 + 3 * 3600) - p.eval_hours(3.0)).abs() < 1e-12);
    }
}
