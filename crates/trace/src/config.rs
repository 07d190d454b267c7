//! Workload configuration and the paper's two link scenarios.

use crate::DiurnalProfile;

/// The monitored link.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Human-readable name used in reports ("west-coast OC-12").
    pub name: String,
    /// Line rate in bits per second. OC-12 POS ≈ 622 Mb/s.
    pub capacity_bps: f64,
    /// Fraction of capacity the *expected* load reaches at the diurnal
    /// peak; the generator scales flow rates to hit this.
    pub target_peak_util: f64,
}

impl LinkSpec {
    /// An OC-12 (622 Mb/s) link with the given name and peak utilization.
    pub fn oc12(name: &str, target_peak_util: f64) -> Self {
        LinkSpec {
            name: name.to_string(),
            capacity_bps: 622_080_000.0,
            target_peak_util,
        }
    }
}

/// Unix timestamp of 2001-07-24 00:00 UTC — the capture day of the paper.
const JUL_24_2001_UTC: u64 = 995_932_800;

/// Everything that defines a synthetic workload. The trace is a pure
/// function of this struct (see [`crate::RateTrace::generate`]).
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// The link being modelled.
    pub link: LinkSpec,
    /// Time-of-day modulation.
    pub profile: DiurnalProfile,
    /// Number of flows (BGP prefixes that see any traffic).
    pub n_flows: usize,
    /// Measurement interval length in seconds (the paper's T; default 300).
    pub interval_secs: u64,
    /// Number of intervals (paper window: 28 h = 336 five-minute slots).
    pub n_intervals: usize,
    /// Unix time of the first interval's start.
    pub start_unix: u64,
    /// Local-time offset from UTC in seconds (PDT = −7 h, EDT = −4 h);
    /// the diurnal profile is evaluated in local time.
    pub tz_offset_secs: i64,

    // --- flow population ------------------------------------------------
    /// Fraction of flows drawn from the heavy (Pareto) rate class.
    pub heavy_fraction: f64,
    /// Pareto tail index of heavy-flow base rates (α < 2 ⇒ heavy tail).
    pub heavy_alpha: f64,
    /// Scale (minimum) of heavy base rates in b/s, before calibration.
    pub heavy_rate_floor: f64,
    /// ln of the median mouse base rate in b/s.
    pub mouse_log_mean: f64,
    /// Log-std of mouse base rates.
    pub mouse_log_sigma: f64,

    // --- temporal dynamics ----------------------------------------------
    /// Mean on-period of heavy flows, in intervals.
    pub heavy_mean_on: f64,
    /// Stationary on-probability of heavy flows at the diurnal peak.
    pub heavy_on_prob: f64,
    /// Mean on-period of mice, in intervals.
    pub mouse_mean_on: f64,
    /// Stationary on-probability of mice at the diurnal peak.
    pub mouse_on_prob: f64,
    /// Log-std of per-interval multiplicative jitter for heavy flows.
    pub heavy_jitter_sigma: f64,
    /// Log-std of per-interval multiplicative jitter for mice.
    pub mouse_jitter_sigma: f64,
    /// Probability an active mouse bursts in a given interval.
    pub burst_prob: f64,
    /// Pareto index of the burst magnitude.
    pub burst_alpha: f64,
    /// Minimum burst multiplier.
    pub burst_min_factor: f64,
    /// Cap on the burst multiplier.
    pub burst_cap_factor: f64,
    /// Exponent linking flow rate to the diurnal level d(t): rate ∝ d^e.
    pub diurnal_rate_exponent: f64,
}

impl WorkloadConfig {
    /// The paper's west-coast link: bursty working-hours profile,
    /// 09:00 PDT 2001-07-24 start, 336 five-minute intervals.
    pub fn paper_west(seed: u64) -> Self {
        WorkloadConfig {
            seed,
            link: LinkSpec::oc12("west-coast OC-12", 0.55),
            profile: DiurnalProfile::west_coast(),
            n_flows: 40_000,
            interval_secs: 300,
            n_intervals: 336,
            // 09:00 PDT = 16:00 UTC
            start_unix: JUL_24_2001_UTC + 16 * 3600,
            tz_offset_secs: -7 * 3600,
            ..Self::base()
        }
    }

    /// The paper's east-coast link: smoother profile, slightly lower
    /// volume (the paper finds ~500 elephants vs ~600 on the west link),
    /// 09:00 EDT start.
    pub fn paper_east(seed: u64) -> Self {
        WorkloadConfig {
            seed: seed ^ 0xEA57,
            link: LinkSpec::oc12("east-coast OC-12", 0.42),
            profile: DiurnalProfile::east_coast(),
            n_flows: 26_000,
            interval_secs: 300,
            n_intervals: 336,
            // 09:00 EDT = 13:00 UTC
            start_unix: JUL_24_2001_UTC + 13 * 3600,
            tz_offset_secs: -4 * 3600,
            // The east link's smoother profile keeps its heavy flows
            // classified more consistently; a smaller heavy population
            // reproduces the paper's ~500 elephants (vs ~600 west).
            heavy_fraction: 0.019,
            ..Self::base()
        }
    }

    /// A small fast configuration for unit tests and examples: a 10 Mb/s
    /// link, 400 flows, 1-minute intervals over two hours. Rate
    /// parameters are scaled down with the link so the heavy/mouse
    /// structure survives the per-flow capacity cap.
    pub fn small_test(seed: u64) -> Self {
        WorkloadConfig {
            seed,
            link: LinkSpec {
                name: "test link".to_string(),
                capacity_bps: 10_000_000.0,
                target_peak_util: 0.5,
            },
            profile: DiurnalProfile::flat(0.8),
            n_flows: 400,
            interval_secs: 60,
            n_intervals: 120,
            start_unix: JUL_24_2001_UTC + 16 * 3600,
            tz_offset_secs: 0,
            heavy_rate_floor: 50_000.0,
            mouse_log_mean: (1_000f64).ln(),
            ..Self::base()
        }
    }

    /// Shared defaults for the flow-population and dynamics knobs.
    fn base() -> Self {
        WorkloadConfig {
            seed: 0,
            link: LinkSpec::oc12("unnamed", 0.5),
            profile: DiurnalProfile::flat(1.0),
            n_flows: 1_000,
            interval_secs: 300,
            n_intervals: 12,
            start_unix: JUL_24_2001_UTC,
            tz_offset_secs: 0,
            heavy_fraction: 0.025,
            heavy_alpha: 1.25,
            heavy_rate_floor: 400_000.0,
            mouse_log_mean: (15_000f64).ln(),
            mouse_log_sigma: 1.3,
            heavy_mean_on: 60.0,
            heavy_on_prob: 0.92,
            mouse_mean_on: 3.0,
            mouse_on_prob: 0.45,
            heavy_jitter_sigma: 0.24,
            mouse_jitter_sigma: 0.85,
            burst_prob: 0.006,
            burst_alpha: 1.4,
            burst_min_factor: 20.0,
            burst_cap_factor: 600.0,
            diurnal_rate_exponent: 0.7,
        }
    }

    /// Start of interval `n` as a Unix timestamp.
    pub fn interval_start_unix(&self, n: usize) -> u64 {
        self.start_unix + n as u64 * self.interval_secs
    }

    /// Local time-of-day of interval `n`'s midpoint, in seconds since
    /// local midnight — the argument the diurnal profile expects.
    fn interval_local_secs(&self, n: usize) -> u64 {
        let mid = self.interval_start_unix(n) + self.interval_secs / 2;
        let local = mid as i64 + self.tz_offset_secs;
        local.rem_euclid(86_400) as u64
    }

    /// Diurnal level for interval `n`.
    pub fn diurnal_level(&self, n: usize) -> f64 {
        self.profile.eval_seconds(self.interval_local_secs(n))
    }

    /// Format the local wall-clock time of interval `n`'s start as HH:MM
    /// (for figure axes).
    pub fn interval_label(&self, n: usize) -> String {
        let local = self.interval_start_unix(n) as i64 + self.tz_offset_secs;
        let secs = local.rem_euclid(86_400);
        format!("{:02}:{:02}", secs / 3600, (secs % 3600) / 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_west_starts_at_9am_local() {
        let c = WorkloadConfig::paper_west(1);
        assert_eq!(c.interval_label(0), "09:00");
        assert_eq!(c.interval_label(12), "10:00");
        // 336 intervals later: 13:00 the next day.
        assert_eq!(c.interval_label(336), "13:00");
    }

    #[test]
    fn paper_east_starts_at_9am_local() {
        let c = WorkloadConfig::paper_east(1);
        assert_eq!(c.interval_label(0), "09:00");
    }

    #[test]
    fn diurnal_level_uses_local_time() {
        let c = WorkloadConfig::paper_west(1);
        // Interval 60 = 09:00 + 5 h = 14:00 local: at the west peak.
        let peak = c.diurnal_level(60);
        // Interval 228 = +19 h = 04:00 local: deep night.
        let trough = c.diurnal_level(228);
        assert!(peak > 0.9, "peak {peak}");
        assert!(trough < 0.45, "trough {trough}");
    }

    #[test]
    fn interval_arithmetic() {
        let c = WorkloadConfig::small_test(1);
        assert_eq!(c.interval_start_unix(0), c.start_unix);
        assert_eq!(c.interval_start_unix(10), c.start_unix + 600);
        let l = c.interval_local_secs(0);
        assert!(l < 86_400);
    }

    #[test]
    fn oc12_capacity() {
        let l = LinkSpec::oc12("x", 0.5);
        assert!((l.capacity_bps - 622_080_000.0).abs() < 1.0);
    }
}
