//! Rate-level trace generation: the `B_i(n)` matrix.

use eleph_bgp::BgpTable;
use eleph_stats::dist::{Pareto, Sample};
use rand::Rng;

use crate::flows::{flow_rng, unit_mean_jitter};
use crate::{FlowId, FlowKind, FlowPopulation, WorkloadConfig};

/// A complete rate-level trace: for every interval, the sparse list of
/// active flows and their average bandwidth over that interval.
///
/// This is precisely the input of the paper's methodology — `B_i(n)`, the
/// average bandwidth of flow `i` over interval `n` — generated directly,
/// without materialising packets. [`crate::PacketSynth`] can expand any
/// window of it into packets; an integration test pins the equivalence of
/// the two representations.
#[derive(Debug, Clone)]
pub struct RateTrace {
    /// The workload this trace was generated from.
    pub config: WorkloadConfig,
    /// Static flow metadata (index = [`FlowId`]).
    pub population: FlowPopulation,
    /// Per interval: sorted `(flow, bps)` pairs for every active flow.
    intervals: Vec<Vec<(FlowId, f32)>>,
    /// Per interval: total offered load in b/s.
    totals: Vec<f64>,
}

impl RateTrace {
    /// Generate the trace: a pure function of `(config, table)`.
    ///
    /// Each flow's trajectory is an independent seeded process:
    /// a two-state (on/off) Markov chain whose stationary on-probability
    /// follows the diurnal level, with multiplicative mean-one log-normal
    /// jitter on the rate while on, and Pareto bursts for mice.
    pub fn generate(config: &WorkloadConfig, table: &BgpTable) -> Self {
        let population = FlowPopulation::build(config, table);
        Self::from_population(config, population)
    }

    /// Generate with an existing population (used by sweeps that vary
    /// dynamics but keep the flow mix fixed).
    ///
    /// Every flow's trajectory comes from its own seeded RNG stream
    /// (`flow_rng(seed, id, _)`), so flows are generated in parallel
    /// shards of contiguous id ranges; per-interval rows concatenate in
    /// shard order and per-interval totals are summed over the stored
    /// rates in flow-id order. The output is therefore *identical*
    /// whatever the shard count — still a pure function of
    /// `(config, population)`.
    fn from_population(config: &WorkloadConfig, population: FlowPopulation) -> Self {
        let n_int = config.n_intervals;
        let n_flows = population.len();

        // Precompute per-interval diurnal levels.
        let levels: Vec<f64> = (0..n_int).map(|n| config.diurnal_level(n)).collect();

        let burst_dist = Pareto::new(config.burst_min_factor, config.burst_alpha)
            .expect("burst parameters are positive");

        // Below ~a quarter-million flow-intervals the spawn overhead is
        // not worth it; thread count never changes the output.
        let threads = if n_flows.saturating_mul(n_int) < 250_000 {
            1
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get()).min(16)
        };

        let mut intervals: Vec<Vec<(FlowId, f32)>> = if threads <= 1 {
            generate_flow_range(config, &population, &levels, &burst_dist, 0..n_flows as FlowId)
        } else {
            let chunk = n_flows.div_ceil(threads);
            let mut shards: Vec<Vec<Vec<(FlowId, f32)>>> = std::thread::scope(|s| {
                let population = &population;
                let levels = &levels[..];
                let burst_dist = &burst_dist;
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let lo = (t * chunk).min(n_flows) as FlowId;
                        let hi = ((t + 1) * chunk).min(n_flows) as FlowId;
                        s.spawn(move || {
                            generate_flow_range(config, population, levels, burst_dist, lo..hi)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("flow generation does not panic"))
                    .collect()
            });
            let mut merged = shards.remove(0);
            for shard in shards {
                for (row, mut part) in merged.iter_mut().zip(shard) {
                    row.append(&mut part);
                }
            }
            merged
        };

        // (FlowIds were pushed in ascending order per interval already —
        // shard order is flow-id order — but make the invariant
        // explicit.)
        for v in &mut intervals {
            v.sort_unstable_by_key(|&(id, _)| id);
        }
        let totals: Vec<f64> = intervals
            .iter()
            .map(|row| row.iter().map(|&(_, r)| f64::from(r)).sum())
            .collect();

        RateTrace {
            config: config.clone(),
            population,
            intervals,
            totals,
        }
    }

    /// Number of intervals.
    pub fn n_intervals(&self) -> usize {
        self.intervals.len()
    }

    /// Sparse snapshot of interval `n`: ascending `(flow, bps)` pairs.
    pub fn interval(&self, n: usize) -> &[(FlowId, f32)] {
        &self.intervals[n]
    }

    /// Bandwidth of `flow` in interval `n`, 0.0 when inactive.
    pub fn rate(&self, n: usize, flow: FlowId) -> f64 {
        match self.intervals[n].binary_search_by_key(&flow, |&(id, _)| id) {
            Ok(idx) => f64::from(self.intervals[n][idx].1),
            Err(_) => 0.0,
        }
    }

    /// Total offered load of interval `n` in b/s.
    pub fn total(&self, n: usize) -> f64 {
        self.totals[n]
    }

    /// Number of active flows in interval `n`.
    pub fn active_flows(&self, n: usize) -> usize {
        self.intervals[n].len()
    }
}

/// Generate the trajectories of one contiguous flow-id range: the
/// per-shard body of [`RateTrace::from_population`]. Returns the
/// range's per-interval `(flow, bps)` rows, ascending by flow id.
fn generate_flow_range(
    config: &WorkloadConfig,
    population: &FlowPopulation,
    levels: &[f64],
    burst_dist: &Pareto,
    range: std::ops::Range<FlowId>,
) -> Vec<Vec<(FlowId, f32)>> {
    let n_int = config.n_intervals;
    let mut intervals: Vec<Vec<(FlowId, f32)>> = vec![Vec::new(); n_int];

    // Everything that depends only on (interval, flow kind) is hoisted
    // out of the flow×interval loop — the diurnal rate factor (a powf)
    // and the Markov transition probabilities — computed exactly as the
    // per-flow expressions did, so every flow draws identical values
    // from an identical RNG stream.
    let rate_level: Vec<f64> = levels
        .iter()
        .map(|&d| d.powf(config.diurnal_rate_exponent))
        .collect();
    struct KindPlan {
        p_on0: f64,
        p_off: f64,
        sigma: f64,
        /// Per interval: P[off → on] targeting the stationary π(d).
        p_on_trans: Vec<f64>,
    }
    let plan = |p_on_peak: f64, mean_on: f64, sigma: f64| -> KindPlan {
        let p_off = 1.0 / mean_on; // P[on → off] per interval
        KindPlan {
            p_on0: stationary_on(p_on_peak, levels.first().copied().unwrap_or(0.0)),
            p_off,
            sigma,
            p_on_trans: levels
                .iter()
                .map(|&d| {
                    let pi = stationary_on(p_on_peak, d);
                    if pi < 1.0 {
                        (p_off * pi / (1.0 - pi)).min(1.0)
                    } else {
                        1.0
                    }
                })
                .collect(),
        }
    };
    let heavy_plan = plan(
        config.heavy_on_prob,
        config.heavy_mean_on,
        config.heavy_jitter_sigma,
    );
    let mouse_plan = plan(
        config.mouse_on_prob,
        config.mouse_mean_on,
        config.mouse_jitter_sigma,
    );

    for id in range {
        let meta = population.get(id);
        let mut rng = flow_rng(config.seed, id, 0xA7E5);
        let plan = match meta.kind {
            FlowKind::Heavy => &heavy_plan,
            FlowKind::Mouse => &mouse_plan,
        };
        // A mouse behind a sufficiently specific prefix can burst:
        // transient bursts model a single application flaring up, and
        // traffic to very short prefixes (< /12) is too aggregated for
        // one application to move the whole aggregate — the paper's own
        // observation about /8 networks.
        let can_burst = meta.kind == FlowKind::Mouse && meta.prefix.len() >= 12;

        // Start in the stationary state for interval 0's level.
        let mut on = rng.gen::<f64>() < plan.p_on0;

        for n in 0..n_int {
            // Markov step: target stationary π(d), fixed escape rate.
            on = if on {
                rng.gen::<f64>() >= plan.p_off
            } else {
                rng.gen::<f64>() < plan.p_on_trans[n]
            };
            if !on {
                continue;
            }

            let mut rate = meta.base_rate_bps
                * rate_level[n]
                * unit_mean_jitter(&mut rng, plan.sigma);
            if can_burst && rng.gen::<f64>() < config.burst_prob {
                let factor = burst_dist.sample(&mut rng).min(config.burst_cap_factor);
                rate *= factor;
            }
            // Physical cap: a single flow cannot exceed the line rate.
            rate = rate.min(config.link.capacity_bps);

            intervals[n].push((id, rate as f32));
        }
    }
    intervals
}

/// Stationary on-probability at diurnal level `d`: scaled so flows are
/// least active at night but never fully absent.
fn stationary_on(p_peak: f64, d: f64) -> f64 {
    (p_peak * (0.25 + 0.75 * d)).clamp(0.0, 0.995)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleph_bgp::synth::{self, SynthConfig};

    fn table() -> BgpTable {
        synth::generate(&SynthConfig {
            n_prefixes: 2_000,
            ..SynthConfig::default()
        })
    }

    fn small_trace(seed: u64) -> RateTrace {
        let config = WorkloadConfig {
            n_flows: 400,
            ..WorkloadConfig::small_test(seed)
        };
        RateTrace::generate(&config, &table())
    }

    #[test]
    fn deterministic_in_seed() {
        let a = small_trace(9);
        let b = small_trace(9);
        for n in 0..a.n_intervals() {
            assert_eq!(a.interval(n), b.interval(n));
        }
        let c = small_trace(10);
        let same = (0..a.n_intervals()).all(|n| a.interval(n) == c.interval(n));
        assert!(!same);
    }

    #[test]
    fn totals_match_snapshots() {
        let t = small_trace(1);
        for n in 0..t.n_intervals() {
            let sum: f64 = t.interval(n).iter().map(|&(_, r)| f64::from(r)).sum();
            assert!((sum - t.total(n)).abs() < 1.0, "interval {n}");
        }
    }

    #[test]
    fn snapshots_sorted_and_unique() {
        let t = small_trace(2);
        for n in 0..t.n_intervals() {
            let ids: Vec<FlowId> = t.interval(n).iter().map(|&(id, _)| id).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(ids, sorted, "interval {n}");
        }
    }

    #[test]
    fn rate_lookup_consistent() {
        let t = small_trace(3);
        let n = t.n_intervals() / 2;
        for &(id, r) in t.interval(n) {
            assert_eq!(t.rate(n, id), f64::from(r));
        }
        // An inactive flow reads as zero.
        let active: std::collections::HashSet<FlowId> =
            t.interval(n).iter().map(|&(id, _)| id).collect();
        if let Some(inactive) = (0..t.population.len() as FlowId).find(|id| !active.contains(id)) {
            assert_eq!(t.rate(n, inactive), 0.0);
        }
    }

    #[test]
    fn utilization_is_sane() {
        let t = small_trace(4);
        let capacity = t.config.link.capacity_bps;
        let u: Vec<f64> = (0..t.n_intervals()).map(|n| t.total(n) / capacity).collect();
        // Flat profile at 0.8, target peak 0.5: expect util around
        // 0.5·0.8-ish with slack for stochastics; never pathological.
        let mean = u.iter().sum::<f64>() / u.len() as f64;
        assert!(mean > 0.1 && mean < 1.0, "mean util {mean}");
    }

    #[test]
    fn heavy_flows_dominate_traffic() {
        let t = small_trace(5);
        let heavy: std::collections::HashSet<FlowId> =
            t.population.heavy_ids().into_iter().collect();
        let mut heavy_bytes = 0.0;
        let mut all_bytes = 0.0;
        for n in 0..t.n_intervals() {
            for &(id, r) in t.interval(n) {
                all_bytes += f64::from(r);
                if heavy.contains(&id) {
                    heavy_bytes += f64::from(r);
                }
            }
        }
        let share = heavy_bytes / all_bytes;
        assert!(
            share > 0.4 && share < 0.95,
            "heavy share {share} out of expected band"
        );
    }

    #[test]
    fn no_rate_exceeds_capacity() {
        let t = small_trace(7);
        for n in 0..t.n_intervals() {
            for &(_, r) in t.interval(n) {
                assert!(f64::from(r) <= t.config.link.capacity_bps);
            }
        }
    }

    #[test]
    fn heavy_flows_are_persistent_mice_flicker() {
        let t = small_trace(8);
        let heavy = t.population.heavy_ids();
        let mouse: Vec<FlowId> = t
            .population
            .iter()
            .filter(|(_, f)| f.kind == FlowKind::Mouse)
            .map(|(id, _)| id)
            .take(200)
            .collect();
        let active_frac = |ids: &[FlowId]| {
            let mut on = 0usize;
            let mut total = 0usize;
            for &id in ids {
                for n in 0..t.n_intervals() {
                    total += 1;
                    if t.rate(n, id) > 0.0 {
                        on += 1;
                    }
                }
            }
            on as f64 / total as f64
        };
        let hf = active_frac(&heavy);
        let mf = active_frac(&mouse);
        assert!(hf > 0.7, "heavy active fraction {hf}");
        assert!(mf < 0.6, "mouse active fraction {mf}");
        assert!(hf > mf + 0.2, "heavy {hf} vs mouse {mf}");
    }

    #[test]
    fn diurnal_profile_shapes_totals() {
        // Use the west profile on a 24 h horizon covering peak + night.
        // Local time matters: mirror the paper's 09:00 PDT start.
        let config = WorkloadConfig {
            n_flows: 800,
            n_intervals: 288, // 24 h of 5-min slots
            interval_secs: 300,
            profile: crate::DiurnalProfile::west_coast(),
            tz_offset_secs: -7 * 3600,
            ..WorkloadConfig::small_test(11)
        };
        let t = RateTrace::generate(&config, &table());
        // Peak hour (14:00 local = interval 60 from 09:00) vs night
        // (04:00 local = interval 228).
        let around = |c: usize| -> f64 { (c - 3..c + 3).map(|n| t.total(n)).sum::<f64>() / 6.0 };
        let peak = around(60);
        let night = around(228);
        assert!(peak > night * 1.8, "peak {peak} night {night}");
    }
}
