//! Rate-level trace generation: the `B_i(n)` matrix, one interval at a
//! time.
//!
//! Every flow is an independent seeded process with its own RNG stream
//! (`flow_rng(seed, id, _)`), so the order in which flows and intervals
//! are visited changes no draw. The walk ([`RateTrace::walk`]) visits
//! them in blocks of `BLOCK` intervals: for each block, every flow
//! advances its `(rng, on)` state through the block's intervals — the
//! flows split into contiguous id ranges, one thread each, on a large
//! enough workload — and then the block's rows are handed over,
//! interval by interval, ascending by flow id. It holds one block of
//! rows and one state per flow, never the whole link.

use eleph_bgp::BgpTable;
use rand::rngs::StdRng;
use rand::Rng;

use crate::dist::{Pareto, Sample};
use crate::flows::{flow_rng, unit_mean_jitter};
use crate::{FlowId, FlowKind, FlowPopulation, WorkloadConfig};

/// Intervals the walk generates before handing their rows over: enough
/// that a flow's state is loaded once per block rather than once per
/// interval, few enough that a block of rows is a small fraction of the
/// link.
const BLOCK: usize = 32;

/// A complete rate-level trace: for every interval, the sparse list of
/// active flows and their average bandwidth over that interval.
///
/// This is precisely the input of the paper's methodology — `B_i(n)`, the
/// average bandwidth of flow `i` over interval `n` — generated directly,
/// without materialising packets. [`crate::PacketSynth`] can expand any
/// window of it into packets; an integration test pins the equivalence of
/// the two representations.
///
/// A trace is [`RateTrace::walk`] collected: a pure function of
/// `(config, population)`, and so of `(config, table)`. A caller that
/// reads each interval once (a bandwidth matrix, a classifier) takes the
/// walk's rows as they come instead of keeping the trace.
#[derive(Debug, Clone)]
pub struct RateTrace {
    /// The workload this trace was generated from.
    pub config: WorkloadConfig,
    /// Static flow metadata (index = flow id).
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
    /// jitter on the rate while on, and Pareto bursts for mice. Each
    /// interval's total is its rates summed in flow-id order from `+0.0`,
    /// as a bandwidth matrix sums them.
    pub fn generate(config: &WorkloadConfig, table: &BgpTable) -> Self {
        let population = FlowPopulation::build(config, table);
        let mut intervals = Vec::with_capacity(config.n_intervals);
        let mut totals = Vec::with_capacity(config.n_intervals);
        Self::walk(config, &population, |row| {
            let total = row.iter().fold(0.0, |t, &(_, rate)| t + f64::from(rate));
            totals.push(total);
            intervals.push(row.to_vec());
        });
        RateTrace {
            config: config.clone(),
            population,
            intervals,
            totals,
        }
    }

    /// Generate the trace of `population` under `config` one interval at
    /// a time: `row` receives interval 0's ascending `(flow, bps)` pairs,
    /// then interval 1's, and so on — the rows [`RateTrace::interval`]
    /// returns, bit for bit — each lent from a buffer the walk reuses.
    ///
    /// The walk holds one block of rows and an `(rng, on)` state per
    /// flow, whatever the trace length. Above about a quarter-million
    /// flow-intervals it steps each block's flows on every core, in
    /// contiguous id ranges; the rows are the same on any number of
    /// cores.
    pub fn walk(
        config: &WorkloadConfig,
        population: &FlowPopulation,
        row: impl FnMut(&[(FlowId, f32)]),
    ) {
        // Below ~a quarter-million flow-intervals the spawn overhead is
        // not worth it; the thread count never changes a row.
        let threads = if population.len().saturating_mul(config.n_intervals) < 250_000 {
            1
        } else {
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(16)
        };
        walk_blocks(config, population, BLOCK, threads, row);
    }

    /// Number of intervals.
    pub fn n_intervals(&self) -> usize {
        self.intervals.len()
    }

    /// Sparse snapshot of interval `n`: ascending `(flow, bps)` pairs.
    pub fn interval(&self, n: usize) -> &[(FlowId, f32)] {
        &self.intervals[n]
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

/// The Markov chain of one flow kind: its escape rate, its jitter, and
/// per interval the off → on probability that targets the stationary
/// on-probability of the interval's diurnal level.
struct KindPlan {
    p_on0: f64,
    p_off: f64,
    sigma: f64,
    p_on_trans: Vec<f64>,
}

impl KindPlan {
    fn new(p_on_peak: f64, mean_on: f64, sigma: f64, levels: &[f64]) -> Self {
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
    }
}

/// Everything a flow's step reads besides its own state. What depends
/// only on (interval, flow kind) — the diurnal rate factor (a powf) and
/// the Markov transition probabilities — is computed once, out of the
/// flow × interval loop.
struct Plan<'a> {
    config: &'a WorkloadConfig,
    population: &'a FlowPopulation,
    rate_level: Vec<f64>,
    heavy: KindPlan,
    mouse: KindPlan,
    burst_dist: Pareto,
}

impl<'a> Plan<'a> {
    fn new(config: &'a WorkloadConfig, population: &'a FlowPopulation) -> Self {
        let levels: Vec<f64> = (0..config.n_intervals)
            .map(|n| config.diurnal_level(n))
            .collect();
        Plan {
            config,
            population,
            rate_level: levels
                .iter()
                .map(|&d| d.powf(config.diurnal_rate_exponent))
                .collect(),
            heavy: KindPlan::new(
                config.heavy_on_prob,
                config.heavy_mean_on,
                config.heavy_jitter_sigma,
                &levels,
            ),
            mouse: KindPlan::new(
                config.mouse_on_prob,
                config.mouse_mean_on,
                config.mouse_jitter_sigma,
                &levels,
            ),
            burst_dist: Pareto::new(config.burst_min_factor, config.burst_alpha)
                .expect("burst parameters are positive"),
        }
    }

    fn kind(&self, kind: FlowKind) -> &KindPlan {
        match kind {
            FlowKind::Heavy => &self.heavy,
            FlowKind::Mouse => &self.mouse,
        }
    }

    /// Every flow's state before interval 0: its RNG stream, and on with
    /// the stationary probability of interval 0's level.
    fn start(&self) -> Vec<(StdRng, bool)> {
        self.population
            .iter()
            .map(|(id, meta)| {
                let mut rng = flow_rng(self.config.seed, id, 0xA7E5);
                let on = rng.gen::<f64>() < self.kind(meta.kind).p_on0;
                (rng, on)
            })
            .collect()
    }

    /// Step the flows `first_flow..` (whose states are `states`) through
    /// the intervals `first..first + rows.len()`, pushing each active
    /// flow's `(flow, bps)` onto the interval's row.
    fn advance(
        &self,
        first_flow: FlowId,
        states: &mut [(StdRng, bool)],
        first: usize,
        rows: &mut [Vec<(FlowId, f32)>],
    ) {
        let config = self.config;
        for (id, state) in (first_flow..).zip(states) {
            let meta = self.population.get(id);
            let plan = self.kind(meta.kind);
            // A mouse behind a sufficiently specific prefix can burst:
            // transient bursts model a single application flaring up,
            // and traffic to very short prefixes (< /12) is too
            // aggregated for one application to move the whole
            // aggregate — the paper's own observation about /8 networks.
            let can_burst = meta.kind == FlowKind::Mouse && meta.prefix.len() >= 12;
            // The state is worked on in locals, which the compiler can
            // keep in registers, and put back once the block is done.
            let (mut rng, mut on) = state.clone();
            for (n, out) in (first..).zip(rows.iter_mut()) {
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
                    * self.rate_level[n]
                    * unit_mean_jitter(&mut rng, plan.sigma);
                if can_burst && rng.gen::<f64>() < config.burst_prob {
                    let factor = self
                        .burst_dist
                        .sample(&mut rng)
                        .min(config.burst_cap_factor);
                    rate *= factor;
                }
                // Physical cap: a single flow cannot exceed the line rate.
                rate = rate.min(config.link.capacity_bps);

                out.push((id, rate as f32));
            }
            *state = (rng, on);
        }
    }
}

/// [`RateTrace::walk`] at any block size, over `threads` contiguous
/// flow-id ranges. Each block's ranges are stepped on threads of their
/// own, and an interval's row is the ranges' rows in range order, so
/// ascending by flow id. The rows, and every draw behind them, are the
/// same whatever `block` and `threads` are; only how many rows are held
/// at once, and on how many cores they are made, changes.
pub(crate) fn walk_blocks(
    config: &WorkloadConfig,
    population: &FlowPopulation,
    block: usize,
    threads: usize,
    mut row: impl FnMut(&[(FlowId, f32)]),
) {
    assert!(block >= 1, "a block holds at least one interval");
    let n_int = config.n_intervals;
    let plan = Plan::new(config, population);
    let mut states = plan.start();
    let chunk = states.len().div_ceil(threads.max(1)).max(1);
    let mut ranges: Vec<Vec<Vec<(FlowId, f32)>>> =
        vec![vec![Vec::new(); block.min(n_int)]; states.len().div_ceil(chunk).max(1)];
    let mut merged: Vec<(FlowId, f32)> = Vec::new();
    for first in (0..n_int).step_by(block) {
        let len = block.min(n_int - first);
        if let [rows] = &mut ranges[..] {
            plan.advance(0, &mut states, first, &mut rows[..len]);
        } else {
            std::thread::scope(|s| {
                for (k, (states, rows)) in states.chunks_mut(chunk).zip(&mut ranges).enumerate() {
                    let plan = &plan;
                    s.spawn(move || {
                        plan.advance((k * chunk) as FlowId, states, first, &mut rows[..len]);
                    });
                }
            });
        }
        for n in 0..len {
            if let [rows] = &mut ranges[..] {
                row(&rows[n]);
                rows[n].clear();
            } else {
                merged.clear();
                for rows in &mut ranges {
                    merged.extend_from_slice(&rows[n]);
                    rows[n].clear();
                }
                row(&merged);
            }
        }
    }
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
    use proptest::prelude::*;

    impl RateTrace {
        /// Bandwidth of `flow` in interval `n`, 0.0 when inactive.
        fn rate(&self, n: usize, flow: FlowId) -> f64 {
            match self.intervals[n].binary_search_by_key(&flow, |&(id, _)| id) {
                Ok(idx) => f64::from(self.intervals[n][idx].1),
                Err(_) => 0.0,
            }
        }
    }

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

    /// Every row of `walk_blocks` at `block` and `threads`, rates as
    /// bits.
    fn walked_bits(
        config: &WorkloadConfig,
        population: &FlowPopulation,
        block: usize,
        threads: usize,
    ) -> Vec<Vec<(FlowId, u32)>> {
        let mut rows = Vec::new();
        walk_blocks(config, population, block, threads, |row| {
            rows.push(row.iter().map(|&(id, r)| (id, r.to_bits())).collect());
        });
        rows
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The block size and the thread count change how many rows the
        /// walk holds and where they are made, never a row: one interval
        /// at a time, an odd block that leaves a short last one, and the
        /// whole trace as one block, each on 1 to 4 threads (more than
        /// there are flows, too), all give `generate`'s rows.
        #[test]
        fn walk_at_every_block_size_gives_the_generated_rows(
            seed in any::<u64>(),
            n_flows in prop_oneof![1usize..5, 5usize..300],
            n_intervals in 0usize..80,
        ) {
            let table = table();
            let config = WorkloadConfig {
                n_flows,
                n_intervals,
                ..WorkloadConfig::small_test(seed)
            };
            let trace = RateTrace::generate(&config, &table);
            let generated: Vec<Vec<(FlowId, u32)>> = (0..trace.n_intervals())
                .map(|n| trace.interval(n).iter().map(|&(id, r)| (id, r.to_bits())).collect())
                .collect();
            for block in [1, 7, n_intervals.max(1)] {
                for threads in 1..=4 {
                    prop_assert_eq!(
                        &walked_bits(&config, &trace.population, block, threads),
                        &generated,
                        "block {}, {} threads",
                        block,
                        threads
                    );
                }
            }
        }
    }

    #[test]
    fn an_empty_interval_totals_positive_zero() {
        let config = WorkloadConfig {
            heavy_on_prob: 0.0,
            mouse_on_prob: 0.0,
            ..WorkloadConfig::small_test(6)
        };
        let t = RateTrace::generate(&config, &table());
        for n in 0..t.n_intervals() {
            assert_eq!(t.active_flows(n), 0, "interval {n}");
            assert_eq!(t.total(n).to_bits(), 0.0f64.to_bits(), "interval {n}");
        }
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
        let u: Vec<f64> = (0..t.n_intervals())
            .map(|n| t.total(n) / capacity)
            .collect();
        // Flat profile at 0.8, target peak 0.5: expect util around
        // 0.5·0.8-ish with slack for stochastics; never pathological.
        let mean = u.iter().sum::<f64>() / u.len() as f64;
        assert!(mean > 0.1 && mean < 1.0, "mean util {mean}");
    }

    #[test]
    fn heavy_flows_dominate_traffic() {
        let t = small_trace(5);
        let heavy: std::collections::HashSet<FlowId> = t
            .population
            .iter()
            .filter(|(_, f)| f.kind == FlowKind::Heavy)
            .map(|(id, _)| id)
            .collect();
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
        let heavy: Vec<FlowId> = t
            .population
            .iter()
            .filter(|(_, f)| f.kind == FlowKind::Heavy)
            .map(|(id, _)| id)
            .collect();
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
