//! The flow population: which prefixes see traffic, and at what base rate.

use std::net::Ipv4Addr;

use eleph_bgp::{BgpTable, PeerClass};
use eleph_net::Prefix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::dist::{LogNormal, Pareto, Sample};
use crate::{mix64, WorkloadConfig};

/// Index of a flow within a [`FlowPopulation`]. Flow = BGP prefix, per
/// the paper's granularity choice.
pub(crate) type FlowId = u32;

/// Rate class of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// Pareto-tailed base rate, long on-periods: a *potential* elephant
    /// (whether it is classified as one is the algorithm's job).
    Heavy,
    /// Log-normal base rate, flickering activity, occasional bursts.
    Mouse,
}

/// Static per-flow metadata.
#[derive(Debug, Clone)]
pub struct FlowMeta {
    /// The destination prefix this flow aggregates to.
    pub prefix: Prefix,
    /// Peer class of the route (paper §III: elephants are mostly Tier-1).
    pub peer_class: PeerClass,
    /// Rate class.
    pub kind: FlowKind,
    /// Calibrated base rate in b/s at diurnal level 1 when active.
    pub base_rate_bps: f64,
    /// A destination address inside the prefix that longest-matches it,
    /// cached for packet synthesis. The population builder only admits
    /// prefixes for which such an address exists, so this is always
    /// `Some` for generated populations.
    pub dst_addr: Option<Ipv4Addr>,
}

/// The set of flows a workload generates traffic for.
#[derive(Debug, Clone)]
pub struct FlowPopulation {
    flows: Vec<FlowMeta>,
}

impl FlowPopulation {
    /// Sample the population from a routing table, deterministic in the
    /// config seed.
    ///
    /// Respecting the paper's §III observations:
    /// * heavy flows are drawn from prefixes of length /12–/26, except
    ///   that (like the paper's "three /8 elephants") a handful of very
    ///   short prefixes are promoted;
    /// * heavy flows prefer Tier-1 routes;
    /// * base rates are independent of prefix length beyond that ("little
    ///   correlation between the size of a network prefix and its ability
    ///   to act as an elephant").
    ///
    /// # Panics
    ///
    /// Panics if `table` holds fewer routes than `config.n_flows`.
    pub fn build(config: &WorkloadConfig, table: &BgpTable) -> Self {
        assert!(
            table.len() >= config.n_flows,
            "table has {} routes, need {}",
            table.len(),
            config.n_flows
        );
        let mut rng = StdRng::seed_from_u64(mix64(config.seed ^ 0xF100D));

        // Choose which routes become flows. Prefixes fully shadowed by
        // more-specifics are skipped: packet synthesis could never emit
        // traffic the pipeline would attribute back to them.
        let mut all: Vec<(Prefix, PeerClass)> =
            table.iter().map(|e| (e.prefix, e.peer_class)).collect();
        all.shuffle(&mut rng);
        let mut chosen: Vec<(Prefix, PeerClass)> = Vec::with_capacity(config.n_flows);
        let mut addrs: Vec<Ipv4Addr> = Vec::with_capacity(config.n_flows);
        for &(prefix, class) in &all {
            if chosen.len() == config.n_flows {
                break;
            }
            if let Some(addr) = table.sample_unshadowed_addr(prefix, &mut rng, 32) {
                chosen.push((prefix, class));
                addrs.push(addr);
            }
        }
        assert!(
            chosen.len() == config.n_flows,
            "only {} usable prefixes, need {}",
            chosen.len(),
            config.n_flows
        );
        let chosen = &chosen[..];

        // Heavy candidates: /12../26 (plus up to 3 promoted short
        // prefixes), Tier-1 preferred.
        let n_heavy = ((config.n_flows as f64) * config.heavy_fraction).round() as usize;
        let mut heavy_flags = vec![false; config.n_flows];
        let mut candidates: Vec<usize> = (0..config.n_flows)
            .filter(|&i| {
                let len = chosen[i].0.len();
                (12..=26).contains(&len)
            })
            .collect();
        // Tier-1 routes first, then the rest; stable order keeps
        // determinism.
        candidates.sort_by_key(|&i| match chosen[i].1 {
            PeerClass::Tier1 => 0,
            PeerClass::Tier2 => 1,
            PeerClass::Stub => 2,
        });
        // Take heavy flows from the candidate head with a random nudge so
        // not *only* Tier-1 routes qualify.
        let take = n_heavy.min(candidates.len());
        let pool = (take * 3 / 2).min(candidates.len());
        let mut head: Vec<usize> = candidates[..pool].to_vec();
        head.shuffle(&mut rng);
        for &i in head.iter().take(take) {
            heavy_flags[i] = true;
        }
        // Promote a few short prefixes (the paper's three /8 elephants at
        // full scale); the count scales with the population so miniature
        // test workloads keep the same proportions.
        let n_promotions = (config.n_flows / 13_000).clamp(1, 3);
        let shorts: Vec<usize> = (0..config.n_flows)
            .filter(|&i| chosen[i].0.len() < 12)
            .collect();
        for &i in shorts.iter().take(n_promotions) {
            heavy_flags[i] = true;
        }

        // Base rates.
        let heavy_dist = Pareto::new(config.heavy_rate_floor, config.heavy_alpha)
            .expect("config rates validated by constructor use");
        let mouse_dist = LogNormal::new(config.mouse_log_mean, config.mouse_log_sigma)
            .expect("config rates validated by constructor use");
        let rate_cap = config.link.capacity_bps * 0.05; // no flow above 5% of line rate
        let mut flows: Vec<FlowMeta> = chosen
            .iter()
            .zip(&heavy_flags)
            .zip(&addrs)
            .map(|((&(prefix, peer_class), &heavy), &addr)| {
                let (kind, base) = if heavy {
                    (FlowKind::Heavy, heavy_dist.sample(&mut rng).min(rate_cap))
                } else {
                    (FlowKind::Mouse, mouse_dist.sample(&mut rng).min(rate_cap))
                };
                FlowMeta {
                    prefix,
                    peer_class,
                    kind,
                    base_rate_bps: base,
                    dst_addr: Some(addr),
                }
            })
            .collect();

        // Calibrate: expected total at diurnal level 1 should hit the
        // link's target peak utilization. Jitter is mean-one by
        // construction (see rate.rs), so only activity probabilities
        // enter.
        let expected: f64 = flows
            .iter()
            .map(|f| {
                let p_on = match f.kind {
                    FlowKind::Heavy => config.heavy_on_prob,
                    FlowKind::Mouse => config.mouse_on_prob,
                };
                f.base_rate_bps * p_on
            })
            .sum();
        let target = config.link.capacity_bps * config.link.target_peak_util;
        let scale = if expected > 0.0 {
            target / expected
        } else {
            1.0
        };
        for f in &mut flows {
            f.base_rate_bps *= scale;
        }

        FlowPopulation { flows }
    }

    /// Number of flows.
    #[allow(
        clippy::len_without_is_empty,
        reason = "an `is_empty` that nothing calls is dead code"
    )]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Metadata for a flow.
    pub fn get(&self, id: FlowId) -> &FlowMeta {
        &self.flows[id as usize]
    }

    /// Iterate over `(FlowId, &FlowMeta)`.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &FlowMeta)> {
        self.flows.iter().enumerate().map(|(i, f)| (i as FlowId, f))
    }
}

/// Per-flow RNG stream: stable regardless of population size or iteration
/// order.
pub(crate) fn flow_rng(seed: u64, flow: FlowId, salt: u64) -> StdRng {
    StdRng::seed_from_u64(mix64(seed ^ mix64(flow as u64 + 1) ^ salt))
}

/// Draw a mean-one log-normal jitter factor: `exp(σZ − σ²/2)`.
pub(crate) fn unit_mean_jitter<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    (sigma * crate::dist::standard_normal(rng) - sigma * sigma / 2.0).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleph_bgp::synth::{self, SynthConfig};

    fn table(n: usize) -> BgpTable {
        synth::generate(&SynthConfig {
            n_prefixes: n,
            ..SynthConfig::default()
        })
    }

    fn config() -> WorkloadConfig {
        WorkloadConfig {
            n_flows: 2_000,
            ..WorkloadConfig::small_test(7)
        }
    }

    #[test]
    fn population_is_deterministic() {
        let t = table(5_000);
        let a = FlowPopulation::build(&config(), &t);
        let b = FlowPopulation::build(&config(), &t);
        assert_eq!(a.len(), b.len());
        for ((_, fa), (_, fb)) in a.iter().zip(b.iter()) {
            assert_eq!(fa.prefix, fb.prefix);
            assert_eq!(fa.base_rate_bps, fb.base_rate_bps);
            assert_eq!(fa.kind, fb.kind);
        }
    }

    #[test]
    fn heavy_fraction_respected() {
        let t = table(5_000);
        let p = FlowPopulation::build(&config(), &t);
        let heavy = p.iter().filter(|(_, f)| f.kind == FlowKind::Heavy).count();
        let expect = (2_000.0 * config().heavy_fraction).round() as usize;
        // +3 possible short-prefix promotions
        assert!(
            heavy >= expect && heavy <= expect + 3,
            "heavy {heavy}, expect ~{expect}"
        );
    }

    #[test]
    fn heavy_flows_sit_in_tail_of_rates() {
        let t = table(5_000);
        let p = FlowPopulation::build(&config(), &t);
        let mut heavy_rates: Vec<f64> = Vec::new();
        let mut mouse_rates: Vec<f64> = Vec::new();
        for (_, f) in p.iter() {
            match f.kind {
                FlowKind::Heavy => heavy_rates.push(f.base_rate_bps),
                FlowKind::Mouse => mouse_rates.push(f.base_rate_bps),
            }
        }
        let heavy_mean = heavy_rates.iter().sum::<f64>() / heavy_rates.len() as f64;
        let mouse_mean = mouse_rates.iter().sum::<f64>() / mouse_rates.len() as f64;
        assert!(
            heavy_mean > mouse_mean * 20.0,
            "heavy {heavy_mean} vs mouse {mouse_mean}"
        );
    }

    #[test]
    fn long_heavy_prefixes_only() {
        let t = table(5_000);
        let p = FlowPopulation::build(&config(), &t);
        let mut short_heavy = 0;
        for (_, f) in p.iter() {
            if f.kind == FlowKind::Heavy && f.prefix.len() < 12 {
                short_heavy += 1;
            }
            if f.kind == FlowKind::Heavy && f.prefix.len() >= 12 {
                assert!(f.prefix.len() <= 26, "heavy {} too long", f.prefix);
            }
        }
        assert!(short_heavy <= 3, "{short_heavy} short heavy flows");
    }

    #[test]
    fn calibration_hits_target_peak_load() {
        let c = config();
        let t = table(5_000);
        let p = FlowPopulation::build(&c, &t);
        let expected: f64 = p
            .iter()
            .map(|(_, f)| {
                let p_on = match f.kind {
                    FlowKind::Heavy => c.heavy_on_prob,
                    FlowKind::Mouse => c.mouse_on_prob,
                };
                f.base_rate_bps * p_on
            })
            .sum();
        let target = c.link.capacity_bps * c.link.target_peak_util;
        assert!(
            (expected - target).abs() / target < 1e-9,
            "expected {expected} target {target}"
        );
    }

    #[test]
    fn cached_addresses_attribute_back() {
        let t = table(5_000);
        let p = FlowPopulation::build(&config(), &t);
        let frozen = t.freeze();
        let mut checked = 0;
        for (_, f) in p.iter().take(500) {
            if let Some(addr) = f.dst_addr {
                let (_, got) = frozen.attribute(addr).expect("addr must match");
                assert_eq!(got.prefix, f.prefix);
                checked += 1;
            }
        }
        assert!(checked > 400, "only {checked} flows have usable addresses");
    }

    #[test]
    #[should_panic(expected = "need")]
    fn too_small_table_panics() {
        let t = table(100);
        let _ = FlowPopulation::build(&config(), &t);
    }

    #[test]
    fn jitter_is_mean_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| unit_mean_jitter(&mut rng, 0.8)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
    }
}
