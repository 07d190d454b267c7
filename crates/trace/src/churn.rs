//! Route churn for the routing control plane: deterministic
//! announce/withdraw storms and flap-damping scenarios that stress
//! mid-stream re-attribution ([`generate_churn`]).

use eleph_bgp::{BgpTable, RouteEntry, RouteUpdate, UpdateBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

use crate::mix64;

/// One route-churn stress scenario, applied to prefixes sampled
/// deterministically from the routing table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnScenario {
    /// A correlated outage: `count` prefixes are withdrawn in one batch
    /// at `at_unix`, then re-announced (identical attributes) in one
    /// batch `hold_secs` later — the classic session-reset storm.
    WithdrawReannounceStorm {
        /// Unix time of the withdraw batch.
        at_unix: u64,
        /// Number of distinct prefixes to withdraw.
        count: usize,
        /// Seconds the routes stay down.
        hold_secs: u64,
    },
    /// Route flapping: `count` prefixes each cycle withdraw → announce
    /// every `period_secs`, `flaps` times over. With `damped`, the
    /// router suppresses the route after its last withdraw and only
    /// re-announces once a suppression window (8 × `period_secs`) has
    /// passed — the shape RFC 2439 flap damping produces.
    Flap {
        /// Unix time of the first withdraw.
        start_unix: u64,
        /// Number of distinct prefixes that flap.
        count: usize,
        /// Seconds between a withdraw and its re-announce (and between
        /// cycles).
        period_secs: u64,
        /// Number of withdraw/announce cycles.
        flaps: u32,
        /// Whether the final re-announce is damped (delayed by the
        /// suppression window) instead of immediate.
        damped: bool,
    },
}

/// Seeded set of [`ChurnScenario`]s — same config + same table ⇒ the
/// same update stream, byte for byte.
#[derive(Debug, Clone, Default)]
pub struct ChurnConfig {
    /// Master seed; each scenario derives an independent stream.
    pub seed: u64,
    /// Scenarios to superimpose (their batches merge by timestamp).
    pub scenarios: Vec<ChurnScenario>,
}

/// Generate a deterministic timed update stream exercising `config`'s
/// scenarios against prefixes of `table`.
///
/// Prefixes are sampled without replacement per scenario (scenarios may
/// overlap; a withdraw of an already-withdrawn prefix is a no-op at
/// apply time). Events across scenarios landing on the same second
/// coalesce into one batch; batches come out in ascending time order,
/// ready for `eleph_pipeline`'s schedule or `eleph_bgp::dump`'s update
/// stream writer.
pub fn generate_churn(table: &BgpTable, config: &ChurnConfig) -> Vec<UpdateBatch> {
    let entries: Vec<RouteEntry> = table.iter().cloned().collect();
    let mut events: BTreeMap<u64, Vec<RouteUpdate>> = BTreeMap::new();
    let mut push = |at: u64, update: RouteUpdate| events.entry(at).or_default().push(update);
    for (i, scenario) in config.scenarios.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(mix64(config.seed ^ (i as u64).wrapping_mul(0x9E37)));
        match *scenario {
            ChurnScenario::WithdrawReannounceStorm {
                at_unix,
                count,
                hold_secs,
            } => {
                for e in sample(&entries, count, &mut rng) {
                    push(at_unix, RouteUpdate::Withdraw(e.prefix));
                    push(at_unix + hold_secs, RouteUpdate::Announce(e.clone()));
                }
            }
            ChurnScenario::Flap {
                start_unix,
                count,
                period_secs,
                flaps,
                damped,
            } => {
                for e in sample(&entries, count, &mut rng) {
                    for k in 0..u64::from(flaps.max(1)) {
                        let down = start_unix + k * 2 * period_secs;
                        push(down, RouteUpdate::Withdraw(e.prefix));
                        let last = k + 1 == u64::from(flaps.max(1));
                        if last && damped {
                            // Suppressed: the route stays down for the
                            // full damping window before returning.
                            push(down + 8 * period_secs, RouteUpdate::Announce(e.clone()));
                        } else {
                            push(down + period_secs, RouteUpdate::Announce(e.clone()));
                        }
                    }
                }
            }
        }
    }
    events
        .into_iter()
        .map(|(at_unix, updates)| UpdateBatch { at_unix, updates })
        .collect()
}

/// `count` distinct entries chosen by partial Fisher–Yates over the
/// index space (stable in table iteration order, so deterministic).
fn sample<'e>(entries: &'e [RouteEntry], count: usize, rng: &mut StdRng) -> Vec<&'e RouteEntry> {
    let n = entries.len();
    let count = count.min(n);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..count {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx[..count].iter().map(|&i| &entries[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn churn_table() -> BgpTable {
        use eleph_bgp::{Origin, PeerClass};
        use std::net::Ipv4Addr;
        BgpTable::from_entries((0u8..20).map(|i| RouteEntry {
            prefix: format!("10.{i}.0.0/16").parse().unwrap(),
            next_hop: Ipv4Addr::new(192, 0, 2, i),
            as_path: vec![1239, 700 + u32::from(i)],
            origin: Origin::Igp,
            peer_class: PeerClass::Tier1,
        }))
    }

    #[test]
    fn churn_is_deterministic_and_time_ordered() {
        let table = churn_table();
        let config = ChurnConfig {
            seed: 11,
            scenarios: vec![
                ChurnScenario::WithdrawReannounceStorm {
                    at_unix: 100,
                    count: 5,
                    hold_secs: 30,
                },
                ChurnScenario::Flap {
                    start_unix: 90,
                    count: 2,
                    period_secs: 15,
                    flaps: 3,
                    damped: false,
                },
            ],
        };
        let a = generate_churn(&table, &config);
        let b = generate_churn(&table, &config);
        assert_eq!(a, b, "same seed must reproduce the stream");
        assert!(
            a.windows(2).all(|w| w[0].at_unix < w[1].at_unix),
            "ascending, coalesced"
        );
        let total: usize = a.iter().map(|b| b.updates.len()).sum();
        // Storm: 5 withdraws + 5 announces; flap: 2 × 3 × 2 events.
        assert_eq!(total, 10 + 12);
        // A different seed picks (with high probability) different prefixes.
        let c = generate_churn(
            &table,
            &ChurnConfig {
                seed: 12,
                ..config.clone()
            },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn storm_withdraws_then_reannounces_the_same_prefixes() {
        let table = churn_table();
        let config = ChurnConfig {
            seed: 3,
            scenarios: vec![ChurnScenario::WithdrawReannounceStorm {
                at_unix: 50,
                count: 4,
                hold_secs: 10,
            }],
        };
        let batches = generate_churn(&table, &config);
        assert_eq!(batches.len(), 2);
        assert_eq!((batches[0].at_unix, batches[1].at_unix), (50, 60));
        let down: Vec<_> = batches[0]
            .updates
            .iter()
            .map(|u| match u {
                RouteUpdate::Withdraw(p) => *p,
                other => panic!("storm batch 0 must be withdraws, got {other:?}"),
            })
            .collect();
        let up: Vec<_> = batches[1]
            .updates
            .iter()
            .map(|u| match u {
                RouteUpdate::Announce(e) => e.prefix,
                other => panic!("storm batch 1 must be announces, got {other:?}"),
            })
            .collect();
        assert_eq!(down, up, "every withdrawn prefix returns");
        assert_eq!(down.len(), 4);
        // Distinct prefixes: sampling is without replacement.
        let mut uniq = down.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), down.len());
    }

    #[test]
    fn damped_flap_suppresses_final_reannounce() {
        let table = churn_table();
        let config = ChurnConfig {
            seed: 7,
            scenarios: vec![ChurnScenario::Flap {
                start_unix: 1000,
                count: 1,
                period_secs: 10,
                flaps: 2,
                damped: true,
            }],
        };
        let batches = generate_churn(&table, &config);
        let times: Vec<u64> = batches.iter().map(|b| b.at_unix).collect();
        // Cycle 0: down 1000, up 1010. Cycle 1 (last, damped): down
        // 1020, suppressed until 1020 + 8×10 = 1100.
        assert_eq!(times, vec![1000, 1010, 1020, 1100]);
        assert!(matches!(batches[3].updates[0], RouteUpdate::Announce(_)));
    }

    #[test]
    fn churn_applies_cleanly_to_a_live_table() {
        use eleph_bgp::LiveBgpTable;
        let table = churn_table();
        let live = LiveBgpTable::from_table(&table);
        let config = ChurnConfig {
            seed: 21,
            scenarios: vec![
                ChurnScenario::WithdrawReannounceStorm {
                    at_unix: 0,
                    count: 8,
                    hold_secs: 5,
                },
                ChurnScenario::Flap {
                    start_unix: 2,
                    count: 3,
                    period_secs: 3,
                    flaps: 2,
                    damped: true,
                },
            ],
        };
        for batch in generate_churn(&table, &config) {
            live.apply(&batch.updates);
        }
        // Every scenario re-announces what it withdraws, so the live
        // route count ends where it started.
        assert_eq!(live.len(), table.len());
    }
}
