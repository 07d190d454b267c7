//! Fault injection for raw packet streams and the routing control
//! plane.
//!
//! Mirrors the fault-injection options of smoltcp's examples
//! (`--drop-chance`, `--corrupt-chance`, …): measurement infrastructure
//! must account for damaged input rather than crash or silently
//! miscount, and the robustness tests drive the pipeline through this
//! injector to prove it. [`generate_churn`] extends the same idea to
//! the routing table: deterministic announce/withdraw storms and
//! flap-damping scenarios stress mid-stream re-attribution.

use eleph_bgp::{BgpTable, RouteEntry, RouteUpdate, UpdateBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

use crate::mix64;

/// Probabilities for each fault class, evaluated independently per
/// packet in the order drop → corrupt → truncate.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Probability the packet is dropped entirely.
    pub drop_prob: f64,
    /// Probability one random bit is flipped.
    pub corrupt_prob: f64,
    /// Probability the packet is truncated to a random shorter length.
    pub truncate_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl FaultConfig {
    /// No faults at all.
    pub fn none() -> Self {
        FaultConfig {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            truncate_prob: 0.0,
            seed: 0,
        }
    }

    /// Check every probability is a real number in [0, 1].
    ///
    /// `gen_bool`-style sampling silently misbehaves on NaN or
    /// out-of-range values, so a config is rejected up front with the
    /// offending field named.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("corrupt_prob", self.corrupt_prob),
            ("truncate_prob", self.truncate_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability in [0, 1], got {p}"));
            }
        }
        Ok(())
    }
}

/// Counters for what the injector did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets offered to the injector.
    pub seen: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Packets with a bit flipped.
    pub corrupted: u64,
    /// Packets truncated.
    pub truncated: u64,
}

/// What happened to a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Packet continues (possibly mutated).
    Forwarded,
    /// Packet is gone; the caller must not process it.
    Dropped,
}

/// Stateful fault injector.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: StdRng,
    stats: FaultStats,
}

impl FaultInjector {
    /// Create an injector; deterministic in `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics when a probability is NaN or outside [0, 1] (see
    /// [`FaultInjector::try_new`] for the non-panicking form).
    pub fn new(config: FaultConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("invalid fault config: {e}"))
    }

    /// Create an injector, rejecting NaN / out-of-range probabilities.
    pub fn try_new(config: FaultConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(FaultInjector {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            stats: FaultStats::default(),
        })
    }

    /// Apply faults to one packet in place.
    pub fn apply(&mut self, packet: &mut Vec<u8>) -> FaultAction {
        self.stats.seen += 1;
        if self.rng.gen::<f64>() < self.config.drop_prob {
            self.stats.dropped += 1;
            return FaultAction::Dropped;
        }
        if !packet.is_empty() && self.rng.gen::<f64>() < self.config.corrupt_prob {
            let idx = self.rng.gen_range(0..packet.len());
            let bit = self.rng.gen_range(0..8u8);
            packet[idx] ^= 1 << bit;
            self.stats.corrupted += 1;
        }
        if packet.len() > 1 && self.rng.gen::<f64>() < self.config.truncate_prob {
            let keep = self.rng.gen_range(1..packet.len());
            packet.truncate(keep);
            self.stats.truncated += 1;
        }
        FaultAction::Forwarded
    }

    /// Counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

/// Where, within the seal → emit → checkpoint sequence, a *process*
/// fault strikes. Packet damage (above) exercises the input path; these
/// exercise the recovery path — each point leaves a distinct on-disk
/// state the resume logic must reconcile:
///
/// - [`CrashPoint::AfterSeal`]: the classifier advanced in memory but
///   the interval never reached a sink — resume replays it from the
///   previous checkpoint.
/// - [`CrashPoint::AfterSink`]: the interval is durably written but the
///   checkpoint still describes the previous one — resume must truncate
///   the duplicate record before replaying.
/// - [`CrashPoint::MidCheckpointWrite`]: the new snapshot is torn —
///   resume must fall back to the last complete checkpoint, never read
///   a partial one.
/// - [`CrashPoint::MidLogAppend`]: the checkpoint log holds half of the
///   new image's records past the watermark the durable image records —
///   resume must cut them off.
/// - [`CrashPoint::LogSyncedImageNotRenamed`]: the log append is durable
///   and the new image complete in its temp file, but the old image is
///   still the one in place — resume cuts the log back to it.
/// - [`CrashPoint::MidCompaction`]: a compaction has written the new log
///   beside the old one, and no image names it yet — resume must delete
///   it and keep reading the old log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// After an interval seals, before any sink sees it.
    AfterSeal,
    /// After the sinks wrote the interval, before the checkpoint.
    AfterSink,
    /// Midway through writing the checkpoint file.
    MidCheckpointWrite,
    /// Midway through appending the image's records to the checkpoint
    /// log, before any image is written.
    MidLogAppend,
    /// After the log append is synced and the image written to its temp
    /// file, before the rename.
    LogSyncedImageNotRenamed,
    /// After a compaction has written and synced the new log, before the
    /// image naming it is renamed into place and the old log removed.
    MidCompaction,
}

impl CrashPoint {
    /// Every crash point, for exhaustive harness loops.
    pub const ALL: [CrashPoint; 6] = [
        CrashPoint::AfterSeal,
        CrashPoint::AfterSink,
        CrashPoint::MidCheckpointWrite,
        CrashPoint::MidLogAppend,
        CrashPoint::LogSyncedImageNotRenamed,
        CrashPoint::MidCompaction,
    ];
}

/// A one-shot trigger that simulates a crash at a chosen [`CrashPoint`]
/// on a chosen interval. The pipeline polls it at each point; when it
/// trips, the run aborts exactly as a SIGKILL would at that instruction
/// (no unwinding of already-durable effects).
#[derive(Debug, Clone)]
pub struct CrashSwitch {
    point: CrashPoint,
    at_seal: usize,
    tripped: bool,
}

impl CrashSwitch {
    /// Crash at `point` while sealing interval `at_seal` (0-based).
    pub fn new(point: CrashPoint, at_seal: usize) -> Self {
        CrashSwitch {
            point,
            at_seal,
            tripped: false,
        }
    }

    /// Poll the switch: true exactly once, at the configured point and
    /// interval.
    pub fn should_crash(&mut self, point: CrashPoint, seal_index: usize) -> bool {
        if !self.tripped && point == self.point && seal_index == self.at_seal {
            self.tripped = true;
            true
        } else {
            false
        }
    }
}

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
            ChurnScenario::WithdrawReannounceStorm { at_unix, count, hold_secs } => {
                for e in sample(&entries, count, &mut rng) {
                    push(at_unix, RouteUpdate::Withdraw(e.prefix));
                    push(at_unix + hold_secs, RouteUpdate::Announce(e.clone()));
                }
            }
            ChurnScenario::Flap { start_unix, count, period_secs, flaps, damped } => {
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

    fn packet() -> Vec<u8> {
        (0u8..64).collect()
    }

    #[test]
    fn no_faults_is_identity() {
        let mut inj = FaultInjector::new(FaultConfig::none());
        for _ in 0..100 {
            let mut p = packet();
            assert_eq!(inj.apply(&mut p), FaultAction::Forwarded);
            assert_eq!(p, packet());
        }
        assert_eq!(
            inj.stats(),
            FaultStats {
                seen: 100,
                ..Default::default()
            }
        );
    }

    #[test]
    fn drop_rate_approximates_probability() {
        let mut inj = FaultInjector::new(FaultConfig {
            drop_prob: 0.3,
            corrupt_prob: 0.0,
            truncate_prob: 0.0,
            seed: 5,
        });
        let mut dropped = 0;
        for _ in 0..10_000 {
            let mut p = packet();
            if inj.apply(&mut p) == FaultAction::Dropped {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "drop rate {rate}");
        assert_eq!(inj.stats().dropped, dropped);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut inj = FaultInjector::new(FaultConfig {
            drop_prob: 0.0,
            corrupt_prob: 1.0,
            truncate_prob: 0.0,
            seed: 6,
        });
        for _ in 0..100 {
            let mut p = packet();
            assert_eq!(inj.apply(&mut p), FaultAction::Forwarded);
            let diff_bits: u32 = p
                .iter()
                .zip(packet())
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(diff_bits, 1);
        }
        assert_eq!(inj.stats().corrupted, 100);
    }

    #[test]
    fn truncation_shortens_but_never_empties() {
        let mut inj = FaultInjector::new(FaultConfig {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            truncate_prob: 1.0,
            seed: 7,
        });
        for _ in 0..100 {
            let mut p = packet();
            inj.apply(&mut p);
            assert!(!p.is_empty());
            assert!(p.len() < 64);
        }
        assert_eq!(inj.stats().truncated, 100);
    }

    #[test]
    fn deterministic_in_seed() {
        let run = || {
            let mut inj = FaultInjector::new(FaultConfig {
                drop_prob: 0.2,
                corrupt_prob: 0.2,
                truncate_prob: 0.2,
                seed: 42,
            });
            let mut out = Vec::new();
            for _ in 0..200 {
                let mut p = packet();
                let act = inj.apply(&mut p);
                out.push((act, p));
            }
            (out, inj.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn bad_probabilities_are_rejected() {
        for bad in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let config = FaultConfig {
                drop_prob: bad,
                ..FaultConfig::none()
            };
            let err = FaultInjector::try_new(config).unwrap_err();
            assert!(err.contains("drop_prob"), "error names the field: {err}");
        }
        let config = FaultConfig {
            truncate_prob: 2.0,
            ..FaultConfig::none()
        };
        assert!(FaultInjector::try_new(config).unwrap_err().contains("truncate_prob"));
        // Boundary values are legal.
        for p in [0.0, 1.0] {
            let config = FaultConfig {
                drop_prob: p,
                corrupt_prob: p,
                truncate_prob: p,
                ..FaultConfig::none()
            };
            assert!(FaultInjector::try_new(config).is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "invalid fault config")]
    fn new_panics_on_nan() {
        let _ = FaultInjector::new(FaultConfig {
            corrupt_prob: f64::NAN,
            ..FaultConfig::none()
        });
    }

    #[test]
    fn crash_switch_fires_exactly_once() {
        let mut switch = CrashSwitch::new(CrashPoint::AfterSink, 2);
        assert!(!switch.should_crash(CrashPoint::AfterSeal, 2), "wrong point");
        assert!(!switch.should_crash(CrashPoint::AfterSink, 1), "wrong interval");
        assert!(!switch.tripped);
        assert!(switch.should_crash(CrashPoint::AfterSink, 2));
        assert!(switch.tripped);
        assert!(!switch.should_crash(CrashPoint::AfterSink, 2), "one-shot");
    }

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
                ChurnScenario::WithdrawReannounceStorm { at_unix: 100, count: 5, hold_secs: 30 },
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
        assert!(a.windows(2).all(|w| w[0].at_unix < w[1].at_unix), "ascending, coalesced");
        let total: usize = a.iter().map(|b| b.updates.len()).sum();
        // Storm: 5 withdraws + 5 announces; flap: 2 × 3 × 2 events.
        assert_eq!(total, 10 + 12);
        // A different seed picks (with high probability) different prefixes.
        let c = generate_churn(&table, &ChurnConfig { seed: 12, ..config.clone() });
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
                ChurnScenario::WithdrawReannounceStorm { at_unix: 0, count: 8, hold_secs: 5 },
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

    #[test]
    fn empty_packet_never_panics() {
        let mut inj = FaultInjector::new(FaultConfig {
            drop_prob: 0.1,
            corrupt_prob: 0.9,
            truncate_prob: 0.9,
            seed: 9,
        });
        for _ in 0..50 {
            let mut p = Vec::new();
            let _ = inj.apply(&mut p);
        }
    }
}
