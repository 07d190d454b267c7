//! The paper's method as one plain program: the executable
//! specification every streaming, sharded, sketched and resumed run of
//! the pipeline is held to (`tests/tests/model.rs`).
//!
//! Per interval of `T` seconds, every packet's bytes go to the key of
//! the route its destination matches longest; the interval's rates feed
//! a constant-load detector, an EWMA smooths its threshold, and one of
//! three rules — single feature, latent heat or hysteresis — names the
//! elephants. Nothing here is shared with the engine: the table is a
//! [`LinearLpm`] over a list of announcements, an interval is a
//! `BTreeMap`, the detector sorts a `Vec`, and the window is a
//! `VecDeque` of the intervals it holds. What the engine must reproduce
//! to the bit is written out where it happens: the rate expression, the
//! `+0.0` fold of the totals, the stand-in for an infinite threshold,
//! and the order in which latent-heat sums are added and taken back.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use eleph_bgp::{RouteEntry, RouteUpdate, UpdateBatch};
use eleph_flow::KeyId;
use eleph_net::{LinearLpm, Prefix};
use eleph_packet::PacketMeta;

const NS: u64 = 1_000_000_000;

/// The membership rule applied to each interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Elephant iff the interval's rate beats the smoothed threshold.
    Single,
    /// Elephant iff its rates over the last `window` intervals, summed,
    /// beat their thresholds summed.
    LatentHeat { window: usize },
    /// A key enters above `enter ×` the threshold and stays while it is
    /// at least `exit ×` the threshold.
    Hysteresis { enter: f64, exit: f64 },
}

/// Everything a run is configured with.
#[derive(Debug, Clone)]
pub struct Config {
    /// Interval length `T` in seconds.
    pub interval_secs: u64,
    /// Unix time interval 0 starts at.
    pub start_unix: u64,
    /// Intervals in the window; `None` seals through the last interval
    /// that carried traffic.
    pub n_intervals: Option<usize>,
    /// The constant-load share β.
    pub beta: f64,
    /// The detector abstains on an interval with fewer keys than this.
    pub quiet_below: usize,
    /// EWMA memory γ.
    pub gamma: f64,
    pub rule: Rule,
}

/// Packet accounting: every offered record lands in exactly one of the
/// counters after `offered`, `attributed_bytes` aside. Out of window is
/// before the window or past its end; late is for a sealed interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    pub offered: u64,
    pub attributed: u64,
    pub attributed_bytes: u64,
    pub unroutable: u64,
    pub out_of_window: u64,
    pub malformed: u64,
    pub late: u64,
}

/// One sealed interval: the smoothed threshold (infinite before the
/// first detection), the elephants ascending, their rates summed in key
/// order, and every rate summed in key order from `+0.0`.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub threshold: f64,
    pub elephants: Vec<KeyId>,
    pub elephant_load: f64,
    pub total_load: f64,
}

/// Run a capture through the method: `records` in capture order, `None`
/// for a record that did not parse (offered, never binned); `routes` is
/// the table at the start, and each batch of `schedule` (in time order)
/// applies just before the first packet stamped at or after its time.
pub fn run(
    config: &Config,
    routes: &[RouteEntry],
    schedule: &[UpdateBatch],
    records: &[Option<PacketMeta>],
) -> Run {
    let mut model = Run::default();
    for route in routes {
        model.announce(route.prefix);
    }
    let mut due = schedule.iter().peekable();
    for record in records {
        let Some(packet) = record else {
            model.stats.offered += 1;
            model.stats.malformed += 1;
            continue;
        };
        while let Some(batch) = due.next_if(|b| b.at_unix * NS <= packet.ts_ns) {
            model.generation += 1;
            for update in &batch.updates {
                match update {
                    RouteUpdate::Announce(route) => model.announce(route.prefix),
                    RouteUpdate::Withdraw(prefix) => _ = model.table.remove(*prefix),
                }
            }
        }
        model.packet(config, packet);
    }
    match config.n_intervals {
        Some(n) => (model.outcomes.len()..n).for_each(|_| model.seal(config)),
        None if !model.row.is_empty() => model.seal(config),
        None => {}
    }
    model
}

/// A run of the method: what it produced — an outcome per sealed
/// interval, `keys[k]` the prefix of key `k` (numbered as first seen),
/// the accounting, the number of update batches applied — and what it
/// keeps from one packet to the next.
#[derive(Default)]
pub struct Run {
    pub outcomes: Vec<Outcome>,
    pub keys: Vec<Prefix>,
    pub stats: Stats,
    pub generation: u64,
    /// Prefix → the announcement routing it, numbered in announcement
    /// order: a re-announced prefix is a new announcement, so its
    /// traffic goes to a new key.
    table: LinearLpm<usize>,
    announcements: usize,
    /// Announcement → its key.
    key_of: BTreeMap<usize, KeyId>,
    /// The open interval's bytes per key (only keys with bytes).
    row: BTreeMap<KeyId, u64>,
    smoothed: Option<f64>,
    /// Latent heat: the window's (threshold term, rates), oldest first,
    /// each key's (sliding sum, slots it occupies), and the terms' sum.
    window: VecDeque<(f64, Vec<(KeyId, f32)>)>,
    sums: BTreeMap<KeyId, (f64, u32)>,
    sum_t: f64,
    /// Hysteresis: the last interval's elephants.
    members: BTreeSet<KeyId>,
}

impl Run {
    fn announce(&mut self, prefix: Prefix) {
        self.table.insert(prefix, self.announcements);
        self.announcements += 1;
    }

    fn packet(&mut self, config: &Config, packet: &PacketMeta) {
        self.stats.offered += 1;
        let (start, t) = (config.start_unix * NS, config.interval_secs * NS);
        let interval = packet.ts_ns.checked_sub(start).map(|ns| (ns / t) as usize);
        let Some(interval) = interval.filter(|&i| config.n_intervals.is_none_or(|n| i < n)) else {
            self.stats.out_of_window += 1;
            return;
        };
        if interval < self.outcomes.len() {
            self.stats.late += 1;
            return;
        }
        // A packet closes the intervals before its own, routed or not.
        while self.outcomes.len() < interval {
            self.seal(config);
        }
        let Some((prefix, &announcement)) = self.table.lookup_addr(packet.dst) else {
            self.stats.unroutable += 1;
            return;
        };
        let next = self.keys.len() as KeyId;
        let key = *self.key_of.entry(announcement).or_insert(next);
        if key == next {
            self.keys.push(prefix);
        }
        let bytes = u64::from(packet.wire_len);
        if bytes > 0 {
            *self.row.entry(key).or_default() += bytes;
        }
        self.stats.attributed += 1;
        self.stats.attributed_bytes += bytes;
    }

    fn seal(&mut self, config: &Config) {
        let secs = config.interval_secs as f64;
        let rates: Vec<(KeyId, f32)> = std::mem::take(&mut self.row)
            .into_iter()
            .map(|(key, bytes)| (key, (bytes as f64 * 8.0 / secs) as f32))
            .collect();
        let values: Vec<f64> = rates.iter().map(|&(_, r)| f64::from(r)).collect();
        let threshold = match detect(config, &values) {
            Some(raw) => {
                let gamma = config.gamma;
                let smoothed = self
                    .smoothed
                    .map_or(raw, |prev| gamma * prev + (1.0 - gamma) * raw);
                *self.smoothed.insert(smoothed)
            }
            None => self.smoothed.unwrap_or(f64::INFINITY),
        };
        let all = rates.iter().map(|&(key, r)| (key, f64::from(r)));
        let elephants: Vec<(KeyId, f64)> = match config.rule {
            Rule::Single => all.filter(|&(_, b)| b > threshold).collect(),
            Rule::Hysteresis { enter, exit } => {
                let was = std::mem::take(&mut self.members);
                let (enter, exit) = (enter * threshold, exit * threshold);
                let stays = |key, b| b > enter || was.contains(&key) && b >= exit;
                let kept: Vec<(KeyId, f64)> = all.filter(|&(key, b)| stays(key, b)).collect();
                self.members = kept.iter().map(|&(key, _)| key).collect();
                kept
            }
            Rule::LatentHeat { window } => {
                // Before the first detection nothing may beat an
                // interval: its term is one more than its largest rate.
                let unbeatable = values.iter().cloned().fold(0.0, f64::max) + 1.0;
                let term = if threshold.is_finite() {
                    threshold
                } else {
                    unbeatable
                };
                self.sum_t += term;
                for &(key, r) in &rates {
                    let (sum, slots) = self.sums.entry(key).or_default();
                    *sum = if *slots == 0 {
                        f64::from(r)
                    } else {
                        *sum + f64::from(r)
                    };
                    *slots += 1;
                }
                self.window.push_back((term, rates.clone()));
                if self.window.len() > window {
                    let (term, retired) = self.window.pop_front().expect("longer than the window");
                    self.sum_t -= term;
                    for (key, r) in retired {
                        let (sum, slots) = self.sums.get_mut(&key).expect("slid in before");
                        *slots -= 1;
                        *sum = if *slots == 0 {
                            0.0
                        } else {
                            (*sum - f64::from(r)).max(0.0)
                        };
                    }
                }
                // An interval without traffic names no elephants; its
                // window slides all the same.
                let rate = |key| match rates.binary_search_by_key(&key, |&(k, _)| k) {
                    Ok(i) => f64::from(rates[i].1),
                    Err(_) => 0.0,
                };
                let sum_t = self.sum_t;
                let hot = self
                    .sums
                    .iter()
                    .filter(|(_, &(sum, slots))| slots > 0 && sum > sum_t);
                hot.filter(|_| !rates.is_empty())
                    .map(|(&key, _)| (key, rate(key)))
                    .collect()
            }
        };
        self.outcomes.push(Outcome {
            threshold,
            elephant_load: elephants.iter().fold(0.0, |sum, &(_, b)| sum + b),
            elephants: elephants.into_iter().map(|(key, _)| key).collect(),
            total_load: values.iter().fold(0.0, |sum, v| sum + v),
        });
    }
}

/// β-constant load: the rate at which the rates taken largest first
/// reach β of the interval's total (the smallest rate if rounding never
/// gets there). Abstains on an interval with no traffic or fewer than
/// `quiet_below` keys.
fn detect(config: &Config, values: &[f64]) -> Option<f64> {
    let total: f64 = values.iter().sum();
    if values.is_empty() || values.len() < config.quiet_below || total <= 0.0 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let mut cumulative = 0.0;
    let reached = sorted.iter().find(|&&v| {
        cumulative += v;
        cumulative >= config.beta * total
    });
    reached.or(sorted.last()).copied()
}
