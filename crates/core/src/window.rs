//! The per-interval classifier step: one sliding window of bandwidth
//! sums and one membership rule per interval.
//!
//! The state splits in two. [`KeySums`] holds the per-key sliding sums,
//! which depend only on the rows and on the window length `w`, so every
//! configuration with the same `w` over the same rows can read one of
//! them. [`SchemeState`] holds what one configuration adds: its EWMA,
//! its window of threshold terms and their sum, and the hysteresis
//! members. [`SchemeState::step`] is the one per-interval step — EWMA →
//! threshold term → window → scheme rule — that every driver calls:
//! the streaming classifier with the window it keeps for checkpoints,
//! and the batch driver ([`crate::Sweep`]) with the windows it shares
//! between configurations. Both perform the identical float operation
//! sequence, so their outputs agree by bits.

use std::collections::VecDeque;

use eleph_flow::KeyId;

use crate::bits::KeyBitset;
use crate::{Scheme, ThresholdSeries};

/// The finite stand-in for the threshold term of an interval that has
/// no threshold yet: the interval's largest rate + 1.
fn unbeatable(values: &[f64]) -> f64 {
    values.iter().cloned().fold(0.0, f64::max) + 1.0
}

/// Sliding latent-heat sums, dense over ids, over the last `w` rows.
///
/// `sum[k]` is `Σ B_k(j)` over the window slots in which `k` was
/// active and `live[k]` counts those slots. The count makes retirement
/// *exact*: when a key's last in-window activity retires, its sum is
/// reset to literal `0.0` instead of relying on add/subtract round trips
/// to cancel — accumulated f64 rounding can otherwise leave a residue
/// (positive = a phantom elephant that never goes away, negative = a
/// live micro-flow wrongly suppressed). A mid-window negative excursion
/// (possible only under catastrophic cancellation of enormously
/// mismatched rates) is clamped to 0.
///
/// It keeps no rows: its owner slides each row in and retires, `w` rows
/// later, exactly the row it slid in.
#[derive(Debug, Default)]
pub(crate) struct KeySums {
    sum: Vec<f64>,
    live: Vec<u32>,
    /// Ids with `live > 0`; ordered iteration emits elephants ascending.
    in_window: KeyBitset,
}

impl KeySums {
    /// Add one row to the window.
    pub(crate) fn slide_in(&mut self, row: &[(KeyId, f32)]) {
        for &(id, rate) in row {
            let k = id as usize;
            if k >= self.live.len() {
                self.live.resize(k + 1, 0);
                self.sum.resize(k + 1, 0.0);
            }
            if self.live[k] == 0 {
                self.sum[k] = f64::from(rate);
                self.in_window.insert(id);
            } else {
                self.sum[k] += f64::from(rate);
            }
            self.live[k] += 1;
        }
    }

    /// Take the window's oldest row back out: exactly what
    /// [`KeySums::slide_in`] was given for it.
    pub(crate) fn retire(&mut self, row: &[(KeyId, f32)]) {
        for &(id, rate) in row {
            let k = id as usize;
            self.live[k] -= 1;
            if self.live[k] == 0 {
                self.sum[k] = 0.0;
                self.in_window.remove(id);
            } else {
                self.sum[k] = (self.sum[k] - f64::from(rate)).max(0.0);
            }
        }
    }

    /// Number of ids currently holding window state — zero again once
    /// every id has been idle for a full window.
    pub(crate) fn tracked(&self) -> usize {
        self.in_window.len()
    }

    /// The sums as a checkpoint carries them: `(id, sliding sum,
    /// occupied slots)` for every id in the window, ascending.
    pub(crate) fn export(&self) -> Vec<(KeyId, f64, u32)> {
        let row = |id: KeyId| (id, self.sum[id as usize], self.live[id as usize]);
        self.in_window.iter().map(row).collect()
    }

    /// Rebuild from [`KeySums::export`]ed entries. The caller has
    /// validated them: ids ascending and below the id count the state
    /// may be sized for.
    pub(crate) fn restore(per_key: &[(KeyId, f64, u32)]) -> Self {
        let n_ids = per_key.last().map_or(0, |&(id, _, _)| id as usize + 1);
        let mut sums = KeySums {
            sum: vec![0.0; n_ids],
            live: vec![0; n_ids],
            in_window: KeyBitset::with_capacity(n_ids),
        };
        for &(id, sum, live) in per_key {
            sums.sum[id as usize] = sum;
            sums.live[id as usize] = live;
            sums.in_window.insert(id);
        }
        sums
    }
}

/// One interval's classification by one configuration.
#[derive(Debug)]
pub(crate) struct Step {
    /// The smoothed threshold `T̄(n)`.
    pub threshold: f64,
    /// The elephants, ascending.
    pub elephants: Vec<KeyId>,
    /// Their load: each elephant's rate this interval (0 when inactive),
    /// added in ascending id order.
    pub elephant_load: f64,
}

/// One configuration's classifier state between intervals: the EWMA,
/// the window's threshold terms (oldest first) and their sliding sum,
/// and the hysteresis membership.
#[derive(Debug)]
pub(crate) struct SchemeState {
    scheme: Scheme,
    window: usize,
    series: ThresholdSeries,
    /// The threshold term each in-window interval slid in with, to
    /// retire it by.
    t_terms: VecDeque<f64>,
    /// Sliding sum of `t_terms`.
    sum_t: f64,
    /// The previous interval's elephants, ascending (hysteresis only).
    members: Vec<KeyId>,
    /// The current interval's elephants as they are picked: a buffer
    /// reused from interval to interval, so each list handed out is
    /// allocated at its exact length.
    picked: Vec<KeyId>,
}

impl SchemeState {
    /// Fresh state. Panics when γ is outside [0, 1), a latent-heat
    /// window is 0, or the hysteresis multipliers are not `0 <= exit <=
    /// 1 <= enter`.
    pub(crate) fn new(gamma: f64, scheme: Scheme) -> Self {
        SchemeState {
            scheme,
            window: scheme.window(),
            series: ThresholdSeries::new(gamma),
            // Grows with the run: it never holds more than `window`
            // entries, and a window can be far longer than any run.
            t_terms: VecDeque::new(),
            sum_t: 0.0,
            members: Vec::new(),
            picked: Vec::new(),
        }
    }

    /// The configuration's scheme.
    pub(crate) fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The window length the scheme classifies over (1 for the
    /// single-interval schemes).
    pub(crate) fn window(&self) -> usize {
        self.window
    }

    /// The EWMA's smoothing factor γ.
    pub(crate) fn gamma(&self) -> f64 {
        self.series.gamma()
    }

    /// Classify one interval, the one per-interval step of every driver:
    /// the raw detection (`None` = the detector abstained) goes into the
    /// EWMA; the smoothed threshold — or, before the first detection,
    /// the finite stand-in computed from `values` — enters the window's
    /// threshold sum, and the term `window` intervals back leaves it;
    /// then the scheme's rule picks the elephants of `row`.
    ///
    /// `values` are `row`'s rates as f64 (the detector's input) and
    /// `sums` the per-key window over `w = self.window()` rows with `row`
    /// already slid in and the row `w` back retired; only latent heat
    /// reads it.
    pub(crate) fn step(
        &mut self,
        raw: Option<f64>,
        values: &[f64],
        sums: Option<&KeySums>,
        row: &[(KeyId, f32)],
    ) -> Step {
        let threshold = self.series.observe_raw(raw);
        // Before the first detection the threshold is infinite, which
        // would poison the sliding sum; the finite stand-in models "no
        // flow can beat this interval" instead.
        let t_term = if threshold.is_finite() { threshold } else { unbeatable(values) };
        self.sum_t += t_term;
        self.t_terms.push_back(t_term);
        if self.t_terms.len() > self.window {
            self.sum_t -= self.t_terms.pop_front().expect("len checked");
        }

        // Elephants come out ascending and the load is added in that
        // order, for bit-identical float sums on every path.
        let picked = &mut self.picked;
        picked.clear();
        let mut elephant_load = 0.0f64;
        let mut emit = |id: KeyId, term: f64| {
            picked.push(id);
            elephant_load += term;
        };
        match self.scheme {
            Scheme::SingleFeature => {
                for &(id, rate) in row {
                    let b = f64::from(rate);
                    if b > threshold {
                        emit(id, b);
                    }
                }
            }
            // An interval with zero attributed packets — a capture gap,
            // not a flow dip — emits no elephants: there is no load to
            // apportion, and a monitor must not keep alerting on stale
            // window state. The window itself still slides, so flows
            // resume their standing when traffic returns.
            Scheme::LatentHeat { .. } if row.is_empty() => {}
            Scheme::LatentHeat { .. } => {
                let sums = sums.expect("latent heat reads the key sums");
                // Window ids and row both ascend: the load join is an
                // ordered merge.
                let mut row = row.iter().peekable();
                for id in sums.in_window.iter() {
                    if sums.sum[id as usize] > self.sum_t {
                        while row.next_if(|&&(k, _)| k < id).is_some() {}
                        let active = row.next_if(|&&(k, _)| k == id);
                        emit(id, active.map_or(0.0, |&(_, rate)| f64::from(rate)));
                    }
                }
            }
            Scheme::Hysteresis { enter, exit } => {
                // Membership becomes exactly the current elephant set;
                // the previous one ascends like the row does.
                let mut was = std::mem::take(&mut self.members).into_iter().peekable();
                for &(id, rate) in row {
                    while was.next_if(|&m| m < id).is_some() {}
                    let b = f64::from(rate);
                    let keep = if was.next_if_eq(&id).is_some() {
                        b >= exit * threshold
                    } else {
                        b > enter * threshold
                    };
                    if keep {
                        self.members.push(id);
                        emit(id, b);
                    }
                }
            }
        }
        Step { threshold, elephants: self.picked.to_vec(), elephant_load }
    }

    /// The state as a checkpoint carries it: the smoothed threshold, the
    /// in-window threshold terms (oldest first), their sliding sum and
    /// the hysteresis membership.
    pub(crate) fn export(&self) -> (Option<f64>, &VecDeque<f64>, f64, &[KeyId]) {
        (self.series.smoothed_value(), &self.t_terms, self.sum_t, &self.members)
    }

    /// Continue from [`SchemeState::export`]ed parts. The caller has
    /// validated them against the scheme.
    pub(crate) fn restore(
        &mut self,
        smoothed: Option<f64>,
        t_terms: VecDeque<f64>,
        sum_t: f64,
        members: Vec<KeyId>,
    ) {
        self.series = ThresholdSeries::new(self.series.gamma());
        if let Some(smoothed) = smoothed {
            // A first detection sets the EWMA to exactly its value.
            self.series.observe_raw(Some(smoothed));
        }
        self.t_terms = t_terms;
        self.sum_t = sum_t;
        self.members = members;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Before the first detection the threshold term is the interval's
    /// largest rate + 1. Under latent heat over two intervals a key at
    /// that largest rate, which then sits within 1 b/s above the first
    /// detected threshold, has a window sum short of the threshold sum
    /// by less than 1 — so the `+ 1` alone decides its membership.
    #[test]
    fn the_stand_in_beats_the_interval_maximum_by_one() {
        let elephants_at = |rate: f32| {
            let mut state = SchemeState::new(0.5, Scheme::LatentHeat { window: 2 });
            let mut sums = KeySums::default();
            // Interval 0: the detector abstains; key 0 is the largest.
            let row = [(0, 100.0), (1, 40.0)];
            sums.slide_in(&row);
            let step = state.step(None, &[100.0, 40.0], Some(&sums), &row);
            assert!(step.threshold.is_infinite() && step.elephants.is_empty());
            // Interval 1: the first detection, 50. Key 0's window sum is
            // 100 + rate against the threshold sum 101 + 50.
            let row = [(0, rate), (1, 10.0)];
            sums.slide_in(&row);
            let step = state.step(Some(50.0), &[f64::from(rate), 10.0], Some(&sums), &row);
            assert_eq!(step.threshold, 50.0);
            step.elephants
        };
        assert_eq!(elephants_at(50.5), Vec::<KeyId>::new());
        assert_eq!(elephants_at(51.5), vec![0]);
    }
}
