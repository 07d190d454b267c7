//! The per-interval classifier step: one sliding window of bandwidth
//! sums and one membership rule per interval.
//!
//! The state splits in two. [`KeySums`] holds the per-key sliding sums,
//! which depend only on the rows and on the window length `w`, so every
//! configuration with the same `w` over the same rows can read one of
//! them. [`SchemeState`] holds what one configuration adds: its EWMA,
//! its window of threshold terms and their sum, and the hysteresis
//! members. The per-interval step is the threshold update
//! ([`SchemeState::smooth`]: EWMA → threshold term → window) and then
//! the scheme rule: [`SchemeState::pick_single`] for the
//! single-interval schemes, and for latent heat [`latent_heat`], one
//! ascending scan of a window's sums that answers every configuration
//! reading them at once. One driver calls these, [`crate::Sweep`], with
//! the windows it shares between configurations; the streaming
//! classifier is that driver with one configuration.

use std::collections::VecDeque;

use eleph_flow::KeyId;

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
/// mismatched rates) is clamped to 0. So an id out of the window
/// (`live == 0`) holds `+0.0`, and `live` alone says which ids are in
/// it: a slide is loads and stores, and the ids in the window are read
/// by scanning `live` in id order.
///
/// It keeps no rows: its owner slides each row in and retires, `w` rows
/// later, exactly the row it slid in.
#[derive(Debug, Default)]
pub(crate) struct KeySums {
    sum: Vec<f64>,
    live: Vec<u32>,
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
            } else {
                self.sum[k] = (self.sum[k] - f64::from(rate)).max(0.0);
            }
        }
    }

    /// Number of ids currently holding window state — zero again once
    /// every id has been idle for a full window.
    pub(crate) fn tracked(&self) -> usize {
        self.live.iter().filter(|&&live| live != 0).count()
    }

    /// The sums as a checkpoint carries them: `(id, sliding sum,
    /// occupied slots)` for every id in the window, ascending.
    pub(crate) fn export(&self) -> Vec<(KeyId, f64, u32)> {
        let in_window = self.live.iter().enumerate().filter(|&(_, &live)| live != 0);
        in_window.map(|(k, &live)| (k as KeyId, self.sum[k], live)).collect()
    }

    /// Rebuild from [`KeySums::export`]ed entries. The caller has
    /// validated them: ids ascending and below the id count the state
    /// may be sized for.
    pub(crate) fn restore(per_key: &[(KeyId, f64, u32)]) -> Self {
        let n_ids = per_key.last().map_or(0, |&(id, _, _)| id as usize + 1);
        let mut sums = KeySums {
            sum: vec![0.0; n_ids],
            live: vec![0; n_ids],
        };
        for &(id, sum, live) in per_key {
            sums.sum[id as usize] = sum;
            sums.live[id as usize] = live;
        }
        sums
    }
}

/// The latent-heat rule for every configuration in `group`, all over
/// the window `sums` (with `row` slid in and the row `w` back retired):
/// each picks the ids whose window sum exceeds its threshold sum.
///
/// One ascending scan over the ids answers them all. An id whose sum
/// is not above the group's smallest threshold sum is no one's
/// elephant; those that are go through each configuration's own
/// test, and the row's rate of each is found by one ordered merge
/// (0 when inactive). So every configuration picks its elephants
/// ascending and adds their load in that order, the same operations
/// whichever group it is in.
pub(crate) fn latent_heat(sums: &KeySums, row: &[(KeyId, f32)], group: &mut [SchemeState]) {
    // An interval with zero attributed packets — a capture gap, not a
    // flow dip — emits no elephants: there is no load to apportion, and
    // a monitor must not keep alerting on stale window state. The
    // window itself still slides, so flows resume their standing when
    // traffic returns.
    if row.is_empty() {
        return;
    }
    let floor = group.iter().map(|state| state.sum_t).fold(f64::INFINITY, f64::min);
    let mut row = row.iter().peekable();
    for (k, (&sum, &live)) in sums.sum.iter().zip(&sums.live).enumerate() {
        // `live` decides membership: an id out of the window holds
        // +0.0, which a threshold sum rounded below zero would beat.
        if sum > floor && live != 0 {
            let id = k as KeyId;
            while row.next_if(|&&(j, _)| j < id).is_some() {}
            let rate = row.next_if(|&&(j, _)| j == id).map_or(0.0, |&(_, rate)| f64::from(rate));
            for state in group.iter_mut() {
                if sum > state.sum_t {
                    state.picked.push(id);
                    state.picked_load += rate;
                }
            }
        }
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
/// and the hysteresis membership; and, within an interval, its
/// threshold and the elephants picked so far.
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
    /// The current interval's smoothed threshold.
    threshold: f64,
    /// The current interval's elephants as they are picked: a buffer
    /// reused from interval to interval, so each list handed out is
    /// allocated at its exact length.
    picked: Vec<KeyId>,
    /// Their load, added as they are picked.
    picked_load: f64,
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
            threshold: f64::INFINITY,
            picked: Vec::new(),
            picked_load: 0.0,
        }
    }

    /// The configuration's scheme.
    pub(crate) fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The EWMA's smoothing factor γ.
    pub(crate) fn gamma(&self) -> f64 {
        self.series.gamma()
    }

    /// Start an interval with its threshold update: the raw detection
    /// (`None` = the detector abstained) goes into the EWMA; the
    /// smoothed threshold — or, before the first detection, the finite
    /// stand-in computed from `values`, the interval's rates as f64 —
    /// enters the window's threshold sum, and the term `window`
    /// intervals back leaves it. Nothing is picked yet.
    pub(crate) fn smooth(&mut self, raw: Option<f64>, values: &[f64]) {
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
        self.threshold = threshold;
        self.picked.clear();
        self.picked_load = 0.0;
    }

    /// The single-interval schemes' rule over `row`: single feature and
    /// hysteresis. Elephants come out ascending and the load is added in
    /// that order, as [`latent_heat`] does, for bit-identical float sums
    /// on every path.
    pub(crate) fn pick_single(&mut self, row: &[(KeyId, f32)]) {
        let threshold = self.threshold;
        match self.scheme {
            Scheme::SingleFeature => {
                for &(id, rate) in row {
                    let b = f64::from(rate);
                    if b > threshold {
                        self.picked.push(id);
                        self.picked_load += b;
                    }
                }
            }
            Scheme::LatentHeat { .. } => unreachable!("latent heat is picked by its window"),
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
                        self.picked.push(id);
                        self.picked_load += b;
                    }
                }
            }
        }
    }

    /// The interval's step as picked.
    pub(crate) fn take_step(&mut self) -> Step {
        Step {
            threshold: self.threshold,
            elephants: self.picked.to_vec(),
            elephant_load: self.picked_load,
        }
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// The dense latent-heat scan reads `live` alone for membership, and
    /// `export` scans it in id order. So after any run of slides and
    /// retires an id out of the window must hold `+0.0` by bits, and the
    /// ids with `live != 0` must be exactly a sparse reference's:
    /// `tracked()` its length, `export` its entries ascending, by bits
    /// (the rates span forty decades, so rounding takes sums to zero
    /// and below while their ids are still in the window).
    #[test]
    fn ids_out_of_the_window_hold_positive_zero_and_export_is_the_reference() {
        let mut rng = StdRng::seed_from_u64(35);
        for _ in 0..200 {
            let w = rng.gen_range(1usize..6);
            let n_ids = rng.gen_range(1u32..300);
            let density = rng.gen_range(0.05..0.6);
            let mut sums = KeySums::default();
            let mut reference: BTreeMap<KeyId, (f64, u32)> = BTreeMap::new();
            let mut ring: VecDeque<Vec<(KeyId, f32)>> = VecDeque::new();
            let n_rows = rng.gen_range(1usize..40);
            for n in 0..n_rows + w {
                // The last `w` steps only retire: every id drains.
                if n < n_rows {
                    let mut row: Vec<(KeyId, f32)> = Vec::new();
                    for id in 0..n_ids {
                        if rng.gen_bool(density) {
                            let decade = rng.gen_range(0u32..40) as i32 - 10;
                            row.push((id, rng.gen_range(1.0f32..10.0) * 10f32.powi(decade)));
                        }
                    }
                    sums.slide_in(&row);
                    for &(id, rate) in &row {
                        let (sum, live) = reference.entry(id).or_insert((0.0, 0));
                        *sum = if *live == 0 { f64::from(rate) } else { *sum + f64::from(rate) };
                        *live += 1;
                    }
                    ring.push_back(row);
                }
                if ring.len() > w || (n >= n_rows && !ring.is_empty()) {
                    let old = ring.pop_front().expect("a row to retire");
                    sums.retire(&old);
                    for &(id, rate) in &old {
                        let (sum, live) = reference.get_mut(&id).expect("slid in");
                        *live -= 1;
                        if *live == 0 {
                            reference.remove(&id);
                        } else {
                            *sum = (*sum - f64::from(rate)).max(0.0);
                        }
                    }
                }
                for (&sum, &live) in sums.sum.iter().zip(&sums.live) {
                    if live == 0 {
                        assert_eq!(sum.to_bits(), 0.0f64.to_bits(), "an id out of the window");
                    }
                }
                let live = sums.live.iter().filter(|&&live| live != 0).count();
                assert_eq!((sums.tracked(), live), (reference.len(), reference.len()));
                let exported = sums.export();
                assert!(exported.windows(2).all(|pair| pair[0].0 < pair[1].0));
                let bits = |entries: &[(KeyId, f64, u32)]| -> Vec<(KeyId, u64, u32)> {
                    entries.iter().map(|&(id, sum, live)| (id, sum.to_bits(), live)).collect()
                };
                let expected: Vec<(KeyId, f64, u32)> =
                    reference.iter().map(|(&id, &(sum, live))| (id, sum, live)).collect();
                assert_eq!(bits(&exported), bits(&expected));
                assert_eq!(bits(&KeySums::restore(&exported).export()), bits(&exported));
            }
            assert_eq!(sums.tracked(), 0);
        }
    }

    /// Before the first detection the threshold term is the interval's
    /// largest rate + 1. Under latent heat over two intervals a key at
    /// that largest rate, which then sits within 1 b/s above the first
    /// detected threshold, has a window sum short of the threshold sum
    /// by less than 1 — so the `+ 1` alone decides its membership.
    #[test]
    fn the_stand_in_beats_the_interval_maximum_by_one() {
        /// Abstains on the row holding the rate 100, and detects 50 on
        /// any other.
        struct AbstainsAtHundred;
        impl crate::ThresholdDetector for AbstainsAtHundred {
            fn detect(&self, values: &[f64]) -> Option<f64> {
                (!values.contains(&100.0)).then_some(50.0)
            }
            fn name(&self) -> String {
                "abstains at 100".to_string()
            }
        }
        let elephants_at = |rate: f32| {
            let scheme = Scheme::LatentHeat { window: 2 };
            let mut result = crate::classify_stream(AbstainsAtHundred, 0.5, scheme, |observe| {
                // Interval 0: the detector abstains; key 0 is the largest.
                observe(&[(0, 100.0), (1, 40.0)]);
                // Interval 1: the first detection, 50. Key 0's window sum
                // is 100 + rate against the threshold sum 101 + 50.
                observe(&[(0, rate), (1, 10.0)]);
            });
            assert!(result.thresholds[0].is_infinite() && result.elephants[0].is_empty());
            assert_eq!(result.thresholds[1], 50.0);
            result.elephants.pop().expect("two intervals")
        };
        assert_eq!(elephants_at(50.5), Vec::<KeyId>::new());
        assert_eq!(elephants_at(51.5), vec![0]);
    }
}
