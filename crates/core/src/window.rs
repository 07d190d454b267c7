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
/// `sum[k]` is the correctly rounded sum of `k`'s rates in the window's
/// slots and `live[k]` counts those slots, so a sum depends on the
/// window alone, not on the order rows slid in and out in: a checkpoint
/// carries the window, and a restore slides it in again. A rate goes in
/// and out by an f64 add and subtract, each checked for exactness (for
/// `a, b >= 0`, `s = a + b` is exact iff `s - a == b && s - b == a`),
/// and while every operation on a key is exact its sum is the exact
/// window sum. The first one that rounds marks the key: from then until
/// its last slot retires, its sum is recomputed from the window's rows
/// with an exact-partials sum at every change. The mark is the top bit
/// of the key's slot count ([`ROUNDED`]; a key holds at most one slot
/// per row of the window, far fewer than 2³¹), so an add or subtract
/// reads one word per key. So no sum is negative, and the last
/// retirement leaves `+0.0` (`x - x`, or the sum of no rates) and clears
/// the mark: an id out of the window (`live == 0`) holds `+0.0`, and
/// `live` alone says which ids are in it — a slide is loads and stores,
/// and the ids in the window are read by scanning `live` in id order.
///
/// It keeps no rows: its owner hands each slide the row going in, the
/// row `w` back going out, and the rows the window then holds.
#[derive(Debug, Default)]
pub(crate) struct KeySums {
    sum: Vec<f64>,
    /// Slots in the window, with [`ROUNDED`] set while the sum is
    /// recomputed from the window.
    live: Vec<u32>,
}

/// The bit of `live` that marks a key whose sum is recomputed from the
/// window. It is set only while the key has a slot.
const ROUNDED: u32 = 1 << 31;

impl KeySums {
    /// Add `row` to the window and take `retired` — exactly the row
    /// slid in `w` rows before, or nothing — out of it; `window` is the
    /// rows it then holds, oldest first.
    pub(crate) fn slide<'a>(
        &mut self,
        row: &[(KeyId, f32)],
        retired: &[(KeyId, f32)],
        window: impl Iterator<Item = &'a [(KeyId, f32)]> + Clone,
    ) {
        for &(id, rate) in row {
            let (k, rate) = (id as usize, f64::from(rate));
            if k >= self.live.len() {
                self.live.resize(k + 1, 0);
                self.sum.resize(k + 1, 0.0);
            }
            self.live[k] += 1;
            if self.live[k] == 1 {
                self.sum[k] = rate;
                continue;
            }
            let (sum, next) = (self.sum[k], self.sum[k] + rate);
            if self.live[k] < ROUNDED && exact(sum, rate, next) {
                self.sum[k] = next;
            } else {
                self.recompute(id, &window);
            }
        }
        for &(id, rate) in retired {
            let (k, rate) = (id as usize, f64::from(rate));
            self.live[k] -= 1;
            let (sum, next) = (self.sum[k], self.sum[k] - rate);
            if self.live[k] < ROUNDED && exact(next, rate, sum) {
                self.sum[k] = next;
            } else {
                self.recompute(id, &window);
            }
        }
    }

    /// Key `id`'s sum after an add or subtract that rounded, or on a key
    /// already rounded: the correctly rounded sum of its rates in
    /// `window`. The key stays rounded while it is in the window.
    #[cold]
    fn recompute<'a>(
        &mut self,
        id: KeyId,
        window: &(impl Iterator<Item = &'a [(KeyId, f32)]> + Clone),
    ) {
        let rates = window.clone().filter_map(|row| {
            let at = row.binary_search_by_key(&id, |&(key, _)| key).ok()?;
            Some(f64::from(row[at].1))
        });
        let k = id as usize;
        self.sum[k] = exact_sum(rates);
        let slots = self.live[k] & !ROUNDED;
        self.live[k] = if slots == 0 { 0 } else { slots | ROUNDED };
    }

    /// Number of ids currently holding window state — zero again once
    /// every id has been idle for a full window.
    #[cfg(test)]
    pub(crate) fn tracked(&self) -> usize {
        self.live.iter().filter(|&&live| live != 0).count()
    }

    /// `(id, window sum, occupied slots)` for every id in the window,
    /// ascending.
    #[cfg(test)]
    pub(crate) fn export(&self) -> Vec<(KeyId, f64, u32)> {
        let in_window = self.live.iter().enumerate().filter(|&(_, &live)| live != 0);
        in_window
            .map(|(k, &live)| (k as KeyId, self.sum[k], live & !ROUNDED))
            .collect()
    }
}

/// Whether `s = a + b` holds exactly, `s` the f64 add of `a, b >= 0`
/// or `a` the f64 subtract of `b` from `s >= b`: the two-sum test.
fn exact(a: f64, b: f64, s: f64) -> bool {
    s - a == b && s - b == a
}

/// The correctly rounded sum of `values`: Shewchuk's exact partials, as
/// Python's `math.fsum` keeps them, added from the largest down with
/// the round-half-even correction at the end. Its value does not depend
/// on the order of `values`; every finite sum here is far from
/// overflow.
pub(crate) fn exact_sum(values: impl IntoIterator<Item = f64>) -> f64 {
    // Non-overlapping, ascending in magnitude; their sum is exact.
    let mut partials: Vec<f64> = Vec::new();
    for mut x in values {
        let mut kept = 0;
        for j in 0..partials.len() {
            let mut y = partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                partials[kept] = lo;
                kept += 1;
            }
            x = hi;
        }
        partials.truncate(kept);
        if x != 0.0 {
            partials.push(x);
        }
    }
    let Some(mut hi) = partials.pop() else {
        return 0.0;
    };
    let mut lo = 0.0;
    while let Some(y) = partials.pop() {
        let x = hi;
        hi = x + y;
        lo = y - (hi - x);
        if lo != 0.0 {
            break;
        }
    }
    // `hi` rounded `lo` away; when the partial below has `lo`'s sign,
    // the true sum lies past the half-way point `hi + lo` alone sits on.
    let past_half = |below: &f64| (lo < 0.0 && *below < 0.0) || (lo > 0.0 && *below > 0.0);
    if partials.last().is_some_and(past_half) {
        let y = lo * 2.0;
        let x = hi + y;
        if y == x - hi {
            hi = x;
        }
    }
    hi
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
    let floor = group
        .iter()
        .map(|state| state.sum_t)
        .fold(f64::INFINITY, f64::min);
    let mut row = row.iter().peekable();
    for (k, (&sum, &live)) in sums.sum.iter().zip(&sums.live).enumerate() {
        // `live` decides membership: an id out of the window holds
        // +0.0, which a threshold sum rounded below zero would beat. Its
        // `ROUNDED` bit is clear, so `live != 0` needs no mask.
        if sum > floor && live != 0 {
            let id = k as KeyId;
            while row.next_if(|&&(j, _)| j < id).is_some() {}
            let rate = row
                .next_if(|&&(j, _)| j == id)
                .map_or(0.0, |&(_, rate)| f64::from(rate));
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
        // flow can beat this interval" instead. After it the threshold
        // is finite, so it is the term by bits: a checkpoint keeps only
        // whether a detection was made, and restores the EWMA from the
        // last term.
        let detected = self.series.detected();
        assert!(!detected || threshold.is_finite(), "a detection is finite");
        let t_term = if detected {
            threshold
        } else {
            unbeatable(values)
        };
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

    /// The state as a checkpoint carries it: whether a detection was
    /// made, the in-window threshold terms (oldest first), their sliding
    /// sum and the hysteresis membership.
    pub(crate) fn export(&self) -> (bool, &VecDeque<f64>, f64, &[KeyId]) {
        (
            self.series.detected(),
            &self.t_terms,
            self.sum_t,
            &self.members,
        )
    }

    /// Continue from [`SchemeState::export`]ed parts. The caller has
    /// validated them against the scheme: after a detection there is a
    /// last term, and it is the smoothed threshold (see
    /// [`SchemeState::smooth`]).
    pub(crate) fn restore(
        &mut self,
        detected: bool,
        t_terms: VecDeque<f64>,
        sum_t: f64,
        members: Vec<KeyId>,
    ) {
        self.series = ThresholdSeries::new(self.series.gamma());
        if detected {
            // A first detection sets the EWMA to exactly its value.
            self.series.observe_raw(t_terms.back().copied());
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
    /// retires an id with no slot must hold `+0.0` by bits and have its
    /// [`ROUNDED`] bit clear, and the ids with `live != 0` must be exactly
    /// a sparse reference's, whose sums are each key's rates in the window
    /// summed afresh:
    /// `tracked()` its length, `export` its entries ascending, by bits
    /// (the rates span forty decades, so sliding sums round while their
    /// ids are still in the window, and only a sum recomputed from the
    /// window is the reference's).
    #[test]
    fn ids_out_of_the_window_hold_positive_zero_and_export_is_the_reference() {
        let mut rng = StdRng::seed_from_u64(35);
        let mut rounded = 0;
        for _ in 0..200 {
            let w = rng.gen_range(1usize..6);
            let n_ids = rng.gen_range(1u32..300);
            let density = rng.gen_range(0.05..0.6);
            let mut sums = KeySums::default();
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
                    ring.push_back(row);
                }
                let retired = if ring.len() > w || n >= n_rows {
                    ring.pop_front()
                } else {
                    None
                };
                let row: &[(KeyId, f32)] = if n < n_rows {
                    ring.back().expect("a row")
                } else {
                    &[]
                };
                sums.slide(
                    row,
                    retired.as_deref().unwrap_or(&[]),
                    ring.iter().map(Vec::as_slice),
                );
                rounded += sums
                    .live
                    .iter()
                    .filter(|&&live| live & ROUNDED != 0)
                    .count();
                let mut reference: BTreeMap<KeyId, Vec<f64>> = BTreeMap::new();
                for &(id, rate) in ring.iter().flatten() {
                    reference.entry(id).or_default().push(f64::from(rate));
                }
                for (&sum, &live) in sums.sum.iter().zip(&sums.live) {
                    if live & !ROUNDED == 0 {
                        assert_eq!(live, 0, "an id with no slot is not marked");
                        assert_eq!(sum.to_bits(), 0.0f64.to_bits(), "an id out of the window");
                    }
                }
                let live = sums.live.iter().filter(|&&live| live != 0).count();
                assert_eq!((sums.tracked(), live), (reference.len(), reference.len()));
                let bits = |entries: Vec<(KeyId, f64, u32)>| -> Vec<(KeyId, u64, u32)> {
                    entries
                        .into_iter()
                        .map(|(id, sum, live)| (id, sum.to_bits(), live))
                        .collect()
                };
                let expected = reference
                    .into_iter()
                    .map(|(id, rates)| (id, exact_sum(rates.iter().copied()), rates.len() as u32));
                assert_eq!(bits(sums.export()), bits(expected.collect()));
            }
            assert_eq!(
                sums.tracked(),
                0,
                "a key out of the window is rounded no more"
            );
        }
        assert!(rounded > 1_000, "only {rounded} sums were rounded");
    }

    /// Correctly rounded whatever the order and the cancellation:
    /// `math.fsum`'s own cases, and every permutation of a few.
    #[test]
    fn exact_sum_is_correctly_rounded() {
        let p = |e: i32| 2f64.powi(e);
        for (values, sum) in [
            (vec![], 0.0),
            (vec![0.0], 0.0),
            (vec![1e100, 1.0, -1e100, 1e-100, 1e50, -1.0, -1e50], 1e-100),
            (vec![p(53), -0.5, -p(-54)], p(53) - 1.0),
            (vec![p(53), 1.0, p(-100)], p(53) + 2.0),
            (vec![p(53) + 10.0, 1.0, p(-100)], p(53) + 12.0),
            (vec![p(53) - 4.0, 0.5, p(-54)], p(53) - 3.0),
            (vec![1e16, 1.0, 1e-16], 10_000_000_000_000_002.0),
            (
                vec![1e16 - 2.0, 1.0 - p(-53), -(1e16 - 2.0), -(1.0 - p(-53))],
                0.0,
            ),
            (vec![0.1; 10], 1.0),
            (vec![p(55), 3.0, 1.0], p(55)),
            (vec![p(55), 3.0, 1.0, 1.0], p(55) + 8.0),
        ] {
            let mut order = values.clone();
            assert_eq!(exact_sum(values).to_bits(), f64::to_bits(sum));
            for _ in 0..order.len() {
                order.rotate_left(1);
                order.reverse();
                assert_eq!(exact_sum(order.iter().copied()), sum, "{order:?}");
            }
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
