//! The per-key classifier state machine: one sliding window of
//! bandwidth sums and one membership rule per interval.
//!
//! [`WindowState`] is everything the three classification schemes keep
//! between intervals, indexed by whatever dense ids it is fed, and its
//! three operations: slide one interval in, retire one interval out,
//! classify by [`Scheme`]. It owns no detector and no history — the
//! batch engine retires straight from the matrix it classifies, the
//! streaming classifier from the snapshots it keeps — so both callers
//! perform the identical float operation sequence and their outputs
//! agree by bits.

use eleph_flow::KeyId;

use crate::bits::KeyBitset;
use crate::Scheme;

/// The finite stand-in for the threshold term of an interval that has
/// no threshold yet: the interval's largest rate + 1.
pub(crate) fn unbeatable(values: &[f64]) -> f64 {
    values.iter().cloned().fold(0.0, f64::max) + 1.0
}

/// The term an interval's smoothed threshold enters the window's
/// threshold sum with. Before the first detection the threshold is
/// infinite, which would poison the sliding sum; the finite
/// [`unbeatable`] stand-in models "no flow can beat this interval"
/// instead.
pub(crate) fn threshold_term(threshold: f64, unbeatable: impl FnOnce() -> f64) -> f64 {
    if threshold.is_finite() {
        threshold
    } else {
        unbeatable()
    }
}

/// Sliding latent-heat sums and hysteresis membership, dense over ids.
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
#[derive(Debug, Default)]
pub(crate) struct WindowState {
    sum: Vec<f64>,
    live: Vec<u32>,
    /// Ids with `live > 0`; ordered iteration emits elephants ascending.
    in_window: KeyBitset,
    /// Sliding sum of the window's threshold terms.
    sum_t: f64,
    /// The previous interval's elephants, ascending (hysteresis only).
    members: Vec<KeyId>,
}

impl WindowState {
    /// Empty state pre-sized for ids `0..n_ids` (grows on demand beyond).
    pub(crate) fn with_ids(n_ids: usize) -> Self {
        WindowState {
            sum: vec![0.0; n_ids],
            live: vec![0; n_ids],
            in_window: KeyBitset::with_capacity(n_ids),
            ..WindowState::default()
        }
    }

    /// Add one interval (its finite threshold term and its snapshot) to
    /// the window.
    pub(crate) fn slide_in(&mut self, t_term: f64, snapshot: impl Iterator<Item = (KeyId, f32)>) {
        self.sum_t += t_term;
        for (id, rate) in snapshot {
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

    /// Take the window's oldest interval back out: exactly what
    /// [`WindowState::slide_in`] was given for it.
    pub(crate) fn retire(&mut self, t_term: f64, snapshot: impl Iterator<Item = (KeyId, f32)>) {
        self.sum_t -= t_term;
        for (id, rate) in snapshot {
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

    /// Classify the current interval, calling `emit(id, load term)` for
    /// each elephant in ascending id order; the load term is the
    /// elephant's rate in this interval (0 when it is inactive), so
    /// callers adding the terms as they come all form the same float
    /// sum. `snapshot` is the interval just slid in (ascending by id).
    pub(crate) fn classify(
        &mut self,
        scheme: Scheme,
        threshold: f64,
        snapshot: impl Iterator<Item = (KeyId, f32)>,
        mut emit: impl FnMut(KeyId, f64),
    ) {
        match scheme {
            Scheme::SingleFeature => {
                for (id, rate) in snapshot {
                    let b = f64::from(rate);
                    if b > threshold {
                        emit(id, b);
                    }
                }
            }
            Scheme::LatentHeat { .. } => {
                let mut snapshot = snapshot.peekable();
                // An interval with zero attributed packets — a capture
                // gap, not a flow dip — emits no elephants: there is no
                // load to apportion, and a monitor must not keep
                // alerting on stale window state. The window itself
                // still slides, so flows resume their standing when
                // traffic returns.
                if snapshot.peek().is_none() {
                    return;
                }
                // Window ids and snapshot both ascend: the load join is
                // an ordered merge.
                for id in self.in_window.iter() {
                    if self.sum[id as usize] > self.sum_t {
                        while snapshot.next_if(|&(k, _)| k < id).is_some() {}
                        let active = snapshot.next_if(|&(k, _)| k == id);
                        emit(id, active.map_or(0.0, |(_, rate)| f64::from(rate)));
                    }
                }
            }
            Scheme::Hysteresis { enter, exit } => {
                // Membership becomes exactly the current elephant set;
                // the previous one ascends like the snapshot does.
                let mut was = std::mem::take(&mut self.members).into_iter().peekable();
                for (id, rate) in snapshot {
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
    }

    /// Number of ids currently holding window state — zero again once
    /// every id has been idle for a full window.
    pub(crate) fn tracked(&self) -> usize {
        self.in_window.len()
    }

    /// The state as a checkpoint carries it: the sliding threshold sum,
    /// `(id, sliding sum, occupied slots)` for every id in the window
    /// (ascending), and the hysteresis membership.
    pub(crate) fn export(&self) -> (f64, Vec<(KeyId, f64, u32)>, Vec<KeyId>) {
        let row = |id: KeyId| (id, self.sum[id as usize], self.live[id as usize]);
        (self.sum_t, self.in_window.iter().map(row).collect(), self.members.clone())
    }

    /// Rebuild from [`WindowState::export`]ed parts. The caller has
    /// validated them: ids ascending and below the id count the state
    /// may be sized for.
    pub(crate) fn restore(sum_t: f64, per_key: &[(KeyId, f64, u32)], members: Vec<KeyId>) -> Self {
        let n_ids = per_key.last().map_or(0, |&(id, _, _)| id as usize + 1);
        let mut state = WindowState { sum_t, members, ..WindowState::with_ids(n_ids) };
        for &(id, sum, live) in per_key {
            state.sum[id as usize] = sum;
            state.live[id as usize] = live;
            state.in_window.insert(id);
        }
        state
    }
}
