//! Key-partitioned online classification.
//!
//! The per-key half of [`crate::OnlineClassifier`] shards naturally:
//! split the key space `key % N` ([`ShardSpec`]), give each shard a
//! [`ClassifierPart`] holding only its keys' window state, and the
//! per-interval update work parallelises with no shared mutable state.
//! Detection does *not* shard — a threshold is a function of the whole
//! interval's snapshot — so one [`crate::SealCoordinator`] runs the
//! detector + EWMA once per interval on the merged value vector and
//! broadcasts the resulting [`SealContext`] to every part.
//!
//! A part is an adapter, not an engine: it re-bases its shard's global
//! key ids to dense local ones on the way in, runs the `StreamWindow`
//! the serial classifier runs, and re-bases back on the way out. The
//! rest of this module is merging, and the rest of the crate does not
//! depend on it.
//!
//! The merged output of N parts equals the serial classifier's *by
//! bits*, for every N, because every float operation sequence is
//! preserved: per-key sums only ever combine one key's rates, in stream
//! order; the global scalars (threshold, `t_term`, `total_load`) are
//! computed once by the coordinator, in serial order; `sum_t` is
//! *replicated* — every part pushes one history slot per interval, even
//! for an empty sub-snapshot, so each replica performs the identical
//! add/subtract sequence ([`merge_states`] cross-checks this); and
//! elephants come out ascending within each part (local order is global
//! order under the modulo split), so [`merge_observations`] adds the
//! `elephant_load` terms in the serial loop's order.
//!
//! [`partition_state`]/[`merge_states`] convert between the serial
//! [`ClassifierState`] and per-shard [`PartState`]s, so checkpoints
//! stay shard-count-independent: a sharded run exports the merged
//! serial state and any shard count can resume from it.

use eleph_flow::{KeyId, ShardSpec};

use crate::online::StreamWindow;
use crate::{ClassifierState, Scheme, SealContext};

/// One shard's classification of one interval: its elephants (ascending
/// by key) and, parallel to them, the term each adds to `elephant_load`
/// — the serial classifier adds them in ascending *global* key order,
/// which only [`merge_observations`] can replay.
#[derive(Debug, Clone, Default)]
pub struct PartObservation {
    /// Elephant keys this shard owns, ascending.
    pub elephants: Vec<KeyId>,
    /// `elephant_load` term per elephant (same order).
    pub rates: Vec<f64>,
}

/// One shard's recovery frontier — the shard-local slice of a
/// [`ClassifierState`], with keys in *global* ids. `interval` and the
/// EWMA value are coordinator state and travel separately (see
/// [`merge_states`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PartState {
    /// Sliding threshold sum replica (bitwise equal across all parts).
    pub sum_t: f64,
    /// Per-key window state for owned keys with `live > 0`, ascending:
    /// `(key, sliding bandwidth sum, occupied window slots)`.
    pub per_key: Vec<(KeyId, f64, u32)>,
    /// The in-window history, oldest first; each slot holds the
    /// interval's threshold term and the shard's sub-snapshot.
    pub history: Vec<(f64, Vec<(KeyId, f32)>)>,
    /// Previous interval's owned elephants (hysteresis), ascending.
    pub members: Vec<KeyId>,
}

/// Map every key id a state names through `f`.
fn rebase(state: &mut ClassifierState, f: impl Fn(KeyId) -> KeyId) {
    let snapshots = state.history.iter_mut().flat_map(|(_, snapshot)| snapshot);
    let ids = state.per_key.iter_mut().map(|e| &mut e.0).chain(snapshots.map(|e| &mut e.0));
    for id in ids.chain(&mut state.members) {
        *id = f(*id);
    }
}

/// One shard of the online classifier's per-key state: the serial
/// classifier's window restricted to the keys a [`ShardSpec`] owns,
/// dense over *local* ids (`key / n_shards`), history included.
#[derive(Debug)]
pub struct ClassifierPart {
    spec: ShardSpec,
    window: StreamWindow,
}

impl ClassifierPart {
    /// A fresh part for `spec`'s slice of the key space. Panics on
    /// invalid scheme parameters, like [`crate::OnlineClassifier::new`].
    pub fn new(spec: ShardSpec, scheme: Scheme) -> Self {
        ClassifierPart { spec, window: StreamWindow::new(scheme) }
    }

    /// The shard identity this part serves.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Number of owned keys currently holding window state.
    pub fn tracked_keys(&self) -> usize {
        self.window.tracked_keys()
    }

    /// Feed this shard's slice of one interval (owned keys only,
    /// ascending, rates as the pipeline produced them) together with
    /// the coordinator's broadcast, and classify the owned keys.
    ///
    /// The snapshot is consumed into the window history (no copy).
    /// Every part must be called exactly once per interval — an empty
    /// sub-snapshot still advances the window.
    pub fn observe_part(
        &mut self,
        mut snapshot: Vec<(KeyId, f32)>,
        ctx: &SealContext,
    ) -> PartObservation {
        let spec = self.spec;
        debug_assert!(snapshot.iter().all(|&(key, _)| spec.owns(key)));
        for entry in &mut snapshot {
            entry.0 = spec.local(entry.0) as KeyId;
        }
        let mut obs = PartObservation::default();
        self.window.observe(snapshot, ctx, |local, term| {
            obs.elephants.push(spec.global(local as usize));
            obs.rates.push(term);
        });
        obs
    }

    /// Export this shard's recovery frontier (global key ids).
    pub fn export_state(&self) -> PartState {
        let mut state = self.window.export(0, None);
        rebase(&mut state, |local| self.spec.global(local as usize));
        let ClassifierState { sum_t, per_key, history, members, .. } = state;
        PartState { sum_t, per_key, history, members }
    }

    /// Rebuild a part from a [`PartState`]. The slice of a valid state
    /// is structurally a valid (smaller) state, so it goes through
    /// [`ClassifierState::validate`] against the run's `n_keys` as a
    /// serial state does — corrupt slices fail with the same messages
    /// everywhere — and every key it names must belong to `spec`.
    pub fn from_state(
        spec: ShardSpec,
        scheme: Scheme,
        n_keys: usize,
        state: PartState,
    ) -> Result<Self, String> {
        let PartState { sum_t, per_key, history, members } = state;
        let mut state =
            ClassifierState { interval: 0, smoothed: None, sum_t, per_key, history, members };
        state.validate(scheme, n_keys)?;
        // History keys are per-key keys (validated), so these two lists
        // cover every id the state names.
        let mut named = state.per_key.iter().map(|e| e.0).chain(state.members.iter().copied());
        if let Some(key) = named.find(|&key| !spec.owns(key)) {
            return Err(format!(
                "key {key} in shard {}/{} state belongs to shard {}",
                spec.shard(),
                spec.n_shards(),
                ShardSpec::owner(key, spec.n_shards())
            ));
        }
        rebase(&mut state, |key| spec.local(key) as KeyId);
        Ok(ClassifierPart { spec, window: StreamWindow::restore(scheme, state) })
    }
}

/// Merge one interval's [`PartObservation`]s (ascending shard order)
/// into the global elephant list and `elephant_load`, replaying the
/// serial classifier's ascending-key emission and addition order.
pub fn merge_observations(parts: &[PartObservation]) -> (Vec<KeyId>, f64) {
    let total: usize = parts.iter().map(|p| p.elephants.len()).sum();
    let mut elephants = Vec::with_capacity(total);
    let mut elephant_load = 0.0f64;
    let mut heads = vec![0usize; parts.len()];
    loop {
        let mut best: Option<(KeyId, usize)> = None;
        for (s, part) in parts.iter().enumerate() {
            if let Some(&key) = part.elephants.get(heads[s]) {
                if best.map_or(true, |(b, _)| key < b) {
                    best = Some((key, s));
                }
            }
        }
        let Some((key, s)) = best else { break };
        elephants.push(key);
        elephant_load += parts[s].rates[heads[s]];
        heads[s] += 1;
    }
    (elephants, elephant_load)
}

/// Split a serial [`ClassifierState`] into N per-shard [`PartState`]s
/// (`sum_t` replicated verbatim). The inverse of [`merge_states`] —
/// a checkpoint written at any shard count resumes at any other.
pub fn partition_state(state: &ClassifierState, n_shards: usize) -> Vec<PartState> {
    (0..n_shards)
        .map(|s| {
            let spec = ShardSpec::new(s, n_shards);
            let owned = |snapshot: &[(KeyId, f32)]| {
                snapshot.iter().filter(|&&(key, _)| spec.owns(key)).copied().collect()
            };
            PartState {
                sum_t: state.sum_t,
                per_key: state.per_key.iter().filter(|e| spec.owns(e.0)).copied().collect(),
                history: state.history.iter().map(|(t, snapshot)| (*t, owned(snapshot))).collect(),
                members: state.members.iter().filter(|&&key| spec.owns(key)).copied().collect(),
            }
        })
        .collect()
}

/// Merge N per-shard [`PartState`]s (ascending shard order) back into
/// the serial [`ClassifierState`], cross-validating the replicated
/// invariants: every part must hold the same history length, bitwise
/// identical threshold terms per slot, a bitwise identical `sum_t`
/// replica, and only keys its shard owns. `interval` and `smoothed`
/// are the coordinator's (see [`crate::SealCoordinator`]).
pub fn merge_states(
    parts: &[PartState],
    interval: usize,
    smoothed: Option<f64>,
) -> Result<ClassifierState, String> {
    let n_shards = parts.len();
    if n_shards == 0 {
        return Err("cannot merge zero shard states".to_string());
    }
    let depth = parts[0].history.len();
    for (s, part) in parts.iter().enumerate() {
        if part.history.len() != depth {
            return Err(format!(
                "shard {s} holds {} history slots, shard 0 holds {depth} — parts out of lockstep",
                part.history.len()
            ));
        }
        if part.sum_t.to_bits() != parts[0].sum_t.to_bits() {
            return Err(format!(
                "shard {s} sum_t replica {} diverged from shard 0's {}",
                part.sum_t, parts[0].sum_t
            ));
        }
        for (slot, (t, _)) in part.history.iter().enumerate() {
            if t.to_bits() != parts[0].history[slot].0.to_bits() {
                return Err(format!(
                    "shard {s} history slot {slot} threshold term {t} diverged from shard 0's {}",
                    parts[0].history[slot].0
                ));
            }
        }
        let spec = ShardSpec::new(s, n_shards);
        for &(key, _, _) in &part.per_key {
            if !spec.owns(key) {
                return Err(format!(
                    "shard {s} state holds key {key} owned by shard {}",
                    ShardSpec::owner(key, n_shards)
                ));
            }
        }
    }
    let mut per_key: Vec<(KeyId, f64, u32)> =
        parts.iter().flat_map(|p| p.per_key.iter().copied()).collect();
    per_key.sort_unstable_by_key(|&(key, _, _)| key);
    let history: Vec<(f64, Vec<(KeyId, f32)>)> = (0..depth)
        .map(|slot| {
            let mut snapshot: Vec<(KeyId, f32)> = parts
                .iter()
                .flat_map(|p| p.history[slot].1.iter().copied())
                .collect();
            snapshot.sort_unstable_by_key(|&(key, _)| key);
            (parts[0].history[slot].0, snapshot)
        })
        .collect();
    let mut members: Vec<KeyId> = parts.iter().flat_map(|p| p.members.iter().copied()).collect();
    members.sort_unstable();
    Ok(ClassifierState { interval, smoothed, sum_t: parts[0].sum_t, per_key, history, members })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstantLoadDetector, IntervalOutcome, OnlineClassifier, SealCoordinator};

    /// Drive N parts + a coordinator over the snapshots, merging each
    /// interval exactly as the pipeline's seal barrier does.
    fn run_sharded(
        n_shards: usize,
        scheme: Scheme,
        snapshots: &[Vec<(KeyId, f32)>],
    ) -> (Vec<IntervalOutcome>, Vec<ClassifierPart>, SealCoordinator<ConstantLoadDetector>) {
        let mut coord = SealCoordinator::new(ConstantLoadDetector::new(0.8), 0.9);
        let mut parts: Vec<ClassifierPart> = (0..n_shards)
            .map(|s| ClassifierPart::new(ShardSpec::new(s, n_shards), scheme))
            .collect();
        let mut outcomes = Vec::new();
        for snapshot in snapshots {
            let values: Vec<f64> = snapshot.iter().map(|&(_, r)| f64::from(r)).collect();
            let (ctx, interval, total_load) = coord.observe_values(&values);
            let subs: Vec<Vec<(KeyId, f32)>> = (0..n_shards)
                .map(|s| {
                    let spec = ShardSpec::new(s, n_shards);
                    snapshot.iter().filter(|&&(key, _)| spec.owns(key)).copied().collect()
                })
                .collect();
            let obs: Vec<PartObservation> = parts
                .iter_mut()
                .zip(subs)
                .map(|(part, sub)| part.observe_part(sub, &ctx))
                .collect();
            let (elephants, elephant_load) = merge_observations(&obs);
            outcomes.push(IntervalOutcome {
                interval,
                threshold: ctx.threshold,
                elephants,
                elephant_load,
                total_load,
            });
        }
        (outcomes, parts, coord)
    }

    fn snapshots(seed: u64, n_keys: u32, n_intervals: usize) -> Vec<Vec<(KeyId, f32)>> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_intervals)
            .map(|_| {
                (0..n_keys)
                    .filter_map(|key| {
                        if rng.gen::<f64>() < 0.35 {
                            None
                        } else {
                            Some((key, rng.gen_range(1.0f32..50_000.0)))
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn schemes() -> [Scheme; 3] {
        [
            Scheme::SingleFeature,
            Scheme::LatentHeat { window: 3 },
            Scheme::Hysteresis { enter: 1.2, exit: 0.6 },
        ]
    }

    #[test]
    fn sharded_equals_serial_by_bits() {
        let mut rows = snapshots(42, 37, 25);
        // Capture gaps exercise the global degenerate-interval guard.
        rows[7].clear();
        rows[8].clear();
        for scheme in schemes() {
            let mut serial = OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, scheme);
            let expected: Vec<IntervalOutcome> =
                rows.iter().map(|row| serial.observe(row)).collect();
            for n_shards in [1usize, 2, 4, 7] {
                let (got, _, coord) = run_sharded(n_shards, scheme, &rows);
                assert_eq!(coord.intervals_observed(), serial.intervals_observed());
                for (out, want) in got.iter().zip(&expected) {
                    let at = format!("{scheme:?} shards {n_shards} interval {}", want.interval);
                    assert_eq!(out.interval, want.interval, "{at}");
                    assert_eq!(out.elephants, want.elephants, "{at}");
                    assert_eq!(out.threshold.to_bits(), want.threshold.to_bits(), "{at}");
                    assert_eq!(
                        out.elephant_load.to_bits(),
                        want.elephant_load.to_bits(),
                        "{at}"
                    );
                    assert_eq!(out.total_load.to_bits(), want.total_load.to_bits(), "{at}");
                }
            }
        }
    }

    #[test]
    fn merged_part_states_equal_serial_export() {
        let rows = snapshots(7, 23, 14);
        for scheme in schemes() {
            let mut serial = OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, scheme);
            for row in &rows {
                serial.observe(row);
            }
            let want = serial.export_state();
            for n_shards in [1usize, 2, 4, 7] {
                let (_, parts, coord) = run_sharded(n_shards, scheme, &rows);
                let states: Vec<PartState> = parts.iter().map(|p| p.export_state()).collect();
                let merged = merge_states(
                    &states,
                    coord.intervals_observed(),
                    coord.smoothed_value(),
                )
                .expect("lockstep parts merge");
                assert_eq!(merged, want, "{scheme:?} shards {n_shards}");
                assert_eq!(merged.sum_t.to_bits(), want.sum_t.to_bits());
            }
        }
    }

    #[test]
    fn partition_then_resume_continues_bit_identically() {
        let rows = snapshots(11, 29, 16);
        let split = 9;
        for scheme in schemes() {
            let mut serial = OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, scheme);
            let expected: Vec<IntervalOutcome> =
                rows.iter().map(|row| serial.observe(row)).collect();
            for n_shards in [2usize, 4, 7] {
                // Serial prefix, then partition its exported state onto
                // fresh parts and finish sharded.
                let mut prefix =
                    OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, scheme);
                for row in &rows[..split] {
                    prefix.observe(row);
                }
                let state = prefix.export_state();
                let mut coord = SealCoordinator::resume(
                    ConstantLoadDetector::new(0.8),
                    0.9,
                    state.interval,
                    state.smoothed,
                );
                let mut parts: Vec<ClassifierPart> = partition_state(&state, n_shards)
                    .into_iter()
                    .enumerate()
                    .map(|(s, ps)| {
                        ClassifierPart::from_state(ShardSpec::new(s, n_shards), scheme, 29, ps)
                            .expect("partitioned state valid")
                    })
                    .collect();
                for (n, row) in rows.iter().enumerate().skip(split) {
                    let values: Vec<f64> = row.iter().map(|&(_, r)| f64::from(r)).collect();
                    let (ctx, interval, total_load) = coord.observe_values(&values);
                    let obs: Vec<PartObservation> = parts
                        .iter_mut()
                        .map(|part| {
                            let sub: Vec<(KeyId, f32)> = row
                                .iter()
                                .filter(|&&(key, _)| part.spec().owns(key))
                                .copied()
                                .collect();
                            part.observe_part(sub, &ctx)
                        })
                        .collect();
                    let (elephants, elephant_load) = merge_observations(&obs);
                    let want = &expected[n];
                    let at = format!("{scheme:?} shards {n_shards} interval {n}");
                    assert_eq!(interval, want.interval, "{at}");
                    assert_eq!(elephants, want.elephants, "{at}");
                    assert_eq!(ctx.threshold.to_bits(), want.threshold.to_bits(), "{at}");
                    assert_eq!(elephant_load.to_bits(), want.elephant_load.to_bits(), "{at}");
                    assert_eq!(total_load.to_bits(), want.total_load.to_bits(), "{at}");
                }
            }
        }
    }

    #[test]
    fn merge_states_rejects_diverged_replicas() {
        let rows = snapshots(3, 13, 8);
        let (_, parts, coord) = run_sharded(4, Scheme::LatentHeat { window: 3 }, &rows);
        let good: Vec<PartState> = parts.iter().map(|p| p.export_state()).collect();
        let interval = coord.intervals_observed();
        assert!(merge_states(&good, interval, coord.smoothed_value()).is_ok());

        let mut bad = good.clone();
        bad[2].sum_t += 1.0;
        let err = merge_states(&bad, interval, None).unwrap_err();
        assert!(err.contains("sum_t"), "{err}");

        let mut bad = good.clone();
        bad[1].history.pop();
        let err = merge_states(&bad, interval, None).unwrap_err();
        assert!(err.contains("lockstep"), "{err}");

        let mut bad = good.clone();
        bad[1].history[0].0 += 0.5;
        let err = merge_states(&bad, interval, None).unwrap_err();
        assert!(err.contains("diverged"), "{err}");

        let mut bad = good.clone();
        // Key 0 belongs to shard 0 of 4; plant it in shard 3's state.
        bad[3].per_key.insert(0, (0, 1.0, 1));
        let err = merge_states(&bad, interval, None).unwrap_err();
        assert!(err.contains("owned by shard"), "{err}");

        assert!(merge_states(&[], 0, None).is_err());
    }

    #[test]
    fn part_from_state_rejects_foreign_keys() {
        let spec = ShardSpec::new(1, 4);
        let scheme = Scheme::LatentHeat { window: 3 };
        let mut part = ClassifierPart::new(spec, scheme);
        part.observe_part(
            vec![(1, 50.0), (5, 700.0)],
            &SealContext { threshold: 100.0, t_term: 100.0, global_empty: false },
        );
        let good = part.export_state();
        assert!(ClassifierPart::from_state(spec, scheme, 7, good.clone()).is_ok());

        // Shift every key by +1 (structurally still valid — ascending,
        // occupancy consistent) so only the ownership check can object:
        // keys 2 and 6 belong to shard 2 of 4.
        let mut bad = good.clone();
        for entry in &mut bad.per_key {
            entry.0 += 1;
        }
        for (_, snapshot) in &mut bad.history {
            for entry in snapshot {
                entry.0 += 1;
            }
        }
        assert!(ClassifierPart::from_state(spec, scheme, 7, bad)
            .unwrap_err()
            .contains("belongs to shard"));

        // Structural corruption goes through the shared validator.
        let mut bad = good;
        bad.per_key[0].2 += 1;
        assert!(ClassifierPart::from_state(spec, scheme, 7, bad)
            .unwrap_err()
            .contains("occupancy"));
    }

    #[test]
    fn empty_subsnapshots_keep_parts_in_lockstep() {
        // One hot key only: every other shard sees nothing for the whole
        // run, yet must retire history and replicate sum_t identically.
        let rows: Vec<Vec<(KeyId, f32)>> =
            (0..10).map(|n| vec![(3u32, 1000.0 + n as f32)]).collect();
        let scheme = Scheme::LatentHeat { window: 3 };
        let mut serial = OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, scheme);
        let expected: Vec<IntervalOutcome> = rows.iter().map(|row| serial.observe(row)).collect();
        let (got, parts, coord) = run_sharded(4, scheme, &rows);
        for (out, want) in got.iter().zip(&expected) {
            assert_eq!(out.elephants, want.elephants);
            assert_eq!(out.elephant_load.to_bits(), want.elephant_load.to_bits());
        }
        let states: Vec<PartState> = parts.iter().map(|p| p.export_state()).collect();
        let merged =
            merge_states(&states, coord.intervals_observed(), coord.smoothed_value()).unwrap();
        assert_eq!(merged, serial.export_state());
    }
}
