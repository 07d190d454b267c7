//! The induced two-state process and its holding-time statistics.
//!
//! Classification induces, for each flow, the process
//! `Z_i(n) = 1` if elephant, `0` if mouse (paper §II). The quality of a
//! scheme for traffic engineering is judged by how long flows *hold* the
//! elephant state: the paper reports average holding times of 20–40 min
//! (volatile) for single-feature classification and ≈ 2 h for latent
//! heat, with the single-interval-elephant count dropping from > 1000 to
//! ≈ 50 (Figure 1(c)).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Range;

use eleph_flow::KeyId;

use crate::ClassificationResult;

/// Per-flow holding behaviour within the analysis window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowHolding {
    /// Total intervals spent in the elephant state.
    pub slots: usize,
    /// Number of maximal elephant runs.
    pub runs: usize,
    /// Average holding time in slots (`slots / runs`).
    pub avg_slots: f64,
}

/// Holding-time statistics over an interval window (the paper uses the
/// five-hour busy period).
#[derive(Debug, Clone)]
pub struct HoldingStats {
    /// Interval length in seconds (to convert slots to wall time).
    pub interval_secs: u64,
    /// The analysed window.
    pub window: Range<usize>,
    /// Every flow that was an elephant at least once, with its holding
    /// behaviour.
    pub per_flow: Vec<(KeyId, FlowHolding)>,
    /// Mean of per-flow average holding times, in slots.
    pub mean_avg_slots: f64,
    /// Flows that were elephants for exactly one interval in total — the
    /// paper's headline volatility number.
    pub single_interval_flows: usize,
}

impl HoldingStats {
    /// Mean of per-flow average holding times in minutes.
    pub fn mean_avg_minutes(&self) -> f64 {
        self.mean_avg_slots * self.interval_secs as f64 / 60.0
    }

    /// Histogram of per-flow average holding times: bucket `k` counts
    /// flows whose average rounds to `k` slots (Figure 1(c)'s data, to be
    /// plotted with a log count axis). Bucket 0 is unused.
    pub fn avg_holding_histogram(&self, max_slots: usize) -> Vec<u64> {
        let mut hist = vec![0u64; max_slots + 1];
        for (_, h) in &self.per_flow {
            let bucket = (h.avg_slots.round() as usize).clamp(1, max_slots);
            hist[bucket] += 1;
        }
        hist
    }
}

/// Analyse the two-state process over `window`.
///
/// A run that is still open at the window edge counts as a run (the
/// paper's busy-period cut does the same: holding times are clipped by
/// the observation window).
pub fn analyze(
    result: &ClassificationResult,
    window: Range<usize>,
    interval_secs: u64,
) -> HoldingStats {
    assert!(
        window.end <= result.n_intervals(),
        "window {window:?} beyond {} intervals",
        result.n_intervals()
    );
    // Per key, in key order: (slots, runs). Elephant lists are ascending,
    // so "was it an elephant last interval" is a binary search.
    let mut counts: BTreeMap<KeyId, (usize, usize)> = BTreeMap::new();
    let mut prev: &[KeyId] = &[];
    for n in window.clone() {
        let current = &result.elephants[n][..];
        for &key in current {
            let (slots, runs) = counts.entry(key).or_default();
            *slots += 1;
            if prev.binary_search(&key).is_err() {
                *runs += 1;
            }
        }
        prev = current;
    }

    let per_flow: Vec<(KeyId, FlowHolding)> = counts
        .into_iter()
        .map(|(key, (slots, runs))| {
            let avg_slots = slots as f64 / runs as f64;
            (key, FlowHolding { slots, runs, avg_slots })
        })
        .collect();

    let mean_avg_slots = if per_flow.is_empty() {
        0.0
    } else {
        per_flow.iter().map(|(_, h)| h.avg_slots).sum::<f64>() / per_flow.len() as f64
    };
    let single_interval_flows = per_flow.iter().filter(|(_, h)| h.slots == 1).count();

    HoldingStats {
        interval_secs,
        window,
        per_flow,
        mean_avg_slots,
        single_interval_flows,
    }
}

/// Per-interval reclassification churn: how many flows changed state
/// between consecutive intervals. The paper's motivation for latent heat
/// is precisely to keep this small for TE applications.
pub fn churn(result: &ClassificationResult) -> Vec<usize> {
    let mut prev: &[KeyId] = &[];
    let mut out = Vec::with_capacity(result.n_intervals());
    for current in &result.elephants {
        out.push(symmetric_difference_len(prev, current));
        prev = current;
    }
    out
}

/// `|a △ b|` for two ascending lists without repeats, by one merge walk.
fn symmetric_difference_len(a: &[KeyId], b: &[KeyId]) -> usize {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    a.len() + b.len() - 2 * common
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;

    /// Hand-build a result with scripted elephant sets.
    fn scripted(sets: Vec<Vec<KeyId>>) -> ClassificationResult {
        let n = sets.len();
        ClassificationResult {
            detector: "scripted".to_string(),
            scheme: Scheme::SingleFeature,
            thresholds: vec![0.0; n],
            raw_thresholds: vec![Some(0.0); n],
            elephants: sets,
            elephant_load: vec![0.0; n],
            total_load: vec![1.0; n],
        }
    }

    #[test]
    fn single_continuous_run() {
        let r = scripted(vec![vec![7], vec![7], vec![7], vec![]]);
        let h = analyze(&r, 0..4, 300);
        assert_eq!(h.per_flow.len(), 1);
        let (key, fh) = h.per_flow[0];
        assert_eq!(key, 7);
        assert_eq!(fh.slots, 3);
        assert_eq!(fh.runs, 1);
        assert!((fh.avg_slots - 3.0).abs() < 1e-12);
        assert_eq!(h.single_interval_flows, 0);
        assert!((h.mean_avg_minutes() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn split_runs_average() {
        // 2-slot run, gap, 1-slot run → avg = 3/2.
        let r = scripted(vec![vec![1], vec![1], vec![], vec![1]]);
        let h = analyze(&r, 0..4, 300);
        let (_, fh) = h.per_flow[0];
        assert_eq!(fh.slots, 3);
        assert_eq!(fh.runs, 2);
        assert!((fh.avg_slots - 1.5).abs() < 1e-12);
    }

    #[test]
    fn single_interval_flows_counted() {
        let r = scripted(vec![vec![1, 2], vec![2], vec![]]);
        let h = analyze(&r, 0..3, 300);
        assert_eq!(h.single_interval_flows, 1); // key 1
        assert_eq!(h.per_flow.len(), 2);
    }

    #[test]
    fn window_clips_runs() {
        // Key elephant from 0..6, but window is 2..4: 2 slots, 1 run.
        let r = scripted((0..6).map(|_| vec![3]).collect());
        let h = analyze(&r, 2..4, 300);
        let (_, fh) = h.per_flow[0];
        assert_eq!(fh.slots, 2);
        assert_eq!(fh.runs, 1);
        assert_eq!(h.window, 2..4);
    }

    #[test]
    fn empty_window_and_no_elephants() {
        let r = scripted(vec![vec![], vec![]]);
        let h = analyze(&r, 0..2, 300);
        assert!(h.per_flow.is_empty());
        assert_eq!(h.mean_avg_slots, 0.0);
        assert_eq!(h.single_interval_flows, 0);
        assert!(h.avg_holding_histogram(10).iter().all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn window_bounds_checked() {
        let r = scripted(vec![vec![]]);
        let _ = analyze(&r, 0..2, 300);
    }

    #[test]
    fn histogram_buckets_round_and_clamp() {
        // avg 1.0 → bucket 1; avg 1.5 → bucket 2 (rounds up); avg 60 with
        // max 10 → clamped to bucket 10.
        let r = scripted(vec![
            vec![1, 2, 3],
            vec![2, 3],
            vec![3],
            vec![2, 3],
            vec![3],
            vec![3],
        ]);
        // key 1: slots 1 runs 1 → avg 1. key 2: slots 3, runs 2 → 1.5.
        // key 3: slots 6, runs 1 → 6.
        let h = analyze(&r, 0..6, 300);
        let hist = h.avg_holding_histogram(10);
        assert_eq!(hist[1], 1);
        assert_eq!(hist[2], 1);
        assert_eq!(hist[6], 1);
        let hist_small = h.avg_holding_histogram(4);
        assert_eq!(hist_small[4], 1); // key 3 clamped
    }

    #[test]
    fn churn_counts_state_changes() {
        let r = scripted(vec![vec![1, 2], vec![2, 3], vec![2, 3], vec![]]);
        // n=0: {} → {1,2}: 2 changes. n=1: {1,2} → {2,3}: 2. n=2: 0.
        // n=3: {2,3} → {}: 2.
        assert_eq!(churn(&r), vec![2, 2, 0, 2]);
    }

    #[test]
    fn merge_walk_counts_what_a_set_difference_counts() {
        use std::collections::BTreeSet;
        // Every subset of 0..6, ascending, against every other.
        let sets: Vec<Vec<KeyId>> =
            (0u32..64).map(|n| (0..6).filter(|k| n >> k & 1 == 1).collect()).collect();
        for a in &sets {
            for b in &sets {
                let (sa, sb): (BTreeSet<_>, BTreeSet<_>) = (a.iter().collect(), b.iter().collect());
                assert_eq!(symmetric_difference_len(a, b), sa.symmetric_difference(&sb).count());
            }
        }
    }
}
