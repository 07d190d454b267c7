//! The per-prefix, per-interval bandwidth matrix, stored columnar.

use std::collections::HashMap;

use eleph_bgp::BgpTable;
use eleph_net::Prefix;
use eleph_trace::{FlowPopulation, RateTrace, WorkloadConfig};

use crate::remeasure::{Coarsen, Refine};

/// Dense integer id for a prefix within one [`BandwidthMatrix`].
pub type KeyId = u32;

/// The `B_i(n)` matrix of the paper: for every measurement interval `n`,
/// the average bandwidth (b/s) of every prefix `i` that saw traffic.
///
/// Stored as a frozen CSR-style columnar structure: one offsets array
/// delimits each interval's run inside two parallel columns (key ids and
/// rates), both sorted by key id within an interval. Compared to the
/// previous per-interval `Vec<(KeyId, f32)>` boxes this keeps the whole
/// matrix in three contiguous allocations, so a classification pass is
/// one linear walk with no pointer chasing, and the key/rate columns can
/// be consumed independently (an interval's rates — the threshold
/// detectors' input — are read into a reused buffer without touching
/// its keys).
///
/// Construction is either packet-driven ([`crate::Aggregator::finish`])
/// or rate-driven ([`BandwidthMatrix::from_workload`],
/// [`BandwidthMatrix::from_rate_trace`],
/// [`BandwidthMatrix::from_dense`]); downstream classification cannot
/// tell the difference, by design. Every path appends its entries,
/// interval by interval, straight into the columns the matrix keeps — no
/// per-interval rows are built first and copied. The same traffic
/// re-measured at another T is not a matrix at all:
/// [`BandwidthMatrix::coarsen_each`] and [`BandwidthMatrix::refine_each`]
/// walk it one interval at a time, for a caller that classifies as it
/// goes.
#[derive(Debug, Clone)]
pub struct BandwidthMatrix {
    interval_secs: u64,
    start_unix: u64,
    keys: Vec<Prefix>,
    index: HashMap<Prefix, KeyId>,
    /// `offsets[n]..offsets[n + 1]` is interval `n`'s run in the columns.
    offsets: Vec<usize>,
    /// Active key ids, ascending within each interval run.
    col_keys: Vec<KeyId>,
    /// Rates parallel to `col_keys`.
    col_rates: Vec<f32>,
    totals: Vec<f64>,
}

/// A borrowed view of one interval's sparse snapshot: the key and rate
/// columns of the interval's run, ascending by key id.
///
/// Equality is entry-wise over `(key, rate)` pairs — two views compare
/// equal exactly when the old sparse `Vec<(KeyId, f32)>` rows would have.
#[derive(Clone, Copy)]
pub struct IntervalView<'a> {
    keys: &'a [KeyId],
    rates: &'a [f32],
}

impl<'a> IntervalView<'a> {
    /// Active key ids, ascending.
    pub fn keys(&self) -> &'a [KeyId] {
        self.keys
    }

    /// Whether the interval carried no traffic.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterate `(key, rate)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (KeyId, f32)> + 'a {
        self.keys.iter().copied().zip(self.rates.iter().copied())
    }

    /// Materialise the pairs (for APIs that consume owned snapshots).
    pub fn to_pairs(self) -> Vec<(KeyId, f32)> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for IntervalView<'a> {
    type Item = (KeyId, f32);
    type IntoIter = std::iter::Zip<
        std::iter::Copied<std::slice::Iter<'a, KeyId>>,
        std::iter::Copied<std::slice::Iter<'a, f32>>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.keys.iter().copied().zip(self.rates.iter().copied())
    }
}

impl PartialEq for IntervalView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.keys == other.keys && self.rates == other.rates
    }
}

impl std::fmt::Debug for IntervalView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The one way the columns of a [`BandwidthMatrix`] are assembled:
/// entries are pushed interval by interval, in ascending key order, and
/// each interval's total is summed in that order as they arrive.
pub(crate) struct ColumnBuilder {
    offsets: Vec<usize>,
    col_keys: Vec<KeyId>,
    col_rates: Vec<f32>,
    totals: Vec<f64>,
    /// The open interval's running total.
    total: f64,
}

impl ColumnBuilder {
    /// A builder with room for `intervals` intervals of `entries`
    /// entries in all; both are hints, never limits.
    pub(crate) fn with_capacity(intervals: usize, entries: usize) -> Self {
        let mut offsets = Vec::with_capacity(intervals + 1);
        offsets.push(0);
        ColumnBuilder {
            offsets,
            col_keys: Vec::with_capacity(entries),
            col_rates: Vec::with_capacity(entries),
            totals: Vec::with_capacity(intervals),
            total: 0.0,
        }
    }

    /// Append `(key, rate)` to the open interval. Keys must ascend
    /// within an interval; this is asserted in debug builds.
    #[inline]
    pub(crate) fn push(&mut self, key: KeyId, rate: f32) {
        debug_assert!(
            self.col_keys.len() == self.offsets[self.offsets.len() - 1]
                || self.col_keys[self.col_keys.len() - 1] < key,
            "keys ascend within an interval"
        );
        self.col_keys.push(key);
        self.col_rates.push(rate);
        self.total += f64::from(rate);
    }

    /// End the open interval (possibly empty) and open the next.
    pub(crate) fn close(&mut self) {
        self.offsets.push(self.col_keys.len());
        self.totals.push(std::mem::take(&mut self.total));
    }

    /// The matrix of the closed intervals, keyed by `keys`.
    pub(crate) fn finish(
        self,
        interval_secs: u64,
        start_unix: u64,
        keys: Vec<Prefix>,
    ) -> BandwidthMatrix {
        let index = keys
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as KeyId))
            .collect();
        BandwidthMatrix {
            interval_secs,
            start_unix,
            keys,
            index,
            offsets: self.offsets,
            col_keys: self.col_keys,
            col_rates: self.col_rates,
            totals: self.totals,
        }
    }
}

impl BandwidthMatrix {
    /// Build from dense per-interval rows: `rows[n][i]` is the bandwidth
    /// of `keys[i]` in interval `n` (zero = inactive). Convenient for
    /// tests and for adapting external data sources.
    ///
    /// # Panics
    ///
    /// Panics when a row is longer than `keys`, or when a rate is
    /// negative or non-finite.
    pub fn from_dense(
        interval_secs: u64,
        start_unix: u64,
        keys: Vec<Prefix>,
        rows: &[Vec<f64>],
    ) -> Self {
        let mut out = ColumnBuilder::with_capacity(rows.len(), 0);
        for row in rows {
            assert!(row.len() <= keys.len(), "row wider than key space");
            for (i, &r) in row.iter().enumerate() {
                assert!(r.is_finite() && r >= 0.0, "bad rate {r}");
                if r > 0.0 {
                    out.push(i as KeyId, r as f32);
                }
            }
            out.close();
        }
        out.finish(interval_secs, start_unix, keys)
    }

    /// Convert a synthetic rate trace into a matrix keyed by prefix.
    ///
    /// This is the fast path the figure experiments use: the rate trace
    /// *is* `B_i(n)` already, only the key space changes (flow id →
    /// prefix). The trace's interval rows are appended straight into the
    /// columnar store, no per-interval boxes.
    pub fn from_rate_trace(trace: &RateTrace) -> Self {
        let keys: Vec<Prefix> = trace
            .population
            .iter()
            .map(|(_, meta)| meta.prefix)
            .collect();
        let n_int = trace.n_intervals();
        let entries = (0..n_int).map(|n| trace.active_flows(n)).sum();
        let mut out = ColumnBuilder::with_capacity(n_int, entries);
        for n in 0..n_int {
            // FlowId and KeyId coincide: population order is key order.
            for &(key, rate) in trace.interval(n) {
                out.push(key, rate);
            }
            out.close();
        }
        out.finish(trace.config.interval_secs, trace.config.start_unix, keys)
    }

    /// Generate a synthetic workload straight into a matrix keyed by
    /// prefix: [`RateTrace::walk`]'s rows, each appended to the columns
    /// as it is handed over. The matrix equals
    /// `from_rate_trace(&RateTrace::generate(config, table))` bit for
    /// bit, without the trace: the link is never held twice.
    pub fn from_workload(config: &WorkloadConfig, table: &BgpTable) -> Self {
        let population = FlowPopulation::build(config, table);
        let keys: Vec<Prefix> = population.iter().map(|(_, meta)| meta.prefix).collect();
        // The entry count is known only once the walk ends: the columns
        // grow as the rows arrive.
        let mut out = ColumnBuilder::with_capacity(config.n_intervals, 0);
        RateTrace::walk(config, &population, |row| {
            // FlowId and KeyId coincide: population order is key order.
            for &(key, rate) in row {
                out.push(key, rate);
            }
            out.close();
        });
        drop(population);
        out.finish(config.interval_secs, config.start_unix, keys)
    }

    /// Number of intervals.
    pub fn n_intervals(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Interval length in seconds (the paper's `T`).
    pub fn interval_secs(&self) -> u64 {
        self.interval_secs
    }

    /// Unix time of interval 0's start.
    pub fn start_unix(&self) -> u64 {
        self.start_unix
    }

    /// Number of distinct prefixes ever seen.
    pub fn n_keys(&self) -> usize {
        self.keys.len()
    }

    /// The prefix for a key id.
    pub fn key(&self, id: KeyId) -> Prefix {
        self.keys[id as usize]
    }

    /// The key id for a prefix, if it ever carried traffic.
    pub fn key_id(&self, prefix: Prefix) -> Option<KeyId> {
        self.index.get(&prefix).copied()
    }

    /// Sparse snapshot of interval `n`, ascending by key id.
    pub fn interval(&self, n: usize) -> IntervalView<'_> {
        let (lo, hi) = (self.offsets[n], self.offsets[n + 1]);
        IntervalView {
            keys: &self.col_keys[lo..hi],
            rates: &self.col_rates[lo..hi],
        }
    }

    /// Bandwidth of key `id` in interval `n` (0.0 when inactive).
    pub fn rate(&self, n: usize, id: KeyId) -> f64 {
        let v = self.interval(n);
        match v.keys.binary_search(&id) {
            Ok(idx) => f64::from(v.rates[idx]),
            Err(_) => 0.0,
        }
    }

    /// All bandwidth values of interval `n` (the threshold detectors'
    /// input). Allocates; the classification hot path fills a reused
    /// buffer instead.
    pub fn values(&self, n: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.values_into(n, &mut out);
        out
    }

    /// Fill `out` with interval `n`'s bandwidth values (clearing it
    /// first). Reusing one buffer across intervals keeps a
    /// classification pass allocation-free.
    pub(crate) fn values_into(&self, n: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.interval(n).rates.iter().map(|&r| f64::from(r)));
    }

    /// Re-measure the same traffic at a coarser interval `T' = factor·T`
    /// and hand each coarse interval to `row`, in order: this matrix's
    /// rows walked through a [`Coarsen`] adapter, which says how (bytes
    /// are conserved exactly; a trailing partial group still averages
    /// over the full coarse interval length). The re-measured matrix is
    /// never built: each row is lent from one reused buffer.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is zero.
    pub fn coarsen_each(&self, factor: usize, mut row: impl FnMut(&[(KeyId, f32)])) {
        let mut coarsen = Coarsen::new(factor);
        self.each_row(|fine| coarsen.push(fine, &mut row));
        coarsen.finish(row);
    }

    /// Re-measure the same traffic at a finer interval `T' = T / factor`
    /// and hand each sub-interval to `row`, in order: this matrix's rows
    /// walked through a [`Refine`] adapter under `seed`, which says how
    /// (bounded mean-one jitter; bytes conserved per interval). Rows are
    /// lent from one reused buffer, as in
    /// [`BandwidthMatrix::coarsen_each`].
    ///
    /// # Panics
    ///
    /// Panics when `factor` is zero or does not divide `interval_secs`.
    pub fn refine_each(&self, factor: usize, seed: u64, mut row: impl FnMut(&[(KeyId, f32)])) {
        let mut refine = Refine::new(factor, seed);
        assert!(
            self.interval_secs.is_multiple_of(factor as u64),
            "refinement factor must divide the interval length"
        );
        self.each_row(|parent| refine.push(parent, &mut row));
    }

    /// Hand each interval's sparse row to `row`, in order, from one
    /// reused buffer.
    fn each_row(&self, mut row: impl FnMut(&[(KeyId, f32)])) {
        let mut pairs: Vec<(KeyId, f32)> = Vec::new();
        for n in 0..self.n_intervals() {
            pairs.clear();
            pairs.extend(self.interval(n).iter());
            row(&pairs);
        }
    }

    /// Total bandwidth of interval `n` in b/s.
    pub fn total(&self, n: usize) -> f64 {
        self.totals[n]
    }

    /// Number of active prefixes in interval `n`.
    pub fn active(&self, n: usize) -> usize {
        self.offsets[n + 1] - self.offsets[n]
    }

    /// Totals across all intervals (for busy-period detection and
    /// utilization plots).
    pub fn totals(&self) -> &[f64] {
        &self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleph_bgp::synth::{self, SynthConfig};
    use eleph_trace::WorkloadConfig;
    use proptest::prelude::*;

    fn prefix(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// A matrix of literal sparse rows, through the one builder.
    fn from_rows(
        interval_secs: u64,
        start_unix: u64,
        keys: Vec<Prefix>,
        rows: &[&[(KeyId, f32)]],
    ) -> BandwidthMatrix {
        let mut out = ColumnBuilder::with_capacity(rows.len(), 0);
        for row in rows {
            for &(key, rate) in *row {
                out.push(key, rate);
            }
            out.close();
        }
        out.finish(interval_secs, start_unix, keys)
    }

    /// Every row a walker hands over, owned.
    fn walk(each: impl FnOnce(&mut dyn FnMut(&[(KeyId, f32)]))) -> Vec<Vec<(KeyId, f32)>> {
        let mut rows = Vec::new();
        each(&mut |row| rows.push(row.to_vec()));
        rows
    }

    /// `m`'s traffic re-measured at `interval_secs`, collected into a
    /// matrix of its own.
    fn collect(
        m: &BandwidthMatrix,
        interval_secs: u64,
        each: impl FnOnce(&mut dyn FnMut(&[(KeyId, f32)])),
    ) -> BandwidthMatrix {
        let rows = walk(each);
        let rows: Vec<&[(KeyId, f32)]> = rows.iter().map(Vec::as_slice).collect();
        from_rows(interval_secs, m.start_unix, m.keys.clone(), &rows)
    }

    #[test]
    fn column_builder_basics() {
        let keys = vec![prefix("10.0.0.0/8"), prefix("192.168.0.0/16")];
        let m = from_rows(300, 0, keys, &[&[(0, 100.0), (1, 50.0)], &[(1, 75.0)], &[]]);
        assert_eq!(m.n_intervals(), 3);
        assert_eq!(m.n_keys(), 2);
        assert_eq!(m.rate(0, 0), 100.0);
        assert_eq!(m.rate(0, 1), 50.0);
        assert_eq!(m.rate(1, 0), 0.0);
        assert_eq!(m.total(0), 150.0);
        assert_eq!(m.total(2), 0.0);
        assert_eq!(m.active(1), 1);
        assert_eq!(m.key(1), prefix("192.168.0.0/16"));
        assert_eq!(m.key_id(prefix("10.0.0.0/8")), Some(0));
        assert_eq!(m.key_id(prefix("10.0.0.0/9")), None);
        assert_eq!(m.values(0), vec![100.0, 50.0]);
    }

    #[test]
    fn interval_view_accessors() {
        let keys = vec![prefix("10.0.0.0/8"), prefix("192.168.0.0/16")];
        let m = from_rows(300, 0, keys, &[&[(0, 100.0), (1, 50.0)], &[]]);
        let v = m.interval(0);
        assert_eq!(v.keys.len(), 2);
        assert!(!v.is_empty());
        assert_eq!(v.keys(), &[0, 1]);
        assert_eq!(v.to_pairs(), vec![(0, 100.0), (1, 50.0)]);
        assert_eq!(v, m.interval(0));
        assert!(m.interval(1).is_empty());
        assert_ne!(m.interval(0), m.interval(1));
        let collected: Vec<(KeyId, f32)> = m.interval(0).iter().collect();
        assert_eq!(collected, vec![(0, 100.0), (1, 50.0)]);
    }

    #[test]
    fn values_into_reuses_buffer() {
        let keys = vec![prefix("10.0.0.0/8"), prefix("192.168.0.0/16")];
        let m = from_rows(300, 0, keys, &[&[(0, 100.0), (1, 50.0)], &[(1, 75.0)]]);
        let mut buf = vec![999.0; 7];
        m.values_into(0, &mut buf);
        assert_eq!(buf, vec![100.0, 50.0]);
        m.values_into(1, &mut buf);
        assert_eq!(buf, vec![75.0]);
    }

    #[test]
    fn from_rate_trace_preserves_everything() {
        let table = synth::generate(&SynthConfig {
            n_prefixes: 1_500,
            ..SynthConfig::default()
        });
        let config = WorkloadConfig {
            n_flows: 300,
            n_intervals: 20,
            ..WorkloadConfig::small_test(3)
        };
        let trace = eleph_trace::RateTrace::generate(&config, &table);
        let m = BandwidthMatrix::from_rate_trace(&trace);

        assert_eq!(m.n_intervals(), trace.n_intervals());
        assert_eq!(m.n_keys(), trace.population.len());
        assert_eq!(m.interval_secs(), config.interval_secs);
        assert_eq!(m.start_unix(), config.start_unix);
        for n in 0..m.n_intervals() {
            assert_eq!(m.active(n), trace.active_flows(n));
            assert!((m.total(n) - trace.total(n)).abs() < 1.0);
            assert_eq!(m.interval(n).to_pairs(), trace.interval(n).to_vec());
            for &(id, r) in trace.interval(n) {
                let prefix = trace.population.get(id).prefix;
                let key = m.key_id(prefix).expect("every flow prefix is a key");
                assert_eq!(m.rate(n, key), f64::from(r));
            }
        }
    }

    #[test]
    fn from_workload_equals_the_generated_trace_by_bits() {
        let table = synth::generate(&SynthConfig {
            n_prefixes: 1_500,
            ..SynthConfig::default()
        });
        for (seed, n_intervals, silent) in
            [(3, 20, false), (4, 75, false), (5, 0, false), (6, 9, true)]
        {
            let mut config = WorkloadConfig {
                n_flows: 300,
                n_intervals,
                ..WorkloadConfig::small_test(seed)
            };
            if silent {
                // No flow is ever on: every interval is empty.
                config.heavy_on_prob = 0.0;
                config.mouse_on_prob = 0.0;
            }
            let trace = eleph_trace::RateTrace::generate(&config, &table);
            let want = BandwidthMatrix::from_rate_trace(&trace);
            let got = BandwidthMatrix::from_workload(&config, &table);
            assert_eq!(got.keys, want.keys, "seed {seed}");
            assert_eq!(got.offsets, want.offsets, "seed {seed}");
            assert_eq!(got.col_keys, want.col_keys, "seed {seed}");
            let bits = |m: &BandwidthMatrix| -> (Vec<u32>, Vec<u64>) {
                (
                    m.col_rates.iter().map(|r| r.to_bits()).collect(),
                    m.totals.iter().map(|t| t.to_bits()).collect(),
                )
            };
            assert_eq!(bits(&got), bits(&want), "seed {seed}");
            assert_eq!(
                (got.interval_secs, got.start_unix),
                (want.interval_secs, want.start_unix)
            );
            // The trace sums each interval as the matrix does.
            for n in 0..trace.n_intervals() {
                assert_eq!(
                    trace.total(n).to_bits(),
                    want.total(n).to_bits(),
                    "interval {n}"
                );
            }
        }
    }

    #[test]
    fn coarsen_conserves_bytes_and_remaps_time() {
        let keys = vec![prefix("10.0.0.0/8"), prefix("192.168.0.0/16")];
        // 5 intervals of 60 s; coarsen by 2 → 3 intervals of 120 s (the
        // last one padded with implicit zeros).
        let rows = vec![
            vec![100.0, 0.0],
            vec![50.0, 40.0],
            vec![0.0, 60.0],
            vec![30.0, 0.0],
            vec![10.0, 0.0],
        ];
        let m = BandwidthMatrix::from_dense(60, 500, keys, &rows);
        let c = collect(&m, 120, |row| m.coarsen_each(2, row));
        assert_eq!(c.n_intervals(), 3);
        assert_eq!(c.rate(0, 0), 75.0); // (100 + 50) / 2
        assert_eq!(c.rate(0, 1), 20.0); // (0 + 40) / 2
        assert_eq!(c.rate(1, 0), 15.0); // (0 + 30) / 2
        assert_eq!(c.rate(1, 1), 30.0);
        assert_eq!(c.rate(2, 0), 5.0); // trailing partial group
                                       // Bytes conserve: fine Σ rate·60 == coarse Σ rate·120.
        let fine: f64 = (0..m.n_intervals()).map(|n| m.total(n) * 60.0).sum();
        let coarse: f64 = (0..c.n_intervals()).map(|n| c.total(n) * 120.0).sum();
        assert!((fine - coarse).abs() < 1e-6);
    }

    #[test]
    fn refine_conserves_interval_means() {
        let keys = vec![prefix("10.0.0.0/8"), prefix("192.168.0.0/16")];
        let rows = vec![vec![300.0, 90.0], vec![0.0, 120.0]];
        let m = BandwidthMatrix::from_dense(300, 0, keys, &rows);
        let refined = |seed| collect(&m, 60, |row| m.refine_each(5, seed, row));
        let f = refined(7);
        assert_eq!(f.n_intervals(), 10);
        for n in 0..m.n_intervals() {
            for key in 0..2u32 {
                let parent = m.rate(n, key);
                let mean: f64 = (0..5).map(|j| f.rate(n * 5 + j, key)).sum::<f64>() / 5.0;
                assert!(
                    (mean - parent).abs() <= parent * 1e-5,
                    "key {key} interval {n}: mean {mean} vs parent {parent}"
                );
                // Jitter actually varies the sub-slots of active keys.
                if parent > 0.0 {
                    let distinct: std::collections::HashSet<u64> =
                        (0..5).map(|j| f.rate(n * 5 + j, key).to_bits()).collect();
                    assert!(distinct.len() > 1, "no sub-interval variation");
                }
            }
        }
        // Deterministic in the seed; different seeds differ.
        let f2 = refined(7);
        let f3 = refined(8);
        for n in 0..f.n_intervals() {
            assert_eq!(f.interval(n), f2.interval(n));
        }
        assert!((0..f.n_intervals()).any(|n| f.interval(n) != f3.interval(n)));
    }

    #[test]
    fn totals_accessor_matches_pointwise() {
        let keys = vec![prefix("10.0.0.0/8")];
        let m = from_rows(60, 0, keys, &[&[(0, 10.0)], &[(0, 20.0)]]);
        assert_eq!(m.totals(), &[10.0, 20.0]);
    }

    /// An independent construction of the same rows: every re-measured
    /// interval built as its own `Vec<(KeyId, f32)>` and all of them
    /// kept, the way the re-measured matrices were once built.
    mod row_oracle {
        use super::super::*;
        use crate::remeasure::split_hash;

        pub(crate) fn coarsen(m: &BandwidthMatrix, factor: usize) -> Vec<Vec<(KeyId, f32)>> {
            let n_coarse = m.n_intervals().div_ceil(factor);
            let mut acc: Vec<f64> = vec![0.0; m.n_keys()];
            let mut touched: Vec<KeyId> = Vec::new();
            let mut intervals: Vec<Vec<(KeyId, f32)>> = Vec::with_capacity(n_coarse);
            let inv = 1.0 / factor as f64;
            for c in 0..n_coarse {
                for n in (c * factor)..((c + 1) * factor).min(m.n_intervals()) {
                    for (key, rate) in m.interval(n).iter() {
                        if rate == 0.0 {
                            continue;
                        }
                        if acc[key as usize] == 0.0 {
                            touched.push(key);
                        }
                        acc[key as usize] += f64::from(rate);
                    }
                }
                touched.sort_unstable();
                let mut row = Vec::with_capacity(touched.len());
                for &key in &touched {
                    let rate = (acc[key as usize] * inv) as f32;
                    acc[key as usize] = 0.0;
                    if rate > 0.0 {
                        row.push((key, rate));
                    }
                }
                touched.clear();
                intervals.push(row);
            }
            intervals
        }

        pub(crate) fn refine(
            m: &BandwidthMatrix,
            factor: usize,
            seed: u64,
        ) -> Vec<Vec<(KeyId, f32)>> {
            let mut intervals: Vec<Vec<(KeyId, f32)>> = Vec::new();
            let mut factors: Vec<f64> = vec![0.0; factor];
            for n in 0..m.n_intervals() {
                let view = m.interval(n);
                let mut rows: Vec<Vec<(KeyId, f32)>> = vec![Vec::new(); factor];
                for (key, rate) in view.iter() {
                    let mut sum = 0.0f64;
                    for (j, f) in factors.iter_mut().enumerate() {
                        let h = split_hash(
                            seed ^ (u64::from(key) << 32) ^ ((n as u64) << 8) ^ j as u64,
                        );
                        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                        *f = 0.75 + 0.5 * u;
                        sum += *f;
                    }
                    let norm = factor as f64 / sum;
                    for (j, row) in rows.iter_mut().enumerate() {
                        let sub = (f64::from(rate) * factors[j] * norm) as f32;
                        if sub > 0.0 {
                            row.push((key, sub));
                        }
                    }
                }
                intervals.extend(rows);
            }
            intervals
        }
    }

    /// Rows with their rates as bits.
    fn row_bits(rows: &[Vec<(KeyId, f32)>]) -> Vec<Vec<(KeyId, u32)>> {
        rows.iter()
            .map(|row| {
                row.iter()
                    .map(|&(key, rate)| (key, rate.to_bits()))
                    .collect()
            })
            .collect()
    }

    /// A sparse matrix whose rates mix ordinary values with subnormals
    /// (which `refine_each` can round to zero), explicit zeros (which
    /// `coarsen_each` skips) and the smallest normal. T = 420 s is divisible
    /// by every factor 1..=7.
    fn sparse_matrix() -> impl Strategy<Value = BandwidthMatrix> {
        let entry = || {
            let rate = prop_oneof![
                4 => 1e-3f32..1e9,
                1 => (1u32..0x0080_0000).prop_map(f32::from_bits),
                1 => Just(0.0f32),
                1 => Just(f32::MIN_POSITIVE),
            ];
            prop_oneof![2 => Just(None), 1 => rate.prop_map(Some)]
        };
        (1usize..40, 0usize..24).prop_flat_map(move |(n_keys, n_intervals)| {
            prop::collection::vec(prop::collection::vec(entry(), n_keys), n_intervals).prop_map(
                move |rows| {
                    let keys = (0..n_keys as u32)
                        .map(|i| Prefix::from_u32(i << 8, 24).expect("a /24"))
                        .collect();
                    let mut out = ColumnBuilder::with_capacity(rows.len(), 0);
                    for row in &rows {
                        for (key, rate) in row.iter().enumerate() {
                            if let Some(rate) = *rate {
                                out.push(key as KeyId, rate);
                            }
                        }
                        out.close();
                    }
                    out.finish(420, 1_000, keys)
                },
            )
        })
    }

    proptest! {
        #[test]
        fn refine_and_coarsen_equal_the_row_oracle(
            m in sparse_matrix(),
            factor in 1usize..=7,
            seed in any::<u64>(),
        ) {
            let refined = walk(|row| m.refine_each(factor, seed, row));
            assert_eq!(row_bits(&refined), row_bits(&row_oracle::refine(&m, factor, seed)));
            // Any interval count that `factor` does not divide leaves a
            // trailing partial group.
            let coarsened = walk(|row| m.coarsen_each(factor, row));
            assert_eq!(row_bits(&coarsened), row_bits(&row_oracle::coarsen(&m, factor)));
        }
    }
}
