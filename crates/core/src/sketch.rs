//! Sub-linear state backends for the open-interval byte row.
//!
//! Every per-key structure on the streaming path — the dense byte row,
//! the classifier's `sum`/`live` vectors — is O(distinct keys). That is
//! fine for ~20k BGP prefixes but collapses for 5-tuple flows from
//! millions of users. This module abstracts the *open interval's* byte
//! accumulation behind [`StateBackend`], so an interval can be sealed
//! from either the exact dense row or a fixed-budget sketch snapshot
//! without touching detection, EWMA smoothing, latent heat, or
//! hysteresis: whatever the backend, the sealed snapshot feeds the same
//! [`OnlineClassifier::observe`](crate::OnlineClassifier::observe).
//!
//! Four backends:
//!
//! * [`ExactDense`] — the reference implementation and the default:
//!   the dense `bytes-per-key` row plus a touched-key list,
//!   byte-for-byte the pre-sketch pipeline behaviour (and pinned so by
//!   the pipeline's equivalence tests). O(distinct keys) memory. The
//!   pipeline's `--shards N` row is this one, held by N worker threads
//!   (`key % N` picks the worker) behind the same trait.
//! * [`SpaceSaving`] — stream-summary top-k with min-counter eviction
//!   (Metwally et al.; the elephant-detection variant analysed by Ben
//!   Basat et al., *Optimal Elephant Flow Detection*). Deterministic
//!   error bound: any key's count error ≤ total/k for capacity k.
//! * [`CountMinRow`] — a count-min sketch with conservative update
//!   backing an approximate byte row, plus a bounded heavy-hitter
//!   candidate list so the sealed snapshot is enumerable. Estimates
//!   never undercount.
//! * [`AdaptiveBloom`] — an Estan–Varghese multistage filter with the
//!   periodic refresh + threshold adaptation of the supermarket-model
//!   analysis (Chabchoub et al.): keys must push ≥ `threshold` bytes
//!   through every stage before they are tracked exactly; stages reset
//!   each interval and the threshold adapts to the tracked population.
//!
//! All sketch backends are deterministic: hashing uses fixed
//! compile-time seeds, an eviction takes the lowest slot among the
//! minimum counts (one `SlotHeap` decides it for both backends that
//! evict), and nothing reads a clock or an RNG — the same packet
//! sequence always produces the same sealed snapshots, checkpoint
//! payloads, and JSONL.
//!
//! What is approximated and what stays exact: only the per-interval
//! byte *row* is approximate. Key identity, interval geometry, packet
//! accounting, threshold detection, smoothing and scheme state all run
//! unchanged on the sealed snapshot — so the accuracy loss of a sketch
//! is exactly the divergence of its snapshot from the dense row, which
//! the `eleph sketch` harness measures against the exact oracle.

use eleph_flow::KeyId;
use rustc_hash::FxHashMap;

/// How many bytes one [`SpaceSaving`] entry is charged when capacity
/// is derived from a byte budget: the 24 B entry (key, counter, error
/// bound), its 16 B [`SlotHeap`] node, and its share of the hash index
/// (a 16 B bucket plus a control byte, at the table's load factor).
/// The quotient is the error bound (total / capacity) and the
/// checkpoint geometry, so this is a fixed nominal charge, not an
/// allocator-exact footprint.
const SS_ENTRY_COST: usize = 64;

/// Count-min depth (independent hash rows).
const CM_DEPTH: usize = 4;

/// Bytes one candidate-list entry is charged ([`CountMinRow`]
/// candidates, which also carry a [`SlotHeap`] node, and
/// [`AdaptiveBloom`] tracked entries: key + counter + index overhead).
const CANDIDATE_COST: usize = 64;

/// Multistage-filter stage count.
const BLOOM_STAGES: usize = 4;

/// [`AdaptiveBloom`] tracking threshold: initial value and adaptation
/// floor, in bytes per interval. Both are one small packet: the filter
/// starts *permissive* — tracking essentially every active key — and
/// only tightens when promotions saturate the tracked capacity. When
/// capacity allows it this keeps the sealed snapshot's *population*
/// (and therefore the detector's threshold) unbiased; dropping the mice
/// from the snapshot would inflate the constant-load threshold and
/// silently cost recall on marginal elephants. Starting selective
/// instead would bias the run's early intervals, and that bias
/// persists: the EWMA threshold (γ close to 1) and the latent-heat
/// window both remember it long after the threshold has adapted down.
const BLOOM_THRESHOLD_INIT: u64 = 64;
const BLOOM_THRESHOLD_MIN: u64 = 64;
/// Adaptation ceiling (2^40 bytes/interval ≈ a terabyte — far past any
/// realistic per-flow interval volume).
const BLOOM_THRESHOLD_MAX: u64 = 1 << 40;

/// Version tag prefixed to every serialized sketch payload, so the
/// checkpoint format can evolve per backend.
const SKETCH_PAYLOAD_VERSION: u32 = 1;

/// Fixed odd multipliers seeding the per-row hash functions (splitmix64
/// increments); compile-time constants so hashing is deterministic
/// across runs, processes and platforms.
const HASH_SEEDS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xBF58_476D_1CE4_E5B9,
    0x94D0_49BB_1331_11EB,
    0xD6E8_FEB8_6659_FD93,
];

/// One deterministic 64-bit hash of `key` under `seed` (splitmix64
/// finalizer — full avalanche, no allocation, no RNG).
#[inline]
fn hash_key(key: KeyId, seed: u64) -> u64 {
    let mut x = u64::from(key) ^ seed;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Largest power of two ≤ `x` (minimum 1).
fn prev_power_of_two(x: usize) -> usize {
    if x <= 1 {
        1
    } else {
        1 << (usize::BITS - 1 - x.leading_zeros())
    }
}

/// The open-interval byte accumulation behind the streaming pipeline's
/// seal path.
///
/// Contract (what the pipeline relies on):
///
/// * [`record`](StateBackend::record) folds attributed bytes for a key
///   into the open interval; zero-byte packets leave no entry (matching
///   the batch aggregator). [`record_many`](StateBackend::record_many)
///   is `record` over a slice of pairs, in order — the form the pipeline
///   calls, once per packet chunk, so a trait object is dispatched per
///   chunk and not per packet.
/// * [`seal_into`](StateBackend::seal_into) clears `out` and fills it
///   with the open interval's `(key, rate)` snapshot in **ascending key
///   order**, converting with the exact expression of the batch matrix
///   (`(bytes as f64 * 8.0 / secs) as f32`), then resets the open
///   state. The snapshot feeds `OnlineClassifier::observe` unchanged.
/// * [`export_sketch`](StateBackend::export_sketch) /
///   [`restore_sketch`](StateBackend::restore_sketch) round-trip the
///   backend's full open state through a versioned byte payload
///   (checkpoint format v3); the exact backend instead exposes its row
///   through [`open_row`](StateBackend::open_row) (format v2).
/// * Everything is deterministic: same record sequence → same
///   snapshots, same payload bytes.
pub trait StateBackend: Send {
    /// Stable identifier used in checkpoints and the CLI
    /// (`"exact"`, `"spacesaving"`, `"cmrow"`, `"bloom"`).
    fn kind(&self) -> &'static str;

    /// Fold `bytes` attributed to `key` into the open interval.
    fn record(&mut self, key: KeyId, bytes: u64);

    /// [`record`](StateBackend::record) each pair, in slice order: the
    /// open state afterwards (snapshots, payload bytes) is the state
    /// the same calls to `record` would have left.
    fn record_many(&mut self, pairs: &[(KeyId, u64)]) {
        for &(key, bytes) in pairs {
            self.record(key, bytes);
        }
    }

    /// Whether the open interval holds any attributed traffic.
    fn has_traffic(&self) -> bool;

    /// Seal the open interval: clear `out`, fill it with the snapshot
    /// (ascending keys, exact batch-matrix rate arithmetic), reset the
    /// open state.
    fn seal_into(&mut self, secs: f64, out: &mut Vec<(KeyId, f32)>);

    /// The open interval's exact nonzero byte row as sorted
    /// `(key, bytes)` pairs — the checkpoint-v2 frontier. Sketches
    /// return an empty row (their state lives in the sketch payload).
    fn open_row(&self) -> Vec<(KeyId, u64)>;

    /// Serialized open state for checkpointing (`None` for the exact
    /// backend, whose state is the [`open_row`](StateBackend::open_row)).
    fn export_sketch(&self) -> Option<Vec<u8>>;

    /// Restore the open state from an
    /// [`export_sketch`](StateBackend::export_sketch) payload written
    /// by an identically configured backend.
    fn restore_sketch(&mut self, payload: &[u8]) -> Result<(), String>;

    /// Resident state footprint in bytes: the dense-row footprint for
    /// the exact backend, the configured fixed budget for sketches.
    fn state_bytes(&self) -> usize;
}

/// Which state backend a pipeline runs, plus its memory budget —
/// the single configuration surface shared by the pipeline builder,
/// the CLI and checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateBackendConfig {
    /// The exact dense row (the default; O(distinct keys) memory).
    Exact,
    /// [`SpaceSaving`] with this byte budget.
    SpaceSaving {
        /// Total state budget in bytes.
        budget_bytes: usize,
    },
    /// [`CountMinRow`] with this byte budget.
    CountMinRow {
        /// Total state budget in bytes.
        budget_bytes: usize,
    },
    /// [`AdaptiveBloom`] with this byte budget.
    AdaptiveBloom {
        /// Total state budget in bytes.
        budget_bytes: usize,
    },
}

impl StateBackendConfig {
    /// Parse a CLI backend name (`exact | spacesaving | cmrow | bloom`)
    /// with a byte budget (ignored for `exact`).
    pub fn parse(name: &str, budget_bytes: usize) -> Result<Self, String> {
        match name {
            "exact" => Ok(StateBackendConfig::Exact),
            "spacesaving" => Ok(StateBackendConfig::SpaceSaving { budget_bytes }),
            "cmrow" => Ok(StateBackendConfig::CountMinRow { budget_bytes }),
            "bloom" => Ok(StateBackendConfig::AdaptiveBloom { budget_bytes }),
            other => Err(format!(
                "unknown state backend {other}; supported: exact spacesaving cmrow bloom"
            )),
        }
    }

    /// The stable backend identifier (matches
    /// [`StateBackend::kind`]).
    pub fn kind(&self) -> &'static str {
        match self {
            StateBackendConfig::Exact => "exact",
            StateBackendConfig::SpaceSaving { .. } => "spacesaving",
            StateBackendConfig::CountMinRow { .. } => "cmrow",
            StateBackendConfig::AdaptiveBloom { .. } => "bloom",
        }
    }

    /// Build the configured backend, empty.
    pub fn build(&self) -> Box<dyn StateBackend> {
        match *self {
            StateBackendConfig::Exact => Box::new(ExactDense::new()),
            StateBackendConfig::SpaceSaving { budget_bytes } => {
                Box::new(SpaceSaving::with_budget(budget_bytes))
            }
            StateBackendConfig::CountMinRow { budget_bytes } => {
                Box::new(CountMinRow::with_budget(budget_bytes))
            }
            StateBackendConfig::AdaptiveBloom { budget_bytes } => {
                Box::new(AdaptiveBloom::with_budget(budget_bytes))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Exact dense row
// ---------------------------------------------------------------------

/// The exact open-interval byte row: dense `bytes[key]` plus the list
/// of keys touched this interval. This is the pre-sketch pipeline's
/// accumulation verbatim, so `--state exact` output, checkpoints and
/// JSONL are byte-identical to every earlier release; the pipeline
/// holds it behind [`StateBackend`] like every other row.
#[derive(Debug, Default)]
pub struct ExactDense {
    /// Open interval: bytes per key, dense, indexed by [`KeyId`].
    row: Vec<u64>,
    /// Keys with nonzero bytes in the open interval (unsorted until
    /// sealing).
    touched: Vec<KeyId>,
}

impl ExactDense {
    /// An empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild (and validate) the open row from a checkpoint's sparse
    /// `(key, bytes)` pairs against a key table of `n_keys` entries.
    pub fn from_checkpoint_row(n_keys: usize, pairs: &[(KeyId, u64)]) -> Result<Self, String> {
        let mut row = vec![0u64; n_keys];
        let mut touched = Vec::with_capacity(pairs.len());
        for &(key, bytes) in pairs {
            let slot = row
                .get_mut(key as usize)
                .ok_or_else(|| format!("row key {key} has no key entry"))?;
            if *slot != 0 || bytes == 0 {
                return Err(format!("row key {key} duplicated or zero"));
            }
            *slot = bytes;
            touched.push(key);
        }
        Ok(ExactDense { row, touched })
    }
}

impl StateBackend for ExactDense {
    fn kind(&self) -> &'static str {
        "exact"
    }

    #[inline]
    fn record(&mut self, key: KeyId, bytes: u64) {
        let k = key as usize;
        if k >= self.row.len() {
            self.row.resize(k + 1, 0);
        }
        // First nonzero bytes for this key this interval: remember it
        // for the seal scan (zero-length packets are attributed but,
        // like the batch path, leave no entry).
        if self.row[k] == 0 && bytes > 0 {
            self.touched.push(key);
        }
        self.row[k] += bytes;
    }

    fn has_traffic(&self) -> bool {
        !self.touched.is_empty()
    }

    fn seal_into(&mut self, secs: f64, out: &mut Vec<(KeyId, f32)>) {
        self.touched.sort_unstable();
        out.clear();
        for &key in self.touched.iter() {
            let bytes = self.row[key as usize];
            self.row[key as usize] = 0;
            debug_assert!(bytes > 0, "touched key with zero bytes");
            // Identical expression to the batch `matrix_from_rows`,
            // so the f32 rate is bit-identical.
            out.push((key, (bytes as f64 * 8.0 / secs) as f32));
        }
        self.touched.clear();
    }

    fn open_row(&self) -> Vec<(KeyId, u64)> {
        let mut pairs: Vec<(KeyId, u64)> =
            self.touched.iter().map(|&key| (key, self.row[key as usize])).collect();
        pairs.sort_unstable();
        pairs
    }

    fn export_sketch(&self) -> Option<Vec<u8>> {
        None
    }

    fn restore_sketch(&mut self, _payload: &[u8]) -> Result<(), String> {
        Err("the exact backend has no sketch payload (its state is the open row)".to_string())
    }

    fn state_bytes(&self) -> usize {
        self.row.len() * std::mem::size_of::<u64>()
            + self.touched.len() * std::mem::size_of::<KeyId>()
    }
}

// ---------------------------------------------------------------------
// Slot heap
// ---------------------------------------------------------------------

/// Which slot of a full table to evict: a binary min-heap of
/// `(count lower bound, slot)` over the table's slot indices, repaired
/// lazily. [`SpaceSaving`] and [`CountMinRow`]'s candidate list share
/// it.
///
/// Invariant while non-empty: every slot has exactly one node, a
/// node's stored count is ≤ its slot's current count, and the nodes
/// are heap-ordered on `(stored count, slot)`. It relies on the
/// table's counts only growing between two [`clear`](SlotHeap::clear)s,
/// which is what lets a hit add to its slot's count and leave the heap
/// alone. [`min_slot`](SlotHeap::min_slot) writes the current count
/// into the root while the two differ and sifts it down; a root that
/// is current is ≤ every other node's stored pair and therefore ≤
/// every other slot's current pair, so the answer is the **lowest slot
/// among the minimum counts** — a function of the table alone,
/// whatever the order the heap was repaired in.
///
/// Each hit makes at most one node stale and each repair makes one
/// current again, so a table of k slots costs amortised O(log k) per
/// record and never a pass over all of it, except the one heapify
/// after a `clear`.
///
/// Derived state: never serialized. The owner clears it when the
/// table is reset or replaced (`seal_into`, `restore_sketch`) and the
/// next `min_slot` rebuilds it from the table.
#[derive(Debug, Default)]
struct SlotHeap {
    nodes: Vec<(u64, usize)>,
    /// Nodes laid down by rebuilds plus nodes moved by sifting, ever:
    /// the work the complexity test bounds.
    #[cfg(test)]
    sift_steps: u64,
}

impl SlotHeap {
    /// Forget the table: the next [`min_slot`](SlotHeap::min_slot)
    /// starts from whatever table it is given.
    fn clear(&mut self) {
        self.nodes.clear();
    }

    /// The lowest slot among those of `table` whose `count` is minimal.
    /// `table` must be non-empty and keep its length between `clear`s.
    fn min_slot<T>(&mut self, table: &[T], count: impl Fn(&T) -> u64) -> usize {
        if self.nodes.is_empty() {
            self.nodes.extend(table.iter().enumerate().map(|(slot, e)| (count(e), slot)));
            #[cfg(test)]
            {
                self.sift_steps += self.nodes.len() as u64;
            }
            for at in (0..self.nodes.len() / 2).rev() {
                self.sift_down(at);
            }
        }
        debug_assert_eq!(self.nodes.len(), table.len(), "table resized under the heap");
        loop {
            let (stored, slot) = self.nodes[0];
            let current = count(&table[slot]);
            if stored == current {
                return slot;
            }
            self.nodes[0].0 = current;
            self.sift_down(0);
        }
    }

    /// Move the node at `at` down until neither child is smaller.
    fn sift_down(&mut self, mut at: usize) {
        let node = self.nodes[at];
        loop {
            let mut child = 2 * at + 1;
            if child >= self.nodes.len() {
                break;
            }
            if child + 1 < self.nodes.len() && self.nodes[child + 1] < self.nodes[child] {
                child += 1;
            }
            if node <= self.nodes[child] {
                break;
            }
            self.nodes[at] = self.nodes[child];
            at = child;
            #[cfg(test)]
            {
                self.sift_steps += 1;
            }
        }
        self.nodes[at] = node;
    }
}

// ---------------------------------------------------------------------
// Space-Saving
// ---------------------------------------------------------------------

/// One stream-summary entry: the key, its (over-)estimated byte count,
/// and the overestimation bound inherited at insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SsEntry {
    key: KeyId,
    count: u64,
    err: u64,
}

/// Space-Saving stream summary over the open interval's byte counts:
/// at most `capacity` tracked keys; a new key evicts the current
/// minimum counter and inherits its count (Metwally et al. 2005).
///
/// Deterministic guarantees, for capacity k and recorded total B:
///
/// * every entry overestimates: `true ≤ count`, `count − true ≤ err`;
/// * `err ≤ min-counter ≤ B/k`, so **any key's count error is at most
///   B/k** — including untracked keys (whose true count is ≤ B/k);
/// * any key with true count > B/k is tracked.
///
/// A hit is a hash lookup and an add. A miss on a full summary asks
/// the `SlotHeap` for the victim — counts only grow within an
/// interval, which is all the heap needs — and ties break on the lowest
/// slot index, so the summary is a pure function of the record
/// sequence.
#[derive(Debug)]
pub struct SpaceSaving {
    budget: usize,
    capacity: usize,
    entries: Vec<SsEntry>,
    index: FxHashMap<KeyId, usize>,
    /// Eviction order over `entries` once it is full.
    heap: SlotHeap,
    total: u64,
}

impl SpaceSaving {
    /// Capacity derived from a byte budget (entry cost
    /// `SS_ENTRY_COST`; minimum 8 entries).
    pub fn with_budget(budget_bytes: usize) -> Self {
        Self::with_capacity_and_budget((budget_bytes / SS_ENTRY_COST).max(8), budget_bytes)
    }

    /// Exactly `k` tracked entries (tests and the accuracy harness).
    pub fn with_capacity(k: usize) -> Self {
        let k = k.max(1);
        Self::with_capacity_and_budget(k, k * SS_ENTRY_COST)
    }

    fn with_capacity_and_budget(capacity: usize, budget: usize) -> Self {
        SpaceSaving {
            budget,
            capacity,
            entries: Vec::new(),
            index: FxHashMap::default(),
            heap: SlotHeap::default(),
            total: 0,
        }
    }

    /// Tracked-entry capacity k.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total bytes recorded into the open interval.
    #[cfg(test)]
    fn recorded_total(&self) -> u64 {
        self.total
    }

    /// The summary's estimate for `key` (0 when untracked). Never
    /// undercounts a tracked key; overestimates by at most
    /// `total / capacity`.
    #[cfg(test)]
    fn estimate(&self, key: KeyId) -> u64 {
        self.index.get(&key).map_or(0, |&slot| self.entries[slot].count)
    }
}

impl StateBackend for SpaceSaving {
    fn kind(&self) -> &'static str {
        "spacesaving"
    }

    fn record(&mut self, key: KeyId, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.total += bytes;
        if let Some(&slot) = self.index.get(&key) {
            self.entries[slot].count += bytes;
            return;
        }
        if self.entries.len() < self.capacity {
            self.index.insert(key, self.entries.len());
            self.entries.push(SsEntry { key, count: bytes, err: 0 });
            return;
        }
        // Evict the minimum counter; the newcomer inherits its count as
        // both estimate floor and error bound.
        let slot = self.heap.min_slot(&self.entries, |e| e.count);
        let evicted = self.entries[slot];
        self.index.remove(&evicted.key);
        self.index.insert(key, slot);
        self.entries[slot] = SsEntry {
            key,
            count: evicted.count + bytes,
            err: evicted.count,
        };
    }

    fn has_traffic(&self) -> bool {
        self.total > 0
    }

    fn seal_into(&mut self, secs: f64, out: &mut Vec<(KeyId, f32)>) {
        out.clear();
        self.entries.sort_unstable_by_key(|e| e.key);
        for e in &self.entries {
            out.push((e.key, (e.count as f64 * 8.0 / secs) as f32));
        }
        self.entries.clear();
        self.index.clear();
        self.heap.clear();
        self.total = 0;
    }

    fn open_row(&self) -> Vec<(KeyId, u64)> {
        Vec::new()
    }

    fn export_sketch(&self) -> Option<Vec<u8>> {
        let mut w = PayloadWriter::new();
        w.u64(self.total);
        w.u64(self.capacity as u64);
        w.u64(self.entries.len() as u64);
        for e in &self.entries {
            w.u32(e.key);
            w.u64(e.count);
            w.u64(e.err);
        }
        Some(w.finish())
    }

    fn restore_sketch(&mut self, payload: &[u8]) -> Result<(), String> {
        let mut r = PayloadReader::new(payload)?;
        let total = r.u64()?;
        // The capacity is the accuracy guarantee (error ≤ total / k):
        // resuming under a different budget would silently change the
        // bound mid-run, so geometry must match exactly.
        let capacity = r.u64()?;
        if capacity != self.capacity as u64 {
            return Err(format!(
                "space-saving payload was written at capacity {capacity} but this backend's \
                 capacity is {} (budget mismatch between run and resume)",
                self.capacity
            ));
        }
        let n = r.len_prefix(20, "space-saving entries")?;
        if n > self.capacity {
            return Err(format!(
                "space-saving payload holds {n} entries but this backend's capacity is {}",
                self.capacity
            ));
        }
        let mut entries = Vec::with_capacity(n);
        let mut index = FxHashMap::default();
        for _ in 0..n {
            let e = SsEntry { key: r.u32()?, count: r.u64()?, err: r.u64()? };
            if index.insert(e.key, entries.len()).is_some() {
                return Err(format!("space-saving payload duplicates key {}", e.key));
            }
            entries.push(e);
        }
        r.end()?;
        self.entries = entries;
        self.index = index;
        self.heap.clear();
        self.total = total;
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        self.budget
    }
}

// ---------------------------------------------------------------------
// Count-min row
// ---------------------------------------------------------------------

/// Count-min sketch with conservative update backing an approximate
/// per-interval byte row, plus a bounded candidate list that makes the
/// sealed snapshot enumerable (a raw count-min cannot be iterated).
///
/// Half the budget buys the counter array (`CM_DEPTH` rows of a
/// power-of-two width), half the candidate list. Estimates never
/// undercount (count-min property); conservative update — only raising
/// counters below the new estimate — keeps collision inflation to the
/// minimum any count-min can achieve. Candidates admit keys whose
/// running estimate beats the current minimum candidate, found by the
/// same `SlotHeap` as [`SpaceSaving`]'s victim: a candidate's stored
/// estimate only grows within an interval (the update that stored it
/// raised all of the key's counters to at least that value, and the
/// next one adds bytes to their minimum). At seal, every candidate is
/// re-estimated from the counters and emitted.
#[derive(Debug)]
pub struct CountMinRow {
    budget: usize,
    /// Power-of-two row width; `mask = width − 1`.
    width: usize,
    mask: u64,
    /// `CM_DEPTH × width` counters, row-major.
    counters: Vec<u64>,
    /// Candidate heavy hitters: `(key, last conservative estimate)`.
    candidates: Vec<(KeyId, u64)>,
    cand_index: FxHashMap<KeyId, usize>,
    cand_capacity: usize,
    /// Admission order over `candidates` once the list is full.
    cand_heap: SlotHeap,
    total: u64,
}

impl CountMinRow {
    /// Geometry derived from a byte budget: counter width is the
    /// largest power of two fitting half the budget (minimum 64),
    /// candidates fill the rest (minimum 8).
    pub fn with_budget(budget_bytes: usize) -> Self {
        let width = prev_power_of_two(budget_bytes / 2 / (8 * CM_DEPTH)).max(64);
        let cand_capacity = (budget_bytes.saturating_sub(width * 8 * CM_DEPTH) / CANDIDATE_COST).max(8);
        CountMinRow {
            budget: budget_bytes,
            width,
            mask: (width - 1) as u64,
            counters: vec![0; CM_DEPTH * width],
            candidates: Vec::new(),
            cand_index: FxHashMap::default(),
            cand_capacity,
            cand_heap: SlotHeap::default(),
            total: 0,
        }
    }

    /// Counter-row width (power of two).
    #[cfg(test)]
    fn width(&self) -> usize {
        self.width
    }

    /// Candidate-list capacity.
    #[cfg(test)]
    fn candidate_capacity(&self) -> usize {
        self.cand_capacity
    }

    /// The count-min estimate for `key` (minimum over rows). Never
    /// undercounts.
    fn estimate(&self, key: KeyId) -> u64 {
        let mut est = u64::MAX;
        for (d, &seed) in HASH_SEEDS.iter().enumerate().take(CM_DEPTH) {
            let slot = (hash_key(key, seed) & self.mask) as usize;
            est = est.min(self.counters[d * self.width + slot]);
        }
        est
    }
}

impl StateBackend for CountMinRow {
    fn kind(&self) -> &'static str {
        "cmrow"
    }

    fn record(&mut self, key: KeyId, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.total += bytes;
        // Conservative update: raise only the counters below the new
        // estimate, so collisions inflate the minimum as little as any
        // count-min can.
        let mut slots = [0usize; CM_DEPTH];
        let mut est = u64::MAX;
        for (d, &seed) in HASH_SEEDS.iter().enumerate().take(CM_DEPTH) {
            let slot = d * self.width + (hash_key(key, seed) & self.mask) as usize;
            slots[d] = slot;
            est = est.min(self.counters[slot]);
        }
        let target = est + bytes;
        for &slot in &slots {
            if self.counters[slot] < target {
                self.counters[slot] = target;
            }
        }
        // Candidate admission by running estimate.
        if let Some(&slot) = self.cand_index.get(&key) {
            self.candidates[slot].1 = target;
            return;
        }
        if self.candidates.len() < self.cand_capacity {
            self.cand_index.insert(key, self.candidates.len());
            self.candidates.push((key, target));
            return;
        }
        let slot = self.cand_heap.min_slot(&self.candidates, |c| c.1);
        if target <= self.candidates[slot].1 {
            return; // below the weakest candidate: not a heavy hitter yet
        }
        let (old_key, _) = self.candidates[slot];
        self.cand_index.remove(&old_key);
        self.cand_index.insert(key, slot);
        self.candidates[slot] = (key, target);
    }

    fn has_traffic(&self) -> bool {
        self.total > 0
    }

    fn seal_into(&mut self, secs: f64, out: &mut Vec<(KeyId, f32)>) {
        out.clear();
        // Re-estimate every candidate from the counters (the stored
        // running estimate can be stale-low after later collisions).
        let mut sealed: Vec<(KeyId, u64)> =
            self.candidates.iter().map(|&(key, _)| (key, self.estimate(key))).collect();
        sealed.sort_unstable();
        for (key, bytes) in sealed {
            if bytes > 0 {
                out.push((key, (bytes as f64 * 8.0 / secs) as f32));
            }
        }
        self.counters.fill(0);
        self.candidates.clear();
        self.cand_index.clear();
        self.cand_heap.clear();
        self.total = 0;
    }

    fn open_row(&self) -> Vec<(KeyId, u64)> {
        Vec::new()
    }

    fn export_sketch(&self) -> Option<Vec<u8>> {
        let mut w = PayloadWriter::new();
        w.u64(self.total);
        w.u64(self.cand_capacity as u64);
        w.u64(self.counters.len() as u64);
        for &c in &self.counters {
            w.u64(c);
        }
        w.u64(self.candidates.len() as u64);
        for &(key, est) in &self.candidates {
            w.u32(key);
            w.u64(est);
        }
        Some(w.finish())
    }

    fn restore_sketch(&mut self, payload: &[u8]) -> Result<(), String> {
        let mut r = PayloadReader::new(payload)?;
        let total = r.u64()?;
        // Both halves of the geometry bound the error; a budget change
        // mid-run must be loud even when the snapshot happens to fit.
        let cand_capacity = r.u64()?;
        if cand_capacity != self.cand_capacity as u64 {
            return Err(format!(
                "count-min payload was written at candidate capacity {cand_capacity} but this \
                 backend's capacity is {} (budget mismatch between run and resume)",
                self.cand_capacity
            ));
        }
        let n_counters = r.len_prefix(8, "count-min counters")?;
        if n_counters != self.counters.len() {
            return Err(format!(
                "count-min payload holds {n_counters} counters but this backend's geometry \
                 is {} (budget mismatch between run and resume)",
                self.counters.len()
            ));
        }
        let mut counters = Vec::with_capacity(n_counters);
        for _ in 0..n_counters {
            counters.push(r.u64()?);
        }
        let n_cand = r.len_prefix(12, "count-min candidates")?;
        if n_cand > self.cand_capacity {
            return Err(format!(
                "count-min payload holds {n_cand} candidates but this backend's capacity is {}",
                self.cand_capacity
            ));
        }
        let mut candidates = Vec::with_capacity(n_cand);
        let mut cand_index = FxHashMap::default();
        for _ in 0..n_cand {
            let key = r.u32()?;
            let est = r.u64()?;
            if cand_index.insert(key, candidates.len()).is_some() {
                return Err(format!("count-min payload duplicates candidate {key}"));
            }
            candidates.push((key, est));
        }
        r.end()?;
        self.counters = counters;
        self.candidates = candidates;
        self.cand_index = cand_index;
        self.cand_heap.clear();
        self.total = total;
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        self.budget
    }
}

// ---------------------------------------------------------------------
// Adaptive multistage filter
// ---------------------------------------------------------------------

/// Estan–Varghese multistage filter with periodic refresh and an
/// adaptive tracking threshold (the scheme analysed via the supermarket
/// model by Chabchoub et al.).
///
/// Untracked keys add their bytes to one counter per stage; a key
/// whose counters reach the threshold in **every** stage is promoted
/// to exact tracking, credited with its minimum stage counter (a
/// conservative estimate of its bytes so far). Tracked keys bypass the
/// stages entirely (shielding). At each seal the stages reset (periodic
/// refresh) and the threshold adapts: it doubles when the tracked
/// population saturated its capacity, divides by four (down to a
/// one-packet floor) when the population used less than a quarter of
/// it — so the filter finds the selectivity its capacity permits on
/// its own, tracking everything when memory allows and only the
/// genuinely heavy keys when it does not.
///
/// Tracked counts never undercount: everything a key sent before
/// promotion is present in each of its four stage counters, so the
/// promotion credit (their minimum) covers it fully, and afterwards
/// bytes count exactly. They can *overcount* by whatever colliding
/// keys contributed to the promoted key's lightest stage — rare with
/// four independent hashes, and shrinking as the budget widens the
/// stages. Keys whose whole interval stayed under the threshold are
/// absent from the seal; the adaptive threshold keeps that cutoff as
/// low as the tracked capacity permits.
#[derive(Debug)]
pub struct AdaptiveBloom {
    budget: usize,
    width: usize,
    mask: u64,
    /// `BLOOM_STAGES × width` stage counters, row-major; cleared at
    /// every seal (periodic refresh).
    counters: Vec<u64>,
    threshold: u64,
    tracked: Vec<(KeyId, u64)>,
    index: FxHashMap<KeyId, usize>,
    capacity: usize,
    /// A promotion was dropped (or capacity filled) this interval.
    saturated: bool,
    total: u64,
}

impl AdaptiveBloom {
    /// Geometry derived from a byte budget: stage width is the largest
    /// power of two fitting half the budget (minimum 64), tracked
    /// entries fill the rest (minimum 8).
    pub fn with_budget(budget_bytes: usize) -> Self {
        let width = prev_power_of_two(budget_bytes / 2 / (8 * BLOOM_STAGES)).max(64);
        let capacity =
            (budget_bytes.saturating_sub(width * 8 * BLOOM_STAGES) / CANDIDATE_COST).max(8);
        AdaptiveBloom {
            budget: budget_bytes,
            width,
            mask: (width - 1) as u64,
            counters: vec![0; BLOOM_STAGES * width],
            threshold: BLOOM_THRESHOLD_INIT,
            tracked: Vec::new(),
            index: FxHashMap::default(),
            capacity,
            saturated: false,
            total: 0,
        }
    }

    /// The current tracking threshold in bytes per interval.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Tracked-key capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl StateBackend for AdaptiveBloom {
    fn kind(&self) -> &'static str {
        "bloom"
    }

    fn record(&mut self, key: KeyId, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.total += bytes;
        if let Some(&slot) = self.index.get(&key) {
            self.tracked[slot].1 += bytes;
            return;
        }
        let mut passed = true;
        let mut stage_min = u64::MAX;
        for (s, &seed) in HASH_SEEDS.iter().enumerate().take(BLOOM_STAGES) {
            let slot = s * self.width + (hash_key(key, seed) & self.mask) as usize;
            let c = &mut self.counters[slot];
            *c += bytes;
            if *c < self.threshold {
                passed = false;
            }
            stage_min = stage_min.min(*c);
        }
        if !passed {
            return;
        }
        if self.tracked.len() < self.capacity {
            self.index.insert(key, self.tracked.len());
            // Credit the minimum stage counter: every byte the key sent
            // before promotion is in all four of its counters, so the
            // minimum never undercounts it and overcounts only by keys
            // colliding with it in its *lightest* stage. From here on
            // its bytes count exactly.
            self.tracked.push((key, stage_min));
            if self.tracked.len() == self.capacity {
                self.saturated = true;
            }
        } else {
            // No room: drop the promotion and let the refresh double
            // the threshold — better a coarser filter next interval
            // than nondeterministic churn in this one.
            self.saturated = true;
        }
    }

    fn has_traffic(&self) -> bool {
        self.total > 0
    }

    fn seal_into(&mut self, secs: f64, out: &mut Vec<(KeyId, f32)>) {
        out.clear();
        self.tracked.sort_unstable();
        for &(key, bytes) in &self.tracked {
            out.push((key, (bytes as f64 * 8.0 / secs) as f32));
        }
        // Periodic refresh + threshold adaptation.
        let used = self.tracked.len();
        self.tracked.clear();
        self.index.clear();
        self.counters.fill(0);
        self.total = 0;
        if self.saturated {
            self.threshold = self.threshold.saturating_mul(2).min(BLOOM_THRESHOLD_MAX);
        } else if used * 4 < self.capacity && self.threshold > BLOOM_THRESHOLD_MIN {
            // Decrease faster than the ×2 increase: an over-selective
            // threshold biases the sealed population (and the detector
            // computed from it) for every interval it lingers, while an
            // over-permissive one merely saturates capacity once and
            // gets doubled right back.
            self.threshold = (self.threshold / 4).max(BLOOM_THRESHOLD_MIN);
        }
        self.saturated = false;
    }

    fn open_row(&self) -> Vec<(KeyId, u64)> {
        Vec::new()
    }

    fn export_sketch(&self) -> Option<Vec<u8>> {
        let mut w = PayloadWriter::new();
        w.u64(self.total);
        w.u64(self.capacity as u64);
        w.u64(self.threshold);
        w.u8(u8::from(self.saturated));
        w.u64(self.counters.len() as u64);
        for &c in &self.counters {
            w.u64(c);
        }
        w.u64(self.tracked.len() as u64);
        for &(key, count) in &self.tracked {
            w.u32(key);
            w.u64(count);
        }
        Some(w.finish())
    }

    fn restore_sketch(&mut self, payload: &[u8]) -> Result<(), String> {
        let mut r = PayloadReader::new(payload)?;
        let total = r.u64()?;
        let capacity = r.u64()?;
        if capacity != self.capacity as u64 {
            return Err(format!(
                "multistage payload was written at tracked capacity {capacity} but this \
                 backend's capacity is {} (budget mismatch between run and resume)",
                self.capacity
            ));
        }
        let threshold = r.u64()?;
        let saturated = match r.u8()? {
            0 => false,
            1 => true,
            t => return Err(format!("bad multistage saturation flag {t}")),
        };
        let n_counters = r.len_prefix(8, "multistage counters")?;
        if n_counters != self.counters.len() {
            return Err(format!(
                "multistage payload holds {n_counters} counters but this backend's geometry \
                 is {} (budget mismatch between run and resume)",
                self.counters.len()
            ));
        }
        let mut counters = Vec::with_capacity(n_counters);
        for _ in 0..n_counters {
            counters.push(r.u64()?);
        }
        let n_tracked = r.len_prefix(12, "multistage tracked keys")?;
        if n_tracked > self.capacity {
            return Err(format!(
                "multistage payload holds {n_tracked} tracked keys but this backend's \
                 capacity is {}",
                self.capacity
            ));
        }
        let mut tracked = Vec::with_capacity(n_tracked);
        let mut index = FxHashMap::default();
        for _ in 0..n_tracked {
            let key = r.u32()?;
            let count = r.u64()?;
            if index.insert(key, tracked.len()).is_some() {
                return Err(format!("multistage payload duplicates tracked key {key}"));
            }
            tracked.push((key, count));
        }
        r.end()?;
        self.counters = counters;
        self.threshold = threshold;
        self.saturated = saturated;
        self.tracked = tracked;
        self.index = index;
        self.total = total;
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        self.budget
    }
}

// ---------------------------------------------------------------------
// Payload plumbing
// ---------------------------------------------------------------------

/// Little-endian payload writer; every payload opens with
/// [`SKETCH_PAYLOAD_VERSION`].
struct PayloadWriter(Vec<u8>);

impl PayloadWriter {
    fn new() -> Self {
        let mut w = PayloadWriter(Vec::new());
        w.u32(SKETCH_PAYLOAD_VERSION);
        w
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn finish(self) -> Vec<u8> {
        self.0
    }
}

/// Bounds-checked little-endian payload reader; verifies the version
/// prefix up front and `end()` rejects trailing bytes.
struct PayloadReader<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(data: &'a [u8]) -> Result<Self, String> {
        let mut r = PayloadReader { data, at: 0 };
        let version = r.u32()?;
        if version != SKETCH_PAYLOAD_VERSION {
            return Err(format!(
                "unsupported sketch payload version {version} \
                 (this build reads {SKETCH_PAYLOAD_VERSION})"
            ));
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| "sketch payload shorter than declared".to_string())?;
        let slice = &self.data[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// A length prefix, sanity-bounded by the bytes remaining so a
    /// corrupt count cannot trigger a huge allocation.
    fn len_prefix(&mut self, min_elem: usize, what: &str) -> Result<usize, String> {
        let n = self.u64()?;
        let remaining = (self.data.len() - self.at) as u64;
        if n.saturating_mul(min_elem as u64) > remaining {
            return Err(format!("{what} count {n} exceeds remaining payload"));
        }
        Ok(n as usize)
    }

    fn end(&self) -> Result<(), String> {
        if self.at != self.data.len() {
            return Err(format!(
                "{} bytes of trailing sketch payload",
                self.data.len() - self.at
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic keystream for adversarial-ish tests (splitmix64).
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            hash_key(0, self.0)
        }
    }

    fn exact_counts(stream: &[(KeyId, u64)]) -> std::collections::BTreeMap<KeyId, u64> {
        let mut m = std::collections::BTreeMap::new();
        for &(k, b) in stream {
            if b > 0 {
                *m.entry(k).or_insert(0) += b;
            }
        }
        m
    }

    fn skewed_stream(seed: u64, n: usize, key_space: u32) -> Vec<(KeyId, u64)> {
        let mut rng = Lcg(seed);
        (0..n)
            .map(|_| {
                let r = rng.next();
                // Zipf-ish: low keys get most of the traffic.
                let key = ((r % u64::from(key_space)) * (r >> 32 & 3) / 4) as KeyId;
                let bytes = 40 + (r >> 8) % 1500;
                (key, bytes)
            })
            .collect()
    }

    #[test]
    fn exact_dense_matches_reference_map() {
        let stream = skewed_stream(1, 5000, 300);
        let mut exact = ExactDense::new();
        for &(k, b) in &stream {
            exact.record(k, b);
        }
        let reference = exact_counts(&stream);
        let row = exact.open_row();
        assert_eq!(row.len(), reference.len());
        for (got, want) in row.iter().zip(&reference) {
            assert_eq!(got.0, *want.0);
            assert_eq!(got.1, *want.1);
        }
        let mut out = Vec::new();
        exact.seal_into(60.0, &mut out);
        assert_eq!(out.len(), reference.len());
        assert!(!exact.has_traffic());
        assert!(exact.open_row().is_empty());
    }

    #[test]
    fn space_saving_exact_under_capacity() {
        let stream = skewed_stream(2, 4000, 100);
        let mut ss = SpaceSaving::with_capacity(512); // > distinct keys
        for &(k, b) in &stream {
            ss.record(k, b);
        }
        for (&k, &b) in &exact_counts(&stream) {
            assert_eq!(ss.estimate(k), b, "key {k}");
        }
    }

    #[test]
    fn space_saving_error_bound_holds_under_pressure() {
        for seed in 0..8u64 {
            let stream = skewed_stream(seed, 6000, 900);
            let k = 32usize;
            let mut ss = SpaceSaving::with_capacity(k);
            for &(key, b) in &stream {
                ss.record(key, b);
            }
            let total = ss.recorded_total();
            for (&key, &truth) in &exact_counts(&stream) {
                let est = ss.estimate(key);
                let err = est.abs_diff(truth);
                // Any key's count error ≤ total/k, tracked or not.
                assert!(
                    u128::from(err) * k as u128 <= u128::from(total),
                    "seed {seed} key {key}: err {err} > total {total} / k {k}"
                );
            }
        }
    }

    #[test]
    fn space_saving_matches_exact_when_capacity_covers_keys() {
        let stream = skewed_stream(3, 3000, 200);
        let mut ss = SpaceSaving::with_capacity(1024);
        let mut exact = ExactDense::new();
        for &(k, b) in &stream {
            ss.record(k, b);
            exact.record(k, b);
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        ss.seal_into(60.0, &mut a);
        exact.seal_into(60.0, &mut b);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "key {}", x.0);
        }
    }

    #[test]
    fn count_min_never_undercounts() {
        let stream = skewed_stream(4, 6000, 2000);
        let mut cm = CountMinRow::with_budget(16 * 1024); // deliberately tight
        for &(k, b) in &stream {
            cm.record(k, b);
        }
        for (&k, &truth) in &exact_counts(&stream) {
            assert!(cm.estimate(k) >= truth, "key {k} undercounted");
        }
    }

    #[test]
    fn count_min_matches_exact_when_wide() {
        let stream = skewed_stream(5, 3000, 150);
        let mut cm = CountMinRow::with_budget(4 * 1024 * 1024);
        let mut exact = ExactDense::new();
        for &(k, b) in &stream {
            cm.record(k, b);
            exact.record(k, b);
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        cm.seal_into(60.0, &mut a);
        exact.seal_into(60.0, &mut b);
        assert_eq!(a, b, "wide count-min must be collision-free on a small key space");
    }

    #[test]
    fn bloom_tracks_heavy_hitters_within_threshold() {
        let mut bloom = AdaptiveBloom::with_budget(256 * 1024);
        let heavy: KeyId = 7;
        let mut sent = 0u64;
        for _ in 0..200 {
            bloom.record(heavy, 1500);
            sent += 1500;
            // background mice
            for k in 100..110 {
                bloom.record(k, 40);
            }
        }
        let mut out = Vec::new();
        let threshold = bloom.threshold();
        bloom.seal_into(1.0, &mut out);
        let got = out.iter().find(|&&(k, _)| k == heavy).expect("heavy key tracked");
        let est_bytes = (f64::from(got.1) / 8.0) as u64;
        assert!(
            est_bytes.abs_diff(sent) <= threshold + 1500,
            "heavy estimate {est_bytes} vs true {sent} (threshold {threshold})"
        );
    }

    #[test]
    fn bloom_threshold_adapts_both_ways() {
        let mut bloom = AdaptiveBloom::with_budget(8 * 1024); // tiny: capacity 8..
        let t0 = bloom.threshold();
        // Saturate: more heavy keys than capacity.
        for k in 0..64u32 {
            for _ in 0..64 {
                bloom.record(k, 4096);
            }
        }
        let mut out = Vec::new();
        bloom.seal_into(60.0, &mut out);
        assert!(bloom.threshold() > t0, "saturation must raise the threshold");
        // Idle intervals decay it back down to the floor.
        for _ in 0..64 {
            bloom.record(1, 64);
            bloom.seal_into(60.0, &mut out);
        }
        assert_eq!(bloom.threshold(), BLOOM_THRESHOLD_MIN);
    }

    #[test]
    fn sketches_are_deterministic() {
        let stream = skewed_stream(6, 8000, 3000);
        for config in [
            StateBackendConfig::SpaceSaving { budget_bytes: 32 * 1024 },
            StateBackendConfig::CountMinRow { budget_bytes: 32 * 1024 },
            StateBackendConfig::AdaptiveBloom { budget_bytes: 32 * 1024 },
        ] {
            let run = || {
                let mut b = config.build();
                let mut snapshots = Vec::new();
                for (i, &(k, bytes)) in stream.iter().enumerate() {
                    b.record(k, bytes);
                    if i % 1000 == 999 {
                        let mut out = Vec::new();
                        b.seal_into(60.0, &mut out);
                        snapshots.push(out);
                    }
                }
                (snapshots, b.export_sketch().expect("payload"))
            };
            let (snap_a, payload_a) = run();
            let (snap_b, payload_b) = run();
            assert_eq!(payload_a, payload_b, "{} payload", config.kind());
            assert_eq!(snap_a.len(), snap_b.len());
            for (a, b) in snap_a.iter().zip(&snap_b) {
                assert_eq!(a.len(), b.len(), "{}", config.kind());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.0, y.0);
                    assert_eq!(x.1.to_bits(), y.1.to_bits());
                }
            }
        }
    }

    #[test]
    fn sketch_payload_round_trips_mid_interval() {
        let stream = skewed_stream(7, 6000, 500);
        let split = 2500;
        for config in [
            StateBackendConfig::SpaceSaving { budget_bytes: 16 * 1024 },
            StateBackendConfig::CountMinRow { budget_bytes: 16 * 1024 },
            StateBackendConfig::AdaptiveBloom { budget_bytes: 16 * 1024 },
        ] {
            let mut reference = config.build();
            let mut first = config.build();
            for &(k, b) in &stream[..split] {
                reference.record(k, b);
                first.record(k, b);
            }
            let payload = first.export_sketch().expect("payload");
            let mut resumed = config.build();
            resumed.restore_sketch(&payload).expect("restore");
            for &(k, b) in &stream[split..] {
                reference.record(k, b);
                resumed.record(k, b);
            }
            assert_eq!(
                reference.export_sketch(),
                resumed.export_sketch(),
                "{}: resumed state diverged",
                config.kind()
            );
            let (mut a, mut b) = (Vec::new(), Vec::new());
            reference.seal_into(60.0, &mut a);
            resumed.seal_into(60.0, &mut b);
            assert_eq!(a, b, "{}: resumed snapshot diverged", config.kind());
        }
    }

    #[test]
    fn restore_rejects_geometry_and_garbage() {
        let mut cm = CountMinRow::with_budget(64 * 1024);
        cm.record(1, 100);
        let payload = cm.export_sketch().expect("payload");
        // Different budget → different counter geometry → rejected.
        let mut other = CountMinRow::with_budget(8 * 1024);
        assert!(other.restore_sketch(&payload).is_err());
        // Truncation and version garbage are rejected too.
        let mut same = CountMinRow::with_budget(64 * 1024);
        assert!(same.restore_sketch(&payload[..payload.len() - 1]).is_err());
        let mut bad = payload.clone();
        bad[0] = 0xFF;
        assert!(same.restore_sketch(&bad).is_err());
        assert!(same.restore_sketch(&payload).is_ok());
    }

    #[test]
    fn config_parses_and_budgets_scale_geometry() {
        assert_eq!(
            StateBackendConfig::parse("spacesaving", 1024).expect("parse").kind(),
            "spacesaving"
        );
        assert_eq!(StateBackendConfig::parse("exact", 0).expect("parse").kind(), "exact");
        assert_eq!(StateBackendConfig::parse("exact", 0).expect("parse").build().kind(), "exact");
        assert!(StateBackendConfig::parse("bogus", 0).is_err());
        let small = SpaceSaving::with_budget(4 * 1024);
        let large = SpaceSaving::with_budget(1024 * 1024);
        assert!(large.capacity() > small.capacity());
        let small = CountMinRow::with_budget(8 * 1024);
        let large = CountMinRow::with_budget(1024 * 1024);
        assert!(large.width() > small.width());
        assert!(large.candidate_capacity() > small.candidate_capacity());
        assert_eq!(large.state_bytes(), 1024 * 1024, "sketches report their budget");
    }

    #[test]
    fn zero_byte_records_leave_no_entry() {
        for config in [
            StateBackendConfig::SpaceSaving { budget_bytes: 4096 },
            StateBackendConfig::CountMinRow { budget_bytes: 4096 },
            StateBackendConfig::AdaptiveBloom { budget_bytes: 4096 },
        ] {
            let mut b = config.build();
            b.record(3, 0);
            assert!(!b.has_traffic(), "{}", config.kind());
            let mut out = vec![(9, 1.0f32)];
            b.seal_into(60.0, &mut out);
            assert!(out.is_empty(), "{}: seal must clear the scratch", config.kind());
        }
    }

    // -----------------------------------------------------------------
    // The slot heap against the scan it replaced
    // -----------------------------------------------------------------

    /// The eviction choice as it was before [`SlotHeap`]: the first
    /// strictly smaller count of a linear scan, cached until that
    /// slot's count changes.
    fn find_min_by_scan<T>(
        cached: &mut Option<usize>,
        table: &[T],
        count: impl Fn(&T) -> u64,
    ) -> usize {
        if let Some(slot) = *cached {
            return slot;
        }
        let mut m = 0;
        for i in 1..table.len() {
            if count(&table[i]) < count(&table[m]) {
                m = i;
            }
        }
        *cached = Some(m);
        m
    }

    /// A backend that evicts from a slot table: the real `record`, and
    /// beside it the `record` it had before the heap — the oracle. The
    /// oracle is the same struct driven only through `record_by_scan`
    /// (which never consults the heap), its cached minimum held by the
    /// caller; seal, export and restore are shared, and none of them
    /// chooses a victim.
    trait Slotted: StateBackend {
        /// An empty backend with exactly `k` slots.
        fn with_slots(k: usize) -> Self;
        /// `(key, count, err)` per slot, in slot order.
        fn slots(&self) -> Vec<(KeyId, u64, u64)>;
        fn estimate_of(&self, key: KeyId) -> u64;
        fn heap_steps(&self) -> u64;
        fn record_by_scan(&mut self, min_slot: &mut Option<usize>, key: KeyId, bytes: u64);
    }

    impl Slotted for SpaceSaving {
        fn with_slots(k: usize) -> Self {
            SpaceSaving::with_capacity(k)
        }

        fn slots(&self) -> Vec<(KeyId, u64, u64)> {
            self.entries.iter().map(|e| (e.key, e.count, e.err)).collect()
        }

        fn estimate_of(&self, key: KeyId) -> u64 {
            self.estimate(key)
        }

        fn heap_steps(&self) -> u64 {
            self.heap.sift_steps
        }

        fn record_by_scan(&mut self, min_slot: &mut Option<usize>, key: KeyId, bytes: u64) {
            if bytes == 0 {
                return;
            }
            self.total += bytes;
            if let Some(&slot) = self.index.get(&key) {
                self.entries[slot].count += bytes;
                if *min_slot == Some(slot) {
                    *min_slot = None;
                }
                return;
            }
            if self.entries.len() < self.capacity {
                self.index.insert(key, self.entries.len());
                self.entries.push(SsEntry { key, count: bytes, err: 0 });
                return;
            }
            let slot = find_min_by_scan(min_slot, &self.entries, |e| e.count);
            let evicted = self.entries[slot];
            self.index.remove(&evicted.key);
            self.index.insert(key, slot);
            self.entries[slot] = SsEntry {
                key,
                count: evicted.count + bytes,
                err: evicted.count,
            };
            *min_slot = None;
        }
    }

    impl Slotted for CountMinRow {
        /// The narrowest counter rows (64 wide, so keys collide) under
        /// `k` candidate slots.
        fn with_slots(k: usize) -> Self {
            let mut cm = CountMinRow::with_budget(0);
            cm.cand_capacity = k;
            cm
        }

        fn slots(&self) -> Vec<(KeyId, u64, u64)> {
            self.candidates.iter().map(|&(key, est)| (key, est, 0)).collect()
        }

        fn estimate_of(&self, key: KeyId) -> u64 {
            self.estimate(key)
        }

        fn heap_steps(&self) -> u64 {
            self.cand_heap.sift_steps
        }

        fn record_by_scan(&mut self, min_slot: &mut Option<usize>, key: KeyId, bytes: u64) {
            if bytes == 0 {
                return;
            }
            self.total += bytes;
            let mut slots = [0usize; CM_DEPTH];
            let mut est = u64::MAX;
            for (d, &seed) in HASH_SEEDS.iter().enumerate().take(CM_DEPTH) {
                let slot = d * self.width + (hash_key(key, seed) & self.mask) as usize;
                slots[d] = slot;
                est = est.min(self.counters[slot]);
            }
            let target = est + bytes;
            for &slot in &slots {
                if self.counters[slot] < target {
                    self.counters[slot] = target;
                }
            }
            if let Some(&slot) = self.cand_index.get(&key) {
                self.candidates[slot].1 = target;
                if *min_slot == Some(slot) {
                    *min_slot = None;
                }
                return;
            }
            if self.candidates.len() < self.cand_capacity {
                self.cand_index.insert(key, self.candidates.len());
                self.candidates.push((key, target));
                return;
            }
            let slot = find_min_by_scan(min_slot, &self.candidates, |c| c.1);
            if target <= self.candidates[slot].1 {
                return;
            }
            let (old_key, _) = self.candidates[slot];
            self.cand_index.remove(&old_key);
            self.cand_index.insert(key, slot);
            self.candidates[slot] = (key, target);
            *min_slot = None;
        }
    }

    /// One step of a differential program.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// `record(key, bytes)`; the key is taken modulo the key space.
        Record(u32, u64),
        /// `seal_into`.
        Seal,
        /// `export_sketch`, then `restore_sketch` into a fresh backend.
        Reload,
        /// `restore_sketch` of the last `Reload`'s payload over the live
        /// backend: the table is replaced under a heap that was in use.
        Rewind,
    }

    /// Byte weights that make ties (many equal small counts), packets,
    /// and jumps that dwarf everything recorded before them.
    fn weights() -> impl Strategy<Value = u64> {
        prop_oneof![
            4 => Just(1u64),
            2 => Just(64u64),
            4 => 40u64..=1500,
            1 => Just(u64::from(u32::MAX)),
            1 => (1u64 << 32)..(1u64 << 34),
        ]
    }

    fn programs() -> impl Strategy<Value = Vec<Step>> {
        prop::collection::vec(
            prop_oneof![
                40 => (any::<u32>(), weights()).prop_map(|(k, b)| Step::Record(k, b)),
                1 => Just(Step::Seal),
                1 => Just(Step::Reload),
                1 => Just(Step::Rewind),
            ],
            0..400,
        )
    }

    /// A sealed snapshot with its rates as bits.
    fn bits(snapshot: &[(KeyId, f32)]) -> Vec<(KeyId, u32)> {
        snapshot.iter().map(|&(key, rate)| (key, rate.to_bits())).collect()
    }

    /// Run `steps` through the heap-backed backend and the scan oracle
    /// side by side; after every step the two must be the same bytes.
    fn assert_heap_matches_scan<B: Slotted>(k: usize, key_space: u32, steps: &[Step]) {
        let (mut real, mut oracle, mut oracle_min) = (B::with_slots(k), B::with_slots(k), None);
        let mut saved = real.export_sketch().expect("payload");
        for (i, &step) in steps.iter().enumerate() {
            let at = format!("{} k={k} keys={key_space} step {i} {step:?}", real.kind());
            match step {
                Step::Record(key, bytes) => {
                    real.record(key % key_space, bytes);
                    oracle.record_by_scan(&mut oracle_min, key % key_space, bytes);
                }
                Step::Seal => {
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    real.seal_into(60.0, &mut a);
                    oracle.seal_into(60.0, &mut b);
                    oracle_min = None;
                    assert_eq!(bits(&a), bits(&b), "{at}: sealed snapshot");
                }
                Step::Reload => {
                    for side in [&mut real, &mut oracle] {
                        saved = side.export_sketch().expect("payload");
                        *side = B::with_slots(k);
                        side.restore_sketch(&saved).expect("restore");
                    }
                    oracle_min = None;
                }
                Step::Rewind => {
                    real.restore_sketch(&saved).expect("restore");
                    oracle.restore_sketch(&saved).expect("restore");
                    oracle_min = None;
                }
            }
            assert_eq!(real.slots(), oracle.slots(), "{at}: slots");
            assert_eq!(real.export_sketch(), oracle.export_sketch(), "{at}: payload");
            for key in 0..key_space {
                assert_eq!(real.estimate_of(key), oracle.estimate_of(key), "{at}: key {key}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn slot_heap_evicts_exactly_what_the_scan_did(
            k in 1usize..=64,
            spread in 1u32..=8,
            steps in programs(),
        ) {
            let key_space = k as u32 * spread;
            assert_heap_matches_scan::<SpaceSaving>(k, key_space, &steps);
            assert_heap_matches_scan::<CountMinRow>(k, key_space, &steps);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `record_many` is the `record` loop, for every backend: after
        /// each batch and each seal the two sides hold the same open
        /// row, the same payload bytes and the same snapshot. Six keys
        /// per tracked slot at this budget, so the sketches evict.
        #[test]
        fn record_many_is_the_record_loop(
            batches in prop::collection::vec(
                (
                    prop::collection::vec(
                        (0u32..96, prop_oneof![1 => Just(0u64), 9 => weights()]),
                        0..80,
                    ),
                    any::<bool>(),
                ),
                1..10,
            ),
        ) {
            let budget_bytes = 1024;
            for config in [
                StateBackendConfig::Exact,
                StateBackendConfig::SpaceSaving { budget_bytes },
                StateBackendConfig::CountMinRow { budget_bytes },
                StateBackendConfig::AdaptiveBloom { budget_bytes },
            ] {
                let (mut many, mut each) = (config.build(), config.build());
                let (mut a, mut b) = (Vec::new(), Vec::new());
                for (i, (batch, seal)) in batches.iter().enumerate() {
                    many.record_many(batch);
                    for &(key, bytes) in batch {
                        each.record(key, bytes);
                    }
                    let at = format!("{} batch {i}", config.kind());
                    prop_assert_eq!(many.open_row(), each.open_row(), "{}: open row", &at);
                    prop_assert_eq!(many.export_sketch(), each.export_sketch(), "{}: payload", &at);
                    prop_assert_eq!(many.has_traffic(), each.has_traffic(), "{}", &at);
                    if !seal {
                        continue;
                    }
                    many.seal_into(60.0, &mut a);
                    each.seal_into(60.0, &mut b);
                    prop_assert_eq!(bits(&a), bits(&b), "{}: sealed snapshot", &at);
                    prop_assert_eq!(many.export_sketch(), each.export_sketch(), "{}: sealed", &at);
                }
            }
        }
    }

    /// The eviction work as a count, not a timing: at most ⌈log₂ k⌉ heap
    /// steps per record, on three streams built to make every eviction
    /// as expensive as the heap allows. A pass over the table per
    /// eviction would be two orders of magnitude over the bound.
    fn assert_heap_steps_are_logarithmic<B: Slotted>() {
        const K: usize = 1024;
        const N: u64 = 200_000;
        let check = |b: &B, records: u64, stream: &str| {
            let (steps, bound) = (b.heap_steps(), records * u64::from(K.ilog2()));
            assert!(steps > records, "{} {stream}: the stream hardly reached the heap", b.kind());
            assert!(steps <= bound, "{} {stream}: {steps} steps > {bound}", b.kind());
        };

        // Every key new: every record past the first K evicts.
        let mut b = B::with_slots(K);
        for i in 0..N {
            b.record(i as KeyId, 40 + i % 1461);
        }
        check(&b, N, "all-distinct");

        // Touch every tracked key once, then miss, all with one weight:
        // every node is stale at every eviction and, the counts being
        // level, every one of them has to be repaired before a root is
        // current.
        let mut b = B::with_slots(K);
        let mut fresh = 0;
        let mut miss = |b: &mut B| {
            b.record(fresh, 100);
            fresh += 1;
        };
        (0..K).for_each(|_| miss(&mut b));
        let mut records = K as u64;
        while records < N {
            for (key, _, _) in b.slots() {
                b.record(key, 100);
            }
            miss(&mut b);
            records += K as u64 + 1;
        }
        check(&b, records, "all-stale");

        // Strictly ascending weights: every newcomer outweighs the whole
        // table, so every repaired root sinks to a leaf.
        let mut b = B::with_slots(K);
        for i in 0..N {
            b.record((i % (4 * K as u64)) as KeyId, (i + 1) << 20);
        }
        check(&b, N, "ascending");
    }

    #[test]
    fn slot_heap_steps_are_logarithmic_per_record() {
        assert_heap_steps_are_logarithmic::<SpaceSaving>();
        assert_heap_steps_are_logarithmic::<CountMinRow>();
    }

    // -----------------------------------------------------------------
    // Count-min properties
    // -----------------------------------------------------------------

    /// Plain count-min over the same hash rows: every update adds its
    /// bytes to all of its key's counters.
    struct PlainCountMin {
        width: usize,
        counters: Vec<u64>,
    }

    impl PlainCountMin {
        fn cells(&self, key: KeyId) -> [usize; CM_DEPTH] {
            let mask = (self.width - 1) as u64;
            std::array::from_fn(|d| d * self.width + (hash_key(key, HASH_SEEDS[d]) & mask) as usize)
        }

        fn record(&mut self, key: KeyId, bytes: u64) {
            for cell in self.cells(key) {
                self.counters[cell] += bytes;
            }
        }

        fn estimate(&self, key: KeyId) -> u64 {
            self.cells(key).map(|cell| self.counters[cell]).into_iter().min().expect("depth > 0")
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On rows narrow enough that most keys collide: an estimate is
        /// never below the key's true bytes, a candidate's stored
        /// estimate sits between the truth and the counters' answer, and
        /// conservative update never exceeds plain count-min — counter
        /// by counter, hence estimate by estimate.
        #[test]
        fn count_min_never_undercounts_and_conservative_is_at_most_plain(
            stream in prop::collection::vec((0u32..600, weights()), 1..1_500),
            budget in prop_oneof![Just(0usize), Just(4096usize), Just(16 * 1024usize)],
        ) {
            let mut cm = CountMinRow::with_budget(budget);
            let width = cm.width();
            let mut plain = PlainCountMin { width, counters: vec![0; CM_DEPTH * width] };
            for &(key, bytes) in &stream {
                cm.record(key, bytes);
                plain.record(key, bytes);
            }
            let truth = exact_counts(&stream);
            for key in 0..600 {
                let (est, exact) = (cm.estimate(key), truth.get(&key).copied().unwrap_or(0));
                prop_assert!(est >= exact, "key {key}: estimate {est} under true {exact}");
                prop_assert!(est <= plain.estimate(key), "key {key}: conservative over plain");
            }
            for (c, p) in cm.counters.iter().zip(&plain.counters) {
                prop_assert!(c <= p, "a conservative counter exceeds its plain twin");
            }
            for &(key, stored) in &cm.candidates {
                prop_assert!(stored >= truth[&key], "candidate {key} stored under its true bytes");
                prop_assert!(stored <= cm.estimate(key), "candidate {key} stored over its counters");
            }
        }
    }
}
