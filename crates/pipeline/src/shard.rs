//! The sharded online engine: N worker threads, each owning the byte
//! row and classifier partition for its slice of the key space.
//!
//! # Architecture
//!
//! The attribution thread (the pipeline itself) stays the single writer
//! of key *assignment* — first-seen key ids are a property of the packet
//! stream and must not depend on worker scheduling. Attributed
//! `(key, bytes)` pairs accumulate in a pending buffer and are
//! broadcast to every worker in batches ([`SHARD_BATCH`]); each worker
//! filters the batch down to the keys its [`ShardSpec`] owns and bins
//! them into its local dense row. Broadcasting costs one `Arc` clone
//! per worker per batch — no per-packet routing, no per-packet
//! synchronization.
//!
//! # The two-phase seal barrier
//!
//! Detection is global (a threshold is a function of *all* keys), so a
//! seal round-trips the workers twice over their FIFO job channels:
//!
//! 1. **Seal**: each worker converts its local row into its slice of
//!    the interval snapshot (ascending by key, batch-identical rate
//!    arithmetic) and sends it to the pipeline thread, which N-way
//!    merges the slices into the global ascending value vector and runs
//!    the detector + EWMA once ([`SealCoordinator`]).
//! 2. **Classify**: the resulting [`SealContext`] goes back to every
//!    worker together with its own snapshot slice (ping-ponged, so the
//!    allocation is consumed into the window history with no copy);
//!    each worker updates its latent-heat/hysteresis partition and
//!    returns its elephants, which merge in ascending key order into
//!    the exact serial emission ([`merge_observations`]).
//!
//! Because each worker's channel is FIFO, the Seal job is itself the
//! barrier: every Items batch sent before it is binned before the row
//! is sealed. Empty intervals run the same two phases — parts must
//! stay in lockstep with the serial window (one history slot per
//! interval, see `eleph_core::shard`).
//!
//! # Checkpoints
//!
//! A Frontier round-trip collects every worker's open row and
//! [`PartState`]; rows merge with the pending (not yet broadcast)
//! items overlaid, and [`merge_states`] reassembles — with structural
//! cross-validation — the exact serial `ClassifierState`. Checkpoints
//! are therefore shard-count-independent: format v2 fingerprints
//! validate unchanged, and any shard count (including serial) resumes
//! from any other's snapshot.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use eleph_core::{
    merge_observations, merge_states, partition_state, ClassifierPart, ClassifierState,
    IntervalOutcome, PartObservation, PartState, Scheme, SealContext, SealCoordinator,
    ThresholdDetector,
};
use eleph_flow::{KeyId, ShardSpec};

use crate::checkpoint::Checkpoint;

/// Attributed `(key, bytes)` pairs buffered on the pipeline thread
/// before a broadcast to the workers. Large enough to amortize the
/// channel send, small enough to keep batches cache-resident.
pub(crate) const SHARD_BATCH: usize = 1024;

/// Work sent to a shard worker (FIFO per worker; the Seal job doubles
/// as the barrier behind all earlier Items).
enum Job {
    /// A broadcast batch of attributed pairs; the worker bins only the
    /// keys it owns.
    Items(Arc<Vec<(KeyId, u64)>>),
    /// Phase 1: seal the local row into a snapshot slice and return it.
    Seal,
    /// Phase 2: the global context plus the worker's own snapshot slice
    /// (returned from phase 1), to be consumed into the window history.
    Classify(SealContext, Vec<(KeyId, f32)>),
    /// Export the open row and classifier partition (checkpointing).
    Frontier,
}

/// A worker's answer, tagged with its shard index.
enum Resp {
    /// Phase-1 result: the shard's snapshot slice, ascending by key.
    Snapshot(usize, Vec<(KeyId, f32)>),
    /// Phase-2 result: the shard's elephants + load terms.
    Observation(usize, PartObservation),
    /// Frontier export: open-row pairs (ascending) and the partition
    /// state.
    Frontier(usize, Vec<(KeyId, u64)>, Box<PartState>),
}

/// One worker's whole state: its key slice's open-interval row plus
/// classifier partition.
struct Worker {
    spec: ShardSpec,
    part: ClassifierPart,
    /// `interval_secs as f64` — the seal-path rate division must use
    /// the identical expression as the serial engine.
    secs: f64,
    /// Open interval's bytes, dense over *local* key indices.
    row: Vec<u64>,
    /// Local indices with nonzero bytes (unsorted until sealing).
    touched: Vec<u32>,
}

impl Worker {
    fn run(mut self, jobs: Receiver<Job>, resp: Sender<Resp>) {
        let shard = self.spec.shard();
        while let Ok(job) = jobs.recv() {
            let ok = match job {
                Job::Items(items) => {
                    for &(key, bytes) in items.iter() {
                        if self.spec.owns(key) {
                            self.bin(key, bytes);
                        }
                    }
                    true
                }
                Job::Seal => {
                    // Same scan as the serial seal, over the local row:
                    // ascending local index is ascending global key.
                    self.touched.sort_unstable();
                    let mut snapshot = Vec::with_capacity(self.touched.len());
                    for &local in &self.touched {
                        let k = local as usize;
                        let bytes = self.row[k];
                        self.row[k] = 0;
                        debug_assert!(bytes > 0, "touched key with zero bytes");
                        // Identical expression to the batch matrix / serial
                        // seal, so the f32 rate is bit-identical.
                        snapshot
                            .push((self.spec.global(k), (bytes as f64 * 8.0 / self.secs) as f32));
                    }
                    self.touched.clear();
                    resp.send(Resp::Snapshot(shard, snapshot)).is_ok()
                }
                Job::Classify(ctx, snapshot) => {
                    let obs = self.part.observe_part(snapshot, &ctx);
                    resp.send(Resp::Observation(shard, obs)).is_ok()
                }
                Job::Frontier => {
                    let mut row: Vec<(KeyId, u64)> = self
                        .touched
                        .iter()
                        .map(|&local| (self.spec.global(local as usize), self.row[local as usize]))
                        .collect();
                    row.sort_unstable();
                    let state = Box::new(self.part.export_state());
                    resp.send(Resp::Frontier(shard, row, state)).is_ok()
                }
            };
            if !ok {
                // The pipeline went away mid-response; nothing to do.
                return;
            }
        }
    }

    #[inline]
    fn bin(&mut self, key: KeyId, bytes: u64) {
        let k = self.spec.local(key);
        if k >= self.row.len() {
            self.row.resize(k + 1, 0);
        }
        if self.row[k] == 0 && bytes > 0 {
            self.touched.push(k as u32);
        }
        self.row[k] += bytes;
    }
}

/// The sharded counterpart of the serial row + classifier: N long-lived
/// worker threads plus the global [`SealCoordinator`] on the pipeline
/// thread. Output is bit-identical to the serial engine for every
/// shard count (see the module docs for why).
pub(crate) struct ShardEngine<D> {
    coord: SealCoordinator<D>,
    scheme: Scheme,
    /// Attributed pairs not yet broadcast (flushed at [`SHARD_BATCH`],
    /// before every seal, and overlaid onto frontier exports).
    pending: Vec<(KeyId, u64)>,
    /// Whether the open interval has binned any nonzero bytes — the
    /// sharded stand-in for the serial engine's `!touched.is_empty()`.
    dirty: bool,
    job_txs: Vec<Sender<Job>>,
    resp_rx: Receiver<Resp>,
    handles: Vec<JoinHandle<()>>,
}

impl<D: ThresholdDetector> ShardEngine<D> {
    /// Spawn `n_shards` fresh workers (`n_shards ≥ 1`).
    pub(crate) fn new(detector: D, gamma: f64, scheme: Scheme, n_shards: usize, secs: f64) -> Self {
        let parts = (0..n_shards)
            .map(|s| ClassifierPart::new(ShardSpec::new(s, n_shards), scheme))
            .collect();
        Self::spawn(
            SealCoordinator::new(detector, gamma),
            scheme,
            parts,
            vec![Vec::new(); n_shards],
            secs,
        )
    }

    /// Rebuild a sharded engine from a checkpoint's serial state: the
    /// classifier state is validated against the checkpoint's key
    /// count, partitioned onto `n_shards` fresh parts (each part
    /// re-validating its slice plus ownership), and the open row
    /// (ascending, nonzero — the caller has already rebuilt and
    /// validated it) is split the same way.
    pub(crate) fn resume(
        detector: D,
        gamma: f64,
        scheme: Scheme,
        n_shards: usize,
        secs: f64,
        ckpt: &Checkpoint,
    ) -> Result<Self, String> {
        let (n_keys, state, row) = (ckpt.keys.len(), &ckpt.state, &ckpt.row);
        state.validate(scheme, n_keys)?;
        let parts = partition_state(state, n_shards)
            .into_iter()
            .enumerate()
            .map(|(s, ps)| {
                ClassifierPart::from_state(ShardSpec::new(s, n_shards), scheme, n_keys, ps)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut rows: Vec<Vec<(KeyId, u64)>> = vec![Vec::new(); n_shards];
        for &(key, bytes) in row {
            rows[ShardSpec::owner(key, n_shards)].push((key, bytes));
        }
        let mut engine = Self::spawn(
            SealCoordinator::resume(detector, gamma, state.interval, state.smoothed),
            scheme,
            parts,
            rows,
            secs,
        );
        engine.dirty = !row.is_empty();
        Ok(engine)
    }

    fn spawn(
        coord: SealCoordinator<D>,
        scheme: Scheme,
        parts: Vec<ClassifierPart>,
        rows: Vec<Vec<(KeyId, u64)>>,
        secs: f64,
    ) -> Self {
        let (resp_tx, resp_rx) = channel();
        let mut job_txs = Vec::with_capacity(parts.len());
        let mut handles = Vec::with_capacity(parts.len());
        for (part, row_items) in parts.into_iter().zip(rows) {
            let spec = part.spec();
            let mut worker = Worker {
                spec,
                part,
                secs,
                row: Vec::new(),
                touched: Vec::new(),
            };
            for (key, bytes) in row_items {
                worker.bin(key, bytes);
            }
            let (job_tx, job_rx) = channel();
            let resp = resp_tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("eleph-shard-{}", spec.shard()))
                    .spawn(move || worker.run(job_rx, resp))
                    .expect("spawn shard worker"),
            );
            job_txs.push(job_tx);
        }
        ShardEngine {
            coord,
            scheme,
            pending: Vec::with_capacity(SHARD_BATCH),
            dirty: false,
            job_txs,
            resp_rx,
            handles,
        }
    }

    /// Number of shards.
    pub(crate) fn n_shards(&self) -> usize {
        self.job_txs.len()
    }

    /// Buffer one attributed pair; broadcasts when the batch fills.
    /// Zero-byte packets are attributed but leave no row entry (same as
    /// the serial engine), so they never cross to the workers at all.
    #[inline]
    pub(crate) fn bin(&mut self, key: KeyId, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.dirty = true;
        self.pending.push((key, bytes));
        if self.pending.len() >= SHARD_BATCH {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let items =
            Arc::new(std::mem::replace(&mut self.pending, Vec::with_capacity(SHARD_BATCH)));
        for tx in &self.job_txs {
            tx.send(Job::Items(items.clone())).expect("shard worker disconnected");
        }
    }

    /// Whether the open interval has accumulated any traffic.
    pub(crate) fn has_open_traffic(&self) -> bool {
        self.dirty
    }

    /// Run the two-phase seal barrier (see the module docs) and return
    /// the merged interval outcome — bit-identical to the serial
    /// classifier's.
    pub(crate) fn seal_interval(&mut self) -> IntervalOutcome {
        self.flush();
        let n = self.job_txs.len();
        // Phase 1: collect every shard's snapshot slice.
        for tx in &self.job_txs {
            tx.send(Job::Seal).expect("shard worker disconnected");
        }
        let mut slices: Vec<Option<Vec<(KeyId, f32)>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            match self.resp_rx.recv().expect("shard worker disconnected") {
                Resp::Snapshot(s, snap) => slices[s] = Some(snap),
                _ => unreachable!("seal phase received a non-snapshot response"),
            }
        }
        let slices: Vec<Vec<(KeyId, f32)>> =
            slices.into_iter().map(|s| s.expect("one snapshot per shard")).collect();
        // Global detection on the merged ascending value vector — the
        // serial classifier's exact input.
        let values = merge_values(&slices);
        let (ctx, interval, total_load) = self.coord.observe_values(&values);
        // Phase 2: broadcast the context, collect the elephants.
        for (tx, snap) in self.job_txs.iter().zip(slices) {
            tx.send(Job::Classify(ctx, snap)).expect("shard worker disconnected");
        }
        let mut obs: Vec<Option<PartObservation>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            match self.resp_rx.recv().expect("shard worker disconnected") {
                Resp::Observation(s, o) => obs[s] = Some(o),
                _ => unreachable!("classify phase received a non-observation response"),
            }
        }
        let obs: Vec<PartObservation> =
            obs.into_iter().map(|o| o.expect("one observation per shard")).collect();
        let (elephants, elephant_load) = merge_observations(&obs);
        self.dirty = false;
        IntervalOutcome {
            interval,
            threshold: ctx.threshold,
            elephants,
            elephant_load,
            total_load,
        }
    }

    /// Export the recovery frontier: the open row (worker rows merged
    /// with pending items overlaid) and the merged serial
    /// [`ClassifierState`], cross-validated across the replicas.
    ///
    /// Pure observation: takes `&self` (channel ends are shareable), so
    /// [`crate::Pipeline::checkpoint`] keeps its serial signature.
    pub(crate) fn frontier(&self) -> (Vec<(KeyId, u64)>, ClassifierState) {
        let n = self.job_txs.len();
        for tx in &self.job_txs {
            tx.send(Job::Frontier).expect("shard worker disconnected");
        }
        let mut rows: Vec<Option<Vec<(KeyId, u64)>>> = (0..n).map(|_| None).collect();
        let mut states: Vec<Option<Box<PartState>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            match self.resp_rx.recv().expect("shard worker disconnected") {
                Resp::Frontier(s, row, state) => {
                    rows[s] = Some(row);
                    states[s] = Some(state);
                }
                _ => unreachable!("frontier phase received a non-frontier response"),
            }
        }
        // Merge worker rows and overlay the pairs still sitting in the
        // pending buffer (never broadcast — this is what lets the export
        // run without a &mut flush).
        let mut merged: BTreeMap<KeyId, u64> = BTreeMap::new();
        for row in rows.into_iter().flatten() {
            for (key, bytes) in row {
                *merged.entry(key).or_insert(0) += bytes;
            }
        }
        for &(key, bytes) in &self.pending {
            *merged.entry(key).or_insert(0) += bytes;
        }
        let states: Vec<PartState> =
            states.into_iter().map(|s| *s.expect("one state per shard")).collect();
        let state =
            merge_states(&states, self.coord.intervals_observed(), self.coord.smoothed_value())
                .expect("shard replicas in lockstep");
        (merged.into_iter().collect(), state)
    }

    /// Keys currently holding classifier window state (across shards).
    pub(crate) fn tracked_keys(&self) -> usize {
        self.frontier().1.per_key.len()
    }

    /// The smoothing factor γ.
    pub(crate) fn gamma(&self) -> f64 {
        self.coord.gamma()
    }

    /// The classification scheme.
    pub(crate) fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The detector's name.
    pub(crate) fn detector_name(&self) -> String {
        self.coord.detector_name()
    }
}

impl<D> Drop for ShardEngine<D> {
    fn drop(&mut self) {
        // Dropping the job senders ends every worker's recv loop; join
        // so no thread outlives the pipeline.
        self.job_txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// N-way merge the shards' snapshot slices (each ascending by key,
/// keys disjoint) into the global ascending value vector — the serial
/// classifier's `values` in its exact order.
fn merge_values(slices: &[Vec<(KeyId, f32)>]) -> Vec<f64> {
    let total: usize = slices.iter().map(|s| s.len()).sum();
    let mut values = Vec::with_capacity(total);
    let mut heads = vec![0usize; slices.len()];
    loop {
        let mut best: Option<(KeyId, usize)> = None;
        for (s, slice) in slices.iter().enumerate() {
            if let Some(&(key, _)) = slice.get(heads[s]) {
                if best.map_or(true, |(b, _)| key < b) {
                    best = Some((key, s));
                }
            }
        }
        let Some((_, s)) = best else { break };
        values.push(f64::from(slices[s][heads[s]].1));
        heads[s] += 1;
    }
    values
}
