//! The exact byte row held by N worker threads: `--shards N`.
//!
//! [`ShardedRow`] is one more [`StateBackend`]. The pipeline thread
//! stays the single writer of key *assignment* — first-seen key ids are
//! a property of the packet stream and must not depend on worker
//! scheduling — and the single owner of the classifier; only the open
//! interval's byte accumulation is spread out. Key `k` belongs to worker
//! `k % N`, which holds it in an [`ExactDense`] over local ids `k / N`,
//! so ascending local id is ascending key within a worker.
//!
//! * **Record**: [`ShardedRow::record_many`] partitions the pairs by
//!   owner on the pipeline thread and, once [`SEND_BATCH`] pairs are
//!   waiting, sends each worker only its own — no per-packet
//!   synchronisation, no broadcast.
//! * **Seal**: one round trip. Each worker's job channel is FIFO, so the
//!   seal job is itself the barrier behind every pair sent before it;
//!   each worker seals its `ExactDense` (the serial rate arithmetic, on
//!   the same byte counts) and the N ascending slices merge into the
//!   ascending snapshot the serial row would have produced. Detection
//!   and classification then run once, on the pipeline thread, exactly
//!   as for every other row.
//! * **Checkpoints**: [`ShardedRow::open_row`] merges the workers' rows
//!   with the unsent pairs overlaid into the serial row's sorted pairs,
//!   and a restore is `record_many` of those pairs — so an image carries
//!   no trace of the shard count, and any count (serial included)
//!   resumes from any other's.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use eleph_core::{ExactDense, StateBackend};
use eleph_flow::KeyId;

/// The most shard workers a run may be asked for. A count is a number
/// of OS threads to spawn, so an absurd one is refused up front rather
/// than left to fail at whichever `spawn` exhausts the process.
pub const MAX_WORKER_THREADS: usize = 256;

/// Pairs waiting on the pipeline thread before they are sent to their
/// workers. Large enough to amortize the channel sends, small enough to
/// keep batches cache-resident.
const SEND_BATCH: usize = 1024;

/// Work sent to a worker (FIFO per worker; `Seal` and `OpenRow` double
/// as the barrier behind all earlier `Items`).
enum Job {
    /// Pairs this worker owns, in stream order.
    Items(Vec<(KeyId, u64)>),
    /// Seal the local row at this interval length and answer with the
    /// snapshot slice.
    Seal(f64),
    /// Answer with the local open row (checkpointing).
    OpenRow,
}

/// The pipeline thread's ends of one worker's channels. Answers come
/// back on a channel per worker and per answer type, so collecting them
/// in shard order needs neither tags nor a case that cannot happen.
struct Worker {
    jobs: Sender<Job>,
    snapshots: Receiver<Vec<(KeyId, f32)>>,
    rows: Receiver<Vec<(KeyId, u64)>>,
    thread: JoinHandle<()>,
}

impl Worker {
    fn send(&self, job: Job) {
        self.jobs.send(job).expect("shard worker exited early (it panicked)");
    }
}

fn answer<T>(from: &Receiver<T>) -> T {
    from.recv().expect("shard worker exited early (it panicked)")
}

/// Worker `shard` of `n`: an [`ExactDense`] over local ids, with global
/// ids restored on everything that leaves.
fn run_worker(
    shard: KeyId,
    n: KeyId,
    jobs: Receiver<Job>,
    snapshots: Sender<Vec<(KeyId, f32)>>,
    rows: Sender<Vec<(KeyId, u64)>>,
) {
    let mut row = ExactDense::new();
    // An answer nobody is left to receive means the row is being dropped,
    // and the job channel closing with it is what ends this loop.
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Items(pairs) => {
                for (key, bytes) in pairs {
                    row.record(key / n, bytes);
                }
            }
            Job::Seal(secs) => {
                let mut slice = Vec::new();
                row.seal_into(secs, &mut slice);
                slice.iter_mut().for_each(|e| e.0 = e.0 * n + shard);
                let _ = snapshots.send(slice);
            }
            Job::OpenRow => {
                let mut open = row.open_row();
                open.iter_mut().for_each(|e| e.0 = e.0 * n + shard);
                let _ = rows.send(open);
            }
        }
    }
}

/// The exact open-interval row, key-partitioned over worker threads.
/// As a [`StateBackend`] it is indistinguishable from [`ExactDense`]:
/// same `open_row`, same snapshots by bits, same `kind` (pinned by the
/// tests below), for every worker count.
pub(crate) struct ShardedRow {
    workers: Vec<Worker>,
    /// Pairs not yet sent, by owning worker (sent at [`SEND_BATCH`] and
    /// before every seal; overlaid onto `open_row`).
    unsent: Vec<Vec<(KeyId, u64)>>,
    n_unsent: usize,
    /// Whether the open interval holds any nonzero bytes — the stand-in
    /// for the serial row's `!touched.is_empty()`.
    dirty: bool,
    /// Key ids seen so far (highest + 1): the dense slots the workers
    /// hold between them.
    n_ids: usize,
}

impl ShardedRow {
    /// Spawn `n_shards` workers over an empty row.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n_shards <= MAX_WORKER_THREADS`, or when the
    /// OS refuses a thread.
    pub(crate) fn new(n_shards: usize) -> Self {
        assert!(
            (1..=MAX_WORKER_THREADS).contains(&n_shards),
            "{n_shards} shards: need 1 to {MAX_WORKER_THREADS} worker threads"
        );
        let workers = (0..n_shards)
            .map(|shard| {
                let (jobs, job_rx) = channel();
                let (snapshot_tx, snapshots) = channel();
                let (row_tx, rows) = channel();
                let (shard, n) = (shard as KeyId, n_shards as KeyId);
                let thread = std::thread::Builder::new()
                    .name(format!("eleph-shard-{shard}"))
                    .spawn(move || run_worker(shard, n, job_rx, snapshot_tx, row_tx))
                    .expect("spawn shard worker");
                Worker { jobs, snapshots, rows, thread }
            })
            .collect();
        ShardedRow {
            workers,
            unsent: vec![Vec::new(); n_shards],
            n_unsent: 0,
            dirty: false,
            n_ids: 0,
        }
    }

    /// Hand every waiting pair to its worker.
    fn send_unsent(&mut self) {
        for (worker, pairs) in self.workers.iter().zip(&mut self.unsent) {
            if !pairs.is_empty() {
                let next = Vec::with_capacity(pairs.len());
                worker.send(Job::Items(std::mem::replace(pairs, next)));
            }
        }
        self.n_unsent = 0;
    }
}

impl StateBackend for ShardedRow {
    fn kind(&self) -> &'static str {
        "exact"
    }

    fn record(&mut self, key: KeyId, bytes: u64) {
        self.record_many(&[(key, bytes)]);
    }

    fn record_many(&mut self, pairs: &[(KeyId, u64)]) {
        let n = self.workers.len();
        for &(key, bytes) in pairs {
            self.n_ids = self.n_ids.max(key as usize + 1);
            // Zero-byte packets are attributed but leave no row entry
            // (same as the serial row), so they never cross to a worker.
            if bytes > 0 {
                self.unsent[key as usize % n].push((key, bytes));
                self.n_unsent += 1;
                self.dirty = true;
            }
        }
        if self.n_unsent >= SEND_BATCH {
            self.send_unsent();
        }
    }

    fn has_traffic(&self) -> bool {
        self.dirty
    }

    fn seal_into(&mut self, secs: f64, out: &mut Vec<(KeyId, f32)>) {
        self.send_unsent();
        for worker in &self.workers {
            worker.send(Job::Seal(secs));
        }
        out.clear();
        for worker in &self.workers {
            out.extend(answer(&worker.snapshots));
        }
        // N ascending runs, no key in two of them: the stable sort finds
        // the runs and merges them, which is the N-way merge.
        out.sort_by_key(|&(key, _)| key);
        self.dirty = false;
    }

    fn open_row(&self) -> Vec<(KeyId, u64)> {
        for worker in &self.workers {
            worker.send(Job::OpenRow);
        }
        // The unsent pairs are overlaid, not sent: the export stays a
        // pure observation behind `&self`.
        let mut merged: BTreeMap<KeyId, u64> = BTreeMap::new();
        let sent = self.workers.iter().flat_map(|w| answer(&w.rows));
        for (key, bytes) in sent.chain(self.unsent.iter().flatten().copied()) {
            *merged.entry(key).or_insert(0) += bytes;
        }
        merged.into_iter().collect()
    }

    fn export_sketch(&self) -> Option<Vec<u8>> {
        None
    }

    fn restore_sketch(&mut self, _payload: &[u8]) -> Result<(), String> {
        Err("the exact backend has no sketch payload (its state is the open row)".to_string())
    }

    fn state_bytes(&self) -> usize {
        self.n_ids * std::mem::size_of::<u64>()
    }
}

impl Drop for ShardedRow {
    fn drop(&mut self) {
        // Dropping a worker's job sender ends its recv loop; join so no
        // thread outlives the pipeline.
        for Worker { jobs, thread, .. } in self.workers.drain(..) {
            drop(jobs);
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Step {
        Record(Vec<(KeyId, u64)>),
        Seal,
        /// What a checkpoint and a resume do to a row: export the open
        /// pairs, validate them, record them into fresh rows.
        Restore,
    }

    /// Pairs over a few hundred keys plus one far above the rest, with
    /// zero-byte packets and weights that dwarf the others.
    fn pairs(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(KeyId, u64)>> {
        let key = prop_oneof![30 => 0u32..300, 1 => Just(100_003u32)];
        let bytes = prop_oneof![1 => Just(0u64), 8 => 1u64..=1500, 1 => (1u64 << 32)..(1u64 << 40)];
        prop::collection::vec((key, bytes), len)
    }

    fn programs() -> impl Strategy<Value = Vec<Step>> {
        prop::collection::vec(
            prop_oneof![
                6 => pairs(0..64).prop_map(Step::Record),
                2 => pairs(SEND_BATCH - 8..SEND_BATCH + 300).prop_map(Step::Record),
                3 => Just(Step::Seal),
                1 => Just(Step::Restore),
            ],
            0..20,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn sharded_row_is_exact_dense_at_every_step(steps in programs()) {
            for n in [1usize, 2, 4, 7] {
                let mut sharded: Box<dyn StateBackend> = Box::new(ShardedRow::new(n));
                let mut serial: Box<dyn StateBackend> = Box::new(ExactDense::new());
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for (i, step) in steps.iter().enumerate() {
                    let at = format!("shards {n} step {i}");
                    match step {
                        Step::Record(pairs) => {
                            sharded.record_many(pairs);
                            serial.record_many(pairs);
                        }
                        Step::Seal => {
                            sharded.seal_into(20.0, &mut got);
                            serial.seal_into(20.0, &mut want);
                            let bits = |v: &[(KeyId, f32)]| -> Vec<(KeyId, u32)> {
                                v.iter().map(|&(key, rate)| (key, rate.to_bits())).collect()
                            };
                            prop_assert_eq!(bits(&got), bits(&want), "{}: snapshot", &at);
                        }
                        Step::Restore => {
                            let row = sharded.open_row();
                            let n_keys = row.last().map_or(0, |&(key, _)| key as usize + 1);
                            ExactDense::from_checkpoint_row(n_keys, &row).expect("a valid row");
                            sharded = Box::new(ShardedRow::new(n));
                            serial = Box::new(ExactDense::new());
                            sharded.record_many(&row);
                            serial.record_many(&row);
                        }
                    }
                    prop_assert_eq!(sharded.open_row(), serial.open_row(), "{}: open row", &at);
                    prop_assert_eq!(sharded.has_traffic(), serial.has_traffic(), "{}", &at);
                    prop_assert_eq!(sharded.kind(), serial.kind());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "need 1 to 256 worker threads")]
    fn shard_counts_beyond_the_bound_are_refused() {
        let _ = ShardedRow::new(MAX_WORKER_THREADS + 1);
    }
}
