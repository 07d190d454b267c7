//! The streaming pipeline proper: chunked attribution, interval
//! sealing, online classification, sink fan-out.

use std::fmt;
use std::time::Instant;

use eleph_bgp::{FrozenBgpTable, LiveBgpTable, RouteId, TableView, UpdateBatch};
use eleph_core::{
    ConstantLoadDetector, ExactDense, OnlineClassifier, Scheme, StateBackend, StateBackendConfig,
    ThresholdDetector, PAPER_BETA, PAPER_GAMMA, PAPER_LATENT_WINDOW,
};
use eleph_flow::{attribute_metas, KeyAllocator, KeyId};
use eleph_net::Prefix;
use eleph_packet::PacketMeta;

use crate::checkpoint::{
    Checkpoint, CheckpointConfig, CheckpointError, Checkpointer, Delta, LogState,
};
use crate::shard::ShardedRow;
use crate::sink::{SealedInterval, Sink};
use crate::source::PacketSource;

/// Packet chunks pulled from a [`PacketSource`] are buffered here
/// before attribution.
const RUN_BUFFER: usize = 1024;

/// Largest interval gap a single packet may open in *unbounded* mode
/// (~95 years of 5-minute slots). Every skipped interval is sealed —
/// classified and delivered to every sink — so without a cap one
/// structurally-valid record with a corrupt far-future timestamp would
/// hang the pipeline sealing billions of empty intervals; past the cap
/// the packet is counted out-of-window instead. Bounded runs are capped
/// by `n_intervals` already.
const MAX_UNBOUNDED_GAP: u64 = 10_000_000;

/// How many *consecutive* beyond-the-gap-cap packets an unbounded
/// pipeline tolerates before failing loudly. Isolated corrupt
/// timestamps are skipped and forgotten (any in-horizon packet resets
/// the streak), but a persistent streak means the stream really has
/// jumped past the supported horizon — silently discarding all further
/// traffic as out-of-window would be far worse than an error.
const FAR_FUTURE_TOLERANCE: u32 = 64;

/// Errors a pipeline run can produce.
#[derive(Debug)]
pub enum PipelineError {
    /// Structural capture error from the packet source (damaged pcap).
    Packet(eleph_packet::PacketError),
    /// A sink failed to accept an interval — surfaced at the seal that
    /// hit it (a full disk fails loudly mid-run, not at the end).
    Sink(std::io::Error),
    /// Reading, writing, or applying a checkpoint failed.
    Checkpoint(CheckpointError),
    /// An unbounded stream persistently jumped further ahead than
    /// `MAX_UNBOUNDED_GAP` intervals — the monitor cannot seal that
    /// many empty intervals, and dropping the traffic silently would
    /// corrupt the measurement. Restart the pipeline with a fresh
    /// window (or bound it with `n_intervals`).
    GapExceeded {
        /// The open (next unsealed) interval when the streak tripped.
        open: usize,
        /// The interval index the stream kept asking for.
        interval: u64,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Packet(e) => write!(f, "packet source error: {e}"),
            PipelineError::Sink(e) => write!(f, "sink error: {e}"),
            PipelineError::Checkpoint(e) => write!(f, "{e}"),
            PipelineError::GapExceeded { open, interval } => write!(
                f,
                "stream jumped from open interval {open} to interval {interval}, \
                 past the supported unbounded gap; restart with a fresh window"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<eleph_packet::PacketError> for PipelineError {
    fn from(e: eleph_packet::PacketError) -> Self {
        PipelineError::Packet(e)
    }
}

impl From<std::io::Error> for PipelineError {
    fn from(e: std::io::Error) -> Self {
        PipelineError::Sink(e)
    }
}

impl From<CheckpointError> for PipelineError {
    fn from(e: CheckpointError) -> Self {
        PipelineError::Checkpoint(e)
    }
}

/// Pipeline result type.
pub(crate) type Result<T> = std::result::Result<T, PipelineError>;

/// Accounting for every packet offered to a [`Pipeline`]. Identical to
/// the batch `AggregatorStats` plus `late`: packets whose interval was
/// already sealed when they arrived (out-of-order input), which a
/// streaming monitor must reject rather than rewrite history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Packets offered.
    pub offered: u64,
    /// Packets attributed to a prefix and binned.
    pub attributed: u64,
    /// Bytes attributed.
    pub attributed_bytes: u64,
    /// Packets whose destination matched no table entry.
    pub unroutable: u64,
    /// Packets timestamped outside the configured window.
    pub out_of_window: u64,
    /// Raw packets that failed to parse.
    pub malformed: u64,
    /// In-window packets arriving after their interval was sealed.
    pub late: u64,
}

impl PipelineStats {
    /// Conservation check: all offered packets are accounted for.
    pub fn is_conserved(&self) -> bool {
        self.attributed + self.unroutable + self.out_of_window + self.malformed + self.late
            == self.offered
    }
}

/// Everything a finished run reports.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Packet accounting for the whole run.
    pub stats: PipelineStats,
    /// Number of intervals sealed (and emitted to the sinks).
    pub intervals: usize,
    /// The key table: `keys[id]` is the prefix behind [`KeyId`] `id`,
    /// in global first-seen order — the same order the batch
    /// aggregator's matrix would use.
    pub keys: Vec<Prefix>,
    /// Consecutive far-future rejects at end of run (unbounded mode
    /// trips [`PipelineError::GapExceeded`] when the streak reaches its
    /// tolerance); nonzero means the capture ended on suspicious
    /// timestamps.
    pub far_future_streak: u32,
    /// Routing-table generation at end of run: 0 for a frozen table,
    /// the number of update batches applied for a live one.
    pub generation: u64,
    /// Scheduled route-update batches applied over the whole run
    /// (counting batches replayed before a resume).
    pub route_updates_applied: u64,
    /// Wall-clock seconds this process's packet thread spent applying
    /// scheduled route-update batches and re-pinning the table view
    /// (0 for a frozen table).
    pub route_update_secs: f64,
    /// Distinct keys attributed over the run (`keys.len()`), reported
    /// separately so memory claims are reproducible from a summary
    /// alone.
    pub distinct_keys: usize,
    /// Resident footprint of the open-interval state backend in bytes:
    /// the dense-row footprint for the exact backend, the configured
    /// fixed budget for sketch backends.
    pub state_bytes: usize,
    /// Which state backend sealed the intervals (see
    /// [`eleph_core::StateBackendConfig::kind`]).
    pub state_backend: &'static str,
}

/// The routing table a pipeline attributes against: either a frozen
/// snapshot (generation 0 forever) or a live [`LiveBgpTable`] plus the
/// pinned [`TableView`] the hot path currently reads. Applying update
/// batches releases the view first, so they write the table in place
/// instead of copying what the view shares, and re-pins it after;
/// packets already attributed keep the route ids (and therefore keys)
/// the old generation gave them.
enum TableHandle<'t> {
    Frozen(&'t FrozenBgpTable),
    Live {
        table: &'t LiveBgpTable,
        /// `None` only while [`Pipeline::apply_due_updates`] applies.
        view: Option<TableView>,
    },
}

/// A live handle's view, pinned everywhere outside
/// [`Pipeline::apply_due_updates`].
fn pinned(view: &Option<TableView>) -> &TableView {
    view.as_ref()
        .expect("the table view is re-pinned after every batch")
}

impl TableHandle<'_> {
    /// Size of the route-id space: dense `0..len` for a frozen table,
    /// the all-time id count (retired ids included) for a live one.
    fn id_space(&self) -> usize {
        match self {
            TableHandle::Frozen(t) => t.len(),
            TableHandle::Live { view, .. } => pinned(view).n_ids(),
        }
    }

    fn generation(&self) -> u64 {
        match self {
            TableHandle::Frozen(_) => 0,
            TableHandle::Live { view, .. } => pinned(view).generation(),
        }
    }

    /// The prefix behind `route` (live tables resolve retired ids too,
    /// which checkpoint revalidation relies on).
    fn prefix(&self, route: RouteId) -> Prefix {
        match self {
            TableHandle::Frozen(t) => t.prefix(route),
            TableHandle::Live { view, .. } => pinned(view).prefix(route),
        }
    }

    fn attribute(&self, metas: &[PacketMeta], routes: &mut Vec<Option<RouteId>>) {
        match self {
            TableHandle::Frozen(t) => attribute_metas(*t, metas, routes),
            TableHandle::Live { view, .. } => attribute_metas(pinned(view), metas, routes),
        }
    }
}

/// Builder for [`Pipeline`]. Defaults: the paper's headline
/// configuration (0.8-constant-load detector, γ = 0.9, latent heat over
/// a 12-slot window), T = 300 s starting at Unix time 0, unbounded
/// interval count, no sinks.
///
/// A routing table ([`PipelineBuilder::frozen`] or
/// [`PipelineBuilder::live`]) is the one mandatory ingredient.
pub struct PipelineBuilder<'t, D> {
    table: Option<TableHandle<'t>>,
    updates: Vec<UpdateBatch>,
    interval_secs: u64,
    start_unix: u64,
    n_intervals: Option<usize>,
    detector: D,
    gamma: f64,
    scheme: Scheme,
    shards: usize,
    state: StateBackendConfig,
    sinks: Vec<Box<dyn Sink>>,
}

impl Default for PipelineBuilder<'_, ConstantLoadDetector> {
    fn default() -> Self {
        PipelineBuilder {
            table: None,
            updates: Vec::new(),
            interval_secs: 300,
            start_unix: 0,
            n_intervals: None,
            detector: ConstantLoadDetector::new(PAPER_BETA),
            gamma: PAPER_GAMMA,
            scheme: Scheme::LatentHeat {
                window: PAPER_LATENT_WINDOW,
            },
            shards: 0,
            state: StateBackendConfig::Exact,
            sinks: Vec::new(),
        }
    }
}

impl PipelineBuilder<'_, ConstantLoadDetector> {
    /// Start from the paper's defaults.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<'t, D: ThresholdDetector> PipelineBuilder<'t, D> {
    /// Attribute against a frozen table ([`eleph_bgp::BgpTable::freeze`]),
    /// which any number of pipelines may share.
    pub fn frozen(mut self, table: &'t FrozenBgpTable) -> Self {
        self.table = Some(TableHandle::Frozen(table));
        self
    }

    /// Attribute against a *live* table: update batches (applied by
    /// this pipeline's [`PipelineBuilder::route_updates`] schedule, or
    /// by the caller between chunks) take effect mid-stream without a
    /// refreeze. The pipeline pins a view at build time, releases it
    /// while its own batches apply and re-pins after them.
    pub fn live(mut self, table: &'t LiveBgpTable) -> Self {
        self.table = Some(TableHandle::Live {
            view: Some(table.view()),
            table,
        });
        self
    }

    /// Replay this timed update schedule against the live table as the
    /// stream advances: each batch is applied immediately before the
    /// first offered packet whose timestamp reaches the batch time, so
    /// replay is a deterministic function of the packet stream.
    ///
    /// Batches must be in non-decreasing time order (as
    /// [`eleph_bgp::dump::read_updates`] guarantees); requires a
    /// [`PipelineBuilder::live`] table at build time.
    pub fn route_updates(mut self, schedule: Vec<UpdateBatch>) -> Self {
        self.updates = schedule;
        self
    }

    /// Measurement interval length in seconds (the paper's T).
    pub fn interval_secs(mut self, secs: u64) -> Self {
        self.interval_secs = secs;
        self
    }

    /// Unix time of the first interval's start.
    pub fn start_unix(mut self, start: u64) -> Self {
        self.start_unix = start;
        self
    }

    /// Bound the run to `n` intervals: packets past the window count as
    /// out-of-window, and [`Pipeline::finish`] seals through interval
    /// `n − 1` even if the capture ends early — exactly the batch
    /// aggregator's window semantics.
    pub fn n_intervals(mut self, n: usize) -> Self {
        self.n_intervals = Some(n);
        self
    }

    /// Use this threshold detector (takes any [`ThresholdDetector`],
    /// including `Box<dyn ThresholdDetector>` for runtime selection).
    pub fn detector<E: ThresholdDetector>(self, detector: E) -> PipelineBuilder<'t, E> {
        PipelineBuilder {
            table: self.table,
            updates: self.updates,
            interval_secs: self.interval_secs,
            start_unix: self.start_unix,
            n_intervals: self.n_intervals,
            detector,
            gamma: self.gamma,
            scheme: self.scheme,
            shards: self.shards,
            state: self.state,
            sinks: self.sinks,
        }
    }

    /// EWMA smoothing factor γ for the threshold update.
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Classification scheme (single-feature, latent heat, hysteresis).
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Hold the open interval's exact byte row on `n` worker threads,
    /// worker `key % n` owning key `key`. `0` (the default) keeps the
    /// row inline on the pipeline thread; any `n ≥ 1` spawns workers (so
    /// `--shards 1` measures pure coordination overhead), and
    /// [`PipelineBuilder::build`] refuses more than
    /// [`crate::MAX_WORKER_THREADS`]. Detection and classification run
    /// once, on the pipeline thread, on the merged snapshot, so output —
    /// thresholds, elephant sets, loads, checkpoints — is bit-identical
    /// for every value of `n`; see the `shard` module docs. It loses to
    /// the serial row on two cores and stays only while the benchmark's
    /// `backbone_shards2` workload and per-layer probes still drive it.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Seal intervals from this state backend
    /// ([`StateBackendConfig::Exact`], the default, keeps the dense byte
    /// row and is bit-identical to every earlier release; the sketch
    /// backends trade bounded memory for approximate snapshots). Every backend, the exact one included,
    /// sits behind the same [`StateBackend`] trait object and is fed
    /// once per packet chunk; detection, smoothing and scheme state
    /// always run exactly on whatever snapshot the backend seals.
    ///
    /// Sketch backends run serially: combining one with
    /// [`PipelineBuilder::shards`] panics at build time (a sketch is one
    /// summary of the whole link — it has no key-partitioned halves to
    /// hand to workers).
    pub fn state_backend(mut self, config: StateBackendConfig) -> Self {
        self.state = config;
        self
    }

    /// Attach a sink; every sealed interval is delivered to all sinks
    /// in attach order.
    pub fn sink(mut self, sink: impl Sink + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Assemble the pipeline.
    ///
    /// # Panics
    ///
    /// Panics when no table was provided, when `interval_secs` is zero,
    /// when the window's nanosecond bounds overflow `u64` (the same
    /// validation as the batch aggregator), when a route-update
    /// schedule was given without a live table / out of time order, or
    /// when [`PipelineBuilder::shards`] is above
    /// [`crate::MAX_WORKER_THREADS`] or combined with a sketch backend.
    pub fn build(self) -> Pipeline<'t, D> {
        let table = self
            .table
            .expect("PipelineBuilder needs a table (.frozen or .live)");
        let update_ns = update_schedule(&table, &self.updates);
        // Shared with the batch aggregator so the two paths cannot
        // drift on window validation.
        let (start_ns, interval_ns) =
            eleph_flow::window_bounds_ns(self.interval_secs, self.start_unix);
        let n_routes = table.id_space();
        Pipeline {
            table,
            updates: self.updates,
            update_ns,
            next_update: 0,
            route_update_secs: 0.0,
            interval_secs: self.interval_secs,
            secs: self.interval_secs as f64,
            start_unix: self.start_unix,
            start_ns,
            interval_ns,
            n_intervals: self.n_intervals,
            classifier: OnlineClassifier::new(self.detector, self.gamma, self.scheme),
            row: open_row(self.state, self.shards),
            snapshot: Vec::new(),
            sinks: self.sinks,
            key_alloc: KeyAllocator::new(n_routes),
            route_scratch: Vec::new(),
            binned: Vec::new(),
            far_future_streak: 0,
            keys: Vec::new(),
            open: 0,
            stats: PipelineStats::default(),
            log: None,
        }
    }

    /// Assemble a pipeline that *continues* a checkpointed run instead
    /// of starting fresh: [`PipelineBuilder::build`], then one checked
    /// restore of the snapshot into what it built.
    ///
    /// The builder must be configured identically to the run that wrote
    /// the snapshot — same table (size, generation and every key's
    /// prefix), interval geometry, detector, γ, scheme and state backend.
    /// The built pipeline's fingerprint, the one a checkpoint of it would
    /// record, is compared with the snapshot's field by field and a
    /// [`CheckpointError::Mismatch`] names the first disagreement; a
    /// snapshot whose state fails validation is a
    /// [`CheckpointError::State`]. The caller is responsible for (a) truncating
    /// durable sink output to [`Checkpoint::intervals_sealed`] records
    /// (see [`crate::RotatingJsonlSink::resume`]) *before* attaching the
    /// sinks, and (b) advancing the packet source past
    /// [`Checkpoint::offered`] records (see [`crate::skip_offered`]).
    ///
    /// # Panics
    ///
    /// Panics on what [`PipelineBuilder::build`] panics on.
    pub fn resume(
        self,
        ckpt: &Checkpoint,
    ) -> std::result::Result<Pipeline<'t, D>, CheckpointError> {
        let mut pipeline = self.build();
        pipeline.restore(ckpt)?;
        Ok(pipeline)
    }
}

/// Validate a route-update schedule against the chosen table and
/// convert batch times to nanoseconds.
///
/// # Panics
/// When a schedule is given for a frozen table, a batch time overflows
/// `u64` nanoseconds, or the schedule is out of time order.
fn update_schedule(table: &TableHandle<'_>, updates: &[UpdateBatch]) -> Vec<u64> {
    assert!(
        updates.is_empty() || matches!(table, TableHandle::Live { .. }),
        "route updates need a live table (use .live(..), not .frozen(..))"
    );
    let ns: Vec<u64> = updates
        .iter()
        .map(|b| {
            b.at_unix
                .checked_mul(1_000_000_000)
                .expect("route-update batch time overflows u64 nanoseconds")
        })
        .collect();
    assert!(
        ns.windows(2).all(|w| w[0] <= w[1]),
        "route-update schedule must be in non-decreasing time order"
    );
    ns
}

/// The open-interval row a builder's `state_backend` × `shards` asks
/// for — the one place that knows which kind of row a pipeline runs on.
///
/// # Panics
///
/// Panics when a sketch is combined with shards, or the shard count is
/// above [`crate::MAX_WORKER_THREADS`].
fn open_row(state: StateBackendConfig, shards: usize) -> Box<dyn StateBackend> {
    if shards == 0 {
        return state.build();
    }
    assert_eq!(
        state,
        StateBackendConfig::Exact,
        "sketch state backends run serially (--state {} is incompatible with shards)",
        state.kind()
    );
    Box::new(ShardedRow::new(shards))
}

/// The streaming pipeline: feed packets (or [`Pipeline::run`] a whole
/// [`PacketSource`]), get per-interval classifications at the sinks.
///
/// State is bounded by the classifier window plus O(distinct keys):
/// only the *open* interval's byte row exists at any time — no
/// full-matrix materialization, whatever the trace length.
pub struct Pipeline<'t, D: ThresholdDetector> {
    table: TableHandle<'t>,
    /// Timed route-update schedule (live tables only; empty otherwise).
    updates: Vec<UpdateBatch>,
    /// `updates[i].at_unix` in nanoseconds, precomputed once.
    update_ns: Vec<u64>,
    /// First schedule entry not yet applied to the table.
    next_update: usize,
    /// Seconds spent in [`Pipeline::apply_due_updates`] by this process.
    route_update_secs: f64,
    interval_secs: u64,
    /// `interval_secs as f64`, hoisted for the seal-path rate division.
    secs: f64,
    start_unix: u64,
    start_ns: u64,
    interval_ns: u64,
    n_intervals: Option<usize>,
    /// The one online classifier, fed each sealed interval's snapshot.
    pub(crate) classifier: OnlineClassifier<D>,
    /// The open interval's byte row, whatever holds it (the dense row, a
    /// sketch, the dense row spread over shard workers — see
    /// [`open_row`]), so sealing, sinks and checkpoints never ask which
    /// row is underneath.
    row: Box<dyn StateBackend>,
    /// Seal-path scratch: the sparse snapshot handed to the classifier.
    snapshot: Vec<(KeyId, f32)>,
    sinks: Vec<Box<dyn Sink>>,
    /// Shared first-seen key assignment (the same allocator the batch
    /// aggregator uses, so the two paths cannot drift on key order).
    key_alloc: KeyAllocator,
    /// Reusable buffer for [`attribute_metas`] results.
    route_scratch: Vec<Option<RouteId>>,
    /// Attributed `(key, bytes)` pairs not yet in the row: collected
    /// per chunk and recorded in one call ([`Pipeline::record_binned`]),
    /// before any seal and on every return to the caller, so the buffer
    /// is empty whenever the row is looked at from outside.
    binned: Vec<(KeyId, u64)>,
    /// Consecutive unbounded-mode packets beyond [`MAX_UNBOUNDED_GAP`]
    /// (see [`FAR_FUTURE_TOLERANCE`]).
    far_future_streak: u32,
    /// Prefix of each key, in global first-seen order.
    keys: Vec<Prefix>,
    /// Index of the open (not yet sealed) interval.
    open: usize,
    stats: PipelineStats,
    /// The checkpoint log that holds this pipeline's key table and
    /// window: set by the [`Checkpointer`] that last wrote it, or by a
    /// resume from a log-backed image.
    pub(crate) log: Option<LogState>,
}

impl<D: ThresholdDetector> Pipeline<'_, D> {
    /// Observe a chunk of parsed packets (interval-ordered), batching
    /// attribution through the table exactly like the batch
    /// aggregator's hot path. Intervals are sealed — classified and
    /// emitted to the sinks — as packet timestamps cross boundaries,
    /// and scheduled route-update batches apply as timestamps cross
    /// their batch times.
    pub fn observe_chunk(&mut self, metas: &[PacketMeta]) -> Result<()> {
        // With a scheduled update due inside this chunk, split at the
        // first packet whose timestamp reaches the batch time: packets
        // before the cut attribute against the old generation, the
        // batch applies, packets after attribute against the new one.
        // Replay is thus a deterministic function of the offered stream
        // regardless of how the source happens to chunk it.
        let mut rest = metas;
        loop {
            let due = self.next_update_ns();
            if due == u64::MAX {
                break;
            }
            let Some(cut) = rest.iter().position(|m| m.ts_ns >= due) else {
                break;
            };
            self.observe_attributed(&rest[..cut])?;
            rest = &rest[cut..];
            self.apply_due_updates(rest[0].ts_ns);
        }
        self.observe_attributed(rest)
    }

    /// One attribution batch against the current table view (no update
    /// boundary inside): batched resolve through the helper shared with
    /// the batch aggregator (every chunk's lookups issue before any
    /// result is consumed); rejected packets simply never read theirs.
    fn observe_attributed(&mut self, metas: &[PacketMeta]) -> Result<()> {
        if metas.is_empty() {
            return Ok(());
        }
        let mut routes = std::mem::take(&mut self.route_scratch);
        self.table.attribute(metas, &mut routes);
        let result = metas
            .iter()
            .zip(routes.iter())
            .try_for_each(|(meta, &route)| self.apply(meta, route));
        self.route_scratch = routes;
        // Error exits included: what was attributed is in the row.
        self.record_binned();
        result
    }

    /// Move the collected pairs into the row (one dispatch per chunk).
    fn record_binned(&mut self) {
        self.row.record_many(&self.binned);
        self.binned.clear();
    }

    /// Nanosecond time of the next scheduled update batch (`u64::MAX`
    /// when the schedule is exhausted).
    #[inline]
    fn next_update_ns(&self) -> u64 {
        self.update_ns
            .get(self.next_update)
            .copied()
            .unwrap_or(u64::MAX)
    }

    /// Apply every scheduled batch due at or before `ts_ns` with the
    /// table view released — nothing else pins the table, so the
    /// batches write it in place — then re-pin it so subsequent
    /// attribution sees them. Only a live table has a schedule.
    fn apply_due_updates(&mut self, ts_ns: u64) {
        let started = Instant::now();
        if let TableHandle::Live { table, view } = &mut self.table {
            *view = None;
            while self.next_update < self.updates.len() && self.update_ns[self.next_update] <= ts_ns
            {
                table.apply(&self.updates[self.next_update].updates);
                self.next_update += 1;
            }
            *view = Some(table.view());
        }
        self.route_update_secs += started.elapsed().as_secs_f64();
    }

    /// Drain a [`PacketSource`] to exhaustion, folding its malformed
    /// count into the pipeline's accounting as the stream advances (so
    /// the accounting stays truthful even when a sink or the source
    /// errors mid-run).
    pub fn run<S: PacketSource>(&mut self, mut source: S) -> Result<()> {
        self.run_inner(&mut source, None)
    }

    /// [`Pipeline::run`], writing a [`Checkpointer`]'s snapshot at every
    /// source chunk boundary where its cadence says one is due. Only
    /// chunk boundaries qualify — that is what lets
    /// [`crate::skip_offered`] replay a fresh source to *exactly* the
    /// checkpoint's consumption count on resume. Images are written on
    /// the checkpointer's own thread while packets keep flowing; the
    /// last one is on disk before this returns, `Ok` or `Err`.
    pub fn run_checkpointed<S: PacketSource>(
        &mut self,
        mut source: S,
        checkpointer: &mut Checkpointer,
    ) -> Result<()> {
        self.run_inner(&mut source, Some(checkpointer))
    }

    fn run_inner<S: PacketSource>(
        &mut self,
        source: &mut S,
        mut checkpointer: Option<&mut Checkpointer>,
    ) -> Result<()> {
        let streamed = self.stream(source, checkpointer.as_deref_mut());
        // The image in flight lands before the run returns, however the
        // run ends, so what is on disk at every return is what a writer
        // on this thread would have left. Its failure happened first, so
        // it is the error reported.
        match checkpointer {
            Some(ckpt) => ckpt.flush().and(streamed),
            None => streamed,
        }
    }

    fn stream<S: PacketSource>(
        &mut self,
        source: &mut S,
        mut checkpointer: Option<&mut Checkpointer>,
    ) -> Result<()> {
        let mut buf: Vec<PacketMeta> = Vec::with_capacity(RUN_BUFFER);
        // A resumed source has already produced malformed records for
        // the skipped (already-checkpointed) span; fold only the deltas
        // from here on or they would be double-counted.
        let mut folded: u64 = source.malformed();
        loop {
            // Every chunk boundary, the one before the first chunk
            // included: that is where the checkpointer's cadence picks
            // up the intervals a resumed pipeline has already sealed.
            if let Some(ckpt) = checkpointer.as_deref_mut() {
                ckpt.maybe_write(self)?;
            }
            buf.clear();
            let pulled = source.next_chunk(&mut buf);
            let malformed = source.malformed();
            self.stats.offered += malformed - folded;
            self.stats.malformed += malformed - folded;
            folded = malformed;
            match pulled {
                Err(e) => return Err(e.into()),
                Ok(0) => return Ok(()),
                Ok(_) => self.observe_chunk(&buf)?,
            }
        }
    }

    /// The attribution + sealing tail of the batched path. Check order
    /// (window before routability) matches the batch aggregator, so a
    /// doubly-bad packet lands in the same reject bucket.
    #[inline]
    fn apply(&mut self, meta: &PacketMeta, route: Option<RouteId>) -> Result<()> {
        self.stats.offered += 1;
        let Some(interval) = self.classify_window(meta.ts_ns)? else {
            return Ok(());
        };
        self.advance_and_bin(meta, route, interval)
    }

    /// Window-check a timestamp: `Ok(Some(n))` for an acceptable
    /// interval, `Ok(None)` after counting the reject. (`late` covers
    /// in-window packets whose interval was already sealed.)
    #[inline]
    fn classify_window(&mut self, ts_ns: u64) -> Result<Option<usize>> {
        if ts_ns < self.start_ns {
            // A before-window packet is still in-horizon evidence the
            // stream's clock is sane: it must reset the far-future
            // streak, or interleaved early/corrupt records could trip
            // [`FAR_FUTURE_TOLERANCE`] without ever being consecutive.
            self.far_future_streak = 0;
            self.stats.out_of_window += 1;
            return Ok(None);
        }
        let interval = (ts_ns - self.start_ns) / self.interval_ns;
        match self.n_intervals {
            Some(n) => {
                if interval >= n as u64 {
                    self.stats.out_of_window += 1;
                    return Ok(None);
                }
            }
            None => {
                // See [`MAX_UNBOUNDED_GAP`]; the usize bound guards the
                // cast on 32-bit targets. An isolated corrupt timestamp
                // is skipped (out-of-window) and forgotten, but a
                // persistent streak means the stream genuinely moved
                // past the horizon: fail loudly instead of silently
                // discarding all further traffic.
                if interval.saturating_sub(self.open as u64) > MAX_UNBOUNDED_GAP
                    || interval > usize::MAX as u64
                {
                    self.stats.out_of_window += 1;
                    self.far_future_streak += 1;
                    if self.far_future_streak >= FAR_FUTURE_TOLERANCE {
                        return Err(PipelineError::GapExceeded {
                            open: self.open,
                            interval,
                        });
                    }
                    return Ok(None);
                }
                self.far_future_streak = 0;
            }
        }
        let interval = interval as usize;
        if interval < self.open {
            self.stats.late += 1;
            return Ok(None);
        }
        Ok(Some(interval))
    }

    /// Seal any intervals the packet skipped past, then bin it.
    #[inline]
    fn advance_and_bin(
        &mut self,
        meta: &PacketMeta,
        route: Option<RouteId>,
        interval: usize,
    ) -> Result<()> {
        while self.open < interval {
            self.seal()?;
        }
        let Some(route) = route else {
            self.stats.unroutable += 1;
            return Ok(());
        };
        let (key, newly_assigned) = self.key_alloc.key_for(route);
        if newly_assigned {
            debug_assert_eq!(key as usize, self.keys.len());
            self.keys.push(self.table.prefix(route));
        }
        let bytes = u64::from(meta.wire_len);
        self.binned.push((key, bytes));
        self.stats.attributed += 1;
        self.stats.attributed_bytes += bytes;
        Ok(())
    }

    /// Seal the open interval: build its sparse snapshot (ascending by
    /// key id, rates converted with the exact arithmetic of the batch
    /// matrix), classify it, fan out to the sinks, advance.
    fn seal(&mut self) -> Result<()> {
        self.record_binned();
        self.row.seal_into(self.secs, &mut self.snapshot);
        let outcome = self.classifier.observe(&self.snapshot);
        let sealed = SealedInterval {
            outcome: &outcome,
            interval_start_unix: self.start_unix + self.open as u64 * self.interval_secs,
            interval_secs: self.interval_secs,
            keys: &self.keys,
        };
        for sink in &mut self.sinks {
            sink.on_interval(&sealed)?;
        }
        self.open += 1;
        Ok(())
    }

    /// Serialize the full recovery frontier (see [`Checkpoint`] and the
    /// `checkpoint` module docs for format and semantics). Call at a
    /// source chunk boundary — [`Pipeline::run_checkpointed`] does this
    /// automatically.
    pub fn checkpoint<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        self.export_checkpoint().write_to(out)
    }

    /// The decoded form of [`Pipeline::checkpoint`].
    pub(crate) fn export_checkpoint(&self) -> Checkpoint {
        self.export_delta(0, 0).snapshot
    }

    /// What one image of a log-backed [`Checkpointer`] copies: the
    /// snapshot holding the keys from `keys_from` on and the history of
    /// interval `open_from` and later — a log that continues this
    /// pipeline holds the rest.
    pub(crate) fn export_delta(&self, keys_from: usize, open_from: usize) -> Delta {
        let key_routes = self.key_alloc.key_routes();
        debug_assert_eq!(key_routes.len(), self.keys.len());
        debug_assert!(
            self.binned.is_empty(),
            "pairs outside the row at a chunk boundary"
        );
        let (state, window) = self.classifier.export_state_from(open_from);
        let row = &self.row;
        let snapshot = Checkpoint {
            config: self.fingerprint(),
            open: self.open as u64,
            far_future_streak: self.far_future_streak,
            stats: self.stats,
            keys: key_routes[keys_from..]
                .iter()
                .zip(&self.keys[keys_from..])
                .map(|(&route, &prefix)| (route, prefix))
                .collect(),
            // Every exact row exports the same sorted pairs, whatever
            // the shard count; a sketch's open state travels as the
            // image's sketch payload instead and its row is empty.
            row: row.open_row(),
            state,
            sketch: row
                .export_sketch()
                .map(|payload| (row.kind().to_string(), payload)),
            log: None,
        };
        Delta {
            snapshot,
            keys_from,
            window,
        }
    }

    /// The configuration this pipeline measures under, as a checkpoint
    /// records it and a resume must match it.
    fn fingerprint(&self) -> CheckpointConfig {
        CheckpointConfig {
            interval_secs: self.interval_secs,
            start_unix: self.start_unix,
            n_intervals: self.n_intervals.map(|n| n as u64),
            gamma: self.classifier.config().gamma,
            scheme: self.classifier.config().scheme,
            detector: self.classifier.detector_name(),
            n_routes: self.table.id_space() as u64,
            generation: self.table.generation(),
        }
    }

    /// Continue `ckpt`'s run from this freshly built pipeline. Its
    /// [`Pipeline::fingerprint`] and state backend are compared with the
    /// checkpoint's field by field, and so is every key's prefix (a
    /// [`CheckpointError::Mismatch`] names the first disagreement); the
    /// bounded run, the classifier state and the open row are validated
    /// (a [`CheckpointError::State`]); the key table, classifier, open
    /// row, accounting and schedule position are restored as they pass.
    /// On an error the pipeline is part restored and must be dropped.
    fn restore(&mut self, ckpt: &Checkpoint) -> std::result::Result<(), CheckpointError> {
        let mismatch = |what: &str, have: String, want: String| {
            CheckpointError::Mismatch(format!(
                "{what}: pipeline has {have}, checkpoint has {want}"
            ))
        };
        // Destructured, so a field added to the fingerprint is a compile
        // error here until it is compared.
        let CheckpointConfig {
            interval_secs,
            start_unix,
            n_intervals,
            gamma,
            scheme,
            detector,
            n_routes,
            generation,
        } = self.fingerprint();
        let c = &ckpt.config;
        if interval_secs != c.interval_secs {
            return Err(mismatch(
                "interval_secs",
                interval_secs.to_string(),
                c.interval_secs.to_string(),
            ));
        }
        if start_unix != c.start_unix {
            return Err(mismatch(
                "start_unix",
                start_unix.to_string(),
                c.start_unix.to_string(),
            ));
        }
        if n_intervals != c.n_intervals {
            return Err(mismatch(
                "n_intervals",
                format!("{n_intervals:?}"),
                format!("{:?}", c.n_intervals),
            ));
        }
        if gamma.to_bits() != c.gamma.to_bits() {
            return Err(mismatch("gamma", gamma.to_string(), c.gamma.to_string()));
        }
        if scheme != c.scheme {
            return Err(mismatch(
                "scheme",
                format!("{scheme:?}"),
                format!("{:?}", c.scheme),
            ));
        }
        if detector != c.detector {
            return Err(mismatch("detector", detector, c.detector.clone()));
        }
        // A checkpoint without a sketch payload is of the exact
        // backend.
        let kind = ckpt
            .sketch
            .as_ref()
            .map_or("exact", |(kind, _)| kind.as_str());
        if self.row.kind() != kind {
            return Err(mismatch(
                "state backend",
                self.row.kind().to_string(),
                kind.to_string(),
            ));
        }
        // A live table must be replayed to the checkpoint's generation
        // before resuming (apply the first `generation` batches of the
        // same schedule); a frozen table is forever at generation 0, so
        // a checkpoint born live refuses to graft onto it — and vice
        // versa.
        if generation != c.generation {
            return Err(mismatch(
                "table generation",
                generation.to_string(),
                c.generation.to_string(),
            ));
        }
        let next_update = usize::try_from(c.generation).map_err(|_| {
            CheckpointError::Mismatch(format!("table generation: {} exceeds usize", c.generation))
        })?;
        if matches!(self.table, TableHandle::Live { .. }) && next_update > self.update_ns.len() {
            return Err(CheckpointError::Mismatch(format!(
                "table generation: checkpoint consumed {} update batches but the schedule \
                 holds {}",
                c.generation,
                self.update_ns.len()
            )));
        }
        if n_routes != c.n_routes {
            return Err(mismatch(
                "routing table size",
                n_routes.to_string(),
                c.n_routes.to_string(),
            ));
        }
        // Every checkpointed key must still resolve to the same prefix
        // in this table — otherwise key ids would silently change
        // meaning mid-run.
        for (id, &(route, prefix)) in ckpt.keys.iter().enumerate() {
            if u64::from(route) >= n_routes {
                return Err(CheckpointError::State(format!(
                    "key {id}: route {route} outside the table"
                )));
            }
            let actual = self.table.prefix(route);
            if actual != prefix {
                return Err(mismatch(
                    &format!("key {id} prefix"),
                    actual.to_string(),
                    prefix.to_string(),
                ));
            }
        }
        self.key_alloc = KeyAllocator::from_key_routes(
            n_routes as usize,
            &ckpt
                .keys
                .iter()
                .map(|&(route, _)| route)
                .collect::<Vec<_>>(),
        )
        .map_err(CheckpointError::State)?;
        let open = ckpt.open as usize;
        if let Some(n) = self.n_intervals {
            if open > n {
                return Err(CheckpointError::State(format!(
                    "checkpoint sealed {open} intervals but the run is bounded to {n}"
                )));
            }
        }
        self.classifier
            .restore(ckpt.keys.len(), ckpt.state.clone())
            .map_err(CheckpointError::State)?;
        // The open row: a sketch restores from its payload, onto the one
        // backend kind (and geometry) it was exported from; an exact
        // row is validated against the key table and then recorded into
        // whatever holds it, so the shard count is free to change.
        match &ckpt.sketch {
            Some((_, payload)) => {
                self.row
                    .restore_sketch(payload)
                    .map_err(CheckpointError::State)?;
            }
            None => {
                ExactDense::from_checkpoint_row(ckpt.keys.len(), &ckpt.row)
                    .map_err(CheckpointError::State)?;
                self.row.record_many(&ckpt.row);
            }
        }
        self.next_update = next_update;
        self.far_future_streak = ckpt.far_future_streak;
        self.keys = ckpt.keys.iter().map(|&(_, prefix)| prefix).collect();
        self.open = open;
        self.stats = ckpt.stats;
        self.log = ckpt.log.clone();
        Ok(())
    }

    /// Seal the remaining window and flush the sinks.
    ///
    /// Bounded pipelines seal every configured interval (trailing
    /// silence classifies as empty intervals, exactly like the batch
    /// matrix); unbounded pipelines seal through the last interval that
    /// attributed traffic.
    pub fn finish(mut self) -> Result<PipelineReport> {
        match self.n_intervals {
            Some(n) => {
                while self.open < n {
                    self.seal()?;
                }
            }
            None => {
                if self.row.has_traffic() {
                    self.seal()?;
                }
            }
        }
        for sink in &mut self.sinks {
            sink.finish()?;
        }
        Ok(PipelineReport {
            stats: self.stats,
            intervals: self.open,
            far_future_streak: self.far_future_streak,
            generation: self.table.generation(),
            route_updates_applied: self.next_update as u64,
            route_update_secs: self.route_update_secs,
            distinct_keys: self.keys.len(),
            state_bytes: self.row.state_bytes(),
            state_backend: self.row.kind(),
            keys: self.keys,
        })
    }

    /// Intervals sealed so far.
    pub fn intervals_sealed(&self) -> usize {
        self.open
    }

    /// The key table so far (global first-seen order).
    pub fn keys(&self) -> &[Prefix] {
        &self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Collector;
    use crate::source::MetaSource;
    use eleph_bgp::{BgpTable, Origin, PeerClass, RouteEntry, RouteUpdate};
    use eleph_core::classify;
    use eleph_flow::Aggregator;
    use eleph_packet::IpProtocol;
    use std::net::Ipv4Addr;

    fn table() -> BgpTable {
        BgpTable::from_entries(vec![
            RouteEntry {
                prefix: "10.0.0.0/8".parse().unwrap(),
                next_hop: Ipv4Addr::new(192, 0, 2, 1),
                as_path: vec![1],
                origin: Origin::Igp,
                peer_class: PeerClass::Tier1,
            },
            RouteEntry {
                prefix: "10.1.0.0/16".parse().unwrap(),
                next_hop: Ipv4Addr::new(192, 0, 2, 2),
                as_path: vec![2],
                origin: Origin::Igp,
                peer_class: PeerClass::Tier2,
            },
        ])
    }

    fn meta(dst: [u8; 4], ts_s: u64, len: u32) -> PacketMeta {
        PacketMeta {
            ts_ns: ts_s * 1_000_000_000,
            src: Ipv4Addr::new(198, 18, 0, 1),
            dst: Ipv4Addr::from(dst),
            proto: IpProtocol::Tcp,
            src_port: 1,
            dst_port: 2,
            wire_len: len,
        }
    }

    impl<D: ThresholdDetector> Pipeline<'_, D> {
        /// Observe one parsed packet: a chunk of one.
        fn observe_meta(&mut self, meta: &PacketMeta) -> Result<()> {
            self.observe_chunk(std::slice::from_ref(meta))
        }
    }

    /// Mixed stream across 3 intervals: both prefixes, an unroutable
    /// destination, out-of-window timestamps, and an empty interval 1.
    fn stream() -> Vec<PacketMeta> {
        let mut v = vec![
            meta([10, 1, 0, 1], 1000, 900), // /16 first: key order test
            meta([10, 2, 0, 1], 1001, 700),
            meta([11, 0, 0, 1], 1002, 500), // unroutable
            meta([10, 2, 0, 2], 1009, 100),
            // interval 1 (1010..1020): silence
            meta([10, 2, 0, 1], 1021, 400),
            meta([10, 1, 0, 9], 1029, 300),
        ];
        v.insert(0, meta([10, 0, 0, 1], 900, 50)); // before window
        v.push(meta([10, 0, 0, 1], 1031, 60)); // past window
        v
    }

    fn batch_reference(
        metas: &[PacketMeta],
        scheme: Scheme,
    ) -> (
        eleph_flow::BandwidthMatrix,
        eleph_core::ClassificationResult,
    ) {
        let t = table();
        let mut agg = Aggregator::new(&t, 10, 1000, 3);
        for m in metas {
            agg.observe(m);
        }
        let (matrix, _) = agg.finish();
        let result = classify(&matrix, ConstantLoadDetector::new(0.8), 0.9, scheme);
        (matrix, result)
    }

    fn run_pipeline(
        metas: Vec<PacketMeta>,
        scheme: Scheme,
    ) -> (Vec<crate::CollectedInterval>, PipelineReport) {
        run_pipeline_sharded(metas, scheme, 0)
    }

    fn run_pipeline_sharded(
        metas: Vec<PacketMeta>,
        scheme: Scheme,
        shards: usize,
    ) -> (Vec<crate::CollectedInterval>, PipelineReport) {
        let t = table().freeze();
        let collector = Collector::new();
        let mut p = PipelineBuilder::new()
            .frozen(&t)
            .interval_secs(10)
            .start_unix(1000)
            .n_intervals(3)
            .detector(ConstantLoadDetector::new(0.8))
            .gamma(0.9)
            .scheme(scheme)
            .shards(shards)
            .sink(collector.sink())
            .build();
        p.run(MetaSource::new(metas)).expect("run");
        let report = p.finish().expect("finish");
        (collector.take(), report)
    }

    #[test]
    fn matches_batch_on_mixed_stream() {
        for scheme in [
            Scheme::SingleFeature,
            Scheme::LatentHeat { window: 2 },
            Scheme::Hysteresis {
                enter: 1.2,
                exit: 0.6,
            },
        ] {
            let metas = stream();
            let (matrix, batch) = batch_reference(&metas, scheme);
            let (outcomes, report) = run_pipeline(metas, scheme);
            assert_eq!(outcomes.len(), 3);
            assert_eq!(report.intervals, 3);
            // Key table identical to the batch matrix's.
            assert_eq!(report.keys.len(), matrix.n_keys());
            for (id, &key) in report.keys.iter().enumerate() {
                assert_eq!(key, matrix.key(id as KeyId), "{scheme:?} key {id}");
            }
            for (n, got) in outcomes.iter().enumerate() {
                let o = &got.outcome;
                assert_eq!(o.interval, n);
                assert_eq!(o.elephants, batch.elephants[n], "{scheme:?} interval {n}");
                assert_eq!(
                    o.threshold.to_bits(),
                    batch.thresholds[n].to_bits(),
                    "{scheme:?} interval {n} threshold"
                );
                assert_eq!(o.elephant_load.to_bits(), batch.elephant_load[n].to_bits());
                assert_eq!(o.total_load.to_bits(), batch.total_load[n].to_bits());
                assert_eq!(got.interval_start_unix, 1000 + n as u64 * 10);
            }
        }
    }

    #[test]
    fn sharded_matches_serial_bit_for_bit() {
        for scheme in [
            Scheme::SingleFeature,
            Scheme::LatentHeat { window: 2 },
            Scheme::Hysteresis {
                enter: 1.2,
                exit: 0.6,
            },
        ] {
            let (serial, serial_report) = run_pipeline(stream(), scheme);
            for shards in [1, 2, 4, 7] {
                let (sharded, report) = run_pipeline_sharded(stream(), scheme, shards);
                assert_eq!(sharded.len(), serial.len(), "{scheme:?} shards={shards}");
                for (s, g) in serial.iter().zip(&sharded) {
                    let (a, b) = (&s.outcome, &g.outcome);
                    assert_eq!(a.interval, b.interval);
                    assert_eq!(a.elephants, b.elephants, "{scheme:?} shards={shards}");
                    assert_eq!(a.threshold.to_bits(), b.threshold.to_bits());
                    assert_eq!(a.elephant_load.to_bits(), b.elephant_load.to_bits());
                    assert_eq!(a.total_load.to_bits(), b.total_load.to_bits());
                }
                assert_eq!(report.stats, serial_report.stats);
                assert_eq!(report.keys, serial_report.keys);
            }
        }
    }

    #[test]
    fn sharded_checkpoint_bytes_equal_serial_and_cross_resume() {
        // The same prefix of the stream, consumed serially and sharded,
        // must export byte-identical checkpoints (shard count is not
        // part of the recovery frontier) — and either checkpoint must
        // resume under either engine to the identical tail.
        let metas = stream();
        let scheme = Scheme::LatentHeat { window: 2 };
        let split = 4; // mid-stream, with the open interval non-empty
        let t = table().freeze();
        let build = |shards: usize| {
            PipelineBuilder::new()
                .frozen(&t)
                .interval_secs(10)
                .start_unix(1000)
                .n_intervals(3)
                .scheme(scheme)
                .shards(shards)
                .build()
        };
        let export = |shards: usize| {
            let mut p = build(shards);
            p.observe_chunk(&metas[..split]).unwrap();
            let mut bytes = Vec::new();
            p.checkpoint(&mut bytes).unwrap();
            bytes
        };
        let serial_ckpt = export(0);
        for shards in [1, 2, 4, 7] {
            assert_eq!(
                export(shards),
                serial_ckpt,
                "checkpoint bytes, shards={shards}"
            );
        }
        // Reference: the serial run over the whole stream.
        let (reference, _) = run_pipeline(metas.clone(), scheme);
        let ckpt = Checkpoint::read_from(&mut serial_ckpt.as_slice()).unwrap();
        for shards in [0, 1, 2, 4, 7] {
            let collector = Collector::new();
            let mut p = PipelineBuilder::new()
                .frozen(&t)
                .interval_secs(10)
                .start_unix(1000)
                .n_intervals(3)
                .scheme(scheme)
                .shards(shards)
                .sink(collector.sink())
                .resume(&ckpt)
                .unwrap();
            p.observe_chunk(&metas[split..]).unwrap();
            let report = p.finish().unwrap();
            let resumed = collector.take();
            // The resumed run seals only the intervals after the split.
            assert_eq!(report.intervals, 3);
            assert_eq!(resumed.len(), 3, "shards={shards}");
            for (s, g) in reference.iter().zip(&resumed) {
                let (a, b) = (&s.outcome, &g.outcome);
                assert_eq!(a.elephants, b.elephants, "resume shards={shards}");
                assert_eq!(a.threshold.to_bits(), b.threshold.to_bits());
                assert_eq!(a.elephant_load.to_bits(), b.elephant_load.to_bits());
                assert_eq!(a.total_load.to_bits(), b.total_load.to_bits());
            }
        }
    }

    #[test]
    fn checkpoint_key_ids_beyond_the_key_table_are_refused() {
        // Dense per-key state is sized by the largest key id, so an id a
        // checkpoint merely claims must be refused by validation, which
        // runs before any engine is built: `u32::MAX` would otherwise
        // ask for 48 GiB. Hysteresis at window 1 fills both key lists
        // of the classifier state; the image is re-encoded, so
        // its CRC is valid and only the state check can object.
        // Interval 0 sealed with both keys active, interval 1 open.
        let metas = [
            meta([10, 1, 0, 1], 1000, 900),
            meta([10, 2, 0, 1], 1001, 700),
            meta([10, 2, 0, 1], 1011, 100),
        ];
        let scheme = Scheme::Hysteresis {
            enter: 1.0,
            exit: 0.5,
        };
        let t = table().freeze();
        let builder = |shards: usize, state: StateBackendConfig| {
            PipelineBuilder::new()
                .frozen(&t)
                .interval_secs(10)
                .start_unix(1000)
                .n_intervals(3)
                .scheme(scheme)
                .shards(shards)
                .state_backend(state)
        };
        let sketch = StateBackendConfig::SpaceSaving {
            budget_bytes: 65_536,
        };
        for (shards, state) in [
            (0, StateBackendConfig::Exact),
            (0, sketch),
            (2, StateBackendConfig::Exact),
        ] {
            let mut p = builder(shards, state).build();
            p.observe_chunk(&metas).unwrap();
            let mut image = Vec::new();
            p.checkpoint(&mut image).unwrap();
            let good = Checkpoint::read_from(&mut image.as_slice()).unwrap();
            let n_keys = good.keys.len() as KeyId;
            assert!(!good.state.members.is_empty());
            assert!(!good.state.history[0].1.is_empty());
            assert!(builder(shards, state).resume(&good).is_ok());

            type Plant = fn(&mut Checkpoint, KeyId);
            let mut plants: Vec<(&str, Plant)> = vec![
                ("history snapshot", |c, id| {
                    c.state.history[0].1.push((id, 1.0))
                }),
                ("membership list", |c, id| c.state.members.push(id)),
            ];
            if state == StateBackendConfig::Exact {
                plants.push(("row key", |c, id| c.row.push((id, 1))));
            }
            for (list, plant) in plants {
                for id in [n_keys, 1 << 28, u32::MAX] {
                    let mut bad = good.clone();
                    plant(&mut bad, id);
                    let bad = Checkpoint::read_from(&mut bad.to_bytes().as_slice()).unwrap();
                    match builder(shards, state).resume(&bad).map(|_| ()) {
                        Err(CheckpointError::State(why)) => assert!(
                            why.contains(list) && why.contains(&id.to_string()),
                            "shards={shards} {list} {id}: {why}"
                        ),
                        other => panic!("shards={shards} {list} {id}: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn stats_match_batch_aggregator() {
        let metas = stream();
        let t = table();
        let mut agg = Aggregator::new(&t, 10, 1000, 3);
        for m in &metas {
            agg.observe(m);
        }
        let batch = agg.stats();
        let (_, report) = run_pipeline(metas, Scheme::SingleFeature);
        let s = report.stats;
        assert!(s.is_conserved());
        assert_eq!(s.late, 0);
        assert_eq!(s.offered, batch.offered);
        assert_eq!(s.attributed, batch.attributed);
        assert_eq!(s.attributed_bytes, batch.attributed_bytes);
        assert_eq!(s.unroutable, batch.unroutable);
        assert_eq!(s.out_of_window, batch.out_of_window);
        assert_eq!(s.malformed, batch.malformed);
    }

    #[test]
    fn empty_interval_seals_empty_outcome() {
        let (outcomes, _) = run_pipeline(stream(), Scheme::LatentHeat { window: 2 });
        let gap = &outcomes[1].outcome;
        assert!(gap.elephants.is_empty(), "gap interval emitted elephants");
        assert_eq!(gap.total_load, 0.0);
        assert_eq!(gap.fraction(), 0.0);
        assert!(gap.fraction().is_finite());
    }

    #[test]
    fn late_packets_are_counted_not_binned() {
        let t = table().freeze();
        let mut p = PipelineBuilder::new()
            .frozen(&t)
            .interval_secs(10)
            .start_unix(1000)
            .n_intervals(3)
            .build();
        p.observe_meta(&meta([10, 2, 0, 1], 1001, 100)).unwrap();
        p.observe_meta(&meta([10, 2, 0, 1], 1025, 100)).unwrap(); // seals 0, 1
        p.observe_meta(&meta([10, 2, 0, 1], 1005, 100)).unwrap(); // late
        let stats = p.stats;
        assert_eq!(stats.late, 1);
        assert_eq!(stats.attributed, 2);
        assert!(stats.is_conserved());
        assert_eq!(p.intervals_sealed(), 2);
    }

    #[test]
    fn unbounded_seals_through_last_traffic() {
        let t = table().freeze();
        let collector = Collector::new();
        let mut p = PipelineBuilder::new()
            .frozen(&t)
            .interval_secs(10)
            .start_unix(0)
            .sink(collector.sink())
            .build();
        p.observe_meta(&meta([10, 2, 0, 1], 5, 100)).unwrap();
        p.observe_meta(&meta([10, 2, 0, 1], 75, 100)).unwrap(); // interval 7
        let report = p.finish().unwrap();
        assert_eq!(report.intervals, 8);
        assert_eq!(collector.take().len(), 8);
    }

    #[test]
    fn empty_run_bounded_seals_all_intervals() {
        let t = table().freeze();
        let collector = Collector::new();
        let p = PipelineBuilder::new()
            .frozen(&t)
            .interval_secs(10)
            .start_unix(0)
            .n_intervals(4)
            .sink(collector.sink())
            .build();
        let report = p.finish().unwrap();
        assert_eq!(report.intervals, 4);
        let collected = collector.take();
        assert_eq!(collected.len(), 4);
        for c in collected {
            assert!(c.outcome.elephants.is_empty());
            assert_eq!(c.outcome.fraction(), 0.0);
        }
    }

    #[test]
    fn unbounded_caps_gap_from_corrupt_timestamp() {
        // Regression: one structurally-valid record with a far-future
        // timestamp must not force sealing millions of empty intervals
        // in unbounded mode — it is counted out-of-window instead, and
        // the stream continues normally afterwards.
        let t = table().freeze();
        let mut p = PipelineBuilder::new()
            .frozen(&t)
            .interval_secs(10)
            .start_unix(0)
            .build();
        p.observe_meta(&meta([10, 2, 0, 1], 5, 100)).unwrap();
        p.observe_meta(&meta([10, 2, 0, 1], u64::MAX / 1_000_000_000 - 1, 100))
            .unwrap();
        p.observe_meta(&meta([10, 2, 0, 1], 15, 100)).unwrap(); // still interval 1
        let stats = p.stats;
        assert_eq!(stats.out_of_window, 1);
        assert_eq!(stats.attributed, 2);
        assert!(stats.is_conserved());
        let report = p.finish().unwrap();
        assert_eq!(report.intervals, 2);
    }

    #[test]
    fn persistent_far_future_stream_errors_loudly() {
        // Regression: a stream that genuinely jumped past the unbounded
        // gap horizon must error after a bounded number of rejects, not
        // silently discard all further traffic as out-of-window.
        let t = table().freeze();
        let mut p = PipelineBuilder::new()
            .frozen(&t)
            .interval_secs(10)
            .start_unix(0)
            .build();
        p.observe_meta(&meta([10, 2, 0, 1], 5, 100)).unwrap();
        let far = u64::MAX / 1_000_000_000 - 1;
        let mut tripped = None;
        for i in 0..200 {
            if let Err(e) = p.observe_meta(&meta([10, 2, 0, 1], far, 100)) {
                tripped = Some((i, e));
                break;
            }
        }
        let (after, err) = tripped.expect("persistent far-future stream must error");
        assert!(after < 100, "error should trip within the tolerance streak");
        assert!(matches!(err, PipelineError::GapExceeded { .. }));
    }

    #[test]
    fn empty_run_unbounded_seals_nothing() {
        let t = table().freeze();
        let p = PipelineBuilder::new().frozen(&t).interval_secs(10).build();
        let report = p.finish().unwrap();
        assert_eq!(report.intervals, 0);
        assert!(report.keys.is_empty());
    }

    /// A `Write` target the test can read back after the pipeline
    /// (which requires `'static` sinks) is finished.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buf lock").extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn mid_stream_update_reattributes_within_one_chunk() {
        // A withdraw scheduled inside a chunk splits it: the packet
        // before the batch time attributes to the /16, the packets
        // after fall through to the covering /8 — and when the /16 is
        // re-announced, its traffic lands under a *fresh* key, never
        // rewriting the old one's history.
        let live = LiveBgpTable::from_table(&table());
        let sixteen: Prefix = "10.1.0.0/16".parse().unwrap();
        let mut p = PipelineBuilder::new()
            .live(&live)
            .interval_secs(10)
            .start_unix(1000)
            .n_intervals(4)
            .route_updates(vec![
                UpdateBatch {
                    at_unix: 1005,
                    updates: vec![RouteUpdate::Withdraw(sixteen)],
                },
                UpdateBatch {
                    at_unix: 1020,
                    updates: vec![RouteUpdate::Announce(RouteEntry {
                        prefix: sixteen,
                        next_hop: Ipv4Addr::new(192, 0, 2, 9),
                        as_path: vec![3],
                        origin: Origin::Igp,
                        peer_class: PeerClass::Tier2,
                    })],
                },
            ])
            .build();
        p.observe_chunk(&[
            meta([10, 1, 0, 1], 1001, 100), // /16, old generation
            meta([10, 1, 0, 1], 1006, 200), // withdrawn → covering /8
            meta([10, 1, 0, 1], 1021, 300), // re-announced /16, fresh key
        ])
        .unwrap();
        let report = p.finish().unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(report.route_updates_applied, 2);
        // Same prefix appears twice under distinct keys (old id retired).
        assert_eq!(
            report.keys,
            vec![sixteen, "10.0.0.0/8".parse().unwrap(), sixteen]
        );
        assert_eq!(report.stats.attributed, 3);
        assert!(report.stats.is_conserved());
    }

    #[test]
    fn frozen_pipeline_reports_generation_zero() {
        let t = table().freeze();
        let mut p = PipelineBuilder::new()
            .frozen(&t)
            .interval_secs(10)
            .start_unix(1000)
            .n_intervals(1)
            .build();
        p.observe_meta(&meta([10, 1, 0, 1], 1001, 100)).unwrap();
        let report = p.finish().unwrap();
        assert_eq!(report.generation, 0);
        assert_eq!(report.route_updates_applied, 0);
    }

    #[test]
    #[should_panic(expected = "route updates need a live table")]
    fn route_updates_without_live_table_panic_at_build() {
        let t = table().freeze();
        let _ = PipelineBuilder::new()
            .frozen(&t)
            .route_updates(vec![UpdateBatch {
                at_unix: 0,
                updates: vec![],
            }])
            .build();
    }

    #[test]
    fn multi_sink_fan_out_delivers_to_all() {
        let t = table().freeze();
        let a = Collector::new();
        let b = Collector::new();
        let jsonl = SharedBuf::default();
        let mut p = PipelineBuilder::new()
            .frozen(&t)
            .interval_secs(10)
            .start_unix(1000)
            .n_intervals(2)
            .sink(a.sink())
            .sink(crate::JsonlSink::new(jsonl.clone()))
            .sink(b.sink())
            .build();
        p.observe_meta(&meta([10, 2, 0, 1], 1001, 100)).unwrap();
        p.finish().unwrap();
        assert_eq!(a.take().len(), 2);
        assert_eq!(b.take().len(), 2);
        let text = String::from_utf8(jsonl.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().next().unwrap().contains("\"interval\":0"));
    }
}
