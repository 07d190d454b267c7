//! The streaming end-to-end pipeline: packets in, per-interval elephant
//! classifications out — without ever materializing the full bandwidth
//! matrix.
//!
//! The batch path (`eleph_flow::aggregate_pcap` → `BandwidthMatrix` →
//! `eleph_core::classify`) answers the paper's offline questions, but an
//! ISP consumes the elephant definition *operationally*: a monitor sits
//! on a live link, seals one measurement interval at a time, and must
//! emit the interval's elephant set before the next interval lands.
//! [`Pipeline`] is that form, assembled by [`PipelineBuilder`]:
//!
//! * a [`PacketSource`] yields time-ordered packet chunks — a pcap
//!   stream ([`PcapSource`]), a synthetic workload ([`TraceSource`]), or
//!   raw in-memory metadata ([`MetaSource`]);
//! * attribution reuses the frozen flat-array LPM and its *batched*
//!   lookup (`FrozenBgpTable::attribute_ids`, 64-packet chunks), the
//!   same hot path as the batch aggregator;
//! * one byte row accumulates the **open interval only** — an
//!   [`eleph_core::StateBackend`]: the exact dense row by default, a
//!   fixed-budget sketch, or the dense row held by shard worker threads
//!   — fed once per packet chunk; when a packet's timestamp crosses the
//!   interval boundary the row is sealed into a sparse snapshot and fed
//!   to the pipeline's one [`eleph_core::OnlineClassifier`], on the
//!   pipeline thread, whichever row it is;
//! * every sealed [`IntervalOutcome`](eleph_core::IntervalOutcome) fans
//!   out to the attached [`Sink`]s — a callback ([`CallbackSink`]), a
//!   JSONL writer ([`JsonlSink`]), an in-memory [`Collector`], or any
//!   custom implementation.
//!
//! Peak memory is bounded by the classifier window plus O(distinct
//! keys) of dense per-key state — independent of trace length, so
//! unbounded captures stream in constant space. Output is
//! **bit-identical** to the batch path on the same bytes (same
//! thresholds, elephants and loads per interval; pinned by
//! `tests/tests/streaming_equivalence.rs`).
//!
//! # Example: pcap to JSONL
//!
//! ```no_run
//! use eleph_core::{ConstantLoadDetector, Scheme};
//! use eleph_pipeline::{JsonlSink, PcapSource, PipelineBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let table: eleph_bgp::BgpTable = /* load or synthesize a RIB */
//! #     eleph_bgp::synth::generate(&eleph_bgp::synth::SynthConfig::default());
//! // The bare `File` is the fast form: the reader inside `PcapSource`
//! // reads it a block at a time, so a `BufReader` would only add a copy.
//! let file = std::fs::File::open("capture.pcap")?;
//!
//! let mut pipeline = PipelineBuilder::new()
//!     .table(&table)
//!     .interval_secs(300)
//!     .start_unix(995_990_400)
//!     .detector(ConstantLoadDetector::new(0.8))
//!     .gamma(0.9)
//!     .scheme(Scheme::LatentHeat { window: 12 })
//!     .sink(JsonlSink::new(std::io::stdout()))
//!     .build();
//!
//! pipeline.run(PcapSource::new(file)?)?; // one JSON line per interval
//! let report = pipeline.finish()?;
//! eprintln!(
//!     "{} intervals, {} prefixes, {} packets attributed",
//!     report.intervals, report.keys.len(), report.stats.attributed
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod pipeline;
mod shard;
mod sink;
mod source;

pub use checkpoint::{
    crc32, skip_offered, Checkpoint, CheckpointError, Checkpointer, CheckpointsWritten,
    CHECKPOINT_FILE,
};
pub use pipeline::{
    Pipeline, PipelineBuilder, PipelineError, PipelineReport, PipelineStats, Result,
};
pub use shard::MAX_WORKER_THREADS;
// The state-backend configuration travels with the builder everywhere
// the pipeline does; re-exported so callers need not depend on
// eleph-core directly to select a sketch tier.
pub use eleph_core::StateBackendConfig;
pub use sink::{
    CallbackSink, CollectedInterval, Collector, CollectorSink, JsonlSink, RotatingJsonlSink,
    SealedInterval, Sink,
};
pub use source::{FaultedPcapSource, MetaSource, PacketSource, PcapSource, TraceSource};
