//! The traced run: per-layer numbers, measured in-process.
//!
//! Each call into a layer's public function, on the same generated
//! inputs the end-to-end workloads read, runs inside a span (see
//! [`crate::spans`]). Layers are the repository's crates: `packet`,
//! `net`, `bgp`, `flow`, `core`, `pipeline`, `trace`, `report`. Spans
//! wrap calls from outside the crates; spans inside the program are a
//! later change.
//!
//! [`PER_LAYER`] lists every metric with the end-to-end metric and
//! workload it should move. The rule for reading them: nothing contends
//! on the serial path, so a faster layer saves at most its self-time
//! share of `pipeline.run_s`; on `backbone_shards2` three threads share
//! two cores, so freeing the pipeline thread can move `wall_s` by more
//! than the layer's share, and `cpu_s` says whether work was removed or
//! only moved.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use eleph_bgp::{FrozenBgpTable, LiveBgpTable, RouteId};
use eleph_core::{
    classify, classify_many, AdaptiveBloom, AestDetector, ClassifyConfig, ConstantLoadDetector,
    CountMinRow, ExactDense, OnlineClassifier, Scheme, SpaceSaving, StateBackend,
    ThresholdDetector, PAPER_BETA, PAPER_GAMMA, PAPER_LATENT_WINDOW,
};
use eleph_flow::{aggregate_pcap_frozen, attribute_metas, BandwidthMatrix, KeyAllocator, KeyId};
use eleph_net::{EpochLpm, FlatLpm};
use eleph_packet::pcap::{PcapReader, PcapSlice, RecordHeader};
use eleph_packet::pool::PooledReader;
use eleph_packet::{parse_buf_meta, LinkType, PacketMeta};
use eleph_pipeline::{
    Checkpoint, Checkpointer, Collector, JsonlSink, PcapSource, Pipeline, PipelineBuilder,
    SealedInterval, Sink,
};
use eleph_report::{experiments, Scenario};
use eleph_trace::RateTrace;

use crate::inputs::{self, INTERVALS, INTERVAL_SECS, START_UNIX, WINDOW_SECS};
use crate::json::{obj, string, Value};
use crate::machine;
use crate::other;
use crate::run::Layout;
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::workloads::{Workload, PAPER_SCALE};

/// A per-layer metric and the end-to-end metric it should move.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The end-to-end metric and workload a change here should show in.
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: "lower",
        moves,
    }
}

/// Every per-layer metric, by crate.
pub const PER_LAYER: [LayerMetric; 58] = [
    // packet — predicted dominant: two unbuffered reads per record.
    lower("packet.read_ns_per_pkt", "ns/pkt", "pkts_per_s on backbone, and every pcap workload"),
    lower("packet.read_syscalls_per_pkt", "1/pkt", "pkts_per_s and cpu_s on backbone, and every pcap workload"),
    lower("packet.frame_ns_per_pkt", "ns/pkt", "pkts_per_s on backbone"),
    lower("packet.parse_ns_per_pkt", "ns/pkt", "pkts_per_s on backbone"),
    lower("packet.pool_ns_per_pkt", "ns/pkt", "pkts_per_s on backbone (with --ingest-workers)"),
    lower("packet.malformed", "count", "error_share on every pcap workload; must be 0"),
    // bgp / net
    lower("bgp.rib_parse_ms", "ms", "setup_s on every streaming workload"),
    lower("bgp.freeze_ms", "ms", "setup_s on every streaming workload"),
    lower("bgp.attribute_ns_per_pkt", "ns/pkt", "pkts_per_s on backbone"),
    lower("net.flat_lookup_ns_per_pkt", "ns/pkt", "pkts_per_s on backbone"),
    lower("net.epoch_lookup_ns_per_pkt", "ns/pkt", "wall_s on ops_live only"),
    lower("bgp.live_attribute_ns_per_pkt", "ns/pkt", "wall_s on ops_live only"),
    lower("bgp.apply_us_per_update", "us", "wall_s on ops_live only"),
    lower("net.table_mib", "MiB", "peak_rss_mib on every streaming workload"),
    lower("bgp.unroutable", "count", "error_share on backbone; 0 on this capture"),
    // flow
    lower("flow.key_for_ns_per_pkt", "ns/pkt", "pkts_per_s on backbone"),
    lower("flow.aggregate_ns_per_pkt", "ns/pkt", "wall_s on paper_tables (the batch ingest path)"),
    lower("flow.matrix_from_trace_ms", "ms", "wall_s on paper_tables"),
    lower("flow.keys", "count", "peak_rss_mib on backbone"),
    // core
    lower("core.record_ns_per_update.exact", "ns", "pkts_per_s on backbone"),
    lower("core.record_ns_per_update.spacesaving64k", "ns", "pkts_per_s on sketch_ss64k, elephant_recall fixed"),
    lower("core.record_ns_per_update.spacesaving1m", "ns", "pkts_per_s on sketch_ss64k at a larger budget"),
    lower("core.record_ns_per_update.cmrow1m", "ns", "pkts_per_s on sketch_ss64k with --state cmrow"),
    lower("core.record_ns_per_update.bloom1m", "ns", "pkts_per_s on sketch_ss64k with --state bloom"),
    lower("core.seal_into_us.exact", "us", "wall_s on ops_live (5x the seals)"),
    lower("core.seal_into_us.spacesaving64k", "us", "wall_s on sketch_ss64k"),
    lower("core.detect_us.constant_load", "us", "wall_s on ops_live; at most 5 % of any streaming workload"),
    lower("core.detect_us.aest", "us", "wall_s on paper_tables"),
    lower("core.observe_us_p50.single", "us", "wall_s on ops_live"),
    lower("core.observe_us_p90.single", "us", "wall_s on ops_live"),
    lower("core.observe_us_p50.latent12", "us", "wall_s on ops_live"),
    lower("core.observe_us_p90.latent12", "us", "wall_s on ops_live"),
    lower("core.observe_us_p50.hysteresis", "us", "wall_s on ops_live"),
    lower("core.observe_us_p90.hysteresis", "us", "wall_s on ops_live"),
    lower("core.classify_ms.latent12", "ms", "wall_s on paper_tables"),
    lower("core.classify_many_ms.4cfg", "ms", "wall_s on paper_tables"),
    // pipeline
    lower("pipeline.observe_ns_per_pkt.serial", "ns/pkt", "pkts_per_s on backbone"),
    lower("pipeline.observe_ns_per_pkt.shards1", "ns/pkt", "pkts_per_s on backbone_shards2; nothing on backbone"),
    lower("pipeline.observe_ns_per_pkt.shards2", "ns/pkt", "pkts_per_s and cpu_s on backbone_shards2; nothing on backbone"),
    lower("pipeline.seal_us_p50.serial", "us", "wall_s on ops_live"),
    lower("pipeline.seal_us_p90.serial", "us", "wall_s on ops_live"),
    lower("pipeline.seal_us_p50.shards2", "us", "wall_s on backbone_shards2"),
    lower("pipeline.seal_us_p90.shards2", "us", "wall_s on backbone_shards2"),
    lower("pipeline.jsonl_us_per_interval", "us", "wall_s on ops_live only"),
    lower("pipeline.jsonl_bytes_per_interval", "bytes", "wall_s on ops_live only"),
    lower("pipeline.checkpoint_ms", "ms", "wall_s on ops_live only"),
    lower("pipeline.checkpoint_bytes", "bytes", "wall_s on ops_live only"),
    lower("pipeline.checkpoint_write_ms", "ms", "wall_s on ops_live only"),
    lower("pipeline.resume_ms", "ms", "wall_s on ops_live after a crash"),
    lower("pipeline.run_s", "s", "wall_s on backbone: the in-process whole"),
    // trace / report
    lower("trace.generate_ms", "ms", "wall_s on paper_tables only"),
    lower("trace.synth_ns_per_pkt", "ns/pkt", "wall_s on eleph run --synth; no benchmark workload"),
    lower("report.fig1_data_ms", "ms", "wall_s on paper_tables only"),
    lower("report.fig1_tables_ms", "ms", "wall_s on paper_tables only"),
    lower("report.table4_ms", "ms", "wall_s on paper_tables only"),
    lower("report.west_lab_ms", "ms", "wall_s on paper_tables only"),
    lower("report.ablations_ms", "ms", "wall_s on paper_tables only"),
    // How much of the in-process whole the serial-path layers explain.
    LayerMetric {
        name: "ladder_coverage",
        unit: "ratio",
        better: "higher",
        moves: "none: the serial path's layers, each at the median of its leaf spans, summed over pipeline.run_s; 0.85-1.15 means the ladder explains the run",
    },
];

/// Repetitions of one measured call: at least what the caller asks for,
/// then more while they fit the call's slice of `--seconds`, up to this.
const MAX_REPS: usize = 7;
/// Share of `--seconds` one measured call may use for extra repetitions.
const SLICE_SHARE: f64 = 1.0 / 40.0;
/// Packets per `observe_chunk` call, as `PcapSource` delivers them.
const SOURCE_CHUNK: usize = 256;
/// Addresses per batched lookup, as `flow::attribute_metas` issues them.
const LOOKUP_CHUNK: usize = eleph_flow::ATTRIBUTION_CHUNK;

/// What the traced run produced.
#[derive(Debug)]
pub struct TraceResult {
    /// Value and sample count per metric of [`PER_LAYER`].
    pub values: BTreeMap<&'static str, (f64, usize)>,
    /// Correctness checks made along the way.
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl TraceResult {
    /// Every metric by name with its unit.
    pub fn print(&self) {
        for m in PER_LAYER {
            let (value, n) = self.values[m.name];
            println!(
                "{:<42} {:>16.4} {:<7} n={:<4} moves {}",
                m.name, value, m.unit, n, m.moves
            );
        }
        for note in &self.notes {
            println!("FAILED: {note}");
        }
    }
}

/// Span recorder plus the bookkeeping around it.
struct Tracer {
    rec: Recorder,
    slice_s: f64,
    values: BTreeMap<&'static str, (f64, usize)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tracer {
    /// Run `f` in spans named `name` at least `min_reps` times, then
    /// again while the repetitions so far fit the slice. Returns every
    /// repetition's duration in seconds and the last result.
    fn repeat<T>(
        &mut self,
        name: &str,
        workload: &'static str,
        min_reps: usize,
        mut f: impl FnMut(&mut Recorder) -> io::Result<T>,
    ) -> io::Result<(Vec<f64>, T)> {
        let started = Instant::now();
        let mut times = Vec::new();
        loop {
            let (result, secs) = self.rec.span(name, workload, &mut f);
            let result = result?;
            times.push(secs);
            let enough = times.len() >= min_reps.max(1);
            let room = times.len() < MAX_REPS && started.elapsed().as_secs_f64() < self.slice_s;
            if enough && !room {
                return Ok((times, result));
            }
        }
    }

    fn set(&mut self, metric: &'static str, value: f64, n: usize) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == metric),
            "{metric} is not declared"
        );
        self.values.insert(metric, (value, n));
    }

    /// Median of `times` (seconds) scaled to the metric's unit.
    fn set_median(&mut self, metric: &'static str, times: &[f64], scale: f64) {
        self.set(metric, median(times) * scale, times.len());
    }

    /// Median and 90th percentile of pooled samples (seconds) in µs. The
    /// 90th needs ten samples beyond it; callers pool enough repetitions.
    fn set_p50_p90(&mut self, p50: &'static str, p90: &'static str, samples: &[f64]) {
        self.set(p50, median(samples) * 1e6, samples.len());
        match percentile(samples, 90.0) {
            Some(v) => self.set(p90, v * 1e6, samples.len()),
            None => self.check(false, || {
                format!("{p90}: {} samples cannot carry a p90", samples.len())
            }),
        }
    }

    fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(note());
        }
    }
}

/// `syscr` from `/proc/self/io`: read-like system calls so far.
fn read_syscalls() -> io::Result<u64> {
    fs::read_to_string("/proc/self/io")?
        .lines()
        .find_map(|l| {
            l.strip_prefix("syscr: ")
                .and_then(|v| v.trim().parse().ok())
        })
        .ok_or_else(|| other("/proc/self/io has no syscr line"))
}

/// Index of the `backbone` interval a timestamp falls in.
fn interval_of(ts_ns: u64) -> usize {
    ((ts_ns - START_UNIX * 1_000_000_000) / (INTERVAL_SECS * 1_000_000_000)) as usize
}

/// Builder of a serial or sharded pipeline over `frozen`, on the capture's
/// window cut into `interval_secs` intervals.
fn window_pipeline(
    frozen: &FrozenBgpTable,
    interval_secs: u64,
    shards: usize,
) -> PipelineBuilder<'_, ConstantLoadDetector> {
    PipelineBuilder::new()
        .frozen(frozen)
        .interval_secs(interval_secs)
        .start_unix(START_UNIX)
        .n_intervals((WINDOW_SECS / interval_secs) as usize)
        .shards(shards)
}

/// Feed `metas` in source-sized chunks, except that the first packet of
/// each later interval goes alone: that one-packet chunk crosses the
/// boundary, so its `observe_chunk` is the seal, timed in its own span.
/// Returns the seal durations in seconds.
fn observe_with_seals(
    rec: &mut Recorder,
    pipeline: &mut Pipeline<'_, ConstantLoadDetector>,
    metas: &[PacketMeta],
    workload: &'static str,
) -> io::Result<Vec<f64>> {
    let mut seals = Vec::new();
    let mut at = 0;
    while at < metas.len() {
        let interval = interval_of(metas[at].ts_ns);
        if at > 0 && interval_of(metas[at - 1].ts_ns) != interval {
            let (result, secs) = rec.span("pipeline.seal", workload, |_| {
                pipeline.observe_chunk(&metas[at..=at])
            });
            result.map_err(other)?;
            seals.push(secs);
            at += 1;
            continue;
        }
        let same = metas[at..]
            .iter()
            .take(SOURCE_CHUNK)
            .take_while(|m| interval_of(m.ts_ns) == interval)
            .count();
        pipeline
            .observe_chunk(&metas[at..at + same])
            .map_err(other)?;
        at += same;
    }
    Ok(seals)
}

/// Run every layer's measurement for `seed` and write `trace.json`.
/// `requested` is the `--workload` the traced run was asked for; the
/// ladder is the same for all of them, and spans carry the workload
/// their own layer matters to.
pub fn trace(layout: &Layout, seed: u64, seconds: f64, requested: &str) -> io::Result<TraceResult> {
    let inputs = inputs::generate(&layout.out.join("inputs"), seed)?;
    // The report experiments write CSVs under `$CARGO_TARGET_DIR` or
    // `./target`: either way, relative to here.
    let work = layout.out.join("work").join("trace");
    if work.exists() {
        fs::remove_dir_all(&work)?;
    }
    fs::create_dir_all(&work)?;
    std::env::set_current_dir(&work)?;

    let packets = inputs.ledger.total_packets();
    let per_pkt = 1e9 / packets as f64;
    let mut t = Tracer {
        rec: Recorder::new(),
        slice_s: seconds * SLICE_SHARE,
        values: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };

    // Everything below happens inside one root span, so the harness's
    // own glue between layer calls is the root's self time.
    let root = t.rec.enter(
        "trace",
        Workload::by_name(requested).map_or("all", |w| w.name),
    );
    let outcome = layers(&mut t, &inputs, &work, packets, per_pkt);
    t.rec.exit(root);
    outcome?;

    let own = t.rec.self_times_ns();

    for m in PER_LAYER {
        let present = t.values.contains_key(m.name);
        t.check(present, || format!("{} was not measured", m.name));
        t.values.entry(m.name).or_insert((0.0, 0));
    }

    // Self time per span name: where the traced run's time went.
    let mut by_name: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    for (span, own) in t.rec.spans().iter().zip(&own) {
        let entry = by_name.entry(span.name.as_str()).or_default();
        entry.0 += own;
        entry.1 += 1;
    }
    let self_time = by_name.iter().map(|(name, (ns, count))| {
        (
            *name,
            obj([
                ("self_s", Value::Num(*ns as f64 / 1e9)),
                ("spans", Value::Num(*count as f64)),
            ]),
        )
    });
    let metrics = PER_LAYER.iter().map(|m| {
        let (value, n) = t.values[m.name];
        let entry = obj([
            ("value", Value::Num(value)),
            ("unit", string(m.unit)),
            ("n", Value::Num(n as f64)),
            ("better", string(m.better)),
            ("moves", string(m.moves)),
        ]);
        (m.name, entry)
    });
    let doc = obj([
        ("benchmark", string("eleph per-layer trace")),
        ("seed", Value::Num(seed as f64)),
        ("requested_workload", string(requested)),
        ("machine", machine::header(&layout.repo_root)),
        ("packets", Value::Num(packets as f64)),
        ("inputs_s", Value::Num(inputs.gen_secs)),
        ("harness_self_s", Value::Num(own[root] as f64 / 1e9)),
        ("attempted", Value::Num(t.attempted as f64)),
        ("failed", Value::Num(t.failed as f64)),
        ("notes", Value::Arr(t.notes.iter().map(string).collect())),
        ("metrics", obj(metrics)),
        ("self_time_by_span_name", obj(self_time)),
        ("spans", t.rec.to_json()),
    ]);
    fs::write(
        layout.out.join("trace.json"),
        doc.render().map_err(other)? + "\n",
    )?;

    Ok(TraceResult {
        values: t.values,
        attempted: t.attempted,
        failed: t.failed,
        notes: t.notes,
    })
}

/// Every layer, bottom up.
fn layers(
    t: &mut Tracer,
    inputs: &inputs::Inputs,
    work: &std::path::Path,
    packets: u64,
    per_pkt: f64,
) -> io::Result<()> {
    let ledger = &inputs.ledger;

    // ---- bgp: what `setup_s` is made of --------------------------------
    let (times, table) = t.repeat("bgp.read_dump", "backbone", 3, |_| {
        eleph_bgp::dump::read_dump(File::open(&inputs.rib)?).map_err(other)
    })?;
    t.set_median("bgp.rib_parse_ms", &times, 1e3);
    let (times, frozen) = t.repeat("bgp.freeze", "backbone", 3, |_| Ok(table.freeze()))?;
    t.set_median("bgp.freeze_ms", &times, 1e3);
    t.set(
        "net.table_mib",
        frozen.table_bytes() as f64 / (1 << 20) as f64,
        1,
    );

    // ---- packet ---------------------------------------------------------
    // As the CLI reads: `PcapReader` straight over a `File`.
    let read_pass = || -> io::Result<u64> {
        let mut reader = PcapReader::new(File::open(&inputs.pcap)?).map_err(other)?;
        let mut buf = Vec::new();
        let mut n = 0u64;
        while reader.next_record_into(&mut buf).map_err(other)?.is_some() {
            n += 1;
        }
        Ok(black_box(n))
    };
    // The in-process whole, untraced inside: what the CLI's serial path
    // does between opening the capture and the summary line.
    let run_pass = || -> io::Result<eleph_pipeline::PipelineReport> {
        let mut pipeline = window_pipeline(&frozen, INTERVAL_SECS, 0)
            .sink(JsonlSink::new(io::sink()))
            .build();
        let source = PcapSource::new(File::open(&inputs.pcap)?).map_err(other)?;
        pipeline.run(source).map_err(other)?;
        pipeline.finish().map_err(other)
    };
    // The file read is most of the whole, and this box's speed drifts by
    // ten percent within a minute: the two are measured alternately, so
    // `ladder_coverage` compares like with like. Reading the syscall
    // counter costs reads itself; two back-to-back readings give that
    // constant, which is taken off every measured pass.
    let counter_cost = {
        let first = read_syscalls()?;
        read_syscalls()? - first
    };
    let (mut read_times, mut run_times, mut syscalls) = (Vec::new(), Vec::new(), 0u64);
    for _ in 0..5 {
        let before = read_syscalls()?;
        let (records_read, secs) = t.rec.span("packet.read", "backbone", |_| read_pass());
        syscalls += (read_syscalls()? - before).saturating_sub(counter_cost);
        read_times.push(secs);
        let records_read = records_read?;
        t.check(records_read == packets, || {
            format!("read {records_read} records, ledger has {packets}")
        });
        let (report, secs) = t.rec.span("pipeline.run", "backbone", |_| run_pass());
        run_times.push(secs);
        let report = report?;
        t.check(
            report.stats.is_conserved() && report.stats.offered == packets,
            || format!("pipeline.run: {:?}", report.stats),
        );
    }
    t.set_median("packet.read_ns_per_pkt", &read_times, per_pkt);
    t.set(
        "packet.read_syscalls_per_pkt",
        syscalls as f64 / (read_times.len() as u64 * packets) as f64,
        read_times.len(),
    );
    let run_s = median(&run_times);
    t.set("pipeline.run_s", run_s, run_times.len());

    let data = Arc::new(fs::read(&inputs.pcap)?);
    let frame_pass = |_: &mut Recorder| -> io::Result<Vec<(RecordHeader, &[u8])>> {
        let mut slice = PcapSlice::new(&data).map_err(other)?;
        let mut records = Vec::with_capacity(packets as usize);
        while let Some(record) = slice.next_record().map_err(other)? {
            records.push(record);
        }
        Ok(records)
    };
    let (times, records) = t.repeat("packet.frame", "backbone", 3, frame_pass)?;
    t.set_median("packet.frame_ns_per_pkt", &times, per_pkt);
    let link = LinkType::from_code(PcapSlice::new(&data).map_err(other)?.header().linktype)
        .map_err(other)?;

    let (times, (metas, malformed)) = t.repeat("packet.parse", "backbone", 3, |_| {
        let mut metas = Vec::with_capacity(records.len());
        let mut malformed = 0u64;
        for (head, bytes) in &records {
            match parse_buf_meta(link, bytes, head) {
                Ok(meta) => metas.push(meta),
                Err(_) => malformed += 1,
            }
        }
        Ok((metas, malformed))
    })?;
    t.set_median("packet.parse_ns_per_pkt", &times, per_pkt);
    t.set("packet.malformed", malformed as f64, 1);
    t.check(malformed == 0, || {
        format!("{malformed} generated records are malformed")
    });
    drop(records);

    let (times, pooled) = t.repeat("packet.pool", "backbone", 3, |_| {
        let mut reader = PooledReader::new(data.clone(), 1).map_err(other)?;
        let mut out = Vec::new();
        let mut n = 0u64;
        loop {
            out.clear();
            match reader.next_metas(&mut out).map_err(other)? {
                0 => break,
                got => n += got as u64,
            }
        }
        Ok(n)
    })?;
    t.set_median("packet.pool_ns_per_pkt", &times, per_pkt);
    t.check(pooled == packets, || {
        format!("pooled reader delivered {pooled} of {packets} packets")
    });

    // ---- bgp / net: attribution ------------------------------------------
    let dsts: Vec<u32> = metas.iter().map(|m| u32::from(m.dst)).collect();
    let (times, routes) = t.repeat("bgp.attribute", "backbone", 3, |_| {
        let mut routes: Vec<Option<RouteId>> = vec![None; dsts.len()];
        for (d, r) in dsts
            .chunks(LOOKUP_CHUNK)
            .zip(routes.chunks_mut(LOOKUP_CHUNK))
        {
            frozen.attribute_ids(d, r);
        }
        Ok(routes)
    })?;
    t.set_median("bgp.attribute_ns_per_pkt", &times, per_pkt);
    let unroutable = routes.iter().filter(|r| r.is_none()).count();
    t.set("bgp.unroutable", unroutable as f64, 1);
    t.check(unroutable == 0, || {
        format!("{unroutable} generated packets are unroutable")
    });

    let raw_lookup_pass = |lookup: &dyn Fn(&[u32], &mut [u32])| {
        let mut out = [0u32; LOOKUP_CHUNK];
        let mut hits = 0usize;
        for d in dsts.chunks(LOOKUP_CHUNK) {
            lookup(d, &mut out[..d.len()]);
            hits += out[..d.len()].iter().filter(|&&id| id != 0).count();
        }
        black_box(hits)
    };
    let flat: FlatLpm<()> = FlatLpm::from_entries(table.iter().map(|e| (e.prefix, ())));
    let (times, flat_hits) = t.repeat("net.flat_lookup", "backbone", 3, |_| {
        Ok(raw_lookup_pass(&|d, out| flat.lookup_many_raw(d, out)))
    })?;
    t.set_median("net.flat_lookup_ns_per_pkt", &times, per_pkt);
    drop(flat);
    // The snapshot arm: the same lookups through copy-on-write pages.
    let epoch = EpochLpm::from_entries(
        table
            .iter()
            .enumerate()
            .map(|(id, e)| (e.prefix, id as u32)),
    );
    let (times, epoch_hits) = t.repeat("net.epoch_lookup", "ops_live", 3, |_| {
        let snapshot = epoch.pin();
        Ok(raw_lookup_pass(&|d, out| snapshot.lookup_many_raw(d, out)))
    })?;
    t.set_median("net.epoch_lookup_ns_per_pkt", &times, per_pkt);
    t.check(flat_hits == epoch_hits, || {
        format!("flat resolved {flat_hits} addresses, epoch {epoch_hits}")
    });
    drop(epoch);

    let batches = eleph_bgp::dump::read_updates(File::open(&inputs.churn)?).map_err(other)?;
    let n_updates: usize = batches.iter().map(|b| b.updates.len()).sum();
    t.check(n_updates == inputs.churn_updates, || {
        "the churn file lost updates".to_string()
    });
    let live = LiveBgpTable::from_table(&table);
    let view = live.view();
    let (times, live_routed) = t.repeat("bgp.live_attribute", "ops_live", 3, |_| {
        let mut scratch = Vec::new();
        let mut routed = 0usize;
        for chunk in metas.chunks(SOURCE_CHUNK) {
            attribute_metas(&view, chunk, &mut scratch);
            routed += scratch.iter().filter(|r| r.is_some()).count();
        }
        Ok(routed)
    })?;
    t.set_median("bgp.live_attribute_ns_per_pkt", &times, per_pkt);
    t.check(live_routed == routes.len() - unroutable, || {
        format!(
            "the live view routed {live_routed} packets, the frozen table {}",
            routes.len() - unroutable
        )
    });
    drop((view, live));
    // `apply` mutates the table, so every repetition gets a fresh one,
    // built outside the span.
    let mut apply_times = Vec::new();
    for _ in 0..3 {
        let live = LiveBgpTable::from_table(&table);
        let ((), secs) = t.rec.span("bgp.apply", "ops_live", |_| {
            for batch in &batches {
                black_box(live.apply(&batch.updates));
            }
        });
        apply_times.push(secs);
    }
    t.set_median(
        "bgp.apply_us_per_update",
        &apply_times,
        1e6 / n_updates.max(1) as f64,
    );

    // ---- flow --------------------------------------------------------------
    let (times, (keys, n_keys)) = t.repeat("flow.key_for", "backbone", 3, |_| {
        let mut alloc = KeyAllocator::new(frozen.len());
        let keys: Vec<KeyId> = routes
            .iter()
            .flatten()
            .map(|&route| alloc.key_for(route).0)
            .collect();
        Ok((keys, alloc.n_keys()))
    })?;
    t.set_median("flow.key_for_ns_per_pkt", &times, per_pkt);
    t.set("flow.keys", n_keys as f64, 1);
    t.check(n_keys == ledger.distinct_prefixes(), || {
        format!(
            "{n_keys} keys allocated, the ledger has {} prefixes",
            ledger.distinct_prefixes()
        )
    });

    let (times, (matrix, _)) = t.repeat("flow.aggregate", "paper_tables", 3, |_| {
        aggregate_pcap_frozen(&data[..], &frozen, INTERVAL_SECS, START_UNIX, INTERVALS)
            .map_err(other)
    })?;
    t.set_median("flow.aggregate_ns_per_pkt", &times, per_pkt);
    for n in 0..INTERVALS {
        let wrong = ledger.prefix_bytes[n].iter().find(|&(&prefix, &bytes)| {
            let want = bytes as f64 * 8.0 / INTERVAL_SECS as f64;
            let got = matrix.key_id(prefix).map_or(0.0, |id| matrix.rate(n, id));
            (got - want).abs() > 1e-6 * want
        });
        t.check(
            wrong.is_none() && matrix.active(n) == ledger.prefix_bytes[n].len(),
            || format!("aggregated interval {n} disagrees with the ledger (first at {wrong:?})"),
        );
    }
    drop(matrix);

    // ---- core: the open-interval state ---------------------------------------
    // Per interval, the (key, bytes) updates the pipeline would record.
    let mut updates: Vec<Vec<(KeyId, u64)>> = vec![Vec::new(); INTERVALS];
    let routed_metas = metas
        .iter()
        .zip(&routes)
        .filter(|(_, r)| r.is_some())
        .map(|(m, _)| m);
    for (meta, &key) in routed_metas.zip(&keys) {
        updates[interval_of(meta.ts_ns)].push((key, u64::from(meta.wire_len)));
    }
    let n_updates_total: usize = updates.iter().map(Vec::len).sum();
    let per_update = 1e9 / n_updates_total.max(1) as f64;
    let secs = INTERVAL_SECS as f64;
    let mut snapshots: Vec<Vec<(KeyId, f32)>> = Vec::new();
    type Backend = (
        &'static str,
        &'static str,
        Option<&'static str>,
        &'static str,
        fn() -> Box<dyn StateBackend>,
    );
    let backends: [Backend; 5] = [
        (
            "core.record_ns_per_update.exact",
            "exact",
            Some("core.seal_into_us.exact"),
            "backbone",
            || Box::new(ExactDense::new()),
        ),
        (
            "core.record_ns_per_update.spacesaving64k",
            "spacesaving64k",
            Some("core.seal_into_us.spacesaving64k"),
            "sketch_ss64k",
            || Box::new(SpaceSaving::with_budget(64 << 10)),
        ),
        (
            "core.record_ns_per_update.spacesaving1m",
            "spacesaving1m",
            None,
            "sketch_ss64k",
            || Box::new(SpaceSaving::with_budget(1 << 20)),
        ),
        (
            "core.record_ns_per_update.cmrow1m",
            "cmrow1m",
            None,
            "sketch_ss64k",
            || Box::new(CountMinRow::with_budget(1 << 20)),
        ),
        (
            "core.record_ns_per_update.bloom1m",
            "bloom1m",
            None,
            "sketch_ss64k",
            || Box::new(AdaptiveBloom::with_budget(1 << 20)),
        ),
    ];
    for (record_metric, label, seal_metric, workload, make) in backends {
        let record_span = format!("core.record.{label}");
        let seal_span = format!("core.seal_into.{label}");
        let mut record_times = Vec::new();
        let mut seal_times = Vec::new();
        let (_, sealed) = t.repeat(&format!("core.state.{label}"), workload, 3, |rec| {
            let mut backend = make();
            let mut sealed = Vec::with_capacity(INTERVALS);
            let mut record_s = 0.0;
            for interval in &updates {
                let ((), secs_spent) = rec.span(&record_span, workload, |_| {
                    for &(key, bytes) in interval {
                        backend.record(key, bytes);
                    }
                });
                record_s += secs_spent;
                let mut out = Vec::new();
                let ((), secs_spent) =
                    rec.span(&seal_span, workload, |_| backend.seal_into(secs, &mut out));
                seal_times.push(secs_spent);
                sealed.push(out);
            }
            record_times.push(record_s);
            Ok(sealed)
        })?;
        t.set_median(record_metric, &record_times, per_update);
        if let Some(metric) = seal_metric {
            t.set_median(metric, &seal_times, 1e6);
        }
        if label == "exact" {
            snapshots = sealed;
        }
    }
    for (n, snapshot) in snapshots.iter().enumerate() {
        let total: f64 = snapshot.iter().map(|&(_, rate)| f64::from(rate)).sum();
        let want = ledger.load_bps(n, INTERVAL_SECS);
        t.check((total - want).abs() <= 1e-5 * want, || {
            format!("sealed interval {n} carries {total} b/s, the ledger {want}")
        });
    }

    // ---- core: detection and the membership rule --------------------------------
    let values: Vec<Vec<f64>> = snapshots
        .iter()
        .map(|s| s.iter().map(|&(_, rate)| f64::from(rate)).collect())
        .collect();
    let detectors: [(&'static str, &'static str, Box<dyn ThresholdDetector>); 2] = [
        (
            "core.detect_us.constant_load",
            "ops_live",
            Box::new(ConstantLoadDetector::new(PAPER_BETA)),
        ),
        (
            "core.detect_us.aest",
            "paper_tables",
            Box::new(AestDetector::new()),
        ),
    ];
    for (metric, workload, detector) in detectors {
        let mut samples = Vec::new();
        t.repeat(metric, workload, 3, |rec| {
            for v in &values {
                let (_, secs) =
                    rec.span("core.detect", workload, |_| black_box(detector.detect(v)));
                samples.push(secs);
            }
            Ok(())
        })?;
        t.set_median(metric, &samples, 1e6);
    }
    let latent = Scheme::LatentHeat {
        window: PAPER_LATENT_WINDOW,
    };
    let schemes: [(&'static str, &'static str, &'static str, Scheme); 3] = [
        (
            "core.observe_us_p50.single",
            "core.observe_us_p90.single",
            "single",
            Scheme::SingleFeature,
        ),
        (
            "core.observe_us_p50.latent12",
            "core.observe_us_p90.latent12",
            "latent12",
            latent,
        ),
        (
            "core.observe_us_p50.hysteresis",
            "core.observe_us_p90.hysteresis",
            "hysteresis",
            Scheme::Hysteresis {
                enter: 1.2,
                exit: 0.6,
            },
        ),
    ];
    let mut observe_latent_s = 0.0;
    for (p50, p90, label, scheme) in schemes {
        let span_name = format!("core.observe.{label}");
        let mut samples = Vec::new();
        // Five passes of 24 intervals: 120 samples carry a p90.
        t.repeat(&format!("core.classifier.{label}"), "ops_live", 5, |rec| {
            let mut classifier =
                OnlineClassifier::new(ConstantLoadDetector::new(PAPER_BETA), PAPER_GAMMA, scheme);
            for snapshot in &snapshots {
                let (_, secs) = rec.span(&span_name, "ops_live", |_| {
                    black_box(classifier.observe(snapshot))
                });
                samples.push(secs);
            }
            Ok(())
        })?;
        t.set_p50_p90(p50, p90, &samples);
        if label == "latent12" {
            observe_latent_s =
                samples.iter().sum::<f64>() / samples.len() as f64 * INTERVALS as f64;
        }
    }

    // ---- pipeline ------------------------------------------------------------------
    let mut serial_outcomes = Vec::new();
    let mut seal_samples: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let variants: [(&'static str, &'static str, usize, &'static str); 3] = [
        (
            "pipeline.observe_ns_per_pkt.serial",
            "pipeline.observe.serial",
            0,
            "backbone",
        ),
        (
            "pipeline.observe_ns_per_pkt.shards1",
            "pipeline.observe.shards1",
            1,
            "backbone_shards2",
        ),
        (
            "pipeline.observe_ns_per_pkt.shards2",
            "pipeline.observe.shards2",
            2,
            "backbone_shards2",
        ),
    ];
    for (metric, span_name, shards, workload) in variants {
        let collector = Collector::new();
        // Five passes of 23 boundary crossings: 115 samples carry a p90.
        let (times, report) = t.repeat(span_name, workload, 5, |rec| {
            collector.take();
            let mut pipeline = window_pipeline(&frozen, INTERVAL_SECS, shards)
                .sink(collector.sink())
                .build();
            let seals = observe_with_seals(rec, &mut pipeline, &metas, workload)?;
            seal_samples.entry(shards).or_default().extend(seals);
            pipeline.finish().map_err(other)
        })?;
        t.set_median(metric, &times, per_pkt);
        t.check(
            report.stats.is_conserved()
                && report.stats.offered == packets
                && report.intervals == INTERVALS,
            || {
                format!(
                    "{span_name}: {:?} over {} intervals",
                    report.stats, report.intervals
                )
            },
        );
        let outcomes = collector.take();
        if shards == 0 {
            serial_outcomes = outcomes;
            t.check(report.keys.len() == ledger.distinct_prefixes(), || {
                format!(
                    "the pipeline tracked {} keys, the ledger has {} prefixes",
                    report.keys.len(),
                    ledger.distinct_prefixes()
                )
            });
            jsonl_layer(t, &serial_outcomes, &report.keys)?;
        } else {
            let same = outcomes.len() == serial_outcomes.len()
                && outcomes.iter().zip(&serial_outcomes).all(|(a, b)| {
                    a.outcome.elephants == b.outcome.elephants
                        && a.outcome.threshold.to_bits() == b.outcome.threshold.to_bits()
                        && a.outcome.total_load.to_bits() == b.outcome.total_load.to_bits()
                });
            t.check(same, || {
                format!("{span_name}: outcomes differ from the serial pipeline's")
            });
        }
    }
    t.set_p50_p90(
        "pipeline.seal_us_p50.serial",
        "pipeline.seal_us_p90.serial",
        &seal_samples[&0],
    );
    t.set_p50_p90(
        "pipeline.seal_us_p50.shards2",
        "pipeline.seal_us_p90.shards2",
        &seal_samples[&2],
    );

    // Checkpointing on `ops_live`'s geometry, half-way through the capture.
    let mut pipeline = window_pipeline(&frozen, 1, 0).build();
    for chunk in metas[..metas.len() / 2].chunks(SOURCE_CHUNK) {
        pipeline.observe_chunk(chunk).map_err(other)?;
    }
    let (times, image) = t.repeat("pipeline.checkpoint", "ops_live", 3, |_| {
        let mut image = Vec::new();
        pipeline.checkpoint(&mut image)?;
        Ok(image)
    })?;
    t.set_median("pipeline.checkpoint_ms", &times, 1e3);
    t.set("pipeline.checkpoint_bytes", image.len() as f64, 1);
    let mut checkpointer = Checkpointer::new(work.join("ckpt"), 1)?;
    let (times, ()) = t.repeat("pipeline.checkpoint_write", "ops_live", 5, |_| {
        checkpointer.write(&mut pipeline).map_err(other)
    })?;
    t.set_median("pipeline.checkpoint_write_ms", &times, 1e3);
    let sealed_before = pipeline.intervals_sealed();
    let (times, resumed) = t.repeat("pipeline.resume", "ops_live", 3, |_| {
        let checkpoint = Checkpoint::read_from(&mut &image[..]).map_err(other)?;
        let resumed = window_pipeline(&frozen, 1, 0)
            .resume(&checkpoint)
            .map_err(other)?;
        Ok(resumed.intervals_sealed())
    })?;
    t.set_median("pipeline.resume_ms", &times, 1e3);
    t.check(resumed == sealed_before, || {
        format!("resumed at interval {resumed}, checkpointed at {sealed_before}")
    });
    drop(pipeline);

    // The serial path's layers, each at its own median, against the whole.
    let per_packet_layers = [
        "packet.read_ns_per_pkt",
        "packet.parse_ns_per_pkt",
        "bgp.attribute_ns_per_pkt",
        "flow.key_for_ns_per_pkt",
    ];
    let per_packet_s: f64 = per_packet_layers
        .iter()
        .map(|m| t.values[m].0 / per_pkt)
        .sum();
    let record_s = t.values["core.record_ns_per_update.exact"].0 / per_update;
    let seal_s = t.values["core.seal_into_us.exact"].0 / 1e6 * INTERVALS as f64;
    let jsonl_s = t.values["pipeline.jsonl_us_per_interval"].0 / 1e6 * INTERVALS as f64;
    let ladder_s = per_packet_s + record_s + seal_s + observe_latent_s + jsonl_s;
    t.set("ladder_coverage", ladder_s / run_s, 1);

    // ---- trace / report: what `paper_tables` is made of ----------------------------------
    let bb_trace = inputs::rate_trace(inputs.seed, &table);
    let synth = inputs::packet_synth(&bb_trace);
    let (times, synthesized) = t.repeat("trace.synthesize_window", "backbone", 3, |_| {
        let mut n = 0u64;
        synth.synthesize_window(0..INTERVALS, |meta| {
            black_box(meta);
            n += 1;
        });
        Ok(n)
    })?;
    t.set_median("trace.synth_ns_per_pkt", &times, per_pkt);
    t.check(synthesized == packets, || {
        format!("synthesised {synthesized} packets, the ledger has {packets}")
    });
    drop((metas, routes, keys, updates, frozen, table));

    let scenario = Scenario::west(inputs.seed).scaled(PAPER_SCALE);
    let west_table = eleph_bgp::synth::generate(&scenario.table);
    let (times, west_trace) = t.repeat("trace.generate", "paper_tables", 3, |_| {
        Ok(RateTrace::generate(&scenario.workload, &west_table))
    })?;
    t.set_median("trace.generate_ms", &times, 1e3);
    let (times, matrix) = t.repeat("flow.matrix_from_trace", "paper_tables", 3, |_| {
        Ok(BandwidthMatrix::from_rate_trace(&west_trace))
    })?;
    t.set_median("flow.matrix_from_trace_ms", &times, 1e3);
    let detector = ConstantLoadDetector::new(PAPER_BETA);
    let (times, one) = t.repeat("core.classify", "paper_tables", 3, |_| {
        Ok(classify(
            &matrix,
            ConstantLoadDetector::new(PAPER_BETA),
            PAPER_GAMMA,
            latent,
        ))
    })?;
    t.set_median("core.classify_ms.latent12", &times, 1e3);
    let configs = [
        ClassifyConfig {
            gamma: PAPER_GAMMA,
            scheme: latent,
        },
        ClassifyConfig {
            gamma: PAPER_GAMMA,
            scheme: Scheme::SingleFeature,
        },
        ClassifyConfig {
            gamma: 0.5,
            scheme: latent,
        },
        ClassifyConfig {
            gamma: PAPER_GAMMA,
            scheme: Scheme::LatentHeat { window: 6 },
        },
    ];
    let (times, many) = t.repeat("core.classify_many", "paper_tables", 3, |_| {
        Ok(classify_many(&matrix, &detector, &configs))
    })?;
    t.set_median("core.classify_many_ms.4cfg", &times, 1e3);
    t.check(
        many.len() == 4 && many[0].mean_count().to_bits() == one.mean_count().to_bits(),
        || "classify_many's first configuration differs from classify".to_string(),
    );
    drop((matrix, west_trace, west_table));

    let seed = inputs.seed;
    let (times, fig1) = t.repeat("report.fig1_data", "paper_tables", 1, |_| {
        Ok(experiments::fig1_data(PAPER_SCALE, seed))
    })?;
    t.set_median("report.fig1_data_ms", &times, 1e3);
    let (times, ()) = t.repeat("report.fig1_tables", "paper_tables", 1, |_| {
        experiments::fig1a(&fig1)?;
        experiments::fig1b(&fig1)?;
        experiments::fig1c(&fig1)?;
        experiments::table1(&fig1)?;
        experiments::table2(&fig1)?;
        experiments::table3(&fig1)?;
        Ok(())
    })?;
    t.set_median("report.fig1_tables_ms", &times, 1e3);
    drop(fig1);
    let (times, _) = t.repeat("report.table4", "paper_tables", 1, |_| {
        experiments::table4(PAPER_SCALE, seed)
    })?;
    t.set_median("report.table4_ms", &times, 1e3);
    let (times, (lab_scenario, lab)) = t.repeat("report.west_lab", "paper_tables", 1, |_| {
        Ok(experiments::west_lab(PAPER_SCALE, seed))
    })?;
    t.set_median("report.west_lab_ms", &times, 1e3);
    let (times, ()) = t.repeat("report.ablations", "paper_tables", 1, |_| {
        experiments::ablation_gamma(&lab_scenario, &lab)?;
        experiments::ablation_window(&lab_scenario, &lab)?;
        experiments::ablation_beta(&lab_scenario, &lab)?;
        experiments::ablation_scheme(&lab_scenario, &lab)?;
        Ok(())
    })?;
    t.set_median("report.ablations_ms", &times, 1e3);
    Ok(())
}

/// `JsonlSink::on_interval` into a `Vec`, once per collected interval.
fn jsonl_layer(
    t: &mut Tracer,
    outcomes: &[eleph_pipeline::CollectedInterval],
    keys: &[eleph_net::Prefix],
) -> io::Result<()> {
    let mut samples = Vec::new();
    let mut bytes = 0usize;
    t.repeat("pipeline.jsonl", "ops_live", 3, |rec| {
        let mut buffer = Vec::new();
        let mut sink = JsonlSink::new(&mut buffer);
        for collected in outcomes {
            let sealed = SealedInterval {
                outcome: &collected.outcome,
                interval_start_unix: collected.interval_start_unix,
                interval_secs: INTERVAL_SECS,
                keys,
            };
            let (result, secs) = rec.span("pipeline.jsonl.on_interval", "ops_live", |_| {
                sink.on_interval(&sealed)
            });
            result?;
            samples.push(secs);
        }
        bytes = buffer.len();
        Ok(())
    })?;
    t.set_median("pipeline.jsonl_us_per_interval", &samples, 1e6);
    t.set(
        "pipeline.jsonl_bytes_per_interval",
        bytes as f64 / outcomes.len().max(1) as f64,
        1,
    );
    Ok(())
}
