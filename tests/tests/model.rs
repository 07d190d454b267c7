//! The pipeline is the paper's method: every run equals the executable
//! model in `eleph_tests::model`, to the bit.
//!
//! One property drives the real `Pipeline` through random programs: a
//! route table, announce/withdraw batches, and packets (unroutable,
//! outside the window, late, zero-length) among malformed records, in
//! chunks of random size — under a random scheme, γ, a detector that
//! abstains on quiet intervals, a frozen or live table, bounded or not,
//! 0 to 3 shard workers, and the default row, `Exact` or a roomy
//! Space-Saving. Each program runs serially, one chunk at a time,
//! keeping its image at every chunk boundary; then a `CrashSwitch` cuts
//! a checkpointed run at a random point and seal, and it resumes from
//! the durable image, possibly at another shard count. Both runs'
//! outcomes equal the model's by `to_bits`, and their keys and
//! accounting too; the cut run's JSONL chain is the serial run's, and
//! its images at the cut and at the end, loaded with their log and
//! re-encoded, are the serial run's at the same stream position, byte
//! for byte.
//!
//! The mutants the pairwise suites (streaming, sharded, checkpoint and
//! sketch equivalence, which each compare two implementations) are on
//! record as killing, each applied alone to a scratch copy of the tree.
//! The middle column names the pairwise tests that fail with the mutant
//! in, the last how many of this property's 256 programs fail with it,
//! and whether the fixed program below does too. The counts were taken
//! again when the cut's crash point came to be drawn from all six
//! points, not the first three, which changed the programs; drawn from
//! three, the mutants above the last two still kill what the table
//! recorded before (the re-announce mutant, rebuilt as a prefix
//! re-announced while still routed keeping its id, 77 against 81):
//!
//! | mutant | killed by the pairwise tests | killed by the model |
//! |---|---|---|
//! | `OnlineClassifier::observe` totals with `Iterator::sum` (`-0.0` on an empty interval) | `capture_gaps_and_trailing_silence_match_batch`, `streaming_equals_batch_on_random_captures`, `matches_batch_on_mixed_stream` | 216 of 256 |
//! | `WindowState::restore` drops the hysteresis members | `kill_and_resume_is_bit_identical_at_every_crash_point` | 6 of 256 |
//! | latent heat without its empty-interval guard | `capture_gaps_and_trailing_silence_match_batch` | 32 of 256 |
//! | a route batch applied after the packet stamped at its time (`>` for `>=`) | none | 104 of 256 |
//! | a re-announced prefix keeps its old route id, so its old key | `withdrawn_key_retires_through_the_latent_heat_window` | 77 of 256, and the fixed program |
//! | a late packet binned into the open interval | none (the kept `late_packets_are_counted_not_binned` does) | 198 of 256 |
//! | malformed records left out of `offered` | `resume_after_every_interval_is_bit_identical`, `capture_gaps_and_trailing_silence_match_batch`, `streaming_equals_batch_on_random_captures` | 236 of 256 |
//! | `RotatingJsonlSink::resume` keeps one line more | `kill_and_resume_is_bit_identical_at_every_crash_point`, `resume_after_every_interval_is_bit_identical`, `kill_and_resume_across_shard_counts_is_bit_identical` | 76 of 256, and the fixed program |
//! | sharded slices merged in worker order | all four `sharded_equivalence` tests, `exact_backend_is_byte_identical_to_default_at_every_shard_count` | 92 of 256, and the fixed program |
//! | `WindowState::restore` zeroes the threshold sum | both resume tests of `checkpoint_restore`, `kill_and_resume_across_shard_counts_is_bit_identical`, `sketch_checkpoint_resume_is_bit_identical_mid_stream` | 61 of 256, and the fixed program |
//! | a zero-length packet leaves an entry in the exact row | none | 63 of 256 |
//! | a resume that does not cut the log back to its image's watermark (`Checkpointer::new` skips the truncation) | `kill_and_resume_is_bit_identical_at_every_crash_point`, `checkpoint::tests::log_bytes_past_the_watermark_are_ignored_by_load_and_cut_by_resume` | 32 of 256 |
//! | a compaction that drops the window's oldest slot record | `kill_and_resume_is_bit_identical_at_every_crash_point`, the six log tests of `checkpoint::tests` | 36 of 256, and the fixed program |
//!
//! One more mutant, the infinite threshold's stand-in without its
//! `+ 1.0`, fails neither the pairwise suites nor this test: it changes
//! an outcome only when a rate lands within 1 b/s above a threshold.
//!
//! What the model cannot hold stays with its own tests: sketch error
//! bounds and resume under eviction (`sketch_equivalence.rs`), image
//! rejection and cadence (`checkpoint_restore.rs`), `TraceSource`
//! against the capture it writes (`pipeline_equivalence.rs`), and the
//! sharded row step by step against the dense one (`shard::tests`).

use std::fs;
use std::net::Ipv4Addr;
use std::path::Path;

use eleph_bgp::{BgpTable, LiveBgpTable, Origin, PeerClass, RouteEntry, RouteUpdate, UpdateBatch};
use eleph_core::{ConstantLoadDetector, Scheme, ThresholdDetector};
use eleph_net::Prefix;
use eleph_packet::{IpProtocol, PacketMeta};
use eleph_pipeline::{
    skip_offered, Checkpoint, Checkpointer, CollectedInterval, Collector, JsonlSink, PacketSource,
    PipelineBuilder, PipelineError, PipelineReport, RotatingJsonlSink, StateBackendConfig,
    CHECKPOINT_FILE,
};
use eleph_tests::model::{self, Config, Rule};
use eleph_tests::{read_chain, scratch, OneChunkPerRun, SharedBuf};
use eleph_trace::{CrashPoint, CrashSwitch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NS: u64 = 1_000_000_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_run_of_the_pipeline_is_the_model(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let case = Case::random(&mut rng);
        let program = Program::random(&mut rng, &case.config);
        check(&program, &case);
    }
}

/// Routing churn re-attributes traffic without rewriting history: a
/// heavy /16 is withdrawn and at once re-announced at the start of
/// interval 3 of 6. Its traffic goes on under a fresh key, while the old
/// key lingers one interval through the latent-heat window and retires.
#[test]
fn a_re_announced_prefix_is_a_new_key_and_the_old_one_drains() {
    let route = |prefix: &str, asn| RouteEntry {
        prefix: prefix.parse().unwrap(),
        next_hop: Ipv4Addr::new(192, 0, 2, asn as u8),
        as_path: vec![asn],
        origin: Origin::Igp,
        peer_class: PeerClass::Tier1,
    };
    let packet = |dst: [u8; 4], secs: u64, len| Some(meta(Ipv4Addr::from(dst), secs * NS, len));
    let program = Program {
        routes: vec![route("10.0.0.0/8", 1), route("10.1.0.0/16", 2), route("172.16.0.0/16", 4)],
        schedule: vec![UpdateBatch {
            at_unix: 1030,
            updates: vec![
                RouteUpdate::Withdraw("10.1.0.0/16".parse().unwrap()),
                RouteUpdate::Announce(route("10.1.0.0/16", 3)),
            ],
        }],
        records: (0..6)
            .flat_map(|i| {
                [
                    packet([10, 1, 0, 1], 1000 + 10 * i + 1, 1500),
                    packet([172, 16, 0, 1], 1000 + 10 * i + 2, 500),
                    packet([10, 2, 0, 1], 1000 + 10 * i + 3, 100),
                ]
            })
            .collect(),
        chunks: vec![2],
        live: true,
    };
    let case = Case {
        config: Config {
            interval_secs: 10,
            start_unix: 1000,
            n_intervals: Some(6),
            beta: 0.8,
            quiet_below: 0,
            gamma: 0.9,
            rule: Rule::LatentHeat { window: 2 },
        },
        state: None,
        shards: (2, 0),
        cut: (CrashPoint::AfterSink, 3),
        every: 1,
        rotate: None,
    };
    let run = check(&program, &case);
    let elephants: Vec<Vec<u32>> = run.outcomes.iter().map(|o| o.elephants.clone()).collect();
    assert_eq!(elephants, [vec![0], vec![0], vec![0], vec![0, 3], vec![3], vec![3]]);
    let keys = ["10.1.0.0/16", "172.16.0.0/16", "10.0.0.0/8", "10.1.0.0/16"];
    assert_eq!(run.keys, keys.map(|p| p.parse::<Prefix>().unwrap()));
}

/// A route table, its update schedule, a capture, and how the source
/// cuts the capture into chunks.
#[derive(Debug, Clone)]
struct Program {
    routes: Vec<RouteEntry>,
    schedule: Vec<UpdateBatch>,
    /// Packets, and `None` for a record that does not parse.
    records: Vec<Option<PacketMeta>>,
    /// Parsed packets per chunk, used in turn.
    chunks: Vec<usize>,
    /// Attribute against a live table (a frozen one otherwise; a
    /// schedule needs a live one).
    live: bool,
}

/// How one case runs its program.
#[derive(Debug, Clone)]
struct Case {
    config: Config,
    /// The row backend (`None`: the builder's default).
    state: Option<StateBackendConfig>,
    /// Shard workers before and after the cut.
    shards: (usize, usize),
    cut: (CrashPoint, usize),
    /// Checkpoint cadence in sealed intervals.
    every: usize,
    rotate: Option<u64>,
}

impl Case {
    fn random(rng: &mut StdRng) -> Case {
        let rule = match rng.gen_range(0..3u8) {
            0 => Rule::Single,
            1 => Rule::LatentHeat { window: rng.gen_range(1..=4) },
            _ => Rule::Hysteresis {
                enter: rng.gen_range(1.0..1.6),
                exit: rng.gen_range(0.3..1.0),
            },
        };
        let n_intervals = rng.gen_bool(0.8).then(|| rng.gen_range(2..=10));
        let roomy = StateBackendConfig::SpaceSaving { budget_bytes: 1 << 20 };
        let state = [None, Some(StateBackendConfig::Exact), Some(roomy)][rng.gen_range(0..3usize)];
        // Sketches run serially.
        let shards = match state {
            Some(StateBackendConfig::SpaceSaving { .. }) => (0, 0),
            _ => (rng.gen_range(0..=3), rng.gen_range(0..=3)),
        };
        Case {
            config: Config {
                interval_secs: rng.gen_range(1..=10),
                start_unix: rng.gen_range(1_000..1_100),
                n_intervals,
                beta: rng.gen_range(0.7..1.0),
                quiet_below: [0, 0, 2, 3, 5][rng.gen_range(0..5usize)],
                gamma: [0.0, 0.5, 0.9, rng.gen_range(0.0..0.99)][rng.gen_range(0..4usize)],
                rule,
            },
            state,
            shards,
            cut: (
                CrashPoint::ALL[rng.gen_range(0..CrashPoint::ALL.len())],
                rng.gen_range(1..=n_intervals.unwrap_or(8)),
            ),
            every: if rng.gen_bool(0.75) { 1 } else { 2 },
            rotate: rng.gen_bool(0.3).then(|| rng.gen_range(100..600)),
        }
    }
}

fn meta(dst: Ipv4Addr, ts_ns: u64, wire_len: u32) -> PacketMeta {
    PacketMeta {
        ts_ns,
        src: Ipv4Addr::new(198, 18, 0, 1),
        dst,
        proto: IpProtocol::Tcp,
        src_port: 1,
        dst_port: 2,
        wire_len,
    }
}

impl Program {
    /// Routes nest inside a few /16s of 10/8, so longest match matters;
    /// destinations lean towards a few routes, so some keys are
    /// elephants; every schedule batch lands on the second of a packet
    /// it re-routes.
    fn random(rng: &mut StdRng, config: &Config) -> Program {
        let routes: Vec<RouteEntry> = (0..rng.gen_range(3..=24u8))
            .map(|i| {
                let (b, c) = (64 * rng.gen_range(0..4u8), 64 * rng.gen_range(0..4u8));
                let len = [8, 12, 16, 20, 24][rng.gen_range(0..5usize)];
                RouteEntry {
                    prefix: Prefix::from_u32(u32::from_be_bytes([10, b, c, 0]), len).unwrap(),
                    next_hop: Ipv4Addr::new(192, 0, 2, i),
                    as_path: vec![u32::from(i)],
                    origin: Origin::Igp,
                    peer_class: PeerClass::Tier1,
                }
            })
            .collect();
        let (t, n) = (config.interval_secs, config.n_intervals.unwrap_or(8) as u64);
        let silent: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.3)).collect();
        let mut packets: Vec<PacketMeta> = (0..rng.gen_range(0..=250u32))
            .filter_map(|_| {
                let dst = if rng.gen_bool(0.1) {
                    Ipv4Addr::new(11, rng.gen(), rng.gen(), 1)
                } else {
                    let route = &routes[(rng.gen::<f64>().powi(2) * routes.len() as f64) as usize];
                    let host = rng.gen::<u32>().checked_shr(route.prefix.len().into());
                    let host = host.unwrap_or(0);
                    Ipv4Addr::from(u32::from(route.prefix.network()) | host)
                };
                // Slot 0 is before the window, slot n + 1 past a bounded
                // one; interval k is slot k + 1.
                let slot = match rng.gen_range(0..20u8) {
                    0 => 0,
                    1 => n + 1,
                    _ => 1 + rng.gen_range(0..n),
                };
                if slot.checked_sub(1).is_some_and(|k| silent.get(k as usize) == Some(&true)) {
                    return None;
                }
                let secs = config.start_unix + slot * t + rng.gen_range(0..t) - t;
                let ns = if rng.gen_bool(0.5) { 0 } else { rng.gen_range(0..NS) };
                let len = if rng.gen_bool(0.02) {
                    0
                } else {
                    40 + (rng.gen::<f64>().powi(3) * 1460.0) as u32
                };
                Some(meta(dst, secs * NS + ns, len))
            })
            .collect();
        let live = rng.gen_bool(0.6);
        let n_batches = if live && !packets.is_empty() { rng.gen_range(0..=4usize) } else { 0 };
        let update = |rng: &mut StdRng, route: &RouteEntry| {
            if rng.gen_bool(0.5) {
                RouteUpdate::Withdraw(route.prefix)
            } else {
                RouteUpdate::Announce(route.clone())
            }
        };
        let mut schedule = Vec::new();
        for _ in 0..n_batches {
            let at = rng.gen_range(0..packets.len());
            let packet = &mut packets[at];
            packet.ts_ns -= packet.ts_ns % NS;
            let dst = u32::from(packet.dst);
            let routing = routes.iter().filter(|r| r.prefix.contains_u32(dst));
            let matched = routing.max_by_key(|r| r.prefix.len());
            let mut updates: Vec<_> = matched.map(|r| update(rng, r)).into_iter().collect();
            for _ in 0..rng.gen_range(0..3usize) {
                let route = &routes[rng.gen_range(0..routes.len())];
                updates.push(update(rng, route));
            }
            schedule.push(UpdateBatch { at_unix: packet.ts_ns / NS, updates });
        }
        schedule.sort_by_key(|b| b.at_unix);
        packets.sort_by_key(|p| p.ts_ns);
        // A few packets arrive after their interval was sealed.
        for packet in &mut packets {
            if rng.gen_bool(0.04) {
                packet.ts_ns = packet.ts_ns.saturating_sub(rng.gen_range(1..=2u64) * t * NS);
            }
        }
        let mut records = Vec::new();
        for packet in packets {
            if rng.gen_bool(0.05) {
                records.push(None);
            }
            records.push(Some(packet));
        }
        if rng.gen_bool(0.2) {
            records.push(None);
        }
        Program {
            routes,
            schedule,
            records,
            chunks: (0..rng.gen_range(1..=4usize)).map(|_| rng.gen_range(1..=40usize)).collect(),
            live,
        }
    }

    /// A fresh live table for each run (it moves on as the schedule
    /// replays), or `None`: the builder freezes the routes.
    fn live_table(&self) -> Option<LiveBgpTable> {
        self.live.then(|| LiveBgpTable::from_routes(self.routes.clone()))
    }
}

/// The constant-load detector, abstaining on intervals with fewer than
/// `below` keys.
struct Quiet {
    beta: f64,
    below: usize,
}

impl ThresholdDetector for Quiet {
    fn detect(&self, values: &[f64]) -> Option<f64> {
        if values.len() < self.below {
            return None;
        }
        ConstantLoadDetector::new(self.beta).detect(values)
    }

    fn name(&self) -> String {
        format!("{}-constant-load-quiet-{}", self.beta, self.below)
    }
}

fn builder<'t>(
    program: &Program,
    case: &Case,
    live: Option<&'t LiveBgpTable>,
    shards: usize,
) -> PipelineBuilder<'t, Quiet> {
    let config = &case.config;
    let scheme = match config.rule {
        Rule::Single => Scheme::SingleFeature,
        Rule::LatentHeat { window } => Scheme::LatentHeat { window },
        Rule::Hysteresis { enter, exit } => Scheme::Hysteresis { enter, exit },
    };
    let schedule = program.schedule.clone();
    let builder = match live {
        Some(live) => PipelineBuilder::new().live(live).route_updates(schedule),
        None => PipelineBuilder::new().table(&BgpTable::from_entries(program.routes.clone())),
    }
    .interval_secs(config.interval_secs)
    .start_unix(config.start_unix)
    .detector(Quiet { beta: config.beta, below: config.quiet_below })
    .gamma(config.gamma)
    .scheme(scheme)
    .shards(shards);
    let builder = match config.n_intervals {
        Some(n) => builder.n_intervals(n),
        None => builder,
    };
    match case.state {
        Some(state) => builder.state_backend(state),
        None => builder,
    }
}

/// The program's records, `chunks[i]` parsed packets per chunk in turn;
/// a malformed record counts when the chunk that meets it is assembled.
struct ProgramSource<'p> {
    program: &'p Program,
    at: usize,
    chunks: usize,
    malformed: u64,
}

impl<'p> ProgramSource<'p> {
    fn new(program: &'p Program) -> Self {
        ProgramSource { program, at: 0, chunks: 0, malformed: 0 }
    }
}

impl PacketSource for ProgramSource<'_> {
    fn next_chunk(&mut self, out: &mut Vec<PacketMeta>) -> eleph_packet::Result<usize> {
        let sizes = &self.program.chunks;
        let (want, base) = (sizes[self.chunks % sizes.len()], out.len());
        self.chunks += 1;
        while out.len() - base < want {
            match self.program.records.get(self.at) {
                None => break,
                Some(Some(packet)) => out.push(*packet),
                Some(None) => self.malformed += 1,
            }
            self.at += 1;
        }
        Ok(out.len() - base)
    }

    fn malformed(&self) -> u64 {
        self.malformed
    }
}

/// What a run leaves: every interval it emitted, its report, its JSONL.
struct Output {
    outcomes: Vec<CollectedInterval>,
    report: PipelineReport,
    jsonl: Vec<u8>,
}

/// Run `program` as `case` says, through both runs, against the model.
fn check(program: &Program, case: &Case) -> model::Run {
    let context = format!("{case:?}");
    let want = model::run(&case.config, &program.routes, &program.schedule, &program.records);
    let (serial, images) = serial(program, case);
    assert_is_model(&want, &case.config, &serial, &format!("serial {context}"));
    let dir = scratch("model");
    let (cut, durable) = cut_and_resume(program, case, &dir);
    assert_is_model(&want, &case.config, &cut, &format!("cut {context}"));
    assert!(cut.jsonl == serial.jsonl, "{context}: the JSONL chain is not the serial run's");
    let offered = |image: &Vec<u8>| Checkpoint::read_from(&mut &image[..]).unwrap().offered();
    let last = durable_image(&dir).map(|ckpt| ckpt_bytes(&ckpt));
    for image in durable.iter().chain(&last) {
        let at = offered(image);
        let serial_image = images.iter().find(|i| offered(i) == at);
        assert!(serial_image == Some(image), "{context}: image after {at} records differs");
    }
    fs::remove_dir_all(&dir).ok();
    want
}

/// The serial run, one chunk at a time, and its image at every chunk
/// boundary.
fn serial(program: &Program, case: &Case) -> (Output, Vec<Vec<u8>>) {
    let live = program.live_table();
    let (collector, jsonl) = (Collector::new(), SharedBuf::default());
    let mut pipeline = builder(program, case, live.as_ref(), 0)
        .sink(collector.sink())
        .sink(JsonlSink::new(jsonl.clone()))
        .build();
    let mut source = OneChunkPerRun::new(ProgramSource::new(program));
    let mut images = Vec::new();
    while !source.done {
        let mut image = Vec::new();
        pipeline.checkpoint(&mut image).expect("checkpoint");
        images.push(image);
        pipeline.run(&mut source).expect("serial run");
    }
    let report = pipeline.finish().expect("serial finish");
    (Output { outcomes: collector.take(), report, jsonl: jsonl.take() }, images)
}

/// Cut a checkpointed run where `case.cut` says, then resume it from
/// whatever image is durable (from the start if none is) at the other
/// shard count, as `eleph run --resume` does. Returns the stitched run
/// and the image the cut left.
fn cut_and_resume(program: &Program, case: &Case, dir: &Path) -> (Output, Option<Vec<u8>>) {
    let out = dir.join("out.jsonl");
    let (point, at_seal) = case.cut;
    let live = program.live_table();
    let crashed = Collector::new();
    let mut checkpointer = Checkpointer::new(dir, case.every).expect("checkpointer");
    let mut pipeline = builder(program, case, live.as_ref(), case.shards.0)
        .sink(crashed.sink())
        .sink(RotatingJsonlSink::create(&out, case.rotate).expect("sink"))
        .crash_switch(CrashSwitch::new(point, at_seal))
        .build();
    match pipeline.run_checkpointed(ProgramSource::new(program), &mut checkpointer) {
        // The switch may never trip: then the run is whole.
        Ok(()) => match pipeline.finish() {
            Ok(report) => {
                let jsonl = read_chain(&out);
                return (Output { outcomes: crashed.take(), report, jsonl }, None);
            }
            Err(PipelineError::Crash(p)) => assert_eq!(p, point),
            Err(e) => panic!("finish: {e}"),
        },
        Err(PipelineError::Crash(p)) => {
            assert_eq!(p, point);
            drop(pipeline); // the process dies: buffers go, files stay
        }
        Err(e) => panic!("run: {e}"),
    }
    drop(checkpointer);

    let ckpt = durable_image(dir);
    let durable = ckpt.as_ref().map(ckpt_bytes);
    let sealed = ckpt.as_ref().map_or(0, Checkpoint::intervals_sealed);
    let live = program.live_table();
    if let (Some(live), Some(ckpt)) = (&live, &ckpt) {
        for batch in &program.schedule[..ckpt.generation() as usize] {
            live.apply(&batch.updates);
        }
    }
    let sink = match ckpt {
        Some(_) => RotatingJsonlSink::resume(&out, case.rotate, sealed as u64),
        None => RotatingJsonlSink::create(&out, case.rotate),
    };
    let resumed = Collector::new();
    let builder = builder(program, case, live.as_ref(), case.shards.1)
        .sink(resumed.sink())
        .sink(sink.expect("the output chain"));
    let mut source = ProgramSource::new(program);
    let mut pipeline = match &ckpt {
        Some(ckpt) => {
            skip_offered(&mut source, ckpt.offered()).expect("skip the consumed records");
            builder.resume(ckpt).expect("resume")
        }
        None => builder.build(),
    };
    let mut outcomes = crashed.take();
    outcomes.truncate(sealed);
    let mut checkpointer = Checkpointer::new(dir, case.every).expect("checkpointer");
    pipeline.run_checkpointed(&mut source, &mut checkpointer).expect("resumed run");
    let report = pipeline.finish().expect("resumed finish");
    outcomes.extend(resumed.take());
    (Output { outcomes, report, jsonl: read_chain(&out) }, durable)
}

/// The image on disk in `dir`, if there is one, loaded with its log.
fn durable_image(dir: &Path) -> Option<Checkpoint> {
    let path = dir.join(CHECKPOINT_FILE);
    path.exists().then(|| Checkpoint::load(&path).expect("the durable image loads"))
}

/// A checkpoint as its self-contained image, the form
/// `Pipeline::checkpoint` writes.
fn ckpt_bytes(ckpt: &Checkpoint) -> Vec<u8> {
    let mut bytes = Vec::new();
    ckpt.write_to(&mut bytes).expect("write to a Vec");
    bytes
}

/// Every interval, the key table and the accounting, against the model.
fn assert_is_model(want: &model::Run, config: &Config, got: &Output, context: &str) {
    assert_eq!(got.outcomes.len(), want.outcomes.len(), "{context}: intervals");
    assert_eq!(got.report.intervals, want.outcomes.len(), "{context}: intervals sealed");
    for (n, (got, want)) in got.outcomes.iter().zip(&want.outcomes).enumerate() {
        let o = &got.outcome;
        assert_eq!(o.interval, n, "{context}: interval index");
        let start = config.start_unix + n as u64 * config.interval_secs;
        assert_eq!(got.interval_start_unix, start, "{context}: start of interval {n}");
        assert_eq!(o.elephants, want.elephants, "{context}: elephants at {n}");
        for (what, g, w) in [
            ("threshold", o.threshold, want.threshold),
            ("elephant load", o.elephant_load, want.elephant_load),
            ("total load", o.total_load, want.total_load),
        ] {
            assert_eq!(g.to_bits(), w.to_bits(), "{context}: {what} at {n}: {g} against {w}");
        }
    }
    assert_eq!(got.report.keys, want.keys, "{context}: key table");
    assert_eq!(got.report.distinct_keys, want.keys.len(), "{context}: distinct keys");
    let r = &got.report;
    let generation = (r.generation, r.route_updates_applied);
    assert_eq!(generation, (want.generation, want.generation), "{context}: batches applied");
    let s = got.report.stats;
    let stats = model::Stats {
        offered: s.offered,
        attributed: s.attributed,
        attributed_bytes: s.attributed_bytes,
        unroutable: s.unroutable,
        out_of_window: s.out_of_window,
        malformed: s.malformed,
        late: s.late,
    };
    assert_eq!(stats, want.stats, "{context}: accounting");
}
