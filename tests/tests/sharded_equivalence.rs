//! The key-partitioned sharded online path is **bit-identical** to the
//! serial path on the same bytes —
//! same thresholds, same elephant sets, same loads (all compared by
//! `to_bits`), same JSONL output byte for byte, same accounting — for
//! every shard count, under every scheme, with routing churn applied
//! mid-stream, and across a kill/resume that changes the shard count.
//! This is what licenses deploying `--shards N` as a pure throughput
//! knob: the measurement is the same measurement.

use std::fs;
use std::net::Ipv4Addr;
use std::path::Path;

use eleph_bgp::synth::{self, SynthConfig};
use eleph_bgp::{BgpTable, LiveBgpTable, RouteUpdate, UpdateBatch};
use eleph_core::{ConstantLoadDetector, Scheme};
use eleph_packet::pcap::PcapWriter;
use eleph_packet::{LinkType, PacketBuilder};
use eleph_pipeline::{
    skip_offered, Checkpoint, Checkpointer, CollectedInterval, Collector, JsonlSink, PcapSource,
    PipelineBuilder, PipelineError, PipelineReport, RotatingJsonlSink, CHECKPOINT_FILE,
};
use eleph_tests::{capture_of, read_chain, scratch, small_link, SharedBuf};
use eleph_trace::{CrashPoint, CrashSwitch};
use proptest::prelude::*;

const BETA: f64 = 0.8;
const GAMMA: f64 = 0.9;

/// Every shard count the suite pins against serial: 1 (coordination
/// overhead only), powers of two, and a prime that leaves uneven
/// partitions.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// The shared small link as capture bytes, with its table and window:
/// T, the start and the interval count.
fn small_capture(seed: u64) -> (BgpTable, Vec<u8>, u64, u64, usize) {
    let (table, trace) = small_link(seed, 120, 6);
    let config = &trace.config;
    (table, capture_of(&trace), config.interval_secs, config.start_unix, config.n_intervals)
}

/// Run a frozen-table pipeline at `shards` (0 = serial) and return the
/// collected outcomes, final report, and raw JSONL bytes.
fn run_frozen(
    table: &BgpTable,
    pcap: &[u8],
    scheme: Scheme,
    t: u64,
    start: u64,
    n: usize,
    shards: usize,
) -> (Vec<CollectedInterval>, PipelineReport, Vec<u8>) {
    let collector = Collector::new();
    let jsonl = SharedBuf::default();
    let mut pipeline = PipelineBuilder::new()
        .table(table)
        .interval_secs(t)
        .start_unix(start)
        .n_intervals(n)
        .detector(ConstantLoadDetector::new(BETA))
        .gamma(GAMMA)
        .scheme(scheme)
        .shards(shards)
        .sink(collector.sink())
        .sink(JsonlSink::new(jsonl.clone()))
        .build();
    pipeline
        .run(PcapSource::new(pcap).expect("valid pcap"))
        .expect("run");
    let report = pipeline.finish().expect("finish");
    (collector.take(), report, jsonl.take())
}

/// Run a live-table pipeline with a churn schedule at `shards`
/// (0 = serial). Each run gets its own [`LiveBgpTable`] because the
/// pipeline advances the table's generation as it replays the schedule.
fn run_live(
    table: &BgpTable,
    schedule: &[UpdateBatch],
    pcap: &[u8],
    scheme: Scheme,
    t: u64,
    start: u64,
    n: usize,
    shards: usize,
) -> (Vec<CollectedInterval>, PipelineReport, Vec<u8>) {
    let live = LiveBgpTable::from_table(table);
    let collector = Collector::new();
    let jsonl = SharedBuf::default();
    let mut pipeline = PipelineBuilder::new()
        .live(&live)
        .interval_secs(t)
        .start_unix(start)
        .n_intervals(n)
        .detector(ConstantLoadDetector::new(BETA))
        .gamma(GAMMA)
        .scheme(scheme)
        .shards(shards)
        .route_updates(schedule.to_vec())
        .sink(collector.sink())
        .sink(JsonlSink::new(jsonl.clone()))
        .build();
    pipeline
        .run(PcapSource::new(pcap).expect("valid pcap"))
        .expect("live run");
    let report = pipeline.finish().expect("live finish");
    (collector.take(), report, jsonl.take())
}

/// The full bit-identity check between a sharded run and the serial
/// reference: per-interval outcomes by `to_bits`, JSONL byte for byte,
/// and the complete report (stats, key order, generation).
fn assert_sharded_equals_serial(
    got: &(Vec<CollectedInterval>, PipelineReport, Vec<u8>),
    want: &(Vec<CollectedInterval>, PipelineReport, Vec<u8>),
    context: &str,
) {
    let (outcomes, report, jsonl) = got;
    let (ref_outcomes, ref_report, ref_jsonl) = want;
    assert_eq!(outcomes.len(), ref_outcomes.len(), "{context}: interval count");
    for (g, w) in outcomes.iter().zip(ref_outcomes) {
        let n = w.outcome.interval;
        assert_eq!(g.outcome.interval, n, "{context}: interval index");
        assert_eq!(g.outcome.elephants, w.outcome.elephants, "{context}: elephants at {n}");
        assert_eq!(
            g.outcome.threshold.to_bits(),
            w.outcome.threshold.to_bits(),
            "{context}: threshold at {n} ({} vs {})",
            g.outcome.threshold,
            w.outcome.threshold,
        );
        assert_eq!(
            g.outcome.elephant_load.to_bits(),
            w.outcome.elephant_load.to_bits(),
            "{context}: elephant load at {n}"
        );
        assert_eq!(
            g.outcome.total_load.to_bits(),
            w.outcome.total_load.to_bits(),
            "{context}: total load at {n}"
        );
    }
    assert_eq!(jsonl, ref_jsonl, "{context}: JSONL bytes differ from serial");
    assert_eq!(report.intervals, ref_report.intervals, "{context}: intervals");
    assert_eq!(report.stats, ref_report.stats, "{context}: stats");
    assert_eq!(report.keys, ref_report.keys, "{context}: key order");
    assert_eq!(report.generation, ref_report.generation, "{context}: generation");
    assert_eq!(
        report.route_updates_applied, ref_report.route_updates_applied,
        "{context}: updates applied"
    );
}

/// Frozen-table matrix: every scheme × every shard count against the
/// serial run of the same capture bytes.
#[test]
fn sharded_matches_serial_for_every_scheme_and_shard_count() {
    let (table, pcap, t, start, n) = small_capture(801);
    for scheme in [
        Scheme::SingleFeature,
        Scheme::LatentHeat { window: 3 },
        Scheme::Hysteresis { enter: 1.2, exit: 0.6 },
    ] {
        let serial = run_frozen(&table, &pcap, scheme, t, start, n, 0);
        assert!(!serial.2.is_empty(), "{scheme:?}: serial JSONL nonempty");
        for shards in SHARD_COUNTS {
            let sharded = run_frozen(&table, &pcap, scheme, t, start, n, shards);
            assert_sharded_equals_serial(
                &sharded,
                &serial,
                &format!("{scheme:?} shards={shards}"),
            );
        }
    }
}

/// Routing churn interleaved mid-stream (`--rib-updates` semantics):
/// withdraws and re-announces land between intervals, minting fresh
/// keys while old keys retire through the classifier window. The
/// sharded path must replay the schedule at the identical stream
/// positions and classify the re-keyed traffic bit-identically.
#[test]
fn sharded_matches_serial_under_mid_stream_churn() {
    let (table, pcap, t, start, n) = small_capture(802);
    // Withdraw a handful of live prefixes mid-interval-1, re-announce
    // them (fresh RouteIds, hence fresh KeyIds) mid-interval-3.
    let victims: Vec<_> = table.iter().step_by(97).take(6).cloned().collect();
    let schedule = vec![
        UpdateBatch {
            at_unix: start + t + t / 2,
            updates: victims.iter().map(|e| RouteUpdate::Withdraw(e.prefix)).collect(),
        },
        UpdateBatch {
            at_unix: start + 3 * t + t / 2,
            updates: victims.iter().map(|e| RouteUpdate::Announce(e.clone())).collect(),
        },
    ];
    for scheme in [Scheme::SingleFeature, Scheme::LatentHeat { window: 2 }] {
        let serial = run_live(&table, &schedule, &pcap, scheme, t, start, n, 0);
        assert_eq!(serial.1.generation, 2, "{scheme:?}: both batches consumed");
        assert_eq!(serial.1.route_updates_applied, 2, "{scheme:?}: both applied");
        for shards in SHARD_COUNTS {
            let sharded = run_live(&table, &schedule, &pcap, scheme, t, start, n, shards);
            assert_sharded_equals_serial(
                &sharded,
                &serial,
                &format!("churn {scheme:?} shards={shards}"),
            );
        }
    }
}

fn frozen_builder<'t>(
    table: &'t BgpTable,
    scheme: Scheme,
    t: u64,
    start: u64,
    n: usize,
    shards: usize,
) -> PipelineBuilder<'t, ConstantLoadDetector> {
    PipelineBuilder::new()
        .table(table)
        .interval_secs(t)
        .start_unix(start)
        .n_intervals(n)
        .detector(ConstantLoadDetector::new(BETA))
        .gamma(GAMMA)
        .scheme(scheme)
        .shards(shards)
}

/// Kill a sharded checkpointed run right after a seal's sink emission
/// (a chunk boundary — the checkpointer snapshots there), then resume
/// the surviving snapshot under a *different* shard count. The stitched
/// outcome sequence and the durable JSONL chain must equal the
/// uninterrupted serial run: the recovery frontier is shard-agnostic.
fn crash_sharded_resume_as(
    table: &BgpTable,
    pcap: &[u8],
    scheme: Scheme,
    t: u64,
    start: u64,
    n: usize,
    dir: &Path,
    crash_shards: usize,
    resume_shards: usize,
    at_seal: usize,
) -> (Vec<CollectedInterval>, PipelineReport, Vec<u8>) {
    let out = dir.join("out.jsonl");
    let context = format!("shards {crash_shards}→{resume_shards} at seal {at_seal}");

    // Phase 1: run sharded until the injected kill.
    let crashed = Collector::new();
    let mut checkpointer = Checkpointer::new(dir, 1).expect("checkpointer");
    let mut pipeline = frozen_builder(table, scheme, t, start, n, crash_shards)
        .sink(crashed.sink())
        .sink(RotatingJsonlSink::create(&out, None).expect("sink"))
        .crash_switch(CrashSwitch::new(CrashPoint::AfterSink, at_seal))
        .build();
    let run = pipeline.run_checkpointed(
        &mut PcapSource::new(pcap).expect("valid pcap"),
        &mut checkpointer,
    );
    match run {
        Err(PipelineError::Crash(p)) => {
            assert_eq!(p, CrashPoint::AfterSink, "{context}: crash point");
            drop(pipeline); // the "process" dies: buffers gone, files stay
        }
        // Sparse captures may push the kill into finish(), or past the
        // end entirely — both are legitimate outcomes of the switch.
        Ok(()) => match pipeline.finish() {
            Ok(report) => return (crashed.take(), report, read_chain(&out)),
            Err(PipelineError::Crash(p)) => {
                assert_eq!(p, CrashPoint::AfterSink, "{context}: finish crash")
            }
            Err(e) => panic!("{context}: unexpected finish error {e}"),
        },
        Err(e) => panic!("{context}: unexpected error {e}"),
    }

    // Phase 2: resume the snapshot under a different shard count.
    let ckpt_path = dir.join(CHECKPOINT_FILE);
    let resumed = Collector::new();
    let mut checkpointer = Checkpointer::new(dir, 1).expect("checkpointer");
    let (mut outcomes, report) = if ckpt_path.exists() {
        let ckpt = Checkpoint::load(&ckpt_path).expect("load checkpoint");
        let sealed = ckpt.intervals_sealed();
        let sink =
            RotatingJsonlSink::resume(&out, None, sealed as u64).expect("truncate output chain");
        let mut pipeline = frozen_builder(table, scheme, t, start, n, resume_shards)
            .sink(resumed.sink())
            .sink(sink)
            .resume(&ckpt)
            .expect("resume under a different shard count");
        let mut source = PcapSource::new(pcap).expect("valid pcap");
        skip_offered(&mut source, ckpt.offered()).expect("skip consumed records");
        pipeline
            .run_checkpointed(&mut source, &mut checkpointer)
            .expect("resumed run");
        let report = pipeline.finish().expect("resumed finish");
        let mut outcomes = crashed.take();
        outcomes.truncate(sealed);
        (outcomes, report)
    } else {
        // The kill landed before the first checkpoint: nothing durable
        // yet, so resume degrades to a fresh start — still under the
        // new shard count.
        let sink = RotatingJsonlSink::create(&out, None).expect("fresh sink");
        let mut pipeline = frozen_builder(table, scheme, t, start, n, resume_shards)
            .sink(resumed.sink())
            .sink(sink)
            .build();
        pipeline
            .run_checkpointed(
                &mut PcapSource::new(pcap).expect("valid pcap"),
                &mut checkpointer,
            )
            .expect("fresh restart");
        let report = pipeline.finish().expect("fresh finish");
        (Vec::new(), report)
    };
    outcomes.extend(resumed.take());
    (outcomes, report, read_chain(&out))
}

/// The shard-count-changing kill/resume matrix: crash under 4 shards,
/// resume serial / single-shard / 7-shard (and the reverse direction),
/// at every seal index. Every combination reproduces the uninterrupted
/// serial run exactly.
#[test]
fn kill_and_resume_across_shard_counts_is_bit_identical() {
    let (table, pcap, t, start, n) = small_capture(803);
    let scheme = Scheme::LatentHeat { window: 2 };
    let dir = scratch("reference");
    let reference = {
        let out = dir.join("ref.jsonl");
        let collector = Collector::new();
        let mut pipeline = frozen_builder(&table, scheme, t, start, n, 0)
            .sink(collector.sink())
            .sink(RotatingJsonlSink::create(&out, None).expect("ref sink"))
            .build();
        pipeline
            .run(PcapSource::new(&pcap[..]).expect("valid pcap"))
            .expect("reference run");
        let report = pipeline.finish().expect("reference finish");
        (collector.take(), report, read_chain(&out))
    };
    for (crash_shards, resume_shards) in [(4, 0), (4, 1), (4, 7), (2, 4), (0, 4)] {
        for at_seal in [0, 2, n - 2] {
            let run_dir = scratch("crossover");
            let got = crash_sharded_resume_as(
                &table, &pcap, scheme, t, start, n, &run_dir, crash_shards, resume_shards,
                at_seal,
            );
            assert_sharded_equals_serial(
                &got,
                &reference,
                &format!("kill/resume shards {crash_shards}→{resume_shards} at seal {at_seal}"),
            );
            fs::remove_dir_all(&run_dir).ok();
        }
    }
    fs::remove_dir_all(&dir).ok();
}

/// A compact random packet (same generator as the sibling suites):
/// route choice, interval, jitter, payload, routability.
#[derive(Debug, Clone, Copy)]
struct RandomPacket {
    route: usize,
    interval: u64,
    offset_ns: u64,
    payload: u16,
    unroutable: bool,
}

fn arb_packet(n_intervals: u64) -> impl Strategy<Value = RandomPacket> {
    (
        0usize..400,
        0..n_intervals + 2, // some past the window
        0u64..20_000_000_000,
        0u16..1200,
        0u8..20, // 1-in-20 packets unroutable
    )
        .prop_map(|(route, interval, offset_ns, payload, unroutable)| RandomPacket {
            route,
            interval,
            offset_ns,
            payload,
            unroutable: unroutable == 0,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline property: arbitrary time-sorted captures — mixed
    /// prefixes, unroutable destinations, out-of-window records,
    /// malformed records, idle intervals — classify bit-identically
    /// serial vs sharded at every shard count and scheme, with routing
    /// churn replayed mid-stream, and across a kill/resume at a chunk
    /// boundary that changes the shard count.
    #[test]
    fn sharded_equals_serial_on_random_captures(
        packets in prop::collection::vec(arb_packet(5), 1..250),
        malformed_every in 5usize..40,
        window in 1usize..4,
        scheme_pick in 0u8..3,
        churn_stride in 13usize..60,
    ) {
        let table = synth::generate(&SynthConfig {
            n_prefixes: 400,
            ..SynthConfig::default()
        });
        let dsts: Vec<Ipv4Addr> = table.iter().map(|e| e.prefix.network()).collect();

        // Time-sort (the streaming contract) and serialize.
        let mut packets = packets;
        packets.sort_by_key(|p| p.interval * 20_000_000_000 + p.offset_ns);
        let mut pcap = Vec::new();
        let mut writer = PcapWriter::new(&mut pcap, LinkType::RawIp.code()).unwrap();
        for (i, p) in packets.iter().enumerate() {
            let ts_ns = p.interval * 20_000_000_000 + p.offset_ns;
            let dst = if p.unroutable {
                Ipv4Addr::new(203, 0, 113, 1) // TEST-NET-3: never in the table
            } else {
                dsts[p.route % dsts.len()]
            };
            let packet = PacketBuilder::udp()
                .src(Ipv4Addr::new(198, 18, 0, 1), 9)
                .dst(dst, 53)
                .payload_len(p.payload as usize)
                .build_ipv4();
            writer.write_record(ts_ns, packet.len() as u32, &packet).unwrap();
            if i % malformed_every == 0 {
                writer.write_record(ts_ns, 3, &[0xBA, 0xAD, 0x00]).unwrap();
            }
        }
        writer.finish().unwrap();

        let scheme = match scheme_pick {
            0 => Scheme::SingleFeature,
            1 => Scheme::LatentHeat { window },
            _ => Scheme::Hysteresis { enter: 1.2, exit: 0.6 },
        };
        let (t, start, n) = (20u64, 0u64, 5usize);

        // Frozen table: every shard count against serial.
        let serial = run_frozen(&table, &pcap, scheme, t, start, n, 0);
        for shards in SHARD_COUNTS {
            let sharded = run_frozen(&table, &pcap, scheme, t, start, n, shards);
            assert_sharded_equals_serial(
                &sharded,
                &serial,
                &format!("random {scheme:?} shards={shards}"),
            );
        }

        // Mid-stream churn: withdraw a stride of prefixes during
        // interval 1, re-announce them during interval 3.
        let victims: Vec<_> = table.iter().step_by(churn_stride).take(5).cloned().collect();
        let schedule = vec![
            UpdateBatch {
                at_unix: start + t + 7,
                updates: victims.iter().map(|e| RouteUpdate::Withdraw(e.prefix)).collect(),
            },
            UpdateBatch {
                at_unix: start + 3 * t + 7,
                updates: victims.iter().map(|e| RouteUpdate::Announce(e.clone())).collect(),
            },
        ];
        let serial_live = run_live(&table, &schedule, &pcap, scheme, t, start, n, 0);
        for shards in SHARD_COUNTS {
            let sharded = run_live(&table, &schedule, &pcap, scheme, t, start, n, shards);
            assert_sharded_equals_serial(
                &sharded,
                &serial_live,
                &format!("random churn {scheme:?} shards={shards}"),
            );
        }

        // Kill at a chunk boundary under 4 shards, resume under 7.
        let run_dir = scratch("prop");
        let got = crash_sharded_resume_as(
            &table, &pcap, scheme, t, start, n, &run_dir, 4, 7, 1,
        );
        assert_sharded_equals_serial(
            &got,
            &serial,
            &format!("random kill/resume {scheme:?} shards 4→7"),
        );
        fs::remove_dir_all(&run_dir).ok();
    }
}
