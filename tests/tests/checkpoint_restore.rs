//! Checkpoint images on disk: a run killed at any crash point — after a
//! seal's classifier update, after its sink emission, or halfway through
//! writing the checkpoint itself — and resumed from its last image equals
//! the uninterrupted run (same JSONL bytes, thresholds and loads to the
//! bit, same accounting); what resume refuses; when images are written;
//! and the bytes they hold. The model test (`tests/tests/model.rs`) holds
//! the same property for every row and shard count.

use std::fs;
use std::net::Ipv4Addr;
use std::path::Path;

use eleph_bgp::synth::{self, SynthConfig};
use eleph_bgp::{BgpTable, LiveBgpTable, RouteEntry, RouteUpdate, UpdateBatch};
use eleph_core::{ConstantLoadDetector, Scheme};
use eleph_net::Prefix;
use eleph_packet::pcap::PcapWriter;
use eleph_packet::{IpProtocol, LinkType, PacketBuilder, PacketMeta};
use eleph_pipeline::{
    crc32, skip_offered, Checkpoint, CheckpointError, Checkpointer, CollectedInterval, Collector,
    PcapSource, PipelineBuilder, PipelineError, PipelineReport, RotatingJsonlSink,
    CHECKPOINT_FILE,
};
use eleph_tests::{capture_of, dir_files, read_chain, scratch, small_link, Files, OneChunkPerRun};
use eleph_trace::{CrashPoint, CrashSwitch};
use proptest::prelude::*;

const BETA: f64 = 0.8;
const GAMMA: f64 = 0.9;

/// The shared small link over `n_intervals` intervals as capture bytes,
/// with its table and window: T, the start and the interval count.
fn capture(seed: u64, n_intervals: usize) -> (BgpTable, Vec<u8>, u64, u64, usize) {
    let (table, trace) = small_link(seed, 120, n_intervals);
    let config = &trace.config;
    let (t, start) = (config.interval_secs, config.start_unix);
    (table, capture_of(&trace), t, start, n_intervals)
}

fn builder<'t>(
    table: &'t BgpTable,
    scheme: Scheme,
    interval_secs: u64,
    start_unix: u64,
    n: usize,
) -> PipelineBuilder<'t, ConstantLoadDetector> {
    configured(PipelineBuilder::new().table(table), scheme, interval_secs, start_unix, n)
}

/// `base`, which holds the table, with the window, detector, γ and
/// scheme of these tests.
fn configured<'t>(
    base: PipelineBuilder<'t, ConstantLoadDetector>,
    scheme: Scheme,
    interval_secs: u64,
    start_unix: u64,
    n: usize,
) -> PipelineBuilder<'t, ConstantLoadDetector> {
    base.interval_secs(interval_secs)
        .start_unix(start_unix)
        .n_intervals(n)
        .detector(ConstantLoadDetector::new(BETA))
        .gamma(GAMMA)
        .scheme(scheme)
}

/// Every interval of the uninterrupted run, plus its report and JSONL
/// chain — the oracle every kill/resume combination must reproduce.
fn reference(
    table: &BgpTable,
    pcap: &[u8],
    scheme: Scheme,
    t: u64,
    start: u64,
    n: usize,
    dir: &Path,
    rotate: Option<u64>,
) -> (Vec<CollectedInterval>, PipelineReport, Vec<u8>) {
    let out = dir.join("ref.jsonl");
    let collector = Collector::new();
    let mut pipeline = builder(table, scheme, t, start, n)
        .sink(collector.sink())
        .sink(RotatingJsonlSink::create(&out, rotate).expect("ref sink"))
        .build();
    pipeline
        .run(PcapSource::new(pcap).expect("valid pcap"))
        .expect("reference run");
    let report = pipeline.finish().expect("reference finish");
    (collector.take(), report, read_chain(&out))
}

fn assert_outcomes_identical(
    got: &[CollectedInterval],
    want: &[CollectedInterval],
    context: &str,
) {
    assert_eq!(got.len(), want.len(), "{context}: interval count");
    for (g, w) in got.iter().zip(want) {
        let n = w.outcome.interval;
        assert_eq!(g.outcome.interval, n, "{context}: interval index");
        assert_eq!(g.outcome.elephants, w.outcome.elephants, "{context}: elephants at {n}");
        assert_eq!(
            g.outcome.threshold.to_bits(),
            w.outcome.threshold.to_bits(),
            "{context}: threshold at {n}"
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
}

/// Kill a checkpointed run at (`point`, `at_seal`), resume from
/// whatever the crash left on disk, and return the stitched outcome
/// sequence, the resumed run's final report, and the JSONL chain.
///
/// Mirrors exactly what `eleph run --resume` does: load the snapshot
/// (fresh start when the kill landed before the first checkpoint),
/// truncate the durable output chain to the checkpointed interval
/// count, rebuild the pipeline from the snapshot, replay the source
/// past the consumed records, and keep going.
fn crash_and_resume(
    table: &BgpTable,
    pcap: &[u8],
    scheme: Scheme,
    t: u64,
    start: u64,
    n: usize,
    dir: &Path,
    rotate: Option<u64>,
    point: CrashPoint,
    at_seal: usize,
) -> (Vec<CollectedInterval>, PipelineReport, Vec<u8>) {
    let out = dir.join("out.jsonl");
    let context = format!("{scheme:?} {point:?} at seal {at_seal}");

    // Phase 1: run until the injected kill.
    let crashed = Collector::new();
    let mut checkpointer = Checkpointer::new(dir, 1).expect("checkpointer");
    let mut pipeline = builder(table, scheme, t, start, n)
        .sink(crashed.sink())
        .sink(RotatingJsonlSink::create(&out, rotate).expect("sink"))
        .crash_switch(CrashSwitch::new(point, at_seal))
        .build();
    let run = pipeline.run_checkpointed(
        &mut PcapSource::new(pcap).expect("valid pcap"),
        &mut checkpointer,
    );
    match run {
        Err(PipelineError::Crash(p)) => {
            assert_eq!(p, point, "{context}: crash point");
            drop(pipeline); // the "process" dies: buffers gone, files stay
        }
        // The capture may end before `at_seal` seals mid-run: trailing
        // intervals seal in `finish`, so the kill lands there instead —
        // and a mid-checkpoint-write kill before the first write never
        // fires at all, in which case the run simply completes.
        Ok(()) => match pipeline.finish() {
            Ok(report) => return (crashed.take(), report, read_chain(&out)),
            Err(PipelineError::Crash(p)) => assert_eq!(p, point, "{context}: finish crash"),
            Err(e) => panic!("{context}: unexpected finish error {e}"),
        },
        Err(e) => panic!("{context}: unexpected error {e}"),
    }

    // Phase 2: resume from whatever survived on disk.
    let ckpt_path = dir.join(CHECKPOINT_FILE);
    let resumed = Collector::new();
    let mut checkpointer = Checkpointer::new(dir, 1).expect("checkpointer");
    let (mut outcomes, report) = if ckpt_path.exists() {
        let ckpt = Checkpoint::load(&ckpt_path).expect("load checkpoint");
        let sealed = ckpt.intervals_sealed();
        let sink = RotatingJsonlSink::resume(&out, rotate, sealed as u64)
            .expect("truncate output chain");
        let mut pipeline = builder(table, scheme, t, start, n)
            .sink(resumed.sink())
            .sink(sink)
            .resume(&ckpt)
            .expect("resume from checkpoint");
        let mut source = PcapSource::new(pcap).expect("valid pcap");
        skip_offered(&mut source, ckpt.offered()).expect("skip consumed records");
        pipeline
            .run_checkpointed(&mut source, &mut checkpointer)
            .expect("resumed run");
        let report = pipeline.finish().expect("resumed finish");
        // Stitch: the crashed process's outcomes up to the snapshot,
        // then everything the resumed process sealed (the durable JSONL
        // chain went through the same cut via the sink truncation).
        let mut outcomes = crashed.take();
        outcomes.truncate(sealed);
        (outcomes, report)
    } else {
        // The kill landed before the first checkpoint: nothing durable
        // yet, so resume degrades to a fresh start (what `eleph run
        // --resume` does too).
        let sink = RotatingJsonlSink::create(&out, rotate).expect("fresh sink");
        let mut pipeline = builder(table, scheme, t, start, n)
            .sink(resumed.sink())
            .sink(sink)
            .build();
        pipeline
            .run_checkpointed(&mut PcapSource::new(pcap).expect("valid pcap"), &mut checkpointer)
            .expect("fresh restart");
        let report = pipeline.finish().expect("fresh finish");
        (Vec::new(), report)
    };
    outcomes.extend(resumed.take());
    (outcomes, report, read_chain(&out))
}

/// The crash-point matrix: every [`CrashPoint`] × every seal index ×
/// every scheme. Latent heat with a 2-slot window crosses latent-heat
/// retirement mid-run and hysteresis crosses membership transitions, so
/// kills land on both sides of every path-dependent state update.
#[test]
fn kill_and_resume_is_bit_identical_at_every_crash_point() {
    let (table, pcap, t, start, n) = capture(401, 6);
    for scheme in [
        Scheme::SingleFeature,
        Scheme::LatentHeat { window: 2 },
        Scheme::Hysteresis { enter: 1.2, exit: 0.6 },
    ] {
        let dir = scratch("matrix");
        let (ref_outcomes, ref_report, ref_chain) =
            reference(&table, &pcap, scheme, t, start, n, &dir, Some(256));
        assert_eq!(ref_outcomes.len(), n);
        for point in CrashPoint::ALL {
            for at_seal in 0..n - 1 {
                let context = format!("{scheme:?} {point:?} at seal {at_seal}");
                let dir = scratch("matrix-run");
                let (outcomes, report, chain) = crash_and_resume(
                    &table, &pcap, scheme, t, start, n, &dir, Some(256), point, at_seal,
                );
                assert_outcomes_identical(&outcomes, &ref_outcomes, &context);
                assert_eq!(
                    chain,
                    ref_chain,
                    "{context}: JSONL chain differs from the uninterrupted run"
                );
                assert_eq!(report.intervals, ref_report.intervals, "{context}: intervals");
                assert_eq!(report.stats, ref_report.stats, "{context}: stats");
                assert_eq!(report.keys, ref_report.keys, "{context}: key order");
                assert_eq!(
                    report.far_future_streak, ref_report.far_future_streak,
                    "{context}: far-future streak"
                );
                fs::remove_dir_all(&dir).ok();
            }
        }
        fs::remove_dir_all(&dir).ok();
    }
}

/// Corrupted and truncated checkpoint files must be rejected with the
/// typed error naming what failed — never deserialized into a pipeline.
#[test]
fn corrupted_checkpoint_files_are_rejected_on_disk() {
    let (table, pcap, t, start, n) = capture(402, 6);
    let scheme = Scheme::LatentHeat { window: 2 };
    let dir = scratch("corrupt");
    let mut checkpointer = Checkpointer::new(&dir, 1).expect("checkpointer");
    let mut pipeline = builder(&table, scheme, t, start, n).build();
    pipeline
        .run_checkpointed(&mut PcapSource::new(&pcap[..]).expect("valid pcap"), &mut checkpointer)
        .expect("run");
    pipeline.finish().expect("finish");
    let ckpt_path = dir.join(CHECKPOINT_FILE);
    let good = fs::read(&ckpt_path).expect("checkpoint bytes");
    assert!(Checkpoint::load(&ckpt_path).is_ok(), "pristine file loads");

    // One flipped payload byte: the CRC catches it.
    let mut bad = good.clone();
    let at = good.len() - 7;
    bad[at] ^= 0x10;
    let bad_path = dir.join("flipped.ckpt");
    fs::write(&bad_path, &bad).unwrap();
    match Checkpoint::load(&bad_path) {
        Err(CheckpointError::Checksum { expected, actual }) => {
            assert_ne!(expected, actual);
        }
        other => panic!("flipped byte must be a checksum error, got {other:?}"),
    }

    // A torn tail (the classic partial-write artifact): a format error.
    let cut_path = dir.join("torn.ckpt");
    fs::write(&cut_path, &good[..good.len() / 2]).unwrap();
    match Checkpoint::load(&cut_path) {
        Err(CheckpointError::Format(_)) => {}
        other => panic!("torn file must be a format error, got {other:?}"),
    }

    // A differently-configured pipeline must refuse the snapshot.
    let ckpt = Checkpoint::load(&ckpt_path).expect("good checkpoint");
    match builder(&table, scheme, t, start, n).gamma(0.5).resume(&ckpt) {
        Err(CheckpointError::Mismatch(what)) => {
            assert!(what.contains("gamma"), "mismatch names the field: {what}")
        }
        _ => panic!("gamma mismatch must be rejected"),
    }
    fs::remove_dir_all(&dir).ok();
}

/// A checkpoint taken from a live-table run records the table
/// generation; resuming against a table at any *other* generation —
/// a fresh live table nobody replayed, or a frozen table pinned at
/// generation 0 — must be refused with the typed mismatch naming the
/// field. Replaying the schedule to the recorded generation first
/// makes the same checkpoint acceptable again.
#[test]
fn resume_against_wrong_table_generation_is_a_typed_mismatch() {
    let (table, pcap, t, start, n) = capture(403, 6);
    let scheme = Scheme::LatentHeat { window: 2 };
    let victim = table.iter().next().expect("nonempty table").prefix;
    // One withdraw early in the capture: the run ends at generation 1.
    let schedule = vec![UpdateBatch {
        at_unix: start + t / 2,
        updates: vec![RouteUpdate::Withdraw(victim)],
    }];

    let on = |live| PipelineBuilder::new().live(live).route_updates(schedule.clone());
    let live = LiveBgpTable::from_table(&table);
    let mut pipeline = configured(on(&live), scheme, t, start, n).build();
    pipeline
        .run(PcapSource::new(&pcap[..]).expect("valid pcap"))
        .expect("checkpointed run");
    let mut bytes = Vec::new();
    pipeline.checkpoint(&mut bytes).expect("serialize checkpoint");
    let ckpt = Checkpoint::read_from(&mut &bytes[..]).expect("decode checkpoint");
    assert_eq!(ckpt.generation(), 1, "the withdraw batch was consumed");

    // A fresh live table still at generation 0 — the driver forgot to
    // replay the consumed batches — is refused.
    let stale = LiveBgpTable::from_table(&table);
    match configured(on(&stale), scheme, t, start, n).resume(&ckpt) {
        Err(CheckpointError::Mismatch(what)) => {
            assert!(what.contains("table generation"), "mismatch names the field: {what}")
        }
        _ => panic!("stale live table must be rejected"),
    }

    // A frozen table is forever at generation 0: it can never host a
    // checkpoint born from a live run that applied updates.
    match builder(&table, scheme, t, start, n).resume(&ckpt) {
        Err(CheckpointError::Mismatch(what)) => {
            assert!(what.contains("table generation"), "mismatch names the field: {what}")
        }
        _ => panic!("frozen table must be rejected"),
    }

    // Replayed to exactly the recorded generation, the checkpoint loads.
    let replayed = LiveBgpTable::from_table(&table);
    for batch in &schedule[..ckpt.generation() as usize] {
        replayed.apply(&batch.updates);
    }
    configured(on(&replayed), scheme, t, start, n)
        .resume(&ckpt)
        .expect("replayed table matches the recorded generation");
}

/// Every field of the fingerprint a checkpoint records is compared on
/// resume: a pipeline that differs from the checkpointed run in any one
/// of them — the window (T, its start, the interval count), the scheme,
/// the detector, the routing table's size or one key's prefix — is
/// refused with a `Mismatch` naming that field. (γ, the table generation
/// and the state backend are refused by name in the tests above and in
/// `sketch_equivalence`.)
#[test]
fn resume_refuses_every_fingerprint_field_by_name() {
    let (table, pcap, t, start, n) = capture(405, 6);
    let scheme = Scheme::LatentHeat { window: 2 };
    let mut pipeline = builder(&table, scheme, t, start, n).build();
    pipeline
        .run(PcapSource::new(&pcap[..]).expect("valid pcap"))
        .expect("run");
    let mut bytes = Vec::new();
    pipeline.checkpoint(&mut bytes).expect("serialize checkpoint");
    let ckpt = Checkpoint::read_from(&mut &bytes[..]).expect("decode checkpoint");
    builder(&table, scheme, t, start, n)
        .resume(&ckpt)
        .expect("the checkpointed configuration resumes");

    let routes: Vec<RouteEntry> = table.iter().cloned().collect();
    // One route more, past every other, so every key's route keeps its
    // id and its prefix: only the size differs.
    let last = Prefix::from_u32(u32::MAX, 32).expect("a /32");
    assert!(table.get(last).is_none());
    let grown = BgpTable::from_entries(
        routes.iter().cloned().chain([RouteEntry { prefix: last, ..routes[0].clone() }]),
    );
    // The same number of routes, one key's moved one bit longer: it
    // sorts where it did, so only that key's prefix differs.
    let (key, route, moved_to) = pipeline
        .keys()
        .iter()
        .enumerate()
        .find_map(|(key, &prefix)| {
            let longer = Prefix::from_u32(prefix.bits(), prefix.len() + 1).ok()?;
            let route = routes.iter().position(|r| r.prefix == prefix)?;
            table.get(longer).is_none().then_some((key, route, longer))
        })
        .expect("a key whose prefix can grow by a bit");
    let mut moved = routes;
    moved[route].prefix = moved_to;
    let moved = BgpTable::from_entries(moved);
    assert_eq!(moved.len(), table.len());

    let at = |table| builder(table, scheme, t, start, n);
    let key_prefix = format!("key {key} prefix");
    for (field, resuming) in [
        ("interval_secs", builder(&table, scheme, 2 * t, start, n)),
        ("start_unix", builder(&table, scheme, t, start + 1, n)),
        ("n_intervals", builder(&table, scheme, t, start, n + 1)),
        ("scheme", builder(&table, Scheme::SingleFeature, t, start, n)),
        ("detector", at(&table).detector(ConstantLoadDetector::new(0.7))),
        ("routing table size", at(&grown)),
        (key_prefix.as_str(), at(&moved)),
    ] {
        match resuming.resume(&ckpt) {
            Err(CheckpointError::Mismatch(what)) => {
                assert!(what.starts_with(field), "mismatch names {field}: {what}")
            }
            Err(other) => panic!("{field}: expected a mismatch, got {other}"),
            Ok(_) => panic!("{field}: a differing pipeline resumed"),
        }
    }
}

/// A resumed run continues the cadence of the run that wrote its
/// checkpoint: resumed at k sealed intervals with a cadence of n, it
/// writes nothing before k + n, and every image it writes from there on
/// is the uninterrupted run's at the same interval count — loaded and
/// re-encoded, byte for byte. (It used to rewrite the checkpoint it had
/// just loaded at the first chunk boundary — one chunk of packets later,
/// no interval sealed — and its cadence counted from there.) Resumed
/// from the directory as the uninterrupted run left it at an image, it
/// leaves every file of the uninterrupted run's directory after each of
/// its images, the log's name included; resumed from the same image
/// planted self-contained (version 2), it writes the same images.
#[test]
fn resumed_run_keeps_the_uninterrupted_cadence() {
    let (table, pcap, t, start, n) = capture(404, 12);
    let scheme = Scheme::LatentHeat { window: 2 };
    let every = 3;
    // Run in `dir`, from its checkpoint file if it holds one, one chunk
    // per `run_checkpointed`; every image written, in order, loaded and
    // re-encoded, with the directory's files after it.
    let images_of_run_in = |dir: &Path| -> Vec<(Vec<u8>, Files)> {
        let mut checkpointer = Checkpointer::new(dir, every).expect("checkpointer");
        let file = checkpointer.path().to_path_buf();
        let image = || Checkpoint::load(&file).map(|ckpt| ckpt_bytes(&ckpt)).unwrap_or_default();
        let mut last = image();
        let mut source = OneChunkPerRun::new(PcapSource::new(&pcap[..]).expect("valid pcap"));
        let builder = builder(&table, scheme, t, start, n);
        let mut pipeline = if last.is_empty() {
            builder.build()
        } else {
            let ckpt = Checkpoint::load(&file).expect("checkpoint");
            skip_offered(&mut source.inner, ckpt.offered()).expect("skip consumed records");
            builder.resume(&ckpt).expect("resume")
        };
        let mut images = Vec::new();
        while !source.done {
            pipeline
                .run_checkpointed(&mut source, &mut checkpointer)
                .expect("run");
            let now = image();
            if now != last {
                images.push((now.clone(), dir_files(dir)));
                last = now;
            }
        }
        pipeline.finish().expect("finish");
        assert_eq!(checkpointer.written().images, images.len() as u64);
        images
    };
    let sealed_at = |image: &(Vec<u8>, Files)| {
        Checkpoint::read_from(&mut &image.0[..])
            .expect("a written image loads")
            .intervals_sealed()
    };

    let dir = scratch("cadence-ref");
    let uninterrupted = images_of_run_in(&dir);
    let sealed: Vec<usize> = uninterrupted.iter().map(sealed_at).collect();
    assert_eq!(sealed, [3, 6, 9], "one image every {every} sealed intervals");
    for (i, (image, files)) in uninterrupted.iter().enumerate() {
        let names: Vec<&str> = files.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names.len(), 2, "the image and one log: {names:?}");
        let run_dir = scratch("cadence-run");
        for (name, bytes) in files {
            fs::write(run_dir.join(name), bytes).expect("plant the directory");
        }
        let resumed = images_of_run_in(&run_dir);
        assert!(
            resumed == uninterrupted[i + 1..],
            "resumed at {} sealed: images at {:?}, the uninterrupted run's are at {:?}",
            sealed[i],
            resumed.iter().map(sealed_at).collect::<Vec<_>>(),
            &sealed[i + 1..],
        );
        fs::remove_dir_all(&run_dir).ok();

        let run_dir = scratch("cadence-run-v2");
        fs::write(run_dir.join(CHECKPOINT_FILE), image).expect("plant a version-2 image");
        let resumed: Vec<Vec<u8>> =
            images_of_run_in(&run_dir).into_iter().map(|(image, _)| image).collect();
        let want: Vec<Vec<u8>> =
            uninterrupted[i + 1..].iter().map(|(image, _)| image.clone()).collect();
        assert!(resumed == want, "resumed at {} sealed from a version-2 image", sealed[i]);
        fs::remove_dir_all(&run_dir).ok();
    }
    fs::remove_dir_all(&dir).ok();
}

/// A checkpoint as its self-contained image: what `Checkpoint::load`
/// read, re-encoded through `write_to`.
fn ckpt_bytes(ckpt: &Checkpoint) -> Vec<u8> {
    let mut bytes = Vec::new();
    ckpt.write_to(&mut bytes).expect("write to a Vec");
    bytes
}

/// An image the writer thread cannot write fails the run with the typed
/// I/O error — no hang, no panic — and leaves the image before it on
/// disk, loadable. A directory planted where the temp file goes makes
/// the create fail, for root too. Planted before the first image (of
/// three, at 3, 6 and 9 sealed), the failure surfaces when the second
/// is handed over; planted before the last, nothing is handed over
/// after it, and the wait before the run returns is what surfaces it.
#[test]
fn a_failed_image_write_is_a_typed_error() {
    let (table, pcap, t, start, n) = capture(404, 12);
    let scheme = Scheme::LatentHeat { window: 2 };
    for landed in [0, 2] {
        let dir = scratch("failed-write");
        let mut checkpointer = Checkpointer::new(&dir, 3).expect("checkpointer");
        let mut pipeline = builder(&table, scheme, t, start, n).build();
        let mut source = OneChunkPerRun::new(PcapSource::new(&pcap[..]).expect("valid pcap"));
        while checkpointer.written().images < landed {
            assert!(!source.done, "the run wrote fewer than {landed} images");
            pipeline
                .run_checkpointed(&mut source, &mut checkpointer)
                .expect("run up to the planted directory");
        }
        let before = fs::read(checkpointer.path()).ok();
        assert_eq!(before.is_some(), landed > 0);
        fs::create_dir(dir.join(format!("{CHECKPOINT_FILE}.tmp"))).expect("plant a directory");
        match pipeline.run_checkpointed(&mut source.inner, &mut checkpointer) {
            Err(PipelineError::Checkpoint(CheckpointError::Io(_))) => {}
            other => panic!("{landed} images landed: expected a checkpoint I/O error, got {other:?}"),
        }
        assert_eq!(checkpointer.written().images, landed);
        match before {
            Some(image) => {
                assert_eq!(fs::read(checkpointer.path()).expect("previous image"), image);
                Checkpoint::load(checkpointer.path()).expect("the previous image loads");
            }
            None => assert!(!checkpointer.path().exists(), "no image was renamed into place"),
        }
        fs::remove_dir_all(&dir).ok();
    }
}

/// The final `eleph.ckpt` of a seeded `eleph run --synth`, per scheme
/// and state backend, loaded with its log and re-encoded as the
/// self-contained image, against the length and CRC-32 the same command
/// left behind before images were built in place (zlib's `crc32` of the
/// whole file) — a format drift shows here even if encoder and decoder
/// drift together.
#[test]
fn synthetic_run_checkpoints_equal_their_recorded_length_and_crc() {
    for (scheme, state, len, crc) in [
        ("single", "exact", 4_631, 0x07dd_cd30_u32),
        ("latent", "exact", 13_375, 0xd6bc_de6f),
        ("hysteresis", "exact", 4_659, 0x1fac_e290),
        ("latent", "spacesaving", 12_514, 0x86e6_024d),
        ("latent", "cmrow", 9_652, 0x452e_c589),
        ("latent", "bloom", 9_077, 0x7f22_dd05),
    ] {
        let dir = scratch("synth-fixture");
        let ckpt_dir = dir.join("ckpt");
        let args = format!(
            "--synth --flows 200 --intervals 14 --interval-secs 20 --prefixes 2000 --seed 19 \
             --scheme {scheme} --state {state} --state-budget 4096 \
             --checkpoint-dir {} --out {}",
            ckpt_dir.display(),
            dir.join("out.jsonl").display(),
        );
        let args: Vec<String> = args.split_whitespace().map(str::to_string).collect();
        eleph_report::cli::run_streaming(&args).expect("eleph run");
        let loaded = Checkpoint::load(ckpt_dir.join(CHECKPOINT_FILE)).expect("checkpoint file");
        let image = ckpt_bytes(&loaded);
        assert_eq!(
            (image.len(), crc32(&image)),
            (len, crc),
            "--scheme {scheme} --state {state}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

/// Checkpoints cost what changed, not what the run has seen: a steady
/// synthetic run of 2 400 one-second intervals at cadence 1, whose key
/// set keeps growing (two keys a second that were never seen before,
/// beside twenty recurring ones), cut into chunks that end on the first
/// packet of an interval. Once the window is full, every image puts on
/// disk — image and log append — at most 16 bytes per key in the
/// window's sums, one slot, 9 bytes per key assigned since the image
/// before, and 512 bytes of framing; and the directory never holds more
/// than twice the key table and window, as the log frames them, plus
/// the image.
#[test]
fn checkpoint_bytes_follow_what_changed() {
    const INTERVALS: u64 = 2_400;
    const WINDOW: usize = 12;
    const START: u64 = 1_000_000;
    let table = synth::generate(&SynthConfig { n_prefixes: 8_000, ..SynthConfig::default() });
    let dsts: Vec<Ipv4Addr> = table.iter().map(|e| e.prefix.network()).collect();
    assert!(dsts.len() >= 2_000 + 2 * INTERVALS as usize);
    let packet = |interval: u64, i: u64, dst: Ipv4Addr| PacketMeta {
        ts_ns: (START + interval) * 1_000_000_000 + i * 1_000_000,
        src: Ipv4Addr::new(198, 18, 0, 1),
        dst,
        proto: IpProtocol::Udp,
        src_port: 9,
        dst_port: 53,
        wire_len: 100 + 7 * i as u32,
    };
    // Interval k: twenty packets among 2 000 recurring routes, then two
    // to routes no interval before it reached.
    let intervals: Vec<Vec<PacketMeta>> = (0..INTERVALS)
        .map(|k| {
            let recurring = (0..20).map(|i| dsts[((k * 7 + i * 13) % 2_000) as usize]);
            let fresh = (0..2).map(|i| dsts[(2_000 + 2 * k + i) as usize]);
            recurring.chain(fresh).enumerate().map(|(i, dst)| packet(k, i as u64, dst)).collect()
        })
        .collect();
    let dir = scratch("bytes");
    let mut checkpointer = Checkpointer::new(&dir, 1).expect("checkpointer");
    let mut pipeline = PipelineBuilder::new()
        .table(&table)
        .interval_secs(1)
        .start_unix(START)
        .scheme(Scheme::LatentHeat { window: WINDOW })
        .build();
    assert!(!checkpointer.maybe_write(&mut pipeline).expect("cadence starts"));
    pipeline.observe_chunk(&intervals[0][..1]).expect("first packet");
    let mut keys_before = 0;
    for k in 0..INTERVALS as usize {
        // The rest of interval k and the first packet of k + 1, which
        // seals k: one image per chunk, its open row one packet.
        let mut chunk = intervals[k][1..].to_vec();
        chunk.extend(intervals.get(k + 1).map(|next| next[0]));
        pipeline.observe_chunk(&chunk).expect("observe");
        if k + 1 == INTERVALS as usize {
            break;
        }
        assert!(checkpointer.maybe_write(&mut pipeline).expect("image"), "interval {k}");
        checkpointer.flush().expect("image on disk");
        let sealed = pipeline.intervals_sealed();
        assert_eq!(sealed, k + 1);
        let written = checkpointer.written();
        let keys = pipeline.keys().len();
        let new_keys = keys - std::mem::replace(&mut keys_before, keys);
        // A slot holds at most a key per packet of its interval.
        let slot = |interval: usize| intervals[interval].len();
        if sealed > WINDOW {
            let bound = 16 * pipeline.tracked_keys() + (16 + 8 * slot(k)) + 9 * new_keys + 512;
            assert!(
                written.last_bytes as usize <= bound,
                "image at {sealed} sealed put {} bytes on disk, more than {bound}",
                written.last_bytes
            );
        }
        // The log's live part: its header, one key record, the window's
        // slot records (kind, length and CRC around interval, threshold
        // term and 8 bytes a key).
        let key_table = 12 + 21 + 9 * keys;
        let window: usize = (sealed.saturating_sub(WINDOW)..sealed).map(|i| 29 + 8 * slot(i)).sum();
        let image = fs::metadata(checkpointer.path()).expect("image").len() as usize;
        let on_disk: u64 = fs::read_dir(&dir)
            .expect("read dir")
            .map(|entry| entry.expect("entry").metadata().expect("metadata").len())
            .sum();
        assert!(
            on_disk as usize <= 2 * (key_table + window) + image,
            "{on_disk} bytes in the directory at {sealed} sealed: key table {key_table}, \
             window {window}, image {image}"
        );
    }
    assert!(checkpointer.written().compactions > 0, "the log was compacted");
    fs::remove_dir_all(&dir).ok();
}

/// A compact random packet (same generator as the streaming-equivalence
/// suite): route choice, interval, jitter, payload, routability.
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Checkpoint/restore round-trips after **every** interval of
    /// arbitrary captures — mixed prefixes, unroutable destinations,
    /// out-of-window records, malformed records, idle intervals — and
    /// the stitched run stays bit-identical under every scheme.
    #[test]
    fn resume_after_every_interval_is_bit_identical(
        packets in prop::collection::vec(arb_packet(5), 1..250),
        malformed_every in 5usize..40,
        window in 1usize..4,
        scheme_pick in 0u8..3,
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
        let n = 5;
        let dir = scratch("prop");
        let (ref_outcomes, ref_report, ref_chain) =
            reference(&table, &pcap, scheme, 20, 0, n, &dir, None);
        for at_seal in 0..n - 1 {
            let context = format!("proptest {scheme:?} at seal {at_seal}");
            let run_dir = scratch("prop-run");
            let (outcomes, report, chain) = crash_and_resume(
                &table, &pcap, scheme, 20, 0, n, &run_dir, None,
                CrashPoint::AfterSink, at_seal,
            );
            assert_outcomes_identical(&outcomes, &ref_outcomes, &context);
            prop_assert_eq!(&chain, &ref_chain, "{}: JSONL chain", context);
            prop_assert_eq!(report.stats, ref_report.stats, "{}: stats", context);
            prop_assert_eq!(
                report.far_future_streak, ref_report.far_future_streak,
                "{}: far-future streak", context
            );
            fs::remove_dir_all(&run_dir).ok();
        }
        fs::remove_dir_all(&dir).ok();
    }
}
