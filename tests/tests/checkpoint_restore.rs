//! Checkpoint images on disk: what resume refuses, when images are
//! written, and the bytes they hold. That a run killed at any crash
//! point — after a seal's classifier update, after its sink emission, or
//! halfway through writing the checkpoint itself — and resumed from its
//! last image equals the uninterrupted run is the model test's
//! (`tests/tests/model.rs`), for every row and shard count.

use std::fs;
use std::net::Ipv4Addr;
use std::path::Path;

use eleph_bgp::synth::{self, SynthConfig};
use eleph_bgp::{BgpTable, FrozenBgpTable, LiveBgpTable, RouteEntry, RouteUpdate, UpdateBatch};
use eleph_core::{ConstantLoadDetector, Scheme};
use eleph_net::Prefix;
use eleph_packet::{IpProtocol, PacketMeta};
use eleph_pipeline::{
    crc32, skip_offered, Checkpoint, CheckpointError, Checkpointer, PcapSource, PipelineBuilder,
    PipelineError, CHECKPOINT_FILE,
};
use eleph_tests::{capture_of, dir_files, scratch, small_link, Files, OneChunkPerRun};

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
    table: &'t FrozenBgpTable,
    scheme: Scheme,
    interval_secs: u64,
    start_unix: u64,
    n: usize,
) -> PipelineBuilder<'t, ConstantLoadDetector> {
    configured(
        PipelineBuilder::new().frozen(table),
        scheme,
        interval_secs,
        start_unix,
        n,
    )
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

/// Corrupted and truncated checkpoint files must be rejected with the
/// typed error naming what failed — never deserialized into a pipeline.
#[test]
fn corrupted_checkpoint_files_are_rejected_on_disk() {
    let (table, pcap, t, start, n) = capture(402, 6);
    let frozen = table.freeze();
    let scheme = Scheme::LatentHeat { window: 2 };
    let dir = scratch("corrupt");
    let mut checkpointer = Checkpointer::new(&dir, 1).expect("checkpointer");
    let mut pipeline = builder(&frozen, scheme, t, start, n).build();
    pipeline
        .run_checkpointed(
            &mut PcapSource::new(&pcap[..]).expect("valid pcap"),
            &mut checkpointer,
        )
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
    match builder(&frozen, scheme, t, start, n)
        .gamma(0.5)
        .resume(&ckpt)
    {
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
    let frozen = table.freeze();
    let scheme = Scheme::LatentHeat { window: 2 };
    let victim = table.iter().next().expect("nonempty table").prefix;
    // One withdraw early in the capture: the run ends at generation 1.
    let schedule = vec![UpdateBatch {
        at_unix: start + t / 2,
        updates: vec![RouteUpdate::Withdraw(victim)],
    }];

    let on = |live| {
        PipelineBuilder::new()
            .live(live)
            .route_updates(schedule.clone())
    };
    let live = LiveBgpTable::from_table(&table);
    let mut pipeline = configured(on(&live), scheme, t, start, n).build();
    pipeline
        .run(PcapSource::new(&pcap[..]).expect("valid pcap"))
        .expect("checkpointed run");
    let mut bytes = Vec::new();
    pipeline
        .checkpoint(&mut bytes)
        .expect("serialize checkpoint");
    let ckpt = Checkpoint::read_from(&mut &bytes[..]).expect("decode checkpoint");
    assert_eq!(ckpt.generation(), 1, "the withdraw batch was consumed");

    // A fresh live table still at generation 0 — the driver forgot to
    // replay the consumed batches — is refused.
    let stale = LiveBgpTable::from_table(&table);
    match configured(on(&stale), scheme, t, start, n).resume(&ckpt) {
        Err(CheckpointError::Mismatch(what)) => {
            assert!(
                what.contains("table generation"),
                "mismatch names the field: {what}"
            )
        }
        _ => panic!("stale live table must be rejected"),
    }

    // A frozen table is forever at generation 0: it can never host a
    // checkpoint born from a live run that applied updates.
    match builder(&frozen, scheme, t, start, n).resume(&ckpt) {
        Err(CheckpointError::Mismatch(what)) => {
            assert!(
                what.contains("table generation"),
                "mismatch names the field: {what}"
            )
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
    let frozen = table.freeze();
    let scheme = Scheme::LatentHeat { window: 2 };
    let mut pipeline = builder(&frozen, scheme, t, start, n).build();
    pipeline
        .run(PcapSource::new(&pcap[..]).expect("valid pcap"))
        .expect("run");
    let mut bytes = Vec::new();
    pipeline
        .checkpoint(&mut bytes)
        .expect("serialize checkpoint");
    let ckpt = Checkpoint::read_from(&mut &bytes[..]).expect("decode checkpoint");
    builder(&frozen, scheme, t, start, n)
        .resume(&ckpt)
        .expect("the checkpointed configuration resumes");

    let routes: Vec<RouteEntry> = table.iter().cloned().collect();
    // One route more, past every other, so every key's route keeps its
    // id and its prefix: only the size differs.
    let last = Prefix::from_u32(u32::MAX, 32).expect("a /32");
    assert!(table.get(last).is_none());
    let grown = BgpTable::from_entries(routes.iter().cloned().chain([RouteEntry {
        prefix: last,
        ..routes[0].clone()
    }]))
    .freeze();
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
    let moved = BgpTable::from_entries(moved).freeze();
    assert_eq!(moved.len(), table.len());

    let at = |table| builder(table, scheme, t, start, n);
    let key_prefix = format!("key {key} prefix");
    for (field, resuming) in [
        ("interval_secs", builder(&frozen, scheme, 2 * t, start, n)),
        ("start_unix", builder(&frozen, scheme, t, start + 1, n)),
        ("n_intervals", builder(&frozen, scheme, t, start, n + 1)),
        (
            "scheme",
            builder(&frozen, Scheme::SingleFeature, t, start, n),
        ),
        (
            "detector",
            at(&frozen).detector(ConstantLoadDetector::new(0.7)),
        ),
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
/// planted self-contained (version 6), it writes the same images.
#[test]
fn resumed_run_keeps_the_uninterrupted_cadence() {
    let (table, pcap, t, start, n) = capture(404, 12);
    let frozen = table.freeze();
    let scheme = Scheme::LatentHeat { window: 2 };
    let every = 3;
    // Run in `dir`, from its checkpoint file if it holds one, one chunk
    // per `run_checkpointed`; every image written, in order, loaded and
    // re-encoded, with the directory's files after it.
    let images_of_run_in = |dir: &Path| -> Vec<(Vec<u8>, Files)> {
        let mut checkpointer = Checkpointer::new(dir, every).expect("checkpointer");
        let file = checkpointer.path().to_path_buf();
        let image = || {
            Checkpoint::load(&file)
                .map(|ckpt| ckpt_bytes(&ckpt))
                .unwrap_or_default()
        };
        let mut last = image();
        let mut source = OneChunkPerRun::new(PcapSource::new(&pcap[..]).expect("valid pcap"));
        let builder = builder(&frozen, scheme, t, start, n);
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
    assert_eq!(
        sealed,
        [3, 6, 9],
        "one image every {every} sealed intervals"
    );
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

        let run_dir = scratch("cadence-run-v6");
        fs::write(run_dir.join(CHECKPOINT_FILE), image).expect("plant a version-6 image");
        let resumed: Vec<Vec<u8>> = images_of_run_in(&run_dir)
            .into_iter()
            .map(|(image, _)| image)
            .collect();
        let want: Vec<Vec<u8>> = uninterrupted[i + 1..]
            .iter()
            .map(|(image, _)| image.clone())
            .collect();
        assert!(
            resumed == want,
            "resumed at {} sealed from a version-6 image",
            sealed[i]
        );
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
    let frozen = table.freeze();
    let scheme = Scheme::LatentHeat { window: 2 };
    for landed in [0, 2] {
        let dir = scratch("failed-write");
        let mut checkpointer = Checkpointer::new(&dir, 3).expect("checkpointer");
        let mut pipeline = builder(&frozen, scheme, t, start, n).build();
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
            other => {
                panic!("{landed} images landed: expected a checkpoint I/O error, got {other:?}")
            }
        }
        assert_eq!(checkpointer.written().images, landed);
        match before {
            Some(image) => {
                assert_eq!(
                    fs::read(checkpointer.path()).expect("previous image"),
                    image
                );
                Checkpoint::load(checkpointer.path()).expect("the previous image loads");
            }
            None => assert!(
                !checkpointer.path().exists(),
                "no image was renamed into place"
            ),
        }
        fs::remove_dir_all(&dir).ok();
    }
}

/// The checkpoint directory a seeded `eleph run --synth` ends on, per
/// scheme and state backend — the image `eleph.ckpt` (version 5) and the
/// one log it names — against the length and CRC-32 of its files end to
/// end, in name order (log, then image), recorded before self-contained
/// images carried their log: a drift in what a `Checkpointer` writes
/// shows here even if encoder and decoder drift together. The loaded
/// checkpoint, re-encoded self-contained, reads back as itself.
#[test]
fn synthetic_run_checkpoints_equal_their_recorded_length_and_crc() {
    for (scheme, state, len, crc) in [
        ("single", "exact", 3_485, 0xc2a3_b956_u32),
        ("latent", "exact", 11_541, 0xb71a_5f3f),
        ("hysteresis", "exact", 3_513, 0xa9de_8cb8),
        ("latent", "spacesaving", 10_640, 0x73a4_0127),
        ("latent", "cmrow", 8_466, 0xeab7_f424),
        ("latent", "bloom", 7_891, 0xd164_4e5d),
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
        let at = format!("--scheme {scheme} --state {state}");
        let files = dir_files(&ckpt_dir);
        let names: Vec<&str> = files.iter().map(|(name, _)| name.as_str()).collect();
        assert!(
            matches!(names[..], [log, CHECKPOINT_FILE] if log.ends_with(".log")),
            "{at}: the image and one log: {names:?}"
        );
        let written: Vec<u8> = files.into_iter().flat_map(|(_, bytes)| bytes).collect();
        assert_eq!((written.len(), crc32(&written)), (len, crc), "{at}");
        let loaded = Checkpoint::load(ckpt_dir.join(CHECKPOINT_FILE)).expect("checkpoint file");
        let image = ckpt_bytes(&loaded);
        let reread = Checkpoint::read_from(&mut &image[..]).expect("the re-encoding reads back");
        assert_eq!(reread.intervals_sealed(), loaded.intervals_sealed(), "{at}");
        assert_eq!(reread.stats(), loaded.stats(), "{at}");
        assert_eq!(reread.detector(), loaded.detector(), "{at}");
        assert_eq!(reread.generation(), loaded.generation(), "{at}");
        assert!(
            ckpt_bytes(&reread) == image,
            "{at}: the re-encoding reads back as itself"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

/// Checkpoints cost what changed, not what the run has seen: a steady
/// synthetic run of 2 400 one-second intervals at cadence 1, whose key
/// set keeps growing (two keys a second that were never seen before,
/// beside twenty recurring ones), cut into chunks that end on the first
/// packet of an interval. Once the window is full, every image puts on
/// disk — image and log append — at most one slot, 9 bytes per key
/// assigned since the image before, and 512 bytes of framing (nothing
/// per key in the window: its sums are the window's, derived on
/// resume); and the directory never holds more
/// than twice the key table and window, as the log frames them, plus
/// the image.
#[test]
fn checkpoint_bytes_follow_what_changed() {
    const INTERVALS: u64 = 2_400;
    const WINDOW: usize = 12;
    const START: u64 = 1_000_000;
    let table = synth::generate(&SynthConfig {
        n_prefixes: 8_000,
        ..SynthConfig::default()
    });
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
            recurring
                .chain(fresh)
                .enumerate()
                .map(|(i, dst)| packet(k, i as u64, dst))
                .collect()
        })
        .collect();
    let dir = scratch("bytes");
    let mut checkpointer = Checkpointer::new(&dir, 1).expect("checkpointer");
    let frozen = table.freeze();
    let mut pipeline = PipelineBuilder::new()
        .frozen(&frozen)
        .interval_secs(1)
        .start_unix(START)
        .scheme(Scheme::LatentHeat { window: WINDOW })
        .build();
    assert!(!checkpointer
        .maybe_write(&mut pipeline)
        .expect("cadence starts"));
    pipeline
        .observe_chunk(&intervals[0][..1])
        .expect("first packet");
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
        assert!(
            checkpointer.maybe_write(&mut pipeline).expect("image"),
            "interval {k}"
        );
        checkpointer.flush().expect("image on disk");
        let sealed = pipeline.intervals_sealed();
        assert_eq!(sealed, k + 1);
        let written = checkpointer.written();
        let keys = pipeline.keys().len();
        let new_keys = keys - std::mem::replace(&mut keys_before, keys);
        // A slot holds at most a key per packet of its interval.
        let slot = |interval: usize| intervals[interval].len();
        if sealed > WINDOW {
            let bound = (16 + 8 * slot(k)) + 9 * new_keys + 512;
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
        let window: usize = (sealed.saturating_sub(WINDOW)..sealed)
            .map(|i| 29 + 8 * slot(i))
            .sum();
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
    assert!(
        checkpointer.written().compactions > 0,
        "the log was compacted"
    );
    fs::remove_dir_all(&dir).ok();
}
