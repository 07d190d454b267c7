//! The heap checks of the packet path and the matrix walks: what the
//! serial exact path allocates per packet, per seal and per checkpoint
//! image once it is warm, and what the paths that must run in bounded
//! space hold at their peak. Pinned as counts and bytes from the
//! counting allocator (`eleph_tests::heap`), not as timings.
//!
//! The allocator counts every thread, and the test harness runs tests
//! side by side, so each test runs alone in a process of its own
//! (`heap::alone`).

use std::io;
use std::net::Ipv4Addr;

use eleph_bgp::{
    FrozenBgpTable, LiveBgpTable, Origin, PeerClass, RouteEntry, RouteUpdate, UpdateBatch,
};
use eleph_core::{ConstantLoadDetector, OnlineClassifier, Scheme, PAPER_LATENT_WINDOW};
use eleph_flow::{BandwidthMatrix, KeyId};
use eleph_net::Prefix;
use eleph_packet::{IpProtocol, PacketMeta};
use eleph_pipeline::{
    Checkpointer, JsonlSink, PacketSource, Pipeline, PipelineBuilder, TraceSource,
};
use eleph_report::experiments::EXPERIMENTS;
use eleph_report::{Lab, MatrixId};
use eleph_tests::heap::{alone, measure, Counting};
use eleph_tests::{scratch, small_link};
use eleph_trace::RateTrace;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Intervals the serial pipeline runs before it is measured: its key
/// table, row, window and scratch have grown to the link by then.
const WARM_UP: usize = 30;
/// Intervals measured after the warm-up.
const MEASURED: usize = 30;

/// Allocation calls one seal may make once the pipeline is warm, the
/// JSONL line included. Measured on this link: 9 a seal, 10 at most.
const SEAL_CALLS: usize = 10;

/// Allocation calls one checkpoint image may make once its log is warm,
/// from the pipeline's copy to the rename. Measured on this link after
/// the warm-up: 10 or 11 for an image that appends to the log, 28 for
/// one that starts a log because the old one held more dead bytes than
/// live ones.
const IMAGE_CALLS: usize = 11;
const COMPACTION_CALLS: usize = 28;

/// The link the serial path's counts run on: 1 500 flows over the
/// shared 2 000-prefix table, T = 20 s.
fn serial_link() -> (FrozenBgpTable, RateTrace) {
    let (table, trace) = small_link(17, 1_500, WARM_UP + MEASURED);
    (table.freeze(), trace)
}

/// The serial exact pipeline over that link, under the default scheme,
/// its JSONL formatted and thrown away.
fn serial_pipeline<'t>(
    table: &'t FrozenBgpTable,
    trace: &RateTrace,
) -> Pipeline<'t, ConstantLoadDetector> {
    PipelineBuilder::new()
        .frozen(table)
        .interval_secs(trace.config.interval_secs)
        .start_unix(trace.config.start_unix)
        .n_intervals(trace.n_intervals())
        .sink(JsonlSink::new(io::sink()))
        .build()
}

/// Once warm, a chunk of packets that seals no interval allocates
/// nothing, and a seal allocates a bounded count. The chunks are the
/// pcap source's 64 packets.
#[test]
fn serial_ingest_allocates_nothing_per_packet() {
    if !alone("serial_ingest_allocates_nothing_per_packet") {
        return;
    }
    let (table, trace) = serial_link();
    let mut pipeline = serial_pipeline(&table, &trace);
    let mut source = TraceSource::new(&trace);
    let mut packets = Vec::new();
    let (mut quiet_packets, mut quiet_calls) = (0usize, 0usize);
    // The source hands over an interval at a time; the first packet of
    // each seals the interval before.
    while source.next_chunk(&mut packets).expect("synthesis") > 0 {
        let warm = pipeline.intervals_sealed() >= WARM_UP;
        for chunk in packets.chunks(64) {
            let before = pipeline.intervals_sealed();
            let (observed, heap) = measure(|| pipeline.observe_chunk(chunk));
            observed.expect("observe");
            let sealed = pipeline.intervals_sealed() - before;
            if !warm {
                continue;
            }
            if sealed == 0 {
                quiet_packets += chunk.len();
                quiet_calls += heap.calls;
            }
            assert!(
                heap.calls <= SEAL_CALLS * sealed,
                "a chunk that sealed {sealed} intervals from interval {before} made {} \
                 allocation calls",
                heap.calls
            );
        }
        packets.clear();
    }
    assert!(quiet_packets >= 100_000, "{quiet_packets} packets measured");
    assert_eq!(
        quiet_calls, 0,
        "{quiet_packets} packets made {quiet_calls} allocation calls"
    );
}

/// Once its log is warm, a checkpoint image allocates a bounded count.
/// An image after every seal, as `--checkpoint-every 1` writes them.
#[test]
fn a_checkpoint_image_allocates_a_bounded_count() {
    if !alone("a_checkpoint_image_allocates_a_bounded_count") {
        return;
    }
    let (table, trace) = serial_link();
    let mut pipeline = serial_pipeline(&table, &trace);
    let dir = scratch("heap-checkpoint");
    let mut checkpointer = Checkpointer::new(&dir, 1).expect("checkpointer");
    let mut source = TraceSource::new(&trace);
    let mut packets = Vec::new();
    let mut compactions = 0;
    while source.next_chunk(&mut packets).expect("synthesis") > 0 {
        pipeline.observe_chunk(&packets).expect("observe");
        packets.clear();
        let before = checkpointer.written().compactions;
        let (written, heap) = measure(|| checkpointer.write(&mut pipeline));
        written.expect("image");
        let sealed = pipeline.intervals_sealed();
        if sealed <= WARM_UP {
            continue;
        }
        let compaction = checkpointer.written().compactions > before;
        compactions += usize::from(compaction);
        let bound = if compaction {
            COMPACTION_CALLS
        } else {
            IMAGE_CALLS
        };
        assert!(
            heap.calls <= bound,
            "the image after interval {sealed} (compaction: {compaction}) made {} allocation calls",
            heap.calls
        );
    }
    assert!(compactions > 0, "no compaction measured");
    drop(checkpointer);
    std::fs::remove_dir_all(&dir).ok();
}

/// One stage-1 page of the live table: 4096 /24s.
const PAGE_BYTES: usize = 16 * 1024;
/// Pages the table has materialized, and announces in the batch.
const PAGES: u32 = 64;

/// The /24 at `slot` of stage-1 page `16 + page` (pages are /12s).
fn prefix(page: u32, slot: u32) -> Prefix {
    Prefix::from_u32(((16 + page) << 20) | (slot << 8), 24).expect("a /24")
}

fn route(prefix: Prefix) -> RouteEntry {
    RouteEntry {
        prefix,
        next_hop: Ipv4Addr::new(192, 0, 2, 1),
        as_path: vec![64_500],
        origin: Origin::Igp,
        peer_class: PeerClass::Tier1,
    }
}

/// One packet to the first address of each prefix, at `ts_s`.
fn packets(prefixes: impl Iterator<Item = Prefix>, ts_s: u64) -> Vec<PacketMeta> {
    prefixes
        .map(|p| PacketMeta {
            ts_ns: ts_s * 1_000_000_000,
            src: Ipv4Addr::new(198, 18, 0, 1),
            dst: p.network(),
            proto: IpProtocol::Tcp,
            src_port: 1,
            dst_port: 2,
            wire_len: 100,
        })
        .collect()
}

/// A route-update batch the pipeline applies mid-stream writes the live
/// table in place: the pipeline releases its pinned view before the
/// batch and re-pins after it, so no 16 KiB stage-1 page the batch
/// touches is copied. Pinned as bytes allocated.
#[test]
fn a_scheduled_batch_copies_no_page() {
    if !alone("a_scheduled_batch_copies_no_page") {
        return;
    }
    // One /24 in each of 64 pages; the batch announces a second /24 in
    // each, so every page it paints is one the table already holds.
    let live = LiveBgpTable::from_routes((0..PAGES).map(|k| route(prefix(k, 0))).collect());
    let batch = UpdateBatch {
        at_unix: 1005,
        updates: (0..PAGES)
            .map(|k| RouteUpdate::Announce(route(prefix(k, 1))))
            .collect(),
    };
    let mut pipeline = PipelineBuilder::new()
        .live(&live)
        .interval_secs(10)
        .start_unix(1000)
        .n_intervals(1)
        .route_updates(vec![batch])
        .build();
    // Before the batch: every route gets its key and the scratch grows.
    pipeline
        .observe_chunk(&packets((0..PAGES).map(|k| prefix(k, 0)), 1001))
        .unwrap();

    let after = packets(
        (0..PAGES)
            .map(|k| prefix(k, 0))
            .chain((0..PAGES).map(|k| prefix(k, 1))),
        1006,
    );
    let (observed, heap) = measure(|| pipeline.observe_chunk(&after));
    observed.unwrap();
    let allocated = heap.bytes;

    let report = pipeline.finish().unwrap();
    assert_eq!(report.route_updates_applied, 1);
    assert_eq!(report.generation, 1);
    assert_eq!(
        report.distinct_keys,
        2 * PAGES as usize,
        "the new routes attributed"
    );
    // Copying each page the batch paints would be 64 × 16 KiB.
    assert!(
        allocated < 32 * PAGE_BYTES,
        "applying the batch allocated {allocated} bytes ({} pages' worth)",
        allocated / PAGE_BYTES
    );
}

/// A streaming classifier runs in constant space: however many
/// intervals it has observed, it holds its window, its per-key state and
/// its EWMA, and nothing that grows with the run — no per-interval
/// threshold record. Pinned as live heap bytes.
#[test]
fn live_heap_does_not_grow_with_the_intervals_observed() {
    if !alone("live_heap_does_not_grow_with_the_intervals_observed") {
        return;
    }
    // The same 200-key interval over and over: the window fills within
    // 12 intervals, and from then on every observe retires what it adds.
    let snapshot: Vec<(KeyId, f32)> = (0..200u32)
        .map(|key| (key, 1_000.0 + (key * 37 % 500) as f32))
        .collect();
    let scheme = Scheme::LatentHeat {
        window: PAPER_LATENT_WINDOW,
    };
    let mut online = OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, scheme);
    let mut elephants = 0usize;
    let mut run_to = |intervals: usize| {
        for _ in 0..intervals {
            elephants += online.observe(&snapshot).elephants.len();
        }
    };
    run_to(2_000);
    let ((), heap) = measure(|| run_to(18_000));
    assert!(
        heap.kept <= 0,
        "live heap rose by {} bytes between 2 000 and 20 000 intervals",
        heap.kept
    );
    assert!(elephants > 0);
}

/// The most a walk may hold: its scratch, which is sized by the keys,
/// never by the trace.
const SCRATCH_BOUND: usize = 1 << 20;

/// The same traffic re-measured at another T is walked, not built: while
/// `refine_each` or `coarsen_each` runs, the heap holds the walk's
/// scratch — one interval's row and what computes it — and never the
/// re-measured entries. Pinned as peak heap bytes.
#[test]
fn refine_each_and_coarsen_each_hold_one_interval() {
    if !alone("refine_each_and_coarsen_each_hold_one_interval") {
        return;
    }
    // 12 000 keys; interval n carries the 2 000 keys of block n % 6, so
    // each group of six fine intervals covers all of them and a coarse
    // interval holds as many entries as its six fine ones together.
    const KEYS: usize = 12_000;
    const BLOCK: usize = 2_000;
    const INTERVALS: usize = 120;
    let keys: Vec<Prefix> = (0..KEYS as u32)
        .map(|i| Prefix::from_u32(i << 8, 24).expect("a /24"))
        .collect();
    let rows: Vec<Vec<f64>> = (0..INTERVALS)
        .map(|n| {
            let lo = n % 6 * BLOCK;
            let mut row = vec![0.0; lo + BLOCK];
            for (i, rate) in row[lo..].iter_mut().enumerate() {
                *rate = 1_000.0 + (i * 7 + n) as f64;
            }
            row
        })
        .collect();
    let m = BandwidthMatrix::from_dense(300, 0, keys, &rows);
    drop(rows);
    let entries = INTERVALS * BLOCK;

    // The callbacks only count and sum: whatever the heap gains is the
    // walker's own.
    let (mut walked, mut sum) = (0usize, 0.0f64);
    let ((), heap) = measure(|| {
        m.refine_each(5, 42, |row| {
            walked += row.len();
            sum += row.iter().map(|&(_, rate)| f64::from(rate)).sum::<f64>();
        })
    });
    let extra = heap.peak;
    assert_eq!(walked, entries * 5);
    assert!(sum > 0.0);
    // The refined matrix would have been 8 bytes an entry.
    assert!(entries * 5 * 8 > 8 * SCRATCH_BOUND);
    assert!(
        extra <= SCRATCH_BOUND,
        "refine_each held {extra} bytes walking {} entries",
        entries * 5
    );

    let (mut walked, mut sum) = (0usize, 0.0f64);
    let ((), heap) = measure(|| {
        m.coarsen_each(6, |row| {
            walked += row.len();
            sum += row.iter().map(|&(_, rate)| f64::from(rate)).sum::<f64>();
        })
    });
    let extra = heap.peak;
    assert_eq!(walked, entries);
    assert!(sum > 0.0);
    assert!(entries * 8 > SCRATCH_BOUND);
    assert!(
        extra <= SCRATCH_BOUND,
        "coarsen_each held {extra} bytes walking {entries} entries"
    );
}

/// Table 4 re-measures the west link at 1 and 30 minutes without
/// building any matrix: its three points are classified on one walk of
/// the link, each re-measured row as it is produced, so running the
/// experiment raises the heap by less than the west matrix's own columns
/// — where the 1-min matrix alone would be five times those. Pinned as
/// peak heap bytes.
#[test]
fn table4_holds_less_than_the_matrix_it_re_measures() {
    if !alone("table4_holds_less_than_the_matrix_it_re_measures") {
        return;
    }
    let lab = Lab::new(0.05, 3);
    // The west link as a matrix, built on the side to size its columns:
    // the session never builds one.
    let columns = {
        let scenario = lab.scenario(MatrixId::West);
        let table = eleph_bgp::synth::generate(&scenario.table);
        let west = BandwidthMatrix::from_workload(&scenario.workload, &table);
        let entries: usize = (0..west.n_intervals()).map(|n| west.active(n)).sum();
        // A key id and an f32 rate per entry.
        entries * 8
    };
    // The session has walked the west link once already (table, keys and
    // totals kept), as a session running table 4 after Figure 1 has.
    lab.link(MatrixId::West);

    let (_, _, table4) = EXPERIMENTS
        .iter()
        .find(|(id, _, _)| *id == "table4")
        .expect("table 4 is an experiment");
    let (ran, heap) = measure(|| table4(&lab));
    ran.expect("table 4 runs");
    let rise = heap.peak;
    assert!(
        rise < columns,
        "table 4 raised the heap by {rise} bytes; the west matrix's columns are {columns}"
    );
}
