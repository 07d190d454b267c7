//! A route-update batch the pipeline applies mid-stream writes the live
//! table in place: the pipeline releases its pinned view before the
//! batch and re-pins after it, so no 16 KiB stage-1 page the batch
//! touches is copied. Pinned as bytes allocated, not as a timing.
//!
//! The only test of its own binary, so the counting allocator below
//! sees no other test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use eleph_bgp::{LiveBgpTable, Origin, PeerClass, RouteEntry, RouteUpdate, UpdateBatch};
use eleph_net::Prefix;
use eleph_packet::{IpProtocol, PacketMeta};
use eleph_pipeline::PipelineBuilder;

/// The system allocator, counting every byte it hands out.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is
// bookkeeping beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the move as the copy a realloc may make.
        ALLOCATED.fetch_add(new_size, Relaxed);
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

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

#[test]
fn a_scheduled_batch_copies_no_page() {
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
    let before = ALLOCATED.load(Relaxed);
    pipeline.observe_chunk(&after).unwrap();
    let allocated = ALLOCATED.load(Relaxed) - before;

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
