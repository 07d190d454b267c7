//! Table 4 re-measures the west link at 1 and 30 minutes without
//! building any matrix: its three points are classified on one walk of
//! the link, each re-measured row as it is produced, so running the
//! experiment raises the heap by less than the west matrix's own columns
//! — where the 1-min matrix alone would be five times those. Pinned as
//! peak heap bytes, not as a timing.
//!
//! The only test of its own binary, so the counting allocator below
//! sees no other test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use eleph_flow::BandwidthMatrix;
use eleph_report::experiments::EXPERIMENTS;
use eleph_report::{Lab, MatrixId};

/// The system allocator, counting the bytes it has handed out and not
/// yet been given back, and the most it has had out at once.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// bookkeeping beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            // Count the move as the copy a realloc may make: both blocks
            // are out until it returns.
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn table4_holds_less_than_the_matrix_it_re_measures() {
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
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    table4(&lab).expect("table 4 runs");
    let rise = PEAK.load(Relaxed) - before;
    assert!(
        rise < columns,
        "table 4 raised the heap by {rise} bytes; the west matrix's columns are {columns}"
    );
}
