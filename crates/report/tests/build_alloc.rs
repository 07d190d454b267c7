//! Building a link generates its workload interval by interval straight
//! into the bandwidth matrix, so the link's rates are never held twice.
//! Pinned as peak heap bytes, not as a timing: `Scenario::build` raises
//! the heap by at most
//!
//! * what it returns — the routing table and the matrix, slack
//!   capacity included;
//! * the flow population, and the walk's generator state per flow;
//! * two blocks of 32 intervals' rows, each as wide as the widest
//!   interval, at 8 B per `(flow, rate)`;
//! * one column of the matrix's entries, at 4 B each: the entry count is
//!   known only once the walk ends, so the columns grow as rows arrive,
//!   and the last growth of a column may copy it (this allocator counts
//!   every reallocation as a copy).
//!
//! A trace of the whole link held beside the matrix is a second copy of
//! every entry, and does not fit.
//!
//! The only test of its own binary, so the counting allocator below
//! sees no other test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use eleph_report::Scenario;
use eleph_trace::FlowMeta;

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

/// The walk's state per flow: a 32-byte generator and an on/off flag.
const WALK_STATE_BYTES: usize = 40;

/// Intervals the walk generates before handing their rows over.
const BLOCK: usize = 32;

#[test]
fn building_a_link_never_holds_its_trace_beside_its_matrix() {
    let scenario = Scenario::west(3).scaled(0.05);
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let data = scenario.build();
    let rise = PEAK.load(Relaxed) - before;
    let kept = LIVE.load(Relaxed) - before;

    let m = &data.matrix;
    let entries: usize = (0..m.n_intervals()).map(|n| m.active(n)).sum();
    let widest = (0..m.n_intervals()).map(|n| m.active(n)).max().unwrap_or(0);
    let population = m.n_keys() * (size_of::<FlowMeta>() + WALK_STATE_BYTES);
    let blocks = 2 * BLOCK * widest * 8;
    let growth = entries * 4;
    let bound = kept + population + blocks + growth;
    assert!(
        rise < bound,
        "building the link raised the heap by {rise} bytes; it keeps {kept}, \
         and the population ({population}), two blocks of rows ({blocks}) and \
         one column's growth ({growth}) allow {bound}"
    );
}
