//! A streaming classifier runs in constant space: however many
//! intervals it has observed, it holds its window, its per-key state and
//! its EWMA, and nothing that grows with the run — no per-interval
//! threshold record. Pinned as live heap bytes, not as a timing.
//!
//! The only test of its own binary, so the counting allocator below
//! sees no other test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use eleph_core::{ConstantLoadDetector, OnlineClassifier, Scheme, PAPER_LATENT_WINDOW};
use eleph_flow::KeyId;

/// The system allocator, counting the bytes it has handed out and not
/// yet been given back.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    LIVE.fetch_add(bytes, Relaxed);
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
fn live_heap_does_not_grow_with_the_intervals_observed() {
    // The same 200-key interval over and over: the window fills within
    // 12 intervals, and from then on every observe retires what it adds.
    let snapshot: Vec<(KeyId, f32)> =
        (0..200u32).map(|key| (key, 1_000.0 + (key * 37 % 500) as f32)).collect();
    let scheme = Scheme::LatentHeat { window: PAPER_LATENT_WINDOW };
    let mut online = OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, scheme);
    let mut elephants = 0usize;
    let mut run_to = |intervals: usize| {
        for _ in 0..intervals {
            elephants += online.observe(&snapshot).elephants.len();
        }
        LIVE.load(Relaxed)
    };
    let after_2k = run_to(2_000);
    let after_20k = run_to(18_000);
    assert!(
        after_20k <= after_2k,
        "live heap rose from {after_2k} to {after_20k} bytes between 2 000 and 20 000 intervals"
    );
    assert!(elephants > 0);
}
