//! The same traffic re-measured at another T is walked, not built: while
//! `refine_each` or `coarsen_each` runs, the heap holds the walk's
//! scratch — one interval's row and what computes it — and never the
//! re-measured entries. Pinned as peak heap bytes, not as a timing.
//!
//! The only test of its own binary, so the counting allocator below
//! sees no other test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use eleph_flow::BandwidthMatrix;
use eleph_net::Prefix;

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

/// How far the heap rose above what it held when `f` started.
fn peak_rise(f: impl FnOnce()) -> usize {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    f();
    PEAK.load(Relaxed) - before
}

/// The most a walk may hold: its scratch, which is sized by the keys,
/// never by the trace.
const SCRATCH_BOUND: usize = 1 << 20;

#[test]
fn refine_each_and_coarsen_each_hold_one_interval() {
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
    let extra = peak_rise(|| {
        m.refine_each(5, 42, |row| {
            walked += row.len();
            sum += row.iter().map(|&(_, rate)| f64::from(rate)).sum::<f64>();
        })
    });
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
    let extra = peak_rise(|| {
        m.coarsen_each(6, |row| {
            walked += row.len();
            sum += row.iter().map(|&(_, rate)| f64::from(rate)).sum::<f64>();
        })
    });
    assert_eq!(walked, entries);
    assert!(sum > 0.0);
    assert!(entries * 8 > SCRATCH_BOUND);
    assert!(
        extra <= SCRATCH_BOUND,
        "coarsen_each held {extra} bytes walking {entries} entries"
    );
}
