//! A derived matrix is built once, straight into its columns: while
//! `refine` or `coarsen` runs, the heap holds the finished result plus
//! the call's scratch and nothing else — never a second copy of the
//! entries. Pinned as live and peak heap bytes, not as a timing.
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

/// Run `f` and return its result with how far the heap rose above what
/// it holds once `f` has returned, with the result still alive.
fn transient_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - LIVE.load(Relaxed))
}

/// The most a call may hold beyond its result: its scratch, which is
/// sized by the keys of one interval, never by the matrix.
const SCRATCH_BOUND: usize = 1 << 20;

#[test]
fn refine_and_coarsen_hold_their_result_once() {
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

    let (fine, extra) = transient_bytes(|| m.refine(5, 42));
    assert_eq!((0..fine.n_intervals()).map(|n| fine.active(n)).sum::<usize>(), entries * 5);
    // One copy of the refined entries would be 8 bytes each.
    assert!(entries * 5 * 8 > 8 * SCRATCH_BOUND);
    assert!(
        extra <= SCRATCH_BOUND,
        "refine held {extra} bytes beyond its {} entries",
        entries * 5
    );

    let (coarse, extra) = transient_bytes(|| m.coarsen(6));
    assert_eq!((0..coarse.n_intervals()).map(|n| coarse.active(n)).sum::<usize>(), entries);
    assert!(entries * 8 > SCRATCH_BOUND);
    assert!(
        extra <= SCRATCH_BOUND,
        "coarsen held {extra} bytes beyond its {entries} entries"
    );
}
