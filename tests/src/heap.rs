//! One counting allocator for the heap checks. [`Counting`] forwards
//! every call to the system allocator unchanged and counts beside it:
//! the allocation calls, the bytes they hand out, the bytes handed out
//! and not yet given back, and the most of those at once. A test binary
//! installs it as its `#[global_allocator]`, and [`measure`] reports
//! what one closure did.
//!
//! The counters are the process's: they see every thread, the test
//! harness's included. A binary with one test measures in place; in a
//! binary with several, each test first asks [`alone`], which runs it in
//! a process where no other test allocates beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::env;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counted.
pub struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    CALLS.fetch_add(1, Relaxed);
    ALLOCATED.fetch_add(bytes, Relaxed);
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

/// What a closure did to the heap.
#[derive(Clone, Copy, Debug)]
pub struct Heap {
    /// Allocation calls: `alloc`, `alloc_zeroed` and `realloc`.
    pub calls: usize,
    /// Bytes those calls handed out; a `realloc` counts its new size.
    pub bytes: usize,
    /// How much the live heap grew (negative: shrank) from start to end.
    pub kept: isize,
    /// How far the live heap rose above where it started, at its highest.
    pub peak: usize,
}

/// Run `f` and report what it did to the heap. Measurements do not
/// nest: the high-water mark is reset at each start.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Heap) {
    let (calls, bytes, live) = (
        CALLS.load(Relaxed),
        ALLOCATED.load(Relaxed),
        LIVE.load(Relaxed),
    );
    PEAK.store(live, Relaxed);
    let out = f();
    let heap = Heap {
        calls: CALLS.load(Relaxed) - calls,
        bytes: ALLOCATED.load(Relaxed) - bytes,
        kept: LIVE.load(Relaxed) as isize - live as isize,
        peak: PEAK.load(Relaxed) - live,
    };
    (out, heap)
}

/// Whether this process runs `test` and no other test. Called first by
/// each test of a binary that holds several: in the harness's run it
/// re-runs the binary on `test` alone, on one test thread, asserts that
/// the child ran it and it passed, and returns false; in that child it
/// returns true, and the test measures.
pub fn alone(test: &str) -> bool {
    let args = ["--exact", test, "--test-threads=1"];
    if env::args().skip(1).eq(args) {
        return true;
    }
    let exe = env::current_exe().expect("the test binary");
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("the test binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains(&format!("test {test} ... ok")),
        "{test}, run alone, did not pass:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    false
}

/// The report walk's state per flow: a 32-byte generator and an on/off
/// flag.
pub const WALK_STATE_BYTES: usize = 40;

/// Intervals the report walk generates before handing their rows over.
pub const BLOCK: usize = 32;
