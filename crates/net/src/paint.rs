//! The one routine that paints a DIR-24-8 table from its entries, behind
//! both [`crate::FlatLpm`] (stage 1 as one contiguous array) and
//! [`crate::EpochLpm::from_entries`] (stage 1 as copy-on-write pages).
//!
//! Stage 1 is painted on as many threads as the caller asks for (both
//! tables ask for [`stripes`]), each owning one contiguous address
//! range, so each thread first-touches only its own pages; spill blocks
//! are then painted on the calling thread. The result never depends on
//! the thread count:
//!
//! * every stage-1 slot belongs to exactly one stripe, which writes it in
//!   the order a serial paint would;
//! * spill blocks are numbered in ascending block order — the order
//!   `EpochLpm`'s incremental repaint allocates them in — so an
//!   `EpochLpm` painted here equals the one repainting its whole range
//!   builds, page for page and index for index;
//! * no page a serial paint leaves untouched is touched: a stripe writes
//!   (and a shared page materializes) only where a prefix lands.

use std::sync::Arc;

use crate::flat::SPILL_BIT;
use crate::Prefix;

/// log2 of the stage-1 page size. 12 → 4096 slots = 16 KiB per page,
/// 4096 pages to cover the 2²⁴ stage-1 slots: small enough that a /24
/// update under a pinned snapshot copies one page, large enough that
/// the page table (4096 `Arc`s) clones cheaply per pin.
pub(crate) const PAGE_BITS: usize = 12;
/// Slots per stage-1 page.
pub(crate) const PAGE_SLOTS: usize = 1 << PAGE_BITS;
/// Intra-page slot mask.
pub(crate) const PAGE_MASK: usize = PAGE_SLOTS - 1;
/// Number of stage-1 pages (`2²⁴ / PAGE_SLOTS`).
pub(crate) const N_PAGES: usize = (1 << 24) / PAGE_SLOTS;

pub(crate) type Page = [u32; PAGE_SLOTS];
pub(crate) type SpillBlock = [u32; 256];

/// Most threads stage 1 is painted on.
const MAX_STRIPES: usize = 8;

/// Threads to paint stage 1 on: one per available core, at most
/// [`MAX_STRIPES`].
pub(crate) fn stripes() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_STRIPES)
}

/// One page of stage 1 as the painter writes it.
pub(crate) trait Slots: Send {
    /// The page's slots, writable.
    fn slots(&mut self) -> &mut [u32];
}

impl Slots for &mut [u32] {
    fn slots(&mut self) -> &mut [u32] {
        self
    }
}

impl Slots for Arc<Page> {
    /// Copy-on-write: the first write to a shared page (the zero page)
    /// materializes it.
    fn slots(&mut self) -> &mut [u32] {
        &mut Arc::make_mut(self)[..]
    }
}

/// Paint `entries` — `(prefix, id)` in strictly ascending prefix order —
/// into `pages`, all [`N_PAGES`] of an all-`EMPTY` stage 1, on `stripes`
/// threads. Each spill block goes to `spill`, which returns the index it
/// stored the block under.
///
/// Ascending prefix order paints every prefix after each prefix that
/// contains it (a container starts at or below what it contains, and is
/// shorter where they start alike), so the last id a slot receives is
/// its longest match — exactly what painting by ascending length leaves,
/// without sorting anything.
pub(crate) fn paint<P: Slots>(
    entries: &[(Prefix, u32)],
    pages: &mut [P],
    stripes: usize,
    mut spill: impl FnMut(SpillBlock) -> u32,
) {
    debug_assert_eq!(pages.len(), N_PAGES);
    debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
    let per_stripe = N_PAGES.div_ceil(stripes.max(1));
    std::thread::scope(|scope| {
        let mut stripes = pages.chunks_mut(per_stripe).enumerate();
        let (_, own) = stripes.next().expect("stage 1 has pages");
        for (k, stripe) in stripes {
            scope.spawn(move || paint_stripe(entries, stripe, k * per_stripe));
        }
        paint_stripe(entries, own, 0);
    });

    // In ascending order the longer prefixes of one /24 are adjacent;
    // their spill block starts as the /24's painted stage-1 slot.
    let block_of = |p: Prefix| (p.bits() >> 8) as usize;
    let mut long = entries.iter().filter(|(p, _)| p.len() > 24).peekable();
    while let Some(&&(first, _)) = long.peek() {
        let block = block_of(first);
        let slot = &mut pages[block >> PAGE_BITS].slots()[block & PAGE_MASK];
        let mut arr = [*slot; 256];
        while let Some(&(p, id)) = long.next_if(|&&(p, _)| block_of(p) == block) {
            let lo = (p.bits() & 0xFF) as usize;
            arr[lo..lo + (1 << (32 - p.len()))].fill(id + 1);
        }
        *slot = SPILL_BIT | spill(arr);
    }
}

/// Paint the slots of the prefixes ≤ /24 in `entries` that fall in
/// `pages`, the stripe starting at page `first`.
fn paint_stripe<P: Slots>(entries: &[(Prefix, u32)], pages: &mut [P], first: usize) {
    let lo = first << PAGE_BITS;
    let hi = lo + (pages.len() << PAGE_BITS);
    for &(p, id) in entries.iter().filter(|(p, _)| p.len() <= 24) {
        let start = (p.bits() >> 8) as usize;
        let end = (start + (1 << (24 - p.len()))).min(hi);
        let mut at = start.max(lo);
        while at < end {
            let page = at >> PAGE_BITS;
            let stop = end.min((page + 1) << PAGE_BITS);
            pages[page - first].slots()[at & PAGE_MASK..][..stop - at].fill(id + 1);
            at = stop;
        }
    }
}
