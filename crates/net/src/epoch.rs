//! Epoch-swapped, incrementally updatable DIR-24-8 LPM — the live read
//! path.
//!
//! [`crate::FlatLpm`] is frozen by design: any route change costs a full
//! refreeze (~19 ms on a 20k-prefix table, `lpm_build/flat_freeze`)
//! during which no new table can serve lookups. [`EpochLpm`] keeps the
//! exact same two-stage lookup layout — a direct index over the top 24
//! address bits plus 256-slot spill blocks for longer prefixes — but
//! makes it *persistent* in the functional-data-structure sense:
//!
//! * Stage 1 is split into 4096-slot **pages** (16 KiB each), every page
//!   behind an `Arc`. Untouched pages all share one zero page, so an
//!   empty table costs ~48 KiB instead of 64 MiB — the moral equivalent
//!   of `FlatLpm`'s masked single-slot empty representation, except it
//!   upgrades on first insert: announcing a route materializes only the
//!   pages its range covers.
//! * A writer applies an announce/withdraw batch by **repainting only the
//!   slot range the changed prefix covers** (one slot for a /24, 256
//!   pages for a /8 — never the whole table) under a bumped generation
//!   number. The table keeps no published copy of itself: a page is
//!   written in place unless a pinned snapshot still shares it, and only
//!   then copied first (`Arc::make_mut`). A reader that re-pins after
//!   each batch, as the pipeline does, costs the writer no copies at all.
//! * Readers [`EpochLpm::pin`] a snapshot: the page table's and the spill
//!   blocks' `Arc`s (4096 + one per block), cloned under the writer lock
//!   — so a pin waits for an `apply` in progress and costs ~32 KiB plus
//!   an `Arc` bump per page. Once pinned, `lookup_many` batches run
//!   **wait-free** — they touch only the snapshot's own `Arc`s, which no
//!   writer mutates while the snapshot holds them.
//!
//! The table stores bare `u32` ids; the caller owns id assignment and
//! the id → value mapping (`eleph_bgp::LiveBgpTable` layers stable
//! `RouteId`s on top). Slot encoding is shared with `FlatLpm`: `0` =
//! miss, bit 31 set = spill-block index, otherwise `id + 1`.
//!
//! Writers are serialized by a mutex; `apply` cost is O(covered slots +
//! contained entries), plus one 16 KiB copy per touched page some
//! pinned snapshot shares. Old pinned snapshots stay valid (and
//! immutable) for as long as the reader holds them — that is the epoch:
//! a generation retires only when its last reader drops it.
//!
//! [`EpochLpm::from_entries`] paints through the routine `FlatLpm` uses
//! (`paint.rs`), striped over the cores as `FlatLpm`'s is, and builds
//! the table `apply`-ing its whole range would — the same pages, the
//! same pages left on the zero page, the same spill indices, whatever
//! the thread count. The pages a helper thread paints come from its own
//! malloc arena; while `apply` copied every page it touched, each copy
//! freed a helper's page into an arena the writer never allocates from
//! again, which is why the paint used to stay on one thread. Writing in
//! place, the pages stay where they were painted. `ops_live` on a
//! 2-core guest, `peak_rss_mib` over 5 runs and the median `setup_secs`:
//!
//! | variant | peak RSS, MiB | `setup_secs` |
//! |---|---:|---:|
//! | copy on every write, one-thread paint | 96.0 | 0.103 |
//! | copy on every write, striped paint | 107.4 | 0.081 |
//! | in place, one-thread paint | 71.0 | 0.102 |
//! | in place, striped paint | 72.1 | 0.085 |

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::flat::{EMPTY, SPILL_BIT};
use crate::paint::{self, Page, SpillBlock, N_PAGES, PAGE_BITS, PAGE_MASK, PAGE_SLOTS};
use crate::{LpmView, Prefix};

/// One announce or withdraw against an [`EpochLpm`].
///
/// Ids are caller-assigned and opaque to the table; an announce for a
/// prefix already present simply repaints it with the new id (the old
/// id is reported as retired). Ids must stay below `2³¹ − 1` so the
/// encoded form never collides with the spill bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpmDelta {
    /// Insert or replace the entry for `prefix`.
    Announce {
        /// The routed prefix.
        prefix: Prefix,
        /// Caller-assigned id returned by lookups matching `prefix`.
        id: u32,
    },
    /// Remove the entry for exactly `prefix` (a no-op if absent).
    Withdraw {
        /// The prefix to remove.
        prefix: Prefix,
    },
}

/// Result of one [`EpochLpm::apply`] batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Applied {
    /// Generation number this batch was applied as.
    pub generation: u64,
    /// Ids that stopped being reachable: withdrawn entries plus entries
    /// replaced by a re-announce, in batch order. Withdraws of absent
    /// prefixes contribute nothing.
    pub retired: Vec<u32>,
}

/// An immutable generation of an [`EpochLpm`].
///
/// Obtained from [`EpochLpm::pin`]; lookups against it never block and
/// never observe a later write (while it shares a page, the writer
/// copies that page before writing it). Cloning the `Arc` is a bump.
pub struct LpmSnapshot {
    pages: Vec<Arc<Page>>,
    spill: Vec<Arc<SpillBlock>>,
    generation: u64,
}

impl LpmSnapshot {
    /// Raw slot resolve: stage-1 page hop, then the optional spill hop.
    /// Same encoding as `FlatLpm` (`0` miss / `id + 1` / spill index).
    #[inline(always)]
    fn resolve_raw(&self, addr: u32) -> u32 {
        let idx = (addr >> 8) as usize;
        let slot = self.pages[idx >> PAGE_BITS][idx & PAGE_MASK];
        if slot & SPILL_BIT == 0 {
            slot
        } else {
            self.spill[(slot & !SPILL_BIT) as usize][(addr & 0xFF) as usize]
        }
    }

    /// Longest-prefix-match id for `addr`, or `None` on miss.
    #[inline]
    pub fn lookup_id(&self, addr: u32) -> Option<u32> {
        let raw = self.resolve_raw(addr);
        if raw == EMPTY {
            None
        } else {
            Some(raw - 1)
        }
    }

    /// Batched longest-prefix match; `out[i]` receives the id for
    /// `addrs[i]`. Wait-free with respect to concurrent writers.
    ///
    /// # Panics
    /// If `out.len() != addrs.len()`.
    pub fn lookup_many(&self, addrs: &[u32], out: &mut [Option<u32>]) {
        assert_eq!(
            addrs.len(),
            out.len(),
            "lookup_many: output length mismatch"
        );
        for (addr, slot) in addrs.iter().zip(out.iter_mut()) {
            *slot = self.lookup_id(*addr);
        }
    }

    /// Batched raw resolve (`0` = miss, else `id + 1`), the mirror of
    /// [`crate::FlatLpm::lookup_many_raw`].
    ///
    /// # Panics
    /// If `out.len() != addrs.len()`.
    pub fn lookup_many_raw(&self, addrs: &[u32], out: &mut [u32]) {
        assert_eq!(
            addrs.len(),
            out.len(),
            "lookup_many_raw: output length mismatch"
        );
        for (addr, slot) in addrs.iter().zip(out.iter_mut()) {
            *slot = self.resolve_raw(*addr);
        }
    }

    /// The generation number this snapshot was pinned at.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl fmt::Debug for LpmSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LpmSnapshot")
            .field("generation", &self.generation)
            .field("spill_blocks", &self.spill.len())
            .finish_non_exhaustive()
    }
}

impl LpmView<u32> for LpmSnapshot {
    fn lookup_one(&self, addr: u32) -> Option<u32> {
        self.lookup_id(addr)
    }

    fn lookup_batch(&self, addrs: &[u32], out: &mut [Option<u32>]) {
        self.lookup_many(addrs, out);
    }
}

/// Writer-side state: the authoritative prefix → id map plus the
/// current paint. Guarded by [`EpochLpm::writer`]; snapshots are built
/// by cloning the `Arc` vectors, and the writer writes a page or spill
/// block in place whenever no snapshot shares it.
struct Writer {
    /// Source-of-truth RIB: every live prefix and its current id.
    rib: BTreeMap<Prefix, u32>,
    /// Stage-1 page table; untouched pages alias `zero_page`.
    pages: Vec<Arc<Page>>,
    /// The shared all-[`EMPTY`] page.
    zero_page: Arc<Page>,
    /// Spill blocks for /24s containing longer-than-/24 prefixes.
    /// Indices on `free_spill` hold stale paint and are not referenced
    /// by any current stage-1 slot.
    spill: Vec<Arc<SpillBlock>>,
    /// Spill indices orphaned by withdraws/repaints, reused first.
    free_spill: Vec<u32>,
    /// Generation of the last applied batch.
    generation: u64,
}

impl Writer {
    fn new() -> Self {
        let zero_page: Arc<Page> = Arc::new([EMPTY; PAGE_SLOTS]);
        Writer {
            rib: BTreeMap::new(),
            pages: vec![zero_page.clone(); N_PAGES],
            zero_page,
            spill: Vec::new(),
            free_spill: Vec::new(),
            generation: 0,
        }
    }

    /// Encoded slot value of the longest *strict* ancestor of `covering`
    /// in the RIB ([`EMPTY`] if none) — what uncovered slots in its
    /// range must fall back to.
    fn ancestor_slot(&self, covering: Prefix) -> u32 {
        for len in (0..covering.len()).rev() {
            let anc = Prefix::from_u32(covering.bits(), len).expect("len < 32");
            if let Some(&id) = self.rib.get(&anc) {
                return id + 1;
            }
        }
        EMPTY
    }

    /// Current stage-1 slot value for /24 block `block`.
    fn slot(&self, block: usize) -> u32 {
        self.pages[block >> PAGE_BITS][block & PAGE_MASK]
    }

    /// Overwrite the stage-1 slot for /24 block `block` (in place, or a
    /// copy of the page if a snapshot shares it).
    fn set_slot(&mut self, block: usize, val: u32) {
        Arc::make_mut(&mut self.pages[block >> PAGE_BITS])[block & PAGE_MASK] = val;
    }

    /// Store `arr` as a spill block, reusing a freed index if one
    /// exists, and return its index.
    fn alloc_spill(&mut self, arr: SpillBlock) -> u32 {
        if let Some(i) = self.free_spill.pop() {
            self.spill[i as usize] = Arc::new(arr);
            i
        } else {
            assert!(
                (self.spill.len() as u32) < SPILL_BIT,
                "spill block index space exhausted"
            );
            self.spill.push(Arc::new(arr));
            (self.spill.len() - 1) as u32
        }
    }

    /// Fill stage-1 slots `[lo, hi]` with `val`, retiring any spill
    /// blocks the overwritten slots referenced. Page-granular: full
    /// pages being cleared re-alias the shared zero page instead of
    /// materializing.
    fn fill_range(&mut self, lo: usize, hi: usize, val: u32) {
        let mut s = lo;
        while s <= hi {
            let page_idx = s >> PAGE_BITS;
            let page_lo = s & PAGE_MASK;
            let page_hi = if hi >> PAGE_BITS == page_idx {
                hi & PAGE_MASK
            } else {
                PAGE_MASK
            };
            let full = page_lo == 0 && page_hi == PAGE_MASK;
            let already_empty = val == EMPTY && Arc::ptr_eq(&self.pages[page_idx], &self.zero_page);
            if !already_empty {
                let page = &self.pages[page_idx];
                for i in page_lo..=page_hi {
                    let old = page[i];
                    if old & SPILL_BIT != 0 {
                        self.free_spill.push(old & !SPILL_BIT);
                    }
                }
                if full && val == EMPTY {
                    self.pages[page_idx] = self.zero_page.clone();
                } else {
                    let arr = Arc::make_mut(&mut self.pages[page_idx]);
                    for slot in &mut arr[page_lo..=page_hi] {
                        *slot = val;
                    }
                }
            }
            s = (page_idx + 1) << PAGE_BITS;
        }
    }

    /// Recompute every slot covered by `covering` from the RIB. This is
    /// the incremental analogue of `FlatLpm::from_entries` restricted to
    /// one prefix's range: ancestor fallback, then contained entries
    /// painted in ascending prefix-length order, then per-/24 spill
    /// blocks for entries longer than /24.
    fn repaint(&mut self, covering: Prefix) {
        if covering.len() > 24 {
            self.repaint_block((covering.bits() >> 8) as usize);
            return;
        }
        let lo = (covering.bits() >> 8) as usize;
        let hi = (u32::from(covering.last_addr()) >> 8) as usize;
        let base = self.ancestor_slot(covering);
        self.fill_range(lo, hi, base);

        // Entries contained in `covering`: by the (bits, len) ordering
        // every RIB key in [covering, (last_addr, /32)] is contained —
        // a shorter prefix with bits in the range would have to be
        // aligned outside it, and (covering.bits, len < covering.len)
        // sorts before the range start.
        let last = u32::from(covering.last_addr());
        let mut contained: Vec<(Prefix, u32)> = self
            .rib
            .range(covering..)
            .take_while(|(p, _)| p.bits() <= last)
            .map(|(p, &id)| (*p, id))
            .collect();
        debug_assert!(contained.iter().all(|(p, _)| covering.contains_prefix(p)));
        contained.sort_by_key(|(p, _)| p.len());

        for &(p, id) in contained.iter().filter(|(p, _)| p.len() <= 24) {
            let s = (p.bits() >> 8) as usize;
            let e = (u32::from(p.last_addr()) >> 8) as usize;
            self.fill_range(s, e, id + 1);
        }

        // Longer-than-/24 entries, grouped per /24 block; each block's
        // spill is seeded with the block's post-paint stage-1 value.
        let mut longs: Vec<(usize, Prefix, u32)> = contained
            .iter()
            .filter(|(p, _)| p.len() > 24)
            .map(|&(p, id)| ((p.bits() >> 8) as usize, p, id))
            .collect();
        longs.sort_by_key(|&(block, p, _)| (block, p.len(), p.bits()));
        let mut k = 0;
        while k < longs.len() {
            let block = longs[k].0;
            let seed = self.slot(block);
            debug_assert_eq!(seed & SPILL_BIT, 0, "spill freed by fill_range");
            let mut arr = [seed; 256];
            while k < longs.len() && longs[k].0 == block {
                let (_, p, id) = longs[k];
                let s = (p.bits() & 0xFF) as usize;
                let e = (u32::from(p.last_addr()) & 0xFF) as usize;
                for slot in &mut arr[s..=e] {
                    *slot = id + 1;
                }
                k += 1;
            }
            let sb = self.alloc_spill(arr);
            self.set_slot(block, SPILL_BIT | sb);
        }
    }

    /// Recompute the single /24 block containing a longer-than-/24
    /// prefix that changed: reseed from the longest ≤ /24 covering
    /// entry, repaint the block's long entries, drop the spill block if
    /// none remain.
    fn repaint_block(&mut self, block: usize) {
        let start = (block as u32) << 8;
        let mut seed = EMPTY;
        for len in (0..=24).rev() {
            let anc = Prefix::from_u32(start, len).expect("len <= 24");
            if let Some(&id) = self.rib.get(&anc) {
                seed = id + 1;
                break;
            }
        }
        let range_start = Prefix::from_u32(start, 25).expect("valid /25");
        let longs: Vec<(Prefix, u32)> = self
            .rib
            .range(range_start..)
            .take_while(|(p, _)| p.bits() <= start | 0xFF)
            .map(|(p, &id)| (*p, id))
            .collect();
        debug_assert!(longs.iter().all(|(p, _)| p.len() > 24));

        let old = self.slot(block);
        if longs.is_empty() {
            if old & SPILL_BIT != 0 {
                self.free_spill.push(old & !SPILL_BIT);
            }
            self.set_slot(block, seed);
            return;
        }
        let mut arr = [seed; 256];
        let mut by_len = longs;
        by_len.sort_by_key(|(p, _)| p.len());
        for (p, id) in by_len {
            let s = (p.bits() & 0xFF) as usize;
            let e = (u32::from(p.last_addr()) & 0xFF) as usize;
            for slot in &mut arr[s..=e] {
                *slot = id + 1;
            }
        }
        if old & SPILL_BIT != 0 {
            let i = old & !SPILL_BIT;
            self.spill[i as usize] = Arc::new(arr);
            // stage-1 slot already points at `i`
        } else {
            let sb = self.alloc_spill(arr);
            self.set_slot(block, SPILL_BIT | sb);
        }
    }

    fn snapshot(&self) -> Arc<LpmSnapshot> {
        Arc::new(LpmSnapshot {
            pages: self.pages.clone(),
            spill: self.spill.clone(),
            generation: self.generation,
        })
    }
}

/// An incrementally updatable LPM table with pinned, immutable
/// generations.
///
/// See the [module docs](self) for the design. In short: one writer at
/// a time [`EpochLpm::apply`]s announce/withdraw batches (each batch is
/// a new generation); any number of readers [`EpochLpm::pin`] the
/// current generation and run wait-free lookups against it.
///
/// ```
/// use eleph_net::{EpochLpm, LpmDelta, Prefix};
///
/// let table = EpochLpm::new();
/// let p: Prefix = "10.0.0.0/8".parse().unwrap();
/// table.apply(&[LpmDelta::Announce { prefix: p, id: 7 }]);
///
/// let snap = table.pin();
/// assert_eq!(snap.lookup_id(0x0A000001), Some(7)); // 10.0.0.1
/// assert_eq!(snap.generation(), 1);
/// ```
pub struct EpochLpm {
    writer: Mutex<Writer>,
}

impl EpochLpm {
    /// An empty table at generation 0. Costs ~48 KiB (one shared zero
    /// page plus the page table), not the 64 MiB of a populated
    /// stage 1; pages materialize as routes are announced.
    pub fn new() -> Self {
        EpochLpm {
            writer: Mutex::new(Writer::new()),
        }
    }

    /// Bulk-build from `(prefix, id)` entries (later duplicates win) as
    /// generation 0. Equivalent to applying every entry as an announce
    /// but painted in one pass, stage 1 striped over the cores.
    ///
    /// # Panics
    /// If any id is `>= 2³¹ − 1` (the encoding reserves bit 31).
    pub fn from_entries<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (Prefix, u32)>,
    {
        Self::from_entries_striped(entries, paint::stripes())
    }

    /// [`EpochLpm::from_entries`] with stage 1 painted on `stripes`
    /// threads.
    fn from_entries_striped<I>(entries: I, stripes: usize) -> Self
    where
        I: IntoIterator<Item = (Prefix, u32)>,
    {
        let entries: Vec<(Prefix, u32)> = entries
            .into_iter()
            .inspect(|&(_, id)| assert!(id < SPILL_BIT - 1, "id {id} collides with slot encoding"))
            .collect();
        let entries = crate::rib_order(entries, |e| e.0);
        let mut writer = Writer::new();
        let Writer { pages, spill, .. } = &mut writer;
        paint::paint(&entries, pages, stripes, |block| {
            spill.push(Arc::new(block));
            (spill.len() - 1) as u32
        });
        // Built in bulk from RIB order, not inserted one entry at a time.
        writer.rib = entries.into_iter().collect();
        EpochLpm {
            writer: Mutex::new(writer),
        }
    }

    /// Apply a batch of deltas as a new generation (even an empty batch
    /// bumps it, so callers can use generations to fence). Writers are
    /// serialized; pages no snapshot shares are written in place, and
    /// concurrent readers keep resolving against their pinned snapshots
    /// throughout.
    ///
    /// # Panics
    /// If an announced id is `>= 2³¹ − 1`.
    pub fn apply(&self, deltas: &[LpmDelta]) -> Applied {
        let mut w = self.writer.lock().expect("epoch writer poisoned");
        let mut retired = Vec::new();
        for delta in deltas {
            match *delta {
                LpmDelta::Announce { prefix, id } => {
                    assert!(id < SPILL_BIT - 1, "id {id} collides with slot encoding");
                    if let Some(old) = w.rib.insert(prefix, id) {
                        retired.push(old);
                    }
                    w.repaint(prefix);
                }
                LpmDelta::Withdraw { prefix } => {
                    if let Some(old) = w.rib.remove(&prefix) {
                        retired.push(old);
                        w.repaint(prefix);
                    }
                }
            }
        }
        w.generation += 1;
        Applied {
            generation: w.generation,
            retired,
        }
    }

    /// Pin the current generation: the page table's and spill blocks'
    /// `Arc`s, cloned under the writer lock (so this waits for an
    /// `apply` in progress). All lookups against the returned snapshot
    /// are wait-free and see exactly that generation; while it is held,
    /// `apply` copies each page it shares before writing it.
    pub fn pin(&self) -> Arc<LpmSnapshot> {
        self.writer
            .lock()
            .expect("epoch writer poisoned")
            .snapshot()
    }

    /// Generation of the last applied batch (0 = as built).
    pub fn generation(&self) -> u64 {
        self.writer
            .lock()
            .expect("epoch writer poisoned")
            .generation
    }

    /// The live `(prefix, id)` entries in ascending (RIB-dump) order.
    pub fn entries(&self) -> Vec<(Prefix, u32)> {
        let w = self.writer.lock().expect("epoch writer poisoned");
        w.rib.iter().map(|(p, &id)| (*p, id)).collect()
    }

    /// `(allocated, free)` spill-block counts — allocation telemetry
    /// for the tests.
    #[cfg(test)]
    fn spill_stats(&self) -> (usize, usize) {
        let w = self.writer.lock().expect("epoch writer poisoned");
        (w.spill.len(), w.free_spill.len())
    }
}

impl Default for EpochLpm {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for EpochLpm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.writer.lock().expect("epoch writer poisoned");
        f.debug_struct("EpochLpm")
            .field("len", &w.rib.len())
            .field("generation", &w.generation)
            .field("spill_blocks", &w.spill.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatLpm;
    use proptest::prelude::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Approximate resident table memory in bytes: materialized pages,
    /// the page table, and spill blocks. An empty table reports ~48 KiB.
    fn table_bytes(table: &EpochLpm) -> usize {
        let w = table.writer.lock().expect("epoch writer poisoned");
        let resident = w
            .pages
            .iter()
            .filter(|p| !Arc::ptr_eq(p, &w.zero_page))
            .count();
        (resident + 1) * PAGE_SLOTS * 4
            + w.pages.len() * std::mem::size_of::<Arc<Page>>()
            + w.spill.len() * 256 * 4
    }

    fn announce(prefix: &str, id: u32) -> LpmDelta {
        LpmDelta::Announce {
            prefix: p(prefix),
            id,
        }
    }

    fn withdraw(prefix: &str) -> LpmDelta {
        LpmDelta::Withdraw { prefix: p(prefix) }
    }

    /// Check the snapshot agrees with a `FlatLpm` frozen from the same
    /// final entries, across every probe address — by *prefix*, since
    /// epoch ids are caller-assigned while flat ids are dump-ordered.
    fn assert_matches_flat(table: &EpochLpm, probes: &[u32]) {
        let entries = table.entries();
        let flat: FlatLpm<u32> = FlatLpm::from_entries(entries.iter().map(|&(p, id)| (p, id)));
        let snap = table.pin();
        let id_to_prefix: std::collections::HashMap<u32, Prefix> =
            entries.iter().map(|&(p, id)| (id, p)).collect();
        for &addr in probes {
            let via_epoch = snap.lookup_id(addr).map(|id| id_to_prefix[&id]);
            let via_flat = flat.lookup_id(addr).map(|id| flat.prefix(id));
            assert_eq!(via_epoch, via_flat, "addr {addr:#010x}");
            // scalar and batch paths agree
            let mut out = [None];
            snap.lookup_many(&[addr], &mut out);
            assert_eq!(out[0], snap.lookup_id(addr));
            let mut raw = [0u32];
            snap.lookup_many_raw(&[addr], &mut raw);
            assert_eq!(raw[0], snap.lookup_id(addr).map_or(0, |id| id + 1));
        }
    }

    fn probes_for(table: &EpochLpm) -> Vec<u32> {
        let mut probes = vec![0, 1, u32::MAX, 0x0A00_0000, 0xC0A8_0101];
        for (pfx, _) in table.entries() {
            let first = pfx.bits();
            let last = u32::from(pfx.last_addr());
            probes.extend([
                first,
                last,
                first.wrapping_sub(1),
                last.wrapping_add(1),
                first.wrapping_add((last - first) / 2),
            ]);
        }
        probes
    }

    #[test]
    fn empty_table_is_tiny_and_upgrades_on_first_insert() {
        let table = EpochLpm::new();
        assert!(
            table_bytes(&table) < 128 * 1024,
            "empty table must stay small"
        );
        assert_eq!(table.pin().lookup_id(0x0A000001), None);

        let applied = table.apply(&[announce("10.0.0.0/24", 3)]);
        assert_eq!(applied.generation, 1);
        assert!(applied.retired.is_empty());
        let snap = table.pin();
        assert_eq!(snap.lookup_id(0x0A000001), Some(3));
        assert_eq!(snap.lookup_id(0x0A000101), None);
        // one page materialized, not the whole table
        assert!(table_bytes(&table) < 256 * 1024);
    }

    #[test]
    fn matches_flat_through_mixed_delta_sequence() {
        let table = EpochLpm::new();
        let batches: &[&[LpmDelta]] = &[
            &[announce("10.0.0.0/8", 0), announce("10.1.0.0/16", 1)],
            &[announce("10.1.2.0/26", 2), announce("10.1.2.64/26", 3)],
            &[announce("10.1.2.0/25", 4), announce("0.0.0.0/0", 5)],
            &[withdraw("10.1.0.0/16")],
            &[announce("10.1.0.0/16", 6)], // re-announce, fresh id
            &[withdraw("10.1.2.0/26"), withdraw("10.0.0.0/8")],
            &[
                announce("192.168.0.0/12", 7),
                announce("192.168.1.128/25", 8),
            ],
            &[withdraw("0.0.0.0/0")],
        ];
        for batch in batches {
            table.apply(batch);
            assert_matches_flat(&table, &probes_for(&table));
        }
    }

    #[test]
    fn reannounce_retires_old_id() {
        let table = EpochLpm::new();
        table.apply(&[announce("10.0.0.0/16", 1)]);
        let applied = table.apply(&[announce("10.0.0.0/16", 9)]);
        assert_eq!(applied.retired, vec![1]);
        assert_eq!(table.pin().lookup_id(0x0A000001), Some(9));
        let applied = table.apply(&[withdraw("10.0.0.0/16")]);
        assert_eq!(applied.retired, vec![9]);
        assert_eq!(table.pin().lookup_id(0x0A000001), None);
        // withdrawing an absent prefix is a no-op but still publishes
        let applied = table.apply(&[withdraw("10.0.0.0/16")]);
        assert!(applied.retired.is_empty());
        assert_eq!(applied.generation, 4);
    }

    #[test]
    fn spill_blocks_are_freed_and_reused() {
        let table = EpochLpm::new();
        table.apply(&[announce("10.0.0.128/26", 1)]);
        assert_eq!(table.spill_stats(), (1, 0));
        table.apply(&[withdraw("10.0.0.128/26")]);
        assert_eq!(table.spill_stats(), (1, 1));
        table.apply(&[announce("172.16.5.0/30", 2)]);
        assert_eq!(table.spill_stats(), (1, 0), "freed block reused");
        assert_eq!(
            table.pin().lookup_id(0x0A000081),
            None,
            "stale paint unreachable"
        );
        assert_eq!(table.pin().lookup_id(0xAC100502), Some(2));
    }

    #[test]
    fn covering_withdraw_frees_contained_spill() {
        let table = EpochLpm::new();
        table.apply(&[announce("10.0.0.0/16", 1), announce("10.0.7.0/26", 2)]);
        assert_eq!(table.spill_stats(), (1, 0));
        // repainting the covering /16 rebuilds the /24 block's spill
        table.apply(&[announce("10.0.0.0/16", 3)]);
        let (alloc, free) = table.spill_stats();
        assert_eq!(alloc - free, 1, "exactly one live spill block");
        assert_eq!(table.pin().lookup_id(0x0A000701), Some(2));
        assert_eq!(
            table.pin().lookup_id(0x0A000741),
            Some(3),
            "seed follows new id"
        );
        table.apply(&[withdraw("10.0.7.0/26"), withdraw("10.0.0.0/16")]);
        let (alloc, free) = table.spill_stats();
        assert_eq!(alloc, free, "no live spill blocks remain");
        assert_eq!(table.pin().lookup_id(0x0A000701), None);
    }

    #[test]
    fn pinned_snapshot_is_immutable_across_writes() {
        let table = EpochLpm::new();
        table.apply(&[announce("10.0.0.0/8", 1)]);
        let old = table.pin();
        table.apply(&[announce("10.0.0.0/8", 2), announce("10.9.0.0/16", 3)]);
        assert_eq!(old.lookup_id(0x0A090001), Some(1), "pinned epoch unchanged");
        assert_eq!(old.generation(), 1);
        let new = table.pin();
        assert_eq!(new.lookup_id(0x0A090001), Some(3));
        assert_eq!(new.generation(), 2);
    }

    #[test]
    fn apply_writes_in_place_unless_a_snapshot_is_pinned() {
        let table = EpochLpm::new();
        table.apply(&[announce("10.0.0.0/16", 1)]);
        // 10.0.0.0/12 is exactly one page, materialized by the /16.
        let page = 0x0A00_0000usize >> (8 + PAGE_BITS);
        let page_at = |t: &EpochLpm| Arc::as_ptr(&t.writer.lock().unwrap().pages[page]);
        let painted = page_at(&table);

        table.apply(&[announce("10.0.1.0/24", 2)]);
        assert_eq!(
            page_at(&table),
            painted,
            "no snapshot pinned: written in place"
        );

        let pinned = table.pin();
        table.apply(&[announce("10.0.1.0/24", 3)]);
        let copied = page_at(&table);
        assert_ne!(
            copied, painted,
            "a pinned snapshot shares the page: the writer copies it"
        );
        assert_eq!(Arc::as_ptr(&pinned.pages[page]), painted);
        assert_eq!(
            pinned.lookup_id(0x0A00_0101),
            Some(2),
            "the pin resolves the old id"
        );
        assert_eq!(table.pin().lookup_id(0x0A00_0101), Some(3));

        drop(pinned);
        table.apply(&[announce("10.0.1.0/24", 4)]);
        assert_eq!(page_at(&table), copied, "the pin dropped: in place again");
        assert_eq!(table.pin().lookup_id(0x0A00_0101), Some(4));
    }

    #[test]
    fn from_entries_matches_incremental_build() {
        let entries = vec![
            (p("10.0.0.0/8"), 0),
            (p("10.1.0.0/16"), 1),
            (p("10.1.2.192/27"), 2),
            (p("0.0.0.0/0"), 3),
            (p("203.0.113.0/24"), 4),
        ];
        let bulk = EpochLpm::from_entries(entries.clone());
        assert_eq!(bulk.generation(), 0);
        let inc = EpochLpm::new();
        for (prefix, id) in entries {
            inc.apply(&[LpmDelta::Announce { prefix, id }]);
        }
        for &addr in &probes_for(&bulk) {
            assert_eq!(bulk.pin().lookup_id(addr), inc.pin().lookup_id(addr));
        }
        assert_matches_flat(&bulk, &probes_for(&bulk));
    }

    /// The table `from_entries` built before it had a paint of its own:
    /// every entry inserted, then the whole address range repainted.
    fn repainted(entries: &[(Prefix, u32)]) -> EpochLpm {
        let mut writer = Writer::new();
        for &(prefix, id) in entries {
            writer.rib.insert(prefix, id);
        }
        writer.repaint(p("0.0.0.0/0"));
        EpochLpm {
            writer: Mutex::new(writer),
        }
    }

    /// `a` and `b` are one table: the same RIB, the same pages with the
    /// same ones left on the zero page, the same spill blocks under the
    /// same indices, the same free list and generation.
    fn assert_same_table(a: &EpochLpm, b: &EpochLpm, what: &str) {
        let (a, b) = (a.writer.lock().unwrap(), b.writer.lock().unwrap());
        assert_eq!(a.rib, b.rib, "{what}: rib");
        for (i, (pa, pb)) in a.pages.iter().zip(&b.pages).enumerate() {
            let shared = (Arc::ptr_eq(pa, &a.zero_page), Arc::ptr_eq(pb, &b.zero_page));
            assert_eq!(shared.0, shared.1, "{what}: page {i} on the zero page");
            assert!(pa[..] == pb[..], "{what}: page {i}");
        }
        assert_eq!(a.spill.len(), b.spill.len(), "{what}: spill blocks");
        for (i, (sa, sb)) in a.spill.iter().zip(&b.spill).enumerate() {
            assert!(sa[..] == sb[..], "{what}: spill block {i}");
        }
        assert_eq!(a.free_spill, b.free_spill, "{what}: free list");
        assert_eq!(a.generation, b.generation, "{what}: generation");
    }

    /// Prefixes of every length, a quarter of them inside 10.0.0.0/22 so
    /// that long prefixes share spill blocks and nest.
    fn arb_prefix() -> impl Strategy<Value = Prefix> {
        let bits = prop_oneof![
            3 => any::<u32>(),
            1 => (0u32..0x400).prop_map(|x| 0x0A00_0000 | x)
        ];
        (bits, prop_oneof![0u8..=32, 16u8..=32, 25u8..=32])
            .prop_map(|(bits, len)| Prefix::from_u32(bits, len).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn from_entries_is_the_repainted_table(
            entries in prop::collection::vec((arb_prefix(), 0u32..1000), 0..40),
            ops in prop::collection::vec((arb_prefix(), any::<bool>(), 0u32..1000), 0..16),
        ) {
            let old = repainted(&entries);
            let new = EpochLpm::from_entries(entries.iter().copied());
            assert_same_table(&new, &old, "as built");
            // Spill blocks freed and reused in the same order afterwards.
            for (k, &(prefix, announce, id)) in ops.iter().enumerate() {
                let delta = if announce {
                    LpmDelta::Announce { prefix, id }
                } else {
                    LpmDelta::Withdraw { prefix }
                };
                assert_eq!(new.apply(&[delta]), old.apply(&[delta]));
                assert_same_table(&new, &old, &format!("after op {k}"));
            }
        }
    }

    proptest! {
        // Six builds and up to 51 whole-table comparisons a case.
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn from_entries_striped_is_one_table_at_every_stripe_count(
            entries in prop::collection::vec((arb_prefix(), 0u32..1000), 0..40),
            ops in prop::collection::vec((arb_prefix(), any::<bool>(), 0u32..1000), 0..16),
        ) {
            // Two tables at a time: a /0 entry materializes all 64 MiB.
            for stripes in [2, 3, 8] {
                let one = EpochLpm::from_entries_striped(entries.iter().copied(), 1);
                let striped = EpochLpm::from_entries_striped(entries.iter().copied(), stripes);
                assert_same_table(&striped, &one, &format!("{stripes} stripes as built"));
                for (k, &(prefix, announce, id)) in ops.iter().enumerate() {
                    let delta = if announce {
                        LpmDelta::Announce { prefix, id }
                    } else {
                        LpmDelta::Withdraw { prefix }
                    };
                    assert_eq!(striped.apply(&[delta]), one.apply(&[delta]));
                    assert_same_table(&striped, &one, &format!("{stripes} stripes, op {k}"));
                }
            }
        }
    }

    #[test]
    fn concurrent_readers_never_observe_torn_state() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc as StdArc;

        // Writer flips 10.0.0.0/8 between two ids; readers must only
        // ever see one of them (or the generation-consistent miss
        // before the first announce), never a mix within one batch.
        let table = StdArc::new(EpochLpm::new());
        let stop = StdArc::new(AtomicBool::new(false));
        let addrs: Vec<u32> = (0..256).map(|i| 0x0A000000 + i * 65_537).collect();

        let readers: Vec<_> = (0..3)
            .map(|_| {
                let table = table.clone();
                let stop = stop.clone();
                let addrs = addrs.clone();
                std::thread::spawn(move || {
                    let mut out = vec![None; addrs.len()];
                    let mut seen = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = table.pin();
                        snap.lookup_many(&addrs, &mut out);
                        let first = out[0];
                        assert!(
                            out.iter().all(|&r| r == first),
                            "torn read within one pinned generation"
                        );
                        seen += 1;
                    }
                    seen
                })
            })
            .collect();

        for round in 0..200u32 {
            table.apply(&[announce("10.0.0.0/8", round % 2)]);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        assert_eq!(table.generation(), 200);
    }
}
