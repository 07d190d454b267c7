//! DIR-24-8-style flat-array LPM — the frozen read path.
//!
//! Building a table ([`FlatLpm::from_entries`], [`FlatLpm::from_values`])
//! paints stage 1 on one thread per core (at most eight, each owning an
//! address range; see `paint.rs`); the table built is the same, byte for
//! byte, whatever the thread count. Lookups never spawn anything.

use std::fmt;

use crate::paint::{self, PAGE_SLOTS};
use crate::Prefix;

/// Slot encoding for [`FlatLpm`]'s tables.
///
/// `0` = no matching entry. Otherwise, in stage 1, bit 31 set means the
/// low bits index a 256-slot spill block (the covered /24 contains a
/// prefix longer than /24); bit 31 clear means the low bits are
/// `entry_index + 1`. Spill slots use the `entry_index + 1` encoding
/// only.
pub(crate) const EMPTY: u32 = 0;
pub(crate) const SPILL_BIT: u32 = 1 << 31;

/// A read-optimized, frozen longest-prefix-match table in the style of
/// DIR-24-8 (Gupta/Lin/McKeown's "Routing Lookups in Hardware at Memory
/// Access Speeds"), the layout hardware and kernel fast paths use.
///
/// Stage 1 is a direct-indexed array over the top 24 address bits
/// (2²⁴ × 4 B = 64 MiB; an *empty* table instead keeps a single masked
/// slot, so freezing it costs nothing); prefixes longer than /24 spill
/// into per-/24 blocks of 256 slots indexed by the last octet. Every
/// lookup is therefore **O(1) with at most two dependent memory reads**, versus
/// the pointer chase of a trie — on a backbone RIB this is roughly an
/// order of magnitude faster per lookup (the benchmark's
/// `net.flat_lookup_ns_per_pkt` times it).
///
/// The table is *frozen*: built once from a route list (any entry
/// iterator) and immutable afterwards — matching how routers
/// separate the RIB (updated by BGP) from the FIB (optimized for the
/// data plane). Entries are stored densely in RIB-dump order, so
/// [`FlatLpm::lookup_id`] also serves as a perfect `Prefix → dense id`
/// resolver for downstream accounting.
#[derive(Clone)]
pub struct FlatLpm<V> {
    /// Direct index over `(addr >> 8) & stage1_mask`.
    stage1: Vec<u32>,
    /// Index mask for `stage1`: `2²⁴ − 1` for a populated table, `0` for
    /// an empty one (whose stage 1 is a single always-[`EMPTY`] slot).
    /// Masking keeps [`FlatLpm::lookup_id`] branch-free while letting
    /// the empty table skip the 64 MiB stage-1 allocation.
    stage1_mask: usize,
    /// 256-slot blocks for /24s containing longer-than-/24 prefixes.
    spill: Vec<u32>,
    /// Prefixes in ascending (RIB-dump) order; parallel to `values`.
    prefixes: Vec<Prefix>,
    /// Route values, dense, parallel to `prefixes`.
    values: Vec<V>,
}

/// One table resolve against a pre-sliced stage 1 (`stage1.len() ==
/// mask + 1`, so the index's bounds check folds away): the shared body
/// of the batch loops, kept identical to [`FlatLpm::lookup_id`] so both
/// paths optimize the same way.
#[inline(always)]
fn resolve_raw(stage1: &[u32], spill: &[u32], mask: usize, addr: u32) -> u32 {
    let slot = stage1[(addr >> 8) as usize & mask];
    if slot & SPILL_BIT == 0 {
        slot
    } else {
        spill[(((slot & !SPILL_BIT) as usize) << 8) + (addr & 0xFF) as usize]
    }
}

/// [`resolve_raw`] decoded to the public id form.
#[inline(always)]
fn resolve(stage1: &[u32], spill: &[u32], mask: usize, addr: u32) -> Option<u32> {
    let resolved = resolve_raw(stage1, spill, mask, addr);
    if resolved == EMPTY {
        None
    } else {
        Some(resolved - 1)
    }
}

/// Put `entries` into RIB-dump order: ascending [`Prefix`] order, one
/// entry per prefix, a later duplicate replacing the earlier one (the
/// outcome of inserting them one by one into a map keyed by prefix).
///
/// This is the order [`FlatLpm`] assigns its dense ids in. Input that
/// is already strictly ascending — a dump written by a table, a table
/// iterator — is returned as it came after one comparison pass;
/// anything else is stably sorted and deduplicated in place. Entries
/// are moved, never cloned.
pub fn rib_order<T>(mut entries: Vec<T>, prefix: impl Fn(&T) -> Prefix) -> Vec<T> {
    if !entries.windows(2).all(|w| prefix(&w[0]) < prefix(&w[1])) {
        // Stable, so among equal prefixes the last one read is last.
        entries.sort_by_key(&prefix);
        entries.dedup_by(|later, kept| {
            let duplicate = prefix(later) == prefix(kept);
            if duplicate {
                std::mem::swap(later, kept);
            }
            duplicate
        });
    }
    entries
}

impl<V> FlatLpm<V> {
    /// Build from `(prefix, value)` entries. A later duplicate prefix
    /// replaces the earlier one, as [`rib_order`] says.
    ///
    /// Values are moved, never cloned, and entries that already arrive
    /// in RIB-dump order (every table iterator yields them so) are not
    /// sorted again — see [`rib_order`].
    pub fn from_entries<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (Prefix, V)>,
    {
        let (prefixes, values) = rib_order(entries.into_iter().collect(), |e| e.0)
            .into_iter()
            .unzip();
        Self::build(prefixes, values)
    }

    /// [`FlatLpm::from_entries`] for values that carry their own prefix
    /// (`prefix(&v)`): the vector handed in, put into [`rib_order`],
    /// *is* the table's value store — no value is moved twice and no
    /// second vector of them is allocated.
    pub fn from_values(values: Vec<V>, prefix: impl Fn(&V) -> Prefix) -> Self {
        let values = rib_order(values, &prefix);
        Self::build(values.iter().map(prefix).collect(), values)
    }

    /// The one build routine: paint the lookup arrays for `prefixes`
    /// (strictly ascending — which fixes the dense id order to the
    /// conventional RIB dump order — and parallel to `values`).
    fn build(prefixes: Vec<Prefix>, values: Vec<V>) -> Self {
        Self::build_striped(prefixes, values, paint::stripes())
    }

    /// [`FlatLpm::build`] with stage 1 painted on `stripes` threads.
    fn build_striped(prefixes: Vec<Prefix>, values: Vec<V>, stripes: usize) -> Self {
        debug_assert_eq!(prefixes.len(), values.len());
        debug_assert!(prefixes.windows(2).all(|w| w[0] < w[1]));

        // An empty table gets a single permanently-EMPTY stage-1 slot
        // (reached through `stage1_mask == 0`) instead of the 64 MiB
        // array: freezing empty tables is common in tests and start-up
        // paths and must stay cheap.
        if prefixes.is_empty() {
            return FlatLpm {
                stage1: vec![EMPTY; 1],
                stage1_mask: 0,
                spill: Vec::new(),
                prefixes,
                values,
            };
        }

        // Zeroed straight from the allocator: the paint touches only the
        // pages a prefix lands on.
        let mut stage1 = vec![EMPTY; 1 << 24];
        let mut spill: Vec<u32> = Vec::new();
        let entries: Vec<(Prefix, u32)> = prefixes.iter().copied().zip(0..).collect();
        let mut pages: Vec<&mut [u32]> = stage1.chunks_mut(PAGE_SLOTS).collect();
        paint::paint(&entries, &mut pages, stripes, |block| {
            spill.extend_from_slice(&block);
            (spill.len() / 256 - 1) as u32
        });

        FlatLpm {
            stage1,
            stage1_mask: (1 << 24) - 1,
            spill,
            prefixes,
            values,
        }
    }

    /// Number of entries.
    #[allow(
        clippy::len_without_is_empty,
        reason = "an `is_empty` that nothing calls is dead code"
    )]
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// The dense id of the longest prefix containing `addr`, if any.
    ///
    /// Ids are indices into RIB-dump order: `0..len()`, stable for the
    /// lifetime of the table. This is the allocation- and hash-free
    /// attribution primitive the packet hot path uses.
    #[inline]
    pub fn lookup_id(&self, addr: u32) -> Option<u32> {
        let slot = self.stage1[(addr >> 8) as usize & self.stage1_mask];
        let resolved = if slot & SPILL_BIT == 0 {
            slot
        } else {
            let base = ((slot & !SPILL_BIT) as usize) << 8;
            self.spill[base + (addr & 0xFF) as usize]
        };
        if resolved == EMPTY {
            None
        } else {
            Some(resolved - 1)
        }
    }

    /// Batched [`FlatLpm::lookup_id`]: resolve every address in `addrs`
    /// into the matching slot of `out` (`None` = no matching prefix).
    ///
    /// Compared with calling [`FlatLpm::lookup_id`] in a loop, the
    /// batched form keeps the whole resolve loop free of per-call
    /// overhead: the stage-1 bounds check is hoisted out via the masked
    /// re-slice (the compiler proves `index ≤ mask < len`), no lane
    /// consumes another lane's result (so stage-1 cache misses overlap
    /// across the out-of-order window instead of serialising against
    /// surrounding per-packet control flow), and the hit/miss decision
    /// is shared with [`FlatLpm::lookup_id`]. On a pure lookup loop the
    /// per-address form is already memory-parallelism bound and the two
    /// tie (the benchmark's `net.flat_lookup_ns_per_pkt`); embedded in
    /// per-packet work the batch form pulls ahead — the benchmark's
    /// `bgp.attribute_ns_per_pkt` times it there.
    ///
    /// # Panics
    /// If `addrs` and `out` differ in length.
    pub fn lookup_many(&self, addrs: &[u32], out: &mut [Option<u32>]) {
        assert_eq!(
            addrs.len(),
            out.len(),
            "lookup_many: addrs and out must have equal lengths"
        );
        // `stage1.len() == stage1_mask + 1` by construction; re-slicing
        // here lets the compiler see it, eliding the per-lane bounds
        // check the single-address path pays.
        let mask = self.stage1_mask;
        let stage1 = &self.stage1[..mask + 1];
        for (o, &addr) in out.iter_mut().zip(addrs) {
            *o = resolve(stage1, &self.spill, mask, addr);
        }
    }

    /// The ids-only core of [`FlatLpm::lookup_many`]: writes the dense
    /// id **plus one** per address, with `0` meaning "no match" — the
    /// same encoding the table stores internally, so the inner loops
    /// stay branch-free. Use this form when the caller keeps a reusable
    /// `u32` buffer and wants the cheapest possible batch resolve;
    /// [`FlatLpm::lookup_many`] is the `Option`-decoded convenience.
    ///
    /// # Panics
    /// If `addrs` and `out` differ in length.
    pub fn lookup_many_raw(&self, addrs: &[u32], out: &mut [u32]) {
        assert_eq!(
            addrs.len(),
            out.len(),
            "lookup_many_raw: addrs and out must have equal lengths"
        );
        let mask = self.stage1_mask;
        let stage1 = &self.stage1[..mask + 1];
        // One fused loop with no lane-to-lane dependency: every stage-1
        // load can issue before any earlier lane resolves, so the
        // out-of-order window overlaps the misses; the masked re-slice
        // above elides the per-lane bounds check, and the spill hop is
        // rare and well-predicted.
        for (o, &addr) in out.iter_mut().zip(addrs) {
            *o = resolve_raw(stage1, &self.spill, mask, addr);
        }
    }

    /// Longest-prefix match returning the dense id alongside the entry.
    #[inline]
    pub fn lookup_with_id(&self, addr: u32) -> Option<(u32, Prefix, &V)> {
        let id = self.lookup_id(addr)?;
        Some((id, self.prefixes[id as usize], &self.values[id as usize]))
    }

    /// Longest-prefix match for a host-order address.
    #[inline]
    pub fn lookup(&self, addr: u32) -> Option<(Prefix, &V)> {
        let id = self.lookup_id(addr)?;
        Some((self.prefixes[id as usize], &self.values[id as usize]))
    }

    /// Longest-prefix match for an [`std::net::Ipv4Addr`].
    #[inline]
    pub fn lookup_addr(&self, addr: std::net::Ipv4Addr) -> Option<(Prefix, &V)> {
        self.lookup(u32::from(addr))
    }

    /// Exact-match fetch.
    pub fn get(&self, prefix: Prefix) -> Option<&V> {
        let id = self.id_of(prefix)?;
        Some(&self.values[id as usize])
    }

    /// The dense id of exactly `prefix`, if present.
    pub fn id_of(&self, prefix: Prefix) -> Option<u32> {
        self.prefixes.binary_search(&prefix).ok().map(|i| i as u32)
    }

    /// The prefix stored under dense id `id`.
    #[inline]
    pub fn prefix(&self, id: u32) -> Prefix {
        self.prefixes[id as usize]
    }

    /// The value stored under dense id `id`.
    #[inline]
    pub fn value(&self, id: u32) -> &V {
        &self.values[id as usize]
    }

    /// Iterate entries in RIB-dump order (= dense id order).
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> {
        self.prefixes.iter().copied().zip(self.values.iter())
    }

    /// Bytes of table memory (stage 1 + spill blocks), excluding the
    /// entry arrays — the cache-footprint diagnostic.
    pub fn table_bytes(&self) -> usize {
        (self.stage1.len() + self.spill.len()) * std::mem::size_of::<u32>()
    }

    /// Number of 256-slot spill blocks (/24s containing >/24 prefixes).
    fn spill_blocks(&self) -> usize {
        self.spill.len() / 256
    }
}

impl<V> FromIterator<(Prefix, V)> for FlatLpm<V> {
    fn from_iter<I: IntoIterator<Item = (Prefix, V)>>(iter: I) -> Self {
        Self::from_entries(iter)
    }
}

// The derived Debug would print 16M stage-1 slots; summarize instead.
impl<V: fmt::Debug> fmt::Debug for FlatLpm<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlatLpm")
            .field("len", &self.len())
            .field("spill_blocks", &self.spill_blocks())
            .field("table_bytes", &self.table_bytes())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearLpm;
    use proptest::prelude::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn basic_longest_match() {
        let t = FlatLpm::from_entries(vec![
            (p("0.0.0.0/0"), "default"),
            (p("10.0.0.0/8"), "eight"),
            (p("10.1.0.0/16"), "sixteen"),
            (p("10.1.2.0/24"), "twentyfour"),
            (p("10.1.2.128/25"), "twentyfive"),
        ]);
        let case = |addr: &str| {
            t.lookup_addr(addr.parse().unwrap())
                .map(|(p, v)| (p.to_string(), *v))
                .unwrap()
        };
        assert_eq!(case("10.1.2.200"), ("10.1.2.128/25".into(), "twentyfive"));
        assert_eq!(case("10.1.2.3"), ("10.1.2.0/24".into(), "twentyfour"));
        assert_eq!(case("10.1.9.3"), ("10.1.0.0/16".into(), "sixteen"));
        assert_eq!(case("10.200.0.1"), ("10.0.0.0/8".into(), "eight"));
        assert_eq!(case("203.0.113.7"), ("0.0.0.0/0".into(), "default"));
    }

    #[test]
    fn empty_table() {
        let t: FlatLpm<u32> = FlatLpm::from_entries(Vec::new());
        assert_eq!(t.len(), 0);
        assert_eq!(t.lookup(0), None);
        assert_eq!(t.lookup(u32::MAX), None);
        assert_eq!(t.lookup_id(12345), None);
        assert_eq!(t.spill_blocks(), 0);
    }

    #[test]
    fn empty_table_does_not_allocate_stage1() {
        // Regression: freezing an empty table used to allocate the full
        // 64 MiB stage-1 array.
        let t: FlatLpm<u32> = FlatLpm::from_entries(Vec::new());
        assert!(
            t.table_bytes() < 64,
            "empty table holds {} bytes of lookup tables",
            t.table_bytes()
        );
        // And lookups on the tiny representation stay correct.
        for addr in [0u32, 1, 0x0A01_0203, u32::MAX] {
            assert_eq!(t.lookup_id(addr), None);
            assert_eq!(t.lookup(addr), None);
        }
        let mut out = [Some(7u32); 3];
        t.lookup_many(&[0, 0x0A01_0203, u32::MAX], &mut out);
        assert_eq!(out, [None, None, None]);
    }

    #[test]
    fn populated_table_keeps_full_stage1() {
        let t = FlatLpm::from_entries(vec![(p("10.0.0.0/8"), ())]);
        assert_eq!(t.table_bytes(), (1usize << 24) * 4);
    }

    #[test]
    fn lookup_many_matches_lookup_id() {
        let t = FlatLpm::from_entries(vec![
            (p("0.0.0.0/0"), 0u32),
            (p("10.0.0.0/8"), 1),
            (p("10.1.2.0/24"), 2),
            (p("10.1.2.128/25"), 3),
            (p("203.0.113.64/30"), 4),
        ]);
        let addrs: Vec<u32> = (0..512u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9) ^ 0x0A01_0200)
            .chain([0, u32::MAX, 0x0A01_0280, 0xCB00_7141])
            .collect();
        let mut out = vec![None; addrs.len()];
        t.lookup_many(&addrs, &mut out);
        let mut raw = vec![0u32; addrs.len()];
        t.lookup_many_raw(&addrs, &mut raw);
        for (i, &addr) in addrs.iter().enumerate() {
            let want = t.lookup_id(addr);
            assert_eq!(out[i], want, "addr {addr:#010x}");
            assert_eq!(raw[i], want.map_or(0, |id| id + 1), "raw addr {addr:#010x}");
        }
    }

    #[test]
    fn lookup_many_handles_odd_batch_sizes() {
        let t = FlatLpm::from_entries(vec![(p("10.0.0.0/8"), ())]);
        for n in [0usize, 1, 63, 64, 65, 130] {
            let addrs: Vec<u32> = (0..n as u32).map(|i| 0x0A00_0000 | i).collect();
            let mut out = vec![None; n];
            t.lookup_many(&addrs, &mut out);
            assert!(out.iter().all(|o| *o == Some(0)), "batch of {n}");
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn lookup_many_rejects_mismatched_lengths() {
        let t = FlatLpm::from_entries(vec![(p("10.0.0.0/8"), ())]);
        let mut out = [None; 2];
        t.lookup_many(&[1, 2, 3], &mut out);
    }

    #[test]
    fn default_route_covers_everything() {
        let t = FlatLpm::from_entries(vec![(p("0.0.0.0/0"), 1u32)]);
        for addr in [0u32, 1, 0x0A00_0001, u32::MAX] {
            assert_eq!(
                t.lookup(addr).map(|(pfx, v)| (pfx, *v)),
                Some((p("0.0.0.0/0"), 1))
            );
        }
    }

    #[test]
    fn host_routes_and_spill_inheritance() {
        // A /32 inside a /24 inside a /8: the spill block must inherit
        // the /24 for the other 255 last-octet values.
        let t = FlatLpm::from_entries(vec![
            (p("10.0.0.0/8"), 8u8),
            (p("10.1.2.0/24"), 24),
            (p("10.1.2.77/32"), 32),
        ]);
        assert_eq!(t.spill_blocks(), 1);
        assert_eq!(*t.lookup_addr("10.1.2.77".parse().unwrap()).unwrap().1, 32);
        assert_eq!(*t.lookup_addr("10.1.2.78".parse().unwrap()).unwrap().1, 24);
        assert_eq!(*t.lookup_addr("10.1.3.77".parse().unwrap()).unwrap().1, 8);
    }

    #[test]
    fn long_prefix_without_short_cover() {
        // A lone /30: only its 4 addresses match, nothing else in the
        // /24 does.
        let t = FlatLpm::from_entries(vec![(p("192.0.2.64/30"), ())]);
        assert_eq!(t.spill_blocks(), 1);
        for last in 64..68u32 {
            assert!(t.lookup(0xC000_0200 | last).is_some(), "last octet {last}");
        }
        assert!(t.lookup(0xC000_0200 | 63).is_none());
        assert!(t.lookup(0xC000_0200 | 68).is_none());
        assert!(t.lookup(0xC000_0300).is_none());
    }

    #[test]
    fn nested_long_prefixes_in_one_block() {
        let t = FlatLpm::from_entries(vec![
            (p("10.0.0.0/25"), 25u8),
            (p("10.0.0.0/26"), 26),
            (p("10.0.0.0/28"), 28),
        ]);
        assert_eq!(t.spill_blocks(), 1);
        assert_eq!(*t.lookup(0x0A00_0000).unwrap().1, 28);
        assert_eq!(*t.lookup(0x0A00_0000 + 20).unwrap().1, 26);
        assert_eq!(*t.lookup(0x0A00_0000 + 70).unwrap().1, 25);
        assert_eq!(t.lookup(0x0A00_0000 + 130), None);
    }

    #[test]
    fn duplicate_prefix_last_wins() {
        let t = FlatLpm::from_entries(vec![(p("10.0.0.0/8"), 1u32), (p("10.0.0.0/8"), 2)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&2));
    }

    #[test]
    fn rib_order_sorts_stably_and_keeps_the_last_duplicate() {
        let order = |v: Vec<(&str, u32)>| -> Vec<(Prefix, u32)> {
            rib_order(v.into_iter().map(|(s, n)| (p(s), n)).collect(), |e| e.0)
        };
        // Runs of three, a duplicate at each end, one already in place.
        let got = order(vec![
            ("10.1.0.0/16", 1),
            ("9.0.0.0/8", 2),
            ("10.1.0.0/16", 3),
            ("10.0.0.0/8", 4),
            ("10.1.0.0/16", 5),
            ("9.0.0.0/8", 6),
            ("10.1.0.0/17", 7),
        ]);
        let want = order(vec![
            ("9.0.0.0/8", 6),
            ("10.0.0.0/8", 4),
            ("10.1.0.0/16", 5),
            ("10.1.0.0/17", 7),
        ]);
        assert_eq!(got, want);
        // Ascending but not strictly: still deduplicated.
        assert_eq!(
            order(vec![("9.0.0.0/8", 1), ("9.0.0.0/8", 2)]),
            order(vec![("9.0.0.0/8", 2)])
        );
        assert!(order(Vec::new()).is_empty());
    }

    #[test]
    fn from_values_is_from_entries_without_the_copy() {
        // Values that carry their prefix, out of order, one duplicate.
        let values: Vec<(Prefix, &str)> = vec![
            (p("10.1.2.0/25"), "a"),
            (p("10.0.0.0/8"), "b"),
            (p("10.1.2.0/25"), "c"),
            (p("203.0.113.7/32"), "d"),
        ];
        let by_value = FlatLpm::from_values(values.clone(), |v| v.0);
        let by_entry = FlatLpm::from_entries(values.iter().map(|v| (v.0, *v)));
        assert_eq!(by_value.len(), 3);
        assert_eq!(by_value.table_bytes(), by_entry.table_bytes());
        for id in 0..3 {
            assert_eq!(by_value.prefix(id), by_entry.prefix(id));
            assert_eq!(by_value.value(id), by_entry.value(id));
            assert_eq!(by_value.prefix(id), by_value.value(id).0);
        }
        assert_eq!(by_value.get(p("10.1.2.0/25")).unwrap().1, "c");
        for addr in [
            0x0A01_0203u32,
            0x0A01_0280,
            0x0A02_0000,
            0xCB00_7107,
            0xCB00_7108,
            0,
        ] {
            assert_eq!(
                by_value.lookup_id(addr),
                by_entry.lookup_id(addr),
                "addr {addr:#010x}"
            );
        }
    }

    #[test]
    fn get_is_exact_and_ids_are_dump_order() {
        let t = FlatLpm::from_entries(vec![
            (p("10.1.0.0/16"), "b"),
            (p("9.0.0.0/8"), "a"),
            (p("10.1.2.0/24"), "c"),
        ]);
        assert_eq!(t.get(p("9.0.0.0/8")), Some(&"a"));
        assert_eq!(t.get(p("9.0.0.0/9")), None);
        // Dense ids follow RIB-dump (sorted) order.
        assert_eq!(t.id_of(p("9.0.0.0/8")), Some(0));
        assert_eq!(t.id_of(p("10.1.0.0/16")), Some(1));
        assert_eq!(t.id_of(p("10.1.2.0/24")), Some(2));
        assert_eq!(t.prefix(2), p("10.1.2.0/24"));
        assert_eq!(*t.value(0), "a");
        let order: Vec<Prefix> = t.iter().map(|(p, _)| p).collect();
        assert_eq!(
            order,
            vec![p("9.0.0.0/8"), p("10.1.0.0/16"), p("10.1.2.0/24")]
        );
    }

    #[test]
    fn matches_linear_on_a_mixed_table() {
        let entries = vec![
            (p("0.0.0.0/0"), 0u32),
            (p("10.0.0.0/8"), 1),
            (p("10.128.0.0/9"), 2),
            (p("10.1.0.0/16"), 3),
            (p("10.1.2.0/24"), 4),
            (p("10.1.2.0/25"), 5),
            (p("10.1.2.128/26"), 6),
            (p("10.1.2.77/32"), 7),
            (p("203.0.113.0/24"), 8),
        ];
        let mut linear = LinearLpm::new();
        for (pfx, v) in &entries {
            linear.insert(*pfx, *v);
        }
        let flat = FlatLpm::from_entries(entries.iter().rev().copied());
        assert_eq!(flat.len(), linear.len());
        // Probe every entry's own range boundaries plus neighbours.
        let mut probes: Vec<u32> = Vec::new();
        for (pfx, _) in &entries {
            probes.push(pfx.bits());
            probes.push(u32::from(pfx.last_addr()));
            probes.push(pfx.bits().wrapping_sub(1));
            probes.push(u32::from(pfx.last_addr()).wrapping_add(1));
        }
        for addr in probes {
            let want = linear.lookup(addr).map(|(p, v)| (p, *v));
            assert_eq!(
                flat.lookup(addr).map(|(p, v)| (p, *v)),
                want,
                "addr {addr:#010x}"
            );
        }
    }

    #[test]
    fn debug_is_compact() {
        let t = FlatLpm::from_entries(vec![(p("10.0.0.0/25"), ())]);
        let s = format!("{t:?}");
        assert!(s.len() < 200, "debug output too verbose: {s}");
        assert!(s.contains("spill_blocks: 1"));
    }

    /// The painting loop `build` had before stage 1 was striped: every
    /// prefix in ascending length order on one thread, a spill block
    /// opened by the first long prefix of its /24 in that order. Kept,
    /// unchanged, as the oracle the striped paint is held to.
    fn serial_paint(prefixes: &[Prefix]) -> (Vec<u32>, Vec<u32>) {
        let mut stage1 = vec![EMPTY; 1 << 24];
        let mut spill: Vec<u32> = Vec::new();
        let mut by_len: Vec<u32> = (0..prefixes.len() as u32).collect();
        by_len.sort_unstable_by_key(|&i| prefixes[i as usize].len());
        for &id in &by_len {
            let prefix = prefixes[id as usize];
            let encoded = id + 1;
            if prefix.len() <= 24 {
                let lo = (prefix.bits() >> 8) as usize;
                let count = 1usize << (24 - prefix.len());
                stage1[lo..lo + count].fill(encoded);
            } else {
                let block = (prefix.bits() >> 8) as usize;
                let base = match stage1[block] {
                    s if s & SPILL_BIT != 0 => ((s & !SPILL_BIT) as usize) << 8,
                    s => {
                        let base = spill.len();
                        spill.resize(base + 256, s);
                        stage1[block] = SPILL_BIT | (base >> 8) as u32;
                        base
                    }
                };
                let lo = (prefix.bits() & 0xFF) as usize;
                let count = 1usize << (32 - prefix.len());
                spill[base + lo..base + lo + count].fill(encoded);
            }
        }
        (stage1, spill)
    }

    /// Every address resolves alike in `t` and in `(stage1, spill)`:
    /// stage 1 equal slot for slot, except that a spill slot may hold
    /// another index as long as both blocks hold the same 256 slots.
    fn assert_resolves_like(t: &FlatLpm<u32>, stage1: &[u32], spill: &[u32]) {
        let mut blocks: Vec<usize> = t
            .prefixes
            .iter()
            .filter(|p| p.len() > 24)
            .map(|p| (p.bits() >> 8) as usize)
            .collect();
        blocks.dedup();
        let mut from = 0;
        for &block in &blocks {
            assert!(
                t.stage1[from..block] == stage1[from..block],
                "stage 1 below block {block:#x}"
            );
            let (a, b) = (t.stage1[block], stage1[block]);
            assert!(a & b & SPILL_BIT != 0, "block {block:#x} spills in both");
            let (a, b) = (
                ((a & !SPILL_BIT) as usize) << 8,
                ((b & !SPILL_BIT) as usize) << 8,
            );
            assert_eq!(t.spill[a..a + 256], spill[b..b + 256], "block {block:#x}");
            from = block + 1;
        }
        assert!(
            t.stage1[from..] == stage1[from..],
            "stage 1 above the last block"
        );
        assert_eq!(t.spill.len(), spill.len());
    }

    /// `entries` painted on 1, 2, 3 and 8 threads: one stage 1 and one
    /// spill vector, byte for byte, which resolves every address as the
    /// serial paint does.
    fn assert_stripe_count_invisible(entries: Vec<(Prefix, u32)>) {
        let (prefixes, values): (Vec<Prefix>, Vec<u32>) =
            rib_order(entries, |e| e.0).into_iter().unzip();
        if prefixes.is_empty() {
            return;
        }
        let one = FlatLpm::build_striped(prefixes.clone(), values.clone(), 1);
        let (stage1, spill) = serial_paint(&prefixes);
        assert_resolves_like(&one, &stage1, &spill);
        drop((stage1, spill));
        for stripes in [2, 3, 8] {
            let t = FlatLpm::build_striped(prefixes.clone(), values.clone(), stripes);
            assert!(t.stage1 == one.stage1, "stage 1 at {stripes} stripes");
            assert!(t.spill == one.spill, "spill at {stripes} stripes");
        }
    }

    /// `net/tests/props.rs`'s `arb_table`, plus addresses drawn from one
    /// /22 so that long prefixes share spill blocks.
    fn arb_table() -> impl Strategy<Value = Vec<(Prefix, u32)>> {
        let bits = prop_oneof![any::<u32>(), (0u32..0x400).prop_map(|x| 0x0A00_0000 | x)];
        prop::collection::vec(
            (
                bits,
                prop_oneof![0u8..=32, 8u8..=24, 25u8..=32],
                any::<u32>(),
            )
                .prop_map(|(bits, len, v)| (Prefix::from_u32(bits, len).unwrap(), v)),
            0..64,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn stripe_count_never_reaches_the_table(entries in arb_table()) {
            assert_stripe_count_invisible(entries);
        }
    }

    #[test]
    fn stripe_count_never_reaches_a_dense_table() {
        // 100 k routes shaped like a backbone RIB: mostly /24s, a third
        // /16 – /23, a few covering /8 – /15 and more-specifics past /24.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let entries: Vec<(Prefix, u32)> = (0..100_000u32)
            .map(|i| {
                let r = next();
                let len = match r % 100 {
                    0..=59 => 24,
                    60..=89 => 16 + (r >> 8) % 8,
                    90..=91 => 8 + (r >> 8) % 8,
                    _ => 25 + (r >> 8) % 8,
                } as u8;
                (Prefix::from_u32((r >> 32) as u32, len).unwrap(), i)
            })
            .collect();
        assert_stripe_count_invisible(entries);
    }
}
