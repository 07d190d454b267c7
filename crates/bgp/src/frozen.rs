//! The frozen (read-optimized) routing table: the pipeline's FIB.

use std::net::Ipv4Addr;

use eleph_net::{FlatLpm, LpmView, Prefix};

use crate::RouteEntry;

/// Dense id of a route within one [`FrozenBgpTable`].
///
/// Ids run `0..len()` in RIB-dump (ascending prefix) order and are
/// stable for the lifetime of the frozen table, so downstream
/// accounting can use plain arrays instead of `Prefix`-keyed hash maps.
pub type RouteId = u32;

/// A RIB snapshot frozen into a flat-array lookup structure.
///
/// This is the router RIB/FIB split applied to the measurement
/// pipeline: a route list ([`crate::BgpTable`], a parsed dump) is the
/// source of truth, and `FrozenBgpTable` is the immutable data-plane
/// copy every packet is attributed against. Attribution is
/// O(1) with ≤ 2 dependent memory reads ([`eleph_net::FlatLpm`]) and
/// returns a dense [`RouteId`] — no `Prefix → id` hash lookup on the
/// hot path.
///
/// Build one with [`FrozenBgpTable::from_routes`] (straight from a
/// route list, e.g. [`crate::dump::read_routes`]) or
/// [`crate::BgpTable::freeze`]; rebuild after the routes change (or use
/// a [`crate::LiveBgpTable`], which takes updates).
#[derive(Debug, Clone)]
pub struct FrozenBgpTable {
    flat: FlatLpm<RouteEntry>,
}

impl FrozenBgpTable {
    /// Compile a route list into the data-plane table, in one pass and
    /// without an intermediate [`crate::BgpTable`]: the routes are
    /// moved, not cloned.
    ///
    /// [`RouteId`]s run `0..len()` in ascending prefix order whatever
    /// order `routes` is in; of two routes for the same prefix the later
    /// one wins ([`eleph_net::rib_order`], which is also a `BgpTable`'s
    /// order) — [`crate::BgpTable::freeze`] is this constructor over a
    /// clone of the table's routes.
    pub fn from_routes(routes: Vec<RouteEntry>) -> Self {
        FrozenBgpTable {
            flat: FlatLpm::from_values(routes, |e| e.prefix),
        }
    }

    /// Number of routes.
    #[allow(
        clippy::len_without_is_empty,
        reason = "an `is_empty` that nothing calls is dead code"
    )]
    pub fn len(&self) -> usize {
        self.flat.len()
    }

    /// Longest-prefix attribution of a destination address.
    #[inline]
    pub fn attribute(&self, dst: Ipv4Addr) -> Option<(RouteId, &RouteEntry)> {
        self.flat
            .lookup_with_id(u32::from(dst))
            .map(|(id, _, e)| (id, e))
    }

    /// Longest-prefix attribution returning only the dense route id —
    /// the cheapest form, used by the per-packet hot path (no entry
    /// dereference).
    #[inline]
    pub fn attribute_id(&self, dst: u32) -> Option<RouteId> {
        self.flat.lookup_id(dst)
    }

    /// Batched [`FrozenBgpTable::attribute_id`]: attribute every
    /// destination in `dsts` into the matching slot of `out` (`None` =
    /// unroutable).
    ///
    /// This is the per-packet hot path's preferred form when packets are
    /// decoded in chunks (as `eleph_flow::Aggregator` does): the
    /// underlying [`eleph_net::FlatLpm::lookup_many`] overlaps the
    /// table's cache misses across the batch instead of taking one
    /// dependent miss per packet.
    ///
    /// # Panics
    /// If `dsts` and `out` differ in length.
    #[inline]
    pub fn attribute_ids(&self, dsts: &[u32], out: &mut [Option<RouteId>]) {
        self.flat.lookup_many(dsts, out);
    }

    /// The prefix of route `id`.
    #[inline]
    pub fn prefix(&self, id: RouteId) -> Prefix {
        self.flat.prefix(id)
    }

    /// The full entry of route `id`.
    #[inline]
    pub fn route(&self, id: RouteId) -> &RouteEntry {
        self.flat.value(id)
    }

    /// The dense id of exactly `prefix`, if routed.
    pub fn id_of(&self, prefix: Prefix) -> Option<RouteId> {
        self.flat.id_of(prefix)
    }

    /// Iterate routes in RIB-dump order (= [`RouteId`] order).
    pub fn iter(&self) -> impl Iterator<Item = &RouteEntry> {
        self.flat.iter().map(|(_, e)| e)
    }

    /// Bytes of lookup-table memory (cache-footprint diagnostic).
    pub fn table_bytes(&self) -> usize {
        self.flat.table_bytes()
    }
}

impl LpmView<u32> for FrozenBgpTable {
    fn lookup_one(&self, addr: u32) -> Option<u32> {
        self.flat.lookup_id(addr)
    }

    fn lookup_batch(&self, addrs: &[u32], out: &mut [Option<u32>]) {
        self.flat.lookup_many(addrs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BgpTable, Origin, PeerClass};

    fn entry(prefix: &str) -> RouteEntry {
        RouteEntry {
            prefix: prefix.parse().unwrap(),
            next_hop: Ipv4Addr::new(192, 0, 2, 1),
            as_path: vec![1239, 701],
            origin: Origin::Igp,
            peer_class: PeerClass::Tier1,
        }
    }

    #[test]
    fn agrees_with_live_table() {
        let table = BgpTable::from_entries(vec![
            entry("10.0.0.0/8"),
            entry("10.1.0.0/16"),
            entry("10.1.2.0/25"),
            entry("203.0.113.7/32"),
        ]);
        let mut linear = eleph_net::LinearLpm::new();
        for e in table.iter() {
            linear.insert(e.prefix, ());
        }
        let frozen = table.freeze();
        assert_eq!(frozen.len(), table.len());
        for addr in [
            Ipv4Addr::new(10, 1, 2, 3),
            Ipv4Addr::new(10, 1, 9, 9),
            Ipv4Addr::new(10, 200, 0, 1),
            Ipv4Addr::new(203, 0, 113, 7),
            Ipv4Addr::new(203, 0, 113, 8),
            Ipv4Addr::new(11, 0, 0, 1),
        ] {
            let want = linear.lookup_addr(addr).map(|(p, _)| p);
            let froze = frozen.attribute(addr).map(|(id, _)| frozen.prefix(id));
            assert_eq!(froze, want, "addr {addr}");
        }
    }

    #[test]
    fn route_ids_are_dump_order() {
        let table = BgpTable::from_entries(vec![
            entry("10.1.0.0/16"),
            entry("9.0.0.0/8"),
            entry("10.0.0.0/8"),
        ]);
        let frozen = table.freeze();
        let order: Vec<String> = frozen.iter().map(|e| e.prefix.to_string()).collect();
        assert_eq!(order, vec!["9.0.0.0/8", "10.0.0.0/8", "10.1.0.0/16"]);
        assert_eq!(frozen.id_of("9.0.0.0/8".parse().unwrap()), Some(0));
        assert_eq!(frozen.id_of("10.1.0.0/16".parse().unwrap()), Some(2));
        assert_eq!(frozen.route(1).prefix, "10.0.0.0/8".parse().unwrap());
        let (id, e) = frozen.attribute(Ipv4Addr::new(10, 1, 2, 3)).unwrap();
        assert_eq!(id, 2);
        assert_eq!(e.prefix, "10.1.0.0/16".parse().unwrap());
        assert_eq!(
            frozen.attribute_id(u32::from(Ipv4Addr::new(10, 1, 2, 3))),
            Some(2)
        );
    }

    #[test]
    fn batch_attribution_matches_single() {
        let table = BgpTable::from_entries(vec![
            entry("10.0.0.0/8"),
            entry("10.1.0.0/16"),
            entry("10.1.2.0/25"),
            entry("203.0.113.7/32"),
        ]);
        let frozen = table.freeze();
        let dsts: Vec<u32> = [
            "10.1.2.3",
            "10.1.9.9",
            "10.200.0.1",
            "203.0.113.7",
            "203.0.113.8",
            "11.0.0.1",
        ]
        .iter()
        .map(|s| u32::from(s.parse::<Ipv4Addr>().unwrap()))
        .collect();
        let mut out = vec![None; dsts.len()];
        frozen.attribute_ids(&dsts, &mut out);
        for (i, &dst) in dsts.iter().enumerate() {
            assert_eq!(out[i], frozen.attribute_id(dst), "dst {dst:#010x}");
        }
    }

    #[test]
    fn empty_freeze() {
        let frozen = BgpTable::default().freeze();
        assert_eq!(frozen.len(), 0);
        assert_eq!(frozen.attribute(Ipv4Addr::new(10, 0, 0, 1)), None);
    }
}
