//! The LPM-indexed routing table.

use std::net::Ipv4Addr;

use eleph_net::{CompressedTrieLpm, Lpm, Prefix, PrefixSet};
use rand::Rng;

use crate::RouteEntry;

/// A BGP RIB snapshot indexed for longest-prefix-match attribution.
///
/// [`BgpTable::attribute`] is the core of the paper's methodology: it maps
/// a packet's destination address to the prefix whose per-interval
/// bandwidth series the classification schemes operate on.
#[derive(Debug, Clone, Default)]
pub struct BgpTable {
    lpm: CompressedTrieLpm<RouteEntry>,
}

impl BgpTable {
    /// Empty table.
    pub fn new() -> Self {
        BgpTable {
            lpm: CompressedTrieLpm::new(),
        }
    }

    /// Build from entries; a duplicate prefix replaces the earlier entry.
    pub fn from_entries<I: IntoIterator<Item = RouteEntry>>(entries: I) -> Self {
        let mut t = Self::new();
        for e in entries {
            t.insert(e);
        }
        t
    }

    /// Insert a route, returning the replaced entry if the prefix existed.
    pub fn insert(&mut self, entry: RouteEntry) -> Option<RouteEntry> {
        self.lpm.insert(entry.prefix, entry)
    }

    /// Remove the route for exactly `prefix`.
    pub fn remove(&mut self, prefix: Prefix) -> Option<RouteEntry> {
        self.lpm.remove(prefix)
    }

    /// Exact-match fetch.
    pub fn get(&self, prefix: Prefix) -> Option<&RouteEntry> {
        self.lpm.get(prefix)
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.lpm.len()
    }

    /// Whether the table has no routes.
    pub fn is_empty(&self) -> bool {
        self.lpm.is_empty()
    }

    /// Freeze the current snapshot into a read-optimized
    /// [`crate::FrozenBgpTable`] (flat-array lookup, dense route ids).
    ///
    /// This is the RIB→FIB compile step: call it once per table
    /// version, then attribute packets against the frozen copy. It is
    /// [`crate::FrozenBgpTable::from_routes`] over a clone of every
    /// route (the table keeps its own); a caller that only needs the
    /// frozen copy of a dump should hand `from_routes` the routes
    /// [`crate::dump::read_routes`] returns and skip this table.
    pub fn freeze(&self) -> crate::FrozenBgpTable {
        crate::FrozenBgpTable::from_routes(self.iter().cloned().collect())
    }

    /// Longest-prefix attribution of a destination address: the flow key.
    pub fn attribute(&self, dst: Ipv4Addr) -> Option<(Prefix, &RouteEntry)> {
        self.lpm.lookup_addr(dst)
    }

    /// Longest-prefix attribution from host-order bits.
    pub fn attribute_u32(&self, dst: u32) -> Option<(Prefix, &RouteEntry)> {
        self.lpm.lookup(dst)
    }

    /// Iterate over all routes in RIB-dump order.
    pub fn iter(&self) -> impl Iterator<Item = &RouteEntry> {
        self.lpm.iter().map(|(_, e)| e)
    }

    /// The set of all prefixes in the table.
    pub fn prefix_set(&self) -> PrefixSet {
        self.lpm.iter().map(|(p, _)| p).collect()
    }

    /// Histogram of prefix lengths (index = length).
    pub fn length_histogram(&self) -> [usize; 33] {
        let mut h = [0usize; 33];
        for (p, _) in self.lpm.iter() {
            h[p.len() as usize] += 1;
        }
        h
    }

    /// Sample an address inside `prefix` that longest-matches `prefix`
    /// itself (i.e. is not shadowed by a more-specific route). Returns
    /// `None` after `tries` rejections — which happens when the prefix is
    /// fully covered by more-specifics.
    ///
    /// Trace synthesis uses this so that generated traffic for a flow is
    /// attributed back to the same flow by the measurement pipeline.
    pub fn sample_unshadowed_addr<R: Rng + ?Sized>(
        &self,
        prefix: Prefix,
        rng: &mut R,
        tries: usize,
    ) -> Option<Ipv4Addr> {
        let host_bits = 32 - prefix.len();
        for _ in 0..tries {
            let offset = if host_bits == 0 {
                0
            } else if host_bits == 32 {
                rng.gen::<u32>()
            } else {
                rng.gen_range(0..(1u32 << host_bits))
            };
            let addr_bits = prefix.bits() | offset;
            match self.lpm.lookup(addr_bits) {
                Some((got, _)) if got == prefix => {
                    return Some(Ipv4Addr::from(addr_bits));
                }
                _ => continue,
            }
        }
        None
    }
}

impl FromIterator<RouteEntry> for BgpTable {
    fn from_iter<I: IntoIterator<Item = RouteEntry>>(iter: I) -> Self {
        Self::from_entries(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Origin, PeerClass};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn attribution_longest_match() {
        let t = BgpTable::from_entries(vec![entry("10.0.0.0/8"), entry("10.1.0.0/16")]);
        let (p, _) = t.attribute(Ipv4Addr::new(10, 1, 2, 3)).unwrap();
        assert_eq!(p, "10.1.0.0/16".parse().unwrap());
        let (p, _) = t.attribute(Ipv4Addr::new(10, 2, 0, 1)).unwrap();
        assert_eq!(p, "10.0.0.0/8".parse().unwrap());
        assert!(t.attribute(Ipv4Addr::new(11, 0, 0, 1)).is_none());
    }

    #[test]
    fn insert_replace_remove() {
        let mut t = BgpTable::new();
        assert!(t.insert(entry("10.0.0.0/8")).is_none());
        let mut replacement = entry("10.0.0.0/8");
        replacement.as_path = vec![7018];
        let old = t.insert(replacement).unwrap();
        assert_eq!(old.as_path, vec![1239, 701]);
        assert_eq!(t.len(), 1);
        assert!(t.remove("10.0.0.0/8".parse().unwrap()).is_some());
        assert!(t.is_empty());
    }

    #[test]
    fn histograms_and_sets() {
        let t = BgpTable::from_entries(vec![
            entry("10.0.0.0/8"),
            entry("10.1.0.0/16"),
            entry("10.2.0.0/16"),
        ]);
        let h = t.length_histogram();
        assert_eq!(h[8], 1);
        assert_eq!(h[16], 2);
        assert_eq!(t.prefix_set().len(), 3);
    }

    #[test]
    fn unshadowed_sampling_avoids_specifics() {
        let t = BgpTable::from_entries(vec![entry("10.0.0.0/8"), entry("10.1.0.0/16")]);
        let mut rng = StdRng::seed_from_u64(1);
        let eight: Prefix = "10.0.0.0/8".parse().unwrap();
        for _ in 0..100 {
            let addr = t.sample_unshadowed_addr(eight, &mut rng, 64).unwrap();
            let (p, _) = t.attribute(addr).unwrap();
            assert_eq!(p, eight, "addr {addr} attributed to {p}");
        }
    }

    #[test]
    fn fully_shadowed_prefix_returns_none() {
        // The /31s cover the whole /30.
        let t = BgpTable::from_entries(vec![
            entry("10.0.0.0/30"),
            entry("10.0.0.0/31"),
            entry("10.0.0.2/31"),
        ]);
        let mut rng = StdRng::seed_from_u64(2);
        let covered: Prefix = "10.0.0.0/30".parse().unwrap();
        assert_eq!(t.sample_unshadowed_addr(covered, &mut rng, 128), None);
    }

    #[test]
    fn sampling_host_route() {
        let t = BgpTable::from_entries(vec![entry("10.0.0.1/32")]);
        let mut rng = StdRng::seed_from_u64(3);
        let host: Prefix = "10.0.0.1/32".parse().unwrap();
        assert_eq!(
            t.sample_unshadowed_addr(host, &mut rng, 4),
            Some(Ipv4Addr::new(10, 0, 0, 1))
        );
    }

    #[test]
    fn iter_in_dump_order() {
        let t = BgpTable::from_entries(vec![
            entry("10.1.0.0/16"),
            entry("9.0.0.0/8"),
            entry("10.0.0.0/8"),
        ]);
        let order: Vec<String> = t.iter().map(|e| e.prefix.to_string()).collect();
        assert_eq!(order, vec!["9.0.0.0/8", "10.0.0.0/8", "10.1.0.0/16"]);
    }
}
