//! The routing table: its routes, in RIB-dump order.

use std::net::Ipv4Addr;

use eleph_net::{rib_order, Prefix};
use rand::Rng;

use crate::RouteEntry;

/// A BGP RIB snapshot: one route per prefix, in ascending prefix order.
///
/// This is the table the report scenarios and `--synth` generate
/// traffic from ([`BgpTable::sample_unshadowed_addr`]) and a RIB dump is
/// written from. Packets are attributed against its
/// [`BgpTable::freeze`]d copy (or a [`crate::LiveBgpTable`]), never
/// against this one.
#[derive(Debug, Clone, Default)]
pub struct BgpTable {
    /// In [`rib_order`]: strictly ascending by prefix.
    routes: Vec<RouteEntry>,
}

impl BgpTable {
    /// Build from entries; a duplicate prefix replaces the earlier entry.
    pub fn from_entries<I: IntoIterator<Item = RouteEntry>>(entries: I) -> Self {
        BgpTable {
            routes: rib_order(entries.into_iter().collect(), |e| e.prefix),
        }
    }

    /// Exact-match fetch.
    pub fn get(&self, prefix: Prefix) -> Option<&RouteEntry> {
        let i = self
            .routes
            .binary_search_by_key(&prefix, |e| e.prefix)
            .ok()?;
        Some(&self.routes[i])
    }

    /// Number of routes.
    #[allow(
        clippy::len_without_is_empty,
        reason = "an `is_empty` that nothing calls is dead code"
    )]
    pub fn len(&self) -> usize {
        self.routes.len()
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
        crate::FrozenBgpTable::from_routes(self.routes.clone())
    }

    /// Iterate over all routes in RIB-dump order.
    pub fn iter(&self) -> impl Iterator<Item = &RouteEntry> {
        self.routes.iter()
    }

    /// Sample an address inside `prefix` that longest-matches `prefix`
    /// itself (i.e. is not shadowed by a more-specific route). Returns
    /// `None` after `tries` rejections — which happens when the prefix is
    /// fully covered by more-specifics, and always when the table does
    /// not hold `prefix`.
    ///
    /// Trace synthesis uses this so that generated traffic for a flow is
    /// attributed back to the same flow by the measurement pipeline.
    pub fn sample_unshadowed_addr<R: Rng + ?Sized>(
        &self,
        prefix: Prefix,
        rng: &mut R,
        tries: usize,
    ) -> Option<Ipv4Addr> {
        // In ascending order a prefix's more-specifics are the run right
        // after it; an address in `prefix` matches it longest iff it is
        // in no route of that run.
        let more_specifics = match self.routes.binary_search_by_key(&prefix, |e| e.prefix) {
            Ok(i) => {
                let after = &self.routes[i + 1..];
                Some(&after[..after.partition_point(|e| prefix.contains_prefix(&e.prefix))])
            }
            Err(_) => None,
        };
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
            match more_specifics {
                Some(run) if !run.iter().any(|e| e.prefix.contains_u32(addr_bits)) => {
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
        let frozen = t.freeze();
        let prefix_of = |addr| frozen.attribute(addr).map(|(_, e)| e.prefix.to_string());
        assert_eq!(
            prefix_of(Ipv4Addr::new(10, 1, 2, 3)).unwrap(),
            "10.1.0.0/16"
        );
        assert_eq!(prefix_of(Ipv4Addr::new(10, 2, 0, 1)).unwrap(), "10.0.0.0/8");
        assert_eq!(prefix_of(Ipv4Addr::new(11, 0, 0, 1)), None);
    }

    #[test]
    fn duplicate_prefix_last_wins() {
        let mut replacement = entry("10.0.0.0/8");
        replacement.as_path = vec![7018];
        let t = BgpTable::from_entries(vec![entry("10.0.0.0/8"), entry("9.0.0.0/8"), replacement]);
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.get("10.0.0.0/8".parse().unwrap()).unwrap().as_path,
            vec![7018]
        );
        assert_eq!(t.get("10.0.0.0/9".parse().unwrap()), None);
        assert_eq!(BgpTable::default().len(), 0);
    }

    #[test]
    fn unshadowed_sampling_avoids_specifics() {
        let t = BgpTable::from_entries(vec![entry("10.0.0.0/8"), entry("10.1.0.0/16")]);
        let frozen = t.freeze();
        let mut rng = StdRng::seed_from_u64(1);
        let eight: Prefix = "10.0.0.0/8".parse().unwrap();
        for _ in 0..100 {
            let addr = t.sample_unshadowed_addr(eight, &mut rng, 64).unwrap();
            let (_, e) = frozen.attribute(addr).unwrap();
            assert_eq!(e.prefix, eight, "addr {addr} attributed to {}", e.prefix);
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
