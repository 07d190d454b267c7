//! Naive linear-scan LPM table, the correctness oracle for the real tables.

use std::net::Ipv4Addr;

use crate::Prefix;

/// Longest-prefix-match by linear scan over a vector of entries.
///
/// A table maps [`Prefix`]es to values `V`; [`LinearLpm::lookup`]
/// returns the entry with the longest prefix containing the queried
/// address, which is exactly the flow key the paper's methodology
/// assigns to a packet. O(n) lookups make this useless in production,
/// but its behaviour is obviously correct, so the property tests compare
/// every real table ([`crate::FlatLpm`], [`crate::EpochLpm`]) against it.
#[derive(Debug, Clone, Default)]
pub struct LinearLpm<V> {
    entries: Vec<(Prefix, V)>,
}

impl<V> LinearLpm<V> {
    /// Create an empty table.
    pub fn new() -> Self {
        LinearLpm { entries: Vec::new() }
    }

    /// Iterate over all entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> {
        self.entries.iter().map(|(p, v)| (*p, v))
    }

    /// Insert `value` under `prefix`, returning the previous value if the
    /// prefix was already present.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        for (p, v) in &mut self.entries {
            if *p == prefix {
                return Some(core::mem::replace(v, value));
            }
        }
        self.entries.push((prefix, value));
        None
    }

    /// Remove the entry for exactly `prefix` (not covering prefixes),
    /// returning its value if present.
    pub fn remove(&mut self, prefix: Prefix) -> Option<V> {
        let idx = self.entries.iter().position(|(p, _)| *p == prefix)?;
        Some(self.entries.swap_remove(idx).1)
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: Prefix) -> Option<&V> {
        self.entries
            .iter()
            .find(|(p, _)| *p == prefix)
            .map(|(_, v)| v)
    }

    /// Longest-prefix match for a 32-bit address.
    pub fn lookup(&self, addr: u32) -> Option<(Prefix, &V)> {
        self.entries
            .iter()
            .filter(|(p, _)| p.contains_u32(addr))
            .max_by_key(|(p, _)| p.len())
            .map(|(p, v)| (*p, v))
    }

    /// Longest-prefix match for an [`Ipv4Addr`].
    pub fn lookup_addr(&self, addr: Ipv4Addr) -> Option<(Prefix, &V)> {
        self.lookup(u32::from(addr))
    }

    /// Number of entries in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn picks_longest_match() {
        let mut t = LinearLpm::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(p("0.0.0.0/0"), 0);
        let (pfx, v) = t.lookup_addr("10.1.2.3".parse().unwrap()).unwrap();
        assert_eq!((pfx, *v), (p("10.1.0.0/16"), 16));
        let (pfx, v) = t.lookup_addr("10.2.0.1".parse().unwrap()).unwrap();
        assert_eq!((pfx, *v), (p("10.0.0.0/8"), 8));
        let (pfx, v) = t.lookup_addr("11.0.0.1".parse().unwrap()).unwrap();
        assert_eq!((pfx, *v), (p("0.0.0.0/0"), 0));
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let mut t = LinearLpm::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&2));
    }

    #[test]
    fn remove_works() {
        let mut t = LinearLpm::new();
        t.insert(p("10.0.0.0/8"), 1);
        assert_eq!(t.remove(p("10.0.0.0/8")), Some(1));
        assert_eq!(t.remove(p("10.0.0.0/8")), None);
        assert!(t.is_empty());
        assert_eq!(t.lookup(0x0a000001), None);
    }

    #[test]
    fn empty_table_misses() {
        let t: LinearLpm<()> = LinearLpm::new();
        assert_eq!(t.lookup(0), None);
        assert!(t.is_empty());
    }
}
