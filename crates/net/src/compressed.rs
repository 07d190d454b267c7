//! Path-compressed (radix) trie LPM — the production table.

use crate::prefix::addr_bit;
use crate::{Lpm, Prefix};

/// A path-compressed binary radix trie.
///
/// Unlike a one-bit-per-level trie, chains of single-child internal nodes
/// are collapsed: every node stores the full prefix it represents, and every
/// *valueless* node has exactly two children. With a backbone-sized table
/// (~10⁵ prefixes) this roughly halves memory and lookup depth, which is
/// why it is the default table used by the flow-aggregation pipeline.
#[derive(Debug, Clone)]
pub struct CompressedTrieLpm<V> {
    root: Option<Box<Node<V>>>,
    len: usize,
}

#[derive(Debug, Clone)]
struct Node<V> {
    /// Full prefix from the root (not a fragment), so a node is
    /// self-describing and lookups never re-assemble bits.
    prefix: Prefix,
    value: Option<V>,
    children: [Option<Box<Node<V>>>; 2],
}

impl<V> Node<V> {
    fn leaf(prefix: Prefix, value: V) -> Box<Self> {
        Box::new(Node {
            prefix,
            value: Some(value),
            children: [None, None],
        })
    }

    fn child_count(&self) -> usize {
        self.children.iter().filter(|c| c.is_some()).count()
    }
}

impl<V> Default for CompressedTrieLpm<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> CompressedTrieLpm<V> {
    /// Create an empty table.
    pub fn new() -> Self {
        CompressedTrieLpm { root: None, len: 0 }
    }

    /// Build a table from an iterator of entries. Later duplicates replace
    /// earlier ones, as with repeated [`Lpm::insert`].
    pub fn from_entries<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (Prefix, V)>,
    {
        let mut t = Self::new();
        for (p, v) in entries {
            t.insert(p, v);
        }
        t
    }

    /// Depth-first iteration over all `(prefix, value)` entries in
    /// lexicographic (RIB dump) order.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter {
            stack: self.root.as_deref().into_iter().collect(),
        }
    }

    /// Depth of the deepest node — a diagnostic for the compression
    /// benchmarks (bounded by 32, typically far lower).
    pub fn max_depth(&self) -> usize {
        fn depth<V>(node: &Node<V>) -> usize {
            1 + node
                .children
                .iter()
                .flatten()
                .map(|c| depth(c))
                .max()
                .unwrap_or(0)
        }
        self.root.as_deref().map(|n| depth(n)).unwrap_or(0)
    }

    fn insert_rec(slot: &mut Option<Box<Node<V>>>, prefix: Prefix, value: V) -> Option<V> {
        let Some(node) = slot.as_deref_mut() else {
            *slot = Some(Node::leaf(prefix, value));
            return None;
        };
        let cpl = node.prefix.common_prefix_len(&prefix);

        if cpl == node.prefix.len() && cpl == prefix.len() {
            // Same prefix: replace in place.
            return node.value.replace(value);
        }

        if cpl == node.prefix.len() {
            // New prefix extends this node: descend.
            let idx = prefix.bit(cpl) as usize;
            return Self::insert_rec(&mut node.children[idx], prefix, value);
        }

        if cpl == prefix.len() {
            // New prefix covers this node: splice a new parent in.
            let old = slot.take().expect("checked non-empty above");
            let idx = old.prefix.bit(cpl) as usize;
            let mut parent = Node::leaf(prefix, value);
            parent.children[idx] = Some(old);
            *slot = Some(parent);
            return None;
        }

        // Diverge below both: create a valueless branch node.
        let old = slot.take().expect("checked non-empty above");
        let branch_prefix =
            Prefix::from_u32(prefix.bits(), cpl).expect("cpl <= 32 by construction");
        let mut branch = Box::new(Node {
            prefix: branch_prefix,
            value: None,
            children: [None, None],
        });
        let old_idx = old.prefix.bit(cpl) as usize;
        branch.children[old_idx] = Some(old);
        branch.children[1 - old_idx] = Some(Node::leaf(prefix, value));
        *slot = Some(branch);
        None
    }

    fn remove_rec(slot: &mut Option<Box<Node<V>>>, prefix: Prefix) -> Option<V> {
        let node = slot.as_deref_mut()?;
        let removed = if node.prefix == prefix {
            node.value.take()
        } else if node.prefix.contains_prefix(&prefix) && node.prefix.len() < prefix.len() {
            let idx = prefix.bit(node.prefix.len()) as usize;
            Self::remove_rec(&mut node.children[idx], prefix)
        } else {
            None
        };

        // Re-canonicalise: a valueless node may not have fewer than two
        // children after a removal below it.
        if removed.is_some() && node.value.is_none() {
            match node.child_count() {
                0 => {
                    *slot = None;
                }
                1 => {
                    let child = node
                        .children
                        .iter_mut()
                        .find_map(|c| c.take())
                        .expect("child_count == 1");
                    *slot = Some(child);
                }
                _ => {}
            }
        }
        removed
    }
}

impl<V> Lpm<V> for CompressedTrieLpm<V> {
    fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        let old = Self::insert_rec(&mut self.root, prefix, value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn remove(&mut self, prefix: Prefix) -> Option<V> {
        let removed = Self::remove_rec(&mut self.root, prefix);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    fn get(&self, prefix: Prefix) -> Option<&V> {
        let mut node = self.root.as_deref()?;
        loop {
            if node.prefix == prefix {
                return node.value.as_ref();
            }
            if !(node.prefix.contains_prefix(&prefix) && node.prefix.len() < prefix.len()) {
                return None;
            }
            let idx = prefix.bit(node.prefix.len()) as usize;
            node = node.children[idx].as_deref()?;
        }
    }

    fn lookup(&self, addr: u32) -> Option<(Prefix, &V)> {
        let mut node = self.root.as_deref()?;
        let mut best: Option<(Prefix, &V)> = None;
        loop {
            if !node.prefix.contains_u32(addr) {
                break;
            }
            if let Some(v) = node.value.as_ref() {
                best = Some((node.prefix, v));
            }
            if node.prefix.len() == 32 {
                break;
            }
            let idx = addr_bit(addr, node.prefix.len()) as usize;
            match node.children[idx].as_deref() {
                Some(child) => node = child,
                None => break,
            }
        }
        best
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Iterator over table entries; see [`CompressedTrieLpm::iter`].
pub struct Iter<'a, V> {
    stack: Vec<&'a Node<V>>,
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (Prefix, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(node) = self.stack.pop() {
            if let Some(c) = node.children[1].as_deref() {
                self.stack.push(c);
            }
            if let Some(c) = node.children[0].as_deref() {
                self.stack.push(c);
            }
            if let Some(v) = node.value.as_ref() {
                return Some((node.prefix, v));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn basic_longest_match() {
        let mut t = CompressedTrieLpm::new();
        t.insert(p("0.0.0.0/0"), "default");
        t.insert(p("10.0.0.0/8"), "eight");
        t.insert(p("10.1.0.0/16"), "sixteen");
        t.insert(p("10.1.2.0/24"), "twentyfour");

        let case = |addr: &str| {
            t.lookup_addr(addr.parse().unwrap())
                .map(|(p, v)| (p.to_string(), *v))
                .unwrap()
        };
        assert_eq!(case("10.1.2.3"), ("10.1.2.0/24".into(), "twentyfour"));
        assert_eq!(case("10.1.9.3"), ("10.1.0.0/16".into(), "sixteen"));
        assert_eq!(case("10.200.0.1"), ("10.0.0.0/8".into(), "eight"));
        assert_eq!(case("203.0.113.7"), ("0.0.0.0/0".into(), "default"));
    }

    #[test]
    fn splice_parent_above_existing() {
        // Insert specific first, then a covering prefix: exercises the
        // "new prefix covers node" branch.
        let mut t = CompressedTrieLpm::new();
        t.insert(p("10.1.2.0/24"), 24);
        t.insert(p("10.0.0.0/8"), 8);
        assert_eq!(t.len(), 2);
        let (pfx, v) = t.lookup_addr("10.1.2.9".parse().unwrap()).unwrap();
        assert_eq!((pfx, *v), (p("10.1.2.0/24"), 24));
        let (pfx, v) = t.lookup_addr("10.7.0.1".parse().unwrap()).unwrap();
        assert_eq!((pfx, *v), (p("10.0.0.0/8"), 8));
    }

    #[test]
    fn divergent_siblings_create_branch() {
        let mut t = CompressedTrieLpm::new();
        t.insert(p("10.1.0.0/16"), "a");
        t.insert(p("10.2.0.0/16"), "b");
        assert_eq!(t.len(), 2);
        // Branch node at 10.0.0.0/14 (first 14 bits shared) carries no value:
        assert!(t.lookup_addr("10.3.0.1".parse().unwrap()).is_none());
        assert_eq!(*t.lookup_addr("10.1.5.5".parse().unwrap()).unwrap().1, "a");
        assert_eq!(*t.lookup_addr("10.2.5.5".parse().unwrap()).unwrap().1, "b");
    }

    #[test]
    fn remove_collapses_branch_nodes() {
        let mut t = CompressedTrieLpm::new();
        t.insert(p("10.1.0.0/16"), "a");
        t.insert(p("10.2.0.0/16"), "b");
        assert_eq!(t.remove(p("10.1.0.0/16")), Some("a"));
        assert_eq!(t.len(), 1);
        // After collapse the remaining node must still resolve, and the
        // tree must be a single node again.
        assert_eq!(*t.lookup_addr("10.2.5.5".parse().unwrap()).unwrap().1, "b");
        assert_eq!(t.max_depth(), 1);
    }

    #[test]
    fn remove_value_keeps_needed_branch() {
        let mut t = CompressedTrieLpm::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(p("10.2.0.0/16"), 162);
        assert_eq!(t.remove(p("10.0.0.0/8")), Some(8));
        // The /8 node had two children: it must persist as a valueless branch.
        assert_eq!(t.len(), 2);
        assert_eq!(*t.lookup_addr("10.1.0.1".parse().unwrap()).unwrap().1, 16);
        assert_eq!(*t.lookup_addr("10.2.0.1".parse().unwrap()).unwrap().1, 162);
        assert!(t.lookup_addr("10.3.0.1".parse().unwrap()).is_none());
    }

    #[test]
    fn get_is_exact() {
        let mut t = CompressedTrieLpm::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.1.0.0/16"), 2);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&1));
        assert_eq!(t.get(p("10.1.0.0/16")), Some(&2));
        assert_eq!(t.get(p("10.1.0.0/24")), None);
        assert_eq!(t.get(p("10.0.0.0/9")), None);
    }

    #[test]
    fn replace_returns_old_value() {
        let mut t = CompressedTrieLpm::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iter_in_rib_order() {
        let mut t = CompressedTrieLpm::new();
        for s in ["10.1.0.0/16", "9.0.0.0/8", "10.0.0.0/8", "0.0.0.0/0", "10.1.2.0/24"] {
            t.insert(p(s), ());
        }
        let got: Vec<String> = t.iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(
            got,
            vec!["0.0.0.0/0", "9.0.0.0/8", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"]
        );
    }

    #[test]
    fn from_entries_builds_table() {
        let t = CompressedTrieLpm::from_entries(vec![
            (p("10.0.0.0/8"), 1),
            (p("10.0.0.0/8"), 2), // duplicate replaces
            (p("192.168.0.0/16"), 3),
        ]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&2));
    }

    #[test]
    fn compression_bounds_depth() {
        // A chain of nested prefixes compresses to one node per entry.
        let mut t = CompressedTrieLpm::new();
        t.insert(p("10.1.2.3/32"), ());
        assert_eq!(t.max_depth(), 1);
        t.insert(p("10.0.0.0/8"), ());
        assert_eq!(t.max_depth(), 2);
    }

    #[test]
    fn empty_behaviour() {
        let t: CompressedTrieLpm<()> = CompressedTrieLpm::new();
        assert!(t.is_empty());
        assert_eq!(t.lookup(0), None);
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.max_depth(), 0);
    }
}
