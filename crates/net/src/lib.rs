//! IPv4 addressing and longest-prefix-match (LPM) tables.
//!
//! This crate is the routing substrate of the backbone-elephants
//! reproduction. The paper classifies traffic at the granularity of *BGP
//! destination network prefixes*: every packet is attributed to the longest
//! matching routing-table entry for its destination address. Everything
//! needed for that attribution lives here:
//!
//! * [`Prefix`] — a canonical IPv4 CIDR prefix (`10.0.0.0/8`), with the set
//!   algebra (containment, overlap, parent/children) the rest of the system
//!   builds on;
//! * [`Lpm`] — the longest-prefix-match interface, with two updatable
//!   implementations: [`LinearLpm`] (naive reference used as a test
//!   oracle) and [`CompressedTrieLpm`] (path-compressed radix trie, the
//!   mutable builder);
//! * [`FlatLpm`] — a frozen, DIR-24-8-style flat-array table built once
//!   from a route list or a trie; the read path of the packet pipeline
//!   ([`EpochLpm`] is its copy-on-write form for live route churn);
//! * [`PrefixSet`] — an aggregating set of prefixes (used for RIB synthesis
//!   and the prefix-length analysis of the paper's §III).
//!
//! All tables are generic over the attached route value `V`.
//!
//! # Choosing a table backend
//!
//! | backend | build cost | update | lookup cost | memory | use when |
//! |---|---|---|---|---|---|
//! | [`LinearLpm`] | O(1)/insert | yes | O(n) scan | ~n | test oracle only |
//! | [`CompressedTrieLpm`] | O(len)/insert | yes | ≤ nesting-depth hops | node per entry | the *updatable* RIB: streaming route churn |
//! | [`FlatLpm`] | O(n + painted range) freeze | **no** (rebuild) | **O(1), ≤ 2 dependent reads** | 64 MiB + 1 KiB per spilled /24 | the *read* path: per-packet attribution at line rate |
//!
//! The intended production shape mirrors a router's RIB/FIB split: keep
//! a [`CompressedTrieLpm`] as the updatable source of truth, and freeze
//! it into a [`FlatLpm`] (`FlatLpm::from(&trie)`) whenever the table
//! changes; serve all lookups from the frozen copy. On a ~100k-prefix
//! backbone table the flat table answers a lookup in a handful of
//! nanoseconds — several times faster than the compressed trie (see
//! `crates/bench/benches/lpm.rs`) — and its dense entry ids double as
//! allocation-free accounting keys (`eleph_bgp::FrozenBgpTable`,
//! `eleph_flow::Aggregator`).
//!
//! ## Single vs batched lookups
//!
//! [`FlatLpm::lookup_id`] is the right call when addresses arrive one
//! at a time (interactive queries, route churn validation). When the
//! caller already holds a *batch* of addresses — the packet pipeline
//! decodes capture records in chunks — use
//! [`FlatLpm::lookup_many`] (or the raw-encoded
//! [`FlatLpm::lookup_many_raw`]): its resolve loop carries no per-call
//! overhead and no lane-to-lane dependency, so the stage-1 cache misses
//! of different addresses overlap instead of serialising against the
//! caller's surrounding control flow. On a pure lookup micro-bench the
//! per-address loop is already memory-parallelism-bound and the two tie
//! (`crates/bench/benches/lpm.rs`); the batch form wins where it is
//! embedded in real per-packet work — the flow aggregator's chunked
//! attribution runs ~15–20% faster end-to-end on cache-cold
//! destinations (`attribution` bench group). It is what
//! `eleph_bgp::FrozenBgpTable::attribute_ids` and the flow aggregator's
//! chunked hot path build on.
//!
//! # Example
//!
//! ```
//! use eleph_net::{Prefix, Lpm, CompressedTrieLpm};
//!
//! let mut table: CompressedTrieLpm<&str> = CompressedTrieLpm::new();
//! table.insert("10.0.0.0/8".parse().unwrap(), "coarse");
//! table.insert("10.1.0.0/16".parse().unwrap(), "fine");
//!
//! let (pfx, val) = table.lookup_addr("10.1.2.3".parse().unwrap()).unwrap();
//! assert_eq!(pfx, "10.1.0.0/16".parse().unwrap());
//! assert_eq!(*val, "fine");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compressed;
pub mod epoch;
mod error;
mod flat;
mod linear;
mod paint;
mod prefix;
mod set;

pub use compressed::CompressedTrieLpm;
pub use epoch::{Applied, EpochLpm, LpmDelta, LpmSnapshot};
pub use error::PrefixError;
pub use flat::{rib_order, FlatLpm};
pub use linear::LinearLpm;
pub use prefix::Prefix;
pub use set::PrefixSet;

use std::net::Ipv4Addr;

/// Longest-prefix-match table interface.
///
/// A table maps [`Prefix`]es to route values `V`; [`Lpm::lookup`] returns
/// the entry with the longest prefix containing the queried address, which
/// is exactly the flow key the paper's methodology assigns to a packet.
pub trait Lpm<V> {
    /// Insert `value` under `prefix`, returning the previous value if the
    /// prefix was already present.
    fn insert(&mut self, prefix: Prefix, value: V) -> Option<V>;

    /// Remove the entry for exactly `prefix` (not covering prefixes),
    /// returning its value if present.
    fn remove(&mut self, prefix: Prefix) -> Option<V>;

    /// Exact-match lookup.
    fn get(&self, prefix: Prefix) -> Option<&V>;

    /// Longest-prefix match for a 32-bit address.
    fn lookup(&self, addr: u32) -> Option<(Prefix, &V)>;

    /// Longest-prefix match for an [`Ipv4Addr`].
    fn lookup_addr(&self, addr: Ipv4Addr) -> Option<(Prefix, &V)> {
        self.lookup(u32::from(addr))
    }

    /// Number of entries in the table.
    fn len(&self) -> usize;

    /// Whether the table is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Read-only longest-prefix-match resolution to dense ids, generic over
/// the address family `A`.
///
/// This is the seam the packet pipeline attributes through: both the
/// frozen [`FlatLpm`] and a pinned live [`LpmSnapshot`] implement it
/// for `A = u32` (IPv4), so downstream attribution
/// (`eleph_flow::attribute_metas`) is agnostic to whether the table
/// underneath it is a one-shot freeze or an epoch-swapped live view. An
/// IPv6 backend (e.g. a multi-level-stride table over `A = u128`)
/// plugs in by implementing the same two methods — nothing upstack
/// names the address width.
pub trait LpmView<A> {
    /// Longest-prefix-match id for one address, `None` on miss.
    fn lookup_one(&self, addr: A) -> Option<u32>;

    /// Batched longest-prefix match; `out[i]` receives the id for
    /// `addrs[i]`. Implementations must panic if the lengths differ.
    fn lookup_batch(&self, addrs: &[A], out: &mut [Option<u32>]);
}

impl<V> LpmView<u32> for FlatLpm<V> {
    fn lookup_one(&self, addr: u32) -> Option<u32> {
        self.lookup_id(addr)
    }

    fn lookup_batch(&self, addrs: &[u32], out: &mut [Option<u32>]) {
        self.lookup_many(addrs, out);
    }
}

/// Convert an IPv4 dotted-quad to its host-order `u32` representation.
#[inline]
pub fn addr_to_u32(addr: Ipv4Addr) -> u32 {
    u32::from(addr)
}

/// Convert a host-order `u32` to an IPv4 dotted-quad.
#[inline]
pub fn u32_to_addr(bits: u32) -> Ipv4Addr {
    Ipv4Addr::from(bits)
}
