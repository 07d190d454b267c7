//! IPv4 addressing and longest-prefix-match (LPM) tables.
//!
//! This crate is the routing substrate of the backbone-elephants
//! reproduction. The paper classifies traffic at the granularity of *BGP
//! destination network prefixes*: every packet is attributed to the longest
//! matching routing-table entry for its destination address. Everything
//! needed for that attribution lives here:
//!
//! * [`Prefix`] — a canonical IPv4 CIDR prefix (`10.0.0.0/8`) and its
//!   containment tests;
//! * [`rib_order`] — the one order a route list is kept in: ascending
//!   prefixes, the last of two entries for a prefix winning;
//! * [`FlatLpm`] — a frozen, DIR-24-8-style flat-array table built once
//!   from a route list; the read path of the packet pipeline
//!   ([`EpochLpm`] is its copy-on-write form for live route churn);
//! * [`LinearLpm`] — a naive linear scan, the oracle the property tests
//!   hold both tables to.
//!
//! All tables are generic over the attached route value `V`.
//!
//! # Choosing a table backend
//!
//! | backend | build cost | update | lookup cost | memory | use when |
//! |---|---|---|---|---|---|
//! | [`FlatLpm`] | O(n + painted range), striped over the cores | **no** (rebuild) | **O(1), ≤ 2 dependent reads** | 64 MiB + 1 KiB per spilled /24 | a static table: per-packet attribution at line rate |
//! | [`EpochLpm`] | O(n + painted range), on one thread | yes: announce/withdraw batches repaint the covered range, copy-on-write | O(1), one more dependent read (the page) | 16 KiB pages, untouched ones shared | route churn mid-stream: readers pin a generation |
//! | [`LinearLpm`] | O(1)/insert | yes | O(n) scan | ~n | test oracle only |
//!
//! The production shape mirrors a router's RIB/FIB split: the route
//! list, in [`rib_order`], is the source of truth, and the lookup table
//! is compiled from it ([`FlatLpm::from_entries`] /
//! [`FlatLpm::from_values`]) — its dense entry ids are the list's
//! indices, which double as allocation-free accounting keys
//! (`eleph_bgp::FrozenBgpTable`, `eleph_flow::Aggregator`). On a
//! ~100k-prefix backbone table the flat table answers a lookup in a
//! handful of nanoseconds (the benchmark's `net.flat_lookup_ns_per_pkt`
//! times it on a capture's destinations).
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
//! caller's surrounding control flow. On a pure lookup loop the
//! per-address form is already memory-parallelism-bound and the two tie
//! (the benchmark's `net.flat_lookup_ns_per_pkt` times the batch form);
//! the batch form wins where it is embedded in real per-packet work —
//! chunked attribution ran ~15–20% faster end-to-end on cache-cold
//! destinations, and `bgp.attribute_ns_per_pkt` times it. It is what
//! `eleph_bgp::FrozenBgpTable::attribute_ids` and the flow aggregator's
//! chunked hot path build on.
//!
//! # Example
//!
//! ```
//! use eleph_net::FlatLpm;
//!
//! let table = FlatLpm::from_entries([
//!     ("10.1.0.0/16".parse().unwrap(), "fine"),
//!     ("10.0.0.0/8".parse().unwrap(), "coarse"),
//! ]);
//!
//! let (pfx, val) = table.lookup_addr("10.1.2.3".parse().unwrap()).unwrap();
//! assert_eq!(pfx, "10.1.0.0/16".parse().unwrap());
//! assert_eq!(*val, "fine");
//! // Ids are positions in ascending prefix order.
//! assert_eq!(table.lookup_id(u32::from_be_bytes([10, 2, 0, 1])), Some(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch;
mod error;
mod flat;
mod linear;
mod paint;
mod prefix;

pub use epoch::{EpochLpm, LpmDelta};
use error::PrefixError;
pub use flat::{rib_order, FlatLpm};
pub use linear::LinearLpm;
pub use prefix::Prefix;

/// Read-only longest-prefix-match resolution to dense ids, generic over
/// the address family `A`.
///
/// This is the seam the packet pipeline attributes through: both the
/// frozen [`FlatLpm`] and a pinned live [`epoch::LpmSnapshot`] implement it
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
