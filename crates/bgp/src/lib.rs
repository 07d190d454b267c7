//! BGP routing-table substrate.
//!
//! The paper's flow granularity is the *BGP destination network prefix*:
//! every packet is attributed to the longest-matching entry of the routing
//! table collected alongside the packet trace. Sprint's 2001 tables are
//! proprietary, so this crate provides both the table machinery and a
//! calibrated synthetic stand-in:
//!
//! * [`RouteEntry`] / [`Origin`] / [`PeerClass`] — one RIB entry with the
//!   attributes the analysis needs (AS path, origin, peer classification);
//! * [`BgpTable`] — a RIB snapshot: its routes in ascending prefix order
//!   ([`eleph_net::rib_order`]), with unshadowed address sampling for
//!   trace synthesis ([`BgpTable::sample_unshadowed_addr`]);
//! * [`FrozenBgpTable`] — the read-optimized FIB compiled from a table
//!   snapshot by [`BgpTable::freeze`]: O(1) flat-array attribution
//!   returning dense [`RouteId`]s, which is what the packet hot path in
//!   `eleph_flow` runs against;
//! * [`LiveBgpTable`] — the *continuously updatable* FIB: announce/
//!   withdraw batches ([`RouteUpdate`]) apply incrementally behind an
//!   epoch/generation swap while readers attribute against pinned
//!   [`TableView`]s; ids are stable (withdrawn ids retire, re-announced
//!   prefixes get fresh ids), which is what mid-stream re-attribution
//!   in `eleph_pipeline` builds on;
//! * [`dump`] — a line-oriented text RIB format plus a timed update
//!   stream format (write + parse);
//! * [`synth`] — a synthetic table generator whose prefix-length histogram
//!   matches a 2001-era backbone table (~100k entries, mass at /16–/24),
//!   used by every experiment in the reproduction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dump;
mod frozen;
mod live;
mod route;
pub mod synth;
mod table;

pub use frozen::{FrozenBgpTable, RouteId};
pub use live::{ApplyReport, LiveBgpTable, RouteUpdate, TableView, UpdateBatch};
pub use route::{Origin, PeerClass, RouteEntry};
pub use synth::SynthConfig;
pub use table::BgpTable;
