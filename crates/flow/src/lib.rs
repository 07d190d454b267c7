//! Flow measurement pipeline.
//!
//! Implements the paper's §II measurement methodology: time is discretised
//! into intervals of length `T` (default 5 minutes), every packet is
//! attributed to its longest-matching BGP prefix, and the per-prefix
//! average bandwidth `B_i(n)` over each interval is the quantity all
//! classification operates on.
//!
//! * [`BandwidthMatrix`] — the `B_i(n)` matrix keyed by prefix, stored
//!   as a frozen CSR-style columnar structure (one offsets array plus
//!   parallel key/rate columns, one interval a view of both); built either
//!   from packets (via [`Aggregator`]) or directly from a rate-level
//!   synthetic workload ([`BandwidthMatrix::from_workload`], generated
//!   interval by interval into the columns, or
//!   [`BandwidthMatrix::from_rate_trace`] — same object either way,
//!   which is what lets the experiments run at rate level while the
//!   integration tests pin packet-level equivalence);
//! * [`Aggregator`] — streaming packet-to-interval aggregation with full
//!   accounting ([`Aggregator::stats`]): malformed, unroutable and
//!   out-of-window packets are counted, never silently dropped. The hot
//!   path is allocation- and hash-free: frozen flat-array attribution
//!   (`eleph_bgp::FrozenBgpTable`) into dense per-interval byte rows.
//!   Feed it packet *chunks* via [`Aggregator::observe_chunk`] where
//!   possible — attribution then goes through the frozen table's batch
//!   lookup, which overlaps lookup cache misses across the chunk
//!   (single-packet [`Aggregator::observe`] pays one dependent miss per
//!   packet); both forms produce identical output;
//! * [`aggregate_pcap`] / [`aggregate_pcap_frozen`] — drive an
//!   [`Aggregator`] from a capture stream (chunked decode + batched
//!   attribution internally);
//! * [`Refine`] / [`Coarsen`] — the same traffic re-measured at a finer
//!   or coarser T, as row adapters over any walk of a link's rows;
//! * [`busiest_window`] — locate the paper's "five hour busy period".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod matrix;
mod remeasure;
mod window;

pub use aggregate::{
    aggregate_pcap, aggregate_pcap_frozen, attribute_metas, try_window_bounds_ns, window_bounds_ns,
    Aggregator, KeyAllocator, ATTRIBUTION_CHUNK,
};
pub use matrix::{BandwidthMatrix, KeyId};
pub use remeasure::{Coarsen, Refine};
pub use window::busiest_window;
