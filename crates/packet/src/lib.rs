//! Wire formats and capture-file I/O.
//!
//! The measurement substrate of the backbone-elephants reproduction. The
//! paper's input is a packet trace captured on an OC-12 backbone link; this
//! crate provides everything needed to produce and consume such traces:
//!
//! * zero-copy **views** over `&[u8]` for Ethernet II ([`EthernetFrame`]),
//!   IPv4 ([`Ipv4Packet`]), TCP ([`TcpSegment`]) and UDP ([`UdpDatagram`]),
//!   each with checksum generation and validation;
//! * **builders** that emit well-formed packets ([`PacketBuilder`]);
//! * a classic **libpcap** file [`pcap::PcapReader`] / [`pcap::PcapWriter`]
//!   supporting both byte orders and microsecond/nanosecond resolution;
//!   the reader lends each record out of its block
//!   ([`pcap::PcapReader::next_record_ref`]) and owns no record copy;
//! * [`PacketMeta`] — the per-packet record (timestamp, addresses, ports,
//!   protocol, wire length) the flow-aggregation pipeline consumes, and
//!   [`parse_meta`] to extract it from raw capture bytes
//!   ([`parse_buf_meta`] for a pcap record: its original length is the
//!   wire length).
//!
//! Malformed input never panics: every accessor that could run off the end
//! of a buffer is fronted by a length check, and parsers return
//! [`PacketError`]s that the pipeline counts (the paper's methodology
//! requires accounting for every captured packet).
//!
//! # Example
//!
//! ```
//! use eleph_packet::{PacketBuilder, parse_meta, LinkType, IpProtocol};
//!
//! let bytes = PacketBuilder::udp()
//!     .src("10.0.0.1".parse().unwrap(), 5000)
//!     .dst("192.0.2.7".parse().unwrap(), 53)
//!     .payload_len(120)
//!     .build_ethernet();
//! let meta = parse_meta(LinkType::Ethernet, &bytes, 0).unwrap();
//! assert_eq!(meta.proto, IpProtocol::Udp);
//! assert_eq!(meta.dst_port, 53);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
mod error;
mod ethernet;
mod ipv4;
mod meta;
pub mod pcap;
pub mod pool;
mod tcp;
mod udp;

pub use error::PacketError;
pub use ethernet::{EtherType, EthernetFrame, MacAddr};
pub use ipv4::{IpProtocol, Ipv4Packet};
pub use meta::{parse_buf_meta, parse_meta, LinkType, PacketBuilder, PacketMeta};
pub use tcp::{TcpFlags, TcpSegment};
pub use udp::UdpDatagram;

/// Result alias used throughout the crate.
pub type Result<T> = core::result::Result<T, PacketError>;
