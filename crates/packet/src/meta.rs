//! Per-packet metadata extraction and the high-level packet builder.

use std::net::Ipv4Addr;

use crate::ethernet::{self, EtherType, EthernetFrame, MacAddr};
use crate::ipv4::{self, IpProtocol, Ipv4Packet};
use crate::tcp::{self, TcpFlags, TcpSegment};
use crate::udp::{self, UdpDatagram};
use crate::{PacketError, Result};

/// Capture link types the metadata extractor understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkType {
    /// DLT_EN10MB (1): packets begin with an Ethernet II header.
    Ethernet,
    /// DLT_RAW (101): packets begin directly with the IP header.
    RawIp,
}

impl LinkType {
    /// The libpcap linktype code.
    pub fn code(self) -> u32 {
        match self {
            LinkType::Ethernet => 1,
            LinkType::RawIp => 101,
        }
    }

    /// Decode a libpcap linktype code.
    pub fn from_code(code: u32) -> Result<Self> {
        match code {
            1 => Ok(LinkType::Ethernet),
            101 | 228 => Ok(LinkType::RawIp),
            other => Err(PacketError::UnsupportedLinkType(other)),
        }
    }
}

/// Everything the flow pipeline needs to know about one packet.
///
/// This is the record type the paper's methodology consumes: destination
/// address (for BGP-prefix attribution), wire length (for bandwidth), and
/// timestamp (for interval assignment). Ports and protocol are carried for
/// application breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketMeta {
    /// Capture timestamp, nanoseconds since the epoch.
    pub ts_ns: u64,
    /// IPv4 source address.
    pub src: Ipv4Addr,
    /// IPv4 destination address (the flow key input).
    pub dst: Ipv4Addr,
    /// Transport protocol.
    pub proto: IpProtocol,
    /// Source port, 0 for non-TCP/UDP.
    pub src_port: u16,
    /// Destination port, 0 for non-TCP/UDP.
    pub dst_port: u16,
    /// Original on-the-wire length in bytes (IP layer and below included).
    pub wire_len: u32,
}

/// Extract [`PacketMeta`] from raw capture bytes.
///
/// The IPv4 header checksum is verified: a monitor must never attribute
/// a packet whose addresses may be corrupt (the flow key would be wrong).
/// Transport checksums are *not* verified — payload corruption does not
/// affect bandwidth accounting, and capture snapping makes them
/// unverifiable in general.
///
/// `wire_len` is taken from the buffer length; when parsing snapped pcap
/// records use [`parse_buf_meta`], which substitutes the record's
/// original length.
pub fn parse_meta(link: LinkType, buf: &[u8], ts_ns: u64) -> Result<PacketMeta> {
    let (ip_bytes, wire_len) = match link {
        LinkType::Ethernet => {
            let frame = EthernetFrame::parse(buf)?;
            match frame.ethertype() {
                EtherType::Ipv4 => (frame.payload(), buf.len() as u32),
                other => return Err(PacketError::UnsupportedEtherType(other.into())),
            }
        }
        LinkType::RawIp => (buf, buf.len() as u32),
    };
    let ip = Ipv4Packet::parse(ip_bytes)?;
    if !ip.verify_checksum() {
        return Err(PacketError::BadChecksum { what: "ipv4" });
    }
    let (src_port, dst_port) = match ip.protocol() {
        IpProtocol::Tcp => {
            let seg = TcpSegment::parse(ip.payload())?;
            (seg.src_port(), seg.dst_port())
        }
        IpProtocol::Udp => {
            let d = UdpDatagram::parse(ip.payload())?;
            (d.src_port(), d.dst_port())
        }
        _ => (0, 0),
    };
    Ok(PacketMeta {
        ts_ns,
        src: ip.src(),
        dst: ip.dst(),
        proto: ip.protocol(),
        src_port,
        dst_port,
        wire_len,
    })
}

/// Extract metadata from a pcap record
/// ([`crate::pcap::PcapReader::next_record_ref`],
/// [`crate::pcap::PcapSlice::next_record`]): captured bytes in `data`,
/// timestamp and original length from `head`, the original length
/// preferred over the (possibly snapped) captured length for bandwidth
/// accounting.
pub fn parse_buf_meta(
    link: LinkType,
    data: &[u8],
    head: &crate::pcap::RecordHeader,
) -> Result<PacketMeta> {
    let mut meta = parse_meta(link, data, head.ts_ns)?;
    meta.wire_len = head.orig_len;
    Ok(meta)
}

/// Fluent builder producing well-formed UDP or TCP packets, optionally
/// wrapped in an Ethernet frame.
///
/// Defaults: TTL 64, identification 0, TCP flags ACK, window 65535, MACs
/// `02:00:00:00:00:01 → 02:00:00:00:00:02`, zero-filled payload.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    proto: IpProtocol,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: Vec<u8>,
    tcp_flags: TcpFlags,
}

impl PacketBuilder {
    /// Start building a UDP packet.
    pub fn udp() -> Self {
        Self::new(IpProtocol::Udp)
    }

    /// Start building a TCP packet.
    pub fn tcp() -> Self {
        Self::new(IpProtocol::Tcp)
    }

    fn new(proto: IpProtocol) -> Self {
        PacketBuilder {
            proto,
            src: Ipv4Addr::UNSPECIFIED,
            dst: Ipv4Addr::UNSPECIFIED,
            src_port: 0,
            dst_port: 0,
            payload: Vec::new(),
            tcp_flags: TcpFlags(TcpFlags::ACK),
        }
    }

    /// Source address and port.
    pub fn src(mut self, addr: Ipv4Addr, port: u16) -> Self {
        self.src = addr;
        self.src_port = port;
        self
    }

    /// Destination address and port.
    pub fn dst(mut self, addr: Ipv4Addr, port: u16) -> Self {
        self.dst = addr;
        self.dst_port = port;
        self
    }

    /// Explicit payload bytes.
    pub fn payload(mut self, payload: &[u8]) -> Self {
        self.payload = payload.to_vec();
        self
    }

    /// Zero-filled payload of the given length (trace synthesis only needs
    /// sizes, not content).
    pub fn payload_len(mut self, len: usize) -> Self {
        self.payload = vec![0u8; len];
        self
    }

    /// TCP flag bits (ignored for UDP).
    pub fn tcp_flags(mut self, flags: TcpFlags) -> Self {
        self.tcp_flags = flags;
        self
    }

    /// Serialise as an IPv4 packet (raw-IP link type).
    pub fn build_ipv4(&self) -> Vec<u8> {
        let transport = match self.proto {
            IpProtocol::Udp => udp::build_datagram(
                self.src,
                self.dst,
                self.src_port,
                self.dst_port,
                &self.payload,
            ),
            IpProtocol::Tcp => tcp::build_segment(
                self.src,
                self.dst,
                self.src_port,
                self.dst_port,
                0,
                0,
                self.tcp_flags,
                65535,
                &self.payload,
            ),
            other => panic!("PacketBuilder only builds TCP/UDP, got {other:?}"),
        };
        ipv4::build_packet(self.src, self.dst, self.proto, 64, 0, &transport)
    }

    /// Serialise as an Ethernet II frame around the IPv4 packet.
    pub fn build_ethernet(&self) -> Vec<u8> {
        let ip = self.build_ipv4();
        ethernet::build_frame(
            MacAddr([0x02, 0, 0, 0, 0, 0x02]),
            MacAddr([0x02, 0, 0, 0, 0, 0x01]),
            EtherType::Ipv4,
            &ip,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 1, 2, 3);
    const DST: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 200);

    #[test]
    fn udp_meta_via_ethernet() {
        let bytes = PacketBuilder::udp()
            .src(SRC, 4000)
            .dst(DST, 53)
            .payload_len(100)
            .build_ethernet();
        let meta = parse_meta(LinkType::Ethernet, &bytes, 42).unwrap();
        assert_eq!(meta.ts_ns, 42);
        assert_eq!(meta.src, SRC);
        assert_eq!(meta.dst, DST);
        assert_eq!(meta.proto, IpProtocol::Udp);
        assert_eq!(meta.src_port, 4000);
        assert_eq!(meta.dst_port, 53);
        assert_eq!(meta.wire_len as usize, bytes.len());
    }

    #[test]
    fn tcp_meta_via_raw_ip() {
        let bytes = PacketBuilder::tcp()
            .src(SRC, 443)
            .dst(DST, 51234)
            .tcp_flags(TcpFlags(TcpFlags::SYN))
            .build_ipv4();
        let meta = parse_meta(LinkType::RawIp, &bytes, 0).unwrap();
        assert_eq!(meta.proto, IpProtocol::Tcp);
        assert_eq!(meta.src_port, 443);
        assert_eq!(meta.dst_port, 51234);
        assert_eq!(meta.wire_len as usize, bytes.len());
    }

    #[test]
    fn non_ipv4_ethertype_rejected() {
        let frame = ethernet::build_frame(
            MacAddr::default(),
            MacAddr::default(),
            EtherType::Arp,
            &[0u8; 28],
        );
        assert_eq!(
            parse_meta(LinkType::Ethernet, &frame, 0).unwrap_err(),
            PacketError::UnsupportedEtherType(0x0806)
        );
    }

    #[test]
    fn snapped_record_uses_orig_len() {
        use crate::pcap::{PcapReader, PcapWriter};
        let packet = PacketBuilder::udp()
            .src(SRC, 1)
            .dst(DST, 2)
            .payload_len(400)
            .build_ipv4();

        let mut buf = Vec::new();
        // Snap at 64 bytes: headers survive, payload does not.
        let mut w = PcapWriter::with_options(
            &mut buf,
            LinkType::RawIp.code(),
            crate::pcap::TsResolution::Micro,
            64,
        )
        .unwrap();
        w.write_record(5_000_000_000, packet.len() as u32, &packet)
            .unwrap();
        w.finish().unwrap();

        let mut r = PcapReader::new(&buf[..]).unwrap();
        let link = LinkType::from_code(r.header().linktype).unwrap();
        let (head, data) = r.next_record_ref().unwrap().unwrap();
        // The IPv4 total-length check fails on the snapped buffer — parse
        // must report truncation, not panic...
        let err = parse_buf_meta(link, data, &head).unwrap_err();
        assert!(matches!(err, PacketError::Truncated { .. }));

        // ...and an unsnapped record reports the true wire length.
        let mut buf2 = Vec::new();
        let mut w2 = PcapWriter::new(&mut buf2, LinkType::RawIp.code()).unwrap();
        w2.write_record(5_000_000_000, packet.len() as u32, &packet)
            .unwrap();
        w2.finish().unwrap();
        let mut r2 = PcapReader::new(&buf2[..]).unwrap();
        let (head, data) = r2.next_record_ref().unwrap().unwrap();
        let meta = parse_buf_meta(LinkType::RawIp, data, &head).unwrap();
        assert_eq!(meta.wire_len as usize, packet.len());
    }

    #[test]
    fn icmp_like_packets_have_zero_ports() {
        let ip = ipv4::build_packet(SRC, DST, IpProtocol::Icmp, 64, 0, &[8, 0, 0, 0]);
        let meta = parse_meta(LinkType::RawIp, &ip, 0).unwrap();
        assert_eq!(meta.proto, IpProtocol::Icmp);
        assert_eq!(meta.src_port, 0);
        assert_eq!(meta.dst_port, 0);
    }

    #[test]
    fn linktype_codes() {
        assert_eq!(LinkType::Ethernet.code(), 1);
        assert_eq!(LinkType::RawIp.code(), 101);
        assert_eq!(LinkType::from_code(1).unwrap(), LinkType::Ethernet);
        assert_eq!(LinkType::from_code(228).unwrap(), LinkType::RawIp);
        assert!(matches!(
            LinkType::from_code(105).unwrap_err(),
            PacketError::UnsupportedLinkType(105)
        ));
    }
}
