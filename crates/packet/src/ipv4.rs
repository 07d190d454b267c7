//! IPv4 headers.

use std::net::Ipv4Addr;

use crate::checksum;
use crate::error::check_len;
use crate::{PacketError, Result};

/// Minimum IPv4 header length (IHL = 5, no options).
pub(crate) const IPV4_MIN_HEADER_LEN: usize = 20;

/// IP protocol numbers the pipeline understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// ICMP, protocol 1.
    Icmp,
    /// TCP, protocol 6.
    Tcp,
    /// UDP, protocol 17.
    Udp,
    /// Anything else, kept verbatim.
    Other(u8),
}

impl From<u8> for IpProtocol {
    fn from(raw: u8) -> Self {
        match raw {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(p: IpProtocol) -> u8 {
        match p {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(raw) => raw,
        }
    }
}

/// Zero-copy view of an IPv4 packet.
///
/// [`Ipv4Packet::parse`] validates version, IHL and total length against
/// the buffer; checksum verification is separate
/// ([`Ipv4Packet::verify_checksum`]) so that a measurement pipeline can
/// count bad-checksum packets instead of dropping them silently.
#[derive(Debug, Clone, Copy)]
pub struct Ipv4Packet<'a> {
    buf: &'a [u8],
}

impl<'a> Ipv4Packet<'a> {
    /// Wrap and structurally validate a buffer.
    pub fn parse(buf: &'a [u8]) -> Result<Self> {
        check_len(buf, IPV4_MIN_HEADER_LEN)?;
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(PacketError::BadVersion(version));
        }
        let ihl = buf[0] & 0x0f;
        if ihl < 5 {
            return Err(PacketError::BadHeaderLen(ihl));
        }
        let header_len = usize::from(ihl) * 4;
        check_len(buf, header_len)?;
        let total_len = usize::from(u16::from_be_bytes([buf[2], buf[3]]));
        if total_len < header_len {
            return Err(PacketError::BadHeaderLen(ihl));
        }
        check_len(buf, total_len)?;
        Ok(Ipv4Packet { buf })
    }

    /// Header length in bytes (IHL × 4).
    fn header_len(&self) -> usize {
        usize::from(self.buf[0] & 0x0f) * 4
    }

    /// The total-length field: header plus payload.
    fn total_len(&self) -> usize {
        usize::from(u16::from_be_bytes([self.buf[2], self.buf[3]]))
    }

    /// The protocol field.
    pub fn protocol(&self) -> IpProtocol {
        self.buf[9].into()
    }

    /// Source address.
    pub fn src(&self) -> Ipv4Addr {
        Ipv4Addr::new(self.buf[12], self.buf[13], self.buf[14], self.buf[15])
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv4Addr {
        Ipv4Addr::new(self.buf[16], self.buf[17], self.buf[18], self.buf[19])
    }

    /// Whether the header checksum verifies.
    pub fn verify_checksum(&self) -> bool {
        checksum::verify(&self.buf[..self.header_len()])
    }

    /// The payload as bounded by the total-length field.
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[self.header_len()..self.total_len()]
    }
}

/// Serialise an IPv4 packet (no options) around `payload`.
///
/// The checksum is computed and stored; `identification`, `ttl` and `tos`
/// take protocol-typical defaults unless specified via the full builder in
/// [`crate::PacketBuilder`].
pub fn build_packet(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: IpProtocol,
    ttl: u8,
    identification: u16,
    payload: &[u8],
) -> Vec<u8> {
    let total_len = IPV4_MIN_HEADER_LEN + payload.len();
    assert!(total_len <= usize::from(u16::MAX), "payload too large for IPv4");
    let mut out = Vec::with_capacity(total_len);
    out.push(0x45); // version 4, IHL 5
    out.push(0); // TOS
    out.extend_from_slice(&(total_len as u16).to_be_bytes());
    out.extend_from_slice(&identification.to_be_bytes());
    out.extend_from_slice(&[0x40, 0x00]); // DF set, offset 0
    out.push(ttl);
    out.push(protocol.into());
    out.extend_from_slice(&[0, 0]); // checksum placeholder
    out.extend_from_slice(&src.octets());
    out.extend_from_slice(&dst.octets());
    let sum = checksum::checksum(&out);
    out[10..12].copy_from_slice(&sum.to_be_bytes());
    out.extend_from_slice(payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        build_packet(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 0, 2, 7),
            IpProtocol::Udp,
            64,
            0x1234,
            b"payload bytes",
        )
    }

    #[test]
    fn round_trip_fields() {
        let bytes = sample();
        let p = Ipv4Packet::parse(&bytes).unwrap();
        assert_eq!(p.src(), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(p.dst(), Ipv4Addr::new(192, 0, 2, 7));
        assert_eq!(p.protocol(), IpProtocol::Udp);
        assert_eq!(bytes[8], 64, "ttl");
        assert_eq!(&bytes[4..6], &[0x12, 0x34], "identification");
        assert_eq!(p.header_len(), 20);
        assert_eq!(p.total_len(), 20 + 13);
        assert_eq!(p.payload(), b"payload bytes");
        assert!(p.verify_checksum());
    }

    #[test]
    fn corrupted_byte_fails_checksum_but_parses() {
        let mut bytes = sample();
        bytes[8] ^= 0xff; // flip the TTL
        let p = Ipv4Packet::parse(&bytes).unwrap();
        assert!(!p.verify_checksum());
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = sample();
        bytes[0] = 0x65; // version 6
        assert_eq!(Ipv4Packet::parse(&bytes).unwrap_err(), PacketError::BadVersion(6));
    }

    #[test]
    fn rejects_bad_ihl() {
        let mut bytes = sample();
        bytes[0] = 0x42; // IHL 2 < 5
        assert_eq!(Ipv4Packet::parse(&bytes).unwrap_err(), PacketError::BadHeaderLen(2));
    }

    #[test]
    fn rejects_total_len_beyond_buffer() {
        let mut bytes = sample();
        bytes[2] = 0xff;
        bytes[3] = 0xff;
        assert!(matches!(
            Ipv4Packet::parse(&bytes).unwrap_err(),
            PacketError::Truncated { .. }
        ));
    }

    #[test]
    fn rejects_total_len_below_header_len() {
        let mut bytes = sample();
        bytes[2] = 0x00;
        bytes[3] = 0x10; // 16 < 20
        assert!(matches!(
            Ipv4Packet::parse(&bytes).unwrap_err(),
            PacketError::BadHeaderLen(_)
        ));
    }

    #[test]
    fn rejects_truncated_buffer() {
        assert!(matches!(
            Ipv4Packet::parse(&[0x45; 10]).unwrap_err(),
            PacketError::Truncated { .. }
        ));
    }

    #[test]
    fn payload_respects_total_len_with_trailing_junk() {
        // Ethernet padding after the IP datagram must not leak into payload.
        let mut bytes = sample();
        bytes.extend_from_slice(&[0xAA; 6]);
        let p = Ipv4Packet::parse(&bytes).unwrap();
        assert_eq!(p.payload(), b"payload bytes");
    }

    #[test]
    fn protocol_mapping() {
        assert_eq!(IpProtocol::from(6), IpProtocol::Tcp);
        assert_eq!(IpProtocol::from(17), IpProtocol::Udp);
        assert_eq!(IpProtocol::from(1), IpProtocol::Icmp);
        assert_eq!(IpProtocol::from(89), IpProtocol::Other(89));
        assert_eq!(u8::from(IpProtocol::Tcp), 6);
        assert_eq!(u8::from(IpProtocol::Other(89)), 89);
    }
}
