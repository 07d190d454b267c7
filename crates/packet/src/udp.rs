//! UDP datagram headers.

use std::net::Ipv4Addr;

use crate::checksum::Checksum;
use crate::error::check_len;
use crate::{PacketError, Result};

/// UDP header length.
pub(crate) const UDP_HEADER_LEN: usize = 8;

/// Zero-copy view of a UDP datagram.
#[derive(Debug, Clone, Copy)]
pub struct UdpDatagram<'a> {
    buf: &'a [u8],
}

impl<'a> UdpDatagram<'a> {
    /// Wrap and structurally validate a buffer.
    pub fn parse(buf: &'a [u8]) -> Result<Self> {
        check_len(buf, UDP_HEADER_LEN)?;
        let len = usize::from(u16::from_be_bytes([buf[4], buf[5]]));
        if len < UDP_HEADER_LEN {
            return Err(PacketError::BadHeaderLen(len as u8));
        }
        check_len(buf, len)?;
        Ok(UdpDatagram { buf })
    }

    /// Source port.
    pub(crate) fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.buf[0], self.buf[1]])
    }

    /// Destination port.
    pub(crate) fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.buf[2], self.buf[3]])
    }

    /// The length field: header plus payload.
    fn len_field(&self) -> usize {
        usize::from(u16::from_be_bytes([self.buf[4], self.buf[5]]))
    }

    /// The checksum field as stored (0 means "not computed" in IPv4).
    fn stored_checksum(&self) -> u16 {
        u16::from_be_bytes([self.buf[6], self.buf[7]])
    }

    /// Verify the checksum; a stored checksum of zero is accepted as
    /// "checksum disabled" per RFC 768.
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        if self.stored_checksum() == 0 {
            return true;
        }
        let len = self.len_field();
        let mut c = Checksum::new();
        c.add_pseudo_header(src, dst, 17, len as u16);
        c.add_bytes(&self.buf[..len]);
        c.finish() == 0
    }
}

/// Serialise a UDP datagram with a valid checksum.
pub(crate) fn build_datagram(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Vec<u8> {
    let len = UDP_HEADER_LEN + payload.len();
    assert!(len <= usize::from(u16::MAX), "payload too large for UDP");
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&src_port.to_be_bytes());
    out.extend_from_slice(&dst_port.to_be_bytes());
    out.extend_from_slice(&(len as u16).to_be_bytes());
    out.extend_from_slice(&[0, 0]); // checksum placeholder
    out.extend_from_slice(payload);

    let mut c = Checksum::new();
    c.add_pseudo_header(src, dst, 17, len as u16);
    c.add_bytes(&out);
    let sum = match c.finish() {
        // A computed checksum of zero is transmitted as all-ones (RFC 768).
        0 => 0xffff,
        s => s,
    };
    out[6..8].copy_from_slice(&sum.to_be_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 7);

    impl<'a> UdpDatagram<'a> {
        /// The payload as bounded by the length field.
        fn payload(&self) -> &'a [u8] {
            &self.buf[UDP_HEADER_LEN..self.len_field()]
        }
    }

    #[test]
    fn round_trip() {
        let bytes = build_datagram(SRC, DST, 5353, 53, b"query");
        let d = UdpDatagram::parse(&bytes).unwrap();
        assert_eq!(d.src_port(), 5353);
        assert_eq!(d.dst_port(), 53);
        assert_eq!(d.len_field(), 13);
        assert_eq!(d.payload(), b"query");
        assert!(d.verify_checksum(SRC, DST));
    }

    #[test]
    fn zero_checksum_accepted() {
        let mut bytes = build_datagram(SRC, DST, 1, 2, b"x");
        bytes[6] = 0;
        bytes[7] = 0;
        let d = UdpDatagram::parse(&bytes).unwrap();
        assert!(d.verify_checksum(SRC, DST));
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = build_datagram(SRC, DST, 1, 2, b"hello world");
        bytes[9] ^= 0x80;
        let d = UdpDatagram::parse(&bytes).unwrap();
        assert!(!d.verify_checksum(SRC, DST));
    }

    #[test]
    fn rejects_bad_length_field() {
        let mut bytes = build_datagram(SRC, DST, 1, 2, b"abc");
        bytes[4] = 0;
        bytes[5] = 4; // < 8
        assert!(matches!(
            UdpDatagram::parse(&bytes).unwrap_err(),
            PacketError::BadHeaderLen(_)
        ));
        let mut bytes = build_datagram(SRC, DST, 1, 2, b"abc");
        bytes[4] = 0xff;
        bytes[5] = 0xff;
        assert!(matches!(
            UdpDatagram::parse(&bytes).unwrap_err(),
            PacketError::Truncated { .. }
        ));
    }

    #[test]
    fn trailing_padding_excluded_from_payload() {
        let mut bytes = build_datagram(SRC, DST, 1, 2, b"abc");
        bytes.extend_from_slice(&[0u8; 5]);
        let d = UdpDatagram::parse(&bytes).unwrap();
        assert_eq!(d.payload(), b"abc");
        assert!(d.verify_checksum(SRC, DST));
    }

    #[test]
    fn empty_payload() {
        let bytes = build_datagram(SRC, DST, 9, 9, &[]);
        let d = UdpDatagram::parse(&bytes).unwrap();
        assert!(d.payload().is_empty());
        assert_eq!(d.len_field(), UDP_HEADER_LEN);
        assert!(d.verify_checksum(SRC, DST));
    }
}
