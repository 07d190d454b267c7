//! Ethernet II frames.

use core::fmt;

use crate::error::check_len;
use crate::Result;

/// Length of an Ethernet II header: two MACs plus the ethertype.
pub(crate) const ETHERNET_HEADER_LEN: usize = 14;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// The ethertypes the pipeline understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4, `0x0800`.
    Ipv4,
    /// ARP, `0x0806` (recognised so it can be counted, not parsed further).
    Arp,
    /// Anything else, kept verbatim.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(raw: u16) -> Self {
        match raw {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(t: EtherType) -> u16 {
        match t {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(raw) => raw,
        }
    }
}

/// Zero-copy view of an Ethernet II frame.
#[derive(Debug, Clone, Copy)]
pub struct EthernetFrame<'a> {
    buf: &'a [u8],
}

impl<'a> EthernetFrame<'a> {
    /// Wrap a buffer, checking only that the fixed header fits.
    pub fn parse(buf: &'a [u8]) -> Result<Self> {
        check_len(buf, ETHERNET_HEADER_LEN)?;
        Ok(EthernetFrame { buf })
    }

    /// The ethertype field.
    pub fn ethertype(&self) -> EtherType {
        u16::from_be_bytes([self.buf[12], self.buf[13]]).into()
    }

    /// The bytes after the header.
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[ETHERNET_HEADER_LEN..]
    }
}

/// Serialise an Ethernet II frame around `payload`.
pub fn build_frame(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ETHERNET_HEADER_LEN + payload.len());
    out.extend_from_slice(&dst.0);
    out.extend_from_slice(&src.0);
    out.extend_from_slice(&u16::from(ethertype).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PacketError;

    #[test]
    fn round_trip() {
        let dst = MacAddr([1, 2, 3, 4, 5, 6]);
        let src = MacAddr([7, 8, 9, 10, 11, 12]);
        let bytes = build_frame(dst, src, EtherType::Ipv4, b"hello");
        assert_eq!(&bytes[..12], &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        let frame = EthernetFrame::parse(&bytes).unwrap();
        assert_eq!(frame.ethertype(), EtherType::Ipv4);
        assert_eq!(frame.payload(), b"hello");
    }

    #[test]
    fn truncated_header_rejected() {
        assert_eq!(
            EthernetFrame::parse(&[0u8; 13]).unwrap_err(),
            PacketError::Truncated { needed: 14, got: 13 }
        );
    }

    #[test]
    fn empty_payload_ok() {
        let bytes = build_frame(MacAddr([0xff; 6]), MacAddr::default(), EtherType::Arp, &[]);
        let frame = EthernetFrame::parse(&bytes).unwrap();
        assert!(frame.payload().is_empty());
        assert_eq!(frame.ethertype(), EtherType::Arp);
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(EtherType::from(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from(0x86dd), EtherType::Other(0x86dd));
        assert_eq!(u16::from(EtherType::Ipv4), 0x0800);
        assert_eq!(u16::from(EtherType::Other(0x1234)), 0x1234);
    }

    #[test]
    fn mac_display() {
        let m = MacAddr([0x02, 0x00, 0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(m.to_string(), "02:00:de:ad:be:ef");
    }
}
