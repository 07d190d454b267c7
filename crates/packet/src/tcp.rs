//! TCP segment headers.

use core::fmt;
use std::net::Ipv4Addr;

use crate::checksum::Checksum;
use crate::error::check_len;
use crate::{PacketError, Result};

/// Minimum TCP header length (data offset = 5, no options).
pub(crate) const TCP_MIN_HEADER_LEN: usize = 20;

/// The TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag.
    const FIN: u8 = 0x01;
    /// SYN flag.
    pub const SYN: u8 = 0x02;
    /// RST flag.
    const RST: u8 = 0x04;
    /// PSH flag.
    const PSH: u8 = 0x08;
    /// ACK flag.
    pub const ACK: u8 = 0x10;
    /// URG flag.
    const URG: u8 = 0x20;

    /// Whether `bit` is set.
    pub fn contains(&self, bit: u8) -> bool {
        self.0 & bit != 0
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const NAMES: [(u8, char); 6] = [
            (TcpFlags::FIN, 'F'),
            (TcpFlags::SYN, 'S'),
            (TcpFlags::RST, 'R'),
            (TcpFlags::PSH, 'P'),
            (TcpFlags::ACK, 'A'),
            (TcpFlags::URG, 'U'),
        ];
        for (bit, ch) in NAMES {
            if self.contains(bit) {
                write!(f, "{ch}")?;
            }
        }
        Ok(())
    }
}

/// Zero-copy view of a TCP segment.
#[derive(Debug, Clone, Copy)]
pub struct TcpSegment<'a> {
    buf: &'a [u8],
}

impl<'a> TcpSegment<'a> {
    /// Wrap and structurally validate a buffer.
    pub fn parse(buf: &'a [u8]) -> Result<Self> {
        check_len(buf, TCP_MIN_HEADER_LEN)?;
        let data_offset = usize::from(buf[12] >> 4) * 4;
        if data_offset < TCP_MIN_HEADER_LEN {
            return Err(PacketError::BadHeaderLen((buf[12] >> 4) as u8));
        }
        check_len(buf, data_offset)?;
        Ok(TcpSegment { buf })
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.buf[0], self.buf[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.buf[2], self.buf[3]])
    }

    /// Header length in bytes.
    fn header_len(&self) -> usize {
        usize::from(self.buf[12] >> 4) * 4
    }

    /// The payload after header and options.
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[self.header_len()..]
    }

    /// Verify the checksum against the pseudo-header for `src`/`dst`.
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        let mut c = Checksum::new();
        c.add_pseudo_header(src, dst, 6, self.buf.len() as u16);
        c.add_bytes(self.buf);
        c.finish() == 0
    }
}

/// Serialise a TCP segment (no options) with a valid checksum.
#[allow(clippy::too_many_arguments)]
pub fn build_segment(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: TcpFlags,
    window: u16,
    payload: &[u8],
) -> Vec<u8> {
    let len = TCP_MIN_HEADER_LEN + payload.len();
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&src_port.to_be_bytes());
    out.extend_from_slice(&dst_port.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&ack.to_be_bytes());
    out.push(0x50); // data offset 5
    out.push(flags.0);
    out.extend_from_slice(&window.to_be_bytes());
    out.extend_from_slice(&[0, 0]); // checksum placeholder
    out.extend_from_slice(&[0, 0]); // urgent pointer
    out.extend_from_slice(payload);

    let mut c = Checksum::new();
    c.add_pseudo_header(src, dst, 6, len as u16);
    c.add_bytes(&out);
    let sum = c.finish();
    out[16..18].copy_from_slice(&sum.to_be_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 7);

    fn sample() -> Vec<u8> {
        build_segment(
            SRC,
            DST,
            443,
            51000,
            0xdeadbeef,
            0x01020304,
            TcpFlags(TcpFlags::ACK | TcpFlags::PSH),
            65535,
            b"tls bytes",
        )
    }

    #[test]
    fn round_trip_fields() {
        let bytes = sample();
        let seg = TcpSegment::parse(&bytes).unwrap();
        assert_eq!(seg.src_port(), 443);
        assert_eq!(seg.dst_port(), 51000);
        assert_eq!(&bytes[4..12], &[0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4], "seq, ack");
        assert_eq!(seg.header_len(), 20);
        assert_eq!(TcpFlags(bytes[13]), TcpFlags(TcpFlags::ACK | TcpFlags::PSH));
        assert_eq!(&bytes[14..16], &[0xff, 0xff], "window");
        assert_eq!(seg.payload(), b"tls bytes");
        assert!(seg.verify_checksum(SRC, DST));
    }

    #[test]
    fn checksum_binds_addresses() {
        // Same bytes, different pseudo-header: checksum must fail. This is
        // what catches NAT-style rewrites without checksum fixup.
        let bytes = sample();
        let seg = TcpSegment::parse(&bytes).unwrap();
        assert!(!seg.verify_checksum(SRC, Ipv4Addr::new(192, 0, 2, 8)));
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut bytes = sample();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let seg = TcpSegment::parse(&bytes).unwrap();
        assert!(!seg.verify_checksum(SRC, DST));
    }

    #[test]
    fn rejects_short_buffer_and_bad_offset() {
        assert!(matches!(
            TcpSegment::parse(&[0; 10]).unwrap_err(),
            PacketError::Truncated { .. }
        ));
        let mut bytes = sample();
        bytes[12] = 0x20; // data offset 2 words < 5
        assert!(matches!(
            TcpSegment::parse(&bytes).unwrap_err(),
            PacketError::BadHeaderLen(_)
        ));
        let mut bytes = sample();
        bytes[12] = 0xf0; // offset 15 words = 60 bytes > buffer for tiny payloads
        bytes.truncate(24);
        assert!(matches!(
            TcpSegment::parse(&bytes).unwrap_err(),
            PacketError::Truncated { .. }
        ));
    }

    #[test]
    fn flags_display() {
        assert_eq!(TcpFlags(TcpFlags::SYN | TcpFlags::ACK).to_string(), "SA");
        assert_eq!(TcpFlags(TcpFlags::FIN).to_string(), "F");
        assert_eq!(TcpFlags::default().to_string(), "");
    }

    #[test]
    fn empty_payload_segment() {
        let bytes = build_segment(SRC, DST, 1, 2, 0, 0, TcpFlags(TcpFlags::SYN), 1024, &[]);
        let seg = TcpSegment::parse(&bytes).unwrap();
        assert!(seg.payload().is_empty());
        assert!(seg.verify_checksum(SRC, DST));
    }
}
