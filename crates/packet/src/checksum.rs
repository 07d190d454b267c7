//! The Internet checksum (RFC 1071) and the TCP/UDP pseudo-header.

use std::net::Ipv4Addr;

/// Incremental ones-complement sum, finalised by [`Checksum::finish`].
///
/// The same accumulator serves the IPv4 header checksum and the TCP/UDP
/// checksums (which additionally mix in the pseudo-header via
/// [`Checksum::add_pseudo_header`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Checksum {
    sum: u32,
}

impl Checksum {
    /// Fresh accumulator.
    pub(crate) fn new() -> Self {
        Checksum { sum: 0 }
    }

    /// Fold `data` into the sum. Odd-length data is zero-padded on the
    /// right, per RFC 1071.
    pub(crate) fn add_bytes(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(2);
        for chunk in &mut chunks {
            self.sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [last] = chunks.remainder() {
            self.sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
    }

    /// Fold a single big-endian 16-bit word into the sum.
    fn add_u16(&mut self, word: u16) {
        self.sum += u32::from(word);
    }

    /// Fold the TCP/UDP pseudo-header: source, destination, protocol and
    /// upper-layer length.
    pub(crate) fn add_pseudo_header(&mut self, src: Ipv4Addr, dst: Ipv4Addr, proto: u8, len: u16) {
        self.add_bytes(&src.octets());
        self.add_bytes(&dst.octets());
        self.add_u16(u16::from(proto));
        self.add_u16(len);
    }

    /// Final ones-complement fold and inversion.
    pub(crate) fn finish(self) -> u16 {
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// One-shot checksum of a byte slice (the IPv4 header case).
pub(crate) fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.finish()
}

/// Verify a buffer whose checksum field is already in place: the sum over
/// the whole buffer must finish to zero.
pub(crate) fn verify(data: &[u8]) -> bool {
    checksum(data) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7
    /// sum to ddf2 (before inversion).
    #[test]
    fn rfc1071_worked_example() {
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2);
    }

    /// Classic IPv4 header example (Wikipedia's checksum article): the
    /// checksum field of this header is 0xb861.
    #[test]
    fn ipv4_header_example() {
        let mut header = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert_eq!(checksum(&header), 0xb861);
        header[10] = 0xb8;
        header[11] = 0x61;
        assert!(verify(&header));
    }

    #[test]
    fn odd_length_pads_with_zero() {
        // [ab] is summed as ab00.
        assert_eq!(checksum(&[0xab]), !0xab00);
    }

    #[test]
    fn empty_is_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn carry_folding() {
        // ffff + ffff requires a double fold.
        assert_eq!(checksum(&[0xff, 0xff, 0xff, 0xff]), !0xffff);
    }

    #[test]
    fn pseudo_header_changes_sum() {
        let mut a = Checksum::new();
        a.add_bytes(b"payload!");
        let plain = a.finish();

        let mut b = Checksum::new();
        b.add_pseudo_header(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            17,
            8,
        );
        b.add_bytes(b"payload!");
        assert_ne!(plain, b.finish());
    }

    #[test]
    fn verify_detects_single_bit_corruption() {
        let mut data = vec![0x45, 0x00, 0x00, 0x14, 0x12, 0x34, 0x00, 0x00, 0x40, 0x06];
        let c = checksum(&data);
        data.extend_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
        data[4] ^= 0x01;
        assert!(!verify(&data));
    }
}
