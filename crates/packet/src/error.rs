//! Packet and capture-file error types.

use core::fmt;

/// Everything that can go wrong while parsing packets or pcap files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketError {
    /// Buffer shorter than the structure requires.
    Truncated {
        /// Bytes required for the structure being parsed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// An IPv4 packet whose version nibble is not 4.
    BadVersion(u8),
    /// An IPv4 IHL below 5 (20 bytes) or beyond the buffer.
    BadHeaderLen(u8),
    /// A checksum failed verification.
    BadChecksum {
        /// Protocol whose checksum failed ("ipv4", "tcp", "udp").
        what: &'static str,
    },
    /// An Ethernet frame whose ethertype we do not handle.
    UnsupportedEtherType(u16),
    /// An IP protocol number the metadata extractor does not handle.
    UnsupportedProtocol(u8),
    /// A pcap file with an unrecognised magic number.
    BadMagic(u32),
    /// A pcap record header whose captured length is implausible.
    ImplausibleCaptureLen(u32),
    /// A timestamp that does not fit the pcap record header's 32-bit
    /// seconds field (nanoseconds since the epoch shown).
    UnrepresentableTimestamp(u64),
    /// A pcap link type the metadata extractor does not handle.
    UnsupportedLinkType(u32),
    /// An underlying I/O failure (message-only so the error stays `Eq`).
    Io(String),
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::Truncated { needed, got } => {
                write!(f, "truncated: need {needed} bytes, have {got}")
            }
            PacketError::BadVersion(v) => write!(f, "IP version {v}, expected 4"),
            PacketError::BadHeaderLen(ihl) => write!(f, "bad IPv4 IHL {ihl}"),
            PacketError::BadChecksum { what } => write!(f, "{what} checksum mismatch"),
            PacketError::UnsupportedEtherType(t) => write!(f, "unsupported ethertype {t:#06x}"),
            PacketError::UnsupportedProtocol(p) => write!(f, "unsupported IP protocol {p}"),
            PacketError::BadMagic(m) => write!(f, "unrecognised pcap magic {m:#010x}"),
            PacketError::ImplausibleCaptureLen(l) => {
                write!(f, "implausible pcap capture length {l}")
            }
            PacketError::UnrepresentableTimestamp(ns) => {
                write!(
                    f,
                    "timestamp {ns} ns overflows the pcap 32-bit seconds field"
                )
            }
            PacketError::UnsupportedLinkType(t) => write!(f, "unsupported pcap linktype {t}"),
            PacketError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for PacketError {}

impl From<std::io::Error> for PacketError {
    fn from(e: std::io::Error) -> Self {
        PacketError::Io(e.to_string())
    }
}

/// Check that `buf` holds at least `needed` bytes.
#[inline]
pub(crate) fn check_len(buf: &[u8], needed: usize) -> crate::Result<()> {
    if buf.len() < needed {
        Err(PacketError::Truncated {
            needed,
            got: buf.len(),
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_len_boundary() {
        assert!(check_len(&[0; 4], 4).is_ok());
        assert_eq!(
            check_len(&[0; 3], 4),
            Err(PacketError::Truncated { needed: 4, got: 3 })
        );
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        let e: PacketError = io.into();
        assert!(matches!(e, PacketError::Io(_)));
        assert!(e.to_string().contains("eof"));
    }

    #[test]
    fn displays_are_specific() {
        assert!(PacketError::BadVersion(6).to_string().contains('6'));
        assert!(PacketError::BadMagic(0xdead_beef)
            .to_string()
            .contains("0xdeadbeef"));
        assert!(PacketError::UnsupportedEtherType(0x86dd)
            .to_string()
            .contains("0x86dd"));
    }
}
