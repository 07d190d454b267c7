//! Canonical IPv4 CIDR prefixes.

use core::cmp::Ordering;
use core::fmt;
use core::str::FromStr;
use std::net::Ipv4Addr;

use crate::PrefixError;

/// An IPv4 CIDR prefix in canonical form (host bits zeroed).
///
/// `Prefix` is the flow key of the whole reproduction: the paper defines a
/// "flow" as all packets whose destination address longest-matches the same
/// BGP routing-table entry. Construction canonicalises (masks away host
/// bits), so two prefixes are equal iff they denote the same address block.
///
/// Ordering sorts by network address first and then by length (shorter —
/// less specific — first), which yields the conventional RIB dump order.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    bits: u32,
    len: u8,
}

impl Prefix {
    /// Construct from a network address and a prefix length, masking host
    /// bits. Fails only if `len > 32`.
    pub(crate) fn new(addr: Ipv4Addr, len: u8) -> Result<Self, PrefixError> {
        Self::from_u32(u32::from(addr), len)
    }

    /// Construct from a host-order `u32` and a prefix length.
    pub fn from_u32(bits: u32, len: u8) -> Result<Self, PrefixError> {
        if len > 32 {
            return Err(PrefixError::LengthOutOfRange(len));
        }
        Ok(Prefix {
            bits: bits & mask(len),
            len,
        })
    }

    /// The /32 host route for `addr`.
    fn host(addr: Ipv4Addr) -> Self {
        Prefix {
            bits: u32::from(addr),
            len: 32,
        }
    }

    /// Network address (lowest address in the block).
    #[inline]
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits)
    }

    /// Network address as host-order bits.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Prefix length in bits.
    #[inline]
    #[allow(clippy::len_without_is_empty, reason = "a prefix length, not a count")]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Highest address in the block (the broadcast address for subnets).
    #[inline]
    pub fn last_addr(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits | !mask(self.len))
    }

    /// Whether `addr` falls inside this prefix.
    #[inline]
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        self.contains_u32(u32::from(addr))
    }

    /// Whether the host-order address `bits` falls inside this prefix.
    #[inline]
    pub fn contains_u32(&self, bits: u32) -> bool {
        bits & mask(self.len) == self.bits
    }

    /// Whether `other` is a subnet of (or equal to) `self`.
    pub fn contains_prefix(&self, other: &Prefix) -> bool {
        other.len >= self.len && self.contains_u32(other.bits)
    }
}

/// Bit mask with the top `len` bits set.
#[inline]
pub(crate) fn mask(len: u8) -> u32 {
    debug_assert!(len <= 32);
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

// `Debug` delegates to `Display`; prefixes read better as `10.0.0.0/8`
// than as a struct dump in test failures.
impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl Ord for Prefix {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bits.cmp(&other.bits).then(self.len.cmp(&other.len))
    }
}

impl PartialOrd for Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl FromStr for Prefix {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, len_s) = s
            .split_once('/')
            .ok_or_else(|| PrefixError::Malformed(s.to_string()))?;
        let addr: Ipv4Addr = addr_s
            .parse()
            .map_err(|_| PrefixError::BadAddress(addr_s.to_string()))?;
        let len: u8 = len_s
            .parse()
            .map_err(|_| PrefixError::BadLength(len_s.to_string()))?;
        Prefix::new(addr, len)
    }
}

impl From<Ipv4Addr> for Prefix {
    fn from(addr: Ipv4Addr) -> Self {
        Prefix::host(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalises_host_bits() {
        let a = Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 8).unwrap();
        assert_eq!(a, p("10.0.0.0/8"));
        assert_eq!(a.to_string(), "10.0.0.0/8");
    }

    #[test]
    fn rejects_over_long() {
        assert_eq!(
            Prefix::from_u32(0, 33),
            Err(PrefixError::LengthOutOfRange(33))
        );
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.168.1.0/24", "1.2.3.4/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            "10.0.0.0".parse::<Prefix>(),
            Err(PrefixError::Malformed(_))
        ));
        assert!(matches!(
            "10.0.0/8".parse::<Prefix>(),
            Err(PrefixError::BadAddress(_))
        ));
        assert!(matches!(
            "10.0.0.0/x".parse::<Prefix>(),
            Err(PrefixError::BadLength(_))
        ));
        assert!(matches!(
            "10.0.0.0/40".parse::<Prefix>(),
            Err(PrefixError::LengthOutOfRange(40))
        ));
    }

    #[test]
    fn containment() {
        let eight = p("10.0.0.0/8");
        assert!(eight.contains(Ipv4Addr::new(10, 255, 0, 1)));
        assert!(!eight.contains(Ipv4Addr::new(11, 0, 0, 1)));
        assert!(eight.contains_prefix(&p("10.1.0.0/16")));
        assert!(!p("10.1.0.0/16").contains_prefix(&eight));
        assert!(eight.contains_prefix(&eight));
    }

    #[test]
    fn default_route_contains_everything() {
        let default = p("0.0.0.0/0");
        assert!(default.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert!(default.contains(Ipv4Addr::new(0, 0, 0, 0)));
        assert!(default.contains_prefix(&p("10.0.0.0/8")));
    }

    #[test]
    fn mask_and_range() {
        let a = p("192.168.1.0/24");
        assert_eq!(a.last_addr(), Ipv4Addr::new(192, 168, 1, 255));
        assert_eq!(p("1.2.3.4/32").last_addr(), Ipv4Addr::new(1, 2, 3, 4));
    }

    #[test]
    fn ordering_sorts_like_a_rib_dump() {
        let mut v = vec![
            p("10.1.0.0/16"),
            p("10.0.0.0/8"),
            p("9.0.0.0/8"),
            p("10.0.0.0/16"),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                p("9.0.0.0/8"),
                p("10.0.0.0/8"),
                p("10.0.0.0/16"),
                p("10.1.0.0/16")
            ]
        );
    }

    #[test]
    fn host_route_from_addr() {
        let h: Prefix = Ipv4Addr::new(1, 2, 3, 4).into();
        assert_eq!(h, p("1.2.3.4/32"));
    }
}
