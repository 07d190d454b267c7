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
    /// The default route, `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix { bits: 0, len: 0 };

    /// Construct from a network address and a prefix length, masking host
    /// bits. Fails only if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Self, PrefixError> {
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
    pub fn host(addr: Ipv4Addr) -> Self {
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
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether this is the default route `0.0.0.0/0`.
    #[inline]
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// The netmask, e.g. `255.255.0.0` for a /16.
    #[inline]
    pub fn mask(&self) -> Ipv4Addr {
        Ipv4Addr::from(mask(self.len))
    }

    /// Highest address in the block (the broadcast address for subnets).
    #[inline]
    pub fn last_addr(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits | !mask(self.len))
    }

    /// Number of addresses covered; `None` for the default route (2^32
    /// does not fit in a `u32`).
    pub fn size(&self) -> Option<u32> {
        if self.len == 0 {
            None
        } else {
            Some(1u32 << (32 - self.len))
        }
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

    /// Whether the two prefixes share any address.
    pub fn overlaps(&self, other: &Prefix) -> bool {
        self.contains_prefix(other) || other.contains_prefix(self)
    }

    /// The covering prefix one bit shorter; `None` for the default route.
    pub fn parent(&self) -> Option<Prefix> {
        if self.len == 0 {
            None
        } else {
            let len = self.len - 1;
            Some(Prefix {
                bits: self.bits & mask(len),
                len,
            })
        }
    }

    /// The two halves one bit longer; `None` for /32s.
    pub fn children(&self) -> Option<(Prefix, Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let len = self.len + 1;
        let left = Prefix { bits: self.bits, len };
        let right = Prefix {
            bits: self.bits | (1u32 << (32 - len)),
            len,
        };
        Some((left, right))
    }

    /// The sibling prefix (other half of the parent); `None` for the
    /// default route.
    pub fn sibling(&self) -> Option<Prefix> {
        if self.len == 0 {
            return None;
        }
        Some(Prefix {
            bits: self.bits ^ (1u32 << (32 - self.len)),
            len: self.len,
        })
    }

    /// Bit `i` (0 = most significant) of the network address.
    #[inline]
    pub fn bit(&self, i: u8) -> bool {
        debug_assert!(i < 32);
        self.bits & (0x8000_0000 >> i) != 0
    }

    /// Length of the longest common prefix of the two blocks, capped at
    /// `min(self.len, other.len)`.
    pub fn common_prefix_len(&self, other: &Prefix) -> u8 {
        let max = self.len.min(other.len);
        let diff = self.bits ^ other.bits;
        (diff.leading_zeros() as u8).min(max)
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
        assert!(matches!("10.0.0.0".parse::<Prefix>(), Err(PrefixError::Malformed(_))));
        assert!(matches!("10.0.0/8".parse::<Prefix>(), Err(PrefixError::BadAddress(_))));
        assert!(matches!("10.0.0.0/x".parse::<Prefix>(), Err(PrefixError::BadLength(_))));
        assert!(matches!("10.0.0.0/40".parse::<Prefix>(), Err(PrefixError::LengthOutOfRange(40))));
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
        assert!(Prefix::DEFAULT.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert!(Prefix::DEFAULT.contains(Ipv4Addr::new(0, 0, 0, 0)));
        assert!(Prefix::DEFAULT.contains_prefix(&p("10.0.0.0/8")));
        assert!(Prefix::DEFAULT.is_default());
        assert_eq!(Prefix::DEFAULT.size(), None);
    }

    #[test]
    fn overlap_is_symmetric_nesting() {
        assert!(p("10.0.0.0/8").overlaps(&p("10.1.0.0/16")));
        assert!(p("10.1.0.0/16").overlaps(&p("10.0.0.0/8")));
        assert!(!p("10.0.0.0/8").overlaps(&p("11.0.0.0/8")));
        assert!(!p("10.0.0.0/9").overlaps(&p("10.128.0.0/9")));
    }

    #[test]
    fn family_navigation() {
        let a = p("10.128.0.0/9");
        assert_eq!(a.parent().unwrap(), p("10.0.0.0/8"));
        assert_eq!(a.sibling().unwrap(), p("10.0.0.0/9"));
        let (l, r) = p("10.0.0.0/8").children().unwrap();
        assert_eq!(l, p("10.0.0.0/9"));
        assert_eq!(r, a);
        assert_eq!(Prefix::DEFAULT.parent(), None);
        assert_eq!(Prefix::DEFAULT.sibling(), None);
        assert_eq!(p("1.2.3.4/32").children(), None);
    }

    #[test]
    fn mask_and_range() {
        let a = p("192.168.1.0/24");
        assert_eq!(a.mask(), Ipv4Addr::new(255, 255, 255, 0));
        assert_eq!(a.last_addr(), Ipv4Addr::new(192, 168, 1, 255));
        assert_eq!(a.size(), Some(256));
        assert_eq!(p("1.2.3.4/32").size(), Some(1));
    }

    #[test]
    fn ordering_sorts_like_a_rib_dump() {
        let mut v = vec![p("10.1.0.0/16"), p("10.0.0.0/8"), p("9.0.0.0/8"), p("10.0.0.0/16")];
        v.sort();
        assert_eq!(
            v,
            vec![p("9.0.0.0/8"), p("10.0.0.0/8"), p("10.0.0.0/16"), p("10.1.0.0/16")]
        );
    }

    #[test]
    fn bits_and_common_prefix() {
        let a = p("128.0.0.0/1");
        assert!(a.bit(0));
        let b = p("192.0.0.0/2");
        assert_eq!(a.common_prefix_len(&b), 1);
        assert_eq!(b.common_prefix_len(&a), 1);
        assert_eq!(p("10.0.0.0/8").common_prefix_len(&p("10.0.0.0/24")), 8);
        assert_eq!(p("0.0.0.0/0").common_prefix_len(&p("10.0.0.0/8")), 0);
    }

    #[test]
    fn host_route_from_addr() {
        let h: Prefix = Ipv4Addr::new(1, 2, 3, 4).into();
        assert_eq!(h, p("1.2.3.4/32"));
        assert_eq!(h.size(), Some(1));
    }
}
