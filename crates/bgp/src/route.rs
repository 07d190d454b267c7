//! RIB entry types.

use core::fmt;
use std::net::Ipv4Addr;

use eleph_net::Prefix;

/// BGP origin attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Origin {
    /// Learned from an interior protocol.
    Igp,
    /// Learned via EGP.
    Egp,
    /// Redistributed / unknown.
    Incomplete,
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Origin::Igp => "IGP",
            Origin::Egp => "EGP",
            Origin::Incomplete => "INCOMPLETE",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for Origin {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "IGP" => Ok(Origin::Igp),
            "EGP" => Ok(Origin::Egp),
            "INCOMPLETE" => Ok(Origin::Incomplete),
            _ => Err(()),
        }
    }
}

/// Commercial class of the peer a route was learned from.
///
/// The paper's §III observes that elephants overwhelmingly belong to
/// "other Tier-1 ISP providers"; this attribute lets the prefix-length
/// analysis reproduce that breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeerClass {
    /// Another tier-1 backbone.
    Tier1,
    /// A regional / tier-2 provider.
    Tier2,
    /// A stub or enterprise customer.
    Stub,
}

impl fmt::Display for PeerClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PeerClass::Tier1 => "TIER1",
            PeerClass::Tier2 => "TIER2",
            PeerClass::Stub => "STUB",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for PeerClass {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "TIER1" => Ok(PeerClass::Tier1),
            "TIER2" => Ok(PeerClass::Tier2),
            "STUB" => Ok(PeerClass::Stub),
            _ => Err(()),
        }
    }
}

/// One routing-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteEntry {
    /// The destination prefix — the paper's flow key.
    pub prefix: Prefix,
    /// BGP next hop.
    pub next_hop: Ipv4Addr,
    /// AS path, neighbour first.
    pub as_path: Vec<u32>,
    /// Origin attribute.
    pub origin: Origin,
    /// Class of the peer this route was learned from.
    pub peer_class: PeerClass,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_round_trip() {
        for o in [Origin::Igp, Origin::Egp, Origin::Incomplete] {
            let s = o.to_string();
            assert_eq!(s.parse::<Origin>().unwrap(), o);
        }
        assert!("BOGUS".parse::<Origin>().is_err());
    }

    #[test]
    fn peer_class_round_trip() {
        for c in [PeerClass::Tier1, PeerClass::Tier2, PeerClass::Stub] {
            let s = c.to_string();
            assert_eq!(s.parse::<PeerClass>().unwrap(), c);
        }
        assert!("TIER9".parse::<PeerClass>().is_err());
    }
}
