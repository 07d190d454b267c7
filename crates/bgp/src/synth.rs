//! Synthetic backbone routing tables.
//!
//! The experiments need a RIB shaped like what a Sprint core router held
//! in July 2001. The generator here produces one: ~100k prefixes whose
//! length histogram matches contemporary BGP table reports (the bulk at
//! /24, a broad shoulder at /16–/23, a sparse population of short
//! prefixes including ~100 active /8s, and a thin fringe of /25–/26).
//! Each route carries a plausible AS path and a peer classification used
//! by the paper's §III analysis.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use eleph_net::Prefix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{BgpTable, Origin, PeerClass, RouteEntry};

/// Per-length weights approximating a mid-2001 global table (~95k routes).
///
/// Index = prefix length. Derived from contemporaneous BGP table reports:
/// enough /8s that ~100 become active flows in a full-scale workload
/// (the paper's "100 /8 networks became active during the day"), a /16
/// plateau from legacy class B space, the CIDR shoulder at /17–/23, and
/// the /24 bulk.
const DEFAULT_LENGTH_WEIGHTS: [u32; 33] = [
    0, 0, 0, 0, 0, 0, 0, 0, // 0-7
    500,   // /8
    6,     // /9
    12,    // /10
    30,    // /11
    80,    // /12
    160,   // /13
    320,   // /14
    550,   // /15
    7500,  // /16
    1500,  // /17
    2600,  // /18
    5200,  // /19
    4400,  // /20
    4100,  // /21
    6100,  // /22
    8200,  // /23
    54000, // /24
    450,   // /25
    250,   // /26
    0, 0, 0, 0, 0, 0, // /27-/32 (filtered from backbone tables)
];

/// Configuration for [`generate`].
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of routes to generate.
    pub n_prefixes: usize,
    /// RNG seed — the whole table is a pure function of the config.
    pub seed: u64,
    /// Per-length weights (index = prefix length).
    pub length_weights: [u32; 33],
    /// Number of distinct ASes to draw paths from.
    pub n_ases: u32,
    /// Probability that a route is learned from a tier-1 peer.
    pub tier1_fraction: f64,
    /// Probability that a route is learned from a tier-2 peer (the rest
    /// are stubs).
    pub tier2_fraction: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            n_prefixes: 100_000,
            seed: 0x1239_2001, // Sprint's AS number and the trace year
            length_weights: DEFAULT_LENGTH_WEIGHTS,
            n_ases: 11_000, // ~11k ASes advertised in mid-2001
            tier1_fraction: 0.45,
            tier2_fraction: 0.35,
        }
    }
}

/// Generate a synthetic backbone table.
///
/// Deterministic in the config. Prefixes are unique; nesting (a /24
/// inside a /16) occurs naturally as in real tables. All network
/// addresses fall in unicast space (1.0.0.0–223.255.255.255).
pub fn generate(config: &SynthConfig) -> BgpTable {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let total_weight: u64 = config.length_weights.iter().map(|&w| w as u64).sum();
    assert!(total_weight > 0, "length_weights must not be all zero");

    let mut seen: HashSet<Prefix> = HashSet::with_capacity(config.n_prefixes);
    let mut routes = Vec::with_capacity(config.n_prefixes);

    // A small pool of "first octets" weighted toward the ranges that were
    // actually allocated in 2001, so /8 collisions are realistic.
    while routes.len() < config.n_prefixes {
        let len = sample_length(&mut rng, &config.length_weights, total_weight);
        let prefix = match sample_prefix(&mut rng, len) {
            Some(p) => p,
            None => continue,
        };
        if !seen.insert(prefix) {
            continue;
        }
        routes.push(make_entry(&mut rng, prefix, config));
    }
    BgpTable::from_entries(routes)
}

fn sample_length<R: Rng + ?Sized>(rng: &mut R, weights: &[u32; 33], total: u64) -> u8 {
    let mut ticket = rng.gen_range(0..total);
    for (len, &w) in weights.iter().enumerate() {
        let w = w as u64;
        if ticket < w {
            return len as u8;
        }
        ticket -= w;
    }
    unreachable!("ticket < total by construction")
}

fn sample_prefix<R: Rng + ?Sized>(rng: &mut R, len: u8) -> Option<Prefix> {
    // First octet in unicast space, excluding 0, 10 (private), 127
    // (loopback) and multicast/reserved ≥ 224.
    let first = loop {
        let o = rng.gen_range(1u32..224);
        if o != 10 && o != 127 {
            break o;
        }
    };
    let rest: u32 = rng.gen::<u32>() & 0x00ff_ffff;
    let bits = (first << 24) | rest;
    Prefix::from_u32(bits, len).ok()
}

fn make_entry<R: Rng + ?Sized>(rng: &mut R, prefix: Prefix, config: &SynthConfig) -> RouteEntry {
    let path_len = rng.gen_range(1..=5usize);
    let as_path: Vec<u32> = (0..path_len)
        .map(|_| rng.gen_range(1..=config.n_ases))
        .collect();
    let origin = match rng.gen_range(0..10u8) {
        0 => Origin::Incomplete,
        1 => Origin::Egp,
        _ => Origin::Igp,
    };
    let class_ticket: f64 = rng.gen();
    let peer_class = if class_ticket < config.tier1_fraction {
        PeerClass::Tier1
    } else if class_ticket < config.tier1_fraction + config.tier2_fraction {
        PeerClass::Tier2
    } else {
        PeerClass::Stub
    };
    let next_hop = Ipv4Addr::from(rng.gen_range(0xC000_0200u32..0xC000_02FF)); // 192.0.2.x pool
    RouteEntry {
        prefix,
        next_hop,
        as_path,
        origin,
        peer_class,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SynthConfig {
        SynthConfig {
            n_prefixes: 20_000,
            ..SynthConfig::default()
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&small_config());
        let b = generate(&small_config());
        assert_eq!(a.len(), b.len());
        for (ea, eb) in a.iter().zip(b.iter()) {
            assert_eq!(ea, eb);
        }
        let c = generate(&SynthConfig {
            seed: 999,
            ..small_config()
        });
        let identical = a.iter().zip(c.iter()).all(|(x, y)| x == y);
        assert!(!identical, "different seeds must differ");
    }

    #[test]
    fn exact_route_count_and_uniqueness() {
        let t = generate(&small_config());
        assert_eq!(t.len(), 20_000);
        let set: std::collections::BTreeSet<_> = t.iter().map(|e| e.prefix).collect();
        assert_eq!(set.len(), 20_000); // BTreeSet deduplicates: must match
    }

    #[test]
    fn length_histogram_tracks_weights() {
        let t = generate(&SynthConfig {
            n_prefixes: 50_000,
            ..SynthConfig::default()
        });
        let h = t.length_histogram();
        // /24 must dominate by far, /16 must be the secondary mode.
        let max_len = (0..33).max_by_key(|&l| h[l]).unwrap();
        assert_eq!(max_len, 24, "histogram {h:?}");
        assert!(h[16] > h[17], "/16 plateau missing: {h:?}");
        // Nothing outside the weighted range.
        for l in 0..8 {
            assert_eq!(h[l], 0);
        }
        for l in 27..33 {
            assert_eq!(h[l], 0);
        }
        // Enough /8 routes that ~100 become active flows at full scale
        // (the paper's "100 /8 networks became active during the day").
        // Only ~220 distinct /8s exist in unicast space, so the count is
        // capped by collisions.
        assert!(h[8] >= 100 && h[8] <= 221, "/8 count {}", h[8]);
    }

    #[test]
    fn addresses_in_unicast_space() {
        let t = generate(&small_config());
        for e in t.iter() {
            let first = e.prefix.network().octets()[0];
            assert!((1..224).contains(&first), "{}", e.prefix);
            assert_ne!(first, 10, "{}", e.prefix);
            assert_ne!(first, 127, "{}", e.prefix);
        }
    }

    #[test]
    fn as_paths_and_classes_populated() {
        let t = generate(&small_config());
        let mut classes = [0usize; 3];
        for e in t.iter() {
            assert!(!e.as_path.is_empty());
            assert!(e.as_path.iter().all(|&a| a >= 1));
            match e.peer_class {
                PeerClass::Tier1 => classes[0] += 1,
                PeerClass::Tier2 => classes[1] += 1,
                PeerClass::Stub => classes[2] += 1,
            }
        }
        let n = t.len() as f64;
        assert!((classes[0] as f64 / n - 0.45).abs() < 0.02);
        assert!((classes[1] as f64 / n - 0.35).abs() < 0.02);
        assert!((classes[2] as f64 / n - 0.20).abs() < 0.02);
    }

    #[test]
    fn attribution_works_against_synthetic_table() {
        let t = generate(&small_config()).freeze();
        let mut rng = StdRng::seed_from_u64(5);
        let mut hits = 0;
        for _ in 0..1_000 {
            let addr = Ipv4Addr::from(rng.gen::<u32>());
            if t.attribute(addr).is_some() {
                hits += 1;
            }
        }
        // 20k prefixes cover a meaningful but partial slice of the space.
        assert!(hits > 50, "only {hits} hits");
    }
}
