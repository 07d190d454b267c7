//! What the generated inputs are made of, pinned as bytes: the default
//! synthetic RIB as its dump text, and the flow population's prefixes
//! and sampled destination addresses. Every benchmark input (`bb.rib`,
//! the capture, the churn schedule) and every report scenario is built
//! from these two generators, so a change in either shows here first.
//! The address sampler they rest on is held to its definition, a loop
//! over a linear-scan longest match, draw for draw.

use std::net::Ipv4Addr;

use eleph_bgp::synth::{self, SynthConfig};
use eleph_bgp::{BgpTable, Origin, PeerClass, RouteEntry};
use eleph_net::{LinearLpm, Prefix};
use eleph_report::Scenario;
use eleph_trace::FlowPopulation;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Length and CRC-32 of `bytes`.
fn len_crc(bytes: &[u8]) -> (usize, u32) {
    (bytes.len(), eleph_pipeline::crc32(bytes))
}

#[test]
fn synth_table_and_flow_addresses_equal_their_recorded_length_and_crc() {
    let mut dump = Vec::new();
    eleph_bgp::dump::write_dump(&synth::generate(&SynthConfig::default()), &mut dump)
        .expect("write to a Vec");
    assert_eq!(len_crc(&dump), (5_249_099, 0x962f_2403), "dump of the default synthetic table");

    let scenario = Scenario::west(1).scaled(0.3);
    let table = synth::generate(&scenario.table);
    let population = FlowPopulation::build(&scenario.workload, &table);
    let mut flows = String::new();
    for (_, flow) in population.iter() {
        let addr = flow.dst_addr.expect("generated flows carry an address");
        flows.push_str(&format!("{} {addr}\n", flow.prefix));
    }
    assert_eq!(
        len_crc(flows.as_bytes()),
        (356_558, 0x55f2_7dd3),
        "west(1) at 0.3: (prefix, dst_addr) per flow"
    );
}

/// `BgpTable::sample_unshadowed_addr` as it was first written: draw an
/// address inside `prefix`, keep it if its longest match is `prefix`
/// itself, and give up after `tries` draws.
fn sample_oracle(
    lpm: &LinearLpm<()>,
    prefix: Prefix,
    rng: &mut StdRng,
    tries: usize,
) -> Option<Ipv4Addr> {
    let host_bits = 32 - prefix.len();
    for _ in 0..tries {
        let offset = if host_bits == 0 {
            0
        } else if host_bits == 32 {
            rng.gen::<u32>()
        } else {
            rng.gen_range(0..(1u32 << host_bits))
        };
        let addr = prefix.bits() | offset;
        if lpm.lookup(addr).map(|(p, _)| p) == Some(prefix) {
            return Some(Ipv4Addr::from(addr));
        }
    }
    None
}

/// Prefixes from a small pool, so that they nest and repeat: the default
/// route, /8 to /24 covers and longer ones down to host routes.
fn pool_prefix() -> impl Strategy<Value = Prefix> {
    (0u32..6, 0u32..4, prop_oneof![Just(0u8), Just(8), Just(16), Just(24), 25u8..=32])
        .prop_map(|(b, d, len)| {
            Prefix::from_u32(0x0A00_0000 | b << 16 | d << 6 | d, len).expect("length ≤ 32")
        })
}

fn route(prefix: Prefix) -> RouteEntry {
    RouteEntry {
        prefix,
        next_hop: Ipv4Addr::new(192, 0, 2, 1),
        as_path: vec![1239],
        origin: Origin::Igp,
        peer_class: PeerClass::Tier1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The same address (or none) and the same generator state after
    /// it, for a routed prefix and for one the table does not hold.
    #[test]
    fn sample_unshadowed_addr_equals_the_linear_oracle(
        prefixes in prop::collection::vec(pool_prefix(), 0..24),
        pick in any::<prop::sample::Index>(),
        routed in any::<bool>(),
        other in pool_prefix(),
        seed in any::<u64>(),
        tries in 0usize..40,
    ) {
        let table = BgpTable::from_entries(prefixes.iter().map(|&p| route(p)));
        let mut lpm = LinearLpm::new();
        for &p in &prefixes {
            lpm.insert(p, ());
        }
        let prefix = if routed && !prefixes.is_empty() {
            prefixes[pick.index(prefixes.len())]
        } else {
            other
        };
        let mut got_rng = StdRng::seed_from_u64(seed);
        let mut want_rng = StdRng::seed_from_u64(seed);
        let got = table.sample_unshadowed_addr(prefix, &mut got_rng, tries);
        let want = sample_oracle(&lpm, prefix, &mut want_rng, tries);
        prop_assert_eq!(got, want, "prefix {} in {:?}", prefix, prefixes);
        prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64(), "prefix {}", prefix);
    }
}
