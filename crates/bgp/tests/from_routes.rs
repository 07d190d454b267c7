//! The one-pass constructors against the table they skip: for any
//! route list — shuffled, with repeated prefixes, with routes longer
//! than /24 — `FrozenBgpTable::from_routes` and
//! `LiveBgpTable::from_routes` must build what putting the list into a
//! `BgpTable` and freezing it (or `from_table`) builds: same ids, same
//! routes, same lookups, the last of two routes for one prefix winning,
//! and every lookup the linear-scan oracle's.

use std::net::Ipv4Addr;

use eleph_bgp::{BgpTable, FrozenBgpTable, LiveBgpTable, Origin, PeerClass, RouteEntry};
use eleph_net::{LinearLpm, Prefix};
use proptest::prelude::*;

/// Routes from a small pool of prefixes (so they nest and repeat), each
/// told apart by its next hop.
fn routes() -> impl Strategy<Value = Vec<RouteEntry>> {
    let prefix = (
        0u32..6,
        0u32..4,
        prop_oneof![Just(8u8), Just(16), Just(24), 25u8..=32],
    )
        .prop_map(|(b, d, len)| Prefix::from_u32(0x0A00_0000 | b << 16 | d << 6 | d, len).unwrap());
    prop::collection::vec(prefix, 1..40).prop_map(|prefixes| {
        prefixes
            .into_iter()
            .enumerate()
            .map(|(i, prefix)| RouteEntry {
                prefix,
                next_hop: Ipv4Addr::from(i as u32),
                as_path: vec![i as u32; i % 3],
                origin: Origin::Igp,
                peer_class: PeerClass::Tier2,
            })
            .collect()
    })
}

/// First and last address of every prefix, and the one on either side.
fn probes(routes: &[RouteEntry]) -> Vec<u32> {
    routes
        .iter()
        .flat_map(|e| {
            let (lo, hi) = (e.prefix.bits(), u32::from(e.prefix.last_addr()));
            [lo, hi, lo.wrapping_sub(1), hi.wrapping_add(1)]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn frozen_from_routes_is_insert_then_freeze(list in routes()) {
        let table = BgpTable::from_entries(list.clone());
        let want = table.freeze();
        let got = FrozenBgpTable::from_routes(list.clone());
        prop_assert_eq!(got.len(), want.len());
        prop_assert_eq!(got.table_bytes(), want.table_bytes());
        for id in 0..want.len() as u32 {
            prop_assert_eq!(got.prefix(id), want.prefix(id));
            prop_assert_eq!(got.route(id), want.route(id));
            prop_assert_eq!(got.id_of(want.prefix(id)), Some(id));
        }
        // The last route listed for a prefix is the one kept.
        for e in &list {
            let last = list.iter().rev().find(|l| l.prefix == e.prefix).unwrap();
            prop_assert_eq!(got.route(got.id_of(e.prefix).unwrap()), last);
        }
        let mut linear = LinearLpm::new();
        for e in &list {
            linear.insert(e.prefix, ());
        }
        for addr in probes(&list) {
            prop_assert_eq!(got.attribute_id(addr), want.attribute_id(addr), "addr {:#010x}", addr);
            // ... and both say what the linear scan says.
            let by_scan = linear.lookup(addr).map(|(p, _)| p);
            prop_assert_eq!(got.attribute_id(addr).map(|id| got.prefix(id)), by_scan);
        }
    }

    #[test]
    fn live_from_routes_is_from_table(list in routes()) {
        let table = BgpTable::from_entries(list.clone());
        let frozen = table.freeze();
        let want = LiveBgpTable::from_table(&table);
        let got = LiveBgpTable::from_routes(list.clone());
        prop_assert_eq!(got.generation(), 0);
        prop_assert_eq!(got.len(), want.len());
        prop_assert_eq!(got.n_ids(), want.n_ids());
        let (got, want) = (got.view(), want.view());
        // Ids in frozen order, so the two kinds of run share checkpoints.
        for id in 0..frozen.len() as u32 {
            prop_assert_eq!(got.route(id), frozen.route(id));
            prop_assert_eq!(want.route(id), frozen.route(id));
        }
        for addr in probes(&list) {
            prop_assert_eq!(got.attribute_id(addr), want.attribute_id(addr), "addr {:#010x}", addr);
            prop_assert_eq!(got.attribute_id(addr), frozen.attribute_id(addr), "addr {:#010x}", addr);
        }
    }
}
