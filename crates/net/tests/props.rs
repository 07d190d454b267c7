//! Property tests: both real LPM tables (flat and epoch) must agree with
//! the linear-scan oracle on random tables, and prefixes must round-trip
//! and contain their own endpoints.

use eleph_net::{EpochLpm, FlatLpm, LinearLpm, LpmDelta, Prefix};
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Prefix::from_u32(bits, len).unwrap())
}

/// Random tables skewed toward realistic lengths so nesting actually occurs.
fn arb_table() -> impl Strategy<Value = Vec<(Prefix, u32)>> {
    prop::collection::vec(
        (any::<u32>(), prop_oneof![0u8..=32, 8u8..=24], any::<u32>())
            .prop_map(|(bits, len, v)| (Prefix::from_u32(bits, len).unwrap(), v)),
        0..64,
    )
}

proptest! {
    #[test]
    fn prefix_parse_display_round_trip(p in arb_prefix()) {
        let s = p.to_string();
        let back: Prefix = s.parse().unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn prefix_contains_own_endpoints(p in arb_prefix()) {
        prop_assert!(p.contains(p.network()));
        prop_assert!(p.contains(p.last_addr()));
        prop_assert!(p.contains_prefix(&p));
    }
}

// The frozen flat table allocates its 64 MiB stage-1 array per build, so
// this block runs fewer cases than the prefix properties above;
// the generator deliberately covers >/24 prefixes, shadowed prefixes, the
// default route and the empty table.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn flat_lpm_agrees_with_linear(entries in arb_table(), queries in prop::collection::vec(any::<u32>(), 0..64)) {
        let mut linear = LinearLpm::new();
        for (p, v) in &entries {
            linear.insert(*p, *v);
        }
        // RIB-dump order is what a map keyed by prefix iterates: every
        // prefix once, ascending, the last value given for it kept.
        let ordered = eleph_net::rib_order(entries.clone(), |e| e.0);
        let by_map: std::collections::BTreeMap<Prefix, u32> = entries.iter().copied().collect();
        prop_assert_eq!(&ordered, &by_map.into_iter().collect::<Vec<_>>());
        // Build once from the entry list as given and once from it in
        // that order: both construction paths must agree.
        let flat = FlatLpm::from_entries(entries.iter().copied());
        let refrozen = FlatLpm::from_entries(ordered);
        prop_assert_eq!(flat.len(), linear.len());
        prop_assert_eq!(refrozen.len(), linear.len());

        // Probe random addresses plus each entry's own network and last
        // address (guaranteed hits, including inside spill blocks).
        let extra: Vec<u32> = entries
            .iter()
            .flat_map(|(p, _)| [p.bits(), u32::from(p.last_addr())])
            .collect();
        for addr in queries.iter().chain(extra.iter()) {
            let want = linear.lookup(*addr).map(|(p, v)| (p, *v));
            prop_assert_eq!(flat.lookup(*addr).map(|(p, v)| (p, *v)), want);
            prop_assert_eq!(refrozen.lookup(*addr).map(|(p, v)| (p, *v)), want);
            // The dense-id lookup must resolve to the same prefix.
            let id_prefix = flat.lookup_id(*addr).map(|id| flat.prefix(id));
            prop_assert_eq!(id_prefix, want.map(|(p, _)| p));
        }

        // Exact-match agrees for every inserted prefix, and ids are
        // consistent with dump order.
        for (p, _) in &entries {
            prop_assert_eq!(flat.get(*p), linear.get(*p));
            let id = flat.id_of(*p).expect("inserted prefix has an id");
            prop_assert_eq!(flat.prefix(id), *p);
        }
    }

    #[test]
    fn lookup_many_matches_per_address_lookup_id(entries in arb_table(), queries in prop::collection::vec(any::<u32>(), 0..192)) {
        // The generator covers empty tables, default routes (len 0) and
        // >/24 (spilled) prefixes; the batch APIs must agree with the
        // per-address resolver on all of them, at every batch size that
        // straddles the internal 64-lane chunking.
        let flat = FlatLpm::from_entries(entries.iter().copied());
        // Guaranteed-hit probes (network + last address of each entry)
        // mixed into the random queries.
        let addrs: Vec<u32> = queries
            .iter()
            .copied()
            .chain(entries.iter().flat_map(|(p, _)| [p.bits(), u32::from(p.last_addr())]))
            .collect();
        let mut out = vec![None; addrs.len()];
        flat.lookup_many(&addrs, &mut out);
        let mut raw = vec![0u32; addrs.len()];
        flat.lookup_many_raw(&addrs, &mut raw);
        for (i, &addr) in addrs.iter().enumerate() {
            let want = flat.lookup_id(addr);
            prop_assert_eq!(out[i], want, "lookup_many at {:#010x}", addr);
            prop_assert_eq!(raw[i], want.map_or(0, |id| id + 1), "lookup_many_raw at {:#010x}", addr);
        }
        // Sub-batch splits agree with the full batch.
        for size in [1usize, 7, 64, 65] {
            let mut split = vec![None; addrs.len()];
            for (a_chunk, o_chunk) in addrs.chunks(size).zip(split.chunks_mut(size)) {
                flat.lookup_many(a_chunk, o_chunk);
            }
            prop_assert_eq!(&split, &out, "batch size {}", size);
        }
    }

    /// The live-table tentpole invariant: a table built by applying a
    /// random announce/withdraw sequence as epoch deltas is
    /// lookup-for-lookup identical to freezing the final RIB from
    /// scratch. Ids differ by construction (epoch ids are
    /// caller-assigned, flat ids are dump-ordered), so equality is by
    /// resolved *prefix* — checked on the scalar, `lookup_many` and
    /// `lookup_many_raw` paths at random addresses plus every touched
    /// prefix's boundary addresses.
    #[test]
    fn epoch_deltas_equal_fresh_freeze(
        ops in prop::collection::vec(
            (any::<u32>(), prop_oneof![0u8..=32, 8u8..=26], any::<bool>()),
            0..48,
        ),
        splits in prop::collection::vec(1usize..8, 0..8),
        queries in prop::collection::vec(any::<u32>(), 0..64),
    ) {
        // Withdraws draw from the same generator as announces; to make
        // them actually hit, reuse each op's prefix with probability ~1/2
        // by cycling through previously announced prefixes.
        let table = EpochLpm::new();
        let mut rib: std::collections::BTreeMap<Prefix, u32> = Default::default();
        let mut announced: Vec<Prefix> = Vec::new();
        let mut next_id = 0u32;
        let mut deltas: Vec<LpmDelta> = Vec::new();
        for (i, &(bits, len, is_withdraw)) in ops.iter().enumerate() {
            let prefix = if is_withdraw && !announced.is_empty() {
                announced[i % announced.len()]
            } else {
                Prefix::from_u32(bits, len).unwrap()
            };
            if is_withdraw {
                rib.remove(&prefix);
                deltas.push(LpmDelta::Withdraw { prefix });
            } else {
                rib.insert(prefix, next_id);
                announced.push(prefix);
                deltas.push(LpmDelta::Announce { prefix, id: next_id });
                next_id += 1;
            }
        }
        // Apply in irregularly sized batches so batch boundaries are
        // exercised too, not just one-delta-per-generation.
        let mut rest = deltas.as_slice();
        let mut si = 0usize;
        while !rest.is_empty() {
            let take = splits.get(si).copied().unwrap_or(3).min(rest.len());
            table.apply(&rest[..take]);
            rest = &rest[take..];
            si += 1;
        }

        // Freeze the final RIB from scratch, carrying the prefix as the
        // value so both sides resolve to a prefix.
        let flat: FlatLpm<Prefix> = FlatLpm::from_entries(rib.iter().map(|(p, _)| (*p, *p)));
        let id_to_prefix: std::collections::HashMap<u32, Prefix> =
            rib.iter().map(|(p, &id)| (id, *p)).collect();
        prop_assert_eq!(table.entries().len(), flat.len());

        let addrs: Vec<u32> = queries
            .iter()
            .copied()
            .chain(announced.iter().flat_map(|p| {
                let first = p.bits();
                let last = u32::from(p.last_addr());
                [first, last, first.wrapping_sub(1), last.wrapping_add(1)]
            }))
            .collect();
        let snap = table.pin();
        let mut live = vec![None; addrs.len()];
        snap.lookup_many(&addrs, &mut live);
        let mut live_raw = vec![0u32; addrs.len()];
        snap.lookup_many_raw(&addrs, &mut live_raw);
        for (i, &addr) in addrs.iter().enumerate() {
            let want = flat.lookup(addr).map(|(p, _)| p);
            let scalar = snap.lookup_id(addr).map(|id| id_to_prefix[&id]);
            prop_assert_eq!(scalar, want, "scalar at {:#010x}", addr);
            let batch = live[i].map(|id| id_to_prefix[&id]);
            prop_assert_eq!(batch, want, "lookup_many at {:#010x}", addr);
            let raw = if live_raw[i] == 0 { None } else { Some(id_to_prefix[&(live_raw[i] - 1)]) };
            prop_assert_eq!(raw, want, "lookup_many_raw at {:#010x}", addr);
        }
    }
}
