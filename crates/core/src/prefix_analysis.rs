//! The paper's §III prefix-characteristics analysis.
//!
//! "Initial observations on the characteristics of elephants reveal that
//! they correspond to networks with prefix lengths between /12 and /26,
//! belonging to other Tier-1 ISP providers. Although 100 /8 networks
//! became active during the day, only three received traffic at a rate
//! sufficiently high to place them in the elephant class."

use eleph_bgp::{BgpTable, PeerClass};
use eleph_net::Prefix;

use crate::{ClassificationResult, KeyBitset};

/// Prefix-level characteristics of the elephant class over a run.
#[derive(Debug, Clone)]
pub struct PrefixReport {
    /// Distinct active prefixes per length (index = length).
    pub active_by_length: [usize; 33],
    /// Distinct ever-elephant prefixes per length.
    pub elephant_by_length: [usize; 33],
    /// Distinct active /8 prefixes (the paper's "100 /8 networks became
    /// active").
    pub active_slash8: usize,
    /// Distinct /8 prefixes that were ever elephants (paper: 3).
    pub elephant_slash8: usize,
    /// Shortest / longest elephant prefix length, if any elephants.
    pub elephant_length_range: Option<(u8, u8)>,
    /// Elephants per peer class `[tier1, tier2, stub]`, when a table was
    /// supplied for the join.
    pub elephant_peer_classes: Option<[usize; 3]>,
}

/// Join a classification of a whole run with prefix metadata: `keys[id]`
/// is key `id`'s prefix, and `ever_active` holds every key active in
/// some interval of the run — the two things the join reads of the
/// link, so it needs neither its rows nor a matrix.
///
/// `table` enables the peer-class breakdown; pass `None` when only
/// length statistics are needed.
pub fn prefix_report(
    keys: &[Prefix],
    ever_active: &KeyBitset,
    result: &ClassificationResult,
    table: Option<&BgpTable>,
) -> PrefixReport {
    let mut elephant = KeyBitset::with_capacity(keys.len());
    for &key in result.elephants.iter().flatten() {
        elephant.insert(key);
    }

    let mut active_by_length = [0usize; 33];
    let mut elephant_by_length = [0usize; 33];
    let mut active_slash8 = 0usize;
    let mut elephant_slash8 = 0usize;
    let mut min_len = u8::MAX;
    let mut max_len = 0u8;
    let mut peer = [0usize; 3];

    for key in ever_active.iter() {
        let len = keys[key as usize].len();
        active_by_length[len as usize] += 1;
        if len == 8 {
            active_slash8 += 1;
        }
    }
    for key in elephant.iter() {
        let prefix = keys[key as usize];
        let len = prefix.len();
        elephant_by_length[len as usize] += 1;
        if len == 8 {
            elephant_slash8 += 1;
        }
        min_len = min_len.min(len);
        max_len = max_len.max(len);
        if let Some(t) = table {
            if let Some(e) = t.get(prefix) {
                match e.peer_class {
                    PeerClass::Tier1 => peer[0] += 1,
                    PeerClass::Tier2 => peer[1] += 1,
                    PeerClass::Stub => peer[2] += 1,
                }
            }
        }
    }

    PrefixReport {
        active_by_length,
        elephant_by_length,
        active_slash8,
        elephant_slash8,
        elephant_length_range: if elephant.is_empty() {
            None
        } else {
            Some((min_len, max_len))
        },
        elephant_peer_classes: table.map(|_| peer),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;
    use eleph_bgp::{Origin, RouteEntry};
    use eleph_flow::{BandwidthMatrix, KeyId};
    use std::net::Ipv4Addr;

    fn build_matrix(prefixes: &[&str], rows: &[Vec<f64>]) -> (BandwidthMatrix, BgpTable) {
        let parsed: Vec<Prefix> = prefixes.iter().map(|s| s.parse().unwrap()).collect();
        let table = BgpTable::from_entries(parsed.iter().enumerate().map(|(i, &p)| RouteEntry {
            prefix: p,
            next_hop: Ipv4Addr::new(192, 0, 2, 1),
            as_path: vec![i as u32 + 1],
            origin: Origin::Igp,
            peer_class: match i % 3 {
                0 => PeerClass::Tier1,
                1 => PeerClass::Tier2,
                _ => PeerClass::Stub,
            },
        }));
        // Matrix via aggregator so key ids line up with first-seen order.
        let mut agg = eleph_flow::Aggregator::new(&table, 1, 0, rows.len());
        for (n, row) in rows.iter().enumerate() {
            for (i, &rate) in row.iter().enumerate() {
                if rate <= 0.0 {
                    continue;
                }
                agg.observe(&eleph_packet::PacketMeta {
                    ts_ns: n as u64 * 1_000_000_000,
                    src: Ipv4Addr::new(198, 18, 0, 1),
                    dst: parsed[i].network(),
                    proto: eleph_packet::IpProtocol::Tcp,
                    src_port: 1,
                    dst_port: 2,
                    wire_len: (rate / 8.0) as u32,
                });
            }
        }
        let (m, _) = agg.finish();
        (m, table)
    }

    /// The report over the whole of `m`: its keys, and every key active
    /// in some interval of it.
    fn report_over(
        m: &BandwidthMatrix,
        r: &ClassificationResult,
        table: Option<&BgpTable>,
    ) -> PrefixReport {
        let keys: Vec<Prefix> = (0..m.n_keys() as KeyId).map(|id| m.key(id)).collect();
        let mut ever_active = KeyBitset::default();
        for n in 0..m.n_intervals() {
            for &key in m.interval(n).keys() {
                ever_active.insert(key);
            }
        }
        prefix_report(&keys, &ever_active, r, table)
    }

    fn scripted(m: &BandwidthMatrix, sets: Vec<Vec<&str>>) -> ClassificationResult {
        let elephants: Vec<Vec<KeyId>> = sets
            .iter()
            .map(|names| {
                let mut v: Vec<KeyId> = names
                    .iter()
                    .map(|s| m.key_id(s.parse().unwrap()).unwrap())
                    .collect();
                v.sort_unstable();
                v
            })
            .collect();
        let n = elephants.len();
        ClassificationResult {
            detector: "scripted".to_string(),
            scheme: Scheme::SingleFeature,
            thresholds: vec![0.0; n],
            raw_thresholds: vec![Some(0.0); n],
            elephants,
            elephant_load: vec![0.0; n],
            total_load: vec![1.0; n],
        }
    }

    #[test]
    fn length_histograms_and_range() {
        let prefixes = ["9.0.0.0/8", "10.16.0.0/12", "10.32.0.0/16", "10.1.2.0/24"];
        let rows = vec![vec![10.0, 100.0, 100.0, 10.0], vec![10.0, 100.0, 0.0, 10.0]];
        let (m, table) = build_matrix(&prefixes, &rows);
        let r = scripted(
            &m,
            vec![vec!["10.16.0.0/12", "10.32.0.0/16"], vec!["10.16.0.0/12"]],
        );
        let report = report_over(&m, &r, Some(&table));

        assert_eq!(report.active_by_length[8], 1);
        assert_eq!(report.active_by_length[12], 1);
        assert_eq!(report.active_by_length[16], 1);
        assert_eq!(report.active_by_length[24], 1);
        assert_eq!(report.elephant_by_length[12], 1);
        assert_eq!(report.elephant_by_length[16], 1);
        assert_eq!(report.elephant_by_length[8], 0);
        assert_eq!(report.elephant_length_range, Some((12, 16)));
        assert_eq!(report.active_slash8, 1);
        assert_eq!(report.elephant_slash8, 0);
    }

    #[test]
    fn peer_class_join() {
        let prefixes = ["10.16.0.0/12", "11.32.0.0/16", "12.1.0.0/16"];
        let rows = vec![vec![100.0, 100.0, 100.0]];
        let (m, table) = build_matrix(&prefixes, &rows);
        // Peer classes cycle Tier1, Tier2, Stub by construction.
        let r = scripted(&m, vec![vec!["10.16.0.0/12", "11.32.0.0/16"]]);
        let report = report_over(&m, &r, Some(&table));
        assert_eq!(report.elephant_peer_classes, Some([1, 1, 0]));

        let no_table = report_over(&m, &r, None);
        assert_eq!(no_table.elephant_peer_classes, None);
    }

    #[test]
    fn elephant_rate_at_length() {
        let prefixes = ["10.0.0.0/16", "11.0.0.0/16", "12.0.0.0/16", "13.0.0.0/24"];
        // 8 b/s over 1 s = 1 byte: the smallest rate the packet-built
        // matrix can represent without rounding to zero bytes.
        let rows = vec![vec![8.0, 8.0, 8.0, 8.0]];
        let (m, table) = build_matrix(&prefixes, &rows);
        let r = scripted(&m, vec![vec!["10.0.0.0/16"]]);
        let report = report_over(&m, &r, Some(&table));
        // One of three active /16s became an elephant, none of the /24s,
        // and no /8 was active.
        assert_eq!(
            (report.elephant_by_length[16], report.active_by_length[16]),
            (1, 3)
        );
        assert_eq!(
            (report.elephant_by_length[24], report.active_by_length[24]),
            (0, 1)
        );
        assert_eq!(report.active_by_length[8], 0);
    }

    #[test]
    fn no_elephants_no_range() {
        let prefixes = ["10.0.0.0/16"];
        let rows = vec![vec![8.0]];
        let (m, table) = build_matrix(&prefixes, &rows);
        let r = scripted(&m, vec![vec![]]);
        let report = report_over(&m, &r, Some(&table));
        assert_eq!(report.elephant_length_range, None);
        assert_eq!(report.elephant_peer_classes, Some([0, 0, 0]));
    }
}
