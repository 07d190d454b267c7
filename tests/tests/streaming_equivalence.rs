//! The streaming pipeline (packets → attribution → interval sealing →
//! online classification), which never materializes the bandwidth
//! matrix, produces per-interval outcomes **bit-identical** to the batch
//! path (`aggregate_pcap` →
//! `BandwidthMatrix` → `classify`) on the same capture bytes — same
//! thresholds, same elephant sets, same load sums, same statistics.
//! This is what licenses validating a configuration offline and
//! deploying it as a live monitor. That a `TraceSource` streams as the
//! capture it writes is pinned in `pipeline_equivalence.rs`.

use eleph_bgp::synth::{self, SynthConfig};
use eleph_bgp::BgpTable;
use eleph_core::{classify, ConstantLoadDetector, Scheme};
use eleph_flow::{aggregate_pcap, BandwidthMatrix, KeyId};
use eleph_packet::pcap::PcapWriter;
use eleph_packet::{LinkType, PacketBuilder};
use eleph_pipeline::{Collector, PcapSource, PipelineBuilder};
use eleph_tests::{capture_of, small_link};
use proptest::prelude::*;
use std::net::Ipv4Addr;

const BETA: f64 = 0.8;
const GAMMA: f64 = 0.9;

/// Run the batch path over capture bytes.
fn batch(
    pcap: &[u8],
    table: &BgpTable,
    interval_secs: u64,
    start_unix: u64,
    n_intervals: usize,
    scheme: Scheme,
) -> (
    BandwidthMatrix,
    eleph_flow::AggregatorStats,
    eleph_core::ClassificationResult,
) {
    let (matrix, stats) =
        aggregate_pcap(pcap, table, interval_secs, start_unix, n_intervals).expect("batch path");
    let result = classify(&matrix, ConstantLoadDetector::new(BETA), GAMMA, scheme);
    (matrix, stats, result)
}

/// Run the streaming path over the same bytes.
fn streaming(
    pcap: &[u8],
    table: &BgpTable,
    interval_secs: u64,
    start_unix: u64,
    n_intervals: usize,
    scheme: Scheme,
) -> (Vec<eleph_pipeline::CollectedInterval>, eleph_pipeline::PipelineReport) {
    let collector = Collector::new();
    let mut pipeline = PipelineBuilder::new()
        .table(table)
        .interval_secs(interval_secs)
        .start_unix(start_unix)
        .n_intervals(n_intervals)
        .detector(ConstantLoadDetector::new(BETA))
        .gamma(GAMMA)
        .scheme(scheme)
        .sink(collector.sink())
        .build();
    pipeline
        .run(PcapSource::new(pcap).expect("valid pcap"))
        .expect("streaming run");
    let report = pipeline.finish().expect("streaming finish");
    (collector.take(), report)
}

/// Assert bit-identity between one batch classification and the
/// streamed outcomes over the same bytes.
fn assert_equivalent(
    matrix: &BandwidthMatrix,
    batch_stats: &eleph_flow::AggregatorStats,
    result: &eleph_core::ClassificationResult,
    outcomes: &[eleph_pipeline::CollectedInterval],
    report: &eleph_pipeline::PipelineReport,
    context: &str,
) {
    assert_eq!(outcomes.len(), result.n_intervals(), "{context}: interval count");
    assert_eq!(report.intervals, result.n_intervals(), "{context}: sealed count");
    assert_eq!(report.keys.len(), matrix.n_keys(), "{context}: key count");
    for (id, &key) in report.keys.iter().enumerate() {
        assert_eq!(key, matrix.key(id as KeyId), "{context}: key order at {id}");
    }
    for (n, got) in outcomes.iter().enumerate() {
        let o = &got.outcome;
        assert_eq!(o.interval, n, "{context}: interval index");
        assert_eq!(o.elephants, result.elephants[n], "{context}: elephants at {n}");
        assert_eq!(
            o.threshold.to_bits(),
            result.thresholds[n].to_bits(),
            "{context}: threshold at {n} ({} vs {})",
            o.threshold,
            result.thresholds[n],
        );
        assert_eq!(
            o.elephant_load.to_bits(),
            result.elephant_load[n].to_bits(),
            "{context}: elephant load at {n}"
        );
        assert_eq!(
            o.total_load.to_bits(),
            result.total_load[n].to_bits(),
            "{context}: total load at {n}"
        );
        assert_eq!(
            o.fraction().to_bits(),
            result.fraction(n).to_bits(),
            "{context}: fraction at {n}"
        );
    }
    let s = report.stats;
    assert!(s.is_conserved(), "{context}: conservation");
    assert_eq!(s.late, 0, "{context}: time-sorted capture produced late packets");
    assert_eq!(s.offered, batch_stats.offered, "{context}: offered");
    assert_eq!(s.attributed, batch_stats.attributed, "{context}: attributed");
    assert_eq!(
        s.attributed_bytes, batch_stats.attributed_bytes,
        "{context}: attributed bytes"
    );
    assert_eq!(s.unroutable, batch_stats.unroutable, "{context}: unroutable");
    assert_eq!(s.out_of_window, batch_stats.out_of_window, "{context}: out of window");
    assert_eq!(s.malformed, batch_stats.malformed, "{context}: malformed");
}

#[test]
fn streaming_matches_batch_on_synthetic_capture() {
    let (table, trace) = small_link(211, 120, 6);
    let pcap = capture_of(&trace);
    let t = trace.config.interval_secs;
    let start = trace.config.start_unix;
    let n = trace.n_intervals();
    for scheme in [
        Scheme::SingleFeature,
        Scheme::LatentHeat { window: 3 },
        Scheme::Hysteresis { enter: 1.2, exit: 0.6 },
    ] {
        let (matrix, stats, result) = batch(&pcap, &table, t, start, n, scheme);
        let (outcomes, report) = streaming(&pcap, &table, t, start, n, scheme);
        assert_equivalent(&matrix, &stats, &result, &outcomes, &report, &format!("{scheme:?}"));
    }
}

#[test]
fn capture_gaps_and_trailing_silence_match_batch() {
    // Hand-built capture: traffic in intervals 0 and 3 of a 6-interval
    // window — a mid-stream gap the pipeline must seal from timestamps
    // alone, plus trailing empty intervals sealed at finish.
    let table = synth::generate(&SynthConfig {
        n_prefixes: 500,
        ..SynthConfig::default()
    });
    let dsts: Vec<Ipv4Addr> = table.iter().map(|e| e.prefix.network()).collect();
    let mut pcap = Vec::new();
    let mut writer = PcapWriter::new(&mut pcap, LinkType::RawIp.code()).unwrap();
    for i in 0..60u64 {
        let interval = if i < 30 { 0 } else { 3 };
        let ts_ns = (interval * 20 + (i % 20)) * 1_000_000_000;
        let packet = PacketBuilder::udp()
            .src(Ipv4Addr::new(198, 18, 0, 1), 9)
            .dst(dsts[(i as usize * 7) % dsts.len()], 53)
            .payload_len((i * 37 % 900) as usize)
            .build_ipv4();
        writer.write_record(ts_ns, packet.len() as u32, &packet).unwrap();
        if i % 13 == 0 {
            // Malformed record: counted, never binned, on both paths.
            writer.write_record(ts_ns, 4, &[0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
        }
    }
    writer.finish().unwrap();

    for scheme in [
        Scheme::SingleFeature,
        Scheme::LatentHeat { window: 2 },
        Scheme::Hysteresis { enter: 1.1, exit: 0.5 },
    ] {
        let (matrix, stats, result) = batch(&pcap, &table, 20, 0, 6, scheme);
        let (outcomes, report) = streaming(&pcap, &table, 20, 0, 6, scheme);
        assert_equivalent(
            &matrix,
            &stats,
            &result,
            &outcomes,
            &report,
            &format!("gap {scheme:?}"),
        );
        // The degenerate intervals really are degenerate on both sides.
        for n in [1, 2, 4, 5] {
            assert!(outcomes[n].outcome.elephants.is_empty(), "{scheme:?} gap {n}");
            assert_eq!(outcomes[n].outcome.fraction(), 0.0, "{scheme:?} gap {n}");
        }
    }
}

/// A compact random packet: which table route, interval, jitter within
/// the interval, and payload size.
#[derive(Debug, Clone, Copy)]
struct RandomPacket {
    route: usize,
    interval: u64,
    offset_ns: u64,
    payload: u16,
    unroutable: bool,
}

fn arb_packet(n_intervals: u64) -> impl Strategy<Value = RandomPacket> {
    (
        0usize..400,
        0..n_intervals + 2, // some past the window
        0u64..20_000_000_000,
        0u16..1200,
        0u8..20, // 1-in-20 packets unroutable
    )
        .prop_map(|(route, interval, offset_ns, payload, unroutable)| RandomPacket {
            route,
            interval,
            offset_ns,
            payload,
            unroutable: unroutable == 0,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline property: arbitrary time-sorted captures — mixed
    /// prefixes, unroutable destinations, out-of-window records,
    /// malformed records, idle intervals — classify bit-identically
    /// through the streaming pipeline and the batch path, under every
    /// scheme.
    #[test]
    fn streaming_equals_batch_on_random_captures(
        packets in prop::collection::vec(arb_packet(5), 1..250),
        malformed_every in 5usize..40,
        window in 1usize..4,
        scheme_pick in 0u8..3,
    ) {
        let table = synth::generate(&SynthConfig {
            n_prefixes: 400,
            ..SynthConfig::default()
        });
        let dsts: Vec<Ipv4Addr> = table.iter().map(|e| e.prefix.network()).collect();

        // Time-sort (the streaming contract) and serialize.
        let mut packets = packets;
        packets.sort_by_key(|p| p.interval * 20_000_000_000 + p.offset_ns);
        let mut pcap = Vec::new();
        let mut writer = PcapWriter::new(&mut pcap, LinkType::RawIp.code()).unwrap();
        for (i, p) in packets.iter().enumerate() {
            let ts_ns = p.interval * 20_000_000_000 + p.offset_ns;
            let dst = if p.unroutable {
                Ipv4Addr::new(203, 0, 113, 1) // TEST-NET-3: never in the table
            } else {
                dsts[p.route % dsts.len()]
            };
            let packet = PacketBuilder::udp()
                .src(Ipv4Addr::new(198, 18, 0, 1), 9)
                .dst(dst, 53)
                .payload_len(p.payload as usize)
                .build_ipv4();
            writer.write_record(ts_ns, packet.len() as u32, &packet).unwrap();
            if i % malformed_every == 0 {
                writer.write_record(ts_ns, 3, &[0xBA, 0xAD, 0x00]).unwrap();
            }
        }
        writer.finish().unwrap();

        let scheme = match scheme_pick {
            0 => Scheme::SingleFeature,
            1 => Scheme::LatentHeat { window },
            _ => Scheme::Hysteresis { enter: 1.2, exit: 0.6 },
        };
        let (matrix, stats, result) = batch(&pcap, &table, 20, 0, 5, scheme);
        let (outcomes, report) = streaming(&pcap, &table, 20, 0, 5, scheme);
        assert_equivalent(
            &matrix,
            &stats,
            &result,
            &outcomes,
            &report,
            &format!("random {scheme:?}"),
        );
    }
}
