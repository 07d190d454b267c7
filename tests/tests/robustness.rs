//! A damaged capture — records dropped, bits flipped, captured lengths
//! cut short — is measured, not crashed on: the pipeline survives it and
//! accounts for every record the file holds, in every row it can hold
//! its open interval in.

use eleph_bgp::synth::{self, SynthConfig};
use eleph_bgp::FrozenBgpTable;
use eleph_packet::pcap::PcapReader;
use eleph_packet::LinkType;
use eleph_pipeline::{PcapSource, PipelineBuilder, PipelineStats, StateBackendConfig};
use eleph_tests::{capture_of, damaged};
use eleph_trace::{PacketSynth, RateTrace, WorkloadConfig};
use proptest::prelude::*;

fn scenario() -> (FrozenBgpTable, RateTrace) {
    let table = synth::generate(&SynthConfig {
        n_prefixes: 1_500,
        ..SynthConfig::default()
    });
    let config = WorkloadConfig {
        n_flows: 60,
        n_intervals: 3,
        interval_secs: 10,
        link: eleph_trace::LinkSpec {
            name: "robustness link".to_string(),
            capacity_bps: 1_500_000.0,
            target_peak_util: 0.5,
        },
        ..WorkloadConfig::small_test(55)
    };
    let trace = RateTrace::generate(&config, &table);
    (table.freeze(), trace)
}

/// Every row a pipeline can hold its open interval in — budgets small
/// enough that the sketches evict — and the exact row on two shards.
fn rows() -> [(StateBackendConfig, usize); 5] {
    let budget_bytes = 2048;
    [
        (StateBackendConfig::Exact, 0),
        (StateBackendConfig::SpaceSaving { budget_bytes }, 0),
        (StateBackendConfig::CountMinRow { budget_bytes }, 0),
        (StateBackendConfig::AdaptiveBloom { budget_bytes }, 0),
        (StateBackendConfig::Exact, 2),
    ]
}

/// `pcap`, a capture of `trace`'s window, through the streaming path.
fn run(
    table: &FrozenBgpTable,
    trace: &RateTrace,
    pcap: &[u8],
    (state, shards): (StateBackendConfig, usize),
) -> PipelineStats {
    let mut pipeline = PipelineBuilder::new()
        .frozen(table)
        .interval_secs(trace.config.interval_secs)
        .start_unix(trace.config.start_unix)
        .n_intervals(trace.config.n_intervals)
        .state_backend(state)
        .shards(shards)
        .build();
    let source = PcapSource::new(pcap).expect("header");
    pipeline.run(source).expect("damage is counted, not fatal");
    let report = pipeline.finish().expect("finish");
    assert_eq!(report.intervals, trace.config.n_intervals);
    report.stats
}

#[test]
fn clean_stream_fully_attributed() {
    let (table, trace) = scenario();
    let pcap = capture_of(&trace);
    for row in rows() {
        let stats = run(&table, &trace, &pcap, row);
        assert!(stats.is_conserved());
        assert_eq!(stats.malformed, 0);
        assert_eq!(stats.attributed, stats.offered);
    }
}

#[test]
fn heavy_corruption_is_counted_not_fatal() {
    let (table, trace) = scenario();
    let (pcap, kept) = damaged(&capture_of(&trace), 1, 0.6);
    let stats = run(&table, &trace, &pcap, (StateBackendConfig::Exact, 0));
    assert!(stats.is_conserved());
    assert!(stats.malformed > 0, "damage must surface as malformed");
    assert_eq!(stats.offered, kept);
    // Despite the damage, the majority of surviving traffic still lands.
    assert!(stats.attributed > stats.offered / 2);
}

#[test]
fn header_corruption_never_misattributes() {
    // Corrupt only the first 20 bytes (the IPv4 header): every corrupted
    // packet must fail the checksum, not silently bin under a wrong
    // prefix. We verify by comparing attribution against ground truth.
    let (_table, trace) = scenario();
    let synth = PacketSynth::new(&trace);
    let mut pcap = Vec::new();
    synth.write_pcap(0..1, &mut pcap).expect("synthesis");

    let truth: std::collections::HashSet<std::net::Ipv4Addr> = trace
        .population
        .iter()
        .filter_map(|(_, f)| f.dst_addr)
        .collect();

    let mut reader = PcapReader::new(&pcap[..]).expect("header");
    let link = LinkType::from_code(reader.header().linktype).expect("linktype");
    let mut flipped = 0usize;
    let mut survived_parse = 0usize;
    let mut i = 0usize;
    while let Some((head, bytes)) = reader.next_record_ref().expect("records") {
        let mut data = bytes.to_vec();
        // Flip one bit of the destination address on every third packet.
        if i.is_multiple_of(3) && data.len() >= 20 {
            data[16 + (i % 4)] ^= 1 << (i % 8);
            flipped += 1;
            if let Ok(meta) = eleph_packet::parse_meta(link, &data, head.ts_ns) {
                survived_parse += 1;
                // If it parses despite the checksum, attribution is wrong.
                assert!(
                    truth.contains(&meta.dst),
                    "misattributed to {} after header corruption",
                    meta.dst
                );
            }
        }
        i += 1;
    }
    assert!(flipped > 0);
    assert_eq!(
        survived_parse, 0,
        "IPv4 header checksum must catch single-bit address corruption"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn accounting_conserved_under_arbitrary_fault_mix(
        rate in 0.0..1.0f64,
        seed in any::<u64>(),
    ) {
        let (table, trace) = scenario();
        let (pcap, kept) = damaged(&capture_of(&trace), seed, rate);
        for row in rows() {
            let stats = run(&table, &trace, &pcap, row);
            prop_assert!(stats.is_conserved(), "{:?}", stats);
            prop_assert_eq!(stats.offered, kept);
        }
    }
}
