//! Fault-injection robustness: the measurement pipeline must survive
//! arbitrary packet damage without panicking, and account for every
//! packet it was offered.

use eleph_bgp::synth::{self, SynthConfig};
use eleph_flow::Aggregator;
use eleph_packet::pcap::PcapReader;
use eleph_packet::LinkType;
use eleph_pipeline::{FaultedPcapSource, PipelineBuilder, PipelineStats, StateBackendConfig};
use eleph_trace::{
    FaultAction, FaultConfig, FaultInjector, PacketSynth, RateTrace, WorkloadConfig,
};
use proptest::prelude::*;

fn scenario() -> (eleph_bgp::BgpTable, RateTrace) {
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
    (table, trace)
}

fn capture(trace: &RateTrace) -> Vec<u8> {
    let mut pcap = Vec::new();
    PacketSynth::new(trace).write_pcap(0..trace.n_intervals(), &mut pcap).expect("synthesis");
    pcap
}

fn run_with_faults(fault: FaultConfig) -> (eleph_flow::AggregatorStats, eleph_trace::FaultStats) {
    let (table, trace) = scenario();
    let pcap = capture(&trace);

    let mut injector = FaultInjector::new(fault);
    let mut reader = PcapReader::new(&pcap[..]).expect("header");
    let link = LinkType::from_code(reader.header().linktype).expect("linktype");
    let mut agg = Aggregator::new(
        &table,
        trace.config.interval_secs,
        trace.config.start_unix,
        trace.config.n_intervals,
    );
    while let Some((head, bytes)) = reader.next_record_ref().expect("records") {
        let mut data = bytes.to_vec();
        if injector.apply(&mut data) == FaultAction::Dropped {
            continue;
        }
        agg.observe_raw(link, &data, head.ts_ns);
    }
    (agg.stats(), injector.stats())
}

/// The same faulted capture through the streaming path, for every row
/// a pipeline can hold its open interval in (budgets small enough that
/// the sketches evict).
fn pipeline_runs_with_faults(fault: FaultConfig) -> Vec<(PipelineStats, eleph_trace::FaultStats)> {
    let (table, trace) = scenario();
    let frozen = table.freeze();
    let pcap = capture(&trace);
    let budget_bytes = 2048;
    [
        (StateBackendConfig::Exact, 0),
        (StateBackendConfig::SpaceSaving { budget_bytes }, 0),
        (StateBackendConfig::CountMinRow { budget_bytes }, 0),
        (StateBackendConfig::AdaptiveBloom { budget_bytes }, 0),
        (StateBackendConfig::Exact, 2),
    ]
    .into_iter()
    .map(|(state, shards)| {
        let mut pipeline = PipelineBuilder::new()
            .frozen(&frozen)
            .interval_secs(trace.config.interval_secs)
            .start_unix(trace.config.start_unix)
            .n_intervals(trace.config.n_intervals)
            .state_backend(state)
            .shards(shards)
            .build();
        let mut source =
            FaultedPcapSource::new(&pcap[..], FaultInjector::new(fault)).expect("header");
        pipeline.run(&mut source).expect("faults are counted, not fatal");
        let report = pipeline.finish().expect("finish");
        assert_eq!(report.intervals, trace.config.n_intervals);
        (report.stats, source.fault_stats())
    })
    .collect()
}

#[test]
fn clean_stream_fully_attributed() {
    let (stats, _) = run_with_faults(FaultConfig::none());
    assert!(stats.is_conserved());
    assert_eq!(stats.malformed, 0);
    assert_eq!(stats.attributed, stats.offered);
}

#[test]
fn heavy_corruption_is_counted_not_fatal() {
    let (stats, fstats) = run_with_faults(FaultConfig {
        drop_prob: 0.1,
        corrupt_prob: 0.5,
        truncate_prob: 0.2,
        seed: 1,
    });
    assert!(stats.is_conserved());
    assert!(stats.malformed > 0, "corruption must surface as malformed");
    // Offered = synthesized − dropped.
    assert_eq!(stats.offered, fstats.seen - fstats.dropped);
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
        if i % 3 == 0 && data.len() >= 20 {
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
        drop_p in 0.0..0.5f64,
        corrupt_p in 0.0..0.8f64,
        truncate_p in 0.0..0.5f64,
        seed in any::<u64>(),
    ) {
        let fault = FaultConfig {
            drop_prob: drop_p,
            corrupt_prob: corrupt_p,
            truncate_prob: truncate_p,
            seed,
        };
        let (stats, fstats) = run_with_faults(fault);
        prop_assert!(stats.is_conserved());
        prop_assert_eq!(stats.offered, fstats.seen - fstats.dropped);
        for (stats, fstats) in pipeline_runs_with_faults(fault) {
            prop_assert!(stats.is_conserved(), "{:?}", stats);
            prop_assert_eq!(stats.offered, fstats.seen - fstats.dropped);
        }
    }
}
