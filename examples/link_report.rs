//! End-to-end packet path: synthesize a pcap, stream it back through
//! the online pipeline, and print a per-interval link report.
//!
//! Unlike the figure experiments (which run at rate level for speed),
//! this exercises the full packet machinery: pcap file I/O, IPv4/TCP
//! parsing with checksums, longest-prefix-match attribution, streaming
//! interval sealing and online classification — plus optional fault
//! injection between "capture" and "analysis", in the spirit of
//! smoltcp's example flags:
//!
//! ```sh
//! cargo run -p eleph-tests --example link_report
//! cargo run -p eleph-tests --example link_report -- --drop 0.05 --corrupt 0.02
//! ```
//!
//! Because the faults mutate *raw* packet bytes, the stream goes in
//! through [`eleph_pipeline::Pipeline::observe_raw`], which re-parses
//! each packet (including the IPv4 header checksum) so injected
//! corruption is counted as malformed instead of being attributed to a
//! possibly-wrong prefix.

use eleph_bgp::synth::{self, SynthConfig};
use eleph_core::{ConstantLoadDetector, Scheme, PAPER_GAMMA};
use eleph_packet::pcap::PcapReader;
use eleph_packet::LinkType;
use eleph_pipeline::{Collector, PipelineBuilder};
use eleph_trace::{FaultConfig, FaultInjector, PacketSynth, RateTrace, WorkloadConfig};

fn main() {
    let (drop_p, corrupt_p) = parse_args();

    // A small link so the packet volume stays example-sized.
    let table = synth::generate(&SynthConfig {
        n_prefixes: 3_000,
        ..SynthConfig::default()
    });
    let workload = WorkloadConfig {
        n_flows: 150,
        n_intervals: 12,
        interval_secs: 30,
        link: eleph_trace::LinkSpec {
            name: "demo link".to_string(),
            capacity_bps: 5_000_000.0,
            target_peak_util: 0.6,
        },
        ..WorkloadConfig::small_test(3)
    };
    let trace = RateTrace::generate(&workload, &table);

    // --- 1. Write the trace as a pcap file (in memory here; pass a File
    //        to target disk). -------------------------------------------
    let synth = PacketSynth::new(&trace);
    let mut pcap_bytes = Vec::new();
    let records = synth
        .write_pcap(0..trace.n_intervals(), &mut pcap_bytes)
        .expect("pcap synthesis");
    println!(
        "synthesized {records} packets ({:.1} MiB of pcap)",
        pcap_bytes.len() as f64 / (1024.0 * 1024.0)
    );

    // --- 2. Stream it back through the online pipeline, with faults
    //        injected between "capture" and "analysis". ------------------
    let mut injector = FaultInjector::new(FaultConfig {
        drop_prob: drop_p,
        corrupt_prob: corrupt_p,
        truncate_prob: 0.0,
        seed: 99,
    });
    let collector = Collector::new();
    let mut pipeline = PipelineBuilder::new()
        .table(&table)
        .interval_secs(workload.interval_secs)
        .start_unix(workload.start_unix)
        .n_intervals(workload.n_intervals)
        .detector(ConstantLoadDetector::new(0.8))
        .gamma(PAPER_GAMMA)
        .scheme(Scheme::LatentHeat { window: 4 })
        .sink(collector.sink())
        .build();

    let mut reader = PcapReader::new(&pcap_bytes[..]).expect("valid pcap header");
    let link = LinkType::from_code(reader.header().linktype).expect("known linktype");
    while let Some((head, bytes)) = reader.next_record_ref().expect("records parse") {
        let mut data = bytes.to_vec();
        if injector.apply(&mut data) == eleph_trace::FaultAction::Dropped {
            continue;
        }
        pipeline
            .observe_raw(link, &data, head.ts_ns)
            .expect("sinks accept intervals");
    }
    let fstats = injector.stats();
    let report = pipeline.finish().expect("pipeline finish");
    let stats = report.stats;
    println!(
        "pipeline accounting: {} offered, {} attributed, {} malformed, {} unroutable (conserved: {})",
        stats.offered,
        stats.attributed,
        stats.malformed,
        stats.unroutable,
        stats.is_conserved(),
    );
    if fstats.dropped + fstats.corrupted > 0 {
        println!(
            "fault injector: {} dropped, {} corrupted of {} seen",
            fstats.dropped, fstats.corrupted, fstats.seen
        );
    }

    // --- 3. Report per interval — classification already happened
    //        online, interval by interval, as the stream crossed each
    //        boundary. ---------------------------------------------------
    println!(
        "\n{:<10} {:>10} {:>11} {:>13}",
        "interval", "load", "elephants", "eleph. share"
    );
    for (n, sealed) in collector.take().iter().enumerate() {
        let o = &sealed.outcome;
        println!(
            "{:<10} {:>7.2} Mb/s {:>9} {:>12.1}%",
            workload.interval_label(n),
            o.total_load / 1e6,
            o.elephants.len(),
            100.0 * o.fraction(),
        );
    }
}

fn parse_args() -> (f64, f64) {
    let args: Vec<String> = std::env::args().collect();
    let mut drop_p = 0.0;
    let mut corrupt_p = 0.0;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--drop" if i + 1 < args.len() => {
                drop_p = args[i + 1].parse().expect("--drop takes a probability");
                i += 2;
            }
            "--corrupt" if i + 1 < args.len() => {
                corrupt_p = args[i + 1].parse().expect("--corrupt takes a probability");
                i += 2;
            }
            other => panic!("unknown argument {other}; supported: --drop P --corrupt P"),
        }
    }
    (drop_p, corrupt_p)
}
