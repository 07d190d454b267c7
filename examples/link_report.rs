//! End-to-end packet path: synthesize a pcap, stream it back through
//! the online pipeline, and print a per-interval link report.
//!
//! Unlike the figure experiments (which run at rate level for speed),
//! this exercises the full packet machinery: pcap file I/O, IPv4/TCP
//! parsing with checksums, longest-prefix-match attribution, streaming
//! interval sealing and online classification:
//!
//! ```sh
//! cargo run -p eleph-tests --example link_report
//! ```

use eleph_bgp::synth::{self, SynthConfig};
use eleph_core::{ConstantLoadDetector, Scheme, PAPER_GAMMA};
use eleph_pipeline::{Collector, PcapSource, PipelineBuilder};
use eleph_trace::{PacketSynth, RateTrace, WorkloadConfig};

fn main() {
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

    // --- 2. Stream it back through the online pipeline. ---------------
    let collector = Collector::new();
    let frozen = table.freeze();
    let mut pipeline = PipelineBuilder::new()
        .frozen(&frozen)
        .interval_secs(workload.interval_secs)
        .start_unix(workload.start_unix)
        .n_intervals(workload.n_intervals)
        .detector(ConstantLoadDetector::new(0.8))
        .gamma(PAPER_GAMMA)
        .scheme(Scheme::LatentHeat { window: 4 })
        .sink(collector.sink())
        .build();

    let source = PcapSource::new(&pcap_bytes[..]).expect("valid pcap header");
    pipeline
        .run(source)
        .expect("records parse and sinks accept intervals");
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
