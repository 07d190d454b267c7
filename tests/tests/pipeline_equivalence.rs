//! The load-bearing test of the whole reproduction: the packet-level
//! measurement pipeline (pcap → parse → LPM attribution → interval
//! binning) reproduces the rate-level trace the figure experiments run
//! on. This is what justifies running the paper's experiments
//! (`eleph_report::experiments::EXPERIMENTS`) at rate level; the
//! ROADMAP's design notes describe both paths.

use eleph_core::Scheme;
use eleph_flow::{aggregate_pcap, BandwidthMatrix};
use eleph_pipeline::{JsonlSink, PacketSource, PcapSource, PipelineBuilder, TraceSource};
use eleph_tests::{capture_of, small_link, SharedBuf};
use eleph_trace::PacketSynth;

#[test]
fn packet_path_reproduces_rate_path() {
    let (table, trace) = small_link(101, 120, 6);
    let rate_matrix = BandwidthMatrix::from_rate_trace(&trace);

    // Rate trace → packets → pcap bytes → aggregation.
    let pcap = capture_of(&trace);
    let (pkt_matrix, stats) = aggregate_pcap(
        &pcap[..],
        &table,
        trace.config.interval_secs,
        trace.config.start_unix,
        trace.config.n_intervals,
    )
    .expect("aggregation");

    assert!(stats.is_conserved());
    assert_eq!(stats.malformed, 0);
    assert_eq!(
        stats.unroutable, 0,
        "synthesis must only target routed prefixes"
    );

    // Per-interval totals agree within the quantisation bound:
    // the final packet of each flow-interval may undershoot by < 40
    // bytes, i.e. 40·8/T b/s per active flow.
    let per_flow_bound = 40.0 * 8.0 / trace.config.interval_secs as f64;
    for n in 0..trace.n_intervals() {
        let bound = per_flow_bound * rate_matrix.active(n) as f64;
        let diff = (rate_matrix.total(n) - pkt_matrix.total(n)).abs();
        assert!(
            diff <= bound,
            "interval {n}: totals differ by {diff} (> {bound})"
        );
    }

    // Per-prefix rates agree within the per-flow bound. Key spaces
    // differ (rate path indexes all population flows, packet path only
    // ever-active prefixes), so join via the prefix.
    for n in 0..trace.n_intervals() {
        for (key, rate) in rate_matrix.interval(n) {
            let prefix = rate_matrix.key(key);
            let got = pkt_matrix
                .key_id(prefix)
                .map(|k| pkt_matrix.rate(n, k))
                .unwrap_or(0.0);
            assert!(
                (f64::from(rate) - got).abs() <= per_flow_bound.max(f64::from(rate) * 0.01),
                "interval {n} prefix {prefix}: rate {rate} vs packet-path {got}"
            );
        }
    }

    // And nothing appears on the packet path that the rate path lacks.
    for n in 0..trace.n_intervals() {
        for (key, _) in pkt_matrix.interval(n) {
            let prefix = pkt_matrix.key(key);
            let id = rate_matrix
                .key_id(prefix)
                .expect("prefix came from the population");
            assert!(
                rate_matrix.rate(n, id) > 0.0,
                "phantom traffic for {prefix} at {n}"
            );
        }
    }
}

#[test]
fn classification_agrees_across_paths() {
    use eleph_core::{classify, ConstantLoadDetector, Scheme};

    let (table, trace) = small_link(202, 120, 6);
    let rate_matrix = BandwidthMatrix::from_rate_trace(&trace);
    let pcap = capture_of(&trace);
    let (pkt_matrix, _) = aggregate_pcap(
        &pcap[..],
        &table,
        trace.config.interval_secs,
        trace.config.start_unix,
        trace.config.n_intervals,
    )
    .expect("aggregation");

    let spec = |m: &BandwidthMatrix| {
        classify(
            m,
            ConstantLoadDetector::new(0.8),
            0.9,
            Scheme::LatentHeat { window: 3 },
        )
    };
    let a = spec(&rate_matrix);
    let b = spec(&pkt_matrix);

    for n in 0..trace.n_intervals() {
        let ea: std::collections::BTreeSet<_> =
            a.elephants[n].iter().map(|&k| rate_matrix.key(k)).collect();
        let eb: std::collections::BTreeSet<_> =
            b.elephants[n].iter().map(|&k| pkt_matrix.key(k)).collect();
        // The sets may differ at the threshold boundary by quantisation;
        // allow a tiny symmetric difference.
        let sym = ea.symmetric_difference(&eb).count();
        assert!(
            sym <= 1 + ea.len() / 10,
            "interval {n}: elephant sets diverge by {sym} ({} vs {})",
            ea.len(),
            eb.len()
        );
    }
}

#[test]
fn pcap_file_round_trip_through_disk() {
    let (table, trace) = small_link(303, 120, 6);
    let synth = PacketSynth::new(&trace);

    let dir = std::env::temp_dir().join("eleph-integration");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("trace.pcap");
    {
        let file = std::fs::File::create(&path).expect("create");
        synth
            .write_pcap(0..2, std::io::BufWriter::new(file))
            .expect("write");
    }
    let file = std::fs::File::open(&path).expect("open");
    let (matrix, stats) = aggregate_pcap(
        std::io::BufReader::new(file),
        &table,
        trace.config.interval_secs,
        trace.config.start_unix,
        2,
    )
    .expect("aggregate");
    assert!(stats.attributed > 0);
    assert!(stats.is_conserved());
    assert!(matrix.total(0) > 0.0);
    std::fs::remove_file(&path).ok();
}

/// `TraceSource` yields the packets `write_pcap` writes: streaming the
/// synthetic source and streaming the capture of the same trace emit the
/// same JSONL, key table and accounting.
#[test]
fn trace_source_runs_as_the_capture_it_writes() {
    let (table, trace) = small_link(212, 120, 6);
    let table = table.freeze();
    let pcap = capture_of(&trace);
    let run = |source: &mut dyn PacketSource| {
        let jsonl = SharedBuf::default();
        let mut pipeline = PipelineBuilder::new()
            .frozen(&table)
            .interval_secs(trace.config.interval_secs)
            .start_unix(trace.config.start_unix)
            .n_intervals(trace.n_intervals())
            .scheme(Scheme::LatentHeat { window: 3 })
            .sink(JsonlSink::new(jsonl.clone()))
            .build();
        pipeline.run(source).expect("run");
        (pipeline.finish().expect("finish"), jsonl.take())
    };
    let (synth, synth_jsonl) = run(&mut TraceSource::new(&trace));
    let (captured, pcap_jsonl) = run(&mut PcapSource::new(&pcap[..]).expect("pcap"));
    assert!(synth.stats.attributed > 0, "the trace carries traffic");
    assert_eq!((synth.keys, synth.stats), (captured.keys, captured.stats));
    assert!(synth_jsonl == pcap_jsonl, "the JSONL differs");
}
