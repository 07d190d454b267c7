//! Packet-path throughput: pcap write, pcap read + metadata parse, and
//! the full aggregation pipeline. These bound how fast the system could
//! process a real OC-12 capture.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use eleph_bench::bench_table;
use eleph_flow::aggregate_pcap;
use eleph_packet::pcap::PcapReader;
use eleph_packet::{parse_record_meta, LinkType, PacketBuilder};
use eleph_trace::{PacketSynth, RateTrace, WorkloadConfig};

fn sample_trace() -> (eleph_bgp::BgpTable, RateTrace) {
    let table = bench_table(2_000);
    let config = WorkloadConfig {
        n_flows: 120,
        n_intervals: 2,
        interval_secs: 20,
        link: eleph_trace::LinkSpec {
            name: "bench".to_string(),
            capacity_bps: 10_000_000.0,
            target_peak_util: 0.5,
        },
        ..WorkloadConfig::small_test(3)
    };
    let trace = RateTrace::generate(&config, &table);
    (table, trace)
}

fn bench_packet_build_parse(c: &mut Criterion) {
    let bytes = PacketBuilder::tcp()
        .src("10.0.0.1".parse().expect("addr"), 443)
        .dst("192.0.2.9".parse().expect("addr"), 55_000)
        .payload_len(536)
        .build_ipv4();
    let mut group = c.benchmark_group("packet");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("build_tcp_576B", |b| {
        b.iter(|| {
            PacketBuilder::tcp()
                .src(black_box("10.0.0.1".parse().expect("addr")), 443)
                .dst("192.0.2.9".parse().expect("addr"), 55_000)
                .payload_len(536)
                .build_ipv4()
        })
    });
    group.bench_function("parse_meta_576B", |b| {
        b.iter(|| eleph_packet::parse_meta(LinkType::RawIp, black_box(&bytes), 0))
    });
    group.finish();
}

fn bench_pcap_io(c: &mut Criterion) {
    let (table, trace) = sample_trace();
    let synth = PacketSynth::new(&trace);
    let mut pcap = Vec::new();
    synth.write_pcap(0..2, &mut pcap).expect("synthesis");
    let n_packets = {
        let reader = PcapReader::new(&pcap[..]).expect("header");
        reader.count()
    };

    let mut group = c.benchmark_group("pcap");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(pcap.len() as u64));
    group.bench_function(format!("write_{n_packets}pkts"), |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(pcap.len());
            synth.write_pcap(0..2, &mut out).expect("synthesis");
            out.len()
        })
    });
    group.bench_function(format!("read_parse_{n_packets}pkts"), |b| {
        b.iter(|| {
            let mut reader = PcapReader::new(black_box(&pcap[..])).expect("header");
            let link = LinkType::from_code(reader.header().linktype).expect("linktype");
            let mut total = 0u64;
            while let Some(rec) = reader.next_record().expect("records") {
                let meta = parse_record_meta(link, &rec).expect("valid packets");
                total += u64::from(meta.wire_len);
            }
            total
        })
    });
    group.bench_function(format!("aggregate_{n_packets}pkts"), |b| {
        b.iter(|| {
            aggregate_pcap(
                black_box(&pcap[..]),
                &table,
                trace.config.interval_secs,
                trace.config.start_unix,
                trace.config.n_intervals,
            )
            .expect("aggregation")
        })
    });
    group.finish();
}

/// The large-capture workload of the end-to-end aggregation bench: a
/// 20k-prefix RIB and a ~400k-packet capture. (The attribution bench
/// below deliberately uses a different, whole-address-space destination
/// spread instead of this trace's few hundred flows.)
fn large_capture() -> (eleph_bgp::BgpTable, RateTrace, Vec<u8>, usize) {
    let table = bench_table(20_000);
    let config = WorkloadConfig {
        n_flows: 400,
        n_intervals: 3,
        interval_secs: 20,
        link: eleph_trace::LinkSpec {
            name: "bench large capture".to_string(),
            capacity_bps: 60_000_000.0,
            target_peak_util: 0.5,
        },
        ..WorkloadConfig::small_test(17)
    };
    let trace = RateTrace::generate(&config, &table);
    let synth = PacketSynth::new(&trace);
    let mut pcap = Vec::new();
    synth.write_pcap(0..trace.n_intervals(), &mut pcap).expect("synthesis");
    let n_packets = {
        let reader = PcapReader::new(&pcap[..]).expect("header");
        reader.count()
    };
    (table, trace, pcap, n_packets)
}

/// Single-packet vs chunked attribution on pre-parsed metadata: isolates
/// the win of batching the LPM lookups from pcap decode costs.
///
/// Destinations are drawn uniformly from the whole address space (like
/// the LPM micro-bench) rather than from the synthetic trace's small
/// flow population: a backbone link disperses packets across the entire
/// RIB, so per-packet attribution misses cache. That cold case is what
/// the chunked path exists for — with a few hundred hot flows both
/// forms are equally table-cache-resident and tie.
fn bench_attribution_chunked(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let table = bench_table(20_000);
    let frozen = table.freeze();
    let mut rng = StdRng::seed_from_u64(11);
    let n_packets = 400_000usize;
    let interval_secs = 20u64;
    let n_intervals = 3usize;
    let metas: Vec<eleph_packet::PacketMeta> = (0..n_packets)
        .map(|i| eleph_packet::PacketMeta {
            ts_ns: (i as u64 * interval_secs * n_intervals as u64 * 1_000_000_000)
                / n_packets as u64,
            src: std::net::Ipv4Addr::from(rng.gen::<u32>()),
            dst: std::net::Ipv4Addr::from(rng.gen::<u32>()),
            proto: eleph_packet::IpProtocol::Udp,
            src_port: 9,
            dst_port: 53,
            wire_len: 40 + (i % 1400) as u32,
        })
        .collect();

    let mut group = c.benchmark_group("attribution");
    group.sample_size(10);
    group.throughput(Throughput::Elements(metas.len() as u64));
    group.bench_function(format!("observe_single_{n_packets}pkts"), |b| {
        b.iter(|| {
            let mut agg =
                eleph_flow::Aggregator::with_frozen(&frozen, interval_secs, 0, n_intervals);
            for m in black_box(&metas) {
                agg.observe(m);
            }
            agg.stats().attributed
        })
    });
    group.bench_function(format!("observe_chunked_{n_packets}pkts"), |b| {
        b.iter(|| {
            let mut agg =
                eleph_flow::Aggregator::with_frozen(&frozen, interval_secs, 0, n_intervals);
            agg.observe_chunk(black_box(&metas));
            agg.stats().attributed
        })
    });
    group.finish();
}

/// End-to-end aggregation on a larger capture: the bytes/sec it
/// sustains is the headline packets-per-second number of the batch
/// path.
fn bench_aggregate_large(c: &mut Criterion) {
    let (table, trace, pcap, n_packets) = large_capture();

    let mut group = c.benchmark_group("aggregate_pcap");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(pcap.len() as u64));
    group.bench_function(format!("serial_{n_packets}pkts"), |b| {
        b.iter(|| {
            aggregate_pcap(
                black_box(&pcap[..]),
                &table,
                trace.config.interval_secs,
                trace.config.start_unix,
                trace.config.n_intervals,
            )
            .expect("aggregation")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_packet_build_parse,
    bench_pcap_io,
    bench_attribution_chunked,
    bench_aggregate_large
);
criterion_main!(benches);
