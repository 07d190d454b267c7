//! Packet-level synthesis of a rate-trace window.

use std::io::Write;

use eleph_packet::pcap::PcapWriter;
use eleph_packet::{IpProtocol, LinkType, PacketBuilder, PacketMeta};
use rand::Rng;

use crate::flows::flow_rng;
use crate::{FlowKind, RateTrace};

/// A packet-size mix: `(ip_total_len, weight)` pairs.
///
/// Defaults approximate a 2001 backbone: half the packets are 40-byte
/// acks, the rest split between 576-byte (pre-PMTUD default) and
/// 1500-byte (Ethernet MTU) data packets.
#[derive(Debug, Clone)]
pub struct PacketMix {
    entries: Vec<(usize, f64)>,
    total_weight: f64,
}

impl Default for PacketMix {
    fn default() -> Self {
        PacketMix::new(vec![(40, 0.5), (576, 0.25), (1500, 0.25)]).expect("default mix is valid")
    }
}

impl PacketMix {
    /// Build a mix; sizes must be ≥ 40 (IPv4 + TCP headers) and weights
    /// positive.
    pub fn new(entries: Vec<(usize, f64)>) -> Option<Self> {
        if entries.is_empty() {
            return None;
        }
        if entries
            .iter()
            .any(|&(s, w)| !(40..=65_535).contains(&s) || w <= 0.0)
        {
            return None;
        }
        let total_weight = entries.iter().map(|&(_, w)| w).sum();
        Some(PacketMix {
            entries,
            total_weight,
        })
    }

    /// Draw one size.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut ticket = rng.gen::<f64>() * self.total_weight;
        for &(size, w) in &self.entries {
            if ticket < w {
                return size;
            }
            ticket -= w;
        }
        self.entries.last().expect("non-empty").0
    }
}

/// Expands a window of a [`RateTrace`] into packets.
///
/// Per flow and interval, packets are emitted until the flow's byte
/// budget (`rate · T / 8`) is met; the final packet is shrunk to land
/// within 40 bytes of the budget, so the aggregated packet stream
/// reproduces `B_i(n)` to within `40·8/T` b/s (pinned by an integration
/// test). Timestamps are uniform over the interval; everything is
/// deterministic in the trace seed.
#[derive(Debug)]
pub struct PacketSynth<'a> {
    trace: &'a RateTrace,
    mix: PacketMix,
}

impl<'a> PacketSynth<'a> {
    /// Synthesiser with the default packet mix.
    pub fn new(trace: &'a RateTrace) -> Self {
        PacketSynth {
            trace,
            mix: PacketMix::default(),
        }
    }

    /// Synthesiser with a custom mix.
    pub fn with_mix(trace: &'a RateTrace, mix: PacketMix) -> Self {
        PacketSynth { trace, mix }
    }

    /// Generate metadata-level packets for the window, invoking `sink`
    /// for each. Packets are time-sorted within each interval.
    pub fn synthesize_window<F: FnMut(PacketMeta)>(
        &self,
        intervals: std::ops::Range<usize>,
        mut sink: F,
    ) {
        for n in intervals {
            let mut batch = self.interval_metas(n);
            batch.sort_unstable_by_key(|m| m.ts_ns);
            for m in batch {
                sink(m);
            }
        }
    }

    /// Write the window as a raw-IP pcap file with real (checksummed)
    /// TCP/IPv4 packets. Returns the number of records written.
    pub fn write_pcap<W: Write>(
        &self,
        intervals: std::ops::Range<usize>,
        out: W,
    ) -> eleph_packet::Result<u64> {
        let mut writer = PcapWriter::new(out, LinkType::RawIp.code())?;
        for n in intervals {
            let mut batch = self.interval_metas(n);
            batch.sort_unstable_by_key(|m| m.ts_ns);
            for m in batch {
                let packet = PacketBuilder::tcp()
                    .src(m.src, m.src_port)
                    .dst(m.dst, m.dst_port)
                    .payload_len(m.wire_len as usize - 40)
                    .build_ipv4();
                debug_assert_eq!(packet.len() as u32, m.wire_len);
                writer.write_record(m.ts_ns, m.wire_len, &packet)?;
            }
        }
        let records = writer.records_written();
        writer.finish()?;
        Ok(records)
    }

    /// All packet metas of one interval, unsorted.
    fn interval_metas(&self, n: usize) -> Vec<PacketMeta> {
        let config = &self.trace.config;
        let t0_ns = config.interval_start_unix(n) * 1_000_000_000;
        let span_ns = config.interval_secs * 1_000_000_000;
        let mut out = Vec::new();

        for &(flow, rate) in self.trace.interval(n) {
            let meta = self.trace.population.get(flow);
            let Some(dst) = meta.dst_addr else {
                // No unshadowed address available: the population builder
                // filters these out, so this is defensive only.
                continue;
            };
            let mut rng = flow_rng(config.seed, flow, 0x9AC4 ^ (n as u64) << 20);
            let mut budget = (f64::from(rate) / 8.0 * config.interval_secs as f64) as i64;
            let dst_port = match meta.kind {
                FlowKind::Heavy => 80,
                FlowKind::Mouse => 1024 + (flow % 50_000) as u16,
            };
            while budget >= 40 {
                let mut size = self.mix.draw(&mut rng);
                if size as i64 > budget {
                    size = budget as usize; // final fragment, ≥ 40 here
                }
                let ts_ns = t0_ns + rng.gen_range(0..span_ns);
                out.push(PacketMeta {
                    ts_ns,
                    src: std::net::Ipv4Addr::from(0xC612_0000 | (flow & 0xFFFF)),
                    dst,
                    proto: IpProtocol::Tcp,
                    src_port: 32_768 + (rng.gen::<u16>() % 28_000),
                    dst_port,
                    wire_len: size as u32,
                });
                budget -= size as i64;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadConfig;
    use eleph_bgp::synth::{self, SynthConfig};
    use eleph_packet::parse_buf_meta;
    use eleph_packet::pcap::PcapReader;
    use std::collections::HashMap;

    fn small_trace() -> RateTrace {
        let table = synth::generate(&SynthConfig {
            n_prefixes: 1_000,
            ..SynthConfig::default()
        });
        let config = WorkloadConfig {
            n_flows: 60,
            n_intervals: 4,
            interval_secs: 10,
            link: crate::LinkSpec {
                name: "tiny".into(),
                capacity_bps: 2_000_000.0,
                target_peak_util: 0.5,
            },
            ..WorkloadConfig::small_test(21)
        };
        RateTrace::generate(&config, &table)
    }

    #[test]
    fn per_flow_bytes_match_rates() {
        let trace = small_trace();
        let synth = PacketSynth::new(&trace);
        let mut bytes: HashMap<(usize, std::net::Ipv4Addr), u64> = HashMap::new();
        let t0 = trace.config.start_unix * 1_000_000_000;
        let span = trace.config.interval_secs * 1_000_000_000;
        synth.synthesize_window(0..trace.n_intervals(), |m| {
            let n = ((m.ts_ns - t0) / span) as usize;
            *bytes.entry((n, m.dst)).or_default() += u64::from(m.wire_len);
        });
        for n in 0..trace.n_intervals() {
            for &(flow, rate) in trace.interval(n) {
                let meta = trace.population.get(flow);
                let dst = meta.dst_addr.expect("population keeps only usable flows");
                let want = f64::from(rate) / 8.0 * trace.config.interval_secs as f64;
                let got = *bytes.get(&(n, dst)).unwrap_or(&0) as f64;
                assert!(
                    (got - want).abs() <= 40.0,
                    "interval {n} flow {flow}: want {want} got {got}"
                );
            }
        }
    }

    #[test]
    fn timestamps_stay_in_interval_and_sorted() {
        let trace = small_trace();
        let synth = PacketSynth::new(&trace);
        let t0 = trace.config.start_unix * 1_000_000_000;
        let span = trace.config.interval_secs * 1_000_000_000;
        let mut last_ts = 0u64;
        let mut last_interval = 0usize;
        synth.synthesize_window(0..trace.n_intervals(), |m| {
            let n = ((m.ts_ns - t0) / span) as usize;
            assert!(n < trace.n_intervals());
            if n == last_interval {
                assert!(m.ts_ns >= last_ts, "unsorted within interval");
            }
            last_interval = n;
            last_ts = m.ts_ns;
        });
    }

    #[test]
    fn synthesis_is_deterministic() {
        let trace = small_trace();
        let synth = PacketSynth::new(&trace);
        let mut a = Vec::new();
        let mut b = Vec::new();
        synth.synthesize_window(0..2, |m| a.push(m));
        synth.synthesize_window(0..2, |m| b.push(m));
        assert_eq!(a, b);
    }

    #[test]
    fn pcap_round_trip_preserves_metas() {
        let trace = small_trace();
        let synth = PacketSynth::new(&trace);
        let mut metas = Vec::new();
        synth.synthesize_window(0..1, |m| metas.push(m));

        let mut buf = Vec::new();
        let written = synth.write_pcap(0..1, &mut buf).unwrap();
        assert_eq!(written as usize, metas.len());

        let mut reader = PcapReader::new(&buf[..]).unwrap();
        let link = LinkType::from_code(reader.header().linktype).unwrap();
        let mut count = 0usize;
        while let Some((head, data)) = reader.next_record_ref().unwrap() {
            let got = parse_buf_meta(link, data, &head).unwrap();
            let want = metas[count];
            assert_eq!(got.dst, want.dst);
            assert_eq!(got.wire_len, want.wire_len);
            assert_eq!(got.ts_ns / 1_000, want.ts_ns / 1_000); // µs pcap
            assert_eq!(got.dst_port, want.dst_port);
            count += 1;
        }
        assert_eq!(count, metas.len());
    }

    #[test]
    fn mix_validation() {
        assert!(PacketMix::new(vec![]).is_none());
        assert!(PacketMix::new(vec![(39, 1.0)]).is_none());
        assert!(PacketMix::new(vec![(40, 0.0)]).is_none());
        assert!(PacketMix::new(vec![(70_000, 1.0)]).is_none());
        assert!(PacketMix::new(vec![(100, 1.0), (300, 1.0)]).is_some());
    }

    #[test]
    fn heavy_flows_use_port_80() {
        let trace = small_trace();
        let heavy: std::collections::HashSet<_> = trace
            .population
            .iter()
            .filter(|(_, f)| f.kind == FlowKind::Heavy)
            .filter_map(|(_, f)| f.dst_addr)
            .collect();
        if heavy.is_empty() {
            return; // tiny population may have no heavy flow
        }
        let synth = PacketSynth::new(&trace);
        synth.synthesize_window(0..1, |m| {
            if heavy.contains(&m.dst) {
                assert_eq!(m.dst_port, 80);
            }
        });
    }
}
