//! Seeded input generation and the ground-truth ledger.
//!
//! Every streaming workload reads one capture, `bb`: a synthetic RIB
//! written with `bgp::dump::write_dump`, and [`WINDOW_SECS`] seconds of
//! small-packet traffic from `trace::RateTrace` +
//! `PacketSynth::with_mix`. The small-packet mix keeps bytes per packet
//! low so per-packet cost, not payload copying, dominates a run. Records
//! are full length: `Ipv4Packet::parse` rejects header-snapped records
//! whose IP total length exceeds the captured length.
//!
//! While generating, the [`Ledger`] records what was put on the wire per
//! interval and per prefix. The program under test never sees it; the
//! harness checks the program's outputs against it.

use crate::other;
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use eleph_bgp::synth::{self, SynthConfig};
use eleph_bgp::BgpTable;
use eleph_net::Prefix;
use eleph_packet::pcap::{PcapSlice, PcapWriter};
use eleph_packet::{parse_buf_meta, LinkType};
use eleph_trace::{
    generate_churn, ChurnConfig, ChurnScenario, DiurnalProfile, FlowKind, LinkSpec, PacketMix,
    PacketSynth, RateTrace, WorkloadConfig,
};

/// Routes in the synthetic RIB.
pub const RIB_PREFIXES: usize = 100_000;
/// Flows (prefixes that see traffic).
pub const FLOWS: usize = 40_000;
/// Seconds of traffic in the capture.
pub const WINDOW_SECS: u64 = 120;
/// Interval length of the `backbone` geometry, seconds.
pub const INTERVAL_SECS: u64 = 5;
/// Intervals of the `backbone` geometry.
pub const INTERVALS: usize = (WINDOW_SECS / INTERVAL_SECS) as usize;
/// First interval start: 2001-07-24 16:00 UTC, the paper's capture day.
pub const START_UNIX: u64 = 995_932_800 + 16 * 3600;
/// Wire bytes in the capture, whatever the seed: about 1.1 M packets, so
/// a serial `eleph run` over it takes about a second on the 2-core box
/// and ten or more repetitions of most workloads fit one driver run.
const TARGET_BYTES: f64 = 62_000_000.0;
/// Nominal link rate the load is first generated at.
const LINK_BPS: f64 = 11_200_000.0;
/// Nominal median mouse rate the load is first generated at.
const MOUSE_MEDIAN_BPS: f64 = 100.0;
/// Share of the offered bytes the mouse class carries, whatever the seed
/// (realised about 0.215: a mouse's bytes short of a 40-byte packet are
/// not sent). See [`rate_trace`].
const MOUSE_BYTE_SHARE: f64 = 0.24;
/// `(ip_total_len, weight)`: small packets, so per-packet cost dominates.
const PACKET_MIX: [(usize, f64); 3] = [(40, 0.6), (64, 0.3), (128, 0.1)];

/// SplitMix64 step, to derive independent sub-seeds from `--seed`.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What the generator put on the wire, per `backbone` interval.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Ledger {
    /// Packets per interval.
    pub packets: Vec<u64>,
    /// Wire bytes per interval.
    pub bytes: Vec<u64>,
    /// Wire bytes per interval and destination prefix.
    pub prefix_bytes: Vec<BTreeMap<Prefix, u64>>,
}

impl Ledger {
    /// An empty ledger over `n_intervals`.
    pub fn new(n_intervals: usize) -> Self {
        Ledger {
            packets: vec![0; n_intervals],
            bytes: vec![0; n_intervals],
            prefix_bytes: vec![BTreeMap::new(); n_intervals],
        }
    }

    /// Account one generated packet.
    pub fn record(&mut self, interval: usize, prefix: Prefix, wire_len: u32) {
        self.packets[interval] += 1;
        self.bytes[interval] += u64::from(wire_len);
        *self.prefix_bytes[interval].entry(prefix).or_default() += u64::from(wire_len);
    }

    /// Packets over the whole window.
    pub fn total_packets(&self) -> u64 {
        self.packets.iter().sum()
    }

    /// Wire bytes over the whole window.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Prefixes that received at least one packet.
    pub fn distinct_prefixes(&self) -> usize {
        let mut all: Vec<Prefix> = self
            .prefix_bytes
            .iter()
            .flat_map(|m| m.keys().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    }

    /// Offered load of interval `n` in bits per second.
    pub fn load_bps(&self, n: usize, interval_secs: u64) -> f64 {
        self.bytes[n] as f64 * 8.0 / interval_secs as f64
    }
}

/// Generated files plus the ground truth about them.
#[derive(Debug)]
pub struct Inputs {
    /// The seed everything derives from.
    pub seed: u64,
    /// RIB dump.
    pub rib: PathBuf,
    /// The `bb` capture.
    pub pcap: PathBuf,
    /// A capture with a file header and no records (for `setup_s`).
    pub empty_pcap: PathBuf,
    /// Timed route-update stream for `ops_live`.
    pub churn: PathBuf,
    /// Route updates in the churn file.
    pub churn_updates: usize,
    /// Ground truth.
    pub ledger: Ledger,
    /// Seconds spent generating (reported as `inputs_s`, not a metric).
    pub gen_secs: f64,
}

/// The routing table for `seed`.
pub fn rib_table(seed: u64) -> BgpTable {
    synth::generate(&SynthConfig {
        n_prefixes: RIB_PREFIXES,
        seed: mix64(seed ^ 0x51B),
        ..SynthConfig::default()
    })
}

/// The rate-level trace the capture is synthesised from.
///
/// The population is shaped for `sketch_ss64k`: 200 heavy flows, of which
/// about 140 are elephants in an interval, and some 6 000 active mice of
/// one or two packets each, six times the capacity of a 64 KiB
/// Space-Saving summary (1024 entries), so every mouse packet misses and
/// evicts. How many packets may miss is capped by the recall floor: the
/// 0.8 constant-load threshold must fall among the heavy flows, or the
/// elephant set outgrows the summary. With the mouse class at
/// [`MOUSE_BYTE_SHARE`] of the bytes about 23 % of the packets miss and
/// recall stays above 0.998 (forty seeds); at 0.27 one seed in six dips
/// to 0.99, and at 0.32 recall is 0.45 to 0.73.
pub fn rate_trace(seed: u64, table: &BgpTable) -> RateTrace {
    let config = |capacity_bps: f64, mouse_median_bps: f64| WorkloadConfig {
        link: LinkSpec {
            name: "bb".to_string(),
            capacity_bps,
            target_peak_util: 0.5,
        },
        profile: DiurnalProfile::flat(0.8),
        n_flows: FLOWS,
        interval_secs: INTERVAL_SECS,
        n_intervals: INTERVALS,
        start_unix: START_UNIX,
        tz_offset_secs: 0,
        heavy_fraction: 0.005,
        heavy_rate_floor: 5_000.0,
        mouse_log_mean: mouse_median_bps.ln(),
        mouse_log_sigma: 0.2,
        mouse_jitter_sigma: 0.2,
        mouse_on_prob: 0.17,
        ..WorkloadConfig::small_test(mix64(seed ^ 0x7ACE))
    };
    // The generator calibrates the *expected* load; what a seed's heavy
    // flows happen to draw moves the realised load, and the mouse class's
    // share of it, by some 15 %: run time and eviction pressure would
    // differ from seed to seed. All base rates are scaled together, so a
    // probe tells the mouse rate that lands on the share, and a second
    // one the link rate that lands on the byte target.
    let probe = RateTrace::generate(&config(LINK_BPS, MOUSE_MEDIAN_BPS), table);
    let (heavy, mice) = class_loads(&probe);
    let mouse_median_bps =
        MOUSE_MEDIAN_BPS * MOUSE_BYTE_SHARE / (1.0 - MOUSE_BYTE_SHARE) * heavy / mice;
    let probe = RateTrace::generate(&config(LINK_BPS, mouse_median_bps), table);
    let (heavy, mice) = class_loads(&probe);
    let offered_bytes = (heavy + mice) * INTERVAL_SECS as f64 / 8.0;
    RateTrace::generate(
        &config(LINK_BPS * TARGET_BYTES / offered_bytes, mouse_median_bps),
        table,
    )
}

/// Offered load of the heavy and of the mouse class, in b/s summed over
/// the intervals.
fn class_loads(trace: &RateTrace) -> (f64, f64) {
    let (mut heavy, mut mice) = (0.0, 0.0);
    for n in 0..INTERVALS {
        for &(flow, rate) in trace.interval(n) {
            match trace.population.get(flow).kind {
                FlowKind::Heavy => heavy += f64::from(rate),
                FlowKind::Mouse => mice += f64::from(rate),
            }
        }
    }
    (heavy, mice)
}

/// The packet synthesiser over `trace` with the small-packet mix.
pub fn packet_synth(trace: &RateTrace) -> PacketSynth<'_> {
    let mix = PacketMix::new(PACKET_MIX.to_vec()).expect("the mix is valid");
    PacketSynth::with_mix(trace, mix)
}

/// A withdraw/re-announce storm plus flaps, all inside the window.
fn churn_config(seed: u64) -> ChurnConfig {
    ChurnConfig {
        seed: mix64(seed ^ 0xC4A2),
        scenarios: vec![
            ChurnScenario::WithdrawReannounceStorm {
                at_unix: START_UNIX + 20,
                count: 2_000,
                hold_secs: 40,
            },
            ChurnScenario::Flap {
                start_unix: START_UNIX + 10,
                count: 200,
                period_secs: 7,
                flaps: 6,
                damped: false,
            },
        ],
    }
}

/// Generate every input for `seed` into `dir` (replacing what is there)
/// and validate the capture against the ledger before anything is timed.
pub fn generate(dir: &Path, seed: u64) -> io::Result<Inputs> {
    let started = Instant::now();
    fs::create_dir_all(dir)?;
    let rib = dir.join("bb.rib");
    let pcap = dir.join("bb.pcap");
    let empty_pcap = dir.join("empty.pcap");
    let churn = dir.join("churn.txt");

    let table = rib_table(seed);
    let mut out = BufWriter::new(File::create(&rib)?);
    eleph_bgp::dump::write_dump(&table, &mut out).map_err(other)?;
    out.flush()?;

    let trace = rate_trace(seed, &table);
    let synth = packet_synth(&trace);
    let out = BufWriter::new(File::create(&pcap)?);
    let written = synth.write_pcap(0..INTERVALS, out).map_err(other)?;

    let writer =
        PcapWriter::new(File::create(&empty_pcap)?, LinkType::RawIp.code()).map_err(other)?;
    writer.finish().map_err(other)?;

    let batches = generate_churn(&table, &churn_config(seed));
    let churn_updates = batches.iter().map(|b| b.updates.len()).sum();
    let mut out = BufWriter::new(File::create(&churn)?);
    eleph_bgp::dump::write_updates(&batches, &mut out).map_err(other)?;
    out.flush()?;

    // The ledger comes from the generator's packet metadata, not from
    // the file: `synthesize_window` replays the same seeded draws
    // `write_pcap` made.
    let prefix_of: HashMap<Ipv4Addr, Prefix> = trace
        .population
        .iter()
        .filter_map(|(_, flow)| flow.dst_addr.map(|a| (a, flow.prefix)))
        .collect();
    let mut ledger = Ledger::new(INTERVALS);
    let interval_ns = INTERVAL_SECS * 1_000_000_000;
    synth.synthesize_window(0..INTERVALS, |m| {
        let n = ((m.ts_ns - START_UNIX * 1_000_000_000) / interval_ns) as usize;
        ledger.record(n, prefix_of[&m.dst], m.wire_len);
    });

    // Flush the generated files now: left dirty, the kernel writes them
    // back some seconds later, in the middle of the timed runs.
    for path in [&rib, &pcap, &churn] {
        File::open(path)?.sync_all()?;
    }
    validate_capture(&pcap, &ledger)?;
    if written != ledger.total_packets() {
        return Err(other(format!(
            "capture holds {written} records, the ledger {}",
            ledger.total_packets()
        )));
    }
    Ok(Inputs {
        seed,
        rib,
        pcap,
        empty_pcap,
        churn,
        churn_updates,
        ledger,
        gen_secs: started.elapsed().as_secs_f64(),
    })
}

/// Read the capture back, record by record: every record must parse,
/// and per-interval packet and byte counts must equal the ledger's.
fn validate_capture(pcap: &Path, ledger: &Ledger) -> io::Result<()> {
    let data = fs::read(pcap)?;
    let mut slice = PcapSlice::new(&data).map_err(other)?;
    let link = LinkType::from_code(slice.header().linktype).map_err(other)?;
    let interval_ns = INTERVAL_SECS * 1_000_000_000;
    let mut packets = vec![0u64; INTERVALS];
    let mut bytes = vec![0u64; INTERVALS];
    let mut index = 0u64;
    while let Some((head, record)) = slice.next_record().map_err(other)? {
        let meta = parse_buf_meta(link, record, &head)
            .map_err(|e| other(format!("generated record {index} is malformed: {e}")))?;
        let n = ((meta.ts_ns - START_UNIX * 1_000_000_000) / interval_ns) as usize;
        packets[n] += 1;
        bytes[n] += u64::from(meta.wire_len);
        index += 1;
    }
    if packets != ledger.packets || bytes != ledger.bytes {
        return Err(other(
            "capture and ledger disagree on per-interval packets or bytes",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().expect("valid prefix")
    }

    #[test]
    fn ledger_accounts_per_interval_and_prefix() {
        let mut ledger = Ledger::new(2);
        ledger.record(0, p("10.0.0.0/8"), 40);
        ledger.record(0, p("10.0.0.0/8"), 64);
        ledger.record(0, p("192.0.2.0/24"), 128);
        ledger.record(1, p("192.0.2.0/24"), 40);
        assert_eq!(ledger.packets, vec![3, 1]);
        assert_eq!(ledger.bytes, vec![232, 40]);
        assert_eq!(ledger.total_packets(), 4);
        assert_eq!(ledger.total_bytes(), 272);
        assert_eq!(ledger.prefix_bytes[0][&p("10.0.0.0/8")], 104);
        assert_eq!(ledger.distinct_prefixes(), 2);
        assert_eq!(ledger.load_bps(0, 5), 232.0 * 8.0 / 5.0);
    }

    #[test]
    fn sub_seeds_differ() {
        assert_ne!(mix64(1 ^ 0x51B), mix64(1 ^ 0x7ACE));
        assert_ne!(mix64(1), mix64(2));
    }
}
