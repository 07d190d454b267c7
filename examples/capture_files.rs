//! Input files for `eleph run --pcap --rib`: a synthetic routing table
//! written as a text RIB dump, a capture generated against it, and a
//! route-churn schedule inside the capture's window — the three files
//! a real deployment would hand the CLI, for scripts that drive it
//! (`scripts/ci.sh` does).
//!
//! ```sh
//! cargo run -p eleph-tests --example capture_files -- DIR
//! eleph run --pcap DIR/c.pcap --rib DIR/c.rib --rib-updates DIR/churn.txt ...
//! ```
//!
//! Everything is seeded, so the same command writes the same bytes. The
//! dump (20 000 routes, ~1 MiB) is large enough that `read_routes`
//! parses it in more than one piece on a multi-core machine.

use std::fs::{self, File};
use std::io::BufWriter;
use std::path::Path;

use eleph_bgp::dump::{write_dump, write_updates};
use eleph_bgp::synth::{self, SynthConfig};
use eleph_trace::{
    generate_churn, ChurnConfig, ChurnScenario, LinkSpec, PacketSynth, RateTrace, WorkloadConfig,
};

fn main() {
    let dir = std::env::args().nth(1).expect("usage: capture_files DIR");
    let dir = Path::new(&dir);
    fs::create_dir_all(dir).expect("create DIR");
    let table = synth::generate(&SynthConfig {
        n_prefixes: 20_000,
        ..SynthConfig::default()
    });
    // Two minutes of a 1 Mb/s link: a capture of a few MiB.
    let config = WorkloadConfig {
        n_flows: 400,
        n_intervals: 12,
        interval_secs: 10,
        link: LinkSpec {
            name: "capture_files link".to_string(),
            capacity_bps: 1_000_000.0,
            target_peak_util: 0.5,
        },
        ..WorkloadConfig::small_test(11)
    };
    let trace = RateTrace::generate(&config, &table);

    let create = |name: &str| BufWriter::new(File::create(dir.join(name)).expect("create file"));
    write_dump(&table, create("c.rib")).expect("write c.rib");
    let packets = PacketSynth::new(&trace)
        .write_pcap(0..config.n_intervals, create("c.pcap"))
        .expect("write c.pcap");
    let start = config.start_unix;
    let churn = generate_churn(
        &table,
        &ChurnConfig {
            seed: 9,
            scenarios: vec![
                ChurnScenario::WithdrawReannounceStorm {
                    at_unix: start + 30,
                    count: 16,
                    hold_secs: 30,
                },
                ChurnScenario::Flap {
                    start_unix: start + 50,
                    count: 4,
                    period_secs: 10,
                    flaps: 2,
                    damped: false,
                },
            ],
        },
    );
    write_updates(&churn, create("churn.txt")).expect("write churn.txt");
    println!(
        "{}: c.rib ({} routes), c.pcap ({packets} packets from {start}), churn.txt ({} batches)",
        dir.display(),
        table.len(),
        churn.len()
    );
}
