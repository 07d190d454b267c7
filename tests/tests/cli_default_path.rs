//! `eleph run --pcap F --rib R` — the path every streaming benchmark
//! workload measures — against the library calls it used to be made of.
//!
//! The CLI reads the dump with `read_routes` and moves the routes into
//! the one table the run attributes against (`FrozenBgpTable` or, under
//! `--rib-updates`, `LiveBgpTable`); it builds no `BgpTable`. That must
//! not show: the JSONL chain and the checkpoint file have to equal, byte
//! for byte, what `PipelineBuilder::frozen(&read_dump(..).freeze())` and
//! `.live(&LiveBgpTable::from_table(..))` produce from the same files —
//! including a dump whose lines are out of order and repeat a prefix —
//! and a `--resume` from a mid-run checkpoint has to finish on the same
//! bytes. Each check runs on the capture and on a damaged copy of it
//! (records dropped, bits flipped, captured lengths cut), whose
//! malformed records a resume must skip as the uninterrupted run read
//! them.

use std::fs::{self, File};
use std::path::{Path, PathBuf};

use eleph_bgp::dump::{read_dump, read_updates, write_dump, write_updates};
use eleph_bgp::synth::{self, SynthConfig};
use eleph_bgp::LiveBgpTable;
use eleph_pipeline::{
    Checkpoint, Checkpointer, PcapSource, PipelineBuilder, RotatingJsonlSink, CHECKPOINT_FILE,
};
use eleph_report::cli::run_streaming;
use eleph_tests::{damaged, dir_files};
use eleph_trace::{
    generate_churn, ChurnConfig, ChurnScenario, PacketSynth, RateTrace, WorkloadConfig,
};

const T: u64 = 20;
const N: usize = 6;
/// The capture, then its damaged copy.
const CAPTURES: [&str; 2] = ["c.pcap", "d.pcap"];

struct Inputs {
    dir: PathBuf,
    start: u64,
}

impl Inputs {
    fn path(&self, name: &str) -> String {
        self.dir
            .join(name)
            .to_str()
            .expect("utf-8 temp dir")
            .to_string()
    }
}

/// A small table, a capture generated against it, a damaged copy of the
/// capture and a churn schedule inside the capture's window, as files in
/// a fresh directory.
fn inputs(tag: &str) -> Inputs {
    let dir = std::env::temp_dir().join(format!("eleph-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    let table = synth::generate(&SynthConfig {
        n_prefixes: 2_000,
        ..SynthConfig::default()
    });
    let config = WorkloadConfig {
        n_flows: 120,
        n_intervals: N,
        interval_secs: T,
        link: eleph_trace::LinkSpec {
            name: "cli link".to_string(),
            capacity_bps: 3_000_000.0,
            target_peak_util: 0.5,
        },
        ..WorkloadConfig::small_test(77)
    };
    let inputs = Inputs {
        dir,
        start: config.start_unix,
    };

    let trace = RateTrace::generate(&config, &table);
    let mut pcap = Vec::new();
    PacketSynth::new(&trace)
        .write_pcap(0..N, &mut pcap)
        .expect("pcap synthesis");
    fs::write(inputs.path("d.pcap"), damaged(&pcap, 5, 0.3).0).expect("write damaged capture");
    fs::write(inputs.path("c.pcap"), pcap).expect("write capture");

    // The dump, made hard: route lines in descending order, then the
    // busiest flow's route again with another next hop (which must win).
    let mut dump = Vec::new();
    write_dump(&table, &mut dump).expect("write dump");
    let text = String::from_utf8(dump).expect("ascii dump");
    let (header, routes): (Vec<&str>, Vec<&str>) = text.lines().partition(|l| l.starts_with('#'));
    let again = trace.population.get(0).prefix.to_string();
    let first = routes
        .iter()
        .find(|l| l.split('|').next() == Some(again.as_str()))
        .expect("the flow's prefix is routed");
    let repeated = first.replacen("|192.0.2.", "|198.51.100.", 1);
    assert_ne!(&repeated, first, "synthetic next hops are in 192.0.2.0/24");
    let mut lines = header;
    lines.extend(routes.iter().rev());
    lines.push(&repeated);
    fs::write(inputs.path("c.rib"), lines.join("\n") + "\n").expect("write rib");

    let churn = generate_churn(
        &table,
        &ChurnConfig {
            seed: 9,
            scenarios: vec![
                ChurnScenario::WithdrawReannounceStorm {
                    at_unix: inputs.start + 30,
                    count: 16,
                    hold_secs: 40,
                },
                ChurnScenario::Flap {
                    start_unix: inputs.start + 50,
                    count: 4,
                    period_secs: 15,
                    flaps: 2,
                    damped: false,
                },
            ],
        },
    );
    write_updates(
        &churn,
        File::create(inputs.path("churn.txt")).expect("create churn"),
    )
    .expect("write churn");
    inputs
}

fn cli(inputs: &Inputs, pcap: &str, out: &str, extra: &[&str]) {
    let mut args: Vec<String> = [
        "--pcap",
        &inputs.path(pcap),
        "--rib",
        &inputs.path("c.rib"),
        "--interval-secs",
        &T.to_string(),
        "--intervals",
        &N.to_string(),
        "--start-unix",
        &inputs.start.to_string(),
        "--out",
        &inputs.path(out),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.extend(extra.iter().map(|s| s.to_string()));
    run_streaming(&args).expect("eleph run");
}

fn lines(path: &str) -> usize {
    fs::read_to_string(path)
        .expect("read jsonl")
        .lines()
        .count()
}

fn window<'t>(inputs: &Inputs) -> PipelineBuilder<'t, eleph_core::ConstantLoadDetector> {
    PipelineBuilder::new()
        .interval_secs(T)
        .start_unix(inputs.start)
        .n_intervals(N)
}

fn capture(inputs: &Inputs, pcap: &str) -> PcapSource<File> {
    PcapSource::new(File::open(inputs.path(pcap)).expect("open capture")).expect("valid pcap")
}

/// The damaged capture reads as damaged.
fn check_damage(pcap: &str, stats: &eleph_pipeline::PipelineStats) {
    assert_eq!(pcap == "d.pcap", stats.malformed > 0, "{pcap}: {stats:?}");
}

#[test]
fn static_rib_matches_the_library_path() {
    let inputs = inputs("static");
    let table = read_dump(File::open(inputs.path("c.rib")).expect("open rib")).expect("valid rib");
    let table = table.freeze();
    for pcap in CAPTURES {
        let (cli_out, lib_out) = (format!("{pcap}.cli.jsonl"), format!("{pcap}.lib.jsonl"));
        cli(&inputs, pcap, &cli_out, &[]);

        let mut pipeline = window(&inputs)
            .frozen(&table)
            .sink(RotatingJsonlSink::create(inputs.path(&lib_out), None).expect("create sink"))
            .build();
        pipeline.run(capture(&inputs, pcap)).expect("library run");
        let report = pipeline.finish().expect("finish");

        assert_eq!(lines(&inputs.path(&cli_out)), N);
        assert!(
            report.stats.attributed > 0 && report.stats.unroutable == 0,
            "{pcap}: {:?}",
            report.stats
        );
        check_damage(pcap, &report.stats);
        assert_eq!(
            fs::read(inputs.path(&cli_out)).unwrap(),
            fs::read(inputs.path(&lib_out)).unwrap(),
            "{pcap}: eleph run --pcap --rib diverges from PipelineBuilder::frozen(..)"
        );
    }
    fs::remove_dir_all(&inputs.dir).ok();
}

#[test]
fn live_rib_matches_the_library_path_and_resumes_onto_the_same_bytes() {
    let inputs = inputs("live");
    let churn = inputs.path("churn.txt");
    let live_args = |dir: &str, every: &str| {
        [
            "--rib-updates",
            &churn,
            "--checkpoint-dir",
            dir,
            "--checkpoint-every",
            every,
        ]
        .map(str::to_string)
    };
    let table = read_dump(File::open(inputs.path("c.rib")).expect("open rib")).expect("valid rib");
    let schedule = read_updates(File::open(&churn).expect("open churn")).expect("valid churn");
    assert!(!schedule.is_empty());
    for pcap in CAPTURES {
        let name = |what: &str| format!("{pcap}.{what}");
        let args = live_args(&inputs.path(&name("ck_cli")), "1");
        cli(
            &inputs,
            pcap,
            &name("cli.jsonl"),
            &args.each_ref().map(String::as_str),
        );

        let live = LiveBgpTable::from_table(&table);
        let mut pipeline = window(&inputs)
            .live(&live)
            .route_updates(schedule.clone())
            .sink(
                RotatingJsonlSink::create(inputs.path(&name("lib.jsonl")), None)
                    .expect("create sink"),
            )
            .build();
        let mut checkpointer =
            Checkpointer::new(inputs.path(&name("ck_lib")), 1).expect("checkpoint dir");
        pipeline
            .run_checkpointed(capture(&inputs, pcap), &mut checkpointer)
            .expect("library run");
        let report = pipeline.finish().expect("finish");
        assert!(
            report.route_updates_applied > 0,
            "{pcap}: the schedule fell outside the capture"
        );
        check_damage(pcap, &report.stats);

        let reference = fs::read(inputs.path(&name("lib.jsonl"))).unwrap();
        assert_eq!(
            fs::read(inputs.path(&name("cli.jsonl"))).unwrap(),
            reference,
            "{pcap}: eleph run --rib-updates diverges from PipelineBuilder::live(&from_table(..))"
        );
        let ckpt = |dir: &str| Path::new(&inputs.path(&name(dir))).join(CHECKPOINT_FILE);
        // The image and the log it names, file for file.
        let files = |dir: &str| dir_files(Path::new(&inputs.path(&name(dir))));
        assert!(
            files("ck_cli") == files("ck_lib"),
            "{pcap}: checkpoint files (route ids, key ids, config fingerprint) differ"
        );

        // A run that checkpoints only once, mid-stream, leaves that
        // snapshot behind; resuming from it truncates the chain to the
        // snapshot and must write the rest out identically, and leave
        // the checkpoint files the uninterrupted run left.
        let args = live_args(&inputs.path(&name("ck_resume")), "3");
        cli(
            &inputs,
            pcap,
            &name("resumed.jsonl"),
            &args.each_ref().map(String::as_str),
        );
        let uninterrupted = files("ck_resume");
        let sealed = Checkpoint::load(ckpt("ck_resume"))
            .expect("load checkpoint")
            .intervals_sealed();
        assert!(
            (3..N).contains(&sealed),
            "{pcap}: checkpoint holds {sealed} of {N} intervals"
        );
        assert!(
            Checkpoint::load(ckpt("ck_resume")).unwrap().generation() > 0,
            "{pcap}: mid-churn snapshot"
        );
        let mut resume: Vec<&str> = args.iter().map(String::as_str).collect();
        resume.push("--resume");
        cli(&inputs, pcap, &name("resumed.jsonl"), &resume);
        assert_eq!(
            fs::read(inputs.path(&name("resumed.jsonl"))).unwrap(),
            reference,
            "{pcap}"
        );
        assert!(
            files("ck_resume") == uninterrupted,
            "{pcap}: resumed checkpoint files differ"
        );
    }
    fs::remove_dir_all(&inputs.dir).ok();
}
