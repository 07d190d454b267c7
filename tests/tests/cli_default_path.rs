//! `eleph run --pcap F --rib R` — the path every streaming benchmark
//! workload measures — against the library calls it used to be made of.
//!
//! The CLI reads the dump with `read_routes` and moves the routes into
//! the one table the run attributes against (`FrozenBgpTable` or, under
//! `--rib-updates`, `LiveBgpTable`); it builds no `BgpTable`. That must
//! not show: the JSONL chain and the checkpoint file have to equal, byte
//! for byte, what `PipelineBuilder::table(&read_dump(..))` and
//! `.live(&LiveBgpTable::from_table(..))` produce from the same files —
//! including a dump whose lines are out of order and repeat a prefix —
//! and a `--resume` from a mid-run checkpoint has to finish on the same
//! bytes.

use std::fs::{self, File};
use std::path::{Path, PathBuf};

use eleph_bgp::dump::{read_dump, read_updates, write_dump, write_updates};
use eleph_bgp::synth::{self, SynthConfig};
use eleph_bgp::LiveBgpTable;
use eleph_pipeline::{
    Checkpoint, Checkpointer, PcapSource, PipelineBuilder, RotatingJsonlSink, CHECKPOINT_FILE,
};
use eleph_report::cli::run_streaming;
use eleph_tests::dir_files;
use eleph_trace::{
    generate_churn, ChurnConfig, ChurnScenario, PacketSynth, RateTrace, WorkloadConfig,
};

const T: u64 = 20;
const N: usize = 6;

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

/// A small table, a capture generated against it and a churn schedule
/// inside the capture's window, as files in a fresh directory.
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

fn cli(inputs: &Inputs, out: &str, extra: &[&str]) {
    let mut args: Vec<String> = [
        "--pcap",
        &inputs.path("c.pcap"),
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

fn capture(inputs: &Inputs) -> PcapSource<File> {
    PcapSource::new(File::open(inputs.path("c.pcap")).expect("open capture")).expect("valid pcap")
}

#[test]
fn static_rib_matches_the_library_path() {
    let inputs = inputs("static");
    cli(&inputs, "cli.jsonl", &[]);

    let table = read_dump(File::open(inputs.path("c.rib")).expect("open rib")).expect("valid rib");
    let mut pipeline = window(&inputs)
        .table(&table)
        .sink(RotatingJsonlSink::create(inputs.path("lib.jsonl"), None).expect("create sink"))
        .build();
    pipeline.run(capture(&inputs)).expect("library run");
    let report = pipeline.finish().expect("finish");

    assert_eq!(lines(&inputs.path("cli.jsonl")), N);
    assert!(
        report.stats.attributed > 0 && report.stats.unroutable == 0,
        "{:?}",
        report.stats
    );
    assert_eq!(
        fs::read(inputs.path("cli.jsonl")).unwrap(),
        fs::read(inputs.path("lib.jsonl")).unwrap(),
        "eleph run --pcap --rib diverges from PipelineBuilder::table(&read_dump(..))"
    );
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
    let args = live_args(&inputs.path("ck_cli"), "1");
    cli(&inputs, "cli.jsonl", &args.each_ref().map(String::as_str));

    let table = read_dump(File::open(inputs.path("c.rib")).expect("open rib")).expect("valid rib");
    let live = LiveBgpTable::from_table(&table);
    let schedule = read_updates(File::open(&churn).expect("open churn")).expect("valid churn");
    assert!(!schedule.is_empty());
    let mut pipeline = window(&inputs)
        .live(&live)
        .route_updates(schedule)
        .sink(RotatingJsonlSink::create(inputs.path("lib.jsonl"), None).expect("create sink"))
        .build();
    let mut checkpointer = Checkpointer::new(inputs.path("ck_lib"), 1).expect("checkpoint dir");
    pipeline
        .run_checkpointed(capture(&inputs), &mut checkpointer)
        .expect("library run");
    let report = pipeline.finish().expect("finish");
    assert!(
        report.route_updates_applied > 0,
        "the schedule fell outside the capture"
    );

    let reference = fs::read(inputs.path("lib.jsonl")).unwrap();
    assert_eq!(
        fs::read(inputs.path("cli.jsonl")).unwrap(),
        reference,
        "eleph run --rib-updates diverges from PipelineBuilder::live(&from_table(..))"
    );
    let ckpt = |dir: &str| Path::new(&inputs.path(dir)).join(CHECKPOINT_FILE);
    // The image and the log it names, file for file.
    let files = |dir: &str| dir_files(Path::new(&inputs.path(dir)));
    assert!(
        files("ck_cli") == files("ck_lib"),
        "checkpoint files (route ids, key ids, config fingerprint) differ"
    );

    // A run that checkpoints only once, mid-stream, leaves that
    // snapshot behind; resuming from it truncates the chain to the
    // snapshot and must write the rest out identically.
    let args = live_args(&inputs.path("ck_resume"), "3");
    cli(
        &inputs,
        "resumed.jsonl",
        &args.each_ref().map(String::as_str),
    );
    let sealed = Checkpoint::load(ckpt("ck_resume"))
        .expect("load checkpoint")
        .intervals_sealed();
    assert!(
        (3..N).contains(&sealed),
        "checkpoint holds {sealed} of {N} intervals"
    );
    assert!(
        Checkpoint::load(ckpt("ck_resume")).unwrap().generation() > 0,
        "mid-churn snapshot"
    );
    let mut resume: Vec<&str> = args.iter().map(String::as_str).collect();
    resume.push("--resume");
    cli(&inputs, "resumed.jsonl", &resume);
    assert_eq!(fs::read(inputs.path("resumed.jsonl")).unwrap(), reference);
    fs::remove_dir_all(&inputs.dir).ok();
}
