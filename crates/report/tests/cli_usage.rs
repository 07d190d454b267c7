//! A wrong command line is answered, not crashed on: the message and a
//! pointer to `eleph help` on stderr, nothing on stdout, exit status 2;
//! a command line at the edge of what is accepted runs. An input that
//! cannot be opened, or a capture that fails mid-stream, is named by its
//! flag and path, exit status 1, as is a checkpoint that cannot be
//! written; and an input that can only be read once — a pipe — is read
//! exactly as the file is.

use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use eleph_bgp::dump::write_dump;
use eleph_bgp::synth::{self, SynthConfig};
use eleph_trace::{PacketSynth, RateTrace, WorkloadConfig};

#[test]
fn usage_errors_exit_2_without_a_panic() {
    for line in [
        "all --scale 0",
        "all --scale 2",
        "fig1a --scale abc",
        "table1 --seed x",
        "table4 --frobnicate",
        "frobnicate",
        "ablation",
        "ablation --which delta",
        "run --synth --state-budget x",
        "run --synth --flows",
        "run --synth --state bogus",
        "run --synth --state spacesaving --shards 2",
        "run --pcap c.pcap --ingest-workers 2 --fault-drop 0.1",
        "run --synth --shards 100000",
        "run --synth --shards 4294967297",
        "run --pcap c.pcap --ingest-workers 100000",
        "run --synth --checkpoint-dir d --checkpoint-every 0",
        "run --synth --checkpoint-every 5",
        "run --pcap c.pcap --interval-secs 0",
        "run --synth --interval-secs 0",
        "run --pcap c.pcap --start-unix 7 --interval-secs 0",
        "run --synth --interval-secs 18446744074",
        "run --pcap c.pcap --start-unix 18446744073709551615",
        "run --synth --gamma 1",
        "run --synth --gamma 2",
        "run --synth --gamma -0.5",
        "run --synth --gamma NaN",
        "run --synth --flows 500 --prefixes 100",
        "run --synth --prefixes 0",
        "churn --storm-at soon",
        "churn --frobnicate",
        "sketch --budget x",
        "sketch --seed",
        "sketch --frobnicate",
        "sketch --scale 0",
        "sketch --intervals 1",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_eleph"))
            .args(line.split_whitespace())
            .output()
            .expect("eleph runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`eleph {line}`: {stderr}");
        assert!(out.stdout.is_empty(), "`eleph {line}` printed to stdout");
        assert!(stderr.starts_with("eleph: "), "`eleph {line}`: {stderr}");
        assert!(
            stderr.ends_with("try `eleph help`\n"),
            "`eleph {line}`: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "`eleph {line}`: {stderr}");
        // The pooled ingest path is gone: its flag is an unknown one.
        if line.contains("--ingest-workers") {
            assert!(
                stderr.contains("unknown argument --ingest-workers"),
                "`eleph {line}`: {stderr}"
            );
        }
    }
}

/// `eleph run --synth` options at the edge of what is accepted.
const ACCEPTED_EDGES: &[&str] = &[
    // A latent-heat window far longer than the run: the history grows
    // with the run, it is not reserved for the window.
    "--window 1000000000",
];

#[test]
fn accepted_edges_exit_0() {
    let dir = scratch("edges");
    for line in ACCEPTED_EDGES {
        let out = Command::new(env!("CARGO_BIN_EXE_eleph"))
            .args(["run", "--synth", "--flows", "200", "--intervals", "4", "--interval-secs", "20"])
            .args(["--prefixes", "2000"])
            .args(line.split_whitespace())
            .arg("--out")
            .arg(dir.join("run.jsonl"))
            .output()
            .expect("eleph runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "`eleph run --synth … {line}`: {stderr}");
    }
    fs::remove_dir_all(&dir).ok();
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eleph-usage-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn a_missing_input_names_its_flag_and_path_before_any_is_read() {
    // The inputs that do exist are garbage: had the run read one before
    // opening the missing one, the error would be that input's.
    let dir = scratch("missing");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp dir").to_string();
    fs::write(path("c.pcap"), "not a capture").unwrap();
    fs::write(path("c.rib"), "not a dump").unwrap();
    for (flag, line) in [
        ("--pcap", format!("--pcap {} --rib {}", path("no.pcap"), path("c.rib"))),
        ("--rib", format!("--pcap {} --rib {}", path("c.pcap"), path("no.rib"))),
        (
            "--rib-updates",
            format!(
                "--pcap {} --rib {} --rib-updates {}",
                path("c.pcap"),
                path("c.rib"),
                path("no.txt")
            ),
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_eleph"))
            .arg("run")
            .args(line.split_whitespace())
            .output()
            .expect("eleph runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let missing = line.split_whitespace().skip_while(|&a| a != flag).nth(1).unwrap();
        assert_eq!(out.status.code(), Some(1), "`eleph run {line}`: {stderr}");
        assert!(stderr.contains(&format!("{flag} {missing}: ")), "`eleph run {line}`: {stderr}");
        assert!(!stderr.contains("panicked"), "`eleph run {line}`: {stderr}");
        assert!(out.stdout.is_empty(), "`eleph run {line}` printed to stdout");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unwritable_checkpoint_exits_1_naming_its_path() {
    // A directory where the temp file goes: the create fails, for root
    // too, on the writer thread — and the run still answers for it.
    let dir = scratch("ckpt");
    let ckpt = dir.join("ck");
    fs::create_dir_all(ckpt.join("eleph.ckpt.tmp")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_eleph"))
        .args(["run", "--synth", "--flows", "200", "--intervals", "4", "--interval-secs", "20"])
        .args(["--prefixes", "2000", "--checkpoint-dir"])
        .arg(&ckpt)
        .arg("--out")
        .arg(dir.join("run.jsonl"))
        .output()
        .expect("eleph runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let path = ckpt.join("eleph.ckpt");
    assert!(stderr.contains(path.to_str().expect("utf-8 temp dir")), "{stderr}");
    assert!(stderr.contains("checkpoint I/O error"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!path.exists(), "no image was renamed into place");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_capture_that_fails_mid_stream_names_its_input() {
    let dir = scratch("midstream");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp dir").to_string();
    let table = synth::generate(&SynthConfig { n_prefixes: 2_000, ..SynthConfig::default() });
    let mut rib = Vec::new();
    write_dump(&table, &mut rib).expect("write dump");
    fs::write(path("c.rib"), rib).unwrap();
    let trace = RateTrace::generate(&WorkloadConfig::small_test(5), &table);
    let mut pcap = Vec::new();
    PacketSynth::new(&trace).write_pcap(0..1, &mut pcap).expect("pcap synthesis");
    // Keep the global header and the first record, whole: without
    // --start-unix that record is peeked when the capture opens, so the
    // damage is met mid-stream. Then a record claiming 0xFFFFFFF0 bytes.
    let caplen = u32::from_le_bytes(pcap[32..36].try_into().unwrap()) as usize;
    pcap.truncate(24 + 16 + caplen);
    for field in [0u32, 0, 0xFFFF_FFF0, 0xFFFF_FFF0] {
        pcap.extend_from_slice(&field.to_le_bytes());
    }
    fs::write(path("c.pcap"), &pcap).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_eleph"))
        .args(["run", "--pcap", &path("c.pcap"), "--rib", &path("c.rib")])
        .args(["--out", &path("run.jsonl")])
        .output()
        .expect("eleph runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("--pcap {}: ", path("c.pcap"))), "{stderr}");
    assert!(stderr.contains("implausible pcap capture length"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_piped_capture_without_a_start_reads_as_the_file_does() {
    let dir = scratch("pipe");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp dir").to_string();
    let table = synth::generate(&SynthConfig { n_prefixes: 2_000, ..SynthConfig::default() });
    let config = WorkloadConfig {
        n_flows: 120,
        n_intervals: 4,
        interval_secs: 20,
        ..WorkloadConfig::small_test(5)
    };
    let trace = RateTrace::generate(&config, &table);
    let mut pcap = Vec::new();
    PacketSynth::new(&trace).write_pcap(0..4, &mut pcap).expect("pcap synthesis");
    fs::write(path("c.pcap"), &pcap).unwrap();
    let mut rib = Vec::new();
    write_dump(&table, &mut rib).expect("write dump");
    fs::write(path("c.rib"), rib).unwrap();

    // No --start-unix: the window is anchored at the first record.
    let run = |pcap_arg: &str, out: &str| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_eleph"))
            .args(["run", "--pcap", pcap_arg, "--rib", &path("c.rib")])
            .args(["--interval-secs", "20", "--intervals", "4", "--out", &path(out)])
            .stdin(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("eleph runs");
        let mut stdin = child.stdin.take().expect("piped stdin");
        let bytes = if pcap_arg == "/dev/stdin" { pcap.clone() } else { Vec::new() };
        let feeder = std::thread::spawn(move || stdin.write_all(&bytes));
        let out = child.wait_with_output().expect("eleph exits");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "--pcap {pcap_arg}: {stderr}");
        assert!(stderr.contains("anchoring the window"), "{stderr}");
        feeder.join().unwrap().expect("capture piped in");
    };
    run(&path("c.pcap"), "file.jsonl");
    run("/dev/stdin", "pipe.jsonl");
    let file = fs::read(path("file.jsonl")).unwrap();
    assert_eq!(file.iter().filter(|&&b| b == b'\n').count(), 4);
    assert_eq!(fs::read(path("pipe.jsonl")).unwrap(), file, "the piped run diverges");
    fs::remove_dir_all(&dir).ok();
}
