//! A wrong command line is answered, not crashed on: the message and a
//! pointer to `eleph help` on stderr, nothing on stdout, exit status 2.

use std::process::Command;

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
    }
}
