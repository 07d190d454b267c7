//! The five workloads: what each runs, why it was chosen, and how one
//! repetition's outputs are checked.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use eleph_report::Scenario;

use crate::child::Usage;
use crate::inputs::{Inputs, Ledger, INTERVALS, INTERVAL_SECS, START_UNIX, WINDOW_SECS};
use crate::json::{self, Value};

/// `eleph all --scale`: at 0.3 one run takes about 1.3 s on the 2-core
/// box (3.2 s at 0.5), so ten repetitions fit one driver run.
pub const PAPER_SCALE: f64 = 0.3;

/// The report sections `eleph all` must print, in order.
pub const REPORT_HEADERS: [&str; 11] = [
    "## fig1a — ",
    "## fig1b — ",
    "## fig1c — ",
    "## table1 — ",
    "## table2 — ",
    "## table3 — ",
    "## table4 — ",
    "## ablation_gamma — ",
    "## ablation_window — ",
    "## ablation_beta — ",
    "## ablation_scheme — ",
];

/// One workload: a name and the reason it exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it was chosen (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
}

/// Every workload, in round-robin order. `BENCHMARK.json` lists all but
/// `backbone_shards2`, which `run` measures and the driver does not gate
/// on: it runs three busy threads on the two processors the benchmark's
/// machine has, so its time is the scheduler's as much as the program's,
/// and the driver's budget buys four workloads 24-second runs but five
/// only 18.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "backbone",
        why: "default serial exact eleph run over the bb capture: file read, frame, parse, LPM and binning do nearly all the work",
    },
    Workload {
        name: "backbone_shards2",
        why: "same run with --shards 2: the only place the shard engine's broadcast flush and two-phase seal barrier run; output must equal backbone's",
    },
    Workload {
        name: "ops_live",
        why: "same capture at T=1s with route churn, a checkpoint every interval and a rotating sink: writes beside reads, 5x the seals, EpochLpm lookups",
    },
    Workload {
        name: "sketch_ss64k",
        why: "backbone with a 64 KiB Space-Saving summary under 6x its capacity in active keys: 1 packet in 4 misses and evicts, the most the recall floor allows; backbone is its bypass",
    },
    Workload {
        name: "paper_tables",
        why: "eleph all at reduced scale: no packets; trace generation, the bandwidth matrix, batch classification and the report experiments do the work",
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Whether this workload streams the `bb` capture through `eleph run`.
    pub fn is_streaming(&self) -> bool {
        self.name != "paper_tables"
    }

    /// Whether the child is confined to one processor. `eleph all` starts
    /// a thread per processor and two per pair of scenarios: on two
    /// processors its wall time reads 1.15 s when the scheduler spreads
    /// them and 1.49 s when it does not, with the same CPU time. On one
    /// processor wall time is CPU time, which is what a change can move.
    pub fn one_cpu(&self) -> bool {
        !self.is_streaming()
    }

    /// Interval length and count of the run's geometry.
    pub fn geometry(&self) -> (u64, usize) {
        match self.name {
            "ops_live" => (1, WINDOW_SECS as usize),
            _ => (INTERVAL_SECS, INTERVALS),
        }
    }

    /// Outputs checked per repetition: sealed intervals for a streaming
    /// run, report sections for `paper_tables`.
    pub fn checks_per_rep(&self) -> u64 {
        if self.is_streaming() {
            self.geometry().1 as u64
        } else {
            REPORT_HEADERS.len() as u64
        }
    }

    /// Set-up runs after each timed repetition. Three of a streaming
    /// workload's (0.13 s each) make 21 in a full `run` and at least 15 in
    /// the driver's form; `eleph help` takes a millisecond, and it takes
    /// forty of them for the median to settle.
    pub fn setup_reps_per_round(&self) -> usize {
        if self.is_streaming() {
            3
        } else {
            40
        }
    }

    /// Units of work behind `pkts_per_s`: generated packets for a
    /// streaming run; for `paper_tables`, which has no packets, the
    /// (flow, interval) rate samples of the west and east scenarios.
    pub fn work_items(&self, inputs: &Inputs) -> u64 {
        if self.is_streaming() {
            return inputs.ledger.total_packets();
        }
        [Scenario::west(inputs.seed), Scenario::east(inputs.seed)]
            .into_iter()
            .map(|s| {
                let w = s.scaled(PAPER_SCALE).workload;
                (w.n_flows * w.n_intervals) as u64
            })
            .sum()
    }

    /// Whether verification needs the serial exact run's output.
    pub fn needs_reference(&self) -> bool {
        matches!(self.name, "backbone_shards2" | "sketch_ss64k")
    }

    /// Where a repetition writes its JSONL.
    pub fn out_file(&self, dir: &Path) -> PathBuf {
        dir.join("out.jsonl")
    }

    /// The `eleph` arguments of one repetition writing into `dir`. With
    /// `setup`, the same command over the zero-record capture.
    pub fn args(&self, inputs: &Inputs, dir: &Path, setup: bool) -> Vec<String> {
        if !self.is_streaming() {
            return if setup {
                vec!["help".to_string()]
            } else {
                [
                    "all",
                    "--scale",
                    &PAPER_SCALE.to_string(),
                    "--seed",
                    &inputs.seed.to_string(),
                ]
                .map(str::to_string)
                .to_vec()
            };
        }
        let path = |p: &Path| p.display().to_string();
        let (secs, n) = self.geometry();
        let pcap = if setup {
            &inputs.empty_pcap
        } else {
            &inputs.pcap
        };
        let mut args: Vec<String> = vec![
            "run".into(),
            "--pcap".into(),
            path(pcap),
            "--rib".into(),
            path(&inputs.rib),
            "--start-unix".into(),
            START_UNIX.to_string(),
            "--interval-secs".into(),
            secs.to_string(),
            "--intervals".into(),
            n.to_string(),
            "--out".into(),
            path(&self.out_file(dir)),
        ];
        let extra: Vec<String> = match self.name {
            "backbone_shards2" => vec!["--shards".into(), "2".into()],
            "sketch_ss64k" => {
                vec![
                    "--state".into(),
                    "spacesaving".into(),
                    "--state-budget".into(),
                    "65536".into(),
                ]
            }
            "ops_live" => vec![
                "--rib-updates".into(),
                path(&inputs.churn),
                "--checkpoint-dir".into(),
                path(&dir.join("ckpt")),
                "--checkpoint-every".into(),
                "1".into(),
                "--rotate-bytes".into(),
                "1048576".into(),
            ],
            _ => Vec::new(),
        };
        args.extend(extra);
        args
    }
}

/// What checking one repetition found.
#[derive(Debug, Default)]
pub struct Checked {
    /// Outputs that failed, out of [`Workload::checks_per_rep`].
    pub failed: u64,
    /// One line per distinct failure.
    pub notes: Vec<String>,
    /// The bytes compared across repetitions: the JSONL chain, or
    /// `paper_tables`' stdout.
    pub output: Vec<u8>,
    /// Elephant prefixes per interval (streaming runs whose JSONL parsed).
    pub elephants: Vec<Vec<String>>,
}

/// Accumulates failures of one repetition: either single outputs or,
/// for a fault that taints the whole run, all of them.
struct Verdict {
    total: u64,
    failed: Vec<bool>,
    notes: Vec<String>,
}

impl Verdict {
    fn new(total: u64) -> Self {
        Verdict {
            total,
            failed: vec![false; total as usize],
            notes: Vec::new(),
        }
    }

    fn fail_all(&mut self, note: String) {
        self.failed.fill(true);
        self.notes.push(note);
    }

    fn fail_one(&mut self, index: usize, note: String) {
        if !self.failed[index] {
            self.failed[index] = true;
            self.notes.push(note);
        }
    }

    fn finish(self, output: Vec<u8>, elephants: Vec<Vec<String>>) -> Checked {
        debug_assert_eq!(self.failed.len() as u64, self.total);
        Checked {
            failed: self.failed.iter().filter(|&&f| f).count() as u64,
            notes: self.notes,
            output,
            elephants,
        }
    }
}

/// The JSONL a run left behind: rotated segments `out.jsonl.1`,
/// `out.jsonl.2`, … in order, then the current file.
fn read_chain(out_file: &Path) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    for n in 1.. {
        let segment = PathBuf::from(format!("{}.{n}", out_file.display()));
        if !segment.exists() {
            break;
        }
        bytes.extend(fs::read(segment)?);
    }
    bytes.extend(fs::read(out_file)?);
    Ok(bytes)
}

/// File in a repetition's directory that holds the child's stdout.
pub const STDOUT_FILE: &str = "stdout.txt";
/// File in a repetition's directory that holds the child's stderr.
pub const STDERR_FILE: &str = "stderr.txt";

/// Check one repetition of `workload` that ran in `dir`, its stdout and
/// stderr in [`STDOUT_FILE`] and [`STDERR_FILE`] there.
///
/// `same_as`, when given, is output this repetition must equal byte for
/// byte: an earlier repetition of the same workload (every run is
/// deterministic) or, for `backbone_shards2`, the serial run.
pub fn check(
    workload: Workload,
    inputs: &Inputs,
    usage: &Usage,
    dir: &Path,
    same_as: &[(&str, &[u8])],
) -> Checked {
    let mut verdict = Verdict::new(workload.checks_per_rep());
    if usage.exit_code != Some(0) {
        verdict.fail_all(format!("exit status {:?}", usage.exit_code));
    }
    let mut elephants = Vec::new();
    let output = if workload.is_streaming() {
        match fs::read_to_string(dir.join(STDERR_FILE)) {
            Ok(text) => check_summary(workload, &inputs.ledger, &text, &mut verdict),
            Err(e) => verdict.fail_all(format!("stderr unreadable: {e}")),
        }
        match read_chain(&workload.out_file(dir)) {
            Ok(bytes) => {
                elephants = check_jsonl(workload, &inputs.ledger, &bytes, &mut verdict);
                bytes
            }
            Err(e) => {
                verdict.fail_all(format!("JSONL unreadable: {e}"));
                Vec::new()
            }
        }
    } else {
        match fs::read(dir.join(STDOUT_FILE)) {
            Ok(bytes) => {
                check_report(&bytes, &mut verdict);
                bytes
            }
            Err(e) => {
                verdict.fail_all(format!("stdout unreadable: {e}"));
                Vec::new()
            }
        }
    };
    for (what, expected) in same_as {
        if output != *expected {
            verdict.fail_all(format!("output differs from {what}"));
        }
    }
    verdict.finish(output, elephants)
}

/// The end-of-run summary line on stderr against the ledger.
fn check_summary(workload: Workload, ledger: &Ledger, stderr: &str, verdict: &mut Verdict) {
    let Some(line) = stderr
        .lines()
        .rev()
        .find(|l| l.starts_with("{\"eleph_run\""))
    else {
        return verdict.fail_all("no summary line on stderr".to_string());
    };
    let summary = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return verdict.fail_all(format!("summary is not strict JSON: {e}")),
    };
    let Some(run) = summary.get("eleph_run") else {
        return verdict.fail_all("summary lacks eleph_run".to_string());
    };
    let number = |key: &str| run.get(key).and_then(Value::as_f64);
    let mut expect = |key: &str, want: f64| {
        if number(key) != Some(want) {
            verdict.fail_all(format!(
                "summary {key} = {:?}, expected {want}",
                number(key)
            ));
        }
    };
    expect("malformed", 0.0);
    expect("offered", ledger.total_packets() as f64);
    expect("intervals", workload.geometry().1 as f64);
    if workload.name == "ops_live" {
        // Withdrawn prefixes leave some packets unroutable, so bytes and
        // key counts are not the ledger's; the churn must have applied.
        if number("route_updates").is_none_or(|n| n <= 0.0) {
            verdict.fail_all("summary route_updates is not positive".to_string());
        }
    } else {
        expect("attributed_bytes", ledger.total_bytes() as f64);
        expect("prefixes", ledger.distinct_prefixes() as f64);
    }
    if run.get("conserved").and_then(Value::as_bool) != Some(true) {
        verdict.fail_all("summary conserved is not true".to_string());
    }
}

/// The JSONL chain: line count, strict JSON, interval geometry and, on
/// the exact 5-second geometry, `total_load` against the ledger.
/// Returns the elephant set of every interval when all lines parsed.
fn check_jsonl(
    workload: Workload,
    ledger: &Ledger,
    bytes: &[u8],
    verdict: &mut Verdict,
) -> Vec<Vec<String>> {
    let (secs, n) = workload.geometry();
    let Ok(text) = std::str::from_utf8(bytes) else {
        verdict.fail_all("JSONL is not UTF-8".to_string());
        return Vec::new();
    };
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != n || !text.ends_with('\n') {
        verdict.fail_all(format!("JSONL has {} lines, expected {n}", lines.len()));
        return Vec::new();
    }
    let mut elephants = Vec::with_capacity(n);
    for (i, line) in lines.iter().enumerate() {
        let value = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                verdict.fail_one(i, format!("interval {i} is not strict JSON: {e}"));
                continue;
            }
        };
        let number = |key: &str| value.get(key).and_then(Value::as_f64);
        let geometry_ok = number("interval") == Some(i as f64)
            && number("start_unix") == Some((START_UNIX + i as u64 * secs) as f64)
            && number("interval_secs") == Some(secs as f64);
        if !geometry_ok {
            verdict.fail_one(
                i,
                format!("interval {i} has the wrong index, start or length"),
            );
        }
        // A sketch overestimates single keys but Space-Saving's counters
        // still sum to the interval's bytes, so the total holds there too.
        if workload.name != "ops_live" {
            let want = ledger.load_bps(i, secs);
            let ok = number("total_load").is_some_and(|got| (got - want).abs() <= 1e-5 * want);
            if !ok {
                verdict.fail_one(
                    i,
                    format!(
                        "interval {i} total_load {:?}, ledger {want}",
                        number("total_load")
                    ),
                );
            }
        }
        let names: Option<Vec<String>> =
            value.get("elephants").and_then(Value::as_array).map(|a| {
                a.iter()
                    .filter_map(|e| e.as_str().map(str::to_string))
                    .collect()
            });
        match names {
            Some(names) => elephants.push(names),
            None => verdict.fail_one(i, format!("interval {i} has no elephants array")),
        }
    }
    if elephants.len() == n {
        elephants
    } else {
        Vec::new()
    }
}

/// `eleph all`'s stdout: each of the eleven report headers, in order.
fn check_report(stdout: &[u8], verdict: &mut Verdict) {
    let text = String::from_utf8_lossy(stdout);
    let mut from = 0;
    for (i, header) in REPORT_HEADERS.iter().enumerate() {
        match text[from..].find(header) {
            Some(at) => from += at + header.len(),
            None => verdict.fail_one(i, format!("report lacks {header:?} (in order)")),
        }
    }
}

/// Micro-averaged recall and precision of `got`'s elephant sets against
/// `truth`'s, over all intervals: Σ|got ∩ truth| over Σ|truth| and
/// Σ|got|. `None` when the interval counts differ; an empty denominator
/// scores 1 (nothing to find, nothing wrongly found).
pub fn recall_precision(truth: &[Vec<String>], got: &[Vec<String>]) -> Option<(f64, f64)> {
    if truth.len() != got.len() {
        return None;
    }
    let (mut hit, mut want, mut said) = (0usize, 0usize, 0usize);
    for (t, g) in truth.iter().zip(got) {
        let t: std::collections::BTreeSet<&str> = t.iter().map(String::as_str).collect();
        let g: std::collections::BTreeSet<&str> = g.iter().map(String::as_str).collect();
        hit += t.intersection(&g).count();
        want += t.len();
        said += g.len();
    }
    let ratio = |den: usize| {
        if den == 0 {
            1.0
        } else {
            hit as f64 / den as f64
        }
    };
    Some((ratio(want), ratio(said)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleph_net::Prefix;

    fn ledger() -> Ledger {
        let mut ledger = Ledger::new(INTERVALS);
        let prefix: Prefix = "10.0.0.0/8".parse().unwrap();
        for n in 0..INTERVALS {
            ledger.record(n, prefix, 1000 + n as u32);
        }
        ledger
    }

    fn line(i: usize, load: f64) -> String {
        format!(
            "{{\"interval\":{i},\"start_unix\":{},\"interval_secs\":5,\"threshold\":null,\
             \"elephants\":[\"10.0.0.0/8\"],\"elephant_load\":0,\"total_load\":{load},\"fraction\":0}}\n",
            START_UNIX + i as u64 * 5
        )
    }

    #[test]
    fn jsonl_is_checked_against_the_ledger_interval_by_interval() {
        let ledger = ledger();
        let w = Workload::by_name("backbone").unwrap();
        let good: String = (0..INTERVALS)
            .map(|i| line(i, ledger.load_bps(i, 5)))
            .collect();
        let mut verdict = Verdict::new(w.checks_per_rep());
        let elephants = check_jsonl(w, &ledger, good.as_bytes(), &mut verdict);
        assert_eq!(elephants.len(), INTERVALS);
        assert_eq!(verdict.finish(Vec::new(), Vec::new()).failed, 0);

        // One interval off by 1e-4 relative, one line that is not JSON.
        let bad: String = (0..INTERVALS)
            .map(|i| match i {
                3 => line(i, ledger.load_bps(i, 5) * 1.0001),
                7 => "{\"interval\":7,\"total_load\":inf}\n".to_string(),
                _ => line(i, ledger.load_bps(i, 5)),
            })
            .collect();
        let mut verdict = Verdict::new(w.checks_per_rep());
        check_jsonl(w, &ledger, bad.as_bytes(), &mut verdict);
        assert_eq!(verdict.finish(Vec::new(), Vec::new()).failed, 2);

        // A missing line taints the whole repetition.
        let short: String = (0..INTERVALS - 1)
            .map(|i| line(i, ledger.load_bps(i, 5)))
            .collect();
        let mut verdict = Verdict::new(w.checks_per_rep());
        check_jsonl(w, &ledger, short.as_bytes(), &mut verdict);
        assert_eq!(
            verdict.finish(Vec::new(), Vec::new()).failed,
            INTERVALS as u64
        );
    }

    #[test]
    fn summary_must_match_the_ledger() {
        let ledger = ledger();
        let w = Workload::by_name("backbone").unwrap();
        let summary = |offered: u64, conserved: bool| {
            format!(
                "noise\n{{\"eleph_run\":{{\"intervals\":{INTERVALS},\"prefixes\":1,\"offered\":{offered},\
                 \"attributed_bytes\":{},\"malformed\":0,\"conserved\":{conserved},\"route_updates\":0}}}}\n",
                ledger.total_bytes()
            )
        };
        let failed = |text: &str| {
            let mut verdict = Verdict::new(w.checks_per_rep());
            check_summary(w, &ledger, text, &mut verdict);
            verdict.finish(Vec::new(), Vec::new()).failed
        };
        assert_eq!(failed(&summary(ledger.total_packets(), true)), 0);
        assert_eq!(
            failed(&summary(ledger.total_packets() + 1, true)),
            INTERVALS as u64
        );
        assert_eq!(
            failed(&summary(ledger.total_packets(), false)),
            INTERVALS as u64
        );
        assert_eq!(failed("no summary here\n"), INTERVALS as u64);
    }

    #[test]
    fn report_headers_are_required_in_order() {
        let full: String = REPORT_HEADERS
            .iter()
            .map(|h| format!("{h}title\nrow\n"))
            .collect();
        let mut verdict = Verdict::new(REPORT_HEADERS.len() as u64);
        check_report(full.as_bytes(), &mut verdict);
        assert_eq!(verdict.finish(Vec::new(), Vec::new()).failed, 0);
        let missing = full.replace("## table3 — ", "## tableX — ");
        let mut verdict = Verdict::new(REPORT_HEADERS.len() as u64);
        check_report(missing.as_bytes(), &mut verdict);
        assert_eq!(verdict.finish(Vec::new(), Vec::new()).failed, 1);
    }

    #[test]
    fn recall_and_precision_are_micro_averaged() {
        let s = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        let truth = vec![s(&["a", "b", "c"]), s(&["a"])];
        let got = vec![s(&["a", "b"]), s(&["a", "z"])];
        // 3 hits of 4 wanted, 3 hits of 4 said.
        assert_eq!(recall_precision(&truth, &got), Some((0.75, 0.75)));
        assert_eq!(recall_precision(&truth, &truth), Some((1.0, 1.0)));
        assert_eq!(recall_precision(&truth, &got[..1]), None);
        assert_eq!(recall_precision(&[vec![]], &[vec![]]), Some((1.0, 1.0)));
    }

    #[test]
    fn every_workload_has_a_distinct_name_and_a_one_line_reason() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(Workload::by_name(w.name), Some(*w));
        }
    }
}
