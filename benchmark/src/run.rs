//! The end-to-end run: build `eleph`, generate inputs, drive every
//! selected workload as a child process of the real binary, check every
//! repetition's outputs, and report medians.
//!
//! Closed loop, one client: the next child starts after the previous
//! one exits, and the harness itself does nothing while a child runs.
//! Repetitions go round-robin across the selected workloads, so machine
//! drift lands on all of them equally. Tracing is off: nothing in this
//! mode runs inside the harness's process while a child is timed.
//!
//! Between the children the harness times the calibration load,
//! [`Reference::replay`], and every timing is reported at the reference
//! machine speed: the measured seconds times [`REFERENCE_S`] over the
//! mean of the replays before and after. That ratio is kept beside
//! them (`machine_factor` in `results.json`).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::child::{self, OneCpu, Usage};
use crate::inputs::{self, Inputs};
use crate::json::{nums, obj, string, Value};
use crate::machine::{self, Probes, Reference, NOISE_LIMIT, REFERENCE_S};
use crate::stats::{highest_percentile, median};
use crate::workloads::{self, Checked, Workload, WORKLOADS};

/// Name, unit and direction of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// The end-to-end metrics, measured per workload from outside the child;
/// the four timings (`wall_s`, `pkts_per_s`, `cpu_s`, `setup_s`) at the
/// reference machine speed. Regression bounds live in `BENCHMARK.json`.
///
/// `error_share` (failed over attempted outputs) is computed and printed
/// too, but is not in this list: it is 0 on a correct program, and the
/// driver's contract carries it as `failed` and `attempted` instead.
pub const END_TO_END: [MetricDef; 7] = [
    MetricDef {
        name: "wall_s",
        unit: "s",
        better: "lower",
    },
    MetricDef {
        name: "pkts_per_s",
        unit: "packets/s",
        better: "higher",
    },
    MetricDef {
        name: "cpu_s",
        unit: "s",
        better: "lower",
    },
    MetricDef {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
    },
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    MetricDef {
        name: "elephant_recall",
        unit: "ratio",
        better: "higher",
    },
    MetricDef {
        name: "elephant_precision",
        unit: "ratio",
        better: "higher",
    },
];

/// Timed repetitions per workload of a full `run`.
const RUN_REPS: usize = 7;
/// Timed repetitions the driver's form makes at least, however short its
/// `--seconds`.
const DRIVER_MIN_REPS: usize = 5;

/// Where things are.
#[derive(Debug, Clone)]
pub struct Layout {
    /// The repository checkout.
    pub repo_root: PathBuf,
    /// `benchmark/out`: everything the benchmark writes.
    pub out: PathBuf,
}

impl Layout {
    /// Locate the checkout from the benchmark package's manifest
    /// directory: the one `cargo run` reports, else the one compiled in.
    pub fn locate() -> io::Result<Layout> {
        let bench = std::env::var_os("CARGO_MANIFEST_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
        let bench = fs::canonicalize(bench)?;
        let repo_root = bench
            .parent()
            .ok_or_else(|| io::Error::other("the benchmark directory has no parent"))?
            .to_path_buf();
        Ok(Layout {
            repo_root,
            out: bench.join("out"),
        })
    }

    /// Build `eleph` from the workspace (release profile) and return the
    /// binary's path. Cargo's own messages go to stderr.
    pub fn build_eleph(&self) -> io::Result<PathBuf> {
        let status = Command::new("cargo")
            .args([
                "build",
                "--release",
                "--quiet",
                "-p",
                "eleph-report",
                "--bin",
                "eleph",
            ])
            .arg("--manifest-path")
            .arg(self.repo_root.join("Cargo.toml"))
            .status()?;
        if !status.success() {
            return Err(io::Error::other("building eleph failed"));
        }
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => std::env::current_dir()?.join(dir),
            None => self.repo_root.join("target"),
        };
        let eleph = target.join("release").join("eleph");
        if !eleph.is_file() {
            return Err(io::Error::other(format!(
                "{} was not built",
                eleph.display()
            )));
        }
        Ok(eleph)
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub selection: Vec<Workload>,
    /// Timed repetitions every workload gets at least.
    min_reps: usize,
    /// Keep making rounds until this many seconds of measuring passed.
    seconds: f64,
}

impl Options {
    /// Every workload, [`RUN_REPS`] repetitions each.
    pub fn full(seed: u64) -> Options {
        Options {
            seed,
            selection: WORKLOADS.to_vec(),
            min_reps: RUN_REPS,
            seconds: 0.0,
        }
    }

    /// The driver's form: one workload for `seconds`, at least
    /// [`DRIVER_MIN_REPS`] repetitions.
    pub fn driver(seed: u64, workload: Workload, seconds: f64) -> Options {
        Options {
            seed,
            selection: vec![workload],
            min_reps: DRIVER_MIN_REPS,
            seconds,
        }
    }
}

/// Everything measured for one workload.
#[derive(Debug)]
pub struct WorkloadResult {
    pub workload: Workload,
    pub work_items: u64,
    /// Per repetition, at the reference machine speed.
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub peak_rss_mib: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Per repetition: how many times slower than [`REFERENCE_S`] the
    /// calibration load ran around it. A timing as measured is the
    /// reported one times this.
    pub machine_factor: Vec<f64>,
    pub recall: f64,
    pub precision: f64,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// First repetition's output: every later one must equal it.
    first_output: Option<Vec<u8>>,
}

impl WorkloadResult {
    fn new(workload: Workload, inputs: &Inputs) -> Self {
        WorkloadResult {
            workload,
            work_items: workload.work_items(inputs),
            wall_s: Vec::new(),
            cpu_s: Vec::new(),
            peak_rss_mib: Vec::new(),
            setup_s: Vec::new(),
            machine_factor: Vec::new(),
            recall: 1.0,
            precision: 1.0,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            first_output: None,
        }
    }

    /// Failed over attempted outputs.
    pub fn error_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Per-repetition samples of an end-to-end metric (a single value
    /// for the accuracy ratios, which are the same on every repetition).
    pub fn samples(&self, metric: &str) -> Vec<f64> {
        match metric {
            "wall_s" => self.wall_s.clone(),
            "pkts_per_s" => self
                .wall_s
                .iter()
                .map(|w| self.work_items as f64 / w)
                .collect(),
            "cpu_s" => self.cpu_s.clone(),
            "peak_rss_mib" => self.peak_rss_mib.clone(),
            "setup_s" => self.setup_s.clone(),
            "elephant_recall" => vec![self.recall],
            "elephant_precision" => vec![self.precision],
            other => panic!("unknown end-to-end metric {other}"),
        }
    }

    /// The reported value of an end-to-end metric: the median sample.
    pub fn value(&self, metric: &str) -> f64 {
        median(&self.samples(metric))
    }

    fn record_failures(&mut self, checked: &Checked) {
        self.attempted += self.workload.checks_per_rep();
        self.failed += checked.failed;
        for note in &checked.notes {
            if !self.notes.contains(note) {
                self.notes.push(note.clone());
            }
        }
    }

    fn to_json(&self) -> Value {
        let samples = END_TO_END
            .iter()
            .map(|m| (m.name, nums(&self.samples(m.name))));
        let metrics = END_TO_END.iter().map(|m| {
            let entry = obj([
                ("value", Value::Num(self.value(m.name))),
                ("unit", string(m.unit)),
                ("n", Value::Num(self.samples(m.name).len() as f64)),
            ]);
            (m.name, entry)
        });
        obj([
            ("name", string(self.workload.name)),
            ("why", string(self.workload.why)),
            ("work_items", Value::Num(self.work_items as f64)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("error_share", Value::Num(self.error_share())),
            ("machine_factor", nums(&self.machine_factor)),
            ("notes", Value::Arr(self.notes.iter().map(string).collect())),
            ("metrics", obj(metrics)),
            ("samples", obj(samples)),
        ])
    }
}

/// A finished run.
#[derive(Debug)]
pub struct RunResult {
    pub seed: u64,
    pub machine: Value,
    pub before: Probes,
    pub after: Probes,
    pub inputs_s: f64,
    pub packets: u64,
    pub workloads: Vec<WorkloadResult>,
}

impl RunResult {
    /// Whether the calibration probes moved by more than [`NOISE_LIMIT`].
    pub fn noisy(&self) -> bool {
        self.before.drift(&self.after) > NOISE_LIMIT
    }

    /// Whether every checked output of every workload was right.
    pub fn correct(&self) -> bool {
        self.workloads
            .iter()
            .all(|w| w.failed == 0 && w.attempted > 0)
    }

    /// The result file's content.
    pub fn to_json(&self) -> Value {
        obj([
            ("benchmark", string("eleph end-to-end")),
            ("seed", Value::Num(self.seed as f64)),
            ("machine", self.machine.clone()),
            ("probes_before", self.before.to_json()),
            ("probes_after", self.after.to_json()),
            ("noisy", Value::Bool(self.noisy())),
            ("inputs_s", Value::Num(self.inputs_s)),
            ("packets", Value::Num(self.packets as f64)),
            (
                "workloads",
                Value::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
    }

    /// Every metric by name, with its unit and sample count.
    pub fn print(&self) {
        println!(
            "seed {}  packets {}  inputs_s {:.3}  noisy {}",
            self.seed,
            self.packets,
            self.inputs_s,
            self.noisy()
        );
        for w in &self.workloads {
            for m in END_TO_END {
                // A timing is its median plus the highest percentile with
                // at least ten samples beyond it, when there is one.
                let samples = w.samples(m.name);
                let tail = match highest_percentile(&samples) {
                    Some((percent, value)) if percent > 50.0 => format!("  p{percent}={value:.6}"),
                    _ => String::new(),
                };
                println!(
                    "{:<17} {:<19} {:>16.6} {:<10} n={}{tail}",
                    w.workload.name,
                    m.name,
                    w.value(m.name),
                    m.unit,
                    samples.len()
                );
            }
            println!(
                "{:<17} {:<19} {:>16.6} {:<10} n={}  calibration load over REFERENCE_S; as measured = reported x this",
                w.workload.name,
                "machine_factor",
                median(&w.machine_factor),
                "ratio",
                w.machine_factor.len()
            );
            println!(
                "{:<17} {:<19} {:>16.6} {:<10} {} of {} outputs failed",
                w.workload.name,
                "error_share",
                w.error_share(),
                "ratio",
                w.failed,
                w.attempted
            );
            for note in &w.notes {
                println!("{:<17} FAILED: {note}", w.workload.name);
            }
        }
    }
}

/// One child run of `workload` in a fresh `out/work/<dir_name>`
/// directory; returns what it cost and the directory.
fn run_child(
    eleph: &Path,
    layout: &Layout,
    inputs: &Inputs,
    workload: Workload,
    dir_name: &str,
    setup: bool,
) -> io::Result<(Usage, PathBuf)> {
    let dir = layout.out.join("work").join(dir_name);
    if dir.exists() {
        fs::remove_dir_all(&dir)?;
    }
    fs::create_dir_all(&dir)?;
    // The report experiments write CSVs under `$CARGO_TARGET_DIR`: keep
    // them inside the repetition's directory.
    let target = dir.join("target");
    let usage = child::run(
        eleph,
        &workload.args(inputs, &dir, setup),
        &dir,
        &[("CARGO_TARGET_DIR", &target)],
        &dir.join(workloads::STDOUT_FILE),
        &dir.join(workloads::STDERR_FILE),
    )?;
    Ok((usage, dir))
}

/// Run the benchmark. Leaves `results.json` in the layout's `out`.
pub fn run(layout: &Layout, options: &Options) -> io::Result<RunResult> {
    let eleph = layout.build_eleph()?;
    let inputs = inputs::generate(&layout.out.join("inputs"), options.seed)?;
    let before = Probes::measure(&inputs.pcap)?;
    let mut results: Vec<WorkloadResult> = options
        .selection
        .iter()
        .map(|&w| WorkloadResult::new(w, &inputs))
        .collect();

    // The serial exact run is the oracle for the sharded run's bytes and
    // the sketch's elephant sets. It is made once, untimed, and checked
    // like any repetition; if it is wrong, so is everything scored
    // against it.
    let mut reference_run: Option<Checked> = None;
    if options.selection.iter().any(Workload::needs_reference) {
        let backbone = Workload::by_name("backbone").expect("backbone is a workload");
        let (usage, dir) = run_child(&eleph, layout, &inputs, backbone, "reference", false)?;
        let checked = workloads::check(backbone, &inputs, &usage, &dir, &[]);
        for result in results.iter_mut().filter(|r| r.workload.needs_reference()) {
            for note in &checked.notes {
                result.notes.push(format!("reference run: {note}"));
            }
            if checked.failed > 0 {
                result.attempted += result.workload.checks_per_rep();
                result.failed += result.workload.checks_per_rep();
            }
        }
        reference_run = Some(checked);
    }

    // The first round is a warm-up: a repetition checked like any other,
    // but not timed into the samples. Right after input generation the
    // first repetitions read some 20 % slow. After it, rounds are made
    // while half of one more fits into `seconds`, so that a run measures
    // for that long on average and not for up to a round longer.
    let reference = Reference::new(&inputs.pcap);
    let mut replay_before = 0.0;
    let mut warm = false;
    let mut started = Instant::now();
    let mut round_s = 0.0;
    while !warm
        || results.iter().any(|r| r.wall_s.len() < options.min_reps)
        || started.elapsed().as_secs_f64() + round_s / 2.0 < options.seconds
    {
        let round_started = Instant::now();
        for result in &mut results {
            let w = result.workload;
            // Held to the end of the round, so the calibration load runs
            // where the children did.
            let _confined = w.one_cpu().then(OneCpu::confine).transpose()?;
            let (usage, dir) = run_child(&eleph, layout, &inputs, w, w.name, false)?;
            let mut same_as: Vec<(&str, &[u8])> = Vec::new();
            if let Some(first) = &result.first_output {
                same_as.push(("this workload's first repetition", first));
            }
            if let (Some(reference), "backbone_shards2") = (&reference_run, w.name) {
                same_as.push(("the serial run", &reference.output));
            }
            let checked = workloads::check(w, &inputs, &usage, &dir, &same_as);
            // Scored against the oracle: the sketch's accuracy, and 1 for a
            // sharded run that kept its byte-identity promise. The other
            // workloads are the exact serial engine itself: 1 by definition.
            if let (Some(reference), true) = (&reference_run, w.needs_reference()) {
                match workloads::recall_precision(&reference.elephants, &checked.elephants) {
                    Some((recall, precision)) => {
                        result.recall = recall;
                        result.precision = precision;
                    }
                    // Unparsable output already failed its intervals.
                    None => (result.recall, result.precision) = (0.0, 0.0),
                }
            }
            result.record_failures(&checked);
            result.first_output.get_or_insert(checked.output);
            if !warm {
                continue;
            }

            // Set-up runs sit between the timed ones, a fixed count per
            // round: taken in one burst they sample a single moment of a
            // machine whose speed drifts, and spread twice as wide.
            let mut setup_s = Vec::new();
            for _ in 0..w.setup_reps_per_round() {
                let (usage, _) = run_child(&eleph, layout, &inputs, w, w.name, true)?;
                if usage.exit_code != Some(0) {
                    let note = format!("set-up run exited with {:?}", usage.exit_code);
                    if !result.notes.contains(&note) {
                        result.attempted += 1;
                        result.failed += 1;
                        result.notes.push(note);
                    }
                }
                setup_s.push(usage.wall_s);
            }

            // The calibration load brackets the round: one replay closes
            // this one and opens the next.
            let replay_after = reference.replay()?;
            let factor = (replay_before + replay_after) / 2.0 / REFERENCE_S;
            replay_before = replay_after;
            result.wall_s.push(usage.wall_s / factor);
            result.cpu_s.push(usage.cpu_s / factor);
            result.peak_rss_mib.push(usage.peak_rss_mib);
            result.setup_s.extend(setup_s.iter().map(|s| s / factor));
            result.machine_factor.push(factor);
        }
        if warm {
            round_s = round_started.elapsed().as_secs_f64();
        } else {
            warm = true;
            replay_before = reference.replay()?;
            started = Instant::now();
        }
    }

    let after = Probes::measure(&inputs.pcap)?;
    let result = RunResult {
        seed: options.seed,
        machine: machine::header(&layout.repo_root),
        before,
        after,
        inputs_s: inputs.gen_secs,
        packets: inputs.ledger.total_packets(),
        workloads: results,
    };
    let text = result.to_json().render().map_err(io::Error::other)?;
    fs::write(layout.out.join("results.json"), text + "\n")?;
    Ok(result)
}
