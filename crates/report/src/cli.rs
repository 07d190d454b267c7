//! The `eleph` command-line interface — one binary for every
//! experiment plus the streaming pipeline.
//!
//! Subcommands:
//!
//! * `eleph fig1a|fig1b|fig1c|table1|table2|table3|table4` — regenerate
//!   one figure/table (options: `--scale F --seed N`);
//! * `eleph ablation --which gamma|window|beta|scheme` — one ablation;
//! * `eleph all` — all eleven, in one session;
//! * `eleph run (--pcap FILE | --synth)` — stream packets through the
//!   [`eleph_pipeline`] builder and emit per-interval JSONL.
//!
//! One experiment or all of them, the path is the same: open a
//! [`Lab`], run the named experiments in it, print what they render.

use std::io;
use std::process::ExitCode;

use eleph_core::{
    AestDetector, ConstantLoadDetector, Scheme, StateBackendConfig, ThresholdDetector,
    PAPER_BETA, PAPER_GAMMA, PAPER_LATENT_WINDOW,
};
use eleph_bgp::{FrozenBgpTable, LiveBgpTable, RouteEntry, UpdateBatch};
use eleph_packet::pcap::RecordHeader;
use eleph_pipeline::{
    skip_offered, Checkpoint, Checkpointer, CheckpointsWritten, FaultedPcapSource, JsonlSink,
    PacketSource, PcapSource, Pipeline, PipelineBuilder, PipelineError, PipelineReport,
    RotatingJsonlSink, TraceSource, MAX_WORKER_THREADS,
};
use eleph_trace::{
    generate_churn, ChurnConfig, ChurnScenario, FaultConfig, FaultInjector, FaultStats, RateTrace,
    WorkloadConfig,
};

use crate::experiments::{Experiment, EXPERIMENTS};
use crate::{Lab, LabCounters};

/// Why an `eleph` invocation failed.
#[derive(Debug)]
pub enum CliError {
    /// The command line is not one `eleph` accepts; the message says
    /// what was wrong with it. Exit status 2.
    Usage(String),
    /// The command was understood and failed while running.
    Io(io::Error),
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Io(e)
    }
}

pub(crate) fn usage<T>(message: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Usage(message.into()))
}

/// Options shared by every experiment subcommand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommonOpts {
    /// Scenario scale factor (0 < scale ≤ 1; figures use 1).
    pub scale: f64,
    /// Master seed for the synthetic scenarios.
    pub seed: u64,
}

impl Default for CommonOpts {
    fn default() -> Self {
        CommonOpts { scale: 1.0, seed: 42 }
    }
}

/// An argument list read front to back: a flag, then the value it takes.
pub(crate) struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    pub(crate) fn new(args: &'a [String]) -> Self {
        Args(args.iter())
    }

    pub(crate) fn flag(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The argument after `flag`, parsed; `what` says what the flag takes.
    pub(crate) fn value<T: std::str::FromStr>(
        &mut self,
        flag: &str,
        what: &str,
    ) -> Result<T, CliError> {
        let Some(v) = self.0.next() else {
            return usage(format!("{flag} takes {what}"));
        };
        v.parse().or_else(|_| usage(format!("{flag} takes {what}, not {v:?}")))
    }
}

/// Parse `--scale` / `--seed` from an argument list (defaults 1.0 / 42).
/// Anything else — an unknown argument, a missing or unparsable value,
/// a scale outside (0, 1] — is a [`CliError::Usage`].
pub fn parse_common(args: &[String]) -> Result<CommonOpts, CliError> {
    let mut opts = CommonOpts::default();
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--scale" => {
                opts.scale = args.value(flag, "a float")?;
                if !(opts.scale > 0.0 && opts.scale <= 1.0) {
                    return usage(format!("--scale {}: need 0 < scale <= 1", opts.scale));
                }
            }
            "--seed" => opts.seed = args.value(flag, "an integer")?,
            other => {
                return usage(format!("unknown argument {other}; supported: --scale F --seed N"))
            }
        }
    }
    Ok(opts)
}

/// Run the named experiments in one session and return what each
/// renders, with the session's counters. An id outside [`EXPERIMENTS`]
/// is a [`CliError::Usage`], reported before anything is built.
pub fn run_session(
    ids: &[&str],
    opts: CommonOpts,
) -> Result<(Vec<String>, LabCounters), CliError> {
    let mut experiments: Vec<Experiment> = Vec::with_capacity(ids.len());
    for id in ids {
        match EXPERIMENTS.iter().find(|(known, _)| known == id) {
            Some(&(_, experiment)) => experiments.push(experiment),
            None => return usage(format!("unknown experiment {id}")),
        }
    }
    let lab = Lab::new(opts.scale, opts.seed);
    let mut rendered = Vec::with_capacity(ids.len());
    for experiment in experiments {
        rendered.push(experiment(&lab)?.render());
    }
    Ok((rendered, lab.counters()))
}

/// Run one experiment by id and return its rendered report.
pub fn render_experiment(id: &str, opts: CommonOpts) -> Result<String, CliError> {
    Ok(run_session(&[id], opts)?.0.concat())
}

/// Run every experiment — the `eleph all` subcommand: the same session
/// with all of [`EXPERIMENTS`] in it, a blank line after each report.
pub fn render_all(opts: CommonOpts) -> Result<String, CliError> {
    let (rendered, _) = run_session(&EXPERIMENTS.map(|(id, _)| id), opts)?;
    Ok(rendered.iter().flat_map(|r| [r.as_str(), "\n"]).collect())
}

const USAGE: &str = "\
eleph — elephant classification experiments and streaming pipeline

USAGE:
    eleph <SUBCOMMAND> [OPTIONS]

SUBCOMMANDS:
    fig1a | fig1b | fig1c      regenerate a Figure 1 panel
    table1 | table2 | table3 | table4
                               regenerate a paper table
    ablation --which W         W = gamma | window | beta | scheme
    all                        every experiment, in one session
    run                        stream packets -> per-interval JSONL
    churn                      generate a deterministic route-update
                               stream (announce/withdraw storms, flap
                               damping) for `run --rib-updates`
    sketch                     run exact and sketch state backends side
                               by side on the same stream and report
                               recall/precision/byte-coverage vs the
                               exact oracle, plus the memory-vs-accuracy
                               frontier
    help                       this text

EXPERIMENT OPTIONS:
    --scale F                  shrink the scenarios (0 < F <= 1; default 1)
    --seed N                   scenario master seed (default 42)

RUN OPTIONS (eleph run):
    --pcap FILE                stream a pcap capture
    --synth                    stream a synthetic workload
    --flows N                  synthetic flows (default 400)
    --intervals N              interval count (synth default 120; pcap default unbounded)
    --interval-secs S          measurement interval T in seconds (synth
                               default 60; pcap default 300)
    --start-unix T             first interval start (pcap; default: the
                               first packet's timestamp floored to the
                               interval length)
    --seed N                   synthetic workload seed (--synth only; default 7)
    --rib FILE                 routing table as a text RIB dump (see
                               eleph_bgp::dump); without it a synthetic
                               table is generated, which only matches
                               captures produced against that same table
    --prefixes N               synthetic routing-table size (default 20000;
                               under --synth without --rib, at least --flows)
    --rib-updates FILE         timed route-update stream (see eleph_bgp::dump
                               update format; `eleph churn` writes one):
                               the table becomes *live* and each batch
                               applies mid-stream, immediately before the
                               first packet whose timestamp reaches the
                               batch time; re-announced prefixes get
                               fresh keys while old keys retire through
                               the classifier window
    --detector D               constant-load | aest (default constant-load)
    --beta F                   constant-load target (default 0.8)
    --gamma F                  threshold EWMA smoothing, 0 <= F < 1
                               (default 0.9)
    --scheme S                 latent | single | hysteresis (default latent)
    --window N                 latent-heat window (default 12)
    --enter F / --exit F       hysteresis thresholds (default 1.2 / 0.6)
    --shards N                 hold the open interval's byte rows on N
                               worker threads (at most 256) keyed by
                               prefix id; classification stays on the main
                               thread, so output and checkpoints are
                               bit-identical to serial for every N
                               (default 0 = serial, inline; slower than
                               serial on two cores)
    --state B                  state backend sealing each interval:
                               exact (default; the dense byte row,
                               bit-identical to every earlier release)
                               or a fixed-budget sketch — spacesaving |
                               cmrow | bloom (deterministic, approximate;
                               incompatible with --shards)
    --state-budget BYTES       sketch memory budget (default 1048576)
    --out FILE                 JSONL destination (default stdout)
    --rotate-bytes N           rotate --out when it would exceed N bytes
                               (current file stays at FILE; older
                               segments are FILE.1, FILE.2, ... in
                               chronological order)
    --checkpoint-dir DIR       write crash-safe snapshots into DIR: the
                               image eleph.ckpt and the log it names,
                               eleph.N.log (keys and window slots, each
                               written once); per image the log append
                               is fsynced, then the image is written to
                               a temp file, fsynced and renamed
    --checkpoint-every N       snapshot cadence in sealed intervals
                               (default 1, at least 1; checked at source
                               chunk boundaries; needs --checkpoint-dir)
    --resume                   continue from DIR's checkpoint: requires
                               --checkpoint-dir and --out; truncates the
                               output chain to the checkpointed interval
                               count (exactly-once emission), replays
                               the source past the consumed records, and
                               continues bit-identically to an
                               uninterrupted run. Falls back to a fresh
                               start when no checkpoint exists yet.
    --fault-drop F             inject packet faults on the pcap path
    --fault-corrupt F          (probabilities in [0,1]; counters appear
    --fault-truncate F         in the end-of-run summary)
    --fault-seed N             fault injector RNG seed (default 0)

CHURN OPTIONS (eleph churn):
    --out FILE                 update-stream destination (default stdout)
    --prefixes N               synthetic table size to sample prefixes
                               from (default 20000 — match the run's)
    --seed N                   churn scenario seed (default 7)
    --start-unix T             base time the offsets below add to (default 0)
    --storm-at S               withdraw storm S seconds after start (default 60)
    --storm-count N            prefixes in the storm (default 16; 0 disables)
    --storm-hold S             seconds the routes stay down (default 120)
    --flap-start S             first flap S seconds after start (default 90)
    --flap-count N             flapping prefixes (default 4; 0 disables)
    --flap-period S            withdraw->announce spacing (default 30)
    --flap-cycles N            flap cycles per prefix (default 3)
    --flap-damped              suppress the final re-announce for the
                               8x-period damping window

SKETCH OPTIONS (eleph sketch):
    --seed N                   scenario seed (default 42)
    --scale F                  west-scenario workload scale (default 0.05)
    --intervals N              intervals streamed per run (default 18)
    --budget BYTES             sketch budget for the accuracy grid
                               (default 1048576; the frontier sweeps
                               65536..4194304 regardless)

The end of a run prints one JSON summary line on stderr: intervals
sealed, prefix count, every packet-accounting counter (offered,
attributed, attributed_bytes, unroutable, out_of_window, malformed,
late, conserved, far_future_streak), the routing-table generation and
applied update-batch count, and the fault-injection counters (seen,
dropped, corrupted, truncated), so degraded-input runs are visible
without grepping logs.
";

/// Entry point for the `eleph` binary: dispatch `argv[1..]`, print a
/// usage error with a pointer to `eleph help` and exit 2, or print a
/// run-time error as `main() -> io::Result` would and exit 1.
pub fn eleph_main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("eleph: {message}\ntry `eleph help`");
            ExitCode::from(2)
        }
        Err(CliError::Io(e)) => {
            eprintln!("Error: {e:?}");
            ExitCode::FAILURE
        }
    }
}

/// Run the subcommand `args` names.
pub(crate) fn dispatch(args: &[String]) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        print!("{USAGE}");
        return Ok(());
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => print!("{USAGE}"),
        "ablation" => {
            let Some((which, rest)) = take_flag_value(rest, "--which") else {
                return usage("ablation needs --which gamma|window|beta|scheme");
            };
            if !matches!(which.as_str(), "gamma" | "window" | "beta" | "scheme") {
                return usage(format!(
                    "unknown ablation {which}; supported: gamma window beta scheme"
                ));
            }
            let opts = parse_common(&rest)?;
            print!("{}", render_experiment(&format!("ablation_{which}"), opts)?);
        }
        "fig1a" | "fig1b" | "fig1c" | "table1" | "table2" | "table3" | "table4" => {
            print!("{}", render_experiment(cmd, parse_common(rest)?)?)
        }
        "all" => print!("{}", render_all(parse_common(rest)?)?),
        "run" => run_streaming(rest)?,
        "churn" => run_churn(rest)?,
        "sketch" => crate::sketch::run_sketch(rest)?,
        other => return usage(format!("unknown subcommand {other}")),
    }
    Ok(())
}

/// Pop `flag VALUE` out of an argument list, returning the value and
/// the remaining arguments.
fn take_flag_value(args: &[String], flag: &str) -> Option<(String, Vec<String>)> {
    let at = args.iter().position(|a| a == flag)?;
    let value = args.get(at + 1)?.clone();
    let mut rest: Vec<String> = args[..at].to_vec();
    rest.extend_from_slice(&args[at + 2..]);
    Some((value, rest))
}

/// All options of `eleph run` in one struct — the single configuration
/// surface for streaming invocations.
#[derive(Debug, Clone)]
pub(crate) struct RunOpts {
    /// Stream this pcap file (mutually exclusive with `synth`).
    pub pcap: Option<String>,
    /// Stream a synthetic workload.
    pub synth: bool,
    /// Synthetic flow count.
    pub flows: usize,
    /// Interval bound (`None` = unbounded pcap stream).
    pub intervals: Option<usize>,
    /// Measurement interval T in seconds (`None` = source default).
    pub interval_secs: Option<u64>,
    /// First interval start for pcap streams (`None` = derive from the
    /// first packet's timestamp, floored to the interval length).
    pub start_unix: Option<u64>,
    /// Workload seed (synthetic source only).
    pub seed: u64,
    /// Text RIB dump to attribute against (`None` = synthetic table).
    pub rib: Option<String>,
    /// Timed route-update stream to replay mid-run (`None` = the table
    /// stays frozen for the whole run).
    pub rib_updates: Option<String>,
    /// Synthetic routing-table size.
    pub prefixes: usize,
    /// Detector kind: "constant-load" or "aest".
    pub detector: String,
    /// Constant-load target β.
    pub beta: f64,
    /// Threshold smoothing γ.
    pub gamma: f64,
    /// Scheme kind: "latent", "single" or "hysteresis".
    pub scheme: String,
    /// Latent-heat window.
    pub window: usize,
    /// Hysteresis enter multiplier.
    pub enter: f64,
    /// Hysteresis exit multiplier.
    pub exit: f64,
    /// Worker threads holding the open byte row (0 = serial, inline).
    pub shards: usize,
    /// State backend sealing each interval: "exact", "spacesaving",
    /// "cmrow" or "bloom".
    pub state: String,
    /// Sketch memory budget in bytes (non-exact backends).
    pub state_budget: u64,
    /// JSONL destination (`None` = stdout).
    pub out: Option<String>,
    /// Rotate the output file when it would exceed this many bytes.
    pub rotate_bytes: Option<u64>,
    /// Directory for crash-safe checkpoints (`None` = no checkpoints).
    pub checkpoint_dir: Option<String>,
    /// Checkpoint cadence in sealed intervals.
    pub checkpoint_every: usize,
    /// Continue from the checkpoint in `checkpoint_dir`.
    pub resume: bool,
    /// Fault-injection drop probability (pcap path only).
    pub fault_drop: f64,
    /// Fault-injection bit-flip probability (pcap path only).
    pub fault_corrupt: f64,
    /// Fault-injection truncation probability (pcap path only).
    pub fault_truncate: f64,
    /// Fault injector RNG seed.
    pub fault_seed: u64,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            pcap: None,
            synth: false,
            flows: 400,
            intervals: None,
            interval_secs: None,
            start_unix: None,
            seed: 7,
            rib: None,
            rib_updates: None,
            prefixes: 20_000,
            detector: "constant-load".to_string(),
            beta: PAPER_BETA,
            gamma: PAPER_GAMMA,
            scheme: "latent".to_string(),
            window: PAPER_LATENT_WINDOW,
            enter: 1.2,
            exit: 0.6,
            shards: 0,
            state: "exact".to_string(),
            state_budget: 1_048_576,
            out: None,
            rotate_bytes: None,
            checkpoint_dir: None,
            checkpoint_every: 1,
            resume: false,
            fault_drop: 0.0,
            fault_corrupt: 0.0,
            fault_truncate: 0.0,
            fault_seed: 0,
        }
    }
}

impl RunOpts {
    /// Parse `eleph run` arguments. A flag without its value, a value
    /// that does not parse, an unknown argument or name, and every
    /// combination the run would refuse are [`CliError::Usage`]s, so
    /// they are reported before any table is loaded.
    pub fn parse(args: &[String]) -> Result<RunOpts, CliError> {
        let mut o = RunOpts::default();
        let mut cadence_given = false;
        let mut args = Args::new(args);
        while let Some(flag) = args.flag() {
            match flag {
                "--pcap" => o.pcap = Some(args.value(flag, "a file")?),
                "--synth" => o.synth = true,
                "--flows" => o.flows = args.value(flag, "a count")?,
                "--intervals" => o.intervals = Some(args.value(flag, "a count")?),
                "--interval-secs" => o.interval_secs = Some(args.value(flag, "seconds")?),
                "--start-unix" => o.start_unix = Some(args.value(flag, "a timestamp")?),
                "--seed" => o.seed = args.value(flag, "an integer")?,
                "--rib" => o.rib = Some(args.value(flag, "a file")?),
                "--rib-updates" => o.rib_updates = Some(args.value(flag, "a file")?),
                "--prefixes" => o.prefixes = args.value(flag, "a count")?,
                "--detector" => o.detector = args.value(flag, "a detector name")?,
                "--beta" => o.beta = args.value(flag, "a float")?,
                "--gamma" => o.gamma = args.value(flag, "a float")?,
                "--scheme" => o.scheme = args.value(flag, "a scheme name")?,
                "--window" => o.window = args.value(flag, "a count")?,
                "--enter" => o.enter = args.value(flag, "a float")?,
                "--exit" => o.exit = args.value(flag, "a float")?,
                "--shards" => o.shards = args.value(flag, "a count")?,
                "--state" => o.state = args.value(flag, "a backend name")?,
                "--state-budget" => o.state_budget = args.value(flag, "bytes")?,
                "--out" => o.out = Some(args.value(flag, "a file")?),
                "--rotate-bytes" => o.rotate_bytes = Some(args.value(flag, "bytes")?),
                "--checkpoint-dir" => {
                    o.checkpoint_dir = Some(args.value(flag, "a directory")?)
                }
                "--checkpoint-every" => {
                    o.checkpoint_every = args.value(flag, "an interval count")?;
                    cadence_given = true;
                }
                "--resume" => o.resume = true,
                "--fault-drop" => o.fault_drop = args.value(flag, "a probability")?,
                "--fault-corrupt" => o.fault_corrupt = args.value(flag, "a probability")?,
                "--fault-truncate" => o.fault_truncate = args.value(flag, "a probability")?,
                "--fault-seed" => o.fault_seed = args.value(flag, "an integer")?,
                other => return usage(format!("unknown argument {other}")),
            }
        }
        // An unknown name or an out-of-range parameter fails here, not
        // after the table is built.
        o.make_state()?;
        o.make_detector()?;
        o.make_scheme()?;
        if o.pcap.is_some() == o.synth {
            return usage("eleph run needs exactly one of --pcap FILE or --synth");
        }
        // The library's own checks, which would otherwise panic once
        // the table is built: γ's domain and the window's nanosecond
        // bounds.
        if let Err(e) = eleph_stats::Ewma::new(o.gamma) {
            return usage(format!("--gamma {}: {e}", o.gamma));
        }
        // `--start-unix` places a capture's window; a synthetic one
        // starts where its workload does, and a capture without it at
        // its first packet, which is in range.
        let start_unix = o.start_unix.filter(|_| !o.synth);
        let secs = o.interval_secs();
        if let Err(why) = eleph_flow::try_window_bounds_ns(secs, start_unix.unwrap_or(0)) {
            let start = start_unix.map_or(String::new(), |t| format!(" --start-unix {t}"));
            return usage(format!("--interval-secs {secs}{start}: {why}"));
        }
        if o.synth && o.rib.is_none() && o.flows > o.prefixes {
            return usage(format!(
                "--flows {} --prefixes {}: each synthetic flow needs a prefix of its own",
                o.flows, o.prefixes
            ));
        }
        // A number of OS threads to spawn.
        if o.shards > MAX_WORKER_THREADS {
            return usage(format!(
                "--shards {}: at most {MAX_WORKER_THREADS} worker threads",
                o.shards
            ));
        }
        if o.resume && o.checkpoint_dir.is_none() {
            return usage("--resume needs --checkpoint-dir DIR (where the checkpoint lives)");
        }
        if o.resume && o.out.is_none() {
            return usage(
                "--resume needs --out FILE (stdout cannot be truncated to the checkpointed length)",
            );
        }
        if o.rotate_bytes.is_some() && o.out.is_none() {
            return usage("--rotate-bytes needs --out FILE");
        }
        if o.checkpoint_every == 0 {
            return usage("--checkpoint-every 0: need at least 1 sealed interval between snapshots");
        }
        if cadence_given && o.checkpoint_dir.is_none() {
            return usage("--checkpoint-every needs --checkpoint-dir DIR (where the snapshots go)");
        }
        if o.wants_faults() && o.pcap.is_none() {
            return usage("--fault-* flags apply to the pcap path only");
        }
        // The injector's own check, which would otherwise fail the run
        // once the table is built; its message names the field.
        if let Err(why) = o.fault_config().validate() {
            let flag = ["drop", "corrupt", "truncate"].into_iter().find(|f| why.starts_with(f));
            return usage(format!("--fault-{}: {why}", flag.unwrap_or("drop")));
        }
        if o.state != "exact" && o.shards > 0 {
            return usage(format!(
                "--state {} is incompatible with --shards (sketch backends run serially: \
                 a sketch summarises the whole link and has no key-partitioned halves)",
                o.state
            ));
        }
        Ok(o)
    }

    /// The configured state backend.
    pub fn make_state(&self) -> Result<StateBackendConfig, CliError> {
        let budget = usize::try_from(self.state_budget).unwrap_or(usize::MAX);
        StateBackendConfig::parse(&self.state, budget).or_else(usage)
    }

    /// The measurement interval T in seconds: `--interval-secs`, else
    /// 60 for a synthetic workload and 300 for a capture.
    pub fn interval_secs(&self) -> u64 {
        self.interval_secs.unwrap_or(if self.synth { 60 } else { 300 })
    }

    /// Whether any fault-injection probability is non-zero.
    pub fn wants_faults(&self) -> bool {
        self.fault_drop != 0.0 || self.fault_corrupt != 0.0 || self.fault_truncate != 0.0
    }

    /// The configured fault injector settings.
    pub fn fault_config(&self) -> FaultConfig {
        FaultConfig {
            drop_prob: self.fault_drop,
            corrupt_prob: self.fault_corrupt,
            truncate_prob: self.fault_truncate,
            seed: self.fault_seed,
        }
    }

    /// The configured detector, chosen at runtime.
    pub fn make_detector(&self) -> Result<Box<dyn ThresholdDetector>, CliError> {
        match self.detector.as_str() {
            "constant-load" | "cl" => {
                if !(self.beta > 0.0 && self.beta <= 1.0) {
                    return usage(format!("--beta {}: need 0 < beta <= 1", self.beta));
                }
                Ok(Box::new(ConstantLoadDetector::new(self.beta)))
            }
            "aest" => Ok(Box::new(AestDetector::new())),
            other => usage(format!("unknown detector {other}; supported: constant-load aest")),
        }
    }

    /// The configured classification scheme.
    pub fn make_scheme(&self) -> Result<Scheme, CliError> {
        let (window, enter, exit) = (self.window, self.enter, self.exit);
        match self.scheme.as_str() {
            "latent" | "latent-heat" => {
                if window == 0 {
                    return usage("--window 0: need at least 1");
                }
                Ok(Scheme::LatentHeat { window })
            }
            "single" | "single-feature" => Ok(Scheme::SingleFeature),
            "hysteresis" => {
                if !(enter >= 1.0 && (0.0..=1.0).contains(&exit)) {
                    return usage(format!(
                        "--enter {enter} --exit {exit}: need 0 <= exit <= 1 <= enter"
                    ));
                }
                Ok(Scheme::Hysteresis { enter, exit })
            }
            other => usage(format!("unknown scheme {other}; supported: latent single hysteresis")),
        }
    }
}

/// `eleph run`: wire a source into the streaming pipeline and emit
/// per-interval JSONL, with a run summary on stderr. Everything that
/// can be wrong with the command line is decided here, before
/// `stream` opens a file.
pub fn run_streaming(args: &[String]) -> Result<(), CliError> {
    let entered = std::time::Instant::now();
    let opts = RunOpts::parse(args)?;
    let builder = PipelineBuilder::new()
        .detector(opts.make_detector()?)
        .gamma(opts.gamma)
        .scheme(opts.make_scheme()?)
        .shards(opts.shards)
        .state_backend(opts.make_state()?);
    Ok(stream(&opts, builder, entered)?)
}

/// The run itself: load the table, open the source and the sinks, drive
/// the pipeline `builder` configures to the end of the stream.
fn stream(
    opts: &RunOpts,
    builder: PipelineBuilder<'_, Box<dyn ThresholdDetector>>,
    entered: std::time::Instant,
) -> io::Result<()> {
    // Every input is opened before any is read, so a path that does not
    // open fails the run, naming its flag, before any table is built.
    let pcap = open_input("--pcap", opts.pcap.as_deref())?;
    let rib = open_input("--rib", opts.rib.as_deref())?;
    let rib_updates = open_input("--rib-updates", opts.rib_updates.as_deref())?;

    // The routes the run attributes against. A capture is only
    // attributed, so its RIB dump goes from text straight into the
    // table the pipeline reads (below): no `BgpTable`, no copy
    // of any route. `--synth` generates its packets from a `BgpTable`
    // first: flow addresses are sampled from its sorted routes.
    let rib_error = |path: &str, e| io::Error::other(format!("--rib {path}: {e}"));
    let synthetic_table = || {
        eleph_bgp::synth::generate(&eleph_bgp::synth::SynthConfig {
            n_prefixes: opts.prefixes,
            ..eleph_bgp::synth::SynthConfig::default()
        })
    };
    let mut trace: Option<RateTrace> = None;
    let routes: Vec<RouteEntry> = if opts.synth {
        let table = match rib {
            Some((file, path)) => {
                eleph_bgp::dump::read_dump(file).map_err(|e| rib_error(path, e))?
            }
            None => synthetic_table(),
        };
        let config = WorkloadConfig {
            n_flows: opts.flows,
            n_intervals: opts.intervals.unwrap_or(120),
            interval_secs: opts.interval_secs(),
            ..WorkloadConfig::small_test(opts.seed)
        };
        trace = Some(RateTrace::generate(&config, &table));
        table.iter().cloned().collect()
    } else {
        match rib {
            Some((file, path)) => {
                eleph_bgp::dump::read_routes(file).map_err(|e| rib_error(path, e))?
            }
            None => {
                // Attribution is only meaningful against the table the
                // capture was generated for; be loud about the default.
                eprintln!(
                    "eleph run: no --rib given; attributing against a synthetic \
                     {}-prefix table (matches captures produced with this tool's \
                     default table only)",
                    opts.prefixes,
                );
                synthetic_table().iter().cloned().collect()
            }
        }
    };

    let updates: Vec<UpdateBatch> = match rib_updates {
        Some((file, path)) => eleph_bgp::dump::read_updates(file)
            .map_err(|e| io::Error::other(format!("--rib-updates {path}: {e}")))?,
        None => Vec::new(),
    };

    // Checkpoint/resume plumbing: the checkpoint must be loaded before
    // the sink exists, because resuming truncates the output chain to
    // exactly the checkpointed interval count (exactly-once emission).
    let mut checkpointer = match &opts.checkpoint_dir {
        Some(dir) => Some(Checkpointer::new(dir, opts.checkpoint_every)?),
        None => None,
    };
    let ckpt: Option<Checkpoint> = if opts.resume {
        let path = checkpointer.as_ref().expect("validated in parse").path();
        if path.exists() {
            let c = Checkpoint::load(path)
                .map_err(|e| io::Error::other(format!("{}: {e}", path.display())))?;
            eprintln!(
                "eleph run: resuming from {} ({} intervals sealed, {} records consumed)",
                path.display(),
                c.intervals_sealed(),
                c.offered(),
            );
            Some(c)
        } else {
            // A kill can land before the first checkpoint is written;
            // falling back to a fresh start keeps `--resume` safe to
            // use unconditionally in supervisors and retry loops.
            eprintln!(
                "eleph run: --resume but no checkpoint at {}; starting fresh",
                path.display()
            );
            None
        }
    } else {
        None
    };

    // Exactly one table is built, the one the pipeline reads, and it
    // takes the routes by value. With an update stream that table is
    // live: scheduled batches apply mid-stream without a refreeze. On
    // resume, the checkpoint's generation of batches replays onto the
    // fresh live table *before* the pipeline pins its view, so ids and
    // the config fingerprint line up exactly with the run that wrote
    // the snapshot.
    let (frozen, live);
    let mut builder = if opts.rib_updates.is_some() {
        live = LiveBgpTable::from_routes(routes);
        if let Some(c) = &ckpt {
            let done = usize::try_from(c.generation()).unwrap_or(usize::MAX);
            if done > updates.len() {
                return Err(io::Error::other(format!(
                    "checkpoint rejected: it consumed {} update batches but the --rib-updates \
                     stream holds {}",
                    c.generation(),
                    updates.len()
                )));
            }
            for batch in &updates[..done] {
                live.apply(&batch.updates);
            }
        }
        builder.live(&live).route_updates(updates)
    } else {
        frozen = FrozenBgpTable::from_routes(routes);
        builder.frozen(&frozen)
    };
    builder = match &opts.out {
        Some(path) => builder.sink(match &ckpt {
            Some(c) => RotatingJsonlSink::resume(
                path,
                opts.rotate_bytes,
                c.intervals_sealed() as u64,
            )?,
            None => RotatingJsonlSink::create(path, opts.rotate_bytes)?,
        }),
        None => builder.sink(JsonlSink::new(io::BufWriter::new(io::stdout()))),
    };

    let mut fault_stats: Option<FaultStats> = None;
    let started = std::time::Instant::now();
    let report = if let Some((file, path)) = pcap {
        // The capture is opened once (it may be a pipe): the window's
        // anchor is peeked from the source the run then reads.
        let input = format!("--pcap {path}");
        let map_src = |e: eleph_packet::PacketError| io::Error::other(format!("{input}: {e}"));
        if opts.wants_faults() {
            let injector = FaultInjector::try_new(opts.fault_config())
                .map_err(io::Error::other)?;
            let mut source = FaultedPcapSource::new(file, injector).map_err(map_src)?;
            let builder = pcap_window(opts, builder, || source.peek_header()).map_err(map_src)?;
            let report =
                drive(builder, &mut source, &input, ckpt.as_ref(), checkpointer.as_mut())?;
            fault_stats = Some(source.fault_stats());
            report
        } else {
            let mut source = PcapSource::new(file).map_err(map_src)?;
            let builder = pcap_window(opts, builder, || source.peek_header()).map_err(map_src)?;
            drive(builder, &mut source, &input, ckpt.as_ref(), checkpointer.as_mut())?
        }
    } else {
        let trace = trace.expect("generated above under --synth");
        let builder = builder
            .interval_secs(trace.config.interval_secs)
            .start_unix(trace.config.start_unix)
            .n_intervals(trace.config.n_intervals);
        let mut source = TraceSource::new(&trace);
        drive(builder, &mut source, "--synth", ckpt.as_ref(), checkpointer.as_mut())?
    };

    let setup = started.duration_since(entered).as_secs_f64();
    let elapsed = started.elapsed().as_secs_f64();
    let written = checkpointer.as_ref().map(Checkpointer::written);
    eprintln!(
        "{}",
        summary_json(opts, &report, ckpt.is_some(), written, fault_stats, setup, elapsed)
    );
    Ok(())
}

/// Build the pipeline (fresh or resumed), replay past the checkpoint's
/// consumed records, and run it to completion — the shared tail of every
/// `eleph run` source/configuration combination.
///
/// Takes the source by `&mut` so the caller keeps ownership and can read
/// source-side state (fault counters) after the run. A source that fails
/// mid-stream is named by `input` (`--pcap PATH`), as one that fails to
/// open is.
fn drive<D: ThresholdDetector, S: PacketSource>(
    builder: PipelineBuilder<'_, D>,
    source: &mut S,
    input: &str,
    ckpt: Option<&Checkpoint>,
    checkpointer: Option<&mut Checkpointer>,
) -> io::Result<PipelineReport> {
    let named = |e: PipelineError| match e {
        PipelineError::Packet(e) => io::Error::other(format!("{input}: {e}")),
        e => io::Error::other(e.to_string()),
    };
    let mut pipeline: Pipeline<'_, D> = match ckpt {
        Some(c) => builder
            .resume(c)
            .map_err(|e| io::Error::other(format!("checkpoint rejected: {e}")))?,
        None => builder.build(),
    };
    if let Some(c) = ckpt {
        // Sources replay deterministically, so skipping to the
        // checkpoint's consumed-record count (parsed + malformed, both
        // already folded into `offered`) realigns the stream with the
        // restored classifier state.
        skip_offered(&mut *source, c.offered()).map_err(named)?;
    }
    match checkpointer {
        Some(ck) => pipeline.run_checkpointed(&mut *source, ck).map_err(|e| match e {
            PipelineError::Checkpoint(_) => {
                io::Error::other(format!("{}: {e}", ck.path().display()))
            }
            e => named(e),
        }),
        None => pipeline.run(&mut *source).map_err(named),
    }?;
    pipeline.finish().map_err(named)
}

/// The end-of-run summary as one JSON line: interval/prefix counts,
/// every packet-accounting counter, the conservation verdict, the
/// far-future-streak high-water mark, start-up and streaming wall-clock
/// time, throughput, (under `--checkpoint-dir`) what this process's
/// snapshots cost — how many it wrote, the bytes the last one put on
/// disk (image and log append), the bytes all of them did (compactions
/// included) and how many compactions there were, the seconds the
/// writer thread spent building images and putting them on disk, and
/// the seconds the packet thread spent waiting for it — and
/// (when fault injection is on) the injector's counters:
/// machine-checkable run health at a glance.
fn summary_json(
    opts: &RunOpts,
    report: &PipelineReport,
    resumed: bool,
    checkpoints: Option<CheckpointsWritten>,
    fault_stats: Option<FaultStats>,
    setup_secs: f64,
    elapsed_secs: f64,
) -> String {
    let s = &report.stats;
    // Two consecutive wall-clock spans. `setup_secs` runs from entering
    // `run_streaming` until the table, the update schedule, the
    // checkpoint and the sink are ready: parsing and compiling the RIB
    // is nearly all of it. `elapsed_secs` starts there and covers
    // opening the source, building the pipeline, streaming and the
    // final seal; the rates are over `elapsed_secs` alone — bytes are
    // the *attributed* payload bytes, packets are all offered records.
    // The checkpoint encode and io seconds are the writer thread's and
    // overlap `elapsed_secs`; only `checkpoint_wait_secs`, the packet
    // thread blocked on an image in flight, is inside it for certain.
    // A capture so tiny that the elapsed time rounds to zero (or a
    // non-finite clock reading) reports rates of 0 — the summary must
    // stay strict JSON, and `inf`/`NaN` are not JSON.
    let clamp = |secs: f64| if secs.is_finite() && secs > 0.0 { secs } else { 0.0 };
    let (setup, elapsed) = (clamp(setup_secs), clamp(elapsed_secs));
    let rate = |count: f64| {
        let r = if elapsed > 0.0 { count / elapsed } else { 0.0 };
        if r.is_finite() { r } else { 0.0 }
    };
    let mut line = format!(
        "{{\"eleph_run\":{{\"intervals\":{},\"prefixes\":{},\"offered\":{},\
         \"attributed\":{},\"attributed_bytes\":{},\"unroutable\":{},\
         \"out_of_window\":{},\"malformed\":{},\"late\":{},\"conserved\":{},\
         \"far_future_streak\":{},\"generation\":{},\"route_updates\":{},\"resumed\":{},\
         \"shards\":{},\"state\":\"{}\",\"distinct_keys\":{},\"state_bytes\":{},\
         \"setup_secs\":{:.6},\"elapsed_secs\":{:.6},\"throughput_bytes_per_sec\":{:.1},\
         \"packets_per_sec\":{:.1}",
        report.intervals,
        report.keys.len(),
        s.offered,
        s.attributed,
        s.attributed_bytes,
        s.unroutable,
        s.out_of_window,
        s.malformed,
        s.late,
        s.is_conserved(),
        report.far_future_streak,
        report.generation,
        report.route_updates_applied,
        resumed,
        opts.shards,
        report.state_backend,
        report.distinct_keys,
        report.state_bytes,
        setup,
        elapsed,
        rate(s.attributed_bytes as f64),
        rate(s.offered as f64),
    );
    if let (Some(dir), Some(w)) = (&opts.checkpoint_dir, checkpoints) {
        line.push_str(&format!(
            ",\"checkpoint_dir\":{},\"checkpoint_every\":{},\"checkpoints\":{},\
             \"checkpoint_bytes\":{},\"checkpoint_total_bytes\":{},\
             \"checkpoint_compactions\":{},\"checkpoint_encode_secs\":{:.6},\
             \"checkpoint_io_secs\":{:.6},\"checkpoint_wait_secs\":{:.6}",
            json_string(dir),
            opts.checkpoint_every,
            w.images,
            w.last_bytes,
            w.total_bytes,
            w.compactions,
            clamp(w.encode_secs),
            clamp(w.io_secs),
            clamp(w.wait_secs),
        ));
    }
    if let Some(f) = fault_stats {
        line.push_str(&format!(
            ",\"fault\":{{\"seen\":{},\"dropped\":{},\"corrupted\":{},\"truncated\":{}}}",
            f.seen, f.dropped, f.corrupted, f.truncated
        ));
    }
    line.push_str("}}");
    line
}

/// `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped (Rust's `{:?}` writes `\u{1b}`, which is not JSON).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Options of `eleph churn` — a deterministic route-update stream
/// generator for exercising `eleph run --rib-updates`.
#[derive(Debug, Clone)]
pub(crate) struct ChurnOpts {
    /// Synthetic table size to sample prefixes from (must match the
    /// run's `--prefixes` for the updates to hit routed prefixes).
    pub prefixes: usize,
    /// Churn scenario seed.
    pub seed: u64,
    /// Base Unix time the scenario offsets add to.
    pub start_unix: u64,
    /// Withdraw-storm offset in seconds (relative to `start_unix`).
    pub storm_at: u64,
    /// Prefixes withdrawn by the storm (0 disables the storm).
    pub storm_count: usize,
    /// Seconds the storm's routes stay down.
    pub storm_hold: u64,
    /// First-flap offset in seconds (relative to `start_unix`).
    pub flap_start: u64,
    /// Number of flapping prefixes (0 disables flapping).
    pub flap_count: usize,
    /// Seconds between a flap's withdraw and its re-announce.
    pub flap_period: u64,
    /// Withdraw/announce cycles per flapping prefix.
    pub flap_cycles: u32,
    /// Whether the last re-announce is damped (8 × period suppression).
    pub flap_damped: bool,
    /// Update-stream destination (`None` = stdout).
    pub out: Option<String>,
}

impl Default for ChurnOpts {
    fn default() -> Self {
        ChurnOpts {
            prefixes: 20_000,
            seed: 7,
            start_unix: 0,
            storm_at: 60,
            storm_count: 16,
            storm_hold: 120,
            flap_start: 90,
            flap_count: 4,
            flap_period: 30,
            flap_cycles: 3,
            flap_damped: false,
            out: None,
        }
    }
}

impl ChurnOpts {
    /// Parse `eleph churn` arguments; what [`RunOpts::parse`] refuses
    /// in a command line, this refuses the same way.
    pub fn parse(args: &[String]) -> Result<ChurnOpts, CliError> {
        let mut o = ChurnOpts::default();
        let mut args = Args::new(args);
        while let Some(flag) = args.flag() {
            match flag {
                "--prefixes" => o.prefixes = args.value(flag, "a count")?,
                "--seed" => o.seed = args.value(flag, "an integer")?,
                "--start-unix" => o.start_unix = args.value(flag, "a timestamp")?,
                "--storm-at" => o.storm_at = args.value(flag, "seconds")?,
                "--storm-count" => o.storm_count = args.value(flag, "a count")?,
                "--storm-hold" => o.storm_hold = args.value(flag, "seconds")?,
                "--flap-start" => o.flap_start = args.value(flag, "seconds")?,
                "--flap-count" => o.flap_count = args.value(flag, "a count")?,
                "--flap-period" => o.flap_period = args.value(flag, "seconds")?,
                "--flap-cycles" => o.flap_cycles = args.value(flag, "a count")?,
                "--flap-damped" => o.flap_damped = true,
                "--out" => o.out = Some(args.value(flag, "a file")?),
                other => return usage(format!("unknown argument {other}")),
            }
        }
        if o.storm_count == 0 && o.flap_count == 0 {
            return usage(
                "eleph churn needs at least one scenario (--storm-count or --flap-count > 0)",
            );
        }
        // The last update of each scenario, in checked arithmetic: every
        // other time `generate_churn` computes is at most that one.
        let storm_end = o.start_unix.checked_add(o.storm_at);
        if o.storm_count > 0 && storm_end.and_then(|t| t.checked_add(o.storm_hold)).is_none() {
            return usage(format!(
                "--start-unix {} --storm-at {} --storm-hold {}: the storm ends past the last \
                 representable second",
                o.start_unix, o.storm_at, o.storm_hold
            ));
        }
        let cycles = u64::from(o.flap_cycles.max(1));
        let last_return = if o.flap_damped { 8 } else { 1 };
        let flap_end = o.start_unix.checked_add(o.flap_start).and_then(|t| {
            let last_down = (cycles - 1).checked_mul(2)?.checked_mul(o.flap_period)?;
            t.checked_add(last_down)?.checked_add(o.flap_period.checked_mul(last_return)?)
        });
        if o.flap_count > 0 && flap_end.is_none() {
            return usage(format!(
                "--start-unix {} --flap-start {} --flap-period {} --flap-cycles {}: the flaps end \
                 past the last representable second",
                o.start_unix, o.flap_start, o.flap_period, o.flap_cycles
            ));
        }
        Ok(o)
    }

    /// The scenario set these options describe.
    pub fn config(&self) -> ChurnConfig {
        let mut scenarios = Vec::new();
        if self.storm_count > 0 {
            scenarios.push(ChurnScenario::WithdrawReannounceStorm {
                at_unix: self.start_unix + self.storm_at,
                count: self.storm_count,
                hold_secs: self.storm_hold,
            });
        }
        if self.flap_count > 0 {
            scenarios.push(ChurnScenario::Flap {
                start_unix: self.start_unix + self.flap_start,
                count: self.flap_count,
                period_secs: self.flap_period,
                flaps: self.flap_cycles,
                damped: self.flap_damped,
            });
        }
        ChurnConfig { seed: self.seed, scenarios }
    }
}

/// `eleph churn`: sample prefixes from the same synthetic table `eleph
/// run` defaults to and write a deterministic timed update stream —
/// same options, same bytes, every time.
pub(crate) fn run_churn(args: &[String]) -> Result<(), CliError> {
    let opts = ChurnOpts::parse(args)?;
    let table = eleph_bgp::synth::generate(&eleph_bgp::synth::SynthConfig {
        n_prefixes: opts.prefixes,
        ..eleph_bgp::synth::SynthConfig::default()
    });
    let batches = generate_churn(&table, &opts.config());
    let n_updates: usize = batches.iter().map(|b| b.updates.len()).sum();
    match &opts.out {
        Some(path) => {
            let mut file = io::BufWriter::new(std::fs::File::create(path)?);
            eleph_bgp::dump::write_updates(&batches, &mut file)
                .map_err(|e| io::Error::other(e.to_string()))?;
        }
        None => {
            let stdout = io::stdout();
            let mut lock = io::BufWriter::new(stdout.lock());
            eleph_bgp::dump::write_updates(&batches, &mut lock)
                .map_err(|e| io::Error::other(e.to_string()))?;
        }
    }
    eprintln!(
        "{{\"eleph_churn\":{{\"batches\":{},\"updates\":{},\"prefixes\":{},\"seed\":{}}}}}",
        batches.len(),
        n_updates,
        opts.prefixes,
        opts.seed,
    );
    Ok(())
}

/// The input `flag` names, if given, opened for reading and paired with
/// its path; a failure says `flag path: why`.
fn open_input<'p>(
    flag: &str,
    path: Option<&'p str>,
) -> io::Result<Option<(std::fs::File, &'p str)>> {
    let Some(path) = path else { return Ok(None) };
    match std::fs::File::open(path) {
        Ok(file) => Ok(Some((file, path))),
        Err(e) => Err(io::Error::new(e.kind(), format!("{flag} {path}: {e}"))),
    }
}

/// The window of a pcap run: [`RunOpts::interval_secs`],
/// `--intervals`, and `--start-unix` or, without it, the interval start
/// of the capture's first record, whose header `first` returns as
/// captured, before any fault injection.
///
/// Real captures carry epoch timestamps, and starting at 0 would make
/// the pipeline seal decades of empty intervals before the first real
/// one. An empty capture anchors at 0, which is harmless: there are no
/// packets to seal against. The anchor is a function of the file, so a
/// resumed run re-derives it and passes the checkpoint's config
/// fingerprint check.
fn pcap_window<'t>(
    opts: &RunOpts,
    builder: PipelineBuilder<'t, Box<dyn ThresholdDetector>>,
    first: impl FnOnce() -> eleph_packet::Result<Option<RecordHeader>>,
) -> eleph_packet::Result<PipelineBuilder<'t, Box<dyn ThresholdDetector>>> {
    let interval_secs = opts.interval_secs();
    let start_unix = match opts.start_unix {
        Some(t) => t,
        None => {
            let t = first()?.map_or(0, |head| head.ts_ns / 1_000_000_000);
            let start = t / interval_secs * interval_secs;
            eprintln!(
                "eleph run: no --start-unix given; anchoring the window at \
                 {start} (first packet's interval start)"
            );
            start
        }
    };
    let builder = builder.interval_secs(interval_secs).start_unix(start_unix);
    Ok(match opts.intervals {
        Some(n) => builder.n_intervals(n),
        None => builder,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal strict JSON validator (objects, arrays, strings,
    /// numbers, booleans, null) — `inf`, `NaN`, trailing garbage and
    /// malformed literals all fail. Hand-rolled because the summary's
    /// whole bug class was "not actually JSON", so the test must not
    /// share the emitter's assumptions.
    fn parse_json(s: &str) -> Result<(), String> {
        let b = s.as_bytes();
        let mut at = 0usize;
        fn skip_ws(b: &[u8], at: &mut usize) {
            while *at < b.len() && (b[*at] as char).is_ascii_whitespace() {
                *at += 1;
            }
        }
        fn value(b: &[u8], at: &mut usize) -> Result<(), String> {
            skip_ws(b, at);
            match b.get(*at) {
                Some(b'{') => {
                    *at += 1;
                    skip_ws(b, at);
                    if b.get(*at) == Some(&b'}') {
                        *at += 1;
                        return Ok(());
                    }
                    loop {
                        skip_ws(b, at);
                        string(b, at)?;
                        skip_ws(b, at);
                        if b.get(*at) != Some(&b':') {
                            return Err(format!("expected ':' at {at}"));
                        }
                        *at += 1;
                        value(b, at)?;
                        skip_ws(b, at);
                        match b.get(*at) {
                            Some(b',') => *at += 1,
                            Some(b'}') => {
                                *at += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("expected ',' or '}}' at {at}")),
                        }
                    }
                }
                Some(b'[') => {
                    *at += 1;
                    skip_ws(b, at);
                    if b.get(*at) == Some(&b']') {
                        *at += 1;
                        return Ok(());
                    }
                    loop {
                        value(b, at)?;
                        skip_ws(b, at);
                        match b.get(*at) {
                            Some(b',') => *at += 1,
                            Some(b']') => {
                                *at += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("expected ',' or ']' at {at}")),
                        }
                    }
                }
                Some(b'"') => string(b, at),
                Some(b't') => literal(b, at, "true"),
                Some(b'f') => literal(b, at, "false"),
                Some(b'n') => literal(b, at, "null"),
                Some(c) if *c == b'-' || c.is_ascii_digit() => number(b, at),
                other => Err(format!("unexpected {other:?} at {at}")),
            }
        }
        fn string(b: &[u8], at: &mut usize) -> Result<(), String> {
            if b.get(*at) != Some(&b'"') {
                return Err(format!("expected string at {at}"));
            }
            *at += 1;
            while let Some(&c) = b.get(*at) {
                match c {
                    b'"' => {
                        *at += 1;
                        return Ok(());
                    }
                    b'\\' => match b.get(*at + 1) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *at += 2,
                        Some(b'u')
                            if b.len() >= *at + 6
                                && b[*at + 2..*at + 6].iter().all(u8::is_ascii_hexdigit) =>
                        {
                            *at += 6
                        }
                        _ => return Err(format!("bad escape at {at}")),
                    },
                    0x00..=0x1f => return Err(format!("raw control character at {at}")),
                    _ => *at += 1,
                }
            }
            Err("unterminated string".to_string())
        }
        fn literal(b: &[u8], at: &mut usize, word: &str) -> Result<(), String> {
            if b[*at..].starts_with(word.as_bytes()) {
                *at += word.len();
                Ok(())
            } else {
                Err(format!("bad literal at {at}"))
            }
        }
        fn number(b: &[u8], at: &mut usize) -> Result<(), String> {
            let start = *at;
            if b.get(*at) == Some(&b'-') {
                *at += 1;
            }
            let digits = |b: &[u8], at: &mut usize| {
                let s = *at;
                while at.checked_add(0).is_some()
                    && *at < b.len()
                    && b[*at].is_ascii_digit()
                {
                    *at += 1;
                }
                *at > s
            };
            if !digits(b, at) {
                return Err(format!("bad number at {start} (no integer digits)"));
            }
            if b.get(*at) == Some(&b'.') {
                *at += 1;
                if !digits(b, at) {
                    return Err(format!("bad number at {start} (no fraction digits)"));
                }
            }
            if matches!(b.get(*at), Some(b'e') | Some(b'E')) {
                *at += 1;
                if matches!(b.get(*at), Some(b'+') | Some(b'-')) {
                    *at += 1;
                }
                if !digits(b, at) {
                    return Err(format!("bad number at {start} (no exponent digits)"));
                }
            }
            Ok(())
        }
        value(b, &mut at)?;
        skip_ws(b, &mut at);
        if at != b.len() {
            return Err(format!("trailing garbage at {at}"));
        }
        Ok(())
    }

    fn report() -> PipelineReport {
        PipelineReport {
            stats: eleph_pipeline::PipelineStats {
                offered: 10,
                attributed: 9,
                attributed_bytes: 9_000,
                unroutable: 1,
                ..Default::default()
            },
            intervals: 2,
            keys: Vec::new(),
            far_future_streak: 0,
            generation: 0,
            route_updates_applied: 0,
            distinct_keys: 3,
            state_bytes: 1_048_576,
            state_backend: "spacesaving",
        }
    }

    #[test]
    fn summary_is_strict_json_even_at_zero_elapsed() {
        // A directory name is the one string in the summary that comes
        // from outside: quote, backslash and control characters must
        // arrive escaped as JSON, not as Rust's `{:?}` writes them.
        let opts = RunOpts {
            synth: true,
            checkpoint_dir: Some("ck\"pt\\run\u{1b}\0".to_string()),
            ..RunOpts::default()
        };
        // The regression: elapsed_secs rounding to zero used to emit
        // inf rates (and a hypothetical NaN clock must not panic or
        // leak either).
        for elapsed in [0.0, -0.0, f64::NAN, f64::INFINITY, 1.5] {
            // The set-up span is a clock reading too: same rule — and so
            // are the three checkpoint spans.
            for setup in [elapsed, 0.25] {
                let written = CheckpointsWritten {
                    images: 3,
                    last_bytes: 4_096,
                    total_bytes: 12_000,
                    compactions: 1,
                    encode_secs: elapsed,
                    io_secs: setup,
                    wait_secs: elapsed,
                };
                let line =
                    summary_json(&opts, &report(), false, Some(written), None, setup, elapsed);
                parse_json(&line)
                    .unwrap_or_else(|e| panic!("setup={setup} elapsed={elapsed}: {e}\n{line}"));
                let wait = if elapsed.is_finite() && elapsed > 0.0 { elapsed } else { 0.0 };
                assert!(
                    line.contains(&format!("\"checkpoint_wait_secs\":{wait:.6}")),
                    "setup={setup} elapsed={elapsed}: {line}"
                );
            }
        }
        let written = CheckpointsWritten {
            images: 3,
            last_bytes: 4_096,
            total_bytes: 20_480,
            compactions: 2,
            ..Default::default()
        };
        let line = summary_json(&opts, &report(), false, Some(written), None, 0.125, 0.0);
        assert!(
            line.contains(
                "\"checkpoint_dir\":\"ck\\\"pt\\\\run\\u001b\\u0000\",\"checkpoint_every\":1,\
                 \"checkpoints\":3,\"checkpoint_bytes\":4096,\"checkpoint_total_bytes\":20480,\
                 \"checkpoint_compactions\":2,\"checkpoint_encode_secs\":0.000000,\
                 \"checkpoint_io_secs\":0.000000,\"checkpoint_wait_secs\":0.000000"
            ),
            "{line}"
        );
        assert!(
            line.contains("\"setup_secs\":0.125000,\"elapsed_secs\":0.000000,"),
            "set-up time sits immediately before the elapsed time: {line}"
        );
        assert!(line.contains("\"throughput_bytes_per_sec\":0.0"));
        assert!(line.contains("\"packets_per_sec\":0.0"));
        assert!(line.contains("\"state\":\"spacesaving\""));
        assert!(line.contains("\"distinct_keys\":3"));
        assert!(line.contains("\"state_bytes\":1048576"));
        // Without --checkpoint-dir none of the nine fields appears.
        let plain = RunOpts { synth: true, ..RunOpts::default() };
        let bare = summary_json(&plain, &report(), false, None, None, 0.125, 0.0);
        assert!(!bare.contains("checkpoint"), "{bare}");
        parse_json(&bare).expect("strict JSON");
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// The usage message of a command line that must be refused.
    fn refused(line: &str) -> String {
        match dispatch(&args(line)) {
            Err(CliError::Usage(message)) => message,
            other => panic!("`eleph {line}` was not a usage error: {other:?}"),
        }
    }

    #[test]
    fn parse_common_reads_scale_and_seed() {
        assert_eq!(parse_common(&[]).unwrap(), CommonOpts::default());
        let opts = parse_common(&args("--seed 7 --scale 0.25")).unwrap();
        assert_eq!(opts, CommonOpts { scale: 0.25, seed: 7 });
        assert_eq!(parse_common(&args("--scale 1")).unwrap().scale, 1.0);
    }

    #[test]
    fn bad_experiment_options_are_usage_errors() {
        // Refused while parsing: no scenario is built for any of these.
        for (line, needle) in [
            ("fig1a --scale 0", "0 < scale <= 1"),
            ("table4 --scale 2", "0 < scale <= 1"),
            ("all --scale -0.5", "0 < scale <= 1"),
            ("all --scale nan", "0 < scale <= 1"),
            ("all --scale abc", "--scale takes a float"),
            ("all --scale", "--scale takes a float"),
            ("table1 --seed x", "--seed takes an integer"),
            ("table1 --seed -1", "--seed takes an integer"),
            ("table1 --seed", "--seed takes an integer"),
            ("fig1b --verbose", "unknown argument --verbose"),
            ("ablation --which gamma --frobnicate 3", "unknown argument --frobnicate"),
        ] {
            let message = refused(line);
            assert!(message.contains(needle), "`eleph {line}`: {message}");
        }
    }

    #[test]
    fn bad_subcommands_are_usage_errors() {
        assert!(refused("frobnicate").contains("unknown subcommand frobnicate"));
        // The ablations are spelled `ablation --which W`.
        assert!(refused("ablation_gamma").contains("unknown subcommand"));
        assert!(refused("ablation").contains("needs --which"));
        assert!(refused("ablation --scale 0.1").contains("needs --which"));
        assert!(refused("ablation --which").contains("needs --which"));
        assert!(refused("ablation --which delta").contains("unknown ablation delta"));
        match render_experiment("table9", CommonOpts::default()) {
            Err(CliError::Usage(message)) => assert!(message.contains("unknown experiment table9")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_run_options_are_usage_errors() {
        assert!(USAGE.contains(&format!("at most {MAX_WORKER_THREADS}")), "help names the bound");
        // Refused while parsing: no table is loaded for any of these.
        for (line, needle) in [
            ("run --synth --flows", "--flows takes a count"),
            ("run --synth --out", "--out takes a file"),
            ("run --synth --state-budget x", "--state-budget takes bytes, not \"x\""),
            ("run --synth --beta high", "--beta takes a float"),
            ("run --synth --intervals -3", "--intervals takes a count"),
            ("run --synth --verbose", "unknown argument --verbose"),
            ("run --synth --state bogus", "unknown state backend bogus"),
            ("run --synth --detector median", "unknown detector median"),
            ("run --synth --scheme sticky", "unknown scheme sticky"),
            ("run --synth --beta 2", "0 < beta <= 1"),
            ("run --synth --window 0", "--window 0"),
            ("run --synth --scheme hysteresis --enter 0.5", "exit <= 1 <= enter"),
            ("run --synth --state spacesaving --shards 2", "incompatible with --shards"),
            ("run --pcap c.pcap --ingest-workers 2 --fault-drop 0.1", "unknown argument --ingest-workers"),
            ("run --synth --shards 100000", "--shards 100000: at most 256 worker threads"),
            ("run --synth --shards 4294967297", "--shards 4294967297: at most 256"),
            ("run --pcap c.pcap --ingest-workers 100000", "unknown argument --ingest-workers"),
            // What the library would panic on once the table is built.
            ("run --pcap c.pcap --interval-secs 0", "--interval-secs 0: interval must be positive"),
            ("run --synth --interval-secs 0", "interval must be positive"),
            ("run --pcap c.pcap --start-unix 7 --interval-secs 0", "--start-unix 7: interval must"),
            ("run --synth --interval-secs 18446744074", "interval_secs too large"),
            ("run --pcap c.pcap --start-unix 18446744073709551615", "start_unix too large"),
            ("run --synth --gamma 1", "--gamma 1: parameter gamma = 1 out of domain"),
            ("run --synth --gamma 2", "--gamma 2: parameter gamma"),
            ("run --synth --gamma -0.5", "--gamma -0.5: parameter gamma"),
            ("run --synth --gamma NaN", "--gamma NaN: parameter gamma"),
            ("run --synth --flows 500 --prefixes 100", "--flows 500 --prefixes 100: each"),
            ("run --synth --prefixes 0", "--flows 400 --prefixes 0: each"),
            ("run --synth --fault-drop 0.1", "pcap path only"),
            ("run --pcap c.pcap --fault-drop 1.5", "--fault-drop: drop_prob must be a probability"),
            ("run --pcap c.pcap --fault-corrupt NaN", "--fault-corrupt: corrupt_prob must be"),
            ("run --pcap c.pcap --fault-truncate -1", "--fault-truncate: truncate_prob must be"),
            ("run", "exactly one of --pcap FILE or --synth"),
            ("run --synth --pcap c.pcap", "exactly one of --pcap FILE or --synth"),
            ("run --synth --resume --out o.jsonl", "--resume needs --checkpoint-dir"),
            ("run --synth --resume --checkpoint-dir d", "--resume needs --out"),
            ("run --synth --rotate-bytes 4096", "--rotate-bytes needs --out"),
            ("run --synth --checkpoint-dir d --checkpoint-every 0", "--checkpoint-every 0"),
            ("run --synth --checkpoint-every 5", "--checkpoint-every needs --checkpoint-dir"),
        ] {
            let message = refused(line);
            assert!(message.contains(needle), "`eleph {line}`: {message}");
        }
    }

    #[test]
    fn good_run_options_parse() {
        let opts = RunOpts::parse(&args(
            "--pcap c.pcap --rib c.rib --state cmrow --state-budget 4096 --scheme hysteresis \
             --enter 1.5 --exit 0.5 --detector aest --resume --checkpoint-dir d --out o.jsonl",
        ))
        .expect("a valid command line");
        assert_eq!(opts.pcap.as_deref(), Some("c.pcap"));
        assert_eq!(opts.make_state().unwrap().kind(), "cmrow");
        assert_eq!(opts.make_scheme().unwrap(), Scheme::Hysteresis { enter: 1.5, exit: 0.5 });
        assert!(opts.resume && !opts.synth);
        assert_eq!(opts.interval_secs(), 300, "a capture's default interval");
        // The edges of what the checks above refuse are accepted.
        let edges = RunOpts::parse(&args(
            "--synth --gamma 0 --flows 100 --prefixes 100 --interval-secs 18446744073",
        ))
        .expect("in range");
        assert_eq!((edges.gamma, edges.interval_secs()), (0.0, 18_446_744_073));
        // A synthetic window starts where its workload does.
        assert!(RunOpts::parse(&args("--synth --start-unix 18446744073709551615")).is_ok());
        assert!(RunOpts::parse(&args("--synth --rib c.rib --flows 500 --prefixes 100")).is_ok());
        // Built by hand, an options struct is still checked where it is used.
        let hand = RunOpts { state: "bogus".to_string(), ..RunOpts::default() };
        assert!(matches!(hand.make_state(), Err(CliError::Usage(_))));
    }

    #[test]
    fn bad_churn_options_are_usage_errors() {
        for (line, needle) in [
            ("churn --prefixes", "--prefixes takes a count"),
            ("churn --storm-at soon", "--storm-at takes seconds, not \"soon\""),
            ("churn --flap-cycles -1", "--flap-cycles takes a count"),
            ("churn --synth", "unknown argument --synth"),
            ("churn --storm-count 0 --flap-count 0", "at least one scenario"),
            ("churn --start-unix 18446744073709551615", "the storm ends past the last"),
            ("churn --storm-count 0 --start-unix 18446744073709551615", "the flaps end past"),
            ("churn --flap-period 9223372036854775807", "--flap-period 9223372036854775807"),
            ("churn --flap-damped --flap-cycles 1 --flap-period 2305843009213693952", "the flaps end"),
        ] {
            let message = refused(line);
            assert!(message.contains(needle), "`eleph {line}`: {message}");
        }
        let opts = ChurnOpts::parse(&args("--flap-damped --storm-count 0 --seed 9")).unwrap();
        assert!(opts.flap_damped && opts.storm_count == 0 && opts.seed == 9);
    }

    #[test]
    fn json_validator_rejects_non_json() {
        assert!(parse_json("{\"a\":inf}").is_err());
        assert!(parse_json("{\"a\":NaN}").is_err());
        assert!(parse_json("{\"a\":1.}").is_err());
        assert!(parse_json("{\"a\":1}x").is_err());
        // What `{:?}` makes of an escape character, and the raw byte.
        assert!(parse_json("{\"a\":\"\\u{1b}\"}").is_err());
        assert!(parse_json("{\"a\":\"\u{1b}\"}").is_err());
        assert!(parse_json("{\"a\":\"\\u001b \\\" \\\\ \\n\"}").is_ok());
        assert!(parse_json("{\"a\":{\"b\":[1,2.5,true,null,\"s\"]}}").is_ok());
    }
}
