//! `eleph sketch` — the exact-oracle accuracy harness for the sketch
//! state backends.
//!
//! One synthetic workload (the west-coast scenario's traffic shape on a
//! 10 Mb/s lab link, so the full grid runs in seconds) is streamed
//! through the pipeline once per (scheme, γ, backend) combination:
//!
//! * the **oracle** is the batch path over the identical packets —
//!   [`eleph_flow::Aggregator`] → `BandwidthMatrix` →
//!   [`eleph_core::classify`] — whose per-interval elephant sets the
//!   streaming `--state exact` run is pinned **bit-identical** to
//!   (same key ids, same elephants, same threshold bits);
//! * each sketch backend (`spacesaving`, `cmrow`, `bloom`) is scored
//!   against that oracle with [`SetAccuracy`]:
//!   recall, precision and byte coverage of the elephant set,
//!   micro-averaged over intervals;
//! * a **memory-vs-accuracy frontier** sweeps the state budget at the
//!   paper's headline combination (latent heat, γ = 0.9) and reports
//!   the smallest budget reaching recall ≥ 0.95 per backend.
//!
//! Everything is deterministic in `--seed`: same seed, same tables,
//! byte-identical stdout. A one-line machine-readable summary goes to
//! stderr (`{"eleph_sketch":{..}}`) for the CI recall gate.

use std::io::{self, Write};

use eleph_bgp::{BgpTable, FrozenBgpTable};
use eleph_core::{
    classify, ClassificationResult, ConstantLoadDetector, Scheme, StateBackendConfig, PAPER_BETA,
    PAPER_GAMMA, PAPER_LATENT_WINDOW,
};
use eleph_flow::{Aggregator, BandwidthMatrix};
use eleph_packet::PacketMeta;
use eleph_pipeline::{
    CollectedInterval, Collector, MetaSource, PacketSource, PipelineBuilder, PipelineReport,
    TraceSource,
};
use eleph_trace::{LinkSpec, RateTrace};

use crate::cli::{usage, Args, CliError};
use crate::{Scenario, SetAccuracy};

/// Budgets swept by the memory-vs-accuracy frontier, bytes.
const FRONTIER_BUDGETS: [usize; 4] = [65_536, 262_144, 1_048_576, 4_194_304];

/// The recall target the frontier reports the smallest budget for (and
/// the CI gate asserts at the default budget).
const RECALL_TARGET: f64 = 0.95;

/// Options of the `eleph sketch` subcommand.
#[derive(Debug, Clone, Copy)]
struct SketchOpts {
    seed: u64,
    scale: f64,
    intervals: usize,
    budget: usize,
}

impl Default for SketchOpts {
    fn default() -> Self {
        SketchOpts {
            seed: 42,
            scale: 0.05,
            intervals: 18,
            budget: 1_048_576,
        }
    }
}

impl SketchOpts {
    /// Parse `eleph sketch` arguments; anything but the four options
    /// with values in range is a [`CliError::Usage`].
    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut o = SketchOpts::default();
        let mut args = Args::new(args);
        while let Some(flag) = args.flag() {
            match flag {
                "--seed" => o.seed = args.value(flag, "an integer")?,
                "--scale" => o.scale = args.value(flag, "a float")?,
                "--intervals" => o.intervals = args.value(flag, "a count")?,
                "--budget" => o.budget = args.value(flag, "bytes")?,
                other => {
                    return usage(format!(
                        "unknown argument {other}; supported: --seed N --scale F --intervals N \
                         --budget BYTES"
                    ))
                }
            }
        }
        if !(o.scale > 0.0 && o.scale <= 1.0) {
            return usage(format!("--scale {}: need 0 < scale <= 1", o.scale));
        }
        if o.intervals < 2 {
            return usage(format!("--intervals {}: need at least 2", o.intervals));
        }
        Ok(o)
    }
}

/// The scheme/γ grid the accuracy table covers. Labels are stable —
/// they appear in stdout and in test expectations.
fn scheme_grid() -> Vec<(&'static str, Scheme)> {
    vec![
        ("single", Scheme::SingleFeature),
        (
            "latent",
            Scheme::LatentHeat {
                window: PAPER_LATENT_WINDOW,
            },
        ),
        (
            "hyst",
            Scheme::Hysteresis {
                enter: 1.2,
                exit: 0.6,
            },
        ),
    ]
}

const GAMMAS: [f64; 3] = [0.5, PAPER_GAMMA, 0.99];

/// The sketch backends under evaluation, by CLI name.
const SKETCHES: [&str; 3] = ["spacesaving", "cmrow", "bloom"];

/// The workload: the west-coast scenario's traffic *shape* (diurnal
/// profile, heavy-tailed flow population) on a 10 Mb/s lab link with
/// one-minute intervals, so the full grid synthesizes and classifies in
/// seconds instead of the hours an OC-12 at T = 5 min would take.
fn lab_scenario(opts: SketchOpts) -> Scenario {
    let mut scenario = Scenario::west(opts.seed).scaled(opts.scale);
    scenario.name = "west-lab-10M".to_string();
    scenario.workload.link = LinkSpec {
        name: "west lab 10 Mb/s".to_string(),
        capacity_bps: 10_000_000.0,
        target_peak_util: scenario.workload.link.target_peak_util,
    };
    scenario.workload.interval_secs = 60;
    scenario.workload.n_intervals = opts.intervals;
    scenario
}

/// Drain a [`TraceSource`] into memory so every pipeline run consumes
/// the byte-identical packet stream.
fn collect_metas(trace: &RateTrace) -> Vec<PacketMeta> {
    let mut source = TraceSource::new(trace);
    let mut metas = Vec::new();
    while source.next_chunk(&mut metas).expect("synthetic source") > 0 {}
    metas
}

/// One streaming run: the shared frozen table, the shared packet
/// stream, one (γ, scheme, backend) configuration.
#[allow(
    clippy::too_many_arguments,
    reason = "the stream and one configuration, each read once; a struct would only rename them"
)]
fn run_pipeline(
    frozen: &FrozenBgpTable,
    metas: &[PacketMeta],
    interval_secs: u64,
    start_unix: u64,
    n_intervals: usize,
    gamma: f64,
    scheme: Scheme,
    state: StateBackendConfig,
) -> (Vec<CollectedInterval>, PipelineReport) {
    let collector = Collector::new();
    let mut pipeline = PipelineBuilder::new()
        .frozen(frozen)
        .interval_secs(interval_secs)
        .start_unix(start_unix)
        .n_intervals(n_intervals)
        .detector(ConstantLoadDetector::new(PAPER_BETA))
        .gamma(gamma)
        .scheme(scheme)
        .state_backend(state)
        .sink(collector.sink())
        .build();
    pipeline
        .run(MetaSource::new(metas.to_vec()))
        .expect("in-memory source cannot fail");
    let report = pipeline.finish().expect("no sink errors");
    (collector.take(), report)
}

/// Score streamed outcomes against the oracle classification,
/// weighting byte coverage by the oracle's exact per-interval rates.
fn score(
    oracle: &ClassificationResult,
    matrix: &BandwidthMatrix,
    outcomes: &[CollectedInterval],
) -> SetAccuracy {
    assert_eq!(
        outcomes.len(),
        oracle.n_intervals(),
        "interval counts differ"
    );
    let mut acc = SetAccuracy::new();
    for (n, got) in outcomes.iter().enumerate() {
        acc.observe(&oracle.elephants[n], &got.outcome.elephants, |key| {
            matrix.rate(n, key)
        });
    }
    acc
}

/// Assert the `--state exact` streaming run is bit-identical to the
/// batch oracle: same elephants, same threshold bits, every interval.
fn assert_exact_pinned(
    oracle: &ClassificationResult,
    outcomes: &[CollectedInterval],
    context: &str,
) {
    assert_eq!(
        outcomes.len(),
        oracle.n_intervals(),
        "{context}: interval count"
    );
    for (n, got) in outcomes.iter().enumerate() {
        assert_eq!(
            got.outcome.elephants, oracle.elephants[n],
            "{context}: exact backend diverged from the batch oracle at interval {n}"
        );
        assert_eq!(
            got.outcome.threshold.to_bits(),
            oracle.thresholds[n].to_bits(),
            "{context}: exact threshold bits diverged at interval {n}"
        );
    }
}

/// Run the full harness and print the accuracy table and frontier.
pub(crate) fn run_sketch(args: &[String]) -> Result<(), CliError> {
    let opts = SketchOpts::parse(args)?;
    let scenario = lab_scenario(opts);
    let table: BgpTable = eleph_bgp::synth::generate(&scenario.table);
    let frozen = table.freeze();
    let trace = RateTrace::generate(&scenario.workload, &table);
    let metas = collect_metas(&trace);
    let interval_secs = scenario.workload.interval_secs;
    let start_unix = scenario.workload.start_unix;
    let n_intervals = scenario.workload.n_intervals;

    // Oracle: the batch path over the identical packet stream. Key ids
    // are first-seen order on both paths, so elephant id sets compare
    // directly.
    let mut agg = Aggregator::with_frozen(&frozen, interval_secs, start_unix, n_intervals);
    agg.observe_chunk(&metas);
    let (matrix, _stats) = agg.finish();

    let stdout = io::stdout();
    let mut out = stdout.lock();
    writeln!(
        out,
        "eleph sketch — sketch state backends vs the exact oracle"
    )?;
    writeln!(
        out,
        "  workload: {} (T = {interval_secs}s, {n_intervals} intervals, seed {}, scale {})",
        scenario.workload.link.name, opts.seed, opts.scale
    )?;
    writeln!(
        out,
        "  stream: {} packets, {} distinct keys; default budget {} bytes",
        metas.len(),
        matrix.n_keys(),
        opts.budget
    )?;
    writeln!(out)?;

    // ---- accuracy grid at the default budget ------------------------
    writeln!(
        out,
        "accuracy at {} bytes (micro-averaged over {} intervals)",
        opts.budget, n_intervals
    )?;
    writeln!(
        out,
        "  {:<8} {:<6} {:<12} {:>7} {:>10} {:>9}",
        "scheme", "gamma", "backend", "recall", "precision", "byte-cov"
    )?;
    let mut min_recall = f64::INFINITY;
    let mut min_precision = f64::INFINITY;
    let mut min_coverage = f64::INFINITY;
    for (scheme_label, scheme) in scheme_grid() {
        for gamma in GAMMAS {
            let oracle = classify(
                &matrix,
                ConstantLoadDetector::new(PAPER_BETA),
                gamma,
                scheme,
            );
            // Pin the exact backend against the oracle on every combo —
            // this is the harness's ground-truth check, not a benchmark
            // row.
            let (exact, report) = run_pipeline(
                &frozen,
                &metas,
                interval_secs,
                start_unix,
                n_intervals,
                gamma,
                scheme,
                StateBackendConfig::Exact,
            );
            assert_eq!(
                report.keys.len(),
                matrix.n_keys(),
                "streaming and batch key spaces diverged"
            );
            assert_exact_pinned(&oracle, &exact, &format!("{scheme_label}/γ={gamma}"));
            for backend in SKETCHES {
                let state =
                    StateBackendConfig::parse(backend, opts.budget).expect("known backend name");
                let (outcomes, _) = run_pipeline(
                    &frozen,
                    &metas,
                    interval_secs,
                    start_unix,
                    n_intervals,
                    gamma,
                    scheme,
                    state,
                );
                let acc = score(&oracle, &matrix, &outcomes);
                min_recall = min_recall.min(acc.recall());
                min_precision = min_precision.min(acc.precision());
                min_coverage = min_coverage.min(acc.byte_coverage());
                writeln!(
                    out,
                    "  {:<8} {:<6} {:<12} {:>7.3} {:>10.3} {:>9.3}",
                    scheme_label,
                    gamma,
                    backend,
                    acc.recall(),
                    acc.precision(),
                    acc.byte_coverage()
                )?;
            }
        }
    }
    writeln!(out)?;
    writeln!(
        out,
        "exact backend: bit-identical to the batch oracle on all {} scheme/γ combinations",
        scheme_grid().len() * GAMMAS.len()
    )?;
    writeln!(out)?;

    // ---- memory-vs-accuracy frontier --------------------------------
    let paper_scheme = Scheme::LatentHeat {
        window: PAPER_LATENT_WINDOW,
    };
    let oracle = classify(
        &matrix,
        ConstantLoadDetector::new(PAPER_BETA),
        PAPER_GAMMA,
        paper_scheme,
    );
    writeln!(
        out,
        "memory-vs-accuracy frontier (latent heat, γ = {PAPER_GAMMA}; recall per budget)"
    )?;
    writeln!(
        out,
        "  {:<10} {:>12} {:>12} {:>12}",
        "budget", SKETCHES[0], SKETCHES[1], SKETCHES[2]
    )?;
    // recalls[backend][budget]
    let mut recalls = vec![Vec::new(); SKETCHES.len()];
    for &budget in &FRONTIER_BUDGETS {
        let mut row = format!("  {budget:<10}");
        for (b, backend) in SKETCHES.iter().enumerate() {
            let state = StateBackendConfig::parse(backend, budget).expect("known backend name");
            let (outcomes, _) = run_pipeline(
                &frozen,
                &metas,
                interval_secs,
                start_unix,
                n_intervals,
                PAPER_GAMMA,
                paper_scheme,
                state,
            );
            let recall = score(&oracle, &matrix, &outcomes).recall();
            recalls[b].push(recall);
            row.push_str(&format!(" {recall:>12.3}"));
        }
        writeln!(out, "{row}")?;
    }
    let mut frontier_line = format!("  min budget for recall ≥ {RECALL_TARGET}:");
    for (b, backend) in SKETCHES.iter().enumerate() {
        let hit = FRONTIER_BUDGETS
            .iter()
            .zip(&recalls[b])
            .find(|&(_, &r)| r >= RECALL_TARGET);
        match hit {
            Some((&budget, _)) => frontier_line.push_str(&format!(" {backend} {budget}")),
            None => frontier_line.push_str(&format!(
                " {backend} >{}",
                FRONTIER_BUDGETS[FRONTIER_BUDGETS.len() - 1]
            )),
        }
    }
    writeln!(out, "{frontier_line}")?;
    out.flush()?;

    // Machine-readable summary for the CI gate (stderr keeps stdout
    // byte-stable for determinism diffs).
    eprintln!(
        "{{\"eleph_sketch\":{{\"seed\":{},\"scale\":{},\"intervals\":{},\"budget\":{},\
         \"packets\":{},\"distinct_keys\":{},\"combos\":{},\"exact_bit_identical\":true,\
         \"min_recall\":{:.6},\"min_precision\":{:.6},\"min_byte_coverage\":{:.6}}}}}",
        opts.seed,
        opts.scale,
        opts.intervals,
        opts.budget,
        metas.len(),
        matrix.n_keys(),
        scheme_grid().len() * GAMMAS.len() * SKETCHES.len(),
        min_recall,
        min_precision,
        min_coverage,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_scenario_is_small_and_deterministic() {
        let opts = SketchOpts::default();
        let a = lab_scenario(opts);
        let b = lab_scenario(opts);
        assert_eq!(a.workload.interval_secs, 60);
        assert_eq!(a.workload.n_intervals, 18);
        assert_eq!(a.workload.link.capacity_bps, 10_000_000.0);
        assert_eq!(a.workload.seed, b.workload.seed);
        let table = eleph_bgp::synth::generate(&a.table);
        let ta = RateTrace::generate(&a.workload, &table);
        let tb = RateTrace::generate(&b.workload, &table);
        let ma = collect_metas(&ta);
        let mb = collect_metas(&tb);
        assert_eq!(ma.len(), mb.len());
        assert!(!ma.is_empty(), "the lab workload must synthesize traffic");
    }

    #[test]
    fn opts_parse_round_trip() {
        let args: Vec<String> = [
            "--seed",
            "7",
            "--scale",
            "0.1",
            "--intervals",
            "4",
            "--budget",
            "65536",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = SketchOpts::parse(&args).expect("valid options");
        assert_eq!(o.seed, 7);
        assert_eq!(o.scale, 0.1);
        assert_eq!(o.intervals, 4);
        assert_eq!(o.budget, 65_536);
    }
}
