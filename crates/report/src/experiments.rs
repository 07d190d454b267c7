//! One function per figure/table of the paper ([`EXPERIMENTS`] lists
//! them in the order `eleph all` runs them), each reading its
//! classifications from a [`Lab`] session, beside the `Needs` that
//! declare what it reads.
//!
//! `eleph all` gathers every experiment's needs and walks each link once
//! for all of them ([`crate::cli::run_session`]); each experiment then
//! reads only finished results, a link's totals (for its busy window)
//! and, for table 3, its keys, table and ever-active keys. An experiment
//! called on its own — as the benchmark's trace calls them — asks for
//! its own needs first, and its session walks what it lacks.

use std::io;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::Arc;

use eleph_core::holding::{self, HoldingStats};
use eleph_core::prefix_analysis::prefix_report;
use eleph_core::{ClassificationResult, Scheme};

use crate::emit::{fmt, write_csv, Comparison};
use crate::lab::FIG1_JOBS;
use crate::{DetectorKind, Job, Lab, MatrixId, Measure, Need, Scenario, SchemeSpec};

/// The output of one experiment: a paper-vs-measured table plus the CSVs
/// that regenerate the figure.
#[derive(Debug)]
pub struct ExperimentOutput {
    /// Experiment id (fig1a, table2, ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Paper-vs-measured comparison.
    pub comparison: Comparison,
    /// CSV files written.
    pub csv_paths: Vec<PathBuf>,
}

impl ExperimentOutput {
    /// Render for stdout.
    pub(crate) fn render(&self) -> String {
        let mut s = self
            .comparison
            .render(&format!("{} — {}", self.id, self.title));
        for p in &self.csv_paths {
            s.push_str(&format!("csv: {}\n", p.display()));
        }
        s
    }
}

/// An experiment: it reads what it needs from the session it is given.
pub(crate) type Experiment = fn(&Lab) -> io::Result<ExperimentOutput>;

/// What an experiment reads from its session, declared before any link
/// is walked.
pub(crate) type Needs = fn(&Lab) -> Vec<Need>;

/// Every experiment by id, with its needs, in the order `eleph all`
/// runs them.
pub const EXPERIMENTS: [(&str, Needs, Experiment); 11] = [
    ("fig1a", fig1_needs, fig1a),
    ("fig1b", fig1_needs, fig1b),
    ("fig1c", fig1_needs, fig1c),
    ("table1", |_| results(&table1_jobs()), table1),
    ("table2", fig1_needs, table2),
    ("table3", |_| table3_needs(), table3),
    ("table4", |lab| results(&table4_jobs(lab)), table4_in),
    (
        "ablation_gamma",
        |_| results(&gamma_jobs()),
        |lab| ablation_gamma(lab.scenario(MatrixId::West), lab),
    ),
    (
        "ablation_window",
        |_| results(&window_jobs()),
        |lab| ablation_window(lab.scenario(MatrixId::West), lab),
    ),
    (
        "ablation_beta",
        |_| results(&beta_jobs()),
        |lab| ablation_beta(lab.scenario(MatrixId::West), lab),
    ),
    (
        "ablation_scheme",
        |_| results(&scheme_jobs()),
        |lab| ablation_scheme(lab.scenario(MatrixId::West), lab),
    ),
];

/// The needs of classification jobs.
fn results(jobs: &[Job]) -> Vec<Need> {
    jobs.iter().map(|&job| Need::Result(job)).collect()
}

/// Jobs on the west link at its own T.
fn west<const N: usize>(specs: [SchemeSpec; N]) -> [Job; N] {
    specs.map(|spec| Job::native(MatrixId::West, spec))
}

/// Table 1's four single-feature runs, on Figure 1's links and
/// detectors.
fn table1_jobs() -> [Job; 4] {
    FIG1_JOBS.map(|(id, detector)| Job::native(id, SchemeSpec::single(detector)))
}

/// Figure 1's four classifications ([`Lab::fig1_runs`]).
fn fig1_needs(_: &Lab) -> Vec<Need> {
    results(&FIG1_JOBS.map(|(id, detector)| Job::native(id, SchemeSpec::paper(detector))))
}

/// A session whose four Figure 1 classifications (2 links × 2
/// detectors, latent heat) are already computed — what the three panels
/// and tables 1–3 read. Dereferences to its [`Lab`], so `data.west` is
/// the west link and every experiment function takes `&data`.
pub struct Fig1Data {
    lab: Lab,
    /// Classifications: [west-CL, west-aest, east-CL, east-aest].
    pub runs: [Arc<ClassificationResult>; 4],
}

impl Deref for Fig1Data {
    type Target = Lab;

    fn deref(&self) -> &Lab {
        &self.lab
    }
}

/// Column labels matching [`Lab::fig1_runs`] order.
const FIG1_SERIES: [&str; 4] = [
    "constant load (west coast)",
    "aest (west coast)",
    "constant load (east coast)",
    "aest (east coast)",
];

/// Build the Figure 1 dataset at the given scale.
pub fn fig1_data(scale: f64, seed: u64) -> Fig1Data {
    let lab = Lab::new(scale, seed);
    let runs = lab.fig1_runs();
    Fig1Data { lab, runs }
}

/// Figure 1(a): number of elephants per interval, four series.
pub fn fig1a(lab: &Lab) -> io::Result<ExperimentOutput> {
    let runs = lab.fig1_runs();
    let n = runs[0].n_intervals();
    let rows: Vec<Vec<String>> = (0..n)
        .map(|i| {
            let mut row = vec![lab.scenario(MatrixId::West).workload.interval_label(i)];
            row.extend(runs.iter().map(|r| r.count(i).to_string()));
            row
        })
        .collect();
    let csv = write_csv(
        "fig1a_elephant_counts",
        &["local_time", "west_cl", "west_aest", "east_cl", "east_aest"],
        &rows,
    )?;

    // Paper claims: avg ≈ 600 (west), ≈ 500 (east); west series bursts
    // during working hours while east is smooth.
    let mut c = Comparison::new();
    let west_avg = (runs[0].mean_count() + runs[1].mean_count()) / 2.0;
    let east_avg = (runs[2].mean_count() + runs[3].mean_count()) / 2.0;
    c.row("avg elephants, west", "~600", fmt(west_avg));
    c.row("avg elephants, east", "~500", fmt(east_avg));
    c.row(
        "west burst (peak/trough of count)",
        "pronounced (>1.5x)",
        fmt(count_peak_to_trough(&runs[0])),
    );
    c.row(
        "east burst (peak/trough of count)",
        "smooth (< west)",
        fmt(count_peak_to_trough(&runs[2])),
    );
    Ok(ExperimentOutput {
        id: "fig1a".to_string(),
        title: "Number of elephants per interval".to_string(),
        comparison: c,
        csv_paths: vec![csv],
    })
}

/// Figure 1(b): fraction of total traffic apportioned to elephants.
pub fn fig1b(lab: &Lab) -> io::Result<ExperimentOutput> {
    let runs = lab.fig1_runs();
    let n = runs[0].n_intervals();
    let rows: Vec<Vec<String>> = (0..n)
        .map(|i| {
            let mut row = vec![lab.scenario(MatrixId::West).workload.interval_label(i)];
            row.extend(runs.iter().map(|r| format!("{:.4}", r.fraction(i))));
            row
        })
        .collect();
    let csv = write_csv(
        "fig1b_elephant_fraction",
        &["local_time", "west_cl", "west_aest", "east_cl", "east_aest"],
        &rows,
    )?;

    let mut c = Comparison::new();
    for (label, r) in FIG1_SERIES.iter().zip(&runs) {
        c.row(
            format!("mean fraction, {label}"),
            "~0.6 (below the 0.8 target)",
            fmt(r.mean_fraction()),
        );
    }
    // Fluctuation: the paper notes the fraction fluctuates less than the
    // counts.
    let frac_cv = series_cv(&(0..n).map(|i| runs[0].fraction(i)).collect::<Vec<_>>());
    let count_cv = series_cv(&(0..n).map(|i| runs[0].count(i) as f64).collect::<Vec<_>>());
    c.row(
        "fraction CV vs count CV (west CL)",
        "fraction steadier",
        format!("{} vs {}", fmt(frac_cv), fmt(count_cv)),
    );
    Ok(ExperimentOutput {
        id: "fig1b".to_string(),
        title: "Fraction of traffic apportioned to elephants".to_string(),
        comparison: c,
        csv_paths: vec![csv],
    })
}

/// Figure 1(c): histogram of average holding times in the elephant state
/// during the busy period (log counts).
pub fn fig1c(lab: &Lab) -> io::Result<ExperimentOutput> {
    let max_slots = 60usize;
    let mut hists: Vec<Vec<u64>> = Vec::new();
    let mut stats: Vec<HoldingStats> = Vec::new();
    for (&(link, _), result) in FIG1_JOBS.iter().zip(&lab.fig1_runs()) {
        let window = lab.busy_window(link);
        let h = holding::analyze(result, window, lab.scenario(link).workload.interval_secs);
        hists.push(h.avg_holding_histogram(max_slots));
        stats.push(h);
    }
    let rows: Vec<Vec<String>> = (1..=max_slots)
        .map(|slot| {
            let mut row = vec![slot.to_string()];
            row.extend(hists.iter().map(|h| h[slot].to_string()));
            row
        })
        .collect();
    let csv = write_csv(
        "fig1c_holding_histogram",
        &[
            "avg_holding_slots",
            "west_cl",
            "west_aest",
            "east_cl",
            "east_aest",
        ],
        &rows,
    )?;

    let mut c = Comparison::new();
    for (label, h) in FIG1_SERIES.iter().zip(&stats) {
        c.row(
            format!("single-interval elephants, {label}"),
            "~50",
            h.single_interval_flows.to_string(),
        );
    }
    let mean_minutes = stats
        .iter()
        .map(HoldingStats::mean_avg_minutes)
        .sum::<f64>()
        / stats.len() as f64;
    c.row(
        "avg holding time (all series)",
        "~2 hours",
        format!("{} min", fmt(mean_minutes)),
    );
    Ok(ExperimentOutput {
        id: "fig1c".to_string(),
        title: "Average holding times in the elephant state".to_string(),
        comparison: c,
        csv_paths: vec![csv],
    })
}

/// T1 (§II in-text): single-feature classification is volatile.
///
/// The four single-feature runs of Figure 1's links and detectors; in
/// `eleph all` they step on the same walks as Figure 1's.
pub fn table1(lab: &Lab) -> io::Result<ExperimentOutput> {
    let mut c = Comparison::new();
    let mut rows = Vec::new();
    let results = lab.results(&table1_jobs());
    for (&(link, detector), result) in FIG1_JOBS.iter().zip(&results) {
        let scenario = lab.scenario(link);
        let window = lab.busy_window(link);
        let h = holding::analyze(result, window, scenario.workload.interval_secs);
        let label = format!("{} / {}", scenario.name, detector.label());
        c.row(
            format!("avg holding time, {label}"),
            "20-40 min",
            format!("{} min", fmt(h.mean_avg_minutes())),
        );
        c.row(
            format!("single-interval elephants, {label}"),
            "> 1000",
            h.single_interval_flows.to_string(),
        );
        rows.push(vec![
            scenario.name.clone(),
            detector.label().to_string(),
            fmt(h.mean_avg_minutes()),
            h.single_interval_flows.to_string(),
            fmt(result.mean_count()),
            fmt(result.mean_fraction()),
        ]);
    }
    let csv = write_csv(
        "table1_single_feature",
        &[
            "link",
            "detector",
            "avg_holding_min",
            "single_interval",
            "mean_count",
            "mean_fraction",
        ],
        &rows,
    )?;
    Ok(ExperimentOutput {
        id: "table1".to_string(),
        title: "Single-feature volatility (§II)".to_string(),
        comparison: c,
        csv_paths: vec![csv],
    })
}

/// T2 (§III in-text): the latent-heat scheme's improvements.
pub fn table2(lab: &Lab) -> io::Result<ExperimentOutput> {
    let mut c = Comparison::new();
    let mut rows = Vec::new();
    for (idx, (&(link, _), result)) in FIG1_JOBS.iter().zip(&lab.fig1_runs()).enumerate() {
        let window = lab.busy_window(link);
        let h = holding::analyze(result, window, lab.scenario(link).workload.interval_secs);
        let label = FIG1_SERIES[idx];
        c.row(
            format!("avg holding, {label}"),
            "~2 h",
            format!("{} min", fmt(h.mean_avg_minutes())),
        );
        c.row(
            format!("single-interval, {label}"),
            "~50",
            h.single_interval_flows.to_string(),
        );
        c.row(
            format!("mean elephants, {label}"),
            if idx < 2 { "~600" } else { "~500" },
            fmt(result.mean_count()),
        );
        c.row(
            format!("mean load fraction, {label}"),
            "~0.6",
            fmt(result.mean_fraction()),
        );
        rows.push(vec![
            label.to_string(),
            fmt(h.mean_avg_minutes()),
            h.single_interval_flows.to_string(),
            fmt(result.mean_count()),
            fmt(result.mean_fraction()),
        ]);
    }
    let csv = write_csv(
        "table2_latent_heat",
        &[
            "series",
            "avg_holding_min",
            "single_interval",
            "mean_count",
            "mean_fraction",
        ],
        &rows,
    )?;
    Ok(ExperimentOutput {
        id: "table2".to_string(),
        title: "Two-feature (latent heat) improvements (§III)".to_string(),
        comparison: c,
        csv_paths: vec![csv],
    })
}

/// Table 3's one classification: Figure 1's west constant-load run.
fn table3_job() -> Job {
    Job::native(
        MatrixId::West,
        SchemeSpec::paper(DetectorKind::ConstantLoad),
    )
}

/// Table 3's classification and the west link's ever-active keys.
fn table3_needs() -> Vec<Need> {
    vec![Need::Result(table3_job()), Need::EverActive(MatrixId::West)]
}

/// T3 (§III in-text): prefix-length characteristics of elephants, over
/// the whole run.
pub fn table3(lab: &Lab) -> io::Result<ExperimentOutput> {
    lab.prepare(&table3_needs());
    let [result]: [_; 1] = lab.results(&[table3_job()]).try_into().expect("one job");
    let ever_active = lab.ever_active(MatrixId::West);
    let link = lab.link(MatrixId::West);
    let report = prefix_report(&link.keys, &ever_active, &result, Some(&link.table));

    let mut c = Comparison::new();
    // The paper states the bulk range (/12-/26) and separately that three
    // /8s made it into the elephant class; report the bulk range over
    // lengths >= /9 and the /8s on their own row.
    let bulk: Vec<u8> = (9..33)
        .filter(|&l| report.elephant_by_length[l as usize] > 0)
        .collect();
    let range = match (bulk.first(), bulk.last()) {
        (Some(a), Some(b)) => format!("/{a}-/{b}"),
        _ => "none".to_string(),
    };
    c.row("elephant prefix lengths (bulk)", "/12-/26", range);
    c.row(
        "active /8 networks",
        "~100",
        report.active_slash8.to_string(),
    );
    c.row(
        "elephant /8 networks",
        "3",
        report.elephant_slash8.to_string(),
    );
    if let Some([t1, t2, stub]) = report.elephant_peer_classes {
        c.row(
            "elephant peer classes (T1/T2/stub)",
            "mostly other Tier-1",
            format!("{t1}/{t2}/{stub}"),
        );
    }
    let rows: Vec<Vec<String>> = (0..33)
        .filter(|&l| report.active_by_length[l] > 0 || report.elephant_by_length[l] > 0)
        .map(|l| {
            vec![
                format!("/{l}"),
                report.active_by_length[l].to_string(),
                report.elephant_by_length[l].to_string(),
            ]
        })
        .collect();
    let csv = write_csv(
        "table3_prefix_lengths",
        &["length", "active", "elephants"],
        &rows,
    )?;
    Ok(ExperimentOutput {
        id: "table3".to_string(),
        title: "Prefix-length analysis (§III)".to_string(),
        comparison: c,
        csv_paths: vec![csv],
    })
}

/// T4 (§II in-text): robustness to the measurement interval T, on a
/// session of its own.
pub fn table4(scale: f64, seed: u64) -> io::Result<ExperimentOutput> {
    table4_in(&Lab::new(scale, seed))
}

/// Table 4's three points of the west link, finest first, with their
/// T in seconds: 1 min, the native 5 min and 30 min, all under the
/// paper's constant-load configuration.
fn table4_points(lab: &Lab) -> [(&'static str, u64, Job); 3] {
    let spec = SchemeSpec::paper(DetectorKind::ConstantLoad);
    let native_t = lab.scenario(MatrixId::West).workload.interval_secs;
    let (fine, coarse) = ((native_t / 60) as usize, (1800 / native_t) as usize);
    [
        ("1 min", native_t / fine as u64, Measure::Refined(fine)),
        ("5 min", native_t, Measure::Native),
        (
            "30 min",
            native_t * coarse as u64,
            Measure::Coarsened(coarse),
        ),
    ]
    .map(|(label, t_secs, measure)| {
        (
            label,
            t_secs,
            Job {
                link: MatrixId::West,
                measure,
                spec,
            },
        )
    })
}

/// Table 4's three classifications.
fn table4_jobs(lab: &Lab) -> [Job; 3] {
    table4_points(lab).map(|(_, _, job)| job)
}

/// One traffic process, three discretisations — the paper's own
/// protocol: the west link at its native T = 5 min, re-measured at
/// 1 min ([`eleph_flow::Refine`]) and at 30 min
/// ([`eleph_flow::Coarsen`]). A fresh random workload per T would mix
/// discretisation sensitivity with realization noise in the reported
/// spread.
///
/// The 5-min point is Figure 1's west constant-load run; the other two
/// are classified on the same walk of the link, each re-measured row as
/// it is produced, so no measurement of the link is ever held whole.
fn table4_in(lab: &Lab) -> io::Result<ExperimentOutput> {
    let results = lab.results(&table4_jobs(lab));
    let mut c = Comparison::new();
    let mut rows = Vec::new();
    let mut fractions = Vec::new();
    for ((label, t_secs, _), result) in table4_points(lab).iter().zip(&results) {
        // Keep the busy period at 5 wall-clock hours. An interval's total
        // load is its rates folded in key order, as a matrix's is.
        let busy_slots = (5 * 3600 / t_secs) as usize;
        let window =
            eleph_flow::busiest_window(&result.total_load, busy_slots.min(result.n_intervals()))
                .expect("window fits");
        let h = holding::analyze(result, window, *t_secs);
        c.row(
            format!("mean load fraction, T = {label}"),
            "similar across T",
            fmt(result.mean_fraction()),
        );
        fractions.push(result.mean_fraction());
        rows.push(vec![
            label.to_string(),
            fmt(result.mean_count()),
            fmt(result.mean_fraction()),
            fmt(h.mean_avg_minutes()),
            h.single_interval_flows.to_string(),
        ]);
    }
    let spread = fractions.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - fractions.iter().cloned().fold(f64::INFINITY, f64::min);
    c.row("fraction spread across T", "small", fmt(spread));
    let csv = write_csv(
        "table4_interval_sweep",
        &[
            "T",
            "mean_count",
            "mean_fraction",
            "avg_holding_min",
            "single_interval",
        ],
        &rows,
    )?;
    Ok(ExperimentOutput {
        id: "table4".to_string(),
        title: "Sensitivity to measurement interval T (§II)".to_string(),
        comparison: c,
        csv_paths: vec![csv],
    })
}

/// A session for the sweep experiments, with its west scenario: the
/// four ablations share its one build, its constant-load detection and
/// every configuration two of them have in common.
pub fn west_lab(scale: f64, seed: u64) -> (Scenario, Lab) {
    let lab = Lab::new(scale, seed);
    (lab.scenario(MatrixId::West).clone(), lab)
}

/// A1's smoothing factors.
const GAMMAS: [f64; 4] = [0.0, 0.5, 0.9, 0.99];

/// A1's classifications: the paper's west configuration at each γ.
fn gamma_jobs() -> [Job; 4] {
    let paper = SchemeSpec::paper(DetectorKind::ConstantLoad);
    west(GAMMAS.map(|gamma| SchemeSpec { gamma, ..paper }))
}

/// A1 (ablation): how γ affects threshold smoothness and churn.
pub fn ablation_gamma(_scenario: &Scenario, lab: &Lab) -> io::Result<ExperimentOutput> {
    let results = lab.results(&gamma_jobs());
    let mut c = Comparison::new();
    let mut rows = Vec::new();
    for (&gamma, result) in GAMMAS.iter().zip(&results) {
        let cv = series_cv(&result.thresholds);
        let churn: f64 = holding::churn(result)
            .iter()
            .map(|&x| x as f64)
            .sum::<f64>()
            / result.n_intervals() as f64;
        c.row(
            format!("threshold CV, gamma = {gamma}"),
            if gamma == 0.9 {
                "paper's choice: smooth"
            } else {
                "-"
            },
            fmt(cv),
        );
        rows.push(vec![
            gamma.to_string(),
            fmt(cv),
            fmt(churn),
            fmt(result.mean_count()),
            fmt(result.mean_fraction()),
        ]);
    }
    let csv = write_csv(
        "ablation_gamma",
        &[
            "gamma",
            "threshold_cv",
            "mean_churn",
            "mean_count",
            "mean_fraction",
        ],
        &rows,
    )?;
    Ok(ExperimentOutput {
        id: "ablation_gamma".to_string(),
        title: "Threshold smoothing factor sweep".to_string(),
        comparison: c,
        csv_paths: vec![csv],
    })
}

/// A2's latent-heat windows.
const WINDOWS: [usize; 4] = [1, 6, 12, 24];

/// A2's classifications: the paper's west configuration at each window.
fn window_jobs() -> [Job; 4] {
    let paper = SchemeSpec::paper(DetectorKind::ConstantLoad);
    west(WINDOWS.map(|window| SchemeSpec {
        scheme: Scheme::LatentHeat { window },
        ..paper
    }))
}

/// A2 (ablation): latent-heat window sweep.
pub fn ablation_window(scenario: &Scenario, lab: &Lab) -> io::Result<ExperimentOutput> {
    let results = lab.results(&window_jobs());
    let window_range = scenario.busy_window(&lab.link(MatrixId::West).totals);
    let mut c = Comparison::new();
    let mut rows = Vec::new();
    for (&w, result) in WINDOWS.iter().zip(&results) {
        let h = holding::analyze(
            result,
            window_range.clone(),
            scenario.workload.interval_secs,
        );
        c.row(
            format!("avg holding, w = {w}"),
            if w == 12 {
                "paper's choice (~2 h)"
            } else {
                "-"
            },
            format!("{} min", fmt(h.mean_avg_minutes())),
        );
        rows.push(vec![
            w.to_string(),
            fmt(h.mean_avg_minutes()),
            h.single_interval_flows.to_string(),
            fmt(result.mean_count()),
            fmt(result.mean_fraction()),
        ]);
    }
    let csv = write_csv(
        "ablation_window",
        &[
            "window",
            "avg_holding_min",
            "single_interval",
            "mean_count",
            "mean_fraction",
        ],
        &rows,
    )?;
    Ok(ExperimentOutput {
        id: "ablation_window".to_string(),
        title: "Latent-heat window sweep".to_string(),
        comparison: c,
        csv_paths: vec![csv],
    })
}

/// A3's constant-load targets.
const BETAS: [f64; 4] = [0.5, 0.7, 0.8, 0.9];

/// A3's classifications: the paper's west configuration at each β.
fn beta_jobs() -> [Job; 4] {
    let paper = SchemeSpec::paper(DetectorKind::ConstantLoad);
    west(BETAS.map(|beta| SchemeSpec { beta, ..paper }))
}

/// A3 (ablation): constant-load β sweep.
///
/// The detector itself changes per point, so each β is a detection pass
/// of its own (β = 0.8 being the one every other experiment shares).
pub fn ablation_beta(_scenario: &Scenario, lab: &Lab) -> io::Result<ExperimentOutput> {
    let results = lab.results(&beta_jobs());
    let mut c = Comparison::new();
    let mut rows = Vec::new();
    for (&beta, result) in BETAS.iter().zip(&results) {
        c.row(
            format!("mean fraction, beta = {beta}"),
            if beta == 0.8 {
                "~0.6 after latent heat"
            } else {
                "-"
            },
            fmt(result.mean_fraction()),
        );
        rows.push(vec![
            beta.to_string(),
            fmt(result.mean_count()),
            fmt(result.mean_fraction()),
        ]);
    }
    let csv = write_csv(
        "ablation_beta",
        &["beta", "mean_count", "mean_fraction"],
        &rows,
    )?;
    Ok(ExperimentOutput {
        id: "ablation_beta".to_string(),
        title: "Constant-load target sweep".to_string(),
        comparison: c,
        csv_paths: vec![csv],
    })
}

/// A4's persistence mechanisms, by name.
const SCHEMES: [(&str, Scheme); 4] = [
    ("single", Scheme::SingleFeature),
    ("latent-heat w=12", Scheme::LatentHeat { window: 12 }),
    (
        "hysteresis 1.0/0.5",
        Scheme::Hysteresis {
            enter: 1.0,
            exit: 0.5,
        },
    ),
    (
        "hysteresis 1.5/0.33",
        Scheme::Hysteresis {
            enter: 1.5,
            exit: 0.33,
        },
    ),
];

/// A4's classifications: the paper's west configuration under each
/// mechanism.
fn scheme_jobs() -> [Job; 4] {
    let paper = SchemeSpec::paper(DetectorKind::ConstantLoad);
    west(SCHEMES.map(|(_, scheme)| SchemeSpec { scheme, ..paper }))
}

/// A4 (ablation, ours): latent heat vs high/low-watermark hysteresis.
///
/// The paper chose latent heat over simpler persistence mechanisms; this
/// quantifies the trade-off against the classic two-threshold scheme on
/// the same workload.
pub fn ablation_scheme(scenario: &Scenario, lab: &Lab) -> io::Result<ExperimentOutput> {
    let results = lab.results(&scheme_jobs());
    let window_range = scenario.busy_window(&lab.link(MatrixId::West).totals);
    let mut c = Comparison::new();
    let mut rows = Vec::new();
    for ((name, _), result) in SCHEMES.iter().zip(&results) {
        let h = holding::analyze(
            result,
            window_range.clone(),
            scenario.workload.interval_secs,
        );
        let churn: f64 = holding::churn(result)
            .iter()
            .map(|&x| x as f64)
            .sum::<f64>()
            / result.n_intervals() as f64;
        c.row(
            format!("avg holding, {name}"),
            if name.starts_with("latent") {
                "paper's choice"
            } else {
                "-"
            },
            format!("{} min", fmt(h.mean_avg_minutes())),
        );
        rows.push(vec![
            name.to_string(),
            fmt(h.mean_avg_minutes()),
            h.single_interval_flows.to_string(),
            fmt(result.mean_count()),
            fmt(result.mean_fraction()),
            fmt(churn),
        ]);
    }
    let csv = write_csv(
        "ablation_scheme",
        &[
            "scheme",
            "avg_holding_min",
            "single_interval",
            "mean_count",
            "mean_fraction",
            "mean_churn",
        ],
        &rows,
    )?;
    Ok(ExperimentOutput {
        id: "ablation_scheme".to_string(),
        title: "Persistence mechanism comparison (latent heat vs hysteresis)".to_string(),
        comparison: c,
        csv_paths: vec![csv],
    })
}

/// Coefficient of variation of a series' finite values (σ/μ, the
/// population σ); 0 when their mean is zero.
fn series_cv(values: &[f64]) -> f64 {
    // Welford's running mean and sum of squared deviations.
    let (mut n, mut mean, mut m2) = (0u64, 0.0, 0.0);
    for &x in values.iter().filter(|v| v.is_finite()) {
        n += 1;
        let delta = x - mean;
        mean += delta / n as f64;
        m2 += delta * (x - mean);
    }
    if mean.abs() < f64::EPSILON {
        return 0.0;
    }
    let variance = if n < 2 { 0.0 } else { m2 / n as f64 };
    variance.sqrt() / mean
}

/// Ratio of the busiest to the quietest smoothed elephant count.
fn count_peak_to_trough(result: &ClassificationResult) -> f64 {
    // Smooth with a 6-slot moving average to avoid division by a single
    // quiet interval.
    let counts: Vec<f64> = (0..result.n_intervals())
        .map(|n| result.count(n) as f64)
        .collect();
    let w = 6usize.min(counts.len().max(1));
    let smoothed: Vec<f64> = counts
        .windows(w)
        .map(|win| win.iter().sum::<f64>() / w as f64)
        .collect();
    let max = smoothed.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = smoothed.iter().cloned().fold(f64::INFINITY, f64::min);
    if min <= 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::series_cv;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn series_cv_of_no_finite_values_is_zero() {
        assert_eq!(series_cv(&[]), 0.0);
        assert_eq!(series_cv(&[f64::INFINITY, f64::NAN]), 0.0);
        assert_eq!(series_cv(&[0.0, 0.0, f64::INFINITY]), 0.0);
    }

    #[test]
    fn series_cv_of_one_value_is_zero() {
        assert_eq!(series_cv(&[3.5]), 0.0);
        assert_eq!(series_cv(&[3.5, f64::INFINITY]), 0.0);
    }

    #[test]
    fn series_cv_is_the_population_cv_of_the_finite_values() {
        // The classic example: μ = 5, σ = 2.
        assert!(close(
            series_cv(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]),
            0.4
        ));
        let classic = [
            2.0,
            4.0,
            4.0,
            4.0,
            5.0,
            5.0,
            7.0,
            9.0,
            f64::INFINITY,
            f64::NAN,
        ];
        assert!(close(series_cv(&classic), 0.4));
    }

    #[test]
    fn series_cv_is_stable_for_large_offsets() {
        // Welford keeps the variance (22.5) under a large common offset.
        let offset = [1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0];
        assert!(close(series_cv(&offset) * (1e9 + 10.0), 22.5f64.sqrt()));
    }
}
