//! One function per figure/table of the paper ([`EXPERIMENTS`] lists
//! them in the order `eleph all` runs them), each reading its
//! classifications from a [`Lab`] session.

use std::io;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::Arc;

use eleph_core::holding::{self, HoldingStats};
use eleph_core::prefix_analysis::prefix_report;
use eleph_core::{ClassificationResult, Scheme};
use eleph_stats::Summary;

use crate::emit::{fmt, write_csv, Comparison};
use crate::{DetectorKind, Lab, MatrixId, Scenario, ScenarioData, SchemeSpec};

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
    pub fn render(&self) -> String {
        let mut s = self.comparison.render(&format!("{} — {}", self.id, self.title));
        for p in &self.csv_paths {
            s.push_str(&format!("csv: {}\n", p.display()));
        }
        s
    }
}

/// An experiment: it reads what it needs from the session it is given.
pub type Experiment = fn(&Lab) -> io::Result<ExperimentOutput>;

/// Every experiment by id, in the order `eleph all` runs them.
pub const EXPERIMENTS: [(&str, Experiment); 11] = [
    ("fig1a", fig1a),
    ("fig1b", fig1b),
    ("fig1c", fig1c),
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4_in),
    ("ablation_gamma", |lab| ablation_gamma(&lab.west.0, lab)),
    ("ablation_window", |lab| ablation_window(&lab.west.0, lab)),
    ("ablation_beta", |lab| ablation_beta(&lab.west.0, lab)),
    ("ablation_scheme", |lab| ablation_scheme(&lab.west.0, lab)),
];

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
pub const FIG1_SERIES: [&str; 4] = [
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

/// The link behind entry `idx` of [`Lab::fig1_runs`].
fn fig1_link(lab: &Lab, idx: usize) -> &(Scenario, ScenarioData) {
    if idx < 2 {
        &lab.west
    } else {
        lab.east()
    }
}

/// Figure 1(a): number of elephants per interval, four series.
pub fn fig1a(lab: &Lab) -> io::Result<ExperimentOutput> {
    let runs = lab.fig1_runs();
    let n = runs[0].n_intervals();
    let rows: Vec<Vec<String>> = (0..n)
        .map(|i| {
            let mut row = vec![lab.west.0.workload.interval_label(i)];
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
            let mut row = vec![lab.west.0.workload.interval_label(i)];
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
    for (idx, result) in lab.fig1_runs().iter().enumerate() {
        let (scenario, scen_data) = fig1_link(lab, idx);
        let window = scenario.busy_window(&scen_data.matrix);
        let h = holding::analyze(result, window, scenario.workload.interval_secs);
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
        &["avg_holding_slots", "west_cl", "west_aest", "east_cl", "east_aest"],
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
    let mean_minutes =
        stats.iter().map(HoldingStats::mean_avg_minutes).sum::<f64>() / stats.len() as f64;
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
/// The four single-feature runs step over the raw thresholds Figure 1
/// already detected on both links.
pub fn table1(lab: &Lab) -> io::Result<ExperimentOutput> {
    let mut c = Comparison::new();
    let mut rows = Vec::new();
    let setups = [
        (MatrixId::West, DetectorKind::ConstantLoad),
        (MatrixId::West, DetectorKind::Aest),
        (MatrixId::East, DetectorKind::ConstantLoad),
        (MatrixId::East, DetectorKind::Aest),
    ];
    let results = lab.classify(&setups.map(|(id, detector)| (id, SchemeSpec::single(detector))));
    for (idx, (&(_, detector), result)) in setups.iter().zip(&results).enumerate() {
        let (scenario, scen_data) = fig1_link(lab, idx);
        let window = scenario.busy_window(&scen_data.matrix);
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
        &["link", "detector", "avg_holding_min", "single_interval", "mean_count", "mean_fraction"],
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
    for (idx, result) in lab.fig1_runs().iter().enumerate() {
        let (scenario, scen_data) = fig1_link(lab, idx);
        let window = scenario.busy_window(&scen_data.matrix);
        let h = holding::analyze(result, window, scenario.workload.interval_secs);
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
        &["series", "avg_holding_min", "single_interval", "mean_count", "mean_fraction"],
        &rows,
    )?;
    Ok(ExperimentOutput {
        id: "table2".to_string(),
        title: "Two-feature (latent heat) improvements (§III)".to_string(),
        comparison: c,
        csv_paths: vec![csv],
    })
}

/// T3 (§III in-text): prefix-length characteristics of elephants.
pub fn table3(lab: &Lab) -> io::Result<ExperimentOutput> {
    let scen_data = &lab.west.1;
    let [result] =
        lab.classify_on(MatrixId::West, [SchemeSpec::paper(DetectorKind::ConstantLoad)]);
    let window = 0..result.n_intervals();
    let report = prefix_report(&scen_data.matrix, &result, Some(&scen_data.table), window);

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

/// One traffic process, three discretisations — the paper's own
/// protocol: the west link at its native T = 5 min, re-measured at
/// 1 min ([`eleph_flow::BandwidthMatrix::refine_each`]) and at 30 min
/// ([`eleph_flow::BandwidthMatrix::coarsen_each`]). A fresh random
/// workload per T would mix discretisation sensitivity with realization
/// noise in the reported spread.
///
/// The 5-min point is the session's (Figure 1 has usually paid for it);
/// the other two are classified as they are walked, one interval at a
/// time, so neither re-measured matrix is ever built.
fn table4_in(lab: &Lab) -> io::Result<ExperimentOutput> {
    let spec = SchemeSpec::paper(DetectorKind::ConstantLoad);
    let west = lab.matrix(MatrixId::West);
    let native_t = west.interval_secs();
    let (fine, coarse) = ((native_t / 60) as usize, (1800 / native_t) as usize);
    let [native] = lab.classify_on(MatrixId::West, [spec]);
    let points = [
        (
            "1 min",
            native_t / fine as u64,
            Arc::new(spec.classify_stream(|row| west.refine_each(fine, lab.seed(), row))),
        ),
        ("5 min", native_t, native),
        (
            "30 min",
            native_t * coarse as u64,
            Arc::new(spec.classify_stream(|row| west.coarsen_each(coarse, row))),
        ),
    ];

    let mut c = Comparison::new();
    let mut rows = Vec::new();
    let mut fractions = Vec::new();
    for (label, t_secs, result) in &points {
        // Keep the busy period at 5 wall-clock hours. An interval's total
        // load is its matrix total, bit for bit.
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
    let spread = fractions
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max)
        - fractions.iter().cloned().fold(f64::INFINITY, f64::min);
    c.row("fraction spread across T", "small", fmt(spread));
    let csv = write_csv(
        "table4_interval_sweep",
        &["T", "mean_count", "mean_fraction", "avg_holding_min", "single_interval"],
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
    (lab.west.0.clone(), lab)
}

/// A1 (ablation): how γ affects threshold smoothness and churn.
pub fn ablation_gamma(_scenario: &Scenario, lab: &Lab) -> io::Result<ExperimentOutput> {
    let gammas = [0.0, 0.5, 0.9, 0.99];
    let paper = SchemeSpec::paper(DetectorKind::ConstantLoad);
    let results = lab.classify_on(
        MatrixId::West,
        gammas.map(|gamma| SchemeSpec { gamma, ..paper }),
    );
    let mut c = Comparison::new();
    let mut rows = Vec::new();
    for (&gamma, result) in gammas.iter().zip(&results) {
        let cv = series_cv(&result.thresholds);
        let churn: f64 = holding::churn(result).iter().map(|&x| x as f64).sum::<f64>()
            / result.n_intervals() as f64;
        c.row(
            format!("threshold CV, gamma = {gamma}"),
            if gamma == 0.9 { "paper's choice: smooth" } else { "-" },
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
        &["gamma", "threshold_cv", "mean_churn", "mean_count", "mean_fraction"],
        &rows,
    )?;
    Ok(ExperimentOutput {
        id: "ablation_gamma".to_string(),
        title: "Threshold smoothing factor sweep".to_string(),
        comparison: c,
        csv_paths: vec![csv],
    })
}

/// A2 (ablation): latent-heat window sweep.
pub fn ablation_window(scenario: &Scenario, lab: &Lab) -> io::Result<ExperimentOutput> {
    let windows = [1usize, 6, 12, 24];
    let window_range = scenario.busy_window(lab.matrix(MatrixId::West));
    let paper = SchemeSpec::paper(DetectorKind::ConstantLoad);
    let results = lab.classify_on(
        MatrixId::West,
        windows.map(|window| SchemeSpec {
            scheme: Scheme::LatentHeat { window },
            ..paper
        }),
    );
    let mut c = Comparison::new();
    let mut rows = Vec::new();
    for (&w, result) in windows.iter().zip(&results) {
        let h = holding::analyze(result, window_range.clone(), scenario.workload.interval_secs);
        c.row(
            format!("avg holding, w = {w}"),
            if w == 12 { "paper's choice (~2 h)" } else { "-" },
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
        &["window", "avg_holding_min", "single_interval", "mean_count", "mean_fraction"],
        &rows,
    )?;
    Ok(ExperimentOutput {
        id: "ablation_window".to_string(),
        title: "Latent-heat window sweep".to_string(),
        comparison: c,
        csv_paths: vec![csv],
    })
}

/// A3 (ablation): constant-load β sweep.
///
/// The detector itself changes per point, so each β is a detection pass
/// of its own (β = 0.8 being the one every other experiment shares).
pub fn ablation_beta(_scenario: &Scenario, lab: &Lab) -> io::Result<ExperimentOutput> {
    let betas = [0.5, 0.7, 0.8, 0.9];
    let paper = SchemeSpec::paper(DetectorKind::ConstantLoad);
    let results = lab.classify_on(
        MatrixId::West,
        betas.map(|beta| SchemeSpec { beta, ..paper }),
    );
    let mut c = Comparison::new();
    let mut rows = Vec::new();
    for (&beta, result) in betas.iter().zip(&results) {
        c.row(
            format!("mean fraction, beta = {beta}"),
            if beta == 0.8 { "~0.6 after latent heat" } else { "-" },
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

/// A4 (ablation, ours): latent heat vs high/low-watermark hysteresis.
///
/// The paper chose latent heat over simpler persistence mechanisms; this
/// quantifies the trade-off against the classic two-threshold scheme on
/// the same workload.
pub fn ablation_scheme(scenario: &Scenario, lab: &Lab) -> io::Result<ExperimentOutput> {
    let window_range = scenario.busy_window(lab.matrix(MatrixId::West));
    let mut c = Comparison::new();
    let mut rows = Vec::new();
    let schemes: [(&str, Scheme); 4] = [
        ("single", Scheme::SingleFeature),
        ("latent-heat w=12", Scheme::LatentHeat { window: 12 }),
        ("hysteresis 1.0/0.5", Scheme::Hysteresis { enter: 1.0, exit: 0.5 }),
        ("hysteresis 1.5/0.33", Scheme::Hysteresis { enter: 1.5, exit: 0.33 }),
    ];
    let paper = SchemeSpec::paper(DetectorKind::ConstantLoad);
    let results = lab.classify_on(
        MatrixId::West,
        schemes.map(|(_, scheme)| SchemeSpec { scheme, ..paper }),
    );
    for ((name, _), result) in schemes.iter().zip(&results) {
        let h = holding::analyze(result, window_range.clone(), scenario.workload.interval_secs);
        let churn: f64 = holding::churn(result).iter().map(|&x| x as f64).sum::<f64>()
            / result.n_intervals() as f64;
        c.row(
            format!("avg holding, {name}"),
            if name.starts_with("latent") { "paper's choice" } else { "-" },
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
        &["scheme", "avg_holding_min", "single_interval", "mean_count", "mean_fraction", "mean_churn"],
        &rows,
    )?;
    Ok(ExperimentOutput {
        id: "ablation_scheme".to_string(),
        title: "Persistence mechanism comparison (latent heat vs hysteresis)".to_string(),
        comparison: c,
        csv_paths: vec![csv],
    })
}

/// Coefficient of variation of a series (σ/μ); 0 for a flat series.
fn series_cv(values: &[f64]) -> f64 {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let s = Summary::of(&finite);
    s.cv().unwrap_or(0.0)
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
