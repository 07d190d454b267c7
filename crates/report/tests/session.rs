//! Sharing in the experiment session, pinned as a property and as
//! counts rather than as a timing: running all eleven experiments in
//! one session prints and writes exactly what eleven sessions of one
//! experiment do, while generating each link once and detecting and
//! classifying each distinct thing once.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use eleph_report::cli::{render_all, render_experiment, run_session, CommonOpts};
use eleph_report::experiments::EXPERIMENTS;
use eleph_report::{DetectorKind, Lab, LabCounters, MatrixId, Scenario, SchemeSpec};

/// Every session writes its CSVs to the same paths, and the tests of
/// one binary run on parallel threads: one session at a time.
fn csv_dir() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The CSVs a rendered report says it wrote, with their current bytes.
fn csvs(rendered: &str) -> Vec<(PathBuf, Vec<u8>)> {
    rendered
        .lines()
        .filter_map(|line| line.strip_prefix("csv: "))
        .map(|path| {
            (
                PathBuf::from(path),
                std::fs::read(path).expect("csv exists"),
            )
        })
        .collect()
}

#[test]
fn all_equals_the_eleven_experiments_run_alone() {
    let _guard = csv_dir();
    for seed in [3, 20020911] {
        let opts = CommonOpts { scale: 0.02, seed };
        let all = render_all(opts).expect("all runs");
        let all_csvs = csvs(&all);
        assert_eq!(all_csvs.len(), EXPERIMENTS.len(), "one CSV per experiment");

        let mut alone = String::new();
        let mut alone_csvs = Vec::new();
        for (id, _, _) in EXPERIMENTS {
            let rendered = render_experiment(id, opts).expect("experiment runs");
            alone_csvs.extend(csvs(&rendered));
            alone.push_str(&rendered);
            alone.push('\n');
        }
        assert_eq!(all, alone, "seed {seed}: stdout differs");
        assert_eq!(all_csvs, alone_csvs, "seed {seed}: a CSV differs");
    }
}

/// `eleph all` at `--scale 0.05`, against the length and CRC-32 of each
/// output it left behind before matrices were built in place: stdout
/// without its `csv:` lines (they name a path under the working
/// directory), then each CSV in the order the report names them. A
/// change in how a matrix, a threshold or a table is computed shows
/// here even when the eleven-experiments property still holds.
#[test]
fn all_output_equals_its_recorded_length_and_crc() {
    /// An output's name, length and CRC-32.
    type Output = (&'static str, usize, u32);
    const RECORDED: [(u64, [Output; 12]); 2] = [
        (
            3,
            [
                ("stdout", 8224, 0x9923_226b),
                ("fig1a_elephant_counts.csv", 6053, 0xade9_47f4),
                ("fig1b_elephant_fraction.csv", 11471, 0x6cc8_10de),
                ("fig1c_holding_histogram.csv", 711, 0x4f73_2cd7),
                ("table1_single_feature.csv", 217, 0x5897_da41),
                ("table2_latent_heat.csv", 226, 0xac79_e661),
                ("table3_prefix_lengths.csv", 175, 0x2b0f_176a),
                ("table4_interval_sweep.csv", 135, 0x8ff0_ca73),
                ("ablation_gamma.csv", 160, 0x59e6_4689),
                ("ablation_window.csv", 152, 0x5d25_a45a),
                ("ablation_beta.csv", 93, 0xe254_43e4),
                ("ablation_scheme.csv", 245, 0x58ba_3b1f),
            ],
        ),
        (
            20020911,
            [
                ("stdout", 8244, 0xddd8_3f1b),
                ("fig1a_elephant_counts.csv", 6083, 0xb032_0ea2),
                ("fig1b_elephant_fraction.csv", 11471, 0xd56f_366b),
                ("fig1c_holding_histogram.csv", 712, 0x0be7_4b95),
                ("table1_single_feature.csv", 217, 0xdf3d_c2f7),
                ("table2_latent_heat.csv", 228, 0xe408_1458),
                ("table3_prefix_lengths.csv", 165, 0x92f3_0ca0),
                ("table4_interval_sweep.csv", 134, 0x7599_e458),
                ("ablation_gamma.csv", 162, 0xe9d4_d653),
                ("ablation_window.csv", 153, 0xf9bf_7d6e),
                ("ablation_beta.csv", 93, 0x8ee6_6ac2),
                ("ablation_scheme.csv", 244, 0x6e3e_e877),
            ],
        ),
    ];
    let _guard = csv_dir();
    for (seed, outputs) in RECORDED {
        let opts = CommonOpts { scale: 0.05, seed };
        let all = render_all(opts).expect("all runs");
        let stdout: String = all
            .lines()
            .filter(|line| !line.starts_with("csv: "))
            .flat_map(|line| [line, "\n"])
            .collect();
        let mut measured = vec![("stdout".to_string(), stdout.into_bytes())];
        measured.extend(csvs(&all).into_iter().map(|(path, bytes)| {
            let name = path
                .file_name()
                .expect("a file")
                .to_string_lossy()
                .into_owned();
            (name, bytes)
        }));
        let measured: Vec<(String, usize, u32)> = measured
            .into_iter()
            .map(|(name, bytes)| (name, bytes.len(), eleph_pipeline::crc32(&bytes)))
            .collect();
        let recorded: Vec<(String, usize, u32)> = outputs
            .iter()
            .map(|&(name, len, crc)| (name.to_string(), len, crc))
            .collect();
        assert_eq!(measured, recorded, "seed {seed}");

        // The aest detector has a tail to find at this scale, so the
        // `Ecdf` it sorts is on the path these bytes pin.
        let [aest] = Lab::new(opts.scale, seed)
            .classify_on(MatrixId::West, [SchemeSpec::paper(DetectorKind::Aest)]);
        assert!(
            aest.raw_thresholds.iter().any(Option::is_some),
            "seed {seed}: aest detected in no west interval"
        );
    }
}

#[test]
fn all_builds_detects_and_classifies_each_thing_once() {
    let _guard = csv_dir();
    let opts = CommonOpts {
        scale: 0.02,
        seed: 5,
    };
    let all = EXPERIMENTS.map(|(id, _, _)| id);
    let (rendered, counters) = run_session(&all, opts).expect("all runs");
    assert_eq!(rendered.len(), 11);
    assert_eq!(
        counters,
        LabCounters {
            // West and east.
            scenario_builds: 2,
            // Each link generated once, for everything asked of it.
            walks: 2,
            // {west, east} × {constant load 0.8, aest}; β = 0.5, 0.7 and
            // 0.9 on west; table 4's west link re-measured at 1 and at
            // 30 minutes.
            detection_passes: 7 + 2,
            // Figure 1's four runs asked for by fig1a/b/c and table 2,
            // table 1's four, table 3's one, table 4's three, four per
            // ablation.
            results_requested: 4 * 4 + 4 + 1 + 3 + 4 * 4,
            // Distinct (link, measure, detector, β, γ, scheme): Figure
            // 1's 4, table 1's 4, γ ∈ {0, 0.5, 0.99}, w ∈ {1, 6, 24},
            // β ∈ {0.5, 0.7, 0.9}, two hysteresis pairs — ten of them
            // over (west, constant load 0.8) alone — and table 4's 1-min
            // and 30-min points.
            results_computed: 4 + 4 + 3 + 3 + 3 + 2 + 2,
        }
    );

    // One experiment is the same session with less in it.
    let (_, table3) = run_session(&["table3"], opts).expect("table3 runs");
    assert_eq!(
        table3,
        LabCounters {
            scenario_builds: 1,
            walks: 1,
            detection_passes: 1,
            results_requested: 1,
            results_computed: 1,
        }
    );
    let (_, gamma) = run_session(&["ablation_gamma"], opts).expect("ablation runs");
    assert_eq!(
        gamma,
        LabCounters {
            scenario_builds: 1,
            walks: 1,
            detection_passes: 1,
            results_requested: 4,
            results_computed: 4,
        }
    );
}

#[test]
fn the_memo_answers_with_the_result_a_fresh_run_gives() {
    let lab = Lab::new(0.02, 11);
    let paper = SchemeSpec::paper(DetectorKind::ConstantLoad);
    let single = SchemeSpec::single(DetectorKind::ConstantLoad);
    let [first] = lab.classify_on(MatrixId::West, [paper]);
    let [again, other] = lab.classify_on(MatrixId::West, [paper, single]);
    assert!(
        std::sync::Arc::ptr_eq(&first, &again),
        "second request recomputed"
    );
    // A configuration asked after the first walk is answered by a
    // second walk, which detects again: the session keeps results, not
    // thresholds.
    let counters = lab.counters();
    assert_eq!(
        (
            counters.walks,
            counters.detection_passes,
            counters.results_computed
        ),
        (2, 2, 2)
    );
    assert_eq!(counters.results_requested, 3);

    // And it is the one a stand-alone classification of the link's
    // matrix computes.
    let matrix = Scenario::west(11).scaled(0.02).build().matrix;
    let fresh = eleph_report::run(&matrix, single);
    assert_eq!(other.elephants, fresh.elephants);
    assert_eq!(other.raw_thresholds, fresh.raw_thresholds);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&other.thresholds), bits(&fresh.thresholds));
    assert_eq!(bits(&other.elephant_load), bits(&fresh.elephant_load));
}
