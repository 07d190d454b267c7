//! The paper's qualitative claims must hold on a scaled-down scenario.
//!
//! Absolute numbers scale with the flow population, so this test checks
//! the *relations* the paper reports — they are scale-invariant:
//!
//! 1. single-feature elephants are volatile, latent heat fixes it;
//! 2. elephants are few but carry most of the traffic;
//! 3. the west link's elephant count bursts during working hours, the
//!    east link's does not;
//! 4. results are robust to the measurement interval T.

use eleph_core::holding;
use eleph_report::experiments::fig1_data;
use eleph_report::{run, DetectorKind, MatrixId, Scenario, SchemeSpec};

const SCALE: f64 = 0.08;
const SEED: u64 = 77;

#[test]
fn latent_heat_beats_single_feature_on_stability() {
    let scenario = Scenario::west(SEED).scaled(SCALE);
    let data = scenario.build();
    let window = scenario.busy_window(data.matrix.totals());

    let single = run(&data.matrix, SchemeSpec::single(DetectorKind::ConstantLoad));
    let latent = run(&data.matrix, SchemeSpec::paper(DetectorKind::ConstantLoad));

    let h_single = holding::analyze(&single, window.clone(), scenario.workload.interval_secs);
    let h_latent = holding::analyze(&latent, window, scenario.workload.interval_secs);

    // Holding times: paper reports 20-40 min → ~2 h, a ≥3x improvement.
    assert!(
        h_latent.mean_avg_slots > 3.0 * h_single.mean_avg_slots,
        "holding: single {} vs latent {}",
        h_single.mean_avg_slots,
        h_latent.mean_avg_slots
    );

    // Single-interval elephants: paper reports >1000 → ~50, a ≥10x drop.
    assert!(
        h_single.single_interval_flows >= 10 * h_latent.single_interval_flows.max(1),
        "single-interval: {} vs {}",
        h_single.single_interval_flows,
        h_latent.single_interval_flows
    );

    // And the single-feature scheme really is volatile in absolute terms
    // (paper: 20-40 min = 4-8 slots; accept a broad band).
    assert!(
        h_single.mean_avg_slots < 12.0,
        "single-feature holding {} slots suspiciously long",
        h_single.mean_avg_slots
    );
}

#[test]
fn elephants_are_few_and_carry_most_traffic() {
    let scenario = Scenario::west(SEED).scaled(SCALE);
    let data = scenario.build();
    let result = run(&data.matrix, SchemeSpec::paper(DetectorKind::ConstantLoad));

    let mean_active: f64 = (0..data.matrix.n_intervals())
        .map(|n| data.matrix.active(n) as f64)
        .sum::<f64>()
        / data.matrix.n_intervals() as f64;

    // Elephants are a small minority of flows...
    assert!(
        result.mean_count() < 0.15 * mean_active,
        "elephants {} of {} active",
        result.mean_count(),
        mean_active
    );
    // ...but carry the majority of bytes (paper: ~0.6).
    let f = result.mean_fraction();
    assert!((0.45..=0.85).contains(&f), "elephant load fraction {f}");
}

#[test]
fn west_bursts_east_does_not() {
    // Count-series shape needs a moderately sized population: with only
    // a few dozen heavy flows the constant-load threshold is dominated
    // by the fate of individual top flows and the series is pure noise.
    // Scale 0.4 ≈ 16k flows west / 10k east keeps counts in the hundreds.
    let data = fig1_data(0.4, SEED);
    let cv = |r: &eleph_core::ClassificationResult| {
        let counts: Vec<f64> = (0..r.n_intervals()).map(|n| r.count(n) as f64).collect();
        let smoothed: Vec<f64> = counts
            .windows(6)
            .map(|w| w.iter().sum::<f64>() / 6.0)
            .collect();
        let mean = smoothed.iter().sum::<f64>() / smoothed.len() as f64;
        let var = smoothed
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / smoothed.len() as f64;
        var.sqrt() / mean
    };
    let west = cv(&data.runs[0]);
    let east = cv(&data.runs[2]);
    assert!(west > east, "west count CV {west} vs east {east}");
    assert!(west > 0.15, "west should show diurnal structure: CV {west}");
}

#[test]
fn aest_and_constant_load_agree_qualitatively() {
    let data = fig1_data(SCALE, SEED);
    // Same link, different detectors: counts within a factor of ~2.5 and
    // fractions within 0.2 (the paper's four series sit close together).
    let (cl, aest) = (&data.runs[0], &data.runs[1]);
    let count_ratio = cl.mean_count() / aest.mean_count().max(1.0);
    assert!(
        (0.4..=2.5).contains(&count_ratio),
        "detector count ratio {count_ratio}"
    );
    assert!(
        (cl.mean_fraction() - aest.mean_fraction()).abs() < 0.2,
        "fractions {} vs {}",
        cl.mean_fraction(),
        aest.mean_fraction()
    );
}

#[test]
fn robust_to_measurement_interval() {
    // The paper: "Similar results were obtained for T = 1 min and 30 min".
    let mut fractions = Vec::new();
    for t_secs in [60u64, 300, 1800] {
        let mut scenario = Scenario::west(SEED).scaled(SCALE);
        let span = scenario.workload.interval_secs * scenario.workload.n_intervals as u64;
        scenario.workload.interval_secs = t_secs;
        scenario.workload.n_intervals = (span / t_secs) as usize;
        let data = scenario.build();
        let result = run(&data.matrix, SchemeSpec::paper(DetectorKind::ConstantLoad));
        fractions.push(result.mean_fraction());
    }
    let max = fractions.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = fractions.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        max - min < 0.15,
        "fraction spread across T too large: {fractions:?}"
    );
}

#[test]
fn prefix_structure_matches_paper() {
    // Run at a larger scale than the other tests: /8 statistics are
    // small counts and need a bigger population to be meaningful.
    let data = fig1_data(0.2, SEED);
    let result = &data.runs[0];
    let link = data.link(MatrixId::West);
    let report = eleph_core::prefix_analysis::prefix_report(
        &link.keys,
        &data.ever_active(MatrixId::West),
        result,
        Some(&link.table),
    );
    // Elephant /8s must be a small minority of active /8s.
    assert!(
        report.elephant_slash8 * 2 <= report.active_slash8.max(1),
        "{} elephant /8s of {} active",
        report.elephant_slash8,
        report.active_slash8
    );
    assert!(report.elephant_slash8 <= 8, "too many /8 elephants");
    // The elephant bulk must span a wide range of lengths (paper:
    // /12-/26 — no correlation between prefix size and elephant-ness).
    let bulk: Vec<usize> = (9..33)
        .filter(|&l| report.elephant_by_length[l] > 0)
        .collect();
    if let (Some(&lo), Some(&hi)) = (bulk.first(), bulk.last()) {
        assert!(hi - lo >= 8, "elephant lengths span only /{lo}-/{hi}");
    } else {
        panic!("no elephants found");
    }
    // Tier-1 routes dominate the elephant class.
    let [t1, t2, stub] = report.elephant_peer_classes.expect("table supplied");
    assert!(t1 > t2 && t1 > stub, "peer classes {t1}/{t2}/{stub}");
}
