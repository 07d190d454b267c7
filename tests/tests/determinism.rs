//! Whole-stack determinism: every experiment is a pure function of its
//! seed, and different seeds produce different traces but the same
//! qualitative results.

use eleph_report::{run, DetectorKind, Scenario, SchemeSpec};

#[test]
fn same_seed_same_classification() {
    let build = || {
        let scenario = Scenario::west(5).scaled(0.05);
        let data = scenario.build();
        run(&data.matrix, SchemeSpec::paper(DetectorKind::ConstantLoad))
    };
    let a = build();
    let b = build();
    assert_eq!(a.thresholds, b.thresholds);
    assert_eq!(a.elephants, b.elephants);
    assert_eq!(a.elephant_load, b.elephant_load);
}

#[test]
fn different_seed_different_trace_same_shape() {
    let result = |seed: u64| {
        let scenario = Scenario::west(seed).scaled(0.05);
        let data = scenario.build();
        run(&data.matrix, SchemeSpec::paper(DetectorKind::ConstantLoad))
    };
    let a = result(1);
    let b = result(2);
    assert_ne!(a.elephants, b.elephants, "seeds must matter");
    // But the qualitative outcome is seed-independent.
    let fa = a.mean_fraction();
    let fb = b.mean_fraction();
    assert!((fa - fb).abs() < 0.15, "fractions {fa} vs {fb}");
    let ratio = a.mean_count() / b.mean_count().max(1.0);
    assert!(
        (0.5..2.0).contains(&ratio),
        "counts {} vs {}",
        a.mean_count(),
        b.mean_count()
    );
}

#[test]
fn scenario_builds_are_deterministic() {
    let scenario = Scenario::east(9).scaled(0.05);
    let a = scenario.build();
    let b = scenario.build();
    assert_eq!(a.table.len(), b.table.len());
    assert_eq!(a.matrix.n_intervals(), b.matrix.n_intervals());
    for n in 0..a.matrix.n_intervals() {
        assert_eq!(a.matrix.interval(n), b.matrix.interval(n), "interval {n}");
    }
}
