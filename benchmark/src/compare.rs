//! `compare A.json B.json`: two result files of this benchmark, metric
//! by metric.
//!
//! For every workload × end-to-end metric the report gives B's median
//! over A's (the ratio with its base), the regression bound from
//! `BENCHMARK.json`, and a verdict:
//!
//! * `regress` — B's median is worse than A's by more than the bound;
//! * `unresolved` — the run-to-run spread (inter-quartile distance over
//!   the median, of either file) is wider than the bound, so a change of
//!   the bound's size could hide in it; unless every sample of B is
//!   better than every sample of A, which no spread can explain away;
//! * `pass` — otherwise.
//!
//! `error_share` is compared too, with bound 0: any new failure regresses.

use std::fs;
use std::io;
use std::path::Path;

use crate::json::{self, Value};
use crate::other;
use crate::run::{MetricDef, END_TO_END};
use crate::stats::{median, spread};

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regress,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Regress => "regress",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B's samples against A's. `lower_is_better` gives the direction,
/// `bound` the share of A's median B may be worse by.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (base, new) = (median(a), median(b));
    // Positive when B is worse.
    let worse_by = if lower_is_better {
        new - base
    } else {
        base - new
    };
    let all_better = a.iter().all(|&x| {
        b.iter()
            .all(|&y| if lower_is_better { y < x } else { y > x })
    });
    if spread(a).max(spread(b)) > bound && !all_better {
        return Verdict::Unresolved;
    }
    if worse_by > bound * base.abs() {
        Verdict::Regress
    } else {
        Verdict::Pass
    }
}

fn load(path: &Path) -> io::Result<Value> {
    json::parse(&fs::read_to_string(path)?).map_err(|e| other(format!("{}: {e}", path.display())))
}

/// The workload named `name` in a result file.
fn workload<'a>(results: &'a Value, name: &str) -> Option<&'a Value> {
    results
        .get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

fn samples(workload: &Value, metric: &str) -> Option<Vec<f64>> {
    workload
        .get("samples")?
        .get(metric)?
        .as_array()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

/// Regression bound of `metric` in `BENCHMARK.json`.
fn bound_of(benchmark: &Value, metric: &str) -> Option<f64> {
    benchmark
        .get("end_to_end")?
        .as_array()?
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(metric))?
        .get("bound")?
        .as_f64()
}

/// Compare two result files; prints the table and returns whether no
/// pairing regressed.
pub fn compare(benchmark_json: &Path, a: &Path, b: &Path) -> io::Result<bool> {
    let benchmark = load(benchmark_json)?;
    let (a_doc, b_doc) = (load(a)?, load(b)?);
    for (label, doc) in [("A", &a_doc), ("B", &b_doc)] {
        let noisy = doc.get("noisy").and_then(Value::as_bool) == Some(true);
        let revision = doc
            .get("machine")
            .and_then(|m| m.get("git_revision"))
            .and_then(Value::as_str);
        println!(
            "{label}: seed {} revision {} noisy {noisy}",
            doc.get("seed").and_then(Value::as_f64).unwrap_or(f64::NAN),
            revision.unwrap_or("unknown"),
        );
    }
    println!(
        "{:<17} {:<19} {:>14} {:>14} {:>8} {:>6} {:>9} {:>9}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound", "spread A", "spread B"
    );
    let names: Vec<&str> = a_doc
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or_else(|| other("A has no workloads"))?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let mut ok = true;
    for name in names {
        let (Some(wa), Some(wb)) = (workload(&a_doc, name), workload(&b_doc, name)) else {
            println!("{name:<17} only in A");
            continue;
        };
        for MetricDef {
            name: metric,
            better,
            ..
        } in END_TO_END
        {
            let bound = bound_of(&benchmark, metric)
                .ok_or_else(|| other(format!("BENCHMARK.json has no bound for {metric}")))?;
            let (Some(sa), Some(sb)) = (samples(wa, metric), samples(wb, metric)) else {
                return Err(other(format!("{name}: no samples of {metric}")));
            };
            if sa.is_empty() || sb.is_empty() {
                return Err(other(format!("{name}: no samples of {metric}")));
            }
            let verdict = judge(&sa, &sb, better == "lower", bound);
            ok &= verdict != Verdict::Regress;
            println!(
                "{name:<17} {metric:<19} {:>14.6} {:>14.6} {:>8.4} {:>6.3} {:>9.4} {:>9.4}  {}",
                median(&sa),
                median(&sb),
                median(&sb) / median(&sa),
                bound,
                spread(&sa),
                spread(&sb),
                verdict.label()
            );
        }
        let share = |w: &Value| w.get("error_share").and_then(Value::as_f64).unwrap_or(1.0);
        let verdict = if share(wb) > share(wa) {
            Verdict::Regress
        } else {
            Verdict::Pass
        };
        ok &= verdict != Verdict::Regress;
        println!(
            "{name:<17} {:<19} {:>14.6} {:>14.6} {:>8} {:>6.3} {:>9} {:>9}  {}",
            "error_share",
            share(wa),
            share(wb),
            "-",
            0.0,
            "-",
            "-",
            verdict.label()
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00];
        let same = [1.01, 1.00, 0.99, 1.01, 1.00, 1.02, 0.99];
        assert_eq!(judge(&base, &same, true, 0.10), Verdict::Pass);
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&base, &slower, true, 0.10), Verdict::Regress);
        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(&base, &faster, true, 0.10), Verdict::Pass);
        // Higher is better: the same numbers read the other way.
        assert_eq!(judge(&base, &slower, false, 0.10), Verdict::Pass);
        assert_eq!(judge(&base, &faster, false, 0.10), Verdict::Regress);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let wide = [0.8, 1.0, 1.2, 0.9, 1.1, 1.3, 0.7];
        let also_wide = [0.85, 1.05, 1.25, 0.95, 1.15, 1.3, 0.75];
        assert!(spread(&wide) > 0.10);
        assert_eq!(judge(&wide, &also_wide, true, 0.10), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        let clearly_better: Vec<f64> = wide.iter().map(|v| v * 0.4).collect();
        assert_eq!(judge(&wide, &clearly_better, true, 0.10), Verdict::Pass);
    }

    #[test]
    fn single_valued_ratios_compare_on_their_bound() {
        assert_eq!(judge(&[1.0], &[1.0], false, 0.01), Verdict::Pass);
        assert_eq!(judge(&[1.0], &[0.995], false, 0.01), Verdict::Pass);
        assert_eq!(judge(&[1.0], &[0.98], false, 0.01), Verdict::Regress);
    }
}
