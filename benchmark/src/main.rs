//! One benchmark for the real `eleph` path. See `README.md`.

mod child;
mod compare;
mod inputs;
mod json;
mod layers;
mod machine;
mod run;
mod spans;
mod stats;
mod workloads;

use std::io;
use std::path::Path;
use std::process::ExitCode;

use json::{obj, string, Value};
use layers::PER_LAYER;
use run::{Layout, Options, END_TO_END};
use workloads::Workload;

const USAGE: &str = "\
usage:
  eleph-benchmark run --seed N
      every workload end to end through the real eleph binary, seven
      repetitions each; prints every metric, writes
      benchmark/out/results.json, exits non-zero when any output check fails
  eleph-benchmark trace --seed N
      every layer's public functions timed in-process on the same inputs;
      prints every per-layer metric, writes benchmark/out/trace.json
  eleph-benchmark compare A.json B.json
      two result files: ratio with its base, bound and pass/regress/unresolved
      per workload x end-to-end metric
  eleph-benchmark --workload W --seed N --seconds S --trace 0|1
      one workload, for the driver: the last stdout line is one JSON object
";

/// Seconds the `trace` subcommand spreads over its measured calls (the
/// driver's form passes its own `--seconds`).
const TRACE_SECONDS: f64 = 10.0;

/// `--flag value` pairs after the subcommand, each flag once and each one
/// of `allowed`.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> io::Result<Flags> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        for pair in args.chunks(2) {
            match pair {
                [flag, value]
                    if allowed.contains(&flag.as_str()) && pairs.iter().all(|(f, _)| f != flag) =>
                {
                    pairs.push((flag.clone(), value.clone()))
                }
                _ => {
                    return Err(other(format!(
                        "expected each of {allowed:?} once with a value, got {pair:?}"
                    )))
                }
            }
        }
        Ok(Flags(pairs))
    }

    /// The value of a flag, which must be present and parse.
    fn get<T: std::str::FromStr>(&self, flag: &str) -> io::Result<T> {
        let (_, value) = self
            .0
            .iter()
            .find(|(f, _)| f == flag)
            .ok_or_else(|| other(format!("{flag} is required")))?;
        value
            .parse()
            .map_err(|_| other(format!("{flag} {value}: not a valid value")))
    }
}

/// Any displayable error as an `io::Error`.
fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The object the driver reads from the last line of stdout; `metrics`
/// are `(name, value, unit)`.
fn print_contract_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'a str, f64, &'a str)>,
) -> io::Result<()> {
    let metrics = metrics.map(|(name, value, unit)| {
        let entry = obj([("value", Value::Num(value)), ("unit", string(unit))]);
        (name, entry)
    });
    let line = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", obj(metrics)),
    ]);
    println!("{}", line.render().map_err(other)?);
    Ok(())
}

/// `run`: every workload, seven repetitions each.
fn cmd_run(args: &[String]) -> io::Result<ExitCode> {
    let seed = Flags::parse(args, &["--seed"])?.get("--seed")?;
    let result = run::run(&Layout::locate()?, &Options::full(seed))?;
    result.print();
    Ok(exit_code(result.correct()))
}

/// `trace`: the per-layer ladder, in-process, into `trace.json`.
fn cmd_trace(args: &[String]) -> io::Result<ExitCode> {
    let seed = Flags::parse(args, &["--seed"])?.get("--seed")?;
    let result = layers::trace(&Layout::locate()?, seed, TRACE_SECONDS, "all")?;
    result.print();
    Ok(exit_code(result.failed == 0))
}

/// `compare A.json B.json`: exits non-zero when a pairing regressed.
fn cmd_compare(args: &[String]) -> io::Result<ExitCode> {
    let [a, b] = args else {
        return Err(other("usage: compare A.json B.json"));
    };
    let benchmark_json = Layout::locate()?.repo_root.join("BENCHMARK.json");
    let ok = compare::compare(&benchmark_json, Path::new(a), Path::new(b))?;
    Ok(exit_code(ok))
}

/// The driver's form: one workload, `--seconds` of measuring with at
/// least five repetitions, and the contract's JSON object as the last
/// line of stdout.
fn cmd_driver(args: &[String]) -> io::Result<ExitCode> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let seed = flags.get("--seed")?;
    let seconds: f64 = flags.get("--seconds")?;
    let traced = flags.get::<u8>("--trace")? != 0;
    let name: String = flags.get("--workload")?;
    let workload =
        Workload::by_name(&name).ok_or_else(|| other(format!("unknown workload {name}")))?;
    let layout = Layout::locate()?;
    if traced {
        let result = layers::trace(&layout, seed, seconds, workload.name)?;
        result.print();
        let metrics = PER_LAYER
            .iter()
            .map(|m| (m.name, result.values[m.name].0, m.unit));
        print_contract_line(result.failed == 0, result.attempted, result.failed, metrics)?;
        return Ok(ExitCode::SUCCESS);
    }
    let result = run::run(&layout, &Options::driver(seed, workload, seconds))?;
    result.print();
    let w = &result.workloads[0];
    let metrics = END_TO_END.iter().map(|m| (m.name, w.value(m.name), m.unit));
    print_contract_line(result.correct(), w.attempted, w.failed, metrics)?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some(child::MEASURE_ARG) => child::measure_main(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some(flag) if flag.starts_with("--") && flag != "--help" => cmd_driver(&args),
        _ => {
            eprint!("{USAGE}");
            Ok(ExitCode::from(2))
        }
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("eleph-benchmark: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::WORKLOADS;

    /// `BENCHMARK.json` must say what the code measures, inside the
    /// contract's limits: the driver refuses the file otherwise.
    #[test]
    fn benchmark_json_matches_the_code_and_the_contract() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let members = |v: &Value| match v {
            Value::Obj(members) => members.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };
        let keys = members(&doc);
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<String> = Vec::new();

        let workloads = doc.get("workloads").and_then(Value::as_array).unwrap();
        let gated = WORKLOADS.iter().filter(|w| w.name != "backbone_shards2");
        assert_eq!(workloads.len(), gated.clone().count());
        for (entry, w) in workloads.iter().zip(gated) {
            assert_eq!(members(entry).len(), 2);
            assert_eq!(
                (text(entry, "name"), text(entry, "why")),
                (w.name.to_string(), w.why.to_string())
            );
            assert!(w.why.len() <= 200);
            names.push(w.name.to_string());
        }

        let end_to_end = doc.get("end_to_end").and_then(Value::as_array).unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, m) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(members(entry).len(), 4);
            assert_eq!(
                (
                    text(entry, "name"),
                    text(entry, "unit"),
                    text(entry, "better")
                ),
                (m.name.to_string(), m.unit.to_string(), m.better.to_string())
            );
            let bound = entry.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
            names.push(m.name.to_string());
        }
        let setup = end_to_end
            .iter()
            .find(|m| text(m, "name") == "setup_s")
            .unwrap();
        assert_eq!(
            (text(setup, "unit"), text(setup, "better")),
            ("s".to_string(), "lower".to_string())
        );

        let per_layer = doc.get("per_layer").and_then(Value::as_array).unwrap();
        assert!(per_layer.len() <= 128);
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, m) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(members(entry).len(), 3);
            assert_eq!(
                (
                    text(entry, "name"),
                    text(entry, "unit"),
                    text(entry, "better")
                ),
                (m.name.to_string(), m.unit.to_string(), m.better.to_string())
            );
            names.push(m.name.to_string());
        }

        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(m), "bad unit {m}");
        }
        for m in END_TO_END
            .iter()
            .map(|m| m.better)
            .chain(PER_LAYER.iter().map(|m| m.better))
        {
            assert!(m == "lower" || m == "higher");
        }

        let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        let command = doc.get("command").and_then(Value::as_array).unwrap();
        assert!(
            command.len() <= 32
                && command
                    .iter()
                    .all(|c| c.as_str().is_some_and(|s| s.len() <= 200))
        );
        assert_eq!(
            doc.get("paths").and_then(Value::as_array).unwrap(),
            [json::string("benchmark")]
        );
    }
}
