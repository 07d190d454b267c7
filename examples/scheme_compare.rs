//! Side-by-side comparison of threshold detectors on the same workload.
//!
//! Runs the paper's two detectors (aest, 0.8-constant-load) under both
//! classification schemes, and prints the metrics that matter for traffic engineering: how many
//! elephants, how much traffic they carry, and how stable the class is.
//!
//! ```sh
//! cargo run --release -p eleph-tests --example scheme_compare
//! ```

use eleph_bgp::synth::{self, SynthConfig};
use eleph_core::holding::{self, churn};
use eleph_core::{
    classify, AestDetector, ConstantLoadDetector, Scheme, ThresholdDetector, PAPER_GAMMA,
    PAPER_LATENT_WINDOW,
};
use eleph_flow::{busiest_window, BandwidthMatrix};
use eleph_trace::WorkloadConfig;

fn main() {
    // A mid-sized workload: big enough for aest to see the tail.
    let table = synth::generate(&SynthConfig {
        n_prefixes: 30_000,
        ..SynthConfig::default()
    });
    let workload = WorkloadConfig {
        n_flows: 8_000,
        n_intervals: 144,
        interval_secs: 300,
        link: eleph_trace::LinkSpec::oc12("comparison OC-12", 0.5),
        profile: eleph_trace::DiurnalProfile::west_coast(),
        tz_offset_secs: -7 * 3600,
        heavy_rate_floor: 400_000.0,
        mouse_log_mean: (15_000f64).ln(),
        ..WorkloadConfig::small_test(23)
    };
    let matrix = BandwidthMatrix::from_workload(&workload, &table);
    let busy = busiest_window(matrix.totals(), 60).expect("window fits");

    println!(
        "workload: {} flows, {} intervals of {}s, busy period {:?}\n",
        matrix.n_keys(),
        matrix.n_intervals(),
        workload.interval_secs,
        busy,
    );
    println!(
        "{:<28} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "configuration", "elephants", "load", "holding", "1-interval", "churn"
    );

    let detectors: Vec<Box<dyn Fn() -> Box<dyn ThresholdDetector>>> = vec![
        Box::new(|| Box::new(AestDetector::new())),
        Box::new(|| Box::new(ConstantLoadDetector::new(0.8))),
    ];

    for make in &detectors {
        for (scheme_name, scheme) in [
            ("single", Scheme::SingleFeature),
            (
                "latent-heat",
                Scheme::LatentHeat {
                    window: PAPER_LATENT_WINDOW,
                },
            ),
        ] {
            let detector = make();
            let label = format!("{} / {}", detector.name(), scheme_name);
            // `Box<dyn ThresholdDetector>` implements the trait itself,
            // so runtime-chosen detectors feed `classify` directly.
            let result = classify(&matrix, detector, PAPER_GAMMA, scheme);
            let h = holding::analyze(&result, busy.clone(), workload.interval_secs);
            let churn_series = churn(&result);
            let mean_churn = churn_series[PAPER_LATENT_WINDOW..].iter().sum::<usize>() as f64
                / (churn_series.len() - PAPER_LATENT_WINDOW) as f64;
            println!(
                "{:<28} {:>10.0} {:>9.1}% {:>8.0} min {:>12} {:>10.1}",
                label,
                result.mean_count(),
                100.0 * result.mean_fraction(),
                h.mean_avg_minutes(),
                h.single_interval_flows,
                mean_churn,
            );
        }
    }

    println!(
        "\nReading: latent heat trades a slightly smaller elephant load for \
         far longer holding\ntimes and an order of magnitude fewer \
         single-interval elephants, on every detector."
    );
}
