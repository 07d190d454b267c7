//! Quickstart: the 60-second tour of the library, built around the
//! streaming pipeline.
//!
//! A small synthetic link (routing table + traffic) streams through the
//! [`eleph_pipeline::PipelineBuilder`]: packets are attributed to BGP
//! prefixes, sealed into measurement intervals, and classified online
//! with the paper's two-feature "latent heat" scheme — one interval at
//! a time, never materializing the full bandwidth matrix. Exactly what
//! a live monitor on a backbone link would run.
//!
//! ```sh
//! cargo run -p eleph-tests --example quickstart
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use eleph_bgp::synth::{self, SynthConfig};
use eleph_core::{ConstantLoadDetector, Scheme, PAPER_GAMMA, PAPER_LATENT_WINDOW};
use eleph_pipeline::{CallbackSink, Checkpoint, Collector, PipelineBuilder, TraceSource};
use eleph_trace::{RateTrace, WorkloadConfig};

fn main() {
    // 1. A routing table: the flow key space, as a BgpTable — its routes
    //    in ascending prefix order, which traffic synthesis samples flow
    //    addresses from. (Real deployments load a RIB dump. To attribute
    //    packets against it, the fast pair is
    //    eleph_bgp::dump::read_routes + FrozenBgpTable::from_routes —
    //    text to lookup table in one pass, handed to
    //    PipelineBuilder::frozen; eleph_bgp::dump::read_dump builds the
    //    BgpTable this example needs to synthesize traffic.)
    let table = synth::generate(&SynthConfig {
        n_prefixes: 5_000,
        ..SynthConfig::default()
    });
    println!("routing table: {} prefixes", table.len());

    // 2. A traffic source. small_test() is a 10 Mb/s link with 1-minute
    //    intervals; TraceSource synthesizes its packets one interval at
    //    a time, so memory stays bounded however long the trace runs.
    let workload = WorkloadConfig {
        n_flows: 300,
        n_intervals: 48,
        ..WorkloadConfig::small_test(7)
    };
    let trace = RateTrace::generate(&workload, &table);

    // 3. The pipeline: packet source → frozen-LPM attribution →
    //    interval sealing → online classification → sinks. Here the
    //    paper's headline configuration: 0.8-constant-load threshold,
    //    EWMA gamma = 0.9, latent heat over a 12-slot window. Two sinks
    //    fan out: an in-memory collector for the report below, and a
    //    callback that fires *the moment* an interval seals — a live
    //    monitor's early-alert hook, impossible in batch mode.
    let collector = Collector::new();
    let frozen = table.freeze();
    let busy_intervals = Arc::new(AtomicUsize::new(0));
    let busy_hook = Arc::clone(&busy_intervals);
    let mut pipeline = PipelineBuilder::new()
        .frozen(&frozen)
        .interval_secs(workload.interval_secs)
        .start_unix(workload.start_unix)
        .n_intervals(workload.n_intervals)
        .detector(ConstantLoadDetector::new(0.8))
        .gamma(PAPER_GAMMA)
        .scheme(Scheme::LatentHeat {
            window: PAPER_LATENT_WINDOW,
        })
        .sink(collector.sink())
        .sink(CallbackSink::new(move |sealed| {
            // React mid-capture: pin these flows, rebalance, page…
            if sealed.outcome.fraction() > 0.7 {
                busy_hook.fetch_add(1, Ordering::Relaxed);
            }
        }))
        .build();
    pipeline
        .run(TraceSource::new(&trace))
        .expect("streaming run");
    let report = pipeline.finish().expect("pipeline finish");

    println!(
        "streamed {} packets ({:.1} MiB attributed) into {} intervals, {} prefixes seen",
        report.stats.offered,
        report.stats.attributed_bytes as f64 / (1024.0 * 1024.0),
        report.intervals,
        report.keys.len(),
    );

    // 4. What did we get? The collector holds one outcome per sealed
    //    interval, in order — the same numbers the batch classifier
    //    would produce (bit-identical; see the streaming-equivalence
    //    tests).
    let outcomes = collector.take();
    let last = outcomes.last().expect("at least one interval");
    println!(
        "\nfinal interval: {} elephants carry {:.0}% of traffic (threshold {:.1} kb/s)",
        last.outcome.elephants.len(),
        100.0 * last.outcome.fraction(),
        last.outcome.threshold / 1e3,
    );
    println!("elephant prefixes in the final interval:");
    for &key in last.outcome.elephants.iter().take(10) {
        println!("  {}", report.keys[key as usize]);
    }

    let mean_count = outcomes
        .iter()
        .map(|o| o.outcome.elephants.len())
        .sum::<usize>() as f64
        / outcomes.len() as f64;
    let mean_fraction =
        outcomes.iter().map(|o| o.outcome.fraction()).sum::<f64>() / outcomes.len() as f64;
    println!(
        "\nacross the stream: mean {mean_count:.0} elephants/interval, mean load share \
         {mean_fraction:.2}; {} intervals tripped the >70% early alert",
        busy_intervals.load(Ordering::Relaxed),
    );

    // 5. Crash safety. A long-horizon monitor cannot afford to lose its
    //    latent-heat standing to a restart, so the pipeline serializes
    //    its full recovery frontier — classifier window, EWMA threshold
    //    state, key allocation, the open interval — into a checksummed
    //    snapshot, and a new process resumes from it bit-identically.
    //    (`eleph run --checkpoint-dir DIR --resume` does this across
    //    real kills; tests/tests/model.rs pins a kill at every crash
    //    point, resumed, against the uninterrupted run.)
    let monitor = || {
        PipelineBuilder::new()
            .frozen(&frozen)
            .interval_secs(workload.interval_secs)
            .start_unix(workload.start_unix)
            .n_intervals(workload.n_intervals)
            .detector(ConstantLoadDetector::new(0.8))
            .gamma(PAPER_GAMMA)
            .scheme(Scheme::LatentHeat {
                window: PAPER_LATENT_WINDOW,
            })
    };
    let mut first_process = monitor().build();
    first_process
        .run(TraceSource::window(&trace, 0..24))
        .expect("first half");
    let mut snapshot = Vec::new();
    first_process.checkpoint(&mut snapshot).expect("snapshot");
    drop(first_process); // …the monitor dies here…

    let resumed_outcomes = eleph_pipeline::Collector::new();
    let checkpoint = Checkpoint::read_from(&mut snapshot.as_slice()).expect("read snapshot");
    let mut second_process = monitor()
        .sink(resumed_outcomes.sink())
        .resume(&checkpoint)
        .expect("restore snapshot");
    second_process
        .run(TraceSource::window(&trace, 24..48))
        .expect("second half");
    second_process.finish().expect("resumed finish");
    let resumed_last = resumed_outcomes.take().pop().expect("final interval");
    let final_interval = outcomes.last().expect("final interval");
    assert_eq!(
        resumed_last.outcome.threshold.to_bits(),
        final_interval.outcome.threshold.to_bits(),
        "resumed threshold must match the uninterrupted run to the last bit",
    );
    assert_eq!(
        resumed_last.outcome.elephants,
        final_interval.outcome.elephants
    );
    println!(
        "\ncheckpoint/restore: stopped after interval 24 ({}-byte snapshot), resumed, \
         final interval matches the uninterrupted run bit-for-bit",
        snapshot.len(),
    );

    // 6. Live routing. Real BGP tables churn while the monitor runs, so
    //    the pipeline can also sit on a LiveBgpTable and replay a timed
    //    update schedule mid-stream: each batch is applied — an
    //    epoch-swapped delta, no refreeze, lookups never stall —
    //    immediately before the first packet at or past its timestamp.
    //    A re-announced prefix gets a fresh RouteId and therefore a
    //    fresh flow key; the withdrawn key's history is never rewritten,
    //    it just drains out of the latent-heat window. (`eleph run
    //    --rib-updates FILE` is this exact path; `eleph churn` generates
    //    schedules.)
    let live = eleph_bgp::LiveBgpTable::from_table(&table);
    let schedule = eleph_trace::generate_churn(
        &table,
        &eleph_trace::ChurnConfig {
            seed: 7,
            scenarios: vec![eleph_trace::ChurnScenario::WithdrawReannounceStorm {
                at_unix: workload.start_unix + 10 * workload.interval_secs,
                count: 200,
                hold_secs: 2 * workload.interval_secs,
            }],
        },
    );
    let mut churned = PipelineBuilder::new()
        .live(&live)
        .interval_secs(workload.interval_secs)
        .start_unix(workload.start_unix)
        .n_intervals(workload.n_intervals)
        .detector(ConstantLoadDetector::new(0.8))
        .gamma(PAPER_GAMMA)
        .scheme(Scheme::LatentHeat {
            window: PAPER_LATENT_WINDOW,
        })
        .route_updates(schedule)
        .build();
    churned.run(TraceSource::new(&trace)).expect("churned run");
    let churned_report = churned.finish().expect("churned finish");
    println!(
        "\nlive routing: {} update batches applied mid-stream (table generation {}), \
         {} flow keys vs {} on the frozen table — re-announced prefixes live on under fresh keys",
        churned_report.route_updates_applied,
        churned_report.generation,
        churned_report.keys.len(),
        report.keys.len(),
    );
    assert!(churned_report.stats.is_conserved());

    // 7. Multi-core. `.shards(n)` partitions the online path by flow
    //    key across n worker threads — per-shard byte rows and
    //    classifier partitions, merged at every seal in ascending key
    //    order — so the output is bit-identical to the serial path at
    //    any shard count. Sharding is a throughput knob, never a
    //    measurement change; checkpoints don't record the shard count,
    //    so a snapshot taken at one count resumes at any other.
    //    (`eleph run --shards N` is this path from the CLI.)
    let sharded_collector = Collector::new();
    let mut sharded = monitor().shards(4).sink(sharded_collector.sink()).build();
    sharded.run(TraceSource::new(&trace)).expect("sharded run");
    sharded.finish().expect("sharded finish");
    let sharded_outcomes = sharded_collector.take();
    assert_eq!(sharded_outcomes.len(), outcomes.len());
    for (s, w) in sharded_outcomes.iter().zip(&outcomes) {
        assert_eq!(
            s.outcome.threshold.to_bits(),
            w.outcome.threshold.to_bits(),
            "sharded threshold must match serial to the last bit",
        );
        assert_eq!(s.outcome.elephants, w.outcome.elephants);
    }
    println!(
        "\nsharded: 4 worker shards classified all {} intervals bit-identically to serial",
        sharded_outcomes.len(),
    );

    // 8. Approximate state. When the key space outgrows a dense
    //    per-key row, `.state_backend(..)` swaps it for a fixed-budget
    //    sketch — here Space-Saving under 1 MiB — while key
    //    attribution, interval geometry, and the whole detection stack
    //    stay exact. The exact run above doubles as the oracle: compare
    //    the elephant sets interval by interval. With a budget this
    //    generous the sketch holds every key exactly; `eleph sketch`
    //    sweeps tighter budgets and reports the accuracy frontier.
    //    (`eleph run --state spacesaving --state-budget 1048576` is
    //    this path from the CLI.)
    let sketched_collector = Collector::new();
    let mut sketched = monitor()
        .state_backend(eleph_pipeline::StateBackendConfig::SpaceSaving {
            budget_bytes: 1 << 20,
        })
        .sink(sketched_collector.sink())
        .build();
    sketched
        .run(TraceSource::new(&trace))
        .expect("sketched run");
    let sketched_report = sketched.finish().expect("sketched finish");
    let sketched_outcomes = sketched_collector.take();
    let agree = sketched_outcomes
        .iter()
        .zip(&outcomes)
        .filter(|(s, w)| s.outcome.elephants == w.outcome.elephants)
        .count();
    println!(
        "\nsketch backend: {} ({} bytes) tracked {} keys; elephant sets match the exact \
         oracle in {agree}/{} intervals",
        sketched_report.state_backend,
        sketched_report.state_bytes,
        sketched_report.distinct_keys,
        sketched_outcomes.len(),
    );
    assert_eq!(agree, sketched_outcomes.len());
}
