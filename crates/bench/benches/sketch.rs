//! Sketch state-backend micro-benchmarks: the per-packet `record` +
//! per-interval `seal_into` path for each `core::sketch` backend
//! against the exact dense row. This is the hot loop a `--state`
//! choice changes; everything downstream (detection, EWMA, schemes)
//! is identical across backends. Accuracy is NOT measured here — see
//! `eleph sketch` for the exact-oracle recall/precision harness.
//!
//! The workload is a Zipf-like synthetic interval: a heavy head of a
//! few hundred elephant keys over a long mouse tail, the shape the
//! paper reports for backbone prefixes and the regime sketches are
//! built for.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use eleph_core::{ExactDense, StateBackend, StateBackendConfig};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// One interval's worth of (key, bytes) increments: `n_keys` distinct
/// keys under a heavy-headed popularity law, `packets` increments.
fn interval_stream(n_keys: u32, packets: usize) -> Vec<(u32, u64)> {
    let mut rng = StdRng::seed_from_u64(4242);
    (0..packets)
        .map(|_| {
            // Square a uniform draw to skew towards low key ids: key 0
            // is ~2·n_keys times as popular as the median key.
            let u: f64 = rng.gen();
            let key = ((u * u) * n_keys as f64) as u32;
            let bytes = 40 + (rng.gen::<u64>() % 1460);
            (key.min(n_keys - 1), bytes)
        })
        .collect()
}

/// Drive one backend through `intervals` record+seal rounds.
fn run_backend(
    backend: &mut dyn StateBackend,
    stream: &[(u32, u64)],
    intervals: usize,
) -> (usize, f64) {
    let mut out = Vec::new();
    let mut sealed = 0usize;
    let mut total = 0.0f64;
    for _ in 0..intervals {
        for &(key, bytes) in stream {
            backend.record(key, bytes);
        }
        backend.seal_into(60.0, &mut out);
        sealed += out.len();
        total += out.iter().map(|&(_, rate)| rate as f64).sum::<f64>();
    }
    (sealed, total)
}

fn bench_sketch_seal(c: &mut Criterion) {
    const N_KEYS: u32 = 20_000;
    const PACKETS: usize = 200_000;
    const INTERVALS: usize = 4;
    const BUDGET: usize = 1 << 20;
    let stream = interval_stream(N_KEYS, PACKETS);

    let mut group = c.benchmark_group("sketch_seal");
    group.sample_size(20);
    group.throughput(Throughput::Elements((PACKETS * INTERVALS) as u64));

    group.bench_function("exact", |b| {
        b.iter(|| {
            let mut backend = ExactDense::new();
            run_backend(black_box(&mut backend), black_box(&stream), INTERVALS)
        })
    });

    for name in ["spacesaving", "cmrow", "bloom"] {
        group.bench_function(name, |b| {
            let config = StateBackendConfig::parse(name, BUDGET).expect("known backend");
            b.iter(|| {
                let mut backend = config.build();
                run_backend(black_box(backend.as_mut()), black_box(&stream), INTERVALS)
            })
        });
    }

    // The regime sketches exist for: a budget far below the dense row
    // (64 KiB over 20k keys), where Space-Saving pays eviction rescans
    // and the multistage filter pays its promotion checks.
    for name in ["spacesaving", "cmrow", "bloom"] {
        group.bench_function(format!("{name}_tight64k"), |b| {
            let config = StateBackendConfig::parse(name, 64 << 10).expect("known backend");
            b.iter(|| {
                let mut backend = config.build();
                run_backend(black_box(backend.as_mut()), black_box(&stream), INTERVALS)
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_sketch_seal);
criterion_main!(benches);
