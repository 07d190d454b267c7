//! Longest-prefix-match micro-benchmarks on a backbone-sized RIB: the
//! path-compressed trie (the mutable builder) against the frozen flat
//! table (the read path), with the linear oracle for scale.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use eleph_bench::bench_table;
use eleph_net::{CompressedTrieLpm, FlatLpm, LinearLpm, Lpm, Prefix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn entries(n: usize) -> Vec<(Prefix, u32)> {
    bench_table(n)
        .iter()
        .enumerate()
        .map(|(i, e)| (e.prefix, i as u32))
        .collect()
}

fn queries(n: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..n).map(|_| rng.gen()).collect()
}

fn bench_lookup(c: &mut Criterion) {
    let entries = entries(20_000);
    let queries = queries(10_000);

    let mut group = c.benchmark_group("lpm_lookup_10k");
    group.sample_size(20);

    let table = CompressedTrieLpm::from_entries(entries.clone());
    group.bench_function("compressed_trie", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &q in &queries {
                if table.lookup(black_box(q)).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });

    // The frozen flat-array read path the packet pipeline uses.
    let flat = FlatLpm::from(&table);
    group.bench_function("flat", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &q in &queries {
                if flat.lookup(black_box(q)).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
    group.bench_function("flat_id_only", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &q in &queries {
                if flat.lookup_id(black_box(q)).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
    // The attribution hot path materializes an id per address (the
    // aggregator's route array), so the batch API's fair baseline is a
    // per-address loop writing the same output array.
    group.bench_function("flat_id_loop_into", |b| {
        let mut out = vec![None; queries.len()];
        b.iter(|| {
            for (o, &q) in out.iter_mut().zip(&queries) {
                *o = flat.lookup_id(black_box(q));
            }
            out.iter().map(|o| usize::from(o.is_some())).sum::<usize>()
        })
    });
    // The batched form the chunked aggregation hot path uses: identical
    // results to the flat_id_loop_into loop above, but the masked
    // re-slice elides the per-lane stage-1 bounds check and the loop
    // body carries no per-call overhead.
    group.bench_function("flat_id_batched", |b| {
        let mut out = vec![None; queries.len()];
        b.iter(|| {
            flat.lookup_many(black_box(&queries), &mut out);
            out.iter().map(|o| usize::from(o.is_some())).sum::<usize>()
        })
    });
    group.bench_function("flat_id_batched_raw", |b| {
        let mut out = vec![0u32; queries.len()];
        b.iter(|| {
            flat.lookup_many_raw(black_box(&queries), &mut out);
            out.iter().map(|&o| usize::from(o != 0)).sum::<usize>()
        })
    });

    // The linear oracle on a reduced query load (it is O(n) per lookup).
    let mut linear = LinearLpm::new();
    for (p, v) in &entries {
        linear.insert(*p, *v);
    }
    group.bench_function("linear_oracle_100q", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &q in &queries[..100] {
                if linear.lookup(black_box(q)).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
    group.finish();
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("lpm_build");
    group.sample_size(10);
    for n in [5_000usize, 20_000] {
        let entries = entries(n);
        group.bench_with_input(BenchmarkId::new("compressed_trie", n), &entries, |b, e| {
            b.iter(|| CompressedTrieLpm::from_entries(e.iter().copied()))
        });
        // Freeze cost: what a RIB update costs the read path.
        group.bench_with_input(BenchmarkId::new("flat_freeze", n), &entries, |b, e| {
            b.iter(|| FlatLpm::from_entries(e.iter().copied()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lookup, bench_insert);
criterion_main!(benches);
