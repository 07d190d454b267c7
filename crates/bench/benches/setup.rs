//! Start-up: a text RIB dump to the table packets are attributed
//! against. On the default `eleph run --pcap --rib` path this is most of
//! a short run's wall time, so it is tracked beside the packet loop.
//!
//! Two arms over the same 100k-route dump bytes: the library pair
//! `read_dump` + `freeze` (parse into the mutable trie, then clone
//! every route into the flat table — what `benchmark/`'s layer probes
//! keep calling) and `read_routes` + `from_routes` (what `eleph run`
//! does: routes moved from the parser into the flat table). Each
//! iteration pays the first touch of a fresh 64 MiB stage-1 array, as a
//! process start does.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use eleph_bench::bench_table;
use eleph_bgp::dump::{read_dump, read_routes, write_dump};
use eleph_bgp::FrozenBgpTable;

fn bench_setup(c: &mut Criterion) {
    let mut dump = Vec::new();
    write_dump(&bench_table(100_000), &mut dump).expect("writing to a Vec");

    let mut group = c.benchmark_group("setup/rib_to_fib_100k");
    group.sample_size(10);
    group.bench_function("read_dump+freeze", |b| {
        b.iter(|| black_box(read_dump(black_box(&dump[..])).expect("own dump").freeze()))
    });
    group.bench_function("read_routes+from_routes", |b| {
        b.iter(|| {
            let routes = read_routes(black_box(&dump[..])).expect("own dump");
            black_box(FrozenBgpTable::from_routes(routes))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_setup);
criterion_main!(benches);
