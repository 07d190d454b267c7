//! The heap check of a report session, pinned as peak heap bytes from
//! the counting allocator (`eleph_tests::heap`), not as a timing. The
//! only test of its own binary, so the allocator sees no other test's
//! allocations.

use std::collections::BTreeMap;
use std::sync::Arc;

use eleph_core::ClassificationResult;
use eleph_flow::BandwidthMatrix;
use eleph_report::experiments::EXPERIMENTS;
use eleph_report::{Lab, MatrixId, Need};
use eleph_tests::heap::{measure, Counting, BLOCK, WALK_STATE_BYTES};
use eleph_trace::FlowMeta;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap bytes behind one kept result: its allocation and its columns.
fn result_bytes(r: &ClassificationResult) -> usize {
    size_of::<[usize; 2]>()
        + size_of::<ClassificationResult>()
        + r.detector.capacity()
        + r.thresholds.capacity() * 8
        + r.raw_thresholds.capacity() * size_of::<Option<f64>>()
        + r.elephants.capacity() * size_of::<Vec<u32>>()
        + r.elephants.iter().map(|e| e.capacity() * 4).sum::<usize>()
        + r.elephant_load.capacity() * 8
        + r.total_load.capacity() * 8
}

/// A link as the session's bound sees it, measured on the side: the
/// heap its routing table keeps, its key count, the entries of its
/// widest interval and its matrix's column bytes.
struct Side {
    table: usize,
    keys: usize,
    widest: usize,
    columns: usize,
}

fn side(lab: &Lab, id: MatrixId) -> Side {
    let scenario = lab.scenario(id);
    let (table, heap) = measure(|| eleph_bgp::synth::generate(&scenario.table));
    let table_bytes = usize::try_from(heap.kept).expect("the table is kept");
    let m = BandwidthMatrix::from_workload(&scenario.workload, &table);
    let entries: usize = (0..m.n_intervals()).map(|n| m.active(n)).sum();
    Side {
        table: table_bytes,
        keys: m.n_keys(),
        widest: (0..m.n_intervals()).map(|n| m.active(n)).max().unwrap_or(0),
        // A key id and an f32 rate per entry.
        columns: entries * 8,
    }
}

/// A session holds no link whole: `eleph all` walks each link once and
/// keeps only what its experiments read. Pinned as peak heap bytes:
/// running every experiment at scale 0.05, seed 3 raises the heap by at
/// most
///
/// * what the session keeps — every finished result (its columns and
///   each interval's elephant list, at their capacities), both routing
///   tables, and each link's keys, totals and ever-active key set;
/// * one walk's state — the flow population with the generator's state
///   per flow, and two blocks of 32 intervals' rows (the generator's
///   and the one the walk is handing over), each row as wide as the
///   widest interval at 8 B per `(key, rate)`;
/// * the west walk's rings of rows, which latent heat retires from: the
///   last 24 native rows (the longest window asked, table 4's at 1
///   minute included) and the last 12 re-measured rows at 30 minutes,
///   each coarse row as wide as the link's key count;
/// * its key sums: one set per distinct latent-heat window of each
///   measurement — w = 1, 6, 12 and 24 at 5 minutes, 12 at 1 and at 30
///   minutes — at 8 B of sum and 4 B of count per key, plus a bit.
///
/// Both links' bandwidth matrices held at once, as a session that built
/// them did, do not fit: their columns alone are more than the walk's
/// state, the rings and the sums together.
#[test]
fn a_session_keeps_its_results_and_tables_and_one_walk() {
    let lab = Lab::new(0.05, 3);
    let [west, east] = [MatrixId::West, MatrixId::East].map(|id| side(&lab, id));

    // `eleph all`'s session: every experiment's needs, one walk per
    // link, then the experiments.
    let (needs, heap) = measure(|| {
        let needs: Vec<Need> = EXPERIMENTS
            .iter()
            .flat_map(|(_, needs, _)| needs(&lab))
            .collect();
        lab.prepare(&needs);
        for (id, _, experiment) in EXPERIMENTS {
            experiment(&lab).unwrap_or_else(|e| panic!("{id}: {e}"));
        }
        needs
    });
    let rise = heap.peak;
    assert_eq!(lab.counters().walks, 2, "each link walked once");

    let mut kept: BTreeMap<*const ClassificationResult, usize> = BTreeMap::new();
    for need in &needs {
        if let Need::Result(job) = *need {
            let [result]: [Arc<ClassificationResult>; 1] =
                lab.results(&[job]).try_into().expect("one job");
            kept.insert(Arc::as_ptr(&result), result_bytes(&result));
        }
    }
    let results: usize = kept.values().sum();
    let links: usize = [&west, &east]
        .iter()
        .map(|link| {
            // Keys, totals (one per 5-min interval) and an ever-active bit.
            link.table + link.keys * (size_of::<eleph_net::Prefix>() + 1) + 336 * 8
        })
        .sum();
    let row = west.widest.max(east.widest) * 8;
    let keys = west.keys.max(east.keys);
    let walk = keys * (size_of::<FlowMeta>() + WALK_STATE_BYTES) + 2 * BLOCK * row;
    let rings = 24 * row + 12 * west.keys * 8;
    let sums = 6 * west.keys * (8 + 4) + 6 * west.keys / 8;
    let bound = results + links + walk + rings + sums;
    assert!(
        rise < bound,
        "the session raised the heap by {rise} bytes; its results ({results}), links \
         ({links}), one walk ({walk}), rings ({rings}) and key sums ({sums}) allow {bound}"
    );
    // Both matrices beside the results and tables would not fit.
    let matrices = west.columns + east.columns;
    assert!(
        results + links + matrices > bound,
        "the bound ({bound}) would hold both matrices ({matrices}) beside what the session keeps"
    );
}
