//! The heap check of building a link, pinned as peak heap bytes from
//! the counting allocator (`eleph_tests::heap`), not as a timing. The
//! only test of its own binary, so the allocator sees no other test's
//! allocations.

use eleph_report::Scenario;
use eleph_tests::heap::{measure, Counting, BLOCK, WALK_STATE_BYTES};
use eleph_trace::FlowMeta;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Building a link generates its workload interval by interval straight
/// into the bandwidth matrix, so the link's rates are never held twice.
/// Pinned as peak heap bytes: `Scenario::build` raises the heap by at
/// most
///
/// * what it returns — the routing table and the matrix, slack
///   capacity included;
/// * the flow population, and the walk's generator state per flow;
/// * two blocks of 32 intervals' rows, each as wide as the widest
///   interval, at 8 B per `(flow, rate)`;
/// * one column of the matrix's entries, at 4 B each: the entry count is
///   known only once the walk ends, so the columns grow as rows arrive,
///   and the last growth of a column may copy it (the allocator counts
///   every reallocation as a copy).
///
/// A trace of the whole link held beside the matrix is a second copy of
/// every entry, and does not fit.
#[test]
fn building_a_link_never_holds_its_trace_beside_its_matrix() {
    let scenario = Scenario::west(3).scaled(0.05);
    let (data, heap) = measure(|| scenario.build());
    let rise = heap.peak;
    let kept = usize::try_from(heap.kept).expect("the build keeps what it returns");

    let m = &data.matrix;
    let entries: usize = (0..m.n_intervals()).map(|n| m.active(n)).sum();
    let widest = (0..m.n_intervals()).map(|n| m.active(n)).max().unwrap_or(0);
    let population = m.n_keys() * (size_of::<FlowMeta>() + WALK_STATE_BYTES);
    let blocks = 2 * BLOCK * widest * 8;
    let growth = entries * 4;
    let bound = kept + population + blocks + growth;
    assert!(
        rise < bound,
        "building the link raised the heap by {rise} bytes; it keeps {kept}, \
         and the population ({population}), two blocks of rows ({blocks}) and \
         one column's growth ({growth}) allow {bound}"
    );
}
