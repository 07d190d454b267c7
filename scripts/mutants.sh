#!/usr/bin/env bash
# The mutant table. Each patch under tests/mutants/ plants one small bug
# in the library. The script copies the working tree to a temporary
# directory, keeps one target dir there for every mutant, and for each
# patch: applies it with `git apply`, builds, runs the tests named below
# with --no-fail-fast, and reverts it. A test that fails kills the
# mutant. Before the first patch the same tests run on the unpatched
# copy, where every one must pass. A patch must apply at the very lines
# it was cut at: a hunk that lands at an offset, beside the line it was
# cut for, is stale, like one that does not apply.
#
# It prints one table, mutant x test -> killed (x) or not (.), and exits
# non-zero when a patch is stale or does not build, when a mutant
# survives every test, or, run with no argument (every patch), when the
# table differs from the committed tests/mutants/TABLE.md.
# Proptest seeds come from test names, so the table is the same from
# run to run.
#
# Usage: scripts/mutants.sh [PATCH...]
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)

# The tests every mutant runs against, each as package, target and the
# test's full name in that target: the model test and the fixed program
# beside it, then the unit and property tests that guard what the model
# cannot reach (the model streams one configuration; the batch sweep's
# sharing between configurations is held to the legacy replica, and the
# streaming classifier to the replica and across a resume, its window
# sums to the window's under sums that round), then the
# pairwise tests that compare two implementations and are still to retire
# against this table, the log a compaction starts against the log a first
# image writes, the self-contained image against its committed fixtures
# (no other column resumes from a version-6 image that holds a window),
# then the heap counts (what the serial path allocates
# per packet, per seal and per checkpoint image, and what the bounded-space
# paths hold at their peak), and last the keys a carried row order sorts
# over alike rows (a row order that sorts more gives the same bytes).
tests=(
    "eleph-tests --test model every_run_of_the_pipeline_is_the_model"
    "eleph-tests --test model a_re_announced_prefix_is_a_new_key_and_the_old_one_drains"
    "eleph-core --lib window::tests::the_stand_in_beats_the_interval_maximum_by_one"
    "eleph-core --lib online::tests::state_round_trip_continues_bit_identically"
    "eleph-core --lib threshold::tests::constant_load_flows_above_carry_beta"
    "eleph-core --lib sketch::tests::slot_heap_evicts_exactly_what_the_scan_did"
    "eleph-core --lib sketch::tests::a_restored_bloom_keeps_its_adapted_threshold"
    "eleph-core --lib sketch::tests::exact_dense_matches_reference_map"
    "eleph-core --lib tracker::tests::first_detection_initialises"
    "eleph-net --lib flat::tests::rib_order_sorts_stably_and_keeps_the_last_duplicate"
    "eleph-bgp --lib live::tests::replacing_announce_retires_old_id"
    "eleph-flow --lib aggregate::tests::rejects_are_counted_not_dropped"
    "eleph-pipeline --lib pipeline::tests::late_packets_are_counted_not_binned"
    "eleph-pipeline --lib shard::tests::sharded_row_is_exact_dense_at_every_step"
    "eleph-pipeline --lib checkpoint::tests::sketch_tail_mismatches_are_rejected"
    "eleph-pipeline --lib checkpoint::tests::log_bytes_past_the_watermark_are_ignored_by_load_and_cut_by_resume"
    "eleph-pipeline --lib checkpoint::tests::a_log_backed_image_loads_as_the_self_contained_one"
    "eleph-core --test props one_sweep_sharing_row_orders_and_window_scans_equals_the_legacy_replica"
    "eleph-core --test props batch_and_streaming_agree_across_a_checkpoint"
    "eleph-pipeline --lib pipeline::tests::matches_batch_on_mixed_stream"
    "eleph-pipeline --lib pipeline::tests::sharded_matches_serial_bit_for_bit"
    "eleph-pipeline --lib pipeline::tests::sharded_checkpoint_bytes_equal_serial_and_cross_resume"
    "eleph-pipeline --lib pipeline::tests::stats_match_batch_aggregator"
    "eleph-tests --test sketch_equivalence exact_backend_is_byte_identical_to_default_at_every_shard_count"
    "eleph-pipeline --lib checkpoint::tests::a_compacted_log_is_the_log_a_first_image_writes"
    "eleph-pipeline --lib checkpoint::tests::sample_images_equal_the_committed_fixtures"
    "eleph-tests --test alloc serial_ingest_allocates_nothing_per_packet"
    "eleph-tests --test alloc a_checkpoint_image_allocates_a_bounded_count"
    "eleph-tests --test alloc a_scheduled_batch_copies_no_page"
    "eleph-tests --test alloc live_heap_does_not_grow_with_the_intervals_observed"
    "eleph-tests --test alloc refine_each_and_coarsen_each_hold_one_interval"
    "eleph-tests --test build_alloc building_a_link_never_holds_its_trace_beside_its_matrix"
    "eleph-tests --test alloc table4_holds_less_than_the_matrix_it_re_measures"
    "eleph-tests --test session_alloc a_session_keeps_its_results_and_tables_and_one_walk"
    "eleph-core --lib threshold::tests::an_order_carried_over_alike_rows_sorts_about_as_deep_as_they_are_read"
)

if [ $# -eq 0 ]; then
    full=1
    patches=("$root"/tests/mutants/*.patch)
else
    full=0
    patches=()
    for p in "$@"; do
        patches+=("$(cd "$(dirname "$p")" && pwd)/$(basename "$p")")
    done
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
(cd "$root" && git ls-files -z --cached --others --exclude-standard \
    | tar --null --ignore-failed-read -T - -cf - 2> /dev/null) | tar -xf - -C "$work"
# A repository of its own, so `git apply` patches this copy and nothing
# around it.
git -C "$work" init -q
export CARGO_TARGET_DIR=$work/target
# The workspace denies dead code, and a mutant may leave code dead (one
# that deletes the only call of a function); a mutant is judged by the
# tests, so every build here, the unpatched one included, caps lints at
# warnings.
export RUSTFLAGS=--cap-lints=warn

# Cargo's arguments: each package and target once, then the names.
packages=() targets=() names=()
for t in "${tests[@]}"; do
    read -r package kind rest <<< "$t"
    [[ " ${packages[*]} " == *" -p $package "* ]] || packages+=(-p "$package")
    if [ "$kind" = --lib ]; then
        [[ " ${targets[*]} " == *" --lib "* ]] || targets+=(--lib)
        names+=("$rest")
    else
        read -r target name <<< "$rest"
        [[ " ${targets[*]} " == *" --test $target "* ]] || targets+=(--test "$target")
        names+=("$name")
    fi
done
cargo_test=(cargo test --no-fail-fast "${packages[@]}" "${targets[@]}")

# Build and run the tests in the copy as it stands; set `result[i]` to
# ok or FAILED for test i (empty when it reported nothing: its binary
# died). Returns 1 when the copy does not build.
declare -a result
run_tests() {
    (cd "$work" && "${cargo_test[@]}" --no-run) > "$work/build.log" 2>&1 || return 1
    (cd "$work" && timeout 600 "${cargo_test[@]}" -- --exact "${names[@]}") \
        > "$work/test.log" 2>&1 || true
    local i
    for i in "${!names[@]}"; do
        result[i]=$(sed -nE "s/^test ${names[i]}( - should panic)? \.\.\. (ok|FAILED)\$/\2/p" \
            "$work/test.log" | head -n 1)
    done
}

echo "mutants: building and running ${#names[@]} tests on the unpatched tree" >&2
if ! run_tests; then
    tail -n 30 "$work/build.log" >&2
    echo "mutants: the unpatched tree does not build" >&2
    exit 1
fi
for i in "${!names[@]}"; do
    if [ "${result[i]}" != ok ]; then
        echo "mutants: ${names[i]} does not pass on the unpatched tree (${result[i]:-no result})" >&2
        exit 1
    fi
done

header="| mutant |"
rule="|---|"
for i in "${!names[@]}"; do
    header+=" $((i + 1)) |"
    rule+=":-:|"
done
table=("$header" "$rule")
status=0
for patch in "${patches[@]}"; do
    mutant=$(basename "$patch" .patch)
    row="| \`$mutant\` |"
    # `git apply` takes a hunk at an offset and says so only under -v.
    if ! (cd "$work" && git apply --check -v "$patch") > "$work/apply.log" 2>&1 \
        || grep -qE "^Hunk #[0-9]+ succeeded at|Context reduced" "$work/apply.log"; then
        cat "$work/apply.log" >&2
        echo "mutants: $mutant no longer applies at its lines" >&2
        table+=("$row does not apply |")
        status=1
        continue
    fi
    echo "mutants: $mutant" >&2
    (cd "$work" && git apply "$patch")
    if run_tests; then
        killed=0
        for i in "${!names[@]}"; do
            if [ "${result[i]}" = ok ]; then
                row+=" . |"
            else
                row+=" x |"
                killed=$((killed + 1))
            fi
        done
        if [ "$killed" -eq 0 ]; then
            echo "mutants: $mutant survives every test" >&2
            status=1
        fi
    else
        tail -n 30 "$work/build.log" >&2
        echo "mutants: $mutant does not build" >&2
        row+=" does not build |"
        status=1
    fi
    table+=("$row")
    (cd "$work" && git apply -R "$patch")
done

{
    echo "# The mutant table"
    echo
    echo "Written by \`scripts/mutants.sh\`; do not edit. A row is a patch in"
    echo "\`tests/mutants/\`, a column a test below; \`x\`: the test fails with"
    echo "the patch applied (it kills the mutant), \`.\`: it passes."
    echo
    printf '%s\n' "${table[@]}"
    echo
    for i in "${!tests[@]}"; do
        read -r package kind rest <<< "${tests[i]}"
        if [ "$kind" = --lib ]; then
            echo "$((i + 1)). \`$package\` lib: \`$rest\`"
        else
            read -r target name <<< "$rest"
            echo "$((i + 1)). \`$package\` \`$target\`: \`$name\`"
        fi
    done
} > "$work/TABLE.md"
cat "$work/TABLE.md"

if [ "$full" -eq 1 ] && ! diff -u "$root/tests/mutants/TABLE.md" "$work/TABLE.md" >&2; then
    echo "mutants: the table differs from tests/mutants/TABLE.md" >&2
    status=1
fi
exit "$status"
