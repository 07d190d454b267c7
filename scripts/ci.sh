#!/usr/bin/env bash
# The repository's verification gate, in the order a reviewer should
# trust it:
#
#   1. tier-1: release build + full test suite (see ROADMAP.md), which
#      also denies dead code and unreachable `pub` items in the eight
#      library crates (the root Cargo.toml's lints table); then
#      `cargo fmt --check`: the workspace is rustfmt-clean, and `cargo
#      clippy -D warnings` over every target: clippy-clean, each lint
#      a fix would answer with dead code allowed by name at its item,
#      with the reason (`benchmark/` is a workspace of its own and is
#      checked by neither);
#   2. classifier equivalence: the one per-interval step against the
#      legacy-replica oracle, classify_many and one sweep of several
#      detectors and windows against independent classify runs, one
#      sweep sharing each row's order and each window's scan against the
#      replica, constant-load detection on an order shared by several
#      β and carried across unlike rows against a full sort, the keys a
#      carried order sorts over alike rows (a recorded count: sorting
#      more changes no byte, so only this count sees it), the window
#      sums' invariants, and the streaming classifier
#      (the one driver with one configuration) against the replica and
#      resumed by bits across an export/resume, with its checks of a
#      checkpointed state — the properties that license
#      every classifier change (already part of tier-1; re-run by name
#      so a failure is attributed immediately);
#   3. model equivalence: the pipeline against the executable model of
#      the paper (`tests/src/model.rs`) over random programs — packets,
#      gaps, malformed and late records, route-update batches, random
#      chunking — under every scheme, a detector that abstains, 0 to 3
#      shard workers and the exact or a roomy Space-Saving row, each cut
#      at a random seal by a failing sink, left with the debris a killed
#      checkpoint writer leaves, and resumed, possibly at another shard
#      count: outcomes by `to_bits`, keys, accounting, the JSONL chain and
#      the checkpoint images all equal (part of tier-1; re-run by name so
#      a failure is attributed immediately);
#   4. executables: examples build and the packet-path ones smoke-run,
#      and `eleph run` streams a tiny synthetic workload to JSONL;
#   5. crash safety: a checkpointed `eleph run` is SIGKILLed mid-capture
#      and resumed with `--resume`; the recovered JSONL must be
#      byte-identical to an uninterrupted reference run (no duplicated,
#      no missing interval records), and the checkpoint directory the
#      recovered run ends on — the image `eleph.ckpt` and its log
#      `eleph.N.log` — must be identical, file for file and byte for
#      byte (`diff -r`), to the one the reference run, checkpointing
#      into a directory of its own, ends on (recovery converges on the
#      same image and log, the log's name included, not only the same
#      output). The kill waits for the first checkpoint file, so there is
#      always a snapshot to resume from, and the gate fails if the victim
#      was not killed mid-run (exit by SIGKILL with intervals still to
#      seal): a run that finished first proves nothing about recovery;
#      and each directory must hold exactly the image and the one log it
#      names — no `eleph.ckpt.tmp` and no log left by a compaction — so
#      no image was still in flight on the writer thread when a run
#      exited and every log the image stopped naming was deleted;
#   6. churn determinism: `eleph churn` generates a route-update
#      schedule, the same capture is streamed twice with `--rib-updates`
#      replaying that schedule mid-stream, and the two JSONL outputs
#      must be byte-for-byte identical (update replay is a function of
#      packet timestamps, never of IO chunking or wall-clock);
#   7. shard equivalence: the same capture streamed serially, at
#      `--shards 1` and at `--shards 4` must produce byte-for-byte
#      identical JSONL (sharding is a throughput knob, never a
#      measurement change), the model test, which draws shard counts, is
#      re-run single-threaded (`RUST_TEST_THREADS=1`) so worker/test-harness
#      interleavings cannot mask an ordering bug, and
#      the sharded row is held to the dense row as a state backend, step
#      by step;
#   8. sketch tier: every state backend (exact, spacesaving, cmrow,
#      bloom) streams the same seeded synthetic capture twice and the
#      two JSONL outputs must be byte-identical (sketches are
#      deterministic functions of the stream, never of hashing luck or
#      allocation order) — at the default 1 MiB budget, where nothing is
#      ever evicted, and for spacesaving and cmrow again at
#      `--state-budget 4096` (64 entries / 32 candidates under 500
#      flows), where most misses evict; `eleph sketch` runs the
#      exact-oracle accuracy harness end to end, asserting recall >= 0.95
#      at the default budget on the west lab scenario;
#   9. benchmark crate: `benchmark/` is its own workspace, so nothing
#      above compiles it — the repository's one perf harness. Build it
#      against the current `crates/*` API in release (thin LTO, as it is
#      built to measure) and run its unit tests (`BENCHMARK.json` ≡ the
#      crate's tables), so an API change that breaks it — or a break that
#      only shows in a release build — fails here and not when it runs.
#      The committed `benchmark/Cargo.lock` is stale and the build
#      rewrites it, so it is copied aside first and put back when the
#      script exits, green or not;
#  10. start-up path: the RIB/update-stream reader against its
#      `lines()`/`split`/`str::parse` oracle (differential + mutation
#      proptest) and against itself cut into 2, 3 and 7 pieces (and at
#      every line boundary, and over a read that fails part-way); the
#      striped table paint, which both tables use, against the serial
#      one it replaced (`FlatLpm` and `EpochLpm` each at 1, 2, 3 and 8
#      stripes, the epoch table page for page before and after random
#      updates; `EpochLpm::from_entries` against insert + whole-range
#      repaint); a live table written in place unless a pinned snapshot
#      shares the page, and every pinned generation resolving as its
#      own RIB frozen, across in-place and copied batches; the flat
#      table against the linear-scan oracle;
#      the one-pass table constructors against a `BgpTable`'s freeze;
#      the generated inputs — the default synthetic RIB's dump and a
#      scenario's flow addresses — against their recorded length and
#      CRC-32, and the address sampler against its linear-scan
#      definition, draw for draw; `eleph run --pcap --rib` (static and live, with a
#      resume) against the library calls, byte for byte; and a missing
#      input named by its flag and path, a piped capture read as the
#      file is — all part of tier-1; re-run by name so a failure is
#      attributed immediately;
#  11. sketch eviction: the slot heap against the linear scan it
#      replaced (differential proptest over record / seal / export →
#      restore programs), its work per record as a step count on three
#      adversarial streams, and checkpoint/resume with the cut placed
#      after the open interval's first eviction (a roomy summary never
#      evicts, so the model test cannot reach this) — all part of tier-1;
#      re-run by name so a failure is attributed immediately;
#  12. checkpoint bytes: the two sample images (exact and sketch
#      backend, each decoding to a state a resume accepts) against their
#      committed version-6 fixtures, and the checkpoint directory six
#      seeded `eleph run --synth` command lines end on (the version-5
#      image and its log) against lengths and CRCs recorded before
#      self-contained images carried their log, each loaded checkpoint's
#      self-contained re-encoding reading back as itself; every field
#      round-tripping through a version-6 image, exact or sketch, an
#      image of version 2, 3 or 4 refused naming its version, a state
#      backend tag that disagrees with the bytes behind it refused,
#      `crc32` against the bytewise loop it replaced, the in-place encoder
#      against the copying assembly it replaced (random captures x
#      scheme x state backend x engine), one
#      `Checkpointer` buffer reused for a large image and then a small
#      one, a resumed run's cadence and files against the uninterrupted
#      run's (that an image at a cut is the uninterrupted run's, byte
#      for byte, is gate 3's), a resume refusing a pipeline that differs
#      in any one fingerprint field with a mismatch naming that field,
#      and an image the writer thread cannot write (or a writer thread
#      that is gone) failing the run with the typed I/O error, in the
#      library and as `eleph run`'s exit status 1; then the log: an
#      image and its log loading as the self-contained image of the same
#      moment, the log a self-contained image holds equal to the log a
#      first image writes, every flipped log byte and every truncation
#      below the watermark a typed error, bytes past it ignored by a
#      load and cut by a resume, a missing log an I/O error naming it,
#      its counts bounded by its length, the log a compaction starts
#      equal to the
#      log a first image writes for the same pipeline, byte for byte,
#      and what an image puts on disk following what changed since the
#      image before, not what the run has seen —
#      all part of tier-1; re-run by name so a format drift or a lost
#      write error is attributed immediately;
#  13. thread count: start-up parses the RIB and paints either table
#      (`FlatLpm` for a static run, `EpochLpm` for a live one) striped
#      over every core, so `eleph run --pcap --rib` over the `capture_files`
#      example's inputs (static, then live with `--rib-updates` and
#      `--checkpoint-every 1`) runs once under `taskset -c 0` and once
#      unrestricted, and the JSONL, the final checkpoint directory
#      (`diff -r`: the image and the one log it names, which is all
#      either directory may hold) and the summary's `"checkpoints":N`
#      must be identical — the image count, the log and its compactions
#      depend neither on cores nor on the writer thread's timing
#      (without `taskset` the pinned runs are skipped,
#      and the gate says so); the capture is also piped through
#      `cat … | eleph run --pcap /dev/stdin` without `--start-unix`, and
#      its JSONL must equal the file run's;
#  14. paper tables: `eleph all`'s stdout and eleven CSVs at `--scale
#      0.05` against the length and CRC-32 recorded before matrices were
#      built in place; the rate trace's rows for the west link at scale
#      0.3 against the length and CRC-32 recorded before it was walked
#      interval by interval; the walk at block sizes 1, 7 and the whole
#      trace on 1 to 4 threads against `RateTrace::generate`'s rows
#      (proptest, by bits), a matrix generated straight from the
#      workload against one read from the generated trace (columns and
#      totals by bits), and an empty interval's total `+0.0` in the
#      trace as in the matrix; the walkers `refine_each` /
#      `coarsen_each`, which
#      hand over re-measured intervals one at a time through the row
#      adapters `Refine` / `Coarsen` and build no matrix, against a
#      row-at-a-time oracle (differential proptest); classification
#      streamed over their rows against batch `classify` over the same
#      rows as a matrix (proptest, by bits); the session's planned walk
#      against `classify` over each link's matrix, for random sets of
#      jobs and a job asked after the walk (`planned_walk`, proptest,
#      every column by bits); the heap counts over one counting
#      allocator (`tests/src/heap.rs`), in three binaries
#      (`tests/tests/{alloc,build_alloc,session_alloc}.rs`; each test of
#      `alloc` runs alone in a process of its own): once warm, the
#      serial exact path makes 0 allocation calls per packet over more
#      than 100 000 packets, at most 10 per seal and at most 11 per
#      checkpoint image (28 for one that compacts); a mid-stream batch
#      of 64 announces into 64 painted pages allocates under 32 pages'
#      worth (the live table is written in place); the streaming
#      classifier's live heap is the same after 20 000 intervals as
#      after 2 000 (no per-interval threshold record); and the peak heap
#      of the walkers (one interval's scratch, never the re-measured
#      entries), of a link's build (never the trace beside the matrix),
#      of table 4 (less than the west matrix's own columns) and of the
#      whole `eleph all` session at scale 0.05 (the results it keeps,
#      both tables, one walk, the rings and the key sums — never both
#      matrices);
#      `Ecdf`'s integer sort and `aest` against
#      the comparator sort, and `aest` on a non-finite sample (both
#      crate-private in `eleph-core`, beside the detectors) — all part
#      of tier-1; re-run by name so a failure is attributed immediately;
#      then `eleph all --scale 0.05 --seed 3` runs once
#      under `taskset -c 0` and once unrestricted (trace generation uses
#      every core) and stdout and
#      every CSV must be byte-identical (without `taskset` the pinned
#      run is skipped, and the gate says so);
#  15. doc links: `cargo doc` over the workspace with broken and
#      private intra-doc links denied, so a public doc that names a
#      deleted, moved or crate-private item (`eleph-core`'s `aest`,
#      `Ecdf` and `ThresholdSeries`) fails here;
#  16. mutants: `scripts/mutants.sh` on five of the patches in
#      `tests/mutants/`, one each in the window sums' rounded mark, the
#      batch sweep's shared row order (killed by its sort count alone),
#      the pipeline, the checkpoint log and a sketch: each applied alone
#      to a copy of
#      the tree, it must still apply at the lines it was cut at (no
#      hunk at an offset) and build, and some test must kill
#      it (every patch, against `tests/mutants/TABLE.md`, is
#      `scripts/mutants.sh` with no argument).
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== format: cargo fmt --check =="
cargo fmt --all --check

echo "== lint: cargo clippy -D warnings =="
cargo clippy --workspace --all-targets --no-deps -- -D warnings

echo "== classifier equivalence: dense vs legacy, classify_many vs classify, shared sweep vs legacy, streaming vs legacy and across a resume =="
cargo test -q -p eleph-core --test props -- \
    dense_classify_matches_legacy_reference \
    classify_many_equals_independent_classifies \
    one_sweep_of_many_detectors_and_windows_equals_independent_classifies \
    one_sweep_sharing_row_orders_and_window_scans_equals_the_legacy_replica \
    constant_load_on_a_shared_order_equals_a_full_sort \
    exact_retire_keeps_epsilon_scale_microflow \
    adversarial_magnitudes_leave_no_stale_state \
    batch_and_streaming_agree_across_a_checkpoint
cargo test -q -p eleph-core --lib -- --exact \
    threshold::tests::an_order_carried_over_alike_rows_sorts_about_as_deep_as_they_are_read
cargo test -q -p eleph-core --lib online::
cargo test -q -p eleph-core --lib window::

echo "== model equivalence: the pipeline vs the executable model, across a cut and resume =="
cargo test -q -p eleph-tests --test model

echo "== examples build + packet-path smoke runs =="
cargo build --release -p eleph-tests --examples
cargo run -q --release -p eleph-tests --example quickstart > /dev/null
cargo run -q --release -p eleph-tests --example link_report > /dev/null

echo "== eleph run: tiny synthetic workload to JSONL =="
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
cargo run -q --release -p eleph-report --bin eleph -- \
    run --synth --flows 200 --intervals 4 --interval-secs 20 --prefixes 2000 \
    --out "$tmpdir/run.jsonl" 2> /dev/null
[ "$(wc -l < "$tmpdir/run.jsonl")" -eq 4 ] \
    || { echo "eleph run: expected 4 JSONL intervals" >&2; exit 1; }

echo "== crash safety: SIGKILL a checkpointed run, resume, diff against reference =="
eleph=target/release/eleph
# A checkpoint directory a run has finished with holds exactly the image
# and the one log it names: no temp image (eleph.ckpt.tmp, the one temp
# name the checkpointer uses) and no log a compaction or an earlier image
# left behind.
check_ckpt_dir() {
    local dir=$1 gate=$2 files log
    files=$(ls -A "$dir" | sort | tr '\n' ' ')
    log=$(ls -A "$dir" | grep -E '^eleph\.[0-9]+\.log$' || true)
    [ "$files" = "$log eleph.ckpt " ] && grep -qaF "$log" "$dir/eleph.ckpt" \
        || { echo "$gate: $dir holds: $files— not eleph.ckpt and the one log it names" >&2; exit 1; }
}
# Sized to outlive its first checkpoint by seconds, not milliseconds:
# one snapshot per interval, 900 of them, each encoded and put on disk
# (log append + fsync, image write + fsync + rename) by the writer
# thread while the next interval streams, at most one in flight.
crash_intervals=900
crash_args=(run --synth --flows 2000 --intervals "$crash_intervals" --interval-secs 20
    --prefixes 2000)
"$eleph" "${crash_args[@]}" --out "$tmpdir/crash_ref.jsonl" \
    --checkpoint-dir "$tmpdir/ckpt_ref" 2> /dev/null
# The binary is killed directly (not through cargo, which would orphan
# the child and absorb the signal).
"$eleph" "${crash_args[@]}" --out "$tmpdir/crash.jsonl" \
    --checkpoint-dir "$tmpdir/ckpt" 2> /dev/null &
victim=$!
until [ -e "$tmpdir/ckpt/eleph.ckpt" ]; do
    kill -0 "$victim" 2> /dev/null \
        || { echo "crash safety: victim exited before its first checkpoint" >&2; exit 1; }
    sleep 0.01
done
# A few more intervals, so the kill is not always at the same seal.
sleep 0.05
kill -9 "$victim" 2> /dev/null || true
wait "$victim" 2> /dev/null && victim_status=0 || victim_status=$?
durable=$(wc -l < "$tmpdir/crash.jsonl")
echo "   victim exit status $victim_status, $durable of $crash_intervals intervals durable"
[ "$victim_status" -eq 137 ] && [ "$durable" -lt "$crash_intervals" ] \
    || { echo "crash safety: victim was not killed mid-run; raise crash_intervals" >&2; exit 1; }
"$eleph" "${crash_args[@]}" --out "$tmpdir/crash.jsonl" \
    --checkpoint-dir "$tmpdir/ckpt" --resume 2> /dev/null
diff "$tmpdir/crash.jsonl" "$tmpdir/crash_ref.jsonl" \
    || { echo "crash safety: resumed output diverges from reference" >&2; exit 1; }
for ck in ckpt ckpt_ref; do
    check_ckpt_dir "$tmpdir/$ck" "crash safety"
done
diff -r "$tmpdir/ckpt" "$tmpdir/ckpt_ref" \
    || { echo "crash safety: resumed run ends on a different checkpoint directory than the reference" >&2; exit 1; }

echo "== churn determinism: replay the same update schedule twice, diff JSONL =="
"$eleph" churn --prefixes 2000 --seed 9 --start-unix 995990400 \
    --out "$tmpdir/updates.txt" 2> /dev/null
churn_args=(run --synth --flows 200 --intervals 30 --interval-secs 20 --prefixes 2000
    --rib-updates "$tmpdir/updates.txt")
"$eleph" "${churn_args[@]}" --out "$tmpdir/churn1.jsonl" 2> "$tmpdir/churn1.summary"
"$eleph" "${churn_args[@]}" --out "$tmpdir/churn2.jsonl" 2> "$tmpdir/churn2.summary"
cmp "$tmpdir/churn1.jsonl" "$tmpdir/churn2.jsonl" \
    || { echo "churn determinism: JSONL outputs diverge" >&2; exit 1; }
# The summary's timing fields (route_update_secs, setup_secs,
# elapsed_secs, throughput, pps) are wall-clock measurements —
# legitimately different between runs; every other field must reproduce
# exactly.
strip_timing='s/"route_update_secs":[0-9.]*,/ROUTE_TIMING,/;s/"setup_secs":[0-9.]*,"elapsed_secs":[0-9.]*,"throughput_bytes_per_sec":[0-9.]*,"packets_per_sec":[0-9.]*/TIMING/'
diff <(sed -E "$strip_timing" "$tmpdir/churn1.summary") \
     <(sed -E "$strip_timing" "$tmpdir/churn2.summary") \
    || { echo "churn determinism: summaries diverge" >&2; exit 1; }
grep -q 'ROUTE_TIMING,.*[^_]TIMING' <(sed -E "$strip_timing" "$tmpdir/churn1.summary") \
    || { echo "churn determinism: summary lost its timing fields" >&2; exit 1; }
grep -q '"route_updates":0' "$tmpdir/churn1.summary" \
    && { echo "churn determinism: no update batch was applied mid-stream" >&2; exit 1; }

echo "== shard equivalence: serial vs --shards 1 vs --shards 4, byte-for-byte JSONL =="
shard_args=(run --synth --flows 500 --intervals 12 --interval-secs 20 --prefixes 2000)
"$eleph" "${shard_args[@]}" --out "$tmpdir/shards0.jsonl" 2> /dev/null
"$eleph" "${shard_args[@]}" --shards 1 --out "$tmpdir/shards1.jsonl" 2> "$tmpdir/shards1.summary"
"$eleph" "${shard_args[@]}" --shards 4 --out "$tmpdir/shards4.jsonl" 2> "$tmpdir/shards4.summary"
cmp "$tmpdir/shards0.jsonl" "$tmpdir/shards1.jsonl" \
    || { echo "shard equivalence: --shards 1 diverges from serial" >&2; exit 1; }
cmp "$tmpdir/shards0.jsonl" "$tmpdir/shards4.jsonl" \
    || { echo "shard equivalence: --shards 4 diverges from serial" >&2; exit 1; }
grep -q '"shards":4' "$tmpdir/shards4.summary" \
    || { echo "shard equivalence: summary does not record the shard count" >&2; exit 1; }

echo "== shard equivalence: the model test single-threaded (RUST_TEST_THREADS=1) =="
RUST_TEST_THREADS=1 cargo test -q -p eleph-tests --test model
cargo test -q -p eleph-pipeline --lib shard::tests::sharded_row_is_exact_dense_at_every_step

echo "== sketch tier: per-backend determinism, byte-for-byte JSONL =="
sketch_args=(run --synth --flows 500 --intervals 12 --interval-secs 20 --prefixes 2000)
for backend in exact spacesaving cmrow bloom; do
    "$eleph" "${sketch_args[@]}" --state "$backend" \
        --out "$tmpdir/state_${backend}_a.jsonl" 2> /dev/null
    "$eleph" "${sketch_args[@]}" --state "$backend" \
        --out "$tmpdir/state_${backend}_b.jsonl" 2> "$tmpdir/state_${backend}.summary"
    cmp "$tmpdir/state_${backend}_a.jsonl" "$tmpdir/state_${backend}_b.jsonl" \
        || { echo "sketch tier: --state $backend is not deterministic" >&2; exit 1; }
    grep -q "\"state\":\"$backend\"" "$tmpdir/state_${backend}.summary" \
        || { echo "sketch tier: summary does not record --state $backend" >&2; exit 1; }
done
cmp "$tmpdir/state_exact_a.jsonl" "$tmpdir/shards0.jsonl" 2> /dev/null \
    || { echo "sketch tier: --state exact diverges from the default path" >&2; exit 1; }

echo "== sketch tier: the same under eviction (--state-budget 4096) =="
for backend in spacesaving cmrow; do
    "$eleph" "${sketch_args[@]}" --state "$backend" --state-budget 4096 \
        --out "$tmpdir/tight_${backend}_a.jsonl" 2> /dev/null
    "$eleph" "${sketch_args[@]}" --state "$backend" --state-budget 4096 \
        --out "$tmpdir/tight_${backend}_b.jsonl" 2> "$tmpdir/tight_${backend}.summary"
    cmp "$tmpdir/tight_${backend}_a.jsonl" "$tmpdir/tight_${backend}_b.jsonl" \
        || { echo "sketch tier: --state $backend is not deterministic under eviction" >&2; exit 1; }
    grep -q '"state_bytes":4096' "$tmpdir/tight_${backend}.summary" \
        || { echo "sketch tier: summary does not record the 4096-byte budget" >&2; exit 1; }
    cmp -s "$tmpdir/tight_${backend}_a.jsonl" "$tmpdir/state_${backend}_a.jsonl" \
        && { echo "sketch tier: a 4096-byte $backend run equals the 1 MiB one: nothing was evicted" >&2; exit 1; }
done

echo "== sketch tier: exact-oracle accuracy harness (recall >= 0.95 at default budget) =="
"$eleph" sketch > "$tmpdir/sketch.table" 2> "$tmpdir/sketch.summary"
grep eleph_sketch "$tmpdir/sketch.summary" | tr ',{' '\n\n' \
    | awk -F: '/^"min_recall"/ {
          found = 1
          if ($2 + 0 < 0.95) { print "sketch tier: min_recall " $2 " < 0.95" > "/dev/stderr"; exit 1 }
      }
      END { if (!found) { print "sketch tier: no min_recall in summary" > "/dev/stderr"; exit 1 } }'
grep -q '"exact_bit_identical":true' "$tmpdir/sketch.summary" \
    || { echo "sketch tier: exact pin missing from harness summary" >&2; exit 1; }

echo "== benchmark crate: builds against crates/* (release too), BENCHMARK.json == its tables =="
echo "   the committed benchmark/Cargo.lock is stale (ROADMAP item 1 regenerates it):"
echo "   the build rewrites it, and it is restored when this script exits"
cp benchmark/Cargo.lock "$tmpdir/benchmark.Cargo.lock"
trap 'cp "$tmpdir/benchmark.Cargo.lock" benchmark/Cargo.lock; rm -rf "$tmpdir"' EXIT
cargo build -q --release --manifest-path benchmark/Cargo.toml
cargo test -q --manifest-path benchmark/Cargo.toml

echo "== start-up path: dump reader vs oracle, striped paint, in-place apply, from_routes vs freeze, generated inputs, eleph run --pcap --rib vs library =="
cargo test -q -p eleph-bgp --lib dump::tests::differential
cargo test -q -p eleph-bgp --lib -- \
    dump::tests::a_failing_read_fails_alike_in_every_piece_count \
    dump::tests::pieces_end_at_line_ends_and_know_their_first_line \
    dump::tests::a_dump_cut_at_every_line_boundary_reads_as_one
cargo test -q -p eleph-net --lib -- \
    flat::tests::stripe_count_never_reaches_ \
    epoch::tests::from_entries_ \
    epoch::tests::from_entries_striped_is_one_table_at_every_stripe_count \
    epoch::tests::apply_writes_in_place_unless_a_snapshot_is_pinned
cargo test -q -p eleph-net --test props -- \
    epoch_deltas_equal_fresh_freeze \
    pinned_generations_stay_exact_across_in_place_and_copied_batches \
    flat_lpm_agrees_with_linear
cargo test -q -p eleph-tests --test generated_inputs -- \
    sample_unshadowed_addr_equals_the_linear_oracle \
    synth_table_and_flow_addresses_equal_their_recorded_length_and_crc
cargo test -q -p eleph-bgp --test from_routes
cargo test -q -p eleph-tests --test cli_default_path
cargo test -q -p eleph-report --test cli_usage

echo "== sketch eviction: slot heap vs scan oracle, step count, resume under eviction =="
cargo test -q -p eleph-core --lib sketch::tests::slot_heap
cargo test -q -p eleph-tests --test sketch_equivalence \
    sketch_checkpoint_resume_is_bit_identical_under_eviction

echo "== checkpoint bytes: fixtures, crc32 vs bytewise, in-place vs copying encoder, buffer reuse, resume cadence, fingerprint refusals, failed writes, the log, compaction, bytes per image =="
cargo test -q -p eleph-pipeline --lib -- \
    checkpoint::tests::sample_images_equal_the_committed_fixtures \
    checkpoint::tests::a_version_4_image_is_a_format_error_naming_its_version \
    checkpoint::tests::sketch_tail_mismatches_are_rejected \
    checkpoint::tests::round_trip_preserves_every_field \
    checkpoint::tests::sketch_round_trip_is_version_6 \
    checkpoint::tests::the_inline_log_is_the_log_a_first_image_writes \
    checkpoint::tests::crc32_ \
    checkpoint::tests::in_place_image_equals_the_copying_oracle \
    checkpoint::tests::a_reused_buffer_holds_only_the_new_image \
    checkpoint::tests::a_dead_writer_is_an_io_error_not_a_hang \
    checkpoint::tests::a_log_backed_image_loads_as_the_self_contained_one \
    checkpoint::tests::every_flipped_log_byte_below_the_watermark_is_rejected \
    checkpoint::tests::every_log_truncation_below_the_watermark_is_a_format_error \
    checkpoint::tests::log_bytes_past_the_watermark_are_ignored_by_load_and_cut_by_resume \
    checkpoint::tests::a_missing_log_is_an_io_error_naming_its_path \
    checkpoint::tests::log_counts_are_bounded_by_the_log \
    checkpoint::tests::a_compacted_log_is_the_log_a_first_image_writes
cargo test -q -p eleph-tests --test checkpoint_restore -- \
    synthetic_run_checkpoints_equal_their_recorded_length_and_crc \
    resumed_run_keeps_the_uninterrupted_cadence \
    resume_refuses_every_fingerprint_field_by_name \
    a_failed_image_write_is_a_typed_error \
    checkpoint_bytes_follow_what_changed
cargo test -q -p eleph-report --test cli_usage an_unwritable_checkpoint_exits_1_naming_its_path

echo "== thread count: one core vs every core, and a piped capture, byte-for-byte =="
cargo run -q --release -p eleph-tests --example capture_files -- "$tmpdir/in" > /dev/null
in=$tmpdir/in
# No --start-unix: the window is anchored at the first record.
file_args=(--rib "$in/c.rib" --interval-secs 10 --intervals 12)
static_args=(run --pcap "$in/c.pcap" "${file_args[@]}")
live_args=("${static_args[@]}" --rib-updates "$in/churn.txt" --checkpoint-every 1)
pins=(all)
if command -v taskset > /dev/null; then
    pins+=(one)
else
    echo "   taskset not found: the one-core runs are skipped"
fi
for pin in "${pins[@]}"; do
    pin_cmd=()
    [ "$pin" = one ] && pin_cmd=(taskset -c 0)
    "${pin_cmd[@]}" "$eleph" "${static_args[@]}" --out "$tmpdir/static_$pin.jsonl" 2> /dev/null
    "${pin_cmd[@]}" "$eleph" "${live_args[@]}" --checkpoint-dir "$tmpdir/ck_$pin" \
        --out "$tmpdir/live_$pin.jsonl" 2> "$tmpdir/live_$pin.summary"
done
grep -q '"route_updates":0' "$tmpdir/live_all.summary" \
    && { echo "thread count: no update batch was applied mid-stream" >&2; exit 1; }
for pin in "${pins[@]}"; do
    check_ckpt_dir "$tmpdir/ck_$pin" "thread count"
done
if [ "${#pins[@]}" -eq 2 ]; then
    for f in static_one.jsonl live_one.jsonl; do
        cmp "$tmpdir/$f" "$tmpdir/${f//one/all}" \
            || { echo "thread count: $f differs between one core and every core" >&2; exit 1; }
    done
    diff -r "$tmpdir/ck_one" "$tmpdir/ck_all" \
        || { echo "thread count: the checkpoint directory differs between one core and every core" >&2; exit 1; }
    images() { grep -o '"checkpoints":[0-9]*' "$tmpdir/live_$1.summary"; }
    [ -n "$(images all)" ] && [ "$(images one)" = "$(images all)" ] \
        || { echo "thread count: image count $(images one) on one core, $(images all) on every core" >&2; exit 1; }
fi
cat "$in/c.pcap" | "$eleph" run --pcap /dev/stdin "${file_args[@]}" \
    --out "$tmpdir/piped.jsonl" 2> /dev/null
cmp "$tmpdir/piped.jsonl" "$tmpdir/static_all.jsonl" \
    || { echo "thread count: the piped capture diverges from the file run" >&2; exit 1; }

echo "== paper tables: recorded bytes, the interval walk, streamed re-measurement, the planned walk, heap counts, Ecdf sort, one core vs every core =="
cargo test -q -p eleph-report --test session all_output_equals_its_recorded_length_and_crc
cargo test -q -p eleph-tests --test generated_inputs rate_trace_rows_equal_their_recorded_length_and_crc
cargo test -q -p eleph-trace --lib -- \
    rate::tests::walk_at_every_block_size_gives_the_generated_rows \
    rate::tests::an_empty_interval_totals_positive_zero
cargo test -q -p eleph-flow --lib matrix::tests::from_workload_equals_the_generated_trace_by_bits
cargo test -q -p eleph-flow --lib matrix::tests::refine_and_coarsen_equal_the_row_oracle
cargo test -q -p eleph-core --test props streamed_remeasurement_equals_batch_over_its_rows
cargo test -q -p eleph-report --test planned_walk planned_walk_equals_classify_over_the_matrix
cargo test -q -p eleph-tests --test alloc --test build_alloc --test session_alloc
cargo test -q -p eleph-core --lib -- \
    ecdf::tests::integer_sort_equals_the_comparator_sort \
    aest::tests::integer_sorted_levels_give_the_comparator_sorts_result \
    aest::tests::a_non_finite_sample_is_a_typed_error
eleph_abs=$(pwd)/$eleph
if command -v taskset > /dev/null; then
    pins=(all one)
else
    pins=(all)
    echo "   taskset not found: the one-core run is skipped"
fi
for pin in "${pins[@]}"; do
    pin_cmd=()
    [ "$pin" = one ] && pin_cmd=(taskset -c 0)
    mkdir -p "$tmpdir/paper_$pin"
    (cd "$tmpdir/paper_$pin" \
        && "${pin_cmd[@]}" "$eleph_abs" all --scale 0.05 --seed 3 > stdout.txt)
done
[ "$(find "$tmpdir/paper_all/target/experiments" -name '*.csv' | wc -l)" -eq 11 ] \
    || { echo "paper tables: eleph all did not write eleven CSVs" >&2; exit 1; }
if [ "${#pins[@]}" -eq 2 ]; then
    diff -r "$tmpdir/paper_one" "$tmpdir/paper_all" \
        || { echo "paper tables: eleph all differs between one core and every core" >&2; exit 1; }
fi

echo "== doc links: no broken or private intra-doc link in the workspace =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc -q --no-deps --workspace

echo "== mutants: five patches, each killed by the model, a unit or a property test =="
scripts/mutants.sh \
    tests/mutants/38-a-rounded-key-loses-its-mark.patch \
    tests/mutants/37-row-order-sized-by-what-it-sorted.patch \
    tests/mutants/07-malformed-records-left-out-of-offered.patch \
    tests/mutants/12-resume-keeps-the-log-past-its-watermark.patch \
    tests/mutants/14-space-saving-newcomer-inherits-no-error.patch

echo "ci.sh: all gates green"
