//! The sketch state-backend tier:
//!
//! * `--state exact` is **byte-identical** to the default row — same
//!   outcomes by `to_bits`, same JSONL, same checkpoint bytes — at every
//!   shard count (the explicit selection is the same code path, not a
//!   parallel implementation);
//! * Space-Saving's classical error bound (any key's count error is at
//!   most `total / k`) holds on arbitrary streams, pinned by proptest;
//! * a run resumed from a sketch checkpoint goes on
//!   bit-identically where the summary has already evicted;
//! * resuming a sketch checkpoint under a different backend or a
//!   different budget is rejected loudly, never silently misread;
//! * with a generous budget the hashed sketches find every elephant the
//!   exact row finds.
//!
//! The model test (`tests/tests/model.rs`) holds the default row, an
//! explicit `Exact` one and a roomy Space-Saving to the paper's method,
//! by bits, across a cut run and its resume.

use eleph_bgp::synth::{self, SynthConfig};
use eleph_bgp::FrozenBgpTable;
use eleph_core::{ConstantLoadDetector, Scheme, SpaceSaving, StateBackend, StateBackendConfig};
use eleph_packet::PacketMeta;
use eleph_pipeline::{
    Checkpoint, CollectedInterval, Collector, JsonlSink, PacketSource, PipelineBuilder,
    PipelineReport, TraceSource,
};
use eleph_tests::{small_link, SharedBuf};
use proptest::prelude::*;

const BETA: f64 = 0.8;
const GAMMA: f64 = 0.9;

/// Shard counts the exact-backend identity is pinned at (0 = serial).
const SHARD_COUNTS: [usize; 3] = [0, 1, 4];

/// The shared small link carrying `n_flows` flows over six intervals,
/// as parsed packets so a run can be cut at any packet.
fn stream_of(seed: u64, n_flows: usize) -> (FrozenBgpTable, Vec<PacketMeta>, u64, u64, usize) {
    let (table, trace) = small_link(seed, n_flows, 6);
    let mut source = TraceSource::new(&trace);
    let mut metas = Vec::new();
    while source.next_chunk(&mut metas).expect("synthetic source") > 0 {}
    let config = &trace.config;
    (
        table.freeze(),
        metas,
        config.interval_secs,
        config.start_unix,
        config.n_intervals,
    )
}

/// A pipeline over the link's table and window, latent heat over 12
/// slots, sealing from `state`.
fn builder(
    table: &FrozenBgpTable,
    (t, start, n): (u64, u64, usize),
    state: StateBackendConfig,
) -> PipelineBuilder<'_, ConstantLoadDetector> {
    PipelineBuilder::new()
        .frozen(table)
        .interval_secs(t)
        .start_unix(start)
        .n_intervals(n)
        .detector(ConstantLoadDetector::new(BETA))
        .gamma(GAMMA)
        .scheme(Scheme::LatentHeat { window: 12 })
        .state_backend(state)
}

struct RunOutput {
    outcomes: Vec<CollectedInterval>,
    report: PipelineReport,
    jsonl: Vec<u8>,
    /// The image taken after `checkpoint_after` packets, if asked for.
    mid_checkpoint: Option<Vec<u8>>,
}

/// Run a pipeline over the packets under one state backend and shard
/// count: its outcomes, report, JSONL and, with `checkpoint_after`, the
/// image taken after that many packets.
#[allow(
    clippy::too_many_arguments,
    reason = "the stream and one run's settings, each read once; a struct would only rename them"
)]
fn run_with(
    table: &FrozenBgpTable,
    metas: &[PacketMeta],
    t: u64,
    start: u64,
    n: usize,
    shards: usize,
    state: StateBackendConfig,
    checkpoint_after: Option<usize>,
) -> RunOutput {
    let collector = Collector::new();
    let jsonl = SharedBuf::default();
    let mut pipeline = builder(table, (t, start, n), state)
        .shards(shards)
        .sink(collector.sink())
        .sink(JsonlSink::new(jsonl.clone()))
        .build();
    let cut = checkpoint_after.unwrap_or(metas.len());
    pipeline.observe_chunk(&metas[..cut]).expect("head");
    let mid_checkpoint = checkpoint_after.map(|_| {
        let mut bytes = Vec::new();
        pipeline.checkpoint(&mut bytes).expect("checkpoint");
        bytes
    });
    pipeline.observe_chunk(&metas[cut..]).expect("tail");
    let report = pipeline.finish().expect("finish");
    RunOutput {
        outcomes: collector.take(),
        report,
        jsonl: jsonl.take(),
        mid_checkpoint,
    }
}

/// Bit-level outcome identity between two runs.
fn assert_outcomes_identical(got: &RunOutput, want: &RunOutput, context: &str) {
    assert_eq!(
        got.outcomes.len(),
        want.outcomes.len(),
        "{context}: interval count"
    );
    for (g, w) in got.outcomes.iter().zip(&want.outcomes) {
        let n = w.outcome.interval;
        assert_eq!(g.outcome.interval, n, "{context}: interval index");
        assert_eq!(
            g.outcome.elephants, w.outcome.elephants,
            "{context}: elephants at {n}"
        );
        assert_eq!(
            g.outcome.threshold.to_bits(),
            w.outcome.threshold.to_bits(),
            "{context}: threshold at {n}"
        );
        assert_eq!(
            g.outcome.elephant_load.to_bits(),
            w.outcome.elephant_load.to_bits(),
            "{context}: elephant load at {n}"
        );
        assert_eq!(
            g.outcome.total_load.to_bits(),
            w.outcome.total_load.to_bits(),
            "{context}: total load at {n}"
        );
    }
    assert_eq!(got.jsonl, want.jsonl, "{context}: JSONL bytes");
    assert_eq!(got.report.keys, want.report.keys, "{context}: key table");
    assert_eq!(
        got.report.stats.attributed_bytes, want.report.stats.attributed_bytes,
        "{context}: attributed bytes"
    );
}

// ---------------------------------------------------------------------
// --state exact ≡ the default row, at every shard count
// ---------------------------------------------------------------------

#[test]
fn exact_backend_is_byte_identical_to_default_at_every_shard_count() {
    let (table, metas, t, start, n) = stream_of(11, 120);
    let cut = metas.len() / 2;
    for shards in SHARD_COUNTS {
        // The default path: no state_backend call at all.
        let collector = Collector::new();
        let jsonl = SharedBuf::default();
        let mut baseline = PipelineBuilder::new()
            .frozen(&table)
            .interval_secs(t)
            .start_unix(start)
            .n_intervals(n)
            .detector(ConstantLoadDetector::new(BETA))
            .gamma(GAMMA)
            .scheme(Scheme::LatentHeat { window: 12 })
            .shards(shards)
            .sink(collector.sink())
            .sink(JsonlSink::new(jsonl.clone()))
            .build();
        baseline.observe_chunk(&metas[..cut]).expect("first half");
        let mut baseline_ckpt = Vec::new();
        baseline.checkpoint(&mut baseline_ckpt).expect("checkpoint");
        baseline.observe_chunk(&metas[cut..]).expect("second half");
        let report = baseline.finish().expect("finish");
        let want = RunOutput {
            outcomes: collector.take(),
            report,
            jsonl: jsonl.take(),
            mid_checkpoint: Some(baseline_ckpt),
        };

        let got = run_with(
            &table,
            &metas,
            t,
            start,
            n,
            shards,
            StateBackendConfig::Exact,
            Some(cut),
        );
        let context = format!("--state exact vs default, shards={shards}");
        assert_outcomes_identical(&got, &want, &context);
        assert_eq!(
            got.mid_checkpoint, want.mid_checkpoint,
            "{context}: checkpoint bytes"
        );
        // An exact checkpoint is self-contained (format v6) and closes
        // on the exact backend's tag, 0.
        let bytes = got.mid_checkpoint.as_ref().expect("mid checkpoint");
        assert_eq!(&bytes[8..12], &6u32.to_le_bytes(), "{context}: version");
        assert_eq!(bytes.last(), Some(&0), "{context}: state backend tag");
        assert_eq!(
            got.report.state_backend, "exact",
            "{context}: backend label"
        );
        assert_eq!(
            got.report.distinct_keys,
            got.report.keys.len(),
            "{context}: distinct keys"
        );
    }
}

// ---------------------------------------------------------------------
// Space-Saving error bound (proptest)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The stream-summary guarantee: with k counters, any reported
    /// count deviates from the key's true count by at most total/k —
    /// on arbitrary streams, not just skewed ones.
    #[test]
    fn space_saving_error_is_bounded_by_total_over_k(
        stream in prop::collection::vec((0u32..512, 1u64..50_000), 1..2_000),
        budget_entries in 8usize..128,
    ) {
        let mut ss = SpaceSaving::with_budget(budget_entries * 64);
        let k = ss.capacity();
        let mut truth = std::collections::HashMap::new();
        let mut total = 0u64;
        for &(key, bytes) in &stream {
            ss.record(key, bytes);
            *truth.entry(key).or_insert(0u64) += bytes;
            total += bytes;
        }
        let mut out = Vec::new();
        ss.seal_into(1.0, &mut out);
        for (key, rate) in out {
            let est = (f64::from(rate) / 8.0).round() as u64;
            let exact = truth.get(&key).copied().unwrap_or(0);
            let err = est.abs_diff(exact);
            prop_assert!(
                u128::from(err) * k as u128 <= u128::from(total),
                "key {key}: est {est} vs exact {exact} (err {err}, total {total}, k {k})"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Sketch checkpoints: round trip, kind/budget rejection
// ---------------------------------------------------------------------

/// A summary with room to spare, like the model test's, never evicts,
/// and the eviction order rebuilt after `restore_sketch` is never asked
/// for a victim. Here 600 flows meet summaries of 8 to 64 entries, and
/// the cut falls where the open interval has already outgrown them, with
/// new keys still to come.
#[test]
fn sketch_checkpoint_resume_is_bit_identical_under_eviction() {
    let (table, metas, t, start, n) = stream_of(29, 600);
    for (state, slots) in [
        (StateBackendConfig::SpaceSaving { budget_bytes: 512 }, 8),
        (StateBackendConfig::SpaceSaving { budget_bytes: 4096 }, 64),
        (StateBackendConfig::CountMinRow { budget_bytes: 512 }, 8),
        (StateBackendConfig::CountMinRow { budget_bytes: 4096 }, 32),
    ] {
        let kind = format!("{}@{slots}", state.kind());
        // The cut: in the third interval, right after the packet that
        // brings it to eight more distinct keys than the summary has
        // slots — the table filled, then a newcomer was weighed against
        // its minimum at least eight times.
        let past_full = slots + 8;
        let interval_of = |m: &PacketMeta| (m.ts_ns / 1_000_000_000 - start) / t;
        let prefix_of = |m: &PacketMeta| table.attribute(m.dst).map(|(_, e)| e.prefix);
        let mut seen = std::collections::HashSet::new();
        let cut = 1 + metas
            .iter()
            .position(|m| {
                interval_of(m) == 2
                    && m.wire_len > 0
                    && prefix_of(m).is_some_and(|p| seen.insert(p))
                    && seen.len() == past_full
            })
            .unwrap_or_else(|| panic!("{kind}: interval 2 never reaches {past_full} keys"));
        let unseen_after = metas[cut..]
            .iter()
            .filter(|m| interval_of(m) == 2 && prefix_of(m).is_some_and(|p| !seen.contains(&p)))
            .count();
        assert!(
            unseen_after > 0,
            "{kind}: no miss left in the open interval after the cut"
        );

        let pipeline = |collector: &Collector, jsonl: &SharedBuf| {
            builder(&table, (t, start, n), state)
                .sink(collector.sink())
                .sink(JsonlSink::new(jsonl.clone()))
        };

        // Uninterrupted, with a checkpoint once the stream is consumed
        // (the last interval still open).
        let (collector, jsonl) = (Collector::new(), SharedBuf::default());
        let mut whole = pipeline(&collector, &jsonl).build();
        whole.observe_chunk(&metas).expect("whole stream");
        let mut want_final = Vec::new();
        whole.checkpoint(&mut want_final).expect("final checkpoint");
        whole.finish().expect("finish");
        let (want, want_jsonl) = (collector.take(), jsonl.take());

        // Cut, snapshot, and throw the first pipeline away.
        let (collector, jsonl) = (Collector::new(), SharedBuf::default());
        let mut first = pipeline(&collector, &jsonl).build();
        first.observe_chunk(&metas[..cut]).expect("head");
        let mut bytes = Vec::new();
        first.checkpoint(&mut bytes).expect("checkpoint");
        drop(first);
        let (head, head_jsonl) = (collector.take(), jsonl.take());
        let ckpt = Checkpoint::read_from(&mut &bytes[..]).expect("well-formed checkpoint");
        assert_eq!(
            ckpt.intervals_sealed(),
            2,
            "{kind}: the cut is inside interval 2"
        );
        assert_eq!(head.len(), 2, "{kind}: intervals emitted before the cut");

        let (collector, jsonl) = (Collector::new(), SharedBuf::default());
        let mut resumed = pipeline(&collector, &jsonl)
            .resume(&ckpt)
            .unwrap_or_else(|e| panic!("{kind}: resume failed: {e}"));
        resumed.observe_chunk(&metas[cut..]).expect("tail");
        let mut got_final = Vec::new();
        resumed
            .checkpoint(&mut got_final)
            .expect("final checkpoint");
        resumed.finish().expect("resumed finish");
        let (tail, tail_jsonl) = (collector.take(), jsonl.take());

        let got: Vec<&CollectedInterval> = head.iter().chain(&tail).collect();
        assert_eq!(got.len(), want.len(), "{kind}: interval count");
        for (g, w) in got.iter().zip(&want) {
            let i = w.outcome.interval;
            assert_eq!(g.outcome.interval, i, "{kind}: interval index");
            assert_eq!(
                g.outcome.elephants, w.outcome.elephants,
                "{kind}: elephants at {i}"
            );
            assert_eq!(
                g.outcome.threshold.to_bits(),
                w.outcome.threshold.to_bits(),
                "{kind}: threshold at {i}"
            );
            assert_eq!(
                g.outcome.total_load.to_bits(),
                w.outcome.total_load.to_bits(),
                "{kind}: total load at {i}"
            );
        }
        assert_eq!(
            [head_jsonl, tail_jsonl].concat(),
            want_jsonl,
            "{kind}: JSONL bytes"
        );
        assert_eq!(got_final, want_final, "{kind}: final checkpoint bytes");
    }
}

#[test]
fn sketch_checkpoint_rejects_backend_and_budget_mismatch() {
    let (table, metas, t, start, n) = stream_of(31, 120);
    let cut = metas.len() / 3;
    let state = StateBackendConfig::SpaceSaving {
        budget_bytes: 64 * 1024,
    };
    let run = run_with(&table, &metas, t, start, n, 0, state, Some(cut));
    let bytes = run.mid_checkpoint.expect("mid checkpoint");
    let ckpt = Checkpoint::read_from(&mut &bytes[..]).expect("well-formed checkpoint");

    let attempt = |state| {
        builder(&table, (t, start, n), state)
            .resume(&ckpt)
            .map(|_| ())
    };

    // Wrong backend kind: a spacesaving snapshot cannot seed an exact
    // row or another sketch's geometry.
    for wrong in [
        StateBackendConfig::Exact,
        StateBackendConfig::CountMinRow {
            budget_bytes: 64 * 1024,
        },
        StateBackendConfig::AdaptiveBloom {
            budget_bytes: 64 * 1024,
        },
    ] {
        match attempt(wrong) {
            Err(eleph_pipeline::CheckpointError::Mismatch(msg)) => {
                assert!(msg.contains("state backend"), "mismatch message: {msg}");
            }
            other => panic!(
                "resume with {} must fail as Mismatch, got {other:?}",
                wrong.kind()
            ),
        }
    }
    // Same kind, different budget: geometry differs, payload refuses.
    match attempt(StateBackendConfig::SpaceSaving {
        budget_bytes: 8 * 1024,
    }) {
        Err(eleph_pipeline::CheckpointError::State(msg)) => {
            assert!(
                msg.contains("capacity") || msg.contains("budget"),
                "state message: {msg}"
            );
        }
        other => panic!("budget-mismatch resume must fail as State, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Generous budgets: sketches agree with the exact row
// ---------------------------------------------------------------------

#[test]
fn generous_budget_hashed_sketches_reach_full_recall() {
    let (table, metas, t, start, n) = stream_of(53, 120);
    let exact = run_with(
        &table,
        &metas,
        t,
        start,
        n,
        0,
        StateBackendConfig::Exact,
        None,
    );
    for state in [
        StateBackendConfig::CountMinRow {
            budget_bytes: 4 * 1024 * 1024,
        },
        StateBackendConfig::AdaptiveBloom {
            budget_bytes: 4 * 1024 * 1024,
        },
    ] {
        let approx = run_with(&table, &metas, t, start, n, 0, state, None);
        let mut acc = eleph_report::SetAccuracy::new();
        for (g, w) in approx.outcomes.iter().zip(&exact.outcomes) {
            acc.observe(&w.outcome.elephants, &g.outcome.elephants, |_| 1.0);
        }
        assert!(
            acc.oracle_total() > 0,
            "{}: the exact run must find elephants for recall to mean anything",
            state.kind()
        );
        assert_eq!(
            acc.recall(),
            1.0,
            "{}: at a generous budget every exact elephant must be found",
            state.kind()
        );
    }
}

// ---------------------------------------------------------------------
// Sketches are serial: the shard split has no row to partition
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "incompatible with shards")]
fn sketch_backend_with_shards_panics() {
    let table = synth::generate(&SynthConfig {
        n_prefixes: 200,
        ..SynthConfig::default()
    });
    let table = table.freeze();
    let _ = PipelineBuilder::new()
        .frozen(&table)
        .interval_secs(20)
        .detector(ConstantLoadDetector::new(BETA))
        .shards(2)
        .state_backend(StateBackendConfig::SpaceSaving { budget_bytes: 4096 })
        .build();
}
