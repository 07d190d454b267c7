//! PR 9's load-bearing properties for the sketch state-backend tier:
//!
//! * `--state exact` is **byte-identical** to the pre-PR pipeline —
//!   same outcomes by `to_bits`, same JSONL, same checkpoint bytes —
//!   at every shard count (the explicit backend selection is the same
//!   code path as the default, not a parallel implementation);
//! * Space-Saving's classical error bound (any key's count error is at
//!   most `total / k`) holds on arbitrary streams, pinned by proptest;
//! * sketch state checkpoints (format v3) round-trip: a run killed
//!   mid-stream and resumed from its snapshot produces the identical
//!   outcome stream and JSONL as the uninterrupted run, per backend;
//! * resuming a sketch checkpoint under a different backend or a
//!   different budget is rejected loudly, never silently misread;
//! * with a generous budget the sketches agree with the exact oracle
//!   (Space-Saving bit-identically; the hashed sketches at recall 1).

use std::io::Write;
use std::sync::{Arc, Mutex};

use eleph_bgp::synth::{self, SynthConfig};
use eleph_bgp::BgpTable;
use eleph_core::{
    ConstantLoadDetector, Scheme, SpaceSaving, StateBackend, StateBackendConfig,
};
use eleph_packet::PacketMeta;
use eleph_pipeline::{
    Checkpoint, CollectedInterval, Collector, JsonlSink, MetaSource, PacketSource,
    PipelineBuilder, PipelineReport, TraceSource,
};
use eleph_trace::{RateTrace, WorkloadConfig};
use proptest::prelude::*;

const BETA: f64 = 0.8;
const GAMMA: f64 = 0.9;

/// Shard counts the exact-backend identity is pinned at (0 = serial).
const SHARD_COUNTS: [usize; 3] = [0, 1, 4];

/// A `Write` handle the test can read back after the pipeline consumed
/// the sink by value.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut self.0.lock().unwrap())
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The same small synthetic stream the sibling suites use, as parsed
/// metadata so runs can be split at arbitrary packet positions.
fn small_stream(seed: u64) -> (BgpTable, Vec<PacketMeta>, u64, u64, usize) {
    stream_of(seed, 120)
}

/// The same link carrying `n_flows` flows.
fn stream_of(seed: u64, n_flows: usize) -> (BgpTable, Vec<PacketMeta>, u64, u64, usize) {
    let table = synth::generate(&SynthConfig {
        n_prefixes: 2_000,
        ..SynthConfig::default()
    });
    let config = WorkloadConfig {
        n_flows,
        n_intervals: 6,
        interval_secs: 20,
        link: eleph_trace::LinkSpec {
            name: "sketch link".to_string(),
            capacity_bps: 3_000_000.0,
            target_peak_util: 0.5,
        },
        ..WorkloadConfig::small_test(seed)
    };
    let trace = RateTrace::generate(&config, &table);
    let mut source = TraceSource::new(&trace);
    let mut metas = Vec::new();
    while source.next_chunk(&mut metas).expect("synthetic source") > 0 {}
    (table, metas, config.interval_secs, config.start_unix, config.n_intervals)
}

struct RunOutput {
    outcomes: Vec<CollectedInterval>,
    report: PipelineReport,
    jsonl: Vec<u8>,
    /// Checkpoint bytes written right after the run consumed
    /// `checkpoint_after` packets (None = no mid-stream checkpoint).
    mid_checkpoint: Option<Vec<u8>>,
}

/// Run a pipeline over the meta stream under one state backend,
/// optionally snapshotting a checkpoint mid-stream.
fn run_with(
    table: &BgpTable,
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
    let mut pipeline = PipelineBuilder::new()
        .table(table)
        .interval_secs(t)
        .start_unix(start)
        .n_intervals(n)
        .detector(ConstantLoadDetector::new(BETA))
        .gamma(GAMMA)
        .scheme(Scheme::LatentHeat { window: 12 })
        .shards(shards)
        .state_backend(state)
        .sink(collector.sink())
        .sink(JsonlSink::new(jsonl.clone()))
        .build();
    let mid_checkpoint = match checkpoint_after {
        Some(cut) => {
            pipeline.observe_chunk(&metas[..cut]).expect("first half");
            let mut bytes = Vec::new();
            pipeline.checkpoint(&mut bytes).expect("checkpoint");
            pipeline.observe_chunk(&metas[cut..]).expect("second half");
            Some(bytes)
        }
        None => {
            pipeline
                .run(MetaSource::new(metas.to_vec()))
                .expect("in-memory run");
            None
        }
    };
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
    assert_eq!(got.outcomes.len(), want.outcomes.len(), "{context}: interval count");
    for (g, w) in got.outcomes.iter().zip(&want.outcomes) {
        let n = w.outcome.interval;
        assert_eq!(g.outcome.interval, n, "{context}: interval index");
        assert_eq!(g.outcome.elephants, w.outcome.elephants, "{context}: elephants at {n}");
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
// --state exact ≡ the pre-PR pipeline, at every shard count
// ---------------------------------------------------------------------

#[test]
fn exact_backend_is_byte_identical_to_default_at_every_shard_count() {
    let (table, metas, t, start, n) = small_stream(11);
    let cut = metas.len() / 2;
    for shards in SHARD_COUNTS {
        // The pre-PR path: no state_backend call at all.
        let collector = Collector::new();
        let jsonl = SharedBuf::default();
        let mut baseline = PipelineBuilder::new()
            .table(&table)
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
        // An exact checkpoint stays on format v2: byte-compatible with
        // every pre-PR snapshot.
        let bytes = got.mid_checkpoint.as_ref().expect("mid checkpoint");
        assert_eq!(&bytes[8..12], &2u32.to_le_bytes(), "{context}: version");
        assert_eq!(got.report.state_backend, "exact", "{context}: backend label");
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
// Sketch checkpoints: v3 round trip, kind/budget rejection
// ---------------------------------------------------------------------

#[test]
fn sketch_checkpoint_resume_is_bit_identical_mid_stream() {
    let (table, metas, t, start, n) = small_stream(23);
    // Cut mid-interval so the checkpoint carries live sketch state.
    let cut = metas.len() / 3;
    for state in [
        StateBackendConfig::SpaceSaving { budget_bytes: 64 * 1024 },
        StateBackendConfig::CountMinRow { budget_bytes: 64 * 1024 },
        StateBackendConfig::AdaptiveBloom { budget_bytes: 64 * 1024 },
    ] {
        let kind = state.kind();
        let reference = run_with(&table, &metas, t, start, n, 0, state, None);
        let interrupted = run_with(&table, &metas, t, start, n, 0, state, Some(cut));
        assert_outcomes_identical(
            &interrupted,
            &reference,
            &format!("{kind}: checkpointed run vs uninterrupted"),
        );

        let bytes = interrupted.mid_checkpoint.expect("mid checkpoint");
        // Sketch snapshots use format v3.
        assert_eq!(&bytes[8..12], &3u32.to_le_bytes(), "{kind}: version");
        let ckpt = Checkpoint::read_from(&mut &bytes[..]).expect("well-formed checkpoint");

        // Resume and replay the tail: the combined outcome stream must
        // equal the uninterrupted run's, bit for bit.
        let collector = Collector::new();
        let jsonl = SharedBuf::default();
        let mut resumed = PipelineBuilder::new()
            .table(&table)
            .interval_secs(t)
            .start_unix(start)
            .n_intervals(n)
            .detector(ConstantLoadDetector::new(BETA))
            .gamma(GAMMA)
            .scheme(Scheme::LatentHeat { window: 12 })
            .state_backend(state)
            .sink(collector.sink())
            .sink(JsonlSink::new(jsonl.clone()))
            .resume(&ckpt)
            .unwrap_or_else(|e| panic!("{kind}: resume failed: {e}"));
        resumed.observe_chunk(&metas[cut..]).expect("tail");
        let report = resumed.finish().expect("resumed finish");
        assert_eq!(report.state_backend, kind, "{kind}: backend label");

        let sealed_before = ckpt.intervals_sealed() as usize;
        let tail = collector.take();
        assert_eq!(
            tail.len(),
            reference.outcomes.len() - sealed_before,
            "{kind}: resumed interval count"
        );
        for (g, w) in tail.iter().zip(&reference.outcomes[sealed_before..]) {
            assert_eq!(g.outcome.elephants, w.outcome.elephants, "{kind}: resumed elephants");
            assert_eq!(
                g.outcome.threshold.to_bits(),
                w.outcome.threshold.to_bits(),
                "{kind}: resumed threshold"
            );
        }
    }
}

/// The test above runs 120 flows into 1 024 entries: its snapshot has
/// never seen an eviction, and the eviction order rebuilt after
/// `restore_sketch` is never asked for a victim. Here 600 flows meet
/// summaries of 8 to 64 entries, and the cut falls where the open
/// interval has already outgrown them, with new keys still to come.
#[test]
fn sketch_checkpoint_resume_is_bit_identical_under_eviction() {
    let (table, metas, t, start, n) = stream_of(29, 600);
    let frozen = table.freeze();
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
        let prefix_of = |m: &PacketMeta| frozen.attribute(m.dst).map(|(_, e)| e.prefix);
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
        assert!(unseen_after > 0, "{kind}: no miss left in the open interval after the cut");

        let pipeline = |collector: &Collector, jsonl: &SharedBuf| {
            PipelineBuilder::new()
                .table(&table)
                .interval_secs(t)
                .start_unix(start)
                .n_intervals(n)
                .detector(ConstantLoadDetector::new(BETA))
                .gamma(GAMMA)
                .scheme(Scheme::LatentHeat { window: 12 })
                .state_backend(state)
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
        assert_eq!(ckpt.intervals_sealed(), 2, "{kind}: the cut is inside interval 2");
        assert_eq!(head.len(), 2, "{kind}: intervals emitted before the cut");

        let (collector, jsonl) = (Collector::new(), SharedBuf::default());
        let mut resumed = pipeline(&collector, &jsonl)
            .resume(&ckpt)
            .unwrap_or_else(|e| panic!("{kind}: resume failed: {e}"));
        resumed.observe_chunk(&metas[cut..]).expect("tail");
        let mut got_final = Vec::new();
        resumed.checkpoint(&mut got_final).expect("final checkpoint");
        resumed.finish().expect("resumed finish");
        let (tail, tail_jsonl) = (collector.take(), jsonl.take());

        let got: Vec<&CollectedInterval> = head.iter().chain(&tail).collect();
        assert_eq!(got.len(), want.len(), "{kind}: interval count");
        for (g, w) in got.iter().zip(&want) {
            let i = w.outcome.interval;
            assert_eq!(g.outcome.interval, i, "{kind}: interval index");
            assert_eq!(g.outcome.elephants, w.outcome.elephants, "{kind}: elephants at {i}");
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
        assert_eq!([head_jsonl, tail_jsonl].concat(), want_jsonl, "{kind}: JSONL bytes");
        assert_eq!(got_final, want_final, "{kind}: final checkpoint bytes");
    }
}

#[test]
fn sketch_checkpoint_rejects_backend_and_budget_mismatch() {
    let (table, metas, t, start, n) = small_stream(31);
    let cut = metas.len() / 3;
    let state = StateBackendConfig::SpaceSaving { budget_bytes: 64 * 1024 };
    let run = run_with(&table, &metas, t, start, n, 0, state, Some(cut));
    let bytes = run.mid_checkpoint.expect("mid checkpoint");
    let ckpt = Checkpoint::read_from(&mut &bytes[..]).expect("well-formed checkpoint");

    let attempt = |state: StateBackendConfig| {
        PipelineBuilder::new()
            .table(&table)
            .interval_secs(t)
            .start_unix(start)
            .n_intervals(n)
            .detector(ConstantLoadDetector::new(BETA))
            .gamma(GAMMA)
            .scheme(Scheme::LatentHeat { window: 12 })
            .state_backend(state)
            .resume(&ckpt)
            .map(|_| ())
    };

    // Wrong backend kind: a spacesaving snapshot cannot seed an exact
    // row or another sketch's geometry.
    for wrong in [
        StateBackendConfig::Exact,
        StateBackendConfig::CountMinRow { budget_bytes: 64 * 1024 },
        StateBackendConfig::AdaptiveBloom { budget_bytes: 64 * 1024 },
    ] {
        match attempt(wrong) {
            Err(eleph_pipeline::CheckpointError::Mismatch(msg)) => {
                assert!(msg.contains("state backend"), "mismatch message: {msg}");
            }
            other => panic!("resume with {} must fail as Mismatch, got {other:?}", wrong.kind()),
        }
    }
    // Same kind, different budget: geometry differs, payload refuses.
    match attempt(StateBackendConfig::SpaceSaving { budget_bytes: 8 * 1024 }) {
        Err(eleph_pipeline::CheckpointError::State(msg)) => {
            assert!(msg.contains("capacity") || msg.contains("budget"), "state message: {msg}");
        }
        other => panic!("budget-mismatch resume must fail as State, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Generous budgets: sketches agree with the exact oracle
// ---------------------------------------------------------------------

#[test]
fn generous_budget_space_saving_is_bit_identical_to_exact() {
    let (table, metas, t, start, n) = small_stream(47);
    let exact = run_with(&table, &metas, t, start, n, 0, StateBackendConfig::Exact, None);
    // Capacity (budget / 64) far exceeds the distinct-key count, so no
    // counter is ever evicted and every count is exact.
    let ss = run_with(
        &table,
        &metas,
        t,
        start,
        n,
        0,
        StateBackendConfig::SpaceSaving { budget_bytes: 4 * 1024 * 1024 },
        None,
    );
    assert!(
        exact.report.keys.len() * 64 < 4 * 1024 * 1024,
        "scenario outgrew the generous budget"
    );
    assert_outcomes_identical(&ss, &exact, "spacesaving@4MiB vs exact");
    assert_eq!(ss.report.state_bytes, 4 * 1024 * 1024, "sketch budget is the footprint");
}

#[test]
fn generous_budget_hashed_sketches_reach_full_recall() {
    let (table, metas, t, start, n) = small_stream(53);
    let exact = run_with(&table, &metas, t, start, n, 0, StateBackendConfig::Exact, None);
    for state in [
        StateBackendConfig::CountMinRow { budget_bytes: 4 * 1024 * 1024 },
        StateBackendConfig::AdaptiveBloom { budget_bytes: 4 * 1024 * 1024 },
    ] {
        let approx = run_with(&table, &metas, t, start, n, 0, state, None);
        let mut acc = eleph_stats::SetAccuracy::new();
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
    let _ = PipelineBuilder::new()
        .table(&table)
        .interval_secs(20)
        .detector(ConstantLoadDetector::new(BETA))
        .shards(2)
        .state_backend(StateBackendConfig::SpaceSaving { budget_bytes: 4096 })
        .build();
}
