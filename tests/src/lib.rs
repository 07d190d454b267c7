//! Cross-crate integration tests live in `tests/`. This library holds
//! what they share: the executable model of the paper ([`model`]) and
//! the fixtures runs are built from.

pub mod model;

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use eleph_bgp::synth::{self, SynthConfig};
use eleph_bgp::BgpTable;
use eleph_packet::PacketMeta;
use eleph_pipeline::PacketSource;
use eleph_trace::{LinkSpec, PacketSynth, RateTrace, WorkloadConfig};

/// A `Write` handle a test can read back after the pipeline, which owns
/// its sinks by value, is done with it.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// Everything written so far; the buffer is left empty.
    pub fn take(&self) -> Vec<u8> {
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

/// A fresh, empty scratch directory, unique per call (tests run
/// concurrently).
pub fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "eleph-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Files by name, with their bytes.
pub type Files = Vec<(String, Vec<u8>)>;

/// Every file in `dir` and its bytes, sorted by name: what a checkpoint
/// directory holds, to compare one with another.
pub fn dir_files(dir: &Path) -> Files {
    let mut files: Files = fs::read_dir(dir)
        .expect("read dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().into_string().expect("utf-8 name");
            (name, fs::read(entry.path()).expect("read file"))
        })
        .collect();
    files.sort();
    files
}

/// A `RotatingJsonlSink` output chain in chronological order:
/// `path.1`, `path.2`, …, then the current file at `path`.
pub fn read_chain(path: &Path) -> Vec<u8> {
    let mut out = Vec::new();
    for n in 1.. {
        let mut seg = path.as_os_str().to_os_string();
        seg.push(format!(".{n}"));
        match fs::read(PathBuf::from(seg)) {
            Ok(bytes) => out.extend_from_slice(&bytes),
            Err(_) => break,
        }
    }
    out.extend_from_slice(&fs::read(path).unwrap_or_default());
    out
}

/// The small synthetic link the suites share: `n_flows` flows over a
/// 2 000-prefix table, `n_intervals` intervals of 20 s on a 3 Mb/s
/// link — enough traffic for real thresholds, small enough to replay
/// dozens of times.
pub fn small_link(seed: u64, n_flows: usize, n_intervals: usize) -> (BgpTable, RateTrace) {
    let table = synth::generate(&SynthConfig { n_prefixes: 2_000, ..SynthConfig::default() });
    let config = WorkloadConfig {
        n_flows,
        n_intervals,
        interval_secs: 20,
        link: LinkSpec {
            name: "test link".to_string(),
            capacity_bps: 3_000_000.0,
            target_peak_util: 0.5,
        },
        ..WorkloadConfig::small_test(seed)
    };
    let trace = RateTrace::generate(&config, &table);
    (table, trace)
}

/// Every interval of `trace` as pcap bytes.
pub fn capture_of(trace: &RateTrace) -> Vec<u8> {
    let mut pcap = Vec::new();
    PacketSynth::new(trace)
        .write_pcap(0..trace.n_intervals(), &mut pcap)
        .expect("pcap synthesis");
    pcap
}

/// A source that ends after every chunk of `inner` it hands out, once,
/// and then goes on: each `run` or `run_checkpointed` over it streams one
/// chunk and returns, so a caller looping until `done` (`inner` is
/// exhausted) sees the pipeline at every chunk boundary — where
/// checkpoints are taken.
pub struct OneChunkPerRun<S> {
    pub inner: S,
    /// The last call handed out a chunk: the next one ends this run.
    ending: bool,
    pub done: bool,
}

impl<S> OneChunkPerRun<S> {
    pub fn new(inner: S) -> Self {
        OneChunkPerRun { inner, ending: false, done: false }
    }
}

impl<S: PacketSource> PacketSource for OneChunkPerRun<S> {
    fn next_chunk(&mut self, out: &mut Vec<PacketMeta>) -> eleph_packet::Result<usize> {
        if std::mem::take(&mut self.ending) {
            return Ok(0);
        }
        let n = self.inner.next_chunk(out)?;
        self.ending = n > 0;
        self.done = n == 0;
        Ok(n)
    }

    fn malformed(&self) -> u64 {
        self.inner.malformed()
    }
}
