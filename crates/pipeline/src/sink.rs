//! Interval sinks: where sealed classifications go.
//!
//! A [`crate::Pipeline`] fans every sealed interval out to all attached
//! sinks in attach order, synchronously — there is no queue to back up,
//! so a slow sink simply paces the run (backpressure-free in the sense
//! that no buffering layer can overflow between the pipeline and its
//! consumers).

use std::io::{self, Seek, Write};
use std::sync::{Arc, Mutex};

use eleph_core::IntervalOutcome;
use eleph_flow::KeyId;
use eleph_net::Prefix;

/// One sealed measurement interval, borrowed from the pipeline at
/// emission time.
#[derive(Debug, Clone, Copy)]
pub struct SealedInterval<'a> {
    /// The classification outcome (threshold, elephants, loads).
    pub outcome: &'a IntervalOutcome,
    /// Unix time at which this interval starts.
    pub interval_start_unix: u64,
    /// Interval length in seconds (the paper's T).
    pub interval_secs: u64,
    /// The pipeline's key table so far: `keys[id]` is the prefix behind
    /// [`KeyId`] `id`. Elephant ids index into this slice.
    pub keys: &'a [Prefix],
}

impl SealedInterval<'_> {
    /// The elephants as `(key id, prefix)` pairs, ascending by key id.
    pub fn elephants(&self) -> impl Iterator<Item = (KeyId, Prefix)> + '_ {
        self.outcome
            .elephants
            .iter()
            .map(|&key| (key, self.keys[key as usize]))
    }
}

/// A consumer of sealed intervals.
pub trait Sink {
    /// Called once per sealed interval, in interval order.
    fn on_interval(&mut self, sealed: &SealedInterval<'_>) -> io::Result<()>;

    /// Called once when the pipeline finishes; flush buffers here.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Adapts a closure into a [`Sink`] — the zero-ceremony way to react to
/// intervals (early elephant alerts, live dashboards, counters).
pub struct CallbackSink<F: FnMut(&SealedInterval<'_>)> {
    callback: F,
}

impl<F: FnMut(&SealedInterval<'_>)> CallbackSink<F> {
    /// Wrap a closure.
    pub fn new(callback: F) -> Self {
        CallbackSink { callback }
    }
}

impl<F: FnMut(&SealedInterval<'_>)> Sink for CallbackSink<F> {
    fn on_interval(&mut self, sealed: &SealedInterval<'_>) -> io::Result<()> {
        (self.callback)(sealed);
        Ok(())
    }
}

/// Writes one JSON object per sealed interval (JSON Lines).
///
/// Fields: `interval`, `start_unix`, `interval_secs`, `threshold`
/// (`null` while the detector has not yet produced a finite smoothed
/// threshold), `elephants` (prefix strings, ascending by key id),
/// `elephant_load`, `total_load`, `fraction`.
pub struct JsonlSink<W: Write> {
    out: W,
}

impl<W: Write> JsonlSink<W> {
    /// Emit JSONL to `out`. Wrap in a `BufWriter` for file targets.
    pub fn new(out: W) -> Self {
        JsonlSink { out }
    }
}

/// JSON number formatting: finite floats print via Rust's shortest
/// round-trip `Display`; non-finite values (the pre-detection infinite
/// threshold) become `null`.
fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Render one interval as its JSONL line (newline-terminated). The one
/// formatter behind [`JsonlSink`] and [`RotatingJsonlSink`], so file
/// and stream output stay byte-identical and a resumed run's lines can
/// be diffed against an uninterrupted one.
fn write_jsonl_line<W: Write>(out: &mut W, sealed: &SealedInterval<'_>) -> io::Result<()> {
    let o = sealed.outcome;
    write!(
        out,
        "{{\"interval\":{},\"start_unix\":{},\"interval_secs\":{},\"threshold\":{},\"elephants\":[",
        o.interval,
        sealed.interval_start_unix,
        sealed.interval_secs,
        json_num(o.threshold),
    )?;
    for (i, (_, prefix)) in sealed.elephants().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(out, "\"{prefix}\"")?;
    }
    writeln!(
        out,
        "],\"elephant_load\":{},\"total_load\":{},\"fraction\":{}}}",
        json_num(o.elephant_load),
        json_num(o.total_load),
        json_num(o.fraction()),
    )
}

impl<W: Write> Sink for JsonlSink<W> {
    fn on_interval(&mut self, sealed: &SealedInterval<'_>) -> io::Result<()> {
        write_jsonl_line(&mut self.out, sealed)?;
        // Flush at every seal: a crash then loses at most a torn
        // trailing line (which resume truncates), never whole buffered
        // intervals — and a full disk fails *this* seal, not the end of
        // the run.
        self.out.flush()
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Durable JSONL file sink with size-based rotation and crash-safe
/// resume.
///
/// The current file is always at `path`; when a line would push it past
/// `rotate_bytes`, the file is renamed to `path.1`, `path.2`, …
/// (ascending, so segment order is chronological) and a fresh `path`
/// starts. Concatenating `path.1 .. path.N` then `path` yields exactly
/// the stream a plain [`JsonlSink`] would have written.
///
/// Every line is flushed as it is sealed; [`RotatingJsonlSink::resume`]
/// truncates the chain back to the checkpoint's interval count,
/// removing torn trailing lines and post-checkpoint duplicates, which
/// is what makes interval emission exactly-once across crashes.
pub struct RotatingJsonlSink {
    path: std::path::PathBuf,
    rotate_bytes: Option<u64>,
    file: std::fs::File,
    /// Bytes in the current (un-rotated) file.
    bytes: u64,
    /// Rotated segments so far (`path.1 ..= path.segments` exist).
    segments: usize,
    /// Line-formatting scratch.
    buf: Vec<u8>,
}

impl RotatingJsonlSink {
    /// Start a fresh output chain at `path`, deleting any rotated
    /// segments a previous run left behind. `rotate_bytes` of `None`
    /// never rotates.
    pub fn create(path: impl Into<std::path::PathBuf>, rotate_bytes: Option<u64>) -> io::Result<Self> {
        let path = path.into();
        let file = std::fs::File::create(&path)?;
        // Stale segments from an abandoned run would otherwise be
        // concatenated in front of this run's output.
        for n in 1.. {
            let seg = Self::segment_path(&path, n);
            if !seg.exists() {
                break;
            }
            std::fs::remove_file(seg)?;
        }
        Ok(RotatingJsonlSink {
            path,
            rotate_bytes,
            file,
            bytes: 0,
            segments: 0,
            buf: Vec::new(),
        })
    }

    /// Re-open an output chain after a crash, truncating it to exactly
    /// `expected_lines` complete lines — the count the checkpoint
    /// recorded as durably emitted. Handles a torn trailing line (flush
    /// raced the crash) and whole extra lines (crash between sink write
    /// and checkpoint write). Errors if the chain holds *fewer*
    /// complete lines than expected: that output cannot have come from
    /// the checkpointed run.
    pub fn resume(
        path: impl Into<std::path::PathBuf>,
        rotate_bytes: Option<u64>,
        expected_lines: u64,
    ) -> io::Result<Self> {
        let path = path.into();
        // The chain in chronological order: path.1 .. path.N, then path.
        let mut chain: Vec<std::path::PathBuf> = Vec::new();
        for n in 1.. {
            let seg = Self::segment_path(&path, n);
            if !seg.exists() {
                break;
            }
            chain.push(seg);
        }
        let n_segments = chain.len();
        chain.push(path.clone());
        let mut remaining = expected_lines;
        for (i, file_path) in chain.iter().enumerate() {
            let data = if file_path.exists() {
                std::fs::read(file_path)?
            } else {
                Vec::new()
            };
            let lines = data.iter().filter(|&&b| b == b'\n').count() as u64;
            if lines < remaining {
                remaining -= lines;
                continue;
            }
            // The cut lands in this file: truncate it after its
            // `remaining`-th newline, drop every later file, and make
            // it the current output.
            let keep = if remaining == 0 {
                0
            } else {
                let mut seen = 0u64;
                data.iter()
                    .position(|&b| {
                        if b == b'\n' {
                            seen += 1;
                        }
                        seen == remaining
                    })
                    .expect("counted enough newlines")
                    + 1
            };
            for later in &chain[i + 1..] {
                if later.exists() {
                    std::fs::remove_file(later)?;
                }
            }
            if *file_path != path {
                // A rotated segment becomes the current file again.
                std::fs::rename(file_path, &path)?;
            }
            // `create(true)`: a crash between the rotation rename and
            // the new file's creation leaves no current file at all.
            let mut file = std::fs::OpenOptions::new().write(true).create(true).open(&path)?;
            file.set_len(keep as u64)?;
            file.seek(std::io::SeekFrom::End(0))?;
            return Ok(RotatingJsonlSink {
                path,
                rotate_bytes,
                file,
                bytes: keep as u64,
                segments: if i == n_segments { n_segments } else { i },
                buf: Vec::new(),
            });
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "output chain at {} holds fewer complete lines than the checkpoint's {expected_lines} \
                 — it cannot be the checkpointed run's output",
                path.display()
            ),
        ))
    }

    fn segment_path(path: &std::path::Path, n: usize) -> std::path::PathBuf {
        let mut name = path.as_os_str().to_os_string();
        name.push(format!(".{n}"));
        std::path::PathBuf::from(name)
    }
}

impl Sink for RotatingJsonlSink {
    fn on_interval(&mut self, sealed: &SealedInterval<'_>) -> io::Result<()> {
        self.buf.clear();
        write_jsonl_line(&mut self.buf, sealed)?;
        if let Some(limit) = self.rotate_bytes {
            if self.bytes > 0 && self.bytes + self.buf.len() as u64 > limit {
                self.file.flush()?;
                self.segments += 1;
                std::fs::rename(&self.path, Self::segment_path(&self.path, self.segments))?;
                self.file = std::fs::File::create(&self.path)?;
                self.bytes = 0;
            }
        }
        self.file.write_all(&self.buf)?;
        self.file.flush()?;
        self.bytes += self.buf.len() as u64;
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

/// One interval collected by a [`Collector`].
#[derive(Debug, Clone)]
pub struct CollectedInterval {
    /// Unix time at which the interval starts.
    pub interval_start_unix: u64,
    /// The classification outcome.
    pub outcome: IntervalOutcome,
}

/// Shared handle to in-memory collected intervals. Create one with
/// [`Collector::new`], attach [`Collector::sink`] to the pipeline, and
/// read the results back after [`crate::Pipeline::finish`].
#[derive(Debug, Clone, Default)]
pub struct Collector {
    inner: Arc<Mutex<Vec<CollectedInterval>>>,
}

impl Collector {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink that appends every sealed interval to this collector.
    pub fn sink(&self) -> CollectorSink {
        CollectorSink {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Take the collected intervals, leaving the collector empty.
    pub fn take(&self) -> Vec<CollectedInterval> {
        std::mem::take(&mut *self.inner.lock().expect("collector lock"))
    }

    /// Number of intervals collected so far.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("collector lock").len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The [`Sink`] half of a [`Collector`].
#[derive(Debug)]
pub struct CollectorSink {
    inner: Arc<Mutex<Vec<CollectedInterval>>>,
}

impl Sink for CollectorSink {
    fn on_interval(&mut self, sealed: &SealedInterval<'_>) -> io::Result<()> {
        self.inner
            .lock()
            .expect("collector lock")
            .push(CollectedInterval {
                interval_start_unix: sealed.interval_start_unix,
                outcome: sealed.outcome.clone(),
            });
        Ok(())
    }
}
