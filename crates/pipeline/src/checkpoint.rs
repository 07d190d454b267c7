//! Crash-safe snapshots of the streaming pipeline.
//!
//! A long-horizon monitor cannot afford to lose its classifier window:
//! latent heat and hysteresis are *temporal* stabilizers, so a restart
//! that resets them silently reclassifies every flow. A [`Checkpoint`]
//! carries the full recovery frontier — classifier window ring and
//! sliding sums, EWMA smoothing state, the first-seen key mapping, the
//! open interval's byte row, and the packet accounting — so a resumed
//! pipeline continues **bit-identically** to the run that wrote it.
//!
//! # Format (versions 2 and 3)
//!
//! ```text
//! magic    8 B  b"ELPHCKPT"
//! version  4 B  u32 LE
//! length   8 B  u64 LE payload byte count
//! crc32    4 B  CRC-32 (IEEE) over the payload
//! payload  ...  little-endian fields, see `Checkpoint::encode_into`
//! ```
//!
//! The payload opens with a configuration fingerprint (interval length,
//! window start, γ bits, scheme, detector name, route-id space size,
//! routing-table generation, per-key prefixes);
//! [`crate::PipelineBuilder::resume`] refuses a snapshot whose
//! fingerprint disagrees with the builder, so state can never be
//! grafted onto a different measurement definition — including a live
//! routing table at a different update generation than the one the
//! snapshot was taken against (version 2 added the generation field).
//!
//! Version 3 extends version 2 for pipelines running a sketch state
//! backend ([`eleph_core::sketch`]): the version-2 payload (whose dense
//! row is then empty — a sketch has no exact row) is followed by the
//! backend kind string and its length-prefixed, internally-versioned
//! sketch payload. Exact-backend checkpoints keep writing version 2
//! byte-for-byte, so `--state exact` images remain identical to every
//! earlier release; a reader accepts both versions and a resume
//! cross-checks the recorded backend kind against the builder's.
//!
//! # How an image is produced
//!
//! One buffer, one pass to fill it, one pass to checksum it
//! ([`Checkpoint::write_image`]). The buffer is cleared and reserved
//! once from the sizes of the parts; magic and version go in, then a
//! twelve-byte hole where length and CRC belong; the payload is encoded
//! straight behind the hole by the one encoder there is; then the two
//! fields are patched in. The CRC ([`crc32`]) reads the payload sixteen
//! bytes per step through compile-time tables, so it costs about what
//! the encoding pass does instead of several times as much — for the
//! reader too, which checksums the same bytes on every resume. A
//! [`Checkpointer`] keeps its buffer from one write to the next; the
//! one-shot forms ([`Pipeline::checkpoint`], [`Checkpoint::write_to`])
//! run the same routine over a fresh one.
//!
//! What the pipeline lends and what it copies: the key → route inverse
//! is kept by the key allocator as keys are assigned and lent as a
//! slice (it used to be rebuilt by scanning the whole route-id space);
//! the key table, the open row, the per-key window sums and the history
//! snapshots are copied into a [`Checkpoint`] first — about a tenth of a
//! millisecond for the half-megabyte image of a 21 000-key run, a fifth
//! of what encoding and checksumming it take, and the price of the
//! decoded form staying one plain owned struct that tests can build,
//! corrupt and re-encode.
//!
//! # Where an image is produced
//!
//! Off the packet path. At a due chunk boundary the packet thread takes
//! the owned [`Checkpoint`] copy, waits for the previous image if it is
//! still in flight, and hands the copy and the kept buffer to the
//! [`Checkpointer`]'s one writer thread — spawned at the first image,
//! joined on drop — which encodes, checksums and writes the image by the
//! protocol below and hands the buffer back. At most one image is ever
//! in flight, and [`Pipeline::run_checkpointed`] waits for it before it
//! returns, so the bytes of every image, and the intervals at which
//! they are taken, are what a writer on the packet thread produces.
//!
//! # Atomicity & exactly-once emission
//!
//! [`Checkpointer`] writes to `<file>.tmp`, fsyncs, then renames over
//! the final name (plus a best-effort directory fsync) — a crash mid
//! write leaves a torn temp file and the previous complete checkpoint.
//! The snapshot records the number of intervals sealed *and already
//! delivered to the sinks*; on resume the durable JSONL output is
//! truncated back to exactly that many complete lines (torn trailing
//! lines and post-checkpoint duplicates removed) before the replay
//! continues, so every interval is emitted exactly once across any
//! number of crashes.
//!
//! While a run is going, the durable image may trail the sinks by one
//! more image than a writer on the packet thread would let it: the
//! image in flight. That changes nothing for recovery — resume already
//! truncates any number of intervals emitted after the snapshot — and
//! once [`Pipeline::run_checkpointed`] has returned the image never
//! trails: the one in flight has landed, or its failure is the error
//! returned.
//!
//! Checkpoints are only taken at source chunk boundaries, which is what
//! makes replay exact: the checkpoint's `offered` count is reproduced
//! by [`skip_offered`] pulling whole chunks from a fresh source — the
//! chunking is deterministic, so the count lands on the same boundary.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use eleph_bgp::RouteId;
use eleph_core::{ClassifierState, Scheme, ThresholdDetector};
use eleph_flow::KeyId;
use eleph_net::Prefix;
use eleph_trace::CrashPoint;

use crate::pipeline::{Pipeline, PipelineError, PipelineStats};
use crate::source::PacketSource;

const MAGIC: [u8; 8] = *b"ELPHCKPT";
const VERSION: u32 = 2;
/// Format written when the pipeline runs a sketch state backend: the
/// version-2 payload plus the backend kind and its sketch payload.
const VERSION_SKETCH: u32 = 3;
/// Header layout: magic (8), version (4), then the two fields patched
/// in once the payload exists — its length (8) and CRC-32 (4).
const LENGTH_AT: usize = 12;
const CRC_AT: usize = 20;
const HEADER_LEN: usize = 24;

/// Why a checkpoint could not be read, written, or applied.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The bytes are not a checkpoint (bad magic, unknown version,
    /// truncation, trailing garbage, or a malformed payload).
    Format(String),
    /// The payload bytes do not match their recorded checksum.
    Checksum {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC of the payload as read.
        actual: u32,
    },
    /// The snapshot's configuration fingerprint disagrees with the
    /// resuming pipeline's configuration.
    Mismatch(String),
    /// The decoded state failed structural validation (the classifier
    /// or key-allocator invariants).
    State(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(s) => write!(f, "not a valid checkpoint: {s}"),
            CheckpointError::Checksum { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: header says {expected:#010x}, payload is {actual:#010x}"
            ),
            CheckpointError::Mismatch(s) => write!(f, "checkpoint configuration mismatch: {s}"),
            CheckpointError::State(s) => write!(f, "checkpoint state invalid: {s}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        // Running out of file mid-decode is a torn checkpoint, not an
        // environment error: classify it as Format so callers treating
        // `Io` as retryable do not loop on a corrupt file.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            CheckpointError::Format("truncated".to_string())
        } else {
            CheckpointError::Io(e)
        }
    }
}

/// Bytes one step of [`crc32`] consumes: two little-endian words.
const CRC_STRIDE: usize = 16;

/// CRC-32 (IEEE 802.3, reflected) — the pcap/zip polynomial, tables
/// built at compile time so the checksum needs no dependency.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, which is what lets
/// [`crc32`] fold [`CRC_STRIDE`] bytes per step (slicing-by-16).
static CRC_TABLES: [[u32; 256]; CRC_STRIDE] = {
    let mut tables = [[0u32; 256]; CRC_STRIDE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_STRIDE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One byte into a running (pre-inverted) CRC.
#[inline]
fn crc_step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize]
}

/// CRC-32 of `data` (IEEE), `CRC_STRIDE` (16) bytes per step: the running
/// CRC is folded into the first four bytes, every byte looks up the
/// table for its distance from the end of the stride, and the sixteen
/// results XOR together — independent loads instead of a sixteen-deep
/// dependency chain. The tail shorter than a stride goes bytewise.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut strides = data.chunks_exact(CRC_STRIDE);
    for stride in &mut strides {
        let (lo, hi) = stride.split_at(8);
        let lo = u64::from_le_bytes(lo.try_into().expect("8 bytes")) ^ u64::from(crc);
        let hi = u64::from_le_bytes(hi.try_into().expect("8 bytes"));
        crc = 0;
        let mut k = 0;
        while k < 8 {
            crc ^= CRC_TABLES[15 - k][(lo >> (8 * k)) as usize & 0xFF]
                ^ CRC_TABLES[7 - k][(hi >> (8 * k)) as usize & 0xFF];
            k += 1;
        }
    }
    !strides.remainder().iter().fold(crc, |crc, &b| crc_step(crc, b))
}

/// The configuration fingerprint embedded in every checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointConfig {
    pub(crate) interval_secs: u64,
    pub(crate) start_unix: u64,
    pub(crate) n_intervals: Option<u64>,
    pub(crate) gamma: f64,
    pub(crate) scheme: Scheme,
    pub(crate) detector: String,
    pub(crate) n_routes: u64,
    /// Routing-table generation (0 for frozen tables; the number of
    /// update batches applied for live tables). A resume must replay
    /// the table to exactly this generation first.
    pub(crate) generation: u64,
}

/// A decoded pipeline snapshot — everything a fresh process needs to
/// continue the run bit-identically (see the module docs).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    pub(crate) config: CheckpointConfig,
    /// Intervals sealed and delivered to every sink.
    pub(crate) open: u64,
    pub(crate) far_future_streak: u32,
    pub(crate) stats: PipelineStats,
    /// `(first-seen route, its prefix)` per key, ascending by key id.
    pub(crate) keys: Vec<(RouteId, Prefix)>,
    /// The open interval's nonzero byte counts, ascending by key id
    /// (exact backend only; empty when `sketch` is present).
    pub(crate) row: Vec<(KeyId, u64)>,
    pub(crate) state: ClassifierState,
    /// Sketch-backend open state: `(backend kind, serialized sketch)`.
    /// `None` for the exact backend — and its presence alone is what
    /// selects format version 3 on disk.
    pub(crate) sketch: Option<(String, Vec<u8>)>,
}

impl Checkpoint {
    /// Intervals sealed (and durably emitted) when this snapshot was
    /// taken — the line count the output must be truncated to before
    /// resuming.
    pub fn intervals_sealed(&self) -> usize {
        self.open as usize
    }

    /// Packet accounting at snapshot time.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Packets the source had produced (parsed or malformed) at
    /// snapshot time — what [`skip_offered`] must replay past.
    pub fn offered(&self) -> u64 {
        self.stats.offered
    }

    /// The detector name recorded in the fingerprint.
    pub fn detector(&self) -> &str {
        &self.config.detector
    }

    /// Routing-table generation recorded in the fingerprint: the number
    /// of update batches the (live) table had applied at snapshot time,
    /// 0 for frozen tables. A resuming driver must replay the first
    /// `generation` batches of its schedule onto a fresh live table
    /// before [`crate::PipelineBuilder::resume`].
    pub fn generation(&self) -> u64 {
        self.config.generation
    }

    /// Serialize (header + checksummed payload).
    pub fn write_to<W: Write>(&self, out: &mut W) -> io::Result<()> {
        out.write_all(&self.to_bytes())
    }

    /// The complete on-disk image in a fresh buffer.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut image = Vec::new();
        self.write_image(&mut image);
        image
    }

    /// Build the complete on-disk image in `image`, replacing whatever
    /// it held (see "How an image is produced" in the module docs): the
    /// buffer is sized once from the parts, the payload is encoded
    /// behind a header whose length and CRC fields are patched in last.
    pub(crate) fn write_image(&self, image: &mut Vec<u8>) {
        let version = if self.sketch.is_none() { VERSION } else { VERSION_SKETCH };
        let reserved = HEADER_LEN + self.payload_len_bound();
        image.clear();
        image.reserve(reserved);
        image.extend_from_slice(&MAGIC);
        image.extend_from_slice(&version.to_le_bytes());
        image.extend_from_slice(&[0; HEADER_LEN - LENGTH_AT]);
        self.encode_into(image);
        debug_assert!(image.len() <= reserved, "payload_len_bound fell short");
        let (header, payload) = image.split_at_mut(HEADER_LEN);
        header[LENGTH_AT..CRC_AT].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        header[CRC_AT..].copy_from_slice(&crc32(payload).to_le_bytes());
    }

    /// An upper bound on the payload's size, exact in every part that
    /// grows with the run: what [`Checkpoint::write_image`] reserves so
    /// the encoder never reallocates.
    fn payload_len_bound(&self) -> usize {
        // Every fixed-width field, option tag and length prefix of the
        // layout, each option and scheme at its widest.
        const FIXED: usize = 256;
        let st = &self.state;
        let snapshots: usize = st.history.iter().map(|(_, snapshot)| 16 + 8 * snapshot.len()).sum();
        let sketch = self.sketch.as_ref().map_or(0, |(kind, payload)| kind.len() + payload.len());
        FIXED
            + self.config.detector.len()
            + 9 * self.keys.len()
            + 12 * self.row.len()
            + 16 * st.per_key.len()
            + snapshots
            + 4 * st.members.len()
            + sketch
    }

    /// Read and verify a checkpoint.
    pub fn read_from<R: Read>(input: &mut R) -> Result<Self, CheckpointError> {
        let mut head = [0u8; HEADER_LEN];
        input.read_exact(&mut head)?;
        if head[..8] != MAGIC {
            return Err(CheckpointError::Format("bad magic".to_string()));
        }
        let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
        if version != VERSION && version != VERSION_SKETCH {
            return Err(CheckpointError::Format(format!(
                "unsupported version {version} (this build reads {VERSION} and {VERSION_SKETCH})"
            )));
        }
        let len = u64::from_le_bytes(head[LENGTH_AT..CRC_AT].try_into().expect("8 bytes"));
        let expected = u32::from_le_bytes(head[CRC_AT..].try_into().expect("4 bytes"));
        // Read through `take` so a corrupt length field cannot trigger
        // a huge up-front allocation: memory stays bounded by what the
        // stream actually holds.
        let mut payload = Vec::new();
        input.take(len).read_to_end(&mut payload).map_err(CheckpointError::Io)?;
        if (payload.len() as u64) < len {
            return Err(CheckpointError::Format(format!(
                "payload truncated: header declares {len} bytes, stream holds {}",
                payload.len()
            )));
        }
        let mut probe = [0u8; 1];
        if input.read(&mut probe).map_err(CheckpointError::Io)? != 0 {
            return Err(CheckpointError::Format("trailing bytes after payload".to_string()));
        }
        let actual = crc32(&payload);
        if actual != expected {
            return Err(CheckpointError::Checksum { expected, actual });
        }
        Self::decode(&payload, version)
    }

    /// Read and verify a checkpoint file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Self::read_from(&mut File::open(path)?)
    }

    /// Append the payload to `w` — the one encoder every image goes
    /// through.
    fn encode_into(&self, w: &mut Vec<u8>) {
        // Configuration fingerprint.
        w.extend_from_slice(&self.config.interval_secs.to_le_bytes());
        w.extend_from_slice(&self.config.start_unix.to_le_bytes());
        put_opt_u64(w, self.config.n_intervals);
        w.extend_from_slice(&self.config.gamma.to_bits().to_le_bytes());
        match self.config.scheme {
            Scheme::SingleFeature => w.push(0),
            Scheme::LatentHeat { window } => {
                w.push(1);
                w.extend_from_slice(&(window as u64).to_le_bytes());
            }
            Scheme::Hysteresis { enter, exit } => {
                w.push(2);
                w.extend_from_slice(&enter.to_bits().to_le_bytes());
                w.extend_from_slice(&exit.to_bits().to_le_bytes());
            }
        }
        put_str(w, &self.config.detector);
        w.extend_from_slice(&self.config.n_routes.to_le_bytes());
        w.extend_from_slice(&self.config.generation.to_le_bytes());
        // Progress.
        w.extend_from_slice(&self.open.to_le_bytes());
        w.extend_from_slice(&self.far_future_streak.to_le_bytes());
        let s = &self.stats;
        for v in [
            s.offered,
            s.attributed,
            s.attributed_bytes,
            s.unroutable,
            s.out_of_window,
            s.malformed,
            s.late,
        ] {
            w.extend_from_slice(&v.to_le_bytes());
        }
        // Key table.
        w.extend_from_slice(&(self.keys.len() as u64).to_le_bytes());
        for &(route, prefix) in &self.keys {
            w.extend_from_slice(&route.to_le_bytes());
            w.extend_from_slice(&prefix.bits().to_le_bytes());
            w.push(prefix.len());
        }
        // Open interval row.
        w.extend_from_slice(&(self.row.len() as u64).to_le_bytes());
        for &(key, bytes) in &self.row {
            w.extend_from_slice(&key.to_le_bytes());
            w.extend_from_slice(&bytes.to_le_bytes());
        }
        // Classifier state.
        let st = &self.state;
        w.extend_from_slice(&(st.interval as u64).to_le_bytes());
        put_opt_f64(w, st.smoothed);
        w.extend_from_slice(&st.sum_t.to_bits().to_le_bytes());
        w.extend_from_slice(&(st.per_key.len() as u64).to_le_bytes());
        for &(key, sum, live) in &st.per_key {
            w.extend_from_slice(&key.to_le_bytes());
            w.extend_from_slice(&sum.to_bits().to_le_bytes());
            w.extend_from_slice(&live.to_le_bytes());
        }
        w.extend_from_slice(&(st.history.len() as u64).to_le_bytes());
        for (t_term, snapshot) in &st.history {
            w.extend_from_slice(&t_term.to_bits().to_le_bytes());
            w.extend_from_slice(&(snapshot.len() as u64).to_le_bytes());
            for &(key, rate) in snapshot {
                w.extend_from_slice(&key.to_le_bytes());
                w.extend_from_slice(&rate.to_bits().to_le_bytes());
            }
        }
        w.extend_from_slice(&(st.members.len() as u64).to_le_bytes());
        for &key in &st.members {
            w.extend_from_slice(&key.to_le_bytes());
        }
        // Version-3 tail: sketch-backend kind + payload. Absent (and the
        // image stays a byte-identical version 2) for the exact backend.
        if let Some((kind, sketch)) = &self.sketch {
            put_str(w, kind);
            w.extend_from_slice(&(sketch.len() as u64).to_le_bytes());
            w.extend_from_slice(sketch);
        }
    }

    fn decode(payload: &[u8], version: u32) -> Result<Self, CheckpointError> {
        let mut r = Cursor { data: payload, at: 0 };
        let interval_secs = r.u64()?;
        let start_unix = r.u64()?;
        let n_intervals = r.opt_u64()?;
        let gamma = f64::from_bits(r.u64()?);
        let scheme = match r.u8()? {
            0 => Scheme::SingleFeature,
            1 => Scheme::LatentHeat {
                window: usize::try_from(r.u64()?)
                    .map_err(|_| CheckpointError::Format("window too large".to_string()))?,
            },
            2 => Scheme::Hysteresis {
                enter: f64::from_bits(r.u64()?),
                exit: f64::from_bits(r.u64()?),
            },
            t => return Err(CheckpointError::Format(format!("unknown scheme tag {t}"))),
        };
        let detector = r.string()?;
        let n_routes = r.u64()?;
        let generation = r.u64()?;
        let open = r.u64()?;
        let far_future_streak = r.u32()?;
        let stats = PipelineStats {
            offered: r.u64()?,
            attributed: r.u64()?,
            attributed_bytes: r.u64()?,
            unroutable: r.u64()?,
            out_of_window: r.u64()?,
            malformed: r.u64()?,
            late: r.u64()?,
        };
        let n_keys = r.count(9, "keys")?;
        let mut keys = Vec::with_capacity(n_keys);
        for _ in 0..n_keys {
            let route = r.u32()?;
            let bits = r.u32()?;
            let len = r.u8()?;
            let prefix = Prefix::from_u32(bits, len)
                .map_err(|e| CheckpointError::Format(format!("bad key prefix: {e}")))?;
            keys.push((route, prefix));
        }
        let n_row = r.count(12, "row")?;
        let mut row = Vec::with_capacity(n_row);
        for _ in 0..n_row {
            row.push((r.u32()?, r.u64()?));
        }
        let interval = usize::try_from(r.u64()?)
            .map_err(|_| CheckpointError::Format("interval index too large".to_string()))?;
        let smoothed = r.opt_f64()?;
        let sum_t = f64::from_bits(r.u64()?);
        let n_per_key = r.count(16, "per-key state")?;
        let mut per_key = Vec::with_capacity(n_per_key);
        for _ in 0..n_per_key {
            per_key.push((r.u32()?, f64::from_bits(r.u64()?), r.u32()?));
        }
        let n_history = r.count(16, "history")?;
        let mut history = Vec::with_capacity(n_history);
        for _ in 0..n_history {
            let t_term = f64::from_bits(r.u64()?);
            let n_snap = r.count(8, "snapshot")?;
            let mut snapshot = Vec::with_capacity(n_snap);
            for _ in 0..n_snap {
                snapshot.push((r.u32()?, f32::from_bits(r.u32()?)));
            }
            history.push((t_term, snapshot));
        }
        let n_members = r.count(4, "members")?;
        let mut members = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            members.push(r.u32()?);
        }
        let sketch = if version == VERSION_SKETCH {
            let kind = r.string()?;
            let n_sketch = r.count(1, "sketch payload")?;
            let bytes = r.take(n_sketch)?.to_vec();
            if !row.is_empty() {
                return Err(CheckpointError::Format(
                    "sketch checkpoint carries a dense row".to_string(),
                ));
            }
            Some((kind, bytes))
        } else {
            None
        };
        r.end()?;
        if interval as u64 != open {
            return Err(CheckpointError::Format(format!(
                "classifier at interval {interval} but {open} intervals sealed"
            )));
        }
        Ok(Checkpoint {
            config: CheckpointConfig {
                interval_secs,
                start_unix,
                n_intervals,
                gamma,
                scheme,
                detector,
                n_routes,
                generation,
            },
            open,
            far_future_streak,
            stats,
            keys,
            row,
            state: ClassifierState {
                interval,
                smoothed,
                sum_t,
                per_key,
                history,
                members,
            },
            sketch,
        })
    }
}

fn put_opt_u64(w: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            w.push(1);
            w.extend_from_slice(&x.to_le_bytes());
        }
        None => w.push(0),
    }
}

fn put_opt_f64(w: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            w.push(1);
            w.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        None => w.push(0),
    }
}

fn put_str(w: &mut Vec<u8>, s: &str) {
    w.extend_from_slice(&(s.len() as u32).to_le_bytes());
    w.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian payload reader.
struct Cursor<'a> {
    data: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| CheckpointError::Format("payload shorter than declared".to_string()))?;
        let slice = &self.data[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, CheckpointError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => Err(CheckpointError::Format(format!("bad option tag {t}"))),
        }
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, CheckpointError> {
        Ok(self.opt_u64()?.map(f64::from_bits))
    }

    fn string(&mut self) -> Result<String, CheckpointError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Format("non-UTF-8 string".to_string()))
    }

    /// A length prefix, sanity-bounded by the bytes remaining (each
    /// element needs at least `min_elem` bytes) so a corrupt count
    /// cannot trigger a huge allocation before the decode fails.
    fn count(&mut self, min_elem: usize, what: &str) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        let remaining = (self.data.len() - self.at) as u64;
        if n.saturating_mul(min_elem as u64) > remaining {
            return Err(CheckpointError::Format(format!(
                "{what} count {n} exceeds remaining payload"
            )));
        }
        Ok(n as usize)
    }

    fn end(&self) -> Result<(), CheckpointError> {
        if self.at != self.data.len() {
            return Err(CheckpointError::Format(format!(
                "{} bytes of trailing payload",
                self.data.len() - self.at
            )));
        }
        Ok(())
    }
}

/// Periodic atomic checkpoint writer for [`Pipeline::run_checkpointed`].
///
/// Writes `eleph.ckpt` inside its directory every `every` sealed
/// intervals (checked at source chunk boundaries), via temp file +
/// fsync + rename so a crash at any instruction leaves either the old
/// or the new checkpoint complete on disk — never a torn one.
///
/// The caller's thread only takes the owned [`Checkpoint`] copy; one
/// writer thread, spawned at the first image and joined on drop,
/// encodes it and puts it on disk while the caller goes on. At most one
/// image is in flight: handing over the next waits for the previous.
pub struct Checkpointer {
    path: PathBuf,
    tmp: PathBuf,
    every: usize,
    /// Sealed-interval count at which the next image is due; `None`
    /// until the cadence has a pipeline to start from.
    next_at: Option<usize>,
    /// The image buffer, kept across writes: here between images, with
    /// the writer while one is in flight.
    image: Vec<u8>,
    /// `None` until the first image.
    writer: Option<Writer>,
    /// An image was handed over and its answer not yet taken.
    in_flight: bool,
    written: CheckpointsWritten,
}

/// What a [`Checkpointer`]'s images have cost so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CheckpointsWritten {
    /// Images written (renamed into place).
    pub images: u64,
    /// Size of the last image in bytes.
    pub last_bytes: u64,
    /// Size of all images together.
    pub total_bytes: u64,
    /// Seconds the writer thread spent building images: encode and
    /// checksum (the owned copy the caller takes first is not counted).
    pub encode_secs: f64,
    /// Seconds the writer thread spent putting them on disk: create,
    /// write, fsync, rename, directory fsync.
    pub io_secs: f64,
    /// Seconds the caller's thread spent blocked on an image in flight:
    /// the part of checkpointing a run still pays.
    pub wait_secs: f64,
}

/// One image for the writer thread.
struct Job {
    checkpoint: Checkpoint,
    image: Vec<u8>,
    /// Simulate dying halfway through the write ([`CrashPoint::MidCheckpointWrite`]).
    torn: bool,
}

/// The writer thread's answer to one [`Job`]: the buffer back, whether
/// the image was renamed into place, and what it cost.
struct Done {
    image: Vec<u8>,
    renamed: io::Result<bool>,
    encode_secs: f64,
    io_secs: f64,
}

/// The long-lived writer thread and its two channels.
struct Writer {
    /// `None` once dropping: closing it ends the thread's loop.
    jobs: Option<mpsc::Sender<Job>>,
    done: mpsc::Receiver<Done>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Writer {
    fn spawn(path: PathBuf, tmp: PathBuf) -> io::Result<Self> {
        let (jobs, job_rx) = mpsc::channel::<Job>();
        let (done_tx, done) = mpsc::channel();
        let thread = thread::Builder::new().name("eleph-checkpoint".to_string()).spawn(move || {
            for job in job_rx {
                if done_tx.send(write_job(&path, &tmp, job)).is_err() {
                    break;
                }
            }
        })?;
        Ok(Writer { jobs: Some(jobs), done, thread: Some(thread) })
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            // A writer that panicked has already answered its caller with
            // a closed channel; there is nothing left to report here.
            let _ = thread.join();
        }
    }
}

/// What the writer thread does with one image: encode it into the
/// kept buffer, then the temp → write → fsync → rename protocol.
fn write_job(path: &Path, tmp: &Path, job: Job) -> Done {
    let Job { checkpoint, mut image, torn } = job;
    let started = Instant::now();
    checkpoint.write_image(&mut image);
    drop(checkpoint);
    let encoded = Instant::now();
    let renamed = put_on_disk(path, tmp, &image, torn);
    Done {
        image,
        renamed,
        encode_secs: (encoded - started).as_secs_f64(),
        io_secs: encoded.elapsed().as_secs_f64(),
    }
}

/// Write `bytes` to `tmp`, fsync, rename over `path`, then fsync the
/// directory. Returns whether the rename happened.
fn put_on_disk(path: &Path, tmp: &Path, bytes: &[u8], torn: bool) -> io::Result<bool> {
    let mut file = File::create(tmp)?;
    if torn {
        // Simulate dying mid-write: half the image reaches the temp
        // file, the rename never happens, the previous checkpoint
        // survives untouched.
        file.write_all(&bytes[..bytes.len() / 2])?;
        let _ = file.sync_all();
        return Ok(false);
    }
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(tmp, path)?;
    // Make the rename itself durable where the platform allows opening
    // directories; failure here cannot corrupt anything.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(true)
}

/// The checkpoint I/O error a pipeline run fails with.
fn io_error(e: io::Error) -> PipelineError {
    PipelineError::Checkpoint(CheckpointError::Io(e))
}

/// File name a [`Checkpointer`] maintains inside its directory.
pub const CHECKPOINT_FILE: &str = "eleph.ckpt";

impl Checkpointer {
    /// Checkpoint into `dir` (created if missing) every `every` sealed
    /// intervals (`every` ≥ 1).
    pub fn new(dir: impl AsRef<Path>, every: usize) -> io::Result<Self> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        Ok(Checkpointer {
            path: dir.join(CHECKPOINT_FILE),
            tmp: dir.join(format!("{CHECKPOINT_FILE}.tmp")),
            every: every.max(1),
            next_at: None,
            image: Vec::new(),
            writer: None,
            in_flight: false,
            written: CheckpointsWritten::default(),
        })
    }

    /// The checkpoint file this writer maintains.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Images written so far and what they cost. An image still in
    /// flight is not counted until [`Checkpointer::flush`] takes its
    /// answer.
    pub fn written(&self) -> CheckpointsWritten {
        self.written
    }

    /// Checkpoint now if the cadence says one is due. Returns whether an
    /// image was handed to the writer thread; it may still be in flight
    /// when this returns (see [`Checkpointer::flush`]).
    ///
    /// The cadence starts the first time this is called: the next image
    /// is due `every` intervals after the count the pipeline has sealed
    /// by then. [`Pipeline::run_checkpointed`] calls it before its first
    /// packet, so a resumed run continues the cadence of the run that
    /// wrote its checkpoint instead of rewriting that checkpoint at the
    /// first chunk boundary.
    pub fn maybe_write<D: ThresholdDetector>(
        &mut self,
        pipeline: &mut Pipeline<'_, D>,
    ) -> crate::Result<bool> {
        let sealed = pipeline.intervals_sealed();
        if sealed < *self.next_at.get_or_insert(sealed + self.every) {
            return Ok(false);
        }
        self.hand_off(pipeline)?;
        Ok(true)
    }

    /// Write a checkpoint unconditionally (atomic rename protocol) and
    /// wait until it is on disk.
    pub fn write<D: ThresholdDetector>(
        &mut self,
        pipeline: &mut Pipeline<'_, D>,
    ) -> crate::Result<()> {
        self.hand_off(pipeline)?;
        self.flush()
    }

    /// Wait until the image in flight, if any, is on disk, and fail with
    /// its error if it could not be written. A writer thread that died
    /// reads as that error too.
    pub fn flush(&mut self) -> crate::Result<()> {
        if !self.in_flight {
            return Ok(());
        }
        self.in_flight = false;
        let started = Instant::now();
        let done = self.writer.as_ref().and_then(|w| w.done.recv().ok());
        self.written.wait_secs += started.elapsed().as_secs_f64();
        let done = done.ok_or_else(writer_gone)?;
        self.image = done.image;
        if done.renamed.map_err(io_error)? {
            let len = self.image.len() as u64;
            let w = &mut self.written;
            w.images += 1;
            w.last_bytes = len;
            w.total_bytes += len;
            w.encode_secs += done.encode_secs;
            w.io_secs += done.io_secs;
        }
        Ok(())
    }

    /// Take the pipeline's snapshot, wait for the previous image, and
    /// hand this one to the writer thread.
    fn hand_off<D: ThresholdDetector>(
        &mut self,
        pipeline: &mut Pipeline<'_, D>,
    ) -> crate::Result<()> {
        let sealed = pipeline.intervals_sealed();
        let checkpoint = pipeline.export_checkpoint();
        self.flush()?;
        let torn = pipeline.crash_now(CrashPoint::MidCheckpointWrite, sealed);
        let writer = match &mut self.writer {
            Some(writer) => writer,
            None => self
                .writer
                .insert(Writer::spawn(self.path.clone(), self.tmp.clone()).map_err(io_error)?),
        };
        let job = Job { checkpoint, image: std::mem::take(&mut self.image), torn };
        writer
            .jobs
            .as_ref()
            .and_then(|jobs| jobs.send(job).ok())
            .ok_or_else(writer_gone)?;
        self.in_flight = true;
        self.next_at = Some(sealed + self.every);
        if torn {
            self.flush()?;
            return Err(PipelineError::Crash(CrashPoint::MidCheckpointWrite));
        }
        Ok(())
    }
}

/// What a closed channel to or from the writer thread means.
fn writer_gone() -> PipelineError {
    io_error(io::Error::other("the checkpoint writer thread exited"))
}

/// Advance a fresh source past the records a checkpointed run had
/// already consumed: `target` is the checkpoint's
/// [`Checkpoint::offered`] count (parsed + malformed).
///
/// Chunking is deterministic, so pulling whole chunks reproduces the
/// original consumption exactly and the count lands on a chunk
/// boundary; landing past it means the source does not match the
/// checkpoint (different capture, different fault seed) and is a
/// [`CheckpointError::Mismatch`].
pub fn skip_offered<S: PacketSource>(source: &mut S, target: u64) -> crate::Result<()> {
    let mut buf = Vec::new();
    let mut parsed: u64 = 0;
    loop {
        let consumed = parsed + source.malformed();
        if consumed == target {
            return Ok(());
        }
        if consumed > target {
            return Err(PipelineError::Checkpoint(CheckpointError::Mismatch(format!(
                "source chunk boundary at {consumed} records overshoots the checkpoint's {target} \
                 — the source does not match the checkpointed run"
            ))));
        }
        buf.clear();
        match source.next_chunk(&mut buf)? {
            0 if parsed + source.malformed() < target => {
                return Err(PipelineError::Checkpoint(CheckpointError::Mismatch(format!(
                    "source exhausted after {} records but the checkpoint consumed {target}",
                    parsed + source.malformed()
                ))));
            }
            n => parsed += n as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipelineBuilder, StateBackendConfig};
    use eleph_bgp::synth::{self, SynthConfig};
    use eleph_packet::{IpProtocol, PacketMeta};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::net::Ipv4Addr;

    /// Oracle: the byte-at-a-time loop [`crc32`] replaced.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |crc, &b| crc_step(crc, b))
    }

    /// Oracle: the image assembly [`Checkpoint::write_image`] replaced,
    /// kept as it was — the payload encoded into an unsized buffer of
    /// its own, then copied behind a header built around it.
    impl Checkpoint {
        fn encode(&self) -> Vec<u8> {
            let mut w = Vec::new();
            // Configuration fingerprint.
            w.extend_from_slice(&self.config.interval_secs.to_le_bytes());
            w.extend_from_slice(&self.config.start_unix.to_le_bytes());
            put_opt_u64(&mut w, self.config.n_intervals);
            w.extend_from_slice(&self.config.gamma.to_bits().to_le_bytes());
            match self.config.scheme {
                Scheme::SingleFeature => w.push(0),
                Scheme::LatentHeat { window } => {
                    w.push(1);
                    w.extend_from_slice(&(window as u64).to_le_bytes());
                }
                Scheme::Hysteresis { enter, exit } => {
                    w.push(2);
                    w.extend_from_slice(&enter.to_bits().to_le_bytes());
                    w.extend_from_slice(&exit.to_bits().to_le_bytes());
                }
            }
            put_str(&mut w, &self.config.detector);
            w.extend_from_slice(&self.config.n_routes.to_le_bytes());
            w.extend_from_slice(&self.config.generation.to_le_bytes());
            // Progress.
            w.extend_from_slice(&self.open.to_le_bytes());
            w.extend_from_slice(&self.far_future_streak.to_le_bytes());
            let s = &self.stats;
            for v in [
                s.offered,
                s.attributed,
                s.attributed_bytes,
                s.unroutable,
                s.out_of_window,
                s.malformed,
                s.late,
            ] {
                w.extend_from_slice(&v.to_le_bytes());
            }
            // Key table.
            w.extend_from_slice(&(self.keys.len() as u64).to_le_bytes());
            for &(route, prefix) in &self.keys {
                w.extend_from_slice(&route.to_le_bytes());
                w.extend_from_slice(&prefix.bits().to_le_bytes());
                w.push(prefix.len());
            }
            // Open interval row.
            w.extend_from_slice(&(self.row.len() as u64).to_le_bytes());
            for &(key, bytes) in &self.row {
                w.extend_from_slice(&key.to_le_bytes());
                w.extend_from_slice(&bytes.to_le_bytes());
            }
            // Classifier state.
            let st = &self.state;
            w.extend_from_slice(&(st.interval as u64).to_le_bytes());
            put_opt_f64(&mut w, st.smoothed);
            w.extend_from_slice(&st.sum_t.to_bits().to_le_bytes());
            w.extend_from_slice(&(st.per_key.len() as u64).to_le_bytes());
            for &(key, sum, live) in &st.per_key {
                w.extend_from_slice(&key.to_le_bytes());
                w.extend_from_slice(&sum.to_bits().to_le_bytes());
                w.extend_from_slice(&live.to_le_bytes());
            }
            w.extend_from_slice(&(st.history.len() as u64).to_le_bytes());
            for (t_term, snapshot) in &st.history {
                w.extend_from_slice(&t_term.to_bits().to_le_bytes());
                w.extend_from_slice(&(snapshot.len() as u64).to_le_bytes());
                for &(key, rate) in snapshot {
                    w.extend_from_slice(&key.to_le_bytes());
                    w.extend_from_slice(&rate.to_bits().to_le_bytes());
                }
            }
            w.extend_from_slice(&(st.members.len() as u64).to_le_bytes());
            for &key in &st.members {
                w.extend_from_slice(&key.to_le_bytes());
            }
            // Version-3 tail: sketch-backend kind + payload. Absent (and the
            // image stays a byte-identical version 2) for the exact backend.
            if let Some((kind, sketch)) = &self.sketch {
                put_str(&mut w, kind);
                w.extend_from_slice(&(sketch.len() as u64).to_le_bytes());
                w.extend_from_slice(sketch);
            }
            w
        }

        fn to_bytes_by_copy(&self) -> Vec<u8> {
            let payload = self.encode();
            let version = if self.sketch.is_none() { VERSION } else { VERSION_SKETCH };
            let mut bytes = Vec::with_capacity(24 + payload.len());
            bytes.extend_from_slice(&MAGIC);
            bytes.extend_from_slice(&version.to_le_bytes());
            bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&crc32_bytewise(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
            bytes
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // The standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_equals_bytewise_at_every_short_length_and_offset() {
        // Every split of a buffer into whole strides and a tail, from
        // every alignment of its first byte.
        let mut buf = [0u8; 8 + 4 * CRC_STRIDE];
        StdRng::seed_from_u64(19).fill_bytes(&mut buf);
        for start in 0..8 {
            for len in 0..=4 * CRC_STRIDE {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn crc32_equals_bytewise_on_random_buffers(
            data in prop::collection::vec(any::<u8>(), 0..65_537),
            start in 0usize..8,
        ) {
            let data = &data[start.min(data.len())..];
            prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            config: CheckpointConfig {
                interval_secs: 300,
                start_unix: 995_990_400,
                n_intervals: Some(12),
                gamma: 0.9,
                scheme: Scheme::LatentHeat { window: 12 },
                detector: "0.80-constant-load".to_string(),
                n_routes: 3,
                generation: 4,
            },
            open: 5,
            far_future_streak: 2,
            stats: PipelineStats {
                offered: 100,
                attributed: 90,
                attributed_bytes: 12_345,
                unroutable: 4,
                out_of_window: 3,
                malformed: 2,
                late: 1,
            },
            keys: vec![
                (2, "10.0.0.0/8".parse().expect("prefix")),
                (0, "192.168.0.0/16".parse().expect("prefix")),
            ],
            row: vec![(0, 700), (1, 42)],
            state: ClassifierState {
                interval: 5,
                smoothed: Some(123.456),
                sum_t: 900.25,
                per_key: vec![(0, 50.5, 2), (1, 7.0, 1)],
                history: vec![
                    (100.0, vec![(0, 25.25f32), (1, 7.0)]),
                    (200.5, vec![(0, 25.25f32)]),
                ],
                members: vec![],
            },
            sketch: None,
        }
    }

    /// A sketch-backend snapshot: empty dense row, version-3 tail.
    fn sample_sketch() -> Checkpoint {
        let mut ckpt = sample();
        ckpt.row = Vec::new();
        ckpt.sketch = Some(("spacesaving".to_string(), vec![1, 0, 0, 0, 7, 7, 7]));
        ckpt
    }

    #[test]
    fn sample_images_equal_the_committed_fixtures() {
        // Written by the encoder as it stood before images were built in
        // place: the format is pinned to files, not to two encoders in
        // this tree agreeing with each other.
        let v2: &[u8] = include_bytes!("../tests/fixtures/sample_v2.ckpt");
        let v3: &[u8] = include_bytes!("../tests/fixtures/sample_v3.ckpt");
        assert_eq!(sample().to_bytes(), v2);
        assert_eq!(sample_sketch().to_bytes(), v3);
        assert_eq!(sample().to_bytes_by_copy(), v2);
        assert_eq!(sample_sketch().to_bytes_by_copy(), v3);
        let mut written = Vec::new();
        sample_sketch().write_to(&mut written).expect("write to a Vec");
        assert_eq!(written, v3);
    }

    fn packet(dst: Ipv4Addr, ts_ns: u64, wire_len: u32) -> PacketMeta {
        PacketMeta {
            ts_ns,
            src: Ipv4Addr::new(198, 18, 0, 1),
            dst,
            proto: IpProtocol::Udp,
            src_port: 9,
            dst_port: 53,
            wire_len,
        }
    }

    /// A pipeline over ten-second intervals from time 0.
    fn pipeline_over<'t>(
        table: &'t eleph_bgp::BgpTable,
        scheme: Scheme,
        state: StateBackendConfig,
        shards: usize,
    ) -> Pipeline<'t, eleph_core::ConstantLoadDetector> {
        PipelineBuilder::new()
            .table(table)
            .interval_secs(10)
            .scheme(scheme)
            .state_backend(state)
            .shards(shards)
            .build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Whatever a pipeline has seen, under every scheme, state
        /// backend and engine, the image built in place is the image the
        /// copying assembly builds from the same snapshot.
        #[test]
        fn in_place_image_equals_the_copying_oracle(
            packets in prop::collection::vec(
                (0usize..300, 0u64..6, 0u64..10_000_000_000, 40u32..1500),
                1..400,
            ),
            window in 1usize..4,
        ) {
            let table = synth::generate(&SynthConfig { n_prefixes: 300, ..SynthConfig::default() });
            let dsts: Vec<Ipv4Addr> = table.iter().map(|e| e.prefix.network()).collect();
            let mut metas: Vec<PacketMeta> = packets
                .iter()
                .map(|&(route, interval, offset_ns, len)| {
                    packet(dsts[route % dsts.len()], interval * 10_000_000_000 + offset_ns, len)
                })
                .collect();
            metas.sort_by_key(|m| m.ts_ns);
            // Tight enough that the sketches evict.
            let budget_bytes = 2_048;
            for scheme in [
                Scheme::SingleFeature,
                Scheme::LatentHeat { window },
                Scheme::Hysteresis { enter: 1.2, exit: 0.6 },
            ] {
                for (state, shards) in [
                    (StateBackendConfig::Exact, 0),
                    (StateBackendConfig::Exact, 2),
                    (StateBackendConfig::SpaceSaving { budget_bytes }, 0),
                    (StateBackendConfig::CountMinRow { budget_bytes }, 0),
                    (StateBackendConfig::AdaptiveBloom { budget_bytes }, 0),
                ] {
                    let mut pipeline = pipeline_over(&table, scheme, state, shards);
                    pipeline.observe_chunk(&metas).expect("observe");
                    let snapshot = pipeline.export_checkpoint();
                    let want = snapshot.to_bytes_by_copy();
                    prop_assert_eq!(&snapshot.to_bytes(), &want, "{:?} {:?} {}", scheme, state, shards);
                    let mut written = Vec::new();
                    pipeline.checkpoint(&mut written).expect("write to a Vec");
                    prop_assert_eq!(&written, &want, "{:?} {:?} {}", scheme, state, shards);
                }
            }
        }
    }

    #[test]
    fn a_reused_buffer_holds_only_the_new_image() {
        // One `Checkpointer`, so one buffer: first a pipeline with 200
        // keys in its window, then one with two. The second file must be
        // the small pipeline's image exactly — header fields rewritten,
        // nothing of the large image behind it.
        let table = synth::generate(&SynthConfig { n_prefixes: 300, ..SynthConfig::default() });
        let dsts: Vec<Ipv4Addr> = table.iter().map(|e| e.prefix.network()).collect();
        let scheme = Scheme::LatentHeat { window: 3 };
        let busy: Vec<PacketMeta> = (0..600u64)
            .map(|i| packet(dsts[i as usize % 200], i * 50_000_000, 400))
            .collect();
        let quiet = [packet(dsts[0], 1, 100), packet(dsts[1], 2, 100)];

        let dir = std::env::temp_dir().join(format!("eleph-ckpt-reuse-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut checkpointer = Checkpointer::new(&dir, 1).expect("checkpointer");
        let mut images = Vec::new();
        for metas in [&busy[..], &quiet[..]] {
            let mut pipeline = pipeline_over(&table, scheme, StateBackendConfig::Exact, 0);
            pipeline.observe_chunk(metas).expect("observe");
            checkpointer.write(&mut pipeline).expect("write");
            let file = fs::read(checkpointer.path()).expect("checkpoint file");
            assert_eq!(file, pipeline.export_checkpoint().to_bytes_by_copy());
            assert!(Checkpoint::load(checkpointer.path()).is_ok());
            images.push(file);
        }
        assert!(images[0].len() > 10 * images[1].len(), "the second image is much the smaller");
        let written = checkpointer.written();
        assert_eq!(written.images, 2);
        assert_eq!(written.last_bytes, images[1].len() as u64);
        assert_eq!(written.total_bytes, (images[0].len() + images[1].len()) as u64);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_dead_writer_is_an_io_error_not_a_hang() {
        let table = synth::generate(&SynthConfig { n_prefixes: 300, ..SynthConfig::default() });
        let dst = table.iter().next().expect("a route").prefix.network();
        let mut pipeline =
            pipeline_over(&table, Scheme::SingleFeature, StateBackendConfig::Exact, 0);
        pipeline.observe_chunk(&[packet(dst, 1, 100)]).expect("observe");
        let dir = std::env::temp_dir().join(format!("eleph-ckpt-dead-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut checkpointer = Checkpointer::new(&dir, 1).expect("checkpointer");
        let is_io = |r: crate::Result<()>| {
            matches!(r, Err(PipelineError::Checkpoint(CheckpointError::Io(_))))
        };

        // Gone between images: the job channel is closed.
        let (jobs, _) = mpsc::channel();
        let (_, done) = mpsc::channel();
        checkpointer.writer = Some(Writer { jobs: Some(jobs), done, thread: None });
        assert!(is_io(checkpointer.write(&mut pipeline)));

        // Gone holding an image: the job is taken and no answer comes.
        let (jobs, taken) = mpsc::channel::<Job>();
        let (answer, done) = mpsc::channel::<Done>();
        let thread = thread::spawn(move || {
            let _job = taken.recv();
            drop(answer);
        });
        checkpointer.writer = Some(Writer { jobs: Some(jobs), done, thread: Some(thread) });
        assert!(is_io(checkpointer.write(&mut pipeline)));
        assert!(is_io(checkpointer.write(&mut pipeline)), "and stays gone");
        assert_eq!(checkpointer.written().images, 0);
        assert!(!checkpointer.path().exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let original = sample();
        let bytes = original.to_bytes();
        let decoded = Checkpoint::read_from(&mut &bytes[..]).expect("round trip");
        assert_eq!(decoded.config, original.config);
        assert_eq!(decoded.config.gamma.to_bits(), original.config.gamma.to_bits());
        assert_eq!(decoded.open, original.open);
        assert_eq!(decoded.far_future_streak, original.far_future_streak);
        assert_eq!(decoded.stats, original.stats);
        assert_eq!(decoded.keys, original.keys);
        assert_eq!(decoded.row, original.row);
        assert_eq!(decoded.state, original.state);
        assert_eq!(decoded.sketch, None);
        assert_eq!(bytes[8..12], VERSION.to_le_bytes(), "exact images stay version 2");
    }

    #[test]
    fn sketch_round_trip_is_version_3() {
        let original = sample_sketch();
        let bytes = original.to_bytes();
        assert_eq!(bytes[8..12], VERSION_SKETCH.to_le_bytes());
        let decoded = Checkpoint::read_from(&mut &bytes[..]).expect("round trip");
        assert_eq!(decoded.state, original.state);
        assert_eq!(decoded.row, Vec::new());
        assert_eq!(decoded.sketch, original.sketch);
    }

    #[test]
    fn sketch_tail_mismatches_are_rejected() {
        // A v3 header over a tail-less v2 payload must not decode.
        let payload = sample().encode();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION_SKETCH.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(Checkpoint::read_from(&mut &bytes[..]).is_err());
        // And a v2 header over a payload carrying a tail leaves trailing
        // bytes — also rejected.
        let payload = sample_sketch().encode();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            Checkpoint::read_from(&mut &bytes[..]),
            Err(CheckpointError::Format(_))
        ));
    }

    #[test]
    fn sketch_image_rejects_flips_and_truncations() {
        let bytes = sample_sketch().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xA5;
            assert!(Checkpoint::read_from(&mut &bad[..]).is_err(), "flip at byte {i} accepted");
        }
        for keep in 0..bytes.len() {
            assert!(
                Checkpoint::read_from(&mut &bytes[..keep]).is_err(),
                "truncation to {keep} bytes accepted"
            );
        }
    }

    #[test]
    fn every_flipped_byte_is_rejected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xA5;
            assert!(
                Checkpoint::read_from(&mut &bad[..]).is_err(),
                "flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn payload_corruption_is_a_checksum_error() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        match Checkpoint::read_from(&mut &bytes[..]) {
            Err(CheckpointError::Checksum { expected, actual }) => assert_ne!(expected, actual),
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().to_bytes();
        for keep in 0..bytes.len() {
            assert!(
                Checkpoint::read_from(&mut &bytes[..keep]).is_err(),
                "truncation to {keep} bytes accepted"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Checkpoint::read_from(&mut &bytes[..]),
            Err(CheckpointError::Format(_))
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_format_errors() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Checkpoint::read_from(&mut &bytes[..]),
            Err(CheckpointError::Format(_))
        ));
        let mut bytes = sample().to_bytes();
        bytes[8] = 99;
        match Checkpoint::read_from(&mut &bytes[..]) {
            Err(CheckpointError::Format(msg)) => assert!(msg.contains("version")),
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_count_fails_without_huge_allocation() {
        // Corrupting a length prefix inside the payload flips the CRC,
        // so craft an image whose *header* is rewritten around a
        // corrupted payload: the decoder must reject the count, not
        // allocate petabytes.
        let mut payload = sample().encode();
        // keys count sits right after config + progress; stomp the last
        // 8 payload bytes instead (members count) to u64::MAX.
        let at = payload.len() - 12;
        payload[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        match Checkpoint::read_from(&mut &bytes[..]) {
            Err(CheckpointError::Format(msg)) => assert!(msg.contains("count"), "{msg}"),
            other => panic!("expected count rejection, got {other:?}"),
        }
    }
}
