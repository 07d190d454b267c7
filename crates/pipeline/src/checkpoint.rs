//! Crash-safe snapshots of the streaming pipeline.
//!
//! A long-horizon monitor cannot afford to lose its classifier window:
//! latent heat and hysteresis are *temporal* stabilizers, so a restart
//! that resets them silently reclassifies every flow. A [`Checkpoint`]
//! carries the full recovery frontier — the classifier's window ring,
//! threshold terms and their sliding sum, whether a detection was made,
//! the first-seen key mapping, the open interval's byte row, and the
//! packet accounting — so a resumed pipeline continues
//! **bit-identically** to the run that wrote it. What the window
//! derives — each key's window sum and occupancy, and the smoothed
//! threshold — a resume derives again.
//!
//! # Format (versions 5 and 6)
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
//! routing-table generation), followed later by the per-key prefixes.
//! [`crate::PipelineBuilder::resume`] builds the pipeline as
//! [`crate::PipelineBuilder::build`] does and restores the snapshot into
//! it; the pipeline's own fingerprint — the one function that also
//! writes it into every image — is compared with the snapshot's field
//! by field, and so are the state backend and the per-key prefixes, so
//! state can never be grafted onto a different measurement definition —
//! including a live routing table at a different update generation than
//! the one the snapshot was taken against. The payload is read by
//! [`eleph_core::ByteReader`], the reader the sketch payloads inside it
//! go through too.
//!
//! After the fingerprint and the packet accounting come the key table
//! and the window's history, as the records of a log (see "The log"),
//! then the open interval's byte row, the classifier's interval index, a
//! detection byte (1: the smoothed threshold is the last slot's
//! threshold term), the threshold sum, the hysteresis membership, and a
//! state backend tag: 0 for the exact backend, 1 for a sketch
//! ([`eleph_core::sketch`]), whose kind string and length-prefixed,
//! internally-versioned payload follow (the dense row is then empty).
//!
//! The two versions differ in the one field that holds the log records:
//! - **Version 5**, what a [`Checkpointer`] writes, names the image's
//!   log: its file name, its byte watermark (its length when the image
//!   was taken), the keys it holds and the history slots the window
//!   holds. [`Checkpoint::load`] reads that log up to the watermark;
//!   [`Checkpoint::read_from`], which has no directory to find it in,
//!   refuses the image with a format error.
//! - **Version 6**, the self-contained form that [`Pipeline::checkpoint`]
//!   and [`Checkpoint::write_to`] write and both readers read, holds the
//!   key and window counts and the log's own bytes, length-prefixed: the
//!   header, one key record holding every key and one slot record per
//!   window slot — the log a [`Checkpointer`] starts from that snapshot.
//!
//! So a key and a history slot have one encoding, the log record, and
//! one decoder, the record walk both versions share: a version-5 image
//! and its log load as the [`Checkpoint`] the version-6 image of the
//! same moment decodes to. Versions 2 to 4, the layouts before these,
//! are refused with a format error naming the version.
//!
//! # The log
//!
//! ```text
//! magic    8 B  b"ELPHCLOG"
//! version  4 B  u32 LE
//! records  ...  kind (1 B), payload length (8 B), payload, CRC-32 (4 B)
//!               of kind, length and payload
//! ```
//!
//! A key record (kind 1) holds the id of its first key and then the keys
//! assigned since the image before, 9 bytes each (route, prefix bits,
//! prefix length): every key is appended once, when the first image
//! after its assignment is taken. A slot record (kind 2) holds one
//! sealed interval of the window: its index, the bits of its threshold
//! term and its sparse snapshot, 8 bytes a key. Every slot still in the
//! window when an image is taken is appended once, by that image. The
//! log is named `eleph.<n>.log` beside the image: a compaction's log
//! takes the number after the one it replaces, and a log a run starts
//! takes the number after every log in the directory (0 in an empty
//! one).
//!
//! A load reads the whole log up to the watermark and checks every
//! record's CRC: a flipped byte is a checksum or format error, a log
//! shorter than its watermark a format error naming both lengths, a
//! missing log an I/O error naming its path. No count is believed
//! before it has been bounded by the bytes that hold it. Bytes past the
//! watermark are ignored: they belong to an image that never landed.
//!
//! **Compaction.** Before each append the [`Checkpointer`] compares
//! what the log would then hold of dead bytes — slots that have left
//! the window, the framing of all key records but one — with its live
//! bytes: the header, one key record holding every key, and the
//! window's slot records, which is what a log started from the same
//! frontier holds. When the dead bytes would be more, the image does
//! not append: it starts the next log from the pipeline's whole key
//! table and window, as a first image does, and the old log is deleted
//! once the image naming the new one is in place. No log is ever read
//! to write another. So the log never holds more than twice its live
//! bytes after an image, and since the rule reads only the images
//! taken, the log, the image and every file name are a function of the
//! input, the configuration and the cadence — on one core or many, and
//! across any number of crashes and resumes.
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
//! [`Checkpointer`] keeps its image and log buffers from one write to
//! the next; the one-shot forms ([`Pipeline::checkpoint`],
//! [`Checkpoint::write_to`]) run the same routine over a fresh one.
//!
//! What the pipeline copies: for a [`Checkpointer`] only the frontier
//! — the open row and the membership — plus the keys assigned and the
//! slots sealed since the log it continues was last written (all of
//! them when it starts a log). The compaction rule is decided first,
//! from the number of new keys and each new slot's pair count, so an
//! image copies once. The one-shot forms copy the whole key table and
//! window too: the decoded form stays one plain owned struct that tests
//! can build, corrupt and re-encode.
//!
//! # Where an image is produced
//!
//! Off the packet path. At a due chunk boundary the packet thread takes
//! the owned copy, waits for the previous image if it is still in
//! flight, and hands the copy and the kept buffers to the
//! [`Checkpointer`]'s one writer thread — spawned at the first image,
//! joined on drop — which encodes, checksums and writes the log records
//! and the image by the protocol below and hands the buffers back. At
//! most one image is ever in flight, and [`Pipeline::run_checkpointed`]
//! waits for it before it returns, so the bytes of every file, and the
//! intervals at which images are taken, are what a writer on the packet
//! thread produces.
//!
//! # Atomicity & exactly-once emission
//!
//! The writer thread takes three steps per image, in this order:
//! 1. append the image's records to the log it names and fsync it, or
//!    create that log whole — header first — fsync it and sync the
//!    directory;
//! 2. write the image to `<file>.tmp`, fsync, rename it over the final
//!    name, then fsync the directory (best effort);
//! 3. delete the log the image before named, if this one names another.
//!
//! A crash before the rename leaves the previous image in place and its
//! log complete up to that image's watermark — possibly with a torn or
//! complete tail of records behind it, or a new log no image names —
//! and a temp image. [`Checkpointer::new`] is the recovery: it cuts the
//! log its image names back to the watermark (the torn-tail rule of
//! [`crate::RotatingJsonlSink::resume`]) and deletes the rest. A
//! resumed pipeline then appends to that log where the image left it,
//! so a resumed run writes the files the uninterrupted run writes. A
//! resume from a version-6 image starts a new log at its first image.
//!
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

use std::collections::VecDeque;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use eleph_bgp::RouteId;
use eleph_core::{ByteReader, ClassifierState, Scheme, ThresholdDetector};
use eleph_flow::KeyId;
use eleph_net::Prefix;

use crate::pipeline::{Pipeline, PipelineError, PipelineStats};
use crate::source::PacketSource;

const MAGIC: [u8; 8] = *b"ELPHCKPT";
/// Format a [`Checkpointer`] writes: the frontier, with the key table
/// and the window's history in the log it names.
const VERSION_LOGGED: u32 = 5;
/// The self-contained format: the version-5 payload holding its log's
/// bytes where version 5 names the log.
const VERSION_INLINE: u32 = 6;
/// Header layout: magic (8), version (4), then the two fields patched
/// in once the payload exists — its length (8) and CRC-32 (4).
const LENGTH_AT: usize = 12;
const CRC_AT: usize = 20;
const HEADER_LEN: usize = 24;

/// Log header: magic (8), version (4).
const LOG_MAGIC: [u8; 8] = *b"ELPHCLOG";
const LOG_VERSION: u32 = 1;
const LOG_HEADER_LEN: u64 = 12;
/// Log record kinds.
const KEY_RECORD: u8 = 1;
const SLOT_RECORD: u8 = 2;
/// A record's bytes besides its payload: kind (1), payload length (8),
/// CRC-32 (4).
const RECORD_FRAME: u64 = 13;
/// Where a key record's entries start: kind, length, first key id.
const KEYS_AT: u64 = 17;

/// Why a checkpoint could not be read, written, or applied.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The bytes are not a checkpoint (bad magic, unknown version,
    /// truncation, trailing garbage, or a malformed payload or log).
    Format(String),
    /// The payload or a log record does not match its recorded
    /// checksum.
    Checksum {
        /// CRC recorded in the header or the record.
        expected: u32,
        /// CRC of the bytes as read.
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
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
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
    !strides
        .remainder()
        .iter()
        .fold(crc, |crc, &b| crc_step(crc, b))
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
    /// `None` for the exact backend, whose images carry state backend
    /// tag 0.
    pub(crate) sketch: Option<(String, Vec<u8>)>,
    /// The log of the version-5 image this was loaded from: a pipeline
    /// resumed from it lets a [`Checkpointer`] append to that log. `None`
    /// for every snapshot not loaded from a version-5 image.
    pub(crate) log: Option<LogState>,
}

impl Checkpoint {
    /// Intervals sealed when this snapshot was taken, each handed to
    /// every sink before it — the line count the output must be
    /// truncated to before resuming. The JSONL sinks flush each line but
    /// do not fsync it, so after a power cut the output can hold fewer
    /// (see [`crate::RotatingJsonlSink`]).
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

    /// Serialize as the self-contained image (version 6: header +
    /// checksummed payload, the log inline).
    pub fn write_to<W: Write>(&self, out: &mut W) -> io::Result<()> {
        out.write_all(&self.to_bytes())
    }

    /// The complete self-contained image in a fresh buffer.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut image = Vec::new();
        self.write_image(&mut image, None);
        image
    }

    /// Build the complete on-disk image in `image`, replacing whatever
    /// it held (see "How an image is produced" in the module docs): the
    /// buffer is sized once from the parts, the payload is encoded
    /// behind a header whose length and CRC fields are patched in last.
    /// With `log`, the image is version 5 and names that log; its key
    /// table and history are then left out, whatever this holds.
    /// Without, it is version 6 and holds them as a log's records.
    fn write_image(&self, image: &mut Vec<u8>, log: Option<&LogRef>) {
        let version = if log.is_some() {
            VERSION_LOGGED
        } else {
            VERSION_INLINE
        };
        let reserved = HEADER_LEN + self.payload_len_bound();
        image.clear();
        image.reserve(reserved);
        image.extend_from_slice(&MAGIC);
        image.extend_from_slice(&version.to_le_bytes());
        image.extend_from_slice(&[0; HEADER_LEN - LENGTH_AT]);
        self.encode_into(image, log);
        debug_assert!(image.len() <= reserved, "payload_len_bound fell short");
        let (header, payload) = image.split_at_mut(HEADER_LEN);
        header[LENGTH_AT..CRC_AT].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        header[CRC_AT..].copy_from_slice(&crc32(payload).to_le_bytes());
    }

    /// An upper bound on the payload's size: what
    /// [`Checkpoint::write_image`] reserves so the encoder never
    /// reallocates (a version-5 image holds none of the log records
    /// counted).
    fn payload_len_bound(&self) -> usize {
        // Every fixed-width field, option tag, length prefix, log
        // reference and log header of the layout, each option and scheme
        // at its widest.
        const FIXED: usize = 320;
        let slots = self
            .state
            .history
            .iter()
            .map(|(_, slot)| slot_record_len(slot.len()));
        let records = key_record_len(self.keys.len()) + slots.sum::<u64>();
        let sketch = self
            .sketch
            .as_ref()
            .map_or(0, |(kind, payload)| kind.len() + payload.len());
        FIXED
            + self.config.detector.len()
            + records as usize
            + 12 * self.row.len()
            + 4 * self.state.members.len()
            + sketch
    }

    /// Read and verify a self-contained (version 6) checkpoint. A
    /// version-5 image is a format error: its key table and window are
    /// in a log beside its file, which [`Checkpoint::load`] reads.
    pub fn read_from<R: Read>(input: &mut R) -> Result<Self, CheckpointError> {
        let (version, payload) = read_image(input)?;
        Self::from_image(&payload, version, None).map(|(checkpoint, _)| checkpoint)
    }

    /// Read and verify a checkpoint file: a self-contained image, or a
    /// version-5 image and its log up to the watermark.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Self::load_logged(path.as_ref()).map(|(checkpoint, _)| checkpoint)
    }

    /// [`Checkpoint::load`], also returning a version-5 image's log as
    /// its writer accounts for it.
    fn load_logged(path: &Path) -> Result<(Self, Option<LogState>), CheckpointError> {
        let (version, payload) = read_image(&mut File::open(path)?)?;
        Self::from_image(&payload, version, Some(path))
    }

    /// The checkpoint a verified payload holds, its key table and window
    /// walked off the records it holds (version 6) or off the log it
    /// names beside `image` (version 5, which without `image` is a format
    /// error); with that log as its writer accounts for it.
    fn from_image(
        payload: &[u8],
        version: u32,
        image: Option<&Path>,
    ) -> Result<(Self, Option<LogState>), CheckpointError> {
        let (mut checkpoint, records) =
            Self::decode(payload, version).map_err(CheckpointError::Format)?;
        match records {
            Records::Inline {
                keys,
                window,
                bytes,
            } => {
                walk_log(bytes, keys, window, &mut checkpoint, "inline log")?;
                Ok((checkpoint, None))
            }
            Records::Named(log) => {
                let Some(image) = image else {
                    let why = "a version-5 image needs its log: load it from its file beside it";
                    return Err(CheckpointError::Format(why.to_string()));
                };
                let log = read_log(image, &log, &mut checkpoint)?;
                checkpoint.log = Some(log.clone());
                Ok((checkpoint, Some(log)))
            }
        }
    }

    /// Append the payload to `w` — the one encoder every image goes
    /// through. With `log` (version 5) the log's reference takes the
    /// place of the key table and history, which version 6 holds as the
    /// records of a log started from this snapshot.
    fn encode_into(&self, w: &mut Vec<u8>, log: Option<&LogRef>) {
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
        // Key table and history.
        match log {
            Some(log) => log.encode_into(w),
            None => {
                w.extend_from_slice(&(self.keys.len() as u64).to_le_bytes());
                w.extend_from_slice(&(self.state.history.len() as u64).to_le_bytes());
                let at = w.len();
                w.extend_from_slice(&[0; 8]);
                put_log_header(w);
                self.encode_records(0, w);
                let len = (w.len() - at - 8) as u64;
                w[at..at + 8].copy_from_slice(&len.to_le_bytes());
            }
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
        w.push(u8::from(st.detected));
        w.extend_from_slice(&st.sum_t.to_bits().to_le_bytes());
        w.extend_from_slice(&(st.members.len() as u64).to_le_bytes());
        for &key in &st.members {
            w.extend_from_slice(&key.to_le_bytes());
        }
        // State backend tag, then a sketch's kind and payload.
        w.push(u8::from(self.sketch.is_some()));
        if let Some((kind, sketch)) = &self.sketch {
            put_str(w, kind);
            w.extend_from_slice(&(sketch.len() as u64).to_le_bytes());
            w.extend_from_slice(sketch);
        }
    }

    /// Append this snapshot's log records to `w`: one key record holding
    /// its keys, the first of them key `keys_from` (none when it holds
    /// none), then one slot record per history slot.
    fn encode_records(&self, keys_from: usize, w: &mut Vec<u8>) {
        if !self.keys.is_empty() {
            put_record(w, KEY_RECORD, |w| {
                w.extend_from_slice(&(keys_from as u64).to_le_bytes());
                for &(route, prefix) in &self.keys {
                    put_key(w, route, prefix);
                }
            });
        }
        let first = self.state.interval - self.state.history.len();
        for (i, (t_term, snapshot)) in self.state.history.iter().enumerate() {
            put_record(w, SLOT_RECORD, |w| {
                w.extend_from_slice(&((first + i) as u64).to_le_bytes());
                w.extend_from_slice(&t_term.to_bits().to_le_bytes());
                put_snapshot(w, snapshot);
            });
        }
    }

    /// Read a payload; every error is a format error's message. The
    /// checkpoint decodes with an empty key table and history, and the
    /// log records that hold them: the ones the payload holds, or the
    /// reference to the log that does.
    fn decode(payload: &[u8], version: u32) -> Result<(Self, Records<'_>), String> {
        let mut r = ByteReader::new(payload, "payload");
        let interval_secs = r.u64()?;
        let start_unix = r.u64()?;
        let n_intervals = opt_u64(&mut r)?;
        let gamma = f64::from_bits(r.u64()?);
        let scheme = match r.u8()? {
            0 => Scheme::SingleFeature,
            1 => Scheme::LatentHeat {
                window: usize::try_from(r.u64()?).map_err(|_| "window too large".to_string())?,
            },
            2 => Scheme::Hysteresis {
                enter: f64::from_bits(r.u64()?),
                exit: f64::from_bits(r.u64()?),
            },
            t => return Err(format!("unknown scheme tag {t}")),
        };
        let detector = string(&mut r)?;
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
        let records = if version == VERSION_LOGGED {
            Records::Named(LogRef::decode(&mut r)?)
        } else {
            let (keys, window) = (r.u64()?, r.u64()?);
            let len = r.count(1, "inline log")?;
            Records::Inline {
                keys,
                window,
                bytes: r.take(len)?,
            }
        };
        let n_row = r.count(12, "row")?;
        let mut row = Vec::with_capacity(n_row);
        for _ in 0..n_row {
            row.push((r.u32()?, r.u64()?));
        }
        let interval =
            usize::try_from(r.u64()?).map_err(|_| "interval index too large".to_string())?;
        let detected = match r.u8()? {
            tag @ (0 | 1) => tag == 1,
            t => return Err(format!("bad detection tag {t}")),
        };
        let sum_t = f64::from_bits(r.u64()?);
        let n_members = r.count(4, "members")?;
        let mut members = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            members.push(r.u32()?);
        }
        let sketch = match r.u8()? {
            0 => None,
            1 => {
                let kind = string(&mut r)?;
                let n_sketch = r.count(1, "sketch payload")?;
                let bytes = r.take(n_sketch)?.to_vec();
                if !row.is_empty() {
                    return Err("sketch checkpoint carries a dense row".to_string());
                }
                Some((kind, bytes))
            }
            t => return Err(format!("unknown state backend tag {t}")),
        };
        r.end()?;
        if interval as u64 != open {
            return Err(format!(
                "classifier at interval {interval} but {open} intervals sealed"
            ));
        }
        let checkpoint = Checkpoint {
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
            keys: Vec::new(),
            row,
            state: ClassifierState {
                interval,
                detected,
                sum_t,
                history: Vec::new(),
                members,
            },
            sketch,
            log: None,
        };
        Ok((checkpoint, records))
    }
}

/// Where a decoded image's key table and history are: log records.
enum Records<'a> {
    /// In the log a version-5 image names.
    Named(LogRef),
    /// In the log bytes a version-6 image holds: `keys` keys and a
    /// window of `window` slots.
    Inline {
        keys: u64,
        window: u64,
        bytes: &'a [u8],
    },
}

/// Read an image's header and payload and verify its checksum: the
/// version and the payload.
fn read_image<R: Read>(input: &mut R) -> Result<(u32, Vec<u8>), CheckpointError> {
    let mut head = [0u8; HEADER_LEN];
    input.read_exact(&mut head)?;
    if head[..8] != MAGIC {
        return Err(CheckpointError::Format("bad magic".to_string()));
    }
    let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
    if version != VERSION_LOGGED && version != VERSION_INLINE {
        return Err(CheckpointError::Format(format!(
            "unsupported version {version} (this build reads versions 5 and 6)"
        )));
    }
    let len = u64::from_le_bytes(head[LENGTH_AT..CRC_AT].try_into().expect("8 bytes"));
    let expected = u32::from_le_bytes(head[CRC_AT..].try_into().expect("4 bytes"));
    // Read through `take` so a corrupt length field cannot trigger
    // a huge up-front allocation: memory stays bounded by what the
    // stream actually holds.
    let mut payload = Vec::new();
    input
        .take(len)
        .read_to_end(&mut payload)
        .map_err(CheckpointError::Io)?;
    if (payload.len() as u64) < len {
        return Err(CheckpointError::Format(format!(
            "payload truncated: header declares {len} bytes, stream holds {}",
            payload.len()
        )));
    }
    let mut probe = [0u8; 1];
    if input.read(&mut probe).map_err(CheckpointError::Io)? != 0 {
        return Err(CheckpointError::Format(
            "trailing bytes after payload".to_string(),
        ));
    }
    let actual = crc32(&payload);
    if actual != expected {
        return Err(CheckpointError::Checksum { expected, actual });
    }
    Ok((version, payload))
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

fn put_str(w: &mut Vec<u8>, s: &str) {
    w.extend_from_slice(&(s.len() as u32).to_le_bytes());
    w.extend_from_slice(s.as_bytes());
}

/// One key-table entry: route, prefix bits, prefix length (9 bytes).
fn put_key(w: &mut Vec<u8>, route: RouteId, prefix: Prefix) {
    w.extend_from_slice(&route.to_le_bytes());
    w.extend_from_slice(&prefix.bits().to_le_bytes());
    w.push(prefix.len());
}

/// A history snapshot's entries: key, rate bits (8 bytes each).
fn put_snapshot(w: &mut Vec<u8>, snapshot: &[(KeyId, f32)]) {
    for &(key, rate) in snapshot {
        w.extend_from_slice(&key.to_le_bytes());
        w.extend_from_slice(&rate.to_bits().to_le_bytes());
    }
}

/// What [`put_opt_u64`] wrote.
fn opt_u64(r: &mut ByteReader<'_>) -> Result<Option<u64>, String> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        t => Err(format!("bad option tag {t}")),
    }
}

/// What [`put_str`] wrote.
fn string(r: &mut ByteReader<'_>) -> Result<String, String> {
    let len = r.u32()? as usize;
    String::from_utf8(r.take(len)?.to_vec()).map_err(|_| "non-UTF-8 string".to_string())
}

/// What [`put_key`] wrote.
fn key(r: &mut ByteReader<'_>) -> Result<(RouteId, Prefix), String> {
    let route = r.u32()?;
    let bits = r.u32()?;
    let len = r.u8()?;
    let prefix = Prefix::from_u32(bits, len).map_err(|e| format!("bad key prefix: {e}"))?;
    Ok((route, prefix))
}

/// What [`put_snapshot`] wrote, `n` entries of it.
fn snapshot(r: &mut ByteReader<'_>, n: usize) -> Result<Vec<(KeyId, f32)>, String> {
    (0..n)
        .map(|_| Ok((r.u32()?, f32::from_bits(r.u32()?))))
        .collect()
}

/// File name of the checkpoint log numbered `seq`.
fn log_name(seq: u64) -> String {
    format!("eleph.{seq}.log")
}

/// The number of a checkpoint log's file name; `None` for any name
/// [`log_name`] does not write.
fn log_seq(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("eleph.")?.strip_suffix(".log")?;
    let seq = digits
        .parse()
        .ok()
        .filter(|_| digits.bytes().all(|b| b.is_ascii_digit()))?;
    (log_name(seq) == name).then_some(seq)
}

/// What a version-5 image records of its log.
#[derive(Debug, Clone, PartialEq)]
struct LogRef {
    /// The log's file name, beside the image.
    name: String,
    /// The log's length when the image was taken: what it reads.
    watermark: u64,
    /// Keys the log holds up to the watermark.
    keys: u64,
    /// History slots the window holds: the last slot records up to the
    /// watermark.
    window: u64,
}

impl LogRef {
    fn encode_into(&self, w: &mut Vec<u8>) {
        put_str(w, &self.name);
        for v in [self.watermark, self.keys, self.window] {
            w.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let name = string(r)?;
        if log_seq(&name).is_none() {
            return Err(format!("bad log name {name:?}"));
        }
        Ok(LogRef {
            name,
            watermark: r.u64()?,
            keys: r.u64()?,
            window: r.u64()?,
        })
    }
}

/// A checkpoint log as its writer accounts for it: enough to append to
/// it and to tell its live bytes from its dead ones.
///
/// A pipeline carries the state of the log that holds its key table and
/// window, and a [`Checkpointer`] appends to its log only for a pipeline
/// that carries that log's state — the pipeline it last wrote, or one
/// resumed from the image that names the log.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LogState {
    seq: u64,
    path: PathBuf,
    /// Bytes written (0: not yet created).
    len: u64,
    keys: usize,
    /// Intervals sealed at the last image: every slot of an earlier
    /// interval that was in the window then is in the log.
    open: u64,
    /// Bytes of the window's slot records, oldest first.
    slots: VecDeque<u64>,
}

/// Bytes of a key record holding `keys` keys.
fn key_record_len(keys: usize) -> u64 {
    KEYS_AT + 9 * keys as u64 + 4
}

/// Bytes of a slot record holding `entries` keys.
fn slot_record_len(entries: usize) -> u64 {
    RECORD_FRAME + 16 + 8 * entries as u64
}

impl LogState {
    /// Log `seq` beside `image`, not yet created.
    fn new(seq: u64, image: &Path) -> Self {
        LogState {
            seq,
            path: image.with_file_name(log_name(seq)),
            len: 0,
            keys: 0,
            open: 0,
            slots: VecDeque::new(),
        }
    }

    /// What an image naming this log records of it.
    fn reference(&self) -> LogRef {
        LogRef {
            name: log_name(self.seq),
            watermark: self.len,
            keys: self.keys as u64,
            window: self.slots.len() as u64,
        }
    }

    /// The bytes a log started from the same frontier holds: the header,
    /// one key record holding every key, the window's slot records.
    fn live(&self) -> u64 {
        let keys = if self.keys > 0 {
            key_record_len(self.keys)
        } else {
            0
        };
        LOG_HEADER_LEN + keys + self.slots.iter().sum::<u64>()
    }

    /// Account for the records an image appends — the keys assigned since
    /// the image before, and one slot record per new slot, holding the
    /// pairs `slots` counts — and the header, on a log not yet created.
    /// The window then holds `window` slots, `open` intervals sealed.
    fn append(
        &mut self,
        keys: usize,
        slots: impl Iterator<Item = usize>,
        window: usize,
        open: u64,
    ) {
        if self.len == 0 {
            self.len = LOG_HEADER_LEN;
        }
        if keys > 0 {
            self.len += key_record_len(keys);
            self.keys += keys;
        }
        for entries in slots {
            let len = slot_record_len(entries);
            self.slots.push_back(len);
            self.len += len;
        }
        while self.slots.len() > window {
            self.slots.pop_front();
        }
        self.open = open;
    }
}

/// Read the log `log` names beside `image` up to its watermark, put its
/// key table and window into `checkpoint`, and return the log as its
/// writer accounts for it.
fn read_log(
    image: &Path,
    log: &LogRef,
    checkpoint: &mut Checkpoint,
) -> Result<LogState, CheckpointError> {
    let path = image.with_file_name(&log.name);
    let named = |e: io::Error| {
        CheckpointError::Io(io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    };
    // Read through `take`: memory stays bounded by what the file holds,
    // whatever the watermark says.
    let mut bytes = Vec::new();
    File::open(&path)
        .and_then(|file| file.take(log.watermark).read_to_end(&mut bytes))
        .map_err(named)?;
    if (bytes.len() as u64) < log.watermark {
        return Err(CheckpointError::Format(format!(
            "log {} holds {} bytes, image needs {}",
            path.display(),
            bytes.len(),
            log.watermark
        )));
    }
    let what = format!("log {}", path.display());
    let slots = walk_log(&bytes, log.keys, log.window, checkpoint, &what)?;
    Ok(LogState {
        seq: log_seq(&log.name).expect("validated at decode"),
        path,
        len: log.watermark,
        keys: checkpoint.keys.len(),
        open: checkpoint.open,
        slots,
    })
}

/// Walk a log's records, `bytes` from its header on, into `checkpoint`:
/// its key table, the `keys` keys the log holds, and its window, the
/// last `window` slot records, which must be the intervals before the
/// checkpoint's open one. Returns the byte lengths of those slot
/// records, oldest first. `what` names the log in errors.
fn walk_log(
    bytes: &[u8],
    keys: u64,
    window: u64,
    checkpoint: &mut Checkpoint,
    what: &str,
) -> Result<VecDeque<u64>, CheckpointError> {
    let format = |e: String| CheckpointError::Format(format!("{what}: {e}"));
    // Counts, bounded by the bytes that must hold them before anything
    // is sized by them.
    if keys.saturating_mul(9) > bytes.len() as u64 {
        return Err(format(format!("key count {keys} exceeds the log")));
    }
    if window.saturating_mul(slot_record_len(0)) > bytes.len() as u64 {
        return Err(format(format!("window count {window} exceeds the log")));
    }
    let (n_keys, window) = (keys as usize, window as usize);
    let mut keys = Vec::with_capacity(n_keys);
    // The last `window` slots: their record lengths, their intervals,
    // and the history.
    let mut slots = VecDeque::with_capacity(window);
    let mut intervals = VecDeque::with_capacity(window);
    let mut history = VecDeque::with_capacity(window);
    let mut last_interval = None;
    let mut r = ByteReader::new(bytes, "log");
    if r.take(8).map_err(format)? != LOG_MAGIC {
        return Err(format("bad magic".to_string()));
    }
    let version = r.u32().map_err(format)?;
    if version != LOG_VERSION {
        return Err(format(format!("unsupported version {version}")));
    }
    while r.position() < bytes.len() {
        let at = r.position();
        let kind = r.u8().map_err(format)?;
        let len = usize::try_from(r.u64().map_err(format)?)
            .map_err(|_| format("record length too large".to_string()))?;
        let payload = r.take(len).map_err(format)?;
        let actual = crc32(&bytes[at..r.position()]);
        let expected = r.u32().map_err(format)?;
        if actual != expected {
            return Err(CheckpointError::Checksum { expected, actual });
        }
        let mut p = ByteReader::new(payload, "log record");
        match kind {
            KEY_RECORD => {
                let first = p.u64().map_err(format)?;
                let n = (len.saturating_sub(8)) / 9;
                if first != keys.len() as u64 || len < 8 || (len - 8) % 9 != 0 {
                    return Err(format(format!(
                        "key record of {len} bytes from key {first} after {} keys",
                        keys.len()
                    )));
                }
                if keys.len() + n > n_keys {
                    return Err(format(format!("more keys than the image's {n_keys}")));
                }
                for _ in 0..n {
                    keys.push(key(&mut p).map_err(format)?);
                }
            }
            SLOT_RECORD => {
                let interval = p.u64().map_err(format)?;
                let t_term = f64::from_bits(p.u64().map_err(format)?);
                let ascending = last_interval.is_none_or(|last| last < interval);
                if len < 16 || (len - 16) % 8 != 0 || !ascending {
                    return Err(format(format!(
                        "slot record of {len} bytes for interval {interval} after \
                         {last_interval:?}"
                    )));
                }
                last_interval = Some(interval);
                slots.push_back((r.position() - at) as u64);
                intervals.push_back(interval);
                history.push_back((t_term, snapshot(&mut p, (len - 16) / 8).map_err(format)?));
                if history.len() > window {
                    slots.pop_front();
                    intervals.pop_front();
                    history.pop_front();
                }
            }
            k => return Err(format(format!("unknown record kind {k}"))),
        }
        p.end().map_err(format)?;
    }
    if keys.len() != n_keys {
        return Err(format(format!(
            "holds {} keys, image records {n_keys}",
            keys.len()
        )));
    }
    let open = checkpoint.open;
    let consecutive = intervals
        .iter()
        .enumerate()
        .all(|(i, &at)| at + (window - i) as u64 == open);
    if intervals.len() != window || !consecutive {
        return Err(format(format!(
            "its last slots are intervals {intervals:?}, the image's window is the {window} \
             before {open}"
        )));
    }
    checkpoint.keys = keys;
    checkpoint.state.history = history.into();
    Ok(slots)
}

/// What one image of a [`Checkpointer`] takes from the pipeline: the
/// snapshot holding only the keys from `keys_from` on and only the
/// history slots not yet in the log (the last ones of the window), and
/// how many slots the whole window holds.
pub(crate) struct Delta {
    pub(crate) snapshot: Checkpoint,
    pub(crate) keys_from: usize,
    pub(crate) window: usize,
}

/// Frame the record `fill` writes: kind, payload length, payload, then
/// the CRC-32 of all three.
fn put_record(w: &mut Vec<u8>, kind: u8, fill: impl FnOnce(&mut Vec<u8>)) {
    let start = w.len();
    w.push(kind);
    w.extend_from_slice(&[0; 8]);
    fill(w);
    let len = (w.len() - start) as u64 - 9;
    w[start + 1..start + 9].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&w[start..]);
    w.extend_from_slice(&crc.to_le_bytes());
}

/// A log header.
fn put_log_header(w: &mut Vec<u8>) {
    w.extend_from_slice(&LOG_MAGIC);
    w.extend_from_slice(&LOG_VERSION.to_le_bytes());
}

/// Periodic atomic checkpoint writer for [`Pipeline::run_checkpointed`].
///
/// Keeps `eleph.ckpt` and one log (`eleph.<n>.log`) inside its
/// directory, writing an image every `every` sealed intervals (checked
/// at source chunk boundaries): the log append, or the new log, is
/// synced before the image is written to a temp file, synced and renamed
/// into place, so a crash at any instruction leaves the old or the new
/// image complete on disk, with its log complete up to its watermark —
/// never a torn one.
/// See the module docs for the protocol, the log and its compaction.
///
/// The caller's thread only takes the owned copy; one writer thread,
/// spawned at the first image and joined on drop, encodes it and puts
/// it on disk while the caller goes on. At most one image is in flight:
/// handing over the next waits for the previous.
pub struct Checkpointer {
    path: PathBuf,
    tmp: PathBuf,
    every: usize,
    /// Sealed-interval count at which the next image is due; `None`
    /// until the cadence has a pipeline to start from.
    next_at: Option<usize>,
    /// The image and log-record buffers, kept across writes: here
    /// between images, with the writer while one is in flight.
    image: Vec<u8>,
    records: Vec<u8>,
    /// The log the next image appends to, as it will stand once the
    /// image in flight has landed; `None` when the next image starts a
    /// log.
    log: Option<LogState>,
    /// The log the image on disk names.
    durable_log: Option<PathBuf>,
    /// Number of the next log started.
    next_seq: u64,
    /// `None` until the first image.
    writer: Option<Writer>,
    /// `Some` while an image was handed over and its answer not yet
    /// taken: `Some(true)` when it starts a log by the compaction rule.
    in_flight: Option<bool>,
    written: CheckpointsWritten,
}

/// What a [`Checkpointer`]'s images have cost so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CheckpointsWritten {
    /// Images written (renamed into place).
    pub images: u64,
    /// Bytes the last image put on disk: the image and its log append —
    /// the whole log when it started one, save a log the compaction rule
    /// started, which counts only in `total_bytes`.
    pub last_bytes: u64,
    /// Bytes all images put on disk: images, log appends and the logs
    /// they started, compactions included.
    pub total_bytes: u64,
    /// Compactions: logs started because the one before held more dead
    /// bytes than live ones.
    pub compactions: u64,
    /// Seconds the writer thread spent building images and log records:
    /// encode and checksum (the owned copy the caller takes first is not
    /// counted).
    pub encode_secs: f64,
    /// Seconds the writer thread spent putting them on disk: log append
    /// or new log, create, write, fsync, rename, directory fsync.
    pub io_secs: f64,
    /// Seconds the caller's thread spent blocked on an image in flight:
    /// the part of checkpointing a run still pays.
    pub wait_secs: f64,
}

/// One image for the writer thread.
struct Job {
    delta: Delta,
    image: Vec<u8>,
    records: Vec<u8>,
    plan: LogPlan,
}

/// What the writer thread does to the logs for one image.
struct LogPlan {
    /// The log the records go to, which the image names, and its length
    /// before them (0: create it, header first).
    path: PathBuf,
    at: u64,
    /// The log as the image names it.
    named: LogRef,
    /// The log the image before named, when this one names another.
    retire: Option<PathBuf>,
}

/// The writer thread's answer to one [`Job`]: the buffers back, whether
/// the protocol put the image in place, and what it cost.
struct Done {
    image: Vec<u8>,
    records: Vec<u8>,
    written: io::Result<()>,
    named_path: PathBuf,
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
        let thread = thread::Builder::new()
            .name("eleph-checkpoint".to_string())
            .spawn(move || {
                for job in job_rx {
                    if done_tx.send(write_job(&path, &tmp, job)).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Writer {
            jobs: Some(jobs),
            done,
            thread: Some(thread),
        })
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

/// What the writer thread does with one image: encode the log records
/// and the image into the kept buffers, then the protocol of the module
/// docs.
fn write_job(path: &Path, tmp: &Path, job: Job) -> Done {
    let Job {
        delta,
        mut image,
        mut records,
        plan,
    } = job;
    let started = Instant::now();
    records.clear();
    if plan.at == 0 {
        put_log_header(&mut records);
    }
    delta.snapshot.encode_records(delta.keys_from, &mut records);
    delta.snapshot.write_image(&mut image, Some(&plan.named));
    drop(delta);
    let encoded = Instant::now();
    let written = put_logged(path, tmp, &plan, &records, &image);
    Done {
        image,
        records,
        written,
        named_path: plan.path,
        encode_secs: (encoded - started).as_secs_f64(),
        io_secs: encoded.elapsed().as_secs_f64(),
    }
}

/// Append `records` to the log, or create it with them, and sync it;
/// put `image` in place; retire the log it no longer names.
fn put_logged(
    path: &Path,
    tmp: &Path,
    plan: &LogPlan,
    records: &[u8],
    image: &[u8],
) -> io::Result<()> {
    let mut log = if plan.at == 0 {
        File::create(&plan.path)?
    } else {
        let log = OpenOptions::new().append(true).open(&plan.path)?;
        let held = log.metadata()?.len();
        if held != plan.at {
            return Err(io::Error::other(format!(
                "{}: log holds {held} bytes, the last image left {}",
                plan.path.display(),
                plan.at
            )));
        }
        log
    };
    log.write_all(records)?;
    log.sync_data()?;
    drop(log);
    if plan.at == 0 {
        sync_dir(path);
    }
    put_on_disk(path, tmp, image)?;
    if let Some(old) = &plan.retire {
        match fs::remove_file(old) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
    }
    Ok(())
}

/// Write `bytes` to `tmp`, fsync, rename over `path`, then fsync the
/// directory.
fn put_on_disk(path: &Path, tmp: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = File::create(tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(tmp, path)?;
    sync_dir(path);
    Ok(())
}

/// Make the directory entries beside `path` durable where the platform
/// allows opening directories; failure here cannot corrupt anything.
fn sync_dir(path: &Path) {
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// The checkpoint I/O error a pipeline run fails with.
fn io_error(e: io::Error) -> PipelineError {
    PipelineError::Checkpoint(CheckpointError::Io(e))
}

/// File name a [`Checkpointer`] maintains inside its directory.
pub const CHECKPOINT_FILE: &str = "eleph.ckpt";

/// Bring the directory of the image at `path` back to what the image
/// names, as a resume needs it: the log it names cut back to its
/// watermark, every other log and the temp image deleted. Returns that
/// log and the number the next log started takes. An image that cannot
/// be read names nothing and touches nothing; a missing one names no log.
fn recover(path: &Path) -> io::Result<(Option<LogState>, u64)> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    let mut logs = Vec::new();
    for entry in fs::read_dir(dir)? {
        if let Some(seq) = entry?.file_name().to_str().and_then(log_seq) {
            logs.push(seq);
        }
    }
    let named = if path.exists() {
        match Checkpoint::load_logged(path) {
            Ok((_, log)) => log,
            Err(_) => return Ok((None, logs.iter().map(|seq| seq + 1).max().unwrap_or(0))),
        }
    } else {
        None
    };
    for &seq in &logs {
        if named.as_ref().is_none_or(|named| named.seq != seq) {
            fs::remove_file(path.with_file_name(log_name(seq)))?;
        }
    }
    if let Some(log) = &named {
        let file = OpenOptions::new().write(true).open(&log.path)?;
        if file.metadata()?.len() > log.len {
            file.set_len(log.len)?;
            file.sync_all()?;
        }
    }
    // A temp image no writer renamed. One that cannot go makes the next
    // image fail, naming it.
    let _ = fs::remove_file(path.with_file_name(format!("{CHECKPOINT_FILE}.tmp")));
    let next_seq = named.as_ref().map_or(0, |log| log.seq + 1);
    Ok((named, next_seq))
}

impl Checkpointer {
    /// Checkpoint into `dir` (created if missing) every `every` sealed
    /// intervals (`every` ≥ 1).
    ///
    /// This is also the recovery of a directory a crash left behind: the
    /// log its image names is cut back to the image's watermark, and every
    /// other log and the temp image are deleted (an image that cannot be
    /// read is left, with every log, as it is). A pipeline resumed from
    /// that image appends to that log; any other starts a new one at its
    /// first image.
    pub fn new(dir: impl AsRef<Path>, every: usize) -> io::Result<Self> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(CHECKPOINT_FILE);
        let (log, next_seq) = recover(&path)?;
        Ok(Checkpointer {
            tmp: dir.join(format!("{CHECKPOINT_FILE}.tmp")),
            every: every.max(1),
            next_at: None,
            image: Vec::new(),
            records: Vec::new(),
            durable_log: log.as_ref().map(|log| log.path.clone()),
            log,
            next_seq,
            writer: None,
            in_flight: None,
            written: CheckpointsWritten::default(),
            path,
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
    /// reads as that error too. After a failure the next image starts a
    /// new log: what the failed one left in its log is named by no image.
    pub fn flush(&mut self) -> crate::Result<()> {
        let Some(compaction) = self.in_flight.take() else {
            return Ok(());
        };
        let started = Instant::now();
        let done = self.writer.as_ref().and_then(|w| w.done.recv().ok());
        self.written.wait_secs += started.elapsed().as_secs_f64();
        let Some(done) = done else {
            self.log = None;
            return Err(writer_gone());
        };
        self.image = done.image;
        self.records = done.records;
        if let Err(e) = done.written {
            self.log = None;
            return Err(io_error(e));
        }
        let (image, log) = (self.image.len() as u64, self.records.len() as u64);
        let w = &mut self.written;
        w.images += 1;
        w.last_bytes = if compaction { image } else { image + log };
        w.total_bytes += image + log;
        w.compactions += u64::from(compaction);
        w.encode_secs += done.encode_secs;
        w.io_secs += done.io_secs;
        self.durable_log = Some(done.named_path);
        Ok(())
    }

    /// Take the pipeline's delta, wait for the previous image, plan the
    /// log's part, and hand the image to the writer thread.
    fn hand_off<D: ThresholdDetector>(
        &mut self,
        pipeline: &mut Pipeline<'_, D>,
    ) -> crate::Result<()> {
        let sealed = pipeline.intervals_sealed();
        // Append only for the pipeline whose keys and window the log
        // holds; any other starts a log of its own.
        let mut continued = self
            .log
            .take()
            .filter(|log| pipeline.log.as_ref() == Some(log));
        // Compaction: a log whose dead bytes would outgrow its live ones
        // is not continued; the image starts the next log, as a first
        // image does. The rule reads what the image appends counted, so
        // the pipeline is copied once, knowing how much of it to take.
        let (mut keys_from, mut open_from, mut at) = (0, 0, 0);
        if let Some(log) = &mut continued {
            (keys_from, open_from, at) = (log.keys, log.open as usize, log.len);
            let (slots, window) = pipeline.classifier.window_from(open_from);
            let slots = slots.map(<[_]>::len);
            log.append(
                pipeline.keys().len() - keys_from,
                slots,
                window,
                sealed as u64,
            );
        }
        let compaction = continued
            .take_if(|log| log.len - log.live() > log.live())
            .is_some();
        if compaction {
            (keys_from, open_from, at) = (0, 0, 0);
        }
        let delta = pipeline.export_delta(keys_from, open_from);
        self.flush()?;
        let log = continued.unwrap_or_else(|| {
            let mut log = LogState::new(self.take_seq(), &self.path);
            let slots = delta
                .snapshot
                .state
                .history
                .iter()
                .map(|(_, slot)| slot.len());
            log.append(
                delta.snapshot.keys.len(),
                slots,
                delta.window,
                delta.snapshot.open,
            );
            log
        });
        let plan = LogPlan {
            path: log.path.clone(),
            at,
            named: log.reference(),
            retire: self.durable_log.clone().filter(|old| *old != log.path),
        };
        let writer = match &mut self.writer {
            Some(writer) => writer,
            None => self
                .writer
                .insert(Writer::spawn(self.path.clone(), self.tmp.clone()).map_err(io_error)?),
        };
        let job = Job {
            delta,
            image: std::mem::take(&mut self.image),
            records: std::mem::take(&mut self.records),
            plan,
        };
        writer
            .jobs
            .as_ref()
            .and_then(|jobs| jobs.send(job).ok())
            .ok_or_else(writer_gone)?;
        pipeline.log = Some(log.clone());
        self.log = Some(log);
        self.in_flight = Some(compaction);
        self.next_at = Some(sealed + self.every);
        Ok(())
    }

    /// The number of the next log started, taken.
    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
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
/// checkpoint (a different capture) and is a
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
            return Err(PipelineError::Checkpoint(CheckpointError::Mismatch(
                format!(
                "source chunk boundary at {consumed} records overshoots the checkpoint's {target} \
                 — the source does not match the checkpointed run"
            ),
            )));
        }
        buf.clear();
        match source.next_chunk(&mut buf)? {
            0 if parsed + source.malformed() < target => {
                return Err(PipelineError::Checkpoint(CheckpointError::Mismatch(
                    format!(
                        "source exhausted after {} records but the checkpoint consumed {target}",
                        parsed + source.malformed()
                    ),
                )));
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
    /// kept apart from it — the payload encoded into an unsized buffer
    /// of its own, its log records framed by hand, then copied behind a
    /// header built around it.
    impl Checkpoint {
        fn encode(&self) -> Vec<u8> {
            let mut w = Vec::new();
            let string = |w: &mut Vec<u8>, s: &str| {
                w.extend_from_slice(&(s.len() as u32).to_le_bytes());
                w.extend_from_slice(s.as_bytes());
            };
            // Configuration fingerprint.
            w.extend_from_slice(&self.config.interval_secs.to_le_bytes());
            w.extend_from_slice(&self.config.start_unix.to_le_bytes());
            match self.config.n_intervals {
                Some(n) => {
                    w.push(1);
                    w.extend_from_slice(&n.to_le_bytes());
                }
                None => w.push(0),
            }
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
            string(&mut w, &self.config.detector);
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
            // Key table and history: counts, then a log's bytes.
            let st = &self.state;
            w.extend_from_slice(&(self.keys.len() as u64).to_le_bytes());
            w.extend_from_slice(&(st.history.len() as u64).to_le_bytes());
            let mut log = b"ELPHCLOG".to_vec();
            log.extend_from_slice(&1u32.to_le_bytes());
            let mut record = |kind: u8, payload: Vec<u8>| {
                let mut framed = vec![kind];
                framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                framed.extend_from_slice(&payload);
                let crc = crc32_bytewise(&framed);
                log.extend_from_slice(&framed);
                log.extend_from_slice(&crc.to_le_bytes());
            };
            if !self.keys.is_empty() {
                let mut keys = 0u64.to_le_bytes().to_vec();
                for &(route, prefix) in &self.keys {
                    keys.extend_from_slice(&route.to_le_bytes());
                    keys.extend_from_slice(&prefix.bits().to_le_bytes());
                    keys.push(prefix.len());
                }
                record(1, keys);
            }
            let first = st.interval - st.history.len();
            for (i, (t_term, snapshot)) in st.history.iter().enumerate() {
                let mut slot = ((first + i) as u64).to_le_bytes().to_vec();
                slot.extend_from_slice(&t_term.to_bits().to_le_bytes());
                for &(key, rate) in snapshot {
                    slot.extend_from_slice(&key.to_le_bytes());
                    slot.extend_from_slice(&rate.to_bits().to_le_bytes());
                }
                record(2, slot);
            }
            w.extend_from_slice(&(log.len() as u64).to_le_bytes());
            w.extend_from_slice(&log);
            // Open interval row.
            w.extend_from_slice(&(self.row.len() as u64).to_le_bytes());
            for &(key, bytes) in &self.row {
                w.extend_from_slice(&key.to_le_bytes());
                w.extend_from_slice(&bytes.to_le_bytes());
            }
            // Classifier state.
            w.extend_from_slice(&(st.interval as u64).to_le_bytes());
            w.push(u8::from(st.detected));
            w.extend_from_slice(&st.sum_t.to_bits().to_le_bytes());
            w.extend_from_slice(&(st.members.len() as u64).to_le_bytes());
            for &key in &st.members {
                w.extend_from_slice(&key.to_le_bytes());
            }
            // State backend tag: 1 and the sketch's kind and payload, or 0.
            match &self.sketch {
                Some((kind, sketch)) => {
                    w.push(1);
                    string(&mut w, kind);
                    w.extend_from_slice(&(sketch.len() as u64).to_le_bytes());
                    w.extend_from_slice(sketch);
                }
                None => w.push(0),
            }
            w
        }

        fn to_bytes_by_copy(&self) -> Vec<u8> {
            image_of(&self.encode())
        }
    }

    /// A version-6 image around `payload`: header, length, CRC.
    fn image_of(payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(24 + payload.len());
        bytes.extend_from_slice(b"ELPHCKPT");
        bytes.extend_from_slice(&6u32.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32_bytewise(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
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
            // Five intervals sealed under a window of twelve: five slots.
            state: ClassifierState {
                interval: 5,
                detected: true,
                sum_t: 900.25,
                history: vec![
                    (100.0, vec![(0, 25.25f32), (1, 7.0)]),
                    (150.0, vec![(1, 3.5)]),
                    (175.25, vec![]),
                    (180.0, vec![(0, 12.0)]),
                    (200.5, vec![(0, 25.25f32)]),
                ],
                members: vec![],
            },
            sketch: None,
            log: None,
        }
    }

    /// A sketch-backend snapshot: empty dense row, a sketch payload.
    fn sample_sketch() -> Checkpoint {
        let mut ckpt = sample();
        ckpt.row = Vec::new();
        ckpt.sketch = Some(("spacesaving".to_string(), vec![1, 0, 0, 0, 7, 7, 7]));
        ckpt
    }

    #[test]
    fn sample_images_equal_the_committed_fixtures() {
        // Written once by the version-6 encoder: the format is pinned to
        // files, not to two encoders in this tree agreeing with each
        // other. Each decodes to a state a resume accepts.
        let exact: &[u8] = include_bytes!("../tests/fixtures/sample_v6_exact.ckpt");
        let sketch: &[u8] = include_bytes!("../tests/fixtures/sample_v6_sketch.ckpt");
        for (fixture, ckpt) in [(exact, sample()), (sketch, sample_sketch())] {
            let decoded = Checkpoint::read_from(&mut &fixture[..]).expect("the fixture reads");
            decoded
                .state
                .validate(decoded.config.scheme, decoded.keys.len())
                .expect("a state a resume accepts");
            assert_eq!(decoded.to_bytes(), fixture);
            assert_eq!(ckpt.to_bytes(), fixture);
            assert_eq!(ckpt.to_bytes_by_copy(), fixture);
            let mut written = Vec::new();
            ckpt.write_to(&mut written).expect("write to a Vec");
            assert_eq!(written, fixture);
        }
    }

    #[test]
    fn a_version_4_image_is_a_format_error_naming_its_version() {
        // Versions 2 and 3 stored a smoothed threshold and each key's
        // window sum beside the window, version 4 the sums beside a log:
        // an image a build before versions 5 and 6 left is refused, by
        // `load` and by `read_from`.
        let (dir, _) = logged_dir("v4", StateBackendConfig::Exact);
        let image = dir.join(CHECKPOINT_FILE);
        let good = fs::read(&image).expect("image");
        assert_eq!(good[8..12], VERSION_LOGGED.to_le_bytes());
        for version in [2u32, 3, 4] {
            let mut bytes = good.clone();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            fs::write(&image, &bytes).expect("plant");
            for read in [
                Checkpoint::load(&image),
                Checkpoint::read_from(&mut &bytes[..]),
            ] {
                match read {
                    Err(CheckpointError::Format(why)) => {
                        assert!(
                            why.contains(&format!("unsupported version {version}")),
                            "{why}"
                        )
                    }
                    other => panic!("a version-{version} image read as {other:?}"),
                }
            }
        }
        fs::remove_dir_all(&dir).ok();
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

    /// A synthetic table of 300 routes, frozen.
    fn small_table() -> eleph_bgp::FrozenBgpTable {
        synth::generate(&SynthConfig {
            n_prefixes: 300,
            ..SynthConfig::default()
        })
        .freeze()
    }

    /// A pipeline over ten-second intervals from time 0.
    fn pipeline_over<'t>(
        table: &'t eleph_bgp::FrozenBgpTable,
        scheme: Scheme,
        state: StateBackendConfig,
        shards: usize,
    ) -> Pipeline<'t, eleph_core::ConstantLoadDetector> {
        PipelineBuilder::new()
            .frozen(table)
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
            let table = small_table();
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
        // One `Checkpointer`, so one pair of buffers: first a pipeline
        // with 200 keys in its window, then one with two. The second
        // image must load as the small pipeline's snapshot exactly —
        // header fields rewritten, nothing of the large image behind it —
        // and, as it is not the pipeline the first log holds, name a log
        // of its own, the first one deleted.
        let table = small_table();
        let dsts: Vec<Ipv4Addr> = table.iter().map(|e| e.prefix.network()).collect();
        let scheme = Scheme::LatentHeat { window: 3 };
        let busy: Vec<PacketMeta> = (0..600u64)
            .map(|i| packet(dsts[i as usize % 200], i * 50_000_000, 400))
            .collect();
        let quiet = [packet(dsts[0], 1, 100), packet(dsts[1], 2, 100)];

        let dir = std::env::temp_dir().join(format!("eleph-ckpt-reuse-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut checkpointer = Checkpointer::new(&dir, 1).expect("checkpointer");
        let mut on_disk = Vec::new();
        for (seq, metas) in [&busy[..], &quiet[..]].into_iter().enumerate() {
            let mut pipeline = pipeline_over(&table, scheme, StateBackendConfig::Exact, 0);
            pipeline.observe_chunk(metas).expect("observe");
            checkpointer.write(&mut pipeline).expect("write");
            let loaded = Checkpoint::load(checkpointer.path()).expect("the image loads");
            assert_eq!(
                loaded.to_bytes(),
                pipeline.export_checkpoint().to_bytes_by_copy()
            );
            let log = dir.join(log_name(seq as u64));
            assert_eq!(
                dir_files(&dir),
                [log_name(seq as u64), CHECKPOINT_FILE.to_string()]
            );
            let len = |path: &Path| fs::metadata(path).expect("file").len();
            on_disk.push((len(checkpointer.path()), len(&log)));
        }
        assert!(
            on_disk[0].0 > 10 * on_disk[1].0,
            "the second image is much the smaller"
        );
        let written = checkpointer.written();
        assert_eq!(written.images, 2);
        // Each image started its log, so its append is the whole log.
        assert_eq!(written.last_bytes, on_disk[1].0 + on_disk[1].1);
        let all: u64 = on_disk.iter().map(|(image, log)| image + log).sum();
        assert_eq!((written.total_bytes, written.compactions), (all, 0));
        fs::remove_dir_all(&dir).ok();
    }

    /// The files in `dir`, sorted.
    fn dir_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .expect("read dir")
            .map(|entry| {
                entry
                    .expect("entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8")
            })
            .collect();
        names.sort();
        names
    }

    /// Interval `interval` of a stream whose key set grows: eight packets
    /// among the first 280 of `dsts`, ten seconds an interval.
    fn growing_interval(dsts: &[Ipv4Addr], interval: u64) -> Vec<PacketMeta> {
        (0..8u64)
            .map(|i| {
                let dst = dsts[((interval * 3 + i * i) % 280) as usize];
                packet(dst, interval * 10_000_000_000 + i, 100 + 10 * i as u32)
            })
            .collect()
    }

    /// A checkpoint directory written by a `Checkpointer` at cadence 1
    /// over 40 intervals of a latent-heat pipeline whose key set grows,
    /// and the self-contained image of its final state. Every image on
    /// the way, compactions included, loads as the self-contained image
    /// of its moment.
    fn logged_dir(tag: &str, state: StateBackendConfig) -> (PathBuf, Vec<u8>) {
        let table = small_table();
        let dsts: Vec<Ipv4Addr> = table.iter().map(|e| e.prefix.network()).collect();
        let dir = std::env::temp_dir().join(format!("eleph-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut checkpointer = Checkpointer::new(&dir, 1).expect("checkpointer");
        let mut pipeline = pipeline_over(&table, Scheme::LatentHeat { window: 4 }, state, 0);
        for interval in 0..40u64 {
            pipeline
                .observe_chunk(&growing_interval(&dsts, interval))
                .expect("observe");
            if checkpointer.maybe_write(&mut pipeline).expect("image") {
                checkpointer.flush().expect("image on disk");
                let loaded = Checkpoint::load(checkpointer.path()).expect("the image loads");
                let want = pipeline.export_checkpoint().to_bytes();
                assert_eq!(loaded.to_bytes(), want, "image after interval {interval}");
            }
        }
        assert!(
            checkpointer.written().compactions > 0,
            "the run compacts its log"
        );
        (dir, pipeline.export_checkpoint().to_bytes())
    }

    /// The one log beside the image in `dir`.
    fn only_log(dir: &Path) -> PathBuf {
        let logs: Vec<PathBuf> = dir_files(dir)
            .into_iter()
            .filter(|name| log_seq(name).is_some())
            .map(|name| dir.join(name))
            .collect();
        assert_eq!(logs.len(), 1, "{logs:?}");
        logs[0].clone()
    }

    #[test]
    fn a_compacted_log_is_the_log_a_first_image_writes() {
        // The image at the first compaction names a log that holds the
        // key table and window as a first image writes them: byte for
        // byte the log a new `Checkpointer` in an empty directory writes
        // for a twin pipeline at the same interval.
        let table = small_table();
        let dsts: Vec<Ipv4Addr> = table.iter().map(|e| e.prefix.network()).collect();
        let pid = std::process::id();
        let dirs = ["rule", "fresh"]
            .map(|tag| std::env::temp_dir().join(format!("eleph-ckpt-{tag}-{pid}")));
        dirs.iter().for_each(|dir| drop(fs::remove_dir_all(dir)));
        let mut checkpointer = Checkpointer::new(&dirs[0], 1).expect("checkpointer");
        let [mut pipeline, mut twin] = [(); 2].map(|_| {
            pipeline_over(
                &table,
                Scheme::LatentHeat { window: 4 },
                StateBackendConfig::Exact,
                0,
            )
        });
        let compacted_after = (0..40u64).find(|&interval| {
            let metas = growing_interval(&dsts, interval);
            pipeline.observe_chunk(&metas).expect("observe");
            twin.observe_chunk(&metas).expect("observe");
            checkpointer.maybe_write(&mut pipeline).expect("image");
            checkpointer.flush().expect("image on disk");
            checkpointer.written().compactions > 0
        });
        assert!(compacted_after.is_some(), "the run compacts its log");
        Checkpointer::new(&dirs[1], 1)
            .expect("checkpointer")
            .write(&mut twin)
            .expect("image");
        let [started, fresh] = dirs
            .each_ref()
            .map(|dir| fs::read(only_log(dir)).expect("log"));
        assert!(
            started == fresh,
            "the log started by the compaction after {compacted_after:?}"
        );
        dirs.iter().for_each(|dir| drop(fs::remove_dir_all(dir)));
    }

    #[test]
    fn the_inline_log_is_the_log_a_first_image_writes() {
        // A self-contained image holds, byte for byte, the log a new
        // `Checkpointer` in an empty directory starts for the same
        // pipeline: a key and a slot have one encoding, the log record.
        let table = small_table();
        let dsts: Vec<Ipv4Addr> = table.iter().map(|e| e.prefix.network()).collect();
        let sketch = StateBackendConfig::SpaceSaving {
            budget_bytes: 2_048,
        };
        for state in [StateBackendConfig::Exact, sketch] {
            let mut pipeline = pipeline_over(&table, Scheme::LatentHeat { window: 4 }, state, 0);
            for interval in 0..9 {
                pipeline
                    .observe_chunk(&growing_interval(&dsts, interval))
                    .expect("observe");
            }
            let dir =
                std::env::temp_dir().join(format!("eleph-ckpt-inline-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            Checkpointer::new(&dir, 1)
                .expect("checkpointer")
                .write(&mut pipeline)
                .expect("image");
            let mut image = Vec::new();
            pipeline.checkpoint(&mut image).expect("write to a Vec");
            let (_, records) =
                Checkpoint::decode(&image[HEADER_LEN..], VERSION_INLINE).expect("decode");
            let Records::Inline {
                keys,
                window,
                bytes,
            } = records
            else {
                panic!("a version-6 image")
            };
            assert_eq!(
                (keys, window),
                (pipeline.keys().len() as u64, 4),
                "{state:?}"
            );
            assert!(bytes == fs::read(only_log(&dir)).expect("log"), "{state:?}");
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_log_backed_image_loads_as_the_self_contained_one() {
        let sketch = StateBackendConfig::SpaceSaving {
            budget_bytes: 2_048,
        };
        for state in [StateBackendConfig::Exact, sketch] {
            let (dir, want) = logged_dir("equal", state);
            let image = dir.join(CHECKPOINT_FILE);
            assert_eq!(
                fs::read(&image).expect("image")[8..12],
                VERSION_LOGGED.to_le_bytes()
            );
            assert_eq!(
                Checkpoint::load(&image).expect("load").to_bytes(),
                want,
                "{state:?}"
            );
            only_log(&dir);
            match Checkpoint::read_from(&mut File::open(&image).expect("image")) {
                Err(CheckpointError::Format(why)) => {
                    assert!(why.contains("needs its log"), "{why}")
                }
                other => panic!("a bare version-5 image read as {other:?}"),
            }
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn every_flipped_log_byte_below_the_watermark_is_rejected() {
        let (dir, _) = logged_dir("log-flip", StateBackendConfig::Exact);
        let (image, log) = (dir.join(CHECKPOINT_FILE), only_log(&dir));
        let good = fs::read(&log).expect("log");
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xA5;
            fs::write(&log, &bad).expect("plant");
            match Checkpoint::load(&image) {
                Err(CheckpointError::Checksum { .. } | CheckpointError::Format(_)) => {}
                other => panic!("flip at log byte {i}: {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_log_truncation_below_the_watermark_is_a_format_error() {
        let (dir, _) = logged_dir("log-cut", StateBackendConfig::Exact);
        let (image, log) = (dir.join(CHECKPOINT_FILE), only_log(&dir));
        let good = fs::read(&log).expect("log");
        for keep in 0..good.len() {
            fs::write(&log, &good[..keep]).expect("plant");
            match Checkpoint::load(&image) {
                Err(CheckpointError::Format(why)) => assert!(
                    why.contains(&format!("holds {keep} bytes, image needs {}", good.len())),
                    "{why}"
                ),
                other => panic!("log cut to {keep} bytes: {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn log_bytes_past_the_watermark_are_ignored_by_load_and_cut_by_resume() {
        let (dir, want) = logged_dir("log-tail", StateBackendConfig::Exact);
        let (image, log) = (dir.join(CHECKPOINT_FILE), only_log(&dir));
        let good = fs::read(&log).expect("log");
        let mut torn = good.clone();
        torn.extend_from_slice(&good[LOG_HEADER_LEN as usize..][..good.len() / 3]);
        fs::write(&log, &torn).expect("plant a tail");
        // A log no image names, as a compaction cut short leaves it.
        let stray = dir.join(log_name(99));
        fs::write(&stray, &good).expect("plant a stray log");
        assert_eq!(Checkpoint::load(&image).expect("load").to_bytes(), want);
        Checkpointer::new(&dir, 1).expect("recover the directory");
        assert_eq!(fs::read(&log).expect("log"), good, "the tail is cut");
        assert!(!stray.exists(), "the stray log is deleted");
        assert_eq!(Checkpoint::load(&image).expect("load").to_bytes(), want);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_missing_log_is_an_io_error_naming_its_path() {
        let (dir, _) = logged_dir("log-gone", StateBackendConfig::Exact);
        let (image, log) = (dir.join(CHECKPOINT_FILE), only_log(&dir));
        fs::remove_file(&log).expect("remove the log");
        match Checkpoint::load(&image) {
            Err(CheckpointError::Io(e)) => {
                assert!(e.to_string().contains(&log.display().to_string()), "{e}")
            }
            other => panic!("a missing log loaded as {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn log_counts_are_bounded_by_the_log() {
        // A well-formed image — its CRC recomputed — claiming more keys
        // or slots than its log could hold: refused before anything is
        // sized by the count.
        let (dir, _) = logged_dir("log-count", StateBackendConfig::Exact);
        let image = dir.join(CHECKPOINT_FILE);
        let (version, payload) = read_image(&mut File::open(&image).expect("image")).expect("read");
        let (checkpoint, records) = Checkpoint::decode(&payload, version).expect("decode");
        let Records::Named(log) = records else {
            panic!("a version-5 image")
        };
        for (what, bad) in [
            (
                "key count",
                LogRef {
                    keys: u64::MAX / 2,
                    ..log.clone()
                },
            ),
            (
                "window count",
                LogRef {
                    window: u64::MAX / 2,
                    ..log.clone()
                },
            ),
            (
                "image needs",
                LogRef {
                    watermark: u64::MAX,
                    ..log.clone()
                },
            ),
        ] {
            let mut bytes = Vec::new();
            checkpoint.write_image(&mut bytes, Some(&bad));
            fs::write(&image, &bytes).expect("plant");
            match Checkpoint::load(&image) {
                Err(CheckpointError::Format(why)) => assert!(why.contains(what), "{why}"),
                other => panic!("{what}: {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_dead_writer_is_an_io_error_not_a_hang() {
        let table = small_table();
        let dst = table.iter().next().expect("a route").prefix.network();
        let mut pipeline =
            pipeline_over(&table, Scheme::SingleFeature, StateBackendConfig::Exact, 0);
        pipeline
            .observe_chunk(&[packet(dst, 1, 100)])
            .expect("observe");
        let dir = std::env::temp_dir().join(format!("eleph-ckpt-dead-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut checkpointer = Checkpointer::new(&dir, 1).expect("checkpointer");
        let is_io = |r: crate::Result<()>| {
            matches!(r, Err(PipelineError::Checkpoint(CheckpointError::Io(_))))
        };

        // Gone between images: the job channel is closed.
        let (jobs, _) = mpsc::channel();
        let (_, done) = mpsc::channel();
        checkpointer.writer = Some(Writer {
            jobs: Some(jobs),
            done,
            thread: None,
        });
        assert!(is_io(checkpointer.write(&mut pipeline)));

        // Gone holding an image: the job is taken and no answer comes.
        let (jobs, taken) = mpsc::channel::<Job>();
        let (answer, done) = mpsc::channel::<Done>();
        let thread = thread::spawn(move || {
            let _job = taken.recv();
            drop(answer);
        });
        checkpointer.writer = Some(Writer {
            jobs: Some(jobs),
            done,
            thread: Some(thread),
        });
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
        assert_eq!(
            decoded.config.gamma.to_bits(),
            original.config.gamma.to_bits()
        );
        assert_eq!(decoded.open, original.open);
        assert_eq!(decoded.far_future_streak, original.far_future_streak);
        assert_eq!(decoded.stats, original.stats);
        assert_eq!(decoded.keys, original.keys);
        assert_eq!(decoded.row, original.row);
        assert_eq!(decoded.state, original.state);
        assert_eq!(decoded.sketch, None);
        assert_eq!(decoded.log, None);
        assert_eq!(bytes[8..12], VERSION_INLINE.to_le_bytes());
    }

    #[test]
    fn sketch_round_trip_is_version_6() {
        let original = sample_sketch();
        let bytes = original.to_bytes();
        assert_eq!(bytes[8..12], VERSION_INLINE.to_le_bytes());
        let decoded = Checkpoint::read_from(&mut &bytes[..]).expect("round trip");
        assert_eq!(decoded.keys, original.keys);
        assert_eq!(decoded.state, original.state);
        assert_eq!(decoded.row, Vec::new());
        assert_eq!(decoded.sketch, original.sketch);
    }

    #[test]
    fn sketch_tail_mismatches_are_rejected() {
        // The state backend tag, each CRC valid: tag 1 over a payload
        // with no sketch behind it must not decode...
        let mut payload = sample().encode();
        let tag = payload.len() - 1;
        assert_eq!(payload[tag], 0);
        payload[tag] = 1;
        assert!(matches!(
            Checkpoint::read_from(&mut &image_of(&payload)[..]),
            Err(CheckpointError::Format(_))
        ));
        // ...and tag 0 over a sketch leaves it trailing.
        let ckpt = sample_sketch();
        let (kind, sketch) = ckpt.sketch.as_ref().expect("a sketch");
        let mut payload = ckpt.encode();
        let tag = payload.len() - (4 + kind.len() + 8 + sketch.len()) - 1;
        assert_eq!(payload[tag], 1);
        payload[tag] = 0;
        match Checkpoint::read_from(&mut &image_of(&payload)[..]) {
            Err(CheckpointError::Format(why)) => assert!(why.contains("trailing"), "{why}"),
            other => panic!("a sketch behind tag 0 read as {other:?}"),
        }
    }

    #[test]
    fn sketch_image_rejects_flips_and_truncations() {
        let bytes = sample_sketch().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xA5;
            assert!(
                Checkpoint::read_from(&mut &bad[..]).is_err(),
                "flip at byte {i} accepted"
            );
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
        // The members count, before the state backend tag, to u64::MAX.
        let at = payload.len() - 9;
        assert_eq!(payload[at..at + 8], 0u64.to_le_bytes());
        payload[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        match Checkpoint::read_from(&mut &image_of(&payload)[..]) {
            Err(CheckpointError::Format(msg)) => assert!(msg.contains("count"), "{msg}"),
            other => panic!("expected count rejection, got {other:?}"),
        }
    }
}
