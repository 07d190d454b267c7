//! Asynchronous zero-copy capture ingest: a framer thread scans record
//! spans ahead of the consumer, parser threads decode them into
//! [`PacketMeta`], and a bounded ring of pooled buffers recycles every
//! allocation.
//!
//! No `eleph` command reads through this module: it lost to the serial
//! reader (three threads for what one does in the same time) and stays
//! only as the benchmark's `packet.pool` probe, which still imports it.
//!
//! # Pipeline shape
//!
//! ```text
//!            spans (offsets, zero-copy)       parsed batches (seq-tagged)
//!  framer ───────────────────────▶ parsers ───────────────────────▶ reader
//!    ▲                               ×P                               │
//!    └────────── span-vec ring ◀──────────────── meta-vec ring ◀──────┘
//! ```
//!
//! * The **framer** thread walks the shared in-memory capture with
//!   [`PcapSlice`]'s batched span scan — the two-cursor scan-ahead walk,
//!   promoted from an inline helper to a dedicated thread, so header
//!   cache misses overlap with parsing and consumption instead of
//!   serialising in front of them. It emits `(header, byte-range)`
//!   spans; **no record bytes are copied**.
//! * **Parser** threads pull span batches from a shared channel
//!   (first-free-takes-next) and resolve each span against their own
//!   `Arc` of the capture via [`parse_buf_meta`]. Packet-level failures
//!   are counted per batch, exactly like the serial reader.
//! * The **reader** (the consumer's thread, via
//!   [`PooledReader::next_metas`]) reassembles parsed batches in frame
//!   order by sequence number, so the delivered stream — packet order,
//!   chunk boundaries, malformed counts, error position — is
//!   **deterministic and independent of the worker count**. A streaming
//!   pipeline can therefore checkpoint at chunk boundaries and resume
//!   against a pooled source with any other worker count.
//!
//! # Bounded memory
//!
//! Both buffer kinds (span vectors, meta vectors) live in rings of at
//! most `RING_DEPTH` (8) entries, recycled through return channels once
//! the reader consumes a batch. The framer allocates a fresh span
//! vector only while the ring is not yet full; after that it *blocks*
//! on the return channel — the one blocking edge in the graph, which
//! backpressures the scan to the consumer's pace and caps the whole
//! stage at `O(RING_DEPTH · FRAME_BATCH)` records in flight no matter
//! how large the capture is.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::pcap::{PcapSlice, RecordHeader};
use crate::{parse_buf_meta, LinkType, PacketMeta, Result};

/// Records per framed batch — one batch becomes one consumer chunk.
const FRAME_BATCH: usize = 256;

/// Maximum batches in flight (scanned but not yet consumed): the depth
/// of both buffer rings, and the backpressure bound on the framer.
const RING_DEPTH: usize = 8;

/// One record span: its decoded header plus the byte range of its
/// captured payload in the capture buffer.
type Span = (RecordHeader, Range<usize>);

/// What a parser hands back for one frame batch.
struct ParsedBatch {
    /// The span vector, returned for recycling.
    spans: Vec<Span>,
    /// Parsed packets, in record order.
    metas: Vec<PacketMeta>,
    /// Records in this batch that failed packet-level parsing.
    malformed: u64,
}

/// Messages from the framer to the parsers: a span batch, or the
/// structural error that ended the scan (forwarded so it surfaces to
/// the reader *in sequence*, after every batch before it).
type Framed = (u64, Result<Vec<Span>>);

/// Messages from the parsers to the reader.
type Parsed = (u64, Result<ParsedBatch>);

/// Multi-threaded pooled capture reader: see the module docs for the
/// architecture. Construct with [`PooledReader::new`], then drain with
/// [`PooledReader::next_metas`] — one framed batch per call, in capture
/// order.
pub struct PooledReader {
    parsed_rx: Option<Receiver<Parsed>>,
    spans_pool_tx: Option<Sender<Vec<Span>>>,
    metas_pool_tx: Option<Sender<Vec<PacketMeta>>>,
    /// Batches received ahead of [`PooledReader::next_seq`].
    reorder: BTreeMap<u64, Result<ParsedBatch>>,
    next_seq: u64,
    /// Records delivered so far that framed but failed packet-level
    /// parsing.
    malformed: u64,
    done: bool,
    handles: Vec<JoinHandle<()>>,
}

impl PooledReader {
    /// Validate the capture's global header and spawn the framer plus
    /// `workers` parser threads over a shared in-memory capture.
    /// `workers` is clamped to at least 1.
    pub fn new(data: Arc<Vec<u8>>, workers: usize) -> Result<Self> {
        // Header problems surface here, on the caller's thread, exactly
        // like the serial readers — the threads below only ever see a
        // structurally-opened capture.
        let slice = PcapSlice::new(&data)?;
        let link = LinkType::from_code(slice.header().linktype)?;
        let workers = workers.max(1);

        let (frame_tx, frame_rx) = channel::<Framed>();
        let (parsed_tx, parsed_rx) = channel::<Parsed>();
        let (spans_pool_tx, spans_pool_rx) = channel::<Vec<Span>>();
        let (metas_pool_tx, metas_pool_rx) = channel::<Vec<PacketMeta>>();
        let frame_rx = Arc::new(Mutex::new(frame_rx));
        let metas_pool_rx = Arc::new(Mutex::new(metas_pool_rx));

        let mut handles = Vec::with_capacity(workers + 1);
        let framer_data = data.clone();
        handles.push(
            std::thread::Builder::new()
                .name("eleph-framer".into())
                .spawn(move || run_framer(&framer_data, frame_tx, spans_pool_rx))
                .expect("spawn framer thread"),
        );
        for w in 0..workers {
            let data = data.clone();
            let frame_rx = frame_rx.clone();
            let metas_pool_rx = metas_pool_rx.clone();
            let parsed_tx = parsed_tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("eleph-parser-{w}"))
                    .spawn(move || run_parser(&data, link, frame_rx, metas_pool_rx, parsed_tx))
                    .expect("spawn parser thread"),
            );
        }
        Ok(PooledReader {
            parsed_rx: Some(parsed_rx),
            spans_pool_tx: Some(spans_pool_tx),
            metas_pool_tx: Some(metas_pool_tx),
            reorder: BTreeMap::new(),
            next_seq: 0,
            malformed: 0,
            done: false,
            handles,
        })
    }

    /// Append the next framed batch's packets to `out` in capture
    /// order; `Ok(0)` means the capture is exhausted. Batches whose
    /// records were all malformed are skipped internally (never a
    /// spurious mid-stream zero). A structural capture error aborts the
    /// stream at exactly the record where the serial reader would.
    pub fn next_metas(&mut self, out: &mut Vec<PacketMeta>) -> Result<usize> {
        let base = out.len();
        while out.len() == base {
            if self.done {
                return Ok(0);
            }
            let Some(result) = self.recv_next() else {
                self.done = true;
                return Ok(0);
            };
            self.next_seq += 1;
            let batch = match result {
                Ok(batch) => batch,
                Err(e) => {
                    self.done = true;
                    return Err(e);
                }
            };
            self.malformed += batch.malformed;
            out.extend_from_slice(&batch.metas);
            self.recycle(batch);
        }
        Ok(out.len() - base)
    }

    /// Block until the batch with sequence [`PooledReader::next_seq`]
    /// is available; `None` when the stream ended before it (clean
    /// end-of-capture: the framer never produced that sequence).
    fn recv_next(&mut self) -> Option<Result<ParsedBatch>> {
        let rx = self.parsed_rx.as_ref().expect("reader channels live");
        loop {
            if let Some(result) = self.reorder.remove(&self.next_seq) {
                return Some(result);
            }
            match rx.recv() {
                Ok((seq, result)) => {
                    self.reorder.insert(seq, result);
                }
                Err(_) => return None,
            }
        }
    }

    /// Return a consumed batch's buffers to their rings. Send failures
    /// mean the workers already exited (end of capture) — the buffers
    /// are simply dropped.
    fn recycle(&mut self, batch: ParsedBatch) {
        let ParsedBatch {
            mut spans,
            mut metas,
            ..
        } = batch;
        spans.clear();
        metas.clear();
        if let Some(tx) = &self.spans_pool_tx {
            let _ = tx.send(spans);
        }
        if let Some(tx) = &self.metas_pool_tx {
            let _ = tx.send(metas);
        }
    }
}

impl Drop for PooledReader {
    fn drop(&mut self) {
        // Closing the channels unblocks every worker (the framer's pool
        // recv, the parsers' frame recv / parsed send); then join so no
        // thread outlives the reader.
        self.parsed_rx = None;
        self.spans_pool_tx = None;
        self.metas_pool_tx = None;
        self.reorder.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The framer thread: scan-ahead span batching over the shared capture.
fn run_framer(data: &[u8], frame_tx: Sender<Framed>, pool: Receiver<Vec<Span>>) {
    let mut slice = PcapSlice::new(data).expect("capture header validated at construction");
    let mut allocated = 0usize;
    let mut seq = 0u64;
    loop {
        // A recycled span vector if one is waiting; a fresh one while
        // the ring has room; otherwise block on the ring — this is the
        // backpressure edge bounding batches in flight.
        let mut spans = match pool.try_recv() {
            Ok(spans) => spans,
            Err(TryRecvError::Empty) if allocated < RING_DEPTH => {
                allocated += 1;
                Vec::with_capacity(FRAME_BATCH)
            }
            Err(TryRecvError::Empty) => match pool.recv() {
                Ok(spans) => spans,
                Err(_) => return, // reader gone
            },
            Err(TryRecvError::Disconnected) => return,
        };
        debug_assert!(spans.is_empty());
        match slice.next_batch_spans(FRAME_BATCH, &mut spans) {
            Ok(0) => return,
            Ok(n) => {
                if frame_tx.send((seq, Ok(spans))).is_err() {
                    return;
                }
                seq += 1;
                if n < FRAME_BATCH {
                    return; // clean end-of-capture
                }
            }
            Err(e) => {
                // The valid prefix of the damaged batch is discarded,
                // matching the serial reader: a chunk that hits a
                // structural error contributes no packets.
                let _ = frame_tx.send((seq, Err(e)));
                return;
            }
        }
    }
}

/// A parser thread: resolve span batches against the shared capture.
fn run_parser(
    data: &[u8],
    link: LinkType,
    frame_rx: Arc<Mutex<Receiver<Framed>>>,
    metas_pool_rx: Arc<Mutex<Receiver<Vec<PacketMeta>>>>,
    parsed_tx: Sender<Parsed>,
) {
    loop {
        // Hold the lock only for the recv: batches are claimed by
        // whichever parser is free, the same worker-pool idiom as the
        // batch aggregator's shard scan.
        let msg = frame_rx.lock().expect("frame channel lock").recv();
        let Ok((seq, framed)) = msg else { return };
        let result = match framed {
            Err(e) => Err(e),
            Ok(spans) => {
                // A recycled meta vector when one is waiting; fresh
                // otherwise. Never blocks — the parser holding the
                // next-in-sequence batch must always be able to finish.
                let metas = metas_pool_rx
                    .lock()
                    .expect("meta pool lock")
                    .try_recv()
                    .unwrap_or_else(|_| Vec::with_capacity(FRAME_BATCH));
                Ok(parse_spans(data, link, spans, metas))
            }
        };
        if parsed_tx.send((seq, result)).is_err() {
            return;
        }
    }
}

/// Decode one span batch (the cache-hot inner loop of a parser thread).
fn parse_spans(
    data: &[u8],
    link: LinkType,
    spans: Vec<Span>,
    mut metas: Vec<PacketMeta>,
) -> ParsedBatch {
    debug_assert!(metas.is_empty());
    let mut malformed = 0u64;
    for (head, range) in &spans {
        match parse_buf_meta(link, &data[range.clone()], head) {
            Ok(meta) => metas.push(meta),
            Err(_) => malformed += 1,
        }
    }
    ParsedBatch {
        spans,
        metas,
        malformed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::{PcapWriter, TsResolution};
    use crate::{PacketBuilder, PacketError};

    /// A capture with parseable records, interleaved malformed records,
    /// and varied sizes.
    fn capture(records: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = PcapWriter::with_options(&mut buf, 101, TsResolution::Nano, 65535).unwrap();
        for i in 0..records {
            let ts = i as u64 * 1_000_000;
            if i % 17 == 3 {
                // Structurally framed but unparseable as a packet.
                w.write_record(ts, 6, &[0xFF; 6]).unwrap();
            } else {
                let bytes = PacketBuilder::udp()
                    .src("10.0.0.1".parse().unwrap(), 5000)
                    .dst("192.0.2.7".parse().unwrap(), (i % 1000) as u16)
                    .payload_len(i % 200)
                    .build_ipv4();
                w.write_record(ts, bytes.len() as u32, &bytes).unwrap();
            }
        }
        w.finish().unwrap();
        buf
    }

    /// Serial reference: the stream the `PcapReader`-based path yields.
    fn serial_metas(buf: &[u8]) -> (Vec<PacketMeta>, u64) {
        let mut slice = PcapSlice::new(buf).unwrap();
        let link = LinkType::from_code(slice.header().linktype).unwrap();
        let mut metas = Vec::new();
        let mut malformed = 0;
        while let Some((head, data)) = slice.next_record().unwrap() {
            match parse_buf_meta(link, data, &head) {
                Ok(m) => metas.push(m),
                Err(_) => malformed += 1,
            }
        }
        (metas, malformed)
    }

    #[test]
    fn pooled_stream_matches_serial_for_any_worker_count() {
        let buf = capture(1500);
        let (want, want_malformed) = serial_metas(&buf);
        for workers in [1, 2, 4] {
            let mut reader = PooledReader::new(Arc::new(buf.clone()), workers).unwrap();
            let mut got = Vec::new();
            let mut chunks = Vec::new();
            loop {
                let before = got.len();
                let n = reader.next_metas(&mut got).unwrap();
                if n == 0 {
                    break;
                }
                assert_eq!(got.len() - before, n);
                chunks.push(n);
            }
            assert_eq!(got, want, "workers={workers}");
            assert_eq!(reader.malformed, want_malformed);
            // Deterministic chunking: every batch is FRAME_BATCH raw
            // records minus its malformed share, except the tail.
            assert!(chunks.len() >= 2, "workers={workers}");
        }
    }

    #[test]
    fn pooled_chunk_boundaries_are_deterministic() {
        let buf = Arc::new(capture(900));
        let chunk_sizes = |workers: usize| {
            let mut reader = PooledReader::new(buf.clone(), workers).unwrap();
            let mut out = Vec::new();
            let mut sizes = Vec::new();
            loop {
                out.clear();
                match reader.next_metas(&mut out).unwrap() {
                    0 => break,
                    n => sizes.push(n),
                }
            }
            sizes
        };
        let reference = chunk_sizes(1);
        for workers in [2, 3, 4] {
            assert_eq!(chunk_sizes(workers), reference, "workers={workers}");
        }
    }

    #[test]
    fn structural_error_surfaces_in_sequence() {
        let mut buf = capture(700);
        buf.truncate(buf.len() - 3); // cut the last record's body

        // The serial scan: whether each record before the damaged one
        // parses. The damaged record's batch is every record from the
        // last multiple of FRAME_BATCH below it.
        let mut parses = Vec::new();
        let mut slice = PcapSlice::new(&buf).unwrap();
        let link = LinkType::from_code(slice.header().linktype).unwrap();
        loop {
            match slice.next_record() {
                Ok(Some((head, data))) => parses.push(parse_buf_meta(link, data, &head).is_ok()),
                Ok(None) => panic!("the serial scan must end in the structural error"),
                Err(_) => break,
            }
        }
        let whole_batches = parses.len() / FRAME_BATCH * FRAME_BATCH;
        assert!(whole_batches >= 2 * FRAME_BATCH);
        let want = parses[..whole_batches].iter().filter(|&&ok| ok).count();
        for workers in [1, 3] {
            let mut reader = PooledReader::new(Arc::new(buf.clone()), workers).unwrap();
            let mut got = Vec::new();
            let err = loop {
                match reader.next_metas(&mut got) {
                    Ok(0) => panic!("stream must end in the structural error"),
                    Ok(_) => {}
                    Err(e) => break e,
                }
            };
            assert!(
                matches!(err, PacketError::Io(_)),
                "workers={workers}: {err}"
            );
            // Every full batch before the damaged one was delivered;
            // the damaged batch contributed nothing (serial semantics).
            assert_eq!(got.len(), want, "workers={workers}");
            assert!(
                reader.next_metas(&mut got).unwrap() == 0,
                "terminal after error"
            );
        }
    }

    #[test]
    fn empty_capture_ends_immediately() {
        let mut buf = Vec::new();
        let w = PcapWriter::new(&mut buf, 101).unwrap();
        w.finish().unwrap();
        let mut reader = PooledReader::new(Arc::new(buf), 2).unwrap();
        let mut out = Vec::new();
        assert_eq!(reader.next_metas(&mut out).unwrap(), 0);
        assert_eq!(reader.next_metas(&mut out).unwrap(), 0);
    }

    #[test]
    fn bad_header_rejected_on_callers_thread() {
        let Err(err) = PooledReader::new(Arc::new(vec![0u8; 24]), 2) else {
            panic!("bad magic must be rejected");
        };
        assert!(matches!(err, PacketError::BadMagic(0)));
    }

    #[test]
    fn dropping_mid_stream_joins_all_threads() {
        let buf = Arc::new(capture(5000));
        let mut reader = PooledReader::new(buf, 3).unwrap();
        let mut out = Vec::new();
        reader.next_metas(&mut out).unwrap();
        drop(reader); // must not hang on the in-flight batches
    }
}
