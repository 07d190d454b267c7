//! Classic libpcap capture files.
//!
//! Implements the format described at
//! <https://wiki.wireshark.org/Development/LibpcapFileFormat>: a 24-byte
//! global header (magic, version, snaplen, linktype) followed by records,
//! each with a 16-byte header (seconds, sub-seconds, captured length,
//! original length). Both byte orders and both timestamp resolutions
//! (microseconds, magic `0xa1b2c3d4`; nanoseconds, magic `0xa1b23c4d`) are
//! read; the writer emits little-endian files at a chosen resolution.
//!
//! Timestamps are normalised to **nanoseconds since the epoch** (`u64`) on
//! both paths, so the rest of the system never sees the resolution.

use std::io::{Read, Write};

use crate::{PacketError, Result};

/// Magic number for microsecond-resolution files.
pub const MAGIC_MICROS: u32 = 0xa1b2_c3d4;
/// Magic number for nanosecond-resolution files.
pub const MAGIC_NANOS: u32 = 0xa1b2_3c4d;

/// Captured lengths above this are treated as file corruption rather than
/// honoured with a giant allocation.
const MAX_SANE_CAPLEN: u32 = 1 << 26; // 64 MiB

/// Timestamp resolution of a capture file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsResolution {
    /// Microsecond sub-second field (classic).
    Micro,
    /// Nanosecond sub-second field.
    Nano,
}

/// Parsed global header of a capture file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcapHeader {
    /// Timestamp resolution encoded by the magic.
    pub resolution: TsResolution,
    /// Whether the file's byte order is opposite to this host's reader
    /// (i.e. the magic arrived byte-swapped).
    pub swapped: bool,
    /// Snap length: maximum captured bytes per packet.
    pub snaplen: u32,
    /// Link type (1 = Ethernet, 101 = raw IP, ...).
    pub linktype: u32,
}

/// Header fields of a record whose captured bytes are handed back
/// separately ([`PcapReader::next_record_ref`], [`PcapSlice::next_record`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// Capture timestamp in nanoseconds since the epoch.
    pub ts_ns: u64,
    /// Original on-the-wire length (≥ captured length when snapped).
    /// Bandwidth accounting must use this, not the captured length.
    pub orig_len: u32,
}

/// Streaming writer for little-endian capture files.
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    out: W,
    resolution: TsResolution,
    snaplen: u32,
    records: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Create a writer with microsecond resolution and a 64 KiB snap length.
    pub fn new(out: W, linktype: u32) -> Result<Self> {
        Self::with_options(out, linktype, TsResolution::Micro, 65535)
    }

    /// Create a writer choosing resolution and snap length.
    pub fn with_options(
        mut out: W,
        linktype: u32,
        resolution: TsResolution,
        snaplen: u32,
    ) -> Result<Self> {
        let magic = match resolution {
            TsResolution::Micro => MAGIC_MICROS,
            TsResolution::Nano => MAGIC_NANOS,
        };
        out.write_all(&magic.to_le_bytes())?;
        out.write_all(&2u16.to_le_bytes())?; // version major
        out.write_all(&4u16.to_le_bytes())?; // version minor
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&snaplen.to_le_bytes())?;
        out.write_all(&linktype.to_le_bytes())?;
        Ok(PcapWriter {
            out,
            resolution,
            snaplen,
            records: 0,
        })
    }

    /// Append one packet. `data` is truncated to the snap length; the
    /// original length recorded is `orig_len` (pass `data.len()` when the
    /// packet is complete), raised to the captured length if it claims
    /// less — a record capturing more bytes than existed on the wire is
    /// not representable, and readers (including ours) treat
    /// `orig_len ≥ caplen` as an invariant of a well-formed file.
    ///
    /// # Errors
    /// [`PacketError::UnrepresentableTimestamp`] when `ts_ns` exceeds
    /// the format's 32-bit seconds field (≈ year 2106) — previously the
    /// seconds were silently truncated, corrupting the written file's
    /// timeline.
    pub fn write_record(&mut self, ts_ns: u64, orig_len: u32, data: &[u8]) -> Result<()> {
        let captured = data.len().min(self.snaplen as usize);
        let secs = u32::try_from(ts_ns / 1_000_000_000)
            .map_err(|_| PacketError::UnrepresentableTimestamp(ts_ns))?;
        let orig_len = orig_len.max(captured as u32);
        let subsec = match self.resolution {
            TsResolution::Micro => (ts_ns % 1_000_000_000) / 1_000,
            TsResolution::Nano => ts_ns % 1_000_000_000,
        } as u32;
        self.out.write_all(&secs.to_le_bytes())?;
        self.out.write_all(&subsec.to_le_bytes())?;
        self.out.write_all(&(captured as u32).to_le_bytes())?;
        self.out.write_all(&orig_len.to_le_bytes())?;
        self.out.write_all(&data[..captured])?;
        self.records += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Bytes the reader asks its input for at a time. About 1 800 backbone
/// records: large enough that the `read` call vanishes from the
/// per-packet cost, small enough that the block stays cache-resident
/// between the kernel's copy and the parser.
const BLOCK: usize = 128 * 1024;

/// Streaming reader for capture files of either byte order and resolution.
///
/// The reader owns one block buffer and frames records **in place**:
/// the input is read a block at a time (one `read` per ~128 KiB, never
/// per record) and [`PcapReader::next_record_ref`] hands back a borrow
/// into the block. Pass the input as it is — a `File`, a pipe, a socket
/// — and do *not* wrap it in a `BufReader`: that would only add a
/// second copy of every byte.
///
/// What the block guarantees:
///
/// * [`PcapReader::new`] consumes exactly the 24-byte global header; the
///   first block is read by the first record call.
/// * A refill is a single `read`, and none is issued while a complete
///   record is already buffered — records from a pipe or a growing file
///   are delivered as soon as their last byte arrives.
/// * A record larger than the block grows the buffer geometrically *as
///   its bytes arrive*, so memory is bounded by what the input really
///   holds, never by the length a record header claims.
/// * An error consumes nothing: the cursor stays at the damaged record,
///   every record before it has been delivered, and calling again
///   repeats the attempt (as [`PcapSlice`] does).
#[derive(Debug)]
pub struct PcapReader<R: Read> {
    input: R,
    header: PcapHeader,
    /// Read-but-unconsumed input is `block[start..end]`.
    block: Vec<u8>,
    start: usize,
    end: usize,
}

impl<R: Read> PcapReader<R> {
    /// Parse the global header and position the reader at the first record.
    pub fn new(mut input: R) -> Result<Self> {
        let mut head = [0u8; 24];
        input.read_exact(&mut head)?;
        let magic_le = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes"));
        let (resolution, swapped) = match magic_le {
            MAGIC_MICROS => (TsResolution::Micro, false),
            MAGIC_NANOS => (TsResolution::Nano, false),
            m if m.swap_bytes() == MAGIC_MICROS => (TsResolution::Micro, true),
            m if m.swap_bytes() == MAGIC_NANOS => (TsResolution::Nano, true),
            m => return Err(PacketError::BadMagic(m)),
        };
        let u32_at = |bytes: &[u8]| {
            let raw = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
            if swapped {
                raw.swap_bytes()
            } else {
                raw
            }
        };
        let snaplen = u32_at(&head[16..20]);
        let linktype = u32_at(&head[20..24]);
        Ok(PcapReader {
            input,
            header: PcapHeader {
                resolution,
                swapped,
                snaplen,
                linktype,
            },
            block: Vec::new(),
            start: 0,
            end: 0,
        })
    }

    /// The parsed global header.
    pub fn header(&self) -> PcapHeader {
        self.header
    }

    /// The next record's header and its captured bytes, borrowed from
    /// the reader's block until the next call; `Ok(None)` on clean
    /// end-of-file.
    ///
    /// This is the streaming form: no per-record `read`, copy or
    /// allocation.
    ///
    /// # Errors
    /// [`PacketError::Truncated`] (`needed: 16`) when the input ends
    /// inside a record header, [`PacketError::Io`] when it ends inside
    /// a record body or the input itself fails, and
    /// [`PacketError::ImplausibleCaptureLen`] for a captured length
    /// above 64 MiB.
    pub fn next_record_ref(&mut self) -> Result<Option<(RecordHeader, &[u8])>> {
        let Some((head, len)) = self.buffer_record()? else {
            return Ok(None);
        };
        let body = self.start + 16..self.start + len;
        self.start += len;
        Ok(Some((head, &self.block[body])))
    }

    /// The next record's header, without consuming the record: the
    /// block is filled exactly as [`PcapReader::next_record_ref`] would
    /// fill it (so the call after this one reads nothing more), with the
    /// same errors; `Ok(None)` on clean end-of-file. This is how a
    /// caller learns the first timestamp of a capture it can open only
    /// once — a pipe, say.
    pub fn peek_header(&mut self) -> Result<Option<RecordHeader>> {
        Ok(self.buffer_record()?.map(|(head, _)| head))
    }

    /// Read until the next record is in the block, whole, and return its
    /// header and its length with the record header.
    #[inline]
    fn buffer_record(&mut self) -> Result<Option<(RecordHeader, usize)>> {
        while self.end - self.start < 16 {
            if self.refill()? == 0 {
                return match self.end - self.start {
                    0 => Ok(None),
                    got => Err(PacketError::Truncated { needed: 16, got }),
                };
            }
        }
        let rec_head = self.block[self.start..self.start + 16]
            .try_into()
            .expect("16 bytes");
        let (head, caplen) =
            decode_record_header(rec_head, self.header.swapped, self.header.resolution)?;
        let len = 16 + caplen as usize;
        while self.end - self.start < len {
            if self.refill()? == 0 {
                return Err(PacketError::Io("record body truncated".to_string()));
            }
        }
        Ok(Some((head, len)))
    }

    /// One `read` into the block's free space, returning how many bytes
    /// arrived (0 at end-of-file). The unread tail moves to the front
    /// only when the block is full to its end, so compaction costs at
    /// most one partial record per block; a block that is still full
    /// after that holds one oversized record, and doubles.
    fn refill(&mut self) -> Result<usize> {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        } else if self.end == self.block.len() {
            self.block.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        if self.end == self.block.len() {
            // Zeroed straight from the allocator: pages the input never
            // fills are never touched.
            let mut grown = vec![0; (2 * self.block.len()).max(BLOCK)];
            grown[..self.end].copy_from_slice(&self.block);
            self.block = grown;
        }
        loop {
            match self.input.read(&mut self.block[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// [`PcapReader::next_record_ref`] with the captured bytes copied
    /// into `data` (cleared first), for callers that must own or mutate
    /// them; `data` is untouched at end-of-file.
    pub fn next_record_into(&mut self, data: &mut Vec<u8>) -> Result<Option<RecordHeader>> {
        Ok(self.next_record_ref()?.map(|(head, bytes)| {
            data.clear();
            data.extend_from_slice(bytes);
            head
        }))
    }
}

/// Decode one 16-byte record header, shared by the streaming reader and
/// the slice cursor so their interpretations cannot diverge. Returns
/// the normalised header and the captured length.
fn decode_record_header(
    rec_head: &[u8; 16],
    swapped: bool,
    resolution: TsResolution,
) -> Result<(RecordHeader, u32)> {
    let u32_at = |bytes: &[u8]| {
        let raw = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
        if swapped {
            raw.swap_bytes()
        } else {
            raw
        }
    };
    let secs = u32_at(&rec_head[0..4]) as u64;
    let subsec = u32_at(&rec_head[4..8]) as u64;
    let caplen = u32_at(&rec_head[8..12]);
    let orig_len = u32_at(&rec_head[12..16]);
    if caplen > MAX_SANE_CAPLEN {
        return Err(PacketError::ImplausibleCaptureLen(caplen));
    }
    let ts_ns = match resolution {
        TsResolution::Micro => secs * 1_000_000_000 + subsec * 1_000,
        TsResolution::Nano => secs * 1_000_000_000 + subsec,
    };
    Ok((RecordHeader { ts_ns, orig_len }, caplen))
}

/// Zero-copy record cursor over an in-memory (or memory-mapped) capture.
///
/// Where [`PcapReader`] lends each record out of its own block until
/// the next call, `PcapSlice` hands back sub-slices of the input buffer
/// that live as long as it does, so records can be read straight out
/// of a shared buffer.
#[derive(Debug, Clone)]
pub struct PcapSlice<'a> {
    data: &'a [u8],
    header: PcapHeader,
    pos: usize,
}

impl<'a> PcapSlice<'a> {
    /// Parse the global header and position the cursor at the first
    /// record.
    pub fn new(data: &'a [u8]) -> Result<Self> {
        let mut prefix = data;
        let reader = PcapReader::new(&mut prefix)?;
        let header = reader.header();
        Ok(PcapSlice {
            data,
            header,
            pos: 24,
        })
    }

    /// The parsed global header.
    pub fn header(&self) -> PcapHeader {
        self.header
    }

    /// Byte offset of the next unread record.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Decode up to `max` records, appending each as its header and the
    /// byte *span* (offsets into the input buffer) of its captured
    /// bytes; returns how many were decoded, fewer than `max` meaning
    /// clean end-of-input.
    ///
    /// Spans are what cross threads: a slice borrow ties a record to
    /// the cursor's lifetime, but a `(header, offset range)` pair is
    /// `'static` — a framer thread can scan ahead over a shared
    /// (`Arc`ed) capture and hand record spans to parser threads, each
    /// of which resolves its spans against its own clone of the buffer.
    /// No record bytes are copied at any point (see
    /// [`crate::pool::PooledReader`]).
    ///
    /// This is the two-cursor form of the scan: a *scan-ahead* cursor
    /// walks the raw bytes roughly `SCAN_AHEAD_BYTES` (4 KiB) in front of the
    /// decode position, requesting one cache line per touch, while the
    /// *consume* cursor decodes record headers behind it. The header
    /// walk itself is a dependent chain (each record's offset comes from
    /// the previous record's captured length), so a cold miss on every
    /// header serialises the whole scan — warming the lines ahead of
    /// the chain keeps the framer off the memory-latency floor. The
    /// touches are forced one-byte reads, which the out-of-order window
    /// hides almost as well as a prefetch instruction would.
    ///
    /// Errors abort the batch exactly like [`PcapSlice::next_record`]:
    /// spans already appended to `out` are valid, the cursor stops at
    /// the damaged record.
    pub fn next_batch_spans(
        &mut self,
        max: usize,
        out: &mut Vec<(RecordHeader, std::ops::Range<usize>)>,
    ) -> Result<usize> {
        let mut touched = self.pos;
        let mut n = 0;
        while n < max {
            let target = (self.pos + SCAN_AHEAD_BYTES).min(self.data.len());
            while touched < target {
                touch_ahead(&self.data[touched]);
                touched += CACHE_LINE;
            }
            let body = self.pos + 16;
            match self.next_record()? {
                Some((head, data)) => {
                    out.push((head, body..body + data.len()));
                    n += 1;
                }
                None => break,
            }
        }
        Ok(n)
    }

    /// The next record's header and its captured bytes, borrowed from
    /// the input; `Ok(None)` on clean end-of-input.
    pub fn next_record(&mut self) -> Result<Option<(RecordHeader, &'a [u8])>> {
        let remaining = &self.data[self.pos..];
        if remaining.is_empty() {
            return Ok(None);
        }
        let rec_head: &[u8; 16] = match remaining.get(..16).and_then(|h| h.try_into().ok()) {
            Some(head) => head,
            None => {
                return Err(PacketError::Truncated {
                    needed: 16,
                    got: remaining.len(),
                });
            }
        };
        let (head, caplen) =
            decode_record_header(rec_head, self.header.swapped, self.header.resolution)?;
        let body = &remaining[16..];
        if body.len() < caplen as usize {
            // Same failure class the streaming reader reports for a
            // record body cut short by end-of-file.
            return Err(PacketError::Io("record body truncated".to_string()));
        }
        let data = &body[..caplen as usize];
        self.pos += 16 + caplen as usize;
        Ok(Some((head, data)))
    }
}

/// How far the scan-ahead cursor of [`PcapSlice::next_batch_spans`] runs in
/// front of the decode position. A few records' worth: far enough that
/// the touched lines arrive before the consume cursor needs them, near
/// enough not to thrash the L1.
const SCAN_AHEAD_BYTES: usize = 4096;

/// Stride of the scan-ahead touches — one per cache line.
const CACHE_LINE: usize = 64;

/// Warm the cache line holding `byte` with a forced (non-elidable)
/// read — the safe-code stand-in for a prefetch instruction; the
/// out-of-order window hides the load's latency because nothing
/// consumes its value.
#[inline(always)]
fn touch_ahead(byte: &u8) {
    let _ = std::hint::black_box(*byte);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(resolution: TsResolution) {
        let mut buf = Vec::new();
        {
            let mut w =
                PcapWriter::with_options(&mut buf, 1, resolution, 65535).unwrap();
            w.write_record(1_000_000_123_456_789, 100, &[1, 2, 3, 4]).unwrap();
            w.write_record(1_000_000_999_999_000, 4, &[9, 8, 7, 6]).unwrap();
            assert_eq!(w.records_written(), 2);
            w.finish().unwrap();
        }
        let mut r = PcapReader::new(&buf[..]).unwrap();
        assert_eq!(r.header().linktype, 1);
        assert_eq!(r.header().resolution, resolution);
        assert!(!r.header().swapped);

        let (head, data) = r.next_record_ref().unwrap().unwrap();
        assert_eq!(head.orig_len, 100);
        assert_eq!(data, &[1, 2, 3, 4]);
        match resolution {
            TsResolution::Nano => assert_eq!(head.ts_ns, 1_000_000_123_456_789),
            // Microsecond files round sub-µs digits away.
            TsResolution::Micro => assert_eq!(head.ts_ns, 1_000_000_123_456_000),
        }
        let (_, data) = r.next_record_ref().unwrap().unwrap();
        assert_eq!(data, &[9, 8, 7, 6]);
        assert!(r.next_record_ref().unwrap().is_none());
    }

    #[test]
    fn micro_round_trip() {
        round_trip(TsResolution::Micro);
    }

    #[test]
    fn nano_round_trip() {
        round_trip(TsResolution::Nano);
    }

    #[test]
    fn reads_big_endian_files() {
        // Hand-build a big-endian microsecond file with one 2-byte record.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_MICROS.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&0i32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&1500u32.to_be_bytes());
        buf.extend_from_slice(&101u32.to_be_bytes());
        buf.extend_from_slice(&7u32.to_be_bytes()); // secs
        buf.extend_from_slice(&5u32.to_be_bytes()); // µs
        buf.extend_from_slice(&2u32.to_be_bytes()); // caplen
        buf.extend_from_slice(&60u32.to_be_bytes()); // origlen
        buf.extend_from_slice(&[0xAA, 0xBB]);

        let mut r = PcapReader::new(&buf[..]).unwrap();
        let h = r.header();
        assert!(h.swapped);
        assert_eq!(h.snaplen, 1500);
        assert_eq!(h.linktype, 101);
        let (head, data) = r.next_record_ref().unwrap().unwrap();
        assert_eq!(head.ts_ns, 7_000_005_000);
        assert_eq!(head.orig_len, 60);
        assert_eq!(data, &[0xAA, 0xBB]);
    }

    #[test]
    fn snaplen_truncates_but_keeps_orig_len() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::with_options(&mut buf, 1, TsResolution::Micro, 8).unwrap();
        let payload = [0x55u8; 32];
        w.write_record(0, 32, &payload).unwrap();
        w.finish().unwrap();

        let mut r = PcapReader::new(&buf[..]).unwrap();
        let (head, data) = r.next_record_ref().unwrap().unwrap();
        assert_eq!(data.len(), 8);
        assert_eq!(head.orig_len, 32);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = [0u8; 24];
        assert!(matches!(
            PcapReader::new(&buf[..]).unwrap_err(),
            PacketError::BadMagic(0)
        ));
    }

    #[test]
    fn truncated_global_header_rejected() {
        let buf = [0u8; 10];
        assert!(matches!(PcapReader::new(&buf[..]).unwrap_err(), PacketError::Io(_)));
    }

    #[test]
    fn truncated_record_header_detected() {
        let mut buf = Vec::new();
        let w = PcapWriter::new(&mut buf, 1).unwrap();
        w.finish().unwrap();
        buf.extend_from_slice(&[0u8; 7]); // garbage partial record header
        let mut r = PcapReader::new(&buf[..]).unwrap();
        assert!(matches!(
            r.next_record_ref().unwrap_err(),
            PacketError::Truncated { needed: 16, got: 7 }
        ));
    }

    #[test]
    fn truncated_record_body_detected() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 1).unwrap();
        w.write_record(0, 4, &[1, 2, 3, 4]).unwrap();
        w.finish().unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = PcapReader::new(&buf[..]).unwrap();
        assert!(matches!(r.next_record_ref().unwrap_err(), PacketError::Io(_)));
    }

    #[test]
    fn implausible_caplen_rejected_without_allocation() {
        let mut buf = Vec::new();
        let w = PcapWriter::new(&mut buf, 1).unwrap();
        w.finish().unwrap();
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // caplen = 4 GiB
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut r = PcapReader::new(&buf[..]).unwrap();
        assert!(matches!(
            r.next_record_ref().unwrap_err(),
            PacketError::ImplausibleCaptureLen(_)
        ));
    }

    #[test]
    fn claimed_caplen_never_sizes_an_allocation() {
        // Regression: a header claiming just under MAX_SANE_CAPLEN used
        // to zero-fill a 64 MiB buffer before the read found a 40-byte
        // file. The block grows only as bytes actually arrive.
        let mut buf = Vec::new();
        let w = PcapWriter::new(&mut buf, 1).unwrap();
        w.finish().unwrap();
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&(MAX_SANE_CAPLEN - 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(buf.len(), 40);
        let mut r = PcapReader::new(&buf[..]).unwrap();
        assert!(matches!(
            r.next_record_ref().unwrap_err(),
            PacketError::Io(_)
        ));
        assert!(r.block.capacity() < 1 << 20, "{} bytes", r.block.capacity());
    }

    /// Hands out one prepared chunk per `read` call and counts the calls.
    struct Chunks {
        chunks: std::collections::VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Read for Chunks {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let Some(chunk) = self.chunks.front_mut() else {
                return Ok(0);
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            chunk.drain(..n);
            if chunk.is_empty() {
                self.chunks.pop_front();
            }
            Ok(n)
        }
    }

    /// A capture of `n` small records of varying length, split into the
    /// global header and one byte string per record.
    fn capture_parts(n: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 1).unwrap();
        let mut ends = Vec::new();
        for i in 0..n {
            let len = 40 + i % 61;
            w.write_record(i as u64 * 1_000, len as u32, &vec![i as u8; len]).unwrap();
            ends.push(w.out.len());
        }
        w.finish().unwrap();
        let mut records = Vec::new();
        let mut at = 24;
        for end in ends {
            records.push(buf[at..end].to_vec());
            at = end;
        }
        buf.truncate(24);
        (buf, records)
    }

    #[test]
    fn new_consumes_exactly_the_global_header() {
        let (head, records) = capture_parts(3);
        let capture = [head, records.concat()].concat();
        let mut input = &capture[..];
        let reader = PcapReader::new(&mut input).unwrap();
        assert_eq!(reader.block.capacity(), 0);
        drop(reader);
        assert_eq!(input.len(), capture.len() - 24);
    }

    #[test]
    fn reads_are_per_block_not_per_record() {
        let (head, records) = capture_parts(10_000);
        let capture = [head, records.concat()].concat();
        let mut r = PcapReader::new(Chunks {
            chunks: [capture.clone()].into(),
            reads: 0,
        })
        .unwrap();
        let mut n = 0;
        while let Some((head, bytes)) = r.next_record_ref().unwrap() {
            assert_eq!(head.ts_ns, n as u64 * 1_000);
            assert_eq!(bytes, &records[n][16..]);
            n += 1;
        }
        assert_eq!(n, 10_000);
        // The global header, one read per block, and the read that
        // finds end-of-file.
        assert!(
            r.input.reads <= capture.len().div_ceil(BLOCK) + 2,
            "{} reads for {} bytes",
            r.input.reads,
            capture.len()
        );
    }

    #[test]
    fn record_split_anywhere_across_the_block_edge_is_reassembled() {
        // The first record leaves `k` bytes of block for the second, so
        // the edge sweeps through its header and into its body: the
        // unread tail has to move to the front intact either way.
        for k in 0..=40 {
            let mut buf = Vec::new();
            let mut w =
                PcapWriter::with_options(&mut buf, 1, TsResolution::Nano, u32::MAX).unwrap();
            w.write_record(1, 0, &vec![0xAA; BLOCK - 16 - k]).unwrap();
            for i in 1..4u8 {
                let ts = 0x0102_0304 * 1_000_000_000 + 0x0506_0708 + u64::from(i);
                w.write_record(ts, 0x0A0B_0C0D, &[i; 20]).unwrap();
            }
            w.finish().unwrap();

            let chunks = [buf.clone()].into();
            let mut stream = PcapReader::new(Chunks { chunks, reads: 0 }).unwrap();
            let mut slice = PcapSlice::new(&buf).unwrap();
            while let Some(expected) = slice.next_record().unwrap() {
                assert_eq!(stream.next_record_ref().unwrap(), Some(expected), "k = {k}");
            }
            assert!(stream.next_record_ref().unwrap().is_none());
            assert_eq!(stream.block.len(), BLOCK, "no record outgrew the block");
        }
    }

    #[test]
    fn buffered_record_is_delivered_before_the_next_read() {
        // A source that yields one record per `read` (a pipe fed by a
        // live capture): record i must come out after exactly i reads
        // past the global header — a refill that looped to fill the
        // block would sit on delivered records until the block was full.
        let (head, records) = capture_parts(50);
        let mut chunks = std::collections::VecDeque::from([head]);
        chunks.extend(records.iter().cloned());
        let mut r = PcapReader::new(Chunks { chunks, reads: 0 }).unwrap();
        for (i, record) in records.iter().enumerate() {
            let (_, bytes) = r.next_record_ref().unwrap().unwrap();
            assert_eq!(bytes, &record[16..]);
            assert_eq!(r.input.reads, 1 + (i + 1), "record {i}");
        }
        assert!(r.next_record_ref().unwrap().is_none());
        assert_eq!(r.input.reads, 1 + records.len() + 1);
    }

    #[test]
    fn peek_reads_the_next_record_and_consumes_nothing() {
        let (head, records) = capture_parts(3);
        let mut chunks = std::collections::VecDeque::from([head.clone()]);
        chunks.extend(records.iter().cloned());
        let mut r = PcapReader::new(Chunks { chunks, reads: 0 }).unwrap();
        for record in &records {
            let peeked = r.peek_header().unwrap().expect("a record is left");
            assert_eq!(r.peek_header().unwrap(), Some(peeked));
            let reads = r.input.reads;
            assert_eq!(r.next_record_ref().unwrap(), Some((peeked, &record[16..])));
            assert_eq!(r.input.reads, reads, "the peek already read the record");
        }
        assert_eq!(r.peek_header().unwrap(), None);
        assert!(r.next_record_ref().unwrap().is_none());
        // An empty capture has no first record; a cut one is an error.
        assert_eq!(PcapReader::new(&head[..]).unwrap().peek_header().unwrap(), None);
        let cut = [&head[..], &records[0][..20]].concat();
        assert!(matches!(
            PcapReader::new(&cut[..]).unwrap().peek_header().unwrap_err(),
            PacketError::Io(_)
        ));
    }

    #[test]
    fn error_consumes_nothing_so_a_growing_file_resumes() {
        let (head, records) = capture_parts(2);
        let (first, second) = (&records[0], &records[1]);
        let chunks = [head, first.clone(), second[..7].to_vec()].into();
        let mut r = PcapReader::new(Chunks { chunks, reads: 0 }).unwrap();
        assert_eq!(r.next_record_ref().unwrap().unwrap().1, &first[16..]);
        for _ in 0..2 {
            assert_eq!(
                r.next_record_ref().unwrap_err(),
                PacketError::Truncated { needed: 16, got: 7 }
            );
        }
        r.input.chunks.push_back(second[7..20].to_vec());
        assert!(matches!(
            r.next_record_ref().unwrap_err(),
            PacketError::Io(_)
        ));
        r.input.chunks.push_back(second[20..].to_vec());
        assert_eq!(r.next_record_ref().unwrap().unwrap().1, &second[16..]);
        assert!(r.next_record_ref().unwrap().is_none());
    }

    #[test]
    fn buffer_reusing_read_matches_borrowing_read() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 1).unwrap();
        w.write_record(1_000_000, 8, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        w.write_record(2_000_000, 100, &[9, 8]).unwrap(); // snapped record
        w.write_record(3_000_000, 3, &[7, 7, 7]).unwrap();
        w.finish().unwrap();

        let mut borrow_reader = PcapReader::new(&buf[..]).unwrap();
        let mut reuse_reader = PcapReader::new(&buf[..]).unwrap();
        let mut scratch = Vec::new();
        loop {
            let a = borrow_reader.next_record_ref().unwrap();
            let b = reuse_reader.next_record_into(&mut scratch).unwrap();
            match (a, b) {
                (Some((head_a, data)), Some(head)) => {
                    assert_eq!(head_a, head);
                    assert_eq!(data, &scratch[..]);
                }
                (None, None) => break,
                (a, b) => panic!("readers disagree: {a:?} vs {b:?}"),
            }
        }
        // The buffer grew once and was reused across records.
        assert!(scratch.capacity() >= 8);
    }

    #[test]
    fn slice_cursor_matches_streaming_reader() {
        let mut buf = Vec::new();
        let mut w =
            PcapWriter::with_options(&mut buf, 101, TsResolution::Nano, 65535).unwrap();
        w.write_record(1_234_567_890, 64, &[0xAB; 40]).unwrap();
        w.write_record(2_000_000_001, 2, &[1, 2]).unwrap();
        w.write_record(3_000_000_002, 0, &[]).unwrap();
        w.finish().unwrap();

        let mut stream = PcapReader::new(&buf[..]).unwrap();
        let mut slice = PcapSlice::new(&buf[..]).unwrap();
        assert_eq!(stream.header(), slice.header());
        loop {
            let a = stream.next_record_ref().unwrap();
            let b = slice.next_record().unwrap();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(slice.position(), buf.len());
    }

    #[test]
    fn writer_rejects_unrepresentable_timestamps() {
        // Regression: seconds used to be truncated with `as u32`,
        // silently wrapping timestamps past ~year 2106.
        let max_ok = u64::from(u32::MAX) * 1_000_000_000 + 999_999_999;
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 1).unwrap();
        w.write_record(max_ok, 1, &[0]).unwrap();
        assert!(matches!(
            w.write_record(max_ok + 1, 1, &[0]).unwrap_err(),
            PacketError::UnrepresentableTimestamp(ns) if ns == max_ok + 1
        ));
        assert_eq!(w.records_written(), 1);
        w.finish().unwrap();
        let mut r = PcapReader::new(&buf[..]).unwrap();
        // The accepted boundary record round-trips without wrapping
        // (microsecond resolution rounds the sub-µs digits away).
        let (head, _) = r.next_record_ref().unwrap().unwrap();
        assert_eq!(head.ts_ns, u64::from(u32::MAX) * 1_000_000_000 + 999_999_000);
    }

    #[test]
    fn writer_clamps_orig_len_to_captured() {
        // Regression: `orig_len < captured` used to be written verbatim,
        // producing records no reader should trust.
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 1).unwrap();
        w.write_record(0, 2, &[1, 2, 3, 4, 5]).unwrap();
        w.finish().unwrap();
        let mut r = PcapReader::new(&buf[..]).unwrap();
        let (head, data) = r.next_record_ref().unwrap().unwrap();
        assert_eq!(data.len(), 5);
        assert_eq!(head.orig_len, 5, "orig_len must cover the captured bytes");
    }

    #[test]
    fn batch_scan_matches_single_record_scan() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::with_options(&mut buf, 101, TsResolution::Nano, 65535).unwrap();
        for i in 0..300u64 {
            let len = (i % 97) as usize;
            w.write_record(i * 1_000, len as u32, &vec![i as u8; len]).unwrap();
        }
        w.finish().unwrap();

        for batch_size in [1usize, 7, 64, 1000] {
            let mut single = PcapSlice::new(&buf[..]).unwrap();
            let mut batched = PcapSlice::new(&buf[..]).unwrap();
            let mut got = Vec::new();
            loop {
                let n = batched.next_batch_spans(batch_size, &mut got).unwrap();
                if n < batch_size {
                    break;
                }
            }
            assert_eq!(batched.position(), buf.len());
            let mut i = 0;
            while let Some((head, data)) = single.next_record().unwrap() {
                let (got_head, span) = got[i].clone();
                assert_eq!((got_head, &buf[span]), (head, data), "batch {batch_size}, record {i}");
                i += 1;
            }
            assert_eq!(got.len(), i, "batch {batch_size}");
        }
    }

    #[test]
    fn batch_scan_surfaces_errors_after_valid_prefix() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 1).unwrap();
        w.write_record(0, 4, &[1, 2, 3, 4]).unwrap();
        w.write_record(1_000, 4, &[5, 6, 7, 8]).unwrap();
        w.finish().unwrap();
        buf.truncate(buf.len() - 2); // cut the second record's body
        let mut cursor = PcapSlice::new(&buf[..]).unwrap();
        let mut out = Vec::new();
        assert!(cursor.next_batch_spans(16, &mut out).is_err());
        // The valid prefix was still decoded.
        assert_eq!(out.len(), 1);
        assert_eq!(&buf[out[0].1.clone()], &[1, 2, 3, 4]);
    }

    #[test]
    fn slice_cursor_detects_truncation() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 1).unwrap();
        w.write_record(0, 4, &[1, 2, 3, 4]).unwrap();
        w.finish().unwrap();

        let mut cut_header = PcapSlice::new(&buf[..buf.len() - 15]).unwrap();
        assert!(matches!(
            cut_header.next_record().unwrap_err(),
            PacketError::Truncated { needed: 16, .. }
        ));
        let mut cut_body = PcapSlice::new(&buf[..buf.len() - 2]).unwrap();
        assert!(matches!(cut_body.next_record().unwrap_err(), PacketError::Io(_)));
    }
}
