//! Packet sources: where a [`crate::Pipeline`] gets its packets.

use std::io::Read;

use eleph_packet::pcap::{PcapReader, RecordHeader};
use eleph_packet::{parse_buf_meta, LinkType, PacketMeta};
use eleph_trace::{PacketSynth, RateTrace};

/// Records decoded per [`PacketSource::next_chunk`] call on the pcap
/// path: large enough to amortize the virtual call, small enough that
/// the chunk buffer stays cache-resident.
const SOURCE_CHUNK: usize = 256;

/// A supplier of time-ordered packet metadata, consumed chunk-wise.
///
/// The pipeline seals measurement intervals as packet timestamps cross
/// interval boundaries, so sources must yield packets in
/// non-decreasing *interval* order (exact timestamp order within an
/// interval does not matter). Packets arriving for an already-sealed
/// interval are counted as `late` and dropped, never silently binned.
pub trait PacketSource {
    /// Append the next chunk of packets to `out` and return how many
    /// were appended. `Ok(0)` means the stream is exhausted —
    /// implementations must keep decoding past malformed records (and
    /// empty synthetic intervals) internally rather than returning a
    /// spurious zero mid-stream.
    fn next_chunk(&mut self, out: &mut Vec<PacketMeta>) -> eleph_packet::Result<usize>;

    /// Raw packets seen so far that failed packet-level parsing. The
    /// pipeline folds this into its accounting when the source drains,
    /// keeping the conservation invariant (`offered` counts every
    /// captured record, parseable or not).
    fn malformed(&self) -> u64 {
        0
    }
}

/// A `&mut` source is a source: lets callers keep ownership across
/// [`crate::Pipeline::run`] to read source-side state (the malformed
/// total) after the run.
impl<S: PacketSource + ?Sized> PacketSource for &mut S {
    fn next_chunk(&mut self, out: &mut Vec<PacketMeta>) -> eleph_packet::Result<usize> {
        (**self).next_chunk(out)
    }

    fn malformed(&self) -> u64 {
        (**self).malformed()
    }
}

/// Streams a pcap capture: structural record framing via
/// [`PcapReader::next_record_ref`] (records parsed where the reader's
/// block buffer holds them — no per-record `read`, copy or allocation,
/// so hand it the bare `File`), packet parsing via [`parse_buf_meta`].
///
/// Structural pcap errors abort the run — a damaged file is not a
/// measurement. Packets that fail *packet* parsing (bad IPv4 header,
/// truncated transport) are counted via [`PacketSource::malformed`] and
/// skipped: offered, never binned.
pub struct PcapSource<R: Read> {
    reader: PcapReader<R>,
    link: LinkType,
    malformed: u64,
}

impl<R: Read> PcapSource<R> {
    /// Open a pcap stream (reads and validates the file header).
    pub fn new(input: R) -> eleph_packet::Result<Self> {
        let reader = PcapReader::new(input)?;
        let link = LinkType::from_code(reader.header().linktype)?;
        Ok(PcapSource {
            reader,
            link,
            malformed: 0,
        })
    }

    /// The header of the next record, which stays unread
    /// ([`PcapReader::peek_header`]); `Ok(None)` at the end of the
    /// capture.
    pub fn peek_header(&mut self) -> eleph_packet::Result<Option<RecordHeader>> {
        self.reader.peek_header()
    }
}

impl<R: Read> PacketSource for PcapSource<R> {
    /// Records until `SOURCE_CHUNK` of them have parsed or the
    /// capture ends.
    fn next_chunk(&mut self, out: &mut Vec<PacketMeta>) -> eleph_packet::Result<usize> {
        let base = out.len();
        while let Some((head, bytes)) = self.reader.next_record_ref()? {
            match parse_buf_meta(self.link, bytes, &head) {
                Ok(meta) => {
                    out.push(meta);
                    if out.len() - base >= SOURCE_CHUNK {
                        break;
                    }
                }
                Err(_) => self.malformed += 1,
            }
        }
        Ok(out.len() - base)
    }

    fn malformed(&self) -> u64 {
        self.malformed
    }
}

/// Synthesizes packets from a [`RateTrace`] workload, one interval per
/// chunk — the pipeline's memory stays bounded by a single interval's
/// packet population, however long the trace.
///
/// Packets are identical to what [`PacketSynth`] would write to a pcap
/// (same per-flow RNG streams), so a `TraceSource` run classifies
/// exactly like aggregating that pcap.
pub struct TraceSource<'a> {
    synth: PacketSynth<'a>,
    intervals: std::ops::Range<usize>,
}

impl<'a> TraceSource<'a> {
    /// Source over the whole trace with the default packet mix.
    pub fn new(trace: &'a RateTrace) -> Self {
        let n = trace.n_intervals();
        TraceSource {
            synth: PacketSynth::new(trace),
            intervals: 0..n,
        }
    }

    /// Source over an interval window of the trace.
    pub fn window(trace: &'a RateTrace, intervals: std::ops::Range<usize>) -> Self {
        TraceSource {
            synth: PacketSynth::new(trace),
            intervals,
        }
    }
}

impl PacketSource for TraceSource<'_> {
    fn next_chunk(&mut self, out: &mut Vec<PacketMeta>) -> eleph_packet::Result<usize> {
        let base = out.len();
        // Idle intervals synthesize no packets; skip them rather than
        // returning a spurious end-of-stream (the pipeline seals the
        // gap from the next packet's timestamp).
        while out.len() == base {
            let Some(n) = self.intervals.next() else {
                return Ok(0);
            };
            self.synth
                .synthesize_window(n..n + 1, |meta| out.push(meta));
        }
        Ok(out.len() - base)
    }
}

/// An in-memory packet stream: feeds pre-parsed metadata in chunks.
/// Useful for tests, replay buffers, and adapting capture frameworks
/// that already deliver decoded packets.
pub struct MetaSource {
    metas: Vec<PacketMeta>,
    pos: usize,
}

impl MetaSource {
    /// Source over an owned packet vector (must be interval-ordered).
    pub fn new(metas: Vec<PacketMeta>) -> Self {
        MetaSource { metas, pos: 0 }
    }
}

impl FromIterator<PacketMeta> for MetaSource {
    fn from_iter<I: IntoIterator<Item = PacketMeta>>(iter: I) -> Self {
        MetaSource::new(iter.into_iter().collect())
    }
}

impl PacketSource for MetaSource {
    fn next_chunk(&mut self, out: &mut Vec<PacketMeta>) -> eleph_packet::Result<usize> {
        let n = SOURCE_CHUNK.min(self.metas.len() - self.pos);
        out.extend_from_slice(&self.metas[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}
