//! Streaming packet-to-interval aggregation.
//!
//! The hot path of the whole reproduction: on a backbone link this code
//! runs once per captured packet, millions of times per second. It is
//! therefore built around constant-time, allocation-free primitives:
//!
//! * attribution goes through a [`FrozenBgpTable`] (flat-array LPM,
//!   O(1), ≤ 2 dependent memory reads) and yields a dense
//!   [`eleph_bgp::RouteId`] — no trie pointer chase, no `Prefix → id`
//!   hash lookup; the pcap drivers decode records into 64-packet
//!   chunks and resolve them through the *batched*
//!   [`FrozenBgpTable::attribute_ids`], so the table's cache misses
//!   overlap across the chunk instead of costing one dependent miss
//!   per packet ([`Aggregator::observe_chunk`]);
//! * per-interval byte counts accumulate into plain `Vec<u64>` rows
//!   indexed by [`KeyId`] (dense, first-seen order), so the per-packet
//!   work is two array index operations and one add;
//! * interval assignment uses nanosecond bounds precomputed at
//!   construction — no per-packet multiplies;
//! * pcap streaming parses records where the reader's block buffer
//!   holds them ([`PcapReader::next_record_ref`]) instead of copying
//!   or allocating per record.

use std::borrow::Cow;
use std::io::Read;

use eleph_bgp::{BgpTable, FrozenBgpTable, RouteId};
use eleph_net::{LpmView, Prefix};
use eleph_packet::pcap::PcapReader;
use eleph_packet::{parse_buf_meta, LinkType, PacketMeta};

use crate::matrix::ColumnBuilder;
use crate::{BandwidthMatrix, KeyId};

/// Sentinel for "route not yet assigned a key" in the dense
/// `RouteId → KeyId` map.
const NO_KEY: KeyId = KeyId::MAX;

/// Validate a measurement window's configuration and return its hoisted
/// nanosecond bounds `(start_ns, interval_ns)`.
///
/// Shared by the batch [`Aggregator`] and the streaming pipeline so the
/// two paths cannot drift: both hot paths deliberately trust these
/// bounds, and a silent wraparound here would mis-bin every packet of a
/// run (a PR 2 regression in the batch path).
///
/// # Panics
///
/// Panics when `interval_secs` is zero or either bound overflows `u64`
/// — whatever [`try_window_bounds_ns`] refuses, with its message.
pub fn window_bounds_ns(interval_secs: u64, start_unix: u64) -> (u64, u64) {
    try_window_bounds_ns(interval_secs, start_unix).unwrap_or_else(|why| panic!("{why}"))
}

/// [`window_bounds_ns`] as a check: the bounds, or why no window can
/// have them — for a caller that refuses a configuration before it
/// builds anything.
pub fn try_window_bounds_ns(
    interval_secs: u64,
    start_unix: u64,
) -> Result<(u64, u64), &'static str> {
    if interval_secs == 0 {
        return Err("interval must be positive");
    }
    let start_ns = start_unix
        .checked_mul(1_000_000_000)
        .ok_or("start_unix too large: nanoseconds since the epoch overflow u64")?;
    let interval_ns = interval_secs
        .checked_mul(1_000_000_000)
        .ok_or("interval_secs too large: interval length in nanoseconds overflows u64")?;
    Ok((start_ns, interval_ns))
}

/// Packets attributed per batched-lookup call on the chunked paths.
///
/// Large enough that the flat table's stage-1 cache misses overlap
/// across the whole out-of-order window, small enough that the
/// destination/route scratch arrays live on the stack.
pub const ATTRIBUTION_CHUNK: usize = 64;

/// Batch-resolve `metas`' destinations through an attribution table,
/// appending one `Option<RouteId>` per packet to `routes` (cleared
/// first). Lookups issue in [`ATTRIBUTION_CHUNK`]-sized chunks through
/// [`LpmView::lookup_batch`], so every chunk's cache misses overlap
/// before any result is consumed — the shared stage-1 of both the
/// batch aggregator and the streaming pipeline (one copy, so the two
/// paths cannot drift on chunking or issue order).
///
/// Generic over [`LpmView`] so the same code serves a
/// [`FrozenBgpTable`] snapshot and a pinned live
/// `eleph_bgp::TableView` — mid-stream re-attribution reuses the
/// identical chunking.
pub fn attribute_metas<T: LpmView<u32> + ?Sized>(
    table: &T,
    metas: &[PacketMeta],
    routes: &mut Vec<Option<RouteId>>,
) {
    routes.clear();
    routes.reserve(metas.len());
    let mut dsts = [0u32; ATTRIBUTION_CHUNK];
    let mut chunk_routes: [Option<RouteId>; ATTRIBUTION_CHUNK] = [None; ATTRIBUTION_CHUNK];
    for chunk in metas.chunks(ATTRIBUTION_CHUNK) {
        let n = chunk.len();
        for (d, m) in dsts[..n].iter_mut().zip(chunk) {
            *d = u32::from(m.dst);
        }
        table.lookup_batch(&dsts[..n], &mut chunk_routes[..n]);
        routes.extend_from_slice(&chunk_routes[..n]);
    }
}

/// Dense first-seen `RouteId → KeyId` assignment, shared by the batch
/// aggregator and the streaming pipeline.
///
/// Key order is the heart of the batch/streaming bit-identity contract:
/// a key id is allocated the first time an attributed in-window packet
/// touches its route, in stream order. Keeping the allocator in one
/// place means a change to that rule cannot reach one path and miss the
/// other.
#[derive(Debug)]
pub struct KeyAllocator {
    /// [`NO_KEY`] = unassigned.
    route_to_key: Vec<KeyId>,
    /// The inverse, appended on first touch: `key_routes[k]` is the
    /// route first seen as key `k`.
    key_routes: Vec<RouteId>,
}

impl KeyAllocator {
    /// Allocator pre-sized for a table's route id space. The map grows
    /// on demand when a route id beyond `n_routes` appears — a live
    /// table's announces allocate fresh ids past the initial space, and
    /// each becomes a fresh key on first touch (a withdrawn-then-
    /// re-announced prefix is deliberately a *new* key: old keys drain
    /// through the classifier's latent-heat window, history is never
    /// rewritten).
    pub fn new(n_routes: usize) -> Self {
        KeyAllocator {
            route_to_key: vec![NO_KEY; n_routes],
            key_routes: Vec::new(),
        }
    }

    /// The key for `route`, assigning the next dense id on first touch.
    /// Returns `(key, newly_assigned)` so callers can record their
    /// per-key metadata (the route's prefix) exactly once.
    #[inline]
    pub fn key_for(&mut self, route: RouteId) -> (KeyId, bool) {
        match self.route_to_key.get(route as usize) {
            Some(&key) if key != NO_KEY => (key, false),
            _ => (self.assign(route), true),
        }
    }

    /// First touch of `route`: the next dense id, recorded both ways.
    /// Out of line so the per-packet path above stays one load and one
    /// compare.
    #[cold]
    #[inline(never)]
    fn assign(&mut self, route: RouteId) -> KeyId {
        if route as usize >= self.route_to_key.len() {
            self.route_to_key.resize(route as usize + 1, NO_KEY);
        }
        let key = self.key_routes.len() as KeyId;
        self.route_to_key[route as usize] = key;
        self.key_routes.push(route);
        key
    }

    /// Keys assigned so far.
    pub fn n_keys(&self) -> usize {
        self.key_routes.len()
    }

    /// The inverse mapping, ordered by key id: `result[k]` is the route
    /// that was first-seen as key `k`. This is the allocator's canonical
    /// checkpoint form — denser than the sparse route table and enough
    /// to rebuild it exactly. Kept as keys are assigned, so reading it
    /// costs nothing however large the route id space is.
    pub fn key_routes(&self) -> &[RouteId] {
        &self.key_routes
    }

    /// Rebuild an allocator from its [`KeyAllocator::key_routes`] form.
    /// Every route must be in bounds and distinct, or the mapping could
    /// not have come from first-seen assignment.
    pub fn from_key_routes(n_routes: usize, key_routes: &[RouteId]) -> Result<Self, String> {
        let mut alloc = KeyAllocator::new(n_routes);
        for (key, &route) in key_routes.iter().enumerate() {
            let slot = alloc
                .route_to_key
                .get_mut(route as usize)
                .ok_or_else(|| format!("key {key}: route {route} outside table of {n_routes}"))?;
            if *slot != NO_KEY {
                return Err(format!(
                    "route {route} assigned to keys {} and {key}",
                    *slot
                ));
            }
            *slot = key as KeyId;
        }
        alloc.key_routes = key_routes.to_vec();
        Ok(alloc)
    }
}

/// Accounting for every packet offered to an [`Aggregator`].
///
/// The paper's methodology implicitly requires conservation: every
/// captured packet is either attributed to a prefix or counted in one of
/// the reject buckets. The robustness tests assert
/// `attributed + unroutable + out_of_window + malformed == offered`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregatorStats {
    /// Packets offered.
    pub offered: u64,
    /// Packets attributed to a prefix and binned.
    pub attributed: u64,
    /// Bytes attributed.
    pub attributed_bytes: u64,
    /// Packets whose destination matched no table entry.
    pub unroutable: u64,
    /// Packets timestamped outside the configured window.
    pub out_of_window: u64,
    /// Raw packets that failed to parse.
    pub malformed: u64,
}

impl AggregatorStats {
    /// Conservation check: all offered packets are accounted for.
    pub fn is_conserved(&self) -> bool {
        self.attributed + self.unroutable + self.out_of_window + self.malformed == self.offered
    }
}

/// Streaming aggregator: packets in, [`BandwidthMatrix`] out.
#[derive(Debug)]
pub struct Aggregator<'t> {
    /// Owned when built from a [`BgpTable`], borrowed when several
    /// aggregators share one freeze.
    table: Cow<'t, FrozenBgpTable>,
    interval_secs: u64,
    start_unix: u64,
    n_intervals: usize,
    /// `start_unix` in nanoseconds, hoisted out of [`Aggregator::observe`].
    start_ns: u64,
    /// Interval length in nanoseconds, hoisted out of [`Aggregator::observe`].
    interval_ns: u64,
    /// Per interval: bytes per key, dense, indexed by [`KeyId`]. Rows
    /// grow lazily as keys appear, so an interval that saw few prefixes
    /// stays short.
    rows: Vec<Vec<u64>>,
    /// Shared first-seen key assignment; its inverse is the `keys` of
    /// the matrix.
    keys: KeyAllocator,
    /// Reusable buffer for [`attribute_metas`] results.
    route_scratch: Vec<Option<RouteId>>,
    stats: AggregatorStats,
}

impl<'t> Aggregator<'t> {
    /// Create an aggregator for `n_intervals` intervals of
    /// `interval_secs` starting at `start_unix`.
    ///
    /// Freezes a read-optimized copy of `table`; to amortize one freeze
    /// across several aggregators use [`Aggregator::with_frozen`].
    pub fn new(table: &BgpTable, interval_secs: u64, start_unix: u64, n_intervals: usize) -> Self {
        Self::build(
            Cow::Owned(table.freeze()),
            interval_secs,
            start_unix,
            n_intervals,
        )
    }

    /// Create an aggregator borrowing an existing frozen table.
    pub fn with_frozen(
        table: &'t FrozenBgpTable,
        interval_secs: u64,
        start_unix: u64,
        n_intervals: usize,
    ) -> Self {
        Self::build(Cow::Borrowed(table), interval_secs, start_unix, n_intervals)
    }

    fn build(
        table: Cow<'t, FrozenBgpTable>,
        interval_secs: u64,
        start_unix: u64,
        n_intervals: usize,
    ) -> Self {
        let (start_ns, interval_ns) = window_bounds_ns(interval_secs, start_unix);
        let n_routes = table.len();
        Aggregator {
            table,
            interval_secs,
            start_unix,
            n_intervals,
            start_ns,
            interval_ns,
            rows: vec![Vec::new(); n_intervals],
            keys: KeyAllocator::new(n_routes),
            route_scratch: Vec::new(),
            stats: AggregatorStats::default(),
        }
    }

    /// Observe one parsed packet. The lookup runs only for in-window
    /// packets — a rejected packet costs no table access.
    #[inline]
    pub fn observe(&mut self, meta: &PacketMeta) {
        self.stats.offered += 1;
        let Some(interval) = self.interval_of(meta.ts_ns) else {
            self.stats.out_of_window += 1;
            return;
        };
        let route = self.table.attribute_id(u32::from(meta.dst));
        self.bin(meta, route, interval);
    }

    /// Observe a slice of parsed packets, batching the attribution
    /// lookups.
    ///
    /// Behaves exactly like calling [`Aggregator::observe`] on each
    /// packet in order — same statistics, same first-seen key order —
    /// but resolves destinations through the shared [`attribute_metas`]
    /// in chunks of [`ATTRIBUTION_CHUNK`], so every chunk's lookups
    /// issue before any result is consumed and their cache misses
    /// overlap instead of serialising. Out-of-window packets are
    /// attributed too — their result is simply never read, so the
    /// reject accounting is unchanged. This is the form the pcap
    /// drivers feed.
    pub fn observe_chunk(&mut self, metas: &[PacketMeta]) {
        let mut routes = std::mem::take(&mut self.route_scratch);
        attribute_metas(&*self.table, metas, &mut routes);
        for (meta, &route) in metas.iter().zip(routes.iter()) {
            // Window before routability, as in `observe`: the order
            // fixes which reject bucket a doubly-bad packet lands in.
            self.stats.offered += 1;
            match self.interval_of(meta.ts_ns) {
                Some(interval) => self.bin(meta, route, interval),
                None => self.stats.out_of_window += 1,
            }
        }
        self.route_scratch = routes;
    }

    /// The interval containing `ts_ns`, if inside the configured window.
    #[inline]
    fn interval_of(&self, ts_ns: u64) -> Option<usize> {
        if ts_ns < self.start_ns {
            return None;
        }
        let interval = (ts_ns - self.start_ns) / self.interval_ns;
        if interval < self.n_intervals as u64 {
            Some(interval as usize)
        } else {
            None
        }
    }

    /// Bin one in-window packet under its route (or count it
    /// unroutable): the shared tail of both observe paths.
    #[inline]
    fn bin(&mut self, meta: &PacketMeta, route: Option<RouteId>, interval: usize) {
        let Some(route) = route else {
            self.stats.unroutable += 1;
            return;
        };
        let (key, _) = self.keys.key_for(route);
        let row = &mut self.rows[interval];
        if key as usize >= row.len() {
            row.resize(key as usize + 1, 0);
        }
        row[key as usize] += u64::from(meta.wire_len);
        self.stats.attributed += 1;
        self.stats.attributed_bytes += u64::from(meta.wire_len);
    }

    /// Current statistics.
    pub fn stats(&self) -> AggregatorStats {
        self.stats
    }

    /// Convert accumulated bytes to average bandwidths and produce the
    /// matrix.
    pub fn finish(self) -> (BandwidthMatrix, AggregatorStats) {
        let keys: Vec<Prefix> = self
            .keys
            .key_routes()
            .iter()
            .map(|&r| self.table.prefix(r))
            .collect();
        let matrix = matrix_from_rows(self.interval_secs, self.start_unix, keys, &self.rows);
        (matrix, self.stats)
    }
}

/// Dense byte rows → sparse bandwidth matrix. Entries that accumulated
/// zero bytes are omitted, exactly like a key that never appeared in
/// the interval.
fn matrix_from_rows(
    interval_secs: u64,
    start_unix: u64,
    keys: Vec<Prefix>,
    rows: &[Vec<u64>],
) -> BandwidthMatrix {
    let secs = interval_secs as f64;
    let mut out = ColumnBuilder::with_capacity(rows.len(), 0);
    for row in rows {
        for (key, &bytes) in row.iter().enumerate() {
            if bytes > 0 {
                out.push(key as KeyId, (bytes as f64 * 8.0 / secs) as f32);
            }
        }
        out.close();
    }
    out.finish(interval_secs, start_unix, keys)
}

/// Aggregate a whole pcap stream. Records that fail structural pcap
/// parsing abort with the error (a damaged file is not a measurement);
/// packets inside records that fail *packet* parsing are counted as
/// malformed and skipped.
pub fn aggregate_pcap<R: Read>(
    input: R,
    table: &BgpTable,
    interval_secs: u64,
    start_unix: u64,
    n_intervals: usize,
) -> eleph_packet::Result<(BandwidthMatrix, AggregatorStats)> {
    aggregate_pcap_with(
        input,
        Aggregator::new(table, interval_secs, start_unix, n_intervals),
    )
}

/// [`aggregate_pcap`] against an already-frozen table — the
/// steady-state form when one RIB serves many captures.
pub fn aggregate_pcap_frozen<R: Read>(
    input: R,
    frozen: &FrozenBgpTable,
    interval_secs: u64,
    start_unix: u64,
    n_intervals: usize,
) -> eleph_packet::Result<(BandwidthMatrix, AggregatorStats)> {
    aggregate_pcap_with(
        input,
        Aggregator::with_frozen(frozen, interval_secs, start_unix, n_intervals),
    )
}

/// The shared pcap drive loop behind both serial entry points.
fn aggregate_pcap_with<R: Read>(
    input: R,
    mut agg: Aggregator<'_>,
) -> eleph_packet::Result<(BandwidthMatrix, AggregatorStats)> {
    let mut reader = PcapReader::new(input)?;
    let link = LinkType::from_code(reader.header().linktype)?;
    // Decode into meta chunks and batch-attribute them; a malformed
    // record is rejected on the spot.
    let mut chunk: Vec<PacketMeta> = Vec::with_capacity(ATTRIBUTION_CHUNK);
    while let Some((head, bytes)) = reader.next_record_ref()? {
        match parse_buf_meta(link, bytes, &head) {
            Ok(meta) => {
                chunk.push(meta);
                if chunk.len() == ATTRIBUTION_CHUNK {
                    agg.observe_chunk(&chunk);
                    chunk.clear();
                }
            }
            Err(_) => {
                agg.stats.offered += 1;
                agg.stats.malformed += 1;
            }
        }
    }
    agg.observe_chunk(&chunk);
    Ok(agg.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleph_bgp::{Origin, PeerClass, RouteEntry};
    use eleph_packet::{IpProtocol, PacketBuilder};
    use std::net::Ipv4Addr;

    fn table() -> BgpTable {
        BgpTable::from_entries(vec![
            RouteEntry {
                prefix: "10.0.0.0/8".parse().unwrap(),
                next_hop: Ipv4Addr::new(192, 0, 2, 1),
                as_path: vec![1],
                origin: Origin::Igp,
                peer_class: PeerClass::Tier1,
            },
            RouteEntry {
                prefix: "10.1.0.0/16".parse().unwrap(),
                next_hop: Ipv4Addr::new(192, 0, 2, 2),
                as_path: vec![2],
                origin: Origin::Igp,
                peer_class: PeerClass::Tier2,
            },
        ])
    }

    fn meta(dst: [u8; 4], ts_s: u64, len: u32) -> PacketMeta {
        PacketMeta {
            ts_ns: ts_s * 1_000_000_000,
            src: Ipv4Addr::new(198, 18, 0, 1),
            dst: Ipv4Addr::from(dst),
            proto: IpProtocol::Tcp,
            src_port: 1,
            dst_port: 2,
            wire_len: len,
        }
    }

    #[test]
    fn bins_by_interval_and_prefix() {
        let t = table();
        let mut agg = Aggregator::new(&t, 10, 1000, 3);
        agg.observe(&meta([10, 2, 0, 1], 1000, 1000)); // /8, interval 0
        agg.observe(&meta([10, 2, 0, 1], 1009, 500)); // /8, interval 0
        agg.observe(&meta([10, 1, 0, 1], 1010, 300)); // /16, interval 1
        agg.observe(&meta([10, 2, 0, 1], 1029, 200)); // /8, interval 2

        let (m, stats) = agg.finish();
        assert_eq!(stats.attributed, 4);
        assert!(stats.is_conserved());

        let p8 = m.key_id("10.0.0.0/8".parse().unwrap()).unwrap();
        let p16 = m.key_id("10.1.0.0/16".parse().unwrap()).unwrap();
        // 1500 bytes over 10 s = 1200 b/s.
        assert_eq!(m.rate(0, p8), 1200.0);
        assert_eq!(m.rate(0, p16), 0.0);
        assert_eq!(m.rate(1, p16), 240.0);
        assert_eq!(m.rate(2, p8), 160.0);
    }

    #[test]
    fn keys_are_first_seen_order() {
        let t = table();
        let mut agg = Aggregator::new(&t, 10, 0, 1);
        agg.observe(&meta([10, 1, 0, 1], 0, 100)); // /16 first
        agg.observe(&meta([10, 2, 0, 1], 1, 100)); // /8 second
        let (m, _) = agg.finish();
        assert_eq!(m.key(0), "10.1.0.0/16".parse().unwrap());
        assert_eq!(m.key(1), "10.0.0.0/8".parse().unwrap());
    }

    #[test]
    fn shared_frozen_table_aggregation() {
        let t = table();
        let frozen = t.freeze();
        let mut a = Aggregator::with_frozen(&frozen, 10, 0, 1);
        let mut b = Aggregator::with_frozen(&frozen, 10, 0, 1);
        a.observe(&meta([10, 2, 0, 1], 5, 100));
        b.observe(&meta([10, 2, 0, 1], 5, 100));
        let (ma, _) = a.finish();
        let (mb, _) = b.finish();
        let key = ma.key_id("10.0.0.0/8".parse().unwrap()).unwrap();
        assert_eq!(ma.rate(0, key), mb.rate(0, key));
    }

    #[test]
    fn interval_boundaries_are_half_open() {
        let t = table();
        let mut agg = Aggregator::new(&t, 10, 1000, 2);
        // Exactly at the boundary: belongs to the second interval.
        agg.observe(&meta([10, 0, 0, 1], 1010, 100));
        let (m, _) = agg.finish();
        let p8 = m.key_id("10.0.0.0/8".parse().unwrap()).unwrap();
        assert_eq!(m.rate(0, p8), 0.0);
        assert_eq!(m.rate(1, p8), 80.0);
    }

    #[test]
    fn rejects_are_counted_not_dropped() {
        let t = table();
        let mut agg = Aggregator::new(&t, 10, 1000, 2);
        agg.observe(&meta([11, 0, 0, 1], 1005, 100)); // unroutable
        agg.observe(&meta([10, 0, 0, 1], 999, 100)); // before window
        agg.observe(&meta([10, 0, 0, 1], 1020, 100)); // after window
        agg.observe(&meta([10, 0, 0, 1], 1005, 100)); // good

        let stats = agg.stats();
        assert_eq!(stats.offered, 4);
        assert_eq!(stats.unroutable, 1);
        assert_eq!(stats.out_of_window, 2);
        assert_eq!(stats.attributed, 1);
        assert!(stats.is_conserved());
    }

    #[test]
    fn pcap_path_counts_malformed_records() {
        use eleph_packet::pcap::PcapWriter;
        let t = table();
        let good = PacketBuilder::tcp()
            .src(Ipv4Addr::new(198, 18, 0, 1), 1)
            .dst(Ipv4Addr::new(10, 0, 0, 2), 80)
            .payload_len(100)
            .build_ipv4();

        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, LinkType::RawIp.code()).unwrap();
        w.write_record(1_000_000_000, good.len() as u32, &good)
            .unwrap();
        w.write_record(2_000_000_000, 4, &[0xDE, 0xAD, 0xBE, 0xEF])
            .unwrap();
        w.finish().unwrap();

        let (m, stats) = aggregate_pcap(&buf[..], &t, 10, 0, 1).unwrap();
        assert_eq!(stats.offered, 2);
        assert_eq!(stats.attributed, 1);
        assert_eq!(stats.malformed, 1);
        assert!(stats.is_conserved());
        assert_eq!(m.n_keys(), 1);
    }

    #[test]
    fn empty_aggregation_is_empty_matrix() {
        let t = table();
        let agg = Aggregator::new(&t, 10, 0, 4);
        let (m, stats) = agg.finish();
        assert_eq!(stats.offered, 0);
        assert_eq!(m.n_keys(), 0);
        assert_eq!(m.n_intervals(), 4);
        for n in 0..4 {
            assert_eq!(m.active(n), 0);
            assert_eq!(m.total(n), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        let t = table();
        let _ = Aggregator::new(&t, 0, 0, 1);
    }

    #[test]
    #[should_panic(expected = "start_unix too large")]
    fn overflowing_start_rejected() {
        // Regression: `start_unix * 1_000_000_000` used to wrap silently
        // in release builds, mis-binning every packet.
        let t = table();
        let _ = Aggregator::new(&t, 10, u64::MAX / 1_000_000_000 + 1, 1);
    }

    #[test]
    #[should_panic(expected = "interval_secs too large")]
    fn overflowing_interval_rejected() {
        let t = table();
        let _ = Aggregator::new(&t, u64::MAX / 1_000_000_000 + 1, 0, 1);
    }

    #[test]
    fn largest_valid_start_accepted() {
        let t = table();
        let start = u64::MAX / 1_000_000_000; // largest second count whose ns fit u64
        let mut agg = Aggregator::new(&t, 1, start, 1);
        agg.observe(&meta([10, 0, 0, 1], start, 100));
        let (_, stats) = agg.finish();
        assert_eq!(stats.attributed, 1);
    }

    #[test]
    fn chunked_observe_matches_single_observe() {
        let t = table();
        // A stream mixing both prefixes, unroutable destinations and
        // out-of-window timestamps, across chunk-size boundaries.
        let metas: Vec<PacketMeta> = (0..200u64)
            .map(|i| {
                let dst = match i % 5 {
                    0 => [10, 1, 0, (i % 256) as u8],
                    4 => [192, 0, 2, 1], // unroutable
                    _ => [10, 2, 0, (i % 256) as u8],
                };
                let ts = if i % 17 == 0 { 5000 } else { 1000 + i / 8 }; // some out-of-window
                meta(dst, ts, 40 + (i % 1000) as u32)
            })
            .collect();

        let mut single = Aggregator::new(&t, 10, 1000, 3);
        for m in &metas {
            single.observe(m);
        }
        let frozen = t.freeze();
        for chunk_size in [1usize, 3, 63, 64, 65, 200] {
            let mut chunked = Aggregator::with_frozen(&frozen, 10, 1000, 3);
            for c in metas.chunks(chunk_size) {
                chunked.observe_chunk(c);
            }
            assert_eq!(chunked.stats(), single.stats(), "chunk size {chunk_size}");
        }
        let (sm, ss) = single.finish();
        let mut chunked = Aggregator::with_frozen(&frozen, 10, 1000, 3);
        chunked.observe_chunk(&metas);
        let (cm, cs) = chunked.finish();
        assert_eq!(ss, cs);
        assert_eq!(sm.n_keys(), cm.n_keys());
        for k in 0..sm.n_keys() as KeyId {
            assert_eq!(sm.key(k), cm.key(k), "key order diverges at {k}");
        }
        for n in 0..sm.n_intervals() {
            assert_eq!(sm.interval(n), cm.interval(n), "interval {n} diverges");
        }
    }

    #[test]
    fn key_allocator_round_trips_through_key_routes() {
        let mut alloc = KeyAllocator::new(10);
        for route in [7u32, 2, 9, 2, 7, 0] {
            alloc.key_for(route);
        }
        let routes = alloc.key_routes();
        assert_eq!(routes, vec![7, 2, 9, 0]);
        let mut rebuilt = KeyAllocator::from_key_routes(10, routes).expect("valid");
        assert_eq!(rebuilt.n_keys(), 4);
        // Existing assignments are preserved; the next fresh route gets
        // the next dense id, exactly as the original would assign it.
        assert_eq!(rebuilt.key_for(9), (2, false));
        assert_eq!(rebuilt.key_for(0), (3, false));
        assert_eq!(rebuilt.key_for(5), (4, true));

        assert!(
            KeyAllocator::from_key_routes(10, &[1, 1]).is_err(),
            "duplicate route"
        );
        assert!(
            KeyAllocator::from_key_routes(3, &[4]).is_err(),
            "route out of bounds"
        );
    }
}
