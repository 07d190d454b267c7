//! The block-framed streaming reader against the in-memory cursor:
//! whatever the input's byte order, resolution, record sizes, however
//! the bytes trickle in and wherever the capture is cut,
//! [`PcapReader`] (borrowing and copying forms) and [`PcapSlice`] must
//! deliver the same records and then stop the same way — clean end, or
//! the same error (same variant, same `got`) at the same record index.

use std::io::Read;

use eleph_packet::pcap::{PcapReader, PcapSlice, RecordHeader, MAGIC_MICROS, MAGIC_NANOS};
use eleph_packet::PacketError;
use proptest::prelude::*;

/// Seconds, sub-seconds, `orig_len - caplen`, captured bytes.
type Record = (u32, u32, u32, Vec<u8>);

/// Hand-encoded capture: `PcapWriter` emits little-endian files only.
fn encode(records: &[Record], big_endian: bool, nano: bool) -> Vec<u8> {
    let u32_bytes = |v: u32| {
        if big_endian {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        }
    };
    let mut out = Vec::new();
    out.extend_from_slice(&u32_bytes(if nano { MAGIC_NANOS } else { MAGIC_MICROS }));
    out.extend_from_slice(&[0; 12]); // version, thiszone, sigfigs: unread
    out.extend_from_slice(&u32_bytes(65_535));
    out.extend_from_slice(&u32_bytes(101));
    for (secs, subsec, snapped, data) in records {
        let caplen = data.len() as u32;
        for field in [*secs, *subsec, caplen, caplen + snapped] {
            out.extend_from_slice(&u32_bytes(field));
        }
        out.extend_from_slice(data);
    }
    out
}

/// A `Read` that returns 1..=`max` bytes per call and, one call in
/// eight, `ErrorKind::Interrupted` instead.
struct Choppy<'a> {
    data: &'a [u8],
    max: usize,
    state: u64,
}

impl Read for Choppy<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        if self.state >> 61 == 0 {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let n = (1 + (self.state >> 33) as usize % self.max)
            .min(buf.len())
            .min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// The records a reader delivered, and how it stopped.
type Outcome = (Vec<(RecordHeader, Vec<u8>)>, Result<(), PacketError>);

fn drain(
    mut next: impl FnMut() -> eleph_packet::Result<Option<(RecordHeader, Vec<u8>)>>,
) -> Outcome {
    let mut records = Vec::new();
    loop {
        match next() {
            Ok(Some(record)) => records.push(record),
            Ok(None) => return (records, Ok(())),
            Err(e) => return (records, Err(e)),
        }
    }
}

/// Both streaming forms over a choppy read of `capture[..cut]` must
/// equal the slice cursor over the same bytes; returns that outcome.
fn assert_equivalent_at(capture: &[u8], cut: usize, max: usize, seed: u64) -> Outcome {
    let bytes = &capture[..cut];
    let mut slice = PcapSlice::new(bytes).unwrap();
    let expected = drain(|| Ok(slice.next_record()?.map(|(h, d)| (h, d.to_vec()))));

    let choppy = || Choppy {
        data: bytes,
        max,
        state: seed ^ cut as u64,
    };
    let mut by_ref = PcapReader::new(choppy()).unwrap();
    let got = drain(|| Ok(by_ref.next_record_ref()?.map(|(h, d)| (h, d.to_vec()))));
    assert_eq!(
        got,
        expected,
        "next_record_ref, cut at {cut} of {}",
        capture.len()
    );

    let mut by_copy = PcapReader::new(choppy()).unwrap();
    let mut data = vec![0xEE; 3]; // stale content must not leak through
    let got = drain(|| {
        Ok(by_copy
            .next_record_into(&mut data)?
            .map(|h| (h, data.clone())))
    });
    assert_eq!(
        got,
        expected,
        "next_record_into, cut at {cut} of {}",
        capture.len()
    );
    expected
}

fn arb_record() -> impl Strategy<Value = Record> {
    let data = prop_oneof![
        1 => Just(Vec::new()),
        4 => prop::collection::vec(any::<u8>(), 0..80),
    ];
    (any::<u32>(), any::<u32>(), 0u32..100, data)
}

proptest! {
    #[test]
    fn streaming_reader_equals_slice_cursor_at_every_truncation(
        records in prop::collection::vec(arb_record(), 0..12),
        big_endian in any::<bool>(),
        nano in any::<bool>(),
        max in 1usize..=40,
        seed in any::<u64>(),
    ) {
        let capture = encode(&records, big_endian, nano);
        for cut in 24..=capture.len() {
            let (got, end) = assert_equivalent_at(&capture, cut, max, seed);
            if cut == capture.len() {
                prop_assert_eq!(end, Ok(()));
                prop_assert_eq!(got.len(), records.len());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn record_larger_than_the_block_is_framed_like_any_other(
        before in prop::collection::vec(arb_record(), 0..4),
        after in prop::collection::vec(arb_record(), 0..4),
        big_endian in any::<bool>(),
        nano in any::<bool>(),
        max in prop_oneof![Just(1_000usize), Just(70_000), Just(1 << 20)],
        seed in any::<u64>(),
    ) {
        // Larger than any block size the reader may choose (≤ 256 KiB).
        let big: Vec<u8> = (0..300 * 1024u32).map(|i| (i.wrapping_mul(31) ^ seed as u32) as u8).collect();
        let big_at = encode(&before, big_endian, nano).len();
        let big_end = big_at + 16 + big.len();
        let mut records = before;
        records.push((7, 9, 0, big));
        records.extend(after);
        let capture = encode(&records, big_endian, nano);

        // Every offset outside the big body and near its two edges, and
        // a few inside it (every one would make the test quadratic).
        let inside = (1..=8u64).map(|i| {
            big_at + 16 + (seed.wrapping_mul(i) % (300 * 1024)) as usize
        });
        let cuts = (24..big_at + 16 + 20).chain(inside).chain(big_end - 20..=capture.len());
        for cut in cuts {
            let (got, end) = assert_equivalent_at(&capture, cut, max, seed);
            if cut == capture.len() {
                prop_assert_eq!(end, Ok(()));
                prop_assert_eq!(got.len(), records.len());
            }
        }
    }
}
