//! Property tests: build → parse is the identity, checksums always verify
//! on well-formed packets and fail under corruption, and pcap round-trips
//! are lossless.

use std::net::Ipv4Addr;

use eleph_packet::pcap::{PcapReader, PcapWriter, TsResolution};
use eleph_packet::{parse_meta, IpProtocol, LinkType, PacketBuilder, TcpFlags};
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

proptest! {
    #[test]
    fn udp_build_parse_round_trip(
        src in arb_addr(), dst in arb_addr(),
        sport in any::<u16>(), dport in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let bytes = PacketBuilder::udp()
            .src(src, sport)
            .dst(dst, dport)
            .payload(&payload)
            .build_ethernet();
        let meta = parse_meta(LinkType::Ethernet, &bytes, 7).unwrap();
        prop_assert_eq!(meta.src, src);
        prop_assert_eq!(meta.dst, dst);
        prop_assert_eq!(meta.src_port, sport);
        prop_assert_eq!(meta.dst_port, dport);
        prop_assert_eq!(meta.proto, IpProtocol::Udp);
        prop_assert_eq!(meta.wire_len as usize, bytes.len());
    }

    #[test]
    fn tcp_build_parse_round_trip(
        src in arb_addr(), dst in arb_addr(),
        sport in any::<u16>(), dport in any::<u16>(),
        flags in 0u8..=0x3f,
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let bytes = PacketBuilder::tcp()
            .src(src, sport)
            .dst(dst, dport)
            .tcp_flags(TcpFlags(flags))
            .payload(&payload)
            .build_ipv4();
        let meta = parse_meta(LinkType::RawIp, &bytes, 0).unwrap();
        prop_assert_eq!(meta.src, src);
        prop_assert_eq!(meta.dst, dst);
        prop_assert_eq!(meta.src_port, sport);
        prop_assert_eq!(meta.dst_port, dport);
        prop_assert_eq!(meta.proto, IpProtocol::Tcp);
    }

    #[test]
    fn built_ipv4_checksums_always_verify(
        src in arb_addr(), dst in arb_addr(),
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let bytes = PacketBuilder::udp().src(src, 1).dst(dst, 2).payload(&payload).build_ipv4();
        let ip = eleph_packet::Ipv4Packet::parse(&bytes).unwrap();
        prop_assert!(ip.verify_checksum());
        let udp = eleph_packet::UdpDatagram::parse(ip.payload()).unwrap();
        prop_assert!(udp.verify_checksum(src, dst));
    }

    #[test]
    fn single_byte_corruption_never_panics(
        src in arb_addr(), dst in arb_addr(),
        payload in prop::collection::vec(any::<u8>(), 0..128),
        corrupt_at in any::<prop::sample::Index>(),
        corrupt_with in 1u8..,
    ) {
        let mut bytes = PacketBuilder::udp().src(src, 9).dst(dst, 10).payload(&payload).build_ethernet();
        let idx = corrupt_at.index(bytes.len());
        bytes[idx] ^= corrupt_with;
        // Must cleanly parse or cleanly fail — never panic.
        let _ = parse_meta(LinkType::Ethernet, &bytes, 0);
    }

    #[test]
    fn truncation_never_panics(
        src in arb_addr(), dst in arb_addr(),
        payload in prop::collection::vec(any::<u8>(), 0..128),
        keep in any::<prop::sample::Index>(),
    ) {
        let bytes = PacketBuilder::tcp().src(src, 9).dst(dst, 10).payload(&payload).build_ethernet();
        let keep = keep.index(bytes.len() + 1);
        let _ = parse_meta(LinkType::Ethernet, &bytes[..keep], 0);
    }

    #[test]
    fn ipv4_header_corruption_detected_by_checksum(
        src in arb_addr(), dst in arb_addr(),
        byte in 0usize..20,
        bit in 0u8..8,
    ) {
        let mut bytes = PacketBuilder::udp().src(src, 1).dst(dst, 2).payload_len(32).build_ipv4();
        bytes[byte] ^= 1 << bit;
        match eleph_packet::Ipv4Packet::parse(&bytes) {
            // If it still parses structurally, the checksum must notice.
            Ok(ip) => prop_assert!(!ip.verify_checksum()),
            Err(_) => {} // structural rejection is fine too
        }
    }

    #[test]
    fn pcap_round_trip_preserves_everything(
        records in prop::collection::vec(
            (any::<u64>(), prop::collection::vec(any::<u8>(), 0..256)),
            0..32,
        ),
        nano in any::<bool>(),
    ) {
        let resolution = if nano { TsResolution::Nano } else { TsResolution::Micro };
        let mut buf = Vec::new();
        let mut w = PcapWriter::with_options(&mut buf, 1, resolution, 65535).unwrap();
        for (ts, data) in &records {
            // Keep timestamps in a range that cannot overflow the u32
            // seconds field of the classic format.
            let ts = ts % (u64::from(u32::MAX) * 1_000_000_000);
            w.write_record(ts, data.len() as u32, data).unwrap();
        }
        w.finish().unwrap();

        let mut r = PcapReader::new(&buf[..]).unwrap();
        let mut got = 0;
        while let Some((head, bytes)) = r.next_record_ref().unwrap() {
            let (ts, data) = &records[got];
            let ts = ts % (u64::from(u32::MAX) * 1_000_000_000);
            let expect_ts = match resolution {
                TsResolution::Nano => ts,
                TsResolution::Micro => (ts / 1_000) * 1_000,
            };
            prop_assert_eq!(head.ts_ns, expect_ts);
            prop_assert_eq!(bytes, &data[..]);
            prop_assert_eq!(head.orig_len as usize, data.len());
            got += 1;
        }
        prop_assert_eq!(got, records.len());
    }
}
