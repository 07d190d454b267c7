//! Routing churn applied mid-stream is a deterministic function of the
//! offered packet stream and the update schedule: the same packets,
//! offered in different chunkings, produce byte-identical JSONL. How a
//! withdrawn key retires through the latent-heat window is pinned in
//! `model.rs`.

use std::net::Ipv4Addr;

use eleph_bgp::synth::{self, SynthConfig};
use eleph_bgp::LiveBgpTable;
use eleph_core::{ConstantLoadDetector, Scheme};
use eleph_packet::{IpProtocol, PacketMeta};
use eleph_pipeline::{JsonlSink, PipelineBuilder, PipelineReport};
use eleph_tests::SharedBuf;
use eleph_trace::{generate_churn, ChurnConfig, ChurnScenario};

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

/// Full-stack determinism: a synthetic RIB, a generated churn schedule
/// (withdraw/re-announce storm + damped flap), and a packet stream
/// offered in *different chunkings* must produce byte-identical JSONL
/// and identical reports. The update replay point is a function of
/// packet timestamps, never of source chunk boundaries.
#[test]
fn churn_replay_is_deterministic_across_chunkings() {
    let table = synth::generate(&SynthConfig {
        n_prefixes: 500,
        ..SynthConfig::default()
    });
    let schedule = generate_churn(
        &table,
        &ChurnConfig {
            seed: 11,
            scenarios: vec![
                ChurnScenario::WithdrawReannounceStorm {
                    at_unix: 1020,
                    count: 40,
                    hold_secs: 15,
                },
                ChurnScenario::Flap {
                    start_unix: 1035,
                    count: 6,
                    period_secs: 10,
                    flaps: 2,
                    damped: true,
                },
            ],
        },
    );
    assert!(!schedule.is_empty());

    // Traffic to every 8th prefix, spread over 8 intervals of 10s.
    let dsts: Vec<Ipv4Addr> =
        table.iter().step_by(8).map(|e| e.prefix.network()).collect();
    let mut metas = Vec::new();
    for i in 0..8u64 {
        for (j, dst) in dsts.iter().enumerate() {
            let mut m = meta([0, 0, 0, 0], 0, 200 + (j as u32 % 7) * 100);
            m.dst = *dst;
            m.ts_ns = (1000 + 10 * i) * 1_000_000_000 + (j as u64) * 137_000_000;
            metas.push(m);
        }
    }

    let run = |chunk: usize| -> (PipelineReport, Vec<u8>) {
        let live = LiveBgpTable::from_table(&table);
        let buf = SharedBuf::default();
        let mut pipeline = PipelineBuilder::new()
            .live(&live)
            .interval_secs(10)
            .start_unix(1000)
            .n_intervals(8)
            .detector(ConstantLoadDetector::new(0.8))
            .gamma(0.9)
            .scheme(Scheme::LatentHeat { window: 2 })
            .route_updates(schedule.clone())
            .sink(JsonlSink::new(buf.clone()))
            .build();
        for piece in metas.chunks(chunk) {
            pipeline.observe_chunk(piece).expect("observe");
        }
        let report = pipeline.finish().expect("finish");
        (report, buf.take())
    };

    let (report_a, jsonl_a) = run(metas.len()); // one giant chunk
    let (report_b, jsonl_b) = run(3); // tiny chunks crossing update times
    assert!(!jsonl_a.is_empty());
    assert_eq!(jsonl_a, jsonl_b, "JSONL must be byte-identical across chunkings");
    assert_eq!(report_a.keys, report_b.keys);
    assert_eq!(report_a.stats, report_b.stats);
    assert_eq!(report_a.generation, report_b.generation);
    assert_eq!(report_a.route_updates_applied, report_b.route_updates_applied);
    // Every batch due at or before the last offered packet was applied.
    let last_ts = metas.last().unwrap().ts_ns;
    let due = schedule
        .iter()
        .filter(|b| b.at_unix * 1_000_000_000 <= last_ts)
        .count() as u64;
    assert_eq!(report_a.route_updates_applied, due);
}
