//! Synthetic backbone traffic — the workload substrate.
//!
//! The paper measures two Sprint OC-12 links for ~28 hours. Those traces
//! are proprietary, so this crate generates a calibrated synthetic
//! equivalent. The classification schemes consume only the per-prefix,
//! per-interval bandwidth series `B_i(n)`; the generator therefore
//! controls exactly the properties those schemes are sensitive to:
//!
//! 1. **Heavy-tailed flow bandwidth** — a small population of "heavy"
//!    flows with Pareto base rates over a log-normal body of mice, so the
//!    per-interval snapshot has the power-law tail the aest detector
//!    expects (and a few flows carry most bytes);
//! 2. **Diurnal shape** — per-link time-of-day modulation
//!    ([`DiurnalProfile`]): the west-coast link shows a pronounced
//!    working-hours burst, the east-coast link a smooth profile
//!    (drives Figure 1(a));
//! 3. **Mice burstiness** — low-rate flows occasionally burst far beyond
//!    their base rate for a single interval (drives the >1000
//!    single-interval elephants of single-feature classification);
//! 4. **Persistence of heavy flows** — long on-periods for heavy flows,
//!    flickering activity for mice (drives the latent-heat holding times).
//!
//! Two fidelities share one model:
//!
//! * [`RateTrace::generate`] — the full-length rate-level trace used by
//!   the figure experiments (fast: no packets), read an interval at a
//!   time: [`RateTrace::interval`]'s `(flow, rate)` row and
//!   [`RateTrace::total`];
//! * [`PacketSynth`] — packet-level synthesis of any interval window,
//!   emitting [`eleph_packet::PacketMeta`]-compatible packets (and pcap
//!   files) whose aggregation reproduces the rate-level trace. An
//!   integration test pins that equivalence.
//!
//! A [`FaultInjector`] mutates raw packet streams (drop / corrupt /
//! truncate) for robustness testing, in the spirit of smoltcp's fault
//! injection options, and [`generate_churn`] produces deterministic
//! route announce/withdraw storms and flap-damping scenarios for
//! stressing mid-stream re-attribution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod diurnal;
mod fault;
mod flows;
mod packets;
mod rate;

pub use config::{LinkSpec, WorkloadConfig};
pub use diurnal::{DiurnalProfile, GaussianPeak};
pub use fault::{
    generate_churn, ChurnConfig, ChurnScenario, CrashPoint, CrashSwitch, FaultAction, FaultConfig,
    FaultInjector, FaultStats,
};
pub use flows::{FlowId, FlowKind, FlowMeta, FlowPopulation};
pub use packets::{PacketMix, PacketSynth};
pub use rate::RateTrace;

/// SplitMix64 — used to derive independent per-flow RNG streams from the
/// master seed, so that any flow's series is stable no matter how many
/// other flows exist.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::mix64;

    #[test]
    fn mix64_spreads_small_inputs() {
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a, b);
        // Hamming distance should be substantial for adjacent inputs.
        let d = (a ^ b).count_ones();
        assert!(d > 16, "weak diffusion: {d} differing bits");
    }

    #[test]
    fn mix64_is_deterministic() {
        assert_eq!(mix64(42), mix64(42));
    }
}
