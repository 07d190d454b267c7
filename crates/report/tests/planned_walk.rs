//! A session's walk answers what a matrix does. For random sets of jobs
//! — both detectors, β, γ, single feature, latent heat at any window
//! from 1 to 30, hysteresis, at the link's own T or re-measured — every
//! result a session steps on its one walk of a link equals, every column
//! by bits, the classification of the same link built as a matrix
//! (`BandwidthMatrix::from_workload`): batch `classify` at the link's
//! own T, and `classify_stream` over the matrix's `refine_each` /
//! `coarsen_each` rows when re-measured. A job asked after the walk is
//! answered by a second walk of the link, and equals it too.

use eleph_core::{classify_stream, ClassificationResult, Scheme};
use eleph_flow::BandwidthMatrix;
use eleph_report::{run, DetectorKind, Job, Lab, MatrixId, Measure, SchemeSpec};
use proptest::prelude::*;

/// Every field of a result, floats by their bits.
fn result_bits(r: &ClassificationResult) -> impl PartialEq + std::fmt::Debug + '_ {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let raw: Vec<Option<u64>> = r
        .raw_thresholds
        .iter()
        .map(|t| t.map(f64::to_bits))
        .collect();
    (
        (&r.detector, r.scheme, &r.elephants),
        (
            raw,
            bits(&r.thresholds),
            bits(&r.elephant_load),
            bits(&r.total_load),
        ),
    )
}

fn arb_spec() -> impl Strategy<Value = SchemeSpec> {
    // A few common values beside the ranges, so one walk often shares a
    // detection pass, or a latent-heat window, between jobs.
    let beta = prop_oneof![1 => Just(0.8), 1 => 0.3..0.95f64];
    let gamma = prop_oneof![1 => Just(0.9), 1 => 0.0..0.99f64];
    let window = prop_oneof![1 => Just(12usize), 2 => 1usize..=30];
    let scheme =
        (0u8..4, window, 1.0..1.8f64, 0.2..1.0f64).prop_map(|(which, window, enter, exit)| {
            match which {
                0 => Scheme::SingleFeature,
                1 => Scheme::Hysteresis { enter, exit },
                _ => Scheme::LatentHeat { window },
            }
        });
    (any::<bool>(), beta, gamma, scheme).prop_map(|(aest, beta, gamma, scheme)| SchemeSpec {
        detector: if aest {
            DetectorKind::Aest
        } else {
            DetectorKind::ConstantLoad
        },
        beta,
        gamma,
        scheme,
    })
}

fn arb_job() -> impl Strategy<Value = Job> {
    // Every factor 1..=6 divides the links' 300 s. Most jobs fall on the
    // west link at its own T, so configurations share its walk.
    let measure = (0u8..6, 1usize..=6).prop_map(|(which, factor)| match which {
        0 => Measure::Refined(factor),
        1 => Measure::Coarsened(factor),
        _ => Measure::Native,
    });
    (0u8..4, measure, arb_spec()).prop_map(|(link, measure, spec)| Job {
        link: if link == 0 {
            MatrixId::East
        } else {
            MatrixId::West
        },
        measure,
        spec,
    })
}

/// `job` over its link's matrix, without a session.
fn on_the_matrix(job: &Job, matrices: &[BandwidthMatrix; 2], seed: u64) -> ClassificationResult {
    let m = &matrices[job.link as usize];
    let spec = job.spec;
    match job.measure {
        Measure::Native => run(m, spec),
        Measure::Refined(factor) => {
            classify_stream(spec.detector(), spec.gamma, spec.scheme, |row| {
                m.refine_each(factor, seed, row)
            })
        }
        Measure::Coarsened(factor) => {
            classify_stream(spec.detector(), spec.gamma, spec.scheme, |row| {
                m.coarsen_each(factor, row)
            })
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn planned_walk_equals_classify_over_the_matrix(
        // The aest detector finds a tail to detect at 0.05.
        scale in prop_oneof![3 => 0.005..0.02f64, 1 => Just(0.05)],
        seed in 0u64..1_000,
        jobs in prop::collection::vec(arb_job(), 1..10),
        later in arb_job(),
    ) {
        let lab = Lab::new(scale, seed);
        let matrices = [MatrixId::West, MatrixId::East]
            .map(|id| lab.scenario(id).build().matrix);

        let results = lab.results(&jobs);
        let walked = lab.counters().walks;
        let links = [MatrixId::West, MatrixId::East]
            .iter()
            .filter(|&&id| jobs.iter().any(|job| job.link == id))
            .count();
        prop_assert_eq!(walked, links, "one walk per link asked");
        for (job, result) in jobs.iter().zip(&results) {
            let want = on_the_matrix(job, &matrices, seed);
            prop_assert_eq!(result_bits(result), result_bits(&want), "{:?}", job);
        }

        // Asked after the walk, of a link already walked: a new result
        // takes one more walk of it, a known one none.
        let later = Job { link: jobs[0].link, ..later };
        let computed = lab.counters().results_computed;
        let [after]: [_; 1] = lab.results(&[later]).try_into().expect("one job");
        let counters = lab.counters();
        prop_assert_eq!(counters.walks - walked, counters.results_computed - computed);
        let want = on_the_matrix(&later, &matrices, seed);
        prop_assert_eq!(result_bits(&after), result_bits(&want), "{:?} later", later);
    }
}
