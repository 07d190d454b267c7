//! The experiment session: every figure, table and ablation asks the
//! same small method variations of one question about the same two
//! links, so a [`Lab`] answers each variation once.
//!
//! It owns what is expensive — the built links, table and matrix each —
//! and memoises at two levels: the raw per-interval thresholds of each
//! (matrix, detector, β), which is where classification time goes, and
//! the finished result of each (matrix, detector, β, γ, scheme). An
//! experiment names a link's matrix by [`MatrixId`] and gets its
//! classifications from [`Lab::classify`]; whether another experiment
//! already paid for them is not its concern. A link's traffic
//! re-measured at another T is not a matrix the session holds: table 4
//! streams it through [`crate::SchemeSpec::classify_stream`], outside
//! the memo.

use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;

use eleph_core::{classify_with, ClassificationResult, ClassifyConfig, RawThresholds, Scheme};
use eleph_flow::BandwidthMatrix;

use crate::{DetectorKind, Scenario, ScenarioData, SchemeSpec};

/// The matrices a session can classify: one per link, at its native T.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MatrixId {
    /// The west-coast link.
    West,
    /// The east-coast link.
    East,
}

/// What a session has done so far. Sharing is a property of these
/// counts, not of a timing: requests beyond `results_computed` were
/// answered from the memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabCounters {
    /// Links generated (table + matrix).
    pub scenario_builds: usize,
    /// Detector passes over a whole matrix.
    pub detection_passes: usize,
    /// Classifications experiments asked for.
    pub results_requested: usize,
    /// Classifications actually stepped: one per distinct (matrix,
    /// detector, β, γ, scheme).
    pub results_computed: usize,
}

/// One detection pass: a matrix, a detector and its β (as bits; 0 for
/// aest, which has none).
type PassKey = (MatrixId, DetectorKind, u64);
/// One classification: a pass plus γ and the scheme, as bits.
type ResultKey = (PassKey, [u64; 4]);

fn result_key(id: MatrixId, spec: SchemeSpec) -> ResultKey {
    let beta = match spec.detector {
        DetectorKind::Aest => 0,
        DetectorKind::ConstantLoad => spec.beta.to_bits(),
    };
    let [tag, a, b] = match spec.scheme {
        Scheme::SingleFeature => [0, 0, 0],
        Scheme::LatentHeat { window } => [1, window as u64, 0],
        Scheme::Hysteresis { enter, exit } => [2, enter.to_bits(), exit.to_bits()],
    };
    ((id, spec.detector, beta), [spec.gamma.to_bits(), tag, a, b])
}

fn built(scenario: Scenario) -> (Scenario, ScenarioData) {
    let data = scenario.build();
    (scenario, data)
}

#[derive(Default)]
struct Memo {
    raw: BTreeMap<PassKey, Arc<RawThresholds>>,
    results: BTreeMap<ResultKey, Arc<ClassificationResult>>,
    counters: LabCounters,
}

/// The configurations one call still has to step over one pass.
struct Group<'a> {
    pass: PassKey,
    matrix: &'a BandwidthMatrix,
    spec: SchemeSpec,
    raw: Option<Arc<RawThresholds>>,
    keys: Vec<ResultKey>,
    configs: Vec<ClassifyConfig>,
}

/// An experiment session at one (scale, seed). It belongs to one thread
/// (the memo is a `RefCell`); the parallelism is inside
/// [`Lab::classify`].
pub struct Lab {
    seed: u64,
    scale: f64,
    /// West-coast scenario + built data; every experiment reads it.
    pub west: (Scenario, ScenarioData),
    east: OnceCell<(Scenario, ScenarioData)>,
    memo: RefCell<Memo>,
}

impl Lab {
    /// Open a session: builds the west link; the east link is built when
    /// first asked for.
    pub fn new(scale: f64, seed: u64) -> Self {
        Lab {
            seed,
            scale,
            west: built(Scenario::west(seed).scaled(scale)),
            east: OnceCell::new(),
            memo: RefCell::default(),
        }
    }

    /// East-coast scenario + built data.
    pub fn east(&self) -> &(Scenario, ScenarioData) {
        self.east
            .get_or_init(|| built(Scenario::east(self.seed).scaled(self.scale)))
    }

    /// The session's seed: both links' workloads and table 4's
    /// re-measurement jitter derive from it.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The matrix behind an id.
    pub fn matrix(&self, id: MatrixId) -> &BandwidthMatrix {
        match id {
            MatrixId::West => &self.west.1.matrix,
            MatrixId::East => &self.east().1.matrix,
        }
    }

    /// Classify each (matrix, configuration), in order. Only what no
    /// earlier call computed is computed: one detection pass per
    /// (matrix, detector, β) the session has not seen, then one stepping
    /// pass per group over its stored thresholds; independent groups
    /// run on scoped threads.
    pub fn classify(&self, jobs: &[(MatrixId, SchemeSpec)]) -> Vec<Arc<ClassificationResult>> {
        let keys: Vec<ResultKey> = jobs
            .iter()
            .map(|&(id, spec)| result_key(id, spec))
            .collect();
        let mut groups: Vec<Group<'_>> = Vec::new();
        {
            let memo = self.memo.borrow();
            for (&key, &(id, spec)) in keys.iter().zip(jobs) {
                if memo.results.contains_key(&key) {
                    continue;
                }
                let at = groups
                    .iter()
                    .position(|g| g.pass == key.0)
                    .unwrap_or_else(|| {
                        groups.push(Group {
                            pass: key.0,
                            matrix: self.matrix(id),
                            spec,
                            raw: memo.raw.get(&key.0).cloned(),
                            keys: Vec::new(),
                            configs: Vec::new(),
                        });
                        groups.len() - 1
                    });
                if !groups[at].keys.contains(&key) {
                    groups[at].keys.push(key);
                    groups[at].configs.push(spec.config());
                }
            }
        }

        let done: Vec<(Arc<RawThresholds>, Vec<ClassificationResult>)> = std::thread::scope(|s| {
            let handles: Vec<_> = groups
                .iter()
                .map(|g| {
                    s.spawn(move || {
                        let raw = match &g.raw {
                            Some(raw) => Arc::clone(raw),
                            None => Arc::new(g.spec.detect(g.matrix)),
                        };
                        let results = classify_with(g.matrix, &raw, &g.configs);
                        (raw, results)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("classification does not panic"))
                .collect()
        });

        let mut memo = self.memo.borrow_mut();
        memo.counters.results_requested += jobs.len();
        for (group, (raw, results)) in groups.into_iter().zip(done) {
            if group.raw.is_none() {
                memo.counters.detection_passes += 1;
                memo.raw.insert(group.pass, raw);
            }
            memo.counters.results_computed += results.len();
            for (key, result) in group.keys.into_iter().zip(results) {
                memo.results.insert(key, Arc::new(result));
            }
        }
        keys.iter()
            .map(|key| Arc::clone(&memo.results[key]))
            .collect()
    }

    /// [`Lab::classify`] for a sweep over one matrix.
    pub fn classify_on<const N: usize>(
        &self,
        id: MatrixId,
        specs: [SchemeSpec; N],
    ) -> [Arc<ClassificationResult>; N] {
        self.classify(&specs.map(|spec| (id, spec)))
            .try_into()
            .expect("as many results as jobs")
    }

    /// The four Figure 1 classifications (2 links × 2 detectors, latent
    /// heat): [west-CL, west-aest, east-CL, east-aest].
    pub fn fig1_runs(&self) -> [Arc<ClassificationResult>; 4] {
        self.classify(&[
            (
                MatrixId::West,
                SchemeSpec::paper(DetectorKind::ConstantLoad),
            ),
            (MatrixId::West, SchemeSpec::paper(DetectorKind::Aest)),
            (
                MatrixId::East,
                SchemeSpec::paper(DetectorKind::ConstantLoad),
            ),
            (MatrixId::East, SchemeSpec::paper(DetectorKind::Aest)),
        ])
        .try_into()
        .expect("four jobs, four results")
    }

    /// What the session has done so far.
    pub fn counters(&self) -> LabCounters {
        LabCounters {
            scenario_builds: 1 + usize::from(self.east.get().is_some()),
            ..self.memo.borrow().counters
        }
    }
}
