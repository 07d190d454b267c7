//! The experiment session: every figure, table and ablation asks the
//! same small method variations of one question about the same two
//! links, so a [`Lab`] answers each variation once, and generates each
//! link once for all of them.
//!
//! A link is never held whole. Its rows are generated interval by
//! interval ([`RateTrace::walk`]), and everything the session was asked
//! about the link steps on each row as it is generated: one
//! [`Sweep`] per measurement of the link — at its own T, or re-measured
//! at a finer or coarser T by a [`Refine`] or [`Coarsen`] row adapter —
//! with one detection pass per (detector, β) and every configuration
//! over it; the per-interval totals, for the busy window; the keys ever
//! active, for the prefix analysis. Afterwards the link keeps only its
//! table, its keys, its totals and the finished results.
//!
//! An experiment declares its [`Need`]s; [`Lab::prepare`] walks each
//! link once for everything not yet answered, which is how `eleph all`
//! generates each link exactly once ([`LabCounters::walks`]). What is
//! asked only later — by an experiment called on its own — is answered
//! by another walk of the link, which generates the same rows: the
//! generator is deterministic in the session's seed. Whether another
//! experiment already paid for a result is not an experiment's concern.

use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use eleph_bgp::BgpTable;
use eleph_core::{ClassificationResult, ClassifyConfig, KeyBitset, Scheme, Sweep};
use eleph_flow::{Coarsen, KeyId, Refine};
use eleph_net::Prefix;
use eleph_trace::{FlowPopulation, RateTrace};

use crate::{DetectorKind, Scenario, SchemeSpec};

/// The session's two links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MatrixId {
    /// The west-coast link.
    West,
    /// The east-coast link.
    East,
}

impl MatrixId {
    const ALL: [MatrixId; 2] = [MatrixId::West, MatrixId::East];
}

/// How a link's traffic is measured for a classification: at its own
/// interval T, or the same traffic re-measured at another T as it is
/// walked (the paper's interval-sensitivity protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Measure {
    /// At the link's own T.
    Native,
    /// At T / factor: [`Refine`], jittered under the session's seed.
    Refined(usize),
    /// At factor · T: [`Coarsen`].
    Coarsened(usize),
}

/// One classification a session can be asked for.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// The link classified.
    pub link: MatrixId,
    /// How its traffic is measured.
    pub measure: Measure,
    /// The configuration.
    pub spec: SchemeSpec,
}

impl Job {
    /// A classification of `link` at its own T.
    pub(crate) fn native(link: MatrixId, spec: SchemeSpec) -> Self {
        Job {
            link,
            measure: Measure::Native,
            spec,
        }
    }
}

/// Something an experiment reads from a session, declared before any
/// link is walked.
#[derive(Debug, Clone, Copy)]
pub enum Need {
    /// A classification.
    Result(Job),
    /// The keys a link carries traffic for in some interval.
    EverActive(MatrixId),
}

/// What a session has done so far. Sharing is a property of these
/// counts, not of a timing: requests beyond `results_computed` were
/// answered from the memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabCounters {
    /// Links built: routing tables generated.
    pub scenario_builds: usize,
    /// Links generated: walks over a link's rows.
    pub walks: usize,
    /// Detector passes over a walk's rows: one per (link, measure,
    /// detector, β) computed.
    pub detection_passes: usize,
    /// Classifications experiments asked for.
    pub results_requested: usize,
    /// Classifications actually stepped: one per distinct (link,
    /// measure, detector, β, γ, scheme).
    pub results_computed: usize,
}

/// A link as the session keeps it once it has been walked.
#[derive(Debug)]
pub struct Link {
    /// The routing table its flows are drawn from.
    pub table: BgpTable,
    /// `keys[id]` is the prefix of key (= flow) `id`.
    pub keys: Vec<Prefix>,
    /// Total traffic per interval (b/s), its rates folded in key order
    /// from `+0.0` — a matrix's totals, bit for bit.
    pub totals: Vec<f64>,
}

/// One detection pass: a link, how it is measured, a detector and its
/// β (as bits; 0 for aest, which has none).
type PassKey = (MatrixId, Measure, DetectorKind, u64);
/// One classification: a pass plus γ and the scheme, as bits.
type ResultKey = (PassKey, [u64; 4]);

fn result_key(job: &Job) -> ResultKey {
    let spec = job.spec;
    let beta = match spec.detector {
        DetectorKind::Aest => 0,
        DetectorKind::ConstantLoad => spec.beta.to_bits(),
    };
    let [tag, a, b] = match spec.scheme {
        Scheme::SingleFeature => [0, 0, 0],
        Scheme::LatentHeat { window } => [1, window as u64, 0],
        Scheme::Hysteresis { enter, exit } => [2, enter.to_bits(), exit.to_bits()],
    };
    (
        (job.link, job.measure, spec.detector, beta),
        [spec.gamma.to_bits(), tag, a, b],
    )
}

#[derive(Default)]
struct Memo {
    results: BTreeMap<ResultKey, Arc<ClassificationResult>>,
    ever_active: BTreeMap<MatrixId, Arc<KeyBitset>>,
    counters: LabCounters,
}

/// How a [`Stream`] turns the link's rows into the rows it classifies.
enum Adapter {
    Native,
    Refine(Refine),
    Coarsen(Coarsen),
}

/// Every configuration asked of one measurement of a link, stepped on
/// the walk's rows.
struct Stream {
    adapter: Adapter,
    sweep: Sweep,
    /// The results the sweep finishes with, in its order.
    keys: Vec<ResultKey>,
    passes: usize,
}

impl Stream {
    /// The stream of `jobs` (all of one measurement, none twice): one
    /// pass per (detector, β), in the order first asked.
    fn new(measure: Measure, seed: u64, jobs: &[&Job]) -> Self {
        let mut passes: Vec<(PassKey, SchemeSpec, Vec<ResultKey>, Vec<ClassifyConfig>)> =
            Vec::new();
        for job in jobs {
            let key = result_key(job);
            let at = passes.iter().position(|p| p.0 == key.0).unwrap_or_else(|| {
                passes.push((key.0, job.spec, Vec::new(), Vec::new()));
                passes.len() - 1
            });
            passes[at].2.push(key);
            passes[at].3.push(job.spec.config());
        }
        let mut stream = Stream {
            adapter: match measure {
                Measure::Native => Adapter::Native,
                Measure::Refined(factor) => Adapter::Refine(Refine::new(factor, seed)),
                Measure::Coarsened(factor) => Adapter::Coarsen(Coarsen::new(factor)),
            },
            sweep: Sweep::new(),
            keys: Vec::new(),
            passes: passes.len(),
        };
        for (_, spec, keys, configs) in passes {
            stream.sweep.pass(spec.detector(), &configs);
            stream.keys.extend(keys);
        }
        stream
    }

    fn observe(&mut self, row: &[(KeyId, f32)]) {
        let sweep = &mut self.sweep;
        match &mut self.adapter {
            Adapter::Native => sweep.observe(row),
            Adapter::Refine(refine) => refine.push(row, |sub| sweep.observe(sub)),
            Adapter::Coarsen(coarsen) => coarsen.push(row, |merged| sweep.observe(merged)),
        }
    }

    fn finish(self) -> impl Iterator<Item = (ResultKey, ClassificationResult)> {
        let mut sweep = self.sweep;
        if let Adapter::Coarsen(coarsen) = self.adapter {
            coarsen.finish(|merged| sweep.observe(merged));
        }
        self.keys.into_iter().zip(sweep.finish())
    }
}

/// An experiment session at one (scale, seed). It belongs to one thread
/// (the memo is a `RefCell`).
pub struct Lab {
    seed: u64,
    /// West, east.
    scenarios: [Scenario; 2],
    /// Each link once walked.
    links: [OnceCell<Link>; 2],
    memo: RefCell<Memo>,
}

impl Lab {
    /// Open a session. Nothing is generated until something is asked.
    pub fn new(scale: f64, seed: u64) -> Self {
        Lab {
            seed,
            scenarios: [
                Scenario::west(seed).scaled(scale),
                Scenario::east(seed).scaled(scale),
            ],
            links: [OnceCell::new(), OnceCell::new()],
            memo: RefCell::default(),
        }
    }

    /// The scenario behind a link.
    pub fn scenario(&self, id: MatrixId) -> &Scenario {
        &self.scenarios[id as usize]
    }

    /// What the session keeps of a link, walking it first if it never
    /// was.
    pub fn link(&self, id: MatrixId) -> &Link {
        if self.links[id as usize].get().is_none() {
            self.walk(id, &[], false);
        }
        self.links[id as usize].get().expect("walked")
    }

    /// The busy-period window of a link: its scenario's `busy_slots`
    /// consecutive intervals with the highest total traffic.
    pub(crate) fn busy_window(&self, id: MatrixId) -> Range<usize> {
        self.scenario(id).busy_window(&self.link(id).totals)
    }

    /// Answer every need the session has not answered yet, walking each
    /// link at most once, west first.
    pub fn prepare(&self, needs: &[Need]) {
        for id in MatrixId::ALL {
            let (jobs, ever_active) = {
                let memo = self.memo.borrow();
                let mut jobs: Vec<Job> = Vec::new();
                let mut ever_active = false;
                for need in needs {
                    match *need {
                        Need::Result(job) if job.link == id => {
                            let key = result_key(&job);
                            if !memo.results.contains_key(&key)
                                && !jobs.iter().any(|j| result_key(j) == key)
                            {
                                jobs.push(job);
                            }
                        }
                        Need::EverActive(link) if link == id => {
                            ever_active |= !memo.ever_active.contains_key(&id);
                        }
                        Need::Result(_) | Need::EverActive(_) => {}
                    }
                }
                (jobs, ever_active)
            };
            if !jobs.is_empty() || ever_active {
                self.walk(id, &jobs, ever_active);
            }
        }
    }

    /// Walk link `id` once: generate its rows, and step on each one the
    /// streams of `jobs` (none already computed), the totals (first walk
    /// only: it keeps the link) and, if asked, the ever-active key set.
    fn walk(&self, id: MatrixId, jobs: &[Job], ever_active: bool) {
        let scenario = self.scenario(id);
        let workload = &scenario.workload;
        let kept = self.links[id as usize].get();
        let generated = kept
            .is_none()
            .then(|| eleph_bgp::synth::generate(&scenario.table));
        let table = kept
            .map(|link| &link.table)
            .or(generated.as_ref())
            .expect("one or other");
        let population = FlowPopulation::build(workload, table);

        let mut measures: Vec<Measure> = jobs.iter().map(|job| job.measure).collect();
        measures.sort_unstable();
        measures.dedup();
        let mut streams: Vec<Stream> = measures
            .into_iter()
            .map(|measure| {
                if let Measure::Refined(factor) = measure {
                    assert!(
                        factor >= 1 && workload.interval_secs.is_multiple_of(factor as u64),
                        "refinement factor must divide the interval length"
                    );
                }
                let of: Vec<&Job> = jobs.iter().filter(|job| job.measure == measure).collect();
                Stream::new(measure, self.seed, &of)
            })
            .collect();
        let mut totals = generated
            .is_some()
            .then(|| Vec::with_capacity(workload.n_intervals));
        let mut active = ever_active.then(|| KeyBitset::with_capacity(population.len()));
        RateTrace::walk(workload, &population, |row| {
            // FlowId and KeyId coincide: population order is key order.
            if let Some(totals) = &mut totals {
                totals.push(row.iter().fold(0.0, |t, &(_, rate)| t + f64::from(rate)));
            }
            if let Some(active) = &mut active {
                for &(key, _) in row {
                    active.insert(key);
                }
            }
            for stream in &mut streams {
                stream.observe(row);
            }
        });
        let first = generated.is_some();
        if let (Some(table), Some(totals)) = (generated, totals) {
            let keys = population.iter().map(|(_, meta)| meta.prefix).collect();
            let link = Link {
                table,
                keys,
                totals,
            };
            assert!(
                self.links[id as usize].set(link).is_ok(),
                "a link is kept once"
            );
        }
        drop(population);

        let mut memo = self.memo.borrow_mut();
        memo.counters.walks += 1;
        for stream in streams {
            memo.counters.detection_passes += stream.passes;
            for (key, result) in stream.finish() {
                memo.counters.results_computed += 1;
                memo.results.insert(key, Arc::new(result));
            }
        }
        if let Some(active) = active {
            memo.ever_active.insert(id, Arc::new(active));
        }
        memo.counters.scenario_builds += usize::from(first);
    }

    /// The result of each job, in order: whatever the session has not
    /// computed is computed first ([`Lab::prepare`]).
    pub fn results(&self, jobs: &[Job]) -> Vec<Arc<ClassificationResult>> {
        let needs: Vec<Need> = jobs.iter().map(|&job| Need::Result(job)).collect();
        self.prepare(&needs);
        let mut memo = self.memo.borrow_mut();
        memo.counters.results_requested += jobs.len();
        jobs.iter()
            .map(|job| Arc::clone(&memo.results[&result_key(job)]))
            .collect()
    }

    /// Classify each (link, configuration) at the link's own T, in
    /// order ([`Lab::results`]).
    pub(crate) fn classify(
        &self,
        jobs: &[(MatrixId, SchemeSpec)],
    ) -> Vec<Arc<ClassificationResult>> {
        let jobs: Vec<Job> = jobs
            .iter()
            .map(|&(id, spec)| Job::native(id, spec))
            .collect();
        self.results(&jobs)
    }

    /// Classify each configuration over one link at the link's own T,
    /// in order ([`Lab::results`]).
    pub fn classify_on<const N: usize>(
        &self,
        id: MatrixId,
        specs: [SchemeSpec; N],
    ) -> [Arc<ClassificationResult>; N] {
        self.classify(&specs.map(|spec| (id, spec)))
            .try_into()
            .expect("as many results as jobs")
    }

    /// The keys link `id` carries traffic for in some interval.
    pub fn ever_active(&self, id: MatrixId) -> Arc<KeyBitset> {
        self.prepare(&[Need::EverActive(id)]);
        Arc::clone(&self.memo.borrow().ever_active[&id])
    }

    /// The four Figure 1 classifications (2 links × 2 detectors, latent
    /// heat): [west-CL, west-aest, east-CL, east-aest].
    pub(crate) fn fig1_runs(&self) -> [Arc<ClassificationResult>; 4] {
        self.classify(&FIG1_JOBS.map(|(id, detector)| (id, SchemeSpec::paper(detector))))
            .try_into()
            .expect("four jobs, four results")
    }

    /// What the session has done so far.
    pub fn counters(&self) -> LabCounters {
        self.memo.borrow().counters
    }
}

/// The links and detectors of [`Lab::fig1_runs`], in its order.
pub(crate) const FIG1_JOBS: [(MatrixId, DetectorKind); 4] = [
    (MatrixId::West, DetectorKind::ConstantLoad),
    (MatrixId::West, DetectorKind::Aest),
    (MatrixId::East, DetectorKind::ConstantLoad),
    (MatrixId::East, DetectorKind::Aest),
];
