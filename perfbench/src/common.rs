//! Pieces the workloads share: the run outcome, the paper pipeline's
//! set-up phases, seeded query streams, and the benchmark's own serving
//! backend.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sth_core::{build_uninitialized, initialize_histogram, InitConfig};
use sth_data::sky::SkySpec;
use sth_data::Dataset;
use sth_geometry::Rect;
use sth_histogram::{FrozenHistogram, StHoles};
use sth_index::{KdCountTree, ResultSetCounter};
use sth_mineclus::{MineClus, MineClusConfig, SubspaceClustering};
use sth_platform::snap::{SnapshotCell, SnapshotGuard};
use sth_query::{Estimator, SelfTuning, WorkloadSpec};
use sth_serve::{Backend, Pinned, TenantId};

use crate::stats::median;
use crate::trace::Trace;

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: feedback queries, served queries and checks.
    pub attempted: u64,
    /// Operations that failed: store errors, shed queries, failed checks.
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// End-to-end metric values by name (units live in `report.rs`).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name; filled by traced runs.
    pub layers: BTreeMap<&'static str, f64>,
    /// Facts for the report: golden hashes, counts, operating points.
    pub info: Vec<(&'static str, String)>,
    /// The traced run's spans.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// Records a correctness check; a failed check is a failed operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.into(), ok));
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Seed of the fixed training stream that takes a fresh histogram to the
/// mature state the measured windows start from. The paper trains every
/// histogram on 1,000 queries before it measures error.
pub const TRAIN_SEED: u64 = 0xE0;

/// Derives an independent seed for one input stream of a workload.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    sth_platform::rng::Rng::seed_from_u64(seed)
        .fork(stream)
        .next_u64()
}

/// `count` queries of 1% of the domain volume with uniform centers: the
/// paper's standard workload.
pub fn queries(data: &Dataset, count: usize, seed: u64) -> Vec<Rect> {
    WorkloadSpec {
        count,
        ..WorkloadSpec::paper(0.01, seed)
    }
    .generate(data.domain(), None)
    .queries()
    .iter()
    .map(|q| q.rect().clone())
    .collect()
}

/// The paper pipeline up to a ready histogram: Sky generated and indexed,
/// MineClus run on a sample, and a histogram initialized from the
/// clusters.
pub struct SkyPipeline {
    pub data: Dataset,
    pub index: KdCountTree,
    pub hist: StHoles,
    pub generate_s: f64,
    pub index_s: f64,
    pub cluster_s: f64,
    pub init_s: f64,
    pub clusters: usize,
    pub fed: usize,
}

/// Sky at 10% of the paper's size: ~175k 7-d tuples, ~10 MB of columns.
pub const SKY_SCALE: f64 = 0.1;
/// Tuples MineClus sees; the paper's quick setting.
pub const CLUSTER_SAMPLE: usize = 20_000;

impl SkyPipeline {
    /// Seconds of each set-up phase: generate, index, cluster, initialize.
    pub fn phases(&self) -> [f64; 4] {
        [self.generate_s, self.index_s, self.cluster_s, self.init_s]
    }
}

pub fn sky_pipeline(budget: usize) -> SkyPipeline {
    let t = Instant::now();
    let data = SkySpec::scaled(SKY_SCALE).generate();
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let index = KdCountTree::build(&data);
    let index_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    // The clustering is configuration, not input: the sample and the
    // medoid seed are fixed, so every seed starts from the same
    // initialized histogram.
    let sample = data.sample(CLUSTER_SAMPLE, 0x5A4D);
    let clusters = MineClus::new(MineClusConfig::default()).cluster(&sample);
    let cluster_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut hist = build_uninitialized(&data, budget);
    let fed = initialize_histogram(
        &mut hist,
        &sample,
        &clusters,
        &InitConfig::default(),
        &index,
    );
    let init_s = t.elapsed().as_secs_f64();
    SkyPipeline {
        data,
        index,
        hist,
        generate_s,
        index_s,
        cluster_s,
        init_s,
        clusters: clusters.len(),
        fed,
    }
}

/// Per-layer figures of the pipeline set-up: the median of each phase over
/// the repetitions (`phases` holds generate, index, cluster and initialize
/// seconds per repetition) and the clustering's output.
pub fn pipeline_layers(
    l: &mut BTreeMap<&'static str, f64>,
    phases: &[[f64; 4]],
    pipe: &SkyPipeline,
) {
    let phase = |k: usize| median(&phases.iter().map(|p| p[k]).collect::<Vec<_>>());
    l.insert("data.generate_s", phase(0));
    l.insert("index.build_s", phase(1));
    l.insert("mineclus.cluster_s", phase(2));
    l.insert("core.init_s", phase(3));
    l.insert("mineclus.clusters", pipe.clusters as f64);
    l.insert("core.fed", pipe.fed as f64);
}

/// Trains `hist` on the fixed training stream of `count` queries through
/// the composite refine path; returns the seconds it took.
pub fn train(hist: &mut StHoles, data: &Dataset, index: &KdCountTree, count: usize) -> f64 {
    let t = Instant::now();
    let mut result = ResultSetCounter::empty(data.ndim());
    for q in queries(data, count, TRAIN_SEED) {
        assert!(
            result.refill_from_counter(index, &q),
            "the k-d tree materializes rows"
        );
        let truth = result.len() as f64;
        hist.refine_with_truth(&q, &result, truth);
    }
    t.elapsed().as_secs_f64()
}

/// Runs `setup` `reps` times and returns the last result with the median
/// wall time of the repetitions.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Free the previous result first so every repetition starts from
        // the same heap.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), median(&times))
}

/// Where the traced serving backend records: the engine thread's span
/// recorder and a service counter that numbers the spans.
pub struct ServeTrace {
    pub trace: Mutex<Trace>,
    services: AtomicU64,
}

impl ServeTrace {
    pub fn new(origin: Instant) -> Self {
        Self {
            trace: Mutex::new(Trace::new(origin)),
            services: AtomicU64::new(0),
        }
    }

    fn record(&self, name: &'static str, id: u64, t0: Instant, t1: Instant) {
        self.trace
            .lock()
            .expect("trace lock poisoned")
            .record(name, id, t0, t1);
    }
}

/// The benchmark's serving backend: one snapshot cell, served through the
/// engine's public `Backend`/`Pinned` seam. Untraced it only forwards;
/// traced it records a span around every kernel call and every fresh pin.
pub struct BenchBackend<'a> {
    cell: &'a SnapshotCell<FrozenHistogram>,
    sink: Option<&'a ServeTrace>,
}

impl<'a> BenchBackend<'a> {
    pub fn new(cell: &'a SnapshotCell<FrozenHistogram>, sink: Option<&'a ServeTrace>) -> Self {
        Self { cell, sink }
    }
}

pub struct BenchPin<'a> {
    guard: SnapshotGuard<FrozenHistogram>,
    sink: Option<&'a ServeTrace>,
}

impl<'a> Backend for BenchBackend<'a> {
    type Pinned = BenchPin<'a>;

    fn tenant_count(&self) -> usize {
        1
    }

    fn repin(&self, _tenant: TenantId, seen: u64) -> Option<Self::Pinned> {
        let Some(sink) = self.sink else {
            return self
                .cell
                .load_if_newer(seen)
                .map(|guard| BenchPin { guard, sink: None });
        };
        let t0 = Instant::now();
        let guard = self.cell.load_if_newer(seen)?;
        sink.record(
            "snap.pin",
            sink.services.load(Ordering::Relaxed),
            t0,
            Instant::now(),
        );
        Some(BenchPin {
            guard,
            sink: Some(sink),
        })
    }
}

impl Pinned for BenchPin<'_> {
    fn epoch(&self) -> u64 {
        self.guard.epoch()
    }

    fn estimate_batch(&self, queries: &[Rect], out: &mut Vec<f64>) {
        let Some(sink) = self.sink else {
            return Estimator::estimate_batch(&*self.guard, queries, out);
        };
        let id = sink.services.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        Estimator::estimate_batch(&*self.guard, queries, out);
        sink.record("sthole.batch", id, t0, Instant::now());
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.guard.check_invariants()
    }
}
