//! The serve loop: train every tenant while serving them all, end to end.
//!
//! [`serve`] is built from three pieces:
//!
//! * **One trainer loop.** Tenants are dealt round-robin across
//!   [`ServeConfig::trainer_workers`] scoped threads. Each worker takes its
//!   tenants in turn; a turn absorbs up to [`ServeConfig::republish_every`]
//!   training queries through the tenant's [`Trainer`] (a volatile
//!   `refine_with_truth`, or a write-ahead [`DurableTrainer::absorb`]) and
//!   then publishes once, so publication pressure follows refinement
//!   pressure. A tenant's last turn publishes its fully trained state.
//! * **One registry shape.** Each tenant owns one
//!   [`sth_platform::snap::SnapshotCell`] of [`sth_histogram::FrozenHistogram`]
//!   in the [`Registry`]; a publish is one `freeze` plus one cell swap.
//! * **One backend.** The [`sth_serve`] engine answers a round-robin
//!   mixed-tenant stream from the registry's cells through
//!   [`sth_serve::CellBackend`]: [`ServeConfig::readers`] logical streams
//!   multiplexed over a few engine threads, each caching one pin per tenant
//!   and repinning only when that tenant's epoch moved.
//!
//! Every answered request is attributed to the epoch of the snapshot that
//! answered it; each tenant's [`EpochTimeline`] carries per-epoch latency
//! quantiles (queue wait included), kernel counters and, for durable
//! tenants, store flush bytes. Under `STH_AUDIT=1` every fresh pin is
//! structurally verified before serving from it.
//!
//! The loop terminates cleanly: the last trainer worker to exit raises the
//! done flag, and each stream then drains one last batch generated *after*
//! the flag, so every stream serves from every tenant's final epoch it
//! touches. Trainers wait for the engine to start before refining, so the
//! initial (epoch 1) snapshots are observed too.
//!
//! Failure policy: a trainer *panic* ends that worker's tenants early but
//! not the run — the report comes back with [`ServeReport::failure`] set,
//! and the other workers' tenants finish training. A *store* error stops
//! its tenant (the in-memory histogram still equals the last durable
//! state, so its final publish serves a valid snapshot) and is returned as
//! `Err` once the run has drained.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sth_geometry::Rect;
use sth_histogram::StHoles;
use sth_index::{RangeCounter, ResultSetCounter};
use sth_platform::obs;
use sth_query::{SelfTuning, Workload};
use sth_serve::{
    counter_marks, serve_closed, EngineConfig, EngineStats, EpochRow, EpochTimeline, ReaderStats,
    TenantId,
};
use sth_store::{DurableTrainer, StoreError};

use crate::registry::{Registry, TenantKey};

/// Knobs for [`serve`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Logical reader streams. The engine multiplexes them over at most
    /// `min(readers, worker_count)` threads by default
    /// (`STH_SERVE_THREADS` overrides).
    pub readers: usize,
    /// Mixed-stream queries per generated stream batch.
    pub batch: usize,
    /// Training queries a trainer absorbs per tenant turn before
    /// publishing that tenant.
    pub republish_every: usize,
    /// Trainer workers the tenants are dealt across.
    pub trainer_workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { readers: 4, batch: 32, republish_every: 50, trainer_workers: 2 }
    }
}

/// How a tenant absorbs training feedback.
pub enum Trainer {
    /// In-memory only: single-probe feedback into `refine_with_truth`, the
    /// same discipline as [`crate::evaluate_self_tuning`].
    Volatile(StHoles),
    /// Write-ahead: every query is logged to the store before refinement,
    /// and snapshot generations flush per the store's policy.
    Durable(DurableTrainer),
}

impl Trainer {
    /// The live histogram.
    pub fn hist(&self) -> &StHoles {
        match self {
            Trainer::Volatile(hist) => hist,
            Trainer::Durable(trainer) => trainer.hist(),
        }
    }

    /// Absorbs one training query; returns whether a durable trainer
    /// flushed a snapshot generation. `result` is the volatile path's
    /// reusable result buffer.
    fn absorb(
        &mut self,
        q: &Rect,
        counter: &dyn RangeCounter,
        result: &mut ResultSetCounter,
    ) -> Result<bool, StoreError> {
        match self {
            Trainer::Volatile(hist) => {
                if result.refill_from_counter(counter, q) {
                    let truth = result.total() as f64;
                    hist.refine_with_truth(q, result, truth);
                } else {
                    hist.refine(q, counter);
                }
                Ok(false)
            }
            Trainer::Durable(trainer) => Ok(trainer.absorb(q, counter)?.flushed_gen.is_some()),
        }
    }
}

/// Everything [`serve`] needs to drive one tenant: identity, trainer, its
/// workloads, and its feedback oracle.
pub struct TenantRuntime {
    /// Tenant identity.
    pub key: TenantKey,
    /// The tenant's histogram and how it absorbs feedback.
    pub trainer: Trainer,
    /// Training workload.
    pub train: Workload,
    /// Serving workload (estimated by the readers).
    pub serve: Workload,
    /// Feedback oracle for the training workload.
    pub counter: Arc<dyn RangeCounter + Send + Sync>,
}

/// What a durable tenant's store did during the run.
#[derive(Clone, Debug)]
pub struct DurableOutcome {
    /// Durable delta sequence reached.
    pub final_seq: u64,
    /// Store generations flushed during the run.
    pub flushes: u64,
    /// Golden hash of the trained histogram, for comparing against a
    /// recovered store.
    pub golden: u64,
}

/// One tenant's row of a [`ServeReport`].
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant identity.
    pub key: TenantKey,
    /// Snapshots the trainer published (excluding registration).
    pub publishes: u64,
    /// Epoch of the last published snapshot (= 1 + publishes).
    pub final_epoch: u64,
    /// Estimates answered for this tenant across all readers.
    pub answered: u64,
    /// Requests (routed sub-batches) answered for this tenant.
    pub batches: u64,
    /// The tenant trainer's obs delta (refine and publish work; engine
    /// work is not separable per tenant and rolls up in the aggregate).
    /// Empty when the tenant's trainer worker panicked.
    pub trainer_counters: obs::Snapshot,
    /// Per-epoch serving activity, epochs 1 through `final_epoch`.
    pub timeline: EpochTimeline,
    /// Store facts for a durable tenant whose trainer worker finished;
    /// `None` for volatile tenants.
    pub durable: Option<DurableOutcome>,
}

/// Outcome of one [`serve`] run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// One row per tenant, tenant-id order.
    pub tenants: Vec<TenantReport>,
    /// Per-reader tallies, in reader order.
    pub readers: Vec<ReaderStats>,
    /// Counters and stats for the whole run (trainers + engine, merged in
    /// deterministic order).
    pub counters: obs::Snapshot,
    /// How the engine ran: services, coalescing, pin cache hits, sheds.
    pub engine: EngineStats,
    /// Estimates shed by deadline admission control, per tenant (all zero
    /// unless `STH_SERVE_DEADLINE_US` is set).
    pub shed_by_tenant: Vec<u64>,
    /// Set when a trainer worker panicked: the first panic's message. The
    /// report is then *partial* for that worker's tenants — their rows
    /// cover everything served up to their last successful publish, but
    /// their trainer counters are missing.
    pub failure: Option<String>,
}

impl ServeReport {
    /// Total estimates answered across all tenants.
    pub fn answered(&self) -> u64 {
        self.tenants.iter().map(|t| t.answered).sum()
    }

    /// Total requests answered across all tenants.
    pub fn batches(&self) -> u64 {
        self.tenants.iter().map(|t| t.batches).sum()
    }

    /// Total publishes across all tenants.
    pub fn publishes(&self) -> u64 {
        self.tenants.iter().map(|t| t.publishes).sum()
    }

    /// Total requests answered from audited snapshots.
    pub fn audited(&self) -> u64 {
        self.readers.iter().map(|r| r.audited).sum()
    }

    /// Total estimates shed by deadline admission control.
    pub fn shed(&self) -> u64 {
        self.shed_by_tenant.iter().sum()
    }
}

/// What a trainer worker accumulates for one tenant.
#[derive(Default)]
struct TenantTotals {
    counters: obs::Snapshot,
    /// Store flushes, keyed by the epoch current when they happened.
    rows: BTreeMap<u64, EpochRow>,
    durable: Option<DurableOutcome>,
    error: Option<StoreError>,
}

/// Trainer-liveness drop guard: the last trainer worker to exit — by
/// finishing *or by panicking* — raises the engine's done flag. Without
/// the drop guarantee, a panicking trainer would leave the engine polling
/// the last snapshots forever.
struct TrainerLive<'a> {
    live: &'a AtomicU64,
    done: &'a AtomicBool,
}

impl Drop for TrainerLive<'_> {
    fn drop(&mut self) {
        if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.done.store(true, Ordering::Release);
        }
    }
}

/// Renders a `JoinHandle::join` panic payload as a message. Panics carry
/// `&str` or `String` payloads in practice; anything else gets a marker.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast_ref::<&'static str>() {
        Some(s) => (*s).to_string(),
        None => match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "trainer panicked with a non-string payload".to_string(),
        },
    }
}

/// The trainer loop: one worker's tenants, taken in turn until every
/// training workload is exhausted (or its store died).
fn train_worker(
    registry: &Registry,
    mut mine: Vec<(TenantId, &mut TenantRuntime)>,
    republish_every: usize,
    readers_started: &AtomicU64,
) -> Vec<(TenantId, TenantTotals)> {
    let _flight = obs::flight::FlightDump::new("serve trainer");
    // Hold the epoch-1 snapshots until the engine is live, so every run
    // provably serves across an epoch boundary. Deadlock-free: every
    // engine thread bumps the counter before its poll loop.
    while readers_started.load(Ordering::Acquire) == 0 {
        std::thread::yield_now();
    }
    let mut totals: Vec<TenantTotals> = mine.iter().map(|_| TenantTotals::default()).collect();
    let mut cursors = vec![0usize; mine.len()];
    let mut result = ResultSetCounter::empty(1);
    loop {
        let mut progressed = false;
        for (slot, (id, rt)) in mine.iter_mut().enumerate() {
            let queries = rt.train.queries();
            if cursors[slot] >= queries.len() {
                continue;
            }
            progressed = true;
            let t = &mut totals[slot];
            let obs_before = obs::snapshot();
            // Store activity is attributed to the epoch that was current
            // when it happened.
            let epoch = registry.tenant_epoch(*id);
            let start = cursors[slot];
            let end = (start + republish_every).min(queries.len());
            cursors[slot] = end;
            for q in &queries[start..end] {
                let (_, _, bytes0) = counter_marks();
                match rt.trainer.absorb(q.rect(), rt.counter.as_ref(), &mut result) {
                    Ok(false) => {}
                    Ok(true) => {
                        let (_, _, bytes1) = counter_marks();
                        let row = t
                            .rows
                            .entry(epoch)
                            .or_insert_with(|| EpochRow { epoch, ..EpochRow::default() });
                        row.flushes += 1;
                        row.store_bytes_flushed += bytes1 - bytes0;
                    }
                    Err(e) => {
                        t.error = Some(e);
                        cursors[slot] = queries.len();
                        break;
                    }
                }
            }
            registry.publish(*id, rt.trainer.hist());
            t.counters.merge(&obs::snapshot().delta(&obs_before));
        }
        if !progressed {
            break;
        }
    }
    mine.into_iter()
        .zip(totals)
        .map(|((id, rt), mut t)| {
            if let Trainer::Durable(trainer) = &rt.trainer {
                t.durable = Some(DurableOutcome {
                    final_seq: trainer.seq(),
                    flushes: t.rows.values().map(|r| r.flushes).sum(),
                    golden: trainer.golden_hash(),
                });
            }
            (id, t)
        })
        .collect()
}

/// Registers every runtime into `registry` (which must be empty; runtime
/// `i` becomes tenant `i`), then trains all tenants while concurrently
/// serving a mixed-tenant estimate stream. See the module docs for the
/// trainer loop, the engine, and the failure policy.
///
/// Every tenant's training and serving queries are checked with
/// [`Registry::check_route`] before any thread starts.
///
/// # Panics
///
/// On an invalid configuration (zero readers, batch, cadence or workers),
/// an empty serve workload, or a query that cannot be routed to its
/// tenant — all before any thread starts.
pub fn serve(
    registry: &mut Registry,
    runtimes: &mut [TenantRuntime],
    cfg: &ServeConfig,
) -> Result<ServeReport, StoreError> {
    assert!(registry.tenant_count() == 0, "serve wants a fresh registry");
    assert!(!runtimes.is_empty(), "serve needs at least one tenant");
    assert!(cfg.readers >= 1, "serve needs at least one reader");
    assert!(cfg.batch >= 1, "serve needs a non-empty batch");
    assert!(cfg.republish_every >= 1);
    assert!(cfg.trainer_workers >= 1);

    let _span = obs::span("eval.serve");

    // Register every tenant, validate its workloads, and build the mixed
    // serve stream (round-robin interleave of the per-tenant workloads).
    let mut serve_rects: Vec<Vec<Rect>> = Vec::with_capacity(runtimes.len());
    for rt in runtimes.iter() {
        assert!(!rt.serve.is_empty(), "tenant {} has nothing to serve", rt.key);
        let id = registry.register(rt.key.clone(), rt.trainer.hist());
        for q in rt.train.queries().iter().chain(rt.serve.queries()) {
            if let Err(e) = registry.check_route(id, q.rect()) {
                panic!("tenant {}: {e}", rt.key);
            }
        }
        serve_rects.push(rt.serve.queries().iter().map(|q| q.rect().clone()).collect());
    }
    let longest = serve_rects.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut stream: Vec<(TenantId, Rect)> = Vec::new();
    for round in 0..longest {
        for (id, rects) in serve_rects.iter().enumerate() {
            if let Some(r) = rects.get(round) {
                stream.push((id, r.clone()));
            }
        }
    }

    let tenants = runtimes.len();
    let workers = cfg.trainer_workers.min(tenants);
    let mut dealt: Vec<Vec<(TenantId, &mut TenantRuntime)>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (id, rt) in runtimes.iter_mut().enumerate() {
        dealt[id % workers].push((id, rt));
    }

    let done = AtomicBool::new(false);
    let readers_started = AtomicU64::new(0);
    let live = AtomicU64::new(workers as u64);
    let registry = &*registry;

    let (outcomes, run) = std::thread::scope(|s| {
        let handles: Vec<_> = dealt
            .into_iter()
            .map(|mine| {
                let (done, live, readers_started) = (&done, &live, &readers_started);
                s.spawn(move || {
                    let _live = TrainerLive { live, done };
                    train_worker(registry, mine, cfg.republish_every, readers_started)
                })
            })
            .collect();
        let run = serve_closed(
            &registry.backend(),
            &stream,
            cfg.readers,
            cfg.batch,
            &EngineConfig::from_env(),
            &done,
            &readers_started,
        );
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (outcomes, run)
    });

    // A trainer panic must not discard what the engine served: the live
    // guard released the streams, and the cells still know every tenant's
    // last successful publish.
    let mut totals: Vec<Option<TenantTotals>> = (0..tenants).map(|_| None).collect();
    let mut failure = None;
    for outcome in outcomes {
        match outcome {
            Ok(list) => {
                for (id, t) in list {
                    totals[id] = Some(t);
                }
            }
            Err(payload) => {
                failure.get_or_insert(panic_message(payload));
            }
        }
    }
    // Store errors stay `Err`: they mean the durable state needs attention.
    if let Some(e) = totals.iter_mut().flatten().find_map(|t| t.error.take()) {
        return Err(e);
    }

    let mut counters = run.obs;
    let mut tenant_maps = run.tenant_rows;
    let mut rows = Vec::with_capacity(tenants);
    for (id, t) in totals.into_iter().enumerate() {
        let t = t.unwrap_or_default();
        counters.merge(&t.counters);
        let final_epoch = registry.tenant_epoch(id);
        let maps = std::mem::take(&mut tenant_maps[id]);
        let (answered, batches) = maps
            .iter()
            .flat_map(|m| m.values())
            .fold((0, 0), |(a, b), row| (a + row.answered, b + row.batches));
        rows.push(TenantReport {
            key: registry.key(id).clone(),
            publishes: final_epoch - 1,
            final_epoch,
            answered,
            batches,
            trainer_counters: t.counters,
            timeline: EpochTimeline::assemble(final_epoch, maps, t.rows),
            durable: t.durable,
        });
    }
    let report = ServeReport {
        tenants: rows,
        readers: run.streams,
        counters,
        engine: run.stats,
        shed_by_tenant: run.shed,
        failure,
    };
    if obs::event_enabled() {
        let timelines: Vec<String> = report.tenants.iter().map(|t| t.timeline.to_json()).collect();
        obs::event(
            "serve",
            &[
                ("tenants", obs::FieldValue::Int(report.tenants.len() as u64)),
                ("readers", obs::FieldValue::Int(report.readers.len() as u64)),
                ("publishes", obs::FieldValue::Int(report.publishes())),
                ("answered", obs::FieldValue::Int(report.answered())),
                ("obs", obs::FieldValue::Raw(&report.counters.to_json())),
                ("timelines", obs::FieldValue::Raw(&format!("[{}]", timelines.join(", ")))),
            ],
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sth_data::cross::CrossSpec;
    use sth_index::KdCountTree;
    use sth_query::{CardinalityEstimator, WorkloadSpec};
    use sth_store::vfs::{FaultVfs, MemVfs, Vfs};
    use sth_store::StoreConfig;

    /// One tenant's starting state: untrained histogram, train/serve
    /// halves of a seeded workload, and the exact-count oracle.
    fn fixture(seed: u64) -> (StHoles, Workload, Workload, Arc<KdCountTree>) {
        let data = CrossSpec::cross2d().scaled(0.05).generate();
        let index = Arc::new(KdCountTree::build(&data));
        let wl = WorkloadSpec::paper(0.01, seed).generate(data.domain(), None);
        let (train, serve) = wl.split_train(wl.len() / 2);
        let hist = sth_core::build_uninitialized(&data, 64);
        (hist, train, serve, index)
    }

    /// Tenant `t{seed}` serving `fixture(seed)`'s workload against its
    /// oracle, trained by `trainer` on `train`.
    fn runtime(seed: u64, trainer: Trainer, train: Workload) -> TenantRuntime {
        let (_, _, serve, counter) = fixture(seed);
        let key = TenantKey::new(format!("t{seed}"), vec![0, 1]);
        TenantRuntime { key, trainer, train, serve, counter }
    }

    fn volatile(seed: u64) -> TenantRuntime {
        let (hist, train, ..) = fixture(seed);
        runtime(seed, Trainer::Volatile(hist), train)
    }

    /// A durable tenant over `fixture(seed)`, its store created at `dir`.
    fn durable(seed: u64, vfs: Arc<dyn Vfs>, dir: &str, flush_every: usize) -> TenantRuntime {
        let (hist, train, ..) = fixture(seed);
        let trainer =
            DurableTrainer::create(dir, vfs, store_cfg(flush_every), hist).expect("create");
        runtime(seed, Trainer::Durable(trainer), train)
    }

    /// The offline refine loop's final golden hash for `fixture(seed)`:
    /// what every served tenant must land on, bit for bit.
    fn offline_golden(seed: u64) -> u64 {
        let (mut hist, train, _, index) = fixture(seed);
        let mut result = ResultSetCounter::empty(2);
        for q in train.queries() {
            assert!(result.refill_from_counter(index.as_ref(), q.rect()));
            let truth = result.total() as f64;
            hist.refine_with_truth(q.rect(), &result, truth);
        }
        hist.golden_hash()
    }

    fn run(runtimes: &mut [TenantRuntime], cfg: &ServeConfig) -> ServeReport {
        serve(&mut Registry::new(), runtimes, cfg).expect("volatile runs cannot fail")
    }

    fn store_cfg(flush_every_deltas: usize) -> StoreConfig {
        StoreConfig { flush_every_deltas, flush_every_bytes: u64::MAX, retain_generations: 2 }
    }

    #[test]
    fn serve_loop_observes_multiple_epochs() {
        let cfg = ServeConfig { readers: 4, batch: 16, republish_every: 10, trainer_workers: 1 };
        let report = run(&mut [volatile(97)], &cfg);
        let t = &report.tenants[0];
        assert!(t.publishes >= 2, "expected republishes, got {}", t.publishes);
        assert_eq!(t.final_epoch, 1 + t.publishes);
        let served = t.timeline.rows.iter().filter(|r| r.answered > 0).count();
        assert!(served >= 2, "readers served from {served} epochs");
        // The drain batch guarantees every reader served the final epoch.
        for r in &report.readers {
            assert_eq!(r.epochs.last(), Some(&t.final_epoch));
            assert!(r.answered >= 1);
        }
        assert!(report.answered() >= cfg.batch as u64);
        assert_eq!(report.failure, None);
        // Deadlines are disabled by default: nothing sheds, ever.
        assert_eq!(report.shed(), 0);
        assert_eq!(report.engine.shed_requests, 0);
    }

    #[test]
    fn serve_timeline_attributes_every_batch_to_an_epoch() {
        let cfg = ServeConfig { readers: 3, batch: 16, republish_every: 10, trainer_workers: 1 };
        let report = run(&mut [volatile(97)], &cfg);
        let t = &report.tenants[0];
        let tl = &t.timeline;
        // Contiguous rows 1..=final_epoch, jointly accounting for every
        // request and every answered estimate.
        assert_eq!(tl.rows.len() as u64, t.final_epoch);
        for (i, row) in tl.rows.iter().enumerate() {
            assert_eq!(row.epoch, i as u64 + 1);
            assert_eq!(row.publishes, (row.epoch > 1) as u64);
            assert_eq!(row.batches, row.batch_ns.count(), "one latency sample per request");
        }
        assert_eq!(tl.batches(), report.batches());
        assert_eq!(tl.rows.iter().map(|r| r.answered).sum::<u64>(), report.answered());
        // One tenant: its requests are exactly the readers' batches.
        assert_eq!(report.batches(), report.readers.iter().map(|r| r.batches).sum::<u64>());
        let all = tl.batch_ns_overall();
        assert_eq!(all.count(), report.batches());
        assert!(all.p50() <= all.p99() && all.p99() <= all.p999());
        assert_eq!(tl.render_table().lines().count(), tl.rows.len() + 1);
        assert!(tl.to_json().contains("\"epoch\": 1"));
    }

    #[test]
    fn audited_serve_checks_every_loaded_snapshot() {
        obs::force_audit(true);
        obs::force_metrics(true);
        let cfg = ServeConfig { readers: 2, batch: 8, republish_every: 25, trainer_workers: 2 };
        let report = run(&mut [volatile(97), volatile(98)], &cfg);
        // Every answered request came off an audited snapshot: the audit
        // runs once per fresh pin, and a request only completes against a
        // pin that passed it.
        assert_eq!(report.audited(), report.batches());
        assert_eq!(report.engine.audits, report.engine.pins);
        assert!(report.engine.pins >= 2, "the epochs moved, so the engine repinned");
        // Publish traffic shows up in the merged obs delta; load traffic
        // is pin-cached, so snapshot loads equal fresh pins.
        assert_eq!(report.counters.get(obs::Counter::SnapshotPublishes), report.publishes());
        assert_eq!(report.counters.get(obs::Counter::SnapshotLoads), report.engine.pins);
        // With metrics on, the serve-path histograms populate: one batch
        // fill sample per completed stream batch, one estimate-latency
        // sample per engine service, one queue-wait sample per request.
        let stream_batches: u64 = report.readers.iter().map(|r| r.batches).sum();
        assert_eq!(report.counters.hist(obs::HistKind::ServeBatchFill).count(), stream_batches);
        assert_eq!(
            report.counters.hist(obs::HistKind::BatchEstimateNs).count(),
            report.engine.services
        );
        assert!(report.engine.services <= report.batches());
        assert_eq!(report.counters.hist(obs::HistKind::ServeQueueNs).count(), report.batches());
        assert_eq!(report.counters.get(obs::Counter::EngineServices), report.engine.services);
        assert!(report.counters.hist(obs::HistKind::RefineNs).count() > 0);
        for t in &report.tenants {
            assert!(t.trainer_counters.hist(obs::HistKind::RefineNs).count() > 0);
        }
        obs::force_audit(false);
        obs::force_metrics(false);
    }

    /// Forwards to a real index but panics partway through the run —
    /// and advertises no `collect_rows` support, so the trainer's
    /// fallback path calls `count` on every refine.
    struct PanickyCounter {
        inner: Arc<KdCountTree>,
        remaining: AtomicU64,
    }

    impl RangeCounter for PanickyCounter {
        fn count(&self, rect: &Rect) -> u64 {
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 0 {
                panic!("injected counter failure");
            }
            self.inner.count(rect)
        }

        fn total(&self) -> u64 {
            self.inner.total()
        }
    }

    fn panicky(seed: u64) -> TenantRuntime {
        let mut rt = volatile(seed);
        let inner = Arc::new(KdCountTree::build(&CrossSpec::cross2d().scaled(0.05).generate()));
        rt.counter = Arc::new(PanickyCounter { inner, remaining: AtomicU64::new(25) });
        rt
    }

    #[test]
    fn trainer_panic_yields_partial_report_with_failure_marker() {
        obs::flight::force(true);
        let cfg = ServeConfig { readers: 2, batch: 8, republish_every: 5, trainer_workers: 1 };
        let report = serve(&mut Registry::new(), &mut [panicky(97)], &cfg)
            .expect("a panic is a partial report, not an error");
        let failure = report.failure.as_deref().expect("trainer panic must be captured");
        assert!(failure.contains("injected counter failure"), "got {failure:?}");
        // The partial report stays internally consistent: final_epoch is
        // the last successful publish, and the readers drained instead of
        // hanging.
        let t = &report.tenants[0];
        assert_eq!(t.publishes, t.final_epoch - 1);
        assert!(report.answered() >= 1, "readers must have been released and drained");
        assert_eq!(t.timeline.rows.len() as u64, t.final_epoch);
        // The trainer's flight guard dumped the pre-panic ring.
        let dump = obs::flight::last_dump().expect("panic must dump the flight recorder");
        assert!(dump.contains("serve trainer"), "dump names the trainer guard:\n{dump}");
        obs::flight::force(false);
    }

    #[test]
    fn trainer_panic_spares_the_other_workers_tenants() {
        let cfg = ServeConfig { readers: 2, batch: 8, republish_every: 5, trainer_workers: 2 };
        let mut runtimes = [panicky(97), volatile(53)];
        let report = serve(&mut Registry::new(), &mut runtimes, &cfg)
            .expect("a panic is a partial report, not an error");
        let failure = report.failure.as_deref().expect("trainer panic must be captured");
        assert!(failure.contains("injected counter failure"), "got {failure:?}");
        // The healthy tenant trained to completion on its own worker and
        // published its final state.
        assert_eq!(runtimes[1].trainer.hist().golden_hash(), offline_golden(53));
        let healthy = &report.tenants[1];
        assert_eq!(
            healthy.final_epoch,
            1 + runtimes[1].train.len().div_ceil(cfg.republish_every) as u64
        );
        assert!(healthy.answered >= 1);
        assert!(report.tenants[0].trainer_counters.get(obs::Counter::SnapshotPublishes) == 0);
    }

    #[test]
    fn durable_serve_trains_identically_to_the_volatile_loop() {
        let mem = Arc::new(MemVfs::new());
        let mut runtimes = [durable(97, mem.clone(), "/durable-serve", 8)];
        let cfg = ServeConfig { readers: 3, batch: 16, republish_every: 10, trainer_workers: 1 };
        let report = serve(&mut Registry::new(), &mut runtimes, &cfg).expect("serve");
        let t = &report.tenants[0];
        let outcome = t.durable.as_ref().expect("durable tenant");
        assert_eq!(outcome.final_seq, runtimes[0].train.len() as u64);
        assert!(outcome.flushes >= 1, "expected snapshot flushes, got {}", outcome.flushes);
        assert!(t.timeline.rows.iter().filter(|r| r.answered > 0).count() >= 2);
        // Per-epoch flush attribution sums back to the run totals.
        assert_eq!(t.timeline.rows.iter().map(|r| r.flushes).sum::<u64>(), outcome.flushes);
        // The durable write path absorbs exactly what the volatile loop
        // refines on: same feedback, same state, bit for bit.
        let golden = offline_golden(97);
        assert_eq!(outcome.golden, golden);

        // And the store round-trips it: a cold reopen is the same state.
        drop(runtimes);
        let (reopened, recovery) =
            DurableTrainer::open("/durable-serve", mem, store_cfg(8)).expect("open");
        assert_eq!(recovery.seq, outcome.final_seq);
        assert_eq!(reopened.golden_hash(), golden);
    }

    #[test]
    fn volatile_and_durable_tenants_share_one_run() {
        let mem = Arc::new(MemVfs::new());
        let mut runtimes = [volatile(59), durable(61, mem.clone(), "/mixed", 8)];
        let cfg = ServeConfig { readers: 2, batch: 24, republish_every: 10, trainer_workers: 2 };
        let report = serve(&mut Registry::new(), &mut runtimes, &cfg).expect("serve");
        assert_eq!(report.failure, None);
        assert!(report.tenants[0].durable.is_none());
        assert_eq!(runtimes[0].trainer.hist().golden_hash(), offline_golden(59));
        let outcome = report.tenants[1].durable.as_ref().expect("durable tenant");
        assert_eq!(outcome.golden, offline_golden(61));
        assert_eq!(runtimes[1].trainer.hist().golden_hash(), outcome.golden);
        for t in &report.tenants {
            assert!(t.answered >= 1, "tenant {} was served", t.key);
            assert_eq!(t.final_epoch, 1 + t.publishes);
        }
        drop(runtimes);
        let (reopened, _) = DurableTrainer::open("/mixed", mem, store_cfg(8)).expect("open");
        assert_eq!(reopened.golden_hash(), outcome.golden);
    }

    #[test]
    fn killed_durable_serve_resumes_from_the_tail() {
        let cfg = ServeConfig { readers: 2, batch: 8, republish_every: 10, trainer_workers: 1 };
        let run_on = |vfs: Arc<dyn Vfs>| {
            serve(&mut Registry::new(), &mut [durable(97, vfs, "/durable-serve", 6)], &cfg)
        };

        // Reference: an uncrashed durable serve run, also recording the
        // total write cost so the kill lands mid-run.
        let ref_vfs = Arc::new(FaultVfs::unlimited(Arc::new(MemVfs::new())));
        let reference = run_on(ref_vfs.clone()).expect("reference serve");
        let ref_golden = reference.tenants[0].durable.as_ref().expect("durable").golden;
        let total_cost = ref_vfs.consumed();

        // Crash-kill: same run, half the write budget. With the flight
        // recorder forced on, the poisoning must leave a black-box dump
        // whose final entries are the absorbs leading into the crash.
        obs::flight::force(true);
        let mem = Arc::new(MemVfs::new());
        let died = run_on(Arc::new(FaultVfs::new(mem.clone(), total_cost / 2)));
        assert!(died.is_err(), "half the write budget must kill the trainer");
        let dump = obs::flight::last_dump().expect("poisoning must dump the flight recorder");
        assert!(dump.contains("store poisoned"), "dump reason names the poisoning:\n{dump}");
        assert!(dump.contains("\"ev\": \"absorb\""), "dump carries pre-crash absorbs:\n{dump}");
        assert!(
            dump.contains("\"ev\": \"store_poisoned\""),
            "dump ends with the poisoning event itself:\n{dump}"
        );
        obs::flight::force(false);

        // Reopen on the torn disk and finish the training workload from
        // the durable tail.
        let (resumed, recovery) =
            DurableTrainer::open("/durable-serve", mem, store_cfg(6)).expect("open after kill");
        let (_, train, ..) = fixture(97);
        assert!(recovery.seq < train.len() as u64, "crash should land mid-run");
        let (_, rest) = train.split_train(recovery.seq as usize);
        let mut rt = [runtime(97, Trainer::Durable(resumed), rest)];
        let report = serve(&mut Registry::new(), &mut rt, &cfg).expect("resumed serve");
        let outcome = report.tenants[0].durable.as_ref().expect("durable");
        assert_eq!(outcome.final_seq, train.len() as u64);
        // Crash + recovery + resume lands bit-identically on the
        // reference run's final state.
        assert_eq!(outcome.golden, ref_golden);
    }

    #[test]
    fn served_estimates_match_final_snapshot_re_estimation() {
        let mut runtimes = [volatile(97)];
        let mut registry = Registry::new();
        serve(&mut registry, &mut runtimes, &ServeConfig::default()).expect("serve");
        // After the loop the live histogram equals the last published
        // snapshot, bit for bit per query.
        let published = registry.load(0);
        let hist = runtimes[0].trainer.hist();
        for q in runtimes[0].serve.queries() {
            assert_eq!(
                published.estimate(q.rect()).to_bits(),
                CardinalityEstimator::estimate(hist, q.rect()).to_bits()
            );
        }
    }

    #[test]
    fn serve_many_tenants_end_to_end() {
        let mut runtimes = [volatile(41), volatile(43), volatile(47)];
        let mut registry = Registry::new();
        let cfg = ServeConfig { readers: 2, batch: 24, republish_every: 10, trainer_workers: 2 };
        let report = serve(&mut registry, &mut runtimes, &cfg).expect("serve");

        assert_eq!(report.tenants.len(), 3);
        for (id, t) in report.tenants.iter().enumerate() {
            assert_eq!(t.final_epoch, registry.tenant_epoch(id));
            assert_eq!(t.final_epoch, 1 + t.publishes, "tenant {id} epochs");
            assert!(t.publishes >= 2, "tenant {id} republished");
            assert!(t.answered >= 1, "tenant {id} was served");
            assert_eq!(t.timeline.rows.len() as u64, t.final_epoch);
            assert_eq!(
                t.timeline.rows.iter().map(|r| r.answered).sum::<u64>(),
                t.answered,
                "tenant {id} timeline accounts for every estimate"
            );
        }
        for r in &report.readers {
            assert!(r.answered >= 1);
            assert!(!r.epochs.is_empty());
        }
        assert!(report.answered() >= cfg.batch as u64);
        assert!(report.shed_by_tenant.iter().all(|&s| s == 0));
        assert_eq!(report.engine.shed_requests, 0);
        assert!(report.engine.services > 0);

        // After the run, routing a mixed batch equals per-tenant answers
        // from the final snapshots, bit for bit.
        let batch: Vec<(TenantId, Rect)> = runtimes
            .iter()
            .enumerate()
            .flat_map(|(id, rt)| {
                rt.serve.queries().iter().take(10).map(move |q| (id, q.rect().clone()))
            })
            .collect();
        let mut routed = Vec::new();
        registry.estimate_batch_routed(&batch, &mut routed).expect("valid batch");
        for (j, (id, q)) in batch.iter().enumerate() {
            let direct = registry.load(*id).estimate(q);
            assert_eq!(routed[j].to_bits(), direct.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "is 2-d but the query is 1-d")]
    fn serve_refuses_unroutable_workloads_before_starting() {
        let mut rt = volatile(97);
        let line = Rect::from_bounds(&[0.0], &[100.0]);
        rt.serve = WorkloadSpec::paper(0.01, 5).generate(&line, None);
        let _ = serve(&mut Registry::new(), &mut [rt], &ServeConfig::default());
    }

    sth_platform::check! {
        cases = 3;

        /// Coalescing is invisible across tenants: mixed batches split by
        /// `route_batch` and pushed through the engine (whatever the
        /// coalescing cap groups together) answer bit-identically to
        /// asking each tenant's snapshot directly, query by query.
        #[test]
        fn coalesced_mixed_engine_batches_are_bit_identical(
            request_len in 1usize..5,
            coalesce in 1usize..97,
        ) {
            use sth_platform::check::prelude::*;
            use sth_serve::route_batch;

            let mut reg = Registry::new();
            for seed in [61u64, 67, 71] {
                let (mut hist, train, _, index) = fixture(seed);
                for q in train.queries().iter().take(20) {
                    hist.refine(q.rect(), index.as_ref());
                }
                reg.register(TenantKey::new(format!("t{seed}"), vec![0, 1]), &hist);
            }
            let mixed: Vec<(TenantId, Rect)> = (0..36)
                .map(|i| {
                    let lo = (i % 9) as f64 * 8.0;
                    (i % 3, Rect::from_bounds(&[lo, lo * 0.5], &[lo + 18.0, lo * 0.5 + 25.0]))
                })
                .collect();
            let cfg = EngineConfig { threads: 2, coalesce, deadline: None };
            let (report, injected) = sth_serve::run_open(&reg.backend(), &cfg, true, |inj| {
                let mut injected = Vec::new();
                // Requests follow the routing split of fixed-size mixed
                // batches, exactly like the closed loop generates them.
                for chunk in mixed.chunks(request_len * 3) {
                    for (tenant, idxs) in route_batch(chunk) {
                        let rects: Vec<Rect> =
                            idxs.iter().map(|&j| chunk[j].1.clone()).collect();
                        let slot = inj.inject(tenant, rects.clone());
                        injected.push((tenant, rects, slot));
                    }
                }
                injected
            });
            prop_assert_eq!(report.shed_total(), 0);
            prop_assert_eq!(report.answered_total(), mixed.len() as u64);
            let results = report.results.expect("capture was on");
            for (tenant, rects, slot) in injected {
                let snap = reg.load(tenant);
                for (k, q) in rects.iter().enumerate() {
                    prop_assert_eq!(
                        results[slot + k].to_bits(),
                        snap.estimate(q).to_bits(),
                        "tenant {} slot {} drifted through the engine",
                        tenant,
                        slot + k
                    );
                }
            }
        }
    }
}
