//! The poll/reactor engine. See the crate docs for the model; this module
//! holds the machinery.
//!
//! ## Termination protocols
//!
//! **Closed loop** ([`serve_closed`]): streams replay a fixed stream until
//! a trainer raises `done`. A stream's generator reads the flag *before*
//! slicing its next batch; the batch generated after the flag is its
//! final one, so every stream provably serves from the final published
//! epoch. The visibility chain: the trainer's publish happens-before its
//! `done.store(Release)`; the generator's `done.load(Acquire)` on a hit
//! happens-before its queue push (mutex release); the servicing thread's
//! queue pop (mutex acquire) happens-before its `load_if_newer` epoch
//! read — which therefore sees the final epoch and repins.
//!
//! **Open loop** ([`run_open`]): a caller-side producer injects requests;
//! the engine drains until the producer returned *and* no request is
//! pending. A producer panic still releases the engine (stop-on-drop
//! guard), so the caller's unwind is never converted into a hang.
//!
//! ## Panic protocol
//!
//! Every engine thread carries a flight guard that, on unwind, first
//! raises the shared `aborted` flag (so sibling threads exit their poll
//! loops instead of waiting for work that will never complete) and then —
//! exactly once per run, whichever thread gets there first — dumps the
//! flight recorder with the owning stream/tenant in the reason.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sth_geometry::Rect;
use sth_histogram::{FrozenHistogram, KERNEL_MIN_BATCH};
use sth_platform::obs::{self, ValueHist};
use sth_platform::par;
use sth_platform::snap::{SnapshotCell, SnapshotGuard};
use sth_query::Estimator;

use crate::timeline::{counter_marks, EpochRow};

/// Dense tenant handle: an index into the backend's tenant table. The
/// single-tenant backends use id 0 everywhere.
pub type TenantId = usize;

/// Groups a mixed-tenant batch by tenant: ascending tenant id, each with
/// the input positions of its queries in input order. The routing split
/// behind the engine's request generation and the registry's
/// `estimate_batch_routed`.
pub fn route_batch(batch: &[(TenantId, Rect)]) -> BTreeMap<TenantId, Vec<usize>> {
    let mut groups: BTreeMap<TenantId, Vec<usize>> = BTreeMap::new();
    for (j, (id, _)) in batch.iter().enumerate() {
        groups.entry(*id).or_default().push(j);
    }
    groups
}

/// One pinned snapshot: everything the engine needs to answer from it.
///
/// Implementations are snapshot guards — cheap to hold, alive for as long
/// as the engine caches them regardless of later publishes.
pub trait Pinned {
    /// The publish epoch of this snapshot (per tenant).
    fn epoch(&self) -> u64;

    /// Estimates every query; clears then fills `out` (the estimator
    /// zoo's contract).
    fn estimate_batch(&self, queries: &[Rect], out: &mut Vec<f64>);

    /// Structural audit of the snapshot, run on every *fresh* pin under
    /// `STH_AUDIT=1`.
    fn check_invariants(&self) -> Result<(), String>;
}

/// A source of pinned snapshots, one per tenant. The engine is generic
/// over this — snapshot cells ([`CellBackend`]) or a test mock plug in
/// the same way.
pub trait Backend: Sync {
    /// The pin type this backend hands out.
    type Pinned: Pinned;

    /// Number of tenants (= request queues). Must be stable for the run.
    fn tenant_count(&self) -> usize;

    /// Pins the tenant's current snapshot if its epoch differs from
    /// `seen`; `None` means the caller's cached pin (at epoch `seen`) is
    /// still current. `seen = 0` is the "nothing cached" sentinel and
    /// always pins.
    fn repin(&self, tenant: TenantId, seen: u64) -> Option<Self::Pinned>;
}

/// The snapshot-cell backend: tenant `t` is `cells[t]`, one
/// [`SnapshotCell`] of [`FrozenHistogram`] per tenant. A one-tenant
/// caller passes `std::slice::from_ref(&cell)`; a registry passes all of
/// its cells.
pub struct CellBackend<'a> {
    cells: &'a [SnapshotCell<FrozenHistogram>],
}

impl<'a> CellBackend<'a> {
    /// Wraps snapshot cells as a backend with one tenant per cell.
    pub fn new(cells: &'a [SnapshotCell<FrozenHistogram>]) -> Self {
        Self { cells }
    }
}

impl Backend for CellBackend<'_> {
    type Pinned = SnapshotGuard<FrozenHistogram>;

    fn tenant_count(&self) -> usize {
        self.cells.len()
    }

    fn repin(&self, tenant: TenantId, seen: u64) -> Option<Self::Pinned> {
        self.cells[tenant].load_if_newer(seen)
    }
}

impl Pinned for SnapshotGuard<FrozenHistogram> {
    fn epoch(&self) -> u64 {
        SnapshotGuard::epoch(self)
    }

    fn estimate_batch(&self, queries: &[Rect], out: &mut Vec<f64>) {
        Estimator::estimate_batch(&**self, queries, out)
    }

    fn check_invariants(&self) -> Result<(), String> {
        FrozenHistogram::check_invariants(self)
    }
}

/// Default coalescing cap: several kernel-sized batches, so coalesced
/// services ride the lane kernel with headroom while individual requests
/// never wait behind an unboundedly large service.
pub const DEFAULT_COALESCE: usize = 8 * KERNEL_MIN_BATCH;

/// Engine knobs. [`EngineConfig::from_env`] reads the `STH_SERVE_*`
/// gates; the serve entry points use that by default.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Engine threads. 0 = auto: `min(streams, worker_count)` for the
    /// closed loop (matching the old thread-per-reader footprint),
    /// [`par::worker_count`] for the open loop.
    pub threads: usize,
    /// Maximum queries per coalesced service. 1 disables coalescing
    /// (every request is served alone).
    pub coalesce: usize,
    /// Queue-wait deadline: requests that waited longer are shed whole.
    /// `None` disables admission control (nothing is ever shed).
    pub deadline: Option<Duration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { threads: 0, coalesce: DEFAULT_COALESCE, deadline: None }
    }
}

impl EngineConfig {
    /// Reads the engine gates from the environment:
    /// `STH_SERVE_THREADS` (0 = auto), `STH_SERVE_COALESCE` (floor 1;
    /// 1 serves every request alone), and `STH_SERVE_DEADLINE_US` (0 or
    /// unset = disabled).
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Ok(v) = std::env::var("STH_SERVE_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                cfg.threads = n;
            }
        }
        if let Ok(v) = std::env::var("STH_SERVE_COALESCE") {
            if let Ok(n) = v.parse::<usize>() {
                cfg.coalesce = n.max(1);
            }
        }
        if let Ok(v) = std::env::var("STH_SERVE_DEADLINE_US") {
            if let Ok(us) = v.parse::<u64>() {
                cfg.deadline = if us > 0 { Some(Duration::from_micros(us)) } else { None };
            }
        }
        cfg
    }
}

/// What one logical stream (closed loop) did. One entry per stream in
/// [`EngineRun::streams`]; the eval reports expose them as their
/// per-reader tallies.
#[derive(Clone, Debug, Default)]
pub struct ReaderStats {
    /// Mixed batches completed (all of a batch's requests answered or
    /// shed).
    pub batches: u64,
    /// Individual estimates answered.
    pub answered: u64,
    /// Requests answered from audited snapshots under `STH_AUDIT` (the
    /// structural check itself runs once per fresh pin).
    pub audited: u64,
    /// Individual estimates shed by deadline admission control.
    pub shed: u64,
    /// Distinct snapshot epochs this stream was served from, ascending
    /// (each tenant counts its own epochs; a mixed stream pools them).
    pub epochs: Vec<u64>,
}

/// Aggregate engine behavior for one run: how the multiplexing, pin
/// caching, and coalescing actually played out.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Engine threads the run used.
    pub threads: usize,
    /// `estimate_batch` services executed.
    pub services: u64,
    /// Services that answered more than one request — the coalescing win
    /// counter.
    pub coalesced_services: u64,
    /// Fresh snapshot pins (cache misses); cached-pin services don't
    /// touch the cell.
    pub pins: u64,
    /// Structural audits run (one per fresh pin under `STH_AUDIT`).
    pub audits: u64,
    /// Requests shed whole by deadline admission control.
    pub shed_requests: u64,
    /// Individual queries inside those shed requests.
    pub shed_queries: u64,
    /// Largest single service, in queries.
    pub max_service_queries: u64,
}

/// Outcome of one [`serve_closed`] run.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// Per-stream tallies, stream order.
    pub streams: Vec<ReaderStats>,
    /// Per-tenant epoch attribution: `tenant_rows[t]` holds one map per
    /// engine thread, keyed by that tenant's snapshot epoch — the shape
    /// [`crate::EpochTimeline::assemble`] wants.
    pub tenant_rows: Vec<Vec<BTreeMap<u64, EpochRow>>>,
    /// Run-wide attribution, one map per engine thread: every tenant's
    /// rows pooled under the answering snapshot's epoch. For a one-tenant
    /// backend this equals `tenant_rows[0]`.
    pub composite_rows: Vec<BTreeMap<u64, EpochRow>>,
    /// Merged obs delta of every engine thread.
    pub obs: obs::Snapshot,
    /// Aggregate engine behavior.
    pub stats: EngineStats,
    /// Queries offered per tenant.
    pub offered: Vec<u64>,
    /// Queries answered per tenant.
    pub answered: Vec<u64>,
    /// Queries shed per tenant. `offered == answered + shed`, always.
    pub shed: Vec<u64>,
}

/// Outcome of one [`run_open`] run.
#[derive(Clone, Debug)]
pub struct OpenReport {
    /// Queries offered per tenant.
    pub offered: Vec<u64>,
    /// Queries answered per tenant.
    pub answered: Vec<u64>,
    /// Queries shed per tenant. `offered == answered + shed`, always.
    pub shed: Vec<u64>,
    /// Request latency (inject to answered, queue wait included), in
    /// nanoseconds. Shed requests are not latency samples.
    pub latency: ValueHist,
    /// With capture enabled: every injected query's estimate at its
    /// injection slot (`f64::NAN` where the request was shed).
    pub results: Option<Vec<f64>>,
    /// Aggregate engine behavior.
    pub stats: EngineStats,
    /// Merged obs delta of every engine thread.
    pub obs: obs::Snapshot,
}

impl OpenReport {
    /// Total queries offered.
    pub fn offered_total(&self) -> u64 {
        self.offered.iter().sum()
    }

    /// Total queries answered.
    pub fn answered_total(&self) -> u64 {
        self.answered.iter().sum()
    }

    /// Total queries shed.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }
}

/// Sentinel stream id for injected (open-loop) requests.
const INJECTED: usize = usize::MAX;
/// Sentinel slot for requests without result capture.
const NO_SLOT: usize = usize::MAX;

struct Request {
    /// Owning closed-loop stream, or [`INJECTED`].
    stream: usize,
    tenant: TenantId,
    rects: Vec<Rect>,
    offered_at: Instant,
    /// Capture base index into the shared results buffer, or [`NO_SLOT`].
    slot: usize,
}

struct StreamState {
    cursor: usize,
    /// Requests of the current mixed batch still in queues or in service.
    inflight: usize,
    /// Queries answered so far for the current mixed batch (the
    /// `ServeBatchFill` sample at completion).
    batch_filled: u64,
    /// The current mixed batch was generated after the done flag: the
    /// stream drains when it completes.
    final_batch: bool,
    drained: bool,
    stats: ReaderStats,
    epochs: BTreeSet<u64>,
}

struct Shared<'a, B: Backend> {
    backend: &'a B,
    coalesce: usize,
    deadline: Option<Duration>,
    // Closed loop.
    stream_src: &'a [(TenantId, Rect)],
    batch: usize,
    done: Option<&'a AtomicBool>,
    streams: Vec<Mutex<StreamState>>,
    live_streams: AtomicUsize,
    // Open loop.
    stop: AtomicBool,
    pending: AtomicU64,
    capture: Option<Mutex<Vec<f64>>>,
    latency: Mutex<ValueHist>,
    // Both.
    queues: Vec<Mutex<VecDeque<Request>>>,
    offered: Vec<AtomicU64>,
    answered: Vec<AtomicU64>,
    shed: Vec<AtomicU64>,
    services: AtomicU64,
    coalesced: AtomicU64,
    pins: AtomicU64,
    audits: AtomicU64,
    shed_requests: AtomicU64,
    shed_queries: AtomicU64,
    max_service: AtomicU64,
    aborted: AtomicBool,
    dumped: AtomicBool,
}

fn lock<'m, T>(m: &'m Mutex<T>) -> MutexGuard<'m, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl<'a, B: Backend> Shared<'a, B> {
    fn new(
        backend: &'a B,
        cfg: &EngineConfig,
        stream_src: &'a [(TenantId, Rect)],
        batch: usize,
        done: Option<&'a AtomicBool>,
        streams: usize,
        capture: bool,
    ) -> Self {
        let tenants = backend.tenant_count();
        assert!(tenants >= 1, "backend must have at least one tenant");
        Self {
            backend,
            coalesce: cfg.coalesce.max(1),
            deadline: cfg.deadline,
            stream_src,
            batch,
            done,
            streams: (0..streams)
                .map(|s| {
                    Mutex::new(StreamState {
                        // Stagger starting offsets so streams exercise
                        // different query mixes against the same
                        // snapshots (the old readers' discipline).
                        cursor: if stream_src.is_empty() {
                            0
                        } else {
                            (s * batch) % stream_src.len()
                        },
                        inflight: 0,
                        batch_filled: 0,
                        final_batch: false,
                        drained: false,
                        stats: ReaderStats::default(),
                        epochs: BTreeSet::new(),
                    })
                })
                .collect(),
            live_streams: AtomicUsize::new(streams),
            stop: AtomicBool::new(false),
            pending: AtomicU64::new(0),
            capture: capture.then(|| Mutex::new(Vec::new())),
            latency: Mutex::new(ValueHist::new()),
            queues: (0..tenants).map(|_| Mutex::new(VecDeque::new())).collect(),
            offered: (0..tenants).map(|_| AtomicU64::new(0)).collect(),
            answered: (0..tenants).map(|_| AtomicU64::new(0)).collect(),
            shed: (0..tenants).map(|_| AtomicU64::new(0)).collect(),
            services: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            pins: AtomicU64::new(0),
            audits: AtomicU64::new(0),
            shed_requests: AtomicU64::new(0),
            shed_queries: AtomicU64::new(0),
            max_service: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
            dumped: AtomicBool::new(false),
        }
    }

    fn engine_stats(&self, threads: usize) -> EngineStats {
        EngineStats {
            threads,
            services: self.services.load(Ordering::Acquire),
            coalesced_services: self.coalesced.load(Ordering::Acquire),
            pins: self.pins.load(Ordering::Acquire),
            audits: self.audits.load(Ordering::Acquire),
            shed_requests: self.shed_requests.load(Ordering::Acquire),
            shed_queries: self.shed_queries.load(Ordering::Acquire),
            max_service_queries: self.max_service.load(Ordering::Acquire),
        }
    }

    fn per_tenant(&self, v: &[AtomicU64]) -> Vec<u64> {
        v.iter().map(|a| a.load(Ordering::Acquire)).collect()
    }
}

/// Per-thread scratch: the pin cache, epoch attribution maps, and the
/// concat/answer buffers reused across services.
struct ThreadCtx<B: Backend> {
    pins: Vec<Option<B::Pinned>>,
    tenant_rows: Vec<BTreeMap<u64, EpochRow>>,
    composite_rows: BTreeMap<u64, EpochRow>,
    buf: Vec<Rect>,
    out: Vec<f64>,
    audit: bool,
}

type ThreadOut = (obs::Snapshot, Vec<BTreeMap<u64, EpochRow>>, BTreeMap<u64, EpochRow>);

/// The engine's dump-on-panic guard. Hoisted here (satellite bugfix) so a
/// panic in any engine thread dumps the flight recorder exactly once,
/// naming the stream/tenant whose service was unwinding — and releases
/// the sibling threads via `aborted` either way.
struct EngineFlight<'a> {
    thread: usize,
    current: &'a Cell<(usize, TenantId)>,
    aborted: &'a AtomicBool,
    dumped: &'a AtomicBool,
}

impl Drop for EngineFlight<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        // Siblings first: they poll `aborted` every loop turn, so the
        // scope join below this frame cannot deadlock on them.
        self.aborted.store(true, Ordering::Release);
        if !self.dumped.swap(true, Ordering::AcqRel) {
            let (stream, tenant) = self.current.get();
            let reason = if tenant == usize::MAX {
                format!("panic in serve engine thread {} (idle)", self.thread)
            } else if stream == INJECTED {
                format!(
                    "panic in serve engine thread {} (injected request, tenant {tenant})",
                    self.thread
                )
            } else {
                format!(
                    "panic in serve engine thread {} (stream {stream}, tenant {tenant})",
                    self.thread
                )
            };
            obs::flight::dump(&reason);
        }
    }
}

fn engine_thread<B: Backend>(shared: &Shared<'_, B>, ti: usize, threads: usize) -> ThreadOut {
    let obs_before = obs::snapshot();
    let tenants = shared.queues.len();
    let current = Cell::new((INJECTED, usize::MAX));
    let _flight = EngineFlight {
        thread: ti,
        current: &current,
        aborted: &shared.aborted,
        dumped: &shared.dumped,
    };
    let mut ctx = ThreadCtx::<B> {
        pins: (0..tenants).map(|_| None).collect(),
        tenant_rows: vec![BTreeMap::new(); tenants],
        composite_rows: BTreeMap::new(),
        buf: Vec::new(),
        out: Vec::new(),
        audit: obs::audit_enabled(),
    };
    loop {
        if shared.aborted.load(Ordering::Acquire) {
            break;
        }
        let mut progressed = false;
        if shared.done.is_some() {
            progressed |= generate_pass(shared, ti, threads);
        }
        // Service pass: at most one coalesced batch per tenant per turn,
        // rotated by thread index, so no tenant can starve the rest.
        for k in 0..tenants {
            let t = (ti + k) % tenants;
            let reqs = pop_coalesced(shared, t);
            if reqs.is_empty() {
                continue;
            }
            progressed = true;
            serve_batch(shared, &mut ctx, &current, t, reqs);
        }
        let finished = match shared.done {
            // All streams drained their final batches: the queues are
            // necessarily empty.
            Some(_) => shared.live_streams.load(Ordering::Acquire) == 0,
            // Producer returned and every injected request completed.
            None => {
                shared.stop.load(Ordering::Acquire) && shared.pending.load(Ordering::Acquire) == 0
            }
        };
        if finished {
            break;
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    (obs::snapshot().delta(&obs_before), ctx.tenant_rows, ctx.composite_rows)
}

/// Generates the next mixed batch for every idle stream this thread owns
/// (streams are dealt round-robin by index). Returns whether anything was
/// generated.
fn generate_pass<B: Backend>(shared: &Shared<'_, B>, ti: usize, threads: usize) -> bool {
    let done = shared.done.expect("generate_pass is closed-loop only");
    let n = shared.stream_src.len();
    let mut progressed = false;
    let mut s = ti;
    while s < shared.streams.len() {
        let mut st = lock(&shared.streams[s]);
        if st.drained || st.inflight > 0 {
            s += threads;
            continue;
        }
        // Read the flag *before* slicing: a batch generated after the
        // flag is the stream's final one, and the visibility chain in
        // the module docs guarantees it is served from the final epoch.
        let finished = done.load(Ordering::Acquire);
        let end = (st.cursor + shared.batch).min(n);
        let slice = &shared.stream_src[st.cursor..end];
        st.cursor = end % n;
        st.final_batch = finished;
        st.batch_filled = 0;
        let groups = route_batch(slice);
        // Count the whole batch in flight before pushing any request, so
        // an early completion cannot observe inflight == 0 prematurely.
        st.inflight = groups.len();
        drop(st);
        let now = Instant::now();
        for (tenant, idxs) in groups {
            shared.offered[tenant].fetch_add(idxs.len() as u64, Ordering::Relaxed);
            let rects: Vec<Rect> = idxs.iter().map(|&j| slice[j].1.clone()).collect();
            lock(&shared.queues[tenant]).push_back(Request {
                stream: s,
                tenant,
                rects,
                offered_at: now,
                slot: NO_SLOT,
            });
        }
        progressed = true;
        s += threads;
    }
    progressed
}

/// Pops a coalesced run of requests off one tenant's queue: the front
/// request always, then more while the query total stays within the
/// coalescing cap.
fn pop_coalesced<B: Backend>(shared: &Shared<'_, B>, tenant: TenantId) -> Vec<Request> {
    let mut q = lock(&shared.queues[tenant]);
    let mut taken = Vec::new();
    let mut total = 0usize;
    while let Some(front) = q.front() {
        let len = front.rects.len();
        if !taken.is_empty() && total + len > shared.coalesce {
            break;
        }
        total += len;
        taken.push(q.pop_front().expect("front() was Some"));
        if total >= shared.coalesce {
            break;
        }
    }
    taken
}

/// Serves one coalesced batch for one tenant: shed expired requests,
/// refresh the cached pin if the epoch moved, answer everything in a
/// single `estimate_batch` call, then attribute and complete each request
/// individually.
fn serve_batch<B: Backend>(
    shared: &Shared<'_, B>,
    ctx: &mut ThreadCtx<B>,
    current: &Cell<(usize, TenantId)>,
    tenant: TenantId,
    mut reqs: Vec<Request>,
) {
    if let Some(deadline) = shared.deadline {
        let now = Instant::now();
        let mut kept = Vec::with_capacity(reqs.len());
        for req in reqs {
            if now.duration_since(req.offered_at) > deadline {
                shed_request(shared, req, now);
            } else {
                kept.push(req);
            }
        }
        reqs = kept;
        if reqs.is_empty() {
            return;
        }
    }
    current.set((reqs[0].stream, tenant));
    let seen = ctx.pins[tenant].as_ref().map_or(0, |p| p.epoch());
    if let Some(pin) = shared.backend.repin(tenant, seen) {
        shared.pins.fetch_add(1, Ordering::Relaxed);
        if ctx.audit {
            obs::incr(obs::Counter::AuditChecks);
            shared.audits.fetch_add(1, Ordering::Relaxed);
            if let Err(e) = pin.check_invariants() {
                panic!(
                    "STH_AUDIT: torn snapshot for tenant {tenant} at epoch {}: {e}",
                    pin.epoch()
                );
            }
        }
        ctx.pins[tenant] = Some(pin);
    }
    let pin = ctx.pins[tenant].as_ref().expect("repin(seen=0) must pin on first use");
    let epoch = pin.epoch();
    ctx.buf.clear();
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(reqs.len());
    for req in &reqs {
        let start = ctx.buf.len();
        ctx.buf.extend(req.rects.iter().cloned());
        ranges.push(start..ctx.buf.len());
    }
    let queries = ctx.buf.len() as u64;
    let (kernel0, pruned0, _) = counter_marks();
    let t0 = Instant::now();
    pin.estimate_batch(&ctx.buf, &mut ctx.out);
    let done_at = Instant::now();
    let (kernel1, pruned1, _) = counter_marks();
    shared.services.fetch_add(1, Ordering::Relaxed);
    obs::incr(obs::Counter::EngineServices);
    if reqs.len() > 1 {
        shared.coalesced.fetch_add(1, Ordering::Relaxed);
        obs::incr(obs::Counter::EngineCoalescedBatches);
    }
    shared.max_service.fetch_max(queries, Ordering::Relaxed);
    if obs::event_enabled() {
        obs::event(
            "engine_service",
            &[
                ("tenant", obs::FieldValue::Int(tenant as u64)),
                ("epoch", obs::FieldValue::Int(epoch)),
                ("requests", obs::FieldValue::Int(reqs.len() as u64)),
                ("queries", obs::FieldValue::Int(queries)),
            ],
        );
    }
    // Kernel work is per service, not per request: attribute it once so
    // the timelines sum to the true counter deltas.
    for rows in [&mut ctx.tenant_rows[tenant], &mut ctx.composite_rows] {
        let row =
            rows.entry(epoch).or_insert_with(|| EpochRow { epoch, ..EpochRow::default() });
        row.kernel_calls += kernel1 - kernel0;
        row.lanes_pruned += pruned1 - pruned0;
    }
    for (req, range) in reqs.iter().zip(&ranges) {
        let ests = &ctx.out[range.clone()];
        for (est, q) in ests.iter().zip(&req.rects) {
            assert!(
                est.is_finite() && *est >= 0.0,
                "bad estimate {est} for tenant {tenant} query {q} at epoch {epoch}"
            );
        }
        let n = ests.len() as u64;
        shared.answered[tenant].fetch_add(n, Ordering::Relaxed);
        obs::record_hist(
            obs::HistKind::ServeQueueNs,
            t0.duration_since(req.offered_at).as_nanos() as u64,
        );
        // Request latency includes queue wait: offered-to-answered is
        // what a caller of the serving tier experiences.
        let latency_ns = done_at.duration_since(req.offered_at).as_nanos() as u64;
        for rows in [&mut ctx.tenant_rows[tenant], &mut ctx.composite_rows] {
            let row =
                rows.entry(epoch).or_insert_with(|| EpochRow { epoch, ..EpochRow::default() });
            row.batches += 1;
            row.answered += n;
            row.batch_ns.record(latency_ns);
        }
        if req.stream == INJECTED {
            lock(&shared.latency).record(latency_ns);
            if req.slot != NO_SLOT {
                if let Some(cap) = shared.capture.as_ref() {
                    lock(cap)[req.slot..req.slot + ests.len()].copy_from_slice(ests);
                }
            }
        }
        complete_request(shared, req.stream, n, epoch, false, ctx.audit);
    }
    current.set((INJECTED, usize::MAX));
}

/// Drops one expired request whole, with full per-tenant accounting — a
/// shed is never silent.
fn shed_request<B: Backend>(shared: &Shared<'_, B>, req: Request, now: Instant) {
    let n = req.rects.len() as u64;
    shared.shed[req.tenant].fetch_add(n, Ordering::Relaxed);
    shared.shed_requests.fetch_add(1, Ordering::Relaxed);
    shared.shed_queries.fetch_add(n, Ordering::Relaxed);
    obs::add(obs::Counter::EngineShedQueries, n);
    if obs::event_enabled() {
        obs::event(
            "engine_shed",
            &[
                ("tenant", obs::FieldValue::Int(req.tenant as u64)),
                ("queries", obs::FieldValue::Int(n)),
                (
                    "waited_ns",
                    obs::FieldValue::Int(now.duration_since(req.offered_at).as_nanos() as u64),
                ),
            ],
        );
    }
    complete_request(shared, req.stream, n, 0, true, false);
}

/// Books one finished (answered or shed) request against its owner: the
/// stream's tallies for the closed loop, the pending count for the open
/// loop. Completing a stream's final batch drains the stream.
fn complete_request<B: Backend>(
    shared: &Shared<'_, B>,
    stream: usize,
    n: u64,
    epoch: u64,
    shed: bool,
    audit: bool,
) {
    if stream == INJECTED {
        shared.pending.fetch_sub(1, Ordering::AcqRel);
        return;
    }
    let mut st = lock(&shared.streams[stream]);
    if shed {
        st.stats.shed += n;
    } else {
        st.stats.answered += n;
        st.batch_filled += n;
        if audit {
            st.stats.audited += 1;
        }
        st.epochs.insert(epoch);
    }
    st.inflight -= 1;
    if st.inflight == 0 {
        obs::record_hist(obs::HistKind::ServeBatchFill, st.batch_filled);
        st.stats.batches += 1;
        if st.final_batch {
            st.drained = true;
            drop(st);
            shared.live_streams.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

fn finish_run<B: Backend>(shared: Shared<'_, B>, threads: usize, outs: Vec<ThreadOut>) -> EngineRun {
    let tenants = shared.queues.len();
    let stats = shared.engine_stats(threads);
    let offered = shared.per_tenant(&shared.offered);
    let answered = shared.per_tenant(&shared.answered);
    let shed = shared.per_tenant(&shared.shed);
    let mut merged = obs::Snapshot::default();
    let mut tenant_rows: Vec<Vec<BTreeMap<u64, EpochRow>>> =
        (0..tenants).map(|_| Vec::with_capacity(outs.len())).collect();
    let mut composite_rows = Vec::with_capacity(outs.len());
    for (delta, t_rows, c_rows) in outs {
        merged.merge(&delta);
        for (t, rows) in t_rows.into_iter().enumerate() {
            tenant_rows[t].push(rows);
        }
        composite_rows.push(c_rows);
    }
    let streams = shared
        .streams
        .into_iter()
        .map(|m| {
            let mut st = m.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner());
            st.stats.epochs = st.epochs.iter().copied().collect();
            st.stats
        })
        .collect();
    EngineRun { streams, tenant_rows, composite_rows, obs: merged, stats, offered, answered, shed }
}

/// Runs the closed loop: `streams` logical readers replay the mixed
/// `stream` in batches of `batch` until `done` is raised, then each
/// drains one final batch (provably served from the final epoch).
///
/// Every engine thread bumps `readers_started` once at startup — the
/// handshake the trainers use to hold the epoch-1 snapshot until the
/// engine is live.
pub fn serve_closed<B: Backend>(
    backend: &B,
    stream: &[(TenantId, Rect)],
    streams: usize,
    batch: usize,
    cfg: &EngineConfig,
    done: &AtomicBool,
    readers_started: &AtomicU64,
) -> EngineRun {
    assert!(streams >= 1, "serve_closed needs at least one stream");
    assert!(batch >= 1, "serve_closed needs a non-empty batch");
    assert!(!stream.is_empty(), "nothing to serve");
    let tenants = backend.tenant_count();
    assert!(
        stream.iter().all(|(t, _)| *t < tenants),
        "stream routes to a tenant the backend does not have"
    );
    let threads = if cfg.threads >= 1 { cfg.threads } else { streams.min(par::worker_count()) };
    let shared = Shared::new(backend, cfg, stream, batch, Some(done), streams, false);
    let outs = par::scope_workers(threads, |ti| {
        readers_started.fetch_add(1, Ordering::AcqRel);
        engine_thread(&shared, ti, threads)
    });
    finish_run(shared, threads, outs)
}

/// Injects requests into a running open-loop engine. Handed to the
/// producer closure of [`run_open`]; sends are queue pushes, answered by
/// whichever engine thread services that tenant's queue next.
pub struct Injector<'scope, 'a, B: Backend> {
    shared: &'scope Shared<'a, B>,
}

impl<B: Backend> Injector<'_, '_, B> {
    /// Offers one request of one or more queries for `tenant`. Returns
    /// the request's capture slot (its queries' base index in
    /// [`OpenReport::results`]), or [`usize::MAX`] when capture is off.
    pub fn inject(&self, tenant: TenantId, rects: Vec<Rect>) -> usize {
        assert!(tenant < self.shared.queues.len(), "unknown tenant {tenant}");
        assert!(!rects.is_empty(), "empty request");
        let n = rects.len();
        let slot = match self.shared.capture.as_ref() {
            Some(cap) => {
                let mut cap = lock(cap);
                let base = cap.len();
                cap.resize(base + n, f64::NAN);
                base
            }
            None => NO_SLOT,
        };
        self.shared.offered[tenant].fetch_add(n as u64, Ordering::Relaxed);
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        lock(&self.shared.queues[tenant]).push_back(Request {
            stream: INJECTED,
            tenant,
            rects,
            offered_at: Instant::now(),
            slot,
        });
        slot
    }

    /// Number of injected requests not yet answered or shed.
    pub fn pending(&self) -> u64 {
        self.shared.pending.load(Ordering::Acquire)
    }
}

/// Raises the open loop's stop flag when dropped, so a panicking producer
/// still releases the engine threads.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Runs the open loop: spawns the engine threads, runs `producer` on the
/// calling thread with an [`Injector`], and drains every injected request
/// after the producer returns. With `capture` set, every query's estimate
/// is recorded at its injection slot in [`OpenReport::results`].
pub fn run_open<B, P, R>(backend: &B, cfg: &EngineConfig, capture: bool, producer: P) -> (OpenReport, R)
where
    B: Backend,
    P: FnOnce(&Injector<'_, '_, B>) -> R,
{
    let threads = if cfg.threads >= 1 { cfg.threads } else { par::worker_count() };
    let mut shared = Shared::new(backend, cfg, &[], 1, None, 0, capture);
    let (producer_out, outs) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|ti| {
                let shared = &shared;
                scope.spawn(move || engine_thread(shared, ti, threads))
            })
            .collect();
        let stop_guard = StopOnDrop(&shared.stop);
        let injector = Injector { shared: &shared };
        let out = producer(&injector);
        drop(stop_guard);
        // Join like `par::scope_workers`: collect everything, then
        // re-raise the first panic with its original payload.
        let mut outs = Vec::with_capacity(handles.len());
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(o) => outs.push(o),
                Err(payload) => panic = Some(payload),
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        (out, outs)
    });
    let results = shared
        .capture
        .take()
        .map(|m| m.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner()));
    let latency = std::mem::take(&mut *lock(&shared.latency));
    let stats = shared.engine_stats(threads);
    let offered = shared.per_tenant(&shared.offered);
    let answered = shared.per_tenant(&shared.answered);
    let shed = shared.per_tenant(&shared.shed);
    let run = finish_run(shared, threads, outs);
    (
        OpenReport {
            offered,
            answered,
            shed,
            latency,
            results,
            stats,
            obs: run.obs,
        },
        producer_out,
    )
}
