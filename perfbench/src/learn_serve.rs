//! `learn_serve`: reads beside writes. Gauss (6-d, 110k tuples) starts
//! from an uninitialized 100-bucket histogram that a fixed stream of 1,000
//! queries trains. One trainer thread then absorbs seeded windows of 250
//! feedback queries durably, each into a fresh store directory, and
//! republishes a frozen snapshot every few queries; meanwhile one
//! closed-loop reader stream of 32-query batches is served by one engine
//! thread.
//!
//! The only workload that exercises the store, freeze/publish and the
//! engine under republish. MineClus does no work here, and 32-query
//! batches skip coalescing.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sth_baselines::TrivialHistogram;
use sth_data::gauss::GaussSpec;
use sth_eval::normalized_absolute_error;
use sth_geometry::Rect;
use sth_histogram::{FrozenHistogram, StHoles};
use sth_index::{KdCountTree, ResultSetCounter};
use sth_platform::obs::ValueHist;
use sth_platform::snap::SnapshotCell;
use sth_query::{CardinalityEstimator, Estimator};
use sth_serve::{serve_closed, EngineConfig, DEFAULT_COALESCE};
use sth_store::vfs::{RealVfs, Vfs};
use sth_store::{DurableTrainer, Store, StoreConfig, StoreError};

use crate::common::{queries, repeat_setup, stream_seed, train, BenchBackend, Outcome, ServeTrace};
use crate::stats::{hist_quantile, median, quantile_us};
use crate::trace::Trace;
use crate::Ctx;

/// What each end-to-end metric measures on this workload.
pub const MEANING: &[(&str, &str)] = &[
    (
        "setup_s",
        "median of 15 set-ups: generate Gauss, index, create the store",
    ),
    (
        "goodput_qps",
        "absorb_qps: feedback queries absorbed durably per second",
    ),
    (
        "latency_p50_us",
        "read latency of one 32-query batch beside the trainer",
    ),
    (
        "nae",
        "Eq. 10 over the first 2,000 window queries, estimated before refine",
    ),
    ("peak_rss_mb", "peak resident set of the process"),
    (
        "ok_frac",
        "1 - fail_frac: store errors and failed checks over operations attempted",
    ),
];

const BUDGET: usize = 100;
/// Queries of the fixed training stream that take the histogram from
/// uninitialized to the state every measured window starts from.
const TRAIN: usize = 1_000;
/// Queries absorbed in one window, each into a fresh store.
const WINDOW: usize = 250;
/// Windows that always run to the end; their 2,000 queries define NAE.
const NAE_WINDOWS: usize = 8;
/// Set-up takes ~25 ms here, so it is repeated more often than on Sky.
const SETUP_REPS: usize = 15;
/// The trainer republishes after this many absorbed queries.
const REPUBLISH_EVERY: usize = 4;
/// Distinct rectangles the reader cycles through.
const READ_POOL: usize = 4_096;
/// Queries per read request: at least `KERNEL_MIN_BATCH`, so reads ride
/// the batch kernel without coalescing.
const READ_BATCH: usize = 32;
/// Queries absorbed through both the composite and the split path to
/// prove they reach the histogram and the files the measured run reached.
const VERIFY_QUERIES: usize = 100;

/// The store snapshots every 64 deltas. The default byte trigger (1 MiB)
/// would snapshot every ~20 deltas here, because each delta carries its
/// query's result rows; every snapshot replaces the MANIFEST by rename,
/// which ext4 turns into a wait on the device (~70 ms on a virtual disk),
/// so absorb throughput would mostly measure the disk.
fn store_config() -> StoreConfig {
    StoreConfig {
        flush_every_deltas: 64,
        flush_every_bytes: 64 << 20,
        retain_generations: 3,
    }
}

fn vfs() -> Arc<dyn Vfs> {
    Arc::new(RealVfs)
}

/// What one window of durable training left behind.
#[derive(Default)]
struct Window {
    done: usize,
    wall_s: f64,
    /// Sums of |estimate − truth| for the histogram and for the trivial
    /// one-bucket histogram.
    err: f64,
    h0_err: f64,
    /// Result rows the queries returned.
    rows: u64,
    /// Golden hash and store bytes after `VERIFY_QUERIES` queries.
    hash_at_verify: u64,
    bytes_at_verify: u64,
    /// Golden hash and store bytes at the end of the window.
    hash: u64,
    bytes: u64,
    flushes: u64,
    publishes: u64,
}

/// The write path of one window. Untraced, the durable trainer owns the
/// histogram and the store, as a user would run it; traced, the loop owns
/// them and does what `DurableTrainer::absorb` does, one public call at a
/// time.
enum Writer {
    Durable(DurableTrainer),
    Split(StHoles, Store, ResultSetCounter),
}

impl Writer {
    fn hist(&self) -> &StHoles {
        match self {
            Writer::Durable(tr) => tr.hist(),
            Writer::Split(hist, _, _) => hist,
        }
    }
}

/// Absorbs `window` into a fresh store at `dir` from `base`, publishing a
/// frozen snapshot to `cell` every few queries, until `stop`. Traced, every
/// call into a layer gets a span numbered from `first_id`.
#[allow(clippy::too_many_arguments)]
fn absorb_window(
    dir: &Path,
    base: &StHoles,
    index: &KdCountTree,
    h0: &TrivialHistogram,
    window: &[Rect],
    cell: &SnapshotCell<FrozenHistogram>,
    stop: Option<Instant>,
    mut trace: Option<&mut Trace>,
    first_id: u64,
) -> Result<Window, StoreError> {
    let mut writer = match trace {
        None => Writer::Durable(DurableTrainer::create(
            dir,
            vfs(),
            store_config(),
            base.clone(),
        )?),
        Some(_) => Writer::Split(
            base.clone(),
            Store::create(dir, vfs(), store_config(), base)?,
            ResultSetCounter::empty(base.ndim()),
        ),
    };
    let mut w = Window::default();
    cell.publish(base.freeze());
    let t_window = Instant::now();
    for (i, q) in window.iter().enumerate() {
        if stop.is_some_and(|s| Instant::now() >= s) {
            break;
        }
        let id = first_id + i as u64;
        let publish = (i + 1) % REPUBLISH_EVERY == 0;
        let (est, truth) = match (&mut writer, trace.as_deref_mut()) {
            (Writer::Durable(tr), _) => {
                let est = tr.hist().estimate(q);
                let report = tr.absorb(q, index)?;
                w.flushes += u64::from(report.flushed_gen.is_some());
                if publish {
                    cell.publish(tr.freeze());
                }
                (est, report.truth)
            }
            (Writer::Split(hist, store, result), Some(t)) => {
                t.begin("loop.absorb", id);
                let est = t.span("sthole.estimate", id, |_| hist.estimate(q));
                let ok = t.span("index.collect", id, |_| {
                    result.refill_from_counter(index, q)
                });
                assert!(ok, "the k-d tree materializes rows");
                let truth = result.len() as f64;
                t.span("store.append", id, |_| store.append_delta(q, result, truth))?;
                t.span("sthole.drill", id, |_| hist.drill_only(q, result));
                t.span("sthole.merge", id, |_| hist.compact_now());
                if store.should_flush() {
                    t.span("store.flush", id, |_| store.flush_snapshot(hist))?;
                    w.flushes += 1;
                }
                t.end();
                if publish {
                    t.begin("loop.publish", id);
                    let frozen = t.span("sthole.freeze", id, |_| hist.freeze());
                    t.span("snap.publish", id, |_| cell.publish(frozen));
                    t.end();
                }
                (est, truth)
            }
            (Writer::Split(..), None) => unreachable!("the split path runs traced"),
        };
        w.publishes += u64::from(publish);
        w.err += (est - truth).abs();
        w.h0_err += (h0.estimate(q) - truth).abs();
        w.rows += truth as u64;
        w.done += 1;
        if i + 1 == VERIFY_QUERIES {
            w.hash_at_verify = writer.hist().golden_hash();
            w.bytes_at_verify = dir_bytes(dir);
        }
    }
    w.wall_s = t_window.elapsed().as_secs_f64();
    w.hash = writer.hist().golden_hash();
    w.bytes = dir_bytes(dir);
    Ok(w)
}

/// A scratch directory inside the output directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(out: &Path, name: &str) -> std::io::Result<Self> {
        let dir = out.join(format!("tmp-{name}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// A fresh, empty subdirectory path (not created).
    fn fresh(&self, name: &str) -> PathBuf {
        let p = self.0.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes of all regular files directly inside `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Raises the reader's stop flag when the trainer ends, even by panic,
/// so the engine cannot wait forever.
struct DoneOnDrop<'a>(&'a AtomicBool);

impl Drop for DoneOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let scratch = match ScratchDir::new(&ctx.out, "learn_serve") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create a store directory: {e}");
            out.check("store_directory_created", false);
            return out;
        }
    };
    let mut phases = Vec::new();
    let ((data, index, mut base), setup_s) = repeat_setup(SETUP_REPS, || {
        let t = Instant::now();
        let data = GaussSpec::paper().generate();
        let generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let index = KdCountTree::build(&data);
        let index_s = t.elapsed().as_secs_f64();
        let base = sth_core::build_uninitialized(&data, BUDGET);
        let dir = scratch.fresh("setup");
        let created = DurableTrainer::create(&dir, vfs(), store_config(), base.clone()).is_ok();
        phases.push((generate_s, index_s, created));
        (data, index, base)
    });
    out.check("store_created", phases.iter().all(|p| p.2));
    let train_s = train(&mut base, &data, &index, TRAIN);
    let h0 = TrivialHistogram::for_dataset(&data);
    let window = |w: usize| queries(&data, WINDOW, stream_seed(ctx.seed, w as u64));
    let reads: Vec<(usize, Rect)> = queries(&data, READ_POOL, stream_seed(ctx.seed, 0x2EAD))
        .into_iter()
        .map(|q| (0, q))
        .collect();

    let origin = Instant::now();
    let stop = origin + ctx.duration();
    let cell = SnapshotCell::new(base.freeze());
    let sink = ServeTrace::new(origin);
    let backend = BenchBackend::new(&cell, ctx.traced.then_some(&sink));
    let done = AtomicBool::new(false);
    let readers_started = AtomicU64::new(0);
    let engine = EngineConfig {
        threads: 1,
        coalesce: DEFAULT_COALESCE,
        deadline: None,
    };
    let mut trace = Trace::new(origin);
    let traced = ctx.traced;

    let ((windows, failure), run, read_s) = std::thread::scope(|s| {
        let trainer = s.spawn(|| {
            let _done = DoneOnDrop(&done);
            while readers_started.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            let mut windows = Vec::new();
            let mut failure = None;
            while windows.len() < NAE_WINDOWS || Instant::now() < stop {
                let k = windows.len();
                let limit = (k >= NAE_WINDOWS).then_some(stop);
                let dir = scratch.fresh(&format!("window-{k}"));
                let t = traced.then_some(&mut trace);
                let id = (k * WINDOW) as u64;
                match absorb_window(&dir, &base, &index, &h0, &window(k), &cell, limit, t, id) {
                    Ok(w) => windows.push(w),
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
                // Window 0's store is reopened once the reader has stopped.
                if k > 0 {
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
            (windows, failure)
        });
        let t = Instant::now();
        let run = serve_closed(
            &backend,
            &reads,
            1,
            READ_BATCH,
            &engine,
            &done,
            &readers_started,
        );
        let read_s = t.elapsed().as_secs_f64();
        (
            trainer.join().expect("trainer thread panicked"),
            run,
            read_s,
        )
    });

    if let Some(e) = &failure {
        eprintln!("perfbench: store error: {e}");
    }
    out.check("store_ok", failure.is_none());
    let answered: u64 = run.answered.iter().sum();
    let offered: u64 = run.offered.iter().sum();
    let shed: u64 = run.shed.iter().sum();
    let absorbed: usize = windows.iter().map(|w| w.done).sum();
    let absorb_s: f64 = windows.iter().map(|w| w.wall_s).sum();
    out.attempted += absorbed as u64 + offered;
    out.failed += shed;
    out.check(
        "answered_plus_shed_equals_offered",
        offered == answered + shed,
    );
    if windows.len() < NAE_WINDOWS {
        out.check("nae_windows_completed", false);
        return out;
    }
    // Recovery, timed alone once the reader has stopped.
    let t = Instant::now();
    let reopened = DurableTrainer::open(scratch.0.join("window-0"), vfs(), store_config());
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    out.check(
        "reopened_store_has_trainer_hash",
        reopened.is_ok_and(|(tr, _)| tr.golden_hash() == windows[0].hash),
    );
    let scored = &windows[..NAE_WINDOWS];
    // Mean absolute errors of the histogram and of the trivial one-bucket
    // histogram over the scored queries.
    let scored_n = (NAE_WINDOWS * WINDOW) as f64;
    let nae = normalized_absolute_error(
        scored.iter().map(|w| w.err).sum::<f64>() / scored_n,
        scored.iter().map(|w| w.h0_err).sum::<f64>() / scored_n,
    );
    out.check("nae_finite", nae.is_finite());

    // Replaying the first window's prefix through the composite and the
    // split path must reach the histogram and the files the measured run
    // reached.
    let prefix = &window(0)[..VERIFY_QUERIES];
    let verify_cell = SnapshotCell::new(base.freeze());
    let replay = |name: &str, t: Option<&mut Trace>| {
        let start = Instant::now();
        let w = absorb_window(
            &scratch.fresh(name),
            &base,
            &index,
            &h0,
            prefix,
            &verify_cell,
            None,
            t,
            0,
        );
        (w, start.elapsed().as_secs_f64())
    };
    let (plain, plain_s) = replay("verify-plain", None);
    let mut probe = Trace::new(origin);
    let (split, split_s) = replay("verify-split", Some(&mut probe));
    let key = |w: &Window| (w.hash_at_verify, w.bytes_at_verify);
    let measured = key(&windows[0]);
    let (same, replayed) = match (&plain, &split) {
        (Ok(a), Ok(b)) => (key(a) == key(b), key(a) == measured),
        _ => (false, false),
    };
    out.check("traced_hash_matches_untraced", same);
    out.check("replay_matches_measured_run", replayed);

    let mut read_lat = ValueHist::new();
    for rows in &run.composite_rows {
        for row in rows.values() {
            read_lat.merge(&row.batch_ns);
        }
    }
    let bytes_per_query = windows[0].bytes as f64 / WINDOW as f64;
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("goodput_qps", absorbed as f64 / absorb_s);
    out.e2e
        .insert("latency_p50_us", hist_quantile(&read_lat, 0.5) / 1e3);
    out.e2e.insert("nae", nae);
    out.info
        .push(("golden_hash", format!("{:016x}", windows[0].hash)));
    out.info
        .push(("windows", format!("{} of {WINDOW} queries", windows.len())));
    out.info.push(("absorbed", absorbed.to_string()));
    let by_window: Vec<String> = windows
        .iter()
        .map(|w| format!("{:.1}", w.done as f64 / w.wall_s))
        .collect();
    out.info.push(("absorb_qps_by_window", by_window.join(" ")));
    out.info
        .push(("read_qps", format!("{:.1}", answered as f64 / read_s)));
    out.info
        .push(("store_bytes_per_query", format!("{bytes_per_query:.1}")));
    out.info.push(("train_s", format!("{train_s:.3}")));

    let l = &mut out.layers;
    l.insert(
        "data.generate_s",
        median(&phases.iter().map(|p| p.0).collect::<Vec<_>>()),
    );
    l.insert(
        "index.build_s",
        median(&phases.iter().map(|p| p.1).collect::<Vec<_>>()),
    );
    l.insert("store.bytes_per_query", bytes_per_query);
    l.insert(
        "index.rows_per_query",
        windows.iter().map(|w| w.rows).sum::<u64>() as f64 / absorbed as f64,
    );
    l.insert("store.open_ms", open_ms);
    l.insert(
        "store.flushes",
        windows.iter().map(|w| w.flushes).sum::<u64>() as f64,
    );
    l.insert(
        "snap.publishes",
        windows.iter().map(|w| w.publishes).sum::<u64>() as f64,
    );
    l.insert("sthole.buckets", base.bucket_count() as f64);
    l.insert("serve.read_qps", answered as f64 / read_s);
    l.insert("serve.pins", run.stats.pins as f64);
    l.insert(
        "serve.queries_per_service",
        answered as f64 / run.stats.services.max(1) as f64,
    );
    l.insert(
        "serve.coalesced_frac",
        run.stats.coalesced_services as f64 / run.stats.services.max(1) as f64,
    );
    l.insert("serve.latency_p99_us", hist_quantile(&read_lat, 0.99) / 1e3);
    l.insert(
        "serve.latency_p999_us",
        hist_quantile(&read_lat, 0.999) / 1e3,
    );
    if traced {
        crate::report::refine_layers(l, &trace, absorb_s);
        let us = |name: &str| quantile_us(&trace.stats(name).samples, 0.5);
        l.insert("store.append_us", us("store.append"));
        l.insert("store.flush_ms", us("store.flush") / 1e3);
        l.insert("sthole.freeze_us", us("sthole.freeze"));
        l.insert("snap.publish_us", us("snap.publish"));
        let reader = sink.trace.into_inner().expect("trace lock poisoned");
        let batch = reader.stats("sthole.batch");
        l.insert(
            "sthole.batch_ns_per_query",
            batch.total_ns as f64 / answered.max(1) as f64,
        );
        l.insert("serve.service_us_p50", quantile_us(&batch.samples, 0.5));
        l.insert("serve.service_us_p99", quantile_us(&batch.samples, 0.99));
        l.insert("serve.busy_frac", batch.total_ns as f64 / 1e9 / read_s);
        l.insert(
            "serve.wait_us",
            hist_quantile(&read_lat, 0.5) / 1e3 - quantile_us(&batch.samples, 0.5),
        );
        l.insert("trace.overhead_frac", split_s / plain_s - 1.0);
        trace.absorb(reader);
        out.trace = Some(trace);
    }
    out
}
