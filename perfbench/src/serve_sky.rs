//! `serve_sky`: a trained 250-bucket Sky snapshot, frozen and served
//! read-only by one engine thread while the calling thread produces
//! open-loop 4-query requests over a few thousand distinct seeded
//! rectangles. Requests are smaller than `KERNEL_MIN_BATCH`, so the engine
//! queue, coalescing and the batch kernel do all the work; refine does
//! none.
//!
//! Two operating points alternate in 1-second rounds: a fixed rate well
//! below capacity, timed from inject, and saturation, where the producer
//! keeps a bounded backlog so the engine never starves and the queue never
//! grows without bound.

use std::time::{Duration, Instant};

use sth_baselines::TrivialHistogram;
use sth_eval::{evaluate_static, normalized_absolute_error};
use sth_geometry::Rect;
use sth_platform::snap::SnapshotCell;
use sth_query::{Estimator, RangeQuery, Workload};
use sth_serve::{run_open, EngineConfig, EngineStats, OpenReport, DEFAULT_COALESCE};

use crate::common::{
    pipeline_layers, queries, repeat_setup, sky_pipeline, stream_seed, train, BenchBackend,
    Outcome, ServeTrace,
};
use crate::stats::{cpu_s, hist_quantile, median, quantile_us};
use crate::Ctx;

/// What each end-to-end metric measures on this workload.
pub const MEANING: &[(&str, &str)] = &[
    (
        "setup_s",
        "median of 5 set-ups: generate Sky, index, MineClus, initialize",
    ),
    (
        "goodput_qps",
        "serve_qps: queries answered per second at saturation",
    ),
    (
        "latency_p50_us",
        "serve_p50_us: request latency from inject at the fixed rate",
    ),
    (
        "nae",
        "NAE of the served snapshot over the served rectangles",
    ),
    ("peak_rss_mb", "peak resident set of the process"),
    (
        "ok_frac",
        "1 - fail_frac: shed queries and failed checks over operations attempted",
    ),
];

const BUDGET: usize = 250;
/// Queries of the fixed training stream that fill the snapshot's bucket
/// budget.
const TRAIN: usize = 300;
const SETUP_REPS: usize = 5;
/// Freezes timed for `sthole.freeze_us`.
const FREEZES: usize = 21;
/// Distinct rectangles the requests cycle through.
const POOL: usize = 4_096;
/// Queries per request, below `KERNEL_MIN_BATCH`.
const REQUEST: usize = 4;
/// The fixed operating point, in queries per second.
const FIXED_QPS: f64 = 50_000.0;
/// Requests the saturation producer keeps queued: 2,048 queries, about
/// 4 ms of engine work.
const BACKLOG: u64 = 512;
/// How long the saturation producer sleeps while half the backlog or more
/// is still queued.
const REFILL_PAUSE: Duration = Duration::from_micros(200);
/// Length of one round at one operating point.
const ROUND: Duration = Duration::from_millis(1_000);
/// Untraced and traced saturated rounds that estimate the tracing
/// overhead.
const OVERHEAD_PAIRS: usize = 3;
/// Requests whose answers are captured and compared bit for bit.
const CAPTURED: usize = 2_000;

fn engine() -> EngineConfig {
    EngineConfig {
        threads: 1,
        coalesce: DEFAULT_COALESCE,
        deadline: None,
    }
}

struct Fixed {
    report: OpenReport,
    late_ns: Vec<u64>,
}

/// Offers requests on a fixed schedule for one round. Lateness is how far
/// behind its schedule the producer injected each request.
fn fixed_round(backend: &BenchBackend<'_>, requests: &[Vec<Rect>]) -> Fixed {
    let interval = Duration::from_secs_f64(REQUEST as f64 / FIXED_QPS);
    let (report, late_ns) = run_open(backend, &engine(), false, |inj| {
        let start = Instant::now();
        let mut late_ns = Vec::new();
        for k in 0.. {
            let due = start + interval * k as u32;
            if due >= start + ROUND {
                break;
            }
            spin_until(due);
            late_ns.push(Instant::now().duration_since(due).as_nanos() as u64);
            inj.inject(0, requests[k % requests.len()].clone());
        }
        late_ns
    });
    Fixed { report, late_ns }
}

struct Saturated {
    report: OpenReport,
    wall_s: f64,
    cpu_s: f64,
    injected: u64,
    /// Injections made with nothing queued: moments the engine may have
    /// waited for the producer.
    starved: u64,
}

/// Keeps between half and all of `BACKLOG` requests queued for one round
/// (or until `limit` requests were offered), capturing answers when asked.
fn saturated_round(
    backend: &BenchBackend<'_>,
    requests: &[Vec<Rect>],
    capture: bool,
    limit: usize,
) -> Saturated {
    let cpu0 = cpu_s();
    let t0 = Instant::now();
    let (report, (injected, starved)) = run_open(backend, &engine(), capture, |inj| {
        let stop = Instant::now() + ROUND;
        let (mut injected, mut starved) = (0u64, 0u64);
        while (injected as usize) < limit && Instant::now() < stop {
            let pending = inj.pending();
            if pending >= BACKLOG / 2 {
                // Half the backlog is milliseconds of engine work, far
                // longer than the sleep overshoots; while the producer
                // sleeps, the engine runs alone.
                std::thread::sleep(REFILL_PAUSE);
                continue;
            }
            starved += u64::from(pending == 0);
            while inj.pending() < BACKLOG && (injected as usize) < limit {
                inj.inject(0, requests[injected as usize % requests.len()].clone());
                injected += 1;
            }
        }
        (injected, starved)
    });
    Saturated {
        report,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: cpu_s() - cpu0,
        injected,
        starved,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut phases = Vec::new();
    let (mut pipe, setup_s) = repeat_setup(SETUP_REPS, || {
        let p = sky_pipeline(BUDGET);
        phases.push(p.phases());
        p
    });
    let train_s = train(&mut pipe.hist, &pipe.data, &pipe.index, TRAIN);
    let freeze_us: Vec<f64> = (0..FREEZES)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(pipe.hist.freeze());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let frozen = pipe.hist.freeze();
    let pool = queries(&pipe.data, POOL, stream_seed(ctx.seed, 0x5E7));
    let served = Workload::new(pool.iter().cloned().map(RangeQuery::new).collect());
    let nae = normalized_absolute_error(
        evaluate_static(&frozen, &served, &pipe.index),
        evaluate_static(
            &TrivialHistogram::for_dataset(&pipe.data),
            &served,
            &pipe.index,
        ),
    );
    let requests: Vec<Vec<Rect>> = pool.chunks(REQUEST).map(<[Rect]>::to_vec).collect();
    let snapshot_hash = frozen.golden_hash();
    let buckets = Estimator::bucket_count(&frozen);
    let cell = SnapshotCell::new(frozen);

    let origin = Instant::now();
    let fixed_sink = ServeTrace::new(origin);
    let sat_sink = ServeTrace::new(origin);
    let fixed_backend = BenchBackend::new(&cell, ctx.traced.then_some(&fixed_sink));
    let sat_backend = BenchBackend::new(&cell, ctx.traced.then_some(&sat_sink));
    let pairs = (ctx.duration().as_secs_f64() / (2.0 * ROUND.as_secs_f64()))
        .floor()
        .max(1.0) as usize;
    let mut fixed = Vec::with_capacity(pairs);
    let mut sat = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        fixed.push(fixed_round(&fixed_backend, &requests));
        sat.push(saturated_round(&sat_backend, &requests, false, usize::MAX));
    }

    // Every query offered was answered or shed, at both operating points.
    let reports = fixed
        .iter()
        .map(|f| &f.report)
        .chain(sat.iter().map(|s| &s.report));
    let mut balanced = true;
    for r in reports {
        balanced &= r.offered_total() == r.answered_total() + r.shed_total();
        out.attempted += r.offered_total();
        out.failed += r.shed_total();
    }
    out.check("answered_plus_shed_equals_offered", balanced);

    // A captured sample of served answers equals the snapshot's own batch
    // estimate, bit for bit.
    let plain = BenchBackend::new(&cell, None);
    let cap = saturated_round(&plain, &requests, true, CAPTURED);
    let served = cap.report.results.as_deref().unwrap_or_default();
    let direct: Vec<Rect> = requests
        .iter()
        .cycle()
        .take(cap.injected as usize)
        .flatten()
        .cloned()
        .collect();
    let mut expect = Vec::new();
    Estimator::estimate_batch(&*cell.load(), &direct, &mut expect);
    out.check(
        "served_bits_equal_direct_estimate_batch",
        served.len() == expect.len()
            && served
                .iter()
                .zip(&expect)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
    );
    out.attempted += cap.report.offered_total();
    out.check("nae_finite", nae.is_finite());

    let fixed_p50: Vec<f64> = fixed
        .iter()
        .map(|f| hist_quantile(&f.report.latency, 0.5) / 1e3)
        .collect();
    let sat_qps: Vec<f64> = sat
        .iter()
        .map(|s| s.report.answered_total() as f64 / s.wall_s)
        .collect();
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("goodput_qps", median(&sat_qps));
    out.e2e.insert("latency_p50_us", median(&fixed_p50));
    out.e2e.insert("nae", nae);
    out.info
        .push(("snapshot_golden_hash", format!("{snapshot_hash:016x}")));
    out.info.push((
        "rounds",
        format!(
            "{pairs} fixed + {pairs} saturated, {} ms each",
            ROUND.as_millis()
        ),
    ));
    out.info.push(("fixed_rate_qps", format!("{FIXED_QPS}")));
    let rounds = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.info.push(("saturated_qps_by_round", rounds(&sat_qps)));
    out.info.push(("fixed_p50_us_by_round", rounds(&fixed_p50)));
    out.info.push(("train_s", format!("{train_s:.3}")));
    let late: Vec<u64> = fixed
        .iter()
        .flat_map(|f| f.late_ns.iter().copied())
        .collect();
    out.info.push((
        "loadgen_late_p50_us",
        format!("{:.3}", quantile_us(&late, 0.5)),
    ));

    let l = &mut out.layers;
    pipeline_layers(l, &phases, &pipe);
    l.insert("sthole.freeze_us", median(&freeze_us));
    l.insert("sthole.buckets", buckets as f64);
    if ctx.traced {
        let mut fixed_lat = sth_platform::obs::ValueHist::new();
        for f in &fixed {
            fixed_lat.merge(&f.report.latency);
        }
        let stat = |f: fn(&EngineStats) -> u64| sat.iter().map(|s| f(&s.report.stats)).sum::<u64>();
        let services = stat(|s| s.services).max(1) as f64;
        let answered: u64 = sat.iter().map(|s| s.report.answered_total()).sum();
        let wall: f64 = sat.iter().map(|s| s.wall_s).sum();
        let cpu: f64 = sat.iter().map(|s| s.cpu_s).sum();
        let sat_trace = sat_sink.trace.into_inner().expect("trace lock poisoned");
        let fixed_trace = fixed_sink.trace.into_inner().expect("trace lock poisoned");
        let batch = sat_trace.stats("sthole.batch");
        let fixed_batch = fixed_trace.stats("sthole.batch");
        l.insert(
            "sthole.batch_ns_per_query",
            batch.total_ns as f64 / answered.max(1) as f64,
        );
        l.insert("serve.service_us_p50", quantile_us(&batch.samples, 0.5));
        l.insert("serve.service_us_p99", quantile_us(&batch.samples, 0.99));
        l.insert("serve.queries_per_service", answered as f64 / services);
        l.insert(
            "serve.coalesced_frac",
            stat(|s| s.coalesced_services) as f64 / services,
        );
        l.insert("serve.busy_frac", batch.total_ns as f64 / 1e9 / wall);
        l.insert(
            "serve.wait_us",
            hist_quantile(&fixed_lat, 0.5) / 1e3 - quantile_us(&fixed_batch.samples, 0.5),
        );
        l.insert("serve.pins", stat(|s| s.pins) as f64);
        l.insert("serve.cpu_us_per_query", cpu * 1e6 / answered.max(1) as f64);
        l.insert("serve.read_qps", answered as f64 / wall);
        l.insert(
            "serve.latency_p99_us",
            hist_quantile(&fixed_lat, 0.99) / 1e3,
        );
        l.insert(
            "serve.latency_p999_us",
            hist_quantile(&fixed_lat, 0.999) / 1e3,
        );
        l.insert("loadgen.late_us_p50", quantile_us(&late, 0.5));
        l.insert("loadgen.late_us_p99", quantile_us(&late, 0.99));
        let injected: u64 = sat.iter().map(|s| s.injected).sum();
        let starved: u64 = sat.iter().map(|s| s.starved).sum();
        l.insert(
            "loadgen.starved_frac",
            starved as f64 / injected.max(1) as f64,
        );

        // Tracing overhead: saturated rounds each way, interleaved; the
        // ratio of the medians.
        let probe_sink = ServeTrace::new(origin);
        let probe = BenchBackend::new(&cell, Some(&probe_sink));
        let qps = |b: &BenchBackend<'_>| {
            let s = saturated_round(b, &requests, false, usize::MAX);
            s.report.answered_total() as f64 / s.wall_s
        };
        let (untraced, traced): (Vec<f64>, Vec<f64>) = (0..OVERHEAD_PAIRS)
            .map(|_| (qps(&plain), qps(&probe)))
            .unzip();
        l.insert(
            "trace.overhead_frac",
            median(&untraced) / median(&traced) - 1.0,
        );

        let mut trace = fixed_trace;
        trace.absorb(sat_trace);
        out.trace = Some(trace);
    }
    out
}

/// Busy-waits until `t`: a sleep overshoots by more than the 80 µs between
/// fixed-rate requests.
pub fn spin_until(t: Instant) {
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}
