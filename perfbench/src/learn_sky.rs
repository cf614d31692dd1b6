//! `learn_sky`: the paper pipeline. Sky is generated and indexed, MineClus
//! initializes a 250-bucket histogram, a fixed stream of 1,000 queries
//! trains it, and one thread runs the closed feedback loop — estimate,
//! execute, refine — over seeded windows of 250 queries, each from the
//! trained state. Refine (drill + merge) is nearly all of the work;
//! serving and the store do nothing.

use std::time::Instant;

use sth_baselines::TrivialHistogram;
use sth_eval::normalized_absolute_error;
use sth_geometry::Rect;
use sth_histogram::StHoles;
use sth_index::{KdCountTree, ResultSetCounter};
use sth_query::{CardinalityEstimator, Estimator, SelfTuning};

use crate::common::{
    pipeline_layers, queries, repeat_setup, sky_pipeline, stream_seed, train, Outcome,
};
use crate::stats::quantile_us;
use crate::trace::Trace;
use crate::Ctx;

/// What each end-to-end metric measures on this workload.
pub const MEANING: &[(&str, &str)] = &[
    (
        "setup_s",
        "median of 5 set-ups: generate Sky, index, MineClus, initialize",
    ),
    (
        "goodput_qps",
        "learn_qps: feedback queries absorbed per second",
    ),
    (
        "latency_p50_us",
        "feedback_p50: estimate + execute + refine of one query",
    ),
    (
        "nae",
        "Eq. 10 over the first 2,000 window queries, estimated before refine",
    ),
    ("peak_rss_mb", "peak resident set of the process"),
    (
        "ok_frac",
        "1 - fail_frac: failed checks over operations attempted",
    ),
];

const BUDGET: usize = 250;
/// Queries of the fixed training stream: the paper's training phase.
const TRAIN: usize = 1_000;
/// Queries of one measured window; every window starts from the trained
/// state, so the cost per query is the same from window to window.
const WINDOW: usize = 250;
/// Windows that always run to the end: their 2,000 queries define NAE.
const NAE_WINDOWS: usize = 8;
const SETUP_REPS: usize = 5;
/// Queries replayed through the composite and the split refine path to
/// prove that both reach the state the measured window reached.
const VERIFY_QUERIES: usize = 100;

/// What one window of the feedback loop left behind.
#[derive(Default)]
struct Window {
    /// Per-query latency of estimate + execute + refine, ns.
    lat_ns: Vec<u64>,
    wall_s: f64,
    /// Sums of |estimate − truth| for the histogram and for the trivial
    /// one-bucket histogram.
    err: f64,
    h0_err: f64,
    rows: u64,
    buckets: usize,
    /// Golden hash after `VERIFY_QUERIES` queries and at the end.
    hash_at_verify: u64,
    hash: u64,
}

/// Runs the closed feedback loop over `window` from `base` until `stop`.
/// Untraced it calls refine as a user would, in one composite call;
/// traced, refine is split at its public boundaries and every call into a
/// layer gets a span numbered from `first_id`.
fn feedback_window(
    base: &StHoles,
    index: &KdCountTree,
    h0: &TrivialHistogram,
    window: &[Rect],
    stop: Option<Instant>,
    mut trace: Option<&mut Trace>,
    first_id: u64,
) -> Window {
    let mut hist = base.clone();
    let mut result = ResultSetCounter::empty(base.ndim());
    let mut w = Window {
        lat_ns: Vec::with_capacity(window.len()),
        ..Window::default()
    };
    let t_window = Instant::now();
    for (i, q) in window.iter().enumerate() {
        let t = Instant::now();
        if stop.is_some_and(|s| t >= s) {
            break;
        }
        let (est, lat_ns) = match trace.as_deref_mut() {
            None => {
                let est = hist.estimate(q);
                assert!(
                    result.refill_from_counter(index, q),
                    "the k-d tree materializes rows"
                );
                hist.refine_with_truth(q, &result, result.len() as f64);
                (est, t.elapsed().as_nanos() as u64)
            }
            Some(tr) => {
                let id = first_id + i as u64;
                tr.begin("loop.feedback", id);
                let est = tr.span("sthole.estimate", id, |_| hist.estimate(q));
                let ok = tr.span("index.collect", id, |_| {
                    result.refill_from_counter(index, q)
                });
                assert!(ok, "the k-d tree materializes rows");
                tr.span("sthole.drill", id, |_| hist.drill_only(q, &result));
                tr.span("sthole.merge", id, |_| hist.compact_now());
                (est, tr.end())
            }
        };
        let truth = result.len() as f64;
        w.lat_ns.push(lat_ns);
        w.err += (est - truth).abs();
        w.h0_err += (h0.estimate(q) - truth).abs();
        w.rows += result.len() as u64;
        if i + 1 == VERIFY_QUERIES {
            w.hash_at_verify = hist.golden_hash();
        }
    }
    w.wall_s = t_window.elapsed().as_secs_f64();
    w.buckets = hist.bucket_count();
    w.hash = hist.golden_hash();
    w
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
    let base = &pipe.hist;
    let h0 = TrivialHistogram::for_dataset(&pipe.data);
    let window = |w: usize| queries(&pipe.data, WINDOW, stream_seed(ctx.seed, w as u64));

    // Measure: windows until time is up; the first NAE_WINDOWS always
    // finish so NAE covers the same queries on every run of a seed.
    let origin = Instant::now();
    let stop = origin + ctx.duration();
    let mut trace = Trace::new(origin);
    let mut windows = Vec::new();
    while windows.len() < NAE_WINDOWS || Instant::now() < stop {
        let limit = (windows.len() >= NAE_WINDOWS).then_some(stop);
        let id = (windows.len() * WINDOW) as u64;
        let t = ctx.traced.then_some(&mut trace);
        windows.push(feedback_window(
            base,
            &pipe.index,
            &h0,
            &window(windows.len()),
            limit,
            t,
            id,
        ));
    }
    let loop_s: f64 = windows.iter().map(|w| w.wall_s).sum();
    let lat: Vec<u64> = windows
        .iter()
        .flat_map(|w| w.lat_ns.iter().copied())
        .collect();
    let scored = &windows[..NAE_WINDOWS];
    // Mean absolute errors of the histogram and of the trivial one-bucket
    // histogram over the scored queries.
    let scored_n = (NAE_WINDOWS * WINDOW) as f64;
    let nae = normalized_absolute_error(
        scored.iter().map(|w| w.err).sum::<f64>() / scored_n,
        scored.iter().map(|w| w.h0_err).sum::<f64>() / scored_n,
    );
    out.attempted += lat.len() as u64;
    out.check("nae_finite", nae.is_finite());

    // Replaying the first window's prefix through the composite and the
    // split refine path must reach the state the measured run reached.
    let prefix = &window(0)[..VERIFY_QUERIES];
    let t = Instant::now();
    let plain = feedback_window(base, &pipe.index, &h0, prefix, None, None, 0);
    let plain_s = t.elapsed().as_secs_f64();
    let mut probe = Trace::new(origin);
    let t = Instant::now();
    let split = feedback_window(base, &pipe.index, &h0, prefix, None, Some(&mut probe), 0);
    let split_s = t.elapsed().as_secs_f64();
    out.check(
        "traced_hash_matches_untraced",
        plain.hash_at_verify == split.hash_at_verify,
    );
    out.check(
        "replay_matches_measured_run",
        plain.hash_at_verify == windows[0].hash_at_verify,
    );

    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("goodput_qps", lat.len() as f64 / loop_s);
    out.e2e.insert("latency_p50_us", quantile_us(&lat, 0.5));
    out.e2e.insert("nae", nae);
    out.info
        .push(("golden_hash", format!("{:016x}", windows[0].hash)));
    out.info
        .push(("windows", format!("{} of {WINDOW} queries", windows.len())));
    out.info.push(("feedback_queries", lat.len().to_string()));
    out.info
        .push(("feedback_p99_us", format!("{:.1}", quantile_us(&lat, 0.99))));
    out.info.push(("train_s", format!("{train_s:.3}")));

    let l = &mut out.layers;
    pipeline_layers(l, &phases, &pipe);
    l.insert(
        "index.rows_per_query",
        windows.iter().map(|w| w.rows).sum::<u64>() as f64 / lat.len() as f64,
    );
    l.insert("feedback.p99_us", quantile_us(&lat, 0.99));
    l.insert("sthole.buckets", windows[0].buckets as f64);
    if ctx.traced {
        crate::report::refine_layers(l, &trace, loop_s);
        l.insert("trace.overhead_frac", split_s / plain_s - 1.0);
        out.trace = Some(trace);
    }
    out
}
