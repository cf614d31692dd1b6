//! Acceptance demo for the serving reactor: a closed-loop load generator
//! sweeps offered throughput against the poll-based engine and prints the
//! operating curve — p50/p99 request latency, shed rate, and goodput per
//! point — then reruns the saturating point with coalescing disabled to
//! show what batching for the lane kernel buys at equal thread count.
//!
//! Requests carry 4 queries each, below the kernel dispatch threshold
//! (`KERNEL_MIN_BATCH = 8`): served alone they walk the scalar path, the
//! thread-per-reader regime this engine replaced. Coalesced up to 64
//! queries they ride the lane kernel. At a saturating offered rate the
//! same two engine threads therefore sustain visibly more goodput with
//! coalescing on, and a queue-wait deadline keeps latency bounded by
//! shedding (loudly, per tenant) instead of letting the queue grow.
//!
//! The example asserts:
//!
//! * exact accounting at every operating point — offered equals answered
//!   plus shed, nothing vanishes;
//! * the unsaturated point answers essentially everything (only
//!   engine-spin-up sheds tolerated);
//! * the saturating coalesced run actually coalesced (multi-request
//!   services, service batches past the kernel threshold);
//! * coalescing sustains at least as much goodput as one-request-per-
//!   service at the same offered rate and thread count.
//!
//! ```text
//! cargo run --release --example reactor
//! ```

use std::time::Duration;

use sth::eval::{render_load_table, run_load_point, sweep_load, LoadGenConfig};
use sth::platform::snap::SnapshotCell;
use sth::prelude::*;
use sth::serve::{CellBackend, EngineConfig};

fn main() {
    // A trained, frozen snapshot to serve from: the reactor pins it once
    // (nothing republishes) and answers every request against it.
    let data = sth::data::cross::CrossSpec::cross2d().scaled(0.05).generate();
    let engine = KdCountTree::build(&data);
    let wl = WorkloadSpec { count: 300, ..WorkloadSpec::paper(0.01, 59) }
        .generate(data.domain(), None);
    let mut hist = build_uninitialized(&data, 64);
    for q in wl.queries().iter().take(120) {
        hist.refine(q.rect(), &engine);
    }
    let cell = SnapshotCell::new(hist.freeze());
    let backend = CellBackend::new(std::slice::from_ref(&cell));
    let probes: Vec<Rect> =
        wl.queries().iter().skip(120).take(64).map(|q| q.rect().clone()).collect();

    let coalesced = LoadGenConfig {
        request_batch: 4,
        duration: Duration::from_millis(200),
        engine: EngineConfig {
            threads: 2,
            coalesce: 64,
            deadline: Some(Duration::from_millis(5)),
        },
    };

    // Warm up first — thread spawn, allocator, branch predictors — and
    // discard the point: the measured sweep should see a hot engine.
    let warmup = LoadGenConfig { duration: Duration::from_millis(50), ..coalesced.clone() };
    let _ = run_load_point(&backend, &probes, 50_000.0, &warmup);

    // Sweep a ladder of offered rates: comfortably under capacity, near
    // it, and well past it. The last point saturates two threads on any
    // hardware this runs on.
    let rates = [20_000.0, 200_000.0, 2_000_000.0];
    println!("reactor sweep: 2 engine threads, 4-query requests, coalesce 64, 5ms deadline\n");
    let points = sweep_load(&backend, &probes, &rates, &coalesced);
    println!("{}", render_load_table(&points));

    for p in &points {
        assert_eq!(p.offered, p.answered + p.shed, "accounting must be exact");
        assert!(p.offered > 0, "the producer offered nothing at {} qps", p.offered_per_sec);
    }
    // The unsaturated point stays essentially clean — a few sheds during
    // engine spin-up are tolerated, sustained shedding is not.
    let low = &points[0];
    assert!(
        low.shed_rate() < 0.05,
        "20k qps must be under capacity for two threads: shed rate {:.3}",
        low.shed_rate()
    );
    let top = points.last().unwrap();
    assert!(
        top.stats.coalesced_services > 0,
        "a saturating rate must make the engine coalesce"
    );
    assert!(
        top.stats.max_service_queries > coalesced.request_batch as u64,
        "coalesced services must exceed a single request"
    );

    // The same saturating rate with coalescing off: every request is its
    // own service, 4 queries at a time — the thread-per-reader regime at
    // equal thread count.
    let uncoalesced = LoadGenConfig {
        engine: EngineConfig { coalesce: 1, ..coalesced.engine.clone() },
        ..coalesced.clone()
    };
    let single = run_load_point(&backend, &probes, *rates.last().unwrap(), &uncoalesced);
    println!("same point, coalescing off (one request per service):\n");
    println!("{}", render_load_table(std::slice::from_ref(&single)));
    assert_eq!(single.offered, single.answered + single.shed);
    assert_eq!(single.stats.coalesced_services, 0, "coalesce=1 must never group");

    let speedup = top.goodput_per_sec() / single.goodput_per_sec().max(1.0);
    println!(
        "goodput at saturation: {:.0} qps coalesced vs {:.0} qps uncoalesced ({speedup:.2}x)",
        top.goodput_per_sec(),
        single.goodput_per_sec(),
    );
    assert!(
        top.goodput_per_sec() >= single.goodput_per_sec(),
        "coalescing for the lane kernel must not lose goodput at saturation: {:.0} < {:.0}",
        top.goodput_per_sec(),
        single.goodput_per_sec(),
    );

    println!("reactor example OK");
}
