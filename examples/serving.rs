//! Acceptance demo for the read/write split: serve cardinality estimates
//! from epoch-published frozen snapshots while the trainer keeps refining.
//!
//! `sth::eval::serve` runs one tenant: a trainer thread refines the live
//! `StHoles` over a training workload, republishing a `FrozenHistogram`
//! into the tenant's `SnapshotCell` every few queries, while four reader
//! streams concurrently answer estimate batches from whatever snapshot is
//! current. The example asserts the properties the design promises:
//!
//! * readers collectively serve from at least two distinct epochs — the
//!   histogram really was republished mid-run under them;
//! * every reader drains a final batch from the last published epoch;
//! * every loaded snapshot passes `FrozenHistogram::check_invariants`
//!   (audit mode is forced on, so a torn publish would panic);
//! * re-freezing the trained histogram afterwards answers bit-identically
//!   to the live estimation path;
//! * batched estimation goes through the lane-oriented kernel
//!   (`batch_kernel_calls` advances) and the per-query batch speedup over
//!   the single-query frozen path is reported.
//!
//! ```text
//! STH_AUDIT=1 cargo run --release --example serving
//! ```

use std::sync::Arc;

use sth::eval::{serve, Registry, ServeConfig, TenantKey, TenantRuntime, Trainer};
use sth::platform::{obs, par};
use sth::prelude::*;

fn main() {
    // Counters feed the report and audit mode re-checks every loaded
    // snapshot, independent of the environment.
    obs::force_metrics(true);
    obs::force_audit(true);

    // The serve loop needs its readers genuinely concurrent: raise the
    // scope_map worker count if this machine (or STH_THREADS) caps it
    // below the reader count.
    let readers = 4;
    if par::worker_count() < readers {
        std::env::set_var("STH_THREADS", readers.to_string());
    }

    // Correlated data, a kd-tree as the execution engine, and a histogram
    // that starts untrained — everything it learns happens mid-serve.
    let data = sth::data::cross::CrossSpec::cross2d().scaled(0.05).generate();
    let engine = Arc::new(KdCountTree::build(&data));
    let hist = build_uninitialized(&data, 100);
    println!(
        "dataset: {} tuples, {} attrs; histogram budget 100, untrained",
        data.len(),
        data.ndim()
    );

    let wl = WorkloadSpec { count: 900, ..WorkloadSpec::paper(0.01, 41) }
        .generate(data.domain(), None);
    let (train, serve_wl) = wl.split_train(600);

    let probes: Vec<Rect> =
        serve_wl.queries().iter().take(64).map(|q| q.rect().clone()).collect();
    let cfg = ServeConfig { readers, batch: 32, republish_every: 40, trainer_workers: 1 };
    let mut tenant = [TenantRuntime {
        key: TenantKey::new("cross", vec![0, 1]),
        trainer: Trainer::Volatile(hist),
        train,
        serve: serve_wl,
        counter: engine,
    }];
    let report = serve(&mut Registry::new(), &mut tenant, &cfg).expect("volatile serve");
    let t = &report.tenants[0];
    let epochs_served: Vec<u64> =
        t.timeline.rows.iter().filter(|r| r.answered > 0).map(|r| r.epoch).collect();

    println!(
        "served {} estimates in {} batches across {} readers",
        report.answered(),
        report.batches(),
        report.readers.len()
    );
    println!(
        "trainer republished {} times (final epoch {}), readers saw epochs {:?}",
        t.publishes, t.final_epoch, epochs_served
    );
    println!(
        "audited {} loaded snapshots; obs: {} publishes / {} loads",
        report.audited(),
        report.counters.get(obs::Counter::SnapshotPublishes),
        report.counters.get(obs::Counter::SnapshotLoads)
    );

    // -- The acceptance assertions -----------------------------------------
    assert_eq!(report.readers.len(), readers, "expected {readers} concurrent readers");
    assert!(
        epochs_served.len() >= 2,
        "readers never saw a republish: epochs {epochs_served:?}"
    );
    assert!(t.publishes >= 2, "trainer republished only {} times", t.publishes);
    for (i, r) in report.readers.iter().enumerate() {
        assert!(r.answered > 0, "reader {i} served nothing");
        assert_eq!(
            r.epochs.last(),
            Some(&t.final_epoch),
            "reader {i} never drained the final snapshot"
        );
    }
    // Audit mode was forced on: every loaded snapshot was invariant-checked
    // before a single estimate was served from it. The engine pins a fresh
    // snapshot only when the epoch moved, audits exactly then, and every
    // answered batch rode an audited pin.
    assert_eq!(report.audited(), report.batches(), "unaudited snapshot load");
    assert_eq!(report.counters.get(obs::Counter::SnapshotPublishes), t.publishes);
    assert_eq!(report.counters.get(obs::Counter::SnapshotLoads), report.engine.pins);
    assert_eq!(report.engine.audits, report.engine.pins, "every fresh pin audited");

    // The serve loop's last snapshot is the fully trained histogram:
    // freezing again must reproduce the live estimates bit for bit.
    let hist = tenant[0].trainer.hist();
    let frozen = hist.freeze();
    for q in &probes {
        let live = CardinalityEstimator::estimate(hist, q);
        let snap = frozen.estimate(q);
        assert_eq!(live.to_bits(), snap.to_bits(), "frozen/live divergence on {q}");
    }
    println!("frozen estimates bit-identical to live on {} probes", 64);

    // -- Batch-kernel speedup report ---------------------------------------
    // The serve loop answers 32-query batches, so every reader batch above
    // the dispatch threshold went through the lane-oriented kernel. Measure
    // the per-query win on this trained snapshot: batch-64 kernel vs the
    // single-query frozen walk over the same probes.
    let before = obs::snapshot();
    let mut out = Vec::new();
    frozen.estimate_batch(&probes, &mut out);
    let delta = obs::snapshot().delta(&before);
    assert_eq!(
        delta.get(obs::Counter::BatchKernelCalls),
        1,
        "batch of 64 must route through the kernel"
    );

    let iters = 300;
    let clock = std::time::Instant::now();
    for _ in 0..iters {
        frozen.estimate_batch(&probes, &mut out);
    }
    let batch_ns = clock.elapsed().as_secs_f64() * 1e9 / (iters * probes.len()) as f64;
    let clock = std::time::Instant::now();
    let mut acc = 0.0;
    for _ in 0..iters {
        for q in &probes {
            acc += frozen.estimate(q);
        }
    }
    let single_ns = clock.elapsed().as_secs_f64() * 1e9 / (iters * probes.len()) as f64;
    assert!(acc.is_finite());
    println!(
        "batch kernel: {batch_ns:.0} ns/query batched (64) vs {single_ns:.0} ns/query single \
         — {:.2}x per-query speedup, {} lanes pruned",
        single_ns / batch_ns,
        delta.get(obs::Counter::BatchLanesPruned)
    );

    obs::force_audit(false);
    obs::force_metrics(false);
    println!("serving example OK");
}
