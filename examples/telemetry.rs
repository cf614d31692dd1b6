//! Acceptance demo for the serving telemetry tier: mergeable latency
//! histograms, the per-epoch timeline exporter, and the flight recorder.
//!
//! Part one runs `serve` on one tenant with metrics forced on and prints the
//! epoch-aligned timeline — human table and machine JSON — asserting the
//! batch-estimate latency distribution is non-degenerate (real quantiles,
//! p50 ≤ p99 ≤ p999, every batch accounted for) and that the mergeable
//! histograms rode the provenance snapshot through the report.
//!
//! Part two fault-injects a durable `serve` run (byte-budget `FaultVfs`)
//! with the flight recorder forced on: the store poisoning must leave a
//! black-box dump whose final entries are the absorbs leading into the
//! crash, capped by the `store_poisoned` event itself.
//!
//! ```text
//! STH_METRICS=1 STH_FLIGHT=1 cargo run --release --example telemetry
//! ```

use std::sync::Arc;

use sth::eval::{
    serve, Registry, ServeConfig, ServeReport, TenantKey, TenantRuntime, Trainer,
};
use sth::store::StoreError;
use sth::platform::{obs, par};
use sth::prelude::*;
use sth::store::vfs::{FaultVfs, MemVfs, Vfs};
use sth::store::{DurableTrainer, StoreConfig};

fn main() {
    obs::force_metrics(true);
    obs::flight::force(true);

    let readers = 4;
    if par::worker_count() < readers {
        std::env::set_var("STH_THREADS", readers.to_string());
    }

    // ---- Part 1: per-epoch timeline from a concurrent serve run ----------
    let data = sth::data::cross::CrossSpec::cross2d().scaled(0.05).generate();
    let engine: Arc<KdCountTree> = Arc::new(KdCountTree::build(&data));
    let wl = WorkloadSpec { count: 900, ..WorkloadSpec::paper(0.01, 41) }
        .generate(data.domain(), None);
    let (train, serve_wl) = wl.split_train(600);
    // One tenant over this data, trained through `trainer`.
    let run = |trainer: Trainer, cfg: &ServeConfig| -> Result<ServeReport, StoreError> {
        let mut tenant = [TenantRuntime {
            key: TenantKey::new("cross", vec![0, 1]),
            trainer,
            train: train.clone(),
            serve: serve_wl.clone(),
            counter: engine.clone(),
        }];
        serve(&mut Registry::new(), &mut tenant, cfg)
    };

    let cfg = ServeConfig { readers, batch: 32, republish_every: 40, trainer_workers: 1 };
    let report =
        run(Trainer::Volatile(build_uninitialized(&data, 100)), &cfg).expect("volatile serve");
    let timeline = &report.tenants[0].timeline;

    println!(
        "serve: {} estimates in {} batches, {} epochs\n",
        report.answered(),
        report.batches(),
        report.tenants[0].final_epoch
    );
    println!("{}", timeline.render_table());

    let all = timeline.batch_ns_overall();
    println!(
        "batch-estimate latency overall: n={} p50={}ns p90={}ns p99={}ns p999={}ns max={}ns",
        all.count(),
        all.p50(),
        all.p90(),
        all.p99(),
        all.p999(),
        all.max()
    );

    // Non-degenerate latency distribution: one sample per batch, real
    // nanosecond readings (a batch of 32 2-d estimates cannot take 0ns),
    // ordered quantiles within bounds.
    assert_eq!(all.count(), report.batches(), "one latency sample per served batch");
    assert!(all.count() >= 20, "too few batches for meaningful quantiles");
    assert!(all.p50() > 0, "degenerate p50");
    assert!(
        all.p50() <= all.p99() && all.p99() <= all.p999() && all.p999() <= all.max(),
        "quantiles must be ordered: p50={} p99={} p999={} max={}",
        all.p50(),
        all.p99(),
        all.p999(),
        all.max()
    );
    // Timeline rows are contiguous 1..=final_epoch and account for every
    // batch and estimate.
    assert_eq!(timeline.rows.len() as u64, report.tenants[0].final_epoch);
    assert_eq!(timeline.batches(), report.batches());
    assert_eq!(
        timeline.rows.iter().map(|r| r.answered).sum::<u64>(),
        report.answered()
    );
    // 32-query batches ride the lane kernel; with metrics on, the timeline
    // sees the kernel counters.
    assert!(
        timeline.rows.iter().map(|r| r.kernel_calls).sum::<u64>() > 0,
        "kernel-sized batches must surface kernel calls in the timeline"
    );
    // The mergeable histograms ride the obs snapshot: the engine records
    // one kernel-latency sample per *service* (a service may coalesce
    // several stream batches into one estimate_batch call), and one
    // fill sample per completed batch.
    assert_eq!(
        report.counters.hist(obs::HistKind::BatchEstimateNs).count(),
        report.engine.services
    );
    assert!(report.engine.services <= report.batches(), "coalescing never splits batches");
    assert_eq!(
        report.counters.hist(obs::HistKind::ServeBatchFill).count(),
        report.batches()
    );
    assert!(report.counters.hist(obs::HistKind::RefineNs).count() > 0);

    let json = timeline.to_json();
    assert!(json.starts_with("[{\"epoch\": 1"));
    println!("\ntimeline json: {json}\n");

    // ---- Part 2: flight-recorder dump on a fault-injected poisoning ------
    // Measure an uncrashed run's write cost, then rerun with half the
    // byte budget so the store poisons itself mid-run.
    let store_cfg =
        StoreConfig { flush_every_deltas: 6, flush_every_bytes: u64::MAX, retain_generations: 2 };
    let serve_cfg = ServeConfig { readers: 2, batch: 8, republish_every: 10, trainer_workers: 1 };

    let ref_vfs = Arc::new(FaultVfs::unlimited(Arc::new(MemVfs::new())));
    let reference = DurableTrainer::create(
        "/telemetry",
        ref_vfs.clone() as Arc<dyn Vfs>,
        store_cfg.clone(),
        build_uninitialized(&data, 64),
    )
    .expect("create reference trainer");
    run(Trainer::Durable(reference), &serve_cfg).expect("reference durable serve");
    let total_cost = ref_vfs.consumed();

    let vfs = Arc::new(FaultVfs::new(Arc::new(MemVfs::new()), total_cost / 2));
    let trainer = DurableTrainer::create(
        "/telemetry",
        vfs as Arc<dyn Vfs>,
        store_cfg,
        build_uninitialized(&data, 64),
    )
    .expect("create fault-injected trainer");
    let died = run(Trainer::Durable(trainer), &serve_cfg);
    assert!(died.is_err(), "half the write budget must poison the store");

    let dump = obs::flight::last_dump().expect("poisoning must dump the flight recorder");
    assert!(dump.contains("store poisoned"), "dump names the poisoning reason");
    assert!(dump.contains("\"ev\": \"absorb\""), "dump carries the pre-crash absorb trail");
    assert!(dump.contains("\"ev\": \"store_poisoned\""), "dump ends with the poisoning event");
    let events = dump.lines().filter(|l| l.starts_with('{')).count();
    println!("store poisoning left a flight-recorder dump of {events} events (shown above)");

    obs::flight::force(false);
    obs::force_metrics(false);
    println!("telemetry example OK");
}
