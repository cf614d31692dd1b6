//! Acceptance demo for the multi-tenant registry: many tables/subspaces
//! trained and served concurrently out of one process, one published
//! snapshot cell per tenant.
//!
//! `STH_TENANTS` (default 8) tenants — each with its own dataset, kd-tree
//! execution engine, and training/serving workloads — are registered in a
//! [`sth::eval::Registry`] and driven by [`sth::eval::serve`]: trainer
//! workers take the tenants in turn, absorbing training queries and
//! republishing each dirty tenant, while the serving engine answers a
//! mixed-tenant estimate stream split per batch by
//! [`sth::eval::route_batch`]. The example asserts the properties the
//! design promises:
//!
//! * every tenant is trained and served: per-tenant publishes, routed
//!   sub-batches, and answered estimates are all non-zero, each tenant's
//!   epoch equals 1 + its publishes, and the publish counter accounts for
//!   every publication across all tenants exactly;
//! * per-tenant timelines attribute every routed sub-batch to a tenant
//!   epoch;
//! * each tenant's final published snapshot answers bit-identically to
//!   its trained live histogram;
//! * mixed-tenant batches routed through the registry are bit-identical
//!   to asking each tenant's snapshot directly, and a batch naming an
//!   unknown tenant is refused with an error.
//!
//! ```text
//! STH_AUDIT=1 cargo run --release --example registry
//! ```

use std::sync::Arc;

use sth::eval::{serve, Registry, RouteError, ServeConfig, TenantKey, TenantRuntime, Trainer};
use sth::platform::{obs, par};
use sth::prelude::*;

fn main() {
    obs::force_metrics(true);
    obs::force_audit(true);

    let tenants: usize =
        std::env::var("STH_TENANTS").ok().and_then(|v| v.parse().ok()).unwrap_or(8);
    assert!(tenants >= 1, "STH_TENANTS must be at least 1");
    let cfg = ServeConfig { readers: 4, batch: 32, republish_every: 20, trainer_workers: 3 };
    if par::worker_count() < cfg.readers {
        std::env::set_var("STH_THREADS", cfg.readers.to_string());
    }

    // Each tenant is an independent table: its own correlated dataset,
    // its own kd-tree engine, its own workloads, its own bucket budget.
    let mut runtimes = Vec::with_capacity(tenants);
    let mut serve_rects: Vec<Vec<Rect>> = Vec::with_capacity(tenants);
    for t in 0..tenants {
        let data = sth::data::cross::CrossSpec::cross2d().scaled(0.02).generate();
        let index = Arc::new(KdCountTree::build(&data));
        let wl = WorkloadSpec { count: 180, ..WorkloadSpec::paper(0.01, 1_000 + t as u64) }
            .generate(data.domain(), None);
        let (train, serve) = wl.split_train(120);
        serve_rects.push(serve.queries().iter().map(|q| q.rect().clone()).collect());
        runtimes.push(TenantRuntime {
            key: TenantKey::new(format!("table{t}"), vec![0, 1]),
            trainer: Trainer::Volatile(build_uninitialized(&data, 48)),
            train,
            serve,
            counter: index,
        });
    }
    println!("registry: {} tenants, {:?}", tenants, cfg);

    let mut registry = Registry::new();
    let report = serve(&mut registry, &mut runtimes, &cfg).expect("volatile serve");

    println!(
        "served {} estimates in {} routed sub-batches across {} readers; {} publishes",
        report.answered(),
        report.batches(),
        report.readers.len(),
        report.publishes()
    );
    for t in &report.tenants {
        println!(
            "  {}: {} publishes (epoch {}), {} answered in {} sub-batches",
            t.key, t.publishes, t.final_epoch, t.answered, t.batches
        );
    }

    // -- Acceptance: every tenant trained, served, and accounted --------
    assert_eq!(report.tenants.len(), tenants);
    let mut total_publishes = 0;
    for t in &report.tenants {
        assert!(t.publishes >= 1, "{} never republished", t.key);
        assert_eq!(t.final_epoch, 1 + t.publishes, "{} epoch drift", t.key);
        assert!(t.answered >= 1, "{} served nothing", t.key);
        assert!(t.batches >= 1, "{} got no routed sub-batches", t.key);
        assert_eq!(
            t.timeline.rows.iter().map(|r| r.answered).sum::<u64>(),
            t.answered,
            "{} timeline does not account for its estimates",
            t.key
        );
        total_publishes += t.publishes;
    }
    assert_eq!(
        report.counters.get(obs::Counter::SnapshotPublishes),
        total_publishes,
        "the publish counter must account for every tenant's publications"
    );

    // -- Acceptance: the final snapshots are the trained histograms -----
    for (id, rt) in runtimes.iter().enumerate() {
        let snap = registry.load(id);
        assert_eq!(snap.epoch(), report.tenants[id].final_epoch);
        for q in &serve_rects[id] {
            let live = CardinalityEstimator::estimate(rt.trainer.hist(), q);
            assert_eq!(snap.estimate(q).to_bits(), live.to_bits(), "{} is stale", rt.key);
        }
    }

    // -- Acceptance: routing is invisible, bit for bit ------------------
    // A mixed batch interleaving every tenant, answered through the
    // routed path, must equal each tenant's snapshot exactly.
    let mixed: Vec<(usize, Rect)> = (0..tenants * 8)
        .map(|j| {
            let id = j % tenants;
            (id, serve_rects[id][j / tenants % serve_rects[id].len()].clone())
        })
        .collect();
    let mut routed = Vec::new();
    registry.estimate_batch_routed(&mixed, &mut routed).expect("every tenant is registered");
    for (j, (id, q)) in mixed.iter().enumerate() {
        let direct = registry.load(*id).estimate(q);
        assert_eq!(
            routed[j].to_bits(),
            direct.to_bits(),
            "tenant {id} query {j}: routed {} != direct {direct}",
            routed[j]
        );
    }
    println!("mixed-tenant routing bit-identical on {} probes", mixed.len());

    // -- Acceptance: routing is total ---------------------------------
    let stray = vec![(tenants, serve_rects[0][0].clone())];
    assert_eq!(
        registry.estimate_batch_routed(&stray, &mut routed),
        Err(RouteError::UnknownTenant { tenant: tenants, tenants }),
        "a batch naming an unknown tenant must be refused"
    );
    println!("unknown tenant refused: {}", RouteError::UnknownTenant { tenant: tenants, tenants });

    obs::force_audit(false);
    obs::force_metrics(false);
    println!("registry example OK");
}
