//! Property-based tests for the simulation harness and the multi-tenant
//! registry.
//!
//! * Across randomized run parameters, learning during simulation is no
//!   worse on average (over the fixed [`sth_eval::FREEZE_SEED_LADDER`])
//!   than freezing the histogram after training. This is the property
//!   behind the deterministic `freeze_after_training_stops_learning` unit
//!   test; randomizing the bucket budget and workload length guards the
//!   margin against parameter luck.
//! * Registry routing is invisible: a mixed-tenant batch split by
//!   [`sth_eval::route_batch`] is bit-identical to asking each tenant's
//!   pinned snapshot directly.
//! * Registry routing is total: unknown tenants and dimension mismatches
//!   come back as errors, never as panics or silent wrong answers.
//! * Tenant epochs stay monotone under concurrent republication from
//!   racing publisher threads.

use sth_platform::check::prelude::*;

use sth_eval::{
    run_simulation, DatasetSpec, ExperimentCtx, Registry, RouteError, RunConfig, TenantKey,
    Variant, FREEZE_SEED_LADDER,
};
use sth_geometry::Rect;
use sth_histogram::StHoles;
use sth_index::KdCountTree;
use sth_query::{CardinalityEstimator, SelfTuning, WorkloadSpec};

/// A tenant trained with `queries` refines of its own seeded workload,
/// plus the remaining workload rects for serving/further refinement.
fn trained_tenant(seed: u64, queries: usize) -> (StHoles, KdCountTree, Vec<Rect>) {
    let data = sth_data::cross::CrossSpec::cross2d().scaled(0.04).generate();
    let index = KdCountTree::build(&data);
    let wl = WorkloadSpec::paper(0.01, seed).generate(data.domain(), None);
    let mut hist = sth_core::build_uninitialized(&data, 48);
    for q in wl.queries().iter().take(queries) {
        hist.refine(q.rect(), &index);
    }
    let rest = wl.queries().iter().skip(queries).map(|q| q.rect().clone()).collect();
    (hist, index, rest)
}

fn tiny_ctx() -> ExperimentCtx {
    ExperimentCtx {
        scale: 0.05,
        train: 60,
        sim: 60,
        buckets: vec![20],
        cluster_sample: None,
        seed: 0xAB,
    }
}

check! {
    cases = 4;

    #[test]
    fn freeze_is_no_better_on_average(
        buckets in 12usize..25,
        sim in 45usize..70,
    ) {
        let prep = tiny_ctx().prepare(DatasetSpec::Cross2d);
        let mut live_sum = 0.0;
        let mut frozen_sum = 0.0;
        for seed in FREEZE_SEED_LADDER {
            let cfg = RunConfig {
                freeze_after_training: true,
                train: 5,
                sim,
                ..RunConfig::paper(buckets, seed)
            };
            let frozen = run_simulation(&prep, &Variant::Uninitialized, &cfg);
            let live = run_simulation(
                &prep,
                &Variant::Uninitialized,
                &RunConfig { freeze_after_training: false, ..cfg },
            );
            prop_assert!(live.nae.is_finite() && frozen.nae.is_finite());
            live_sum += live.nae;
            frozen_sum += frozen.nae;
        }
        let n = FREEZE_SEED_LADDER.len() as f64;
        prop_assert!(
            live_sum / n <= frozen_sum / n + 0.05,
            "learning during simulation hurt on average: live mean {} vs frozen mean {}",
            live_sum / n,
            frozen_sum / n
        );
    }

    #[test]
    fn routed_mixed_batches_are_bit_identical_to_direct_views(
        train_a in 5usize..25,
        train_b in 5usize..25,
        train_c in 5usize..25,
        stride in 1usize..5,
    ) {
        // Three tenants at different training depths, one interleaved
        // mixed batch: routing must neither reorder nor perturb a single
        // bit of any tenant's answers.
        let mut reg = Registry::new();
        let mut serves = Vec::new();
        for (t, (seed, queries)) in
            [(3u64, train_a), (17, train_b), (29, train_c)].into_iter().enumerate()
        {
            let (hist, _, rest) = trained_tenant(seed, queries);
            let id = reg.register(TenantKey::new("t", vec![t as u32]), &hist);
            prop_assert_eq!(id, t);
            serves.push(rest);
        }
        let mut batch: Vec<(usize, Rect)> = Vec::new();
        for j in 0..30 {
            let id = (j * stride) % serves.len();
            batch.push((id, serves[id][j % serves[id].len()].clone()));
        }
        let mut routed = Vec::new();
        prop_assert!(reg.estimate_batch_routed(&batch, &mut routed).is_ok());
        prop_assert_eq!(routed.len(), batch.len());
        for (j, (id, q)) in batch.iter().enumerate() {
            let direct = reg.load(*id).estimate(q);
            prop_assert_eq!(
                routed[j].to_bits(),
                direct.to_bits(),
                "query {} of tenant {} diverged: routed {} vs direct {}",
                j, id, routed[j], direct
            );
        }
    }

    #[test]
    fn routing_hostile_batches_errs_instead_of_panicking(
        queries in collection::vec((0usize..4, 1usize..4, 0u32..90, 1u32..40), 0..40),
    ) {
        // Two 2-d tenants; queries name tenants 0..4 in 1..4 dimensions.
        // A batch with any unroutable query must be refused as a whole
        // with the first offender's error; a clean batch must answer
        // bit-identically to each tenant's snapshot.
        let mut reg = Registry::new();
        for t in 0..2u64 {
            let (hist, ..) = trained_tenant(5 + t, 12);
            reg.register(TenantKey::new("hostile", vec![t as u32]), &hist);
        }
        let batch: Vec<(usize, Rect)> = queries
            .iter()
            .map(|&(id, ndim, lo, width)| {
                let lo = vec![f64::from(lo); ndim];
                let hi: Vec<f64> = lo.iter().map(|l| l + f64::from(width)).collect();
                (id, Rect::from_bounds(&lo, &hi))
            })
            .collect();
        let expected = batch.iter().find_map(|(id, q)| {
            if *id >= 2 {
                Some(RouteError::UnknownTenant { tenant: *id, tenants: 2 })
            } else if q.ndim() != 2 {
                Some(RouteError::DimensionMismatch { tenant: *id, expected: 2, got: q.ndim() })
            } else {
                None
            }
        });
        let mut out = vec![f64::NAN; 3];
        let routed = reg.estimate_batch_routed(&batch, &mut out);
        match expected {
            Some(err) => {
                prop_assert_eq!(routed, Err(err));
                prop_assert!(out.is_empty());
            }
            None => {
                prop_assert!(routed.is_ok());
                prop_assert_eq!(out.len(), batch.len());
                for (j, (id, q)) in batch.iter().enumerate() {
                    prop_assert_eq!(out[j].to_bits(), reg.load(*id).estimate(q).to_bits());
                }
            }
        }
    }

    #[test]
    fn epochs_stay_monotone_under_concurrent_republish(
        publishers in 2usize..4,
        rounds in 2usize..4,
    ) {
        // Racing publisher threads on two shared tenants: each thread must
        // see its tenant's epoch strictly increase across its own
        // publishes, and the final epochs must account for every publish
        // exactly.
        let mut reg = Registry::new();
        for t in 0..2u64 {
            let (hist, ..) = trained_tenant(41 + t, 8);
            reg.register(TenantKey::new("race", vec![t as u32]), &hist);
        }
        // Each publisher owns its own tenant replica at a distinct
        // training depth; all race their publishes into the shared
        // registry (ids alternate, so both tenants see contention).
        let pubs: Vec<_> = (0..publishers)
            .map(|p| {
                let id = p % 2;
                let (hist, index, rest) = trained_tenant(41 + id as u64, 8 + p);
                (id, hist, index, rest)
            })
            .collect();
        let reg = &reg;
        std::thread::scope(|s| {
            let handles: Vec<_> = pubs
                .into_iter()
                .enumerate()
                .map(|(p, (id, mut hist, index, rest))| {
                    s.spawn(move || {
                        let index = &index;
                        let mut last = 0u64;
                        for r in 0..rounds {
                            hist.refine(&rest[(p + r * publishers) % rest.len()], index);
                            let epoch = reg.publish(id, &hist);
                            assert!(epoch > last, "tenant epoch regressed: {epoch} after {last}");
                            last = epoch;
                        }
                        rounds as u64
                    })
                })
                .collect();
            let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            // Every publish bumped exactly one tenant epoch; nothing was
            // lost to the races.
            let per_tenant: u64 = (0..2).map(|id| reg.tenant_epoch(id) - 1).sum();
            assert_eq!(per_tenant, total, "publishes lost or double-counted");
        });
    }
}
