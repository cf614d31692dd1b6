//! Property-based tests: the bucket tree stays structurally sound under
//! arbitrary query workloads, and estimation behaves like a measure.

use sth_platform::check::prelude::*;
use sth_data::Dataset;
use sth_geometry::Rect;
use sth_histogram::{ConsistencyConfig, ConsistentStHoles, StHoles};
use sth_index::{RangeCounter, ScanCounter};
use sth_query::{CardinalityEstimator, Estimator, SelfTuning};

/// Builds a small 2-d dataset from a point list within [0, 100)².
fn dataset(points: &[(f64, f64)]) -> Dataset {
    let xs = points.iter().map(|p| p.0).collect();
    let ys = points.iter().map(|p| p.1).collect();
    Dataset::from_columns("prop", Rect::cube(2, 0.0, 100.0), vec![xs, ys])
}

fn point_strategy() -> impl Strategy<Value = (f64, f64)> {
    (0.0f64..100.0, 0.0f64..100.0)
}

fn query_strategy() -> impl Strategy<Value = Rect> {
    (0.0f64..90.0, 0.0f64..90.0, 1.0f64..60.0, 1.0f64..60.0).prop_map(|(x, y, w, h)| {
        Rect::from_bounds(&[x, y], &[(x + w).min(100.0), (y + h).min(100.0)])
    })
}

check! {
    cases = 64;

    #[test]
    fn invariants_hold_under_random_workloads(
        points in collection::vec(point_strategy(), 20..200),
        queries in collection::vec(query_strategy(), 1..40),
        budget in 1usize..12,
    ) {
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), budget, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
            prop_assert!(h.check_invariants().is_ok(), "{}", h.check_invariants().unwrap_err());
            prop_assert!(h.bucket_count() <= budget);
        }
    }

    #[test]
    fn estimates_are_finite_and_nonnegative(
        points in collection::vec(point_strategy(), 20..100),
        queries in collection::vec(query_strategy(), 1..20),
        probes in collection::vec(query_strategy(), 1..20),
    ) {
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), 8, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
        }
        for p in &probes {
            let e = h.estimate(p);
            prop_assert!(e.is_finite());
            prop_assert!(e >= -1e-9, "negative estimate {e}");
            // Frequencies are clamped approximations, so an estimate can
            // exceed the true total a little, but never run away.
            prop_assert!(e <= 2.0 * ds.len() as f64 + 10.0, "estimate {e} vs total {}", ds.len());
        }
    }

    #[test]
    fn total_mass_is_preserved(
        points in collection::vec(point_strategy(), 20..100),
        queries in collection::vec(query_strategy(), 1..30),
    ) {
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let domain = Rect::cube(2, 0.0, 100.0);
        let mut h = StHoles::with_total(domain.clone(), 6, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
            // Drilling replaces estimated mass with exact observed mass and
            // clamps parent frequencies at zero, so the whole-domain mass can
            // drift from the starting total — but it must stay bounded (no
            // runaway double counting) and non-negative.
            let whole = h.estimate(&domain);
            prop_assert!(whole.is_finite());
            prop_assert!(whole >= -1e-9);
            prop_assert!(whole <= 2.0 * ds.len() as f64 + 10.0, "mass blew up: {whole}");
        }
    }

    #[test]
    fn last_query_is_answered_exactly_when_budget_allows(
        points in collection::vec(point_strategy(), 20..150),
        queries in collection::vec(query_strategy(), 1..10),
    ) {
        // With a generous budget, the bucket drilled for the most recent
        // query must answer that query exactly (its holes partition q).
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), 64, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
        }
        let last = queries.last().unwrap();
        let truth = ds.count_in_scan(last) as f64;
        let est = h.estimate(last);
        prop_assert!(
            (est - truth).abs() <= truth.max(1.0) * 0.35 + 2.0,
            "estimate {est} too far from truth {truth}\n{}",
            h.dump()
        );
    }

    #[test]
    fn frozen_estimate_is_bit_identical_to_live(
        points in collection::vec(point_strategy(), 20..150),
        queries in collection::vec(query_strategy(), 1..30),
        probes in collection::vec(query_strategy(), 1..25),
        budget in 2usize..24,
    ) {
        // The read-path contract: freezing is a pure representation change.
        // Every probe — including ones partially or fully outside drilled
        // regions — must produce the exact same f64, bit for bit.
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let domain = Rect::cube(2, 0.0, 100.0);
        let mut h = StHoles::with_total(domain.clone(), budget, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
        }
        let frozen = h.freeze();
        prop_assert!(frozen.check_invariants().is_ok(),
            "{}", frozen.check_invariants().unwrap_err());
        for p in probes.iter().chain(std::iter::once(&domain)) {
            let live = h.estimate(p);
            let snap = frozen.estimate(p);
            prop_assert!(
                live.to_bits() == snap.to_bits(),
                "frozen {snap} != live {live} for {p}\n{}",
                h.dump()
            );
        }
    }

    #[test]
    fn batch_kernel_is_bit_identical_to_scalar(
        points in collection::vec(point_strategy(), 20..150),
        queries in collection::vec(query_strategy(), 1..30),
        probes in collection::vec(query_strategy(), 0..40),
        budget in 2usize..24,
    ) {
        // The batch-kernel contract: the lane-oriented level-synchronous
        // traversal produces the exact f64 of the scalar frame-stack walk
        // for every query, bit for bit — including the empty batch, a
        // batch of one, and queries entirely outside the root hull.
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let domain = Rect::cube(2, 0.0, 100.0);
        let mut h = StHoles::with_total(domain.clone(), budget, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
        }
        let frozen = h.freeze();

        // Batch mix: random probes + the domain + boxes strictly outside
        // the root hull (zero overlap: the kernel must report exactly 0.0).
        let mut batch = probes.clone();
        batch.push(domain);
        batch.push(Rect::cube(2, 150.0, 250.0));
        batch.push(Rect::from_bounds(&[-50.0, -50.0], &[-1.0, -1.0]));

        let mut kernel_out = vec![f64::NAN; 3]; // stale garbage: must clear
        frozen.estimate_batch_kernel(&batch, &mut kernel_out);
        prop_assert!(kernel_out.len() == batch.len());
        let mut dispatch_out = Vec::new();
        frozen.estimate_batch(&batch, &mut dispatch_out);
        prop_assert!(dispatch_out.len() == batch.len());
        for (i, q) in batch.iter().enumerate() {
            let scalar = frozen.estimate(q);
            prop_assert!(
                kernel_out[i].to_bits() == scalar.to_bits(),
                "kernel {} != scalar {scalar} for {q}\n{}",
                kernel_out[i],
                h.dump()
            );
            prop_assert!(dispatch_out[i].to_bits() == scalar.to_bits());
        }

        // Degenerate batch shapes through the kernel entry point itself.
        let mut tiny = Vec::new();
        frozen.estimate_batch_kernel(&[], &mut tiny);
        prop_assert!(tiny.is_empty());
        let single = [batch[0].clone()];
        frozen.estimate_batch_kernel(&single, &mut tiny);
        prop_assert!(tiny.len() == 1);
        prop_assert!(tiny[0].to_bits() == frozen.estimate(&batch[0]).to_bits());
    }

    #[test]
    fn wrong_dimension_queries_answer_nan_on_every_path(
        points in collection::vec(point_strategy(), 20..100),
        queries in collection::vec(query_strategy(), 1..20),
        probes in collection::vec((query_strategy(), 0u8..4), 1..30),
    ) {
        // A snapshot answers a rectangle of the wrong dimensionality with
        // NaN through `estimate`, through `estimate_batch` on both sides of
        // the kernel threshold, and through the kernel itself — never a
        // panic, never a silent 0 — while the well-formed queries of the
        // same batch keep their exact single-query answers.
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), 10, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
        }
        let frozen = h.freeze();
        let batch: Vec<Rect> = probes
            .iter()
            .map(|(q, kind)| match kind {
                0 => Rect::from_bounds(&q.lo()[..1], &q.hi()[..1]),
                1 => Rect::from_bounds(&[q.lo()[0], q.lo()[1], 0.0], &[q.hi()[0], q.hi()[1], 1.0]),
                _ => q.clone(),
            })
            .collect();
        let mut dispatch_out = Vec::new();
        frozen.estimate_batch(&batch, &mut dispatch_out);
        let mut kernel_out = Vec::new();
        frozen.estimate_batch_kernel(&batch, &mut kernel_out);
        prop_assert!(dispatch_out.len() == batch.len() && kernel_out.len() == batch.len());
        for (i, q) in batch.iter().enumerate() {
            let single = frozen.estimate(q);
            if q.ndim() == 2 {
                prop_assert!(single.is_finite(), "good query {q} answered {single}");
            } else {
                prop_assert!(single.is_nan(), "{}-d query answered {single}", q.ndim());
            }
            let batched = dispatch_out[i];
            prop_assert!(batched.to_bits() == single.to_bits(), "batch {batched} vs {single}");
            prop_assert!(kernel_out[i].to_bits() == single.to_bits(), "kernel {} vs {single}", kernel_out[i]);
        }
    }

    #[test]
    fn wrong_dimension_rectangles_leave_live_histograms_unchanged(
        points in collection::vec(point_strategy(), 20..100),
        stream in collection::vec((query_strategy(), 0u8..4), 1..30),
    ) {
        // The live histogram and its consistent wrapper answer a rectangle
        // of the wrong dimensionality with NaN, and no refine entry point
        // lets it touch the tree or the constraint window: each ends where
        // a twin fed only the well-formed rectangles ends.
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let fresh = || StHoles::with_total(Rect::cube(2, 0.0, 100.0), 6, ds.len() as f64);
        let (mut mixed, mut good) = (fresh(), fresh());
        let consistent = || ConsistentStHoles::new(fresh(), ConsistencyConfig::default());
        let (mut mixed_ipf, mut good_ipf) = (consistent(), consistent());
        for (i, (q, kind)) in stream.iter().enumerate() {
            let q = match kind {
                0 => Rect::from_bounds(&q.lo()[..1], &q.hi()[..1]),
                1 => Rect::from_bounds(&[q.lo()[0], q.lo()[1], 0.0], &[q.hi()[0], q.hi()[1], 1.0]),
                _ => q.clone(),
            };
            let wrong = q.ndim() != 2;
            let truth = if wrong { 0.0 } else { counter.count(&q) as f64 };
            let targets: &mut [(&mut StHoles, &mut ConsistentStHoles)] = if wrong {
                &mut [(&mut mixed, &mut mixed_ipf)]
            } else {
                &mut [(&mut mixed, &mut mixed_ipf), (&mut good, &mut good_ipf)]
            };
            for (h, ipf) in targets.iter_mut() {
                match i % 3 {
                    0 => h.refine(&q, &counter),
                    1 => h.refine_with_truth(&q, &counter, truth),
                    _ => {
                        h.drill_only(&q, &counter);
                        h.compact_now();
                    }
                }
                if i % 2 == 0 {
                    ipf.refine(&q, &counter);
                } else {
                    ipf.refine_with_truth(&q, &counter, truth);
                }
            }
            if wrong {
                let (e, e_ipf) = (mixed.estimate(&q), mixed_ipf.estimate(&q));
                prop_assert!(e.is_nan() && e_ipf.is_nan(), "{}-d query answered {e} / {e_ipf}", q.ndim());
            }
        }
        prop_assert_eq!(mixed.golden_hash(), good.golden_hash());
        prop_assert_eq!(mixed_ipf.inner().golden_hash(), good_ipf.inner().golden_hash());
        prop_assert_eq!(mixed_ipf.constraint_count(), good_ipf.constraint_count());
    }

    #[test]
    fn frozen_snapshot_is_immutable_under_further_refinement(
        points in collection::vec(point_strategy(), 20..100),
        queries in collection::vec(query_strategy(), 2..20),
        probe in query_strategy(),
    ) {
        // A snapshot taken mid-training keeps answering from its frozen
        // state no matter what happens to the live histogram afterwards.
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), 8, ds.len() as f64);
        let split = queries.len() / 2;
        for q in &queries[..split] {
            h.refine(q, &counter);
        }
        let frozen = h.freeze();
        let before = frozen.estimate(&probe);
        for q in &queries[split..] {
            h.refine(q, &counter);
        }
        prop_assert!(frozen.estimate(&probe).to_bits() == before.to_bits());
        prop_assert!(frozen.check_invariants().is_ok());
    }

    #[test]
    fn estimation_is_monotone_in_query_box(
        points in collection::vec(point_strategy(), 20..100),
        queries in collection::vec(query_strategy(), 1..15),
        probe in query_strategy(),
    ) {
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), 8, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
        }
        // A larger box never has a smaller estimate.
        let grown = Rect::from_bounds(
            &[(probe.lo()[0] - 5.0).max(0.0), (probe.lo()[1] - 5.0).max(0.0)],
            &[(probe.hi()[0] + 5.0).min(100.0), (probe.hi()[1] + 5.0).min(100.0)],
        );
        prop_assert!(h.estimate(&grown) + 1e-6 >= h.estimate(&probe));
    }
}

check! {
    cases = 12;

    /// A domain of volume 1e300 learns like any other; one whose volume
    /// overflows `f64` (1e320) is refused by the constructors and by the
    /// decoder. Before the refusal, the overflowing domain was accepted and
    /// never drilled a hole: every own volume was infinite, so every
    /// candidate hole counted as a sliver.
    #[test]
    fn huge_domains_learn_and_overflowing_ones_are_refused(
        points in collection::vec((0.0f64..1.0, 0.0f64..1.0), 100..300),
        queries in collection::vec((0.0f64..0.8, 0.0f64..0.8, 0.05f64..0.2, 0.05f64..0.2), 40..120),
    ) {
        let scale = 1e150;
        let domain = Rect::cube(2, 0.0, scale);
        let xs = points.iter().map(|p| p.0 * scale).collect();
        let ys = points.iter().map(|p| p.1 * scale).collect();
        let ds = Dataset::from_columns("huge", domain.clone(), vec![xs, ys]);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(domain.clone(), 20, ds.len() as f64);
        for &(x, y, w, hgt) in &queries {
            h.refine(&Rect::from_bounds(&[x * scale, y * scale], &[(x + w) * scale, (y + hgt) * scale]), &counter);
        }
        prop_assert!(h.bucket_count() > 0, "no bucket learned over [0, 1e150)²");
        prop_assert!(h.check_invariants().is_ok());
        prop_assert!(h.estimate(&domain).is_finite());

        let overflowing = Rect::cube(2, 0.0, 1e160);
        prop_assert!(std::panic::catch_unwind(|| StHoles::with_total(overflowing.clone(), 20, 1.0)).is_err());
        prop_assert!(std::panic::catch_unwind(|| StHoles::new(overflowing.clone(), 20)).is_err());
        // The same image with the domain's and the root's upper bounds
        // rewritten to 1e160 decodes no more.
        let fresh = StHoles::with_total(domain, 20, 1.0).to_bytes();
        let (from, to) = (scale.to_le_bytes(), 1e160f64.to_le_bytes());
        let mut forged = fresh.clone();
        let mut rewritten = 0;
        for at in 0..forged.len() - 7 {
            if forged[at..at + 8] == from {
                forged[at..at + 8].copy_from_slice(&to);
                rewritten += 1;
            }
        }
        prop_assert_eq!(rewritten, 4);
        prop_assert!(StHoles::from_bytes(&fresh).is_ok());
        prop_assert!(matches!(StHoles::from_bytes(&forged), Err(sth_histogram::DecodeError::Corrupt(_))));
    }
}
