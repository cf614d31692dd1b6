//! Oracle property tests for the incremental merge accelerator: the
//! heap-backed [`StHoles::best_merge`] must always agree with the
//! brute-force [`StHoles::best_merge_exhaustive`] rescan, no matter how
//! drills and merges interleave.

use sth_platform::check::prelude::*;
use sth_data::Dataset;
use sth_geometry::Rect;
use sth_histogram::{MergePolicy, StHoles};
use sth_index::{ResultSetCounter, ScanCounter};
use sth_platform::obs::{self, Counter};
use sth_query::SelfTuning;

fn dataset(points: &[(f64, f64)]) -> Dataset {
    let xs = points.iter().map(|p| p.0).collect();
    let ys = points.iter().map(|p| p.1).collect();
    Dataset::from_columns("oracle", Rect::cube(2, 0.0, 100.0), vec![xs, ys])
}

fn point_strategy() -> impl Strategy<Value = (f64, f64)> {
    (0.0f64..100.0, 0.0f64..100.0)
}

fn query_strategy() -> impl Strategy<Value = Rect> {
    (0.0f64..90.0, 0.0f64..90.0, 1.0f64..60.0, 1.0f64..60.0).prop_map(|(x, y, w, h)| {
        Rect::from_bounds(&[x, y], &[(x + w).min(100.0), (y + h).min(100.0)])
    })
}

/// The accelerated search and the oracle must agree exactly: the cached
/// penalties are computed by the same arithmetic as the rescan, so even
/// the floats are bit-identical, and the heap reproduces the rescan's
/// tie-breaking order.
fn assert_agrees(h: &mut StHoles) -> Result<(), TestCaseError> {
    let oracle = h.best_merge_exhaustive();
    let fast = h.best_merge();
    prop_assert_eq!(&fast, &oracle, "\n{}", h.dump());
    Ok(())
}

check! {
    cases = 48;

    #[test]
    fn best_merge_agrees_with_oracle_under_random_workloads(
        points in collection::vec(point_strategy(), 20..200),
        queries in collection::vec(query_strategy(), 1..30),
        budget in 2usize..16,
    ) {
        // `refine` interleaves drilling (which dirties touched parents)
        // with compaction merges (which recycle slots and dirty the
        // survivors) — exactly the traffic the lazy heap must survive.
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), budget, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
            assert_agrees(&mut h)?;
        }
    }

    #[test]
    fn best_merge_agrees_after_decay_and_clone(
        points in collection::vec(point_strategy(), 20..120),
        queries in collection::vec(query_strategy(), 1..15),
    ) {
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), 10, ds.len() as f64);
        for (i, q) in queries.iter().enumerate() {
            h.refine(q, &counter);
            // Decay rescales every frequency, invalidating all cached
            // penalties at once.
            if i % 3 == 2 {
                h.decay(0.9);
                assert_agrees(&mut h)?;
            }
        }
        // A clone starts with cold acceleration state but must find the
        // same winner as the warm original.
        let mut cold = h.clone();
        prop_assert_eq!(cold.best_merge(), h.best_merge());
    }

    #[test]
    fn best_merge_agrees_after_persist_roundtrip(
        points in collection::vec(point_strategy(), 20..120),
        queries in collection::vec(query_strategy(), 1..15),
    ) {
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), 8, ds.len() as f64);
        for q in &queries {
            h.refine(q, &counter);
        }
        // The accelerator is not serialized; a decoded histogram rebuilds
        // it from scratch and must agree with its own oracle. The image
        // keeps bucket ids, so the whole winning op (kind, ids, penalty)
        // must match the warm original's.
        let mut back = StHoles::from_bytes(&h.to_bytes()).expect("roundtrip");
        assert_agrees(&mut back)?;
        prop_assert_eq!(back.best_merge(), h.best_merge());
    }
}

/// A root with 20 grid-aligned children: the 20×20 cells of the first
/// four columns of a 5×5 grid, each drilled from a point set holding
/// `per_cell(row)` points per cell. 20 children is above the
/// `2·max(cap, 2)` = 12 threshold of the default neighbour cap, so the
/// pruned candidate path runs; equal-density neighbours merge at equal
/// penalties, so many candidate pairs tie at the minimum.
fn grid_histogram(per_cell: impl Fn(usize) -> usize, policy: MergePolicy) -> StHoles {
    const OFFSETS: [(f64, f64); 8] = [
        (5.0, 5.0),
        (15.0, 5.0),
        (5.0, 15.0),
        (15.0, 15.0),
        (10.0, 10.0),
        (10.0, 5.0),
        (10.0, 15.0),
        (5.0, 10.0),
    ];
    let cell = |row: usize, col: usize| {
        let (x, y) = (col as f64 * 20.0, row as f64 * 20.0);
        Rect::from_bounds(&[x, y], &[x + 20.0, y + 20.0])
    };
    let mut rows = Vec::new();
    for row in 0..5 {
        for col in 0..5 {
            for &(dx, dy) in &OFFSETS[..per_cell(row)] {
                rows.push(vec![col as f64 * 20.0 + dx, row as f64 * 20.0 + dy]);
            }
        }
    }
    // The root holds more than its cells' share, so parent–child merges
    // cost more than merging two equal-density neighbours.
    let total = 4.0 * rows.len() as f64;
    let counter = ResultSetCounter::new(rows);
    let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), 64, total);
    h.set_merge_policy(policy);
    for row in 0..5 {
        for col in 0..4 {
            h.drill_only(&cell(row, col), &counter);
        }
    }
    assert_eq!(h.arena().get(h.root()).children.len(), 20);
    h
}

/// Compacts one merge at a time down to two buckets, checking the fast
/// search against the oracle before every merge.
fn merge_down_agreeing(h: &mut StHoles) {
    while h.bucket_count() > 2 {
        let oracle = h.best_merge_exhaustive();
        let fast = h.best_merge();
        assert_eq!(fast, oracle, "\n{}", h.dump());
        h.set_budget(h.bucket_count() - 1);
        h.check_invariants().expect("invariants while merging down");
    }
}

#[test]
fn tie_heavy_equal_density_grid_agrees_with_oracle() {
    for policy in [MergePolicy::All, MergePolicy::SiblingFirst, MergePolicy::ParentChildOnly] {
        let mut h = grid_histogram(|_| 4, policy);
        // Every horizontally or vertically adjacent pair merges for free.
        let first = h.best_merge().expect("mergeable");
        if policy != MergePolicy::ParentChildOnly {
            assert_eq!(first.penalty, 0.0, "equal-density neighbours should tie at 0");
        }
        merge_down_agreeing(&mut h);
    }
}

#[test]
fn tie_heavy_striped_grid_agrees_with_oracle_and_prunes() {
    // Rows alternate 4 and 8 points per cell: neighbours within a row tie
    // at penalty 0, neighbours across rows differ in density, and their
    // bound proves they cannot win, so their fixpoints are skipped.
    obs::force_metrics(true);
    let before = obs::snapshot();
    let mut h = grid_histogram(|row| if row % 2 == 0 { 4 } else { 8 }, MergePolicy::All);
    merge_down_agreeing(&mut h);
    let d = obs::snapshot().delta(&before);
    let (considered, evaluated) =
        (d.get(Counter::SiblingPairsConsidered), d.get(Counter::SiblingPairsEvaluated));
    assert!(d.get(Counter::MergeParentRefreshes) > 0);
    assert!(evaluated < considered, "bound pruned nothing: {evaluated} of {considered} evaluated");
}

#[test]
fn oracle_agrees_across_policy_switches() {
    // Cached merges are computed for the policy in force; switching it
    // must not serve entries built for the previous one.
    let mut h = grid_histogram(|row| 4 + row % 3, MergePolicy::ParentChildOnly);
    use MergePolicy::{All, ParentChildOnly, SiblingFirst};
    for policy in [All, SiblingFirst, ParentChildOnly, All] {
        // Settle every cached entry under the policy in force, then switch.
        let _ = h.best_merge();
        h.set_merge_policy(policy);
        assert_eq!(h.best_merge(), h.best_merge_exhaustive(), "after switching to {policy:?}");
        h.set_budget(h.bucket_count() - 2);
    }
    merge_down_agreeing(&mut h);
}
