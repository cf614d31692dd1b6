//! An ISOMER-inspired consistency layer over the STHoles bucket tree.
//!
//! Plain STHoles folds each feedback record into bucket frequencies
//! immediately and then lets merges dilute it. ISOMER (Srivastava et al.,
//! ICDE 2006 — the paper's reference [27]) instead keeps the feedback
//! records as *constraints* and maintains the maximum-entropy histogram
//! consistent with all of them. This module implements the practical core
//! of that idea on top of [`StHoles`]:
//!
//! * the bucket *structure* is still built by STHoles drilling/merging;
//! * a sliding window of recent `(query, cardinality)` constraints is kept;
//! * after every refinement, iterative proportional fitting (IPF) rescales
//!   bucket masses until every remembered constraint is (approximately)
//!   satisfied — the classic iterative-scaling route to the max-entropy
//!   solution for overlapping linear constraints.
//!
//! The result is noticeably more *stable* than raw STHoles: re-asking any
//! remembered query yields (near-)exact cardinalities even after merges
//! reshuffled the buckets.

use std::collections::VecDeque;

use sth_geometry::Rect;
use sth_index::RangeCounter;
use sth_platform::obs;
use sth_query::{CardinalityEstimator, Estimator, SelfTuning};

use crate::{BucketId, StHoles};

/// Configuration for [`ConsistentStHoles`].
#[derive(Clone, Debug)]
pub struct ConsistencyConfig {
    /// Sliding-window size: how many recent feedback constraints to keep.
    ///
    /// Keep this below the bucket budget: once merges coarsen the structure
    /// past what the remembered constraints require, the constraint system
    /// becomes unrepresentable and IPF can only approximate it; persistently
    /// unrepresentable constraints are then invalidated (see
    /// [`ConsistencyConfig::drop_violation`]).
    pub max_constraints: usize,
    /// IPF sweeps per refinement.
    pub ipf_rounds: usize,
    /// Relative tolerance at which a constraint counts as satisfied.
    pub tolerance: f64,
    /// ISOMER-style constraint invalidation: a constraint whose relative
    /// violation still exceeds this threshold after IPF on two consecutive
    /// refinements is dropped from the window. Merges can make old
    /// constraints unrepresentable; keeping them forever makes IPF chase
    /// targets the bucket structure cannot hit and drags every other
    /// constraint with it. `f64::INFINITY` disables dropping.
    pub drop_violation: f64,
}

impl Default for ConsistencyConfig {
    fn default() -> Self {
        Self { max_constraints: 128, ipf_rounds: 3, tolerance: 0.01, drop_violation: 0.5 }
    }
}

/// One remembered feedback record: a query, its true cardinality, and how
/// many consecutive post-IPF passes it has spent above the drop threshold.
#[derive(Clone, Debug)]
struct Constraint {
    rect: Rect,
    target: f64,
    strikes: u8,
}

/// Consecutive violated passes before a constraint is invalidated. Two, so
/// a constraint transiently violated right after a drill reshuffled mass
/// gets one IPF pass to recover before it is written off.
const DROP_STRIKES: u8 = 2;

/// STHoles + a sliding window of feedback constraints enforced by iterative
/// proportional fitting.
#[derive(Clone, Debug)]
pub struct ConsistentStHoles {
    hist: StHoles,
    config: ConsistencyConfig,
    constraints: VecDeque<Constraint>,
    dropped: usize,
}

impl ConsistentStHoles {
    /// Wraps an (empty or trained) STHoles histogram.
    pub fn new(hist: StHoles, config: ConsistencyConfig) -> Self {
        assert!(config.max_constraints >= 1);
        assert!(config.ipf_rounds >= 1);
        assert!(config.drop_violation > 0.0);
        Self { hist, config, constraints: VecDeque::new(), dropped: 0 }
    }

    /// The underlying histogram.
    pub fn inner(&self) -> &StHoles {
        &self.hist
    }

    /// Currently remembered constraints.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// Constraints invalidated so far for staying unrepresentable after
    /// IPF (ISOMER's answer to merges outliving the feedback they served).
    pub fn dropped_constraint_count(&self) -> usize {
        self.dropped
    }

    /// Maximum relative violation over the remembered constraints.
    /// Constraints with single-digit targets in near-empty regions can stay
    /// off by a few tuples when their rectangles only graze large buckets;
    /// [`ConsistentStHoles::mean_violation`] is the robust summary.
    pub fn max_violation(&self) -> f64 {
        self.constraints
            .iter()
            .map(|c| Self::violation(&self.hist, c))
            .fold(0.0, f64::max)
    }

    /// Mean relative violation over the remembered constraints.
    pub fn mean_violation(&self) -> f64 {
        if self.constraints.is_empty() {
            return 0.0;
        }
        self.constraints.iter().map(|c| Self::violation(&self.hist, c)).sum::<f64>()
            / self.constraints.len() as f64
    }

    fn violation(hist: &StHoles, c: &Constraint) -> f64 {
        (hist.estimate(&c.rect) - c.target).abs() / c.target.max(1.0)
    }

    /// The ISOMER invalidation pass: bump the strike count of every
    /// constraint still violated beyond `drop_violation` after IPF, reset
    /// it on satisfied ones, and drop the repeat offenders.
    fn invalidate_unrepresentable(&mut self) {
        if !self.config.drop_violation.is_finite() {
            return;
        }
        let threshold = self.config.drop_violation;
        let hist = &self.hist;
        let mut dropped_now = 0usize;
        self.constraints.retain_mut(|c| {
            if Self::violation(hist, c) > threshold {
                c.strikes += 1;
                if c.strikes >= DROP_STRIKES {
                    dropped_now += 1;
                    return false;
                }
            } else {
                c.strikes = 0;
            }
            true
        });
        if dropped_now > 0 {
            self.dropped += dropped_now;
            obs::add(obs::Counter::ConstraintsDropped, dropped_now as u64);
        }
    }

    /// One IPF sweep: for each constraint, scale the bucket mass inside the
    /// constraint's rectangle toward the target. Because a scaled bucket
    /// spreads its mass uniformly over its whole own region, one scaling
    /// step generally undershoots when the constraint cuts buckets
    /// partially; a short inner loop closes the gap.
    fn ipf_sweep(&mut self) {
        const INNER: usize = 4;
        obs::incr(obs::Counter::IpfSweeps);
        let mut inner_iters = 0u64;
        let constraints: Vec<(Rect, f64)> =
            self.constraints.iter().map(|c| (c.rect.clone(), c.target)).collect();
        for (q, target) in constraints {
            for _ in 0..INNER {
                inner_iters += 1;
                let est = self.hist.estimate(&q);
                if est > 1e-9 {
                    let ratio = target / est;
                    if (ratio - 1.0).abs() <= self.config.tolerance {
                        break;
                    }
                    self.hist.scale_region(&q, ratio);
                } else if target > 0.0 {
                    // No mass where mass is required: seed it over the
                    // buckets overlapping q, proportional to overlap volume.
                    self.hist.add_mass(&q, target);
                } else {
                    break;
                }
            }
        }
        obs::add(obs::Counter::IpfInnerIters, inner_iters);
    }
}

impl StHoles {
    /// Multiplies the portion of every bucket's mass that lies inside
    /// `region` by `ratio` (the IPF update step). Mass outside the region is
    /// untouched; the per-bucket split uses the uniformity assumption, i.e.
    /// the same model estimation uses.
    pub fn scale_region(&mut self, region: &Rect, ratio: f64) {
        assert!(ratio >= 0.0 && ratio.is_finite());
        let ids: Vec<BucketId> = self.buckets_intersecting(region);
        for id in ids {
            let v_own = self.arena.own_volume(id);
            if v_own <= 0.0 {
                continue;
            }
            // Overlap of the region with the bucket's own region.
            let b = self.arena.get(id);
            let Some(qb) = b.rect.intersection(region) else { continue };
            let mut v_in = qb.volume();
            for &c in &b.children {
                v_in -= self.arena.get(c).rect.overlap_volume(&qb);
            }
            if v_in <= 0.0 {
                continue;
            }
            let share = (v_in / v_own).min(1.0);
            let b = self.arena.get_mut(id);
            let inside = b.freq * share;
            b.freq = (b.freq - inside + inside * ratio).max(0.0);
            self.invalidate_merges(id);
        }
    }

    /// Adds `mass` tuples inside `region`, distributed over the overlapping
    /// buckets proportionally to overlap volume.
    pub fn add_mass(&mut self, region: &Rect, mass: f64) {
        assert!(mass >= 0.0 && mass.is_finite());
        let ids: Vec<BucketId> = self.buckets_intersecting(region);
        let overlaps: Vec<f64> = ids
            .iter()
            .map(|&id| {
                let b = self.arena.get(id);
                let Some(qb) = b.rect.intersection(region) else { return 0.0 };
                let mut v = qb.volume();
                for &c in &b.children {
                    v -= self.arena.get(c).rect.overlap_volume(&qb);
                }
                v.max(0.0)
            })
            .collect();
        let total: f64 = overlaps.iter().sum();
        if total <= 0.0 {
            return;
        }
        for (id, v) in ids.into_iter().zip(overlaps) {
            if v > 0.0 {
                self.arena.get_mut(id).freq += mass * v / total;
                self.invalidate_merges(id);
            }
        }
    }
}

impl CardinalityEstimator for ConsistentStHoles {
    fn estimate(&self, rect: &Rect) -> f64 {
        self.hist.estimate(rect)
    }

    fn name(&self) -> &str {
        "stholes+ipf"
    }
}

impl Estimator for ConsistentStHoles {
    fn ndim(&self) -> usize {
        self.hist.ndim()
    }

    fn bucket_count(&self) -> usize {
        self.hist.bucket_count()
    }
}

impl SelfTuning for ConsistentStHoles {
    fn refine(&mut self, query: &Rect, feedback: &dyn RangeCounter) {
        if self.hist.frozen() || !self.hist.accepts(query) {
            return;
        }
        // No truth supplied: pay one count for it, then take the shared
        // path. Callers that already executed the query should use
        // `refine_with_truth` and skip this probe.
        let truth = feedback.count(query) as f64;
        self.refine_with_truth(query, feedback, truth);
    }

    /// A frozen histogram or a wrong-dimension `query` changes nothing and
    /// records no constraint.
    fn refine_with_truth(&mut self, query: &Rect, feedback: &dyn RangeCounter, truth: f64) {
        if self.hist.frozen() || !self.hist.accepts(query) {
            return;
        }
        self.hist.refine(query, feedback);
        self.constraints.push_back(Constraint { rect: query.clone(), target: truth, strikes: 0 });
        obs::incr(obs::Counter::ConstraintsAdded);
        while self.constraints.len() > self.config.max_constraints {
            self.constraints.pop_front();
        }
        for _ in 0..self.config.ipf_rounds {
            self.ipf_sweep();
            if self.max_violation() <= self.config.tolerance {
                break;
            }
        }
        self.invalidate_unrepresentable();
        if obs::metrics_enabled() {
            obs::record(obs::StatKind::IpfViolation, self.mean_violation());
        }
    }

    fn set_frozen(&mut self, frozen: bool) {
        self.hist.set_frozen(frozen);
    }

    fn frozen(&self) -> bool {
        self.hist.frozen()
    }

    fn audit(&self) -> Result<(), String> {
        self.hist.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sth_data::cross::CrossSpec;
    use sth_index::{KdCountTree, ScanCounter};
    use sth_query::WorkloadSpec;

    fn setup() -> (sth_data::Dataset, KdCountTree) {
        let ds = CrossSpec::cross2d().scaled(0.05).generate();
        let tree = KdCountTree::build(&ds);
        (ds, tree)
    }

    #[test]
    fn remembered_constraints_are_satisfied() {
        // Window smaller than the bucket budget: the structure can represent
        // the remembered constraints, so IPF drives violations down.
        let (ds, tree) = setup();
        let hist = StHoles::with_total(ds.domain().clone(), 60, ds.len() as f64);
        let mut c = ConsistentStHoles::new(
            hist,
            ConsistencyConfig { max_constraints: 30, ..ConsistencyConfig::default() },
        );
        let wl = WorkloadSpec { count: 60, ..WorkloadSpec::paper(0.01, 3) }
            .generate(ds.domain(), None);
        for q in wl.queries() {
            c.refine(q.rect(), &tree);
        }
        // Invalidation may shed a few unrepresentable constraints, but the
        // window never exceeds its bound and never empties here.
        assert!(c.constraint_count() <= 30);
        assert!(c.constraint_count() > 0);
        assert!(
            c.mean_violation() < 0.15,
            "constraints badly violated on average: {}",
            c.mean_violation()
        );
        assert!(c.max_violation() < 1.5, "worst constraint off: {}", c.max_violation());
        c.inner().check_invariants().unwrap();
    }

    #[test]
    fn tighter_than_raw_stholes_on_reasked_queries() {
        let (ds, tree) = setup();
        let mut raw = StHoles::with_total(ds.domain().clone(), 10, ds.len() as f64);
        let mut cons = ConsistentStHoles::new(
            StHoles::with_total(ds.domain().clone(), 10, ds.len() as f64),
            ConsistencyConfig::default(),
        );
        let wl = WorkloadSpec { count: 80, ..WorkloadSpec::paper(0.01, 9) }
            .generate(ds.domain(), None);
        for q in wl.queries() {
            raw.refine(q.rect(), &tree);
            cons.refine(q.rect(), &tree);
        }
        // Re-ask all queries without refinement and compare errors: the
        // tight budget forced merges, but IPF re-imposed the constraints.
        let mut err_raw = 0.0;
        let mut err_cons = 0.0;
        for q in wl.queries() {
            let truth = ds.count_in_scan(q.rect()) as f64;
            err_raw += (raw.estimate(q.rect()) - truth).abs();
            err_cons += (cons.estimate(q.rect()) - truth).abs();
        }
        assert!(
            err_cons <= err_raw,
            "IPF did not help: {err_cons} vs raw {err_raw}"
        );
    }

    #[test]
    fn scale_region_on_aligned_bucket_is_exact() {
        // When the region coincides with a bucket, scaling is exact.
        let domain = Rect::cube(2, 0.0, 100.0);
        let mut h = StHoles::with_total(domain.clone(), 10, 100.0);
        let left = Rect::from_bounds(&[0.0, 0.0], &[50.0, 100.0]);
        let right = Rect::from_bounds(&[50.0, 0.0], &[100.0, 100.0]);
        // Drill a bucket exactly on `left` (50 tuples land there under the
        // uniformity assumption of the root).
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 % 50.0, i as f64]).collect();
        h.refine(&left, &sth_index::ResultSetCounter::new(rows));
        let before_right = h.estimate(&right);
        h.scale_region(&left, 2.0);
        assert!((h.estimate(&left) - 100.0).abs() < 1e-6, "aligned mass must double");
        assert!((h.estimate(&right) - before_right).abs() < 1e-6, "outside mass untouched");
        h.check_invariants().unwrap();
    }

    #[test]
    fn scale_region_partial_coverage_moves_mass_monotonically() {
        // A region cutting the root partially: mass inside grows, mass
        // outside is only affected through the bucket's uniform spread.
        let domain = Rect::cube(2, 0.0, 100.0);
        let mut h = StHoles::with_total(domain.clone(), 10, 100.0);
        let left = Rect::from_bounds(&[0.0, 0.0], &[50.0, 100.0]);
        let before = h.estimate(&left);
        h.scale_region(&left, 2.0);
        let after = h.estimate(&left);
        assert!(after > before, "scaling must increase inside mass");
        assert!(after <= 2.0 * before + 1e-9);
        h.check_invariants().unwrap();
    }

    #[test]
    fn add_mass_seeds_empty_regions() {
        let domain = Rect::cube(2, 0.0, 100.0);
        let mut h = StHoles::with_total(domain.clone(), 10, 0.0);
        let q = Rect::from_bounds(&[10.0, 10.0], &[30.0, 30.0]);
        assert_eq!(h.estimate(&q), 0.0);
        h.add_mass(&q, 42.0);
        // Mass is distributed over the root's overlap region (only the root
        // exists), so the estimate over q recovers a share of it.
        assert!(h.estimate(&q) > 0.0);
        h.check_invariants().unwrap();
    }

    #[test]
    fn window_is_bounded() {
        let (ds, _tree) = setup();
        let hist = StHoles::with_total(ds.domain().clone(), 20, ds.len() as f64);
        let mut c = ConsistentStHoles::new(
            hist,
            ConsistencyConfig { max_constraints: 10, ..ConsistencyConfig::default() },
        );
        let wl = WorkloadSpec { count: 40, ..WorkloadSpec::paper(0.01, 5) }
            .generate(ds.domain(), None);
        let scan = ScanCounter::new(&ds);
        for q in wl.queries() {
            c.refine(q.rect(), &scan);
        }
        assert!(c.constraint_count() <= 10);
        assert!(c.constraint_count() > 0);
    }

    #[test]
    fn merges_under_tight_budget_invalidate_stale_constraints() {
        // A bucket budget far below the constraint window: merges keep
        // coarsening the structure past what old constraints require, so
        // IPF cannot satisfy them all. The invalidation pass must drop the
        // unrepresentable ones and keep the mean violation bounded.
        let (ds, tree) = setup();
        let make = |drop_violation: f64| {
            let hist = StHoles::with_total(ds.domain().clone(), 6, ds.len() as f64);
            ConsistentStHoles::new(
                hist,
                ConsistencyConfig {
                    max_constraints: 64,
                    drop_violation,
                    ..ConsistencyConfig::default()
                },
            )
        };
        let wl = WorkloadSpec { count: 120, ..WorkloadSpec::paper(0.01, 17) }
            .generate(ds.domain(), None);
        let mut dropping = make(0.5);
        let mut keeping = make(f64::INFINITY);
        for q in wl.queries() {
            dropping.refine(q.rect(), &tree);
            keeping.refine(q.rect(), &tree);
        }
        assert!(
            dropping.dropped_constraint_count() > 0,
            "tight budget never invalidated a constraint"
        );
        assert_eq!(keeping.dropped_constraint_count(), 0);
        assert!(
            dropping.mean_violation() <= keeping.mean_violation() + 1e-9,
            "dropping made the window worse: {} vs {}",
            dropping.mean_violation(),
            keeping.mean_violation()
        );
        assert!(
            dropping.mean_violation() < 0.5,
            "mean violation unbounded: {}",
            dropping.mean_violation()
        );
        dropping.inner().check_invariants().unwrap();
    }

    #[test]
    fn refine_with_truth_saves_exactly_one_probe() {
        // The constraint target comes from the caller-supplied truth, so
        // `refine_with_truth` must issue exactly one fewer feedback count
        // than plain `refine` on an identical histogram.
        sth_platform::obs::force_metrics(true);
        use sth_platform::obs::{snapshot, Counter};
        let (ds, tree) = setup();
        let q = wlq(&ds);
        let truth = ds.count_in_scan(&q) as f64;

        let mut plain = ConsistentStHoles::new(
            StHoles::with_total(ds.domain().clone(), 20, ds.len() as f64),
            ConsistencyConfig::default(),
        );
        let before = snapshot();
        plain.refine(&q, &tree);
        let plain_probes = snapshot().delta(&before).get(Counter::IndexProbes);

        let mut with_truth = ConsistentStHoles::new(
            StHoles::with_total(ds.domain().clone(), 20, ds.len() as f64),
            ConsistencyConfig::default(),
        );
        let before = snapshot();
        with_truth.refine_with_truth(&q, &tree, truth);
        let truth_probes = snapshot().delta(&before).get(Counter::IndexProbes);

        assert_eq!(plain_probes, truth_probes + 1);
        assert_eq!(plain.constraint_count(), with_truth.constraint_count());
        assert!((plain.estimate(&q) - with_truth.estimate(&q)).abs() < 1e-9);
    }

    /// One representative mid-size query over the cross dataset.
    fn wlq(ds: &sth_data::Dataset) -> Rect {
        let wl = WorkloadSpec { count: 1, ..WorkloadSpec::paper(0.01, 3) }
            .generate(ds.domain(), None);
        wl.queries()[0].rect().clone()
    }
}
