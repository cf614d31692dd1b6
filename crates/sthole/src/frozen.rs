//! Immutable estimation snapshots: the read path split off the write path.
//!
//! [`StHoles`] interleaves two workloads with opposite needs: *estimation*
//! (read-only, latency-critical, what a query optimizer calls) and
//! *refinement* (mutating drill/merge). [`FrozenHistogram`] is the
//! estimation half extracted into an immutable, pointer-free snapshot:
//! every bucket flattened into contiguous SoA arrays in BFS order, so the
//! traversal is an iterative walk over packed `f64` runs — no recursion,
//! no arena slot chasing, no per-bucket allocation.
//!
//! ## Bit-identity contract
//!
//! `FrozenHistogram::estimate` returns **bit-identical** results to the
//! live [`StHoles`] path. That is not approximate: float addition is
//! non-associative, so the frozen traversal replays the exact operand
//! order of `StHoles::estimate_rec` — per-node accumulators on an explicit
//! frame stack (each child subtree folded into its parent as one value),
//! query boxes intersected dimension-by-dimension with the same `max`/`min`
//! expressions, own volumes pre-subtracted in child-list order at freeze
//! time, and the children-hull gate copied verbatim from the arena. The
//! `frozen_estimate_is_bit_identical` property test pins the contract.
//!
//! BFS order makes each node's children a contiguous index range, so the
//! child lists need no storage beyond two `u32` cursors per node — the
//! whole snapshot is seven flat arrays, trivially cheap to clone, share
//! (`Arc`), or ship across threads (see `sth_platform::snap`).

use std::cell::RefCell;

use sth_geometry::Rect;
use sth_platform::codec::ByteWriter;
use sth_platform::obs;
use sth_query::{CardinalityEstimator, Estimator};

use crate::kernel::KERNEL_MIN_BATCH;
use crate::{ConsistentStHoles, StHoles};

/// One suspended traversal level: the node being expanded, its remaining
/// children, and the two per-node accumulators of the recursive path.
#[derive(Clone, Copy)]
struct Frame {
    /// Node index in the snapshot arrays.
    node: u32,
    /// Next child (absolute node index) to consider.
    cursor: u32,
    /// One past the last child.
    end: u32,
    /// Children-hull gate result: `false` skips the whole child range.
    gate: bool,
    /// Σ of completed child subtree estimates (the recursive `est`).
    est: f64,
    /// `vol(q ∩ own region)` under construction (the recursive `v_q_own`).
    v_q_own: f64,
}

/// Reusable traversal buffers: the frame stack and one packed query box
/// per depth level. Pooled per thread (see [`with_scratch`]), so the
/// snapshot itself stays free of interior mutability and is `Sync`.
#[derive(Default)]
struct FrozenScratch {
    frames: Vec<Frame>,
    /// Stacked packed query boxes, `2·ndim` values per depth level.
    qbs: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<FrozenScratch> = RefCell::new(FrozenScratch::default());
}

/// Runs `f` with this thread's pooled traversal scratch, so single-query
/// [`CardinalityEstimator::estimate`] calls stop allocating a fresh frame
/// stack each time. Reentrancy (an estimate called from inside another
/// estimate's scope — not something the crate does) degrades to a fresh
/// scratch instead of panicking.
fn with_scratch<R>(f: impl FnOnce(&mut FrozenScratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut FrozenScratch::default()),
    })
}

/// An immutable, flattened snapshot of an [`StHoles`] bucket tree, built
/// by [`StHoles::freeze`]. See the module docs for layout and the
/// bit-identity contract.
#[derive(Clone, Debug)]
pub struct FrozenHistogram {
    pub(crate) ndim: usize,
    /// Packed bucket boxes, BFS order (`[lo_0..lo_{n-1}, hi_0..hi_{n-1}]`).
    pub(crate) bounds: Vec<f64>,
    /// Packed children hulls, copied verbatim from the arena so the
    /// traversal gate takes exactly the live path's decisions.
    pub(crate) hulls: Vec<f64>,
    /// Cached box volumes.
    pub(crate) vols: Vec<f64>,
    /// Own-region volumes (box minus children), pre-subtracted at freeze
    /// time with the live path's arithmetic.
    pub(crate) own_vols: Vec<f64>,
    /// Own-region tuple counts.
    pub(crate) freqs: Vec<f64>,
    /// First child (node index) per node; BFS order makes children
    /// contiguous.
    pub(crate) child_start: Vec<u32>,
    /// One past the last child per node.
    pub(crate) child_end: Vec<u32>,
    /// Deepest node level; sizes the per-depth query-box stack.
    pub(crate) max_depth: usize,
}

impl StHoles {
    /// Builds an immutable estimation snapshot of the current bucket tree.
    ///
    /// The live histogram is untouched and keeps refining; the snapshot
    /// answers [`Estimator::estimate`] with bit-identical results to the
    /// live path at freeze time. Cost: one BFS plus flat array copies.
    pub fn freeze(&self) -> FrozenHistogram {
        FrozenHistogram::from_live(self)
    }
}

impl ConsistentStHoles {
    /// Snapshots the underlying bucket tree (the IPF layer adjusts bucket
    /// frequencies in place, so the snapshot reflects all applied
    /// constraint scaling).
    pub fn freeze(&self) -> FrozenHistogram {
        self.inner().freeze()
    }
}

impl FrozenHistogram {
    fn from_live(live: &StHoles) -> Self {
        let ndim = live.domain().ndim();
        let span = 2 * ndim;

        // BFS over the bucket tree: children of node `i` land contiguously,
        // in child-list order — the order the live estimate visits them.
        let mut order = vec![live.root];
        let mut depth = vec![0usize];
        let mut child_start = Vec::new();
        let mut child_end = Vec::new();
        let mut i = 0;
        while i < order.len() {
            let b = live.arena.get(order[i]);
            child_start.push(order.len() as u32);
            for &c in &b.children {
                order.push(c);
                depth.push(depth[i] + 1);
            }
            child_end.push(order.len() as u32);
            i += 1;
        }

        let count = order.len();
        let mut bounds = Vec::with_capacity(count * span);
        let mut hulls = Vec::with_capacity(count * span);
        let mut vols = Vec::with_capacity(count);
        let mut freqs = Vec::with_capacity(count);
        for &id in &order {
            bounds.extend_from_slice(live.arena.bounds(id));
            hulls.extend_from_slice(live.arena.hull(id));
            vols.push(live.arena.volume_of(id));
            freqs.push(live.arena.get(id).freq);
        }
        // Own volumes, subtracted in child order exactly as
        // `BucketArena::own_volume` does.
        let own_vols: Vec<f64> = (0..count)
            .map(|i| {
                let mut v = vols[i];
                for c in child_start[i]..child_end[i] {
                    v -= vols[c as usize];
                }
                v.max(0.0)
            })
            .collect();

        Self {
            ndim,
            bounds,
            hulls,
            vols,
            own_vols,
            freqs,
            child_start,
            child_end,
            max_depth: depth.iter().copied().max().unwrap_or(0),
        }
    }

    /// Number of dimensions of the snapshotted data space.
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    /// Total nodes, root included.
    pub fn node_count(&self) -> usize {
        self.vols.len()
    }

    /// Sum of all bucket frequencies (= estimated table cardinality).
    pub fn total_freq(&self) -> f64 {
        self.freqs.iter().sum()
    }

    /// The snapshotted domain (the root box).
    pub fn domain(&self) -> Rect {
        let span = 2 * self.ndim;
        Rect::from_bounds(&self.bounds[..self.ndim], &self.bounds[self.ndim..span])
    }

    /// 64-bit FNV-1a hash of the snapshot's logical state: its canonical
    /// BFS columns (boxes, frequencies, child ranges). The BFS order is a
    /// function of the bucket tree alone, so snapshots of logically equal
    /// trees hash equal whatever the live arena's slot history. Derived
    /// columns (volumes, own volumes) and the pruning-only children hulls
    /// are left out.
    pub fn golden_hash(&self) -> u64 {
        let count = self.node_count();
        let mut out = ByteWriter::with_capacity(8 + count * (2 * self.ndim + 1) * 8 + count * 4);
        out.u32(self.ndim as u32);
        out.u32(count as u32);
        out.f64_slice(&self.bounds);
        out.f64_slice(&self.freqs);
        for &e in &self.child_end {
            out.u32(e);
        }
        sth_platform::codec::fnv1a(out.as_bytes())
    }

    /// Writes `bounds ∩ q` into `out` (packed); `false` when empty.
    /// Mirrors `Rect::intersection` dimension-for-dimension.
    #[inline]
    pub(crate) fn intersect_into(bounds: &[f64], q: &Rect, out: &mut [f64]) -> bool {
        let n = q.ndim();
        let (blo, bhi) = bounds.split_at(n);
        for d in 0..n {
            let lo = blo[d].max(q.lo()[d]);
            let hi = bhi[d].min(q.hi()[d]);
            if lo >= hi {
                return false;
            }
            out[d] = lo;
            out[n + d] = hi;
        }
        true
    }

    /// Volume of a packed box. Mirrors `Rect::volume` (ordered product).
    #[inline]
    pub(crate) fn packed_volume(packed: &[f64]) -> f64 {
        let n = packed.len() / 2;
        let mut v = 1.0;
        for d in 0..n {
            v *= packed[n + d] - packed[d];
        }
        v
    }

    /// Interior-volume test of two packed boxes. Mirrors
    /// `Rect::intersects_packed` with `a` in the `self` role.
    #[inline]
    pub(crate) fn packed_intersects(a: &[f64], b: &[f64]) -> bool {
        let n = a.len() / 2;
        for d in 0..n {
            if a[d].max(b[d]) >= a[n + d].min(b[n + d]) {
                return false;
            }
        }
        true
    }

    /// Overlap volume of the packed query box `qb` and the packed bucket
    /// box `cb`. Mirrors `Rect::overlap_volume_packed` with `qb` in the
    /// `self` role: per-dimension length `cb_hi.min(qb_hi) − cb_lo.max(qb_lo)`.
    #[inline]
    pub(crate) fn packed_overlap(qb: &[f64], cb: &[f64]) -> f64 {
        let n = qb.len() / 2;
        let mut v = 1.0;
        for d in 0..n {
            let len = cb[n + d].min(qb[n + d]) - cb[d].max(qb[d]);
            if len <= 0.0 {
                return 0.0;
            }
            v *= len;
        }
        v
    }

    /// The iterative replay of `StHoles::estimate_rec`: an explicit frame
    /// stack holding each suspended node's `est`/`v_q_own` accumulators,
    /// with the packed query box for each depth level in `scratch.qbs`.
    fn estimate_with(&self, scratch: &mut FrozenScratch, q: &Rect) -> f64 {
        if q.ndim() != self.ndim {
            return f64::NAN;
        }
        let span = 2 * self.ndim;
        let frames = &mut scratch.frames;
        frames.clear();
        scratch.qbs.resize((self.max_depth + 1) * span, 0.0);
        let qbs = &mut scratch.qbs[..];

        if !Self::intersect_into(&self.bounds[..span], q, &mut qbs[..span]) {
            return 0.0;
        }
        let vol = Self::packed_volume(&qbs[..span]);
        let gate = self.enter_gate(0, &qbs[..span]);
        frames.push(Frame {
            node: 0,
            cursor: self.child_start[0],
            end: self.child_end[0],
            gate,
            est: 0.0,
            v_q_own: vol,
        });

        loop {
            let fi = frames.len() - 1;
            let at = fi * span;
            // Descend into the next overlapping child, if any.
            let mut descended = false;
            if frames[fi].gate {
                while frames[fi].cursor < frames[fi].end {
                    let c = frames[fi].cursor as usize;
                    frames[fi].cursor += 1;
                    let (parent_qbs, child_qbs) = qbs.split_at_mut(at + span);
                    let qb = &parent_qbs[at..];
                    let cb = &self.bounds[c * span..(c + 1) * span];
                    let overlap = Self::packed_overlap(qb, cb);
                    if overlap > 0.0 {
                        frames[fi].v_q_own -= overlap;
                        let child_qb = &mut child_qbs[..span];
                        // A positive overlap volume means every dimension
                        // overlaps, so this intersection cannot be empty.
                        let nonempty = Self::intersect_into(cb, q, child_qb);
                        debug_assert!(nonempty);
                        let vol = Self::packed_volume(child_qb);
                        let gate = self.enter_gate(c, child_qb);
                        frames.push(Frame {
                            node: c as u32,
                            cursor: self.child_start[c],
                            end: self.child_end[c],
                            gate,
                            est: 0.0,
                            v_q_own: vol,
                        });
                        descended = true;
                        break;
                    }
                }
            }
            if descended {
                continue;
            }
            // All children folded in: close this node and hand its total
            // to the parent — one addition per subtree, exactly like the
            // recursive return.
            let f = frames.pop().expect("frame stack underflow");
            let i = f.node as usize;
            let qb = &qbs[frames.len() * span..frames.len() * span + span];
            let v_own = self.own_vols[i];
            let mut est = f.est;
            if v_own > 0.0 && f.v_q_own > 0.0 {
                est += self.freqs[i] * (f.v_q_own / v_own).min(1.0);
            } else if f.v_q_own > 0.0 || qb == &self.bounds[i * span..(i + 1) * span] {
                // Degenerate own region fully covered by the query.
                est += self.freqs[i];
            }
            match frames.last_mut() {
                Some(parent) => parent.est += est,
                None => return est,
            }
        }
    }

    /// The children-hull gate, including the live path's prune counter.
    #[inline]
    fn enter_gate(&self, node: usize, qb: &[f64]) -> bool {
        if self.child_start[node] == self.child_end[node] {
            return false;
        }
        let span = 2 * self.ndim;
        if Self::packed_intersects(qb, &self.hulls[node * span..(node + 1) * span]) {
            true
        } else {
            obs::incr(obs::Counter::HullGatePrunes);
            false
        }
    }

    /// Verifies the snapshot's structural invariants; returns a description
    /// of the first violation. Readers in the concurrent serve loop run
    /// this under `STH_AUDIT=1` on every loaded snapshot — a torn or
    /// half-published snapshot cannot pass.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.ndim;
        let span = 2 * n;
        let count = self.vols.len();
        if n == 0 || count == 0 {
            return Err("empty snapshot: a frozen histogram always has a root".into());
        }
        for (name, len, want) in [
            ("bounds", self.bounds.len(), count * span),
            ("hulls", self.hulls.len(), count * span),
            ("own_vols", self.own_vols.len(), count),
            ("freqs", self.freqs.len(), count),
            ("child_start", self.child_start.len(), count),
            ("child_end", self.child_end.len(), count),
        ] {
            if len != want {
                return Err(format!("array length mismatch: {name} has {len}, want {want}"));
            }
        }
        // BFS layout: the child ranges, in node order, exactly tile 1..count.
        let mut cursor = 1u32;
        for i in 0..count {
            if self.child_start[i] != cursor {
                return Err(format!(
                    "node {i}: child range starts at {}, BFS expects {cursor}",
                    self.child_start[i]
                ));
            }
            if self.child_end[i] < self.child_start[i] || self.child_end[i] > count as u32 {
                return Err(format!("node {i}: bad child range end {}", self.child_end[i]));
            }
            cursor = self.child_end[i];
        }
        if cursor != count as u32 {
            return Err(format!("child ranges cover {cursor} nodes, snapshot has {count}"));
        }
        for i in 0..count {
            let b = &self.bounds[i * span..(i + 1) * span];
            for d in 0..n {
                if !b[d].is_finite() || !b[n + d].is_finite() || b[d] >= b[n + d] {
                    return Err(format!("node {i}: bad bounds in dimension {d}"));
                }
            }
            if !self.freqs[i].is_finite() || self.freqs[i] < 0.0 {
                return Err(format!("node {i}: bad freq {}", self.freqs[i]));
            }
            if self.vols[i] != Self::packed_volume(b) {
                return Err(format!("node {i}: stale cached volume"));
            }
            let mut own = self.vols[i];
            for c in self.child_start[i]..self.child_end[i] {
                own -= self.vols[c as usize];
            }
            if self.own_vols[i] != own.max(0.0) {
                return Err(format!("node {i}: stale own volume"));
            }
            let hull = &self.hulls[i * span..(i + 1) * span];
            for c in self.child_start[i] as usize..self.child_end[i] as usize {
                let cb = &self.bounds[c * span..(c + 1) * span];
                for d in 0..n {
                    if cb[d] < b[d] || cb[n + d] > b[n + d] {
                        return Err(format!("node {i}: child {c} escapes parent box"));
                    }
                    if cb[d] < hull[d] || cb[n + d] > hull[n + d] {
                        return Err(format!("node {i}: child {c} escapes children hull"));
                    }
                }
                for c2 in c + 1..self.child_end[i] as usize {
                    let cb2 = &self.bounds[c2 * span..(c2 + 1) * span];
                    if (0..n).all(|d| cb[d].max(cb2[d]) < cb[n + d].min(cb2[n + d])) {
                        return Err(format!("node {i}: children {c} and {c2} overlap"));
                    }
                }
            }
        }
        Ok(())
    }
}

impl CardinalityEstimator for FrozenHistogram {
    /// Estimated tuple count in `rect`. A rectangle whose dimensionality
    /// differs from [`FrozenHistogram::ndim`] is answered with `NaN`; the
    /// batch paths give the same answer per query and never panic.
    fn estimate(&self, rect: &Rect) -> f64 {
        with_scratch(|scratch| self.estimate_with(scratch, rect))
    }

    fn name(&self) -> &str {
        "stholes-frozen"
    }
}

impl Estimator for FrozenHistogram {
    fn ndim(&self) -> usize {
        self.ndim
    }

    /// Buckets excluding the root, matching `StHoles::bucket_count`.
    fn bucket_count(&self) -> usize {
        self.vols.len() - 1
    }

    /// Batch estimation — the serve-loop fast path. Clears `out`, then
    /// routes batches of [`KERNEL_MIN_BATCH`] or more through the
    /// lane-oriented kernel (`kernel.rs`); smaller batches take the scalar
    /// loop with one shared traversal scratch, whose per-query results the
    /// kernel is proven bit-identical to. A wrong-dimension query gets `NaN`
    /// in its slot, as from `estimate`.
    fn estimate_batch(&self, queries: &[Rect], out: &mut Vec<f64>) {
        let _t = obs::time_hist(obs::HistKind::BatchEstimateNs);
        if queries.len() >= KERNEL_MIN_BATCH {
            self.estimate_batch_kernel(queries, out);
        } else {
            out.clear();
            with_scratch(|scratch| {
                out.reserve(queries.len());
                for q in queries {
                    out.push(self.estimate_with(scratch, q));
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bucket;

    fn domain() -> Rect {
        Rect::cube(2, 0.0, 100.0)
    }

    /// The 4-bucket histogram of Fig. 1 of the paper.
    fn fig1() -> StHoles {
        let mut h = StHoles::with_total(domain(), 10, 2.0);
        let root = h.root;
        let b1 = h.arena.alloc(Bucket::leaf(
            Rect::from_bounds(&[5.0, 55.0], &[40.0, 95.0]),
            4.0,
            Some(root),
        ));
        let b2 = h.arena.alloc(Bucket::leaf(
            Rect::from_bounds(&[50.0, 10.0], &[95.0, 45.0]),
            3.0,
            Some(root),
        ));
        h.arena.get_mut(root).children.extend([b1, b2]);
        let b3 = h.arena.alloc(Bucket::leaf(
            Rect::from_bounds(&[60.0, 20.0], &[80.0, 40.0]),
            3.0,
            Some(b2),
        ));
        h.arena.get_mut(b2).children.push(b3);
        h.nonroot_count = 3;
        h.arena.tighten_hull(root);
        h.arena.tighten_hull(b2);
        h.check_invariants().unwrap();
        h
    }

    #[test]
    fn frozen_matches_live_bitwise_on_fixture() {
        let h = fig1();
        let f = h.freeze();
        f.check_invariants().unwrap();
        let queries = [
            domain(),
            Rect::from_bounds(&[50.0, 10.0], &[95.0, 45.0]),
            Rect::from_bounds(&[60.0, 20.0], &[80.0, 40.0]),
            Rect::from_bounds(&[0.0, 0.0], &[5.0, 55.0]),
            Rect::from_bounds(&[55.0, 15.0], &[70.0, 30.0]),
            Rect::from_bounds(&[200.0, 200.0], &[300.0, 300.0]),
            Rect::from_bounds(&[0.0, 0.0], &[100.0, 10.0]),
        ];
        for q in &queries {
            let live = h.estimate(q);
            let frozen = f.estimate(q);
            assert_eq!(live.to_bits(), frozen.to_bits(), "mismatch on {q}: {live} vs {frozen}");
        }
    }

    #[test]
    fn frozen_empty_histogram_is_uniform() {
        let h = StHoles::with_total(domain(), 10, 1000.0);
        let f = h.freeze();
        f.check_invariants().unwrap();
        assert_eq!(f.estimate(&domain()), 1000.0);
        let quarter = Rect::from_bounds(&[0.0, 0.0], &[50.0, 50.0]);
        assert_eq!(f.estimate(&quarter).to_bits(), h.estimate(&quarter).to_bits());
        assert_eq!(f.estimate(&Rect::cube(2, 200.0, 300.0)), 0.0);
    }

    #[test]
    fn structure_matches_live() {
        let h = fig1();
        let f = h.freeze();
        assert_eq!(f.ndim(), 2);
        assert_eq!(f.node_count(), 4);
        assert_eq!(Estimator::bucket_count(&f), h.bucket_count());
        assert_eq!(f.total_freq(), h.total_freq());
        assert_eq!(&f.domain(), h.domain());
        assert_eq!(f.name(), "stholes-frozen");
    }

    #[test]
    fn batch_matches_single_estimates() {
        let h = fig1();
        let f = h.freeze();
        let queries: Vec<Rect> = (0..20)
            .map(|i| {
                let lo = i as f64 * 3.0;
                Rect::from_bounds(&[lo, lo * 0.5], &[lo + 30.0, lo * 0.5 + 40.0])
            })
            .collect();
        let mut batch = Vec::new();
        f.estimate_batch(&queries, &mut batch);
        assert_eq!(batch.len(), queries.len());
        for (q, got) in queries.iter().zip(&batch) {
            assert_eq!(got.to_bits(), f.estimate(q).to_bits());
        }
    }

    #[test]
    fn invariants_catch_corruption() {
        let h = fig1();
        let mut f = h.freeze();
        f.check_invariants().unwrap();
        f.freqs[1] = f64::NAN;
        assert!(f.check_invariants().unwrap_err().contains("bad freq"));

        let mut f = h.freeze();
        f.vols[2] += 1.0;
        assert!(f.check_invariants().unwrap_err().contains("volume"));

        let mut f = h.freeze();
        f.child_start[1] = 0;
        assert!(f.check_invariants().unwrap_err().contains("child range"));
    }

    #[test]
    fn snapshot_outlives_further_refinement() {
        use sth_index::ResultSetCounter;
        use sth_query::SelfTuning;

        let mut h = StHoles::with_total(domain(), 10, 1000.0);
        let f = h.freeze();
        let q = Rect::from_bounds(&[10.0, 10.0], &[30.0, 30.0]);
        let before = f.estimate(&q);
        // Refining the live histogram must not affect the snapshot.
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![12.0 + (i % 9) as f64, 15.0]).collect();
        h.refine(&q, &ResultSetCounter::new(rows));
        assert_ne!(h.estimate(&q).to_bits(), before.to_bits(), "refinement was a no-op");
        assert_eq!(f.estimate(&q).to_bits(), before.to_bits());
    }
}
