//! Bucket merging: compacting the histogram back under its budget.
//!
//! A merge replaces two buckets by one, choosing the pair whose merge
//! changes the histogram's estimates the least (merge penalty, Eq. 2 of the
//! paper). Two merge shapes exist (paper §2.1 "Removing buckets"):
//!
//! * **Parent–child**: the child's region is folded back into the parent.
//! * **Sibling–sibling**: two siblings are replaced by a bucket over their
//!   bounding box; if that box partially overlaps other siblings it is
//!   extended until every other sibling is either disjoint or fully
//!   enclosed (the enclosed ones — *participants* — become children of the
//!   merged bucket, cf. Fig. 3 of the paper).
//!
//! ## Acceleration
//!
//! The cheapest merge is found through [`MergeAccel`]: per-parent cached
//! [`ParentMerges`] entries plus two global min-heaps (one per merge shape)
//! keyed by `(penalty, parent, version)`. Structural changes mark the
//! affected parents *dirty*; the next [`StHoles::best_merge`] call
//! recomputes only those parents, bumps their version counter (lazily
//! invalidating any queued heap entries), and then answers from the heap
//! tops — O(log parents) per steady-state merge instead of a full parent
//! scan. [`StHoles::best_merge_exhaustive`] keeps the original full scan
//! as a brute-force oracle.
//!
//! Recomputing one parent is dominated by its sibling pairs, each of which
//! runs the box-extension fixpoint ([`StHoles::sibling_fixpoint`]). The
//! search skips most of them with a lower bound that needs no fixpoint:
//!
//! * **The bound.** A sibling penalty is `|f_a − ρ·v_a| + |f_b − ρ·v_b| +
//!   |f_move − ρ·v_move|`. Dropping the last term and minimising the other
//!   two over ρ — a convex piecewise-linear function, so the minimum sits
//!   at `ρ ∈ {0, f_a/v_a, f_b/v_b}` — gives an O(1) bound per pair
//!   ([`sibling_penalty_bound`]).
//! * **The slack.** The bound is lowered by `1e-9·(|f_a|+|f_b|+bound)`.
//!   Rounding in the bound and in the penalty is a few ulps of those
//!   magnitudes, orders of magnitude below the slack, so rounding can
//!   never make the bound exceed the penalty it bounds.
//! * **The order.** Pairs are evaluated by ascending `(bound, position)`
//!   and the search stops at the first pair whose bound exceeds the best
//!   penalty found: it and every later pair cost strictly more.
//! * **The tie rule.** The winner is the least `(penalty, position)`,
//!   position being the index into the candidate list — exactly what the
//!   original first-wins strict-`<` scan returns, since penalties are never
//!   NaN. A pair tying the best penalty has a bound ≤ that penalty, so it
//!   is still evaluated and can win on position. Merges, tie order and
//!   every golden hash are unchanged; only fixpoints that cannot win are
//!   skipped.
//!
//! A refresh re-evaluates the surviving pairs of its parent, yet one merge
//! or drill changes only two or three of the parent's children. The
//! fixpoint's geometry — merged box, participant ids (children order),
//! `bn_vol` and `v_move` — depends on the sibling boxes alone, so a
//! per-parent [`FixpointCache`] keeps it across refreshes, together with a
//! snapshot of the children (ids and packed bounds) it was computed from:
//!
//! * **The validity rule.** The next refresh diffs the snapshot against
//!   the current children. A child is *unchanged* when its id is still
//!   there with bit-identical bounds; every other old or new child box is
//!   *changed* (a recycled slot with a new box counts as removed plus
//!   added). A cached pair survives when `a` and `b` are unchanged and
//!   every changed box is disjoint from its merged box under the
//!   fixpoint's own test: some `d` with `max(lo) ≥ min(hi)`. A pair the
//!   last refresh did not evaluate is dropped too, which bounds the cache
//!   by one refresh's evaluated pairs.
//! * **Why survivors are exact.** Every intermediate box of the extension
//!   lies inside the final box `B`, so a box disjoint from `B` is disjoint
//!   from each of them: a removed child never took part in reaching `B`,
//!   and an added one neither extends `B` nor becomes a participant. `B`
//!   is still reached from `hull(a, b)` by the same steps and is still a
//!   fixpoint, and the least fixpoint does not depend on visit order.
//! * **Why hits are bit-identical.** A hit skips only the fixpoint; the
//!   penalty tail ([`StHoles::sibling_penalty_tail`]) is shared with the
//!   miss path and reads the parent's current frequency and own volume and
//!   `a`'s and `b`'s current children. Participants are subtracted in
//!   children order on both paths — every child-list edit is retain plus
//!   append, so unchanged children keep their relative order — and an
//!   unchanged child's box volume is the one the miss path reads.
//!
//! Before any of that, a parent with more than `2·max(cap, 2)` children
//! picks its candidate pairs by hull growth `vol(hull(a, b)) − vol(a) −
//! vol(b)`, a cheap proxy for how much foreign volume a merge would absorb
//! (see [`crate::SthConfig::sibling_neighbor_cap`]). The same cache holds
//! a [`HullTable`] for it:
//!
//! * **The table.** The hull volume `v(a, b)` of every pair (the d-product
//!   only) and each child's two least-growth partners (`best2`). Rows are
//!   keyed by a cache-local *slot*: a removed child frees its slot and an
//!   added one reuses a free slot, so no row moves when positions shift
//!   and the table never needs an O(k²) compaction. It costs
//!   `slots² × 8 B`.
//! * **The validity rule.** The table shares the fixpoint cache's diff,
//!   one per refresh. An unchanged child keeps its slot and its row. A
//!   changed child gets a fresh slot, and its hull volumes with every
//!   current child are recomputed: O(k·changed·d) per refresh instead of
//!   O(k²·d). A hull volume depends on the two boxes alone, so the
//!   volumes of unchanged pairs stay exact.
//! * **Why growths are bit-identical.** A growth is recomputed from the
//!   cached `v` with the row owner's volume subtracted first, as the
//!   all-pairs loop did for each side. `v` is the product that loop took,
//!   with the earlier position's bounds first: unchanged children keep
//!   their relative order, so the earlier child stays earlier.
//! * **Why `best2` is bit-identical.** The all-pairs loop's strict-`<`
//!   updates in ascending partner position keep each child's two least
//!   `(growth, position)` partners under plain `<`, so `−0.0 == +0.0` and
//!   the earlier position wins. A row is rescanned in that order when its
//!   child or one of its two partners changed. Otherwise its two partners
//!   are still its two least among the unchanged children, and offering
//!   only the changed children under the same order gives the same two.
//! * **Why the top-up is bit-identical.** It keeps the `max(8·cap, 16)`
//!   least growths. Its input is rebuilt from the table in the all-pairs
//!   loop's `(i, j)` order, with the same growths, and selected with the
//!   same `select_nth_unstable_by`, so identical input keeps the same
//!   pairs, ties at the boundary included.
//!
//! The cache is acceleration state like [`ParentMerges`]: `Clone`,
//! persistence and `invalidate_all` drop it, and so does a parent's death
//! or the loss of its children. A refresh at or below the exhaustive
//! threshold drops the hull table. The sweep order a miss needs is built
//! on the first miss of a refresh.
//!
//! The oracle evaluates every candidate pair in position order and runs
//! every fixpoint afresh, so it checks the pruned search and the fixpoint
//! cache rather than sharing them. It picks its candidates with the same
//! row code on an empty hull table, where every child counts as changed;
//! the table itself is checked against an all-pairs computation by the
//! `growth_cache_matches_uncached_candidates*` tests.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::cmp::Reverse;

use sth_geometry::Rect;
use sth_platform::obs;

use crate::scratch::RefineScratch;
use crate::{Bucket, BucketArena, BucketId, StHoles};

/// A concrete merge to apply.
#[derive(Clone, Debug, PartialEq)]
pub enum MergeOp {
    /// Fold `child` into `parent`.
    ParentChild {
        /// The surviving parent.
        parent: BucketId,
        /// The child to fold in.
        child: BucketId,
    },
    /// Replace siblings `a` and `b` (children of `parent`) by one bucket.
    Siblings {
        /// Common parent.
        parent: BucketId,
        /// First sibling.
        a: BucketId,
        /// Second sibling.
        b: BucketId,
    },
}

/// A merge candidate with its penalty.
#[derive(Clone, Debug, PartialEq)]
pub struct MergePenalty {
    /// Estimated change in histogram estimates caused by the merge.
    pub penalty: f64,
    /// The merge itself.
    pub op: MergeOp,
}

/// Cached cheapest merges below one parent bucket: the best merge of a
/// child into this parent, and the best sibling–sibling merge among its
/// children. Invalidated whenever the parent or one of its children
/// changes structurally.
#[derive(Clone, Debug, Default)]
pub struct ParentMerges {
    /// Cheapest parent–child merge (child into this bucket).
    pub best_parent_child: Option<MergePenalty>,
    /// Cheapest sibling–sibling merge among this bucket's children.
    pub best_siblings: Option<MergePenalty>,
}

/// One queued heap candidate: the cheapest merge of one shape under
/// `parent`, valid only while `version` matches the accelerator's current
/// version for that parent (lazy deletion).
#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    penalty: f64,
    parent: BucketId,
    version: u64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Penalties are finite sums of absolute values (never NaN, never
        // −0.0), so total_cmp agrees with the numeric order. The parent
        // tiebreak reproduces the original scan order (ascending slot).
        self.penalty
            .total_cmp(&other.penalty)
            .then(self.parent.cmp(&other.parent))
            .then(self.version.cmp(&other.version))
    }
}

/// Incremental best-merge state: per-parent caches, a dirty set, and two
/// global min-heaps with versioned lazy deletion.
///
/// Not part of the histogram's logical state: `Clone` and persistence drop
/// it (`rebuild_all` makes the first `best_merge` after a rebuild start
/// from scratch).
#[derive(Debug)]
pub(crate) struct MergeAccel {
    cache: HashMap<BucketId, ParentMerges>,
    /// Per-slot sibling-pair fixpoints of the parent there, kept across
    /// refreshes.
    fixpoints: Vec<FixpointCache>,
    /// Per-slot version; bumping it invalidates all queued heap entries.
    version: Vec<u64>,
    dirty: Vec<BucketId>,
    dirty_flag: Vec<bool>,
    heap_pc: BinaryHeap<Reverse<HeapEntry>>,
    heap_sib: BinaryHeap<Reverse<HeapEntry>>,
    rebuild_all: bool,
}

impl Default for MergeAccel {
    fn default() -> Self {
        Self {
            cache: HashMap::new(),
            fixpoints: Vec::new(),
            version: Vec::new(),
            dirty: Vec::new(),
            dirty_flag: Vec::new(),
            heap_pc: BinaryHeap::new(),
            heap_sib: BinaryHeap::new(),
            rebuild_all: true,
        }
    }
}

impl MergeAccel {
    fn ensure(&mut self, id: BucketId) {
        if id >= self.version.len() {
            self.version.resize(id + 1, 0);
            self.dirty_flag.resize(id + 1, false);
            self.fixpoints.resize_with(id + 1, FixpointCache::default);
        }
    }

    /// Queues `id` for recomputation at the next `best_merge`.
    pub(crate) fn mark_dirty(&mut self, id: BucketId) {
        self.ensure(id);
        if !self.dirty_flag[id] {
            self.dirty_flag[id] = true;
            self.dirty.push(id);
        }
    }

    /// Drops everything; the next `best_merge` rebuilds from the tree.
    pub(crate) fn invalidate_all(&mut self) {
        self.rebuild_all = true;
    }

    /// Pops stale entries off `heap` and returns (a copy of) the valid top.
    fn peek_valid(heap: &mut BinaryHeap<Reverse<HeapEntry>>, version: &[u64]) -> Option<HeapEntry> {
        while let Some(&Reverse(top)) = heap.peek() {
            if version.get(top.parent).copied() == Some(top.version) {
                return Some(top);
            }
            heap.pop();
        }
        None
    }
}

/// Box-extension results of the sibling pairs evaluated under one parent,
/// valid for the children snapshot taken at its last refresh (module docs).
/// Flat buffers, reused across refreshes.
#[derive(Debug, Default)]
pub(crate) struct FixpointCache {
    /// The parent's children at the last refresh.
    kids: Vec<BucketId>,
    /// Their packed bounds, `2·ndim` values per child.
    kid_bounds: Vec<f64>,
    /// Cached pairs; pair `k`'s merged box is the `k`-th packed box of
    /// `boxes`.
    pairs: Vec<CachedFixpoint>,
    boxes: Vec<f64>,
    /// Participant ids, one run per pair, each in children order.
    parts: Vec<BucketId>,
    /// `(position of a, position of b, index into pairs)` for every pair,
    /// sorted; rebuilt by each [`FixpointCache::revalidate`].
    by_pos: Vec<(u32, u32, u32)>,
    /// Hull volumes and nearest siblings of the same children.
    hulls: HullTable,
}

/// "No position": a child with no counterpart in the other snapshot.
const NONE: u32 = u32::MAX;
/// Set on a slot's position when its child's row is recomputed this
/// refresh; [`NONE`] carries it too, so one test finds stale partners.
const FRESH: u32 = 1 << 31;

/// Hull volumes of one parent's sibling pairs and each child's two
/// hull-nearest siblings, valid for the children snapshot of the
/// [`FixpointCache`] that holds it (module docs). Maintained only while the
/// parent has more children than the exhaustive threshold.
#[derive(Debug, Default)]
pub(crate) struct HullTable {
    /// Slot of each child of the last refresh, children order. A slot is
    /// cache-local: removed children free theirs, added children reuse them.
    slots: Vec<u32>,
    /// Slots no child holds.
    free: Vec<u32>,
    /// Number of slots: the row stride of `vols`. 0 when the last refresh
    /// did not maintain the table; every child then counts as changed.
    stride: usize,
    /// `vols[s·stride + t]`: volume of the hull of the children in slots
    /// `s` and `t`, the product taken with the earlier child's bounds first.
    vols: Vec<f64>,
    /// Per slot: the child's two least `(growth, position)` partners, as
    /// `(growth, partner slot)`.
    best2: Vec<[(f64, u32); 2]>,
}

/// Hull growth of a pair with hull volume `v` as seen by a child of volume
/// `v_own` with partner volume `v_other`: the owner's volume is subtracted
/// first, as the original all-pairs loop did for each side (the two orders
/// can differ in the last ulp).
fn growth(v: f64, v_own: f64, v_other: f64) -> f64 {
    let g = v - v_own - v_other;
    debug_assert!(!g.is_nan(), "NaN hull growth");
    g
}

/// Offers the partner at position `pos` (slot `slot`, growth `g`) to a
/// best-2 row whose entries sit at positions `at`. The row keeps the two
/// least `(growth, position)` under plain `<`: offered in ascending
/// position, that is the all-pairs loop's strict-`<` update.
fn offer(best: &mut [(f64, u32); 2], at: &mut [u32; 2], g: f64, slot: u32, pos: u32) {
    let before = |e: (f64, u32), p: u32| g < e.0 || (g == e.0 && pos < p);
    if before(best[0], at[0]) {
        best[1] = best[0];
        at[1] = at[0];
        best[0] = (g, slot);
        at[0] = pos;
    } else if before(best[1], at[1]) {
        best[1] = (g, slot);
        at[1] = pos;
    }
}

impl HullTable {
    /// Brings the table up to date with the parent's current children
    /// `kids` (box volumes `child_vols`): carries the slots of unchanged
    /// children (`prev_pos[j]`, their position at the last refresh, else
    /// [`NONE`]), recomputes the hull volumes of every changed child, and
    /// fixes the best-2 rows. Leaves each slot's current position, tagged
    /// [`FRESH`] for changed children, in `slot_pos`, and the positions of
    /// changed children in `fresh`. Returns the hull volumes computed.
    #[allow(clippy::too_many_arguments)]
    fn refresh(
        &mut self,
        arena: &BucketArena,
        kids: &[BucketId],
        child_vols: &[f64],
        prev_pos: &[u32],
        slot_pos: &mut Vec<u32>,
        fresh: &mut Vec<u32>,
    ) -> u64 {
        let k = kids.len();
        slot_pos.clear();
        slot_pos.resize(self.stride, NONE);
        if self.stride > 0 {
            for (j, &p) in prev_pos.iter().enumerate() {
                if p != NONE {
                    slot_pos[self.slots[p as usize] as usize] = j as u32;
                }
            }
            self.free.extend(self.slots.iter().copied().filter(|&s| slot_pos[s as usize] == NONE));
        }
        self.slots.clear();
        self.slots.resize(k, NONE);
        for (s, &j) in slot_pos.iter().enumerate() {
            if j != NONE {
                self.slots[j as usize] = s as u32;
            }
        }
        fresh.clear();
        fresh.extend((0..k as u32).filter(|&j| self.slots[j as usize] == NONE));
        if fresh.len() > self.free.len() {
            self.grow(self.stride + fresh.len() - self.free.len());
            slot_pos.resize(self.stride, NONE);
        }
        for &j in fresh.iter() {
            let s = self.free.pop().expect("grown to fit");
            self.slots[j as usize] = s;
            slot_pos[s as usize] = j | FRESH;
        }

        // Hull volumes of every pair with a changed child, each computed
        // once, with the earlier position's bounds first (as the all-pairs
        // loop did; unchanged children keep their relative order).
        let n = arena.bounds(kids[0]).len() / 2;
        let stride = self.stride;
        let mut computed = 0u64;
        for &c in fresh.iter() {
            let c = c as usize;
            let sc = self.slots[c] as usize;
            for x in 0..k {
                let sx = self.slots[x] as usize;
                if x == c || (x < c && slot_pos[sx] & FRESH != 0) {
                    continue;
                }
                let (bi, bj) = if x < c {
                    (arena.bounds(kids[x]), arena.bounds(kids[c]))
                } else {
                    (arena.bounds(kids[c]), arena.bounds(kids[x]))
                };
                let mut v = 1.0;
                for d in 0..n {
                    v *= bi[n + d].max(bj[n + d]) - bi[d].min(bj[d]);
                }
                self.vols[sc * stride + sx] = v;
                self.vols[sx * stride + sc] = v;
                computed += 1;
            }
        }

        // Best-2 rows. A row is rescanned when it is changed or one of its
        // two partners is; otherwise its partners are still its two least
        // among the unchanged children, so only the changed ones are
        // offered, under the same `(growth, position)` order.
        let stale = |s: u32| slot_pos.get(s as usize).is_none_or(|&p| p & FRESH != 0);
        for r in 0..k {
            let sr = self.slots[r] as usize;
            let row = &self.vols[sr * stride..(sr + 1) * stride];
            let v_r = child_vols[r];
            let best = &mut self.best2[sr];
            let offer_at = |best: &mut [(f64, u32); 2], at: &mut [u32; 2], x: usize| {
                let sx = self.slots[x];
                offer(best, at, growth(row[sx as usize], v_r, child_vols[x]), sx, x as u32);
            };
            if stale(sr as u32) || stale(best[0].1) || stale(best[1].1) {
                *best = [(f64::INFINITY, NONE); 2];
                let mut at = [NONE; 2];
                (0..k).filter(|&x| x != r).for_each(|x| offer_at(best, &mut at, x));
            } else {
                let mut at = [slot_pos[best[0].1 as usize], slot_pos[best[1].1 as usize]];
                fresh.iter().for_each(|&c| offer_at(best, &mut at, c as usize));
            }
        }
        computed
    }

    /// The candidate pairs of a refreshed table: each child's `cap.min(2)`
    /// best partners plus the `max(8·cap, 16)` least-growth pairs, sorted
    /// and deduplicated. `slot_pos` maps slots to current positions.
    fn candidate_pairs(
        &self,
        kids: &[BucketId],
        child_vols: &[f64],
        slot_pos: &[u32],
        cap: usize,
        pairs: &mut Vec<(u32, u32)>,
        pair_buf: &mut Vec<(f64, u32, u32)>,
    ) {
        let k = kids.len();
        let push_id_ordered = |pairs: &mut Vec<(u32, u32)>, i: u32, j: u32| {
            if kids[i as usize] < kids[j as usize] {
                pairs.push((i, j));
            } else {
                pairs.push((j, i));
            }
        };
        // Per-child best neighbors keep isolated children mergeable; a small
        // global top-up catches cheap pairs clustered in one region.
        pairs.clear();
        for &s in &self.slots {
            let i = slot_pos[s as usize] & !FRESH;
            for &(_, partner) in self.best2[s as usize].iter().take(cap.min(2)) {
                if partner != NONE {
                    push_id_ordered(pairs, i, slot_pos[partner as usize] & !FRESH);
                }
            }
        }
        // The top-up keeps the `global_top` least growths. `pair_buf` is
        // built in the all-pairs loop's `(i, j)` order and selected with the
        // same `select_nth_unstable_by`, so ties at the boundary keep the
        // same pairs that loop kept.
        pair_buf.clear();
        for i in 0..k {
            let row = &self.vols[self.slots[i] as usize * self.stride..];
            for j in i + 1..k {
                let g = growth(row[self.slots[j] as usize], child_vols[i], child_vols[j]);
                pair_buf.push((g, i as u32, j as u32));
            }
        }
        let global_top = (cap * 8).max(16);
        if pair_buf.len() > global_top {
            pair_buf.select_nth_unstable_by(global_top, |a, b| a.0.partial_cmp(&b.0).unwrap());
            pair_buf.truncate(global_top);
        }
        for &(_, i, j) in pair_buf.iter() {
            push_id_ordered(pairs, i, j);
        }
        // Positions map 1:1 to ids, and the orientation above is canonical,
        // so duplicates are textual and sort+dedup removes them all.
        pairs.sort_unstable();
        pairs.dedup();
    }

    /// Widens the table to `stride` slots, keeping every row.
    fn grow(&mut self, stride: usize) {
        let old = self.stride;
        self.vols.resize(stride * stride, 0.0);
        for s in (0..old).rev() {
            self.vols.copy_within(s * old..(s + 1) * old, s * stride);
        }
        self.best2.resize(stride, [(f64::INFINITY, NONE); 2]);
        self.free.extend((old..stride).rev().map(|s| s as u32));
        self.stride = stride;
    }

    /// Drops the table; the next refresh rebuilds it from scratch.
    fn clear(&mut self) {
        *self = Self::default();
    }
}

/// The geometry of one cached sibling pair `(a, b)`.
#[derive(Clone, Copy, Debug)]
struct CachedFixpoint {
    a: BucketId,
    b: BucketId,
    parts_at: u32,
    parts_len: u32,
    /// Evaluated since the last revalidation.
    used: bool,
    bn_vol: f64,
    v_move: f64,
}

impl FixpointCache {
    /// Brings the cache up to date with `kids`, the parent's current
    /// children: drops every pair a changed child may affect (validity
    /// rule in the module docs) or that went unused since the last call,
    /// indexes the survivors by their current positions, and snapshots
    /// `kids`. Leaves in `prev_pos[j]` the position child `j` had in the
    /// old snapshot when it is unchanged, [`NONE`] otherwise — the diff the
    /// hull table reuses.
    fn revalidate(
        &mut self,
        arena: &BucketArena,
        kids: &[BucketId],
        pos_of: &mut Vec<u32>,
        changed: &mut Vec<f64>,
        prev_pos: &mut Vec<u32>,
    ) {
        // `pos_of[c]` ends up as c's position when c is unchanged, and
        // with the OLD bit set otherwise (NONE included).
        const OLD: u32 = 1 << 31;
        let span = arena.bounds(kids[0]).len();
        let n = span / 2;
        pos_of.clear();
        pos_of.resize(arena.slot_count(), NONE);
        changed.clear();
        prev_pos.clear();
        let old_box = |i: usize| &self.kid_bounds[i * span..(i + 1) * span];
        for (i, &o) in self.kids.iter().enumerate() {
            pos_of[o] = OLD | i as u32;
        }
        let mut last_kept = None;
        for (j, &c) in kids.iter().enumerate() {
            let cur = arena.bounds(c);
            let p = pos_of[c];
            let same = p != NONE
                && p & OLD != 0
                && cur.iter().zip(old_box((p & !OLD) as usize)).all(|(x, y)| x.to_bits() == y.to_bits());
            if same {
                // Child-list edits are retain plus append, so unchanged
                // children keep their relative order; both caches rely on it.
                debug_assert!(last_kept.is_none_or(|q| q < p & !OLD), "children reordered under the cache");
                last_kept = Some(p & !OLD);
                pos_of[c] = j as u32;
                prev_pos.push(p & !OLD);
            } else {
                changed.extend_from_slice(cur);
                prev_pos.push(NONE);
            }
        }
        for (i, &o) in self.kids.iter().enumerate() {
            if pos_of[o] == OLD | i as u32 {
                changed.extend_from_slice(old_box(i));
            }
        }

        let mut kept = 0;
        let mut parts_kept = 0;
        self.by_pos.clear();
        for k in 0..self.pairs.len() {
            let e = self.pairs[k];
            let (pa, pb) = (pos_of[e.a], pos_of[e.b]);
            if (pa | pb) & OLD != 0 || !e.used {
                continue;
            }
            let bx = &self.boxes[k * span..(k + 1) * span];
            let touched = changed
                .chunks_exact(span)
                .any(|cb| (0..n).all(|d| bx[d].max(cb[d]) < bx[n + d].min(cb[n + d])));
            if touched {
                continue;
            }
            let at = e.parts_at as usize;
            self.boxes.copy_within(k * span..(k + 1) * span, kept * span);
            self.parts.copy_within(at..at + e.parts_len as usize, parts_kept);
            self.pairs[kept] = CachedFixpoint { parts_at: parts_kept as u32, used: false, ..e };
            self.by_pos.push((pa, pb, kept as u32));
            kept += 1;
            parts_kept += e.parts_len as usize;
        }
        self.pairs.truncate(kept);
        self.boxes.truncate(kept * span);
        self.parts.truncate(parts_kept);
        self.by_pos.sort_unstable();

        self.kids.clear();
        self.kids.extend_from_slice(kids);
        self.kid_bounds.clear();
        for &c in kids {
            self.kid_bounds.extend_from_slice(arena.bounds(c));
        }
    }

    /// The cached pair of the children at positions `pi`, `pj`, with its
    /// participant ids; marks it used.
    fn lookup(&mut self, pi: usize, pj: usize) -> Option<(&CachedFixpoint, &[BucketId])> {
        let key = (pi as u32, pj as u32);
        let i = self.by_pos.binary_search_by(|&(x, y, _)| (x, y).cmp(&key)).ok()?;
        let e = &mut self.pairs[self.by_pos[i].2 as usize];
        e.used = true;
        let e = &*e;
        let at = e.parts_at as usize;
        Some((e, &self.parts[at..at + e.parts_len as usize]))
    }

    /// Caches the fixpoint just computed for siblings `a`, `b`.
    #[allow(clippy::too_many_arguments)]
    fn insert(
        &mut self,
        a: BucketId,
        b: BucketId,
        bn_lo: &[f64],
        bn_hi: &[f64],
        parts: impl Iterator<Item = BucketId>,
        bn_vol: f64,
        v_move: f64,
    ) {
        let parts_at = self.parts.len();
        self.parts.extend(parts);
        let parts_len = (self.parts.len() - parts_at) as u32;
        self.boxes.extend_from_slice(bn_lo);
        self.boxes.extend_from_slice(bn_hi);
        self.pairs.push(CachedFixpoint { a, b, parts_at: parts_at as u32, parts_len, used: true, bn_vol, v_move });
    }
}

/// The share of a parent's frequency `f_p` that moves into a merged sibling
/// bucket taking `v_move` of the parent's own volume `v_p_own`.
fn moved_freq(f_p: f64, v_p_own: f64, v_move: f64) -> f64 {
    let rho_p = if v_p_own > 0.0 { f_p / v_p_own } else { 0.0 };
    (rho_p * v_move).min(f_p)
}

/// Everything needed to apply a sibling merge.
struct SiblingPlan {
    bn_rect: Rect,
    participants: Vec<BucketId>,
    f_move: f64,
}

/// Lower bound, minus the rounding slack, on the penalty
/// [`StHoles::sibling_penalty_tail`] computes for siblings with frequencies
/// `f_a`, `f_b` and own volumes `v_a`, `v_b` (derivation in the module
/// docs). The first two penalty terms reach their minimum over all real ρ
/// at a breakpoint, or anywhere when both volumes are 0, so the bound holds
/// whatever ρ the fixpoint produces.
fn sibling_penalty_bound(f_a: f64, v_a: f64, f_b: f64, v_b: f64) -> f64 {
    let at = |rho: f64| (f_a - rho * v_a).abs() + (f_b - rho * v_b).abs();
    let mut lb = at(0.0);
    for (f, v) in [(f_a, v_a), (f_b, v_b)] {
        if v > 0.0 {
            let rho = f / v;
            if !rho.is_finite() {
                return 0.0; // breakpoint past f64 range: no usable bound
            }
            lb = lb.min(at(rho));
        }
    }
    let lb = lb - 1e-9 * (f_a.abs() + f_b.abs() + lb);
    if lb.is_finite() { lb } else { 0.0 }
}

impl StHoles {
    /// Applies minimum-penalty merges until the bucket count is back under
    /// the budget.
    /// Public compaction entry point — exposed for diagnostics and
    /// profiling tools.
    pub fn compact_now(&mut self) {
        self.compact();
    }

    pub(crate) fn compact(&mut self) {
        while self.nonroot_count > self.config.budget {
            match self.best_merge() {
                Some(m) => self.apply_merge(&m.op),
                None => break, // nothing mergeable (degenerate tree)
            }
        }
    }

    /// Returns the cheapest merge under the configured
    /// [`crate::MergePolicy`].
    ///
    /// Steady-state cost is O(dirty parents) recomputation plus O(log
    /// parents) heap maintenance; see the module docs. The result is
    /// identical to [`StHoles::best_merge_exhaustive`].
    pub fn best_merge(&mut self) -> Option<MergePenalty> {
        self.refresh_merge_accel();
        let policy = self.config.merge_policy;
        let accel = &mut self.merge_accel;
        let pc = MergeAccel::peek_valid(&mut accel.heap_pc, &accel.version);
        let sib = match policy {
            crate::MergePolicy::ParentChildOnly => None,
            _ => MergeAccel::peek_valid(&mut accel.heap_sib, &accel.version),
        };
        // Tie rules reproduce the original full scan: parents visited in
        // ascending slot order, parent–child considered before siblings,
        // strict `<` (first candidate wins).
        let pick_pc = match (&pc, &sib) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(p), Some(s)) => match policy {
                crate::MergePolicy::ParentChildOnly => true,
                crate::MergePolicy::SiblingFirst => false,
                crate::MergePolicy::All => match p.penalty.total_cmp(&s.penalty) {
                    Ordering::Less => true,
                    Ordering::Greater => false,
                    Ordering::Equal => p.parent <= s.parent,
                },
            },
        };
        let winner = if pick_pc { pc.unwrap() } else { sib.unwrap() };
        let entry = accel.cache.get(&winner.parent).expect("valid heap entry without cache");
        let mp = if pick_pc { &entry.best_parent_child } else { &entry.best_siblings };
        Some(mp.as_ref().expect("valid heap entry without candidate").clone())
    }

    /// Brute-force reference for [`StHoles::best_merge`]: rescans every
    /// parent and recomputes every penalty, ignoring the incremental
    /// acceleration state. O(buckets · children²); oracle for tests.
    pub fn best_merge_exhaustive(&self) -> Option<MergePenalty> {
        let mut scratch = RefineScratch::default();
        let policy = self.config.merge_policy;
        let mut best: Option<MergePenalty> = None;
        let mut best_pc: Option<MergePenalty> = None;
        fn consider(slot: &mut Option<MergePenalty>, cand: &Option<MergePenalty>) {
            if let Some(c) = cand {
                if slot.as_ref().is_none_or(|b| c.penalty < b.penalty) {
                    *slot = Some(c.clone());
                }
            }
        }
        for (id, b) in self.arena.iter() {
            if b.children.is_empty() {
                continue;
            }
            let entry = self.compute_parent_merges(id, &mut scratch, None);
            consider(&mut best_pc, &entry.best_parent_child);
            match policy {
                crate::MergePolicy::All => {
                    consider(&mut best, &entry.best_parent_child);
                    consider(&mut best, &entry.best_siblings);
                }
                crate::MergePolicy::ParentChildOnly => {
                    consider(&mut best, &entry.best_parent_child);
                }
                crate::MergePolicy::SiblingFirst => {
                    consider(&mut best, &entry.best_siblings);
                }
            }
        }
        best.or(best_pc)
    }

    /// Recomputes dirty parents, refreshes their heap entries, and
    /// occasionally compacts the heaps of accumulated stale entries.
    fn refresh_merge_accel(&mut self) {
        let mut accel = std::mem::take(&mut self.merge_accel);
        let mut scratch = std::mem::take(&mut self.scratch);
        if accel.rebuild_all {
            accel.rebuild_all = false;
            accel.cache.clear();
            accel.fixpoints.iter_mut().for_each(|f| *f = FixpointCache::default());
            accel.heap_pc.clear();
            accel.heap_sib.clear();
            accel.dirty.clear();
            accel.dirty_flag.iter_mut().for_each(|f| *f = false);
            for (id, b) in self.arena.iter() {
                if !b.children.is_empty() {
                    accel.mark_dirty(id);
                }
            }
        }
        let mut dirty = std::mem::take(&mut accel.dirty);
        let mut refreshed = 0u64;
        for &id in &dirty {
            accel.dirty_flag[id] = false;
            accel.version[id] = accel.version[id].wrapping_add(1);
            if self.arena.contains(id) && !self.arena.get(id).children.is_empty() {
                let entry = self.compute_parent_merges(id, &mut scratch, Some(&mut accel.fixpoints[id]));
                refreshed += 1;
                let version = accel.version[id];
                if let Some(mp) = &entry.best_parent_child {
                    accel
                        .heap_pc
                        .push(Reverse(HeapEntry { penalty: mp.penalty, parent: id, version }));
                }
                if let Some(mp) = &entry.best_siblings {
                    accel
                        .heap_sib
                        .push(Reverse(HeapEntry { penalty: mp.penalty, parent: id, version }));
                }
                accel.cache.insert(id, entry);
            } else {
                accel.cache.remove(&id);
                accel.fixpoints[id] = FixpointCache::default();
            }
        }
        dirty.clear();
        accel.dirty = dirty;
        obs::add(obs::Counter::MergeParentRefreshes, refreshed);
        // Lazy deletion lets stale entries pile up; rebuild both heaps from
        // the cache once they dominate. Amortized O(1) per merge.
        let live = accel.cache.len();
        let stale_heavy = |len: usize| len > 64 && len > 4 * live;
        if stale_heavy(accel.heap_pc.len()) || stale_heavy(accel.heap_sib.len()) {
            obs::incr(obs::Counter::HeapRebuilds);
            accel.heap_pc.clear();
            accel.heap_sib.clear();
            for (&id, entry) in &accel.cache {
                let version = accel.version[id];
                if let Some(mp) = &entry.best_parent_child {
                    accel
                        .heap_pc
                        .push(Reverse(HeapEntry { penalty: mp.penalty, parent: id, version }));
                }
                if let Some(mp) = &entry.best_siblings {
                    accel
                        .heap_sib
                        .push(Reverse(HeapEntry { penalty: mp.penalty, parent: id, version }));
                }
            }
        }
        self.scratch = scratch;
        self.merge_accel = accel;
    }

    /// Marks the merge candidates of `id` and of its parent stale — called
    /// after any structural change (frequency, box set, child list) at `id`.
    pub(crate) fn invalidate_merges(&mut self, id: BucketId) {
        self.merge_accel.mark_dirty(id);
        if self.arena.contains(id) {
            if let Some(p) = self.arena.get(id).parent {
                self.merge_accel.mark_dirty(p);
            }
        }
    }

    /// Computes the cheapest merges below parent `id`, allocation-free:
    /// per-child box/own volumes are hoisted once (the original recomputed
    /// the parent's own volume per candidate, an O(children²) term), and the
    /// sibling search works on packed bounds. With a fixpoint cache (the
    /// accelerated search), sibling pairs are evaluated in bound order,
    /// those that cannot win are skipped, and cached fixpoints are reused
    /// (module docs); the oracle passes `None`, evaluating every candidate
    /// pair with a fresh fixpoint.
    fn compute_parent_merges(
        &self,
        id: BucketId,
        scratch: &mut RefineScratch,
        mut fixpoints: Option<&mut FixpointCache>,
    ) -> ParentMerges {
        let RefineScratch {
            child_vols,
            child_owns,
            pairs,
            pair_order,
            pair_buf,
            bn_lo,
            bn_hi,
            sib_parts,
            x_order,
            active,
            pos_of,
            changed,
            prev_pos,
            slot_pos,
            fresh,
            ..
        } = scratch;
        let bucket = self.arena.get(id);
        let kids = &bucket.children;
        let v_p = self.child_volumes(id, child_vols, child_owns);

        let f_p = bucket.freq;
        let mut entry = ParentMerges::default();
        for (i, &c) in kids.iter().enumerate() {
            // Penalty of folding `c` into `id`: both regions are afterwards
            // estimated with the pooled density.
            let f_c = self.arena.get(c).freq;
            let v_c = child_owns[i];
            let v_n = v_p + v_c;
            let rho_n = if v_n > 0.0 { (f_p + f_c) / v_n } else { 0.0 };
            let penalty = (f_p - rho_n * v_p).abs() + (f_c - rho_n * v_c).abs();
            if entry.best_parent_child.as_ref().is_none_or(|b| penalty < b.penalty) {
                entry.best_parent_child =
                    Some(MergePenalty { penalty, op: MergeOp::ParentChild { parent: id, child: c } });
            }
        }

        // `best_merge` never reads the sibling result under this policy.
        if self.config.merge_policy == crate::MergePolicy::ParentChildOnly {
            return entry;
        }
        let prune = fixpoints.is_some();
        if let Some(fc) = fixpoints.as_deref_mut() {
            fc.revalidate(&self.arena, kids, pos_of, changed, prev_pos);
        }
        let mut uncached = HullTable::default();
        let table = fixpoints.as_deref_mut().map_or(&mut uncached, |fc| &mut fc.hulls);
        let hulls = self.sibling_pair_positions(id, table, prev_pos, child_vols, pairs, pair_buf, slot_pos, fresh);
        if prune {
            obs::add(obs::Counter::SiblingHullsComputed, hulls);
        }
        if pairs.is_empty() {
            return entry;
        }
        let mut swept = false;
        let mut fixpoints_run = 0u64;
        let mut evaluate = |pi: u32, pj: u32| {
            let (pi, pj) = (pi as usize, pj as usize);
            if let Some((hit, parts)) = fixpoints.as_deref_mut().and_then(|fc| fc.lookup(pi, pj)) {
                let part_vols = parts.iter().map(|&p| self.arena.volume_of(p));
                return self.sibling_penalty_tail(id, pi, pj, v_p, child_owns, hit.bn_vol, hit.v_move, part_vols);
            }
            if !swept {
                self.sweep_order(id, x_order);
                swept = true;
            }
            let (bn_vol, v_move) =
                self.sibling_fixpoint(id, pi, pj, child_vols, bn_lo, bn_hi, sib_parts, x_order, active);
            if let Some(fc) = fixpoints.as_deref_mut() {
                let parts = sib_parts.iter().map(|&p| kids[p as usize]);
                fc.insert(kids[pi], kids[pj], bn_lo, bn_hi, parts, bn_vol, v_move);
                fixpoints_run += 1;
            }
            let part_vols = sib_parts.iter().map(|&p| child_vols[p as usize]);
            self.sibling_penalty_tail(id, pi, pj, v_p, child_owns, bn_vol, v_move, part_vols)
        };
        // Winner: the least `(penalty, index into pairs)` — what a
        // first-wins strict-`<` scan over `pairs` returns.
        let mut best: Option<(f64, usize)> = None;
        if prune {
            pair_order.clear();
            for (n, &(pi, pj)) in pairs.iter().enumerate() {
                let (pi, pj) = (pi as usize, pj as usize);
                let f_a = self.arena.get(kids[pi]).freq;
                let f_b = self.arena.get(kids[pj]).freq;
                let bound = sibling_penalty_bound(f_a, child_owns[pi], f_b, child_owns[pj]);
                pair_order.push((bound, n as u32));
            }
            pair_order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut evaluated = 0u64;
            for &(bound, n) in pair_order.iter() {
                if best.is_some_and(|(p, _)| bound > p) {
                    break; // this pair and every later one cost more
                }
                let n = n as usize;
                let penalty = evaluate(pairs[n].0, pairs[n].1);
                debug_assert!(!penalty.is_nan(), "NaN sibling penalty under bucket {id}");
                evaluated += 1;
                if best.is_none_or(|(p, m)| penalty < p || (penalty == p && n < m)) {
                    best = Some((penalty, n));
                }
            }
            obs::add(obs::Counter::SiblingPairsConsidered, pairs.len() as u64);
            obs::add(obs::Counter::SiblingPairsEvaluated, evaluated);
            obs::add(obs::Counter::SiblingFixpointsRun, fixpoints_run);
        } else {
            for (n, &(pi, pj)) in pairs.iter().enumerate() {
                let penalty = evaluate(pi, pj);
                if best.is_none_or(|(p, _)| penalty < p) {
                    best = Some((penalty, n));
                }
            }
        }
        if let Some((penalty, n)) = best {
            let (pi, pj) = pairs[n];
            entry.best_siblings = Some(MergePenalty {
                penalty,
                op: MergeOp::Siblings { parent: id, a: kids[pi as usize], b: kids[pj as usize] },
            });
        }
        entry
    }

    /// Fills `child_vols` and `child_owns` with the box and own volumes of
    /// `id`'s children (children order) and returns `id`'s own volume,
    /// computed once per parent instead of once per candidate.
    fn child_volumes(&self, id: BucketId, child_vols: &mut Vec<f64>, child_owns: &mut Vec<f64>) -> f64 {
        let kids = &self.arena.get(id).children;
        child_vols.clear();
        child_owns.clear();
        for &c in kids {
            child_vols.push(self.arena.volume_of(c));
        }
        // Same arithmetic (and children order) as `BucketArena::own_volume`.
        let mut v_p = self.arena.volume_of(id);
        for &v in child_vols.iter() {
            v_p -= v;
        }
        for &c in kids {
            child_owns.push(self.arena.own_volume(c));
        }
        v_p.max(0.0)
    }

    /// Sweep order for [`StHoles::sibling_fixpoint`]: positions of `id`'s
    /// children sorted by dim-0 lower edge (position as tiebreak, so the
    /// order is deterministic under equal edges).
    fn sweep_order(&self, id: BucketId, x_order: &mut Vec<u32>) {
        let kids = &self.arena.get(id).children;
        x_order.clear();
        x_order.extend(0..kids.len() as u32);
        x_order.sort_unstable_by(|&a, &b| {
            let xa = self.arena.bounds(kids[a as usize])[0];
            let xb = self.arena.bounds(kids[b as usize])[0];
            xa.total_cmp(&xb).then(a.cmp(&b))
        });
    }

    /// Fills `pairs` with the sibling pairs worth evaluating under
    /// `parent`, as positions into its children list, and returns the hull
    /// volumes it computed. Up to `2·max(cap, 2)` children every pair is a
    /// candidate. Above that, each child contributes its `cap.min(2)`
    /// hull-nearest siblings (least hull growth; `best2` holds two) and a
    /// global top-up adds the `max(8·cap, 16)` least-growth pairs, from the
    /// parent's [`HullTable`]: O(k·changed·d) hull volumes plus an O(k²)
    /// subtraction pass per refresh, where `changed` counts the children
    /// that are new or have a new box since the last one (all of them on
    /// the oracle's empty table).
    ///
    /// Deterministic: pruned candidates are sorted by position (the
    /// original collected them in a `HashSet`, making tie-breaks among
    /// equal penalties run-to-run random).
    #[allow(clippy::too_many_arguments)]
    fn sibling_pair_positions(
        &self,
        parent: BucketId,
        table: &mut HullTable,
        prev_pos: &[u32],
        child_vols: &[f64],
        pairs: &mut Vec<(u32, u32)>,
        pair_buf: &mut Vec<(f64, u32, u32)>,
        slot_pos: &mut Vec<u32>,
        fresh: &mut Vec<u32>,
    ) -> u64 {
        pairs.clear();
        let kids = &self.arena.get(parent).children;
        let k = kids.len();
        let cap = self.config.sibling_neighbor_cap;
        if k < 2 || cap.is_none_or(|cap| k <= cap.max(2) * 2) {
            table.clear();
            for i in 0..k as u32 {
                for j in i + 1..k as u32 {
                    pairs.push((i, j));
                }
            }
            return 0;
        }
        let computed = table.refresh(&self.arena, kids, child_vols, prev_pos, slot_pos, fresh);
        table.candidate_pairs(kids, child_vols, slot_pos, cap.unwrap(), pairs, pair_buf);
        computed
    }

    /// Box-extension fixpoint of merging the children at positions `pi`,
    /// `pj` of `parent`: leaves the merged box in `bn_lo`/`bn_hi` and the
    /// participant positions, in children order, in `sib_parts`, and
    /// returns `(bn_vol, v_move)`. The one implementation of the extension,
    /// used by the search, the oracle and [`StHoles::sibling_plan`].
    #[allow(clippy::too_many_arguments)]
    fn sibling_fixpoint(
        &self,
        parent: BucketId,
        pi: usize,
        pj: usize,
        child_vols: &[f64],
        bn_lo: &mut Vec<f64>,
        bn_hi: &mut Vec<f64>,
        sib_parts: &mut Vec<u32>,
        x_order: &[u32],
        active: &mut Vec<u32>,
    ) -> (f64, f64) {
        let kids = &self.arena.get(parent).children;
        let (a, b) = (kids[pi], kids[pj]);
        let ba = self.arena.bounds(a);
        let bb = self.arena.bounds(b);
        let n = ba.len() / 2;
        bn_lo.clear();
        bn_hi.clear();
        for d in 0..n {
            bn_lo.push(ba[d].min(bb[d]));
            bn_hi.push(ba[n + d].max(bb[n + d]));
        }
        // Extend until no other sibling partially overlaps (Fig. 3 (b)).
        // The box only ever grows, and each pass runs to stability, so the
        // result is the least fixpoint — independent of visit order (min /
        // max are exact, so even the bits are order-independent). Two
        // consequences are exploited here:
        //
        // * sweeping children by ascending dim-0 lower edge (`x_order`)
        //   lets a pass stop at the first child starting past the current
        //   box — everything later is disjoint in dim 0;
        // * a child the box has swallowed stays swallowed, so it moves
        //   from the `active` worklist straight into the participant list
        //   and is never rescanned — later passes only revisit children
        //   that were still disjoint.
        active.clear();
        active.extend(x_order.iter().copied().filter(|&p| p as usize != pi && p as usize != pj));
        sib_parts.clear();
        loop {
            let mut changed = false;
            let mut kept = 0;
            let mut idx = 0;
            while idx < active.len() {
                let pos32 = active[idx];
                let bs = self.arena.bounds(kids[pos32 as usize]);
                if bs[0] > bn_hi[0] {
                    // Everything from here on starts past the box: still
                    // disjoint, keep it on the worklist for later passes.
                    while idx < active.len() {
                        active[kept] = active[idx];
                        kept += 1;
                        idx += 1;
                    }
                    break;
                }
                idx += 1;
                let mut disjoint = false;
                for d in 0..n {
                    if bn_lo[d].max(bs[d]) >= bn_hi[d].min(bs[n + d]) {
                        disjoint = true;
                        break;
                    }
                }
                if disjoint {
                    active[kept] = pos32;
                    kept += 1;
                    continue;
                }
                let mut contained = true;
                for d in 0..n {
                    if bs[d] < bn_lo[d] || bs[n + d] > bn_hi[d] {
                        contained = false;
                        break;
                    }
                }
                if !contained {
                    for d in 0..n {
                        if bs[d] < bn_lo[d] {
                            bn_lo[d] = bs[d];
                        }
                        if bs[n + d] > bn_hi[d] {
                            bn_hi[d] = bs[n + d];
                        }
                    }
                    changed = true;
                }
                // Contained now (extension covers the box exactly): a
                // permanent participant.
                sib_parts.push(pos32);
            }
            active.truncate(kept);
            if !changed {
                break;
            }
        }
        // Positions were collected in sweep order; the volume sums below
        // must run in children order to stay bit-identical to a plain scan.
        sib_parts.sort_unstable();

        let mut bn_vol = 1.0;
        for d in 0..n {
            bn_vol *= bn_hi[d] - bn_lo[d];
        }
        // Volume the merged bucket takes over from the parent's own region.
        let mut v_move = bn_vol - child_vols[pi] - child_vols[pj];
        for &p in sib_parts.iter() {
            v_move -= child_vols[p as usize];
        }
        (bn_vol, v_move.max(0.0))
    }

    /// Penalty of merging the children at positions `pi`, `pj` of `parent`
    /// into a box of volume `bn_vol` that takes `v_move` of the parent's
    /// own volume `v_p_own` and swallows participants of volumes
    /// `part_vols` (children order). Shared by fresh and cached fixpoints,
    /// so both give the same bits.
    #[allow(clippy::too_many_arguments)]
    fn sibling_penalty_tail(
        &self,
        parent: BucketId,
        pi: usize,
        pj: usize,
        v_p_own: f64,
        child_owns: &[f64],
        bn_vol: f64,
        v_move: f64,
        part_vols: impl Iterator<Item = f64>,
    ) -> f64 {
        let pa = self.arena.get(parent);
        let (a, b) = (pa.children[pi], pa.children[pj]);
        let f_move = moved_freq(pa.freq, v_p_own, v_move);

        // Own volume of the merged bucket: its box minus all child boxes
        // (former children of a and b, plus the participants).
        let mut v_n = bn_vol;
        for &c in self.arena.get(a).children.iter().chain(&self.arena.get(b).children) {
            v_n -= self.arena.volume_of(c);
        }
        for v in part_vols {
            v_n -= v;
        }
        let v_n = v_n.max(0.0);

        let f_a = self.arena.get(a).freq;
        let f_b = self.arena.get(b).freq;
        let f_n = f_a + f_b + f_move;
        let rho_n = if v_n > 0.0 { f_n / v_n } else { 0.0 };
        let v_a = child_owns[pi];
        let v_b = child_owns[pj];
        (f_a - rho_n * v_a).abs() + (f_b - rho_n * v_b).abs() + (f_move - rho_n * v_move).abs()
    }

    /// Builds the sibling-merge plan for children `a`, `b` of `parent` from
    /// the same fixpoint the search ran. Cold path: only `apply_merge` calls
    /// this, once per applied merge.
    fn sibling_plan(&self, parent: BucketId, a: BucketId, b: BucketId, scratch: &mut RefineScratch) -> SiblingPlan {
        let pa = self.arena.get(parent);
        let position = |x: BucketId| pa.children.iter().position(|&c| c == x).expect("merge of a non-child");
        let v_p_own = self.child_volumes(parent, &mut scratch.child_vols, &mut scratch.child_owns);
        self.sweep_order(parent, &mut scratch.x_order);
        let (_, v_move) = self.sibling_fixpoint(
            parent,
            position(a),
            position(b),
            &scratch.child_vols,
            &mut scratch.bn_lo,
            &mut scratch.bn_hi,
            &mut scratch.sib_parts,
            &scratch.x_order,
            &mut scratch.active,
        );
        SiblingPlan {
            bn_rect: Rect::from_bounds(&scratch.bn_lo, &scratch.bn_hi),
            participants: scratch.sib_parts.iter().map(|&p| pa.children[p as usize]).collect(),
            f_move: moved_freq(pa.freq, v_p_own, v_move),
        }
    }

    /// Applies a merge. The operation must refer to live buckets with the
    /// stated relationships.
    pub(crate) fn apply_merge(&mut self, op: &MergeOp) {
        obs::incr(obs::Counter::Merges);
        match *op {
            MergeOp::ParentChild { parent, child } => {
                debug_assert_eq!(self.arena.get(child).parent, Some(parent));
                let removed = {
                    let b = self.arena.get_mut(parent);
                    b.children.retain(|&c| c != child);
                    self.arena.dealloc(child)
                };
                for &gc in &removed.children {
                    self.arena.get_mut(gc).parent = Some(parent);
                }
                let p = self.arena.get_mut(parent);
                p.children.extend(&removed.children);
                p.freq += removed.freq;
                self.nonroot_count -= 1;
                self.arena.tighten_hull(parent);
                self.merge_accel.mark_dirty(child);
                self.invalidate_merges(parent);
            }
            MergeOp::Siblings { parent, a, b } => {
                let mut scratch = std::mem::take(&mut self.scratch);
                let plan = self.sibling_plan(parent, a, b, &mut scratch);
                self.scratch = scratch;
                let removed_a = self.arena.dealloc(a);
                let removed_b = self.arena.dealloc(b);
                let mut children = removed_a.children;
                children.extend(removed_b.children);
                children.extend(&plan.participants);
                let f_n = removed_a.freq + removed_b.freq + plan.f_move;
                let bn = self.arena.alloc(Bucket {
                    rect: plan.bn_rect,
                    freq: f_n,
                    parent: Some(parent),
                    children,
                });
                for i in 0..self.arena.get(bn).children.len() {
                    let c = self.arena.get(bn).children[i];
                    self.arena.get_mut(c).parent = Some(bn);
                }
                let p = self.arena.get_mut(parent);
                p.children.retain(|&c| c != a && c != b && !plan.participants.contains(&c));
                p.children.push(bn);
                p.freq = (p.freq - plan.f_move).max(0.0);
                self.nonroot_count -= 1;
                self.arena.tighten_hull(parent);
                self.arena.tighten_hull(bn);
                self.merge_accel.mark_dirty(a);
                self.merge_accel.mark_dirty(b);
                // `bn` may itself be a parent now — queue it for a fresh
                // cache entry (its recycled slot may hold stale state).
                self.merge_accel.mark_dirty(bn);
                self.invalidate_merges(parent);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sth_index::ResultSetCounter;
    use sth_platform::check::prelude::*;
    use sth_query::{CardinalityEstimator, SelfTuning};

    fn domain() -> Rect {
        Rect::cube(2, 0.0, 100.0)
    }

    /// Histogram with root and two disjoint children, plus a grandchild.
    fn build() -> (StHoles, BucketId, BucketId, BucketId) {
        let mut h = StHoles::with_total(domain(), 10, 10.0);
        let root = h.root();
        let a = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&[0.0, 0.0], &[20.0, 20.0]), 40.0, Some(root)));
        let b = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&[60.0, 60.0], &[80.0, 80.0]), 8.0, Some(root)));
        h.arena.get_mut(root).children.extend([a, b]);
        let gc = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&[5.0, 5.0], &[10.0, 10.0]), 30.0, Some(a)));
        h.arena.get_mut(a).children.push(gc);
        h.nonroot_count = 3;
        h.check_invariants().unwrap();
        (h, a, b, gc)
    }

    #[test]
    fn parent_child_merge_preserves_total_and_reparents() {
        let (mut h, a, _b, gc) = build();
        let total = h.total_freq();
        h.apply_merge(&MergeOp::ParentChild { parent: a, child: gc });
        h.check_invariants().unwrap();
        assert_eq!(h.bucket_count(), 2);
        assert!((h.total_freq() - total).abs() < 1e-9);
        assert!((h.arena.get(a).freq - 70.0).abs() < 1e-9);
    }

    #[test]
    fn grandchildren_survive_parent_child_merge() {
        let (mut h, a, _b, gc) = build();
        let root = h.root();
        h.apply_merge(&MergeOp::ParentChild { parent: root, child: a });
        h.check_invariants().unwrap();
        // gc is now a direct child of root.
        assert_eq!(h.arena.get(gc).parent, Some(root));
        assert!(h.arena.get(root).children.contains(&gc));
    }

    #[test]
    fn sibling_merge_produces_hull_bucket() {
        let (mut h, a, b, gc) = build();
        let root = h.root();
        let total = h.total_freq();
        h.apply_merge(&MergeOp::Siblings { parent: root, a, b });
        h.check_invariants().unwrap();
        assert_eq!(h.bucket_count(), 2); // merged bucket + gc
        assert!((h.total_freq() - total).abs() < 1e-9);
        let kids = &h.arena.get(root).children;
        assert_eq!(kids.len(), 1);
        let bn = kids[0];
        let r = &h.arena.get(bn).rect;
        assert!(r.contains_rect(&Rect::from_bounds(&[0.0, 0.0], &[20.0, 20.0])));
        assert!(r.contains_rect(&Rect::from_bounds(&[60.0, 60.0], &[80.0, 80.0])));
        // gc lives under the merged bucket now.
        assert_eq!(h.arena.get(gc).parent, Some(bn));
    }

    #[test]
    fn sibling_merge_extends_over_partial_overlaps() {
        // Three siblings where the hull of (a, b) partially cuts c: the merge
        // must extend to fully include c, making it a participant (Fig. 3).
        let mut h = StHoles::with_total(domain(), 10, 10.0);
        let root = h.root();
        let a = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&[0.0, 0.0], &[10.0, 10.0]), 5.0, Some(root)));
        let b = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&[50.0, 40.0], &[60.0, 50.0]), 5.0, Some(root)));
        let c = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&[20.0, 20.0], &[45.0, 60.0]), 5.0, Some(root)));
        h.arena.get_mut(root).children.extend([a, b, c]);
        h.nonroot_count = 3;
        h.check_invariants().unwrap();
        h.apply_merge(&MergeOp::Siblings { parent: root, a, b });
        h.check_invariants().unwrap();
        let kids = h.arena.get(root).children.clone();
        assert_eq!(kids.len(), 1);
        let bn = kids[0];
        assert!(h.arena.get(bn).rect.contains_rect(&Rect::from_bounds(&[20.0, 20.0], &[45.0, 60.0])));
        assert_eq!(h.arena.get(c).parent, Some(bn));
    }

    #[test]
    fn best_merge_prefers_identical_densities() {
        // Two siblings of equal density merge for free; a third with wildly
        // different density should not be chosen.
        let mut h = StHoles::with_total(domain(), 10, 0.0);
        let root = h.root();
        let a = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&[0.0, 0.0], &[10.0, 10.0]), 100.0, Some(root)));
        let b = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&[10.0, 0.0], &[20.0, 10.0]), 100.0, Some(root)));
        let c = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&[50.0, 50.0], &[60.0, 60.0]), 10_000.0, Some(root)));
        h.arena.get_mut(root).children.extend([a, b, c]);
        h.nonroot_count = 3;
        let best = h.best_merge().unwrap();
        assert!(best.penalty < 1e-6, "equal-density merge should be free, got {}", best.penalty);
        match best.op {
            MergeOp::Siblings { a: x, b: y, .. } => {
                assert_eq!([x.min(y), x.max(y)], [a.min(b), a.max(b)]);
            }
            ref other => panic!("expected sibling merge, got {other:?}"),
        }
    }

    #[test]
    fn best_merge_matches_exhaustive_oracle() {
        let (mut h, _a, _b, _gc) = build();
        let oracle = h.best_merge_exhaustive();
        let fast = h.best_merge();
        assert_eq!(fast, oracle);
        // Still in agreement after a structural change.
        let op = fast.unwrap().op;
        h.apply_merge(&op);
        assert_eq!(h.best_merge(), h.best_merge_exhaustive());
    }

    #[test]
    fn heap_survives_slot_recycling() {
        // Merging and re-drilling recycles arena slots; stale heap entries
        // for the old occupant must never be served for the new one.
        let (mut h, _a, _b, _gc) = build();
        while let Some(m) = h.best_merge() {
            h.apply_merge(&m.op);
            assert_eq!(h.best_merge(), h.best_merge_exhaustive());
            if h.bucket_count() == 0 {
                break;
            }
        }
        assert_eq!(h.bucket_count(), 0);
    }

    #[test]
    fn compact_enforces_budget_and_preserves_total() {
        let (mut h, _a, _b, _gc) = build();
        let total = h.total_freq();
        h.config.budget = 1;
        h.compact();
        h.check_invariants().unwrap();
        assert!(h.bucket_count() <= 1);
        assert!((h.total_freq() - total).abs() < 1e-9);
        // Estimates still defined everywhere.
        assert!(h.estimate(&domain()).is_finite());
    }

    #[test]
    fn merge_to_zero_buckets() {
        let (mut h, _a, _b, _gc) = build();
        h.config.budget = 0;
        h.compact();
        h.check_invariants().unwrap();
        assert_eq!(h.bucket_count(), 0);
    }

    #[test]
    fn penalty_bound_handles_degenerate_volumes() {
        // Both own volumes 0: the penalty's first two terms are constant.
        assert!(sibling_penalty_bound(3.0, 0.0, 4.0, 0.0) <= 7.0);
        assert!(sibling_penalty_bound(3.0, 0.0, 4.0, 0.0) > 7.0 - 1e-6);
        // One volume 0: the other term vanishes at its breakpoint.
        assert!(sibling_penalty_bound(3.0, 0.0, 4.0, 2.0) > 3.0 - 1e-6);
        // Equal densities: a merge can be free, so the bound is below 0.
        assert!(sibling_penalty_bound(5.0, 10.0, 2.0, 4.0) <= 0.0);
        // A breakpoint past f64 range yields no bound rather than a wrong one.
        assert_eq!(sibling_penalty_bound(1e300, 1e-300, 1.0, 1.0), 0.0);
    }

    /// The sibling penalty from a fresh fixpoint, as the oracle computes it;
    /// `s` holds `id`'s child volumes and sweep order.
    fn fresh_penalty(h: &StHoles, id: BucketId, pi: usize, pj: usize, v_p: f64, s: &mut RefineScratch) -> f64 {
        let (bn_vol, v_move) = h.sibling_fixpoint(
            id, pi, pj, &s.child_vols, &mut s.bn_lo, &mut s.bn_hi, &mut s.sib_parts, &s.x_order, &mut s.active,
        );
        let part_vols = s.sib_parts.iter().map(|&p| s.child_vols[p as usize]);
        h.sibling_penalty_tail(id, pi, pj, v_p, &s.child_owns, bn_vol, v_move, part_vols)
    }

    /// For every parent and every pair of its children (a superset of the
    /// candidate pairs), the slack-adjusted bound must not exceed the
    /// penalty the box-extension fixpoint computes.
    fn assert_bound_sound(h: &StHoles) -> Result<(), TestCaseError> {
        let mut s = RefineScratch::default();
        for (id, b) in h.arena.iter() {
            let kids = &b.children;
            if kids.len() < 2 {
                continue;
            }
            let v_p = h.child_volumes(id, &mut s.child_vols, &mut s.child_owns);
            h.sweep_order(id, &mut s.x_order);
            for pi in 0..kids.len() {
                for pj in pi + 1..kids.len() {
                    let penalty = fresh_penalty(h, id, pi, pj, v_p, &mut s);
                    let (f_a, f_b) = (h.arena.get(kids[pi]).freq, h.arena.get(kids[pj]).freq);
                    let bound = sibling_penalty_bound(f_a, s.child_owns[pi], f_b, s.child_owns[pj]);
                    prop_assert!(
                        bound <= penalty,
                        "bound {bound} > penalty {penalty} for children {pi}, {pj} of {id}\n{}",
                        h.dump()
                    );
                }
            }
        }
        Ok(())
    }

    /// A rectangle on the 12.5-unit grid, so holes tile their parents.
    fn grid_query() -> impl Strategy<Value = Rect> {
        (0u32..8, 0u32..8, 1u32..5, 1u32..5).prop_map(|(x, y, w, h)| {
            let lo = [x as f64 * 12.5, y as f64 * 12.5];
            let hi = [((x + w) as f64 * 12.5).min(100.0), ((y + h) as f64 * 12.5).min(100.0)];
            Rect::from_bounds(&lo, &hi)
        })
    }

    fn free_query() -> impl Strategy<Value = Rect> {
        (0.0f64..90.0, 0.0f64..90.0, 1.0f64..60.0, 1.0f64..60.0).prop_map(|(x, y, w, h)| {
            Rect::from_bounds(&[x, y], &[(x + w).min(100.0), (y + h).min(100.0)])
        })
    }

    /// Refreshes the merge cache, then reruns every cached sibling-pair
    /// fixpoint from scratch and demands a bit-equal merged box, the same
    /// participants in the same order, and bit-equal `bn_vol` and
    /// `v_move`. Returns the number of cached pairs checked.
    fn assert_fixpoint_cache_coherent(h: &mut StHoles) -> Result<usize, TestCaseError> {
        h.refresh_merge_accel();
        let mut s = RefineScratch::default();
        let mut checked = 0;
        for (id, fc) in h.merge_accel.fixpoints.iter().enumerate() {
            if fc.pairs.is_empty() {
                continue;
            }
            prop_assert!(h.arena.contains(id), "cache kept for dead parent {id}");
            let kids = &h.arena.get(id).children;
            prop_assert_eq!(&fc.kids, kids, "stale children snapshot under {}", id);
            h.child_volumes(id, &mut s.child_vols, &mut s.child_owns);
            h.sweep_order(id, &mut s.x_order);
            let span = h.arena.bounds(id).len();
            for (k, e) in fc.pairs.iter().enumerate() {
                let position = |x: BucketId| kids.iter().position(|&c| c == x);
                let (Some(pi), Some(pj)) = (position(e.a), position(e.b)) else {
                    return Err(TestCaseError::fail(format!("pair ({}, {}) cached under {id}", e.a, e.b)));
                };
                let (bn_vol, v_move) = h.sibling_fixpoint(
                    id, pi, pj, &s.child_vols, &mut s.bn_lo, &mut s.bn_hi, &mut s.sib_parts, &s.x_order,
                    &mut s.active,
                );
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let fresh_box = [bits(&s.bn_lo), bits(&s.bn_hi)].concat();
                prop_assert_eq!(bits(&fc.boxes[k * span..(k + 1) * span]), fresh_box, "box of ({}, {})", e.a, e.b);
                let fresh_parts: Vec<BucketId> = s.sib_parts.iter().map(|&p| kids[p as usize]).collect();
                let at = e.parts_at as usize;
                prop_assert_eq!(&fc.parts[at..at + e.parts_len as usize], &fresh_parts[..]);
                prop_assert_eq!(e.bn_vol.to_bits(), bn_vol.to_bits());
                prop_assert_eq!(e.v_move.to_bits(), v_move.to_bits());
                checked += 1;
            }
        }
        Ok(checked)
    }

    /// The candidate selection the hull table replaces, computed from
    /// scratch: every hull volume by a fresh d-product (row-major, `k × k`),
    /// best-2 rows as `(growth, partner position)` by a strict-`<` scan in
    /// position order, and the pairs with the global top-up selected over
    /// every pair in `(i, j)` order.
    #[allow(clippy::type_complexity)]
    fn uncached_candidates(h: &StHoles, id: BucketId, cap: usize) -> (Vec<f64>, Vec<[(f64, u32); 2]>, Vec<(u32, u32)>) {
        let kids = &h.arena.get(id).children;
        let k = kids.len();
        let n = h.arena.bounds(kids[0]).len() / 2;
        let mut vols = vec![0.0; k * k];
        let mut best2 = vec![[(f64::INFINITY, u32::MAX); 2]; k];
        let mut all = Vec::new();
        for i in 0..k {
            let (bi, v_i) = (h.arena.bounds(kids[i]), h.arena.volume_of(kids[i]));
            for j in i + 1..k {
                let (bj, v_j) = (h.arena.bounds(kids[j]), h.arena.volume_of(kids[j]));
                let mut v = 1.0;
                for d in 0..n {
                    v *= bi[n + d].max(bj[n + d]) - bi[d].min(bj[d]);
                }
                vols[i * k + j] = v;
                vols[j * k + i] = v;
                all.push((v - v_i - v_j, i as u32, j as u32));
                for (row, g, partner) in [(i, v - v_i - v_j, j), (j, v - v_j - v_i, i)] {
                    let best = &mut best2[row];
                    if g < best[0].0 {
                        best[1] = best[0];
                        best[0] = (g, partner as u32);
                    } else if g < best[1].0 {
                        best[1] = (g, partner as u32);
                    }
                }
            }
        }
        let ordered = |i: u32, j: u32| if kids[i as usize] < kids[j as usize] { (i, j) } else { (j, i) };
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (i, best) in best2.iter().enumerate() {
            pairs.extend(best.iter().take(cap.min(2)).filter(|e| e.1 != u32::MAX).map(|e| ordered(i as u32, e.1)));
        }
        let global_top = (cap * 8).max(16);
        if all.len() > global_top {
            all.select_nth_unstable_by(global_top, |a, b| a.0.partial_cmp(&b.0).unwrap());
            all.truncate(global_top);
        }
        pairs.extend(all.iter().map(|&(_, i, j)| ordered(i, j)));
        pairs.sort_unstable();
        pairs.dedup();
        (vols, best2, pairs)
    }

    /// Refreshes the merge cache, then checks every live hull table
    /// against [`uncached_candidates`]: each cached hull volume equals a
    /// fresh d-product bit for bit, each best-2 row holds the same growths
    /// (`to_bits`) and partners, and the table yields the same candidate
    /// pairs. Returns the number of tables checked.
    fn assert_growth_cache_coherent(h: &mut StHoles) -> Result<usize, TestCaseError> {
        h.refresh_merge_accel();
        let mut checked = 0;
        for (id, fc) in h.merge_accel.fixpoints.iter().enumerate() {
            let t = &fc.hulls;
            if t.stride == 0 {
                continue;
            }
            prop_assert!(h.arena.contains(id), "hull table kept for dead parent {id}");
            let kids = &h.arena.get(id).children;
            let k = kids.len();
            let cap = h.config.sibling_neighbor_cap.expect("a live table needs a cap");
            prop_assert!(k > 2 * cap.max(2), "hull table kept under {id} with only {k} children");
            prop_assert_eq!(t.slots.len(), k);
            let mut slot_pos = vec![NONE; t.stride];
            for (j, &s) in t.slots.iter().enumerate() {
                prop_assert_eq!(slot_pos[s as usize], NONE, "slot {} held twice under {}", s, id);
                slot_pos[s as usize] = j as u32;
            }
            let (vols, best2, pairs) = uncached_candidates(h, id, cap);
            for (i, &si) in t.slots.iter().enumerate() {
                for (j, &sj) in t.slots.iter().enumerate().filter(|&(j, _)| j != i) {
                    let cached = t.vols[si as usize * t.stride + sj as usize];
                    prop_assert_eq!(cached.to_bits(), vols[i * k + j].to_bits(), "hull ({}, {}) under {}", i, j, id);
                }
                let row = t.best2[si as usize].map(|(g, s)| (g.to_bits(), slot_pos[s as usize]));
                let fresh = best2[i].map(|(g, p)| (g.to_bits(), p));
                prop_assert_eq!(row, fresh, "best-2 row of child {} under {}", i, id);
            }
            let child_vols: Vec<f64> = kids.iter().map(|&c| h.arena.volume_of(c)).collect();
            let (mut cached_pairs, mut buf) = (Vec::new(), Vec::new());
            t.candidate_pairs(kids, &child_vols, &slot_pos, cap, &mut cached_pairs, &mut buf);
            prop_assert_eq!(cached_pairs, pairs, "candidate pairs under {}", id);
            checked += 1;
        }
        Ok(checked)
    }

    /// A root with 20 grid-aligned children, as in `merge_oracle.rs`: the
    /// 20×20 cells of the first four columns of a 5×5 grid, each drilled
    /// from `per_row[row]` points per cell, so equal-density neighbours tie.
    fn tie_heavy_grid(per_row: &[usize]) -> StHoles {
        const OFFSETS: [(f64, f64); 8] =
            [(5.0, 5.0), (15.0, 5.0), (5.0, 15.0), (15.0, 15.0), (10.0, 10.0), (10.0, 5.0), (10.0, 15.0), (5.0, 10.0)];
        let mut rows = Vec::new();
        for (row, &count) in per_row.iter().enumerate() {
            for col in 0..5 {
                for &(dx, dy) in &OFFSETS[..count] {
                    rows.push(vec![col as f64 * 20.0 + dx, row as f64 * 20.0 + dy]);
                }
            }
        }
        let total = 4.0 * rows.len() as f64;
        let counter = ResultSetCounter::new(rows);
        let mut h = StHoles::with_total(domain(), 64, total);
        for row in 0..5 {
            for col in 0..4 {
                let (x, y) = (col as f64 * 20.0, row as f64 * 20.0);
                h.drill_only(&Rect::from_bounds(&[x, y], &[x + 20.0, y + 20.0]), &counter);
            }
        }
        h
    }

    sth_platform::check! {
        cases = 48;

        #[test]
        fn sibling_penalty_bound_never_exceeds_penalty(
            points in collection::vec((0.0f64..50.0, 0.0f64..50.0), 10..150),
            grid in collection::vec(grid_query(), 1..25),
            free in collection::vec(free_query(), 0..10),
            budget in 3usize..20,
        ) {
            // Points fill only the lower-left quarter, so holes elsewhere
            // get frequency 0. The quadrant prefix makes the root's children
            // cover its whole volume, and grid-aligned holes keep tiling
            // their parents as the stream goes on.
            let rows: Vec<Vec<f64>> = points.iter().map(|&(x, y)| vec![x, y]).collect();
            let total = rows.len() as f64;
            let counter = ResultSetCounter::new(rows);
            let mut h = StHoles::with_total(domain(), budget, total);
            let mut stream: Vec<Rect> = [(0.0, 0.0), (50.0, 0.0), (0.0, 50.0), (50.0, 50.0)]
                .map(|(x, y)| Rect::from_bounds(&[x, y], &[x + 50.0, y + 50.0]))
                .to_vec();
            for (i, g) in grid.iter().enumerate() {
                stream.push(g.clone());
                stream.extend(free.get(i).cloned());
            }
            for q in &stream {
                h.refine(q, &counter);
                assert_bound_sound(&h)?;
            }
        }

        #[test]
        fn fixpoint_cache_matches_fresh_fixpoints(
            points in collection::vec((0.0f64..100.0, 0.0f64..100.0), 10..150),
            grid in collection::vec(grid_query(), 1..30),
            free in collection::vec(free_query(), 0..15),
            budget in 2usize..10,
        ) {
            // Small budgets merge after nearly every drill, so slots are
            // recycled and parents gain and lose children all the time.
            let rows: Vec<Vec<f64>> = points.iter().map(|&(x, y)| vec![x, y]).collect();
            let total = rows.len() as f64;
            let counter = ResultSetCounter::new(rows);
            let mut h = StHoles::with_total(domain(), budget, total);
            let mut stream = Vec::new();
            for (i, g) in grid.iter().enumerate() {
                stream.push(g.clone());
                stream.extend(free.get(i).cloned());
            }
            for q in &stream {
                h.refine(q, &counter);
                assert_fixpoint_cache_coherent(&mut h)?;
            }
        }

        #[test]
        fn growth_cache_matches_uncached_candidates(
            points in collection::vec((0.0f64..100.0, 0.0f64..100.0), 10..150),
            grid in collection::vec(grid_query(), 1..40),
            free in collection::vec(free_query(), 0..20),
            budget in 6usize..24,
            cap in 0usize..4,
        ) {
            // Caps of at most 3 keep the table live from five or seven
            // children on, well within the budgets.
            let rows: Vec<Vec<f64>> = points.iter().map(|&(x, y)| vec![x, y]).collect();
            let total = rows.len() as f64;
            let counter = ResultSetCounter::new(rows);
            let mut h = StHoles::with_total(domain(), budget, total);
            h.config.sibling_neighbor_cap = Some(cap);
            let mut stream = Vec::new();
            for (i, g) in grid.iter().enumerate() {
                stream.push(g.clone());
                stream.extend(free.get(i).cloned());
            }
            for q in &stream {
                h.refine(q, &counter);
                assert_growth_cache_coherent(&mut h)?;
            }
        }

        #[test]
        fn growth_cache_matches_uncached_candidates_on_tie_heavy_grids(
            per_row in collection::vec(1usize..=8, 5),
            policy in 0u8..2,
            cap in 1usize..=6,
        ) {
            let mut h = tie_heavy_grid(&per_row);
            h.config.sibling_neighbor_cap = Some(cap);
            if policy == 1 {
                h.set_merge_policy(crate::MergePolicy::SiblingFirst);
            }
            prop_assert!(assert_growth_cache_coherent(&mut h)? > 0, "20 children, yet no live hull table");
            while h.bucket_count() > 2 {
                h.set_budget(h.bucket_count() - 1);
                assert_growth_cache_coherent(&mut h)?;
            }
        }

        #[test]
        fn fixpoint_cache_matches_fresh_fixpoints_on_tie_heavy_grids(
            per_row in collection::vec(1usize..=8, 5),
            policy in 0u8..2,
        ) {
            let mut h = tie_heavy_grid(&per_row);
            if policy == 1 {
                h.set_merge_policy(crate::MergePolicy::SiblingFirst);
            }
            while h.bucket_count() > 2 {
                assert_fixpoint_cache_coherent(&mut h)?;
                h.set_budget(h.bucket_count() - 1);
            }
        }
    }
}
