//! The lane-oriented batch-estimate kernel over the frozen SoA.
//!
//! [`crate::FrozenHistogram`]'s scalar path answers one query at a time:
//! every query re-walks the tree from the root, re-loads the same child
//! bound slabs, and re-takes the same data-dependent branches. This module
//! restructures [`sth_query::Estimator::estimate_batch`] into a
//! *level-synchronous* traversal that amortizes all of that across the
//! batch:
//!
//! * **Active-query worklists.** Each node of the BFS-ordered snapshot
//!   carries a worklist of *lanes* — the queries whose clipped boxes reach
//!   that node. The root's worklist is the whole batch (minus queries that
//!   miss the domain); a child's worklist is spawned from its parent's
//!   while the parent is processed, so queries that share subtrees share
//!   every traversal decision along the shared prefix.
//! * **Lane-oriented arithmetic.** At each node the surviving lanes are
//!   compacted into dimension-major `f64` arrays and intersected against
//!   the node's contiguous child-bound slab with branch-free `min`/`max`
//!   arithmetic: for one child, the per-dimension overlap loop runs over
//!   contiguous lanes with no data-dependent branches, which the compiler
//!   auto-vectorizes (no intrinsics — the hermetic policy stays intact).
//!   Each child's bounds are loaded once per node instead of once per
//!   query.
//! * **Bit-identity.** The kernel replays the scalar path's exact f64
//!   operand order per query. Overlap products multiply dimensions in
//!   ascending order; `v(q ∩ own)` subtracts children in child-list order
//!   (subtracting an exact `0.0` for non-overlapping children — a bitwise
//!   identity on IEEE-754 doubles); per-node estimates fold child subtree
//!   sums in child order *then* add the own-region term, exactly like the
//!   recursive return. The `batch_kernel_is_bit_identical_to_scalar`
//!   property test pins this.
//!
//! The kernel pays fixed bookkeeping per call (worklist setup, query
//! packing), so tiny batches fall back to the scalar loop — see
//! [`KERNEL_MIN_BATCH`] and the dispatch in `frozen.rs`.

use std::cell::RefCell;

use sth_geometry::Rect;
use sth_platform::obs;

use crate::FrozenHistogram;

/// Batches below this size take the scalar per-query loop: the kernel's
/// per-call setup (worklist arrays, query packing) only pays for itself
/// once several queries share traversal work.
pub const KERNEL_MIN_BATCH: usize = 8;

/// Compare-select minimum. Equivalent to [`f64::min`] for the finite
/// operands this kernel sees ([`Rect`] construction rejects non-finite
/// coordinates, and bucket bounds are built from rects), but compiles to a
/// bare `minpd` instead of the NaN-guarded five-instruction lowering of
/// `llvm.minnum`. The one observable difference — which zero sign comes
/// back when both operands are zeros — cannot reach the output: clipped
/// coordinates only feed subtractions (where `±0.0` operands yield the
/// same difference), `==` comparisons (sign-blind), and overlap products
/// whose zero case is replaced by a literal `0.0` before it is used. The
/// bit-identity property test pins this.
#[inline(always)]
fn fmin(a: f64, b: f64) -> f64 {
    if a < b { a } else { b }
}

/// Compare-select maximum; see [`fmin`] for why this matches [`f64::max`]
/// bit-for-bit in kernel context.
#[inline(always)]
fn fmax(a: f64, b: f64) -> f64 {
    if a > b { a } else { b }
}

/// The widest SIMD level the running CPU supports for the sweep bodies.
///
/// The kernel ships **one** scalar Rust body per sweep (no intrinsics — the
/// hermetic policy stays intact) and lets the compiler auto-vectorize it at
/// three register widths: the portable baseline, and on x86-64 two
/// `#[target_feature]` re-compilations (AVX2, AVX-512). Every tier runs the
/// identical sequence of IEEE-754 operations per lane — lanes are
/// independent, and the only cross-lane state is an integer hit count — so
/// the choice of tier cannot change a single output bit; it only changes
/// how many lanes retire per instruction. Detection runs once per process
/// via `is_x86_feature_detected!`; non-x86-64 targets always take the
/// baseline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SimdTier {
    Base,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

fn simd_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        static TIER: std::sync::OnceLock<SimdTier> = std::sync::OnceLock::new();
        *TIER.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("avx512f") {
                SimdTier::Avx512
            } else if std::arch::is_x86_feature_detected!("avx2") {
                SimdTier::Avx2
            } else {
                SimdTier::Base
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    SimdTier::Base
}

/// One child's overlap sweep over the gated lanes, 2-d fast path: computes
/// each lane's overlap with the child box (`ov`, exact `0.0` on a miss),
/// subtracts it from the lane's `v_q_own` accumulator, and returns how many
/// lanes overlap. `gqb` holds the lanes' clipped boxes dimension-major
/// (`lo₀ lanes, lo₁ lanes, hi₀ lanes, hi₁ lanes`); `cb` is the packed child
/// box.
///
/// Kept out-of-line on purpose: as distinct `&mut` parameters the slices
/// carry noalias guarantees the optimizer loses when they are re-borrowed
/// from the scratch struct inside the traversal loop, and with them the
/// sweep auto-vectorizes (`minpd`/`maxpd`/`cmpltpd` streams). The overlap
/// product multiplies ascending dimensions — the scalar `packed_overlap`
/// order (its leading `1.0 ×` is exact) — and the positive count is an
/// integer reduction that rides the same sweep.
#[inline(always)]
fn sweep_child_2d_body(cb: &[f64], gqb: &[f64], ov: &mut [f64], gvq: &mut [f64]) -> u32 {
    let gated = gvq.len();
    let (clo0, clo1, chi0, chi1) = (cb[0], cb[1], cb[2], cb[3]);
    let qlo0 = &gqb[..gated];
    let qlo1 = &gqb[gated..2 * gated];
    let qhi0 = &gqb[2 * gated..3 * gated];
    let qhi1 = &gqb[3 * gated..4 * gated];
    let ov = &mut ov[..gated];
    let mut npos = 0u32;
    for j in 0..gated {
        let len0 = fmin(chi0, qhi0[j]) - fmax(clo0, qlo0[j]);
        let len1 = fmin(chi1, qhi1[j]) - fmax(clo1, qlo1[j]);
        let p = len0 * len1;
        let pos = (len0 > 0.0) & (len1 > 0.0);
        let o = if pos { p } else { 0.0 };
        gvq[j] -= o;
        ov[j] = o;
        npos += pos as u32;
    }
    npos
}

/// Generic-dimension variant of [`sweep_child_2d_body`]: the first
/// dimension *stores* the running product and minimum (no per-child buffer
/// re-initialization — `1.0 × len` and `min(∞, len)` are exact, so direct
/// stores are bit-identical), later dimensions accumulate, and a final
/// sweep selects the overlap, updates `v_q_own`, and counts hits.
#[inline(always)]
fn sweep_child_nd_body(
    n: usize,
    cb: &[f64],
    gqb: &[f64],
    prod: &mut [f64],
    len_min: &mut [f64],
    gvq: &mut [f64],
) -> u32 {
    let gated = gvq.len();
    let prod = &mut prod[..gated];
    let len_min = &mut len_min[..gated];
    {
        let (clo, chi) = (cb[0], cb[n]);
        let qlo = &gqb[..gated];
        let qhi = &gqb[n * gated..(n + 1) * gated];
        for j in 0..gated {
            let len = fmin(chi, qhi[j]) - fmax(clo, qlo[j]);
            prod[j] = len;
            len_min[j] = len;
        }
    }
    for d in 1..n {
        let (clo, chi) = (cb[d], cb[n + d]);
        let qlo = &gqb[d * gated..(d + 1) * gated];
        let qhi = &gqb[(n + d) * gated..(n + d + 1) * gated];
        for j in 0..gated {
            let len = fmin(chi, qhi[j]) - fmax(clo, qlo[j]);
            prod[j] *= len;
            len_min[j] = fmin(len_min[j], len);
        }
    }
    let mut npos = 0u32;
    for j in 0..gated {
        let pos = len_min[j] > 0.0;
        let o = if pos { prod[j] } else { 0.0 };
        gvq[j] -= o;
        prod[j] = o;
        npos += pos as u32;
    }
    npos
}

// Tiered re-compilations of the sweep bodies (see [`SimdTier`]). Each is
// the *same* `#[inline(always)]` body inlined under a wider
// `#[target_feature]` set; the `unsafe` is only the calling convention of
// `#[target_feature]` functions and is discharged by the runtime detection
// in `simd_tier` before either is ever selected.

#[inline(never)]
fn sweep_child_2d_base(cb: &[f64], gqb: &[f64], ov: &mut [f64], gvq: &mut [f64]) -> u32 {
    sweep_child_2d_body(cb, gqb, ov, gvq)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_child_2d_avx2(cb: &[f64], gqb: &[f64], ov: &mut [f64], gvq: &mut [f64]) -> u32 {
    sweep_child_2d_body(cb, gqb, ov, gvq)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn sweep_child_2d_avx512(cb: &[f64], gqb: &[f64], ov: &mut [f64], gvq: &mut [f64]) -> u32 {
    sweep_child_2d_body(cb, gqb, ov, gvq)
}

#[inline(never)]
fn sweep_child_nd_base(
    n: usize,
    cb: &[f64],
    gqb: &[f64],
    prod: &mut [f64],
    len_min: &mut [f64],
    gvq: &mut [f64],
) -> u32 {
    sweep_child_nd_body(n, cb, gqb, prod, len_min, gvq)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_child_nd_avx2(
    n: usize,
    cb: &[f64],
    gqb: &[f64],
    prod: &mut [f64],
    len_min: &mut [f64],
    gvq: &mut [f64],
) -> u32 {
    sweep_child_nd_body(n, cb, gqb, prod, len_min, gvq)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn sweep_child_nd_avx512(
    n: usize,
    cb: &[f64],
    gqb: &[f64],
    prod: &mut [f64],
    len_min: &mut [f64],
    gvq: &mut [f64],
) -> u32 {
    sweep_child_nd_body(n, cb, gqb, prod, len_min, gvq)
}

/// Worklists at or below this size take [`sweep_child_small`]: an
/// out-of-line vector sweep costs a call plus prologue per child, which
/// only pays off once a node carries enough lanes to fill vectors. Deep
/// nodes typically carry one or two lanes; bushy nodes near the root carry
/// most of the batch.
const SMALL_SWEEP: usize = 8;

/// Scalar per-lane sweep for small worklists, inlined at the call site (no
/// dispatch, no vector prologue). Bit-identical to the tiered bodies: the
/// running product starts at the scalar path's exact `1.0` and multiplies
/// ascending dimensions, and the all-dimensions-overlap predicate is the
/// same `min > 0` reduction.
#[inline(always)]
fn sweep_child_small(n: usize, cb: &[f64], gqb: &[f64], ov: &mut [f64], gvq: &mut [f64]) -> u32 {
    let gated = gvq.len();
    let mut npos = 0u32;
    for j in 0..gated {
        let mut prod = 1.0f64;
        let mut len_min = f64::INFINITY;
        for d in 0..n {
            let len = fmin(cb[n + d], gqb[(n + d) * gated + j]) - fmax(cb[d], gqb[d * gated + j]);
            prod *= len;
            len_min = fmin(len_min, len);
        }
        let pos = len_min > 0.0;
        let o = if pos { prod } else { 0.0 };
        gvq[j] -= o;
        ov[j] = o;
        npos += pos as u32;
    }
    npos
}

/// Tier-dispatched 2-d sweep; `tier` comes from [`simd_tier`], so the
/// `unsafe` feature-gated calls are guarded by the runtime CPU check.
#[inline(always)]
fn sweep_child_2d(
    tier: SimdTier,
    cb: &[f64],
    gqb: &[f64],
    ov: &mut [f64],
    gvq: &mut [f64],
) -> u32 {
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { sweep_child_2d_avx512(cb, gqb, ov, gvq) },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { sweep_child_2d_avx2(cb, gqb, ov, gvq) },
        SimdTier::Base => sweep_child_2d_base(cb, gqb, ov, gvq),
    }
}

/// Tier-dispatched generic-dimension sweep; see [`sweep_child_2d`].
#[inline(always)]
fn sweep_child_nd(
    tier: SimdTier,
    n: usize,
    cb: &[f64],
    gqb: &[f64],
    prod: &mut [f64],
    len_min: &mut [f64],
    gvq: &mut [f64],
) -> u32 {
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { sweep_child_nd_avx512(n, cb, gqb, prod, len_min, gvq) },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { sweep_child_nd_avx2(n, cb, gqb, prod, len_min, gvq) },
        SimdTier::Base => sweep_child_nd_base(n, cb, gqb, prod, len_min, gvq),
    }
}

/// Reusable kernel state. Lanes for all nodes live in flat CSR-style
/// arrays (one contiguous range per node, appended in BFS order); the
/// per-node temporaries are compacted gather buffers for the branch-free
/// inner loops. Contents are meaningless between calls — only capacity
/// survives, so a pooled scratch makes steady-state batches allocation-free.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    /// Batch queries packed `[lo_0..lo_{n-1}, hi_0..hi_{n-1}]` per query,
    /// so lane spawning never chases `Rect` pointers.
    qpk: Vec<f64>,
    /// Per-lane: index of the query this lane answers.
    qidx: Vec<u32>,
    /// Per-lane: global id of the parent node's lane that spawned this one
    /// (`u32::MAX` for root lanes).
    parent: Vec<u32>,
    /// Per-lane: the `v(q ∩ own region)` accumulator (scalar `v_q_own`).
    vqown: Vec<f64>,
    /// Per-lane: child-subtree sum, finalized into the lane's estimate.
    est: Vec<f64>,
    /// Per-lane clipped query boxes, stored *dimension-major within each
    /// node's range*: a node with `L` lanes at lane offset `o` owns
    /// `qb[o·2n .. (o+L)·2n]`, chunked as `2n` runs of `L` (all lanes'
    /// `lo_0`, then `lo_1`, …, then `hi_0`, …) so the per-dimension inner
    /// loops stream contiguously.
    qb: Vec<f64>,
    /// First lane of each node's worklist.
    node_off: Vec<u32>,
    /// Worklist length of each node.
    node_len: Vec<u32>,
    /// Local indices of lanes that passed the children-hull gate.
    gather: Vec<u32>,
    /// Gated lanes' query boxes, dimension-major (the hot inner operand).
    gqb: Vec<f64>,
    /// Gated lanes' `v_q_own` accumulators, compacted once per node so the
    /// per-child subtraction runs over a dense stream (scattered back after
    /// the node's children are done).
    gvq: Vec<f64>,
    /// Per gated lane: the current child's overlap (exact `0.0` when any
    /// dimension misses), doubling as the spawn predicate.
    prod: Vec<f64>,
    /// Per gated lane: smallest per-dimension overlap length seen — the
    /// branch-free "all dimensions overlap" predicate (`> 0` ⇔ all `> 0`).
    /// Only used by the generic (`n != 2`) path.
    len_min: Vec<f64>,
    /// Gathered-lane positions spawning into the current child.
    spawn: Vec<u32>,
}

thread_local! {
    static BATCH_SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::default());
}

/// Runs `f` with this thread's pooled kernel scratch. Falls back to a
/// fresh scratch under (pathological) reentrancy rather than panicking.
fn with_batch_scratch<R>(f: impl FnOnce(&mut BatchScratch) -> R) -> R {
    BATCH_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut BatchScratch::default()),
    })
}

impl FrozenHistogram {
    /// Estimates every query in `queries` through the lane-oriented batch
    /// kernel, clearing `out` and filling it with one value per query (in
    /// query order).
    ///
    /// Results are **bit-identical** to calling
    /// [`sth_query::CardinalityEstimator::estimate`] per query; the normal
    /// entry point is [`sth_query::Estimator::estimate_batch`], which
    /// routes large batches here and small ones to the scalar loop. This
    /// method is public so harnesses (benches, property tests) can pin the
    /// kernel path regardless of batch size.
    pub fn estimate_batch_kernel(&self, queries: &[Rect], out: &mut Vec<f64>) {
        out.clear();
        if queries.is_empty() {
            return;
        }
        obs::incr(obs::Counter::BatchKernelCalls);
        with_batch_scratch(|scratch| self.kernel_run(scratch, queries, out));
    }

    /// The kernel proper: one downward level-synchronous pass building the
    /// per-node worklists and `v_q_own` accumulators, then one upward pass
    /// folding subtree estimates in the scalar path's summation order.
    fn kernel_run(&self, s: &mut BatchScratch, queries: &[Rect], out: &mut Vec<f64>) {
        let n = self.ndim;
        let span = 2 * n;
        let count = self.vols.len();
        let tier = simd_tier();
        out.resize(queries.len(), 0.0);

        s.qidx.clear();
        s.parent.clear();
        s.vqown.clear();
        s.est.clear();
        s.qb.clear();
        s.node_off.clear();
        s.node_off.resize(count, 0);
        s.node_len.clear();
        s.node_len.resize(count, 0);

        // Pack the batch once: `Rect` keeps lo/hi in separate heap
        // allocations; lane spawning wants one flat slab.
        s.qpk.clear();
        s.qpk.reserve(queries.len() * span);
        for (qi, q) in queries.iter().enumerate() {
            if q.ndim() == n {
                s.qpk.extend_from_slice(q.lo());
                s.qpk.extend_from_slice(q.hi());
            } else {
                // Wrong dimensionality: the answer is NaN, and the packed
                // box is empty (lo = +∞, hi = −∞), so it spawns no lane.
                out[qi] = f64::NAN;
                s.qpk.extend(std::iter::repeat_n(f64::INFINITY, n));
                s.qpk.extend(std::iter::repeat_n(f64::NEG_INFINITY, n));
            }
        }

        // Root worklist: one lane per query that intersects the domain box,
        // in batch order. Mirrors the scalar `intersect_into` operand order
        // (`bounds.max(q_lo)` / `bounds.min(q_hi)`).
        let root = &self.bounds[..span];
        for qi in 0..queries.len() {
            let q = &s.qpk[qi * span..(qi + 1) * span];
            let nonempty = (0..n).all(|d| root[d].max(q[d]) < root[n + d].min(q[n + d]));
            if nonempty {
                s.qidx.push(qi as u32);
                s.parent.push(u32::MAX);
                s.est.push(0.0);
            }
        }
        let root_lanes = s.qidx.len();
        s.node_len[0] = root_lanes as u32;
        if root_lanes == 0 {
            return; // every query misses the domain: all zeros, like scalar
        }
        s.qb.resize(root_lanes * span, 0.0);
        for k in 0..span {
            let is_hi = k >= n;
            let d = if is_hi { k - n } else { k };
            for l in 0..root_lanes {
                let q = &s.qpk[s.qidx[l] as usize * span..];
                s.qb[k * root_lanes + l] = if is_hi {
                    fmin(root[n + d], q[n + d])
                } else {
                    fmax(root[d], q[d])
                };
            }
        }
        // v(q ∩ box) per root lane: ascending-dimension product, exactly
        // `packed_volume`.
        s.vqown.resize(root_lanes, 1.0);
        for d in 0..n {
            for l in 0..root_lanes {
                s.vqown[l] *= s.qb[(n + d) * root_lanes + l] - s.qb[d * root_lanes + l];
            }
        }

        let mut gate_prunes = 0u64;
        let mut lanes_pruned = 0u64;

        // ---- Downward pass -------------------------------------------------
        // BFS order guarantees a node's worklist is complete before the node
        // is processed: lanes are only spawned by the (unique) parent.
        for i in 0..count {
            let lanes = s.node_len[i] as usize;
            if lanes == 0 {
                continue;
            }
            obs::record_hist(obs::HistKind::KernelNodeLanes, lanes as u64);
            let cs = self.child_start[i] as usize;
            let ce = self.child_end[i] as usize;
            if cs == ce {
                continue; // leaf: v_q_own is already final
            }
            let off = s.node_off[i] as usize;
            let slab = off * span;

            // Children-hull gate, lane by lane: `packed_intersects(qb, hull)`
            // with the scalar operand order. Failing lanes keep their full
            // `v(q ∩ box)` and never expand — the shared hull-gating work.
            let hull = &self.hulls[i * span..(i + 1) * span];
            s.gather.clear();
            for l in 0..lanes {
                let mut hit = true;
                for d in 0..n {
                    let lo = fmax(s.qb[slab + d * lanes + l], hull[d]);
                    let hi = fmin(s.qb[slab + (n + d) * lanes + l], hull[n + d]);
                    if lo >= hi {
                        hit = false;
                        break;
                    }
                }
                if hit {
                    s.gather.push(l as u32);
                } else {
                    gate_prunes += 1;
                }
            }
            let gated = s.gather.len();
            lanes_pruned += (lanes - gated) as u64 * (ce - cs) as u64;
            if gated == 0 {
                continue;
            }

            // Compact the gated lanes into dense dimension-major operands so
            // the per-child loops below are branch-free streams; the
            // `v_q_own` accumulators come along so the per-child subtraction
            // is a dense read-modify-write (scattered back once per node).
            s.gqb.clear();
            s.gqb.resize(gated * span, 0.0);
            for k in 0..span {
                for (j, &l) in s.gather.iter().enumerate() {
                    s.gqb[k * gated + j] = s.qb[slab + k * lanes + l as usize];
                }
            }
            s.gvq.clear();
            s.gvq.extend(s.gather.iter().map(|&l| s.vqown[off + l as usize]));
            s.prod.resize(gated.max(s.prod.len()), 0.0);
            s.len_min.resize(gated.max(s.len_min.len()), 0.0);

            for c in cs..ce {
                let cb = &self.bounds[c * span..(c + 1) * span];
                // Dense overlap sweep for this child (out-of-line so the
                // operand slices carry noalias and the loops vectorize; see
                // `sweep_child_2d`). After it, `s.prod[..gated]` holds each
                // lane's overlap (exact `0.0` on a miss) and `s.gvq` has the
                // child's volume subtracted from every overlapping lane.
                let npos = if gated <= SMALL_SWEEP {
                    sweep_child_small(n, cb, &s.gqb, &mut s.prod, &mut s.gvq[..gated])
                } else if n == 2 {
                    sweep_child_2d(tier, cb, &s.gqb, &mut s.prod, &mut s.gvq[..gated])
                } else {
                    sweep_child_nd(
                        tier,
                        n,
                        cb,
                        &s.gqb,
                        &mut s.prod,
                        &mut s.len_min,
                        &mut s.gvq[..gated],
                    )
                };

                // Lanes with a positive overlap descend into the child. Most
                // children overlap no lane at all (queries are small boxes),
                // so the branchy index scan only runs when the dense sweep
                // counted a hit.
                s.node_off[c] = s.qidx.len() as u32;
                s.node_len[c] = npos;
                lanes_pruned += (gated - npos as usize) as u64;
                if npos == 0 {
                    continue;
                }
                s.spawn.clear();
                for (j, &o) in s.prod[..gated].iter().enumerate() {
                    if o > 0.0 {
                        s.spawn.push(j as u32);
                    }
                }

                let spawned = s.spawn.len();
                debug_assert_eq!(spawned as u32, npos);
                let base = s.qidx.len();
                for &j in &s.spawn {
                    let l = s.gather[j as usize] as usize;
                    let qi = s.qidx[off + l];
                    s.qidx.push(qi);
                    s.parent.push((off + l) as u32);
                    s.est.push(0.0);
                }
                // The child's clipped query box, from the *original* query
                // (scalar `intersect_into(cb, q)`): `cb.max(q_lo)` /
                // `cb.min(q_hi)` per dimension, dimension-major.
                s.qb.resize((base + spawned) * span, 0.0);
                for k in 0..span {
                    let is_hi = k >= n;
                    let d = if is_hi { k - n } else { k };
                    for slot in 0..spawned {
                        let q = &s.qpk[s.qidx[base + slot] as usize * span..];
                        s.qb[base * span + k * spawned + slot] = if is_hi {
                            fmin(cb[n + d], q[n + d])
                        } else {
                            fmax(cb[d], q[d])
                        };
                    }
                }
                // Seed the child's v_q_own with v(q ∩ child box): the
                // ascending-dimension `packed_volume` product.
                s.vqown.resize(base + spawned, 1.0);
                for d in 0..n {
                    for slot in 0..spawned {
                        s.vqown[base + slot] *= s.qb[base * span + (n + d) * spawned + slot]
                            - s.qb[base * span + d * spawned + slot];
                    }
                }
            }

            // Scatter the finished accumulators back to their lanes (the
            // values are exact copies, so the round-trip is bitwise free).
            for (j, &l) in s.gather.iter().enumerate() {
                s.vqown[off + l as usize] = s.gvq[j];
            }
        }

        if gate_prunes > 0 {
            // Same per-(node, query) accounting as the scalar `enter_gate`.
            obs::add(obs::Counter::HullGatePrunes, gate_prunes);
        }
        obs::add(obs::Counter::BatchLanesPruned, lanes_pruned);

        // ---- Upward pass ---------------------------------------------------
        // Reverse BFS order: every child's estimate is final before its
        // parent folds it in. Children are pulled in *ascending* child order
        // (each child lane maps to a distinct parent lane), then the own
        // term is added last — the exact left-to-right association of the
        // scalar frame stack.
        for i in (0..count).rev() {
            let lanes = s.node_len[i] as usize;
            if lanes == 0 {
                continue;
            }
            let off = s.node_off[i] as usize;
            for c in self.child_start[i] as usize..self.child_end[i] as usize {
                let coff = s.node_off[c] as usize;
                for m in coff..coff + s.node_len[c] as usize {
                    let parent_lane = s.parent[m] as usize;
                    debug_assert!(parent_lane >= off && parent_lane < off + lanes);
                    s.est[parent_lane] += s.est[m];
                }
            }
            let v_own = self.own_vols[i];
            let freq = self.freqs[i];
            let bounds = &self.bounds[i * span..(i + 1) * span];
            for l in 0..lanes {
                let lane = off + l;
                let vq = s.vqown[lane];
                if v_own > 0.0 && vq > 0.0 {
                    s.est[lane] += freq * (vq / v_own).min(1.0);
                } else if vq > 0.0
                    || (0..span).all(|k| s.qb[off * span + k * lanes + l] == bounds[k])
                {
                    // Degenerate own region fully covered by the query —
                    // the scalar path's packed-box equality test.
                    s.est[lane] += freq;
                }
            }
        }

        // Root lanes carry the final per-query totals; queries that missed
        // the domain keep the 0.0 written by `resize` above (wrong-dimension
        // ones the NaN written while packing).
        for l in 0..root_lanes {
            out[s.qidx[l] as usize] = s.est[l];
        }
    }
}

#[cfg(test)]
mod tests {
    use sth_geometry::Rect;
    use sth_index::ResultSetCounter;
    use sth_platform::obs;
    use sth_query::{CardinalityEstimator, Estimator, SelfTuning};

    use crate::StHoles;

    /// A deterministic multi-level histogram: refine on a fixed query lattice.
    fn trained() -> StHoles {
        let domain = Rect::cube(2, 0.0, 100.0);
        let rows: Vec<Vec<f64>> = (0..400)
            .map(|i| {
                let x = (i % 20) as f64 * 5.0 + 1.5;
                let y = (i / 20) as f64 * 5.0 + 2.5;
                vec![x, y]
            })
            .collect();
        let counter = ResultSetCounter::new(rows);
        let mut h = StHoles::with_total(domain, 40, 400.0);
        for step in 0..30 {
            let x = (step % 6) as f64 * 15.0;
            let y = (step % 5) as f64 * 17.0;
            let q = Rect::from_bounds(&[x, y], &[x + 22.0, y + 19.0]);
            h.refine(&q, &counter);
        }
        h
    }

    fn probes() -> Vec<Rect> {
        let mut probes: Vec<Rect> = (0..48)
            .map(|i| {
                let x = (i % 8) as f64 * 11.0;
                let y = (i / 8) as f64 * 13.0;
                Rect::from_bounds(&[x, y], &[x + 17.0, y + 23.0])
            })
            .collect();
        // Outside the root hull entirely, and exactly the domain.
        probes.push(Rect::cube(2, 150.0, 200.0));
        probes.push(Rect::cube(2, 0.0, 100.0));
        probes
    }

    #[test]
    fn kernel_matches_scalar_bitwise_on_fixture() {
        let h = trained();
        let f = h.freeze();
        let probes = probes();
        let mut got = vec![999.0; 3]; // stale garbage: the kernel must clear
        f.estimate_batch_kernel(&probes, &mut got);
        assert_eq!(got.len(), probes.len());
        for (q, est) in probes.iter().zip(&got) {
            assert_eq!(
                est.to_bits(),
                f.estimate(q).to_bits(),
                "kernel diverges from scalar on {q}"
            );
        }
    }

    #[test]
    fn kernel_handles_empty_and_singleton_batches() {
        let h = trained();
        let f = h.freeze();
        let mut out = vec![1.0, 2.0];
        f.estimate_batch_kernel(&[], &mut out);
        assert!(out.is_empty());
        let q = Rect::from_bounds(&[10.0, 10.0], &[40.0, 40.0]);
        f.estimate_batch_kernel(std::slice::from_ref(&q), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to_bits(), f.estimate(&q).to_bits());
    }

    #[test]
    fn kernel_counters_track_calls_and_gate_parity() {
        obs::force_metrics(true);
        let h = trained();
        let f = h.freeze();
        let probes = probes();

        let before = obs::snapshot();
        let mut scalar = Vec::new();
        for q in &probes {
            scalar.push(f.estimate(q));
        }
        let scalar_delta = obs::snapshot().delta(&before);

        let before = obs::snapshot();
        let mut out = Vec::new();
        f.estimate_batch_kernel(&probes, &mut out);
        let kernel_delta = obs::snapshot().delta(&before);

        assert_eq!(kernel_delta.get(obs::Counter::BatchKernelCalls), 1);
        // The kernel takes the same hull-gate decisions as the scalar walk,
        // one per (node, active query) with a non-intersecting hull.
        assert_eq!(
            kernel_delta.get(obs::Counter::HullGatePrunes),
            scalar_delta.get(obs::Counter::HullGatePrunes),
            "hull-gate accounting diverged between kernel and scalar"
        );
        assert!(kernel_delta.get(obs::Counter::BatchLanesPruned) > 0);
    }

    #[test]
    fn dispatch_routes_small_batches_to_scalar_and_large_to_kernel() {
        obs::force_metrics(true);
        let h = trained();
        let f = h.freeze();
        let probes = probes();
        let mut out = Vec::new();

        let before = obs::snapshot();
        f.estimate_batch(&probes[..super::KERNEL_MIN_BATCH - 1], &mut out);
        assert_eq!(
            obs::snapshot().delta(&before).get(obs::Counter::BatchKernelCalls),
            0,
            "tiny batch should take the scalar fallback"
        );
        assert_eq!(out.len(), super::KERNEL_MIN_BATCH - 1);

        let before = obs::snapshot();
        f.estimate_batch(&probes, &mut out);
        assert_eq!(
            obs::snapshot().delta(&before).get(obs::Counter::BatchKernelCalls),
            1,
            "full batch should take the kernel"
        );
        assert_eq!(out.len(), probes.len());
    }
}
