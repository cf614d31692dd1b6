//! Reusable refine-path scratch buffers.
//!
//! Steady-state refinement (drill + compact on a warm histogram) must not
//! allocate. Every hot loop therefore borrows its temporary storage from a
//! single [`RefineScratch`] owned by `StHoles`. The ownership rule:
//!
//! * the scratch belongs to the *live* histogram only — `Clone` and
//!   persistence skip it (a clone starts with a fresh, empty scratch);
//! * buffers are cleared by the *user* at the start of each use, never by
//!   the producer, so capacity survives across queries;
//! * no scratch contents are ever read across public API calls — they are
//!   dead storage between calls.

use crate::arena::BucketId;

/// Reusable buffers for the refine hot path. Contents are meaningless
/// between operations; only the allocated capacity matters.
#[derive(Debug, Default)]
pub(crate) struct RefineScratch {
    /// DFS stack for tree traversals.
    pub stack: Vec<BucketId>,
    /// Snapshot of buckets intersecting the current query.
    pub targets: Vec<BucketId>,
    /// Children captured by a candidate hole / merged sibling box.
    pub participants: Vec<BucketId>,
    /// Children still able to force a shrink of the candidate hole.
    pub shrink_cands: Vec<BucketId>,
    /// Per-child box volumes for the merge planner (children order).
    pub child_vols: Vec<f64>,
    /// Per-child own-region volumes for the merge planner (children order).
    pub child_owns: Vec<f64>,
    /// Candidate sibling pairs as positions into the children list.
    pub pairs: Vec<(u32, u32)>,
    /// (penalty lower bound, index into `pairs`): the order in which the
    /// sibling search evaluates candidate pairs.
    pub pair_order: Vec<(f64, u32)>,
    /// (hull growth, i, j) triples for sibling-pair pruning.
    pub pair_buf: Vec<(f64, u32, u32)>,
    /// Low corner of the tentative merged sibling box.
    pub bn_lo: Vec<f64>,
    /// High corner of the tentative merged sibling box.
    pub bn_hi: Vec<f64>,
    /// Participant positions for the sibling penalty evaluation.
    pub sib_parts: Vec<u32>,
    /// Child positions sorted by dim-0 lower edge — the sweep order that
    /// lets the sibling extension loop stop at the first child starting
    /// past the tentative box.
    pub x_order: Vec<u32>,
    /// Children not yet absorbed by the tentative merged box — the
    /// extension loop's shrinking worklist.
    pub active: Vec<u32>,
    /// Slot-indexed child positions while a parent's fixpoint cache is
    /// checked against its current children.
    pub pos_of: Vec<u32>,
    /// Packed boxes of the children added or removed since that cache was
    /// filled.
    pub changed: Vec<f64>,
    /// Per child: its position when that cache was filled if unchanged
    /// since, else `u32::MAX`.
    pub prev_pos: Vec<u32>,
    /// Per hull-table slot: the current position of the child holding it.
    pub slot_pos: Vec<u32>,
    /// Positions of the children whose hull-table rows are recomputed.
    pub fresh: Vec<u32>,
}
