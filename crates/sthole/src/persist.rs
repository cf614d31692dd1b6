//! Binary persistence for [`StHoles`]: one codec, the verbatim process
//! image (`STI1`).
//!
//! Query optimizers keep their synopses in the catalog, and the durable
//! store (`sth-store`) keeps one per snapshot generation; both use
//! [`StHoles::to_bytes`] / [`StHoles::from_bytes`]. The approved offline
//! crate set has no serde *format* crate, so the codec is hand-rolled
//! little-endian on the primitives of [`sth_platform::codec`].
//!
//! ## Why verbatim
//!
//! A self-tuning histogram is state that query feedback keeps refining,
//! so the one property a persisted histogram must keep is **replay
//! determinism**: decode, then refine, must equal refining the original.
//! The merge search breaks penalty ties in ascending *slot* order, and
//! zero-penalty ties between empty buckets are common — so an encoding
//! that renumbered arena slots could legally pick a different (equally
//! cheap) merge than the original process would have, and the two states
//! would drift apart bit by bit from there.
//!
//! The image therefore captures the arena **verbatim**: every slot in
//! place (freed slots included, as explicit gaps), the free list in pop
//! order, children lists in order, plus config, root, domain and the
//! frozen flag. Decoding reconstructs the exact process state, including
//! every future tie-breaking decision — the property `sth-store` proves
//! with crash-at-every-offset golden-hash tests. Pure acceleration state
//! (merge heaps, scratch buffers, cached hulls) is *not* stored: it is
//! rebuilt lazily and contractually changes no results (`best_merge` ≡
//! `best_merge_exhaustive`, hulls only prune).
//!
//! ## Golden hash
//!
//! Identity checks want the opposite of verbatim: two histograms with the
//! same logical tree should compare equal whatever their slot history.
//! [`StHoles::golden_hash`] is FNV-1a over a *canonical* pre-order stream
//! (buckets renumbered in pre-order), which is hashed and never decoded.
//! Its layout, `STH1` tag included, is fixed: golden values are pinned by
//! tests and recorded in every durable store's manifest and snapshot
//! headers, so any change to the stream would orphan them.

use std::fmt;

use sth_geometry::Rect;
use sth_platform::codec::{ByteReader, ByteWriter, CodecError};
use sth_query::SelfTuning;

use crate::{Bucket, BucketArena, BucketId, MergePolicy, StHoles, SthConfig};

const MAGIC: &[u8; 4] = b"STI1";
/// Tag of the canonical pre-order stream behind [`StHoles::golden_hash`].
const CANONICAL_MAGIC: &[u8; 4] = b"STH1";
const VERSION: u8 = 1;

/// Largest slot count the decoder accepts; guards allocation against
/// hostile length fields.
const MAX_SLOTS: usize = 1 << 24;

/// Errors produced by [`StHoles::from_bytes`].
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input does not start with the expected magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Input ended prematurely or contained malformed values.
    Corrupt(&'static str),
}

impl From<CodecError> for DecodeError {
    fn from(e: CodecError) -> Self {
        DecodeError::Corrupt(e.what())
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not an STHoles histogram (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported histogram version {v}"),
            DecodeError::Corrupt(what) => write!(f, "corrupt histogram encoding: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_rect(out: &mut ByteWriter, r: &Rect) {
    for d in 0..r.ndim() {
        out.f64(r.lo()[d]);
        out.f64(r.hi()[d]);
    }
}

fn get_rect(r: &mut ByteReader<'_>, dim: usize) -> Result<Rect, DecodeError> {
    let mut lo = vec![0.0; dim];
    let mut hi = vec![0.0; dim];
    for d in 0..dim {
        lo[d] = r.finite_f64("non-finite bound")?;
        hi[d] = r.finite_f64("non-finite bound")?;
    }
    Rect::new(&lo, &hi).map_err(|_| DecodeError::Corrupt("invalid rectangle"))
}

/// Writes the header both streams share: magic, version, domain, config.
fn put_header(out: &mut ByteWriter, magic: &[u8; 4], hist: &StHoles) {
    out.bytes(magic);
    out.u8(VERSION);
    out.u32(hist.domain().ndim() as u32);
    put_rect(out, hist.domain());
    out.u32(hist.config.budget as u32);
    out.f64(hist.config.min_hole_volume_frac);
    out.u8(match hist.config.merge_policy {
        MergePolicy::All => 0,
        MergePolicy::ParentChildOnly => 1,
        MergePolicy::SiblingFirst => 2,
    });
    out.u32(hist.config.sibling_neighbor_cap.map_or(u32::MAX, |c| c as u32));
}

/// Reads what [`put_header`] wrote under [`MAGIC`].
fn get_header(r: &mut ByteReader<'_>) -> Result<(Rect, SthConfig), DecodeError> {
    if r.take(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let dim = r.u32()? as usize;
    if dim == 0 || dim > 1024 {
        return Err(DecodeError::Corrupt("implausible dimensionality"));
    }
    let domain = get_rect(r, dim)?;
    let budget = r.u32()? as usize;
    let min_hole_volume_frac = r.finite_f64("non-finite config value")?;
    let merge_policy = match r.u8()? {
        0 => MergePolicy::All,
        1 => MergePolicy::ParentChildOnly,
        2 => MergePolicy::SiblingFirst,
        _ => return Err(DecodeError::Corrupt("unknown merge policy")),
    };
    let cap = r.u32()?;
    let sibling_neighbor_cap = if cap == u32::MAX { None } else { Some(cap as usize) };
    Ok((domain, SthConfig { budget, min_hole_volume_frac, merge_policy, sibling_neighbor_cap }))
}

impl StHoles {
    /// Encodes the histogram as a verbatim process image: the exact arena
    /// slot layout, free list, and children order, so a decoded histogram
    /// replays future refinements bit-identically (see the module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let arena = self.arena();
        let mut out = ByteWriter::with_capacity(64 + 64 * arena.slot_count());
        put_header(&mut out, MAGIC, self);
        out.u32(self.root() as u32);
        out.u32(self.bucket_count() as u32);
        out.u8(self.frozen() as u8);

        out.u32(arena.slot_count() as u32);
        for i in 0..arena.slot_count() {
            match arena.slot(i) {
                None => out.u8(0),
                Some(b) => {
                    out.u8(1);
                    put_rect(&mut out, &b.rect);
                    out.f64(b.freq);
                    out.u32(b.parent.map_or(u32::MAX, |p| p as u32));
                    out.len_u32(b.children.len());
                    for &c in &b.children {
                        out.u32(c as u32);
                    }
                }
            }
        }
        out.len_u32(arena.free_list().len());
        for &f in arena.free_list() {
            out.u32(f as u32);
        }
        out.into_bytes()
    }

    /// 64-bit FNV-1a hash of the canonical pre-order encoding: the golden
    /// hash of the histogram's logical state. Two histograms hash equal
    /// iff their bucket trees (children order included), frequencies and
    /// configs are identical, whatever their arena slot history — the
    /// identity check behind the durable store's bit-identical recovery
    /// proof.
    pub fn golden_hash(&self) -> u64 {
        sth_platform::codec::fnv1a(&self.canonical_bytes())
    }

    /// The canonical stream behind [`StHoles::golden_hash`]: header, then
    /// the bucket tree in pre-order as `(parent index, rect, freq)` with
    /// ids renumbered to pre-order positions.
    fn canonical_bytes(&self) -> Vec<u8> {
        let arena = self.arena();
        let count = self.bucket_count() + 1;
        let mut out = ByteWriter::with_capacity(64 + 64 * count);
        put_header(&mut out, CANONICAL_MAGIC, self);
        out.u32(count as u32);
        let mut order: Vec<BucketId> = Vec::with_capacity(count);
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            order.push(id);
            stack.extend(arena.get(id).children.iter().rev());
        }
        let mut remap = vec![u32::MAX; arena.slot_count()];
        for (i, &id) in order.iter().enumerate() {
            remap[id] = i as u32;
        }
        for &id in &order {
            let b = arena.get(id);
            out.u32(b.parent.map_or(u32::MAX, |p| remap[p]));
            put_rect(&mut out, &b.rect);
            out.f64(b.freq);
        }
        out.into_bytes()
    }

    /// Decodes a histogram produced by [`StHoles::to_bytes`].
    ///
    /// Total over arbitrary bytes: every structural claim in the input
    /// (slot references, free-list entries, linkage, tree shape) is
    /// validated, ending with [`StHoles::check_invariants`], so corrupt
    /// input yields `Err`, never a panic or an inconsistent histogram.
    pub fn from_bytes(bytes: &[u8]) -> Result<StHoles, DecodeError> {
        let mut r = ByteReader::new(bytes);
        let (domain, config) = get_header(&mut r)?;
        let dim = domain.ndim();
        let root = r.u32()? as usize;
        let nonroot_count = r.u32()? as usize;
        let frozen = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(DecodeError::Corrupt("bad frozen flag")),
        };

        let slot_count = r.count_u32(MAX_SLOTS, "implausible slot count")?;
        let mut slots: Vec<Option<Bucket>> = Vec::with_capacity(slot_count);
        let mut live = 0usize;
        for _ in 0..slot_count {
            match r.u8()? {
                0 => slots.push(None),
                1 => {
                    let rect = get_rect(&mut r, dim)?;
                    let freq = r.finite_f64("non-finite frequency")?;
                    if freq < 0.0 {
                        return Err(DecodeError::Corrupt("negative frequency"));
                    }
                    let parent_raw = r.u32()?;
                    let parent = if parent_raw == u32::MAX {
                        None
                    } else {
                        Some(parent_raw as BucketId)
                    };
                    let n_children = r.count_u32(slot_count, "implausible child count")?;
                    let mut children = Vec::with_capacity(n_children);
                    for _ in 0..n_children {
                        children.push(r.u32()? as BucketId);
                    }
                    slots.push(Some(Bucket { rect, freq, parent, children }));
                    live += 1;
                }
                _ => return Err(DecodeError::Corrupt("bad slot tag")),
            }
        }
        let free_count = r.count_u32(slot_count, "implausible free count")?;
        let mut free = Vec::with_capacity(free_count);
        for _ in 0..free_count {
            free.push(r.u32()? as BucketId);
        }
        r.expect_exhausted()?;

        // Structural validation before arena assembly: every reference
        // must land on a slot of the right liveness, exactly once.
        if live + free.len() != slot_count {
            return Err(DecodeError::Corrupt("free list does not cover dead slots"));
        }
        let mut seen_free = vec![false; slot_count];
        for &f in &free {
            if f >= slot_count || slots[f].is_some() || seen_free[f] {
                return Err(DecodeError::Corrupt("bad free-list entry"));
            }
            seen_free[f] = true;
        }
        if live == 0 || root >= slot_count || slots[root].is_none() {
            return Err(DecodeError::Corrupt("missing root"));
        }
        if nonroot_count != live - 1 {
            return Err(DecodeError::Corrupt("bucket count mismatch"));
        }
        for (i, slot) in slots.iter().enumerate() {
            let Some(b) = slot else { continue };
            match b.parent {
                None if i != root => return Err(DecodeError::Corrupt("multiple roots")),
                Some(_) if i == root => return Err(DecodeError::Corrupt("root has a parent")),
                Some(p) if p >= slot_count || slots[p].is_none() => {
                    return Err(DecodeError::Corrupt("dangling parent reference"))
                }
                _ => {}
            }
            for &c in &b.children {
                if c >= slot_count || slots[c].as_ref().map(|cb| cb.parent) != Some(Some(i)) {
                    return Err(DecodeError::Corrupt("bad child reference"));
                }
            }
        }

        // Every index is now in range and every link is mutual, so the
        // arena can be assembled; `check_invariants` then walks the tree
        // from the root, refusing cycles and unreachable buckets.
        let arena = BucketArena::from_slots(slots, free);
        let mut hist = StHoles::assemble(arena, root, config, nonroot_count, domain);
        hist.set_frozen(frozen);
        hist.check_invariants().map_err(|_| DecodeError::Corrupt("invariant violation"))?;
        Ok(hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sth_index::{ResultSetCounter, ScanCounter};
    use sth_query::{CardinalityEstimator, WorkloadSpec};

    fn trained(queries: usize) -> (StHoles, sth_data::Dataset) {
        let ds = sth_data::cross::CrossSpec::cross2d().scaled(0.02).generate();
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(ds.domain().clone(), 12, ds.len() as f64);
        let wl = WorkloadSpec { count: queries, ..WorkloadSpec::paper(0.01, 4) }
            .generate(ds.domain(), None);
        for q in wl.queries() {
            h.refine(q.rect(), &counter);
        }
        (h, ds)
    }

    fn probes() -> [Rect; 4] {
        [
            Rect::from_bounds(&[0.0, 0.0], &[1000.0, 1000.0]),
            Rect::from_bounds(&[480.0, 100.0], &[520.0, 900.0]),
            Rect::from_bounds(&[100.0, 480.0], &[900.0, 520.0]),
            Rect::from_bounds(&[10.0, 10.0], &[50.0, 50.0]),
        ]
    }

    #[test]
    fn roundtrip_restores_exact_state() {
        let (h, _) = trained(80);
        let bytes = h.to_bytes();
        let back = StHoles::from_bytes(&bytes).unwrap();
        // Slot layout identical (bytes), logical state identical (golden),
        // and therefore estimates identical to the bit.
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.golden_hash(), h.golden_hash());
        assert_eq!(back.budget(), h.budget());
        for p in &probes() {
            assert_eq!(h.estimate(p).to_bits(), back.estimate(p).to_bits(), "mismatch on {p}");
        }
    }

    #[test]
    fn replay_after_roundtrip_is_bit_identical() {
        // The property the durable store stands on: decode then refine ≡
        // refine on the original, including merge tie-breaking. A small
        // budget over a low-density dataset forces plenty of zero-penalty
        // ties between empty buckets.
        let (mut h, ds) = trained(60);
        let mut back = StHoles::from_bytes(&h.to_bytes()).unwrap();
        let wl = WorkloadSpec { count: 60, ..WorkloadSpec::paper(0.012, 9) }
            .generate(ds.domain(), None);
        let mut result = ResultSetCounter::empty(ds.ndim());
        let scan = ScanCounter::new(&ds);
        for q in wl.queries() {
            assert!(result.refill_from_counter(&scan, q.rect()));
            let truth = sth_index::RangeCounter::total(&result) as f64;
            h.refine_with_truth(q.rect(), &result, truth);
            back.refine_with_truth(q.rect(), &result, truth);
            assert_eq!(h.to_bytes(), back.to_bytes(), "replay diverged at query {}", q.rect());
        }
        assert_eq!(h.golden_hash(), back.golden_hash());
        back.check_invariants().unwrap();
    }

    #[test]
    fn frozen_flag_survives_the_roundtrip() {
        let (mut h, _) = trained(20);
        h.set_frozen(true);
        let back = StHoles::from_bytes(&h.to_bytes()).unwrap();
        assert!(back.frozen());
    }

    #[test]
    fn decoded_histogram_keeps_learning() {
        let (h, ds) = trained(60);
        let counter = ScanCounter::new(&ds);
        let mut back = StHoles::from_bytes(&h.to_bytes()).unwrap();
        let q = Rect::from_bounds(&[200.0, 200.0], &[400.0, 400.0]);
        back.refine(&q, &counter);
        back.check_invariants().unwrap();
    }

    #[test]
    fn roundtrip_preserves_estimates() {
        // A non-default configuration must come back through the shared
        // header field for field, and the decoded histogram must estimate
        // exactly as the original does.
        let ds = sth_data::cross::CrossSpec::cross2d().scaled(0.02).generate();
        let counter = ScanCounter::new(&ds);
        let config = SthConfig {
            budget: 9,
            min_hole_volume_frac: 1e-4,
            merge_policy: MergePolicy::ParentChildOnly,
            sibling_neighbor_cap: Some(3),
        };
        let mut h = StHoles::with_config(ds.domain().clone(), config, ds.len() as f64);
        let wl = WorkloadSpec { count: 40, ..WorkloadSpec::paper(0.01, 6) }
            .generate(ds.domain(), None);
        for q in wl.queries() {
            h.refine(q.rect(), &counter);
        }
        let back = StHoles::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(back.domain(), h.domain());
        assert_eq!(back.config.budget, 9);
        assert_eq!(back.config.min_hole_volume_frac.to_bits(), 1e-4f64.to_bits());
        assert_eq!(back.config.merge_policy, MergePolicy::ParentChildOnly);
        assert_eq!(back.config.sibling_neighbor_cap, Some(3));
        assert_eq!(back.bucket_count(), h.bucket_count());
        for p in &probes() {
            assert_eq!(h.estimate(p).to_bits(), back.estimate(p).to_bits(), "mismatch on {p}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(StHoles::from_bytes(b"nope").unwrap_err(), DecodeError::BadMagic);
        assert_eq!(StHoles::from_bytes(b"STI1\x05").unwrap_err(), DecodeError::BadVersion(5));
        // The canonical stream is hashed, never decoded.
        let canonical = trained(10).0.canonical_bytes();
        assert_eq!(StHoles::from_bytes(&canonical).unwrap_err(), DecodeError::BadMagic);

        let mut truncated = trained(40).0.to_bytes();
        truncated.truncate(truncated.len() - 2);
        assert!(matches!(StHoles::from_bytes(&truncated).unwrap_err(), DecodeError::Corrupt(_)));
    }

    #[test]
    fn rejects_bitflips_gracefully() {
        // Any single-byte flip must decode to an error or a still-valid
        // histogram — never panic (the image has no whole-buffer CRC; the
        // store's section framing adds that layer on disk).
        let bytes = trained(40).0.to_bytes();
        for i in (0..bytes.len()).step_by(3) {
            let mut m = bytes.clone();
            m[i] ^= 0xFF;
            if let Ok(h) = StHoles::from_bytes(&m) {
                h.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn empty_histogram_roundtrip() {
        let h = StHoles::with_total(Rect::cube(3, 0.0, 10.0), 5, 42.0);
        let back = StHoles::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(back.bucket_count(), 0);
        assert_eq!(back.golden_hash(), h.golden_hash());
        assert!((back.estimate(&Rect::cube(3, 0.0, 10.0)) - 42.0).abs() < 1e-9);
    }

    #[test]
    fn frozen_roundtrip_is_bit_identical_estimates() {
        // Time travel freezes a decoded histogram; that snapshot must
        // answer exactly as a freeze of the original would.
        let (h, _) = trained(80);
        let f = h.freeze();
        let g = StHoles::from_bytes(&h.to_bytes()).unwrap().freeze();
        assert_eq!(g.node_count(), f.node_count());
        assert_eq!(g.golden_hash(), f.golden_hash());
        for p in &probes() {
            assert_eq!(g.estimate(p).to_bits(), f.estimate(p).to_bits(), "mismatch on {p}");
        }
    }

    /// The image `to_bytes` writes for an arena laid out as `links`
    /// (`(parent, children)` per slot, all buckets the full domain), so
    /// every link field is chosen by the test.
    fn forged_image(links: &[(Option<BucketId>, Vec<BucketId>)]) -> Vec<u8> {
        let domain = Rect::cube(2, 0.0, 100.0);
        let slots = links
            .iter()
            .map(|(parent, children)| {
                let (parent, children) = (*parent, children.clone());
                Some(Bucket { rect: domain.clone(), freq: 1.0, parent, children })
            })
            .collect();
        let forged = StHoles::assemble(
            BucketArena::from_slots(slots, Vec::new()),
            0,
            SthConfig::with_budget(8),
            links.len() - 1,
            domain,
        );
        assert!(forged.check_invariants().is_err(), "forgery must not be a bucket tree");
        forged.to_bytes()
    }

    #[test]
    fn cyclic_link_forgeries_are_refused() {
        // Every link is in range and mutual (a child's parent field names
        // the bucket listing it), so only the walk from the root tells
        // these apart from a tree; accepted, either would send `estimate`,
        // `golden_hash` and `freeze` into unbounded recursion or looping.
        let root_cycle = forged_image(&[(Some(1), vec![1]), (Some(0), vec![0])]);
        let detached_cycle =
            forged_image(&[(None, vec![]), (Some(2), vec![2]), (Some(1), vec![1])]);
        for image in [root_cycle, detached_cycle] {
            assert!(matches!(StHoles::from_bytes(&image), Err(DecodeError::Corrupt(_))));
        }
    }

    #[test]
    fn golden_hashes_and_frozen_estimates_ignore_slot_history() {
        // Relocate every bucket of a trained histogram to a different
        // arena slot (reversed slot order, free list remapped alike,
        // children order kept). The image changes; the logical tree does
        // not, so neither golden hash nor any frozen estimate may move.
        let (h, _) = trained(80);
        let arena = h.arena();
        let n = arena.slot_count();
        let at = |id: BucketId| n - 1 - id;
        let slots: Vec<Option<Bucket>> = (0..n)
            .rev()
            .map(|i| {
                arena.slot(i).map(|b| Bucket {
                    rect: b.rect.clone(),
                    freq: b.freq,
                    parent: b.parent.map(at),
                    children: b.children.iter().map(|&c| at(c)).collect(),
                })
            })
            .collect();
        let free = arena.free_list().iter().map(|&f| at(f)).collect();
        let moved = StHoles::assemble(
            BucketArena::from_slots(slots, free),
            at(h.root()),
            h.config.clone(),
            h.bucket_count(),
            h.domain().clone(),
        );
        moved.check_invariants().unwrap();
        assert_ne!(moved.to_bytes(), h.to_bytes(), "the permutation must move slots");

        assert_eq!(moved.golden_hash(), h.golden_hash());
        let (f, g) = (h.freeze(), moved.freeze());
        assert_eq!(g.golden_hash(), f.golden_hash());
        for p in &probes() {
            assert_eq!(g.estimate(p).to_bits(), f.estimate(p).to_bits(), "mismatch on {p}");
        }
    }
}
