//! Property tests for binary persistence: any trained histogram survives a
//! roundtrip bit for bit and continues to learn afterwards, and the one
//! decoder is total over hostile bytes (truncated, flipped, or with forged
//! length or link fields): it returns `Err` or a histogram that passes
//! `check_invariants` (a rooted, acyclic bucket tree), and never panics.

use sth_platform::check::prelude::*;
use sth_data::Dataset;
use sth_geometry::Rect;
use sth_histogram::StHoles;
use sth_index::ScanCounter;
use sth_query::{CardinalityEstimator, SelfTuning};

fn dataset(points: &[(f64, f64)]) -> Dataset {
    let xs = points.iter().map(|p| p.0).collect();
    let ys = points.iter().map(|p| p.1).collect();
    Dataset::from_columns("prop", Rect::cube(2, 0.0, 100.0), vec![xs, ys])
}

fn query_strategy() -> impl Strategy<Value = Rect> {
    (0.0f64..90.0, 0.0f64..90.0, 1.0f64..50.0, 1.0f64..50.0).prop_map(|(x, y, w, h)| {
        Rect::from_bounds(&[x, y], &[(x + w).min(100.0), (y + h).min(100.0)])
    })
}

fn trained(points: &[(f64, f64)], queries: &[Rect], budget: usize) -> StHoles {
    let ds = dataset(points);
    let counter = ScanCounter::new(&ds);
    let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), budget, ds.len() as f64);
    for q in queries {
        h.refine(q, &counter);
    }
    h
}

/// Byte offsets of the `u32` fields of a 2-d image, as `(counts, links)`.
/// Counts: the non-root bucket count, the slot count, each live slot's
/// child count, and the free-list count. Links: the root, each live
/// slot's parent and child ids, and the free-list entries. Walks the
/// `STI1` layout: a 58-byte header (magic, version, ndim, domain,
/// config), root, non-root count, frozen flag, slot count, then per slot
/// a tag and, when live, rect + freq + parent + children.
fn u32_fields(image: &[u8]) -> (Vec<usize>, Vec<usize>) {
    let u32_at = |at: usize| u32::from_le_bytes(image[at..at + 4].try_into().unwrap()) as usize;
    let (mut counts, mut links) = (vec![62, 67], vec![58]);
    let mut at = 71;
    for _ in 0..u32_at(67) {
        let live = image[at] == 1;
        at += 1;
        if live {
            at += 32 + 8;
            links.push(at);
            at += 4;
            counts.push(at);
            let children = u32_at(at);
            at += 4;
            links.extend((0..children).map(|k| at + 4 * k));
            at += 4 * children;
        }
    }
    counts.push(at);
    let free = u32_at(at);
    at += 4;
    links.extend((0..free).map(|k| at + 4 * k));
    assert_eq!(at + 4 * free, image.len(), "layout walk lost sync");
    (counts, links)
}

check! {
    cases = 48;

    #[test]
    fn roundtrip_is_bit_identical(
        points in collection::vec((0.0f64..100.0, 0.0f64..100.0), 10..120),
        queries in collection::vec(query_strategy(), 0..25),
        probes in collection::vec(query_strategy(), 1..10),
        budget in 1usize..15,
    ) {
        let h = trained(&points, &queries, budget);
        let bytes = h.to_bytes();
        let back = StHoles::from_bytes(&bytes).expect("decode");
        prop_assert!(back.check_invariants().is_ok());
        prop_assert_eq!(back.bucket_count(), h.bucket_count());
        prop_assert_eq!(back.golden_hash(), h.golden_hash());
        for p in &probes {
            prop_assert_eq!(h.estimate(p).to_bits(), back.estimate(p).to_bits());
        }
        // Re-encoding the decoded histogram reproduces the image exactly.
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn decoded_histogram_keeps_learning_soundly(
        points in collection::vec((0.0f64..100.0, 0.0f64..100.0), 10..80),
        pre in collection::vec(query_strategy(), 0..10),
        post in collection::vec(query_strategy(), 1..10),
    ) {
        let ds = dataset(&points);
        let counter = ScanCounter::new(&ds);
        let mut back = StHoles::from_bytes(&trained(&points, &pre, 8).to_bytes()).expect("decode");
        for q in &post {
            back.refine(q, &counter);
            prop_assert!(back.check_invariants().is_ok());
        }
    }

    #[test]
    fn hostile_bytes_decode_to_err_or_a_valid_histogram(
        points in collection::vec((0.0f64..100.0, 0.0f64..100.0), 10..80),
        queries in collection::vec(query_strategy(), 0..20),
        budget in 1usize..12,
        cut in 0.0f64..1.0,
        flips in collection::vec((0.0f64..1.0, 1u8..=255), 1..4),
        forge in (0usize..64, 0usize..6, 0u32..u32::MAX, 0usize..256, 0u32..64),
    ) {
        let bytes = trained(&points, &queries, budget).to_bytes();
        let len = bytes.len();

        // Any strict prefix is incomplete.
        let prefix = &bytes[..(cut * len as f64) as usize];
        prop_assert!(
            StHoles::from_bytes(prefix).is_err(),
            "accepted a {}-byte prefix",
            prefix.len()
        );

        let mut flipped = bytes.clone();
        for &(at, mask) in &flips {
            flipped[((at * len as f64) as usize).min(len - 1)] ^= mask;
        }

        // Overwrite one count field with an off-by-one, zero, or huge value.
        let (counts, links) = u32_fields(&bytes);
        let (pick, kind, random, relink_pick, relink_target) = forge;
        let at = counts[pick % counts.len()];
        let real = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let forged_value = match kind {
            0 => 0,
            1 => real.wrapping_sub(1),
            2 => real.wrapping_add(1),
            3 => u32::MAX,
            4 => 1 << 24,
            _ => random,
        };
        let mut forged = bytes.clone();
        forged[at..at + 4].copy_from_slice(&forged_value.to_le_bytes());

        // Point one link (root, parent, child or free entry) at another
        // slot, one past the last slot, or "no parent".
        let slot_count = u32::from_le_bytes(bytes[67..71].try_into().unwrap());
        let at = links[relink_pick % links.len()];
        let target =
            if relink_target == 0 { u32::MAX } else { relink_target % (slot_count + 1) };
        let mut relinked = bytes.clone();
        relinked[at..at + 4].copy_from_slice(&target.to_le_bytes());

        for hostile in [&flipped, &forged, &relinked] {
            if let Ok(h) = StHoles::from_bytes(hostile) {
                prop_assert!(h.check_invariants().is_ok(), "decoded an invalid histogram");
            }
        }
    }
}
