//! Coalescing transparency for the serving engine: whatever the
//! coalescing cap groups into one `estimate_batch` call must answer
//! bit-identically to estimating each query alone against the same
//! pinned snapshot. The strategy range includes `coalesce = 1` (every
//! request served alone), so the property also pins the uncoalesced path
//! to the direct answers.

use sth_geometry::Rect;
use sth_platform::check::prelude::*;
use sth_platform::snap::SnapshotCell;
use sth_query::{CardinalityEstimator, SelfTuning};
use sth_serve::{run_open, CellBackend, EngineConfig};

/// A trained histogram plus an identical frozen copy for direct answers.
fn trained_frozen() -> (sth_histogram::FrozenHistogram, sth_histogram::FrozenHistogram) {
    let data = sth_data::cross::CrossSpec::cross2d().scaled(0.04).generate();
    let index = sth_index::KdCountTree::build(&data);
    let wl = sth_query::WorkloadSpec::paper(0.01, 11).generate(data.domain(), None);
    let mut hist = sth_core::build_uninitialized(&data, 48);
    for q in wl.queries().iter().take(50) {
        hist.refine(q.rect(), &index);
    }
    (hist.freeze(), hist.freeze())
}

check! {
    cases = 4;

    #[test]
    fn coalesced_batches_are_bit_identical_to_individual_answers(
        request_len in 1usize..7,
        coalesce in 1usize..129,
        threads in 1usize..4,
    ) {
        let (served, direct) = trained_frozen();
        let cell = SnapshotCell::new(served);
        let backend = CellBackend::new(std::slice::from_ref(&cell));
        let cfg = EngineConfig { threads, coalesce, deadline: None };
        let rects: Vec<Rect> = (0..48)
            .map(|i| {
                let lo = (i % 12) as f64 * 7.0;
                Rect::from_bounds(&[lo, lo * 0.4], &[lo + 16.0, lo * 0.4 + 22.0])
            })
            .collect();
        let (report, slots) = run_open(&backend, &cfg, true, |inj| {
            rects
                .chunks(request_len)
                .map(|chunk| inj.inject(0, chunk.to_vec()))
                .collect::<Vec<usize>>()
        });
        prop_assert_eq!(report.shed_total(), 0);
        prop_assert_eq!(report.answered_total(), rects.len() as u64);
        let results = report.results.expect("capture was on");
        for (chunk, &slot) in rects.chunks(request_len).zip(&slots) {
            for (k, q) in chunk.iter().enumerate() {
                prop_assert_eq!(
                    results[slot + k].to_bits(),
                    direct.estimate(q).to_bits(),
                    "slot {} drifted under coalesce={} threads={}",
                    slot + k,
                    coalesce,
                    threads
                );
            }
        }
    }
}
