//! Happy-path lifecycle: create → append → flush → reopen, generation
//! retention, time-travel reads, and fallback recovery when the newest
//! snapshot is damaged.

mod common;

use std::sync::Arc;

use sth_index::ScanCounter;
use sth_query::CardinalityEstimator;
use sth_store::vfs::{MemVfs, RealVfs, Vfs};
use sth_store::{DurableTrainer, Store, StoreConfig, StoreError};

use common::{cfg, dataset, fresh_hist, queries, record_run, DIR};

#[test]
fn clean_reopen_resumes_bit_identically() {
    let rec = record_run(14);
    let mem: Arc<MemVfs> = Arc::new(MemVfs::from_files(rec.files));
    let (trainer, report) = DurableTrainer::open(DIR, mem, cfg()).expect("open");
    assert_eq!(report.seq, rec.final_seq);
    assert!(!report.torn(), "clean shutdown must not report torn tails: {report:?}");
    assert!(!report.resealed);
    assert_eq!(report.snapshots_skipped, 0);
    assert_eq!(trainer.golden_hash(), rec.goldens[rec.final_seq as usize]);
}

#[test]
fn recovered_trainer_keeps_training_like_the_original() {
    // Reference: 20 queries in one uninterrupted run.
    let ds = dataset();
    let counter = ScanCounter::new(&ds);
    let all = queries(20);
    let mem = Arc::new(MemVfs::new());
    let mut reference =
        DurableTrainer::create(DIR, mem, cfg(), fresh_hist(&ds)).expect("create");
    for q in &all {
        reference.absorb(&q.clone(), &counter).expect("absorb");
    }

    // Same 20 queries with a stop-the-world reopen after 14.
    let rec = record_run(14);
    let mem = Arc::new(MemVfs::from_files(rec.files));
    let (mut resumed, _) = DurableTrainer::open(DIR, mem, cfg()).expect("open");
    for q in &all[14..] {
        resumed.absorb(q, &counter).expect("absorb");
    }
    assert_eq!(resumed.golden_hash(), reference.golden_hash());
    assert_eq!(resumed.seq(), reference.seq());
}

#[test]
fn retention_window_rotates_and_serves_time_travel() {
    let rec = record_run(14);
    let mem: Arc<MemVfs> = Arc::new(MemVfs::from_files(rec.files));
    let (trainer, _) = DurableTrainer::open(DIR, mem.clone(), cfg()).expect("open");
    // 14 queries at flush-every-4 → generations 1(create),2,3,4; retention
    // of 3 keeps {2,3,4} at sequences {4,8,12}.
    let gens: Vec<(u64, u64)> = trainer.store().generations().iter().map(|e| (e.gen, e.seq)).collect();
    assert_eq!(gens, vec![(2, 4), (3, 8), (4, 12)]);

    // Each retained generation time-travels to its flush point: its
    // frozen estimates match a fresh replay of the same prefix.
    let ds = dataset();
    let counter = ScanCounter::new(&ds);
    let qs = queries(14);
    let probes = queries(30);
    for &(gen, seq) in &gens {
        let frozen = Store::open_at_epoch(DIR, mem.as_ref(), gen).expect("open_at_epoch");
        let mut replay = fresh_hist(&ds);
        let mut result = sth_index::ResultSetCounter::empty(2);
        for q in &qs[..seq as usize] {
            use sth_index::RangeCounter;
            use sth_query::SelfTuning;
            assert!(result.refill_from_counter(&counter, q));
            let truth = result.total() as f64;
            replay.refine_with_truth(q, &result, truth);
        }
        let expect = replay.freeze();
        for p in &probes {
            assert_eq!(
                frozen.estimate(p).to_bits(),
                expect.estimate(p).to_bits(),
                "gen {gen} diverges at {p}"
            );
        }
    }

    // Rotated-out and unknown generations are refused.
    assert!(matches!(
        Store::open_at_epoch(DIR, mem.as_ref(), 1),
        Err(StoreError::UnknownGeneration(1))
    ));
    assert!(matches!(
        Store::open_at_epoch(DIR, mem.as_ref(), 99),
        Err(StoreError::UnknownGeneration(99))
    ));

    // Rotated-out files are actually gone from the directory.
    let names = mem.list(std::path::Path::new(DIR)).unwrap();
    assert!(!names.contains(&"snap-0000000001.sths".to_string()), "gen 1 not collected: {names:?}");
}

#[test]
fn time_travel_verifies_the_golden_hash_and_refuses_v1_snapshots() {
    use sth_platform::codec::{write_section, ByteWriter};
    use sth_store::snapshot;

    let rec = record_run(14);
    let mem: Arc<MemVfs> = Arc::new(MemVfs::from_files(rec.files));
    let snap = |gen: u64| std::path::Path::new(DIR).join(format!("snap-{gen:010}.sths"));

    // Generation 3 (seq 8) rewritten with generation 4's image under gen
    // 3's own header: every checksum is valid and the image decodes, but
    // it is not the state the header's golden hash names.
    let (_, newer) = snapshot::decode(&mem.read(&snap(4)).unwrap()).expect("decode gen 4");
    let wrong_state = snapshot::encode(&newer, 3, 8, rec.goldens[8]);
    mem.set(snap(3), wrong_state.clone());
    assert!(snapshot::decode(&wrong_state).is_err());
    match Store::open_at_epoch(DIR, mem.as_ref(), 3) {
        Err(StoreError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {:?}", other.err()),
    }

    // A v1-shaped snapshot (header, image, and a trailing frozen section)
    // is refused with an error, under its own version and under the
    // current one alike.
    let mut v1 = ByteWriter::new();
    v1.bytes(b"SSN1");
    v1.u8(1);
    let mut head = ByteWriter::new();
    head.u64(4);
    head.u64(12);
    head.u64(newer.golden_hash());
    write_section(&mut v1, b'H', head.as_bytes());
    write_section(&mut v1, b'I', &newer.to_bytes());
    write_section(&mut v1, b'F', b"frozen columns");
    let mut v1 = v1.into_bytes();
    assert!(snapshot::decode(&v1).is_err(), "v1 snapshot accepted");
    v1[4] = 2;
    assert!(snapshot::decode(&v1).is_err(), "three-section snapshot accepted");
    mem.set(snap(4), v1);
    match Store::open_at_epoch(DIR, mem.as_ref(), 4) {
        Err(StoreError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {:?}", other.err()),
    }
    // The untouched generation still time-travels.
    assert!(Store::open_at_epoch(DIR, mem.as_ref(), 2).is_ok());
}

#[test]
fn corrupt_newest_snapshot_falls_back_and_replays_forward() {
    let rec = record_run(14);
    let mem: Arc<MemVfs> = Arc::new(MemVfs::from_files(rec.files));
    // Damage the newest snapshot (gen 4).
    let snap4 = std::path::Path::new(DIR).join("snap-0000000004.sths");
    let mut bytes = mem.read(&snap4).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    mem.set(snap4, bytes);

    let (trainer, report) = DurableTrainer::open(DIR, mem, cfg()).expect("open");
    assert_eq!(report.loaded_gen, 3);
    assert_eq!(report.snapshots_skipped, 1);
    // gen 3 is at seq 8; segments 3 and 4 bridge back to 14.
    assert_eq!(report.replayed, 6);
    assert_eq!(report.seq, rec.final_seq);
    assert_eq!(trainer.golden_hash(), rec.goldens[rec.final_seq as usize]);
}

#[test]
fn every_snapshot_damaged_is_a_hard_corrupt_error() {
    let rec = record_run(14);
    let mem: Arc<MemVfs> = Arc::new(MemVfs::from_files(rec.files));
    for gen in [2u64, 3, 4] {
        let p = std::path::Path::new(DIR).join(format!("snap-{gen:010}.sths"));
        let mut bytes = mem.read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        mem.set(p, bytes);
    }
    match DurableTrainer::open(DIR, mem, cfg()) {
        Err(StoreError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {:?}", other.err()),
    }
}

#[test]
fn create_refuses_an_existing_store() {
    let rec = record_run(4);
    let mem: Arc<MemVfs> = Arc::new(MemVfs::from_files(rec.files));
    let ds = dataset();
    match DurableTrainer::create(DIR, mem, cfg(), fresh_hist(&ds)) {
        Err(StoreError::AlreadyExists) => {}
        other => panic!("expected AlreadyExists, got {:?}", other.err()),
    }
}

#[test]
fn real_filesystem_end_to_end() {
    let dir = std::env::temp_dir().join(format!("sth-store-lifecycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = dataset();
    let counter = ScanCounter::new(&ds);
    let vfs: Arc<dyn Vfs> = Arc::new(RealVfs);
    let cfg = StoreConfig { flush_every_deltas: 3, ..cfg() };
    let mut trainer =
        DurableTrainer::create(&dir, vfs.clone(), cfg.clone(), fresh_hist(&ds)).expect("create");
    for q in queries(10) {
        trainer.absorb(&q, &counter).expect("absorb");
    }
    let golden = trainer.golden_hash();
    drop(trainer);
    let (back, report) = DurableTrainer::open(&dir, vfs, cfg).expect("open");
    assert_eq!(report.seq, 10);
    assert_eq!(back.golden_hash(), golden);
    let _ = std::fs::remove_dir_all(&dir);
}
