//! Epoch-stamped snapshot publication: the read/write split's hinge.
//!
//! A trainer thread owns the mutable histogram and periodically *freezes*
//! it into an immutable snapshot; serving threads answer estimate batches
//! from whatever snapshot is current. [`SnapshotCell`] is the hand-off
//! point: `publish` swaps in a new [`Arc`]-held snapshot and bumps a
//! monotone epoch, `load` hands back a [`SnapshotGuard`] that pins one
//! coherent snapshot for as long as the reader keeps it.
//!
//! Readers never observe a torn value: the swap replaces the whole `Arc`
//! under a briefly-held lock, so a guard is always an entire snapshot
//! published by exactly one `publish` call, stamped with that publish's
//! epoch. Epochs start at 1 for the initial value and increase by 1 per
//! publish, so a reader can cheaply detect "the histogram moved under me"
//! by comparing guard epochs across loads.
//!
//! The cell is safe `std`-only code (`RwLock<Arc<T>>` plus an `AtomicU64`),
//! not a lock-free pointer swap: the critical sections are a pointer-sized
//! assignment and an `Arc` clone, so contention is negligible next to the
//! estimate batches the readers run between loads. Both operations feed
//! the [`obs`] counters (`snapshot_publishes` / `snapshot_loads`) so serve
//! loops can be audited like every other subsystem.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::obs::{self, Counter};

/// A single-slot publication cell: one writer replaces the value, many
/// readers pin it. See the module docs for the protocol.
#[derive(Debug)]
pub struct SnapshotCell<T> {
    slot: RwLock<Arc<T>>,
    epoch: AtomicU64,
}

/// A loaded snapshot: derefs to `T` and remembers the epoch of the
/// `publish` that installed it. Holding a guard keeps that snapshot alive
/// (via `Arc`) even after later publishes replace it in the cell.
#[derive(Debug)]
pub struct SnapshotGuard<T> {
    snap: Arc<T>,
    epoch: u64,
}

impl<T> SnapshotCell<T> {
    /// Creates a cell holding `initial` at epoch 1.
    pub fn new(initial: T) -> Self {
        Self { slot: RwLock::new(Arc::new(initial)), epoch: AtomicU64::new(1) }
    }

    /// Publishes a new snapshot, returning its epoch. Readers that `load`
    /// afterwards see the new value; guards already handed out keep the
    /// old one.
    pub fn publish(&self, value: T) -> u64 {
        // The epoch bump happens while the write lock is held so that a
        // reader's (value, epoch) pair is always consistent: `load` reads
        // the epoch under the read lock, and the lock orders it against
        // both stores here.
        let mut slot = lock_write(&self.slot);
        *slot = Arc::new(value);
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        obs::incr(Counter::SnapshotPublishes);
        epoch
    }

    /// Pins the current snapshot. Cost: a read lock held for one `Arc`
    /// clone plus an atomic load.
    pub fn load(&self) -> SnapshotGuard<T> {
        let (snap, epoch) = {
            let slot = lock_read(&self.slot);
            (Arc::clone(&slot), self.epoch.load(Ordering::Acquire))
        };
        obs::incr(Counter::SnapshotLoads);
        SnapshotGuard { snap, epoch }
    }

    /// Pins the current snapshot only if it is newer than `seen` — the
    /// pin-caching primitive for serving engines that hold one guard
    /// across many batches. Returns `None` when the cell's epoch still
    /// equals `seen`, meaning the caller's cached guard is current (the
    /// epoch is monotone, so equality is the only "unchanged" case).
    /// Epochs start at 1, so `seen = 0` never matches and doubles as the
    /// "nothing cached yet" sentinel.
    ///
    /// The unlocked epoch read can race a concurrent publish; both
    /// outcomes are sound. Seeing the old epoch returns `None` — exactly
    /// what an ordinary `load` a moment earlier would have pinned. Seeing
    /// the new epoch falls through to [`SnapshotCell::load`], which reads
    /// the (value, epoch) pair coherently under the lock.
    pub fn load_if_newer(&self, seen: u64) -> Option<SnapshotGuard<T>> {
        if self.epoch.load(Ordering::Acquire) == seen {
            return None;
        }
        Some(self.load())
    }

    /// The epoch of the most recent publish (1 if none yet).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

impl<T> SnapshotGuard<T> {
    /// The epoch of the `publish` that installed this snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl<T> Deref for SnapshotGuard<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.snap
    }
}

impl<T> Clone for SnapshotGuard<T> {
    fn clone(&self) -> Self {
        Self { snap: Arc::clone(&self.snap), epoch: self.epoch }
    }
}

// Lock poisoning only happens if a holder panicked; the slot itself is
// never left half-written (the swap is a single `Arc` assignment), so the
// value is still coherent and the cell keeps serving.
fn lock_write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn lock_read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn initial_value_is_epoch_one() {
        let cell = SnapshotCell::new(42u32);
        assert_eq!(cell.epoch(), 1);
        let g = cell.load();
        assert_eq!(*g, 42);
        assert_eq!(g.epoch(), 1);
    }

    #[test]
    fn publish_bumps_epoch_and_replaces_value() {
        let cell = SnapshotCell::new(vec![1, 2, 3]);
        let before = cell.load();
        assert_eq!(cell.publish(vec![4, 5]), 2);
        assert_eq!(cell.publish(vec![6]), 3);
        let after = cell.load();
        assert_eq!(*after, vec![6]);
        assert_eq!(after.epoch(), 3);
        // The old guard still pins the old snapshot.
        assert_eq!(*before, vec![1, 2, 3]);
        assert_eq!(before.epoch(), 1);
    }

    #[test]
    fn load_if_newer_only_repins_on_epoch_movement() {
        let cell = SnapshotCell::new(10u32);
        // Sentinel 0 always pins.
        let g = cell.load_if_newer(0).expect("sentinel must pin");
        assert_eq!((*g, g.epoch()), (10, 1));
        // Current epoch: cache hit, no guard.
        assert!(cell.load_if_newer(g.epoch()).is_none());
        // A publish moves the epoch: the stale cache must be replaced.
        cell.publish(20);
        let g2 = cell.load_if_newer(g.epoch()).expect("stale cache must repin");
        assert_eq!((*g2, g2.epoch()), (20, 2));
        assert!(cell.load_if_newer(2).is_none());
    }

    #[test]
    fn guards_outlive_publishes_and_clone() {
        let cell = SnapshotCell::new(String::from("a"));
        let g1 = cell.load();
        cell.publish(String::from("b"));
        let g2 = g1.clone();
        assert_eq!(&*g2, "a");
        assert_eq!(g2.epoch(), g1.epoch());
    }

    #[test]
    fn concurrent_readers_never_see_torn_snapshots() {
        // Each published snapshot is a vector whose entries all equal its
        // epoch; a torn read would mix entries from two publishes.
        let cell = SnapshotCell::new(vec![1u64; 64]);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                for e in 2..200u64 {
                    let got = cell.publish(vec![e; 64]);
                    assert_eq!(got, e);
                }
                done.store(true, Ordering::Release);
            });
            let mut handles = Vec::new();
            for _ in 0..4 {
                handles.push(s.spawn(|| {
                    let mut last_epoch = 0;
                    let mut loads = 0u64;
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let g = cell.load();
                        assert!(
                            g.iter().all(|&v| v == g.epoch()),
                            "torn snapshot at epoch {}",
                            g.epoch()
                        );
                        assert!(g.epoch() >= last_epoch, "epoch went backwards");
                        last_epoch = g.epoch();
                        loads += 1;
                        if finished {
                            break;
                        }
                    }
                    (last_epoch, loads)
                }));
            }
            writer.join().unwrap();
            for h in handles {
                let (last_epoch, loads) = h.join().unwrap();
                // The drain load after `done` necessarily saw the final
                // publish.
                assert_eq!(last_epoch, 199);
                assert!(loads >= 1);
            }
        });
    }
}
