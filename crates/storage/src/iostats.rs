//! Exact I/O accounting.
//!
//! All of the paper's evaluation metrics derive from I/O counts, so the
//! counters here are the primary measurement instrument of the whole
//! reproduction. Counters are atomic: reads may race with writes/compaction
//! and the experiment harness snapshots them around operation batches.

use std::sync::atomic::{AtomicU64, Ordering};

/// What a counted sync made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncKind {
    /// A sealed run's pages.
    Run,
    /// A WAL segment's records: a group commit's, or a seal's.
    Wal,
    /// The manifest's temporary file, before the rename installs it.
    Manifest,
    /// A directory's names: the runs a manifest is about to name, or a
    /// renamed manifest or a new WAL segment in the shard's directory.
    Dir,
}

/// Live, shared I/O counters for one [`crate::Disk`] and the WAL and
/// manifest of the store it belongs to.
#[derive(Debug, Default)]
pub struct IoStats {
    page_reads: AtomicU64,
    page_writes: AtomicU64,
    seeks: AtomicU64,
    cache_hits: AtomicU64,
    syncs: [AtomicU64; 4],
}

impl IoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` page reads (random or sequential).
    #[inline]
    pub fn add_reads(&self, n: u64) {
        self.page_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` page writes.
    #[inline]
    pub fn add_writes(&self, n: u64) {
        self.page_writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one seek (the start of a random access or a scan).
    #[inline]
    pub fn add_seek(&self) {
        self.seeks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a block-cache hit (a read served without an I/O).
    #[inline]
    pub fn add_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one sync of `kind`.
    #[inline]
    pub fn add_sync(&self, kind: SyncKind) {
        self.syncs[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        let syncs = |kind: SyncKind| self.syncs[kind as usize].load(Ordering::Relaxed);
        IoSnapshot {
            page_reads: self.page_reads.load(Ordering::Relaxed),
            page_writes: self.page_writes.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            run_syncs: syncs(SyncKind::Run),
            wal_syncs: syncs(SyncKind::Wal),
            manifest_syncs: syncs(SyncKind::Manifest),
            dir_syncs: syncs(SyncKind::Dir),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.page_reads.store(0, Ordering::Relaxed);
        self.page_writes.store(0, Ordering::Relaxed);
        self.seeks.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        for syncs in &self.syncs {
            syncs.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of the counters. Subtract two snapshots to get the
/// I/O cost of the operations between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Pages read from the backend (cache misses included, hits excluded).
    pub page_reads: u64,
    /// Pages written to the backend.
    pub page_writes: u64,
    /// Random repositionings (one per point read or scan start).
    pub seeks: u64,
    /// Reads absorbed by the block cache (not I/Os).
    pub cache_hits: u64,
    /// Runs sealed ([`SyncKind::Run`]).
    pub run_syncs: u64,
    /// WAL segment syncs ([`SyncKind::Wal`]).
    pub wal_syncs: u64,
    /// Manifest syncs ([`SyncKind::Manifest`]).
    pub manifest_syncs: u64,
    /// Directory syncs ([`SyncKind::Dir`]).
    pub dir_syncs: u64,
}

impl IoSnapshot {
    /// Counter-wise difference `self - earlier`. Saturates at zero so a
    /// reset between snapshots cannot underflow.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            page_reads: self.page_reads.saturating_sub(earlier.page_reads),
            page_writes: self.page_writes.saturating_sub(earlier.page_writes),
            seeks: self.seeks.saturating_sub(earlier.seeks),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            run_syncs: self.run_syncs.saturating_sub(earlier.run_syncs),
            wal_syncs: self.wal_syncs.saturating_sub(earlier.wal_syncs),
            manifest_syncs: self.manifest_syncs.saturating_sub(earlier.manifest_syncs),
            dir_syncs: self.dir_syncs.saturating_sub(earlier.dir_syncs),
        }
    }

    /// Counter-wise sum — a store's I/O across its shards' disks.
    pub fn merge(&mut self, other: &IoSnapshot) {
        self.page_reads += other.page_reads;
        self.page_writes += other.page_writes;
        self.seeks += other.seeks;
        self.cache_hits += other.cache_hits;
        self.run_syncs += other.run_syncs;
        self.wal_syncs += other.wal_syncs;
        self.manifest_syncs += other.manifest_syncs;
        self.dir_syncs += other.dir_syncs;
    }

    /// Total I/Os: page reads plus page writes (seeks are attributes of
    /// those I/Os, not extra transfers; syncs move no page).
    pub fn total_ios(&self) -> u64 {
        self.page_reads + self.page_writes
    }
}

impl std::ops::Sub for IoSnapshot {
    type Output = IoSnapshot;
    fn sub(self, rhs: IoSnapshot) -> IoSnapshot {
        self.since(&rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.add_reads(3);
        s.add_writes(2);
        s.add_seek();
        s.add_cache_hit();
        s.add_sync(SyncKind::Wal);
        s.add_sync(SyncKind::Dir);
        s.add_sync(SyncKind::Dir);
        let snap = s.snapshot();
        assert_eq!(snap.page_reads, 3);
        assert_eq!(snap.page_writes, 2);
        assert_eq!(snap.seeks, 1);
        assert_eq!(snap.cache_hits, 1);
        let syncs = [snap.run_syncs, snap.wal_syncs, snap.manifest_syncs];
        assert_eq!((syncs, snap.dir_syncs), ([0, 1, 0], 2));
        assert_eq!(snap.total_ios(), 5, "syncs are not page I/Os");
    }

    #[test]
    fn snapshot_diff() {
        let s = IoStats::new();
        s.add_reads(10);
        let a = s.snapshot();
        s.add_reads(5);
        s.add_writes(7);
        let b = s.snapshot();
        let d = b - a;
        assert_eq!(d.page_reads, 5);
        assert_eq!(d.page_writes, 7);
    }

    #[test]
    fn diff_saturates_after_reset() {
        let s = IoStats::new();
        s.add_reads(10);
        let a = s.snapshot();
        s.reset();
        s.add_reads(2);
        let d = s.snapshot() - a;
        assert_eq!(d.page_reads, 0, "saturating, not wrapping");
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::new();
        s.add_reads(1);
        s.add_writes(1);
        s.add_seek();
        s.add_cache_hit();
        s.add_sync(SyncKind::Run);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn concurrent_increments_do_not_lose_counts() {
        let s = Arc::new(IoStats::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        s.add_reads(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.snapshot().page_reads, 80_000);
    }
}
