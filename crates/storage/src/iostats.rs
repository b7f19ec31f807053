//! Exact I/O accounting.
//!
//! All of the paper's evaluation metrics derive from I/O counts, so the
//! counters here are the primary measurement instrument of the whole
//! reproduction. Counters are atomic: reads may race with writes/compaction
//! and the experiment harness snapshots them around operation batches.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live, shared I/O counters for one [`crate::Disk`].
#[derive(Debug, Default)]
pub struct IoStats {
    page_reads: AtomicU64,
    page_writes: AtomicU64,
    seeks: AtomicU64,
    cache_hits: AtomicU64,
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

    /// Takes a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            page_reads: self.page_reads.load(Ordering::Relaxed),
            page_writes: self.page_writes.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.page_reads.store(0, Ordering::Relaxed);
        self.page_writes.store(0, Ordering::Relaxed);
        self.seeks.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
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
        }
    }

    /// Counter-wise sum — a store's I/O across its shards' disks.
    pub fn merge(&mut self, other: &IoSnapshot) {
        self.page_reads += other.page_reads;
        self.page_writes += other.page_writes;
        self.seeks += other.seeks;
        self.cache_hits += other.cache_hits;
    }

    /// Total I/Os: reads plus writes (seeks are attributes of those I/Os,
    /// not extra transfers).
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
        let snap = s.snapshot();
        assert_eq!(snap.page_reads, 3);
        assert_eq!(snap.page_writes, 2);
        assert_eq!(snap.seeks, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.total_ios(), 5);
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
