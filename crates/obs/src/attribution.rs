//! Per-level I/O attribution.
//!
//! The storage layer only sees opaque run ids; the LSM layer knows which
//! tree level each run lives on. [`IoAttribution`] bridges the two: the
//! LSM tags runs with a level (at build time, and re-tags after version
//! installs, since leveling can carry a run down a level without
//! rewriting it), and the storage backend reports every page read/write
//! against the run id. Counters are plain relaxed atomics per level slot;
//! the run→level lookup takes a lock-free direct-mapped tag cache (one
//! relaxed load), falling back to an `RwLock`-ed map only on a cache
//! collision, so the per-page hot path is three relaxed atomic ops.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Level slots 1..=MAX_LEVELS hold attributed traffic; slot 0 collects
/// I/O on untagged runs (a run its level dropped while a reader still
/// held it). Levels deeper than the table clamp into the last slot.
pub const MAX_LEVELS: usize = 32;

/// Number of attribution slots: one unattributed slot plus `MAX_LEVELS`.
pub const LEVEL_SLOTS: usize = MAX_LEVELS + 1;

#[derive(Default)]
struct LevelIo {
    reads: AtomicU64,
    writes: AtomicU64,
    read_bytes: AtomicU64,
    write_bytes: AtomicU64,
    cache_hits: AtomicU64,
    cache_hit_bytes: AtomicU64,
}

/// Point-in-time copy of one level's I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelIoSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    /// Reads on this level's runs absorbed by the block cache (not I/Os;
    /// excluded from `reads`). Shows where cache capacity pays off.
    pub cache_hits: u64,
    pub cache_hit_bytes: u64,
}

impl LevelIoSnapshot {
    /// Field-wise sum — aggregates one level's I/O across shards.
    pub fn merge(&mut self, other: &LevelIoSnapshot) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
        self.cache_hits += other.cache_hits;
        self.cache_hit_bytes += other.cache_hit_bytes;
    }
}

/// Direct-mapped tag-cache size. Live runs number in the tens, so
/// collisions on `run % TAG_CACHE` are rare; a collision only means the
/// evicted run's I/O takes the locked-map slow path, never a wrong level.
const TAG_CACHE: usize = 256;

/// A tag-cache entry packs `(run << 8) | (level + 1)`; 0 is empty. Runs
/// with ids that would not survive the shift (≥ 2^56 — never reached by
/// a monotonic run counter) simply skip the cache.
#[inline]
fn pack_tag(run: u64, level: usize) -> Option<u64> {
    (run < 1 << 56).then(|| (run << 8) | (level as u64 + 1))
}

/// Maps run ids to levels and accumulates per-level read/write traffic.
pub struct IoAttribution {
    levels: [LevelIo; LEVEL_SLOTS],
    run_level: RwLock<HashMap<u64, usize>>,
    /// Lock-free fast path for [`IoAttribution::level_of`]: the per-page
    /// `on_read`/`on_write` hooks resolve a run's level with one relaxed
    /// load instead of an `RwLock` + `HashMap` probe. Kept in sync with
    /// `run_level` by every tag/untag/retag.
    tag_cache: [AtomicU64; TAG_CACHE],
}

impl Default for IoAttribution {
    fn default() -> Self {
        Self::new()
    }
}

impl IoAttribution {
    pub fn new() -> Self {
        Self {
            levels: std::array::from_fn(|_| LevelIo::default()),
            run_level: RwLock::new(HashMap::new()),
            tag_cache: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn slot(level: usize) -> usize {
        level.min(MAX_LEVELS)
    }

    #[inline]
    fn cache_slot(&self, run: u64) -> &AtomicU64 {
        &self.tag_cache[run as usize % TAG_CACHE]
    }

    fn cache_store(&self, run: u64, level: usize) {
        if let Some(packed) = pack_tag(run, level) {
            self.cache_slot(run).store(packed, Ordering::Relaxed);
        }
    }

    /// Tag `run` as living on `level` (1-based; 0 means unattributed).
    pub fn tag_run(&self, run: u64, level: usize) {
        let level = Self::slot(level);
        self.run_level.write().unwrap().insert(run, level);
        self.cache_store(run, level);
    }

    /// Drop a run's tag (e.g. after deletion). Subsequent I/O on the id
    /// falls back to the unattributed slot.
    pub fn untag_run(&self, run: u64) {
        self.run_level.write().unwrap().remove(&run);
        let slot = self.cache_slot(run);
        if slot.load(Ordering::Relaxed) >> 8 == run {
            slot.store(0, Ordering::Relaxed);
        }
    }

    /// Replace the whole run→level map. Called after a version install or
    /// recovery with the authoritative placement of every live run, which
    /// fixes runs that moved levels without being rewritten.
    pub fn retag_all<I: IntoIterator<Item = (u64, usize)>>(&self, runs: I) {
        let mut map = self.run_level.write().unwrap();
        map.clear();
        map.extend(runs.into_iter().map(|(r, l)| (r, Self::slot(l))));
        for slot in &self.tag_cache {
            slot.store(0, Ordering::Relaxed);
        }
        for (&run, &level) in map.iter() {
            self.cache_store(run, level);
        }
    }

    /// Level a run is currently tagged with, if any. One relaxed load on
    /// a cache hit; only collision-evicted runs pay the locked map probe.
    #[inline]
    pub fn level_of(&self, run: u64) -> Option<usize> {
        let packed = self.cache_slot(run).load(Ordering::Relaxed);
        if packed != 0 && packed >> 8 == run {
            return Some((packed & 0xff) as usize - 1);
        }
        self.run_level.read().unwrap().get(&run).copied()
    }

    /// Record a read of `bytes` against `run`'s level.
    #[inline]
    pub fn on_read(&self, run: u64, bytes: u64) {
        let slot = self.level_of(run).unwrap_or(0);
        let l = &self.levels[slot];
        l.reads.fetch_add(1, Ordering::Relaxed);
        l.read_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a write of `bytes` against `run`'s level.
    #[inline]
    pub fn on_write(&self, run: u64, bytes: u64) {
        let slot = self.level_of(run).unwrap_or(0);
        let l = &self.levels[slot];
        l.writes.fetch_add(1, Ordering::Relaxed);
        l.write_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a block-cache hit of `bytes` against `run`'s level. Hits are
    /// not I/Os and are deliberately kept out of `reads`/`read_bytes`; this
    /// separate channel shows which levels the cache is absorbing traffic
    /// for.
    #[inline]
    pub fn on_cache_hit(&self, run: u64, bytes: u64) {
        let slot = self.level_of(run).unwrap_or(0);
        let l = &self.levels[slot];
        l.cache_hits.fetch_add(1, Ordering::Relaxed);
        l.cache_hit_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Snapshot all level slots. Index 0 is the unattributed slot.
    pub fn snapshot(&self) -> Vec<LevelIoSnapshot> {
        self.levels
            .iter()
            .map(|l| LevelIoSnapshot {
                reads: l.reads.load(Ordering::Relaxed),
                writes: l.writes.load(Ordering::Relaxed),
                read_bytes: l.read_bytes.load(Ordering::Relaxed),
                write_bytes: l.write_bytes.load(Ordering::Relaxed),
                cache_hits: l.cache_hits.load(Ordering::Relaxed),
                cache_hit_bytes: l.cache_hit_bytes.load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attributes_by_tag_and_falls_back_to_slot_zero() {
        let a = IoAttribution::new();
        a.tag_run(7, 2);
        a.on_read(7, 1024);
        a.on_write(7, 4096);
        a.on_cache_hit(7, 1024);
        a.on_read(99, 512); // untagged
        let s = a.snapshot();
        assert_eq!(
            s[2],
            LevelIoSnapshot {
                reads: 1,
                writes: 1,
                read_bytes: 1024,
                write_bytes: 4096,
                cache_hits: 1,
                cache_hit_bytes: 1024,
            }
        );
        assert_eq!(s[2].reads, 1, "cache hits are not reads");
        assert_eq!(s[0].reads, 1);
        assert_eq!(s[0].read_bytes, 512);
    }

    #[test]
    fn retag_moves_future_traffic() {
        let a = IoAttribution::new();
        a.tag_run(1, 1);
        a.on_read(1, 100);
        a.retag_all([(1, 2)]);
        a.on_read(1, 100);
        let s = a.snapshot();
        assert_eq!(s[1].reads, 1);
        assert_eq!(s[2].reads, 1);
        assert_eq!(a.level_of(1), Some(2));
    }

    #[test]
    fn deep_levels_clamp_and_untag_falls_back() {
        let a = IoAttribution::new();
        a.tag_run(3, 500);
        assert_eq!(a.level_of(3), Some(MAX_LEVELS));
        a.untag_run(3);
        assert_eq!(a.level_of(3), None);
        a.on_write(3, 10);
        assert_eq!(a.snapshot()[0].writes, 1);
    }
}
