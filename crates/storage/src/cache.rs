//! A sharded LRU block cache: LevelDB's, which the paper enables for its
//! Appendix F experiments (Figure 12). Recently read pages stay in memory,
//! reads served from the cache are **not** I/Os, and capacity is in bytes
//! of cached page data.
//!
//! As in LevelDB, 16 shards each sit behind one mutex and hold a hash index,
//! one LRU list and exact hit/miss counters. A hit does not relink the list:
//! it appends the node to the shard's touch list, which is applied in hit
//! order before anything is admitted or evicted, and whenever it reaches
//! 1 024 entries. Evictions therefore see exact LRU, and a touch never
//! names a freed node.

use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::backend::RunId;

/// Cache key: a page of a run.
type Key = (RunId, u32);

/// "No node" in the LRU list.
const NIL: u32 = u32::MAX;
/// Touches a shard buffers before it relinks its list.
const TOUCH_BATCH: usize = 1024;
/// Index entries a shard reserves up front; past it the index grows as
/// pages arrive, so a huge budget costs nothing until it is used.
const PRESIZE_MAX: usize = 1 << 12;

/// Construction parameters for a [`BlockCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total bytes of page data the cache may hold.
    pub capacity_bytes: usize,
    /// Expected page size in bytes; pre-sizes each shard's index for the
    /// pages that fit its budget. Only a hint — any page size still works.
    pub page_size_hint: usize,
}

impl CacheConfig {
    /// LRU config with the default page-size hint.
    pub fn lru(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            page_size_hint: 512,
        }
    }

    /// Sets the page-size hint (shard indexes are pre-sized from it).
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        self.page_size_hint = page_size.max(1);
        self
    }
}

/// Hit/miss statistics of a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to go to storage.
    pub misses: u64,
    /// Pages offered for admission (whether or not they were kept).
    pub inserts: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when there were no lookups.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The key mix `shard_index` takes its top bits from, rotated so that
/// neither the index's bucket bits (the low ones) nor its 7-bit tag (the
/// top ones) land on the four bits every key of a shard shares.
#[derive(Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a cache key hashes as a u64 and a u32")
    }

    fn write_u64(&mut self, run: u64) {
        self.0 = BlockCache::mix((run, 0));
    }

    fn write_u32(&mut self, page_no: u32) {
        self.0 ^= BlockCache::mix((0, page_no));
    }
}

/// A cached page on its shard's LRU list, or a free slot (empty data).
struct Node {
    key: Key,
    data: Bytes,
    prev: u32,
    next: u32,
}

/// One shard: everything its mutex guards.
#[derive(Default)]
struct Shard {
    index: HashMap<Key, u32, BuildHasherDefault<MixHasher>>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// The LRU list: `head` is the most recent, `tail` the eviction end.
    head: u32,
    tail: u32,
    /// Hit nodes not yet moved to the front, in hit order.
    touches: Vec<u32>,
    bytes: usize,
    stats: CacheStats,
}

impl Shard {
    fn unlink(&mut self, n: u32) {
        let Node { prev, next, .. } = self.nodes[n as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            x => self.nodes[x as usize].prev = prev,
        }
    }

    fn push_front(&mut self, n: u32) {
        let head = self.head;
        let node = &mut self.nodes[n as usize];
        node.prev = NIL;
        node.next = head;
        match head {
            NIL => self.tail = n,
            h => self.nodes[h as usize].prev = n,
        }
        self.head = n;
    }

    /// Moves every touched node to the front, in hit order. Must run before
    /// anything is admitted or freed.
    fn apply_touches(&mut self) {
        for i in 0..self.touches.len() {
            let n = self.touches[i];
            self.unlink(n);
            self.push_front(n);
        }
        self.touches.clear();
    }

    /// Puts a page at the front of the list, then evicts from the tail
    /// until the shard is within `budget`.
    fn admit(&mut self, key: Key, data: Bytes, budget: usize) {
        self.apply_touches();
        if let Some(&n) = self.index.get(&key) {
            self.remove(n);
        }
        self.bytes += data.len();
        let node = Node {
            key,
            data,
            prev: NIL,
            next: NIL,
        };
        let n = self.free.pop().unwrap_or(self.nodes.len() as u32);
        if n as usize == self.nodes.len() {
            self.nodes.push(node);
        } else {
            self.nodes[n as usize] = node;
        }
        self.index.insert(key, n);
        self.push_front(n);
        while self.bytes > budget {
            self.remove(self.tail);
        }
    }

    fn remove(&mut self, n: u32) {
        self.unlink(n);
        let node = &mut self.nodes[n as usize];
        self.index.remove(&node.key);
        self.bytes -= std::mem::take(&mut node.data).len();
        self.free.push(n);
    }
}

/// The sharded block cache. See the module docs for the design.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    /// Byte budget of each shard.
    per_shard: usize,
}

impl BlockCache {
    /// Number of shards; power of two so shard selection is a mask.
    const SHARDS: usize = 16;

    /// Creates an LRU cache holding up to `capacity_bytes` of page data.
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_config(CacheConfig::lru(capacity_bytes))
    }

    /// Creates a cache from an explicit [`CacheConfig`].
    pub fn with_config(config: CacheConfig) -> Self {
        // Round the per-shard budget *up*: truncating division silently
        // disabled caching for capacities under one page per shard.
        let per_shard = config.capacity_bytes.div_ceil(Self::SHARDS);
        let presize = (per_shard / config.page_size_hint.max(1)).min(PRESIZE_MAX);
        Self {
            shards: (0..Self::SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        index: HashMap::with_capacity_and_hasher(presize, Default::default()),
                        head: NIL,
                        tail: NIL,
                        ..Shard::default()
                    })
                })
                .collect(),
            per_shard,
        }
    }

    #[inline]
    fn mix(key: Key) -> u64 {
        // Cheap key mix: run ids are sequential, page numbers dense.
        key.0.wrapping_mul(0x9E3779B97F4A7C15) ^ (key.1 as u64).wrapping_mul(0xC2B2AE3D4F4E5425)
    }

    /// Shard index for a key (top bits of the mix, as in the original
    /// cache, so shard placement — and thus Figure 12 — is unchanged).
    #[inline]
    fn shard_index(key: Key) -> usize {
        (Self::mix(key) >> 58) as usize & (Self::SHARDS - 1)
    }

    /// Exposes shard placement so tests can build shard-local workloads.
    #[doc(hidden)]
    pub fn shard_of(run: RunId, page_no: u32) -> usize {
        Self::shard_index((run, page_no))
    }

    /// Looks up a page; counts a hit or miss, and records a hit as a touch.
    pub fn get(&self, run: RunId, page_no: u32) -> Option<Bytes> {
        let key = (run, page_no);
        let mut shard = self.shards[Self::shard_index(key)].lock();
        let Some(&n) = shard.index.get(&key) else {
            shard.stats.misses += 1;
            return None;
        };
        shard.stats.hits += 1;
        shard.touches.push(n);
        if shard.touches.len() >= TOUCH_BATCH {
            shard.apply_touches();
        }
        Some(shard.nodes[n as usize].data.clone())
    }

    /// Whether a page is absent, counting a miss when it is. A cached page
    /// is left as it is — neither counted nor touched — for the
    /// [`get`](Self::get) that serves it: what a read that brings in pages
    /// after the first probes them with.
    pub fn lacks(&self, run: RunId, page_no: u32) -> bool {
        let key = (run, page_no);
        let mut shard = self.shards[Self::shard_index(key)].lock();
        let absent = !shard.index.contains_key(&key);
        shard.stats.misses += absent as u64;
        absent
    }

    /// Inserts a page read from storage at the front of its shard's LRU
    /// list, evicting from the tail until the shard is within budget.
    pub fn insert(&self, run: RunId, page_no: u32, data: Bytes) {
        let key = (run, page_no);
        let mut shard = self.shards[Self::shard_index(key)].lock();
        shard.stats.inserts += 1;
        if data.len() > self.per_shard {
            return; // a page larger than the whole shard is never cached
        }
        shard.admit(key, data, self.per_shard);
    }

    /// Drops every cached page of `run` (called when a run is deleted after
    /// a merge so stale pages can never be served), scanning each index.
    pub fn evict_run(&self, run: RunId) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.apply_touches();
            let victims: Vec<u32> = shard
                .index
                .iter()
                .filter_map(|(key, &n)| (key.0 == run).then_some(n))
                .collect();
            for n in victims {
                shard.remove(n);
            }
        }
    }

    /// Current hit/miss/insert counters, summed over the shards.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for s in self.shards.iter().map(|shard| shard.lock().stats) {
            stats.hits += s.hits;
            stats.misses += s.misses;
            stats.inserts += s.inserts;
        }
        stats
    }

    /// Bytes currently cached across all shards.
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(fill: u8, len: usize) -> Bytes {
        Bytes::from(vec![fill; len])
    }

    #[test]
    fn insert_then_get() {
        let c = BlockCache::new(1 << 20);
        c.insert(1, 0, page(7, 100));
        assert_eq!(c.get(1, 0).unwrap(), page(7, 100));
        assert!(c.get(1, 1).is_none());
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                inserts: 1
            }
        );
    }

    #[test]
    fn eviction_is_lru() {
        // Single shard worth of capacity split over 16 shards: use keys that
        // we re-check individually rather than assuming shard placement.
        let c = BlockCache::new(16 * 300); // 300 bytes per shard
                                           // Insert 4 pages of 100 bytes targeting the same run; at most 3 fit
                                           // in any one shard.
        for p in 0..40 {
            c.insert(5, p, page(p as u8, 100));
        }
        let live = (0..40).filter(|&p| c.get(5, p).is_some()).count();
        assert!(live < 40, "some pages must have been evicted");
        assert!(live > 0, "recently used pages survive");
        assert!(c.used_bytes() <= 16 * 300 + 16); // per-shard budget rounds up
    }

    #[test]
    fn touch_refreshes_recency() {
        let c = BlockCache::new(16 * 250); // 2 pages of 100B per shard
                                           // Behavioural check: a repeatedly touched page survives churn that
                                           // evicts everything else.
        for i in 0..100u32 {
            c.insert(9, i, page(0, 100));
            c.insert(9, 0, page(0, 100)); // keep page 0 hot
            c.get(9, 0);
        }
        assert!(c.get(9, 0).is_some(), "hot page survived");
    }

    #[test]
    fn update_existing_key_replaces_bytes() {
        let c = BlockCache::new(1 << 20);
        c.insert(1, 0, page(1, 100));
        c.insert(1, 0, page(2, 50));
        assert_eq!(c.get(1, 0).unwrap(), page(2, 50));
        assert_eq!(c.used_bytes(), 50);
    }

    #[test]
    fn evict_run_drops_all_its_pages() {
        let c = BlockCache::new(1 << 20);
        for p in 0..10 {
            c.insert(1, p, page(1, 10));
            c.insert(2, p, page(2, 10));
        }
        c.evict_run(1);
        for p in 0..10 {
            assert!(c.get(1, p).is_none());
            assert!(c.get(2, p).is_some());
        }
        assert_eq!(c.used_bytes(), 100);
    }

    #[test]
    fn oversized_page_is_not_cached() {
        let c = BlockCache::new(16 * 10); // 10 bytes per shard
        c.insert(1, 0, page(1, 1000));
        assert!(c.get(1, 0).is_none());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn zero_capacity_cache_never_hits() {
        let c = BlockCache::new(0);
        c.insert(1, 0, page(1, 10));
        assert!(c.get(1, 0).is_none());
    }

    #[test]
    fn tiny_capacity_still_caches() {
        // Regression: `capacity_bytes / 16` used to truncate to a 0-byte
        // shard budget for any capacity under 16 bytes, silently disabling
        // the cache. The budget now rounds up.
        let c = BlockCache::new(15);
        c.insert(1, 0, page(1, 1));
        assert!(c.get(1, 0).is_some(), "1-byte page fits a 15-byte cache");
    }

    #[test]
    fn hit_ratio() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            inserts: 0,
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn exact_lru_when_pages_are_smaller_than_the_hint() {
        // 1 KiB a shard, pre-sized for one 1 KiB page, given 32 pages of
        // 32 B that all land in one shard: they fill its budget exactly, so
        // every one of them stays.
        let c = BlockCache::with_config(CacheConfig::lru(16 << 10).with_page_size(1 << 10));
        let pages: Vec<u32> = (0..)
            .filter(|&p| BlockCache::shard_of(1, p) == 0)
            .take(32)
            .collect();
        for &p in &pages {
            c.insert(1, p, page(p as u8, 32));
        }
        assert_eq!(c.used_bytes(), 32 * 32);
        let hits = pages.iter().filter(|&&p| c.get(1, p).is_some()).count();
        assert_eq!(hits, 32, "every page that fits its shard's budget stays");
    }

    #[test]
    fn concurrent_counts_are_exact() {
        // Readers race a writer's inserts and run evictions: no read is
        // torn, readers make progress, and every get is counted once.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let c = Arc::new(BlockCache::new(1 << 20));
        for p in 0..64u32 {
            c.insert(1, p, page((p % 251) as u8, 256));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|t| {
                let c = Arc::clone(&c);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let (mut hits, mut gets) = (0u64, 0u64);
                    let mut i = t;
                    while !stop.load(Ordering::Relaxed) {
                        let p = (i % 64) as u32;
                        if let Some(b) = c.get(1, p) {
                            assert_eq!(b[0], (p % 251) as u8, "torn read");
                            hits += 1;
                        }
                        gets += 1;
                        i += 1;
                    }
                    (hits, gets)
                })
            })
            .collect();
        for round in 0..200u32 {
            for p in 0..64u32 {
                c.insert(1, p, page((p % 251) as u8, 256));
            }
            if round % 16 == 0 {
                c.evict_run(1);
                for p in 0..64u32 {
                    c.insert(1, p, page((p % 251) as u8, 256));
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        let (hits, gets) = readers
            .into_iter()
            .map(|r| r.join().unwrap())
            .fold((0, 0), |(h, g), (rh, rg)| (h + rh, g + rg));
        assert!(hits > 0, "readers made progress");
        let stats = c.stats();
        assert_eq!(stats.hits, hits, "every hit is counted");
        assert_eq!(stats.hits + stats.misses, gets, "every get is counted");
    }
}
