//! Block-cache torture tests: readers racing inserts and run eviction,
//! stale-read guarantees across compaction-style cascades, and a
//! property-based model-equivalence check of the LRU policy against a
//! reference single-threaded implementation.

use bytes::Bytes;
use monkey_storage::{BlockCache, CacheConfig, Disk};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Every page's content is a pure function of its key, so any read that
/// returns bytes not matching its key is torn or stale.
fn page_for(run: u64, page: u32, len: usize) -> Bytes {
    let tag = (run.wrapping_mul(31).wrapping_add(page as u64) % 251) as u8;
    let mut v = vec![tag; len];
    // A second distinguishing byte at the end catches partial writes.
    v[len - 1] = tag.wrapping_add(1);
    Bytes::from(v)
}

fn check(run: u64, page: u32, got: &Bytes) {
    let want = page_for(run, page, got.len());
    assert_eq!(
        (got[0], got[got.len() - 1]),
        (want[0], want[want.len() - 1]),
        "torn or stale read of run {run} page {page}"
    );
}

/// N reader threads hammer the hit path while one thread churns inserts,
/// updates, and `evict_run` cascades. No read may ever observe bytes that
/// do not belong to its key.
#[test]
fn readers_race_inserts_and_run_eviction() {
    const RUNS: u64 = 4;
    const PAGES: u32 = 48;
    const LEN: usize = 256;
    let cache = Arc::new(BlockCache::new(RUNS as usize * PAGES as usize * LEN / 2));
    for run in 0..RUNS {
        for p in 0..PAGES {
            cache.insert(run, p, page_for(run, p, LEN));
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let hits = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..4)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            let hits = Arc::clone(&hits);
            std::thread::spawn(move || {
                let mut i: u64 = t;
                while !stop.load(Ordering::Relaxed) {
                    let run = i % RUNS;
                    let p = (i.wrapping_mul(7) % PAGES as u64) as u32;
                    if let Some(got) = cache.get(run, p) {
                        check(run, p, &got);
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                    i = i.wrapping_add(1);
                }
            })
        })
        .collect();

    // Churn: updates, whole-run cascades, reinserts — the full writer side.
    for round in 0..300u32 {
        let victim = (round as u64) % RUNS;
        cache.evict_run(victim);
        for p in 0..PAGES {
            cache.insert(victim, p, page_for(victim, p, LEN));
        }
        for p in 0..PAGES {
            let run = (round as u64 + 1) % RUNS;
            cache.insert(run, p, page_for(run, p, LEN));
        }
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    assert!(hits.load(Ordering::Relaxed) > 0, "readers made progress");
}

/// A compaction-style cascade at the `Disk` level: runs are written, read
/// (warming the cache), then deleted as their level merges down. After
/// every cascade step, no page of a deleted run is servable and every
/// surviving run still reads back its own bytes.
#[test]
fn cascade_leaves_no_stale_pages() {
    let disk = Disk::mem_cached(64, 1 << 20);
    let mut live = Vec::new();
    for generation in 0..6 {
        // Write a few runs and warm the cache with their pages.
        for _ in 0..3 {
            let mut w = disk.begin_run();
            for p in 0..8u32 {
                let fill = page_for(w.id(), p, 64);
                w.append(&fill).unwrap();
            }
            let id = w.seal().unwrap();
            live.push(id);
            for p in 0..8u32 {
                check(id, p, &disk.read_page(id, p).unwrap());
            }
        }
        // "Merge": delete the oldest half of the live runs, like a level
        // being rewritten one below.
        let casualties: Vec<_> = live.drain(..live.len() / 2).collect();
        for id in &casualties {
            disk.delete_run(*id).unwrap();
        }
        for id in &casualties {
            for p in 0..8u32 {
                assert!(
                    disk.read_page(*id, p).is_err(),
                    "gen {generation}: deleted run {id} page {p} still servable"
                );
            }
        }
        for id in &live {
            for p in 0..8u32 {
                check(*id, p, &disk.read_page(*id, p).unwrap());
            }
        }
    }
}

// ---- model equivalence ----------------------------------------------------

type Key = (u64, u32);

/// Reference implementation: 16 independent single-threaded LRU lists with
/// the same per-shard byte budget and shard placement as `BlockCache`.
struct ModelLru {
    // front = most recently used
    shards: Vec<VecDeque<(Key, Bytes)>>,
    per_shard: usize,
    hits: u64,
    misses: u64,
}

impl ModelLru {
    fn new(capacity: usize) -> Self {
        Self {
            shards: (0..16).map(|_| VecDeque::new()).collect(),
            per_shard: capacity.div_ceil(16),
            hits: 0,
            misses: 0,
        }
    }

    fn shard(&mut self, key: Key) -> &mut VecDeque<(Key, Bytes)> {
        &mut self.shards[BlockCache::shard_of(key.0, key.1)]
    }

    fn get(&mut self, key: Key) -> Option<Bytes> {
        let shard = self.shard(key);
        if let Some(pos) = shard.iter().position(|(k, _)| *k == key) {
            let entry = shard.remove(pos).unwrap();
            let data = entry.1.clone();
            shard.push_front(entry);
            self.hits += 1;
            Some(data)
        } else {
            self.misses += 1;
            None
        }
    }

    fn insert(&mut self, key: Key, data: Bytes) {
        let cap = self.per_shard;
        if data.len() > cap {
            return;
        }
        let shard = self.shard(key);
        if let Some(pos) = shard.iter().position(|(k, _)| *k == key) {
            shard.remove(pos);
        }
        shard.push_front((key, data));
        let shard = self.shard(key);
        while shard.iter().map(|(_, d)| d.len()).sum::<usize>() > cap {
            shard.pop_back();
        }
    }

    fn evict_run(&mut self, run: u64) {
        for shard in &mut self.shards {
            shard.retain(|((r, _), _)| *r != run);
        }
    }

    fn used_bytes(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.iter())
            .map(|(_, d)| d.len())
            .sum()
    }
}

proptest! {
    /// Under the LRU policy, single-threaded, the production cache is
    /// observationally identical to the reference model: same hit/miss
    /// decisions, same returned bytes, same resident byte total.
    ///
    /// The page-size hint and the page length are inputs, so a shard
    /// pre-sized for far fewer pages than its budget holds is covered too.
    #[test]
    fn lru_matches_reference_model(
        hint in 64usize..=4096,
        len in 1usize..=16,
        ops in proptest::collection::vec((0u8..64, 0u64..4, 0u32..128, 1u8..=255), 1..1000),
    ) {
        let capacity = 16 * 256;
        let cache = BlockCache::with_config(CacheConfig::lru(capacity).with_page_size(hint));
        let mut model = ModelLru::new(capacity);
        for &(op, run, page, fill) in &ops {
            match op {
                // Half the ops insert and one in 64 drops a run, so shards
                // fill to dozens of small pages.
                0..=31 => {
                    let data = Bytes::from(vec![fill; len]);
                    cache.insert(run, page, data.clone());
                    model.insert((run, page), data);
                }
                32..=62 => {
                    let got = cache.get(run, page);
                    let want = model.get((run, page));
                    prop_assert_eq!(got.is_some(), want.is_some(), "hit/miss diverged");
                    if let (Some(g), Some(w)) = (got, want) {
                        prop_assert_eq!(g, w, "bytes diverged");
                    }
                }
                _ => {
                    cache.evict_run(run);
                    model.evict_run(run);
                }
            }
        }
        prop_assert_eq!(cache.used_bytes(), model.used_bytes());
        let stats = cache.stats();
        prop_assert_eq!((stats.hits, stats.misses), (model.hits, model.misses));
    }

}
