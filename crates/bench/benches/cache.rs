//! Block-cache benchmark: hit-path latency of the lock-free cache against
//! a mutex-sharded LRU baseline (the pre-rewrite design). Results merge
//! into the repo-root `BENCH_cache.json` artifact (EXPERIMENTS.md quotes
//! them).

use bytes::Bytes;
use monkey_storage::{BlockCache, CacheConfig};
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---- baseline: the pre-rewrite mutex-sharded LRU hit path -----------------

/// Verbatim port of the old cache's hit path: 16 mutex shards, each a
/// `HashMap` into an intrusive LRU list, every hit taking the shard lock
/// to unlink/re-link its node, plus the old cache-global hit counter.
struct MutexLru {
    shards: Vec<Mutex<MutexShard>>,
    hits: AtomicU64,
}

const NO_NODE: usize = usize::MAX;

struct OldNode {
    #[allow(dead_code)] // eviction used it; kept so node size (and thus
    // memory traffic per touch) matches the old cache
    key: (u64, u32),
    data: Bytes,
    prev: usize,
    next: usize,
}

#[derive(Default)]
struct MutexShard {
    map: HashMap<(u64, u32), usize>,
    nodes: Vec<OldNode>,
    head: usize,
    tail: usize,
}

impl MutexShard {
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NO_NODE {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NO_NODE {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NO_NODE;
        self.nodes[idx].next = self.head;
        if self.head != NO_NODE {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NO_NODE {
            self.tail = idx;
        }
    }
}

impl MutexLru {
    fn new() -> Self {
        Self {
            shards: (0..16)
                .map(|_| {
                    Mutex::new(MutexShard {
                        head: NO_NODE,
                        tail: NO_NODE,
                        ..MutexShard::default()
                    })
                })
                .collect(),
            hits: AtomicU64::new(0),
        }
    }

    fn get(&self, run: u64, page: u32) -> Option<Bytes> {
        let mut s = self.shards[BlockCache::shard_of(run, page)].lock().unwrap();
        let idx = *s.map.get(&(run, page))?;
        s.unlink(idx);
        s.push_front(idx);
        let data = s.nodes[idx].data.clone();
        drop(s);
        self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Some(data)
    }

    // Capacity enforcement elided: the bench working set is fully
    // resident in both caches, so only the hit path is exercised.
    fn insert(&self, run: u64, page: u32, data: Bytes) {
        let mut s = self.shards[BlockCache::shard_of(run, page)].lock().unwrap();
        let node = OldNode {
            key: (run, page),
            data,
            prev: NO_NODE,
            next: NO_NODE,
        };
        let idx = s.nodes.len();
        s.nodes.push(node);
        s.map.insert((run, page), idx);
        s.push_front(idx);
    }
}

// ---- hit-path latency -----------------------------------------------------

const PAGE: usize = 256;
const WORKING_SET: u32 = 1024;

fn fill_lockfree() -> Arc<BlockCache> {
    let cache = Arc::new(BlockCache::with_config(
        CacheConfig::lru(2 * WORKING_SET as usize * PAGE).with_page_size(PAGE),
    ));
    for p in 0..WORKING_SET {
        cache.insert(p as u64 % 8, p, Bytes::from(vec![p as u8; PAGE]));
    }
    cache
}

fn fill_mutex() -> Arc<MutexLru> {
    let cache = Arc::new(MutexLru::new());
    for p in 0..WORKING_SET {
        cache.insert(p as u64 % 8, p, Bytes::from(vec![p as u8; PAGE]));
    }
    cache
}

/// ns per hit across `threads` threads doing `iters` gets each. With
/// `hot_page`, every thread hammers the same page (one shard, the worst
/// contention case — exactly the hot-block shape a Zipfian read mix
/// produces); otherwise accesses spread over the whole working set.
fn hit_ns<C: Send + Sync + 'static>(
    cache: &Arc<C>,
    get: fn(&C, u64, u32) -> Option<Bytes>,
    threads: usize,
    iters: u64,
    hot_page: bool,
) -> f64 {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let cache = Arc::clone(cache);
            std::thread::spawn(move || {
                let mut sink = 0u64;
                for i in 0..iters {
                    let p = if hot_page {
                        0
                    } else {
                        ((i.wrapping_mul(2654435761).wrapping_add(t as u64)) % WORKING_SET as u64)
                            as u32
                    };
                    let got = get(&cache, p as u64 % 8, p).expect("resident page");
                    sink = sink.wrapping_add(got[0] as u64);
                }
                sink
            })
        })
        .collect();
    let mut sink = 0u64;
    for h in handles {
        sink = sink.wrapping_add(h.join().expect("reader"));
    }
    std::hint::black_box(sink);
    t0.elapsed().as_nanos() as f64 / (threads as u64 * iters) as f64
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let iters = if test_mode { 200_000u64 } else { 4_000_000 };

    // Hit path: identical working set, resident in both caches.
    let lockfree = fill_lockfree();
    let mutexed = fill_mutex();
    let mut rows = Vec::new();
    for &(threads, hot, label) in &[(1usize, false, "1t"), (4, false, "4t"), (4, true, "4t_hot")] {
        let new_ns = hit_ns(&lockfree, |c, r, p| c.get(r, p), threads, iters, hot);
        let old_ns = hit_ns(&mutexed, |c, r, p| c.get(r, p), threads, iters, hot);
        println!(
            "hit_path {label:>6}: mutex-LRU {old_ns:>7.1} ns/hit   \
             lock-free {new_ns:>7.1} ns/hit   {:>5.2}x",
            old_ns / new_ns
        );
        rows.push(format!(
            "\"{label}\": {{\"mutex_ns\": {old_ns:.1}, \"lockfree_ns\": {new_ns:.1}, \
             \"speedup\": {:.3}}}",
            old_ns / new_ns
        ));
    }
    monkey_bench::emit_bench_artifact(
        "BENCH_cache.json",
        "hit_path",
        &format!(
            "{{\"iters\": {iters}, \"working_set_pages\": {WORKING_SET}, \"page_bytes\": {PAGE}, {}}}",
            rows.join(", ")
        ),
    );
}
