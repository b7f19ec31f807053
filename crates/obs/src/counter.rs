//! Lock-free sharded counters.
//!
//! A single `AtomicU64` is fine for rare events, but a counter bumped on
//! every `put`/`get` from many threads turns into a cache-line ping-pong
//! hot spot. [`ShardedCounter`] spreads increments across a small,
//! cache-line-padded shard array indexed by a per-thread id, so writers on
//! different cores touch different lines. Reads sum the shards and are
//! therefore only eventually consistent — exactly the right trade for
//! monitoring counters.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of shards. Power of two so the thread id can be masked in.
const SHARDS: usize = 16;

/// One counter shard, padded to a cache line so neighbouring shards never
/// share one.
#[repr(align(64))]
struct Shard(AtomicU64);

/// Monotonic per-thread id used to pick a shard. Threads get ids in
/// creation order; with 16 shards, collisions only cost a little extra
/// contention, never correctness.
static NEXT_THREAD_ID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_ID: usize = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

fn shard_index() -> usize {
    THREAD_ID.with(|id| *id) & (SHARDS - 1)
}

/// A monotonic counter striped across cache-line-padded atomic shards.
pub struct ShardedCounter {
    shards: [Shard; SHARDS],
}

impl Default for ShardedCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedCounter {
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| Shard(AtomicU64::new(0))),
        }
    }

    /// Add `n` to the calling thread's shard. One relaxed `fetch_add`, no
    /// allocation, no locks.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Sum of all shards. Eventually consistent: concurrent `add`s may or
    /// may not be included, but the value never goes backwards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for ShardedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ShardedCounter").field(&self.get()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counts_single_thread() {
        let c = ShardedCounter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn counts_across_threads() {
        let c = Arc::new(ShardedCounter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }
}
