//! Key-skew sketching: a count-min sketch plus a space-saving top-k.
//!
//! These answer *which keys are hot* and *how skewed* access is without
//! storing per-key state. Two classic streaming summaries cover that in a
//! few KiB:
//!
//! * [`CountMinSketch`] — a `depth × width` grid of counters; each key
//!   increments one counter per row (chosen by `depth` pairwise-independent
//!   hashes) and its estimate is the minimum over rows. Estimates never
//!   undercount, and overcount by at most `ε·N` (N = stream length) with
//!   probability `1 − δ` for `width = ⌈e/ε⌉`, `depth = ⌈ln(1/δ)⌉`.
//! * [`SpaceSaving`] — the Metwally et al. top-k summary: `k` monitored
//!   (key, count, overestimate) slots; an unmonitored key evicts the
//!   current minimum and inherits its count as its overestimate bound.
//!   Any key with true frequency above `N/k` is guaranteed to be present.
//!
//! Counter updates in the sketch are relaxed atomics, so concurrent
//! observers never lock; the top-k mutates a small table under a `Mutex`.
//! The engine does not feed either summary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// FNV-1a, the zero-dependency workhorse hash. Not cryptographic; fine
/// for sketch indexing where an adversarial key stream is out of scope.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: decorrelates the two halves of the FNV hash so
/// the Kirsch–Mitzenmacher row hashes `h1 + i·h2` behave as independent.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A count-min sketch over byte-string keys with atomic counters.
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    observed: AtomicU64,
    rows: Vec<AtomicU64>,
}

impl CountMinSketch {
    /// Build with explicit dimensions. `width` is rounded up to a power of
    /// two (so row indexing is a mask); both dimensions have a floor of 1.
    pub fn new(width: usize, depth: usize) -> Self {
        let width = width.max(1).next_power_of_two();
        let depth = depth.max(1);
        Self {
            width,
            depth,
            observed: AtomicU64::new(0),
            rows: (0..width * depth).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Build from error targets: overestimate ≤ `epsilon·N` with
    /// probability `1 − delta` (ε, δ clamped into sane ranges).
    pub fn with_error(epsilon: f64, delta: f64) -> Self {
        let epsilon = epsilon.clamp(1e-6, 1.0);
        let delta = delta.clamp(1e-9, 0.5);
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil() as usize;
        Self::new(width, depth)
    }

    /// Counter grid width (per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of hash rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The ε for which this sketch's overestimate bound is `ε·N`.
    pub fn epsilon(&self) -> f64 {
        std::f64::consts::E / self.width as f64
    }

    /// Bytes of counter memory held by the sketch.
    pub fn memory_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<AtomicU64>()
    }

    #[inline]
    fn row_index(&self, h1: u64, h2: u64, row: usize) -> usize {
        let h = h1.wrapping_add((row as u64).wrapping_mul(h2));
        row * self.width + (h as usize & (self.width - 1))
    }

    /// Count one occurrence of `key`. Lock-free: `depth` relaxed
    /// `fetch_add`s plus one for the stream length. Returns the updated
    /// estimate for `key` (the row minimum after this increment) so a
    /// caller can gate heavier work on it without re-hashing.
    #[inline]
    pub fn observe(&self, key: &[u8]) -> u64 {
        let h1 = fnv1a(key);
        let h2 = mix(h1) | 1; // odd, so strides cover the (pow2) table
        let mut est = u64::MAX;
        for row in 0..self.depth {
            let prev = self.rows[self.row_index(h1, h2, row)].fetch_add(1, Ordering::Relaxed);
            est = est.min(prev + 1);
        }
        self.observed.fetch_add(1, Ordering::Relaxed);
        est
    }

    /// Estimated occurrences of `key`: never below the true count; above
    /// it by at most `ε·N` with probability `1 − δ`.
    pub fn estimate(&self, key: &[u8]) -> u64 {
        let h1 = fnv1a(key);
        let h2 = mix(h1) | 1;
        (0..self.depth)
            .map(|row| self.rows[self.row_index(h1, h2, row)].load(Ordering::Relaxed))
            .min()
            .unwrap_or(0)
    }

    /// Total observations folded into the sketch (the `N` in `ε·N`).
    pub fn observed(&self) -> u64 {
        self.observed.load(Ordering::Relaxed)
    }

    /// Zero every counter and the stream length.
    pub fn reset(&self) {
        for c in &self.rows {
            c.store(0, Ordering::Relaxed);
        }
        self.observed.store(0, Ordering::Relaxed);
    }
}

/// One monitored heavy-hitter: estimated count and the worst-case
/// overestimate inherited from the slot's previous occupant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotKey {
    /// The key bytes.
    pub key: Vec<u8>,
    /// Estimated occurrence count (may overcount by at most `error`).
    pub count: u64,
    /// Upper bound on the overcount: `count − error` is a guaranteed
    /// lower bound on the key's true frequency.
    pub error: u64,
}

/// Space-saving top-k summary (Metwally, Agrawal, El Abbadi 2005).
pub struct SpaceSaving {
    k: usize,
    /// Smallest monitored count while the table is full, 0 before — the
    /// lock-free admission threshold read by [`offer`](Self::offer).
    min_count: AtomicU64,
    inner: Mutex<Vec<HotKey>>,
}

impl SpaceSaving {
    /// Track up to `k` (min 1) heavy hitters.
    pub fn new(k: usize) -> Self {
        Self {
            k: k.max(1),
            min_count: AtomicU64::new(0),
            inner: Mutex::new(Vec::new()),
        }
    }

    /// Number of monitored slots.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Count one occurrence of `key`, evicting the current minimum if the
    /// table is full and `key` is unmonitored.
    pub fn observe(&self, key: &[u8]) {
        let mut g = self.inner.lock().unwrap();
        if let Some(e) = g.iter_mut().find(|e| e.key == key) {
            e.count += 1;
        } else if g.len() < self.k {
            g.push(HotKey {
                key: key.to_vec(),
                count: 1,
                error: 0,
            });
        } else {
            // Evict the minimum; the newcomer inherits its count as error.
            let min = g.iter_mut().min_by_key(|e| e.count).expect("k >= 1 slots");
            min.error = min.count;
            min.count += 1;
            min.key.clear();
            min.key.extend_from_slice(key);
        }
        if g.len() == self.k {
            let min = g.iter().map(|e| e.count).min().expect("k >= 1 slots");
            self.min_count.store(min, Ordering::Relaxed);
        }
    }

    /// [`observe`](Self::observe), but only when an external frequency
    /// `estimate` (a count-min reading of the same stream) clears the
    /// smallest monitored count — one relaxed load, no lock, for the
    /// dominant case of a cold key hitting a full table. A genuinely hot
    /// key's estimate grows past any bar, so real heavy hitters still get
    /// admitted and keep counting; only keys the sketch agrees are cold
    /// skip the lock.
    #[inline]
    pub fn offer(&self, key: &[u8], estimate: u64) {
        if estimate <= self.min_count.load(Ordering::Relaxed) {
            return;
        }
        self.observe(key);
    }

    /// Monitored keys, most frequent first.
    pub fn top(&self) -> Vec<HotKey> {
        let mut v = self.inner.lock().unwrap().clone();
        v.sort_by_key(|e| std::cmp::Reverse(e.count));
        v
    }

    /// Forget everything.
    pub fn reset(&self) {
        self.inner.lock().unwrap().clear();
        self.min_count.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cms_dimensions_and_memory() {
        let s = CountMinSketch::with_error(0.01, 0.01);
        assert!(s.width() >= (std::f64::consts::E / 0.01) as usize);
        assert!(s.width().is_power_of_two());
        assert!(s.depth() >= 4);
        assert_eq!(s.memory_bytes(), s.width() * s.depth() * 8);
        assert!(s.epsilon() <= 0.01);
    }

    #[test]
    fn cms_never_underestimates() {
        let s = CountMinSketch::new(64, 4);
        for i in 0..1000u32 {
            s.observe(&i.to_le_bytes());
            s.observe(b"hot");
        }
        assert!(s.estimate(b"hot") >= 1000);
        for i in 0..1000u32 {
            assert!(s.estimate(&i.to_le_bytes()) >= 1);
        }
        assert_eq!(s.observed(), 2000);
    }

    #[test]
    fn cms_reset() {
        let s = CountMinSketch::new(16, 2);
        s.observe(b"a");
        s.reset();
        assert_eq!(s.estimate(b"a"), 0);
        assert_eq!(s.observed(), 0);
    }

    #[test]
    fn space_saving_finds_heavy_hitter() {
        let t = SpaceSaving::new(4);
        for i in 0..200u32 {
            t.observe(b"hot");
            t.observe(&(i % 23).to_le_bytes()); // 23 distinct cold keys
        }
        let top = t.top();
        assert_eq!(top[0].key, b"hot".to_vec());
        // Space-saving guarantee: count - error never exceeds the true
        // frequency, and the count itself never falls below it.
        assert!(top[0].count >= 200);
        assert!(top[0].count - top[0].error <= 200);
    }

    #[test]
    fn space_saving_caps_at_k() {
        let t = SpaceSaving::new(2);
        for i in 0..10u32 {
            t.observe(&i.to_le_bytes());
        }
        assert_eq!(t.top().len(), 2);
        t.reset();
        assert!(t.top().is_empty());
    }
}
