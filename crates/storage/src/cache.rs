//! A sharded block cache with a lock-free hit path.
//!
//! Functionally equivalent to LevelDB's block cache, which the paper enables
//! for its Appendix F experiments (Figure 12): recently read pages are kept
//! in main memory and reads served from the cache are **not** I/Os. Capacity
//! is expressed in bytes of cached page data.
//!
//! The cache is sharded (16 ways) and, unlike the original sharded-mutex
//! LRU, a **hit never takes a lock**:
//!
//! * each shard owns a small open-addressed table of
//!   [`AtomicPtr`]-published entries probed with plain atomic loads
//!   (fixed probe window, so deletions need no tombstones);
//! * readers are protected by an SRCU-style pair of per-shard epoch
//!   counters: a writer that unpublishes an entry runs two flip-and-drain
//!   phases (classic SRCU `synchronize`) before freeing it, so even a
//!   reader that registered on a stale parity is waited out;
//! * recency is recorded into a per-shard lossy ring of access records
//!   that the next insert/evict drains under the shard's writer mutex, so
//!   the LRU touch is deferred off the hit path;
//! * hit/miss counters are per-shard relaxed atomics, summed on demand,
//!   instead of two globally contended counters.
//!
//! Two admission/eviction policies are available ([`CachePolicy`]):
//!
//! * [`CachePolicy::Lru`] (default) — exact LRU in single-threaded use,
//!   bit-compatible with the original cache and used for the Figure 12
//!   reproduction;
//! * [`CachePolicy::ScanResistant`] — an S3-FIFO-style small/main segment
//!   pair with a count-min-sketch ghost (reusing the observatory's
//!   [`CountMinSketch`]): new pages enter a small probationary segment,
//!   promotion into the main segment requires a re-reference, and pages
//!   inserted by sequential scans ([`CachePriority::Streaming`]) can only
//!   ever occupy the probationary segment — one long range scan can no
//!   longer flush the point-lookup working set.
//!
//! Compaction's `evict_run` is O(cached pages of the run) via a per-run
//! page index, not a scan of every shard's table.

use bytes::Bytes;
use monkey_obs::CountMinSketch;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use crate::backend::RunId;

/// Cache key: a page of a run.
type Key = (RunId, u32);

/// Sentinel for "no slot" in the intrusive lists.
const NO_SLOT: u32 = u32::MAX;
/// Linear-probe window: a key lives in one of `PROBE` consecutive slots.
const PROBE: usize = 8;
/// Access-record ring length per shard (power of two).
const RING: usize = 4096;
/// Reference-count saturation for the scan-resistant policy.
const FREQ_CAP: u8 = 3;

/// Eviction/admission policy of a [`BlockCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Plain LRU (the paper's Figure 12 baseline; LevelDB-equivalent).
    #[default]
    Lru,
    /// S3-FIFO-style small/main segments with a count-min ghost: scan
    /// traffic is confined to the probationary segment.
    ScanResistant,
}

/// How the page being inserted was read; drives admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePriority {
    /// A point lookup: eligible for the main (protected) segment.
    #[default]
    Point,
    /// A sequential scan (range lookup, merge input, recovery sweep):
    /// confined to the probationary segment under
    /// [`CachePolicy::ScanResistant`].
    Streaming,
}

/// Construction parameters for a [`BlockCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total bytes of page data the cache may hold.
    pub capacity_bytes: usize,
    /// Admission/eviction policy.
    pub policy: CachePolicy,
    /// Expected page size in bytes; sizes each shard's slot table (the
    /// table holds ~4x the pages that fit in the byte budget). Only a
    /// hint — any page size still works.
    pub page_size_hint: usize,
}

impl CacheConfig {
    /// LRU config with the default page-size hint.
    pub fn lru(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            policy: CachePolicy::Lru,
            page_size_hint: 512,
        }
    }

    /// Scan-resistant config with the default page-size hint.
    pub fn scan_resistant(capacity_bytes: usize) -> Self {
        Self {
            policy: CachePolicy::ScanResistant,
            ..Self::lru(capacity_bytes)
        }
    }

    /// Sets the page-size hint (shard tables are sized from it).
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        self.page_size_hint = page_size.max(1);
        self
    }
}

/// An immutable published cache entry. Readers clone `data` (an `Arc`
/// refcount bump) while holding the shard borrow; updates replace the whole
/// entry rather than mutating in place.
struct CacheEntry {
    key: Key,
    data: Bytes,
}

/// Which intrusive list a slot is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seg {
    /// Unoccupied.
    Free,
    /// LRU list (Lru policy) or probationary FIFO (ScanResistant).
    Small,
    /// Protected segment (ScanResistant only).
    Main,
}

/// Per-slot bookkeeping, guarded by the shard writer mutex. Indexed by the
/// slot's position in the atomic table.
struct SlotMeta {
    key: Key,
    bytes: u32,
    prev: u32,
    next: u32,
    seg: Seg,
    freq: u8,
    stamp: u64,
}

impl SlotMeta {
    fn vacant() -> Self {
        Self {
            key: (0, 0),
            bytes: 0,
            prev: NO_SLOT,
            next: NO_SLOT,
            seg: Seg::Free,
            freq: 0,
            stamp: 0,
        }
    }
}

/// An intrusive doubly-linked list threaded through `SlotMeta::{prev,next}`.
/// `head` is most recent, `tail` the eviction end.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    fn empty() -> Self {
        Self {
            head: NO_SLOT,
            tail: NO_SLOT,
        }
    }

    fn is_empty(&self) -> bool {
        self.head == NO_SLOT
    }
}

/// The mutable half of a shard: everything the writer mutex guards.
struct ShardWriter {
    /// Source of truth for occupancy: key -> slot index.
    map: HashMap<Key, u32>,
    /// Per-run page index: run -> slots holding its pages (makes
    /// `evict_run` proportional to the run's cached pages).
    by_run: HashMap<RunId, HashSet<u32>>,
    meta: Vec<SlotMeta>,
    small: List,
    main: List,
    bytes: usize,
    small_bytes: usize,
    /// Monotonic recency clock (drives probe-window displacement).
    tick: u64,
    /// Ring positions already drained.
    drained: u64,
}

/// One cache shard. Readers touch only the atomic fields; all mutation of
/// `writer` happens under its mutex.
struct Shard {
    /// Open-addressed table of published entries. A null pointer is a free
    /// slot; non-null entries are immutable until unpublished.
    slots: Box<[AtomicPtr<CacheEntry>]>,
    /// Grace-period epoch; the low bit selects the active reader counter.
    epoch: AtomicU64,
    /// Readers currently inside a probe, split by the epoch they entered
    /// under (SRCU-style, so a grace period never waits on new readers).
    active: [AtomicU64; 2],
    hits: AtomicU64,
    misses: AtomicU64,
    /// Pages handed to `insert_with`; written under `writer`, so exact.
    inserts: AtomicU64,
    /// Lossy ring of deferred access records: `slot index + 1`, 0 = empty.
    ring: Box<[AtomicU64]>,
    ring_head: AtomicU64,
    writer: Mutex<ShardWriter>,
    capacity: usize,
    /// Byte budget of the probationary segment (ScanResistant only).
    small_target: usize,
}

impl Shard {
    fn new(capacity: usize, page_size_hint: usize) -> Self {
        // Size the table so slots, not bytes, are never the binding
        // constraint: ~4 slots per page that fits the byte budget. The hard
        // cap bounds table memory for huge (effectively unbounded) budgets;
        // past it the shard is entry-limited to 64Ki pages instead.
        let want = (capacity / page_size_hint.max(1)).saturating_mul(4);
        let n_slots = want.clamp(16, 1 << 16).next_power_of_two();
        let mut meta = Vec::with_capacity(n_slots);
        meta.resize_with(n_slots, SlotMeta::vacant);
        Self {
            slots: (0..n_slots)
                .map(|_| AtomicPtr::new(ptr::null_mut()))
                .collect(),
            epoch: AtomicU64::new(0),
            active: [AtomicU64::new(0), AtomicU64::new(0)],
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            ring: (0..RING).map(|_| AtomicU64::new(0)).collect(),
            ring_head: AtomicU64::new(0),
            writer: Mutex::new(ShardWriter {
                map: HashMap::new(),
                by_run: HashMap::new(),
                meta,
                small: List::empty(),
                main: List::empty(),
                bytes: 0,
                small_bytes: 0,
                tick: 0,
                drained: 0,
            }),
            capacity,
            small_target: capacity / 10,
        }
    }

    /// Waits until every reader that might still hold a pointer unpublished
    /// before this call has exited: two flip-and-drain phases (classic
    /// SRCU `synchronize`), so **both** parities are drained after the
    /// unpublishing swap.
    ///
    /// One phase is not enough: a reader loads `epoch` (parity `p`), then
    /// stalls before its `fetch_add`, an unrelated grace period on `p`
    /// completes, and the reader registers on `p` — which is no longer
    /// the current parity. A later single-flip grace would wait only on
    /// `1-p` and could free an entry that stale-registered reader is
    /// still dereferencing.
    ///
    /// Soundness with two phases (all ops SeqCst; argue in the SeqCst
    /// total order S): a reader that holds a pre-swap pointer performed
    /// its slot load before the swap in S, and its `active[p]` increment
    /// precedes that load, so the increment precedes the swap — for
    /// *whichever* parity `p` it registered on, current or stale. Both
    /// drain phases run after the swap in S and between them wait on both
    /// parities, so the phase draining `p` reads `active[p]` after the
    /// increment and spins until the reader's decrement — which happens
    /// only after the reader is done with the entry's bytes. Conversely,
    /// a reader whose increment a drain did not observe ordered its slot
    /// loads after that drain's counter read, hence after the swap: it
    /// can only see the new pointer. Only called with the shard writer
    /// mutex held, so flips are serialized.
    fn grace(&self) {
        for _ in 0..2 {
            let old = self.epoch.fetch_add(1, Ordering::SeqCst);
            let idx = (old & 1) as usize;
            let mut spins = 0u32;
            while self.active[idx].load(Ordering::SeqCst) != 0 {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Unlinks and frees a previously unpublished entry pointer.
    fn retire(&self, old: *mut CacheEntry) {
        if old.is_null() {
            return;
        }
        self.grace();
        // SAFETY: `old` was created by `Box::into_raw`, has been swapped
        // out of the table (no new reader can reach it), and `grace()`
        // proved every reader that could have loaded it has exited.
        unsafe { drop(Box::from_raw(old)) };
    }
}

// ---- intrusive-list helpers (free functions to keep borrows simple) ----

fn list_of(w: &mut ShardWriter, seg: Seg) -> &mut List {
    match seg {
        Seg::Small => &mut w.small,
        Seg::Main => &mut w.main,
        Seg::Free => unreachable!("free slots are not on a list"),
    }
}

fn unlink(w: &mut ShardWriter, idx: u32) {
    let (prev, next, seg) = {
        let m = &w.meta[idx as usize];
        (m.prev, m.next, m.seg)
    };
    if prev != NO_SLOT {
        w.meta[prev as usize].next = next;
    } else {
        list_of(w, seg).head = next;
    }
    if next != NO_SLOT {
        w.meta[next as usize].prev = prev;
    } else {
        list_of(w, seg).tail = prev;
    }
}

fn push_front(w: &mut ShardWriter, idx: u32, seg: Seg) {
    let head = list_of(w, seg).head;
    {
        let m = &mut w.meta[idx as usize];
        m.prev = NO_SLOT;
        m.next = head;
        m.seg = seg;
    }
    if head != NO_SLOT {
        w.meta[head as usize].prev = idx;
    }
    let list = list_of(w, seg);
    list.head = idx;
    if list.tail == NO_SLOT {
        list.tail = idx;
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

/// The sharded block cache. See the module docs for the concurrency and
/// policy design.
pub struct BlockCache {
    shards: Vec<Shard>,
    policy: CachePolicy,
    /// Ghost list for the scan-resistant policy: evicted-from-probation
    /// keys are remembered approximately; a re-read of a remembered key is
    /// admitted straight into the main segment.
    ghost: Option<CountMinSketch>,
    /// Observation count at which the ghost sketch is reset (aging).
    ghost_reset_at: u64,
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
        let ghost = match config.policy {
            CachePolicy::Lru => None,
            CachePolicy::ScanResistant => Some(CountMinSketch::new(4096, 4)),
        };
        Self {
            shards: (0..Self::SHARDS)
                .map(|_| Shard::new(per_shard, config.page_size_hint))
                .collect(),
            policy: config.policy,
            ghost,
            ghost_reset_at: 8 * (config.capacity_bytes as u64 / 1024).max(1024),
        }
    }

    /// The active admission/eviction policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
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

    /// Looks up a page; counts a hit or miss. Lock-free: probes the shard's
    /// atomic table under the epoch reader counters and defers the
    /// recency touch into the shard's access ring.
    pub fn get(&self, run: RunId, page_no: u32) -> Option<Bytes> {
        let key = (run, page_no);
        let shard = &self.shards[Self::shard_index(key)];
        let mask = shard.slots.len() - 1;
        let base = Self::mix(key) as usize;

        let epoch = (shard.epoch.load(Ordering::SeqCst) & 1) as usize;
        shard.active[epoch].fetch_add(1, Ordering::SeqCst);
        let mut found: Option<Bytes> = None;
        for i in 0..PROBE {
            let slot = (base + i) & mask;
            let p = shard.slots[slot].load(Ordering::SeqCst);
            if p.is_null() {
                continue;
            }
            // SAFETY: non-null slot pointers reference live, immutable
            // entries; the epoch reader count keeps this one alive until
            // we decrement it below.
            let entry = unsafe { &*p };
            if entry.key == key {
                found = Some(entry.data.clone());
                // Deferred touch: lossy by design, drained on next insert.
                // `fetch_add` gives each hit a unique ring position, so the
                // head is monotone (a load+store pair could be interleaved
                // and *rewind* the head, silently dropping up to RING
                // pending touches and regressing the drain cursor). The
                // ring-slot store may land after a drain has already read
                // past the position; the drain then swaps 0 there (touch
                // lost — fine, the ring is lossy) and the late record is
                // applied whenever that slot next drains, a spurious touch
                // of a live slot, which is harmless.
                let pos = shard.ring_head.fetch_add(1, Ordering::Relaxed);
                shard.ring[pos as usize & (RING - 1)].store(slot as u64 + 1, Ordering::Release);
                break;
            }
        }
        shard.active[epoch].fetch_sub(1, Ordering::SeqCst);

        // Plain load/store: racing increments can be lost, so the
        // counters are best-effort under concurrency (and exact without
        // it). One lost count per collision is a fine price for dropping
        // the last locked RMW off the hit path.
        if found.is_some() {
            shard
                .hits
                .store(shard.hits.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        } else {
            shard
                .misses
                .store(shard.misses.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
        found
    }

    /// Inserts a page read from storage with point-lookup priority.
    pub fn insert(&self, run: RunId, page_no: u32, data: Bytes) {
        self.insert_with(run, page_no, data, CachePriority::Point);
    }

    /// Inserts a page with an explicit admission priority. Under the
    /// default LRU policy the priority is ignored (Figure 12 semantics);
    /// under [`CachePolicy::ScanResistant`], streaming pages are confined
    /// to the probationary segment.
    pub fn insert_with(&self, run: RunId, page_no: u32, data: Bytes, priority: CachePriority) {
        let key = (run, page_no);
        let shard = &self.shards[Self::shard_index(key)];
        let mut w = shard.writer.lock();
        shard.inserts.fetch_add(1, Ordering::Relaxed);
        self.drain_ring(shard, &mut w);

        if data.len() > shard.capacity {
            return; // a page larger than the whole shard is never cached
        }

        if let Some(&idx) = w.map.get(&key) {
            // Update in place: publish a fresh entry, retire the old one.
            let old_bytes = w.meta[idx as usize].bytes as usize;
            let new = Box::into_raw(Box::new(CacheEntry {
                key,
                data: data.clone(),
            }));
            let old = shard.slots[idx as usize].swap(new, Ordering::SeqCst);
            shard.retire(old);
            w.bytes = w.bytes - old_bytes + data.len();
            if w.meta[idx as usize].seg == Seg::Small {
                w.small_bytes = w.small_bytes - old_bytes + data.len();
            }
            w.meta[idx as usize].bytes = data.len() as u32;
            self.touch(&mut w, idx);
            self.evict_to_capacity(shard, &mut w);
            return;
        }

        // Find a slot in the probe window; displace an occupant if the
        // window is full (rare: tables hold ~4x the page budget).
        let mask = shard.slots.len() - 1;
        let base = Self::mix(key) as usize;
        let mut slot = None;
        for i in 0..PROBE {
            let s = (base + i) & mask;
            if w.meta[s].seg == Seg::Free {
                slot = Some(s as u32);
                break;
            }
        }
        let idx = match slot {
            Some(s) => s,
            None => {
                // Displace the stalest *probationary* occupant when one
                // exists, so hash collisions cannot let a streaming flood
                // evict protected main-segment pages (under Lru every
                // occupant is Seg::Small, preserving the original
                // min-stamp displacement). If the whole window is
                // protected, a streaming page is not worth displacing
                // main pages for — refuse admission; a point lookup
                // falls back to min-stamp displacement.
                let window = || (0..PROBE).map(|i| ((base + i) & mask) as u32);
                let victim = window()
                    .filter(|&s| w.meta[s as usize].seg == Seg::Small)
                    .min_by_key(|&s| w.meta[s as usize].stamp);
                let victim = match victim {
                    Some(v) => v,
                    None if priority == CachePriority::Streaming => return,
                    None => window()
                        .min_by_key(|&s| w.meta[s as usize].stamp)
                        .expect("probe window is non-empty"),
                };
                self.remove_slot(shard, &mut w, victim);
                victim
            }
        };

        let seg = self.admit(key, priority);
        w.tick += 1;
        let stamp = w.tick;
        {
            let m = &mut w.meta[idx as usize];
            m.key = key;
            m.bytes = data.len() as u32;
            m.freq = 0;
            m.stamp = stamp;
        }
        push_front(&mut w, idx, seg);
        w.bytes += data.len();
        if seg == Seg::Small {
            w.small_bytes += data.len();
        }
        w.map.insert(key, idx);
        w.by_run.entry(run).or_default().insert(idx);

        let new = Box::into_raw(Box::new(CacheEntry { key, data }));
        let old = shard.slots[idx as usize].swap(new, Ordering::SeqCst);
        debug_assert!(old.is_null(), "slot was vacated above");
        self.evict_to_capacity(shard, &mut w);
    }

    /// Segment a brand-new page is admitted to.
    fn admit(&self, key: Key, priority: CachePriority) -> Seg {
        match self.policy {
            CachePolicy::Lru => Seg::Small,
            CachePolicy::ScanResistant => match priority {
                CachePriority::Streaming => Seg::Small,
                CachePriority::Point => {
                    let ghost = self.ghost.as_ref().expect("scan-resistant has a ghost");
                    if ghost.estimate(&Self::ghost_key(key)) > 0 {
                        Seg::Main
                    } else {
                        Seg::Small
                    }
                }
            },
        }
    }

    fn ghost_key(key: Key) -> [u8; 12] {
        let mut out = [0u8; 12];
        out[..8].copy_from_slice(&key.0.to_le_bytes());
        out[8..].copy_from_slice(&key.1.to_le_bytes());
        out
    }

    /// Applies one recency touch under the writer lock.
    fn touch(&self, w: &mut ShardWriter, idx: u32) {
        w.tick += 1;
        w.meta[idx as usize].stamp = w.tick;
        match self.policy {
            CachePolicy::Lru => {
                unlink(w, idx);
                push_front(w, idx, Seg::Small);
            }
            CachePolicy::ScanResistant => {
                let f = &mut w.meta[idx as usize].freq;
                *f = (*f + 1).min(FREQ_CAP);
            }
        }
    }

    /// Drains the shard's deferred access ring in arrival order.
    fn drain_ring(&self, shard: &Shard, w: &mut ShardWriter) {
        let head = shard.ring_head.load(Ordering::Acquire);
        let start = w.drained.max(head.saturating_sub(RING as u64));
        for pos in start..head {
            let v = shard.ring[pos as usize & (RING - 1)].swap(0, Ordering::Relaxed);
            if v == 0 {
                continue;
            }
            let idx = (v - 1) as u32;
            if w.meta[idx as usize].seg != Seg::Free {
                self.touch(w, idx);
            }
        }
        w.drained = head;
    }

    /// Fully removes one occupied slot: unpublish, wait out readers,
    /// unindex, free.
    fn remove_slot(&self, shard: &Shard, w: &mut ShardWriter, idx: u32) {
        let old = shard.slots[idx as usize].swap(ptr::null_mut(), Ordering::SeqCst);
        shard.retire(old);
        let (key, bytes, seg) = {
            let m = &w.meta[idx as usize];
            (m.key, m.bytes as usize, m.seg)
        };
        unlink(w, idx);
        w.meta[idx as usize].seg = Seg::Free;
        w.bytes -= bytes;
        if seg == Seg::Small {
            w.small_bytes -= bytes;
        }
        w.map.remove(&key);
        if let Some(set) = w.by_run.get_mut(&key.0) {
            set.remove(&idx);
            if set.is_empty() {
                w.by_run.remove(&key.0);
            }
        }
    }

    /// Evicts until the shard is within its byte budget.
    fn evict_to_capacity(&self, shard: &Shard, w: &mut ShardWriter) {
        while w.bytes > shard.capacity {
            match self.policy {
                CachePolicy::Lru => {
                    let victim = w.small.tail;
                    debug_assert_ne!(victim, NO_SLOT);
                    self.remove_slot(shard, w, victim);
                }
                CachePolicy::ScanResistant => self.s3_evict_one(shard, w),
            }
        }
    }

    /// One S3-FIFO eviction: probationary pages with a re-reference are
    /// promoted to main; main pages get a second chance; evictions from
    /// probation are remembered in the ghost sketch.
    fn s3_evict_one(&self, shard: &Shard, w: &mut ShardWriter) {
        let ghost = self.ghost.as_ref().expect("scan-resistant has a ghost");
        loop {
            let from_small =
                !w.small.is_empty() && (w.small_bytes > shard.small_target || w.main.is_empty());
            if from_small {
                let v = w.small.tail;
                let (freq, bytes, key) = {
                    let m = &w.meta[v as usize];
                    (m.freq, m.bytes as usize, m.key)
                };
                if freq > 0 {
                    // Promote: re-referenced while on probation.
                    unlink(w, v);
                    w.small_bytes -= bytes;
                    w.meta[v as usize].freq = 0;
                    push_front(w, v, Seg::Main);
                    continue;
                }
                ghost.observe(&Self::ghost_key(key));
                if ghost.observed() >= self.ghost_reset_at {
                    ghost.reset(); // age out stale ghosts
                }
                self.remove_slot(shard, w, v);
                return;
            } else if !w.main.is_empty() {
                let v = w.main.tail;
                if w.meta[v as usize].freq > 0 {
                    // Second chance.
                    w.meta[v as usize].freq -= 1;
                    unlink(w, v);
                    push_front(w, v, Seg::Main);
                    continue;
                }
                self.remove_slot(shard, w, v);
                return;
            } else {
                debug_assert_eq!(w.bytes, 0, "nonzero bytes with empty lists");
                return;
            }
        }
    }

    /// Drops every cached page of `run` (called when a run is deleted after
    /// a merge so stale pages can never be served). O(cached pages of the
    /// run) via the per-run page index — one pointer unpublish per page and
    /// a single reader grace period per shard.
    pub fn evict_run(&self, run: RunId) {
        for shard in &self.shards {
            let mut w = shard.writer.lock();
            let Some(slots) = w.by_run.remove(&run) else {
                continue;
            };
            self.drain_ring(shard, &mut w);
            let mut olds = Vec::with_capacity(slots.len());
            for idx in slots {
                let old = shard.slots[idx as usize].swap(ptr::null_mut(), Ordering::SeqCst);
                if !old.is_null() {
                    olds.push(old);
                }
                let (key, bytes, seg) = {
                    let m = &w.meta[idx as usize];
                    (m.key, m.bytes as usize, m.seg)
                };
                if seg == Seg::Free {
                    continue;
                }
                unlink(&mut w, idx);
                w.meta[idx as usize].seg = Seg::Free;
                w.bytes -= bytes;
                if seg == Seg::Small {
                    w.small_bytes -= bytes;
                }
                w.map.remove(&key);
            }
            shard.grace();
            for old in olds {
                // SAFETY: unpublished above and past the grace period.
                unsafe { drop(Box::from_raw(old)) };
            }
        }
    }

    /// Current hit/miss/insert counters (summed over the per-shard
    /// counters).
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for shard in &self.shards {
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
            stats.inserts += shard.inserts.load(Ordering::Relaxed);
        }
        stats
    }

    /// Bytes currently cached across all shards.
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.writer.lock().bytes).sum()
    }
}

impl Drop for BlockCache {
    fn drop(&mut self) {
        // `&mut self`: no readers can exist; free everything published.
        for shard in &self.shards {
            for slot in shard.slots.iter() {
                let p = slot.swap(ptr::null_mut(), Ordering::SeqCst);
                if !p.is_null() {
                    // SAFETY: exclusive access; pointer came from Box::into_raw.
                    unsafe { drop(Box::from_raw(p)) };
                }
            }
        }
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
    fn scan_resistant_streaming_pages_stay_probationary() {
        // One shard's worth of point working set, then a huge streaming
        // sweep: the point pages must survive, the sweep must not.
        let cap = 16 * 4096;
        let c = BlockCache::with_config(CacheConfig::scan_resistant(cap).with_page_size(64));
        // Establish a small hot set with repeated point reads (promoted to
        // the main segment via ring-drain freq bumps).
        for round in 0..4 {
            for p in 0..32u32 {
                if round == 0 {
                    c.insert(1, p, page(1, 64));
                } else {
                    c.get(1, p);
                    c.insert(7, 1000 + p + round, page(0, 64)); // drain the ring
                }
            }
        }
        // A scan 16x the cache size, tagged streaming.
        for p in 0..(cap as u32 / 64) * 16 {
            c.insert_with(2, p, page(2, 64), CachePriority::Streaming);
        }
        let hot_live = (0..32u32).filter(|&p| c.get(1, p).is_some()).count();
        assert!(
            hot_live >= 24,
            "hot point pages survive a streaming flood (live: {hot_live}/32)"
        );
    }

    #[test]
    fn lru_policy_is_flushed_by_scans_scan_resistant_is_not() {
        // The head-to-head the admission policy exists for.
        let cap = 16 * 2048;
        let survivors = |cfg: CacheConfig| {
            let c = BlockCache::with_config(cfg.with_page_size(64));
            for p in 0..24u32 {
                c.insert(1, p, page(1, 64));
            }
            for _ in 0..3 {
                for p in 0..24u32 {
                    c.get(1, p);
                }
                c.insert(3, 9999, page(3, 64)); // force a ring drain
            }
            for p in 0..(cap as u32 / 64) * 8 {
                c.insert_with(2, p, page(2, 64), CachePriority::Streaming);
            }
            (0..24u32).filter(|&p| c.get(1, p).is_some()).count()
        };
        let lru = survivors(CacheConfig::lru(cap));
        let s3 = survivors(CacheConfig::scan_resistant(cap));
        assert!(
            s3 > lru,
            "scan-resistant keeps more of the hot set (s3: {s3}, lru: {lru})"
        );
        assert_eq!(lru, 0, "plain LRU is fully flushed by a large scan");
    }

    #[test]
    fn streaming_collisions_cannot_displace_main_pages() {
        // Regression: with a full probe window, displacement used to pick
        // the min-stamp occupant regardless of segment, so a streaming
        // flood could evict protected main-segment pages through hash
        // collisions. Build a slot-scarce shard (capacity 1024 B/shard
        // with a 4096 B page-size hint clamps the table to the 16-slot
        // minimum) so 64-byte pages keep every 8-slot probe window full,
        // promote a hot set into main, then flood with streaming inserts.
        let c =
            BlockCache::with_config(CacheConfig::scan_resistant(16 * 1024).with_page_size(4096));
        let shard0_keys = |run: RunId, n: usize| -> Vec<u32> {
            (0u32..)
                .filter(|&p| BlockCache::shard_of(run, p) == 0)
                .take(n)
                .collect()
        };
        let hot = shard0_keys(1, 12);
        for &p in &hot {
            c.insert(1, p, page(1, 64)); // 768 B of hot pages in shard 0
        }
        for &p in &hot {
            c.get(1, p); // ring-buffered freq bumps
        }
        // One 512 B filler pushes the shard past its 1024 B budget (a
        // 64 B filler could displace instead of adding byte pressure):
        // the insert drains the ring (hot pages now have freq > 0), and
        // the eviction pass promotes the hot set to the main segment,
        // then evicts the freq-0 filler itself.
        c.insert(3, shard0_keys(3, 1)[0], page(3, 512));
        let live_before: Vec<u32> = hot
            .iter()
            .copied()
            .filter(|&p| c.get(1, p).is_some())
            .collect();
        assert!(
            live_before.len() >= 8,
            "most of the hot set reached main (live: {}/12)",
            live_before.len()
        );
        // Streaming flood 16x the shard's page budget. Every probe window
        // is full; the only victims it may displace are probationary.
        for p in shard0_keys(9, 256) {
            c.insert_with(9, p, page(9, 64), CachePriority::Streaming);
        }
        for &p in &live_before {
            assert!(
                c.get(1, p).is_some(),
                "main-segment page (1, {p}) displaced by a streaming collision"
            );
        }
    }

    #[test]
    fn ghost_readmits_to_main() {
        let c = BlockCache::with_config(CacheConfig::scan_resistant(16 * 1024).with_page_size(64));
        // Fill probation and churn so key (1,0) is evicted through the
        // probationary tail (entering the ghost), then re-insert it.
        c.insert(1, 0, page(1, 64));
        for p in 0..1000u32 {
            c.insert(2, p, page(2, 64));
        }
        assert!(c.get(1, 0).is_none(), "churned out of probation");
        c.insert(1, 0, page(1, 64));
        // A ghost-admitted page sits in main: the same churn that evicted
        // it before now cannot (main is evicted only once probation is
        // below its target, and churn keeps probation full).
        for p in 2000..2300u32 {
            c.insert(2, p, page(2, 64));
        }
        assert!(c.get(1, 0).is_some(), "ghost hit re-admitted into main");
    }

    #[test]
    fn concurrent_hits_need_no_lock() {
        // Smoke-level: readers make progress while a writer thread holds
        // every shard's writer mutex hostage via slow inserts. The real
        // stress lives in tests/cache_stress.rs.
        use std::sync::atomic::AtomicBool;
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
                    let mut hits = 0u64;
                    let mut i = t;
                    while !stop.load(Ordering::Relaxed) {
                        let p = (i % 64) as u32;
                        if let Some(b) = c.get(1, p) {
                            assert_eq!(b[0], (p % 251) as u8, "torn read");
                            hits += 1;
                        }
                        i += 1;
                    }
                    hits
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
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0, "readers made progress");
    }
}
