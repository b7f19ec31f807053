//! Two records, one `Arc`-shareable each: the per-level [`LookupTable`]
//! of point-lookup probe traffic, and the optional [`Telemetry`] hub.
//!
//! Hot-path cost model: every shard owns a lookup table from open,
//! whatever `DbOptions::telemetry` says, so a lookup pays one relaxed
//! `fetch_add` for its key hash and one per probed run that the filter
//! rejects; a filter pass adds its pass and page-read counts. Everything
//! else lives in the hub, which the engine holds as an
//! `Option<Arc<Telemetry>>`: with telemetry off each op pays one `None`
//! branch for it. With it on, every op bumps one sharded counter (exact
//! op totals) and — for the high-frequency ops `get`/`put`/`range` — takes
//! a duration sample only one op in [`SAMPLE_PERIOD`], keeping the two
//! `Instant::now()` calls off most iterations. Rare, long ops (flush,
//! cascade) are always timed. Nothing on an instrumented hot path
//! allocates.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::attribution::{IoAttribution, LEVEL_SLOTS, MAX_LEVELS};
use crate::counter::ShardedCounter;
use crate::events::{Event, EventKind, EventRing};
use crate::hist::{HistogramSnapshot, LatencyHistogram};

/// Operations with dedicated latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Get = 0,
    Put = 1,
    Range = 2,
    Flush = 3,
    Cascade = 4,
    /// One merge operation inside a cascade (a cascade performs zero or
    /// more merges; this histogram shows their individual durations).
    Merge = 5,
}

/// All op kinds, in histogram index order.
pub const OP_KINDS: [OpKind; 6] = [
    OpKind::Get,
    OpKind::Put,
    OpKind::Range,
    OpKind::Flush,
    OpKind::Cascade,
    OpKind::Merge,
];

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Put => "put",
            OpKind::Range => "range",
            OpKind::Flush => "flush",
            OpKind::Cascade => "cascade",
            OpKind::Merge => "merge",
        }
    }

    /// High-frequency ops are duration-sampled; rare ops are always timed.
    #[inline]
    fn sampled(self) -> bool {
        matches!(self, OpKind::Get | OpKind::Put | OpKind::Range)
    }
}

/// One in this many `get`/`put`/`range` calls has its duration recorded.
/// Power of two; the modulo below compiles to a mask.
pub const SAMPLE_PERIOD: u64 = 32;

thread_local! {
    static SAMPLE_TICK: Cell<u64> = const { Cell::new(0) };
}

/// Negatives are derived (`probes - passes`) rather than stored so the
/// dominant path of a zero-result lookup — probe, filter says no — costs
/// exactly one `fetch_add` per run instead of two. Passes are rare and
/// always accompanied by a page read that dwarfs the extra increment.
#[derive(Default)]
struct LevelLookup {
    filter_probes: AtomicU64,
    filter_passes: AtomicU64,
    filter_false_positives: AtomicU64,
    lookup_page_reads: AtomicU64,
}

/// Point-lookup traffic, level by level: the one record the engine keeps
/// of it. Measured `FPR_i` and the store-wide `LookupStats` both read this
/// table. Shaped like [`IoAttribution`]: plain relaxed atomics per level
/// slot behind the owner's `Arc`, slot 0 unattributed and levels deeper
/// than [`MAX_LEVELS`] clamped into the last slot.
pub struct LookupTable {
    key_hashes: AtomicU64,
    levels: [LevelLookup; LEVEL_SLOTS],
}

impl Default for LookupTable {
    fn default() -> Self {
        Self::new()
    }
}

impl LookupTable {
    pub fn new() -> Self {
        Self {
            key_hashes: AtomicU64::new(0),
            levels: std::array::from_fn(|_| LevelLookup::default()),
        }
    }

    #[inline]
    fn level(&self, level: usize) -> &LevelLookup {
        &self.levels[level.min(MAX_LEVELS)]
    }

    /// Record a lookup that reached the disk levels and hashed its key.
    #[inline]
    pub fn record_key_hash(&self) {
        self.key_hashes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a filter probe against a run on `level` (1-based) and
    /// whether the filter said "definitely absent". The negative path is
    /// the hot one and does a single relaxed `fetch_add`.
    #[inline]
    pub fn record_filter_probe(&self, level: usize, negative: bool) {
        let l = self.level(level);
        l.filter_probes.fetch_add(1, Ordering::Relaxed);
        if !negative {
            l.filter_passes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a confirmed filter false positive on `level`: the filter
    /// said "maybe", the page said no — one wasted I/O.
    #[inline]
    pub fn record_false_positive(&self, level: usize) {
        self.level(level)
            .filter_false_positives
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record a data-page read performed by a point lookup on `level`.
    #[inline]
    pub fn record_lookup_read(&self, level: usize) {
        self.level(level)
            .lookup_page_reads
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Lookups that reached the disk levels; each hashed its key once.
    pub fn key_hashes(&self) -> u64 {
        self.key_hashes.load(Ordering::Relaxed)
    }

    /// Snapshot all level slots; index 0 is the unattributed slot.
    pub fn snapshot(&self) -> Vec<LevelLookupSnapshot> {
        self.levels
            .iter()
            .map(|l| {
                let probes = l.filter_probes.load(Ordering::Relaxed);
                let passes = l.filter_passes.load(Ordering::Relaxed);
                LevelLookupSnapshot {
                    filter_probes: probes,
                    // Saturating: a racing probe may have bumped `passes`
                    // before this thread's `probes` load saw it.
                    filter_negatives: probes.saturating_sub(passes),
                    filter_false_positives: l.filter_false_positives.load(Ordering::Relaxed),
                    lookup_page_reads: l.lookup_page_reads.load(Ordering::Relaxed),
                }
            })
            .collect()
    }
}

/// Point-in-time copy of one level's lookup-path counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelLookupSnapshot {
    /// Bloom filter membership tests against runs on this level.
    pub filter_probes: u64,
    /// Probes the filter rejected (saving a page read).
    pub filter_negatives: u64,
    /// Probes the filter passed but the run did not contain the key.
    pub filter_false_positives: u64,
    /// Data pages fetched on this level by point lookups.
    pub lookup_page_reads: u64,
}

impl LevelLookupSnapshot {
    /// Field-wise sum — aggregates one level's lookup counters across
    /// shards.
    pub fn merge(&mut self, other: &LevelLookupSnapshot) {
        self.filter_probes += other.filter_probes;
        self.filter_negatives += other.filter_negatives;
        self.filter_false_positives += other.filter_false_positives;
        self.lookup_page_reads += other.lookup_page_reads;
    }

    /// Probes against keys absent from the run: filter negatives plus
    /// confirmed false positives. Probes that found the key are true
    /// positives — the model's FPR says nothing about them.
    pub fn negative_trials(&self) -> u64 {
        self.filter_negatives + self.filter_false_positives
    }

    /// Empirical negative-query false-positive rate: of the probes where
    /// the key was absent from the run, the fraction the filter wrongly
    /// passed. True positives are excluded from the denominator so mixed
    /// workloads (existing-key lookups interleaved with misses) don't
    /// dilute the rate the model's FPR actually predicts.
    pub fn measured_fpr(&self) -> f64 {
        let trials = self.negative_trials();
        if trials == 0 {
            0.0
        } else {
            self.filter_false_positives as f64 / trials as f64
        }
    }
}

/// Shared telemetry hub: latency histograms, exact op counters, per-level
/// I/O attribution, the event ring, and a handle to its shard's
/// [`LookupTable`].
pub struct Telemetry {
    shard: u32,
    origin: Instant,
    hists: [LatencyHistogram; OP_KINDS.len()],
    op_counts: [ShardedCounter; OP_KINDS.len()],
    lookups: Arc<LookupTable>,
    attribution: Arc<IoAttribution>,
    events: EventRing,
}

impl Telemetry {
    /// Default event-ring capacity: enough for hours of steady-state flush
    /// traffic between scrapes without unbounded memory.
    pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

    /// A shard-0 hub over a lookup table of its own.
    pub fn new(event_capacity: usize) -> Self {
        Self::for_shard(0, event_capacity, Instant::now(), Arc::default())
    }

    /// A hub whose events are stamped with `shard` — the originating
    /// shard index on a multi-shard store — whose clock counts from
    /// `origin`, and which reads the shard's own `lookups` table. The
    /// shards of one store share an origin, so their timestamps merge
    /// into one timeline.
    pub fn for_shard(
        shard: u32,
        event_capacity: usize,
        origin: Instant,
        lookups: Arc<LookupTable>,
    ) -> Self {
        Self {
            shard,
            origin,
            hists: std::array::from_fn(|_| LatencyHistogram::new()),
            op_counts: std::array::from_fn(|_| ShardedCounter::new()),
            lookups,
            attribution: Arc::new(IoAttribution::new()),
            events: EventRing::for_shard(shard, event_capacity),
        }
    }

    /// The shard index stamped into this hub's events.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Microseconds since the hub's origin. Monotonic.
    pub fn now_micros(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Count an op and decide whether to time it. Returns the start
    /// instant only when this call was chosen for duration sampling; pass
    /// the result to [`Telemetry::op_end`].
    #[inline]
    pub fn op_start(&self, kind: OpKind) -> Option<Instant> {
        self.op_counts[kind as usize].incr();
        if kind.sampled() {
            let chosen = SAMPLE_TICK.with(|t| {
                let v = t.get();
                t.set(v.wrapping_add(1));
                v % SAMPLE_PERIOD == 0
            });
            if !chosen {
                return None;
            }
        }
        Some(Instant::now())
    }

    /// Record the sampled duration started by [`Telemetry::op_start`].
    #[inline]
    pub fn op_end(&self, kind: OpKind, started: Option<Instant>) {
        if let Some(s) = started {
            self.hists[kind as usize].record(s.elapsed().as_nanos() as u64);
        }
    }

    /// Record a pre-measured duration (used where the caller owns timing,
    /// e.g. a range cursor recording on drop).
    #[inline]
    pub fn record_nanos(&self, kind: OpKind, nanos: u64) {
        self.hists[kind as usize].record(nanos);
    }

    /// Append a structured event stamped with the current monotonic time.
    pub fn event(&self, kind: EventKind) {
        self.events.push(self.now_micros(), kind);
    }

    /// The shard's lookup table — the same one the engine writes.
    pub fn lookups(&self) -> &Arc<LookupTable> {
        &self.lookups
    }

    /// The I/O attribution table shared with the storage layer.
    pub fn attribution(&self) -> &Arc<IoAttribution> {
        &self.attribution
    }

    pub fn hist(&self, kind: OpKind) -> HistogramSnapshot {
        self.hists[kind as usize].snapshot()
    }

    /// Exact number of ops of `kind` (every call, not just sampled ones).
    pub fn op_count(&self, kind: OpKind) -> u64 {
        self.op_counts[kind as usize].get()
    }

    /// Drain the event timeline (consuming it).
    pub fn drain_events(&self) -> Vec<Event> {
        self.events.drain()
    }

    /// Events evicted from the ring before any drain saw them.
    pub fn events_dropped(&self) -> u64 {
        self.events.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_are_exact_while_durations_sample() {
        let t = Telemetry::new(16);
        for _ in 0..(SAMPLE_PERIOD * 4) {
            let s = t.op_start(OpKind::Get);
            t.op_end(OpKind::Get, s);
        }
        assert_eq!(t.op_count(OpKind::Get), SAMPLE_PERIOD * 4);
        let h = t.hist(OpKind::Get);
        // Sampled: far fewer recorded durations than ops, but at least one
        // per full period.
        assert!(h.count >= 4, "sampled count = {}", h.count);
        assert!(h.count <= SAMPLE_PERIOD * 4 / 8);
    }

    #[test]
    fn rare_ops_always_timed() {
        let t = Telemetry::new(16);
        for _ in 0..10 {
            let s = t.op_start(OpKind::Flush);
            assert!(s.is_some());
            t.op_end(OpKind::Flush, s);
        }
        assert_eq!(t.hist(OpKind::Flush).count, 10);
        assert_eq!(t.op_count(OpKind::Flush), 10);
    }

    #[test]
    fn level_lookup_counters() {
        let t = LookupTable::new();
        t.record_key_hash();
        t.record_filter_probe(1, true);
        t.record_filter_probe(1, false);
        t.record_false_positive(1);
        t.record_lookup_read(2);
        assert_eq!(t.key_hashes(), 1);
        let ls = t.snapshot();
        assert_eq!(ls[1].filter_probes, 2);
        assert_eq!(ls[1].filter_negatives, 1);
        assert_eq!(ls[1].filter_false_positives, 1);
        assert_eq!(ls[1].measured_fpr(), 0.5);
        assert_eq!(ls[2].lookup_page_reads, 1);
    }

    #[test]
    fn events_flow_through() {
        let t = Telemetry::new(4);
        t.event(EventKind::StallBegin { queue_depth: 3 });
        t.event(EventKind::StallEnd { waited_micros: 50 });
        let evs = t.drain_events();
        assert_eq!(evs.len(), 2);
        assert!(evs[0].ts_micros <= evs[1].ts_micros);
        assert!(t.drain_events().is_empty());
    }
}
