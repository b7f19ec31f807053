//! Backend I/O latency: per-op, per-level log2 histograms with sampled
//! timing and a page-cache-vs-device mode split.
//!
//! `IoStats` counts pages; this module times them. A caller brackets each
//! backend call — page read, sequential read, page write, sync — with
//! [`IoLatency::op_start`]/[`IoLatency::record`]. The engine's `Disk` no
//! longer does so. Timing is sampled 1-in-[`IO_SAMPLE_PERIOD`] for the
//! page ops (the same thread-local tick scheme as op latency); syncs are
//! rare and always timed.
//!
//! Buffered backends hide a second distribution inside every histogram:
//! a read served by the OS page cache completes in microseconds while a
//! read that misses to the device takes orders of magnitude longer. The
//! log2 buckets keep both modes visible, and [`mode_split`] infers the
//! boundary between them from the histogram's bimodality — the fast-mode
//! occupancy and the threshold.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::attribution::LEVEL_SLOTS;
use crate::hist::{HistogramSnapshot, LatencyHistogram};

/// Backend operations with dedicated latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// A seek-then-read page fetch (point lookups, scan starts).
    ReadPage = 0,
    /// A read at the current file position (scan continuation).
    ReadPageSequential = 1,
    /// One page appended to a run under construction.
    WritePage = 2,
    /// A run seal: durability barrier (`fsync` on file backends).
    Sync = 3,
}

/// All backend op kinds, in histogram index order.
pub const IO_OPS: [IoOp; 4] = [
    IoOp::ReadPage,
    IoOp::ReadPageSequential,
    IoOp::WritePage,
    IoOp::Sync,
];

impl IoOp {
    /// Label used in report rows and the `op=` Prometheus label.
    pub fn name(self) -> &'static str {
        match self {
            IoOp::ReadPage => "read_page",
            IoOp::ReadPageSequential => "read_page_sequential",
            IoOp::WritePage => "write_page",
            IoOp::Sync => "sync",
        }
    }

    /// Page ops are duration-sampled; syncs are rare and always timed.
    #[inline]
    fn sampled(self) -> bool {
        !matches!(self, IoOp::Sync)
    }
}

/// One in this many page reads/writes has its duration recorded. Power
/// of two; the modulo compiles to a mask.
pub const IO_SAMPLE_PERIOD: u64 = 32;

thread_local! {
    static IO_SAMPLE_TICK: Cell<u64> = const { Cell::new(0) };
}

/// Per-(op, level) backend latency histograms plus exact op counters.
///
/// Level slots mirror [`crate::IoAttribution`]: slot 0 collects I/O on
/// untagged runs, slots `1..` are tree levels. The whole table is ~70 KiB
/// of atomics — flat arrays, no locks, recordable from any thread.
pub struct IoLatency {
    ops: [AtomicU64; IO_OPS.len()],
    hists: [[LatencyHistogram; LEVEL_SLOTS]; IO_OPS.len()],
}

impl Default for IoLatency {
    fn default() -> Self {
        Self::new()
    }
}

impl IoLatency {
    pub fn new() -> Self {
        Self {
            ops: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| std::array::from_fn(|_| LatencyHistogram::new())),
        }
    }

    /// Count one backend op and decide whether to time it. Returns the
    /// start instant only when this call was chosen for duration
    /// sampling; pass it to [`IoLatency::record`] with the op's level.
    #[inline]
    pub fn op_start(&self, op: IoOp) -> Option<Instant> {
        self.ops[op as usize].fetch_add(1, Ordering::Relaxed);
        if op.sampled() {
            let chosen = IO_SAMPLE_TICK.with(|t| {
                let v = t.get();
                t.set(v.wrapping_add(1));
                v % IO_SAMPLE_PERIOD == 0
            });
            if !chosen {
                return None;
            }
        }
        Some(Instant::now())
    }

    /// Record the sampled duration started by [`IoLatency::op_start`]
    /// against `level` (0 = unattributed; deep levels clamp).
    #[inline]
    pub fn record(&self, op: IoOp, level: usize, started: Instant) {
        let slot = level.min(LEVEL_SLOTS - 1);
        self.hists[op as usize][slot].record(started.elapsed().as_nanos() as u64);
    }

    /// Exact number of backend calls of `op` (every call, not just
    /// sampled ones).
    pub fn op_count(&self, op: IoOp) -> u64 {
        self.ops[op as usize].load(Ordering::Relaxed)
    }

    /// Snapshot `op`'s per-level histograms; index 0 is the unattributed
    /// slot.
    pub fn snapshot(&self, op: IoOp) -> Vec<HistogramSnapshot> {
        self.hists[op as usize]
            .iter()
            .map(|h| h.snapshot())
            .collect()
    }

    /// Zero every histogram and counter.
    pub fn reset(&self) {
        for c in &self.ops {
            c.store(0, Ordering::Relaxed);
        }
        for per_level in &self.hists {
            for h in per_level {
                h.reset();
            }
        }
    }
}

/// The inferred page-cache-vs-device split of one latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeSplit {
    /// Fraction of samples in the fast mode (at or below the threshold).
    /// 1.0 when the distribution is unimodal — a single mode is read as
    /// "everything completes at the same tier", which for buffered
    /// backends means the page cache.
    pub fast_fraction: f64,
    /// Upper edge (nanoseconds) of the valley bucket separating the two
    /// modes; 0 when no credible second mode was found.
    pub threshold_nanos: u64,
}

impl ModeSplit {
    fn unimodal() -> Self {
        Self {
            fast_fraction: 1.0,
            threshold_nanos: 0,
        }
    }
}

/// Infer a fast/slow mode split from a log2 histogram's bimodality.
///
/// The two modes of a buffered backend sit orders of magnitude apart, so
/// in log2 buckets they show up as two peaks with a valley between them.
/// The heuristic: take the global peak, then look for a second peak at
/// least two buckets away (≥4× latency difference) whose separating
/// valley dips below half of both peaks. The threshold is the upper edge
/// of the valley's emptiest bucket. No credible second peak — too close,
/// too small (<1% of samples), or no valley — reads as unimodal.
pub fn mode_split(h: &HistogramSnapshot) -> ModeSplit {
    if h.count == 0 {
        return ModeSplit::unimodal();
    }
    let buckets = &h.buckets;
    let p1 = (0..buckets.len()).max_by_key(|&i| buckets[i]).unwrap_or(0);
    let min_peak = (h.count / 100).max(1);
    let mut best: Option<(usize, u64)> = None; // (second peak index, height)
    for (j, &height) in buckets.iter().enumerate() {
        if j.abs_diff(p1) < 2 || height < min_peak {
            continue;
        }
        let (lo, hi) = (p1.min(j), p1.max(j));
        let valley = buckets[lo + 1..hi]
            .iter()
            .copied()
            .min()
            .unwrap_or(u64::MAX);
        if valley < height / 2 && valley < buckets[p1] / 2 {
            match best {
                Some((_, h2)) if h2 >= height => {}
                _ => best = Some((j, height)),
            }
        }
    }
    let Some((p2, _)) = best else {
        return ModeSplit::unimodal();
    };
    let (lo, hi) = (p1.min(p2), p1.max(p2));
    let valley = (lo + 1..hi)
        .min_by_key(|&i| buckets[i])
        .expect("peaks are >= 2 buckets apart");
    // Bucket `b >= 1` covers `[2^(b-1), 2^b)`; its upper edge is `2^b`.
    let threshold_nanos = 1u64 << valley.min(62);
    let below: u64 = buckets[..=valley].iter().sum();
    ModeSplit {
        fast_fraction: below as f64 / h.count as f64,
        threshold_nanos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_ops_count_exactly_but_time_sparsely() {
        let lat = IoLatency::new();
        for _ in 0..(IO_SAMPLE_PERIOD * 4) {
            if let Some(s) = lat.op_start(IoOp::ReadPage) {
                lat.record(IoOp::ReadPage, 1, s);
            }
        }
        assert_eq!(lat.op_count(IoOp::ReadPage), IO_SAMPLE_PERIOD * 4);
        let sampled: u64 = lat.snapshot(IoOp::ReadPage).iter().map(|h| h.count).sum();
        assert!(sampled >= 4, "sampled={sampled}");
        assert!(sampled <= IO_SAMPLE_PERIOD * 4 / 8);
    }

    #[test]
    fn syncs_always_timed_and_levels_attributed() {
        let lat = IoLatency::new();
        for _ in 0..10 {
            let s = lat.op_start(IoOp::Sync).expect("syncs are always timed");
            lat.record(IoOp::Sync, 3, s);
        }
        let per_level = lat.snapshot(IoOp::Sync);
        assert_eq!(per_level[3].count, 10);
        assert_eq!(per_level[0].count, 0);
        assert_eq!(lat.op_count(IoOp::Sync), 10);
        lat.reset();
        assert_eq!(lat.op_count(IoOp::Sync), 0);
        assert_eq!(lat.snapshot(IoOp::Sync)[3].count, 0);
    }

    #[test]
    fn deep_levels_clamp_into_last_slot() {
        let lat = IoLatency::new();
        let s = lat.op_start(IoOp::Sync).unwrap();
        lat.record(IoOp::Sync, 500, s);
        assert_eq!(lat.snapshot(IoOp::Sync)[LEVEL_SLOTS - 1].count, 1);
    }

    #[test]
    fn bimodal_split_finds_the_valley() {
        let h = LatencyHistogram::new();
        // Fast mode around 2us (bucket 12), slow mode around 2ms (bucket 22).
        for _ in 0..700 {
            h.record(2_048);
        }
        for _ in 0..300 {
            h.record(2_097_152);
        }
        let split = mode_split(&h.snapshot());
        assert!(
            (split.fast_fraction - 0.7).abs() < 1e-9,
            "fast={}",
            split.fast_fraction
        );
        // The valley sits strictly between the two modes.
        assert!(split.threshold_nanos > 2_048);
        assert!(split.threshold_nanos <= 2_097_152);
    }

    #[test]
    fn unimodal_distributions_read_as_all_fast() {
        let h = LatencyHistogram::new();
        for i in 0..100u64 {
            h.record(1_000 + i); // one bucket, plus neighbours
        }
        let split = mode_split(&h.snapshot());
        assert_eq!(split.fast_fraction, 1.0);
        assert_eq!(split.threshold_nanos, 0);
        assert_eq!(
            mode_split(&HistogramSnapshot::empty()),
            ModeSplit::unimodal()
        );
    }

    #[test]
    fn tiny_outlier_clusters_do_not_register_as_a_mode() {
        let h = LatencyHistogram::new();
        for _ in 0..10_000 {
            h.record(2_048);
        }
        h.record(2_097_152); // a lone slow sample: noise, not a mode
        let split = mode_split(&h.snapshot());
        assert_eq!(split.fast_fraction, 1.0);
    }
}
