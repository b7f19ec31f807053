//! Windowed time-series over cumulative telemetry counters.
//!
//! The engine's counters (op totals, bytes flushed, stall time, per-level
//! I/O) are lifetime-cumulative: useful for "how much", useless for "how
//! fast *right now*". [`WindowedSeries`] turns them into rates by keeping a
//! bounded ring of periodic [`TelemetrySnapshot`]s and differencing each
//! new snapshot against the previous one. The engine no longer samples
//! itself into a series: a caller builds [`TelemetrySnapshot`]s and pushes
//! them, so every windowed quantity is deterministic.
//!
//! Concurrency model: one writer pushes snapshots and readers take the
//! internal mutex; nothing here sits on an operation path.
//!
//! Delta math is guarded against two classic footguns:
//! * **Counter resets** (a snapshot source that restarted): a current
//!   value below the previous one would underflow.
//!   We follow the Prometheus `rate()` convention — treat the current
//!   value as the delta, since the counter restarted from zero.
//! * **Zero-span windows** (two ticks in the same microsecond, or the very
//!   first snapshot): every rate degrades to `0.0`, never `NaN`/`inf`,
//!   never negative.

use std::sync::Mutex;

use crate::attribution::{LevelIoSnapshot, LEVEL_SLOTS};

/// Cumulative counter values captured at one instant, the unit the
/// windowed series differences. Plain data: the engine fills one from its
/// telemetry hub; tests fabricate them directly.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Microseconds since the telemetry origin at capture time.
    pub at_micros: u64,
    /// Lifetime point lookups (`get`).
    pub gets: u64,
    /// Lifetime updates (`put` + `delete`).
    pub puts: u64,
    /// Lifetime range lookups.
    pub ranges: u64,
    /// Lifetime bytes written by memtable flushes.
    pub bytes_flushed: u64,
    /// Lifetime entries rewritten by merge compactions (write-amp
    /// numerator; the denominator is the `puts` delta).
    pub entries_rewritten: u64,
    /// Lifetime count of writer stalls.
    pub stalls: u64,
    /// Lifetime microseconds writers spent stalled.
    pub stall_micros: u64,
    /// Per-level cumulative I/O (slot 0 = unattributed), one entry per
    /// attribution slot.
    pub level_io: Vec<LevelIoSnapshot>,
}

impl Default for TelemetrySnapshot {
    fn default() -> Self {
        Self {
            at_micros: 0,
            gets: 0,
            puts: 0,
            ranges: 0,
            bytes_flushed: 0,
            entries_rewritten: 0,
            stalls: 0,
            stall_micros: 0,
            level_io: vec![LevelIoSnapshot::default(); LEVEL_SLOTS],
        }
    }
}

/// Counter delta following the Prometheus `rate()` reset convention: if
/// the counter went backwards it must have restarted, so the current value
/// *is* the increase. Never underflows.
#[inline]
pub fn counter_delta(cur: u64, prev: u64) -> u64 {
    cur.checked_sub(prev).unwrap_or(cur)
}

/// Per-level I/O rates over one window, pages and bytes per second.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LevelIoRates {
    /// Page reads per second attributed to this level.
    pub reads_per_sec: f64,
    /// Page writes per second attributed to this level.
    pub writes_per_sec: f64,
    /// Bytes read per second attributed to this level.
    pub read_bytes_per_sec: f64,
    /// Bytes written per second attributed to this level.
    pub write_bytes_per_sec: f64,
}

impl LevelIoRates {
    /// True when every rate is zero (used to elide idle levels in output).
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }
}

/// Derived rates for one window — the difference of two adjacent
/// snapshots, normalised by the window span. All values are finite and
/// non-negative by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRates {
    /// Window start, microseconds since telemetry origin.
    pub start_micros: u64,
    /// Window end, microseconds since telemetry origin.
    pub end_micros: u64,
    /// Window span in seconds (0 collapses every rate to 0).
    pub span_secs: f64,
    /// Total user ops per second (gets + puts + ranges).
    pub ops_per_sec: f64,
    /// Point lookups per second.
    pub gets_per_sec: f64,
    /// Updates per second.
    pub puts_per_sec: f64,
    /// Range lookups per second.
    pub ranges_per_sec: f64,
    /// Flush throughput in bytes per second.
    pub bytes_flushed_per_sec: f64,
    /// Fraction of the window wall-clock that writers spent stalled.
    /// Can exceed 1.0 when several writers stall concurrently.
    pub stall_ratio: f64,
    /// Merge-rewritten entries per user update in this window (the
    /// windowed write amplification beyond the flush itself).
    pub write_amp: f64,
    /// Per-level I/O rates (slot 0 = unattributed).
    pub level_io: Vec<LevelIoRates>,
}

impl WindowRates {
    fn from_snapshots(prev: &TelemetrySnapshot, cur: &TelemetrySnapshot) -> Self {
        let span_micros = counter_delta(cur.at_micros, prev.at_micros);
        let span_secs = span_micros as f64 / 1e6;
        // One guarded division for everything rate-shaped: zero span (or a
        // clock that did not advance) yields 0, never inf/NaN.
        let per_sec = |delta: u64| {
            if span_secs > 0.0 {
                delta as f64 / span_secs
            } else {
                0.0
            }
        };
        let gets = counter_delta(cur.gets, prev.gets);
        let puts = counter_delta(cur.puts, prev.puts);
        let ranges = counter_delta(cur.ranges, prev.ranges);
        let rewritten = counter_delta(cur.entries_rewritten, prev.entries_rewritten);
        let stall_micros = counter_delta(cur.stall_micros, prev.stall_micros);
        let slots = cur.level_io.len().max(prev.level_io.len());
        let default_io = LevelIoSnapshot::default();
        let level_io = (0..slots)
            .map(|i| {
                let c = cur.level_io.get(i).unwrap_or(&default_io);
                let p = prev.level_io.get(i).unwrap_or(&default_io);
                LevelIoRates {
                    reads_per_sec: per_sec(counter_delta(c.reads, p.reads)),
                    writes_per_sec: per_sec(counter_delta(c.writes, p.writes)),
                    read_bytes_per_sec: per_sec(counter_delta(c.read_bytes, p.read_bytes)),
                    write_bytes_per_sec: per_sec(counter_delta(c.write_bytes, p.write_bytes)),
                }
            })
            .collect();
        WindowRates {
            start_micros: prev.at_micros,
            end_micros: cur.at_micros,
            span_secs,
            ops_per_sec: per_sec(gets + puts + ranges),
            gets_per_sec: per_sec(gets),
            puts_per_sec: per_sec(puts),
            ranges_per_sec: per_sec(ranges),
            bytes_flushed_per_sec: per_sec(counter_delta(cur.bytes_flushed, prev.bytes_flushed)),
            stall_ratio: if span_micros > 0 {
                stall_micros as f64 / span_micros as f64
            } else {
                0.0
            },
            write_amp: if puts > 0 {
                rewritten as f64 / puts as f64
            } else {
                0.0
            },
            level_io,
        }
    }

    /// Folds another shard's window into this one, giving the store's: the
    /// window spans both, throughputs and the stall ratio sum, `write_amp`
    /// is the mean weighted by each side's update rate.
    pub fn merge(&mut self, other: &WindowRates) {
        self.start_micros = self.start_micros.min(other.start_micros);
        self.end_micros = self.end_micros.max(other.end_micros);
        self.span_secs = self.span_secs.max(other.span_secs);
        let puts = self.puts_per_sec + other.puts_per_sec;
        self.write_amp = if puts > 0.0 {
            (self.write_amp * self.puts_per_sec + other.write_amp * other.puts_per_sec) / puts
        } else {
            0.0
        };
        self.ops_per_sec += other.ops_per_sec;
        self.gets_per_sec += other.gets_per_sec;
        self.puts_per_sec = puts;
        self.ranges_per_sec += other.ranges_per_sec;
        self.bytes_flushed_per_sec += other.bytes_flushed_per_sec;
        self.stall_ratio += other.stall_ratio;
        if self.level_io.len() < other.level_io.len() {
            self.level_io
                .resize(other.level_io.len(), LevelIoRates::default());
        }
        for (slot, rates) in self.level_io.iter_mut().zip(&other.level_io) {
            slot.reads_per_sec += rates.reads_per_sec;
            slot.writes_per_sec += rates.writes_per_sec;
            slot.read_bytes_per_sec += rates.read_bytes_per_sec;
            slot.write_bytes_per_sec += rates.write_bytes_per_sec;
        }
    }
}

/// Exponentially weighted moving average with a fixed smoothing factor.
/// `None` until the first sample; thereafter `v ← α·x + (1−α)·v`.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// `alpha` is clamped into `(0, 1]`; 1 means "no smoothing".
    pub fn new(alpha: f64) -> Self {
        Self {
            alpha: alpha.clamp(f64::EPSILON, 1.0),
            value: None,
        }
    }

    /// Fold one observation in and return the smoothed value.
    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
        };
        self.value = Some(v);
        v
    }

    /// Current smoothed value, or `None` before any sample.
    pub fn get(&self) -> Option<f64> {
        self.value
    }
}

/// EWMA-smoothed headline rates, updated once per recorded window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SmoothedRates {
    /// Smoothed total ops per second.
    pub ops_per_sec: f64,
    /// Smoothed flush throughput, bytes per second.
    pub bytes_flushed_per_sec: f64,
    /// Smoothed stall ratio.
    pub stall_ratio: f64,
    /// Smoothed windowed write amplification.
    pub write_amp: f64,
}

/// Default EWMA smoothing factor: ~86 % of the weight sits in the last
/// ten windows.
pub const DEFAULT_EWMA_ALPHA: f64 = 0.2;

struct SeriesInner {
    last_snapshot: Option<TelemetrySnapshot>,
    windows: Vec<WindowRates>,
    evicted: u64,
    ops: Ewma,
    flush_bytes: Ewma,
    stall: Ewma,
    write_amp: Ewma,
}

/// Bounded ring of per-window rates with EWMA smoothing.
///
/// `record` takes the next cumulative snapshot, appends the window it
/// closes, and evicts the oldest window beyond `retention`. The first
/// snapshot only establishes a baseline and produces no window.
pub struct WindowedSeries {
    retention: usize,
    inner: Mutex<SeriesInner>,
}

impl WindowedSeries {
    /// `retention` is the maximum number of windows kept (min 1);
    /// `alpha` the EWMA smoothing factor (see [`DEFAULT_EWMA_ALPHA`]).
    pub fn new(retention: usize, alpha: f64) -> Self {
        Self {
            retention: retention.max(1),
            inner: Mutex::new(SeriesInner {
                last_snapshot: None,
                windows: Vec::new(),
                evicted: 0,
                ops: Ewma::new(alpha),
                flush_bytes: Ewma::new(alpha),
                stall: Ewma::new(alpha),
                write_amp: Ewma::new(alpha),
            }),
        }
    }

    /// Maximum number of windows retained.
    pub fn retention(&self) -> usize {
        self.retention
    }

    /// Record the next cumulative snapshot. Returns the window it closed,
    /// or `None` for the baseline (first) snapshot.
    pub fn record(&self, snapshot: TelemetrySnapshot) -> Option<WindowRates> {
        let mut g = self.inner.lock().unwrap();
        let window = g
            .last_snapshot
            .as_ref()
            .map(|prev| WindowRates::from_snapshots(prev, &snapshot));
        g.last_snapshot = Some(snapshot);
        if let Some(w) = &window {
            g.ops.update(w.ops_per_sec);
            g.flush_bytes.update(w.bytes_flushed_per_sec);
            g.stall.update(w.stall_ratio);
            g.write_amp.update(w.write_amp);
            g.windows.push(w.clone());
            if g.windows.len() > self.retention {
                let excess = g.windows.len() - self.retention;
                g.windows.drain(..excess);
                g.evicted += excess as u64;
            }
        }
        window
    }

    /// The retained windows, oldest first.
    pub fn windows(&self) -> Vec<WindowRates> {
        self.inner.lock().unwrap().windows.clone()
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().windows.len()
    }

    /// True when no window has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Windows evicted from the ring since creation.
    pub fn evicted(&self) -> u64 {
        self.inner.lock().unwrap().evicted
    }

    /// Total windows ever recorded (retained + evicted).
    pub fn recorded(&self) -> u64 {
        let g = self.inner.lock().unwrap();
        g.windows.len() as u64 + g.evicted
    }

    /// EWMA-smoothed headline rates; `None` before the first window.
    pub fn smoothed(&self) -> Option<SmoothedRates> {
        let g = self.inner.lock().unwrap();
        Some(SmoothedRates {
            ops_per_sec: g.ops.get()?,
            bytes_flushed_per_sec: g.flush_bytes.get()?,
            stall_ratio: g.stall.get()?,
            write_amp: g.write_amp.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(at_micros: u64, gets: u64, puts: u64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            at_micros,
            gets,
            puts,
            ..TelemetrySnapshot::default()
        }
    }

    #[test]
    fn first_snapshot_is_baseline_only() {
        let s = WindowedSeries::new(8, DEFAULT_EWMA_ALPHA);
        assert!(s.record(snap(0, 0, 0)).is_none());
        assert!(s.is_empty());
        assert!(s.smoothed().is_none());
    }

    #[test]
    fn merged_windows_sum_rates_and_weight_write_amp_by_updates() {
        let window = |puts: u64, rewritten: u64| {
            let s = WindowedSeries::new(8, DEFAULT_EWMA_ALPHA);
            s.record(snap(0, 0, 0));
            s.record(TelemetrySnapshot {
                entries_rewritten: rewritten,
                ..snap(1_000_000, 100, puts)
            })
            .unwrap()
        };
        let mut store = window(300, 600); // write_amp 2 over 300 updates
        store.merge(&window(100, 0)); // write_amp 0 over 100
        assert_eq!(store.gets_per_sec, 200.0);
        assert_eq!(store.puts_per_sec, 400.0);
        assert_eq!(store.ops_per_sec, 600.0);
        assert_eq!(store.write_amp, 1.5);
        assert_eq!(store.span_secs, 1.0, "the shards' windows overlap");
        let mut idle = window(0, 0);
        idle.merge(&window(0, 0));
        assert_eq!(idle.write_amp, 0.0, "no updates anywhere: 0, not NaN");
    }

    #[test]
    fn window_rates_are_deltas_over_span() {
        let s = WindowedSeries::new(8, DEFAULT_EWMA_ALPHA);
        s.record(snap(0, 0, 0));
        let w = s.record(snap(1_000_000, 500, 1500)).unwrap();
        assert_eq!(w.span_secs, 1.0);
        assert_eq!(w.gets_per_sec, 500.0);
        assert_eq!(w.puts_per_sec, 1500.0);
        assert_eq!(w.ops_per_sec, 2000.0);
        // Second window sees only the new increments.
        let w = s.record(snap(3_000_000, 700, 1500)).unwrap();
        assert_eq!(w.span_secs, 2.0);
        assert_eq!(w.gets_per_sec, 100.0);
        assert_eq!(w.puts_per_sec, 0.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn stall_ratio_write_amp_and_flush_rate() {
        let s = WindowedSeries::new(8, DEFAULT_EWMA_ALPHA);
        s.record(TelemetrySnapshot::default());
        let cur = TelemetrySnapshot {
            at_micros: 2_000_000,
            puts: 1000,
            bytes_flushed: 4 << 20,
            entries_rewritten: 3000,
            stall_micros: 500_000,
            ..TelemetrySnapshot::default()
        };
        let w = s.record(cur).unwrap();
        assert_eq!(w.bytes_flushed_per_sec, (4 << 20) as f64 / 2.0);
        assert_eq!(w.stall_ratio, 0.25);
        assert_eq!(w.write_amp, 3.0);
    }

    #[test]
    fn counter_reset_never_goes_negative() {
        let s = WindowedSeries::new(8, DEFAULT_EWMA_ALPHA);
        s.record(snap(0, 1000, 1000));
        // Counters went *backwards* (a reset): Prometheus convention says
        // the current value is the delta.
        let w = s.record(snap(1_000_000, 40, 10)).unwrap();
        assert_eq!(w.gets_per_sec, 40.0);
        assert_eq!(w.puts_per_sec, 10.0);
        assert!(w.ops_per_sec >= 0.0);
    }

    #[test]
    fn zero_span_window_yields_zero_rates_not_nan() {
        let s = WindowedSeries::new(8, DEFAULT_EWMA_ALPHA);
        s.record(snap(5, 0, 0));
        let w = s.record(snap(5, 100, 100)).unwrap();
        assert_eq!(w.span_secs, 0.0);
        assert_eq!(w.ops_per_sec, 0.0);
        assert_eq!(w.stall_ratio, 0.0);
        assert!(w.level_io.iter().all(|l| l.is_zero()));
        // Everything must stay finite for the JSON renderer.
        assert!(w.ops_per_sec.is_finite() && w.write_amp.is_finite());
    }

    #[test]
    fn retention_evicts_oldest() {
        let s = WindowedSeries::new(3, DEFAULT_EWMA_ALPHA);
        for i in 0..=5u64 {
            s.record(snap(i * 1_000_000, i * 100, 0));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.evicted(), 2);
        assert_eq!(s.recorded(), 5);
        let ws = s.windows();
        // Oldest two windows (starting at 0s and 1s) were evicted.
        assert_eq!(ws[0].start_micros, 2_000_000);
        assert_eq!(ws[2].end_micros, 5_000_000);
    }

    #[test]
    fn ewma_smooths_towards_new_rate() {
        let s = WindowedSeries::new(8, 0.5);
        s.record(snap(0, 0, 0));
        s.record(snap(1_000_000, 1000, 0)); // 1000 ops/s
        s.record(snap(2_000_000, 1000, 0)); // 0 ops/s
        let sm = s.smoothed().unwrap();
        // 0.5·0 + 0.5·1000 = 500.
        assert_eq!(sm.ops_per_sec, 500.0);
        let w = s.windows();
        assert_eq!(w[0].ops_per_sec, 1000.0);
        assert_eq!(w[1].ops_per_sec, 0.0);
    }

    #[test]
    fn ewma_unit() {
        let mut e = Ewma::new(0.2);
        assert!(e.get().is_none());
        assert_eq!(e.update(10.0), 10.0);
        let v = e.update(0.0);
        assert!((v - 8.0).abs() < 1e-12);
        assert_eq!(e.get(), Some(v));
    }

    #[test]
    fn per_level_io_rates() {
        let s = WindowedSeries::new(4, DEFAULT_EWMA_ALPHA);
        s.record(TelemetrySnapshot::default());
        let mut cur = TelemetrySnapshot {
            at_micros: 1_000_000,
            ..TelemetrySnapshot::default()
        };
        cur.level_io[2] = LevelIoSnapshot {
            reads: 100,
            writes: 50,
            read_bytes: 100 * 4096,
            write_bytes: 50 * 4096,
            ..LevelIoSnapshot::default()
        };
        let w = s.record(cur).unwrap();
        assert!(w.level_io[1].is_zero());
        assert_eq!(w.level_io[2].reads_per_sec, 100.0);
        assert_eq!(w.level_io[2].write_bytes_per_sec, (50 * 4096) as f64);
    }
}
