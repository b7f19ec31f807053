//! # monkey-obs — dependency-free telemetry for the Monkey engine
//!
//! Observability primitives shared by the storage and LSM layers:
//!
//! - [`ShardedCounter`]: lock-free monotonic counters striped across
//!   cache-line-padded shards.
//! - [`LatencyHistogram`]: concurrent log2-bucketed nanosecond histograms
//!   with `p50/p90/p99/p99.9/max` snapshots.
//! - [`EventRing`]: a fixed-capacity ring of structured engine events
//!   (flush, cascade, stall, WAL group commit, background error) with
//!   monotonic timestamps, drainable as a timeline.
//! - [`IoAttribution`]: run-id → level tagging so page reads/writes in the
//!   storage layer can be attributed to tree levels.
//! - [`Telemetry`]: the aggregate hub the engine holds as
//!   `Option<Arc<Telemetry>>` — `None` when `DbOptions::telemetry` is off,
//!   so the disabled cost is one branch per op.
//! - [`IoLatency`]: sampled per-backend-op latency histograms with
//!   per-level slots and a page-cache-vs-device split ([`mode_split`]).
//! - [`WindowedSeries`]: a ring of [`TelemetrySnapshot`] deltas with EWMA
//!   smoothing; [`CountMinSketch`] and [`SpaceSaving`] summarise key skew.
//!   The engine wires none of these three in.
//! - [`TelemetryReport`]: the assembled snapshot with Prometheus text,
//!   JSON and human renderings, plus the FPR model-drift bound
//!   ([`drift_flag`]).
//!
//! The crate is intentionally std-only: it sits below every other crate
//! in the workspace so instrumentation can be threaded through any layer
//! without dependency cycles.

mod attribution;
mod counter;
mod events;
mod hist;
mod iolat;
mod json;
mod report;
mod series;
mod sketch;
mod telemetry;

pub use attribution::{IoAttribution, LevelIoSnapshot, LEVEL_SLOTS, MAX_LEVELS};
pub use counter::ShardedCounter;
pub use events::{Event, EventKind, EventRing};
pub use hist::{HistogramSnapshot, LatencyHistogram, HIST_BUCKETS};
pub use iolat::{mode_split, IoLatency, IoOp, ModeSplit, IO_OPS, IO_SAMPLE_PERIOD};
pub use json::{json_array, json_f64, json_string, JsonObject};
pub use report::{
    drift_flag, DriftFlag, IoBackendReport, LevelReport, OpLatencyReport, ShardBreakdown,
    TelemetryReport, DRIFT_EPSILON, DRIFT_MIN_PROBES, DRIFT_Z,
};
pub use series::{
    counter_delta, Ewma, LevelIoRates, SmoothedRates, TelemetrySnapshot, WindowRates,
    WindowedSeries, DEFAULT_EWMA_ALPHA,
};
pub use sketch::{fnv1a, CountMinSketch, HotKey, SpaceSaving};
pub use telemetry::{LevelLookupSnapshot, OpKind, Telemetry, OP_KINDS, SAMPLE_PERIOD};
