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
//! - [`LookupTable`]: per-level filter-probe, false-positive and page-read
//!   counts of point lookups — measured `FPR_i`, level by level. Every
//!   shard owns one from open, telemetry on or off; it is the engine's
//!   only record of probe traffic.
//! - [`Telemetry`]: the aggregate hub the engine holds as
//!   `Option<Arc<Telemetry>>` — `None` when `DbOptions::telemetry` is off.
//!   It adds op counts, latency histograms and the event ring, and holds
//!   a handle to its shard's lookup table.
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
mod json;
mod report;
mod telemetry;

pub use attribution::{IoAttribution, LevelIoSnapshot, LEVEL_SLOTS, MAX_LEVELS};
pub use counter::ShardedCounter;
pub use events::{Event, EventKind, EventRing, FieldValue};
pub use hist::{HistogramSnapshot, LatencyHistogram, HIST_BUCKETS};
pub use json::{json_array, json_f64, json_string, JsonObject};
pub use report::{
    drift_flag, DriftFlag, IoBackendReport, LevelReport, OpLatencyReport, ShardBreakdown,
    TelemetryReport, DRIFT_EPSILON, DRIFT_MIN_PROBES, DRIFT_Z,
};
pub use telemetry::{LevelLookupSnapshot, LookupTable, OpKind, Telemetry, OP_KINDS, SAMPLE_PERIOD};
