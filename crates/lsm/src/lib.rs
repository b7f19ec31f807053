//! A complete LSM-tree storage engine — the substrate of the Monkey
//! reproduction.
//!
//! This crate plays the role LevelDB plays in the paper: a full LSM-tree
//! key-value store with
//!
//! * an in-memory **buffer** (memtable, Level 0 in the paper's terms) of
//!   configurable capacity `M_buffer = P·B·E`,
//! * an optional **write-ahead log** for durability of buffered updates,
//! * immutable sorted **runs** laid out in fixed-size pages with in-memory
//!   **fence pointers** (first key of every page), so probing a run costs
//!   exactly one page I/O (§2 of the paper),
//! * a Bloom **filter per run**, with the bits-per-entry decided by a
//!   pluggable [`FilterPolicy`] — uniform allocation reproduces the
//!   state-of-the-art baseline; the `monkey` crate plugs in the paper's
//!   optimal allocation,
//! * both **merge policies**: *leveling* (one run per level, eager merge)
//!   and *tiering* (up to `T−1` resident runs per level, merge on the
//!   arrival of the `T`-th), with any size ratio `T ≥ 2`,
//! * point lookups, range scans (via a k-way merge iterator), deletes
//!   (tombstones), crash recovery from WAL + manifest, and full memory- and
//!   I/O-footprint introspection.
//!
//! Merge scheduling is configurable. By default flushes and compactions
//! happen inline on the write path, so every experiment's I/O counts are
//! deterministic (the paper's §6 notes that merge *scheduling* is orthogonal
//! to Monkey's contribution). With
//! [`background_compaction`](DbOptions::background_compaction) the write
//! path hands full memtables to a dedicated flush/compaction worker through
//! a bounded immutable queue, the WAL group-commits concurrent appends, and
//! puts stall only when the queue hits its configured limit. In **both**
//! modes reads are served from an immutable version snapshot
//! ([`level::Version`]) and never block on an in-flight merge.
//!
//! # Example
//!
//! ```
//! use monkey_lsm::{Db, DbOptions, MergePolicy};
//!
//! let db = Db::open(DbOptions::in_memory()
//!     .buffer_capacity(4 << 10)
//!     .size_ratio(4)
//!     .merge_policy(MergePolicy::Leveling)).unwrap();
//! db.put(b"key".to_vec(), b"value".to_vec()).unwrap();
//! assert_eq!(db.get(b"key").unwrap().as_deref(), Some(&b"value"[..]));
//! db.delete(b"key".to_vec()).unwrap();
//! assert_eq!(db.get(b"key").unwrap(), None);
//! ```

#![warn(missing_docs)]

pub mod compaction;
pub mod entry;
pub mod iter;
pub mod level;
pub mod manifest;
pub mod memtable;
pub mod merge;
pub mod page;
pub mod policy;
pub mod run;
pub(crate) mod skiplist;
pub mod stats;
pub mod wal;

mod db;
mod error;
mod options;

pub use db::Db;
pub use entry::{Entry, EntryKind, Hit};
pub use error::{LsmError, Result};
pub use iter::RangeIter;
pub use monkey_bloom::FilterVariant;
pub use monkey_obs::{
    DriftFlag, Event, EventKind, IoBackendReport, LevelIoSnapshot, LevelLookupSnapshot,
    LevelReport, OpKind, OpLatencyReport, ShardBreakdown, Telemetry, TelemetryReport,
};
pub use monkey_storage::{BackendInfo, CacheStats, IoBackend};
pub use options::DbOptions;
pub use policy::{FilterContext, FilterPolicy, MergePolicy, UniformFilterPolicy};
pub use run::{FilterParams, Run, RunLookup};
pub use stats::{CompactionStats, DbStats, LevelStats, LookupStats, PipelineGauges, PipelineStats};
pub use wal::WalStats;
