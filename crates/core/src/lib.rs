//! # Monkey: Optimal Navigable Key-Value Store
//!
//! A from-scratch Rust implementation of *Monkey* (Dayan, Athanassoulis,
//! Idreos — SIGMOD 2017): an LSM-tree key-value store that
//!
//! 1. **reaches the Pareto curve** by allocating Bloom-filter memory across
//!    levels so the sum of false positive rates — and therefore the
//!    worst-case point-lookup I/O cost — is minimal for any memory budget
//!    ([`MonkeyFilterPolicy`]), and
//! 2. **navigates** that curve: closed-form cost models pick the merge
//!    policy, size ratio, and buffer/filter memory split that maximize
//!    throughput for a given workload and storage device
//!    ([`Navigator`]).
//!
//! The engine underneath (re-exported from `monkey-lsm`) is a complete
//! LSM-tree: memtable, WAL, leveled and tiered compaction, fence pointers,
//! per-run Bloom filters, range scans, and crash recovery.
//!
//! ## Quick start
//!
//! ```
//! use monkey::{Db, DbOptions, DbOptionsExt, MergePolicy};
//!
//! // An in-memory store with Monkey's optimal filter allocation at the
//! // same total memory a LevelDB-style uniform allocation would use.
//! let db = Db::open(
//!     DbOptions::in_memory()
//!         .size_ratio(4)
//!         .merge_policy(MergePolicy::Leveling)
//!         .monkey_filters(10.0),
//! ).unwrap();
//!
//! db.put(&b"hello"[..], &b"world"[..]).unwrap();
//! assert_eq!(db.get(b"hello").unwrap().as_deref(), Some(&b"world"[..]));
//! ```
//!
//! ## Self-tuning
//!
//! ```
//! use monkey::{Navigator, Workload, Environment};
//!
//! // 1 GB of 1 KiB entries on disk, 32 MiB of memory, 80% lookups.
//! let nav = Navigator::new(1 << 20, 1024, 4096, Environment::disk());
//! let rec = nav.recommend(&Workload::lookups_vs_updates(0.8), 32 << 20);
//! println!("use {:?} with T={}", rec.tuning.policy, rec.tuning.size_ratio);
//! let _opts = rec.options; // ready-to-open DbOptions
//! ```

#![warn(missing_docs)]

pub mod navigator;
pub mod policy;

mod bridge;

pub use bridge::{model_params_for, to_engine_policy, to_model_policy};
pub use monkey_lsm::{
    BackendInfo, Db, DbOptions, DbStats, DriftFlag, Entry, EntryKind, Event, EventKind,
    FilterContext, FilterPolicy, FilterVariant, IoBackend, IoBackendReport, LevelIoSnapshot,
    LevelLookupSnapshot, LevelReport, LevelStats, LookupStats, LsmError, MergePolicy, OpKind,
    OpLatencyReport, PipelineGauges, PipelineStats, RangeIter, Result, ShardBreakdown, Telemetry,
    TelemetryReport, UniformFilterPolicy, WalStats,
};
pub use monkey_model::{Environment, Workload};
pub use navigator::{Navigator, Recommendation, WhatIf};
pub use policy::{AdaptiveFilterPolicy, DbOptionsExt, MonkeyFilterPolicy, ScheduleFilterPolicy};
