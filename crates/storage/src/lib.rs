//! Storage substrate for the Monkey LSM-tree.
//!
//! The Monkey paper's evaluation is entirely about **I/O cost per
//! operation**: lookup latency is the number of page reads times the device
//! access time, update cost is amortized page writes, and the dotted
//! reference lines in its Figure 11 are drawn at "0.2 I/Os per lookup" and
//! "1 I/O per lookup". This crate therefore provides:
//!
//! * a page-granular storage abstraction ([`Disk`]) over one run store,
//!   a file per run ([`FileBackend`]), on either implementation of the
//!   storage seam: memory ([`MemFs`]), the simulated disk the experiment
//!   harness counts deterministic I/Os on, or the operating system's
//!   filesystem ([`OsFs`], through the page cache), which durable stores
//!   and the perf ledger run on;
//! * a **page-frame pool** (`frames.rs`, counted by [`PoolStats`]): every
//!   page read from a run file lands in a frame that goes back to the pool,
//!   not to malloc, when its last reader drops it;
//! * exact **I/O accounting** ([`IoStats`]): every page read, page write,
//!   and seek is counted atomically and can be snapshotted and diffed
//!   around an operation;
//! * a sharded LRU **block cache** ([`BlockCache`]) with LevelDB's design —
//!   16 shards, one mutex and one exact LRU list each — used to reproduce
//!   the paper's Figure 12 (cache of 0 / 20 / 40 % of the data volume) —
//!   cache hits are not I/Os;
//! * a **device model** ([`DeviceModel`]) translating I/O counts into
//!   modeled latency for a disk or flash device, including the paper's
//!   write/read cost ratio `φ` and its 10 ms disk-seek / ~100 µs flash-read
//!   reference points (§4.4);
//! * the **storage seam** ([`Fs`]): every file a store keeps is created,
//!   written, read, synced, renamed, listed and removed through it, and
//!   [`FlakyBackend`] wraps it to fail or slow any of those operations.

#![warn(missing_docs)]

pub mod cache;
pub mod device;
pub mod error;
pub mod faults;
pub mod fs;
pub mod iostats;

mod backend;
mod disk;
mod frames;
mod handles;

pub use backend::{FileBackend, RunId, READ_EXTENT_BYTES};
pub use cache::{BlockCache, CacheConfig, CacheStats};
pub use device::DeviceModel;
pub use disk::{BackendInfo, Disk, IoBackend, PageCheck, RunWriter};
pub use error::{Result, StorageError};
pub use faults::{FaultKind, FlakyBackend};
pub use frames::PoolStats;
pub use fs::{Fs, FsFile, MemFs, OsFs};
pub use iostats::{IoSnapshot, IoStats, SyncKind};
