//! One shard's engine: buffer + levels + policies, glued together.
//!
//! ## Write pipeline
//!
//! Foreground puts append to the WAL (group commit) and the active
//! memtable. When the memtable fills it *rotates*: the WAL seals its
//! current segment and the memtable moves, frozen, into an immutable
//! queue. The queue is drained by a flush stage — either inline on the
//! rotating put's own thread (`background_compaction = false`, the
//! default: deterministic I/O timing, what every experiment uses) or by a
//! dedicated worker thread (`true`: foreground puts never pay for a merge
//! cascade; they stall only when the queue hits its configured bound).
//!
//! ## Non-blocking reads
//!
//! The disk-resident shape of the tree lives in an immutable
//! [`Version`] behind an `Arc`. A lookup takes one brief shared lock to
//! probe the active memtable and clone the immutable list + version
//! pointers, then probes runs with **no lock held** — an in-flight merge
//! cascade builds its successor version off to the side and publishes it
//! with a pointer swap, so `get`/`range` never block on compaction in
//! either mode.

use crate::compaction::{filter_params_for, install_flush, CascadeOutcome};
use crate::entry::{Entry, ENTRY_HEADER_LEN};
use crate::error::{LsmError, Result};
use crate::iter::{MergingIter, RangeIter, Source};
use crate::level::Version;
use crate::manifest::{Manifest, ManifestState, RunRecord};
use crate::memtable::Memtable;
use crate::options::{DbOptions, StorageConfig};
use crate::page::max_entry_len;
use crate::run::{recover_run, FilterParams, Run};
use crate::wal::Wal;
use bytes::Bytes;
use monkey_bloom::hash_pair;
use monkey_obs::{EventKind, LookupTable, OpKind, Telemetry};
use monkey_storage::{Disk, Fs};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// A memtable frozen at rotation, queued for the flush stage. Still fully
/// readable; `wal_segment` is the id of the last WAL segment holding its
/// entries, pruned once the flush lands.
#[derive(Clone)]
pub(super) struct ImmutableMemtable {
    memtable: Arc<Memtable>,
    wal_segment: Option<u64>,
    pub(super) entries: u64,
    bytes: usize,
}

/// Read-visible state: what a lookup snapshots under one shared lock.
/// Writers hold the lock exclusively only for memtable inserts, rotations,
/// and version pointer swaps — never across a flush or merge.
pub(super) struct Shared {
    /// The active memtable. Behind an `Arc` like the frozen ones, so a scan
    /// keeps a cursor on it without copying it out — through a rotation
    /// and a flush, if it must.
    pub(super) memtable: Arc<Memtable>,
    next_seq: u64,
    /// Frozen memtables awaiting flush, oldest first.
    pub(super) immutables: VecDeque<ImmutableMemtable>,
    /// Current disk shape. Published by pointer swap; readers clone the
    /// `Arc` and keep their snapshot for as long as they need it.
    pub(super) version: Arc<Version>,
}

/// Pipeline control flags, guarded by a `std` mutex so the condvars can
/// wait on them. Kept separate from [`Shared`] so signaling never contends
/// with the read path.
#[derive(Default)]
struct Control {
    shutdown: bool,
    paused: bool,
    /// Deferred worker failure, surfaced (and consumed) by the next
    /// foreground call.
    background_error: Option<String>,
}

struct Signals {
    control: StdMutex<Control>,
    /// Wakes the worker: new immutable queued, resume, or shutdown.
    work_cv: Condvar,
    /// Wakes stalled writers: an immutable was flushed (or an error means
    /// they should give up).
    stall_cv: Condvar,
}

/// Everything one shard's engine and its background worker share. The
/// worker owns an `Arc<Core>` (not the `Db`), so dropping the last `Db`
/// handle shuts the pipeline down instead of leaking it. The fields the
/// stat snapshots in `report.rs` read are visible to the facade's modules.
pub(super) struct Core {
    pub(super) disk: Arc<Disk>,
    pub(super) opts: DbOptions,
    pub(super) shared: RwLock<Shared>,
    signals: Signals,
    /// Serializes flush cascades and filter rebuilds: whoever holds it is
    /// the only builder of successor versions.
    compaction_lock: Mutex<()>,
    pub(super) wal: Wal,
    manifest: Option<Manifest>,
    /// Runs merged away whose retirement waits for a manifest store: one
    /// failed, so the manifest on storage may still name them.
    retiring: Mutex<Vec<Arc<Run>>>,
    pub(super) compactions: CompactionCounters,
    /// Point-lookup probe traffic per level, kept whatever
    /// `DbOptions::telemetry` says: the one record that
    /// [`LookupStats`](crate::LookupStats) and the report's measured
    /// `FPR_i` both read.
    pub(super) lookups: Arc<LookupTable>,
    pub(super) pipeline: PipelineCounters,
    /// Telemetry hub, present iff `DbOptions::telemetry`, holding a handle
    /// to `lookups`. When `None`, every instrumentation site collapses to
    /// a single branch.
    pub(super) telemetry: Option<Arc<Telemetry>>,
}

/// Lifetime counters of the engine's maintenance work.
#[derive(Debug, Default)]
pub(super) struct CompactionCounters {
    pub(super) flushes: AtomicU64,
    pub(super) merges: AtomicU64,
    pub(super) entries_rewritten: AtomicU64,
}

/// Lifetime counters of the write pipeline (see [`PipelineStats`](crate::PipelineStats)).
#[derive(Debug, Default)]
pub(super) struct PipelineCounters {
    pub(super) stalls: AtomicU64,
    pub(super) stall_micros: AtomicU64,
    pub(super) background_errors: AtomicU64,
    /// Gauge (not a counter): writers blocked in a stall *right now*.
    /// Incremented when a put first hits backpressure, decremented on
    /// every exit from the stall loop, error paths included.
    pub(super) active_stalls: AtomicU64,
}

impl Core {
    fn check_entry_size(&self, key: &[u8], value_len: usize) -> Result<()> {
        if key.len() > u16::MAX as usize {
            return Err(LsmError::KeyTooLarge(key.len()));
        }
        let encoded = ENTRY_HEADER_LEN + key.len() + value_len;
        let max = max_entry_len(self.opts.page_size);
        if encoded > max {
            return Err(LsmError::EntryTooLarge { encoded, max });
        }
        Ok(())
    }

    /// Surfaces (and consumes) a deferred background-worker failure.
    fn check_background_error(&self) -> Result<()> {
        let mut ctl = self.signals.control.lock().expect("control poisoned");
        if let Some(msg) = ctl.background_error.take() {
            return Err(LsmError::Background(msg));
        }
        Ok(())
    }

    /// Rebuilds the run → level attribution table from `version` — the
    /// authoritative shape. Merges tag output runs at build time, but a
    /// leveling carry moves a run down a level *without* rewriting it, and
    /// recovery re-adopts runs wholesale; walking the installed version
    /// covers every such path (and retires tags of dropped runs).
    fn retag_attribution(&self, version: &Version) {
        if let Some(t) = &self.telemetry {
            t.attribution().retag_all(
                version
                    .levels()
                    .iter()
                    .enumerate()
                    .flat_map(|(li, level)| level.runs().iter().map(move |r| (r.id(), li + 1))),
            );
        }
    }

    /// Freezes the active memtable into the immutable queue, sealing the
    /// WAL segment that covers it. No-op on an empty memtable.
    fn rotate_locked(&self, shared: &mut Shared) -> Result<()> {
        if shared.memtable.is_empty() {
            return Ok(());
        }
        let sealed = self.wal.seal_current()?;
        let frozen = std::mem::take(&mut shared.memtable);
        shared.immutables.push_back(ImmutableMemtable {
            entries: frozen.len() as u64,
            bytes: frozen.bytes(),
            memtable: frozen,
            wal_segment: sealed,
        });
        self.signals.work_cv.notify_one();
        Ok(())
    }

    /// Whether a rotation fits under the backpressure bounds.
    fn room_to_rotate(&self, shared: &Shared) -> bool {
        shared.immutables.len() < self.opts.max_immutable_memtables
    }

    /// Post-insert capacity check. Consumes the write guard: the inline
    /// path drops it before draining, the backpressure path re-takes it
    /// around each stall wait.
    fn maybe_rotate_after_insert<'a>(&'a self, shared: RwLockWriteGuard<'a, Shared>) -> Result<()> {
        if shared.memtable.bytes() < self.opts.buffer_capacity {
            return Ok(());
        }
        if self.opts.background_compaction {
            self.stall_then_rotate(shared)
        } else {
            // Synchronous mode: rotate unconditionally and drain on this
            // thread — the seed engine's deterministic behavior (and the
            // guaranteed-progress path: there is no worker to wait for).
            let mut shared = shared;
            self.rotate_locked(&mut shared)?;
            drop(shared);
            self.drain_queue()
        }
    }

    /// Backpressure: rotate when the queue has room, otherwise block on
    /// the stall condvar (with a timeout, so a missed wakeup only costs
    /// latency) until the worker catches up.
    fn stall_then_rotate<'a>(&'a self, mut shared: RwLockWriteGuard<'a, Shared>) -> Result<()> {
        let mut counted = false;
        let mut stall_started: Option<Instant> = None;
        // The active-stall gauge must come back down on *every* exit from
        // the loop — success, shutdown, and background-error alike.
        let unstall = |counted: bool| {
            if counted {
                self.pipeline.active_stalls.fetch_sub(1, Relaxed);
            }
        };
        loop {
            if self.room_to_rotate(&shared) {
                if let (Some(t), Some(s0)) = (&self.telemetry, stall_started) {
                    t.event(EventKind::StallEnd {
                        waited_micros: s0.elapsed().as_micros() as u64,
                    });
                }
                unstall(counted);
                return self.rotate_locked(&mut shared);
            }
            let queue_depth = shared.immutables.len() as u64;
            drop(shared);
            if !counted {
                self.pipeline.stalls.fetch_add(1, Relaxed);
                self.pipeline.active_stalls.fetch_add(1, Relaxed);
                counted = true;
                if let Some(t) = &self.telemetry {
                    stall_started = Some(Instant::now());
                    t.event(EventKind::StallBegin { queue_depth });
                }
            }
            let t0 = Instant::now();
            {
                let ctl = self.signals.control.lock().expect("control poisoned");
                if ctl.shutdown {
                    unstall(counted);
                    return Err(LsmError::Background("database shutting down".into()));
                }
                let _ = self
                    .signals
                    .stall_cv
                    .wait_timeout(ctl, Duration::from_millis(2))
                    .expect("control poisoned");
            }
            self.pipeline
                .stall_micros
                .fetch_add(t0.elapsed().as_micros() as u64, Relaxed);
            if let Err(e) = self.check_background_error() {
                unstall(counted);
                return Err(e);
            }
            shared = self.shared.write();
        }
    }

    /// Flushes queued immutable memtables until the queue is empty.
    fn drain_queue(&self) -> Result<()> {
        while self.flush_one()? {}
        Ok(())
    }

    /// Flushes the oldest queued immutable memtable, if any. On failure
    /// the memtable stays queued (still readable, still WAL-covered) for
    /// a later retry.
    fn flush_one(&self) -> Result<bool> {
        let _cascade = self.compaction_lock.lock();
        let Some(imm) = self.shared.read().immutables.front().cloned() else {
            return Ok(false);
        };
        self.flush_immutable(&imm)?;
        Ok(true)
    }

    /// The flush stage: sort-merge one frozen memtable into the tree — it
    /// is the youngest input of the merge policy's first step, read where
    /// it lies — on a private clone of the current version, publish the
    /// successor, persist the manifest, retire the runs merged away, prune
    /// the WAL. Caller holds `compaction_lock`; the shared lock is taken
    /// only for the final pointer swap.
    ///
    /// A run merged away is deleted only once a durable manifest no longer
    /// names it, and the WAL segments only once one names the flush's
    /// output. When the manifest cannot be stored, the flush has been
    /// published but deletes and prunes nothing: the WAL still covers its
    /// entries, and the runs it merged away stay on storage until the next
    /// manifest store succeeds — or, if none does before the process ends,
    /// until a reopen finds them unnamed ([`Core::open`]).
    fn flush_immutable(&self, imm: &ImmutableMemtable) -> Result<()> {
        let tel = self.telemetry.as_deref();
        let flush_started = match tel {
            Some(t) => {
                t.event(EventKind::FlushStart {
                    entries: imm.entries,
                    bytes: imm.bytes as u64,
                });
                t.op_start(OpKind::Flush)
            }
            None => None,
        };
        let base = Arc::clone(&self.shared.read().version);
        let mut working = (*base).clone();
        let mut outcome = CascadeOutcome::default();
        let cascade_started = tel.and_then(|t| t.op_start(OpKind::Cascade));
        let cascaded = install_flush(
            &self.disk,
            &self.opts,
            &mut working,
            &imm.memtable,
            &mut outcome,
            tel,
        )?;
        self.compactions.flushes.fetch_add(1, Relaxed);
        if cascaded {
            if let Some(t) = tel {
                t.op_end(OpKind::Cascade, cascade_started);
                t.event(EventKind::CascadeInstall {
                    merges: outcome.merges,
                    deepest_level: working.deepest() as u64,
                });
            }
        }
        self.compactions.merges.fetch_add(outcome.merges, Relaxed);
        self.compactions
            .entries_rewritten
            .fetch_add(outcome.entries_rewritten, Relaxed);
        let new_version = Arc::new(working);
        let next_seq;
        {
            // Publish atomically: readers either see the entries in the
            // immutable memtable (old version) or in the runs (new
            // version), never neither.
            let mut shared = self.shared.write();
            shared.version = Arc::clone(&new_version);
            let popped = shared
                .immutables
                .pop_front()
                .expect("flushed memtable vanished from the queue");
            debug_assert!(Arc::ptr_eq(&popped.memtable, &imm.memtable));
            next_seq = shared.next_seq;
        }
        self.signals.stall_cv.notify_all();
        self.retag_attribution(&new_version);
        self.persist_manifest(&new_version, next_seq, outcome.retired)?;
        if let Some(segment) = imm.wal_segment {
            self.wal.prune_upto(segment)?;
        }
        if let Some(t) = tel {
            let duration_micros = flush_started.map_or(0, |s| s.elapsed().as_micros() as u64);
            t.op_end(OpKind::Flush, flush_started);
            t.event(EventKind::FlushEnd { duration_micros });
        }
        Ok(())
    }

    /// Stores the manifest naming `version`'s runs, then retires `retired`
    /// — runs no version names any more — with those a failed store left
    /// waiting: the manifest just stored names none of them. When the store
    /// fails, they all wait for the next one.
    fn persist_manifest(
        &self,
        version: &Version,
        next_seq: u64,
        retired: Vec<Arc<Run>>,
    ) -> Result<()> {
        let mut retiring = self.retiring.lock();
        retiring.extend(retired);
        self.store_manifest(version, next_seq)?;
        for run in retiring.drain(..) {
            run.mark_obsolete();
        }
        Ok(())
    }

    /// Stores the manifest naming `version`'s runs, once their directory
    /// entries are durable.
    fn store_manifest(&self, version: &Version, next_seq: u64) -> Result<()> {
        let Some(manifest) = &self.manifest else {
            return Ok(());
        };
        self.disk.sync_dir()?;
        let mut runs = Vec::new();
        for (idx, level) in version.levels().iter().enumerate() {
            for (age, run) in level.runs().iter().enumerate() {
                runs.push(RunRecord {
                    id: run.id(),
                    level: idx + 1,
                    age,
                    bits_per_entry: run.filter_bits_per_entry(),
                    flavor: run.filter_variant(),
                });
            }
        }
        manifest.store(&ManifestState {
            next_seq,
            policy: Some(self.opts.merge_policy),
            size_ratio: Some(self.opts.size_ratio),
            runs,
        })
    }
}

/// The background flush/compaction worker. Drains the immutable queue;
/// on failure it records the error for the foreground and retries with
/// backoff (the memtable stays queued and readable, its WAL segments
/// stay on disk). Exits when shutdown is flagged and the queue is empty
/// — or immediately on a failure during shutdown, leaving recovery to
/// the WAL.
fn worker_loop(core: Arc<Core>) {
    loop {
        let (shutdown, paused) = {
            let ctl = core.signals.control.lock().expect("control poisoned");
            (ctl.shutdown, ctl.paused)
        };
        let has_work = !core.shared.read().immutables.is_empty();
        if shutdown && !has_work {
            return;
        }
        if !shutdown && (paused || !has_work) {
            let ctl = core.signals.control.lock().expect("control poisoned");
            let _ = core
                .signals
                .work_cv
                .wait_timeout(ctl, Duration::from_millis(5))
                .expect("control poisoned");
            continue;
        }
        match core.flush_one() {
            Ok(_) => {}
            Err(e) => {
                core.pipeline.background_errors.fetch_add(1, Relaxed);
                if let Some(t) = &core.telemetry {
                    t.event(EventKind::BackgroundError {
                        message: e.to_string(),
                    });
                }
                {
                    let mut ctl = core.signals.control.lock().expect("control poisoned");
                    ctl.background_error = Some(e.to_string());
                }
                core.signals.stall_cv.notify_all();
                if shutdown {
                    return;
                }
                let ctl = core.signals.control.lock().expect("control poisoned");
                let _ = core
                    .signals
                    .work_cv
                    .wait_timeout(ctl, Duration::from_millis(10))
                    .expect("control poisoned");
            }
        }
    }
}

impl Core {
    /// Opens one shard's engine. Pages live where `opts.storage` says — a
    /// directory-backed store, its files reached through `fs`, recovers
    /// its tree from the manifest, deletes the run files the manifest does
    /// not name, and replays its WAL segments — unless the caller supplies
    /// its own `disk` (run files on a `FlakyBackend`-wrapped `Fs` that
    /// fails or slows them, or a block cache): such a store is volatile,
    /// with no WAL or manifest. A telemetry hub stamps
    /// its events with `index`, the shard's place in the store, and counts
    /// its clock from `origin`, which every shard of one store shares.
    fn open(
        opts: DbOptions,
        index: usize,
        supplied: Option<Arc<Disk>>,
        fs: &Arc<dyn Fs>,
        origin: Instant,
    ) -> Result<Arc<Core>> {
        let volatile = |disk| (disk, Wal::disabled(), None, Vec::new(), None);
        let (disk, wal, manifest, replayed, manifest_state) = match (supplied, &opts.storage) {
            (Some(disk), _) => {
                assert_eq!(
                    disk.page_size(),
                    opts.page_size,
                    "disk and options disagree on the page size"
                );
                volatile(disk)
            }
            (None, StorageConfig::Memory) => volatile(Disk::mem(opts.page_size)),
            (None, StorageConfig::MemoryCached(cache)) => {
                volatile(Disk::mem_cached(opts.page_size, *cache))
            }
            (None, StorageConfig::Directory(dir)) => {
                fs.create_dir(dir)?;
                let pages = dir.join("pages");
                let disk = Disk::file_on(Arc::clone(fs), pages, opts.page_size, None)?;
                let io = Arc::clone(disk.io_stats());
                let manifest =
                    Manifest::with_fs(Arc::clone(fs), Arc::clone(&io), dir.join("MANIFEST"));
                let state = manifest.load()?;
                let (wal, replayed) =
                    Wal::open_with(Arc::clone(fs), io, dir, opts.wal_sync_each_append)?;
                (disk, wal, Some(manifest), replayed, state)
            }
        };

        let mut version = Version::empty();
        let mut next_seq = 0;
        if let Some(state) = &manifest_state {
            Self::recover_version(&disk, state, &mut version)?;
            next_seq = state.next_seq;
        }
        if manifest.is_some() {
            // A run file no manifest names is a flush's that failed or
            // crashed before its manifest landed — the WAL still holds its
            // entries — or a merged-away run whose delete did not happen.
            let named = manifest_state.as_ref().map_or(&[][..], |state| &state.runs);
            for id in disk.list_runs()? {
                if !named.iter().any(|run| run.id == id) {
                    disk.delete_run(id)?;
                }
            }
        }
        let memtable = Memtable::new();
        for entry in replayed {
            next_seq = next_seq.max(entry.seq + 1);
            memtable.insert(entry);
        }

        let lookups = Arc::new(LookupTable::new());
        let telemetry = opts.telemetry.then(|| {
            Arc::new(Telemetry::for_shard(
                index as u32,
                Telemetry::DEFAULT_EVENT_CAPACITY,
                origin,
                Arc::clone(&lookups),
            ))
        });
        if let Some(t) = &telemetry {
            disk.attach_attribution(Arc::clone(t.attribution()));
            wal.attach_telemetry(Arc::clone(t));
        }
        let core = Arc::new(Core {
            disk,
            shared: RwLock::new(Shared {
                memtable: Arc::new(memtable),
                next_seq,
                immutables: VecDeque::new(),
                version: Arc::new(version),
            }),
            signals: Signals {
                control: StdMutex::new(Control::default()),
                work_cv: Condvar::new(),
                stall_cv: Condvar::new(),
            },
            compaction_lock: Mutex::new(()),
            wal,
            manifest,
            retiring: Mutex::default(),
            compactions: CompactionCounters::default(),
            lookups,
            pipeline: PipelineCounters::default(),
            telemetry,
            opts,
        });
        // Recovered runs carry no build-time tags; adopt them level by level.
        core.retag_attribution(&core.shared.read().version);
        // A WAL bigger than the buffer (crash right before a flush): flush
        // now, inline, before the worker exists.
        {
            let mut shared = core.shared.write();
            if shared.memtable.bytes() >= core.opts.buffer_capacity {
                core.rotate_locked(&mut shared)?;
                drop(shared);
                core.drain_queue()?;
            }
        }
        Ok(core)
    }
}

/// One keyspace shard: an engine core plus its background worker.
/// Dropping it shuts the shard's pipeline down and joins the worker.
pub(super) struct Shard {
    pub(super) core: Arc<Core>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Shard {
    /// Opens the shard's engine (see [`Core::open`]) and starts its
    /// background worker.
    pub(super) fn open(
        opts: DbOptions,
        index: usize,
        disk: Option<Arc<Disk>>,
        fs: &Arc<dyn Fs>,
        origin: Instant,
    ) -> Result<Shard> {
        let core = Core::open(opts, index, disk, fs, origin)?;
        let worker = if core.opts.background_compaction {
            let worker_core = Arc::clone(&core);
            Some(
                std::thread::Builder::new()
                    .name("monkey-flush".into())
                    .spawn(move || worker_loop(worker_core))
                    .expect("spawn flush worker"),
            )
        } else {
            None
        };
        Ok(Self { core, worker })
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        {
            let mut ctl = self.core.signals.control.lock().expect("control poisoned");
            ctl.shutdown = true;
            ctl.paused = false;
        }
        self.core.signals.work_cv.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        // Any still-enqueued WAL records reach the file (no fsync): a
        // clean process exit loses nothing that was acknowledged. The
        // active memtable is intentionally NOT flushed — crash recovery
        // replays it from the WAL.
        let _ = self.core.wal.flush_pending();
    }
}

impl Core {
    fn recover_version(
        disk: &Arc<Disk>,
        state: &ManifestState,
        version: &mut Version,
    ) -> Result<()> {
        let mut records: Vec<RunRecord> = state.runs.clone();
        // Within a level, older runs (higher age) are pushed first so the
        // youngest ends up in front.
        records.sort_by_key(|r| (r.level, std::cmp::Reverse(r.age)));
        for record in records {
            version.ensure_levels(record.level);
            let run = recover_run(
                disk,
                record.id,
                FilterParams::new(record.bits_per_entry, record.flavor),
            )?;
            version.levels_mut()[record.level - 1].push_youngest(Arc::new(run));
        }
        Ok(())
    }

    /// The write path: one update — `value`, or a tombstone for `None`,
    /// counted as the put it is — gets a sequence number, a WAL
    /// record and a place in the active memtable under the exclusive lock,
    /// then becomes durable in a group commit off it.
    pub(super) fn write(&self, key: Bytes, value: Option<Bytes>) -> Result<()> {
        let started = match &self.telemetry {
            Some(t) => t.op_start(OpKind::Put),
            None => None,
        };
        self.check_background_error()?;
        self.check_entry_size(&key, value.as_ref().map_or(0, Bytes::len))?;
        let seq;
        {
            let mut shared = self.shared.write();
            seq = shared.next_seq;
            shared.next_seq += 1;
            let entry = match value {
                Some(value) => Entry::put(key, value, seq),
                None => Entry::tombstone(key, seq),
            };
            // Enqueued under the exclusive lock (preserving sequence
            // order); the physical write happens in `commit` below, off the
            // lock, batched with whatever other writers enqueued meanwhile.
            self.wal.enqueue(&entry)?;
            shared.memtable.insert(entry);
            self.maybe_rotate_after_insert(shared)?;
        }
        self.wal.commit(seq)?;
        if let Some(t) = &self.telemetry {
            t.op_end(OpKind::Put, started);
        }
        Ok(())
    }

    /// Point lookup. Probes the buffer and any frozen memtables, then each
    /// level shallow-to-deep (runs youngest-to-oldest), stopping at the
    /// first version found (§2).
    ///
    /// One brief shared-lock critical section probes the buffer and the
    /// frozen memtables where they lie — a lookup that misses them all
    /// allocates nothing — and snapshots the version; every disk probe runs
    /// with **no lock held**, so an in-flight flush or merge cascade never
    /// delays the lookup. The key is hashed **once**, when the lookup
    /// first reaches the disk levels.
    pub(super) fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        match &self.telemetry {
            Some(t) => {
                let started = t.op_start(OpKind::Get);
                let out = self.get_impl(key);
                t.op_end(OpKind::Get, started);
                out
            }
            None => self.get_impl(key),
        }
    }

    fn get_impl(&self, key: &[u8]) -> Result<Option<Bytes>> {
        let version = {
            let shared = self.shared.read();
            if let Some(entry) = shared.memtable.get(key) {
                return Ok(visible(entry));
            }
            // Frozen memtables, newest first.
            for imm in shared.immutables.iter().rev() {
                if let Some(entry) = imm.memtable.get(key) {
                    return Ok(visible(entry));
                }
            }
            Arc::clone(&shared.version)
        };
        let pair = hash_pair(key); // the lookup's only hash computation
        self.lookups.record_key_hash();
        for (li, level) in version.levels().iter().enumerate() {
            for run in level.runs() {
                let look = run.get_hashed(key, pair)?;
                if look.probed_filter {
                    if !look.filter_negative && look.page_read && look.entry.is_none() {
                        // The filter said "maybe", the page said no: a
                        // true false positive, one wasted I/O.
                        self.lookups.record_false_positive(li + 1);
                    }
                    self.lookups
                        .record_filter_probe(li + 1, look.filter_negative);
                }
                if look.page_read {
                    self.lookups.record_lookup_read(li + 1);
                }
                if let Some(hit) = look.entry {
                    return Ok((!hit.is_tombstone()).then_some(hit.value));
                }
            }
        }
        Ok(None)
    }

    /// This shard's part of a range scan over `[lo, hi)` (`hi = None` scans
    /// to the end). The cursor shares ownership of the memtables and runs
    /// it reads, so rotations, flushes and merges do not disturb it. Writes
    /// that reach the active memtable while the scan runs may be seen by
    /// it: each key it yields is a version at least as new as when the scan
    /// opened. The scan as a whole is timed and classified by `Db::range`.
    pub(super) fn range(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<RangeIter> {
        if hi.is_some_and(|hi| hi <= lo) {
            // Empty (or inverted) interval: nothing to scan.
            return Ok(RangeIter::new(MergingIter::new(Vec::new()), None));
        }
        // The one owned copy of the bound, shared by the memtable cursors
        // and the scan itself.
        let hi = hi.map(Bytes::copy_from_slice);
        let (mut sources, version) = {
            let shared = self.shared.read();
            let version = Arc::clone(&shared.version);
            let mut sources: Vec<Source> =
                Vec::with_capacity(1 + shared.immutables.len() + version.run_count());
            // Youngest first: ties between equal versions go to the earlier
            // source. The memtables are read where they lie.
            sources.push(shared.memtable.cursor(Some(lo), hi.clone()).into());
            for imm in shared.immutables.iter().rev() {
                sources.push(imm.memtable.cursor(Some(lo), hi.clone()).into());
            }
            (sources, version)
        };
        for level in version.levels() {
            for run in level.runs() {
                sources.push(run.scan_from(lo, hi.as_deref())?.into());
            }
        }
        Ok(RangeIter::new(MergingIter::new(sources), hi))
    }

    /// Forces the buffer to flush into the tree even if not full, then
    /// drains the whole immutable queue on the calling thread. After this
    /// returns, the pipeline is quiesced: `stats()`/`verify()` see a
    /// settled tree.
    pub(super) fn flush(&self) -> Result<()> {
        self.check_background_error()?;
        {
            let mut shared = self.shared.write();
            self.rotate_locked(&mut shared)?;
        }
        self.drain_queue()
    }

    /// Stops the background worker from flushing (testing hook, the
    /// analogue of RocksDB's `DisableAutoCompactions`). Foreground drains
    /// (`flush`, synchronous-mode rotation) are unaffected. With the
    /// worker paused, rotations accumulate in the immutable queue until
    /// backpressure stalls puts.
    pub(super) fn pause_compaction(&self) {
        self.signals
            .control
            .lock()
            .expect("control poisoned")
            .paused = true;
    }

    /// Resumes background flushing after [`pause_compaction`](Self::pause_compaction).
    pub(super) fn resume_compaction(&self) {
        {
            let mut ctl = self.signals.control.lock().expect("control poisoned");
            ctl.paused = false;
        }
        self.signals.work_cv.notify_all();
    }

    /// Quiesces the pipeline without consuming the handle: drains queued
    /// immutable memtables, writes out any buffered WAL records, and
    /// propagates a deferred background error. The active memtable is NOT
    /// flushed — its entries are durable in the WAL (drop does the same).
    pub(super) fn close(&self) -> Result<()> {
        self.check_background_error()?;
        self.drain_queue()?;
        self.wal.flush_pending()
    }

    /// Rebuilds every run's Bloom filter according to the *current* filter
    /// policy and tree shape, by rescanning the runs. Used when a policy's
    /// ideal allocation drifts from what runs were built with (runs fix
    /// their filters at build time, but the optimal assignment shifts as
    /// the tree gains levels and runs). The scan is counted I/O;
    /// experiments reset counters afterwards.
    pub(super) fn rebuild_filters(&self) -> Result<()> {
        let _cascade = self.compaction_lock.lock();
        let (base, extra) = {
            let shared = self.shared.read();
            let extra = shared.memtable.len() as u64
                + shared.immutables.iter().map(|i| i.entries).sum::<u64>();
            (Arc::clone(&shared.version), extra)
        };
        let mut working = (*base).clone();
        for li in 0..working.depth() {
            for ri in 0..working.levels()[li].run_count() {
                let current = Arc::clone(&working.levels()[li].runs()[ri]);
                let entries = current.entries();
                let params =
                    filter_params_for(&self.opts, &working, li + 1, entries, extra, Some(&current));
                let allocation_drifted =
                    (params.bits_per_entry - current.filter_bits_per_entry()).abs() > 1e-9;
                if allocation_drifted || current.filter_variant() != params.variant {
                    let rebuilt = recover_run(&self.disk, current.id(), params)?;
                    let rebuilt = Arc::new(rebuilt.keeping_novel_count_of(&current));
                    working.levels_mut()[li].replace_run(ri, rebuilt);
                }
            }
        }
        let new_version = Arc::new(working);
        let next_seq;
        {
            let mut shared = self.shared.write();
            shared.version = Arc::clone(&new_version);
            next_seq = shared.next_seq;
        }
        self.retag_attribution(&new_version);
        self.persist_manifest(&new_version, next_seq, Vec::new())
    }

    /// Deep integrity check: reads every page of every run (counted I/O)
    /// and verifies
    ///
    /// * page checksums (by the disk, on each page it reads from the
    ///   backend) and decodability,
    /// * strict key ordering within and across pages,
    /// * agreement between a run's metadata (entry count, byte size, key
    ///   bounds) and its pages,
    /// * that the Bloom filter has no false negatives,
    /// * the youngest-first sequence ordering of runs within a level.
    ///
    /// Returns the number of entries verified.
    pub(super) fn verify(&self) -> Result<u64> {
        let version = Arc::clone(&self.shared.read().version);
        let mut verified = 0u64;
        for (idx, level) in version.levels().iter().enumerate() {
            for run in level.runs() {
                let mut count = 0u64;
                let mut bytes = 0u64;
                let mut prev: Option<Vec<u8>> = None;
                let mut cursor = run.scan_from(b"", None)?; // the disk checks each page it reads
                while let Some(entry) = cursor.page().entry() {
                    if prev.as_deref().is_some_and(|prev| entry.key <= prev) {
                        return Err(LsmError::Corruption(format!(
                            "run {} at level {}: keys out of order",
                            run.id(),
                            idx + 1
                        )));
                    }
                    if !run.filter().contains(entry.key) {
                        return Err(LsmError::Corruption(format!(
                            "run {} at level {}: filter false negative",
                            run.id(),
                            idx + 1
                        )));
                    }
                    count += 1;
                    bytes += entry.encoded_len() as u64;
                    let prev = prev.get_or_insert_with(Vec::new);
                    prev.clear();
                    prev.extend_from_slice(entry.key);
                    cursor.advance()?;
                }
                if count != run.entries() || bytes != run.bytes() {
                    return Err(LsmError::Corruption(format!(
                        "run {} at level {}: metadata mismatch ({} entries / {} bytes vs {} / {})",
                        run.id(),
                        idx + 1,
                        count,
                        bytes,
                        run.entries(),
                        run.bytes()
                    )));
                }
                if let Some(last) = prev {
                    if *run.max_key() != last {
                        return Err(LsmError::Corruption(format!(
                            "run {} at level {}: max key mismatch",
                            run.id(),
                            idx + 1
                        )));
                    }
                }
                verified += count;
            }
        }
        Ok(verified)
    }
}

/// What a lookup returns for the newest version it found: the value, or
/// `None` for a tombstone.
fn visible(entry: Entry) -> Option<Bytes> {
    (!entry.is_tombstone()).then_some(entry.value)
}
