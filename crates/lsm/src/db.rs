//! The database: buffer + levels + policies, glued together.
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

use crate::compaction::{install_flush, CascadeOutcome};
use crate::entry::{Entry, EntryKind, ENTRY_HEADER_LEN};
use crate::error::{LsmError, Result};
use crate::iter::{MergingIter, RangeIter, Source};
use crate::level::{level_capacity_bytes, Version};
use crate::manifest::{Manifest, ManifestState, RunRecord};
use crate::memtable::Memtable;
use crate::options::{DbOptions, StorageConfig};
use crate::page::max_entry_len;
use crate::policy::FilterContext;
use crate::run::{recover_run, FilterParams};
use crate::stats::{DbStats, LevelStats, LookupStats, PipelineGauges, PipelineStats};
use crate::vlog::{ValueLog, ValuePointer};
use crate::wal::{SyncStats, Wal, WalSyncCoordinator};
use bytes::Bytes;
use monkey_bloom::hash_pair;
use monkey_obs::{
    drift_flag, EventKind, FlightRecorder, HttpHandler, HttpResponse, IoBackendReport,
    IoLatencyReport, JsonObject, LevelReport, MeasuredWorkload, ObsServer, OpKind, OpLatencyReport,
    ShardBreakdown, SpanKind, Telemetry, TelemetryReport, TelemetrySnapshot, Tracer, WindowRates,
    WindowedSeries, DEFAULT_EWMA_ALPHA, IO_OPS, MAX_LEVELS, OP_KINDS,
};
use monkey_storage::{BackendInfo, Disk, IoSnapshot};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock, Weak};
use std::time::{Duration, Instant};

/// A memtable frozen at rotation, queued for the flush stage. Still fully
/// readable; `wal_segment` is the id of the last WAL segment holding its
/// entries, pruned once the flush lands.
#[derive(Clone)]
struct ImmutableMemtable {
    memtable: Arc<Memtable>,
    wal_segment: Option<u64>,
    entries: u64,
    bytes: usize,
    /// Generation number the memtable carried while active; flush spans
    /// link to it so a traced put can be joined to the flush that drained
    /// its memtable.
    generation: u64,
}

/// Read-visible state: what a lookup snapshots under one shared lock.
/// Writers hold the lock exclusively only for memtable inserts, rotations,
/// and version pointer swaps — never across a flush or merge.
struct Shared {
    /// The active memtable. Behind an `Arc` like the frozen ones, so a scan
    /// keeps a cursor on it without copying it out — through a rotation
    /// and a flush, if it must.
    memtable: Arc<Memtable>,
    next_seq: u64,
    /// Generation of the active memtable, starting at 1 and bumped at
    /// every rotation. A traced put records the generation it inserted
    /// into; the flush of that generation links back to it.
    generation: u64,
    /// Frozen memtables awaiting flush, oldest first.
    immutables: VecDeque<ImmutableMemtable>,
    /// Current disk shape. Published by pointer swap; readers clone the
    /// `Arc` and keep their snapshot for as long as they need it.
    version: Arc<Version>,
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
    /// Wakes the observatory sampler early, for prompt shutdown.
    obs_cv: Condvar,
}

/// Everything the engine and its background worker share. The worker owns
/// an `Arc<Core>` (not the `Db`), so dropping the last `Db` handle shuts
/// the pipeline down instead of leaking it.
struct Core {
    disk: Arc<Disk>,
    opts: DbOptions,
    shared: RwLock<Shared>,
    signals: Signals,
    /// Serializes flush cascades and filter rebuilds: whoever holds it is
    /// the only builder of successor versions.
    compaction_lock: Mutex<()>,
    wal: Wal,
    manifest: Option<Manifest>,
    compactions: CompactionCounters,
    lookups: LookupCounters,
    pipeline: PipelineCounters,
    /// Value log for key-value separation (WiscKey mode), when enabled.
    vlog: Option<Arc<ValueLog>>,
    /// Telemetry hub, present iff `DbOptions::telemetry`. When `None`,
    /// every instrumentation site collapses to a single branch.
    telemetry: Option<Arc<Telemetry>>,
    /// Causal span source, present iff `DbOptions::tracing` (and
    /// telemetry) are on. Holds the optional on-disk flight recorder for
    /// directory-backed stores.
    tracer: Option<Arc<Tracer>>,
    /// Windowed time series of counter deltas, present iff telemetry is
    /// on. Fed by the sampler thread or `Db::observatory_tick()`; op hot
    /// paths never touch it.
    series: Option<Arc<WindowedSeries>>,
}

/// An LSM-tree key-value store.
///
/// Thread-safe. Lookups and scans read an immutable version snapshot and
/// never block on flushes or merges; updates serialize on a short
/// exclusive lock (memtable insert + WAL enqueue) with the heavy merge
/// work running inline (default) or on a background thread.
///
/// With [`DbOptions::shards`] > 1 the facade hash-partitions the keyspace
/// across that many independent engines — per-shard memtable, WAL,
/// immutable queue, and flush/merge pipeline — so writers on different
/// shards never contend on a lock. `shards = 1` (the default) is the
/// single engine, byte-identical on disk to the pre-shard code path.
pub struct Db {
    /// The facade-level configuration (undivided budgets, `shards = N`).
    opts: DbOptions,
    /// The embedded scrape endpoint, when [`DbOptions::obs_listen`] is
    /// set. Declared before `shards` on purpose: fields drop in
    /// declaration order, so the server stops answering (and its worker
    /// threads join) before the engines it reads from shut down.
    obs_server: OnceLock<ObsServer>,
    /// Renders `/advice.json`. The closed-loop tuning advisor lives in a
    /// crate above this one, so binaries inject a provider via
    /// [`Db::set_advice_provider`]; without one the endpoint reports the
    /// measured workload with `"advice": null`.
    advice_provider: OnceLock<AdviceProvider>,
    /// The cross-shard WAL fsync coordinator, when fsync batching is on
    /// for a durable store — kept here so [`Db::wal_sync_stats`] can
    /// report global coalescing (tickets vs. physical syncs).
    sync_coord: Option<Arc<WalSyncCoordinator>>,
    shards: Vec<Shard>,
}

/// Renders the `/advice.json` body for a store — see
/// [`Db::set_advice_provider`].
pub type AdviceProvider = Box<dyn Fn(&Db) -> String + Send + Sync>;

/// Lifetime counters of the engine's maintenance work.
#[derive(Debug, Default)]
struct CompactionCounters {
    flushes: AtomicU64,
    merges: AtomicU64,
    entries_rewritten: AtomicU64,
    /// Payload bytes drained from immutable memtables by flushes — the
    /// numerator of the observatory's flush-rate window metric.
    bytes_flushed: AtomicU64,
    /// Gauge: key-range partitions of the most recent merge (0 = none yet).
    last_merge_partitions: AtomicU64,
    /// Gauge: worker threads of the most recent merge (0 = none yet).
    last_merge_threads: AtomicU64,
}

/// Lifetime counters of the point-lookup fast path (see [`LookupStats`]).
#[derive(Debug, Default)]
struct LookupCounters {
    key_hashes: AtomicU64,
    filter_probes: AtomicU64,
    filter_negatives: AtomicU64,
    filter_false_positives: AtomicU64,
}

/// Lifetime counters of the write pipeline (see [`PipelineStats`]).
#[derive(Debug, Default)]
struct PipelineCounters {
    stalls: AtomicU64,
    stall_micros: AtomicU64,
    background_errors: AtomicU64,
    /// Gauge (not a counter): writers blocked in a stall *right now*.
    /// Incremented when a put first hits backpressure, decremented on
    /// every exit from the stall loop, error paths included.
    active_stalls: AtomicU64,
}

/// A snapshot of the engine's maintenance work since open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionStats {
    /// Buffer flushes performed.
    pub flushes: u64,
    /// Merge operations performed (leveling merges and tiering merges).
    pub merges: u64,
    /// Entries read-and-rewritten by merges — divided by the number of
    /// user updates this is the engine's measured write amplification in
    /// entries (the quantity Eq. 10 models in I/Os).
    pub entries_rewritten: u64,
    /// Key-range partitions of the most recent merge (1 = sequential;
    /// 0 = no merge has run yet).
    pub last_merge_partitions: u64,
    /// Worker threads of the most recent merge (0 = no merge yet).
    pub last_merge_threads: u64,
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

    /// Resolves an entry's user-visible value (following a value-log
    /// pointer for separated entries).
    fn resolve_value(&self, entry: &Entry) -> Result<Option<Bytes>> {
        match entry.kind {
            EntryKind::Put => Ok(Some(entry.value.clone())),
            EntryKind::Delete => Ok(None),
            EntryKind::IndirectPut => {
                let ptr = ValuePointer::decode(&entry.value)
                    .ok_or_else(|| LsmError::Corruption("malformed value-log pointer".into()))?;
                let vlog = self.vlog.as_ref().ok_or_else(|| {
                    LsmError::Corruption("indirect entry in a store without a value log".into())
                })?;
                Ok(Some(vlog.get(ptr)?))
            }
        }
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
        let generation = shared.generation;
        shared.generation += 1;
        shared.immutables.push_back(ImmutableMemtable {
            entries: frozen.len() as u64,
            bytes: frozen.bytes(),
            memtable: frozen,
            wal_segment: sealed,
            generation,
        });
        self.signals.work_cv.notify_one();
        Ok(())
    }

    /// Whether a rotation fits under the backpressure bounds.
    fn room_to_rotate(&self, shared: &Shared) -> bool {
        if shared.immutables.len() >= self.opts.max_immutable_memtables {
            return false;
        }
        match self.opts.stall_threshold {
            Some(limit) => shared.immutables.iter().map(|i| i.bytes).sum::<usize>() < limit,
            None => true,
        }
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
        let mut stall_span = None;
        let mut stall_depth = 0u64;
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
                if let (Some(tr), Some(active)) = (&self.tracer, stall_span.take()) {
                    tr.finish(active, 0, vec![stall_depth]);
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
                // Stalls are rare and diagnostic gold: trace every one.
                if let Some(tr) = &self.tracer {
                    stall_depth = queue_depth;
                    stall_span = Some(tr.start(SpanKind::Stall));
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
    /// successor, persist the manifest, prune the WAL. Caller holds
    /// `compaction_lock`; the shared lock is taken only for the final
    /// pointer swap.
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
        // Every flush is traced (rare, and the join point of the causal
        // chain: puts link to the generation this span carries).
        let flush_span = self.tracer.as_ref().map(|t| t.start(SpanKind::Flush));
        let flush_span_id = flush_span.as_ref().map_or(0, |s| s.id);
        if let Some(vlog) = &self.vlog {
            // Pointers about to be persisted must reference durable pages.
            // This runs without the shared lock: large separated values no
            // longer stall concurrent puts.
            vlog.sync()?;
        }
        let base = Arc::clone(&self.shared.read().version);
        let mut working = (*base).clone();
        let mut outcome = CascadeOutcome::default();
        let cascade_started = tel.and_then(|t| t.op_start(OpKind::Cascade));
        let cascade_span = self.tracer.as_ref().map(|t| t.start(SpanKind::Cascade));
        let cascaded = install_flush(
            &self.disk,
            &self.opts,
            &mut working,
            imm.memtable.cursor(None, None).into(),
            imm.entries,
            &mut outcome,
            tel,
        )?;
        self.compactions.flushes.fetch_add(1, Relaxed);
        self.compactions
            .bytes_flushed
            .fetch_add(imm.bytes as u64, Relaxed);
        if cascaded {
            if let Some(t) = tel {
                t.op_end(OpKind::Cascade, cascade_started);
                t.event(EventKind::CascadeInstall {
                    merges: outcome.merges,
                    deepest_level: working.deepest() as u64,
                });
            }
            if let (Some(tr), Some(active)) = (&self.tracer, cascade_span) {
                // Parented under the flush; links record the generation,
                // the merge shape, then the full input-run lineage.
                let mut links = vec![
                    imm.generation,
                    outcome.merges,
                    outcome.max_partitions as u64,
                    outcome.max_threads as u64,
                ];
                links.extend(&outcome.input_runs);
                tr.finish(active, flush_span_id, links);
            }
        }
        self.compactions.merges.fetch_add(outcome.merges, Relaxed);
        self.compactions
            .entries_rewritten
            .fetch_add(outcome.entries_rewritten, Relaxed);
        if outcome.merges > 0 {
            self.compactions
                .last_merge_partitions
                .store(outcome.max_partitions as u64, Relaxed);
            self.compactions
                .last_merge_threads
                .store(outcome.max_threads as u64, Relaxed);
        }
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
        self.persist_manifest(&new_version, next_seq)?;
        if let Some(segment) = imm.wal_segment {
            self.wal.prune_upto(segment)?;
        }
        if let Some(t) = tel {
            let duration_micros = flush_started.map_or(0, |s| s.elapsed().as_micros() as u64);
            t.op_end(OpKind::Flush, flush_started);
            t.event(EventKind::FlushEnd { duration_micros });
        }
        if let (Some(tr), Some(active)) = (&self.tracer, flush_span) {
            // wal_segment is stored +1 so 0 can mean "no WAL" (volatile
            // store) without an Option in the link layout.
            tr.finish(
                active,
                0,
                vec![
                    imm.generation,
                    imm.entries,
                    imm.wal_segment.map_or(0, |s| s + 1),
                ],
            );
        }
        Ok(())
    }

    fn persist_manifest(&self, version: &Version, next_seq: u64) -> Result<()> {
        let Some(manifest) = &self.manifest else {
            return Ok(());
        };
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

    /// Cuts one observatory window: snapshots the engine's monotone
    /// counters and folds the delta against the previous snapshot into the
    /// windowed series. Returns the closed window's rates, or `None` when
    /// telemetry is off or this was the baseline (first) snapshot.
    fn observatory_tick(&self) -> Option<WindowRates> {
        let (t, series) = match (&self.telemetry, &self.series) {
            (Some(t), Some(s)) => (t, s),
            _ => return None,
        };
        let snapshot = TelemetrySnapshot {
            at_micros: t.now_micros(),
            gets: t.op_count(OpKind::Get),
            puts: t.op_count(OpKind::Put),
            ranges: t.op_count(OpKind::Range),
            bytes_flushed: self.compactions.bytes_flushed.load(Relaxed),
            entries_rewritten: self.compactions.entries_rewritten.load(Relaxed),
            stalls: self.pipeline.stalls.load(Relaxed),
            stall_micros: self.pipeline.stall_micros.load(Relaxed),
            level_io: t.attribution().snapshot(),
        };
        series.record(snapshot)
    }
}

/// The observatory sampler: cuts a window every `interval` until shutdown.
/// Owns only an `Arc<Core>` (like the flush worker), never touches op hot
/// paths, and wakes early when `obs_cv` signals shutdown.
fn sampler_loop(core: Arc<Core>, interval: Duration) {
    loop {
        let deadline = Instant::now() + interval;
        {
            let mut ctl = core.signals.control.lock().expect("control poisoned");
            loop {
                if ctl.shutdown {
                    return;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) = core
                    .signals
                    .obs_cv
                    .wait_timeout(ctl, deadline - now)
                    .expect("control poisoned");
                ctl = guard;
            }
        }
        core.observatory_tick();
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
    /// Opens a single-shard engine core. For directory-backed storage,
    /// recovers the tree from the manifest and replays the WAL segments.
    /// `sync_coord`, when present, routes every WAL fsync through the
    /// shared cross-shard coalescing coordinator.
    fn open_core(
        opts: DbOptions,
        sync_coord: Option<Arc<WalSyncCoordinator>>,
    ) -> Result<Arc<Core>> {
        let (disk, wal, manifest, replayed, manifest_state) = match &opts.storage {
            StorageConfig::Memory => (
                Disk::mem(opts.page_size),
                Wal::disabled(),
                None,
                Vec::new(),
                None,
            ),
            StorageConfig::MemoryCached(cache) => (
                Disk::mem_cached_with(opts.page_size, *cache, opts.cache_policy),
                Wal::disabled(),
                None,
                Vec::new(),
                None,
            ),
            StorageConfig::Directory(dir) => {
                std::fs::create_dir_all(dir)?;
                let disk =
                    Disk::file_with(dir.join("pages"), opts.page_size, opts.io_backend, None)?;
                let manifest = Manifest::at(dir.join("MANIFEST"));
                let state = manifest.load()?;
                let (wal, replayed) = Wal::open_with(dir, opts.wal_sync_each_append, sync_coord)?;
                (disk, wal, Some(manifest), replayed, state)
            }
        };

        let mut version = Version::empty();
        let mut next_seq = 0;
        if let Some(state) = &manifest_state {
            Self::recover_version(&disk, state, &mut version)?;
            next_seq = state.next_seq;
        }
        let memtable = Memtable::new();
        for entry in replayed {
            next_seq = next_seq.max(entry.seq + 1);
            memtable.insert(entry);
        }
        // (Separated values from replayed WAL records land inline in the
        // memtable, which is always correct — separation is an
        // optimization, not an invariant.)

        let vlog = opts
            .value_separation
            .map(|_| Arc::new(ValueLog::new(Arc::clone(&disk), 1024)));
        let telemetry = opts.telemetry.then(|| {
            Arc::new(Telemetry::for_shard(
                opts.shard_index,
                Telemetry::DEFAULT_EVENT_CAPACITY,
            ))
        });
        let tracer = match &telemetry {
            Some(_) if opts.tracing => {
                // Directory-backed stores also spill spans and events into
                // the on-disk flight recorder; volatile stores keep spans
                // in the in-memory ring only.
                let recorder = match &opts.storage {
                    StorageConfig::Directory(dir) => Some(FlightRecorder::open(
                        dir,
                        opts.recorder_segment_bytes,
                        opts.recorder_max_segments,
                    )?),
                    _ => None,
                };
                Some(Arc::new(Tracer::new(
                    opts.shard_index,
                    opts.trace_sample_period,
                    recorder,
                )))
            }
            _ => None,
        };
        if let Some(t) = &telemetry {
            disk.attach_attribution(Arc::clone(t.attribution()));
            disk.attach_io_latency(Arc::clone(t.io_latency()));
            wal.attach_telemetry(Arc::clone(t));
            if let Some(tr) = &tracer {
                t.attach_tracer(Arc::clone(tr));
                wal.attach_tracer(Arc::clone(tr));
            }
            // Surface a requested-but-unusable O_DIRECT backend exactly
            // once, at open — quietly running buffered when the operator
            // asked for device-true I/O would invalidate every latency
            // figure they read off the dashboard.
            let info = disk.backend_info();
            if let Some(reason) = &info.fallback {
                t.event(EventKind::IoBackendFallback {
                    reason: reason.clone(),
                });
            }
        }
        let series = telemetry.as_ref().map(|_| {
            Arc::new(WindowedSeries::new(
                opts.observatory_retention,
                DEFAULT_EWMA_ALPHA,
            ))
        });
        let core = Arc::new(Core {
            disk,
            shared: RwLock::new(Shared {
                memtable: Arc::new(memtable),
                next_seq,
                generation: 1,
                immutables: VecDeque::new(),
                version: Arc::new(version),
            }),
            signals: Signals {
                control: StdMutex::new(Control::default()),
                work_cv: Condvar::new(),
                stall_cv: Condvar::new(),
                obs_cv: Condvar::new(),
            },
            compaction_lock: Mutex::new(()),
            wal,
            manifest,
            compactions: CompactionCounters::default(),
            lookups: LookupCounters::default(),
            pipeline: PipelineCounters::default(),
            vlog,
            telemetry,
            tracer,
            series,
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

    /// Opens a volatile engine core over a caller-supplied [`Disk`] — used
    /// by tests and simulations that need a custom backend (fault
    /// injection, slow devices, bespoke caches). No WAL or manifest is
    /// attached.
    fn open_core_with_disk(opts: DbOptions, disk: Arc<Disk>) -> Result<Arc<Core>> {
        assert_eq!(
            disk.page_size(),
            opts.page_size,
            "disk and options disagree on the page size"
        );
        let vlog = opts
            .value_separation
            .map(|_| Arc::new(ValueLog::new(Arc::clone(&disk), 1024)));
        let telemetry = opts.telemetry.then(|| {
            Arc::new(Telemetry::for_shard(
                opts.shard_index,
                Telemetry::DEFAULT_EVENT_CAPACITY,
            ))
        });
        let tracer = match &telemetry {
            // Caller-supplied disks are volatile: spans stay in the ring,
            // no flight recorder.
            Some(_) if opts.tracing => Some(Arc::new(Tracer::new(
                opts.shard_index,
                opts.trace_sample_period,
                None,
            ))),
            _ => None,
        };
        if let Some(t) = &telemetry {
            disk.attach_attribution(Arc::clone(t.attribution()));
            disk.attach_io_latency(Arc::clone(t.io_latency()));
            if let Some(tr) = &tracer {
                t.attach_tracer(Arc::clone(tr));
            }
        }
        let series = telemetry.as_ref().map(|_| {
            Arc::new(WindowedSeries::new(
                opts.observatory_retention,
                DEFAULT_EWMA_ALPHA,
            ))
        });
        let core = Arc::new(Core {
            disk,
            shared: RwLock::new(Shared {
                memtable: Arc::default(),
                next_seq: 0,
                generation: 1,
                immutables: VecDeque::new(),
                version: Arc::new(Version::empty()),
            }),
            signals: Signals {
                control: StdMutex::new(Control::default()),
                work_cv: Condvar::new(),
                stall_cv: Condvar::new(),
                obs_cv: Condvar::new(),
            },
            compaction_lock: Mutex::new(()),
            wal: Wal::disabled(),
            manifest: None,
            compactions: CompactionCounters::default(),
            lookups: LookupCounters::default(),
            pipeline: PipelineCounters::default(),
            vlog,
            telemetry,
            tracer,
            series,
            opts,
        });
        Ok(core)
    }
}

/// One keyspace shard: an engine core plus its background threads.
/// Dropping it shuts the shard's pipeline down and joins its workers.
struct Shard {
    core: Arc<Core>,
    worker: Option<std::thread::JoinHandle<()>>,
    sampler: Option<std::thread::JoinHandle<()>>,
}

impl Shard {
    fn open(opts: DbOptions, sync_coord: Option<Arc<WalSyncCoordinator>>) -> Result<Shard> {
        Ok(Self::with_worker(Core::open_core(opts, sync_coord)?))
    }

    fn open_with_disk(opts: DbOptions, disk: Arc<Disk>) -> Result<Shard> {
        Ok(Self::with_worker(Core::open_core_with_disk(opts, disk)?))
    }

    fn with_worker(core: Arc<Core>) -> Self {
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
        let sampler = match (&core.series, core.opts.observatory_interval) {
            (Some(_), Some(interval)) => {
                let sampler_core = Arc::clone(&core);
                Some(
                    std::thread::Builder::new()
                        .name("monkey-obs-sampler".into())
                        .spawn(move || sampler_loop(sampler_core, interval))
                        .expect("spawn observatory sampler"),
                )
            }
            _ => None,
        };
        Self {
            core,
            worker,
            sampler,
        }
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
        self.core.signals.obs_cv.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
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
            if record.level == 0 {
                return Err(LsmError::Corruption("manifest run at level 0".into()));
            }
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

    /// Inserts or updates a key.
    ///
    /// With key-value separation enabled, values at or above the threshold
    /// go to the value log and the tree stores a pointer; the WAL always
    /// records the full value, so durability does not depend on log-page
    /// flush timing.
    fn put(&self, key: Bytes, value: Bytes) -> Result<()> {
        let core = self;
        let started = match &core.telemetry {
            Some(t) => t.op_start(OpKind::Put),
            None => None,
        };
        let put_span = core
            .tracer
            .as_ref()
            .and_then(|t| t.maybe_start(SpanKind::Put));
        core.check_background_error()?;
        if let Some(t) = &core.telemetry {
            // Classified as `w` before the key moves into the entry below.
            t.workload().record_update(&key);
        }
        let separate = match (&core.vlog, core.opts.value_separation) {
            (Some(vlog), Some(threshold)) if value.len() >= threshold => {
                if value.len() > vlog.max_value_len() {
                    return Err(LsmError::EntryTooLarge {
                        encoded: value.len(),
                        max: vlog.max_value_len(),
                    });
                }
                true
            }
            _ => {
                core.check_entry_size(&key, value.len())?;
                false
            }
        };
        if separate {
            core.check_entry_size(&key, ValuePointer::ENCODED_LEN)?;
        }
        let seq;
        let generation;
        {
            let mut shared = core.shared.write();
            seq = shared.next_seq;
            shared.next_seq += 1;
            // The WAL gets the full value either way. Enqueued under the
            // exclusive lock (preserving sequence order); the physical
            // write happens in `commit` below, off the lock, batched with
            // whatever other writers enqueued meanwhile.
            core.wal.enqueue(&Entry {
                key: key.clone(),
                value: value.clone(),
                seq,
                kind: EntryKind::Put,
            })?;
            let entry = if separate {
                let ptr = core
                    .vlog
                    .as_ref()
                    .expect("separation checked")
                    .append(&value)?;
                Entry {
                    key,
                    value: Bytes::copy_from_slice(&ptr.encode()),
                    seq,
                    kind: EntryKind::IndirectPut,
                }
            } else {
                Entry {
                    key,
                    value,
                    seq,
                    kind: EntryKind::Put,
                }
            };
            shared.memtable.insert(entry);
            generation = shared.generation;
            core.maybe_rotate_after_insert(shared)?;
        }
        let wal_batch = core.wal.commit(seq)?;
        if let (Some(tr), Some(active)) = (&core.tracer, put_span) {
            // Links: the group-commit batch that made this put durable and
            // the memtable generation it landed in — the flush of that
            // generation carries the same id.
            tr.finish(active, 0, vec![wal_batch, generation]);
        }
        if let Some(t) = &core.telemetry {
            t.op_end(OpKind::Put, started);
        }
        Ok(())
    }

    /// Deletes a key (writes a tombstone). Counted as a put in telemetry:
    /// a tombstone write takes the identical path.
    fn delete(&self, key: Bytes) -> Result<()> {
        let core = self;
        let started = match &core.telemetry {
            Some(t) => t.op_start(OpKind::Put),
            None => None,
        };
        core.check_background_error()?;
        if let Some(t) = &core.telemetry {
            t.workload().record_update(&key);
        }
        core.check_entry_size(&key, 0)?;
        let seq;
        {
            let mut shared = core.shared.write();
            seq = shared.next_seq;
            shared.next_seq += 1;
            let entry = Entry::tombstone(key, seq);
            core.wal.enqueue(&entry)?;
            shared.memtable.insert(entry);
            core.maybe_rotate_after_insert(shared)?;
        }
        core.wal.commit(seq)?;
        if let Some(t) = &core.telemetry {
            t.op_end(OpKind::Put, started);
        }
        Ok(())
    }

    /// Point lookup. Probes the buffer and any frozen memtables, then each
    /// level shallow-to-deep (runs youngest-to-oldest), stopping at the
    /// first version found (§2).
    ///
    /// One brief shared-lock critical section snapshots the memtable probe
    /// result, the immutable list, and the version; every disk probe runs
    /// with **no lock held**, so an in-flight flush or merge cascade never
    /// delays the lookup. The key is hashed **once**, when the lookup
    /// first reaches the disk levels.
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        match &self.telemetry {
            Some(t) => {
                let started = t.op_start(OpKind::Get);
                let out = self.get_impl(key);
                if let Ok(found) = &out {
                    // The taxonomy split the model cares about: zero-result
                    // (`r`) vs non-zero-result (`v`) point lookups.
                    t.workload().record_lookup(key, found.is_some());
                }
                t.op_end(OpKind::Get, started);
                out
            }
            None => self.get_impl(key),
        }
    }

    fn get_impl(&self, key: &[u8]) -> Result<Option<Bytes>> {
        let core = self;
        let (immutables, version) = {
            let shared = core.shared.read();
            if let Some(entry) = shared.memtable.get(key) {
                drop(shared);
                return core.resolve_value(&entry);
            }
            let immutables: Vec<Arc<Memtable>> = shared
                .immutables
                .iter()
                .map(|imm| Arc::clone(&imm.memtable))
                .collect();
            (immutables, Arc::clone(&shared.version))
        };
        // Frozen memtables, newest first.
        for imm in immutables.iter().rev() {
            if let Some(entry) = imm.get(key) {
                return core.resolve_value(&entry);
            }
        }
        let pair = hash_pair(key); // the lookup's only hash computation
        core.lookups.key_hashes.fetch_add(1, Relaxed);
        let tel = core.telemetry.as_deref();
        for (li, level) in version.levels().iter().enumerate() {
            for run in level.runs() {
                let look = run.get_hashed(key, pair)?;
                // With telemetry on the per-level table is the sole record
                // of probe traffic — `lookup_stats` derives its engine-wide
                // totals from it — so the hot path pays one fetch_add per
                // probed run either way, never two sets of counters.
                match tel {
                    Some(t) => {
                        if look.probed_filter {
                            if !look.filter_negative && look.page_read && look.entry.is_none() {
                                t.record_false_positive(li + 1);
                            }
                            t.record_filter_probe(li + 1, look.filter_negative);
                        }
                        if look.page_read {
                            t.record_lookup_read(li + 1);
                        }
                    }
                    None if look.probed_filter => {
                        core.lookups.filter_probes.fetch_add(1, Relaxed);
                        if look.filter_negative {
                            core.lookups.filter_negatives.fetch_add(1, Relaxed);
                        } else if look.page_read && look.entry.is_none() {
                            // The filter said "maybe", the page said no: a
                            // true false positive, one wasted I/O.
                            core.lookups.filter_false_positives.fetch_add(1, Relaxed);
                        }
                    }
                    None => {}
                }
                if let Some(entry) = look.entry {
                    return core.resolve_value(&entry);
                }
            }
        }
        Ok(None)
    }

    /// Counters of the point-lookup fast path since open. With telemetry
    /// on, the engine-wide totals are the sums of the per-level telemetry
    /// table (the hot path writes only there); otherwise they come from
    /// the engine's own global counters.
    fn lookup_stats(&self) -> LookupStats {
        let l = &self.lookups;
        let key_hashes = l.key_hashes.load(Relaxed);
        match self.telemetry.as_deref() {
            Some(t) => {
                let levels = t.level_lookups();
                LookupStats {
                    key_hashes,
                    filter_probes: levels.iter().map(|s| s.filter_probes).sum(),
                    filter_negatives: levels.iter().map(|s| s.filter_negatives).sum(),
                    filter_false_positives: levels.iter().map(|s| s.filter_false_positives).sum(),
                }
            }
            None => LookupStats {
                key_hashes,
                filter_probes: l.filter_probes.load(Relaxed),
                filter_negatives: l.filter_negatives.load(Relaxed),
                filter_false_positives: l.filter_false_positives.load(Relaxed),
            },
        }
    }

    /// Counters of the write pipeline since open: stall events and time,
    /// deferred worker failures, and WAL group-commit batching.
    fn pipeline_stats(&self) -> PipelineStats {
        let p = &self.pipeline;
        let wal = self.wal.stats();
        PipelineStats {
            stalls: p.stalls.load(Relaxed),
            stall_micros: p.stall_micros.load(Relaxed),
            background_errors: p.background_errors.load(Relaxed),
            wal_group_commits: wal.group_commits,
            wal_batched_appends: wal.batched_appends,
            wal_syncs: wal.syncs,
        }
    }

    /// Instantaneous levels of the write pipeline (see [`PipelineGauges`]
    /// for why these are kept apart from the counters).
    fn pipeline_gauges(&self) -> PipelineGauges {
        PipelineGauges {
            immutable_queue_depth: self.shared.read().immutables.len(),
            stalled_writers: self.pipeline.active_stalls.load(Relaxed) as usize,
        }
    }

    /// Range scan over `[lo, hi)` (`hi = None` scans to the end). The
    /// cursor shares ownership of the memtables and runs it reads, so
    /// rotations, flushes and merges do not disturb it. Writes that reach
    /// the active memtable while the scan runs may be seen by it: each key
    /// it yields is a version at least as new as when the scan opened.
    fn range(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<RangeIter> {
        // The cursor's Drop records the whole scan's latency, not just
        // construction — the sample covers every page the scan touched.
        let timer = self
            .telemetry
            .as_ref()
            .map(|t| (Arc::clone(t), t.op_start(OpKind::Range)));
        if let Some(hi) = hi {
            if hi <= lo {
                // Empty (or inverted) interval: nothing to scan.
                return Ok(RangeIter::new(MergingIter::new(Vec::new()), None)
                    .with_value_log(None)
                    .with_telemetry(timer));
            }
        }
        let core = self;
        // The one owned copy of the bound, shared by the memtable cursors
        // and the scan itself.
        let hi = hi.map(Bytes::copy_from_slice);
        let (mut sources, version) = {
            let shared = core.shared.read();
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
                sources.push(run.scan_from(lo)?.into());
            }
        }
        Ok(RangeIter::new(MergingIter::new(sources), hi)
            .with_value_log(core.vlog.clone())
            .with_telemetry(timer))
    }

    /// Forces the buffer to flush into the tree even if not full, then
    /// drains the whole immutable queue on the calling thread. After this
    /// returns, the pipeline is quiesced: `stats()`/`verify()` see a
    /// settled tree.
    fn flush(&self) -> Result<()> {
        let core = self;
        core.check_background_error()?;
        {
            let mut shared = core.shared.write();
            core.rotate_locked(&mut shared)?;
        }
        core.drain_queue()
    }

    /// Stops the background worker from flushing (testing hook, the
    /// analogue of RocksDB's `DisableAutoCompactions`). Foreground drains
    /// (`flush`, synchronous-mode rotation) are unaffected. With the
    /// worker paused, rotations accumulate in the immutable queue until
    /// backpressure stalls puts.
    fn pause_compaction(&self) {
        self.signals
            .control
            .lock()
            .expect("control poisoned")
            .paused = true;
    }

    /// Resumes background flushing after [`pause_compaction`](Self::pause_compaction).
    fn resume_compaction(&self) {
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
    fn close(&self) -> Result<()> {
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
    fn rebuild_filters(&self) -> Result<()> {
        let core = self;
        let _cascade = core.compaction_lock.lock();
        let (base, extra_entries) = {
            let shared = core.shared.read();
            let extra = shared.memtable.len() as u64
                + shared.immutables.iter().map(|i| i.entries).sum::<u64>();
            (Arc::clone(&shared.version), extra)
        };
        let mut working = (*base).clone();
        let num_levels = working.deepest();
        // Snapshot of every run's position and size.
        let all: Vec<(usize, usize, u64)> = working
            .levels()
            .iter()
            .enumerate()
            .flat_map(|(li, level)| {
                level
                    .runs()
                    .iter()
                    .enumerate()
                    .map(move |(ri, run)| (li, ri, run.entries()))
            })
            .collect();
        let total: u64 = all.iter().map(|x| x.2).sum::<u64>() + extra_entries;
        for &(li, ri, entries) in &all {
            let others: Vec<u64> = all
                .iter()
                .filter(|&&(lj, rj, _)| (lj, rj) != (li, ri))
                .map(|x| x.2)
                .collect();
            let ctx = FilterContext {
                level: li + 1,
                num_levels,
                run_entries: entries,
                total_entries: total,
                other_run_entries: others,
                size_ratio: core.opts.size_ratio,
                merge_policy: core.opts.merge_policy,
            };
            let bits = core.opts.filter_policy.bits_per_entry(&ctx);
            let current = Arc::clone(&working.levels()[li].runs()[ri]);
            let allocation_drifted = (bits - current.filter_bits_per_entry()).abs() > 1e-9;
            let variant_changed = current.filter_variant() != core.opts.filter_variant;
            if allocation_drifted || variant_changed {
                let params = FilterParams::new(bits, core.opts.filter_variant);
                let rebuilt = Arc::new(recover_run(&core.disk, current.id(), params)?);
                working.levels_mut()[li].replace_run(ri, rebuilt);
            }
        }
        let new_version = Arc::new(working);
        let next_seq;
        {
            let mut shared = core.shared.write();
            shared.version = Arc::clone(&new_version);
            next_seq = shared.next_seq;
        }
        core.retag_attribution(&new_version);
        core.persist_manifest(&new_version, next_seq)?;
        Ok(())
    }

    /// Maintenance-work counters since open.
    fn compaction_stats(&self) -> CompactionStats {
        let c = &self.compactions;
        CompactionStats {
            flushes: c.flushes.load(Relaxed),
            merges: c.merges.load(Relaxed),
            entries_rewritten: c.entries_rewritten.load(Relaxed),
            last_merge_partitions: c.last_merge_partitions.load(Relaxed),
            last_merge_threads: c.last_merge_threads.load(Relaxed),
        }
    }

    /// Deep integrity check: reads every page of every run (counted I/O)
    /// and verifies
    ///
    /// * page checksums and decodability,
    /// * strict key ordering within and across pages,
    /// * agreement between a run's metadata (entry count, byte size, key
    ///   bounds) and its pages,
    /// * that the Bloom filter has no false negatives,
    /// * that every value-log pointer resolves (checksummed page, valid
    ///   slot),
    /// * the youngest-first sequence ordering of runs within a level.
    ///
    /// Returns the number of entries verified.
    fn verify(&self) -> Result<u64> {
        let version = Arc::clone(&self.shared.read().version);
        let mut verified = 0u64;
        for (idx, level) in version.levels().iter().enumerate() {
            for run in level.runs() {
                let mut count = 0u64;
                let mut bytes = 0u64;
                let mut prev: Option<Vec<u8>> = None;
                let mut cursor = run.scan_from(b"")?; // checksums verified page by page
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
                    if entry.kind == EntryKind::IndirectPut {
                        // Dangling or corrupt value-log pointers surface here.
                        self.resolve_value(
                            &cursor.page().to_entry().expect("cursor is on an entry"),
                        )?;
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

    /// Structural and memory statistics.
    fn stats(&self) -> DbStats {
        let core = self;
        let (buffer_entries, buffer_bytes, immutable_entries, queue_depth, version) = {
            let shared = core.shared.read();
            (
                shared.memtable.len() as u64,
                shared.memtable.bytes() as u64,
                shared.immutables.iter().map(|i| i.entries).sum::<u64>(),
                shared.immutables.len(),
                Arc::clone(&shared.version),
            )
        };
        let mut levels = Vec::with_capacity(version.depth());
        let mut filter_bits = 0u64;
        let mut fence_bits = 0u64;
        let mut fpr_total = 0.0f64;
        for (idx, level) in version.levels().iter().enumerate() {
            let mut level_filter_bits = 0u64;
            let mut fpr_sum = 0.0f64;
            for run in level.runs() {
                level_filter_bits += run.filter().memory_bits() as u64;
                fence_bits += run.fence_memory_bits();
                fpr_sum += run.filter().theoretical_fpr();
            }
            filter_bits += level_filter_bits;
            fpr_total += fpr_sum;
            levels.push(LevelStats {
                level: idx + 1,
                runs: level.run_count(),
                entries: level.entries(),
                bytes: level.bytes(),
                capacity_bytes: level_capacity_bytes(
                    core.opts.buffer_capacity,
                    core.opts.size_ratio,
                    idx + 1,
                ),
                filter_bits: level_filter_bits,
                fpr_sum,
            });
        }
        let p = &core.pipeline;
        let wal = core.wal.stats();
        DbStats {
            buffer_entries,
            buffer_bytes,
            buffer_capacity: core.opts.buffer_capacity as u64,
            disk_entries: version.disk_entries(),
            runs: version.run_count(),
            levels,
            filter_bits,
            fence_bits,
            expected_zero_result_lookup_ios: fpr_total,
            lookups: self.lookup_stats(),
            immutable_entries,
            pipeline: PipelineStats {
                stalls: p.stalls.load(Relaxed),
                stall_micros: p.stall_micros.load(Relaxed),
                background_errors: p.background_errors.load(Relaxed),
                wal_group_commits: wal.group_commits,
                wal_batched_appends: wal.batched_appends,
                wal_syncs: wal.syncs,
            },
            pipeline_gauges: PipelineGauges {
                immutable_queue_depth: queue_depth,
                stalled_writers: p.active_stalls.load(Relaxed) as usize,
            },
        }
    }

    /// Assembles the full telemetry snapshot: per-op latency percentiles,
    /// per-level I/O attribution and measured-vs-allocated filter FPRs
    /// (with drift flags), the model's expected zero-result lookup cost
    /// next to the measured one, and the drained event timeline.
    ///
    /// Returns `None` unless the database was opened with
    /// [`DbOptions::telemetry`]. Draining the events is destructive: each
    /// event appears in exactly one report.
    fn telemetry_report(&self) -> Option<TelemetryReport> {
        let t = self.telemetry.as_ref()?;
        let stats = self.stats();
        let level_lookups = t.level_lookups();
        let io = t.attribution().snapshot();
        let ops = OP_KINDS
            .iter()
            .map(|&k| OpLatencyReport::from_snapshot(k.name(), t.op_count(k), &t.hist(k)))
            .collect();
        let levels = stats
            .levels
            .iter()
            .map(|l| {
                let slot = l.level.min(MAX_LEVELS);
                let lookups = level_lookups[slot];
                // The mean of the level's per-run FPRs is the expected
                // false positives per *negative* probe — the comparable
                // quantity to the measured negative-query rate.
                let allocated_fpr = if l.runs > 0 {
                    l.fpr_sum / l.runs as f64
                } else {
                    0.0
                };
                let measured_fpr = lookups.measured_fpr();
                // A level whose runs merged away keeps its probe history
                // but has no allocation left to drift from.
                let drift = if l.runs > 0 {
                    drift_flag(measured_fpr, allocated_fpr, lookups.negative_trials())
                } else {
                    None
                };
                LevelReport {
                    level: l.level,
                    runs: l.runs,
                    entries: l.entries,
                    io: io[slot],
                    allocated_fpr,
                    measured_fpr,
                    drift,
                    lookups,
                }
            })
            .collect();
        // Backend-op latency rows, ops with no backend calls omitted.
        let lat = t.io_latency();
        let io_lat = IO_OPS
            .iter()
            .filter(|&&op| lat.op_count(op) > 0)
            .map(|&op| {
                IoLatencyReport::from_level_hists(op.name(), lat.op_count(op), &lat.snapshot(op))
            })
            .collect();
        Some(TelemetryReport {
            uptime_micros: t.now_micros(),
            ops,
            levels,
            unattributed_io: io[0],
            io: io_lat,
            expected_zero_result_lookup_ios: stats.expected_zero_result_lookup_ios,
            measured_zero_result_lookup_ios: stats.lookups.measured_zero_result_lookup_ios(),
            lookups: stats.lookups.key_hashes,
            immutable_queue_depth: stats.pipeline_gauges.immutable_queue_depth as u64,
            stalled_writers: stats.pipeline_gauges.stalled_writers as u64,
            last_merge_partitions: self.compactions.last_merge_partitions.load(Relaxed),
            last_merge_threads: self.compactions.last_merge_threads.load(Relaxed),
            events: t.drain_events(),
            events_dropped: t.events_dropped(),
            shards: Vec::new(),
            spans: self
                .tracer
                .as_ref()
                .map_or_else(Vec::new, |tr| tr.drain_spans()),
            spans_started: self.tracer.as_ref().map_or(0, |tr| tr.spans_started()),
            spans_dropped: self.tracer.as_ref().map_or(0, |tr| tr.spans_dropped()),
            recorder_bytes: self.tracer.as_ref().map_or(0, |tr| tr.recorder_bytes()),
            io_backend: Some(io_backend_report(self.disk.backend_info())),
        })
    }
}

/// Renders the storage layer's backend identity for telemetry reports.
fn io_backend_report(info: &BackendInfo) -> IoBackendReport {
    IoBackendReport {
        requested: info.requested.name().to_string(),
        kind: info.kind.to_string(),
        align: info.align as u64,
        fallback: info.fallback.clone(),
    }
}

/// Seed of the shard router's key hash. Fixed forever: which shard a key
/// lives on — and therefore the on-disk layout of every multi-shard store
/// — depends on it.
const SHARD_SEED: u64 = 0x4d4f_4e4b_4559_2153;

/// Meta file at a multi-shard store's root recording its shard count. A
/// single-shard store writes no meta and keeps the pre-shard layout, so
/// stores created before sharding existed open unchanged — and so the
/// single-shard disk image stays byte-identical.
const SHARDS_META: &str = "SHARDS";

impl Db {
    /// Opens a database.
    ///
    /// With [`DbOptions::shards`] > 1 the keyspace is hash-partitioned
    /// into that many independent engines, each rooted in its own
    /// `shard-NNN` subdirectory with `ceil(1/N)` of the global memory
    /// budgets (§4.4: buffer, stall threshold, and block cache are
    /// *divided*, never replicated). The shard count of a durable store is
    /// fixed at creation (recorded in a `SHARDS` meta file) and reopening
    /// honors what is on disk, whatever the new options request — use
    /// [`migrate_to`](Self::migrate_to) to re-shard.
    pub fn open(opts: DbOptions) -> Result<Arc<Self>> {
        let n = Self::resolve_shards(&opts)?;
        // One fsync coordinator spans every shard's WAL, so concurrent
        // group commits collapse into shared sync epochs (the batching is
        // an optimization over *when* fsyncs run, never whether — each
        // commit still returns only after its bytes are synced).
        let sync_coord = (opts.wal_fsync_batching
            && opts.wal_sync_each_append
            && matches!(opts.storage, StorageConfig::Directory(_)))
        .then(WalSyncCoordinator::new);
        let mut shards = Vec::with_capacity(n);
        for index in 0..n {
            shards.push(Shard::open(
                Self::shard_options(&opts, index, n),
                sync_coord.clone(),
            )?);
        }
        let db = Arc::new(Db {
            opts,
            obs_server: OnceLock::new(),
            advice_provider: OnceLock::new(),
            sync_coord,
            shards,
        });
        db.bind_obs_server()?;
        Ok(db)
    }

    /// Opens a volatile database over a caller-supplied [`Disk`] — used by
    /// tests and simulations that need a custom backend (fault injection,
    /// slow devices, bespoke caches). No WAL or manifest is attached, and
    /// the store always runs single-shard: one externally-owned disk
    /// cannot be partitioned.
    pub fn open_with_disk(opts: DbOptions, disk: Arc<Disk>) -> Result<Arc<Self>> {
        let mut opts = opts;
        opts.shards = 1;
        let shard = Shard::open_with_disk(opts.clone(), disk)?;
        let db = Arc::new(Db {
            opts,
            obs_server: OnceLock::new(),
            advice_provider: OnceLock::new(),
            sync_coord: None,
            shards: vec![shard],
        });
        db.bind_obs_server()?;
        Ok(db)
    }

    /// How many shards a store actually runs. The `SHARDS` meta of an
    /// existing multi-shard store wins; an existing store *without* one is
    /// single-shard whatever was requested (its layout is already on
    /// disk); a fresh directory honors the request and records it.
    fn resolve_shards(opts: &DbOptions) -> Result<usize> {
        let requested = opts.shards.max(1);
        let StorageConfig::Directory(root) = &opts.storage else {
            return Ok(requested);
        };
        let meta = root.join(SHARDS_META);
        match std::fs::read_to_string(&meta) {
            Ok(text) => text
                .trim()
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 2)
                .ok_or_else(|| {
                    LsmError::Corruption(format!("malformed {SHARDS_META} meta: {:?}", text.trim()))
                }),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let occupied = match std::fs::read_dir(root) {
                    Ok(mut entries) => entries.next().is_some(),
                    Err(_) => false,
                };
                if occupied {
                    return Ok(1);
                }
                if requested > 1 {
                    std::fs::create_dir_all(root)?;
                    std::fs::write(&meta, format!("{requested}\n"))?;
                }
                Ok(requested)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// The configuration one shard runs under: the global memory budgets
    /// split `ceil(total / N)` with a one-page floor, and storage rooted
    /// in the shard's own subdirectory. A single-shard store passes the
    /// options through untouched (bit-identity with the pre-shard engine).
    fn shard_options(opts: &DbOptions, index: usize, n: usize) -> DbOptions {
        let mut shard = opts.clone();
        shard.shards = 1;
        shard.shard_index = index as u32;
        // The scrape endpoint belongs to the facade, never to a shard.
        shard.obs_listen = None;
        if n == 1 {
            return shard;
        }
        let split = |total: usize| total.div_ceil(n).max(opts.page_size);
        shard.buffer_capacity = split(opts.buffer_capacity);
        shard.stall_threshold = opts.stall_threshold.map(split);
        shard.storage = match &opts.storage {
            StorageConfig::Memory => StorageConfig::Memory,
            StorageConfig::MemoryCached(bytes) => StorageConfig::MemoryCached(split(*bytes)),
            StorageConfig::Directory(root) => {
                StorageConfig::Directory(root.join(format!("shard-{index:03}")))
            }
        };
        shard
    }

    /// The shard that owns `key`. Single-shard stores skip the hash
    /// entirely — the route is free on the pre-shard code path.
    fn shard_for(&self, key: &[u8]) -> &Core {
        match self.shards.len() {
            1 => &self.shards[0].core,
            n => {
                &self.shards[(monkey_bloom::hash::xxh64(key, SHARD_SEED) % n as u64) as usize].core
            }
        }
    }

    fn cores(&self) -> impl Iterator<Item = &Core> {
        self.shards.iter().map(|s| &*s.core)
    }

    /// The configuration this database was opened with — facade-level:
    /// budgets are the undivided totals, `shards` the requested count.
    pub fn options(&self) -> &DbOptions {
        &self.opts
    }

    /// The underlying counted storage (for I/O measurements). On a
    /// multi-shard store this is shard 0's disk; use [`io`](Self::io) for
    /// store-wide counters.
    pub fn disk(&self) -> &Arc<Disk> {
        &self.shards[0].core.disk
    }

    /// I/O counters since open or the last reset, summed across shards.
    pub fn io(&self) -> IoSnapshot {
        let mut total = IoSnapshot::default();
        for core in self.cores() {
            let io = core.disk.io();
            total.page_reads += io.page_reads;
            total.page_writes += io.page_writes;
            total.seeks += io.seeks;
            total.cache_hits += io.cache_hits;
        }
        total
    }

    /// Resets the I/O counters of every shard.
    pub fn reset_io(&self) {
        for core in self.cores() {
            core.disk.reset_io();
        }
    }

    /// Inserts or updates a key (routed to the shard that owns it).
    ///
    /// With key-value separation enabled, values at or above the threshold
    /// go to the value log and the tree stores a pointer; the WAL always
    /// records the full value, so durability does not depend on log-page
    /// flush timing.
    pub fn put(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> Result<()> {
        let key = key.into();
        self.shard_for(&key).put(key, value.into())
    }

    /// Deletes a key (writes a tombstone on the owning shard). Counted as
    /// a put in telemetry: a tombstone write takes the identical path.
    pub fn delete(&self, key: impl Into<Bytes>) -> Result<()> {
        let key = key.into();
        self.shard_for(&key).delete(key)
    }

    /// Point lookup, routed to the one shard that owns the key — other
    /// shards are never probed, so per-lookup cost does not grow with the
    /// shard count.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        self.shard_for(key).get(key)
    }

    /// Range scan over `[lo, hi)` (`hi = None` scans to the end). The
    /// cursor owns snapshots of the relevant memtables and runs, so
    /// concurrent writes and merges do not disturb it. On a multi-shard
    /// store the scan fans out to every shard and merges the (disjoint)
    /// per-shard cursors back into one key-ordered stream.
    pub fn range(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<RangeIter> {
        if self.shards.len() == 1 {
            return self.shards[0].core.range(lo, hi);
        }
        let mut children = Vec::with_capacity(self.shards.len());
        for core in self.cores() {
            children.push(core.range(lo, hi)?);
        }
        RangeIter::fanout(children)
    }

    /// Forces every shard's buffer to flush into its tree even if not
    /// full, then drains the immutable queues on the calling thread. After
    /// this returns, the pipeline is quiesced: `stats()`/`verify()` see a
    /// settled tree.
    pub fn flush(&self) -> Result<()> {
        for core in self.cores() {
            core.flush()?;
        }
        Ok(())
    }

    /// Deterministic escape hatch for model-vs-engine comparisons: flush
    /// and run every resulting merge cascade to completion on the calling
    /// thread, regardless of `background_compaction`.
    pub fn compact_blocking(&self) -> Result<()> {
        self.flush()
    }

    /// Stops the background workers from flushing (testing hook, the
    /// analogue of RocksDB's `DisableAutoCompactions`). Foreground drains
    /// (`flush`, synchronous-mode rotation) are unaffected. With the
    /// workers paused, rotations accumulate in the immutable queues until
    /// backpressure stalls puts.
    pub fn pause_compaction(&self) {
        for core in self.cores() {
            core.pause_compaction();
        }
    }

    /// Resumes background flushing after [`pause_compaction`](Self::pause_compaction).
    pub fn resume_compaction(&self) {
        for core in self.cores() {
            core.resume_compaction();
        }
    }

    /// Quiesces the pipeline without consuming the handle: drains queued
    /// immutable memtables, writes out any buffered WAL records, and
    /// propagates a deferred background error. The active memtables are
    /// NOT flushed — their entries are durable in the WAL (drop does the
    /// same).
    pub fn close(&self) -> Result<()> {
        for core in self.cores() {
            core.close()?;
        }
        Ok(())
    }

    /// Rebuilds every run's Bloom filter according to the *current* filter
    /// policy and tree shape, by rescanning the runs — on every shard.
    /// Used when a policy's ideal allocation drifts from what runs were
    /// built with. The scan is counted I/O; experiments reset counters
    /// afterwards.
    pub fn rebuild_filters(&self) -> Result<()> {
        for core in self.cores() {
            core.rebuild_filters()?;
        }
        Ok(())
    }

    /// Self-tuning re-shape ("migrate the store from one tuning setting to
    /// another"). Opens a fresh database under `new_opts`, streams every
    /// live entry into it (tombstones and superseded versions are left
    /// behind), and returns the new store. Also the re-*sharding* path:
    /// the target may run any shard count.
    ///
    /// The source is read through a snapshot cursor, so it stays readable
    /// during the migration; writes applied to the source after the
    /// snapshot is taken are *not* carried over — quiesce writes first or
    /// diff afterwards. The transformation cost is observable by diffing
    /// [`io`](Self::io) on both stores around the call.
    pub fn migrate_to(&self, new_opts: DbOptions) -> Result<Arc<Db>> {
        let target = Db::open(new_opts)?;
        for kv in self.range(b"", None)? {
            let (key, value) = kv?;
            target.put(key, value)?;
        }
        target.flush()?;
        Ok(target)
    }

    /// Counters of the point-lookup fast path since open, summed across
    /// shards.
    pub fn lookup_stats(&self) -> LookupStats {
        let mut total = LookupStats::default();
        for core in self.cores() {
            let s = core.lookup_stats();
            total.key_hashes += s.key_hashes;
            total.filter_probes += s.filter_probes;
            total.filter_negatives += s.filter_negatives;
            total.filter_false_positives += s.filter_false_positives;
        }
        total
    }

    /// Counters of the write pipeline since open, summed across shards.
    pub fn pipeline_stats(&self) -> PipelineStats {
        let mut total = PipelineStats::default();
        for core in self.cores() {
            let s = core.pipeline_stats();
            total.stalls += s.stalls;
            total.stall_micros += s.stall_micros;
            total.background_errors += s.background_errors;
            total.wal_group_commits += s.wal_group_commits;
            total.wal_batched_appends += s.wal_batched_appends;
            total.wal_syncs += s.wal_syncs;
        }
        total
    }

    /// Global WAL fsync-coalescing counters (tickets issued vs. physical
    /// syncs performed), when fsync batching is active on this store.
    /// `syncs / tickets` is the store-wide syncs-per-commit ratio; under
    /// concurrent writers it drops below 1.
    pub fn wal_sync_stats(&self) -> Option<SyncStats> {
        self.sync_coord.as_ref().map(|c| c.stats())
    }

    /// Which disk backend this store is running on: the requested kind,
    /// the active kind after the runtime fallback ladder, and the
    /// discovered alignment.
    pub fn io_backend_info(&self) -> BackendInfo {
        self.shards[0].core.disk.backend_info().clone()
    }

    /// Instantaneous levels of the write pipeline, summed across shards.
    pub fn pipeline_gauges(&self) -> PipelineGauges {
        let mut total = PipelineGauges::default();
        for core in self.cores() {
            let g = core.pipeline_gauges();
            total.immutable_queue_depth += g.immutable_queue_depth;
            total.stalled_writers += g.stalled_writers;
        }
        total
    }

    /// Maintenance-work counters since open, summed across shards (the
    /// `last_merge_*` gauges report the widest merge any shard ran).
    pub fn compaction_stats(&self) -> CompactionStats {
        let mut total = CompactionStats::default();
        for core in self.cores() {
            let s = core.compaction_stats();
            total.flushes += s.flushes;
            total.merges += s.merges;
            total.entries_rewritten += s.entries_rewritten;
            total.last_merge_partitions = total.last_merge_partitions.max(s.last_merge_partitions);
            total.last_merge_threads = total.last_merge_threads.max(s.last_merge_threads);
        }
        total
    }

    /// Deep integrity check of every shard: reads every page of every run
    /// (counted I/O) and verifies checksums, key ordering, metadata
    /// agreement, filter completeness, and value-log pointers. Returns the
    /// number of entries verified across all shards.
    pub fn verify(&self) -> Result<u64> {
        let mut verified = 0;
        for core in self.cores() {
            verified += core.verify()?;
        }
        Ok(verified)
    }

    /// Structural and memory statistics. On a multi-shard store the
    /// shards' snapshots are merged: entries, bytes, memory footprints,
    /// and pipeline counters sum; `expected_zero_result_lookup_ios` is the
    /// *mean* across shards (a point lookup probes exactly one shard, so
    /// per-level `fpr_sum` contributions are averaged likewise).
    pub fn stats(&self) -> DbStats {
        if self.shards.len() == 1 {
            return self.shards[0].core.stats();
        }
        let per: Vec<DbStats> = self.cores().map(|c| c.stats()).collect();
        let n = per.len() as f64;
        let mut levels: Vec<LevelStats> = Vec::new();
        for s in &per {
            for l in &s.levels {
                while levels.len() < l.level {
                    levels.push(LevelStats {
                        level: levels.len() + 1,
                        runs: 0,
                        entries: 0,
                        bytes: 0,
                        capacity_bytes: 0,
                        filter_bits: 0,
                        fpr_sum: 0.0,
                    });
                }
                let slot = &mut levels[l.level - 1];
                slot.runs += l.runs;
                slot.entries += l.entries;
                slot.bytes += l.bytes;
                slot.capacity_bytes += l.capacity_bytes;
                slot.filter_bits += l.filter_bits;
                slot.fpr_sum += l.fpr_sum;
            }
        }
        for l in &mut levels {
            l.fpr_sum /= n;
        }
        let mut total = DbStats {
            levels,
            ..DbStats::default()
        };
        for s in &per {
            total.buffer_entries += s.buffer_entries;
            total.buffer_bytes += s.buffer_bytes;
            total.buffer_capacity += s.buffer_capacity;
            total.disk_entries += s.disk_entries;
            total.runs += s.runs;
            total.filter_bits += s.filter_bits;
            total.fence_bits += s.fence_bits;
            total.expected_zero_result_lookup_ios += s.expected_zero_result_lookup_ios;
            total.lookups.key_hashes += s.lookups.key_hashes;
            total.lookups.filter_probes += s.lookups.filter_probes;
            total.lookups.filter_negatives += s.lookups.filter_negatives;
            total.lookups.filter_false_positives += s.lookups.filter_false_positives;
            total.immutable_entries += s.immutable_entries;
            total.pipeline.stalls += s.pipeline.stalls;
            total.pipeline.stall_micros += s.pipeline.stall_micros;
            total.pipeline.background_errors += s.pipeline.background_errors;
            total.pipeline.wal_group_commits += s.pipeline.wal_group_commits;
            total.pipeline.wal_batched_appends += s.pipeline.wal_batched_appends;
            total.pipeline.wal_syncs += s.pipeline.wal_syncs;
            total.pipeline_gauges.immutable_queue_depth += s.pipeline_gauges.immutable_queue_depth;
            total.pipeline_gauges.stalled_writers += s.pipeline_gauges.stalled_writers;
        }
        total.expected_zero_result_lookup_ios /= n;
        total
    }

    /// The telemetry hub, when [`DbOptions::telemetry`] is on — for
    /// callers that want raw histograms/events rather than the assembled
    /// report.
    ///
    /// **Facade behavior:** on a multi-shard store this is *shard 0's*
    /// hub only — its counters and events cover that shard's slice of the
    /// keyspace, not the whole store. Use
    /// [`shard_telemetry`](Self::shard_telemetry) to reach a specific
    /// shard's hub, or [`telemetry_report`](Self::telemetry_report) for
    /// the merged store-wide view.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.shard_telemetry(0)
    }

    /// Shard `index`'s telemetry hub, when [`DbOptions::telemetry`] is on.
    /// Returns `None` when telemetry is off **or** `index` is out of
    /// range (see [`DbOptions::shards`]). Events drained from one shard's
    /// hub never appear in another's, so per-shard consumers compose with
    /// the merged [`telemetry_report`](Self::telemetry_report) only if
    /// each event source is drained by exactly one of them.
    pub fn shard_telemetry(&self, index: usize) -> Option<&Arc<Telemetry>> {
        self.shards.get(index)?.core.telemetry.as_ref()
    }

    /// Assembles the full telemetry snapshot: per-op latency percentiles,
    /// per-level I/O attribution and measured-vs-allocated filter FPRs
    /// (with drift flags), the model's expected zero-result lookup cost
    /// next to the measured one, and the drained event timeline. On a
    /// multi-shard store the shards' histograms, per-level tables, and
    /// event streams are merged, and [`TelemetryReport::shards`] carries a
    /// per-shard breakdown (it stays empty on a single-shard store, whose
    /// report and renderings are unchanged).
    ///
    /// Returns `None` unless the database was opened with
    /// [`DbOptions::telemetry`]. Draining the events is destructive: each
    /// event appears in exactly one report.
    pub fn telemetry_report(&self) -> Option<TelemetryReport> {
        if self.shards.len() == 1 {
            return self.shards[0].core.telemetry_report();
        }
        let hubs: Vec<&Arc<Telemetry>> = self
            .cores()
            .map(|c| c.telemetry.as_ref())
            .collect::<Option<Vec<_>>>()?;
        let per_stats: Vec<DbStats> = self.cores().map(|c| c.stats()).collect();
        let n = hubs.len();

        let ops = OP_KINDS
            .iter()
            .map(|&k| {
                let mut hist = hubs[0].hist(k);
                for hub in &hubs[1..] {
                    hist.merge(&hub.hist(k));
                }
                let count = hubs.iter().map(|h| h.op_count(k)).sum();
                OpLatencyReport::from_snapshot(k.name(), count, &hist)
            })
            .collect();

        let mut level_lookups = hubs[0].level_lookups();
        let mut io = hubs[0].attribution().snapshot();
        for hub in &hubs[1..] {
            for (slot, other) in level_lookups.iter_mut().zip(hub.level_lookups()) {
                slot.merge(&other);
            }
            for (slot, other) in io.iter_mut().zip(hub.attribution().snapshot()) {
                slot.merge(&other);
            }
        }

        // Per-level aggregates from raw per-shard sums: `allocated_fpr` is
        // the mean per-run FPR across *all* shards' runs at the level —
        // the comparable quantity to the merged measured rate, since each
        // negative probe lands on exactly one shard's runs.
        let deepest = per_stats.iter().map(|s| s.levels.len()).max().unwrap_or(0);
        let levels = (1..=deepest)
            .map(|level| {
                let (mut runs, mut entries, mut fpr_sum) = (0usize, 0u64, 0.0f64);
                for s in &per_stats {
                    if let Some(l) = s.levels.get(level - 1) {
                        runs += l.runs;
                        entries += l.entries;
                        fpr_sum += l.fpr_sum;
                    }
                }
                let slot = level.min(MAX_LEVELS);
                let lookups = level_lookups[slot];
                let allocated_fpr = if runs > 0 { fpr_sum / runs as f64 } else { 0.0 };
                let measured_fpr = lookups.measured_fpr();
                let drift = if runs > 0 {
                    drift_flag(measured_fpr, allocated_fpr, lookups.negative_trials())
                } else {
                    None
                };
                LevelReport {
                    level,
                    runs,
                    entries,
                    io: io[slot],
                    allocated_fpr,
                    measured_fpr,
                    drift,
                    lookups,
                }
            })
            .collect();

        let merged_lookups = self.lookup_stats();
        let gauges = self.pipeline_gauges();
        let compactions = self.compaction_stats();
        let shards = self
            .cores()
            .zip(hubs.iter())
            .zip(per_stats.iter())
            .enumerate()
            .map(|(index, ((core, hub), stats))| ShardBreakdown {
                shard: index,
                gets: hub.op_count(OpKind::Get),
                puts: hub.op_count(OpKind::Put),
                ranges: hub.op_count(OpKind::Range),
                disk_entries: stats.disk_entries,
                buffer_bytes: stats.buffer_bytes,
                immutable_queue_depth: stats.pipeline_gauges.immutable_queue_depth as u64,
                stalled_writers: stats.pipeline_gauges.stalled_writers as u64,
                page_reads: core.disk.io().page_reads,
                page_writes: core.disk.io().page_writes,
                cache_hits: core.disk.io().cache_hits,
            })
            .collect();

        let mut events: Vec<_> = hubs.iter().flat_map(|h| h.drain_events()).collect();
        events.sort_by_key(|e| (e.ts_micros, e.seq));

        // Merge the shards' span rings into one timeline. Each shard's
        // tracer has its own clock origin, but they were all created at
        // open, so sorting by start keeps the merged view coherent.
        let tracers: Vec<_> = self.cores().filter_map(|c| c.tracer.clone()).collect();
        let mut spans: Vec<_> = tracers.iter().flat_map(|tr| tr.drain_spans()).collect();
        spans.sort_by_key(|s| (s.start_micros, s.shard, s.id));

        // Backend-op latency rows, merged per (op, level) across shards;
        // ops with no backend calls anywhere are omitted.
        let io_lat = IO_OPS
            .iter()
            .filter_map(|&op| {
                let count: u64 = hubs.iter().map(|h| h.io_latency().op_count(op)).sum();
                if count == 0 {
                    return None;
                }
                let mut lat_levels = hubs[0].io_latency().snapshot(op);
                for hub in &hubs[1..] {
                    for (slot, other) in lat_levels.iter_mut().zip(hub.io_latency().snapshot(op)) {
                        slot.merge(&other);
                    }
                }
                Some(IoLatencyReport::from_level_hists(
                    op.name(),
                    count,
                    &lat_levels,
                ))
            })
            .collect();

        Some(TelemetryReport {
            uptime_micros: hubs.iter().map(|h| h.now_micros()).max().unwrap_or(0),
            ops,
            levels,
            unattributed_io: io[0],
            io: io_lat,
            expected_zero_result_lookup_ios: per_stats
                .iter()
                .map(|s| s.expected_zero_result_lookup_ios)
                .sum::<f64>()
                / n as f64,
            measured_zero_result_lookup_ios: merged_lookups.measured_zero_result_lookup_ios(),
            lookups: merged_lookups.key_hashes,
            immutable_queue_depth: gauges.immutable_queue_depth as u64,
            stalled_writers: gauges.stalled_writers as u64,
            last_merge_partitions: compactions.last_merge_partitions,
            last_merge_threads: compactions.last_merge_threads,
            events,
            events_dropped: hubs.iter().map(|h| h.events_dropped()).sum(),
            shards,
            spans,
            spans_started: tracers.iter().map(|tr| tr.spans_started()).sum(),
            spans_dropped: tracers.iter().map(|tr| tr.spans_dropped()).sum(),
            recorder_bytes: tracers.iter().map(|tr| tr.recorder_bytes()).sum(),
            // Every shard opens with the same backend options against the
            // same filesystem, so shard 0 speaks for the store.
            io_backend: self
                .cores()
                .next()
                .map(|c| io_backend_report(c.disk.backend_info())),
        })
    }

    /// Cuts one observatory window deterministically (the testing-friendly
    /// alternative to the sampler thread): snapshots the engine's counters
    /// now and returns the window's rates against the previous snapshot.
    /// The first call establishes the baseline and returns `None`; so does
    /// a database opened without [`DbOptions::telemetry`]. On a
    /// multi-shard store every shard's window is cut and the rates are
    /// summed (store-wide throughput; `write_amp` is weighted by each
    /// shard's update rate).
    pub fn observatory_tick(&self) -> Option<WindowRates> {
        if self.shards.len() == 1 {
            return self.shards[0].core.observatory_tick();
        }
        let windows: Vec<WindowRates> = self.cores().filter_map(|c| c.observatory_tick()).collect();
        let first = windows.first()?;
        let mut merged = WindowRates {
            start_micros: first.start_micros,
            end_micros: first.end_micros,
            span_secs: first.span_secs,
            ops_per_sec: 0.0,
            gets_per_sec: 0.0,
            puts_per_sec: 0.0,
            ranges_per_sec: 0.0,
            bytes_flushed_per_sec: 0.0,
            stall_ratio: 0.0,
            write_amp: 0.0,
            level_io: Vec::new(),
        };
        let mut amp_weight = 0.0;
        for w in &windows {
            merged.start_micros = merged.start_micros.min(w.start_micros);
            merged.end_micros = merged.end_micros.max(w.end_micros);
            merged.span_secs = merged.span_secs.max(w.span_secs);
            merged.ops_per_sec += w.ops_per_sec;
            merged.gets_per_sec += w.gets_per_sec;
            merged.puts_per_sec += w.puts_per_sec;
            merged.ranges_per_sec += w.ranges_per_sec;
            merged.bytes_flushed_per_sec += w.bytes_flushed_per_sec;
            merged.stall_ratio += w.stall_ratio;
            merged.write_amp += w.write_amp * w.puts_per_sec;
            amp_weight += w.puts_per_sec;
            if merged.level_io.len() < w.level_io.len() {
                merged.level_io.resize(w.level_io.len(), Default::default());
            }
            for (slot, rates) in merged.level_io.iter_mut().zip(&w.level_io) {
                slot.reads_per_sec += rates.reads_per_sec;
                slot.writes_per_sec += rates.writes_per_sec;
                slot.read_bytes_per_sec += rates.read_bytes_per_sec;
                slot.write_bytes_per_sec += rates.write_bytes_per_sec;
            }
        }
        merged.write_amp = if amp_weight > 0.0 {
            merged.write_amp / amp_weight
        } else {
            0.0
        };
        Some(merged)
    }

    /// The windowed time series behind the observatory, when telemetry is
    /// on: closed windows, eviction count, and EWMA-smoothed rates. On a
    /// multi-shard store this is shard 0's series; the merged per-window
    /// view comes from [`observatory_tick`](Self::observatory_tick).
    pub fn observatory(&self) -> Option<&Arc<WindowedSeries>> {
        self.shards[0].core.series.as_ref()
    }

    /// The workload measured so far — op counts classified into the
    /// paper's taxonomy `(r, v, q, w)` plus key-skew sketches — when
    /// telemetry is on. Multi-shard stores merge the per-shard
    /// measurements (the router partitions the keyspace, so each hot key
    /// is counted by exactly one shard).
    pub fn measured_workload(&self) -> Option<MeasuredWorkload> {
        let mut merged: Option<MeasuredWorkload> = None;
        for core in self.cores() {
            let m = core.telemetry.as_ref()?.measured_workload();
            match &mut merged {
                Some(acc) => acc.merge(&m),
                None => merged = Some(m),
            }
        }
        merged
    }

    /// Binds the embedded scrape endpoint when the options ask for one.
    /// The handler holds only a `Weak<Db>`: the server never keeps the
    /// store alive, and a request racing teardown gets a 503 instead of a
    /// read from a half-dropped engine.
    fn bind_obs_server(self: &Arc<Self>) -> Result<()> {
        let Some(addr) = self.opts.obs_listen.as_deref() else {
            return Ok(());
        };
        let weak = Arc::downgrade(self);
        let handler: HttpHandler = Arc::new(move |path| Db::serve_obs_route(&weak, path));
        let server = ObsServer::bind(addr, handler)?;
        let _ = self.obs_server.set(server);
        Ok(())
    }

    /// The bound address of the embedded scrape endpoint, when one is
    /// serving. With `obs_listen` port 0 this is where the OS actually
    /// put it.
    pub fn obs_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs_server.get().map(|s| s.local_addr())
    }

    /// Installs the `/advice.json` renderer (first install wins). The
    /// closed-loop advisor lives above this crate, so binaries that have
    /// one inject it here; the body must be a complete JSON document.
    pub fn set_advice_provider(&self, provider: AdviceProvider) {
        let _ = self.advice_provider.set(provider);
    }

    /// The `/advice.json` body: the injected provider's rendering, or the
    /// default — measured workload plus `"advice": null` — when no
    /// advisor is wired up (or telemetry is off and nothing was measured).
    fn advice_json(&self) -> String {
        if let Some(provider) = self.advice_provider.get() {
            return provider(self);
        }
        let mut obj = JsonObject::new().raw("advice", "null");
        if let Some(w) = self.measured_workload() {
            obj = obj.raw("workload", &w.to_json());
        }
        obj.finish()
    }

    /// Routes one scrape-endpoint request. `path` arrives with the query
    /// string already stripped; `None` renders as 404. Report endpoints
    /// *drain* the event/span rings exactly like [`Db::telemetry_report`]
    /// — one scraper should own an endpoint, as with any Prometheus
    /// target.
    fn serve_obs_route(weak: &Weak<Db>, path: &str) -> Option<HttpResponse> {
        let Some(db) = weak.upgrade() else {
            // The store is tearing down; its drop glue will stop this
            // server momentarily.
            return Some(HttpResponse::unavailable("shutting down\n"));
        };
        let report = |render: fn(&TelemetryReport) -> String, content_type: &str| match db
            .telemetry_report()
        {
            Some(r) => HttpResponse::ok(content_type, render(&r)),
            None => HttpResponse::unavailable("telemetry is off\n"),
        };
        match path {
            "/metrics" => Some(report(
                TelemetryReport::to_prometheus,
                "text/plain; version=0.0.4",
            )),
            "/report.json" => Some(report(TelemetryReport::to_json, "application/json")),
            "/spans.json" => Some(report(TelemetryReport::to_chrome_trace, "application/json")),
            "/events.json" => Some(report(TelemetryReport::events_json, "application/json")),
            "/advice.json" => Some(HttpResponse::ok("application/json", db.advice_json())),
            "/healthz" => {
                let errors = db.pipeline_stats().background_errors;
                Some(if errors == 0 {
                    HttpResponse::ok("text/plain", "ok\n".to_string())
                } else {
                    HttpResponse::unavailable(&format!("background errors: {errors}\n"))
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MergePolicy;

    fn small_db(policy: MergePolicy, t: usize) -> Arc<Db> {
        // Pinned single-shard: these tests assert per-level run structure
        // and per-lookup hash counts, which a MONKEY_SHARDS override would
        // split across shards.
        Db::open(
            DbOptions::in_memory()
                .page_size(256)
                .buffer_capacity(512)
                .size_ratio(t)
                .merge_policy(policy)
                .uniform_filters(10.0)
                .shards(1),
        )
        .unwrap()
    }

    fn fill(db: &Db, n: usize) {
        fill_range(db, 0, n);
    }

    fn fill_range(db: &Db, start: usize, end: usize) {
        for i in start..end {
            db.put(format!("key{i:06}").into_bytes(), vec![b'v'; 20])
                .unwrap();
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let db = small_db(MergePolicy::Leveling, 2);
        fill(&db, 500);
        for i in (0..500).step_by(17) {
            let got = db.get(format!("key{i:06}").as_bytes()).unwrap();
            assert_eq!(got.unwrap(), Bytes::from(vec![b'v'; 20]), "key{i}");
        }
        assert!(db.get(b"missing").unwrap().is_none());
    }

    #[test]
    fn overwrites_visible_after_merges() {
        let db = small_db(MergePolicy::Leveling, 2);
        fill(&db, 300);
        db.put(&b"key000007"[..], &b"updated"[..]).unwrap();
        fill_range(&db, 300, 400); // push the update through flushes
        assert_eq!(db.get(b"key000007").unwrap().unwrap().as_ref(), b"updated");
    }

    #[test]
    fn delete_masks_older_versions_across_levels() {
        for policy in [MergePolicy::Leveling, MergePolicy::Tiering] {
            let db = small_db(policy, 3);
            fill(&db, 300);
            db.delete(&b"key000005"[..]).unwrap();
            fill_range(&db, 300, 450); // cycle more merges
            assert_eq!(db.get(b"key000005").unwrap(), None, "{policy:?}");
            assert!(db.get(b"key000006").unwrap().is_some());
        }
    }

    #[test]
    fn leveling_keeps_one_run_per_level() {
        let db = small_db(MergePolicy::Leveling, 3);
        fill(&db, 2000);
        let stats = db.stats();
        for level in &stats.levels {
            assert!(
                level.runs <= 1,
                "level {} has {} runs",
                level.level,
                level.runs
            );
        }
        assert!(stats.depth() >= 2);
    }

    #[test]
    fn tiering_keeps_under_t_runs_per_level() {
        let t = 4;
        let db = small_db(MergePolicy::Tiering, t);
        fill(&db, 2000);
        let stats = db.stats();
        for level in &stats.levels {
            assert!(
                level.runs < t,
                "level {} has {} runs",
                level.level,
                level.runs
            );
        }
        assert!(stats.depth() >= 2);
    }

    #[test]
    fn levels_respect_capacity_after_install() {
        let db = small_db(MergePolicy::Leveling, 2);
        fill(&db, 3000);
        let stats = db.stats();
        // All levels except possibly the deepest respect their caps.
        for level in &stats.levels[..stats.levels.len() - 1] {
            assert!(
                level.bytes <= level.capacity_bytes,
                "level {} holds {} > cap {}",
                level.level,
                level.bytes,
                level.capacity_bytes
            );
        }
    }

    #[test]
    fn range_scan_sees_everything_once() {
        for policy in [MergePolicy::Leveling, MergePolicy::Tiering] {
            let db = small_db(policy, 3);
            fill(&db, 400);
            db.delete(&b"key000100"[..]).unwrap();
            db.put(&b"key000101"[..], &b"fresh"[..]).unwrap();
            let got: Vec<(Bytes, Bytes)> = db
                .range(b"key000099", Some(b"key000103"))
                .unwrap()
                .map(|kv| kv.unwrap())
                .collect();
            let keys: Vec<&[u8]> = got.iter().map(|(k, _)| k.as_ref()).collect();
            assert_eq!(
                keys,
                vec![b"key000099".as_ref(), b"key000101", b"key000102"],
                "{policy:?}"
            );
            assert_eq!(got[1].1.as_ref(), b"fresh");
        }
    }

    #[test]
    fn full_scan_matches_inserted_set() {
        let db = small_db(MergePolicy::Tiering, 2);
        fill(&db, 700);
        let count = db.range(b"", None).unwrap().count();
        assert_eq!(count, 700);
    }

    #[test]
    fn scan_survives_concurrent_compaction() {
        let db = small_db(MergePolicy::Leveling, 2);
        fill(&db, 500);
        let mut iter = db.range(b"key000000", None).unwrap();
        let first = iter.next().unwrap().unwrap();
        assert_eq!(first.0.as_ref(), b"key000000");
        // Writes trigger flushes/merges that obsolete the runs under the
        // open cursor; the cursor must finish unharmed.
        fill(&db, 500);
        let rest = iter.inspect(|kv| assert!(kv.is_ok())).count();
        assert_eq!(rest, 499, "snapshot semantics: exactly the old 500 keys");
    }

    #[test]
    fn stats_track_memory_terms() {
        let db = small_db(MergePolicy::Leveling, 2);
        fill(&db, 1000);
        let stats = db.stats();
        assert!(stats.filter_bits > 0);
        assert!(stats.fence_bits > 0);
        assert!(stats.disk_entries >= 900);
        assert!(stats.expected_zero_result_lookup_ios > 0.0);
        assert!(
            (stats.bits_per_entry() - 10.0).abs() < 3.0,
            "uniform 10 bpe, word-rounded"
        );
    }

    #[test]
    fn lookup_hashes_key_exactly_once() {
        // Tiering at T=4 piles up several runs per level, so a zero-result
        // lookup visits many filters — yet the key is hashed exactly once.
        let db = small_db(MergePolicy::Tiering, 4);
        fill(&db, 800);
        let runs = db.stats().runs;
        assert!(
            runs > 2,
            "need a multi-run tree to make the point, got {runs}"
        );
        let before = db.lookup_stats();
        let misses = 200u64;
        for i in 0..misses {
            // In-range misses ("key000007x" sorts between existing keys), so
            // the fence-pointer pre-check cannot short-circuit the filter.
            assert!(db.get(format!("key{i:06}x").as_bytes()).unwrap().is_none());
        }
        let after = db.lookup_stats();
        assert_eq!(
            after.key_hashes - before.key_hashes,
            misses,
            "one hash per lookup, independent of the {runs} runs probed"
        );
        assert!(
            after.filter_probes - before.filter_probes >= misses,
            "a miss probes at least one filter in a non-empty tree"
        );
        // Accounting identity: every probe is either a negative or a pass.
        let probes = after.filter_probes - before.filter_probes;
        let negatives = after.filter_negatives - before.filter_negatives;
        let false_positives = after.filter_false_positives - before.filter_false_positives;
        assert!(negatives + false_positives <= probes);
        assert!(
            negatives > 0,
            "10-bpe filters reject the vast majority of absent keys"
        );
    }

    #[test]
    fn blocked_variant_db_end_to_end() {
        let db = Db::open(
            DbOptions::in_memory()
                .page_size(256)
                .buffer_capacity(512)
                .size_ratio(3)
                .blocked_filters()
                .uniform_filters(10.0),
        )
        .unwrap();
        fill(&db, 600);
        for i in (0..600).step_by(13) {
            let key = format!("key{i:06}");
            assert!(
                db.get(key.as_bytes()).unwrap().is_some(),
                "blocked filters must have no false negatives ({key})"
            );
        }
        let stats = db.stats();
        assert!(stats.expected_zero_result_lookup_ios > 0.0);
        for level in &stats.levels {
            if level.runs > 0 {
                assert!(level.fpr_sum > 0.0, "blocked FPR model applied per run");
            }
        }
    }

    #[test]
    fn rebuild_filters_switches_variant() {
        let dir =
            std::env::temp_dir().join(format!("monkey-db-variant-switch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DbOptions::at_path(&dir)
            .page_size(256)
            .buffer_capacity(512)
            .size_ratio(2)
            .uniform_filters(10.0);
        {
            let db = Db::open(opts.clone()).unwrap();
            fill(&db, 300);
            db.flush().unwrap();
        }
        // Reopen asking for blocked filters: recovery decodes the persisted
        // standard filters, then rebuild upgrades them in place.
        let db = Db::open(opts.blocked_filters()).unwrap();
        db.rebuild_filters().unwrap();
        for i in 0..300 {
            assert!(db.get(format!("key{i:06}").as_bytes()).unwrap().is_some());
        }
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_db_behaves() {
        let db = small_db(MergePolicy::Leveling, 2);
        assert!(db.get(b"nothing").unwrap().is_none());
        assert_eq!(db.range(b"", None).unwrap().count(), 0);
        db.flush().unwrap(); // flushing an empty buffer is a no-op
        assert_eq!(db.stats().depth(), 0);
    }

    #[test]
    fn oversized_entries_rejected() {
        let db = small_db(MergePolicy::Leveling, 2);
        let err = db.put(&b"k"[..], vec![0u8; 4096]).unwrap_err();
        assert!(matches!(err, LsmError::EntryTooLarge { .. }));
        let err = db.put(vec![0u8; 70_000], &b"v"[..]).unwrap_err();
        assert!(matches!(err, LsmError::KeyTooLarge(_)));
    }

    #[test]
    fn flush_forces_buffer_to_disk() {
        let db = small_db(MergePolicy::Leveling, 2);
        db.put(&b"k"[..], &b"v"[..]).unwrap();
        assert_eq!(db.stats().disk_entries, 0);
        db.flush().unwrap();
        let stats = db.stats();
        assert_eq!(stats.disk_entries, 1);
        assert_eq!(stats.buffer_entries, 0);
        assert_eq!(db.get(b"k").unwrap().unwrap().as_ref(), b"v");
    }

    #[test]
    fn deleting_everything_empties_last_level_merges() {
        let db = small_db(MergePolicy::Leveling, 2);
        for i in 0..50 {
            db.put(format!("k{i:03}").into_bytes(), vec![b'x'; 40])
                .unwrap();
        }
        for i in 0..50 {
            db.delete(format!("k{i:03}").into_bytes()).unwrap();
        }
        db.flush().unwrap();
        for i in 0..50 {
            assert!(db.get(format!("k{i:03}").as_bytes()).unwrap().is_none());
        }
        assert_eq!(db.range(b"", None).unwrap().count(), 0);
    }

    #[test]
    fn zero_result_lookups_mostly_filtered() {
        let db = small_db(MergePolicy::Leveling, 2);
        fill(&db, 1000);
        db.reset_io();
        for i in 0..500 {
            assert!(db.get(format!("absent{i}").as_bytes()).unwrap().is_none());
        }
        let ios = db.io().page_reads;
        // 10 bits/entry -> ~1% FPR per run over a handful of runs.
        assert!(ios < 100, "500 zero-result lookups cost {ios} I/Os");
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let db = small_db(MergePolicy::Tiering, 3);
        fill(&db, 200);
        crossbeam::scope(|scope| {
            scope.spawn(|_| {
                for i in 200..400 {
                    db.put(format!("key{i:06}").into_bytes(), vec![b'v'; 20])
                        .unwrap();
                }
            });
            for _ in 0..4 {
                scope.spawn(|_| {
                    for i in (0..200).step_by(7) {
                        let got = db.get(format!("key{i:06}").as_bytes()).unwrap();
                        assert!(got.is_some());
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(db.range(b"", None).unwrap().count(), 400);
    }

    #[test]
    fn sync_mode_queue_is_always_drained() {
        let db = small_db(MergePolicy::Leveling, 2);
        fill(&db, 1000);
        assert_eq!(
            db.pipeline_gauges().immutable_queue_depth,
            0,
            "inline drain leaves no backlog"
        );
        assert_eq!(
            db.pipeline_stats().stalls,
            0,
            "synchronous mode never stalls"
        );
        assert_eq!(db.stats().immutable_entries, 0);
    }

    #[test]
    fn background_mode_roundtrip_and_quiesce() {
        for policy in [MergePolicy::Leveling, MergePolicy::Tiering] {
            let db = Db::open(
                DbOptions::in_memory()
                    .page_size(256)
                    .buffer_capacity(512)
                    .size_ratio(3)
                    .merge_policy(policy)
                    .background_compaction(true)
                    .uniform_filters(10.0),
            )
            .unwrap();
            for i in 0..800 {
                db.put(format!("key{i:06}").into_bytes(), vec![b'v'; 20])
                    .unwrap();
            }
            // Every write is immediately readable, wherever it lives
            // (active memtable, frozen memtable, or run).
            for i in (0..800).step_by(23) {
                assert!(
                    db.get(format!("key{i:06}").as_bytes()).unwrap().is_some(),
                    "{policy:?}: key{i}"
                );
            }
            db.flush().unwrap(); // quiesce
            let stats = db.stats();
            assert_eq!(stats.pipeline_gauges.immutable_queue_depth, 0);
            assert_eq!(stats.buffer_entries, 0);
            assert_eq!(stats.disk_entries, 800, "{policy:?}");
            assert_eq!(db.range(b"", None).unwrap().count(), 800);
            db.verify().unwrap();
        }
    }

    #[test]
    fn pause_queues_immutables_and_keeps_them_readable() {
        let db = Db::open(
            DbOptions::in_memory()
                .page_size(256)
                .buffer_capacity(512)
                .size_ratio(3)
                .background_compaction(true)
                .max_immutable_memtables(64)
                .uniform_filters(10.0),
        )
        .unwrap();
        db.pause_compaction();
        fill(&db, 400);
        let depth = db.pipeline_gauges().immutable_queue_depth;
        assert!(depth > 0, "paused worker lets rotations accumulate");
        // Entries parked in frozen memtables answer lookups.
        for i in (0..400).step_by(11) {
            assert!(db.get(format!("key{i:06}").as_bytes()).unwrap().is_some());
        }
        assert_eq!(db.range(b"", None).unwrap().count(), 400);
        db.resume_compaction();
        db.flush().unwrap();
        assert_eq!(db.pipeline_gauges().immutable_queue_depth, 0);
        assert_eq!(db.range(b"", None).unwrap().count(), 400);
    }

    #[test]
    fn wal_group_commit_counters_surface_in_stats() {
        let dir = std::env::temp_dir().join(format!("monkey-db-walstats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Db::open(
                DbOptions::at_path(&dir)
                    .page_size(256)
                    .buffer_capacity(4096),
            )
            .unwrap();
            for i in 0..50 {
                db.put(format!("k{i:03}").into_bytes(), vec![b'v'; 10])
                    .unwrap();
            }
            let p = db.pipeline_stats();
            assert!(p.wal_batched_appends >= 50, "every append is counted");
            assert!(p.wal_group_commits >= 1);
            assert!(p.wal_group_commits <= p.wal_batched_appends);
            assert_eq!(
                db.stats().pipeline.wal_batched_appends,
                p.wal_batched_appends
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_error_is_deferred_then_surfaced() {
        use monkey_storage::{Backend, Disk, FaultKind, FlakyBackend, MemBackend};
        let backend = FlakyBackend::new(MemBackend::new(), FaultKind::Writes);
        let disk = Disk::with_backend(backend.clone() as Arc<dyn Backend>, 256, None);
        let db = Db::open_with_disk(
            DbOptions::in_memory()
                .page_size(256)
                .buffer_capacity(512)
                .background_compaction(true)
                .max_immutable_memtables(8)
                .uniform_filters(10.0),
            disk,
        )
        .unwrap();
        // Queue rotations while the worker is held off, then arm the fault
        // so the worker's first flush attempt fails. (Filling with the
        // fault already armed would let an interleaved `put` surface the
        // deferred error mid-fill — that's designed behavior, but it makes
        // the assertion ordering racy.)
        db.pause_compaction();
        fill(&db, 60); // enough to rotate at least once
        assert!(db.pipeline_gauges().immutable_queue_depth > 0);
        backend.arm(0); // every page write fails
        db.resume_compaction();
        // The worker hits the fault; wait for it to record the failure.
        let deadline = Instant::now() + Duration::from_secs(10);
        while db.pipeline_stats().background_errors == 0 {
            assert!(Instant::now() < deadline, "worker never reported the fault");
            std::thread::sleep(Duration::from_millis(5));
        }
        backend.disarm();
        // The next foreground call surfaces the deferred error...
        let err = db.flush().unwrap_err();
        assert!(matches!(err, LsmError::Background(_)), "got {err}");
        // ...and the engine recovers: the memtable stayed queued, so a
        // retry flushes it and nothing was lost.
        db.flush().unwrap();
        assert_eq!(db.pipeline_gauges().immutable_queue_depth, 0);
        assert_eq!(db.range(b"", None).unwrap().count(), 60);
    }
}

#[cfg(test)]
mod migrate_tests {
    use super::*;
    use crate::policy::MergePolicy;

    #[test]
    fn migrate_changes_tuning_and_keeps_data() {
        let src = Db::open(
            DbOptions::in_memory()
                .page_size(256)
                .buffer_capacity(512)
                .size_ratio(2)
                .merge_policy(MergePolicy::Leveling)
                .uniform_filters(5.0),
        )
        .unwrap();
        for i in 0..800 {
            src.put(
                format!("k{i:04}").into_bytes(),
                format!("v{i}").into_bytes(),
            )
            .unwrap();
        }
        src.delete(&b"k0013"[..]).unwrap();

        let dst = src
            .migrate_to(
                // Pinned single-shard: the tiering-structure assertion below
                // reads per-level run counts, which shards would split.
                DbOptions::in_memory()
                    .page_size(256)
                    .buffer_capacity(1024)
                    .size_ratio(4)
                    .merge_policy(MergePolicy::Tiering)
                    .uniform_filters(10.0)
                    .shards(1),
            )
            .unwrap();

        assert_eq!(dst.options().size_ratio, 4);
        assert_eq!(dst.options().merge_policy, MergePolicy::Tiering);
        // Same live contents, tombstone not carried.
        assert_eq!(dst.range(b"", None).unwrap().count(), 799);
        assert!(dst.get(b"k0013").unwrap().is_none());
        assert_eq!(dst.get(b"k0500").unwrap().unwrap().as_ref(), b"v500");
        // Tiering structure in the new store.
        for level in dst.stats().levels {
            assert!(level.runs < 4);
        }
        // Source untouched.
        assert_eq!(src.range(b"", None).unwrap().count(), 799);
    }

    #[test]
    fn migrate_empty_store() {
        let src = Db::open(DbOptions::in_memory().page_size(256).buffer_capacity(512)).unwrap();
        let dst = src
            .migrate_to(DbOptions::in_memory().page_size(512).buffer_capacity(1024))
            .unwrap();
        assert_eq!(dst.range(b"", None).unwrap().count(), 0);
    }

    #[test]
    fn migration_compacts_superseded_versions() {
        let src = Db::open(
            DbOptions::in_memory()
                .page_size(256)
                .buffer_capacity(512)
                .uniform_filters(5.0),
        )
        .unwrap();
        // Write each key 5 times: the source tree carries old versions
        // until merges retire them; the migration target starts clean.
        for round in 0..5 {
            for i in 0..200 {
                src.put(
                    format!("k{i:03}").into_bytes(),
                    format!("r{round}").into_bytes(),
                )
                .unwrap();
            }
        }
        let dst = src
            .migrate_to(DbOptions::in_memory().page_size(256).buffer_capacity(512))
            .unwrap();
        assert_eq!(dst.stats().disk_entries + dst.stats().buffer_entries, 200);
        assert_eq!(dst.get(b"k007").unwrap().unwrap().as_ref(), b"r4");
    }
}

#[cfg(test)]
mod verify_tests {
    use super::*;
    use crate::policy::MergePolicy;

    fn build() -> Arc<Db> {
        let db = Db::open(
            DbOptions::in_memory()
                .page_size(256)
                .buffer_capacity(512)
                .size_ratio(3)
                .merge_policy(MergePolicy::Tiering)
                .uniform_filters(8.0),
        )
        .unwrap();
        for i in 0..1500 {
            db.put(format!("k{i:05}").into_bytes(), vec![b'v'; 24])
                .unwrap();
        }
        db
    }

    #[test]
    fn verify_passes_on_healthy_store() {
        let db = build();
        let verified = db.verify().unwrap();
        let stats = db.stats();
        assert_eq!(verified, stats.disk_entries);
        assert!(verified > 1000);
    }

    #[test]
    fn compaction_stats_accumulate() {
        let db = build();
        let c = db.compaction_stats();
        assert!(c.flushes >= 100, "1500 entries / ~12 per buffer: {c:?}");
        assert!(c.merges > 0);
        assert!(
            c.entries_rewritten > 1500,
            "merges rewrite entries repeatedly"
        );
        // Measured per-entry write amplification is in Eq. 10's ballpark:
        // tiering T=3 amortizes to (T−1)/T ≈ 0.67 rewrites per level.
        let amp = c.entries_rewritten as f64 / 1500.0;
        assert!((1.0..12.0).contains(&amp), "write amp {amp}");
    }

    #[test]
    fn observatory_tick_cuts_windows_and_classifies_ops() {
        // Pinned single-shard: exact op-classification counts (a fanned-out
        // range scan is recorded once per shard) and series length are
        // single-shard semantics.
        let db = Db::open(
            DbOptions::in_memory()
                .page_size(256)
                .buffer_capacity(512)
                .telemetry(true)
                .observatory_retention(4)
                .shards(1),
        )
        .unwrap();
        assert!(
            db.observatory_tick().is_none(),
            "first tick is the baseline"
        );
        for i in 0..50u32 {
            db.put(format!("k{i:04}").into_bytes(), vec![0u8; 16])
                .unwrap();
        }
        for i in 0..30u32 {
            db.get(format!("k{i:04}").as_bytes()).unwrap();
        }
        for _ in 0..20 {
            db.get(b"missing").unwrap();
        }
        let scanned: usize = db
            .range(b"k0000", Some(b"k0010"))
            .unwrap()
            .map(|kv| kv.map(|_| 1).unwrap())
            .sum();
        assert_eq!(scanned, 10);
        let w = db.observatory_tick().expect("second tick closes a window");
        assert!(w.ops_per_sec > 0.0);
        assert!(w.puts_per_sec > 0.0);
        let series = db.observatory().expect("telemetry on");
        assert_eq!(series.len(), 1);
        let m = db.measured_workload().unwrap();
        assert_eq!(m.updates, 50);
        assert_eq!(m.existing_lookups, 30);
        assert_eq!(m.zero_result_lookups, 20);
        assert_eq!(m.range_lookups, 1);
        assert_eq!(m.range_entries_scanned, 10);
    }

    #[test]
    fn observatory_absent_without_telemetry() {
        let db = Db::open(DbOptions::in_memory()).unwrap();
        assert!(db.observatory().is_none());
        assert!(db.observatory_tick().is_none());
        assert!(db.measured_workload().is_none());
    }

    #[test]
    fn sampler_thread_cuts_windows_on_its_own() {
        let db = Db::open(
            DbOptions::in_memory()
                .page_size(256)
                .buffer_capacity(4 << 10)
                .telemetry(true)
                .observatory_interval(Duration::from_millis(5)),
        )
        .unwrap();
        for i in 0..100u32 {
            db.put(format!("k{i:04}").into_bytes(), vec![0u8; 8])
                .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let series = Arc::clone(db.observatory().unwrap());
        while series.is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(
            !series.is_empty(),
            "sampler should have closed at least one window"
        );
        drop(db); // joins the sampler without hanging
    }

    #[test]
    fn verify_detects_filter_damage() {
        // Swap a run's filter for an empty (all-negative would be a false
        // negative) one via the rebuild path with zero bits — the
        // degenerate filter answers "maybe" for everything, so verify
        // still passes; instead corrupt metadata by constructing a run
        // with a *wrong* filter through recover_run at 0 bits, which is
        // valid. True filter damage cannot be constructed through the
        // public API — assert verify at least re-reads everything.
        let db = build();
        db.reset_io();
        let n = db.verify().unwrap();
        assert!(db.io().page_reads > 0, "verify physically reads the runs");
        assert!(n > 0);
    }
}
