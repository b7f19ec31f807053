//! The database: a facade over `N ≥ 1` keyspace shards.
//!
//! [`Db`] routes each key to the shard that owns it and fans scans, flushes
//! and maintenance out to all of them; a shard is a complete engine
//! ([`engine`]: memtable, WAL, immutable queue, flush/merge pipeline, an
//! `Arc<Version>` of runs). Statistics and telemetry are per-shard
//! snapshots folded into the store's ([`report`]). One shard is the same
//! path with a free route: the fold hands back its only element and a scan
//! gets the shard's own cursor.

mod engine;
mod report;

use crate::error::{LsmError, Result};
use crate::iter::RangeIter;
use crate::options::{DbOptions, StorageConfig};
use crate::stats::{CompactionStats, DbStats, LookupStats, PipelineGauges, PipelineStats};
use bytes::Bytes;
use engine::{Core, Shard};
use monkey_obs::{OpKind, Telemetry, TelemetryReport};
use monkey_storage::{BackendInfo, Disk, Fs, IoSnapshot, OsFs};
use report::merged;
use std::sync::Arc;
use std::time::Instant;

/// An LSM-tree key-value store.
///
/// Thread-safe. Lookups and scans read an immutable version snapshot and
/// never block on flushes or merges; updates serialize on a short
/// exclusive lock (memtable insert + WAL enqueue) with the heavy merge
/// work running inline (default) or on a background thread.
///
/// The keyspace is hash-partitioned across [`DbOptions::shards`]
/// independent engines — per-shard memtable, WAL, immutable queue, and
/// flush/merge pipeline — so writers on different shards never contend on
/// a lock. `shards = 1` (the default) is one such engine rooted in the
/// store's own directory.
pub struct Db {
    /// The facade-level configuration (undivided budgets, `shards = N`).
    opts: DbOptions,
    shards: Vec<Shard>,
}

/// Seed of the shard router's key hash. Fixed forever: which shard a key
/// lives on — and therefore the on-disk layout of every multi-shard store
/// — depends on it.
const SHARD_SEED: u64 = 0x4d4f_4e4b_4559_2153;

/// Meta file at a multi-shard store's root recording its shard count. A
/// one-shard store lives in the root itself and writes no meta.
const SHARDS_META: &str = "SHARDS";

/// The subdirectory of a multi-shard store's root that holds shard `index`.
fn shard_dir(index: usize) -> String {
    format!("shard-{index:03}")
}

impl Db {
    /// Opens a database.
    ///
    /// With [`DbOptions::shards`] > 1 the keyspace is hash-partitioned
    /// into that many independent engines, each rooted in its own
    /// `shard-NNN` subdirectory with `ceil(1/N)` of the global memory
    /// budgets (§4.4: buffer, stall threshold, and block cache are
    /// *divided*, never replicated). The shard count of a durable store is
    /// fixed at creation (recorded in a `SHARDS` meta file) and reopening
    /// honors what is on disk, whatever the new options request.
    pub fn open(opts: DbOptions) -> Result<Arc<Self>> {
        Self::open_with_fs(opts, Arc::new(OsFs))
    }

    /// [`open`](Self::open), with every file of the store — run files, WAL
    /// segments, manifests, the `SHARDS` meta — and every directory that
    /// holds them reached through `fs`. A volatile store has none.
    pub fn open_with_fs(opts: DbOptions, fs: Arc<dyn Fs>) -> Result<Arc<Self>> {
        let n = Self::resolve_shards(&opts, &*fs)?;
        Self::assemble(opts, n, None, fs)
    }

    /// Opens a volatile database over a caller-supplied [`Disk`] — used by
    /// tests and simulations whose run files sit on a `FlakyBackend`-wrapped
    /// `Fs` (faults or delays on command) or behind a block cache. No WAL
    /// or manifest is attached, and the store always runs one shard: one
    /// externally-owned disk cannot be partitioned.
    pub fn open_with_disk(mut opts: DbOptions, disk: Arc<Disk>) -> Result<Arc<Self>> {
        opts.shards = 1;
        Self::assemble(opts, 1, Some(disk), Arc::new(OsFs))
    }

    /// Opens the store's `n` shards — over `disk` when the caller supplied
    /// one, else where each shard's options place it — and puts the facade
    /// in front of them. The clock origin is taken once, before any shard
    /// opens, so the shards' telemetry timestamps share one timeline
    /// however long each shard takes to recover.
    fn assemble(
        opts: DbOptions,
        n: usize,
        disk: Option<Arc<Disk>>,
        fs: Arc<dyn Fs>,
    ) -> Result<Arc<Self>> {
        let origin = Instant::now();
        let shards = (0..n)
            .map(|index| {
                let shard_opts = Self::shard_options(&opts, index, n);
                Shard::open(shard_opts, index, disk.clone(), &fs, origin)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Arc::new(Db { opts, shards }))
    }

    /// How many shards a store actually runs. The `SHARDS` meta of an
    /// existing multi-shard store wins; an existing store laid out in the
    /// root itself is one shard whatever was requested (its layout is
    /// already on disk); a fresh directory honors the request and records
    /// it durably before any shard is opened.
    ///
    /// The meta and the `shard-NNN` directories must agree, or opening
    /// would hide acknowledged writes behind the wrong hash partition. A
    /// root holding shard directories but no meta has lost it; a meta that
    /// is malformed or below 2 is refused, and so is one that a non-empty
    /// shard directory contradicts: one at an index past the count, or
    /// fewer shard directories (empty or not) than the count. Refusal is
    /// `Corruption`, before any directory is created.
    ///
    /// Every shard directory is created, and the root synced, before the
    /// first shard opens. A crash after the meta is durable, before or
    /// while the shards open, therefore leaves either no shard directory
    /// or all of them, some possibly still empty: the next open agrees
    /// with both.
    fn resolve_shards(opts: &DbOptions, fs: &dyn Fs) -> Result<usize> {
        let requested = opts.shards.max(1);
        let StorageConfig::Directory(root) = &opts.storage else {
            return Ok(requested);
        };
        let meta = root.join(SHARDS_META);
        let names = match fs.list(root) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            names => names?,
        };
        let occupied = !names.is_empty();
        // Each shard directory's index and whether it holds anything; a
        // foreign name under the `shard-` prefix counts as an index no meta
        // can cover, and anything that is not a readable directory as full.
        let mut shard_dirs = Vec::new();
        for name in names.iter().filter(|name| name.starts_with("shard-")) {
            let index = name["shard-".len()..].parse().ok();
            let index = index.filter(|&i| shard_dir(i) == *name);
            let filled = fs.list(&root.join(name)).map_or(true, |d| !d.is_empty());
            shard_dirs.push((index.unwrap_or(usize::MAX), filled));
        }
        let corrupt = |why: String| LsmError::Corruption(format!("{}: {why}", root.display()));
        let n = match fs.read(&meta) {
            Ok(text) => {
                let text = String::from_utf8_lossy(&text);
                let n = text.trim().parse::<usize>().ok().filter(|&n| n >= 2);
                let n =
                    n.ok_or_else(|| corrupt(format!("malformed {SHARDS_META} meta: {text:?}")))?;
                let filled: Vec<usize> = shard_dirs.iter().filter(|d| d.1).map(|d| d.0).collect();
                let present = shard_dirs.iter().filter(|d| d.0 < n).count();
                if filled.iter().any(|&i| i >= n) || (!filled.is_empty() && present < n) {
                    return Err(corrupt(format!(
                        "{SHARDS_META} meta says {n} shards, which the shard directories contradict"
                    )));
                }
                n
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if !shard_dirs.is_empty() {
                    return Err(corrupt(format!(
                        "shard directories but no {SHARDS_META} meta"
                    )));
                }
                if occupied || requested == 1 {
                    return Ok(1);
                }
                fs.create_dir(root)?;
                let file = fs.create(&meta)?;
                fs.write_at(&file, 0, format!("{requested}\n").as_bytes())?;
                fs.sync(&file)?;
                fs.sync_dir(root)?;
                requested
            }
            Err(e) => return Err(e.into()),
        };
        // Creating a shard directory syncs the root.
        for index in 0..n {
            fs.create_dir(&root.join(shard_dir(index)))?;
        }
        Ok(n)
    }

    /// The configuration one shard runs under: the global memory budgets
    /// split `ceil(total / N)` with a one-page floor, and storage rooted
    /// in the shard's own subdirectory. One shard is the whole store: it
    /// keeps the whole budgets and the root directory.
    fn shard_options(opts: &DbOptions, index: usize, n: usize) -> DbOptions {
        let mut shard = opts.clone();
        shard.shards = 1;
        if n == 1 {
            return shard;
        }
        let split = |total: usize| total.div_ceil(n).max(opts.page_size);
        shard.buffer_capacity = split(opts.buffer_capacity);
        shard.storage = match &opts.storage {
            StorageConfig::Memory => StorageConfig::Memory,
            StorageConfig::MemoryCached(bytes) => StorageConfig::MemoryCached(split(*bytes)),
            StorageConfig::Directory(root) => StorageConfig::Directory(root.join(shard_dir(index))),
        };
        shard
    }

    /// The shard that owns `key`. With one shard there is nothing to
    /// choose and the route costs no hash.
    fn shard_for(&self, key: &[u8]) -> &Core {
        match self.shards.len() {
            1 => &self.shards[0].core,
            n => {
                &self.shards[(monkey_bloom::hash::xxh64(key, SHARD_SEED) % n as u64) as usize].core
            }
        }
    }

    fn cores(&self) -> impl ExactSizeIterator<Item = &Core> {
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
        merged(self.cores().map(|c| c.disk.io()), IoSnapshot::merge).unwrap_or_default()
    }

    /// Resets the I/O counters of every shard.
    pub fn reset_io(&self) {
        for core in self.cores() {
            core.disk.reset_io();
        }
    }

    /// Inserts or updates a key (routed to the shard that owns it).
    pub fn put(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> Result<()> {
        let key = key.into();
        self.shard_for(&key).write(key, Some(value.into()))
    }

    /// Deletes a key (writes a tombstone on the owning shard). Counted as a
    /// put: a tombstone write takes the identical path.
    pub fn delete(&self, key: impl Into<Bytes>) -> Result<()> {
        let key = key.into();
        self.shard_for(&key).write(key, None)
    }

    /// Point lookup, routed to the one shard that owns the key — other
    /// shards are never probed, so per-lookup cost does not grow with the
    /// shard count.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        self.shard_for(key).get(key)
    }

    /// Range scan over `[lo, hi)` (`hi = None` scans to the end). The
    /// cursor owns snapshots of the relevant memtables and runs, so
    /// concurrent writes and merges do not disturb it. The scan fans out to
    /// every shard and merges the (disjoint) per-shard cursors back into
    /// one key-ordered stream; it is one range lookup, counted and timed
    /// once — on [`telemetry`](Self::telemetry)'s hub — however many shards
    /// it crossed.
    pub fn range(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<RangeIter> {
        // The cursor's Drop records the whole scan's latency, not just
        // construction — the sample covers every page the scan touched.
        let timer = self
            .telemetry()
            .map(|t| (Arc::clone(t), t.op_start(OpKind::Range)));
        let children = self.cores().map(|core| core.range(lo, hi));
        Ok(RangeIter::fanout(children)?.with_telemetry(timer))
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

    /// Counters of the point-lookup fast path since open, summed across
    /// shards.
    pub fn lookup_stats(&self) -> LookupStats {
        merged(self.cores().map(Core::lookup_stats), LookupStats::merge).unwrap_or_default()
    }

    /// Counters of the write pipeline since open, summed across shards.
    pub fn pipeline_stats(&self) -> PipelineStats {
        merged(self.cores().map(Core::pipeline_stats), PipelineStats::merge).unwrap_or_default()
    }

    /// Which disk backend this store runs on: `"mem"` or `"buffered"`.
    /// Stays only because the perf ledger names it; ROADMAP item 15(a)
    /// removes it.
    pub fn io_backend_info(&self) -> BackendInfo {
        self.shards[0].core.disk.backend_info().clone()
    }

    /// Instantaneous levels of the write pipeline, summed across shards.
    pub fn pipeline_gauges(&self) -> PipelineGauges {
        merged(
            self.cores().map(Core::pipeline_gauges),
            PipelineGauges::merge,
        )
        .unwrap_or_default()
    }

    /// Maintenance-work counters since open, summed across shards.
    pub fn compaction_stats(&self) -> CompactionStats {
        merged(
            self.cores().map(Core::compaction_stats),
            CompactionStats::merge,
        )
        .unwrap_or_default()
    }

    /// Deep integrity check of every shard: reads every page of every run
    /// through the disk (counted I/O) and verifies decodability, key
    /// ordering, metadata agreement and filter completeness. Checksums are the disk's: a page read from the backend is
    /// checked on that read, and a cached page was checked when the read
    /// that admitted it happened. Returns the number of entries verified
    /// across all shards.
    pub fn verify(&self) -> Result<u64> {
        let mut verified = 0;
        for core in self.cores() {
            verified += core.verify()?;
        }
        Ok(verified)
    }

    /// Structural and memory statistics, the shards' snapshots merged:
    /// entries, bytes, memory footprints, and pipeline counters sum;
    /// `expected_zero_result_lookup_ios` is the *mean* across shards (a
    /// point lookup probes exactly one shard, so per-level `fpr_sum`
    /// contributions are averaged likewise).
    pub fn stats(&self) -> DbStats {
        merged(self.cores().map(Core::stats), DbStats::merge)
            .unwrap_or_default()
            .per_lookup(self.shards.len())
    }

    /// The telemetry hub, when [`DbOptions::telemetry`] is on — for
    /// callers that want raw histograms/events rather than the assembled
    /// report.
    ///
    /// **Facade behavior:** on a multi-shard store this is *shard 0's*
    /// hub only — its counters and events cover that shard's slice of the
    /// keyspace (and the store's range scans, which belong to no one
    /// shard), not the whole store. Use
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
    /// next to the measured one, and the drained event timeline. The
    /// shards' histograms, per-level tables, and event streams are merged;
    /// [`TelemetryReport::shards`] breaks a store of several shards down
    /// per shard, and is empty for a store of one.
    ///
    /// Returns `None` unless the database was opened with
    /// [`DbOptions::telemetry`]. Draining the events is destructive: each
    /// event appears in exactly one report.
    pub fn telemetry_report(&self) -> Option<TelemetryReport> {
        report::telemetry_report(&self.cores().collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MergePolicy;
    use monkey_obs::LevelLookupSnapshot;
    use std::time::{Duration, Instant};

    fn small_opts(policy: MergePolicy, t: usize) -> DbOptions {
        // Pinned single-shard: these tests assert per-level run structure
        // and per-lookup hash counts, which a MONKEY_SHARDS override would
        // split across shards.
        DbOptions::in_memory()
            .page_size(256)
            .buffer_capacity(512)
            .size_ratio(t)
            .merge_policy(policy)
            .uniform_filters(10.0)
            .shards(1)
    }

    fn small_db(policy: MergePolicy, t: usize) -> Arc<Db> {
        Db::open(small_opts(policy, t)).unwrap()
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
        // The same puts, misses and hits run with telemetry off and on:
        // the per-level lookup table is the counts' one record either way.
        let stats = [false, true].map(|telemetry| {
            let db = Db::open(small_opts(MergePolicy::Tiering, 4).telemetry(telemetry)).unwrap();
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
            for i in (0..800).step_by(7) {
                assert!(db.get(format!("key{i:06}").as_bytes()).unwrap().is_some());
            }
            let stats = db.lookup_stats();
            // With telemetry on, the report's levels read the same table.
            assert_eq!(db.telemetry_report().is_some(), telemetry);
            if let Some(report) = db.telemetry_report() {
                let levels = report.levels.iter().map(|l| l.lookups);
                let sum = merged(levels, LevelLookupSnapshot::merge).unwrap();
                assert_eq!(sum.filter_probes, stats.filter_probes);
                assert_eq!(sum.filter_false_positives, stats.filter_false_positives);
            }
            stats
        });
        assert_eq!(stats[0], stats[1], "telemetry moved a lookup count");
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
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 200..400 {
                    db.put(format!("key{i:06}").into_bytes(), vec![b'v'; 20])
                        .unwrap();
                }
            });
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in (0..200).step_by(7) {
                        let got = db.get(format!("key{i:06}").as_bytes()).unwrap();
                        assert!(got.is_some());
                    }
                });
            }
        });
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
        use monkey_storage::{Disk, FaultKind, FlakyBackend, MemFs};
        let backend = FlakyBackend::new(MemFs::new(), FaultKind::Writes);
        let disk = Disk::file_on(backend.clone(), "runs", 256, None).unwrap();
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
        backend.arm(0); // every write fails
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
