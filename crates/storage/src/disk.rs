//! The [`Disk`]: the storage facade the LSM engine talks to.
//!
//! `Disk` combines a [`FileBackend`] — run files on the OS's filesystem,
//! or on a [`MemFs`] for the in-memory disk — with [`IoStats`] accounting
//! and an optional [`BlockCache`]. Every page that physically moves to or
//! from the backend is counted; cache hits are recorded but are not I/Os.
//! This is the boundary where the reproduction's measurements are taken —
//! and, once a [`PageCheck`] is attached, where page bytes are checked:
//! once, as they leave the backend, before the cache may hold them.

use crate::backend::{FileBackend, RunId};
use crate::cache::{BlockCache, CacheConfig, CacheStats};
use crate::error::{Result, StorageError};
use crate::frames::PoolStats;
use crate::fs::{Fs, MemFs, OsFs};
use crate::iostats::{IoSnapshot, IoStats, SyncKind};
use bytes::Bytes;
use monkey_obs::IoAttribution;
use parking_lot::Mutex;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Checks one page as it leaves the backend, naming what is wrong with it.
/// The layer above owns the page format (and the hash); storage only calls
/// it.
pub type PageCheck = fn(&[u8]) -> std::result::Result<(), String>;

/// The one physical I/O path run pages take: buffered `pread`/`pwrite`
/// through the OS page cache. Stays only because the perf ledger names
/// it; ROADMAP item 15(a) removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoBackend {
    /// Positional reads and writes through the page cache.
    #[default]
    Buffered,
}

/// What physically backs a [`Disk`], as [`Disk::backend_info`] and the
/// `monkey_io_backend_info` gauge report it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendInfo {
    /// The [`Fs::kind`] of the filesystem the run files are on: `"mem"`
    /// for a [`MemFs`], `"buffered"` for the [`OsFs`].
    pub kind: &'static str,
}

/// A counted, optionally cached page store.
pub struct Disk {
    backend: FileBackend,
    /// Shared with the store's WAL and manifest, which count their syncs
    /// here.
    stats: Arc<IoStats>,
    cache: Option<BlockCache>,
    page_size: usize,
    next_run: AtomicU64,
    /// What physically backs this disk.
    info: BackendInfo,
    /// Optional per-level I/O attribution table, attached once by the LSM
    /// layer when telemetry is enabled. When unset, the per-I/O cost is a
    /// single `OnceLock` load that finds nothing.
    attribution: OnceLock<Arc<IoAttribution>>,
    /// The page check, attached once by whoever gives the pages a format.
    /// Run on every physical read before cache admission, never on a hit.
    page_check: OnceLock<PageCheck>,
    /// Runs whose delete failed, retried at the next
    /// [`begin_run`](Self::begin_run), [`delete_run`](Self::delete_run)
    /// and [`sync_dir`](Self::sync_dir). A durable store's reopen sweeps
    /// up a run no manifest names; a volatile store never reopens.
    undeleted: Mutex<Vec<RunId>>,
}

impl Disk {
    /// Creates an in-memory simulated disk (the experiment default): the
    /// run store over a fresh [`MemFs`], so its pages are counted, read
    /// and written by the code a durable store runs.
    pub fn mem(page_size: usize) -> Arc<Self> {
        Self::mem_with(page_size, None)
    }

    /// Creates an in-memory disk with an LRU block cache of `cache_bytes`.
    pub fn mem_cached(page_size: usize, cache_bytes: usize) -> Arc<Self> {
        let config = CacheConfig::lru(cache_bytes).with_page_size(page_size);
        Self::mem_with(page_size, Some(BlockCache::with_config(config)))
    }

    fn mem_with(page_size: usize, cache: Option<BlockCache>) -> Arc<Self> {
        Self::file_on(Arc::new(MemFs::new()), "runs", page_size, cache)
            .expect("memory takes a directory and lists it")
    }

    /// Opens a file-backed disk rooted at `dir`.
    pub fn file(dir: impl AsRef<Path>, page_size: usize) -> Result<Arc<Self>> {
        Self::file_on(Arc::new(OsFs), dir, page_size, None)
    }

    /// [`file`](Self::file) with a block cache. The [`IoBackend`] argument
    /// stays only because the perf ledger names it; ROADMAP item 15(a)
    /// removes it.
    pub fn file_with(
        dir: impl AsRef<Path>,
        page_size: usize,
        _: IoBackend,
        cache: Option<BlockCache>,
    ) -> Result<Arc<Self>> {
        Self::file_on(Arc::new(OsFs), dir, page_size, cache)
    }

    /// [`file_with`](Self::file_with), its run files reached through `fs`
    /// and labelled with its [`Fs::kind`]. A directory that cannot be
    /// listed is an error: its runs are unknown.
    pub fn file_on(
        fs: Arc<dyn Fs>,
        dir: impl AsRef<Path>,
        page_size: usize,
        cache: Option<BlockCache>,
    ) -> Result<Arc<Self>> {
        let info = BackendInfo { kind: fs.kind() };
        let backend = FileBackend::open(fs, dir.as_ref(), page_size)?;
        // Resume run-id allocation above any existing run (a directory
        // reopened over a previous database).
        let next = backend.list()?.last().map_or(0, |id| id + 1);
        Ok(Arc::new(Self {
            backend,
            stats: Arc::new(IoStats::new()),
            cache,
            page_size,
            next_run: AtomicU64::new(next),
            info,
            attribution: OnceLock::new(),
            page_check: OnceLock::new(),
            undeleted: Mutex::new(Vec::new()),
        }))
    }

    /// Attaches the check every page read from the backend must pass.
    /// From then on every page this disk returns, hit or miss, has passed
    /// it exactly once: on the read that brought it into memory. A disk
    /// checks one format — attaching a different function is a bug, and
    /// so is attaching once the cache holds pages nobody checked (both
    /// `debug_assert`s); attaching the same one again is a no-op.
    pub fn attach_page_check(&self, check: PageCheck) {
        if let Some(&attached) = self.page_check.get() {
            debug_assert!(
                std::ptr::fn_addr_eq(attached, check),
                "a disk checks one page format"
            );
            return;
        }
        debug_assert!(
            self.cache_stats().is_none_or(|s| s.inserts == 0),
            "page check attached after the cache admitted unchecked pages"
        );
        let _ = self.page_check.set(check);
    }

    /// Attaches a per-level attribution table. Every subsequent physical
    /// page read/write is reported against the run it touched. Attaching
    /// twice is a no-op (the first table wins).
    pub fn attach_attribution(&self, attribution: Arc<IoAttribution>) {
        let _ = self.attribution.set(attribution);
    }

    /// The attached attribution table, if any.
    pub fn attribution(&self) -> Option<&Arc<IoAttribution>> {
        self.attribution.get()
    }

    #[inline]
    fn attr_read(&self, run: RunId) {
        if let Some(a) = self.attribution.get() {
            a.on_read(run, self.page_size as u64);
        }
    }

    #[inline]
    fn attr_write(&self, run: RunId) {
        if let Some(a) = self.attribution.get() {
            a.on_write(run, self.page_size as u64);
        }
    }

    /// The fixed page size in bytes (`B·E` in the paper's terms: one page
    /// holds `B` entries of `E` bits).
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Begins building a new run. Pages stream to the backend as they are
    /// appended; writes are counted as they happen.
    pub fn begin_run(self: &Arc<Self>) -> RunWriter {
        self.retry_deletes();
        let id = self.next_run.fetch_add(1, Ordering::Relaxed);
        RunWriter {
            disk: Arc::clone(self),
            id,
            pages: 0,
            sealed: false,
        }
    }

    /// Cache probe shared by every read path: records the hit in the I/O
    /// stats and the per-level attribution table (hits are *not* I/Os —
    /// they live in their own counters on both).
    #[inline]
    fn cache_probe(&self, run: RunId, page_no: u32) -> Option<Bytes> {
        let data = self.cache.as_ref()?.get(run, page_no)?;
        self.stats.add_cache_hit();
        if let Some(a) = self.attribution.get() {
            a.on_cache_hit(run, self.page_size as u64);
        }
        Some(data)
    }

    /// Reads one page with a random access: counts one seek plus one page
    /// read on a cache miss, or a cache hit otherwise.
    pub fn read_page(&self, run: RunId, page_no: u32) -> Result<Bytes> {
        self.read_pages(run, page_no..page_no.saturating_add(1), true)
    }

    /// Reads one page as the continuation of a sequential scan: counts a
    /// page read (or cache hit) but no seek. Run iterators use
    /// [`read_page`](Self::read_page) for their first page and this for
    /// the rest, matching the paper's range-lookup cost model (Eq. 11: one
    /// seek per run, then sequential pages).
    pub fn read_page_sequential(&self, run: RunId, page_no: u32) -> Result<Bytes> {
        self.read_pages(run, page_no..page_no.saturating_add(1), false)
    }

    /// Reads the first stretch of `pages` of a run — one extent at most,
    /// one page at least — in one positional read, and returns the pages
    /// that came in, back to back. Counts one seek when `seek` is set and
    /// one page read per page, attributes each page to the run, and checks
    /// each one before anyone sees it; a page that fails the check was
    /// still read, and is counted, but nothing of the read is cached.
    ///
    /// On a disk with a block cache, the stretch stops before the first
    /// page the cache holds, and a first page the cache holds is served
    /// as a hit, with no seek: every page is probed once, as it was when
    /// pages were read one at a time. A page read alone is admitted as it
    /// came in; a page of a longer stretch as a copy in a page frame of
    /// its own, so that the cache never pins an extent.
    pub fn read_pages(&self, run: RunId, pages: Range<u32>, seek: bool) -> Result<Bytes> {
        let first = pages.start;
        let mut count = (pages.end.saturating_sub(first)).clamp(1, self.backend.extent_pages());
        if let Some(cache) = &self.cache {
            if let Some(data) = self.cache_probe(run, first) {
                return Ok(data);
            }
            count = (1..count)
                .find(|&i| !cache.lacks(run, first + i))
                .unwrap_or(count);
        }
        if seek {
            self.stats.add_seek();
        }
        let data = self.backend.read_pages(run, first, count)?;
        self.stats.add_reads(count as u64);
        for _ in 0..count {
            self.attr_read(run);
        }
        let read = (first..).zip(data.chunks_exact(self.page_size));
        if let Some(check) = self.page_check.get() {
            for (page_no, page) in read.clone() {
                check(page).map_err(|why| {
                    StorageError::Corruption(format!("page {page_no} of run {run}: {why}"))
                })?;
            }
        }
        if let Some(cache) = &self.cache {
            match count {
                1 => cache.insert(run, first, data.clone()),
                _ => read.for_each(|(page_no, page)| {
                    cache.insert(run, page_no, self.backend.page_copy(page))
                }),
            }
        }
        Ok(data)
    }

    /// What physically backs this disk.
    pub fn backend_info(&self) -> &BackendInfo {
        &self.info
    }

    /// Counters of the pool every page read from the backend lands in.
    pub fn frame_stats(&self) -> PoolStats {
        self.backend.frame_stats()
    }

    /// Number of pages in a run.
    pub fn run_pages(&self, run: RunId) -> Result<u32> {
        self.backend.pages(run)
    }

    /// Deletes a run, purges it from the cache, and drops its level tag.
    /// A delete that fails is retried later (see [`Disk`]'s undeleted
    /// runs), and its error is returned.
    pub fn delete_run(&self, run: RunId) -> Result<()> {
        self.retry_deletes();
        if let Some(cache) = &self.cache {
            cache.evict_run(run);
        }
        if let Some(a) = self.attribution.get() {
            a.untag_run(run);
        }
        self.delete(run)
    }

    /// Deletes a run's file, keeping its id for a retry when that fails
    /// for any reason but the file being gone.
    fn delete(&self, run: RunId) -> Result<()> {
        let deleted = self.backend.delete(run);
        if deleted.as_ref().is_err_and(|e| !gone(e)) {
            self.undeleted.lock().push(run);
        }
        deleted
    }

    /// Deletes again the runs whose delete failed, keeping those that fail
    /// again.
    fn retry_deletes(&self) {
        let mut undeleted = self.undeleted.lock();
        undeleted.retain(|&run| self.backend.delete(run).is_err_and(|e| !gone(&e)));
    }

    /// Makes the set of runs durable (see [`FileBackend::sync_dir`]): a run
    /// sealed before this returns is found by a reopen after a crash, and
    /// one deleted before it — a failed delete retried here among them —
    /// is not.
    pub fn sync_dir(&self) -> Result<()> {
        self.retry_deletes();
        self.backend.sync_dir()?;
        self.stats.add_sync(SyncKind::Dir);
        Ok(())
    }

    /// Live I/O counters.
    pub fn io(&self) -> IoSnapshot {
        self.stats.snapshot()
    }

    /// The counters themselves, for the WAL and manifest of the store
    /// this disk belongs to.
    pub fn io_stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Resets the I/O counters (between experiment phases).
    pub fn reset_io(&self) {
        self.stats.reset();
    }

    /// Cache statistics, if a cache is configured.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(BlockCache::stats)
    }

    /// Runs present on the backend, ascending (recovery support). A
    /// listing that fails is an error, never an empty store.
    pub fn list_runs(&self) -> Result<Vec<RunId>> {
        self.backend.list()
    }
}

/// Whether a failed delete failed because the run is not there.
fn gone(e: &StorageError) -> bool {
    matches!(e, StorageError::NotFound { .. })
}

/// Streaming writer for a run under construction.
pub struct RunWriter {
    disk: Arc<Disk>,
    id: RunId,
    pages: u32,
    sealed: bool,
}

impl RunWriter {
    /// The id the finished run will have.
    pub fn id(&self) -> RunId {
        self.id
    }

    /// Pages appended so far.
    pub fn pages_written(&self) -> u32 {
        self.pages
    }

    /// Appends an extent: one page, or any whole number of them back to
    /// back (the run builder in the LSM crate pads the final page). Each
    /// page is counted and attributed as a write of its own; the backend
    /// receives the extent in one call. On failure some of the extent's
    /// pages may have reached the backend: the writer deletes the partial
    /// run when it is dropped. An extent that is not a whole number of
    /// pages, at least one, is a `BadPageSize` error.
    pub fn append(&mut self, pages: &[u8]) -> Result<()> {
        self.disk.backend.append_pages(self.id, self.pages, pages)?;
        let count = (pages.len() / self.disk.page_size) as u32;
        self.disk.stats.add_writes(count as u64);
        for _ in 0..count {
            self.disk.attr_write(self.id);
        }
        self.pages += count;
        Ok(())
    }

    /// Seals the run, making it durable and readable. Returns its id.
    /// On file backends this is the durability barrier (the seam's sync).
    pub fn seal(mut self) -> Result<RunId> {
        self.disk.backend.seal(self.id)?;
        self.disk.stats.add_sync(SyncKind::Run);
        self.sealed = true;
        Ok(self.id)
    }
}

impl Drop for RunWriter {
    fn drop(&mut self) {
        // An abandoned writer (error path mid-merge) must not leak a
        // half-built run — nor the leading pages of an extent that failed
        // part-way, which `pages` does not count. A run that never got a
        // page does not exist, and the delete says so; one whose delete
        // fails is retried by the disk.
        if !self.sealed {
            let _ = self.disk.delete(self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::READ_EXTENT_BYTES;
    use crate::faults::{FaultKind, FlakyBackend};

    fn page(disk: &Disk, fill: u8) -> Vec<u8> {
        vec![fill; disk.page_size()]
    }

    #[test]
    fn write_read_counts_ios() {
        let disk = Disk::mem(128);
        let mut w = disk.begin_run();
        w.append(&page(&disk, 1)).unwrap();
        w.append(&page(&disk, 2)).unwrap();
        let id = w.seal().unwrap();

        let before = disk.io();
        assert_eq!(before.page_writes, 2);
        assert_eq!(before.page_reads, 0);

        let p = disk.read_page(id, 1).unwrap();
        assert_eq!(p[0], 2);
        let after = disk.io() - before;
        assert_eq!(after.page_reads, 1);
        assert_eq!(after.seeks, 1);
    }

    #[test]
    fn sequential_read_counts_one_seek() {
        let disk = Disk::mem(64);
        let mut w = disk.begin_run();
        for i in 0..10 {
            w.append(&page(&disk, i)).unwrap();
        }
        let id = w.seal().unwrap();
        disk.reset_io();
        let mut pages = vec![disk.read_page(id, 2).unwrap()];
        for p in 3..7 {
            pages.push(disk.read_page_sequential(id, p).unwrap());
        }
        assert_eq!(pages[0][0], 2);
        assert_eq!(pages[4][0], 6);
        let io = disk.io();
        assert_eq!(io.page_reads, 5);
        assert_eq!(io.seeks, 1);
    }

    /// A run of `pages` 4 KiB pages on `disk`, page `p` filled with `p`.
    fn run_of(disk: &Arc<Disk>, pages: u8) -> RunId {
        let mut w = disk.begin_run();
        for p in 0..pages {
            w.append(&page(disk, p)).unwrap();
        }
        w.seal().unwrap()
    }

    #[test]
    fn an_extent_is_one_read_of_at_most_one_extent_counted_per_page() {
        const PAGE: usize = 4096;
        let extent = READ_EXTENT_BYTES / PAGE;
        let fs = FlakyBackend::new(MemFs::new(), FaultKind::Reads);
        let disk = Disk::file_on(fs.clone(), "runs", PAGE, None).unwrap();
        let attr = Arc::new(IoAttribution::new());
        disk.attach_attribution(Arc::clone(&attr));
        let id = run_of(&disk, 2 * extent as u8 + 3);
        attr.tag_run(id, 1);
        disk.reset_io();
        // One positional read each: the second read would fail.
        for (range, seek, got) in [(1..4, true, 3), (4..100, false, extent)] {
            fs.arm_once(1);
            let pages = disk.read_pages(id, range.clone(), seek).unwrap();
            assert_eq!(pages.len(), got * PAGE, "{range:?}");
            for (p, page) in (range.start..).zip(pages.chunks(PAGE)) {
                assert!(page.iter().all(|&b| b == p as u8), "page {p}");
            }
            let again = disk.read_pages(id, range, false);
            assert!(again.is_err(), "one read only");
            fs.disarm();
        }
        let io = disk.io();
        assert_eq!((io.page_reads, io.seeks), (3 + extent as u64, 1));
        assert_eq!(attr.snapshot()[1].reads, 3 + extent as u64);
        // An extent frame, out while its pages are.
        let pages = disk.read_pages(id, 0..extent as u32, false).unwrap();
        let tail = pages.slice(PAGE..2 * PAGE);
        drop(pages);
        assert_eq!(disk.frame_stats().outstanding, 1);
        drop(tail);
        let frames = disk.frame_stats();
        assert_eq!(frames.outstanding, 0);
        assert!(frames.idle_bytes >= READ_EXTENT_BYTES as u64, "{frames:?}");
        // A stretch past the run's end names its first missing page.
        assert!(matches!(
            disk.read_pages(id, 2 * extent as u32..100, false),
            Err(StorageError::NotFound { page: Some(p), .. }) if p == 2 * extent as u32 + 3
        ));
    }

    #[test]
    fn an_extent_stops_at_a_cached_page_and_caches_copies() {
        const PAGE: usize = 4096;
        let disk = Disk::mem_cached(PAGE, 1 << 20);
        let id = run_of(&disk, 8);
        disk.read_page(id, 3).unwrap(); // page 3 is cached
        disk.reset_io();
        let cached = disk.cache_stats().unwrap();
        let first = disk.read_pages(id, 0..8, true).unwrap();
        assert_eq!(first.len(), 3 * PAGE, "up to the cached page");
        let hit = disk.read_pages(id, 3..8, false).unwrap();
        assert_eq!((hit.len(), hit[0]), (PAGE, 3), "served as a hit");
        let rest = disk.read_pages(id, 4..8, false).unwrap();
        assert_eq!(rest.len(), 4 * PAGE);
        let io = disk.io();
        assert_eq!((io.page_reads, io.seeks, io.cache_hits), (7, 1, 1));
        let stats = disk.cache_stats().unwrap();
        assert_eq!(stats.misses - cached.misses, 7, "every page probed once");
        assert_eq!(stats.hits - cached.hits, 1);
        // Every page now hits, and none of them pins an extent: each is a
        // page frame of its own.
        drop((first, hit, rest));
        assert_eq!(disk.frame_stats().outstanding, 8);
        assert_eq!(disk.read_pages(id, 0..8, true).unwrap().len(), PAGE);
        assert_eq!(disk.io().page_reads, 7);
    }

    #[test]
    fn a_run_whose_delete_failed_is_deleted_at_the_next_run() {
        let fs = FlakyBackend::new(MemFs::new(), FaultKind::Writes);
        let disk = Disk::file_on(fs.clone(), "runs", 64, None).unwrap();
        let (merged, partial) = (run_of(&disk, 2), disk.begin_run());
        let mut partial = partial;
        partial.append(&page(&disk, 1)).unwrap();
        let partial_id = partial.id();
        fs.arm(0);
        assert!(disk.delete_run(merged).is_err());
        drop(partial); // its delete fails too
        fs.disarm();
        assert_eq!(disk.list_runs().unwrap(), vec![merged, partial_id]);
        fs.arm(0);
        drop(disk.begin_run()); // the retry fails: the runs wait for the next
        fs.disarm();
        assert_eq!(disk.list_runs().unwrap(), vec![merged, partial_id]);
        drop(disk.begin_run());
        assert!(
            disk.list_runs().unwrap().is_empty(),
            "retried at the next run"
        );
        // The same at the next delete, and at a directory sync.
        let retries: [fn(&Disk) -> Result<()>; 2] = [Disk::sync_dir, |d| d.delete_run(u64::MAX)];
        for retry in retries {
            let id = run_of(&disk, 1);
            fs.arm(0);
            assert!(disk.delete_run(id).is_err());
            fs.disarm();
            let _ = retry(&disk);
            assert!(disk.list_runs().unwrap().is_empty());
        }
    }

    #[test]
    fn cache_hit_is_not_an_io() {
        let disk = Disk::mem_cached(64, 1 << 20);
        let mut w = disk.begin_run();
        w.append(&page(&disk, 9)).unwrap();
        let id = w.seal().unwrap();
        disk.reset_io();

        disk.read_page(id, 0).unwrap(); // miss
        disk.read_page(id, 0).unwrap(); // hit
        let io = disk.io();
        assert_eq!(io.page_reads, 1);
        assert_eq!(io.cache_hits, 1);
        let cs = disk.cache_stats().unwrap();
        assert_eq!(cs.hits, 1);
        assert_eq!(cs.misses, 1);
    }

    #[test]
    fn deleting_run_purges_cache() {
        let disk = Disk::mem_cached(64, 1 << 20);
        let mut w = disk.begin_run();
        w.append(&page(&disk, 3)).unwrap();
        let id = w.seal().unwrap();
        disk.read_page(id, 0).unwrap();
        disk.delete_run(id).unwrap();
        assert!(
            disk.read_page(id, 0).is_err(),
            "stale cache must not serve deleted run"
        );
    }

    #[test]
    fn run_ids_are_unique_and_increasing() {
        let disk = Disk::mem(64);
        let a = disk.begin_run();
        let b = disk.begin_run();
        assert!(b.id() > a.id());
    }

    #[test]
    fn dropped_unsealed_writer_cleans_up() {
        let disk = Disk::mem(64);
        let id;
        {
            let mut w = disk.begin_run();
            w.append(&page(&disk, 0)).unwrap();
            id = w.id();
        } // dropped without seal
        assert!(disk.run_pages(id).is_err());
        assert!(disk.list_runs().unwrap().is_empty());
    }

    #[test]
    fn attribution_tracks_reads_and_writes_by_level() {
        let disk = Disk::mem(64);
        let attr = Arc::new(IoAttribution::new());
        disk.attach_attribution(Arc::clone(&attr));

        let mut w = disk.begin_run();
        attr.tag_run(w.id(), 1);
        w.append(&page(&disk, 1)).unwrap();
        w.append(&page(&disk, 2)).unwrap();
        let id = w.seal().unwrap();

        disk.read_page(id, 0).unwrap();
        disk.read_page(id, 0).unwrap();
        disk.read_page_sequential(id, 1).unwrap();

        let s = attr.snapshot();
        assert_eq!(s[1].writes, 2);
        assert_eq!(s[1].write_bytes, 128);
        assert_eq!(s[1].reads, 3);
        assert_eq!(s[1].read_bytes, 192);
        assert_eq!(
            s[0],
            monkey_obs::LevelIoSnapshot::default(),
            "nothing should be unattributed"
        );

        // Deleting the run drops the tag: later I/O on the id (impossible
        // for real runs, but cheap to pin down) is unattributed.
        disk.delete_run(id).unwrap();
        assert_eq!(attr.level_of(id), None);
    }

    #[test]
    fn cache_hits_are_not_attributed() {
        let disk = Disk::mem_cached(64, 1 << 20);
        let attr = Arc::new(IoAttribution::new());
        disk.attach_attribution(Arc::clone(&attr));
        let mut w = disk.begin_run();
        attr.tag_run(w.id(), 2);
        w.append(&page(&disk, 9)).unwrap();
        let id = w.seal().unwrap();

        disk.read_page(id, 0).unwrap(); // miss: one attributed read
        disk.read_page(id, 0).unwrap(); // hit: not an I/O, not attributed
        let s = attr.snapshot();
        assert_eq!(s[2].reads, 1, "the hit must not count as a read");
        assert_eq!(s[2].cache_hits, 1, "but it is attributed as a hit");
        assert_eq!(s[2].cache_hit_bytes, 64);
    }

    #[test]
    fn wrong_page_size_rejected() {
        let disk = Disk::mem(64);
        let mut w = disk.begin_run();
        assert!(matches!(
            w.append(&[0u8; 32]),
            Err(StorageError::BadPageSize { got: 32, want: 64 })
        ));
        // An extent is a whole number of pages, and at least one.
        assert!(matches!(
            w.append(&[0u8; 96]),
            Err(StorageError::BadPageSize { got: 96, want: 64 })
        ));
        assert!(matches!(
            w.append(&[]),
            Err(StorageError::BadPageSize { got: 0, want: 64 })
        ));
        assert_eq!(w.pages_written(), 0);
    }

    /// The two disks a run can be written to: memory, and run files
    /// under `dir`.
    fn every_disk(dir: &Path, page_size: usize) -> Vec<Arc<Disk>> {
        let _ = std::fs::remove_dir_all(dir);
        vec![Disk::mem(page_size), Disk::file(dir, page_size).unwrap()]
    }

    #[test]
    fn extents_read_back_like_single_page_appends() {
        const PAGE: usize = 4096;
        let dir = std::env::temp_dir().join(format!("monkey-extents-{}", std::process::id()));
        // Page `p` of the run `pages` pages long: distinct in every page.
        let content = |p: usize| -> Vec<u8> { (0..PAGE).map(|i| (p * 31 + i) as u8).collect() };
        for disk in every_disk(&dir, PAGE) {
            for pages in [1usize, 63, 64, 65, 200] {
                let all: Vec<u8> = (0..pages).flat_map(content).collect();
                // One extent, then the same pages in two extents cut off
                // any extent boundary a backend might care about.
                for cut in [pages, pages / 3] {
                    disk.reset_io();
                    let mut w = disk.begin_run();
                    let (first, rest) = all.split_at(cut * PAGE);
                    for extent in [first, rest] {
                        if !extent.is_empty() {
                            w.append(extent).unwrap();
                        }
                    }
                    assert_eq!(w.pages_written() as usize, pages);
                    assert_eq!(disk.io().page_writes as usize, pages, "a write per page");
                    let extents = w.seal().unwrap();

                    let mut w = disk.begin_run();
                    for p in 0..pages {
                        w.append(&content(p)).unwrap();
                    }
                    let singles = w.seal().unwrap();

                    assert_eq!(disk.run_pages(extents).unwrap() as usize, pages);
                    for p in 0..pages as u32 {
                        let (a, b) = (disk.read_page(extents, p), disk.read_page(singles, p));
                        assert_eq!(a.unwrap(), b.unwrap(), "page {p} of {pages}");
                    }
                    // Read back in extents, as a cursor over the whole run
                    // does.
                    let mut p = 0;
                    while p < pages {
                        let got = disk.read_pages(singles, p as u32..pages as u32, false);
                        for page in got.unwrap().chunks(PAGE) {
                            assert_eq!(page, &content(p)[..], "page {p} of {pages}");
                            p += 1;
                        }
                    }
                    disk.delete_run(extents).unwrap();
                    disk.delete_run(singles).unwrap();
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_page_append_is_readable_before_seal() {
        // An appended page is readable before the run is sealed: whatever
        // buffering there is sits above the writer, never inside it.
        let dir = std::env::temp_dir().join(format!("monkey-open-run-{}", std::process::id()));
        for disk in every_disk(&dir, 4096) {
            let mut w = disk.begin_run();
            w.append(&page(&disk, 7)).unwrap();
            assert_eq!(disk.read_page(w.id(), 0).unwrap()[..], page(&disk, 7)[..]);
            w.append(&page(&disk, 8)).unwrap();
            assert_eq!(disk.read_page(w.id(), 1).unwrap()[0], 8);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_extent_is_counted_per_page_and_leaves_no_partial_run() {
        let fs = FlakyBackend::new(MemFs::new(), FaultKind::Writes);
        let disk = Disk::file_on(fs.clone(), "runs", 64, None).unwrap();
        let attr = Arc::new(IoAttribution::new());
        disk.attach_attribution(Arc::clone(&attr));
        let extent = vec![5u8; 8 * 64];

        // An extent is one write at the seam, and it fails whole: the
        // first extent of the run, once the run's file is created, or a
        // later one.
        for extents_before in [0u32, 2] {
            let mut w = disk.begin_run();
            attr.tag_run(w.id(), 1);
            for _ in 0..extents_before {
                w.append(&extent).unwrap();
            }
            let (id, written) = (w.id(), disk.io().page_writes);
            fs.arm(u64::from(extents_before == 0));
            assert!(w.append(&extent).is_err());
            fs.disarm();
            assert_eq!(w.pages_written(), extents_before * 8, "appended pages only");
            assert_eq!(
                disk.io().page_writes,
                written,
                "a failed extent is not counted"
            );
            assert_eq!(
                disk.run_pages(id).unwrap(),
                extents_before * 8,
                "the pages ahead of the fault did reach the backend"
            );
            drop(w);
            assert!(
                disk.list_runs().unwrap().is_empty(),
                "partial run deleted with its writer"
            );
        }
        // Attribution counts per page appended.
        assert_eq!(attr.snapshot()[1].writes, 2 * 8);
    }

    /// A page passes when its first byte is not 0xBD; every call counted.
    static CHECKS: AtomicU64 = AtomicU64::new(0);
    fn counting_check(page: &[u8]) -> std::result::Result<(), String> {
        CHECKS.fetch_add(1, Ordering::Relaxed);
        match page[0] {
            0xBD => Err("page checksum mismatch".into()),
            _ => Ok(()),
        }
    }

    #[test]
    fn page_check_runs_once_per_physical_read_and_never_on_a_hit() {
        let disk = Disk::mem_cached(64, 1 << 20);
        disk.attach_page_check(counting_check);
        disk.attach_page_check(counting_check); // the same check again: a no-op
        let mut w = disk.begin_run();
        w.append(&page(&disk, 1)).unwrap();
        w.append(&page(&disk, 0xBD)).unwrap();
        let id = w.seal().unwrap();
        let before = CHECKS.load(Ordering::Relaxed);

        disk.read_page(id, 0).unwrap(); // the miss: checked
        for _ in 0..100 {
            disk.read_page(id, 0).unwrap(); // hits: never checked
        }
        assert_eq!(CHECKS.load(Ordering::Relaxed) - before, 1);
        assert_eq!(disk.io().page_reads, 1);
        assert_eq!(disk.cache_stats().unwrap().hits, 100);

        // A failing check is an error; the read happened, nothing is kept.
        let inserts = disk.cache_stats().unwrap().inserts;
        disk.reset_io();
        for read in [Disk::read_page, Disk::read_page_sequential] {
            let err = read(&disk, id, 1).unwrap_err();
            assert!(
                matches!(&err, StorageError::Corruption(why) if why.contains("checksum")),
                "{err}"
            );
        }
        assert_eq!(disk.io().page_reads, 2, "each failed read is still a read");
        assert_eq!(disk.io().cache_hits, 0, "a failed page is never served");
        assert_eq!(disk.cache_stats().unwrap().inserts, inserts, "nor admitted");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "admitted unchecked pages")]
    fn attaching_a_check_after_the_cache_admitted_pages_is_a_bug() {
        let disk = Disk::mem_cached(64, 1 << 20);
        let mut w = disk.begin_run();
        w.append(&page(&disk, 1)).unwrap();
        let id = w.seal().unwrap();
        disk.read_page(id, 0).unwrap();
        disk.attach_page_check(counting_check);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "one page format")]
    fn attaching_a_second_check_is_a_bug() {
        let disk = Disk::mem(64);
        disk.attach_page_check(|_| Ok(()));
        disk.attach_page_check(counting_check);
    }

    #[test]
    fn file_disk_reopen_resumes_run_ids() {
        let dir = std::env::temp_dir().join(format!("monkey-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first_id;
        {
            let disk = Disk::file(&dir, 64).unwrap();
            let mut w = disk.begin_run();
            w.append(&[1u8; 64]).unwrap();
            first_id = w.seal().unwrap();
        }
        let disk = Disk::file(&dir, 64).unwrap();
        assert_eq!(disk.list_runs().unwrap(), vec![first_id]);
        let w = disk.begin_run();
        assert!(w.id() > first_id, "ids must not alias old runs");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
