//! The [`Disk`]: the storage facade the LSM engine talks to.
//!
//! `Disk` combines a [`FileBackend`] — run files on the OS's filesystem,
//! or on a [`MemFs`] for the in-memory disk — with [`IoStats`] accounting
//! and an optional [`BlockCache`]. Every page that physically moves to or
//! from the backend is counted; cache hits are recorded but are not I/Os.
//! This is the boundary where the reproduction's measurements are taken —
//! and, once a [`PageCheck`] is attached, where page bytes are checked:
//! once, as they leave the backend, before the cache may hold them.

use crate::aligned::PoolStats;
use crate::backend::{FileBackend, RunId};
use crate::cache::{BlockCache, CacheConfig, CacheStats};
use crate::direct::{BackendInfo, IoBackend};
use crate::error::{Result, StorageError};
use crate::fs::{Fs, MemFs, OsFs};
use crate::iostats::{IoSnapshot, IoStats, SyncKind};
use bytes::Bytes;
use monkey_obs::IoAttribution;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Checks one page as it leaves the backend, naming what is wrong with it.
/// The layer above owns the page format (and the hash); storage only calls
/// it.
pub type PageCheck = fn(&[u8]) -> std::result::Result<(), String>;

/// A counted, optionally cached page store.
pub struct Disk {
    backend: FileBackend,
    /// Shared with the store's WAL and manifest, which count their syncs
    /// here.
    stats: Arc<IoStats>,
    cache: Option<BlockCache>,
    page_size: usize,
    next_run: AtomicU64,
    /// What physically backs this disk, after fallback resolution.
    info: BackendInfo,
    /// Optional per-level I/O attribution table, attached once by the LSM
    /// layer when telemetry is enabled. When unset, the per-I/O cost is a
    /// single `OnceLock` load that finds nothing.
    attribution: OnceLock<Arc<IoAttribution>>,
    /// The page check, attached once by whoever gives the pages a format.
    /// Run on every physical read before cache admission, never on a hit.
    page_check: OnceLock<PageCheck>,
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
        let fs = Arc::new(MemFs::new());
        let backend = FileBackend::open(fs, "runs", page_size).expect("memory takes a directory");
        Self::new(backend, page_size, cache, BackendInfo::mem()).expect("memory lists")
    }

    /// Opens a file-backed disk rooted at `dir` (buffered I/O).
    pub fn file(dir: impl AsRef<Path>, page_size: usize) -> Result<Arc<Self>> {
        Self::file_with(dir, page_size, IoBackend::Buffered, None)
    }

    /// Opens a file-backed disk rooted at `dir` on the requested I/O
    /// backend. `Direct` probes the directory's filesystem for `O_DIRECT`
    /// support and falls back to buffered I/O where it is unavailable;
    /// [`backend_info`](Self::backend_info) reports the resolution
    /// (including the fallback reason) so callers can surface it once.
    pub fn file_with(
        dir: impl AsRef<Path>,
        page_size: usize,
        requested: IoBackend,
        cache: Option<BlockCache>,
    ) -> Result<Arc<Self>> {
        Self::file_on(Arc::new(OsFs), dir, page_size, requested, cache)
    }

    /// [`file_with`](Self::file_with), its run files reached through `fs`.
    /// A directory that cannot be listed is an error: its runs are unknown.
    pub fn file_on(
        fs: Arc<dyn Fs>,
        dir: impl AsRef<Path>,
        page_size: usize,
        requested: IoBackend,
        cache: Option<BlockCache>,
    ) -> Result<Arc<Self>> {
        let dir = dir.as_ref();
        let (backend, fallback) = match requested {
            IoBackend::Buffered => (FileBackend::open(fs, dir, page_size)?, None),
            IoBackend::Direct => match FileBackend::open_direct(Arc::clone(&fs), dir, page_size)? {
                Ok(direct) => (direct, None),
                Err(reason) => (FileBackend::open(fs, dir, page_size)?, Some(reason)),
            },
        };
        let direct = backend.is_direct();
        let info = BackendInfo {
            requested,
            kind: if direct { "direct" } else { "buffered" },
            align: if direct { backend.align() } else { 0 },
            fallback,
        };
        Self::new(backend, page_size, cache, info)
    }

    fn new(
        backend: FileBackend,
        page_size: usize,
        cache: Option<BlockCache>,
        info: BackendInfo,
    ) -> Result<Arc<Self>> {
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

    /// One physical page read plus the miss-side bookkeeping: counted,
    /// attributed, checked, and admitted to the cache. A page that fails
    /// the check was still read — it is counted — but is never cached.
    #[inline]
    fn read_miss(&self, run: RunId, page_no: u32) -> Result<Bytes> {
        let data = self.backend.read_page(run, page_no)?;
        self.stats.add_reads(1);
        self.attr_read(run);
        if let Some(check) = self.page_check.get() {
            check(&data).map_err(|why| {
                StorageError::Corruption(format!("page {page_no} of run {run}: {why}"))
            })?;
        }
        if let Some(cache) = &self.cache {
            cache.insert(run, page_no, data.clone());
        }
        Ok(data)
    }

    /// Reads one page with a random access: counts one seek plus one page
    /// read on a cache miss, or a cache hit otherwise.
    pub fn read_page(&self, run: RunId, page_no: u32) -> Result<Bytes> {
        if let Some(data) = self.cache_probe(run, page_no) {
            return Ok(data);
        }
        self.stats.add_seek();
        self.read_miss(run, page_no)
    }

    /// Reads one page as the continuation of a sequential scan: counts a
    /// page read (or cache hit) but no seek. Run iterators use
    /// [`read_page`](Self::read_page) for their first page and this for
    /// the rest, matching the paper's range-lookup cost model (Eq. 11: one
    /// seek per run, then sequential pages).
    pub fn read_page_sequential(&self, run: RunId, page_no: u32) -> Result<Bytes> {
        if let Some(data) = self.cache_probe(run, page_no) {
            return Ok(data);
        }
        self.read_miss(run, page_no)
    }

    /// What physically backs this disk, after fallback resolution.
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
    pub fn delete_run(&self, run: RunId) -> Result<()> {
        if let Some(cache) = &self.cache {
            cache.evict_run(run);
        }
        if let Some(a) = self.attribution.get() {
            a.untag_run(run);
        }
        self.backend.delete(run)
    }

    /// Makes the set of runs durable (see [`FileBackend::sync_dir`]): a run
    /// sealed before this returns is found by a reopen after a crash.
    pub fn sync_dir(&self) -> Result<()> {
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
        // page does not exist, and the delete says so.
        if !self.sealed {
            let _ = self.disk.backend.delete(self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The three disks a run can be written to — memory, and the file
    /// backend opened both ways over `dir` (direct falls back to buffered
    /// where the filesystem refuses `O_DIRECT`).
    fn every_disk(dir: &Path, page_size: usize) -> Vec<Arc<Disk>> {
        let _ = std::fs::remove_dir_all(dir);
        vec![
            Disk::mem(page_size),
            Disk::file_with(dir.join("buffered"), page_size, IoBackend::Buffered, None).unwrap(),
            Disk::file_with(dir.join("direct"), page_size, IoBackend::Direct, None).unwrap(),
        ]
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
        use crate::faults::{FaultKind, FlakyBackend};
        let fs = FlakyBackend::new(MemFs::new(), FaultKind::Writes);
        let disk = Disk::file_on(fs.clone(), "runs", 64, IoBackend::Buffered, None).unwrap();
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
