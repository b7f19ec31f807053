//! The scan and merge paths' allocation budget, as exact counts.
//!
//! The merge kernel compares keys where they lie and builds an owned entry
//! only for what it outputs, so its heap traffic is a function of the
//! sources it opens and the pages it fetches — never of the entries it
//! steps over or yields. A counting `#[global_allocator]` (this file is a
//! test binary of its own) holds that:
//!
//! * a bounded `Db::range` allocates a fixed number of blocks for the scan
//!   itself — whatever the number of runs — plus one block per fetch (the
//!   reference count of the frame one positional read lands in: a bounded
//!   scan reads the pages it declared in extents, so a run's pages come in
//!   one fetch while they fit one extent), plus one row block for each
//!   page it hands out rows from (a page stores its keys' shared prefix
//!   once, so a row's key and value are sliced from the page's rows put
//!   back together); a 200-entry scan costs a 100-entry scan plus its
//!   extra row blocks — its extra pages come in the same fetches — and
//!   nothing per entry;
//! * a `get` a run file answers allocates what it did before pages stored
//!   that prefix: it needs the value, not the key;
//! * a whole-run `merge_runs` allocates per extent read and page written,
//!   not per entry merged — and, over run files, no page-sized block for
//!   either: input extents land in recycled frames of the disk's pool,
//!   output pages are built in the one buffer the page builder owns;
//! * the buffer hands out what it holds without copying it: a scan inside
//!   a full memtable allocates as much for 100 entries as for 10, and a
//!   `get` the memtable answers allocates nothing — key and value share
//!   the buffer's arena;
//! * a `get` searches the frozen memtables waiting for a flush where they
//!   lie: one that misses them all, or that one of them answers,
//!   allocates nothing.

use monkey::{Db, DbOptions, MergePolicy};
use monkey_lsm::compaction::{build_run_from_sorted, merge_runs};
use monkey_lsm::page::{PageBuilder, PageCursor};
use monkey_lsm::Entry;
use monkey_storage::{Disk, Fs, FsFile, MemFs, OsFs};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Counts the calling thread's heap allocations (the tests run on
/// threads of their own).
struct Counting;

const PAGE: usize = 4096;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Those of them that are page-sized: a bare page, or one with a
    /// reference-count header in front.
    static PAGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    if (PAGE..PAGE + 64).contains(&size) {
        PAGE_ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: defers to `System` for every operation; the counts are
// const-initialised thread-local `Cell`s, which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

/// What a scan allocates for itself, whatever it scans: the source vector,
/// the loser tree's node array and the owned upper bound.
const SCAN_BLOCKS: u64 = 3;

/// What the row block of a page that hands out rows costs: one block,
/// its bytes and the reference count the rows share. (The rows are
/// gathered in a buffer the thread keeps, which the first block on a
/// thread allocates: [`warm_row_blocks`].)
const ROW_BLOCK: u64 = 1;

/// What a fetch from a warm pool allocates, one page or an extent of them:
/// the reference count of the frame the read lands in. The pages handed
/// out of it are slices sharing that count.
const FETCH: u64 = 1;

/// What a `get` answered by a run file allocated before pages stored their
/// keys' shared prefix once: the reference count of the frame its page is
/// read into.
const RUN_GET_ALLOCS: u64 = 1;

/// A two-level leveled tree over `n` keys, empty memtable, opened by
/// `open`.
fn two_level_store(
    opts: DbOptions,
    open: impl FnOnce(DbOptions) -> monkey::Result<Arc<Db>>,
    n: u32,
) -> Arc<Db> {
    let db = open(
        opts.page_size(PAGE)
            .buffer_capacity(64 * 1024)
            .size_ratio(4)
            .merge_policy(MergePolicy::Leveling)
            .uniform_filters(8.0)
            .shards(1),
    )
    .unwrap();
    for i in 0..n {
        db.put(key((i * 7919) % n), vec![b'v'; 100]).unwrap();
    }
    db.flush().unwrap();
    let stats = db.stats();
    let levels = stats.levels.iter().filter(|l| l.runs > 0).count();
    assert_eq!((stats.runs, levels), (2, 2), "a run on each of two levels");
    db
}

/// Allocations and page reads of one scan of `[lo, lo + entries)`, rows
/// dropped as they arrive.
fn scan(db: &Db, lo: u32, entries: u32) -> (u64, u64) {
    let (lo, hi) = (key(lo), key(lo + entries));
    db.reset_io();
    let (allocs, rows) = allocs_in(|| db.range(&lo, Some(&hi)).unwrap().count());
    assert_eq!(rows as u32, entries);
    (allocs, db.io().page_reads)
}

/// A filesystem seam counting the positional reads of run files: the
/// fetches. Counting allocates nothing.
struct Fetches {
    inner: Arc<dyn Fs>,
    reads: AtomicU64,
}

impl Fetches {
    fn over(inner: Arc<dyn Fs>) -> Arc<Self> {
        let reads = AtomicU64::new(0);
        Arc::new(Self { inner, reads })
    }

    /// `scan`, and the fetches it made.
    fn scan(&self, db: &Db, lo: u32, entries: u32) -> (u64, u64, u64) {
        let before = self.reads.load(Relaxed);
        let (allocs, pages) = scan(db, lo, entries);
        (allocs, pages, self.reads.load(Relaxed) - before)
    }
}

impl Fs for Fetches {
    fn read_at(&self, file: &FsFile, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        if file.path().extension().is_some_and(|ext| ext == "run") {
            self.reads.fetch_add(1, Relaxed);
        }
        self.inner.read_at(file, offset, buf)
    }
    fn create(&self, path: &Path) -> io::Result<FsFile> {
        self.inner.create(path)
    }
    fn open(&self, path: &Path) -> io::Result<FsFile> {
        self.inner.open(path)
    }
    fn write_at(&self, file: &FsFile, offset: u64, data: &[u8]) -> io::Result<()> {
        self.inner.write_at(file, offset, data)
    }
    fn len(&self, file: &FsFile) -> io::Result<u64> {
        self.inner.len(file)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn sync(&self, file: &FsFile) -> io::Result<()> {
        self.inner.sync(file)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }
    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir(dir)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

/// Runs a first scan on the calling thread, which allocates the buffer
/// the thread gathers row blocks in, once, two pages long.
fn warm_row_blocks(db: &Db) {
    assert!(db.range(b"", None).unwrap().next().is_some());
}

/// The pages of the store's runs holding a key in `[lo, lo + entries)`:
/// those a scan of it hands out rows from.
fn row_pages(db: &Db, lo: u32, entries: u32) -> u64 {
    let (lo, hi) = (key(lo), key(lo + entries));
    let disk = db.disk();
    let mut pages = 0;
    for run in disk.list_runs().unwrap() {
        for p in 0..disk.run_pages(run).unwrap() {
            let mut cursor = PageCursor::new(disk.read_page(run, p).unwrap()).unwrap();
            while let Some(key) = cursor.key() {
                if (lo.as_slice()..hi.as_slice()).contains(&key) {
                    pages += 1;
                    break;
                }
                cursor.advance().unwrap();
            }
        }
    }
    pages
}

#[test]
fn a_scan_allocates_per_source_set_and_page_fetch_never_per_entry() {
    const N: u32 = 6000;
    // The in-memory disk reads each extent into a recycled frame of its
    // pool as a file disk does: a fetch allocates the reference count the
    // frame's readers share, so that, the scan's own blocks and a row
    // block for each page that hands out rows are all there is — for one
    // entry or two thousand (several extents a run), over two runs.
    let fs = Fetches::over(Arc::new(MemFs::new()));
    let disk = Disk::file_on(fs.clone(), "runs", PAGE, None).unwrap();
    let mem = two_level_store(
        DbOptions::in_memory(),
        |opts| Db::open_with_disk(opts, disk),
        N,
    );
    warm_row_blocks(&mem);
    for entries in [1, 100, 200, 2000] {
        let rows = row_pages(&mem, 1000, entries);
        let (allocs, pages, fetches) = fs.scan(&mem, 1000, entries);
        assert!(fetches >= 2, "{entries} entries: both runs read");
        assert!(entries < 2000 || pages > 4 * fetches, "{pages} pages");
        assert_eq!(
            allocs,
            SCAN_BLOCKS + fetches * FETCH + rows * ROW_BLOCK,
            "{entries} entries over {pages} pages in {fetches} fetches, \
             {rows} pages handing out rows"
        );
    }

    // So does a file-backed disk; the scan adds its own blocks and nothing
    // else.
    let dir = std::env::temp_dir().join(format!("monkey-scan-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fs = Fetches::over(Arc::new(OsFs));
    let at = DbOptions::at_path(&dir);
    let file = two_level_store(at, |opts| Db::open_with_fs(opts, fs.clone()), N);
    let disk = file.disk();
    let run = disk.list_runs().unwrap()[0];
    disk.read_page(run, 0).unwrap(); // the run's handle is open from here on
    let (per_fetch, _) = allocs_in(|| disk.read_page_sequential(run, 1).unwrap());
    assert_eq!(per_fetch, FETCH);
    let (per_extent, _) = allocs_in(|| disk.read_pages(run, 0..4, false).unwrap());
    assert_eq!(per_extent, FETCH);
    let (short_rows, long_rows) = (row_pages(&file, 1000, 100), row_pages(&file, 1000, 200));
    let (short, short_pages, short_fetches) = fs.scan(&file, 1000, 100);
    let (long, long_pages, long_fetches) = fs.scan(&file, 1000, 200);
    assert!(long_pages > short_pages);
    assert_eq!(short_fetches, 2, "one fetch per run");
    assert_eq!(
        short,
        SCAN_BLOCKS + short_fetches * per_fetch + short_rows * ROW_BLOCK
    );
    assert_eq!(
        long_fetches, short_fetches,
        "the extra pages, in the same fetches"
    );
    assert_eq!(long, short + (long_rows - short_rows) * ROW_BLOCK);
    drop(file);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_memtable_scan_and_a_memtable_hit_allocate_nothing_per_entry() {
    const N: u32 = 2000;
    let db = Db::open(
        DbOptions::in_memory()
            .page_size(PAGE)
            .buffer_capacity(64 << 20)
            .shards(1),
    )
    .unwrap();
    for i in 0..N {
        db.put(key((i * 7919) % N), vec![b'v'; 100]).unwrap();
    }
    assert_eq!(db.stats().runs, 0, "every key is in the memtable");

    let (ten, _) = scan(&db, 500, 10);
    let (hundred, _) = scan(&db, 500, 100);
    assert_eq!(ten, hundred, "allocations of a 10- and a 100-entry scan");

    let hit = key(17);
    let (allocs, value) = allocs_in(|| db.get(&hit).unwrap());
    assert_eq!(value.as_deref(), Some(&[b'v'; 100][..]));
    assert_eq!(allocs, 0, "a get the memtable answers");
}

#[test]
fn a_get_that_misses_the_frozen_memtables_allocates_nothing() {
    let db = Db::open(
        DbOptions::in_memory()
            .page_size(PAGE)
            .buffer_capacity(64 << 10)
            .background_compaction(true)
            .max_immutable_memtables(4)
            .shards(1),
    )
    .unwrap();
    // The worker paused, rotations wait in the queue as frozen memtables.
    db.pause_compaction();
    let mut n = 0;
    while db.pipeline_gauges().immutable_queue_depth < 2 {
        db.put(key(n), vec![b'v'; 100]).unwrap();
        n += 1;
    }
    assert_eq!(db.stats().runs, 0, "nothing reached a run");
    for missing in [key(n + 1), b"a".to_vec(), b"key000000x".to_vec()] {
        let (allocs, value) = allocs_in(|| db.get(&missing).unwrap());
        assert_eq!(value, None);
        assert_eq!(allocs, 0, "a get that misses every memtable");
    }
    let oldest = key(0);
    let (allocs, value) = allocs_in(|| db.get(&oldest).unwrap());
    assert_eq!(value.as_deref(), Some(&[b'v'; 100][..]));
    assert_eq!(allocs, 0, "a get the oldest frozen memtable answers");
    db.resume_compaction();
    db.flush().unwrap();
}

/// The longest value with which `per_page` of `merge_allocs`'s entries
/// fill one page, asked of the page encoder: consecutive keys, as the
/// merge's output page holds them from its first (the prefix they share
/// is what a page stores once), with sequence numbers reaching `max_seq`,
/// so they take the widest header any of them takes.
fn value_for(per_page: usize, max_seq: u64) -> usize {
    let fits = |value: usize| {
        let mut page = PageBuilder::new(PAGE);
        (0..per_page as u32).all(|i| {
            let e = Entry::put(key(i), vec![b'v'; value], max_seq);
            page.fits(&e) && page.push(&e).is_ok()
        })
    };
    (0..PAGE).rev().find(|&value| fits(value)).unwrap()
}

#[test]
fn a_merge_allocates_per_page_not_per_entry() {
    /// Merges two interleaved runs of `entries` entries in all, with
    /// `value` bytes of value each, on `disk`: allocations, page-sized ones
    /// among them, and pages read plus written.
    fn merge_allocs(disk: &Arc<Disk>, entries: u32, value: usize) -> (u64, u64, u64) {
        let run_of = |parity: u32| {
            let sorted: Vec<Entry> = (0..entries)
                .filter(|i| i % 2 == parity)
                .map(|i| Entry::put(key(i), vec![b'v'; value], (parity * entries + i) as u64))
                .collect();
            build_run_from_sorted(disk, sorted, false, 1, 8.0)
                .unwrap()
                .unwrap()
        };
        let inputs = [run_of(0), run_of(1)];
        disk.reset_io();
        let page_sized = PAGE_ALLOCS.with(Cell::get);
        let (allocs, out) = allocs_in(|| merge_runs(disk, &inputs, false, 2, 8.0).unwrap());
        let page_sized = PAGE_ALLOCS.with(Cell::get) - page_sized;
        assert_eq!(out.unwrap().entries(), entries as u64);
        let io = disk.io();
        (allocs, page_sized, io.page_reads + io.page_writes)
    }
    // The same pages, four times the entries: the count moves with the
    // pages. (What grows with entries — the key-hash vector feeding the
    // filter — doubles its way up in a handful of reallocations.)
    let (few_value, many_value) = (value_for(10, 2 * 4_000), value_for(40, 2 * 16_000));
    let (few, _, few_pages) = merge_allocs(&Disk::mem(PAGE), 4_000, few_value);
    let (many, _, many_pages) = merge_allocs(&Disk::mem(PAGE), 16_000, many_value);
    assert!(
        few_pages.abs_diff(many_pages) * 20 < few_pages,
        "{few_pages} vs {many_pages} pages"
    );
    assert!(
        many < few + few / 10 + 8,
        "{many} allocations for 16 000 entries, {few} for 4 000, over ~{few_pages} pages each"
    );
    // Per extent read: the reference count of the frame it lands in. Per
    // page written: a share of the growth of the run's file in memory.
    assert!(
        few < few_pages + 64,
        "{few} allocations over {few_pages} pages"
    );
    assert!(many < 16_000 / 16, "{many} allocations for 16 000 entries");

    // Over run files nothing page-sized is allocated per page in either
    // direction. The first merge warms the pool (two input cursors, an
    // extent frame each); the second finds its frames there, and the
    // page builder never lets go of its buffer. What is left is a handful
    // of vectors that pass through 4 KiB once as they double.
    let dir = std::env::temp_dir().join(format!("monkey-merge-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let file = Disk::file(&dir, PAGE).unwrap();
    merge_allocs(&file, 4_000, few_value);
    let (allocs, page_sized, pages) = merge_allocs(&file, 4_000, few_value);
    assert!(pages >= 800, "{pages} pages read and written");
    assert!(
        page_sized <= 4,
        "{page_sized} page-sized allocations over {pages} pages"
    );
    // One small block per extent read (the frame's reference count), none
    // per page written.
    assert!(
        allocs < pages * 5 / 4,
        "{allocs} allocations over {pages} pages"
    );
    drop(file);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_get_answered_by_a_run_file_allocates_no_more_than_before() {
    // The page is read into a frame of the disk's pool; the search finds
    // the value where it lies and copies no key.
    let dir = std::env::temp_dir().join(format!("monkey-get-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = two_level_store(DbOptions::at_path(&dir), Db::open, 6000);
    for i in [17, 1000, 4321] {
        let hit = key(i);
        db.get(&hit).unwrap(); // the run's handle is open from here on
        db.reset_io();
        let (allocs, value) = allocs_in(|| db.get(&hit).unwrap());
        assert_eq!(value.as_deref(), Some(&[b'v'; 100][..]));
        assert_eq!(db.io().page_reads, 1, "key {i}");
        assert_eq!(allocs, RUN_GET_ALLOCS, "key {i}");
    }
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
