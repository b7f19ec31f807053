//! The scan and merge paths' allocation budget, as exact counts.
//!
//! The merge kernel compares keys where they lie and builds an owned entry
//! only for what it outputs, so its heap traffic is a function of the
//! sources it opens and the pages it fetches — never of the entries it
//! steps over or yields. A counting `#[global_allocator]` (this file is a
//! test binary of its own) holds that:
//!
//! * a bounded `Db::range` allocates a fixed number of blocks for the scan
//!   itself — whatever the number of runs — plus one block per page fetch
//!   (the reference count of its frame), plus one row block for each page
//!   it hands out rows from (a page stores its keys' shared prefix once,
//!   so a row's key and value are sliced from the page's rows put back
//!   together); a
//!   200-entry scan costs a 100-entry scan plus its extra page fetches and
//!   row blocks, and nothing per entry;
//! * a `get` a run file answers allocates what it did before pages stored
//!   that prefix: it needs the value, not the key;
//! * a whole-run `merge_runs` allocates per page read and written, not per
//!   entry merged — and, over run files, no page-sized block for either:
//!   input pages land in recycled frames of the disk's pool, output pages
//!   are built in the one buffer the page builder owns;
//! * the buffer hands out what it holds without copying it: a scan inside
//!   a full memtable allocates as much for 100 entries as for 10, and a
//!   `get` the memtable answers allocates nothing — key and value share
//!   the buffer's arena.

use monkey::{Db, DbOptions, MergePolicy};
use monkey_lsm::compaction::{build_run_from_sorted, merge_runs};
use monkey_lsm::page::{PageBuilder, PageCursor};
use monkey_lsm::Entry;
use monkey_storage::Disk;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
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

/// What a page fetch from a warm pool allocates: the reference count of
/// the frame the page is read into.
const PAGE_FETCH: u64 = 1;

/// What a `get` answered by a run file allocated before pages stored their
/// keys' shared prefix once: the reference count of the frame its page is
/// read into.
const RUN_GET_ALLOCS: u64 = 1;

/// A two-level leveled tree over `n` keys, empty memtable.
fn two_level_store(opts: DbOptions, n: u32) -> Arc<Db> {
    let db = Db::open(
        opts.page_size(PAGE)
            .buffer_capacity(64 * 1024)
            .size_ratio(4)
            .merge_policy(MergePolicy::Leveling)
            .uniform_filters(8.0)
            .shards(1)
            .compaction_threads(1),
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
    // The in-memory disk reads each page into a recycled frame of its
    // pool as a file disk does: a fetch allocates the reference count the
    // frame's readers share, so that, the scan's own blocks and a row
    // block for each page that hands out rows are all there is — for one
    // entry or two thousand, over two runs.
    let mem = two_level_store(DbOptions::in_memory(), N);
    warm_row_blocks(&mem);
    for entries in [1, 100, 200, 2000] {
        let rows = row_pages(&mem, 1000, entries);
        let (allocs, pages) = scan(&mem, 1000, entries);
        assert!(pages >= 2, "{entries} entries: both runs read");
        assert_eq!(
            allocs,
            SCAN_BLOCKS + pages * PAGE_FETCH + rows * ROW_BLOCK,
            "{entries} entries over {pages} pages, {rows} of them handing out rows"
        );
    }

    // So does a file-backed disk (buffered, or direct under
    // `MONKEY_IO_BACKEND`); the scan adds its own blocks and nothing else.
    let dir = std::env::temp_dir().join(format!("monkey-scan-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let file = two_level_store(DbOptions::at_path(&dir), N);
    let disk = file.disk();
    let run = disk.list_runs().unwrap()[0];
    disk.read_page(run, 0).unwrap(); // the run's handle is open from here on
    let (per_fetch, _) = allocs_in(|| disk.read_page_sequential(run, 1).unwrap());
    assert_eq!(per_fetch, PAGE_FETCH);
    let (short_rows, long_rows) = (row_pages(&file, 1000, 100), row_pages(&file, 1000, 200));
    let (short, short_pages) = scan(&file, 1000, 100);
    let (long, long_pages) = scan(&file, 1000, 200);
    assert!(long_pages > short_pages);
    assert_eq!(
        short,
        SCAN_BLOCKS + short_pages * per_fetch + short_rows * ROW_BLOCK
    );
    assert_eq!(
        long,
        short + (long_pages - short_pages) * per_fetch + (long_rows - short_rows) * ROW_BLOCK
    );
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
    // Per page read: the reference count of the frame it lands in. Per
    // page written: a share of the growth of the run's file in memory.
    assert!(
        few < few_pages + 64,
        "{few} allocations over {few_pages} pages"
    );
    assert!(many < 16_000 / 16, "{many} allocations for 16 000 entries");

    // Over run files nothing page-sized is allocated per page in either
    // direction. The first merge warms the pool (two input cursors, a
    // frame each); the second finds its frames there, and the
    // page builder never lets go of its buffer. What is left is a handful
    // of vectors that pass through 4 KiB once as they double.
    let dir = std::env::temp_dir().join(format!("monkey-merge-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backend = DbOptions::in_memory().io_backend;
    let file = Disk::file_with(&dir, PAGE, backend, None).unwrap();
    merge_allocs(&file, 4_000, few_value);
    let (allocs, page_sized, pages) = merge_allocs(&file, 4_000, few_value);
    assert!(pages >= 800, "{pages} pages read and written");
    assert!(
        page_sized <= 4,
        "{page_sized} page-sized allocations over {pages} pages"
    );
    // One small block per page read (the frame's reference count), none
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
    let db = two_level_store(DbOptions::at_path(&dir), 6000);
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
