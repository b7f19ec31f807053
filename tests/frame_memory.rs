//! A frame lives exactly as long as something is reading it.
//!
//! The file backend reads every page into a frame from its pool — a page
//! frame for a page read alone, an extent frame for a stretch of pages a
//! cursor reads at once and hands out as slices; the frame goes back to
//! the pool when the last `Bytes` over it — a cursor, a value handed to
//! the caller — drops. A scan's rows are not among them: they
//! are slices of a row block their page's rows are copied into. Nothing
//! the engine keeps for the
//! life of a run (its fences, its key range, its filter) slices a page, so
//! with no reader alive no frame is outstanding and the process holds what
//! the paper's `M` says it holds: filters, fence pointers and the buffer.
//!
//! A counting `#[global_allocator]` (this file is a test binary of its own;
//! its tests take turns) holds that, on a file-backed store:
//!
//! * after load + `flush` + `rebuild_filters`, and again after a reopen, the
//!   pool reports zero frames outstanding and the heap's live bytes stay
//!   within filters + fences + the pool's idle frames of both sizes + a
//!   stated constant — a small fraction of the data, which a page pinned
//!   per fence is not;
//! * a burst of point lookups whose values pin 4 096 pages and let them go
//!   makes the same lookups, run again, allocate no page-sized block at
//!   all;
//! * a merge holds one frame per input run — an extent, whatever the runs'
//!   length;
//! * a full buffer's heap is its encoded bytes and a fifth more at most
//!   (plus the displaced versions an overwrite leaves in its arena until
//!   rotation), and all of it goes when the buffer drops;
//! * an empty block cache holds a few KiB of heap, and the pages it caches
//!   are shared with whoever read them, not copied.

use bytes::Bytes;
use monkey::{Db, DbOptions, MergePolicy};
use monkey_lsm::compaction::{build_run_from_sorted, merge_runs};
use monkey_lsm::memtable::Memtable;
use monkey_lsm::Entry;
use monkey_storage::{BlockCache, CacheConfig, Disk, Fs, FsFile, OsFs};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

const PAGE: usize = 4096;

/// Heap bytes live right now — in the process, and of the calling thread's
/// allocations less its frees — and page-sized blocks ever allocated — a
/// bare page, or one with a reference-count header in front.
struct Counting;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PAGE_SIZED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_LIVE: Cell<i64> = const { Cell::new(0) };
}

fn live(delta: i64) {
    LIVE.fetch_add(delta, Relaxed);
    THREAD_LIVE.with(|n| n.set(n.get() + delta));
}

fn count(size: usize) {
    live(size as i64);
    if (PAGE..PAGE + 64).contains(&size) {
        PAGE_SIZED.fetch_add(1, Relaxed);
    }
}

// SAFETY: defers to `System` for every operation; the counters are plain
// atomics and a const-initialised thread-local `Cell`, which allocate
// nothing.
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
        live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        live(-(layout.size() as i64));
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counters are process-wide: one test at a time.
static TURN: Mutex<()> = Mutex::new(());

fn key(i: u32) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

fn options(dir: &std::path::Path) -> DbOptions {
    DbOptions::at_path(dir)
        .page_size(PAGE)
        .buffer_capacity(256 * 1024)
        .size_ratio(4)
        .merge_policy(MergePolicy::Leveling)
        .uniform_filters(8.0)
        .shards(1)
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("monkey-frames-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A store of `n` keys with 100-byte values, everything on disk.
fn load(dir: &std::path::Path, n: u32) -> Arc<Db> {
    let db = Db::open(options(dir)).unwrap();
    for i in 0..n {
        db.put(key((i * 7919) % n), vec![b'v'; 100]).unwrap();
    }
    db.flush().unwrap();
    db
}

/// What the engine may hold beyond filters, fences and idle frames with an
/// empty buffer and nobody reading: the WAL and manifest writers, the
/// run-handle table, the tree's bookkeeping (3.3 KiB when this was written).
const RESIDENT_SLACK: i64 = 64 << 10;

/// Holds the store to its memory account: no frame out, and the heap grown
/// since `base` by no more than `M_filters + M_pointers`, the pool's idle
/// page and extent frames and the slack.
fn assert_memory_is_accounted(db: &Db, base: i64, data_bytes: i64, when: &str) {
    let frames = db.disk().frame_stats();
    assert_eq!(frames.outstanding, 0, "{when}: {frames:?}");
    let stats = db.stats();
    let accounted = (stats.filter_bits + stats.fence_bits) as i64 / 8;
    let idle = frames.idle_bytes as i64;
    let held = LIVE.load(Relaxed) - base;
    assert!(
        held <= accounted + idle + RESIDENT_SLACK,
        "{when}: {held} bytes live; filters + fences are {accounted}, {idle} sit in idle frames"
    );
    // The bound means something: pinning the data's pages would break it.
    assert!(accounted + idle + RESIDENT_SLACK < data_bytes / 2, "{when}");
}

#[test]
fn no_frame_outlives_its_readers() {
    let _turn = TURN.lock().unwrap();
    const N: u32 = 80_000;
    let dir = temp_dir("lifetime");
    let base = LIVE.load(Relaxed);
    let db = load(&dir, N);
    let data_bytes = db.stats().levels.iter().map(|l| l.bytes).sum::<u64>() as i64;
    assert!(data_bytes > 8 << 20, "{data_bytes} bytes of entries");
    // Every run is streamed once more, extent by extent.
    db.rebuild_filters().unwrap();
    assert_memory_is_accounted(&db, base, data_bytes, "after rebuild_filters");

    // Readers pin what they read, and only for as long as they hold it: a
    // value its page's frame, rows none — they hold a copy of what they
    // return, one block a page.
    let value = db.get(&key(17)).unwrap().expect("key 17 was written");
    assert_eq!(db.disk().frame_stats().outstanding, 1);
    let rows: Vec<_> = db
        .range(&key(1000), Some(&key(1200)))
        .unwrap()
        .map(|row| row.unwrap())
        .collect();
    assert_eq!(rows.len(), 200);
    let pinned = db.disk().frame_stats().outstanding;
    assert_eq!(
        pinned, 1,
        "a value and rows over two runs pin {pinned} frames"
    );
    drop((value, rows));
    assert_eq!(db.disk().frame_stats().outstanding, 0);

    // Recovery streams every page of every run to rebuild fences and
    // filters, and keeps none of them.
    let fence_bits = db.stats().fence_bits;
    drop(db);
    let db = Db::open(options(&dir)).unwrap();
    assert_eq!(
        db.stats().fence_bits,
        fence_bits,
        "M_pointers across a reopen"
    );
    assert_memory_is_accounted(&db, base, data_bytes, "after reopen");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_released_burst_of_pages_is_reused_not_reallocated() {
    let _turn = TURN.lock().unwrap();
    const N: u32 = 40_000;
    const BURST_PAGES: u64 = 4096;
    let dir = temp_dir("burst");
    let db = load(&dir, N);
    // Point lookups, each value pinning the frame its page was read into,
    // until the burst is out.
    let burst = |db: &Db| {
        let mut held = Vec::new();
        let mut i = 0;
        while db.disk().frame_stats().outstanding < BURST_PAGES {
            held.push(db.get(&key(i)).unwrap().expect("every key was written"));
            i = (i + 7) % N;
        }
        held.len()
    };
    let lookups = burst(&db);
    let frames = db.disk().frame_stats();
    assert_eq!(frames.outstanding, 0, "the burst is released: {frames:?}");
    assert!(
        frames.idle >= BURST_PAGES,
        "and kept for the next: {frames:?}"
    );

    let (page_sized, allocated) = (PAGE_SIZED.load(Relaxed), frames.allocated);
    assert_eq!(burst(&db), lookups);
    assert_eq!(
        PAGE_SIZED.load(Relaxed) - page_sized,
        0,
        "page-sized allocations over {lookups} lookups pinning {BURST_PAGES} pages"
    );
    assert_eq!(db.disk().frame_stats().allocated, allocated);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The OS filesystem, noting after every page read how many frames of
/// the pool of `disk` — the disk reading through it — are out.
#[derive(Default)]
struct FrameSampler {
    disk: std::sync::OnceLock<std::sync::Weak<Disk>>,
    most_outstanding: AtomicU64,
}

impl Fs for FrameSampler {
    fn read_at(&self, file: &FsFile, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        OsFs.read_at(file, offset, buf)?;
        if let Some(disk) = self.disk.get().and_then(std::sync::Weak::upgrade) {
            let out = disk.frame_stats().outstanding;
            self.most_outstanding.fetch_max(out, Relaxed);
        }
        Ok(())
    }
    fn create(&self, path: &Path) -> std::io::Result<FsFile> {
        OsFs.create(path)
    }
    fn open(&self, path: &Path) -> std::io::Result<FsFile> {
        OsFs.open(path)
    }
    fn write_at(&self, file: &FsFile, offset: u64, data: &[u8]) -> std::io::Result<()> {
        OsFs.write_at(file, offset, data)
    }
    fn len(&self, file: &FsFile) -> std::io::Result<u64> {
        OsFs.len(file)
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        OsFs.read(path)
    }
    fn sync(&self, file: &FsFile) -> std::io::Result<()> {
        OsFs.sync(file)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        OsFs.rename(from, to)
    }
    fn remove(&self, path: &Path) -> std::io::Result<()> {
        OsFs.remove(path)
    }
    fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        OsFs.list(dir)
    }
    fn create_dir(&self, dir: &Path) -> std::io::Result<()> {
        OsFs.create_dir(dir)
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        OsFs.sync_dir(dir)
    }
    fn kind(&self) -> &'static str {
        OsFs.kind()
    }
}

#[test]
fn a_merge_holds_one_frame_per_input() {
    let _turn = TURN.lock().unwrap();
    /// `T + 1` runs at `T = 4`: a full level and the run arriving in it.
    const INPUTS: u32 = 5;
    const ENTRIES_PER_RUN: u32 = 2_000;
    let dir = temp_dir("merge");
    let sampler = Arc::new(FrameSampler::default());
    let disk = Disk::file_on(sampler.clone(), &dir, PAGE, None).unwrap();
    sampler.disk.set(Arc::downgrade(&disk)).unwrap();
    let inputs: Vec<_> = (0..INPUTS)
        .map(|r| {
            let sorted = (0..ENTRIES_PER_RUN)
                .map(|i| Entry::put(key(i * INPUTS + r), vec![b'v'; 100], (r + 1) as u64))
                .collect();
            let run = build_run_from_sorted(&disk, sorted, false, 1, 8.0).unwrap();
            run.expect("a run of entries")
        })
        .collect();
    assert!(inputs.iter().all(|run| run.pages() >= 32), "{inputs:?}");
    let out = merge_runs(&disk, &inputs, false, 2, 8.0).unwrap().unwrap();
    assert_eq!(out.entries(), (INPUTS * ENTRIES_PER_RUN) as u64);
    // Each input's cursor holds the extent under it — every input is
    // longer than one — and the one being replaced lets go of its spent
    // extent once the next has arrived.
    let most = sampler.most_outstanding.load(Relaxed);
    assert!(
        (INPUTS as u64..=INPUTS as u64 + 1).contains(&most),
        "{most} frames out at once over {INPUTS} inputs"
    );
    drop((inputs, out));
    assert_eq!(disk.frame_stats().outstanding, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The buffer is accounted: `M_buffer` is what `Memtable::bytes` counts —
/// the live entries' encoded size, which triggers rotation — and the heap a
/// full buffer holds stays within a fifth of that (node towers, value
/// pointers, record headers). An in-place overwrite leaves the displaced
/// version in the buffer's arena until it rotates and drops; rotation still
/// counts live bytes only, so those versions are on top of the account, each
/// costing no more than it counted while live. (Counted on this thread:
/// the buffer is filled and dropped here, while other tests may run.)
#[test]
fn a_full_buffer_holds_its_bytes_and_a_fifth() {
    const BUFFER: usize = 1 << 20;
    /// Shaped like the benchmark's entries: a 16-byte key, a 112-byte value.
    fn entry(i: u64, seq: u64) -> Entry {
        Entry::put(format!("user{i:012}").into_bytes(), vec![b'v'; 112], seq)
    }
    let base = THREAD_LIVE.with(Cell::get);
    let table = Memtable::new();
    let mut n = 0;
    while table.bytes() < BUFFER {
        table.insert(entry(n, n));
        n += 1;
    }
    let held = (THREAD_LIVE.with(Cell::get) - base) as f64;
    let bytes = table.bytes() as f64;
    assert!(
        held <= 1.2 * bytes,
        "{n} entries of {bytes} bytes hold {held} bytes of heap ({:.3}x)",
        held / bytes
    );

    // Every other key overwritten in place, with a value of the same size.
    let mut displaced = 0;
    for i in (0..n).step_by(2) {
        displaced += entry(i, i).encoded_len();
        table.insert(entry(i, n + i));
    }
    assert_eq!(table.bytes() as f64, bytes, "same-size overwrites");
    let held = (THREAD_LIVE.with(Cell::get) - base) as f64;
    assert!(
        held <= 1.2 * bytes + displaced as f64,
        "{held} bytes of heap; {bytes} live bytes, {displaced} displaced"
    );

    drop(table);
    assert_eq!(
        THREAD_LIVE.with(Cell::get) - base,
        0,
        "the buffer's heap goes with it"
    );
}

#[test]
fn the_block_cache_holds_its_pages_and_little_else() {
    let base = THREAD_LIVE.with(Cell::get);
    let cache = BlockCache::with_config(CacheConfig::lru(64 << 10).with_page_size(PAGE));
    let empty = THREAD_LIVE.with(Cell::get) - base;
    assert!(
        empty <= 16 << 10,
        "an empty 64 KiB cache holds {empty} bytes of heap"
    );

    let pages: Vec<Bytes> = (0..16u8).map(|i| Bytes::from(vec![i; PAGE])).collect();
    let before = THREAD_LIVE.with(Cell::get);
    for (page_no, page) in pages.iter().enumerate() {
        cache.insert(1, page_no as u32, page.clone());
    }
    let grown = THREAD_LIVE.with(Cell::get) - before;
    assert!(cache.used_bytes() >= PAGE, "the cache kept pages");
    assert!(
        grown <= 8 << 10,
        "caching {} bytes of shared pages grew the heap by {grown} bytes",
        cache.used_bytes()
    );
}
