//! The read path, measured from outside: which pages a scan reads, and
//! which descriptors the store holds while it runs.
//!
//! * A scan reads exactly the pages it decodes. A scan's `RunCursor` fetches
//!   when the page under it runs dry, never ahead of it, and never a page
//!   whose fence is not below the scan's upper bound, so a bounded
//!   `Db::range` costs — per run — the pages holding a key the merge
//!   inspected below that fence, plus one seek; the tests rebuild that set
//!   from the run files themselves and hold `IoStats` to it on the
//!   in-memory disk and the file backend. A scan whose bound is a page's
//!   whole first key reads only the pages holding keys below it.
//! * A bounded scan declares its pages — up to that fence — and fetches
//!   them in extents: one positional read per run while they fit one
//!   extent, ⌈pages ÷ extent⌉ reads per run when they do not, over the
//!   same pages. A scan to the end declares none and reads a page per
//!   fetch, so a scan dropped after one entry reads one page per run. A
//!   counting `Fs` holds the reads to that.
//! * The file backend keeps the descriptors of its runs open (the
//!   run-handle table in `monkey-storage`). The hygiene test counts
//!   `/proc/self/fd` entries that point into its own store directory:
//!   bounded by the live runs while the store works, and zero once the
//!   store is dropped. The table's fixed budget, for stores with more live
//!   runs than it holds, is `monkey-storage`'s `fd_budget` test.

use monkey::{Db, DbOptions, MergePolicy};
use monkey_lsm::page::PageCursor;
use monkey_storage::{Fs, FsFile, OsFs, READ_EXTENT_BYTES};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("monkey-readpath-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn shape(opts: DbOptions, policy: MergePolicy) -> DbOptions {
    opts.page_size(4096)
        .buffer_capacity(16 * 1024)
        .size_ratio(3)
        .merge_policy(policy)
        .uniform_filters(8.0)
        .shards(1)
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

/// Loads `n` distinct keys in a scattered order (so every run spans the
/// key space) and flushes, leaving an empty memtable over several runs.
fn load(db: &Db, n: u32) {
    for i in 0..n {
        let k = (i * 7919) % n; // 7919 is prime and n is not a multiple
        db.put(key(k), vec![b'v'; 90]).unwrap();
    }
    db.flush().unwrap();
}

/// Every run's keys, page by page, decoded from storage.
fn layout(db: &Db) -> Vec<Vec<Vec<Vec<u8>>>> {
    let disk = db.disk();
    let runs = disk.list_runs().unwrap();
    assert_eq!(runs.len(), db.stats().runs, "no half-dead runs on disk");
    runs.iter()
        .map(|&run| {
            (0..disk.run_pages(run).unwrap())
                .map(|p| {
                    let mut cursor = PageCursor::new(disk.read_page(run, p).unwrap()).unwrap();
                    let mut keys = Vec::with_capacity(cursor.remaining());
                    while let Some(key) = cursor.key() {
                        keys.push(key.to_vec());
                        cursor.advance().unwrap();
                    }
                    keys
                })
                .collect()
        })
        .collect()
}

/// A run's fence keys, rebuilt from its decoded pages by the rule the
/// engine builds them with: page 0's is its first key; every later page's
/// is the shortest prefix of its first key that sorts above the previous
/// page's last key. A fence can sort below the page's first key, so `lo`
/// between the two lands a seek one page later than "the last page whose
/// first key is <= lo" would.
fn fences(pages: &[Vec<Vec<u8>>]) -> Vec<Vec<u8>> {
    let mut fences = vec![pages[0][0].clone()];
    for pair in pages.windows(2) {
        let (prev, first) = (pair[0].last().unwrap(), &pair[1][0]);
        let len = (0..first.len())
            .find(|&i| prev.get(i).is_none_or(|&b| first[i] > b))
            .map_or(first.len(), |i| i + 1);
        fences.push(first[..len].to_vec());
    }
    fences
}

/// Replays the merge over the decoded layout and returns `(pages, seeks)`
/// the scan must cost: each run contributes the pages from the one its
/// fences (see [`fences`]) position `lo` on through the one holding the
/// last key pulled from it, short of the first page whose fence is not
/// below `hi`. `yields` caps the entries taken (a scan dropped early).
fn expected_io(
    layout: &[Vec<Vec<Vec<u8>>>],
    lo: &[u8],
    hi: Option<&[u8]>,
    yields: usize,
) -> (u64, u64) {
    struct Cursor {
        keys: Vec<(Vec<u8>, usize)>, // (key, page) from the start page on
        next: usize,
    }
    let mut touched: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut cursors: Vec<Option<Cursor>> = Vec::new();
    for (r, pages) in layout.iter().enumerate() {
        let max = pages.last().unwrap().last().unwrap();
        if lo > max.as_slice() {
            cursors.push(None); // `scan_from` past the run: no I/O at all
            continue;
        }
        // Last page whose fence is <= lo, else page 0, up to the first
        // page whose fence is >= hi.
        let (start, end) = cursor_pages(pages, lo, hi);
        if start >= end {
            cursors.push(None); // `hi` at or below the first fence read
            continue;
        }
        let keys = pages[..end]
            .iter()
            .enumerate()
            .skip(start)
            .flat_map(|(p, ks)| ks.iter().map(move |k| (k.clone(), p)))
            .collect();
        touched.insert((r, start));
        cursors.push(Some(Cursor { keys, next: 0 }));
    }
    let seeks = cursors.iter().flatten().count() as u64;
    // Pulls the next entry with key >= lo, touching every page crossed.
    let mut pull = |r: usize, c: &mut Cursor| -> Option<Vec<u8>> {
        while let Some((k, p)) = c.keys.get(c.next) {
            touched.insert((r, *p));
            c.next += 1;
            if k.as_slice() >= lo {
                return Some(k.clone());
            }
        }
        None
    };
    let mut heads: Vec<Option<Vec<u8>>> = cursors
        .iter_mut()
        .enumerate()
        .map(|(r, c)| c.as_mut().and_then(|c| pull(r, c)))
        .collect();
    let mut yielded = 0;
    while yielded < yields {
        let Some((winner, _)) = heads
            .iter()
            .enumerate()
            .filter_map(|(r, h)| h.as_ref().map(|k| (r, k)))
            .min_by(|a, b| a.1.cmp(b.1))
        else {
            break;
        };
        let won = heads[winner].take().unwrap();
        // The merge refills the winner's slot before it looks at the key.
        heads[winner] = pull(winner, cursors[winner].as_mut().unwrap());
        if hi.is_some_and(|hi| won.as_slice() >= hi) {
            break;
        }
        yielded += 1;
    }
    (touched.len() as u64, seeks)
}

/// The pages `[start, end)` a run's scan cursor may read for `[lo, hi)`:
/// from the last page whose fence is <= lo (else page 0) to the first
/// whose fence is >= hi.
fn cursor_pages(pages: &[Vec<Vec<u8>>], lo: &[u8], hi: Option<&[u8]>) -> (usize, usize) {
    let fences = fences(pages);
    let start = fences.iter().rposition(|f| f.as_slice() <= lo).unwrap_or(0);
    let end = hi.map_or(pages.len(), |hi| {
        fences.iter().filter(|f| f.as_slice() < hi).count()
    });
    (start, end)
}

/// One store per disk kind, same options, same load.
fn stores(tag: &str, policy: MergePolicy) -> Vec<(String, Arc<Db>, Option<PathBuf>)> {
    let dir = temp_dir(&format!("{tag}-buffered"));
    let file = Db::open(shape(DbOptions::at_path(&dir), policy)).unwrap();
    let mem = Db::open(shape(DbOptions::in_memory(), policy)).unwrap();
    vec![
        ("mem".to_string(), mem, None),
        ("buffered".to_string(), file, Some(dir)),
    ]
}

fn scan_reads_exactly_what_it_decodes(policy: MergePolicy, tag: &str) {
    const N: u32 = 3000;
    let scans: Vec<(Vec<u8>, Vec<u8>)> = vec![
        (key(1000), key(1100)),  // the ledger's shape: 100 entries
        (key(0), key(40)),       // from the very first key
        (b"a".to_vec(), key(5)), // lo below every key
        (key(2990), key(9999)),  // hi above every key
        (key(1500), key(1501)),  // one entry
        (b"key001500x".to_vec(), b"key001500y".to_vec()), // empty: still one page per run
        (b"key001234x".to_vec(), b"key001260x".to_vec()), // bounds between keys
        (key(700), key(1900)),   // long: crosses many pages in every run
    ];
    let mut ledgers = Vec::new();
    for (kind, db, dir) in stores(tag, policy) {
        load(&db, N);
        let runs = layout(&db);
        assert!(runs.len() >= 2, "{kind}: want a multi-run tree");
        assert!(runs.iter().all(|r| r.len() > 1), "{kind}: multi-page runs");
        let mut ledger = Vec::new();
        for (lo, hi) in &scans {
            db.reset_io();
            let got: Vec<_> = db
                .range(lo, Some(hi))
                .unwrap()
                .map(|row| row.unwrap().0.to_vec())
                .collect();
            let io = db.io();
            let want: Vec<Vec<u8>> = (0..N).map(key).filter(|k| k >= lo && k < hi).collect();
            assert_eq!(got, want, "{kind}: scan result");
            let (pages, seeks) = expected_io(&runs, lo, Some(hi), usize::MAX);
            assert_eq!(
                (io.page_reads, io.seeks),
                (pages, seeks),
                "{kind} {policy:?}: scan {:?}..{:?} over {} runs",
                String::from_utf8_lossy(lo),
                String::from_utf8_lossy(hi),
                runs.len()
            );
            ledger.push((io.page_reads, io.seeks));
        }
        // Dropped after one entry: one page per run, nothing fetched ahead.
        db.reset_io();
        let mut scan = db.range(b"", None).unwrap();
        assert_eq!(scan.next().unwrap().unwrap().0.as_ref(), &key(0)[..]);
        drop(scan);
        let io = db.io();
        assert_eq!(
            (io.page_reads, io.seeks),
            (runs.len() as u64, runs.len() as u64),
            "{kind} {policy:?}: abandoned scan"
        );
        assert_eq!(
            expected_io(&runs, b"", None, 1),
            (io.page_reads, io.seeks),
            "the replay agrees"
        );
        ledgers.push((kind, ledger));
        drop(db);
        if let Some(dir) = dir {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }
    for (kind, ledger) in &ledgers[1..] {
        assert_eq!(ledger, &ledgers[0].1, "{kind} vs {}", ledgers[0].0);
    }
}

#[test]
fn leveled_scan_reads_exactly_what_it_decodes() {
    scan_reads_exactly_what_it_decodes(MergePolicy::Leveling, "lvl");
}

#[test]
fn tiered_scan_reads_exactly_what_it_decodes() {
    scan_reads_exactly_what_it_decodes(MergePolicy::Tiering, "tier");
}

/// Scans up to a page's fence where the fence is the page's whole first
/// key: the page before it ends below the bound, so a cursor blind to the
/// bound would fetch the fenced page after its last row only to find a
/// key past the bound. Each scan runs a hundred keys up to the fence, and
/// is counted where every page the fences can pick holds a key of the
/// range — elsewhere a run's shortened separator below the bound cannot
/// tell a page of keys above it, which the replay above covers.
fn a_scan_to_a_whole_key_fence_reads_only_the_pages_holding_its_keys(policy: MergePolicy) {
    const N: u32 = 3000;
    let db = Db::open(shape(DbOptions::in_memory(), policy)).unwrap();
    load(&db, N);
    let runs = layout(&db);
    assert!(runs.len() >= 2, "want a multi-run tree");
    let holds = |page: &Vec<Vec<u8>>, lo: &[u8], hi: &[u8]| {
        page.iter().any(|k| k.as_slice() >= lo && k.as_slice() < hi)
    };
    let mut checked = 0;
    for pages in &runs {
        for (p, fence) in fences(pages).iter().enumerate().skip(1) {
            if *fence != pages[p][0] {
                continue; // a separator shorter than the key
            }
            let i: u32 = std::str::from_utf8(&fence[3..]).unwrap().parse().unwrap();
            let (lo, hi) = (key(i.saturating_sub(100)), fence.as_slice());
            let exact = runs.iter().all(|pages| {
                let (start, end) = cursor_pages(pages, &lo, Some(hi));
                lo > *pages.last().unwrap().last().unwrap()
                    || pages[start..end.max(start)]
                        .iter()
                        .all(|pg| holds(pg, &lo, hi))
            });
            if !exact {
                continue;
            }
            let holding: usize = runs
                .iter()
                .map(|pages| pages.iter().filter(|pg| holds(pg, &lo, hi)).count())
                .sum();
            db.reset_io();
            let rows = db.range(&lo, Some(hi)).unwrap().count();
            assert_eq!(rows, (i - i.saturating_sub(100)) as usize);
            assert_eq!(
                db.io().page_reads,
                holding as u64,
                "{policy:?}: scan {:?}..{:?}",
                String::from_utf8_lossy(&lo),
                String::from_utf8_lossy(hi)
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 3,
        "{policy:?}: only {checked} scans to a whole-key fence"
    );
}

#[test]
fn leveled_scan_to_a_whole_key_fence_reads_only_the_pages_holding_its_keys() {
    a_scan_to_a_whole_key_fence_reads_only_the_pages_holding_its_keys(MergePolicy::Leveling);
}

#[test]
fn tiered_scan_to_a_whole_key_fence_reads_only_the_pages_holding_its_keys() {
    a_scan_to_a_whole_key_fence_reads_only_the_pages_holding_its_keys(MergePolicy::Tiering);
}

/// The OS filesystem, counting the positional reads of run files.
#[derive(Default)]
struct ReadCounter {
    reads: AtomicU64,
}

impl Fs for ReadCounter {
    fn read_at(&self, file: &FsFile, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        if file.path().extension().is_some_and(|ext| ext == "run") {
            self.reads.fetch_add(1, Relaxed);
        }
        OsFs.read_at(file, offset, buf)
    }
    fn create(&self, path: &Path) -> io::Result<FsFile> {
        OsFs.create(path)
    }
    fn open(&self, path: &Path) -> io::Result<FsFile> {
        OsFs.open(path)
    }
    fn write_at(&self, file: &FsFile, offset: u64, data: &[u8]) -> io::Result<()> {
        OsFs.write_at(file, offset, data)
    }
    fn len(&self, file: &FsFile) -> io::Result<u64> {
        OsFs.len(file)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        OsFs.read(path)
    }
    fn sync(&self, file: &FsFile) -> io::Result<()> {
        OsFs.sync(file)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        OsFs.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        OsFs.remove(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        OsFs.list(dir)
    }
    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        OsFs.create_dir(dir)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        OsFs.sync_dir(dir)
    }
    fn kind(&self) -> &'static str {
        OsFs.kind()
    }
}

/// Positional reads a bounded scan of `[lo, hi)` issues: per run it
/// reads, its declared pages — from the one `lo` lands on to the last
/// whose fence is below `hi` — `extent` pages at a time.
fn extent_reads(layout: &[Vec<Vec<Vec<u8>>>], lo: &[u8], hi: &[u8], extent: usize) -> u64 {
    (layout.iter())
        .filter(|pages| lo <= pages.last().unwrap().last().unwrap().as_slice())
        .map(|pages| {
            let (start, end) = cursor_pages(pages, lo, Some(hi));
            end.saturating_sub(start).div_ceil(extent) as u64
        })
        .sum()
}

fn scan_reads_its_declared_pages_in_extents(policy: MergePolicy) {
    const N: u32 = 3000;
    let extent = READ_EXTENT_BYTES / 4096;
    let dir = temp_dir(&format!("extents-{policy:?}"));
    let fs = Arc::new(ReadCounter::default());
    let db = Db::open_with_fs(shape(DbOptions::at_path(&dir), policy), fs.clone()).unwrap();
    load(&db, N);
    let runs = layout(&db);
    assert!(runs.len() >= 2, "want a multi-run tree");
    let counted = |scan: &dyn Fn() -> usize| {
        db.reset_io();
        let before = fs.reads.load(Relaxed);
        let rows = scan();
        let io = db.io();
        (
            rows,
            fs.reads.load(Relaxed) - before,
            io.page_reads,
            io.seeks,
        )
    };

    // The ledger's shape: 100 entries, one read per run.
    let (lo, hi) = (key(1000), key(1100));
    let (rows, reads, pages, seeks) = counted(&|| db.range(&lo, Some(&hi)).unwrap().count());
    assert_eq!(rows, 100);
    assert_eq!(reads, runs.len() as u64, "{policy:?}: one read per run");
    assert!(pages > reads, "{policy:?}: {pages} pages in {reads} reads");
    assert_eq!(
        (pages, seeks),
        expected_io(&runs, &lo, Some(&hi), usize::MAX)
    );

    // Longer than an extent: the same pages, an extent a read.
    let (lo, hi) = (key(700), key(1900));
    let (rows, reads, pages, seeks) = counted(&|| db.range(&lo, Some(&hi)).unwrap().count());
    assert_eq!(rows, 1200);
    let per_run = extent_reads(&runs, &lo, &hi, extent);
    assert!(per_run > runs.len() as u64, "{policy:?}: {per_run} reads");
    assert_eq!(
        reads, per_run,
        "{policy:?}: ⌈pages ÷ {extent}⌉ reads per run"
    );
    assert_eq!(
        (pages, seeks),
        expected_io(&runs, &lo, Some(&hi), usize::MAX)
    );

    // A scan to the end declares no range: a read per page, read whole or
    // dropped after one entry.
    let (rows, reads, pages, _) = counted(&|| db.range(b"", None).unwrap().count());
    assert_eq!(rows, N as usize);
    let all: usize = runs.iter().map(Vec::len).sum();
    assert_eq!((reads, pages), (all as u64, all as u64), "{policy:?}");
    let (_, reads, pages, seeks) = counted(&|| db.range(b"", None).unwrap().take(1).count());
    assert_eq!(
        (reads, pages, seeks),
        (runs.len() as u64, runs.len() as u64, runs.len() as u64)
    );
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn leveled_scan_reads_its_declared_pages_in_extents() {
    scan_reads_its_declared_pages_in_extents(MergePolicy::Leveling);
}

#[test]
fn tiered_scan_reads_its_declared_pages_in_extents() {
    scan_reads_its_declared_pages_in_extents(MergePolicy::Tiering);
}

/// Open descriptors of this process that point into `dir`: `(all, runs)`.
fn fds_into(dir: &Path) -> (usize, usize) {
    let dir = dir.canonicalize().unwrap();
    let mut all = 0;
    let mut runs = 0;
    for fd in std::fs::read_dir("/proc/self/fd").unwrap().flatten() {
        let Ok(target) = std::fs::read_link(fd.path()) else {
            continue; // the read_dir's own descriptor, gone by now
        };
        if target.starts_with(&dir) {
            all += 1;
            // An unlinked-but-open file reads "<path> (deleted)".
            if target.to_string_lossy().contains(".run") {
                runs += 1;
            }
        }
    }
    (all, runs)
}

#[test]
fn descriptors_track_live_runs_and_return_to_baseline() {
    if !Path::new("/proc/self/fd").exists() {
        eprintln!("skipping: no /proc/self/fd here");
        return;
    }
    // Everything the store holds open besides runs: WAL segment, manifest,
    // lock and the like. A bound, not a count.
    const OTHER_FILES: usize = 8;
    for policy in [MergePolicy::Leveling, MergePolicy::Tiering] {
        let dir = temp_dir(&format!("fds-{policy:?}"));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(fds_into(&dir), (0, 0), "baseline");
        let db = Db::open(shape(DbOptions::at_path(&dir), policy)).unwrap();
        let mut most_runs = 0;
        for cycle in 0..40u32 {
            for i in 0..150u32 {
                db.put(key((cycle * 977 + i * 31) % 4000), vec![b'v'; 90])
                    .unwrap();
            }
            db.flush().unwrap();
            // Touch every run so each one's handle is in use.
            for probe in (0..4000).step_by(97) {
                db.get(&key(probe)).unwrap();
            }
            let live = db.stats().runs;
            let (all, runs) = fds_into(&dir);
            assert!(
                runs <= live,
                "cycle {cycle}: {runs} run descriptors for {live} live runs"
            );
            assert!(
                all <= live + OTHER_FILES,
                "cycle {cycle}: {all} descriptors"
            );
            most_runs = most_runs.max(live);
        }
        assert!(most_runs >= 3, "the cycles built and merged a real tree");
        assert!(
            db.compaction_stats().merges > 5,
            "handles were retired many times over"
        );
        db.close().unwrap();
        let (_, runs) = fds_into(&dir);
        assert_eq!(runs, db.stats().runs, "one descriptor per live run");
        drop(db);
        assert_eq!(fds_into(&dir), (0, 0), "back to the baseline");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
