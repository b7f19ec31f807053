//! Failure injection: the engine must surface storage errors without
//! corrupting its in-memory state, losing committed data, or leaking
//! half-built runs — and must recover once the fault clears. A durable
//! store is faulted at the seam every one of its files crosses, which also
//! shows the order in which a flush makes its bytes durable.

use bytes::Bytes;
use monkey_lsm::manifest::Manifest;
use monkey_lsm::{Db, DbOptions, DbStats, IoBackend, LsmError, MergePolicy};
use monkey_storage::{
    Backend, BlockCache, Disk, FaultKind, FlakyBackend, Fs, FsFile, MemBackend, OsFs,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn flaky_db(kind: FaultKind) -> (Arc<Db>, Arc<FlakyBackend<MemBackend>>) {
    flaky_db_with(kind, MergePolicy::Leveling, 2)
}

fn flaky_db_with(
    kind: FaultKind,
    policy: MergePolicy,
    size_ratio: usize,
) -> (Arc<Db>, Arc<FlakyBackend<MemBackend>>) {
    let backend = FlakyBackend::new(MemBackend::new(), kind);
    let disk = Disk::with_backend(backend.clone() as Arc<dyn Backend>, 256, None);
    // Build options whose storage we bypass: open an in-memory Db, then
    // rebuild with our counted flaky disk via the same configuration.
    let opts = DbOptions::in_memory()
        .page_size(256)
        .buffer_capacity(512)
        .size_ratio(size_ratio)
        .merge_policy(policy)
        .uniform_filters(8.0);
    let db = Db::open_with_disk(opts, disk).unwrap();
    (db, backend)
}

#[test]
fn write_fault_surfaces_and_recovers() {
    let (db, backend) = flaky_db(FaultKind::Writes);
    // Fill the tree a little.
    for i in 0..200 {
        db.put(format!("k{i:04}").into_bytes(), vec![b'v'; 32])
            .unwrap();
    }
    // Arm: the very next page write fails — the flush that a future put
    // triggers must return an error.
    backend.arm(0);
    let mut saw_error = false;
    for i in 200..400 {
        if let Err(e) = db.put(format!("k{i:04}").into_bytes(), vec![b'v'; 32]) {
            assert!(matches!(e, LsmError::Storage(_)), "unexpected error {e}");
            saw_error = true;
            break;
        }
    }
    assert!(saw_error, "an armed write fault must surface");
    assert!(backend.injected() >= 1);

    // Previously committed data is still readable.
    backend.disarm();
    for i in 0..200 {
        assert!(
            db.get(format!("k{i:04}").as_bytes()).unwrap().is_some(),
            "key {i} must survive the failed flush"
        );
    }
    // And the engine keeps working once the fault clears.
    for i in 400..500 {
        db.put(format!("k{i:04}").into_bytes(), vec![b'v'; 32])
            .unwrap();
    }
    assert!(db.get(b"k0450").unwrap().is_some());
}

#[test]
fn read_fault_surfaces_on_lookup_and_scan() {
    let (db, backend) = flaky_db(FaultKind::Reads);
    for i in 0..300 {
        db.put(format!("k{i:04}").into_bytes(), vec![b'v'; 32])
            .unwrap();
    }
    db.flush().unwrap();
    backend.arm(0);
    // A lookup that needs an I/O errors instead of lying.
    let mut errored = false;
    for i in 0..300 {
        match db.get(format!("k{i:04}").as_bytes()) {
            Err(_) => {
                errored = true;
                break;
            }
            Ok(Some(_)) => {} // served from memtable: fine
            Ok(None) => panic!("a stored key must never read as absent"),
        }
    }
    assert!(errored, "a read fault must surface as an error");

    // Scans propagate the error through the iterator.
    let scan_err = db
        .range(b"", None)
        .map(|iter| iter.filter_map(|kv| kv.err()).count())
        .map(|errs| errs > 0)
        .unwrap_or(true);
    assert!(scan_err, "scan must report the injected fault");

    backend.disarm();
    assert!(db.get(b"k0100").unwrap().is_some(), "recovers after disarm");
}

#[test]
fn failed_merge_does_not_leak_runs() {
    let (db, backend) = flaky_db(FaultKind::Writes);
    for i in 0..300 {
        db.put(format!("k{i:04}").into_bytes(), vec![b'v'; 32])
            .unwrap();
    }
    let runs_before = db.stats().runs;
    let live_before = db.disk().list_runs().len();
    // Every write fails now: the next flush/merge dies mid-build.
    backend.arm(0);
    let mut failures = 0;
    for i in 300..600 {
        if db
            .put(format!("k{i:04}").into_bytes(), vec![b'v'; 32])
            .is_err()
        {
            failures += 1;
        }
    }
    assert!(failures > 0);
    backend.disarm();
    // Half-built runs were cleaned up: live storage runs equals the
    // tree's run count (the aborted builder deleted its partial output).
    let stats = db.stats();
    let live_after = db.disk().list_runs().len();
    assert!(
        live_after <= stats.runs + 1,
        "no leaked storage: {live_after} live vs {} tracked (was {live_before}/{runs_before})",
        stats.runs
    );
}

/// Puts per batch in the write-fault sweeps: under one buffer, so only
/// `flush` rotates.
const BATCH: usize = 8;

fn sweep_key(i: usize) -> Vec<u8> {
    format!("k{:04}", (i * 37) % 1000).into_bytes()
}

fn put_batch(db: &Db, batch: usize) {
    for i in batch * BATCH..(batch + 1) * BATCH {
        db.put(sweep_key(i), vec![b'v'; 32]).unwrap();
    }
}

/// The tree by content: per level its runs, entries, bytes and filter
/// bits, and the pages of every run as a multiset — a failed flush spends
/// run ids, so two stores holding the same tree name its runs differently.
type Tree = (Vec<(usize, u64, u64, u64)>, Vec<Vec<Bytes>>);

fn tree(db: &Db) -> Tree {
    let shape = (db.stats().levels.iter())
        .map(|l| (l.runs, l.entries, l.bytes, l.filter_bits))
        .collect();
    let disk = db.disk();
    let mut runs: Vec<Vec<Bytes>> = (disk.list_runs().into_iter())
        .map(|run| {
            let pages = disk.run_pages(run).unwrap();
            (0..pages)
                .map(|p| disk.read_page(run, p).unwrap())
                .collect()
        })
        .collect();
    runs.sort();
    (shape, runs)
}

/// Walks a write fault through **every** page write and run seal of one
/// flush: the first flush of a batch trace for which
/// `pick(before, after, merges)` holds on a fault-free store. At each write
/// index a fresh store replays the batches before it and flushes with the
/// fault armed. The failed flush leaves no run file that no version names,
/// the frozen memtable still answers for every acknowledged key, and the
/// retry installs the tree the fault-free store laid down. Returns how
/// many indices failed, and how many of them failed a seal.
fn sweep_write_faults(
    policy: MergePolicy,
    size_ratio: usize,
    pick: impl Fn(&DbStats, &DbStats, u64) -> bool,
) -> (usize, usize) {
    let check = |db: &Db, puts: usize, when: &str| {
        let (live, tracked) = (db.disk().list_runs().len(), db.stats().runs);
        assert_eq!(live, tracked, "{when}: {live} run files for {tracked} runs");
        for i in 0..puts {
            assert!(
                db.get(&sweep_key(i)).unwrap().is_some(),
                "{when}: key {i} lost"
            );
        }
    };
    let (db, _) = flaky_db_with(FaultKind::Writes, policy, size_ratio);
    let mut batches = 0;
    let want = loop {
        assert!(batches < 1000, "{policy:?}: no flush to sweep");
        put_batch(&db, batches);
        batches += 1;
        let (before, merges) = (db.stats(), db.compaction_stats().merges);
        db.flush().unwrap();
        if pick(&before, &db.stats(), db.compaction_stats().merges - merges) {
            break tree(&db);
        }
    };
    let (mut failures, mut seals) = (0, 0);
    for allowed in 0.. {
        let (db, backend) = flaky_db_with(FaultKind::Writes, policy, size_ratio);
        for batch in 0..batches {
            if batch > 0 {
                db.flush().unwrap();
            }
            put_batch(&db, batch);
        }
        backend.arm(allowed);
        let Err(err) = db.flush() else {
            // The fault has walked off the end of the flush.
            assert_eq!(tree(&db), want, "{policy:?}: the fault-free flush");
            break;
        };
        failures += 1;
        seals += err.to_string().contains("injected fault on seal") as usize;
        backend.disarm();
        let when = format!("{policy:?}, fault at write {allowed}");
        check(&db, batches * BATCH, &when);
        db.flush().unwrap();
        check(&db, batches * BATCH, &format!("{when}, retried"));
        assert_eq!(tree(&db), want, "{when}: the retry lays down another tree");
    }
    (failures, seals)
}

/// A cascade that fails after an earlier step of the same flush sealed a
/// run must not leave that run behind: no version names it, so nothing
/// would ever delete it. The swept flush is one whose leveling cascade
/// merges on more than one level, one step after another — a spill the
/// flush's plan could not prove beforehand. (A tiering flush now makes
/// one merge at most: the plan merges the buffer with every level it
/// fills in one go, and what that merge lands on is not full.)
#[test]
fn failed_cascade_leaks_no_run_at_any_write_index() {
    let stepwise = |_: &DbStats, _: &DbStats, merges: u64| merges >= 2;
    let (failures, seals) = sweep_write_faults(MergePolicy::Leveling, 2, stepwise);
    assert!(failures >= 6, "only {failures} write indices");
    assert!(seals >= 2, "a run seal per merge: {seals}");
}

/// The same sweep through a flush its plan fuses through two levels: one
/// merge takes the buffer and the runs of levels 1 and 2 at once, so the
/// failure lands in a merge with more inputs than any stepwise one. Nothing
/// it read may be lost and nothing it wrote may stay.
#[test]
fn failed_fused_merge_leaks_no_run_at_any_write_index() {
    // Levels 1 and 2 held runs, both are empty now, and one merge did it.
    let fused_two = |before: &DbStats, after: &DbStats, merges: u64| {
        let runs = |stats: &DbStats, level: usize| stats.levels.get(level).map_or(0, |l| l.runs);
        merges == 1 && (0..2).all(|level| runs(before, level) > 0 && runs(after, level) == 0)
    };
    for (policy, size_ratio) in [(MergePolicy::Leveling, 2), (MergePolicy::Tiering, 3)] {
        let (failures, seals) = sweep_write_faults(policy, size_ratio, fused_two);
        assert!(failures >= 6, "{policy:?}: only {failures} write indices");
        assert!(seals >= 1, "{policy:?}: no seal index");
    }
}

#[test]
fn cache_masks_read_faults_for_hot_pages() {
    // A warm block cache serves hot pages even while the backend is down —
    // the availability bonus the paper's Figure 12 setup implies.
    let backend = FlakyBackend::new(MemBackend::new(), FaultKind::Reads);
    let disk = Disk::with_backend(
        backend.clone() as Arc<dyn Backend>,
        256,
        Some(BlockCache::new(1 << 20)),
    );
    let opts = DbOptions::in_memory()
        .page_size(256)
        .buffer_capacity(512)
        .size_ratio(2)
        .merge_policy(MergePolicy::Leveling)
        .uniform_filters(8.0);
    let db = Db::open_with_disk(opts, disk).unwrap();
    for i in 0..100 {
        db.put(format!("k{i:04}").into_bytes(), vec![b'v'; 32])
            .unwrap();
    }
    db.flush().unwrap();
    // Warm the cache.
    assert!(db.get(b"k0050").unwrap().is_some());
    backend.arm(0);
    // The same lookup is now served from the cache despite the dead disk.
    assert!(
        db.get(b"k0050").unwrap().is_some(),
        "cache hit needs no I/O"
    );
}

#[test]
fn scan_yields_what_it_had_read_then_the_error_then_ends() {
    // The merge kernel's error contract, seen through `Db::range`: a read
    // that fails mid-scan does not swallow the entries already read, and
    // the cursor does not outlive the error.
    let (db, backend) = flaky_db(FaultKind::Reads);
    for i in 0..40 {
        db.put(format!("k{i:04}").into_bytes(), vec![b'v'; 32])
            .unwrap();
    }
    db.flush().unwrap();
    let disk = db.disk();
    let runs = disk.list_runs();
    assert_eq!(runs.len(), 1, "one flush, one run");
    assert!(disk.run_pages(runs[0]).unwrap() >= 3);
    let first_page =
        monkey_lsm::page::PageCursor::new(disk.read_page(runs[0], 0).unwrap()).unwrap();
    let on_first_page = first_page.remaining();
    assert!(on_first_page >= 2);

    backend.arm(1); // the run's first page reads; its second does not
    let mut scan = db.range(b"", None).unwrap();
    for i in 0..on_first_page {
        let (key, _) = scan.next().unwrap().unwrap();
        assert_eq!(key.as_ref(), format!("k{i:04}").as_bytes());
    }
    let err = scan.next().unwrap().unwrap_err();
    assert!(
        matches!(err, LsmError::Storage(_)),
        "unexpected error {err}"
    );
    assert!(scan.next().is_none(), "the cursor fuses after the error");
    assert_eq!(backend.injected(), 1, "and reads nothing more");

    backend.disarm();
    assert_eq!(db.range(b"", None).unwrap().count(), 40);
}

/// A seam that logs every operation — its name and the path it touched,
/// relative to the store's root (`.` for the root itself) — before handing
/// it on. Given the fault plan of the seam it wraps, it disarms the plan
/// once the plan has injected a fault, so that one operation fails alone.
struct Recorder {
    inner: Arc<dyn Fs>,
    root: PathBuf,
    ops: Mutex<Vec<(&'static str, String)>>,
    one_fault: Option<Arc<FlakyBackend<OsFs>>>,
}

/// The seam operations that change a file or a directory, which a
/// [`FaultKind::Writes`] plan counts.
const WRITE_OPS: [&str; 7] = [
    "create",
    "write",
    "sync",
    "rename",
    "remove",
    "create_dir",
    "sync_dir",
];

impl Recorder {
    fn new(
        inner: Arc<dyn Fs>,
        root: &Path,
        one_fault: Option<Arc<FlakyBackend<OsFs>>>,
    ) -> Arc<Self> {
        let root = root.to_path_buf();
        let ops = Mutex::default();
        Arc::new(Self {
            inner,
            root,
            ops,
            one_fault,
        })
    }

    fn pass<T>(
        &self,
        op: &'static str,
        path: &Path,
        call: impl FnOnce(&dyn Fs) -> io::Result<T>,
    ) -> io::Result<T> {
        let name = path.strip_prefix(&self.root).unwrap_or(path);
        let name = match name.as_os_str().is_empty() {
            true => ".".to_string(),
            false => name.to_string_lossy().into_owned(),
        };
        self.ops.lock().unwrap().push((op, name));
        let result = call(&*self.inner);
        if let Some(plan) = self.one_fault.as_ref().filter(|plan| plan.injected() > 0) {
            plan.disarm();
        }
        result
    }

    /// The operations logged since the last call.
    fn take(&self) -> Vec<(&'static str, String)> {
        std::mem::take(&mut self.ops.lock().unwrap())
    }
}

impl Fs for Recorder {
    fn create(&self, path: &Path, direct: bool) -> io::Result<FsFile> {
        self.pass("create", path, |fs| fs.create(path, direct))
    }
    fn open(&self, path: &Path, direct: bool) -> io::Result<FsFile> {
        self.pass("open", path, |fs| fs.open(path, direct))
    }
    fn write_at(&self, file: &FsFile, offset: u64, data: &[u8]) -> io::Result<()> {
        self.pass("write", file.path(), |fs| fs.write_at(file, offset, data))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.pass("read", path, |fs| fs.read(path))
    }
    fn sync(&self, file: &FsFile) -> io::Result<()> {
        self.pass("sync", file.path(), |fs| fs.sync(file))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.pass("rename", from, |fs| fs.rename(from, to))
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.pass("remove", path, |fs| fs.remove(path))
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.pass("list", dir, |fs| fs.list(dir))
    }
    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        self.pass("create_dir", dir, |fs| fs.create_dir(dir))
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.pass("sync_dir", dir, |fs| fs.sync_dir(dir))
    }
}

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("monkey-faults-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A one-shard durable store that flushes inline, on buffered files, one
/// merge thread: each flush issues its seam operations in one order.
fn durable_opts(dir: &Path) -> DbOptions {
    DbOptions::at_path(dir)
        .page_size(256)
        .buffer_capacity(512)
        .size_ratio(2)
        .merge_policy(MergePolicy::Leveling)
        .uniform_filters(8.0)
        .io_backend(IoBackend::Buffered)
        .compaction_threads(1)
        .shards(1)
}

/// Batches put into a durable store, each flushed before the next: the
/// next flush merges the buffer with the run on level 1.
const DURABLE_BATCHES: usize = 2;

/// Opens a durable store over `fs` at `dir` and replays the batches, so
/// that the next `flush` is the swept one.
fn durable_store(dir: &Path, fs: Arc<dyn Fs>) -> Arc<Db> {
    let db = Db::open_with_fs(durable_opts(dir), fs).unwrap();
    for batch in 0..DURABLE_BATCHES {
        if batch > 0 {
            db.flush().unwrap();
        }
        put_batch(&db, batch);
    }
    db
}

/// The ids of the run files under `dir/pages`, and those the manifest names.
fn runs_on_disk_and_named(dir: &Path) -> (Vec<u64>, Vec<u64>) {
    let names = std::fs::read_dir(dir.join("pages")).unwrap();
    let hex = |name: String| u64::from_str_radix(name.strip_suffix(".run")?, 16).ok();
    let mut on_disk: Vec<u64> = (names.map(|e| e.unwrap().file_name()))
        .filter_map(|name| hex(name.to_string_lossy().into_owned()))
        .collect();
    let state = Manifest::at(dir.join("MANIFEST")).load().unwrap();
    let mut named: Vec<u64> = state.map_or(vec![], |s| s.runs.iter().map(|r| r.id).collect());
    on_disk.sort_unstable();
    named.sort_unstable();
    (on_disk, named)
}

fn wal_segments(dir: &Path) -> usize {
    let names = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name());
    let names: Vec<_> = names.map(|n| n.to_string_lossy().into_owned()).collect();
    names.iter().filter(|n| n.starts_with("wal-")).count()
}

/// A rotation and a flush, as the seam sees them. The WAL seal's new
/// segment is created and the directory synced before the first commit
/// into the segment is acknowledged. The flush seals its runs, syncs
/// `pages/` so the runs' names are durable, writes and syncs the
/// manifest's temporary file, renames it over the manifest, syncs the
/// directory so the rename is durable, and only then prunes the WAL
/// segment that covered the flushed entries and deletes the runs merged
/// away.
#[test]
fn a_durable_flush_makes_its_bytes_durable_in_order() {
    let dir = temp_store("order");
    let recorder = Recorder::new(Arc::new(OsFs), &dir, None);
    let db = durable_store(&dir, recorder.clone());
    let merges = db.compaction_stats().merges;
    recorder.take();
    db.flush().unwrap();
    assert!(
        db.compaction_stats().merges - merges >= 1,
        "the flush merges"
    );
    db.put(&b"after"[..], &b"v"[..]).unwrap();
    let ops = recorder.take();
    let at = |op: &str, name: &str| {
        let hit = ops.iter().position(|(o, n)| *o == op && n == name);
        hit.unwrap_or_else(|| panic!("no {op} of {name} in {ops:#?}"))
    };
    let all = |op: &str, pick: &dyn Fn(&str) -> bool| -> Vec<usize> {
        let hits = ops
            .iter()
            .enumerate()
            .filter(|(_, (o, n))| *o == op && pick(n));
        hits.map(|(i, _)| i).collect()
    };
    let is_wal = |n: &str| n.starts_with("wal-");
    let is_run = |n: &str| n.starts_with("pages/") && n.ends_with(".run");

    // The rotation: the seal's sync, then the new segment.
    let (sealed, active) = match &all("create", &is_wal)[..] {
        &[create] => (&all("sync", &is_wal), &ops[create].1),
        other => panic!("one segment created, not {other:?}: {ops:#?}"),
    };
    assert_eq!(sealed.len(), 1, "one WAL sync, the seal's: {ops:#?}");
    let create = at("create", active);
    assert!(sealed[0] < create, "{ops:#?}");
    assert_eq!(ops[create + 1], ("sync_dir", ".".into()), "{ops:#?}");
    let first_commit = at("write", active);
    assert!(create + 1 < first_commit, "{ops:#?}");
    assert_eq!(
        first_commit,
        ops.len() - 1,
        "the put after the flush: {ops:#?}"
    );

    // The flush.
    let seals = all("sync", &is_run);
    let pages = at("sync_dir", "pages");
    let (write, sync) = (at("write", "MANIFEST.tmp"), at("sync", "MANIFEST.tmp"));
    let rename = at("rename", "MANIFEST.tmp");
    let pruned = all("remove", &is_wal);
    assert!(
        !seals.is_empty() && seals.iter().all(|&seal| seal < pages),
        "{ops:#?}"
    );
    assert!(pages < write && write < sync && sync < rename, "{ops:#?}");
    assert_eq!(ops[rename + 1], ("sync_dir", ".".into()), "{ops:#?}");
    assert_eq!(pruned.len(), 1, "the sealed segment is pruned: {ops:#?}");
    assert!(rename + 1 < pruned[0], "{ops:#?}");
    let deleted = all("remove", &is_run);
    assert!(!deleted.is_empty(), "the flush merged runs away: {ops:#?}");
    assert!(deleted.iter().all(|&delete| pruned[0] < delete), "{ops:#?}");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Syncs per flush, by kind, on an inline-flush one-shard store: the WAL
/// seal's one, one per run sealed, the manifest's one and three directory
/// syncs — the new WAL segment's, `pages/` before the manifest names its
/// runs, and the renamed manifest's. None of them is a page I/O.
#[test]
fn a_flush_syncs_each_kind_a_pinned_number_of_times() {
    let dir = temp_store("syncs");
    let db = Db::open(durable_opts(&dir)).unwrap();
    let mut sealed_per_flush = Vec::new();
    for batch in 0..48 {
        put_batch(&db, batch);
        let newest = |db: &Db| db.disk().list_runs().last().copied();
        let (before, newest_before) = (db.io(), newest(&db));
        db.flush().unwrap();
        let io = db.io() - before;
        let syncs = [io.wal_syncs, io.manifest_syncs, io.dir_syncs];
        assert_eq!(syncs, [1, 1, 3], "flush {batch}: {io:?}");
        // Run ids go up by one per run begun, and this flush's last run
        // is the newest.
        let begun = newest(&db).unwrap() - newest_before.map_or(0, |id| id + 1) + 1;
        assert_eq!(io.run_syncs, begun, "flush {batch}: {io:?}");
        assert_eq!(
            io.total_ios(),
            io.page_reads + io.page_writes,
            "syncs move no page"
        );
        sealed_per_flush.push(io.run_syncs);
    }
    // The last flush is the trace's first to merge on two levels, one
    // after the other.
    let mut want = vec![1; 48];
    want[47] = 2;
    assert_eq!(sealed_per_flush, want);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Walks a write fault through every write, sync, rename and remove the
/// seam sees in one flush of a durable store: the WAL seal, the runs the
/// flush writes and seals, the `pages/` sync, the manifest's store, the
/// WAL prune and the deletes of the runs merged away. At each index a
/// fresh store replays the batches and flushes with the fault armed —
/// once failing every write from there on, as a dying disk does, and once
/// failing that write alone, so the flush goes on past it. The error
/// surfaces — unless the fault hit a merged-away run's delete, which
/// the run's last reference issues and cannot report: that run stays on
/// storage until a reopen. Then, with the fault disarmed, a reopen returns
/// every acknowledged put, and the run files on storage are exactly those
/// the manifest names; after one more put and flush, one WAL segment is
/// left, the one the store is writing.
#[test]
fn failed_durable_flush_loses_nothing_at_any_seam_write() {
    let reference = temp_store("sweep-ref");
    let recorder = Recorder::new(Arc::new(OsFs), &reference, None);
    let db = durable_store(&reference, recorder.clone());
    recorder.take();
    db.flush().unwrap();
    let writes: Vec<_> = (recorder.take().into_iter())
        .filter(|(op, _)| WRITE_OPS.contains(op))
        .collect();
    drop(db);
    std::fs::remove_dir_all(&reference).unwrap();
    for kind in ["create", "write", "sync", "rename", "remove", "sync_dir"] {
        assert!(
            writes.iter().any(|(op, _)| *op == kind),
            "no {kind}: {writes:#?}"
        );
    }

    let puts = DURABLE_BATCHES * BATCH;
    let indices = writes.iter().enumerate();
    for ((index, (op, name)), alone) in indices.flat_map(|w| [(w, false), (w, true)]) {
        let when = format!("fault at write {index} ({op} of {name}), alone: {alone}");
        let dir = temp_store("sweep");
        let plan = FlakyBackend::new(OsFs, FaultKind::Writes);
        let fs = Recorder::new(plan.clone(), &dir, alone.then(|| plan.clone()));
        let db = durable_store(&dir, fs);
        plan.arm(index as u64);
        let flushed = db.flush();
        assert!(plan.injected() > 0, "{when}: never reached");
        let deferred = *op == "remove" && name.ends_with(".run");
        if let Ok(()) = flushed {
            assert!(deferred, "{when}: the error did not surface");
        }
        plan.disarm();
        drop(db);

        let db = Db::open(durable_opts(&dir)).unwrap();
        for i in 0..puts {
            let got = db.get(&sweep_key(i)).unwrap();
            assert!(got.is_some(), "{when}: acknowledged key {i} lost");
        }
        let (on_disk, named) = runs_on_disk_and_named(&dir);
        assert_eq!(
            on_disk, named,
            "{when}: run files the manifest does not name"
        );
        db.put(&b"after"[..], &b"v"[..]).unwrap();
        db.flush().unwrap();
        let (on_disk, named) = runs_on_disk_and_named(&dir);
        assert_eq!(on_disk, named, "{when}, then a flush");
        assert_eq!(
            wal_segments(&dir),
            1,
            "{when}: WAL segments no replay covers"
        );
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
