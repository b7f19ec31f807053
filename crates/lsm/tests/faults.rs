//! Failure injection: the engine must surface storage errors without
//! corrupting its in-memory state, losing committed data, or leaking
//! half-built runs — and must recover once the fault clears.

use bytes::Bytes;
use monkey_lsm::{Db, DbOptions, DbStats, LsmError, MergePolicy};
use monkey_storage::{Backend, BlockCache, Disk, FaultKind, FlakyBackend, MemBackend};
use std::sync::Arc;

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

/// Walks a write fault through **every** page write of one flush: the
/// first flush of a batch trace for which `pick(before, after, merges)`
/// holds on a fault-free store. At each write index a fresh store replays
/// the batches before it and flushes with the fault armed. The failed
/// flush leaves no run file that no version names, the frozen memtable
/// still answers for every acknowledged key, and the retry installs the
/// tree the fault-free store laid down. Returns how many indices failed.
fn sweep_write_faults(
    policy: MergePolicy,
    size_ratio: usize,
    pick: impl Fn(&DbStats, &DbStats, u64) -> bool,
) -> usize {
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
    let mut failures = 0;
    for allowed in 0.. {
        let (db, backend) = flaky_db_with(FaultKind::Writes, policy, size_ratio);
        for batch in 0..batches {
            if batch > 0 {
                db.flush().unwrap();
            }
            put_batch(&db, batch);
        }
        backend.arm(allowed);
        if db.flush().is_ok() {
            // The fault has walked off the end of the flush.
            assert_eq!(tree(&db), want, "{policy:?}: the fault-free flush");
            break;
        }
        failures += 1;
        backend.disarm();
        let when = format!("{policy:?}, fault at write {allowed}");
        check(&db, batches * BATCH, &when);
        db.flush().unwrap();
        check(&db, batches * BATCH, &format!("{when}, retried"));
        assert_eq!(tree(&db), want, "{when}: the retry lays down another tree");
    }
    failures
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
    let failures = sweep_write_faults(MergePolicy::Leveling, 2, stepwise);
    assert!(failures >= 6, "only {failures} write indices");
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
        let failures = sweep_write_faults(policy, size_ratio, fused_two);
        assert!(failures >= 6, "{policy:?}: only {failures} write indices");
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
