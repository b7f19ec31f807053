//! Failure injection: the engine must surface storage errors without
//! corrupting its in-memory state, losing committed data, or leaking
//! half-built runs — and must recover once the fault clears.

use monkey_lsm::{Db, DbOptions, LsmError, MergePolicy};
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

/// A cascade that fails after an earlier step of the same flush sealed a
/// run must not leave that run behind: no version names it, so nothing
/// would ever delete it. Walks a fault through **every** page write of a
/// flush whose cascade merges on more than one level.
#[test]
fn failed_cascade_leaks_no_run_at_any_write_index() {
    const BATCH: usize = 8; // under one buffer: only `flush` rotates
    let key = |i: usize| format!("k{:04}", (i * 37) % 1000).into_bytes();
    let put_batch = |db: &Db, batch: usize| {
        for i in batch * BATCH..(batch + 1) * BATCH {
            db.put(key(i), vec![b'v'; 32]).unwrap();
        }
    };
    let check = |db: &Db, puts: usize, when: &str| {
        let (live, tracked) = (db.disk().list_runs().len(), db.stats().runs);
        assert_eq!(live, tracked, "{when}: {live} run files for {tracked} runs");
        for i in 0..puts {
            assert!(db.get(&key(i)).unwrap().is_some(), "{when}: key {i} lost");
        }
    };
    for (policy, size_ratio) in [(MergePolicy::Leveling, 2), (MergePolicy::Tiering, 3)] {
        // Dry run: the first flush that merges on two levels or more.
        let (db, _) = flaky_db_with(FaultKind::Writes, policy, size_ratio);
        let mut batches = 0;
        loop {
            put_batch(&db, batches);
            batches += 1;
            let merges = db.compaction_stats().merges;
            db.flush().unwrap();
            if db.compaction_stats().merges >= merges + 2 {
                break;
            }
        }
        let mut failures = 0;
        for allowed in 0.. {
            let (db, backend) = flaky_db_with(FaultKind::Writes, policy, size_ratio);
            for batch in 0..batches {
                if batch > 0 {
                    db.flush().unwrap();
                }
                put_batch(&db, batch);
            }
            let merges = db.compaction_stats().merges;
            backend.arm(allowed);
            if db.flush().is_ok() {
                assert!(db.compaction_stats().merges >= merges + 2, "a cascade");
                break; // the fault has walked off the end of the cascade
            }
            failures += 1;
            backend.disarm();
            // The published tree is untouched, the frozen memtable still
            // answers for what it holds, and every file is a tracked run's.
            check(
                &db,
                batches * BATCH,
                &format!("{policy:?}, fault at write {allowed}"),
            );
            db.flush().unwrap();
            check(
                &db,
                batches * BATCH,
                &format!("{policy:?}, retry after {allowed}"),
            );
        }
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
