//! The parallel partitioned merge engine must be *invisible* except for
//! wall-clock time: for any inputs and any thread count the output run is
//! byte-identical to the sequential merge, the `IoStats` ledger is equal,
//! failures abort the cascade without installing partial output, and
//! readers keep making progress while a multi-threaded cascade runs.

use monkey_lsm::compaction::build_run_from_sorted;
use monkey_lsm::merge::merge_runs_with;
use monkey_lsm::{Db, DbOptions, Entry, LsmError, MergePolicy, Run};
use monkey_storage::{Disk, FaultKind, FlakyBackend, MemFs};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Build one sorted run per key set (key → tombstone?, last write wins on
/// duplicate keys). Later runs get higher sequence numbers, mimicking the
/// age order of a real cascade.
fn build_inputs(disk: &Arc<Disk>, runs: &[Vec<(u16, bool)>]) -> Vec<Arc<Run>> {
    runs.iter()
        .enumerate()
        .filter_map(|(r, keys)| {
            let entries: Vec<Entry> = keys
                .iter()
                .copied()
                .collect::<BTreeMap<u16, bool>>()
                .iter()
                .map(|(&k, &dead)| {
                    let key = format!("key{k:05}").into_bytes();
                    let seq = ((r as u64) << 32) | k as u64;
                    if dead {
                        Entry::tombstone(key, seq)
                    } else {
                        Entry::put(key, format!("value-{r}-{k:05}").into_bytes(), seq)
                    }
                })
                .collect();
            build_run_from_sorted(disk, entries, false, 1, 10.0).unwrap()
        })
        .collect()
}

fn raw_pages(disk: &Arc<Disk>, run: &Run) -> Vec<bytes::Bytes> {
    (0..run.pages())
        .map(|p| disk.read_page(run.id(), p).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For arbitrary inputs, any partition count 1–8, and both tombstone
    /// modes (the last-level/leveling "drop" mode and the upper-level/
    /// tiering "keep" mode), the parallel merge writes the exact same
    /// bytes as the sequential merge and charges the exact same I/O.
    #[test]
    fn parallel_merge_is_equivalent(
        runs in collection::vec(
            collection::vec((0u16..400, any::<bool>()), 1..120),
            2..5,
        ),
        threads in 1usize..=8,
        drop_tombstones in any::<bool>(),
    ) {
        let seq_disk = Disk::mem(128);
        let par_disk = Disk::mem(128);
        let seq_inputs = build_inputs(&seq_disk, &runs);
        let par_inputs = build_inputs(&par_disk, &runs);
        prop_assert!(!seq_inputs.is_empty());
        seq_disk.reset_io();
        par_disk.reset_io();
        let (seq_out, _) =
            merge_runs_with(&seq_disk, &seq_inputs, drop_tombstones, 1, 10.0, 1).unwrap();
        let (par_out, _) =
            merge_runs_with(&par_disk, &par_inputs, drop_tombstones, 1, 10.0, threads).unwrap();
        let (s, p) = (seq_disk.io(), par_disk.io());
        prop_assert_eq!(s.page_reads, p.page_reads, "same pages read");
        prop_assert_eq!(s.seeks, p.seeks, "same seeks charged");
        prop_assert_eq!(s.page_writes, p.page_writes, "same pages written");
        match (seq_out, par_out) {
            (None, None) => {} // everything annihilated either way
            (Some(seq_out), Some(par_out)) => {
                prop_assert_eq!(seq_out.entries(), par_out.entries());
                prop_assert_eq!(seq_out.pages(), par_out.pages());
                prop_assert_eq!(
                    raw_pages(&seq_disk, &seq_out),
                    raw_pages(&par_disk, &par_out),
                    "output must be byte-identical page-for-page"
                );
            }
            (seq_out, par_out) => prop_assert!(
                false,
                "one merge produced a run, the other none: {:?} vs {:?}",
                seq_out.map(|r| r.entries()),
                par_out.map(|r| r.entries())
            ),
        }
    }
}

/// Every byte a `Db` has on disk, keyed by run id.
fn disk_image(db: &Db) -> BTreeMap<u64, Vec<bytes::Bytes>> {
    let disk = db.disk();
    let mut image = BTreeMap::new();
    for id in disk.list_runs().unwrap() {
        let pages = disk.run_pages(id).unwrap();
        let bytes: Vec<_> = (0..pages).map(|p| disk.read_page(id, p).unwrap()).collect();
        image.insert(id, bytes);
    }
    image
}

/// A full engine workload — flushes, cascaded merges, deletes — must leave
/// an identical on-disk state whether compactions run on 1 thread or 4,
/// under both merge policies.
#[test]
fn db_state_is_thread_count_invariant_under_both_policies() {
    for policy in [MergePolicy::Leveling, MergePolicy::Tiering] {
        let open = |threads: usize| {
            Db::open(
                DbOptions::in_memory()
                    .page_size(256)
                    .buffer_capacity(1024)
                    .size_ratio(3)
                    .merge_policy(policy)
                    .compaction_threads(threads)
                    .uniform_filters(10.0),
            )
            .unwrap()
        };
        let (seq_db, par_db) = (open(1), open(4));
        for db in [&seq_db, &par_db] {
            for i in 0..1500u32 {
                let k = (i * 37) % 700; // revisits keys: updates + deletes
                if i % 6 == 5 {
                    db.delete(format!("k{k:05}").into_bytes()).unwrap();
                } else {
                    db.put(
                        format!("k{k:05}").into_bytes(),
                        format!("v{i:06}").into_bytes(),
                    )
                    .unwrap();
                }
            }
            db.flush().unwrap();
        }
        assert_eq!(
            disk_image(&seq_db),
            disk_image(&par_db),
            "{policy:?}: on-disk state must not depend on compaction_threads"
        );
        let seq_scan: Vec<_> = seq_db
            .range(b"", None)
            .unwrap()
            .map(Result::unwrap)
            .collect();
        let par_scan: Vec<_> = par_db
            .range(b"", None)
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(seq_scan, par_scan);
    }
}

/// A storage fault inside a worker-pool merge must fail the cascade
/// cleanly: the error reaches the foreground via `background_errors`, no
/// partial output run is installed or leaked, and the inputs stay live so
/// a retry after the fault clears loses nothing.
#[test]
fn worker_pool_merge_fault_fails_cascade_cleanly() {
    let backend = FlakyBackend::new(MemFs::new(), FaultKind::Writes);
    let disk = Disk::file_on(backend.clone(), "runs", 256, None).unwrap();
    let db = Db::open_with_disk(
        DbOptions::in_memory()
            .page_size(256)
            .buffer_capacity(512)
            .size_ratio(2)
            .merge_policy(MergePolicy::Leveling)
            .compaction_threads(4)
            .background_compaction(true)
            .max_immutable_memtables(8)
            .uniform_filters(10.0),
        disk,
    )
    .unwrap();
    // Build a deep enough tree that the queued rotations trigger a real
    // multi-level cascade, then hold the worker off while arming the fault.
    for i in 0..400u32 {
        db.put(format!("k{i:05}").into_bytes(), vec![b'v'; 32])
            .unwrap();
    }
    db.flush().unwrap();
    let committed = db.range(b"", None).unwrap().count();
    // Queue a few rotations — but stay under `max_immutable_memtables`, or
    // a put would block forever on the paused worker.
    db.pause_compaction();
    for i in 400..450u32 {
        db.put(format!("k{i:05}").into_bytes(), vec![b'v'; 32])
            .unwrap();
    }
    let tracked_before = db.stats().runs;
    let live_before = db.disk().list_runs().unwrap().len();
    backend.arm(0); // every write now fails
    db.resume_compaction();
    let deadline = Instant::now() + Duration::from_secs(10);
    while db.pipeline_stats().background_errors == 0 {
        assert!(Instant::now() < deadline, "worker never reported the fault");
        std::thread::sleep(Duration::from_millis(5));
    }
    backend.disarm();
    // No partial run was installed or leaked while the fault was armed.
    assert_eq!(db.stats().runs, tracked_before, "no partial run installed");
    assert!(
        db.disk().list_runs().unwrap().len() <= live_before,
        "aborted builders must delete their unsealed output"
    );
    // The deferred error surfaces on the next foreground call...
    let err = db.flush().unwrap_err();
    assert!(matches!(err, LsmError::Background(_)), "got {err}");
    // ...and the inputs were still live: a retry loses nothing.
    db.flush().unwrap();
    assert!(db.range(b"", None).unwrap().count() >= committed);
    for i in (0..450u32).step_by(13) {
        assert!(
            db.get(format!("k{i:05}").as_bytes()).unwrap().is_some(),
            "key {i} lost across the failed cascade"
        );
    }
}

/// Readers must keep completing against the immutable version snapshot
/// while a large parallel cascade churns in the background.
#[test]
fn readers_progress_during_parallel_cascade() {
    let db = Db::open(
        DbOptions::in_memory()
            .page_size(256)
            .buffer_capacity(1024)
            .size_ratio(2)
            .merge_policy(MergePolicy::Leveling)
            .compaction_threads(4)
            .background_compaction(true)
            .max_immutable_memtables(4)
            .uniform_filters(10.0),
    )
    .unwrap();
    // Commit a stable prefix the reader will hammer.
    for i in 0..300u32 {
        db.put(format!("stable{i:05}").into_bytes(), vec![b's'; 24])
            .unwrap();
    }
    db.flush().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let (db, stop) = (db.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let i = (reads * 17) % 300;
                let got = db.get(format!("stable{i:05}").as_bytes()).unwrap();
                assert!(got.is_some(), "stable key {i} vanished mid-cascade");
                reads += 1;
            }
            reads
        })
    };
    // Saturating writes drive repeated multi-level parallel cascades.
    for i in 0..4000u32 {
        db.put(format!("churn{i:06}").into_bytes(), vec![b'c'; 48])
            .unwrap();
    }
    db.flush().unwrap();
    stop.store(true, Ordering::Relaxed);
    let reads = reader.join().unwrap();
    assert!(
        reads > 100,
        "reader starved during the cascade: only {reads} lookups"
    );
    assert!(db.compaction_stats().merges > 0, "cascades actually ran");
    assert!(
        db.compaction_stats().last_merge_threads >= 1,
        "merge gauges populated"
    );
}
