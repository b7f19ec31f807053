//! Durability: WAL replay, manifest recovery, and filter reconstruction
//! for directory-backed databases across (simulated) crashes.

use monkey::{Db, DbOptions, DbOptionsExt, IoBackend, MergePolicy};
use monkey_storage::{Fs, MemFs};
use std::path::PathBuf;
use std::sync::Arc;

fn dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("monkey-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn opts(d: &PathBuf) -> DbOptions {
    DbOptions::at_path(d)
        .page_size(512)
        .buffer_capacity(2048)
        .size_ratio(2)
        .merge_policy(MergePolicy::Leveling)
        .monkey_filters(8.0)
}

/// The highest-numbered `wal-NNNNNN.log` segment in `d` (the one still
/// accepting appends before the simulated crash).
fn newest_wal_segment(d: &PathBuf) -> PathBuf {
    std::fs::read_dir(d)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name()?.to_str()?.to_owned();
            (name.starts_with("wal-") && name.ends_with(".log")).then_some(path)
        })
        .max()
        .expect("no WAL segment on disk")
}

#[test]
fn reopen_recovers_all_data() {
    let d = dir("basic");
    {
        let db = Db::open(opts(&d)).unwrap();
        for i in 0..500 {
            db.put(
                format!("key{i:05}").into_bytes(),
                format!("value{i}").into_bytes(),
            )
            .unwrap();
        }
        db.delete(&b"key00042"[..]).unwrap();
        // Dropped without any explicit shutdown: WAL + manifest must carry
        // everything.
    }
    let db = Db::open(opts(&d)).unwrap();
    for i in 0..500 {
        let got = db.get(format!("key{i:05}").as_bytes()).unwrap();
        if i == 42 {
            assert!(got.is_none(), "tombstone survived recovery");
        } else {
            assert_eq!(
                got.unwrap().as_ref(),
                format!("value{i}").as_bytes(),
                "key {i}"
            );
        }
    }
    assert_eq!(db.range(b"", None).unwrap().count(), 499);
    std::fs::remove_dir_all(&d).unwrap();
}

#[test]
fn recovery_preserves_tree_shape_and_filters() {
    let d = dir("shape");
    let (shape_before, filters_before);
    {
        let db = Db::open(opts(&d)).unwrap();
        for i in 0..2000 {
            db.put(format!("key{i:05}").into_bytes(), vec![b'v'; 32])
                .unwrap();
        }
        db.rebuild_filters().unwrap();
        let stats = db.stats();
        shape_before = stats
            .levels
            .iter()
            .map(|l| (l.runs, l.entries))
            .collect::<Vec<_>>();
        filters_before = stats.filter_bits;
    }
    let db = Db::open(opts(&d)).unwrap();
    let stats = db.stats();
    let shape_after: Vec<_> = stats.levels.iter().map(|l| (l.runs, l.entries)).collect();
    assert_eq!(
        shape_after, shape_before,
        "manifest restored the exact layout"
    );
    assert_eq!(
        stats.filter_bits, filters_before,
        "filters rebuilt at recorded bpe"
    );
    std::fs::remove_dir_all(&d).unwrap();
}

#[test]
fn sequence_numbers_resume_after_recovery() {
    let d = dir("seq");
    {
        let db = Db::open(opts(&d)).unwrap();
        db.put(&b"k"[..], &b"old"[..]).unwrap();
    }
    {
        let db = Db::open(opts(&d)).unwrap();
        db.put(&b"k"[..], &b"new"[..]).unwrap();
        db.flush().unwrap();
    }
    let db = Db::open(opts(&d)).unwrap();
    assert_eq!(
        db.get(b"k").unwrap().unwrap().as_ref(),
        b"new",
        "newer write wins: sequence numbers did not collide across restarts"
    );
    std::fs::remove_dir_all(&d).unwrap();
}

#[test]
fn torn_wal_tail_loses_only_the_torn_write() {
    let d = dir("torn");
    {
        // Pinned single-shard: this test performs byte surgery on a
        // specific WAL segment at the store root; a MONKEY_SHARDS override
        // would scatter the two records across shard subdirectories.
        let db = Db::open(opts(&d).shards(1)).unwrap();
        db.put(&b"durable"[..], &b"1"[..]).unwrap();
        db.put(&b"torn"[..], &b"2"[..]).unwrap();
    }
    // Simulate a crash that tore the last WAL record. The WAL is
    // segmented (`wal-NNNNNN.log`); the torn write sits at the tail of the
    // newest segment.
    let wal = newest_wal_segment(&d);
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 2]).unwrap();
    let db = Db::open(opts(&d)).unwrap();
    assert_eq!(db.get(b"durable").unwrap().unwrap().as_ref(), b"1");
    assert!(
        db.get(b"torn").unwrap().is_none(),
        "torn record not replayed"
    );
    std::fs::remove_dir_all(&d).unwrap();
}

#[test]
fn repeated_crash_reopen_cycles_converge() {
    let d = dir("cycles");
    let mut expect = std::collections::BTreeMap::new();
    for round in 0..5u32 {
        let db = Db::open(opts(&d)).unwrap();
        for i in 0..200 {
            let k = format!("key{:05}", (round * 131 + i * 7) % 1000);
            let v = format!("round{round}-{i}");
            expect.insert(k.clone(), v.clone());
            db.put(k.into_bytes(), v.into_bytes()).unwrap();
        }
        // crash (drop) without flush
    }
    let db = Db::open(opts(&d)).unwrap();
    for (k, v) in &expect {
        assert_eq!(
            db.get(k.as_bytes()).unwrap().unwrap().as_ref(),
            v.as_bytes(),
            "key {k}"
        );
    }
    assert_eq!(db.range(b"", None).unwrap().count(), expect.len());
    std::fs::remove_dir_all(&d).unwrap();
}

#[test]
fn wal_sync_each_append_survives() {
    let d = dir("sync");
    {
        let db = Db::open(opts(&d).wal_sync_each_append(true)).unwrap();
        db.put(&b"precious"[..], &b"data"[..]).unwrap();
    }
    let db = Db::open(opts(&d)).unwrap();
    assert_eq!(db.get(b"precious").unwrap().unwrap().as_ref(), b"data");
    std::fs::remove_dir_all(&d).unwrap();
}

#[test]
fn queued_immutable_memtables_recover_from_wal() {
    let d = dir("queued");
    let crashed = dir("queued-crash-copy");
    {
        let db = Db::open(
            opts(&d)
                .background_compaction(true)
                .max_immutable_memtables(16),
        )
        .unwrap();
        // Park rotated memtables in the immutable queue by pausing the
        // flush worker, so the tree on disk lags the acknowledged writes.
        db.pause_compaction();
        for i in 0..400 {
            db.put(format!("key{i:05}").into_bytes(), vec![b'q'; 24])
                .unwrap();
        }
        assert!(
            db.stats().pipeline_gauges.immutable_queue_depth > 0,
            "writes are parked in frozen memtables"
        );
        // Simulate a crash at this instant: clone the on-disk state while
        // the queue still holds unflushed memtables, then recover from the
        // clone. (Dropping the handle would drain the queue first — a
        // clean shutdown, not a crash.)
        copy_tree(&d, &crashed);
    }
    let db = Db::open(opts(&crashed)).unwrap();
    for i in 0..400 {
        assert!(
            db.get(format!("key{i:05}").as_bytes()).unwrap().is_some(),
            "key{i} lost in the crash: WAL replay missed a queued memtable"
        );
    }
    assert_eq!(db.range(b"", None).unwrap().count(), 400);
    std::fs::remove_dir_all(&d).unwrap();
    std::fs::remove_dir_all(&crashed).unwrap();
}

fn copy_tree(from: &PathBuf, to: &PathBuf) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), dst).unwrap();
        }
    }
}

#[test]
fn empty_directory_database_opens_and_reopens() {
    let d = dir("empty");
    {
        let _db = Db::open(opts(&d)).unwrap();
    }
    let db = Db::open(opts(&d)).unwrap();
    assert!(db.get(b"anything").unwrap().is_none());
    std::fs::remove_dir_all(&d).unwrap();
}

/// A durable store on a memory fs: its run files, WAL segments and
/// manifest are the ones it keeps on disk, held in memory. Every
/// acknowledged put, flushed into runs or only in the WAL, reads back
/// after a reopen over the same files.
#[test]
fn durable_store_round_trips_on_a_memory_fs() {
    let fs: Arc<dyn Fs> = Arc::new(MemFs::new());
    let d = PathBuf::from("/store");
    let key = |i: u32| format!("key{i:05}").into_bytes();
    {
        let db = Db::open_with_fs(opts(&d), Arc::clone(&fs)).unwrap();
        for i in 0..600u32 {
            db.put(key(i), vec![b'v'; 40]).unwrap();
        }
        db.flush().unwrap();
        assert!(db.stats().runs > 0);
        for i in 600..620u32 {
            db.put(key(i), vec![b'w'; 40]).unwrap();
        }
    }
    let names = fs.list(&d).unwrap();
    assert!(names.iter().any(|n| n == "MANIFEST"), "{names:?}");
    // Memory has no device for `O_DIRECT`: a direct request falls back.
    let db = Db::open_with_fs(opts(&d).io_backend(IoBackend::Direct), fs).unwrap();
    let fallback = db.io_backend_info().fallback;
    assert!(fallback.is_some_and(|why| why.contains("O_DIRECT")));
    for i in 0..620u32 {
        let want = if i < 600 { b'v' } else { b'w' };
        assert_eq!(db.get(&key(i)).unwrap().as_deref(), Some(&[want; 40][..]));
    }
    assert!(db.stats().runs > 0, "the runs were found again");
}
