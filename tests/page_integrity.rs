//! Corruption at rest is an error on every read path, and never enters the
//! cache.
//!
//! A page is checked once, where its bytes enter memory: `Disk` runs the
//! page check its runs attached on every physical read, before the block
//! cache may admit the page, and a cache hit is never re-hashed. What must
//! therefore never happen is a page that failed the check reaching the
//! cache — every later read of it would be a hit nobody checks. These tests
//! flip one byte of a run file under a store and hold `get`, `range`,
//! `verify` and reopen to an error.

use monkey::{Db, DbOptions, LsmError, Result};
use monkey_storage::{BlockCache, CacheConfig, Disk, OsFs, StorageError};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const PAGE: usize = 4096;
/// Keys in the store: 5 pages of one run, all in one flush.
const KEYS: u32 = 150;

fn temp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("monkey-integrity-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

fn shape(opts: DbOptions) -> DbOptions {
    opts.page_size(PAGE)
        .buffer_capacity(64 * 1024)
        .uniform_filters(10.0)
        .shards(1)
}

/// Loads every key and flushes: one run at level 1, an empty memtable.
fn load(db: &Db) {
    for i in 0..KEYS {
        db.put(key(i), vec![b'v'; 90]).unwrap();
    }
    db.flush().unwrap();
    assert_eq!(db.stats().runs, 1);
}

/// Flips one bit inside the first entry of page 0 of the one run file
/// under `dir`, which holds the smallest key.
fn flip_page_zero(dir: &Path) {
    let runs: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "run"))
        .collect();
    let [run] = runs.as_slice() else {
        panic!("one run file expected, found {runs:?}");
    };
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(run)
        .unwrap();
    let offset = 30; // past the page header, inside the first key
    let mut byte = [0u8];
    file.read_exact_at(&mut byte, offset).unwrap();
    file.write_all_at(&[byte[0] ^ 0x20], offset).unwrap();
    file.sync_all().unwrap();
}

fn assert_corrupt<T: std::fmt::Debug>(what: &str, got: Result<T>) {
    match got {
        Err(LsmError::Storage(StorageError::Corruption(why))) => {
            assert!(why.contains("checksum"), "{what}: {why}")
        }
        other => panic!("{what}: expected a checksum corruption, got {other:?}"),
    }
}

#[test]
fn a_corrupt_page_fails_every_read_and_is_never_cached() {
    let dir = temp_dir("cached");
    let opts = shape(DbOptions::in_memory());
    let cache = BlockCache::with_config(CacheConfig::lru(1 << 20).with_page_size(PAGE));
    let disk = Disk::file_on(Arc::new(OsFs), &dir, PAGE, Some(cache)).unwrap();
    let db = Db::open_with_disk(opts, Arc::clone(&disk)).unwrap();
    load(&db);
    flip_page_zero(&dir);
    let inserts = || disk.cache_stats().unwrap().inserts;

    // The run's other pages are intact and readable, and cached.
    let before = inserts();
    assert!(db.get(&key(KEYS - 1)).unwrap().is_some());
    assert_eq!(inserts(), before + 1);

    let before = inserts();
    for attempt in 0..2 {
        let reads = disk.io().page_reads;
        assert_corrupt(&format!("get #{attempt}"), db.get(&key(0)));
        assert_eq!(
            disk.io().page_reads,
            reads + 1,
            "get #{attempt} read the page"
        );
    }
    assert_eq!(
        inserts(),
        before,
        "a page that failed its check is never admitted"
    );

    assert_corrupt(
        "range",
        db.range(&key(0), None)
            .and_then(|iter| iter.collect::<Result<Vec<_>>>()),
    );
    assert_corrupt("verify", db.verify());
    // Still not cached after every other path failed on it too.
    assert_corrupt("get after range and verify", db.get(&key(0)));

    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_durable_store_over_a_corrupt_page_fails_to_reopen() {
    let dir = temp_dir("durable");
    let opts = || shape(DbOptions::at_path(&dir));
    let db = Db::open(opts()).unwrap();
    load(&db);
    assert_eq!(db.verify().unwrap(), KEYS as u64);
    drop(db);
    Db::open(opts()).unwrap().verify().unwrap(); // reopens while intact

    flip_page_zero(&dir.join("pages"));
    assert_corrupt("reopen", Db::open(opts()).map(drop));
    std::fs::remove_dir_all(&dir).unwrap();
}
