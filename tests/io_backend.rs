//! One I/O path, whatever holds the files.
//!
//! A store's run pages, manifests and WAL segments take the same code on
//! the operating system's filesystem as on memory: every byte on disk,
//! every `IoStats` counter and every answer must be identical whichever
//! `Fs` the store runs on. The proptest below pins that — arbitrary
//! recorded op traces replay to byte-identical disk images and ledgers on
//! `OsFs` and on `MemFs`, and a volatile store of the same shape counts the
//! same page I/O — and the other tests time re-reads on both kinds of
//! store and cover WAL group commit (one fsync per group commit, fewer
//! fsyncs than puts under concurrent writers).

use monkey::{Db, DbOptions, MergePolicy};
use monkey_bloom::hash::xxh64;
use monkey_storage::{Fs, MemFs, OsFs};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("monkey-iobackend-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The tree shape the tests give a store, on any storage: small enough to
/// push several merge cascades.
fn shape(opts: DbOptions) -> DbOptions {
    opts.page_size(4096)
        .buffer_capacity(16 * 1024)
        .size_ratio(3)
        .merge_policy(MergePolicy::Leveling)
        .uniform_filters(8.0)
        .shards(1)
}

/// Order-independent fingerprint of every byte under `dir` on `fs`:
/// chained xxh64 over (relative path, length, content) in sorted path
/// order.
fn fingerprint_dir(fs: &dyn Fs, dir: &Path) -> u64 {
    fn walk(fs: &dyn Fs, dir: &Path, files: &mut Vec<PathBuf>) {
        let mut names = fs.list(dir).unwrap();
        names.sort();
        for path in names.iter().map(|name| dir.join(name)) {
            match fs.list(&path) {
                Ok(_) => walk(fs, &path, files),
                Err(_) => files.push(path),
            }
        }
    }
    let mut files = Vec::new();
    walk(fs, dir, &mut files);
    let mut h = 0x4449_4f42_u64; // chain seed
    for path in files {
        let rel = path.strip_prefix(dir).unwrap();
        h = xxh64(rel.to_string_lossy().as_bytes(), h);
        let content = fs.read(&path).unwrap();
        h = xxh64(&(content.len() as u64).to_le_bytes(), h);
        h = xxh64(&content, h);
    }
    h
}

/// What a replay of a recorded trace says: the `IoStats` ledger and the
/// read phase's answers.
#[derive(Debug, PartialEq)]
struct Replay {
    io: monkey_storage::IoSnapshot,
    gets: Vec<Option<Vec<u8>>>,
    scan: Vec<(Vec<u8>, Vec<u8>)>,
}

/// Replays a recorded trace (puts, deletes, flushes, then a read phase of
/// gets and one full range scan) on `db`, and returns it with the active
/// backend kind.
fn run_trace(db: Arc<Db>, trace: &[(bool, u16, u8)]) -> (Replay, String) {
    for &(is_put, k, v) in trace {
        let key = format!("key{:05}", k % 400).into_bytes();
        if is_put {
            db.put(
                key,
                format!("value-{v:03}-{}", "x".repeat(v as usize % 40)).into_bytes(),
            )
            .unwrap();
        } else {
            db.delete(key).unwrap();
        }
    }
    db.flush().unwrap();
    // Read phase: point lookups (filter probes + seeks) and one scan, so
    // the ledger exercises every read path.
    let gets = (0..400u16)
        .step_by(7)
        .map(|k| {
            let v = db.get(format!("key{k:05}").as_bytes()).unwrap();
            v.map(|v| v.to_vec())
        })
        .collect();
    let scan: Vec<_> = db
        .range(b"", None)
        .unwrap()
        .map(|kv| {
            let (k, v) = kv.unwrap();
            (k.to_vec(), v.to_vec())
        })
        .collect();
    assert!(scan.len() <= 400);
    let replay = Replay {
        io: db.io(),
        gets,
        scan,
    };
    (replay, db.io_backend_info().kind.to_string())
}

/// The invariant: replays of the same trace on a durable store over
/// `OsFs` and over `MemFs` are indistinguishable on disk, in the `IoStats`
/// ledger and in their answers, and a volatile store of the same shape
/// counts the same page I/O and run seals and gives the same answers.
fn check_backend_parity(
    trace: &[(bool, u16, u8)],
    tag: &str,
) -> Result<(), proptest::TestCaseError> {
    let dir = temp_dir(&format!("par-{tag}"));
    let mem_fs = MemFs::new();
    let os = Db::open(shape(DbOptions::at_path(&dir))).unwrap();
    let on_mem_fs = Db::open_with_fs(shape(DbOptions::at_path(&dir)), Arc::new(mem_fs.clone()));
    let (buf, kind_buf) = run_trace(os, trace);
    let (on_mem_fs, kind_mem_fs) = run_trace(on_mem_fs.unwrap(), trace);
    let (mem, kind_mem) = run_trace(Db::open(shape(DbOptions::in_memory())).unwrap(), trace);
    proptest::prop_assert_eq!(kind_buf, "buffered");
    proptest::prop_assert_eq!(kind_mem_fs, "mem");
    proptest::prop_assert_eq!(kind_mem, "mem");
    proptest::prop_assert_eq!(
        fingerprint_dir(&OsFs, &dir),
        fingerprint_dir(&mem_fs, &dir),
        "disk image diverged between OsFs and MemFs"
    );
    proptest::prop_assert_eq!(&buf, &on_mem_fs, "ledger or answers diverged");
    // A volatile store has no WAL, manifest or directory to sync; the rest
    // of its ledger, run seals included, is the file store's.
    let io = monkey_storage::IoSnapshot {
        wal_syncs: 0,
        manifest_syncs: 0,
        dir_syncs: 0,
        ..buf.io
    };
    let buf = Replay { io, ..buf };
    proptest::prop_assert_eq!(&buf, &mem, "memory store diverged from buffered");
    std::fs::remove_dir_all(&dir).unwrap();
    Ok(())
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

    #[test]
    fn recorded_traces_replay_identically_on_every_backend(
        trace in proptest::collection::vec(
            (proptest::prelude::any::<bool>(), proptest::prelude::any::<u16>(), proptest::prelude::any::<u8>()),
            1..250,
        ),
        salt in proptest::prelude::any::<u32>(),
    ) {
        check_backend_parity(&trace, &format!("{salt:08x}"))?;
    }
}

/// Re-reads on a store of run files and on a volatile one return the
/// 40-byte value each key was written with, every time. The re-reads are
/// timed, and the means printed; the timing asserts nothing.
#[test]
fn timed_re_reads_return_the_value_written_on_both_backends() {
    let dir = temp_dir("re-read");
    let mut means = Vec::new();
    for opts in [DbOptions::at_path(&dir), DbOptions::in_memory()] {
        let db = Db::open(shape(opts)).unwrap();
        for i in 0..3000 {
            db.put(format!("key{i:05}").into_bytes(), vec![b'v'; 40])
                .unwrap();
        }
        db.flush().unwrap();
        let kind = db.io_backend_info().kind;
        let keys: Vec<String> = (0..3000).step_by(5).map(|i| format!("key{i:05}")).collect();
        let started = std::time::Instant::now();
        for _ in 0..4 {
            for key in &keys {
                let value = db.get(key.as_bytes()).unwrap();
                assert_eq!(value.as_deref(), Some(&[b'v'; 40][..]), "{kind}: {key}");
            }
        }
        let mean = started.elapsed().as_secs_f64() * 1e6 / (4 * keys.len()) as f64;
        means.push(format!("{kind} {mean:.1}us"));
    }
    eprintln!("mean re-read: {}", means.join(", "));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// WAL group commit under 8 concurrent writers, at one shard and at four:
/// each shard's log runs one fsync per group commit — its leader's — and
/// writers queued behind a syncing leader ride its next batch, so fsyncs
/// fall below puts while every acknowledged put replays after a reopen.
#[test]
fn wal_group_commit_shares_fsyncs() {
    for shards in [1, 4] {
        let d = temp_dir(&format!("group-commit-{shards}"));
        // 1 MiB of buffer holds all 1 600 puts, so the store never rotates
        // a memtable: no segment seal adds an fsync of its own.
        let opts = |d: &Path| {
            DbOptions::at_path(d)
                .page_size(4096)
                .buffer_capacity(1 << 20)
                .shards(shards)
        };
        let db = Db::open(opts(&d).wal_sync_each_append(true)).unwrap();
        let threads = 8;
        let per_thread = 200;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let db = &db;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let seq = t * per_thread + i;
                        db.put(format!("key{seq:06}").into_bytes(), vec![b'v'; 24])
                            .unwrap();
                    }
                });
            }
        });
        let puts = (threads * per_thread) as u64;
        let pipeline = db.pipeline_stats();
        assert_eq!(db.compaction_stats().flushes, 0, "the store never rotates");
        eprintln!(
            "{shards} shard(s): {} syncs / {} group commits / {puts} puts",
            pipeline.wal_syncs, pipeline.wal_group_commits
        );
        assert_eq!(
            pipeline.wal_syncs, pipeline.wal_group_commits,
            "one fsync per group commit"
        );
        assert_eq!(
            pipeline.wal_batched_appends, puts,
            "every put is logged once"
        );
        assert!(
            pipeline.wal_syncs < puts,
            "8 concurrent writers must share fsyncs: {} syncs for {puts} puts",
            pipeline.wal_syncs
        );
        drop(db);
        // Durability: every acknowledged put replays.
        let db = Db::open(opts(&d)).unwrap();
        for seq in 0..puts {
            assert!(
                db.get(format!("key{seq:06}").as_bytes()).unwrap().is_some(),
                "committed key {seq} lost"
            );
        }
        drop(db);
        std::fs::remove_dir_all(&d).unwrap();
    }
}
