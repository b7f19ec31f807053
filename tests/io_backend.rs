//! Raw-speed I/O backend invariants.
//!
//! The `O_DIRECT` backend exists to make latency figures
//! device-true, not to change what the engine does: every run page, every
//! manifest byte, and every `IoStats` counter must be identical whichever
//! backend serves the reads. The proptest below pins that — arbitrary
//! recorded op traces replay to byte-identical disk images and ledgers on
//! the buffered and direct backends — and the other tests cover the
//! fallback ladder, the backend-labeled telemetry, and WAL group commit
//! (one fsync per group commit, fewer fsyncs than puts under concurrent
//! writers).
//!
//! Direct I/O needs filesystem cooperation (tmpfs has none), so tests
//! that require an *active* direct backend check `Db::io_backend_info`
//! and skip gracefully — with a note — when the backend fell back.

use monkey::{Db, DbOptions, IoBackend, MergePolicy};
use monkey_bloom::hash::xxh64;
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("monkey-iobackend-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Small-tree options sized to push several merge cascades. Page size
/// 4096 keeps the direct backend eligible on both 512-byte and 4 KiB
/// logical block sizes.
fn options(dir: &Path, backend: IoBackend) -> DbOptions {
    shape(DbOptions::at_path(dir)).io_backend(backend)
}

/// The tree shape [`options`] gives a directory store, on any storage.
fn shape(opts: DbOptions) -> DbOptions {
    opts.page_size(4096)
        .buffer_capacity(16 * 1024)
        .size_ratio(3)
        .merge_policy(MergePolicy::Leveling)
        .uniform_filters(8.0)
        .shards(1)
}

/// Order-independent fingerprint of every byte under `dir`: chained
/// xxh64 over (relative path, length, content) in sorted path order.
fn fingerprint_dir(dir: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    let mut h = 0x4449_4f42_u64; // chain seed
    for path in files {
        let rel = path.strip_prefix(dir).unwrap();
        h = xxh64(rel.to_string_lossy().as_bytes(), h);
        let content = std::fs::read(&path).unwrap();
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
/// gets and one full range scan) on a store opened with `opts`, and
/// returns it with the active backend kind.
fn run_trace(opts: DbOptions, trace: &[(bool, u16, u8)]) -> (Replay, String) {
    let db = Db::open(opts).unwrap();
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

/// The tentpole invariant: buffered and direct replays of the same trace
/// are indistinguishable on disk, in the `IoStats` ledger and in their
/// answers, and an in-memory store of the same shape counts the same page
/// I/O and run seals and gives the same answers. (When the filesystem rejects `O_DIRECT`
/// the second store runs buffered via the fallback ladder and the
/// property still must hold — trivially.)
fn check_backend_parity(
    trace: &[(bool, u16, u8)],
    tag: &str,
) -> Result<(), proptest::TestCaseError> {
    let dir_buf = temp_dir(&format!("par-{tag}-buf"));
    let dir_dir = temp_dir(&format!("par-{tag}-dir"));
    let (buf, kind_buf) = run_trace(options(&dir_buf, IoBackend::Buffered), trace);
    let (direct, kind_dir) = run_trace(options(&dir_dir, IoBackend::Direct), trace);
    let (mem, kind_mem) = run_trace(shape(DbOptions::in_memory()), trace);
    proptest::prop_assert_eq!(kind_buf, "buffered");
    proptest::prop_assert_eq!(kind_mem, "mem");
    proptest::prop_assert_eq!(
        fingerprint_dir(&dir_buf),
        fingerprint_dir(&dir_dir),
        "disk image diverged across backends (direct ran as {})",
        kind_dir
    );
    proptest::prop_assert_eq!(
        &buf,
        &direct,
        "ledger or answers diverged across backends (direct ran as {})",
        kind_dir
    );
    // A memory store has no WAL, manifest or directory to sync; the rest
    // of its ledger, run seals included, is the file store's.
    let io = monkey_storage::IoSnapshot {
        wal_syncs: 0,
        manifest_syncs: 0,
        dir_syncs: 0,
        ..buf.io
    };
    let buf = Replay { io, ..buf };
    proptest::prop_assert_eq!(&buf, &mem, "memory store diverged from buffered");
    std::fs::remove_dir_all(&dir_buf).unwrap();
    std::fs::remove_dir_all(&dir_dir).unwrap();
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

/// Direct open on a supported filesystem activates (kind `direct`,
/// non-zero alignment) and round-trips data; on an unsupported one it
/// reports the fallback instead of failing.
#[test]
fn direct_backend_activates_or_reports_fallback() {
    let d = temp_dir("activate");
    let db = Db::open(options(&d, IoBackend::Direct)).unwrap();
    let info = db.io_backend_info();
    match &info.fallback {
        None => {
            assert_eq!(info.kind, "direct", "{info:?}");
            assert!(info.align == 512 || info.align == 4096, "{info:?}");
        }
        Some(reason) => {
            assert_eq!(info.kind, "buffered");
            eprintln!("skip: direct unavailable here ({reason}) — fallback path verified instead");
        }
    }
    for i in 0..3000 {
        db.put(format!("key{i:05}").into_bytes(), vec![b'v'; 40])
            .unwrap();
    }
    db.flush().unwrap();
    drop(db);
    // Reopen re-resolves the backend, and either backend must read back
    // what Direct wrote (the on-disk layout is backend-independent).
    for backend in [IoBackend::Buffered, IoBackend::Direct] {
        let db = Db::open(options(&d, backend)).unwrap();
        for i in (0..3000).step_by(13) {
            let got = db.get(format!("key{i:05}").as_bytes()).unwrap();
            assert_eq!(got.as_deref(), Some(&[b'v'; 40][..]), "{backend:?}");
        }
        drop(db);
    }
    std::fs::remove_dir_all(&d).unwrap();
}

/// A page size the device alignment cannot divide forces the fallback
/// ladder: the store still opens, runs buffered, and says why.
#[test]
fn unalignable_page_size_falls_back_to_buffered() {
    let d = temp_dir("unalignable");
    let db = Db::open(
        DbOptions::at_path(&d)
            .page_size(96)
            .buffer_capacity(2048)
            .io_backend(IoBackend::Direct),
    )
    .unwrap();
    let info = db.io_backend_info();
    assert_eq!(info.kind, "buffered");
    assert!(info.fallback.is_some(), "{info:?}");
    db.put(b"k".to_vec(), b"v".to_vec()).unwrap();
    db.flush().unwrap();
    assert_eq!(db.get(b"k").unwrap().unwrap().as_ref(), b"v");
    drop(db);
    std::fs::remove_dir_all(&d).unwrap();
}

/// Telemetry surfaces the backend identity: the `monkey_io_backend_info`
/// gauge and — when a requested direct backend fell back — a one-time
/// event with the reason.
#[test]
fn telemetry_labels_io_rows_with_active_backend() {
    let d = temp_dir("labels");
    let db = Db::open(options(&d, IoBackend::Direct).telemetry(true)).unwrap();
    for i in 0..3000 {
        db.put(format!("key{i:05}").into_bytes(), vec![b'v'; 40])
            .unwrap();
    }
    db.flush().unwrap();
    for i in (0..3000).step_by(11) {
        let _ = db.get(format!("key{i:05}").as_bytes()).unwrap();
    }
    let info = db.io_backend_info();
    let report = db.telemetry_report().expect("telemetry on");
    let prom = report.to_prometheus();
    assert!(
        prom.contains("# TYPE monkey_io_backend_info gauge"),
        "info gauge missing"
    );
    assert!(
        prom.contains(&format!("kind=\"{}\"", info.kind)),
        "gauge must carry the active kind"
    );
    if info.fallback.is_some() {
        assert!(
            report
                .events
                .iter()
                .any(|e| e.kind.name() == "io_backend_fallback"),
            "fallback must surface as a one-time event"
        );
    }
    drop(db);
    std::fs::remove_dir_all(&d).unwrap();
}

/// Re-reads through both backends return the 40-byte value each key was
/// written with, every time — the direct store's too, whether it runs
/// direct or fell back to buffered I/O (tmpfs). The re-reads are timed,
/// and the means printed: direct re-reads go to the device while buffered
/// ones come out of the page cache, but which is faster depends on the
/// host, so the timing asserts nothing.
#[test]
fn timed_re_reads_return_the_value_written_on_both_backends() {
    let mut means = Vec::new();
    for backend in [IoBackend::Buffered, IoBackend::Direct] {
        let dir = temp_dir(&format!("re-read-{backend:?}"));
        let db = Db::open(options(&dir, backend)).unwrap();
        for i in 0..3000 {
            db.put(format!("key{i:05}").into_bytes(), vec![b'v'; 40])
                .unwrap();
        }
        db.flush().unwrap();
        let keys: Vec<String> = (0..3000).step_by(5).map(|i| format!("key{i:05}")).collect();
        let started = std::time::Instant::now();
        for _ in 0..4 {
            for key in &keys {
                let value = db.get(key.as_bytes()).unwrap();
                assert_eq!(
                    value.as_deref(),
                    Some(&[b'v'; 40][..]),
                    "{backend:?}: {key}"
                );
            }
        }
        let mean = started.elapsed().as_secs_f64() * 1e6 / (4 * keys.len()) as f64;
        let fallback = match db.io_backend_info().fallback {
            Some(_) => " (fell back to buffered)",
            None => "",
        };
        means.push(format!("{backend:?}{fallback} {mean:.1}us"));
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    eprintln!("mean re-read: {}", means.join(", "));
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
