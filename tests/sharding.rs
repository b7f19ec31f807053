//! Sharded-engine invariants.
//!
//! The contract that makes keyspace sharding safe to ship is that
//! `shards = 1` is not "mostly the same" as the pre-shard engine but
//! **bit-identical**: same pages file, same manifest, same WAL layout,
//! same `IoStats` ledger. Every figure, model-verification table, and
//! EXPERIMENTS.md number was produced by the single-shard code path, so
//! the facade must add exactly nothing to it. The goldens below were
//! first captured by running `golden_trace` against the engine as of PR 6
//! (commit f75d72e, before the shard router existed) and pin that
//! contract across future refactors.
//!
//! They were recaptured once, when the flush stopped writing the buffer
//! out as a run of its own before merging it into level 1: file names
//! carry run ids, and a flush that merges now allocates one id, not two,
//! so the same bytes sit in differently named files. On this trace the run
//! files are sha256-identical to the PR 6 engine's, the WAL segment is
//! byte-equal and `MANIFEST` differs in the two run ids only; the ledger
//! lost exactly the 216 pages the 24 merging flushes used to write and
//! read straight back (and their 24 seeks). What a fingerprint over file
//! names cannot see any more — that the tree's runs hold the same bytes —
//! `crates/lsm/tests/flush_identity.rs` checks by content, against a
//! reference built the old two-step way.

use monkey::{Db, DbOptions, MergePolicy};
use monkey_bloom::hash::xxh64;
use std::path::Path;

/// Directory fingerprint of the golden trace, captured by `capture_goldens`
/// (see the module docs for its one recapture).
const GOLDEN_FINGERPRINT: u64 = 0xdba2_e50d_1cb1_426c;
/// IoStats ledger of the same run: (page_reads, page_writes, seeks, cache_hits).
const GOLDEN_IO: (u64, u64, u64, u64) = (1210, 1321, 40, 0);

/// One deterministic op against the store.
enum Op {
    Put(String, Vec<u8>),
    Delete(String),
    Flush,
}

/// A fixed, deterministic op trace: interleaved puts (with overwrites),
/// deletes, and mid-trace flushes, sized to push a 2 KiB buffer through
/// several merge cascades at T = 3.
fn golden_trace() -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..1500usize {
        if i % 13 == 5 {
            ops.push(Op::Delete(format!("key{:06}", (i * 17) % 500)));
        } else {
            let fill = b"abcdefghijklmnopqrstuvw"[i % 23];
            ops.push(Op::Put(
                format!("key{:06}", (i * 31) % 500),
                format!("value-{i:04}-{}", (fill as char).to_string().repeat(i % 23)).into_bytes(),
            ));
        }
        if i % 311 == 310 {
            ops.push(Op::Flush);
        }
    }
    ops
}

fn golden_options(dir: &Path) -> DbOptions {
    DbOptions::at_path(dir)
        .page_size(256)
        .buffer_capacity(2048)
        .size_ratio(3)
        .merge_policy(MergePolicy::Leveling)
        .uniform_filters(8.0)
        // Pinned: bit-identity must hold even when the suite runs under a
        // MONKEY_SHARDS override.
        .shards(1)
}

/// Replays the trace, quiesces, and returns (directory fingerprint,
/// io ledger) with the store dropped cleanly.
fn run_trace(dir: &Path) -> (u64, monkey_storage::IoSnapshot) {
    let db = Db::open(golden_options(dir)).unwrap();
    for op in golden_trace() {
        match op {
            Op::Put(k, v) => db.put(k.into_bytes(), v).unwrap(),
            Op::Delete(k) => db.delete(k.into_bytes()).unwrap(),
            Op::Flush => db.flush().unwrap(),
        }
    }
    db.flush().unwrap();
    let io = db.io();
    drop(db);
    (fingerprint_dir(dir), io)
}

/// Order-independent-of-filesystem fingerprint of every byte under `dir`:
/// chained xxh64 over (relative path, length, content) in sorted path
/// order, recursing into shard subdirectories.
fn fingerprint_dir(dir: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
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
    let mut h = 0x5348_4152_4453_u64; // chain seed
    for path in files {
        let rel = path.strip_prefix(dir).unwrap();
        h = xxh64(rel.to_string_lossy().as_bytes(), h);
        let content = std::fs::read(&path).unwrap();
        h = xxh64(&(content.len() as u64).to_le_bytes(), h);
        h = xxh64(&content, h);
    }
    h
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "monkey-shard-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Prints the goldens. Run with
/// `cargo test -p monkey --test sharding -- --ignored capture --nocapture`
/// against a known-good engine to (re)capture.
/// The bit-identity contract: with `shards = 1` (the default), the engine
/// must lay down exactly the bytes the pre-shard engine did — pages file,
/// MANIFEST, WAL segments — and charge exactly the same IoStats.
#[test]
fn shards1_disk_image_bit_identical_to_pre_shard_engine() {
    let dir = temp_dir("bitident");
    let (fp, io) = run_trace(&dir);
    assert_eq!(
        fp, GOLDEN_FINGERPRINT,
        "shards=1 disk image diverged from the pre-shard engine (fingerprint 0x{fp:016x})"
    );
    assert_eq!(
        (io.page_reads, io.page_writes, io.seeks, io.cache_hits),
        GOLDEN_IO,
        "shards=1 IoStats ledger diverged from the pre-shard engine"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
#[ignore]
fn capture_goldens() {
    let dir = temp_dir("capture");
    let (fp, io) = run_trace(&dir);
    println!("GOLDEN fingerprint = 0x{fp:016x}");
    println!(
        "GOLDEN io: page_reads={} page_writes={} seeks={} cache_hits={}",
        io.page_reads, io.page_writes, io.seeks, io.cache_hits
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The live `(key, value)` content of a store, via a full range scan.
fn contents(db: &Db) -> Vec<(Vec<u8>, Vec<u8>)> {
    db.range(b"", None)
        .unwrap()
        .map(|kv| {
            let (k, v) = kv.unwrap();
            (k.to_vec(), v.to_vec())
        })
        .collect()
}

/// The golden trace must read back identically whether it ran on one
/// engine or hash-partitioned across four: same live keys, same values,
/// same global scan order.
#[test]
fn sharded_trace_is_logically_equivalent_to_single_shard() {
    let single_dir = temp_dir("equiv1");
    let sharded_dir = temp_dir("equiv4");
    let (single, sharded) = (
        Db::open(golden_options(&single_dir)).unwrap(),
        Db::open(golden_options(&sharded_dir).shards(4)).unwrap(),
    );
    for db in [&single, &sharded] {
        for op in golden_trace() {
            match op {
                Op::Put(k, v) => db.put(k.into_bytes(), v).unwrap(),
                Op::Delete(k) => db.delete(k.into_bytes()).unwrap(),
                Op::Flush => db.flush().unwrap(),
            }
        }
    }
    assert_eq!(contents(&single), contents(&sharded));
    for i in (0..500).step_by(7) {
        let key = format!("key{i:06}");
        assert_eq!(
            single.get(key.as_bytes()).unwrap(),
            sharded.get(key.as_bytes()).unwrap(),
            "{key}"
        );
    }
    assert_eq!(single.verify().is_ok(), sharded.verify().is_ok());
    drop(single);
    drop(sharded);
    std::fs::remove_dir_all(&single_dir).unwrap();
    std::fs::remove_dir_all(&sharded_dir).unwrap();
}

/// Crash a four-shard store with its shards in different pipeline states
/// — some settled into runs, some with updates only in their WAL — and
/// check that reopening replays every shard's WAL independently, and that
/// no key leaked into a foreign shard's files.
#[test]
fn multi_shard_crash_recovery_replays_every_wal() {
    let dir = temp_dir("crash");
    {
        let db = Db::open(golden_options(&dir).shards(4)).unwrap();
        for i in 0..600usize {
            db.put(
                format!("key{i:06}").into_bytes(),
                format!("settled-{i}").into_bytes(),
            )
            .unwrap();
        }
        db.flush().unwrap(); // every shard lands its runs
        for i in 600..750usize {
            // Unflushed tail: spread unevenly, so some shards rotate again
            // while others keep the entries WAL-only.
            db.put(
                format!("key{i:06}").into_bytes(),
                format!("tail-{i}").into_bytes(),
            )
            .unwrap();
        }
        for i in (0..100usize).step_by(3) {
            db.delete(format!("key{i:06}").into_bytes()).unwrap();
        }
        // Simulated crash: no clean shutdown, no queue drain, no WAL prune.
        std::mem::forget(db);
    }
    let db = Db::open(golden_options(&dir)).unwrap(); // SHARDS meta wins over the requested 1
    for i in 0..750usize {
        let key = format!("key{i:06}");
        let got = db.get(key.as_bytes()).unwrap();
        if i < 100 && i % 3 == 0 {
            assert_eq!(got, None, "{key} was deleted before the crash");
        } else if i < 600 {
            assert_eq!(got.unwrap().as_ref(), format!("settled-{i}").as_bytes());
        } else {
            assert_eq!(got.unwrap().as_ref(), format!("tail-{i}").as_bytes());
        }
    }
    let live = contents(&db);
    drop(db);
    // No cross-shard leakage: each shard directory is a complete
    // single-shard store; their keyspaces must be disjoint and union to
    // exactly the facade's live set.
    let mut union: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for shard in 0..4 {
        let shard_dir = dir.join(format!("shard-{shard:03}"));
        let shard_db = Db::open(golden_options(&shard_dir)).unwrap();
        union.extend(contents(&shard_db));
    }
    let before = union.len();
    union.sort();
    union.dedup_by(|a, b| a.0 == b.0);
    assert_eq!(union.len(), before, "a key appeared in two shards");
    assert_eq!(union, live);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// §4.4 budget split: a budget far below one page per shard floors at one
/// page each instead of collapsing to zero-capacity buffers.
#[test]
fn tiny_budget_across_sixteen_shards_floors_at_one_page() {
    let db = Db::open(
        DbOptions::in_memory()
            .page_size(256)
            .buffer_capacity(64) // 4 bytes per shard before the floor
            .size_ratio(3)
            .uniform_filters(8.0)
            .shards(16),
    )
    .unwrap();
    assert_eq!(
        db.stats().buffer_capacity,
        16 * 256,
        "each shard's buffer floors at one page"
    );
    for i in 0..2000usize {
        db.put(
            format!("key{i:06}").into_bytes(),
            format!("v{i}").into_bytes(),
        )
        .unwrap();
    }
    db.flush().unwrap();
    assert_eq!(contents(&db).len(), 2000);
    assert_eq!(db.verify().unwrap() + db.stats().buffer_entries, 2000);
}

/// A durable store's shard count is fixed at creation: the SHARDS meta
/// wins over whatever later opens request.
#[test]
fn shards_meta_pins_count_on_reopen() {
    let dir = temp_dir("meta");
    {
        let db = Db::open(golden_options(&dir).shards(3)).unwrap();
        for i in 0..120usize {
            db.put(
                format!("key{i:06}").into_bytes(),
                format!("first-{i}").into_bytes(),
            )
            .unwrap();
        }
    }
    assert_eq!(
        std::fs::read_to_string(dir.join("SHARDS")).unwrap().trim(),
        "3"
    );
    {
        // Reopen requesting the default single shard: the meta wins.
        let db = Db::open(golden_options(&dir)).unwrap();
        for i in 0..120usize {
            let got = db.get(format!("key{i:06}").as_bytes()).unwrap().unwrap();
            assert_eq!(got.as_ref(), format!("first-{i}").as_bytes());
        }
        for i in 120..200usize {
            db.put(
                format!("key{i:06}").into_bytes(),
                format!("second-{i}").into_bytes(),
            )
            .unwrap();
        }
    }
    {
        // Reopen requesting more shards: still pinned to 3.
        let db = Db::open(golden_options(&dir).shards(8)).unwrap();
        assert_eq!(contents(&db).len(), 200);
        assert!(
            !dir.join("shard-003").exists(),
            "no fourth shard may appear on reopen"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An existing store without a SHARDS meta is a pre-shard (single-shard)
/// layout; opening it with `shards > 1` must honor the bytes on disk, not
/// the request.
#[test]
fn existing_single_shard_layout_wins_over_requested_shards() {
    let dir = temp_dir("preshard");
    {
        let db = Db::open(golden_options(&dir)).unwrap();
        for i in 0..150usize {
            db.put(
                format!("key{i:06}").into_bytes(),
                format!("v{i}").into_bytes(),
            )
            .unwrap();
        }
    }
    {
        let db = Db::open(golden_options(&dir).shards(4)).unwrap();
        assert_eq!(contents(&db).len(), 150);
        db.put(b"new-key".to_vec(), b"new-value".to_vec()).unwrap();
        assert_eq!(db.get(b"new-key").unwrap().unwrap().as_ref(), b"new-value");
    }
    assert!(!dir.join("SHARDS").exists());
    assert!(!dir.join("shard-000").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Range scans across shards merge back into one globally key-ordered
/// stream that matches a reference model, bounds included.
#[test]
fn sharded_range_scan_merges_in_key_order() {
    let db = Db::open(
        DbOptions::in_memory()
            .page_size(256)
            .buffer_capacity(1024)
            .size_ratio(3)
            .uniform_filters(8.0)
            .shards(5),
    )
    .unwrap();
    let mut model = std::collections::BTreeMap::new();
    for i in 0..900usize {
        let k = format!("key{:06}", (i * 37) % 700);
        let v = format!("value-{i}");
        db.put(k.clone().into_bytes(), v.clone().into_bytes())
            .unwrap();
        model.insert(k.into_bytes(), v.into_bytes());
    }
    for i in (0..700usize).step_by(11) {
        let k = format!("key{i:06}").into_bytes();
        db.delete(k.clone()).unwrap();
        model.remove(&k);
    }
    for (lo, hi) in [
        (&b"key000100"[..], Some(&b"key000400"[..])),
        (b"", None),
        (b"key000650", None),
        (b"key000300", Some(&b"key000300"[..])), // empty interval
    ] {
        let got: Vec<(Vec<u8>, Vec<u8>)> = db
            .range(lo, hi)
            .unwrap()
            .map(|kv| {
                let (k, v) = kv.unwrap();
                (k.to_vec(), v.to_vec())
            })
            .collect();
        let want: Vec<(Vec<u8>, Vec<u8>)> = model
            .range((
                std::ops::Bound::Included(lo.to_vec()),
                hi.map_or(std::ops::Bound::Unbounded, |h| {
                    std::ops::Bound::Excluded(h.to_vec())
                }),
            ))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(got, want, "range {lo:?}..{hi:?}");
    }
}

/// The merged telemetry report carries a per-shard breakdown on a
/// multi-shard store — and none on a single-shard one, whose renderings
/// must stay byte-identical to the pre-shard engine's.
#[test]
fn sharded_telemetry_report_has_per_shard_breakdown() {
    let db = Db::open(
        DbOptions::in_memory()
            .page_size(256)
            .buffer_capacity(1024)
            .size_ratio(3)
            .uniform_filters(8.0)
            .telemetry(true)
            .shards(2),
    )
    .unwrap();
    for i in 0..400usize {
        db.put(
            format!("key{i:06}").into_bytes(),
            format!("v{i}").into_bytes(),
        )
        .unwrap();
    }
    db.flush().unwrap();
    for i in 0..200usize {
        db.get(format!("key{i:06}").as_bytes()).unwrap();
    }
    db.range(b"", None).unwrap().count();
    let report = db.telemetry_report().unwrap();
    assert_eq!(report.shards.len(), 2);
    assert_eq!(
        report.shards.iter().map(|s| s.puts).sum::<u64>(),
        400,
        "every put lands on exactly one shard"
    );
    assert_eq!(report.shards.iter().map(|s| s.gets).sum::<u64>(), 200);
    assert_eq!(
        report.shards.iter().map(|s| s.disk_entries).sum::<u64>(),
        report.levels.iter().map(|l| l.entries).sum::<u64>()
    );
    assert!(
        report.shards.iter().all(|s| s.puts > 0),
        "the router spreads keys across both shards"
    );
    let prom = report.to_prometheus();
    assert!(prom.contains("monkey_shard_puts_total"));
    assert!(report.pretty().contains("per-shard breakdown"));

    let single = Db::open(
        DbOptions::in_memory()
            .page_size(256)
            .buffer_capacity(1024)
            .telemetry(true)
            .shards(1),
    )
    .unwrap();
    single.put(b"k".to_vec(), b"v".to_vec()).unwrap();
    let report = single.telemetry_report().unwrap();
    assert!(report.shards.is_empty());
    assert!(!report.to_prometheus().contains("monkey_shard_"));
    assert!(!report.to_json().contains("\"shards\""));
}

/// Arbitrary recorded op traces: replaying on `shards = 1` is fully
/// deterministic (identical disk image both runs — the property the
/// pinned golden relies on), and hash-partitioning the same trace across
/// three shards preserves the logical content.
fn check_trace_determinism_and_equivalence(
    trace: &[(bool, u16, u8)],
    tag: &str,
) -> Result<(), proptest::TestCaseError> {
    let dirs = [
        temp_dir(&format!("prop-{tag}-a")),
        temp_dir(&format!("prop-{tag}-b")),
        temp_dir(&format!("prop-{tag}-c")),
    ];
    let mut images = Vec::new();
    let mut scans = Vec::new();
    for (which, dir) in dirs.iter().enumerate() {
        let shards = if which == 2 { 3 } else { 1 };
        let db = Db::open(golden_options(dir).shards(shards)).unwrap();
        for &(is_put, k, v) in trace {
            let key = format!("key{:05}", k % 400).into_bytes();
            if is_put {
                db.put(key, format!("value-{v:03}").into_bytes()).unwrap();
            } else {
                db.delete(key).unwrap();
            }
        }
        db.flush().unwrap();
        scans.push(contents(&db));
        drop(db);
        images.push(fingerprint_dir(dir));
        std::fs::remove_dir_all(dir).unwrap();
    }
    proptest::prop_assert_eq!(
        images[0],
        images[1],
        "shards=1 replay must be byte-deterministic"
    );
    proptest::prop_assert_eq!(&scans[0], &scans[1]);
    proptest::prop_assert_eq!(&scans[0], &scans[2], "sharded content diverged");
    Ok(())
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    #[test]
    fn recorded_traces_are_deterministic_and_shard_invariant(
        trace in proptest::collection::vec(
            (proptest::prelude::any::<bool>(), proptest::prelude::any::<u16>(), proptest::prelude::any::<u8>()),
            1..250,
        ),
        salt in proptest::prelude::any::<u32>(),
    ) {
        check_trace_determinism_and_equivalence(&trace, &format!("{salt:08x}"))?;
    }
}
