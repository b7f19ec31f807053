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
//!
//! They were recaptured a second time when pages took varint entry headers
//! and an offset array: the same entries fill fewer pages, so the pages
//! file, the page counts and the fence bits moved. What did not move is
//! pinned beside them by `GOLDEN_LOGICAL_FINGERPRINT`, which hashes the
//! runs' decoded entries with their ids and levels, the `MANIFEST` and the
//! WAL — captured before the encoding changed and equal after it.
//!
//! They were recaptured a third time when a page came to store its keys'
//! shared prefix once and a bounded scan stopped before the first page
//! whose fence is not below its bound: fewer pages again, and the same
//! logical fingerprint.
//!
//! They were recaptured a fourth time when the page checksum moved from
//! XXH64 to the vectorised `long_hash`: every page carries a different
//! eight-byte checksum, so the run files moved, and nothing else did — the
//! page and I/O counts in `GOLDEN_IO`, the `MANIFEST`, the WAL and the
//! logical fingerprint are as they were.

use monkey::{Db, DbOptions, MergePolicy};
use monkey_bloom::hash::xxh64;
use monkey_lsm::page::PageCursor;
use std::path::Path;

/// Directory fingerprint of the golden trace, captured by `capture_goldens`
/// (see the module docs for its four recaptures).
const GOLDEN_FINGERPRINT: u64 = 0xad08_00d1_cc59_4596;
/// IoStats ledger of the same run: (page_reads, page_writes, seeks, cache_hits).
const GOLDEN_IO: (u64, u64, u64, u64) = (796, 871, 40, 0);
/// Logical fingerprint of the same run (see [`logical_fingerprint`]):
/// what the store holds, not how its pages lay it out.
const GOLDEN_LOGICAL_FINGERPRINT: u64 = 0x73af_ba08_477d_2e72;

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

/// Fingerprint of a dropped store's content, blind to its page encoding:
/// every file outside `pages/` (the `MANIFEST`, the WAL segments) byte for
/// byte, then each run the `MANIFEST` lists — its id, its level and its
/// decoded entries (key, value, seq, kind) in order. A change to how pages
/// pack entries moves [`fingerprint_dir`] and leaves this where it is.
fn logical_fingerprint(dir: &Path) -> u64 {
    let mut h = 0x4c4f_4749_4341_4c00_u64; // chain seed, "LOGICAL"
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    for path in files {
        h = xxh64(path.file_name().unwrap().as_encoded_bytes(), h);
        h = xxh64(&std::fs::read(&path).unwrap(), h);
    }
    let disk = monkey_storage::Disk::file(dir.join("pages"), 256).unwrap();
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
    for line in manifest.lines().filter(|l| l.starts_with("run ")) {
        let fields: Vec<u64> = line
            .split(' ')
            .skip(1)
            .take(2)
            .map(|f| f.parse().unwrap())
            .collect();
        let [id, level] = fields[..] else {
            panic!("run line {line:?}");
        };
        h = xxh64(&[id.to_le_bytes(), level.to_le_bytes()].concat(), h);
        for p in 0..disk.run_pages(id).unwrap() {
            let mut cursor = PageCursor::new(disk.read_page(id, p).unwrap()).unwrap();
            while let Some(e) = cursor.next_entry().unwrap() {
                h = xxh64(&(e.key.len() as u64).to_le_bytes(), h);
                h = xxh64(&e.key, h);
                h = xxh64(&(e.value.len() as u64).to_le_bytes(), h);
                h = xxh64(&e.value, h);
                h = xxh64(&[&e.seq.to_le_bytes()[..], &[e.kind.to_byte()]].concat(), h);
            }
        }
    }
    h
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

/// The same trace, fingerprinted by content: the runs hold the same
/// entries under the same ids and levels, beside the same `MANIFEST` and
/// WAL, whatever the page encoding.
#[test]
fn shards1_logical_image_is_pinned() {
    let dir = temp_dir("logical");
    run_trace(&dir);
    let fp = logical_fingerprint(&dir);
    assert_eq!(
        fp, GOLDEN_LOGICAL_FINGERPRINT,
        "shards=1 logical image diverged (fingerprint 0x{fp:016x})"
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
        "GOLDEN logical fingerprint = 0x{:016x}",
        logical_fingerprint(&dir)
    );
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

/// `Db::telemetry()` is a facade over shard 0's hub; `shard_telemetry`
/// reaches the others.
#[test]
fn telemetry_facade_is_shard_zero() {
    let db = Db::open(
        DbOptions::in_memory()
            .buffer_capacity(4 << 10)
            .shards(3)
            .telemetry(true),
    )
    .unwrap();
    let facade = db.telemetry().expect("telemetry is on");
    let shard0 = db.shard_telemetry(0).expect("shard 0 exists");
    assert!(std::sync::Arc::ptr_eq(facade, shard0));
    assert_eq!(shard0.shard(), 0);
    assert_eq!(db.shard_telemetry(1).map(|t| t.shard()), Some(1));
    assert_eq!(db.shard_telemetry(2).map(|t| t.shard()), Some(2));
    assert!(db.shard_telemetry(3).is_none(), "only 3 shards exist");
}

/// Every shard's telemetry hub counts from the one instant the store took
/// before opening any shard, so the merged event timeline is one clock.
/// Reopening with WAL left to replay makes each shard's open slow, which is
/// what would pull per-shard clocks apart: shard 1 would start counting a
/// whole replay later than shard 0.
#[test]
fn shards_count_telemetry_time_from_one_origin() {
    let dir = temp_dir("one-clock");
    let opts = DbOptions::at_path(&dir)
        .page_size(1024)
        .buffer_capacity(8 << 20)
        .telemetry(true)
        .shards(2);
    {
        let db = Db::open(opts.clone()).unwrap();
        for i in 0..20_000usize {
            db.put(format!("key{i:06}").into_bytes(), vec![b'v'; 16])
                .unwrap();
        }
        // Dropped with everything still in the memtables: the reopen
        // replays both shards' WALs.
    }
    let db = Db::open(opts).unwrap();
    let (hub0, hub1) = (
        db.shard_telemetry(0).unwrap(),
        db.shard_telemetry(1).unwrap(),
    );
    let started = std::time::Instant::now();
    let (t0, t1) = (hub0.now_micros(), hub1.now_micros());
    let between = started.elapsed().as_micros() as u64;
    // Each reading truncates to whole microseconds: one of slack.
    assert!(
        t0.abs_diff(t1) <= between + 1,
        "shard clocks {t0}us and {t1}us read {between}us apart"
    );

    db.flush().unwrap(); // shard 0 flushes, then shard 1
    let report = db.telemetry_report().unwrap();
    let position = |shard: u32, name: &str| {
        report
            .events
            .iter()
            .position(|e| e.shard == shard && e.kind.name() == name)
            .unwrap_or_else(|| panic!("no {name} from shard {shard}"))
    };
    assert!(
        position(0, "flush_end") < position(1, "flush_start"),
        "the merged timeline puts shard 1's flush before shard 0's: {:?}",
        report.events
    );
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Replays the golden trace with telemetry on, then a fixed query phase
/// (hits, misses, two scans), and renders what the store says about itself
/// that does not depend on a clock: the values, and the shapes of the
/// Prometheus and JSON renderings.
fn views(shards: usize, tag: &str) -> (String, Vec<String>, String) {
    let dir = temp_dir(tag);
    let db = Db::open(golden_options(&dir).telemetry(true).shards(shards)).unwrap();
    for op in golden_trace() {
        match op {
            Op::Put(k, v) => db.put(k.into_bytes(), v).unwrap(),
            Op::Delete(k) => db.delete(k.into_bytes()).unwrap(),
            Op::Flush => db.flush().unwrap(),
        }
    }
    db.flush().unwrap();
    for i in (0..700usize).step_by(3) {
        db.get(format!("key{i:06}").as_bytes()).unwrap();
    }
    let scanned = db.range(b"key000100", Some(b"key000140")).unwrap().count();
    assert_eq!(scanned, 37);
    db.range(b"key000480", None).unwrap().count();
    let report = db.telemetry_report().unwrap();
    let mut values = format!(
        "{:?}\n{:?}\n{:?}\n",
        db.stats(),
        db.compaction_stats(),
        db.lookup_stats()
    );
    for l in &report.levels {
        values.push_str(&format!(
            "L{} runs={} entries={} {:?} {:?} allocated_fpr={:?}\n",
            l.level, l.runs, l.entries, l.lookups, l.io, l.allocated_fpr
        ));
    }
    for op in &report.ops {
        values.push_str(&format!("{}={} ", op.op, op.ops));
    }
    values.push_str(&format!(
        "\nshards.is_empty()={}\n",
        report.shards.is_empty()
    ));
    let shapes = (
        prometheus_shape(&report.to_prometheus()),
        json_shape(&report.to_json()),
    );
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
    (values, shapes.0, shapes.1)
}

/// Metric names with their label keys, values stripped, in first-seen order.
fn prometheus_shape(text: &str) -> Vec<String> {
    let mut seen: Vec<String> = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let series = line.rsplit_once(' ').unwrap().0;
        let shape = match series.split_once('{') {
            Some((name, labels)) => {
                let keys: Vec<&str> = labels
                    .trim_end_matches('}')
                    .split("\",")
                    .map(|kv| kv.split_once('=').unwrap().0)
                    .collect();
                format!("{name}{{{}}}", keys.join(","))
            }
            None => series.to_string(),
        };
        if !seen.contains(&shape) {
            seen.push(shape);
        }
    }
    seen
}

/// Object keys of a JSON document, values stripped, in first-seen order.
fn json_shape(text: &str) -> String {
    let mut seen: Vec<&str> = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find('"') {
        let tail = &rest[start + 1..];
        let end = tail.find('"').unwrap();
        if tail[end + 1..].starts_with(':') && !seen.contains(&&tail[..end]) {
            seen.push(&tail[..end]);
        }
        rest = &tail[end + 1..];
    }
    seen.join(" ")
}

/// What the store reports after [`views`] on one shard, clocks aside — as
/// the engine's single-shard path (its own `Core::stats` and
/// `Core::telemetry_report`, since deleted) reported it at the commit
/// before one path served every shard count. One shard through the merged
/// path must say the same, to the bit of every `f64`. The fence bits and
/// the per-level page I/O were recaptured when pages took varint entry
/// headers and again when they took a shared key prefix (see the module
/// docs); every other value is that commit's.
const ONE_SHARD_VALUES: &str = concat!(
    "DbStats { buffer_entries: 0, buffer_bytes: 0, buffer_capacity: 2048, levels: ",
    "[LevelStats { level: 1, runs: 1, entries: 70, bytes: 3098, capacity_bytes: ",
    "6144, filter_bits: 576, fpr_sum: 0.02141584712068372 }, LevelStats { level: ",
    "2, runs: 0, entries: 0, bytes: 0, capacity_bytes: 18432, filter_bits: 0, ",
    "fpr_sum: 0.0 }, LevelStats { level: 3, runs: 1, entries: 479, bytes: 22042, ",
    "capacity_bytes: 55296, filter_bits: 3840, fpr_sum: 0.02141584712068372 }], ",
    "disk_entries: 549, runs: 2, filter_bits: 4416, fence_bits: 10120, ",
    "expected_zero_result_lookup_ios: 0.04283169424136744, lookups: LookupStats { ",
    "key_hashes: 234, filter_probes: 303, filter_negatives: 140, ",
    "filter_false_positives: 3 }, immutable_entries: 0, pipeline: PipelineStats { ",
    "stalls: 0, stall_micros: 0, background_errors: 0, wal_group_commits: 1500, ",
    "wal_batched_appends: 1500, wal_syncs: 34 }, pipeline_gauges: PipelineGauges { ",
    "immutable_queue_depth: 0, stalled_writers: 0 } }\n",
    "CompactionStats { flushes: 34, merges: 32, entries_rewritten: 7005 }\n",
    "LookupStats { key_hashes: 234, filter_probes: 303, filter_negatives: 140, ",
    "filter_false_positives: 3 }\n",
    "L1 runs=1 entries=70 LevelLookupSnapshot { filter_probes: 159, ",
    "filter_negatives: 133, filter_false_positives: 3, lookup_page_reads: 26 } ",
    "LevelIoSnapshot { reads: 401, writes: 446, read_bytes: 102656, write_bytes: ",
    "114176, cache_hits: 0, cache_hit_bytes: 0 } allocated_fpr=0.02141584712068372\n",
    "L2 runs=0 entries=0 LevelLookupSnapshot { filter_probes: 0, filter_negatives: ",
    "0, filter_false_positives: 0, lookup_page_reads: 0 } LevelIoSnapshot { reads: ",
    "299, writes: 295, read_bytes: 76544, write_bytes: 75520, cache_hits: 0, ",
    "cache_hit_bytes: 0 } allocated_fpr=0.0\n",
    "L3 runs=1 entries=479 LevelLookupSnapshot { filter_probes: 144, ",
    "filter_negatives: 7, filter_false_positives: 0, lookup_page_reads: 137 } ",
    "LevelIoSnapshot { reads: 271, writes: 130, read_bytes: 69376, write_bytes: ",
    "33280, cache_hits: 0, cache_hit_bytes: 0 } allocated_fpr=0.02141584712068372\n",
    "get=234 put=1500 range=2 flush=34 cascade=34 merge=0 \n",
    "shards.is_empty()=true\n",
);

/// Metric names and label keys of the one-shard Prometheus rendering, from
/// the same commit, less the backend I/O latency and tracing rows the
/// renderer has stopped emitting since.
const ONE_SHARD_PROMETHEUS_SHAPE: &[&str] = &[
    "monkey_build_info{version}",
    "monkey_uptime_micros",
    "monkey_ops_total{op}",
    "monkey_op_latency_micros{op,quantile}",
    "monkey_op_latency_micros_max{op}",
    "monkey_op_latency_samples{op}",
    "monkey_io_backend_info{kind}",
    "monkey_level_filter_probes_total{level}",
    "monkey_level_filter_false_positives_total{level}",
    "monkey_level_lookup_page_reads_total{level}",
    "monkey_level_reads_total{level}",
    "monkey_level_writes_total{level}",
    "monkey_level_read_bytes_total{level}",
    "monkey_level_write_bytes_total{level}",
    "monkey_level_cache_hits_total{level}",
    "monkey_level_cache_hit_bytes_total{level}",
    "monkey_level_allocated_fpr{level}",
    "monkey_level_measured_fpr{level}",
    "monkey_level_fpr_drift{level}",
    "monkey_zero_result_lookup_ios{source}",
    "monkey_immutable_queue_depth",
    "monkey_stalled_writers",
    "monkey_events_dropped_total",
];

/// What a store of several shards adds, after `monkey_stalled_writers`.
const SHARD_ROWS_PROMETHEUS_SHAPE: &[&str] = &[
    "monkey_shard_gets_total{shard}",
    "monkey_shard_puts_total{shard}",
    "monkey_shard_ranges_total{shard}",
    "monkey_shard_disk_entries{shard}",
    "monkey_shard_buffer_bytes{shard}",
    "monkey_shard_immutable_queue_depth{shard}",
    "monkey_shard_stalled_writers{shard}",
    "monkey_shard_page_reads_total{shard}",
    "monkey_shard_page_writes_total{shard}",
    "monkey_shard_cache_hits_total{shard}",
];

/// Object keys of the one-shard JSON rendering, in first-seen order, less
/// the backend I/O latency and tracing keys the renderer has stopped
/// emitting since.
const ONE_SHARD_JSON_SHAPE: &str = concat!(
    "uptime_micros ops op sampled mean_micros p50_micros p90_micros p99_micros ",
    "p999_micros max_micros levels level runs entries filter_probes ",
    "filter_negatives filter_false_positives lookup_page_reads io reads writes ",
    "read_bytes write_bytes cache_hits cache_hit_bytes allocated_fpr measured_fpr ",
    "drifted unattributed_io ",
    "expected_zero_result_lookup_ios measured_zero_result_lookup_ios lookups ",
    "events seq ts_micros shard event fields records bytes merges deepest_level ",
    "duration_micros events_dropped immutable_queue_depth stalled_writers ",
    "io_backend kind",
);

/// The keys a per-shard breakdown adds (those not seen earlier in the
/// document), after `stalled_writers`.
const SHARD_ROWS_JSON_SHAPE: &str =
    " shards gets puts ranges disk_entries buffer_bytes page_reads page_writes";

#[test]
fn one_shard_through_the_merged_path_reports_what_the_single_path_did() {
    let (values, prometheus, json) = views(1, "views1");
    assert_eq!(values, ONE_SHARD_VALUES);
    assert_eq!(prometheus, ONE_SHARD_PROMETHEUS_SHAPE);
    assert_eq!(json, ONE_SHARD_JSON_SHAPE);
}

#[test]
fn four_shards_render_the_same_shape_plus_the_breakdown_rows() {
    let (values, prometheus, json) = views(4, "views4");
    // The two scans of the query phase are two range lookups, not eight.
    assert!(values.contains(" range=2 "), "{values}");
    assert!(values.ends_with("shards.is_empty()=false\n"));
    let mut expected: Vec<&str> = ONE_SHARD_PROMETHEUS_SHAPE.to_vec();
    let at = expected
        .iter()
        .position(|&row| row == "monkey_stalled_writers")
        .unwrap();
    expected.splice(at + 1..at + 1, SHARD_ROWS_PROMETHEUS_SHAPE.iter().copied());
    assert_eq!(prometheus, expected);
    assert_eq!(
        json,
        ONE_SHARD_JSON_SHAPE.replace(
            "stalled_writers",
            &format!("stalled_writers{SHARD_ROWS_JSON_SHAPE}")
        )
    );
}

/// The `SHARDS` meta is what says a root directory is split into shards.
/// With the meta gone the shard directories are still there to say so: the
/// store must refuse to open, not come up empty at the root with every
/// acknowledged write out of sight.
#[test]
fn shard_directories_without_their_meta_refuse_to_open() {
    let dir = temp_dir("lostmeta");
    {
        let db = Db::open(golden_options(&dir).shards(4)).unwrap();
        for i in 0..200usize {
            db.put(format!("key{i:06}").into_bytes(), b"acknowledged".to_vec())
                .unwrap();
        }
    }
    std::fs::remove_file(dir.join("SHARDS")).unwrap();
    for requested in [1, 4] {
        match Db::open(golden_options(&dir).shards(requested)) {
            Err(monkey::LsmError::Corruption(why)) => assert!(why.contains("SHARDS"), "{why}"),
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("opened a store whose shard count is lost"),
        }
    }
    assert!(
        !dir.join("MANIFEST").exists(),
        "nothing was laid down at the root"
    );
    // Put back, the store is whole again.
    std::fs::write(dir.join("SHARDS"), "4\n").unwrap();
    let db = Db::open(golden_options(&dir)).unwrap();
    assert_eq!(contents(&db).len(), 200);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `SHARDS` meta that disagrees with the shard directories on disk is
/// refused, not trusted: a smaller count would route keys away from the
/// shards that hold them, a larger one would open empty shards beside
/// them. Refusing creates nothing, and the store is whole once the meta
/// is put back.
#[test]
fn a_shards_meta_that_disagrees_with_the_directories_refuses_to_open() {
    let dir = temp_dir("badmeta");
    {
        let db = Db::open(golden_options(&dir).shards(4)).unwrap();
        for i in 0..400usize {
            db.put(format!("key{i:06}").into_bytes(), b"acknowledged".to_vec())
                .unwrap();
        }
    }
    let listing = |dir: &Path| {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
    };
    let before = listing(&dir);
    for meta in ["2\n", "44\n", "0\n", "1\n", "x\n", ""] {
        std::fs::write(dir.join("SHARDS"), meta).unwrap();
        match Db::open(golden_options(&dir).shards(4)) {
            Err(monkey::LsmError::Corruption(why)) => {
                assert!(why.contains("SHARDS"), "meta {meta:?}: {why}")
            }
            Err(other) => panic!("meta {meta:?}: wrong error: {other}"),
            Ok(db) => panic!(
                "meta {meta:?} opened with {} of 400 keys visible",
                contents(&db).len()
            ),
        }
        assert_eq!(listing(&dir), before, "meta {meta:?} created directories");
    }
    std::fs::write(dir.join("SHARDS"), "4\n").unwrap();
    let db = Db::open(golden_options(&dir)).unwrap();
    assert_eq!(contents(&db).len(), 400);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();

    // A crash during the first open, after shards 0 and 1 opened: the
    // later shard directories exist but are still empty. Nothing was
    // acknowledged, so the store reopens.
    let dir = temp_dir("halfopen");
    drop(Db::open(golden_options(&dir).shards(4)).unwrap());
    for shard in ["shard-002", "shard-003"] {
        std::fs::remove_dir_all(dir.join(shard)).unwrap();
        std::fs::create_dir(dir.join(shard)).unwrap();
    }
    let db = Db::open(golden_options(&dir)).unwrap();
    for shard in ["shard-002", "shard-003"] {
        let reopened = std::fs::read_dir(dir.join(shard)).unwrap().next();
        assert!(reopened.is_some(), "{shard} did not open");
    }
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
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
