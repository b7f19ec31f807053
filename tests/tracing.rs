//! Causal tracing: span propagation across put → WAL group commit →
//! flush → cascade, the multi-shard merged timeline, flight-recorder
//! decode after a simulated crash, and sampler determinism.

use monkey::{
    Db, DbOptions, DbOptionsExt, FlightRecorder, MergePolicy, RecorderRecord, Span, SpanKind,
};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

fn dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("monkey-tracing-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Directory-backed options with telemetry + tracing on and the sampler
/// at period 1, so every operation leaves a span.
fn opts(d: &PathBuf) -> DbOptions {
    DbOptions::at_path(d)
        .page_size(512)
        .buffer_capacity(2048)
        .size_ratio(2)
        .merge_policy(MergePolicy::Leveling)
        .monkey_filters(8.0)
        .telemetry(true)
        .tracing(true)
        .trace_sample_period(1)
}

/// Copy a live store's tree, tolerating files that vanish mid-copy: the
/// engine retires obsolete run files on a background thread, and a crash
/// snapshot can legitimately miss one (the manifest stopped referencing
/// the run before its deferred deletion fired, so recovery never asks
/// for it).
fn copy_tree(from: &PathBuf, to: &PathBuf) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        let Ok(file_type) = entry.file_type() else {
            continue;
        };
        if file_type.is_dir() {
            copy_tree(&entry.path(), &dst);
        } else if let Err(e) = std::fs::copy(entry.path(), dst) {
            assert_eq!(e.kind(), std::io::ErrorKind::NotFound, "copy failed: {e}");
        }
    }
}

/// The highest-numbered `wal-NNNNNN.log` segment id in `d`.
fn newest_wal_segment(d: &PathBuf) -> u64 {
    std::fs::read_dir(d)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            name.strip_prefix("wal-")?
                .strip_suffix(".log")?
                .parse()
                .ok()
        })
        .max()
        .expect("no WAL segment on disk")
}

/// The tentpole contract, under four shards: a put span links to the WAL
/// group-commit batch that made it durable and the memtable generation
/// that absorbed it; a flush span carries that generation; a cascade span
/// is parented under the flush that triggered it and lists its input
/// runs. The merged report interleaves all four shards.
#[test]
fn put_spans_link_group_commit_flush_and_cascade_across_shards() {
    let d = dir("prop");
    let db = Db::open(opts(&d).shards(4)).unwrap();
    for i in 0..1200 {
        db.put(format!("key{i:05}").into_bytes(), vec![b'v'; 24])
            .unwrap();
    }
    let report = db.telemetry_report().expect("telemetry is on");
    assert!(report.spans_started > 0);
    // The strict link checks below assume no ring eviction; the workload
    // is sized to stay under each shard's span capacity.
    assert_eq!(report.spans_dropped, 0);

    let puts: Vec<&Span> = report
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Put)
        .collect();
    assert!(!puts.is_empty(), "period-1 sampling must record put spans");

    // Every put names the WAL commit batch that carried it (1-based; 0
    // would mean "no WAL", impossible on a directory-backed store) and
    // the generation of the memtable that absorbed it.
    let mut commits: HashMap<u32, HashSet<u64>> = HashMap::new();
    for s in report
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::WalCommit)
    {
        assert_eq!(s.parent, 0, "group commits are roots");
        commits.entry(s.shard).or_default().insert(s.links[0]);
    }
    for p in &puts {
        let (wal_batch, generation) = (p.links[0], p.links[1]);
        assert!(wal_batch >= 1, "put span missing its WAL commit link");
        assert!(generation >= 1, "put span missing its generation link");
        assert!(
            commits[&p.shard].contains(&wal_batch),
            "put on shard {} links commit {wal_batch}, but that shard recorded no such \
             group-commit span",
            p.shard
        );
    }

    // Flush spans drain generations that puts actually wrote into, and
    // every cascade hangs off the flush that triggered it, on the same
    // generation, with its input runs recorded.
    let put_generations: HashMap<u32, HashSet<u64>> =
        puts.iter().fold(HashMap::new(), |mut m, p| {
            m.entry(p.shard).or_default().insert(p.links[1]);
            m
        });
    let flushes: HashMap<(u32, u64), &Span> = report
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Flush)
        .map(|s| ((s.shard, s.id), s))
        .collect();
    assert!(!flushes.is_empty(), "the workload must have flushed");
    for f in flushes.values() {
        assert!(
            put_generations[&f.shard].contains(&f.links[0]),
            "flush on shard {} drained generation {} that no recorded put wrote",
            f.shard,
            f.links[0]
        );
    }
    let cascades: Vec<&Span> = report
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Cascade)
        .collect();
    assert!(!cascades.is_empty());
    for c in &cascades {
        let flush = flushes
            .get(&(c.shard, c.parent))
            .unwrap_or_else(|| panic!("cascade parent {} is not a flush span", c.parent));
        assert_eq!(
            c.links[0], flush.links[0],
            "cascade on a different generation"
        );
        let merges = c.links[1];
        let input_runs = &c.links[4..];
        assert!(
            merges == 0 || !input_runs.is_empty(),
            "a cascade that merged must record the lineage of its input runs"
        );
    }
    assert!(
        cascades.iter().any(|c| !c.links[4..].is_empty()),
        "1200 entries through a 2 KiB buffer must cascade at least once"
    );

    // Satellite: the merged timeline covers all four shards, ordered by
    // timestamp, and events carry their originating shard.
    let span_shards: BTreeSet<u32> = report.spans.iter().map(|s| s.shard).collect();
    assert_eq!(span_shards.into_iter().collect::<Vec<_>>(), [0, 1, 2, 3]);
    assert!(report
        .spans
        .windows(2)
        .all(|w| w[0].start_micros <= w[1].start_micros));
    let event_shards: BTreeSet<u32> = report.events.iter().map(|e| e.shard).collect();
    assert!(event_shards.len() >= 2, "events must be shard-tagged");
    assert!(report
        .events
        .windows(2)
        .all(|w| (w[0].ts_micros, w[0].seq) <= (w[1].ts_micros, w[1].seq)));

    std::fs::remove_dir_all(&d).unwrap();
}

/// Satellite: `Db::telemetry()` is a facade over shard 0's hub;
/// `shard_telemetry` reaches the others.
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
    assert!(Arc::ptr_eq(facade, shard0));
    assert_eq!(shard0.shard(), 0);
    assert_eq!(db.shard_telemetry(1).map(|t| t.shard()), Some(1));
    assert_eq!(db.shard_telemetry(2).map(|t| t.shard()), Some(2));
    assert!(db.shard_telemetry(3).is_none(), "only 3 shards exist");
}

/// A segment written before a simulated crash decodes to a timeline
/// consistent with the WAL/manifest state recovery then replays: every
/// recorded flush pruned the WAL strictly below the newest segment still
/// on disk, and reopening the clone loses nothing the spans claim
/// durable.
#[test]
fn flight_recorder_decodes_after_simulated_crash() {
    let d = dir("flight");
    let crashed = dir("flight-crash");
    {
        // Pinned single-shard (a MONKEY_SHARDS override would scatter the
        // recorder segments across shard subdirectories), background
        // pipeline on so the crash parks acknowledged writes in the queue.
        let db = Db::open(
            opts(&d)
                .shards(1)
                .background_compaction(true)
                .max_immutable_memtables(16),
        )
        .unwrap();
        for i in 0..600 {
            db.put(format!("key{i:05}").into_bytes(), vec![b'f'; 24])
                .unwrap();
        }
        // Drain the pipeline so flush + cascade spans hit the recorder,
        // then freeze it and keep writing: the tail of the timeline now
        // describes work the tree on disk never absorbed.
        db.flush().unwrap();
        db.pause_compaction();
        for i in 600..900 {
            db.put(format!("key{i:05}").into_bytes(), vec![b'f'; 24])
                .unwrap();
        }
        copy_tree(&d, &crashed);
        // The original handle now drains cleanly; only the clone crashed.
    }

    // Decode the clone before recovery touches it.
    let flight = FlightRecorder::decode_dir(&crashed);
    assert!(
        flight.segments >= 1,
        "the crash must leave recorder segments"
    );
    assert!(!flight.records.is_empty());
    let spans: Vec<&Span> = flight
        .records
        .iter()
        .filter_map(|r| match r {
            RecorderRecord::Span(s) => Some(s),
            RecorderRecord::Event(_) => None,
        })
        .collect();
    let flushes: Vec<&&Span> = spans.iter().filter(|s| s.kind == SpanKind::Flush).collect();
    assert!(!flushes.is_empty(), "pre-crash flushes must be recorded");
    assert!(spans.iter().any(|s| s.kind == SpanKind::Put));

    // Correlation invariant: a flush span's third link is the sealed WAL
    // segment it let the engine prune, +1 (0 = none). Pruned segments are
    // gone, so every recorded seal point sits strictly below the newest
    // segment recovery will replay.
    let newest = newest_wal_segment(&crashed);
    for f in &flushes {
        // `seal_plus_one <= newest` ⟺ sealed segment < newest (and 0, "no
        // WAL sealed", is trivially consistent).
        let seal_plus_one = f.links[2];
        assert!(
            seal_plus_one <= newest,
            "flush span claims WAL segment {} sealed, but the newest on disk is {newest}",
            seal_plus_one.saturating_sub(1)
        );
    }
    // Cascades recorded before the crash reference flush spans also in
    // the recorder — lineage survives the crash.
    let flush_ids: HashSet<u64> = flushes.iter().map(|f| f.id).collect();
    for c in spans.iter().filter(|s| s.kind == SpanKind::Cascade) {
        assert!(flush_ids.contains(&c.parent));
    }

    // Recovery agrees with the recorded timeline: nothing acknowledged is
    // lost, including the writes parked past the last recorded flush.
    let db = Db::open(opts(&crashed)).unwrap();
    for i in 0..900 {
        assert!(
            db.get(format!("key{i:05}").as_bytes()).unwrap().is_some(),
            "key{i} lost in the crash"
        );
    }
    drop(db);
    std::fs::remove_dir_all(&d).unwrap();
    std::fs::remove_dir_all(&crashed).unwrap();
}

/// A delete is a write like any other: its span is a put span carrying the
/// same links — the WAL group commit that made the tombstone durable and
/// the memtable generation it landed in — so a traced delete can be joined
/// to its commit and its flush exactly as a put can.
#[test]
fn a_traced_delete_links_its_commit_and_generation_like_a_put() {
    let d = dir("delete");
    let db = Db::open(opts(&d).shards(1)).unwrap();
    db.put(b"doomed".to_vec(), b"v".to_vec()).unwrap();
    db.delete(b"doomed".to_vec()).unwrap();
    let report = db.telemetry_report().unwrap();
    let writes: Vec<&Span> = report
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Put)
        .collect();
    let [put, delete] = writes[..] else {
        panic!("one span per write, got {}", writes.len());
    };
    assert_eq!(put.links.len(), 2);
    assert_eq!(delete.links.len(), 2);
    let commits: Vec<u64> = report
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::WalCommit)
        .map(|s| s.links[0])
        .collect();
    assert!(put.links[0] >= 1 && delete.links[0] == put.links[0] + 1);
    assert!(commits.contains(&delete.links[0]), "{commits:?}");
    assert_eq!(delete.links[1], put.links[1], "same memtable generation");
    assert_eq!(report.ops.iter().find(|o| o.op == "put").unwrap().ops, 2);
    drop(db);
    std::fs::remove_dir_all(&d).unwrap();
}

/// Sampling is a deterministic modulus, not a coin flip: period 1 records
/// every put, period 4 exactly a quarter of them.
#[test]
fn sampler_is_deterministic() {
    for (period, expected) in [(1u64, 64u64), (4, 16)] {
        let db = Db::open(
            DbOptions::in_memory()
                .buffer_capacity(1 << 20) // never flushes: puts only
                .telemetry(true)
                .tracing(true)
                .trace_sample_period(period),
        )
        .unwrap();
        for i in 0..64 {
            db.put(format!("key{i:05}").into_bytes(), vec![b's'; 16])
                .unwrap();
        }
        let report = db.telemetry_report().unwrap();
        let puts = report
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Put)
            .count() as u64;
        assert_eq!(
            puts, expected,
            "period {period} must sample exactly {expected} of 64 puts"
        );
        // No WAL on an in-memory store: the commit link is 0, the
        // generation link is live.
        for s in report.spans.iter().filter(|s| s.kind == SpanKind::Put) {
            assert_eq!(s.links[0], 0);
            assert!(s.links[1] >= 1);
        }
        assert_eq!(report.spans_dropped, 0);
        assert_eq!(report.recorder_bytes, 0, "no recorder without a directory");
    }
}

/// Tracing keeps working across an injected mid-cascade storage fault:
/// the failed flush surfaces an error (its span is abandoned, never
/// finished), and once the fault clears the next flush + cascade record
/// normally.
#[test]
fn tracing_survives_injected_cascade_fault() {
    use monkey_storage::{Backend, Disk, FaultKind, FlakyBackend, MemBackend};
    let backend = FlakyBackend::new(MemBackend::new(), FaultKind::Writes);
    let disk = Disk::with_backend(backend.clone() as Arc<dyn Backend>, 256, None);
    let opts = DbOptions::in_memory()
        .page_size(256)
        .buffer_capacity(512)
        .size_ratio(2)
        .merge_policy(MergePolicy::Leveling)
        .uniform_filters(8.0)
        .telemetry(true)
        .tracing(true)
        .trace_sample_period(1);
    let db = Db::open_with_disk(opts, disk).unwrap();

    for i in 0..200 {
        db.put(format!("k{i:04}").into_bytes(), vec![b'v'; 32])
            .unwrap();
    }
    backend.arm(0);
    let mut saw_error = false;
    for i in 200..400 {
        if db
            .put(format!("k{i:04}").into_bytes(), vec![b'v'; 32])
            .is_err()
        {
            saw_error = true;
            break;
        }
    }
    assert!(saw_error, "an armed write fault must surface");
    backend.disarm();

    let before = db.telemetry_report().unwrap();
    let flushes_before = before
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Flush)
        .count();

    // The engine and the tracer both keep going once the fault clears.
    for i in 400..700 {
        db.put(format!("k{i:04}").into_bytes(), vec![b'v'; 32])
            .unwrap();
    }
    let after = db.telemetry_report().unwrap();
    let flushes_after = after
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Flush)
        .count();
    assert!(
        flushes_after > 0 || flushes_before > 0,
        "post-fault flushes must trace"
    );
    assert!(
        after.spans.iter().any(|s| s.kind == SpanKind::Put),
        "put spans must keep flowing after the fault"
    );
    // Abandoned spans (the failed flush) are started but never finished:
    // started strictly exceeds what the rings + drains could account for
    // only via abandonment, which must not wedge the id allocator.
    assert!(after.spans_started > before.spans_started);
}
