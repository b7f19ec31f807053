//! Concurrency stress: readers, writers, and scanners hammering the store
//! while flushes and merge cascades run — correctness under the engine's
//! shared-read / exclusive-write locking.

use monkey::{Db, DbOptions, DbOptionsExt, MergePolicy};
use std::sync::atomic::{AtomicBool, Ordering};

fn options(policy: MergePolicy) -> DbOptions {
    DbOptions::in_memory()
        .page_size(512)
        .buffer_capacity(2048)
        .size_ratio(3)
        .merge_policy(policy)
        .monkey_filters(8.0)
}

#[test]
fn readers_never_see_torn_or_stale_forever() {
    for policy in [MergePolicy::Leveling, MergePolicy::Tiering] {
        let db = Db::open(options(policy)).unwrap();
        // Seed: every key holds a self-describing value.
        for i in 0..500u32 {
            db.put(
                format!("k{i:04}").into_bytes(),
                format!("gen0-{i}").into_bytes(),
            )
            .unwrap();
        }
        let stop = AtomicBool::new(false);
        let (db_ref, stop_ref) = (&db, &stop);
        std::thread::scope(|scope| {
            // Writer: rolls every key through generations.
            scope.spawn(move || {
                for gen in 1..=8u32 {
                    for i in 0..500u32 {
                        db_ref
                            .put(
                                format!("k{i:04}").into_bytes(),
                                format!("gen{gen}-{i}").into_bytes(),
                            )
                            .unwrap();
                    }
                }
                stop_ref.store(true, Ordering::Release);
            });
            // Readers: any observed value must be a valid generation of
            // its own key (no mixing keys, no partial writes).
            for reader in 0..3u32 {
                scope.spawn(move || {
                    let mut i = reader * 131;
                    while !stop_ref.load(Ordering::Acquire) {
                        i = (i + 37) % 500;
                        let key = format!("k{i:04}");
                        let got = db_ref
                            .get(key.as_bytes())
                            .unwrap()
                            .expect("key always present");
                        let text = String::from_utf8(got.to_vec()).unwrap();
                        let (gen, idx) = text
                            .strip_prefix("gen")
                            .and_then(|r| r.split_once('-'))
                            .expect("well-formed value");
                        assert!(gen.parse::<u32>().unwrap() <= 8);
                        assert_eq!(idx.parse::<u32>().unwrap(), i, "value belongs to its key");
                    }
                });
            }
            // Scanner: ordered, duplicate-free, always exactly 500 keys.
            scope.spawn(move || {
                while !stop_ref.load(Ordering::Acquire) {
                    let keys: Vec<Vec<u8>> = db_ref
                        .range(b"", None)
                        .unwrap()
                        .map(|kv| kv.unwrap().0.to_vec())
                        .collect();
                    assert_eq!(keys.len(), 500, "{policy:?}: snapshot sees all keys");
                    assert!(keys.windows(2).all(|w| w[0] < w[1]), "ordered, no dups");
                }
            });
        });
        // Terminal state: everything at the final generation.
        for i in 0..500u32 {
            let got = db.get(format!("k{i:04}").as_bytes()).unwrap().unwrap();
            assert_eq!(got.as_ref(), format!("gen8-{i}").as_bytes());
        }
    }
}

#[test]
fn concurrent_distinct_writers_via_external_mutex_pattern() {
    // The Db serializes writers internally; many threads writing disjoint
    // key spaces must all land, on one shard or four, flushing inline or
    // on the background worker.
    for (shards, background) in [(1, false), (1, true), (4, false), (4, true)] {
        let opts = options(MergePolicy::Leveling).shards(shards);
        let db = Db::open(opts.background_compaction(background)).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let db = &db;
                scope.spawn(move || {
                    for i in 0..400u32 {
                        db.put(format!("t{t}-k{i:05}").into_bytes(), vec![b'v'; 24])
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(db.range(b"", None).unwrap().count(), 1600);
        let stats = db.stats();
        assert!(background || stats.disk_entries + stats.buffer_entries == 1600);
        db.flush().unwrap();
        assert_eq!(db.stats().disk_entries, 1600, "{shards} shard(s)");
    }
}

#[test]
fn readers_progress_while_merge_cascade_is_in_flight() {
    use monkey_storage::{Disk, FaultKind, FlakyBackend, IoBackend, MemFs};
    let slow = FlakyBackend::new(MemFs::new(), FaultKind::All);
    let disk = Disk::file_on(slow.clone(), "runs", 512, IoBackend::Buffered, None).unwrap();
    let db = Db::open_with_disk(
        DbOptions::in_memory()
            .page_size(512)
            .buffer_capacity(2048)
            .size_ratio(3)
            .merge_policy(MergePolicy::Leveling)
            .background_compaction(true)
            .max_immutable_memtables(8)
            .monkey_filters(8.0),
        disk,
    )
    .unwrap();
    // Seed a multi-level tree at full device speed.
    for i in 0..600u32 {
        db.put(format!("k{i:04}").into_bytes(), vec![b'v'; 24])
            .unwrap();
    }
    db.flush().unwrap();
    // Park several frozen memtables, then let the worker drain them
    // against a slow disk: each flush plus its leveling cascade now costs
    // milliseconds of simulated device time per run written.
    db.pause_compaction();
    for i in 600..900u32 {
        db.put(format!("k{i:04}").into_bytes(), vec![b'v'; 24])
            .unwrap();
    }
    assert!(db.stats().pipeline_gauges.immutable_queue_depth > 0);
    slow.set_write_delay_micros(2_000);
    db.resume_compaction();
    // While the cascades are in flight, point lookups keep completing:
    // they probe an immutable version snapshot and never wait for a merge.
    let mut reads_during_merge = 0u64;
    let mut i = 0u32;
    while db.stats().pipeline_gauges.immutable_queue_depth > 0 {
        let key = format!("k{:04}", i % 900);
        assert!(db.get(key.as_bytes()).unwrap().is_some(), "{key}");
        reads_during_merge += 1;
        i += 1;
    }
    assert!(
        reads_during_merge >= 50,
        "only {reads_during_merge} lookups completed while the worker held \
         the merge — reads are blocking on compaction"
    );
    slow.set_write_delay_micros(0);
    db.flush().unwrap();
    assert_eq!(db.range(b"", None).unwrap().count(), 900);
}

#[test]
fn writers_stall_at_the_backpressure_bound_and_recover() {
    use monkey_storage::{Disk, FaultKind, FlakyBackend, IoBackend, MemFs};
    let slow = FlakyBackend::new(MemFs::new(), FaultKind::All);
    let disk = Disk::file_on(slow.clone(), "runs", 512, IoBackend::Buffered, None).unwrap();
    let db = Db::open_with_disk(
        DbOptions::in_memory()
            .page_size(512)
            .buffer_capacity(1024)
            .size_ratio(3)
            .merge_policy(MergePolicy::Leveling)
            .background_compaction(true)
            .max_immutable_memtables(1)
            .monkey_filters(8.0),
        disk,
    )
    .unwrap();
    // A queue bound of one plus a slow device: rotations outpace the
    // worker, so puts must take the stall path and block until a flush
    // makes room.
    slow.set_write_delay_micros(1_000);
    for i in 0..400u32 {
        db.put(format!("k{i:04}").into_bytes(), vec![b'v'; 24])
            .unwrap();
    }
    let stalled = db.stats().pipeline;
    assert!(stalled.stalls > 0, "writer never hit backpressure");
    assert!(stalled.stall_micros > 0, "stall time is accounted");
    // Recovery: a fast device again — the backlog drains and writes flow.
    slow.set_write_delay_micros(0);
    db.flush().unwrap();
    for i in 400..500u32 {
        db.put(format!("k{i:04}").into_bytes(), vec![b'v'; 24])
            .unwrap();
    }
    db.flush().unwrap();
    let s = db.stats();
    let p = s.pipeline;
    assert_eq!(s.pipeline_gauges.immutable_queue_depth, 0);
    assert_eq!(p.background_errors, 0);
    assert!(p.stalls >= stalled.stalls, "counters are monotonic");
    assert_eq!(db.range(b"", None).unwrap().count(), 500);
}
