//! I/O backend benchmarks: what the `O_DIRECT` backend costs and what WAL
//! group commit buys on real files.
//!
//! Three measurements, each emitted into the repo-root `BENCH_io.json`
//! artifact:
//!
//! 1. **Cold-read latency** — point lookups against a freshly reopened
//!    directory store, per backend. Buffered reads answer from the OS
//!    page cache once it warms; direct reads pay the device every time,
//!    which is the whole point — the direct row is the device-true
//!    number the paper's lookup-cost figures want.
//! 2. **Merge throughput** — sustained load pushing merge cascades, per
//!    backend: the price of the direct path (one synchronous device read
//!    per input page, one aligned write per output page).
//! 3. **WAL group commit** — 8 saturating writers with
//!    `wal_sync_each_append`, at 1 and 4 shards: puts/s and fsyncs per
//!    put. Each log's leader runs one fsync per group commit for every
//!    writer queued behind it, so syncs per put drop below 1 under load.
//!
//! Rows record the *active* backend kind (`buffered`, `direct`) plus any
//! fallback reason, so an artifact produced on a filesystem without
//! `O_DIRECT` support is self-describing.

use monkey::{Db, DbOptions, DbOptionsExt, IoBackend, MergePolicy};
use std::time::Instant;

const VALUE_LEN: usize = 64;

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("monkey-io-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts(dir: &std::path::Path, backend: IoBackend) -> DbOptions {
    DbOptions::at_path(dir)
        .page_size(4096)
        .buffer_capacity(256 << 10)
        .size_ratio(3)
        .merge_policy(MergePolicy::Leveling)
        .monkey_filters(5.0)
        .io_backend(backend)
        .shards(1)
}

/// `"backend": ..., "fallback": ...` fragment describing what actually
/// served the I/O (the fallback ladder may have demoted the request).
fn backend_fragment(db: &Db) -> String {
    let info = db.io_backend_info();
    match &info.fallback {
        Some(reason) => format!(
            "\"backend\": \"{}\", \"fallback\": \"{}\"",
            info.kind,
            reason.replace('"', "'")
        ),
        None => format!("\"backend\": \"{}\"", info.kind),
    }
}

/// Point lookups against a reopened store: build once per backend, drop,
/// reopen, then read keys in a scrambled order. The first pass after
/// reopen is cold on both backends; later passes stay device-cold only
/// under direct I/O.
fn cold_read_latency(n: usize, reads: usize) {
    println!("\ncold_read_latency ({n} resident entries, {reads} point reads after reopen):");
    let mut rows = Vec::new();
    for backend in [IoBackend::Buffered, IoBackend::Direct] {
        let dir = tempdir(&format!("cold-{}", backend.name()));
        let db = Db::open(opts(&dir, backend)).unwrap();
        for i in 0..n {
            db.put(format!("key{i:012}").into_bytes(), vec![b'v'; VALUE_LEN])
                .unwrap();
        }
        db.flush().unwrap();
        drop(db);
        let db = Db::open(opts(&dir, backend)).unwrap();
        let t0 = Instant::now();
        for r in 0..reads {
            let i = (r * 2_654_435_761) % n; // scrambled, full coverage
            assert!(db.get(format!("key{i:012}").as_bytes()).unwrap().is_some());
        }
        let micros = t0.elapsed().as_nanos() as f64 / 1e3 / reads as f64;
        let io = db.io();
        println!(
            "  {:<14} {micros:>8.2} us/get   ({} page reads, {} seeks)",
            db.io_backend_info().kind,
            io.page_reads,
            io.seeks
        );
        rows.push(format!(
            "{{{}, \"requested\": \"{}\", \"micros_per_get\": {micros:.2}, \
             \"page_reads\": {}, \"seeks\": {}}}",
            backend_fragment(&db),
            backend.name(),
            io.page_reads,
            io.seeks
        ));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    monkey_bench::emit_bench_artifact(
        "BENCH_io.json",
        "cold_read_latency",
        &format!(
            "{{\"entries\": {n}, \"reads\": {reads}, \"rows\": [{}]}}",
            rows.join(", ")
        ),
    );
}

/// Sustained puts driving merge cascades: throughput of the whole write
/// pipeline — memtable flush, merges, run builds — per backend.
fn merge_throughput(n: usize) {
    println!("\nmerge_throughput ({n} puts through cascaded merges):");
    let mut rows = Vec::new();
    for backend in [IoBackend::Buffered, IoBackend::Direct] {
        let dir = tempdir(&format!("merge-{}", backend.name()));
        let db = Db::open(opts(&dir, backend)).unwrap();
        let t0 = Instant::now();
        for i in 0..n {
            // Overwrite-heavy keyspace: keeps merges busy discarding.
            db.put(
                format!("key{:09}", (i * 31) % (n / 2).max(1)).into_bytes(),
                vec![b'v'; VALUE_LEN],
            )
            .unwrap();
        }
        db.flush().unwrap();
        let secs = t0.elapsed().as_secs_f64();
        let kops = n as f64 / secs / 1e3;
        let io = db.io();
        println!(
            "  {:<14} {kops:>8.1} kops/s   ({} pages read, {} written)",
            db.io_backend_info().kind,
            io.page_reads,
            io.page_writes
        );
        rows.push(format!(
            "{{{}, \"requested\": \"{}\", \"kops_per_sec\": {kops:.1}, \
             \"page_reads\": {}, \"page_writes\": {}}}",
            backend_fragment(&db),
            backend.name(),
            io.page_reads,
            io.page_writes
        ));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    monkey_bench::emit_bench_artifact(
        "BENCH_io.json",
        "merge_throughput",
        &format!("{{\"ops\": {n}, \"rows\": [{}]}}", rows.join(", ")),
    );
}

/// Saturating writers with fsync-per-append, at 1 and 4 shards: puts/s
/// and physical syncs per put. (Sharing an fsync needs overlapping
/// committers, so on a single-core runner the ratio is scheduling-limited
/// — flagged accordingly.)
fn wal_group_commit(threads: usize, per_thread: usize) {
    println!("\nwal_group_commit ({threads} writers x {per_thread} puts, fsync per append):");
    let mut rows = Vec::new();
    for shards in [1, 4] {
        let dir = tempdir("sync");
        let db = Db::open(
            DbOptions::at_path(&dir)
                .page_size(4096)
                .buffer_capacity(4 << 20)
                .wal_sync_each_append(true)
                .shards(shards),
        )
        .unwrap();
        let started = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let db = &db;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let seq = t * per_thread + i;
                        db.put(format!("key{seq:09}").into_bytes(), vec![b'v'; 24])
                            .unwrap();
                    }
                });
            }
        });
        let puts = (threads * per_thread) as f64;
        let puts_per_sec = puts / started.elapsed().as_secs_f64();
        let syncs = db.pipeline_stats().wal_syncs;
        let per_put = syncs as f64 / puts;
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        println!("  {shards} shard(s): {puts_per_sec:>9.0} puts/s  {per_put:.3} syncs/put ({syncs} syncs)");
        rows.push(format!(
            "{{\"shards\": {shards}, \"puts_per_sec\": {puts_per_sec:.0}, \"syncs\": {syncs}, \
             \"syncs_per_put\": {per_put:.3}}}"
        ));
    }
    monkey_bench::emit_bench_artifact(
        "BENCH_io.json",
        "wal_group_commit",
        &format!(
            "{{\"threads\": {threads}, \"puts_per_thread\": {per_thread}, \"rows\": [{}]{}}}",
            rows.join(", "),
            monkey_bench::single_core_flag()
        ),
    );
}

fn main() {
    // `cargo test --benches` passes `--test`: keep the smoke run cheap.
    let test_mode = std::env::args().any(|a| a == "--test");
    cold_read_latency(
        if test_mode { 2_000 } else { 50_000 },
        if test_mode { 500 } else { 20_000 },
    );
    merge_throughput(if test_mode { 5_000 } else { 200_000 });
    wal_group_commit(8, if test_mode { 100 } else { 2_000 });
}
