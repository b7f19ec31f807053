//! Write-path benchmarks: put throughput and put tail latency across the
//! two merge policies × the two flush schedules.
//!
//! In synchronous mode a put that fills the buffer pays for the whole
//! flush (and any merge cascade it triggers) inline, so the mean stays low
//! but the tail is the full cascade cost. With `background_compaction` the
//! rotating put only freezes the memtable and hands it to the worker; the
//! tail collapses to the rotation cost unless backpressure kicks in. The
//! throughput numbers come from the criterion harness (median ns/put); the
//! latency distribution is measured separately below because the offline
//! criterion stand-in reports no percentiles.

use criterion::{criterion_group, Criterion};
use monkey::{Db, DbOptions, DbOptionsExt, MergePolicy};
use std::time::{Duration, Instant};

const VALUE_LEN: usize = 64;

fn opts(policy: MergePolicy, background: bool) -> DbOptions {
    // The harness default shape (EXPERIMENTS.md): 1 KiB pages, 16 KiB
    // buffer, T=2 — deep enough that leveling cascades span many levels.
    DbOptions::in_memory()
        .page_size(1024)
        .buffer_capacity(16 << 10)
        .size_ratio(2)
        .merge_policy(policy)
        .monkey_filters(5.0)
        .background_compaction(background)
        .max_immutable_memtables(4)
}

fn configs() -> [(MergePolicy, bool, &'static str); 4] {
    [
        (MergePolicy::Leveling, false, "leveling_sync"),
        (MergePolicy::Leveling, true, "leveling_background"),
        (MergePolicy::Tiering, false, "tiering_sync"),
        (MergePolicy::Tiering, true, "tiering_background"),
    ]
}

fn bench_put_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("put_throughput");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for (policy, background, label) in configs() {
        let db = Db::open(opts(policy, background)).unwrap();
        let mut i = 0u64;
        group.bench_function(label, |b| {
            b.iter(|| {
                i += 1;
                db.put(format!("key{i:012}").into_bytes(), vec![b'v'; VALUE_LEN])
                    .unwrap();
            })
        });
        db.flush().unwrap();
    }
    group.finish();
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 * p) as usize).min(sorted.len() - 1);
    sorted[idx]
}

fn us(d: Duration) -> String {
    format!("{:.1}us", d.as_nanos() as f64 / 1e3)
}

/// One fixed-size load per config, timing every individual put: the tail
/// is where the two flush schedules differ.
fn latency_distribution(n: usize) {
    println!("\nput_latency ({n} sequential puts, {VALUE_LEN} B values):");
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9}  stalls",
        "config", "p50", "p99", "p99.9", "max"
    );
    for (policy, background, label) in configs() {
        let db = Db::open(opts(policy, background)).unwrap();
        let mut lat = Vec::with_capacity(n);
        for i in 0..n {
            let key = format!("key{i:012}").into_bytes();
            let t0 = Instant::now();
            db.put(key, vec![b'v'; VALUE_LEN]).unwrap();
            lat.push(t0.elapsed());
        }
        db.flush().unwrap();
        let stats = db.stats();
        assert_eq!(stats.disk_entries, n as u64, "{label}: no writes lost");
        lat.sort();
        println!(
            "{:<22} {:>9} {:>9} {:>9} {:>9}  {}",
            label,
            us(percentile(&lat, 0.50)),
            us(percentile(&lat, 0.99)),
            us(percentile(&lat, 0.999)),
            us(lat[lat.len() - 1]),
            stats.pipeline.stalls,
        );
    }
}

/// Point-lookup tail latency while a writer saturates the put path:
/// lookups read an immutable version snapshot, so an in-flight flush or
/// merge cascade must not show up in the get tail (in either mode — only
/// the brief memtable-insert lock is shared).
fn get_latency_under_write_load(n: usize) {
    println!("\nget_latency_under_write_load ({n} gets vs a saturating writer):");
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9}",
        "config", "p50", "p99", "p99.9", "max"
    );
    for (policy, background, label) in configs() {
        let db = Db::open(opts(policy, background)).unwrap();
        for i in 0..20_000usize {
            db.put(format!("key{i:012}").into_bytes(), vec![b'v'; VALUE_LEN])
                .unwrap();
        }
        db.flush().unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let mut lat = Vec::with_capacity(n);
        crossbeam::scope(|scope| {
            let (db_ref, stop_ref) = (&db, &stop);
            scope.spawn(move |_| {
                let mut i = 20_000u64;
                while !stop_ref.load(std::sync::atomic::Ordering::Acquire) {
                    db_ref
                        .put(format!("key{i:012}").into_bytes(), vec![b'v'; VALUE_LEN])
                        .unwrap();
                    i += 1;
                }
            });
            for i in 0..n {
                let key = format!("key{:012}", i % 20_000);
                let t0 = Instant::now();
                assert!(db.get(key.as_bytes()).unwrap().is_some());
                lat.push(t0.elapsed());
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
        })
        .unwrap();
        lat.sort();
        println!(
            "{:<22} {:>9} {:>9} {:>9} {:>9}",
            label,
            us(percentile(&lat, 0.50)),
            us(percentile(&lat, 0.99)),
            us(percentile(&lat, 0.999)),
            us(lat[lat.len() - 1]),
        );
    }
}

/// Shard scaling: the same multi-writer put load against a single-shard
/// store and a 4-shard store, then single-threaded get p99 against each.
/// With one shard, concurrent writers serialize on the memtable insert
/// lock and the single flush pipeline; with four, the hash router gives
/// each writer an (almost always) uncontended shard. The numbers land in
/// the repo-root `BENCH_shards.json` — on a 1-core runner the speedup row
/// is flagged rather than reported as a regression, because there is no
/// parallelism to exhibit.
fn shard_scaling(n: usize) {
    const WRITERS: usize = 4;
    let run = |shards: usize| -> (f64, f64, f64) {
        let db = Db::open(opts(MergePolicy::Leveling, true).shards(shards)).unwrap();
        let t0 = Instant::now();
        crossbeam::scope(|scope| {
            for w in 0..WRITERS {
                let db_ref = &db;
                scope.spawn(move |_| {
                    for i in (w..n).step_by(WRITERS) {
                        db_ref
                            .put(format!("key{i:012}").into_bytes(), vec![b'v'; VALUE_LEN])
                            .unwrap();
                    }
                });
            }
        })
        .unwrap();
        let puts_per_sec = n as f64 / t0.elapsed().as_secs_f64();
        db.flush().unwrap();
        assert_eq!(db.stats().disk_entries, n as u64, "no writes lost");
        let gets = n.min(20_000);
        let mut lat = Vec::with_capacity(gets);
        for i in 0..gets {
            let key = format!("key{i:012}");
            let t0 = Instant::now();
            assert!(db.get(key.as_bytes()).unwrap().is_some());
            lat.push(t0.elapsed());
        }
        lat.sort();
        (
            puts_per_sec,
            percentile(&lat, 0.99).as_nanos() as f64 / 1e3,
            lat[lat.len() - 1].as_nanos() as f64 / 1e3,
        )
    };
    let (eps1, get_p99_1, get_max_1) = run(1);
    let (eps4, get_p99_4, get_max_4) = run(4);
    let speedup = eps4 / eps1;
    println!(
        "\nshard_scaling ({n} puts from {WRITERS} writers, then {} gets):",
        n.min(20_000)
    );
    println!(
        "  1 shard : {eps1:>10.0} puts/s   get p99 {get_p99_1:>7.1}us  max {get_max_1:>9.1}us"
    );
    println!(
        "  4 shards: {eps4:>10.0} puts/s   get p99 {get_p99_4:>7.1}us  max {get_max_4:>9.1}us"
    );
    println!("  put speedup: {speedup:.2}x");
    if monkey_bench::single_core_runner() {
        println!(
            "  note: single-core runner — no parallelism to exhibit; the speedup \
             row is flagged in the artifact, not a regression"
        );
    }
    monkey_bench::emit_bench_artifact(
        "BENCH_shards.json",
        "put_scaling",
        &format!(
            "{{\"writers\": {WRITERS}, \"puts\": {n}, \
             \"puts_per_s_1shard\": {eps1:.0}, \"puts_per_s_4shard\": {eps4:.0}, \
             \"speedup\": {speedup:.3}{}}}",
            monkey_bench::single_core_flag()
        ),
    );
    monkey_bench::emit_bench_artifact(
        "BENCH_shards.json",
        "get_tail",
        &format!(
            "{{\"gets\": {}, \"p99_us_1shard\": {get_p99_1:.1}, \"p99_us_4shard\": {get_p99_4:.1}, \
             \"max_us_1shard\": {get_max_1:.1}, \"max_us_4shard\": {get_max_4:.1}}}",
            n.min(20_000)
        ),
    );
}

/// Telemetry overhead on the put path (acceptance bound: <2%): identical
/// sequential loads against the same store shape with the hub off and on,
/// best of three rounds each to shed scheduler noise. The on-run's full
/// report (histogram percentiles included) lands in the repo-root
/// `BENCH_telemetry.json` artifact next to the throughput delta.
fn telemetry_overhead(n: usize) {
    let run = |telemetry: bool| -> (f64, Option<String>) {
        let mut best = f64::INFINITY;
        let mut report = None;
        for _ in 0..3 {
            let db = Db::open(opts(MergePolicy::Leveling, false).telemetry(telemetry)).unwrap();
            let t0 = Instant::now();
            for i in 0..n {
                db.put(format!("key{i:012}").into_bytes(), vec![b'v'; VALUE_LEN])
                    .unwrap();
            }
            best = best.min(t0.elapsed().as_nanos() as f64 / n as f64);
            db.flush().unwrap();
            report = db.telemetry_report().map(|r| r.to_json());
        }
        (best, report)
    };
    let (off, _) = run(false);
    let (on, report) = run(true);
    let overhead = (on - off) / off * 100.0;
    println!("\ntelemetry_overhead (put path, {n} puts, best of 3):");
    println!("  telemetry off: {off:.1} ns/put");
    println!("  telemetry on:  {on:.1} ns/put   overhead {overhead:+.2}%");
    monkey_bench::emit_bench_telemetry(
        "write",
        &format!(
            "{{\"puts\": {n}, \"ns_per_put_off\": {off:.1}, \"ns_per_put_on\": {on:.1}, \
             \"overhead_pct\": {overhead:.2}, \"report\": {}}}",
            report.expect("telemetry report")
        ),
    );
}

criterion_group!(benches, bench_put_throughput);

fn main() {
    // `cargo test --benches` passes `--test`: keep the smoke run cheap.
    let test_mode = std::env::args().any(|a| a == "--test");
    // `--overhead` runs only the overhead harness (repeat runs to map the
    // noise floor without paying for the full latency suites).
    let overhead_only = std::env::args().any(|a| a == "--overhead");
    if !overhead_only {
        benches();
        latency_distribution(if test_mode { 2_000 } else { 200_000 });
        get_latency_under_write_load(if test_mode { 2_000 } else { 100_000 });
        shard_scaling(if test_mode { 4_000 } else { 200_000 });
    }
    telemetry_overhead(if test_mode { 2_000 } else { 200_000 });
}
