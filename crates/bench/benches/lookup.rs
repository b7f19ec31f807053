//! End-to-end point-lookup benchmarks over the engine's fast path.
//!
//! Crosses the two filter allocations the paper compares (uniform vs
//! Monkey) with the two filter layouts (standard flat vs cache-line
//! blocked), for both zero-result and existing-key gets. The lookup path
//! hashes the key once and reuses the pair across every run's filter, so
//! these numbers measure the whole fast path: fence pre-check, shared
//! hash, filter probes, and any page reads.

use criterion::{criterion_group, Criterion};
use monkey::FilterVariant;
use monkey_bench::{load, ExpConfig, FilterKind};
use monkey_lsm::page::{PageBuilder, PageCursor};
use monkey_lsm::Entry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn cfg() -> ExpConfig {
    ExpConfig {
        entries: 1 << 14,
        ..ExpConfig::paper_default()
    }
}

fn variants() -> [(FilterKind, FilterVariant, &'static str); 4] {
    [
        (
            FilterKind::Uniform(5.0),
            FilterVariant::Standard,
            "uniform_standard",
        ),
        (
            FilterKind::Uniform(5.0),
            FilterVariant::Blocked,
            "uniform_blocked",
        ),
        (
            FilterKind::Monkey(5.0),
            FilterVariant::Standard,
            "monkey_standard",
        ),
        (
            FilterKind::Monkey(5.0),
            FilterVariant::Blocked,
            "monkey_blocked",
        ),
    ]
}

fn bench_zero_result(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup_zero_result");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for (filters, variant, label) in variants() {
        let loaded = load(&cfg().with_filters(filters).with_variant(variant), 1);
        let mut rng = StdRng::seed_from_u64(7);
        group.bench_function(label, |b| {
            b.iter(|| {
                let key = loaded.keys.random_missing(&mut rng);
                assert!(loaded.db.get(&key).expect("get").is_none());
            })
        });
    }
    group.finish();
}

fn bench_existing(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup_existing");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for (filters, variant, label) in variants() {
        let loaded = load(&cfg().with_filters(filters).with_variant(variant), 1);
        let mut rng = StdRng::seed_from_u64(7);
        group.bench_function(label, |b| {
            b.iter(|| {
                let (_, key) = loaded.keys.random_existing(&mut rng);
                assert!(loaded.db.get(&key).expect("get").is_some());
            })
        });
    }
    group.finish();
}

/// Telemetry overhead on the lookup path (acceptance bound: <2%): the
/// same seeded zero-result workload against identically loaded stores
/// with the hub off and on, best of three rounds each. The on-run's
/// report (latency percentiles, per-level counters) is merged into the
/// repo-root `BENCH_telemetry.json` artifact with the throughput delta.
fn telemetry_overhead(n: u64) {
    let run = |telemetry: bool| -> (f64, Option<String>) {
        let loaded = load(&cfg().with_telemetry(telemetry), 1);
        let mut best = f64::INFINITY;
        for round in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(100 + round);
            let t0 = std::time::Instant::now();
            for _ in 0..n {
                let key = loaded.keys.random_missing(&mut rng);
                assert!(loaded.db.get(&key).expect("get").is_none());
            }
            best = best.min(t0.elapsed().as_nanos() as f64 / n as f64);
        }
        (best, loaded.db.telemetry_report().map(|r| r.to_json()))
    };
    let (off, _) = run(false);
    let (on, report) = run(true);
    let overhead = (on - off) / off * 100.0;
    println!("\ntelemetry_overhead (zero-result get, {n} lookups, best of 3):");
    println!("  telemetry off: {off:.1} ns/get");
    println!("  telemetry on:  {on:.1} ns/get   overhead {overhead:+.2}%");
    monkey_bench::emit_bench_telemetry(
        "lookup",
        &format!(
            "{{\"lookups\": {n}, \"ns_per_get_off\": {off:.1}, \"ns_per_get_on\": {on:.1}, \
             \"overhead_pct\": {overhead:.2}, \"report\": {}}}",
            report.expect("telemetry report")
        ),
    );
}

/// The page-probe step of a point lookup in isolation: checksum verify
/// plus the in-place `PageCursor::search` that `Run::get_hashed` uses.
fn bench_page_probe(c: &mut Criterion) {
    let mut builder = PageBuilder::new(4096);
    let mut i = 0u32;
    while builder.fits(&Entry::put(
        format!("key{i:06}").into_bytes(),
        vec![b'v'; 24],
        i as u64,
    )) {
        builder
            .push(&Entry::put(
                format!("key{i:06}").into_bytes(),
                vec![b'v'; 24],
                i as u64,
            ))
            .expect("push");
        i += 1;
    }
    let page = bytes::Bytes::from(builder.finish());
    let n = i;
    let mut group = c.benchmark_group("page_probe");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    let mut k = 0u32;
    group.bench_function("zero_copy_cursor", |b| {
        b.iter(|| {
            k = (k + 7) % n;
            let hit = PageCursor::new(page.clone())
                .expect("cursor")
                .search(format!("key{k:06}").as_bytes())
                .expect("search");
            assert!(hit.is_some());
        })
    });
    group.finish();
}

criterion_group!(benches, bench_zero_result, bench_existing, bench_page_probe);

fn main() {
    benches();
    // `cargo test --benches` passes `--test`: keep the smoke run cheap.
    let test_mode = std::env::args().any(|a| a == "--test");
    telemetry_overhead(if test_mode { 2_000 } else { 100_000 });
}
