//! Bloom filter micro-benchmarks: the per-probe cost that sits on every
//! point lookup's critical path.

use criterion::{criterion_group, criterion_main, Criterion};
use monkey_bloom::{hash::xxh64, hash_pair, BlockedBloomFilter, BloomFilter};
use std::time::Duration;

fn bench_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2));
    for len in [8usize, 64, 1024] {
        let data = vec![7u8; len];
        group.bench_function(format!("xxh64_{len}b"), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                xxh64(&data, seed)
            })
        });
    }
    group.finish();
}

fn bench_filter_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("filter");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2));
    for bpe in [5.0, 10.0] {
        let n = 100_000u64;
        let mut filter = BloomFilter::with_bits_per_entry(n, bpe);
        for i in 0..n {
            filter.insert(&i.to_le_bytes());
        }
        let mut probe = 0u64;
        group.bench_function(format!("contains_hit_{bpe}bpe"), |b| {
            b.iter(|| {
                probe = (probe + 1) % n;
                assert!(filter.contains(&probe.to_le_bytes()));
            })
        });
        let mut probe = n;
        group.bench_function(format!("contains_miss_{bpe}bpe"), |b| {
            b.iter(|| {
                probe += 1;
                filter.contains(&probe.to_le_bytes())
            })
        });
    }
    let mut i = 0u64;
    group.bench_function("insert", |b| {
        let mut filter = BloomFilter::with_bits_per_entry(1 << 20, 10.0);
        b.iter(|| {
            i += 1;
            filter.insert(&i.to_le_bytes());
        })
    });
    group.finish();
}

/// Standard vs blocked probe throughput, with the hash precomputed (the
/// engine's fast path) so the numbers isolate the memory-access pattern.
/// Sizes span in-cache (16 Ki entries at 10 bpe ≈ 20 KiB, fits in L1/L2)
/// to out-of-cache (8 Mi entries ≈ 10 MiB, larger than typical L3), where
/// the blocked layout's one-cache-line guarantee should pay off.
fn bench_variant_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("variant_probe");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for (n, size_label) in [(1u64 << 14, "in_cache"), (1u64 << 23, "out_of_cache")] {
        let mut standard = BloomFilter::with_bits_per_entry(n, 10.0);
        let mut blocked = BlockedBloomFilter::with_bits_per_entry(n, 10.0);
        for i in 0..n {
            let pair = hash_pair(&i.to_le_bytes());
            standard.insert_hashed(pair);
            blocked.insert_hashed(pair);
        }
        // Pre-hash the miss keys: the benchmark measures probes, not hashing.
        let pairs: Vec<_> = (n..n + 4096).map(|i| hash_pair(&i.to_le_bytes())).collect();
        let mut i = 0usize;
        group.bench_function(format!("standard_miss_{size_label}"), |b| {
            b.iter(|| {
                i = (i + 1) & 4095;
                standard.contains_hashed(pairs[i])
            })
        });
        let mut i = 0usize;
        group.bench_function(format!("blocked_miss_{size_label}"), |b| {
            b.iter(|| {
                i = (i + 1) & 4095;
                blocked.contains_hashed(pairs[i])
            })
        });
    }
    group.finish();
}

/// What hashing once upstream buys, isolated at the filter level: a probe
/// that hashes its key against one handed the engine's precomputed pair.
fn bench_probe_scheme(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_scheme");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let n = 1u64 << 20;
    let mut filter = BloomFilter::with_bits_per_entry(n, 10.0);
    for i in 0..n {
        filter.insert(&i.to_le_bytes());
    }
    let keys: Vec<[u8; 8]> = (n..n + 4096).map(|i| i.to_le_bytes()).collect();
    let pairs: Vec<_> = keys.iter().map(|k| hash_pair(k)).collect();
    let mut i = 0usize;
    group.bench_function("fastrange_keyed", |b| {
        b.iter(|| {
            i = (i + 1) & 4095;
            filter.contains(&keys[i])
        })
    });
    let mut i = 0usize;
    group.bench_function("fastrange_prehashed", |b| {
        b.iter(|| {
            i = (i + 1) & 4095;
            filter.contains_hashed(pairs[i])
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hash,
    bench_filter_ops,
    bench_variant_probe,
    bench_probe_scheme
);
criterion_main!(benches);
