//! Structural invariants of the LSM-tree (the paper's Figure 2): the
//! exponential capacity schedule, run-count bounds per policy, the
//! one-I/O-per-probe guarantee of fence pointers, and the main-memory
//! bookkeeping of M_buffer / M_filters / M_pointers.

use monkey::{Db, DbOptions, DbOptionsExt, MergePolicy};
use monkey_workload::KeySpace;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn options(policy: MergePolicy, t: usize) -> DbOptions {
    DbOptions::in_memory()
        .page_size(1024)
        .buffer_capacity(4096)
        .size_ratio(t)
        .merge_policy(policy)
        .monkey_filters(8.0)
}

fn loaded(policy: MergePolicy, t: usize, n: u64) -> (std::sync::Arc<Db>, KeySpace) {
    load(options(policy, t), n)
}

fn load(opts: DbOptions, n: u64) -> (std::sync::Arc<Db>, KeySpace) {
    let db = Db::open(opts).unwrap();
    let keys = KeySpace::with_entry_size(n, 64);
    let mut rng = StdRng::seed_from_u64(9);
    for i in keys.shuffled_indices(&mut rng) {
        db.put(keys.existing_key(i), keys.value_for(i)).unwrap();
    }
    (db, keys)
}

#[test]
fn capacity_schedule_is_geometric() {
    let (db, _) = loaded(MergePolicy::Leveling, 3, 20_000);
    let stats = db.stats();
    for pair in stats.levels.windows(2) {
        assert_eq!(
            pair[1].capacity_bytes,
            pair[0].capacity_bytes * 3,
            "capacities grow by T between adjacent levels"
        );
    }
    assert_eq!(
        stats.levels[0].capacity_bytes,
        4096 * 3,
        "level 1 = buffer × T"
    );
}

#[test]
fn run_count_bounds_per_policy() {
    // The bounds are one tree's: a store of several shards sums their runs
    // level by level, so this one is pinned to a single shard.
    for t in [2usize, 3, 5] {
        let (db, _) = load(options(MergePolicy::Leveling, t).shards(1), 15_000);
        for level in &db.stats().levels {
            assert!(
                level.runs <= 1,
                "leveling T={t}: level {} has {} runs",
                level.level,
                level.runs
            );
        }
        let (db, _) = load(options(MergePolicy::Tiering, t).shards(1), 15_000);
        for level in &db.stats().levels {
            assert!(
                level.runs < t,
                "tiering T={t}: level {} has {} runs",
                level.level,
                level.runs
            );
        }
    }
}

#[test]
fn all_levels_within_capacity_except_possibly_deepest() {
    let (db, _) = loaded(MergePolicy::Leveling, 2, 30_000);
    let stats = db.stats();
    let deepest = stats.depth();
    for level in &stats.levels {
        if level.level < deepest {
            assert!(
                level.bytes <= level.capacity_bytes,
                "level {}: {} > {}",
                level.level,
                level.bytes,
                level.capacity_bytes
            );
        }
    }
}

#[test]
fn found_lookup_costs_at_most_one_io_per_probed_run() {
    // Fence pointers: probing a run is one page I/O, so a lookup's reads
    // are bounded by the number of runs (and usually far fewer thanks to
    // the filters).
    let (db, keys) = loaded(MergePolicy::Tiering, 3, 15_000);
    db.rebuild_filters().unwrap();
    db.reset_io();
    let runs = db.stats().runs as u64;
    let mut rng = StdRng::seed_from_u64(10);
    let lookups = 500;
    for _ in 0..lookups {
        let (_, k) = keys.random_existing(&mut rng);
        assert!(db.get(&k).unwrap().is_some());
    }
    let reads = db.io().page_reads;
    assert!(reads >= lookups, "each found lookup costs at least one I/O");
    assert!(
        reads <= lookups * runs,
        "fence pointers bound each probe to one I/O: {reads} reads, {runs} runs"
    );
    // With 8 bits/entry of Monkey filters the average is near 1.
    assert!(
        (reads as f64) < lookups as f64 * 1.6,
        "filters keep found lookups near one I/O: {}",
        reads as f64 / lookups as f64
    );
}

#[test]
fn memory_terms_scale_as_the_paper_says() {
    // M_pointers is O(N/B) and ~orders smaller than data; M_filters tracks
    // bits-per-entry × N.
    let (db, _) = loaded(MergePolicy::Leveling, 2, 30_000);
    let stats = db.stats();
    let data_bits = stats.disk_entries * 64 * 8;
    assert!(
        stats.fence_bits * 10 < data_bits,
        "fence pointers much smaller than data: {} vs {}",
        stats.fence_bits,
        data_bits
    );
    let bpe = stats.bits_per_entry();
    assert!(
        (bpe - 8.0).abs() < 2.0,
        "≈8 bits/entry of filters, got {bpe}"
    );
}

#[test]
fn deeper_levels_hold_exponentially_more_data() {
    let (db, _) = loaded(MergePolicy::Leveling, 2, 30_000);
    let stats = db.stats();
    let occupied: Vec<_> = stats.levels.iter().filter(|l| l.runs > 0).collect();
    // A freshly cascaded leveled tree may have empty intermediate levels;
    // at least the deepest and one shallower level must be occupied here.
    assert!(
        occupied.len() >= 2,
        "need at least two occupied levels, got {occupied:?}"
    );
    let last = occupied.last().unwrap();
    let rest: u64 = occupied[..occupied.len() - 1]
        .iter()
        .map(|l| l.entries)
        .sum();
    assert!(
        last.entries > rest,
        "the last level holds the majority of entries (Figure 2)"
    );
}

#[test]
fn monkey_filter_bits_decrease_per_entry_with_depth() {
    let (db, _) = loaded(MergePolicy::Leveling, 3, 30_000);
    db.rebuild_filters().unwrap();
    let stats = db.stats();
    let mut per_entry: Vec<(usize, f64)> = stats
        .levels
        .iter()
        .filter(|l| l.entries > 0)
        .map(|l| (l.level, l.filter_bits as f64 / l.entries as f64))
        .collect();
    per_entry.sort_by_key(|&(lvl, _)| lvl);
    for pair in per_entry.windows(2) {
        assert!(
            pair[0].1 >= pair[1].1 - 1.0,
            "bits/entry must not grow with depth: {per_entry:?}"
        );
    }
    // And the shallowest filtered level is meaningfully richer than the deepest.
    if per_entry.len() >= 2 {
        assert!(per_entry[0].1 > per_entry.last().unwrap().1);
    }
}
