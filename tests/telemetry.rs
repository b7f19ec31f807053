//! The telemetry layer end to end: measured-vs-model convergence under
//! both filter allocations, per-level I/O attribution after real
//! cascades, drift detection on a mis-behaving filter, the structured
//! event timeline, and the off switch.

use monkey::{Db, DbOptions, DbOptionsExt, EventKind, MergePolicy};
use monkey_workload::KeySpace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

/// An in-memory multi-level tree with telemetry on and freshly rebuilt
/// filters, mirroring the `model_vs_engine` harness.
fn build(policy: MergePolicy, t: usize, monkey: bool, bpe: f64, n: u64) -> (Arc<Db>, KeySpace) {
    let opts = DbOptions::in_memory()
        .page_size(1024)
        .buffer_capacity(8 << 10)
        .size_ratio(t)
        .merge_policy(policy)
        .telemetry(true);
    let opts = if monkey {
        opts.monkey_filters(bpe)
    } else {
        opts.uniform_filters(bpe)
    };
    let db = Db::open(opts).unwrap();
    let keys = KeySpace::with_entry_size(n, 64);
    let mut rng = StdRng::seed_from_u64(71);
    for i in keys.shuffled_indices(&mut rng) {
        db.put(keys.existing_key(i), keys.value_for(i)).unwrap();
    }
    db.rebuild_filters().unwrap();
    (db, keys)
}

#[test]
fn telemetry_off_means_no_hub_and_no_report() {
    let db = Db::open(DbOptions::in_memory().buffer_capacity(2048)).unwrap();
    db.put(&b"k"[..], &b"v"[..]).unwrap();
    assert_eq!(db.get(b"k").unwrap().unwrap().as_ref(), b"v");
    assert!(
        db.telemetry().is_none(),
        "hub exists despite telemetry=false"
    );
    assert!(db.telemetry_report().is_none());
}

/// Satellite: under uniformly random zero-result lookups the measured
/// per-level FPRs converge to the allocation (no drift flags) and the
/// engine-wide measured R tracks the model's Eq. 3 — for both the uniform
/// baseline and Monkey's allocation.
#[test]
fn measured_fpr_converges_to_allocation() {
    for monkey in [false, true] {
        let (db, keys) = build(MergePolicy::Leveling, 3, monkey, 8.0, 1 << 14);
        let mut rng = StdRng::seed_from_u64(72);
        let lookups = 8_000u64;
        for _ in 0..lookups {
            let k = keys.random_missing(&mut rng);
            assert!(db.get(&k).unwrap().is_none());
        }
        let report = db.telemetry_report().unwrap();

        let get = report.ops.iter().find(|o| o.op == "get").unwrap();
        assert_eq!(get.ops, lookups, "exact op counts despite sampling");
        assert!(
            get.sampled > 0 && get.sampled < lookups,
            "durations are sampled: {} of {lookups}",
            get.sampled
        );

        let expected = report.expected_zero_result_lookup_ios;
        let measured = report.measured_zero_result_lookup_ios;
        assert!(
            (measured - expected).abs() < expected * 0.30 + 0.02,
            "monkey={monkey}: measured R {measured} vs Eq.3 {expected}"
        );

        // Per-level: every occupied level saw probes, and none left the
        // confidence band around its allocated FPR.
        for l in report.levels.iter().filter(|l| l.runs > 0) {
            assert!(
                l.lookups.filter_probes > 0,
                "monkey={monkey}: level {} never probed",
                l.level
            );
        }
        let drifted: Vec<_> = report.drifted().iter().map(|l| l.level).collect();
        assert!(
            drifted.is_empty(),
            "monkey={monkey}: healthy filters flagged as drifted: {drifted:?}"
        );
    }
}

/// Satellite: after a fill that ran real flushes and merge cascades, the
/// I/O attribution table pins reads and writes to the levels that did
/// them, and lookup traffic lands on the levels that served it.
#[test]
fn per_level_io_attribution_after_cascades() {
    let (db, keys) = build(MergePolicy::Leveling, 3, false, 10.0, 1 << 14);
    let mut rng = StdRng::seed_from_u64(73);
    let misses = 1_000u64;
    for _ in 0..misses {
        let k = keys.random_missing(&mut rng);
        assert!(db.get(&k).unwrap().is_none());
    }
    let hits = 1_000u64;
    for _ in 0..hits {
        let (_, k) = keys.random_existing(&mut rng);
        assert!(db.get(&k).unwrap().is_some());
    }
    let report = db.telemetry_report().unwrap();

    let occupied: Vec<_> = report.levels.iter().filter(|l| l.runs > 0).collect();
    assert!(
        occupied.len() >= 2,
        "fill produced {} levels",
        occupied.len()
    );

    // Every flush wrote level 1; cascades wrote below it.
    let l1 = report.levels.iter().find(|l| l.level == 1).unwrap();
    assert!(l1.io.writes > 0, "no writes attributed to level 1");
    assert!(l1.io.write_bytes > 0);
    let total_writes: u64 = report.levels.iter().map(|l| l.io.writes).sum();
    assert!(
        total_writes > l1.io.writes,
        "merge cascades never wrote a deeper level"
    );

    // Probes land on every occupied level (in-range keys, one run each) —
    // from the lookups routed to a shard that has a run there: under
    // leveling `runs` counts those shards.
    let shards = db.options().shards as u64;
    for l in &occupied {
        assert!(
            l.lookups.filter_probes >= (misses + hits) / 2 * l.runs as u64 / shards,
            "level {} saw only {} probes",
            l.level,
            l.lookups.filter_probes
        );
    }

    // Found lookups read a data page on the level that held the key;
    // nearly all of the 1000 hits live in runs, not the memtable.
    let page_reads: u64 = report
        .levels
        .iter()
        .map(|l| l.lookups.lookup_page_reads)
        .sum();
    assert!(
        page_reads >= hits * 9 / 10,
        "only {page_reads} lookup page reads"
    );
    let attributed_reads: u64 = report.levels.iter().map(|l| l.io.reads).sum();
    assert!(attributed_reads > 0, "no reads attributed to any level");

    // Nothing in this store (no WAL, no value log) writes outside a run,
    // so the unattributed slot stays empty.
    assert_eq!(report.unattributed_io.writes, 0, "unattributed writes");
}

/// Acceptance: a filter that delivers a far higher false-positive rate
/// than its allocation promises is flagged in the drift section. The
/// mis-behaviour is injected through the hub's handle on the shard's
/// lookup table: the deepest level's filter "returns maybe" for half its
/// probes while its allocation promises under a few percent.
#[test]
fn drift_section_flags_a_misallocated_filter() {
    let (db, _keys) = build(MergePolicy::Leveling, 3, true, 10.0, 1 << 13);
    let before = db.telemetry_report().unwrap();
    let level = before
        .levels
        .iter()
        .filter(|l| l.runs > 0)
        .map(|l| l.level)
        .max()
        .unwrap();
    let table = db.telemetry().unwrap().lookups();
    for i in 0..2_000u64 {
        // Half the probes pass and are confirmed false positives, half
        // are clean negatives: a filter delivering a 50% FPR.
        let fp = i % 2 == 0;
        table.record_filter_probe(level, !fp);
        if fp {
            table.record_false_positive(level);
        }
    }
    let report = db.telemetry_report().unwrap();
    let flagged = report.drifted();
    assert_eq!(flagged.len(), 1, "exactly the sabotaged level drifts");
    let l = flagged[0];
    assert_eq!(l.level, level);
    assert!((l.measured_fpr - 0.5).abs() < 0.01);
    assert!(
        l.measured_fpr > l.allocated_fpr,
        "measured {} should exceed allocated {}",
        l.measured_fpr,
        l.allocated_fpr
    );
    let d = l.drift.unwrap();
    assert!(d.deviation > d.bound);
    assert!(report.pretty().contains("DRIFT"));
    assert!(report
        .to_prometheus()
        .contains(&format!("monkey_level_fpr_drift{{level=\"{level}\"}} 1")));
    assert!(report.to_json().contains("\"drifted\":true"));
}

/// Drift also fires organically: a workload that hammers a known
/// false-positive key violates the model's uniform-random assumption, and
/// the hammered level's measured FPR leaves the band with no injection.
#[test]
fn drift_detected_from_skewed_probes() {
    let (db, keys) = build(MergePolicy::Leveling, 2, false, 10.0, 1 << 13);
    // Find a missing key the filters pass somewhere: each false positive
    // shows up in the engine-wide counter.
    let mut rng = StdRng::seed_from_u64(74);
    let mut fp_key = None;
    for _ in 0..20_000 {
        let k = keys.random_missing(&mut rng);
        let before = db.stats().lookups.filter_false_positives;
        assert!(db.get(&k).unwrap().is_none());
        if db.stats().lookups.filter_false_positives > before {
            fp_key = Some(k);
            break;
        }
    }
    let k = fp_key.expect("no false positive in 20k probes at 10 bits/entry");
    for _ in 0..2_000 {
        assert!(db.get(&k).unwrap().is_none());
    }
    let report = db.telemetry_report().unwrap();
    let flagged = report.drifted();
    assert!(
        !flagged.is_empty(),
        "skewed probes never tripped the detector"
    );
    for l in flagged {
        assert!(
            l.measured_fpr > l.allocated_fpr + 0.01,
            "level {} flagged with measured {} vs allocated {}",
            l.level,
            l.measured_fpr,
            l.allocated_fpr
        );
    }
}

/// The event ring records the engine's slow-path moments in order, drains
/// destructively, and the report renders in all three formats.
#[test]
fn event_timeline_and_exposition_formats() {
    let d: PathBuf = std::env::temp_dir().join(format!("monkey-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    let db = Db::open(
        DbOptions::at_path(&d)
            .page_size(512)
            .buffer_capacity(2048)
            .size_ratio(3)
            .merge_policy(MergePolicy::Leveling)
            .monkey_filters(8.0)
            .telemetry(true),
    )
    .unwrap();
    for i in 0..500u32 {
        db.put(format!("key{i:05}").into_bytes(), vec![b'v'; 24])
            .unwrap();
    }
    db.flush().unwrap();
    for i in 0..100u32 {
        assert!(db.get(format!("key{i:05}").as_bytes()).unwrap().is_some());
    }
    assert!(db.range(b"", None).unwrap().count() == 500);

    let report = db.telemetry_report().unwrap();
    let names: Vec<&str> = report.events.iter().map(|e| e.kind.name()).collect();
    assert!(names.contains(&"flush_start"), "events: {names:?}");
    assert!(names.contains(&"flush_end"), "events: {names:?}");
    assert!(names.contains(&"wal_group_commit"), "events: {names:?}");
    // One timeline by time; `seq` numbers a shard's own ring.
    assert!(
        report
            .events
            .windows(2)
            .all(|w| w[0].ts_micros <= w[1].ts_micros),
        "timeline out of order"
    );
    let last_seq = |events: &[monkey::Event], shard: u32| {
        let seqs: Vec<u64> = events
            .iter()
            .filter(|e| e.shard == shard)
            .map(|e| e.seq)
            .collect();
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "shard {shard}: seq out of order"
        );
        seqs.last().copied()
    };
    let shards: Vec<u32> = (0..db.options().shards as u32).collect();
    let drained: Vec<Option<u64>> = shards
        .iter()
        .map(|&shard| last_seq(&report.events, shard))
        .collect();
    assert!(drained.iter().any(Option::is_some));
    for e in &report.events {
        if let EventKind::FlushStart { entries, .. } = e.kind {
            assert!(entries > 0, "flush of an empty memtable");
        }
    }

    // Exact op counts across the whole session.
    let op = |name: &str| report.ops.iter().find(|o| o.op == name).unwrap();
    assert_eq!(op("put").ops, 500);
    assert_eq!(op("get").ops, 100);
    assert_eq!(op("range").ops, 1);
    assert!(op("flush").ops >= 1);
    assert!(op("flush").sampled >= 1, "rare ops are always timed");

    // Renderings.
    let prom = report.to_prometheus();
    assert!(prom.contains("monkey_ops_total{op=\"put\"} 500"));
    assert!(prom.contains("monkey_level_allocated_fpr"));
    assert!(prom.contains("monkey_zero_result_lookup_ios{source=\"model\"}"));
    let json = report.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"event\":\"flush_start\""));
    assert!(json.contains("\"expected_zero_result_lookup_ios\""));
    let pretty = report.pretty();
    assert!(pretty.contains("operation latencies"));
    assert!(pretty.contains("event timeline"));

    // Draining is destructive: a second report only sees newer events.
    let again = db.telemetry_report().unwrap();
    assert!(
        again
            .events
            .iter()
            .all(|e| Some(e.seq) > drained[e.shard as usize]),
        "drained events resurfaced"
    );
    drop(db);
    std::fs::remove_dir_all(&d).unwrap();
}

/// README's metric table names every family `to_prometheus()` renders on
/// a store of two shards, and nothing else.
#[test]
fn readme_metric_table_matches_the_rendered_families() {
    let db = Db::open(DbOptions::in_memory().telemetry(true).shards(2)).unwrap();
    for i in 0..100u32 {
        db.put(format!("key{i:04}").into_bytes(), b"v".to_vec())
            .unwrap();
    }
    db.flush().unwrap();
    db.get(b"key0001").unwrap();
    let report = db.telemetry_report().unwrap();
    assert_eq!(report.shards.len(), 2);
    let rendered: std::collections::BTreeSet<String> = report
        .to_prometheus()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split(['{', ' ']).next().unwrap().to_string())
        .collect();
    let documented: std::collections::BTreeSet<String> = include_str!("../README.md")
        .lines()
        .filter(|l| l.starts_with("| `monkey_"))
        .flat_map(|l| l.split('|').nth(1).unwrap().split('`'))
        .filter(|name| name.starts_with("monkey_"))
        .map(str::to_string)
        .collect();
    assert_eq!(rendered, documented);
}
