//! `monkey-stats`: populate a fresh store with telemetry on, drive a
//! mixed workload, and print the full telemetry report — latency
//! percentiles, per-level I/O attribution, measured-vs-model R, the
//! model-drift section, and the event timeline.
//!
//! ```text
//! monkey-stats [--entries N] [--shards N] [--in-memory]
//!              [--json | --prometheus]
//! ```
//!
//! By default the store is directory-backed (in a temp dir, removed on
//! exit) so the timeline includes WAL group commits; `--in-memory` skips
//! the filesystem. `--json` and `--prometheus` switch the output format
//! for machine consumption; the default is the human `pretty()` dump.

use monkey::{Db, DbOptions, DbOptionsExt, MergePolicy};
use monkey_workload::{KeySpace, Op, OpMix, TraceBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(db: &Db, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Put(k, v) => {
                db.put(k.clone(), v.clone()).expect("put");
            }
            Op::Delete(k) => {
                db.delete(k.clone()).expect("delete");
            }
            Op::GetMissing(k) | Op::GetExisting(k) => {
                db.get(k).expect("get");
            }
            Op::Range(lo, hi) => {
                db.range(lo, Some(hi)).expect("range").for_each(|kv| {
                    kv.expect("range entry");
                });
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let entries: u64 = value("--entries")
        .map(|v| v.parse().expect("--entries takes a number"))
        .unwrap_or(1 << 14);
    let shards: usize = value("--shards")
        .map(|v| v.parse().expect("--shards takes a number"))
        .unwrap_or(1);
    let tmp = std::env::temp_dir().join(format!("monkey-stats-{}", std::process::id()));
    let in_memory = flag("--in-memory");
    let base = if in_memory {
        DbOptions::in_memory()
    } else {
        let _ = std::fs::remove_dir_all(&tmp);
        DbOptions::at_path(&tmp)
    };
    let opts = base
        .page_size(1024)
        .buffer_capacity(16 << 10)
        .size_ratio(2)
        .merge_policy(MergePolicy::Leveling)
        .monkey_filters(5.0)
        .telemetry(true)
        .shards(shards);
    let db = Db::open(opts).expect("open");

    // Load in random order, re-fit filters to the final shape, then a
    // query phase: zero-result gets (exercising the filters), existing
    // gets, overwrites, and short range scans.
    eprintln!("# monkey-stats: loading {entries} entries, then a mixed query phase");
    let builder = TraceBuilder::new(KeySpace::with_entry_size(entries, 64));
    let mut rng = StdRng::seed_from_u64(5);
    run(&db, &builder.load_phase(&mut rng));
    db.rebuild_filters().expect("rebuild filters");
    let mix = OpMix::new(0.40, 0.40, 0.01, 0.19).with_selectivity(0.002);
    let queries = builder.query_phase(&mix, (entries as usize * 2).max(4_000), &mut rng);
    run(&db, &queries);

    let report = db.telemetry_report().expect("telemetry is on");
    if flag("--json") {
        println!("{}", report.to_json());
    } else if flag("--prometheus") {
        print!("{}", report.to_prometheus());
    } else {
        print!("{}", report.pretty());
    }

    drop(db);
    if !in_memory {
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
