//! The workload observatory end to end: online `(r, v, q, w)` estimation
//! converging on a known ground-truth mix, the closed loop back into
//! `OpMix`, advisor agreement with a direct Appendix D `tune` call,
//! advisor convergence under Zipf traffic (read-heavy vs write-heavy
//! designs), and windowed sampling under saturating concurrent writes.

use monkey::{Db, DbOptions, Environment, MergePolicy, TuningAdvisor, Workload};
use monkey_workload::{KeySpace, Op, OpMix, TraceBuilder, ZipfianSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn observed_options() -> DbOptions {
    DbOptions::in_memory()
        .page_size(1024)
        .buffer_capacity(16 << 10)
        .size_ratio(4)
        .merge_policy(MergePolicy::Leveling)
        .telemetry(true)
}

fn observed_db() -> Arc<Db> {
    Db::open(observed_options()).unwrap()
}

fn run_trace(db: &Db, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Put(k, v) => db.put(k.clone(), v.clone()).unwrap(),
            Op::Delete(k) => db.delete(k.clone()).unwrap(),
            Op::GetMissing(k) | Op::GetExisting(k) => {
                db.get(k).unwrap();
            }
            Op::Range(lo, hi) => {
                db.range(lo, Some(hi)).unwrap().for_each(|kv| {
                    kv.unwrap();
                });
            }
        }
    }
}

/// Tentpole acceptance: drive a synthetic workload with a known `OpMix`
/// ground truth; the characterizer's measured `(r, v, q, w)` must land
/// within ±0.02 of it, and `OpMix::from_measured` must close the loop.
///
/// On one shard and on four: a scan that fans out over four shards is still
/// one range lookup, so `q` — and with it the total — is what was issued.
#[test]
fn measured_mix_converges_to_ground_truth() {
    for shards in [1, 4] {
        measured_mix_converges_on(Db::open(observed_options().shards(shards)).unwrap());
    }
}

fn measured_mix_converges_on(db: Arc<Db>) {
    let keys = KeySpace::with_entry_size(4000, 64);
    let tb = TraceBuilder::new(keys);
    let mut rng = StdRng::seed_from_u64(9);

    // Load phase: all updates. Reset the characterizer afterwards so the
    // measurement covers only the query phase with the known mix.
    run_trace(&db, &tb.load_phase(&mut rng));
    db.reset_telemetry();

    let truth = OpMix::new(0.30, 0.35, 0.05, 0.30).with_selectivity(0.002);
    run_trace(&db, &tb.query_phase(&truth, 10_000, &mut rng));

    let m = db.measured_workload().unwrap();
    assert_eq!(m.total(), 10_000, "every op classified exactly once");
    assert!(
        (m.r() - truth.zero_result_lookups).abs() < 0.02,
        "r={}",
        m.r()
    );
    assert!((m.v() - truth.existing_lookups).abs() < 0.02, "v={}", m.v());
    assert!((m.q() - truth.range_lookups).abs() < 0.02, "q={}", m.q());
    assert!((m.w() - truth.updates).abs() < 0.02, "w={}", m.w());

    // The measured selectivity is in the right decade of the truth (range
    // spans are quantized to whole keys, so exact equality is too strict).
    let entries = 4000;
    let s = m.selectivity(entries);
    assert!(
        s > truth.range_selectivity / 3.0 && s < truth.range_selectivity * 3.0,
        "selectivity {s} vs truth {}",
        truth.range_selectivity
    );

    // Closing the loop: the measured workload converts back into an OpMix
    // whose fractions match what was measured.
    let mix = OpMix::from_measured(&m, entries).unwrap();
    assert!((mix.zero_result_lookups - m.r()).abs() < 1e-12);
    assert!((mix.updates - m.w()).abs() < 1e-12);
    assert_eq!(mix.range_selectivity, s);
}

/// Tentpole acceptance: on the measured mix, the advisor's recommendation
/// equals a direct `model::tuner::tune` call with the same inputs.
#[test]
fn advisor_agrees_with_direct_tune() {
    use monkey_model::{tune, MemoryStrategy, Params, Policy, TuningConstraints};

    let db = observed_db();
    let keys = KeySpace::with_entry_size(4000, 64);
    let tb = TraceBuilder::new(keys);
    let mut rng = StdRng::seed_from_u64(11);
    run_trace(&db, &tb.load_phase(&mut rng));
    let truth = OpMix::new(0.40, 0.20, 0.0, 0.40);
    run_trace(&db, &tb.query_phase(&truth, 4_000, &mut rng));
    for _ in 0..4 {
        db.observatory_tick();
    }

    let budget = 1usize << 20;
    let advisor = TuningAdvisor::new(Environment::disk(), budget);
    let advice = advisor.advise(&db).unwrap();
    assert!(advice.confident(), "enough samples and windows");
    let rec = advice.recommended.as_ref().expect("released");

    let base = Params::new(
        advice.entries as f64,
        (advice.entry_bytes * 8) as f64,
        (db.options().page_size * 8) as f64,
        (db.options().page_size * 8) as f64,
        2.0,
        Policy::Leveling,
    );
    let wl = Workload::new(
        advice.measured_r,
        advice.measured_v,
        advice.measured_q,
        advice.measured_w,
        advice.measured_selectivity,
    );
    let direct = tune(
        &base,
        &MemoryStrategy::Allocate {
            total_bits: (budget * 8) as f64,
        },
        &wl,
        &Environment::disk(),
        &TuningConstraints::default(),
    );
    let expected_policy = match direct.policy {
        Policy::Leveling => "leveling",
        Policy::Tiering => "tiering",
    };
    assert_eq!(rec.policy, expected_policy);
    assert_eq!(rec.size_ratio, direct.size_ratio);
    assert_eq!(rec.theta, direct.theta);
    assert_eq!(rec.throughput, direct.throughput);

    // All three render surfaces produce non-trivial output.
    assert!(advice.pretty().contains("recommended"));
    assert!(advice.to_json().contains("\"recommended\""));
    assert!(advice
        .to_prometheus()
        .contains("monkey_advisor_worst_case_throughput"));
}

/// Satellite: advisor convergence under skewed traffic. A Zipf-skewed
/// read-heavy workload must get a leveled recommendation with a larger
/// size ratio than a write-heavy one gets (the paper's Figure 9 shape:
/// lookups push toward leveling/large T, updates toward tiering/small T).
#[test]
fn zipf_read_heavy_recommends_bigger_t_than_write_heavy() {
    // Big enough that the tree has real depth, with a memory budget well
    // under the dataset size — the regime where the (policy, T) choice
    // actually trades lookup cost against merge cost (Figure 9's shape).
    // A toy dataset that fits a level or two prices every design alike.
    const N: u64 = 50_000;
    let zipf = ZipfianSampler::new(N, 0.99);
    let keys = KeySpace::with_entry_size(N, 64);
    let mut rng = StdRng::seed_from_u64(13);
    let advisor = TuningAdvisor::new(Environment::disk(), 64 << 10);

    let mut advise_for = |read_fraction: f64| {
        let db = Db::open(
            DbOptions::in_memory()
                .page_size(1024)
                .buffer_capacity(64 << 10)
                .size_ratio(4)
                .merge_policy(MergePolicy::Leveling)
                .telemetry(true),
        )
        .unwrap();
        let tb = TraceBuilder::new(keys);
        run_trace(&db, &tb.load_phase(&mut rng));
        db.reset_telemetry();
        for i in 0..6_000u64 {
            let rank = zipf.sample(&mut rng);
            if (i as f64 / 6_000.0) < read_fraction {
                db.get(&keys.existing_key(rank % N)).unwrap();
            } else {
                db.put(keys.existing_key(rank % N), keys.value_for(rank % N))
                    .unwrap();
            }
        }
        for _ in 0..4 {
            db.observatory_tick();
        }
        advisor.advise(&db).unwrap()
    };

    let read_heavy = advise_for(0.95);
    let write_heavy = advise_for(0.05);
    let rh = read_heavy.recommended.expect("gate passed");
    let wh = write_heavy.recommended.expect("gate passed");
    assert!(read_heavy.measured_v > 0.9, "reads hit existing Zipf keys");
    assert!(write_heavy.measured_w > 0.9);
    assert_eq!(rh.policy, "leveling", "read-heavy wants leveling");
    assert!(
        rh.size_ratio > wh.size_ratio || wh.policy == "tiering",
        "read-heavy T={} must exceed write-heavy T={} (or write-heavy must tier)",
        rh.size_ratio,
        wh.size_ratio
    );
    assert!(
        wh.policy == "tiering" || wh.size_ratio < rh.size_ratio,
        "write-heavy must merge more lazily"
    );
}

/// Satellite: the sampler thread keeps cutting consistent windows while
/// writers saturate the pipeline. Rates must never be negative or NaN and
/// windows must be time-ordered even as counters race.
#[test]
fn sampler_windows_stay_sane_under_saturating_writes() {
    let db = Db::open(
        DbOptions::in_memory()
            .page_size(512)
            .buffer_capacity(4 << 10)
            .background_compaction(true)
            .max_immutable_memtables(2)
            .telemetry(true)
            .observatory_interval(Duration::from_millis(2))
            .observatory_retention(256),
    )
    .unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    crossbeam::scope(|s| {
        for w in 0..4 {
            let db = &db;
            let stop = Arc::clone(&stop);
            s.spawn(move |_| {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    db.put(format!("w{w}-{i:08}").into_bytes(), vec![0u8; 64])
                        .unwrap();
                    i += 1;
                }
            });
        }
        std::thread::sleep(Duration::from_millis(150));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    })
    .unwrap();

    let series = db.observatory().unwrap();
    let windows = series.windows();
    assert!(
        windows.len() >= 3,
        "sampler cut only {} windows in 150ms at 2ms interval",
        windows.len()
    );
    let mut prev_end = 0u64;
    for w in &windows {
        assert!(w.start_micros >= prev_end, "windows out of order");
        prev_end = w.end_micros;
        for rate in [
            w.ops_per_sec,
            w.puts_per_sec,
            w.gets_per_sec,
            w.ranges_per_sec,
            w.bytes_flushed_per_sec,
            w.stall_ratio,
            w.write_amp,
        ] {
            assert!(rate.is_finite() && rate >= 0.0, "bad rate {rate}");
        }
        for io in &w.level_io {
            assert!(io.reads_per_sec >= 0.0 && io.writes_per_sec >= 0.0);
        }
    }
    let smoothed = series.smoothed().expect("windows recorded");
    assert!(smoothed.ops_per_sec > 0.0, "EWMA saw the write storm");
    let m = db.measured_workload().unwrap();
    assert!(m.updates > 0 && m.w() == 1.0, "all ops were puts");
    // The stall gauge returned to zero once the writers stopped.
    assert_eq!(db.pipeline_gauges().stalled_writers, 0);
}

/// Satellite: deterministic ticks cut exactly one window each and honor
/// retention with an eviction count, on a live engine.
#[test]
fn deterministic_ticks_and_retention_on_live_engine() {
    let db = Db::open(
        DbOptions::in_memory()
            .page_size(512)
            .buffer_capacity(8 << 10)
            .telemetry(true)
            .observatory_retention(2),
    )
    .unwrap();
    assert!(db.observatory_tick().is_none(), "baseline");
    for round in 0..5u32 {
        for i in 0..50u32 {
            db.put(format!("r{round}-{i:04}").into_bytes(), vec![0u8; 16])
                .unwrap();
        }
        assert!(db.observatory_tick().is_some(), "each tick closes a window");
    }
    let series = db.observatory().unwrap();
    assert_eq!(series.len(), 2, "retention bounds the ring");
    assert_eq!(series.recorded(), 5);
    assert_eq!(series.evicted(), 3);
}
