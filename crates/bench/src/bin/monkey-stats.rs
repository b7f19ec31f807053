//! `monkey-stats`: populate a fresh store with telemetry on, drive a
//! mixed workload, and print the full telemetry report — latency
//! percentiles, per-level I/O attribution, measured-vs-model R, the
//! model-drift section, and the event timeline.
//!
//! ```text
//! monkey-stats [--entries N] [--shards N] [--in-memory]
//!              [--json | --prometheus]
//!              [--watch N] [--advise] [--budget BYTES] [--trace OUT.json]
//!              [--dir PATH] [--flight-recorder DIR]
//!              [--serve HOST:PORT [--serve-seconds N]]
//!              [--connect HOST:PORT]
//! ```
//!
//! By default the store is directory-backed (in a temp dir, removed on
//! exit) so the timeline includes WAL group commits; `--in-memory` skips
//! the filesystem. `--json` and `--prometheus` switch the output format
//! for machine consumption; the default is the human `pretty()` dump.
//!
//! Observatory flags:
//!
//! - `--watch N` cuts the query phase into `N` observatory windows and
//!   prints one rate line per window as it closes (ops/s, flush
//!   throughput, stall ratio, windowed write amplification).
//! - `--advise` resets the characterizer after the bulk load, measures
//!   the query phase's `(r, v, q, w)` mix, and prints the closed-loop
//!   [`TuningAdvisor`] report instead of the telemetry report — in the
//!   selected output format. `--budget BYTES` sets the memory budget the
//!   advisor allocates (default 1 MiB).
//! - `--trace OUT.json` writes the event timeline as Chrome trace-event
//!   JSON (load it at `chrome://tracing` or in Perfetto).
//!
//! Tracing flags:
//!
//! - `--dir PATH` roots the store at `PATH` and keeps it on exit (so its
//!   flight-recorder segments can be decoded afterwards). Directory-backed
//!   runs open with causal tracing on, spilling spans and events into
//!   `obs-NNNNNN.log` segments next to the WAL.
//! - `--flight-recorder DIR` skips the workload entirely: decode the
//!   recorder segments under `DIR` (and any `shard-*` subdirectories),
//!   print the recorded timeline's tail, and correlate the flush spans
//!   against the WAL segments and manifest still on disk — the post-crash
//!   forensics view.
//!
//! Observability-plane flags:
//!
//! - `--serve HOST:PORT` binds the store's embedded scrape endpoint
//!   ([`DbOptions::obs_listen`]) before the workload, wires the advisor
//!   into `/advice.json`, and after printing the report keeps the process
//!   (and the endpoint) alive — cutting observatory windows — so remote
//!   scrapers, `curl`, and `monkey-top --connect` can attach.
//!   `--serve-seconds N` bounds the serving phase (default: until
//!   interrupted).
//! - `--connect HOST:PORT` skips the local store and workload entirely:
//!   fetch the *remote* store's report and print it in the selected
//!   format (`--prometheus` relays `/metrics` verbatim; `--json` relays
//!   `/report.json`; the default re-renders the fetched report through
//!   the same `pretty()` dump a local run prints).

use monkey::{
    http_get, Db, DbOptions, DbOptionsExt, Environment, FlightRecorder, MergePolicy,
    RecorderRecord, SpanKind, TuningAdvisor,
};
use monkey_bench::dashboard::{fetch_report, window_line};
use monkey_workload::{KeySpace, Op, OpMix, TraceBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

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

/// Largest `wal-NNNNNN.log` id still present in `dir`, if any.
fn newest_wal_segment(dir: &Path) -> Option<u64> {
    std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.strip_prefix("wal-")?
                .strip_suffix(".log")?
                .parse()
                .ok()
        })
        .max()
}

/// Decodes the flight-recorder segments under one engine directory and
/// prints the recorded timeline against the directory's WAL/manifest
/// state. Returns false when the directory holds no recorder segments.
fn decode_one_dir(dir: &Path) -> bool {
    let flight = FlightRecorder::decode_dir(dir);
    if flight.segments == 0 {
        return false;
    }
    println!(
        "flight recorder at {}: {} segment(s), {} record(s){}",
        dir.display(),
        flight.segments,
        flight.records.len(),
        if flight.truncated {
            ", newest segment ends in a torn frame (crash tail)"
        } else {
            ""
        }
    );
    let newest_wal = newest_wal_segment(dir);
    let manifest = dir.join("MANIFEST").exists();
    println!(
        "  on-disk state: newest WAL segment {}, manifest {}",
        newest_wal.map_or("none".into(), |n| format!("wal-{n:06}.log")),
        if manifest { "present" } else { "absent" }
    );
    // Correlate: a flush span's third link is the pruned WAL seal point
    // +1 (0 = no WAL). Every recorded flush must have pruned strictly
    // below the newest segment still on disk.
    let mut flushes = 0u64;
    let mut inconsistent = 0u64;
    for r in &flight.records {
        if let RecorderRecord::Span(s) = r {
            if s.kind == SpanKind::Flush {
                flushes += 1;
                if let (Some(&seal_plus_one), Some(newest)) = (s.links.get(2), newest_wal) {
                    // `seal_plus_one > newest` ⟺ sealed segment ≥ newest:
                    // a seal at or above the live segment is impossible in
                    // a timeline the on-disk WAL agrees with.
                    if seal_plus_one > newest {
                        inconsistent += 1;
                    }
                }
            }
        }
    }
    println!(
        "  correlation: {flushes} recorded flush(es), {inconsistent} with a pruned WAL segment \
         at or above the newest on disk{}",
        if inconsistent == 0 {
            " (timeline consistent with recovered state)"
        } else {
            " — INCONSISTENT"
        }
    );
    let tail = flight.records.len().saturating_sub(32);
    if tail > 0 {
        println!("  ... {tail} older record(s) elided ...");
    }
    for r in &flight.records[tail..] {
        match r {
            RecorderRecord::Span(s) => println!(
                "  +{:>12.3}ms  span  {:<10} id={} parent={} dur={}us links={:?} [shard {}]",
                s.start_micros as f64 / 1e3,
                s.kind.name(),
                s.id,
                s.parent,
                s.duration_micros,
                s.links,
                s.shard
            ),
            RecorderRecord::Event(e) => {
                let fields = e
                    .kind
                    .fields()
                    .into_iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                println!(
                    "  +{:>12.3}ms  event {:<16} {} [shard {}]",
                    e.ts_micros as f64 / 1e3,
                    e.kind.name(),
                    fields,
                    e.shard
                );
            }
        }
    }
    true
}

/// `--flight-recorder DIR`: decode `DIR` and any `shard-*` children.
fn flight_recorder_main(dir: &Path) {
    let mut dirs: Vec<PathBuf> = vec![dir.to_path_buf()];
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if name.starts_with("shard-") && e.path().is_dir() {
                dirs.push(e.path());
            }
        }
    }
    dirs.sort();
    let decoded = dirs.iter().filter(|d| decode_one_dir(d)).count();
    if decoded == 0 {
        eprintln!(
            "no flight-recorder segments (obs-NNNNNN.log) under {}",
            dir.display()
        );
        std::process::exit(1);
    }
}

/// `--connect`: print a remote store's report instead of running one.
fn connect_main(addr: &str, json: bool, prometheus: bool) {
    if prometheus {
        // Relay the exposition verbatim — byte-identical to what a
        // Prometheus scraper of the same endpoint ingests.
        match http_get(addr, "/metrics") {
            Ok((200, body)) => print!("{body}"),
            Ok((status, body)) => {
                eprintln!(
                    "monkey-stats: {addr}/metrics answered {status}: {}",
                    body.trim()
                );
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("monkey-stats: GET {addr}/metrics: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if json {
        match http_get(addr, "/report.json") {
            Ok((200, body)) => println!("{body}"),
            Ok((status, body)) => {
                eprintln!(
                    "monkey-stats: {addr}/report.json answered {status}: {}",
                    body.trim()
                );
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("monkey-stats: GET {addr}/report.json: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    match fetch_report(addr) {
        Ok(report) => print!("{}", report.pretty()),
        Err(e) => {
            eprintln!("monkey-stats: {e}");
            std::process::exit(1);
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
    let watch: usize = value("--watch")
        .map(|v| v.parse().expect("--watch takes a window count"))
        .unwrap_or(0);
    let budget: usize = value("--budget")
        .map(|v| v.parse().expect("--budget takes bytes"))
        .unwrap_or(1 << 20);
    let trace_path = value("--trace");
    let advise = flag("--advise");

    if let Some(dir) = value("--flight-recorder") {
        flight_recorder_main(Path::new(&dir));
        return;
    }
    if let Some(addr) = value("--connect") {
        connect_main(&addr, flag("--json"), flag("--prometheus"));
        return;
    }

    let serve_addr = value("--serve");
    let keep_dir = value("--dir").map(PathBuf::from);
    let tmp = keep_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("monkey-stats-{}", std::process::id()))
    });
    let in_memory = flag("--in-memory");
    let base = if in_memory {
        DbOptions::in_memory()
    } else {
        let _ = std::fs::remove_dir_all(&tmp);
        // Directory-backed demo runs trace causally too, so the store
        // leaves decodable flight-recorder segments behind (see --dir).
        DbOptions::at_path(&tmp).tracing(true)
    };
    let mut opts = base
        .page_size(1024)
        .buffer_capacity(16 << 10)
        .size_ratio(2)
        .merge_policy(MergePolicy::Leveling)
        .monkey_filters(5.0)
        .telemetry(true)
        .shards(shards);
    if let Some(addr) = &serve_addr {
        opts = opts.obs_listen(addr.clone());
    }
    let db = Db::open(opts).expect("open");
    // With the endpoint up, wire the advisor so `/advice.json` serves the
    // closed-loop verdict, not just the measured mix.
    if serve_addr.is_some() {
        TuningAdvisor::new(Environment::disk(), budget).serve_on(&db);
    }

    // Load in random order, re-fit filters to the final shape, then a
    // query phase: zero-result gets (exercising the filters), existing
    // gets, overwrites, and short range scans.
    eprintln!("# monkey-stats: loading {entries} entries, then a mixed query phase");
    let builder = TraceBuilder::new(KeySpace::with_entry_size(entries, 64));
    let mut rng = StdRng::seed_from_u64(5);
    run(&db, &builder.load_phase(&mut rng));
    db.rebuild_filters().expect("rebuild filters");
    if advise {
        // Measure the query phase only: advising on the bulk load would
        // just tell the operator to optimize for blind writes.
        db.reset_telemetry();
    }

    let mix = OpMix::new(0.40, 0.40, 0.01, 0.19).with_selectivity(0.002);
    let queries = builder.query_phase(&mix, (entries as usize * 2).max(4_000), &mut rng);
    if watch > 0 {
        db.observatory_tick(); // baseline
        for (n, chunk) in queries.chunks(queries.len().div_ceil(watch)).enumerate() {
            run(&db, chunk);
            if let Some(w) = db.observatory_tick() {
                eprintln!("{}", window_line(n + 1, &w));
            }
        }
    } else {
        run(&db, &queries);
        if advise {
            // No windows were cut by --watch; cut enough deterministic
            // ones for the advisor's evidence gate.
            for _ in 0..5 {
                db.observatory_tick();
            }
        }
    }

    let report = db.telemetry_report().expect("telemetry is on");
    if let Some(path) = &trace_path {
        std::fs::write(path, report.to_chrome_trace()).expect("write trace");
        eprintln!("# wrote Chrome trace-event JSON to {path}");
    }

    if advise {
        let advisor = TuningAdvisor::new(Environment::disk(), budget);
        let advice = advisor.advise(&db).expect("telemetry is on");
        if flag("--json") {
            println!("{}", advice.to_json());
        } else if flag("--prometheus") {
            print!("{}", advice.to_prometheus());
        } else {
            print!("{}", advice.pretty());
        }
    } else if flag("--json") {
        println!("{}", report.to_json());
    } else if flag("--prometheus") {
        print!("{}", report.to_prometheus());
    } else {
        print!("{}", report.pretty());
    }

    if serve_addr.is_some() {
        let addr = db.obs_addr().expect("endpoint bound");
        let secs: u64 = value("--serve-seconds")
            .map(|v| v.parse().expect("--serve-seconds takes seconds"))
            .unwrap_or(u64::MAX);
        eprintln!(
            "# serving /metrics /report.json /advice.json /spans.json /events.json /healthz \
             at http://{addr}/ (attach with monkey-top --connect {addr})"
        );
        // Park, keeping the endpoint alive and the observatory windows
        // ticking so remote scrapers see fresh rates.
        let started = std::time::Instant::now();
        while started.elapsed().as_secs() < secs {
            std::thread::sleep(std::time::Duration::from_millis(250));
            db.observatory_tick();
        }
    }

    drop(db);
    if !in_memory {
        if keep_dir.is_some() {
            eprintln!(
                "# store kept at {} (decode with --flight-recorder)",
                tmp.display()
            );
        } else {
            let _ = std::fs::remove_dir_all(&tmp);
        }
    }
}
