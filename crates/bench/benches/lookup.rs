//! Telemetry overhead on the point-lookup path, the one thing this file
//! measures that the perf ledger does not: what a lookup costs with the
//! telemetry hub on against off. The lookup path itself — zero-result
//! gets, existing-key gets, the page probe — is the ledger's `get_miss`,
//! `get_cold` and `lsm.page.search_ns`.

use monkey_bench::{load, ExpConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cfg() -> ExpConfig {
    ExpConfig {
        entries: 1 << 14,
        ..ExpConfig::paper_default()
    }
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

fn main() {
    // `cargo test --benches` passes `--test`: keep the smoke run cheap.
    let test_mode = std::env::args().any(|a| a == "--test");
    telemetry_overhead(if test_mode { 2_000 } else { 100_000 });
}
