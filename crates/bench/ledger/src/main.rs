//! The perf ledger: six paper-shaped workloads driven through the public
//! `monkey::Db` API as a closed loop, every result checked against an
//! oracle, end-to-end metrics from an untraced run and per-layer metrics
//! from a traced one. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON line (the driver's contract)
//! ledger run     [options]        every workload, every end-to-end metric, a result set
//! ledger trace   [options]        every workload, every per-layer metric, a result set
//! ledger compare <set-a> <set-b>  medians, ratios and verdicts against BENCHMARK.json
//! ```

mod compare;
mod gen;
mod host;
mod json;
mod probes;
mod reconcile;
mod results;
mod run;
mod spec;
mod stats;
mod store;
mod trace;

use json::Json;
use run::{Config, Report};
use spec::{Scale, Workload, RUN_SECONDS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage:
  ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--dir <store-dir>]
  ledger run|trace [--workload <name>]... [--seed <n>] [--runs <k>] [--seconds <s>] [--smoke]
                   [--dir <store-dir>] [--out <set.json>]
  ledger compare <set-a.json> <set-b.json> [--bench <BENCHMARK.json>]
workloads: get_miss get_cold get_hot scan ingest mixed
Stores live under target/ledger/store/<workload> unless --dir is given and are removed afterwards;
result sets and traces go to target/ledger/. --runs k repeats each workload at seeds n..n+k.";

/// Options shared by every mode that runs workloads.
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    runs: u64,
    seconds: u64,
    trace: Option<bool>,
    /// Print the full stamped run instead of the driver's four keys — how
    /// `run`/`trace` read their children.
    stamp: bool,
    scale: Scale,
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
    bench: PathBuf,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: Vec::new(),
        seed: 1,
        runs: 1,
        seconds: RUN_SECONDS,
        trace: None,
        stamp: false,
        scale: Scale::FULL,
        dir: None,
        out: None,
        bench: PathBuf::from("BENCHMARK.json"),
        positional: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("{arg} wants a whole number, got {text:?}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                options.workloads.push(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => options.seed = number(value()?)?,
            "--runs" => options.runs = number(value()?)?.max(1),
            "--seconds" => options.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => {
                options.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                })
            }
            "--stamp" => options.stamp = true,
            "--smoke" => options.scale = Scale::SMOKE,
            "--dir" => options.dir = Some(PathBuf::from(value()?)),
            "--out" => options.out = Some(PathBuf::from(value()?)),
            "--bench" => options.bench = PathBuf::from(value()?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => options.positional.push(arg.clone()),
        }
    }
    Ok(options)
}

const LEDGER_DIR: &str = "target/ledger";

fn run_one(
    options: &Options,
    workload: Workload,
    seed: u64,
    traced: bool,
) -> Result<Report, store::Error> {
    let dir = match &options.dir {
        Some(dir) => dir.clone(),
        None => Path::new(LEDGER_DIR).join("store").join(workload.name()),
    };
    let config = Config {
        workload,
        seed,
        seconds: options.seconds,
        scale: options.scale,
        dir,
    };
    if traced {
        let trace_path = Path::new(LEDGER_DIR).join(format!("trace-{}.json", workload.name()));
        trace::run(config, &trace_path)
    } else {
        run::run(config)
    }
}

/// Prints one run of a result set: its stamp, then every metric by name
/// with its unit.
fn print_run(run: &Json) {
    let text = |key| run.get(key).and_then(Json::as_str).unwrap_or("?");
    let number = |key| run.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let flag = |key| run.get(key) == Some(&Json::Bool(true));
    println!(
        "\n{} seed={} {} half_ops={} latency_samples={} backend={} fs={} nproc={} rev={}{}",
        text("workload"),
        number("seed"),
        if flag("trace") { "traced" } else { "untraced" },
        number("half_ops"),
        number("latency_samples"),
        text("backend"),
        text("fs_type"),
        number("nproc"),
        text("git_rev"),
        if flag("single_core") {
            " SINGLE-CORE"
        } else {
            ""
        },
    );
    if let Some(workload) = Workload::parse(text("workload")) {
        println!("  why: {}", workload.why());
    }
    if let Some(Json::Object(metrics)) = run.get("metrics") {
        for (name, metric) in metrics {
            println!(
                "  {name:34} {:>16.4} {}",
                metric
                    .get("value")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN),
                metric.get("unit").and_then(Json::as_str).unwrap_or("?"),
            );
        }
    }
    println!(
        "  attempted {}  failed {}",
        number("attempted"),
        number("failed")
    );
}

/// The driver's contract: one workload, one JSON object on the last line.
fn contract(options: &Options) -> Result<ExitCode, store::Error> {
    let [workload] = options.workloads[..] else {
        return Err("exactly one --workload is required".into());
    };
    let traced = options.trace.ok_or("--trace 0|1 is required")?;
    let report = run_one(options, workload, options.seed, traced)?;
    if let Some(why) = &report.first_failure {
        eprintln!(
            "{}: {} of {} ops failed; first: {why}",
            workload.name(),
            report.failed,
            report.attempted
        );
    }
    let line = if options.stamp {
        results::run_json(&report).render()
    } else {
        results::contract_line(&report)
    };
    println!("{line}");
    Ok(if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `ledger run` / `ledger trace`: every workload (or the ones named), each
/// at `--runs` consecutive seeds, printed by name and unit and written as
/// a result set. Every run is a process of its own, as under the driver:
/// `peak_rss_mb` is a high-water mark of the process, and one run's heap
/// must not be the next run's baseline.
fn run_set(options: &Options, traced: bool) -> Result<ExitCode, store::Error> {
    let workloads = if options.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        options.workloads.clone()
    };
    let mut runs = Vec::new();
    let mut failed = 0.0;
    for workload in workloads {
        for seed in options.seed..options.seed + options.runs {
            let mut child = Command::new(std::env::current_exe()?);
            child.args(["--workload", workload.name(), "--stamp"]);
            child.args(["--seed", &seed.to_string()]);
            child.args(["--seconds", &options.seconds.to_string()]);
            child.args(["--trace", if traced { "1" } else { "0" }]);
            if options.scale == Scale::SMOKE {
                child.arg("--smoke");
            }
            if let Some(dir) = &options.dir {
                child.arg("--dir").arg(dir);
            }
            // `output` waits for the child; its stderr is ours.
            let output = child.stderr(Stdio::inherit()).output()?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let run = stdout
                .lines()
                .last()
                .and_then(|line| Json::parse(line).ok())
                .ok_or_else(|| {
                    format!(
                        "{} at seed {seed} gave no result ({})",
                        workload.name(),
                        output.status
                    )
                })?;
            print_run(&run);
            failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            runs.push(run);
        }
    }
    let out = options.out.clone().unwrap_or_else(|| {
        let kind = if traced { "trace" } else { "run" };
        Path::new(LEDGER_DIR).join(format!("set-{kind}-seed{}.json", options.seed))
    });
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let count = runs.len();
    std::fs::write(&out, results::set_json(runs).render() + "\n")?;
    println!(
        "\nresult set: {} ({count} runs, {failed} failed ops)",
        out.display()
    );
    Ok(if failed == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read_json(path: &Path) -> Result<Json, store::Error> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)
}

fn compare_sets(options: &Options) -> Result<ExitCode, store::Error> {
    let [_, a, b] = &options.positional[..] else {
        return Err("compare wants two result sets".into());
    };
    let (table, worse) = compare::compare(
        &read_json(&options.bench)?,
        &read_json(Path::new(a))?,
        &read_json(Path::new(b))?,
    )?;
    print!("{table}");
    println!("\n{worse} worse");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match options.positional.first().map(String::as_str) {
        None => contract(&options),
        Some("run") => run_set(&options, false),
        Some("trace") => run_set(&options, true),
        Some("compare") => compare_sets(&options),
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}").into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::{MetricDef, END_TO_END, PER_LAYER};

    /// A store directory of this test's own: tests run on parallel threads.
    fn config(workload: Workload, seed: u64, tag: &str) -> Config {
        Config {
            workload,
            seed,
            seconds: RUN_SECONDS,
            scale: Scale::SMOKE,
            dir: PathBuf::from(format!("target/ledger/test/{tag}-{}", workload.name())),
        }
    }

    fn value(report: &Report, name: &str) -> f64 {
        let found = report.metrics.iter().find(|m| m.name == name);
        found.unwrap_or_else(|| panic!("no {name}")).value
    }

    fn assert_emits(report: &Report, declared: &[MetricDef]) {
        let emitted: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
        let declared: Vec<(&str, &str)> = declared.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(emitted, declared, "{}", report.config.workload.name());
        for metric in &report.metrics {
            assert!(
                metric.value.is_finite(),
                "{} is {}",
                metric.name,
                metric.value
            );
        }
    }

    #[test]
    fn every_workload_runs_clean_at_smoke_scale_and_emits_exactly_the_declared_metrics() {
        let end_to_end: Vec<MetricDef> = END_TO_END.iter().map(|(def, _)| *def).collect();
        for workload in Workload::ALL {
            if workload.background_compaction() && host::nproc() < 2 {
                let refused = run::run(config(workload, 1, "refused")).unwrap_err();
                assert!(refused.to_string().contains("second core"), "{refused}");
                continue;
            }
            let untraced = run::run(config(workload, 1, "untraced")).unwrap();
            assert_eq!(untraced.failed, 0, "{:?}", untraced.first_failure);
            assert!(untraced.attempted >= 2 * untraced.config.half_ops());
            assert_emits(&untraced, &end_to_end);
            for metric in &untraced.metrics {
                assert!(metric.value > 0.0, "{} must never be 0", metric.name);
            }

            let traced_config = config(workload, 1, "traced");
            let trace_path = traced_config.dir.with_extension("trace.json");
            let traced = trace::run(traced_config, &trace_path).unwrap();
            assert_eq!(traced.failed, 0, "{:?}", traced.first_failure);
            assert_emits(&traced, PER_LAYER);
            let value = |name| value(&traced, name);
            assert_eq!(
                value("storage.cache.hits") > 0.0,
                workload == Workload::GetHot
            );
            assert_eq!(value("lsm.wal.appends") == 0.0, workload.read_only());
            assert_eq!(value("lsm.db.failed_frac"), 0.0);
            if workload == Workload::Scan {
                assert_eq!(value("bloom.filter.probes"), 0.0);
            }
            let spans = std::fs::read_to_string(&trace_path).unwrap();
            assert!(Json::parse(&spans).is_ok(), "the trace file is not JSON");
            std::fs::remove_file(&trace_path).unwrap();
        }
    }

    #[test]
    fn the_same_seed_repeats_the_io_counts_exactly() {
        let first = run::run(config(Workload::GetMiss, 7, "repeat-a")).unwrap();
        let second = run::run(config(Workload::GetMiss, 7, "repeat-b")).unwrap();
        for name in ["ios_per_op", "space_amp"] {
            assert_eq!(value(&first, name), value(&second, name), "{name}");
        }
        assert!(value(&first, "ios_per_op") > 0.0);
    }

    #[test]
    fn the_contract_line_has_exactly_the_four_keys() {
        let report = run::run(config(Workload::GetCold, 2, "contract")).unwrap();
        let Json::Object(line) = Json::parse(&results::contract_line(&report)).unwrap() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = line.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line["correct"], Json::Bool(true));
        assert_eq!(line["failed"], Json::Number(0.0));
        let set = results::set_json(vec![results::run_json(&report)]);
        assert_eq!(set.get("claim"), Some(&Json::Null));
        let stamp = &set.get("runs").and_then(Json::as_array).unwrap()[0];
        for key in [
            "nproc",
            "git_rev",
            "seed",
            "half_ops",
            "backend",
            "fs_type",
            "single_core",
        ] {
            assert!(stamp.get(key).is_some(), "result sets must carry {key}");
        }
    }

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    /// `BENCHMARK.json` at the repository root says what `spec` says, and
    /// both stay inside the driver's limits.
    #[test]
    fn benchmark_json_mirrors_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let bench = read_json(Path::new(path)).unwrap();
        let Json::Object(top) = &bench else {
            panic!("not an object");
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(top["run_seconds"], Json::Number(RUN_SECONDS as f64));
        assert_eq!(
            top["paths"],
            Json::Array(vec![Json::string("crates/bench/ledger")])
        );

        let text =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();
        let workloads: Vec<(String, String)> = top["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let declared: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(workloads, declared);
        for (name, why) in &workloads {
            assert!(valid_name(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {} chars",
                why.len()
            );
        }

        let (gates, _) = compare::gates(&bench).unwrap();
        assert_eq!(gates.len(), END_TO_END.len());
        for (gate, (def, bound)) in gates.iter().zip(END_TO_END) {
            assert_eq!(
                (gate.name.as_str(), gate.unit.as_str()),
                (def.name, def.unit)
            );
            assert_eq!(gate.higher_is_better, def.better == "higher");
            assert_eq!(gate.bound, *bound);
            assert!(*bound > 0.0 && *bound <= 0.25);
        }
        assert!(gates
            .iter()
            .any(|g| g.name == "setup_s" && g.unit == "s" && !g.higher_is_better));

        let per_layer: Vec<(String, String, String)> = top["per_layer"]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let declared: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(per_layer, declared);
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);

        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|(m, _)| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for def in PER_LAYER.iter().chain(END_TO_END.iter().map(|(m, _)| m)) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(valid_unit(def.unit), "{}: {}", def.name, def.unit);
            assert!(["higher", "lower"].contains(&def.better), "{}", def.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let args: Vec<String> = "--workload scan --seed 9 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let options = parse(&args).unwrap();
        assert_eq!(options.workloads, [Workload::Scan]);
        assert_eq!(
            (options.seed, options.seconds, options.trace),
            (9, 10, Some(true))
        );
        assert!(options.positional.is_empty());
        assert!(parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse(&["--trace".into(), "2".into()]).is_err());
        assert!(parse(&["--seed".into()]).is_err());
        assert!(parse(&["--frobnicate".into()]).is_err());
    }
}
