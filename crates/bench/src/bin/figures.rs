//! Regenerates the paper's tables and figures: `figures [name…]` runs the
//! named rows of [`monkey_bench::figures::EXPERIMENTS`] (all of them when
//! none is named) and writes `results/<name>.csv` under the current
//! directory.

use monkey_bench::figures::EXPERIMENTS;
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = names
        .iter()
        .find(|n| EXPERIMENTS.iter().all(|e| e.name != n.as_str()))
    {
        eprintln!("figures: no experiment named `{unknown}`; the registry holds:");
        for e in EXPERIMENTS {
            eprintln!("  {:<26}{}", e.name, e.title);
        }
        return ExitCode::from(2);
    }
    std::fs::create_dir_all("results").expect("create results/");
    for e in EXPERIMENTS {
        if names.is_empty() || names.iter().any(|n| n == e.name) {
            eprintln!(">>> {}: {}", e.name, e.title);
            let path = format!("results/{}.csv", e.name);
            std::fs::write(&path, e.csv()).unwrap_or_else(|err| panic!("write {path}: {err}"));
        }
    }
    ExitCode::SUCCESS
}
