//! The paper's figures as a gate: what the registry produces is, byte for
//! byte, what `results/` holds; what DESIGN.md §7 promises holds on those
//! rows; and the registry, `results/` and DESIGN.md §4 list the same
//! experiments.
//!
//! `cargo test --release -p monkey-bench --test figures` regenerates all
//! 21 experiments. An unoptimised build (tier-1's `cargo test`) takes ten
//! times as long per engine row, so there the [`HEAVY`] rows are ignored.

use monkey_bench::figures::{Experiment, EXPERIMENTS};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

/// Engine rows that take more than 3 s in an unoptimised build (3.5–37 s
/// each, 133 s together; the other 12 rows take 7 s).
const HEAVY: &[&str] = &[
    "fig11a_data_volume",
    "fig11b_entry_size",
    "fig11c_bits_per_entry",
    "fig11e_pareto",
    "fig11f_navigation",
    "fig12_cache",
    "ablation_allocation",
    "ablation_page_size",
    "zipfian_cache",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn committed(name: &str) -> String {
    let path = repo_root().join(format!("results/{name}.csv"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Panics with the experiment's name and the first line that differs.
fn assert_is_committed_file(name: &str, produced: &str) {
    let committed = committed(name);
    if produced == committed {
        return;
    }
    let mut lines = produced.lines().zip(committed.lines()).enumerate();
    match lines.find(|(_, (p, c))| p != c) {
        Some((i, (p, c))) => panic!(
            "{name}: line {} differs from results/{name}.csv\n  produced:  {p}\n  committed: {c}\n\
             If the change is meant, regenerate with `figures {name}`, commit the file and say \
             why in EXPERIMENTS.md.",
            i + 1
        ),
        None => panic!(
            "{name}: {} lines produced, results/{name}.csv has {}",
            produced.lines().count(),
            committed.lines().count()
        ),
    }
}

fn assert_rows_are_committed_files(select: impl Fn(&Experiment) -> bool) {
    for e in EXPERIMENTS.iter().filter(|e| select(e)) {
        assert_is_committed_file(e.name, &e.csv());
    }
}

#[test]
fn model_and_light_engine_figures_are_the_committed_files() {
    assert_rows_are_committed_files(|e| !HEAVY.contains(&e.name));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "133 s unoptimised; `cargo test --release -p monkey-bench --test figures` runs it"
)]
fn heavy_engine_figures_are_the_committed_files() {
    assert_rows_are_committed_files(|e| HEAVY.contains(&e.name));
}

/// `figures range_cost` in a fresh directory, under an environment that
/// would change the engine's defaults. Four shards hold four trees of a
/// quarter of the data each: were `ExpConfig::options` to inherit
/// `MONKEY_SHARDS`, `runs` and every I/O count of this row would change.
#[test]
fn figures_ignore_the_environment() {
    let dir = std::env::temp_dir().join(format!("monkey-figures-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("range_cost")
        .current_dir(&dir)
        .env("MONKEY_SHARDS", "4")
        .status()
        .unwrap();
    assert!(status.success(), "figures range_cost: {status}");
    let written = std::fs::read_to_string(dir.join("results/range_cost.csv")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_is_committed_file("range_cost", &written);
}

#[test]
fn figures_binary_refuses_an_unknown_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("fig99_nothing")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig99_nothing") && stderr.contains("fig11a_data_volume"));
}

/// An experiment exists in three places — a registry row, a committed
/// file, a row of DESIGN.md §4 naming `figures <name>` — or in none.
#[test]
fn registry_results_and_design_index_list_the_same_experiments() {
    let registry: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.name.to_string()).collect();
    assert_eq!(registry.len(), EXPERIMENTS.len(), "duplicate registry name");
    assert!(HEAVY.iter().all(|h| registry.contains(*h)));

    let results: BTreeSet<String> = std::fs::read_dir(repo_root().join("results"))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|file| file != "README.md")
        .map(|file| file.strip_suffix(".csv").unwrap_or(&file).to_string())
        .collect();
    assert_eq!(registry, results, "registry vs results/ (CSV files only)");

    let design = std::fs::read_to_string(repo_root().join("DESIGN.md")).unwrap();
    let section = design
        .split_once("\n## 4. ")
        .and_then(|(_, rest)| rest.split_once("\n## 5. "))
        .expect("DESIGN.md has a §4 followed by a §5")
        .0;
    let indexed: BTreeSet<String> = section
        .lines()
        .filter(|line| line.starts_with('|'))
        .flat_map(|line| line.split("`figures ").skip(1))
        .map(|rest| rest.split('`').next().unwrap().to_string())
        .collect();
    assert_eq!(
        registry, indexed,
        "registry vs DESIGN.md §4 `figures <name>`"
    );
}

/// A committed CSV, addressed by column name.
struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn committed(name: &str) -> Self {
        let text = committed(name);
        let mut lines = text
            .lines()
            .map(|l| l.split(',').map(str::to_string).collect::<Vec<_>>());
        Table {
            header: lines.next().expect("header"),
            rows: lines.collect(),
        }
    }

    fn col(&self, name: &str) -> usize {
        let found = self.header.iter().position(|h| h == name);
        found.unwrap_or_else(|| panic!("no column {name} in {:?}", self.header))
    }

    /// Column `value` of the one row whose named columns are `key` (an
    /// `allocation` by its kind: `uniform` finds `uniform5`).
    fn get(&self, key: &[(&str, &str)], value: &str) -> f64 {
        let is = |cell: &str, col: &str, want: &str| match col {
            "allocation" => cell.trim_end_matches(|c: char| !c.is_alphabetic()) == want,
            _ => cell == want,
        };
        let mut matching = self.rows.iter().filter(|row| {
            key.iter()
                .all(|(col, want)| is(&row[self.col(col)], col, want))
        });
        let row = matching.next().unwrap_or_else(|| panic!("no row {key:?}"));
        assert!(matching.next().is_none(), "several rows {key:?}");
        row[self.col(value)].parse().unwrap()
    }

    /// The distinct values of a column, in file order.
    fn distinct(&self, col: &str) -> Vec<&str> {
        let mut seen = Vec::new();
        for row in &self.rows {
            let v = row[self.col(col)].as_str();
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen
    }
}

/// Rows on which one of DESIGN.md §7's criteria does not hold today, each with
/// the ROADMAP item that will fix it or the reason it stands. The test
/// fails on a failing row that is not listed *and* on a listed row that
/// holds: closing an item shows as a deletion here.
const EXPECTED_FAILURES: &[(&str, &str)] = &[
    (
        "fig11f lookup_fraction=0.100000",
        "ROADMAP item 2(a): the tuner's T16 is chosen on the model's W, which the engine's spill \
         rule does not pay (navigable 3039.80 < fixed 3377.14)",
    ),
    (
        "fig11f lookup_fraction=0.900000",
        "ROADMAP item 2(c): the model's lookup gain from L6 does not appear at harness scale, \
         its update penalty does (navigable 532.96 < fixed 621.11)",
    ),
    (
        "fig11e config=L8",
        "after the update batch the tree is one run, so both policies build the same 5-bit \
         filter (expected R 0.0900 and 0.0905): 713 and 693 false positives in 8192 lookups \
         are two draws of one rate (monkey 0.0870 > uniform 0.0846)",
    ),
];

/// Verdicts per row, compared with [`EXPECTED_FAILURES`] at the end.
#[derive(Default)]
struct Criteria {
    failed: BTreeSet<String>,
}

impl Criteria {
    fn check(&mut self, row: String, holds: bool) {
        if !holds {
            self.failed.insert(row);
        }
    }
}

/// "Monkey's zero-result lookup I/O cost is flat in N at fixed bits/entry
/// while the uniform baseline grows logarithmically (Fig. 11A/B, Table 1)."
/// Flat: every Monkey point of Fig. 11(A) within 0.13–0.20 I/Os over a 32×
/// range of N. Growing: uniform at the largest N costs ≥ 1.5× what it does
/// at the smallest.
fn fig11a_monkey_flat_uniform_grows(c: &mut Criteria) {
    let t = Table::committed("fig11a_data_volume");
    let sizes = t.distinct("entries");
    for n in &sizes {
        let monkey = t.get(
            &[("entries", n), ("allocation", "monkey")],
            "ios_per_lookup",
        );
        c.check(
            format!("fig11a entries={n}"),
            (0.13..=0.20).contains(&monkey),
        );
    }
    let uniform = |n: &str| {
        t.get(
            &[("entries", n), ("allocation", "uniform")],
            "ios_per_lookup",
        )
    };
    c.check(
        "fig11a uniform growth".into(),
        uniform(sizes[sizes.len() - 1]) >= 1.5 * uniform(sizes[0]),
    );
}

/// "Monkey matches baseline lookup cost with substantially less filter
/// memory (Fig. 11C; paper: up to ~60 % less)." The curves meet at 0 bits
/// (one unfiltered store, the costliest row), Monkey's runs below uniform's
/// at every budget above it, and uniform's cost at the default 5
/// bits/entry is reached by a Monkey point holding ≥ 35 % fewer filter bits
/// (today 39.9 %, the point at 3 bits/entry).
fn fig11c_monkey_needs_less_memory(c: &mut Criteria) {
    let t = Table::committed("fig11c_bits_per_entry");
    // (ios_per_lookup, filter_bits_actual) of an allocation kind at a budget.
    let point = |budget: &str, kind: &str| {
        let at = [("bits_per_entry", budget), ("allocation", kind)];
        (
            t.get(&at, "ios_per_lookup"),
            t.get(&at, "filter_bits_actual"),
        )
    };
    let budgets = t.distinct("bits_per_entry");
    let unfiltered = point(budgets[0], "none");
    let rows_at_0_bits = t.rows.iter().filter(|r| r[0] == budgets[0]).count();
    c.check(
        "fig11c meet at 0 bits".into(),
        rows_at_0_bits == 1 && unfiltered.1 == 0.0,
    );
    for b in &budgets[1..] {
        let (uniform, monkey) = (point(b, "uniform"), point(b, "monkey"));
        c.check(
            format!("fig11c bits_per_entry={b}"),
            monkey.0 < uniform.0 && uniform.0 < unfiltered.0,
        );
    }
    let default = point("5.000000", "uniform");
    let saving = budgets[1..]
        .iter()
        .map(|b| point(b, "monkey"))
        .filter(|monkey| monkey.0 <= default.0)
        .map(|monkey| 1.0 - monkey.1 / default.1)
        .fold(0.0, f64::max);
    c.check("fig11c memory saved at 5 bits/entry".into(), saving >= 0.35);
}

/// "Non-zero-result lookups improve across all temporal localities and are
/// less sensitive to c than the baseline (Fig. 11D; paper: up to ~30 %)."
/// Monkey below uniform for every 0 < c < 1 (at 0 and 1 every lookup is
/// answered by one page or by the buffer, whatever the filters).
fn fig11d_monkey_below_uniform(c: &mut Criteria) {
    let t = Table::committed("fig11d_temporal_locality");
    for locality in t.distinct("c") {
        let value: f64 = locality.parse().unwrap();
        if value <= 0.0 || value >= 1.0 {
            continue;
        }
        let cost = |a: &str| t.get(&[("c", locality), ("allocation", a)], "ios_per_lookup");
        c.check(
            format!("fig11d c={locality}"),
            cost("monkey") < cost("uniform"),
        );
    }
}

/// "The measured (lookup, update) points per (policy, T) trace the model's
/// Pareto curve, with Monkey strictly below the baseline curve (Fig. 11E)."
/// At each configuration: an update cost no higher than uniform's, a lower
/// lookup cost. (Not the same update cost: a flush merges in one pass the
/// levels its plan proves will spill, the proof reads the filters, and
/// Monkey's sharper filters on the small levels prove more spills.)
fn fig11e_monkey_below_baseline(c: &mut Criteria) {
    let t = Table::committed("fig11e_pareto");
    for config in t.distinct("config") {
        let at = |a: &str, col: &str| t.get(&[("config", config), ("allocation", a)], col);
        c.check(
            format!("fig11e config={config}"),
            at("monkey", "update_ios_per_op") <= at("uniform", "update_ios_per_op")
                && at("monkey", "lookup_ios_per_op") < at("uniform", "lookup_ios_per_op"),
        );
    }
}

/// "Navigable Monkey ≥ Fixed Monkey ≥ Baseline throughput for every mix
/// [...] (Fig. 11F)."
fn fig11f_navigable_fixed_baseline(c: &mut Criteria) {
    let t = Table::committed("fig11f_navigation");
    for mix in t.distinct("lookup_fraction") {
        let tput = |system: &str| {
            t.get(
                &[("lookup_fraction", mix), ("system", system)],
                "throughput_ops_per_sec",
            )
        };
        c.check(
            format!("fig11f lookup_fraction={mix}"),
            tput("navigable-monkey") >= tput("fixed-monkey")
                && tput("fixed-monkey") >= tput("leveldb"),
        );
    }
}

/// "With a block cache, curves converge as locality c→1 but Monkey retains
/// its advantage at low/mid c (Fig. 12)." For each cache size the
/// uniform–Monkey gap at c = 0.9 is smaller than at c = 0.1, where it is
/// positive.
fn fig12_curves_converge(c: &mut Criteria) {
    let t = Table::committed("fig12_cache");
    for cache in t.distinct("cache_pct") {
        let gap = |locality: &str| {
            let cost = |a: &str| {
                t.get(
                    &[("cache_pct", cache), ("c", locality), ("allocation", a)],
                    "ios_per_lookup",
                )
            };
            cost("uniform") - cost("monkey")
        };
        c.check(
            format!("fig12 cache_pct={cache}"),
            gap("0.900000") < gap("0.100000") && gap("0.100000") > 0.0,
        );
    }
}

#[test]
fn design_section_7_holds_on_the_committed_rows() {
    let mut criteria = Criteria::default();
    fig11a_monkey_flat_uniform_grows(&mut criteria);
    fig11c_monkey_needs_less_memory(&mut criteria);
    fig11d_monkey_below_uniform(&mut criteria);
    fig11e_monkey_below_baseline(&mut criteria);
    fig11f_navigable_fixed_baseline(&mut criteria);
    fig12_curves_converge(&mut criteria);

    let expected: BTreeSet<String> = EXPECTED_FAILURES
        .iter()
        .map(|(row, _)| row.to_string())
        .collect();
    let unexpected: Vec<_> = criteria.failed.difference(&expected).collect();
    let fixed: Vec<_> = expected.difference(&criteria.failed).collect();
    assert!(
        unexpected.is_empty(),
        "DESIGN.md §7 does not hold on {unexpected:?}"
    );
    assert!(
        fixed.is_empty(),
        "{fixed:?} hold now: delete them from EXPECTED_FAILURES"
    );
}
