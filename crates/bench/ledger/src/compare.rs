//! `ledger compare <set-a> <set-b>`: per (metric, workload) both medians,
//! their ratio with its base, and a verdict against the bounds of
//! `BENCHMARK.json`.

use crate::json::Json;
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::fmt::Write;

/// How set B stands against set A on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Within,
    /// B is worse than A by more than the bound.
    Worse,
    /// B is better than A by more than the bound.
    Better,
    /// A set's own quartile spread exceeds the bound: the runs cannot
    /// resolve a difference that small.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// An end-to-end metric's gate, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The verdict for values `a` (the base) and `b` under `gate`.
pub fn judge(gate: &Gate, a: &[f64], b: &[f64]) -> Verdict {
    if spread(a) > gate.bound || spread(b) > gate.bound {
        return Verdict::Unresolved;
    }
    let (base, new) = (median(a), median(b));
    // The share of the base by which B is worse (negative: better).
    let worse_by = match (base == 0.0, gate.higher_is_better) {
        (true, _) if new == base => 0.0,
        (true, higher) => {
            if (new > base) == higher {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }
        }
        (false, true) => (base - new) / base.abs(),
        (false, false) => (new - base) / base.abs(),
    };
    if worse_by > gate.bound {
        Verdict::Worse
    } else if worse_by < -gate.bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// The `end_to_end` gates and the workload names of a `BENCHMARK.json`.
pub fn gates(bench: &Json) -> Result<(Vec<Gate>, Vec<String>), String> {
    let list = |key: &str| {
        bench
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))
    };
    let text = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json entry without `{key}`"))
    };
    let mut gates = Vec::new();
    for item in list("end_to_end")? {
        gates.push(Gate {
            name: text(item, "name")?,
            unit: text(item, "unit")?,
            higher_is_better: text(item, "better")? == "higher",
            bound: item
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json end_to_end entry without `bound`")?,
        });
    }
    let workloads = list("workloads")?
        .iter()
        .map(|item| text(item, "name"))
        .collect::<Result<_, _>>()?;
    Ok((gates, workloads))
}

/// `(workload, metric) → values` over a set's untraced runs.
fn values_of(set: &Json) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let runs = set
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("result set has no `runs` list")?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs {
        if run.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without `workload`")?;
        let Some(Json::Object(metrics)) = run.get("metrics") else {
            return Err("run without `metrics`".into());
        };
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name} without a numeric `value`"))?;
            out.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// Renders the comparison table and returns it with the number of `worse`
/// rows. A pair missing from either set is an error: a silent gap would
/// read as "no regression".
pub fn compare(bench: &Json, set_a: &Json, set_b: &Json) -> Result<(String, usize), String> {
    let (gates, workloads) = gates(bench)?;
    let (a, b) = (values_of(set_a)?, values_of(set_b)?);
    let mut table = String::new();
    let mut worse = 0;
    writeln!(
        table,
        "| metric | workload | unit | A median (n, spread) | B median (n, spread) | B / A | bound | verdict |\n|---|---|---|---|---|---|---|---|"
    )
    .expect("write to String");
    for gate in &gates {
        for workload in &workloads {
            let key = (workload.clone(), gate.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                return Err(format!("{} @ {workload} is missing from a set", gate.name));
            };
            let verdict = judge(gate, va, vb);
            worse += usize::from(verdict == Verdict::Worse);
            let (ma, mb) = (median(va), median(vb));
            let ratio = if ma == 0.0 { f64::NAN } else { mb / ma };
            writeln!(
                table,
                "| {} | {workload} | {} | {ma:.4} ({}, {:.1}%) | {mb:.4} ({}, {:.1}%) | {ratio:.4} of {ma:.4} | {:.0}% | {} |",
                gate.name,
                gate.unit,
                va.len(),
                spread(va) * 100.0,
                vb.len(),
                spread(vb) * 100.0,
                gate.bound * 100.0,
                verdict.as_str(),
            )
            .expect("write to String");
        }
    }
    Ok((table, worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(higher_is_better: bool, bound: f64) -> Gate {
        Gate {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = gate(false, 0.10);
        assert_eq!(judge(&lower, &[100.0], &[109.0]), Verdict::Within);
        assert_eq!(judge(&lower, &[100.0], &[111.0]), Verdict::Worse);
        assert_eq!(judge(&lower, &[100.0], &[89.0]), Verdict::Better);
        let higher = gate(true, 0.10);
        assert_eq!(judge(&higher, &[100.0], &[91.0]), Verdict::Within);
        assert_eq!(judge(&higher, &[100.0], &[89.0]), Verdict::Worse);
        assert_eq!(judge(&higher, &[100.0], &[111.0]), Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let lower = gate(false, 0.05);
        let noisy = [90.0, 100.0, 110.0, 95.0, 105.0];
        assert!(spread(&noisy) > 0.05);
        assert_eq!(judge(&lower, &noisy, &[100.0; 5]), Verdict::Unresolved);
        assert_eq!(judge(&lower, &[100.0; 5], &noisy), Verdict::Unresolved);
    }

    #[test]
    fn a_zero_base_is_worse_only_when_it_moves_the_wrong_way() {
        let lower = gate(false, 0.05);
        assert_eq!(judge(&lower, &[0.0], &[0.0]), Verdict::Within);
        assert_eq!(judge(&lower, &[0.0], &[0.1]), Verdict::Worse);
        assert_eq!(judge(&gate(true, 0.05), &[0.0], &[0.1]), Verdict::Better);
    }

    fn set(values: &[(&str, &str, f64)]) -> Json {
        Json::object([(
            "runs",
            Json::Array(
                values
                    .iter()
                    .map(|(workload, name, value)| {
                        Json::object([
                            ("workload", Json::string(*workload)),
                            ("trace", Json::Bool(false)),
                            (
                                "metrics",
                                Json::object([(
                                    *name,
                                    Json::object([("value", Json::Number(*value))]),
                                )]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn compare_counts_worse_rows_and_refuses_gaps() {
        let bench = Json::parse(
            r#"{"workloads":[{"name":"w","why":""}],
                "end_to_end":[{"name":"lat","unit":"us","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let a = set(&[("w", "lat", 10.0), ("w", "lat", 10.2)]);
        let same = set(&[("w", "lat", 10.4)]);
        let slow = set(&[("w", "lat", 12.0)]);
        let (table, worse) = compare(&bench, &a, &same).unwrap();
        assert_eq!(worse, 0);
        assert!(table.contains("| lat | w | us |") && table.contains("within"));
        assert_eq!(compare(&bench, &a, &slow).unwrap().1, 1);
        assert!(compare(&bench, &a, &set(&[("other", "lat", 1.0)])).is_err());
    }
}
