//! Every table and figure of the paper (plus this repository's ablations
//! and extensions) as one registry: [`EXPERIMENTS`] is the index, an
//! experiment is a function writing rows into an in-memory [`Csv`], and
//! [`Experiment::csv`] is the whole of `results/<name>.csv`. The `figures`
//! binary writes those files; `tests/figures.rs` compares them byte for
//! byte with the committed ones, so a figure cannot move unnoticed.
//!
//! Engine-backed experiments are seeded, run in memory and take their
//! options from [`ExpConfig::options`], which pins what the environment
//! could otherwise change: their output depends on the code alone.

use crate::*;
use monkey::{model_params_for, to_engine_policy, ScheduleFilterPolicy};
use monkey_bloom::{math, BloomFilterBuilder};
use monkey_model::autotune::{autotune_filters, RunSpec};
use monkey_model::design_space::{curve, preset_point, presets, ratio_sweep};
use monkey_model::tuner::tune_traced;
use monkey_model::{
    baseline_fprs, baseline_zero_result_lookup_cost, l_unfiltered, optimal_fprs, range_lookup_cost,
    tune, update_cost, zero_result_lookup_cost, Environment, MemoryAllocation, MemoryStrategy,
    Params, Policy, TuningConstraints, Workload,
};
use monkey_workload::ZipfianSampler;
use std::fmt::Display;

/// One row of the registry.
pub struct Experiment {
    /// File stem under `results/` and argument of the `figures` binary.
    pub name: &'static str,
    /// What the experiment shows and at which parameters, in one line.
    pub title: &'static str,
    /// The CSV's first line.
    pub header: &'static str,
    /// Writes the rows below the header.
    pub run: fn(&mut Csv),
}

impl Experiment {
    /// The experiment's whole output: its header, then its rows.
    pub fn csv(&self) -> String {
        let mut out = Csv(format!("{}\n", self.header));
        (self.run)(&mut out);
        out.0
    }
}

/// Rows of one experiment, accumulated in memory.
pub struct Csv(String);

impl Csv {
    /// Appends one row.
    pub fn row(&mut self, values: &[&dyn Display]) {
        let cells: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        self.0.push_str(&cells.join(","));
        self.0.push('\n');
    }
}

/// The index of experiments, in the order of DESIGN.md §4.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig01_systems",
        title: "Figure 1: systems on the lookup/update cost plane \
                (N=2^30, E=1KiB, page=4KiB, buffer=2MiB, phi=1)",
        header: "system,policy,T,bits_per_entry,update_cost_ios,lookup_cost_ios",
        run: fig01_systems,
    },
    Experiment {
        name: "fig04_design_space",
        title: "Figure 4: design space sweep, T in [2, T_lim=32768]",
        header: "policy,T,levels,update_cost_ios,lookup_cost_ios,extreme",
        run: fig04_design_space,
    },
    Experiment {
        name: "fig06_fpr_assignment",
        title: "Figure 6: FPR assignment per level, L=7, T=2, leveling",
        header: "R,level,state_of_the_art_fpr,monkey_fpr,monkey_filtered",
        run: fig06_fpr_assignment,
    },
    Experiment {
        name: "fig07_lookup_vs_memory",
        title: "Figure 7: R vs M_filters at the paper's 512TB configuration",
        header: "policy,m_filters_gb,bits_per_entry,monkey_R,baseline_R,l_unfiltered",
        run: fig07_lookup_vs_memory,
    },
    Experiment {
        name: "fig08_pareto",
        title: "Figure 8: Monkey vs state of the art across the whole design space",
        header: "allocation,policy,T,update_cost_ios,lookup_cost_ios",
        run: fig08_pareto,
    },
    Experiment {
        name: "fig09_memory_allocation",
        title: "Figure 9: R and W vs buffer/filter memory split, T=4, leveling",
        header: "buffer_fraction,buffer_mb,filters_bpe,monkey_R,baseline_R,W",
        run: fig09_memory_allocation,
    },
    Experiment {
        name: "fig10_tuner_trace",
        title: "Figure 10: tuner probe trace (paper Fig 11F configuration)",
        header: "workload_lookup_frac,step,i,policy,T,theta,accepted",
        run: fig10_tuner_trace,
    },
    Experiment {
        name: "table1_asymptotics",
        title:
            "Table 1: asymptotics as scaling series (R vs N, vs buffer, at T_lim, vs bits/entry)",
        header: "series,x,monkey_R,baseline_R,levels",
        run: table1_asymptotics,
    },
    Experiment {
        name: "fig11a_data_volume",
        title: "Figure 11(A): lookup cost vs data volume (T=2, 5 bits/entry)",
        header: "entries,levels,allocation,ios_per_lookup,latency_ms_disk",
        run: fig11a_data_volume,
    },
    Experiment {
        name: "fig11b_entry_size",
        title: "Figure 11(B): lookup cost vs entry size (N=2^14, T=2, 5 bits/entry)",
        header: "entry_bytes,levels,allocation,ios_per_lookup,latency_ms_disk",
        run: fig11b_entry_size,
    },
    Experiment {
        name: "fig11c_bits_per_entry",
        title: "Figure 11(C): lookup cost vs bits/entry (N=2^16, T=2)",
        header: "bits_per_entry,allocation,ios_per_lookup,filter_bits_actual",
        run: fig11c_bits_per_entry,
    },
    Experiment {
        name: "fig11d_temporal_locality",
        title: "Figure 11(D): existing-key lookup cost vs temporal locality",
        header: "c,allocation,ios_per_lookup,excess_over_one_io",
        run: fig11d_temporal_locality,
    },
    Experiment {
        name: "fig11e_pareto",
        title:
            "Figure 11(E): measured Pareto curve (labels as in the paper: T=tiering, L=leveling)",
        header: "config,allocation,update_ios_per_op,lookup_ios_per_op",
        run: fig11e_pareto,
    },
    Experiment {
        name: "fig11f_navigation",
        title: "Figure 11(F): throughput vs lookup/update ratio",
        header: "lookup_fraction,system,config,throughput_ops_per_sec",
        run: fig11f_navigation,
    },
    Experiment {
        name: "fig12_cache",
        title: "Figure 12: block cache x temporal locality",
        header: "cache_pct,c,allocation,ios_per_lookup,cache_hit_ratio",
        run: fig12_cache,
    },
    Experiment {
        name: "appc_autotune",
        title: "Appendix C: iterative vs analytic filter allocation, \
                then the adaptive vs the monkey policy on the engine",
        header: "layout,m_bits_per_entry,iterative_R,analytic_R",
        run: appc_autotune,
    },
    Experiment {
        name: "range_cost",
        title: "Range lookup cost vs Eq. 11 (N=2^15 x 64B)",
        header: "policy,T,selectivity,runs,measured_pages,measured_seeks,model_q",
        run: range_cost,
    },
    Experiment {
        name: "ablation_allocation",
        title: "Ablation: filter allocation strategies at 5 bits/entry total",
        header: "entries,allocation,ios_per_lookup,filter_bits_per_entry",
        run: ablation_allocation,
    },
    Experiment {
        name: "ablation_hash_count",
        title: "Ablation: hash count k vs Eq. 2 optimum (N=50000, 200000 probes)",
        header: "bits_per_entry,k,optimal_k,measured_fpr,eq2_fpr",
        run: ablation_hash_count,
    },
    Experiment {
        name: "ablation_page_size",
        title: "Ablation: page size sweep (N=2^15 x 64B, T=2, monkey 5 b/e)",
        header: "page_bytes,B_entries,update_ios_per_op,lookup_ios_per_op,fence_kib",
        run: ablation_page_size,
    },
    Experiment {
        name: "zipfian_cache",
        title: "Zipfian lookups x block cache (N=2^16 x 64B, 5 b/e)",
        header: "cache_pct,theta,allocation,ios_per_lookup,cache_hit_ratio",
        run: zipfian_cache,
    },
];

/// Lookups per query phase.
const LOOKUPS: u64 = 8_192;
/// Updates per write phase.
const UPDATES: u64 = 16_384;
/// The paper's comparison: the state of the art and Monkey at the same
/// total filter memory.
const UNIFORM_VS_MONKEY: [FilterKind; 2] = [FilterKind::Uniform(5.0), FilterKind::Monkey(5.0)];

/// Production-scale shape for the model-only design-space figures: 1 KiB
/// entries, 4 KiB pages, 2 MiB buffer.
fn model_params(entries: f64, size_ratio: f64) -> Params {
    Params::new(
        entries,
        8192.0,
        32768.0,
        8.0 * 2097152.0,
        size_ratio,
        Policy::Leveling,
    )
}

/// The paper's labels for a tuning: `T4` is tiering at size ratio 4, `L2`
/// leveling at 2.
fn tuning_label(policy: MergePolicy, size_ratio: usize) -> String {
    match policy {
        MergePolicy::Tiering => format!("T{size_ratio}"),
        MergePolicy::Leveling => format!("L{size_ratio}"),
    }
}

// ---------------------------------------------------------------- model

/// Figure 1: default configurations of production key-value stores on the
/// (update cost, lookup cost) plane, versus Monkey on the Pareto curve.
/// Model-based, using the systems' documented defaults (§1/§6): leveling
/// T=10 @ 10 bits/entry for LevelDB/RocksDB/cLSM/bLSM, leveling T=15 @ 16
/// for WiredTiger, tiering T=4 @ 10 for Cassandra/HBase. Monkey shares
/// LevelDB's structure but allocates its filter memory optimally.
fn fig01_systems(out: &mut Csv) {
    let base = model_params((1u64 << 30) as f64, 10.0);
    for preset in presets() {
        let point = preset_point(&base, &preset, 1.0);
        out.row(&[
            &preset.name,
            &format!("{:?}", preset.policy),
            &preset.size_ratio,
            &preset.bits_per_entry,
            &f(point.update_cost),
            &f(point.lookup_cost),
        ]);
    }
}

/// Figure 4: the LSM-tree design space from a write-optimized log to a
/// read-optimized sorted array. Sweeps the size ratio `T` from 2 to `T_lim`
/// under both merge policies (uniform state-of-the-art filters, as in the
/// original figure); tiering at `T_lim` is a log, leveling at `T_lim` a
/// sorted array.
fn fig04_design_space(out: &mut Csv) {
    let base = model_params((1u64 << 26) as f64, 2.0);
    let ts = ratio_sweep(base.t_lim(), 16);
    for policy in [Policy::Tiering, Policy::Leveling] {
        for point in curve(&base, policy, &ts, 10.0 * base.entries, 1.0, false) {
            let extreme = if (point.size_ratio - base.t_lim()).abs() < 1e-6 {
                match policy {
                    Policy::Tiering => "log",
                    Policy::Leveling => "sorted-array",
                }
            } else {
                ""
            };
            out.row(&[
                &format!("{policy:?}"),
                &f(point.size_ratio),
                &base.with_tuning(point.size_ratio, policy).levels(),
                &f(point.update_cost),
                &f(point.lookup_cost),
                &extreme,
            ]);
        }
    }
}

/// Figure 6: how Monkey assigns false positive rates across levels versus
/// the state of the art, including the deep levels whose filters cease to
/// exist as the lookup-cost budget `R` grows.
fn fig06_fpr_assignment(out: &mut Csv) {
    let levels = 7;
    let t = 2.0;
    for r in [0.25, 0.5, 1.0, 2.5, 4.0] {
        let monkey = optimal_fprs(levels, t, Policy::Leveling, r);
        let base = baseline_fprs(levels, t, Policy::Leveling, r);
        for level in 1..=levels {
            out.row(&[
                &f(r),
                &level,
                &f(base[level - 1]),
                &f(monkey[level - 1]),
                &(monkey[level - 1] < 1.0),
            ]);
        }
    }
}

/// Figure 7: zero-result lookup cost `R` versus filter memory at the
/// paper's own configuration: 512 TB of data (N = 2³⁵ entries of 16 bytes),
/// T = 4, buffer 2 MiB, filter memory swept from 0 to 35 GB. The curves
/// meet at M_filters = 0 (an unfiltered tree, R = L·X), Monkey's drops
/// below the baseline everywhere else, and past M_threshold the baseline
/// still decays like L·e^(−M/N·ln2²) while Monkey's plateau constant is
/// T^(T/(T−1))/(T−1).
fn fig07_lookup_vs_memory(out: &mut Csv) {
    for policy in [Policy::Leveling, Policy::Tiering] {
        let p = Params::new(
            (1u64 << 35) as f64,
            16.0 * 8.0,
            16384.0 * 8.0,
            8.0 * 2097152.0,
            4.0,
            policy,
        );
        // 0 to 35 GB in (uneven, knee-resolving) steps.
        for gb in [
            0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0, 16.0,
            20.0, 24.0, 28.0, 32.0, 35.0,
        ] {
            let m_filters = gb * 8e9;
            out.row(&[
                &format!("{policy:?}"),
                &f(gb),
                &f(m_filters / p.entries),
                &f(zero_result_lookup_cost(&p, m_filters)),
                &f(baseline_zero_result_lookup_cost(&p, m_filters)),
                &l_unfiltered(&p, m_filters),
            ]);
        }
    }
}

/// Figure 8: the Figure 4 curves with Monkey added — Monkey shifts the
/// whole lookup/update trade-off down to the Pareto frontier for every
/// merge policy and size ratio, meeting the state of the art only at the
/// structural extremes (log / sorted array, where filters are irrelevant
/// or the tree has one level).
fn fig08_pareto(out: &mut Csv) {
    let base = model_params((1u64 << 26) as f64, 2.0);
    let ts = ratio_sweep(base.t_lim(), 16);
    for (monkey, label) in [(false, "state-of-the-art"), (true, "monkey")] {
        for policy in [Policy::Tiering, Policy::Leveling] {
            for point in curve(&base, policy, &ts, 10.0 * base.entries, 1.0, monkey) {
                out.row(&[
                    &label,
                    &format!("{policy:?}"),
                    &f(point.size_ratio),
                    &f(point.update_cost),
                    &f(point.lookup_cost),
                ]);
            }
        }
    }
}

/// Figure 9: lookup cost `R` and update cost `W` as the buffer/filter split
/// of a fixed memory budget `M` sweeps from one page of buffer to
/// all-buffer. The state-of-the-art lookup curve *falls* over a long
/// stretch as buffer grows at the expense of filters (its filters harm
/// it), while Monkey's is flat until the filters are squeezed below
/// M_threshold/T^L; update cost falls logarithmically with buffer size for
/// both — the "sweet spot" sits right before the lookup knee.
fn fig09_memory_allocation(out: &mut Csv) {
    // N = 2^26 1 KiB entries; M = buffer + filters = 16 bits/entry total.
    let entries = (1u64 << 26) as f64;
    let page_bits = 32768.0;
    let m_total = 16.0 * entries;
    let steps = 25;
    for k in 0..=steps {
        // Geometric sweep of the buffer share from one page to all of M.
        let frac = (page_bits / m_total) * (m_total / page_bits).powf(k as f64 / steps as f64);
        let buffer_bits = m_total * frac;
        let filter_bits = m_total - buffer_bits;
        let p = model_params(entries, 4.0).with_buffer_bits(buffer_bits);
        out.row(&[
            &f(frac),
            &f(buffer_bits / 8.0 / 1e6),
            &f(filter_bits / entries),
            &f(zero_result_lookup_cost(&p, filter_bits)),
            &f(baseline_zero_result_lookup_cost(&p, filter_bits)),
            &f(update_cost(&p, 1.0)),
        ]);
    }
}

/// Figure 10: the divide-and-conquer tuner's probe sequence as it
/// linearizes the (merge policy × size ratio) space and homes in on the
/// throughput-maximizing point.
fn fig10_tuner_trace(out: &mut Csv) {
    let base = Params::new(1048576.0, 8192.0, 32768.0, 8388608.0, 2.0, Policy::Leveling);
    let strat = MemoryStrategy::Fixed(MemoryAllocation {
        buffer_bits: base.buffer_bits,
        filter_bits: 5.0 * base.entries,
    });
    for frac in [0.1, 0.5, 0.9] {
        let mut trace = Vec::new();
        tune_traced(
            &base,
            &strat,
            &Workload::lookups_vs_updates(frac),
            &Environment::disk(),
            &TuningConstraints::default(),
            Some(&mut trace),
        );
        for (step, probe) in trace.iter().enumerate() {
            out.row(&[
                &f(frac),
                &step,
                &probe.i,
                &format!("{:?}", probe.policy),
                &f(probe.size_ratio),
                &f(probe.theta),
                &probe.accepted,
            ]);
        }
    }
}

/// Table 1: asymptotic behaviour, checked numerically as scaling series.
///
/// 1. With `M_filters/N` fixed (> threshold), Monkey's lookup cost is flat
///    in `N` while the state of the art grows by a constant per `N×T`
///    (i.e. logarithmically) — rows 2/3, columns (c) vs (e).
/// 2. Monkey's lookup cost is independent of the buffer size; the
///    baseline's is not (the `M_buffer` term disappears from column (e)).
/// 3. At `T = T_lim` both collapse into a log (tiering) or sorted array
///    (leveling) — rows 1/4.
/// 4. Below `M_threshold`, Monkey's cost grows like the unfiltered-level
///    count — columns (b)/(d).
fn table1_asymptotics(out: &mut Csv) {
    let mut row = |series: &str, x: String, p: &Params, m_filters: f64| {
        out.row(&[
            &series,
            &x,
            &f(zero_result_lookup_cost(p, m_filters)),
            &f(baseline_zero_result_lookup_cost(p, m_filters)),
            &p.levels(),
        ]);
    };

    // Claim 1: scale N at fixed bits/entry = 5 (> 1.44 threshold).
    for exp in [20, 22, 24, 26, 28, 30, 32] {
        let n = 2f64.powi(exp);
        row(
            "scale-N",
            format!("2^{exp}"),
            &model_params(n, 2.0),
            5.0 * n,
        );
    }

    // Claim 2: scale the buffer at fixed N and filter memory.
    let n = 2f64.powi(26);
    let p = model_params(n, 2.0);
    for mb in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        let scaled = p.with_buffer_bits(mb * 8e6);
        row("scale-buffer", format!("{mb}MB"), &scaled, 5.0 * n);
    }

    // Claim 3: T -> T_lim degenerates to one level for both.
    let tlim = p.t_lim();
    for policy in [Policy::Leveling, Policy::Tiering] {
        let collapsed = p.with_tuning(tlim, policy);
        row(&format!("t-lim-{policy:?}"), f(tlim), &collapsed, 5.0 * n);
    }

    // Claim 4: below the threshold, unfiltered levels dominate.
    for bpe in [0.0, 0.2, 0.5, 0.8, 1.0, 1.2, 1.44, 2.0, 5.0] {
        row("scale-bpe", f(bpe), &p, bpe * n);
    }
}

// --------------------------------------------------------------- engine

/// One swept value of Figures 11(A–C), the paper's default protocol (§5):
/// per filter allocation at `bits_per_entry` (none at 0), load the store,
/// issue uniformly distributed zero-result lookups, hand the result to
/// `row`.
fn zero_result_point(
    cfg: ExpConfig,
    bits_per_entry: f64,
    mut row: impl FnMut(FilterKind, &LoadedDb, Measurement),
) {
    let allocations: &[FilterKind] = if bits_per_entry == 0.0 {
        &[FilterKind::None]
    } else {
        &[
            FilterKind::Uniform(bits_per_entry),
            FilterKind::Monkey(bits_per_entry),
        ]
    };
    for &filters in allocations {
        let loaded = load(&cfg.with_filters(filters), 42);
        let m = zero_result_lookups(&loaded, LOOKUPS, 7);
        row(filters, &loaded, m);
    }
}

/// Figures 11(A) and (B) sweep what deepens the tree; their rows are the
/// swept value, the depth it produced and the lookup cost.
fn depth_sweep_point(out: &mut Csv, x: &dyn Display, cfg: ExpConfig) {
    zero_result_point(cfg, 5.0, |filters, loaded, m| {
        out.row(&[
            x,
            &loaded.db.stats().depth(),
            &filters.label(),
            &f(m.ios_per_op),
            &f(m.latency_ms_per_op),
        ]);
    });
}

/// Figure 11(A): zero-result lookup cost vs. number of entries. The uniform
/// baseline's cost grows logarithmically with N (one more unit per added
/// level) while Monkey's stays flat, so Monkey's margin grows with data
/// volume (paper: 50–80%).
fn fig11a_data_volume(out: &mut Csv) {
    for exp in 12..=17 {
        let entries = 1u64 << exp;
        let cfg = ExpConfig {
            entries,
            ..ExpConfig::paper_default()
        };
        depth_sweep_point(out, &entries, cfg);
    }
}

/// Figure 11(B): zero-result lookup cost vs. entry size, at a fixed number
/// of entries. Growing entries deepen the tree (more levels for the same
/// buffer) — same mechanism as Figure 11(A), driven by `E` instead of `N`.
fn fig11b_entry_size(out: &mut Csv) {
    for entry_bytes in [32usize, 64, 128, 256, 512] {
        let cfg = ExpConfig {
            entries: 1 << 14,
            entry_bytes,
            page_bytes: 4096.max(entry_bytes * 4),
            ..ExpConfig::paper_default()
        };
        depth_sweep_point(out, &entry_bytes, cfg);
    }
}

/// Figure 11(C): zero-result lookup cost vs. the filter memory budget in
/// bits per entry. At 0 bits both systems degenerate to an unfiltered
/// LSM-tree and the curves meet; as memory grows Monkey drops much faster
/// (the paper: it matches the baseline with up to ~60% less memory); at
/// very high budgets both approach zero I/Os and nearly converge again.
fn fig11c_bits_per_entry(out: &mut Csv) {
    for bpe in [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 14.0] {
        zero_result_point(ExpConfig::paper_default(), bpe, |filters, loaded, m| {
            out.row(&[
                &f(bpe),
                &filters.label(),
                &f(m.ios_per_op),
                &loaded.db.stats().filter_bits,
            ]);
        });
    }
}

/// Figure 11(D): non-zero-result lookup cost vs. temporal locality
/// coefficient `c`. Every lookup finds its key, so it costs at least one
/// I/O (the paper's dotted "1 I/O per lookup" line); everything above that
/// line is false positives at the levels probed on the way down. Both
/// systems are largely insensitive to `c` (even recent entries sit below
/// several levels), the baseline drifts down slightly as locality rises,
/// and Monkey is both lower (paper: up to ~30%) and flatter, because its
/// shallow-level FPRs are exponentially small.
fn fig11d_temporal_locality(out: &mut Csv) {
    // Lookups on a store without a cache change nothing in it: one load
    // per allocation serves every `c`.
    let stores = UNIFORM_VS_MONKEY.map(|filters| {
        let loaded = load(&ExpConfig::paper_default().with_filters(filters), 42);
        (filters, loaded)
    });
    for c in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
        for (filters, loaded) in &stores {
            let m = existing_lookups_temporal(loaded, c, LOOKUPS, 7);
            out.row(&[
                &f(c),
                &filters.label(),
                &f(m.ios_per_op),
                &f(m.ios_per_op - 1.0),
            ]);
        }
    }
}

/// The trial of Figure 11(E): the amortized cost of a fresh update batch,
/// then — filters re-fit to the tree the batch reshaped — the zero-result
/// lookup cost.
fn update_then_lookup(loaded: &LoadedDb) -> (Measurement, Measurement) {
    let w = updates(loaded, UPDATES, 5);
    loaded.db.rebuild_filters().expect("rebuild filters");
    loaded.db.reset_io();
    (w, zero_result_lookups(loaded, LOOKUPS, 7))
}

/// Figure 11(E): the measured lookup/update trade-off across merge policies
/// and size ratios — Monkey shifts the whole curve down to the Pareto
/// frontier. For every configuration Monkey's lookup cost is below the
/// baseline's at identical update cost, and the (tiering, larger T) end
/// trades lookup cost for cheaper updates.
fn fig11e_pareto(out: &mut Csv) {
    let points = [
        (MergePolicy::Tiering, 8),
        (MergePolicy::Tiering, 4),
        (MergePolicy::Tiering, 3),
        (MergePolicy::Leveling, 2), // T=2: tiering == leveling
        (MergePolicy::Leveling, 3),
        (MergePolicy::Leveling, 4),
        (MergePolicy::Leveling, 8),
    ];
    for (policy, size_ratio) in points {
        for filters in UNIFORM_VS_MONKEY {
            let cfg = ExpConfig {
                policy,
                size_ratio,
                filters,
                ..ExpConfig::paper_default()
            };
            let (w, r) = update_then_lookup(&load(&cfg, 42));
            out.row(&[
                &tuning_label(policy, size_ratio),
                &filters.label(),
                &f(w.ios_per_op),
                &f(r.ios_per_op),
            ]);
        }
    }
}

/// Figure 11(F): throughput vs. the lookup/update ratio for three systems:
///
/// * **LevelDB** — uniform filters, fixed size ratio 2;
/// * **Fixed Monkey** — Monkey's filters, same fixed structure;
/// * **Navigable Monkey** — Monkey's filters plus the Appendix D tuner
///   choosing (merge policy, size ratio) per workload mix.
///
/// Expected shape: Fixed Monkey above LevelDB everywhere; Navigable Monkey
/// on top with a bell-shaped advantage (extreme mixes admit more
/// specialized tunings; the paper reports >2× at the edges), adopting
/// tiering for update-heavy mixes and larger-T leveling for lookup-heavy
/// ones (its labels: T4..T2/L2..L16).
fn fig11f_navigation(out: &mut Csv) {
    let ops = 65_536;
    let base_cfg = ExpConfig::paper_default();
    let params = Params::new(
        base_cfg.entries as f64,
        (base_cfg.entry_bytes * 8) as f64,
        (base_cfg.page_bytes * 8) as f64,
        (base_cfg.buffer_bytes * 8) as f64,
        2.0,
        Policy::Leveling,
    );
    let strat = MemoryStrategy::Fixed(MemoryAllocation {
        buffer_bits: params.buffer_bits,
        filter_bits: 5.0 * params.entries,
    });
    for frac in [0.1, 0.3, 0.5, 0.7, 0.9] {
        // Ask the model for the best (policy, T) at this mix; the engine
        // then runs that configuration beside the two fixed ones.
        let tuning = tune(
            &params,
            &strat,
            &Workload::lookups_vs_updates(frac),
            &Environment::disk(),
            &TuningConstraints::default(),
        );
        let policy = to_engine_policy(tuning.policy);
        // Cap T so the experiment stays within harness scale.
        let size_ratio = (tuning.size_ratio.round() as usize).clamp(2, 32);
        let navigable = ExpConfig {
            policy,
            size_ratio,
            ..base_cfg
        };
        for (system, cfg) in [
            ("leveldb", base_cfg.with_filters(FilterKind::Uniform(5.0))),
            ("fixed-monkey", base_cfg),
            ("navigable-monkey", navigable),
        ] {
            let tput = mixed_phase(&load(&cfg, 42), frac, ops, 7);
            out.row(&[
                &f(frac),
                &system,
                &tuning_label(cfg.policy, cfg.size_ratio),
                &f(tput),
            ]);
        }
    }
}

/// Existing-key lookups under a block cache of 0 / 20 / 40 % of the data
/// volume, per skew and filter allocation. `warm_then_measure` runs the
/// access pattern at the given skew twice — once to warm the cache, then,
/// counters reset, measured (paper: "when the cache is warm, we continue
/// issuing the same workload and measure").
fn cache_sweep(
    out: &mut Csv,
    skews: &[f64],
    warm_then_measure: impl Fn(&LoadedDb, f64) -> Measurement,
) {
    let base = ExpConfig::paper_default();
    let data_bytes = base.entries as usize * base.entry_bytes;
    for cache_pct in [0, 20, 40] {
        for &skew in skews {
            for filters in UNIFORM_VS_MONKEY {
                let cfg = ExpConfig {
                    cache_bytes: data_bytes * cache_pct / 100,
                    filters,
                    ..base
                };
                let loaded = load(&cfg, 42);
                let m = warm_then_measure(&loaded, skew);
                let hit_ratio = loaded
                    .db
                    .disk()
                    .cache_stats()
                    .map_or(0.0, |s| s.hit_ratio());
                out.row(&[
                    &cache_pct,
                    &f(skew),
                    &filters.label(),
                    &f(m.ios_per_op),
                    &f(hit_ratio),
                ]);
            }
        }
    }
}

/// Figure 12 (Appendix F): Monkey with a block cache across temporal
/// localities. Monkey keeps its advantage at low/medium locality; as
/// lookups concentrate on very recently touched keys both systems converge
/// because the cache absorbs the I/Os — but not entirely (it caches pages,
/// not entries).
fn fig12_cache(out: &mut Csv) {
    cache_sweep(out, &[0.1, 0.3, 0.5, 0.7, 0.9], |loaded, c| {
        existing_lookups_temporal(loaded, c, LOOKUPS, 6);
        loaded.db.reset_io();
        existing_lookups_temporal(loaded, c, LOOKUPS, 7)
    });
}

/// Extension: Zipfian-skewed lookups (YCSB's access pattern) under block
/// caches — the companion to Figure 12, which skews by recency; real
/// workloads skew by popularity. The cache absorbs the hot head (hit ratio
/// grows with skew), Monkey's advantage persists on the cold tail, and the
/// two allocations converge only when the cache covers nearly every access.
fn zipfian_cache(out: &mut Csv) {
    cache_sweep(out, &[0.5, 0.8, 0.99], |loaded, theta| {
        let zipf = ZipfianSampler::new(loaded.keys.entries, theta);
        let mut rng = StdRng::seed_from_u64(7);
        // Popularity rank -> key (stable mapping).
        let mut phase = || existing_lookups(loaded, LOOKUPS, || zipf.sample(&mut rng));
        phase();
        loaded.db.reset_io();
        phase()
    });
}

/// Appendix C: the iterative filter autotuner (Algorithms 1–3) versus the
/// closed-form optimum, including layouts the closed form cannot handle
/// (variable entry sizes → non-geometric run sizes; `analytic_R` is blank
/// there), then — under a second header — the `adaptive` filter policy
/// against `monkey` on the same live store.
fn appc_autotune(out: &mut Csv) {
    // Geometric layout: the analytic optimum applies; the iterative
    // algorithm must match it.
    let p = Params::new(
        1048576.0,
        8192.0,
        32768.0,
        8.0 * 131072.0,
        4.0,
        Policy::Leveling,
    );
    for bpe in [1.0, 2.0, 5.0, 10.0] {
        let m = bpe * p.entries;
        let mut runs: Vec<RunSpec> = (1..=p.levels())
            .map(|i| RunSpec::new(p.entries_at_level(i)))
            .collect();
        let iterative = autotune_filters(m, &mut runs);
        let analytic = zero_result_lookup_cost(&p, m);
        out.row(&[&"geometric", &f(bpe), &f(iterative), &f(analytic)]);
    }

    // Variable-entry-size layout: runs whose sizes follow no schedule.
    let sizes = [500.0, 123_456.0, 7_890.0, 1_000_000.0, 42.0, 65_000.0];
    let n: f64 = sizes.iter().sum();
    for bpe in [1.0, 2.0, 5.0, 10.0] {
        let mut runs: Vec<RunSpec> = sizes.iter().map(|&s| RunSpec::new(s)).collect();
        let iterative = autotune_filters(bpe * n, &mut runs);
        out.row(&[&"variable", &f(bpe), &f(iterative), &""]);
    }

    out.row(&[&"allocation", &"ios_per_lookup"]);
    for filters in [FilterKind::Monkey(5.0), FilterKind::Adaptive(5.0)] {
        let loaded = load(&ExpConfig::paper_default().with_filters(filters), 42);
        let m = zero_result_lookups(&loaded, LOOKUPS, 7);
        out.row(&[&filters.label(), &f(m.ios_per_op)]);
    }
}

/// Range lookup cost (Eq. 11): `Q = s·N/B + seeks`, one seek per run. Not a
/// paper figure (the paper models Q in §4.2 but does not plot it); this
/// sweep validates the equation on the live engine across selectivity and
/// merge policy — tiering pays more seeks (more runs), both pay the same
/// sequential scan volume.
fn range_cost(out: &mut Csv) {
    for (policy, size_ratio) in [(MergePolicy::Leveling, 2), (MergePolicy::Tiering, 4)] {
        let cfg = ExpConfig {
            entries: 1 << 15,
            policy,
            size_ratio,
            ..ExpConfig::paper_default()
        };
        let loaded = load(&cfg, 42);
        for s in [0.001, 0.01, 0.1, 0.5] {
            loaded.db.reset_io();
            let span = ((cfg.entries as f64 * s) as u64).max(1);
            let start = (cfg.entries - span) / 2;
            let lo = loaded.keys.existing_key(start);
            let hi = loaded.keys.existing_key(start + span - 1);
            let rows = loaded.db.range(&lo, Some(&hi)).expect("range").count();
            assert!(rows as u64 >= span - 1);
            let io = loaded.db.io();
            let stats = loaded.db.stats();
            let params = model_params_for(loaded.db.options(), stats.disk_entries, cfg.entry_bytes);
            out.row(&[
                &format!("{policy:?}"),
                &size_ratio,
                &f(s),
                &stats.runs,
                &io.page_reads,
                &io.seeks,
                &f(range_lookup_cost(&params, s)),
            ]);
        }
    }
}

/// Ablation: filter-allocation strategies head-to-head on the live engine
/// at identical total memory.
///
/// * `none`            — no filters (the structural floor);
/// * `uniform`         — the state of the art;
/// * `monkey-schedule` — the paper's literal per-level closed forms
///   (Eqs. 17/18 over the idealized full tree);
/// * `monkey`          — our generalization: the Lagrange solution over
///   the *actual* run sizes;
/// * `adaptive`        — Appendix C's iterative algorithm over the same.
///
/// Schedule ≈ generalized when the tree is near its worst-case shape, but
/// the generalized policy never loses to uniform on degenerate trees, while
/// the schedule can (see DESIGN.md §5).
fn ablation_allocation(out: &mut Csv) {
    for entries in [1u64 << 14, 1 << 16] {
        let cfg = ExpConfig {
            entries,
            ..ExpConfig::paper_default()
        };
        let allocations = [
            ("none", cfg.with_filters(FilterKind::None).options()),
            (
                "uniform",
                cfg.with_filters(FilterKind::Uniform(5.0)).options(),
            ),
            (
                "monkey-schedule",
                cfg.options()
                    .filter_policy(Arc::new(ScheduleFilterPolicy::new(5.0))),
            ),
            ("monkey", cfg.options()),
            (
                "adaptive",
                cfg.with_filters(FilterKind::Adaptive(5.0)).options(),
            ),
        ];
        for (name, options) in allocations {
            let db = Db::open(options).expect("open");
            let keys = cfg.key_space();
            // One generator for the load order and the lookups after it.
            let mut rng = StdRng::seed_from_u64(42);
            fill(&db, &keys, &mut rng);
            db.rebuild_filters().expect("rebuild filters");
            db.reset_io();
            for _ in 0..LOOKUPS {
                let key = keys.random_missing(&mut rng);
                assert!(db.get(&key).expect("get").is_none());
            }
            out.row(&[
                &entries,
                &name,
                &f(db.io().page_reads as f64 / LOOKUPS as f64),
                &f(db.stats().bits_per_entry()),
            ]);
        }
    }
}

/// Ablation: the Bloom filter's hash count versus Eq. 2's optimum
/// `k = (bits/entries)·ln 2`. The whole analytical edifice of the paper
/// assumes optimally-hashed filters; this shows how much a mis-tuned k
/// costs in measured false positive rate at a fixed memory budget.
fn ablation_hash_count(out: &mut Csv) {
    let n = 50_000u64;
    let probes = 200_000u64;
    for bpe in [5.0, 10.0] {
        let k_opt = math::optimal_hash_count(bpe);
        let eq2 = math::false_positive_rate(bpe, 1.0);
        for k in 1..=(k_opt + 4) {
            let mut filter = BloomFilterBuilder::new(n)
                .bits_per_entry(bpe)
                .hash_count(k)
                .build();
            for i in 0..n {
                filter.insert(format!("present-{i}").as_bytes());
            }
            let fp = (0..probes)
                .filter(|i| filter.contains(format!("absent-{i}").as_bytes()))
                .count();
            out.row(&[&f(bpe), &k, &k_opt, &f(fp as f64 / probes as f64), &f(eq2)]);
        }
    }
}

/// Ablation: the disk page size (the `B` term). Bigger pages amortize merge
/// writes (W ∝ 1/B) and shrink the fence array, but scan more bytes per
/// point read; the paper's model treats B as an environmental constant —
/// this shows what the engine measures as it varies.
fn ablation_page_size(out: &mut Csv) {
    for page_bytes in [512usize, 1024, 2048, 4096, 8192] {
        let cfg = ExpConfig {
            entries: 1 << 15,
            page_bytes,
            ..ExpConfig::paper_default()
        };
        let loaded = load(&cfg, 42);
        let (w, r) = update_then_lookup(&loaded);
        out.row(&[
            &page_bytes,
            &(page_bytes / 79), // encoded entry ≈ 79 B
            &f(w.ios_per_op),
            &f(r.ios_per_op),
            &f(loaded.db.stats().fence_bits as f64 / 8.0 / 1024.0),
        ]);
    }
}
