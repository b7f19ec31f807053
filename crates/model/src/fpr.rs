//! False-positive-rate assignments across levels.
//!
//! This module implements the paper's central analytical result (§4.1,
//! Appendix B): given a target zero-result lookup cost `R` — which equals
//! the sum of all filters' false positive rates (Eq. 3) — the memory-minimal
//! assignment sets each level's FPR **proportional to its capacity**:
//!
//! ```text
//! leveling:  p_i = R·(T−1)·T^(i−1) / (T^L − 1)        (Eq. 15, exact)
//! tiering:   p_i = R·T^(i−1) / (T^L − 1)              (Eq. 16, exact)
//! ```
//!
//! (the tiering FPR is `(T−1)×` lower because each level holds `T−1` runs).
//! When `R` is large, the deepest levels' optimal FPRs converge to 1 — they
//! become *unfiltered* — and the assignment recurses on the shallower
//! `L_filtered` levels (Eqs. 17/18).
//!
//! The state-of-the-art baseline (Eqs. 23/24) assigns every level the same
//! FPR, which is what uniform bits-per-entry produces.

use crate::params::Policy;

/// Optimal FPR per level (index 0 = level 1, the shallowest) for a target
/// lookup cost `r`, via the exact finite-`L` forms of Eqs. 17/18.
///
/// `r` is clamped to `(0, max_runs]`; at the upper bound every level is
/// unfiltered (all FPRs 1).
pub fn optimal_fprs(levels: usize, t: f64, policy: Policy, r: f64) -> Vec<f64> {
    assert!(levels >= 1, "need at least one level");
    assert!(t >= 2.0, "size ratio must be at least 2");
    assert!(r > 0.0, "lookup cost target must be positive");
    let rpl = policy.runs_per_level(t); // runs (and thus R contribution) per unfiltered level
    let max_r = levels as f64 * rpl;
    let r = r.min(max_r);

    // Find the smallest number of unfiltered deep levels L_u such that the
    // remaining budget keeps every filtered level's FPR at most 1. This
    // matches the paper's floor() expressions except at knife-edge budgets,
    // where the floor forms can prescribe p slightly above 1.
    let mut l_u = match policy {
        Policy::Leveling => ((r - 1.0).floor().max(0.0)) as usize,
        Policy::Tiering => (((r - 1.0) / (t - 1.0)).floor().max(0.0)) as usize,
    };
    l_u = l_u.min(levels);
    let (l_f, r_f) = loop {
        let l_f = levels - l_u;
        if l_f == 0 {
            break (0, 0.0);
        }
        let r_f = r - l_u as f64 * rpl;
        // Largest filtered level's FPR must not exceed 1 (Appendix B).
        let p_deepest = match policy {
            Policy::Leveling => {
                r_f * (t - 1.0) * t.powi(l_f as i32 - 1) / (t.powi(l_f as i32) - 1.0)
            }
            Policy::Tiering => r_f * t.powi(l_f as i32 - 1) / (t.powi(l_f as i32) - 1.0),
        };
        if r_f > 0.0 && p_deepest <= 1.0 + 1e-12 {
            break (l_f, r_f);
        }
        l_u += 1;
    };

    let mut fprs = Vec::with_capacity(levels);
    let denom = t.powi(l_f as i32) - 1.0;
    for i in 1..=levels {
        if i > l_f {
            fprs.push(1.0);
        } else {
            let p = match policy {
                Policy::Leveling => r_f * (t - 1.0) * t.powi(i as i32 - 1) / denom,
                Policy::Tiering => r_f * t.powi(i as i32 - 1) / denom,
            };
            fprs.push(p.min(1.0));
        }
    }
    fprs
}

/// Optimal FPR per level for a given filter-memory budget: composes
/// Eq. 22 (`L_unfiltered`), Eq. 7 (`R` from memory), and Eqs. 17/18 (the
/// assignment for that `R`). Of the engine's filter policies, only the
/// per-level schedule (`ScheduleFilterPolicy`, kept for the allocation
/// ablation) calls it; the Monkey policy allocates over actual run sizes
/// with [`optimal_fprs_for_run_sizes`].
pub fn optimal_fprs_for_memory(
    levels: usize,
    t: f64,
    policy: Policy,
    entries: f64,
    m_filters: f64,
) -> Vec<f64> {
    use crate::memory::l_unfiltered_given;
    use crate::params::LN2_SQUARED;
    let rpl = policy.runs_per_level(t);
    let max_r = levels as f64 * rpl;
    if m_filters <= 0.0 {
        return vec![1.0; levels];
    }
    let lu = l_unfiltered_given(levels, entries, t, m_filters) as f64;
    let exponent = -m_filters / entries * LN2_SQUARED * t.powf(lu);
    let r_filtered = match policy {
        Policy::Leveling => t.powf(t / (t - 1.0)) / (t - 1.0) * exponent.exp(),
        Policy::Tiering => t.powf(t / (t - 1.0)) * exponent.exp(),
    };
    let r = (r_filtered + lu * rpl).min(max_r);
    optimal_fprs(levels, t, policy, r)
}

/// The generalized Monkey allocation over **actual run sizes**: minimize
/// the sum of false positive rates `Σ p_j` subject to the memory constraint
/// `Σ −n_j·ln(p_j)/ln2² = M`. The Lagrange condition gives
/// `p_j = min(1, C·n_j)` — each run's FPR proportional to its entry count,
/// with oversized runs clamped at 1 (unfiltered). This is the continuous
/// optimum that Appendix C's iterative Algorithm 1 approximates, and it
/// reduces to the per-level schedule of Eqs. 15–18 when run sizes follow
/// the geometric capacity schedule.
///
/// Returns one FPR per run, in input order.
pub fn optimal_fprs_for_run_sizes(sizes: &[f64], m_filters: f64) -> Vec<f64> {
    use crate::params::LN2_SQUARED;
    if sizes.is_empty() {
        return Vec::new();
    }
    for &n in sizes {
        assert!(n > 0.0, "run sizes must be positive");
    }
    if m_filters <= 0.0 {
        return vec![1.0; sizes.len()];
    }
    // memory(C) = Σ_{C·n_j < 1} −n_j·ln(C·n_j)/ln2², strictly decreasing in
    // C until it reaches 0 at C ≥ 1/min(n_j). Bisect on ln C.
    let memory = |ln_c: f64| -> f64 {
        sizes
            .iter()
            .map(|&n| {
                let ln_p = ln_c + n.ln();
                if ln_p >= 0.0 {
                    0.0
                } else {
                    -n * ln_p / LN2_SQUARED
                }
            })
            .sum()
    };
    let min_n = sizes.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut hi = -(min_n.ln()); // C = 1/min_n: zero memory
    let mut lo = hi - 1.0;
    while memory(lo) < m_filters {
        lo -= (hi - lo) * 2.0;
        if hi - lo > 1e6 {
            break; // astronomically large budget: p -> 0
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if memory(mid) > m_filters {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let ln_c = 0.5 * (lo + hi);
    sizes
        .iter()
        .map(|&n| (ln_c + n.ln()).exp().min(1.0))
        .collect()
}

/// The state of the art (Eqs. 23/24): every level gets the same FPR.
pub fn baseline_fprs(levels: usize, t: f64, policy: Policy, r: f64) -> Vec<f64> {
    assert!(levels >= 1);
    assert!(r > 0.0);
    let p = (r / (levels as f64 * policy.runs_per_level(t))).min(1.0);
    vec![p; levels]
}

/// Lookup cost `R` of an arbitrary FPR assignment (Eq. 3): the sum of
/// per-level FPRs, times `T−1` under tiering.
pub fn lookup_cost_of_fprs(fprs: &[f64], t: f64, policy: Policy) -> f64 {
    fprs.iter().sum::<f64>() * policy.runs_per_level(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_sums_to_target_r() {
        for &(levels, t, r) in &[
            (5usize, 2.0, 0.5),
            (7, 4.0, 0.1),
            (6, 3.0, 2.5),
            (4, 10.0, 0.9),
        ] {
            for policy in [Policy::Leveling, Policy::Tiering] {
                let fprs = optimal_fprs(levels, t, policy, r);
                let sum = lookup_cost_of_fprs(&fprs, t, policy);
                assert!(
                    (sum - r).abs() < 1e-9,
                    "{policy:?} L={levels} T={t} r={r}: sum {sum}"
                );
            }
        }
    }

    #[test]
    fn fprs_grow_by_factor_t_between_levels() {
        // §4.1: "the optimal FPR at Level i is T times higher than at i−1".
        let fprs = optimal_fprs(6, 4.0, Policy::Leveling, 0.5);
        for w in fprs.windows(2) {
            assert!((w[1] / w[0] - 4.0).abs() < 1e-9, "{w:?}");
        }
    }

    #[test]
    fn tiering_fprs_are_t_minus_one_lower() {
        // Appendix B: "the optimal FPR prescribed to any Level i is (T−1)
        // lower under tiering than under leveling."
        let t = 5.0;
        let lev = optimal_fprs(6, t, Policy::Leveling, 0.5);
        let tier = optimal_fprs(6, t, Policy::Tiering, 0.5);
        for (l, ti) in lev.iter().zip(&tier) {
            assert!((l / ti - (t - 1.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn large_r_makes_deep_levels_unfiltered() {
        // Figure 6: as R grows, filters at the deepest levels cease to exist.
        // L=6, T=2, r=3.2: L_u = ⌊r−1⌋ = 2 deep levels lose their filters,
        // and the filtered prefix keeps the residual budget r − L_u = 1.2.
        let fprs = optimal_fprs(6, 2.0, Policy::Leveling, 3.2);
        assert_eq!(fprs.iter().filter(|&&p| p == 1.0).count(), 2, "{fprs:?}");
        assert!(fprs[0] < 1.0);
        let filtered_sum: f64 = fprs.iter().filter(|&&p| p < 1.0).sum();
        assert!((filtered_sum - 1.2).abs() < 1e-9);
    }

    #[test]
    fn r_at_max_runs_means_no_filters_anywhere() {
        let fprs = optimal_fprs(4, 3.0, Policy::Tiering, 4.0 * 2.0);
        assert!(fprs.iter().all(|&p| p == 1.0));
        // And r beyond the max is clamped.
        let fprs = optimal_fprs(4, 3.0, Policy::Tiering, 100.0);
        assert!(fprs.iter().all(|&p| p == 1.0));
    }

    #[test]
    fn all_fprs_are_valid_probabilities() {
        for levels in [1usize, 2, 3, 5, 9] {
            for &t in &[2.0, 3.0, 10.0] {
                for policy in [Policy::Leveling, Policy::Tiering] {
                    let max_r = levels as f64 * policy.runs_per_level(t);
                    for frac in [1e-6, 0.001, 0.1, 0.5, 0.9, 0.999, 1.0] {
                        let fprs = optimal_fprs(levels, t, policy, max_r * frac);
                        for &p in &fprs {
                            assert!(
                                p > 0.0 && p <= 1.0,
                                "L={levels} T={t} {policy:?} frac={frac}: {fprs:?}"
                            );
                        }
                        assert!(
                            fprs.windows(2).all(|w| w[0] <= w[1] + 1e-12),
                            "FPRs must not decrease with depth: {fprs:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn knife_edge_budget_still_valid() {
        // Just above the point where the paper's floor() rule under-counts
        // unfiltered levels (see module doc); T=4, leveling, R such that
        // r_f exceeds the sub-problem bound slightly.
        let t = 4.0;
        let fprs = optimal_fprs(8, t, Policy::Leveling, 2.34);
        for &p in &fprs {
            assert!(p <= 1.0);
        }
        let sum = lookup_cost_of_fprs(&fprs, t, Policy::Leveling);
        assert!((sum - 2.34).abs() < 1e-9);
    }

    #[test]
    fn single_level_tree() {
        let fprs = optimal_fprs(1, 2.0, Policy::Leveling, 0.01);
        assert_eq!(fprs.len(), 1);
        assert!((fprs[0] - 0.01).abs() < 1e-12);
    }

    #[test]
    fn baseline_is_uniform_and_sums_to_r() {
        let fprs = baseline_fprs(5, 4.0, Policy::Leveling, 0.5);
        assert!(fprs.iter().all(|&p| (p - 0.1).abs() < 1e-12));
        assert!((lookup_cost_of_fprs(&fprs, 4.0, Policy::Leveling) - 0.5).abs() < 1e-12);

        let fprs = baseline_fprs(5, 4.0, Policy::Tiering, 3.0);
        assert!(fprs.iter().all(|&p| (p - 0.2).abs() < 1e-12));
        assert!((lookup_cost_of_fprs(&fprs, 4.0, Policy::Tiering) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_clamps_at_one() {
        let fprs = baseline_fprs(2, 2.0, Policy::Leveling, 100.0);
        assert!(fprs.iter().all(|&p| p == 1.0));
    }

    #[test]
    fn run_size_allocation_matches_level_schedule_on_geometric_sizes() {
        // When run sizes follow the capacity schedule, the run-size solver
        // must agree with the per-level closed form at the same memory.
        use crate::memory::filter_memory_for_fprs;
        use crate::params::{Params, Policy as P2};
        let p = Params::new(1048576.0, 8192.0, 32768.0, 1048576.0, 4.0, P2::Leveling);
        let l = p.levels();
        let target_r = 0.2;
        let schedule = optimal_fprs(l, 4.0, P2::Leveling, target_r);
        let m = filter_memory_for_fprs(&p, &schedule);
        let sizes: Vec<f64> = (1..=l).map(|i| p.entries_at_level(i)).collect();
        let by_runs = optimal_fprs_for_run_sizes(&sizes, m);
        for (a, b) in schedule.iter().zip(&by_runs) {
            assert!((a - b).abs() / a < 1e-6, "{schedule:?} vs {by_runs:?}");
        }
    }

    #[test]
    fn run_size_allocation_degenerate_single_run_spends_everything() {
        // One run: the whole budget goes to it (the uniform answer).
        let fprs = optimal_fprs_for_run_sizes(&[10_000.0], 50_000.0);
        let expect = (-(50_000.0 / 10_000.0) * crate::params::LN2_SQUARED).exp();
        assert!(
            (fprs[0] - expect).abs() / expect < 1e-6,
            "{} vs {expect}",
            fprs[0]
        );
    }

    #[test]
    fn run_size_allocation_conserves_memory() {
        use crate::params::LN2_SQUARED;
        let sizes = [100.0, 5_000.0, 250.0, 90_000.0];
        let m = 200_000.0;
        let fprs = optimal_fprs_for_run_sizes(&sizes, m);
        let used: f64 = sizes
            .iter()
            .zip(&fprs)
            .map(|(&n, &p)| {
                if p < 1.0 {
                    -n * p.ln() / LN2_SQUARED
                } else {
                    0.0
                }
            })
            .sum();
        assert!((used - m).abs() / m < 1e-6, "used {used} of {m}");
        // FPR proportional to size among unclamped runs.
        assert!((fprs[1] / fprs[0] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn run_size_allocation_starves_huge_runs_first() {
        let sizes = [10.0, 1_000_000.0];
        // Tiny budget: the huge run should be unfiltered (p = 1).
        let fprs = optimal_fprs_for_run_sizes(&sizes, 100.0);
        assert_eq!(fprs[1], 1.0);
        assert!(fprs[0] < 1.0);
    }

    #[test]
    fn run_size_allocation_zero_memory_all_unfiltered() {
        let fprs = optimal_fprs_for_run_sizes(&[5.0, 10.0], 0.0);
        assert_eq!(fprs, vec![1.0, 1.0]);
        assert!(optimal_fprs_for_run_sizes(&[], 100.0).is_empty());
    }

    #[test]
    fn monkey_shallow_levels_much_more_accurate_than_baseline() {
        // Same R, exponentially lower FPR at level 1 under Monkey.
        let (levels, t, r) = (7, 2.0, 0.5);
        let monkey = optimal_fprs(levels, t, Policy::Leveling, r);
        let base = baseline_fprs(levels, t, Policy::Leveling, r);
        assert!(
            monkey[0] < base[0] / 10.0,
            "monkey {} vs base {}",
            monkey[0],
            base[0]
        );
    }
}
