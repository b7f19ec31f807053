//! Worst-case cost models (§4.2): `R`, `V`, `W`, `Q`, and the
//! state-of-the-art baseline.

use crate::fpr::optimal_fprs;
use crate::memory::{filter_memory_for_fprs, l_unfiltered};
use crate::params::{Params, Policy, LN2_SQUARED};

/// Worst-case zero-result point lookup cost `R` in expected I/Os under
/// Monkey's optimal allocation (Eqs. 7 + 8):
///
/// ```text
/// R = R_filtered + R_unfiltered
/// R_filtered(leveling) = T^(T/(T−1))/(T−1) · e^(−M_f/N · ln2² · T^Lu)
/// R_filtered(tiering)  = T^(T/(T−1))      · e^(−M_f/N · ln2² · T^Lu)
/// R_unfiltered = Lu         (leveling)  |  Lu·(T−1)  (tiering)
/// ```
pub fn zero_result_lookup_cost(params: &Params, m_filters: f64) -> f64 {
    let t = params.size_ratio;
    let rpl = params.policy.runs_per_level(t);
    let max_r = params.max_runs();
    if m_filters <= 0.0 {
        return max_r;
    }
    let lu = l_unfiltered(params, m_filters) as f64;
    let exponent = -m_filters / params.entries * LN2_SQUARED * t.powf(lu);
    let r_filtered = match params.policy {
        Policy::Leveling => t.powf(t / (t - 1.0)) / (t - 1.0) * exponent.exp(),
        Policy::Tiering => t.powf(t / (t - 1.0)) * exponent.exp(),
    };
    let r_unfiltered = lu * rpl;
    let r = (r_filtered + r_unfiltered).min(max_r);
    // The closed form uses the paper's L→∞ series simplification, which can
    // overshoot the *exact* uniform baseline by a sliver at L = 1–2 (where
    // the optimal allocation degenerates to uniform). Optimality guarantees
    // R ≤ R_art, so clamp.
    r.min(baseline_zero_result_lookup_cost(params, m_filters))
}

/// Exact finite-`L` version of [`zero_result_lookup_cost`]: inverts the
/// exact memory function (Eq. 4 over the exact optimal assignment) by
/// bisection on `R`. Used to validate the closed form and to compare the
/// model against the engine at small `L`.
pub fn zero_result_lookup_cost_exact(params: &Params, m_filters: f64) -> f64 {
    let max_r = params.max_runs();
    if m_filters <= 0.0 {
        return max_r;
    }
    let memory_of = |r: f64| {
        let fprs = optimal_fprs(params.levels(), params.size_ratio, params.policy, r);
        filter_memory_for_fprs(params, &fprs)
    };
    // memory_of is strictly decreasing in r until it hits 0 at max_r.
    let (mut lo, mut hi) = (1e-12, max_r);
    if memory_of(lo) <= m_filters {
        return lo;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if memory_of(mid) > m_filters {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Baseline zero-result lookup cost `R_art` for the uniform
/// bits-per-entry state of the art (Eq. 25 rearranged; Eq. 26 is its
/// large-`L` simplification):
///
/// ```text
/// R_art = L · X · e^(−M_f·ln2² / (N·(1−T^−L)))    X = 1 | (T−1)
/// ```
pub fn baseline_zero_result_lookup_cost(params: &Params, m_filters: f64) -> f64 {
    let t = params.size_ratio;
    let l = params.levels();
    let max_r = params.max_runs();
    if m_filters <= 0.0 {
        return max_r;
    }
    let occupancy = 1.0 - t.powi(-(l as i32)); // Σ N_i = N(1 − T^−L)
    let p = (-m_filters * LN2_SQUARED / (params.entries * occupancy)).exp();
    (max_r * p).min(max_r)
}

/// Worst-case non-zero-result lookup cost `V` (Eq. 9): `V = R − p_L + 1`
/// — the target is found in the oldest run, so its filter's false positive
/// rate is replaced by one certain page read.
pub fn non_zero_result_lookup_cost(params: &Params, m_filters: f64) -> f64 {
    let r = zero_result_lookup_cost(params, m_filters);
    let fprs = optimal_fprs(params.levels(), params.size_ratio, params.policy, r);
    let p_last = *fprs.last().expect("at least one level");
    r - p_last + 1.0
}

/// Baseline non-zero-result lookup cost: same construction over the
/// uniform assignment.
pub fn baseline_non_zero_result_lookup_cost(params: &Params, m_filters: f64) -> f64 {
    let r = baseline_zero_result_lookup_cost(params, m_filters);
    let p = r / params.max_runs(); // uniform per-run FPR
    r - p + 1.0
}

/// Worst-case amortized update cost `W` in I/Os (Eq. 10):
///
/// ```text
/// leveling: W = L/B · (T−1)/2 · (1+φ)
/// tiering:  W = L/B · (T−1)/T · (1+φ)
/// ```
///
/// `φ` (`phi`) is the write/read cost ratio of the storage medium.
pub fn update_cost(params: &Params, phi: f64) -> f64 {
    let t = params.size_ratio;
    let l = params.levels() as f64;
    let b = params.entries_per_page();
    let merges_per_level = match params.policy {
        Policy::Leveling => (t - 1.0) / 2.0,
        Policy::Tiering => (t - 1.0) / t,
    };
    l / b * merges_per_level * (1.0 + phi)
}

/// Worst-case range lookup cost `Q` in I/Os (Eq. 11): one seek per run
/// plus `s·N/B` sequentially scanned pages, where `s` is the proportion of
/// all entries touched by the range.
pub fn range_lookup_cost(params: &Params, selectivity: f64) -> f64 {
    assert!((0.0..=1.0).contains(&selectivity));
    selectivity * params.entries / params.entries_per_page() + params.max_runs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::m_threshold;

    fn params(t: f64, policy: Policy) -> Params {
        // 2^22 entries × 1 KiB, 4 KiB pages, 2 MiB buffer (L=9 at T=2).
        Params::new(4194304.0, 8192.0, 32768.0, 16777216.0, t, policy)
    }

    #[test]
    fn monkey_r_with_five_bits_per_entry_is_small() {
        let p = params(2.0, Policy::Leveling);
        let r = zero_result_lookup_cost(&p, 5.0 * p.entries);
        // e^(−5·ln2²) ≈ 0.09; times T^(T/(T−1))/(T−1) = 4 → ≈ 0.36.
        assert!((0.2..0.6).contains(&r), "r = {r}");
    }

    #[test]
    fn closed_form_tracks_exact_inverse() {
        for policy in [Policy::Leveling, Policy::Tiering] {
            let p = params(3.0, policy);
            for bpe in [1.0, 2.0, 5.0, 10.0] {
                let m = bpe * p.entries;
                let closed = zero_result_lookup_cost(&p, m);
                let exact = zero_result_lookup_cost_exact(&p, m);
                let rel = (closed - exact).abs() / exact.max(1e-9);
                assert!(
                    rel < 0.05,
                    "{policy:?} bpe={bpe}: closed {closed} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn r_memory_roundtrip() {
        // memory(R) and R(memory) are inverses (exact forms).
        use crate::memory::filter_memory_for_lookup_cost_exact;
        let p = params(4.0, Policy::Leveling);
        for &r in &[0.01, 0.1, 0.5, 1.5] {
            let m = filter_memory_for_lookup_cost_exact(&p, r);
            let back = zero_result_lookup_cost_exact(&p, m);
            assert!((back - r).abs() / r < 1e-6, "r={r} -> m={m} -> {back}");
        }
    }

    #[test]
    fn monkey_dominates_baseline_everywhere() {
        // Figure 7: Monkey ≤ state of the art for every M_filters.
        for policy in [Policy::Leveling, Policy::Tiering] {
            for &t in &[2.0, 4.0, 8.0] {
                let p = params(t, policy);
                for bpe in [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 16.0] {
                    let m = bpe * p.entries;
                    let monkey = zero_result_lookup_cost(&p, m);
                    let base = baseline_zero_result_lookup_cost(&p, m);
                    assert!(
                        monkey <= base * 1.001,
                        "{policy:?} T={t} bpe={bpe}: monkey {monkey} > baseline {base}"
                    );
                }
            }
        }
    }

    #[test]
    fn curves_meet_with_no_memory() {
        // Figure 7: both degenerate to an unfiltered LSM-tree at M=0.
        let p = params(4.0, Policy::Tiering);
        assert_eq!(zero_result_lookup_cost(&p, 0.0), p.max_runs());
        assert_eq!(baseline_zero_result_lookup_cost(&p, 0.0), p.max_runs());
    }

    #[test]
    fn monkey_r_independent_of_data_volume_at_fixed_bpe() {
        // Table 1 / Figure 11(A): with M_filters/N fixed above the
        // threshold, Monkey's R stays constant as N grows; the baseline's
        // grows logarithmically.
        let bpe = 5.0;
        let mut monkey_prev = None;
        let mut base_prev = 0.0;
        for exp in [20u32, 24, 28, 32] {
            let n = 2f64.powi(exp as i32);
            let p = Params::new(n, 8192.0, 32768.0, 16777216.0, 2.0, Policy::Leveling);
            let monkey = zero_result_lookup_cost(&p, bpe * n);
            let base = baseline_zero_result_lookup_cost(&p, bpe * n);
            if let Some(prev) = monkey_prev {
                let drift: f64 = monkey - prev;
                assert!(drift.abs() < 1e-9, "Monkey R drifted by {drift}");
                assert!(base > base_prev, "baseline must grow with N");
            }
            monkey_prev = Some(monkey);
            base_prev = base;
        }
    }

    #[test]
    fn monkey_r_independent_of_buffer_size() {
        // §4.3 benefit 3: lookup cost independent of M_buffer (above the
        // memory threshold). Growing the buffer 4× (L: 9 → 7) leaves
        // Monkey's R untouched; at extreme buffer sizes L collapses toward
        // 1 and the clamp against the exact baseline kicks in, where the
        // optimal allocation degenerates to uniform anyway.
        let p = params(2.0, Policy::Leveling);
        let m = 8.0 * p.entries;
        let r1 = zero_result_lookup_cost(&p, m);
        let r2 = zero_result_lookup_cost(&p.with_buffer_bits(p.buffer_bits * 4.0), m);
        assert!((r1 - r2).abs() < 1e-9, "{r1} vs {r2}");
        // The baseline, by contrast, depends on L and thus on the buffer.
        let b1 = baseline_zero_result_lookup_cost(&p, m);
        let b2 = baseline_zero_result_lookup_cost(&p.with_buffer_bits(p.buffer_bits * 4.0), m);
        assert!(b2 < b1);
    }

    #[test]
    fn tiering_r_is_t_minus_one_times_leveling() {
        // Figure 7: the tiering curve is the leveling curve stretched by
        // (T−1) in the filtered regime.
        let t = 4.0;
        let lev = params(t, Policy::Leveling);
        let tier = params(t, Policy::Tiering);
        let m = 6.0 * lev.entries;
        let rl = zero_result_lookup_cost(&lev, m);
        let rt = zero_result_lookup_cost(&tier, m);
        assert!((rt / rl - (t - 1.0)).abs() < 1e-9, "{rt} / {rl}");
    }

    #[test]
    fn v_is_r_minus_p_last_plus_one() {
        let p = params(2.0, Policy::Leveling);
        let m = 5.0 * p.entries;
        let r = zero_result_lookup_cost(&p, m);
        let v = non_zero_result_lookup_cost(&p, m);
        assert!(v > r, "finding the key costs at least the one real read");
        assert!(v < r + 1.0 + 1e-12);
        // With no filters at all: R = L, p_L = 1, V = L − 1 + 1 = L.
        let v0 = non_zero_result_lookup_cost(&p, 0.0);
        assert!((v0 - p.levels() as f64).abs() < 1e-9);
    }

    #[test]
    fn update_cost_matches_equation_ten() {
        let lev = params(4.0, Policy::Leveling);
        let b = lev.entries_per_page();
        let l = lev.levels() as f64;
        let w = update_cost(&lev, 1.0);
        assert!((w - l / b * 1.5 * 2.0).abs() < 1e-12);
        let tier = params(4.0, Policy::Tiering);
        let w = update_cost(&tier, 1.0);
        assert!((w - l / b * 0.75 * 2.0).abs() < 1e-12);
    }

    #[test]
    fn t_equals_two_makes_policies_identical() {
        // §2: "when the size ratio T is set to 2, the complexities of
        // lookup and update costs for tiering and leveling become identical."
        let lev = params(2.0, Policy::Leveling);
        let tier = params(2.0, Policy::Tiering);
        let m = 5.0 * lev.entries;
        assert!(
            (zero_result_lookup_cost(&lev, m) - zero_result_lookup_cost(&tier, m)).abs() < 1e-9
        );
        assert!((update_cost(&lev, 1.0) - update_cost(&tier, 1.0)).abs() < 1e-12);
        assert!((range_lookup_cost(&lev, 0.01) - range_lookup_cost(&tier, 0.01)).abs() < 1e-9);
    }

    #[test]
    fn leveling_tiering_tradeoff_direction() {
        // Figure 4: increasing T under leveling improves lookups and hurts
        // updates; under tiering the opposite.
        let lev2 = params(2.0, Policy::Leveling);
        let lev8 = params(8.0, Policy::Leveling);
        let m = 5.0 * lev2.entries;
        assert!(zero_result_lookup_cost(&lev8, m) <= zero_result_lookup_cost(&lev2, m));
        assert!(update_cost(&lev8, 1.0) > update_cost(&lev2, 1.0));

        let tier2 = params(2.0, Policy::Tiering);
        let tier8 = params(8.0, Policy::Tiering);
        assert!(zero_result_lookup_cost(&tier8, m) > zero_result_lookup_cost(&tier2, m));
        assert!(update_cost(&tier8, 1.0) < update_cost(&tier2, 1.0));
    }

    #[test]
    fn range_cost_scales_with_selectivity() {
        let p = params(4.0, Policy::Leveling);
        let q0 = range_lookup_cost(&p, 0.0);
        assert!(
            (q0 - p.max_runs()).abs() < 1e-9,
            "empty range: just the seeks"
        );
        let q = range_lookup_cost(&p, 0.5);
        assert!((q - (0.5 * p.entries / p.entries_per_page() + p.max_runs())).abs() < 1e-6);
    }

    #[test]
    fn phi_scales_update_cost() {
        let p = params(4.0, Policy::Leveling);
        let w1 = update_cost(&p, 0.0);
        let w2 = update_cost(&p, 3.0);
        assert!((w2 / w1 - 4.0).abs() < 1e-12, "1+φ factor");
    }

    #[test]
    fn low_memory_regime_r_approaches_run_count() {
        let p = params(2.0, Policy::Leveling);
        // Far below M_threshold/T^L: every level unfiltered.
        let r = zero_result_lookup_cost(&p, 1e-9 * p.entries);
        assert!((r - p.max_runs()).abs() < 1e-6);
    }

    #[test]
    fn threshold_knee_in_bits_per_entry() {
        // §4.3: the knee sits at M/N = ln(T)/((T−1)ln2²) ≈ 1.44 at T=2.
        let p = params(2.0, Policy::Leveling);
        let thr = m_threshold(p.entries, 2.0);
        assert!((thr / p.entries - 1.44).abs() < 0.01);
        assert_eq!(l_unfiltered(&p, thr * 1.01), 0);
        assert!(l_unfiltered(&p, thr * 0.99) >= 1);
    }
}
