//! Navigating the design space: from a workload description to a concrete,
//! ready-to-open configuration — and what-if analysis of environmental
//! changes (§1's design questions, §4.4's machinery).

use crate::bridge::to_engine_policy;
use crate::policy::DbOptionsExt;
use monkey_lsm::DbOptions;
use monkey_model::{
    baseline_zero_result_lookup_cost, non_zero_result_lookup_cost, range_lookup_cost, tune,
    update_cost, zero_result_lookup_cost, Environment, MemoryStrategy, Params, Policy, Tuning,
    TuningConstraints, Workload,
};

/// A tuned configuration plus the model's predictions for it.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Ready-to-open engine options implementing the tuning.
    pub options: DbOptions,
    /// The model's chosen design point and predicted costs.
    pub tuning: Tuning,
}

/// Plans configurations for a dataset shape (`N`, `E`), a page size, and a
/// storage device.
#[derive(Debug, Clone, Copy)]
pub struct Navigator {
    entries: u64,
    entry_bytes: usize,
    page_bytes: usize,
    env: Environment,
}

impl Navigator {
    /// A navigator for `entries` entries of `entry_bytes` each on a device
    /// described by `env`, with `page_bytes` disk pages.
    pub fn new(entries: u64, entry_bytes: usize, page_bytes: usize, env: Environment) -> Self {
        assert!(entries > 0 && entry_bytes > 0 && page_bytes >= entry_bytes);
        Self {
            entries,
            entry_bytes,
            page_bytes,
            env,
        }
    }

    /// Base model parameters at a provisional tuning (`T = 2`, leveling;
    /// the tuner overrides both).
    pub fn base_params(&self) -> Params {
        Params::new(
            self.entries as f64,
            (self.entry_bytes * 8) as f64,
            (self.page_bytes * 8) as f64,
            (self.page_bytes * 8) as f64, // provisional one-page buffer
            2.0,
            Policy::Leveling,
        )
    }

    /// Finds the configuration maximizing worst-case throughput for
    /// `workload` with `memory_bytes` of main memory (buffer + filters).
    pub fn recommend(&self, workload: &Workload, memory_bytes: usize) -> Recommendation {
        self.recommend_bounded(workload, memory_bytes, &TuningConstraints::default())
    }

    /// [`recommend`](Self::recommend) with SLA bounds on lookup/update cost.
    pub fn recommend_bounded(
        &self,
        workload: &Workload,
        memory_bytes: usize,
        constraints: &TuningConstraints,
    ) -> Recommendation {
        let base = self.base_params();
        let strategy = MemoryStrategy::Allocate {
            total_bits: (memory_bytes * 8) as f64,
        };
        let tuning = tune(&base, &strategy, workload, &self.env, constraints);
        let bits_per_entry = tuning.allocation.filter_bits / self.entries as f64;
        let options = DbOptions::in_memory()
            .page_size(self.page_bytes)
            .buffer_capacity(((tuning.allocation.buffer_bits / 8.0) as usize).max(self.page_bytes))
            .size_ratio(tuning.size_ratio.round().max(2.0) as usize)
            .merge_policy(to_engine_policy(tuning.policy))
            .monkey_filters(bits_per_entry);
        Recommendation { options, tuning }
    }

    /// A what-if analyzer rooted at a concrete tuning.
    pub fn what_if(&self, tuning: &Tuning) -> WhatIf {
        WhatIf {
            navigator: *self,
            policy: tuning.policy,
            size_ratio: tuning.size_ratio,
            buffer_bits: tuning.allocation.buffer_bits,
            filter_bits: tuning.allocation.filter_bits,
        }
    }
}

/// Predicted worst-case costs of one configuration (all in I/Os).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPrediction {
    /// Zero-result point lookup cost `R`.
    pub zero_result_lookup: f64,
    /// The state-of-the-art baseline's `R` at the same memory (for
    /// comparison).
    pub zero_result_lookup_baseline: f64,
    /// Non-zero-result point lookup cost `V`.
    pub non_zero_result_lookup: f64,
    /// Update cost `W`.
    pub update: f64,
    /// Range lookup cost `Q` at 0.1% selectivity.
    pub range: f64,
}

/// Answers the paper's what-if design questions: how do costs move if the
/// memory budget, the data shape, or the storage medium changes?
#[derive(Debug, Clone, Copy)]
pub struct WhatIf {
    navigator: Navigator,
    policy: Policy,
    size_ratio: f64,
    buffer_bits: f64,
    filter_bits: f64,
}

impl WhatIf {
    fn params(&self, entries: u64, entry_bytes: usize) -> Params {
        Params::new(
            entries as f64,
            (entry_bytes * 8) as f64,
            (self.navigator.page_bytes * 8) as f64,
            self.buffer_bits.max((self.navigator.page_bytes * 8) as f64),
            self.size_ratio,
            self.policy,
        )
    }

    /// Costs at the current configuration.
    pub fn current(&self) -> CostPrediction {
        self.predict(
            self.navigator.entries,
            self.navigator.entry_bytes,
            self.filter_bits,
            &self.navigator.env,
        )
    }

    /// Costs if the filter memory changes to `filter_bytes`.
    pub fn with_filter_memory(&self, filter_bytes: usize) -> CostPrediction {
        self.predict(
            self.navigator.entries,
            self.navigator.entry_bytes,
            (filter_bytes * 8) as f64,
            &self.navigator.env,
        )
    }

    /// Costs if the dataset grows/shrinks to `entries` entries.
    pub fn with_entries(&self, entries: u64) -> CostPrediction {
        self.predict(
            entries,
            self.navigator.entry_bytes,
            self.filter_bits,
            &self.navigator.env,
        )
    }

    /// Costs if the entry size changes.
    pub fn with_entry_bytes(&self, entry_bytes: usize) -> CostPrediction {
        self.predict(
            self.navigator.entries,
            entry_bytes,
            self.filter_bits,
            &self.navigator.env,
        )
    }

    /// Costs if the store moves to a different device (e.g. disk → flash).
    pub fn with_device(&self, env: Environment) -> CostPrediction {
        self.predict(
            self.navigator.entries,
            self.navigator.entry_bytes,
            self.filter_bits,
            &env,
        )
    }

    fn predict(
        &self,
        entries: u64,
        entry_bytes: usize,
        filter_bits: f64,
        env: &Environment,
    ) -> CostPrediction {
        let p = self.params(entries, entry_bytes);
        CostPrediction {
            zero_result_lookup: zero_result_lookup_cost(&p, filter_bits),
            zero_result_lookup_baseline: baseline_zero_result_lookup_cost(&p, filter_bits),
            non_zero_result_lookup: non_zero_result_lookup_cost(&p, filter_bits),
            update: update_cost(&p, env.phi),
            range: range_lookup_cost(&p, 0.001),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monkey_lsm::MergePolicy;

    fn nav() -> Navigator {
        Navigator::new(1 << 20, 1024, 4096, Environment::disk())
    }

    #[test]
    fn recommendation_is_openable_and_matches_tuning() {
        let rec = nav().recommend(&Workload::lookups_vs_updates(0.5), 32 << 20);
        assert_eq!(
            rec.options.merge_policy,
            to_engine_policy(rec.tuning.policy)
        );
        assert_eq!(rec.options.size_ratio as f64, rec.tuning.size_ratio);
        assert_eq!(rec.options.filter_policy.name(), "monkey");
        // Buffer got at least a page, filters got something.
        assert!(rec.options.buffer_capacity >= 4096);
        assert!(rec.tuning.allocation.filter_bits > 0.0);
        // The options actually open.
        let db = monkey_lsm::Db::open(rec.options).unwrap();
        db.put(&b"k"[..], &b"v"[..]).unwrap();
        assert!(db.get(b"k").unwrap().is_some());
    }

    #[test]
    fn update_heavy_recommends_update_friendly_design() {
        let lookup_rec = nav().recommend(&Workload::lookups_vs_updates(0.95), 32 << 20);
        let update_rec = nav().recommend(&Workload::lookups_vs_updates(0.05), 32 << 20);
        assert!(update_rec.tuning.update_cost <= lookup_rec.tuning.update_cost);
        // The update-heavy recommendation tiers (or at minimum is not a
        // higher-T leveled design).
        if update_rec.options.merge_policy == MergePolicy::Leveling {
            assert!(update_rec.options.size_ratio <= lookup_rec.options.size_ratio);
        }
    }

    #[test]
    fn sla_bound_respected_in_recommendation() {
        let wl = Workload::lookups_vs_updates(0.9);
        let free = nav().recommend(&wl, 32 << 20);
        // A feasible bound (at the free optimum's own cost) is honored…
        let bounded = nav().recommend_bounded(
            &wl,
            32 << 20,
            &TuningConstraints {
                max_update_cost: Some(free.tuning.update_cost),
                ..Default::default()
            },
        );
        assert!(bounded.tuning.theta.is_finite());
        assert!(bounded.tuning.update_cost <= free.tuning.update_cost + 1e-12);
        // …while a structurally impossible one is reported as infeasible
        // (W has a floor of ~(1+φ)/B regardless of tuning).
        let impossible = nav().recommend_bounded(
            &wl,
            32 << 20,
            &TuningConstraints {
                max_update_cost: Some(1e-9),
                ..Default::default()
            },
        );
        assert!(impossible.tuning.theta.is_infinite());
    }

    #[test]
    fn what_if_memory_increase_improves_lookups() {
        let n = nav();
        let rec = n.recommend(&Workload::lookups_vs_updates(0.5), 16 << 20);
        let wi = n.what_if(&rec.tuning);
        let now = wi.current();
        let more = wi.with_filter_memory((rec.tuning.allocation.filter_bits / 8.0) as usize * 4);
        assert!(more.zero_result_lookup <= now.zero_result_lookup);
        assert_eq!(more.update, now.update, "filter memory does not affect W");
    }

    #[test]
    fn what_if_growth_keeps_monkey_flat_but_baseline_grows() {
        let n = nav();
        let rec = n.recommend(&Workload::lookups_vs_updates(0.5), 32 << 20);
        let wi = n.what_if(&rec.tuning);
        let now = wi.current();
        // NOTE: filter_bits is held fixed while N grows 16×, so R rises for
        // both — but the baseline stays strictly worse.
        let grown = wi.with_entries((1u64 << 20) * 16);
        assert!(grown.zero_result_lookup <= grown.zero_result_lookup_baseline + 1e-9);
        assert!(grown.update >= now.update, "more levels: costlier updates");
    }

    #[test]
    fn what_if_flash_lowers_update_penalty_ratio() {
        let n = nav();
        let rec = n.recommend(&Workload::lookups_vs_updates(0.5), 32 << 20);
        let wi = n.what_if(&rec.tuning);
        let disk = wi.current();
        let flash = wi.with_device(Environment::flash());
        // φ: 1 → 3 doubles (1+φ) from 2 to 4.
        assert!((flash.update / disk.update - 2.0).abs() < 1e-9);
    }

    #[test]
    fn what_if_bigger_entries_cost_more_io() {
        let n = nav();
        let rec = n.recommend(&Workload::lookups_vs_updates(0.5), 32 << 20);
        let wi = n.what_if(&rec.tuning);
        let small = wi.with_entry_bytes(128);
        let big = wi.with_entry_bytes(2048);
        assert!(
            big.update > small.update,
            "fewer entries per page: costlier merges"
        );
        assert!(big.range >= small.range);
    }
}
