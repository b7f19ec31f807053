//! Shared harness for the experiments of [`figures`] (one registry row per
//! paper table/figure).
//!
//! Every experiment follows the paper's protocol (§5): build a store at a
//! given design point, bulk-load `N` uniformly-distributed entries in
//! random order, then drive a query phase while counting page I/Os. The
//! paper's latency axes are reproduced as *modeled latency* = I/O counts ×
//! the device model (its own Figure 11 annotates the dotted guide lines in
//! I/Os per lookup, which is the primary metric here — see DESIGN.md §3 on
//! the testbed substitution).

pub mod figures;

use monkey::{Db, DbOptions, DbOptionsExt, FilterVariant, MergePolicy};
use monkey_storage::{DeviceModel, IoSnapshot};
use monkey_workload::{KeySpace, TemporalSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Which filter allocation a configuration uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterKind {
    /// No filters at all.
    None,
    /// The state of the art: uniform bits per entry (the paper's
    /// "LevelDB" baseline).
    Uniform(f64),
    /// Monkey's optimal allocation with the same total budget.
    Monkey(f64),
    /// The Appendix C adaptive allocation.
    Adaptive(f64),
}

impl FilterKind {
    /// Label used in CSV output.
    pub fn label(&self) -> String {
        match self {
            FilterKind::None => "none".into(),
            FilterKind::Uniform(b) => format!("uniform{b}"),
            FilterKind::Monkey(b) => format!("monkey{b}"),
            FilterKind::Adaptive(b) => format!("adaptive{b}"),
        }
    }
}

/// One experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Number of entries to load (`N`).
    pub entries: u64,
    /// Entry size in bytes (`E`).
    pub entry_bytes: usize,
    /// Page size in bytes (`B·E`).
    pub page_bytes: usize,
    /// Buffer capacity in bytes (`M_buffer`).
    pub buffer_bytes: usize,
    /// Size ratio (`T`).
    pub size_ratio: usize,
    /// Merge policy.
    pub policy: MergePolicy,
    /// Filter allocation.
    pub filters: FilterKind,
    /// Filter layout (standard flat or cache-line blocked).
    pub variant: FilterVariant,
    /// Block cache size in bytes (0 = disabled).
    pub cache_bytes: usize,
}

impl ExpConfig {
    /// The paper's default setup (§5), scaled to harness size: size ratio
    /// 2 (where leveling ≡ tiering), 5 bits/entry, uniform-vs-Monkey
    /// comparisons at identical total memory. 2¹⁶ entries of 64 B with
    /// 1 KiB pages and a 16 KiB buffer give an 8-level tree at T = 2 —
    /// deep enough to exhibit every scaling effect in Figure 11.
    pub fn paper_default() -> Self {
        Self {
            entries: 1 << 16,
            entry_bytes: 64,
            page_bytes: 1024,
            buffer_bytes: 16 << 10,
            size_ratio: 2,
            policy: MergePolicy::Leveling,
            filters: FilterKind::Monkey(5.0),
            variant: FilterVariant::Standard,
            cache_bytes: 0,
        }
    }

    /// Same configuration with a different filter allocation.
    pub fn with_filters(mut self, filters: FilterKind) -> Self {
        self.filters = filters;
        self
    }

    /// Same configuration with a different filter layout.
    pub fn with_variant(mut self, variant: FilterVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Builds the engine options for this configuration. `shards` is set
    /// explicitly because its default reads the `MONKEY_SHARDS` environment
    /// variable, which must not change a figure.
    pub fn options(&self) -> DbOptions {
        let base = if self.cache_bytes > 0 {
            DbOptions::in_memory_cached(self.cache_bytes)
        } else {
            DbOptions::in_memory()
        };
        let base = base
            .page_size(self.page_bytes)
            .buffer_capacity(self.buffer_bytes)
            .size_ratio(self.size_ratio)
            .merge_policy(self.policy)
            .filter_variant(self.variant)
            .shards(1);
        match self.filters {
            FilterKind::None => base.uniform_filters(0.0),
            FilterKind::Uniform(bpe) => base.uniform_filters(bpe),
            FilterKind::Monkey(bpe) => base.monkey_filters(bpe),
            FilterKind::Adaptive(bpe) => base.adaptive_filters(bpe),
        }
    }

    /// The key space matching this configuration.
    pub fn key_space(&self) -> KeySpace {
        KeySpace::with_entry_size(self.entries, self.entry_bytes)
    }
}

/// A loaded database ready for a query phase.
pub struct LoadedDb {
    /// The store.
    pub db: Arc<Db>,
    /// Its key space.
    pub keys: KeySpace,
    /// Index inserted at each position (position = insertion order).
    pub insertion_order: Vec<u64>,
}

/// Builds and bulk-loads a store per the paper's protocol. After loading,
/// filters are re-fit to the final tree shape (the paper's implementation
/// re-assigns FPRs as the tree evolves; our runs fix filters at build time,
/// so we re-fit once the load completes) and I/O counters reset.
pub fn load(cfg: &ExpConfig, seed: u64) -> LoadedDb {
    let db = Db::open(cfg.options()).expect("open");
    let keys = cfg.key_space();
    let order = fill(&db, &keys, &mut StdRng::seed_from_u64(seed));
    db.rebuild_filters().expect("rebuild filters");
    db.reset_io();
    LoadedDb {
        db,
        keys,
        insertion_order: order,
    }
}

/// Puts every entry of `keys` once, in an order `rng` shuffles; returns
/// that order.
pub fn fill(db: &Db, keys: &KeySpace, rng: &mut StdRng) -> Vec<u64> {
    let order = keys.shuffled_indices(rng);
    for &i in &order {
        db.put(keys.existing_key(i), keys.value_for(i))
            .expect("put");
    }
    order
}

/// An I/O measurement over a batch of operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Operations performed.
    pub ops: u64,
    /// Raw I/O counters for the batch.
    pub io: IoSnapshot,
    /// Page reads per operation — the paper's "I/Os per lookup".
    pub ios_per_op: f64,
    /// Modeled latency per operation on the given device, in milliseconds.
    pub latency_ms_per_op: f64,
}

/// Wraps a batch of operations with I/O accounting.
pub fn measure<F: FnOnce()>(db: &Db, device: &DeviceModel, ops: u64, body: F) -> Measurement {
    let before = db.io();
    body();
    let io = db.io() - before;
    Measurement {
        ops,
        io,
        ios_per_op: io.page_reads as f64 / ops.max(1) as f64,
        latency_ms_per_op: device.latency_secs(&io) * 1e3 / ops.max(1) as f64,
    }
}

/// The paper's default query phase: zero-result lookups uniformly
/// distributed over the (disjoint) missing-key space.
pub fn zero_result_lookups(loaded: &LoadedDb, n: u64, seed: u64) -> Measurement {
    let mut rng = StdRng::seed_from_u64(seed);
    measure(&loaded.db, &DeviceModel::disk(), n, || {
        for _ in 0..n {
            let key = loaded.keys.random_missing(&mut rng);
            assert!(
                loaded.db.get(&key).expect("get").is_none(),
                "must be zero-result"
            );
        }
    })
}

/// Non-zero-result lookups of the keys whose indices `next_index` draws.
pub fn existing_lookups(
    loaded: &LoadedDb,
    n: u64,
    mut next_index: impl FnMut() -> u64,
) -> Measurement {
    measure(&loaded.db, &DeviceModel::disk(), n, || {
        for _ in 0..n {
            let key = loaded.keys.existing_key(next_index());
            assert!(loaded.db.get(&key).expect("get").is_some(), "must exist");
        }
    })
}

/// Non-zero-result lookups with temporal locality `c` (Figure 11(D)):
/// recency rank sampled by the paper's coefficient, mapped through the
/// actual insertion order.
pub fn existing_lookups_temporal(loaded: &LoadedDb, c: f64, n: u64, seed: u64) -> Measurement {
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = TemporalSampler::new(loaded.keys.entries, c);
    let order = &loaded.insertion_order;
    existing_lookups(loaded, n, || {
        let rank = sampler.sample_rank(&mut rng) as usize;
        // rank 0 = most recently inserted = last position.
        order[order.len() - 1 - rank]
    })
}

/// Updates (overwrites of random existing keys), measuring amortized write
/// I/O per update — the engine's flushes and merges are included.
pub fn updates(loaded: &LoadedDb, n: u64, seed: u64) -> Measurement {
    let mut rng = StdRng::seed_from_u64(seed);
    let before = loaded.db.io();
    for _ in 0..n {
        let (i, key) = loaded.keys.random_existing(&mut rng);
        loaded.db.put(key, loaded.keys.value_for(i)).expect("put");
    }
    let io = loaded.db.io() - before;
    let device = DeviceModel::disk();
    Measurement {
        ops: n,
        io,
        ios_per_op: (io.page_reads + io.page_writes) as f64 / n.max(1) as f64,
        latency_ms_per_op: device.latency_secs(&io) * 1e3 / n.max(1) as f64,
    }
}

/// Mixed zero-result-lookup/update phase (Figure 11(F)); returns modeled
/// throughput in operations/second on the disk device.
pub fn mixed_phase(loaded: &LoadedDb, lookup_fraction: f64, n: u64, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let device = DeviceModel::disk();
    let before = loaded.db.io();
    for _ in 0..n {
        if rng.gen_bool(lookup_fraction) {
            let key = loaded.keys.random_missing(&mut rng);
            let _ = loaded.db.get(&key).expect("get");
        } else {
            let (i, key) = loaded.keys.random_existing(&mut rng);
            loaded.db.put(key, loaded.keys.value_for(i)).expect("put");
        }
    }
    let io = loaded.db.io() - before;
    let secs = device.latency_secs(&io).max(1e-12);
    n as f64 / secs
}

/// Formats a float compactly for CSV.
pub fn f(x: f64) -> String {
    format!("{x:.6}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            entries: 2000,
            entry_bytes: 64,
            page_bytes: 1024,
            buffer_bytes: 4096,
            size_ratio: 2,
            policy: MergePolicy::Leveling,
            filters: FilterKind::Monkey(5.0),
            variant: FilterVariant::Standard,
            cache_bytes: 0,
        }
    }

    #[test]
    fn load_and_query_roundtrip() {
        let loaded = load(&tiny(), 1);
        assert_eq!(loaded.insertion_order.len(), 2000);
        let m = zero_result_lookups(&loaded, 500, 2);
        assert_eq!(m.ops, 500);
        assert!(
            m.ios_per_op < 1.0,
            "filters absorb most probes: {}",
            m.ios_per_op
        );
        let m = existing_lookups_temporal(&loaded, 0.5, 200, 3);
        assert!(m.ios_per_op >= 1.0, "found keys cost at least one read");
    }

    #[test]
    fn monkey_beats_uniform_on_zero_result_lookups() {
        let monkey = load(&tiny(), 1);
        let uniform = load(&tiny().with_filters(FilterKind::Uniform(5.0)), 1);
        let m = zero_result_lookups(&monkey, 2000, 2);
        let u = zero_result_lookups(&uniform, 2000, 2);
        assert!(
            m.ios_per_op < u.ios_per_op,
            "monkey {} vs uniform {}",
            m.ios_per_op,
            u.ios_per_op
        );
    }

    #[test]
    fn updates_measure_write_amplification() {
        let loaded = load(&tiny(), 1);
        let m = updates(&loaded, 2000, 4);
        assert!(m.io.page_writes > 0);
        assert!(m.ios_per_op > 0.0);
    }

    #[test]
    fn blocked_variant_loads_and_queries() {
        let loaded = load(&tiny().with_variant(FilterVariant::Blocked), 1);
        let m = zero_result_lookups(&loaded, 500, 2);
        assert!(
            m.ios_per_op < 1.0,
            "blocked filters still absorb most probes: {}",
            m.ios_per_op
        );
        let m = existing_lookups_temporal(&loaded, 0.5, 200, 3);
        assert!(m.ios_per_op >= 1.0);
    }

    #[test]
    fn filter_labels() {
        assert_eq!(FilterKind::None.label(), "none");
        assert_eq!(FilterKind::Uniform(5.0).label(), "uniform5");
        assert_eq!(FilterKind::Monkey(5.0).label(), "monkey5");
    }
}
