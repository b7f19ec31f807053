//! Database configuration: the paper's tuning knobs, as a builder.

use crate::policy::{FilterPolicy, MergePolicy, UniformFilterPolicy};
use monkey_bloom::FilterVariant;
use monkey_storage::IoBackend;
use std::path::PathBuf;
use std::sync::Arc;

/// Where the database's pages live.
#[derive(Debug, Clone)]
pub enum StorageConfig {
    /// In-memory simulated disk (the experiment default; volatile).
    Memory,
    /// In-memory simulated disk with an LRU block cache of the given byte
    /// size (Figure 12's configuration; volatile).
    MemoryCached(usize),
    /// A directory on the filesystem (durable; enables WAL + manifest).
    Directory(PathBuf),
}

/// All tuning knobs of the engine. The defaults mirror a LevelDB-style
/// configuration: leveling, size ratio 10, 1 MiB buffer, 4 KiB pages,
/// uniform 10 bits-per-entry filters.
#[derive(Clone)]
pub struct DbOptions {
    /// Storage backing.
    pub storage: StorageConfig,
    /// Disk page size in bytes (`B·E` in the paper: entries per page ×
    /// entry size).
    pub page_size: usize,
    /// Buffer (memtable) capacity in bytes — the paper's `M_buffer = P·B·E`.
    pub buffer_capacity: usize,
    /// Size ratio `T` between adjacent level capacities (≥ 2).
    pub size_ratio: usize,
    /// Leveling or tiering.
    pub merge_policy: MergePolicy,
    /// Bloom-filter allocation policy.
    pub filter_policy: Arc<dyn FilterPolicy>,
    /// Bloom-filter layout: standard flat filters (best accuracy per bit)
    /// or cache-line-blocked ones (at most one cache miss per probe, with
    /// the honest — worse — FPR model charged to expected lookup I/O).
    pub filter_variant: FilterVariant,
    /// fsync the WAL on every append (durable but slow) instead of on
    /// flush boundaries. Each shard's log syncs once per group commit:
    /// writers that arrive while its leader syncs wait, and the next
    /// leader writes and syncs all their records at once. No put returns
    /// before its record is synced.
    pub wal_sync_each_append: bool,
    /// Run flushes and merge cascades on a dedicated background thread.
    /// When off (the default, and what the experiment harness uses), a put
    /// that fills the buffer drains it inline on the calling thread —
    /// deterministic I/O timing, same amortized cost. Either way, reads
    /// are served from an immutable version snapshot and never block on a
    /// merge.
    pub background_compaction: bool,
    /// How many full (immutable) memtables may queue behind the active one
    /// before puts stall waiting for the flush stage to catch up (≥ 1).
    pub max_immutable_memtables: usize,
    /// Record engine telemetry: latency histograms, per-level I/O
    /// attribution, and the structured event timeline, exposed through
    /// `Db::telemetry_report()`. Off by default; when off, the hub costs
    /// one `None` branch per operation. The per-level lookup counts behind
    /// `Db::lookup_stats()` and the report's measured FPRs are kept either
    /// way.
    pub telemetry: bool,
    /// Keyspace shards (≥ 1). With more than one, the keyspace is hash-
    /// partitioned into this many independent engines behind the `Db`
    /// facade — each with its own memtable, WAL, immutable queue, and
    /// flush/merge pipeline — and the memory budgets (`buffer_capacity`,
    /// block cache) are split across them per §4.4.
    /// Default 1: the single-shard engine, byte-identical on disk to the
    /// pre-shard code path (every figure and model comparison runs there).
    pub shards: usize,
}

impl DbOptions {
    /// Options for a volatile in-memory database.
    pub fn in_memory() -> Self {
        Self {
            storage: StorageConfig::Memory,
            ..Self::base()
        }
    }

    /// Options for an in-memory database with a block cache (Figure 12's
    /// configuration).
    pub fn in_memory_cached(cache_bytes: usize) -> Self {
        Self {
            storage: StorageConfig::MemoryCached(cache_bytes),
            ..Self::base()
        }
    }

    /// Options for a durable database rooted at `dir`.
    pub fn at_path(dir: impl Into<PathBuf>) -> Self {
        Self {
            storage: StorageConfig::Directory(dir.into()),
            ..Self::base()
        }
    }

    fn base() -> Self {
        Self {
            storage: StorageConfig::Memory,
            page_size: 4096,
            buffer_capacity: 1 << 20,
            size_ratio: 10,
            merge_policy: MergePolicy::Leveling,
            filter_policy: Arc::new(UniformFilterPolicy::new(10.0)),
            filter_variant: FilterVariant::Standard,
            wal_sync_each_append: false,
            background_compaction: false,
            max_immutable_memtables: 2,
            telemetry: false,
            // The env override lets CI (and ad-hoc experiments) run the
            // whole suite sharded without touching every call site that
            // builds options.
            shards: env_override("MONKEY_SHARDS", at_least_one).unwrap_or(1),
        }
    }

    /// Sets the page size in bytes.
    pub fn page_size(mut self, bytes: usize) -> Self {
        assert!(bytes > 32, "page size too small to hold entries: {bytes}");
        self.page_size = bytes;
        self
    }

    /// Sets the buffer capacity in bytes.
    pub fn buffer_capacity(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "buffer capacity must be positive");
        self.buffer_capacity = bytes;
        self
    }

    /// Sets the size ratio `T`. Panics below 2, the paper's lower bound,
    /// where leveling and tiering coincide.
    pub fn size_ratio(mut self, t: usize) -> Self {
        assert!(t >= 2, "size ratio must be at least 2, got {t}");
        self.size_ratio = t;
        self
    }

    /// Sets the merge policy.
    pub fn merge_policy(mut self, policy: MergePolicy) -> Self {
        self.merge_policy = policy;
        self
    }

    /// Sets the filter allocation policy.
    pub fn filter_policy(mut self, policy: Arc<dyn FilterPolicy>) -> Self {
        self.filter_policy = policy;
        self
    }

    /// Shorthand for a uniform filter policy at `bits_per_entry`.
    pub fn uniform_filters(mut self, bits_per_entry: f64) -> Self {
        self.filter_policy = Arc::new(UniformFilterPolicy::new(bits_per_entry));
        self
    }

    /// Sets the Bloom-filter layout variant.
    pub fn filter_variant(mut self, variant: FilterVariant) -> Self {
        self.filter_variant = variant;
        self
    }

    /// Shorthand for the cache-line-blocked filter layout.
    pub fn blocked_filters(self) -> Self {
        self.filter_variant(FilterVariant::Blocked)
    }

    /// Enables fsync-per-append WAL durability.
    pub fn wal_sync_each_append(mut self, on: bool) -> Self {
        self.wal_sync_each_append = on;
        self
    }

    /// Run pages take one I/O path, buffered, whatever this says. Stays
    /// only because the perf ledger names it; ROADMAP item 15(a) removes it.
    pub fn io_backend(self, _: IoBackend) -> Self {
        self
    }

    /// Moves flushes and merge cascades to a dedicated background thread.
    pub fn background_compaction(mut self, on: bool) -> Self {
        self.background_compaction = on;
        self
    }

    /// Sets how many immutable memtables may queue before puts stall.
    pub fn max_immutable_memtables(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one immutable memtable must be allowed");
        self.max_immutable_memtables = n;
        self
    }

    /// Enables engine telemetry (see [`DbOptions::telemetry`]).
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Every merge runs on one thread, whatever this says. Stays only
    /// because the perf ledger names it; ROADMAP item 15(a) removes it.
    pub fn compaction_threads(self, _: usize) -> Self {
        self
    }

    /// Sets how many keyspace shards the store runs (see
    /// [`DbOptions::shards`]).
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one shard is required");
        self.shards = n;
        self
    }
}

/// The value of the `MONKEY_*` variable `name`, which overrides a default:
/// `None` when it is unset. Whole CI jobs run under these, and a job whose
/// override quietly fell back to the default would pass green without
/// testing what it names — so a value `parse` refuses is a panic that names
/// the variable and the value.
fn env_override<T>(name: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let value = std::env::var_os(name)?;
    let value = value.to_string_lossy();
    let parsed = parse(&value);
    assert!(parsed.is_some(), "{name}={value:?} is not a value it takes");
    parsed
}

/// Parses a count of shards.
fn at_least_one(value: &str) -> Option<usize> {
    value.parse().ok().filter(|&n| n >= 1)
}

impl std::fmt::Debug for DbOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbOptions")
            .field("storage", &self.storage)
            .field("page_size", &self.page_size)
            .field("buffer_capacity", &self.buffer_capacity)
            .field("size_ratio", &self.size_ratio)
            .field("merge_policy", &self.merge_policy)
            .field("filter_policy", &self.filter_policy.name())
            .field("filter_variant", &self.filter_variant)
            .field("wal_sync_each_append", &self.wal_sync_each_append)
            .field("background_compaction", &self.background_compaction)
            .field("max_immutable_memtables", &self.max_immutable_memtables)
            .field("telemetry", &self.telemetry)
            .field("shards", &self.shards)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_leveldb_like() {
        let o = DbOptions::in_memory();
        assert_eq!(o.page_size, 4096);
        assert_eq!(o.buffer_capacity, 1 << 20);
        assert_eq!(o.size_ratio, 10);
        assert_eq!(o.merge_policy, MergePolicy::Leveling);
        assert_eq!(o.filter_policy.name(), "uniform");
        assert_eq!(o.filter_variant, FilterVariant::Standard);
    }

    #[test]
    fn blocked_filters_shorthand() {
        let o = DbOptions::in_memory().blocked_filters();
        assert_eq!(o.filter_variant, FilterVariant::Blocked);
        let o = DbOptions::in_memory().filter_variant(FilterVariant::Standard);
        assert_eq!(o.filter_variant, FilterVariant::Standard);
    }

    #[test]
    fn builder_chains() {
        let o = DbOptions::in_memory()
            .page_size(1024)
            .buffer_capacity(2048)
            .size_ratio(4)
            .merge_policy(MergePolicy::Tiering)
            .uniform_filters(5.0);
        assert_eq!(o.page_size, 1024);
        assert_eq!(o.buffer_capacity, 2048);
        assert_eq!(o.size_ratio, 4);
        assert_eq!(o.merge_policy, MergePolicy::Tiering);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn size_ratio_below_two_rejected() {
        DbOptions::in_memory().size_ratio(1);
    }

    #[test]
    fn telemetry_off_by_default() {
        let o = DbOptions::in_memory();
        assert!(!o.telemetry);
        assert!(o.telemetry(true).telemetry);
    }

    #[test]
    fn pipeline_knobs() {
        let o = DbOptions::in_memory();
        assert!(!o.background_compaction, "sync mode is the default");
        assert_eq!(o.max_immutable_memtables, 2);
        let o = o.background_compaction(true).max_immutable_memtables(4);
        assert!(o.background_compaction);
        assert_eq!(o.max_immutable_memtables, 4);
    }

    #[test]
    #[should_panic(expected = "at least one immutable")]
    fn zero_immutable_queue_rejected() {
        DbOptions::in_memory().max_immutable_memtables(0);
    }

    #[test]
    fn shards_knob() {
        // Not asserting the default here: CI runs the suite with
        // MONKEY_SHARDS set, which base() honors by design.
        let o = DbOptions::in_memory();
        assert!(o.shards >= 1);
        assert_eq!(o.shards(8).shards, 8);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        DbOptions::in_memory().shards(0);
    }

    /// A child process — this test binary, running one test that builds
    /// options — under each override set to a value it does not take.
    #[test]
    fn unparseable_override_fails_naming_variable_and_value() {
        for (name, value) in [("MONKEY_SHARDS", "0"), ("MONKEY_SHARDS", "four")] {
            let child = std::process::Command::new(std::env::current_exe().unwrap())
                .args(["--exact", "options::tests::defaults_are_leveldb_like"])
                .env(name, value)
                .output()
                .unwrap();
            let said = String::from_utf8_lossy(&child.stdout);
            assert!(!child.status.success(), "{name}={value} ran on the default");
            assert!(said.contains(&format!("{name}={value:?}")), "{said}");
        }
    }

    #[test]
    fn debug_does_not_explode() {
        let o = DbOptions::at_path("/tmp/x");
        let s = format!("{o:?}");
        assert!(s.contains("uniform"));
    }
}
