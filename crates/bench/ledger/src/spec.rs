//! The ledger's frozen definitions: store configuration, the six workloads
//! with their op counts, and the metric tables `BENCHMARK.json` mirrors.
//!
//! Nothing here is a tuning knob. A later PR is judged against numbers
//! recorded under exactly these values, so changing one is its own
//! no-claim PR with a re-measured baseline.

use monkey::MergePolicy;

/// Bytes of one entry (16 B key + 112 B value).
pub const ENTRY_BYTES: usize = 128;
/// Disk page size.
pub const PAGE_BYTES: usize = 4096;
/// Memtable capacity (`M_buffer`).
pub const BUFFER_BYTES: usize = 1 << 20;
/// Size ratio `T`.
pub const SIZE_RATIO: usize = 4;
/// Monkey filter budget — the paper's default.
pub const BITS_PER_ENTRY: f64 = 5.0;
/// Ops are generated, executed and verified in batches of this many; the
/// throughput half reads the clock once per batch.
pub const BATCH: usize = 1024;
/// Entries per range scan (`s = 100 / entries`).
pub const SCAN_ENTRIES: u64 = 100;
/// Locality coefficient of `get_hot` (Fig. 11(D)/12's `c`).
pub const HOT_C: f64 = 0.9;
/// Key skew of `mixed` (YCSB's default).
pub const ZIPF_THETA: f64 = 0.99;
/// `(r, v, q, w)` of `mixed`.
pub const MIXED_MIX: (f64, f64, f64, f64) = (0.20, 0.30, 0.02, 0.48);
/// `--seconds` the frozen op counts are sized for; `run_seconds` in
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Keys re-read after the run and again after reopen.
pub const CHECK_SAMPLE: u64 = 10_000;

/// Data-set size. `FULL` is what every recorded number uses; `SMOKE` exists
/// so the self-tests and `check.sh` finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Entries loaded before the clock starts.
    pub entries: u64,
    /// Block-cache bytes of the `get_hot` store (a quarter of the data).
    pub cache_bytes: usize,
    /// Divides every workload's batch count.
    pub ops_divisor: u64,
    /// Set-ups per untraced run.
    pub setup_repeats: usize,
}

impl Scale {
    /// 250 k entries = 32 MB of user data in a three-level tree.
    pub const FULL: Scale = Scale {
        entries: 250_000,
        cache_bytes: 8 << 20,
        ops_divisor: 1,
        setup_repeats: SETUP_REPEATS,
    };
    /// 20 k entries, a fiftieth of the ops, one set-up.
    pub const SMOKE: Scale = Scale {
        entries: 20_000,
        cache_bytes: 640 << 10,
        ops_divisor: 50,
        setup_repeats: 1,
    };
}

/// The six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `r = 1`: uniform zero-result lookups.
    GetMiss,
    /// `v = 1`: uniform existing keys, no program cache.
    GetCold,
    /// `v = 1` with locality, behind a block cache that holds the hot set.
    GetHot,
    /// `q = 1`: 100-entry scans from a uniform start.
    Scan,
    /// `w = 1`: uniform overwrites, inline compaction.
    Ingest,
    /// All four op types, Zipf keys, tiering, background compaction.
    Mixed,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 6] = [
        Workload::GetMiss,
        Workload::GetCold,
        Workload::GetHot,
        Workload::Scan,
        Workload::Ingest,
        Workload::Mixed,
    ];

    /// The name used on the command line and in every result.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GetMiss => "get_miss",
            Workload::GetCold => "get_cold",
            Workload::GetHot => "get_hot",
            Workload::Scan => "scan",
            Workload::Ingest => "ingest",
            Workload::Mixed => "mixed",
        }
    }

    /// Why the workload exists — the `why` of `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::GetMiss => "Zero-result lookups, the paper's R = sum of FPRs: key hash plus one filter probe per run, page reads only on false positives; storage, cache, WAL and compaction stay idle.",
            Workload::GetCold => "Uniform existing keys with no program cache, the paper's V: every lookup pays fence search, one backend page read and a page probe; data far exceeds any cache.",
            Workload::GetHot => "90% of lookups on a tenth of the keys behind a block cache that holds them: the cache hit path dominates and backend reads nearly vanish; pairs with get_cold as fits-vs-exceeds cache.",
            Workload::Scan => "100-entry range scans, the paper's Q: merging iterator, fence seek, sequential page reads and page decode; filters are bypassed entirely.",
            Workload::Ingest => "Uniform overwrites with inline compaction, the paper's W: WAL, memtable, flush, merge cascades and page writes; the read path is idle and write-amp has levelled off.",
            Workload::Mixed => "r/v/q/w = 0.20/0.30/0.02/0.48 on Zipf keys over a tiered tree with a background flush worker: reads against a changing tree; a gain bought for one op type at another's cost shows here.",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Batches per half at `--seconds = RUN_SECONDS`: the ISSUE's per-half
    /// counts (4 M, 1.2 M, 3 M, 150 k, 1 M, 1.2 M ops on 1 M entries) times
    /// 0.96, on a quarter of the entries — what fits the driver's time cap
    /// with three set-ups per run and a fifth to spare — rounded to whole
    /// batches, then frozen.
    fn frozen_half_batches(self) -> u64 {
        match self {
            Workload::GetMiss => 3750,
            Workload::GetCold => 1125,
            Workload::GetHot => 2812,
            Workload::Scan => 141,
            Workload::Ingest => 938,
            Workload::Mixed => 1125,
        }
    }

    /// Batches per half for a run of `seconds` at `scale` (at least two, so
    /// a traced run, which traces every other batch, has a traced one).
    pub fn half_batches(self, seconds: u64, scale: Scale) -> u64 {
        let scaled = self.frozen_half_batches() * seconds / RUN_SECONDS / scale.ops_divisor;
        scaled.max(2)
    }

    /// No op of the workload changes the store.
    pub fn read_only(self) -> bool {
        !matches!(self, Workload::Ingest | Workload::Mixed)
    }

    /// Merge policy of the workload's store.
    pub fn merge_policy(self) -> MergePolicy {
        match self {
            Workload::Mixed => MergePolicy::Tiering,
            _ => MergePolicy::Leveling,
        }
    }

    /// Flushes and merges run on the engine's worker thread.
    pub fn background_compaction(self) -> bool {
        self == Workload::Mixed
    }

    /// The store has a WAL and a manifest and survives `drop` + `Db::open`.
    /// `get_hot` does not: the block cache is only reachable through
    /// `Db::open_with_disk`, which is volatile.
    pub fn durable(self) -> bool {
        self != Workload::GetHot
    }

    /// The paper's `(r, v, q, w)` of the measured traffic.
    pub fn mix(self) -> (f64, f64, f64, f64) {
        match self {
            Workload::GetMiss => (1.0, 0.0, 0.0, 0.0),
            Workload::GetCold | Workload::GetHot => (0.0, 1.0, 0.0, 0.0),
            Workload::Scan => (0.0, 0.0, 1.0, 0.0),
            Workload::Ingest => (0.0, 0.0, 0.0, 1.0),
            Workload::Mixed => MIXED_MIX,
        }
    }
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, at most 16 characters.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics with the share of the parent's median each may worsen
/// by. The ISSUE's `write_ios_per_op` and `failed_frac` are zero on most
/// workloads, which the driver's contract forbids for a bounded metric:
/// reads and writes are gated together as `ios_per_op` (split per layer as
/// `storage.disk.*_ios_per_op`), and failures are gated by the result's
/// `failed` count (`lsm.db.failed_frac` per layer).
///
/// The ISSUE's `p99_us` is per layer too (`lsm.db.p99_us`), by the ISSUE's
/// own rule — a metric on which two same-code sets disagree beyond its bound
/// is demoted, not given a wider bound. On `get_cold` one op in a hundred is
/// hit by a host interrupt that costs several ops' time, so the 99th
/// percentile sits on the cliff between the two populations and a change of
/// a few tenths of a percent in the interrupt rate moves it by a quarter
/// (see the README).
///
/// Counts repeat to a fraction of a percent and get tight bounds. Every
/// timing gets the contract's widest, 25 %: this host's memory latency
/// shifts by a fifth between regimes that last seconds to minutes, and ten
/// same-code runs spread up to 21 % on a timing (see the README). A bound
/// inside that spread would reject innocent PRs.
pub const END_TO_END: &[(MetricDef, f64)] = &[
    (m("ops_per_s", "op/s", "higher"), 0.25),
    (m("p50_us", "us", "lower"), 0.25),
    (m("ios_per_op", "pages/op", "lower"), 0.05),
    (m("space_amp", "ratio", "lower"), 0.05),
    (m("cpu_us_per_op", "us/op", "lower"), 0.25),
    (m("peak_rss_mb", "MiB", "lower"), 0.10),
    (m("setup_s", "s", "lower"), 0.25),
];

/// Per-layer metrics, emitted by a traced run. Layers are this repo's
/// modules; the README's "moves" table says which end-to-end metric each
/// should move on which workload.
pub const PER_LAYER: &[MetricDef] = &[
    m("workload.gen_ns", "ns/op", "lower"),
    m("lsm.db.get_calls", "count", "lower"),
    m("lsm.db.get_busy_s", "s", "lower"),
    m("lsm.db.get_p50_us", "us", "lower"),
    m("lsm.db.get_p99_us", "us", "lower"),
    m("lsm.db.put_calls", "count", "lower"),
    m("lsm.db.put_busy_s", "s", "lower"),
    m("lsm.db.put_p50_us", "us", "lower"),
    m("lsm.db.put_p99_us", "us", "lower"),
    m("lsm.db.range_calls", "count", "lower"),
    m("lsm.db.range_busy_s", "s", "lower"),
    m("lsm.db.range_p50_us", "us", "lower"),
    m("lsm.db.range_p99_us", "us", "lower"),
    m("lsm.db.range_entries", "count", "lower"),
    m("lsm.db.p99_us", "us", "lower"),
    m("lsm.db.p999_us", "us", "lower"),
    m("lsm.db.max_us", "us", "lower"),
    m("lsm.db.stalls", "count", "lower"),
    m("lsm.db.stall_s", "s", "lower"),
    m("lsm.db.depth", "levels", "lower"),
    m("lsm.db.runs", "count", "lower"),
    m("lsm.db.reopen_s", "s", "lower"),
    m("lsm.db.failed_frac", "ratio", "lower"),
    m("lsm.memtable.insert_ns", "ns", "lower"),
    m("lsm.memtable.get_ns", "ns", "lower"),
    m("lsm.memtable.inserts", "count", "lower"),
    m("lsm.memtable.lookups", "count", "lower"),
    m("lsm.wal.append_ns", "ns", "lower"),
    m("lsm.wal.appends", "count", "lower"),
    m("lsm.wal.group_commits", "count", "lower"),
    m("lsm.wal.syncs", "count", "lower"),
    m("lsm.wal.bytes", "bytes", "lower"),
    m("bloom.filter.hash_ns", "ns", "lower"),
    m("bloom.filter.probe_ns", "ns", "lower"),
    m("bloom.filter.key_hashes", "count", "lower"),
    m("bloom.filter.probes", "count", "lower"),
    m("bloom.filter.negatives", "count", "higher"),
    m("bloom.filter.false_positives", "count", "lower"),
    m("bloom.filter.useful_frac", "ratio", "higher"),
    m("bloom.filter.bits_per_entry", "bits", "lower"),
    m("bloom.filter.expected_r", "pages/op", "lower"),
    m("lsm.run.fence_search_ns", "ns", "lower"),
    m("lsm.run.get_ns", "ns", "lower"),
    m("lsm.run.page_probes", "count", "lower"),
    m("lsm.page.search_ns", "ns", "lower"),
    m("lsm.page.next_entry_ns", "ns", "lower"),
    m("lsm.page.build_entry_ns", "ns", "lower"),
    m("lsm.iter.seek_ns", "ns", "lower"),
    m("lsm.iter.entry_ns", "ns", "lower"),
    m("lsm.iter.entries", "count", "lower"),
    m("lsm.compaction.flush_entry_ns", "ns", "lower"),
    m("lsm.compaction.merge_entry_ns", "ns", "lower"),
    m("lsm.compaction.flushes", "count", "lower"),
    m("lsm.compaction.merges", "count", "lower"),
    m("lsm.compaction.entries_rewritten", "count", "lower"),
    m("lsm.compaction.rewrites_per_put", "ratio", "lower"),
    m("storage.disk.read_page_ns", "ns", "lower"),
    m("storage.disk.read_seq_ns", "ns", "lower"),
    m("storage.disk.write_page_ns", "ns", "lower"),
    m("storage.disk.page_reads", "count", "lower"),
    m("storage.disk.page_writes", "count", "lower"),
    m("storage.disk.seeks", "count", "lower"),
    m("storage.disk.bytes_on_disk", "bytes", "lower"),
    m("storage.disk.read_ios_per_op", "pages/op", "lower"),
    m("storage.disk.write_ios_per_op", "pages/op", "lower"),
    m("storage.cache.hit_ns", "ns", "lower"),
    m("storage.cache.miss_ns", "ns", "lower"),
    m("storage.cache.insert_ns", "ns", "lower"),
    m("storage.cache.hits", "count", "higher"),
    m("storage.cache.misses", "count", "lower"),
    m("storage.cache.hit_ratio", "ratio", "higher"),
    m("model.read_ios_per_op", "pages/op", "lower"),
    m("model.write_ios_per_op", "pages/op", "lower"),
    m("model.read_gap_frac", "ratio", "lower"),
    m("model.write_gap_frac", "ratio", "lower"),
    m("reconcile.explained_frac", "ratio", "higher"),
    m("reconcile.residual_us_per_op", "us/op", "lower"),
    m("trace.overhead_frac", "ratio", "lower"),
];
