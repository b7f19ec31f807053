//! Reconciliation: per-call layer costs times the counts the engine keeps,
//! against the time the client measured. What the product leaves
//! unexplained is a finding, not an error.

use crate::probes::LayerCosts;

/// How often each layer was entered during the traced ops.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub gets: u64,
    pub puts: u64,
    pub ranges: u64,
    /// Entries the ranges yielded.
    pub range_entries: u64,
    /// Runs a range has to open (the tree's run count).
    pub runs: u64,
    pub key_hashes: u64,
    pub filter_probes: u64,
    /// Pages point lookups went on to probe (`probes − negatives`).
    pub page_probes: u64,
    /// `Some((hits, misses))` when the store has a block cache.
    pub cache: Option<(u64, u64)>,
    /// Entries rewritten by merges.
    pub entries_rewritten: u64,
    /// Flushes and merges ran on the client thread.
    pub inline_compaction: bool,
    /// Nanoseconds puts spent stalled on the flush backlog.
    pub stall_ns: u64,
    /// Entries per page, for the sequential reads a range amortises.
    pub entries_per_page: f64,
}

/// Nanoseconds of client time the layer costs account for.
///
/// * get: memtable lookup; then per lookup that reaches disk one key hash,
///   per run a fence search and a filter probe, and per "maybe" a page
///   read (through the cache where there is one) and a page search.
/// * put: memtable insert and WAL append; with inline compaction also its
///   share of flush and merge work. Every put is flushed once.
/// * range: per run a fence search and a random page read; per entry a
///   page decode and `1/B` of a sequential page read — the paper's `Q`.
///   The merging iterator above them is what the residual shows.
pub fn explained_ns(costs: &LayerCosts, counts: &Counts) -> f64 {
    let n = |count: u64| count as f64;
    let point_reads = match counts.cache {
        Some((hits, misses)) => {
            n(hits) * costs.cache_hit_ns
                + n(misses) * (costs.cache_miss_ns + costs.read_page_ns + costs.cache_insert_ns)
        }
        None => n(counts.page_probes) * costs.read_page_ns,
    };
    let gets = n(counts.gets) * costs.memtable_get_ns
        + n(counts.key_hashes) * costs.hash_ns
        + n(counts.filter_probes) * (costs.fence_search_ns + costs.probe_ns)
        + n(counts.page_probes) * costs.page_search_ns
        + point_reads;
    let mut puts =
        n(counts.puts) * (costs.memtable_insert_ns + costs.wal_append_ns) + n(counts.stall_ns);
    if counts.inline_compaction {
        puts += n(counts.puts) * costs.flush_entry_ns
            + n(counts.entries_rewritten) * costs.merge_entry_ns;
    }
    let ranges = n(counts.ranges) * n(counts.runs) * (costs.fence_search_ns + costs.read_page_ns)
        + n(counts.range_entries)
            * (costs.page_next_entry_ns + costs.read_seq_ns / counts.entries_per_page.max(1.0));
    gets + puts + ranges
}

/// `(explained_frac, residual_us_per_op)` of `busy_ns` client nanoseconds
/// over `ops` ops.
pub fn reconcile(costs: &LayerCosts, counts: &Counts, busy_ns: f64, ops: u64) -> (f64, f64) {
    let explained = explained_ns(costs, counts);
    let frac = if busy_ns > 0.0 {
        explained / busy_ns
    } else {
        0.0
    };
    let residual_us = (busy_ns - explained) / ops.max(1) as f64 / 1e3;
    (frac, residual_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> LayerCosts {
        LayerCosts {
            memtable_insert_ns: 300.0,
            memtable_get_ns: 10.0,
            wal_append_ns: 700.0,
            hash_ns: 20.0,
            probe_ns: 30.0,
            fence_search_ns: 50.0,
            page_search_ns: 400.0,
            page_next_entry_ns: 40.0,
            flush_entry_ns: 200.0,
            merge_entry_ns: 500.0,
            read_page_ns: 2_000.0,
            read_seq_ns: 1_600.0,
            cache_hit_ns: 100.0,
            cache_miss_ns: 60.0,
            cache_insert_ns: 240.0,
            ..LayerCosts::default()
        }
    }

    #[test]
    fn zero_result_gets_cost_hash_probes_and_false_positive_reads() {
        let counts = Counts {
            gets: 1_000,
            key_hashes: 1_000,
            filter_probes: 3_000,
            page_probes: 100,
            ..Counts::default()
        };
        // 1000·10 + 1000·20 + 3000·(50+30) + 100·400 + 100·2000
        assert_eq!(explained_ns(&costs(), &counts), 510_000.0);
        let (frac, residual_us) = reconcile(&costs(), &counts, 1_020_000.0, 1_000);
        assert_eq!(frac, 0.5);
        assert_eq!(residual_us, 0.51);
    }

    #[test]
    fn a_cache_replaces_backend_reads_with_hits_and_priced_misses() {
        let counts = Counts {
            gets: 10,
            key_hashes: 10,
            filter_probes: 10,
            page_probes: 10,
            cache: Some((9, 1)),
            ..Counts::default()
        };
        // 10·10 + 10·20 + 10·80 + 10·400 + 9·100 + 1·(60+2000+240)
        assert_eq!(explained_ns(&costs(), &counts), 8_300.0);
    }

    #[test]
    fn puts_pay_for_compaction_only_when_it_runs_inline() {
        let mut counts = Counts {
            puts: 100,
            entries_rewritten: 400,
            stall_ns: 5_000,
            ..Counts::default()
        };
        // 100·(300+700) + 5000
        assert_eq!(explained_ns(&costs(), &counts), 105_000.0);
        counts.inline_compaction = true;
        // + 100·200 + 400·500
        assert_eq!(explained_ns(&costs(), &counts), 325_000.0);
    }

    #[test]
    fn ranges_cost_a_seek_per_run_and_a_decode_per_entry() {
        let counts = Counts {
            ranges: 2,
            range_entries: 200,
            runs: 3,
            entries_per_page: 32.0,
            ..Counts::default()
        };
        // 2·3·(50+2000) + 200·(40 + 1600/32)
        assert_eq!(explained_ns(&costs(), &counts), 30_300.0);
    }

    #[test]
    fn nothing_measured_reconciles_to_zero() {
        let (frac, residual_us) = reconcile(&costs(), &Counts::default(), 0.0, 0);
        assert_eq!((frac, residual_us), (0.0, 0.0));
    }
}
