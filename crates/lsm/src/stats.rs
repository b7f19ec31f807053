//! Introspection: the tree's shape, memory footprint, and expected costs.
//!
//! These statistics are what the experiment harness records: the actual
//! per-level filter allocation, the memory terms `M_buffer` / `M_filters` /
//! `M_pointers` of the paper's Figure 2, and the model-predicted expected
//! I/O cost of a zero-result lookup (the sum of all filters' false positive
//! rates — the paper's central quantity `R`).

/// Statistics of one disk level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelStats {
    /// 1-based level index.
    pub level: usize,
    /// Number of runs resident at this level.
    pub runs: usize,
    /// Entries across the level's runs.
    pub entries: u64,
    /// Payload bytes across the level's runs.
    pub bytes: u64,
    /// Capacity threshold of the level in bytes (`M_buffer · Tⁱ`).
    pub capacity_bytes: u64,
    /// Filter memory across the level's runs, in bits.
    pub filter_bits: u64,
    /// Sum of the level's runs' theoretical false positive rates — the
    /// level's contribution to `R`.
    pub fpr_sum: f64,
}

impl LevelStats {
    /// Adds the same level of another shard's tree.
    fn merge(&mut self, other: &LevelStats) {
        self.runs += other.runs;
        self.entries += other.entries;
        self.bytes += other.bytes;
        self.capacity_bytes += other.capacity_bytes;
        self.filter_bits += other.filter_bits;
        self.fpr_sum += other.fpr_sum;
    }
}

/// Snapshot of the whole database's structure.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DbStats {
    /// Entries currently in the buffer.
    pub buffer_entries: u64,
    /// Bytes currently in the buffer.
    pub buffer_bytes: u64,
    /// Configured buffer capacity (`M_buffer`).
    pub buffer_capacity: u64,
    /// Per-level statistics, shallowest first.
    pub levels: Vec<LevelStats>,
    /// Total entries on disk (excludes the buffer).
    pub disk_entries: u64,
    /// Total runs on disk.
    pub runs: usize,
    /// Total filter memory in bits (`M_filters`).
    pub filter_bits: u64,
    /// Total fence-pointer memory in bits (`M_pointers`).
    pub fence_bits: u64,
    /// Expected I/Os for a zero-result point lookup: the sum of all runs'
    /// theoretical false positive rates (Eq. 3).
    pub expected_zero_result_lookup_ios: f64,
    /// Observed point-lookup path counters since the database was opened.
    pub lookups: LookupStats,
    /// Entries held in immutable memtables queued for flush (readable but
    /// no longer accepting writes).
    pub immutable_entries: u64,
    /// Write-pipeline counters since the database was opened.
    pub pipeline: PipelineStats,
    /// Write-pipeline gauges: instantaneous levels at snapshot time.
    pub pipeline_gauges: PipelineGauges,
}

/// Observed **counters** of the background write pipeline: how often
/// foreground puts hit backpressure and how well the WAL's group commit
/// amortizes writes.
///
/// Everything here is monotonically non-decreasing over the lifetime of
/// the `Db` handle, so two snapshots can be subtracted to get a rate
/// (a Prometheus `counter`). Instantaneous levels — quantities that go
/// both up and down, where subtraction is meaningless — live in
/// [`PipelineGauges`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// Puts that blocked because the immutable-memtable backlog was at
    /// its configured limit.
    pub stalls: u64,
    /// Total wall-clock microseconds puts spent stalled.
    pub stall_micros: u64,
    /// Flush/merge failures recorded by the background worker (the error
    /// itself is returned from the next foreground call).
    pub background_errors: u64,
    /// WAL write batches issued (each one `write` + at most one `sync`).
    pub wal_group_commits: u64,
    /// WAL records carried by those batches; `wal_batched_appends /
    /// wal_group_commits` is the mean group-commit batch size.
    pub wal_batched_appends: u64,
    /// Physical `fsync` calls the WAL issued: one per group commit under
    /// `wal_sync_each_append`, plus one per segment seal. Writers queued
    /// behind a syncing leader share its next batch, so `wal_syncs /
    /// wal_batched_appends` — syncs per put — drops below 1 under load.
    pub wal_syncs: u64,
}

/// Observed **gauges** of the background write pipeline: instantaneous
/// levels, valid only at the moment the snapshot was taken.
///
/// A gauge moves in both directions — the flush backlog grows when puts
/// outrun the flush stage and shrinks as it catches up — so unlike the
/// monotone [`PipelineStats`] counters, subtracting two gauge snapshots
/// tells you nothing; only the latest value is meaningful (a Prometheus
/// `gauge`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineGauges {
    /// Immutable memtables currently queued behind the active one.
    pub immutable_queue_depth: usize,
    /// Writer threads currently blocked in a backpressure stall, waiting
    /// for the flush stage to drain the immutable queue.
    pub stalled_writers: usize,
}

impl PipelineStats {
    /// Counter-wise sum across shards.
    pub fn merge(&mut self, other: &PipelineStats) {
        self.stalls += other.stalls;
        self.stall_micros += other.stall_micros;
        self.background_errors += other.background_errors;
        self.wal_group_commits += other.wal_group_commits;
        self.wal_batched_appends += other.wal_batched_appends;
        self.wal_syncs += other.wal_syncs;
    }
}

impl PipelineGauges {
    /// Sum across shards: the store's backlog and its stalled writers.
    pub fn merge(&mut self, other: &PipelineGauges) {
        self.immutable_queue_depth += other.immutable_queue_depth;
        self.stalled_writers += other.stalled_writers;
    }
}

/// A snapshot of the engine's maintenance work since open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionStats {
    /// Buffer flushes performed.
    pub flushes: u64,
    /// Merge operations performed (leveling merges and tiering merges).
    pub merges: u64,
    /// Entries read-and-rewritten by merges — divided by the number of
    /// user updates this is the engine's measured write amplification in
    /// entries (the quantity Eq. 10 models in I/Os).
    pub entries_rewritten: u64,
}

impl CompactionStats {
    /// Counters sum across shards.
    pub fn merge(&mut self, other: &CompactionStats) {
        self.flushes += other.flushes;
        self.merges += other.merges;
        self.entries_rewritten += other.entries_rewritten;
    }
}

/// Observed counters of the point-lookup fast path. Where
/// [`DbStats::expected_zero_result_lookup_ios`] is the *model's* prediction
/// of `R`, these are the *measured* quantities: `filter_false_positives /
/// key_hashes` is the empirical zero-result I/O rate when the workload is
/// all zero-result lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LookupStats {
    /// Lookups that reached the disk levels; each hashes its key exactly
    /// once, however many runs it then visits.
    pub key_hashes: u64,
    /// Bloom-filter probes across all runs visited (degenerate zero-bit
    /// filters are not probed).
    pub filter_probes: u64,
    /// Probes the filter answered "definitely absent" — I/O saved.
    pub filter_negatives: u64,
    /// Probes where the filter said "maybe" but the page read found
    /// nothing — one wasted I/O each; the measured counterpart of `R`.
    pub filter_false_positives: u64,
}

impl LookupStats {
    /// Counter-wise sum across shards.
    pub fn merge(&mut self, other: &LookupStats) {
        self.key_hashes += other.key_hashes;
        self.filter_probes += other.filter_probes;
        self.filter_negatives += other.filter_negatives;
        self.filter_false_positives += other.filter_false_positives;
    }

    /// Measured wasted I/Os per point lookup — the empirical counterpart
    /// of [`DbStats::expected_zero_result_lookup_ios`] when the workload
    /// is all zero-result lookups. `0.0` before any lookup ran.
    pub fn measured_zero_result_lookup_ios(&self) -> f64 {
        if self.key_hashes == 0 {
            0.0
        } else {
            self.filter_false_positives as f64 / self.key_hashes as f64
        }
    }
}

impl DbStats {
    /// Folds another shard's snapshot into this one: every term sums,
    /// level by level where the trees differ in depth. That includes the
    /// false-positive-rate terms — see [`per_lookup`](Self::per_lookup).
    pub fn merge(&mut self, other: &DbStats) {
        self.buffer_entries += other.buffer_entries;
        self.buffer_bytes += other.buffer_bytes;
        self.buffer_capacity += other.buffer_capacity;
        for theirs in &other.levels {
            match self.levels.get_mut(theirs.level - 1) {
                Some(mine) => mine.merge(theirs),
                None => self.levels.push(theirs.clone()),
            }
        }
        self.disk_entries += other.disk_entries;
        self.runs += other.runs;
        self.filter_bits += other.filter_bits;
        self.fence_bits += other.fence_bits;
        self.expected_zero_result_lookup_ios += other.expected_zero_result_lookup_ios;
        self.lookups.merge(&other.lookups);
        self.immutable_entries += other.immutable_entries;
        self.pipeline.merge(&other.pipeline);
        self.pipeline_gauges.merge(&other.pipeline_gauges);
    }

    /// Turns the false-positive-rate terms summed over `shards` snapshots
    /// into what one point lookup expects: it probes exactly one shard, so
    /// the mean across them.
    pub fn per_lookup(mut self, shards: usize) -> DbStats {
        let n = shards as f64;
        for level in &mut self.levels {
            level.fpr_sum /= n;
        }
        self.expected_zero_result_lookup_ios /= n;
        self
    }

    /// Number of non-empty disk levels.
    pub fn occupied_levels(&self) -> usize {
        self.levels.iter().filter(|l| l.runs > 0).count()
    }

    /// Depth of the tree: the deepest non-empty level's index (0 when the
    /// tree is empty).
    pub fn depth(&self) -> usize {
        self.levels
            .iter()
            .rev()
            .find(|l| l.runs > 0)
            .map_or(0, |l| l.level)
    }

    /// Effective filter bits-per-entry across the tree.
    pub fn bits_per_entry(&self) -> f64 {
        if self.disk_entries == 0 {
            0.0
        } else {
            self.filter_bits as f64 / self.disk_entries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level(idx: usize, runs: usize) -> LevelStats {
        LevelStats {
            level: idx,
            runs,
            entries: runs as u64 * 10,
            bytes: runs as u64 * 100,
            capacity_bytes: 1000,
            filter_bits: runs as u64 * 50,
            fpr_sum: runs as f64 * 0.01,
        }
    }

    #[test]
    fn depth_and_occupied() {
        let s = DbStats {
            levels: vec![level(1, 1), level(2, 0), level(3, 2)],
            ..Default::default()
        };
        assert_eq!(s.occupied_levels(), 2);
        assert_eq!(s.depth(), 3, "empty middle level does not hide depth");
        assert_eq!(DbStats::default().depth(), 0);
    }

    #[test]
    fn merged_stats_sum_level_by_level_and_average_the_fpr_terms() {
        let shallow = DbStats {
            levels: vec![level(1, 1)],
            runs: 1,
            disk_entries: 10,
            expected_zero_result_lookup_ios: 0.01,
            ..Default::default()
        };
        let deep = DbStats {
            levels: vec![level(1, 2), level(2, 1)],
            runs: 3,
            disk_entries: 30,
            expected_zero_result_lookup_ios: 0.03,
            ..Default::default()
        };
        // Whichever side is deeper, and a lone shard is left as it is.
        for (mut total, other) in [(shallow.clone(), &deep), (deep.clone(), &shallow)] {
            total.merge(other);
            assert_eq!((total.runs, total.disk_entries), (4, 40));
            let capacities: Vec<u64> = total.levels.iter().map(|l| l.capacity_bytes).collect();
            assert_eq!(capacities, [2000, 1000], "a level's budget is per shard");
            for l in &mut total.levels {
                l.capacity_bytes = 1000;
            }
            assert_eq!(total.levels, vec![level(1, 3), level(2, 1)]);
            let mean = total.per_lookup(2);
            assert!((mean.expected_zero_result_lookup_ios - 0.02).abs() < 1e-12);
            assert!((mean.levels[0].fpr_sum - 0.015).abs() < 1e-12);
            assert_eq!(mean.levels[0].runs, 3, "only the FPR terms are means");
        }
        assert_eq!(deep.clone().per_lookup(1), deep);
    }

    #[test]
    fn merged_compaction_stats_sum_across_shards() {
        let mut total = CompactionStats {
            flushes: 2,
            merges: 1,
            entries_rewritten: 10,
        };
        total.merge(&CompactionStats {
            flushes: 3,
            merges: 2,
            entries_rewritten: 5,
        });
        assert_eq!(
            (total.flushes, total.merges, total.entries_rewritten),
            (5, 3, 15)
        );
    }

    #[test]
    fn measured_zero_result_lookup_ios() {
        let mut l = LookupStats::default();
        assert_eq!(l.measured_zero_result_lookup_ios(), 0.0);
        l.key_hashes = 200;
        l.filter_false_positives = 3;
        assert!((l.measured_zero_result_lookup_ios() - 0.015).abs() < 1e-12);
    }

    #[test]
    fn bits_per_entry() {
        let s = DbStats {
            disk_entries: 100,
            filter_bits: 550,
            ..Default::default()
        };
        assert!((s.bits_per_entry() - 5.5).abs() < 1e-12);
        assert_eq!(DbStats::default().bits_per_entry(), 0.0);
    }
}
