//! Stat and report assembly: each shard's engine snapshots its own
//! counters, and the store's view is those snapshots folded together with
//! the `merge` that lives beside each type. One shard or many, the path is
//! the same — a fold over one element hands that element back.

use super::engine::Core;
use crate::level::level_capacity_bytes;
use crate::stats::{
    CompactionStats, DbStats, LevelStats, LookupStats, PipelineGauges, PipelineStats,
};
use monkey_obs::{
    drift_flag, HistogramSnapshot, IoBackendReport, LevelIoSnapshot, LevelLookupSnapshot,
    LevelReport, OpKind, OpLatencyReport, ShardBreakdown, Telemetry, TelemetryReport, MAX_LEVELS,
    OP_KINDS,
};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Folds per-shard snapshots into the store's with the type's own `merge`.
/// The first snapshot is the seed, so a store of one shard reports that
/// shard's snapshot as it is; `None` only for no snapshots at all.
pub(super) fn merged<T>(parts: impl Iterator<Item = T>, merge: impl Fn(&mut T, &T)) -> Option<T> {
    parts.reduce(|mut total, part| {
        merge(&mut total, &part);
        total
    })
}

/// Lifts `merge` to tables indexed by level slot (slot 0 = unattributed),
/// which every hub sizes alike.
fn by_slot<T>(merge: impl Fn(&mut T, &T)) -> impl Fn(&mut Vec<T>, &Vec<T>) {
    move |total, part| {
        for (slot, other) in total.iter_mut().zip(part) {
            merge(slot, other);
        }
    }
}

impl Core {
    /// Counters of the point-lookup fast path since open: the shard's
    /// lookup table summed over its levels.
    pub(super) fn lookup_stats(&self) -> LookupStats {
        let levels = merged(
            self.lookups.snapshot().into_iter(),
            LevelLookupSnapshot::merge,
        )
        .unwrap_or_default();
        LookupStats {
            key_hashes: self.lookups.key_hashes(),
            filter_probes: levels.filter_probes,
            filter_negatives: levels.filter_negatives,
            filter_false_positives: levels.filter_false_positives,
        }
    }

    /// Counters of the write pipeline since open: stall events and time,
    /// deferred worker failures, and WAL group-commit batching.
    pub(super) fn pipeline_stats(&self) -> PipelineStats {
        let p = &self.pipeline;
        let wal = self.wal.stats();
        PipelineStats {
            stalls: p.stalls.load(Relaxed),
            stall_micros: p.stall_micros.load(Relaxed),
            background_errors: p.background_errors.load(Relaxed),
            wal_group_commits: wal.group_commits,
            wal_batched_appends: wal.batched_appends,
            wal_syncs: wal.syncs,
        }
    }

    /// Instantaneous levels of the write pipeline (see [`PipelineGauges`]
    /// for why these are kept apart from the counters).
    pub(super) fn pipeline_gauges(&self) -> PipelineGauges {
        PipelineGauges {
            immutable_queue_depth: self.shared.read().immutables.len(),
            stalled_writers: self.pipeline.active_stalls.load(Relaxed) as usize,
        }
    }

    /// Maintenance-work counters since open.
    pub(super) fn compaction_stats(&self) -> CompactionStats {
        let c = &self.compactions;
        CompactionStats {
            flushes: c.flushes.load(Relaxed),
            merges: c.merges.load(Relaxed),
            entries_rewritten: c.entries_rewritten.load(Relaxed),
        }
    }

    /// Structural and memory statistics.
    pub(super) fn stats(&self) -> DbStats {
        let (buffer_entries, buffer_bytes, immutable_entries, version) = {
            let shared = self.shared.read();
            (
                shared.memtable.len() as u64,
                shared.memtable.bytes() as u64,
                shared.immutables.iter().map(|i| i.entries).sum::<u64>(),
                Arc::clone(&shared.version),
            )
        };
        let mut levels = Vec::with_capacity(version.depth());
        let mut filter_bits = 0u64;
        let mut fence_bits = 0u64;
        let mut fpr_total = 0.0f64;
        for (idx, level) in version.levels().iter().enumerate() {
            let mut level_filter_bits = 0u64;
            let mut fpr_sum = 0.0f64;
            for run in level.runs() {
                level_filter_bits += run.filter().memory_bits() as u64;
                fence_bits += run.fence_memory_bits();
                fpr_sum += run.filter().theoretical_fpr();
            }
            filter_bits += level_filter_bits;
            fpr_total += fpr_sum;
            levels.push(LevelStats {
                level: idx + 1,
                runs: level.run_count(),
                entries: level.entries(),
                bytes: level.bytes(),
                capacity_bytes: level_capacity_bytes(
                    self.opts.buffer_capacity,
                    self.opts.size_ratio,
                    idx + 1,
                ),
                filter_bits: level_filter_bits,
                fpr_sum,
            });
        }
        DbStats {
            buffer_entries,
            buffer_bytes,
            buffer_capacity: self.opts.buffer_capacity as u64,
            disk_entries: version.disk_entries(),
            runs: version.run_count(),
            levels,
            filter_bits,
            fence_bits,
            expected_zero_result_lookup_ios: fpr_total,
            lookups: self.lookup_stats(),
            immutable_entries,
            pipeline: self.pipeline_stats(),
            pipeline_gauges: self.pipeline_gauges(),
        }
    }
}

/// Assembles the store's telemetry report from its shards: latency
/// histograms, per-level tables and counters merge, the event rings are
/// drained into one timeline, and the model's expectations are taken over
/// all shards' runs. `None` unless telemetry is on.
pub(super) fn telemetry_report(cores: &[&Core]) -> Option<TelemetryReport> {
    let hubs: Vec<&Telemetry> = cores
        .iter()
        .map(|c| c.telemetry.as_deref())
        .collect::<Option<_>>()?;
    let per_shard: Vec<DbStats> = cores.iter().map(|c| c.stats()).collect();
    let summed = merged(per_shard.iter().cloned(), DbStats::merge)?;
    let op_count = |k: OpKind| hubs.iter().map(|h| h.op_count(k)).sum::<u64>();

    let ops = OP_KINDS
        .iter()
        .filter_map(|&k| {
            let hist = merged(hubs.iter().map(|h| h.hist(k)), HistogramSnapshot::merge)?;
            Some(OpLatencyReport::from_snapshot(k.name(), op_count(k), &hist))
        })
        .collect();
    let level_lookups = merged(
        cores.iter().map(|c| c.lookups.snapshot()),
        by_slot(LevelLookupSnapshot::merge),
    )?;
    let io = merged(
        hubs.iter().map(|h| h.attribution().snapshot()),
        by_slot(LevelIoSnapshot::merge),
    )?;

    let levels = summed
        .levels
        .iter()
        .map(|l| {
            let slot = l.level.min(MAX_LEVELS);
            let lookups = level_lookups[slot];
            // The mean of the per-run FPRs over every shard's runs at the
            // level is the expected false positives per *negative* probe —
            // the comparable quantity to the merged measured rate, since
            // each negative probe lands on exactly one shard's runs.
            let allocated_fpr = if l.runs > 0 {
                l.fpr_sum / l.runs as f64
            } else {
                0.0
            };
            let measured_fpr = lookups.measured_fpr();
            // A level whose runs merged away keeps its probe history
            // but has no allocation left to drift from.
            let drift = if l.runs > 0 {
                drift_flag(measured_fpr, allocated_fpr, lookups.negative_trials())
            } else {
                None
            };
            LevelReport {
                level: l.level,
                runs: l.runs,
                entries: l.entries,
                io: io[slot],
                allocated_fpr,
                measured_fpr,
                drift,
                lookups,
            }
        })
        .collect();

    // Every shard's hub counts from the store's one origin, so sorting by
    // timestamp interleaves the shards' events into one timeline.
    let mut events: Vec<_> = hubs.iter().flat_map(|h| h.drain_events()).collect();
    events.sort_by_key(|e| (e.ts_micros, e.seq));

    let stats = summed.per_lookup(cores.len());
    Some(TelemetryReport {
        uptime_micros: hubs.iter().map(|h| h.now_micros()).max()?,
        ops,
        levels,
        unattributed_io: io[0],
        expected_zero_result_lookup_ios: stats.expected_zero_result_lookup_ios,
        measured_zero_result_lookup_ios: stats.lookups.measured_zero_result_lookup_ios(),
        lookups: stats.lookups.key_hashes,
        immutable_queue_depth: stats.pipeline_gauges.immutable_queue_depth as u64,
        stalled_writers: stats.pipeline_gauges.stalled_writers as u64,
        events,
        events_dropped: hubs.iter().map(|h| h.events_dropped()).sum(),
        shards: breakdown(cores, &hubs, &per_shard, op_count(OpKind::Range)),
        // Every shard's disk is of one kind, so the first speaks for the
        // store.
        io_backend: IoBackendReport {
            kind: cores.first()?.disk.backend_info().kind.to_string(),
        },
    })
}

/// How the store's traffic and data split across its shards, one row each.
/// A store in one piece has nothing to break down — its row would repeat
/// the report's totals — and gets no rows. `ranges` is the store's scan
/// count on every row: a scan opens a cursor on each shard.
fn breakdown(
    cores: &[&Core],
    hubs: &[&Telemetry],
    per_shard: &[DbStats],
    ranges: u64,
) -> Vec<ShardBreakdown> {
    if cores.len() < 2 {
        return Vec::new();
    }
    cores
        .iter()
        .zip(hubs)
        .zip(per_shard)
        .enumerate()
        .map(|(shard, ((core, hub), stats))| {
            let io = core.disk.io();
            ShardBreakdown {
                shard,
                gets: hub.op_count(OpKind::Get),
                puts: hub.op_count(OpKind::Put),
                ranges,
                disk_entries: stats.disk_entries,
                buffer_bytes: stats.buffer_bytes,
                immutable_queue_depth: stats.pipeline_gauges.immutable_queue_depth as u64,
                stalled_writers: stats.pipeline_gauges.stalled_writers as u64,
                page_reads: io.page_reads,
                page_writes: io.page_writes,
                cache_hits: io.cache_hits,
            }
        })
        .collect()
}
