//! Merge (compaction) operations.
//!
//! Merging sort-merges a set of runs into one new run: duplicate keys keep
//! only the newest version, and tombstones are dropped when the output
//! lands on the **last** level (nothing deeper can hold a superseded
//! version, so the tombstone has done its job). A flush is the same
//! operation with the buffer as the youngest input — "the buffer is
//! sort-merged into Level 1" (§2) — so the two merge policies below start
//! from the frozen memtable itself, not from a run written out of it. The
//! kernel is [`merge`]; this module decides what it merges and where the
//! output lands.

use crate::entry::Entry;
use crate::error::Result;
use crate::iter::Source;
use crate::level::{level_capacity_bytes, Version};
use crate::merge::{merge, merge_runs_with, MergeReport};
use crate::options::DbOptions;
use crate::policy::{FilterContext, MergePolicy};
use crate::run::{FilterParams, Run};
use monkey_obs::{OpKind, Telemetry};
use monkey_storage::Disk;
use std::sync::Arc;
use std::time::Instant;

/// What a flush's merge cascade did, for the engine's lifetime counters.
#[derive(Debug, Default, Clone)]
pub(crate) struct CascadeOutcome {
    /// Merge operations performed.
    pub merges: u64,
    /// Entries read-and-rewritten by those merges.
    pub entries_rewritten: u64,
    /// Most key-range partitions any single merge was cut into (0 when the
    /// cascade performed no merge).
    pub max_partitions: u32,
    /// Most worker threads any single merge used (0 when no merge ran).
    pub max_threads: u32,
    /// Ids of every run consumed across the cascade's merges, in merge
    /// order — the input lineage a cascade trace span links to.
    pub input_runs: Vec<u64>,
}

impl CascadeOutcome {
    fn absorb(&mut self, report: MergeReport) {
        self.max_partitions = self.max_partitions.max(report.partitions);
        self.max_threads = self.max_threads.max(report.threads);
        self.input_runs.extend(report.input_runs);
    }
}

/// Builds the filter parameters for a run of `run_entries` entries landing
/// at `level`: bits-per-entry from the filter policy, layout variant from
/// the options. At every call site, `version` holds exactly the runs that
/// will coexist with the new run (merge inputs have already been taken out
/// of their levels). `extra_entries` counts memory-resident entries not in
/// any run — zero during a flush cascade (the frozen memtable being built
/// *is* the new run), the memtable sizes during a filter rebuild.
pub(crate) fn filter_params_for(
    opts: &DbOptions,
    version: &Version,
    level: usize,
    run_entries: u64,
    extra_entries: u64,
) -> FilterParams {
    let other_run_entries: Vec<u64> = version
        .levels()
        .iter()
        .flat_map(|l| l.runs().iter().map(|r| r.entries()))
        .collect();
    let ctx = FilterContext {
        level,
        num_levels: version.deepest().max(level),
        run_entries,
        total_entries: run_entries + other_run_entries.iter().sum::<u64>() + extra_entries,
        other_run_entries,
        size_ratio: opts.size_ratio,
        merge_policy: opts.merge_policy,
    };
    FilterParams::new(opts.filter_policy.bits_per_entry(&ctx), opts.filter_variant)
}

/// Flushes the frozen memtable behind `buffer` (`buffer_entries` entries)
/// into `version` and cascades it through the options' merge policy.
/// Mutates `version` in place — callers hand in a private, not-yet-published
/// clone, so a failure part-way leaves the *published* tree untouched, and
/// no run the failed cascade built stays on storage.
///
/// Returns `false` when nothing of the buffer survived its own flush
/// (tombstones only, over an empty tree): no run, no cascade.
pub(crate) fn install_flush(
    disk: &Arc<Disk>,
    opts: &DbOptions,
    version: &mut Version,
    buffer: Source,
    buffer_entries: u64,
    outcome: &mut CascadeOutcome,
    telemetry: Option<&Telemetry>,
) -> Result<bool> {
    let mut cascade = Cascade {
        disk,
        opts,
        telemetry,
        outcome,
        unconsumed: None,
    };
    let installed = match opts.merge_policy {
        MergePolicy::Leveling => cascade.leveling(version, buffer, buffer_entries),
        MergePolicy::Tiering => cascade.tiering(version, buffer, buffer_entries),
    };
    if installed.is_err() {
        // A run is deleted when it drops obsolete, and only merging it away
        // marks it: what this cascade built and did not get to merge would
        // stay on storage with no version naming it.
        if let Some(run) = &cascade.unconsumed {
            run.mark_obsolete();
        }
    }
    installed
}

/// One flush's trip through a merge policy.
struct Cascade<'a> {
    disk: &'a Arc<Disk>,
    opts: &'a DbOptions,
    telemetry: Option<&'a Telemetry>,
    outcome: &'a mut CascadeOutcome,
    /// The run this cascade built that no later step has merged away. Each
    /// step's inputs include its predecessor's output, so there is one at
    /// most.
    unconsumed: Option<Arc<Run>>,
}

impl Cascade<'_> {
    /// One step: sort-merges `head` — the buffer of `head_entries`
    /// entries, where it is what arrives — and `inputs` into a run landing
    /// at `level`, with the filter the policy gives a run of that size
    /// there. `version` holds exactly the runs that will coexist with the
    /// output (merge inputs have already been taken out of their levels).
    ///
    /// Counted and timed as a merge when runs are rewritten; the buffer
    /// written out alone is the flush, not a merge.
    fn step(
        &mut self,
        version: &Version,
        head: Option<Source>,
        head_entries: u64,
        inputs: &[Arc<Run>],
        drop_tombstones: bool,
        level: usize,
    ) -> Result<Option<Arc<Run>>> {
        let input_entries = head_entries + inputs.iter().map(|r| r.entries()).sum::<u64>();
        let params = filter_params_for(self.opts, version, level, input_entries, 0);
        let rewrites = !inputs.is_empty();
        let telemetry = self.telemetry.filter(|_| rewrites);
        let started = telemetry.map(|_| Instant::now());
        let threads = self.opts.compaction_threads;
        let (output, report) = merge(
            self.disk,
            head,
            inputs,
            drop_tombstones,
            level,
            params,
            threads,
        )?;
        if let (Some(t), Some(started)) = (telemetry, started) {
            t.record_nanos(OpKind::Merge, started.elapsed().as_nanos() as u64);
        }
        if rewrites {
            self.outcome.merges += 1;
            self.outcome.entries_rewritten += input_entries;
            self.outcome.absorb(report);
        }
        self.unconsumed = output.clone();
        Ok(output)
    }

    /// Leveling (§2): the buffer sort-merges with the resident run of
    /// level 1; whenever a level exceeds its capacity, its (single) run
    /// moves down and merges with the next level's resident run.
    fn leveling(&mut self, version: &mut Version, buffer: Source, entries: u64) -> Result<bool> {
        // What arrives at a level: the buffer at level 1, below it the run
        // a full level sends down (`inputs[0]`, ahead of the resident run).
        let mut head = Some(buffer);
        let mut inputs: Vec<Arc<Run>> = Vec::new();
        let mut lvl = 1usize;
        loop {
            version.ensure_levels(lvl);
            let deepest = version.deepest().max(lvl);
            inputs.extend(version.levels_mut()[lvl - 1].take_all());
            let run = if head.is_none() && inputs.len() == 1 {
                inputs.pop().expect("the run that moved down") // the level was empty
            } else {
                let flushed_alone = inputs.is_empty();
                let head_entries = if head.is_some() { entries } else { 0 };
                let drop_tombstones = lvl >= deepest;
                let head = head.take();
                match self.step(version, head, head_entries, &inputs, drop_tombstones, lvl)? {
                    Some(run) => run,
                    None => return Ok(!flushed_alone), // the merge annihilated everything
                }
            };
            version.levels_mut()[lvl - 1].push_youngest(run);
            let capacity =
                level_capacity_bytes(self.opts.buffer_capacity, self.opts.size_ratio, lvl);
            if version.levels()[lvl - 1].bytes() <= capacity {
                return Ok(true);
            }
            // Over capacity: the run moves to the next level.
            inputs = version.levels_mut()[lvl - 1].take_all();
            debug_assert_eq!(inputs.len(), 1);
            lvl += 1;
        }
    }

    /// Tiering (§2): the buffer becomes the youngest run of level 1; runs
    /// accumulate at a level, and the arrival of the `T`-th merges them all
    /// into a single run at the next level.
    fn tiering(&mut self, version: &mut Version, buffer: Source, entries: u64) -> Result<bool> {
        version.ensure_levels(1);
        // Tombstones can be dropped immediately only when the disk is empty.
        let drop_tombstones = version.deepest() == 0;
        let Some(run) = self.step(version, Some(buffer), entries, &[], drop_tombstones, 1)? else {
            return Ok(false);
        };
        version.levels_mut()[0].push_youngest(run);
        let t = self.opts.size_ratio;
        let mut lvl = 1usize;
        loop {
            if version.levels()[lvl - 1].run_count() < t {
                return Ok(true);
            }
            let inputs = version.levels_mut()[lvl - 1].take_all();
            // Tombstones can be dropped when nothing deeper than this level
            // holds data: the merged run lands at lvl+1 as its deepest data.
            let drop_tombstones = version.deepest() <= lvl;
            let merged = self.step(version, None, 0, &inputs, drop_tombstones, lvl + 1)?;
            version.ensure_levels(lvl + 1);
            if let Some(merged) = merged {
                version.levels_mut()[lvl].push_youngest(merged);
            }
            lvl += 1;
        }
    }
}

/// Sort-merges `inputs` into a single new run landing at `level`, on the
/// calling thread. This is [`merge_runs_with`] at one thread — see the
/// `merge` module for the parallel partitioned engine and its guarantees.
pub fn merge_runs(
    disk: &Arc<Disk>,
    inputs: &[Arc<Run>],
    drop_tombstones: bool,
    level: usize,
    filter: impl Into<FilterParams>,
) -> Result<Option<Arc<Run>>> {
    merge_runs_with(disk, inputs, drop_tombstones, level, filter, 1).map(|(run, _)| run)
}

/// Builds a run directly from pre-sorted, pre-deduplicated entries:
/// [`merge`] of an in-memory head with no runs to merge it into. `level` is
/// the 1-based destination level for I/O attribution, exactly as in
/// [`merge_runs`].
pub fn build_run_from_sorted(
    disk: &Arc<Disk>,
    entries: Vec<Entry>,
    drop_tombstones: bool,
    level: usize,
    filter: impl Into<FilterParams>,
) -> Result<Option<Arc<Run>>> {
    merge(
        disk,
        Some(entries.into()),
        &[],
        drop_tombstones,
        level,
        filter,
        1,
    )
    .map(|(run, _)| run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntryKind;

    fn run_of(disk: &Arc<Disk>, entries: Vec<Entry>) -> Arc<Run> {
        build_run_from_sorted(disk, entries, false, 1, 10.0)
            .unwrap()
            .unwrap()
    }

    fn put(k: &str, v: &str, seq: u64) -> Entry {
        Entry::put(k.as_bytes().to_vec(), v.as_bytes().to_vec(), seq)
    }

    #[test]
    fn merge_dedups_newest_wins() {
        let disk = Disk::mem(128);
        let old = run_of(&disk, vec![put("a", "old", 1), put("b", "b1", 2)]);
        let new = run_of(&disk, vec![put("a", "new", 5), put("c", "c1", 6)]);
        let merged = merge_runs(&disk, &[new, old], false, 1, 10.0)
            .unwrap()
            .unwrap();
        assert_eq!(merged.entries(), 3);
        assert_eq!(merged.get(b"a").unwrap().unwrap().value.as_ref(), b"new");
        assert_eq!(merged.get(b"b").unwrap().unwrap().value.as_ref(), b"b1");
        assert_eq!(merged.get(b"c").unwrap().unwrap().value.as_ref(), b"c1");
    }

    #[test]
    fn merge_reclaims_input_storage() {
        let disk = Disk::mem(128);
        let a = run_of(&disk, vec![put("a", "1", 1)]);
        let b = run_of(&disk, vec![put("b", "2", 2)]);
        let (ida, idb) = (a.id(), b.id());
        let merged = merge_runs(&disk, &[a, b], false, 1, 10.0).unwrap().unwrap();
        // Inputs dropped at the end of merge_runs' caller scope — here the
        // Arcs moved into the call were the last references.
        assert!(disk.run_pages(ida).is_err());
        assert!(disk.run_pages(idb).is_err());
        assert!(disk.run_pages(merged.id()).is_ok());
    }

    #[test]
    fn tombstones_survive_intermediate_merges() {
        let disk = Disk::mem(128);
        let young = run_of(&disk, vec![Entry::tombstone(b"k".to_vec(), 9)]);
        let old = run_of(&disk, vec![put("k", "v", 1)]);
        let merged = merge_runs(&disk, &[young, old], false, 1, 10.0)
            .unwrap()
            .unwrap();
        let e = merged.get(b"k").unwrap().unwrap();
        assert_eq!(
            e.kind,
            EntryKind::Delete,
            "tombstone still masks older versions below"
        );
        assert_eq!(merged.entries(), 1, "the superseded put is gone");
    }

    #[test]
    fn tombstones_dropped_at_last_level() {
        let disk = Disk::mem(128);
        let young = run_of(
            &disk,
            vec![Entry::tombstone(b"k".to_vec(), 9), put("live", "v", 8)],
        );
        let old = run_of(&disk, vec![put("k", "v", 1)]);
        let merged = merge_runs(&disk, &[young, old], true, 1, 10.0)
            .unwrap()
            .unwrap();
        assert_eq!(merged.entries(), 1);
        assert!(merged.get(b"k").unwrap().is_none());
        assert!(merged.get(b"live").unwrap().is_some());
    }

    #[test]
    fn all_tombstone_merge_yields_none() {
        let disk = Disk::mem(128);
        let young = run_of(&disk, vec![Entry::tombstone(b"k".to_vec(), 9)]);
        let old = run_of(&disk, vec![put("k", "v", 1)]);
        let merged = merge_runs(&disk, &[young, old], true, 1, 10.0).unwrap();
        assert!(merged.is_none(), "nothing left to write");
        assert!(disk.list_runs().is_empty(), "all storage reclaimed");
    }

    #[test]
    fn merge_io_cost_reads_inputs_writes_output() {
        let disk = Disk::mem(64);
        let entries_a: Vec<Entry> = (0..20)
            .map(|i| put(&format!("a{i:02}"), "xxxx", i))
            .collect();
        let entries_b: Vec<Entry> = (0..20)
            .map(|i| put(&format!("b{i:02}"), "yyyy", 100 + i))
            .collect();
        let a = run_of(&disk, entries_a);
        let b = run_of(&disk, entries_b);
        let in_pages = (a.pages() + b.pages()) as u64;
        disk.reset_io();
        let merged = merge_runs(&disk, &[a, b], false, 1, 10.0).unwrap().unwrap();
        let io = disk.io();
        assert_eq!(
            io.page_reads, in_pages,
            "reads the original runs (Eq. 10 accounting)"
        );
        assert_eq!(io.page_writes, merged.pages() as u64);
    }

    #[test]
    fn build_run_from_sorted_drops_tombstones_when_asked() {
        let disk = Disk::mem(128);
        let entries = vec![
            put("a", "1", 1),
            Entry::tombstone(b"b".to_vec(), 2),
            put("c", "3", 3),
        ];
        let run = build_run_from_sorted(&disk, entries, true, 1, 10.0)
            .unwrap()
            .unwrap();
        assert_eq!(run.entries(), 2);
        assert_eq!(run.tombstones(), 0);
    }
}
