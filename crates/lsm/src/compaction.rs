//! Merge (compaction) operations.
//!
//! Merging sort-merges a set of runs into one new run: duplicate keys keep
//! only the newest version, and tombstones are dropped when the output
//! lands on the **last** level (nothing deeper can hold a superseded
//! version, so the tombstone has done its job). This is the machinery
//! behind both merge policies; the placement logic lives in the `Db`.

use crate::entry::Entry;
use crate::error::Result;
use crate::level::{level_capacity_bytes, Version};
use crate::merge::{merge_runs_with, tag_destination, MergeReport};
use crate::options::DbOptions;
use crate::policy::FilterContext;
use crate::run::{FilterParams, Run, RunBuilder};
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

/// Runs one merge through the partitioned merge engine, timing it into the
/// `merge` latency histogram when telemetry is on.
#[allow(clippy::too_many_arguments)]
fn timed_merge(
    disk: &Arc<Disk>,
    inputs: &[Arc<Run>],
    drop_tombstones: bool,
    level: usize,
    filter: FilterParams,
    threads: usize,
    telemetry: Option<&Telemetry>,
    outcome: &mut CascadeOutcome,
) -> Result<Option<Arc<Run>>> {
    let started = telemetry.map(|_| Instant::now());
    let (output, report) = merge_runs_with(disk, inputs, drop_tombstones, level, filter, threads)?;
    if let (Some(t), Some(started)) = (telemetry, started) {
        t.record_nanos(OpKind::Merge, started.elapsed().as_nanos() as u64);
    }
    outcome.absorb(report);
    Ok(output)
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

/// Leveling (§2): the arriving run sort-merges with the resident run of
/// level 1; whenever a level exceeds its capacity, its (single) run moves
/// down and merges with the next level's resident run. Mutates `version`
/// in place — callers hand in a private, not-yet-published clone, so a
/// failure part-way leaves the *published* tree untouched.
pub(crate) fn install_leveling(
    disk: &Arc<Disk>,
    opts: &DbOptions,
    version: &mut Version,
    run: Arc<Run>,
    outcome: &mut CascadeOutcome,
    telemetry: Option<&Telemetry>,
) -> Result<()> {
    let mut carry = run;
    let mut lvl = 1usize;
    loop {
        version.ensure_levels(lvl);
        let deepest = version.deepest().max(lvl);
        if !version.levels()[lvl - 1].is_empty() {
            let mut inputs = vec![carry];
            inputs.extend(version.levels_mut()[lvl - 1].take_all());
            let drop_tombstones = lvl >= deepest;
            let input_entries: u64 = inputs.iter().map(|r| r.entries()).sum();
            let params = filter_params_for(opts, version, lvl, input_entries, 0);
            outcome.merges += 1;
            outcome.entries_rewritten += input_entries;
            let merged = timed_merge(
                disk,
                &inputs,
                drop_tombstones,
                lvl,
                params,
                opts.compaction_threads,
                telemetry,
                outcome,
            )?;
            match merged {
                Some(merged) => carry = merged,
                None => return Ok(()), // merge annihilated everything
            }
        }
        version.levels_mut()[lvl - 1].push_youngest(carry);
        let capacity = level_capacity_bytes(opts.buffer_capacity, opts.size_ratio, lvl);
        if version.levels()[lvl - 1].bytes() <= capacity {
            return Ok(());
        }
        // Over capacity: the run moves to the next level.
        let mut moved = version.levels_mut()[lvl - 1].take_all();
        debug_assert_eq!(moved.len(), 1);
        carry = moved.pop().expect("level had a run");
        lvl += 1;
    }
}

/// Tiering (§2): runs accumulate at a level; the arrival of the `T`-th
/// merges them all into a single run at the next level. Same private-clone
/// contract as [`install_leveling`].
pub(crate) fn install_tiering(
    disk: &Arc<Disk>,
    opts: &DbOptions,
    version: &mut Version,
    run: Arc<Run>,
    outcome: &mut CascadeOutcome,
    telemetry: Option<&Telemetry>,
) -> Result<()> {
    version.ensure_levels(1);
    version.levels_mut()[0].push_youngest(run);
    let t = opts.size_ratio;
    let mut lvl = 1usize;
    loop {
        if version.levels()[lvl - 1].run_count() < t {
            return Ok(());
        }
        let inputs = version.levels_mut()[lvl - 1].take_all();
        // Tombstones can be dropped when nothing deeper than this level
        // holds data: the merged run lands at lvl+1 as its deepest data.
        let drop_tombstones = version.deepest() <= lvl;
        let input_entries: u64 = inputs.iter().map(|r| r.entries()).sum();
        let params = filter_params_for(opts, version, lvl + 1, input_entries, 0);
        outcome.merges += 1;
        outcome.entries_rewritten += input_entries;
        let merged = timed_merge(
            disk,
            &inputs,
            drop_tombstones,
            lvl + 1,
            params,
            opts.compaction_threads,
            telemetry,
            outcome,
        )?;
        version.ensure_levels(lvl + 1);
        if let Some(merged) = merged {
            version.levels_mut()[lvl].push_youngest(merged);
        }
        lvl += 1;
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

/// Builds a run directly from pre-sorted, pre-deduplicated entries (the
/// buffer flush path: a memtable drain is already sorted and unique).
/// `level` is the 1-based destination level for I/O attribution, exactly as
/// in [`merge_runs`].
pub fn build_run_from_sorted(
    disk: &Arc<Disk>,
    entries: Vec<Entry>,
    drop_tombstones: bool,
    level: usize,
    filter: impl Into<FilterParams>,
) -> Result<Option<Arc<Run>>> {
    let mut builder = RunBuilder::new(Arc::clone(disk));
    tag_destination(disk, &builder, level);
    let run_id = builder.run_id();
    for entry in &entries {
        if drop_tombstones && entry.is_tombstone() {
            continue;
        }
        builder.push(entry)?;
    }
    let output = builder.finish(filter)?.map(Arc::new);
    if output.is_none() {
        if let Some(attr) = disk.attribution() {
            attr.untag_run(run_id);
        }
    }
    Ok(output)
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
