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

use crate::entry::{Entry, EntryView};
use crate::error::Result;
use crate::iter::Source;
use crate::level::{level_capacity_bytes, Level, Version};
use crate::memtable::Memtable;
use crate::merge::{merge, merge_runs_with, merge_step, Destination, MergeReport};
use crate::options::DbOptions;
use crate::policy::{FilterContext, MergePolicy};
use crate::run::{FilterParams, Run};
use monkey_bloom::{hash_pair, HashPair};
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
}

impl CascadeOutcome {
    fn absorb(&mut self, report: MergeReport) {
        self.max_partitions = self.max_partitions.max(report.partitions);
        self.max_threads = self.max_threads.max(report.threads);
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

/// Flushes the frozen memtable `buffer` into `version` and cascades it
/// through the options' merge policy. Mutates `version` in place — callers
/// hand in a private, not-yet-published clone, so a failure part-way leaves
/// the *published* tree untouched, and no run the failed cascade built
/// stays on storage.
///
/// Returns `false` when nothing of the buffer survived its own flush
/// (tombstones only, over an empty tree): no run, no cascade.
pub(crate) fn install_flush(
    disk: &Arc<Disk>,
    opts: &DbOptions,
    version: &mut Version,
    buffer: &Arc<Memtable>,
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
        MergePolicy::Leveling => cascade.leveling(version, buffer),
        MergePolicy::Tiering => cascade.tiering(version, buffer),
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

/// Takes the runs of levels `1..=through` out of `version`, shallowest
/// first and youngest first within a level. Also returns how many came
/// from the levels above `through`.
fn take_levels(version: &mut Version, through: usize) -> (Vec<Arc<Run>>, usize) {
    let (mut runs, mut above) = (Vec::new(), 0);
    for level in &mut version.levels_mut()[..through] {
        above = runs.len();
        runs.extend(level.take_all());
    }
    (runs, above)
}

/// How many levels, from level 1 down, the leveling cascade is *certain*
/// to spill through when `buffer` arrives: each is a level the flush would
/// merge into, write out, and read back from at once to merge it into the
/// next. The spill rule stays the cascade's — a level spills when the run
/// it ends up holding is over its capacity — and a level counts only when
/// no bound on that run can come in under it:
///
/// * the run holds at most the bytes of every input that reaches the
///   level, before deduplication: when those fit, the level certainly
///   fits, and the plan stops without hashing anything;
/// * above the deepest level no tombstone drops, so the run keeps every
///   key of the resident run `R_l` plus every arriving key `R_l` lacks,
///   each entry at least the smallest entry of any input. Arriving keys
///   `R_l` certainly lacks are the buffer's keys that the filters of both
///   `R_l` and the run above it, `R_{l−1}`, reject, plus `R_{l−1}`'s own
///   count of its keys `R_l`'s filter rejected ([`Run::novel_below`]) —
///   two disjoint sets, as filters have no false negatives.
///
/// The plan stops at the first level with no single resident run.
fn certain_spills(opts: &DbOptions, version: &Version, buffer: &Arc<Memtable>) -> usize {
    let certain = version.deepest().saturating_sub(1);
    let mut upper_bytes = buffer.bytes() as u64;
    let mut buffer_keys: Option<(Vec<HashPair>, u64)> = None;
    let mut above: Option<&Run> = None;
    let mut spills = 0;
    for (i, level) in version.levels()[..certain].iter().enumerate() {
        let [resident] = level.runs() else {
            break;
        };
        let capacity = level_capacity_bytes(opts.buffer_capacity, opts.size_ratio, i + 1);
        upper_bytes += resident.bytes();
        if upper_bytes <= capacity {
            break;
        }
        let (hashes, min_bytes) = buffer_keys.get_or_insert_with(|| hash_keys(buffer));
        *min_bytes = (*min_bytes).min(resident.min_entry_bytes());
        let lacks = |run: &Run, pair: HashPair| !run.filter().contains_hashed(pair);
        let arriving = hashes
            .iter()
            .filter(|&&pair| lacks(resident, pair) && above.is_none_or(|above| lacks(above, pair)))
            .count() as u64;
        let novel = arriving + above.map_or(0, |above| above.novel_below(resident));
        if *min_bytes * (resident.entries() + novel) <= capacity {
            break;
        }
        spills += 1;
        above = Some(resident);
    }
    spills
}

/// The hash pair of every key in `buffer`, and the encoded size of its
/// smallest entry.
fn hash_keys(buffer: &Arc<Memtable>) -> (Vec<HashPair>, u64) {
    let mut hashes = Vec::with_capacity(buffer.len());
    let mut min_bytes = u64::MAX;
    let mut cursor = buffer.cursor(None, None);
    while cursor.head().is_some() {
        let entry = cursor.entry();
        hashes.push(hash_pair(entry.key));
        min_bytes = min_bytes.min(entry.encoded_len() as u64);
        cursor.advance();
    }
    (hashes, min_bytes)
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
    /// at `dest`, with the filter the policy gives there to the run the
    /// stepwise cascade would have built. `version` holds exactly the runs
    /// that will coexist with the output (merge inputs have already been
    /// taken out of their levels).
    ///
    /// Counted and timed as a merge when runs are rewritten; the buffer
    /// written out alone is the flush, not a merge.
    fn step(
        &mut self,
        version: &Version,
        head: Option<Source>,
        head_entries: u64,
        inputs: &[Arc<Run>],
        dest: Destination<'_>,
    ) -> Result<Option<Arc<Run>>> {
        let input_entries = head_entries + inputs.iter().map(|r| r.entries()).sum::<u64>();
        let (opts, level, fused) = (self.opts, dest.level, dest.fused);
        // Fused, the stepwise cascade would have merged the head with the
        // first `fused` inputs on the levels above and carried that run —
        // their keys, deduplicated — down to merge with the rest here.
        let stepwise_entries = move |young_keys: u64| match fused {
            0 => input_entries,
            _ => young_keys + inputs[fused..].iter().map(|r| r.entries()).sum::<u64>(),
        };
        let params =
            |young_keys| filter_params_for(opts, version, level, stepwise_entries(young_keys), 0);
        let rewrites = !inputs.is_empty();
        let telemetry = self.telemetry.filter(|_| rewrites);
        let started = telemetry.map(|_| Instant::now());
        let threads = self.opts.compaction_threads;
        let (output, report) = merge_step(self.disk, head, inputs, dest, threads, params)?;
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
    ///
    /// The levels the cascade is certain to spill through
    /// ([`certain_spills`]) are not merged one at a time: their runs go
    /// with the buffer into one merge at the level below them, and the
    /// cascade goes on from there. Each run lands where, and as, the
    /// stepwise cascade would lay it down; the runs it would have written
    /// only to read back are never built.
    fn leveling(&mut self, version: &mut Version, buffer: &Arc<Memtable>) -> Result<bool> {
        let entries = buffer.len() as u64;
        let spills = certain_spills(self.opts, version, buffer);
        // What arrives at a level: the buffer (with the runs of the levels
        // it certainly spills through) at the first, below it the run a
        // full level sends down (`inputs[0]`, ahead of the resident run).
        let (mut inputs, _) = take_levels(version, spills);
        let mut head = Some(buffer.cursor(None, None).into());
        let mut lvl = spills + 1;
        loop {
            version.ensure_levels(lvl);
            let deepest = version.deepest().max(lvl);
            let fused = if head.is_some() { inputs.len() } else { 0 };
            inputs.extend(version.levels_mut()[lvl - 1].take_all());
            let run = if head.is_none() && inputs.len() == 1 {
                inputs.pop().expect("the run that moved down") // the level was empty
            } else {
                let flushed_alone = inputs.is_empty();
                let head_entries = if head.is_some() { entries } else { 0 };
                // A later flush's plan reads how many of this run's keys
                // the run below lacks — useful only above the deepest level.
                let below = match version.levels().get(lvl).map(Level::runs) {
                    Some([below]) if version.deepest() > lvl + 1 => Some(&**below),
                    _ => None,
                };
                let dest = Destination {
                    level: lvl,
                    drop_tombstones: lvl >= deepest,
                    fused,
                    below,
                };
                match self.step(version, head.take(), head_entries, &inputs, dest)? {
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
    ///
    /// The trigger is a run count, so the levels a flush fills are known
    /// before it merges: from level 1 down, each level holding `T − 1`
    /// runs (or more) merges with what arrives. The buffer and all their
    /// runs go into one merge at the first level below them with room, so
    /// that one step is the whole cascade and lays down the run the
    /// stepwise cascade would.
    fn tiering(&mut self, version: &mut Version, buffer: &Arc<Memtable>) -> Result<bool> {
        let t = self.opts.size_ratio;
        let entries = buffer.len() as u64;
        let filled = match entries {
            0 => 0,
            _ => (version.levels().iter())
                .take_while(|level| level.run_count() + 1 >= t)
                .count(),
        };
        let (inputs, above) = take_levels(version, filled);
        let lvl = filled + 1;
        version.ensure_levels(lvl);
        // Tombstones can be dropped when nothing deeper than the merged
        // levels holds data — with none merged, when the disk is empty.
        let dest = Destination {
            level: lvl,
            drop_tombstones: version.deepest() <= filled,
            fused: above,
            below: None,
        };
        let head = Some(buffer.cursor(None, None).into());
        let Some(run) = self.step(version, head, entries, &inputs, dest)? else {
            // Merged with runs, the buffer's flush alone had kept it.
            return Ok(filled > 0);
        };
        let level = &mut version.levels_mut()[lvl - 1];
        level.push_youngest(run);
        debug_assert!(level.run_count() < t, "the plan stops at a level with room");
        Ok(true)
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
    use crate::run::RunBuilder;

    fn run_of(disk: &Arc<Disk>, entries: Vec<Entry>) -> Arc<Run> {
        build_run_from_sorted(disk, entries, false, 1, 10.0)
            .unwrap()
            .unwrap()
    }

    fn put(k: &str, v: &str, seq: u64) -> Entry {
        Entry::put(k.as_bytes().to_vec(), v.as_bytes().to_vec(), seq)
    }

    /// `prefix` keys numbered `range`, every entry the same size.
    fn plan_keys(prefix: char, range: std::ops::Range<usize>) -> Vec<Entry> {
        let key = |i| format!("{prefix}{i:04}");
        range.map(|i| put(&key(i), "value-14-bytes", 0)).collect()
    }

    /// A run of `entries` built directly above `below`.
    fn run_over(disk: &Arc<Disk>, entries: Vec<Entry>, below: &Run) -> Arc<Run> {
        let mut builder = RunBuilder::new(Arc::clone(disk));
        entries.iter().for_each(|e| builder.push(e).unwrap());
        Arc::new(builder.finish_over(10.0, Some(below)).unwrap().unwrap())
    }

    /// How many levels the plan proves `buffer` spills through, with
    /// `runs` on levels 1, 2, … Levels 1 and 2 hold 64 and 128 of level
    /// 1's entries.
    fn plan_over(runs: Vec<Arc<Run>>, buffer: &[Entry]) -> usize {
        let bytes = runs[0].min_entry_bytes() as usize;
        let opts = DbOptions::in_memory()
            .buffer_capacity(32 * bytes)
            .size_ratio(2);
        let memtable = Arc::new(Memtable::new());
        buffer.iter().for_each(|e| _ = memtable.insert(e.clone()));
        let levels = runs.into_iter().map(|run| {
            let mut level = Level::new();
            level.push_youngest(run);
            level
        });
        certain_spills(&opts, &Version::from_levels(levels.collect()), &memtable)
    }

    /// Level 2's spill is provable only with level 1's count of the keys
    /// level 2 lacks; that count names level 2's run, so the same keys
    /// under another run id prove nothing.
    #[test]
    fn plan_trusts_a_novel_count_only_against_the_run_it_names() {
        let disk = Disk::mem(128);
        let buffer = plan_keys('b', 0..20);
        let level_2 = || run_of(&disk, plan_keys('s', 0..70));
        let resident_2 = level_2();
        let level_1 = run_over(&disk, plan_keys('r', 0..50), &resident_2);
        let level_3 = run_of(&disk, plan_keys('t', 0..10));
        // Level 1: 50 + 20 entries, over 64. Level 2: 70 + 20 + 50, over
        // 128; without level 1's count, 90 is not.
        let tree = |level_2| vec![level_1.clone(), level_2, level_3.clone()];
        assert_eq!(plan_over(tree(resident_2), &buffer), 2);
        assert_eq!(plan_over(tree(level_2()), &buffer), 1);
    }

    /// A buffer key level 1 already holds arrives at level 2 once: level
    /// 1's count has it, so the buffer's share must not count it again.
    /// Here level 2 ends up 3 entries under its capacity, and a bound that
    /// counted those keys twice would prove it spills.
    #[test]
    fn plan_counts_an_arriving_key_once() {
        let disk = Disk::mem(128);
        let overwrites = plan_keys('r', 0..10);
        let buffer: Vec<Entry> = overwrites
            .into_iter()
            .chain(plan_keys('b', 0..10))
            .collect();
        let resident_2 = run_of(&disk, plan_keys('s', 0..55));
        let level_1 = run_over(&disk, plan_keys('r', 0..60), &resident_2);
        let level_3 = run_of(&disk, plan_keys('t', 0..10));
        // Level 1: 60 + 10 new entries, over 64. Level 2: 55 + 70, not
        // over 128.
        assert_eq!(plan_over(vec![level_1, resident_2, level_3], &buffer), 1);
    }

    /// The deepest level is never proved to spill: its merge drops
    /// tombstones, and with them keys a bound would count. Here the buffer
    /// deletes 40 keys no level holds, with keys long enough that a
    /// tombstone weighs almost what a put does. Level 1 certainly spills;
    /// level 2, the deepest, ends up with 95 + 30 entries, under 128,
    /// though 95 plus the 40 arriving keys it lacks would be over.
    #[test]
    fn plan_proves_no_spill_at_the_deepest_level() {
        let disk = Disk::mem(4096);
        let key = |prefix: char, i: usize| format!("{prefix}{i:039}").into_bytes();
        let run = |prefix, n| {
            let puts = (0..n).map(|i| Entry::put(key(prefix, i), b"v".to_vec(), 0));
            run_of(&disk, puts.collect())
        };
        let buffer: Vec<Entry> = (0..40).map(|i| Entry::tombstone(key('x', i), 1)).collect();
        let levels = vec![run('r', 30), run('s', 95)];
        assert_eq!(plan_over(levels, &buffer), 1);
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
