//! Merge (compaction) operations.
//!
//! Merging sort-merges a set of runs into one new run: duplicate keys keep
//! only the newest version, and tombstones are dropped when the output
//! lands on the **last** level (nothing deeper can hold a superseded
//! version, so the tombstone has done its job). A flush is the same
//! operation with the buffer as the youngest input — "the buffer is
//! sort-merged into Level 1" (§2) — so a flush starts from the frozen
//! memtable itself, not from a run written out of it. The kernel is
//! [`merge`]; this module decides what it merges and where the output
//! lands ([`plan`], with no I/O) and carries that out ([`install_flush`]).

use crate::entry::{Entry, EntryView};
use crate::error::Result;
use crate::level::{level_capacity_bytes, Level, Version};
use crate::memtable::Memtable;
use crate::merge::{merge, merge_step, Destination};
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
    /// The runs the flush merged away. Their caller marks them obsolete
    /// once no durable manifest names them.
    pub retired: Vec<Arc<Run>>,
}

/// Builds the filter parameters for a run of `run_entries` entries landing
/// at `level`: bits-per-entry from the filter policy, layout variant from
/// the options. `version` holds exactly the runs that will coexist with the
/// new run, apart from `leave_out` — the run a filter rebuild re-prices; in
/// a flush, merge inputs have already been taken out of their levels.
/// `extra_entries` counts memory-resident entries not in any run — zero
/// during a flush (the frozen memtable being built *is* the new run), the
/// memtable sizes during a filter rebuild.
pub(crate) fn filter_params_for(
    opts: &DbOptions,
    version: &Version,
    level: usize,
    run_entries: u64,
    extra_entries: u64,
    leave_out: Option<&Run>,
) -> FilterParams {
    let other_run_entries: Vec<u64> = (version.levels().iter())
        .flat_map(|l| l.runs().iter())
        .filter(|run| leave_out.is_none_or(|out| run.id() != out.id()))
        .map(|run| run.entries())
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

/// What arrives for [`plan`] to place.
#[derive(Clone, Copy)]
pub(crate) enum Arriving<'a> {
    /// The frozen buffer being flushed.
    Buffer(&'a Arc<Memtable>),
    /// The run that just landed at this (1-based) level.
    Landed(usize),
}

/// A flush's next step, as [`plan`] decides it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Sort-merge into one run.
    Merge(MergePlan),
    /// The run at this level moves to the next one, which is empty, without
    /// being rewritten.
    MoveDown(usize),
    /// The flush is installed.
    Done,
}

/// One merge of a flush, by level: which runs join it, where the output
/// lands and how it is built ([`Destination`]'s fields).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct MergePlan {
    /// The runs of every level from this one down to `dest`, exclusive,
    /// join the merge, shallowest first (none when it is `dest`). What
    /// arrives is the youngest input.
    pub from: usize,
    /// The level the output lands on.
    pub dest: usize,
    /// Whether the runs already at `dest` join too.
    pub resident_joins: bool,
    /// Nothing deeper than the merged levels holds data.
    pub drop_tombstones: bool,
    /// How many leading runs the stepwise cascade would have merged with
    /// the buffer on the levels above and carried down here.
    pub fused: usize,
    /// The level whose single run the output counts its novel keys against.
    pub below: Option<usize>,
}

/// Decides what a flush does with what arrives, under the options' merge
/// policy (§2). Every rule of the cascade is here, and only here: it reads
/// the tree's shape, its runs' sizes and filters, and the buffer's keys,
/// and never changes the tree or reads a page.
///
/// * Leveling: what arrives merges with the resident run of its level.
///   The buffer arrives at level 1 together with the runs of the levels it
///   is certain to spill through ([`certain_spills`]), so the first merge
///   lands below them. A run that lands on a level over its capacity moves
///   on to the next level — merged with the run there, or moved down
///   whole onto an empty one.
/// * Tiering: a level holding `T − 1` runs merges with what arrives, so
///   the buffer merges with every such level from level 1 down, straight
///   into the first level below them with room; that one step is the
///   whole cascade.
///
/// The fused merges lay down what the stepwise cascade would: `fused`
/// counts the runs it would have merged with the buffer and carried to
/// `dest`, and `below` is the run directly under `dest`, above the deepest
/// level, whose lacking keys a later flush's [`certain_spills`] reads.
pub(crate) fn plan(opts: &DbOptions, version: &Version, arriving: Arriving) -> Step {
    let levels = version.levels();
    let runs_in = |above: &[Level]| above.iter().map(Level::run_count).sum();
    let leveled = |from, dest: usize, fused| {
        let below = match levels.get(dest).map(Level::runs) {
            Some([_]) if version.deepest() > dest + 1 => Some(dest + 1),
            _ => None,
        };
        Step::Merge(MergePlan {
            from,
            dest,
            resident_joins: true,
            drop_tombstones: version.deepest() <= dest,
            fused,
            below,
        })
    };
    match (opts.merge_policy, arriving) {
        (MergePolicy::Leveling, Arriving::Buffer(buffer)) => {
            let spills = certain_spills(opts, version, buffer);
            leveled(1, spills + 1, runs_in(&levels[..spills]))
        }
        (MergePolicy::Leveling, Arriving::Landed(level)) => {
            let landed = &levels[level - 1];
            let capacity = level_capacity_bytes(opts.buffer_capacity, opts.size_ratio, level);
            if landed.bytes() <= capacity {
                Step::Done
            } else if landed.run_count() == 1 && levels.get(level).is_none_or(Level::is_empty) {
                Step::MoveDown(level)
            } else {
                leveled(level, level + 1, 0)
            }
        }
        (MergePolicy::Tiering, Arriving::Buffer(buffer)) => {
            let t = opts.size_ratio;
            let filled = match buffer.is_empty() {
                true => 0,
                false => (levels.iter())
                    .take_while(|level| level.run_count() + 1 >= t)
                    .count(),
            };
            Step::Merge(MergePlan {
                from: 1,
                dest: filled + 1,
                resident_joins: false,
                // With no level merged, only into an empty tree.
                drop_tombstones: version.deepest() <= filled,
                fused: runs_in(&levels[..filled.saturating_sub(1)]),
                below: None,
            })
        }
        (MergePolicy::Tiering, Arriving::Landed(level)) => {
            let room = levels[level - 1].run_count() < opts.size_ratio;
            debug_assert!(room, "the buffer's merge lands at a level with room");
            Step::Done
        }
    }
}

/// Flushes the frozen memtable `buffer` into `version`: asks [`plan`] for
/// a step, takes its runs out of `version`, merges them and lands the
/// output, until the plan says done. Mutates `version` in place — callers
/// hand in a private, not-yet-published clone, so a failure part-way leaves
/// the *published* tree untouched, and no run the failed flush built stays
/// on storage. The runs merged away are left to the caller, in
/// `outcome.retired`.
///
/// Each merge's filter is the one the policy gives at its level to the run
/// the stepwise cascade would have built there, priced with the inputs
/// already taken out. A merge is counted and timed as one when runs are
/// rewritten; the buffer written out alone is the flush, not a merge.
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
    let mut arriving = Arriving::Buffer(buffer);
    // The run this flush built that no later step has merged away. Each
    // step's inputs include its predecessor's output, so there is one at
    // most.
    let mut unconsumed: Option<Arc<Run>> = None;
    loop {
        let step = match plan(opts, version, arriving) {
            Step::Done => return Ok(true),
            Step::MoveDown(level) => {
                version.ensure_levels(level + 1);
                let run = version.levels_mut()[level - 1].take_all().pop();
                let run = run.expect("the run that moves down");
                version.levels_mut()[level].push_youngest(run);
                arriving = Arriving::Landed(level + 1);
                continue;
            }
            Step::Merge(step) => step,
        };
        version.ensure_levels(step.dest);
        let last = if step.resident_joins {
            step.dest
        } else {
            step.dest - 1
        };
        let inputs: Vec<Arc<Run>> = (version.levels_mut()[step.from - 1..last].iter_mut())
            .flat_map(Level::take_all)
            .collect();
        let (head, head_entries) = match arriving {
            Arriving::Buffer(buffer) => (Some(buffer.cursor(None, None).into()), buffer.len()),
            Arriving::Landed(_) => (None, 0),
        };
        let input_entries = head_entries as u64 + inputs.iter().map(|r| r.entries()).sum::<u64>();
        // Fused, the stepwise cascade would have merged the head with the
        // first `fused` inputs on the levels above and carried that run —
        // their keys, deduplicated — down to merge with the rest here.
        let stepwise_entries = |young_keys: u64| match step.fused {
            0 => input_entries,
            fused => young_keys + inputs[fused..].iter().map(|r| r.entries()).sum::<u64>(),
        };
        let params = |young_keys| {
            let entries = stepwise_entries(young_keys);
            filter_params_for(opts, version, step.dest, entries, 0, None)
        };
        let below = step
            .below
            .map(|level| &*version.levels()[level - 1].runs()[0]);
        let dest = Destination {
            level: step.dest,
            drop_tombstones: step.drop_tombstones,
            fused: step.fused,
            below,
        };
        let rewrites = !inputs.is_empty();
        let timed = telemetry.filter(|_| rewrites);
        let started = timed.map(|_| Instant::now());
        let merged = merge_step(disk, head, &inputs, dest, params);
        if let (Err(_), Some(run)) = (&merged, &unconsumed) {
            // A run is deleted when it drops obsolete, and only merging it
            // away marks it: what this flush built and did not get to merge
            // would stay on storage with no version naming it.
            run.mark_obsolete();
        }
        let output = merged?;
        // No manifest names the run this flush built, so it goes once
        // merged away; the tree's own runs wait for the manifest that no
        // longer names them.
        for input in inputs {
            match &unconsumed {
                Some(run) if Arc::ptr_eq(run, &input) => input.mark_obsolete(),
                _ => outcome.retired.push(input),
            }
        }
        if let (Some(t), Some(started)) = (timed, started) {
            t.record_nanos(OpKind::Merge, started.elapsed().as_nanos() as u64);
        }
        if rewrites {
            outcome.merges += 1;
            outcome.entries_rewritten += input_entries;
        }
        let Some(run) = output else {
            // The merge annihilated everything: alone, the buffer's flush
            // kept nothing; merged with runs, it was still installed.
            return Ok(rewrites);
        };
        unconsumed = Some(Arc::clone(&run));
        version.levels_mut()[step.dest - 1].push_youngest(run);
        arriving = Arriving::Landed(step.dest);
    }
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

/// Sort-merges `inputs` into a single new run landing at `level`: [`merge`]
/// of runs alone.
pub fn merge_runs(
    disk: &Arc<Disk>,
    inputs: &[Arc<Run>],
    drop_tombstones: bool,
    level: usize,
    filter: impl Into<FilterParams>,
) -> Result<Option<Arc<Run>>> {
    merge(disk, None, inputs, drop_tombstones, level, filter)
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
    )
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

    /// A tree whose level `i + 1` holds `levels[i]`, youngest first.
    fn tree(levels: Vec<Vec<Arc<Run>>>) -> Version {
        let levels = levels.into_iter().map(|runs| {
            let mut level = Level::new();
            runs.into_iter()
                .rev()
                .for_each(|run| level.push_youngest(run));
            level
        });
        Version::from_levels(levels.collect())
    }

    fn memtable_of(entries: &[Entry]) -> Arc<Memtable> {
        let memtable = Arc::new(Memtable::new());
        entries.iter().for_each(|e| _ = memtable.insert(e.clone()));
        memtable
    }

    /// How many levels the plan proves `buffer` spills through, with
    /// `runs` on levels 1, 2, … Levels 1 and 2 hold 64 and 128 of level
    /// 1's entries. Planning reads no page.
    fn plan_over(disk: &Disk, runs: Vec<Arc<Run>>, buffer: &[Entry]) -> usize {
        let bytes = runs[0].min_entry_bytes() as usize;
        let opts = DbOptions::in_memory()
            .buffer_capacity(32 * bytes)
            .size_ratio(2);
        let version = tree(runs.into_iter().map(|run| vec![run]).collect());
        let io = disk.io();
        let step = plan(&opts, &version, Arriving::Buffer(&memtable_of(buffer)));
        assert_eq!(disk.io(), io, "a plan reads and writes nothing");
        match step {
            Step::Merge(MergePlan { from: 1, dest, .. }) => dest - 1,
            other => panic!("the buffer arrives at level 1: {other:?}"),
        }
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
        let runs = |level_2| vec![level_1.clone(), level_2, level_3.clone()];
        assert_eq!(plan_over(&disk, runs(resident_2), &buffer), 2);
        assert_eq!(plan_over(&disk, runs(level_2()), &buffer), 1);
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
        assert_eq!(
            plan_over(&disk, vec![level_1, resident_2, level_3], &buffer),
            1
        );
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
        assert_eq!(plan_over(&disk, levels, &buffer), 1);
    }

    /// Under leveling a run that lands within its level's capacity ends the
    /// flush. Over it, the run moves down whole onto an empty level, or
    /// merges with the resident run of an occupied one — dropping
    /// tombstones at the deepest level, and counting its keys against the
    /// run below while that run is above the deepest.
    #[test]
    fn leveling_plan_spills_a_landed_run_over_capacity() {
        let disk = Disk::mem(128);
        let run = |n| vec![run_of(&disk, plan_keys('k', 0..n))];
        let bytes = run(1)[0].min_entry_bytes() as usize;
        // Levels 1 and 2 hold 8 and 16 entries.
        let opts = DbOptions::in_memory()
            .buffer_capacity(4 * bytes)
            .size_ratio(2);
        let landed = |levels| plan(&opts, &tree(levels), Arriving::Landed(1));
        let merge = |drop_tombstones, below| {
            Step::Merge(MergePlan {
                from: 1,
                dest: 2,
                resident_joins: true,
                drop_tombstones,
                fused: 0,
                below,
            })
        };
        assert_eq!(landed(vec![run(8)]), Step::Done);
        assert_eq!(landed(vec![run(9)]), Step::MoveDown(1));
        assert_eq!(landed(vec![run(9), vec![]]), Step::MoveDown(1));
        assert_eq!(landed(vec![run(9), run(3)]), merge(true, None));
        assert_eq!(landed(vec![run(9), run(3), run(5)]), merge(false, None));
        let deeper = vec![run(9), run(3), run(5), run(5)];
        assert_eq!(landed(deeper), merge(false, Some(3)));
    }

    /// `T = 3` tiering, with `counts[i]` one-entry runs on level `i + 1`.
    fn tiering_plan(disk: &Arc<Disk>, counts: &[usize], buffer: &Arc<Memtable>) -> Step {
        let opts = DbOptions::in_memory()
            .merge_policy(MergePolicy::Tiering)
            .size_ratio(3);
        let runs = |n| (0..n).map(|_| run_of(disk, plan_keys('k', 0..1))).collect();
        let version = tree(counts.iter().map(|&n| runs(n)).collect());
        let io = disk.io();
        let step = plan(&opts, &version, Arriving::Buffer(buffer));
        assert_eq!(disk.io(), io, "a plan reads and writes nothing");
        step
    }

    /// Tiering's merge of the buffer into level `dest`, its levels above
    /// joining.
    fn tiered(dest: usize, drop_tombstones: bool, fused: usize) -> Step {
        Step::Merge(MergePlan {
            from: 1,
            dest,
            resident_joins: false,
            drop_tombstones,
            fused,
            below: None,
        })
    }

    /// Under tiering every level from level 1 down that holds `T − 1` runs
    /// joins the buffer's merge, which lands on the first level with room,
    /// whatever lies below it; `fused` counts the runs above the last
    /// level merged. The run that lands ends the flush.
    #[test]
    fn tiering_plan_merges_full_levels_into_the_first_with_room() {
        let disk = Disk::mem(128);
        let buffer = memtable_of(&plan_keys('b', 0..5));
        let planned = |counts: &[usize]| tiering_plan(&disk, counts, &buffer);
        assert_eq!(planned(&[1, 2]), tiered(1, false, 0));
        assert_eq!(planned(&[2, 1]), tiered(2, false, 0));
        assert_eq!(planned(&[2, 2, 1, 2]), tiered(3, false, 2));
        assert_eq!(planned(&[2, 2, 2]), tiered(4, true, 4));
        let opts = DbOptions::in_memory().merge_policy(MergePolicy::Tiering);
        let version = tree(vec![vec![run_of(&disk, plan_keys('k', 0..1))]]);
        assert_eq!(plan(&opts, &version, Arriving::Landed(1)), Step::Done);
    }

    /// Tiering's merge drops tombstones exactly when nothing below the
    /// merged levels holds data: not over the runs the destination keeps,
    /// nor over a deeper level.
    #[test]
    fn tiering_plan_drops_tombstones_only_over_an_empty_rest() {
        let disk = Disk::mem(128);
        let buffer = memtable_of(&plan_keys('b', 0..5));
        let planned = |counts: &[usize]| tiering_plan(&disk, counts, &buffer);
        assert_eq!(planned(&[]), tiered(1, true, 0));
        assert_eq!(planned(&[0, 0]), tiered(1, true, 0));
        assert_eq!(planned(&[1]), tiered(1, false, 0));
        assert_eq!(planned(&[2]), tiered(2, true, 0));
        assert_eq!(planned(&[2, 1]), tiered(2, false, 0));
        assert_eq!(planned(&[2, 0, 1]), tiered(2, false, 0));
        assert_eq!(planned(&[2, 2]), tiered(3, true, 2));
    }

    /// An empty buffer merges no run under tiering, however full level 1.
    #[test]
    fn tiering_plan_merges_no_run_for_an_empty_buffer() {
        let disk = Disk::mem(128);
        let empty = Arc::new(Memtable::new());
        assert_eq!(tiering_plan(&disk, &[2, 2], &empty), tiered(1, false, 0));
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
        assert!(
            disk.list_runs().unwrap().is_empty(),
            "all storage reclaimed"
        );
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
