//! The merge kernel: every run the engine writes is written here.
//!
//! A merge sort-merges a set of runs — and, when it is a flush, the buffer
//! as their youngest companion — into one output run: [`merge`] is the one
//! function that writes runs. It is one k-way merge on the calling thread.
//! Each input run is read through one cursor over all of its pages, so a
//! merge counts one seek per input run and one read per input page, and
//! each surviving entry goes from where it lies — its input page, its
//! memtable node — straight into the one [`RunBuilder`] that packs the
//! output's pages, fences and filter.
//!
//! # Failure
//!
//! An error aborts the merge: the partially written output run is deleted
//! by `RunWriter`'s drop, the inputs are *not* marked obsolete, and the
//! error propagates to the caller.

use crate::entry::EntryView;
use crate::error::Result;
use crate::iter::{MergingIter, Source};
use crate::run::{FilterParams, Run, RunBuilder};
use monkey_storage::Disk;
use std::sync::Arc;

/// Where a cascade step's output lands, and what the cascade knows of the
/// levels around it.
pub(crate) struct Destination<'a> {
    /// The 1-based level the output lands on, for I/O attribution.
    pub level: usize,
    /// Leave tombstones out of the output.
    pub drop_tombstones: bool,
    /// How many leading inputs the stepwise cascade would have merged with
    /// the head on the levels above and carried down here: the merge counts
    /// the keys the head and those inputs hold — the entries of the run it
    /// would have carried — and prices the output's filter from them.
    pub fused: usize,
    /// The run directly below `level`, if the output should count its keys
    /// that run's filter rejects ([`Run::novel_below`]).
    pub below: Option<&'a Run>,
}

/// Pre-registers the run under construction at its destination `level` in
/// the disk's I/O attribution table (when one is attached), so the build's
/// own page writes are charged to the level the run will land on. A no-op
/// without telemetry. Stale tags from failed builds are harmless — the run
/// id is never reused for I/O — and every version install retags from the
/// authoritative tree anyway.
pub(crate) fn tag_destination(disk: &Disk, builder: &RunBuilder, level: usize) {
    if let Some(attr) = disk.attribution() {
        attr.tag_run(builder.run_id(), level);
    }
}

/// Sort-merges `head` — an input that lives in memory: the buffer being
/// flushed, or entries already sorted — and `inputs` into a single new run
/// landing at `level`. Every run the engine writes is written here: a flush
/// into an empty level is the merge of a head with no inputs, a compaction
/// the merge of inputs with no head.
///
/// * `head` is younger than every input, `inputs` are youngest first.
///   Duplicate keys are resolved newest-wins (by sequence number).
/// * With `drop_tombstones`, tombstones are not written to the output.
/// * Inputs are marked obsolete on success; their storage is reclaimed when
///   the last reference (e.g. a concurrent cursor) drops.
/// * `level` is the 1-based destination level, used only for per-level I/O
///   attribution when telemetry is enabled (the caller still places the run
///   in the tree itself).
///
/// Returns `None` when the merge produces no entries at all (e.g. only
/// tombstones merged into the last level).
pub fn merge(
    disk: &Arc<Disk>,
    head: Option<Source>,
    inputs: &[Arc<Run>],
    drop_tombstones: bool,
    level: usize,
    filter: impl Into<FilterParams>,
) -> Result<Option<Arc<Run>>> {
    let filter = filter.into();
    let dest = Destination {
        level,
        drop_tombstones,
        fused: 0,
        below: None,
    };
    let merged = merge_step(disk, head, inputs, dest, |_| filter)?;
    for input in inputs {
        input.mark_obsolete();
    }
    Ok(merged)
}

/// [`merge`] as a step of a flush cascade, landing at `dest`. The output's
/// filter is priced by `filter` from the keys the head and the
/// [`Destination::fused`] inputs hold, once the merge has counted them.
/// The inputs are left as they are: a flush retires them once its manifest
/// no longer names them.
pub(crate) fn merge_step(
    disk: &Arc<Disk>,
    head: Option<Source>,
    inputs: &[Arc<Run>],
    dest: Destination<'_>,
    filter: impl FnOnce(u64) -> FilterParams,
) -> Result<Option<Arc<Run>>> {
    debug_assert!(head.is_some() || !inputs.is_empty());
    let expected = head.as_ref().map_or(0, Source::len_hint)
        + inputs
            .iter()
            .map(|run| run.entries() as usize)
            .sum::<usize>();
    let mut builder = RunBuilder::with_entries(Arc::clone(disk), expected);
    tag_destination(disk, &builder, dest.level);
    let run_id = builder.run_id();
    let mut sources = Vec::with_capacity(1 + inputs.len());
    sources.extend(head);
    // The keys the head and the first `fused` inputs hold are counted.
    let young = sources.len() + dest.fused;
    for run in inputs {
        sources.push(run.merge_pages()?.into());
    }
    let mut merged = MergingIter::counting(sources, young);
    // Each surviving entry goes from where it lies straight into the output
    // page; nothing owned is built in between.
    while let Some(pushed) = merged.next_with(|source| {
        if dest.drop_tombstones && source.entry().is_tombstone() {
            return Ok(());
        }
        builder.push(source)
    }) {
        pushed??;
    }
    let output = builder.finish_over(filter(merged.young_keys()), dest.below)?;
    if output.is_none() {
        if let Some(attr) = disk.attribution() {
            attr.untag_run(run_id);
        }
    }
    Ok(output.map(Arc::new))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::{build_run_from_sorted, merge_runs};
    use crate::entry::Entry;
    use bytes::Bytes;

    fn put(k: &str, v: &str, seq: u64) -> Entry {
        Entry::put(k.as_bytes().to_vec(), v.as_bytes().to_vec(), seq)
    }

    fn run_of(disk: &Arc<Disk>, entries: Vec<Entry>) -> Arc<Run> {
        build_run_from_sorted(disk, entries, false, 1, 10.0)
            .unwrap()
            .unwrap()
    }

    /// Reads every page of `run` back as raw bytes.
    fn raw_pages(disk: &Arc<Disk>, run: &Run) -> Vec<Bytes> {
        (0..run.pages())
            .map(|p| disk.read_page(run.id(), p).unwrap())
            .collect()
    }

    /// The flush's merge against the two steps it replaced: the buffer
    /// written out as a run, that run merged with the resident one. Same
    /// pages, same filter bits, same fences, and no page of the buffer's is
    /// written or read on the way.
    #[test]
    fn memtable_head_merges_like_the_run_written_out_of_it() {
        use crate::memtable::Memtable;
        let buffered: Vec<Entry> = (0..400usize)
            .map(|i| (i * 7919) % 1200)
            .enumerate()
            .map(|(n, k)| {
                let key = format!("key{k:06}").into_bytes();
                if n % 5 == 0 {
                    Entry::tombstone(key, 10_000 + n as u64)
                } else {
                    Entry::put(key, format!("new-{n}").into_bytes(), 10_000 + n as u64)
                }
            })
            .collect();
        let resident = |disk: &Arc<Disk>| {
            let entries = (0..600).map(|i| put(&format!("key{:06}", i * 2), "resident", i));
            run_of(disk, entries.collect())
        };
        for drop_tombstones in [false, true] {
            let old_disk = Disk::mem(128);
            let mut sorted = buffered.clone();
            sorted.sort_by(|a, b| a.key.cmp(&b.key));
            let inputs = [resident(&old_disk), run_of(&old_disk, sorted)];
            let inputs = [Arc::clone(&inputs[1]), Arc::clone(&inputs[0])]; // youngest first
            let old = (merge_runs(&old_disk, &inputs, drop_tombstones, 1, 10.0).unwrap()).unwrap();

            let new_disk = Disk::mem(128);
            let resident = resident(&new_disk);
            let resident_pages = resident.pages() as u64;
            let memtable = Arc::new(Memtable::new());
            for entry in &buffered {
                memtable.insert(entry.clone());
            }
            new_disk.reset_io();
            let head = memtable.cursor(None, None).into();
            let new = merge(&new_disk, Some(head), &[resident], drop_tombstones, 1, 10.0).unwrap();
            let (new, io) = (new.unwrap(), new_disk.io());
            assert_eq!(
                (io.page_reads, io.seeks, io.page_writes),
                (resident_pages, 1, new.pages() as u64),
                "the resident run read once, the output written once, nothing else"
            );

            assert_eq!(raw_pages(&old_disk, &old), raw_pages(&new_disk, &new));
            let encoded = |run: &Run| {
                let mut bits = Vec::new();
                run.filter().encode(&mut bits);
                bits
            };
            assert_eq!(encoded(&old), encoded(&new), "filter bits");
            let fences = |run: &Run| run.fences().iter().map(<[u8]>::to_vec).collect::<Vec<_>>();
            assert_eq!(fences(&old), fences(&new));
            assert_eq!(
                (old.entries(), old.tombstones(), old.bytes(), old.max_key()),
                (new.entries(), new.tombstones(), new.bytes(), new.max_key())
            );
        }
    }
}
