//! The partitioned parallel merge engine.
//!
//! A merge sort-merges a set of runs — and, when it is a flush, the buffer
//! as their youngest companion — into one output run: [`merge`] is the one
//! function that writes runs. Sequentially that is a single k-way merge;
//! here the merged *key space* is first cut into disjoint key-range
//! partitions along the input runs' existing fence pointers (a memtable
//! head is cut at the same keys, by opening one bounded cursor on it per
//! partition), the partitions are merged concurrently by a small worker
//! pool, and the coordinator concatenates the partition outputs — in
//! partition order — into one [`RunBuilder`].
//!
//! # Byte identity
//!
//! The parallel merge produces output **byte-identical** to the
//! sequential merge, with identical `IoStats` totals:
//!
//! * Partitions are disjoint, contiguous key ranges `[b_{p-1}, b_p)`
//!   covering the whole key space, so every version of a key lands in
//!   exactly one partition. Dedup (newest version wins) and tombstone
//!   dropping are per-key decisions, hence identical to the sequential
//!   merge, and the concatenation of the partition outputs is exactly the
//!   sequential merge's entry sequence.
//! * All output pages are packed by the single coordinator-owned
//!   `RunBuilder` from that sequence, so page boundaries, fences, and the
//!   filter are identical.
//! * Every input page is read exactly once: a boundary either falls on a
//!   page edge (a fence key) of a run, or *straddles* one page of it, and
//!   straddled pages are pre-read once by the coordinator, which hands
//!   the decoded entries to the adjacent partitions in memory. Page 0 of
//!   each run is read with a seek by whoever reads it — coordinator or
//!   worker — and every other page sequentially, so seeks == number of
//!   input runs and reads == number of input pages, exactly as in the
//!   sequential merge.
//!
//! # Failure
//!
//! Any worker error aborts the whole merge: the coordinator stops
//! consuming (workers unblock on their closed channels), the partially
//! written output run is deleted by `RunWriter`'s drop, the inputs are
//! *not* marked obsolete, and the first error propagates to the caller.

use crate::entry::{Entry, EntryView};
use crate::error::{LsmError, Result};
use crate::iter::{MergingIter, Source};
use crate::run::{FilterParams, Run, RunBuilder};
use monkey_storage::Disk;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};

/// Entries per batch a worker hands to the coordinator.
const BATCH_ENTRIES: usize = 1024;
/// Bounded channel depth, in batches, per partition — workers merging
/// ahead of the coordinator park after this much lookahead.
const CHANNEL_BATCHES: usize = 4;

/// How a merge was executed, for telemetry gauges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeReport {
    /// Key-range partitions the merge was cut into (1 = sequential). A
    /// memtable head does not make a merge sequential: it is sliced at the
    /// partition boundaries like the runs are.
    pub partitions: u32,
    /// Worker threads that merged them (1 = sequential).
    pub threads: u32,
    /// Merged keys, tombstones included, whose newest version the head or
    /// the [`Destination::fused`] inputs hold.
    pub(crate) young_keys: u64,
}

/// Where a cascade step's output lands, and what the cascade knows of the
/// levels around it.
pub(crate) struct Destination<'a> {
    /// The 1-based level the output lands on, for I/O attribution.
    pub level: usize,
    /// Leave tombstones out of the output.
    pub drop_tombstones: bool,
    /// How many leading inputs the stepwise cascade would have merged with
    /// the head on the levels above and carried down here: the merge counts
    /// the keys the head and those inputs hold
    /// ([`MergeReport::young_keys`]), the entries of the run it would have
    /// carried.
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
/// landing at `level`, using up to `threads` worker threads (see the module
/// docs; `threads == 1` is the fully sequential merge). Every run the
/// engine writes is written here: a flush into an empty level is the merge
/// of a head with no inputs, a compaction the merge of inputs with no head.
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
    threads: usize,
) -> Result<(Option<Arc<Run>>, MergeReport)> {
    let filter = filter.into();
    let dest = Destination {
        level,
        drop_tombstones,
        fused: 0,
        below: None,
    };
    let merged = merge_step(disk, head, inputs, dest, threads, |_| filter)?;
    for input in inputs {
        input.mark_obsolete();
    }
    Ok(merged)
}

/// [`merge`] as a step of a flush cascade, landing at `dest`. The output's
/// filter is priced by `filter` from the report's `young_keys`, once the
/// merge has counted them. The inputs are left as they are: a flush
/// retires them once its manifest no longer names them.
pub(crate) fn merge_step(
    disk: &Arc<Disk>,
    head: Option<Source>,
    inputs: &[Arc<Run>],
    dest: Destination<'_>,
    threads: usize,
    filter: impl FnOnce(u64) -> FilterParams,
) -> Result<(Option<Arc<Run>>, MergeReport)> {
    debug_assert!(head.is_some() || !inputs.is_empty());
    debug_assert!(threads >= 1);
    let expected = head.as_ref().map_or(0, Source::len_hint)
        + inputs
            .iter()
            .map(|run| run.entries() as usize)
            .sum::<usize>();
    let mut builder = RunBuilder::with_entries(Arc::clone(disk), expected);
    tag_destination(disk, &builder, dest.level);
    let run_id = builder.run_id();
    let report = feed_merge(
        &mut builder,
        head,
        inputs,
        dest.drop_tombstones,
        dest.fused,
        threads,
    )?;
    let params = filter(report.young_keys);
    let output = builder.finish_over(params, dest.below)?.map(Arc::new);
    if output.is_none() {
        if let Some(attr) = disk.attribution() {
            attr.untag_run(run_id);
        }
    }
    Ok((output, report))
}

/// [`merge`] of runs alone.
pub fn merge_runs_with(
    disk: &Arc<Disk>,
    inputs: &[Arc<Run>],
    drop_tombstones: bool,
    level: usize,
    filter: impl Into<FilterParams>,
    threads: usize,
) -> Result<(Option<Arc<Run>>, MergeReport)> {
    merge(disk, None, inputs, drop_tombstones, level, filter, threads)
}

/// Streams the merged (deduped, optionally tombstone-dropped) entry
/// sequence of `head` and `inputs` into `builder`, sequentially or
/// partitioned, counting the keys `head` and the first `fused` inputs
/// hold.
fn feed_merge(
    builder: &mut RunBuilder,
    head: Option<Source>,
    inputs: &[Arc<Run>],
    drop_tombstones: bool,
    fused: usize,
    threads: usize,
) -> Result<MergeReport> {
    let partitions = if threads > 1 {
        plan_partitions(head.as_ref(), inputs, threads)?
    } else {
        Vec::new()
    };
    if partitions.len() <= 1 {
        let mut sources = Vec::with_capacity(1 + inputs.len());
        sources.extend(head);
        let young = sources.len() + fused;
        for run in inputs {
            sources.push(run.merge_pages(0..run.pages())?.into());
        }
        let mut merged = MergingIter::counting(sources, young);
        // Each surviving entry goes from where it lies — its input page,
        // its memtable node — straight into the output page; nothing owned
        // is built in between.
        while let Some(pushed) = merged.next_with(|source| {
            if drop_tombstones && source.entry().is_tombstone() {
                return Ok(());
            }
            builder.push(source)
        }) {
            pushed??;
        }
        return Ok(MergeReport {
            partitions: 1,
            threads: 1,
            young_keys: merged.young_keys(),
        });
    }
    let nparts = partitions.len() as u32;
    let workers = threads.min(partitions.len()) as u32;
    let young_keys = feed_parallel(
        builder,
        partitions,
        drop_tombstones,
        fused,
        workers as usize,
    )?;
    Ok(MergeReport {
        partitions: nparts,
        threads: workers,
        young_keys,
    })
}

/// One partition's slice of one input run: optional decoded entries from a
/// straddled page on either side of a range of whole pages.
struct RunSlice {
    /// The run's position among the merge's inputs.
    input: usize,
    run: Arc<Run>,
    /// Entries (already in key order) preceding `pages`, cut from a
    /// straddle page the coordinator pre-read.
    head: Vec<Entry>,
    /// Pages wholly inside the partition, read by the worker itself.
    pages: Range<u32>,
    /// Entries following `pages`, cut from a straddle page.
    tail: Vec<Entry>,
}

impl RunSlice {
    fn is_empty(&self) -> bool {
        self.head.is_empty() && self.pages.is_empty() && self.tail.is_empty()
    }

    /// Appends the slice's parts — disjoint and ascending, so the merge may
    /// treat them as sources of their own — opening the page cursor.
    fn open_into(self, sources: &mut Vec<Source>) -> Result<()> {
        sources.push(self.head.into());
        if !self.pages.is_empty() {
            sources.push(self.run.merge_pages(self.pages)?.into());
        }
        sources.push(self.tail.into());
        Ok(())
    }
}

/// One key-range partition of the merge: the head's entries inside the
/// range, then a slice of every input run, in input order.
struct Partition {
    head: Option<Source>,
    slices: Vec<RunSlice>,
}

/// Where one partition boundary cuts one run.
struct Cut {
    /// Pages `0..left_end` hold only keys below the boundary.
    left_end: u32,
    /// Pages `right_start..` hold only keys at or above the boundary. When
    /// `right_start == left_end + 1`, page `left_end` straddles the
    /// boundary; otherwise the boundary falls on a page edge.
    right_start: u32,
}

/// Cuts the merged key space into up to `want` contiguous partitions along
/// the input runs' fence keys, balancing input pages per partition, and
/// pre-reads every straddled page (exactly once) to distribute its entries
/// to the adjacent partitions. A head is cut at the same keys; one that
/// cannot be ([`Source::slice`]) leaves the merge sequential — no plan.
fn plan_partitions(
    head: Option<&Source>,
    inputs: &[Arc<Run>],
    want: usize,
) -> Result<Vec<Partition>> {
    let total_pages: u64 = inputs.iter().map(|r| r.pages() as u64).sum();
    let want = want.min(total_pages.max(1) as usize);
    if want <= 1 {
        return Ok(Vec::new());
    }
    // Candidate boundaries are fence keys — each is a clean page edge of
    // the run that owns it. Each fence carries the weight of its one page;
    // walking them in key order and cutting every `total/want` pages
    // balances input pages per partition.
    let mut fences: Vec<&[u8]> = inputs.iter().flat_map(|r| r.fences().iter()).collect();
    fences.sort_unstable();
    let stride = total_pages as f64 / want as f64;
    // Boundaries borrow the fence keys of the inputs, which outlive the plan.
    let mut boundaries: Vec<&[u8]> = Vec::with_capacity(want - 1);
    for (i, &fence) in fences.iter().enumerate() {
        if boundaries.len() == want - 1 {
            break;
        }
        let consumed = (i + 1) as f64;
        let next_target = stride * (boundaries.len() + 1) as f64;
        if consumed >= next_target && boundaries.last().is_none_or(|&b| b < fence) {
            boundaries.push(fence);
        }
    }
    if boundaries.is_empty() {
        return Ok(Vec::new());
    }
    let nparts = boundaries.len() + 1;
    let mut partitions = Vec::with_capacity(nparts);
    for p in 0..nparts {
        let lo = (p > 0).then(|| boundaries[p - 1]);
        let hi = (p + 1 < nparts).then(|| boundaries[p]);
        let head = match head.map(|head| head.slice(lo, hi)) {
            Some(None) => return Ok(Vec::new()), // a head that cannot be cut
            slice => slice.flatten(),
        };
        partitions.push(Partition {
            head,
            slices: Vec::new(),
        });
    }
    for (input, run) in inputs.iter().enumerate() {
        let m = run.pages();
        let fences = run.fences();
        let cuts: Vec<Cut> = boundaries
            .iter()
            .map(|&b| {
                let right_start = fences.partition_point(|f| f < b) as u32;
                let left_end = if run.max_key().as_ref() < b {
                    m
                } else {
                    // Page q holds only keys < f_{q+1}; it is wholly left
                    // of b when f_{q+1} <= b — the fences <= b, less f_0.
                    fences.partition_point(|f| f <= b).saturating_sub(1) as u32
                };
                debug_assert!(left_end <= right_start && right_start <= left_end + 1);
                Cut {
                    left_end,
                    right_start,
                }
            })
            .collect();
        // Pre-read each straddled page once, in ascending page order — page
        // 0 carries the run's seek, as it does for a worker's slice.
        let mut straddle: BTreeMap<u32, Vec<Entry>> = BTreeMap::new();
        for cut in &cuts {
            if cut.left_end < cut.right_start {
                straddle.entry(cut.left_end).or_default();
            }
        }
        for (&page_no, entries) in &mut straddle {
            let mut cursor = run.merge_pages(page_no..page_no + 1)?;
            entries.reserve(cursor.page().remaining());
            while let Some(entry) = cursor.page().to_entry() {
                entries.push(entry);
                cursor.advance()?;
            }
        }
        for (p, partition) in partitions.iter_mut().enumerate() {
            let lo = (p > 0).then(|| boundaries[p - 1]);
            let hi = (p + 1 < nparts).then(|| boundaries[p]);
            let start = lo.map_or(0, |_| cuts[p - 1].right_start);
            let end = hi.map_or(m, |_| cuts[p].left_end);
            let straddler = |cut: &Cut| (cut.left_end < cut.right_start).then_some(cut.left_end);
            let s_lo = lo.and_then(|_| straddler(&cuts[p - 1]));
            let s_hi = hi.and_then(|_| straddler(&cuts[p]));
            let mut head = Vec::new();
            let mut tail = Vec::new();
            if let Some(s) = s_lo {
                let lo = lo.expect("s_lo implies a lower bound");
                head = straddle[&s]
                    .iter()
                    .filter(|e| {
                        e.key.as_ref() >= lo
                            && (s_hi != Some(s)
                                || e.key.as_ref() < hi.expect("s_hi implies a bound"))
                    })
                    .cloned()
                    .collect();
            }
            if let Some(s) = s_hi {
                if s_lo != Some(s) {
                    // Page s sits at or after `start`, so its keys are all
                    // >= the lower boundary already.
                    let hi = hi.expect("s_hi implies an upper bound");
                    tail = straddle[&s]
                        .iter()
                        .filter(|e| e.key.as_ref() < hi)
                        .cloned()
                        .collect();
                }
            }
            let slice = RunSlice {
                input,
                run: Arc::clone(run),
                head,
                pages: start..end.max(start),
                tail,
            };
            if !slice.is_empty() {
                partition.slices.push(slice);
            }
        }
    }
    Ok(partitions)
}

type EntryBatch = std::result::Result<Vec<Entry>, LsmError>;

/// A partition waiting to be claimed by a worker, paired with the sender
/// its entry batches flow through. `None` once claimed (or skipped).
type PartitionSlot = Mutex<Option<(Partition, SyncSender<EntryBatch>)>>;

/// Merges `partitions` on `workers` scoped threads, pushing the entries —
/// in partition order — into `builder` on the calling thread. Returns the
/// keys the head and the first `fused` inputs hold.
fn feed_parallel(
    builder: &mut RunBuilder,
    partitions: Vec<Partition>,
    drop_tombstones: bool,
    fused: usize,
    workers: usize,
) -> Result<u64> {
    let nparts = partitions.len();
    let abort = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    let young_keys = AtomicU64::new(0);
    let merging = PartitionMerge {
        abort: &abort,
        drop_tombstones,
        fused,
        young_keys: &young_keys,
    };
    let mut slots: Vec<PartitionSlot> = Vec::with_capacity(nparts);
    let mut receivers: Vec<Receiver<EntryBatch>> = Vec::with_capacity(nparts);
    for partition in partitions {
        let (tx, rx) = std::sync::mpsc::sync_channel(CHANNEL_BATCHES);
        slots.push(Mutex::new(Some((partition, tx))));
        receivers.push(rx);
    }
    let mut first_err: Option<LsmError> = None;
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| worker_loop(&slots, &next, &merging));
        }
        // Consume partitions strictly in order; workers run ahead into
        // their bounded channels. Claims are handed out in the same order,
        // so the partition being drained is always being produced.
        for rx in receivers {
            if first_err.is_some() {
                continue; // dropping rx unblocks any parked producer
            }
            'drain: for batch in rx.iter() {
                match batch {
                    Ok(entries) => {
                        for entry in &entries {
                            if let Err(e) = builder.push(entry) {
                                first_err = Some(e);
                                break 'drain;
                            }
                        }
                    }
                    Err(e) => {
                        first_err = Some(e);
                        break 'drain;
                    }
                }
            }
            if first_err.is_some() {
                abort.store(true, Ordering::Relaxed);
            }
        }
    });
    match first_err {
        Some(e) => Err(e),
        None => Ok(young_keys.into_inner()),
    }
}

/// What every partition's merge shares.
struct PartitionMerge<'a> {
    abort: &'a AtomicBool,
    drop_tombstones: bool,
    /// Inputs, after the head, whose keys are counted.
    fused: usize,
    /// The counted keys, summed over the partitions.
    young_keys: &'a AtomicU64,
}

fn worker_loop(slots: &[PartitionSlot], next: &AtomicUsize, merging: &PartitionMerge<'_>) {
    loop {
        let p = next.fetch_add(1, Ordering::Relaxed);
        if p >= slots.len() {
            return;
        }
        let (partition, tx) = slots[p]
            .lock()
            .expect("slot mutex poisoned")
            .take()
            .expect("each partition is claimed exactly once");
        if merging.abort.load(Ordering::Relaxed) {
            continue; // dropping tx ends the coordinator's drain of p
        }
        merge_partition(partition, tx, merging);
    }
}

/// Runs one partition's k-way merge, streaming batches to the coordinator.
/// A send error means the coordinator aborted and dropped the receiver.
fn merge_partition(partition: Partition, tx: SyncSender<EntryBatch>, merging: &PartitionMerge<'_>) {
    let mut sources = Vec::with_capacity(1 + 3 * partition.slices.len());
    sources.extend(partition.head);
    // Slices come in input order, so the counted ones lead.
    let mut young = sources.len();
    for slice in partition.slices {
        let counted = slice.input < merging.fused;
        if let Err(e) = slice.open_into(&mut sources) {
            let _ = tx.send(Err(e));
            return;
        }
        if counted {
            young = sources.len();
        }
    }
    let mut merged = MergingIter::counting(sources, young);
    let mut batch = Vec::with_capacity(BATCH_ENTRIES);
    for item in merged.by_ref() {
        match item {
            Ok(entry) => {
                if merging.drop_tombstones && entry.is_tombstone() {
                    continue;
                }
                batch.push(entry);
                if batch.len() >= BATCH_ENTRIES {
                    if tx.send(Ok(std::mem::take(&mut batch))).is_err()
                        || merging.abort.load(Ordering::Relaxed)
                    {
                        return;
                    }
                    batch.reserve(BATCH_ENTRIES);
                }
            }
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        }
    }
    merging
        .young_keys
        .fetch_add(merged.young_keys(), Ordering::Relaxed);
    if !batch.is_empty() {
        let _ = tx.send(Ok(batch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::build_run_from_sorted;
    use bytes::Bytes;

    fn put(k: &str, v: &str, seq: u64) -> Entry {
        Entry::put(k.as_bytes().to_vec(), v.as_bytes().to_vec(), seq)
    }

    fn run_of(disk: &Arc<Disk>, entries: Vec<Entry>) -> Arc<Run> {
        build_run_from_sorted(disk, entries, false, 1, 10.0)
            .unwrap()
            .unwrap()
    }

    fn keyed_runs(disk: &Arc<Disk>, n_runs: usize, per_run: usize) -> Vec<Arc<Run>> {
        (0..n_runs)
            .map(|r| {
                let entries: Vec<Entry> = (0..per_run)
                    .map(|i| {
                        let k = i * n_runs + r;
                        put(&format!("key{k:06}"), &format!("val-{r}-{i}"), k as u64)
                    })
                    .collect();
                run_of(disk, entries)
            })
            .collect()
    }

    /// Reads every page of `run` back as raw bytes.
    fn raw_pages(disk: &Arc<Disk>, run: &Run) -> Vec<Bytes> {
        (0..run.pages())
            .map(|p| disk.read_page(run.id(), p).unwrap())
            .collect()
    }

    #[test]
    fn partition_plan_covers_every_page_exactly_once() {
        let disk = Disk::mem(128);
        let inputs = keyed_runs(&disk, 3, 200);
        for want in 2..=8 {
            let partitions = plan_partitions(None, &inputs, want).unwrap();
            assert!(partitions.len() <= want);
            // Per run: whole-page ranges + straddle pages = all pages once.
            for run in &inputs {
                let mut covered = vec![0u32; run.pages() as usize];
                let mut straddle_entries = 0usize;
                for part in &partitions {
                    for slice in &part.slices {
                        if slice.run.id() != run.id() {
                            continue;
                        }
                        for page in slice.pages.clone() {
                            covered[page as usize] += 1;
                        }
                        straddle_entries += slice.head.len() + slice.tail.len();
                    }
                }
                let uncovered = covered.iter().filter(|&&c| c == 0).count();
                assert!(
                    covered.iter().all(|&c| c <= 1),
                    "a page assigned to two partitions"
                );
                // Uncovered pages must be straddle pages whose entries were
                // distributed in memory instead.
                if uncovered > 0 {
                    assert!(straddle_entries > 0);
                }
            }
        }
    }

    #[test]
    fn parallel_merge_is_byte_identical_to_sequential() {
        // Two fresh disks, identically populated: run ids match, so the
        // outputs can be compared page-for-page as raw bytes.
        let seq_disk = Disk::mem(128);
        let par_disk = Disk::mem(128);
        let seq_inputs = keyed_runs(&seq_disk, 3, 150);
        let par_inputs = keyed_runs(&par_disk, 3, 150);
        seq_disk.reset_io();
        par_disk.reset_io();
        let (seq_out, seq_rep) =
            merge_runs_with(&seq_disk, &seq_inputs, false, 1, 10.0, 1).unwrap();
        let (par_out, par_rep) =
            merge_runs_with(&par_disk, &par_inputs, false, 1, 10.0, 4).unwrap();
        assert_eq!(seq_rep.partitions, 1);
        assert!(par_rep.partitions > 1, "plan actually partitioned");
        let (seq_out, par_out) = (seq_out.unwrap(), par_out.unwrap());
        assert_eq!(seq_out.entries(), 3 * 150, "no entry lost");
        assert_eq!(seq_out.entries(), par_out.entries());
        assert_eq!(seq_out.pages(), par_out.pages());
        assert_eq!(
            raw_pages(&seq_disk, &seq_out),
            raw_pages(&par_disk, &par_out)
        );
    }

    #[test]
    fn parallel_merge_io_totals_match_sequential() {
        let seq_disk = Disk::mem(128);
        let par_disk = Disk::mem(128);
        let seq_inputs = keyed_runs(&seq_disk, 4, 120);
        let par_inputs = keyed_runs(&par_disk, 4, 120);
        seq_disk.reset_io();
        par_disk.reset_io();
        merge_runs_with(&seq_disk, &seq_inputs, false, 1, 10.0, 1).unwrap();
        merge_runs_with(&par_disk, &par_inputs, false, 1, 10.0, 4).unwrap();
        let (s, p) = (seq_disk.io(), par_disk.io());
        assert_eq!(s.page_reads, p.page_reads, "same pages read");
        assert_eq!(s.seeks, p.seeks, "one seek per input run either way");
        assert_eq!(s.page_writes, p.page_writes, "same pages written");
    }

    #[test]
    fn boundaries_inside_one_page_still_partition_correctly() {
        // Few huge pages and many partitions force boundaries to straddle
        // (even share) pages.
        let disk = Disk::mem(8192);
        let inputs = keyed_runs(&disk, 2, 100);
        let total_pages: u32 = inputs.iter().map(|r| r.pages()).sum();
        assert!(total_pages <= 6, "pages are big: {total_pages}");
        let (seq, _) = merge_runs_with(&disk, &inputs, false, 1, 10.0, 1).unwrap();
        let seq = seq.unwrap();
        let disk2 = Disk::mem(8192);
        let inputs2 = keyed_runs(&disk2, 2, 100);
        let (par, rep) = merge_runs_with(&disk2, &inputs2, false, 1, 10.0, 4).unwrap();
        let par = par.unwrap();
        assert!(rep.partitions >= 2);
        assert_eq!(raw_pages(&disk, &seq), raw_pages(&disk2, &par));
    }

    #[test]
    fn parallel_merge_drops_tombstones_like_sequential() {
        let mk_inputs = |disk: &Arc<Disk>| {
            let live: Vec<Entry> = (0..300)
                .map(|i| put(&format!("k{i:05}"), "v", i as u64))
                .collect();
            let mut dead: Vec<Entry> = (0..300)
                .step_by(3)
                .map(|i| Entry::tombstone(format!("k{i:05}").into_bytes(), 1000 + i as u64))
                .collect();
            dead.sort_by(|a, b| a.key.cmp(&b.key));
            vec![run_of(disk, dead), run_of(disk, live)]
        };
        let d1 = Disk::mem(128);
        let i1 = mk_inputs(&d1);
        let (seq, _) = merge_runs_with(&d1, &i1, true, 1, 10.0, 1).unwrap();
        let d2 = Disk::mem(128);
        let i2 = mk_inputs(&d2);
        let (par, rep) = merge_runs_with(&d2, &i2, true, 1, 10.0, 3).unwrap();
        assert!(rep.partitions >= 2);
        let (seq, par) = (seq.unwrap(), par.unwrap());
        assert_eq!(seq.entries(), par.entries());
        assert_eq!(par.tombstones(), 0);
        assert_eq!(raw_pages(&d1, &seq), raw_pages(&d2, &par));
    }

    /// The flush's merge against the two steps it replaced: the buffer
    /// written out as a run, that run merged with the resident one. Same
    /// pages, same filter bits, same fences — at one thread and at four,
    /// where the memtable is cut at the partition boundaries — and no page
    /// of the buffer's is written or read on the way.
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
        for (threads, drop_tombstones) in [(1, false), (1, true), (4, false), (4, true)] {
            let old_disk = Disk::mem(128);
            let mut sorted = buffered.clone();
            sorted.sort_by(|a, b| a.key.cmp(&b.key));
            let inputs = [resident(&old_disk), run_of(&old_disk, sorted)];
            let inputs = [Arc::clone(&inputs[1]), Arc::clone(&inputs[0])]; // youngest first
            let (old, _) =
                merge_runs_with(&old_disk, &inputs, drop_tombstones, 1, 10.0, threads).unwrap();
            let old = old.unwrap();

            let new_disk = Disk::mem(128);
            let resident = resident(&new_disk);
            let resident_pages = resident.pages() as u64;
            let memtable = Arc::new(Memtable::new());
            for entry in &buffered {
                memtable.insert(entry.clone());
            }
            new_disk.reset_io();
            let head = memtable.cursor(None, None).into();
            let (new, report) = merge(
                &new_disk,
                Some(head),
                &[resident],
                drop_tombstones,
                1,
                10.0,
                threads,
            )
            .unwrap();
            let (new, io) = (new.unwrap(), new_disk.io());
            assert_eq!(report.partitions > 1, threads > 1, "{report:?}");
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

    #[test]
    fn single_page_inputs_fall_back_to_fewer_partitions() {
        let disk = Disk::mem(4096);
        let a = run_of(&disk, vec![put("a", "1", 1)]);
        let b = run_of(&disk, vec![put("b", "2", 2)]);
        let (out, rep) = merge_runs_with(&disk, &[a, b], false, 1, 10.0, 8).unwrap();
        assert_eq!(out.unwrap().entries(), 2);
        assert!(rep.partitions <= 2, "2 input pages cap the partition count");
    }
}
