//! The merge kernel against a trivial oracle.
//!
//! One kernel — `MergingIter` over `Source`s, a loser tree comparing keys
//! where they lie — carries range scans and merges. For random source sets
//! (a memtable vector plus 1–9 runs, with cross-source duplicates,
//! tombstones, keys that are prefixes of one another, empty sources,
//! single-page and page-straddling runs) and random bounds:
//!
//! * the kernel's sequence is the oracle's: every key once, newest version,
//!   in key order, from `lo` on;
//! * a merge of the runs writes the oracle's sequence;
//! * `Db::range` over a store built from the same writes yields the
//!   oracle's live range.

use monkey_lsm::compaction::{build_run_from_sorted, merge_runs};
use monkey_lsm::iter::{MergingIter, Source};
use monkey_lsm::page::PageCursor;
use monkey_lsm::{Db, DbOptions, Entry, EntryKind, MergePolicy, Run};
use monkey_storage::Disk;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Keys that are prefixes of one another (`a07`, `ab07`, `aba07`, …) next
/// to plain neighbours, so comparisons run past shared prefixes and past
/// the shorter key's end.
fn key(id: u16) -> Vec<u8> {
    format!("{}{:02}", &"abab"[..(id % 5) as usize], id / 5).into_bytes()
}

/// One write: key id, kind selector, value length.
type Write = (u16, u8, u8);

fn kind_of(selector: u8) -> EntryKind {
    match selector % 4 {
        0 => EntryKind::Delete,
        _ => EntryKind::Put,
    }
}

/// The entries one source holds for `writes`: one version per key (the
/// last write wins), in key order, all newer than any source of higher
/// `age`.
fn source_entries(writes: &[Write], age: usize) -> Vec<Entry> {
    let newest: BTreeMap<Vec<u8>, (usize, Write)> = writes
        .iter()
        .enumerate()
        .map(|(i, w)| (key(w.0), (i, *w)))
        .collect();
    newest
        .into_iter()
        .map(|(key, (i, (id, selector, len)))| {
            let kind = kind_of(selector);
            let value = match kind {
                EntryKind::Delete => Vec::new(),
                _ => format!("{age}:{id}:{}", "v".repeat(len as usize % 40)).into_bytes(),
            };
            Entry {
                key: key.into(),
                value: value.into(),
                seq: ((100 - age as u64) << 32) | i as u64,
                kind,
            }
        })
        .collect()
}

/// Newest version of every key across `sources` (youngest source first).
fn oracle(sources: &[Vec<Entry>]) -> BTreeMap<Vec<u8>, Entry> {
    let mut newest = BTreeMap::new();
    for entries in sources.iter().rev() {
        for e in entries {
            newest.insert(e.key.to_vec(), e.clone());
        }
    }
    newest
}

fn build_runs(disk: &Arc<Disk>, sources: &[Vec<Entry>]) -> Vec<Arc<Run>> {
    sources
        .iter()
        .map(|entries| {
            build_run_from_sorted(disk, entries.clone(), false, 1, 8.0)
                .unwrap()
                .expect("a non-empty run")
        })
        .collect()
}

fn raw_pages(disk: &Arc<Disk>, run: &Run) -> Vec<bytes::Bytes> {
    (0..run.pages())
        .map(|p| disk.read_page(run.id(), p).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_and_merges_match_the_oracle(
        runs in collection::vec(collection::vec((0u16..300, any::<u8>(), any::<u8>()), 1..90), 1..10),
        mem in collection::vec((0u16..300, any::<u8>(), any::<u8>()), 0..40),
        lo_id in 0u16..320,
        big_pages in any::<bool>(),
        drop_tombstones in any::<bool>(),
    ) {
        // 96-byte pages hold one or two entries (every run straddles many);
        // 4 KiB pages hold a whole small run.
        let page_size = if big_pages { 4096 } else { 96 };
        let mem_entries = source_entries(&mem, 0);
        let run_entries: Vec<Vec<Entry>> = runs
            .iter()
            .enumerate()
            .map(|(r, writes)| source_entries(writes, r + 1))
            .collect();
        let mut all = vec![mem_entries.clone()];
        all.extend(run_entries.iter().cloned());

        // The kernel, as a scan opens it: memtable share first, then each
        // run from `lo` on (runs wholly below `lo` open exhausted).
        let disk = Disk::mem(page_size);
        let inputs = build_runs(&disk, &run_entries);
        let lo = key(lo_id);
        let mut sources: Vec<Source> = vec![mem_entries
            .iter()
            .filter(|e| e.key.as_ref() >= lo.as_slice())
            .cloned()
            .collect::<Vec<_>>()
            .into()];
        for run in &inputs {
            sources.push(run.scan_from(&lo, None).unwrap().into());
        }
        let got: Vec<Entry> = MergingIter::new(sources).map(|e| e.unwrap()).collect();
        let want: Vec<Entry> = oracle(&all).range(lo.clone()..).map(|(_, e)| e.clone()).collect();
        prop_assert_eq!(got, want);

        // A merge of the runs: the oracle's sequence.
        let want: Vec<Entry> = oracle(&run_entries)
            .into_values()
            .filter(|e| !(drop_tombstones && e.is_tombstone()))
            .collect();
        let out = merge_runs(&disk, &inputs, drop_tombstones, 1, 8.0).unwrap();
        let pages = out.as_ref().map_or_else(Vec::new, |run| raw_pages(&disk, run));
        let mut merged = Vec::new();
        for page in &pages {
            let mut cursor = PageCursor::new(page.clone()).unwrap();
            while let Some(entry) = cursor.next_entry().unwrap() {
                merged.push(entry);
            }
        }
        prop_assert_eq!(merged, want);
    }

    #[test]
    fn db_range_matches_the_oracle(
        batches in collection::vec(collection::vec((0u16..300, any::<u8>(), any::<u8>()), 1..60), 1..10),
        lo_id in 0u16..320,
        span in 0u16..120,
        small_pages in any::<bool>(),
    ) {
        // Every batch but the last is flushed into a run of its own (tiering
        // at T = 12 never merges nine); the last stays in the memtable.
        let db = Db::open(
            DbOptions::in_memory()
                .page_size(if small_pages { 128 } else { 4096 })
                .buffer_capacity(1 << 20)
                .size_ratio(12)
                .merge_policy(MergePolicy::Tiering)
                .uniform_filters(8.0)
                .shards(1),
        )
        .unwrap();
        let mut live: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (b, batch) in batches.iter().enumerate() {
            for &(id, selector, len) in batch {
                if kind_of(selector) == EntryKind::Delete {
                    db.delete(key(id)).unwrap();
                    live.remove(&key(id));
                } else {
                    let value = format!("{b}:{id}:{}", "v".repeat(len as usize % 40)).into_bytes();
                    db.put(key(id), value.clone()).unwrap();
                    live.insert(key(id), value);
                }
            }
            if b + 1 < batches.len() {
                db.flush().unwrap();
            }
        }
        let (lo, hi) = (key(lo_id), key(lo_id.saturating_add(span)));
        let got: Vec<(Vec<u8>, Vec<u8>)> = db
            .range(&lo, Some(&hi))
            .unwrap()
            .map(|row| row.map(|(k, v)| (k.to_vec(), v.to_vec())).unwrap())
            .collect();
        let want: Vec<(Vec<u8>, Vec<u8>)> = if lo < hi {
            live.range(lo..hi).map(|(k, v)| (k.clone(), v.clone())).collect()
        } else {
            Vec::new()
        };
        prop_assert_eq!(got, want);
    }
}
