//! A flush merges the buffer straight into the tree; what lands on disk
//! must be what the two-step flush it replaced laid down.
//!
//! The reference here is that two-step flush, built from public pieces:
//! the buffer written out as a run of its own (`build_run_from_sorted`),
//! that run cascaded through the merge policy with `merge_runs` — the
//! engine's algorithm before the memtable became a merge source. After
//! every flush of a random op trace the engine's tree is held to it **by
//! content, never by run id** (ids differ by construction: the reference
//! allocates one for the buffer's run, the engine does not):
//!
//! * every run page for page, in its level and age where the manifest
//!   names them (directory stores), as a multiset elsewhere;
//! * per level: run count, entries, payload bytes, filter bits; the whole
//!   tree's fence bits; each run's bits-per-entry in the manifest;
//! * filters and fences by what they answer: every lookup of a stored or
//!   absent key probes, rejects, false-positives and reads pages exactly
//!   as the reference's runs do — which a filter differing in one probed
//!   bit, or a fence off by one page, would not.
//!
//! The last test is the reason for the change. The engine plans a flush
//! before it merges: the levels its cascade is certain to spill through
//! merge with the buffer in one pass, so no run is written only to be read
//! back. Per flush, over an insert-heavy trace under uniform and Monkey
//! filters and both policies, it costs no page more than the two-step
//! flush, exactly as much when that flush spills nothing, and — on the
//! flushes whose spills the plan proves — less.

use bytes::Bytes;
use monkey_bloom::hash_pair;
use monkey_bloom::math::LN2_SQUARED;
use monkey_lsm::compaction::{build_run_from_sorted, merge_runs};
use monkey_lsm::level::level_capacity_bytes;
use monkey_lsm::manifest::Manifest;
use monkey_lsm::run::Run;
use monkey_lsm::{
    Db, DbOptions, Entry, FilterContext, FilterPolicy, LookupStats, MergePolicy,
    UniformFilterPolicy,
};
use monkey_storage::{Disk, IoSnapshot, RunId};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const PAGE: usize = 128;
const BUFFER: usize = 512;
const BITS_PER_ENTRY: f64 = 8.0;

#[derive(Debug, Clone)]
enum Op {
    Put(u16, u8),
    Delete(u16),
    /// A put of a fixed-size value.
    Insert(u16),
    Flush,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        12 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 256, v)),
        4 => any::<u16>().prop_map(|k| Op::Delete(k % 256)),
        1 => Just(Op::Flush),
    ]
}

fn key(k: u16) -> Vec<u8> {
    format!("k{k:05}").into_bytes()
}

fn value(k: u16, v: u8) -> Vec<u8> {
    let mut val = format!("v{k:05}-{v:03}").into_bytes();
    val.resize(10 + v as usize % 20, b'p');
    val
}

fn fixed_value(k: u16) -> Vec<u8> {
    format!("v{k:05}-fixed-size").into_bytes()
}

/// Monkey's allocation (§4.1) over the runs that will coexist with the new
/// one: each run's false positive rate proportional to its entries,
/// `p_j = min(1, c·n_j)`, at the memory uniform filters would spend. The
/// closed form for `c` over the runs that keep a filter, re-solved without
/// the runs it leaves none.
struct MonkeyFilters(f64);

impl FilterPolicy for MonkeyFilters {
    fn bits_per_entry(&self, ctx: &FilterContext) -> f64 {
        if ctx.run_entries == 0 {
            return 0.0;
        }
        let budget = self.0 * ctx.total_entries as f64 * LN2_SQUARED;
        let runs = std::iter::once(&ctx.run_entries).chain(&ctx.other_run_entries);
        let mut filtered: Vec<f64> = runs.map(|&n| n as f64).filter(|&n| n > 0.0).collect();
        loop {
            let entries: f64 = filtered.iter().sum();
            let spread: f64 = filtered.iter().map(|&n| n * n.ln()).sum();
            let ln_c = -(budget + spread) / entries;
            let kept = filtered.len();
            filtered.retain(|&n| ln_c + n.ln() < 0.0);
            if filtered.len() == kept {
                let ln_p = ln_c + (ctx.run_entries as f64).ln();
                return (-ln_p / LN2_SQUARED).max(0.0);
            }
        }
    }

    fn name(&self) -> &str {
        "monkey"
    }
}

/// The filter allocations the I/O test runs under.
#[derive(Debug, Clone, Copy)]
enum Filters {
    Uniform,
    Monkey,
}

impl Filters {
    fn policy(self) -> Arc<dyn FilterPolicy> {
        match self {
            Filters::Uniform => Arc::new(UniformFilterPolicy::new(BITS_PER_ENTRY)),
            Filters::Monkey => Arc::new(MonkeyFilters(BITS_PER_ENTRY)),
        }
    }
}

/// What one flush may cost the disk.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct FlushIo {
    page_reads: u64,
    page_writes: u64,
    seeks: u64,
}

/// The tree the two-step flush builds, on a disk of its own.
struct Reference {
    disk: Arc<Disk>,
    policy: MergePolicy,
    size_ratio: usize,
    filters: Arc<dyn FilterPolicy>,
    /// Level `i + 1`'s runs, youngest first.
    levels: Vec<Vec<Arc<Run>>>,
    buffer: BTreeMap<Vec<u8>, Entry>,
    next_seq: u64,
    /// What the last flush costs an engine that merges the buffer where it
    /// lies: every run built is written once — except the buffer's own,
    /// where it is merged on — and every run merged away is read once.
    last_flush: FlushIo,
    /// The last flush moved a run down a level.
    spilled: bool,
}

impl Reference {
    fn new(policy: MergePolicy, size_ratio: usize, filters: Filters) -> Self {
        Self {
            disk: Disk::mem(PAGE),
            policy,
            size_ratio,
            filters: filters.policy(),
            levels: Vec::new(),
            buffer: BTreeMap::new(),
            next_seq: 0,
            last_flush: FlushIo::default(),
            spilled: false,
        }
    }

    /// Bits per entry for a run of `run_entries` built for `level`, beside
    /// the runs the tree holds now — the engine's question to its policy.
    fn bits(&self, level: usize, run_entries: u64) -> f64 {
        let other_run_entries: Vec<u64> =
            self.levels.iter().flatten().map(|r| r.entries()).collect();
        self.filters.bits_per_entry(&FilterContext {
            level,
            num_levels: self.deepest().max(level),
            run_entries,
            total_entries: run_entries + other_run_entries.iter().sum::<u64>(),
            other_run_entries,
            size_ratio: self.size_ratio,
            merge_policy: self.policy,
        })
    }

    /// Buffers `entry`; true when the buffer is full and must be flushed.
    fn insert(&mut self, key: Vec<u8>, value: Option<Vec<u8>>) -> bool {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = match value {
            Some(value) => Entry::put(key.clone(), value, seq),
            None => Entry::tombstone(key.clone(), seq),
        };
        self.buffer.insert(key, entry);
        let bytes: usize = self.buffer.values().map(Entry::encoded_len).sum();
        bytes >= BUFFER
    }

    fn deepest(&self) -> usize {
        self.levels
            .iter()
            .rposition(|l| !l.is_empty())
            .map_or(0, |i| i + 1)
    }

    fn level(&mut self, lvl: usize) -> &mut Vec<Arc<Run>> {
        if self.levels.len() < lvl {
            self.levels.resize_with(lvl, Vec::new);
        }
        &mut self.levels[lvl - 1]
    }

    /// One merge of the cascade, priced for the one-step engine:
    /// `unwritten` marks `inputs[0]` as the buffer's run, which that engine
    /// neither wrote nor reads.
    fn merge(
        &mut self,
        inputs: &[Arc<Run>],
        drop_tombstones: bool,
        level: usize,
        unwritten: bool,
    ) -> Option<Arc<Run>> {
        let read = &inputs[usize::from(unwritten)..];
        self.last_flush.page_reads += read.iter().map(|r| r.pages() as u64).sum::<u64>();
        self.last_flush.seeks += read.len() as u64;
        let bits = self.bits(level, inputs.iter().map(|r| r.entries()).sum());
        let out = merge_runs(&self.disk, inputs, drop_tombstones, level, bits).unwrap();
        self.last_flush.page_writes += out.as_ref().map_or(0, |r| r.pages() as u64);
        out
    }

    /// The flush as the engine did it before: the buffer becomes a run,
    /// the run goes through the merge policy.
    fn flush(&mut self) {
        self.last_flush = FlushIo::default();
        self.spilled = false;
        if self.buffer.is_empty() {
            return;
        }
        let entries: Vec<Entry> = std::mem::take(&mut self.buffer).into_values().collect();
        let drop_tombstones = self.deepest() == 0;
        let bits = self.bits(1, entries.len() as u64);
        let Some(run) =
            build_run_from_sorted(&self.disk, entries, drop_tombstones, 1, bits).unwrap()
        else {
            return;
        };
        match self.policy {
            MergePolicy::Leveling => self.install_leveling(run),
            MergePolicy::Tiering => self.install_tiering(run),
        }
    }

    fn install_leveling(&mut self, run: Arc<Run>) {
        let mut carry = run;
        let mut lvl = 1;
        loop {
            let deepest = self.deepest().max(lvl);
            if !self.level(lvl).is_empty() {
                let mut inputs = vec![carry];
                inputs.append(self.level(lvl));
                match self.merge(&inputs, lvl >= deepest, lvl, lvl == 1) {
                    Some(merged) => carry = merged,
                    None => return,
                }
            } else if lvl == 1 {
                self.last_flush.page_writes += carry.pages() as u64; // written as it is
            }
            self.level(lvl).push(carry);
            let capacity = level_capacity_bytes(BUFFER, self.size_ratio, lvl);
            if self.level(lvl).iter().map(|r| r.bytes()).sum::<u64>() <= capacity {
                return;
            }
            carry = self.level(lvl).pop().expect("level had a run");
            self.spilled = true;
            lvl += 1;
        }
    }

    fn install_tiering(&mut self, run: Arc<Run>) {
        self.last_flush.page_writes += run.pages() as u64;
        self.level(1).insert(0, run);
        let mut lvl = 1;
        while self.level(lvl).len() >= self.size_ratio {
            let inputs = std::mem::take(self.level(lvl));
            self.spilled = true;
            let drop_tombstones = self.deepest() <= lvl;
            if let Some(merged) = self.merge(&inputs, drop_tombstones, lvl + 1, false) {
                self.level(lvl + 1).insert(0, merged);
            }
            lvl += 1;
        }
    }

    /// What a lookup of `key` adds to the engine's lookup counters and
    /// page reads, probing shallow to deep, youngest first, up to the
    /// first version found.
    fn lookup(&self, key: &[u8]) -> (LookupStats, u64, bool) {
        let pair = hash_pair(key);
        let mut stats = LookupStats {
            key_hashes: 1,
            ..LookupStats::default()
        };
        let mut page_reads = 0;
        for run in self.levels.iter().flatten() {
            let look = run.get_hashed(key, pair).unwrap();
            if look.probed_filter {
                stats.filter_probes += 1;
                if look.filter_negative {
                    stats.filter_negatives += 1;
                } else if look.page_read && look.entry.is_none() {
                    stats.filter_false_positives += 1;
                }
            }
            page_reads += u64::from(look.page_read);
            if let Some(entry) = look.entry {
                return (stats, page_reads, !entry.is_tombstone());
            }
        }
        (stats, page_reads, false)
    }
}

fn pages_of(disk: &Disk, run: RunId) -> Vec<Bytes> {
    (0..disk.run_pages(run).unwrap())
        .map(|page_no| disk.read_page(run, page_no).unwrap())
        .collect()
}

/// Holds the engine's settled tree (empty buffer) to the reference's.
fn check_tree(db: &Db, dir: Option<&Path>, reference: &Reference) -> Result<(), TestCaseError> {
    let want_runs: Vec<&Arc<Run>> = reference.levels.iter().flatten().collect();
    let want_pages: Vec<Vec<Bytes>> = want_runs
        .iter()
        .map(|run| pages_of(&reference.disk, run.id()))
        .collect();

    // Run files, by content.
    let disk = db.disk();
    match dir {
        Some(dir) => {
            // The manifest names every run's level and age.
            let state = Manifest::at(dir.join("MANIFEST")).load().unwrap();
            let mut records = state.map_or(Vec::new(), |s| s.runs);
            records.sort_by_key(|r| (r.level, r.age));
            let want_places: Vec<(usize, usize)> = reference
                .levels
                .iter()
                .enumerate()
                .flat_map(|(li, level)| (0..level.len()).map(move |age| (li + 1, age)))
                .collect();
            let places: Vec<(usize, usize)> = records.iter().map(|r| (r.level, r.age)).collect();
            prop_assert_eq!(places, want_places, "levels and ages in the manifest");
            for ((record, want), run) in records.iter().zip(&want_pages).zip(&want_runs) {
                prop_assert_eq!(record.bits_per_entry, run.filter_bits_per_entry());
                prop_assert_eq!(&pages_of(disk, record.id), want, "run {:?}", record);
            }
            let mut on_disk = disk.list_runs().unwrap();
            let mut named: Vec<RunId> = records.iter().map(|r| r.id).collect();
            on_disk.sort_unstable();
            named.sort_unstable();
            prop_assert_eq!(on_disk, named, "a run file the manifest does not name");
        }
        None => {
            let mut got: Vec<Vec<Bytes>> = disk
                .list_runs()
                .unwrap()
                .into_iter()
                .map(|run| pages_of(disk, run))
                .collect();
            let mut want = want_pages.clone();
            got.sort();
            want.sort();
            prop_assert_eq!(got, want, "run files as a multiset");
        }
    }

    // The tree's shape and memory terms.
    let stats = db.stats();
    prop_assert_eq!(stats.buffer_entries + stats.immutable_entries, 0);
    let shape: Vec<(usize, u64, u64, u64)> = stats
        .levels
        .iter()
        .map(|l| (l.runs, l.entries, l.bytes, l.filter_bits))
        .collect();
    let mut want_shape: Vec<(usize, u64, u64, u64)> = reference
        .levels
        .iter()
        .map(|level| {
            (
                level.len(),
                level.iter().map(|r| r.entries()).sum(),
                level.iter().map(|r| r.bytes()).sum(),
                level.iter().map(|r| r.filter().memory_bits() as u64).sum(),
            )
        })
        .collect();
    want_shape.resize(shape.len().max(want_shape.len()), (0, 0, 0, 0));
    let mut shape = shape;
    shape.resize(want_shape.len(), (0, 0, 0, 0));
    prop_assert_eq!(
        shape,
        want_shape,
        "(runs, entries, bytes, filter bits) per level"
    );
    let fence_bits: u64 = want_runs.iter().map(|r| r.fence_memory_bits()).sum();
    prop_assert_eq!(stats.fence_bits, fence_bits);

    // Filters and fences, by what they answer. Even keys may be stored;
    // odd ones never are, and fall inside the runs' key ranges.
    for k in 0..300u16 {
        let probe = if k % 2 == 0 {
            key(k / 2)
        } else {
            [key(k / 2), vec![b'x']].concat()
        };
        let (before, io_before) = (db.lookup_stats(), db.io());
        let found = db.get(&probe).unwrap().is_some();
        let (after, io) = (db.lookup_stats(), db.io() - io_before);
        let (want, want_reads, want_found) = reference.lookup(&probe);
        let got = LookupStats {
            key_hashes: after.key_hashes - before.key_hashes,
            filter_probes: after.filter_probes - before.filter_probes,
            filter_negatives: after.filter_negatives - before.filter_negatives,
            filter_false_positives: after.filter_false_positives - before.filter_false_positives,
        };
        prop_assert_eq!((got, io.page_reads, found), (want, want_reads, want_found));
    }
    Ok(())
}

fn temp_dir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "monkey-flush-identity-{tag}-{}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options(base: DbOptions, policy: MergePolicy, size_ratio: usize, filters: Filters) -> DbOptions {
    base.page_size(PAGE)
        .buffer_capacity(BUFFER)
        .size_ratio(size_ratio)
        .merge_policy(policy)
        .filter_policy(filters.policy())
        .shards(1)
}

/// Runs `ops` through the engine and the reference side by side, calling
/// `after_flush` with the I/O each flush cost the engine.
fn replay(
    db: &Db,
    reference: &mut Reference,
    ops: &[Op],
    mut after_flush: impl FnMut(&Db, &Reference, IoSnapshot) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    for op in ops.iter().chain([&Op::Flush]) {
        let before = db.io();
        let full = match op {
            Op::Put(k, v) => {
                db.put(key(*k), value(*k, *v)).unwrap();
                reference.insert(key(*k), Some(value(*k, *v)))
            }
            Op::Delete(k) => {
                db.delete(key(*k)).unwrap();
                reference.insert(key(*k), None)
            }
            Op::Insert(k) => {
                db.put(key(*k), fixed_value(*k)).unwrap();
                reference.insert(key(*k), Some(fixed_value(*k)))
            }
            Op::Flush => {
                db.flush().unwrap();
                true
            }
        };
        if full {
            // The engine rotated on the same insert: flushes are inline.
            reference.flush();
            after_flush(db, reference, db.io() - before)?;
        }
    }
    Ok(())
}

fn check_trace(
    policy: MergePolicy,
    size_ratio: usize,
    on_files: Option<u64>,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let dir = on_files.map(|case| temp_dir(&format!("{policy:?}"), case));
    let base = match &dir {
        Some(dir) => DbOptions::at_path(dir),
        None => DbOptions::in_memory(),
    };
    let db = Db::open(options(base, policy, size_ratio, Filters::Uniform)).unwrap();
    let mut reference = Reference::new(policy, size_ratio, Filters::Uniform);
    let checked = replay(&db, &mut reference, ops, |db, reference, _| {
        check_tree(db, dir.as_deref(), reference)
    });
    drop(db);
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    checked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn leveling_flushes_lay_down_the_two_step_tree(
        ops in proptest::collection::vec(arb_op(), 1..400),
    ) {
        check_trace(MergePolicy::Leveling, 2, None, &ops)?;
    }

    #[test]
    fn tiering_flushes_lay_down_the_two_step_tree(
        ops in proptest::collection::vec(arb_op(), 1..400),
    ) {
        check_trace(MergePolicy::Tiering, 3, None, &ops)?;
    }

    #[test]
    fn flushes_to_run_files_lay_down_the_two_step_tree(
        ops in proptest::collection::vec(arb_op(), 1..250),
        tiering in any::<bool>(),
        case in any::<u64>(),
    ) {
        let (policy, size_ratio) = if tiering {
            (MergePolicy::Tiering, 3)
        } else {
            (MergePolicy::Leveling, 3)
        };
        check_trace(policy, size_ratio, Some(case), &ops)?;
    }
}

/// Per flush, under either policy and either filter allocation: the
/// engine reads and writes no more pages, and seeks no more often, than
/// the two-step flush, where the buffer is merged where it lies; exactly as
/// much when that flush spills nothing; and, on the flushes whose spills
/// its plan proves, less — none of the runs it would write only to read
/// back at once is built. The tree is the two-step tree after every flush.
///
/// The insert trace is what proves spills: keys mostly new, values of one
/// size, so a level's bytes follow its key count. The mixed trace of the
/// proptests (deletes, overwrites on 256 keys) rarely does, and is held to
/// the first two checks.
#[test]
fn a_flush_writes_what_it_builds_and_reads_what_it_merges_away() {
    let inserts: Vec<Op> = (0..1500u32)
        .map(|i| match i % 8 {
            7 => Op::Insert((i * 131 % 1500) as u16), // an overwrite
            _ => Op::Insert((i * 7919 % 1500) as u16),
        })
        .collect();
    let mixed: Vec<Op> = (0..3000u32)
        .map(|i| match i % 11 {
            7 => Op::Delete((i * 31 % 256) as u16),
            _ if i % 97 == 96 => Op::Flush,
            _ => Op::Put((i * 131 % 256) as u16, i as u8),
        })
        .collect();
    for (policy, size_ratio) in [(MergePolicy::Leveling, 2), (MergePolicy::Tiering, 3)] {
        for filters in [Filters::Uniform, Filters::Monkey] {
            for (trace, ops) in [("inserts", &inserts), ("mixed", &mixed)] {
                let opts = options(DbOptions::in_memory(), policy, size_ratio, filters);
                let db = Db::open(opts).unwrap();
                let mut reference = Reference::new(policy, size_ratio, filters);
                let (mut flushes, mut spills, mut cheaper) = (0, 0, 0);
                let at = format!("{policy:?}, {filters:?}, {trace}");
                replay(&db, &mut reference, ops, |db, reference, io| {
                    let at = format!("{at}, flush {flushes}");
                    check_tree(db, None, reference)?;
                    let (cost, want) = (
                        [io.page_reads, io.page_writes, io.seeks],
                        reference.last_flush,
                    );
                    let want = [want.page_reads, want.page_writes, want.seeks];
                    prop_assert!(
                        cost.iter().zip(&want).all(|(c, w)| c <= w),
                        "{at}: {cost:?} vs {want:?}"
                    );
                    if !reference.spilled {
                        prop_assert_eq!(cost, want, "{}: nothing spilled", at);
                    }
                    flushes += 1;
                    spills += u32::from(reference.spilled);
                    cheaper += u32::from(cost != want);
                    Ok(())
                })
                .unwrap();
                assert!(
                    flushes > 50 && spills > 5,
                    "{at}: {flushes} flushes, {spills} spills"
                );
                if trace == "inserts" {
                    assert!(
                        cheaper >= 10,
                        "{at}: {cheaper} of {spills} spilling flushes fused"
                    );
                }
                // Monkey gives the shallowest run more bits than the deepest.
                let bits: Vec<f64> = (reference.levels.iter().flatten())
                    .map(|run| run.filter_bits_per_entry())
                    .collect();
                let monkey = matches!(filters, Filters::Monkey);
                assert_eq!(bits.first() > bits.last(), monkey, "{at}: {bits:?}");
            }
        }
    }
}
