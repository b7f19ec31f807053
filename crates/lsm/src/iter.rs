//! K-way merge over runs and the buffer: one kernel for range lookups and
//! merge (compaction) operations.
//!
//! Both consume several sorted sources at once and want the entries in
//! internal order (key ascending) with only the newest version of each key
//! surviving — "only the entry from the most recently-created run is kept
//! because it is the most up-to-date" (§2). The kernel compares keys where
//! they lie (page bytes, memtable nodes) and hands each surviving entry
//! to its consumer **borrowed**; an owned entry is built once, by the
//! consumer, for what it actually outputs.

use crate::entry::{Entry, EntryRef, EntryView};
use crate::error::{LsmError, Result};
use crate::memtable::MemtableCursor;
use crate::run::RunCursor;
use bytes::Bytes;
use std::cmp::Ordering;

/// One sorted input of a merge, positioned on its current entry. No source
/// holds two versions of one key (memtables replace in place, runs are
/// deduplicated when built). A memtable that is still taking writes shows
/// each entry as it was when the cursor reached it, so the head a match
/// was played on is the entry that gets visited.
pub enum Source {
    /// Entries already in a vector, in key order: a run to be built from
    /// sorted entries.
    Entries {
        /// The entries.
        entries: Vec<Entry>,
        /// Index of the current one.
        pos: usize,
    },
    /// A cursor over a memtable, read where it lies: the buffer's share of
    /// a scan, or the buffer a flush merges into level 1.
    Memtable(MemtableCursor),
    /// A cursor over pages of a run.
    Run(RunCursor),
}

impl From<Vec<Entry>> for Source {
    fn from(entries: Vec<Entry>) -> Self {
        Self::Entries { entries, pos: 0 }
    }
}

impl From<MemtableCursor> for Source {
    fn from(cursor: MemtableCursor) -> Self {
        Self::Memtable(cursor)
    }
}

impl From<RunCursor> for Source {
    fn from(cursor: RunCursor) -> Self {
        Self::Run(cursor)
    }
}

impl Source {
    fn exhausted(&self) -> bool {
        self.head().is_none()
    }

    /// Key and sequence number of the current entry, borrowed in place;
    /// `None` once exhausted.
    #[inline]
    fn head(&self) -> Option<(&[u8], u64)> {
        match self {
            Self::Entries { entries, pos } => entries.get(*pos).map(|e| (e.key.as_ref(), e.seq)),
            Self::Memtable(cursor) => cursor.head(),
            Self::Run(cursor) => cursor.page().key().map(|key| (key, cursor.page().seq())),
        }
    }

    fn advance(&mut self) -> Result<()> {
        match self {
            Self::Entries { pos, .. } => {
                *pos += 1;
                Ok(())
            }
            Self::Memtable(cursor) => {
                cursor.advance();
                Ok(())
            }
            Self::Run(cursor) => cursor.advance(),
        }
    }

    /// Upper bound on the entries still to come, where the source knows
    /// one without reading ahead (a run cursor does not: the run does).
    pub(crate) fn len_hint(&self) -> usize {
        match self {
            Self::Entries { entries, pos } => entries.len() - pos,
            Self::Memtable(cursor) => cursor.len_hint(),
            Self::Run(_) => 0,
        }
    }

    /// [`EntryView::to_entry`] for a reader that takes no entry at or past
    /// `hi`: a run's row block stops there (see
    /// [`PageCursor::to_entry`](crate::page::PageCursor::to_entry)).
    ///
    /// # Panics
    /// When the source is exhausted.
    fn to_entry_below(&self, hi: Option<&[u8]>) -> Entry {
        match self {
            Self::Run(cursor) => cursor
                .page()
                .to_entry_below(hi)
                .expect("source is not exhausted"),
            _ => self.to_entry(),
        }
    }

    /// Exhausts the source without reading anything further.
    fn close(&mut self) {
        match self {
            Self::Entries { entries, pos } => *pos = entries.len(),
            Self::Memtable(cursor) => cursor.close(),
            Self::Run(cursor) => cursor.close(),
        }
    }
}

/// A source is viewed at its current entry.
///
/// # Panics
/// When the source is exhausted.
impl EntryView for Source {
    #[inline]
    fn entry(&self) -> EntryRef<'_> {
        match self {
            Self::Entries { entries, pos } => (&entries[*pos]).into(),
            Self::Memtable(cursor) => cursor.entry(),
            Self::Run(cursor) => cursor.page().entry().expect("source is not exhausted"),
        }
    }

    fn to_entry(&self) -> Entry {
        match self {
            Self::Entries { entries, pos } => entries[*pos].clone(),
            Self::Memtable(cursor) => cursor.to_entry(),
            Self::Run(cursor) => cursor.page().to_entry().expect("source is not exhausted"),
        }
    }
}

/// Sentinel runner-up index: no live contender besides the winner.
const NO_CONTENDER: usize = usize::MAX;

/// A tournament tree of losers over `k` sources.
///
/// The tree stores source *indices* only and compares the sources' current
/// keys where they lie, so nothing moves in or out of it as the merge
/// advances. Classic k-way merge structures pay `O(log k)` heap pops/pushes
/// per entry. The loser tree replays only the winner's root path (`log k`
/// comparisons), and — the case that dominates real merges, where one
/// input run supplies a long stretch of consecutive keys — a *run
/// detection* fast path keeps the same source winning with **one**
/// comparison per entry: after each replay the tree remembers the
/// runner-up (the best head among the losers on the winner's path); as
/// long as the winner's next entry still beats that runner-up, every
/// internal node's loser is unchanged and no replay is needed.
///
/// Ordering is internal order plus a source-index tiebreak — (key asc,
/// seq desc, source asc) — so the merge is fully deterministic.
/// Exhausted sources (and the leaves padding `k` to a power of two) sort
/// last.
struct LoserTree {
    /// `losers[1..p]`: the losing leaf of the match played at each
    /// internal node. `losers[0]` is unused.
    losers: Vec<usize>,
    /// Leaf count padded to a power of two.
    p: usize,
    /// Leaf holding the overall winner.
    winner: usize,
    /// Best leaf among the losers on the winner's path (the head the
    /// winner must beat to keep its crown without a replay).
    runner_up: usize,
    /// The runner-up is an older version of the winner's key.
    tie: bool,
}

#[inline]
fn head(sources: &[Source], leaf: usize) -> Option<(&[u8], u64)> {
    sources.get(leaf).and_then(Source::head)
}

/// Plays leaf `a`'s head against leaf `b`'s in internal order: whether `a`
/// wins, and whether the two are versions of one key.
#[inline]
fn play(sources: &[Source], a: usize, b: usize) -> (bool, bool) {
    match (head(sources, a), head(sources, b)) {
        (Some((ka, sa)), Some((kb, sb))) => match ka.cmp(kb) {
            Ordering::Less => (true, false),
            Ordering::Greater => (false, false),
            Ordering::Equal => (sa > sb || (sa == sb && a < b), true),
        },
        (Some(_), None) => (true, false),
        (None, Some(_)) => (false, false),
        (None, None) => (a < b, false),
    }
}

impl LoserTree {
    fn new(sources: &[Source]) -> Self {
        let p = sources.len().next_power_of_two();
        let mut tree = Self {
            losers: vec![0; p],
            p,
            winner: 0,
            runner_up: NO_CONTENDER,
            tie: false,
        };
        tree.winner = tree.build(sources, 1);
        tree.find_runner_up(sources);
        tree.tie = tree.runner_up != NO_CONTENDER && play(sources, tree.winner, tree.runner_up).1;
        tree
    }

    /// Plays the tournament of the subtree under `node` (initial build),
    /// returning its winning leaf.
    fn build(&mut self, sources: &[Source], node: usize) -> usize {
        if node >= self.p {
            return node - self.p;
        }
        let (a, b) = (
            self.build(sources, 2 * node),
            self.build(sources, 2 * node + 1),
        );
        let (win, lose) = if play(sources, a, b).0 {
            (a, b)
        } else {
            (b, a)
        };
        self.losers[node] = lose;
        win
    }

    fn find_runner_up(&mut self, sources: &[Source]) {
        let mut node = (self.winner + self.p) >> 1;
        let mut best = NO_CONTENDER;
        while node >= 1 {
            let cand = self.losers[node];
            if best == NO_CONTENDER || play(sources, cand, best).0 {
                best = cand;
            }
            node >>= 1;
        }
        self.runner_up = best;
    }

    /// Restores the tournament invariant after the winner's source moved
    /// on — by the 1-match fast path when the source is still winning, by
    /// a root-path replay otherwise.
    fn refill(&mut self, sources: &[Source]) {
        let (moved, rival) = (self.winner, self.runner_up);
        if rival == NO_CONTENDER {
            return; // sole contender: nothing can outrank it
        }
        let (wins, tie) = play(sources, moved, rival);
        if wins {
            self.tie = tie; // run detected: same source keeps winning
            return;
        }
        // Replay the path; the match against the rival is already played.
        let mut winner = moved;
        let mut node = (winner + self.p) >> 1;
        while node >= 1 {
            let loser = self.losers[node];
            if (winner == moved && loser == rival) || play(sources, loser, winner).0 {
                self.losers[node] = winner;
                winner = loser;
            }
            node >>= 1;
        }
        self.winner = winner;
        self.find_runner_up(sources);
        self.tie = if (winner, self.runner_up) == (rival, moved) {
            tie // the same two, the other way round
        } else {
            play(sources, winner, self.runner_up).1
        };
    }
}

/// Merges any number of sorted [`Source`]s through a [`LoserTree`],
/// yielding only the newest version (highest sequence number) of each key;
/// older versions are stepped over.
///
/// Deduplication clones no key. Versions of one key come out adjacent,
/// newest first, and each source holds at most one of them, so the only
/// entry that can be a superseded version of the winner is the tree's
/// runner-up: the match the tree plays between those two anyway, while
/// both keys lie in place, also tells whether the next winner is
/// superseded.
///
/// An I/O error while stepping a source does not cut the merge short: the
/// entries the other sources are positioned on (already in memory) drain
/// first, with no further reads, then the error surfaces, then the merge
/// is over.
pub struct MergingIter {
    sources: Vec<Source>,
    tree: LoserTree,
    /// The current winner is an older version of the previous one's key.
    superseded: bool,
    failed: bool,
    pending_err: Option<LsmError>,
    /// Sources, from the first, whose yielded entries are counted.
    young: usize,
    /// Entries yielded from those sources.
    young_keys: u64,
}

impl MergingIter {
    /// Creates a merge over `sources`; ties between equal versions go to
    /// the earlier source.
    pub fn new(sources: Vec<Source>) -> Self {
        Self::counting(sources, 0)
    }

    /// A merge that also counts the entries it yields from the first
    /// `young` of `sources` ([`young_keys`](Self::young_keys)).
    pub(crate) fn counting(mut sources: Vec<Source>, young: usize) -> Self {
        let young = sources[..young].iter().filter(|s| !s.exhausted()).count();
        // Exhausted sources cannot win or tie: leave them out of the tree.
        sources.retain(|source| !source.exhausted());
        Self {
            tree: LoserTree::new(&sources),
            sources,
            superseded: false,
            failed: false,
            pending_err: None,
            young,
            young_keys: 0,
        }
    }

    /// Entries yielded so far whose newest version came from the young
    /// sources [`counting`](Self::counting) named: with sources youngest
    /// first, the keys those sources hold between them.
    pub(crate) fn young_keys(&self) -> u64 {
        self.young_keys
    }

    /// Steps to the next surviving entry and shows it to `visit` where it
    /// lies — [`EntryView::entry`] borrows it, [`EntryView::to_entry`] owns
    /// it — before its source moves on. Returns what `visit` made of it.
    #[inline]
    pub fn next_with<T>(&mut self, visit: impl FnOnce(&Source) -> T) -> Option<Result<T>> {
        loop {
            if self.failed {
                return None;
            }
            let winner = self.tree.winner;
            if self.sources.get(winner).is_none_or(Source::exhausted) {
                self.failed = true;
                return self.pending_err.take().map(Err);
            }
            if !std::mem::replace(&mut self.superseded, self.tree.tie) {
                self.young_keys += u64::from(winner < self.young);
                let seen = visit(&self.sources[winner]);
                self.step(winner);
                return Some(Ok(seen));
            }
            self.step(winner);
        }
    }

    /// Moves the winner's source on and replays the tree.
    fn step(&mut self, winner: usize) {
        // After an error, stop reading: what the sources are positioned on
        // drains first, then the error surfaces.
        let source = &mut self.sources[winner];
        if self.pending_err.is_some() {
            source.close();
        } else if let Err(e) = source.advance() {
            self.pending_err = Some(e); // the failed source is exhausted
        }
        self.tree.refill(&self.sources);
    }
}

/// The merge as owned entries — for consumers that must keep them (a test
/// holding the sequence to an oracle).
impl Iterator for MergingIter {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_with(EntryView::to_entry)
    }
}

/// A range-scan cursor over the whole tree, produced by
/// [`Db::range`](crate::Db::range). Yields live `(key, value)` pairs in key
/// order; tombstones and superseded versions are resolved internally.
pub struct RangeIter {
    source: RangeSource,
    hi: Option<Bytes>,
    done: bool,
    // Range latency is recorded when the cursor is dropped, so the
    // histogram covers the whole scan, not just cursor construction.
    timer: Option<(
        std::sync::Arc<monkey_obs::Telemetry>,
        Option<std::time::Instant>,
    )>,
}

/// Where a range cursor's pairs come from.
enum RangeSource {
    /// One engine's k-way merge over its memtables and runs.
    Merged(MergingIter),
    /// Fan-out across per-shard cursors whose keyspaces are disjoint: each
    /// step yields the minimum head key. The children resolve their own
    /// tombstones and upper bounds.
    Shards {
        children: Vec<RangeIter>,
        heads: Vec<Option<(Bytes, Bytes)>>,
    },
}

impl RangeIter {
    pub(crate) fn new(inner: MergingIter, hi: Option<Bytes>) -> Self {
        Self {
            source: RangeSource::Merged(inner),
            hi,
            done: false,
            timer: None,
        }
    }

    /// Merges per-shard cursors into one globally-sorted cursor. Because
    /// the shard router partitions by key, the children's keyspaces are
    /// disjoint — no deduplication is needed, only a min-head merge. A
    /// store of one shard gets that shard's cursor back as it is: there is
    /// nothing to merge it with, and nothing is allocated to find that out.
    pub(crate) fn fanout(
        mut children: impl ExactSizeIterator<Item = Result<RangeIter>>,
    ) -> Result<Self> {
        if children.len() == 1 {
            return children.next().expect("one child");
        }
        let mut children = children.collect::<Result<Vec<_>>>()?;
        let mut heads = Vec::with_capacity(children.len());
        for child in children.iter_mut() {
            heads.push(child.next().transpose()?);
        }
        Ok(Self {
            source: RangeSource::Shards { children, heads },
            hi: None,
            done: false,
            timer: None,
        })
    }

    /// Attaches a telemetry hub and the scan's (sampled) start instant.
    /// When the cursor is dropped the hub gets the scan's latency sample —
    /// so it is attached to the cursor the caller holds, never to a
    /// shard's child.
    pub(crate) fn with_telemetry(
        mut self,
        timer: Option<(
            std::sync::Arc<monkey_obs::Telemetry>,
            Option<std::time::Instant>,
        )>,
    ) -> Self {
        self.timer = timer;
        self
    }
}

impl Drop for RangeIter {
    fn drop(&mut self) {
        if let Some((telemetry, started)) = self.timer.take() {
            telemetry.op_end(monkey_obs::OpKind::Range, started);
        }
    }
}

impl Iterator for RangeIter {
    type Item = Result<(Bytes, Bytes)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let inner = match &mut self.source {
            RangeSource::Merged(inner) => inner,
            RangeSource::Shards { children, heads } => {
                // Minimum head key across the live children wins; disjoint
                // keyspaces mean ties are impossible.
                let min = heads
                    .iter()
                    .enumerate()
                    .filter_map(|(i, h)| h.as_ref().map(|(k, _)| (i, k)))
                    .min_by(|a, b| a.1.cmp(b.1))
                    .map(|(i, _)| i)?;
                let pair = heads[min].take().expect("min head is live");
                match children[min].next().transpose() {
                    Ok(head) => heads[min] = head,
                    Err(e) => {
                        self.done = true;
                        return Some(Err(e));
                    }
                }
                return Some(Ok(pair));
            }
        };
        /// What one merged entry means to the scan.
        enum Seen {
            PastHi,
            Deleted,
            Live(Entry),
        }
        let hi = self.hi.as_deref();
        loop {
            // Bounds and tombstones are judged on the borrowed entry; only
            // a pair that goes to the caller is sliced out of its page.
            let seen = inner.next_with(|source| {
                let entry = source.entry();
                if hi.is_some_and(|hi| entry.key >= hi) {
                    Seen::PastHi
                } else if entry.is_tombstone() {
                    Seen::Deleted // deleted key: invisible to scans
                } else {
                    Seen::Live(source.to_entry_below(hi))
                }
            });
            let entry = match seen? {
                Ok(Seen::Live(entry)) => entry,
                Ok(Seen::Deleted) => continue,
                Ok(Seen::PastHi) => {
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            };
            return Some(Ok((entry.key, entry.value)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(entries: Vec<Entry>) -> Source {
        entries.into()
    }

    fn put(k: &str, v: &str, seq: u64) -> Entry {
        Entry::put(k.as_bytes().to_vec(), v.as_bytes().to_vec(), seq)
    }

    fn pairs(it: MergingIter) -> Vec<(String, String)> {
        it.map(|e| {
            let e = e.unwrap();
            (
                String::from_utf8(e.key.to_vec()).unwrap(),
                String::from_utf8(e.value.to_vec()).unwrap(),
            )
        })
        .collect()
    }

    #[test]
    fn merges_in_key_order() {
        let it = MergingIter::new(vec![
            src(vec![put("a", "1", 1), put("c", "3", 3)]),
            src(vec![put("b", "2", 2), put("d", "4", 4)]),
        ]);
        let keys: Vec<String> = pairs(it).into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn dedup_keeps_newest_version() {
        // The newer version wins whichever source holds it.
        for newer_first in [true, false] {
            let mut sources = vec![
                src(vec![put("k", "new", 10)]),
                src(vec![put("k", "old", 5)]),
            ];
            if !newer_first {
                sources.reverse();
            }
            let got: Vec<Entry> = MergingIter::new(sources).map(|e| e.unwrap()).collect();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].value.as_ref(), b"new");
        }
    }

    #[test]
    fn equal_versions_tie_break_to_the_earlier_source() {
        let it = MergingIter::new(vec![
            src(vec![put("k", "first", 7)]),
            src(vec![put("k", "second", 7)]),
        ]);
        assert_eq!(pairs(it), vec![("k".into(), "first".into())]);
    }

    #[test]
    fn dedup_across_three_sources() {
        let it = MergingIter::new(vec![
            src(vec![put("a", "a2", 20), put("b", "b1", 11)]),
            src(vec![put("a", "a1", 10), put("c", "c1", 12)]),
            src(vec![put("a", "a0", 1), put("b", "b0", 2)]),
        ]);
        assert_eq!(
            pairs(it),
            vec![
                ("a".into(), "a2".into()),
                ("b".into(), "b1".into()),
                ("c".into(), "c1".into())
            ]
        );
    }

    #[test]
    fn a_key_in_every_source_survives_once_at_every_width() {
        // Chains of superseded versions longer than the tree is deep, at
        // source counts on both sides of each power of two.
        for k in 1..=9usize {
            let sources = (0..k)
                .map(|s| {
                    src(vec![
                        put("dup", &format!("v{s}"), (k - s) as u64),
                        put(&format!("own{s}"), "x", 100),
                    ])
                })
                .collect();
            let got = pairs(MergingIter::new(sources));
            assert_eq!(got.len(), k + 1, "{k} sources");
            assert_eq!(got[0], ("dup".into(), "v0".into()), "{k} sources");
        }
    }

    #[test]
    fn empty_sources_are_fine() {
        assert_eq!(MergingIter::new(vec![src(vec![]), src(vec![])]).count(), 0);
        assert_eq!(MergingIter::new(vec![]).count(), 0);
        let it = MergingIter::new(vec![src(vec![]), src(vec![put("a", "1", 1)])]);
        assert_eq!(it.count(), 1);
    }

    #[test]
    fn range_iter_hides_tombstones_and_respects_bound() {
        let inner = MergingIter::new(vec![src(vec![
            put("a", "1", 1),
            Entry::tombstone(b"b".to_vec(), 2),
            put("c", "3", 3),
            put("d", "4", 4),
        ])]);
        let it = RangeIter::new(inner, Some(Bytes::from_static(b"d")));
        let keys: Vec<String> = it
            .map(|kv| String::from_utf8(kv.unwrap().0.to_vec()).unwrap())
            .collect();
        assert_eq!(keys, vec!["a", "c"], "b deleted, d excluded");
    }

    #[test]
    fn error_from_source_drains_positioned_entries_then_surfaces_and_fuses() {
        use monkey_storage::{Disk, FaultKind, FlakyBackend, MemFs};
        let backend = FlakyBackend::new(MemFs::new(), FaultKind::Reads);
        let disk = Disk::file_on(backend.clone(), "runs", 64, None).unwrap();
        // 3 header bytes, 2 of key, 16 of value and a 2-byte offset: two
        // entries fill 46 of the 54 bytes after the page header, a third
        // would not fit.
        let entries: Vec<Entry> = (0..6)
            .map(|i| put(&format!("k{i}"), &"v".repeat(16), i))
            .collect();
        let run = crate::compaction::build_run_from_sorted(&disk, entries, false, 1, 10.0)
            .unwrap()
            .unwrap();
        assert_eq!(run.pages(), 3, "two entries a page");
        let cursor = run.scan_from(b"", None).unwrap(); // page 0 is read here
        backend.arm(0);
        let mut it = MergingIter::new(vec![cursor.into(), src(vec![put("k1x", "mem", 9)])]);
        let mut next_key = || it.next().map(|e| e.map(|e| e.key.to_vec()));
        assert_eq!(next_key().unwrap().unwrap(), b"k0");
        // Stepping past k1 hits the dead disk; k1 itself was already read,
        // and so was the other source's head, which drains before the error.
        assert_eq!(next_key().unwrap().unwrap(), b"k1");
        assert_eq!(next_key().unwrap().unwrap(), b"k1x");
        assert!(next_key().unwrap().is_err());
        assert!(next_key().is_none(), "iterator fuses after error");
        assert_eq!(backend.injected(), 1, "no reads after the failure");
    }
}
