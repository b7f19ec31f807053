//! Immutable sorted runs with fence pointers and a Bloom filter.
//!
//! A run is the paper's "sorted array flushed to secondary storage" (§2):
//! entries packed into fixed-size pages, plus two in-memory structures:
//!
//! * **fence pointers** — a separator key for every page, kept together in
//!   one contiguous [`FenceIndex`], so a point lookup finds the single page
//!   that can contain its key with an in-memory binary search and reads it
//!   with **one** I/O;
//! * a **Bloom filter** over the run's keys, whose size is the knob Monkey
//!   turns. A run built with zero filter bits carries the degenerate
//!   always-positive filter (an "unfiltered" level in the paper's terms).
//!
//! A run owns a handle to its [`Disk`] and its storage lifetime: when a
//! merge supersedes a run, the engine marks it *obsolete* and the
//! underlying pages are reclaimed once the last reference (e.g. an open
//! range cursor) drops.

use crate::entry::{EntryView, Hit};
use crate::error::{LsmError, Result};
use crate::page::{self, PageBuilder, PageCursor};
use bytes::Bytes;
use monkey_bloom::{hash_pair, Filter, FilterVariant, HashPair};
use monkey_storage::{Disk, RunId};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How to build a run's filter: the bits-per-entry budget (the knob Monkey
/// turns) plus the layout variant. `From<f64>` keeps the common
/// standard-layout call sites at `finish(10.0)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterParams {
    /// Bits per entry; `<= 0` builds the degenerate always-positive filter.
    pub bits_per_entry: f64,
    /// Filter layout.
    pub variant: FilterVariant,
}

impl FilterParams {
    /// Parameters for `bits_per_entry` bits in the given layout.
    pub fn new(bits_per_entry: f64, variant: FilterVariant) -> Self {
        Self {
            bits_per_entry,
            variant,
        }
    }
}

impl From<f64> for FilterParams {
    fn from(bits_per_entry: f64) -> Self {
        Self {
            bits_per_entry,
            variant: FilterVariant::Standard,
        }
    }
}

/// What happened while probing one run during a point lookup. The engine
/// aggregates these into its per-database lookup counters.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLookup {
    /// The newest version found in this run (may be a tombstone).
    pub entry: Option<Hit>,
    /// A non-degenerate filter was actually probed.
    pub probed_filter: bool,
    /// The filter reported a definite negative (so no I/O happened).
    pub filter_negative: bool,
    /// A page was read.
    pub page_read: bool,
}

impl RunLookup {
    /// A rejection before any filter probe or I/O (key outside the run's
    /// fence range).
    fn out_of_range() -> Self {
        Self {
            entry: None,
            probed_filter: false,
            filter_negative: false,
            page_read: false,
        }
    }
}

/// Length of the shortest separator `S` with `prev < S <= next` (both
/// non-empty, `prev < next`): the shortest prefix of `next` that already
/// exceeds `prev`. Fences store separators instead of full keys, which shrinks
/// `M_pointers` when adjacent keys share long prefixes (LevelDB does the
/// same). Correctness: an existing key `k <= prev` satisfies `k < S`
/// (earlier pages) and `k >= next` satisfies `k >= S` (this page).
fn shortest_separator(prev: &[u8], next: &[u8]) -> usize {
    debug_assert!(prev < next);
    for i in 0..next.len() {
        if i >= prev.len() || next[i] > prev[i] {
            return i + 1;
        }
        debug_assert_eq!(next[i], prev[i], "keys must be sorted");
    }
    next.len()
}

/// The fence pointers of a run: one key per page, in page order, packed
/// into a single arena with their end offsets beside it. The index owns
/// its bytes — a fence is copied out of the page its key was read from, so
/// it pins nothing — and a search walks two contiguous arrays.
///
/// Fence 0 is the run's smallest key in full; every later fence is the
/// shortest separator between the previous page's last key and the page's
/// first. [`RunBuilder`] and [`recover_run`] both build the index through
/// [`push`](Self::push), so a run's fences — and the `M_pointers` they are
/// priced at — are the same before and after a reopen.
#[derive(Default)]
pub(crate) struct FenceIndex {
    /// The fence keys, back to back.
    keys: Vec<u8>,
    /// `ends[i]` is where fence `i` ends in `keys` (and fence `i + 1`
    /// starts).
    ends: Vec<u32>,
}

impl FenceIndex {
    /// Appends the fence of the next page, whose first key is `first_key`
    /// and whose predecessor page ends with `prev_page_last` (ignored for
    /// page 0).
    fn push(&mut self, prev_page_last: &[u8], first_key: &[u8]) -> Result<()> {
        let len = if self.ends.is_empty() {
            first_key.len()
        } else {
            shortest_separator(prev_page_last, first_key)
        };
        let end = u32::try_from(self.keys.len() + len).map_err(|_| {
            LsmError::Io(std::io::Error::new(
                std::io::ErrorKind::FileTooLarge,
                "a run's fence keys exceed 4 GiB",
            ))
        })?;
        self.keys.extend_from_slice(&first_key[..len]);
        self.ends.push(end);
        Ok(())
    }

    /// Gives back what growing the index over-reserved: from here on it
    /// only gets searched.
    fn seal(&mut self) {
        self.keys.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Number of fences (pages).
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Fence `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.keys[start..self.ends[i] as usize]
    }

    /// The fences in page order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Number of leading fences for which `pred` holds (`pred` must hold
    /// for a prefix of the fences, as for `slice::partition_point`).
    #[inline]
    pub(crate) fn partition_point(&self, pred: impl Fn(&[u8]) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.get(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Bytes of heap the index holds.
    fn heap_bytes(&self) -> usize {
        self.keys.capacity() + self.ends.capacity() * std::mem::size_of::<u32>()
    }
}

/// An immutable sorted run.
pub struct Run {
    disk: Arc<Disk>,
    id: RunId,
    entries: u64,
    tombstones: u64,
    pages: u32,
    /// One fence per page; fence 0 is the run's min key. Like `max_key`,
    /// it owns its bytes: no field of a run may slice a page, or the page's
    /// frame would live as long as the run.
    fences: FenceIndex,
    max_key: Bytes,
    filter: Filter,
    /// Total encoded payload bytes (drives level capacity checks).
    bytes: u64,
    /// Bits-per-entry the filter was built with (recorded in the manifest
    /// so recovery reproduces the allocation exactly).
    filter_bpe: f64,
    /// Encoded size of the run's smallest entry.
    min_entry_bytes: u64,
    /// The run that sat below this one when it was built, and how many of
    /// this run's keys its filter rejected (see
    /// [`novel_below`](Self::novel_below)).
    novel_below: Option<(RunId, u64)>,
    /// Set when a merge supersedes this run; storage is reclaimed on drop.
    obsolete: AtomicBool,
}

impl Run {
    /// The run's storage id.
    pub fn id(&self) -> RunId {
        self.id
    }

    /// Number of entries (tombstones included).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Number of tombstones among the entries.
    pub fn tombstones(&self) -> u64 {
        self.tombstones
    }

    /// Number of pages.
    pub fn pages(&self) -> u32 {
        self.pages
    }

    /// Encoded payload size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Smallest key in the run.
    pub fn min_key(&self) -> &[u8] {
        self.fences.get(0)
    }

    /// Largest key in the run.
    pub fn max_key(&self) -> &Bytes {
        &self.max_key
    }

    /// The run's Bloom filter.
    pub fn filter(&self) -> &Filter {
        &self.filter
    }

    /// Bits-per-entry the filter was built with.
    pub fn filter_bits_per_entry(&self) -> f64 {
        self.filter_bpe
    }

    /// The layout variant of the run's filter.
    pub fn filter_variant(&self) -> FilterVariant {
        self.filter.variant()
    }

    /// Encoded size of the run's smallest entry: any run its entries are
    /// merged into holds at least this many bytes per entry it keeps of
    /// it.
    pub fn min_entry_bytes(&self) -> u64 {
        self.min_entry_bytes
    }

    /// How many of this run's keys `below`'s filter rejected, counted when
    /// this run was built with `below` directly under it — keys `below`
    /// certainly does not hold, since a filter has no false negatives. Zero
    /// when the run was not counted against `below`: another run sat there,
    /// none did, or the run was recovered.
    pub fn novel_below(&self, below: &Run) -> u64 {
        match self.novel_below {
            Some((id, novel)) if id == below.id => novel,
            _ => 0,
        }
    }

    /// Carries `built`'s count of novel keys over to this run, a rebuild of
    /// the same pages: the count describes the key set, which a filter
    /// rebuild does not change.
    pub(crate) fn keeping_novel_count_of(mut self, built: &Run) -> Self {
        debug_assert_eq!(self.id, built.id);
        self.novel_below = built.novel_below;
        self
    }

    /// Main-memory footprint of the fence pointers in bits (key bytes plus
    /// a pointer-sized slot per page) — `M_pointers` in the paper. An upper
    /// bound on what the index really holds, see
    /// [`fence_heap_bytes`](Self::fence_heap_bytes).
    pub fn fence_memory_bits(&self) -> u64 {
        let slots = self.fences.len() * std::mem::size_of::<usize>();
        (self.fences.keys.len() + slots) as u64 * 8
    }

    /// Bytes of heap the fence index actually occupies.
    pub fn fence_heap_bytes(&self) -> usize {
        self.fences.heap_bytes()
    }

    /// Marks the run superseded: its pages are deleted when the last
    /// reference drops (open cursors keep it readable until then).
    pub fn mark_obsolete(&self) {
        self.obsolete.store(true, Ordering::Release);
    }

    /// The fence of every page.
    #[cfg(test)]
    pub(crate) fn fences(&self) -> &FenceIndex {
        &self.fences
    }

    /// Whether `key` lies inside the run's key range: two key
    /// comparisons, no search.
    #[inline]
    fn covers(&self, key: &[u8]) -> bool {
        self.fences.get(0) <= key && key <= self.max_key.as_ref()
    }

    /// The page that may contain `key`, or `None` when `key` is outside the
    /// run's key range (no I/O needed at all in that case).
    pub fn page_for(&self, key: &[u8]) -> Option<u32> {
        self.covers(key).then(|| self.page_in_range(key))
    }

    /// The last page whose fence is `<= key`, for a `key` the run covers.
    #[inline]
    fn page_in_range(&self, key: &[u8]) -> u32 {
        (self.fences.partition_point(|f| f <= key) - 1) as u32
    }

    /// Point lookup: range check, Bloom filter, fence search, then at most
    /// one page read. Returns the newest version in this run, which may be
    /// a tombstone.
    ///
    /// Hashes the key itself; the engine's lookup path uses
    /// [`get_hashed`](Self::get_hashed) so one hash serves every run.
    pub fn get(&self, key: &[u8]) -> Result<Option<Hit>> {
        Ok(self.get_hashed(key, hash_pair(key))?.entry)
    }

    /// Point lookup with a pre-computed hash pair, reporting what happened
    /// for the engine's lookup accounting.
    ///
    /// The steps run in the order of what they cost, as the paper prices a
    /// zero-result lookup (`R = Σ FPR_i`: a filter probe per run, a page
    /// only on a positive):
    ///
    /// 1. the key range — two in-memory key comparisons, so an out-of-range
    ///    key never pays for the filter's `k` bit lookups;
    /// 2. the filter — a negative ends the lookup with no fence search and
    ///    no I/O;
    /// 3. the fence binary search for the one page that can hold the key;
    /// 4. that page's read — checksummed by the disk if it came from the
    ///    backend, not re-checked if it came from the cache — and a search
    ///    of it in place ([`page::search`]), which positions no cursor.
    pub fn get_hashed(&self, key: &[u8], pair: HashPair) -> Result<RunLookup> {
        if !self.covers(key) {
            return Ok(RunLookup::out_of_range());
        }
        let probed_filter = self.filter.nbits() > 0;
        if probed_filter && !self.filter.contains_hashed(pair) {
            return Ok(RunLookup {
                entry: None,
                probed_filter,
                filter_negative: true,
                page_read: false,
            });
        }
        // The single I/O, then a search of the page in place: the value
        // found is a slice of the page, no key is copied and nothing is
        // allocated.
        let page = self.disk.read_page(self.id, self.page_in_range(key))?;
        Ok(RunLookup {
            entry: page::search(page, key)?,
            probed_filter,
            filter_negative: false,
            page_read: true,
        })
    }

    /// Opens a scan cursor over `[lo, hi)` (`hi = None` scans to the end),
    /// on the first entry with key `>= lo`: the fence pointers pick the
    /// page `lo` is on and a search of it the entry, and the cursor stops
    /// before the first page whose fence is not below `hi` — that page
    /// starts at or past `hi`. `lo` past the run's last key, or `hi` at or
    /// below its first, costs no I/O. A bounded scan declares the pages up
    /// to that fence and reads them in extents; a scan to the end declares
    /// none and reads one page at a time (see [`RunCursor`]).
    pub fn scan_from(self: &Arc<Self>, lo: &[u8], hi: Option<&[u8]>) -> Result<RunCursor> {
        let start = if lo > self.max_key.as_ref() {
            self.pages
        } else {
            // Last page whose fence is <= lo; page 0 when lo precedes the
            // run.
            (self.fences.partition_point(|f| f <= lo) as u32).saturating_sub(1)
        };
        let end = hi.map_or(self.pages, |hi| {
            self.fences.partition_point(|f| f < hi) as u32
        });
        RunCursor::open(self, start..end, hi.is_some(), Some(lo))
    }

    /// Opens a cursor over every page of the run for a merge, which it
    /// declares: they are read in extents, after one seek, so a merge
    /// counts a seek per input run and a read per input page.
    pub(crate) fn merge_pages(self: &Arc<Self>) -> Result<RunCursor> {
        RunCursor::open(self, 0..self.pages, true, None)
    }

    /// A run known by its file alone — no fences, no keys, an
    /// always-positive filter — to read its pages through before anything
    /// else about it is known ([`recover_run`]).
    fn file(disk: &Arc<Disk>, id: RunId, pages: u32) -> Self {
        Self {
            disk: Arc::clone(disk),
            id,
            entries: 0,
            tombstones: 0,
            pages,
            fences: FenceIndex::default(),
            max_key: Bytes::new(),
            filter: Filter::with_bits_per_entry(FilterVariant::Standard, 0, 0.0),
            bytes: 0,
            filter_bpe: 0.0,
            min_entry_bytes: 0,
            novel_below: None,
            obsolete: AtomicBool::new(false),
        }
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        if self.obsolete.load(Ordering::Acquire) {
            let _ = self.disk.delete_run(self.id);
        }
    }
}

impl std::fmt::Debug for Run {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Run")
            .field("id", &self.id)
            .field("entries", &self.entries)
            .field("pages", &self.pages)
            .field("bytes", &self.bytes)
            .field("filter_bits", &self.filter.nbits())
            .finish()
    }
}

/// Streaming builder: feed entries in internal order, get a sealed [`Run`].
///
/// Entries arrive as [`EntryView`]s and are copied once, from the borrowed
/// view into the output page; the builder copies a key only where it must
/// outlive its page — each page's fence (into the [`FenceIndex`]), the
/// last key of each flushed page (for the next fence's separator) and the
/// run's max key at [`finish`](Self::finish).
///
/// Finished pages gather in one [`WRITE_EXTENT_BYTES`] buffer and leave in
/// extents, one backend write each. The buffer is the builder's, not the
/// [`RunWriter`](monkey_storage::RunWriter)'s: the writer keeps the
/// storage layer's contract that an appended page is readable at once,
/// and nobody reads a run under construction here before it is sealed.
pub struct RunBuilder {
    disk: Arc<Disk>,
    writer: Option<monkey_storage::RunWriter>,
    page: PageBuilder,
    /// Finished pages not yet handed to the writer, back to back. Flushed
    /// before it would outgrow the capacity it was allocated with.
    extent: Vec<u8>,
    fences: FenceIndex,
    /// Hash pair of every key, computed once at push time; sealing inserts
    /// these into the filter without re-hashing (and without keeping the
    /// key bytes alive).
    key_hashes: KeyHashes,
    entries: u64,
    tombstones: u64,
    bytes: u64,
    min_entry_bytes: u64,
    /// Last key of the most recently flushed page (for fence separators).
    prev_page_last: Vec<u8>,
}

impl RunBuilder {
    /// Starts building a run on `disk`.
    pub fn new(disk: Arc<Disk>) -> Self {
        Self::with_entries(disk, 0)
    }

    /// Starts building a run of at most `expected_entries` entries: room
    /// for the key hashes feeding the filter is reserved up front, up to
    /// one [`KEY_HASH_CHUNK`]. Attaches [`page::check`] to `disk`: a disk
    /// a run was built on checks every page it reads.
    pub fn with_entries(disk: Arc<Disk>, expected_entries: usize) -> Self {
        disk.attach_page_check(page::check);
        let page_size = disk.page_size();
        let extent_pages = (WRITE_EXTENT_BYTES / page_size).max(1);
        Self {
            writer: Some(disk.begin_run()),
            disk,
            page: PageBuilder::new(page_size),
            extent: Vec::with_capacity(extent_pages * page_size),
            fences: FenceIndex::default(),
            key_hashes: KeyHashes::with_entries(expected_entries),
            entries: 0,
            tombstones: 0,
            bytes: 0,
            min_entry_bytes: u64::MAX,
            prev_page_last: Vec::new(),
        }
    }

    /// Appends the next entry. Entries must arrive in strictly increasing
    /// key order with duplicate keys already resolved (one version per key).
    pub fn push(&mut self, view: &impl EntryView) -> Result<()> {
        let entry = view.entry();
        let mut first_in_page = self.page.is_empty();
        debug_assert!(
            first_in_page || entry.key > self.page.last_key(),
            "entries must be pushed in strictly increasing key order"
        );
        if !self.page.try_push(entry)? {
            self.flush_page()?;
            self.page.push(entry)?;
            first_in_page = true;
        }
        if first_in_page {
            self.fences.push(&self.prev_page_last, entry.key)?;
        }
        let bytes = entry.encoded_len() as u64;
        self.bytes += bytes;
        self.min_entry_bytes = self.min_entry_bytes.min(bytes);
        self.entries += 1;
        if entry.is_tombstone() {
            self.tombstones += 1;
        }
        self.key_hashes.push(hash_pair(entry.key));
        Ok(())
    }

    fn flush_page(&mut self) -> Result<()> {
        self.prev_page_last.clear();
        self.prev_page_last.extend_from_slice(self.page.last_key());
        if self.extent.len() + self.disk.page_size() > self.extent.capacity() {
            self.flush_extent()?;
        }
        self.extent.extend_from_slice(self.page.finish());
        Ok(())
    }

    /// Hands the gathered pages to the writer as one extent.
    fn flush_extent(&mut self) -> Result<()> {
        self.writer
            .as_mut()
            .expect("writer live until finish")
            .append(&self.extent)?;
        self.extent.clear();
        Ok(())
    }

    /// Entries pushed so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// The storage id the run under construction will carry — available
    /// before [`finish`](Self::finish), so callers can pre-register the run
    /// (e.g. tag its destination level for per-level I/O attribution before
    /// any of the build's own page writes happen).
    pub fn run_id(&self) -> RunId {
        self.writer.as_ref().expect("writer live until finish").id()
    }

    /// Seals the run, building its filter per `params` — a bare `f64` means
    /// that many bits per entry in the standard layout. Returns `None` for
    /// an empty builder: empty runs do not exist in the tree.
    pub fn finish(self, params: impl Into<FilterParams>) -> Result<Option<Run>> {
        self.finish_over(params, None)
    }

    /// [`finish`](Self::finish) for a run that lands directly above
    /// `below`: the run also counts its keys `below`'s filter rejects, from
    /// the key hashes it holds for its own filter (see
    /// [`Run::novel_below`]).
    pub(crate) fn finish_over(
        mut self,
        params: impl Into<FilterParams>,
        below: Option<&Run>,
    ) -> Result<Option<Run>> {
        let params = params.into();
        if self.entries == 0 {
            return Ok(None); // RunWriter drop cleans up storage
        }
        // Every push leaves its entry in the open page, so the run's last
        // key is still there.
        let max_key = Bytes::copy_from_slice(self.page.last_key());
        self.flush_page()?;
        self.flush_extent()?;
        let writer = self.writer.take().expect("writer live until finish");
        let pages = writer.pages_written();
        let id = writer.seal()?;
        let mut filter =
            Filter::with_bits_per_entry(params.variant, self.entries, params.bits_per_entry);
        let hashes = self.key_hashes.0.iter().flatten();
        for pair in hashes.clone() {
            filter.insert_hashed(*pair);
        }
        let novel_below = below.map(|below| {
            let rejected = hashes.filter(|&&pair| !below.filter.contains_hashed(pair));
            (below.id, rejected.count() as u64)
        });
        self.fences.seal();
        Ok(Some(Run {
            disk: self.disk.clone(),
            id,
            entries: self.entries,
            tombstones: self.tombstones,
            pages,
            fences: self.fences,
            max_key,
            filter,
            bytes: self.bytes,
            filter_bpe: params.bits_per_entry,
            min_entry_bytes: self.min_entry_bytes,
            novel_below,
            obsolete: AtomicBool::new(false),
        }))
    }
}

/// Key hashes per chunk of a [`KeyHashes`]: 1 MiB of them, which holds
/// every flush and level-1 merge in one chunk.
const KEY_HASH_CHUNK: usize = 1 << 16;

/// The hash pair of every key pushed, held until the seal knows the count
/// that sizes the filter — in equal chunks, not in one vector: a vector
/// doubling at 2 MiB holds the old and the new buffer at once unless the
/// allocator can extend it in place, and whether it can depends on what
/// else is on the heap at that moment (the ledger's `ingest` peaked at 18
/// or at 21 MiB from one run to the next). A chunk is never copied and a
/// freed one fits the next request exactly. Never empty.
struct KeyHashes(Vec<Vec<HashPair>>);

impl KeyHashes {
    fn with_entries(expected_entries: usize) -> Self {
        Self(vec![Vec::with_capacity(
            expected_entries.min(KEY_HASH_CHUNK),
        )])
    }

    fn push(&mut self, pair: HashPair) {
        if self.0.last().is_some_and(|c| c.len() == KEY_HASH_CHUNK) {
            self.0.push(Vec::with_capacity(KEY_HASH_CHUNK));
        }
        self.0.last_mut().expect("never empty").push(pair);
    }
}

/// Bytes of finished pages a [`RunBuilder`] gathers before it writes them.
/// A run's pages are certain to be written and nobody reads them before the
/// seal, so the only bound is memory — one buffer of this size per builder
/// — and at 4 KiB pages one write replaces 64.
pub(crate) const WRITE_EXTENT_BYTES: usize = 256 << 10;

/// The one page streamer: a cursor positioned on an entry of a run,
/// stepping through a range of its pages. User scans, whole-run merges
/// and recovery differ only in the page range, whether it is declared and
/// the optional lower bound.
///
/// The entry under the cursor is read through [`page`](Self::page),
/// borrowed from the page bytes; see [`PageCursor`].
///
/// The first page fetched costs a seek + read; every other page a
/// sequential read only, matching Eq. 11's range-lookup cost model.
///
/// Pages are fetched when the cursor runs dry and not before. A cursor
/// whose range is *declared* — a merge's, recovery's, a bounded scan's,
/// all of which decode every page of it — then reads the next stretch of
/// the range, one extent at most, in one positional read
/// ([`Disk::read_pages`]) and hands its pages out one at a time, as slices
/// of that read. A cursor whose range is not declared (a scan to the end
/// of the run, which its caller may drop at any entry) reads one page per
/// fetch, so it reads exactly the pages it decodes — one per run for a
/// scan dropped after its first entry. Either way a cursor reads no page
/// outside its range and holds one frame, a page's or an extent's. The
/// cursor pins its [`Run`], so a run superseded mid-scan stays readable
/// until the cursor drops.
pub struct RunCursor {
    run: Arc<Run>,
    /// The page under the cursor (spent or empty once exhausted).
    page: PageCursor,
    /// Pages read and not yet opened, back to back: the rest of the last
    /// fetch.
    fetched: Bytes,
    /// Number of the next page to open, up to `end`.
    next_page: u32,
    end: u32,
    /// Whether the range is declared: fetched in extents, not by the page.
    declared: bool,
    /// The next fetch pays the seek.
    seek: bool,
}

impl RunCursor {
    /// Opens a cursor over `pages` of `run`, positioned on the first entry
    /// with key `>= lo` (the first entry without `lo`). A `declared` range
    /// is fetched in extents.
    fn open(run: &Arc<Run>, pages: Range<u32>, declared: bool, lo: Option<&[u8]>) -> Result<Self> {
        let mut cursor = Self {
            run: Arc::clone(run),
            page: PageCursor::empty(),
            fetched: Bytes::new(),
            next_page: pages.start,
            end: pages.end.max(pages.start),
            declared,
            seek: true,
        };
        cursor.settle()?;
        if let Some(lo) = lo {
            // Once one key qualifies, the rest of the run does too; if the
            // first page holds none, the next page's first key does.
            cursor.page.seek(lo)?;
            while cursor.page.remaining() == 0 && cursor.next_page < cursor.end {
                cursor.settle()?;
                cursor.page.seek(lo)?;
            }
        }
        Ok(cursor)
    }

    /// The page cursor under this one, positioned on the current entry —
    /// [`key`](PageCursor::key), [`entry`](PageCursor::entry) and
    /// [`to_entry`](PageCursor::to_entry) read it; past the end
    /// ([`remaining`](PageCursor::remaining) zero) the range is exhausted.
    #[inline]
    pub fn page(&self) -> &PageCursor {
        &self.page
    }

    /// Number of the page under the cursor.
    fn page_no(&self) -> u32 {
        self.next_page - 1
    }

    /// Steps to the next entry, fetching the next page when this one runs
    /// dry. After an error the cursor is exhausted.
    pub fn advance(&mut self) -> Result<()> {
        let stepped = self.page.advance().and_then(|()| self.settle());
        if stepped.is_err() {
            self.close();
        }
        stepped
    }

    /// Exhausts the cursor, letting go of the frame it holds.
    pub(crate) fn close(&mut self) {
        self.page = PageCursor::empty();
        self.fetched = Bytes::new();
        self.next_page = self.end;
    }

    /// Leaves the cursor on an entry, or past the end of the range.
    fn settle(&mut self) -> Result<()> {
        while self.page.remaining() == 0 {
            let Some(page) = self.take_page()? else {
                return Ok(());
            };
            self.page.open(page)?;
        }
        Ok(())
    }

    /// The next page to decode, or `None` past the range's last one.
    fn take_page(&mut self) -> Result<Option<Bytes>> {
        if self.fetched.is_empty() {
            if self.next_page >= self.end {
                return Ok(None);
            }
            let upto = match self.declared {
                true => self.end,
                false => self.next_page + 1,
            };
            // The first fetch pays a seek; the rest are sequential.
            let seek = std::mem::replace(&mut self.seek, false);
            let (disk, id) = (&self.run.disk, self.run.id);
            self.fetched = disk.read_pages(id, self.next_page..upto, seek)?;
        }
        self.next_page += 1;
        let page_size = self.run.disk.page_size();
        if self.fetched.len() == page_size {
            // The last page of the fetch: the cursor keeps no other hold
            // on its frame.
            return Ok(Some(std::mem::take(&mut self.fetched)));
        }
        let page = self.fetched.slice(..page_size);
        self.fetched = self.fetched.slice(page_size..);
        Ok(Some(page))
    }
}

/// Rebuilds a [`Run`]'s in-memory metadata (fences, filter, counts) by
/// scanning its pages — used by recovery, where only the id and level of
/// each run survive in the manifest. Recovery does not know what sat below
/// the run when it was built, so the run counts no novel keys
/// ([`Run::novel_below`]). Attaches [`page::check`] to `disk` before the
/// first read, so a page corrupted at rest fails the recovery.
pub fn recover_run(disk: &Arc<Disk>, id: RunId, params: impl Into<FilterParams>) -> Result<Run> {
    disk.attach_page_check(page::check);
    let params = params.into();
    let pages = disk.run_pages(id)?;
    if pages == 0 {
        return Err(LsmError::Corruption(format!("run {id} has no pages")));
    }
    let mut fences = FenceIndex::default();
    let mut key_hashes = KeyHashes::with_entries(0);
    let mut entries = 0u64;
    let mut tombstones = 0u64;
    let mut bytes = 0u64;
    let mut min_entry_bytes = u64::MAX;
    // Last key of the most recently finished page: the next fence's
    // separator is cut against it, and at the end it is the run's max key.
    let mut page_last = Vec::new();
    let file = Arc::new(Run::file(disk, id, pages));
    let mut cursor = file.merge_pages()?;
    while let Some(e) = cursor.page.entry() {
        // The cursor steps over empty pages, which then never get a fence.
        if cursor.page_no() as usize == fences.len() {
            // A separator only exists between ascending keys.
            if fences.len() > 0 && e.key <= page_last.as_slice() {
                return Err(LsmError::Corruption(format!(
                    "run {id}: page {} starts at or below its predecessor's last key",
                    cursor.page_no()
                )));
            }
            fences.push(&page_last, e.key)?;
        }
        entries += 1;
        if e.is_tombstone() {
            tombstones += 1;
        }
        bytes += e.encoded_len() as u64;
        min_entry_bytes = min_entry_bytes.min(e.encoded_len() as u64);
        key_hashes.push(hash_pair(e.key));
        if cursor.page.remaining() == 1 {
            page_last.clear();
            page_last.extend_from_slice(e.key);
        }
        cursor.advance()?;
    }
    if fences.len() != pages as usize {
        return Err(LsmError::Corruption(format!("run {id} has an empty page")));
    }
    fences.seal();
    let mut filter = Filter::with_bits_per_entry(params.variant, entries, params.bits_per_entry);
    for pair in key_hashes.0.iter().flatten() {
        filter.insert_hashed(*pair);
    }
    Ok(Run {
        disk: Arc::clone(disk),
        id,
        entries,
        tombstones,
        pages,
        fences,
        max_key: Bytes::from(page_last),
        filter,
        bytes,
        filter_bpe: params.bits_per_entry,
        min_entry_bytes,
        novel_below: None,
        obsolete: AtomicBool::new(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Entry;

    fn build(disk: &Arc<Disk>, keys: &[&str], bpe: f64) -> Arc<Run> {
        let mut b = RunBuilder::new(Arc::clone(disk));
        for (i, k) in keys.iter().enumerate() {
            b.push(&Entry::put(
                k.as_bytes().to_vec(),
                format!("v{i}").into_bytes(),
                i as u64,
            ))
            .unwrap();
        }
        Arc::new(b.finish(bpe).unwrap().unwrap())
    }

    /// Everything from the cursor's position on, owned.
    fn drain(mut cursor: RunCursor) -> Vec<Entry> {
        let mut entries = Vec::new();
        while let Some(entry) = cursor.page().to_entry() {
            entries.push(entry);
            cursor.advance().unwrap();
        }
        entries
    }

    #[test]
    fn key_hashes_cross_a_chunk_without_moving_or_losing_one() {
        let pair = |i: usize| hash_pair(&(i as u64).to_le_bytes());
        let mut hashes = KeyHashes::with_entries(usize::MAX);
        let first = hashes.0[0].as_ptr();
        for i in 0..KEY_HASH_CHUNK + 3 {
            hashes.push(pair(i));
        }
        assert_eq!(hashes.0.len(), 2);
        assert_eq!(hashes.0[0].as_ptr(), first, "a full chunk stays put");
        assert_eq!(hashes.0[1].capacity(), KEY_HASH_CHUNK);
        assert!(hashes
            .0
            .iter()
            .flatten()
            .copied()
            .eq((0..KEY_HASH_CHUNK + 3).map(pair)));
        // Unknown count (recovery): grows to one chunk, then adds chunks.
        let mut hashes = KeyHashes::with_entries(0);
        (0..KEY_HASH_CHUNK + 1).for_each(|i| hashes.push(pair(i)));
        assert_eq!(
            hashes.0.iter().map(Vec::len).collect::<Vec<_>>(),
            [KEY_HASH_CHUNK, 1]
        );
    }

    #[test]
    fn point_lookup_costs_one_io() {
        let disk = Disk::mem(64);
        let run = build(
            &disk,
            &["apple", "banana", "cherry", "date", "elderberry", "fig"],
            10.0,
        );
        assert!(run.pages() > 1, "spread over multiple pages");
        disk.reset_io();
        let e = run.get(b"date").unwrap().unwrap();
        assert_eq!(e.value.as_ref(), b"v3");
        assert_eq!(disk.io().page_reads, 1, "fence pointers: exactly one I/O");
    }

    #[test]
    fn filter_negative_skips_io() {
        let disk = Disk::mem(256);
        let run = build(&disk, &["a", "b", "c"], 16.0);
        disk.reset_io();
        for i in 0..100 {
            let key = format!("missing-{i}");
            run.get(key.as_bytes()).unwrap();
        }
        let ios = disk.io().page_reads;
        assert!(
            ios <= 5,
            "filter should absorb nearly all of 100 probes, cost {ios}"
        );
    }

    #[test]
    fn out_of_range_key_is_free_even_with_degenerate_filter() {
        let disk = Disk::mem(256);
        let run = build(&disk, &["m", "n", "o"], 0.0); // no filter at all
        disk.reset_io();
        assert!(run.get(b"a").unwrap().is_none());
        assert!(run.get(b"z").unwrap().is_none());
        assert_eq!(
            disk.io().page_reads,
            0,
            "fences bound the key range for free"
        );
        // In-range missing key costs one I/O (false positive of the
        // degenerate filter).
        assert!(run.get(b"mm").unwrap().is_none());
        assert_eq!(disk.io().page_reads, 1);
    }

    #[test]
    fn tombstones_are_returned() {
        let disk = Disk::mem(256);
        let mut b = RunBuilder::new(Arc::clone(&disk));
        b.push(&Entry::put(b"a".to_vec(), b"1".to_vec(), 1))
            .unwrap();
        b.push(&Entry::tombstone(b"b".to_vec(), 2)).unwrap();
        let run = Arc::new(b.finish(10.0).unwrap().unwrap());
        assert_eq!(run.tombstones(), 1);
        let e = run.get(b"b").unwrap().unwrap();
        assert!(e.is_tombstone());
    }

    #[test]
    fn empty_builder_yields_none() {
        let disk = Disk::mem(64);
        let b = RunBuilder::new(Arc::clone(&disk));
        assert!(b.finish(10.0).unwrap().is_none());
        assert!(disk.list_runs().unwrap().is_empty(), "no leaked storage");
    }

    #[test]
    fn pages_leave_in_extents_and_a_failed_extent_surfaces_later_and_leaks_nothing() {
        use monkey_storage::{FaultKind, FlakyBackend, MemFs};
        const PAGE: usize = 4096;
        let per_extent = (WRITE_EXTENT_BYTES / PAGE) as u64;
        let backend = FlakyBackend::new(MemFs::new(), FaultKind::Writes);
        let disk = Disk::file_on(backend.clone(), "runs", PAGE, None).unwrap();
        // One entry a page, `pages` pages: returns the page being built
        // when a push failed, or the outcome of `finish`.
        let build = |pages: u64| -> std::result::Result<Result<Option<Run>>, u64> {
            let mut b = RunBuilder::new(Arc::clone(&disk));
            disk.reset_io();
            for i in 0..pages {
                let entry = Entry::put(format!("k{i:05}").into_bytes(), vec![b'v'; PAGE / 2], i);
                if b.push(&entry).is_err() {
                    return Err(i);
                }
                // Entry `i` sits in the open page behind `i` finished ones,
                // and a full extent leaves when the next page is finished.
                let written = i.saturating_sub(1) / per_extent * per_extent;
                assert_eq!(disk.io().page_writes, written);
            }
            Ok(b.finish(8.0))
        };
        let pages = per_extent + per_extent / 2;
        let run = build(pages).unwrap().unwrap().unwrap();
        assert_eq!((run.pages() as u64, disk.io().page_writes), (pages, pages));

        // The run's file is created, then its first extent's write fails:
        // it leaves when the page after it is finished.
        backend.arm_once(1);
        assert_eq!(build(pages).unwrap_err(), per_extent + 1);
        // A fault on the last, partial extent surfaces at `finish`.
        backend.arm_once(2);
        assert!(build(pages).unwrap().is_err());
        assert_eq!(backend.injected(), 2);
        assert_eq!(
            disk.list_runs().unwrap(),
            vec![run.id()],
            "no partial run left"
        );
    }

    #[test]
    fn iter_yields_all_in_order_with_sequential_io() {
        let disk = Disk::mem(64);
        let keys: Vec<String> = (0..50).map(|i| format!("key{i:04}")).collect();
        let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let run = build(&disk, &refs, 10.0);
        disk.reset_io();
        let got = drain(run.scan_from(b"", None).unwrap());
        assert_eq!(got.len(), 50);
        assert!(got.windows(2).all(|w| w[0].key < w[1].key));
        let io = disk.io();
        assert_eq!(io.page_reads as u32, run.pages());
        assert_eq!(io.seeks, 1, "scan costs one seek");
    }

    #[test]
    fn iter_from_positions_by_fence() {
        let disk = Disk::mem(64);
        let keys: Vec<String> = (0..50).map(|i| format!("key{i:04}")).collect();
        let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let run = build(&disk, &refs, 10.0);
        disk.reset_io();
        let got = drain(run.scan_from(b"key0040", None).unwrap());
        assert_eq!(got.len(), 10);
        assert_eq!(got[0].key.as_ref(), b"key0040");
        assert!(
            (disk.io().page_reads as u32) < run.pages(),
            "positioned scan skips leading pages"
        );
    }

    #[test]
    fn iter_from_beyond_max_is_empty_and_free() {
        let disk = Disk::mem(64);
        let run = build(&disk, &["a", "b"], 10.0);
        disk.reset_io();
        assert!(run.scan_from(b"zzz", None).unwrap().page().key().is_none());
        assert_eq!(disk.io().page_reads, 0);
    }

    #[test]
    fn page_for_edges() {
        let disk = Disk::mem(64);
        let run = build(&disk, &["b", "d", "f", "h", "j", "l"], 10.0);
        assert_eq!(run.page_for(b"a"), None);
        assert_eq!(run.page_for(b"b"), Some(0));
        assert!(run.page_for(b"l").is_some());
        assert_eq!(run.page_for(b"m"), None);
    }

    #[test]
    fn obsolete_run_storage_reclaimed_on_last_drop() {
        let disk = Disk::mem(64);
        let run = build(&disk, &["a", "b", "c"], 10.0);
        let id = run.id();
        let cursor = run.scan_from(b"", None).unwrap(); // pins the run
        run.mark_obsolete();
        drop(run);
        // Cursor still holds the run: storage must still be readable.
        assert!(disk.run_pages(id).is_ok());
        assert_eq!(drain(cursor).len(), 3);
        // (cursor dropped there)
        assert!(
            disk.run_pages(id).is_err(),
            "storage reclaimed after last reference"
        );
    }

    /// The same contract over run files: the open cursor pins the run (and
    /// its descriptor), the file goes with the last reference.
    #[test]
    fn obsolete_run_file_reclaimed_on_last_drop() {
        let dir = std::env::temp_dir().join(format!("monkey-run-obsolete-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = Disk::file(&dir, 4096).unwrap();
        let keys: Vec<String> = (0..400).map(|i| format!("key{i:04}")).collect();
        let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let run = build(&disk, &refs, 10.0);
        assert!(run.pages() > 1);
        let file = dir.join(format!("{:016x}.run", run.id()));
        let id = run.id();
        let cursor = run.scan_from(b"", None).unwrap();
        assert_eq!(cursor.page().key(), Some(b"key0000".as_slice()));
        run.mark_obsolete();
        drop(run);
        assert!(file.exists(), "the cursor still holds the run");
        assert_eq!(drain(cursor).len(), 400, "every later page stays readable");
        // (cursor dropped there)
        assert!(!file.exists(), "storage reclaimed after last reference");
        assert!(disk.run_pages(id).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_obsolete_run_keeps_storage_on_drop() {
        let disk = Disk::mem(64);
        let run = build(&disk, &["a"], 10.0);
        let id = run.id();
        drop(run);
        assert!(
            disk.run_pages(id).is_ok(),
            "runs persist across engine restarts"
        );
    }

    #[test]
    fn recover_run_matches_original() {
        let disk = Disk::mem(64);
        let keys: Vec<String> = (0..30).map(|i| format!("k{i:03}")).collect();
        let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let original = build(&disk, &refs, 8.0);
        let recovered = recover_run(&disk, original.id(), 8.0).unwrap();
        assert_eq!(recovered.entries(), original.entries());
        assert_eq!(recovered.pages(), original.pages());
        assert_eq!(recovered.min_key(), original.min_key());
        assert_eq!(recovered.max_key(), original.max_key());
        assert_eq!(recovered.bytes(), original.bytes());
        assert_eq!(recovered.fence_memory_bits(), original.fence_memory_bits());
        let rec = Arc::new(recovered);
        let e = rec.get(b"k015").unwrap().unwrap();
        assert_eq!(e.value.as_ref(), b"v15");
    }

    /// A run built over `below` counts exactly its keys `below`'s filter
    /// rejects, none of them a key `below` holds. The count is `below`'s
    /// alone, a filter rebuild of the same pages keeps it, and a recovery —
    /// which cannot know what sat below — starts without one.
    #[test]
    fn novel_count_is_the_keys_the_filter_below_rejects() {
        let disk = Disk::mem(64);
        let keys = |range: std::ops::Range<usize>, step: usize| -> Vec<String> {
            range.step_by(step).map(|i| format!("key{i:04}")).collect()
        };
        // Below: the even keys under 200, behind a filter loose enough to
        // pass some absent keys. Above: every key in 100..300.
        let below_keys = keys(0..200, 2);
        let below = build(
            &disk,
            &below_keys.iter().map(String::as_str).collect::<Vec<_>>(),
            3.0,
        );
        let above_keys = keys(100..300, 1);
        let mut builder = RunBuilder::new(Arc::clone(&disk));
        for (i, k) in above_keys.iter().enumerate() {
            builder
                .push(&Entry::put(k.as_bytes().to_vec(), b"v".to_vec(), i as u64))
                .unwrap();
        }
        let above = builder.finish_over(8.0, Some(&below)).unwrap().unwrap();

        let rejected: Vec<&String> = (above_keys.iter())
            .filter(|k| !below.filter().contains(k.as_bytes()))
            .collect();
        assert!(
            rejected.iter().all(|k| !below_keys.contains(k)),
            "no false negatives"
        );
        let absent = above_keys
            .iter()
            .filter(|k| !below_keys.contains(k))
            .count();
        assert!(
            !rejected.is_empty() && rejected.len() < absent,
            "{} of {absent}",
            rejected.len()
        );
        assert_eq!(above.novel_below(&below), rejected.len() as u64);

        let elsewhere = build(&disk, &["key0101"], 8.0);
        assert_eq!(
            above.novel_below(&elsewhere),
            0,
            "counted against another run"
        );
        assert_eq!(below.novel_below(&above), 0, "built over nothing");
        let recovered = recover_run(&disk, above.id(), 8.0).unwrap();
        assert_eq!(recovered.novel_below(&below), 0, "recovered");
        assert_eq!(recovered.min_entry_bytes(), above.min_entry_bytes());
        let rebuilt = recovered.keeping_novel_count_of(&above);
        assert_eq!(rebuilt.novel_below(&below), rejected.len() as u64);
    }

    #[test]
    fn recover_run_rejects_pages_out_of_key_order() {
        let disk = Disk::mem(64);
        let mut writer = disk.begin_run();
        let mut page = PageBuilder::new(64);
        for key in ["m", "a"] {
            page.push(&Entry::put(key.as_bytes().to_vec(), b"v".to_vec(), 1))
                .unwrap();
            writer.append(page.finish()).unwrap();
        }
        let id = writer.seal().unwrap();
        let err = recover_run(&disk, id, 8.0).unwrap_err();
        assert!(
            err.to_string().contains("page 1 starts at or below"),
            "{err}"
        );
    }

    #[test]
    fn fences_are_compressed_separators() {
        // Keys diverge in their first bytes and drag a long constant tail:
        // separators truncate the tail, so fences are far smaller than the
        // keys — and boundary lookups still work.
        let disk = Disk::mem(96);
        let keys: Vec<String> = (0..40)
            .map(|i| format!("{i:04}{}", "x".repeat(28)))
            .collect();
        let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let run = build(&disk, &refs, 10.0);
        assert!(run.pages() >= 10);
        // Every key still resolves with one read.
        for (i, k) in refs.iter().enumerate() {
            disk.reset_io();
            let e = run.get(k.as_bytes()).unwrap().unwrap();
            assert_eq!(e.value.as_ref(), format!("v{i}").as_bytes());
            assert_eq!(disk.io().page_reads, 1, "key {k}");
        }
        // Full-key fences would cost (32 + 8) bytes per page; compressed
        // separators keep only the leading digits (≤ 4 bytes + overhead).
        let full_key_bits = run.pages() as u64 * (32 + 8) * 8;
        assert!(
            run.fence_memory_bits() < full_key_bits / 2,
            "{} not well below {full_key_bits}",
            run.fence_memory_bits()
        );
        // Dense keys differing only in their last byte cannot be
        // truncated — separators never *grow* fences, though.
        let disk2 = Disk::mem(96);
        let dense: Vec<String> = (0..40).map(|i| format!("prefix-{i:08}")).collect();
        let drefs: Vec<&str> = dense.iter().map(String::as_str).collect();
        let run2 = build(&disk2, &drefs, 10.0);
        assert!(run2.fence_memory_bits() <= run2.pages() as u64 * (15 + 8) * 8);
    }

    #[test]
    fn shortest_separator_properties() {
        let cases = [
            ("apple", "apricot"),
            ("abc", "abd"),
            ("abc", "abcd"),
            ("a", "b"),
            ("key00019", "key00020"),
        ];
        for (prev, next) in cases {
            let s = &next.as_bytes()[..shortest_separator(prev.as_bytes(), next.as_bytes())];
            assert!(prev.as_bytes() < s, "{prev} !< {s:?}");
            assert!(s <= next.as_bytes(), "{s:?} !<= {next}");
            assert!(s.len() <= next.len());
        }
    }

    #[test]
    fn out_of_range_key_never_probes_the_filter() {
        // Fence check runs before the filter: an out-of-range key must be
        // rejected by two key comparisons, not k hash-bit lookups.
        let disk = Disk::mem(256);
        let run = build(&disk, &["m", "n", "o"], 16.0);
        for key in [b"a".as_slice(), b"zzz"] {
            let look = run.get_hashed(key, hash_pair(key)).unwrap();
            assert_eq!(look, RunLookup::out_of_range());
        }
        // An in-range miss does probe (and the filter absorbs it).
        let look = run.get_hashed(b"mm", hash_pair(b"mm")).unwrap();
        assert!(look.probed_filter);
    }

    #[test]
    fn get_and_get_hashed_agree() {
        let disk = Disk::mem(64);
        let keys: Vec<String> = (0..40).map(|i| format!("key{i:03}")).collect();
        let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let run = build(&disk, &refs, 8.0);
        for probe in ["key000", "key020", "key039", "missing", "aaa", "zzz"] {
            let plain = run.get(probe.as_bytes()).unwrap();
            let hashed = run
                .get_hashed(probe.as_bytes(), hash_pair(probe.as_bytes()))
                .unwrap();
            assert_eq!(plain, hashed.entry, "probe {probe}");
        }
    }

    #[test]
    fn get_hashed_accounting_is_consistent() {
        let disk = Disk::mem(64);
        let run = build(&disk, &["b", "d", "f"], 16.0);
        // A present key: probed, not negative, page read, entry found.
        let look = run.get_hashed(b"d", hash_pair(b"d")).unwrap();
        assert!(look.probed_filter && !look.filter_negative && look.page_read);
        assert!(look.entry.is_some());
        // A filter negative: probed, negative, no page read.
        let mut saw_negative = false;
        for i in 0..50 {
            let key = format!("c-missing-{i}");
            let look = run
                .get_hashed(key.as_bytes(), hash_pair(key.as_bytes()))
                .unwrap();
            assert!(look.probed_filter);
            assert!(look.entry.is_none());
            if look.filter_negative {
                assert!(!look.page_read);
                saw_negative = true;
            } else {
                assert!(look.page_read, "a filter positive must read the page");
            }
        }
        assert!(saw_negative, "16 bpe absorbs most of 50 misses");
    }

    #[test]
    fn blocked_variant_run_lookups_work() {
        let disk = Disk::mem(64);
        let mut b = RunBuilder::new(Arc::clone(&disk));
        let keys: Vec<String> = (0..40).map(|i| format!("key{i:03}")).collect();
        for (i, k) in keys.iter().enumerate() {
            b.push(&Entry::put(
                k.as_bytes().to_vec(),
                format!("v{i}").into_bytes(),
                i as u64,
            ))
            .unwrap();
        }
        let run = Arc::new(
            b.finish(FilterParams::new(10.0, FilterVariant::Blocked))
                .unwrap()
                .unwrap(),
        );
        assert_eq!(run.filter_variant(), FilterVariant::Blocked);
        disk.reset_io();
        for (i, k) in keys.iter().enumerate() {
            let e = run.get(k.as_bytes()).unwrap().unwrap();
            assert_eq!(e.value.as_ref(), format!("v{i}").as_bytes());
        }
        assert_eq!(disk.io().page_reads, 40, "no false negatives, one I/O each");
        disk.reset_io();
        for i in 0..100 {
            let key = format!("miss-{i}");
            assert!(run.get(key.as_bytes()).unwrap().is_none());
        }
        assert!(
            disk.io().page_reads <= 10,
            "blocked filter absorbs most misses"
        );
    }

    #[test]
    fn recover_run_preserves_filter_variant() {
        let disk = Disk::mem(64);
        let mut b = RunBuilder::new(Arc::clone(&disk));
        for (i, k) in ["a", "b", "c"].iter().enumerate() {
            b.push(&Entry::put(k.as_bytes().to_vec(), b"v".to_vec(), i as u64))
                .unwrap();
        }
        let original = b
            .finish(FilterParams::new(8.0, FilterVariant::Blocked))
            .unwrap()
            .unwrap();
        let recovered = recover_run(
            &disk,
            original.id(),
            FilterParams::new(8.0, FilterVariant::Blocked),
        )
        .unwrap();
        assert_eq!(recovered.filter_variant(), FilterVariant::Blocked);
        assert!(recovered.get(b"b").unwrap().is_some());
    }

    #[test]
    fn fence_memory_accounts_keys() {
        let disk = Disk::mem(64);
        let run = build(&disk, &["aa", "bb", "cc", "dd", "ee", "ff"], 10.0);
        // Separators compress "bb".. to "b" etc.; each fence still pays at
        // least its pointer slot plus one key byte.
        let bits = run.fence_memory_bits();
        assert!(bits >= run.pages() as u64 * (1 + 8) * 8, "{bits}");
        assert!(bits <= run.pages() as u64 * (2 + 8) * 8);
    }
}
